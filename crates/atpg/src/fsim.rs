//! Pattern-parallel combinational fault simulation on the full-scan view,
//! accelerated by fanout-cone pruning.
//!
//! The seed's simulator re-evaluated the *entire* netlist for every live
//! fault × 64-pattern block — O(patterns × faults × gates). This engine
//! applies **cone pruning** (HOPE-style single-fault propagation): each
//! fault's levelized transitive fanout is computed once at construction;
//! per fault only the cone's gates are re-evaluated against the cached
//! good-value baseline, and only observable points *inside* the cone are
//! compared. A fault whose cone reaches no observable point is skipped
//! outright. The engine runs on the calling thread: its counters travel in
//! every test-set artifact, so they must not depend on the host's CPU
//! count.
//!
//! The seed's full-netlist path survives as [`FaultSim::detected_naive`] /
//! [`FaultSim::accumulate_naive`], the oracle the property tests pin the
//! cone engine against.

use crate::fault::Fault;
use crate::metrics::AtpgMetrics;
use socet_gate::kernel::{eval, sweep, Events};
use socet_gate::{GateNetlist, PackedSim, SignalId};

/// The precomputed fanout cone of one signal: the combinational gates a
/// fault on the signal can disturb, in topological order, plus the subset
/// of signals (including the site itself) that are observable.
#[derive(Debug, Clone, Default)]
struct Cone {
    /// Strict transitive fanout, topologically sorted (excludes the site).
    gates: Vec<SignalId>,
    /// Observable signals inside the cone (site included when observable).
    observable: Vec<SignalId>,
}

/// Reusable evaluation scratch: an epoch-stamped sparse overlay
/// over the good-value baseline, so beginning a new fault costs O(1)
/// instead of clearing (or copying) a netlist-sized buffer.
#[derive(Debug, Clone)]
struct ConeScratch {
    values: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ConeScratch {
    fn new(n: usize) -> Self {
        ConeScratch {
            values: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn set(&mut self, s: SignalId, v: u64) {
        self.values[s.index()] = v;
        self.stamp[s.index()] = self.epoch;
    }

    /// The faulty value of `s`: the overlay when stamped this epoch, the
    /// good baseline otherwise.
    #[inline]
    fn get(&self, good: &[u64], s: SignalId) -> u64 {
        if self.stamp[s.index()] == self.epoch {
            self.values[s.index()]
        } else {
            good[s.index()]
        }
    }
}

/// Combinational fault simulator: packs up to 64 test patterns per word and
/// resimulates each live fault's fanout cone against the block.
///
/// Patterns assign all combinational inputs (real PIs, then flip-flop
/// pseudo-inputs), matching [`Podem::inputs`](crate::Podem::inputs) order.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateKind, GateNetlistBuilder};
/// use socet_atpg::{fault_list, FaultSim};
/// let mut b = GateNetlistBuilder::new("and");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate2(GateKind::And2, x, y);
/// b.output("z", z);
/// let nl = b.build()?;
/// let mut sim = FaultSim::new(&nl);
/// // The exhaustive pattern set detects every fault of an AND gate.
/// let patterns = vec![
///     vec![false, false],
///     vec![false, true],
///     vec![true, false],
///     vec![true, true],
/// ];
/// let detected = sim.detected(&fault_list(&nl), &patterns);
/// assert_eq!(detected.iter().filter(|&&d| d).count(), fault_list(&nl).len());
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct FaultSim<'a> {
    nl: &'a GateNetlist,
    n_pi: usize,
    n_ff: usize,
    /// Per-signal fanout cones, indexed by `SignalId::index`.
    cones: Vec<Cone>,
    comb_gates: u64,
    // Per-call scratch, reused across blocks and calls.
    pi_buf: Vec<u64>,
    ff_buf: Vec<u64>,
    good: Vec<u64>,
    scratch: ConeScratch,
    metrics: AtpgMetrics,
}

impl<'a> FaultSim<'a> {
    /// Creates a fault simulator over `nl`, precomputing every signal's
    /// fanout cone.
    pub fn new(nl: &'a GateNetlist) -> Self {
        let n = nl.gates().len();
        FaultSim {
            n_pi: nl.inputs().len(),
            n_ff: nl.flip_flop_count(),
            cones: build_cones(nl),
            comb_gates: nl.topo_order().len() as u64,
            pi_buf: Vec::new(),
            ff_buf: Vec::new(),
            good: Vec::new(),
            scratch: ConeScratch::new(n),
            metrics: AtpgMetrics::new(),
            nl,
        }
    }

    /// Width of a pattern: real inputs plus flip-flop pseudo-inputs.
    pub fn pattern_width(&self) -> usize {
        self.n_pi + self.n_ff
    }

    /// Counters accumulated since construction (or the last
    /// [`FaultSim::take_metrics`]).
    pub fn metrics(&self) -> &AtpgMetrics {
        &self.metrics
    }

    /// Returns and resets the accumulated counters.
    pub fn take_metrics(&mut self) -> AtpgMetrics {
        std::mem::take(&mut self.metrics)
    }

    /// Simulates `patterns` against `faults`; `result[i]` tells whether
    /// `faults[i]` is detected by at least one pattern.
    ///
    /// # Panics
    ///
    /// Panics if any pattern's length differs from
    /// [`FaultSim::pattern_width`].
    pub fn detected(&mut self, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
        let mut det = vec![false; faults.len()];
        self.accumulate(faults, patterns, &mut det);
        det
    }

    /// Like [`FaultSim::detected`] but ORs into an existing detection map —
    /// the fault-dropping loop of the ATPG driver uses this.
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatch or `det.len() != faults.len()`.
    pub fn accumulate(&mut self, faults: &[Fault], patterns: &[Vec<bool>], det: &mut [bool]) {
        assert_eq!(det.len(), faults.len(), "detection map length");
        let mut masks = vec![0u64; faults.len()];
        for block in patterns.chunks(64) {
            if det.iter().all(|&d| d) {
                break;
            }
            self.masks_for_block(faults, block, det, &mut masks);
            for (d, m) in det.iter_mut().zip(&masks) {
                *d |= *m != 0;
            }
        }
    }

    /// Per-pattern detection masks for one block of ≤64 patterns:
    /// `masks[i]` has bit *k* set iff `faults[i]` is detected by
    /// `block[k]`. Faults with `skip[i]` set are not evaluated and get an
    /// all-zero mask. Compaction and the driver's keep-only-useful pass use
    /// this to replay per-pattern greedy decisions without re-simulating
    /// one pattern per 64-lane block.
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatch, a block of more than 64 patterns,
    /// or `skip`/`masks` length mismatch.
    pub fn detection_masks(
        &mut self,
        faults: &[Fault],
        block: &[Vec<bool>],
        skip: &[bool],
        masks: &mut [u64],
    ) {
        assert!(
            block.len() <= 64,
            "detection_masks block of {}",
            block.len()
        );
        self.masks_for_block(faults, block, skip, masks);
    }

    /// Evaluates one ≤64-pattern block: good baseline once, then each live
    /// fault's cone.
    fn masks_for_block(
        &mut self,
        faults: &[Fault],
        block: &[Vec<bool>],
        skip: &[bool],
        masks: &mut [u64],
    ) {
        assert_eq!(skip.len(), faults.len(), "skip map length");
        assert_eq!(masks.len(), faults.len(), "mask buffer length");
        self.pack(block);
        sweep(
            self.nl,
            &self.pi_buf,
            &self.ff_buf,
            &mut self.good,
            |_, v| v,
        );
        self.metrics.blocks_simulated += 1;
        let used = used_lanes(block.len());
        masks.fill(0);
        for (fi, &fault) in faults.iter().enumerate() {
            if skip[fi] {
                continue;
            }
            self.metrics.full_gate_evals_equiv += self.comb_gates;
            masks[fi] = fault_mask(
                self.nl,
                &self.cones,
                &self.good,
                &mut self.scratch,
                fault,
                used,
                &mut self.metrics,
            );
        }
    }

    /// The seed's full-netlist resimulation path, kept as the oracle the
    /// cone engine is pinned against: `result[i]` tells whether `faults[i]`
    /// is detected by at least one pattern.
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatch.
    pub fn detected_naive(&mut self, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
        let mut det = vec![false; faults.len()];
        self.accumulate_naive(faults, patterns, &mut det);
        det
    }

    /// Naive-path counterpart of [`FaultSim::accumulate`]: rebuilds the
    /// packed state and re-evaluates the entire netlist for every live
    /// fault × block, exactly as the seed did.
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatch or `det.len() != faults.len()`.
    pub fn accumulate_naive(&mut self, faults: &[Fault], patterns: &[Vec<bool>], det: &mut [bool]) {
        assert_eq!(det.len(), faults.len(), "detection map length");
        let sim = PackedSim::new(self.nl);
        let pos = self.nl.comb_outputs();
        for block in patterns.chunks(64) {
            self.pack(block);
            let (pi, ff) = (&self.pi_buf, &self.ff_buf);
            let used = used_lanes(block.len());
            let good = sim.eval(pi, ff, None);
            for (fi, fault) in faults.iter().enumerate() {
                if det[fi] {
                    continue;
                }
                let bad = sim.eval(pi, ff, Some((fault.signal, fault.stuck_at_one)));
                let hit = pos
                    .iter()
                    .any(|s| (good[s.index()] ^ bad[s.index()]) & used != 0);
                if hit {
                    det[fi] = true;
                }
            }
        }
    }

    /// Packs a block of ≤64 patterns into the reusable per-input words.
    fn pack(&mut self, block: &[Vec<bool>]) {
        self.pi_buf.clear();
        self.pi_buf.resize(self.n_pi, 0);
        self.ff_buf.clear();
        self.ff_buf.resize(self.n_ff, 0);
        for (k, pat) in block.iter().enumerate() {
            assert_eq!(pat.len(), self.pattern_width(), "pattern width");
            for (i, &bit) in pat.iter().enumerate() {
                if bit {
                    if i < self.n_pi {
                        self.pi_buf[i] |= 1 << k;
                    } else {
                        self.ff_buf[i - self.n_pi] |= 1 << k;
                    }
                }
            }
        }
    }
}

/// The lane mask of a block of `n` ≤ 64 patterns.
fn used_lanes(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Evaluates one fault's cone against the good baseline and returns the
/// mask of patterns whose faulty value differs at an observable point.
fn fault_mask(
    nl: &GateNetlist,
    cones: &[Cone],
    good: &[u64],
    scratch: &mut ConeScratch,
    fault: Fault,
    used: u64,
    metrics: &mut AtpgMetrics,
) -> u64 {
    let cone = &cones[fault.signal.index()];
    if cone.observable.is_empty() {
        metrics.faults_skipped_unobservable += 1;
        return 0;
    }
    scratch.begin();
    let forced = if fault.stuck_at_one { u64::MAX } else { 0 };
    scratch.set(fault.signal, forced);
    for &g in &cone.gates {
        let gate = nl.gate(g);
        let val = eval(gate.kind, gate.operands(), |o| scratch.get(good, o));
        scratch.set(g, val);
    }
    metrics.cone_gate_evals += cone.gates.len() as u64;
    let mut diff = 0u64;
    for &s in &cone.observable {
        diff |= (good[s.index()] ^ scratch.get(good, s)) & used;
        if diff == used {
            break;
        }
    }
    diff
}

/// Builds every signal's fanout cone ([`Events::cone`]): the walk stops at
/// flip-flops, whose D inputs are observable points and whose Qs belong to
/// the *next* scan frame, and it comes out in topological order so one
/// forward pass re-evaluates the cone.
fn build_cones(nl: &GateNetlist) -> Vec<Cone> {
    let n = nl.gates().len();
    let mut events = Events::new(nl);
    let mut observable = vec![false; n];
    for s in nl.comb_outputs() {
        observable[s.index()] = true;
    }
    let mut cones = Vec::with_capacity(n);
    for site in 0..n {
        let site_id = SignalId::from_index(site);
        let mut gates: Vec<SignalId> = Vec::new();
        events.cone(nl, site_id, &mut gates);
        let mut obs: Vec<SignalId> = Vec::new();
        if observable[site] {
            obs.push(site_id);
        }
        obs.extend(gates.iter().copied().filter(|s| observable[s.index()]));
        cones.push(Cone {
            gates,
            observable: obs,
        });
    }
    cones
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_list;
    use socet_gate::{GateKind, GateNetlistBuilder, SignalId};

    #[test]
    fn no_patterns_detect_nothing() {
        let mut b = GateNetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.gate1(GateKind::Not, a);
        b.output("y", y);
        let nl = b.build().unwrap();
        let mut sim = FaultSim::new(&nl);
        let det = sim.detected(&fault_list(&nl), &[]);
        assert!(det.iter().all(|&d| !d));
    }

    #[test]
    fn inverter_needs_both_polarities() {
        let mut b = GateNetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.gate1(GateKind::Not, a);
        b.output("y", y);
        let nl = b.build().unwrap();
        let mut sim = FaultSim::new(&nl);
        let faults = fault_list(&nl);
        // Only the all-zero pattern: detects a s-a-1 and y s-a-0.
        let det = sim.detected(&faults, &[vec![false]]);
        let detected: Vec<Fault> = faults
            .iter()
            .zip(&det)
            .filter(|(_, &d)| d)
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(detected, vec![Fault::sa1(a), Fault::sa0(y)]);
        // Adding the all-one pattern completes coverage.
        let det = sim.detected(&faults, &[vec![false], vec![true]]);
        assert!(det.iter().all(|&d| d));
    }

    #[test]
    fn accumulate_unions_detections() {
        let mut b = GateNetlistBuilder::new("inv");
        let a = b.input("a");
        let y = b.gate1(GateKind::Not, a);
        b.output("y", y);
        let nl = b.build().unwrap();
        let mut sim = FaultSim::new(&nl);
        let faults = fault_list(&nl);
        let mut det = vec![false; faults.len()];
        sim.accumulate(&faults, &[vec![false]], &mut det);
        sim.accumulate(&faults, &[vec![true]], &mut det);
        assert!(det.iter().all(|&d| d));
    }

    #[test]
    fn dff_pseudo_inputs_count_in_pattern_width() {
        let mut b = GateNetlistBuilder::new("ff");
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let nl = b.build().unwrap();
        let mut sim = FaultSim::new(&nl);
        assert_eq!(sim.pattern_width(), 2);
        // Detect q s-a-0 by scanning in 1 (pattern bit for the FF).
        let faults = [Fault::sa0(q)];
        let det = sim.detected(&faults, &[vec![false, true]]);
        assert!(det[0]);
    }

    #[test]
    fn more_than_64_patterns_use_multiple_blocks() {
        let mut b = GateNetlistBuilder::new("buf");
        let a = b.input("a");
        let y = b.gate1(GateKind::Not, a);
        b.output("y", y);
        let nl = b.build().unwrap();
        let mut sim = FaultSim::new(&nl);
        // 70 all-zero patterns then one all-one pattern.
        let mut patterns = vec![vec![false]; 70];
        patterns.push(vec![true]);
        let det = sim.detected(&fault_list(&nl), &patterns);
        assert!(det.iter().all(|&d| d));
        let _ = SignalId::from_index(0);
    }

    /// A 4-bit ripple adder: enough reconvergent fanout to exercise cones.
    fn adder4() -> GateNetlist {
        let mut b = GateNetlistBuilder::new("add4");
        let mut carry = b.const0();
        let mut sums = Vec::new();
        for i in 0..4 {
            let x = b.input(&format!("a{i}"));
            let y = b.input(&format!("b{i}"));
            let p = b.gate2(GateKind::Xor2, x, y);
            let s = b.gate2(GateKind::Xor2, p, carry);
            let g1 = b.gate2(GateKind::And2, x, y);
            let g2 = b.gate2(GateKind::And2, p, carry);
            carry = b.gate2(GateKind::Or2, g1, g2);
            sums.push(s);
        }
        for (i, s) in sums.iter().enumerate() {
            b.output(&format!("s{i}"), *s);
        }
        b.output("cout", carry);
        b.build().unwrap()
    }

    fn lcg_patterns(width: usize, count: usize, mut seed: u64) -> Vec<Vec<bool>> {
        (0..count)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        seed >> 63 != 0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cone_engine_matches_naive_oracle() {
        let nl = adder4();
        let faults = fault_list(&nl);
        let patterns = lcg_patterns(8, 100, 0xfee1);
        let mut sim = FaultSim::new(&nl);
        let cone = sim.detected(&faults, &patterns);
        let naive = sim.detected_naive(&faults, &patterns);
        assert_eq!(cone, naive);
    }

    #[test]
    fn detection_masks_match_single_pattern_runs() {
        let nl = adder4();
        let faults = fault_list(&nl);
        let block = lcg_patterns(8, 9, 0x51ac);
        let mut sim = FaultSim::new(&nl);
        let skip = vec![false; faults.len()];
        let mut masks = vec![0u64; faults.len()];
        sim.detection_masks(&faults, &block, &skip, &mut masks);
        for (k, pat) in block.iter().enumerate() {
            let single = sim.detected(&faults, std::slice::from_ref(pat));
            for (fi, &m) in masks.iter().enumerate() {
                assert_eq!(m >> k & 1 != 0, single[fi], "fault {fi} pattern {k}");
            }
        }
    }

    #[test]
    fn detection_masks_skip_is_honored() {
        let nl = adder4();
        let faults = fault_list(&nl);
        let block = lcg_patterns(8, 5, 3);
        let mut sim = FaultSim::new(&nl);
        let mut skip = vec![false; faults.len()];
        skip[0] = true;
        let mut masks = vec![0u64; faults.len()];
        sim.detection_masks(&faults, &block, &skip, &mut masks);
        assert_eq!(masks[0], 0, "skipped fault must not be evaluated");
    }

    #[test]
    fn unobservable_fault_is_skipped_and_counted() {
        // A dangling AND gate: its output drives nothing observable.
        let mut b = GateNetlistBuilder::new("dangle");
        let a = b.input("a");
        let c = b.input("c");
        let dead = b.gate2(GateKind::And2, a, c);
        let live = b.gate2(GateKind::Or2, a, c);
        b.output("o", live);
        let nl = b.build().unwrap();
        let mut sim = FaultSim::new(&nl);
        let faults = [Fault::sa0(dead), Fault::sa1(dead)];
        let det = sim.detected(&faults, &[vec![true, true], vec![false, false]]);
        assert!(det.iter().all(|&d| !d));
        assert!(sim.metrics().faults_skipped_unobservable >= 2);
        assert_eq!(sim.metrics().cone_gate_evals, 0);
    }

    #[test]
    fn metrics_report_pruning_win() {
        let nl = adder4();
        let faults = fault_list(&nl);
        let patterns = lcg_patterns(8, 64, 0x7777);
        let mut sim = FaultSim::new(&nl);
        sim.detected(&faults, &patterns);
        let m = sim.take_metrics();
        assert!(m.blocks_simulated >= 1);
        assert!(m.cone_gate_evals > 0);
        assert!(
            m.cone_gate_evals < m.full_gate_evals_equiv,
            "cones must beat full-netlist work: {m}"
        );
        // take_metrics resets.
        assert_eq!(sim.metrics().blocks_simulated, 0);
    }
}
