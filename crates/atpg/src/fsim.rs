//! Pattern-parallel combinational fault simulation on the full-scan view,
//! accelerated by fanout-cone pruning and fault-parallel threading.
//!
//! The seed's simulator re-evaluated the *entire* netlist for every live
//! fault × 64-pattern block — O(patterns × faults × gates). This engine
//! applies the two classic fault-simulation accelerations:
//!
//! * **cone pruning** (HOPE-style single-fault propagation): each fault's
//!   levelized transitive fanout is computed once at construction; per
//!   fault only the cone's gates are re-evaluated against the cached
//!   good-value baseline, and only observable points *inside* the cone are
//!   compared. A fault whose cone reaches no observable point is skipped
//!   outright.
//! * **fault partitioning** (PROOFS-style fault parallelism): the live
//!   fault list of each block is split across scoped threads; every fault's
//!   verdict is an independent pure function of the shared baseline, so
//!   results are bit-identical for any worker count.
//!
//! The seed's full-netlist path survives as [`FaultSim::detected_naive`] /
//! [`FaultSim::accumulate_naive`], the oracle the property tests pin the
//! cone engine against.

use crate::fault::Fault;
use crate::metrics::AtpgMetrics;
use socet_gate::kernel::{eval, sweep, Events};
use socet_gate::{GateNetlist, PackedSim, SignalId};
use socet_obs::names;

/// Minimum live faults in a block before the engine fans out over threads;
/// below this the spawn cost outweighs the work.
const MIN_PARALLEL_FAULTS: usize = 192;

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

/// Reusable per-worker evaluation scratch: an epoch-stamped sparse overlay
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
    /// Worker cap for fault partitioning (1 forces serial evaluation).
    workers: usize,
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
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            comb_gates: nl.topo_order().len() as u64,
            pi_buf: Vec::new(),
            ff_buf: Vec::new(),
            good: Vec::new(),
            scratch: ConeScratch::new(n),
            metrics: AtpgMetrics::new(),
            nl,
        }
    }

    /// Caps the number of worker threads fault partitioning may use; `0`
    /// and `1` both force serial evaluation. Detection results are
    /// bit-identical for every setting — this only trades wall time.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
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
    /// fault's cone, partitioned across threads when the block is large.
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
        let used: u64 = if block.len() == 64 {
            u64::MAX
        } else {
            (1u64 << block.len()) - 1
        };
        masks.fill(0);
        let live: Vec<u32> = (0..faults.len() as u32)
            .filter(|&fi| !skip[fi as usize])
            .collect();
        if live.is_empty() {
            return;
        }
        self.metrics.full_gate_evals_equiv += live.len() as u64 * self.comb_gates;

        let nl = self.nl;
        let cones = &self.cones;
        let good = &self.good;
        let workers = self
            .workers
            .min(live.len().div_ceil(MIN_PARALLEL_FAULTS / 2));
        if workers > 1 && live.len() >= MIN_PARALLEL_FAULTS {
            let chunk = live.len().div_ceil(workers);
            type Shard = (Vec<(u32, u64)>, AtpgMetrics, socet_obs::Recorder);
            let shards: Vec<Shard> = std::thread::scope(|s| {
                let handles: Vec<_> = live
                    .chunks(chunk)
                    .map(|part| {
                        // Forked on the parent thread so the worker's
                        // spans land on the caller's timeline (disabled
                        // — and free — when nothing is installed).
                        let mut rec = socet_obs::fork_local();
                        s.spawn(move || {
                            let mut m = AtpgMetrics::new();
                            let out: Vec<(u32, u64)> = {
                                let _sink = rec.install();
                                let _span = socet_obs::span(names::FSIM_SHARD);
                                let mut scratch = ConeScratch::new(nl.gates().len());
                                part.iter()
                                    .map(|&fi| {
                                        let mask = fault_mask(
                                            nl,
                                            cones,
                                            good,
                                            &mut scratch,
                                            faults[fi as usize],
                                            used,
                                            &mut m,
                                        );
                                        (fi, mask)
                                    })
                                    .collect()
                            };
                            (out, m, rec)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fault-sim worker panicked"))
                    .collect()
            });
            // Deterministic merge: shards are disjoint index sets, walked
            // in spawn order; shard recorders fold into the caller's sink
            // in the same order. Counters stay in `AtpgMetrics` (published
            // once per run by the driver) so the trace never double-counts.
            let count = shards.len() as u64;
            for (out, m, rec) in shards {
                for &(fi, mask) in &out {
                    masks[fi as usize] = mask;
                }
                self.metrics.merge(&m);
                socet_obs::adopt([rec]);
            }
            self.metrics.parallel_shards += count;
        } else {
            let scratch = &mut self.scratch;
            let metrics = &mut self.metrics;
            for &fi in &live {
                masks[fi as usize] =
                    fault_mask(nl, cones, good, scratch, faults[fi as usize], used, metrics);
            }
        }
    }

    /// The seed's full-netlist resimulation path, kept as the oracle the
    /// cone engine is pinned against: `result[i]` tells whether `faults[i]`
    /// is detected by at least one pattern.
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatch.
    pub fn detected_naive(&self, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
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
    pub fn accumulate_naive(&self, faults: &[Fault], patterns: &[Vec<bool>], det: &mut [bool]) {
        assert_eq!(det.len(), faults.len(), "detection map length");
        let sim = PackedSim::new(self.nl);
        let pos = self.nl.comb_outputs();
        for block in patterns.chunks(64) {
            let (pi, ff) = self.pack_owned(block);
            let used: u64 = if block.len() == 64 {
                u64::MAX
            } else {
                (1u64 << block.len()) - 1
            };
            let good = sim.eval(&pi, &ff, None);
            for (fi, fault) in faults.iter().enumerate() {
                if det[fi] {
                    continue;
                }
                let bad = sim.eval(&pi, &ff, Some((fault.signal, fault.stuck_at_one)));
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

    /// Owned-buffer packing for the naive (`&self`) oracle path.
    fn pack_owned(&self, block: &[Vec<bool>]) -> (Vec<u64>, Vec<u64>) {
        let mut pi = vec![0u64; self.n_pi];
        let mut ff = vec![0u64; self.n_ff];
        for (k, pat) in block.iter().enumerate() {
            assert_eq!(pat.len(), self.pattern_width(), "pattern width");
            for (i, &bit) in pat.iter().enumerate() {
                if bit {
                    if i < self.n_pi {
                        pi[i] |= 1 << k;
                    } else {
                        ff[i - self.n_pi] |= 1 << k;
                    }
                }
            }
        }
        (pi, ff)
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
    fn worker_count_does_not_change_results() {
        let nl = adder4();
        let faults = fault_list(&nl);
        let patterns = lcg_patterns(8, 70, 0xabcd);
        let serial = FaultSim::new(&nl)
            .with_workers(1)
            .detected(&faults, &patterns);
        let parallel = FaultSim::new(&nl)
            .with_workers(8)
            .detected(&faults, &patterns);
        assert_eq!(serial, parallel);
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
