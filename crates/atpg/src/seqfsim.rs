//! Fault-parallel, differential three-valued sequential fault simulation.
//!
//! The paper's "Orig." and "HSCAN-only" rows of Table 3 fault-simulate the
//! *sequential* chip (no scan access) against test sequences. Doing that
//! fault-serially is quadratic and slow, so this simulator packs up to 64
//! faulty machines into each `u64` word: lane *k* of every signal carries
//! the value seen by fault *k* of the current block. Values are three-valued
//! (flip-flops power up unknown), carried as the kernel's dual-rail
//! [`Tri64`] lanes.
//!
//! A faulty machine differs from the good one in few signals, so each block
//! is simulated as a difference from it (concurrent fault simulation, after
//! Ulrich and Baker). Every cycle sweeps the good machine once. Each block
//! then starts from that plane, [`propagate`]s only from its fault sites and
//! the flip-flops whose state has diverged, reads its detections and next
//! divergence off the signals it touched, and restores them. Between cycles
//! a block keeps only its diverged flip-flops. On Table 3's runs this
//! evaluates 7.1% (System 1) and 15.2% (System 2) of the gates a full sweep
//! per block and cycle does. [`SeqFaultSim::run_naive`] keeps that full
//! sweep as the oracle the tests pin the differential engine against.
//!
//! Fault blocks are mutually independent, so [`SeqFaultSim::run_from`]
//! additionally partitions them into contiguous ranges across scoped
//! threads, each stepping its own good machine; results are bit-identical
//! for any worker count.

use crate::fault::Fault;
use socet_gate::kernel::{propagate, sweep, Events};
use socet_gate::{GateNetlist, SignalId, Tri, Tri64};
use std::collections::VecDeque;

/// Fault-parallel sequential fault simulator.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateNetlistBuilder, Tri};
/// use socet_atpg::{Fault, SeqFaultSim};
/// let mut b = GateNetlistBuilder::new("dff");
/// let d = b.input("d");
/// let q = b.dff(d);
/// b.output("q", q);
/// let nl = b.build()?;
/// let sim = SeqFaultSim::new(&nl);
/// // Clock in 1 then observe: q stuck-at-0 is detected.
/// let vectors = vec![vec![Tri::One], vec![Tri::Zero]];
/// let det = sim.run(&[Fault::sa0(q)], &vectors);
/// assert_eq!(det, vec![true]);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct SeqFaultSim<'a> {
    nl: &'a GateNetlist,
    /// Worker cap for block partitioning (1 forces serial evaluation).
    workers: usize,
}

impl<'a> SeqFaultSim<'a> {
    /// Creates a simulator over `nl`.
    pub fn new(nl: &'a GateNetlist) -> Self {
        SeqFaultSim {
            nl,
            workers: socet_obs::available_workers(),
        }
    }

    /// Caps the number of worker threads block partitioning may use; `0`
    /// and `1` both force serial evaluation. Results are bit-identical for
    /// every setting.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Simulates `vectors` (applied cycle by cycle from X-initialized state)
    /// against every fault; `result[i]` reports whether `faults[i]` produced
    /// a definite, wrong value at a primary output in some cycle.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length differs from the netlist's input count.
    pub fn run(&self, faults: &[Fault], vectors: &[Vec<Tri>]) -> Vec<bool> {
        self.run_from(faults, vectors, Tri::X)
    }

    /// Like [`SeqFaultSim::run`] but with every flip-flop, of the good
    /// machine and of every faulty one, initialized to `init` — pass
    /// [`Tri::Zero`] to model a chip that starts from reset.
    pub fn run_from(&self, faults: &[Fault], vectors: &[Vec<Tri>], init: Tri) -> Vec<bool> {
        let taps = Taps::new(self.nl);
        let blocks: Vec<&[Fault]> = faults.chunks(64).collect();
        // Fault-block partitioning: contiguous runs of independent 64-fault
        // blocks per worker; the detected lanes concatenate in block order.
        let lanes = socet_obs::fan_out(blocks.len(), self.workers, |range| {
            self.run_blocks(&blocks[range], vectors, init, &taps)
        })
        .concat();
        detection_map(faults.len(), &lanes)
    }

    /// The full-sweep oracle for [`SeqFaultSim::run_from`]: serially, each
    /// 64-fault block re-evaluates the whole netlist every cycle with its
    /// faults injected. Kept only for the tests that pin the differential
    /// engine against it.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length differs from the netlist's input count.
    pub fn run_naive(&self, faults: &[Fault], vectors: &[Vec<Tri>], init: Tri) -> Vec<bool> {
        let taps = Taps::new(self.nl);
        let mut good = Good::new(self.nl, init);
        let mut v = Vec::new();
        let good_outputs: Vec<Vec<Tri64>> = vectors
            .iter()
            .map(|vector| {
                good.step(self.nl, &taps.d, vector, &mut v);
                self.nl
                    .outputs()
                    .iter()
                    .map(|(_, s)| v[s.index()])
                    .collect()
            })
            .collect();
        let lanes: Vec<u64> = faults
            .chunks(64)
            .map(|block| self.run_block(block, vectors, &good_outputs, &taps.d, init))
            .collect();
        detection_map(faults.len(), &lanes)
    }

    /// One block of [`SeqFaultSim::run_naive`]; returns its detected lanes.
    fn run_block(
        &self,
        block: &[Fault],
        vectors: &[Vec<Tri>],
        good_outputs: &[Vec<Tri64>],
        d: &[SignalId],
        init: Tri,
    ) -> u64 {
        let n = self.nl.gates().len();
        // Injection masks per signal.
        let mut m1 = vec![0u64; n];
        let mut m0 = vec![0u64; n];
        for (k, f) in block.iter().enumerate() {
            if f.stuck_at_one {
                m1[f.signal.index()] |= 1 << k;
            } else {
                m0[f.signal.index()] |= 1 << k;
            }
        }
        let mut state = vec![Tri64::splat(init); d.len()];
        let mut detected_lanes = 0u64;
        let mut pi = Vec::new();
        let mut v = Vec::new();
        for (vector, good) in vectors.iter().zip(good_outputs) {
            pi.clear();
            pi.extend(vector.iter().map(|t| Tri64::splat(*t)));
            sweep(self.nl, &pi, &state, &mut v, |s, x| {
                x.force(m1[s.index()], m0[s.index()])
            });
            // Detection at primary outputs.
            for ((_, s), good) in self.nl.outputs().iter().zip(good) {
                detected_lanes |= opposite(*good, v[s.index()]);
            }
            clock(&mut state, d, &v);
        }
        detected_lanes
    }

    /// The differential engine behind [`SeqFaultSim::run_from`] for a
    /// contiguous run of blocks; `result[b]` holds the detected lanes of
    /// `blocks[b]`.
    fn run_blocks(
        &self,
        blocks: &[&[Fault]],
        vectors: &[Vec<Tri>],
        init: Tri,
        taps: &Taps,
    ) -> Vec<u64> {
        let mut lanes = vec![0u64; blocks.len()];
        let nl = self.nl;
        let n = nl.gates().len();
        let mut good = Good::new(nl, init);
        let mut events = Events::new(nl);
        // The faulty plane, equal to the good machine's between blocks, and
        // the good machine's values in one lane, to compare and restore.
        let mut v = Vec::with_capacity(n);
        let mut g = Vec::with_capacity(n);
        // The current block's stuck-at lanes: signal `s` is a site when
        // `slot[s]` is nonzero, and `masks[slot[s] - 1]` holds its
        // `(stuck1, stuck0)` lanes.
        let mut slot = vec![0u8; n];
        let mut masks: Vec<(u64, u64)> = Vec::with_capacity(64);
        // The flip-flops whose faulty state differs from the good
        // machine's, as `(Q, faulty state)`, for every block in one queue:
        // each block takes its `diverged[b]` entries off the front and
        // appends the next cycle's at the back, so one buffer holds both
        // cycles. Every faulty machine starts in the good machine's state.
        let mut queue = VecDeque::new();
        let mut diverged = vec![0; blocks.len()];
        let mut seeds = Vec::new();
        let mut touched = Vec::new();
        for vector in vectors {
            good.step(nl, &taps.d, vector, &mut v);
            g.clear();
            g.extend(v.iter().map(|x| x.lane(0)));
            for (b, block) in blocks.iter().enumerate() {
                // Seed each site once with its value before injection, so
                // the hook forces it; then the diverged flip-flops, whose
                // faulty state overrides a flip-flop site's good one.
                for (k, f) in block.iter().enumerate() {
                    let s = f.signal.index();
                    if slot[s] == 0 {
                        masks.push((0, 0));
                        slot[s] = masks.len() as u8;
                        seeds.push((f.signal, v[s]));
                    }
                    let m = &mut masks[usize::from(slot[s]) - 1];
                    if f.stuck_at_one {
                        m.0 |= 1 << k;
                    } else {
                        m.1 |= 1 << k;
                    }
                }
                seeds.extend(queue.drain(..diverged[b]));
                propagate(nl, &mut events, seeds.drain(..), &mut v, |s, x| {
                    touched.push(s);
                    match slot[s.index()] {
                        0 => x,
                        k => {
                            let (stuck1, stuck0) = masks[usize::from(k) - 1];
                            x.force(stuck1, stuck0)
                        }
                    }
                });
                // Only a touched signal can differ from the good machine.
                // Restoring it as it is read also skips a repeated entry.
                let queued = queue.len();
                for s in touched.drain(..) {
                    let (fv, gv) = (v[s.index()], Tri64::splat(g[s.index()]));
                    if fv == gv {
                        continue;
                    }
                    v[s.index()] = gv;
                    if taps.output[s.index()] {
                        lanes[b] |= opposite(gv, fv);
                    }
                    for &q in taps.readers(s) {
                        queue.push_back((q, fv));
                    }
                }
                diverged[b] = queue.len() - queued;
                for f in *block {
                    slot[f.signal.index()] = 0;
                }
                masks.clear();
            }
        }
        lanes
    }
}

/// Where the combinational logic hands its values on: primary outputs,
/// where faults are detected, and flip-flop D inputs, where they persist.
#[derive(Debug)]
struct Taps {
    /// Per signal: whether a primary output reads it.
    output: Vec<bool>,
    /// The D signal of each flip-flop, in [`GateNetlist::flip_flops`] order.
    d: Vec<SignalId>,
    /// `reader[start[s]..start[s + 1]]`: the Q of each flip-flop whose D is
    /// signal `s`.
    start: Vec<u32>,
    reader: Vec<SignalId>,
}

impl Taps {
    fn new(nl: &GateNetlist) -> Self {
        let n = nl.gates().len();
        let mut output = vec![false; n];
        for (_, s) in nl.outputs() {
            output[s.index()] = true;
        }
        let ffs = nl.flip_flops();
        let d: Vec<SignalId> = ffs.iter().map(|q| nl.gate(*q).operands()[0]).collect();
        let mut start = vec![0u32; n + 1];
        for s in &d {
            start[s.index() + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut reader = ffs.clone();
        for (q, s) in ffs.iter().zip(&d) {
            reader[fill[s.index()] as usize] = *q;
            fill[s.index()] += 1;
        }
        Taps {
            output,
            d,
            start,
            reader,
        }
    }

    /// The Q of each flip-flop whose D is `s`.
    fn readers(&self, s: SignalId) -> &[SignalId] {
        &self.reader[self.start[s.index()] as usize..self.start[s.index() + 1] as usize]
    }
}

/// The good machine's inputs and state, one cycle at a time.
struct Good {
    pi: Vec<Tri64>,
    state: Vec<Tri64>,
}

impl Good {
    fn new(nl: &GateNetlist, init: Tri) -> Self {
        Good {
            pi: Vec::with_capacity(nl.inputs().len()),
            state: vec![Tri64::splat(init); nl.flip_flop_count()],
        }
    }

    /// Applies `vector`: `v` takes the cycle's values, every lane the
    /// fault-free one, and the flip-flops (whose D signals are `d`) are
    /// clocked.
    fn step(&mut self, nl: &GateNetlist, d: &[SignalId], vector: &[Tri], v: &mut Vec<Tri64>) {
        self.pi.clear();
        self.pi.extend(vector.iter().map(|t| Tri64::splat(*t)));
        sweep(nl, &self.pi, &self.state, v, |_, x| x);
        clock(&mut self.state, d, v);
    }
}

/// Clocks `state` from the cycle's values `v`, flip-flop `j` taking the
/// value of its D signal `d[j]`.
fn clock(state: &mut [Tri64], d: &[SignalId], v: &[Tri64]) {
    for (st, s) in state.iter_mut().zip(d) {
        *st = v[s.index()];
    }
}

/// The lanes in which an output reading `faulty` detects a fault: `good`
/// is definite and `faulty` definitely the opposite.
fn opposite(good: Tri64, faulty: Tri64) -> u64 {
    (good.ones() & faulty.zeros()) | (good.zeros() & faulty.ones())
}

/// Fault `i`'s verdict is bit `i % 64` of `lanes[i / 64]`.
fn detection_map(faults: usize, lanes: &[u64]) -> Vec<bool> {
    (0..faults)
        .map(|i| lanes[i / 64] >> (i % 64) & 1 != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_list;
    use crate::testutil::{random_netlist, Rng};
    use socet_gate::{GateNetlistBuilder, SeqSim};

    fn dff_chain(len: usize) -> GateNetlist {
        let mut b = GateNetlistBuilder::new("chain");
        let d = b.input("d");
        let mut s = d;
        for _ in 0..len {
            s = b.dff(s);
        }
        b.output("q", s);
        b.build().unwrap()
    }

    #[test]
    fn undetectable_without_enough_cycles() {
        let nl = dff_chain(3);
        let sim = SeqFaultSim::new(&nl);
        let faults = fault_list(&nl);
        // Two cycles cannot flush a 3-deep chain: the output is still X,
        // nothing definite to compare.
        let vectors = vec![vec![Tri::One]; 2];
        let det = sim.run(&faults, &vectors);
        assert!(det.iter().all(|&d| !d));
    }

    #[test]
    fn chain_faults_detected_after_flush() {
        let nl = dff_chain(3);
        let sim = SeqFaultSim::new(&nl);
        let faults = fault_list(&nl);
        // Drive 1s for 4 cycles (flush + observe), then 0s for 5: both
        // polarities become observable.
        let mut vectors = vec![vec![Tri::One]; 5];
        vectors.extend(vec![vec![Tri::Zero]; 6]);
        let det = sim.run(&faults, &vectors);
        assert!(
            det.iter().all(|&d| d),
            "undetected: {:?}",
            faults
                .iter()
                .zip(&det)
                .filter(|(_, &d)| !d)
                .map(|(f, _)| *f)
                .collect::<Vec<_>>()
        );
    }

    /// The faulty machines start from `init`, and so does the good one: a
    /// flip-flop powered up at 1 and stuck at 0 shows on the first cycle.
    #[test]
    fn init_one_detects_in_cycle_zero() {
        let nl = dff_chain(2);
        let q = nl.outputs()[0].1;
        let faults = [Fault::sa0(q)];
        let vectors = [vec![Tri::Zero]];
        let sim = SeqFaultSim::new(&nl);
        assert_eq!(sim.run_from(&faults, &vectors, Tri::One), [true]);
        assert_eq!(sim.run_naive(&faults, &vectors, Tri::One), [true]);
    }

    #[test]
    fn agrees_with_scalar_seq_sim() {
        // Cross-check one fault against SeqSim's scalar fault injection.
        let nl = dff_chain(2);
        let faults = fault_list(&nl);
        let vectors: Vec<Vec<Tri>> = [Tri::One, Tri::Zero, Tri::One, Tri::One, Tri::Zero]
            .iter()
            .map(|t| vec![*t])
            .collect();
        let packed = SeqFaultSim::new(&nl).run(&faults, &vectors);
        for (fi, fault) in faults.iter().enumerate() {
            let mut good = SeqSim::new(&nl);
            let mut bad = SeqSim::new(&nl);
            let mut scalar_detected = false;
            for v in &vectors {
                let g = good.step(v, None);
                let f = bad.step(v, Some((fault.signal, fault.stuck_at_one)));
                for (gv, fv) in g.iter().zip(&f) {
                    if let (Some(a), Some(b)) = (gv.to_bool(), fv.to_bool()) {
                        if a != b {
                            scalar_detected = true;
                        }
                    }
                }
            }
            assert_eq!(packed[fi], scalar_detected, "{fault}");
        }
    }

    #[test]
    fn more_than_64_faults_use_blocks() {
        // A wide netlist with >64 fault sites.
        let mut b = GateNetlistBuilder::new("wide");
        let mut outs = Vec::new();
        for i in 0..40 {
            let x = b.input(&format!("x{i}"));
            let q = b.dff(x);
            outs.push(q);
        }
        for (i, q) in outs.iter().enumerate() {
            b.output(&format!("q{i}"), *q);
        }
        let nl = b.build().unwrap();
        let faults = fault_list(&nl);
        assert!(faults.len() > 64);
        let sim = SeqFaultSim::new(&nl);
        let vectors = vec![vec![Tri::One; 40], vec![Tri::Zero; 40], vec![Tri::Zero; 40]];
        let det = sim.run(&faults, &vectors);
        assert!(det.iter().all(|&d| d));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut b = GateNetlistBuilder::new("wide");
        let mut outs = Vec::new();
        for i in 0..40 {
            let x = b.input(&format!("x{i}"));
            let q = b.dff(x);
            outs.push(q);
        }
        for (i, q) in outs.iter().enumerate() {
            b.output(&format!("q{i}"), *q);
        }
        let nl = b.build().unwrap();
        let faults = fault_list(&nl);
        let vectors = vec![vec![Tri::One; 40], vec![Tri::X; 40], vec![Tri::Zero; 40]];
        let serial = SeqFaultSim::new(&nl).with_workers(1).run(&faults, &vectors);
        let parallel = SeqFaultSim::new(&nl).with_workers(6).run(&faults, &vectors);
        assert_eq!(serial, parallel);
    }

    /// The differential engine gives the full-sweep oracle's detection map
    /// on random sequential netlists (flip-flop feedback, constants, muxes
    /// whose select can be X) for every init, serially and partitioned.
    /// Both polarities of every signal sit side by side in one block, so
    /// sites cover inputs, flip-flop Qs, constants and gates; extra random
    /// faults add blocks and leave the last one partial.
    #[test]
    fn differential_run_matches_the_naive_oracle() {
        let mut rng = Rng(0x5e9f);
        let mut detected = 0;
        for _ in 0..240 {
            let nl = random_netlist(&mut rng, 8);
            let n = nl.gates().len();
            let mut faults: Vec<Fault> = (0..n)
                .map(SignalId::from_index)
                .flat_map(|s| [Fault::sa0(s), Fault::sa1(s)])
                .collect();
            for _ in 0..rng.below(160) {
                let signal = SignalId::from_index(rng.below(n));
                faults.push(Fault {
                    signal,
                    stuck_at_one: rng.below(2) == 1,
                });
            }
            let vectors: Vec<Vec<Tri>> = (0..1 + rng.below(12))
                .map(|_| {
                    (0..nl.inputs().len())
                        .map(|_| match rng.below(8) {
                            0 => Tri::X,
                            k => Tri::from_bool(k % 2 == 1),
                        })
                        .collect()
                })
                .collect();
            for init in [Tri::X, Tri::Zero, Tri::One] {
                let want = SeqFaultSim::new(&nl).run_naive(&faults, &vectors, init);
                detected += want.iter().filter(|&&d| d).count();
                for workers in [1, 3] {
                    let got = SeqFaultSim::new(&nl)
                        .with_workers(workers)
                        .run_from(&faults, &vectors, init);
                    assert_eq!(got, want, "init {init:?}, {workers} workers: {nl}");
                }
            }
        }
        assert!(detected > 0);
    }
}
