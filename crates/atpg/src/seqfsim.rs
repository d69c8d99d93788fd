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
//! a block keeps only its diverged flip-flops.
//!
//! Work that cannot change a verdict is skipped, by three mechanisms:
//!
//! * **Screening.** Before any fault is simulated, one good-machine pass
//!   over the campaign records the values each signal takes (X counts as
//!   both). A fault is proved undetectable, and never simulated, when its
//!   site is not *live* (no primary output is reachable from it, through
//!   gates and flip-flops), when its site never leaves its stuck value
//!   (the fault is never activated), or when no output lies in its
//!   closure: the signals at which the faulty machine may differ from the
//!   good one. The closure grows forward from the site through flip-flops
//!   unconditionally and through a gate unless an operand outside the
//!   closure, and so equal in both machines, is a campaign constant that
//!   decides the gate: a 0 into an AND or NAND, a 1 into an OR or NOR, a
//!   mux select that never picks the leg, or two equal mux legs. A
//!   constant X decides nothing. The survivors are packed densely, in
//!   fault-list order, into full 64-fault blocks.
//! * **Observability pruning.** The fanout lists ([`Events::within`]) hold
//!   live gates only, and a diverged flip-flop is carried over only if its
//!   Q is live. The live set is closed under fanin, so every live value
//!   stays exact.
//! * **Fault dropping.** Once a lane's fault is detected its verdict is
//!   final: its site is no longer seeded, and a diverged flip-flop hands on
//!   the good machine's value in that lane. Lanes are independent, so no
//!   other lane's value changes.
//!
//! On Table 3's runs screening leaves 114 of System 1's 4 314 faults and
//! 467 of System 2's 3 192, and the engine evaluates 6 640 and 28 531
//! gates, 0.05% and 0.41% of what a full sweep per block and cycle does
//! (4.0% and 4.7% with the other two mechanisms alone).
//! [`SeqFaultSim::run_naive`] keeps that full sweep, with no mechanism, as
//! the oracle the tests pin the differential engine against.
//!
//! [`SeqFaultSim::run_from`] runs on the calling thread: one good machine
//! steps once per cycle for every block, so its results and counters
//! depend on the netlist and the campaign alone.

use crate::fault::Fault;
use socet_gate::kernel::{propagate, sweep, Events};
use socet_gate::{Gate, GateKind, GateNetlist, SignalId, Tri, Tri64};
use socet_obs::Counter;
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
}

impl<'a> SeqFaultSim<'a> {
    /// Creates a simulator over `nl`.
    pub fn new(nl: &'a GateNetlist) -> Self {
        SeqFaultSim { nl }
    }

    /// Does nothing: the simulator always runs on the calling thread.
    /// Kept only because the benchmark harness (`perfbench`) still calls
    /// it; the perfbench-editing change of ROADMAP item 9 deletes it.
    #[deprecated(note = "the simulator is serial; this is a no-op")]
    pub fn with_workers(self, _workers: usize) -> Self {
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
        // Only the faults that may reach an output are simulated, packed
        // densely in fault-list order; every other verdict is `false`.
        let kept = Screen::new(self.nl, &taps, vectors, init).observable(faults);
        let packed: Vec<Fault> = kept.iter().map(|&i| faults[i]).collect();
        let blocks: Vec<&[Fault]> = packed.chunks(64).collect();
        let lanes = self.run_blocks(&blocks, vectors, init, &taps);
        let mut detected = vec![false; faults.len()];
        for (i, hit) in kept.into_iter().zip(detection_map(packed.len(), &lanes)) {
            detected[i] = hit;
        }
        detected
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

    /// The differential engine behind [`SeqFaultSim::run_from`] over the
    /// blocks of screened faults; `result[b]` holds the detected lanes of
    /// `blocks[b]`. Skips dead gates and drops detected faults (see the
    /// module docs), and records the gates it evaluated.
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
        // The live set is closed under fanin, so propagating over live
        // gates alone keeps every live signal exact.
        let mut events = Events::within(nl, |s| taps.live[s.index()]);
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
        let mut evals = 0;
        for vector in vectors {
            good.step(nl, &taps.d, vector, &mut v);
            g.clear();
            g.extend(v.iter().map(|x| x.lane(0)));
            for (b, block) in blocks.iter().enumerate() {
                let mut seeded = u64::MAX >> (64 - block.len()) & !lanes[b];
                if seeded == 0 && diverged[b] == 0 {
                    continue;
                }
                // Seed each site once with its value before injection, so
                // the hook forces it; then the diverged flip-flops, whose
                // faulty state overrides a flip-flop site's good one.
                while seeded != 0 {
                    let k = seeded.trailing_zeros();
                    seeded &= seeded - 1;
                    let f = block[k as usize];
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
                evals += propagate(nl, &mut events, seeds.drain(..), &mut v, |s, x| {
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
                // Detections come first, so that the state handed on below
                // already drops the lanes detected in this cycle.
                for &s in &touched {
                    if taps.output[s.index()] {
                        lanes[b] |= opposite(Tri64::splat(g[s.index()]), v[s.index()]);
                    }
                }
                // Restoring a signal as it is read also skips a repeated
                // entry. A detected lane's verdict is final, so it takes
                // the good machine's state from here on.
                let queued = queue.len();
                for s in touched.drain(..) {
                    let (fv, gv) = (v[s.index()], Tri64::splat(g[s.index()]));
                    if fv == gv {
                        continue;
                    }
                    v[s.index()] = gv;
                    let fv = select(!lanes[b], fv, gv);
                    if fv == gv {
                        continue;
                    }
                    for &q in taps.ff_readers.of(s) {
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
        socet_obs::add(Counter::SeqGateEvals, evals as u64);
        lanes
    }
}

/// Where the combinational logic hands its values on: primary outputs,
/// where faults are detected, and flip-flop D inputs, where they persist.
#[derive(Debug)]
struct Taps {
    /// Per signal: whether a primary output reads it.
    output: Vec<bool>,
    /// Per signal: whether a primary output is reachable from it, through
    /// gates and flip-flops. Closed under fanin: every operand of a live
    /// gate, and the D of a live flip-flop, is live.
    live: Vec<bool>,
    /// The D signal of each flip-flop, in [`GateNetlist::flip_flops`] order.
    d: Vec<SignalId>,
    /// Per signal `s`: the Q of each live flip-flop whose D is `s`.
    ff_readers: Fanout,
}

impl Taps {
    fn new(nl: &GateNetlist) -> Self {
        let n = nl.gates().len();
        let mut output = vec![false; n];
        for (_, s) in nl.outputs() {
            output[s.index()] = true;
        }
        // Walk back from the outputs over operands; a flip-flop's operand
        // is its D, so the walk crosses flip-flops.
        let mut live = vec![false; n];
        let mut stack: Vec<SignalId> = nl.outputs().iter().map(|(_, s)| *s).collect();
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut live[s.index()], true) {
                stack.extend(nl.gate(s).operands());
            }
        }
        let ffs = nl.flip_flops();
        let d: Vec<SignalId> = ffs.iter().map(|q| nl.gate(*q).operands()[0]).collect();
        let live_ffs: Vec<(SignalId, SignalId)> = (d.iter().copied().zip(ffs.iter().copied()))
            .filter(|(_, q)| live[q.index()])
            .collect();
        Taps {
            output,
            ff_readers: Fanout::new(n, &live_ffs),
            live,
            d,
        }
    }
}

/// Per signal, the signals that read it: `reader[start[s]..start[s + 1]]`.
#[derive(Debug)]
struct Fanout {
    start: Vec<u32>,
    reader: Vec<SignalId>,
}

impl Fanout {
    /// The fanout of `n` signals with one `(operand, reader)` edge each.
    fn new(n: usize, edges: &[(SignalId, SignalId)]) -> Self {
        let mut start = vec![0u32; n + 1];
        for (s, _) in edges {
            start[s.index() + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut reader = vec![SignalId::from_index(0); edges.len()];
        for (s, r) in edges {
            reader[fill[s.index()] as usize] = *r;
            fill[s.index()] += 1;
        }
        Fanout { start, reader }
    }

    /// The readers of `s`.
    fn of(&self, s: SignalId) -> &[SignalId] {
        &self.reader[self.start[s.index()] as usize..self.start[s.index() + 1] as usize]
    }
}

/// The values a signal takes over a campaign, as bits: [`CAN0`] when it is
/// 0 or X in some cycle, [`CAN1`] when it is 1 or X. Exactly one bit set
/// means the signal holds that definite value in every cycle.
const CAN0: u8 = 1;
const CAN1: u8 = 2;

fn can(t: Tri) -> u8 {
    match t {
        Tri::Zero => CAN0,
        Tri::One => CAN1,
        Tri::X => CAN0 | CAN1,
    }
}

/// Proves faults undetectable from one good-machine pass over a campaign,
/// before any is simulated (see the module docs).
struct Screen<'a> {
    nl: &'a GateNetlist,
    taps: &'a Taps,
    /// Per signal: the values it takes, as [`CAN0`] | [`CAN1`] bits.
    took: Vec<u8>,
    /// Per signal `s`: every live gate or flip-flop with `s` as an operand.
    readers: Fanout,
    /// Per site: whether its closure reaches an output, once computed.
    reaches: Vec<Option<bool>>,
    /// The current closure: the signals stamped with `epoch`.
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<SignalId>,
}

impl<'a> Screen<'a> {
    fn new(nl: &'a GateNetlist, taps: &'a Taps, vectors: &[Vec<Tri>], init: Tri) -> Self {
        let n = nl.gates().len();
        let mut took = vec![0u8; n];
        let mut good = Good::new(nl, init);
        let mut v = Vec::with_capacity(n);
        for vector in vectors {
            good.step(nl, &taps.d, vector, &mut v);
            for (t, x) in took.iter_mut().zip(&v) {
                *t |= can(x.lane(0));
            }
        }
        let edges: Vec<(SignalId, SignalId)> = (0..n)
            .map(SignalId::from_index)
            .filter(|r| taps.live[r.index()])
            .flat_map(|r| nl.gate(r).operands().iter().map(move |&s| (s, r)))
            .collect();
        Screen {
            nl,
            taps,
            took,
            readers: Fanout::new(n, &edges),
            reaches: vec![None; n],
            mark: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// The indices of the `faults` an output may observe. Each other fault
    /// is counted in the first category that proves it undetectable:
    /// unobservable, inactive or blocked.
    fn observable(mut self, faults: &[Fault]) -> Vec<usize> {
        let mut kept = Vec::new();
        let (mut unobservable, mut inactive, mut blocked) = (0, 0, 0);
        for (i, f) in faults.iter().enumerate() {
            let s = f.signal;
            let activating = if f.stuck_at_one { CAN0 } else { CAN1 };
            if !self.taps.live[s.index()] {
                unobservable += 1;
            } else if self.took[s.index()] & activating == 0 {
                inactive += 1;
            } else if !self.reaches_output(s) {
                blocked += 1;
            } else {
                kept.push(i);
            }
        }
        socet_obs::add(Counter::SeqFaultsUnobservable, unobservable);
        socet_obs::add(Counter::SeqFaultsInactive, inactive);
        socet_obs::add(Counter::SeqFaultsBlocked, blocked);
        kept
    }

    /// Whether an output is in the closure of `site`: every signal at which
    /// a fault there may make the faulty machine differ from the good one.
    /// Computed once per site.
    fn reaches_output(&mut self, site: SignalId) -> bool {
        if let Some(reaches) = self.reaches[site.index()] {
            return reaches;
        }
        let Screen {
            nl,
            taps,
            took,
            readers,
            mark,
            epoch,
            stack,
            ..
        } = self;
        *epoch += 1;
        let inside = |mark: &[u32], s: SignalId| mark[s.index()] == *epoch;
        mark[site.index()] = *epoch;
        stack.clear();
        stack.push(site);
        let mut reaches = false;
        // A reader is re-checked whenever one of its operands joins, so one
        // pass reaches the fixpoint: joining only ever unblocks.
        while let Some(s) = stack.pop() {
            if taps.output[s.index()] {
                reaches = true;
                break;
            }
            for &r in readers.of(s) {
                if !inside(mark, r) && passes(nl.gate(r), took, |o| inside(mark, o)) {
                    mark[r.index()] = *epoch;
                    stack.push(r);
                }
            }
        }
        self.reaches[site.index()] = Some(reaches);
        reaches
    }
}

/// Whether a difference on the operands of `g` that are `inside` the
/// closure may reach its output. It may not when an operand outside the
/// closure, and so equal in both machines, holds `g`'s output by a
/// definite campaign constant (`took`): 0 into an AND or NAND, 1 into an
/// OR or NOR, a select that never picks the leg, or two equal legs that
/// leave the select nothing to choose. A constant X decides nothing. A
/// flip-flop passes its D unconditionally.
fn passes(g: &Gate, took: &[u8], inside: impl Fn(SignalId) -> bool) -> bool {
    let fixed = |s: SignalId, at: u8| !inside(s) && took[s.index()] == at;
    let ops = g.operands();
    match g.kind {
        GateKind::And2 | GateKind::Nand2 => !ops.iter().any(|&o| fixed(o, CAN0)),
        GateKind::Or2 | GateKind::Nor2 => !ops.iter().any(|&o| fixed(o, CAN1)),
        GateKind::Mux2 => {
            let (sel, a0, a1) = (ops[0], ops[1], ops[2]);
            let legs_agree = [CAN0, CAN1].iter().any(|&c| fixed(a0, c) && fixed(a1, c));
            (inside(a0) && !fixed(sel, CAN1))
                || (inside(a1) && !fixed(sel, CAN0))
                || (inside(sel) && !legs_agree)
        }
        _ => true,
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

/// `faulty` in the lanes of `keep`, `good` in the others.
fn select(keep: u64, faulty: Tri64, good: Tri64) -> Tri64 {
    Tri64::X.force(
        (faulty.ones() & keep) | (good.ones() & !keep),
        (faulty.zeros() & keep) | (good.zeros() & !keep),
    )
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
    use socet_gate::{GateKind, GateNetlistBuilder, SeqSim};

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
    fn wide_block_run_with_x_cycles_matches_the_naive_oracle() {
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
        let sim = SeqFaultSim::new(&nl);
        assert_eq!(
            sim.run(&faults, &vectors),
            sim.run_naive(&faults, &vectors, Tri::X)
        );
    }

    /// The detection map, `seq_gate_evals` and `seq_faults_unobservable`
    /// of one `run_from`.
    fn counted(nl: &GateNetlist, faults: &[Fault], vectors: &[Vec<Tri>]) -> (Vec<bool>, u64, u64) {
        let mut rec = socet_obs::Recorder::new();
        let det = {
            let _on = rec.install();
            SeqFaultSim::new(nl).run_from(faults, vectors, Tri::X)
        };
        let count = |c| rec.counter(c);
        (
            det,
            count(Counter::SeqGateEvals),
            count(Counter::SeqFaultsUnobservable),
        )
    }

    /// `y = a AND b` and `z = DFF(a) XOR b`, whose every fault four
    /// cycles detect, plus, with `dead_end`, the flip-flop loop
    /// `p = DFF(p XOR a)`, which reaches no output; every stuck-at fault.
    fn dead_end_circuit(dead_end: bool) -> (GateNetlist, Vec<Fault>) {
        let mut b = GateNetlistBuilder::new("dead_end");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate2(GateKind::And2, a, c);
        let q = b.dff(a);
        let z = b.gate2(GateKind::Xor2, q, c);
        if dead_end {
            let p = b.dff_deferred();
            let n = b.gate2(GateKind::Xor2, p, a);
            b.set_dff_input(p, n);
        }
        b.output("y", y);
        b.output("z", z);
        let nl = b.build().unwrap();
        let faults = (0..nl.gates().len())
            .map(SignalId::from_index)
            .flat_map(|s| [Fault::sa0(s), Fault::sa1(s)])
            .collect();
        (nl, faults)
    }

    /// Both mechanisms fire, not only agree with the oracle. The dead-end
    /// loop's four faults are never seeded and its gate is never
    /// evaluated, so the circuit costs what it does without the loop. Once
    /// every other fault is detected no gate is evaluated again, so twelve
    /// cycles cost what four do.
    #[test]
    fn unobservable_and_detected_faults_cost_nothing() {
        let (nl, faults) = dead_end_circuit(true);
        let cycles: Vec<Vec<Tri>> = [(1, 1), (0, 1), (1, 0), (0, 0)]
            .iter()
            .map(|&(a, b)| vec![Tri::from_bool(a == 1), Tri::from_bool(b == 1)])
            .collect();
        let long: Vec<Vec<Tri>> = (0..3).flat_map(|_| cycles.clone()).collect();
        for vectors in [&cycles, &long] {
            for init in [Tri::X, Tri::Zero, Tri::One] {
                let sim = SeqFaultSim::new(&nl);
                let want = sim.run_naive(&faults, vectors, init);
                assert_eq!(sim.run_from(&faults, vectors, init), want, "{init:?}");
            }
        }
        let (det, evals, unobservable) = counted(&nl, &faults, &cycles);
        // The loop's signals are the last two: its flip-flop and XOR.
        let dead = nl.gates().len() - 2;
        let observable: Vec<bool> = faults.iter().map(|f| f.signal.index() < dead).collect();
        assert_eq!(det, observable);
        assert_eq!(unobservable, 4);
        assert!(evals > 0);
        assert_eq!(counted(&nl, &faults, &long), (det, evals, unobservable));
        let (live, live_faults) = dead_end_circuit(false);
        assert_eq!(counted(&live, &live_faults, &cycles).1, evals);
    }

    /// The differential engine gives the full-sweep oracle's detection map
    /// on random sequential netlists (flip-flop feedback, constants, muxes
    /// whose select can be X) for every init.
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
                let got = SeqFaultSim::new(&nl).run_from(&faults, &vectors, init);
                assert_eq!(got, want, "init {init:?}: {nl}");
            }
        }
        assert!(detected > 0);
    }

    /// Every stuck-at fault of `nl`, both polarities per signal.
    fn all_faults(nl: &GateNetlist) -> Vec<Fault> {
        (0..nl.gates().len())
            .map(SignalId::from_index)
            .flat_map(|s| [Fault::sa0(s), Fault::sa1(s)])
            .collect()
    }

    /// `vectors[c][i]` is `columns[i][c]`: one row per input.
    fn columns(columns: &[&[u8]]) -> Vec<Vec<Tri>> {
        (0..columns[0].len())
            .map(|c| (columns.iter().map(|col| Tri::from_bool(col[c] == 1))).collect())
            .collect()
    }

    /// `run_from`'s detection map, checked against `run_naive`, and the
    /// faults it recorded as `[seq_faults_inactive, seq_faults_blocked]`.
    fn screened(nl: &GateNetlist, vectors: &[Vec<Tri>], init: Tri) -> (Vec<bool>, [u64; 2]) {
        let faults = all_faults(nl);
        let want = SeqFaultSim::new(nl).run_naive(&faults, vectors, init);
        let mut rec = socet_obs::Recorder::new();
        let det = {
            let _on = rec.install();
            SeqFaultSim::new(nl).run_from(&faults, vectors, init)
        };
        assert_eq!(det, want, "init {init:?}");
        let counts = [Counter::SeqFaultsInactive, Counter::SeqFaultsBlocked];
        (det, counts.map(|c| rec.counter(c)))
    }

    /// The number of faults `det` reports detected.
    fn hits(det: &[bool]) -> usize {
        det.iter().filter(|&&d| d).count()
    }

    /// `y = a AND e` with `e` held at 0 and `z = a OR f` with `f` held at
    /// 1: no value of `a` reaches an output, so both of its faults are
    /// blocked. `e` stuck at 1 and `f` stuck at 0 are not: `a` varies.
    #[test]
    fn constant_side_inputs_block_and_and_or() {
        let mut b = GateNetlistBuilder::new("side");
        let [a, e, f] = ["a", "e", "f"].map(|n| b.input(n));
        let y = b.gate2(GateKind::And2, a, e);
        let z = b.gate2(GateKind::Or2, a, f);
        b.output("y", y);
        b.output("z", z);
        let nl = b.build().unwrap();
        let vectors = columns(&[&[0, 1, 0, 1], &[0; 4], &[1; 4]]);
        let (det, [inactive, blocked]) = screened(&nl, &vectors, Tri::X);
        // Inactive: e/0, f/1, y/0, z/1. Blocked: a/0, a/1.
        assert_eq!((inactive, blocked), (4, 2));
        // e/1, f/0, y/1 and z/0 are all detected.
        assert_eq!(hits(&det), 4);
        assert!(!det[a.index() * 2] && !det[a.index() * 2 + 1]);
    }

    /// `m1 = s ? a1 : a0` with `s` held at 0 never shows `a1`; `m2 = p ?
    /// k1 : k0` with both legs held at 1 never shows `p`.
    #[test]
    fn constant_mux_selects_and_equal_legs_block() {
        let mut b = GateNetlistBuilder::new("mux");
        let [s, a0, a1, p, k0, k1] = ["s", "a0", "a1", "p", "k0", "k1"].map(|n| b.input(n));
        let m1 = b.mux(s, a0, a1);
        let m2 = b.mux(p, k0, k1);
        b.output("m1", m1);
        b.output("m2", m2);
        let nl = b.build().unwrap();
        let vectors = columns(&[
            &[0; 4],
            &[0, 1, 1, 0],
            &[1, 0, 1, 0],
            &[0, 1, 0, 1],
            &[1; 4],
            &[1; 4],
        ]);
        let (det, [inactive, blocked]) = screened(&nl, &vectors, Tri::X);
        // Inactive: s/0, k0/1, k1/1, m2/1. Blocked: a1/0, a1/1, p/0, p/1.
        assert_eq!((inactive, blocked), (4, 4));
        // Detected: s/1, a0/0, a0/1, k0/0, k1/0, m1/0, m1/1, m2/0.
        assert_eq!(hits(&det), 8);
    }

    /// `y = e AND NOT NOT e` with `e` held at 0: `e`'s other path makes
    /// the side input of `y` change with the fault, so `e` stuck at 1 is
    /// detected and must not be pruned, although `y` is first reached
    /// while its side input still looks constant.
    #[test]
    fn a_fault_that_reaches_its_own_side_input_is_kept() {
        let mut b = GateNetlistBuilder::new("reconverge");
        let e = b.input("e");
        let n1 = b.gate1(GateKind::Not, e);
        let n2 = b.gate1(GateKind::Not, n1);
        let y = b.gate2(GateKind::And2, e, n2);
        b.output("y", y);
        let nl = b.build().unwrap();
        let vectors = columns(&[&[0; 3]]);
        let (det, [inactive, blocked]) = screened(&nl, &vectors, Tri::X);
        // Inactive: e/0, n1/1, n2/0, y/0. Blocked: n1/0 and n2/1, whose
        // effects meet `e`, outside their closure, at `y`.
        assert_eq!((inactive, blocked), (4, 2));
        assert!(det[e.index() * 2 + 1], "e stuck at 1");
        assert_eq!(hits(&det), 2);
    }

    /// `y = a AND q` and `z = b OR q`, where `q = DFF(q)` holds its
    /// initial value forever. Powered up X, `q` is a constant X, which
    /// decides neither gate, so nothing is blocked; from 0 it blocks `a`
    /// at the AND, from 1 `b` at the OR.
    #[test]
    fn a_constant_x_blocks_nothing() {
        let mut b = GateNetlistBuilder::new("hold");
        let [a, c] = ["a", "b"].map(|n| b.input(n));
        let q = b.dff_deferred();
        b.set_dff_input(q, q);
        let y = b.gate2(GateKind::And2, a, q);
        let z = b.gate2(GateKind::Or2, c, q);
        b.output("y", y);
        b.output("z", z);
        let nl = b.build().unwrap();
        let vectors = columns(&[&[0, 1, 0, 1], &[1, 0, 1, 0]]);
        // From X only y/1 and z/0 are detected; every fault is simulated.
        let (det, counts) = screened(&nl, &vectors, Tri::X);
        assert_eq!((hits(&det), counts), (2, [0, 0]));
        // From 0: q/0 and y/0 inactive, a/0 and a/1 blocked.
        let (det, counts) = screened(&nl, &vectors, Tri::Zero);
        assert_eq!((hits(&det), counts), (6, [2, 2]));
        // From 1: q/1 and z/1 inactive, b/0 and b/1 blocked.
        let (det, counts) = screened(&nl, &vectors, Tri::One);
        assert_eq!((hits(&det), counts), (6, [2, 2]));
    }

    /// Random netlists under campaigns that hold some inputs at one value
    /// (0, 1 or X): the screen prunes faults, and the detection map stays
    /// the full-sweep oracle's for every init.
    #[test]
    fn screening_with_held_inputs_matches_the_naive_oracle() {
        let mut rng = Rng(0xb10c);
        let mut rec = socet_obs::Recorder::new();
        for _ in 0..240 {
            let nl = random_netlist(&mut rng, 8);
            let faults = all_faults(&nl);
            let held: Vec<Option<Tri>> = (0..nl.inputs().len())
                .map(|_| match rng.below(6) {
                    0 => Some(Tri::X),
                    1 | 2 => Some(Tri::from_bool(rng.below(2) == 1)),
                    _ => None,
                })
                .collect();
            let vectors: Vec<Vec<Tri>> = (0..1 + rng.below(12))
                .map(|_| {
                    (held.iter())
                        .map(|h| h.unwrap_or_else(|| Tri::from_bool(rng.below(2) == 1)))
                        .collect()
                })
                .collect();
            for init in [Tri::X, Tri::Zero, Tri::One] {
                let want = SeqFaultSim::new(&nl).run_naive(&faults, &vectors, init);
                let got = {
                    let _on = rec.install();
                    SeqFaultSim::new(&nl).run_from(&faults, &vectors, init)
                };
                assert_eq!(got, want, "init {init:?}: {nl}");
            }
        }
        assert!(rec.counter(Counter::SeqFaultsBlocked) > 0);
        assert!(rec.counter(Counter::SeqFaultsInactive) > 0);
    }
}
