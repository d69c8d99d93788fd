//! PODEM: path-oriented decision making, the classic complete combinational
//! ATPG algorithm, on the full-scan view of a gate netlist.
//!
//! The implementation runs the good machine and the faulty machine as lanes
//! 0 and 1 of one dual-rail [`Tri64`] plane, so the composite values
//! 0/1/X/D/D̄ fall out of lane comparison and one kernel pass implies both
//! machines at once. Decisions are made only on primary inputs via
//! objective backtrace, and an X-path check prunes decisions that can no
//! longer propagate the fault to an output.
//!
//! Each decision's work is proportional to what it changed. A fault's first
//! implication is one full [`sweep`]; after that each implication hands the
//! kernel only the inputs whose value changed, and [`propagate`]
//! re-evaluates only the gates downstream of them. The D-frontier search,
//! the detection test and the X-path check scan only the fault's fanout
//! cone, computed once per fault: a fault effect cannot exist outside it.
//! None of this changes a decision, so test sets are unchanged; on System
//! 1's CPU core it cut `generate_tests` from about 125 ms to about 14 ms
//! (EXPERIMENTS.md).
//!
//! Most of those 14 ms went to proving eight faults that can never be
//! activated: the CPU's constant-0 XOR subtree roots, stuck at 0, each of
//! which the search refuted over about 200 backtracks. So before it
//! searches, [`Podem::run`] walks the site's fanin down to its sources
//! (inputs and flip-flop Qs) and, if there are at most twelve, simulates
//! the fanin over every assignment of them, one per lane of 64-lane
//! words, through [`eval`]. A site that never takes the value opposite its
//! stuck value is `Untestable` at once. No test is missed: every test is a
//! full 0/1 assignment of the sources. System 1's PODEM then makes no
//! backtrack, and its gate evaluations fall from 931 525 to 25 255. The
//! check answers only `Untestable`, where the search would say the same or
//! run out of backtracks, and vectors and their random fill come only from
//! tests, so test sets are unchanged again.

use crate::fault::Fault;
use socet_gate::kernel::{eval, propagate, sweep, Events, Logic};
use socet_gate::{GateKind, GateNetlist, SignalId, Tri, Tri64};
use socet_obs::Counter;

/// The lane of the faulty machine; lane 0 is the good machine.
const FAULTY: u64 = 0b10;

/// The most fanin sources (inputs and flip-flop Qs) a fault site may have
/// for [`Podem::run`] to simulate its fanin over every assignment: 2¹²
/// assignments are 64 words of 64 lanes.
const MAX_EXHAUSTIVE_SOURCES: usize = 12;

/// Source *k* < 6 of an exhaustive simulation: lane *l* of the word holds
/// bit *k* of *l*. Source *k* ≥ 6 is bit *k* − 6 of the block number,
/// splatted across the word.
const LANE_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found; the vector assigns each combinational primary input
    /// (real PIs followed by flip-flop pseudo-inputs) 0, 1 or X.
    Test(Vec<Tri>),
    /// The fault is provably untestable (decision space exhausted).
    Untestable,
    /// The backtrack budget ran out before a verdict.
    Aborted,
}

/// The work a [`Podem`] has done over all its runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodemCounters {
    /// Primary-input assignments made by backtrace.
    pub decisions: u64,
    /// Decisions flipped to their other value.
    pub backtracks: u64,
    /// Implications of an assignment (one per search step).
    pub implications: u64,
    /// Gates those implications evaluated, each fault's first full sweep
    /// included.
    pub gate_evals: u64,
    /// Runs that found a test.
    pub tests: u64,
    /// Runs that proved the fault untestable, by search or by exhaustive
    /// simulation of the site's fanin.
    pub untestable: u64,
    /// Runs that ran out of backtracks.
    pub aborted: u64,
    /// The untestable runs settled without a search: no assignment of the
    /// site's fanin sources activates the fault.
    pub unactivatable: u64,
}

impl PodemCounters {
    /// Charges these counters into the thread's installed recorder.
    pub fn publish(&self) {
        socet_obs::add(Counter::PodemDecisions, self.decisions);
        socet_obs::add(Counter::PodemBacktracks, self.backtracks);
        socet_obs::add(Counter::PodemImplications, self.implications);
        socet_obs::add(Counter::PodemGateEvals, self.gate_evals);
        socet_obs::add(Counter::PodemTests, self.tests);
        socet_obs::add(Counter::PodemUntestable, self.untestable);
        socet_obs::add(Counter::PodemAborted, self.aborted);
        socet_obs::add(Counter::PodemUnactivatable, self.unactivatable);
    }
}

/// PODEM test generator for one netlist.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateKind, GateNetlistBuilder};
/// use socet_atpg::{Fault, Podem, PodemOutcome};
/// let mut b = GateNetlistBuilder::new("and");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate2(GateKind::And2, x, y);
/// b.output("z", z);
/// let nl = b.build()?;
/// let mut podem = Podem::new(&nl, 100);
/// // z stuck-at-0 needs x=1, y=1.
/// match podem.run(Fault::sa0(z)) {
///     PodemOutcome::Test(v) => assert_eq!(v.len(), 2),
///     other => panic!("expected a test, got {other:?}"),
/// }
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct Podem<'a> {
    nl: &'a GateNetlist,
    pis: Vec<SignalId>,
    /// Position of each signal in `pis`, or `usize::MAX`.
    pi_pos: Vec<usize>,
    /// Whether each signal is a combinational output.
    observable: Vec<bool>,
    max_backtracks: usize,
    /// Fanout lists and pending-gate scratch for implication.
    events: Events,
    /// The current fault's strict fanout cone, in topological order.
    cone: Vec<SignalId>,
    /// The observable signals among the fault site and its cone.
    cone_outputs: Vec<SignalId>,
    /// Per-signal flags: during a search, whether the X-path check reached
    /// the signal; before it, whether the fanin walk visited it.
    mark: Vec<bool>,
    /// The assignment `values` was implied from, splatted across lanes.
    sources: Vec<Tri64>,
    /// Every signal's value: good machine in lane 0, faulty in lane 1.
    /// Before a search, the fanin check's 64 assignments, one per lane.
    values: Vec<Tri64>,
    /// The site's fanin gates and constants, every one after its operands,
    /// and the inputs and flip-flop Qs the fanin stops at.
    fanin: Vec<SignalId>,
    fanin_sources: Vec<SignalId>,
    counters: PodemCounters,
}

impl<'a> Podem<'a> {
    /// Creates a generator with the given backtrack budget per fault.
    pub fn new(nl: &'a GateNetlist, max_backtracks: usize) -> Self {
        let n = nl.gates().len();
        let pis = nl.comb_inputs();
        let mut pi_pos = vec![usize::MAX; n];
        for (i, s) in pis.iter().enumerate() {
            pi_pos[s.index()] = i;
        }
        let mut observable = vec![false; n];
        for s in nl.comb_outputs() {
            observable[s.index()] = true;
        }
        Podem {
            nl,
            pis,
            pi_pos,
            observable,
            max_backtracks,
            events: Events::new(nl),
            cone: Vec::new(),
            cone_outputs: Vec::new(),
            mark: vec![false; n],
            sources: Vec::new(),
            values: Vec::new(),
            fanin: Vec::new(),
            fanin_sources: Vec::new(),
            counters: PodemCounters::default(),
        }
    }

    /// The combinational primary inputs, in the order test vectors use.
    pub fn inputs(&self) -> &[SignalId] {
        &self.pis
    }

    /// The work done by every [`Podem::run`] so far.
    pub fn counters(&self) -> PodemCounters {
        self.counters
    }

    /// Runs PODEM for `fault`.
    ///
    /// A fault whose site has at most a dozen fanin sources is first
    /// checked by simulating that fanin over every assignment of them: if
    /// the site never takes the value opposite its stuck value, no test can
    /// activate the fault, and it is `Untestable` without a search.
    pub fn run(&mut self, fault: Fault) -> PodemOutcome {
        let outcome = if self.unactivatable(fault) {
            self.counters.unactivatable += 1;
            PodemOutcome::Untestable
        } else {
            self.search(fault)
        };
        match outcome {
            PodemOutcome::Test(_) => self.counters.tests += 1,
            PodemOutcome::Untestable => self.counters.untestable += 1,
            PodemOutcome::Aborted => self.counters.aborted += 1,
        }
        outcome
    }

    /// Whether the site of `fault` has at most [`MAX_EXHAUSTIVE_SOURCES`]
    /// fanin sources and no assignment of them drives it to the value
    /// opposite its stuck value. Every test assigns each source 0 or 1, so
    /// such a fault has none.
    fn unactivatable(&mut self, fault: Fault) -> bool {
        if !self.walk_fanin(fault.signal) {
            return false;
        }
        let m = self.fanin_sources.len();
        let site = fault.signal.index();
        // The search's value plane is free until `start` sweeps it. Every
        // lane set here is definite, so each `Tri64` is a plain word of 64
        // two-valued lanes.
        self.values.resize(self.nl.gates().len(), Tri64::X);
        let v = &mut self.values;
        for block in 0..1usize << m.saturating_sub(LANE_PATTERNS.len()) {
            for (k, s) in self.fanin_sources.iter().enumerate() {
                let ones = match LANE_PATTERNS.get(k) {
                    Some(&lanes) => lanes,
                    None if block >> (k - LANE_PATTERNS.len()) & 1 != 0 => u64::MAX,
                    None => 0,
                };
                v[s.index()] = Tri64::ZERO.force(ones, 0);
            }
            for &s in &self.fanin {
                let g = self.nl.gate(s);
                v[s.index()] = eval(g.kind, g.operands(), |o| v[o.index()]);
            }
            // With fewer than six sources, the spare lanes repeat real
            // assignments, so every lane counts.
            let activating = if fault.stuck_at_one {
                v[site].zeros()
            } else {
                v[site].ones()
            };
            if activating != 0 {
                return false;
            }
        }
        true
    }

    /// Collects the fanin of `site` into `fanin` and `fanin_sources`;
    /// returns `false`, leaving both partial, as soon as it finds more than
    /// [`MAX_EXHAUSTIVE_SOURCES`] sources. A source site is its own only
    /// source.
    fn walk_fanin(&mut self, site: SignalId) -> bool {
        self.mark.fill(false);
        self.fanin.clear();
        self.fanin_sources.clear();
        // Post-order: a gate is listed when its second visit is popped,
        // after every operand pushed above it. The fanin is acyclic, so an
        // operand already visited is already listed.
        let mut stack = vec![(site, false)];
        while let Some((s, operands_done)) = stack.pop() {
            if operands_done {
                self.fanin.push(s);
                continue;
            }
            if self.mark[s.index()] {
                continue;
            }
            self.mark[s.index()] = true;
            let g = self.nl.gate(s);
            if matches!(g.kind, GateKind::Input | GateKind::Dff) {
                self.fanin_sources.push(s);
                if self.fanin_sources.len() > MAX_EXHAUSTIVE_SOURCES {
                    return false;
                }
            } else {
                stack.push((s, true));
                stack.extend(g.operands().iter().map(|&o| (o, false)));
            }
        }
        true
    }

    /// The PODEM search proper.
    fn search(&mut self, fault: Fault) -> PodemOutcome {
        self.start(fault);
        let n_pi = self.pis.len();
        let mut assignment: Vec<Tri> = vec![Tri::X; n_pi];
        // Decision stack: (pi index, second value tried?).
        let mut stack: Vec<(usize, bool)> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            self.imply(&assignment, fault);
            if self.detected() {
                return PodemOutcome::Test(assignment);
            }
            let objective = self.objective(fault);
            let feasible = objective.is_some() && self.x_path_exists(fault);
            if let (Some(obj), true) = (objective, feasible) {
                if let Some((pi, val)) = self.backtrace(obj) {
                    assignment[pi] = Tri::from_bool(val);
                    stack.push((pi, false));
                    self.counters.decisions += 1;
                    continue;
                }
            }
            // Dead end: backtrack.
            loop {
                match stack.pop() {
                    None => return PodemOutcome::Untestable,
                    Some((pi, true)) => {
                        assignment[pi] = Tri::X;
                        // keep popping
                    }
                    Some((pi, false)) => {
                        backtracks += 1;
                        self.counters.backtracks += 1;
                        if backtracks > self.max_backtracks {
                            return PodemOutcome::Aborted;
                        }
                        let flipped = match assignment[pi] {
                            Tri::Zero => Tri::One,
                            Tri::One => Tri::Zero,
                            Tri::X => Tri::One,
                        };
                        assignment[pi] = flipped;
                        stack.push((pi, true));
                        break;
                    }
                }
            }
        }
    }

    /// Sets up `fault`: its fanout cone and the cone's outputs, clear
    /// X-path flags, and the fault's first implication — a full sweep of
    /// both machines with every input X.
    fn start(&mut self, fault: Fault) {
        let site = fault.signal;
        self.events.cone(self.nl, site, &mut self.cone);
        self.cone_outputs.clear();
        self.cone_outputs.extend(
            std::iter::once(site)
                .chain(self.cone.iter().copied())
                .filter(|s| self.observable[s.index()]),
        );
        self.mark.fill(false);
        self.sources.clear();
        self.sources.resize(self.pis.len(), Tri64::X);
        let (pi, ff) = self.sources.split_at(self.nl.inputs().len());
        sweep(self.nl, pi, ff, &mut self.values, inject(fault));
        self.counters.gate_evals += self.nl.topo_order().len() as u64;
    }

    /// Brings both machines up to date with `assignment`, re-evaluating
    /// only the gates downstream of the inputs that changed since the last
    /// implication.
    fn imply(&mut self, assignment: &[Tri], fault: Fault) {
        self.counters.implications += 1;
        let changed = self
            .sources
            .iter_mut()
            .zip(assignment)
            .zip(&self.pis)
            .filter_map(|((src, t), &pi)| {
                let t = Tri64::splat(*t);
                if *src == t {
                    return None;
                }
                *src = t;
                Some((pi, t))
            });
        let evals = propagate(
            self.nl,
            &mut self.events,
            changed,
            &mut self.values,
            inject(fault),
        );
        self.counters.gate_evals += evals as u64;
    }

    /// The good machine's value of `s`.
    fn good(&self, s: SignalId) -> Tri {
        self.values[s.index()].lane(0)
    }

    /// Whether a fault effect (definite, differing lanes) reaches a PO.
    fn detected(&self) -> bool {
        self.cone_outputs.iter().any(|s| self.effect_at(*s))
    }

    fn effect_at(&self, s: SignalId) -> bool {
        let v = self.values[s.index()];
        matches!(
            (v.lane(0), v.lane(1)),
            (Tri::Zero, Tri::One) | (Tri::One, Tri::Zero)
        )
    }

    fn is_x(&self, s: SignalId) -> bool {
        let v = self.values[s.index()];
        v.lane(0) == Tri::X || v.lane(1) == Tri::X
    }

    /// Next objective `(signal, value)`:
    ///
    /// 1. activate the fault if the site is still X;
    /// 2. otherwise pick an X input of a D-frontier gate and demand the
    ///    gate's non-controlling value there.
    ///
    /// Returns `None` when the fault is de-activated (conflict) or no
    /// D-frontier remains.
    fn objective(&self, fault: Fault) -> Option<(SignalId, bool)> {
        let site = fault.signal;
        if self.is_x(site) {
            return Some((site, !fault.stuck_at_one));
        }
        if !self.effect_at(site) {
            // Site settled at the stuck value: fault not activated.
            return None;
        }
        // D-frontier: gate with X output and >=1 input carrying the effect.
        // Only cone gates read an effect, and the cone is in topological
        // order, so this finds the same first gate a netlist scan would.
        for s in &self.cone {
            let g = self.nl.gate(*s);
            if !self.is_x(*s) {
                continue;
            }
            let has_effect_input = g.operands().iter().any(|op| self.effect_at(*op));
            if !has_effect_input {
                continue;
            }
            // Choose an X input and its non-controlling value.
            match g.kind {
                GateKind::And2 | GateKind::Nand2 => {
                    for op in g.operands() {
                        if self.is_x(*op) && !self.effect_at(*op) {
                            return Some((*op, true));
                        }
                    }
                }
                GateKind::Or2 | GateKind::Nor2 => {
                    for op in g.operands() {
                        if self.is_x(*op) && !self.effect_at(*op) {
                            return Some((*op, false));
                        }
                    }
                }
                GateKind::Xor2 | GateKind::Xnor2 => {
                    for op in g.operands() {
                        if self.is_x(*op) && !self.effect_at(*op) {
                            return Some((*op, false));
                        }
                    }
                }
                GateKind::Mux2 => {
                    let ops = g.operands();
                    let (sel, a0, a1) = (ops[0], ops[1], ops[2]);
                    if self.is_x(sel) && !self.effect_at(sel) {
                        // Point the select at a data leg carrying the effect.
                        let want = self.effect_at(a1);
                        return Some((sel, want));
                    }
                    if self.effect_at(sel) {
                        // The two machines select different legs: the
                        // effect passes when the legs differ, so demand an
                        // X leg opposite to the other one (0 on a0 and 1 on
                        // a1 when both are X).
                        for (leg, other) in [(a0, a1), (a1, a0)] {
                            if self.is_x(leg) && !self.effect_at(leg) {
                                let want = match self.good(other) {
                                    Tri::One => false,
                                    Tri::Zero => true,
                                    Tri::X => leg == a1,
                                };
                                return Some((leg, want));
                            }
                        }
                    }
                    // Otherwise there is nothing to demand here: with a
                    // definite select the selected leg carries the effect
                    // (or the gate would not be in the frontier), and an X
                    // selected data leg cannot carry one.
                }
                GateKind::Not | GateKind::Buf => {
                    // Single-input: effect propagates unconditionally; the
                    // output being X with a D input can only happen
                    // transiently, nothing to set.
                }
                _ => {}
            }
        }
        None
    }

    /// Whether some X-valued path connects the fault effect to a PO.
    ///
    /// Effects exist only at the site and in its cone, so one forward scan
    /// of the cone finds every signal such a path reaches: one carrying the
    /// effect (or the still-X site), or an X signal with a reached operand.
    fn x_path_exists(&mut self, fault: Fault) -> bool {
        let site = fault.signal;
        self.mark[site.index()] = self.effect_at(site) || self.is_x(site);
        for &s in &self.cone {
            let reached = self.effect_at(s)
                || (self.is_x(s)
                    && self
                        .nl
                        .gate(s)
                        .operands()
                        .iter()
                        .any(|op| self.mark[op.index()]));
            self.mark[s.index()] = reached;
        }
        self.cone_outputs.iter().any(|s| self.mark[s.index()])
    }

    /// Walks an objective back to an unassigned PI, tracking inversions.
    fn backtrace(&self, (mut sig, mut val): (SignalId, bool)) -> Option<(usize, bool)> {
        loop {
            let pi = self.pi_pos[sig.index()];
            if pi != usize::MAX {
                if self.good(sig) != Tri::X {
                    return None; // already assigned; objective unreachable
                }
                return Some((pi, val));
            }
            let g = self.nl.gate(sig);
            match g.kind {
                GateKind::Const0 | GateKind::Const1 => return None,
                GateKind::Not => {
                    sig = g.operands()[0];
                    val = !val;
                }
                GateKind::Buf => {
                    sig = g.operands()[0];
                }
                GateKind::And2
                | GateKind::Nand2
                | GateKind::Or2
                | GateKind::Nor2
                | GateKind::Xor2
                | GateKind::Xnor2 => {
                    let invert =
                        matches!(g.kind, GateKind::Nand2 | GateKind::Nor2 | GateKind::Xnor2);
                    let inner = if invert { !val } else { val };
                    let ops = g.operands();
                    // Pick the first X input.
                    let pick = ops.iter().find(|op| self.is_x(**op))?;
                    match g.kind {
                        GateKind::And2 | GateKind::Nand2 => {
                            // To get 1 all inputs must be 1; to get 0 one
                            // input 0 suffices.
                            val = inner;
                        }
                        GateKind::Or2 | GateKind::Nor2 => {
                            val = inner;
                        }
                        GateKind::Xor2 | GateKind::Xnor2 => {
                            let other = ops.iter().find(|o| *o != pick).copied();
                            let other_val =
                                other.and_then(|o| self.good(o).to_bool()).unwrap_or(false);
                            val = inner ^ other_val;
                        }
                        _ => unreachable!(),
                    }
                    sig = *pick;
                }
                GateKind::Mux2 => {
                    let ops = g.operands();
                    let (sel, a0, a1) = (ops[0], ops[1], ops[2]);
                    match self.good(sel).to_bool() {
                        Some(false) => sig = a0,
                        Some(true) => sig = a1,
                        None => {
                            // Decide the select first; prefer the 0 leg.
                            sig = sel;
                            val = false;
                        }
                    }
                }
                GateKind::Input | GateKind::Dff => {
                    unreachable!("PIs handled above")
                }
            }
        }
    }
}

/// The stuck-at hook that puts `fault` on the faulty lane.
fn inject(fault: Fault) -> impl Fn(SignalId, Tri64) -> Tri64 {
    let (stuck1, stuck0) = if fault.stuck_at_one {
        (FAULTY, 0)
    } else {
        (0, FAULTY)
    };
    move |s, v| {
        if s == fault.signal {
            v.force(stuck1, stuck0)
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_list;
    use crate::testutil::{random_netlist, Rng};
    use socet_gate::{CombSim, GateNetlistBuilder};

    fn c17_like() -> GateNetlist {
        // A small NAND network in the spirit of ISCAS c17.
        let mut b = GateNetlistBuilder::new("c17");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let i4 = b.input("i4");
        let i5 = b.input("i5");
        let g1 = b.gate2(GateKind::Nand2, i1, i3);
        let g2 = b.gate2(GateKind::Nand2, i3, i4);
        let g3 = b.gate2(GateKind::Nand2, i2, g2);
        let g4 = b.gate2(GateKind::Nand2, g2, i5);
        let o1 = b.gate2(GateKind::Nand2, g1, g3);
        let o2 = b.gate2(GateKind::Nand2, g3, g4);
        b.output("o1", o1);
        b.output("o2", o2);
        b.build().unwrap()
    }

    /// Checks a PODEM test actually detects the fault with a reference
    /// simulation.
    fn verify_test(nl: &GateNetlist, fault: Fault, vec: &[Tri]) {
        let sim = CombSim::new(nl);
        // Fill Xs with 0 and with 1; at least the definite bits matter.
        let fill =
            |x: bool| -> Vec<bool> { vec.iter().map(|t| t.to_bool().unwrap_or(x)).collect() };
        for filler in [false, true] {
            let pattern = fill(filler);
            let (pi, ff) = pattern.split_at(nl.inputs().len());
            let good = sim.eval_signals(pi, ff);
            // Inject with the packed simulator for a faulty evaluation.
            let psim = socet_gate::PackedSim::new(nl);
            let piw: Vec<u64> = pi.iter().map(|&b| if b { 1 } else { 0 }).collect();
            let ffw: Vec<u64> = ff.iter().map(|&b| if b { 1 } else { 0 }).collect();
            let faulty = psim.eval(&piw, &ffw, Some((fault.signal, fault.stuck_at_one)));
            let detected = nl.comb_outputs().iter().any(|s| {
                let g = good[s.index()] as u64;
                let f = faulty[s.index()] & 1;
                g != f
            });
            assert!(detected, "{fault} not detected by {vec:?} (fill {filler})");
        }
    }

    #[test]
    fn and_gate_sa0_needs_both_ones() {
        let mut b = GateNetlistBuilder::new("and");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate2(GateKind::And2, x, y);
        b.output("z", z);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 100);
        match podem.run(Fault::sa0(z)) {
            PodemOutcome::Test(v) => {
                assert_eq!(v[0], Tri::One);
                assert_eq!(v[1], Tri::One);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn redundant_fault_proved_untestable() {
        // y = a OR (a AND b): the AND output s-a-0 is undetectable because
        // the OR output only differs when a=0, but then AND is 0 anyway.
        let mut b = GateNetlistBuilder::new("red");
        let a = b.input("a");
        let bb = b.input("b");
        let and_ab = b.gate2(GateKind::And2, a, bb);
        let y = b.gate2(GateKind::Or2, a, and_ab);
        b.output("y", y);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 1000);
        assert_eq!(podem.run(Fault::sa0(and_ab)), PodemOutcome::Untestable);
    }

    /// The shape of the CPU core's random-logic blocks: an XOR tree over
    /// 32 two-input leaves on 8 inputs whose (kind, operands) repeat with
    /// period 16, so every leaf meets its twin and the root is constant 0.
    #[test]
    fn constant_xor_tree_root_is_settled_without_search() {
        let mut b = GateNetlistBuilder::new("xor_tree");
        let ins: Vec<SignalId> = (0..8).map(|i| b.input(&format!("i{i}"))).collect();
        let kinds = [
            GateKind::And2,
            GateKind::Or2,
            GateKind::Nand2,
            GateKind::Nor2,
        ];
        let leaves: Vec<SignalId> = (0..32)
            .map(|k| k % 16)
            .map(|k| b.gate2(kinds[k % 4], ins[k / 4], ins[(k / 4 + 1 + k % 3) % 8]))
            .collect();
        let root = b.tree(GateKind::Xor2, &leaves);
        b.output("root", root);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 1000);
        assert_eq!(podem.run(Fault::sa0(root)), PodemOutcome::Untestable);
        let c = podem.counters();
        assert_eq!((c.decisions, c.implications, c.gate_evals), (0, 0, 0));
        assert_eq!((c.untestable, c.unactivatable), (1, 1));
        match podem.run(Fault::sa1(root)) {
            PodemOutcome::Test(v) => verify_test(&nl, Fault::sa1(root), &v),
            other => panic!("root s-a-1: {other:?}"),
        }
        assert_eq!(podem.counters().unactivatable, 1);
    }

    /// A constant site beyond the exhaustive-simulation cap is still proved
    /// untestable, by the search: `t AND NOT t` over a 13-input AND tree.
    #[test]
    fn constant_site_with_many_sources_is_proved_by_search() {
        let mut b = GateNetlistBuilder::new("wide");
        let ins: Vec<SignalId> = (0..=MAX_EXHAUSTIVE_SOURCES)
            .map(|i| b.input(&format!("i{i}")))
            .collect();
        let t = b.tree(GateKind::And2, &ins);
        let nt = b.gate1(GateKind::Not, t);
        let site = b.gate2(GateKind::And2, t, nt);
        b.output("y", site);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 1000);
        assert_eq!(podem.run(Fault::sa0(site)), PodemOutcome::Untestable);
        let c = podem.counters();
        assert!(c.decisions > 0 && c.backtracks > 0, "{c:?}");
        assert_eq!((c.untestable, c.unactivatable), (1, 0));
    }

    /// The fanin check covers all 2¹² assignments and evaluates the
    /// constants in the fanin itself: they are not in `topo_order`, and a
    /// fresh generator has no earlier sweep to inherit them from. An AND of
    /// twelve inputs and `NOT 0`, stuck at 0, is activated only by the last
    /// assignment, all ones.
    #[test]
    fn fanin_check_sees_the_last_assignment_and_constants() {
        let mut b = GateNetlistBuilder::new("wide_and");
        let ins: Vec<SignalId> = (0..MAX_EXHAUSTIVE_SOURCES)
            .map(|i| b.input(&format!("i{i}")))
            .collect();
        let all = b.tree(GateKind::And2, &ins);
        let zero = b.const0();
        let one = b.gate1(GateKind::Not, zero);
        let site = b.gate2(GateKind::And2, all, one);
        b.output("y", site);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 1000);
        match podem.run(Fault::sa0(site)) {
            PodemOutcome::Test(v) => verify_test(&nl, Fault::sa0(site), &v),
            other => panic!("{other:?}"),
        }
        assert_eq!(podem.counters().unactivatable, 0);
    }

    #[test]
    fn every_c17_fault_gets_a_verdict_and_tests_verify() {
        let nl = c17_like();
        let mut podem = Podem::new(&nl, 1000);
        let mut tested = 0;
        for fault in fault_list(&nl) {
            match podem.run(fault) {
                PodemOutcome::Test(v) => {
                    verify_test(&nl, fault, &v);
                    tested += 1;
                }
                PodemOutcome::Untestable => {}
                PodemOutcome::Aborted => panic!("aborted on {fault}"),
            }
        }
        assert!(tested > 0);
    }

    #[test]
    fn mux_fault_propagates_through_select() {
        let mut b = GateNetlistBuilder::new("m");
        let s = b.input("s");
        let a0 = b.input("a0");
        let a1 = b.input("a1");
        let m = b.mux(s, a0, a1);
        b.output("m", m);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 1000);
        for fault in [Fault::sa0(a1), Fault::sa1(a0), Fault::sa0(m), Fault::sa1(m)] {
            match podem.run(fault) {
                PodemOutcome::Test(v) => verify_test(&nl, fault, &v),
                other => panic!("{fault}: {other:?}"),
            }
        }
    }

    #[test]
    fn dff_pseudo_inputs_are_assignable() {
        // Fault behind a flip-flop: combinational view treats Q as a PI.
        let mut b = GateNetlistBuilder::new("ff");
        let d = b.input("d");
        let q = b.dff(d);
        let y = b.gate2(GateKind::And2, q, d);
        b.output("y", y);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 100);
        match podem.run(Fault::sa0(y)) {
            PodemOutcome::Test(v) => {
                // Both d and q must be settable to 1.
                assert_eq!(v.len(), 2);
                assert_eq!(v[0], Tri::One);
                assert_eq!(v[1], Tri::One);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xor_chain_faults_testable() {
        let mut b = GateNetlistBuilder::new("parity");
        let ins: Vec<SignalId> = (0..4).map(|i| b.input(&format!("i{i}"))).collect();
        let x1 = b.gate2(GateKind::Xor2, ins[0], ins[1]);
        let x2 = b.gate2(GateKind::Xor2, x1, ins[2]);
        let x3 = b.gate2(GateKind::Xor2, x2, ins[3]);
        b.output("p", x3);
        let nl = b.build().unwrap();
        let mut podem = Podem::new(&nl, 1000);
        for fault in fault_list(&nl) {
            match podem.run(fault) {
                PodemOutcome::Test(v) => verify_test(&nl, fault, &v),
                other => panic!("{fault}: {other:?}"),
            }
        }
    }

    /// One fault site of each kind the netlist has: a real input, a
    /// flip-flop Q, a constant and a combinational gate.
    fn sites_of_every_kind(nl: &GateNetlist) -> Vec<SignalId> {
        let mut sites = Vec::new();
        for kinds in [
            &[GateKind::Input][..],
            &[GateKind::Dff],
            &[GateKind::Const0, GateKind::Const1],
        ] {
            sites.extend(
                (0..nl.gates().len())
                    .map(SignalId::from_index)
                    .find(|s| kinds.contains(&nl.gate(*s).kind)),
            );
        }
        sites.extend(nl.topo_order().last());
        sites
    }

    /// After every step of a random assignment sequence (set, flip, reset
    /// to X), the incrementally implied values equal a fresh sweep of the
    /// same assignment, for faults on inputs, flip-flop Qs, constants and
    /// gates.
    #[test]
    fn incremental_implication_matches_a_fresh_sweep() {
        let mut rng = Rng(3);
        for _ in 0..200 {
            let nl = random_netlist(&mut rng, 4);
            let mut podem = Podem::new(&nl, 0);
            let n_pi = nl.inputs().len();
            for site in sites_of_every_kind(&nl) {
                let fault = Fault {
                    signal: site,
                    stuck_at_one: rng.below(2) == 1,
                };
                podem.start(fault);
                let mut assignment = vec![Tri::X; podem.inputs().len()];
                for _ in 0..30 {
                    let i = rng.below(assignment.len());
                    assignment[i] = match (rng.below(3), assignment[i]) {
                        (0, _) => Tri::from_bool(rng.below(2) == 1),
                        (1, Tri::Zero) => Tri::One,
                        (1, Tri::One) => Tri::Zero,
                        _ => Tri::X,
                    };
                    podem.imply(&assignment, fault);
                    let src: Vec<Tri64> = assignment.iter().map(|t| Tri64::splat(*t)).collect();
                    let mut fresh = Vec::new();
                    sweep(&nl, &src[..n_pi], &src[n_pi..], &mut fresh, inject(fault));
                    assert_eq!(podem.values, fresh, "{fault} in {nl}");
                }
            }
        }
    }

    /// Every verdict on small random netlists is checked against an
    /// independent oracle: a `Test` must detect its fault under both X
    /// fills, and an `Untestable` fault must escape all 2ⁿ input patterns,
    /// simulated 64 at a time with the fault injected.
    #[test]
    fn verdicts_agree_with_exhaustive_simulation() {
        let mut rng = Rng(5);
        let (mut tests, mut untestable, mut unactivatable) = (0, 0, 0);
        for _ in 0..500 {
            let nl = random_netlist(&mut rng, 4);
            let psim = socet_gate::PackedSim::new(&nl);
            let n_pi = nl.inputs().len();
            let width = n_pi + nl.flip_flop_count();
            assert!(width <= 10);
            // Block b, lane k holds input pattern 64·b + k.
            let blocks: Vec<Vec<u64>> = (0..(1usize << width).div_ceil(64))
                .map(|b| {
                    (0..width)
                        .map(|i| {
                            (0..64).fold(0, |w, k| w | ((((b * 64 + k) >> i) & 1) as u64) << k)
                        })
                        .collect()
                })
                .collect();
            let lanes = if width < 6 {
                (1u64 << (1 << width)) - 1
            } else {
                u64::MAX
            };
            let outputs = nl.comb_outputs();
            let mut podem = Podem::new(&nl, 1 << 20);
            for i in 0..nl.gates().len() {
                for fault in [
                    Fault::sa0(SignalId::from_index(i)),
                    Fault::sa1(SignalId::from_index(i)),
                ] {
                    match podem.run(fault) {
                        PodemOutcome::Test(v) => {
                            verify_test(&nl, fault, &v);
                            tests += 1;
                        }
                        PodemOutcome::Untestable => {
                            for w in &blocks {
                                let (pi, ff) = w.split_at(n_pi);
                                let good = psim.eval(pi, ff, None);
                                let bad =
                                    psim.eval(pi, ff, Some((fault.signal, fault.stuck_at_one)));
                                for s in &outputs {
                                    assert_eq!(
                                        (good[s.index()] ^ bad[s.index()]) & lanes,
                                        0,
                                        "{fault} declared untestable but detectable in {nl}"
                                    );
                                }
                            }
                            untestable += 1;
                        }
                        PodemOutcome::Aborted => panic!("{fault} aborted in {nl}"),
                    }
                }
            }
            unactivatable += podem.counters().unactivatable;
        }
        assert!(
            tests > 0 && untestable > unactivatable && unactivatable > 0,
            "{tests} tests, {untestable} untestable ({unactivatable} unactivatable)"
        );
    }
}
