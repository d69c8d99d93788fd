//! PODEM: path-oriented decision making, the classic complete combinational
//! ATPG algorithm, on the full-scan view of a gate netlist.
//!
//! The implementation runs the good machine and the faulty machine as lanes
//! 0 and 1 of one dual-rail [`Tri64`] plane, so the composite values
//! 0/1/X/D/D̄ fall out of lane comparison and one kernel sweep implies both
//! machines at once. Implication is a full forward resimulation of
//! the combinational cone (circuits at core granularity are small enough
//! that incremental implication buys nothing), decisions are made only on
//! primary inputs via objective backtrace, and an X-path check prunes
//! decisions that can no longer propagate the fault to an output.

use crate::fault::Fault;
use socet_gate::kernel::sweep;
use socet_gate::{GateKind, GateNetlist, SignalId, Tri, Tri64};

/// The lane of the faulty machine; lane 0 is the good machine.
const FAULTY: u64 = 0b10;

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
    pos: Vec<SignalId>,
    /// Position of each signal in `pis`, or `usize::MAX`.
    pi_pos: Vec<usize>,
    max_backtracks: usize,
    /// The current assignment, splatted across lanes for the sweep.
    sources: Vec<Tri64>,
    /// Every signal's value: good machine in lane 0, faulty in lane 1.
    values: Vec<Tri64>,
}

impl<'a> Podem<'a> {
    /// Creates a generator with the given backtrack budget per fault.
    pub fn new(nl: &'a GateNetlist, max_backtracks: usize) -> Self {
        let pis = nl.comb_inputs();
        let pos = nl.comb_outputs();
        let mut pi_pos = vec![usize::MAX; nl.gates().len()];
        for (i, s) in pis.iter().enumerate() {
            pi_pos[s.index()] = i;
        }
        Podem {
            nl,
            pis,
            pos,
            pi_pos,
            max_backtracks,
            sources: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The combinational primary inputs, in the order test vectors use.
    pub fn inputs(&self) -> &[SignalId] {
        &self.pis
    }

    /// Runs PODEM for `fault`.
    pub fn run(&mut self, fault: Fault) -> PodemOutcome {
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

    /// Forward-simulates both machines under the PI assignment.
    fn imply(&mut self, assignment: &[Tri], fault: Fault) {
        self.sources.clear();
        self.sources
            .extend(assignment.iter().map(|t| Tri64::splat(*t)));
        let (pi, ff) = self.sources.split_at(self.nl.inputs().len());
        let (stuck1, stuck0) = if fault.stuck_at_one {
            (FAULTY, 0)
        } else {
            (0, FAULTY)
        };
        sweep(self.nl, pi, ff, &mut self.values, |s, v| {
            if s == fault.signal {
                v.force(stuck1, stuck0)
            } else {
                v
            }
        });
    }

    /// The good machine's value of `s`.
    fn good(&self, s: SignalId) -> Tri {
        self.values[s.index()].lane(0)
    }

    /// Whether a fault effect (definite, differing lanes) reaches a PO.
    fn detected(&self) -> bool {
        self.pos.iter().any(|s| self.effect_at(*s))
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
        for s in self.nl.topo_order() {
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
                    // Select definite: the off-path is the unselected leg,
                    // nothing to set; the selected leg carries the effect or
                    // it wouldn't be in the frontier. An X selected data leg
                    // cannot carry an effect, so nothing to demand here.
                    let _ = (a0, a1);
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
    fn x_path_exists(&self, fault: Fault) -> bool {
        // Seeds: signals carrying the effect, or the still-X fault site.
        let n = self.nl.gates().len();
        let mut reach = vec![false; n];
        let mut frontier: Vec<usize> = Vec::new();
        for (i, slot) in reach.iter_mut().enumerate().take(n) {
            let s = SignalId::from_index(i);
            if self.effect_at(s) || (i == fault.signal.index() && self.is_x(s)) {
                *slot = true;
                frontier.push(i);
            }
        }
        if frontier.is_empty() {
            return false;
        }
        let fanouts = self.nl.fanouts();
        while let Some(i) = frontier.pop() {
            for f in &fanouts[i] {
                let fi = f.index();
                if reach[fi] {
                    continue;
                }
                // Propagation possible through gates whose output is still X
                // or already carries the effect.
                if self.is_x(*f) || self.effect_at(*f) {
                    reach[fi] = true;
                    frontier.push(fi);
                }
            }
        }
        self.pos.iter().any(|s| reach[s.index()])
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_list;
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
}
