//! Logic simulation: two-valued, 64-way packed, and three-valued sequential,
//! each a thin typed wrapper over the [kernel](crate::kernel).

use crate::kernel::{stuck_at, sweep, Tri64};
use crate::netlist::{GateNetlist, SignalId};
use std::fmt;

/// Two-valued combinational simulator.
///
/// Flip-flop outputs are treated as extra inputs (the full-scan view); use
/// [`CombSim::run_with_state`] to supply them, or [`CombSim::run`] to hold
/// them all at 0.
///
/// # Examples
///
/// ```
/// use socet_gate::{CombSim, GateKind, GateNetlistBuilder};
/// let mut b = GateNetlistBuilder::new("and");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate2(GateKind::And2, x, y);
/// b.output("z", z);
/// let nl = b.build()?;
/// let sim = CombSim::new(&nl);
/// assert_eq!(sim.run(&[true, true]), vec![true]);
/// assert_eq!(sim.run(&[true, false]), vec![false]);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct CombSim<'a> {
    nl: &'a GateNetlist,
}

impl<'a> CombSim<'a> {
    /// Creates a simulator over `nl`.
    pub fn new(nl: &'a GateNetlist) -> Self {
        CombSim { nl }
    }

    /// Evaluates the netlist with flip-flops held at 0 and returns the
    /// primary-output values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn run(&self, inputs: &[bool]) -> Vec<bool> {
        let zeros = vec![false; self.nl.flip_flop_count()];
        self.run_with_state(inputs, &zeros).0
    }

    /// Evaluates the netlist with the given flip-flop state; returns
    /// `(primary outputs, next flip-flop state)`.
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch.
    pub fn run_with_state(&self, inputs: &[bool], state: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let values = self.eval_signals(inputs, state);
        (outputs(self.nl, &values), next_state(self.nl, &values))
    }

    /// Evaluates every signal; the result is indexed by [`SignalId::index`].
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch.
    pub fn eval_signals(&self, inputs: &[bool], state: &[bool]) -> Vec<bool> {
        let mut v = Vec::new();
        sweep(self.nl, inputs, state, &mut v, stuck_at(None));
        v
    }
}

/// 64-way bit-parallel pattern simulator: each signal carries a `u64` whose
/// bit *k* is the value under pattern *k*.
///
/// Supports single-stuck-at fault injection; the full-netlist oracle path
/// of the fault simulator in `socet-atpg` runs on it.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateKind, GateNetlistBuilder, PackedSim};
/// let mut b = GateNetlistBuilder::new("inv");
/// let a = b.input("a");
/// let y = b.gate1(GateKind::Not, a);
/// b.output("y", y);
/// let nl = b.build()?;
/// let sim = PackedSim::new(&nl);
/// let values = sim.eval(&[0b01u64], &[], None);
/// assert_eq!(values[y.index()] & 0b11, 0b10);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct PackedSim<'a> {
    nl: &'a GateNetlist,
}

impl<'a> PackedSim<'a> {
    /// Creates a packed simulator over `nl`.
    pub fn new(nl: &'a GateNetlist) -> Self {
        PackedSim { nl }
    }

    /// Evaluates every signal under up to 64 patterns at once.
    ///
    /// `pi[i]` is the packed value of the *i*-th primary input, `ff[j]` of
    /// the *j*-th flip-flop Q. When `fault` is `Some((s, stuck))`, signal `s`
    /// is forced to all-`stuck` before its fanout reads it.
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch.
    pub fn eval(&self, pi: &[u64], ff: &[u64], fault: Option<(SignalId, bool)>) -> Vec<u64> {
        let mut v = Vec::new();
        sweep(self.nl, pi, ff, &mut v, stuck_at(fault));
        v
    }
}

/// Primary-output values from a full signal vector.
fn outputs<V: Copy>(nl: &GateNetlist, values: &[V]) -> Vec<V> {
    nl.outputs()
        .iter()
        .map(|(_, s)| values[s.index()])
        .collect()
}

/// Next-state (flip-flop D) values from a full signal vector.
fn next_state<V: Copy>(nl: &GateNetlist, values: &[V]) -> Vec<V> {
    nl.flip_flops()
        .iter()
        .map(|q| values[nl.gate(*q).operands()[0].index()])
        .collect()
}

/// A three-valued logic value: 0, 1 or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tri {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl Tri {
    /// Converts a bool.
    pub fn from_bool(b: bool) -> Tri {
        if b {
            Tri::One
        } else {
            Tri::Zero
        }
    }

    /// The definite value, if any.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Tri::Zero => Some(false),
            Tri::One => Some(true),
            Tri::X => None,
        }
    }
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tri::Zero => "0",
            Tri::One => "1",
            Tri::X => "X",
        })
    }
}

/// Three-valued sequential simulator with X-initialized flip-flops.
///
/// Used for the paper's "Orig." experiments: fault-simulating the un-DFT'd
/// chip against random sequential vectors, where state starts unknown.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateNetlistBuilder, SeqSim, Tri};
/// let mut b = GateNetlistBuilder::new("dff");
/// let d = b.input("d");
/// let q = b.dff(d);
/// b.output("q", q);
/// let nl = b.build()?;
/// let mut sim = SeqSim::new(&nl);
/// // Q is X before the first clock.
/// assert_eq!(sim.step(&[Tri::One], None), vec![Tri::X]);
/// // After clocking in a 1, Q is 1.
/// assert_eq!(sim.step(&[Tri::Zero], None), vec![Tri::One]);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct SeqSim<'a> {
    nl: &'a GateNetlist,
    state: Vec<Tri>,
}

impl<'a> SeqSim<'a> {
    /// Creates a simulator with all flip-flops at X.
    pub fn new(nl: &'a GateNetlist) -> Self {
        SeqSim {
            state: vec![Tri::X; nl.flip_flop_count()],
            nl,
        }
    }

    /// Resets all flip-flops to X.
    pub fn reset(&mut self) {
        self.state.fill(Tri::X);
    }

    /// The current flip-flop state.
    pub fn state(&self) -> &[Tri] {
        &self.state
    }

    /// Applies one input vector, returns the primary outputs *before* the
    /// clock edge, then clocks the flip-flops. `fault` forces a signal to a
    /// stuck value throughout the cycle.
    ///
    /// # Panics
    ///
    /// Panics on input length mismatch.
    pub fn step(&mut self, inputs: &[Tri], fault: Option<(SignalId, bool)>) -> Vec<Tri> {
        let pi: Vec<Tri64> = inputs.iter().map(|t| Tri64::splat(*t)).collect();
        let ff: Vec<Tri64> = self.state.iter().map(|t| Tri64::splat(*t)).collect();
        let mut v = Vec::new();
        sweep(self.nl, &pi, &ff, &mut v, stuck_at(fault));
        let lane0 = |vals: Vec<Tri64>| vals.into_iter().map(|t| t.lane(0)).collect();
        self.state = lane0(next_state(self.nl, &v));
        lane0(outputs(self.nl, &v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{GateKind, GateNetlistBuilder};

    fn full_adder() -> GateNetlist {
        let mut b = GateNetlistBuilder::new("fa");
        let a = b.input("a");
        let c = b.input("b");
        let cin = b.input("cin");
        let x = b.gate2(GateKind::Xor2, a, c);
        let sum = b.gate2(GateKind::Xor2, x, cin);
        let g1 = b.gate2(GateKind::And2, a, c);
        let g2 = b.gate2(GateKind::And2, x, cin);
        let cout = b.gate2(GateKind::Or2, g1, g2);
        b.output("sum", sum);
        b.output("cout", cout);
        b.build().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        let sim = CombSim::new(&nl);
        for bits in 0..8u32 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let cin = bits & 4 != 0;
            let outs = sim.run(&[a, b, cin]);
            let total = a as u32 + b as u32 + cin as u32;
            assert_eq!(outs[0], total & 1 != 0, "sum for {bits:03b}");
            assert_eq!(outs[1], total >= 2, "cout for {bits:03b}");
        }
    }

    #[test]
    fn packed_sim_matches_comb_sim() {
        let nl = full_adder();
        let comb = CombSim::new(&nl);
        let packed = PackedSim::new(&nl);
        // Put all eight input combinations in one packed run.
        let mut pi = [0u64; 3];
        for pat in 0..8u64 {
            for (i, word) in pi.iter_mut().enumerate() {
                if pat >> i & 1 != 0 {
                    *word |= 1 << pat;
                }
            }
        }
        let values = packed.eval(&pi, &[], None);
        let outs = outputs(&nl, &values);
        for pat in 0..8u64 {
            let scalar = comb.run(&[pat & 1 != 0, pat & 2 != 0, pat & 4 != 0]);
            assert_eq!(outs[0] >> pat & 1 != 0, scalar[0], "sum pattern {pat}");
            assert_eq!(outs[1] >> pat & 1 != 0, scalar[1], "cout pattern {pat}");
        }
    }

    #[test]
    fn packed_fault_injection_flips_output() {
        let nl = full_adder();
        let sim = PackedSim::new(&nl);
        // a=1, b=0, cin=0 -> sum=1. Stuck-at-0 on input a -> sum=0.
        let good = sim.eval(&[u64::MAX, 0, 0], &[], None);
        let a_sig = nl.inputs()[0].1;
        let bad = sim.eval(&[u64::MAX, 0, 0], &[], Some((a_sig, false)));
        assert_ne!(outputs(&nl, &good)[0], outputs(&nl, &bad)[0]);
    }

    #[test]
    fn comb_run_with_state_propagates_dffs() {
        let mut b = GateNetlistBuilder::new("shift2");
        let d = b.input("d");
        let q0 = b.dff(d);
        let q1 = b.dff(q0);
        b.output("q", q1);
        let nl = b.build().unwrap();
        let sim = CombSim::new(&nl);
        let (outs, next) = sim.run_with_state(&[true], &[false, true]);
        assert_eq!(outs, vec![true]); // q1's current state
        assert_eq!(next, vec![true, false]); // d -> q0, q0 -> q1
    }

    #[test]
    fn tri_conversions() {
        assert_eq!(Tri::from_bool(true).to_bool(), Some(true));
        assert_eq!(Tri::X.to_bool(), None);
        assert_eq!(Tri::X.to_string(), "X");
    }

    #[test]
    fn seq_sim_x_resolution_through_mux() {
        // mux(s=X, a, a) should still be a.
        let mut b = GateNetlistBuilder::new("m");
        let s = b.input("s");
        let a = b.input("a");
        let m = b.mux(s, a, a);
        b.output("m", m);
        let nl = b.build().unwrap();
        let mut sim = SeqSim::new(&nl);
        assert_eq!(sim.step(&[Tri::X, Tri::One], None), vec![Tri::One]);
    }

    #[test]
    fn packed_sim_fault_on_comb_gate_applies_at_definition() {
        // Fault downstream consumers see the forced value; upstream is
        // unaffected.
        let mut b = GateNetlistBuilder::new("n");
        let a = b.input("a");
        let x = b.gate1(GateKind::Not, a);
        let y = b.gate1(GateKind::Not, x);
        b.output("x", x);
        b.output("y", y);
        let nl = b.build().unwrap();
        let sim = PackedSim::new(&nl);
        let vals = sim.eval(&[0], &[], Some((x, false)));
        assert_eq!(vals[x.index()], 0, "fault site forced low");
        assert_eq!(vals[y.index()], u64::MAX, "consumer sees the fault");
    }

    #[test]
    fn comb_sim_constants() {
        let mut b = GateNetlistBuilder::new("n");
        let one = b.const1();
        let zero = b.const0();
        let x = b.gate2(GateKind::And2, one, zero);
        let y = b.gate2(GateKind::Or2, one, zero);
        b.output("x", x);
        b.output("y", y);
        let nl = b.build().unwrap();
        let sim = CombSim::new(&nl);
        assert_eq!(sim.run(&[]), vec![false, true]);
    }

    #[test]
    fn seq_sim_fault_on_dff() {
        let mut b = GateNetlistBuilder::new("dff");
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let nl = b.build().unwrap();
        let mut sim = SeqSim::new(&nl);
        sim.step(&[Tri::One], None);
        // Stuck-at-0 on Q masks the captured 1.
        let outs = sim.step(&[Tri::Zero], Some((q, false)));
        assert_eq!(outs, vec![Tri::Zero]);
        // Without the fault the 1 is visible.
        sim.reset();
        sim.step(&[Tri::One], None);
        assert_eq!(sim.step(&[Tri::Zero], None), vec![Tri::One]);
    }
}
