//! Test-controller synthesis: the "small finite-state machine" §5.2 adds
//! to the chip to sequence the test.
//!
//! The controller is a cycle counter plus one window comparator per
//! episode: output `test_en_<core>` is high exactly while that core's
//! episode runs, and `done` rises when the whole test is over. These are
//! the signals that drive each core's clock gate and transparency-mode
//! controls. [`build_controller`] emits real gates (a `socet-gate`
//! netlist), so the controller can be simulated, area-costed against the
//! `DftCosts::test_controller_cells` estimate, and folded into the chip.

use crate::plan::DesignPoint;
use socet_cells::CellLibrary;
use socet_gate::{GateError, GateKind, GateNetlist, GateNetlistBuilder, SignalId};
use socet_rtl::Soc;

/// A synthesized test controller.
#[derive(Debug)]
pub struct TestController {
    /// The controller netlist: inputs `[reset]`, outputs one
    /// `test_en_<core>` per episode, high over its
    /// [serial window](DesignPoint::serial_windows), followed by `done`.
    pub netlist: GateNetlist,
    /// Counter width in bits.
    pub counter_bits: u16,
}

impl TestController {
    /// Controller area in cells.
    pub fn area_cells(&self, lib: &CellLibrary) -> u64 {
        self.netlist.area().cells(lib)
    }
}

/// Builds the controller for `plan`'s serial episode order.
///
/// # Errors
///
/// Propagates [`GateError`] (never expected for well-formed plans).
///
/// # Examples
///
/// See the `controller_asserts_windows` test: the generated gates are
/// simulated cycle by cycle and every enable is checked against its
/// episode window.
pub fn build_controller(soc: &Soc, plan: &DesignPoint) -> Result<TestController, GateError> {
    let total = plan.test_application_time().max(1);
    let counter_bits = (64 - total.leading_zeros()).max(1) as u16;

    let mut b = GateNetlistBuilder::new("test_controller");
    let reset = b.input("reset");
    // Ripple counter with synchronous reset, saturating at `total`:
    // q' = reset ? 0 : (done ? q : q + 1). Without the saturation the
    // counter would wrap 2^bits - total cycles after `done` and re-assert
    // the first episode's enable (found by the replay oracle's
    // cycle-accurate controller test).
    let qs: Vec<SignalId> = (0..counter_bits).map(|_| b.dff_deferred()).collect();
    let nreset = b.gate1(GateKind::Not, reset);
    let running = {
        let done = build_ge_const(&mut b, &qs, total);
        b.gate1(GateKind::Not, done)
    };
    let mut carry = running;
    for &q in &qs {
        let sum = b.gate2(GateKind::Xor2, q, carry);
        let next_carry = b.gate2(GateKind::And2, q, carry);
        let gated = b.gate2(GateKind::And2, sum, nreset);
        b.set_dff_input(q, gated);
        carry = next_carry;
    }
    // Window comparators.
    for (ep, start, end) in plan.serial_windows() {
        let ge_start = build_ge_const(&mut b, &qs, start);
        let ge_end = build_ge_const(&mut b, &qs, end);
        let lt_end = b.gate1(GateKind::Not, ge_end);
        let en = b.gate2(GateKind::And2, ge_start, lt_end);
        b.output(&format!("test_en_{}", soc.core(ep.core).name()), en);
    }
    let done = build_ge_const(&mut b, &qs, total);
    b.output("done", done);
    let netlist = b.build()?;
    Ok(TestController {
        netlist,
        counter_bits,
    })
}

/// Combinational `x >= K` against a constant, MSB-first recursion:
/// at a 1-bit of K the counter bit must be 1 *and* the lower bits must
/// carry the comparison; at a 0-bit a 1 wins outright.
fn build_ge_const(b: &mut GateNetlistBuilder, bits: &[SignalId], k: u64) -> SignalId {
    let mut acc = b.const1(); // equal-prefix base case: x >= 0
    for (i, &bit) in bits.iter().enumerate() {
        let k_bit = k >> i & 1 != 0;
        acc = if k_bit {
            b.gate2(GateKind::And2, bit, acc)
        } else {
            b.gate2(GateKind::Or2, bit, acc)
        };
    }
    // Counter values above 2^bits never occur, but a constant beyond the
    // range must read as "never reached".
    if k >> bits.len() != 0 {
        return b.const0();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CoreTestData;
    use crate::schedule::schedule;
    use socet_cells::DftCosts;
    use socet_gate::CombSim;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn tiny_plan() -> (socet_rtl::Soc, DesignPoint) {
        let mut b = CoreBuilder::new("buf");
        let i = b.port("i", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let r = b.register("r", 4).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = Arc::new(b.build().unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).unwrap();
        let po = sb.output_pin("po", 4).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();
        let costs = DftCosts::default();
        // Tiny TAT so the simulation stays fast.
        let data = CoreTestData::synthesize_soc(&soc, &costs, 3).unwrap();
        let plan = schedule(&soc, &data, &[0, 0], &costs);
        (soc, plan)
    }

    #[test]
    fn controller_asserts_windows() {
        let (soc, plan) = tiny_plan();
        let ctrl = build_controller(&soc, &plan).unwrap();
        let total: u64 = plan.test_application_time();
        let sim = CombSim::new(&ctrl.netlist);
        let n_ff = ctrl.netlist.flip_flop_count();
        let mut state = vec![false; n_ff];
        // Cycle 0 state is all zeros (as after reset).
        for cycle in 0..total + 3 {
            let (outs, next) = sim.run_with_state(&[false], &state);
            for (k, (ep, start, end)) in plan.serial_windows().enumerate() {
                let want = cycle >= start && cycle < end;
                assert_eq!(
                    outs[k], want,
                    "cycle {cycle}: enable for {} (window {start}..{end})",
                    ep.core
                );
            }
            let done = outs[plan.episodes.len()];
            assert_eq!(done, cycle >= total, "cycle {cycle}: done");
            state = next;
        }
    }

    #[test]
    fn reset_holds_the_counter_at_zero() {
        let (soc, plan) = tiny_plan();
        let ctrl = build_controller(&soc, &plan).unwrap();
        let sim = CombSim::new(&ctrl.netlist);
        let mut state = vec![true; ctrl.netlist.flip_flop_count()];
        // With reset asserted the next state is zero regardless.
        let (_, next) = sim.run_with_state(&[true], &state);
        assert!(next.iter().all(|&b| !b));
        state = next;
        let (outs, _) = sim.run_with_state(&[false], &state);
        // At cycle 0 the first episode is active.
        assert!(outs[0]);
    }

    #[test]
    fn controller_area_is_modest() {
        let (soc, plan) = tiny_plan();
        let ctrl = build_controller(&soc, &plan).unwrap();
        let lib = CellLibrary::generic_08um();
        // "This usually consists of a small finite-state machine": a couple
        // of dozen cells for a two-episode plan.
        let cells = ctrl.area_cells(&lib);
        assert!(cells > 5 && cells < 120, "{cells} cells");
        assert!(ctrl.counter_bits >= 4);
    }
}
