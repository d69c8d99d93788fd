//! Cycle-accurate cross-check of the synthesized test controller against
//! the tester drive programs for the full System 1 plan: every episode
//! enable matches its serial window on every cycle, every tester drive
//! lands inside its episode's enable window, the counter saturates past
//! `done` (no wrap re-asserting episode 0), and the Verilog export of the
//! controller survives a hand-written structural re-parse.

use socet_cells::DftCosts;
use socet_core::tester::{tester_program, validate_program};
use socet_core::{build_controller, try_schedule, CoreTestData, DesignPoint};
use socet_gate::export::to_verilog;
use socet_gate::CombSim;
use socet_rtl::Soc;

fn system1_plan() -> (Soc, DesignPoint) {
    let soc = socet_socs::barcode_system();
    let costs = DftCosts::default();
    let data = CoreTestData::synthesize_soc(&soc, &costs, 10).unwrap();
    let choice = vec![0; soc.cores().len()];
    let plan = try_schedule(&soc, &data, &choice, &costs).unwrap();
    (soc, plan)
}

/// Simulates the controller for `cycles` cycles (reset low) and returns
/// the per-cycle output trace.
fn trace(ctrl: &socet_core::TestController, cycles: u64) -> Vec<Vec<bool>> {
    let sim = CombSim::new(&ctrl.netlist);
    let mut state = vec![false; ctrl.netlist.flip_flop_count()];
    let mut rows = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        let (outs, next) = sim.run_with_state(&[false], &state);
        rows.push(outs);
        state = next;
    }
    rows
}

#[test]
fn controller_matches_tester_programs_on_system1() {
    let (soc, plan) = system1_plan();
    let ctrl = build_controller(&soc, &plan).unwrap();
    let total = plan.test_application_time();
    assert!(total > 0);

    let windows: Vec<_> = plan.serial_windows().collect();
    assert_eq!(windows.last().map(|w| w.2), Some(total));

    // Simulate far enough past `done` to cross the counter's power-of-two
    // boundary: a wrapping counter would re-assert episode 0 there.
    let horizon = (1u64 << ctrl.counter_bits) + 8;
    let rows = trace(&ctrl, horizon);
    for (cycle, outs) in rows.iter().enumerate() {
        let cycle = cycle as u64;
        for (k, (ep, start, end)) in windows.iter().enumerate() {
            assert_eq!(
                outs[k],
                cycle >= *start && cycle < *end,
                "cycle {cycle}: enable for {} (window {start}..{end})",
                ep.core
            );
        }
        assert_eq!(outs[windows.len()], cycle >= total, "cycle {cycle}: done");
    }

    // Every episode's tester program validates, and each drive lands on a
    // cycle where the simulated controller asserts that episode's enable.
    for (k, &(ep, start, end)) in windows.iter().enumerate() {
        let program = tester_program(ep);
        assert_eq!(program.length, ep.test_time());
        assert_eq!(validate_program(ep, &program), None);
        for d in &program.drives {
            let abs = start + d.cycle;
            assert!(abs < end, "drive past window end");
            assert!(
                rows[abs as usize][k],
                "drive for vector {} at absolute cycle {abs} outside enable",
                d.vector
            );
        }
    }
}

#[test]
fn controller_verilog_reparses_structurally() {
    let (soc, plan) = system1_plan();
    let ctrl = build_controller(&soc, &plan).unwrap();
    let v = to_verilog(&ctrl.netlist);

    // Header: one module, one clk, the reset input, every enable output
    // plus done, one endmodule.
    assert_eq!(
        v.matches("module ").count() - v.matches("endmodule").count(),
        0
    );
    assert!(v.contains("module test_controller("));
    assert!(v.contains("input wire clk"));
    assert!(v.contains("input wire reset"));
    for ep in &plan.episodes {
        let name = format!("output wire test_en_{}", soc.core(ep.core).name());
        assert!(v.contains(&name), "missing {name}");
    }
    assert!(v.contains("output wire done"));
    assert_eq!(v.matches("endmodule").count(), 1);

    // Hand-rolled re-parse (no Verilog parser in-tree): collect every
    // defined name (wire/reg declarations) and every assigned name, then
    // check each reg gets exactly one non-blocking assignment and each
    // assigned wire was declared.
    let mut regs = Vec::new();
    let mut wires = Vec::new();
    let mut assigned = Vec::new();
    let mut clocked = Vec::new();
    for line in v.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("reg ") {
            regs.push(rest.trim_end_matches(';').to_owned());
        } else if let Some(rest) = line.strip_prefix("wire ") {
            wires.push(rest.trim_end_matches(';').to_owned());
        } else if let Some(rest) = line.strip_prefix("assign ") {
            assigned.push(rest.split('=').next().unwrap().trim().to_owned());
        } else if let Some((lhs, _)) = line.split_once(" <= ") {
            clocked.push(lhs.trim().to_owned());
        }
    }
    assert_eq!(
        regs.len(),
        ctrl.netlist.flip_flop_count(),
        "one reg per flip-flop"
    );
    assert_eq!(clocked.len(), regs.len(), "one <= per reg");
    for r in &regs {
        assert_eq!(clocked.iter().filter(|c| *c == r).count(), 1, "reg {r}");
        assert!(!assigned.contains(r), "reg {r} also continuously assigned");
    }
    // Every internal wire is driven exactly once; output-port assigns bind
    // names declared in the header rather than as wires.
    for w in &wires {
        assert_eq!(
            assigned.iter().filter(|a| *a == w).count(),
            1,
            "wire {w} not driven exactly once"
        );
    }
    let n_outputs = plan.episodes.len() + 1;
    assert_eq!(assigned.len(), wires.len() + n_outputs);
    // All identifiers are legal Verilog names.
    for name in regs.iter().chain(&wires).chain(&assigned) {
        assert!(
            name.chars().all(|c| c.is_alphanumeric() || c == '_'),
            "bad identifier {name}"
        );
    }
}
