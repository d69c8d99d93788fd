//! Integration and property tests of the incremental evaluation engine:
//! CCG patching must be indistinguishable from a from-scratch build, a
//! reused `Scheduler` must produce bit-identical design points, and bad
//! input must surface as typed errors instead of panics.

use proptest::prelude::*;
use socet::cells::DftCosts;
use socet::core::{
    ladder_len, schedule, try_schedule, Ccg, CoreTestData, Explorer, ScheduleError, Scheduler,
};
use socet::rtl::Soc;
use socet::socs::{barcode_system, generate_soc, SyntheticConfig};

/// A canonical structural rendering of a CCG: every ordered field, but not
/// the node-lookup hash map (whose Debug iteration order is arbitrary).
fn canon(ccg: &Ccg, soc: &Soc) -> String {
    let outs: Vec<&[usize]> = (0..ccg.nodes().len()).map(|n| ccg.edges_from(n)).collect();
    let ranges: Vec<_> = soc
        .logic_cores()
        .iter()
        .map(|c| ccg.core_edge_range(*c))
        .collect();
    format!(
        "{:?}|{:?}|{outs:?}|{:?}|{:?}|{ranges:?}",
        ccg.nodes(),
        ccg.edges(),
        ccg.pi_nodes(),
        ccg.po_nodes(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stepping single cores through `Ccg::step_core` must leave a graph
    /// structurally identical to one built from scratch for the final
    /// choice, whatever the step sequence.
    #[test]
    fn incremental_ccg_patching_matches_full_build(
        seed in 1u64..50,
        steps in prop::collection::vec((0usize..100, 0usize..3), 0..10),
    ) {
        let soc = generate_soc(&SyntheticConfig {
            cores: 4,
            width: 8,
            pipeline_depth: 3,
            seed,
        });
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
        let logic = soc.logic_cores();
        let mut choice = vec![0usize; soc.cores().len()];
        let mut patched = Ccg::try_build(&soc, &data, &choice).expect("valid start");
        for (which, ver) in steps {
            let cid = logic[which % logic.len()];
            let ver = ver % ladder_len(data[cid.index()].as_ref());
            choice[cid.index()] = ver;
            patched.step_core(cid, &data, ver).expect("valid step");
            let fresh = Ccg::try_build(&soc, &data, &choice).expect("valid choice");
            prop_assert_eq!(canon(&patched, &soc), canon(&fresh, &soc));
        }
    }

    /// A reused engine evaluating an arbitrary walk through the choice
    /// space must return exactly what a cold one-shot schedule returns at
    /// every point — the incremental path, route cache and scratch reuse
    /// are invisible in the output.
    #[test]
    fn reused_scheduler_is_bit_identical_to_one_shot(
        walk in prop::collection::vec((0usize..100, 0usize..3), 1..8),
    ) {
        let soc = barcode_system();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
        let costs = DftCosts::default();
        let logic = soc.logic_cores();
        let mut engine = Scheduler::new(&soc, &data, &costs);
        let mut choice = vec![0usize; soc.cores().len()];
        for (which, ver) in walk {
            let cid = logic[which % logic.len()];
            choice[cid.index()] = ver % ladder_len(data[cid.index()].as_ref());
            let warm = engine.evaluate(&choice).expect("valid choice");
            let cold = schedule(&soc, &data, &choice, &costs);
            prop_assert_eq!(format!("{:?}", warm), format!("{:?}", cold));
        }
    }
}

#[test]
fn try_evaluate_reports_missing_core_data() {
    let soc = barcode_system();
    let mut data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
    let victim = soc.logic_cores()[1];
    data[victim.index()] = None;
    let ex = Explorer::new(&soc, &data, DftCosts::default());
    match ex.try_evaluate(&vec![0; soc.cores().len()]) {
        Err(ScheduleError::MissingCoreData { core }) => assert_eq!(core, victim),
        other => panic!("expected MissingCoreData, got {other:?}"),
    }
}

#[test]
fn try_evaluate_reports_out_of_range_choice() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
    let ex = Explorer::new(&soc, &data, DftCosts::default());
    let mut choice = vec![0; soc.cores().len()];
    let victim = soc.logic_cores()[0];
    choice[victim.index()] = 42;
    match ex.try_evaluate(&choice) {
        Err(ScheduleError::ChoiceOutOfRange {
            core,
            choice: c,
            versions,
        }) => {
            assert_eq!(core, victim);
            assert_eq!(c, 42);
            assert!(versions >= 1);
        }
        other => panic!("expected ChoiceOutOfRange, got {other:?}"),
    }
}

#[test]
fn try_schedule_reports_short_choice_vector() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
    assert!(matches!(
        try_schedule(&soc, &data, &[0], &DftCosts::default()),
        Err(ScheduleError::ChoiceLengthMismatch { .. })
    ));
}

#[test]
fn engine_recovers_after_failed_patch() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
    let costs = DftCosts::default();
    let mut engine = Scheduler::new(&soc, &data, &costs);
    let good = vec![0; soc.cores().len()];
    engine.evaluate(&good).expect("valid choice");
    let mut bad = good.clone();
    bad[soc.logic_cores()[0].index()] = 42;
    assert!(engine.evaluate(&bad).is_err());
    let after = engine.evaluate(&good).expect("engine must recover");
    let fresh = schedule(&soc, &data, &good, &costs);
    assert_eq!(format!("{after:?}"), format!("{fresh:?}"));
}

#[test]
fn explorer_metrics_count_sweep_work() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
    let ex = Explorer::new(&soc, &data, DftCosts::default());
    let points = ex.sweep();
    let m = ex.metrics();
    // The whole sweep runs on the explorer's one engine, so every counter
    // is a property of the search, not of the host's CPU count.
    assert_eq!(m.evaluations, points.len() as u64);
    assert_eq!(m.evaluations, 27, "{m}");
    assert_eq!(m.ccg_full_builds, 1, "{m}");
    assert_eq!(m.ccg_incremental_patches, 36, "{m}");
    assert_eq!(m.ccg_edges_rebuilt, 179, "{m}");
    assert_eq!(m.route_attempts, 189, "{m}");
    assert_eq!(m.route_cache_hits, 54, "{m}");
    assert_eq!(m.dijkstra_relaxations, 1180, "{m}");
    assert_eq!(m.system_mux_fallbacks, 36, "{m}");
}
