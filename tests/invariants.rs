//! Second property-test suite: whole-pipeline invariants on synthetic
//! SOCs — the laws the engine must obey regardless of topology.

use proptest::prelude::*;
use socet::atpg::{compact_tests, fault_list, generate_tests, FaultSim, TpgConfig};
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{
    build_controller, interconnect_report, parallelize, pareto_front, schedule, schedule_with,
    CoreTestData, Explorer,
};
use socet::gate::elaborate;
use socet::socs::{generate_soc, SyntheticConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across random SOCs: unconstrained routing never reports a longer
    /// TAT than reservation-aware routing, parallel packing never exceeds
    /// serial time, and the Pareto front is non-empty.
    #[test]
    fn scheduling_laws_hold_on_synthetic_socs(
        cores in 2usize..7,
        depth in 1usize..5,
        seed in 1u64..1000,
        vectors in 1usize..30,
    ) {
        let soc = generate_soc(&SyntheticConfig {
            cores,
            width: 8,
            pipeline_depth: depth,
            seed,
        });
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), vectors).unwrap();
        let costs = DftCosts::default();
        let choice = vec![0usize; soc.cores().len()];
        let with = schedule_with(&soc, &data, &choice, &costs, true);
        let without = schedule_with(&soc, &data, &choice, &costs, false);
        prop_assert!(without.test_application_time() <= with.test_application_time());
        let par = parallelize(&with);
        prop_assert!(par.makespan <= par.serial_tat);
        prop_assert!(par.speedup() >= 1.0);
        let explorer = Explorer::new(&soc, &data, costs);
        let points = explorer.sweep();
        prop_assert!(!pareto_front(&points).is_empty());
    }

    /// The synthesized controller's cycle-by-cycle behaviour always matches
    /// the plan's episode windows.
    #[test]
    fn controller_matches_plan_windows(
        cores in 2usize..4,
        seed in 1u64..100,
    ) {
        let soc = generate_soc(&SyntheticConfig {
            cores,
            width: 4,
            pipeline_depth: 2,
            seed,
        });
        // Tiny TAT: simulation stays fast.
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 2).unwrap();
        let costs = DftCosts::default();
        let plan = schedule(&soc, &data, &vec![0; soc.cores().len()], &costs);
        let ctrl = build_controller(&soc, &plan).expect("controller builds");
        let sim = socet::gate::CombSim::new(&ctrl.netlist);
        let total = plan.test_application_time();
        let mut state = vec![false; ctrl.netlist.flip_flop_count()];
        for cycle in 0..total.min(300) + 2 {
            let (outs, next) = sim.run_with_state(&[false], &state);
            for (k, (_, start, end)) in plan.serial_windows().enumerate() {
                prop_assert_eq!(outs[k], cycle >= start && cycle < end);
            }
            state = next;
        }
    }

    /// Interconnect accounting always partitions the net list.
    #[test]
    fn interconnect_report_partitions_nets(
        cores in 2usize..7,
        seed in 1u64..500,
    ) {
        let soc = generate_soc(&SyntheticConfig {
            cores,
            width: 8,
            pipeline_depth: 3,
            seed,
        });
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 5).unwrap();
        let plan = schedule(&soc, &data, &vec![0; soc.cores().len()], &DftCosts::default());
        let report = interconnect_report(&soc, &plan);
        prop_assert_eq!(
            report.tested.len() + report.untested.len(),
            soc.nets().len()
        );
        let cov = report.logic_coverage();
        prop_assert!((0.0..=100.0).contains(&cov));
    }

    /// Compaction never loses coverage and never grows the set, on random
    /// synthetic cores.
    #[test]
    fn compaction_laws(
        seed in 1u64..200,
        depth in 1usize..4,
    ) {
        let soc = generate_soc(&SyntheticConfig {
            cores: 1,
            width: 6,
            pipeline_depth: depth,
            seed,
        });
        let core = soc.cores()[0].core();
        let nl = elaborate(core).expect("elaborates").netlist;
        let mut tests = generate_tests(&nl, &TpgConfig::default());
        let faults = fault_list(&nl);
        let mut sim = FaultSim::new(&nl);
        let before_det = sim.detected(&faults, &tests.patterns);
        let stats = compact_tests(&nl, &mut tests);
        prop_assert!(stats.after <= stats.before);
        prop_assert_eq!(sim.detected(&faults, &tests.patterns), before_det);
    }

    /// The version ladder's chip-level consequences are monotone: choosing
    /// a higher version for one core never increases the global TAT.
    #[test]
    fn higher_versions_never_hurt_tat(
        cores in 2usize..5,
        seed in 1u64..300,
        which in 0usize..5,
    ) {
        let soc = generate_soc(&SyntheticConfig {
            cores,
            width: 8,
            pipeline_depth: 4,
            seed,
        });
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 10).unwrap();
        let costs = DftCosts::default();
        let base = vec![0usize; soc.cores().len()];
        let plan0 = schedule(&soc, &data, &base, &costs);
        let target = which % cores;
        let mut upgraded = base.clone();
        upgraded[target] = 2;
        let plan2 = schedule(&soc, &data, &upgraded, &costs);
        prop_assert!(
            plan2.test_application_time() <= plan0.test_application_time(),
            "upgrading core {} raised TAT {} -> {}",
            target,
            plan0.test_application_time(),
            plan2.test_application_time()
        );
        let lib = CellLibrary::generic_08um();
        prop_assert!(plan2.overhead_cells(&lib) >= plan0.overhead_cells(&lib));
    }
}
