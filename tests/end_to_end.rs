//! End-to-end pipeline tests on the paper's two systems: core-level flow,
//! chip-level planning, baselines and the headline comparisons the paper
//! claims (SOCET's area and test-time advantages over FSCAN-BSCAN, and the
//! area/TAT trade-off between SOCET's own extremes).

use socet::atpg::tpg::random_sequence;
use socet::atpg::{fault_list, SeqFaultSim, TpgConfig};
use socet::baselines::{flatten_soc, orig_coverage, FscanBscanReport, TestBusReport};
use socet::cells::{CellLibrary, DftCosts, Enc, StableHasher};
use socet::core::{Explorer, Objective};
use socet::flow::{prepare_soc_with, PrepareOptions, PreparedSoc};
use socet::gate::codec::encode_netlist;
use socet::gate::Tri;
use socet::rtl::Soc;
use socet::socs::{barcode_system, system2};

/// Prepares `soc` at default DFT costs with a light ATPG budget.
fn prepare(soc: &Soc) -> PreparedSoc {
    let tpg = TpgConfig {
        random_patterns: 32,
        max_backtracks: 64,
        ..TpgConfig::default()
    };
    prepare_soc_with(soc, &DftCosts::default(), &tpg, &PrepareOptions::default())
        .expect("elaboration succeeds")
        .0
}

fn check_system(soc: &Soc) {
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();
    let prepared = prepare(soc);

    // Core-level quality: every core reaches high test efficiency.
    let agg = prepared.aggregate_coverage();
    assert!(
        agg.test_efficiency() > 90.0,
        "{}: aggregate {agg}",
        soc.name()
    );

    // Chip-level: both SOCET extremes, the paper's Fig. 10 endpoints.
    let explorer = Explorer::new(soc, &prepared.data, costs);
    let min_area = explorer.evaluate(&explorer.min_area_choice());
    let min_lat = explorer.evaluate(&explorer.min_latency_choice());
    assert!(
        min_lat.test_application_time() <= min_area.test_application_time(),
        "{}: min-latency {} vs min-area {}",
        soc.name(),
        min_lat.test_application_time(),
        min_area.test_application_time()
    );
    assert!(
        min_area.overhead_cells(&lib) <= min_lat.overhead_cells(&lib),
        "{}: overheads inverted",
        soc.name()
    );

    // FSCAN-BSCAN baseline: SOCET wins on both axes (Tables 2 and 3).
    let fb = FscanBscanReport::evaluate(soc, &prepared.vectors(), &costs);
    let socet_total_area = prepared.hscan_overhead_cells(&lib) + min_area.overhead_cells(&lib);
    assert!(
        socet_total_area < fb.total_cells(&lib),
        "{}: SOCET area {} !< FSCAN-BSCAN {}",
        soc.name(),
        socet_total_area,
        fb.total_cells(&lib)
    );
    assert!(
        min_area.test_application_time() < fb.test_application_time(),
        "{}: SOCET TAT {} !< FSCAN-BSCAN {}",
        soc.name(),
        min_area.test_application_time(),
        fb.test_application_time()
    );

    // The test bus reaches scan speed but cannot test interconnect.
    let tb = TestBusReport::evaluate(soc, &prepared.vectors(), &prepared.depths(), &costs);
    assert!(!tb.interconnect_tested());

    // The un-DFT'd chip has very poor coverage (Table 3 "Orig.").
    let flat = flatten_soc(soc).expect("flattening succeeds");
    let orig = orig_coverage(&flat, 48, 0xdac98);
    assert!(
        orig.fault_coverage() < agg.fault_coverage(),
        "{}: orig {} !< scan-based {}",
        soc.name(),
        orig.fault_coverage(),
        agg.fault_coverage()
    );
}

#[test]
fn system1_pipeline_holds_the_papers_claims() {
    check_system(&barcode_system());
}

#[test]
fn system2_pipeline_holds_the_papers_claims() {
    check_system(&system2());
}

/// Table 3 "Orig.": the random sequential campaign on the un-DFT'd chip,
/// pinned to the counts EXPERIMENTS.md reports.
#[test]
fn orig_coverage_matches_the_table3_counts() {
    for (soc, detected, total) in [(barcode_system(), 114, 4314), (system2(), 334, 3192)] {
        let flat = flatten_soc(&soc).expect("flattening succeeds");
        let orig = orig_coverage(&flat, 96, 0xdac1998);
        assert_eq!(
            (orig.detected, orig.total),
            (detected, total),
            "{}",
            soc.name()
        );
    }
}

/// The flattened paper chips are pinned byte for byte (digest of their
/// encoding), so a change to the chip-interconnect rule or to the inlining
/// order cannot silently move Table 3's "Orig." row.
#[test]
fn flattened_paper_chips_are_byte_stable() {
    for (soc, digest) in [
        (barcode_system(), "039c9ee6c484afcdcd999627d51af99d"),
        (system2(), "e629adf818fea601da7e802b314ca79c"),
    ] {
        let flat = flatten_soc(&soc).expect("flattening succeeds");
        let mut e = Enc::new();
        encode_netlist(&flat, &mut e);
        let mut h = StableHasher::new();
        h.write_bytes(e.bytes());
        assert_eq!(h.finish().to_hex(), digest, "{}", soc.name());
    }
}

/// The differential sequential fault simulator gives the full-sweep
/// oracle's whole detection map on both paper systems, at Table 3's seed
/// and the held-out one; the held-out counts are pinned too.
#[test]
fn orig_detection_maps_match_the_full_sweep_oracle() {
    for (soc, held_out) in [(barcode_system(), (114, 4314)), (system2(), (642, 3192))] {
        let flat = flatten_soc(&soc).expect("flattening succeeds");
        let faults = fault_list(&flat);
        for seed in [0xdac1998, 1998] {
            let vectors = random_sequence(flat.inputs().len(), 96, seed);
            let sim = SeqFaultSim::new(&flat);
            let want = sim.run_naive(&faults, &vectors, Tri::Zero);
            let got = sim.run_from(&faults, &vectors, Tri::Zero);
            assert!(got == want, "{} seed {seed}", soc.name());
            if seed == 1998 {
                let detected = want.iter().filter(|&&d| d).count();
                assert_eq!((detected, faults.len()), held_out, "{}", soc.name());
            }
        }
    }
}

#[test]
fn objective_one_and_two_bracket_the_extremes() {
    let soc = system2();
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();
    let prepared = prepare(&soc);
    let explorer = Explorer::new(&soc, &prepared.data, costs);
    let min_area = explorer.evaluate(&explorer.min_area_choice());

    // Objective (i) with an unlimited budget reaches the sweep optimum.
    let best_tat = explorer
        .sweep()
        .into_iter()
        .map(|p| p.test_application_time())
        .min()
        .expect("sweep is non-empty");
    let obj1 = explorer.optimize(Objective::MinTatUnderArea {
        max_overhead_cells: u64::MAX,
    });
    assert_eq!(obj1.test_application_time(), best_tat);

    // Objective (ii) hits a midpoint budget with less area than the
    // all-out point.
    let target = (min_area.test_application_time() + best_tat) / 2;
    let obj2 = explorer.optimize(Objective::MinAreaUnderTat {
        max_tat_cycles: target,
    });
    assert!(obj2.test_application_time() <= target);
    assert!(obj2.overhead_cells(&lib) <= obj1.overhead_cells(&lib));
}

#[test]
fn design_points_are_reproducible() {
    let soc = barcode_system();
    let costs = DftCosts::default();
    let prepared = prepare(&soc);
    let explorer = Explorer::new(&soc, &prepared.data, costs);
    let a = explorer.evaluate(&explorer.min_area_choice());
    let b = explorer.evaluate(&explorer.min_area_choice());
    assert_eq!(a.test_application_time(), b.test_application_time());
    assert_eq!(a.chip_overhead, b.chip_overhead);
    assert_eq!(a.pair_usage, b.pair_usage);
}

#[test]
fn preprocessor_address_needs_the_fig9_system_mux() {
    // Fig. 9: "the output Address of the PREPROCESSOR is connected to a PO
    // with a system-level test multiplexer since there is no way of
    // observing it by existing paths through the cores."
    let soc = barcode_system();
    let costs = DftCosts::default();
    let prepared = prepare(&soc);
    let explorer = Explorer::new(&soc, &prepared.data, costs);
    let plan = explorer.evaluate(&explorer.min_area_choice());
    let prep = soc.find_core("PREPROCESSOR").expect("core exists");
    let addr = soc
        .core(prep)
        .core()
        .find_port("Address")
        .expect("port exists");
    assert!(
        plan.system_muxes
            .iter()
            .any(|m| m.core == prep && m.port == addr && !m.controls_input),
        "expected an observation mux on PREPROCESSOR.Address, got {:?}",
        plan.system_muxes
    );
}
