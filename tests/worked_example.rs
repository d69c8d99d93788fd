//! The §3 worked example of the paper, end to end.
//!
//! Testing the DISPLAY of System 1 takes:
//!
//! * `525 × 9 + 3 = 4 728` cycles with the CPU in Version 1,
//! * `525 × 4 + 3 = 2 103` cycles with Version 2,
//! * `525 × 3 + 3 = 1 578` cycles with Version 3,
//!
//! while FSCAN-BSCAN needs `(66 + 20) × 105 + (66 + 20) − 1 = 9 115`
//! cycles for the same core. All five numbers must come out of the
//! pipeline exactly.

use socet::baselines::FscanBscanReport;
use socet::cells::DftCosts;
use socet::core::{schedule, CoreTestData};
use socet::socs::barcode_system;

/// The DISPLAY test time under a given CPU version (PREPROCESSOR fixed at
/// Version 2, its "one cycle NUM -> DB" premise).
fn display_test_time(cpu_version: usize) -> u64 {
    let soc = barcode_system();
    // The worked example's premise: 105 combinational vectors per core.
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 105).unwrap();
    let prep = soc.find_core("PREPROCESSOR").expect("core exists");
    let cpu = soc.find_core("CPU").expect("core exists");
    let disp = soc.find_core("DISPLAY").expect("core exists");
    let mut choice = vec![0usize; soc.cores().len()];
    choice[prep.index()] = 1; // Version 2: NUM -> DB in one cycle
    choice[cpu.index()] = cpu_version;
    let plan = schedule(&soc, &data, &choice, &DftCosts::default());
    plan.episodes
        .iter()
        .find(|e| e.core == disp)
        .expect("DISPLAY episode exists")
        .test_time()
}

#[test]
fn display_with_cpu_version1_takes_4728_cycles() {
    assert_eq!(display_test_time(0), 525 * 9 + 3);
}

#[test]
fn display_with_cpu_version2_takes_2103_cycles() {
    assert_eq!(display_test_time(1), 525 * 4 + 3);
}

#[test]
fn display_with_cpu_version3_takes_1578_cycles() {
    assert_eq!(display_test_time(2), 525 * 3 + 3);
}

#[test]
fn fscan_bscan_display_takes_9115_cycles() {
    let soc = barcode_system();
    let mut vectors = vec![0u64; soc.cores().len()];
    let disp = soc.find_core("DISPLAY").expect("core exists");
    for c in soc.logic_cores() {
        vectors[c.index()] = 105;
    }
    let report = FscanBscanReport::evaluate(&soc, &vectors, &DftCosts::default());
    let display = report
        .cores
        .iter()
        .find(|c| c.core == disp)
        .expect("DISPLAY accounted");
    assert_eq!(display.test_time(), 9_115);
}

#[test]
fn socet_beats_fscan_bscan_on_the_display_in_every_version() {
    for v in 0..3 {
        assert!(
            display_test_time(v) < 9_115,
            "SOCET with CPU version {} must beat FSCAN-BSCAN",
            v + 1
        );
    }
}

#[test]
fn per_vector_cycles_match_the_papers_arithmetic() {
    // J = 9: one PREPROCESSOR cycle plus the CPU's serialized 6 + 2.
    let soc = barcode_system();
    // The worked example's premise: 105 combinational vectors per core.
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 105).unwrap();
    let prep = soc.find_core("PREPROCESSOR").expect("core exists");
    let disp = soc.find_core("DISPLAY").expect("core exists");
    let mut choice = vec![0usize; soc.cores().len()];
    choice[prep.index()] = 1;
    let plan = schedule(&soc, &data, &choice, &DftCosts::default());
    let ep = plan
        .episodes
        .iter()
        .find(|e| e.core == disp)
        .expect("DISPLAY episode");
    assert_eq!(ep.per_vector_cycles, 9);
    assert_eq!(ep.tail_cycles, 3);
    assert_eq!(ep.hscan_vectors, 525);
}
