//! §3 worked example — testing the DISPLAY of System 1 through the
//! transparency of the PREPROCESSOR and the CPU, for every CPU version,
//! against the FSCAN-BSCAN cost of the same core.
//!
//! Paper values (with the PREPROCESSOR moving `NUM → DB` in one cycle):
//!
//! * CPU Version 1: `525 × 9 + 3 = 4 728` cycles
//! * CPU Version 2: `525 × 4 + 3 = 2 103` cycles
//! * CPU Version 3: `525 × 3 + 3 = 1 578` cycles
//! * FSCAN-BSCAN:   `(66 + 20) × 105 + 85 = 9 115` cycles

use socet_baselines::FscanBscanReport;
use socet_bench::compare_row;
use socet_cells::DftCosts;
use socet_core::{schedule, CoreTestData};
use socet_socs::barcode_system;

fn main() {
    let soc = barcode_system();
    let costs = DftCosts::default();
    // The worked example's premise: 105 combinational vectors per core.
    let data = CoreTestData::synthesize_soc(&soc, &costs, 105)
        .expect("every logic core has input and output ports");

    let prep = soc.find_core("PREPROCESSOR").expect("core");
    let cpu = soc.find_core("CPU").expect("core");
    let disp = soc.find_core("DISPLAY").expect("core");

    println!("§3 worked example: testing the DISPLAY");
    let paper = [4_728u64, 2_103, 1_578];
    for (v, paper_cycles) in paper.iter().enumerate() {
        let mut choice = vec![0usize; soc.cores().len()];
        choice[prep.index()] = 1; // NUM -> DB in one cycle
        choice[cpu.index()] = v;
        let plan = schedule(&soc, &data, &choice, &costs);
        let ep = plan
            .episodes
            .iter()
            .find(|e| e.core == disp)
            .expect("DISPLAY episode");
        println!(
            "  CPU Version {}: {} vectors x {} cycles + {} tail = {}",
            v + 1,
            ep.hscan_vectors,
            ep.per_vector_cycles,
            ep.tail_cycles,
            ep.test_time()
        );
        compare_row(
            &format!("DISPLAY TApp, CPU V{}", v + 1),
            ep.test_time() as f64,
            *paper_cycles as f64,
            "cycles",
        );
    }

    let mut vectors = vec![0u64; soc.cores().len()];
    for c in soc.logic_cores() {
        vectors[c.index()] = 105;
    }
    let fb = FscanBscanReport::evaluate(&soc, &vectors, &costs);
    let fb_disp = fb
        .cores
        .iter()
        .find(|c| c.core == disp)
        .expect("DISPLAY accounted");
    compare_row(
        "DISPLAY TApp, FSCAN-BSCAN",
        fb_disp.test_time() as f64,
        9_115.0,
        "cycles",
    );
}
