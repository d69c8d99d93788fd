//! ABLATION — static test-set compaction and its effect on TAT.
//!
//! The paper takes each core's precomputed test set as given. A production
//! flow would compact it first: reverse-order fault simulation drops
//! vectors whose faults the rest of the set already covers, and every
//! removed vector shortens the core's HSCAN sequence and therefore the
//! chip's test application time — at zero hardware cost.

use socet_atpg::{compact_tests, generate_tests, TpgConfig};
use socet_bench::prepare;
use socet_cells::DftCosts;
use socet_core::schedule;
use socet_gate::elaborate;
use socet_rtl::Soc;
use socet_socs::{barcode_system, system2};

fn run(soc: Soc) {
    let mut system = prepare(&soc);
    println!("\n{}:", soc.name());
    let costs = DftCosts::default();
    // Baseline TAT with the raw ATPG sets.
    let choice = vec![0usize; soc.cores().len()];
    let before_tat = schedule(&soc, &system.data, &choice, &costs).test_application_time();

    // Compact each core's set and refresh the per-core vector counts.
    for cid in soc.logic_cores() {
        let inst = soc.core(cid);
        let nl = elaborate(inst.core())
            .expect("example cores elaborate")
            .netlist;
        let mut tests = generate_tests(&nl, &TpgConfig::default());
        let stats = compact_tests(&nl, &mut tests);
        println!(
            "  {:<14} {:>4} -> {:>4} vectors ({:>4.1}% smaller), coverage {}",
            inst.name(),
            stats.before,
            stats.after,
            stats.reduction(),
            tests.coverage
        );
        if let Some(td) = system.data[cid.index()].as_mut() {
            td.scan_vectors = tests.vector_count();
        }
    }
    let after_tat = schedule(&soc, &system.data, &choice, &costs).test_application_time();
    println!(
        "  min-area TAT: {before_tat} -> {after_tat} cycles (x{:.2})",
        before_tat as f64 / after_tat.max(1) as f64
    );
}

fn main() {
    println!("ABLATION: static test-set compaction");
    run(barcode_system());
    run(system2());
}
