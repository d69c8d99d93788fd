//! TAB1 — regenerates Table 1 of the paper: design-space exploration for
//! System 1, detailing design points 1 (each core at minimum area), 18
//! (each core at minimum latency) and 17 (minimum chip test application
//! time).
//!
//! Paper values:
//!
//! | Circuit description             | A.Ov. (cells) | TApp (cycles) | FCov (%) | TEff (%) |
//! |---------------------------------|---------------|---------------|----------|----------|
//! | Each core has min. area (1)     | 156           | 17,387        | 98.4     | 99.8     |
//! | Each core has min. latency (18) | 325           | 3,818         | 98.4     | 99.8     |
//! | Min. chip TApp. (17)            | 307           | 3,806         | 98.4     | 99.8     |
//!
//! Fault coverage is the aggregated per-core ATPG coverage — SOCET delivers
//! each core's full precomputed test set, so FC does not depend on the
//! version mix; only area and TAT move.

use socet_bench::{compare_row, prepare};
use socet_cells::{CellLibrary, DftCosts};
use socet_core::Explorer;
use socet_socs::barcode_system;

fn main() {
    let soc = barcode_system();
    let prepared = prepare(&soc);
    let lib = CellLibrary::generic_08um();
    let explorer = Explorer::new(&soc, &prepared.data, DftCosts::default());
    let coverage = prepared.aggregate_coverage();

    let min_area = explorer.evaluate(&explorer.min_area_choice());
    let min_latency = explorer.evaluate(&explorer.min_latency_choice());
    let min_tat = explorer
        .sweep()
        .into_iter()
        .min_by_key(|p| (p.test_application_time(), p.overhead_cells(&lib)))
        .expect("sweep is non-empty");

    println!("TAB1: System 1 design points");
    println!(
        "  {:<28} {:>10} {:>10} {:>8} {:>8}",
        "circuit", "A.Ov.", "TApp.", "FCov.%", "TEff.%"
    );
    for (name, dp) in [
        ("min area (1)", &min_area),
        ("min latency (18)", &min_latency),
        ("min chip TApp (17)", &min_tat),
    ] {
        println!(
            "  {:<28} {:>10} {:>10} {:>8.1} {:>8.1}",
            name,
            dp.overhead_cells(&lib),
            dp.test_application_time(),
            coverage.fault_coverage(),
            coverage.test_efficiency()
        );
    }

    println!("\ncomparison with the paper:");
    compare_row(
        "pt1 area overhead",
        min_area.overhead_cells(&lib) as f64,
        156.0,
        "cells",
    );
    compare_row(
        "pt1 TApp",
        min_area.test_application_time() as f64,
        17_387.0,
        "cycles",
    );
    compare_row(
        "pt18 area overhead",
        min_latency.overhead_cells(&lib) as f64,
        325.0,
        "cells",
    );
    compare_row(
        "pt18 TApp",
        min_latency.test_application_time() as f64,
        3_818.0,
        "cycles",
    );
    compare_row(
        "pt17 area overhead",
        min_tat.overhead_cells(&lib) as f64,
        307.0,
        "cells",
    );
    compare_row(
        "pt17 TApp",
        min_tat.test_application_time() as f64,
        3_806.0,
        "cycles",
    );
    compare_row("fault coverage", coverage.fault_coverage(), 98.4, "%");
    compare_row("test efficiency", coverage.test_efficiency(), 99.8, "%");

    println!("\nshape checks:");
    let reduction =
        min_area.test_application_time() as f64 / min_latency.test_application_time() as f64;
    compare_row(
        "TAT reduction pt1->pt18",
        reduction,
        17_387.0 / 3_818.0,
        "x",
    );
    println!(
        "  min-TApp <= min-latency TApp: {}",
        if min_tat.test_application_time() <= min_latency.test_application_time() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
