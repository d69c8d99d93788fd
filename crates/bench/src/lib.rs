//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every evaluation artifact of the paper has a binary here (see
//! `DESIGN.md`'s experiment index); each prints the measured values next
//! to the paper's, so `EXPERIMENTS.md` can be refreshed by rerunning:
//!
//! ```text
//! cargo run --release -p socet-bench --bin fig6_cpu_versions
//! cargo run --release -p socet-bench --bin fig8_core_versions
//! cargo run --release -p socet-bench --bin fig10_design_space
//! cargo run --release -p socet-bench --bin table1_design_points
//! cargo run --release -p socet-bench --bin table2_area_overheads
//! cargo run --release -p socet-bench --bin table3_testability
//! cargo run --release -p socet-bench --bin worked_example_display
//! ```

use socet::atpg::TpgConfig;
use socet::flow::{prepare_soc_with, PrepareOptions, PreparedSoc};
use socet_cells::DftCosts;
use socet_rtl::Soc;

/// Runs the core-level flow on `soc` through the content-addressed
/// pipeline ([`prepare_soc_with`]) at the default DFT costs and ATPG
/// budget — the preparation every table and figure binary reads.
pub fn prepare(soc: &Soc) -> PreparedSoc {
    let tpg = TpgConfig::default();
    prepare_soc_with(soc, &DftCosts::default(), &tpg, &PrepareOptions::default())
        .expect("the paper's systems prepare")
        .0
}

/// Prints a `measured vs paper` row with a ratio, used by every table
/// binary so the output format is uniform.
pub fn compare_row(label: &str, measured: f64, paper: f64, unit: &str) {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    println!("  {label:<34} measured {measured:>10.1} {unit:<7} paper {paper:>10.1} {unit:<7} (x{ratio:.2})");
}
