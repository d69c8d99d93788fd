//! TAB2 — regenerates Table 2 of the paper: area overheads of the
//! core-level DFT (FSCAN vs HSCAN), the chip-level DFT (BSCAN vs SOCET at
//! both extremes), and the totals, for Systems 1 and 2.
//!
//! Paper values (percent of original area):
//!
//! | Circuit  | FSCAN | HSCAN | BSCAN | SOCET min-area | SOCET min-TApp | FSCAN-BSCAN total | SOCET total |
//! |----------|-------|-------|-------|----------------|----------------|-------------------|-------------|
//! | System 1 | 18.8  | 10.1  | 5.2   | 2.0            | 3.8            | 24.0              | 12.1 / 13.9 |
//! | System 2 | 15.6  | 10.3  | 9.9   | 1.2            | 4.7            | 25.5              | 11.5 / 15.0 |

use socet_baselines::FscanBscanReport;
use socet_bench::{compare_row, prepare};
use socet_cells::{CellLibrary, DftCosts};
use socet_core::Explorer;
use socet_rtl::Soc;
use socet_socs::{barcode_system, system2};

struct PaperRow {
    fscan: f64,
    hscan: f64,
    bscan: f64,
    socet_min_area: f64,
    socet_min_tapp: f64,
    fb_total: f64,
    socet_total_min_area: f64,
    socet_total_min_tapp: f64,
}

fn run(soc: Soc, paper: &PaperRow) {
    let system = prepare(&soc);
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();
    let orig = system.original_area_cells(&lib) as f64;
    let pct = |cells: u64| cells as f64 / orig * 100.0;

    let fb = FscanBscanReport::evaluate(&soc, &system.vectors(), &costs);
    let explorer = Explorer::new(&soc, &system.data, costs);
    let min_area = explorer.evaluate(&explorer.min_area_choice());
    let min_tat = explorer
        .sweep()
        .into_iter()
        .min_by_key(|p| (p.test_application_time(), p.overhead_cells(&lib)))
        .expect("sweep is non-empty");

    let hscan_cells = system.hscan_overhead_cells(&lib);
    println!("\n{} — original area {} cells", soc.name(), orig as u64);
    compare_row(
        "core-level FSCAN ovhd %",
        pct(fb.fscan_cells(&lib)),
        paper.fscan,
        "%",
    );
    compare_row(
        "core-level HSCAN ovhd %",
        pct(hscan_cells),
        paper.hscan,
        "%",
    );
    compare_row(
        "chip-level BSCAN ovhd %",
        pct(fb.bscan_cells(&lib)),
        paper.bscan,
        "%",
    );
    compare_row(
        "chip-level SOCET (min area) %",
        pct(min_area.overhead_cells(&lib)),
        paper.socet_min_area,
        "%",
    );
    compare_row(
        "chip-level SOCET (min TApp) %",
        pct(min_tat.overhead_cells(&lib)),
        paper.socet_min_tapp,
        "%",
    );
    compare_row(
        "FSCAN-BSCAN total %",
        pct(fb.total_cells(&lib)),
        paper.fb_total,
        "%",
    );
    compare_row(
        "SOCET total (min area) %",
        pct(hscan_cells + min_area.overhead_cells(&lib)),
        paper.socet_total_min_area,
        "%",
    );
    compare_row(
        "SOCET total (min TApp) %",
        pct(hscan_cells + min_tat.overhead_cells(&lib)),
        paper.socet_total_min_tapp,
        "%",
    );
    let socet_total = hscan_cells + min_tat.overhead_cells(&lib);
    println!(
        "  SOCET total beats FSCAN-BSCAN total: {}",
        if socet_total < fb.total_cells(&lib) {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}

fn main() {
    println!("TAB2: area overheads (percent of original chip area)");
    run(
        barcode_system(),
        &PaperRow {
            fscan: 18.8,
            hscan: 10.1,
            bscan: 5.2,
            socet_min_area: 2.0,
            socet_min_tapp: 3.8,
            fb_total: 24.0,
            socet_total_min_area: 12.1,
            socet_total_min_tapp: 13.9,
        },
    );
    run(
        system2(),
        &PaperRow {
            fscan: 15.6,
            hscan: 10.3,
            bscan: 9.9,
            socet_min_area: 1.2,
            socet_min_tapp: 4.7,
            fb_total: 25.5,
            socet_total_min_area: 11.5,
            socet_total_min_tapp: 15.0,
        },
    );
}
