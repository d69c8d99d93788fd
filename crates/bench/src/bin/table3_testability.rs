//! TAB3 — regenerates Table 3 of the paper: testability of Systems 1 and 2
//! under four regimes — the original chip (no DFT), HSCAN cores without
//! chip-level DFT, FSCAN-BSCAN, and SOCET at both extremes.
//!
//! Paper values:
//!
//! | Circuit  | Orig FC | HSCAN FC | FB FC | FB TApp | SOCET FC | SOCET TApp (min area / min TApp) |
//! |----------|---------|----------|-------|---------|----------|-----------------------------------|
//! | System 1 | 10.6    | 14.6     | 98.4  | 36,152  | 98.4     | 17,387 / 3,806                    |
//! | System 2 | 11.2    | 13.8     | 98.2  | 46,394  | 98.2     | 16,435 / 3,998                    |

use socet_baselines::{flatten_soc, hscan_only_coverage, orig_coverage, FscanBscanReport};
use socet_bench::{compare_row, prepare};
use socet_cells::{CellLibrary, DftCosts};
use socet_core::Explorer;
use socet_rtl::Soc;
use socet_socs::{barcode_system, system2};

struct PaperRow {
    orig_fc: f64,
    hscan_fc: f64,
    fb_fc: f64,
    fb_tapp: f64,
    socet_fc: f64,
    socet_min_area_tapp: f64,
    socet_min_tapp: f64,
}

const RANDOM_CYCLES: usize = 96;
const SEED: u64 = 0xdac1998;

fn run(soc: Soc, paper: &PaperRow) {
    let system = prepare(&soc);
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();
    let flat = flatten_soc(&soc).expect("example systems flatten");

    // "Orig.": random sequential vectors against the un-DFT'd chip.
    let orig = orig_coverage(&flat, RANDOM_CYCLES, SEED);
    // "HSCAN": cores are scan-testable but embedded ones are unreachable.
    let hscan = hscan_only_coverage(&soc, &orig, &system.tests);
    // Full scan access: the aggregated per-core ATPG coverage.
    let full = system.aggregate_coverage();

    let fb = FscanBscanReport::evaluate(&soc, &system.vectors(), &costs);
    let explorer = Explorer::new(&soc, &system.data, costs);
    let min_area = explorer.evaluate(&explorer.min_area_choice());
    let min_tat = explorer
        .sweep()
        .into_iter()
        .min_by_key(|p| (p.test_application_time(), p.overhead_cells(&lib)))
        .expect("sweep is non-empty");

    println!("\n{}:", soc.name());
    compare_row(
        "Orig. fault coverage",
        orig.fault_coverage(),
        paper.orig_fc,
        "%",
    );
    compare_row(
        "HSCAN-only fault coverage",
        hscan.fault_coverage(),
        paper.hscan_fc,
        "%",
    );
    compare_row(
        "FSCAN-BSCAN fault coverage",
        full.fault_coverage(),
        paper.fb_fc,
        "%",
    );
    compare_row(
        "FSCAN-BSCAN TApp",
        fb.test_application_time() as f64,
        paper.fb_tapp,
        "cycles",
    );
    compare_row(
        "SOCET fault coverage",
        full.fault_coverage(),
        paper.socet_fc,
        "%",
    );
    compare_row(
        "SOCET TApp (min area)",
        min_area.test_application_time() as f64,
        paper.socet_min_area_tapp,
        "cycles",
    );
    compare_row(
        "SOCET TApp (min TApp)",
        min_tat.test_application_time() as f64,
        paper.socet_min_tapp,
        "cycles",
    );
    println!("  shape checks:");
    println!(
        "    Orig << scan-based coverage: {}",
        if orig.fault_coverage() + 20.0 < full.fault_coverage() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "    HSCAN-only >= Orig:          {}",
        if hscan.fault_coverage() >= orig.fault_coverage() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "    SOCET TApp < FSCAN-BSCAN:    {}",
        if min_area.test_application_time() < fb.test_application_time() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    // The ATPG work behind the scan-based rows, rendered like
    // `soctool atpg --stats`.
    println!("{}", indent(&system.atpg_stats().to_string()));
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    println!(
        "TAB3: testability results ({RANDOM_CYCLES} random sequential cycles for Orig/HSCAN rows)"
    );
    run(
        barcode_system(),
        &PaperRow {
            orig_fc: 10.6,
            hscan_fc: 14.6,
            fb_fc: 98.4,
            fb_tapp: 36_152.0,
            socet_fc: 98.4,
            socet_min_area_tapp: 17_387.0,
            socet_min_tapp: 3_806.0,
        },
    );
    run(
        system2(),
        &PaperRow {
            orig_fc: 11.2,
            hscan_fc: 13.8,
            fb_fc: 98.2,
            fb_tapp: 46_394.0,
            socet_fc: 98.2,
            socet_min_area_tapp: 16_435.0,
            socet_min_tapp: 3_998.0,
        },
    );
}
