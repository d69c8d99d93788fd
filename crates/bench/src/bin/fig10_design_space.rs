//! FIG10 — regenerates Fig. 10 of the paper: test application time vs area
//! overhead for the design points of System 1 obtained from different core
//! version combinations.
//!
//! The paper plots 18 distinct points; design point 1 is the all-minimum-
//! area configuration, 18 the all-minimum-latency one, and 17 the true
//! minimum-TAT point (which does *not* use the minimum-latency
//! PREPROCESSOR — the paper's headline observation). The paper reports a
//! ~4.5x TAT reduction from point 1 to point 18 for a ~2x area-overhead
//! increase.

use socet_bench::{compare_row, prepare};
use socet_cells::{CellLibrary, DftCosts};
use socet_core::Explorer;
use socet_socs::barcode_system;

fn main() {
    let soc = barcode_system();
    let prepared = prepare(&soc);
    let lib = CellLibrary::generic_08um();
    let explorer = Explorer::new(&soc, &prepared.data, DftCosts::default());

    let mut points = explorer.sweep();
    points.sort_by_key(|p| (p.overhead_cells(&lib), p.test_application_time()));
    // Distinct (area, TAT) pairs — the paper's "18 design points" collapse
    // combinations with identical cost.
    let mut distinct: Vec<(u64, u64, Vec<usize>)> = Vec::new();
    for p in &points {
        let key = (p.overhead_cells(&lib), p.test_application_time());
        if !distinct.iter().any(|(a, t, _)| (*a, *t) == key) {
            distinct.push((key.0, key.1, p.choice.clone()));
        }
    }

    println!("FIG10: System 1 design space (area overhead vs TAT)");
    println!("  {:>4} {:>10} {:>12}  choice", "pt", "ovhd", "TAT");
    for (k, (a, t, c)) in distinct.iter().enumerate() {
        println!("  {:>4} {a:>10} {t:>12}  {c:?}", k + 1);
    }
    println!(
        "  ({} distinct points from {} combinations; paper plots 18)",
        distinct.len(),
        points.len()
    );

    let min_area = points
        .iter()
        .min_by_key(|p| (p.overhead_cells(&lib), p.test_application_time()))
        .expect("non-empty");
    let min_tat = points
        .iter()
        .min_by_key(|p| (p.test_application_time(), p.overhead_cells(&lib)))
        .expect("non-empty");
    let min_latency = explorer.evaluate(&explorer.min_latency_choice());

    println!("\nendpoints:");
    println!(
        "  point 1  (min area)   : {:>6} cells, {:>8} cycles, choice {:?}",
        min_area.overhead_cells(&lib),
        min_area.test_application_time(),
        min_area.choice
    );
    println!(
        "  point 18 (min latency): {:>6} cells, {:>8} cycles, choice {:?}",
        min_latency.overhead_cells(&lib),
        min_latency.test_application_time(),
        min_latency.choice
    );
    println!(
        "  point 17 (min TAT)    : {:>6} cells, {:>8} cycles, choice {:?}",
        min_tat.overhead_cells(&lib),
        min_tat.test_application_time(),
        min_tat.choice
    );

    // The paper's shape claims.
    let tat_reduction =
        min_area.test_application_time() as f64 / min_latency.test_application_time() as f64;
    let area_increase =
        min_latency.overhead_cells(&lib) as f64 / min_area.overhead_cells(&lib) as f64;
    println!("\nshape checks:");
    compare_row("TAT reduction (pt1 / pt18)", tat_reduction, 4.5, "x");
    compare_row("area increase (pt18 / pt1)", area_increase, 2.1, "x");
    let min_tat_cheaper = min_tat.overhead_cells(&lib) <= min_latency.overhead_cells(&lib)
        && min_tat.test_application_time() <= min_latency.test_application_time();
    println!(
        "  min-TAT point is at most as expensive as min-latency: {}",
        if min_tat_cheaper {
            "HOLDS (the paper's design-point-17 observation)"
        } else {
            "VIOLATED"
        }
    );

    println!("\n{}", explorer.metrics());
}
