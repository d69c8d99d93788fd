//! Design-space exploration on System 2: the Fig. 10-style sweep plus both
//! §5 objectives.
//!
//! Prints every version-combination design point (area overhead vs test
//! application time), then shows how objective (i) — minimum TAT under an
//! area budget — and objective (ii) — minimum area under a TAT budget —
//! pick different points from the same space.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use socet::atpg::TpgConfig;
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{Explorer, Objective};
use socet::flow::{prepare_soc_with, PrepareOptions};
use socet::socs::system2;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let soc = system2();
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();
    println!("preparing {} (HSCAN + versions + ATPG)...", soc.name());
    let (prepared, _) = prepare_soc_with(
        &soc,
        &costs,
        &TpgConfig::default(),
        &PrepareOptions::default(),
    )?;
    println!(
        "  original area {} cells, HSCAN overhead {} cells, coverage {}",
        prepared.original_area_cells(&lib),
        prepared.hscan_overhead_cells(&lib),
        prepared.aggregate_coverage()
    );

    let explorer = Explorer::new(&soc, &prepared.data, costs);

    // Fig. 10-style sweep: every combination of core versions.
    println!("\ndesign-space sweep (choice -> overhead cells, TAT cycles):");
    let mut points = explorer.sweep();
    points.sort_by_key(|p| p.overhead_cells(&lib));
    for p in &points {
        println!(
            "  {:?} -> {:>5} cells, {:>8} cycles{}",
            p.choice,
            p.overhead_cells(&lib),
            p.test_application_time(),
            if p.system_muxes.is_empty() {
                String::new()
            } else {
                format!(" (+{} system muxes)", p.system_muxes.len())
            }
        );
    }
    let min_area = points
        .iter()
        .min_by_key(|p| p.overhead_cells(&lib))
        .expect("non-empty sweep");
    let min_tat = points
        .iter()
        .min_by_key(|p| p.test_application_time())
        .expect("non-empty sweep");
    println!(
        "\n  extremes: min-area {} cells / {} cycles; min-TAT {} cells / {} cycles",
        min_area.overhead_cells(&lib),
        min_area.test_application_time(),
        min_tat.overhead_cells(&lib),
        min_tat.test_application_time()
    );

    // Objective (i): the best TAT that fits a mid-range area budget.
    let budget = (min_area.overhead_cells(&lib) + min_tat.overhead_cells(&lib)) / 2;
    let obj1 = explorer.optimize(Objective::MinTatUnderArea {
        max_overhead_cells: budget,
    });
    println!(
        "\nobjective (i), area <= {budget} cells: choice {:?}, {} cells, {} cycles",
        obj1.choice,
        obj1.overhead_cells(&lib),
        obj1.test_application_time()
    );

    // Objective (ii): the cheapest point meeting a mid-range TAT budget.
    let tat_budget = (min_area.test_application_time() + min_tat.test_application_time()) / 2;
    let obj2 = explorer.optimize(Objective::MinAreaUnderTat {
        max_tat_cycles: tat_budget,
    });
    println!(
        "objective (ii), TAT <= {tat_budget} cycles: choice {:?}, {} cells, {} cycles",
        obj2.choice,
        obj2.overhead_cells(&lib),
        obj2.test_application_time()
    );
    Ok(())
}
