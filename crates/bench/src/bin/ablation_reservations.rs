//! ABLATION — what the paper's edge reservations are worth.
//!
//! §5.1 reserves every transparency edge for the cycles it carries data, so
//! a second transfer through shared logic *waits* ("the edge (NUM, DB) can
//! only be utilized from cycle 6 onwards"). This ablation reroutes both
//! example systems with the reservation machinery disabled and shows how
//! far the resulting per-vector times underestimate reality — in the §3
//! worked example the unconstrained router would claim 7 cycles per vector
//! where the hardware needs 9.

use socet_bench::prepare;
use socet_cells::DftCosts;
use socet_core::{parallelize, schedule_with, Explorer};
use socet_rtl::Soc;
use socet_socs::{barcode_system, system2};

fn run(soc: Soc) {
    let system = prepare(&soc);
    let costs = DftCosts::default();
    let explorer = Explorer::new(&soc, &system.data, costs);
    println!("\n{}:", soc.name());
    for (label, choice) in [
        ("min area", explorer.min_area_choice()),
        ("min latency", explorer.min_latency_choice()),
    ] {
        let with = schedule_with(&soc, &system.data, &choice, &costs, true);
        let without = schedule_with(&soc, &system.data, &choice, &costs, false);
        let underestimate =
            with.test_application_time() as f64 / without.test_application_time().max(1) as f64;
        println!(
            "  {label:<12} with reservations {:>9} cycles | without {:>9} cycles | naive underestimates by x{underestimate:.2}",
            with.test_application_time(),
            without.test_application_time(),
        );
        // Bonus row: the parallel-scheduling extension on the *correct*
        // (reserved) plan.
        let par = parallelize(&with);
        println!(
            "  {label:<12} parallel extension: makespan {:>9} cycles (x{:.2} over serial)",
            par.makespan,
            par.speedup()
        );
    }
}

fn main() {
    println!("ABLATION: reservation-aware routing vs naive shortest paths");
    run(barcode_system());
    run(system2());
}
