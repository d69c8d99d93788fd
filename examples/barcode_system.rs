//! The paper's System 1 — the barcode-scanning SOC of Fig. 2 — end to end.
//!
//! Reproduces the §3 worked example live: the DISPLAY's test application
//! time under each CPU version, the FSCAN-BSCAN comparison, and the
//! system-level test mux Fig. 9 places on the PREPROCESSOR's Address
//! output.
//!
//! Run with: `cargo run --release --example barcode_system`

use socet::baselines::FscanBscanReport;
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{schedule, CoreTestData};
use socet::socs::barcode_system;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let soc = barcode_system();
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();

    println!("{soc}");
    // Core-level data with the paper's premise of 105 combinational
    // vectors per core.
    let data = CoreTestData::synthesize_soc(&soc, &costs, 105)
        .expect("every logic core has input and output ports");

    // The version ladders (Figs. 6 and 8).
    for cid in soc.logic_cores() {
        let inst = soc.core(cid);
        println!("\n{} versions:", inst.name());
        for v in &data[cid.index()].as_ref().expect("logic core").versions {
            println!("  {} -> {} cells", v.name(), v.overhead_cells(&lib));
        }
    }

    // The §3 worked example: DISPLAY test time vs CPU version.
    let prep = soc.find_core("PREPROCESSOR").expect("core");
    let cpu = soc.find_core("CPU").expect("core");
    let disp = soc.find_core("DISPLAY").expect("core");
    println!("\nDISPLAY test time (PREPROCESSOR at Version 2):");
    for cpu_v in 0..3 {
        let mut choice = vec![0usize; soc.cores().len()];
        choice[prep.index()] = 1;
        choice[cpu.index()] = cpu_v;
        let plan = schedule(&soc, &data, &choice, &costs);
        let ep = plan
            .episodes
            .iter()
            .find(|e| e.core == disp)
            .expect("DISPLAY episode");
        println!(
            "  CPU Version {}: {} x {} + {} = {} cycles",
            cpu_v + 1,
            ep.hscan_vectors,
            ep.per_vector_cycles,
            ep.tail_cycles,
            ep.test_time()
        );
    }

    // FSCAN-BSCAN on the same core.
    let mut vectors = vec![0u64; soc.cores().len()];
    for c in soc.logic_cores() {
        vectors[c.index()] = 105;
    }
    let fb = FscanBscanReport::evaluate(&soc, &vectors, &costs);
    let fb_disp = fb.cores.iter().find(|c| c.core == disp).expect("DISPLAY");
    println!(
        "  FSCAN-BSCAN  : ({} + {}) x {} + {} = {} cycles",
        fb_disp.flip_flops,
        fb_disp.boundary_bits,
        fb_disp.vectors,
        fb_disp.chain_length() - 1,
        fb_disp.test_time()
    );

    // Whole-chip plan at minimum area, with the Fig. 9 system mux.
    let choice = vec![0usize; soc.cores().len()];
    let plan = schedule(&soc, &data, &choice, &costs);
    println!("\nminimum-area SOCET plan:");
    println!("  global TAT : {} cycles", plan.test_application_time());
    println!("  chip DFT   : {} cells", plan.overhead_cells(&lib));
    for m in &plan.system_muxes {
        let name = soc.core(m.core).name();
        let port = soc.core(m.core).core().port(m.port).name();
        println!("  system mux : {name}.{port} ({} bits)", m.width);
    }
    Ok(())
}
