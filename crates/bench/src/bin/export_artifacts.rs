//! Writes the shareable artifacts of a System 1 run into `artifacts/`:
//! Graphviz graphs (RCG per core, chip CCG), Verilog for the synthesized
//! test controller, the text netlist dump, and the full sign-off report.
//!
//! Run with: `cargo run --release -p socet-bench --bin export_artifacts`

use socet_bench::prepare;
use socet_cells::DftCosts;
use socet_core::{build_controller, render_plan, schedule, Ccg};
use socet_gate::export::to_verilog;
use socet_hscan::insert_hscan;
use socet_rtl::export::dump_soc;
use socet_socs::barcode_system;
use socet_transparency::Rcg;
use std::fs;
use std::path::Path;

fn main() -> std::io::Result<()> {
    let out = Path::new("artifacts");
    fs::create_dir_all(out)?;
    let soc = &barcode_system();
    let system = prepare(soc);
    let costs = DftCosts::default();

    // Per-core RCGs.
    for cid in soc.logic_cores() {
        let inst = soc.core(cid);
        let core = inst.core();
        let hscan = insert_hscan(core, &costs);
        let rcg = Rcg::extract(core, &hscan);
        let path = out.join(format!("rcg_{}.dot", inst.name().to_lowercase()));
        fs::write(&path, rcg.to_dot(core))?;
        println!("wrote {}", path.display());
    }

    // Chip CCG (the Fig. 9 picture) at minimum area.
    let choice = vec![0usize; soc.cores().len()];
    let ccg = Ccg::build(soc, &system.data, &choice);
    fs::write(out.join("ccg_system1.dot"), ccg.to_dot(soc))?;
    println!("wrote {}", out.join("ccg_system1.dot").display());

    // Netlist dump and sign-off report.
    fs::write(out.join("system1.netlist.txt"), dump_soc(soc))?;
    let plan = schedule(soc, &system.data, &choice, &costs);
    fs::write(
        out.join("system1.plan.txt"),
        render_plan(soc, &system.data, &plan),
    )?;
    println!("wrote {}", out.join("system1.plan.txt").display());

    // Test controller in Verilog.
    let ctrl = build_controller(soc, &plan).expect("controller builds");
    fs::write(out.join("test_controller.v"), to_verilog(&ctrl.netlist))?;
    println!("wrote {}", out.join("test_controller.v").display());
    Ok(())
}
