//! Memory BIST alongside SOCET: the complete chip test.
//!
//! The paper routes test data only through the *logic* cores; RAM and ROM
//! get built-in self-test instead (its reference \[8\]). This example plans
//! distributed BIST for System 1's memories, demonstrates the March C−
//! engine catching injected cell faults, shows LFSR/MISR signature
//! computation, and combines everything into a whole-chip test budget —
//! BIST runs concurrently with the logic episodes, so it adds area but no
//! test time.
//!
//! Run with: `cargo run --release --example memory_bist`

use socet::bist::{march_c, plan_memory_bist, Lfsr, MemoryFault, MemoryModel, Misr};
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{schedule, CoreTestData};
use socet::socs::barcode_system;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let soc = barcode_system();
    let lib = CellLibrary::generic_08um();

    // 1. BIST plans for the memory cores.
    println!("memory BIST plans:");
    let plans = plan_memory_bist(&soc);
    for p in &plans {
        println!(
            "  {:<6} {:>2}-bit address LFSR + {:>2}-bit MISR, {:>6} cells, {:>6} cycles (March C-)",
            soc.core(p.core).name(),
            p.addr_width,
            p.data_width,
            p.overhead_cells(&lib),
            p.test_cycles()
        );
    }

    // 2. The March engine on a faulty memory.
    println!("\nMarch C- demonstration (4K x 8 RAM):");
    let mut clean = MemoryModel::new(4096, 8);
    println!(
        "  clean memory : detected = {}",
        march_c(&mut clean).fault_detected
    );
    let mut faulty = MemoryModel::new(4096, 8);
    faulty.inject(MemoryFault::StuckBit {
        addr: 0x2fa,
        bit: 5,
        value: true,
    });
    faulty.inject(MemoryFault::Coupling {
        aggressor_addr: 0x100,
        victim_addr: 0x101,
        victim_bit: 0,
    });
    let log = march_c(&mut faulty);
    println!(
        "  faulty memory: detected = {} in {} operations",
        log.fault_detected, log.operations
    );

    // 3. Signature analysis: the MISR compacts the read stream.
    println!("\nsignature analysis:");
    let mut addr_gen = Lfsr::new(12, &[11, 5]);
    let mut good_sig = Misr::new(8, &[7, 5, 4, 3]);
    let mut bad_sig = Misr::new(8, &[7, 5, 4, 3]);
    let mut good_mem = MemoryModel::new(4096, 8);
    let mut bad_mem = MemoryModel::new(4096, 8);
    // Fault an address the LFSR provably visits (its first state).
    let faulty_addr = {
        let mut probe = Lfsr::new(12, &[11, 5]);
        (probe.step() as usize) % 4096
    };
    // Stuck-at-0 on a bit the background pattern sets to 1 there.
    bad_mem.inject(MemoryFault::StuckBit {
        addr: faulty_addr | 0x2,
        bit: 1,
        value: false,
    });
    // Write a known pattern everywhere, then read back in LFSR order.
    for a in 0..4096 {
        good_mem.write(a, (a as u64) & 0xff);
        bad_mem.write(a, (a as u64) & 0xff);
    }
    for _ in 0..4096 {
        let a = (addr_gen.step() as usize) % 4096;
        good_sig.absorb(good_mem.read(a));
        bad_sig.absorb(bad_mem.read(a));
    }
    println!("  good signature : {:#04x}", good_sig.signature());
    println!("  bad signature  : {:#04x}", bad_sig.signature());
    println!(
        "  fault visible  : {}",
        good_sig.signature() != bad_sig.signature()
    );

    // 4. The whole-chip budget: SOCET for logic + concurrent BIST.
    let costs = DftCosts::default();
    let data = CoreTestData::synthesize_soc(&soc, &costs, 105)
        .expect("every logic core has input and output ports");
    let plan = schedule(&soc, &data, &vec![0; soc.cores().len()], &costs);
    let logic_tat = plan.test_application_time();
    let bist_tat = plans.iter().map(|p| p.test_cycles()).max().unwrap_or(0);
    let bist_cells: u64 = plans.iter().map(|p| p.overhead_cells(&lib)).sum();
    println!("\nwhole-chip budget:");
    println!(
        "  logic (SOCET)    : {logic_tat} cycles, {} cells",
        plan.overhead_cells(&lib)
    );
    println!("  memories (BIST)  : {bist_tat} cycles, {bist_cells} cells (runs concurrently)");
    println!("  chip test time   : {} cycles", logic_tat.max(bist_tat));
    Ok(())
}
