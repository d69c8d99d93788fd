//! Integration tests for the beyond-the-paper extensions: parallel episode
//! packing, Pareto analysis, plan reports, DOT exports, memory BIST and
//! synthetic-SOC scaling.

use socet::bist::{march_c, plan_memory_bist, MemoryFault, MemoryModel};
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{
    best_weighted, parallelize, pareto_front, render_plan, schedule, Ccg, CoreTestData, Explorer,
};
use socet::hscan::insert_hscan;
use socet::rtl::export::{dump_core, dump_soc};
use socet::socs::{barcode_system, generate_soc, SyntheticConfig};
use socet::transparency::Rcg;

#[test]
fn pareto_front_of_system1_is_consistent_with_objectives() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 50).unwrap();
    let explorer = Explorer::new(&soc, &data, DftCosts::default());
    let points = explorer.sweep();
    let front = pareto_front(&points);
    assert!(front.len() >= 2, "at least the two extremes survive");
    // Both weighted corners land on the front.
    let lib = CellLibrary::generic_08um();
    for (wt, wa) in [(1.0, 0.0), (0.0, 1.0), (1.0, 0.5)] {
        let best = best_weighted(&points, wt, wa).expect("non-empty");
        let on_front = front.iter().any(|f| {
            f.overhead_cells(&lib) == best.overhead_cells(&lib)
                && f.test_application_time() == best.test_application_time()
        });
        assert!(on_front, "weighted ({wt},{wa}) optimum off the front");
    }
}

#[test]
fn parallel_packing_of_system1_respects_serialization() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 50).unwrap();
    let plan = schedule(
        &soc,
        &data,
        &vec![0; soc.cores().len()],
        &DftCosts::default(),
    );
    let par = parallelize(&plan);
    // All three logic cores share the backbone, so the packing stays
    // serial — and must never exceed the serial bound.
    assert!(par.makespan <= par.serial_tat);
    assert_eq!(par.windows.len(), plan.episodes.len());
}

#[test]
fn report_and_dumps_cover_the_whole_system() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 50).unwrap();
    let plan = schedule(
        &soc,
        &data,
        &vec![0; soc.cores().len()],
        &DftCosts::default(),
    );
    let report = render_plan(&soc, &data, &plan);
    for core in ["PREPROCESSOR", "CPU", "DISPLAY"] {
        assert!(report.contains(core), "report misses {core}");
    }
    let soc_dump = dump_soc(&soc);
    assert!(soc_dump.contains("soc System1"));
    assert!(soc_dump.contains("core CPU {"));
    let cpu = soc.core(soc.find_core("CPU").unwrap()).core();
    let core_dump = dump_core(cpu);
    assert!(core_dump.contains("reg IR"));
    assert!(core_dump.contains("reg MAR_page"));
}

#[test]
fn dot_exports_are_well_formed() {
    let soc = barcode_system();
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 50).unwrap();
    let costs = DftCosts::default();
    let ccg = Ccg::build(&soc, &data, &vec![0; soc.cores().len()]);
    let dot = ccg.to_dot(&soc);
    assert!(dot.starts_with("digraph ccg"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(dot.contains("PI NUM"));
    assert!(dot.contains("DISPLAY.ALo"));
    let cpu = soc.core(soc.find_core("CPU").unwrap()).core();
    let rcg = Rcg::extract(cpu, &insert_hscan(cpu, &costs));
    let rdot = rcg.to_dot(cpu);
    assert!(rdot.starts_with("digraph rcg"));
    assert!(rdot.contains("IR"));
    assert!(rdot.contains("O-split"), "IR should be marked O-split");
}

#[test]
fn bist_plans_complement_the_logic_plan() {
    let soc = barcode_system();
    let plans = plan_memory_bist(&soc);
    assert_eq!(plans.len(), 2);
    // March C- really is the engine behind the cycle count.
    for p in &plans {
        let mut mem = MemoryModel::new(p.words.min(256), p.data_width);
        let log = march_c(&mut mem);
        assert!(!log.fault_detected);
        assert_eq!(log.operations, 10 * mem.size());
    }
    // Detection sanity on the RAM-sized memory.
    let mut mem = MemoryModel::new(256, 8);
    mem.inject(MemoryFault::StuckBit {
        addr: 200,
        bit: 7,
        value: true,
    });
    assert!(march_c(&mut mem).fault_detected);
}

#[test]
fn synthetic_socs_schedule_cleanly_at_scale() {
    let soc = generate_soc(&SyntheticConfig {
        cores: 12,
        width: 8,
        pipeline_depth: 3,
        seed: 5,
    });
    let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
    let costs = DftCosts::default();
    let plan = schedule(&soc, &data, &vec![0; soc.cores().len()], &costs);
    assert_eq!(plan.episodes.len(), 12);
    assert!(plan.test_application_time() > 0);
    // Deep-chain cores pay more per vector than tap-adjacent ones.
    let per_vec: Vec<u32> = plan.episodes.iter().map(|e| e.per_vector_cycles).collect();
    assert!(per_vec.iter().max() > per_vec.iter().min());
    // The parallel extension finds at least some overlap thanks to the
    // tap pins... or degrades gracefully to serial.
    let par = parallelize(&plan);
    assert!(par.makespan <= par.serial_tat);
}
