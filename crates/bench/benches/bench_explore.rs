//! Criterion bench: full design-space sweep and both iterative-improvement
//! objectives on System 1.

use criterion::{criterion_group, criterion_main, Criterion};
use socet_cells::DftCosts;
use socet_core::{CoreTestData, Explorer, Objective, Scheduler};
use socet_socs::barcode_system;

fn bench_explore(c: &mut Criterion) {
    let soc = barcode_system();
    let costs = DftCosts::default();
    let data = CoreTestData::synthesize_soc(&soc, &costs, 105)
        .expect("every logic core has input and output ports");
    let explorer = Explorer::new(&soc, &data, costs);
    let mut group = c.benchmark_group("explore");
    group.sample_size(20);
    group.bench_function("sweep/system1", |b| b.iter(|| explorer.sweep()));
    group.bench_function("objective1/system1", |b| {
        b.iter(|| {
            explorer.optimize(Objective::MinTatUnderArea {
                max_overhead_cells: u64::MAX,
            })
        })
    });
    group.bench_function("objective2/system1", |b| {
        b.iter(|| {
            explorer.optimize(Objective::MinAreaUnderTat {
                max_tat_cycles: 5_000,
            })
        })
    });
    // Incremental-vs-full ablation of the evaluation engine: one design
    // point per iteration, either through a cold engine (full CCG build,
    // fresh scratch) or a warm one stepping a single core's version.
    let choice_a = vec![0usize; soc.cores().len()];
    let mut choice_b = choice_a.clone();
    choice_b[0] = 1;
    group.bench_function("evaluate_full/system1", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let c = if flip { &choice_b } else { &choice_a };
            Scheduler::new(&soc, &data, &DftCosts::default())
                .evaluate(c)
                .expect("valid choice")
        })
    });
    group.bench_function("evaluate_incremental/system1", |b| {
        let mut engine = Scheduler::new(&soc, &data, &DftCosts::default());
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let c = if flip { &choice_b } else { &choice_a };
            engine.evaluate(c).expect("valid choice")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
