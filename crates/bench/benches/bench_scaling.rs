//! Criterion bench: chip-level scheduling runtime as the SOC grows — the
//! engine stays interactive far past the paper's 3-core systems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use socet_cells::DftCosts;
use socet_core::{schedule, CoreTestData, Scheduler};
use socet_socs::{generate_soc, SyntheticConfig};

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for cores in [4usize, 8, 16, 32] {
        let soc = generate_soc(&SyntheticConfig {
            cores,
            width: 8,
            pipeline_depth: 4,
            seed: 7,
        });
        let costs = DftCosts::default();
        let data = CoreTestData::synthesize_soc(&soc, &costs, 50)
            .expect("every logic core has input and output ports");
        let choice = vec![0usize; soc.cores().len()];
        group.bench_with_input(BenchmarkId::new("schedule", cores), &cores, |b, _| {
            b.iter(|| schedule(&soc, &data, &choice, &costs))
        });
        // The incremental engine stepping one core's version per point —
        // the explorer's hot loop.
        let mut stepped = choice.clone();
        stepped[0] = 1;
        let mut engine = Scheduler::new(&soc, &data, &costs);
        let mut flip = false;
        group.bench_with_input(
            BenchmarkId::new("evaluate_incremental", cores),
            &cores,
            |b, _| {
                b.iter(|| {
                    flip = !flip;
                    let c = if flip { &stepped } else { &choice };
                    engine.evaluate(c).expect("valid choice")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
