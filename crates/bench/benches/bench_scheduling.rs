//! Criterion bench: CCG construction and reservation-aware episode routing
//! on System 1.

use criterion::{criterion_group, criterion_main, Criterion};
use socet_cells::DftCosts;
use socet_core::{schedule, Ccg, CoreTestData};
use socet_socs::barcode_system;

fn inputs() -> (socet_rtl::Soc, Vec<Option<CoreTestData>>) {
    let soc = barcode_system();
    let costs = DftCosts::default();
    let data = CoreTestData::synthesize_soc(&soc, &costs, 105)
        .expect("every logic core has input and output ports");
    (soc, data)
}

fn bench_scheduling(c: &mut Criterion) {
    let (soc, data) = inputs();
    let costs = DftCosts::default();
    let choice = vec![0usize; soc.cores().len()];
    let mut group = c.benchmark_group("scheduling");
    group.bench_function("ccg_build/system1", |b| {
        b.iter(|| Ccg::build(&soc, &data, &choice))
    });
    group.bench_function("schedule/system1_min_area", |b| {
        b.iter(|| schedule(&soc, &data, &choice, &costs))
    });
    let fast = vec![2usize; soc.cores().len()];
    group.bench_function("schedule/system1_min_latency", |b| {
        b.iter(|| schedule(&soc, &data, &fast, &costs))
    });
    group.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
