//! Criterion bench: elaboration, PODEM-based test generation (System 1's
//! CPU core is the PODEM-heavy case) and combinational fault simulation —
//! the naive full-netlist path against the cone-pruned engine (cold =
//! constructed per run, warm = cones and buffers reused, parallel = fault
//! partitioning across all cores) on the largest netlist we have, the
//! flattened barcode chip.

use criterion::{criterion_group, criterion_main, Criterion};
use socet_atpg::{fault_list, generate_tests, FaultSim, TpgConfig};
use socet_baselines::flatten_soc;
use socet_gate::elaborate;
use socet_socs::{barcode_system, cpu_core, gcd_core};

/// Deterministic random scan patterns without pulling in an RNG dependency.
fn lcg_patterns(width: usize, count: usize, mut seed: u64) -> Vec<Vec<bool>> {
    (0..count)
        .map(|_| {
            (0..width)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    seed >> 63 != 0
                })
                .collect()
        })
        .collect()
}

fn bench_atpg(c: &mut Criterion) {
    let mut group = c.benchmark_group("atpg");
    group.sample_size(10);
    let gcd = gcd_core();
    group.bench_function("elaborate/gcd", |b| b.iter(|| elaborate(&gcd).unwrap()));
    let nl = elaborate(&gcd).unwrap().netlist;
    let cfg = TpgConfig::default();
    group.bench_function("generate_tests/gcd", |b| {
        b.iter(|| generate_tests(&nl, &cfg))
    });
    // System 1's CPU core, whose ATPG run is mostly PODEM redundancy
    // proofs: the PODEM phase's number beside fault simulation's.
    let cpu = elaborate(&cpu_core()).unwrap().netlist;
    group.bench_function("podem_system1_cpu", |b| {
        b.iter(|| generate_tests(&cpu, &cfg))
    });

    // Combinational fault simulation on the flattened barcode chip — the
    // largest netlist in the repo. 128 patterns against the full fault
    // list; both engines drop detected faults block-to-block, so they do
    // comparable work.
    let chip = flatten_soc(&barcode_system()).expect("barcode system flattens");
    let chip_faults = fault_list(&chip);
    let mut warm = FaultSim::new(&chip).with_workers(1);
    let patterns = lcg_patterns(warm.pattern_width(), 128, 0xc41b);
    group.bench_function("comb_fault_sim/chip_naive", |b| {
        b.iter(|| FaultSim::new(&chip).detected_naive(&chip_faults, &patterns))
    });
    group.bench_function("comb_fault_sim/chip_cone_cold", |b| {
        b.iter(|| {
            FaultSim::new(&chip)
                .with_workers(1)
                .detected(&chip_faults, &patterns)
        })
    });
    group.bench_function("comb_fault_sim/chip_cone_warm", |b| {
        b.iter(|| warm.detected(&chip_faults, &patterns))
    });
    group.bench_function("comb_fault_sim/chip_cone_parallel", |b| {
        let mut sim = FaultSim::new(&chip);
        b.iter(|| sim.detected(&chip_faults, &patterns))
    });
    group.finish();
}

criterion_group!(benches, bench_atpg);
criterion_main!(benches);
