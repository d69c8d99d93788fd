//! Property tests of the parallel packer ([`socet_core::parallelize`]):
//! on a population of seeded synthetic SOCs, every packed schedule keeps
//! time-overlapping episodes resource-disjoint and never takes longer
//! than the paper's serial order.

use proptest::prelude::*;
use socet_cells::DftCosts;
use socet_core::{parallelize, try_schedule, CoreTestData, DesignPoint};
use socet_rtl::Soc;
use socet_socs::SocSpec;

/// Prepares and schedules a synthetic SOC at the all-default design point.
/// Returns `None` when the spec is legitimately unschedulable (no routes,
/// version synthesis fails) — those seeds are skipped, not failed.
fn plan_for(spec: &SocSpec) -> Option<(Soc, DesignPoint)> {
    let soc = spec.build();
    let costs = DftCosts::default();
    let data = CoreTestData::synthesize_soc(&soc, &costs, 4).ok()?;
    let choice = vec![0; soc.cores().len()];
    let plan = try_schedule(&soc, &data, &choice, &costs).ok()?;
    Some((soc, plan))
}

fn assert_packing_sound(soc: &Soc, plan: &DesignPoint) {
    let par = parallelize(plan);
    assert!(
        par.makespan <= par.serial_tat,
        "packed TAT {} exceeds serial {} on {}",
        par.makespan,
        par.serial_tat,
        soc.name()
    );
    // Every episode is packed exactly once.
    let mut packed: Vec<usize> = par.windows.iter().map(|w| w.0).collect();
    packed.sort_unstable();
    assert!(packed.into_iter().eq(0..plan.episodes.len()), "{par}");
    // Every episode's window is exactly its test time.
    for &(i, start, end) in &par.windows {
        let ep = &plan.episodes[i];
        assert_eq!(end - start, ep.test_time(), "window length for {}", ep.core);
    }
    // Pairwise: overlapping windows must have disjoint resource sets.
    for (k, &(i1, s1, e1)) in par.windows.iter().enumerate() {
        for &(i2, s2, e2) in par.windows.iter().skip(k + 1) {
            if s1 >= e2 || s2 >= e1 {
                continue; // no time overlap
            }
            let (ep1, ep2) = (&plan.episodes[i1], &plan.episodes[i2]);
            let r1 = ep1.resources();
            let shared: Vec<_> = ep2
                .resources()
                .into_iter()
                .filter(|r| r1.contains(r))
                .collect();
            assert!(
                shared.is_empty(),
                "episodes {} and {} overlap in time ({s1}..{e1} vs {s2}..{e2}) \
                 sharing resources {shared:?} on {}",
                ep1.core,
                ep2.core,
                soc.name()
            );
        }
    }
}

/// The headline sweep: 100 seeded synthetic SOCs, every schedulable one
/// packs soundly. A floor on schedulable seeds guards against the skip
/// path silently swallowing the whole population.
#[test]
fn hundred_synthetic_socs_pack_soundly() {
    let mut scheduled = 0u32;
    for seed in 1..=100u64 {
        let spec = SocSpec::random(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Some((soc, plan)) = plan_for(&spec) {
            assert_packing_sound(&soc, &plan);
            scheduled += 1;
        }
    }
    assert!(scheduled >= 60, "only {scheduled}/100 seeds schedulable");
}

#[test]
fn paper_systems_pack_soundly() {
    for soc in [socet_socs::barcode_system(), socet_socs::system2()] {
        let costs = DftCosts::default();
        let data = CoreTestData::synthesize_soc(&soc, &costs, 20).unwrap();
        let choice = vec![0; soc.cores().len()];
        let plan = try_schedule(&soc, &data, &choice, &costs).unwrap();
        assert_packing_sound(&soc, &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same invariants under proptest's seed exploration, plus shrinking
    /// to a small offending spec if one ever appears.
    #[test]
    fn packed_schedules_stay_sound(seed in 1u64..u64::MAX) {
        if let Some((soc, plan)) = plan_for(&SocSpec::random(seed)) {
            let par = parallelize(&plan);
            prop_assert!(par.makespan <= par.serial_tat);
            assert_packing_sound(&soc, &plan);
        }
    }
}
