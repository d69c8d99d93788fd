//! Determinism and cache-correctness properties of the preparation
//! pipeline: the pipeline ≡ the uncached flow, warm disk cache ≡ cold run
//! bit for bit, and any input-knob change invalidates the cache.

use proptest::prelude::*;
use socet::atpg::TpgConfig;
use socet::cells::{DftCosts, StableHasher};
use socet::flow::{prepare_soc_uncached, prepare_soc_with, PrepareOptions, PreparedSoc};
use socet::rtl::Soc;
use std::path::PathBuf;

fn light_tpg() -> TpgConfig {
    TpgConfig {
        random_patterns: 16,
        max_backtracks: 32,
        ..TpgConfig::default()
    }
}

/// A fresh per-test cache directory under cargo's target tmpdir.
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("prepare-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Byte encodings of every instance's artifact (`None` for memories).
fn all_bytes(p: &PreparedSoc, soc: &Soc) -> Vec<Option<Vec<u8>>> {
    (0..soc.cores().len())
        .map(|i| p.artifact_bytes(i))
        .collect()
}

/// Digest of every instance's artifact at the default `DftCosts` and
/// `TpgConfig`: a refactor of the simulators, PODEM or the codecs must not
/// move a single byte. No artifact field depends on the host, so the pins
/// hold for any CPU count.
fn default_artifact_digest(soc: &Soc) -> u128 {
    let (p, _) = prepare_soc_with(
        soc,
        &DftCosts::default(),
        &TpgConfig::default(),
        &PrepareOptions::new(),
    )
    .unwrap();
    let mut h = StableHasher::new();
    for bytes in all_bytes(&p, soc) {
        match bytes {
            None => h.write_u8(0),
            Some(b) => {
                h.write_u8(1);
                h.write_usize(b.len());
                h.write_bytes(&b);
            }
        }
    }
    h.finish().0
}

#[test]
fn default_artifacts_match_the_golden_digests() {
    let system1 = default_artifact_digest(&socet::socs::barcode_system());
    let system2 = default_artifact_digest(&socet::socs::system2());
    assert_eq!(
        system1, 0x54f3a95a3859ca37a8c0ddc324c99bca,
        "System 1 digest {system1:#034x}"
    );
    assert_eq!(
        system2, 0x1c1c7d14145868bbbdabc70fac70b87f,
        "System 2 digest {system2:#034x}"
    );
}

#[test]
fn pipeline_output_is_bit_identical_to_uncached() {
    let soc = socet::socs::system2();
    let costs = DftCosts::default();
    let tpg = light_tpg();
    let oracle = prepare_soc_uncached(&soc, &costs, &tpg).unwrap();
    let (got, _) = prepare_soc_with(&soc, &costs, &tpg, &PrepareOptions::new()).unwrap();
    assert_eq!(
        all_bytes(&got, &soc),
        all_bytes(&oracle, &soc),
        "the pipeline diverged from the uncached oracle"
    );
}

#[test]
fn warm_disk_cache_is_bit_identical_to_cold() {
    let soc = socet::socs::system2();
    let costs = DftCosts::default();
    let tpg = light_tpg();
    let opts = PrepareOptions::new().cache_dir(fresh_cache_dir("warm"));
    let (cold, mc) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(mc.disk_hits, 0);
    assert_eq!(mc.disk_writes, mc.unique_cores);
    let (warm, mw) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(
        mw.disk_hits, mw.unique_cores,
        "warm run must hit for every core"
    );
    assert_eq!(mw.disk_misses, 0);
    assert_eq!(all_bytes(&warm, &soc), all_bytes(&cold, &soc));
}

#[test]
fn tpg_change_invalidates_the_cache() {
    let soc = socet::socs::system2();
    let costs = DftCosts::default();
    let opts = PrepareOptions::new().cache_dir(fresh_cache_dir("tpg-invalidate"));
    let tpg = light_tpg();
    let (_, first) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(first.disk_writes, first.unique_cores);
    let changed = TpgConfig {
        random_patterns: tpg.random_patterns + 1,
        ..tpg
    };
    let (_, second) = prepare_soc_with(&soc, &costs, &changed, &opts).unwrap();
    assert_eq!(second.disk_hits, 0, "stale entries must not be served");
    assert_eq!(second.disk_misses, second.unique_cores);
    // The original configuration still hits its own entries.
    let (_, third) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(third.disk_hits, third.unique_cores);
}

#[test]
fn dft_cost_change_invalidates_the_cache() {
    let soc = socet::socs::system2();
    let tpg = light_tpg();
    let opts = PrepareOptions::new().cache_dir(fresh_cache_dir("costs-invalidate"));
    let costs = DftCosts::default();
    let (_, first) = prepare_soc_with(&soc, &costs, &tpg, &opts).unwrap();
    assert_eq!(first.disk_writes, first.unique_cores);
    let changed = DftCosts {
        hscan_test_mux_per_bit: costs.hscan_test_mux_per_bit + 1,
        ..costs
    };
    let (_, second) = prepare_soc_with(&soc, &changed, &tpg, &opts).unwrap();
    assert_eq!(second.disk_hits, 0, "stale entries must not be served");
    assert_eq!(second.disk_misses, second.unique_cores);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any ATPG seed: the pipeline output equals the uncached oracle's,
    /// byte for byte.
    #[test]
    fn pipeline_matches_oracle_for_any_seed(
        seed in 0u64..4,
    ) {
        let soc = socet::socs::system2();
        let costs = DftCosts::default();
        let tpg = TpgConfig { seed, ..light_tpg() };
        let oracle = prepare_soc_uncached(&soc, &costs, &tpg).unwrap();
        let (got, _) = prepare_soc_with(&soc, &costs, &tpg, &PrepareOptions::new()).unwrap();
        prop_assert_eq!(all_bytes(&got, &soc), all_bytes(&oracle, &soc));
    }
}
