//! The workloads. Each builds its inputs and its output reference at
//! set-up, then runs one iteration per [`Workload::run`] call; the harness
//! times `run` alone and checks its output outside the timed region.

pub mod explore;
pub mod prepare;
pub mod testability;
pub mod verify;

use crate::layers::Layers;
use socet::cells::DftCosts;
use socet::core::CoreTestData;
use socet::hscan::insert_hscan;
use socet::rtl::Soc;
use socet::transparency::synthesize_versions;
use std::path::Path;

/// The run seed every workload records beside its default (0) as held
/// out: never used while the benchmark was tuned.
pub const HELD_OUT_SEED: u64 = 1998;

pub trait Workload: Sized {
    /// What one iteration returns for checking.
    type Output;
    /// What the throughput `#` line counts for this workload.
    const ITEMS: &'static str;
    /// Layer timers that together cover one iteration.
    fn top_layers() -> Vec<&'static str>;

    /// Builds the inputs and output reference from the workload seed;
    /// `scratch` is a directory inside the checkout that this run owns.
    fn setup(seed: u64, scratch: &Path, layers: &mut Layers) -> Result<Self, String>;
    /// Work items one iteration processes.
    fn items(&self) -> f64;
    /// Untimed preparation before each iteration.
    fn reset(&mut self) {}
    /// One iteration; records layer readings when `layers` is given.
    fn run(&mut self, layers: Option<&mut Layers>) -> Self::Output;
    /// Compares one iteration's output with the reference.
    fn check(&self, out: &Self::Output) -> Result<(), String>;
    /// Exercises, untimed and after a traced run's timed loop, a layer too
    /// noisy on a shared host to be timed as a workload; records its
    /// readings and returns its output check.
    fn probe(&mut self, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }
    /// Damages the reference, so every later check must fail.
    #[cfg(test)]
    fn corrupt_reference(&mut self);
}

/// The chip-level planning inputs without ATPG: HSCAN and transparency
/// versions per logic core, with a fixed full-scan vector count (what
/// `soctool report|sweep|verify` use).
pub fn light_prep(soc: &Soc, vectors: usize, layers: &mut Layers) -> Vec<Option<CoreTestData>> {
    let costs = DftCosts::default();
    soc.cores()
        .iter()
        .map(|inst| {
            if inst.is_memory() {
                return None;
            }
            let hscan = layers.time("hscan.insert_ms", || insert_hscan(inst.core(), &costs));
            let versions = layers.time("transparency.versions_ms", || {
                synthesize_versions(inst.core(), &hscan, &costs)
            });
            Some(CoreTestData {
                versions,
                hscan,
                scan_vectors: vectors,
            })
        })
        .collect()
}

/// The two paper systems, by the names the metrics use.
pub fn paper_systems() -> Vec<(&'static str, Soc)> {
    vec![
        ("system1", socet::socs::barcode_system()),
        ("system2", socet::socs::system2()),
    ]
}

#[cfg(test)]
pub mod testing {
    use super::*;

    /// Runs set-up and two iterations; the second after corrupting the
    /// reference. Returns the two check results.
    pub fn check_then_corrupt<W: Workload>(seed: u64) -> (Result<(), String>, Result<(), String>) {
        let scratch = std::env::temp_dir().join(format!(
            "socet-perfbench-test-{}-{}-{seed}",
            std::process::id(),
            W::ITEMS
        ));
        let mut w = W::setup(seed, &scratch, &mut Layers::default()).expect("set-up succeeds");
        w.reset();
        let mut layers = Layers::default();
        let first = w.run(Some(&mut layers));
        let good = w.check(&first);
        for top in W::top_layers() {
            assert!(layers.get(top).is_some(), "{top} recorded");
        }
        w.corrupt_reference();
        w.reset();
        let second = w.run(None);
        let bad = w.check(&second);
        let _ = std::fs::remove_dir_all(&scratch);
        (good, bad)
    }
}
