//! `prepare_paper`: cold core preparation of both paper systems into a
//! fresh on-disk artifact store, one warm re-run that reads it back, then
//! the chip-level exploration of both design spaces ([`Exploration`]).

use super::explore::{CaseOutput, Exploration, TOP_LAYERS as EXPLORE_LAYERS};
use super::{paper_systems, Workload};
use crate::layers::{ms, ratio, Layers};
use crate::stats::self_time;
use socet::atpg::TpgConfig;
use socet::cells::DftCosts;
use socet::flow::{prepare_soc_uncached, prepare_soc_with, PrepareOptions, PreparedSoc};
use socet::obs::{names, Recorder, SharedRecorder};
use socet::rtl::Soc;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload seed used when the run's seed is 0: `TpgConfig`'s default.
pub const DEFAULT_SEED: u64 = 0x5eed_50ce7;

pub struct PreparePaper {
    systems: Vec<(&'static str, Soc)>,
    tpg: TpgConfig,
    store: PathBuf,
    /// Per system, per instance: the uncached flow's artifact bytes.
    reference: Vec<Vec<Option<Vec<u8>>>>,
    faults: usize,
    explore: Exploration,
}

pub struct Output {
    cold: Vec<PreparedSoc>,
    warm: Vec<PreparedSoc>,
    /// Unique cores the warm runs looked up, and how many the store served.
    warm_lookups: u64,
    warm_hits: u64,
    explored: Vec<CaseOutput>,
}

fn artifact_bytes(soc: &Soc, p: &PreparedSoc) -> Vec<Option<Vec<u8>>> {
    (0..soc.cores().len())
        .map(|i| p.artifact_bytes(i))
        .collect()
}

impl Workload for PreparePaper {
    type Output = Output;
    const ITEMS: &'static str = "faults";
    fn top_layers() -> Vec<&'static str> {
        [
            ["flow.prepare_cold_ms", "flow.prepare_warm_ms"].as_slice(),
            &EXPLORE_LAYERS,
        ]
        .concat()
    }

    fn setup(seed: u64, scratch: &Path, layers: &mut Layers) -> Result<Self, String> {
        let tpg = TpgConfig {
            seed,
            ..TpgConfig::default()
        };
        let systems = paper_systems();
        let mut reference = Vec::new();
        let mut faults = 0;
        for (name, soc) in &systems {
            let p = prepare_soc_uncached(soc, &DftCosts::default(), &tpg)
                .map_err(|e| format!("{name}: {e}"))?;
            faults += p.aggregate_coverage().total;
            reference.push(artifact_bytes(soc, &p));
        }
        Ok(PreparePaper {
            systems,
            tpg,
            store: scratch.join("store"),
            reference,
            faults,
            explore: Exploration::setup(seed, layers)?,
        })
    }

    fn items(&self) -> f64 {
        self.faults as f64
    }

    fn reset(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store);
    }

    fn run(&mut self, mut layers: Option<&mut Layers>) -> Output {
        let costs = DftCosts::default();
        let base = PrepareOptions::new().workers(1).cache_dir(&self.store);
        let pass = |label: &str, layers: &mut Option<&mut Layers>| {
            let rec = layers.as_ref().map(|_| SharedRecorder::new());
            let opts = match &rec {
                Some(r) => base.clone().recorder(r.clone()),
                None => base.clone(),
            };
            let t = Instant::now();
            let mut out = Vec::new();
            let (mut lookups, mut hits) = (0, 0);
            for (name, soc) in &self.systems {
                let (p, m) = prepare_soc_with(soc, &costs, &self.tpg, &opts)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                lookups += m.disk_hits + m.disk_misses;
                hits += m.disk_hits;
                out.push(p);
            }
            let wall = ms(t);
            if let (Some(l), Some(r)) = (layers.as_deref_mut(), rec) {
                l.add(&format!("flow.prepare_{label}_ms"), wall);
                record_spans(l, &r.take(), &self.systems, wall);
            }
            (out, lookups, hits)
        };
        let (cold, _, _) = pass("cold", &mut layers);
        let (warm, warm_lookups, warm_hits) = pass("warm", &mut layers);
        if let Some(l) = layers.as_deref_mut() {
            let atpg = cold
                .iter()
                .fold(socet::atpg::Coverage::default(), |acc, p| {
                    acc.merge(&p.aggregate_coverage())
                });
            let stats = cold
                .iter()
                .fold(socet::atpg::AtpgMetrics::new(), |mut acc, p| {
                    acc.merge(&p.atpg_stats());
                    acc
                });
            l.add(
                "flow.disk_hit_ratio",
                ratio(warm_hits as f64, warm_lookups as f64),
            );
            l.add("atpg.faults", atpg.total as f64);
            l.add("atpg.redundant", atpg.untestable as f64);
            l.add("atpg.aborted", atpg.aborted as f64);
            let vectors: u64 = cold.iter().flat_map(|p| p.vectors()).sum();
            l.add("atpg.vectors", vectors as f64);
            l.add(
                "atpg.faults_dropped_random",
                stats.faults_dropped_random as f64,
            );
            l.add(
                "atpg.faults_dropped_podem",
                stats.faults_dropped_podem as f64,
            );
            l.add("atpg.cone_gate_evals", stats.cone_gate_evals as f64);
            l.add(
                "atpg.cone_eval_ratio",
                ratio(
                    stats.cone_gate_evals as f64,
                    stats.full_gate_evals_equiv as f64,
                ),
            );
        }
        Output {
            cold,
            warm,
            warm_lookups,
            warm_hits,
            explored: self.explore.run(layers),
        }
    }

    fn check(&self, out: &Output) -> Result<(), String> {
        for (k, (name, soc)) in self.systems.iter().enumerate() {
            if artifact_bytes(soc, &out.cold[k]) != self.reference[k] {
                return Err(format!(
                    "{name}: cold artifacts differ from the uncached flow"
                ));
            }
            if artifact_bytes(soc, &out.warm[k]) != self.reference[k] {
                return Err(format!(
                    "{name}: store read-back differs from the uncached flow"
                ));
            }
        }
        if out.warm_hits != out.warm_lookups || out.warm_lookups == 0 {
            return Err(format!(
                "warm run hit the store {} of {} times",
                out.warm_hits, out.warm_lookups
            ));
        }
        self.explore.check(&out.explored)
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        if let Some(bytes) = self.reference[0].iter_mut().flatten().next() {
            bytes[0] ^= 1;
        }
    }
}

/// Stage times of one pass from the pipeline's own spans. The `atpg`
/// spans arrive in unique-core order, which for both paper systems is the
/// logic cores' declaration order.
fn record_spans(l: &mut Layers, rec: &Recorder, systems: &[(&str, Soc)], wall: f64) {
    let total = |name: &str| rec.span_total(name).as_secs_f64() * 1e3;
    let stages = [
        ("hscan.insert_ms", names::HSCAN),
        ("transparency.versions_ms", names::VERSIONS),
        ("gate.elaborate_ms", names::ELABORATE),
        ("atpg.generate_ms", names::ATPG),
    ];
    let stage_ms: Vec<f64> = stages.iter().map(|(_, span)| total(span)).collect();
    for ((metric, _), v) in stages.iter().zip(&stage_ms) {
        l.add(metric, *v);
    }
    l.add("atpg.random_ms", total(names::ATPG_RANDOM));
    l.add("atpg.podem_ms", total(names::ATPG_PODEM));
    l.add("flow.store_load_ms", total(names::STORE_LOAD));
    l.add("flow.store_write_ms", total(names::STORE_WRITE));
    if rec.span_count(names::ATPG) > 0 {
        // Only cold passes run the flow; warm passes are pure store reads.
        l.add("flow.overhead_ms", self_time(wall, &stage_ms));
        let cores = systems.iter().flat_map(|(sys, soc)| {
            soc.logic_cores()
                .into_iter()
                .map(move |c| format!("{sys}.{}", soc.core(c).name().to_lowercase()))
        });
        let atpg_spans = rec.spans().iter().filter(|s| s.name == names::ATPG);
        for (core, span) in cores.zip(atpg_spans) {
            l.add(
                &format!("atpg.generate_ms.{core}"),
                span.dur.as_secs_f64() * 1e3,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testing::check_then_corrupt;
    use crate::workloads::HELD_OUT_SEED;

    #[test]
    fn recorded_seeds_pass_and_corruption_is_caught() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let (good, bad) = check_then_corrupt::<PreparePaper>(seed);
            assert_eq!(good, Ok(()), "seed {seed}");
            assert!(bad.is_err(), "seed {seed}");
        }
    }
}
