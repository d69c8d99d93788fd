//! The metric registry and the per-iteration layer readings.
//!
//! Every name here is listed in `BENCHMARK.json`; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by an untraced run. The median and tail
/// iteration times are printed too (`#` lines) but are per-layer metrics:
/// on a shared 2-vCPU host their ten-run spread exceeded any bound the
/// comparison allows (see README.md). So is the workload's throughput,
/// which is a constant over an iteration time.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("iter_ms_min", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flow.prepare_cold_ms", "ms"),
    ("flow.prepare_warm_ms", "ms"),
    ("flow.overhead_ms", "ms"),
    ("flow.store_load_ms", "ms"),
    ("flow.store_write_ms", "ms"),
    ("flow.disk_hit_ratio", "ratio"),
    ("hscan.insert_ms", "ms"),
    ("transparency.versions_ms", "ms"),
    ("gate.elaborate_ms", "ms"),
    ("atpg.generate_ms", "ms"),
    ("atpg.generate_ms.system1.preprocessor", "ms"),
    ("atpg.generate_ms.system1.cpu", "ms"),
    ("atpg.generate_ms.system1.display", "ms"),
    ("atpg.generate_ms.system2.graphics", "ms"),
    ("atpg.generate_ms.system2.gcd", "ms"),
    ("atpg.generate_ms.system2.x25", "ms"),
    ("atpg.random_ms", "ms"),
    ("atpg.podem_ms", "ms"),
    ("atpg.faults", "count"),
    ("atpg.redundant", "count"),
    ("atpg.aborted", "count"),
    ("atpg.vectors", "count"),
    ("atpg.faults_dropped_random", "count"),
    ("atpg.faults_dropped_podem", "count"),
    ("atpg.cone_gate_evals", "count"),
    ("atpg.cone_eval_ratio", "ratio"),
    ("atpg.seqfsim_ms", "ms"),
    ("atpg.seq_faults", "count"),
    ("atpg.seq_detected", "count"),
    ("core.sweep_ms", "ms"),
    ("core.pareto_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.route_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.evaluations", "count"),
    ("core.ccg_incremental_patches", "count"),
    ("core.route_attempts", "count"),
    ("core.route_cache_hit_ratio", "ratio"),
    ("core.dijkstra_relaxations", "count"),
    ("core.front_points", "count"),
    ("baselines.flatten_ms", "ms"),
    ("verify.design_point_ms", "ms"),
    ("verify.shell_build_ms", "ms"),
    ("verify.replay_ms", "ms"),
    ("verify.checks", "count"),
    ("verify.bits_checked", "count"),
    ("verify.tracked_ratio", "ratio"),
    ("verify.hold_gaps", "count"),
    ("verify.violations", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.layer_coverage_pct", "%"),
    ("bench.iter_ms_p50", "ms"),
    ("bench.iter_ms_tail", "ms"),
    ("bench.iter_ms_tail_percentile", "%"),
];

/// One iteration's (or one set-up's) layer readings, by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Adds `v` to the reading `name` (readings start at 0).
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += v;
    }

    /// The reading `name`, if this iteration produced one.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Adds the milliseconds `f` takes to `name` and returns its result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, ms(t));
        out
    }

    /// Every reading, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` lists, in order, for one metric group.
    fn listed(json: &str, group: &str) -> Vec<String> {
        let start = json.find(&format!("\"{group}\"")).expect("group present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("group closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| s.trim().split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect();
        let e2e: Vec<String> = names(END_TO_END);
        let layer: Vec<String> = names(PER_LAYER);
        assert_eq!(listed(&json, "end_to_end"), e2e);
        assert_eq!(listed(&json, "per_layer"), layer);
    }

    #[test]
    fn readings_accumulate() {
        let mut l = Layers::default();
        l.add("a", 1.5);
        l.add("a", 2.0);
        assert_eq!(l.get("a"), Some(3.5));
        assert_eq!(l.get("b"), None);
        assert_eq!(l.time("c", || 7), 7);
        assert!(l.get("c").unwrap() >= 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
