//! Observability for the evaluation engine.
//!
//! Design-space exploration spends its time in three places — building (or
//! patching) the CCG, reservation-aware routing, and plan assembly — and
//! the interesting efficiency questions ("how many Dijkstra relaxations per
//! point?", "how often does routing fall back to a system mux?", "how much
//! of the graph did incremental patching actually rebuild?") are invisible
//! from the outside. [`Metrics`] answers them for the evaluation engine:
//! `Explorer::metrics` returns it, and
//! `soctool report --stats` / `fig10_design_space` print it.
//! [`PrepareMetrics`] does the same for the core-preparation pipeline
//! (`soctool prepare --stats`).
//!
//! Both structs are **views** over the unified observability layer
//! (`socet_obs`, re-exported as [`crate::obs`]): every stage records typed
//! counters and spans into a [`Recorder`], and
//! [`Metrics::from_recorder`] / [`PrepareMetrics::from_recorder`] derive
//! the familiar shapes from that one event stream.

use socet_obs::{names, Counter, Recorder};
use std::fmt;
use std::time::Duration;

/// Counters and stage wall-times of one core-preparation pipeline run
/// (`socet::flow::prepare_soc_with`): how many physical instances were
/// requested, how many unique cores actually had to be prepared, and where
/// each artifact came from — computed fresh, shared through the in-process
/// memo, or loaded from the on-disk store.
///
/// Unique cores are prepared one after another on one thread, so the
/// stage times add up to at most the wall-clock `total_time`; the rest is
/// the pipeline's own overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareMetrics {
    /// Core instances in the SOC (memory cores included).
    pub instances: u64,
    /// Distinct logic cores prepared (the memo collapses repeats).
    pub unique_cores: u64,
    /// Instances served by the in-process memo instead of a fresh run.
    pub memo_hits: u64,
    /// Unique cores loaded from the on-disk artifact store.
    pub disk_hits: u64,
    /// Unique cores looked up on disk and not found (or found corrupt).
    pub disk_misses: u64,
    /// Artifacts written to the on-disk store this run.
    pub disk_writes: u64,
    /// Wall time in HSCAN insertion.
    pub hscan_time: Duration,
    /// Wall time in transparency-version synthesis.
    pub versions_time: Duration,
    /// Wall time in gate-level elaboration.
    pub elaborate_time: Duration,
    /// Wall time in combinational ATPG.
    pub atpg_time: Duration,
    /// Wall time in artifact store I/O (read + decode + encode + write).
    pub io_time: Duration,
    /// End-to-end wall time of the pipeline run.
    pub total_time: Duration,
}

impl PrepareMetrics {
    /// A zeroed instance.
    pub fn new() -> Self {
        PrepareMetrics::default()
    }

    /// The view of one recorder's preparation counters and stage spans:
    /// counts come from the typed counter slots, stage times from the
    /// exact per-name span aggregates (`io_time` is store load + store
    /// write, `total_time` the enclosing `prepare` span).
    pub fn from_recorder(rec: &Recorder) -> Self {
        PrepareMetrics {
            instances: rec.counter(Counter::Instances),
            unique_cores: rec.counter(Counter::UniqueCores),
            memo_hits: rec.counter(Counter::MemoHits),
            disk_hits: rec.counter(Counter::DiskHits),
            disk_misses: rec.counter(Counter::DiskMisses),
            disk_writes: rec.counter(Counter::DiskWrites),
            hscan_time: rec.span_total(names::HSCAN),
            versions_time: rec.span_total(names::VERSIONS),
            elaborate_time: rec.span_total(names::ELABORATE),
            atpg_time: rec.span_total(names::ATPG),
            io_time: rec.span_total(names::STORE_LOAD) + rec.span_total(names::STORE_WRITE),
            total_time: rec.span_total(names::PREPARE),
        }
    }

    /// What `self` gained since `earlier`, an older view of the same
    /// recorder: one run's share of a recorder several runs record into.
    pub fn since(&self, earlier: &PrepareMetrics) -> Self {
        PrepareMetrics {
            instances: self.instances - earlier.instances,
            unique_cores: self.unique_cores - earlier.unique_cores,
            memo_hits: self.memo_hits - earlier.memo_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_misses: self.disk_misses - earlier.disk_misses,
            disk_writes: self.disk_writes - earlier.disk_writes,
            hscan_time: self.hscan_time - earlier.hscan_time,
            versions_time: self.versions_time - earlier.versions_time,
            elaborate_time: self.elaborate_time - earlier.elaborate_time,
            atpg_time: self.atpg_time - earlier.atpg_time,
            io_time: self.io_time - earlier.io_time,
            total_time: self.total_time - earlier.total_time,
        }
    }
}

impl fmt::Display for PrepareMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "prepare pipeline stats:")?;
        writeln!(
            f,
            "  instances              : {} ({} unique cores)",
            self.instances, self.unique_cores
        )?;
        writeln!(f, "  memo hits              : {}", self.memo_hits)?;
        writeln!(
            f,
            "  artifact cache         : {} disk hits, {} disk misses, {} disk writes",
            self.disk_hits, self.disk_misses, self.disk_writes
        )?;
        writeln!(
            f,
            "  stage times            : hscan {}, versions {}, elaborate {}, atpg {}, io {}",
            fmt_time(self.hscan_time),
            fmt_time(self.versions_time),
            fmt_time(self.elaborate_time),
            fmt_time(self.atpg_time),
            fmt_time(self.io_time)
        )?;
        write!(
            f,
            "  total wall time        : {}",
            fmt_time(self.total_time)
        )
    }
}

/// Counters and stage wall-times accumulated across evaluations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Design points evaluated (successful `Scheduler::evaluate` calls).
    pub evaluations: u64,
    /// CCGs built from scratch.
    pub ccg_full_builds: u64,
    /// Incremental per-core patches applied instead of full rebuilds.
    pub ccg_incremental_patches: u64,
    /// Edges written while building or patching CCGs (a full build counts
    /// every edge; a patch counts only the stepped core's group).
    pub ccg_edges_rebuilt: u64,
    /// Routing requests issued (one per core port per evaluation).
    pub route_attempts: u64,
    /// Core episodes served from the route cache (a core's routes do not
    /// depend on its own version choice, so sweeps revisit them often).
    pub route_cache_hits: u64,
    /// Edge relaxations performed inside Dijkstra.
    pub dijkstra_relaxations: u64,
    /// Ports no route could reach, resolved with a system-level test mux.
    pub system_mux_fallbacks: u64,
    /// Wall time spent building/patching CCGs.
    pub build_time: Duration,
    /// Wall time spent routing.
    pub route_time: Duration,
    /// Wall time spent assembling design points (overhead accounting,
    /// sorting).
    pub assemble_time: Duration,
}

impl Metrics {
    /// A zeroed instance.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The view of one recorder's engine counters and stage spans.
    pub fn from_recorder(rec: &Recorder) -> Self {
        Metrics {
            evaluations: rec.counter(Counter::Evaluations),
            ccg_full_builds: rec.counter(Counter::CcgFullBuilds),
            ccg_incremental_patches: rec.counter(Counter::CcgIncrementalPatches),
            ccg_edges_rebuilt: rec.counter(Counter::CcgEdgesRebuilt),
            route_attempts: rec.counter(Counter::RouteAttempts),
            route_cache_hits: rec.counter(Counter::RouteCacheHits),
            dijkstra_relaxations: rec.counter(Counter::DijkstraRelaxations),
            system_mux_fallbacks: rec.counter(Counter::SystemMuxFallbacks),
            build_time: rec.span_total(names::BUILD),
            route_time: rec.span_total(names::ROUTE),
            assemble_time: rec.span_total(names::ASSEMBLE),
        }
    }
}

fn fmt_time(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{:.3} s", us as f64 / 1e6)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "evaluation engine stats:")?;
        writeln!(f, "  evaluations            : {}", self.evaluations)?;
        writeln!(
            f,
            "  ccg builds             : {} full, {} incremental patches",
            self.ccg_full_builds, self.ccg_incremental_patches
        )?;
        writeln!(f, "  ccg edges rebuilt      : {}", self.ccg_edges_rebuilt)?;
        writeln!(f, "  route attempts         : {}", self.route_attempts)?;
        writeln!(f, "  route cache hits       : {}", self.route_cache_hits)?;
        writeln!(
            f,
            "  dijkstra relaxations   : {}",
            self.dijkstra_relaxations
        )?;
        writeln!(
            f,
            "  system-mux fallbacks   : {}",
            self.system_mux_fallbacks
        )?;
        write!(
            f,
            "  stage times            : build {}, route {}, assemble {}",
            fmt_time(self.build_time),
            fmt_time(self.route_time),
            fmt_time(self.assemble_time)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_derive_from_one_recorder() {
        let mut rec = Recorder::new();
        rec.record(Counter::Evaluations, 3);
        rec.record(Counter::RouteAttempts, 7);
        rec.record(Counter::Instances, 4);
        rec.record(Counter::UniqueCores, 2);
        let b = rec.begin(names::BUILD);
        rec.end(b);
        let h = rec.begin(names::HSCAN);
        rec.end(h);

        let m = Metrics::from_recorder(&rec);
        assert_eq!(m.evaluations, 3);
        assert_eq!(m.route_attempts, 7);
        assert_eq!(m.build_time, rec.span_total(names::BUILD));
        let p = PrepareMetrics::from_recorder(&rec);
        assert_eq!(p.instances, 4);
        assert_eq!(p.unique_cores, 2);
        assert_eq!(p.hscan_time, rec.span_total(names::HSCAN));
    }

    #[test]
    fn display_names_every_counter() {
        let m = Metrics::new();
        let s = m.to_string();
        for needle in [
            "evaluations",
            "ccg builds",
            "relaxations",
            "system-mux",
            "stage times",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    fn prepare_metrics_render() {
        let a = PrepareMetrics {
            instances: 8,
            unique_cores: 2,
            memo_hits: 4,
            disk_hits: 2,
            ..PrepareMetrics::default()
        };
        // The CI cache-smoke step greps for "<n> disk hits" with n > 0.
        assert!(a.to_string().contains("2 disk hits"), "{a}");
    }
}
