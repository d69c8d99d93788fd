//! Zero-dependency structured observability for the SOCET flow.
//!
//! Every SOCET crate records into **one** substrate. The `--stats` views
//! `socet_core::Metrics` and `PrepareMetrics` are derived *from* it, and
//! the ATPG engines publish their `AtpgMetrics` counters into it:
//!
//! * hierarchical **spans** — name, wall time, parent — recorded into a
//!   bounded buffer ([`SpanRec`]); per-name totals stay exact even when the
//!   buffer overflows, so aggregate views never lose time;
//! * typed **counters** ([`Counter`]) accumulated in a fixed array; every
//!   counter only adds;
//! * a thread-local sink ([`Recorder::install`]) so deep call sites —
//!   gate elaboration, HSCAN insertion, version synthesis, the ATPG
//!   driver — record through the free functions [`span`] and [`add`]
//!   without threading a recorder parameter through every signature;
//! * two exporters: a machine-readable JSON trace ([`Recorder::to_json`])
//!   and a collapsed-stack profile ([`Recorder::to_folded`]) consumable by
//!   standard flamegraph tooling.
//!
//! The disabled path is one branch: a [`Recorder::disabled`] handle is an
//! `Option::None` inside, and the free functions are a thread-local load
//! plus a branch when no recorder is installed. No time is read, nothing
//! allocates.
//!
//! # Examples
//!
//! ```
//! use socet_obs::{names, Counter, Recorder};
//!
//! let mut rec = Recorder::new();
//! let root = rec.begin(names::PREPARE);
//! {
//!     let _guard = rec.install(); // free functions now reach this recorder
//!     let _span = socet_obs::span(names::HSCAN);
//!     socet_obs::add(Counter::ScanCellsInserted, 42);
//! }
//! rec.end(root);
//! assert_eq!(rec.counter(Counter::ScanCellsInserted), 42);
//! assert_eq!(rec.span_count(names::HSCAN), 1);
//! assert!(rec.to_json().contains("\"prepare\""));
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub mod export;

/// Canonical span names. Spans are matched by name in the aggregate views
/// (`span_total`), so every producer and consumer goes through these
/// constants.
pub mod names {
    /// One whole preparation-pipeline run (`prepare_soc_with`).
    pub const PREPARE: &str = "prepare";
    /// One unique core's trip through the core-level flow.
    pub const PREPARE_CORE: &str = "prepare_core";
    /// HSCAN scan-chain insertion (`socet-hscan`).
    pub const HSCAN: &str = "hscan";
    /// Transparency version synthesis (`socet-transparency`).
    pub const VERSIONS: &str = "versions";
    /// Gate-level elaboration (`socet-gate`).
    pub const ELABORATE: &str = "elaborate";
    /// The combinational ATPG driver (`socet-atpg::generate_tests`).
    pub const ATPG: &str = "atpg";
    /// Random-pattern phase of the ATPG driver.
    pub const ATPG_RANDOM: &str = "atpg_random";
    /// PODEM top-off phase of the ATPG driver.
    pub const ATPG_PODEM: &str = "atpg_podem";
    /// Artifact-store read (including decode).
    pub const STORE_LOAD: &str = "store_load";
    /// Artifact-store write (including encode).
    pub const STORE_WRITE: &str = "store_write";
    /// One evaluation of the chip-level engine (build + route + assemble).
    pub const EVALUATE: &str = "evaluate";
    /// CCG build/patch stage of the evaluation engine.
    pub const BUILD: &str = "build";
    /// Routing stage of the evaluation engine.
    pub const ROUTE: &str = "route";
    /// Plan-assembly stage of the evaluation engine.
    pub const ASSEMBLE: &str = "assemble";
    /// One exhaustive design-space sweep (`Explorer::sweep`).
    pub const SWEEP: &str = "sweep";
    /// One §5.2 iterative-improvement run (`Explorer::optimize`).
    pub const OPTIMIZE: &str = "optimize";
    /// Memory-BIST planning of a whole chip (`socet-bist::plan_memory_bist`).
    pub const BIST: &str = "bist";
}

macro_rules! counters {
    ($($(#[$meta:meta])* $variant:ident => $name:literal;)+) => {
        /// Every typed counter any SOCET crate records.
        ///
        /// One enum for the whole workspace keeps the recorder
        /// allocation-free (a fixed array) and the exporters exhaustive;
        /// `Metrics` and `PrepareMetrics` are views over these slots, and
        /// `AtpgMetrics::publish` charges its counters into them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum Counter {
            $($(#[$meta])* $variant,)+
        }

        /// Number of defined counters (the recorder's array width).
        pub const COUNTER_COUNT: usize = [$(Counter::$variant),+].len();

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; COUNTER_COUNT] = [$(Counter::$variant),+];

            /// The stable snake_case name used by the exporters.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }

            fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

counters! {
    // Chip-level evaluation engine (socet-core).
    /// Design points evaluated (successful `Scheduler::evaluate` calls).
    Evaluations => "evaluations";
    /// CCGs built from scratch.
    CcgFullBuilds => "ccg_full_builds";
    /// Incremental per-core patches applied instead of full rebuilds.
    CcgIncrementalPatches => "ccg_incremental_patches";
    /// Edges written while building or patching CCGs.
    CcgEdgesRebuilt => "ccg_edges_rebuilt";
    /// Routing requests issued (one per core port per evaluation).
    RouteAttempts => "route_attempts";
    /// Core episodes served from the route cache.
    RouteCacheHits => "route_cache_hits";
    /// Edge relaxations performed inside Dijkstra.
    DijkstraRelaxations => "dijkstra_relaxations";
    /// Ports no route could reach, resolved with a system-level test mux.
    SystemMuxFallbacks => "system_mux_fallbacks";

    // Test generation (socet-atpg).
    /// 64-pattern blocks simulated (one good-machine evaluation each).
    BlocksSimulated => "blocks_simulated";
    /// Gates re-evaluated inside fault cones.
    ConeGateEvals => "cone_gate_evals";
    /// Full-netlist gate evaluations the naive path would have paid.
    FullGateEvalsEquiv => "full_gate_evals_equiv";
    /// Faults skipped because their cone reaches no observable point.
    FaultsSkippedUnobservable => "faults_skipped_unobservable";
    /// Faults first detected by the random-pattern phase.
    FaultsDroppedRandom => "faults_dropped_random";
    /// Faults first detected during the PODEM top-off.
    FaultsDroppedPodem => "faults_dropped_podem";
    /// PODEM-proven tests that failed resimulation (honest accounting).
    FillMaskEvents => "fill_mask_events";
    /// PODEM primary-input decisions (backtraced objectives).
    PodemDecisions => "podem_decisions";
    /// PODEM decisions flipped to their other value.
    PodemBacktracks => "podem_backtracks";
    /// PODEM implications (one per search step).
    PodemImplications => "podem_implications";
    /// Gates PODEM's implications evaluated.
    PodemGateEvals => "podem_gate_evals";
    /// PODEM runs that found a test.
    PodemTests => "podem_tests";
    /// PODEM runs that proved their fault untestable.
    PodemUntestable => "podem_untestable";
    /// PODEM runs that ran out of backtracks.
    PodemAborted => "podem_aborted";
    /// Untestable PODEM runs settled by exhaustive simulation of the fault
    /// site's fanin, without a search.
    PodemUnactivatable => "podem_unactivatable";
    /// Gates the sequential fault simulator's differential engine evaluated.
    SeqGateEvals => "seq_gate_evals";
    /// Sequential-simulation faults never seeded: no primary output is
    /// reachable from their site, even through flip-flops.
    SeqFaultsUnobservable => "seq_faults_unobservable";
    /// Sequential-simulation faults never simulated because the good
    /// machine never drives their site off its stuck value (nor to X).
    SeqFaultsInactive => "seq_faults_inactive";
    /// Sequential-simulation faults never simulated because every path
    /// from their site to an output passes a gate that a campaign-constant
    /// input holds at its controlling value.
    SeqFaultsBlocked => "seq_faults_blocked";

    // Core-preparation pipeline (socet::flow).
    /// Core instances in the SOC (memory cores excluded).
    Instances => "instances";
    /// Distinct logic cores prepared (the memo collapses repeats).
    UniqueCores => "unique_cores";
    /// Instances served by the in-process memo instead of a fresh run.
    MemoHits => "memo_hits";
    /// Unique cores loaded from the on-disk artifact store.
    DiskHits => "disk_hits";
    /// Unique cores looked up on disk and not found (or found corrupt).
    DiskMisses => "disk_misses";
    /// Artifacts written to the on-disk store.
    DiskWrites => "disk_writes";

    // Per-crate work counters.
    /// Gates produced by gate-level elaboration (socet-gate).
    GatesElaborated => "gates_elaborated";
    /// Scan cells stitched into HSCAN chains (socet-hscan).
    ScanCellsInserted => "scan_cells_inserted";
    /// Transparency versions synthesized (socet-transparency).
    VersionsSynthesized => "versions_synthesized";
}

/// One recorded span: a named interval with its parent in the span tree.
///
/// `start` is the offset from the owning recorder's epoch (its creation
/// instant), so spans merged from another recorder stay on one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The span's name (one of [`names`]).
    pub name: &'static str,
    /// Offset from the recorder epoch.
    pub start: Duration,
    /// Wall time between `begin` and `end`.
    pub dur: Duration,
    /// Index of the enclosing span in the recorder's span list.
    pub parent: Option<u32>,
}

/// Default bound on retained span events. Aggregate per-name totals stay
/// exact beyond it; only the per-event trace is truncated (and counted in
/// [`Recorder::dropped_spans`]).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Duration,
    id: Option<u32>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    counters: [u64; COUNTER_COUNT],
    /// Per-name exact aggregates: (name, total duration, completed count).
    agg: Vec<(&'static str, Duration, u64)>,
    spans: Vec<SpanRec>,
    stack: Vec<Open>,
    cap: usize,
    dropped: u64,
}

impl Inner {
    fn new(epoch: Instant, cap: usize) -> Box<Inner> {
        Box::new(Inner {
            epoch,
            counters: [0; COUNTER_COUNT],
            agg: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            cap,
            dropped: 0,
        })
    }

    fn record(&mut self, c: Counter, v: u64) {
        self.counters[c.idx()] += v;
    }

    fn begin(&mut self, name: &'static str) -> SpanToken {
        let depth = self.stack.len();
        let start = self.epoch.elapsed();
        let id = if self.spans.len() < self.cap {
            let parent = self.current_parent();
            self.spans.push(SpanRec {
                name,
                start,
                dur: Duration::ZERO,
                parent,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open { name, start, id });
        SpanToken { depth }
    }

    /// Nearest enclosing open span that survived the ring bound.
    fn current_parent(&self) -> Option<u32> {
        self.stack.iter().rev().find_map(|o| o.id)
    }

    /// Closes every span opened at or above `token`'s depth (RAII guards
    /// normally close exactly one; missed ends are healed here).
    fn end(&mut self, token: SpanToken) {
        let now = self.epoch.elapsed();
        while self.stack.len() > token.depth {
            let open = self.stack.pop().expect("stack len checked");
            let dur = now.saturating_sub(open.start);
            if let Some(id) = open.id {
                self.spans[id as usize].dur = dur;
            }
            self.bump_agg(open.name, dur);
        }
    }

    fn end_all(&mut self) {
        self.end(SpanToken { depth: 0 });
    }

    fn bump_agg(&mut self, name: &'static str, dur: Duration) {
        match self.agg.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, total, count)) => {
                *total += dur;
                *count += 1;
            }
            None => self.agg.push((name, dur, 1)),
        }
    }

    fn merge_child(&mut self, child: &mut Inner) {
        child.end_all();
        for (total, v) in self.counters.iter_mut().zip(child.counters) {
            *total += v;
        }
        for &(name, total, count) in &child.agg {
            match self.agg.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, t, c)) => {
                    *t += total;
                    *c += count;
                }
                None => self.agg.push((name, total, count)),
            }
        }
        // Spans keep child order; roots are adopted by whatever span is
        // open here. Offsets are rebased onto this recorder's epoch.
        let delta = child.epoch.saturating_duration_since(self.epoch);
        let adopt_parent = self.current_parent();
        let mut map: Vec<Option<u32>> = Vec::with_capacity(child.spans.len());
        for span in child.spans.drain(..) {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                map.push(None);
                continue;
            }
            let parent = match span.parent {
                Some(p) => map[p as usize].or(adopt_parent),
                None => adopt_parent,
            };
            self.spans.push(SpanRec {
                start: span.start + delta,
                parent,
                ..span
            });
            map.push(Some((self.spans.len() - 1) as u32));
        }
        self.dropped += child.dropped;
    }
}

/// Handle returned by [`Recorder::begin`]; closing it (with
/// [`Recorder::end`]) also closes any span left open underneath it.
#[derive(Debug)]
#[must_use = "an unclosed span records no duration"]
pub struct SpanToken {
    depth: usize,
}

/// A structured-event recorder: typed counters plus a bounded span tree.
///
/// `Recorder::default()` is the disabled handle — every operation is a
/// single branch and records nothing. A whole run recorded on its own can
/// be folded into a longer-lived recorder with
/// [`merge_child`](Recorder::merge_child).
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// An enabled recorder with the default span capacity.
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled recorder retaining at most `cap` span events (counters
    /// and per-name aggregates are never truncated).
    pub fn with_capacity(cap: usize) -> Self {
        Recorder {
            inner: Some(Inner::new(Instant::now(), cap)),
        }
    }

    /// The no-op handle: every operation is one branch.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// An empty recorder sharing this one's epoch, capacity and
    /// enabledness.
    pub fn fork(&self) -> Recorder {
        Recorder {
            inner: self.inner.as_ref().map(|i| Inner::new(i.epoch, i.cap)),
        }
    }

    /// Adds `v` to `c`.
    pub fn record(&mut self, c: Counter, v: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.record(c, v);
        }
    }

    /// Current value of `c` (0 when disabled).
    pub fn counter(&self, c: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.counters[c.idx()])
    }

    /// Opens a span. Close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        match self.inner.as_mut() {
            Some(inner) => inner.begin(name),
            None => SpanToken { depth: usize::MAX },
        }
    }

    /// Closes the span opened by `token` (and anything still open below
    /// it).
    pub fn end(&mut self, token: SpanToken) {
        if token.depth == usize::MAX {
            return;
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.end(token);
        }
    }

    /// Folds a finished run's recorder into this one (the preparation
    /// pipeline hands each run to `PrepareOptions::recorder` this way):
    /// spans the child left open are closed, counters and per-name
    /// aggregates add, and the child's span tree is appended, rebased onto
    /// this recorder's epoch, with its roots adopted by this recorder's
    /// currently open span.
    pub fn merge_child(&mut self, mut child: Recorder) {
        if let (Some(inner), Some(child_inner)) = (self.inner.as_mut(), child.inner.as_mut()) {
            inner.merge_child(child_inner);
        }
    }

    /// The retained span events, in recording order.
    pub fn spans(&self) -> &[SpanRec] {
        self.inner.as_ref().map_or(&[], |i| &i.spans)
    }

    /// Exact total wall time across every completed span named `name`
    /// (unaffected by the span-event bound).
    pub fn span_total(&self, name: &str) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |i| {
            i.agg
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(Duration::ZERO, |(_, total, _)| *total)
        })
    }

    /// Exact number of completed spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.agg
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0, |(_, _, count)| *count)
        })
    }

    /// Span events discarded by the retention bound.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.dropped)
    }

    /// Installs this recorder as the thread's sink for the free functions
    /// [`span`] and [`add`]; the returned guard restores the previous sink
    /// (and this recorder's buffers) on drop. The sink is per thread: work
    /// on another thread records nothing unless it installs a recorder of
    /// its own.
    pub fn install(&mut self) -> Installed<'_> {
        let prev = SINK.replace(self.inner.take());
        Installed { rec: self, prev }
    }

    /// The machine-readable JSON trace (see [`export`] for the schema).
    pub fn to_json(&self) -> String {
        export::to_json(self)
    }

    /// The collapsed-stack profile (`a;b;c <self-nanoseconds>` per line),
    /// consumable by standard flamegraph tooling.
    pub fn to_folded(&self) -> String {
        export::to_folded(self)
    }
}

/// A cloneable, thread-safe recorder handle — the shape option structs
/// (e.g. `PrepareOptions::recorder`) carry so a caller can hand one
/// recorder to a pipeline and read the trace back afterwards.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Arc<Mutex<Recorder>>);

impl SharedRecorder {
    /// A shared handle around an enabled recorder.
    pub fn new() -> Self {
        SharedRecorder(Arc::new(Mutex::new(Recorder::new())))
    }

    /// Locks the underlying recorder.
    pub fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.0.lock().expect("recorder lock poisoned")
    }

    /// Takes the recorder out, leaving a disabled one behind.
    pub fn take(&self) -> Recorder {
        std::mem::take(&mut *self.lock())
    }
}

impl fmt::Display for SharedRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rec = self.lock();
        write!(
            f,
            "recorder: {} spans, {} dropped",
            rec.spans().len(),
            rec.dropped_spans()
        )
    }
}

thread_local! {
    static SINK: RefCell<Option<Box<Inner>>> = const { RefCell::new(None) };
}

/// Guard of [`Recorder::install`]: moves the recorder's buffers back out
/// of the thread-local sink on drop.
#[derive(Debug)]
pub struct Installed<'a> {
    rec: &'a mut Recorder,
    prev: Option<Box<Inner>>,
}

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        self.rec.inner = SINK.replace(self.prev.take());
    }
}

/// Whether a recorder is installed on this thread.
pub fn active() -> bool {
    SINK.with_borrow(|s| s.is_some())
}

/// Records `v` into `c` on the thread's installed recorder, if any.
#[inline]
pub fn add(c: Counter, v: u64) {
    SINK.with_borrow_mut(|s| {
        if let Some(inner) = s.as_mut() {
            inner.record(c, v);
        }
    });
}

/// Opens a span on the thread's installed recorder; the returned guard
/// closes it on drop. A no-op (no time read) when nothing is installed.
pub fn span(name: &'static str) -> Span {
    Span {
        token: SINK.with_borrow_mut(|s| s.as_mut().map(|inner| inner.begin(name))),
    }
}

/// RAII guard of [`span`].
#[derive(Debug)]
pub struct Span {
    token: Option<SpanToken>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            SINK.with_borrow_mut(|s| {
                if let Some(inner) = s.as_mut() {
                    inner.end(token);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique() {
        for (i, a) in Counter::ALL.iter().enumerate() {
            for b in &Counter::ALL[i + 1..] {
                assert_ne!(a.name(), b.name(), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut rec = Recorder::new();
        let root = rec.begin("a");
        let inner = rec.begin("b");
        rec.end(inner);
        let inner2 = rec.begin("b");
        rec.end(inner2);
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(rec.span_count("b"), 2);
        assert!(rec.span_total("a") >= rec.span_total("b"));
    }

    #[test]
    fn end_heals_missed_closes() {
        let mut rec = Recorder::new();
        let root = rec.begin("a");
        let _leaked = rec.begin("b"); // never explicitly ended
        rec.end(root);
        assert_eq!(rec.span_count("a"), 1);
        assert_eq!(rec.span_count("b"), 1, "root end closes the leak");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        let t = rec.begin("a");
        rec.record(Counter::Evaluations, 5);
        rec.end(t);
        assert!(!rec.is_enabled());
        assert_eq!(rec.counter(Counter::Evaluations), 0);
        assert!(rec.spans().is_empty());
        // Fork of a disabled recorder stays disabled.
        assert!(!rec.fork().is_enabled());
    }

    #[test]
    fn merge_child_adds_counters_and_adopts_roots() {
        let mut parent = Recorder::new();
        parent.record(Counter::MemoHits, 1);
        let root = parent.begin("run");
        let mut child = parent.fork();
        child.record(Counter::MemoHits, 3);
        let t = child.begin("stage");
        child.end(t);
        parent.merge_child(child);
        parent.end(root);
        assert_eq!(parent.counter(Counter::MemoHits), 4, "counters add");
        let spans = parent.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "stage");
        assert_eq!(spans[1].parent, Some(0), "child root adopted under run");
    }

    #[test]
    fn merge_closes_childs_open_spans() {
        let mut parent = Recorder::new();
        let mut child = parent.fork();
        let _open = child.begin("stage");
        parent.merge_child(child);
        assert_eq!(parent.span_count("stage"), 1);
    }

    #[test]
    fn ring_bound_drops_events_but_keeps_aggregates() {
        let mut rec = Recorder::with_capacity(2);
        for _ in 0..5 {
            let t = rec.begin("s");
            rec.end(t);
        }
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.dropped_spans(), 3);
        assert_eq!(rec.span_count("s"), 5, "aggregate stays exact");
    }

    #[test]
    fn thread_local_sink_routes_free_functions() {
        assert!(!active());
        span("ignored"); // no sink: a pure no-op
        add(Counter::DiskHits, 1);
        let mut rec = Recorder::new();
        {
            let _g = rec.install();
            assert!(active());
            let _s = span("outer");
            add(Counter::DiskHits, 2);
        }
        assert!(!active());
        assert_eq!(rec.counter(Counter::DiskHits), 2);
        assert_eq!(rec.span_count("outer"), 1);
    }

    #[test]
    fn install_restores_previous_sink() {
        let mut outer = Recorder::new();
        {
            let _g1 = outer.install();
            add(Counter::DiskHits, 1);
            let mut inner = Recorder::new();
            {
                let _g2 = inner.install();
                add(Counter::DiskHits, 10);
            }
            add(Counter::DiskHits, 1);
            assert_eq!(inner.counter(Counter::DiskHits), 10);
        }
        assert_eq!(outer.counter(Counter::DiskHits), 2);
    }

    #[test]
    fn shared_recorder_take_leaves_disabled() {
        let shared = SharedRecorder::new();
        shared.lock().record(Counter::Instances, 3);
        let rec = shared.take();
        assert_eq!(rec.counter(Counter::Instances), 3);
        assert!(!shared.lock().is_enabled());
        assert!(shared.to_string().contains("0 spans"));
    }
}
