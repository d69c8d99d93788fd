//! Test-path identification and episode scheduling (paper §5.1).
//!
//! For each core under test, every input must be fed from a chip PI and
//! every output observed at a chip PO through the transparency of the
//! surrounding cores. Paths are found with a reservation-aware Dijkstra:
//! a transparency edge used during cycles `[t, t+L)` is *reserved* there,
//! and a later path that wants the same resources waits (the core clocks
//! are freezable, so data can be held). When no route exists at all, a
//! system-level test multiplexer connects the port straight to a chip pin.
//!
//! Evaluation is organized around a reusable [`Scheduler`] that runs three
//! stages per design point — **build** (construct or incrementally patch
//! the [`Ccg`]), **route** (reservation-aware path search per core under
//! test), **assemble** (overhead accounting and plan normalization) — and
//! keeps its Dijkstra scratch (distance/predecessor arrays, heap,
//! reservation table) alive across evaluations. The §5.2 improvement loop
//! and the Fig. 10 sweep evaluate thousands of adjacent points; reusing
//! the graph and the scratch is what makes them cheap. The free functions
//! [`schedule`]/[`schedule_with`] remain as one-shot wrappers.

use crate::ccg::{Ccg, CcgEdgeKind, CcgNode, Resource};
use crate::error::ScheduleError;
use crate::plan::{CoreEpisode, CoreTestData, DesignPoint, RouteHop, RouteItinerary, SystemMux};
use socet_cells::{AreaReport, CellKind, DftCosts};
use socet_obs::{names, Counter};
use socet_rtl::{CoreInstanceId, PortId, Soc};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A routed path: its arrival time and the transparency pairs it crossed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    /// Cycles from the start of the vector slot until the data is in place.
    pub arrival: u32,
    /// `(through-core, input, output)` of every transparency edge used.
    pub used_pairs: Vec<(CoreInstanceId, PortId, PortId)>,
    /// The chip pin the route starts from (justification) or ends at
    /// (observation).
    pub pin: Option<socet_rtl::ChipPinId>,
    /// Indices of the SOC nets the route crosses — the interconnect this
    /// test exercises (the coverage the test-bus architecture cannot give).
    pub crossed_nets: Vec<usize>,
    /// Transparency hops in travel order, with their launch-relative start
    /// cycles — the full itinerary the replay oracle reproduces.
    pub hops: Vec<RouteHop>,
}

/// Reusable routing workspace: Dijkstra arrays, the priority queue and the
/// reservation table. Owned by a [`Scheduler`] between evaluations so the
/// hot loop never reallocates them.
#[derive(Debug, Default)]
struct RouterScratch {
    dist: Vec<u32>,
    pred: Vec<Option<(usize, u32)>>,
    heap: BinaryHeap<Reverse<(u32, usize)>>,
    reservations: HashMap<Resource, Vec<(u32, u32)>>,
}

/// Reservation-aware router over one CCG. Reservations accumulate across
/// routes, so the order of [`Router::route_to_input`] calls matters — the
/// scheduler routes a core's inputs in declaration order, exactly like the
/// paper routes `A(7 downto 0)` before `A(11 downto 8)`.
#[derive(Debug)]
pub struct Router<'a> {
    ccg: &'a Ccg,
    scratch: RouterScratch,
    enforce: bool,
    relaxations: u64,
    attempts: u64,
}

impl<'a> Router<'a> {
    /// A router with no reservations.
    pub fn new(ccg: &'a Ccg) -> Self {
        Router::with_scratch(ccg, RouterScratch::default(), true)
    }

    /// A router that *ignores* resource conflicts — the ablation baseline
    /// showing what goes wrong without the paper's edge reservations:
    /// per-vector times come out optimistically low because concurrent
    /// transfers through shared transparency logic are impossible in
    /// hardware.
    pub fn new_unconstrained(ccg: &'a Ccg) -> Self {
        Router::with_scratch(ccg, RouterScratch::default(), false)
    }

    /// A router recycling a previous router's buffers. Reservations are
    /// cleared (each core under test starts with an idle chip); the arrays
    /// keep their capacity.
    fn with_scratch(ccg: &'a Ccg, mut scratch: RouterScratch, enforce: bool) -> Self {
        scratch.reservations.clear();
        scratch.heap.clear();
        Router {
            ccg,
            scratch,
            enforce,
            relaxations: 0,
            attempts: 0,
        }
    }

    /// Returns the workspace and the `(relaxations, attempts)` counters.
    fn dismantle(self) -> (RouterScratch, u64, u64) {
        (self.scratch, self.relaxations, self.attempts)
    }

    /// Routes test data from any chip PI to `target` (a `CoreIn` node),
    /// avoiding the transparency of `exclude` (the core under test), and
    /// reserves the resources the chosen path occupies.
    pub fn route_to_input(
        &mut self,
        target: usize,
        exclude: CoreInstanceId,
    ) -> Option<RouteResult> {
        let ccg = self.ccg;
        self.dijkstra(ccg.pi_nodes(), |n| n == target, exclude)
    }

    /// Routes a response from `source` (a `CoreOut` node) to any chip PO,
    /// with the same exclusion and reservation behaviour.
    pub fn route_from_output(
        &mut self,
        source: usize,
        exclude: CoreInstanceId,
    ) -> Option<RouteResult> {
        let ccg = self.ccg;
        self.dijkstra(&[source], |n| ccg.po_nodes().contains(&n), exclude)
    }

    fn dijkstra(
        &mut self,
        sources: &[usize],
        is_target: impl Fn(usize) -> bool,
        exclude: CoreInstanceId,
    ) -> Option<RouteResult> {
        self.attempts += 1;
        let ccg = self.ccg;
        let enforce = self.enforce;
        let scratch = &mut self.scratch;
        let n = ccg.nodes().len();
        scratch.dist.clear();
        scratch.dist.resize(n, u32::MAX);
        scratch.pred.clear();
        scratch.pred.resize(n, None);
        scratch.heap.clear();
        for &s in sources {
            scratch.dist[s] = 0;
            scratch.heap.push(Reverse((0u32, s)));
        }
        let mut best_target = None;
        let mut relaxations = 0u64;
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            if d > scratch.dist[u] {
                continue;
            }
            if is_target(u) {
                best_target = Some(u);
                break;
            }
            for &ei in ccg.edges_from(u) {
                let e = &ccg.edges()[ei];
                relaxations += 1;
                if let CcgEdgeKind::Transparency { core, .. } = e.kind {
                    if core == exclude {
                        continue;
                    }
                }
                let (start, arrival) = match e.kind {
                    CcgEdgeKind::Interconnect { .. } => (d, d),
                    CcgEdgeKind::Transparency { .. } => {
                        let dur = e.latency.max(1);
                        let start =
                            earliest_start(&scratch.reservations, enforce, &e.resources, d, dur);
                        (start, start + e.latency)
                    }
                };
                if arrival < scratch.dist[e.to] {
                    scratch.dist[e.to] = arrival;
                    scratch.pred[e.to] = Some((ei, start));
                    scratch.heap.push(Reverse((arrival, e.to)));
                }
            }
        }
        self.relaxations += relaxations;
        let target = best_target?;
        // Walk back, reserving and collecting transparency pairs.
        let mut used_pairs = Vec::new();
        let mut crossed_nets = Vec::new();
        let mut hops = Vec::new();
        let mut node = target;
        let mut terminal = target;
        while let Some((ei, start)) = scratch.pred[node] {
            let e = &ccg.edges()[ei];
            if let CcgEdgeKind::Interconnect { net } = e.kind {
                crossed_nets.push(net);
            }
            if let CcgEdgeKind::Transparency { core, path } = e.kind {
                let dur = e.latency.max(1);
                reserve(&mut scratch.reservations, &e.resources, start, dur);
                let input = match ccg.nodes()[e.from] {
                    CcgNode::CoreIn(_, p) => p,
                    other => unreachable!("transparency edge from {other}"),
                };
                let output = match ccg.nodes()[e.to] {
                    CcgNode::CoreOut(_, p) => p,
                    other => unreachable!("transparency edge into {other}"),
                };
                used_pairs.push((core, input, output));
                hops.push(RouteHop {
                    core,
                    input,
                    output,
                    path,
                    start,
                    latency: e.latency,
                });
            }
            node = e.from;
            terminal = node;
        }
        used_pairs.reverse();
        hops.reverse();
        // One endpoint of the path is the CCG node we started from or
        // reached; report whichever end is a chip pin.
        let pin = [terminal, target]
            .into_iter()
            .find_map(|n| match ccg.nodes()[n] {
                CcgNode::Pi(p) | CcgNode::Po(p) => Some(p),
                _ => None,
            });
        crossed_nets.reverse();
        Some(RouteResult {
            arrival: scratch.dist[target],
            used_pairs,
            pin,
            crossed_nets,
            hops,
        })
    }
}

/// Earliest `t' >= t` at which all `resources` are free for `[t', t'+dur)`.
fn earliest_start(
    reservations: &HashMap<Resource, Vec<(u32, u32)>>,
    enforce: bool,
    resources: &[Resource],
    mut t: u32,
    dur: u32,
) -> u32 {
    if !enforce {
        return t;
    }
    loop {
        let mut pushed = None;
        for r in resources {
            if let Some(intervals) = reservations.get(r) {
                for &(a, b) in intervals {
                    if t < b && a < t + dur {
                        let candidate = b;
                        pushed = Some(pushed.map_or(candidate, |p: u32| p.max(candidate)));
                    }
                }
            }
        }
        match pushed {
            Some(nt) => t = nt,
            None => return t,
        }
    }
}

fn reserve(
    reservations: &mut HashMap<Resource, Vec<(u32, u32)>>,
    resources: &[Resource],
    start: u32,
    dur: u32,
) {
    for r in resources {
        reservations
            .entry(*r)
            .or_default()
            .push((start, start + dur));
    }
}

/// The routed (but not yet cost-accounted) output of the route stage.
struct RoutedPlan {
    episodes: Vec<CoreEpisode>,
    system_muxes: Vec<SystemMux>,
    pair_usage: HashMap<(CoreInstanceId, PortId, PortId), u32>,
    tested_nets: HashSet<usize>,
}

/// Everything the route stage produces for one core under test. A core's
/// routes never use its own transparency edges, so the outcome depends
/// only on the *other* cores' version choices — cacheable under that key.
#[derive(Debug, Clone)]
struct CoreRouteOutcome {
    episode: CoreEpisode,
    muxes: Vec<SystemMux>,
    pair_usage: Vec<((CoreInstanceId, PortId, PortId), u32)>,
    tested_nets: Vec<usize>,
}

/// Bound on cached per-core route outcomes before the cache is reset —
/// a backstop for very large design spaces, far above any paper system.
const ROUTE_CACHE_CAP: usize = 65_536;

/// Reusable, incremental, instrumented evaluation engine for one SOC.
///
/// A `Scheduler` caches the [`Ccg`] of the last evaluated choice and the
/// router's scratch buffers. Evaluating a neighbouring choice — the common
/// case in the §5.2 loop and in a lexicographic sweep — patches only the
/// stepped cores' edge groups and reuses every allocation. All failure
/// modes are typed ([`ScheduleError`]). Each stage records its span and
/// counters into the thread's installed [`socet_obs`] sink, which
/// [`Metrics`](crate::Metrics) views.
///
/// # Examples
///
/// ```
/// # use socet_rtl::{CoreBuilder, Direction, SocBuilder};
/// # use socet_cells::DftCosts;
/// # use socet_core::{CoreTestData, Metrics, Scheduler};
/// # use socet_obs::Recorder;
/// # use std::sync::Arc;
/// # let mut b = CoreBuilder::new("buf");
/// # let i = b.port("i", Direction::In, 8).unwrap();
/// # let o = b.port("o", Direction::Out, 8).unwrap();
/// # let r = b.register("r", 8).unwrap();
/// # b.connect_port_to_reg(i, r).unwrap();
/// # b.connect_reg_to_port(r, o).unwrap();
/// # let core = Arc::new(b.build().unwrap());
/// # let mut sb = SocBuilder::new("chip");
/// # let pi = sb.input_pin("pi", 8).unwrap();
/// # let po = sb.output_pin("po", 8).unwrap();
/// # let u0 = sb.instantiate("u0", core.clone()).unwrap();
/// # sb.connect_pin_to_core(pi, u0, i).unwrap();
/// # sb.connect_core_to_pin(u0, o, po).unwrap();
/// # let soc = sb.build().unwrap();
/// # let costs = DftCosts::default();
/// # let data = CoreTestData::synthesize_soc(&soc, &costs, 10).unwrap();
/// let mut scheduler = Scheduler::new(&soc, &data, &costs);
/// let mut rec = Recorder::new();
/// let (slow, fast) = {
///     let _sink = rec.install(); // the engine records into the thread's sink
///     let slow = scheduler.evaluate(&[0])?;
///     let fast = scheduler.evaluate(&[2])?; // patches one core, reuses buffers
///     (slow, fast)
/// };
/// assert!(fast.test_application_time() <= slow.test_application_time());
/// let metrics = Metrics::from_recorder(&rec);
/// assert_eq!(metrics.evaluations, 2);
/// assert_eq!(metrics.ccg_incremental_patches, 1);
/// # Ok::<(), socet_core::ScheduleError>(())
/// ```
#[derive(Debug)]
pub struct Scheduler<'a> {
    soc: &'a Soc,
    data: &'a [Option<CoreTestData>],
    costs: DftCosts,
    enforce: bool,
    ccg: Option<Ccg>,
    choice: Vec<usize>,
    scratch: Option<RouterScratch>,
    route_cache: HashMap<(CoreInstanceId, Vec<usize>), CoreRouteOutcome>,
}

impl<'a> Scheduler<'a> {
    /// An engine over `soc` with reservations enforced (the paper's
    /// behaviour).
    pub fn new(soc: &'a Soc, data: &'a [Option<CoreTestData>], costs: &DftCosts) -> Self {
        Scheduler {
            soc,
            data,
            costs: *costs,
            enforce: true,
            ccg: None,
            choice: Vec::new(),
            scratch: None,
            route_cache: HashMap::new(),
        }
    }

    /// Switches the reservation machinery — `false` is the ablation
    /// baseline of [`schedule_with`].
    pub fn with_reservations(mut self, enforce: bool) -> Self {
        self.enforce = enforce;
        // Cached graph and routes were computed under the old setting.
        self.ccg = None;
        self.choice.clear();
        self.route_cache.clear();
        self
    }

    /// Routes and schedules one version choice: build → route → assemble.
    pub fn evaluate(&mut self, choice: &[usize]) -> Result<DesignPoint, ScheduleError> {
        let _span = socet_obs::span(names::EVALUATE);
        self.build_stage(choice)?;
        let ccg = self.ccg.take().expect("build stage just set the graph");
        let routed = self.route_stage(&ccg, choice);
        self.ccg = Some(ccg);
        let routed = routed?;
        let dp = {
            let _span = socet_obs::span(names::ASSEMBLE);
            self.assemble_stage(choice, routed)?
        };
        socet_obs::add(Counter::Evaluations, 1);
        Ok(dp)
    }

    /// Build stage: construct the CCG, or — when one is cached for a
    /// same-length choice — patch only the cores whose version changed.
    fn build_stage(&mut self, choice: &[usize]) -> Result<(), ScheduleError> {
        let result = {
            let _span = socet_obs::span(names::BUILD);
            self.build_stage_inner(choice)
        };
        match result {
            Ok(()) => {
                self.choice.clear();
                self.choice.extend_from_slice(choice);
                Ok(())
            }
            Err(e) => {
                // A failed patch may have been applied partially; drop the
                // graph so the next evaluation rebuilds from scratch.
                self.ccg = None;
                self.choice.clear();
                Err(e)
            }
        }
    }

    fn build_stage_inner(&mut self, choice: &[usize]) -> Result<(), ScheduleError> {
        if choice.len() < self.soc.cores().len() {
            return Err(ScheduleError::ChoiceLengthMismatch {
                expected: self.soc.cores().len(),
                got: choice.len(),
            });
        }
        match self.ccg.take() {
            Some(mut ccg) if self.choice.len() == choice.len() => {
                for cid in self.soc.logic_cores() {
                    let (old, new) = (self.choice[cid.index()], choice[cid.index()]);
                    if old != new {
                        let written = ccg.step_core(cid, self.data, new)?;
                        socet_obs::add(Counter::CcgIncrementalPatches, 1);
                        socet_obs::add(Counter::CcgEdgesRebuilt, written as u64);
                    }
                }
                self.ccg = Some(ccg);
            }
            _ => {
                let ccg = Ccg::try_build(self.soc, self.data, choice)?;
                socet_obs::add(Counter::CcgFullBuilds, 1);
                socet_obs::add(Counter::CcgEdgesRebuilt, ccg.edges().len() as u64);
                self.ccg = Some(ccg);
            }
        }
        Ok(())
    }

    /// Route stage: test-path identification for every core under test.
    /// Cores are tested one after another (episode order = declaration
    /// order); each episode gets a fresh reservation table because nothing
    /// else is in flight while a core is under test.
    ///
    /// A core under test never routes through its own transparency, so its
    /// outcome depends only on the other cores' choices; outcomes are
    /// cached under that key and replayed on revisit.
    fn route_stage(&mut self, ccg: &Ccg, choice: &[usize]) -> Result<RoutedPlan, ScheduleError> {
        let _span = socet_obs::span(names::ROUTE);
        let mut routed = RoutedPlan {
            episodes: Vec::new(),
            system_muxes: Vec::new(),
            pair_usage: HashMap::new(),
            tested_nets: HashSet::new(),
        };
        for cid in self.soc.logic_cores() {
            // The cache key: the full choice vector with the core's own
            // slot masked out (its value cannot affect the outcome).
            let mut key = choice.to_vec();
            key[cid.index()] = usize::MAX;
            if let Some(outcome) = self.route_cache.get(&(cid, key.clone())) {
                socet_obs::add(Counter::RouteCacheHits, 1);
                routed.merge(outcome);
                continue;
            }
            let outcome = self.route_core(ccg, cid)?;
            routed.merge(&outcome);
            if self.route_cache.len() >= ROUTE_CACHE_CAP {
                self.route_cache.clear();
            }
            self.route_cache.insert((cid, key), outcome);
        }
        Ok(routed)
    }

    /// Routes every port of one core under test.
    fn route_core(
        &mut self,
        ccg: &Ccg,
        cid: CoreInstanceId,
    ) -> Result<CoreRouteOutcome, ScheduleError> {
        let core = self.soc.core(cid).core();
        let td = self.data[cid.index()]
            .as_ref()
            .ok_or(ScheduleError::MissingCoreData { core: cid })?;
        let mut router =
            Router::with_scratch(ccg, self.scratch.take().unwrap_or_default(), self.enforce);
        let mut outcome = CoreRouteOutcome {
            episode: CoreEpisode {
                core: cid,
                per_vector_cycles: 0,
                tail_cycles: 0,
                hscan_vectors: td.hscan_vectors() as u64,
                input_arrivals: Vec::new(),
                output_arrivals: Vec::new(),
                input_routes: Vec::new(),
                output_routes: Vec::new(),
                transit_cores: Vec::new(),
                pins: Vec::new(),
            },
            muxes: Vec::new(),
            pair_usage: Vec::new(),
            tested_nets: Vec::new(),
        };

        for p in core.input_ports() {
            let node = ccg
                .find(CcgNode::CoreIn(cid, p))
                .ok_or(ScheduleError::PortNotInCcg { core: cid, port: p })?;
            match router.route_to_input(node, cid) {
                Some(route) => {
                    outcome.absorb_route(&route);
                    outcome.episode.input_arrivals.push((p, route.arrival));
                    outcome.episode.input_routes.push(RouteItinerary {
                        port: p,
                        arrival: route.arrival,
                        pin: route.pin,
                        hops: route.hops,
                    });
                }
                None => {
                    socet_obs::add(Counter::SystemMuxFallbacks, 1);
                    push_mux(
                        &mut outcome.muxes,
                        SystemMux {
                            core: cid,
                            port: p,
                            controls_input: true,
                            width: core.port(p).width(),
                        },
                    );
                    outcome.episode.input_arrivals.push((p, 0));
                    outcome.episode.input_routes.push(RouteItinerary {
                        port: p,
                        arrival: 0,
                        pin: None,
                        hops: Vec::new(),
                    });
                }
            }
        }
        for p in core.output_ports() {
            let node = ccg
                .find(CcgNode::CoreOut(cid, p))
                .ok_or(ScheduleError::PortNotInCcg { core: cid, port: p })?;
            match router.route_from_output(node, cid) {
                Some(route) => {
                    outcome.absorb_route(&route);
                    outcome.episode.output_arrivals.push((p, route.arrival));
                    outcome.episode.output_routes.push(RouteItinerary {
                        port: p,
                        arrival: route.arrival,
                        pin: route.pin,
                        hops: route.hops,
                    });
                }
                None => {
                    socet_obs::add(Counter::SystemMuxFallbacks, 1);
                    push_mux(
                        &mut outcome.muxes,
                        SystemMux {
                            core: cid,
                            port: p,
                            controls_input: false,
                            width: core.port(p).width(),
                        },
                    );
                    outcome.episode.output_arrivals.push((p, 0));
                    outcome.episode.output_routes.push(RouteItinerary {
                        port: p,
                        arrival: 0,
                        pin: None,
                        hops: Vec::new(),
                    });
                }
            }
        }

        let (scratch, relaxations, attempts) = router.dismantle();
        self.scratch = Some(scratch);
        socet_obs::add(Counter::DijkstraRelaxations, relaxations);
        socet_obs::add(Counter::RouteAttempts, attempts);

        let ep = &mut outcome.episode;
        let max_in = ep.input_arrivals.iter().map(|(_, a)| *a).max().unwrap_or(0);
        let max_out = ep
            .output_arrivals
            .iter()
            .map(|(_, a)| *a)
            .max()
            .unwrap_or(0);
        ep.per_vector_cycles = max_in.max(max_out).max(1);
        let depth = td.hscan.sequential_depth() as u32;
        // The tail must never be zero: with `per_vector == max_in`, the last
        // vector's data is still in transit at cycle `vectors × per_vector`,
        // so a zero tail (depth-1 chains observed directly at pins) would
        // end the episode's window one cycle before its final capture —
        // and back-to-back packing would let the next episode's test mode
        // corrupt that in-flight vector (found by the replay oracle).
        ep.tail_cycles = (depth.saturating_sub(1) + max_out).max(1);
        Ok(outcome)
    }

    /// Assemble stage: chip-level overhead accounting — selected
    /// transparency versions + system muxes + test controller + clock
    /// gating — and plan normalization.
    fn assemble_stage(
        &mut self,
        choice: &[usize],
        routed: RoutedPlan,
    ) -> Result<DesignPoint, ScheduleError> {
        let mut chip_overhead = AreaReport::new();
        for cid in self.soc.logic_cores() {
            let td = self.data[cid.index()]
                .as_ref()
                .ok_or(ScheduleError::MissingCoreData { core: cid })?;
            chip_overhead += td.versions[choice[cid.index()]].overhead().clone();
        }
        for m in &routed.system_muxes {
            chip_overhead.tally(
                CellKind::Mux2,
                self.costs.system_test_mux_per_bit * u64::from(m.width),
            );
        }
        chip_overhead.tally(CellKind::And2, self.costs.test_controller_cells);
        chip_overhead.tally(
            CellKind::And2,
            self.costs.clock_gate_per_core * self.soc.logic_cores().len() as u64,
        );

        let mut usage: Vec<_> = routed.pair_usage.into_iter().collect();
        usage.sort_by_key(|((c, i, o), _)| (c.index(), i.index(), o.index()));
        let mut tested: Vec<usize> = routed.tested_nets.into_iter().collect();
        tested.sort_unstable();
        Ok(DesignPoint {
            choice: choice.to_vec(),
            chip_overhead,
            episodes: routed.episodes,
            system_muxes: routed.system_muxes,
            pair_usage: usage,
            tested_nets: tested,
        })
    }
}

impl RoutedPlan {
    /// Folds one core's routed outcome into the accumulating plan.
    fn merge(&mut self, outcome: &CoreRouteOutcome) {
        self.episodes.push(outcome.episode.clone());
        self.system_muxes.extend(outcome.muxes.iter().copied());
        for (pair, count) in &outcome.pair_usage {
            *self.pair_usage.entry(*pair).or_default() += count;
        }
        self.tested_nets.extend(outcome.tested_nets.iter().copied());
    }
}

impl CoreRouteOutcome {
    /// Folds one route's pair usage, transit cores, pins and crossed nets
    /// into this core's outcome.
    fn absorb_route(&mut self, route: &RouteResult) {
        for pair in &route.used_pairs {
            match self.pair_usage.iter_mut().find(|(p, _)| p == pair) {
                Some((_, count)) => *count += 1,
                None => self.pair_usage.push((*pair, 1)),
            }
            if !self.episode.transit_cores.contains(&pair.0) {
                self.episode.transit_cores.push(pair.0);
            }
        }
        if let Some(pin) = route.pin {
            if !self.episode.pins.contains(&pin) {
                self.episode.pins.push(pin);
            }
        }
        self.tested_nets.extend(route.crossed_nets.iter().copied());
    }
}

/// Routes and schedules the complete test of `soc` under a version choice,
/// producing a [`DesignPoint`].
///
/// One-shot wrapper over [`Scheduler`].
///
/// # Panics
///
/// Panics if a logic core lacks test data or its choice index is out of
/// range. Use [`try_schedule`] for the typed-error contract.
pub fn schedule(
    soc: &Soc,
    data: &[Option<CoreTestData>],
    choice: &[usize],
    costs: &DftCosts,
) -> DesignPoint {
    try_schedule(soc, data, choice, costs).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`schedule`].
pub fn try_schedule(
    soc: &Soc,
    data: &[Option<CoreTestData>],
    choice: &[usize],
    costs: &DftCosts,
) -> Result<DesignPoint, ScheduleError> {
    Scheduler::new(soc, data, costs).evaluate(choice)
}

/// Like [`schedule`] but with the reservation machinery switchable —
/// `reservations = false` is the ablation baseline whose per-vector times
/// ignore shared-resource serialization (and are therefore unrealizable in
/// hardware).
pub fn schedule_with(
    soc: &Soc,
    data: &[Option<CoreTestData>],
    choice: &[usize],
    costs: &DftCosts,
    reservations: bool,
) -> DesignPoint {
    Scheduler::new(soc, data, costs)
        .with_reservations(reservations)
        .evaluate(choice)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn push_mux(muxes: &mut Vec<SystemMux>, m: SystemMux) {
    if !muxes
        .iter()
        .any(|x| x.core == m.core && x.port == m.port && x.controls_input == m.controls_input)
    {
        muxes.push(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn buf_core(name: &str, depth: usize) -> Arc<socet_rtl::Core> {
        let mut b = CoreBuilder::new(name);
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let regs: Vec<_> = (0..depth)
            .map(|k| b.register(&format!("r{k}"), 8).unwrap())
            .collect();
        b.connect_port_to_reg(i, regs[0]).unwrap();
        for w in regs.windows(2) {
            b.connect_reg_to_reg(w[0], w[1]).unwrap();
        }
        b.connect_reg_to_port(regs[depth - 1], o).unwrap();
        Arc::new(b.build().unwrap())
    }

    /// PI -> u0 -> u1 -> PO; u1's input is only reachable through u0.
    fn chain_soc(depth: usize) -> (Soc, Vec<Option<CoreTestData>>) {
        let core = buf_core("buf", depth);
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 10).unwrap();
        (soc, data)
    }

    #[test]
    fn embedded_core_pays_upstream_latency() {
        let (soc, data) = chain_soc(3);
        let dp = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        assert_eq!(dp.episodes.len(), 2);
        // u0's input is a PI (arrival 0 -> per-vector 1)... but u0's output
        // must travel through u1 (3-deep): per-vector = 3.
        let ep0 = &dp.episodes[0];
        assert_eq!(ep0.per_vector_cycles, 3);
        // u1's input arrives through u0 (3 cycles); outputs are POs.
        let ep1 = &dp.episodes[1];
        assert_eq!(ep1.per_vector_cycles, 3);
        assert!(dp.system_muxes.is_empty());
    }

    #[test]
    fn min_latency_versions_cut_tat() {
        let (soc, data) = chain_soc(4);
        let costs = DftCosts::default();
        let slow = schedule(&soc, &data, &[0, 0], &costs);
        let fast = schedule(&soc, &data, &[2, 2], &costs);
        assert!(
            fast.test_application_time() < slow.test_application_time(),
            "fast {} !< slow {}",
            fast.test_application_time(),
            slow.test_application_time()
        );
        // And the fast point costs more area.
        let lib = socet_cells::CellLibrary::generic_08um();
        assert!(fast.overhead_cells(&lib) > slow.overhead_cells(&lib));
    }

    #[test]
    fn unreachable_port_gets_system_mux() {
        // u0 feeds u1, but u1's output goes nowhere (no PO, no consumer):
        // observing u1 needs a system mux; u0's output is observable only
        // through u1 -> also a mux for u0's output.
        let core = buf_core("buf", 2);
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_pin_to_core(pi, u1, i).unwrap();
        sb.connect_core_to_pin(u0, o, po).unwrap();
        // u1's output dangles at chip level (allowed: the net list only
        // requires the instance to be touched).
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 5).unwrap();
        let dp = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        assert_eq!(dp.system_muxes.len(), 1);
        let m = dp.system_muxes[0];
        assert_eq!(m.core, u1);
        assert!(!m.controls_input);
    }

    #[test]
    fn unreachable_input_gets_control_mux() {
        // A core whose input is fed by nothing routable: needs an input-side
        // system mux.
        let core = buf_core("buf", 2);
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let po2 = sb.output_pin("po2", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_core_to_pin(u0, o, po).unwrap();
        // u1's input dangles; its output is pinned out.
        sb.connect_core_to_pin(u1, o, po2).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 5).unwrap();
        let dp = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        let m = dp
            .system_muxes
            .iter()
            .find(|m| m.core == u1)
            .expect("u1 needs a mux");
        assert!(m.controls_input);
        assert_eq!(m.width, 8);
    }

    #[test]
    fn per_vector_cycles_never_below_one() {
        let (soc, data) = chain_soc(1);
        let dp = schedule(&soc, &data, &[2, 2], &DftCosts::default());
        for ep in &dp.episodes {
            assert!(ep.per_vector_cycles >= 1);
        }
    }

    #[test]
    fn core_under_test_never_transits_itself() {
        let (soc, data) = chain_soc(3);
        let dp = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        for ep in &dp.episodes {
            assert!(
                !ep.transit_cores.contains(&ep.core),
                "{} routed through itself",
                ep.core
            );
        }
    }

    #[test]
    fn pair_usage_counts_transits() {
        let (soc, data) = chain_soc(2);
        let dp = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        // u1 is used to observe u0's output; u0 is used to control u1's
        // input: both cores' (i, o) pair is used exactly once.
        assert_eq!(dp.pair_usage.len(), 2);
        for (_, count) in &dp.pair_usage {
            assert_eq!(*count, 1);
        }
    }

    #[test]
    fn reservation_serializes_shared_resources() {
        // One upstream core fans out to a two-input consumer: both inputs
        // justify through the same upstream transparency path, so the
        // second waits.
        let up = buf_core("up", 1);
        let ui = up.find_port("i").unwrap();
        let uo = up.find_port("o").unwrap();
        let mut b = CoreBuilder::new("two_in");
        let a = b.port("a", Direction::In, 8).unwrap();
        let c = b.port("c", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let ra = b.register("ra", 8).unwrap();
        let rc = b.register("rc", 8).unwrap();
        b.connect_mux(socet_rtl::RtlNode::Port(a), socet_rtl::RtlNode::Reg(ra), 0)
            .unwrap();
        b.connect_port_to_reg(c, rc).unwrap();
        b.connect_reg_to_port(ra, o).unwrap();
        // rc reaches o through ra's other mux leg.
        b.connect_mux(socet_rtl::RtlNode::Reg(rc), socet_rtl::RtlNode::Reg(ra), 1)
            .unwrap();
        let two = Arc::new(b.build().unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("up", up.clone()).unwrap();
        let u1 = sb.instantiate("two", two.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, ui).unwrap();
        sb.connect_cores(u0, uo, u1, a).unwrap();
        sb.connect_cores(u0, uo, u1, c).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 5).unwrap();
        let dp = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        let ep1 = &dp.episodes[1];
        // Input a arrives after 1 cycle (through `up`); input c must wait
        // for the shared path: arrival 2.
        let arrivals: Vec<u32> = ep1.input_arrivals.iter().map(|(_, t)| *t).collect();
        assert_eq!(arrivals, vec![1, 2]);
        assert_eq!(ep1.per_vector_cycles, 2);
    }

    #[test]
    fn try_schedule_reports_missing_data_instead_of_panicking() {
        let (soc, mut data) = chain_soc(2);
        data[1] = None;
        let err = try_schedule(&soc, &data, &[0, 0], &DftCosts::default());
        assert!(matches!(
            err,
            Err(ScheduleError::MissingCoreData { core }) if core.index() == 1
        ));
    }

    #[test]
    fn try_schedule_reports_out_of_range_choice() {
        let (soc, data) = chain_soc(2);
        let err = try_schedule(&soc, &data, &[0, 9], &DftCosts::default());
        assert!(matches!(
            err,
            Err(ScheduleError::ChoiceOutOfRange {
                choice: 9,
                versions: 3,
                ..
            })
        ));
    }

    #[test]
    fn try_schedule_reports_short_choice_vector() {
        let (soc, data) = chain_soc(2);
        let err = try_schedule(&soc, &data, &[0], &DftCosts::default());
        assert!(matches!(
            err,
            Err(ScheduleError::ChoiceLengthMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn reused_scheduler_matches_one_shot_schedules() {
        let (soc, data) = chain_soc(3);
        let costs = DftCosts::default();
        let mut sched = Scheduler::new(&soc, &data, &costs);
        let mut rec = socet_obs::Recorder::new();
        // Walk a version ladder up and back down with one engine; every
        // point must be bit-identical to a fresh one-shot schedule. Only
        // the reused engine's calls record.
        for choice in [[0, 0], [1, 0], [1, 2], [0, 2], [0, 0]] {
            let reused = {
                let _sink = rec.install();
                sched.evaluate(&choice).unwrap()
            };
            let fresh = schedule(&soc, &data, &choice, &costs);
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "at {choice:?}");
        }
        let m = Metrics::from_recorder(&rec);
        assert_eq!(m.evaluations, 5);
        assert_eq!(m.ccg_full_builds, 1);
        // Four follow-up evaluations, each stepping one or two cores.
        assert!(m.ccg_incremental_patches >= 4, "{m}");
        assert!(m.route_attempts > 0);
        assert!(m.dijkstra_relaxations > 0);
    }

    #[test]
    fn scheduler_recovers_after_error() {
        let (soc, data) = chain_soc(2);
        let costs = DftCosts::default();
        let mut sched = Scheduler::new(&soc, &data, &costs);
        assert!(sched.evaluate(&[0, 0]).is_ok());
        assert!(sched.evaluate(&[0, 99]).is_err());
        // The engine must full-rebuild after a failed patch, not reuse a
        // half-patched graph.
        let dp = sched.evaluate(&[1, 1]).unwrap();
        let fresh = schedule(&soc, &data, &[1, 1], &costs);
        assert_eq!(format!("{dp:?}"), format!("{fresh:?}"));
    }
}
