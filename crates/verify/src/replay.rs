//! Differential replay of a routed [`DesignPoint`] on the shell netlist.
//!
//! The oracle rebuilds, cycle by cycle, the physical transport every
//! episode claims: chip pins carry a fresh pseudo-random word *every*
//! cycle (so any off-by-one in the claimed timing reads a different word),
//! the core under test injects a pseudo-random response word at its
//! outputs, and each routed itinerary's RCG edges are pulsed at the exact
//! cycles the schedule reserves them for. Three invariants are asserted:
//!
//! (a) every justified vector arrives bit-exact at the CUT's input ports
//!     at the claimed arrival cycle (`obs_*` outputs);
//! (b) every response arrives bit-exact at the claimed chip output at the
//!     claimed capture cycle (`po_*` outputs);
//! (c) episodes packed concurrently by [`parallelize`] have pairwise
//!     disjoint resources and, replayed jointly, never disturb each
//!     other's transit values.
//!
//! The replay frame is departure-aligned: all of vector `v`'s routes
//! launch at slot start `v · per_vector`, and a route hop's interval
//! `[start, start+latency)` maps to absolute cycles `launch + start …`.
//! The arrival-aligned tester program of [`socet_core::tester`], which
//! reads the same itineraries, must pass [`validate_program`].
//!
//! Each episode's routes become vector-independent templates, built once
//! per [`verify_design_point`] call. The drive program, replayed once, is
//! those templates placed at each packed window's start: the test the chip
//! applies. Every placed (vector, route) pair is one *owner*, and the
//! program's load, hold and open journals name it. An owner is *clobbered*
//! when another route loads a register strictly inside its hold span, or
//! loads the same register (or opens the same output-port bits) in the
//! same cycle through a higher-index mux leg. The first clobber found
//! names the clobbering owner; the search order is fixed (holds in
//! placement order, then same-cycle load groups, then same-cycle open
//! groups, each group list in `(core, register or port, cycle)` order), so
//! a failing report names the same core and cycle on every run. A clobber
//! by another episode is an invariant-(c) violation. A clobber within the
//! owner's own episode skips its check and is a *hold gap* of that episode.

use crate::shell::{InputRole, Shell};
use crate::VerifyError;
use socet_baselines::flatten_soc;
use socet_core::{
    parallelize, tester_program, validate_program, CoreEpisode, CoreTestData, DesignPoint,
    RouteHop, RouteItinerary,
};
use socet_gate::CombSim;
use socet_rtl::{CoreInstanceId, Soc, Terminal};
use socet_transparency::RcgNode;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Deliberate mis-scheduling hook: shifts the *claimed* arrival cycle of
/// one input route by `delta` cycles, leaving the physical drive program
/// untouched. A correct oracle must catch any non-zero `delta`; a skew
/// that could inject no lie is rejected with a [`VerifyError::Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Skew {
    /// Episode index (into `plan.episodes`).
    pub episode: usize,
    /// Input-route index within the episode.
    pub route: usize,
    /// Claimed-arrival shift in cycles.
    pub delta: i64,
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Seed of every pseudo-random drive stream; the report is a pure
    /// function of `(soc, plan, options)`.
    pub seed: u64,
    /// Cap on replayed vectors per episode (`None` = replay all).
    pub max_vectors: Option<u64>,
    /// Mis-scheduling injection hook for oracle self-tests.
    pub skew: Option<Skew>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            seed: 0x50CE7,
            max_vectors: None,
            skew: None,
        }
    }
}

/// One invariant violation found during replay.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `"parallel"` (the replay) or `"tester"` (the tester-program check).
    pub phase: &'static str,
    /// Episode index into `plan.episodes`.
    pub episode: usize,
    /// Absolute replay cycle (0 for structural findings).
    pub cycle: u64,
    /// Human-readable description.
    pub detail: String,
}

/// Per-episode replay accounting.
#[derive(Debug, Clone)]
pub struct EpisodeSummary {
    /// Core-under-test instance name.
    pub core: String,
    /// Scheduled vector count.
    pub vectors_total: u64,
    /// Vectors actually replayed (capped by
    /// [`VerifyOptions::max_vectors`]).
    pub vectors_replayed: u64,
    /// Routed input itineraries.
    pub input_routes: usize,
    /// Routed output itineraries.
    pub output_routes: usize,
    /// Ports served by system-level test muxes (no physical transport to
    /// replay).
    pub system_mux_routes: usize,
    /// Bit-exact checks scheduled: one per route per replayed vector,
    /// including those skipped as hold gaps (DISPLAY on System 1 schedules
    /// 4 725 and skips 1 050).
    pub checks: u64,
    /// Tracked bits those scheduled checks cover, hold-gap checks
    /// included.
    pub bits_checked: u64,
    /// Bits the chip-level wiring does not transport (width-mismatched or
    /// overridden nets) — excluded from checking, reported honestly.
    pub bits_untracked: u64,
    /// Route instances whose held data was overwritten by another route of
    /// the *same* episode between reservation windows (the freeze-model
    /// gap, see DESIGN.md §8); their checks are skipped, but still
    /// counted in `checks` and `bits_checked`.
    pub hold_gaps: u64,
}

/// Accounting of the replay of the packed schedule.
#[derive(Debug, Clone)]
pub struct ParallelSummary {
    /// Episode windows packed.
    pub windows: usize,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Serial TAT for comparison.
    pub serial_tat: u64,
    /// Checks executed by the replay; the hold-gap checks it skips are not
    /// counted.
    pub checks: u64,
}

/// The oracle's verdict: deterministic in `(soc, plan, options)` — same
/// seed, byte-identical [`VerifyReport::render`].
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// SOC name.
    pub soc: String,
    /// The verified version choice.
    pub choice: Vec<usize>,
    /// Shell netlist size.
    pub shell_gates: usize,
    /// Shell flip-flop count.
    pub shell_ffs: usize,
    /// Functional flattening (structural cross-check) size.
    pub flat_gates: usize,
    /// Functional flattening flip-flop count.
    pub flat_ffs: usize,
    /// Per-episode accounting, in plan order.
    pub episodes: Vec<EpisodeSummary>,
    /// Replay accounting (`None` for a plan without episodes).
    pub parallel: Option<ParallelSummary>,
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether the plan replayed clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every episode's scheduled checks (hold gaps included) plus the
    /// replay's executed ones — not the number of checks executed.
    /// System 1's paper point totals 25 620: 13 335 scheduled plus 12 285
    /// executed: only 12 285 checks ran (its 1 050 hold-gap checks are
    /// skipped).
    pub fn checks(&self) -> u64 {
        self.episodes.iter().map(|e| e.checks).sum::<u64>()
            + self.parallel.as_ref().map_or(0, |p| p.checks)
    }

    /// Renders the deterministic text report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "replay oracle: {} @ choice {:?}", self.soc, self.choice);
        let _ = writeln!(
            s,
            "  shell {} gates / {} ffs; functional flattening {} gates / {} ffs",
            self.shell_gates, self.shell_ffs, self.flat_gates, self.flat_ffs
        );
        for (i, ep) in self.episodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  episode {i} ({}): {}/{} vectors, {} in + {} out routes ({} system-mux), \
                 {} checks, {} bits ({} untracked), {} hold-gaps",
                ep.core,
                ep.vectors_replayed,
                ep.vectors_total,
                ep.input_routes,
                ep.output_routes,
                ep.system_mux_routes,
                ep.checks,
                ep.bits_checked,
                ep.bits_untracked,
                ep.hold_gaps
            );
        }
        if let Some(p) = &self.parallel {
            let _ = writeln!(
                s,
                "  parallel: {} windows, makespan {} (serial {}), {} checks",
                p.windows, p.makespan, p.serial_tat, p.checks
            );
        }
        for v in self.violations.iter().take(20) {
            let _ = writeln!(
                s,
                "  VIOLATION [{}] episode {} cycle {}: {}",
                v.phase, v.episode, v.cycle, v.detail
            );
        }
        if self.violations.len() > 20 {
            let _ = writeln!(s, "  ... {} more violations", self.violations.len() - 20);
        }
        let _ = writeln!(s, "  verdict: {}", if self.ok() { "PASS" } else { "FAIL" });
        s
    }
}

// ---------------------------------------------------------------------------
// Pseudo-random drive streams.

/// The splitmix64 finalizer: a bijective 64-bit mix, shared by the drive
/// streams and the randomized harness.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn noise_bit(seed: u64, tag: u64, key: u64, cycle: u64, bit: u16) -> bool {
    mix(seed ^ mix(tag ^ mix(key ^ mix(cycle ^ u64::from(bit))))) & 1 == 1
}

fn pin_noise(seed: u64, pin: usize, cycle: u64, bit: u16) -> bool {
    noise_bit(seed, 1, pin as u64, cycle, bit)
}

fn inj_noise(seed: u64, core: usize, port: usize, cycle: u64, bit: u16) -> bool {
    noise_bit(seed, 2, ((core as u64) << 32) | port as u64, cycle, bit)
}

// ---------------------------------------------------------------------------
// Provenance entries and route templates.

/// Where a transported destination bit comes from: the source-stream bit
/// and the launch-relative cycle of its first register latch (`None` =
/// purely combinational all the way, sampled at the arrival cycle).
type Entry = (u16, Option<u64>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Input,
    Output,
}

enum SrcStream {
    Pin(usize),
    Inj(usize, usize),
}

impl SrcStream {
    fn bit(&self, seed: u64, cycle: u64, bit: u16) -> bool {
        match *self {
            SrcStream::Pin(p) => pin_noise(seed, p, cycle, bit),
            SrcStream::Inj(c, p) => inj_noise(seed, c, p, cycle, bit),
        }
    }
}

/// A register load: register `reg` of core `core` latches through RCG
/// edge `edge`, pulsed for one cycle on shell activation input `input`.
/// `cycle` is launch-relative in a template and absolute in a program
/// journal. The field order is the clobber analysis's sort order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Load {
    core: usize,
    reg: usize,
    cycle: u64,
    edge: usize,
    input: usize,
}

/// An output-port open: RCG edge `edge` drives bits `lo..=hi` of port
/// `port` of core `core`, pulsed for one cycle on `input`; `cycle` and the
/// field order as for [`Load`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Open {
    core: usize,
    port: usize,
    cycle: u64,
    edge: usize,
    lo: u16,
    hi: u16,
    input: usize,
}

/// Everything about one route that is vector-independent; placed per
/// vector by shifting relative cycles by the launch cycle.
struct RouteTemplate {
    dir: Dir,
    route_idx: usize,
    arrival: u64,
    claimed: u64,
    src: SrcStream,
    /// Tracked destination bits: (shell output index, source bit, rel
    /// cycle at which the source stream is sampled).
    bits: Vec<(usize, u16, u64)>,
    /// Destination bits the chip wiring does not transport.
    untracked: u64,
    loads: Vec<Load>,
    /// (core idx, reg idx, rel cycle of its first load): the register holds
    /// the route's data from then until the arrival cycle.
    holds: Vec<(usize, usize, u64)>,
    opens: Vec<Open>,
}

struct Check {
    cycle: u64,
    owner: u64,
    dir: Dir,
    route_idx: usize,
    vector: u64,
    bits: Vec<(usize, bool)>,
}

/// Register `reg` of core `core` holds `owner`'s data over `(start, end)`,
/// exclusive of both ends.
struct Hold {
    core: usize,
    reg: usize,
    start: u64,
    end: u64,
    owner: u64,
}

/// One replay run's drive program: activation toggle events, checks, and
/// the conflict-detection journals, whose records carry their owner (one
/// route instance).
#[derive(Default)]
struct Program {
    /// (cycle, input idx, +1/-1).
    events: Vec<(u64, usize, i32)>,
    checks: Vec<Check>,
    loads: Vec<(Load, u64)>,
    holds: Vec<Hold>,
    opens: Vec<(Open, u64)>,
    /// Owner → the episode it belongs to; owners are dense from 0.
    owner_episode: Vec<usize>,
    horizon: u64,
}

impl Program {
    /// Allocates a fresh owner (one route instance) of `episode`.
    fn new_owner(&mut self, episode: usize) -> u64 {
        self.owner_episode.push(episode);
        self.owner_episode.len() as u64 - 1
    }

    fn pulse(&mut self, cycle: u64, input: usize) {
        self.events.push((cycle, input, 1));
        self.events.push((cycle + 1, input, -1));
        self.horizon = self.horizon.max(cycle + 1);
    }

    fn window(&mut self, from: u64, to: u64, input: usize) {
        self.events.push((from, input, 1));
        self.events.push((to, input, -1));
        self.horizon = self.horizon.max(to);
    }
}

// ---------------------------------------------------------------------------
// Template construction.

/// Maps provenance entries across the chip nets from terminal `src` into
/// terminal `sink`: a sink bit keeps its entry only when
/// [`Soc::bit_driver`] names `src` as its driver; a bit driven from
/// elsewhere, or not at all, is untracked.
fn net_image(
    soc: &Soc,
    src: Terminal,
    sink: Terminal,
    width: u16,
    map: &[Option<Entry>],
) -> Vec<Option<Entry>> {
    (0..width)
        .map(|bit| match soc.bit_driver(sink, bit) {
            Some((t, sbit)) if t == src => map.get(usize::from(sbit)).copied().flatten(),
            _ => None,
        })
        .collect()
}

/// Builds the vector-independent template of one route.
fn route_template(
    shell: &Shell,
    soc: &Soc,
    ep: &CoreEpisode,
    dir: Dir,
    route_idx: usize,
    it: &RouteItinerary,
) -> Result<RouteTemplate, VerifyError> {
    let pin = it
        .pin
        .ok_or_else(|| VerifyError::Model("route_template on a system-mux route".into()))?;
    let arrival = u64::from(it.arrival);
    // Sample cycles: the first-latch moment of every register-bearing hop
    // plus the final consumption at the arrival cycle.
    let mut samples: Vec<u64> = it
        .hops
        .iter()
        .filter(|h| h.latency >= 1)
        .map(|h| u64::from(h.start))
        .collect();
    samples.push(arrival);
    samples.sort_unstable();
    samples.dedup();

    // The route runs from the chip pin to the CUT port for an input, the
    // other way round for an output.
    let pin_end = (Terminal::Pin(pin), soc.pin(pin).width());
    let port_w = soc.core(ep.core).core().port(it.port).width();
    let port_end = (Terminal::Port(ep.core, it.port), port_w);
    let ((mut cur, src_w), (sink, sink_w), src) = match dir {
        Dir::Input => (pin_end, port_end, SrcStream::Pin(pin.index())),
        Dir::Output => (
            port_end,
            pin_end,
            SrcStream::Inj(ep.core.index(), it.port.index()),
        ),
    };
    let out_idx = |b: u16| match dir {
        Dir::Input => shell.obs_index.get(&(ep.core, it.port, b)).copied(),
        Dir::Output => shell.po_index.get(&(pin, b)).copied(),
    };

    // Initial provenance: identity over the source word. Then walk the
    // itinerary: net hop, transparency hop, net hop, ...
    let mut map: Vec<Option<Entry>> = (0..src_w).map(|b| Some((b, None))).collect();
    let mut loads = Vec::new();
    let mut opens = Vec::new();
    for hop in &it.hops {
        let in_width = soc.core(hop.core).core().port(hop.input).width();
        let hop_in = Terminal::Port(hop.core, hop.input);
        map = net_image(soc, cur, hop_in, in_width, &map);
        map = hop_image(shell, soc, hop, &samples, &map, &mut loads, &mut opens)?;
        cur = Terminal::Port(hop.core, hop.output);
    }
    let map = net_image(soc, cur, sink, sink_w, &map);
    let bits: Vec<(usize, u16, u64)> = (0..sink_w)
        .zip(&map)
        .filter_map(|(b, entry)| {
            let (sbit, first_latch) = (*entry)?;
            Some((out_idx(b)?, sbit, first_latch.unwrap_or(arrival)))
        })
        .collect();
    // Each register is held from its first load until the arrival cycle.
    let mut holds: Vec<(usize, usize, u64)> =
        loads.iter().map(|l| (l.core, l.reg, l.cycle)).collect();
    holds.sort_unstable();
    holds.dedup_by_key(|&mut (c, r, _)| (c, r));
    Ok(RouteTemplate {
        dir,
        route_idx,
        arrival,
        claimed: arrival,
        src,
        untracked: (map.len() - bits.len()) as u64,
        bits,
        loads,
        holds,
        opens,
    })
}

/// Applies one transparency hop to the provenance map and records its
/// activation schedule (register loads as single-cycle pulses, output-port
/// opens at every sample cycle the data might be read through).
fn hop_image(
    shell: &Shell,
    soc: &Soc,
    hop: &RouteHop,
    samples: &[u64],
    incoming: &[Option<Entry>],
    loads: &mut Vec<Load>,
    opens: &mut Vec<Open>,
) -> Result<Vec<Option<Entry>>, VerifyError> {
    let ci = hop.core.index();
    let fab = shell
        .fabrics
        .get(&ci)
        .ok_or_else(|| VerifyError::Model(format!("no fabric for transit core {}", hop.core)))?;
    if hop.path >= fab.paths.len() {
        return Err(VerifyError::Model(format!(
            "hop path {} out of range for core {}",
            hop.path, hop.core
        )));
    }
    let core = soc.core(hop.core).core();
    let times = &fab.path_times[hop.path];
    let cone = fab.cone(hop.path, hop.output);
    let start = u64::from(hop.start);

    let width_of = |n: RcgNode| -> u16 {
        match n {
            RcgNode::In(p) | RcgNode::Out(p) => core.port(p).width(),
            RcgNode::Reg(r) => core.register(r).width(),
        }
    };
    let mut maps: HashMap<RcgNode, Vec<Option<Entry>>> = HashMap::new();
    maps.insert(RcgNode::In(hop.input), incoming.to_vec());

    // Register-writing cone edges in (latch cycle, edge index) order.
    let mut reg_edges: Vec<(u64, usize)> = Vec::new();
    let mut out_edges: Vec<usize> = Vec::new();
    for &e in &cone {
        let edge = fab.rcg.edges()[e];
        let Some(&tf) = times.get(&edge.from) else {
            continue; // unreachable-from-inputs side branch: untracked
        };
        match edge.to {
            RcgNode::Reg(_) => reg_edges.push((start + u64::from(tf), e)),
            RcgNode::Out(p) if p == hop.output => out_edges.push(e),
            _ => {}
        }
    }
    reg_edges.sort_unstable();

    for (rel, e) in &reg_edges {
        let edge = fab.rcg.edges()[*e];
        let RcgNode::Reg(r) = edge.to else { continue };
        let from_map = maps
            .get(&edge.from)
            .cloned()
            .unwrap_or_else(|| vec![None; usize::from(width_of(edge.from))]);
        let to_map = maps
            .entry(edge.to)
            .or_insert_with(|| vec![None; usize::from(width_of(edge.to))]);
        for bit in edge.to_range.bits() {
            if usize::from(bit) >= to_map.len() {
                continue;
            }
            let sbit = edge.from_range.lsb() + (bit - edge.to_range.lsb());
            let mut v = from_map.get(usize::from(sbit)).copied().flatten();
            if let Some(en) = &mut v {
                en.1 = Some(en.1.unwrap_or(*rel));
            }
            to_map[usize::from(bit)] = v;
        }
        loads.push(Load {
            core: ci,
            reg: r.index(),
            cycle: *rel,
            edge: *e,
            input: shell.act_index[&(hop.core, *e)],
        });
    }

    // Output map in edge-index order: with several edges simultaneously
    // open, the outermost (highest-index) mux leg wins — mirror that.
    let out_w = usize::from(core.port(hop.output).width());
    let mut out: Vec<Option<Entry>> = vec![None; out_w];
    for &e in &out_edges {
        let edge = fab.rcg.edges()[e];
        let tf = u64::from(*times.get(&edge.from).unwrap_or(&0));
        let from_map = maps
            .get(&edge.from)
            .cloned()
            .unwrap_or_else(|| vec![None; usize::from(width_of(edge.from))]);
        for bit in edge.to_range.bits() {
            if usize::from(bit) >= out.len() {
                continue;
            }
            let sbit = edge.from_range.lsb() + (bit - edge.to_range.lsb());
            out[usize::from(bit)] = from_map.get(usize::from(sbit)).copied().flatten();
        }
        // Open the edge at every sample cycle at which its source is ready.
        let input = shell.act_index[&(hop.core, e)];
        for &s in samples {
            if s >= start + tf {
                opens.push(Open {
                    core: ci,
                    port: hop.output.index(),
                    cycle: s,
                    edge: e,
                    lo: edge.to_range.lsb(),
                    hi: edge.to_range.msb(),
                    input,
                });
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Per-episode replays and their placement.

/// One episode's replay, built once and placed at its packed window: its
/// route templates and the number of vectors each is instantiated for.
struct EpisodeReplay<'a> {
    ep: &'a CoreEpisode,
    vectors: u64,
    templates: Vec<RouteTemplate>,
}

impl<'a> EpisodeReplay<'a> {
    /// Builds the templates of every physically routed itinerary of `ep`,
    /// inputs first.
    fn build(
        shell: &Shell,
        soc: &Soc,
        ep: &'a CoreEpisode,
        opts: &VerifyOptions,
    ) -> Result<Self, VerifyError> {
        let inputs = ep.input_routes.iter().enumerate();
        let outputs = ep.output_routes.iter().enumerate();
        let templates = inputs
            .map(|(idx, it)| (Dir::Input, idx, it))
            .chain(outputs.map(|(idx, it)| (Dir::Output, idx, it)))
            .filter(|(.., it)| !it.is_system_mux())
            .map(|(dir, idx, it)| route_template(shell, soc, ep, dir, idx, it))
            .collect::<Result<_, _>>()?;
        Ok(EpisodeReplay {
            ep,
            vectors: opts
                .max_vectors
                .map_or(ep.hscan_vectors, |m| ep.hscan_vectors.min(m)),
            templates,
        })
    }
}

/// Places `rep` (plan index `plan_idx`) into `prog` with its packed window
/// starting at `offset`: the CUT's test-mode window, then one owner per
/// vector and template with its activation pulses, journal records and
/// check.
fn place(
    prog: &mut Program,
    shell: &Shell,
    plan_idx: usize,
    rep: &EpisodeReplay,
    offset: u64,
    seed: u64,
) {
    let (ep, tm) = (rep.ep, shell.tm_index[&rep.ep.core]);
    prog.window(offset, offset + ep.test_time().max(1), tm);
    let per = u64::from(ep.per_vector_cycles);
    for v in 0..rep.vectors {
        let launch = offset + v * per;
        for t in &rep.templates {
            let owner = prog.new_owner(plan_idx);
            for mut l in t.loads.iter().copied() {
                l.cycle += launch;
                prog.pulse(l.cycle, l.input);
                prog.loads.push((l, owner));
            }
            for &(core, reg, first) in &t.holds {
                prog.holds.push(Hold {
                    core,
                    reg,
                    start: launch + first,
                    end: launch + t.arrival,
                    owner,
                });
            }
            for mut o in t.opens.iter().copied() {
                o.cycle += launch;
                prog.pulse(o.cycle, o.input);
                prog.opens.push((o, owner));
            }
            let bits = t
                .bits
                .iter()
                .map(|&(out, sbit, rel)| (out, t.src.bit(seed, launch + rel, sbit)))
                .collect();
            let cycle = launch + t.claimed;
            prog.horizon = prog.horizon.max(cycle + 1);
            prog.checks.push(Check {
                cycle,
                owner,
                dir: t.dir,
                route_idx: t.route_idx,
                vector: v,
                bits,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Conflict analysis and simulation.

/// For every owner whose transported data another route overwrote before
/// its consumption, one clobber: `(clobbering owner, core idx, cycle)`,
/// indexed by owner. A clobber by another episode is kept over one by the
/// owner's own episode, so a hold gap never hides an invariant-(c)
/// violation; otherwise the first found is kept. The search order is
/// fixed: holds in placement order against their register's loads in
/// cycle order, then same-cycle loads of a register, then same-cycle opens
/// of a port, the groups in `(core, register or port, cycle)` order. Sorts
/// the journals.
fn clobbered_owners(prog: &mut Program) -> Vec<Option<(u64, usize, u64)>> {
    let mut out = vec![None; prog.owner_episode.len()];
    let episode = &prog.owner_episode;
    let mut file = |owner: u64, clobber: (u64, usize, u64)| {
        let kept: &mut Option<(u64, usize, u64)> = &mut out[owner as usize];
        let foreign = |by: u64| episode[by as usize] != episode[owner as usize];
        if kept.is_none_or(|(by, ..)| !foreign(by) && foreign(clobber.0)) {
            *kept = Some(clobber);
        }
    };
    prog.loads.sort_unstable();
    prog.opens.sort_unstable();
    // Register holds vs foreign loads strictly inside the hold span.
    for h in &prog.holds {
        let key = (h.core, h.reg);
        let from = prog
            .loads
            .partition_point(|(l, _)| ((l.core, l.reg), l.cycle) <= (key, h.start));
        let foreign = prog.loads[from..]
            .iter()
            .take_while(|(l, _)| (l.core, l.reg) == key && l.cycle < h.end)
            .find(|&&(_, owner)| owner != h.owner);
        if let Some(&(l, by)) = foreign {
            file(h.owner, (by, l.core, l.cycle));
        }
    }
    // Simultaneous loads of the same register through different edges: the
    // higher-index mux leg wins, the lower one is shadowed.
    for group in prog
        .loads
        .chunk_by(|(a, _), (b, _)| (a.core, a.reg, a.cycle) == (b.core, b.reg, b.cycle))
    {
        let max_edge = group[group.len() - 1].0.edge;
        let won = group.partition_point(|(l, _)| l.edge < max_edge);
        let winner = group[won].1;
        for &(l, owner) in &group[..won] {
            file(owner, (winner, l.core, l.cycle));
        }
    }
    // Output-port opens: different edges, same port, same cycle, bit
    // overlap — the lower-index edge's reader is shadowed by the higher.
    for group in prog
        .opens
        .chunk_by(|(a, _), (b, _)| (a.core, a.port, a.cycle) == (b.core, b.port, b.cycle))
    {
        for (i, &(lower, shadowed)) in group.iter().enumerate() {
            for &(higher, by) in &group[i + 1..] {
                if shadowed == by
                    || lower.edge == higher.edge
                    || lower.lo > higher.hi
                    || higher.lo > lower.hi
                {
                    continue;
                }
                file(shadowed, (by, lower.core, lower.cycle));
            }
        }
    }
    out
}

/// Runs the program on the shell, appending violations, and returns the
/// number of checks executed. An owner clobbered by a route of its own
/// episode is a hold gap of that episode's summary, its check skipped; one
/// clobbered by another episode is an invariant-(c) violation.
fn run_program(
    shell: &Shell,
    soc: &Soc,
    mut prog: Program,
    opts: &VerifyOptions,
    summaries: &mut [EpisodeSummary],
    violations: &mut Vec<Violation>,
) -> u64 {
    let clobbered = clobbered_owners(&mut prog);
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    for (owner, clobber) in clobbered.iter().enumerate() {
        let Some((by, core, cycle)) = *clobber else {
            continue;
        };
        let own_ep = prog.owner_episode[owner];
        let by_ep = prog.owner_episode[by as usize];
        if own_ep == by_ep {
            summaries[own_ep].hold_gaps += 1;
        } else if reported.insert((own_ep.min(by_ep), own_ep.max(by_ep))) {
            violations.push(Violation {
                phase: "parallel",
                episode: own_ep,
                cycle,
                detail: format!(
                    "reservation conflict: episode {by_ep} overwrote transit data of \
                     episode {own_ep} in core {} (invariant c)",
                    soc.core(CoreInstanceId::from_index(core)).name()
                ),
            });
        }
    }

    prog.events.sort_unstable();
    prog.checks.sort_by_key(|c| c.cycle);

    let sim = CombSim::new(&shell.netlist);
    let mut counts: Vec<i32> = vec![0; shell.input_roles.len()];
    let mut inputs: Vec<bool> = vec![false; shell.input_roles.len()];
    let mut state: Vec<bool> = vec![false; shell.netlist.flip_flop_count()];
    let mut ev = 0usize;
    let mut ck = 0usize;
    let mut executed = 0u64;
    for t in 0..prog.horizon {
        while ev < prog.events.len() && prog.events[ev].0 == t {
            let (_, idx, d) = prog.events[ev];
            counts[idx] += d;
            ev += 1;
        }
        for (i, role) in shell.input_roles.iter().enumerate() {
            inputs[i] = match role {
                InputRole::Pin { pin, bit } => pin_noise(opts.seed, pin.index(), t, *bit),
                InputRole::Inject { core, port, bit } => {
                    inj_noise(opts.seed, core.index(), port.index(), t, *bit)
                }
                InputRole::TestMode { .. } | InputRole::Act { .. } => counts[i] > 0,
            };
        }
        let (outs, next) = sim.run_with_state(&inputs, &state);
        while ck < prog.checks.len() && prog.checks[ck].cycle == t {
            let c = &prog.checks[ck];
            ck += 1;
            if clobbered[c.owner as usize].is_some() {
                continue;
            }
            executed += 1;
            let bad: Vec<usize> = c
                .bits
                .iter()
                .enumerate()
                .filter(|(_, (out, want))| outs[*out] != *want)
                .map(|(i, _)| i)
                .collect();
            if !bad.is_empty() {
                let what = match c.dir {
                    Dir::Input => "justified vector missed CUT input (invariant a)",
                    Dir::Output => "response missed chip output (invariant b)",
                };
                violations.push(Violation {
                    phase: "parallel",
                    episode: prog.owner_episode[c.owner as usize],
                    cycle: t,
                    detail: format!(
                        "{what}: route {} vector {}: {}/{} bits differ",
                        c.route_idx,
                        c.vector,
                        bad.len(),
                        c.bits.len()
                    ),
                });
            }
        }
        state = next;
    }
    executed
}

// ---------------------------------------------------------------------------
// Entry point.

/// Rejects a skew that could inject no lie into `plan`: one naming no
/// input route, a system-mux route, a zero shift or a claim before cycle 0.
fn check_skew(plan: &DesignPoint, sk: Skew) -> Result<(), VerifyError> {
    let ep = plan.episodes.get(sk.episode);
    let why = match ep.and_then(|ep| ep.input_routes.get(sk.route)) {
        None => "names no input route of the plan",
        Some(it) if it.is_system_mux() => "names a system-mux route",
        Some(_) if sk.delta == 0 => "shifts nothing",
        Some(it) if sk.delta < -i64::from(it.arrival) => "claims a cycle before 0",
        Some(_) => return Ok(()),
    };
    Err(VerifyError::Model(format!("{sk:?} {why}")))
}

/// Replays every episode of `plan` on the gate-level shell of `soc` and
/// checks the three invariants. See the module docs.
pub fn verify_design_point(
    soc: &Soc,
    data: &[Option<CoreTestData>],
    plan: &DesignPoint,
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    opts.skew.map_or(Ok(()), |sk| check_skew(plan, sk))?;
    let shell = Shell::build(soc, data, plan)?;
    let flat = flatten_soc(soc).map_err(VerifyError::Netlist)?;
    let mut violations = Vec::new();

    // Structural check of the tester-program expansion.
    for (i, ep) in plan.episodes.iter().enumerate() {
        if let Some(msg) = validate_program(ep, &tester_program(ep)) {
            violations.push(Violation {
                phase: "tester",
                episode: i,
                cycle: 0,
                detail: format!("tester program invalid: {msg}"),
            });
        }
    }

    let mut replays = plan
        .episodes
        .iter()
        .map(|ep| EpisodeReplay::build(&shell, soc, ep, opts))
        .collect::<Result<Vec<_>, _>>()?;
    // The skew's lie: its route's claimed arrival moves, its drive does not.
    if let Some(sk) = opts.skew {
        let lied = |t: &&mut RouteTemplate| t.dir == Dir::Input && t.route_idx == sk.route;
        for t in replays[sk.episode].templates.iter_mut().filter(lied) {
            t.claimed = t.arrival.saturating_add_signed(sk.delta);
        }
    }
    // `hold_gaps` is filled in by the replay below.
    let mut summaries = Vec::new();
    for rep in &replays {
        let ep = rep.ep;
        let sys_mux = ep.routes().filter(|r| r.is_system_mux()).count();
        let per_vector = |f: fn(&RouteTemplate) -> u64| -> u64 {
            rep.vectors * rep.templates.iter().map(f).sum::<u64>()
        };
        summaries.push(EpisodeSummary {
            core: soc.core(ep.core).name().to_owned(),
            vectors_total: ep.hscan_vectors,
            vectors_replayed: rep.vectors,
            input_routes: ep.input_routes.len(),
            output_routes: ep.output_routes.len(),
            system_mux_routes: sys_mux,
            checks: per_vector(|_| 1),
            bits_checked: per_vector(|t| t.bits.len() as u64),
            bits_untracked: per_vector(|t| t.untracked),
            hold_gaps: 0,
        });
    }

    // The packed windows, replayed jointly once (invariant c).
    let parallel = if !plan.episodes.is_empty() {
        let par = parallelize(plan);
        // Explicit pairwise resource disjointness of overlapping windows.
        let resources: Vec<_> = par
            .windows
            .iter()
            .map(|&(i, ..)| plan.episodes[i].resources())
            .collect();
        for (k, &(i, s1, e1)) in par.windows.iter().enumerate() {
            for (l, &(_, s2, e2)) in par.windows.iter().enumerate().skip(k + 1) {
                let overlap = s1 < e2 && s2 < e1;
                if overlap
                    && resources[k]
                        .iter()
                        .any(|r| resources[l].binary_search(r).is_ok())
                {
                    violations.push(Violation {
                        phase: "parallel",
                        episode: i,
                        cycle: s1.max(s2),
                        detail: "overlapping windows share a resource (invariant c)".into(),
                    });
                }
            }
        }
        let mut prog = Program::default();
        for &(i, start, _end) in &par.windows {
            place(&mut prog, &shell, i, &replays[i], start, opts.seed);
        }
        let checks = run_program(&shell, soc, prog, opts, &mut summaries, &mut violations);
        Some(ParallelSummary {
            windows: par.windows.len(),
            makespan: par.makespan,
            serial_tat: par.serial_tat,
            checks,
        })
    } else {
        None
    };

    Ok(VerifyReport {
        soc: soc.name().to_owned(),
        choice: plan.choice.clone(),
        shell_gates: shell.netlist.gates().len(),
        shell_ffs: shell.netlist.flip_flop_count(),
        flat_gates: flat.gates().len(),
        flat_ffs: flat.flip_flop_count(),
        episodes: summaries,
        parallel,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program whose owner `i` belongs to episode `episodes[i]`.
    fn program(episodes: &[usize]) -> Program {
        Program {
            owner_episode: episodes.to_vec(),
            ..Program::default()
        }
    }

    fn open(core: usize, port: usize, cycle: u64, edge: usize) -> Open {
        Open {
            core,
            port,
            cycle,
            edge,
            lo: 0,
            hi: 3,
            input: edge,
        }
    }

    fn load(core: usize, reg: usize, cycle: u64, edge: usize) -> Load {
        Load {
            core,
            reg,
            cycle,
            edge,
            input: edge,
        }
    }

    #[test]
    fn cross_episode_open_clash_names_the_winning_owner() {
        // Owner 0 (episode 0) opens port 0 of core 0 through edge 5 and
        // owner 1 (episode 1) through edge 2 in the same cycle: edge 5
        // wins, so owner 1 is clobbered by owner 0, across episodes.
        let mut prog = program(&[0, 1]);
        prog.opens.push((open(0, 0, 7, 5), 0));
        prog.opens.push((open(0, 0, 7, 2), 1));
        let got = clobbered_owners(&mut prog);
        assert_eq!(got, vec![None, Some((0, 0, 7))]);
        let (by, ..) = got[1].expect("owner 1 is clobbered");
        assert_eq!(prog.owner_episode[by as usize], 0);
    }

    #[test]
    fn clobber_attribution_follows_core_port_cycle_order() {
        // Owner 0 is shadowed in two opens groups by two other episodes:
        // by owner 2 on core 2 port 0 at cycle 1, and by owner 1 on core 0
        // port 1 at cycle 4. The first group in (core, port, cycle) order
        // names the clobberer, on every call.
        for _ in 0..32 {
            let mut prog = program(&[0, 1, 2]);
            prog.opens.extend([
                (open(2, 0, 1, 0), 0),
                (open(2, 0, 1, 4), 2),
                (open(0, 1, 4, 1), 0),
                (open(0, 1, 4, 3), 1),
            ]);
            let got = clobbered_owners(&mut prog);
            assert_eq!(got, vec![Some((1, 0, 4)), None, None]);
        }
    }

    #[test]
    fn holds_see_foreign_loads_strictly_inside_their_span() {
        // Owner 0 holds register 2 of core 1 over (3, 9). Loads at the span
        // ends, its own loads and loads of other registers do not clobber
        // it; owner 2's load at cycle 6 does.
        let mut prog = program(&[0, 0, 0, 0]);
        prog.holds.push(Hold {
            core: 1,
            reg: 2,
            start: 3,
            end: 9,
            owner: 0,
        });
        prog.loads.extend([
            (load(1, 2, 9, 0), 1),
            (load(1, 2, 6, 0), 2),
            (load(1, 2, 3, 0), 1),
            (load(1, 3, 5, 0), 3),
            (load(1, 2, 5, 0), 0),
            (load(0, 2, 5, 0), 3),
        ]);
        let got = clobbered_owners(&mut prog);
        assert_eq!(got, vec![Some((2, 1, 6)), None, None, None]);
    }

    #[test]
    fn a_foreign_clobber_outranks_an_earlier_one_of_the_own_episode() {
        // Owner 0 (episode 0) holds register 0 of core 0 over (2, 9), which
        // owner 1 (also episode 0) reloads at cycle 5: a hold gap, found
        // first. Owner 2 (episode 1) also shadows owner 0 on port 1 of
        // core 3 at cycle 7: that clash crosses episodes, so it is kept.
        let mut prog = program(&[0, 0, 1]);
        prog.holds.push(Hold {
            core: 0,
            reg: 0,
            start: 2,
            end: 9,
            owner: 0,
        });
        prog.loads.push((load(0, 0, 5, 0), 1));
        prog.opens
            .extend([(open(3, 1, 7, 0), 0), (open(3, 1, 7, 4), 2)]);
        let got = clobbered_owners(&mut prog);
        assert_eq!(got, vec![Some((2, 3, 7)), None, None]);
        // A second clobber of the own episode does not replace the first.
        let mut prog = program(&[0, 0, 0]);
        prog.holds.push(Hold {
            core: 0,
            reg: 0,
            start: 2,
            end: 9,
            owner: 0,
        });
        prog.loads.push((load(0, 0, 5, 0), 1));
        prog.opens
            .extend([(open(3, 1, 7, 0), 0), (open(3, 1, 7, 4), 2)]);
        assert_eq!(
            clobbered_owners(&mut prog),
            vec![Some((1, 0, 5)), None, None]
        );
    }

    #[test]
    fn same_cycle_loads_shadow_all_but_the_highest_edge() {
        let mut prog = program(&[0, 0, 1]);
        prog.loads.extend([
            (load(0, 1, 4, 7), 2),
            (load(0, 1, 4, 2), 0),
            (load(0, 1, 4, 5), 1),
            (load(0, 1, 5, 1), 0),
        ]);
        let got = clobbered_owners(&mut prog);
        assert_eq!(got, vec![Some((2, 0, 4)), Some((2, 0, 4)), None]);
    }
}
