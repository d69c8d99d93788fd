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
//! The arrival-aligned tester program of [`socet_core::tester`] is
//! cross-checked structurally (its `transit` must equal the itinerary
//! arrival and [`validate_program`] must pass).

use crate::shell::{InputRole, Shell};
use crate::VerifyError;
use socet_baselines::flatten_soc;
use socet_core::{
    parallelize, tester_program, validate_program, CoreEpisode, CoreTestData, DesignPoint,
    RouteHop, RouteItinerary,
};
use socet_rtl::{ChipPinId, CoreInstanceId, PortId, Soc, SocEndpoint};
use socet_transparency::RcgNode;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Deliberate mis-scheduling hook: shifts the *claimed* arrival cycle of
/// one input route by `delta` cycles, leaving the physical drive program
/// untouched. A correct oracle must catch any non-zero `delta`.
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
    /// Also verify the parallel packing (invariant c).
    pub check_parallel: bool,
    /// Mis-scheduling injection hook for oracle self-tests.
    pub skew: Option<Skew>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            seed: 0x50CE7,
            max_vectors: None,
            check_parallel: true,
            skew: None,
        }
    }
}

/// One invariant violation found during replay.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `"serial"`, `"parallel"` or `"tester"`.
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
    /// Bit-exact checks performed.
    pub checks: u64,
    /// Individual bits compared.
    pub bits_checked: u64,
    /// Bits the chip-level wiring does not transport (width-mismatched or
    /// overridden nets) — excluded from checking, reported honestly.
    pub bits_untracked: u64,
    /// Route instances whose held data was overwritten by another route of
    /// the *same* episode between reservation windows (the freeze-model
    /// gap, see DESIGN.md §8); their checks are skipped.
    pub hold_gaps: u64,
}

/// Parallel-phase accounting.
#[derive(Debug, Clone)]
pub struct ParallelSummary {
    /// Episode windows packed.
    pub windows: usize,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Serial TAT for comparison.
    pub serial_tat: u64,
    /// Checks performed during the joint replay.
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
    /// Parallel-phase accounting when enabled.
    pub parallel: Option<ParallelSummary>,
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether the plan replayed clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
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

/// Everything about one route that is vector-independent; instantiated per
/// vector by shifting relative cycles by the launch cycle.
struct RouteTemplate {
    dir: Dir,
    route_idx: usize,
    arrival: u64,
    claimed: u64,
    src: SrcStream,
    /// Destination bit → (source bit, first-latch rel cycle).
    map: Vec<Option<Entry>>,
    /// Destination bit → shell output index.
    out_idx: Vec<Option<usize>>,
    /// Single-cycle activation pulses: (rel cycle, shell input index).
    acts: Vec<(u64, usize)>,
    /// Register loads: (core idx, reg idx, rel cycle, edge idx).
    loads: Vec<(usize, usize, u64, usize)>,
    /// Output-port opens: (core idx, port idx, rel cycle, lo, hi, edge).
    opens: Vec<(usize, usize, u64, u16, u16, usize)>,
}

struct Check {
    cycle: u64,
    episode: usize,
    owner: u64,
    dir: Dir,
    route_idx: usize,
    vector: u64,
    bits: Vec<(usize, bool)>,
}

/// One replay run's drive program: activation toggle events, checks, and
/// the conflict-detection journals.
type OpenRec = (usize, usize, u64, u16, u16, usize, u64, usize);

#[derive(Default)]
struct Program {
    /// (cycle, input idx, +1/-1).
    events: Vec<(u64, usize, i32)>,
    checks: Vec<Check>,
    /// (core, reg, cycle, edge, owner, episode).
    loads: Vec<(usize, usize, u64, usize, u64, usize)>,
    /// (core, reg, start, end, owner, episode) — value held over
    /// `(start, end)` exclusive of both ends.
    holds: Vec<(usize, usize, u64, u64, u64, usize)>,
    /// (core, port, cycle, lo, hi, edge, owner, episode).
    opens: Vec<OpenRec>,
    next_owner: u64,
    horizon: u64,
}

impl Program {
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

struct EpisodeStats {
    checks: u64,
    bits_checked: u64,
    bits_untracked: u64,
}

// ---------------------------------------------------------------------------
// Template construction.

fn endpoint_matches(
    src: &SocEndpoint,
    want_pin: Option<ChipPinId>,
    want_core: Option<(CoreInstanceId, PortId)>,
) -> bool {
    match (src, want_pin, want_core) {
        (SocEndpoint::Pin { pin, .. }, Some(w), _) => *pin == w,
        (SocEndpoint::CorePort { core, port, .. }, _, Some((wc, wp))) => *core == wc && *port == wp,
        _ => false,
    }
}

/// Maps provenance entries across the chip nets into `(dst_core, dst_port)`
/// (or a PO pin when `dst_pin` is given), honouring the shell's
/// last-net-wins driver rule: a later net covering the same destination
/// bits overrides — with `None` when it comes from a different source.
fn net_image(
    soc: &Soc,
    src_pin: Option<ChipPinId>,
    src_core: Option<(CoreInstanceId, PortId)>,
    dst_pin: Option<ChipPinId>,
    dst_core: Option<(CoreInstanceId, PortId)>,
    width: u16,
    map: &[Option<Entry>],
) -> Vec<Option<Entry>> {
    let mut out: Vec<Option<Entry>> = vec![None; usize::from(width)];
    for net in soc.nets() {
        let (dr, matches_dst) = match (&net.dst, dst_pin, dst_core) {
            (SocEndpoint::Pin { pin, range }, Some(w), _) => (*range, *pin == w),
            (SocEndpoint::CorePort { core, port, range }, _, Some((wc, wp))) => {
                (*range, *core == wc && *port == wp)
            }
            _ => continue,
        };
        if !matches_dst {
            continue;
        }
        let from_ours = endpoint_matches(&net.src, src_pin, src_core);
        let sr = net.src.range();
        for bit in dr.bits() {
            if usize::from(bit) >= out.len() {
                continue;
            }
            let sbit = sr.lsb() + (bit - dr.lsb());
            out[usize::from(bit)] = if from_ours {
                map.get(usize::from(sbit)).copied().flatten()
            } else {
                None
            };
        }
    }
    out
}

/// Builds the vector-independent template of one route.
fn route_template(
    shell: &Shell,
    soc: &Soc,
    ep: &CoreEpisode,
    dir: Dir,
    route_idx: usize,
    it: &RouteItinerary,
    claimed: u64,
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

    let mut acts = Vec::new();
    let mut loads = Vec::new();
    let mut opens = Vec::new();

    // Initial provenance: identity over the source word.
    let (mut map, src): (Vec<Option<Entry>>, SrcStream) = match dir {
        Dir::Input => {
            let w = soc.pin(pin).width();
            (
                (0..w).map(|b| Some((b, None))).collect(),
                SrcStream::Pin(pin.index()),
            )
        }
        Dir::Output => {
            let w = soc.core(ep.core).core().port(it.port).width();
            (
                (0..w).map(|b| Some((b, None))).collect(),
                SrcStream::Inj(ep.core.index(), it.port.index()),
            )
        }
    };

    // Walk the itinerary: net hop, transparency hop, net hop, ...
    let mut cur_pin: Option<ChipPinId> = match dir {
        Dir::Input => Some(pin),
        Dir::Output => None,
    };
    let mut cur_core: Option<(CoreInstanceId, PortId)> = match dir {
        Dir::Input => None,
        Dir::Output => Some((ep.core, it.port)),
    };
    for hop in &it.hops {
        let in_width = soc.core(hop.core).core().port(hop.input).width();
        map = net_image(
            soc,
            cur_pin,
            cur_core,
            None,
            Some((hop.core, hop.input)),
            in_width,
            &map,
        );
        map = hop_image(
            shell, soc, hop, &samples, &map, &mut acts, &mut loads, &mut opens,
        )?;
        cur_pin = None;
        cur_core = Some((hop.core, hop.output));
    }
    let (map, out_idx) = match dir {
        Dir::Input => {
            let w = soc.core(ep.core).core().port(it.port).width();
            let map = net_image(
                soc,
                cur_pin,
                cur_core,
                None,
                Some((ep.core, it.port)),
                w,
                &map,
            );
            let idx = (0..w)
                .map(|b| shell.obs_index.get(&(ep.core, it.port, b)).copied())
                .collect();
            (map, idx)
        }
        Dir::Output => {
            let w = soc.pin(pin).width();
            let map = net_image(soc, None, cur_core, Some(pin), None, w, &map);
            let idx = (0..w)
                .map(|b| shell.po_index.get(&(pin, b)).copied())
                .collect();
            (map, idx)
        }
    };
    Ok(RouteTemplate {
        dir,
        route_idx,
        arrival,
        claimed,
        src,
        map,
        out_idx,
        acts,
        loads,
        opens,
    })
}

/// Applies one transparency hop to the provenance map and records its
/// activation schedule (register loads as single-cycle pulses, output-port
/// opens at every sample cycle the data might be read through).
#[allow(clippy::too_many_arguments)]
fn hop_image(
    shell: &Shell,
    soc: &Soc,
    hop: &RouteHop,
    samples: &[u64],
    incoming: &[Option<Entry>],
    acts: &mut Vec<(u64, usize)>,
    loads: &mut Vec<(usize, usize, u64, usize)>,
    opens: &mut Vec<(usize, usize, u64, u16, u16, usize)>,
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
        let input_idx = shell.act_index[&(hop.core, *e)];
        acts.push((*rel, input_idx));
        loads.push((ci, r.index(), *rel, *e));
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
        let input_idx = shell.act_index[&(hop.core, e)];
        for &s in samples {
            if s >= start + tf {
                acts.push((s, input_idx));
                opens.push((
                    ci,
                    hop.output.index(),
                    s,
                    edge.to_range.lsb(),
                    edge.to_range.msb(),
                    e,
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Per-episode program assembly.

#[allow(clippy::too_many_arguments)]
fn add_episode(
    prog: &mut Program,
    shell: &Shell,
    soc: &Soc,
    plan_idx: usize,
    ep: &CoreEpisode,
    offset: u64,
    opts: &VerifyOptions,
    stats: &mut EpisodeStats,
) -> Result<(), VerifyError> {
    let per = u64::from(ep.per_vector_cycles);
    let vectors = opts
        .max_vectors
        .map_or(ep.hscan_vectors, |m| ep.hscan_vectors.min(m));
    // CUT in test mode for its whole window.
    let tm = shell.tm_index[&ep.core];
    prog.window(offset, offset + ep.test_time().max(1), tm);

    let mut templates: Vec<RouteTemplate> = Vec::new();
    for (idx, it) in ep.input_routes.iter().enumerate() {
        if it.is_system_mux() {
            continue;
        }
        let mut claimed = u64::from(it.arrival);
        if let Some(sk) = opts.skew {
            if sk.episode == plan_idx && sk.route == idx {
                claimed = claimed.saturating_add_signed(sk.delta);
            }
        }
        templates.push(route_template(
            shell,
            soc,
            ep,
            Dir::Input,
            idx,
            it,
            claimed,
        )?);
    }
    for (idx, it) in ep.output_routes.iter().enumerate() {
        if it.is_system_mux() {
            continue;
        }
        templates.push(route_template(
            shell,
            soc,
            ep,
            Dir::Output,
            idx,
            it,
            u64::from(it.arrival),
        )?);
    }

    for v in 0..vectors {
        let launch = offset + v * per;
        for t in &templates {
            let owner = prog.next_owner;
            prog.next_owner += 1;
            for &(rel, input) in &t.acts {
                prog.pulse(launch + rel, input);
            }
            for &(c, r, rel, e) in &t.loads {
                prog.loads.push((c, r, launch + rel, e, owner, plan_idx));
            }
            // Held from its first load until the route's last sample.
            let mut first_load: HashMap<(usize, usize), u64> = HashMap::new();
            for &(c, r, rel, _) in &t.loads {
                let e = first_load.entry((c, r)).or_insert(u64::MAX);
                *e = (*e).min(launch + rel);
            }
            for ((c, r), s) in first_load {
                prog.holds
                    .push((c, r, s, launch + t.arrival, owner, plan_idx));
            }
            for &(c, p, rel, lo, hi, e) in &t.opens {
                prog.opens
                    .push((c, p, launch + rel, lo, hi, e, owner, plan_idx));
            }
            let mut bits = Vec::new();
            for (bit, entry) in t.map.iter().enumerate() {
                match (entry, t.out_idx[bit]) {
                    (Some((sbit, fl)), Some(out)) => {
                        let cycle = launch + fl.unwrap_or(t.arrival);
                        bits.push((out, t.src.bit(opts.seed, cycle, *sbit)));
                    }
                    _ => stats.bits_untracked += 1,
                }
            }
            stats.bits_checked += bits.len() as u64;
            stats.checks += 1;
            let check_cycle = launch + t.claimed;
            prog.horizon = prog.horizon.max(check_cycle + 1);
            prog.checks.push(Check {
                cycle: check_cycle,
                episode: plan_idx,
                owner,
                dir: t.dir,
                route_idx: t.route_idx,
                vector: v,
                bits,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Conflict analysis and simulation.

/// Owners whose transported data another route overwrote before its
/// consumption. Returns `(owner → clobbering episode)` pairs.
type LoadsByReg = HashMap<(usize, usize), Vec<(u64, usize, u64, usize)>>;
type LoadsByCycle = HashMap<(usize, usize, u64), Vec<(usize, u64, usize)>>;
type OpensByKey = HashMap<(usize, usize, u64), Vec<(u16, u16, usize, u64, usize)>>;

fn clobbered_owners(prog: &Program) -> HashMap<u64, (usize, usize, u64)> {
    let mut out: HashMap<u64, (usize, usize, u64)> = HashMap::new();
    // Register holds vs foreign loads.
    let mut loads_by_reg: LoadsByReg = HashMap::new();
    for &(c, r, cycle, e, owner, ep) in &prog.loads {
        loads_by_reg
            .entry((c, r))
            .or_default()
            .push((cycle, e, owner, ep));
    }
    for v in loads_by_reg.values_mut() {
        v.sort_unstable();
    }
    for &(c, r, start, end, owner, _ep) in &prog.holds {
        let Some(ls) = loads_by_reg.get(&(c, r)) else {
            continue;
        };
        for &(cycle, _e, lowner, lep) in ls {
            if cycle <= start {
                continue;
            }
            if cycle >= end {
                break;
            }
            if lowner != owner {
                out.entry(owner).or_insert((lep, c, cycle));
            }
        }
    }
    // Simultaneous loads of the same register through different edges: the
    // higher-index mux leg wins, the lower one is shadowed.
    let mut same_cycle: LoadsByCycle = HashMap::new();
    for &(c, r, cycle, e, owner, ep) in &prog.loads {
        same_cycle
            .entry((c, r, cycle))
            .or_default()
            .push((e, owner, ep));
    }
    for ((c, _r, cycle), group) in &same_cycle {
        if group.len() < 2 {
            continue;
        }
        let max_edge = group.iter().map(|(e, ..)| *e).max().unwrap_or(0);
        for &(e, owner, _) in group {
            if e < max_edge {
                let winner = group.iter().find(|(ge, ..)| *ge == max_edge).unwrap();
                out.entry(owner).or_insert((winner.2, *c, *cycle));
            }
        }
    }
    // Output-port opens: different edges, same port, same cycle, bit
    // overlap — the lower-index edge's reader is shadowed.
    let mut opens_by_key: OpensByKey = HashMap::new();
    for &(c, p, cycle, lo, hi, e, owner, ep) in &prog.opens {
        opens_by_key
            .entry((c, p, cycle))
            .or_default()
            .push((lo, hi, e, owner, ep));
    }
    for ((c, _p, cycle), group) in &opens_by_key {
        if group.len() < 2 {
            continue;
        }
        for (i, &(lo1, hi1, e1, o1, _)) in group.iter().enumerate() {
            for &(lo2, hi2, e2, o2, ep2) in group.iter().skip(i + 1) {
                if o1 == o2 || e1 == e2 || lo1 > hi2 || lo2 > hi1 {
                    continue;
                }
                let shadowed = if e1 < e2 { (o1, ep2) } else { (o2, ep2) };
                out.entry(shadowed.0).or_insert((shadowed.1, *c, *cycle));
            }
        }
    }
    out
}

fn owner_episode(prog: &Program, owner: u64) -> Option<usize> {
    prog.checks
        .iter()
        .find(|c| c.owner == owner)
        .map(|c| c.episode)
}

/// Runs the program on the shell, returning violations and the number of
/// checks executed (clobbered owners are skipped and counted per episode).
fn run_program(
    shell: &Shell,
    soc: &Soc,
    prog: &mut Program,
    opts: &VerifyOptions,
    phase: &'static str,
    hold_gaps: &mut [u64],
    violations: &mut Vec<Violation>,
) -> u64 {
    let clobbered = clobbered_owners(prog);
    // A clobber across episodes is a reservation conflict (invariant c);
    // within an episode it is the freeze-model gap — skip those checks.
    let mut skip: HashSet<u64> = HashSet::new();
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    let mut pairs: Vec<(u64, (usize, usize, u64))> = clobbered.into_iter().collect();
    pairs.sort_unstable();
    for (owner, (by_ep, core, cycle)) in pairs {
        let Some(own_ep) = owner_episode(prog, owner) else {
            continue;
        };
        skip.insert(owner);
        if own_ep != by_ep {
            if reported.insert((own_ep.min(by_ep), own_ep.max(by_ep))) {
                violations.push(Violation {
                    phase,
                    episode: own_ep,
                    cycle,
                    detail: format!(
                        "reservation conflict: episode {by_ep} overwrote transit data of \
                         episode {own_ep} in core {} (invariant c)",
                        soc.core(CoreInstanceId::from_index(core)).name()
                    ),
                });
            }
        } else {
            hold_gaps[own_ep] += 1;
        }
    }

    prog.events.sort_unstable();
    prog.checks.sort_by_key(|c| c.cycle);

    let sim = shell.sim();
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
            if skip.contains(&c.owner) {
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
                    phase,
                    episode: c.episode,
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

/// Replays every episode of `plan` on the gate-level shell of `soc` and
/// checks the three invariants. See the module docs.
pub fn verify_design_point(
    soc: &Soc,
    data: &[Option<CoreTestData>],
    plan: &DesignPoint,
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let shell = Shell::build(soc, data, plan)?;
    let flat = flatten_soc(soc).map_err(VerifyError::Netlist)?;
    let mut violations = Vec::new();
    let mut summaries = Vec::new();
    let mut hold_gaps = vec![0u64; plan.episodes.len()];

    // Structural cross-checks against the tester-program expansion.
    for (i, ep) in plan.episodes.iter().enumerate() {
        let program = tester_program(soc, ep);
        if let Some(msg) = validate_program(ep, &program) {
            violations.push(Violation {
                phase: "tester",
                episode: i,
                cycle: 0,
                detail: format!("tester program invalid: {msg}"),
            });
        }
        let arrivals: HashMap<PortId, u32> = ep.input_arrivals.iter().copied().collect();
        for d in program.drives.iter().take(arrivals.len()) {
            if arrivals.get(&d.target_input) != Some(&d.transit) {
                violations.push(Violation {
                    phase: "tester",
                    episode: i,
                    cycle: d.cycle,
                    detail: format!(
                        "drive transit {} disagrees with itinerary arrival for {}",
                        d.transit, d.target_input
                    ),
                });
            }
        }
        if ep.input_routes.len() != ep.input_arrivals.len()
            || ep.output_routes.len() != ep.output_arrivals.len()
        {
            violations.push(Violation {
                phase: "tester",
                episode: i,
                cycle: 0,
                detail: "itinerary list out of step with arrival list".into(),
            });
        }
        for (r, (p, a)) in ep.input_routes.iter().zip(&ep.input_arrivals) {
            if r.port != *p || r.arrival != *a {
                violations.push(Violation {
                    phase: "tester",
                    episode: i,
                    cycle: 0,
                    detail: format!("input itinerary for {p} disagrees with arrival {a}"),
                });
            }
        }
    }

    // Serial phase: every episode replayed in isolation.
    for (i, ep) in plan.episodes.iter().enumerate() {
        let mut stats = EpisodeStats {
            checks: 0,
            bits_checked: 0,
            bits_untracked: 0,
        };
        let mut prog = Program::default();
        add_episode(&mut prog, &shell, soc, i, ep, 0, opts, &mut stats)?;
        run_program(
            &shell,
            soc,
            &mut prog,
            opts,
            "serial",
            &mut hold_gaps,
            &mut violations,
        );
        let sys_mux = ep
            .input_routes
            .iter()
            .chain(&ep.output_routes)
            .filter(|r| r.is_system_mux())
            .count();
        summaries.push(EpisodeSummary {
            core: soc.core(ep.core).name().to_owned(),
            vectors_total: ep.hscan_vectors,
            vectors_replayed: opts
                .max_vectors
                .map_or(ep.hscan_vectors, |m| ep.hscan_vectors.min(m)),
            input_routes: ep.input_routes.len(),
            output_routes: ep.output_routes.len(),
            system_mux_routes: sys_mux,
            checks: stats.checks,
            bits_checked: stats.bits_checked,
            bits_untracked: stats.bits_untracked,
            hold_gaps: 0, // filled below from the shared counter
        });
    }

    // Parallel phase: the packed windows replayed jointly (invariant c).
    let parallel = if opts.check_parallel && !plan.episodes.is_empty() {
        let par = parallelize(soc, plan);
        // Explicit pairwise resource disjointness of overlapping windows.
        type WindowResources = (u64, u64, HashSet<(u8, usize)>);
        let resources: Vec<WindowResources> = par
            .windows
            .iter()
            .map(|(core, s, e)| {
                let ep = plan
                    .episodes
                    .iter()
                    .find(|ep| ep.core == *core)
                    .expect("window core has an episode");
                let mut set: HashSet<(u8, usize)> = HashSet::new();
                set.insert((0, ep.core.index()));
                for c in &ep.transit_cores {
                    set.insert((0, c.index()));
                }
                for p in &ep.pins {
                    set.insert((1, p.index()));
                }
                (*s, *e, set)
            })
            .collect();
        for (i, (s1, e1, r1)) in resources.iter().enumerate() {
            for (s2, e2, r2) in resources.iter().skip(i + 1) {
                if s1 < e2 && s2 < e1 && r1.intersection(r2).next().is_some() {
                    violations.push(Violation {
                        phase: "parallel",
                        episode: i,
                        cycle: *s1.max(s2),
                        detail: "overlapping windows share a resource (invariant c)".into(),
                    });
                }
            }
        }
        let mut prog = Program::default();
        let mut stats = EpisodeStats {
            checks: 0,
            bits_checked: 0,
            bits_untracked: 0,
        };
        for (core, start, _end) in &par.windows {
            let (i, ep) = plan
                .episodes
                .iter()
                .enumerate()
                .find(|(_, ep)| ep.core == *core)
                .expect("window core has an episode");
            add_episode(&mut prog, &shell, soc, i, ep, *start, opts, &mut stats)?;
        }
        let checks = run_program(
            &shell,
            soc,
            &mut prog,
            opts,
            "parallel",
            &mut hold_gaps,
            &mut violations,
        );
        Some(ParallelSummary {
            windows: par.windows.len(),
            makespan: par.makespan,
            serial_tat: par.serial_tat,
            checks,
        })
    } else {
        None
    };

    for (i, s) in summaries.iter_mut().enumerate() {
        s.hold_gaps = hold_gaps[i];
    }
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
