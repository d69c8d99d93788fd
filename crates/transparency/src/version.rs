//! Core-version synthesis: the transparency latency vs area-overhead ladder
//! (paper §4, Figs. 5–8).
//!
//! Each core gets several *versions*, all sharing the same HSCAN DFT but
//! differing in how aggressively transparency latency is bought with area.
//! Versions are **cumulative** — the paper's CPU Version 2 (10 cells) keeps
//! Version 1's freeze logic (3 cells) and adds the select steering of mux
//! `M` (7 cells); Version 3 (30 cells) adds a 4-bit transparency mux
//! (20 cells) on top:
//!
//! * **Version 1** — reuse HSCAN paths wherever possible (deleted-path
//!   disjointness first, then reuse), fall back to other existing paths,
//!   add hardware only when nothing exists. Minimum area.
//! * **Version 2** — choose the *shortest* path over all existing edges,
//!   paying select-steering logic for non-HSCAN mux/bus edges.
//! * **Version 3** — additionally insert a transparency multiplexer for
//!   every *data* input/output pair whose latency is still above one cycle
//!   (control ports keep their single-bit chains, §4 last paragraph).

use crate::rcg::{EdgeId, Rcg, RcgEdgeKind, RcgNode};
use crate::search::{backward_search, forward_search, PathFound, SearchError};
use socet_cells::{AreaReport, CellKind, CellLibrary, DftCosts};
use socet_hscan::HscanResult;
use socet_rtl::{BitRange, ConnectionId, Core, Direction, PortId, SignalClass};
use std::collections::HashSet;
use std::fmt;

/// A usable transparency path of one core version: data entering at
/// `inputs` appears unchanged at `outputs` after `latency` cycles.
///
/// Several inputs / outputs mean "a combination of ports" (split nodes on
/// the way). `edges` identifies the RCG edges occupied while the transfer is
/// in flight — two paths that share an edge cannot run concurrently and are
/// serialized by the chip-level scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransparencyPath {
    /// Source input port(s).
    pub inputs: Vec<PortId>,
    /// Destination output port(s).
    pub outputs: Vec<PortId>,
    /// Transfer latency in cycles.
    pub latency: u32,
    /// RCG edges occupied by the transfer.
    pub edges: Vec<EdgeId>,
}

impl TransparencyPath {
    /// Whether two paths occupy a common RCG edge (and therefore must be
    /// used sequentially, per §3: "data through one path can be propagated
    /// only after data has been completely propagated through the other").
    pub fn shares_edges(&self, other: &TransparencyPath) -> bool {
        self.edges.iter().any(|e| other.edges.contains(e))
    }
}

/// A distinct piece of transparency hardware, deduplicated across the
/// version ladder so overheads accumulate the way the paper's do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ChargeItem {
    /// Freeze (hold) logic at one split-node branch edge: the same physical
    /// hold gate serves every search that balances through it.
    Freeze(EdgeId),
    /// Select steering to reuse a non-HSCAN mux/bus connection.
    Steered(ConnectionId),
    /// Load-enable OR gate to reuse a non-HSCAN direct connection.
    DirectLoad(ConnectionId),
    /// A dedicated transparency multiplexer of the given width.
    TransMux { anchor: PortId, width: u16 },
}

impl ChargeItem {
    fn charge(&self, costs: &DftCosts, area: &mut AreaReport) {
        match self {
            ChargeItem::Freeze { .. } => {
                area.tally(CellKind::And2, costs.freeze_gates_per_register)
            }
            ChargeItem::Steered(_) => area.tally(CellKind::And2, costs.nonhscan_select_gates),
            ChargeItem::DirectLoad(_) => area.tally(CellKind::Or2, costs.hscan_direct_or_gates),
            ChargeItem::TransMux { width, .. } => area.tally(
                CellKind::Mux2,
                costs.transparency_mux_per_bit * u64::from(*width),
            ),
        }
    }
}

/// One synthesized version of a core: its transparency paths and the area
/// they cost beyond HSCAN.
#[derive(Debug, Clone)]
pub struct CoreVersion {
    pub(crate) name: String,
    pub(crate) level: u8,
    pub(crate) paths: Vec<TransparencyPath>,
    pub(crate) overhead: AreaReport,
}

impl CoreVersion {
    /// The version's name, `"Version 1"` through `"Version 3"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ladder level (1 = min area, 3 = min latency).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The version's transparency paths.
    pub fn paths(&self) -> &[TransparencyPath] {
        &self.paths
    }

    /// The transparency area overhead (excluding the HSCAN overhead, like
    /// the paper's Fig. 6: "the area overheads are for the extra
    /// transparency logic only").
    pub fn overhead(&self) -> &AreaReport {
        &self.overhead
    }

    /// Overhead in cells under `lib`.
    pub fn overhead_cells(&self, lib: &CellLibrary) -> u64 {
        self.overhead.cells(lib)
    }

    /// The latency of moving data from `input` to `output`, if some path
    /// provides that pair. When several do, the fastest wins.
    pub fn pair_latency(&self, input: PortId, output: PortId) -> Option<u32> {
        self.paths
            .iter()
            .filter(|p| p.inputs.contains(&input) && p.outputs.contains(&output))
            .map(|p| p.latency)
            .min()
    }

    /// Every `(input, output, latency, path index)` tuple the version
    /// offers — the raw material of the chip-level core connectivity graph.
    pub fn pairs(&self) -> Vec<(PortId, PortId, u32, usize)> {
        let mut v = Vec::new();
        for (pi, p) in self.paths.iter().enumerate() {
            for &i in &p.inputs {
                for &o in &p.outputs {
                    v.push((i, o, p.latency, pi));
                }
            }
        }
        v
    }

    /// Whether every input of `core` can be propagated and every output
    /// justified — the paper's definition of a transparent core.
    pub fn is_complete(&self, core: &Core) -> bool {
        core.input_ports()
            .iter()
            .all(|i| self.paths.iter().any(|p| p.inputs.contains(i)))
            && core
                .output_ports()
                .iter()
                .all(|o| self.paths.iter().any(|p| p.outputs.contains(o)))
    }
}

impl fmt::Display for CoreVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} paths, overhead {}",
            self.name,
            self.paths.len(),
            self.overhead
        )
    }
}

/// Synthesizes the three-version ladder for `core`.
///
/// # Examples
///
/// ```
/// use socet_rtl::{CoreBuilder, Direction};
/// use socet_hscan::insert_hscan;
/// use socet_cells::DftCosts;
/// use socet_transparency::synthesize_versions;
///
/// let mut b = CoreBuilder::new("pipe");
/// let i = b.port("i", Direction::In, 8)?;
/// let o = b.port("o", Direction::Out, 8)?;
/// let r1 = b.register("r1", 8)?;
/// let r2 = b.register("r2", 8)?;
/// b.connect_port_to_reg(i, r1)?;
/// b.connect_reg_to_reg(r1, r2)?;
/// b.connect_reg_to_port(r2, o)?;
/// let core = b.build()?;
/// let hscan = insert_hscan(&core, &DftCosts::default());
/// let versions = synthesize_versions(&core, &hscan, &DftCosts::default());
/// assert_eq!(versions.len(), 3);
/// // Version 1 walks the pipeline (2 cycles); Version 3 buys latency 1.
/// assert_eq!(versions[0].pair_latency(i, o), Some(2));
/// assert_eq!(versions[2].pair_latency(i, o), Some(1));
/// # Ok::<(), socet_rtl::RtlError>(())
/// ```
pub fn synthesize_versions(core: &Core, hscan: &HscanResult, costs: &DftCosts) -> Vec<CoreVersion> {
    try_synthesize_versions(core, hscan, costs).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`synthesize_versions`]: pathological cores (no inputs or
/// no outputs) come back as a [`SearchError`] instead of aborting.
pub fn try_synthesize_versions(
    core: &Core,
    hscan: &HscanResult,
    costs: &DftCosts,
) -> Result<Vec<CoreVersion>, SearchError> {
    let _span = socet_obs::span(socet_obs::names::VERSIONS);
    let mut versions = Vec::with_capacity(3);
    let mut cumulative: HashSet<ChargeItem> = HashSet::new();
    for level in 1..=3u8 {
        let (_, paths, items) = synthesize_level(core, hscan, level)?;
        cumulative.extend(items);
        let mut overhead = AreaReport::new();
        for item in &cumulative {
            item.charge(costs, &mut overhead);
        }
        versions.push(CoreVersion {
            name: format!("Version {level}"),
            level,
            paths,
            overhead,
        });
    }
    socet_obs::add(
        socet_obs::Counter::VersionsSynthesized,
        versions.len() as u64,
    );
    Ok(versions)
}

/// Solves one ladder level: propagation for every input first, then
/// justification for every output (the §4 order), collecting the hardware
/// items the solution needs. Also returns the (possibly mux-augmented) RCG
/// the solution's edge ids index into.
fn synthesize_level(
    core: &Core,
    hscan: &HscanResult,
    level: u8,
) -> Result<(Rcg, Vec<TransparencyPath>, HashSet<ChargeItem>), SearchError> {
    let mut rcg = Rcg::extract(core, hscan);
    let mut paths: Vec<TransparencyPath> = Vec::new();
    let mut used: HashSet<EdgeId> = HashSet::new();
    let mut items: HashSet<ChargeItem> = HashSet::new();

    for anchor in core.input_ports().into_iter().chain(core.output_ports()) {
        if let Some(found) = solve_port(core, &mut rcg, anchor, level, &used, &mut items)? {
            let dir = core.port(anchor).direction();
            record(&rcg, &found, dir, anchor, &mut used, &mut items, &mut paths);
        }
    }
    Ok((rcg, paths, items))
}

/// Re-derives one ladder level's register-connectivity graph together with
/// the paths solved on it.
///
/// The [`TransparencyPath`] edge ids stored in a [`CoreVersion`] index into
/// the *per-level* RCG that [`synthesize_versions`] built and mutated
/// (transparency muxes are inserted during the search) and then dropped.
/// Structural consumers — notably the gate-level replay oracle, which must
/// rebuild the exact register/mux fabric a version's paths travel — call
/// this to get the graph those ids resolve against. The returned paths are
/// identical to `versions[level - 1].paths` for the same inputs, because
/// the whole synthesis is deterministic.
///
/// # Errors
///
/// Same contract as [`try_synthesize_versions`].
pub fn level_support(
    core: &Core,
    hscan: &HscanResult,
    level: u8,
) -> Result<(Rcg, Vec<TransparencyPath>), SearchError> {
    let (rcg, paths, _) = synthesize_level(core, hscan, level)?;
    Ok((rcg, paths))
}

/// Files one solved search: its edges become used, the hardware it needs
/// is charged, and its port-to-port transfer joins the level's paths. The
/// search ran forward from an input anchor or backward from an output one,
/// so `dir` says which side of the path the anchor is on.
fn record(
    rcg: &Rcg,
    found: &PathFound,
    dir: Direction,
    anchor: PortId,
    used: &mut HashSet<EdgeId>,
    items: &mut HashSet<ChargeItem>,
    paths: &mut Vec<TransparencyPath>,
) {
    used.extend(found.edges.iter().copied());
    for e in &found.freeze_edges {
        items.insert(ChargeItem::Freeze(*e));
    }
    for e in &found.edges {
        if let RcgEdgeKind::Existing {
            connection,
            hscan: false,
            steered,
        } = rcg.edge(*e).kind
        {
            items.insert(if steered {
                ChargeItem::Steered(connection)
            } else {
                ChargeItem::DirectLoad(connection)
            });
        }
    }
    let term_ports: Vec<PortId> = found
        .terminals
        .iter()
        .filter_map(|t| match t {
            RcgNode::In(p) | RcgNode::Out(p) => Some(*p),
            RcgNode::Reg(_) => None,
        })
        .collect();
    let (inputs, outputs) = match dir {
        Direction::In => (vec![anchor], term_ports),
        Direction::Out => (term_ports, vec![anchor]),
    };
    let path = TransparencyPath {
        inputs,
        outputs,
        latency: found.latency,
        edges: found.edges.clone(),
    };
    // Propagation and justification often find the same physical transfer
    // (e.g. a straight pipeline); keep one copy.
    if !paths.contains(&path) {
        paths.push(path);
    }
}

/// Searches for a propagation of input `anchor`, or a justification of
/// output `anchor`, under the level's rules, inserting a transparency mux
/// when nothing exists (any level) or when a data pair is still slower
/// than one cycle (level 3).
fn solve_port(
    core: &Core,
    rcg: &mut Rcg,
    anchor: PortId,
    level: u8,
    used: &HashSet<EdgeId>,
    items: &mut HashSet<ChargeItem>,
) -> Result<Option<PathFound>, SearchError> {
    let dir = core.port(anchor).direction();
    let node = RcgNode::port(core, anchor);
    let mut best = phased_search(rcg, node, level, used, dir);
    let is_data = core.port(anchor).class() == SignalClass::Data;
    let needs_mux = match &best {
        Some(f) => level == 3 && is_data && f.latency > 1,
        None => true,
    };
    if needs_mux {
        // "Any register reachable from the input in one cycle is connected
        // to an output with a test multiplexer", preferring unused outputs;
        // an output is justified the mirror way, from an input into the
        // register that loads it.
        let far = pick_partner(core, anchor)?;
        let width = mux_width(core, anchor, far);
        let far_node = RcgNode::port(core, far);
        let (from, to) = match dir {
            Direction::In => {
                let reg = rcg
                    .edges_from(node)
                    .map(|e| rcg.edge(e).to)
                    .find(|n| n.is_reg());
                (reg.unwrap_or(node), far_node)
            }
            Direction::Out => {
                let reg = rcg
                    .edges_into(node)
                    .map(|e| rcg.edge(e).from)
                    .find(|n| n.is_reg());
                (far_node, reg.unwrap_or(node))
            }
        };
        rcg.add_transparency_mux(from, to, BitRange::full(width), BitRange::full(width));
        items.insert(ChargeItem::TransMux { anchor, width });
        let with_mux = phased_search(rcg, node, level, used, dir);
        if let Some(f) = with_mux {
            if best.as_ref().is_none_or(|b| f.latency < b.latency) {
                best = Some(f);
            }
        }
    }
    Ok(best)
}

/// The paper's phase schedule, searching forward from an input node
/// (`Direction::In`) or backward from an output node (`Direction::Out`):
///
/// * level 1: HSCAN-disjoint → HSCAN-reuse → any-disjoint → any-reuse,
///   first success wins (HSCAN reuse is free, so it beats buying logic);
/// * levels 2–3: minimum latency over all existing and synthetic edges,
///   preferring a disjoint route on ties.
fn phased_search(
    rcg: &Rcg,
    node: RcgNode,
    level: u8,
    used: &HashSet<EdgeId>,
    dir: Direction,
) -> Option<PathFound> {
    let empty = HashSet::new();
    let hscan_only = |e: EdgeId| rcg.edge(e).kind.is_hscan();
    let any = |_: EdgeId| true;
    let run = |allowed: &dyn Fn(EdgeId) -> bool, banned: &HashSet<EdgeId>| match dir {
        Direction::In => forward_search(rcg, node, allowed, banned),
        Direction::Out => backward_search(rcg, node, allowed, banned),
    };
    if level == 1 {
        run(&hscan_only, used)
            .or_else(|| run(&hscan_only, &empty))
            .or_else(|| run(&any, used))
            .or_else(|| run(&any, &empty))
    } else {
        let disjoint = run(&any, used);
        let reuse = run(&any, &empty);
        match (disjoint, reuse) {
            (Some(d), Some(r)) => Some(if d.latency <= r.latency { d } else { r }),
            (d, r) => d.or(r),
        }
    }
}

/// The far port of `anchor`'s transparency mux, on the other side of the
/// core: a data port at least as wide as `anchor`; then the widest data
/// port; then any port.
fn pick_partner(core: &Core, anchor: PortId) -> Result<PortId, SearchError> {
    let want = core.port(anchor).width();
    let dir = core.port(anchor).direction();
    let candidates = match dir {
        Direction::In => core.output_ports(),
        Direction::Out => core.input_ports(),
    };
    let is_data = |p: &PortId| core.port(*p).class() == SignalClass::Data;
    candidates
        .iter()
        .copied()
        .find(|p| is_data(p) && core.port(*p).width() >= want)
        .or_else(|| {
            candidates
                .iter()
                .copied()
                .filter(is_data)
                .max_by_key(|p| core.port(*p).width())
        })
        .or_else(|| candidates.first().copied())
        .ok_or_else(|| {
            let core = core.name().to_string();
            match dir {
                Direction::In => SearchError::NoOutputPorts { core },
                Direction::Out => SearchError::NoInputPorts { core },
            }
        })
}

fn mux_width(core: &Core, i: PortId, o: PortId) -> u16 {
    core.port(i).width().min(core.port(o).width())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_cells::CellLibrary;
    use socet_hscan::insert_hscan;
    use socet_rtl::{CoreBuilder, Direction, RtlNode};

    fn ladder(core: &Core) -> Vec<CoreVersion> {
        let costs = DftCosts::default();
        let hscan = insert_hscan(core, &costs);
        synthesize_versions(core, &hscan, &costs)
    }

    /// The paper's CPU skeleton (Fig. 7): Data feeds the O-split IR; the
    /// accumulator chain walks six registers to Address(7-0); MAR page hangs
    /// off IR for Address(11-8); mux `M` offers a non-HSCAN shortcut
    /// Data → MAR_offset.
    fn cpu_like() -> Core {
        let mut b = CoreBuilder::new("cpu");
        let data = b.port("Data", Direction::In, 8).unwrap();
        let a_lo = b.port("AddrLo", Direction::Out, 8).unwrap();
        let a_hi = b.port("AddrHi", Direction::Out, 4).unwrap();
        let ir = b.register("IR", 8).unwrap();
        let acc = b.register("ACC", 8).unwrap();
        let status = b.register("STATUS", 8).unwrap();
        let tmp = b.register("TMP", 8).unwrap();
        let pc = b.register("PC", 8).unwrap();
        let mar_off = b.register("MAR_offset", 8).unwrap();
        let mar_page = b.register("MAR_page", 4).unwrap();
        b.connect_mux(RtlNode::Port(data), RtlNode::Reg(ir), 0)
            .unwrap();
        // O-split IR: low nibble to ACC low and MAR page, high nibble to
        // ACC high.
        b.connect_mux_slice(
            RtlNode::Reg(ir),
            socet_rtl::BitRange::new(0, 3),
            RtlNode::Reg(acc),
            socet_rtl::BitRange::new(0, 3),
            0,
        )
        .unwrap();
        b.connect_mux_slice(
            RtlNode::Reg(ir),
            socet_rtl::BitRange::new(4, 7),
            RtlNode::Reg(acc),
            socet_rtl::BitRange::new(4, 7),
            0,
        )
        .unwrap();
        b.connect_mux_slice(
            RtlNode::Reg(ir),
            socet_rtl::BitRange::new(0, 3),
            RtlNode::Reg(mar_page),
            socet_rtl::BitRange::full(4),
            0,
        )
        .unwrap();
        b.connect_mux(RtlNode::Reg(acc), RtlNode::Reg(status), 0)
            .unwrap();
        b.connect_mux(RtlNode::Reg(status), RtlNode::Reg(tmp), 0)
            .unwrap();
        b.connect_mux(RtlNode::Reg(tmp), RtlNode::Reg(pc), 0)
            .unwrap();
        b.connect_mux(RtlNode::Reg(pc), RtlNode::Reg(mar_off), 0)
            .unwrap();
        // Non-HSCAN shortcut: mux M.
        b.connect_mux(RtlNode::Port(data), RtlNode::Reg(mar_off), 1)
            .unwrap();
        b.connect_reg_to_port(mar_off, a_lo).unwrap();
        b.connect_reg_to_port(mar_page, a_hi).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cpu_ladder_matches_fig6() {
        let core = cpu_like();
        let data = core.find_port("Data").unwrap();
        let a_lo = core.find_port("AddrLo").unwrap();
        let a_hi = core.find_port("AddrHi").unwrap();
        let versions = ladder(&core);
        let lib = CellLibrary::generic_08um();
        // Fig. 6 latencies: v1 = (6, 2); v2 = (1, 2); v3 = (1, 1).
        assert_eq!(versions[0].pair_latency(data, a_lo), Some(6));
        assert_eq!(versions[0].pair_latency(data, a_hi), Some(2));
        assert_eq!(versions[1].pair_latency(data, a_lo), Some(1));
        assert_eq!(versions[1].pair_latency(data, a_hi), Some(2));
        assert_eq!(versions[2].pair_latency(data, a_lo), Some(1));
        assert_eq!(versions[2].pair_latency(data, a_hi), Some(1));
        // Fig. 6 overheads: 3 / 10 / 30 cells.
        let ovh: Vec<u64> = versions.iter().map(|v| v.overhead_cells(&lib)).collect();
        assert_eq!(ovh, vec![3, 10, 30]);
    }

    #[test]
    fn three_versions_are_generated() {
        let core = cpu_like();
        let versions = ladder(&core);
        assert_eq!(versions.len(), 3);
        assert_eq!(versions[0].name(), "Version 1");
        assert_eq!(versions[2].level(), 3);
    }

    #[test]
    fn overheads_are_monotone() {
        let core = cpu_like();
        let versions = ladder(&core);
        let lib = CellLibrary::generic_08um();
        let ovh: Vec<u64> = versions.iter().map(|v| v.overhead_cells(&lib)).collect();
        assert!(ovh[0] <= ovh[1] && ovh[1] <= ovh[2], "{ovh:?}");
    }

    #[test]
    fn all_versions_are_complete() {
        let core = cpu_like();
        for v in ladder(&core) {
            assert!(v.is_complete(&core), "{} incomplete", v.name());
        }
    }

    #[test]
    fn pairs_enumerate_inputs_times_outputs() {
        let core = cpu_like();
        let versions = ladder(&core);
        for v in &versions {
            for (i, o, lat, pidx) in v.pairs() {
                assert_eq!(v.paths()[pidx].latency, lat);
                assert!(core.port(i).direction() == Direction::In);
                assert!(core.port(o).direction() == Direction::Out);
            }
        }
    }

    #[test]
    fn v1_address_paths_share_edges() {
        // The paper: both Address outputs justify through (IR, Data) in
        // Version 1, so the transfers serialize (6 + 2 = 8 cycles total).
        let core = cpu_like();
        let versions = ladder(&core);
        let v1 = &versions[0];
        let a_lo = core.find_port("AddrLo").unwrap();
        let a_hi = core.find_port("AddrHi").unwrap();
        let p_lo = v1
            .paths()
            .iter()
            .find(|p| p.outputs.contains(&a_lo) && p.latency == 6)
            .unwrap();
        let p_hi = v1
            .paths()
            .iter()
            .find(|p| p.outputs.contains(&a_hi) && p.latency == 2)
            .unwrap();
        assert!(p_lo.shares_edges(p_hi));
    }

    #[test]
    fn control_ports_keep_chains_in_v3() {
        // A 1-bit control path of latency 2 must NOT get a transparency mux
        // at level 3.
        let mut b = CoreBuilder::new("ctl");
        let d = b.port("d", Direction::In, 8).unwrap();
        let q = b.port("q", Direction::Out, 8).unwrap();
        let rst = b.control_port("rst", Direction::In).unwrap();
        let rd = b
            .port_with_class("rd", Direction::Out, 1, SignalClass::Control)
            .unwrap();
        let r = b.register("r", 8).unwrap();
        let c1 = b.register("c1", 1).unwrap();
        let c2 = b.register("c2", 1).unwrap();
        b.connect_port_to_reg(d, r).unwrap();
        b.connect_reg_to_port(r, q).unwrap();
        b.connect_port_to_reg(rst, c1).unwrap();
        b.connect_reg_to_reg(c1, c2).unwrap();
        b.connect_reg_to_port(c2, rd).unwrap();
        let core = b.build().unwrap();
        let versions = ladder(&core);
        assert_eq!(versions[2].pair_latency(rst, rd), Some(2));
        // And the data path still got its latency-1 treatment... it is
        // already 1 (d -> r -> q), so no mux anywhere: v3 overhead == v1.
        let lib = CellLibrary::generic_08um();
        assert_eq!(
            versions[0].overhead_cells(&lib),
            versions[2].overhead_cells(&lib)
        );
    }

    #[test]
    fn isolated_output_gets_transparency_mux() {
        // An output fed only by an FU: no lossless justification path at
        // all; every level must fall back to a mux.
        let mut b = CoreBuilder::new("fuout");
        let i = b.port("i", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let good = b.port("good", Direction::Out, 4).unwrap();
        let r = b.register("r", 4).unwrap();
        let fu = b.functional_unit("f", socet_rtl::FuKind::Logic, 4).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, good).unwrap();
        b.connect_reg_to_fu(r, fu).unwrap();
        b.connect_fu_to_port(fu, o).unwrap();
        let core = b.build().unwrap();
        let versions = ladder(&core);
        let lib = CellLibrary::generic_08um();
        for v in versions {
            assert!(v.is_complete(&core), "{}", v.name());
            assert!(v.overhead_cells(&lib) >= 4 * 5, "mux cells charged");
        }
    }

    #[test]
    fn pipeline_versions_doc_example() {
        let mut b = CoreBuilder::new("pipe");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_reg_to_reg(r1, r2).unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = b.build().unwrap();
        let versions = ladder(&core);
        assert_eq!(versions[0].pair_latency(i, o), Some(2));
        assert_eq!(versions[2].pair_latency(i, o), Some(1));
    }
}
