//! The core connectivity graph (CCG) of §5 of the paper.
//!
//! Nodes are chip PIs and POs plus every logic core's input and output
//! ports; edges are the chip-level interconnect (zero latency) and the
//! transparency paths of each core's *selected version* (their latency is
//! the edge cost). Transparency edges carry *resources* — the RCG edges the
//! transfer occupies plus the source port itself — which the scheduler
//! reserves over time intervals, reproducing the paper's "reserve the edges
//! for the cycles in which they will be used".

use crate::error::ScheduleError;
use crate::plan::CoreTestData;
use socet_rtl::{ChipPinId, CoreInstanceId, Direction, PortId, Soc, SocEndpoint};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// A node of the CCG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcgNode {
    /// A chip primary input.
    Pi(ChipPinId),
    /// A chip primary output.
    Po(ChipPinId),
    /// An input port of a logic core.
    CoreIn(CoreInstanceId, PortId),
    /// An output port of a logic core.
    CoreOut(CoreInstanceId, PortId),
}

impl CcgNode {
    /// The node of `core`'s `port`, which points `direction`.
    pub(crate) fn port(core: CoreInstanceId, port: PortId, direction: Direction) -> Self {
        match direction {
            Direction::In => CcgNode::CoreIn(core, port),
            Direction::Out => CcgNode::CoreOut(core, port),
        }
    }
}

impl fmt::Display for CcgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcgNode::Pi(p) => write!(f, "PI:{p}"),
            CcgNode::Po(p) => write!(f, "PO:{p}"),
            CcgNode::CoreIn(c, p) => write!(f, "{c}.in:{p}"),
            CcgNode::CoreOut(c, p) => write!(f, "{c}.out:{p}"),
        }
    }
}

/// A resource a transparency transfer occupies for its duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// An RCG edge inside a core (identified by its index).
    RcgEdge(CoreInstanceId, u32),
    /// A core input port: it can present only one value stream at a time.
    InputPort(CoreInstanceId, PortId),
}

/// What realizes a CCG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcgEdgeKind {
    /// A chip-level net: free, instantaneous, conflict-free. `net` is the
    /// index of the [`SocNet`](socet_rtl::SocNet) behind it.
    Interconnect {
        /// Index into [`Soc::nets`](socet_rtl::Soc::nets).
        net: usize,
    },
    /// A transparency path of `core`'s selected version (`path` indexes the
    /// version's path list).
    Transparency {
        /// The core the data passes through.
        core: CoreInstanceId,
        /// Index of the path within the selected version.
        path: usize,
    },
}

/// One CCG edge.
#[derive(Debug, Clone)]
pub struct CcgEdge {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Transfer latency in cycles.
    pub latency: u32,
    /// Realization.
    pub kind: CcgEdgeKind,
    /// Resources occupied while the transfer is in flight.
    pub resources: Vec<Resource>,
}

/// The core connectivity graph for one version choice.
///
/// Edges are laid out canonically: one contiguous *group* of transparency
/// edges per logic core (in [`Soc::logic_cores`] order), then every
/// interconnect edge. [`Ccg::step_core`] exploits the grouping to patch a
/// single core's version in place — the inner move of the §5.2 iterative-
/// improvement loop and of the exhaustive sweep, whose first logic core
/// varies fastest so that consecutive points mostly differ in one core —
/// instead of rebuilding the whole graph.
#[derive(Debug, Clone)]
pub struct Ccg {
    nodes: Vec<CcgNode>,
    index: HashMap<CcgNode, usize>,
    edges: Vec<CcgEdge>,
    out_edges: Vec<Vec<usize>>,
    pis: Vec<usize>,
    pos: Vec<usize>,
    /// Per logic core, the range of its transparency-edge group in `edges`.
    trans_ranges: Vec<(CoreInstanceId, Range<usize>)>,
}

impl Ccg {
    /// Builds the CCG of `soc` with each logic core using
    /// `choice[core.index()]` of its version ladder.
    ///
    /// `data[i]` must be `Some` for every logic core and may be `None` for
    /// memory cores (which take no part in test routing).
    ///
    /// # Panics
    ///
    /// Panics if a logic core lacks test data or its choice is out of
    /// range.
    pub fn build(soc: &Soc, data: &[Option<CoreTestData>], choice: &[usize]) -> Ccg {
        Ccg::try_build(soc, data, choice).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Ccg::build`]: missing test data, out-of-range and
    /// too-short choices come back as a [`ScheduleError`].
    pub fn try_build(
        soc: &Soc,
        data: &[Option<CoreTestData>],
        choice: &[usize],
    ) -> Result<Ccg, ScheduleError> {
        if choice.len() < soc.cores().len() {
            return Err(ScheduleError::ChoiceLengthMismatch {
                expected: soc.cores().len(),
                got: choice.len(),
            });
        }
        let mut ccg = Ccg {
            nodes: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            pis: Vec::new(),
            pos: Vec::new(),
            trans_ranges: Vec::new(),
        };
        // Pins, then every core port: the node set depends only on the SOC,
        // never on the version choice, so incremental patches only ever
        // touch edges.
        for pin in soc.primary_inputs() {
            let i = ccg.intern(CcgNode::Pi(pin));
            ccg.pis.push(i);
        }
        for pin in soc.primary_outputs() {
            let i = ccg.intern(CcgNode::Po(pin));
            ccg.pos.push(i);
        }
        for cid in soc.logic_cores() {
            let core = soc.core(cid).core();
            for p in core.input_ports() {
                ccg.intern(CcgNode::CoreIn(cid, p));
            }
            for p in core.output_ports() {
                ccg.intern(CcgNode::CoreOut(cid, p));
            }
        }
        // Transparency edges, one contiguous group per core.
        for cid in soc.logic_cores() {
            let start = ccg.edges.len();
            let group = ccg.core_group_edges(cid, data, choice[cid.index()])?;
            ccg.edges.extend(group);
            ccg.trans_ranges.push((cid, start..ccg.edges.len()));
        }
        // Interconnect from the SOC nets (skipping memory-core endpoints).
        for (ni, net) in soc.nets().iter().enumerate() {
            let from = ccg.net_node(soc, &net.src);
            let to = ccg.net_node(soc, &net.dst);
            if let (Some(from), Some(to)) = (from, to) {
                ccg.edges.push(CcgEdge {
                    from,
                    to,
                    latency: 0,
                    kind: CcgEdgeKind::Interconnect { net: ni },
                    resources: Vec::new(),
                });
            }
        }
        ccg.reindex();
        Ok(ccg)
    }

    /// Re-points `core`'s transparency-edge group at version `new_choice`,
    /// leaving every other edge untouched. Returns the number of edges
    /// written.
    ///
    /// The patched graph is structurally identical to a fresh
    /// [`Ccg::try_build`] with the updated choice — same edge order, same
    /// adjacency lists — so routing over it is bit-for-bit deterministic
    /// either way (the `incremental_patching_equals_full_build` property
    /// test pins this).
    pub fn step_core(
        &mut self,
        core: CoreInstanceId,
        data: &[Option<CoreTestData>],
        new_choice: usize,
    ) -> Result<usize, ScheduleError> {
        let ri = self
            .trans_ranges
            .iter()
            .position(|(c, _)| *c == core)
            .ok_or(ScheduleError::MissingCoreData { core })?;
        let group = self.core_group_edges(core, data, new_choice)?;
        let written = group.len();
        let range = self.trans_ranges[ri].1.clone();
        let delta = written as isize - range.len() as isize;
        self.edges.splice(range.clone(), group);
        self.trans_ranges[ri].1 = range.start..range.start + written;
        for (_, r) in self.trans_ranges.iter_mut().skip(ri + 1) {
            *r = ((r.start as isize + delta) as usize)..((r.end as isize + delta) as usize);
        }
        self.reindex();
        Ok(written)
    }

    /// The transparency edges of `core` under version `choice`, in the
    /// canonical (version pair) order shared by full builds and patches.
    fn core_group_edges(
        &self,
        cid: CoreInstanceId,
        data: &[Option<CoreTestData>],
        choice: usize,
    ) -> Result<Vec<CcgEdge>, ScheduleError> {
        let td = data
            .get(cid.index())
            .and_then(|d| d.as_ref())
            .ok_or(ScheduleError::MissingCoreData { core: cid })?;
        let version = td
            .versions
            .get(choice)
            .ok_or(ScheduleError::ChoiceOutOfRange {
                core: cid,
                choice,
                versions: td.versions.len(),
            })?;
        let mut group = Vec::new();
        for (input, output, latency, path) in version.pairs() {
            let from =
                self.find(CcgNode::CoreIn(cid, input))
                    .ok_or(ScheduleError::PortNotInCcg {
                        core: cid,
                        port: input,
                    })?;
            let to =
                self.find(CcgNode::CoreOut(cid, output))
                    .ok_or(ScheduleError::PortNotInCcg {
                        core: cid,
                        port: output,
                    })?;
            let mut resources: Vec<Resource> = version.paths()[path]
                .edges
                .iter()
                .map(|e| Resource::RcgEdge(cid, e.index() as u32))
                .collect();
            resources.push(Resource::InputPort(cid, input));
            group.push(CcgEdge {
                from,
                to,
                latency,
                kind: CcgEdgeKind::Transparency { core: cid, path },
                resources,
            });
        }
        Ok(group)
    }

    /// Rebuilds the adjacency lists from `edges`. Both build and patch end
    /// here, which is what makes patched and fresh graphs structurally
    /// identical.
    fn reindex(&mut self) {
        for v in &mut self.out_edges {
            v.clear();
        }
        for (ei, e) in self.edges.iter().enumerate() {
            self.out_edges[e.from].push(ei);
        }
    }

    /// The range of `core`'s transparency-edge group in [`Ccg::edges`].
    pub fn core_edge_range(&self, core: CoreInstanceId) -> Option<Range<usize>> {
        self.trans_ranges
            .iter()
            .find(|(c, _)| *c == core)
            .map(|(_, r)| r.clone())
    }

    fn net_node(&mut self, soc: &Soc, ep: &SocEndpoint) -> Option<usize> {
        match *ep {
            SocEndpoint::Pin { pin, .. } => {
                let node = match soc.pin(pin).direction() {
                    Direction::In => CcgNode::Pi(pin),
                    Direction::Out => CcgNode::Po(pin),
                };
                Some(self.intern(node))
            }
            SocEndpoint::CorePort { core, port, .. } => {
                if soc.core(core).is_memory() {
                    return None;
                }
                let dir = soc.core(core).core().port(port).direction();
                Some(self.intern(CcgNode::port(core, port, dir)))
            }
        }
    }

    fn intern(&mut self, node: CcgNode) -> usize {
        if let Some(&i) = self.index.get(&node) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(node);
        self.index.insert(node, i);
        self.out_edges.push(Vec::new());
        i
    }

    /// All nodes; indices are stable.
    pub fn nodes(&self) -> &[CcgNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[CcgEdge] {
        &self.edges
    }

    /// Indices of edges leaving `node`.
    pub fn edges_from(&self, node: usize) -> &[usize] {
        &self.out_edges[node]
    }

    /// Node index of `node`, if present.
    pub fn find(&self, node: CcgNode) -> Option<usize> {
        self.index.get(&node).copied()
    }

    /// Renders the CCG as Graphviz DOT — the Fig. 9 picture for any SOC.
    /// Interconnect edges are thin, transparency edges carry their latency
    /// as the label.
    ///
    /// # Examples
    ///
    /// See the `custom_core` example; the output starts with
    /// `digraph ccg`.
    pub fn to_dot(&self, soc: &Soc) -> String {
        use std::fmt::Write as _;
        let name = |n: &CcgNode| match n {
            CcgNode::Pi(p) => format!("PI {}", soc.pin(*p).name()),
            CcgNode::Po(p) => format!("PO {}", soc.pin(*p).name()),
            CcgNode::CoreIn(c, p) => format!(
                "{}.{}",
                soc.core(*c).name(),
                soc.core(*c).core().port(*p).name()
            ),
            CcgNode::CoreOut(c, p) => format!(
                "{}.{}",
                soc.core(*c).name(),
                soc.core(*c).core().port(*p).name()
            ),
        };
        let mut out = String::from("digraph ccg {\n  rankdir=LR;\n");
        for n in &self.nodes {
            let shape = match n {
                CcgNode::Pi(_) => "invtriangle",
                CcgNode::Po(_) => "triangle",
                _ => "ellipse",
            };
            let _ = writeln!(out, "  \"{}\" [shape={shape}];", name(n));
        }
        for e in &self.edges {
            match e.kind {
                CcgEdgeKind::Interconnect { .. } => {
                    let _ = writeln!(
                        out,
                        "  \"{}\" -> \"{}\" [color=gray];",
                        name(&self.nodes[e.from]),
                        name(&self.nodes[e.to])
                    );
                }
                CcgEdgeKind::Transparency { .. } => {
                    let _ = writeln!(
                        out,
                        "  \"{}\" -> \"{}\" [label=\"{}\", penwidth=2];",
                        name(&self.nodes[e.from]),
                        name(&self.nodes[e.to]),
                        e.latency
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Indices of the PI nodes.
    pub fn pi_nodes(&self) -> &[usize] {
        &self.pis
    }

    /// Indices of the PO nodes.
    pub fn po_nodes(&self) -> &[usize] {
        &self.pos
    }
}

impl fmt::Display for Ccg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ccg: {} nodes, {} edges",
            self.nodes.len(),
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} -> {} ({} cycles)",
                self.nodes[e.from], self.nodes[e.to], e.latency
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CoreTestData;
    use socet_cells::DftCosts;
    use socet_rtl::{CoreBuilder, SocBuilder};
    use std::sync::Arc;

    fn buf_core(name: &str) -> Arc<socet_rtl::Core> {
        let mut b = CoreBuilder::new(name);
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn two_core_chain_builds_expected_graph() {
        let core = buf_core("buf");
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
        let ccg = Ccg::build(&soc, &data, &[0, 0]);
        // Nodes: 1 PI + 1 PO + 2 cores x 2 ports.
        assert_eq!(ccg.nodes().len(), 6);
        // Edges: 3 interconnect + 2 transparency (one per core, i->o).
        let trans = ccg
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, CcgEdgeKind::Transparency { .. }))
            .count();
        assert_eq!(trans, 2);
        let inter = ccg.edges().len() - trans;
        assert_eq!(inter, 3);
        // Every transparency edge reserves its source port.
        for e in ccg.edges() {
            if let CcgEdgeKind::Transparency { core, .. } = e.kind {
                assert!(e
                    .resources
                    .iter()
                    .any(|r| matches!(r, Resource::InputPort(c, _) if *c == core)));
            }
        }
    }

    #[test]
    fn memory_cores_are_invisible() {
        let core = buf_core("buf");
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let ram = sb.instantiate_memory("ram", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_core_to_pin(u0, o, po).unwrap();
        sb.connect_cores(u0, o, ram, i).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 10).unwrap();
        let ccg = Ccg::build(&soc, &data, &[0, 0]);
        // RAM contributes no nodes: 1 PI + 1 PO + 2 core ports.
        assert_eq!(ccg.nodes().len(), 4);
        assert!(ccg.nodes().iter().all(
            |n| !matches!(n, CcgNode::CoreIn(c, _) | CcgNode::CoreOut(c, _) if c.index() == 1)
        ));
    }

    #[test]
    fn version_choice_changes_edge_latency() {
        // A 2-deep pipeline core: v1 latency 2, v3 latency 1.
        let mut b = CoreBuilder::new("pipe");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_reg_to_reg(r1, r2).unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = Arc::new(b.build().unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_core_to_pin(u0, o, po).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 10).unwrap();
        let lat_of = |choice: usize| {
            let ccg = Ccg::build(&soc, &data, &[choice]);
            ccg.edges()
                .iter()
                .filter(|e| matches!(e.kind, CcgEdgeKind::Transparency { .. }))
                .map(|e| e.latency)
                .min()
                .unwrap()
        };
        assert_eq!(lat_of(0), 2);
        assert_eq!(lat_of(2), 1);
    }
}
