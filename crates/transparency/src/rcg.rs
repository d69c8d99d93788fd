//! The register connectivity graph (RCG) of §4 of the paper.
//!
//! Nodes are the core's input ports, output ports and registers. An edge is
//! present where a direct or multiplexer (or bus) path exists — i.e. for
//! every lossless RTL connection — plus the synthetic scan-mux paths HSCAN
//! added, plus any transparency multiplexers inserted during version
//! synthesis. Registers (and ports) whose connected bit-slices are disjoint
//! are marked C-split (fan-in side) or O-split (fan-out side).

use socet_hscan::{ChainVia, HscanResult};
use socet_rtl::{BitRange, ConnectionId, Core, Direction, PortId, RegisterId, RtlNode, Via};
use std::collections::HashSet;
use std::fmt;

/// A node of the RCG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RcgNode {
    /// A core input port.
    In(PortId),
    /// A core output port.
    Out(PortId),
    /// A register.
    Reg(RegisterId),
}

impl RcgNode {
    /// Whether the node is a register (costs one cycle to enter).
    pub fn is_reg(self) -> bool {
        matches!(self, RcgNode::Reg(_))
    }

    /// Whether the node is an input port.
    pub fn is_input(self) -> bool {
        matches!(self, RcgNode::In(_))
    }

    /// Whether the node is an output port.
    pub fn is_output(self) -> bool {
        matches!(self, RcgNode::Out(_))
    }

    /// The node of `core`'s port `p`.
    pub(crate) fn port(core: &Core, p: PortId) -> RcgNode {
        match core.port(p).direction() {
            Direction::In => RcgNode::In(p),
            Direction::Out => RcgNode::Out(p),
        }
    }
}

impl fmt::Display for RcgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RcgNode::In(p) => write!(f, "in:{p}"),
            RcgNode::Out(p) => write!(f, "out:{p}"),
            RcgNode::Reg(r) => write!(f, "reg:{r}"),
        }
    }
}

/// Identifier of an RCG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// The edge's index in the RCG's edge table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What realizes an RCG edge, deciding its transparency cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcgEdgeKind {
    /// An existing RTL connection.
    Existing {
        /// The RTL connection behind the edge.
        connection: ConnectionId,
        /// Whether HSCAN claimed this connection as a scan path (free to
        /// reuse for transparency).
        hscan: bool,
        /// Whether the path goes through a multiplexer or bus (steering
        /// logic needed when used outside HSCAN mode).
        steered: bool,
    },
    /// A scan path HSCAN synthesized with a test multiplexer (already paid
    /// for; counts as an HSCAN edge).
    ScanMux,
    /// A transparency multiplexer added during version synthesis.
    TransparencyMux,
}

impl RcgEdgeKind {
    /// Whether the edge belongs to the HSCAN path set — the preferred edges
    /// of the first search phase.
    pub fn is_hscan(self) -> bool {
        match self {
            RcgEdgeKind::Existing { hscan, .. } => hscan,
            RcgEdgeKind::ScanMux => true,
            RcgEdgeKind::TransparencyMux => false,
        }
    }
}

/// One RCG edge: a lossless data path `from → to` over the given bit
/// ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcgEdge {
    /// Source node.
    pub from: RcgNode,
    /// Destination node.
    pub to: RcgNode,
    /// Bits of the source carried.
    pub from_range: BitRange,
    /// Bits of the destination written.
    pub to_range: BitRange,
    /// The edge's realization.
    pub kind: RcgEdgeKind,
}

impl RcgEdge {
    /// Cycles consumed crossing this edge: one when the destination is a
    /// register (it loads on a clock edge), zero into an output port
    /// (combinational).
    pub fn latency(&self) -> u32 {
        u32::from(self.to.is_reg())
    }
}

impl fmt::Display for RcgEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} -> {}{}",
            self.from, self.from_range, self.to, self.to_range
        )
    }
}

/// The register connectivity graph of one core.
///
/// # Examples
///
/// ```
/// use socet_rtl::{CoreBuilder, Direction};
/// use socet_hscan::insert_hscan;
/// use socet_cells::DftCosts;
/// use socet_transparency::Rcg;
///
/// let mut b = CoreBuilder::new("pipe");
/// let i = b.port("i", Direction::In, 8)?;
/// let o = b.port("o", Direction::Out, 8)?;
/// let r = b.register("r", 8)?;
/// b.connect_port_to_reg(i, r)?;
/// b.connect_reg_to_port(r, o)?;
/// let core = b.build()?;
/// let hscan = insert_hscan(&core, &DftCosts::default());
/// let rcg = Rcg::extract(&core, &hscan);
/// assert_eq!(rcg.edges().len(), 2);
/// assert!(rcg.edges().iter().all(|e| e.kind.is_hscan()));
/// # Ok::<(), socet_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Rcg {
    edges: Vec<RcgEdge>,
    c_split: HashSet<RcgNode>,
    o_split: HashSet<RcgNode>,
    inputs: Vec<PortId>,
    outputs: Vec<PortId>,
}

impl Rcg {
    /// Extracts the RCG of `core`, marking the connections `hscan` claimed.
    pub fn extract(core: &Core, hscan: &HscanResult) -> Rcg {
        let mut edges = Vec::new();
        for (ci, c) in core.connections().iter().enumerate() {
            if c.src.node.is_fu() || c.dst.node.is_fu() || !c.via.is_lossless() {
                continue;
            }
            let from = rtl_to_rcg(core, c.src.node);
            let to = rtl_to_rcg(core, c.dst.node);
            // Only data-bearing directions belong to the RCG.
            let (Some(from), Some(to)) = (from, to) else {
                continue;
            };
            let id = ConnectionId::from_index(ci);
            // An unsteered register-to-output wire needs no configuration at
            // all — the register's value already sits on the port — so it
            // counts as a free (HSCAN-class) transparency edge even when no
            // scan chain ends there.
            let free_observation = matches!(c.via, Via::Direct) && to.is_output();
            edges.push(RcgEdge {
                from,
                to,
                from_range: c.src.range,
                to_range: c.dst.range,
                kind: RcgEdgeKind::Existing {
                    connection: id,
                    hscan: hscan.scan_connections().contains(&id) || free_observation,
                    steered: !matches!(c.via, Via::Direct),
                },
            });
        }
        // Synthetic scan-mux paths from HSCAN (test-mux heads/tails).
        for chain in hscan.chains() {
            if chain.head_via == ChainVia::TestMux {
                let reg = chain.links[0].reg;
                let w = core
                    .port(chain.scan_in)
                    .width()
                    .min(core.register(reg).width());
                edges.push(RcgEdge {
                    from: RcgNode::In(chain.scan_in),
                    to: RcgNode::Reg(reg),
                    from_range: BitRange::full(w),
                    to_range: BitRange::full(w),
                    kind: RcgEdgeKind::ScanMux,
                });
            }
            if chain.tail_via == ChainVia::TestMux {
                let reg = chain.links.last().expect("chains are non-empty").reg;
                let w = core
                    .port(chain.scan_out)
                    .width()
                    .min(core.register(reg).width());
                edges.push(RcgEdge {
                    from: RcgNode::Reg(reg),
                    to: RcgNode::Out(chain.scan_out),
                    from_range: BitRange::full(w),
                    to_range: BitRange::full(w),
                    kind: RcgEdgeKind::ScanMux,
                });
            }
        }
        let mut c_split = HashSet::new();
        let mut o_split = HashSet::new();
        for r in core.register_ids() {
            if core.is_c_split(RtlNode::Reg(r)) {
                c_split.insert(RcgNode::Reg(r));
            }
            if core.is_o_split(RtlNode::Reg(r)) {
                o_split.insert(RcgNode::Reg(r));
            }
        }
        for p in core.port_ids() {
            if core.port(p).direction() == Direction::In && core.is_o_split(RtlNode::Port(p)) {
                o_split.insert(RcgNode::In(p));
            }
            if core.port(p).direction() == Direction::Out && core.is_c_split(RtlNode::Port(p)) {
                c_split.insert(RcgNode::Out(p));
            }
        }
        Rcg {
            edges,
            c_split,
            o_split,
            inputs: core.input_ports(),
            outputs: core.output_ports(),
        }
    }

    /// All edges; [`EdgeId::index`] indexes this slice.
    pub fn edges(&self) -> &[RcgEdge] {
        &self.edges
    }

    /// The edge behind an id.
    pub fn edge(&self, id: EdgeId) -> &RcgEdge {
        &self.edges[id.index()]
    }

    /// Ids of edges leaving `node`.
    pub fn edges_from(&self, node: RcgNode) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.from == node)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Ids of edges entering `node`.
    pub fn edges_into(&self, node: RcgNode) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.to == node)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Whether different bit-slices of `node` are fed from different
    /// sources exclusively (C-split, paper §4).
    pub fn is_c_split(&self, node: RcgNode) -> bool {
        self.c_split.contains(&node)
    }

    /// Whether `node`'s fanout is split into different bit-slices going to
    /// different destinations (O-split).
    pub fn is_o_split(&self, node: RcgNode) -> bool {
        self.o_split.contains(&node)
    }

    /// The core's input ports.
    pub fn inputs(&self) -> &[PortId] {
        &self.inputs
    }

    /// The core's output ports.
    pub fn outputs(&self) -> &[PortId] {
        &self.outputs
    }

    /// Renders the RCG as Graphviz DOT, with HSCAN edges bold, split nodes
    /// annotated, and synthetic edges dashed — handy for debugging a core's
    /// transparency structure (`dot -Tsvg`).
    ///
    /// # Examples
    ///
    /// ```
    /// # use socet_rtl::{CoreBuilder, Direction};
    /// # use socet_hscan::insert_hscan;
    /// # use socet_cells::DftCosts;
    /// # use socet_transparency::Rcg;
    /// # let mut b = CoreBuilder::new("c");
    /// # let i = b.port("i", Direction::In, 4)?;
    /// # let o = b.port("o", Direction::Out, 4)?;
    /// # let r = b.register("r", 4)?;
    /// # b.connect_port_to_reg(i, r)?;
    /// # b.connect_reg_to_port(r, o)?;
    /// # let core = b.build()?;
    /// let rcg = Rcg::extract(&core, &insert_hscan(&core, &DftCosts::default()));
    /// let dot = rcg.to_dot(&core);
    /// assert!(dot.starts_with("digraph rcg"));
    /// # Ok::<(), socet_rtl::RtlError>(())
    /// ```
    pub fn to_dot(&self, core: &Core) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph rcg {\n  rankdir=LR;\n");
        let name_of = |n: RcgNode| match n {
            RcgNode::In(p) | RcgNode::Out(p) => core.port(p).name().to_owned(),
            RcgNode::Reg(r) => core.register(r).name().to_owned(),
        };
        let mut nodes: Vec<RcgNode> = Vec::new();
        for e in &self.edges {
            for n in [e.from, e.to] {
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
        }
        for n in &nodes {
            let shape = match n {
                RcgNode::In(_) => "invtriangle",
                RcgNode::Out(_) => "triangle",
                RcgNode::Reg(_) => "box",
            };
            let mut label = name_of(*n);
            if self.is_c_split(*n) {
                label.push_str("\\n(C-split)");
            }
            if self.is_o_split(*n) {
                label.push_str("\\n(O-split)");
            }
            let _ = writeln!(
                out,
                "  \"{}\" [shape={shape}, label=\"{label}\"];",
                name_of(*n)
            );
        }
        for e in &self.edges {
            let style = match e.kind {
                RcgEdgeKind::TransparencyMux => "dashed",
                RcgEdgeKind::ScanMux => "dotted",
                RcgEdgeKind::Existing { .. } => "solid",
            };
            let weight = if e.kind.is_hscan() {
                ", penwidth=2"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [style={style}{weight}, label=\"{}{}\"];",
                name_of(e.from),
                name_of(e.to),
                e.from_range,
                e.to_range,
            );
        }
        out.push_str("}\n");
        out
    }

    /// Adds a transparency-multiplexer edge, returning its id. Used by
    /// version synthesis (levels where latency is bought with area).
    pub fn add_transparency_mux(
        &mut self,
        from: RcgNode,
        to: RcgNode,
        from_range: BitRange,
        to_range: BitRange,
    ) -> EdgeId {
        self.edges.push(RcgEdge {
            from,
            to,
            from_range,
            to_range,
            kind: RcgEdgeKind::TransparencyMux,
        });
        EdgeId(self.edges.len() as u32 - 1)
    }
}

impl fmt::Display for Rcg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rcg: {} edges, {} c-split, {} o-split",
            self.edges.len(),
            self.c_split.len(),
            self.o_split.len()
        )?;
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

fn rtl_to_rcg(core: &Core, node: RtlNode) -> Option<RcgNode> {
    match node {
        RtlNode::Reg(r) => Some(RcgNode::Reg(r)),
        RtlNode::Port(p) => Some(RcgNode::port(core, p)),
        RtlNode::Fu(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_cells::DftCosts;
    use socet_hscan::insert_hscan;
    use socet_rtl::CoreBuilder;

    fn split_core() -> Core {
        let mut b = CoreBuilder::new("split");
        let a = b.port("a", Direction::In, 4).unwrap();
        let c = b.port("c", Direction::In, 4).unwrap();
        let o1 = b.port("o1", Direction::Out, 4).unwrap();
        let o2 = b.port("o2", Direction::Out, 4).unwrap();
        let acc = b.register("acc", 8).unwrap();
        b.connect_slice(
            RtlNode::Port(a),
            BitRange::full(4),
            RtlNode::Reg(acc),
            BitRange::new(0, 3),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Port(c),
            BitRange::full(4),
            RtlNode::Reg(acc),
            BitRange::new(4, 7),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Reg(acc),
            BitRange::new(0, 3),
            RtlNode::Port(o1),
            BitRange::full(4),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Reg(acc),
            BitRange::new(4, 7),
            RtlNode::Port(o2),
            BitRange::full(4),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn split_marks_propagate_to_rcg() {
        let core = split_core();
        let hscan = insert_hscan(&core, &DftCosts::default());
        let rcg = Rcg::extract(&core, &hscan);
        let acc = RcgNode::Reg(core.find_register("acc").unwrap());
        assert!(rcg.is_c_split(acc));
        assert!(rcg.is_o_split(acc));
        assert_eq!(rcg.edges().len(), 4);
    }

    #[test]
    fn edge_latency_zero_into_outputs() {
        let core = split_core();
        let hscan = insert_hscan(&core, &DftCosts::default());
        let rcg = Rcg::extract(&core, &hscan);
        for e in rcg.edges() {
            match e.to {
                RcgNode::Reg(_) => assert_eq!(e.latency(), 1),
                RcgNode::Out(_) => assert_eq!(e.latency(), 0),
                RcgNode::In(_) => panic!("edges never enter input ports"),
            }
        }
    }

    #[test]
    fn scan_mux_edges_appear_for_isolated_registers() {
        let mut b = CoreBuilder::new("iso");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        let island = b.register("island", 8).unwrap();
        let fu = b.functional_unit("f", socet_rtl::FuKind::Logic, 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        b.connect_reg_to_fu(island, fu).unwrap();
        b.connect_fu_to_reg(fu, island).unwrap();
        let core = b.build().unwrap();
        let hscan = insert_hscan(&core, &DftCosts::default());
        let rcg = Rcg::extract(&core, &hscan);
        let scan_muxes = rcg
            .edges()
            .iter()
            .filter(|e| e.kind == RcgEdgeKind::ScanMux)
            .count();
        assert_eq!(scan_muxes, 2); // into and out of the island
                                   // They count as HSCAN edges.
        assert!(rcg
            .edges()
            .iter()
            .filter(|e| e.kind == RcgEdgeKind::ScanMux)
            .all(|e| e.kind.is_hscan()));
    }

    #[test]
    fn transparency_mux_edges_are_not_hscan() {
        let core = split_core();
        let hscan = insert_hscan(&core, &DftCosts::default());
        let mut rcg = Rcg::extract(&core, &hscan);
        let a = core.find_port("a").unwrap();
        let o1 = core.find_port("o1").unwrap();
        let id = rcg.add_transparency_mux(
            RcgNode::In(a),
            RcgNode::Out(o1),
            BitRange::full(4),
            BitRange::full(4),
        );
        assert!(!rcg.edge(id).kind.is_hscan());
    }

    #[test]
    fn fu_paths_never_become_edges() {
        let mut b = CoreBuilder::new("fu");
        let i = b.port("i", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let r1 = b.register("r1", 4).unwrap();
        let r2 = b.register("r2", 4).unwrap();
        let alu = b.functional_unit("alu", socet_rtl::FuKind::Alu, 4).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_through_fu(r1, alu, r2).unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = b.build().unwrap();
        let hscan = insert_hscan(&core, &DftCosts::default());
        let rcg = Rcg::extract(&core, &hscan);
        // i->r1 and r2->o are lossless; r1->r2 through the ALU is not, but
        // HSCAN needed it for the chain, so a ScanMux edge replaces it.
        let existing = rcg
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, RcgEdgeKind::Existing { .. }))
            .count();
        assert_eq!(existing, 2);
    }
}
