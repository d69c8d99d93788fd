//! Split-aware transparency path search over the RCG (paper §4).
//!
//! Forward search propagates a core input's value to output port(s); the
//! reverse search justifies an output port's value from input(s). Both walk
//! the RCG breadth-first in spirit, but branch at split nodes:
//!
//! * forward, an O-split node spreads the data over *all* of its disjoint
//!   fan-out slices, so every slice group must reach an output;
//! * backward, a C-split node gathers its bits from *all* of its disjoint
//!   fan-in slices, so every slice group must be justified.
//!
//! Parallel branches that meet again (reconvergence at an O-split on the
//! backward search, as in the CPU example of Fig. 7) merge naturally. When
//! branches have unequal latency the shorter ones are *frozen* — extra hold
//! logic at their join — and the path latency is the maximum branch.

use crate::rcg::{EdgeId, Rcg, RcgNode};
use std::collections::HashSet;
use std::fmt;

/// Why transparency search (or version synthesis built on it) cannot
/// proceed for a core. These used to be `expect` panics deep inside the
/// synthesis path; the chip-level scheduler surfaces them as part of its
/// own typed error instead of crashing the whole exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The core has no input ports, so no data can ever be justified into
    /// it and no transparency mux has a source to steal from.
    NoInputPorts {
        /// Name of the offending core.
        core: String,
    },
    /// The core has no output ports, so nothing can be propagated out.
    NoOutputPorts {
        /// Name of the offending core.
        core: String,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NoInputPorts { core } => {
                write!(
                    f,
                    "core `{core}` has no input ports to route test data through"
                )
            }
            SearchError::NoOutputPorts { core } => {
                write!(
                    f,
                    "core `{core}` has no output ports to observe test data at"
                )
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// A transparency path found by [`forward_search`] or [`backward_search`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathFound {
    /// Total transparency latency in cycles (longest branch after
    /// balancing).
    pub latency: u32,
    /// Every RCG edge the path (tree) uses, deduplicated.
    pub edges: Vec<EdgeId>,
    /// The terminal nodes: output ports (forward) or input ports
    /// (backward). More than one means "a combination of ports", as in the
    /// paper's DISPLAY table.
    pub terminals: Vec<RcgNode>,
    /// The split-node fanin/fanout edges whose branches were shorter than
    /// the longest one and therefore need freeze (hold) logic — the paper's
    /// "for each fanin which does not fall on the longest subpath we add
    /// extra logic to freeze the data there". Keying freezes by edge lets
    /// version synthesis dedupe the same physical hardware across searches.
    pub freeze_edges: Vec<EdgeId>,
}

impl PathFound {
    /// Number of distinct freeze insertions.
    pub fn freezes(&self) -> u32 {
        self.freeze_edges.len() as u32
    }
}

/// Searches forward from input `from` for a way to propagate its value to
/// output port(s), using only edges for which `allowed` is true and never
/// touching `banned` edges.
///
/// Returns `None` when no propagation path exists under those constraints.
pub fn forward_search(
    rcg: &Rcg,
    from: RcgNode,
    allowed: &dyn Fn(EdgeId) -> bool,
    banned: &HashSet<EdgeId>,
) -> Option<PathFound> {
    let mut stack = Vec::new();
    let raw = walk(rcg, from, allowed, banned, &mut stack, SearchDir::Forward)?;
    Some(finish(raw))
}

/// Searches backward from output `to` for a way to justify its value from
/// input port(s), with the same edge constraints as [`forward_search`].
pub fn backward_search(
    rcg: &Rcg,
    to: RcgNode,
    allowed: &dyn Fn(EdgeId) -> bool,
    banned: &HashSet<EdgeId>,
) -> Option<PathFound> {
    let mut stack = Vec::new();
    let raw = walk(rcg, to, allowed, banned, &mut stack, SearchDir::Backward)?;
    Some(finish(raw))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SearchDir {
    Forward,
    Backward,
}

/// Raw search result before edge deduplication.
struct Raw {
    latency: u32,
    edges: Vec<EdgeId>,
    terminals: Vec<RcgNode>,
    freeze_edges: Vec<EdgeId>,
}

fn finish(raw: Raw) -> PathFound {
    let mut edges = raw.edges;
    edges.sort_unstable();
    edges.dedup();
    let mut terminals = raw.terminals;
    terminals.sort_unstable();
    terminals.dedup();
    let mut freeze_edges = raw.freeze_edges;
    freeze_edges.sort_unstable();
    freeze_edges.dedup();
    PathFound {
        latency: raw.latency,
        edges,
        terminals,
        freeze_edges,
    }
}

/// Recursive walk with an ancestor stack as the cycle guard. Exhaustive over
/// edge choices (RCGs are small — tens of nodes), minimizing latency.
fn walk(
    rcg: &Rcg,
    node: RcgNode,
    allowed: &dyn Fn(EdgeId) -> bool,
    banned: &HashSet<EdgeId>,
    stack: &mut Vec<RcgNode>,
    dir: SearchDir,
) -> Option<Raw> {
    // Terminal check.
    let at_terminal = match dir {
        SearchDir::Forward => node.is_output(),
        SearchDir::Backward => node.is_input(),
    };
    if at_terminal {
        return Some(Raw {
            latency: 0,
            edges: Vec::new(),
            terminals: vec![node],
            freeze_edges: Vec::new(),
        });
    }
    if stack.contains(&node) {
        return None;
    }
    stack.push(node);

    let edges: Vec<EdgeId> = match dir {
        SearchDir::Forward => rcg.edges_from(node).collect(),
        SearchDir::Backward => rcg.edges_into(node).collect(),
    };
    let must_split = match dir {
        SearchDir::Forward => rcg.is_o_split(node),
        SearchDir::Backward => rcg.is_c_split(node),
    };
    let groups = if must_split {
        slice_groups(rcg, edges, dir)
    } else {
        vec![edges]
    };
    let result = branch_walk(rcg, node, groups, stack, dir, allowed, banned);

    stack.pop();
    result
}

/// Groups a split node's *entire* structural fanout/fanin by overlap on
/// the node-side range: edges whose ranges overlap form one group (either
/// serves); disjoint ranges are separate mandatory branches.
fn slice_groups(rcg: &Rcg, edges: Vec<EdgeId>, dir: SearchDir) -> Vec<Vec<EdgeId>> {
    let node_range = |e: EdgeId| match dir {
        SearchDir::Forward => rcg.edge(e).from_range,
        SearchDir::Backward => rcg.edge(e).to_range,
    };
    let mut groups: Vec<Vec<EdgeId>> = Vec::new();
    for e in edges {
        let r = node_range(e);
        match groups
            .iter_mut()
            .find(|g| g.iter().any(|o| node_range(*o).overlaps(r)))
        {
            Some(g) => g.push(e),
            None => groups.push(vec![e]),
        }
    }
    groups
}

/// Every group must continue through the usable edge with the
/// minimum-latency continuation. A node that is not a split is one group
/// of all its edges.
///
/// A group whose every edge is disallowed makes the whole walk fail (the
/// data cannot cross the node bit-for-bit under the current edge
/// constraints), rather than silently dropping that slice.
fn branch_walk(
    rcg: &Rcg,
    node: RcgNode,
    mut groups: Vec<Vec<EdgeId>>,
    stack: &mut Vec<RcgNode>,
    dir: SearchDir,
    allowed: &dyn Fn(EdgeId) -> bool,
    banned: &HashSet<EdgeId>,
) -> Option<Raw> {
    for g in &mut groups {
        g.retain(|e| allowed(*e) && !banned.contains(e));
    }
    if groups.is_empty() || groups.iter().any(Vec::is_empty) {
        return None;
    }
    // Each group must succeed through one of its edges; remember the edge
    // each branch leaves the split node through — it is the freeze site
    // when the branch comes up short.
    let mut branch_results: Vec<(EdgeId, Raw)> = Vec::new();
    for group in groups {
        let mut best: Option<(EdgeId, Raw)> = None;
        for e in group {
            let edge = rcg.edge(e);
            let next = match dir {
                SearchDir::Forward => edge.to,
                SearchDir::Backward => edge.from,
            };
            let step = match dir {
                SearchDir::Forward => edge.latency(),
                SearchDir::Backward => u32::from(node.is_reg()),
            };
            if let Some(sub) = walk(rcg, next, allowed, banned, stack, dir) {
                let total = sub.latency + step;
                let better = best.as_ref().is_none_or(|(_, b)| total < b.latency);
                if better {
                    let mut edges = sub.edges;
                    edges.push(e);
                    best = Some((
                        e,
                        Raw {
                            latency: total,
                            edges,
                            terminals: sub.terminals,
                            freeze_edges: sub.freeze_edges,
                        },
                    ));
                }
            }
        }
        branch_results.push(best?);
    }
    // Balance: latency is the longest branch; each shorter branch gets a
    // freeze at the edge it leaves the split node through.
    let max_latency = branch_results
        .iter()
        .map(|(_, r)| r.latency)
        .max()
        .unwrap_or(0);
    let mut edges = Vec::new();
    let mut terminals = Vec::new();
    let mut freeze_edges = Vec::new();
    for (branch_edge, r) in branch_results {
        if r.latency < max_latency {
            freeze_edges.push(branch_edge);
        }
        freeze_edges.extend(r.freeze_edges);
        edges.extend(r.edges);
        terminals.extend(r.terminals);
    }
    Some(Raw {
        latency: max_latency,
        edges,
        terminals,
        freeze_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_cells::DftCosts;
    use socet_hscan::insert_hscan;
    use socet_rtl::{BitRange, Core, CoreBuilder, Direction, RtlNode};

    fn rcg_of(core: &Core) -> Rcg {
        let hscan = insert_hscan(core, &DftCosts::default());
        Rcg::extract(core, &hscan)
    }

    fn allow_all(_: EdgeId) -> bool {
        true
    }

    #[test]
    fn straight_pipeline_latency_counts_registers() {
        let mut b = CoreBuilder::new("pipe");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        let r3 = b.register("r3", 8).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_reg_to_reg(r1, r2).unwrap();
        b.connect_reg_to_reg(r2, r3).unwrap();
        b.connect_reg_to_port(r3, o).unwrap();
        let core = b.build().unwrap();
        let rcg = rcg_of(&core);
        let banned = HashSet::new();
        let fwd = forward_search(&rcg, RcgNode::In(i), &allow_all, &banned).unwrap();
        assert_eq!(fwd.latency, 3);
        assert_eq!(fwd.terminals, vec![RcgNode::Out(o)]);
        assert_eq!(fwd.freezes(), 0);
        let bwd = backward_search(&rcg, RcgNode::Out(o), &allow_all, &banned).unwrap();
        assert_eq!(bwd.latency, 3);
        assert_eq!(bwd.terminals, vec![RcgNode::In(i)]);
    }

    #[test]
    fn shortest_of_two_routes_wins() {
        let mut b = CoreBuilder::new("two");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let slow1 = b.register("slow1", 8).unwrap();
        let slow2 = b.register("slow2", 8).unwrap();
        let fast = b.register("fast", 8).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(slow1), 0)
            .unwrap();
        b.connect_reg_to_reg(slow1, slow2).unwrap();
        b.connect_mux(RtlNode::Reg(slow2), RtlNode::Reg(fast), 0)
            .unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(fast), 1)
            .unwrap();
        b.connect_reg_to_port(fast, o).unwrap();
        let core = b.build().unwrap();
        let rcg = rcg_of(&core);
        let banned = HashSet::new();
        let fwd = forward_search(&rcg, RcgNode::In(i), &allow_all, &banned).unwrap();
        assert_eq!(fwd.latency, 1, "direct i->fast->o route");
    }

    #[test]
    fn o_split_requires_all_slices_and_freezes_short_branch() {
        // i -> wide (8b); wide's low nibble goes straight to o1, the high
        // nibble takes an extra register hop to o2: unbalanced branches.
        let mut b = CoreBuilder::new("osplit");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o1 = b.port("o1", Direction::Out, 4).unwrap();
        let o2 = b.port("o2", Direction::Out, 4).unwrap();
        let wide = b.register("wide", 8).unwrap();
        let hop = b.register("hop", 4).unwrap();
        b.connect_port_to_reg(i, wide).unwrap();
        b.connect_slice(
            RtlNode::Reg(wide),
            BitRange::new(0, 3),
            RtlNode::Port(o1),
            BitRange::full(4),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Reg(wide),
            BitRange::new(4, 7),
            RtlNode::Reg(hop),
            BitRange::full(4),
        )
        .unwrap();
        b.connect_reg_to_port(hop, o2).unwrap();
        let core = b.build().unwrap();
        let rcg = rcg_of(&core);
        assert!(rcg.is_o_split(RcgNode::Reg(wide)));
        let banned = HashSet::new();
        let fwd = forward_search(&rcg, RcgNode::In(i), &allow_all, &banned).unwrap();
        // Longest branch: i ->1 wide ->1 hop ->0 o2 = 2 cycles.
        assert_eq!(fwd.latency, 2);
        // Both outputs are terminals.
        assert_eq!(fwd.terminals.len(), 2);
        // The o1 branch (1 cycle shorter) needs one freeze.
        assert_eq!(fwd.freezes(), 1);
    }

    #[test]
    fn c_split_justification_gathers_all_sources() {
        let mut b = CoreBuilder::new("csplit");
        let a = b.port("a", Direction::In, 4).unwrap();
        let c = b.port("c", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
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
        b.connect_reg_to_port(acc, o).unwrap();
        let core = b.build().unwrap();
        let rcg = rcg_of(&core);
        assert!(rcg.is_c_split(RcgNode::Reg(acc)));
        let banned = HashSet::new();
        let bwd = backward_search(&rcg, RcgNode::Out(o), &allow_all, &banned).unwrap();
        assert_eq!(bwd.latency, 1);
        assert_eq!(
            bwd.terminals.len(),
            2,
            "both inputs must feed the justification"
        );
    }

    #[test]
    fn banned_edges_force_detours_or_failure() {
        let mut b = CoreBuilder::new("pipe");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        let rcg = rcg_of(&core);
        let banned: HashSet<EdgeId> = rcg.edges_from(RcgNode::In(i)).collect();
        assert!(forward_search(&rcg, RcgNode::In(i), &allow_all, &banned).is_none());
    }

    #[test]
    fn hscan_only_filter_excludes_unclaimed_edges() {
        // Two parallel routes; HSCAN will claim one. Restricting to HSCAN
        // edges must still find a path, and it must be the claimed one.
        let mut b = CoreBuilder::new("par");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r1), 0)
            .unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r2), 0)
            .unwrap();
        b.connect_mux(RtlNode::Reg(r1), RtlNode::Reg(r2), 1)
            .unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = b.build().unwrap();
        let hscan = insert_hscan(&core, &DftCosts::default());
        let rcg = Rcg::extract(&core, &hscan);
        let banned = HashSet::new();
        let hscan_only = |e: EdgeId| rcg.edge(e).kind.is_hscan();
        let path = forward_search(&rcg, RcgNode::In(i), &hscan_only, &banned).unwrap();
        for e in &path.edges {
            assert!(rcg.edge(*e).kind.is_hscan());
        }
    }

    #[test]
    fn unreachable_output_fails_cleanly() {
        // An output with no fanin at all (driven by an FU): backward search
        // must return None rather than invent a path.
        let mut b = CoreBuilder::new("noin");
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
        let rcg = rcg_of(&core);
        let banned = HashSet::new();
        assert!(backward_search(&rcg, RcgNode::Out(o), &allow_all, &banned).is_none());
        assert!(backward_search(&rcg, RcgNode::Out(good), &allow_all, &banned).is_some());
    }

    #[test]
    fn search_results_are_deterministic() {
        let mut b = CoreBuilder::new("det");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r1), 0)
            .unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r2), 0)
            .unwrap();
        b.connect_mux(RtlNode::Reg(r1), RtlNode::Reg(r2), 1)
            .unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = b.build().unwrap();
        let rcg = rcg_of(&core);
        let banned = HashSet::new();
        let a = forward_search(&rcg, RcgNode::In(i), &allow_all, &banned).unwrap();
        let b2 = forward_search(&rcg, RcgNode::In(i), &allow_all, &banned).unwrap();
        assert_eq!(a, b2);
    }

    #[test]
    fn cyclic_rcg_terminates() {
        let mut b = CoreBuilder::new("cycle");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r1), 0)
            .unwrap();
        b.connect_mux(RtlNode::Reg(r2), RtlNode::Reg(r1), 1)
            .unwrap();
        b.connect_mux(RtlNode::Reg(r1), RtlNode::Reg(r2), 0)
            .unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = b.build().unwrap();
        let rcg = rcg_of(&core);
        let banned = HashSet::new();
        let fwd = forward_search(&rcg, RcgNode::In(i), &allow_all, &banned).unwrap();
        assert_eq!(fwd.latency, 2); // i -> r1 -> r2 -> o
    }
}
