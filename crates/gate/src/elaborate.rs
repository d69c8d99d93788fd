//! Elaboration: deterministic decomposition of an RTL [`Core`] into a
//! [`GateNetlist`].
//!
//! This is the workspace's stand-in for the paper's in-house synthesis /
//! technology-mapping tool. The rules are fixed and documented so that cell
//! counts are reproducible:
//!
//! * each register bit → one [`GateKind::Dff`];
//! * a sink with *n* drivers → a chain of *n−1* [`GateKind::Mux2`] per bit,
//!   steered by shared select inputs (one per extra driver, modeling the
//!   core's control lines);
//! * functional units → ripple adders/subtracters, comparator trees, mux
//!   shifters, ALUs (adder + logic + result mux), or seeded pseudo-random
//!   gate networks for uninterpreted control logic;
//! * unconnected sink bits → constant 0; registers with no driver hold
//!   their value (D = Q).

use crate::netlist::{GateError, GateKind, GateNetlist, GateNetlistBuilder, SignalId};
use socet_rtl::{Core, FuKind, FunctionalUnitId, PortId, RegisterId, RtlNode, Via};
use std::collections::HashMap;

/// The result of elaborating a core: the netlist plus the RTL↔gate bit maps
/// ATPG and the DFT engines need.
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// The gate-level netlist.
    pub netlist: GateNetlist,
    /// Per input port (indexed like `core.ports()`), the input signal of
    /// each bit; empty for output ports.
    pub input_bits: Vec<Vec<SignalId>>,
    /// Per output port, the output signal of each bit; empty for inputs.
    pub output_bits: Vec<Vec<SignalId>>,
    /// Per register, the Q signal of each bit.
    pub reg_bits: Vec<Vec<SignalId>>,
}

/// Options controlling [`elaborate_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElabOptions {
    /// Model each register with a load-enable input (`en_<reg>`): the
    /// register holds unless its enable is asserted, costing one extra mux
    /// per bit. The core-level (full-scan) view leaves this off — scan mode
    /// forces loading — but the flattened-chip experiments turn it on so
    /// the un-DFT'd chip shows realistic FSM-gated state, not free-running
    /// pipelines.
    pub load_enables: bool,
}

/// Elaborates `core` into gates.
///
/// The decomposition is purely structural and deterministic: elaborating the
/// same core twice yields identical netlists.
///
/// # Errors
///
/// Returns [`GateError`] if the decomposed netlist is malformed — in
/// practice only [`GateError::CombinationalLoop`] for pathological cores
/// whose functional units feed each other combinationally.
///
/// # Examples
///
/// ```
/// use socet_rtl::{CoreBuilder, Direction};
/// use socet_gate::elaborate;
/// let mut b = CoreBuilder::new("buf");
/// let i = b.port("i", Direction::In, 8)?;
/// let o = b.port("o", Direction::Out, 8)?;
/// let r = b.register("r", 8)?;
/// b.connect_port_to_reg(i, r)?;
/// b.connect_reg_to_port(r, o)?;
/// let core = b.build()?;
/// let elab = elaborate(&core)?;
/// assert_eq!(elab.netlist.flip_flop_count(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn elaborate(core: &Core) -> Result<Elaborated, GateError> {
    elaborate_with(core, &ElabOptions::default())
}

/// Elaborates `core` with explicit [`ElabOptions`].
///
/// # Errors
///
/// Same as [`elaborate`].
pub fn elaborate_with(core: &Core, opts: &ElabOptions) -> Result<Elaborated, GateError> {
    let _span = socet_obs::span(socet_obs::names::ELABORATE);
    let mut e = Elaborator::new(core);
    e.opts = *opts;
    let elab = e.run()?;
    socet_obs::add(
        socet_obs::Counter::GatesElaborated,
        elab.netlist.gates().len() as u64,
    );
    Ok(elab)
}

struct Elaborator<'a> {
    core: &'a Core,
    opts: ElabOptions,
    b: GateNetlistBuilder,
    input_bits: Vec<Vec<SignalId>>,
    output_bits: Vec<Vec<SignalId>>,
    reg_bits: Vec<Vec<SignalId>>,
    fu_out: HashMap<usize, Vec<SignalId>>,
    /// Shared mux select per (sink node, driver ordinal).
    selects: HashMap<(RtlNode, usize), SignalId>,
}

impl<'a> Elaborator<'a> {
    fn new(core: &'a Core) -> Self {
        Elaborator {
            core,
            opts: ElabOptions::default(),
            b: GateNetlistBuilder::new(core.name()),
            input_bits: vec![Vec::new(); core.ports().len()],
            output_bits: vec![Vec::new(); core.ports().len()],
            reg_bits: Vec::new(),
            fu_out: HashMap::new(),
            selects: HashMap::new(),
        }
    }

    fn run(mut self) -> Result<Elaborated, GateError> {
        // 1. Primary inputs.
        for (i, port) in self.core.ports().iter().enumerate() {
            if port.direction() == socet_rtl::Direction::In {
                let sigs = (0..port.width())
                    .map(|bit| self.b.input(&format!("{}[{bit}]", port.name())))
                    .collect();
                self.input_bits[i] = sigs;
            }
        }
        // 2. Flip-flops (D deferred).
        for reg in self.core.registers() {
            let sigs: Vec<SignalId> = (0..reg.width()).map(|_| self.b.dff_deferred()).collect();
            self.reg_bits.push(sigs);
        }
        // 3. Functional units, in dependency-free order (operands are
        // registers or ports, both already defined).
        let fu_ids: Vec<FunctionalUnitId> = self.core.functional_unit_ids().collect();
        for id in &fu_ids {
            let outs = self.elaborate_fu(*id);
            self.fu_out.insert(id.index(), outs);
        }
        // 4. Register D inputs.
        let reg_ids: Vec<RegisterId> = self.core.register_ids().collect();
        for (ri, reg_handle) in reg_ids.iter().enumerate() {
            let node = RtlNode::Reg(*reg_handle);
            let width = self.core.registers()[ri].width();
            let enable = if self.opts.load_enables {
                Some(
                    self.b
                        .input(&format!("en_{}", self.core.registers()[ri].name())),
                )
            } else {
                None
            };
            for bit in 0..width {
                let q = self.reg_bits[ri][bit as usize];
                let d = self.driver_expr(node, bit).unwrap_or(q); // no driver: hold
                let d = match enable {
                    Some(en) if d != q => self.b.mux(en, q, d),
                    _ => d,
                };
                self.b.set_dff_input(q, d);
            }
        }
        // 5. Output ports.
        let port_ids: Vec<PortId> = self.core.port_ids().collect();
        for (pi, port_handle) in port_ids.iter().enumerate() {
            let port = &self.core.ports()[pi];
            if port.direction() != socet_rtl::Direction::Out {
                continue;
            }
            let node = RtlNode::Port(*port_handle);
            let mut sigs = Vec::with_capacity(port.width() as usize);
            for bit in 0..port.width() {
                let d = match self.driver_expr(node, bit) {
                    Some(s) => s,
                    None => self.b.const0(),
                };
                let buf = self.b.gate1(GateKind::Buf, d);
                self.b.output(&format!("{}[{bit}]", port.name()), buf);
                sigs.push(buf);
            }
            self.output_bits[pi] = sigs;
        }
        let netlist = self.b.build()?;
        Ok(Elaborated {
            netlist,
            input_bits: self.input_bits,
            output_bits: self.output_bits,
            reg_bits: self.reg_bits,
        })
    }

    /// Signal of `node`'s bit `bit` when `node` is a source (input port,
    /// register Q, or FU output).
    fn source_bit(&self, node: RtlNode, bit: u16) -> SignalId {
        match node {
            RtlNode::Port(p) => self.input_bits[p.index()][bit as usize],
            RtlNode::Reg(r) => self.reg_bits[r.index()][bit as usize],
            RtlNode::Fu(u) => {
                let outs = &self.fu_out[&u.index()];
                outs[(bit as usize).min(outs.len() - 1)]
            }
        }
    }

    /// Builds the driver expression for one bit of a sink node from all
    /// connections that cover it, folding multiple drivers into a shared-
    /// select mux chain. Returns `None` when nothing drives the bit.
    fn driver_expr(&mut self, sink: RtlNode, bit: u16) -> Option<SignalId> {
        // Gather (ordinal, source signal) pairs for drivers covering `bit`.
        let mut drivers: Vec<(usize, RtlNode, u16, Via)> = Vec::new();
        for (ci, c) in self.core.connections().iter().enumerate() {
            if c.dst.node != sink || !c.dst.range.contains_bit(bit) {
                continue;
            }
            let offset = bit - c.dst.range.lsb();
            let src_bit = c.src.range.lsb() + offset;
            drivers.push((ci, c.src.node, src_bit, c.via));
        }
        if drivers.is_empty() {
            return None;
        }
        // Canonical order: by connection index (declaration order).
        drivers.sort_by_key(|d| d.0);
        let mut expr: Option<SignalId> = None;
        for (ordinal, (ci, src_node, src_bit, via)) in drivers.iter().enumerate() {
            let src_sig = match via {
                Via::ThroughFu(fu) => {
                    let outs = &self.fu_out[&fu.index()];
                    outs[(*src_bit as usize).min(outs.len() - 1)]
                }
                _ => self.source_bit(*src_node, *src_bit),
            };
            expr = Some(match expr {
                None => src_sig,
                Some(prev) => {
                    let sel = *self.selects.entry((sink, *ci)).or_insert_with(|| {
                        self.b
                            .input(&format!("sel_{}_{}", self.core.name_of(sink), ordinal))
                    });
                    self.b.mux(sel, prev, src_sig)
                }
            });
        }
        expr
    }

    /// Elaborates one functional unit; returns its output bit signals.
    fn elaborate_fu(&mut self, fu: FunctionalUnitId) -> Vec<SignalId> {
        let unit = &self.core.functional_units()[fu.index()];
        let w = unit.width() as usize;
        let name = unit.name().to_owned();
        // Operand sources: explicit fan-in connections plus ThroughFu users.
        let mut sources: Vec<Vec<SignalId>> = Vec::new();
        for c in self.core.connections() {
            let feeds = match c.via {
                Via::ThroughFu(f) if f == fu => true,
                _ => matches!(c.dst.node, RtlNode::Fu(f) if f == fu),
            };
            if !feeds {
                continue;
            }
            let sigs: Vec<SignalId> = c
                .src
                .range
                .bits()
                .map(|bit| self.source_bit(c.src.node, bit))
                .collect();
            sources.push(sigs);
        }
        let zero = self.b.const0();
        let take =
            |sources: &[Vec<SignalId>], i: usize, w: usize, zero: SignalId| -> Vec<SignalId> {
                let mut v = sources.get(i).cloned().unwrap_or_default();
                while v.len() < w {
                    v.push(zero);
                }
                v.truncate(w);
                v
            };
        let a = take(&sources, 0, w, zero);
        let bops = if sources.len() > 1 {
            take(&sources, 1, w, zero)
        } else {
            a.clone()
        };
        match unit.kind() {
            FuKind::Add => self.ripple_add(&a, &bops, false),
            FuKind::Sub => self.ripple_add(&a, &bops, true),
            FuKind::Inc => {
                let ones: Vec<SignalId> = {
                    let one = self.b.const1();
                    let mut v = vec![one];
                    v.resize(w, zero);
                    v
                };
                self.ripple_add(&a, &ones, false)
            }
            FuKind::Cmp => {
                let eq_bits: Vec<SignalId> = a
                    .iter()
                    .zip(&bops)
                    .map(|(&x, &y)| self.b.gate2(GateKind::Xnor2, x, y))
                    .collect();
                let eq = self.b.tree(GateKind::And2, &eq_bits);
                let mut outs = vec![eq];
                outs.resize(w, zero);
                outs
            }
            FuKind::Logic => a
                .iter()
                .zip(&bops)
                .map(|(&x, &y)| self.b.gate2(GateKind::And2, x, y))
                .collect(),
            FuKind::Shift => {
                // Left shift by one, with a mux per bit selecting shifted or
                // unshifted under a shared control input.
                let sel = self.b.input(&format!("shift_{name}_en"));
                (0..w)
                    .map(|i| {
                        let shifted = if i == 0 { zero } else { a[i - 1] };
                        self.b.mux(sel, a[i], shifted)
                    })
                    .collect()
            }
            FuKind::Alu => {
                let sum = self.ripple_add(&a, &bops, false);
                let logic: Vec<SignalId> = a
                    .iter()
                    .zip(&bops)
                    .map(|(&x, &y)| self.b.gate2(GateKind::And2, x, y))
                    .collect();
                let op = self.b.input(&format!("alu_{name}_op"));
                sum.iter()
                    .zip(&logic)
                    .map(|(&s, &l)| self.b.mux(op, s, l))
                    .collect()
            }
            FuKind::Random { gates } => self.random_network(&name, &a, &bops, w, gates),
        }
    }

    /// Ripple-carry adder (or subtracter when `sub`); returns sum bits.
    fn ripple_add(&mut self, a: &[SignalId], b: &[SignalId], sub: bool) -> Vec<SignalId> {
        let mut carry = if sub {
            self.b.const1()
        } else {
            self.b.const0()
        };
        let mut out = Vec::with_capacity(a.len());
        for (&x, &yraw) in a.iter().zip(b) {
            let y = if sub {
                self.b.gate1(GateKind::Not, yraw)
            } else {
                yraw
            };
            let p = self.b.gate2(GateKind::Xor2, x, y);
            let s = self.b.gate2(GateKind::Xor2, p, carry);
            let g1 = self.b.gate2(GateKind::And2, x, y);
            let g2 = self.b.gate2(GateKind::And2, p, carry);
            carry = self.b.gate2(GateKind::Or2, g1, g2);
            out.push(s);
        }
        out
    }

    /// Deterministic pseudo-random gate network for uninterpreted logic.
    fn random_network(
        &mut self,
        name: &str,
        a: &[SignalId],
        b: &[SignalId],
        w: usize,
        gates: u32,
    ) -> Vec<SignalId> {
        let mut seed = 0xcbf29ce484222325u64;
        for byte in name.bytes() {
            seed = (seed ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Build the block as `w` XOR trees over two-input leaf gates. A
        // fault at any leaf or tree node propagates to the tree root
        // unconditionally (XOR has no controlling value), and leaves with
        // distinct (kind, operand-pair) combinations never cancel each
        // other out — so the block stays almost fully testable, like real
        // synthesized control logic. Naive random gate soups or mixing
        // chains with reused side operands are 30–70% redundant and would
        // sink the chip's fault coverage far below the paper's ~98% regime.
        let mut pool: Vec<SignalId> = Vec::new();
        for s in a.iter().chain(b.iter()) {
            if !pool.contains(s) {
                pool.push(*s);
            }
        }
        if pool.is_empty() {
            pool.push(self.b.const0());
        }
        let n = pool.len();
        let leaf_kinds = [
            GateKind::And2,
            GateKind::Or2,
            GateKind::Nand2,
            GateKind::Nor2,
        ];
        // Walk the (kind, i<j operand pair) leaf combinations with an odd
        // seeded stride. The walk is not collision-free: it repeats with
        // period `combos / gcd(stride, combos)`, and the walk continues
        // across trees. When the period is shorter than a tree, leaves
        // repeat inside it, and an XOR subtree over an even number of
        // periods is constant 0. The CPU's `decode` block (8 pool signals,
        // 112 combinations, stride 77) has period 16 and 43 leaves per
        // tree, so the 32-leaf subtree at the start of each of its 8 trees
        // is constant (EXPERIMENTS.md).
        let pair_count = if n > 1 { n * (n - 1) / 2 } else { 1 };
        let combos = pair_count * leaf_kinds.len();
        let stride = (rng() as usize % combos) | 1;
        let mut combo_idx = rng() as usize % combos;
        let leaves_per_tree = ((gates as usize / w).max(2) / 2).max(1);
        let mut outs = Vec::with_capacity(w);
        for _ in 0..w {
            let mut leaves = Vec::with_capacity(leaves_per_tree);
            for _ in 0..leaves_per_tree {
                combo_idx = (combo_idx + stride) % combos;
                let kind = leaf_kinds[combo_idx % leaf_kinds.len()];
                let mut pair = combo_idx / leaf_kinds.len();
                // Decode the pair index into (i, j) with i < j.
                let (mut pi, mut pj) = (0usize, 1usize);
                if n > 1 {
                    'outer: for i in 0..n - 1 {
                        for j in i + 1..n {
                            if pair == 0 {
                                pi = i;
                                pj = j;
                                break 'outer;
                            }
                            pair -= 1;
                        }
                    }
                } else {
                    pj = 0;
                }
                leaves.push(self.b.gate2(kind, pool[pi], pool[pj.min(n - 1)]));
            }
            outs.push(self.b.tree(GateKind::Xor2, &leaves));
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CombSim;
    use socet_rtl::{BitRange, CoreBuilder, Direction};

    fn pipeline_core() -> Core {
        let mut b = CoreBuilder::new("pipe");
        let i = b.port("i", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let r1 = b.register("r1", 4).unwrap();
        let r2 = b.register("r2", 4).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_reg_to_reg(r1, r2).unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn pipeline_elaborates_to_dffs_and_buffers() {
        let core = pipeline_core();
        let e = elaborate(&core).unwrap();
        assert_eq!(e.netlist.flip_flop_count(), 8);
        assert_eq!(e.netlist.inputs().len(), 4);
        assert_eq!(e.netlist.outputs().len(), 4);
        // Data flows i -> r1 -> r2 -> o over two clocks.
        let sim = CombSim::new(&e.netlist);
        let (outs, next) = sim.run_with_state(&[true, false, true, false], &[false; 8]);
        assert_eq!(outs, vec![false; 4]);
        // r1 captured the input.
        assert_eq!(&next[0..4], &[true, false, true, false]);
    }

    #[test]
    fn mux_sinks_get_shared_selects() {
        let mut b = CoreBuilder::new("m");
        let i = b.port("i", Direction::In, 4).unwrap();
        let j = b.port("j", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let r = b.register("r", 4).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r), 0).unwrap();
        b.connect_mux(RtlNode::Port(j), RtlNode::Reg(r), 1).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        let e = elaborate(&core).unwrap();
        // 8 data inputs + 1 shared select.
        assert_eq!(e.netlist.inputs().len(), 9);
        let muxes = e
            .netlist
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Mux2)
            .count();
        assert_eq!(muxes, 4);
    }

    #[test]
    fn adder_fu_computes_sum() {
        let mut b = CoreBuilder::new("addcore");
        let i = b.port("i", Direction::In, 4).unwrap();
        let j = b.port("j", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let ra = b.register("ra", 4).unwrap();
        let rb = b.register("rb", 4).unwrap();
        let rs = b.register("rs", 4).unwrap();
        let add = b.functional_unit("add0", FuKind::Add, 4).unwrap();
        b.connect_port_to_reg(i, ra).unwrap();
        b.connect_port_to_reg(j, rb).unwrap();
        b.connect_reg_to_fu(ra, add).unwrap();
        b.connect_reg_to_fu(rb, add).unwrap();
        b.connect_fu_to_reg(add, rs).unwrap();
        b.connect_reg_to_port(rs, o).unwrap();
        let core = b.build().unwrap();
        let e = elaborate(&core).unwrap();
        let sim = CombSim::new(&e.netlist);
        // State: ra=3, rb=5, rs=0 -> next rs must be 8.
        let mut state = vec![false; 12];
        state[0] = true; // ra[0]
        state[1] = true; // ra[1]
        state[4] = true; // rb[0]
        state[6] = true; // rb[2]
        let (_, next) = sim.run_with_state(&[false; 8], &state);
        let rs_val: u32 = (0..4).map(|k| (next[8 + k] as u32) << k).sum();
        assert_eq!(rs_val, 8);
    }

    #[test]
    fn sliced_drivers_reach_the_right_bits() {
        let mut b = CoreBuilder::new("slice");
        let lo = b.port("lo", Direction::In, 4).unwrap();
        let hi = b.port("hi", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_slice(
            RtlNode::Port(lo),
            BitRange::full(4),
            RtlNode::Reg(r),
            BitRange::new(0, 3),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Port(hi),
            BitRange::full(4),
            RtlNode::Reg(r),
            BitRange::new(4, 7),
        )
        .unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        let e = elaborate(&core).unwrap();
        let sim = CombSim::new(&e.netlist);
        // lo = 0b1010, hi = 0b0001 -> r next = 0b0001_1010.
        let inputs = [false, true, false, true, true, false, false, false];
        let (_, next) = sim.run_with_state(&inputs, &[false; 8]);
        let val: u32 = (0..8).map(|k| (next[k] as u32) << k).sum();
        assert_eq!(val, 0b0001_1010);
    }

    #[test]
    fn random_network_is_deterministic() {
        let build = || {
            let mut b = CoreBuilder::new("rnd");
            let i = b.port("i", Direction::In, 4).unwrap();
            let o = b.port("o", Direction::Out, 4).unwrap();
            let r = b.register("r", 4).unwrap();
            let blob = b
                .functional_unit("ctl", FuKind::Random { gates: 30 }, 4)
                .unwrap();
            b.connect_port_to_fu(i, blob).unwrap();
            b.connect_fu_to_reg(blob, r).unwrap();
            b.connect_reg_to_port(r, o).unwrap();
            b.build().unwrap()
        };
        let e1 = elaborate(&build()).unwrap();
        let e2 = elaborate(&build()).unwrap();
        assert_eq!(e1.netlist.gates().len(), e2.netlist.gates().len());
        let s1 = CombSim::new(&e1.netlist);
        let s2 = CombSim::new(&e2.netlist);
        let ins = [true, false, true, true];
        assert_eq!(
            s1.run_with_state(&ins, &[false; 4]).1,
            s2.run_with_state(&ins, &[false; 4]).1
        );
    }

    #[test]
    fn unconnected_register_holds() {
        // A register with fanout but no fan-in must hold (D = Q).
        let mut b = CoreBuilder::new("hold");
        let i = b.port("i", Direction::In, 1).unwrap();
        let o = b.port("o", Direction::Out, 1).unwrap();
        let sink = b.register("sink", 1).unwrap();
        let holder = b.register("holder", 1).unwrap();
        b.connect_port_to_reg(i, sink).unwrap();
        b.connect_reg_to_port(holder, o).unwrap();
        // give `sink` a fanout so it is not dangling, and holder stays
        // driverless.
        b.connect_reg_to_reg(sink, holder).unwrap();
        let core = b.build().unwrap();
        let e = elaborate(&core).unwrap();
        assert_eq!(e.netlist.flip_flop_count(), 2);
    }

    #[test]
    fn area_matches_structural_estimate_for_simple_cores() {
        use socet_cells::CellLibrary;
        let core = pipeline_core();
        let e = elaborate(&core).unwrap();
        // 8 DFFs, no muxes, buffers are free.
        assert_eq!(e.netlist.area().cells(&CellLibrary::generic_08um()), 8);
    }
}
