//! The replay netlist: a gate-level model of the DFT-inserted chip as the
//! scheduler sees it — register banks, the RCG edge fabric each core's
//! selected transparency version uses, test-mode output muxes, and the
//! chip-level interconnect.
//!
//! The functional clouds inside each core are irrelevant to test-data
//! transport (transparency bypasses them by construction), so the shell
//! models exactly the machinery the schedule claims to use:
//!
//! * every register touched by a used RCG edge becomes a DFF bank whose D
//!   input is a priority mux chain over the edges writing it, gated by
//!   per-edge *activation* inputs; with every activation low the register
//!   holds — the paper's freezable core clock;
//! * every core output port is the same kind of mux chain over the edges
//!   driving it (default 0), then a final test-mode mux that substitutes
//!   the injected CUT response when the core is under test;
//! * chip nets wire pins and ports together through the chip's one
//!   interconnect rule, [`Soc::bit_driver`]: each core-input and PO bit
//!   reads the last net covering it. `socet_baselines::flatten_soc` makes
//!   the same call, so the shell and the functional flattening agree by
//!   construction; a memory source or an undriven bit reads constant 0 in
//!   both.
//!
//! Every logic-core input-port bit is exported as an `obs_*` output (the
//! oracle's window for invariant (a)) and every chip PO bit as a `po_*`
//! output (invariant (b)).

use crate::VerifyError;
use socet_core::{CoreTestData, DesignPoint};
use socet_gate::{GateNetlist, GateNetlistBuilder, SignalId};
use socet_rtl::{ChipPinId, CoreInstanceId, PortId, RegisterId, Soc, Terminal};
use socet_transparency::{level_support, Rcg, RcgNode, TransparencyPath};
use std::collections::HashMap;

/// What one primary input of the shell netlist means. The vector of roles
/// is index-aligned with [`GateNetlist::inputs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputRole {
    /// Bit `bit` of chip input pin `pin`.
    Pin {
        /// The chip pin.
        pin: ChipPinId,
        /// The bit.
        bit: u16,
    },
    /// Test-mode flag of a logic core: high substitutes the injected
    /// response on every output port.
    TestMode {
        /// The core.
        core: CoreInstanceId,
    },
    /// Bit `bit` of the response word injected at output `port` of `core`
    /// while it is under test.
    Inject {
        /// The core.
        core: CoreInstanceId,
        /// The output port.
        port: PortId,
        /// The bit.
        bit: u16,
    },
    /// Activation of RCG edge `edge` (index into the core's support RCG) of
    /// `core`: high lets the edge load its destination this cycle.
    Act {
        /// The core.
        core: CoreInstanceId,
        /// The RCG edge index.
        edge: usize,
    },
}

/// The per-core transparency fabric the shell instantiated: the support RCG
/// of the selected version (whose `EdgeId`s the version's paths index), the
/// paths themselves, and the used-edge set.
pub struct CoreFabric {
    /// The support RCG of the selected level.
    pub rcg: Rcg,
    /// The selected version's transparency paths (identical to the plan's).
    pub paths: Vec<TransparencyPath>,
    /// Deduplicated RCG edge indices used by any path, ascending.
    pub used_edges: Vec<usize>,
    /// Relaxed node times per path: cycles after the hop start at which the
    /// node's value is available (inputs at 0, registers at ≥ 1).
    pub path_times: Vec<HashMap<RcgNode, u32>>,
}

impl CoreFabric {
    /// The edges of path `path` that (transitively) feed `Out(output)` —
    /// the cone the oracle activates, leaving the path's other terminals
    /// quiet so concurrent routes are not disturbed. Ascending edge order.
    pub fn cone(&self, path: usize, output: PortId) -> Vec<usize> {
        let edges = &self.paths[path].edges;
        let mut nodes: Vec<RcgNode> = vec![RcgNode::Out(output)];
        let mut member = vec![false; edges.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (k, id) in edges.iter().enumerate() {
                if member[k] {
                    continue;
                }
                let e = self.rcg.edge(*id);
                if nodes.contains(&e.to) {
                    member[k] = true;
                    changed = true;
                    if !nodes.contains(&e.from) {
                        nodes.push(e.from);
                    }
                }
            }
        }
        edges
            .iter()
            .enumerate()
            .filter(|(k, _)| member[*k])
            .map(|(_, id)| id.index())
            .collect()
    }
}

/// The assembled replay netlist plus every index the oracle needs to drive
/// and observe it.
pub struct Shell {
    /// The gate netlist (one per SOC + version choice, shared by all
    /// episodes).
    pub netlist: GateNetlist,
    /// Roles of the netlist's primary inputs, index-aligned.
    pub input_roles: Vec<InputRole>,
    /// `(core, edge index) → input position` for activation inputs.
    pub act_index: HashMap<(CoreInstanceId, usize), usize>,
    /// `core → input position` for test-mode inputs.
    pub tm_index: HashMap<CoreInstanceId, usize>,
    /// `(core, input port, bit) → output position` of the `obs_*` outputs.
    pub obs_index: HashMap<(CoreInstanceId, PortId, u16), usize>,
    /// `(pin, bit) → output position` of the `po_*` outputs.
    pub po_index: HashMap<(ChipPinId, u16), usize>,
    /// Per logic core (indexed by `CoreInstanceId::index`), its fabric.
    pub fabrics: HashMap<usize, CoreFabric>,
}

impl Shell {
    /// Builds the shell of `soc` under `plan.choice`.
    pub fn build(
        soc: &Soc,
        data: &[Option<CoreTestData>],
        plan: &DesignPoint,
    ) -> Result<Shell, VerifyError> {
        let mut b = GateNetlistBuilder::new(&format!("{}_replay_shell", soc.name()));
        let mut roles = Vec::new();
        let mut act_index = HashMap::new();
        let mut tm_index = HashMap::new();

        // 1. Chip input pins.
        let mut pin_sig: HashMap<(usize, u16), SignalId> = HashMap::new();
        for pin in soc.primary_inputs() {
            for bit in 0..soc.pin(pin).width() {
                let s = b.input(&format!("pi_{}_{}", pin.index(), bit));
                pin_sig.insert((pin.index(), bit), s);
                roles.push(InputRole::Pin { pin, bit });
            }
        }

        // 2. Per-core test-mode flags.
        let mut tm_sig: HashMap<usize, SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let s = b.input(&format!("tm_c{}", cid.index()));
            tm_index.insert(cid, roles.len());
            roles.push(InputRole::TestMode { core: cid });
            tm_sig.insert(cid.index(), s);
        }

        // 3. Injected CUT responses, one word per output port.
        let mut inj_sig: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let core = soc.core(cid).core();
            for port in core.output_ports() {
                for bit in 0..core.port(port).width() {
                    let s = b.input(&format!("inj_c{}_p{}_{}", cid.index(), port.index(), bit));
                    inj_sig.insert((cid.index(), port.index(), bit), s);
                    roles.push(InputRole::Inject {
                        core: cid,
                        port,
                        bit,
                    });
                }
            }
        }

        // 4. Resolve each core's selected version into its support RCG and
        //    declare one activation input per used edge.
        let mut fabrics: HashMap<usize, CoreFabric> = HashMap::new();
        let mut act_sig: HashMap<(usize, usize), SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let td = data
                .get(cid.index())
                .and_then(|d| d.as_ref())
                .ok_or_else(|| VerifyError::Model(format!("core {cid} has no test data")))?;
            let choice = *plan.choice.get(cid.index()).unwrap_or(&0);
            let version = td.versions.get(choice).ok_or_else(|| {
                VerifyError::Model(format!("core {cid}: choice {choice} out of range"))
            })?;
            let core = soc.core(cid).core();
            let (rcg, paths) =
                level_support(core, &td.hscan, version.level()).map_err(VerifyError::Search)?;
            if paths != version.paths() {
                return Err(VerifyError::Model(format!(
                    "core {cid}: level_support paths diverge from the version ladder"
                )));
            }
            let mut used: Vec<usize> = paths
                .iter()
                .flat_map(|p| p.edges.iter().map(|e| e.index()))
                .collect();
            used.sort_unstable();
            used.dedup();
            for &e in &used {
                let s = b.input(&format!("act_c{}_e{}", cid.index(), e));
                act_index.insert((cid, e), roles.len());
                roles.push(InputRole::Act { core: cid, edge: e });
                act_sig.insert((cid.index(), e), s);
            }
            let path_times = paths.iter().map(|p| relax_times(&rcg, p)).collect();
            fabrics.insert(
                cid.index(),
                CoreFabric {
                    rcg,
                    paths,
                    used_edges: used,
                    path_times,
                },
            );
        }

        // 5. Placeholder inputs for every logic-core input-port bit; rewired
        //    to their net drivers once all core outputs exist (chip nets may
        //    connect cores in any order).
        let mut ph_sig: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let core = soc.core(cid).core();
            for port in core.input_ports() {
                for bit in 0..core.port(port).width() {
                    let s = b.input(&format!("ph_c{}_p{}_{}", cid.index(), port.index(), bit));
                    ph_sig.insert((cid.index(), port.index(), bit), s);
                }
            }
        }

        // 6. Register banks: deferred DFFs first (D chains may read other
        //    registers of the same core), then the hold/load mux chains.
        let mut wires = Wires {
            act: act_sig,
            ph: ph_sig,
            reg_q: HashMap::new(),
        };
        let mut registers = Vec::new();
        for cid in soc.logic_cores() {
            let fab = &fabrics[&cid.index()];
            let core = soc.core(cid).core();
            let mut regs: Vec<RegisterId> = fab
                .used_edges
                .iter()
                .flat_map(|&e| {
                    let edge = &fab.rcg.edges()[e];
                    [edge.from, edge.to]
                })
                .filter_map(|n| match n {
                    RcgNode::Reg(r) => Some(r),
                    _ => None,
                })
                .collect();
            regs.sort_unstable();
            regs.dedup();
            for r in regs {
                let w = core.register(r).width();
                for bit in 0..w {
                    let q = b.dff_deferred();
                    wires.reg_q.insert((cid.index(), r.index(), bit), q);
                }
                registers.push((cid.index(), r, w));
            }
        }

        // 7. D chains: default hold.
        for &(ci, r, w) in &registers {
            for bit in 0..w {
                let q = wires.reg_q[&(ci, r.index(), bit)];
                let d = wires.edge_chain(&mut b, &fabrics[&ci], ci, RcgNode::Reg(r), bit, q);
                b.set_dff_input(q, d);
            }
        }

        // 8. Core output ports: fabric mux chain (default 0) then the
        //    test-mode injection mux. Memory-core outputs are constant 0.
        let mut core_out: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
        for (ci, inst) in soc.cores().iter().enumerate() {
            let core = inst.core();
            for port in core.output_ports() {
                for bit in 0..core.port(port).width() {
                    let zero = b.const0();
                    let sig = if inst.is_memory() {
                        zero
                    } else {
                        let to = RcgNode::Out(port);
                        let v = wires.edge_chain(&mut b, &fabrics[&ci], ci, to, bit, zero);
                        let inj = inj_sig[&(ci, port.index(), bit)];
                        b.mux(tm_sig[&ci], v, inj)
                    };
                    core_out.insert((ci, port.index(), bit), sig);
                }
            }
        }

        // 9. Chip nets: each core-input placeholder and PO tap reads the
        //    driver `Soc::bit_driver` names (a memory output reads the
        //    constant 0 of step 8); an undriven bit reads a fresh constant 0.
        let driver = |b: &mut GateNetlistBuilder, sink, bit| match soc.bit_driver(sink, bit) {
            Some((Terminal::Pin(pin), sbit)) => pin_sig[&(pin.index(), sbit)],
            Some((Terminal::Port(core, port), sbit)) => {
                core_out[&(core.index(), port.index(), sbit)]
            }
            None => b.const0(),
        };
        let mut obs_index = HashMap::new();
        let mut outs: Vec<(String, SignalId)> = Vec::new();
        for cid in soc.logic_cores() {
            let core = soc.core(cid).core();
            for port in core.input_ports() {
                for bit in 0..core.port(port).width() {
                    let d = driver(&mut b, Terminal::Port(cid, port), bit);
                    b.rewire_input(wires.ph[&(cid.index(), port.index(), bit)], d);
                    obs_index.insert((cid, port, bit), outs.len());
                    outs.push((format!("obs_c{}_p{}_{}", cid.index(), port.index(), bit), d));
                }
            }
        }
        let mut po_index = HashMap::new();
        for pin in soc.primary_outputs() {
            for bit in 0..soc.pin(pin).width() {
                let d = driver(&mut b, Terminal::Pin(pin), bit);
                po_index.insert((pin, bit), outs.len());
                outs.push((format!("po_{}_{}", pin.index(), bit), d));
            }
        }
        for (name, s) in outs {
            b.output(&name, s);
        }

        // Memory-core input ports have no placeholders; nets into them
        // simply dangle, matching flatten_soc.
        let netlist = b.build().map_err(VerifyError::Netlist)?;
        if netlist.inputs().len() != roles.len() {
            return Err(VerifyError::Model(format!(
                "shell input accounting is off: {} inputs vs {} roles",
                netlist.inputs().len(),
                roles.len()
            )));
        }
        Ok(Shell {
            netlist,
            input_roles: roles,
            act_index,
            tm_index,
            obs_index,
            po_index,
            fabrics,
        })
    }
}

/// Bit-level signals keyed by `(core index, port or register index, bit)`.
type BitMap = HashMap<(usize, usize, u16), SignalId>;

/// The signals the RCG edge fabric reads and is gated by.
struct Wires {
    /// `(core index, edge index) → activation input`.
    act: HashMap<(usize, usize), SignalId>,
    /// Input-port placeholders.
    ph: BitMap,
    /// Register Q outputs.
    reg_q: BitMap,
}

impl Wires {
    /// The priority mux chain driving bit `bit` of node `to` of core `ci`:
    /// `init` while every activation is low; each used edge writing the bit
    /// adds a mux that passes the edge's source bit while the edge is
    /// active. A later edge index is the outer mux, so it wins a tie.
    fn edge_chain(
        &self,
        b: &mut GateNetlistBuilder,
        fab: &CoreFabric,
        ci: usize,
        to: RcgNode,
        bit: u16,
        init: SignalId,
    ) -> SignalId {
        let mut v = init;
        for &e in &fab.used_edges {
            let edge = fab.rcg.edges()[e];
            if edge.to != to || !edge.to_range.contains_bit(bit) {
                continue;
            }
            let sbit = edge.from_range.lsb() + (bit - edge.to_range.lsb());
            let src = match edge.from {
                RcgNode::In(p) => self.ph.get(&(ci, p.index(), sbit)),
                RcgNode::Reg(r) => self.reg_q.get(&(ci, r.index(), sbit)),
                RcgNode::Out(_) => None,
            };
            if let Some(&src) = src {
                v = b.mux(self.act[&(ci, e)], v, src);
            }
        }
        v
    }
}

/// Relaxed availability times of a path's nodes: inputs at 0, every edge
/// `u → v` imposes `time(v) ≥ time(u) + latency(edge)`. The fixpoint is the
/// cycle (relative to the hop start) at which each node carries the word.
fn relax_times(rcg: &Rcg, path: &TransparencyPath) -> HashMap<RcgNode, u32> {
    let mut t: HashMap<RcgNode, u32> = HashMap::new();
    for p in &path.inputs {
        t.insert(RcgNode::In(*p), 0);
    }
    // |edges| passes suffice: each pass settles at least one edge.
    for _ in 0..path.edges.len() {
        let mut changed = false;
        for id in &path.edges {
            let e = rcg.edge(*id);
            let Some(&from) = t.get(&e.from) else {
                continue;
            };
            let cand = from + e.latency();
            let cur = t.get(&e.to).copied();
            if cur.is_none_or(|c| cand > c) {
                t.insert(e.to, cand);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_baselines::flatten_soc;
    use socet_cells::{AreaReport, DftCosts};
    use socet_gate::CombSim;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    /// A core input driven first by a logic core and then by a memory
    /// reads the memory's constant 0 in both the shell and the functional
    /// flattening: they resolve interconnect through one rule.
    #[test]
    fn shell_and_flattening_agree_on_a_memory_driven_input() {
        let mut cb = CoreBuilder::new("buf");
        let i = cb.port("i", Direction::In, 4).unwrap();
        let o = cb.port("o", Direction::Out, 4).unwrap();
        let r = cb.register("r", 4).unwrap();
        cb.connect_port_to_reg(i, r).unwrap();
        cb.connect_reg_to_port(r, o).unwrap();
        let buf = Arc::new(cb.build().unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).unwrap();
        let po = sb.output_pin("po", 4).unwrap();
        let u0 = sb.instantiate("u0", buf.clone()).unwrap();
        let ram = sb.instantiate_memory("ram", buf.clone()).unwrap();
        let u1 = sb.instantiate("u1", buf).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_pin_to_core(pi, ram, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_cores(ram, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();

        // Flattening: with every input and flip-flop high, u0 loads the PI
        // and u1 loads its tied-low input.
        let flat = flatten_soc(&soc).unwrap();
        let (_, next) = CombSim::new(&flat).run_with_state(
            &vec![true; flat.inputs().len()],
            &vec![true; flat.flip_flop_count()],
        );
        assert_eq!(next, [[true; 4], [false; 4]].concat());

        // Shell: u1's input taps read 0 while u0's read the PI.
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 1).unwrap();
        let plan = DesignPoint {
            choice: vec![0; soc.cores().len()],
            chip_overhead: AreaReport::default(),
            episodes: Vec::new(),
            system_muxes: Vec::new(),
            pair_usage: Vec::new(),
            tested_nets: Vec::new(),
        };
        let shell = Shell::build(&soc, &data, &plan).unwrap();
        let (outs, _) = CombSim::new(&shell.netlist).run_with_state(
            &vec![true; shell.netlist.inputs().len()],
            &vec![true; shell.netlist.flip_flop_count()],
        );
        for bit in 0..4 {
            assert!(outs[shell.obs_index[&(u0, i, bit)]]);
            assert!(!outs[shell.obs_index[&(u1, i, bit)]]);
        }
    }
}
