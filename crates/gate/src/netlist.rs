//! The flat gate netlist: one signal per gate, fixed-arity gates.

use socet_cells::{AreaReport, CellKind};
use std::error::Error;
use std::fmt;

/// Identifier of a signal; each signal is defined by exactly one gate, so
/// this doubles as the gate's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Sentinel for an unused gate operand.
    pub(crate) const NONE: SignalId = SignalId(u32::MAX);

    /// The signal's index within the netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a signal id from a dense index, the inverse of
    /// [`SignalId::index`]. The caller is responsible for keeping the index
    /// within the owning netlist's gate count.
    pub fn from_index(i: usize) -> SignalId {
        SignalId(i as u32)
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of a gate.
///
/// Gates are at most 3-input ([`GateKind::Mux2`]: select, then the `s=0`
/// and `s=1` data legs). [`GateKind::Dff`] is the only sequential kind; its
/// single operand is the D input and its defined signal is Q.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Constant 0 source.
    Const0,
    /// Constant 1 source.
    Const1,
    /// Primary input.
    Input,
    /// D flip-flop; operand `a` is D, the defined signal is Q.
    Dff,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 mux: operands are `(s, a0, a1)`, output is `a0` when `s=0`.
    Mux2,
}

impl GateKind {
    /// Number of operands the gate consumes.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            GateKind::Const0 | GateKind::Const1 | GateKind::Input => 0,
            GateKind::Dff | GateKind::Not | GateKind::Buf => 1,
            GateKind::And2
            | GateKind::Or2
            | GateKind::Nand2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2 => 2,
            GateKind::Mux2 => 3,
        }
    }

    /// The [`CellKind`] this gate maps onto for area accounting, or `None`
    /// for zero-area pseudo-gates (inputs, constants, buffers).
    pub fn cell(self) -> Option<CellKind> {
        match self {
            GateKind::Const0 | GateKind::Const1 | GateKind::Input | GateKind::Buf => None,
            GateKind::Dff => Some(CellKind::Dff),
            GateKind::Not => Some(CellKind::Inv),
            GateKind::And2 => Some(CellKind::And2),
            GateKind::Or2 => Some(CellKind::Or2),
            GateKind::Nand2 => Some(CellKind::Nand2),
            GateKind::Nor2 => Some(CellKind::Nor2),
            GateKind::Xor2 | GateKind::Xnor2 => Some(CellKind::Xor2),
            GateKind::Mux2 => Some(CellKind::Mux2),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Input => "input",
            GateKind::Dff => "dff",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
            GateKind::And2 => "and2",
            GateKind::Or2 => "or2",
            GateKind::Nand2 => "nand2",
            GateKind::Nor2 => "nor2",
            GateKind::Xor2 => "xor2",
            GateKind::Xnor2 => "xnor2",
            GateKind::Mux2 => "mux2",
        };
        f.write_str(s)
    }
}

/// One gate: kind plus up to three operand signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The gate's kind.
    pub kind: GateKind,
    pub(crate) ops: [SignalId; 3],
}

impl Gate {
    /// The gate's operands (exactly [`GateKind::arity`] of them).
    #[inline]
    pub fn operands(&self) -> &[SignalId] {
        &self.ops[..self.kind.arity()]
    }
}

/// Errors raised while finalizing a [`GateNetlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// The combinational part of the netlist contains a cycle.
    CombinationalLoop {
        /// A signal on the cycle.
        signal: SignalId,
    },
    /// An operand references a signal defined later without being a flip-flop
    /// boundary (builder misuse).
    UndefinedOperand {
        /// The gate whose operand is invalid.
        gate: SignalId,
    },
    /// The netlist has no outputs.
    NoOutputs,
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::CombinationalLoop { signal } => {
                write!(f, "combinational loop through {signal}")
            }
            GateError::UndefinedOperand { gate } => {
                write!(f, "gate {gate} references an undefined operand")
            }
            GateError::NoOutputs => f.write_str("netlist has no outputs"),
        }
    }
}

impl Error for GateError {}

/// A finalized gate netlist.
///
/// Signals are densely indexed; `gate(i)` defines signal `i`. Inputs and
/// outputs carry names so elaboration can map them back to RTL port bits.
///
/// The *combinational view* used by ATPG treats every DFF Q as a pseudo
/// primary input and every DFF D as a pseudo primary output — the full-scan
/// assumption that HSCAN justifies.
#[derive(Debug, Clone)]
pub struct GateNetlist {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<(String, SignalId)>,
    pub(crate) outputs: Vec<(String, SignalId)>,
    pub(crate) topo: Vec<SignalId>,
}

impl GateNetlist {
    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates; `gates()[i]` defines signal `i`.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate defining `signal`.
    pub fn gate(&self, signal: SignalId) -> &Gate {
        &self.gates[signal.index()]
    }

    /// Named primary inputs in declaration order.
    pub fn inputs(&self) -> &[(String, SignalId)] {
        &self.inputs
    }

    /// Named primary outputs in declaration order.
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// Signals of all D flip-flops (their Q outputs), in index order.
    pub fn flip_flops(&self) -> Vec<SignalId> {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind == GateKind::Dff)
            .map(|(i, _)| SignalId(i as u32))
            .collect()
    }

    /// Number of D flip-flops.
    pub fn flip_flop_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::Dff)
            .count()
    }

    /// Evaluation order of the combinational gates: every operand of a gate
    /// either precedes it in this order or is an [`GateKind::Input`],
    /// [`GateKind::Dff`] or constant.
    pub fn topo_order(&self) -> &[SignalId] {
        &self.topo
    }

    /// Pseudo primary inputs of the combinational (full-scan) view: the real
    /// inputs followed by every DFF Q.
    pub fn comb_inputs(&self) -> Vec<SignalId> {
        let mut v: Vec<SignalId> = self.inputs.iter().map(|(_, s)| *s).collect();
        v.extend(self.flip_flops());
        v
    }

    /// Pseudo primary outputs of the combinational view: the real outputs
    /// followed by every DFF D signal.
    pub fn comb_outputs(&self) -> Vec<SignalId> {
        let mut v: Vec<SignalId> = self.outputs.iter().map(|(_, s)| *s).collect();
        v.extend(
            self.gates
                .iter()
                .filter(|g| g.kind == GateKind::Dff)
                .map(|g| g.ops[0]),
        );
        v
    }

    /// Area of the netlist under `lib`, counting each gate's mapped cell.
    ///
    /// # Examples
    ///
    /// ```
    /// use socet_gate::{GateKind, GateNetlistBuilder};
    /// use socet_cells::CellLibrary;
    /// let mut b = GateNetlistBuilder::new("n");
    /// let a = b.input("a");
    /// let q = b.dff(a);
    /// b.output("q", q);
    /// let nl = b.build()?;
    /// assert_eq!(nl.area().cells(&CellLibrary::generic_08um()), 1);
    /// # Ok::<(), socet_gate::GateError>(())
    /// ```
    pub fn area(&self) -> AreaReport {
        let mut r = AreaReport::new();
        for g in &self.gates {
            if let Some(cell) = g.kind.cell() {
                r.tally(cell, 1);
            }
        }
        r
    }

    /// Position of every signal in [`GateNetlist::topo_order`], or
    /// `u32::MAX` for sources (inputs, flip-flops, constants) that never
    /// appear in it. Fault-cone construction sorts transitive fanouts with
    /// this so cone members can be re-evaluated in one forward pass.
    pub fn topo_positions(&self) -> Vec<u32> {
        let mut pos = vec![u32::MAX; self.gates.len()];
        for (k, s) in self.topo.iter().enumerate() {
            pos[s.index()] = k as u32;
        }
        pos
    }

    /// Fanout lists: for each signal, the gates that consume it.
    pub fn fanouts(&self) -> Vec<Vec<SignalId>> {
        let mut fo = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for op in g.operands() {
                fo[op.index()].push(SignalId(i as u32));
            }
        }
        fo
    }
}

impl fmt::Display for GateNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist {} ({} gates, {} inputs, {} outputs, {} FFs)",
            self.name,
            self.gates.len(),
            self.inputs.len(),
            self.outputs.len(),
            self.flip_flop_count()
        )
    }
}

/// Builder for a [`GateNetlist`].
///
/// All the `gate*` methods return the [`SignalId`] the new gate defines, so
/// netlists are built expression-style.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateKind, GateNetlistBuilder};
/// let mut b = GateNetlistBuilder::new("maj3");
/// let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
/// let xy = b.gate2(GateKind::And2, x, y);
/// let yz = b.gate2(GateKind::And2, y, z);
/// let xz = b.gate2(GateKind::And2, x, z);
/// let t = b.gate2(GateKind::Or2, xy, yz);
/// let m = b.gate2(GateKind::Or2, t, xz);
/// b.output("maj", m);
/// let nl = b.build()?;
/// assert_eq!(nl.gates().len(), 8);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GateNetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<(String, SignalId)>,
    outputs: Vec<(String, SignalId)>,
}

impl GateNetlistBuilder {
    /// Starts a netlist called `name`.
    pub fn new(name: &str) -> Self {
        GateNetlistBuilder {
            name: name.to_owned(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn push(&mut self, kind: GateKind, ops: [SignalId; 3]) -> SignalId {
        let id = SignalId(self.gates.len() as u32);
        self.gates.push(Gate { kind, ops });
        id
    }

    /// Declares a named primary input and returns its signal.
    pub fn input(&mut self, name: &str) -> SignalId {
        let id = self.push(GateKind::Input, [SignalId::NONE; 3]);
        self.inputs.push((name.to_owned(), id));
        id
    }

    /// Constant 0 signal.
    pub fn const0(&mut self) -> SignalId {
        self.push(GateKind::Const0, [SignalId::NONE; 3])
    }

    /// Constant 1 signal.
    pub fn const1(&mut self) -> SignalId {
        self.push(GateKind::Const1, [SignalId::NONE; 3])
    }

    /// A D flip-flop with D = `d`; returns its Q signal.
    pub fn dff(&mut self, d: SignalId) -> SignalId {
        self.push(GateKind::Dff, [d, SignalId::NONE, SignalId::NONE])
    }

    /// A D flip-flop whose D input will be set later via
    /// [`GateNetlistBuilder::set_dff_input`]; returns its Q signal.
    ///
    /// This is how elaboration handles registers whose next-state logic
    /// depends on their own Q (loops through the DFF boundary are fine).
    pub fn dff_deferred(&mut self) -> SignalId {
        self.push(GateKind::Dff, [SignalId::NONE; 3])
    }

    /// Sets the D input of a flip-flop created by
    /// [`GateNetlistBuilder::dff_deferred`].
    ///
    /// # Panics
    ///
    /// Panics if `q` does not identify a DFF.
    pub fn set_dff_input(&mut self, q: SignalId, d: SignalId) {
        let g = &mut self.gates[q.index()];
        assert_eq!(g.kind, GateKind::Dff, "set_dff_input on non-DFF {q}");
        g.ops[0] = d;
    }

    /// A 1-input gate (`Not` or `Buf`).
    pub fn gate1(&mut self, kind: GateKind, a: SignalId) -> SignalId {
        assert_eq!(kind.arity(), 1, "gate1 with {kind}");
        self.push(kind, [a, SignalId::NONE, SignalId::NONE])
    }

    /// A 2-input gate.
    pub fn gate2(&mut self, kind: GateKind, a: SignalId, b: SignalId) -> SignalId {
        assert_eq!(kind.arity(), 2, "gate2 with {kind}");
        self.push(kind, [a, b, SignalId::NONE])
    }

    /// A 2:1 mux selecting `a0` when `s = 0` and `a1` when `s = 1`.
    pub fn mux(&mut self, s: SignalId, a0: SignalId, a1: SignalId) -> SignalId {
        self.push(GateKind::Mux2, [s, a0, a1])
    }

    /// Marks `signal` as a named primary output.
    pub fn output(&mut self, name: &str, signal: SignalId) {
        self.outputs.push((name.to_owned(), signal));
    }

    /// Reduction over a slice with a 2-input gate kind (balanced tree).
    ///
    /// # Panics
    ///
    /// Panics if `signals` is empty or `kind` is not 2-input.
    pub fn tree(&mut self, kind: GateKind, signals: &[SignalId]) -> SignalId {
        assert!(!signals.is_empty(), "tree over no signals");
        let mut layer: Vec<SignalId> = signals.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate2(kind, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Copies every gate of `nl` into this builder, returning the signal
    /// translation table (`map[old.index()] = new id`). Input gates keep
    /// their kind and are registered under `prefix/` + their old name;
    /// outputs of `nl` are *not* re-registered — the caller decides what is
    /// observable. Used by SOC flattening to merge per-core netlists.
    pub fn append(&mut self, nl: &GateNetlist, prefix: &str) -> Vec<SignalId> {
        let offset = self.gates.len() as u32;
        let map: Vec<SignalId> = (0..nl.gates().len())
            .map(|i| SignalId(offset + i as u32))
            .collect();
        for g in nl.gates() {
            let mut ops = [SignalId::NONE; 3];
            for (k, op) in g.operands().iter().enumerate() {
                ops[k] = map[op.index()];
            }
            self.gates.push(Gate { kind: g.kind, ops });
        }
        for (name, s) in nl.inputs() {
            self.inputs
                .push((format!("{prefix}/{name}"), map[s.index()]));
        }
        map
    }

    /// Converts the Input gate `input` into a buffer driven by `driver`,
    /// removing it from the primary-input list. Used when flattening an SOC:
    /// a core input fed by a chip-level net stops being externally
    /// controllable.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not identify an Input gate.
    pub fn rewire_input(&mut self, input: SignalId, driver: SignalId) {
        let g = &mut self.gates[input.index()];
        assert_eq!(g.kind, GateKind::Input, "rewire_input on non-input {input}");
        g.kind = GateKind::Buf;
        g.ops[0] = driver;
        self.inputs.retain(|(_, s)| *s != input);
    }

    /// Validates and freezes the netlist, computing the topological order of
    /// its combinational part.
    ///
    /// # Errors
    ///
    /// * [`GateError::NoOutputs`] — nothing is observable;
    /// * [`GateError::UndefinedOperand`] — an operand slot was left unset
    ///   (e.g. a deferred DFF without [`GateNetlistBuilder::set_dff_input`]);
    /// * [`GateError::CombinationalLoop`] — a cycle not broken by a DFF.
    pub fn build(self) -> Result<GateNetlist, GateError> {
        if self.outputs.is_empty() {
            return Err(GateError::NoOutputs);
        }
        let n = self.gates.len();
        for (i, g) in self.gates.iter().enumerate() {
            for op in g.operands() {
                if op.index() >= n {
                    return Err(GateError::UndefinedOperand {
                        gate: SignalId(i as u32),
                    });
                }
            }
        }
        // Kahn's algorithm over combinational gates; Input/Dff/Const are
        // sources and do not appear in the order.
        let mut indeg = vec![0usize; n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, g) in self.gates.iter().enumerate() {
            if matches!(
                g.kind,
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
            ) {
                continue;
            }
            for op in g.operands() {
                let src = &self.gates[op.index()];
                if matches!(
                    src.kind,
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                ) {
                    continue;
                }
                indeg[i] += 1;
                fanout[op.index()].push(i as u32);
            }
        }
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&i| {
                indeg[i as usize] == 0
                    && !matches!(
                        self.gates[i as usize].kind,
                        GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                    )
            })
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            topo.push(SignalId(i));
            for &succ in &fanout[i as usize] {
                indeg[succ as usize] -= 1;
                if indeg[succ as usize] == 0 {
                    queue.push(succ);
                }
            }
        }
        let comb_count = self
            .gates
            .iter()
            .filter(|g| {
                !matches!(
                    g.kind,
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                )
            })
            .count();
        if topo.len() != comb_count {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| SignalId(i as u32))
                .unwrap_or(SignalId(0));
            return Err(GateError::CombinationalLoop { signal: stuck });
        }
        Ok(GateNetlist {
            name: self.name,
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_table() {
        assert_eq!(GateKind::Input.arity(), 0);
        assert_eq!(GateKind::Dff.arity(), 1);
        assert_eq!(GateKind::Nand2.arity(), 2);
        assert_eq!(GateKind::Mux2.arity(), 3);
    }

    #[test]
    fn no_outputs_is_error() {
        let mut b = GateNetlistBuilder::new("n");
        b.input("a");
        assert_eq!(b.build().unwrap_err(), GateError::NoOutputs);
    }

    #[test]
    fn comb_loop_detected() {
        let mut b = GateNetlistBuilder::new("n");
        let a = b.input("a");
        // g1 = and(a, g2); g2 = or(g1, a): a loop with no DFF.
        let g1 = b.push(GateKind::And2, [a, SignalId(2), SignalId::NONE]);
        let g2 = b.push(GateKind::Or2, [g1, a, SignalId::NONE]);
        assert_eq!(g2, SignalId(2));
        b.output("o", g2);
        assert!(matches!(
            b.build(),
            Err(GateError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn dff_breaks_loops() {
        let mut b = GateNetlistBuilder::new("counter_bit");
        let q = b.dff_deferred();
        let nq = b.gate1(GateKind::Not, q);
        b.set_dff_input(q, nq);
        b.output("q", q);
        let nl = b.build().unwrap();
        assert_eq!(nl.flip_flop_count(), 1);
        assert_eq!(nl.comb_outputs(), vec![q, nq]);
    }

    #[test]
    fn undefined_operand_detected() {
        let mut b = GateNetlistBuilder::new("n");
        let q = b.dff_deferred(); // D never set
        b.output("q", q);
        assert!(matches!(b.build(), Err(GateError::UndefinedOperand { .. })));
    }

    #[test]
    fn topo_order_is_consistent() {
        let mut b = GateNetlistBuilder::new("n");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.gate2(GateKind::Xor2, a, c);
        let y = b.gate2(GateKind::And2, x, a);
        b.output("y", y);
        let nl = b.build().unwrap();
        let pos: Vec<usize> = nl.topo_order().iter().map(|s| s.index()).collect();
        let xi = pos.iter().position(|&p| p == x.index()).unwrap();
        let yi = pos.iter().position(|&p| p == y.index()).unwrap();
        assert!(xi < yi);
    }

    #[test]
    fn tree_reduces_all_inputs() {
        let mut b = GateNetlistBuilder::new("n");
        let ins: Vec<SignalId> = (0..5).map(|i| b.input(&format!("i{i}"))).collect();
        let root = b.tree(GateKind::Or2, &ins);
        b.output("o", root);
        let nl = b.build().unwrap();
        // 5 leaves need 4 OR gates.
        assert_eq!(
            nl.gates()
                .iter()
                .filter(|g| g.kind == GateKind::Or2)
                .count(),
            4
        );
    }

    #[test]
    fn area_skips_pseudo_gates() {
        let mut b = GateNetlistBuilder::new("n");
        let a = b.input("a");
        let z = b.const0();
        let m = b.mux(a, z, a);
        let buf = b.gate1(GateKind::Buf, m);
        b.output("o", buf);
        let nl = b.build().unwrap();
        let area = nl.area();
        assert_eq!(area.count(CellKind::Mux2), 1);
        assert_eq!(area.instances(), 1);
    }

    #[test]
    fn fanouts_inverse_of_operands() {
        let mut b = GateNetlistBuilder::new("n");
        let a = b.input("a");
        let x = b.gate1(GateKind::Not, a);
        let y = b.gate2(GateKind::And2, a, x);
        b.output("y", y);
        let nl = b.build().unwrap();
        let fo = nl.fanouts();
        assert_eq!(fo[a.index()], vec![x, y]);
        assert_eq!(fo[x.index()], vec![y]);
    }

    #[test]
    fn display_summarizes() {
        let mut b = GateNetlistBuilder::new("n");
        let a = b.input("a");
        let q = b.dff(a);
        b.output("q", q);
        let nl = b.build().unwrap();
        assert_eq!(
            nl.to_string(),
            "netlist n (2 gates, 1 inputs, 1 outputs, 1 FFs)"
        );
    }
}
