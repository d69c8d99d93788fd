//! The gate-evaluation kernel: the one place gate functions are computed.
//!
//! Every simulator in the workspace is a thin caller of this module. A
//! [`Logic`] value is what one signal carries, and three impls cover every
//! caller:
//!
//! * `bool` — one two-valued machine ([`CombSim`](crate::CombSim));
//! * `u64` — 64 two-valued lanes, one pattern per lane
//!   ([`PackedSim`](crate::PackedSim) and the fault simulator's cones);
//! * [`Tri64`] — 64 three-valued (0/1/X) lanes in dual-rail form
//!   ([`SeqSim`](crate::SeqSim), the sequential fault simulator's 64
//!   faulty machines, and PODEM's good and faulty machines).
//!
//! [`eval`] computes one gate from operands fetched through a caller's
//! reader, so a sparse overlay can supply them; [`sweep`] evaluates a whole
//! netlist in levelized order with a per-signal stuck-at injection hook;
//! [`propagate`] is its event-driven counterpart, re-evaluating after a
//! source change or a newly injected fault site only the gates whose
//! operands changed, through the same `eval` and the same hook ([`Events`]
//! holds the fanout lists it walks).

use crate::netlist::{GateKind, GateNetlist, SignalId};
use crate::sim::Tri;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A signal value the kernel can evaluate gates over: one or more lanes,
/// combined lane-wise by the bit operators.
pub trait Logic:
    Copy
    + Default
    + Not<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
{
    /// Every lane 0.
    const ZERO: Self;
    /// Every lane 1.
    const ONE: Self;

    /// A 2:1 mux: `a0` in lanes where `s` is 0, `a1` where it is 1.
    fn mux(s: Self, a0: Self, a1: Self) -> Self {
        (!s & a0) | (s & a1)
    }
}

impl Logic for bool {
    const ZERO: bool = false;
    const ONE: bool = true;
}

impl Logic for u64 {
    const ZERO: u64 = 0;
    const ONE: u64 = u64::MAX;
}

/// 64 three-valued lanes in dual-rail form: lane *k* is 1 when bit *k* of
/// [`Tri64::ones`] is set, 0 when bit *k* of [`Tri64::zeros`] is, and X
/// when neither is. The two masks never overlap.
///
/// The bit operators are lane-wise Kleene logic: a controlling value wins
/// over X (`0 & X = 0`, `1 | X = 1`), anything else involving X is X.
///
/// # Examples
///
/// ```
/// use socet_gate::{Tri, Tri64};
/// let x = Tri64::splat(Tri::X);
/// assert_eq!((Tri64::splat(Tri::Zero) & x).lane(0), Tri::Zero);
/// assert_eq!((Tri64::splat(Tri::One) & x).lane(5), Tri::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tri64 {
    ones: u64,
    zeros: u64,
}

impl Tri64 {
    /// Every lane X.
    pub const X: Tri64 = Tri64 { ones: 0, zeros: 0 };

    /// `t` in every lane.
    #[inline]
    pub fn splat(t: Tri) -> Tri64 {
        match t {
            Tri::One => Tri64::ONE,
            Tri::Zero => Tri64::ZERO,
            Tri::X => Tri64::X,
        }
    }

    /// Lanes that are definitely 1.
    #[inline]
    pub fn ones(self) -> u64 {
        self.ones
    }

    /// Lanes that are definitely 0.
    #[inline]
    pub fn zeros(self) -> u64 {
        self.zeros
    }

    /// The value of lane `k` (`k < 64`).
    #[inline]
    pub fn lane(self, k: u32) -> Tri {
        if self.ones >> k & 1 != 0 {
            Tri::One
        } else if self.zeros >> k & 1 != 0 {
            Tri::Zero
        } else {
            Tri::X
        }
    }

    /// Forces the lanes in `stuck1` to 1 and those in `stuck0` to 0: the
    /// stuck-at injection of one faulty machine per lane.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the two masks overlap.
    #[inline]
    pub fn force(self, stuck1: u64, stuck0: u64) -> Tri64 {
        debug_assert_eq!(stuck1 & stuck0, 0, "a lane cannot be stuck at both values");
        Tri64 {
            ones: (self.ones & !stuck0) | stuck1,
            zeros: (self.zeros & !stuck1) | stuck0,
        }
    }
}

impl Not for Tri64 {
    type Output = Tri64;
    #[inline]
    fn not(self) -> Tri64 {
        Tri64 {
            ones: self.zeros,
            zeros: self.ones,
        }
    }
}

impl BitAnd for Tri64 {
    type Output = Tri64;
    #[inline]
    fn bitand(self, o: Tri64) -> Tri64 {
        Tri64 {
            ones: self.ones & o.ones,
            zeros: self.zeros | o.zeros,
        }
    }
}

impl BitOr for Tri64 {
    type Output = Tri64;
    #[inline]
    fn bitor(self, o: Tri64) -> Tri64 {
        Tri64 {
            ones: self.ones | o.ones,
            zeros: self.zeros & o.zeros,
        }
    }
}

impl BitXor for Tri64 {
    type Output = Tri64;
    #[inline]
    fn bitxor(self, o: Tri64) -> Tri64 {
        Tri64 {
            ones: (self.ones & o.zeros) | (self.zeros & o.ones),
            zeros: (self.ones & o.ones) | (self.zeros & o.zeros),
        }
    }
}

impl Logic for Tri64 {
    const ZERO: Tri64 = Tri64 {
        ones: 0,
        zeros: u64::MAX,
    };
    const ONE: Tri64 = Tri64 {
        ones: u64::MAX,
        zeros: 0,
    };

    /// An X select still yields a definite value where both legs agree.
    #[inline]
    fn mux(s: Tri64, a0: Tri64, a1: Tri64) -> Tri64 {
        let sx = !(s.ones | s.zeros);
        Tri64 {
            ones: (s.zeros & a0.ones) | (s.ones & a1.ones) | (sx & a0.ones & a1.ones),
            zeros: (s.zeros & a0.zeros) | (s.ones & a1.zeros) | (sx & a0.zeros & a1.zeros),
        }
    }
}

/// Computes one gate of kind `kind` whose operand signals are `ops`,
/// fetching each operand's value through `read`.
///
/// # Panics
///
/// Panics on [`GateKind::Input`] and [`GateKind::Dff`]: sources carry
/// values the caller supplies.
#[inline]
pub fn eval<V: Logic>(kind: GateKind, ops: &[SignalId], read: impl Fn(SignalId) -> V) -> V {
    let x = |i: usize| read(ops[i]);
    match kind {
        GateKind::Const0 => V::ZERO,
        GateKind::Const1 => V::ONE,
        GateKind::Not => !x(0),
        GateKind::Buf => x(0),
        GateKind::And2 => x(0) & x(1),
        GateKind::Or2 => x(0) | x(1),
        GateKind::Nand2 => !(x(0) & x(1)),
        GateKind::Nor2 => !(x(0) | x(1)),
        GateKind::Xor2 => x(0) ^ x(1),
        GateKind::Xnor2 => !(x(0) ^ x(1)),
        GateKind::Mux2 => V::mux(x(0), x(1), x(2)),
        GateKind::Input | GateKind::Dff => panic!("inputs and flip-flops are sources"),
    }
}

/// Evaluates every signal of `nl` into `v`, indexed by
/// [`SignalId::index`].
///
/// `pi[i]` is the value of the *i*-th primary input and `ff[j]` of the
/// *j*-th flip-flop Q (in [`GateNetlist::flip_flops`] order). Constants
/// follow, then every combinational gate in [`GateNetlist::topo_order`].
/// Each value the sweep sets, sources included, passes through
/// `inject(signal, value)` before any reader sees it: that is where
/// stuck-at faults go.
///
/// # Panics
///
/// Panics on input or state length mismatch.
#[inline]
pub fn sweep<V: Logic>(
    nl: &GateNetlist,
    pi: &[V],
    ff: &[V],
    v: &mut Vec<V>,
    mut inject: impl FnMut(SignalId, V) -> V,
) {
    assert_eq!(pi.len(), nl.inputs().len(), "input length");
    // The all-zero-bits default (0, or X for `Tri64`) clears as a memset.
    v.clear();
    v.resize(nl.gates().len(), V::default());
    // A plain slice keeps its pointer and length in registers across the
    // stores below; through `&mut Vec` they would be reloaded per gate.
    let v = v.as_mut_slice();
    for ((_, s), val) in nl.inputs().iter().zip(pi) {
        v[s.index()] = *val;
    }
    let mut state = ff.iter();
    for (i, g) in nl.gates().iter().enumerate() {
        let val = match g.kind {
            GateKind::Input => v[i],
            GateKind::Dff => *state.next().expect("state length"),
            GateKind::Const0 | GateKind::Const1 => eval(g.kind, g.operands(), |o| v[o.index()]),
            _ => continue,
        };
        v[i] = inject(SignalId::from_index(i), val);
    }
    assert!(state.next().is_none(), "state length");
    for &s in nl.topo_order() {
        let g = nl.gate(s);
        let val = eval(g.kind, g.operands(), |o| v[o.index()]);
        v[s.index()] = inject(s, val);
    }
}

/// The combinational fanout of a netlist in the form event-driven
/// evaluation reads it, plus the pending-gate scratch of [`propagate`].
///
/// Built once per netlist; every later query is proportional to the part
/// of the netlist it touches. Gates are named by their position in
/// [`GateNetlist::topo_order`], so one forward scan of a bitset over those
/// positions visits pending gates in evaluation order.
#[derive(Debug, Clone)]
pub struct Events {
    /// `consumers[start[i]..start[i + 1]]`: topological positions of the
    /// combinational gates reading signal `i` (flip-flops excluded: their
    /// Q is a source).
    start: Vec<u32>,
    consumers: Vec<u32>,
    /// Pending gates, one bit per topological position.
    pending: Vec<u64>,
    /// The words of `pending` that may hold a set bit: `lo..end`.
    lo: usize,
    end: usize,
}

impl Events {
    /// Builds the fanout lists of `nl`.
    pub fn new(nl: &GateNetlist) -> Self {
        Events::within(nl, |_| true)
    }

    /// Builds the fanout lists of only the combinational gates `keep`
    /// accepts: any other gate never becomes pending, so [`propagate`]
    /// leaves its value alone and [`Events::cone`] omits it.
    ///
    /// When `keep` is closed under fanin (every operand of a kept gate is
    /// kept), propagation still brings every kept signal up to date, since
    /// no kept gate reads a signal left stale.
    pub fn within(nl: &GateNetlist, keep: impl Fn(SignalId) -> bool) -> Self {
        let pos = nl.topo_positions();
        let kept = || nl.topo_order().iter().copied().filter(|&s| keep(s));
        let mut start = vec![0u32; nl.gates().len() + 1];
        for s in kept() {
            for op in nl.gate(s).operands() {
                start[op.index() + 1] += 1;
            }
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut consumers = vec![0u32; start[start.len() - 1] as usize];
        for s in kept() {
            for op in nl.gate(s).operands() {
                consumers[fill[op.index()] as usize] = pos[s.index()];
                fill[op.index()] += 1;
            }
        }
        Events {
            start,
            consumers,
            pending: vec![0; nl.topo_order().len().div_ceil(64)],
            lo: usize::MAX,
            end: 0,
        }
    }

    /// Marks every combinational consumer of `s` pending.
    #[inline]
    fn schedule(&mut self, s: SignalId) {
        let range = self.start[s.index()] as usize..self.start[s.index() + 1] as usize;
        for &k in &self.consumers[range] {
            let w = k as usize / 64;
            self.pending[w] |= 1 << (k % 64);
            self.lo = self.lo.min(w);
            self.end = self.end.max(w + 1);
        }
    }

    /// Visits the pending gates in topological order, clearing each bit as
    /// it goes. `step(gate)` returns whether the gate's value changed; if
    /// so, its consumers (all later in the order) become pending too.
    #[inline]
    fn drain(&mut self, nl: &GateNetlist, mut step: impl FnMut(SignalId) -> bool) {
        let topo = nl.topo_order();
        let mut w = self.lo;
        while w < self.end {
            let word = self.pending[w];
            if word == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = word & (word - 1);
            let s = topo[w * 64 + word.trailing_zeros() as usize];
            if step(s) {
                self.schedule(s);
            }
        }
        self.lo = usize::MAX;
        self.end = 0;
    }

    /// Writes the strict transitive fanout of `s` into `cone`, in
    /// topological order: the combinational gates a change at `s` can
    /// reach. The walk stops at flip-flops, whose Q is a source.
    pub fn cone(&mut self, nl: &GateNetlist, s: SignalId, cone: &mut Vec<SignalId>) {
        cone.clear();
        self.schedule(s);
        self.drain(nl, |g| {
            cone.push(g);
            true
        });
    }
}

/// Brings `v`, the result of a [`sweep`] (or of earlier calls), up to date
/// after the signals in `changed` are seeded; returns the number of gates
/// evaluated.
///
/// Each `(signal, value)` pair gives a signal's value before injection,
/// which passes through `inject` like the sweep's; if the result differs
/// from `v`, the signal's consumers are scheduled. A source (an input or a
/// flip-flop Q) is seeded with its new value. A constant or gate is seeded
/// with the value its operands give, to re-force it after the hook changed
/// there: that is how a stuck-at site takes effect when no source change
/// reaches it. (For a gate whose operands also change in the same call,
/// their old values will do; the gate is re-evaluated anyway.) Then only
/// gates an operand of which changed are re-evaluated, in topological
/// order, and a gate whose value stays the same stops the wave there.
///
/// For the same sources and hook, `v` ends equal to what a fresh [`sweep`]
/// computes, provided every signal at which the hook differs from the one
/// `v` was computed with is seeded.
#[inline]
pub fn propagate<V: Logic + PartialEq>(
    nl: &GateNetlist,
    events: &mut Events,
    changed: impl IntoIterator<Item = (SignalId, V)>,
    v: &mut [V],
    mut inject: impl FnMut(SignalId, V) -> V,
) -> usize {
    for (s, val) in changed {
        let val = inject(s, val);
        if v[s.index()] != val {
            v[s.index()] = val;
            events.schedule(s);
        }
    }
    let mut evals = 0;
    events.drain(nl, |s| {
        evals += 1;
        let g = nl.gate(s);
        let val = inject(s, eval(g.kind, g.operands(), |o| v[o.index()]));
        let changed = v[s.index()] != val;
        v[s.index()] = val;
        changed
    });
    evals
}

/// The [`sweep`] injection hook for at most one stuck-at fault, forced on
/// every lane.
pub(crate) fn stuck_at<V: Logic>(fault: Option<(SignalId, bool)>) -> impl Fn(SignalId, V) -> V {
    move |s, v| match fault {
        Some((site, stuck)) if site == s => {
            if stuck {
                V::ONE
            } else {
                V::ZERO
            }
        }
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateNetlistBuilder;

    /// Every gate kind the kernel computes, with its arity and its truth
    /// table: bit `i` is the output for operands whose bit `k` is bit `k`
    /// of `i` (operand 0 is the least significant).
    const SPEC: [(GateKind, usize, u8); 11] = [
        (GateKind::Const0, 0, 0b0),
        (GateKind::Const1, 0, 0b1),
        (GateKind::Not, 1, 0b01),
        (GateKind::Buf, 1, 0b10),
        (GateKind::And2, 2, 0b1000),
        (GateKind::Or2, 2, 0b1110),
        (GateKind::Nand2, 2, 0b0111),
        (GateKind::Nor2, 2, 0b0001),
        (GateKind::Xor2, 2, 0b0110),
        (GateKind::Xnor2, 2, 0b1001),
        // Operands (s, a0, a1): a0 where s=0, a1 where s=1.
        (GateKind::Mux2, 3, 0b1110_0100),
    ];

    const TRI: [Tri; 3] = [Tri::Zero, Tri::One, Tri::X];

    /// The spec's three-valued output: definite exactly when every way of
    /// resolving the X operands gives the same table entry.
    fn spec_tri(table: u8, ops: &[Tri]) -> Tri {
        let mut seen = [false; 2];
        for fill in 0..1u32 << ops.len() {
            let idx = ops.iter().enumerate().fold(0, |acc, (k, t)| {
                let bit = t.to_bool().unwrap_or(fill >> k & 1 != 0);
                acc | (usize::from(bit) << k)
            });
            seen[usize::from(table >> idx & 1 != 0)] = true;
        }
        match seen {
            [true, false] => Tri::Zero,
            [false, true] => Tri::One,
            _ => Tri::X,
        }
    }

    /// Every operand combination over `alphabet`, operand 0 varying fastest.
    fn combos<T: Copy>(alphabet: &[T], arity: usize) -> Vec<Vec<T>> {
        (0..alphabet.len().pow(arity as u32))
            .map(|mut c| {
                (0..arity)
                    .map(|_| {
                        let t = alphabet[c % alphabet.len()];
                        c /= alphabet.len();
                        t
                    })
                    .collect()
            })
            .collect()
    }

    fn ops(arity: usize) -> Vec<SignalId> {
        (0..arity).map(SignalId::from_index).collect()
    }

    #[test]
    fn bool_matches_the_truth_tables() {
        for (kind, arity, table) in SPEC {
            for (idx, c) in combos(&[false, true], arity).iter().enumerate() {
                let got = eval(kind, &ops(arity), |o| c[o.index()]);
                assert_eq!(got, table >> idx & 1 != 0, "{kind} {c:?}");
            }
        }
    }

    #[test]
    fn u64_lanes_match_the_truth_tables() {
        for (kind, arity, table) in SPEC {
            // Lane i holds operand combination i.
            let words: Vec<u64> = (0..arity)
                .map(|k| (0..1u64 << arity).fold(0, |w, i| w | (i >> k & 1) << i))
                .collect();
            let got = eval(kind, &ops(arity), |o| words[o.index()]);
            let lanes = (1u64 << (1 << arity)) - 1;
            assert_eq!(got & lanes, u64::from(table), "{kind}");
        }
    }

    #[test]
    fn tri64_lanes_match_the_x_resolution_spec() {
        for (kind, arity, table) in SPEC {
            let cases = combos(&TRI, arity);
            // Lane i holds three-valued operand combination i.
            let words: Vec<Tri64> = (0..arity)
                .map(|k| {
                    cases
                        .iter()
                        .enumerate()
                        .fold(Tri64::X, |w, (i, c)| match c[k] {
                            Tri::One => w.force(1 << i, 0),
                            Tri::Zero => w.force(0, 1 << i),
                            Tri::X => w,
                        })
                })
                .collect();
            let got = eval(kind, &ops(arity), |o| words[o.index()]);
            for (i, c) in cases.iter().enumerate() {
                assert_eq!(got.lane(i as u32), spec_tri(table, c), "{kind} {c:?}");
            }
            assert_eq!(got.ones() & got.zeros(), 0, "{kind}: rails overlap");
        }
    }

    #[test]
    fn mux_with_unknown_select_passes_equal_legs() {
        let s = Tri64::X;
        for (leg, want) in [
            (Tri::Zero, Tri::Zero),
            (Tri::One, Tri::One),
            (Tri::X, Tri::X),
        ] {
            let a = Tri64::splat(leg);
            assert_eq!(Tri64::mux(s, a, a).lane(0), want);
        }
        let (zero, one) = (Tri64::splat(Tri::Zero), Tri64::splat(Tri::One));
        assert_eq!(Tri64::mux(s, zero, one).lane(0), Tri::X);
    }

    #[test]
    fn sources_pass_through_the_sweep() {
        let mut b = GateNetlistBuilder::new("src");
        let a = b.input("a");
        let q = b.dff(a);
        let one = b.const1();
        let zero = b.const0();
        let y = b.mux(q, zero, one);
        b.output("y", y);
        let nl = b.build().unwrap();
        let mut v = Vec::new();
        sweep(
            &nl,
            &[Tri64::splat(Tri::One)],
            &[Tri64::X],
            &mut v,
            |_, x| x,
        );
        assert_eq!(v[a.index()].lane(0), Tri::One);
        assert_eq!(v[q.index()].lane(0), Tri::X);
        assert_eq!(v[one.index()].lane(0), Tri::One);
        assert_eq!(v[zero.index()].lane(0), Tri::Zero);
        assert_eq!(v[y.index()].lane(0), Tri::X);
    }

    #[test]
    #[should_panic(expected = "state length")]
    fn sweep_rejects_a_short_state() {
        let mut b = GateNetlistBuilder::new("ff");
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let nl = b.build().unwrap();
        sweep(&nl, &[false], &[], &mut Vec::new(), |_, x| x);
    }

    /// y = (a AND c) XOR k with k a Const1: a stuck-at on the input, the
    /// constant or the AND must reach y, and only in the lanes it is
    /// injected into.
    #[test]
    fn stuck_at_injection_on_input_const_and_gate_sites() {
        let mut b = GateNetlistBuilder::new("inj");
        let a = b.input("a");
        let c = b.input("c");
        let k = b.const1();
        let g = b.gate2(GateKind::And2, a, c);
        let y = b.gate2(GateKind::Xor2, g, k);
        b.output("y", y);
        let nl = b.build().unwrap();
        let run = |pi: [bool; 2], fault: Option<(SignalId, bool)>| {
            let mut v = Vec::new();
            sweep(&nl, &pi, &[], &mut v, stuck_at(fault));
            v[y.index()]
        };
        assert!(!run([true, true], None));
        assert!(run([true, true], Some((a, false))), "input site");
        assert!(run([false, true], None));
        assert!(!run([false, true], Some((k, false))), "const site");
        assert!(!run([false, true], Some((g, true))), "gate site");

        // Lane-wise injection: lane 1 has `a` stuck-at-0, lane 2 `k`
        // stuck-at-0, lane 3 the AND stuck-at-1; lane 0 is fault-free.
        let one = Tri64::splat(Tri::One);
        let mut v = Vec::new();
        sweep(&nl, &[one, one], &[], &mut v, |s, x| match s {
            s if s == a => x.force(0, 0b0010),
            s if s == k => x.force(0, 0b0100),
            s if s == g => x.force(0b1000, 0),
            _ => x,
        });
        let lanes: Vec<Tri> = (0..4).map(|i| v[y.index()].lane(i)).collect();
        assert_eq!(lanes, [Tri::Zero, Tri::One, Tri::One, Tri::Zero]);
        assert_eq!(v[a.index()].lane(1), Tri::Zero, "source forced in place");
    }

    /// A splitmix64 stream: deterministic test randomness without a
    /// dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Random definite lanes, the rest X.
        fn tri64(&mut self) -> Tri64 {
            let (ones, definite) = (self.next(), self.next());
            Tri64::X.force(ones & definite, !ones & definite)
        }
    }

    /// A random netlist with inputs, both constants, flip-flops fed back
    /// from later gates, and every combinational gate kind.
    fn random_netlist(rng: &mut Rng) -> GateNetlist {
        let mut b = GateNetlistBuilder::new("rnd");
        let mut sig: Vec<SignalId> = (0..1 + rng.below(5))
            .map(|i| b.input(&format!("i{i}")))
            .collect();
        sig.push(b.const0());
        sig.push(b.const1());
        let ffs: Vec<SignalId> = (0..rng.below(3)).map(|_| b.dff_deferred()).collect();
        sig.extend(&ffs);
        for _ in 0..2 + rng.below(30) {
            let mut pick = || sig[rng.below(sig.len())];
            let (x, y, z) = (pick(), pick(), pick());
            let g = match rng.below(10) {
                0 => b.gate1(GateKind::Not, x),
                1 => b.gate1(GateKind::Buf, x),
                2 => b.gate2(GateKind::And2, x, y),
                3 => b.gate2(GateKind::Or2, x, y),
                4 => b.gate2(GateKind::Nand2, x, y),
                5 => b.gate2(GateKind::Nor2, x, y),
                6 => b.gate2(GateKind::Xor2, x, y),
                7 => b.gate2(GateKind::Xnor2, x, y),
                _ => b.mux(x, y, z),
            };
            sig.push(g);
        }
        for q in ffs {
            b.set_dff_input(q, sig[rng.below(sig.len())]);
        }
        for k in 0..1 + rng.below(3) {
            b.output(&format!("o{k}"), sig[sig.len() - 1 - rng.below(sig.len())]);
        }
        b.build().unwrap()
    }

    /// After every step of a random sequence of changes, event-driven
    /// propagation leaves exactly the values a fresh sweep computes. A step
    /// changes one or several sources (set to definite lanes, flip, reset
    /// to X) and may switch one of the stuck-at faults of lanes 1–7 on or
    /// off, seeding the fault's site. The sites are random signals, so they
    /// cover inputs, flip-flop Qs, constants and gates.
    #[test]
    fn propagate_matches_a_fresh_sweep() {
        let mut rng = Rng(7);
        for _ in 0..300 {
            let nl = random_netlist(&mut rng);
            let n = nl.gates().len();
            let faults: Vec<(SignalId, u64, u64)> = (1..8)
                .map(|lane| {
                    let bit = 1u64 << lane;
                    let (s1, s0) = if rng.below(2) == 0 {
                        (bit, 0)
                    } else {
                        (0, bit)
                    };
                    (SignalId::from_index(rng.below(n)), s1, s0)
                })
                .collect();
            // The hook with the faults of the lanes in `active` switched on.
            let inject = |active: u64| {
                let faults = &faults;
                move |s: SignalId, v: Tri64| {
                    faults.iter().fold(v, |v, &(site, s1, s0)| {
                        if site == s {
                            v.force(s1 & active, s0 & active)
                        } else {
                            v
                        }
                    })
                }
            };
            let mut active = rng.next();
            let srcs = nl.comb_inputs();
            let n_pi = nl.inputs().len();
            let mut vals = vec![Tri64::X; srcs.len()];
            let mut v = Vec::new();
            sweep(&nl, &vals[..n_pi], &vals[n_pi..], &mut v, inject(active));
            let mut events = Events::new(&nl);
            for _ in 0..20 {
                let mut changed = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let i = rng.below(srcs.len());
                    vals[i] = match rng.below(3) {
                        0 => rng.tri64(),
                        1 => !vals[i],
                        _ => Tri64::X,
                    };
                    changed.push((srcs[i], vals[i]));
                }
                if rng.below(2) == 0 {
                    let (site, s1, s0) = faults[rng.below(faults.len())];
                    active ^= s1 | s0;
                    // The site's value before injection: a source's own,
                    // or what a constant's or gate's operands give.
                    let g = nl.gate(site);
                    let before = match srcs.iter().position(|&x| x == site) {
                        Some(i) => vals[i],
                        None => eval(g.kind, g.operands(), |o| v[o.index()]),
                    };
                    changed.push((site, before));
                }
                let evals = propagate(&nl, &mut events, changed, &mut v, inject(active));
                assert!(evals <= nl.topo_order().len());
                let mut fresh = Vec::new();
                sweep(
                    &nl,
                    &vals[..n_pi],
                    &vals[n_pi..],
                    &mut fresh,
                    inject(active),
                );
                assert_eq!(v, fresh, "{nl}");
            }
        }
    }

    /// `Events::cone` is the fanout closure a plain graph search finds,
    /// stopping at flip-flops, in topological order.
    #[test]
    fn cone_is_the_sorted_transitive_fanout() {
        let mut rng = Rng(11);
        let mut cone = Vec::new();
        for _ in 0..100 {
            let nl = random_netlist(&mut rng);
            let fanouts = nl.fanouts();
            let pos = nl.topo_positions();
            let mut events = Events::new(&nl);
            for site in 0..nl.gates().len() {
                let mut seen = vec![false; nl.gates().len()];
                let mut stack = vec![site];
                let mut want = Vec::new();
                while let Some(i) = stack.pop() {
                    for &f in &fanouts[i] {
                        if !seen[f.index()] && nl.gate(f).kind != GateKind::Dff {
                            seen[f.index()] = true;
                            want.push(f);
                            stack.push(f.index());
                        }
                    }
                }
                want.sort_by_key(|s| pos[s.index()]);
                events.cone(&nl, SignalId::from_index(site), &mut cone);
                assert_eq!(cone, want, "site {site} of {nl}");
            }
        }
    }

    /// The fanin closure of one to three random signals, crossing
    /// flip-flops (a flip-flop's operand is its D), as a per-signal mask.
    fn random_fanin_closure(rng: &mut Rng, nl: &GateNetlist) -> Vec<bool> {
        let n = nl.gates().len();
        let mut keep = vec![false; n];
        let mut stack: Vec<SignalId> = (0..1 + rng.below(3))
            .map(|_| SignalId::from_index(rng.below(n)))
            .collect();
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut keep[s.index()], true) {
                stack.extend(nl.gate(s).operands());
            }
        }
        keep
    }

    /// Over the fanout lists of a fanin-closed set, propagation keeps every
    /// kept signal equal to a fresh sweep after random source changes and
    /// fault switches, whatever it leaves in the others.
    #[test]
    fn propagate_within_a_fanin_closed_set_keeps_it_exact() {
        let mut rng = Rng(13);
        for _ in 0..300 {
            let nl = random_netlist(&mut rng);
            let n = nl.gates().len();
            let keep = random_fanin_closure(&mut rng, &nl);
            // One stuck-at fault per lane 1–7 at a random site.
            let faults: Vec<(SignalId, u64, u64)> = (1..8)
                .map(|lane| {
                    let bit = 1u64 << lane;
                    let (s1, s0) = [(bit, 0), (0, bit)][rng.below(2)];
                    (SignalId::from_index(rng.below(n)), s1, s0)
                })
                .collect();
            let inject = |active: u64| {
                let faults = &faults;
                move |s: SignalId, v: Tri64| {
                    (faults.iter())
                        .filter(|f| f.0 == s)
                        .fold(v, |v, &(_, s1, s0)| v.force(s1 & active, s0 & active))
                }
            };
            let mut active = rng.next();
            let srcs = nl.comb_inputs();
            let n_pi = nl.inputs().len();
            let mut vals = vec![Tri64::X; srcs.len()];
            let mut v = Vec::new();
            sweep(&nl, &vals[..n_pi], &vals[n_pi..], &mut v, inject(active));
            let mut events = Events::within(&nl, |s| keep[s.index()]);
            for _ in 0..20 {
                let mut changed = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let i = rng.below(srcs.len());
                    vals[i] = [rng.tri64(), !vals[i], Tri64::X][rng.below(3)];
                    changed.push((srcs[i], vals[i]));
                }
                if rng.below(2) == 0 {
                    let (site, s1, s0) = faults[rng.below(faults.len())];
                    active ^= s1 | s0;
                    let g = nl.gate(site);
                    let before = match srcs.iter().position(|&x| x == site) {
                        Some(i) => vals[i],
                        None => eval(g.kind, g.operands(), |o| v[o.index()]),
                    };
                    changed.push((site, before));
                }
                propagate(&nl, &mut events, changed, &mut v, inject(active));
                let mut fresh = Vec::new();
                let (pi, ff) = vals.split_at(n_pi);
                sweep(&nl, pi, ff, &mut fresh, inject(active));
                for s in (0..n).filter(|&s| keep[s]) {
                    assert_eq!(v[s], fresh[s], "signal {s} of {nl}");
                }
            }
        }
    }

    /// `Events::within` gives each signal the plain cone restricted to the
    /// kept set, when that set is fanin-closed.
    #[test]
    fn cone_within_is_the_plain_cone_restricted() {
        let mut rng = Rng(17);
        let (mut got, mut plain) = (Vec::new(), Vec::new());
        for _ in 0..100 {
            let nl = random_netlist(&mut rng);
            let keep = random_fanin_closure(&mut rng, &nl);
            let mut all = Events::new(&nl);
            let mut within = Events::within(&nl, |s| keep[s.index()]);
            for site in (0..nl.gates().len()).map(SignalId::from_index) {
                all.cone(&nl, site, &mut plain);
                plain.retain(|s| keep[s.index()]);
                within.cone(&nl, site, &mut got);
                assert_eq!(got, plain, "site {site} of {nl}");
            }
        }
    }

    /// A change stops where a gate's value does not move: behind an AND
    /// held at 0, nothing downstream is evaluated again.
    #[test]
    fn propagation_stops_where_values_settle() {
        let mut b = GateNetlistBuilder::new("stop");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.gate2(GateKind::And2, a, c);
        let n1 = b.gate1(GateKind::Not, g);
        let n2 = b.gate1(GateKind::Not, n1);
        b.output("y", n2);
        let nl = b.build().unwrap();
        let mut v = Vec::new();
        sweep(&nl, &[false, false], &[], &mut v, |_, x| x);
        let mut events = Events::new(&nl);
        assert_eq!(
            propagate(&nl, &mut events, [(a, true)], &mut v, |_, x| x),
            1
        );
        assert_eq!(
            propagate(&nl, &mut events, [(c, true)], &mut v, |_, x| x),
            3
        );
        assert!(v[n2.index()]);
        assert_eq!(
            propagate(&nl, &mut events, [(c, true)], &mut v, |_, x| x),
            0
        );
    }
}
