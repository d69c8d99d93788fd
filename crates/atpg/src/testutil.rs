//! Deterministic random netlists for the crate's oracle tests.

use socet_gate::{GateKind, GateNetlist, GateNetlistBuilder, SignalId};

/// A splitmix64 stream: deterministic test randomness without a
/// dependency.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A random netlist with one to six inputs, fewer than `ffs_below`
/// flip-flops (each fed from any signal, so feedback loops are common),
/// both constants, and every gate kind.
pub(crate) fn random_netlist(rng: &mut Rng, ffs_below: usize) -> GateNetlist {
    let mut b = GateNetlistBuilder::new("rnd");
    let mut sig: Vec<SignalId> = (0..1 + rng.below(6))
        .map(|i| b.input(&format!("i{i}")))
        .collect();
    sig.push(b.const0());
    sig.push(b.const1());
    let ffs: Vec<SignalId> = (0..rng.below(ffs_below))
        .map(|_| b.dff_deferred())
        .collect();
    sig.extend(&ffs);
    for _ in 0..2 + rng.below(25) {
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
