//! Gate-level substrate: netlists, elaboration from RTL, and logic
//! simulation.
//!
//! The paper's flow relies on an in-house synthesis tool (to get cell-count
//! areas) and on logic-level models of each core (for ATPG and fault
//! simulation). This crate is that substrate:
//!
//! * [`GateNetlist`] / [`GateNetlistBuilder`] — a flat netlist of simple
//!   gates and D flip-flops, where every gate defines one signal;
//! * [`elaborate()`](elaborate::elaborate) — deterministic decomposition of a `socet-rtl`
//!   [`Core`](socet_rtl::Core) into gates (registers → DFFs, mux trees →
//!   MUX2 chains, functional units → ripple structures, random blocks →
//!   seeded gate networks);
//! * [`kernel`] — the one gate-evaluation kernel: [`eval`](kernel::eval)
//!   holds the only `match` over gate functions, generic over a [`Logic`]
//!   value (`bool`, `u64` = 64 two-valued lanes, or [`Tri64`] = 64
//!   three-valued dual-rail lanes), [`sweep`](kernel::sweep)
//!   evaluates a netlist in levelized order with a per-signal stuck-at
//!   injection hook, and [`propagate`](kernel::propagate) re-evaluates
//!   only the gates downstream of changed sources;
//! * thin typed wrappers over the kernel: [`CombSim`] (one two-valued
//!   machine), [`PackedSim`] (64 patterns at once, with single stuck-at
//!   injection) and [`SeqSim`] (one three-valued sequential machine for
//!   the un-DFT'd "Orig." experiments). The fault simulators and PODEM in
//!   `socet-atpg` call the kernel directly.
//!
//! # Examples
//!
//! ```
//! use socet_gate::{GateKind, GateNetlistBuilder, CombSim};
//!
//! let mut b = GateNetlistBuilder::new("xor2");
//! let a = b.input("a");
//! let c = b.input("b");
//! let x = b.gate2(GateKind::Xor2, a, c);
//! b.output("y", x);
//! let nl = b.build()?;
//! let sim = CombSim::new(&nl);
//! assert_eq!(sim.run(&[true, false]), vec![true]);
//! # Ok::<(), socet_gate::GateError>(())
//! ```

pub mod codec;
pub mod elaborate;
pub mod export;
pub mod kernel;
pub mod netlist;
pub mod sim;

pub use elaborate::{elaborate, elaborate_with, ElabOptions, Elaborated};
pub use kernel::{Logic, Tri64};
pub use netlist::{Gate, GateError, GateKind, GateNetlist, GateNetlistBuilder, SignalId};
pub use sim::{CombSim, PackedSim, SeqSim, Tri};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_doc_example() {
        let mut b = GateNetlistBuilder::new("xor2");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate2(GateKind::Xor2, a, c);
        b.output("y", x);
        let nl = b.build().unwrap();
        let sim = CombSim::new(&nl);
        assert_eq!(sim.run(&[true, false]), vec![true]);
    }
}
