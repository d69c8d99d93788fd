//! Test-generation substrate: stuck-at faults, PODEM combinational ATPG,
//! and fault simulation (combinational and sequential).
//!
//! The paper's flow assumes each HSCAN-equipped core "can be treated as a
//! full-scan circuit and tested using combinational ATPG tools", and its
//! Table 3 reports fault coverage (FC) and test efficiency (TEff) from "a
//! commercial combinational ATPG tool" plus an in-house sequential tool for
//! the un-DFT'd originals. This crate rebuilds that tooling, evaluating
//! every gate through the [`socet_gate::kernel`]:
//!
//! * [`Fault`] / [`fault_list`] — single stuck-at faults over a
//!   [`GateNetlist`](socet_gate::GateNetlist), with buffer/constant
//!   collapsing;
//! * [`Podem`] — the classic PODEM algorithm on the full-scan
//!   (combinational) view: three-valued implication of the good and faulty
//!   machines as two lanes of one kernel plane, event-driven after each
//!   fault's first sweep ([`socet_gate::kernel::propagate`]), D-frontier
//!   objectives and X-path pruning over the fault's fanout cone only, and
//!   a backtrack bound. A fault whose site has at most twelve fanin
//!   sources and never takes its activating value over all their
//!   assignments is settled `Untestable` without a search. Its work and
//!   outcomes show in [`PodemCounters`];
//! * [`FaultSim`] — pattern-parallel combinational fault simulation with
//!   fanout-cone pruning and fault-parallel threading, instrumented by
//!   [`AtpgMetrics`];
//! * [`SeqFaultSim`] — fault-parallel (64 faults per word) three-valued
//!   sequential fault simulation, used for the "Orig." rows of Table 3.
//!   It is differential: the good machine is event-driven (a full sweep in
//!   the first cycle, then propagation from the inputs and flip-flops over
//!   the live gates), and each 64-fault block starts from it and propagates
//!   ([`socet_gate::kernel::propagate`]) only from its fault sites and the
//!   flip-flops whose state has diverged. Detected faults are dropped.
//!   Before simulating, one good-machine pass screens the faults: those
//!   whose site no output can observe, whose site never leaves its stuck
//!   value, or whose effect every path to an output loses at a gate held
//!   by a campaign constant are proved undetectable and never simulated.
//!   [`SeqFaultSim::run_naive`] keeps the full sweep per block and cycle as
//!   the oracle;
//! * [`generate_tests`] — the ATPG driver: random-pattern phase, PODEM
//!   top-off, fault dropping; produces a [`TestSet`] with
//!   [`Coverage`] metrics.
//!
//! # Examples
//!
//! ```
//! use socet_gate::{GateKind, GateNetlistBuilder};
//! use socet_atpg::{generate_tests, TpgConfig};
//!
//! let mut b = GateNetlistBuilder::new("and");
//! let x = b.input("x");
//! let y = b.input("y");
//! let z = b.gate2(GateKind::And2, x, y);
//! b.output("z", z);
//! let nl = b.build()?;
//! let tests = generate_tests(&nl, &TpgConfig::default());
//! assert_eq!(tests.coverage.fault_coverage(), 100.0);
//! # Ok::<(), socet_gate::GateError>(())
//! ```

pub mod codec;
pub mod compact;
pub mod coverage;
pub mod fault;
pub mod fsim;
pub mod metrics;
pub mod podem;
pub mod seqfsim;
#[cfg(test)]
mod testutil;
pub mod tpg;

pub use codec::{decode_test_set, encode_test_set};
pub use compact::{compact_tests, CompactionStats};
pub use coverage::Coverage;
pub use fault::{fault_list, Fault};
pub use fsim::FaultSim;
pub use metrics::AtpgMetrics;
pub use podem::{Podem, PodemCounters, PodemOutcome};
pub use seqfsim::SeqFaultSim;
pub use tpg::{generate_tests, TestSet, TpgConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use socet_gate::{GateKind, GateNetlistBuilder};

    #[test]
    fn crate_doc_example() {
        let mut b = GateNetlistBuilder::new("and");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.gate2(GateKind::And2, x, y);
        b.output("z", z);
        let nl = b.build().unwrap();
        let tests = generate_tests(&nl, &TpgConfig::default());
        assert_eq!(tests.coverage.fault_coverage(), 100.0);
    }
}
