//! # socet-verify — the differential gate-level replay oracle
//!
//! Every other crate in this workspace *plans*: it claims that a routed
//! [`DesignPoint`](socet_core::DesignPoint) transports test vectors
//! through transparency paths with a given timing. This crate *proves*
//! those claims on an actual netlist. It assembles the DFT-inserted chip
//! as a gate-level transparency shell ([`Shell`]), expands every
//! scheduled episode into a cycle-accurate drive program, simulates it,
//! and asserts three invariants ([`verify_design_point`]):
//!
//! - **(a)** every justified vector is bit-exact at the CUT's input ports
//!   at the scheduled arrival cycle;
//! - **(b)** every response is bit-exact at the claimed chip outputs at
//!   the claimed capture cycle;
//! - **(c)** episodes packed concurrently never disturb each other's
//!   transit values (reservation disjointness, replayed jointly).
//!
//! A randomized harness ([`run_synthetic_cases`]) drives the oracle over
//! seeded synthetic SOCs and greedily shrinks failures to minimal
//! counterexamples.

mod harness;
mod replay;
mod shell;

pub use harness::{run_synthetic_cases, verify_soc, verify_spec, CaseOutcome, SyntheticReport};
pub use replay::{
    verify_design_point, EpisodeSummary, ParallelSummary, Skew, VerifyOptions, VerifyReport,
    Violation,
};
pub use shell::{InputRole, Shell};

use socet_core::ScheduleError;
use socet_gate::GateError;
use socet_transparency::SearchError;

/// Everything that can go wrong while *building* the replay (invariant
/// violations are not errors — they are findings in the
/// [`VerifyReport`]).
#[derive(Debug)]
pub enum VerifyError {
    /// The shell netlist could not be assembled.
    Netlist(GateError),
    /// A transparency-path search failed while rebuilding a core fabric.
    Search(SearchError),
    /// The harness could not schedule a candidate design point.
    Schedule(ScheduleError),
    /// The plan references structure the SOC does not have.
    Model(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Netlist(e) => write!(f, "shell netlist: {e}"),
            VerifyError::Search(e) => write!(f, "path search: {e}"),
            VerifyError::Schedule(e) => write!(f, "schedule: {e}"),
            VerifyError::Model(m) => write!(f, "model mismatch: {m}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<GateError> for VerifyError {
    fn from(e: GateError) -> Self {
        VerifyError::Netlist(e)
    }
}

impl From<SearchError> for VerifyError {
    fn from(e: SearchError) -> Self {
        VerifyError::Search(e)
    }
}

impl From<ScheduleError> for VerifyError {
    fn from(e: ScheduleError) -> Self {
        VerifyError::Schedule(e)
    }
}
