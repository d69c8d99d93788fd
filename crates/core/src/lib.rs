//! SOCET chip-level test planning — the primary contribution of the DAC'98
//! paper *"A Fast and Low Cost Testing Technique for Core-Based
//! System-on-Chip"*.
//!
//! Given an SOC netlist ([`Soc`](socet_rtl::Soc)) and, per core, a version
//! ladder of transparency trade-offs plus HSCAN scan data
//! ([`CoreTestData`]), this crate:
//!
//! 1. builds the core connectivity graph ([`Ccg`]) whose edge costs are
//!    transparency latencies (§5, Fig. 9);
//! 2. identifies justification and propagation paths for every core under
//!    test with a reservation-aware shortest-path router — reused edges
//!    wait out the cycles they are reserved for, and ports that cannot be
//!    reached get system-level test multiplexers (§5.1);
//! 3. computes each core's test episode and the global test application
//!    time (the paper's `525 × 9 + 3` style accounting, [`CoreEpisode`]);
//! 4. explores the design space ([`Explorer`]): an exhaustive sweep (the
//!    points of Fig. 10) and the iterative-improvement loop of §5.2 with
//!    cost `C = w1·ΔTAT + w2·ΔA`, for both paper objectives
//!    ([`Objective::MinTatUnderArea`], [`Objective::MinAreaUnderTat`]).
//!
//! # Examples
//!
//! ```
//! use socet_rtl::{CoreBuilder, Direction, SocBuilder};
//! use socet_cells::DftCosts;
//! use socet_core::{CoreTestData, Explorer, Objective};
//! use std::sync::Arc;
//!
//! // One small core, instantiated twice in a chain.
//! let mut b = CoreBuilder::new("buf");
//! let i = b.port("i", Direction::In, 8)?;
//! let o = b.port("o", Direction::Out, 8)?;
//! let r = b.register("r", 8)?;
//! b.connect_port_to_reg(i, r)?;
//! b.connect_reg_to_port(r, o)?;
//! let core = Arc::new(b.build()?);
//!
//! let mut sb = SocBuilder::new("chip");
//! let pi = sb.input_pin("pi", 8)?;
//! let po = sb.output_pin("po", 8)?;
//! let u0 = sb.instantiate("u0", core.clone())?;
//! let u1 = sb.instantiate("u1", core.clone())?;
//! sb.connect_pin_to_core(pi, u0, i)?;
//! sb.connect_cores(u0, o, u1, i)?;
//! sb.connect_core_to_pin(u1, o, po)?;
//! let soc = sb.build()?;
//!
//! let costs = DftCosts::default();
//! let per_core = CoreTestData::synthesize_soc(&soc, &costs, 12).expect("buffers synthesize");
//! let explorer = Explorer::new(&soc, &per_core, costs);
//! let plan = explorer.optimize(Objective::MinTatUnderArea {
//!     max_overhead_cells: 10_000,
//! });
//! assert!(plan.test_application_time() > 0);
//! # Ok::<(), socet_rtl::RtlError>(())
//! ```

/// The unified observability layer: structured spans, typed counters, a
/// [`Recorder`](obs::Recorder) per run, and trace exporters. Every
/// SOCET crate records through it; the metrics structs in [`metrics`] are
/// views derived from one recorder.
pub use socet_obs as obs;

pub mod ccg;
pub mod controller;
pub mod error;
pub mod explore;
pub mod interconnect;
pub mod metrics;
pub mod parallel;
pub mod pareto;
pub mod plan;
pub mod report;
pub mod schedule;
pub mod tester;

pub use ccg::{Ccg, CcgEdge, CcgEdgeKind, CcgNode, Resource};
pub use controller::{build_controller, TestController};
pub use error::ScheduleError;
pub use explore::{Explorer, Objective};
pub use interconnect::{interconnect_report, InterconnectReport, UntestedReason};
pub use metrics::{Metrics, PrepareMetrics};
pub use parallel::{parallelize, ParallelSchedule};
pub use pareto::{best_weighted, pareto_front};
pub use plan::{
    ladder_len, CoreEpisode, CoreTestData, DesignPoint, EpisodeResource, RouteHop, RouteItinerary,
    SystemMux,
};
pub use report::render_plan;
pub use schedule::{schedule, schedule_with, try_schedule, Scheduler};
pub use tester::{tester_program, validate_program, DriveAction, TesterProgram};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile() {
        // The crate-level doc example is the real integration test; this
        // just pins the public names.
        fn _take(_: crate::Objective) {}
    }
}
