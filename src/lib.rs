//! SOCET — a reproduction of *"A Fast and Low Cost Testing Technique for
//! Core-Based System-on-Chip"* (Ghosh, Dey, Jha — DAC 1998) as a Rust
//! library suite.
//!
//! This facade crate re-exports the whole workspace and adds the
//! end-to-end [`flow`]: RTL core → HSCAN insertion → transparency version
//! ladder → gate-level elaboration → combinational ATPG → chip-level test
//! planning and design-space exploration.
//!
//! # Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`cells`] | `socet-cells` | cell library, area reports, DFT cost knobs |
//! | [`rtl`] | `socet-rtl` | RTL netlists: cores, SOCs, bit-sliced connections |
//! | [`gate`] | `socet-gate` | gate netlists, elaboration, logic simulation |
//! | [`atpg`] | `socet-atpg` | stuck-at faults, PODEM, fault simulation |
//! | [`hscan`] | `socet-hscan` | HSCAN scan-chain construction |
//! | [`transparency`] | `socet-transparency` | RCG, path search, core versions |
//! | [`core`] | `socet-core` | CCG, routed schedules, iterative improvement |
//! | [`obs`] | `socet-obs` | spans, counters, recorders, trace exporters |
//! | [`baselines`] | `socet-baselines` | FSCAN-BSCAN, test bus, chip flattening |
//! | [`bist`] | `socet-bist` | memory BIST: LFSR/MISR, March C−, BIST plans |
//! | [`socs`] | `socet-socs` | the paper's System 1 (barcode) and System 2 |
//!
//! # Quickstart
//!
//! ```
//! use socet::flow::{prepare_soc_with, PrepareOptions};
//! use socet::core::{Explorer, Objective};
//! use socet::cells::DftCosts;
//!
//! // The paper's System 1 with a light ATPG budget for the doc test.
//! let soc = socet::socs::barcode_system();
//! let costs = DftCosts::default();
//! let tpg = socet::atpg::TpgConfig { random_patterns: 16, max_backtracks: 64, ..Default::default() };
//! let (prepared, _) = prepare_soc_with(&soc, &costs, &tpg, &PrepareOptions::default())?;
//! let explorer = Explorer::new(&soc, &prepared.data, costs);
//! let plan = explorer.optimize(Objective::MinTatUnderArea { max_overhead_cells: 10_000 });
//! assert!(plan.test_application_time() > 0);
//! # Ok::<(), socet::flow::PrepareError>(())
//! ```

pub use socet_atpg as atpg;
pub use socet_baselines as baselines;
pub use socet_bist as bist;
pub use socet_cells as cells;
pub use socet_core as core;
pub use socet_gate as gate;
pub use socet_hscan as hscan;
pub use socet_obs as obs;
pub use socet_rtl as rtl;
pub use socet_socs as socs;
pub use socet_transparency as transparency;
pub use socet_verify as verify;

pub mod flow;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        let _ = crate::cells::DftCosts::default();
        let _ = crate::socs::barcode_system();
    }
}
