//! Tester-program generation: the per-cycle pin schedule behind an
//! episode's `vectors × per_vector + tail` arithmetic.
//!
//! A routed [`CoreEpisode`] says *when* each core input's data must be in
//! place relative to its vector slot; the tester works backwards from that:
//! a value arriving through a transparency route of latency `a` must be
//! presented at the chip pin `a` cycles earlier. This module expands an
//! episode into that explicit drive program — the artifact an ATE would
//! actually execute — and its invariants are strong enough to catch
//! scheduling bugs (every vector of every input is presented exactly once,
//! inside its own slot, never before the episode starts).

use crate::plan::CoreEpisode;
use socet_rtl::PortId;
use std::fmt;

/// One pin-presentation action of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveAction {
    /// Cycle (from episode start) at which the tester presents the data.
    pub cycle: u64,
    /// Which test vector (0-based) the data belongs to.
    pub vector: u64,
    /// The core-under-test input port the data is destined for.
    pub target_input: PortId,
    /// Cycles the data spends in flight through transparency paths.
    pub transit: u32,
}

/// A tester program for one episode.
#[derive(Debug, Clone)]
pub struct TesterProgram {
    /// All drive actions, sorted by cycle then port.
    pub drives: Vec<DriveAction>,
    /// Total program length in cycles (equals the episode's test time).
    pub length: u64,
}

impl fmt::Display for TesterProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tester program: {} drives over {} cycles",
            self.drives.len(),
            self.length
        )
    }
}

/// Expands `episode` into its tester program.
///
/// Slot `v` of the episode spans
/// `[v·per_vector, (v+1)·per_vector)`; data for an input with arrival `a`
/// is presented at the pins `a` cycles before its slot ends, i.e. at
/// `(v+1)·per_vector − a`.
///
/// # Examples
///
/// ```no_run
/// use socet_core::tester::tester_program;
/// # fn demo(ep: &socet_core::CoreEpisode) {
/// let program = tester_program(ep);
/// assert_eq!(program.length, ep.test_time());
/// # }
/// ```
pub fn tester_program(episode: &CoreEpisode) -> TesterProgram {
    let per = u64::from(episode.per_vector_cycles);
    let mut drives =
        Vec::with_capacity(episode.hscan_vectors as usize * episode.input_routes.len());
    for v in 0..episode.hscan_vectors {
        let slot_end = (v + 1) * per;
        for route in &episode.input_routes {
            drives.push(DriveAction {
                cycle: slot_end - u64::from(route.arrival).min(slot_end),
                vector: v,
                target_input: route.port,
                transit: route.arrival,
            });
        }
    }
    drives.sort_by_key(|d| (d.cycle, d.target_input.index(), d.vector));
    TesterProgram {
        drives,
        length: episode.test_time(),
    }
}

/// Checks the program's structural invariants; returns a violation
/// description, or `None` when clean. Used by tests and available to
/// downstream tooling as a sanity gate.
pub fn validate_program(episode: &CoreEpisode, program: &TesterProgram) -> Option<String> {
    let per = u64::from(episode.per_vector_cycles);
    let expected = episode.hscan_vectors as usize * episode.input_routes.len();
    if program.drives.len() != expected {
        return Some(format!(
            "expected {expected} drives, found {}",
            program.drives.len()
        ));
    }
    for d in &program.drives {
        if d.vector >= episode.hscan_vectors {
            return Some(format!("vector {} out of range", d.vector));
        }
        let slot_end = (d.vector + 1) * per;
        if d.cycle + u64::from(d.transit) != slot_end && d.cycle != 0 {
            return Some(format!(
                "drive at cycle {} + transit {} misses slot end {}",
                d.cycle, d.transit, slot_end
            ));
        }
        if d.cycle > program.length {
            return Some(format!("drive at {} beyond program end", d.cycle));
        }
    }
    // Exactly one drive per (vector, input).
    let mut seen = std::collections::HashSet::new();
    for d in &program.drives {
        if !seen.insert((d.vector, d.target_input)) {
            return Some(format!(
                "duplicate drive for vector {} input {}",
                d.vector, d.target_input
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CoreTestData;
    use crate::schedule::schedule;
    use socet_cells::DftCosts;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn chain_plan() -> crate::plan::DesignPoint {
        let mut b = CoreBuilder::new("buf");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_reg_to_reg(r1, r2).unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = Arc::new(b.build().unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();
        let costs = DftCosts::default();
        let data = CoreTestData::synthesize_soc(&soc, &costs, 7).unwrap();
        schedule(&soc, &data, &[0, 0], &costs)
    }

    #[test]
    fn program_validates_for_every_episode() {
        let plan = chain_plan();
        for ep in &plan.episodes {
            let program = tester_program(ep);
            assert_eq!(program.length, ep.test_time());
            assert_eq!(validate_program(ep, &program), None);
        }
    }

    #[test]
    fn embedded_core_drives_lead_their_slots() {
        let plan = chain_plan();
        // u1's input arrives through u0 (2 cycles): its drives land 2
        // cycles before each slot end.
        let ep = &plan.episodes[1];
        let program = tester_program(ep);
        let per = u64::from(ep.per_vector_cycles);
        for d in &program.drives {
            assert_eq!(d.transit, 2);
            assert_eq!(d.cycle + 2, (d.vector + 1) * per);
        }
    }

    #[test]
    fn drives_are_sorted_and_unique() {
        let plan = chain_plan();
        let program = tester_program(&plan.episodes[0]);
        for w in program.drives.windows(2) {
            assert!(
                (w[0].cycle, w[0].target_input.index(), w[0].vector)
                    < (w[1].cycle, w[1].target_input.index(), w[1].vector)
            );
        }
    }
}
