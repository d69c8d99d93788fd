//! Interconnect test coverage — the structural advantage §1 claims over
//! the test-bus architecture.
//!
//! The test bus isolates every core, so "the test bus architecture is
//! unable to test the interconnect that exists between cores". SOCET's
//! test data *rides* the functional interconnect: every net a routed plan
//! crosses is exercised against stuck faults for free. This module reports
//! which nets a [`DesignPoint`] covers and classifies the rest.

use crate::plan::DesignPoint;
use socet_rtl::{Soc, SocEndpoint};
use std::fmt;

/// Why a net went untested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UntestedReason {
    /// The net touches a memory core — excluded from SOCET routing; its
    /// interconnect is exercised by the memory's BIST collar instead.
    MemoryNet,
    /// The net exists in the CCG but no route of this plan happened to
    /// cross it (another version choice or extra episodes could).
    NotRouted,
}

impl fmt::Display for UntestedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UntestedReason::MemoryNet => "memory net (BIST domain)",
            UntestedReason::NotRouted => "not crossed by any route",
        })
    }
}

/// The interconnect coverage of one design point.
#[derive(Debug, Clone)]
pub struct InterconnectReport {
    /// Indices of nets carrying test data.
    pub tested: Vec<usize>,
    /// Indices and reasons for the rest.
    pub untested: Vec<(usize, UntestedReason)>,
}

impl InterconnectReport {
    /// Coverage over the logic-domain nets (memory nets excluded from the
    /// denominator, matching the paper's BIST split).
    pub fn logic_coverage(&self) -> f64 {
        let untested_logic = self
            .untested
            .iter()
            .filter(|(_, r)| *r == UntestedReason::NotRouted)
            .count();
        let total = self.tested.len() + untested_logic;
        if total == 0 {
            100.0
        } else {
            self.tested.len() as f64 / total as f64 * 100.0
        }
    }
}

impl fmt::Display for InterconnectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interconnect: {} nets tested, {} untested ({:.1}% of logic nets)",
            self.tested.len(),
            self.untested.len(),
            self.logic_coverage()
        )
    }
}

/// Classifies every net of `soc` against `plan`.
///
/// # Examples
///
/// ```no_run
/// use socet_core::interconnect::interconnect_report;
/// # fn demo(soc: &socet_rtl::Soc, plan: &socet_core::DesignPoint) {
/// let report = interconnect_report(soc, plan);
/// println!("{report}");
/// # }
/// ```
pub fn interconnect_report(soc: &Soc, plan: &DesignPoint) -> InterconnectReport {
    let mut tested = Vec::new();
    let mut untested = Vec::new();
    for (ni, net) in soc.nets().iter().enumerate() {
        if plan.tested_nets.contains(&ni) {
            tested.push(ni);
            continue;
        }
        let touches_memory = [&net.src, &net.dst].iter().any(
            |ep| matches!(ep, SocEndpoint::CorePort { core, .. } if soc.core(*core).is_memory()),
        );
        untested.push((
            ni,
            if touches_memory {
                UntestedReason::MemoryNet
            } else {
                UntestedReason::NotRouted
            },
        ));
    }
    InterconnectReport { tested, untested }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CoreTestData;
    use crate::schedule::schedule;
    use socet_cells::DftCosts;

    #[test]
    fn system1_covers_its_logic_backbone() {
        let soc = socet_socs::barcode_system();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
        let plan = schedule(
            &soc,
            &data,
            &vec![0; soc.cores().len()],
            &DftCosts::default(),
        );
        let report = interconnect_report(&soc, &plan);
        // The PREPROCESSOR->CPU and CPU->DISPLAY data paths are routed
        // through, so the backbone is covered.
        assert!(report.logic_coverage() > 50.0, "{report}");
        // The memory nets are classified, not silently dropped.
        assert!(report
            .untested
            .iter()
            .any(|(_, r)| *r == UntestedReason::MemoryNet));
        // Totals add up.
        assert_eq!(
            report.tested.len() + report.untested.len(),
            soc.nets().len()
        );
    }

    #[test]
    fn pin_only_soc_has_full_logic_coverage() {
        // A plan whose routes never cross core-to-core nets (every port
        // direct at pins) shows what the test bus world looks like.
        use socet_rtl::{CoreBuilder, Direction, SocBuilder};
        use std::sync::Arc;
        let mut b = CoreBuilder::new("buf");
        let i = b.port("i", Direction::In, 4).unwrap();
        let o = b.port("o", Direction::Out, 4).unwrap();
        let r = b.register("r", 4).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = Arc::new(b.build().unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).unwrap();
        let po = sb.output_pin("po", 4).unwrap();
        let u = sb.instantiate("u", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u, i).unwrap();
        sb.connect_core_to_pin(u, o, po).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 20).unwrap();
        let plan = schedule(&soc, &data, &[0], &DftCosts::default());
        let report = interconnect_report(&soc, &plan);
        // Pin nets ARE crossed here (SOCET still exercises them); there are
        // simply no core-to-core nets to miss.
        assert_eq!(report.logic_coverage(), 100.0);
    }
}
