//! Human-readable test-plan reports: the "sign-off sheet" a test engineer
//! would read before committing a design point to silicon.

use crate::plan::{CoreTestData, DesignPoint};
use socet_cells::CellLibrary;
use socet_rtl::Soc;
use std::fmt::Write as _;

/// Renders a complete, multi-section report for one design point:
/// the chosen versions, per-episode cycle accounting, port arrival tables,
/// system-level test muxes and the overhead breakdown.
///
/// # Examples
///
/// ```
/// use socet_core::{schedule, report::render_plan, CoreTestData};
/// use socet_cells::DftCosts;
/// # use socet_rtl::{CoreBuilder, Direction, SocBuilder};
/// # use std::sync::Arc;
/// # let mut b = CoreBuilder::new("buf");
/// # let i = b.port("i", Direction::In, 8)?;
/// # let o = b.port("o", Direction::Out, 8)?;
/// # let r = b.register("r", 8)?;
/// # b.connect_port_to_reg(i, r)?;
/// # b.connect_reg_to_port(r, o)?;
/// # let core = Arc::new(b.build()?);
/// # let mut sb = SocBuilder::new("chip");
/// # let pi = sb.input_pin("pi", 8)?;
/// # let po = sb.output_pin("po", 8)?;
/// # let u0 = sb.instantiate("u0", core.clone())?;
/// # sb.connect_pin_to_core(pi, u0, i)?;
/// # sb.connect_core_to_pin(u0, o, po)?;
/// # let soc = sb.build()?;
/// let costs = DftCosts::default();
/// let data = CoreTestData::synthesize_soc(&soc, &costs, 10).expect("a buffer synthesizes");
/// let plan = schedule(&soc, &data, &[0], &costs);
/// let text = render_plan(&soc, &data, &plan);
/// assert!(text.contains("test plan for soc chip"));
/// assert!(text.contains("global test application time"));
/// # Ok::<(), socet_rtl::RtlError>(())
/// ```
pub fn render_plan(soc: &Soc, data: &[Option<CoreTestData>], plan: &DesignPoint) -> String {
    let lib = CellLibrary::generic_08um();
    let mut out = String::new();
    let _ = writeln!(out, "test plan for {}", soc);
    let _ = writeln!(out, "================================================");

    // Section 1: chosen versions.
    let _ = writeln!(out, "\ncore versions:");
    for cid in soc.logic_cores() {
        let inst = soc.core(cid);
        let Some(td) = data[cid.index()].as_ref() else {
            continue;
        };
        let v = &td.versions[plan.choice[cid.index()]];
        let _ = writeln!(
            out,
            "  {:<14} {:<10} (+{} cells transparency, +{} cells HSCAN, depth {}, {} vectors)",
            inst.name(),
            v.name(),
            v.overhead_cells(&lib),
            td.hscan.overhead_cells(&lib),
            td.hscan.sequential_depth(),
            td.scan_vectors,
        );
    }

    // Section 2: episodes.
    let _ = writeln!(out, "\ntest episodes (sequential):");
    for (ep, start, end) in plan.serial_windows() {
        let inst = soc.core(ep.core);
        let _ = writeln!(
            out,
            "  [{start:>8} .. {end:>8}) {:<14} {} vectors x {} cycles + {} tail",
            inst.name(),
            ep.hscan_vectors,
            ep.per_vector_cycles,
            ep.tail_cycles
        );
        for r in &ep.input_routes {
            let _ = writeln!(
                out,
                "      control {:<12} ready at cycle {} of each vector slot",
                inst.core().port(r.port).name(),
                r.arrival
            );
        }
        for r in &ep.output_routes {
            let _ = writeln!(
                out,
                "      observe {:<12} lands {} cycle(s) after the slot",
                inst.core().port(r.port).name(),
                r.arrival
            );
        }
    }

    // Section 3: system muxes.
    if plan.system_muxes.is_empty() {
        let _ = writeln!(out, "\nsystem-level test muxes: none");
    } else {
        let _ = writeln!(out, "\nsystem-level test muxes:");
        for m in &plan.system_muxes {
            let inst = soc.core(m.core);
            let _ = writeln!(
                out,
                "  {:<14} {:<12} {} ({} bits)",
                inst.name(),
                inst.core().port(m.port).name(),
                if m.controls_input {
                    "controlled from a PI"
                } else {
                    "observed at a PO"
                },
                m.width
            );
        }
    }

    // Section 4: interconnect coverage.
    let inter = crate::interconnect::interconnect_report(soc, plan);
    let _ = writeln!(out, "\n{inter}");

    // Section 5: totals.
    let _ = writeln!(out, "\ntotals:");
    let _ = writeln!(
        out,
        "  chip-level DFT overhead      : {} cells ({})",
        plan.overhead_cells(&lib),
        plan.chip_overhead
    );
    let _ = writeln!(
        out,
        "  global test application time : {} cycles",
        plan.test_application_time()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule;
    use socet_cells::DftCosts;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn tiny() -> (Soc, Vec<Option<CoreTestData>>) {
        let mut b = CoreBuilder::new("buf");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
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
        let data = CoreTestData::synthesize_soc(&soc, &costs, 10).unwrap();
        (soc, data)
    }

    #[test]
    fn report_contains_all_sections() {
        let (soc, data) = tiny();
        let plan = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        let text = render_plan(&soc, &data, &plan);
        for needle in [
            "core versions:",
            "test episodes (sequential):",
            "system-level test muxes",
            "global test application time",
            "u0",
            "u1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn episode_windows_are_contiguous() {
        let (soc, data) = tiny();
        let plan = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        let text = render_plan(&soc, &data, &plan);
        // The second episode starts where the first ends.
        let t0 = plan.episodes[0].test_time();
        assert!(text.contains(&format!("[{:>8} .. ", 0)));
        assert!(text.contains(&format!("[{t0:>8} .. ")), "{text}");
    }
}
