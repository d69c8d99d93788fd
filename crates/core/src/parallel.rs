//! Parallel test scheduling — an extension beyond the paper.
//!
//! The paper tests cores strictly one after another (global TAT is the sum
//! of the episodes). But two episodes whose
//! [resources](crate::CoreEpisode::resources) are disjoint — neither
//! tests or routes through a core the other needs, and they touch
//! different chip pins — can run concurrently under independent core
//! clocks. [`parallelize`] packs a routed [`DesignPoint`]'s episodes with
//! greedy longest-first list scheduling and reports the resulting makespan;
//! the `ablation_reservations` bench binary quantifies the gain.

use crate::plan::{DesignPoint, EpisodeResource};
use std::fmt;

/// A concurrent packing of a design point's episodes.
#[derive(Debug, Clone)]
pub struct ParallelSchedule {
    /// `(episode, start cycle, end cycle)` per episode, in start order;
    /// `episode` indexes the plan's `episodes`.
    pub windows: Vec<(usize, u64, u64)>,
    /// Total cycles until the last episode finishes.
    pub makespan: u64,
    /// The serial TAT the paper would report, for comparison.
    pub serial_tat: u64,
}

impl ParallelSchedule {
    /// Speedup of the parallel packing over the paper's serial order.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.serial_tat as f64 / self.makespan as f64
        }
    }
}

impl fmt::Display for ParallelSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parallel schedule: {} episodes, makespan {} (serial {}, x{:.2})",
            self.windows.len(),
            self.makespan,
            self.serial_tat,
            self.speedup()
        )
    }
}

/// Packs `plan`'s episodes concurrently wherever their resource sets are
/// disjoint.
///
/// Greedy longest-processing-time list scheduling: episodes are sorted by
/// duration (longest first) and each is placed at the earliest cycle where
/// no already-placed, time-overlapping episode shares a resource with it.
/// The result never exceeds the serial TAT and equals it exactly when every
/// pair of episodes conflicts (e.g. a linear chain of cores, where each
/// core's test routes through the others).
///
/// # Examples
///
/// See `examples/design_space_exploration.rs` and the
/// `ablation_reservations` bench binary.
pub fn parallelize(plan: &DesignPoint) -> ParallelSchedule {
    let mut order: Vec<usize> = (0..plan.episodes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(plan.episodes[i].test_time()));

    let mut placed: Vec<(usize, u64, u64, Vec<EpisodeResource>)> = Vec::new();
    for i in order {
        let ep = &plan.episodes[i];
        let res = ep.resources();
        let dur = ep.test_time();
        // Candidate start times: 0 and the end of every placed episode.
        let mut candidates: Vec<u64> = std::iter::once(0)
            .chain(placed.iter().map(|&(_, _, end, _)| end))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let start = candidates
            .into_iter()
            .find(|&s| {
                placed.iter().all(|(_, ps, pe, pres)| {
                    let overlaps = s < *pe && *ps < s + dur;
                    !overlaps || !pres.iter().any(|r| res.binary_search(r).is_ok())
                })
            })
            .expect("time 0 after every placed episode always exists");
        placed.push((i, start, start + dur, res));
    }
    placed.sort_by_key(|&(_, s, ..)| s);
    ParallelSchedule {
        makespan: placed.iter().map(|&(_, _, e, _)| e).max().unwrap_or(0),
        windows: placed.into_iter().map(|(i, s, e, _)| (i, s, e)).collect(),
        serial_tat: plan.test_application_time(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CoreTestData;
    use crate::schedule::schedule;
    use socet_cells::DftCosts;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn buf_core() -> Arc<socet_rtl::Core> {
        let mut b = CoreBuilder::new("buf");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn independent_cores_run_concurrently() {
        // Two cores, each with its own pins: fully parallel.
        let core = buf_core();
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi0 = sb.input_pin("pi0", 8).unwrap();
        let pi1 = sb.input_pin("pi1", 8).unwrap();
        let po0 = sb.output_pin("po0", 8).unwrap();
        let po1 = sb.output_pin("po1", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi0, u0, i).unwrap();
        sb.connect_pin_to_core(pi1, u1, i).unwrap();
        sb.connect_core_to_pin(u0, o, po0).unwrap();
        sb.connect_core_to_pin(u1, o, po1).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 10).unwrap();
        let plan = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        let par = parallelize(&plan);
        assert!(
            par.makespan < par.serial_tat,
            "independent episodes should overlap: {par}"
        );
        assert!((par.speedup() - 2.0).abs() < 0.2, "{par}");
    }

    #[test]
    fn chained_cores_stay_serial() {
        // u0 feeds u1: testing either uses the other -> full conflict.
        let core = buf_core();
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();
        let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 10).unwrap();
        let plan = schedule(&soc, &data, &[0, 0], &DftCosts::default());
        let par = parallelize(&plan);
        assert_eq!(par.makespan, par.serial_tat, "{par}");
    }

    #[test]
    fn makespan_never_exceeds_serial() {
        let soc = socet_socs::barcode_system();
        let costs = DftCosts::default();
        let data = CoreTestData::synthesize_soc(&soc, &costs, 20).unwrap();
        let plan = schedule(&soc, &data, &vec![0; soc.cores().len()], &costs);
        let par = parallelize(&plan);
        assert!(par.makespan <= par.serial_tat);
        // Windows don't overlap when they share resources.
        for (k, &(i1, s1, e1)) in par.windows.iter().enumerate() {
            for &(i2, s2, e2) in par.windows.iter().skip(k + 1) {
                let overlap = s1 < e2 && s2 < e1;
                if overlap {
                    let r1 = plan.episodes[i1].resources();
                    let r2 = plan.episodes[i2].resources();
                    assert!(!r1.iter().any(|r| r2.contains(r)), "conflicting overlap");
                }
            }
        }
    }
}
