//! Design-space exploration: the iterative-improvement core-version
//! selection of §5.2 and the exhaustive sweep behind Fig. 10.
//!
//! Every entry point comes in two flavours — a panicking one matching the
//! original API ([`Explorer::evaluate`], [`Explorer::sweep`],
//! [`Explorer::optimize`]) and a `try_` variant returning
//! [`ScheduleError`]. All of them run on reusable [`Scheduler`] engines:
//! the sweep walks the choice space in an order where neighbouring points
//! differ in few cores, so almost every evaluation is an incremental CCG
//! patch; the §5.2 loop additionally memoizes evaluated points (the
//! strict/lateral passes probe the same candidates repeatedly). Every
//! entry point shares the explorer's one warm engine, so its counters
//! describe the search alone, whatever the host's CPU count.

use crate::error::ScheduleError;
use crate::metrics::Metrics;
use crate::plan::{ladder_len, CoreTestData, DesignPoint};
use crate::schedule::Scheduler;
use socet_cells::{CellLibrary, DftCosts};
use socet_obs::{names, Recorder};
use socet_rtl::{CoreInstanceId, Soc};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// The user's optimization objective (paper §5, objectives (i) and (ii)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Objective (i): minimize global test application time subject to a
    /// chip-level test-area budget in cells (`w1 = 1, w2 = 0`).
    MinTatUnderArea {
        /// Maximum allowed chip-level DFT overhead in cells.
        max_overhead_cells: u64,
    },
    /// Objective (ii): minimize test-area overhead subject to a test
    /// application time budget in cycles (`w1 = 0, w2 = 1`).
    MinAreaUnderTat {
        /// Maximum allowed global test application time in cycles.
        max_tat_cycles: u64,
    },
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::MinTatUnderArea { max_overhead_cells } => {
                write!(f, "min TAT s.t. overhead <= {max_overhead_cells} cells")
            }
            Objective::MinAreaUnderTat { max_tat_cycles } => {
                write!(f, "min overhead s.t. TAT <= {max_tat_cycles} cycles")
            }
        }
    }
}

/// Design-space explorer over one SOC and its cores' version ladders.
///
/// # Examples
///
/// See the crate-level documentation of [`socet-core`](crate) and the
/// `design_space_exploration` example.
#[derive(Debug)]
pub struct Explorer<'a> {
    soc: &'a Soc,
    data: &'a [Option<CoreTestData>],
    costs: DftCosts,
    lib: CellLibrary,
    /// The warm evaluation engine: its cached CCG, router scratch and
    /// route cache survive across `evaluate`/`optimize`/`sweep` calls.
    engine: RefCell<Option<Scheduler<'a>>>,
    /// Explorer-wide recorder, installed as the thread's sink around every
    /// entry point: every evaluation's events land here, in evaluation
    /// order.
    rec: RefCell<Recorder>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer.
    pub fn new(soc: &'a Soc, data: &'a [Option<CoreTestData>], costs: DftCosts) -> Self {
        Explorer {
            soc,
            data,
            costs,
            lib: CellLibrary::generic_08um(),
            engine: RefCell::new(None),
            rec: RefCell::new(Recorder::new()),
        }
    }

    /// Runs `f` on the explorer's warm engine (created on first use).
    fn with_engine<R>(&self, f: impl FnOnce(&mut Scheduler<'a>) -> R) -> R {
        let mut engine = self.engine.borrow_mut();
        f(engine.get_or_insert_with(|| Scheduler::new(self.soc, self.data, &self.costs)))
    }

    /// Runs `f` with the explorer-wide recorder installed as the thread's
    /// sink, inside a span named `span` when one is given.
    fn recorded<R>(&self, span: Option<&'static str>, f: impl FnOnce() -> R) -> R {
        let mut rec = self.rec.borrow_mut();
        let _sink = rec.install();
        let _span = span.map(socet_obs::span);
        f()
    }

    /// Engine counters aggregated over every evaluation this explorer has
    /// run, as the [`Metrics`] view over the explorer-wide recorder.
    pub fn metrics(&self) -> Metrics {
        Metrics::from_recorder(&self.rec.borrow())
    }

    /// The explorer-wide recorder — spans and counters of every evaluation
    /// so far — for trace export; a fresh (empty) one takes its place.
    pub fn take_recorder(&self) -> Recorder {
        self.rec.replace(Recorder::new())
    }

    /// Routes and schedules one version choice.
    ///
    /// # Panics
    ///
    /// Panics on invalid input — use [`Explorer::try_evaluate`] for the
    /// typed-error contract.
    pub fn evaluate(&self, choice: &[usize]) -> DesignPoint {
        self.try_evaluate(choice).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Routes and schedules one version choice, reporting invalid input
    /// (missing core data, out-of-range or short choice vectors) as a
    /// [`ScheduleError`] instead of panicking.
    pub fn try_evaluate(&self, choice: &[usize]) -> Result<DesignPoint, ScheduleError> {
        self.recorded(None, || self.with_engine(|sched| sched.evaluate(choice)))
    }

    /// The minimum-area starting choice: version 1 everywhere.
    pub fn min_area_choice(&self) -> Vec<usize> {
        vec![0; self.soc.cores().len()]
    }

    /// The minimum-latency choice: the last version everywhere.
    pub fn min_latency_choice(&self) -> Vec<usize> {
        (0..self.soc.cores().len())
            .map(|i| ladder_len(self.data[i].as_ref()) - 1)
            .collect()
    }

    /// Exhaustively evaluates every version combination — the paper's
    /// Fig. 10 plots these points for System 1.
    ///
    /// Points are returned in colexicographic choice order: the choice
    /// counts up like a mixed-radix number whose *first* logic core is the
    /// fastest-varying digit, so neighbouring points differ in few cores.
    ///
    /// # Panics
    ///
    /// Panics on invalid input — use [`Explorer::try_sweep`].
    pub fn sweep(&self) -> Vec<DesignPoint> {
        self.try_sweep().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Explorer::sweep`].
    ///
    /// Every point is evaluated on the explorer's warm engine, whose route
    /// cache then serves a later `optimize`.
    pub fn try_sweep(&self) -> Result<Vec<DesignPoint>, ScheduleError> {
        let logic = self.soc.logic_cores();
        let radices: Vec<usize> = logic
            .iter()
            .map(|c| ladder_len(self.data[c.index()].as_ref()))
            .collect();
        let total: usize = radices.iter().product();
        let mut choice = vec![0usize; self.soc.cores().len()];
        self.recorded(Some(names::SWEEP), || {
            self.with_engine(|sched| {
                (0..total)
                    .map(|mut k| {
                        for (c, radix) in logic.iter().zip(&radices) {
                            choice[c.index()] = k % radix;
                            k /= radix;
                        }
                        sched.evaluate(&choice)
                    })
                    .collect()
            })
        })
    }

    /// §5.2 latency number of `core` under `version_idx`, given the pair
    /// usage of the current solution: `Σ usage(i,o) × latency(i,o)`.
    fn latency_number(&self, dp: &DesignPoint, core: CoreInstanceId, version_idx: usize) -> u64 {
        let Some(td) = self.data[core.index()].as_ref() else {
            return 0;
        };
        let version = &td.versions[version_idx];
        dp.pair_usage
            .iter()
            .filter(|((c, _, _), _)| *c == core)
            .map(|((_, i, o), count)| {
                let lat = version.pair_latency(*i, *o).unwrap_or_else(|| {
                    td.versions[dp.choice[core.index()]]
                        .pair_latency(*i, *o)
                        .unwrap_or(0)
                });
                u64::from(*count) * u64::from(lat)
            })
            .sum()
    }

    /// The iterative-improvement loop of §5.2.
    ///
    /// Starting from the minimum-area configuration, repeatedly replace one
    /// core with its next-more-expensive version, scoring candidates with
    /// `C = w1·ΔTAT + w2·ΔA`:
    ///
    /// * objective (i): pick the candidate with the largest ΔTAT that still
    ///   fits the area budget; stop when none fits;
    /// * objective (ii): pick the cheapest ΔA with non-zero ΔTAT; stop as
    ///   soon as the TAT budget is met (or no candidate helps).
    ///
    /// # Panics
    ///
    /// Panics on invalid input — use [`Explorer::try_optimize`].
    pub fn optimize(&self, objective: Objective) -> DesignPoint {
        self.try_optimize(objective)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Explorer::optimize`].
    ///
    /// Runs on one incremental engine and memoizes evaluated points — the
    /// strict and lateral passes probe the same neighbouring choices over
    /// and over, and a memo hit skips the whole build/route/assemble
    /// pipeline.
    pub fn try_optimize(&self, objective: Objective) -> Result<DesignPoint, ScheduleError> {
        let mut memo: HashMap<Vec<usize>, DesignPoint> = HashMap::new();
        self.recorded(Some(names::OPTIMIZE), || {
            self.with_engine(|sched| self.optimize_inner(objective, sched, &mut memo))
        })
    }

    fn optimize_inner(
        &self,
        objective: Objective,
        sched: &mut Scheduler<'_>,
        memo: &mut HashMap<Vec<usize>, DesignPoint>,
    ) -> Result<DesignPoint, ScheduleError> {
        let mut choice = self.min_area_choice();
        let mut current = eval_memo(sched, memo, &choice)?;
        // Version indices only ever increase, so the loop is bounded by the
        // total ladder height.
        loop {
            if let Objective::MinAreaUnderTat { max_tat_cycles } = objective {
                if current.test_application_time() <= max_tat_cycles {
                    return Ok(current);
                }
            }
            let mut candidates = self.candidates(&current, &choice);
            match objective {
                // w1 = 1, w2 = 0: biggest predicted ΔTAT first.
                Objective::MinTatUnderArea { .. } => {
                    candidates.sort_by_key(|c| (-c.dtat, c.da));
                }
                // w1 = 0, w2 = 1: cheapest ΔA with non-zero ΔTAT first,
                // zero-ΔTAT stepping stones last.
                Objective::MinAreaUnderTat { .. } => {
                    candidates.sort_by_key(|c| (c.dtat == 0, c.da));
                }
            }
            let budget = match objective {
                Objective::MinTatUnderArea { max_overhead_cells } => max_overhead_cells,
                Objective::MinAreaUnderTat { .. } => u64::MAX,
            };
            // Improving move first; failing that, a lateral (equal-TAT)
            // move unlocks deeper versions of the same ladder.
            let mut accepted = None;
            for strict in [true, false] {
                for cand in &candidates {
                    let mut next_choice = choice.clone();
                    next_choice[cand.core.index()] += 1;
                    let next = eval_memo(sched, memo, &next_choice)?;
                    if next.overhead_cells(&self.lib) > budget {
                        continue;
                    }
                    let tat = next.test_application_time();
                    let cur = current.test_application_time();
                    if tat < cur || (!strict && tat == cur) {
                        accepted = Some((next_choice, next));
                        break;
                    }
                }
                if accepted.is_some() {
                    break;
                }
            }
            match accepted {
                Some((nc, np)) => {
                    choice = nc;
                    current = np;
                }
                None => return Ok(current),
            }
        }
    }

    /// All single-step replacement moves with their predicted `ΔTAT`
    /// (latency-number drop, §5.2) and `ΔA`.
    fn candidates(&self, current: &DesignPoint, choice: &[usize]) -> Vec<Candidate> {
        let mut v = Vec::new();
        for core in self.soc.logic_cores() {
            let cur_v = choice[core.index()];
            let data = self.data[core.index()].as_ref();
            let Some(td) = data else { continue };
            if cur_v + 1 >= ladder_len(data) {
                continue;
            }
            let dtat = self.latency_number(current, core, cur_v) as i64
                - self.latency_number(current, core, cur_v + 1) as i64;
            let da = td.versions[cur_v + 1].overhead_cells(&self.lib) as i64
                - td.versions[cur_v].overhead_cells(&self.lib) as i64;
            v.push(Candidate { core, dtat, da });
        }
        v
    }
}

/// Evaluates through the memo: a previously seen choice skips the engine
/// entirely.
fn eval_memo(
    sched: &mut Scheduler<'_>,
    memo: &mut HashMap<Vec<usize>, DesignPoint>,
    choice: &[usize],
) -> Result<DesignPoint, ScheduleError> {
    if let Some(dp) = memo.get(choice) {
        return Ok(dp.clone());
    }
    let dp = sched.evaluate(choice)?;
    memo.insert(choice.to_vec(), dp.clone());
    Ok(dp)
}

/// A single-step replacement move considered by the §5.2 loop.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    core: CoreInstanceId,
    dtat: i64,
    da: i64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn pipeline_core(name: &str, depth: usize) -> Arc<socet_rtl::Core> {
        let mut b = CoreBuilder::new(name);
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let regs: Vec<_> = (0..depth)
            .map(|k| b.register(&format!("r{k}"), 8).unwrap())
            .collect();
        b.connect_port_to_reg(i, regs[0]).unwrap();
        for w in regs.windows(2) {
            b.connect_reg_to_reg(w[0], w[1]).unwrap();
        }
        b.connect_reg_to_port(regs[depth - 1], o).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn three_core_soc() -> (Soc, Vec<Option<CoreTestData>>) {
        let a = pipeline_core("a", 4);
        let b = pipeline_core("b", 3);
        let c = pipeline_core("c", 2);
        let (ai, ao) = (a.find_port("i").unwrap(), a.find_port("o").unwrap());
        let (bi, bo) = (b.find_port("i").unwrap(), b.find_port("o").unwrap());
        let (ci, co) = (c.find_port("i").unwrap(), c.find_port("o").unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let ua = sb.instantiate("ua", a.clone()).unwrap();
        let ub = sb.instantiate("ub", b.clone()).unwrap();
        let uc = sb.instantiate("uc", c.clone()).unwrap();
        sb.connect_pin_to_core(pi, ua, ai).unwrap();
        sb.connect_cores(ua, ao, ub, bi).unwrap();
        sb.connect_cores(ub, bo, uc, ci).unwrap();
        sb.connect_core_to_pin(uc, co, po).unwrap();
        let soc = sb.build().unwrap();
        let costs = DftCosts::default();
        let data = [(&a, 20), (&b, 15), (&c, 10)]
            .into_iter()
            .map(|(core, vectors)| Some(CoreTestData::synthesize(core, &costs, vectors).unwrap()))
            .collect();
        (soc, data)
    }

    #[test]
    fn sweep_covers_all_combinations() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let points = ex.sweep();
        assert_eq!(points.len(), 27);
        // Area and TAT are anticorrelated at the extremes.
        let lib = CellLibrary::generic_08um();
        let min_area = points
            .iter()
            .min_by_key(|p| p.overhead_cells(&lib))
            .unwrap();
        let min_tat = points
            .iter()
            .min_by_key(|p| p.test_application_time())
            .unwrap();
        assert!(min_area.test_application_time() >= min_tat.test_application_time());
        assert!(min_area.overhead_cells(&lib) <= min_tat.overhead_cells(&lib));
    }

    #[test]
    fn sweep_is_in_colexicographic_choice_order() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let points = ex.sweep();
        for (k, p) in points.iter().enumerate() {
            assert_eq!(p.choice, vec![k % 3, (k / 3) % 3, (k / 9) % 3], "point {k}");
        }
    }

    #[test]
    fn sweep_matches_per_point_evaluation() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        for p in ex.sweep() {
            let fresh = ex.evaluate(&p.choice);
            assert_eq!(format!("{p:?}"), format!("{fresh:?}"), "at {:?}", p.choice);
        }
    }

    #[test]
    fn sweep_accumulates_metrics() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        ex.sweep();
        let m = ex.metrics();
        assert_eq!(m.evaluations, 27);
        // One engine: one full build, then a patch per stepped core —
        // core 0 steps 26 times, core 1 eight times, core 2 twice.
        assert_eq!(m.ccg_full_builds, 1, "{m}");
        assert_eq!(m.ccg_incremental_patches, 36, "{m}");
        assert!(m.route_attempts > 0);
    }

    #[test]
    fn sweep_nests_every_evaluation_under_one_span() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        ex.sweep();
        let rec = ex.take_recorder();
        assert_eq!(rec.span_count(names::SWEEP), 1);
        let sweep = rec.spans().iter().position(|s| s.name == names::SWEEP);
        let evaluations: Vec<_> = rec
            .spans()
            .iter()
            .filter(|s| s.name == names::EVALUATE)
            .collect();
        assert_eq!(evaluations.len(), 27);
        for span in evaluations {
            assert_eq!(span.parent.map(|p| p as usize), sweep);
        }
    }

    #[test]
    fn try_evaluate_reports_missing_core_data() {
        let (soc, mut data) = three_core_soc();
        data[2] = None;
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        assert!(matches!(
            ex.try_evaluate(&[0, 0, 0]),
            Err(ScheduleError::MissingCoreData { core }) if core.index() == 2
        ));
    }

    #[test]
    fn try_evaluate_reports_out_of_range_choice() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        assert!(matches!(
            ex.try_evaluate(&[0, 7, 0]),
            Err(ScheduleError::ChoiceOutOfRange {
                choice: 7,
                versions: 3,
                ..
            })
        ));
    }

    #[test]
    fn objective_one_respects_area_budget() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let lib = CellLibrary::generic_08um();
        let baseline = ex.evaluate(&ex.min_area_choice());
        let budget = baseline.overhead_cells(&lib) + 40;
        let dp = ex.optimize(Objective::MinTatUnderArea {
            max_overhead_cells: budget,
        });
        assert!(dp.overhead_cells(&lib) <= budget);
        assert!(dp.test_application_time() <= baseline.test_application_time());
    }

    #[test]
    fn objective_one_with_huge_budget_approaches_min_tat() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let dp = ex.optimize(Objective::MinTatUnderArea {
            max_overhead_cells: u64::MAX,
        });
        let sweep_best = ex
            .sweep()
            .into_iter()
            .map(|p| p.test_application_time())
            .min()
            .unwrap();
        assert_eq!(dp.test_application_time(), sweep_best);
    }

    #[test]
    fn objective_two_stops_at_budget() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let lib = CellLibrary::generic_08um();
        let min_area = ex.evaluate(&ex.min_area_choice());
        let min_tat = ex.optimize(Objective::MinTatUnderArea {
            max_overhead_cells: u64::MAX,
        });
        // A budget halfway between the extremes.
        let target = (min_area.test_application_time() + min_tat.test_application_time()) / 2;
        let dp = ex.optimize(Objective::MinAreaUnderTat {
            max_tat_cycles: target,
        });
        assert!(dp.test_application_time() <= target);
        // It should be cheaper than the all-out min-TAT point.
        assert!(dp.overhead_cells(&lib) <= min_tat.overhead_cells(&lib));
    }

    #[test]
    fn min_latency_choice_indexes_last_versions() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        assert_eq!(ex.min_latency_choice(), vec![2, 2, 2]);
        assert_eq!(ex.min_area_choice(), vec![0, 0, 0]);
    }

    #[test]
    fn evaluate_is_pure() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let a = ex.evaluate(&[0, 1, 2, 0, 0][..soc.cores().len()]);
        let b = ex.evaluate(&[0, 1, 2, 0, 0][..soc.cores().len()]);
        assert_eq!(a.test_application_time(), b.test_application_time());
        assert_eq!(a.chip_overhead, b.chip_overhead);
    }

    #[test]
    fn unreachable_tat_budget_returns_best_effort() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let dp = ex.optimize(Objective::MinAreaUnderTat { max_tat_cycles: 1 });
        // 1 cycle is impossible; the loop must still terminate with the
        // best TAT it can find.
        let best = ex
            .sweep()
            .into_iter()
            .map(|p| p.test_application_time())
            .min()
            .unwrap();
        assert_eq!(dp.test_application_time(), best);
    }

    #[test]
    fn zero_area_budget_stays_at_minimum() {
        let (soc, data) = three_core_soc();
        let ex = Explorer::new(&soc, &data, DftCosts::default());
        let lib = CellLibrary::generic_08um();
        let baseline = ex.evaluate(&ex.min_area_choice());
        let dp = ex.optimize(Objective::MinTatUnderArea {
            max_overhead_cells: 0,
        });
        // Nothing fits a zero budget beyond the baseline itself.
        assert_eq!(dp.overhead_cells(&lib), baseline.overhead_cells(&lib));
    }

    #[test]
    fn objective_display() {
        let o = Objective::MinTatUnderArea {
            max_overhead_cells: 100,
        };
        assert!(o.to_string().contains("100"));
    }
}
