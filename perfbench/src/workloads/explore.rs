//! The exploration part of `prepare_paper`: the chip-level design-space
//! exploration a SOC integrator runs after core preparation — exhaustive
//! sweep, Pareto filter and both §5 objectives — on System 1 (Fig. 10's
//! 27 points) and System 2. Core data come from the light, ATPG-free
//! preparation at set-up. The workload seed draws the two objectives'
//! budgets.

use super::{light_prep, paper_systems, HELD_OUT_SEED};
use crate::layers::{ms, ratio, Layers};
use socet::cells::{CellLibrary, DftCosts, StableHasher};
use socet::core::{pareto_front, CoreTestData, DesignPoint, Explorer, Objective};
use socet::obs::names;
use socet::rtl::Soc;
use std::time::Instant;

/// Full-scan vectors per core (no ATPG in this part).
const VECTORS: usize = 105;

/// Output digests pinned for the recorded seeds, as `(seed, digest)`.
const PINNED: &[(u64, u128)] = &[
    (
        super::prepare::DEFAULT_SEED,
        0x2a07_5899_9739_c491_00a3_f79d_bf0d_488b,
    ),
    (HELD_OUT_SEED, 0x9a1c_af11_49ea_5860_f3d7_11df_7c3c_48d5),
];

struct Case {
    soc: Soc,
    data: Vec<Option<CoreTestData>>,
    objectives: [Objective; 2],
}

pub struct Exploration {
    cases: Vec<Case>,
    reference: Vec<CaseOutput>,
}

/// What one case's exploration decides: the Pareto front as
/// `(area, TAT, choice)` and each objective's chosen point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CaseOutput {
    front: Vec<(u64, u64, Vec<usize>)>,
    optimized: Vec<(u64, u64, Vec<usize>)>,
}

fn key(p: &DesignPoint, lib: &CellLibrary) -> (u64, u64, Vec<usize>) {
    (
        p.overhead_cells(lib),
        p.test_application_time(),
        p.choice.clone(),
    )
}

/// The non-dominated points by a sort-and-scan skyline, independent of
/// `pareto_front`: the first point in sweep order wins among cost twins.
fn skyline(points: &[DesignPoint], lib: &CellLibrary) -> Vec<(u64, u64, Vec<usize>)> {
    let mut keyed: Vec<(u64, u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.overhead_cells(lib), p.test_application_time(), i))
        .collect();
    keyed.sort_unstable();
    let mut front = Vec::new();
    let mut best_tat = u64::MAX;
    for (area, tat, i) in keyed {
        if tat < best_tat {
            best_tat = tat;
            front.push((area, tat, points[i].choice.clone()));
        }
    }
    front
}

/// Digest of a whole iteration's outputs, for pinning.
fn digest(outputs: &[CaseOutput]) -> u128 {
    let mut h = StableHasher::new();
    for o in outputs {
        for (area, tat, choice) in o.front.iter().chain(&o.optimized) {
            h.write_u64(*area);
            h.write_u64(*tat);
            for c in choice {
                h.write_u64(*c as u64);
            }
        }
        h.write_u64(o.front.len() as u64);
    }
    h.finish().0
}

/// Where in a swept range (between its quarter and three-quarter marks)
/// objective `k`'s budget sits, drawn from the workload seed.
fn budget_fraction(seed: u64, k: u64) -> f64 {
    let mut h = StableHasher::new();
    h.write_u64(seed);
    h.write_u64(k);
    0.25 + 0.5 * (h.finish().0 as u64 as f64 / u64::MAX as f64)
}

/// Layer timers that together cover [`Exploration::run`].
pub const TOP_LAYERS: [&str; 3] = ["core.sweep_ms", "core.pareto_ms", "core.optimize_ms"];

impl Exploration {
    /// Light preparation, the objectives' budgets and the output
    /// reference, from the workload seed.
    pub fn setup(seed: u64, layers: &mut Layers) -> Result<Self, String> {
        let lib = CellLibrary::generic_08um();
        let mut cases = Vec::new();
        let mut reference = Vec::new();
        for (_, soc) in paper_systems() {
            let data = light_prep(&soc, VECTORS, layers);
            let ex = Explorer::new(&soc, &data, DftCosts::default());
            let swept = ex.try_sweep().map_err(|e| e.to_string())?;
            // Budgets inside the swept ranges, so both objectives have
            // room to move.
            let budget = |k: u64, f: &dyn Fn(&DesignPoint) -> u64| {
                let lo = swept.iter().map(f).min().unwrap_or(0);
                let hi = swept.iter().map(f).max().unwrap_or(0);
                lo + ((hi - lo) as f64 * budget_fraction(seed, k)) as u64
            };
            let objectives = [
                Objective::MinTatUnderArea {
                    max_overhead_cells: budget(0, &|p| p.overhead_cells(&lib)),
                },
                Objective::MinAreaUnderTat {
                    max_tat_cycles: budget(1, &|p| p.test_application_time()),
                },
            ];
            let optimized = objectives
                .iter()
                .map(|o| ex.try_optimize(*o).map(|p| key(&p, &lib)))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            reference.push(CaseOutput {
                front: skyline(&swept, &lib),
                optimized,
            });
            drop(ex);
            cases.push(Case {
                soc,
                data,
                objectives,
            });
        }
        let got = digest(&reference);
        if let Some((_, pin)) = PINNED.iter().find(|(s, _)| *s == seed) {
            if *pin != got {
                return Err(format!(
                    "seed {seed}: reference digest {got:032x} differs from the pinned {pin:032x}"
                ));
            }
        }
        Ok(Exploration { cases, reference })
    }

    /// Sweep, Pareto filter and both objectives on every case; records
    /// layer readings when `layers` is given.
    pub fn run(&self, mut layers: Option<&mut Layers>) -> Vec<CaseOutput> {
        let lib = CellLibrary::generic_08um();
        let mut outputs = Vec::new();
        let (mut hits, mut attempts) = (0, 0);
        for case in &self.cases {
            let ex = Explorer::new(&case.soc, &case.data, DftCosts::default());
            let t = Instant::now();
            let swept = ex.sweep();
            let sweep_ms = ms(t);
            let t = Instant::now();
            let front = pareto_front(&swept);
            let pareto_ms = ms(t);
            let t = Instant::now();
            let optimized: Vec<DesignPoint> =
                case.objectives.iter().map(|o| ex.optimize(*o)).collect();
            let optimize_ms = ms(t);
            if let Some(l) = layers.as_deref_mut() {
                l.add("core.sweep_ms", sweep_ms);
                l.add("core.pareto_ms", pareto_ms);
                l.add("core.optimize_ms", optimize_ms);
                l.add("core.front_points", front.len() as f64);
                let m = ex.metrics();
                let rec = ex.take_recorder();
                let span_ms = |name| rec.span_total(name).as_secs_f64() * 1e3;
                l.add("core.build_ms", span_ms(names::BUILD));
                l.add("core.route_ms", span_ms(names::ROUTE));
                l.add("core.assemble_ms", span_ms(names::ASSEMBLE));
                l.add("core.evaluations", m.evaluations as f64);
                l.add(
                    "core.ccg_incremental_patches",
                    m.ccg_incremental_patches as f64,
                );
                l.add("core.route_attempts", m.route_attempts as f64);
                hits += m.route_cache_hits;
                attempts += m.route_attempts;
                l.add("core.dijkstra_relaxations", m.dijkstra_relaxations as f64);
            }
            outputs.push(CaseOutput {
                front: front.iter().map(|p| key(p, &lib)).collect(),
                optimized: optimized.iter().map(|p| key(p, &lib)).collect(),
            });
        }
        if let Some(l) = layers {
            l.add(
                "core.route_cache_hit_ratio",
                ratio(hits as f64, attempts as f64),
            );
        }
        outputs
    }

    /// Compares one run's output with the reference.
    pub fn check(&self, out: &[CaseOutput]) -> Result<(), String> {
        for (k, (got, want)) in out.iter().zip(&self.reference).enumerate() {
            if got.front != want.front {
                return Err(format!("case {k}: Pareto front differs from the skyline"));
            }
            if got.optimized != want.optimized {
                return Err(format!(
                    "case {k}: optimize results differ from the reference"
                ));
            }
        }
        if out.len() != self.reference.len() {
            return Err("case count differs".to_owned());
        }
        Ok(())
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        self.reference[0].front[0].0 ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_seeds_pass_and_corruption_is_caught() {
        for seed in [crate::workloads::prepare::DEFAULT_SEED, HELD_OUT_SEED] {
            let mut ex = Exploration::setup(seed, &mut Layers::default()).expect("set-up");
            let mut layers = Layers::default();
            let out = ex.run(Some(&mut layers));
            assert_eq!(ex.check(&out), Ok(()), "seed {seed}");
            for top in TOP_LAYERS {
                assert!(layers.get(top).is_some(), "{top} recorded");
            }
            ex.corrupt_reference();
            assert!(ex.check(&ex.run(None)).is_err(), "seed {seed}");
        }
    }
}
