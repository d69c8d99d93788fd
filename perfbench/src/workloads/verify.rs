//! Sign-off of the paper design point (all-zeros version choice, full 105
//! vectors) of both paper systems by the gate-level replay oracle: the
//! untimed probe of `testability_paper`'s traced runs. As a timed workload
//! its fastest iteration spread up to 0.60 of the median between runs on a
//! shared host (the replay is LLC-bound), more than any bound allows.

use super::{light_prep, paper_systems};
use crate::layers::{ms, ratio, Layers};
use crate::stats::self_time;
use socet::baselines::flatten_soc;
use socet::cells::DftCosts;
use socet::core::{try_schedule, CoreTestData};
use socet::rtl::Soc;
use socet::verify::{verify_design_point, Shell, VerifyOptions, VerifyReport};
use std::time::Instant;

/// Full-scan vectors per core, as `soctool verify` replays them.
const VECTORS: usize = 105;

/// `(checks, bits checked)` per system. The replay's check count is a
/// function of the plan, not of the drive seed.
const PINNED_COUNTS: [(u64, u64); 2] = [(25620, 65205), (18270, 64890)];

struct Case {
    name: &'static str,
    soc: Soc,
    data: Vec<Option<CoreTestData>>,
    choice: Vec<usize>,
}

pub struct Signoff {
    cases: Vec<Case>,
    opts: VerifyOptions,
    expected: [(u64, u64); 2],
}

/// Checks of one report: episode checks plus the joint parallel replay's.
fn checks(r: &VerifyReport) -> u64 {
    r.episodes.iter().map(|e| e.checks).sum::<u64>() + r.parallel.as_ref().map_or(0, |p| p.checks)
}

fn bits(r: &VerifyReport) -> u64 {
    r.episodes.iter().map(|e| e.bits_checked).sum()
}

/// One sign-off's reports, per system.
pub type Reports = Vec<Result<VerifyReport, String>>;

impl Signoff {
    /// Light preparation of both systems; `seed` drives the replay.
    pub fn setup(seed: u64, layers: &mut Layers) -> Self {
        let cases = paper_systems()
            .into_iter()
            .map(|(name, soc)| {
                let data = light_prep(&soc, VECTORS, layers);
                let choice = vec![0; soc.cores().len()];
                Case {
                    name,
                    soc,
                    data,
                    choice,
                }
            })
            .collect();
        Signoff {
            cases,
            opts: VerifyOptions {
                seed,
                ..VerifyOptions::default()
            },
            expected: PINNED_COUNTS,
        }
    }

    /// Schedules and replays both systems, recording the layer readings.
    pub fn run(&self, l: &mut Layers) -> Reports {
        let costs = DftCosts::default();
        let mut out = Vec::new();
        let (mut bits_checked, mut untracked) = (0, 0);
        for case in &self.cases {
            let t = Instant::now();
            let plan = try_schedule(&case.soc, &case.data, &case.choice, &costs);
            let schedule_ms = ms(t);
            let plan = match plan {
                Ok(p) => p,
                Err(e) => {
                    out.push(Err(format!("{}: {e}", case.name)));
                    continue;
                }
            };
            let t = Instant::now();
            let report = verify_design_point(&case.soc, &case.data, &plan, &self.opts);
            let design_point_ms = ms(t);
            l.add("core.schedule_ms", schedule_ms);
            l.add("verify.design_point_ms", design_point_ms);
            // The oracle builds its shell and flattens the chip inside the
            // call; time the same two steps on their own, so the replay's
            // self time is what remains.
            let _ = l.time("verify.shell_build_ms", || {
                Shell::build(&case.soc, &case.data, &plan)
            });
            let _ = l.time("baselines.flatten_ms", || flatten_soc(&case.soc));
            if let Ok(r) = &report {
                bits_checked += bits(r);
                untracked += r.episodes.iter().map(|e| e.bits_untracked).sum::<u64>();
                l.add("verify.checks", checks(r) as f64);
                l.add("verify.bits_checked", bits(r) as f64);
                l.add(
                    "verify.hold_gaps",
                    r.episodes.iter().map(|e| e.hold_gaps).sum::<u64>() as f64,
                );
                l.add("verify.violations", r.violations.len() as f64);
            }
            out.push(report.map_err(|e| format!("{}: {e}", case.name)));
        }
        let part = |name| l.get(name).unwrap_or(0.0);
        let replay = self_time(
            part("verify.design_point_ms"),
            &[part("verify.shell_build_ms"), part("baselines.flatten_ms")],
        );
        l.add("verify.replay_ms", replay);
        let tracked = ratio(bits_checked as f64, (bits_checked + untracked) as f64);
        l.add("verify.tracked_ratio", tracked);
        out
    }

    /// Requires `VerifyReport::ok()` and the pinned counts of each system.
    pub fn check(&self, out: &Reports) -> Result<(), String> {
        if out.len() != self.cases.len() {
            return Err("a system was not verified".to_owned());
        }
        for ((case, r), (want_checks, want_bits)) in self.cases.iter().zip(out).zip(self.expected) {
            let r = r.as_ref().map_err(Clone::clone)?;
            if !r.ok() {
                return Err(format!("{}: {} violations", case.name, r.violations.len()));
            }
            if (checks(r), bits(r)) != (want_checks, want_bits) {
                return Err(format!(
                    "{}: {} checks / {} bits, expected {want_checks} / {want_bits}",
                    case.name,
                    checks(r),
                    bits(r)
                ));
            }
        }
        Ok(())
    }

    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        self.expected[0].0 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testability::DEFAULT_SEED;
    use crate::workloads::HELD_OUT_SEED;

    #[test]
    fn recorded_seeds_pass_and_corruption_is_caught() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let mut signoff = Signoff::setup(seed, &mut Layers::default());
            let mut layers = Layers::default();
            let out = signoff.run(&mut layers);
            assert_eq!(signoff.check(&out), Ok(()), "seed {seed}");
            assert!(layers.get("verify.replay_ms").unwrap() > 0.0);
            signoff.corrupt_reference();
            assert!(signoff.check(&out).is_err(), "seed {seed}");
        }
    }
}
