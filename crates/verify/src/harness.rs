//! Randomized oracle harness: seeded synthetic SOCs, scheduled and
//! replayed end to end, with greedy shrinking of failures.
//!
//! The harness is deterministic: the i-th case of seed `s` always builds
//! the same [`SocSpec`], chooses the same design point, and produces the
//! same report bytes, independent of host or thread count (the whole
//! pipeline is single-threaded).

use crate::replay::{mix, verify_design_point, VerifyOptions, VerifyReport};
use crate::VerifyError;
use socet_cells::DftCosts;
use socet_core::{ladder_len, try_schedule, CoreTestData};
use socet_socs::SocSpec;
use std::fmt::Write as _;

/// Prepares a spec's SOC (HSCAN + version ladder per logic core), picks a
/// seeded design point, schedules it and replays it through the oracle.
///
/// The chosen version indices and the (small) combinational vector counts
/// are pure functions of `case_seed`, so a failing case is exactly
/// reproducible from `(spec, case_seed)` alone.
pub fn verify_spec(
    spec: &SocSpec,
    case_seed: u64,
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let soc = spec.build();
    let costs = DftCosts::default();
    let mut data = CoreTestData::synthesize_soc(&soc, &costs, 0)?;
    let mut choice = vec![0; data.len()];
    for (i, td) in data.iter_mut().enumerate() {
        let n = ladder_len(td.as_ref()) as u64;
        choice[i] = (mix(case_seed ^ (1000 + i as u64)) % n) as usize;
        if let Some(td) = td {
            td.scan_vectors = 2 + (mix(case_seed ^ (2000 + i as u64)) % 3) as usize;
        }
    }
    let plan = try_schedule(&soc, &data, &choice, &costs)?;
    verify_design_point(&soc, &data, &plan, opts)
}

/// Prepares `soc` (HSCAN + version ladder per logic core) with a fixed
/// combinational vector count per core, schedules `choice` and replays
/// it. This is the paper-system entry point: the real ATPG vector counts
/// only scale the episode length, not the transport logic under test, so
/// tests keep `scan_vectors` small.
pub fn verify_soc(
    soc: &socet_rtl::Soc,
    scan_vectors: usize,
    choice: &[usize],
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let costs = DftCosts::default();
    let data = CoreTestData::synthesize_soc(soc, &costs, scan_vectors)?;
    let plan = try_schedule(soc, &data, choice, &costs)?;
    verify_design_point(soc, &data, &plan, opts)
}

/// What became of one synthetic case.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// Replayed clean.
    Pass {
        /// Logic-core count of the generated SOC.
        cores: usize,
        /// The case's [`VerifyReport::checks`]: the episodes' scheduled
        /// checks plus the replay's executed ones.
        checks: u64,
    },
    /// The oracle found violations; `minimal` is the greedily shrunk spec
    /// that still fails (possibly the original).
    Fail {
        /// First violation of the *minimal* failing spec.
        first_violation: String,
        /// The shrunk counterexample.
        minimal: SocSpec,
        /// Shrink steps taken.
        shrink_steps: usize,
    },
    /// The case could not be scheduled/built — counted, not failed
    /// (random specs may legitimately admit no route).
    Skip {
        /// Why.
        reason: String,
    },
}

/// Outcome of a [`run_synthetic_cases`] sweep.
#[derive(Debug, Clone)]
pub struct SyntheticReport {
    /// Harness seed.
    pub seed: u64,
    /// Per-case outcomes, in case order.
    pub outcomes: Vec<CaseOutcome>,
}

impl SyntheticReport {
    /// True when no case failed (skips are fine).
    pub fn ok(&self) -> bool {
        !self
            .outcomes
            .iter()
            .any(|o| matches!(o, CaseOutcome::Fail { .. }))
    }

    /// Deterministic text rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let (mut pass, mut fail, mut skip) = (0usize, 0usize, 0usize);
        for (i, o) in self.outcomes.iter().enumerate() {
            match o {
                CaseOutcome::Pass { cores, checks } => {
                    pass += 1;
                    let _ = writeln!(s, "case {i}: PASS ({cores} cores, {checks} checks)");
                }
                CaseOutcome::Fail {
                    first_violation,
                    minimal,
                    shrink_steps,
                } => {
                    fail += 1;
                    let _ = writeln!(
                        s,
                        "case {i}: FAIL after {shrink_steps} shrinks -> {} cores: {}",
                        minimal.cores.len(),
                        first_violation
                    );
                }
                CaseOutcome::Skip { reason } => {
                    skip += 1;
                    let _ = writeln!(s, "case {i}: skip ({reason})");
                }
            }
        }
        let _ = writeln!(
            s,
            "synthetic sweep seed {:#x}: {pass} pass / {fail} fail / {skip} skip",
            self.seed
        );
        s
    }
}

/// Whether `(spec, case_seed)` currently fails the oracle. Errors during
/// preparation/scheduling read as "not failing" (they are skips).
fn fails(spec: &SocSpec, case_seed: u64, opts: &VerifyOptions) -> Option<String> {
    match verify_spec(spec, case_seed, opts) {
        Ok(report) if !report.ok() => Some(format!(
            "[{}] {}",
            report.violations[0].phase, report.violations[0].detail
        )),
        _ => None,
    }
}

/// Greedily shrinks a failing spec: repeatedly take the first
/// [`SocSpec::shrink_candidates`] entry that still fails, until none does.
fn shrink(spec: &SocSpec, case_seed: u64, opts: &VerifyOptions) -> (SocSpec, String, usize) {
    let mut cur = spec.clone();
    let mut detail = fails(&cur, case_seed, opts).unwrap_or_default();
    let mut steps = 0usize;
    'outer: loop {
        for cand in cur.shrink_candidates() {
            if cand.cores.is_empty() {
                continue;
            }
            if let Some(d) = fails(&cand, case_seed, opts) {
                cur = cand;
                detail = d;
                steps += 1;
                continue 'outer;
            }
        }
        return (cur, detail, steps);
    }
}

/// Runs `cases` seeded synthetic SOCs through the full
/// prepare→schedule→replay pipeline. Any failing case is shrunk to a
/// minimal counterexample before being reported.
pub fn run_synthetic_cases(seed: u64, cases: u64, opts: &VerifyOptions) -> SyntheticReport {
    let mut outcomes = Vec::with_capacity(cases as usize);
    for i in 0..cases {
        let case_seed = mix(seed.wrapping_add(i));
        let spec = SocSpec::random(case_seed);
        let outcome = match verify_spec(&spec, case_seed, opts) {
            Ok(report) if report.ok() => CaseOutcome::Pass {
                cores: spec.cores.len(),
                checks: report.checks(),
            },
            Ok(_) => {
                let (minimal, first_violation, shrink_steps) = shrink(&spec, case_seed, opts);
                CaseOutcome::Fail {
                    first_violation,
                    minimal,
                    shrink_steps,
                }
            }
            Err(e) => CaseOutcome::Skip {
                reason: e.to_string(),
            },
        };
        outcomes.push(outcome);
    }
    SyntheticReport { seed, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Skew;

    fn quick() -> VerifyOptions {
        VerifyOptions {
            max_vectors: Some(3),
            ..VerifyOptions::default()
        }
    }

    #[test]
    fn system1_replays_clean() {
        let soc = socet_socs::barcode_system();
        let n = soc.cores().len();
        let report = verify_soc(&soc, 2, &vec![0; n], &quick()).expect("oracle runs");
        assert!(report.ok(), "violations:\n{}", report.render());
        assert!(report.episodes.iter().any(|e| e.checks > 0));
    }

    #[test]
    fn system2_replays_clean() {
        let soc = socet_socs::system2();
        let n = soc.cores().len();
        let report = verify_soc(&soc, 2, &vec![0; n], &quick()).expect("oracle runs");
        assert!(report.ok(), "violations:\n{}", report.render());
    }

    #[test]
    fn skewed_claim_is_caught() {
        let soc = socet_socs::barcode_system();
        let n = soc.cores().len();
        // Find an episode with a physically routed input itinerary.
        let clean = verify_soc(&soc, 2, &vec![0; n], &quick()).expect("oracle runs");
        assert!(clean.ok());
        let mut opts = quick();
        opts.skew = Some(Skew {
            episode: 0,
            route: 0,
            delta: 1,
        });
        let skewed = verify_soc(&soc, 2, &vec![0; n], &opts).expect("oracle runs");
        assert!(
            skewed.violations.iter().any(|v| v.phase == "parallel"),
            "skew not caught:\n{}",
            skewed.render()
        );
    }

    #[test]
    fn synthetic_sweep_smoke() {
        let r = run_synthetic_cases(7, 3, &quick());
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.outcomes.len(), 3);
        // Determinism: same seed, byte-identical rendering.
        let r2 = run_synthetic_cases(7, 3, &quick());
        assert_eq!(r.render(), r2.render());
    }
}
