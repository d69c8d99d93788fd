//! `testability_paper`: Table 3's "Orig." measurement — random
//! sequential vectors fault-simulated on the flattened, un-DFT'd System 1
//! and System 2. In traced runs its probe signs off the paper design point
//! with the replay oracle ([`Signoff`]), untimed.

use super::verify::Signoff;
use super::{paper_systems, Workload, HELD_OUT_SEED};
use crate::layers::Layers;
use socet::atpg::tpg::random_sequence;
use socet::atpg::{fault_list, Coverage, SeqFaultSim};
use socet::baselines::{flatten_soc, orig_coverage};
use socet::gate::{GateNetlist, Tri};
use std::path::Path;

/// Workload seed used when the run's seed is 0: Table 3's seed.
pub const DEFAULT_SEED: u64 = 0xdac1998;
/// Random cycles per campaign, as in Table 3.
const CYCLES: usize = 96;
/// `(detected, total)` for System 1 and System 2 at the recorded seeds;
/// at [`DEFAULT_SEED`] these are Table 3's "Orig." rows.
const PINNED: &[(u64, [(usize, usize); 2])] = &[
    (DEFAULT_SEED, [(114, 4314), (334, 3192)]),
    (HELD_OUT_SEED, [(114, 4314), (642, 3192)]),
];

pub struct Testability {
    flats: Vec<(&'static str, GateNetlist)>,
    seed: u64,
    /// `(detected, total)` per system from a partitioned fault simulation.
    reference: Vec<(usize, usize)>,
    signoff: Signoff,
}

impl Workload for Testability {
    type Output = Vec<Coverage>;
    const ITEMS: &'static str = "fault_cycles";
    fn top_layers() -> Vec<&'static str> {
        vec!["atpg.seqfsim_ms"]
    }

    fn setup(seed: u64, _scratch: &Path, layers: &mut Layers) -> Result<Self, String> {
        let mut flats = Vec::new();
        let mut reference = Vec::new();
        for (name, soc) in paper_systems() {
            let flat = layers
                .time("baselines.flatten_ms", || flatten_soc(&soc))
                .map_err(|e| format!("{name}: {e}"))?;
            let faults = fault_list(&flat);
            let vectors = random_sequence(flat.inputs().len(), CYCLES, seed);
            // The benchmark runs on one CPU, so `orig_coverage` takes the
            // serial path; the reference takes the partitioned one.
            let detected =
                SeqFaultSim::new(&flat)
                    .with_workers(2)
                    .run_from(&faults, &vectors, Tri::Zero);
            reference.push((detected.iter().filter(|&&d| d).count(), faults.len()));
            flats.push((name, flat));
        }
        if let Some((_, pin)) = PINNED.iter().find(|(s, _)| *s == seed) {
            if reference != pin {
                return Err(format!(
                    "seed {seed}: reference {reference:?} differs from the pinned {pin:?}"
                ));
            }
        }
        Ok(Testability {
            flats,
            seed,
            reference,
            signoff: Signoff::setup(seed, layers),
        })
    }

    fn items(&self) -> f64 {
        let faults: usize = self.reference.iter().map(|(_, total)| total).sum();
        (faults * CYCLES) as f64
    }

    fn run(&mut self, layers: Option<&mut Layers>) -> Vec<Coverage> {
        let campaign = || {
            self.flats
                .iter()
                .map(|(_, flat)| orig_coverage(flat, CYCLES, self.seed))
                .collect::<Vec<_>>()
        };
        match layers {
            Some(l) => {
                let out = l.time("atpg.seqfsim_ms", campaign);
                l.add(
                    "atpg.seq_faults",
                    out.iter().map(|c| c.total).sum::<usize>() as f64,
                );
                l.add(
                    "atpg.seq_detected",
                    out.iter().map(|c| c.detected).sum::<usize>() as f64,
                );
                out
            }
            None => campaign(),
        }
    }

    fn check(&self, out: &Vec<Coverage>) -> Result<(), String> {
        let got: Vec<(usize, usize)> = out.iter().map(|c| (c.detected, c.total)).collect();
        if got != self.reference {
            return Err(format!(
                "detections {got:?} differ from the reference {:?}",
                self.reference
            ));
        }
        Ok(())
    }

    fn probe(&mut self, layers: &mut Layers) -> Result<(), String> {
        let out = self.signoff.run(layers);
        self.signoff.check(&out)
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.reference[1].0 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testing::check_then_corrupt;

    #[test]
    fn recorded_seeds_pass_and_corruption_is_caught() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let (good, bad) = check_then_corrupt::<Testability>(seed);
            assert_eq!(good, Ok(()), "seed {seed}");
            assert!(bad.is_err(), "seed {seed}");
        }
    }
}
