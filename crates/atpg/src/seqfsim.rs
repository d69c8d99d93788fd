//! Fault-parallel three-valued sequential fault simulation.
//!
//! The paper's "Orig." and "HSCAN-only" rows of Table 3 fault-simulate the
//! *sequential* chip (no scan access) against test sequences. Doing that
//! fault-serially is quadratic and slow, so this simulator packs up to 64
//! faulty machines into each `u64` word: lane *k* of every signal carries
//! the value seen by fault *k* of the current block. Values are three-valued
//! (flip-flops power up unknown), carried as the kernel's dual-rail
//! [`Tri64`] lanes.
//!
//! Fault blocks are mutually independent — each shares only the read-only
//! netlist and good-machine reference — so [`SeqFaultSim::run_from`]
//! additionally partitions them across scoped threads; results are
//! bit-identical for any worker count.

use crate::fault::Fault;
use socet_gate::kernel::sweep;
use socet_gate::{GateNetlist, SeqSim, Tri, Tri64};

/// Fault-parallel sequential fault simulator.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateNetlistBuilder, Tri};
/// use socet_atpg::{Fault, SeqFaultSim};
/// let mut b = GateNetlistBuilder::new("dff");
/// let d = b.input("d");
/// let q = b.dff(d);
/// b.output("q", q);
/// let nl = b.build()?;
/// let sim = SeqFaultSim::new(&nl);
/// // Clock in 1 then observe: q stuck-at-0 is detected.
/// let vectors = vec![vec![Tri::One], vec![Tri::Zero]];
/// let det = sim.run(&[Fault::sa0(q)], &vectors);
/// assert_eq!(det, vec![true]);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct SeqFaultSim<'a> {
    nl: &'a GateNetlist,
    /// Worker cap for block partitioning (1 forces serial evaluation).
    workers: usize,
}

impl<'a> SeqFaultSim<'a> {
    /// Creates a simulator over `nl`.
    pub fn new(nl: &'a GateNetlist) -> Self {
        SeqFaultSim {
            nl,
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }

    /// Caps the number of worker threads block partitioning may use; `0`
    /// and `1` both force serial evaluation. Results are bit-identical for
    /// every setting.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Simulates `vectors` (applied cycle by cycle from X-initialized state)
    /// against every fault; `result[i]` reports whether `faults[i]` produced
    /// a definite, wrong value at a primary output in some cycle.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length differs from the netlist's input count.
    pub fn run(&self, faults: &[Fault], vectors: &[Vec<Tri>]) -> Vec<bool> {
        self.run_from(faults, vectors, Tri::X)
    }

    /// Like [`SeqFaultSim::run`] but with every flip-flop initialized to
    /// `init` — pass [`Tri::Zero`] to model a chip that starts from reset.
    pub fn run_from(&self, faults: &[Fault], vectors: &[Vec<Tri>], init: Tri) -> Vec<bool> {
        // Reference (good-machine) outputs per cycle.
        let mut good_sim = match init {
            Tri::Zero => SeqSim::new_reset(self.nl),
            _ => SeqSim::new(self.nl),
        };
        let good_outputs: Vec<Vec<Tri>> = vectors.iter().map(|v| good_sim.step(v, None)).collect();

        let mut detected = vec![false; faults.len()];
        let mut blocks: Vec<(&[Fault], &mut [bool])> =
            faults.chunks(64).zip(detected.chunks_mut(64)).collect();
        let workers = self.workers.min(blocks.len());
        if workers > 1 {
            // Fault-block partitioning: contiguous runs of independent
            // 64-fault blocks per worker, each writing its own disjoint
            // slice of the detection map, so the merge is the identity.
            let per = blocks.len().div_ceil(workers);
            let good_outputs = &good_outputs;
            std::thread::scope(|s| {
                for part in blocks.chunks_mut(per) {
                    s.spawn(move || {
                        for (block, det) in part.iter_mut() {
                            let d = self.run_block(block, vectors, good_outputs, init);
                            det.copy_from_slice(&d);
                        }
                    });
                }
            });
        } else {
            for (block, det) in blocks.iter_mut() {
                let d = self.run_block(block, vectors, &good_outputs, init);
                det.copy_from_slice(&d);
            }
        }
        detected
    }

    fn run_block(
        &self,
        block: &[Fault],
        vectors: &[Vec<Tri>],
        good_outputs: &[Vec<Tri>],
        init: Tri,
    ) -> Vec<bool> {
        let n = self.nl.gates().len();
        // Injection masks per signal.
        let mut m1 = vec![0u64; n];
        let mut m0 = vec![0u64; n];
        for (k, f) in block.iter().enumerate() {
            if f.stuck_at_one {
                m1[f.signal.index()] |= 1 << k;
            } else {
                m0[f.signal.index()] |= 1 << k;
            }
        }
        let ffs = self.nl.flip_flops();
        let mut state = vec![Tri64::splat(init); ffs.len()];
        let mut detected_lanes = 0u64;
        let used: u64 = if block.len() == 64 {
            u64::MAX
        } else {
            (1u64 << block.len()) - 1
        };
        let mut pi = Vec::new();
        let mut v = Vec::new();
        for (vector, good) in vectors.iter().zip(good_outputs) {
            pi.clear();
            pi.extend(vector.iter().map(|t| Tri64::splat(*t)));
            sweep(self.nl, &pi, &state, &mut v, |s, x| {
                x.force(m1[s.index()], m0[s.index()])
            });
            // Detection at primary outputs.
            for ((_, s), good) in self.nl.outputs().iter().zip(good) {
                match good {
                    Tri::One => detected_lanes |= v[s.index()].zeros() & used,
                    Tri::Zero => detected_lanes |= v[s.index()].ones() & used,
                    Tri::X => {}
                }
            }
            // Clock.
            for (st, q) in state.iter_mut().zip(&ffs) {
                *st = v[self.nl.gate(*q).operands()[0].index()];
            }
        }
        (0..block.len())
            .map(|k| detected_lanes >> k & 1 != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_list;
    use socet_gate::GateNetlistBuilder;

    fn dff_chain(len: usize) -> GateNetlist {
        let mut b = GateNetlistBuilder::new("chain");
        let d = b.input("d");
        let mut s = d;
        for _ in 0..len {
            s = b.dff(s);
        }
        b.output("q", s);
        b.build().unwrap()
    }

    #[test]
    fn undetectable_without_enough_cycles() {
        let nl = dff_chain(3);
        let sim = SeqFaultSim::new(&nl);
        let faults = fault_list(&nl);
        // Two cycles cannot flush a 3-deep chain: the output is still X,
        // nothing definite to compare.
        let vectors = vec![vec![Tri::One]; 2];
        let det = sim.run(&faults, &vectors);
        assert!(det.iter().all(|&d| !d));
    }

    #[test]
    fn chain_faults_detected_after_flush() {
        let nl = dff_chain(3);
        let sim = SeqFaultSim::new(&nl);
        let faults = fault_list(&nl);
        // Drive 1s for 4 cycles (flush + observe), then 0s for 5: both
        // polarities become observable.
        let mut vectors = vec![vec![Tri::One]; 5];
        vectors.extend(vec![vec![Tri::Zero]; 6]);
        let det = sim.run(&faults, &vectors);
        assert!(
            det.iter().all(|&d| d),
            "undetected: {:?}",
            faults
                .iter()
                .zip(&det)
                .filter(|(_, &d)| !d)
                .map(|(f, _)| *f)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn agrees_with_scalar_seq_sim() {
        // Cross-check one fault against SeqSim's scalar fault injection.
        let nl = dff_chain(2);
        let faults = fault_list(&nl);
        let vectors: Vec<Vec<Tri>> = [Tri::One, Tri::Zero, Tri::One, Tri::One, Tri::Zero]
            .iter()
            .map(|t| vec![*t])
            .collect();
        let packed = SeqFaultSim::new(&nl).run(&faults, &vectors);
        for (fi, fault) in faults.iter().enumerate() {
            let mut good = SeqSim::new(&nl);
            let mut bad = SeqSim::new(&nl);
            let mut scalar_detected = false;
            for v in &vectors {
                let g = good.step(v, None);
                let f = bad.step(v, Some((fault.signal, fault.stuck_at_one)));
                for (gv, fv) in g.iter().zip(&f) {
                    if let (Some(a), Some(b)) = (gv.to_bool(), fv.to_bool()) {
                        if a != b {
                            scalar_detected = true;
                        }
                    }
                }
            }
            assert_eq!(packed[fi], scalar_detected, "{fault}");
        }
    }

    #[test]
    fn more_than_64_faults_use_blocks() {
        // A wide netlist with >64 fault sites.
        let mut b = GateNetlistBuilder::new("wide");
        let mut outs = Vec::new();
        for i in 0..40 {
            let x = b.input(&format!("x{i}"));
            let q = b.dff(x);
            outs.push(q);
        }
        for (i, q) in outs.iter().enumerate() {
            b.output(&format!("q{i}"), *q);
        }
        let nl = b.build().unwrap();
        let faults = fault_list(&nl);
        assert!(faults.len() > 64);
        let sim = SeqFaultSim::new(&nl);
        let vectors = vec![vec![Tri::One; 40], vec![Tri::Zero; 40], vec![Tri::Zero; 40]];
        let det = sim.run(&faults, &vectors);
        assert!(det.iter().all(|&d| d));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut b = GateNetlistBuilder::new("wide");
        let mut outs = Vec::new();
        for i in 0..40 {
            let x = b.input(&format!("x{i}"));
            let q = b.dff(x);
            outs.push(q);
        }
        for (i, q) in outs.iter().enumerate() {
            b.output(&format!("q{i}"), *q);
        }
        let nl = b.build().unwrap();
        let faults = fault_list(&nl);
        let vectors = vec![vec![Tri::One; 40], vec![Tri::X; 40], vec![Tri::Zero; 40]];
        let serial = SeqFaultSim::new(&nl).with_workers(1).run(&faults, &vectors);
        let parallel = SeqFaultSim::new(&nl).with_workers(6).run(&faults, &vectors);
        assert_eq!(serial, parallel);
    }
}
