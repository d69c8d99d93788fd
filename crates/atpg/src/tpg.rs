//! The ATPG driver: random-pattern phase, PODEM top-off, fault dropping.

use crate::coverage::Coverage;
use crate::fault::fault_list;
use crate::fsim::FaultSim;
use crate::metrics::AtpgMetrics;
use crate::podem::{Podem, PodemOutcome};
use socet_gate::{GateNetlist, Tri};
use socet_obs::names;

/// Configuration of a [`generate_tests`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpgConfig {
    /// Random patterns to try before deterministic generation.
    pub random_patterns: usize,
    /// PODEM backtrack budget per fault.
    pub max_backtracks: usize,
    /// Seed for the deterministic pattern filler.
    pub seed: u64,
}

impl Default for TpgConfig {
    fn default() -> Self {
        TpgConfig {
            random_patterns: 32,
            max_backtracks: 512,
            seed: 0x5eed_50ce7,
        }
    }
}

/// A generated test set for the full-scan (combinational) view of a
/// netlist: each pattern assigns the real inputs followed by the flip-flop
/// pseudo-inputs.
#[derive(Debug, Clone)]
pub struct TestSet {
    /// The patterns, in generation order.
    pub patterns: Vec<Vec<bool>>,
    /// The fault accounting of the run.
    pub coverage: Coverage,
    /// Engine counters of the run (cone pruning, fault dropping, …).
    pub stats: AtpgMetrics,
}

impl TestSet {
    /// Number of test patterns (the paper's "full-scan vectors").
    pub fn vector_count(&self) -> usize {
        self.patterns.len()
    }
}

/// Runs combinational ATPG for every collapsed stuck-at fault of `nl`.
///
/// The driver mirrors a production flow:
///
/// 1. fault-simulate `random_patterns` deterministic-random patterns with
///    fault dropping (cheap coverage of the easy faults);
/// 2. run PODEM on each remaining fault; every new test is random-filled
///    and fault-simulated against all live faults so one vector usually
///    drops many;
/// 3. classify leftovers as untestable (PODEM exhausted) or aborted
///    (backtrack limit).
///
/// # Examples
///
/// ```
/// use socet_gate::{GateKind, GateNetlistBuilder};
/// use socet_atpg::{generate_tests, TpgConfig};
/// let mut b = GateNetlistBuilder::new("mux");
/// let s = b.input("s");
/// let x = b.input("x");
/// let y = b.input("y");
/// let m = b.mux(s, x, y);
/// b.output("m", m);
/// let nl = b.build()?;
/// let tests = generate_tests(&nl, &TpgConfig::default());
/// assert_eq!(tests.coverage.test_efficiency(), 100.0);
/// assert!(tests.vector_count() >= 2);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
pub fn generate_tests(nl: &GateNetlist, config: &TpgConfig) -> TestSet {
    let _run = socet_obs::span(names::ATPG);
    let faults = fault_list(nl);
    let mut sim = FaultSim::new(nl);
    let width = sim.pattern_width();
    let mut rng = XorShift64::new(config.seed);
    let mut detected = vec![false; faults.len()];
    let mut patterns: Vec<Vec<bool>> = Vec::new();
    let mut fill_mask_events = 0u64;

    // Phase 1: random patterns (kept only if they detect something new).
    {
        let _phase = socet_obs::span(names::ATPG_RANDOM);
        let mut batch: Vec<Vec<bool>> = Vec::new();
        for _ in 0..config.random_patterns {
            batch.push((0..width).map(|_| rng.bit()).collect());
        }
        if !batch.is_empty() {
            let before = count(&detected);
            sim.accumulate(&faults, &batch, &mut detected);
            if count(&detected) > before {
                // Keep only the useful patterns. Per-pattern detection masks
                // replay the greedy pattern-by-pattern decision over whole
                // 64-lane blocks instead of simulating one pattern per block.
                let mut redetected = vec![false; faults.len()];
                let mut masks = vec![0u64; faults.len()];
                for block in batch.chunks(64) {
                    sim.detection_masks(&faults, block, &redetected, &mut masks);
                    for (k, pat) in block.iter().enumerate() {
                        let mut useful = false;
                        for (fi, m) in masks.iter().enumerate() {
                            if !redetected[fi] && m >> k & 1 != 0 {
                                redetected[fi] = true;
                                useful = true;
                            }
                        }
                        if useful {
                            patterns.push(pat.clone());
                        }
                    }
                }
                detected = redetected;
            }
        }
    }
    let dropped_random = count(&detected);

    // Phase 2: PODEM top-off with fault dropping.
    let phase = socet_obs::span(names::ATPG_PODEM);
    let mut podem = Podem::new(nl, config.max_backtracks);
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    for fi in 0..faults.len() {
        if detected[fi] {
            continue;
        }
        match podem.run(faults[fi]) {
            PodemOutcome::Test(vector) => {
                let filled: Vec<bool> = vector
                    .iter()
                    .map(|t| match t {
                        Tri::One => true,
                        Tri::Zero => false,
                        Tri::X => rng.bit(),
                    })
                    .collect();
                sim.accumulate(&faults, std::slice::from_ref(&filled), &mut detected);
                patterns.push(filled);
                // PODEM's three-valued implication proved a D at an output
                // with the X inputs unassigned, so no fill can mask it; a
                // miss here means PODEM and the fault simulator disagree.
                // Coverage is counted from the simulator's verdict only.
                debug_assert!(
                    detected[fi],
                    "random fill masked PODEM's test for fault {:?}",
                    faults[fi]
                );
                if !detected[fi] {
                    fill_mask_events += 1;
                }
            }
            PodemOutcome::Untestable => untestable += 1,
            PodemOutcome::Aborted => aborted += 1,
        }
    }
    podem.counters().publish();
    drop(phase);

    let coverage = Coverage {
        total: faults.len(),
        detected: count(&detected),
        untestable,
        aborted,
    };
    let mut stats = sim.take_metrics();
    stats.faults_dropped_random = dropped_random as u64;
    stats.faults_dropped_podem = (coverage.detected - dropped_random) as u64;
    stats.fill_mask_events = fill_mask_events;
    // One publication per run keeps the installed recorder's counters in
    // lock-step with `stats`.
    stats.publish();
    TestSet {
        patterns,
        coverage,
        stats,
    }
}

/// Deterministic random vectors for sequential fault simulation (the
/// "Orig." experiments): `cycles` vectors over `inputs` input bits.
///
/// # Examples
///
/// ```
/// use socet_atpg::tpg::random_sequence;
/// let seq = random_sequence(3, 10, 42);
/// assert_eq!(seq.len(), 10);
/// assert_eq!(seq[0].len(), 3);
/// ```
pub fn random_sequence(inputs: usize, cycles: usize, seed: u64) -> Vec<Vec<Tri>> {
    let mut rng = XorShift64::new(seed);
    (0..cycles)
        .map(|_| (0..inputs).map(|_| Tri::from_bool(rng.bit())).collect())
        .collect()
}

fn count(det: &[bool]) -> usize {
    det.iter().filter(|&&d| d).count()
}

/// Small deterministic xorshift64 generator — no external dependency, and
/// runs are reproducible by construction.
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // Scramble through the splitmix64 finalizer so every seed —
        // including 0, which the raw xorshift recurrence cannot accept —
        // starts a distinct stream. (The old `seed.max(1)` clamp made
        // seeds 0 and 1 identical.)
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64 {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn bit(&mut self) -> bool {
        self.next() & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_list;
    use socet_gate::{GateKind, GateNetlistBuilder};

    fn adder4() -> GateNetlist {
        let mut b = GateNetlistBuilder::new("add4");
        let mut carry = b.const0();
        let mut sums = Vec::new();
        for i in 0..4 {
            let x = b.input(&format!("a{i}"));
            let y = b.input(&format!("b{i}"));
            let p = b.gate2(GateKind::Xor2, x, y);
            let s = b.gate2(GateKind::Xor2, p, carry);
            let g1 = b.gate2(GateKind::And2, x, y);
            let g2 = b.gate2(GateKind::And2, p, carry);
            carry = b.gate2(GateKind::Or2, g1, g2);
            sums.push(s);
        }
        for (i, s) in sums.iter().enumerate() {
            b.output(&format!("s{i}"), *s);
        }
        b.output("cout", carry);
        b.build().unwrap()
    }

    #[test]
    fn adder_reaches_full_efficiency() {
        let nl = adder4();
        let tests = generate_tests(&nl, &TpgConfig::default());
        assert_eq!(
            tests.coverage.test_efficiency(),
            100.0,
            "{}",
            tests.coverage
        );
        assert_eq!(tests.coverage.aborted, 0);
        // Every pattern assigns all 8 inputs.
        assert!(tests.patterns.iter().all(|p| p.len() == 8));
    }

    #[test]
    fn generated_patterns_actually_detect_reported_faults() {
        let nl = adder4();
        let tests = generate_tests(&nl, &TpgConfig::default());
        let faults = fault_list(&nl);
        let mut sim = FaultSim::new(&nl);
        let det = sim.detected(&faults, &tests.patterns);
        assert_eq!(count(&det), tests.coverage.detected);
        // …and with the fill-mask fallback gone, the naive oracle agrees.
        let naive = sim.detected_naive(&faults, &tests.patterns);
        assert_eq!(count(&naive), tests.coverage.detected);
        assert_eq!(tests.stats.fill_mask_events, 0);
    }

    #[test]
    fn zero_random_patterns_still_works() {
        let nl = adder4();
        let cfg = TpgConfig {
            random_patterns: 0,
            ..TpgConfig::default()
        };
        let tests = generate_tests(&nl, &cfg);
        assert_eq!(tests.coverage.test_efficiency(), 100.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let nl = adder4();
        let a = generate_tests(&nl, &TpgConfig::default());
        let b = generate_tests(&nl, &TpgConfig::default());
        assert_eq!(a.patterns, b.patterns);
    }

    #[test]
    fn random_sequence_is_reproducible() {
        assert_eq!(random_sequence(4, 6, 9), random_sequence(4, 6, 9));
        assert_ne!(random_sequence(4, 6, 9), random_sequence(4, 6, 10));
    }

    #[test]
    fn seed_zero_and_one_produce_distinct_streams() {
        // Regression: `seed.max(1)` used to alias seed 0 onto seed 1.
        assert_ne!(random_sequence(4, 16, 0), random_sequence(4, 16, 1));
        let nl = adder4();
        let zero = generate_tests(
            &nl,
            &TpgConfig {
                seed: 0,
                ..TpgConfig::default()
            },
        );
        let one = generate_tests(
            &nl,
            &TpgConfig {
                seed: 1,
                ..TpgConfig::default()
            },
        );
        assert_ne!(zero.patterns, one.patterns);
    }

    #[test]
    fn driver_populates_engine_stats() {
        let nl = adder4();
        let tests = generate_tests(&nl, &TpgConfig::default());
        assert!(tests.stats.blocks_simulated > 0);
        assert!(tests.stats.cone_gate_evals > 0);
        assert_eq!(tests.stats.fill_mask_events, 0);
        assert_eq!(
            tests.stats.faults_dropped_random + tests.stats.faults_dropped_podem,
            tests.coverage.detected as u64
        );
    }

    #[test]
    fn redundant_logic_lowers_fc_not_teff() {
        // y = a OR (a AND b): AND s-a-0 is redundant.
        let mut b = GateNetlistBuilder::new("red");
        let a = b.input("a");
        let bb = b.input("b");
        let and_ab = b.gate2(GateKind::And2, a, bb);
        let y = b.gate2(GateKind::Or2, a, and_ab);
        b.output("y", y);
        let nl = b.build().unwrap();
        let tests = generate_tests(&nl, &TpgConfig::default());
        assert!(tests.coverage.untestable >= 1, "{}", tests.coverage);
        assert_eq!(tests.coverage.test_efficiency(), 100.0);
        assert!(tests.coverage.fault_coverage() < 100.0);
    }
}
