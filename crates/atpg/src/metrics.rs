//! Observability for the fault-simulation engine and the ATPG driver.
//!
//! The cone-pruned fault simulator's wins are invisible from its results —
//! detection maps are bit-identical to the naive path by construction — so
//! every engine counts its work here: how many cone gates were actually
//! re-evaluated versus the full-netlist equivalent the seed's simulator
//! would have paid, how many faults were skipped outright because their
//! cone reaches no observable point, and how the ATPG driver's phases
//! dropped faults. Every test-set artifact carries its core's counters;
//! `soctool atpg --stats` and `table3_testability` print their per-instance
//! sum (`PreparedSoc::atpg_stats`) directly.

use socet_obs::Counter;
use std::fmt;

/// Counters accumulated by [`FaultSim`](crate::FaultSim),
/// [`SeqFaultSim`](crate::SeqFaultSim) and the
/// [`generate_tests`](crate::generate_tests) /
/// [`compact_tests`](crate::compact_tests) drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtpgMetrics {
    /// 64-pattern blocks simulated (one good-machine evaluation each).
    pub blocks_simulated: u64,
    /// Gates re-evaluated inside fault cones.
    pub cone_gate_evals: u64,
    /// Gates the seed's full-netlist resimulation would have evaluated for
    /// the same fault×block work (`live faults × comb gates`); the ratio
    /// against [`AtpgMetrics::cone_gate_evals`] is the pruning win.
    pub full_gate_evals_equiv: u64,
    /// Fault evaluations skipped because the fault's cone reaches no
    /// observable point (no primary output, no flip-flop D input).
    pub faults_skipped_unobservable: u64,
    /// Faults first detected by the random-pattern phase of
    /// [`generate_tests`](crate::generate_tests).
    pub faults_dropped_random: u64,
    /// Faults first detected during the PODEM top-off (the targeted fault
    /// plus everything its random-filled vector drops).
    pub faults_dropped_podem: u64,
    /// Times a PODEM-proven test failed to detect its target fault under
    /// resimulation (the seed silently counted these as detected; now they
    /// trip a `debug_assert!` and are reported honestly).
    pub fill_mask_events: u64,
}

impl AtpgMetrics {
    /// A zeroed instance.
    pub fn new() -> Self {
        AtpgMetrics::default()
    }

    /// Folds `other` into `self` — used to aggregate per-pass and
    /// per-core counters.
    pub fn merge(&mut self, other: &AtpgMetrics) {
        self.blocks_simulated += other.blocks_simulated;
        self.cone_gate_evals += other.cone_gate_evals;
        self.full_gate_evals_equiv += other.full_gate_evals_equiv;
        self.faults_skipped_unobservable += other.faults_skipped_unobservable;
        self.faults_dropped_random += other.faults_dropped_random;
        self.faults_dropped_podem += other.faults_dropped_podem;
        self.fill_mask_events += other.fill_mask_events;
    }

    /// Charges these counters into the thread's installed
    /// [`socet_obs`] recorder, if any.
    pub fn publish(&self) {
        socet_obs::add(Counter::BlocksSimulated, self.blocks_simulated);
        socet_obs::add(Counter::ConeGateEvals, self.cone_gate_evals);
        socet_obs::add(Counter::FullGateEvalsEquiv, self.full_gate_evals_equiv);
        socet_obs::add(
            Counter::FaultsSkippedUnobservable,
            self.faults_skipped_unobservable,
        );
        socet_obs::add(Counter::FaultsDroppedRandom, self.faults_dropped_random);
        socet_obs::add(Counter::FaultsDroppedPodem, self.faults_dropped_podem);
        socet_obs::add(Counter::FillMaskEvents, self.fill_mask_events);
    }

    /// Fraction of the full-netlist work the cone engine actually did, in
    /// percent (100 means no pruning happened).
    pub fn cone_eval_share(&self) -> f64 {
        if self.full_gate_evals_equiv == 0 {
            100.0
        } else {
            self.cone_gate_evals as f64 / self.full_gate_evals_equiv as f64 * 100.0
        }
    }
}

impl fmt::Display for AtpgMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "atpg engine stats:")?;
        writeln!(f, "  pattern blocks         : {}", self.blocks_simulated)?;
        writeln!(
            f,
            "  cone gate evals        : {} ({:.1}% of the {} full-netlist equivalent)",
            self.cone_gate_evals,
            self.cone_eval_share(),
            self.full_gate_evals_equiv
        )?;
        writeln!(
            f,
            "  unobservable skips     : {}",
            self.faults_skipped_unobservable
        )?;
        writeln!(
            f,
            "  faults dropped         : {} random phase, {} podem phase",
            self.faults_dropped_random, self.faults_dropped_podem
        )?;
        write!(f, "  fill-mask events       : {}", self.fill_mask_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = AtpgMetrics {
            blocks_simulated: 1,
            cone_gate_evals: 2,
            full_gate_evals_equiv: 3,
            faults_skipped_unobservable: 4,
            faults_dropped_random: 5,
            faults_dropped_podem: 6,
            fill_mask_events: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.blocks_simulated, 2);
        assert_eq!(a.cone_gate_evals, 4);
        assert_eq!(a.full_gate_evals_equiv, 6);
        assert_eq!(a.faults_skipped_unobservable, 8);
        assert_eq!(a.faults_dropped_random, 10);
        assert_eq!(a.faults_dropped_podem, 12);
        assert_eq!(a.fill_mask_events, 14);
    }

    #[test]
    fn recorder_round_trip_preserves_every_counter() {
        let m = AtpgMetrics {
            blocks_simulated: 1,
            cone_gate_evals: 2,
            full_gate_evals_equiv: 3,
            faults_skipped_unobservable: 4,
            faults_dropped_random: 5,
            faults_dropped_podem: 6,
            fill_mask_events: 7,
        };
        // publish() reaches the installed thread-local sink.
        let mut tls = socet_obs::Recorder::new();
        {
            let _g = tls.install();
            m.publish();
        }
        let published = [
            (Counter::BlocksSimulated, 1),
            (Counter::ConeGateEvals, 2),
            (Counter::FullGateEvalsEquiv, 3),
            (Counter::FaultsSkippedUnobservable, 4),
            (Counter::FaultsDroppedRandom, 5),
            (Counter::FaultsDroppedPodem, 6),
            (Counter::FillMaskEvents, 7),
        ];
        for (c, v) in published {
            assert_eq!(tls.counter(c), v, "{}", c.name());
        }
    }

    #[test]
    fn cone_share_handles_zero_work() {
        assert_eq!(AtpgMetrics::new().cone_eval_share(), 100.0);
        let m = AtpgMetrics {
            cone_gate_evals: 25,
            full_gate_evals_equiv: 100,
            ..AtpgMetrics::new()
        };
        assert!((m.cone_eval_share() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn display_names_every_counter() {
        let s = AtpgMetrics::new().to_string();
        for needle in [
            "pattern blocks",
            "cone gate evals",
            "unobservable",
            "faults dropped",
            "fill-mask",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
