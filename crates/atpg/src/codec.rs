//! Binary codec for [`TestSet`] — the ATPG slice of a prepared-core
//! artifact — plus the [`TpgConfig`] fingerprint that keys it.
//!
//! Patterns dominate the artifact's size, so they are bit-packed: each
//! pattern occupies `ceil(width / 8)` bytes, LSB-first within each byte.
//! Spare bits in a pattern's last byte must be zero; a nonzero spare bit is
//! rejected as corruption rather than silently ignored, keeping encoding a
//! bijection (one value, one byte string) — the property the pipeline's
//! byte-for-byte equality tests lean on.

use crate::coverage::Coverage;
use crate::metrics::AtpgMetrics;
use crate::tpg::{TestSet, TpgConfig};
use socet_cells::{CodecError, Dec, Enc, StableHasher};

impl TpgConfig {
    /// Feeds every generation knob into `h`. The ATPG artifact is a pure
    /// function of (netlist, config), so any knob change must change the
    /// fingerprint — that is the cache-invalidation rule.
    pub fn fingerprint_into(&self, h: &mut StableHasher) {
        h.write_str("TpgConfig");
        h.write_usize(self.random_patterns);
        h.write_usize(self.max_backtracks);
        h.write_u64(self.seed);
    }
}

fn put_coverage(c: &Coverage, e: &mut Enc) {
    e.put_usize(c.total);
    e.put_usize(c.detected);
    e.put_usize(c.untestable);
    e.put_usize(c.aborted);
}

fn get_coverage(d: &mut Dec) -> Result<Coverage, CodecError> {
    Ok(Coverage {
        total: d.get_usize()?,
        detected: d.get_usize()?,
        untestable: d.get_usize()?,
        aborted: d.get_usize()?,
    })
}

fn put_metrics(m: &AtpgMetrics, e: &mut Enc) {
    for v in [
        m.blocks_simulated,
        m.cone_gate_evals,
        m.full_gate_evals_equiv,
        m.faults_skipped_unobservable,
        m.faults_dropped_random,
        m.faults_dropped_podem,
        m.fill_mask_events,
    ] {
        e.put_u64(v);
    }
}

fn get_metrics(d: &mut Dec) -> Result<AtpgMetrics, CodecError> {
    Ok(AtpgMetrics {
        blocks_simulated: d.get_u64()?,
        cone_gate_evals: d.get_u64()?,
        full_gate_evals_equiv: d.get_u64()?,
        faults_skipped_unobservable: d.get_u64()?,
        faults_dropped_random: d.get_u64()?,
        faults_dropped_podem: d.get_u64()?,
        fill_mask_events: d.get_u64()?,
    })
}

/// Encodes `tests` into `e`.
pub fn encode_test_set(tests: &TestSet, e: &mut Enc) {
    e.put_usize(tests.patterns.len());
    let width = tests.patterns.first().map_or(0, Vec::len);
    e.put_usize(width);
    for pattern in &tests.patterns {
        debug_assert_eq!(pattern.len(), width, "ragged pattern set");
        let mut packed = vec![0u8; width.div_ceil(8)];
        for (i, &bit) in pattern.iter().enumerate() {
            if bit {
                packed[i / 8] |= 1 << (i % 8);
            }
        }
        e.put_raw(&packed);
    }
    put_coverage(&tests.coverage, e);
    put_metrics(&tests.stats, e);
}

/// Decodes a test set written by [`encode_test_set`].
pub fn decode_test_set(d: &mut Dec) -> Result<TestSet, CodecError> {
    let count = d.get_usize()?;
    let width = d.get_usize()?;
    if width > u32::MAX as usize {
        return Err(CodecError::Corrupt("pattern width out of range"));
    }
    // An empty set encodes width 0; any other width for zero patterns is a
    // second byte string for the same value, which would break the
    // one-value-one-encoding bijection the cache's equality tests rely on.
    if count == 0 && width != 0 {
        return Err(CodecError::Corrupt("width without patterns"));
    }
    let bytes_per = width.div_ceil(8);
    // Bound the pattern loop by what the buffer can actually hold: a
    // corrupted count must not spin through billions of (possibly
    // zero-byte) patterns before hitting end-of-buffer.
    if count > d.remaining().max(1 << 20) {
        return Err(CodecError::Corrupt("pattern count implausible"));
    }
    let mut patterns = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let packed = d.get_raw(bytes_per)?;
        let mut pattern = Vec::with_capacity(width);
        for i in 0..width {
            pattern.push(packed[i / 8] >> (i % 8) & 1 != 0);
        }
        if width % 8 != 0 && packed[bytes_per - 1] >> (width % 8) != 0 {
            return Err(CodecError::Corrupt("nonzero spare bits in pattern"));
        }
        patterns.push(pattern);
    }
    let coverage = get_coverage(d)?;
    let stats = get_metrics(d)?;
    Ok(TestSet {
        patterns,
        coverage,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpg::generate_tests;
    use socet_gate::GateNetlistBuilder;

    fn sample_tests() -> TestSet {
        let mut b = GateNetlistBuilder::new("mux");
        let s = b.input("s");
        let x = b.input("x");
        let y = b.input("y");
        let q = b.dff(x);
        let m = b.mux(s, q, y);
        b.output("m", m);
        let nl = b.build().unwrap();
        generate_tests(&nl, &TpgConfig::default())
    }

    fn encode(tests: &TestSet) -> Vec<u8> {
        let mut e = Enc::new();
        encode_test_set(tests, &mut e);
        e.into_bytes()
    }

    #[test]
    fn test_set_round_trips_exactly() {
        let tests = sample_tests();
        assert!(!tests.patterns.is_empty());
        let bytes = encode(&tests);
        let mut d = Dec::new(&bytes);
        let back = decode_test_set(&mut d).unwrap();
        assert!(d.is_empty());
        assert_eq!(back.patterns, tests.patterns);
        assert_eq!(back.coverage, tests.coverage);
        assert_eq!(back.stats, tests.stats);
    }

    #[test]
    fn empty_test_set_round_trips() {
        let empty = TestSet {
            patterns: Vec::new(),
            coverage: Coverage::default(),
            stats: AtpgMetrics::default(),
        };
        let bytes = encode(&empty);
        let mut d = Dec::new(&bytes);
        let back = decode_test_set(&mut d).unwrap();
        assert!(back.patterns.is_empty());
    }

    #[test]
    fn nonzero_spare_bits_are_corrupt() {
        let tests = sample_tests();
        let width = tests.patterns[0].len();
        assert!(
            !width.is_multiple_of(8),
            "sample must have spare bits to poison"
        );
        let mut bytes = encode(&tests);
        // First pattern starts right after the two u64 headers; poison its
        // last (only) byte's top bit.
        let first_pattern_end = 16 + width.div_ceil(8);
        bytes[first_pattern_end - 1] |= 0x80;
        let mut d = Dec::new(&bytes);
        assert!(decode_test_set(&mut d).is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode(&sample_tests());
        for cut in [0, 9, bytes.len() / 2, bytes.len() - 1] {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(decode_test_set(&mut d).is_err());
        }
    }

    #[test]
    fn tpg_fingerprint_tracks_every_knob() {
        let fp = |c: &TpgConfig| {
            let mut h = StableHasher::new();
            c.fingerprint_into(&mut h);
            h.finish()
        };
        let base = TpgConfig::default();
        let reference = fp(&base);
        assert_eq!(reference, fp(&base.clone()));
        for (i, cfg) in [
            TpgConfig {
                random_patterns: base.random_patterns + 1,
                ..base
            },
            TpgConfig {
                max_backtracks: base.max_backtracks + 1,
                ..base
            },
            TpgConfig {
                seed: base.seed ^ 1,
                ..base
            },
        ]
        .iter()
        .enumerate()
        {
            assert_ne!(reference, fp(cfg), "knob {i} not fingerprinted");
        }
    }
}
