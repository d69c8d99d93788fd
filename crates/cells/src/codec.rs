//! Structural fingerprinting and the compact binary codec shared by the
//! artifact stores of the preparation pipeline.
//!
//! Everything here is hand-rolled over `std`: the workspace builds with an
//! empty cargo registry, so there is no serde and no external hash crate.
//! Two pieces live in this lowest-level crate because every other crate
//! depends on it:
//!
//! * [`StableHasher`] / [`Fingerprint`] — a process- and platform-stable
//!   128-bit structural hash (two independent FNV-1a 64 lanes). `std`'s
//!   `DefaultHasher` is randomly keyed per `RandomState`, which would make
//!   on-disk cache keys unusable across runs; this one is deterministic by
//!   construction.
//! * [`Enc`] / [`Dec`] — little-endian byte writer/reader primitives used
//!   by the per-crate `codec` modules (`socet-gate`, `socet-hscan`,
//!   `socet-transparency`, `socet-atpg`) to serialize prepared-core
//!   artifacts.

use crate::library::CellKind;
use crate::report::{AreaReport, DftCosts};
use std::error::Error;
use std::fmt;

/// A 128-bit stable content hash, printable as 32 hex digits (the on-disk
/// artifact file name of the preparation pipeline).
///
/// # Examples
///
/// ```
/// use socet_cells::codec::StableHasher;
/// let mut h = StableHasher::new();
/// h.write_str("core");
/// let a = h.finish();
/// let mut h2 = StableHasher::new();
/// h2.write_str("core");
/// assert_eq!(a, h2.finish());      // deterministic across instances
/// assert_eq!(a.to_hex().len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The fingerprint as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic structural hasher: two FNV-1a 64 lanes with distinct
/// offset bases, the second additionally rotated per byte so the lanes
/// decorrelate. Stable across processes, platforms and runs.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        StableHasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(x))
                .wrapping_mul(FNV_PRIME)
                .rotate_left(5);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u16` (little-endian).
    pub fn write_u16(&mut self, v: u16) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a length-prefixed string (prefixing prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated 128-bit fingerprint.
    pub fn finish(&self) -> Fingerprint {
        // A final avalanche round so short inputs still spread into the
        // high lane.
        let mut a = self.a;
        let mut b = self.b;
        a ^= b.rotate_left(32);
        a = a.wrapping_mul(FNV_PRIME);
        b ^= a.rotate_left(17);
        b = b.wrapping_mul(FNV_PRIME);
        Fingerprint((u128::from(a) << 64) | u128::from(b))
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Decoding failure of the binary artifact codec.
///
/// The artifact cache treats any decode error as a miss — a corrupt or
/// stale file is recomputed and overwritten, never trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the expected field.
    UnexpectedEof,
    /// A structural invariant of the encoded form failed.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => f.write_str("unexpected end of encoded artifact"),
            CodecError::Corrupt(what) => write!(f, "corrupt encoded artifact: {what}"),
        }
    }
}

impl Error for CodecError {}

/// Little-endian byte writer.
///
/// # Examples
///
/// ```
/// use socet_cells::codec::{Dec, Enc};
/// let mut e = Enc::new();
/// e.put_u32(7);
/// e.put_str("chain");
/// let bytes = e.into_bytes();
/// let mut d = Dec::new(&bytes);
/// assert_eq!(d.get_u32().unwrap(), 7);
/// assert_eq!(d.get_str().unwrap(), "chain");
/// assert!(d.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// A view of the bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte reader over a borrowed buffer.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `usize` (stored as `u64`); errors if it overflows the host.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?).map_err(|_| CodecError::Corrupt("usize overflow"))
    }

    /// Reads a boolean; errors on any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("boolean out of range")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("invalid utf-8"))
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

/// Encodes an [`AreaReport`] as `(kind, count)` pairs in the stable
/// [`CellKind::ALL`] order.
pub fn encode_area_report(report: &AreaReport, e: &mut Enc) {
    let pairs: Vec<(CellKind, u64)> = report.iter().collect();
    e.put_usize(pairs.len());
    for (kind, count) in pairs {
        let idx = CellKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("CellKind::ALL covers every variant");
        e.put_u8(idx as u8);
        e.put_u64(count);
    }
}

/// Decodes an [`AreaReport`] written by [`encode_area_report`].
pub fn decode_area_report(d: &mut Dec) -> Result<AreaReport, CodecError> {
    let n = d.get_usize()?;
    if n > CellKind::ALL.len() {
        return Err(CodecError::Corrupt("area report has too many kinds"));
    }
    let mut report = AreaReport::new();
    for _ in 0..n {
        let idx = d.get_u8()? as usize;
        let kind = *CellKind::ALL
            .get(idx)
            .ok_or(CodecError::Corrupt("cell kind out of range"))?;
        report.tally(kind, d.get_u64()?);
    }
    Ok(report)
}

impl DftCosts {
    /// Feeds every cost knob into `h`. Any change to any knob changes the
    /// fingerprint of every prepared-core artifact, which is exactly the
    /// invalidation rule the preparation pipeline's cache needs.
    pub fn fingerprint_into(&self, h: &mut StableHasher) {
        h.write_str("DftCosts");
        for v in [
            self.hscan_mux_reuse_gates,
            self.hscan_mux_select0_gates,
            self.hscan_direct_or_gates,
            self.hscan_test_mux_per_bit,
            self.freeze_gates_per_register,
            self.nonhscan_select_gates,
            self.transparency_mux_per_bit,
            self.system_test_mux_per_bit,
            self.bscan_cell_per_bit,
            self.fscan_per_ff,
            self.test_controller_cells,
            self.clock_gate_per_core,
        ] {
            h.write_u64(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = Enc::new();
        e.put_u8(0xab);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 1);
        e.put_bool(true);
        e.put_str("héllo");
        e.put_usize(42);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 0xab);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_usize().unwrap(), 42);
        assert!(d.is_empty());
    }

    #[test]
    fn truncated_buffer_is_eof_not_panic() {
        let mut e = Enc::new();
        e.put_u64(7);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        assert_eq!(d.get_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.get_bool(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn area_report_round_trips() {
        let mut r = AreaReport::of(CellKind::ScanDff, 12);
        r.tally(CellKind::Or2, 3);
        let mut e = Enc::new();
        encode_area_report(&r, &mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(decode_area_report(&mut d).unwrap(), r);
        assert!(d.is_empty());
    }

    #[test]
    fn hasher_is_order_sensitive_and_stable() {
        let mut a = StableHasher::new();
        a.write_str("x");
        a.write_str("y");
        let mut b = StableHasher::new();
        b.write_str("y");
        b.write_str("x");
        assert_ne!(a.finish(), b.finish());
        // Length prefixing: ("ab","c") != ("a","bc").
        let mut c = StableHasher::new();
        c.write_str("ab");
        c.write_str("c");
        let mut d = StableHasher::new();
        d.write_str("a");
        d.write_str("bc");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn dft_costs_fingerprint_tracks_every_knob() {
        let base = DftCosts::default();
        let fp = |c: &DftCosts| {
            let mut h = StableHasher::new();
            c.fingerprint_into(&mut h);
            h.finish()
        };
        let reference = fp(&base);
        assert_eq!(reference, fp(&base.clone()));
        for i in 0..12 {
            let mut c = base;
            match i {
                0 => c.hscan_mux_reuse_gates += 1,
                1 => c.hscan_mux_select0_gates += 1,
                2 => c.hscan_direct_or_gates += 1,
                3 => c.hscan_test_mux_per_bit += 1,
                4 => c.freeze_gates_per_register += 1,
                5 => c.nonhscan_select_gates += 1,
                6 => c.transparency_mux_per_bit += 1,
                7 => c.system_test_mux_per_bit += 1,
                8 => c.bscan_cell_per_bit += 1,
                9 => c.fscan_per_ff += 1,
                10 => c.test_controller_cells += 1,
                _ => c.clock_gate_per_core += 1,
            }
            assert_ne!(reference, fp(&c), "knob {i} not fingerprinted");
        }
    }
}
