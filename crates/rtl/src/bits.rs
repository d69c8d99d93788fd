//! Bit ranges, the unit of bit-slicing.
//!
//! The paper's split-node machinery (C-split / O-split registers, §4) hinges
//! on *which bits* of a register or port a connection touches. [`BitRange`]
//! is the inclusive `[lsb, msb]` span used throughout the workspace.

use std::fmt;

/// An inclusive bit span `lsb..=msb` of a port or register, in the VHDL-like
/// `(msb downto lsb)` spirit the paper uses (e.g. `Address(7 downto 0)`).
///
/// # Examples
///
/// ```
/// use socet_rtl::BitRange;
/// let low = BitRange::new(0, 7);
/// let high = BitRange::new(8, 11);
/// assert_eq!(low.width(), 8);
/// assert!(!low.overlaps(high));
/// assert!(low.overlaps(BitRange::new(7, 9)));
/// assert_eq!(high.to_string(), "(11 downto 8)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitRange {
    lsb: u16,
    msb: u16,
}

impl BitRange {
    /// Creates the range `lsb..=msb`.
    ///
    /// # Panics
    ///
    /// Panics if `lsb > msb`.
    pub fn new(lsb: u16, msb: u16) -> Self {
        assert!(lsb <= msb, "BitRange lsb {lsb} > msb {msb}");
        BitRange { lsb, msb }
    }

    /// The full range of a `width`-bit signal: `0..=width-1`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use socet_rtl::BitRange;
    /// assert_eq!(BitRange::full(16), BitRange::new(0, 15));
    /// ```
    pub fn full(width: u16) -> Self {
        assert!(width > 0, "BitRange::full of zero width");
        BitRange::new(0, width - 1)
    }

    /// Least-significant bit index.
    pub fn lsb(self) -> u16 {
        self.lsb
    }

    /// Most-significant bit index.
    pub fn msb(self) -> u16 {
        self.msb
    }

    /// Number of bits covered.
    pub fn width(self) -> u16 {
        self.msb - self.lsb + 1
    }

    /// Whether `self` and `other` share any bit.
    pub fn overlaps(self, other: BitRange) -> bool {
        self.lsb <= other.msb && other.lsb <= self.msb
    }

    /// Whether `self` covers every bit of `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use socet_rtl::BitRange;
    /// assert!(BitRange::new(0, 7).contains(BitRange::new(2, 5)));
    /// assert!(!BitRange::new(0, 7).contains(BitRange::new(6, 9)));
    /// ```
    pub fn contains(self, other: BitRange) -> bool {
        self.lsb <= other.lsb && other.msb <= self.msb
    }

    /// Whether `bit` lies inside the range.
    pub fn contains_bit(self, bit: u16) -> bool {
        self.lsb <= bit && bit <= self.msb
    }

    /// Iterates over the bit indices of the range, LSB first.
    ///
    /// # Examples
    ///
    /// ```
    /// use socet_rtl::BitRange;
    /// let bits: Vec<u16> = BitRange::new(2, 4).bits().collect();
    /// assert_eq!(bits, vec![2, 3, 4]);
    /// ```
    pub fn bits(self) -> impl Iterator<Item = u16> {
        self.lsb..=self.msb
    }
}

impl fmt::Display for BitRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lsb == self.msb {
            write!(f, "({})", self.lsb)
        } else {
            write!(f, "({} downto {})", self.msb, self.lsb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_of_single_bit_is_one() {
        assert_eq!(BitRange::new(3, 3).width(), 1);
    }

    #[test]
    #[should_panic(expected = "lsb 5 > msb 2")]
    fn inverted_range_panics() {
        let _ = BitRange::new(5, 2);
    }

    #[test]
    #[should_panic(expected = "zero width")]
    fn full_zero_width_panics() {
        let _ = BitRange::full(0);
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = BitRange::new(0, 3);
        let b = BitRange::new(3, 6);
        let c = BitRange::new(4, 6);
        assert!(a.overlaps(b) && b.overlaps(a));
        assert!(!a.overlaps(c) && !c.overlaps(a));
    }

    #[test]
    fn contains_is_reflexive() {
        let a = BitRange::new(2, 9);
        assert!(a.contains(a));
    }

    #[test]
    fn contains_bit_boundaries() {
        let a = BitRange::new(2, 4);
        assert!(!a.contains_bit(1));
        assert!(a.contains_bit(2));
        assert!(a.contains_bit(4));
        assert!(!a.contains_bit(5));
    }

    #[test]
    fn bits_iterator_covers_range() {
        assert_eq!(BitRange::new(5, 5).bits().count(), 1);
        assert_eq!(BitRange::full(16).bits().count(), 16);
    }

    #[test]
    fn display_single_bit() {
        assert_eq!(BitRange::new(5, 5).to_string(), "(5)");
    }
}
