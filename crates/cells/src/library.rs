//! Cell kinds and the per-kind area table.
//!
//! Areas are expressed in abstract *cell units*: the paper counts mapped
//! cells, so a simple gate is one unit and wider structures scale with their
//! gate decomposition. The default [`CellLibrary::generic_08um`] table mirrors
//! a typical .8µm standard-cell offering.

use std::fmt;

/// The kinds of cells the SOCET tool-chain maps RTL constructs onto.
///
/// The set is deliberately small — it is what a mid-90s synthesis flow would
/// target for datapath + control logic, plus the DFT-specific cells (scan
/// flip-flops, boundary-scan cells) the paper's comparisons require.
///
/// # Examples
///
/// ```
/// use socet_cells::CellKind;
/// assert_eq!(CellKind::Mux2.to_string(), "MUX2");
/// assert!(CellKind::ALL.contains(&CellKind::ScanDff));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer (one bit).
    Mux2,
    /// D flip-flop (one bit).
    Dff,
    /// Scan-equipped D flip-flop (one bit); integrates the test mux.
    ScanDff,
    /// Boundary-scan cell (one bit), used by the FSCAN-BSCAN baseline.
    BscanCell,
    /// Transparent latch (one bit), used by freeze/hold structures.
    Latch,
    /// Full adder bit, the unit of ripple datapath operators.
    FullAdder,
    /// Tri-state buffer (one bit), used for bus interconnect.
    Tribuf,
}

impl CellKind {
    /// Every cell kind, in a stable order.
    pub const ALL: [CellKind; 13] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Mux2,
        CellKind::Dff,
        CellKind::ScanDff,
        CellKind::BscanCell,
        CellKind::Latch,
        CellKind::FullAdder,
        CellKind::Tribuf,
    ];

    /// Short library name of the cell, e.g. `"NAND2"`.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(socet_cells::CellKind::Dff.name(), "DFF");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Dff => "DFF",
            CellKind::ScanDff => "SDFF",
            CellKind::BscanCell => "BSC",
            CellKind::Latch => "LATCH",
            CellKind::FullAdder => "FA",
            CellKind::Tribuf => "TRIBUF",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cell library: the per-kind area table used for all cell counting.
///
/// The paper's numbers come from "technology mapping with a .8µm cell
/// library"; [`CellLibrary::generic_08um`] is our reconstruction. Areas are
/// in integer cell units so that reports match the paper's "(cells)" columns.
///
/// # Examples
///
/// ```
/// use socet_cells::{CellKind, CellLibrary};
/// let lib = CellLibrary::generic_08um();
/// // A scan flip-flop costs more than a plain flip-flop...
/// assert!(lib.area_of(CellKind::ScanDff) > lib.area_of(CellKind::Dff));
/// // ...but less than a flip-flop plus a discrete mux would.
/// assert!(lib.area_of(CellKind::ScanDff)
///     <= lib.area_of(CellKind::Dff) + lib.area_of(CellKind::Mux2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellLibrary {
    name: String,
    area: [u32; CellKind::ALL.len()],
}

impl CellLibrary {
    /// A generic .8µm-class library where every mapped cell counts as the
    /// number of equivalent simple cells it occupies.
    pub fn generic_08um() -> Self {
        let mut area = [1u32; CellKind::ALL.len()];
        for (i, kind) in CellKind::ALL.iter().enumerate() {
            area[i] = match kind {
                CellKind::Inv => 1,
                CellKind::Nand2 => 1,
                CellKind::Nor2 => 1,
                CellKind::And2 => 1,
                CellKind::Or2 => 1,
                CellKind::Xor2 => 1,
                CellKind::Mux2 => 1,
                CellKind::Dff => 1,
                // A scan DFF replaces DFF + integrated mux; counting it as a
                // single (larger) cell matches the paper's remark that the
                // test mux "can be integrated with the destination flip-flops".
                CellKind::ScanDff => 2,
                CellKind::BscanCell => 3,
                CellKind::Latch => 1,
                CellKind::FullAdder => 2,
                CellKind::Tribuf => 1,
            };
        }
        CellLibrary {
            name: "generic-0.8um".to_owned(),
            area,
        }
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Area, in cell units, of one instance of `kind`.
    pub fn area_of(&self, kind: CellKind) -> u32 {
        let idx = CellKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("CellKind::ALL covers every variant");
        self.area[idx]
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::generic_08um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_kind_once() {
        let mut names: Vec<&str> = CellKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellKind::ALL.len());
    }

    #[test]
    fn default_is_generic_08um() {
        assert_eq!(CellLibrary::default(), CellLibrary::generic_08um());
    }

    #[test]
    fn display_matches_name() {
        for k in CellKind::ALL {
            assert_eq!(k.to_string(), k.name());
        }
    }
}
