//! Quick area estimation of a core's structure, before full gate-level
//! elaboration.

use crate::component::FuKind;
use crate::connection::Via;
use crate::core::Core;

/// Estimates the pre-DFT cell area of a core using the same decomposition
/// rules `socet-gate` applies during elaboration:
///
/// * a register bit → 1 DFF cell;
/// * each mux leg beyond the first at a sink → 1 MUX2 cell per bit;
/// * each bus leg → 1 tri-state buffer per bit;
/// * a functional unit → kind-dependent gates per bit (see
///   [`fu_cells_per_bit`]), plus the control decode share for `Random`.
pub fn estimate_area_cells(core: &Core) -> u64 {
    let mut cells: u64 = 0;
    for r in core.registers() {
        cells += u64::from(r.width());
    }
    // Mux trees: per sink, (#lossless mux legs on overlapping bits - 1) * width.
    for c in core.connections() {
        match c.via {
            Via::MuxPath { .. } => {
                // Each leg contributes one 2:1 mux level per bit on average
                // in a balanced tree; charging one MUX2 per leg per bit is
                // the standard n-input mux decomposition (n-1 MUX2 per bit,
                // the first "leg" being the wire itself is not charged —
                // approximated by charging legs with index > 0).
                if let Via::MuxPath { leg } = c.via {
                    if leg > 0 {
                        cells += u64::from(c.dst.range.width());
                    }
                }
            }
            Via::Bus => cells += u64::from(c.dst.range.width()),
            _ => {}
        }
    }
    for fu in core.functional_units() {
        cells += u64::from(fu_cells_per_bit(fu.kind())) * u64::from(fu.width());
        if let FuKind::Random { gates } = fu.kind() {
            cells += u64::from(gates);
        }
    }
    cells
}

/// Cells per datapath bit charged for each functional-unit kind.
///
/// `Random` blocks are charged via their explicit gate count instead.
pub fn fu_cells_per_bit(kind: FuKind) -> u32 {
    match kind {
        FuKind::Add | FuKind::Sub => 2,
        FuKind::Inc => 1,
        FuKind::Cmp => 2,
        FuKind::Logic => 1,
        FuKind::Shift => 2,
        FuKind::Alu => 5,
        FuKind::Random { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::RtlNode;
    use crate::core::CoreBuilder;
    use crate::port::Direction;

    #[test]
    fn estimate_counts_registers_and_muxes() {
        let mut b = CoreBuilder::new("c");
        let i = b.port("i", Direction::In, 8).unwrap();
        let j = b.port("j", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r), 0).unwrap();
        b.connect_mux(RtlNode::Port(j), RtlNode::Reg(r), 1).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        // 8 DFFs + 8 MUX2 (leg 1 only).
        assert_eq!(estimate_area_cells(&core), 16);
    }

    #[test]
    fn estimate_counts_fus() {
        let mut b = CoreBuilder::new("c");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        let alu = b.functional_unit("alu", FuKind::Alu, 8).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_through_fu(r1, alu, r2).unwrap();
        b.connect_reg_to_port(r2, o).unwrap();
        let core = b.build().unwrap();
        // 16 DFFs + 8*5 ALU cells.
        assert_eq!(estimate_area_cells(&core), 56);
    }

    #[test]
    fn random_blocks_charge_explicit_gates() {
        assert_eq!(fu_cells_per_bit(FuKind::Random { gates: 99 }), 0);
        let mut b = CoreBuilder::new("c");
        let i = b.port("i", Direction::In, 1).unwrap();
        let o = b.port("o", Direction::Out, 1).unwrap();
        let r = b.register("r", 1).unwrap();
        let blob = b
            .functional_unit("ctl", FuKind::Random { gates: 40 }, 1)
            .unwrap();
        b.connect_port_to_fu(i, blob).unwrap();
        b.connect_fu_to_reg(blob, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        assert_eq!(estimate_area_cells(&core), 41);
    }
}
