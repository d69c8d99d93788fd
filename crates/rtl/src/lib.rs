//! Register-transfer-level netlist substrate for the SOCET workspace.
//!
//! The SOCET methodology (DAC'98) consumes only *structural* information
//! about a core: its ports, registers, multiplexers, functional units and
//! the connections between them, including bit-slices. This crate provides
//! that representation:
//!
//! * [`Core`] — an RTL netlist for one core, built through [`CoreBuilder`]
//!   with full structural validation;
//! * [`Soc`] — a system-on-chip: core instances plus the chip-level nets
//!   wiring core ports to each other and to chip pins, built through
//!   [`SocBuilder`];
//! * supporting vocabulary: [`BitRange`], [`Port`], [`Register`],
//!   [`FunctionalUnit`], [`Connection`] and friends.
//!
//! Downstream crates derive everything from this model: `socet-hscan` builds
//! scan chains over the register-to-register paths, `socet-transparency`
//! extracts the register connectivity graph, `socet-gate` elaborates the
//! netlist into cells for ATPG and area accounting.
//!
//! # Examples
//!
//! ```
//! use socet_rtl::{CoreBuilder, Direction};
//!
//! let mut b = CoreBuilder::new("toy");
//! let din = b.port("din", Direction::In, 8)?;
//! let dout = b.port("dout", Direction::Out, 8)?;
//! let r = b.register("r", 8)?;
//! b.connect_port_to_reg(din, r)?;
//! b.connect_reg_to_port(r, dout)?;
//! let core = b.build()?;
//! assert_eq!(core.registers().len(), 1);
//! # Ok::<(), socet_rtl::RtlError>(())
//! ```

pub mod bits;
pub mod component;
pub mod connection;
pub mod core;
pub mod error;
pub mod export;
pub mod fingerprint;
pub mod port;
pub mod soc;

pub use bits::BitRange;
pub use component::{FuKind, FunctionalUnit, FunctionalUnitId, Register, RegisterId};
pub use connection::{Connection, ConnectionId, Endpoint, RtlNode, Via};
pub use core::{Core, CoreBuilder};
pub use error::RtlError;
pub use port::{Direction, Port, PortId, SignalClass};
pub use soc::{
    ChipPin, ChipPinId, CoreInstance, CoreInstanceId, Soc, SocBuilder, SocEndpoint, SocNet,
    Terminal,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_doc_example_compiles() {
        let mut b = CoreBuilder::new("toy");
        let din = b.port("din", Direction::In, 8).unwrap();
        let dout = b.port("dout", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_port_to_reg(din, r).unwrap();
        b.connect_reg_to_port(r, dout).unwrap();
        let core = b.build().unwrap();
        assert_eq!(core.name(), "toy");
    }
}
