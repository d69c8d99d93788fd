//! System-on-chip netlist: core instances plus chip-level interconnect.

use crate::bits::BitRange;
use crate::core::Core;
use crate::error::RtlError;
use crate::port::{Direction, PortId};
use std::fmt;
use std::sync::Arc;

/// Opaque handle to a chip pin within one [`Soc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChipPinId(pub(crate) u32);

impl ChipPinId {
    /// The handle's index within the SOC's pin table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChipPinId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pin{}", self.0)
    }
}

/// A chip-level pin (primary input or output of the SOC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipPin {
    pub(crate) name: String,
    pub(crate) direction: Direction,
    pub(crate) width: u16,
}

impl ChipPin {
    /// The pin's name, unique within the SOC.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// [`Direction::In`] for a primary input, [`Direction::Out`] for a
    /// primary output.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The pin's bit width.
    pub fn width(&self) -> u16 {
        self.width
    }
}

impl fmt::Display for ChipPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}:0]", self.direction, self.name, self.width - 1)
    }
}

/// Opaque handle to a core instance within one [`Soc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreInstanceId(pub(crate) u32);

impl CoreInstanceId {
    /// The handle's index within the SOC's core table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a handle from a dense index, the inverse of
    /// [`CoreInstanceId::index`]. The caller must keep the index within the
    /// owning SOC's core count.
    pub fn from_index(i: usize) -> CoreInstanceId {
        CoreInstanceId(i as u32)
    }
}

impl fmt::Display for CoreInstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// An instantiated core inside an SOC.
///
/// Memory cores (RAM/ROM) are flagged: the paper excludes them from
/// transparency routing because "most memory cores use BIST".
#[derive(Debug, Clone)]
pub struct CoreInstance {
    pub(crate) name: String,
    pub(crate) core: Arc<Core>,
    pub(crate) is_memory: bool,
}

impl CoreInstance {
    /// The instance name, unique within the SOC.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The core netlist this instance instantiates.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Whether this is a memory core (tested by BIST, not by SOCET routing).
    pub fn is_memory(&self) -> bool {
        self.is_memory
    }
}

impl fmt::Display for CoreInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} : {}{}",
            self.name,
            self.core.name(),
            if self.is_memory { " (memory)" } else { "" }
        )
    }
}

/// One end of a chip-level net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocEndpoint {
    /// A chip pin slice.
    Pin {
        /// The pin.
        pin: ChipPinId,
        /// The bits of the pin the net touches.
        range: BitRange,
    },
    /// A core-port slice.
    CorePort {
        /// The core instance.
        core: CoreInstanceId,
        /// The port on that core.
        port: PortId,
        /// The bits of the port the net touches.
        range: BitRange,
    },
}

impl SocEndpoint {
    /// The bit range the endpoint touches.
    pub fn range(&self) -> BitRange {
        match self {
            SocEndpoint::Pin { range, .. } => *range,
            SocEndpoint::CorePort { range, .. } => *range,
        }
    }

    /// The pin or core port the endpoint slices.
    pub fn terminal(&self) -> Terminal {
        match *self {
            SocEndpoint::Pin { pin, .. } => Terminal::Pin(pin),
            SocEndpoint::CorePort { core, port, .. } => Terminal::Port(core, port),
        }
    }
}

/// A whole chip-level net terminal: a chip pin, or one port of a core
/// instance. [`SocEndpoint`] is a bit slice of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminal {
    /// A chip pin.
    Pin(ChipPinId),
    /// A port of a core instance.
    Port(CoreInstanceId, PortId),
}

impl fmt::Display for SocEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocEndpoint::Pin { pin, range } => write!(f, "{pin}{range}"),
            SocEndpoint::CorePort { core, port, range } => {
                write!(f, "{core}.{port}{range}")
            }
        }
    }
}

/// A directed chip-level net: chip PI → core input, core output → core
/// input, or core output → chip PO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocNet {
    /// Where the data comes from (chip PI or core output).
    pub src: SocEndpoint,
    /// Where the data goes (core input or chip PO).
    pub dst: SocEndpoint,
}

impl fmt::Display for SocNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// A validated system-on-chip: pins, core instances and interconnect.
///
/// # Examples
///
/// ```
/// use socet_rtl::{CoreBuilder, Direction, SocBuilder};
/// # use std::sync::Arc;
/// let mut cb = CoreBuilder::new("buf");
/// let i = cb.port("i", Direction::In, 8)?;
/// let o = cb.port("o", Direction::Out, 8)?;
/// let r = cb.register("r", 8)?;
/// cb.connect_port_to_reg(i, r)?;
/// cb.connect_reg_to_port(r, o)?;
/// let buf = Arc::new(cb.build()?);
///
/// let mut sb = SocBuilder::new("chip");
/// let pi = sb.input_pin("pi", 8)?;
/// let po = sb.output_pin("po", 8)?;
/// let u0 = sb.instantiate("u0", buf.clone())?;
/// sb.connect_pin_to_core(pi, u0, i)?;
/// sb.connect_core_to_pin(u0, o, po)?;
/// let soc = sb.build()?;
/// assert_eq!(soc.cores().len(), 1);
/// # Ok::<(), socet_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Soc {
    name: String,
    pins: Vec<ChipPin>,
    cores: Vec<CoreInstance>,
    nets: Vec<SocNet>,
}

impl Soc {
    /// The SOC's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All chip pins, indexable by [`ChipPinId::index`].
    pub fn pins(&self) -> &[ChipPin] {
        &self.pins
    }

    /// All core instances, indexable by [`CoreInstanceId::index`].
    pub fn cores(&self) -> &[CoreInstance] {
        &self.cores
    }

    /// All chip-level nets.
    pub fn nets(&self) -> &[SocNet] {
        &self.nets
    }

    /// The pin behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different SOC.
    pub fn pin(&self, id: ChipPinId) -> &ChipPin {
        &self.pins[id.index()]
    }

    /// The core instance behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different SOC.
    pub fn core(&self, id: CoreInstanceId) -> &CoreInstance {
        &self.cores[id.index()]
    }

    /// Handles of all primary-input pins.
    pub fn primary_inputs(&self) -> Vec<ChipPinId> {
        self.pins_with(Direction::In)
    }

    /// Handles of all primary-output pins.
    pub fn primary_outputs(&self) -> Vec<ChipPinId> {
        self.pins_with(Direction::Out)
    }

    fn pins_with(&self, dir: Direction) -> Vec<ChipPinId> {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == dir)
            .map(|(i, _)| ChipPinId(i as u32))
            .collect()
    }

    /// Handles of all non-memory ("logic") cores — the ones SOCET routes
    /// test data through.
    pub fn logic_cores(&self) -> Vec<CoreInstanceId> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_memory)
            .map(|(i, _)| CoreInstanceId(i as u32))
            .collect()
    }

    /// Looks a core instance up by name.
    pub fn find_core(&self, name: &str) -> Option<CoreInstanceId> {
        self.cores
            .iter()
            .position(|c| c.name == name)
            .map(|i| CoreInstanceId(i as u32))
    }

    /// Nets whose destination is the given core input port.
    pub fn nets_into(&self, core: CoreInstanceId, port: PortId) -> impl Iterator<Item = &SocNet> {
        self.nets.iter().filter(move |n| {
            matches!(n.dst, SocEndpoint::CorePort { core: c, port: p, .. } if c == core && p == port)
        })
    }

    /// Nets whose source is the given core output port.
    pub fn nets_from(&self, core: CoreInstanceId, port: PortId) -> impl Iterator<Item = &SocNet> {
        self.nets.iter().filter(move |n| {
            matches!(n.src, SocEndpoint::CorePort { core: c, port: p, .. } if c == core && p == port)
        })
    }

    /// The driver of bit `bit` of `sink` (a chip PO or a core input): the
    /// source terminal and source bit of the **last** net covering that bit,
    /// or `None` when no net does. This is the chip's one interconnect rule;
    /// a later net overrides an earlier one bit by bit.
    pub fn bit_driver(&self, sink: Terminal, bit: u16) -> Option<(Terminal, u16)> {
        self.nets.iter().rev().find_map(|n| {
            let dst = n.dst.range();
            (n.dst.terminal() == sink && dst.contains_bit(bit))
                .then(|| (n.src.terminal(), n.src.range().lsb() + (bit - dst.lsb())))
        })
    }

    /// Sum of all instantiated cores' flip-flops.
    pub fn flip_flop_count(&self) -> u32 {
        self.cores.iter().map(|c| c.core.flip_flop_count()).sum()
    }
}

impl fmt::Display for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soc {} ({} pins, {} cores, {} nets)",
            self.name,
            self.pins.len(),
            self.cores.len(),
            self.nets.len()
        )
    }
}

/// Incremental builder for a [`Soc`].
#[derive(Debug, Clone)]
pub struct SocBuilder {
    name: String,
    pins: Vec<ChipPin>,
    cores: Vec<CoreInstance>,
    nets: Vec<SocNet>,
}

impl SocBuilder {
    /// Starts building an SOC called `name`.
    pub fn new(name: &str) -> Self {
        SocBuilder {
            name: name.to_owned(),
            pins: Vec::new(),
            cores: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Declares a primary-input pin.
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] or [`RtlError::ZeroWidth`].
    pub fn input_pin(&mut self, name: &str, width: u16) -> Result<ChipPinId, RtlError> {
        self.pin(name, Direction::In, width)
    }

    /// Declares a primary-output pin.
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] or [`RtlError::ZeroWidth`].
    pub fn output_pin(&mut self, name: &str, width: u16) -> Result<ChipPinId, RtlError> {
        self.pin(name, Direction::Out, width)
    }

    fn pin(&mut self, name: &str, direction: Direction, width: u16) -> Result<ChipPinId, RtlError> {
        if width == 0 {
            return Err(RtlError::ZeroWidth { name: name.into() });
        }
        if self.pins.iter().any(|p| p.name == name) {
            return Err(RtlError::DuplicateName { name: name.into() });
        }
        self.pins.push(ChipPin {
            name: name.to_owned(),
            direction,
            width,
        });
        Ok(ChipPinId(self.pins.len() as u32 - 1))
    }

    /// Instantiates a logic core.
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] if `name` is taken.
    pub fn instantiate(&mut self, name: &str, core: Arc<Core>) -> Result<CoreInstanceId, RtlError> {
        self.instantiate_with(name, core, false)
    }

    /// Instantiates a memory core (excluded from SOCET routing; BIST-tested).
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] if `name` is taken.
    pub fn instantiate_memory(
        &mut self,
        name: &str,
        core: Arc<Core>,
    ) -> Result<CoreInstanceId, RtlError> {
        self.instantiate_with(name, core, true)
    }

    fn instantiate_with(
        &mut self,
        name: &str,
        core: Arc<Core>,
        is_memory: bool,
    ) -> Result<CoreInstanceId, RtlError> {
        if self.cores.iter().any(|c| c.name == name) {
            return Err(RtlError::DuplicateName { name: name.into() });
        }
        self.cores.push(CoreInstance {
            name: name.to_owned(),
            core,
            is_memory,
        });
        Ok(CoreInstanceId(self.cores.len() as u32 - 1))
    }

    /// Connects a full chip PI to a full core input port.
    ///
    /// # Errors
    ///
    /// [`RtlError::BadSocNet`] on direction or width inconsistency.
    pub fn connect_pin_to_core(
        &mut self,
        pin: ChipPinId,
        core: CoreInstanceId,
        port: PortId,
    ) -> Result<(), RtlError> {
        let pw = self.pin_width(pin)?;
        let cw = self.port_width(core, port)?;
        self.connect(
            SocEndpoint::Pin {
                pin,
                range: BitRange::full(pw),
            },
            SocEndpoint::CorePort {
                core,
                port,
                range: BitRange::full(cw),
            },
        )
    }

    /// Connects a full core output port to a full chip PO.
    ///
    /// # Errors
    ///
    /// [`RtlError::BadSocNet`] on direction or width inconsistency.
    pub fn connect_core_to_pin(
        &mut self,
        core: CoreInstanceId,
        port: PortId,
        pin: ChipPinId,
    ) -> Result<(), RtlError> {
        let cw = self.port_width(core, port)?;
        let pw = self.pin_width(pin)?;
        self.connect(
            SocEndpoint::CorePort {
                core,
                port,
                range: BitRange::full(cw),
            },
            SocEndpoint::Pin {
                pin,
                range: BitRange::full(pw),
            },
        )
    }

    /// Connects a full core output port to a full core input port.
    ///
    /// # Errors
    ///
    /// [`RtlError::BadSocNet`] on direction or width inconsistency.
    pub fn connect_cores(
        &mut self,
        src_core: CoreInstanceId,
        src_port: PortId,
        dst_core: CoreInstanceId,
        dst_port: PortId,
    ) -> Result<(), RtlError> {
        let sw = self.port_width(src_core, src_port)?;
        let dw = self.port_width(dst_core, dst_port)?;
        self.connect(
            SocEndpoint::CorePort {
                core: src_core,
                port: src_port,
                range: BitRange::full(sw),
            },
            SocEndpoint::CorePort {
                core: dst_core,
                port: dst_port,
                range: BitRange::full(dw),
            },
        )
    }

    /// The general net primitive, with explicit slices.
    ///
    /// # Errors
    ///
    /// [`RtlError::BadSocNet`] on any inconsistency: unknown handles, width
    /// mismatch, out-of-bounds ranges, or wrong directions (sources must be
    /// chip PIs or core outputs, destinations chip POs or core inputs).
    pub fn connect(&mut self, src: SocEndpoint, dst: SocEndpoint) -> Result<(), RtlError> {
        self.check_endpoint(&src, true)?;
        self.check_endpoint(&dst, false)?;
        if src.range().width() != dst.range().width() {
            return Err(RtlError::BadSocNet {
                detail: format!("width mismatch in {src} -> {dst}"),
            });
        }
        self.nets.push(SocNet { src, dst });
        Ok(())
    }

    fn pin_width(&self, pin: ChipPinId) -> Result<u16, RtlError> {
        self.pins
            .get(pin.index())
            .map(|p| p.width)
            .ok_or_else(|| RtlError::BadSocNet {
                detail: format!("unknown pin {pin}"),
            })
    }

    fn port_width(&self, core: CoreInstanceId, port: PortId) -> Result<u16, RtlError> {
        let inst = self
            .cores
            .get(core.index())
            .ok_or_else(|| RtlError::BadSocNet {
                detail: format!("unknown core {core}"),
            })?;
        inst.core
            .ports()
            .get(port.index())
            .map(|p| p.width())
            .ok_or_else(|| RtlError::BadSocNet {
                detail: format!("unknown port {port} on {core}"),
            })
    }

    fn check_endpoint(&self, ep: &SocEndpoint, is_source: bool) -> Result<(), RtlError> {
        match *ep {
            SocEndpoint::Pin { pin, range } => {
                let w = self.pin_width(pin)?;
                if range.msb() >= w {
                    return Err(RtlError::BadSocNet {
                        detail: format!("range {range} exceeds pin {pin} width {w}"),
                    });
                }
                let dir = self.pins[pin.index()].direction;
                let ok = if is_source {
                    dir == Direction::In
                } else {
                    dir == Direction::Out
                };
                if !ok {
                    return Err(RtlError::BadSocNet {
                        detail: format!(
                            "pin {pin} used as {} but is an {dir} pin",
                            if is_source { "source" } else { "sink" }
                        ),
                    });
                }
            }
            SocEndpoint::CorePort { core, port, range } => {
                let w = self.port_width(core, port)?;
                if range.msb() >= w {
                    return Err(RtlError::BadSocNet {
                        detail: format!("range {range} exceeds port width {w}"),
                    });
                }
                let dir = self.cores[core.index()].core.ports()[port.index()].direction();
                let ok = if is_source {
                    dir == Direction::Out
                } else {
                    dir == Direction::In
                };
                if !ok {
                    return Err(RtlError::BadSocNet {
                        detail: format!(
                            "core port used as {} but is an {dir} port",
                            if is_source { "source" } else { "sink" }
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Validates and freezes the SOC.
    ///
    /// # Errors
    ///
    /// [`RtlError::Dangling`] if a core instance has no net touching it.
    pub fn build(self) -> Result<Soc, RtlError> {
        for (i, inst) in self.cores.iter().enumerate() {
            let id = CoreInstanceId(i as u32);
            let touched = self.nets.iter().any(|n| {
                matches!(n.src, SocEndpoint::CorePort { core, .. } if core == id)
                    || matches!(n.dst, SocEndpoint::CorePort { core, .. } if core == id)
            });
            if !touched {
                return Err(RtlError::Dangling {
                    item: format!("core instance `{}`", inst.name),
                });
            }
        }
        Ok(Soc {
            name: self.name,
            pins: self.pins,
            cores: self.cores,
            nets: self.nets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreBuilder;

    fn buf_core() -> Arc<Core> {
        let mut cb = CoreBuilder::new("buf");
        let i = cb.port("i", Direction::In, 8).unwrap();
        let o = cb.port("o", Direction::Out, 8).unwrap();
        let r = cb.register("r", 8).unwrap();
        cb.connect_port_to_reg(i, r).unwrap();
        cb.connect_reg_to_port(r, o).unwrap();
        Arc::new(cb.build().unwrap())
    }

    fn port_of(core: &Core, name: &str) -> PortId {
        core.find_port(name).unwrap()
    }

    #[test]
    fn two_core_chain() {
        let buf = buf_core();
        let (i, o) = (port_of(&buf, "i"), port_of(&buf, "o"));
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", buf.clone()).unwrap();
        let u1 = sb.instantiate("u1", buf.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();
        assert_eq!(soc.nets().len(), 3);
        assert_eq!(soc.nets_into(u1, i).count(), 1);
        assert_eq!(soc.nets_from(u0, o).count(), 1);
        assert_eq!(soc.flip_flop_count(), 16);
        assert_eq!(soc.find_core("u1"), Some(u1));
    }

    /// `pi` fully drives `u1.i`; a later net then overrides `u1.i[5:2]`
    /// with `u0.o[3:0]`. `pi[7:4]` drives `u0.i[3:0]`, so `u0.i[7:4]` is
    /// undriven, and `u1.o[1:0]` drives `po[7:6]` only.
    fn overlapping_soc() -> (Soc, [CoreInstanceId; 2], [ChipPinId; 2], [PortId; 2]) {
        let buf = buf_core();
        let (i, o) = (port_of(&buf, "i"), port_of(&buf, "o"));
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", buf.clone()).unwrap();
        let u1 = sb.instantiate("u1", buf).unwrap();
        let port = |core, port, lsb, msb| SocEndpoint::CorePort {
            core,
            port,
            range: BitRange::new(lsb, msb),
        };
        let pin = |pin, lsb, msb| SocEndpoint::Pin {
            pin,
            range: BitRange::new(lsb, msb),
        };
        sb.connect_pin_to_core(pi, u1, i).unwrap();
        sb.connect(port(u0, o, 0, 3), port(u1, i, 2, 5)).unwrap();
        sb.connect(pin(pi, 4, 7), port(u0, i, 0, 3)).unwrap();
        sb.connect(port(u1, o, 0, 1), pin(po, 6, 7)).unwrap();
        (sb.build().unwrap(), [u0, u1], [pi, po], [i, o])
    }

    #[test]
    fn bit_driver_takes_the_last_covering_net() {
        let (soc, [u0, u1], [pi, _], [i, o]) = overlapping_soc();
        let sink = Terminal::Port(u1, i);
        let drivers: Vec<_> = (0..8).map(|bit| soc.bit_driver(sink, bit)).collect();
        let from_pi = |bit| Some((Terminal::Pin(pi), bit));
        let from_u0 = |bit| Some((Terminal::Port(u0, o), bit));
        assert_eq!(
            drivers,
            vec![
                from_pi(0),
                from_pi(1),
                from_u0(0),
                from_u0(1),
                from_u0(2),
                from_u0(3),
                from_pi(6),
                from_pi(7),
            ]
        );
    }

    #[test]
    fn bit_driver_maps_slice_offsets() {
        let (soc, [u0, u1], [pi, po], [i, o]) = overlapping_soc();
        assert_eq!(
            soc.bit_driver(Terminal::Port(u0, i), 0),
            Some((Terminal::Pin(pi), 4))
        );
        assert_eq!(
            soc.bit_driver(Terminal::Port(u0, i), 3),
            Some((Terminal::Pin(pi), 7))
        );
        assert_eq!(
            soc.bit_driver(Terminal::Pin(po), 6),
            Some((Terminal::Port(u1, o), 0))
        );
        assert_eq!(
            soc.bit_driver(Terminal::Pin(po), 7),
            Some((Terminal::Port(u1, o), 1))
        );
    }

    #[test]
    fn undriven_bits_have_no_driver() {
        let (soc, [u0, _], [pi, po], [i, o]) = overlapping_soc();
        for bit in 4..8 {
            assert_eq!(soc.bit_driver(Terminal::Port(u0, i), bit), None);
        }
        for bit in 0..6 {
            assert_eq!(soc.bit_driver(Terminal::Pin(po), bit), None);
        }
        // Sources are never sinks.
        assert_eq!(soc.bit_driver(Terminal::Pin(pi), 0), None);
        assert_eq!(soc.bit_driver(Terminal::Port(u0, o), 0), None);
    }

    #[test]
    fn memory_cores_are_excluded_from_logic_list() {
        let buf = buf_core();
        let (i, o) = (port_of(&buf, "i"), port_of(&buf, "o"));
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", buf.clone()).unwrap();
        let ram = sb.instantiate_memory("ram", buf.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_core_to_pin(u0, o, po).unwrap();
        sb.connect_cores(u0, o, ram, i).unwrap();
        let soc = sb.build().unwrap();
        assert_eq!(soc.logic_cores(), vec![u0]);
        assert!(soc.core(ram).is_memory());
    }

    #[test]
    fn direction_errors_detected() {
        let buf = buf_core();
        let (i, o) = (port_of(&buf, "i"), port_of(&buf, "o"));
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", buf.clone()).unwrap();
        // PO used as a source.
        assert!(sb.connect_pin_to_core(po, u0, i).is_err());
        // Core input used as a source.
        assert!(sb.connect_core_to_pin(u0, i, po).is_err());
        // Valid wiring still works afterwards.
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_core_to_pin(u0, o, po).unwrap();
        assert!(sb.build().is_ok());
    }

    #[test]
    fn width_mismatch_detected() {
        let buf = buf_core();
        let i = port_of(&buf, "i");
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("narrow", 4).unwrap();
        let u0 = sb.instantiate("u0", buf.clone()).unwrap();
        assert!(matches!(
            sb.connect_pin_to_core(pi, u0, i),
            Err(RtlError::BadSocNet { .. })
        ));
    }

    #[test]
    fn dangling_core_rejected() {
        let buf = buf_core();
        let mut sb = SocBuilder::new("chip");
        sb.input_pin("pi", 8).unwrap();
        sb.instantiate("u0", buf).unwrap();
        assert!(matches!(sb.build(), Err(RtlError::Dangling { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let buf = buf_core();
        let mut sb = SocBuilder::new("chip");
        sb.input_pin("x", 8).unwrap();
        assert!(sb.input_pin("x", 8).is_err());
        sb.instantiate("u0", buf.clone()).unwrap();
        assert!(sb.instantiate("u0", buf).is_err());
    }
}
