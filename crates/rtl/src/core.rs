//! The [`Core`] netlist and its [`CoreBuilder`].

use crate::bits::BitRange;
use crate::component::{FuKind, FunctionalUnit, FunctionalUnitId, Register, RegisterId};
use crate::connection::{Connection, ConnectionId, Endpoint, RtlNode, Via};
use crate::error::RtlError;
use crate::port::{Direction, Port, PortId, SignalClass};
use std::collections::HashSet;
use std::fmt;

/// A validated RTL netlist for one core.
///
/// A `Core` is immutable once built; construct it with [`CoreBuilder`].
/// All structural queries the SOCET tool-chain needs are methods here:
/// fan-in/fan-out per node, lossless (transparency-capable) connections,
/// and the C-split / O-split classification of §4 of the paper.
///
/// # Examples
///
/// ```
/// use socet_rtl::{CoreBuilder, Direction, RtlNode};
/// let mut b = CoreBuilder::new("pipeline");
/// let din = b.port("din", Direction::In, 8)?;
/// let dout = b.port("dout", Direction::Out, 8)?;
/// let r1 = b.register("r1", 8)?;
/// let r2 = b.register("r2", 8)?;
/// b.connect_port_to_reg(din, r1)?;
/// b.connect_reg_to_reg(r1, r2)?;
/// b.connect_reg_to_port(r2, dout)?;
/// let core = b.build()?;
/// assert_eq!(core.fanout(RtlNode::Reg(r1)).count(), 1);
/// assert_eq!(core.flip_flop_count(), 16);
/// # Ok::<(), socet_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    name: String,
    ports: Vec<Port>,
    registers: Vec<Register>,
    fus: Vec<FunctionalUnit>,
    connections: Vec<Connection>,
}

impl Core {
    /// The core's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All ports, indexable by [`PortId::index`].
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// All registers, indexable by [`RegisterId::index`].
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// All functional units, indexable by [`FunctionalUnitId::index`].
    pub fn functional_units(&self) -> &[FunctionalUnit] {
        &self.fus
    }

    /// All connections, indexable by [`ConnectionId::index`].
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// The port behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different core.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// The register behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different core.
    pub fn register(&self, id: RegisterId) -> &Register {
        &self.registers[id.index()]
    }

    /// The functional unit behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different core.
    pub fn functional_unit(&self, id: FunctionalUnitId) -> &FunctionalUnit {
        &self.fus[id.index()]
    }

    /// Handles of all input ports, in declaration order.
    pub fn input_ports(&self) -> Vec<PortId> {
        self.ports_with(Direction::In)
    }

    /// Handles of all output ports, in declaration order.
    pub fn output_ports(&self) -> Vec<PortId> {
        self.ports_with(Direction::Out)
    }

    fn ports_with(&self, dir: Direction) -> Vec<PortId> {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.direction == dir)
            .map(|(i, _)| PortId(i as u32))
            .collect()
    }

    /// Handles of all ports, in declaration order.
    pub fn port_ids(&self) -> impl Iterator<Item = PortId> {
        (0..self.ports.len() as u32).map(PortId)
    }

    /// Handles of all registers, in declaration order.
    pub fn register_ids(&self) -> impl Iterator<Item = RegisterId> {
        (0..self.registers.len() as u32).map(RegisterId)
    }

    /// Handles of all functional units, in declaration order.
    pub fn functional_unit_ids(&self) -> impl Iterator<Item = FunctionalUnitId> {
        (0..self.fus.len() as u32).map(FunctionalUnitId)
    }

    /// Looks a port up by name.
    ///
    /// # Examples
    ///
    /// ```
    /// # use socet_rtl::{CoreBuilder, Direction};
    /// # let mut b = CoreBuilder::new("c");
    /// # let din = b.port("din", Direction::In, 8)?;
    /// # let dout = b.port("dout", Direction::Out, 8)?;
    /// # let r = b.register("r", 8)?;
    /// # b.connect_port_to_reg(din, r)?;
    /// # b.connect_reg_to_port(r, dout)?;
    /// # let core = b.build()?;
    /// assert_eq!(core.find_port("din"), Some(din));
    /// assert_eq!(core.find_port("nope"), None);
    /// # Ok::<(), socet_rtl::RtlError>(())
    /// ```
    pub fn find_port(&self, name: &str) -> Option<PortId> {
        self.ports
            .iter()
            .position(|p| p.name == name)
            .map(|i| PortId(i as u32))
    }

    /// Looks a register up by name.
    pub fn find_register(&self, name: &str) -> Option<RegisterId> {
        self.registers
            .iter()
            .position(|r| r.name == name)
            .map(|i| RegisterId(i as u32))
    }

    /// The width of any node.
    pub fn width_of(&self, node: RtlNode) -> u16 {
        match node {
            RtlNode::Port(p) => self.port(p).width,
            RtlNode::Reg(r) => self.register(r).width,
            RtlNode::Fu(u) => self.functional_unit(u).width,
        }
    }

    /// The human-readable name of any node.
    pub fn name_of(&self, node: RtlNode) -> &str {
        match node {
            RtlNode::Port(p) => self.port(p).name(),
            RtlNode::Reg(r) => self.register(r).name(),
            RtlNode::Fu(u) => self.functional_unit(u).name(),
        }
    }

    /// Connections whose destination is `node`.
    pub fn fanin(&self, node: RtlNode) -> impl Iterator<Item = &Connection> {
        self.connections.iter().filter(move |c| c.dst.node == node)
    }

    /// Connections whose source is `node`.
    pub fn fanout(&self, node: RtlNode) -> impl Iterator<Item = &Connection> {
        self.connections.iter().filter(move |c| c.src.node == node)
    }

    /// Whether `node` is a *C-split* node: different bit-slices of it receive
    /// data from different sources exclusively (paper §4).
    ///
    /// Only lossless fan-in is considered, because only it can justify data.
    ///
    /// # Examples
    ///
    /// ```
    /// use socet_rtl::{BitRange, CoreBuilder, Direction, RtlNode};
    /// let mut b = CoreBuilder::new("c");
    /// let a = b.port("a", Direction::In, 4)?;
    /// let c = b.port("c", Direction::In, 4)?;
    /// let q = b.port("q", Direction::Out, 8)?;
    /// let acc = b.register("ACC", 8)?;
    /// b.connect_slice(RtlNode::Port(a), BitRange::full(4),
    ///                 RtlNode::Reg(acc), BitRange::new(0, 3))?;
    /// b.connect_slice(RtlNode::Port(c), BitRange::full(4),
    ///                 RtlNode::Reg(acc), BitRange::new(4, 7))?;
    /// b.connect_reg_to_port(acc, q)?;
    /// let core = b.build()?;
    /// assert!(core.is_c_split(RtlNode::Reg(acc)));
    /// # Ok::<(), socet_rtl::RtlError>(())
    /// ```
    pub fn is_c_split(&self, node: RtlNode) -> bool {
        let ranges: Vec<BitRange> = self
            .fanin(node)
            .filter(|c| c.via.is_lossless() && !c.src.node.is_fu())
            .map(|c| c.dst.range)
            .collect();
        Self::is_split(&ranges, self.width_of(node))
    }

    /// Whether `node` is an *O-split* node: its fanout is split into
    /// different bit-slices going to different destinations (paper §4).
    pub fn is_o_split(&self, node: RtlNode) -> bool {
        let ranges: Vec<BitRange> = self
            .fanout(node)
            .filter(|c| c.via.is_lossless() && !c.dst.node.is_fu())
            .map(|c| c.src.range)
            .collect();
        Self::is_split(&ranges, self.width_of(node))
    }

    /// A set of ranges "splits" a node when at least two connections touch
    /// disjoint bit-slices — i.e. no single connection spans all connected
    /// bits.
    fn is_split(ranges: &[BitRange], _width: u16) -> bool {
        if ranges.len() < 2 {
            return false;
        }
        ranges
            .iter()
            .any(|a| ranges.iter().any(|b| !a.overlaps(*b)))
    }

    /// Total number of flip-flops (sum of register widths).
    pub fn flip_flop_count(&self) -> u32 {
        self.registers.iter().map(|r| u32::from(r.width)).sum()
    }

    /// Total input-port bits.
    pub fn input_bits(&self) -> u32 {
        self.ports
            .iter()
            .filter(|p| p.direction == Direction::In)
            .map(|p| u32::from(p.width))
            .sum()
    }

    /// Total output-port bits.
    pub fn output_bits(&self) -> u32 {
        self.ports
            .iter()
            .filter(|p| p.direction == Direction::Out)
            .map(|p| u32::from(p.width))
            .sum()
    }
}

impl fmt::Display for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} ({} ports, {} regs, {} fus, {} conns)",
            self.name,
            self.ports.len(),
            self.registers.len(),
            self.fus.len(),
            self.connections.len()
        )
    }
}

/// Incremental builder for a [`Core`], with validation at every step and a
/// whole-netlist check in [`CoreBuilder::build`].
///
/// # Examples
///
/// ```
/// use socet_rtl::{CoreBuilder, Direction};
/// let mut b = CoreBuilder::new("fifo");
/// let din = b.port("din", Direction::In, 16)?;
/// let dout = b.port("dout", Direction::Out, 16)?;
/// let head = b.register("head", 16)?;
/// let tail = b.register("tail", 16)?;
/// b.connect_port_to_reg(din, head)?;
/// b.connect_reg_to_reg(head, tail)?;
/// b.connect_reg_to_port(tail, dout)?;
/// let core = b.build()?;
/// assert_eq!(core.registers().len(), 2);
/// # Ok::<(), socet_rtl::RtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoreBuilder {
    name: String,
    ports: Vec<Port>,
    registers: Vec<Register>,
    fus: Vec<FunctionalUnit>,
    connections: Vec<Connection>,
    names: HashSet<String>,
}

impl CoreBuilder {
    /// Starts building a core called `name`.
    pub fn new(name: &str) -> Self {
        CoreBuilder {
            name: name.to_owned(),
            ports: Vec::new(),
            registers: Vec::new(),
            fus: Vec::new(),
            connections: Vec::new(),
            names: HashSet::new(),
        }
    }

    fn claim_name(&mut self, name: &str) -> Result<(), RtlError> {
        if !self.names.insert(name.to_owned()) {
            return Err(RtlError::DuplicateName { name: name.into() });
        }
        Ok(())
    }

    /// Declares a data port.
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] if `name` is taken,
    /// [`RtlError::ZeroWidth`] if `width == 0`.
    pub fn port(
        &mut self,
        name: &str,
        direction: Direction,
        width: u16,
    ) -> Result<PortId, RtlError> {
        self.port_with_class(name, direction, width, SignalClass::Data)
    }

    /// Declares a single-bit control port.
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] if `name` is taken.
    pub fn control_port(&mut self, name: &str, direction: Direction) -> Result<PortId, RtlError> {
        self.port_with_class(name, direction, 1, SignalClass::Control)
    }

    /// Declares a port with an explicit [`SignalClass`].
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] if `name` is taken,
    /// [`RtlError::ZeroWidth`] if `width == 0`.
    pub fn port_with_class(
        &mut self,
        name: &str,
        direction: Direction,
        width: u16,
        class: SignalClass,
    ) -> Result<PortId, RtlError> {
        if width == 0 {
            return Err(RtlError::ZeroWidth { name: name.into() });
        }
        self.claim_name(name)?;
        self.ports.push(Port {
            name: name.to_owned(),
            direction,
            width,
            class,
        });
        Ok(PortId(self.ports.len() as u32 - 1))
    }

    /// Declares a register.
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] if `name` is taken,
    /// [`RtlError::ZeroWidth`] if `width == 0`.
    pub fn register(&mut self, name: &str, width: u16) -> Result<RegisterId, RtlError> {
        if width == 0 {
            return Err(RtlError::ZeroWidth { name: name.into() });
        }
        self.claim_name(name)?;
        self.registers.push(Register {
            name: name.to_owned(),
            width,
        });
        Ok(RegisterId(self.registers.len() as u32 - 1))
    }

    /// Declares a functional unit.
    ///
    /// # Errors
    ///
    /// [`RtlError::DuplicateName`] if `name` is taken,
    /// [`RtlError::ZeroWidth`] if `width == 0`.
    pub fn functional_unit(
        &mut self,
        name: &str,
        kind: FuKind,
        width: u16,
    ) -> Result<FunctionalUnitId, RtlError> {
        if width == 0 {
            return Err(RtlError::ZeroWidth { name: name.into() });
        }
        self.claim_name(name)?;
        self.fus.push(FunctionalUnit {
            name: name.to_owned(),
            kind,
            width,
        });
        Ok(FunctionalUnitId(self.fus.len() as u32 - 1))
    }

    /// The general connection primitive: connects `src[src_range]` to
    /// `dst[dst_range]` with an explicit realization.
    ///
    /// # Errors
    ///
    /// [`RtlError::ForeignHandle`], [`RtlError::RangeOutOfBounds`],
    /// [`RtlError::WidthMismatch`] or [`RtlError::DirectionViolation`] when
    /// the endpoints are inconsistent.
    pub fn connect_via(
        &mut self,
        src: RtlNode,
        src_range: BitRange,
        dst: RtlNode,
        dst_range: BitRange,
        via: Via,
    ) -> Result<ConnectionId, RtlError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        let conn = Connection {
            src: Endpoint::new(src, src_range),
            dst: Endpoint::new(dst, dst_range),
            via,
        };
        let sw = self.node_width(src);
        let dw = self.node_width(dst);
        if src_range.msb() >= sw {
            return Err(RtlError::RangeOutOfBounds {
                endpoint: conn.src.to_string(),
                width: sw,
            });
        }
        if dst_range.msb() >= dw {
            return Err(RtlError::RangeOutOfBounds {
                endpoint: conn.dst.to_string(),
                width: dw,
            });
        }
        if src_range.width() != dst_range.width() {
            return Err(RtlError::WidthMismatch {
                connection: conn.to_string(),
            });
        }
        if let RtlNode::Port(p) = src {
            if self.ports[p.index()].direction == Direction::Out {
                return Err(RtlError::DirectionViolation {
                    connection: conn.to_string(),
                });
            }
        }
        if let RtlNode::Port(p) = dst {
            if self.ports[p.index()].direction == Direction::In {
                return Err(RtlError::DirectionViolation {
                    connection: conn.to_string(),
                });
            }
        }
        self.connections.push(conn);
        Ok(ConnectionId(self.connections.len() as u32 - 1))
    }

    /// Full-width sliced connection with explicit `via`.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_slice(
        &mut self,
        src: RtlNode,
        src_range: BitRange,
        dst: RtlNode,
        dst_range: BitRange,
    ) -> Result<ConnectionId, RtlError> {
        self.connect_via(src, src_range, dst, dst_range, Via::Direct)
    }

    /// Direct full-width connection from an input port to a register.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_port_to_reg(
        &mut self,
        p: PortId,
        r: RegisterId,
    ) -> Result<ConnectionId, RtlError> {
        let (pw, rw) = (self.ports[p.index()].width, self.registers[r.index()].width);
        self.connect_via(
            RtlNode::Port(p),
            BitRange::full(pw),
            RtlNode::Reg(r),
            BitRange::full(rw),
            Via::Direct,
        )
    }

    /// Direct full-width connection from a register to an output port.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_reg_to_port(
        &mut self,
        r: RegisterId,
        p: PortId,
    ) -> Result<ConnectionId, RtlError> {
        let (rw, pw) = (self.registers[r.index()].width, self.ports[p.index()].width);
        self.connect_via(
            RtlNode::Reg(r),
            BitRange::full(rw),
            RtlNode::Port(p),
            BitRange::full(pw),
            Via::Direct,
        )
    }

    /// Direct full-width register-to-register connection.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_reg_to_reg(
        &mut self,
        a: RegisterId,
        b: RegisterId,
    ) -> Result<ConnectionId, RtlError> {
        let (aw, bw) = (
            self.registers[a.index()].width,
            self.registers[b.index()].width,
        );
        self.connect_via(
            RtlNode::Reg(a),
            BitRange::full(aw),
            RtlNode::Reg(b),
            BitRange::full(bw),
            Via::Direct,
        )
    }

    /// Full-width connection realized as leg `leg` of the mux tree at `dst`.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_mux(
        &mut self,
        src: RtlNode,
        dst: RtlNode,
        leg: u8,
    ) -> Result<ConnectionId, RtlError> {
        let sw = self.node_width(src);
        let dw = self.node_width(dst);
        self.connect_via(
            src,
            BitRange::full(sw),
            dst,
            BitRange::full(dw),
            Via::MuxPath { leg },
        )
    }

    /// Sliced connection realized as leg `leg` of the mux tree at `dst`.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_mux_slice(
        &mut self,
        src: RtlNode,
        src_range: BitRange,
        dst: RtlNode,
        dst_range: BitRange,
        leg: u8,
    ) -> Result<ConnectionId, RtlError> {
        self.connect_via(src, src_range, dst, dst_range, Via::MuxPath { leg })
    }

    /// Full-width connection from a register into a functional-unit input.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_reg_to_fu(
        &mut self,
        r: RegisterId,
        u: FunctionalUnitId,
    ) -> Result<ConnectionId, RtlError> {
        let (rw, uw) = (self.registers[r.index()].width, self.fus[u.index()].width);
        self.connect_via(
            RtlNode::Reg(r),
            BitRange::full(rw.min(uw)),
            RtlNode::Fu(u),
            BitRange::full(rw.min(uw)),
            Via::Direct,
        )
    }

    /// Full-width connection from a functional-unit output into a register.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_fu_to_reg(
        &mut self,
        u: FunctionalUnitId,
        r: RegisterId,
    ) -> Result<ConnectionId, RtlError> {
        let (uw, rw) = (self.fus[u.index()].width, self.registers[r.index()].width);
        self.connect_via(
            RtlNode::Fu(u),
            BitRange::full(uw.min(rw)),
            RtlNode::Reg(r),
            BitRange::full(uw.min(rw)),
            Via::Direct,
        )
    }

    /// Full-width connection from an input port into a functional unit.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_port_to_fu(
        &mut self,
        p: PortId,
        u: FunctionalUnitId,
    ) -> Result<ConnectionId, RtlError> {
        let (pw, uw) = (self.ports[p.index()].width, self.fus[u.index()].width);
        self.connect_via(
            RtlNode::Port(p),
            BitRange::full(pw.min(uw)),
            RtlNode::Fu(u),
            BitRange::full(pw.min(uw)),
            Via::Direct,
        )
    }

    /// Full-width connection from a functional unit to an output port.
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_fu_to_port(
        &mut self,
        u: FunctionalUnitId,
        p: PortId,
    ) -> Result<ConnectionId, RtlError> {
        let (uw, pw) = (self.fus[u.index()].width, self.ports[p.index()].width);
        self.connect_via(
            RtlNode::Fu(u),
            BitRange::full(uw.min(pw)),
            RtlNode::Port(p),
            BitRange::full(uw.min(pw)),
            Via::Direct,
        )
    }

    /// Lossy register-to-register shortcut through `fu` (paper-style "the
    /// value passes through the ALU"): creates a single connection marked
    /// [`Via::ThroughFu`].
    ///
    /// # Errors
    ///
    /// Same as [`CoreBuilder::connect_via`].
    pub fn connect_through_fu(
        &mut self,
        a: RegisterId,
        fu: FunctionalUnitId,
        b: RegisterId,
    ) -> Result<ConnectionId, RtlError> {
        let (aw, bw) = (
            self.registers[a.index()].width,
            self.registers[b.index()].width,
        );
        let w = aw.min(bw);
        self.connect_via(
            RtlNode::Reg(a),
            BitRange::full(w),
            RtlNode::Reg(b),
            BitRange::full(w),
            Via::ThroughFu(fu),
        )
    }

    fn node_width(&self, node: RtlNode) -> u16 {
        match node {
            RtlNode::Port(p) => self.ports[p.index()].width,
            RtlNode::Reg(r) => self.registers[r.index()].width,
            RtlNode::Fu(u) => self.fus[u.index()].width,
        }
    }

    fn check_node(&self, node: RtlNode) -> Result<(), RtlError> {
        let ok = match node {
            RtlNode::Port(p) => p.index() < self.ports.len(),
            RtlNode::Reg(r) => r.index() < self.registers.len(),
            RtlNode::Fu(u) => u.index() < self.fus.len(),
        };
        if ok {
            Ok(())
        } else {
            Err(RtlError::ForeignHandle {
                handle: format!("{node}"),
            })
        }
    }

    /// Validates the whole netlist and freezes it into a [`Core`].
    ///
    /// # Errors
    ///
    /// * [`RtlError::DriverConflict`] — two non-mux, non-bus connections
    ///   drive overlapping bits of the same sink;
    /// * [`RtlError::Dangling`] — a port, register or functional unit has no
    ///   connection at all.
    pub fn build(self) -> Result<Core, RtlError> {
        // Driver-conflict check per sink node. Functional-unit sinks are
        // exempt: their fan-in connections are distinct operands, not
        // competing drivers of the same bits.
        for (i, a) in self.connections.iter().enumerate() {
            for b in self.connections.iter().skip(i + 1) {
                if a.dst.node != b.dst.node
                    || a.dst.node.is_fu()
                    || !a.dst.range.overlaps(b.dst.range)
                {
                    continue;
                }
                let compatible = match (a.via, b.via) {
                    (Via::MuxPath { leg: la }, Via::MuxPath { leg: lb }) => la != lb,
                    (Via::Bus, Via::Bus) => true,
                    // A mux tree can also absorb FU results as extra legs.
                    (Via::MuxPath { .. }, Via::ThroughFu(_)) => true,
                    (Via::ThroughFu(_), Via::MuxPath { .. }) => true,
                    (Via::ThroughFu(x), Via::ThroughFu(y)) => x != y,
                    _ => false,
                };
                if !compatible {
                    return Err(RtlError::DriverConflict {
                        sink: format!("{} (driven by {} and {})", a.dst, a.src, b.src),
                    });
                }
            }
        }
        // Dangling checks.
        for (i, p) in self.ports.iter().enumerate() {
            let node = RtlNode::Port(PortId(i as u32));
            let touched = self
                .connections
                .iter()
                .any(|c| c.src.node == node || c.dst.node == node);
            if !touched {
                return Err(RtlError::Dangling {
                    item: format!("port `{}`", p.name),
                });
            }
        }
        for (i, r) in self.registers.iter().enumerate() {
            let node = RtlNode::Reg(RegisterId(i as u32));
            let touched = self
                .connections
                .iter()
                .any(|c| c.src.node == node || c.dst.node == node);
            if !touched {
                return Err(RtlError::Dangling {
                    item: format!("register `{}`", r.name),
                });
            }
        }
        for (i, u) in self.fus.iter().enumerate() {
            let node = RtlNode::Fu(FunctionalUnitId(i as u32));
            let used = self.connections.iter().any(|c| {
                c.src.node == node
                    || c.dst.node == node
                    || c.via == Via::ThroughFu(FunctionalUnitId(i as u32))
            });
            if !used {
                return Err(RtlError::Dangling {
                    item: format!("functional unit `{}`", u.name),
                });
            }
        }
        Ok(Core {
            name: self.name,
            ports: self.ports,
            registers: self.registers,
            fus: self.fus,
            connections: self.connections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_port_builder() -> (CoreBuilder, PortId, PortId, RegisterId) {
        let mut b = CoreBuilder::new("t");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        (b, i, o, r)
    }

    #[test]
    fn duplicate_name_rejected_across_namespaces() {
        let mut b = CoreBuilder::new("t");
        b.port("x", Direction::In, 4).unwrap();
        assert!(matches!(
            b.register("x", 4),
            Err(RtlError::DuplicateName { .. })
        ));
    }

    #[test]
    fn zero_width_rejected() {
        let mut b = CoreBuilder::new("t");
        assert!(matches!(
            b.port("p", Direction::In, 0),
            Err(RtlError::ZeroWidth { .. })
        ));
        assert!(matches!(
            b.register("r", 0),
            Err(RtlError::ZeroWidth { .. })
        ));
    }

    #[test]
    fn width_mismatch_rejected() {
        let (mut b, i, _o, r) = two_port_builder();
        let err = b.connect_via(
            RtlNode::Port(i),
            BitRange::new(0, 3),
            RtlNode::Reg(r),
            BitRange::new(0, 7),
            Via::Direct,
        );
        assert!(matches!(err, Err(RtlError::WidthMismatch { .. })));
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut b, i, _o, r) = two_port_builder();
        let err = b.connect_via(
            RtlNode::Port(i),
            BitRange::new(0, 8),
            RtlNode::Reg(r),
            BitRange::new(0, 8),
            Via::Direct,
        );
        assert!(matches!(err, Err(RtlError::RangeOutOfBounds { .. })));
    }

    #[test]
    fn direction_violation_rejected() {
        let (mut b, i, o, r) = two_port_builder();
        // Driving an input port.
        assert!(matches!(
            b.connect_via(
                RtlNode::Reg(r),
                BitRange::full(8),
                RtlNode::Port(i),
                BitRange::full(8),
                Via::Direct,
            ),
            Err(RtlError::DirectionViolation { .. })
        ));
        // Sourcing from an output port.
        assert!(matches!(
            b.connect_via(
                RtlNode::Port(o),
                BitRange::full(8),
                RtlNode::Reg(r),
                BitRange::full(8),
                Via::Direct,
            ),
            Err(RtlError::DirectionViolation { .. })
        ));
    }

    #[test]
    fn driver_conflict_detected() {
        let mut b = CoreBuilder::new("t");
        let i = b.port("i", Direction::In, 8).unwrap();
        let j = b.port("j", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_port_to_reg(j, r).unwrap(); // second Direct driver: conflict
        b.connect_reg_to_port(r, o).unwrap();
        assert!(matches!(b.build(), Err(RtlError::DriverConflict { .. })));
    }

    #[test]
    fn mux_legs_do_not_conflict() {
        let mut b = CoreBuilder::new("t");
        let i = b.port("i", Direction::In, 8).unwrap();
        let j = b.port("j", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r), 0).unwrap();
        b.connect_mux(RtlNode::Port(j), RtlNode::Reg(r), 1).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        assert_eq!(core.fanin(RtlNode::Reg(r)).count(), 2);
    }

    #[test]
    fn same_mux_leg_conflicts() {
        let mut b = CoreBuilder::new("t");
        let i = b.port("i", Direction::In, 8).unwrap();
        let j = b.port("j", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_mux(RtlNode::Port(i), RtlNode::Reg(r), 0).unwrap();
        b.connect_mux(RtlNode::Port(j), RtlNode::Reg(r), 0).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        assert!(matches!(b.build(), Err(RtlError::DriverConflict { .. })));
    }

    #[test]
    fn dangling_register_rejected() {
        let mut b = CoreBuilder::new("t");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.register("lonely", 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        assert!(matches!(b.build(), Err(RtlError::Dangling { .. })));
    }

    #[test]
    fn c_split_and_o_split_detection() {
        let mut b = CoreBuilder::new("t");
        let a = b.port("a", Direction::In, 4).unwrap();
        let c = b.port("c", Direction::In, 4).unwrap();
        let o1 = b.port("o1", Direction::Out, 4).unwrap();
        let o2 = b.port("o2", Direction::Out, 4).unwrap();
        let acc = b.register("acc", 8).unwrap();
        b.connect_slice(
            RtlNode::Port(a),
            BitRange::full(4),
            RtlNode::Reg(acc),
            BitRange::new(0, 3),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Port(c),
            BitRange::full(4),
            RtlNode::Reg(acc),
            BitRange::new(4, 7),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Reg(acc),
            BitRange::new(0, 3),
            RtlNode::Port(o1),
            BitRange::full(4),
        )
        .unwrap();
        b.connect_slice(
            RtlNode::Reg(acc),
            BitRange::new(4, 7),
            RtlNode::Port(o2),
            BitRange::full(4),
        )
        .unwrap();
        let core = b.build().unwrap();
        assert!(core.is_c_split(RtlNode::Reg(acc)));
        assert!(core.is_o_split(RtlNode::Reg(acc)));
    }

    #[test]
    fn full_width_fanout_is_not_o_split() {
        let mut b = CoreBuilder::new("t");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o1 = b.port("o1", Direction::Out, 8).unwrap();
        let o2 = b.port("o2", Direction::Out, 8).unwrap();
        let r = b.register("r", 8).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o1).unwrap();
        b.connect_reg_to_port(r, o2).unwrap();
        let core = b.build().unwrap();
        // Two full-width fanout edges overlap entirely: not a split.
        assert!(!core.is_o_split(RtlNode::Reg(r)));
    }

    #[test]
    fn find_by_name() {
        let (mut b, i, o, r) = two_port_builder();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        assert_eq!(core.find_register("r"), Some(r));
        assert_eq!(core.find_register("zz"), None);
        assert_eq!(core.find_port("i"), Some(i));
    }

    #[test]
    fn stats_counters() {
        let (mut b, i, o, r) = two_port_builder();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        let core = b.build().unwrap();
        assert_eq!(core.flip_flop_count(), 8);
        assert_eq!(core.input_bits(), 8);
        assert_eq!(core.output_bits(), 8);
        assert_eq!(core.to_string(), "core t (2 ports, 1 regs, 0 fus, 2 conns)");
    }
}
