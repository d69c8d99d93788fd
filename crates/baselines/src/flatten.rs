//! SOC flattening: merge per-core gate netlists along the chip nets into
//! one chip-level [`GateNetlist`].
//!
//! The flattened chip is the object of the paper's "Orig." and
//! "HSCAN-only" testability experiments (Table 3): its only controllable
//! points are the chip PIs and its only observable points the chip POs —
//! embedded core ports disappear into internal nets.
//!
//! The interconnect follows the chip's one rule, [`Soc::bit_driver`]:
//! every core-input and PO bit takes the last net covering it. Memory cores
//! are excluded (they are BIST-tested in the paper), so nets into them
//! dangle, and a bit driven by a memory output, or by no net at all, is
//! tied to constant 0. The replay shell of `socet-verify` resolves its
//! interconnect through the same call.

use socet_gate::{
    elaborate_with, ElabOptions, GateError, GateNetlist, GateNetlistBuilder, SignalId,
};
use socet_rtl::{Soc, Terminal};
use std::collections::HashMap;

/// Flattens `soc` into a single gate netlist.
///
/// Every logic core is elaborated and inlined; each core-input bit is
/// rewired to its [`Soc::bit_driver`] (a chip PI bit or another core's
/// output bit) and each PO bit is emitted from it, in pin order, bits
/// ascending. Bits with no logic driver are tied low.
/// Internal mux-select lines created by elaboration remain chip inputs —
/// a documented optimism (see `DESIGN.md`), since the real chip would
/// drive them from control logic.
///
/// # Errors
///
/// Propagates [`GateError`] from elaboration or final netlist validation.
///
/// # Examples
///
/// ```
/// use socet_rtl::{CoreBuilder, Direction, SocBuilder};
/// use socet_baselines::flatten_soc;
/// use std::sync::Arc;
/// let mut b = CoreBuilder::new("buf");
/// let i = b.port("i", Direction::In, 4)?;
/// let o = b.port("o", Direction::Out, 4)?;
/// let r = b.register("r", 4)?;
/// b.connect_port_to_reg(i, r)?;
/// b.connect_reg_to_port(r, o)?;
/// let core = Arc::new(b.build()?);
/// let mut sb = SocBuilder::new("chip");
/// let pi = sb.input_pin("pi", 4)?;
/// let po = sb.output_pin("po", 4)?;
/// let u0 = sb.instantiate("u0", core.clone())?;
/// let u1 = sb.instantiate("u1", core.clone())?;
/// sb.connect_pin_to_core(pi, u0, i)?;
/// sb.connect_cores(u0, o, u1, i)?;
/// sb.connect_core_to_pin(u1, o, po)?;
/// let soc = sb.build()?;
/// let flat = flatten_soc(&soc)?;
/// assert_eq!(flat.flip_flop_count(), 8);
/// assert_eq!(flat.inputs().len(), 4); // only the chip PI remains
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn flatten_soc(soc: &Soc) -> Result<GateNetlist, GateError> {
    let mut b = GateNetlistBuilder::new(soc.name());
    // Chip PI bits.
    let mut pin_bits: HashMap<(usize, u16), SignalId> = HashMap::new();
    for pin in soc.primary_inputs() {
        let p = soc.pin(pin);
        for bit in 0..p.width() {
            let s = b.input(&format!("{}[{bit}]", p.name()));
            pin_bits.insert((pin.index(), bit), s);
        }
    }
    // Inline every logic core.
    // per (core idx, port idx, bit) -> global signal (for inputs: the Input
    // gate to rewire; for outputs: the buffered output bit).
    let mut in_bits: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
    let mut out_bits: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
    // Elaboration-internal control inputs (mux selects, ALU opcodes) per
    // core, plus that core's flip-flop outputs: on the real chip these
    // controls come from the core's own FSM state, so tie each to a state
    // bit rather than leaving it chip-controllable.
    let mut internal_controls: Vec<(SignalId, SignalId)> = Vec::new();
    let mut always_on: Vec<SignalId> = Vec::new();
    for cid in soc.logic_cores() {
        let inst = soc.core(cid);
        let core = inst.core();
        let elab = elaborate_with(core, &ElabOptions { load_enables: true })?;
        let map = b.append(&elab.netlist, inst.name());
        let mut port_inputs: std::collections::HashSet<SignalId> = std::collections::HashSet::new();
        for (pi_idx, sigs) in elab.input_bits.iter().enumerate() {
            for (bit, s) in sigs.iter().enumerate() {
                in_bits.insert((cid.index(), pi_idx, bit as u16), map[s.index()]);
                port_inputs.insert(map[s.index()]);
            }
        }
        for (po_idx, sigs) in elab.output_bits.iter().enumerate() {
            for (bit, s) in sigs.iter().enumerate() {
                out_bits.insert((cid.index(), po_idx, bit as u16), map[s.index()]);
            }
        }
        let state_bits: Vec<SignalId> = elab
            .reg_bits
            .iter()
            .flatten()
            .map(|s| map[s.index()])
            .collect();
        if !state_bits.is_empty() {
            let mut rot = 0usize;
            for (name, s) in elab.netlist.inputs() {
                let global = map[s.index()];
                if port_inputs.contains(&global) {
                    continue;
                }
                // Register load-enables: half the registers free-run (their
                // enable rides an always-on strobe), half follow FSM state —
                // a rough but honest stand-in for real control behaviour.
                // Mux selects and ALU opcodes always follow state.
                let driver = if name.starts_with("en_") && rot.is_multiple_of(2) {
                    None // tie high below
                } else {
                    Some(state_bits[rot % state_bits.len()])
                };
                match driver {
                    Some(d) => internal_controls.push((global, d)),
                    None => always_on.push(global),
                }
                rot += 1;
            }
        }
    }
    // Wire the nets: every core-input bit and PO bit takes the driver
    // `Soc::bit_driver` names; a memory source or no driver ties it low.
    let zero = b.const0();
    let driver = |sink, bit| match soc.bit_driver(sink, bit) {
        Some((Terminal::Pin(pin), sbit)) => pin_bits[&(pin.index(), sbit)],
        Some((Terminal::Port(core, port), sbit)) if !soc.core(core).is_memory() => {
            out_bits[&(core.index(), port.index(), sbit)]
        }
        _ => zero,
    };
    for cid in soc.logic_cores() {
        let core = soc.core(cid).core();
        for p in core.input_ports() {
            for bit in 0..core.port(p).width() {
                let input_sig = in_bits[&(cid.index(), p.index(), bit)];
                b.rewire_input(input_sig, driver(Terminal::Port(cid, p), bit));
            }
        }
    }
    for (input, driver) in internal_controls {
        b.rewire_input(input, driver);
    }
    if !always_on.is_empty() {
        let one = b.const1();
        for input in always_on {
            b.rewire_input(input, one);
        }
    }
    for pin in soc.primary_outputs() {
        let p = soc.pin(pin);
        for bit in 0..p.width() {
            b.output(
                &format!("{}[{bit}]", p.name()),
                driver(Terminal::Pin(pin), bit),
            );
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_gate::{CombSim, SeqSim, Tri};
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn buf_core(width: u16) -> Arc<socet_rtl::Core> {
        let mut b = CoreBuilder::new("buf");
        let i = b.port("i", Direction::In, width).unwrap();
        let o = b.port("o", Direction::Out, width).unwrap();
        let r = b.register("r", width).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn chain_soc(n: usize) -> Soc {
        let core = buf_core(4);
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).unwrap();
        let po = sb.output_pin("po", 4).unwrap();
        let insts: Vec<_> = (0..n)
            .map(|k| sb.instantiate(&format!("u{k}"), core.clone()).unwrap())
            .collect();
        sb.connect_pin_to_core(pi, insts[0], i).unwrap();
        for w in insts.windows(2) {
            sb.connect_cores(w[0], o, w[1], i).unwrap();
        }
        sb.connect_core_to_pin(insts[n - 1], o, po).unwrap();
        sb.build().unwrap()
    }

    #[test]
    fn flattened_chip_hides_internal_state_behind_enables() {
        let soc = chain_soc(3);
        let flat = flatten_soc(&soc).unwrap();
        assert_eq!(flat.flip_flop_count(), 12);
        // Only the chip PI remains controllable: the per-register load
        // enables are tied to internal state, not exposed as pins.
        assert_eq!(flat.inputs().len(), 4);
        assert_eq!(flat.outputs().len(), 4);
        // These single-register cores land in the free-running half of the
        // enable tie-off, so a value still crosses the three cores in three
        // clocks.
        let mut sim = SeqSim::new(&flat);
        let vec_of = |v: u8| {
            (0..4)
                .map(|k| Tri::from_bool(v >> k & 1 != 0))
                .collect::<Vec<_>>()
        };
        sim.step(&vec_of(0b1010), None);
        sim.step(&vec_of(0), None);
        sim.step(&vec_of(0), None);
        let outs = sim.step(&vec_of(0), None);
        let val: u8 = outs
            .iter()
            .enumerate()
            .map(|(k, t)| if *t == Tri::One { 1 << k } else { 0 })
            .sum();
        assert_eq!(val, 0b1010);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn memory_fed_inputs_are_tied_low() {
        let core = buf_core(4);
        let i = core.find_port("i").unwrap();
        let o = core.find_port("o").unwrap();
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).unwrap();
        let po = sb.output_pin("po", 4).unwrap();
        let ram = sb.instantiate_memory("ram", core.clone()).unwrap();
        let u = sb.instantiate("u", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, ram, i).unwrap();
        sb.connect_cores(ram, o, u, i).unwrap();
        sb.connect_core_to_pin(u, o, po).unwrap();
        let soc = sb.build().unwrap();
        let flat = flatten_soc(&soc).unwrap();
        // u's input comes from the (excluded) RAM: tied low; the chip PI
        // drives only the RAM, which is gone.
        let sim = CombSim::new(&flat);
        let (outs, next) = sim.run_with_state(&[true; 4], &[true; 4]);
        // Outputs reflect current state (all ones), next state is the tied
        // zeros.
        assert_eq!(outs, vec![true; 4]);
        assert_eq!(next, vec![false; 4]);
    }

    #[test]
    fn flattening_is_deterministic() {
        let soc = chain_soc(2);
        let a = flatten_soc(&soc).unwrap();
        let b = flatten_soc(&soc).unwrap();
        assert_eq!(a.gates().len(), b.gates().len());
        assert_eq!(a.inputs().len(), b.inputs().len());
    }
}
