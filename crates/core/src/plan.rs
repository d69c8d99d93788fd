//! Data types of the chip-level test plan: per-core test data, design
//! points, episodes and system-level test muxes.

use socet_cells::{AreaReport, CellLibrary, DftCosts};
use socet_hscan::{insert_hscan, HscanResult};
use socet_rtl::{ChipPinId, Core, CoreInstanceId, PortId, Soc};
use socet_transparency::{try_synthesize_versions, CoreVersion, SearchError};
use std::fmt;

/// Everything the chip-level planner needs to know about one core, produced
/// by the core provider (hard/firm cores) or the user (soft cores) — the
/// "one-time cost" of §1 of the paper.
#[derive(Debug, Clone)]
pub struct CoreTestData {
    /// The version ladder (minimum area first).
    pub versions: Vec<CoreVersion>,
    /// The HSCAN result: chains, depth, core-level overhead.
    pub hscan: HscanResult,
    /// Precomputed full-scan (combinational) vector count for the core.
    pub scan_vectors: usize,
}

impl CoreTestData {
    /// Runs the planning half of the core-level flow on `core`: HSCAN
    /// insertion, then the transparency version ladder. `scan_vectors` is
    /// the core's precomputed combinational vector count — the ATPG result
    /// in the full flow, or a fixed budget where only the plan's shape
    /// matters.
    ///
    /// # Errors
    ///
    /// The [`SearchError`] of version synthesis for a core it rejects (no
    /// input or no output ports).
    pub fn synthesize(
        core: &Core,
        costs: &DftCosts,
        scan_vectors: usize,
    ) -> Result<CoreTestData, SearchError> {
        let hscan = insert_hscan(core, costs);
        let versions = try_synthesize_versions(core, &hscan, costs)?;
        Ok(CoreTestData {
            versions,
            hscan,
            scan_vectors,
        })
    }

    /// [`synthesize`](Self::synthesize) for every core instance of `soc`,
    /// indexed by instance, with `None` at memory instances.
    ///
    /// # Errors
    ///
    /// The first logic instance's [`SearchError`], in declaration order.
    pub fn synthesize_soc(
        soc: &Soc,
        costs: &DftCosts,
        scan_vectors: usize,
    ) -> Result<Vec<Option<CoreTestData>>, SearchError> {
        soc.cores()
            .iter()
            .map(|inst| {
                (!inst.is_memory())
                    .then(|| CoreTestData::synthesize(inst.core(), costs, scan_vectors))
                    .transpose()
            })
            .collect()
    }

    /// HSCAN test length for this core: each combinational vector costs
    /// `depth` shift cycles plus one apply cycle.
    pub fn hscan_vectors(&self) -> usize {
        self.hscan.test_length(self.scan_vectors)
    }
}

/// How many versions an instance offers: its ladder's length for a logic
/// core, 1 for a memory instance (`None`), whose only version is 0. Never
/// 0, so version 0 is always a choice to try.
pub fn ladder_len(data: Option<&CoreTestData>) -> usize {
    data.map_or(1, |d| d.versions.len().max(1))
}

/// A system-level test multiplexer connecting a core port directly to a
/// chip pin, the fallback when no transparency route exists (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemMux {
    /// The core whose port gets direct access.
    pub core: CoreInstanceId,
    /// The port connected to a chip pin.
    pub port: PortId,
    /// `true` when the mux *controls* an input from a PI, `false` when it
    /// *observes* an output at a PO.
    pub controls_input: bool,
    /// The port's width in bits (the mux is that wide).
    pub width: u16,
}

impl fmt::Display for SystemMux {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "system mux {} {}.{} ({} bits)",
            if self.controls_input {
                "into"
            } else {
                "out of"
            },
            self.core,
            self.port,
            self.width
        )
    }
}

/// One transparency hop of a routed itinerary: the data crosses core
/// `core` from input `input` to output `output` through transparency path
/// `path` of the chosen version, entering `start` cycles after the route's
/// launch and leaving `latency` cycles later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHop {
    /// The transit core the hop crosses.
    pub core: CoreInstanceId,
    /// The transit core's input port the data enters through.
    pub input: PortId,
    /// The transit core's output port the data leaves through.
    pub output: PortId,
    /// Index of the transparency path used, within the chosen version's
    /// path list.
    pub path: usize,
    /// Cycles after the route's launch at which the data enters the hop.
    pub start: u32,
    /// The hop's register latency (cycles spent inside the transit core).
    pub latency: u32,
}

/// The full routed itinerary of one core port: which chip pin the data
/// enters or leaves through and every transparency hop in between, in
/// travel order. The replay oracle uses this to reproduce the exact
/// cycle-by-cycle transport on the gate-level netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteItinerary {
    /// The core-under-test port this itinerary justifies (input) or
    /// observes (output).
    pub port: PortId,
    /// Total route latency in cycles: when an input's data is in place
    /// within its vector slot, or how long after the slot an output's
    /// response reaches its pin (0 for a system-mux fallback).
    pub arrival: u32,
    /// The chip pin at the far end, or `None` when the port fell back to a
    /// system-level test mux (direct pin access, no routed transport).
    pub pin: Option<ChipPinId>,
    /// Transparency hops in travel order (empty for direct pin routes and
    /// system-mux fallbacks).
    pub hops: Vec<RouteHop>,
}

impl RouteItinerary {
    /// Whether this port is served by a system-level test mux instead of a
    /// routed transparency path.
    pub fn is_system_mux(&self) -> bool {
        self.pin.is_none()
    }
}

/// One resource a test episode occupies for its whole duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EpisodeResource {
    /// A core: under test or carrying transparency traffic.
    Core(CoreInstanceId),
    /// A chip pin driven or observed.
    Pin(ChipPinId),
}

/// The routed test episode of one core under test.
#[derive(Debug, Clone)]
pub struct CoreEpisode {
    /// The core under test.
    pub core: CoreInstanceId,
    /// Cycles to deliver one test vector to every core input (the paper's
    /// "nine cycles" for the DISPLAY), never below one scan-shift cycle.
    pub per_vector_cycles: u32,
    /// Cycles to flush the last response: remaining scan-out plus the
    /// observation latency of the slowest output route.
    pub tail_cycles: u32,
    /// HSCAN vectors applied.
    pub hscan_vectors: u64,
    /// Routed itinerary of each core input, in declaration order; its
    /// arrival is the cycle of the vector slot the input's data is in
    /// place.
    pub input_routes: Vec<RouteItinerary>,
    /// Routed itinerary of each core output, in declaration order; its
    /// arrival is the observation latency.
    pub output_routes: Vec<RouteItinerary>,
}

impl CoreEpisode {
    /// Every routed itinerary of the episode: inputs, then outputs.
    pub fn routes(&self) -> impl Iterator<Item = &RouteItinerary> {
        self.input_routes.iter().chain(&self.output_routes)
    }

    /// What the episode occupies for its whole duration: the core under
    /// test, every hop's transit core and every route's chip pin, sorted
    /// and without repeats. Two episodes may run concurrently exactly when
    /// these sets are disjoint.
    pub fn resources(&self) -> Vec<EpisodeResource> {
        let mut v = vec![EpisodeResource::Core(self.core)];
        for r in self.routes() {
            v.extend(r.hops.iter().map(|h| EpisodeResource::Core(h.core)));
            v.extend(r.pin.map(EpisodeResource::Pin));
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Test application time of this episode:
    /// `hscan_vectors × per_vector + tail`.
    pub fn test_time(&self) -> u64 {
        self.hscan_vectors * u64::from(self.per_vector_cycles) + u64::from(self.tail_cycles)
    }
}

impl fmt::Display for CoreEpisode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {}: {} vectors x {} cycles + {} = {}",
            self.core,
            self.hscan_vectors,
            self.per_vector_cycles,
            self.tail_cycles,
            self.test_time()
        )
    }
}

/// One evaluated point of the design space: a version choice, its routed
/// schedule, and the resulting cost pair.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Chosen version index per core instance (entries for memory cores are
    /// 0 and unused).
    pub choice: Vec<usize>,
    /// Chip-level DFT overhead: transparency logic + system-level test
    /// muxes + test controller + clock gating.
    pub chip_overhead: AreaReport,
    /// The routed episode of every logic core, in test order.
    pub episodes: Vec<CoreEpisode>,
    /// System-level test muxes the routing had to add.
    pub system_muxes: Vec<SystemMux>,
    /// How often each transparency pair `(through-core, input, output)` was
    /// used across the whole solution — the raw counts of the paper's §5.2
    /// "latency number" (usage × latency, summed per core). Counted from
    /// the episodes' route hops, in `(core, input, output)` index order.
    pub pair_usage: Vec<((CoreInstanceId, PortId, PortId), u32)>,
    /// Indices of SOC nets that carry test data somewhere in the plan —
    /// the interconnect the test exercises (§1 notes the test bus cannot
    /// test inter-core wiring; SOCET covers it as a side effect).
    pub tested_nets: Vec<usize>,
}

impl DesignPoint {
    /// Global test application time: cores are tested one after another.
    pub fn test_application_time(&self) -> u64 {
        self.episodes.iter().map(CoreEpisode::test_time).sum()
    }

    /// The paper's serial test order: each episode with the cycle its
    /// window opens and the cycle it closes, back to back from cycle 0.
    pub fn serial_windows(&self) -> impl Iterator<Item = (&CoreEpisode, u64, u64)> {
        self.episodes.iter().scan(0, |clock, ep| {
            let start = *clock;
            *clock += ep.test_time();
            Some((ep, start, *clock))
        })
    }

    /// Chip-level overhead in cells.
    pub fn overhead_cells(&self, lib: &CellLibrary) -> u64 {
        self.chip_overhead.cells(lib)
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design point {:?}: TAT {} cycles, {} muxes",
            self.choice,
            self.test_application_time(),
            self.system_muxes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_test_time_formula() {
        let ep = CoreEpisode {
            core: chain().0[0],
            per_vector_cycles: 9,
            tail_cycles: 3,
            hscan_vectors: 525,
            input_routes: vec![],
            output_routes: vec![],
        };
        // The paper's DISPLAY worked example: 525 x 9 + 3 = 4 728.
        assert_eq!(ep.test_time(), 4_728);
    }

    #[test]
    fn design_point_sums_episodes() {
        let mk = |t: u64| CoreEpisode {
            core: chain().0[0],
            per_vector_cycles: 1,
            tail_cycles: 0,
            hscan_vectors: t,
            input_routes: vec![],
            output_routes: vec![],
        };
        let dp = DesignPoint {
            choice: vec![0, 0],
            chip_overhead: AreaReport::new(),
            episodes: vec![mk(100), mk(200)],
            system_muxes: vec![],
            pair_usage: vec![],
            tested_nets: vec![],
        };
        assert_eq!(dp.test_application_time(), 300);
        let windows: Vec<(u64, u64)> = dp.serial_windows().map(|(_, s, e)| (s, e)).collect();
        assert_eq!(windows, vec![(0, 100), (100, 300)]);
    }

    #[test]
    fn episode_resources_are_the_cut_transit_cores_and_pins() {
        // pi -> transit -> cut -> po; the CUT's `q` output has no route to
        // a pin and falls back to a system mux.
        let ([transit, cut], [pi, po], [i, o, q]) = chain();
        let route = |port, arrival, pin, hops| RouteItinerary {
            port,
            arrival,
            pin,
            hops,
        };
        let hop = RouteHop {
            core: transit,
            input: i,
            output: o,
            path: 0,
            start: 0,
            latency: 1,
        };
        let ep = CoreEpisode {
            core: cut,
            per_vector_cycles: 1,
            tail_cycles: 0,
            hscan_vectors: 1,
            input_routes: vec![route(i, 1, Some(pi), vec![hop])],
            output_routes: vec![route(o, 0, Some(po), vec![]), route(q, 0, None, vec![])],
        };
        let mut want = vec![
            EpisodeResource::Core(cut),
            EpisodeResource::Core(transit),
            EpisodeResource::Pin(pi),
            EpisodeResource::Pin(po),
        ];
        want.sort();
        assert_eq!(ep.resources(), want);
    }

    #[test]
    fn synthesize_soc_leaves_exactly_the_memories_empty() {
        let synthetic = socet_socs::generate_soc(&socet_socs::SyntheticConfig {
            cores: 4,
            ..Default::default()
        });
        for soc in [socet_socs::barcode_system(), synthetic] {
            let data = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 7).unwrap();
            assert_eq!(data.len(), soc.cores().len());
            for (inst, td) in soc.cores().iter().zip(&data) {
                assert_eq!(td.is_none(), inst.is_memory(), "{}", inst.name());
                assert_eq!(
                    ladder_len(td.as_ref()),
                    if inst.is_memory() { 1 } else { 3 }
                );
                if let Some(td) = td {
                    assert_eq!(td.scan_vectors, 7);
                    assert_eq!(td.versions.len(), 3);
                }
            }
        }
    }

    #[test]
    fn failed_version_synthesis_is_an_error() {
        // An output port driven by logic, and no input port: nothing can
        // be justified into the core, so version synthesis rejects it.
        use socet_rtl::{CoreBuilder, Direction, FuKind, SocBuilder};
        use std::sync::Arc;
        let mut b = CoreBuilder::new("source");
        let o = b.port("o", Direction::Out, 1).unwrap();
        let fu = b.functional_unit("gen", FuKind::Logic, 1).unwrap();
        b.connect_fu_to_port(fu, o).unwrap();
        let core = Arc::new(b.build().unwrap());
        let expected = SearchError::NoInputPorts {
            core: "source".to_owned(),
        };
        let err = CoreTestData::synthesize(&core, &DftCosts::default(), 1).unwrap_err();
        assert_eq!(err, expected);
        let mut sb = SocBuilder::new("s");
        let po = sb.output_pin("po", 1).unwrap();
        let u = sb.instantiate("u", core).unwrap();
        sb.connect_core_to_pin(u, o, po).unwrap();
        let soc = sb.build().unwrap();
        let err = CoreTestData::synthesize_soc(&soc, &DftCosts::default(), 1).unwrap_err();
        assert_eq!(err, expected);
    }

    /// The handles of `pi -> u0 -> u1 -> po`, two instances of a
    /// one-register core with ports `i`, `o` and a spare output `q`.
    /// Handles are dense indices; they are recovered through a real SOC.
    fn chain() -> ([CoreInstanceId; 2], [ChipPinId; 2], [PortId; 3]) {
        use socet_rtl::{CoreBuilder, Direction, SocBuilder};
        use std::sync::Arc;
        let mut b = CoreBuilder::new("c");
        let i = b.port("i", Direction::In, 1).unwrap();
        let o = b.port("o", Direction::Out, 1).unwrap();
        let q = b.port("q", Direction::Out, 1).unwrap();
        let r = b.register("r", 1).unwrap();
        b.connect_port_to_reg(i, r).unwrap();
        b.connect_reg_to_port(r, o).unwrap();
        b.connect_reg_to_port(r, q).unwrap();
        let core = Arc::new(b.build().unwrap());
        let mut sb = SocBuilder::new("s");
        let pi = sb.input_pin("pi", 1).unwrap();
        let po = sb.output_pin("po", 1).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        sb.build().unwrap();
        ([u0, u1], [pi, po], [i, o, q])
    }
}
