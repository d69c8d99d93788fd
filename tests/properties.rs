//! Property-based tests over randomly generated RTL cores and SOCs: the
//! invariants every stage of the pipeline must hold regardless of input
//! shape.

use proptest::prelude::*;
use socet::atpg::{fault_list, generate_tests, FaultSim, TpgConfig};
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{schedule, CoreTestData};
use socet::gate::{elaborate, CombSim, PackedSim};
use socet::hscan::insert_hscan;
use socet::rtl::{Core, CoreBuilder, Direction, RegisterId, RtlNode, SocBuilder};
use socet::transparency::synthesize_versions;
use std::collections::HashSet;
use std::sync::Arc;

/// A random core: `n` registers of width `w`, wired into a random DAG-ish
/// topology with an input and an output, plus optional extra mux edges.
fn random_core(n_regs: usize, width: u16, extra_edges: &[(usize, usize)]) -> Core {
    let mut b = CoreBuilder::new("rand");
    let i = b.port("i", Direction::In, width).expect("fresh");
    let o = b.port("o", Direction::Out, width).expect("fresh");
    let regs: Vec<RegisterId> = (0..n_regs)
        .map(|k| b.register(&format!("r{k}"), width).expect("fresh"))
        .collect();
    b.connect_mux(RtlNode::Port(i), RtlNode::Reg(regs[0]), 0)
        .expect("consistent");
    for w2 in regs.windows(2) {
        b.connect_mux(RtlNode::Reg(w2[0]), RtlNode::Reg(w2[1]), 0)
            .expect("consistent");
    }
    b.connect_reg_to_port(regs[n_regs - 1], o)
        .expect("consistent");
    let mut used_legs: Vec<u8> = vec![1; n_regs];
    for &(from, to) in extra_edges {
        let (from, to) = (from % n_regs, to % n_regs);
        if from == to {
            continue;
        }
        let leg = used_legs[to];
        if leg == u8::MAX {
            continue;
        }
        used_legs[to] += 1;
        b.connect_mux(RtlNode::Reg(regs[from]), RtlNode::Reg(regs[to]), leg)
            .expect("consistent");
    }
    b.build().expect("randomly generated core is consistent")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every register lands in exactly one HSCAN chain, so the core really
    /// is full-scan.
    #[test]
    fn hscan_chains_cover_all_registers(
        n in 2usize..10,
        width in 1u16..12,
        edges in prop::collection::vec((0usize..10, 0usize..10), 0..6),
    ) {
        let core = random_core(n, width, &edges);
        let h = insert_hscan(&core, &DftCosts::default());
        let mut seen = HashSet::new();
        for chain in h.chains() {
            for link in &chain.links {
                prop_assert!(seen.insert(link.reg), "{} chained twice", link.reg);
            }
        }
        prop_assert_eq!(seen.len(), core.registers().len());
        prop_assert!(h.sequential_depth() >= 1);
        prop_assert!(h.sequential_depth() <= n);
    }

    /// Every synthesized version is complete (all inputs propagate, all
    /// outputs justify), ladder latencies never increase, and overheads
    /// never decrease.
    #[test]
    fn version_ladder_is_monotone(
        n in 2usize..8,
        width in 1u16..10,
        edges in prop::collection::vec((0usize..8, 0usize..8), 0..6),
    ) {
        let core = random_core(n, width, &edges);
        let costs = DftCosts::default();
        let h = insert_hscan(&core, &costs);
        let versions = synthesize_versions(&core, &h, &costs);
        let lib = CellLibrary::generic_08um();
        prop_assert_eq!(versions.len(), 3);
        for v in &versions {
            prop_assert!(v.is_complete(&core), "{} incomplete", v.name());
        }
        let i = core.find_port("i").expect("port");
        let o = core.find_port("o").expect("port");
        let lat: Vec<Option<u32>> = versions.iter().map(|v| v.pair_latency(i, o)).collect();
        for w in lat.windows(2) {
            if let (Some(a), Some(b)) = (w[0], w[1]) {
                prop_assert!(b <= a, "latency rose along the ladder: {lat:?}");
            }
        }
        let ovh: Vec<u64> = versions.iter().map(|v| v.overhead_cells(&lib)).collect();
        for w in ovh.windows(2) {
            prop_assert!(w[1] >= w[0], "overhead fell along the ladder: {ovh:?}");
        }
        // The final version moves data in at most 2 cycles (one register
        // plus the output wire), since every slow data pair gets a mux.
        if let Some(l3) = lat[2] {
            prop_assert!(l3 <= 2, "version 3 latency {l3}");
        }
    }

    /// Transparency latency can never beat the shortest structural path:
    /// at least one register load separates an input from an output here.
    #[test]
    fn latency_at_least_one(
        n in 2usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8), 0..5),
    ) {
        let core = random_core(n, 4, &edges);
        let costs = DftCosts::default();
        let h = insert_hscan(&core, &costs);
        for v in synthesize_versions(&core, &h, &costs) {
            for p in v.paths() {
                prop_assert!(p.latency >= 1);
            }
        }
    }

    /// The packed simulator agrees with the scalar simulator on every
    /// elaborated random core.
    #[test]
    fn packed_and_scalar_simulation_agree(
        n in 2usize..6,
        width in 1u16..8,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..4),
        pattern_seed in 0u64..u64::MAX,
    ) {
        let core = random_core(n, width, &edges);
        let elab = elaborate(&core).expect("elaboration succeeds");
        let nl = &elab.netlist;
        let comb = CombSim::new(nl);
        let packed = PackedSim::new(nl);
        let n_pi = nl.inputs().len();
        let n_ff = nl.flip_flop_count();
        let mut seed = pattern_seed | 1;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed & 1 != 0
        };
        let pi: Vec<bool> = (0..n_pi).map(|_| next()).collect();
        let ff: Vec<bool> = (0..n_ff).map(|_| next()).collect();
        let scalar = comb.eval_signals(&pi, &ff);
        let piw: Vec<u64> = pi.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        let ffw: Vec<u64> = ff.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        let packed_vals = packed.eval(&piw, &ffw, None);
        for (k, (s, p)) in scalar.iter().zip(&packed_vals).enumerate() {
            let pbit = p & 1 != 0;
            prop_assert_eq!(*s, pbit, "signal {} disagrees", k);
        }
    }

    /// The cone-pruned fault simulator produces bit-identical detection maps to the retained full-netlist
    /// oracle on every elaborated random core.
    #[test]
    fn cone_fault_sim_matches_naive_oracle(
        n in 2usize..6,
        width in 1u16..8,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..4),
        pattern_seed in 0u64..u64::MAX,
        n_patterns in 1usize..90,
    ) {
        let core = random_core(n, width, &edges);
        let elab = elaborate(&core).expect("elaboration succeeds");
        let nl = &elab.netlist;
        let faults = fault_list(nl);
        let mut seed = pattern_seed | 1;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed & 1 != 0
        };
        let width = nl.inputs().len() + nl.flip_flop_count();
        let patterns: Vec<Vec<bool>> = (0..n_patterns)
            .map(|_| (0..width).map(|_| next()).collect())
            .collect();
        let mut sim = FaultSim::new(nl);
        let naive = sim.detected_naive(&faults, &patterns);
        let cone = sim.detected(&faults, &patterns);
        prop_assert_eq!(naive, cone, "cone engine diverged");
    }

    /// The ATPG driver's reported coverage is honest: resimulating its
    /// patterns (cone engine and naive oracle alike) re-detects exactly the
    /// faults it claimed.
    #[test]
    fn reported_coverage_survives_resimulation(
        n in 2usize..5,
        width in 1u16..6,
        edges in prop::collection::vec((0usize..5, 0usize..5), 0..4),
        seed in 0u64..u64::MAX,
    ) {
        let core = random_core(n, width, &edges);
        let elab = elaborate(&core).expect("elaboration succeeds");
        let nl = &elab.netlist;
        let cfg = TpgConfig { seed, max_backtracks: 64, ..TpgConfig::default() };
        let tests = generate_tests(nl, &cfg);
        let faults = fault_list(nl);
        let mut sim = FaultSim::new(nl);
        let det = sim.detected(&faults, &tests.patterns);
        let redetected = det.iter().filter(|&&d| d).count();
        prop_assert_eq!(redetected, tests.coverage.detected);
        prop_assert_eq!(tests.stats.fill_mask_events, 0);
        let naive = sim.detected_naive(&faults, &tests.patterns);
        prop_assert_eq!(det, naive);
    }

    /// Scheduling a two-core SOC never double-books: the per-vector cycle
    /// count is at least the largest single transparency latency on any
    /// used route, and the plan is deterministic.
    #[test]
    fn schedule_respects_latencies(
        n in 2usize..6,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..4),
        vectors in 1usize..40,
    ) {
        let core = Arc::new(random_core(n, 4, &edges));
        let i = core.find_port("i").expect("port");
        let o = core.find_port("o").expect("port");
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).expect("fresh");
        let po = sb.output_pin("po", 4).expect("fresh");
        let u0 = sb.instantiate("u0", core.clone()).expect("fresh");
        let u1 = sb.instantiate("u1", core.clone()).expect("fresh");
        sb.connect_pin_to_core(pi, u0, i).expect("consistent");
        sb.connect_cores(u0, o, u1, i).expect("consistent");
        sb.connect_core_to_pin(u1, o, po).expect("consistent");
        let soc = sb.build().expect("consistent");
        let costs = DftCosts::default();
        let h = insert_hscan(&core, &costs);
        let versions = synthesize_versions(&core, &h, &costs);
        let data = vec![
            Some(CoreTestData { versions: versions.clone(), hscan: h.clone(), scan_vectors: vectors }),
            Some(CoreTestData { versions, hscan: h, scan_vectors: vectors }),
        ];
        let choice = vec![0, 0];
        let a = schedule(&soc, &data, &choice, &costs);
        let b = schedule(&soc, &data, &choice, &costs);
        prop_assert_eq!(a.test_application_time(), b.test_application_time());
        // u1's input goes through u0's transparency: its arrival is at
        // least u0's v1 latency for (i, o).
        let min_lat = data[0].as_ref().expect("data").versions[0]
            .pair_latency(i, o)
            .expect("pair exists");
        let ep1 = &a.episodes[1];
        let arrival = ep1.input_routes[0].arrival;
        prop_assert!(arrival >= min_lat, "arrival {arrival} < latency {min_lat}");
    }
}
