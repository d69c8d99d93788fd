//! Observability-layer integration: the trace a pipeline run records has
//! the documented span shape, both exporters emit well-formed output, and
//! recording is observationally inert — it never changes pipeline bytes.

use proptest::prelude::*;
use socet::atpg::TpgConfig;
use socet::cells::DftCosts;
use socet::flow::{prepare_soc_with, PrepareOptions, PreparedSoc};
use socet::obs::{names, Counter, Recorder, SharedRecorder, SpanRec};
use socet::rtl::{Soc, SocBuilder};
use std::path::PathBuf;
use std::sync::Arc;

fn light_tpg() -> TpgConfig {
    TpgConfig {
        random_patterns: 16,
        max_backtracks: 32,
        ..TpgConfig::default()
    }
}

/// Two instances of one core — small enough to prepare repeatedly, rich
/// enough to exercise the memo (one unique core, two instances).
fn twin_soc() -> Soc {
    let gcd = Arc::new(socet::socs::gcd_core());
    let port = |n: &str| gcd.find_port(n).unwrap();
    let mut b = SocBuilder::new("twin");
    let x = b.input_pin("X", 12).unwrap();
    let g = b.output_pin("G", 12).unwrap();
    let a = b.instantiate("gcd_a", Arc::clone(&gcd)).unwrap();
    let c = b.instantiate("gcd_b", Arc::clone(&gcd)).unwrap();
    b.connect_pin_to_core(x, a, port("X")).unwrap();
    b.connect_cores(a, port("G"), c, port("Y")).unwrap();
    b.connect_core_to_pin(c, port("G"), g).unwrap();
    b.build().unwrap()
}

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("obs-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The root-to-leaf name path of span `i`.
fn path(spans: &[SpanRec], i: usize) -> Vec<&'static str> {
    let mut frames = Vec::new();
    let mut cur = Some(i as u32);
    while let Some(id) = cur {
        frames.push(spans[id as usize].name);
        cur = spans[id as usize].parent;
    }
    frames.reverse();
    frames
}

#[test]
fn trace_shape_matches_the_pipeline_structure() {
    let soc = twin_soc();
    let shared = SharedRecorder::new();
    let opts = PrepareOptions::new()
        .cache_dir(fresh_cache_dir("trace-shape"))
        .recorder(shared.clone());
    prepare_soc_with(&soc, &DftCosts::default(), &light_tpg(), &opts).unwrap();
    let rec = shared.take();

    let spans = rec.spans();
    assert_eq!(spans[0].name, names::PREPARE, "root span opens first");
    assert_eq!(spans[0].parent, None);
    assert_eq!(
        spans.iter().filter(|s| s.name == names::PREPARE).count(),
        1,
        "exactly one pipeline root"
    );

    // Golden nesting: prepare → prepare_core → {store_load, hscan,
    // versions, elaborate, atpg → {atpg_random, atpg_podem}, store_write}.
    let expect_under_core = [
        names::STORE_LOAD,
        names::HSCAN,
        names::VERSIONS,
        names::ELABORATE,
        names::ATPG,
        names::STORE_WRITE,
    ];
    for (i, s) in spans.iter().enumerate() {
        let p = path(spans, i);
        match s.name {
            names::PREPARE => assert_eq!(p, [names::PREPARE]),
            names::PREPARE_CORE => assert_eq!(p, [names::PREPARE, names::PREPARE_CORE]),
            names::ATPG_RANDOM | names::ATPG_PODEM => assert_eq!(
                p,
                [names::PREPARE, names::PREPARE_CORE, names::ATPG, s.name]
            ),
            name if expect_under_core.contains(&name) => {
                assert_eq!(p, [names::PREPARE, names::PREPARE_CORE, name])
            }
            other => panic!("unexpected span `{other}` in a prepare trace"),
        }
    }
    // One unique core, prepared once; its cold cache probe missed and the
    // artifact was written back.
    assert_eq!(rec.span_count(names::PREPARE_CORE), 1);
    assert_eq!(rec.span_count(names::STORE_LOAD), 1);
    assert_eq!(rec.span_count(names::STORE_WRITE), 1);
    for stage in [names::HSCAN, names::VERSIONS, names::ELABORATE, names::ATPG] {
        assert_eq!(rec.span_count(stage), 1, "stage `{stage}` runs once");
    }
    assert_eq!(rec.counter(Counter::Instances), 2);
    assert_eq!(rec.counter(Counter::UniqueCores), 1);
    assert_eq!(rec.counter(Counter::MemoHits), 1);
    assert_eq!(rec.counter(Counter::DiskMisses), 1);
    assert_eq!(rec.counter(Counter::DiskWrites), 1);
    assert_eq!(rec.dropped_spans(), 0);
}

#[test]
fn exporters_emit_wellformed_output() {
    let soc = twin_soc();
    let shared = SharedRecorder::new();
    let opts = PrepareOptions::new().recorder(shared.clone());
    prepare_soc_with(&soc, &DftCosts::default(), &light_tpg(), &opts).unwrap();
    let rec = shared.take();

    let json = rec.to_json();
    assert!(json_parses(&json), "trace must be valid JSON:\n{json}");
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("\"name\": \"prepare\""));
    assert!(json.contains("\"instances\": 2"));

    let folded = rec.to_folded();
    assert!(!folded.is_empty(), "profile must not be empty");
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("`stack SP value` lines");
        assert!(stack.starts_with("prepare"), "stacks root at the pipeline");
        assert!(ns.parse::<u128>().expect("integer nanoseconds") > 0);
    }
}

/// System 1's prepare trace carries PODEM's work counters, and event-driven
/// implication shows in them: fewer gate evaluations than one full sweep
/// of the largest core per implication. Its redundant faults include the
/// eight constant-0 XOR-tree roots of the CPU's random logic, which the
/// exhaustive fanin check settles, and every fault PODEM ran has exactly
/// one outcome.
#[test]
fn system1_trace_counts_podem_work() {
    let soc = socet::socs::barcode_system();
    let shared = SharedRecorder::new();
    let opts = PrepareOptions::new().recorder(shared.clone());
    let (prepared, _) =
        prepare_soc_with(&soc, &DftCosts::default(), &TpgConfig::default(), &opts).unwrap();
    let rec = shared.take();
    for c in [
        Counter::PodemDecisions,
        Counter::PodemImplications,
        Counter::PodemGateEvals,
        Counter::PodemTests,
        Counter::PodemUntestable,
    ] {
        assert!(rec.counter(c) > 0, "{} is zero", c.name());
    }
    let comb_gates = prepared
        .netlists
        .iter()
        .flatten()
        .map(|nl| nl.topo_order().len() as u64)
        .max()
        .unwrap();
    assert!(
        rec.counter(Counter::PodemGateEvals) < rec.counter(Counter::PodemImplications) * comb_gates,
        "{} gate evals for {} implications of up to {comb_gates} gates",
        rec.counter(Counter::PodemGateEvals),
        rec.counter(Counter::PodemImplications)
    );
    let unactivatable = rec.counter(Counter::PodemUnactivatable);
    assert!(
        (8..=rec.counter(Counter::PodemUntestable)).contains(&unactivatable),
        "{unactivatable} unactivatable of {} untestable",
        rec.counter(Counter::PodemUntestable)
    );
    // Each logic core is prepared once, so the per-instance coverage sums
    // are per-run sums. Every untestable and aborted fault is one PODEM
    // run; a test detects its own fault, and maybe others in passing.
    assert_eq!(
        rec.counter(Counter::Instances),
        rec.counter(Counter::UniqueCores)
    );
    let cov = prepared.aggregate_coverage();
    assert_eq!(rec.counter(Counter::PodemAborted), cov.aborted as u64);
    assert_eq!(rec.counter(Counter::PodemUntestable), cov.untestable as u64);
    assert!(rec.counter(Counter::PodemTests) <= rec.counter(Counter::FaultsDroppedPodem));
    let ran = rec.counter(Counter::PodemTests)
        + rec.counter(Counter::PodemUntestable)
        + rec.counter(Counter::PodemAborted);
    assert!(ran <= (cov.total as u64) - rec.counter(Counter::FaultsDroppedRandom));
    let json = rec.to_json();
    assert!(json.contains("\"podem_decisions\""));
    assert!(json.contains("\"podem_unactivatable\""));
}

/// A search that must backtrack shows in the recorder: `a OR (a AND b)`
/// is `a`, so the AND output s-a-0 and `b` stuck at either value are
/// redundant, yet each is activatable, so PODEM exhausts its decisions
/// before proving it.
#[test]
fn podem_backtracks_are_recorded() {
    use socet::atpg::generate_tests;
    use socet::gate::{GateKind, GateNetlistBuilder};
    let mut b = GateNetlistBuilder::new("redundant");
    let a = b.input("a");
    let bb = b.input("b");
    let and_ab = b.gate2(GateKind::And2, a, bb);
    let y = b.gate2(GateKind::Or2, a, and_ab);
    b.output("y", y);
    let nl = b.build().unwrap();
    let mut rec = Recorder::new();
    let tests = {
        let _sink = rec.install();
        generate_tests(&nl, &TpgConfig::default())
    };
    assert_eq!(tests.coverage.untestable, 3);
    assert!(rec.counter(Counter::PodemBacktracks) > 0);
    assert_eq!(rec.counter(Counter::PodemUntestable), 3);
    assert_eq!(rec.counter(Counter::PodemUnactivatable), 0);
}

/// A minimal JSON recognizer — enough to catch unbalanced structure,
/// missing commas and bad literals in the hand-rolled exporter.
fn json_parses(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return true;
                }
                loop {
                    ws(b, i);
                    if !string(b, i) {
                        return false;
                    }
                    ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return false;
                    }
                    *i += 1;
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return true;
                }
                loop {
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b'n') => literal(b, i, b"null"),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                *i += 1;
                while b
                    .get(*i)
                    .is_some_and(|c| c.is_ascii_digit() || b".eE+-".contains(c))
                {
                    *i += 1;
                }
                true
            }
            _ => false,
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if b.get(*i) != Some(&b'"') {
            return false;
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => *i += 2,
                _ => *i += 1,
            }
        }
        false
    }
    fn literal(b: &[u8], i: &mut usize, word: &[u8]) -> bool {
        if b.len() - *i >= word.len() && &b[*i..*i + word.len()] == word {
            *i += word.len();
            true
        } else {
            false
        }
    }
    if !value(b, &mut i) {
        return false;
    }
    ws(b, &mut i);
    i == b.len()
}

/// Byte encodings of every instance's artifact (`None` for memories).
fn all_bytes(p: &PreparedSoc, soc: &Soc) -> Vec<Option<Vec<u8>>> {
    (0..soc.cores().len())
        .map(|i| p.artifact_bytes(i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recording is observationally inert: capturing a full trace changes
    /// no pipeline output bytes, for any ATPG seed.
    #[test]
    fn recording_changes_no_pipeline_bytes(
        seed in 0u64..3,
    ) {
        let soc = twin_soc();
        let costs = DftCosts::default();
        let tpg = TpgConfig { seed, ..light_tpg() };
        let (unrecorded, _) = prepare_soc_with(&soc, &costs, &tpg, &PrepareOptions::new()).unwrap();
        let shared = SharedRecorder::new();
        let traced = PrepareOptions::new().recorder(shared.clone());
        let (recorded, _) = prepare_soc_with(&soc, &costs, &tpg, &traced).unwrap();
        prop_assert_eq!(all_bytes(&recorded, &soc), all_bytes(&unrecorded, &soc));
        let rec = shared.take();
        prop_assert!(rec.span_count(socet::obs::names::PREPARE) >= 1);
    }
}
