//! Property tests of the binary artifact codecs (`socet-cells`,
//! `socet-gate`, `socet-atpg`, `socet-hscan`, `socet-transparency`):
//! every value round-trips to identical bytes, and every single-byte corruption of an encoded artifact is
//! either rejected with a [`CodecError`] or decodes to a *different*
//! value — never a panic, never a silent identical decode.

use proptest::prelude::*;
use socet::atpg::{decode_test_set, encode_test_set, AtpgMetrics, Coverage, TestSet};
use socet::cells::{
    decode_area_report, encode_area_report, AreaReport, CellKind, CodecError, Dec, Enc,
};
use socet::gate::codec::{decode_netlist, encode_netlist};
use socet::gate::{GateKind, GateNetlist, GateNetlistBuilder};
use socet::hscan::{decode_hscan, encode_hscan, insert_hscan, HscanResult};
use socet::transparency::{decode_versions, encode_versions, synthesize_versions, CoreVersion};

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Seeded generators. proptest supplies the seed; the structures are built
// deterministically from it so they stay valid by construction.

fn random_report(seed: u64) -> AreaReport {
    let mut r = AreaReport::new();
    let n = (mix(seed) % CellKind::ALL.len() as u64) as usize;
    for (i, kind) in CellKind::ALL.iter().take(n).enumerate() {
        r.tally(*kind, mix(seed ^ i as u64) % 10_000);
    }
    r
}

fn random_netlist(seed: u64) -> GateNetlist {
    let mut b = GateNetlistBuilder::new(&format!("n{:x}", seed & 0xFFFF));
    let n_in = 1 + (mix(seed) % 4) as usize;
    let mut signals: Vec<_> = (0..n_in).map(|i| b.input(&format!("i{i}"))).collect();
    let n_gates = (mix(seed ^ 1) % 12) as usize;
    for g in 0..n_gates {
        let r = mix(seed ^ (100 + g as u64));
        let a = signals[(r % signals.len() as u64) as usize];
        let c = signals[(r >> 8) as usize % signals.len()];
        let s = match r >> 16 & 7 {
            0 => b.gate1(GateKind::Not, a),
            1 => b.gate2(GateKind::And2, a, c),
            2 => b.gate2(GateKind::Or2, a, c),
            3 => b.gate2(GateKind::Xor2, a, c),
            4 => b.gate2(GateKind::Nand2, a, c),
            5 => b.mux(a, c, a),
            6 => b.dff(a),
            _ => b.gate2(GateKind::Nor2, a, c),
        };
        signals.push(s);
    }
    let out = *signals.last().unwrap();
    b.output("o", out);
    b.build().expect("generated netlist is well-formed")
}

fn random_test_set(seed: u64) -> TestSet {
    let width = (mix(seed) % 17) as usize;
    let count = (mix(seed ^ 2) % 8) as usize;
    let patterns = (0..count)
        .map(|p| {
            (0..width)
                .map(|i| mix(seed ^ (p as u64) << 8 ^ i as u64) & 1 == 1)
                .collect()
        })
        .collect();
    TestSet {
        patterns,
        coverage: Coverage {
            total: (mix(seed ^ 3) % 500) as usize,
            detected: (mix(seed ^ 4) % 400) as usize,
            untestable: (mix(seed ^ 5) % 50) as usize,
            aborted: (mix(seed ^ 6) % 20) as usize,
        },
        stats: AtpgMetrics {
            blocks_simulated: mix(seed ^ 7) % 1_000_000,
            cone_gate_evals: mix(seed ^ 8) % 1_000_000,
            ..AtpgMetrics::default()
        },
    }
}

// ---------------------------------------------------------------------------
// Round-trip identity: decode(encode(x)) re-encodes to the same bytes.

fn roundtrip(bytes: &[u8], reencode: impl Fn(&mut Dec) -> Result<Vec<u8>, CodecError>) -> Vec<u8> {
    let mut d = Dec::new(bytes);
    let out = reencode(&mut d).expect("valid artifact decodes");
    assert!(
        d.is_empty(),
        "decoder left {} trailing bytes",
        d.remaining()
    );
    out
}

/// Corruption sweep: flip one bit in every byte position; the decoder
/// must reject the buffer or produce a value that re-encodes differently.
fn corruption_sweep(
    bytes: &[u8],
    what: &str,
    reencode: impl Fn(&mut Dec) -> Result<Vec<u8>, CodecError>,
) {
    for pos in 0..bytes.len() {
        let mut bad = bytes.to_vec();
        bad[pos] ^= 1 << (pos % 8);
        let mut d = Dec::new(&bad);
        match reencode(&mut d) {
            Err(_) => {}
            Ok(re) => assert_ne!(
                re, bytes,
                "{what}: flipping byte {pos} decoded back to the original value"
            ),
        }
    }
}

fn encode<T>(value: &T, enc: impl Fn(&T, &mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    enc(value, &mut e);
    e.into_bytes()
}

/// Encodes `value`, checks that it round-trips to identical bytes and runs
/// the corruption sweep over the encoding.
fn check_codec<T>(
    what: &str,
    value: &T,
    enc: impl Fn(&T, &mut Enc),
    dec: impl Fn(&mut Dec) -> Result<T, CodecError>,
) {
    let bytes = encode(value, &enc);
    let reencode = |d: &mut Dec| Ok(encode(&dec(d)?, &enc));
    assert_eq!(roundtrip(&bytes, reencode), bytes, "{what}");
    corruption_sweep(&bytes, what, reencode);
}

/// The HSCAN and version-ladder slices of every logic core's artifact on
/// both paper systems, at the default DFT costs.
fn paper_core_slices() -> Vec<(String, HscanResult, Vec<CoreVersion>)> {
    let costs = socet::cells::DftCosts::default();
    [socet::socs::barcode_system(), socet::socs::system2()]
        .iter()
        .flat_map(|soc| soc.logic_cores().into_iter().map(move |c| soc.core(c)))
        .map(|inst| {
            let hscan = insert_hscan(inst.core(), &costs);
            let versions = synthesize_versions(inst.core(), &hscan, &costs);
            (inst.name().to_owned(), hscan, versions)
        })
        .collect()
}

#[test]
fn paper_hscan_slices_roundtrip_and_corruption() {
    for (core, hscan, _) in paper_core_slices() {
        check_codec(&format!("{core} hscan"), &hscan, encode_hscan, decode_hscan);
    }
}

#[test]
fn paper_version_ladders_roundtrip_and_corruption() {
    for (core, _, versions) in paper_core_slices() {
        let what = format!("{core} version ladder");
        check_codec(
            &what,
            &versions,
            |v, e| encode_versions(v, e),
            decode_versions,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn area_report_roundtrip_and_corruption(seed in 1u64..u64::MAX) {
        check_codec("area report", &random_report(seed), encode_area_report, decode_area_report);
    }

    #[test]
    fn netlist_roundtrip_and_corruption(seed in 1u64..u64::MAX) {
        check_codec("netlist", &random_netlist(seed), encode_netlist, decode_netlist);
    }

    #[test]
    fn test_set_roundtrip_and_corruption(seed in 1u64..u64::MAX) {
        check_codec("test set", &random_test_set(seed), encode_test_set, decode_test_set);
    }
}

/// Truncation at every prefix length must error out, never panic.
#[test]
fn truncation_never_panics() {
    let bytes = encode(&random_netlist(42), encode_netlist);
    for len in 0..bytes.len() {
        let mut d = Dec::new(&bytes[..len]);
        assert!(decode_netlist(&mut d).is_err(), "prefix {len} decoded");
    }
    let bytes = encode(&random_test_set(42), encode_test_set);
    for len in 0..bytes.len() {
        let mut d = Dec::new(&bytes[..len]);
        assert!(decode_test_set(&mut d).is_err(), "prefix {len} decoded");
    }
}
