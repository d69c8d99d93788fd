//! Golden digests of two bench binaries' outputs that no other test pins
//! byte for byte: the stdout of `ablation_reservations` (the min-TApp
//! choice's schedule and both parallel makespans) and every file
//! `export_artifacts` writes (the DOT graphs, the netlist dump, the
//! sign-off plan and the controller Verilog). A change that moves any
//! byte of them fails here.

use socet_cells::StableHasher;
use std::path::{Path, PathBuf};
use std::process::Command;

fn digest(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish().to_hex()
}

/// Runs a bench binary in `dir` and returns its stdout.
fn run(bin: &str, dir: &Path) -> Vec<u8> {
    let out = Command::new(bin)
        .current_dir(dir)
        .output()
        .expect("bench binary spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} failed: {stderr}");
    out.stdout
}

#[test]
fn ablation_reservations_stdout_is_byte_stable() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let stdout = run(env!("CARGO_BIN_EXE_ablation_reservations"), &dir);
    let text = String::from_utf8_lossy(&stdout);
    assert_eq!(
        digest(&stdout),
        "4a0565047cbacba314113df26594da92",
        "{text}"
    );
}

#[test]
fn exported_artifacts_are_byte_stable() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("export_artifacts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    run(env!("CARGO_BIN_EXE_export_artifacts"), &dir);
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir.join("artifacts"))
        .expect("artifacts/ written")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (
                name,
                digest(&std::fs::read(&path).expect("artifact readable")),
            )
        })
        .collect();
    files.sort();
    let files: Vec<(&str, &str)> = files.iter().map(|(n, d)| (&n[..], &d[..])).collect();
    let want = [
        ("ccg_system1.dot", "b89b62b8bed27a0cc24a45c9feed1ef6"),
        ("rcg_cpu.dot", "7ef23496c38f3ce53dd7b0b8f3814a93"),
        ("rcg_display.dot", "169e1a768baabd78f1acb09af1edb6dc"),
        ("rcg_preprocessor.dot", "4534bc42f9d2f35416a1db061ff5c33c"),
        ("system1.netlist.txt", "d6d32a9bdaa7fda96f92d28503604fd5"),
        ("system1.plan.txt", "50ee79632cc36d4f3b1093af7202f3b1"),
        ("test_controller.v", "e210c458c8ad915714200c7f266a620b"),
    ];
    assert_eq!(files, want);
}
