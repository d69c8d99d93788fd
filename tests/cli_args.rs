//! Regression tests for `soctool` argument handling: unknown flags,
//! unknown commands, surplus positional arguments, flags the command does
//! not read and malformed flag values must all be rejected with exit code
//! 2 and a usage message — historically the tool exited 0 on unknown
//! flags, silently ignoring typos like `--cout`.

use std::process::{Command, Output};

fn soctool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soctool"))
        .args(args)
        .output()
        .expect("soctool spawns")
}

fn assert_usage_rejection(args: &[&str]) {
    let out = soctool(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "soctool {args:?} should exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: soctool"),
        "soctool {args:?} printed no usage:\n{stderr}"
    );
}

#[test]
fn unknown_flags_are_rejected() {
    assert_usage_rejection(&["systems", "--bogus"]);
    assert_usage_rejection(&["report", "system1", "--cout"]); // typo of --stats
    assert_usage_rejection(&["verify", "system1", "--sed", "3"]); // typo of --seed
    assert_usage_rejection(&["atpg", "system1", "-x"]);
}

#[test]
fn unknown_commands_are_rejected() {
    assert_usage_rejection(&["frobnicate"]);
    assert_usage_rejection(&["Report", "system1"]);
    assert_usage_rejection(&[]);
    // An empty synthetic SOC is not a system; generating one used to panic.
    for cmd in ["report", "sweep", "prepare", "atpg", "bist", "verify"] {
        assert_usage_rejection(&[cmd, "synthetic:0"]);
    }
}

#[test]
fn surplus_positionals_are_rejected() {
    assert_usage_rejection(&["systems", "extra"]);
    assert_usage_rejection(&["verify", "system1", "extra", "more"]);
    assert_usage_rejection(&["bist", "system1", "surplus"]);
    // A choice lists at most one version per core (System 1 has five).
    assert_usage_rejection(&["report", "system1", "0,1,2,2,2,2,2"]);
    assert_usage_rejection(&["dot-ccg", "system1", "0,0,0,0,0,0"]);
}

#[test]
fn flag_values_are_not_swallowed_as_positionals() {
    // `--seed` consumes its value; what remains must still be checked.
    assert_usage_rejection(&["verify", "system1", "--seed", "7", "surplus"]);
    // A flag missing its value is an error, not a crash.
    let out = soctool(&["verify", "system1", "--seed"]);
    assert_eq!(out.status.code(), Some(2), "dangling --seed should exit 2");
}

#[test]
fn malformed_flag_values_are_rejected() {
    // Each of these used to fall back to a default without a word.
    assert_usage_rejection(&["verify", "system2", "--seed", "1.5"]);
    assert_usage_rejection(&["verify", "synthetic", "--seed", "xyz"]);
    assert_usage_rejection(&["verify", "system1", "--cases", "xyz"]);
    assert_usage_rejection(&["verify", "system1", "--seed", "-1"]);
    // Zero cases would check nothing and still report a pass.
    assert_usage_rejection(&["verify", "synthetic", "--cases", "0"]);
    assert_usage_rejection(&["verify", "system2", "--cases", "0"]);
    // A trailing value flag must not vanish.
    assert_usage_rejection(&["report", "system1", "--trace"]);
    assert_usage_rejection(&["sweep", "system1", "--stats", "--stats"]);
    // Version indices a core does not offer used to panic in `Ccg::build`;
    // memory cores (System 1's RAM and ROM) offer only version 0.
    assert_usage_rejection(&["dot-ccg", "system1", "9,9,9"]);
    assert_usage_rejection(&["dot-ccg", "system2", "3"]);
    assert_usage_rejection(&["report", "system1", "0,9,0"]);
    assert_usage_rejection(&["report", "system1", "0,0,0,1"]);
}

#[test]
fn flags_the_command_never_reads_are_rejected() {
    assert_usage_rejection(&["verify", "system1", "--trace", "x.json"]);
    assert_usage_rejection(&["prepare", "system1", "--seed", "3"]);
    assert_usage_rejection(&["atpg", "system1", "--workers", "2"]);
    // The preparation pipeline is serial; it has no worker count to set.
    assert_usage_rejection(&["prepare", "system1", "--workers", "2"]);
    assert_usage_rejection(&["bist", "system1", "--stats"]);
    assert_usage_rejection(&["verify", "synthetic", "--stats"]);
}

#[test]
fn valid_invocations_still_work() {
    let out = soctool(&["systems"]);
    assert!(out.status.success(), "soctool systems failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("system1"), "{stdout}");
    assert!(stdout.contains("system2"), "{stdout}");
    // Flags are accepted in any position relative to the positionals.
    let out = soctool(&["verify", "--cases", "1", "synthetic", "--seed", "3"]);
    assert!(out.status.success(), "soctool verify synthetic failed");
    // `atpg` exports a trace that carries PODEM's counters.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (trace, profile) = (
        dir.join("atpg-system2.json"),
        dir.join("atpg-system2.folded"),
    );
    let out = soctool(&[
        "atpg",
        "system2",
        "--trace",
        trace.to_str().unwrap(),
        "--profile",
        profile.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "soctool atpg --trace failed");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    assert!(json.contains("\"podem_decisions\""), "{json}");
    assert!(!std::fs::read_to_string(&profile).unwrap().is_empty());
}

/// The engine counter lines of `soctool sweep <system> --stats`, without
/// the host-dependent `stage times` line.
fn sweep_counters(system: &str) -> Vec<String> {
    let out = soctool(&["sweep", system, "--stats"]);
    assert!(
        out.status.success(),
        "soctool sweep {system} --stats failed"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stats = stdout
        .split_once("evaluation engine stats:\n")
        .expect("stats block")
        .1;
    stats
        .lines()
        .filter(|l| !l.trim_start().starts_with("stage times"))
        .map(|l| l.trim().to_owned())
        .collect()
}

#[test]
fn sweep_counters_describe_the_search_not_the_host() {
    let expected = [
        (
            "system1",
            [
                "evaluations            : 27",
                "ccg builds             : 1 full, 36 incremental patches",
                "ccg edges rebuilt      : 179",
                "route attempts         : 189",
                "route cache hits       : 54",
                "dijkstra relaxations   : 1180",
                "system-mux fallbacks   : 36",
            ],
        ),
        (
            "system2",
            [
                "evaluations            : 27",
                "ccg builds             : 1 full, 36 incremental patches",
                "ccg edges rebuilt      : 98",
                "route attempts         : 117",
                "route cache hits       : 54",
                "dijkstra relaxations   : 654",
                "system-mux fallbacks   : 0",
            ],
        ),
    ];
    for (system, lines) in expected {
        assert_eq!(sweep_counters(system), lines, "{system}");
    }
}

/// Each number of `verify --stats`'s total line says what it counts: the
/// serial phase executes the scheduled checks minus the hold gaps, the
/// joint phase the same, and the bits are those scheduled in one phase.
#[test]
fn verify_total_line_counts_what_it_checks() {
    let out = soctool(&["verify", "system1", "--stats"]);
    assert!(
        out.status.success(),
        "soctool verify system1 --stats failed"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let total = stdout.lines().last().expect("total line");
    assert_eq!(
        total,
        "total: 24570 checks executed (12285 serial + 12285 joint), \
         1050 hold-gap checks skipped per phase, 65205 bits scheduled per phase"
    );
}

#[test]
fn bist_exports_a_trace_and_a_profile() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (trace, profile) = (
        dir.join("bist-system1.json"),
        dir.join("bist-system1.folded"),
    );
    let out = soctool(&[
        "bist",
        "system1",
        "--trace",
        trace.to_str().unwrap(),
        "--profile",
        profile.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "soctool bist --trace failed");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    assert!(json.contains("\"name\": \"bist\""), "{json}");
    let folded = std::fs::read_to_string(&profile).expect("profile written");
    assert!(folded.starts_with("bist "), "{folded}");
}
