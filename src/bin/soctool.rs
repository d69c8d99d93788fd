//! `soctool` — command-line front end for the SOCET flow.
//!
//! ```text
//! soctool systems                      list the built-in systems
//! soctool report <system> [choice]     full test-plan report (e.g. choice 0,1,2)
//! soctool sweep <system>               design-space table + Pareto front
//! soctool dot-rcg <system> <core>      Graphviz of a core's RCG
//! soctool dot-ccg <system> [choice]    Graphviz of the chip's CCG (Fig. 9)
//! soctool atpg <system>                per-core combinational ATPG run
//! soctool prepare <system>             content-addressed preparation pipeline
//! soctool bist <system>                memory BIST plans
//! soctool verify <system>              gate-level replay oracle (see below)
//! ```
//!
//! `report` and `sweep` accept `--stats` to print the evaluation engine's
//! counters (CCG builds vs. incremental patches, Dijkstra relaxations,
//! route-cache hits, stage wall-times); `atpg --stats` prints the fault
//! simulator's counters (cone pruning, fault dropping);
//! `prepare --stats` prints the preparation pipeline's counters (memo and
//! disk-cache hits, stage wall-times). `prepare` also accepts
//! `--cache-dir PATH` (on-disk artifact store).
//!
//! `report`, `sweep`, `atpg`, `prepare` and `bist` accept `--trace PATH`
//! (machine-readable JSON trace of the run's spans and counters, PODEM's
//! decision, backtrack, implication and gate-evaluation counts included)
//! and `--profile PATH` (collapsed-stack profile for flamegraph tooling) —
//! both exporters of the unified observability layer ([`socet::obs`]).
//!
//! `verify` replays scheduled test programs on the gate-level
//! transparency shell and checks the three oracle invariants
//! ([`socet::verify`]): `soctool verify system1|system2 [--cases K]`
//! fully replays the paper design point (all-zeros choice) and then `K-1`
//! further lexicographic design points with the vector count capped;
//! `soctool verify synthetic [--seed N] [--cases K]` runs the randomized
//! harness over `K` seeded synthetic SOCs with greedy shrinking. The same
//! `--seed` produces byte-identical output.
//!
//! Systems: `system1` (the barcode SOC), `system2`, or `synthetic:<n>`
//! for an n-core generated SOC.
//!
//! The command comes first and accepts only the flags listed for it in the
//! usage text. Unknown commands, surplus positional arguments, flags the
//! command does not read, repeated flags, and missing or non-numeric flag
//! values are rejected with exit code 2 and the usage text.

use socet::bist::plan_memory_bist;
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{
    ladder_len, parallelize, pareto_front, render_plan, Ccg, CoreTestData, Explorer,
};
use socet::hscan::insert_hscan;
use socet::obs::{Recorder, SharedRecorder};
use socet::rtl::Soc;
use socet::socs::{barcode_system, generate_soc, system2, SyntheticConfig};
use socet::transparency::Rcg;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: soctool <command> [args] [flags]\n\
         commands:\n\
           systems\n\
           report  <system> [choice] [--stats] [--trace PATH] [--profile PATH]\n\
           sweep   <system> [--stats] [--trace PATH] [--profile PATH]\n\
           dot-rcg <system> <core-name>\n\
           dot-ccg <system> [choice]\n\
           atpg    <system> [--stats] [--trace PATH] [--profile PATH]\n\
           prepare <system> [--stats] [--cache-dir PATH] [--trace PATH]\n\
                   [--profile PATH]\n\
           bist    <system> [--trace PATH] [--profile PATH]\n\
           verify  <system> [--seed N] [--cases K] [--stats]\n\
         systems: system1 | system2 | synthetic:<cores>\n\
                  (verify also accepts `synthetic` = randomized harness)\n\
         --stats: print engine counters (evaluation, ATPG or preparation)\n\
         --trace: write the run's JSON trace; --profile: collapsed stacks"
    );
    ExitCode::from(2)
}

/// Writes the recorder's exports to the `--trace` / `--profile` targets.
/// Returns `false` (and reports to stderr) if a write fails.
fn export_trace(rec: &Recorder, trace: Option<&PathBuf>, profile: Option<&PathBuf>) -> bool {
    let mut ok = true;
    if let Some(path) = trace {
        if let Err(e) = std::fs::write(path, rec.to_json()) {
            eprintln!("cannot write trace {}: {e}", path.display());
            ok = false;
        }
    }
    if let Some(path) = profile {
        if let Err(e) = std::fs::write(path, rec.to_folded()) {
            eprintln!("cannot write profile {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

fn load_system(name: &str) -> Option<Soc> {
    match name {
        "system1" => Some(barcode_system()),
        "system2" => Some(system2()),
        other => {
            let n: usize = other.strip_prefix("synthetic:")?.parse().ok()?;
            (n > 0).then(|| {
                generate_soc(&SyntheticConfig {
                    cores: n,
                    ..SyntheticConfig::default()
                })
            })
        }
    }
}

/// Parses a comma-separated version choice, one index per core, padding
/// omitted trailing cores with version 0. Surplus entries and indices a
/// core does not offer are rejected.
fn parse_choice(data: &[Option<CoreTestData>], arg: Option<&str>) -> Result<Vec<usize>, String> {
    let mut choice = match arg {
        None => Vec::new(),
        Some(s) => s
            .split(',')
            .map(|part| number("choice", part))
            .collect::<Result<Vec<usize>, _>>()?,
    };
    if choice.len() > data.len() {
        return Err(format!(
            "choice has {} entries for {} cores",
            choice.len(),
            data.len()
        ));
    }
    choice.resize(data.len(), 0);
    for (i, (c, td)) in choice.iter().zip(data).enumerate() {
        let offered = ladder_len(td.as_ref());
        if *c >= offered {
            return Err(format!(
                "core {i} offers {offered} version(s), choice {c} is out of range"
            ));
        }
    }
    Ok(choice)
}

/// Each command's maximum positional count (command included) and the
/// flags it reads. Anything else is rejected, so typos and misplaced flags
/// never silently no-op.
fn command_spec(cmd: &str) -> Option<(usize, &'static [&'static str])> {
    match cmd {
        "systems" => Some((1, &[])),
        "report" => Some((3, &["--stats", "--trace", "--profile"])),
        "sweep" => Some((2, &["--stats", "--trace", "--profile"])),
        "dot-rcg" | "dot-ccg" => Some((3, &[])),
        "atpg" => Some((2, &["--stats", "--trace", "--profile"])),
        "prepare" => Some((2, &["--stats", "--cache-dir", "--trace", "--profile"])),
        "bist" => Some((2, &["--trace", "--profile"])),
        "verify" => Some((2, &["--stats", "--seed", "--cases"])),
        _ => None,
    }
}

/// The flags of one invocation, already checked against its command.
#[derive(Debug, Default)]
struct Flags {
    stats: bool,
    cache_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    profile: Option<PathBuf>,
    seed: Option<u64>,
    cases: Option<u64>,
}

/// Splits the command line (command first) into positional arguments,
/// command included, and the flags that command reads.
fn parse_args(args: &[String]) -> Result<(Vec<&str>, Flags), String> {
    let cmd = match args.first() {
        Some(cmd) if !cmd.starts_with('-') => cmd.as_str(),
        _ => return Err("no command given".to_owned()),
    };
    let (max, allowed) = command_spec(cmd).ok_or(format!("unknown command `{cmd}`"))?;
    let mut positionals = vec![cmd];
    let mut flags = Flags::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args[1..].iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            positionals.push(arg);
            continue;
        }
        if !allowed.contains(&arg) {
            return Err(format!("`{cmd}` does not take `{arg}`"));
        }
        if seen.contains(&arg) {
            return Err(format!("flag `{arg}` given twice"));
        }
        seen.push(arg);
        if arg == "--stats" {
            flags.stats = true;
            continue;
        }
        let value = it.next().ok_or(format!("flag `{arg}` needs a value"))?;
        match arg {
            "--cache-dir" => flags.cache_dir = Some(value.into()),
            "--trace" => flags.trace = Some(value.into()),
            "--profile" => flags.profile = Some(value.into()),
            "--seed" => flags.seed = Some(number(arg, value)?),
            "--cases" => match number(arg, value)? {
                0 => return Err("`--cases` must be at least 1".to_owned()),
                n => flags.cases = Some(n),
            },
            _ => unreachable!("every flag in a command table is handled"),
        }
    }
    if let Some(extra) = positionals.get(max) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok((positionals, flags))
}

fn number<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{what}` takes a whole number, got `{value}`"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, flags) = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return usage();
        }
    };
    let Flags {
        stats,
        cache_dir,
        trace,
        profile,
        seed,
        cases,
    } = flags;
    let cmd = args[0];
    if cmd == "systems" {
        println!("system1      the paper's barcode SOC (CPU, PREPROCESSOR, DISPLAY, RAM, ROM)");
        println!("system2      graphics -> GCD -> X.25 pipeline");
        println!("synthetic:N  generated N-core backbone-with-taps SOC");
        return ExitCode::SUCCESS;
    }
    let Some(system_name) = args.get(1) else {
        return usage();
    };
    let default_seed = socet::verify::VerifyOptions::default().seed;
    if cmd == "verify" && *system_name == "synthetic" {
        if stats {
            eprintln!("`verify synthetic` does not take `--stats`");
            return usage();
        }
        let seed = seed.unwrap_or(default_seed);
        let opts = socet::verify::VerifyOptions {
            seed,
            max_vectors: Some(4),
            ..Default::default()
        };
        let report = socet::verify::run_synthetic_cases(seed, cases.unwrap_or(10), &opts);
        print!("{}", report.render());
        return if report.ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(soc) = load_system(system_name) else {
        eprintln!("unknown system `{system_name}`");
        return usage();
    };
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();
    // Planning inputs with the paper's premise of 105 vectors per core.
    let planning_data = || {
        CoreTestData::synthesize_soc(&soc, &costs, 105)
            .expect("every core of the built-in systems has input and output ports")
    };
    match cmd {
        "report" => {
            let data = planning_data();
            let choice = match parse_choice(&data, args.get(2).copied()) {
                Ok(c) => c,
                Err(msg) => {
                    eprintln!("{msg}");
                    return usage();
                }
            };
            let explorer = Explorer::new(&soc, &data, costs);
            let plan = match explorer.try_evaluate(&choice) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot evaluate choice {choice:?}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", render_plan(&soc, &data, &plan));
            let par = parallelize(&plan);
            println!("\nparallel extension: {par}");
            match socet::core::build_controller(&soc, &plan) {
                Ok(ctrl) => println!(
                    "test controller : {} cells ({}-bit counter, {} windows)",
                    ctrl.area_cells(&lib),
                    ctrl.counter_bits,
                    plan.episodes.len()
                ),
                Err(e) => println!("test controller : synthesis failed ({e})"),
            }
            if stats {
                println!("\n{}", explorer.metrics());
            }
            if !export_trace(&explorer.take_recorder(), trace.as_ref(), profile.as_ref()) {
                return ExitCode::FAILURE;
            }
        }
        "sweep" => {
            let data = planning_data();
            let explorer = Explorer::new(&soc, &data, costs);
            let points = explorer.sweep();
            println!("{:>10} {:>12}  choice", "ovhd", "TAT");
            let mut sorted: Vec<_> = points.iter().collect();
            sorted.sort_by_key(|p| (p.overhead_cells(&lib), p.test_application_time()));
            for p in &sorted {
                println!(
                    "{:>10} {:>12}  {:?}",
                    p.overhead_cells(&lib),
                    p.test_application_time(),
                    p.choice
                );
            }
            println!("\npareto front:");
            for p in pareto_front(&points) {
                println!(
                    "{:>10} {:>12}  {:?}",
                    p.overhead_cells(&lib),
                    p.test_application_time(),
                    p.choice
                );
            }
            if stats {
                println!("\n{}", explorer.metrics());
            }
            if !export_trace(&explorer.take_recorder(), trace.as_ref(), profile.as_ref()) {
                return ExitCode::FAILURE;
            }
        }
        "dot-rcg" => {
            let Some(core_name) = args.get(2) else {
                return usage();
            };
            let Some(cid) = soc.find_core(core_name) else {
                eprintln!("unknown core `{core_name}`");
                return ExitCode::from(2);
            };
            let core = soc.core(cid).core();
            let hscan = insert_hscan(core, &costs);
            let rcg = Rcg::extract(core, &hscan);
            print!("{}", rcg.to_dot(core));
        }
        "dot-ccg" => {
            let data = planning_data();
            let choice = match parse_choice(&data, args.get(2).copied()) {
                Ok(c) => c,
                Err(msg) => {
                    eprintln!("{msg}");
                    return usage();
                }
            };
            let ccg = Ccg::build(&soc, &data, &choice);
            print!("{}", ccg.to_dot(&soc));
        }
        "atpg" => {
            let tpg = socet::atpg::TpgConfig::default();
            let shared = SharedRecorder::new();
            let opts = socet::flow::PrepareOptions::new().recorder(shared.clone());
            let prepared = match socet::flow::prepare_soc_with(&soc, &costs, &tpg, &opts) {
                Ok((p, _)) => p,
                Err(e) => {
                    eprintln!("cannot prepare {}: {e}", soc.name());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{:<14} {:>7} {:>8} {:>8} {:>8}",
                "core", "faults", "FC%", "TEff%", "vectors"
            );
            for (inst, tests) in soc.cores().iter().zip(&prepared.tests) {
                match tests {
                    Some(t) => println!(
                        "{:<14} {:>7} {:>8.2} {:>8.2} {:>8}",
                        inst.name(),
                        t.coverage.total,
                        t.coverage.fault_coverage(),
                        t.coverage.test_efficiency(),
                        t.vector_count()
                    ),
                    None => println!("{:<14} {:>7}", inst.name(), "memory"),
                }
            }
            let agg = prepared.aggregate_coverage();
            println!("\naggregate: {agg}");
            if stats {
                println!("\n{}", prepared.atpg_stats());
            }
            if !export_trace(&shared.take(), trace.as_ref(), profile.as_ref()) {
                return ExitCode::FAILURE;
            }
        }
        "prepare" => {
            let shared = SharedRecorder::new();
            let mut opts = socet::flow::PrepareOptions::new().recorder(shared.clone());
            if let Some(dir) = cache_dir {
                opts = opts.cache_dir(dir);
            }
            let tpg = socet::atpg::TpgConfig::default();
            let (prepared, m) = match socet::flow::prepare_soc_with(&soc, &costs, &tpg, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cannot prepare {}: {e}", soc.name());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{:<14} {:>8} {:>8} {:>8} {:>8}",
                "core", "gates", "FFs", "vectors", "FC%"
            );
            for (inst, i) in soc.cores().iter().zip(0..) {
                match (&prepared.netlists[i], &prepared.tests[i]) {
                    (Some(nl), Some(t)) => println!(
                        "{:<14} {:>8} {:>8} {:>8} {:>8.2}",
                        inst.name(),
                        nl.gates().len(),
                        nl.flip_flop_count(),
                        t.vector_count(),
                        t.coverage.fault_coverage()
                    ),
                    _ => println!("{:<14} {:>8}", inst.name(), "memory"),
                }
            }
            println!("\naggregate: {}", prepared.aggregate_coverage());
            if stats {
                println!("\n{m}");
            }
            if !export_trace(&shared.take(), trace.as_ref(), profile.as_ref()) {
                return ExitCode::FAILURE;
            }
        }
        "verify" => {
            let data = planning_data();
            let base_seed = seed.unwrap_or(default_seed);
            let cases = cases.unwrap_or(1);
            let mut choice = vec![0usize; data.len()];
            let mut all_ok = true;
            // The `--stats` total line's counts, summed over the cases.
            let (mut executed, mut gaps, mut bits) = (0u64, 0u64, 0u64);
            for case in 0..cases {
                // Case 0 is the paper design point, replayed in full; the
                // rest sample the design space with capped vector counts.
                let opts = socet::verify::VerifyOptions {
                    seed: base_seed,
                    max_vectors: if case == 0 { None } else { Some(4) },
                    ..Default::default()
                };
                match socet::core::try_schedule(&soc, &data, &choice, &costs) {
                    Ok(plan) => match socet::verify::verify_design_point(&soc, &data, &plan, &opts)
                    {
                        Ok(report) => {
                            print!("{}", report.render());
                            all_ok &= report.ok();
                            for e in &report.episodes {
                                gaps += e.hold_gaps;
                                bits += e.bits_checked;
                            }
                            executed += report.parallel.as_ref().map_or(0, |p| p.checks);
                        }
                        Err(e) => {
                            eprintln!("cannot replay choice {choice:?}: {e}");
                            all_ok = false;
                        }
                    },
                    Err(e) => println!("choice {choice:?}: unschedulable ({e})"),
                }
                let advanced = (0..choice.len()).rev().any(|i| {
                    if choice[i] + 1 < ladder_len(data[i].as_ref()) {
                        choice[i] += 1;
                        choice[i + 1..].fill(0);
                        true
                    } else {
                        false
                    }
                });
                if !advanced && case + 1 < cases {
                    println!("design space exhausted after {} cases", case + 1);
                    break;
                }
            }
            if stats {
                println!(
                    "total: {executed} checks executed, {gaps} hold-gap checks skipped, \
                     {bits} bits scheduled"
                );
            }
            if !all_ok {
                return ExitCode::FAILURE;
            }
        }
        "bist" => {
            let mut rec = Recorder::new();
            let plans = {
                let _on = rec.install();
                let _span = socet::obs::span(socet::obs::names::BIST);
                plan_memory_bist(&soc)
            };
            if plans.is_empty() {
                println!("no memory cores in {}", soc.name());
            }
            for p in &plans {
                println!(
                    "{:<8} {:>2}-bit LFSR + {:>2}-bit MISR, {:>6} cells, {:>8} cycles",
                    soc.core(p.core).name(),
                    p.addr_width,
                    p.data_width,
                    p.overhead_cells(&lib),
                    p.test_cycles()
                );
            }
            if !export_trace(&rec, trace.as_ref(), profile.as_ref()) {
                return ExitCode::FAILURE;
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
