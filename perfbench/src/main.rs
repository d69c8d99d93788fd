//! The SOCET benchmark: host-time cost of the paper's two-part flow as a
//! SOC integrator runs it — prepare cores, explore the design space, sign
//! off the plan, measure testability.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload prepare_paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) alternates untraced and traced iterations and prints
//! the per-layer metrics plus the tracing overhead. Every iteration's
//! output is checked against a reference built at set-up. Human-readable
//! lines come first; the last line of standard output is the JSON result.
//! See `perfbench/README.md` for the workloads and the layer map.

mod layers;
mod stats;
mod workloads;

use layers::{ms, Layers, END_TO_END, PER_LAYER};
use stats::{median, result_json, tail, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::prepare::PreparePaper;
use workloads::testability::Testability;
use workloads::Workload;

/// Set-ups per run, spread over its timed loop; `setup_s` is the fastest.
const SETUP_ROUNDS: usize = 10;
/// Untimed layer probes per traced run (see [`Workload::probe`]).
const PROBE_ROUNDS: usize = 3;
/// Timed iterations a run makes at least, so the tail percentile exists.
const MIN_ITERS: usize = 2 * stats::TAIL_BEYOND + 1;

const USAGE: &str = "usage: socet-perfbench --workload <prepare_paper|testability_paper> \
--seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        if flags.insert(key.clone(), value).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let mut get = |k: &str| flags.remove(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_owned())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A finished run: every check made, the iteration times and the layer
/// readings.
#[derive(Debug, Default)]
struct Measurement {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    setup_s: Vec<f64>,
    setup_layers: Vec<Layers>,
    /// Untraced iteration times in ms.
    plain_ms: Vec<f64>,
    /// Traced iteration times in ms (traced runs only).
    traced_ms: Vec<f64>,
    traced_layers: Vec<Layers>,
    /// Readings of the untimed layer probes after the timed loop.
    probe_layers: Vec<Layers>,
    /// `VmHWM` right after the timed loop, before any probe, in MB.
    peak_rss_mb: Option<f64>,
}

impl Measurement {
    fn fail_ratio(&self) -> f64 {
        layers::ratio(self.failed as f64, self.attempted as f64)
    }

    fn record_check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }
}

/// Sets the workload up once, recording the time and layer readings.
fn set_up<W: Workload>(seed: u64, scratch: &Path, m: &mut Measurement) -> Result<W, String> {
    let mut layers = Layers::default();
    let t = Instant::now();
    let w = W::setup(seed, scratch, &mut layers)?;
    m.setup_s.push(t.elapsed().as_secs_f64());
    m.setup_layers.push(layers);
    Ok(w)
}

/// One untimed warm-up iteration, then timed iterations for `budget` (and
/// at least [`MIN_ITERS`]). Traced runs alternate untraced and traced
/// iterations, so both see the same host conditions, and end with the
/// untimed layer probes, which feed only per-layer metrics.
///
/// The set-ups that remain of [`SETUP_ROUNDS`] run between iterations,
/// spread evenly over `budget`: the host's speed swings for seconds at a
/// time, so back-to-back set-ups would all land in one phase, while the
/// fastest of spread ones, like the fastest iteration, samples the run.
fn measure<W: Workload>(
    w: &mut W,
    (seed, scratch): (u64, &Path),
    budget: Duration,
    trace: bool,
    m: &mut Measurement,
) {
    w.reset();
    let out = w.run(None);
    m.record_check(w.check(&out));
    let start = Instant::now();
    let enough = |m: &Measurement| {
        m.plain_ms.len() >= MIN_ITERS && (!trace || m.traced_ms.len() >= MIN_ITERS)
    };
    let mut i = 0usize;
    while start.elapsed() < budget || !enough(m) {
        let traced = trace && i % 2 == 1;
        w.reset();
        let mut layers = Layers::default();
        let t = Instant::now();
        let out = std::hint::black_box(w.run(traced.then_some(&mut layers)));
        let took = ms(t);
        if traced {
            m.traced_ms.push(took);
            m.traced_layers.push(layers);
        } else {
            m.plain_ms.push(took);
        }
        m.record_check(w.check(&out));
        i += 1;
        let due = |m: &Measurement| {
            let share = m.setup_s.len() as f64 / SETUP_ROUNDS as f64;
            m.setup_s.len() < SETUP_ROUNDS && start.elapsed() >= budget.mul_f64(share)
        };
        while due(m) {
            if let Err(e) = set_up::<W>(seed, scratch, m) {
                m.record_check(Err(e));
            }
        }
    }
    m.peak_rss_mb = peak_rss_mb();
    if !trace {
        return;
    }
    for _ in 0..PROBE_ROUNDS {
        let mut layers = Layers::default();
        m.record_check(w.probe(&mut layers));
        m.probe_layers.push(layers);
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(Path::new(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&Path::new(".git").join(r)).unwrap_or(head),
            None => head,
        },
        None => "unknown (no .git in the working directory)".to_owned(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the process to the CPU it is running on, so every library default
/// sized from `available_parallelism` (the sweep, the fault simulators)
/// runs on one thread. On a shared 2-vCPU host a second thread's speed-up
/// comes and goes with other tenants' load, which swung parallel timings
/// by 2x; on one CPU, contention can only add time. Call it before any
/// thread is spawned: threads inherit the mask. Returns the CPU.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, laid out as a `cpu_set_t` bit array; pid 0 is this thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The workload seed: the run's seed, or the workload's default for 0.
fn workload_seed(run_seed: u64, default: u64) -> u64 {
    if run_seed == 0 {
        default
    } else {
        run_seed
    }
}

fn run<W: Workload>(args: &Args, default_seed: u64) -> Result<(Measurement, f64), String> {
    let seed = workload_seed(args.seed, default_seed);
    let scratch = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
    let host_cpus = nproc();
    let pinned = pin_to_one_cpu().map_or("null".to_owned(), |c| c.to_string());
    let header = [
        ("workload", stats::quote(&args.workload)),
        ("run_seed", args.seed.to_string()),
        ("workload_seed", seed.to_string()),
        (
            "mode",
            stats::quote(if args.trace { "traced" } else { "untraced" }),
        ),
        ("seconds", args.seconds.to_string()),
        ("commit", stats::quote(&commit())),
        ("nproc", host_cpus.to_string()),
        ("pinned_cpu", pinned),
        ("threads", nproc().to_string()),
        ("cpu", stats::quote(&cpu_model())),
        ("items", stats::quote(W::ITEMS)),
    ];
    let body: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("# header {{{}}}", body.join(", "));
    let mut m = Measurement::default();
    let result = set_up::<W>(seed, &scratch, &mut m).map(|mut w| {
        measure(
            &mut w,
            (seed, &scratch),
            Duration::from_secs_f64(args.seconds),
            args.trace,
            &mut m,
        );
        w.items()
    });
    let _ = std::fs::remove_dir_all(&scratch);
    result.map(|items| (m, items))
}

/// Median of each reading over `all`; names missing from an iteration
/// count as absent, not 0.
fn layer_medians(all: &[Layers]) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for l in all {
        for (k, v) in l.iter() {
            by_name.entry(k.to_owned()).or_default().push(v);
        }
    }
    by_name
        .into_iter()
        .filter_map(|(k, vs)| median(&vs).map(|v| (k, v)))
        .collect()
}

/// The fastest iteration and the tail, as `(min, tail, tail percentile)`.
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (tail_ms, tail_pct) = tail(xs).unwrap_or((f64::NAN, f64::NAN));
    (min, tail_ms, tail_pct)
}

fn end_to_end<W: Workload>(m: &Measurement, items: f64) -> Vec<Metric> {
    let p50 = median(&m.plain_ms).unwrap_or(f64::NAN);
    let (min, tail_ms, tail_pct) = spread(&m.plain_ms);
    let samples: Vec<String> = m.plain_ms.iter().map(|t| format!("{t:.1}")).collect();
    println!("# iteration ms: {}", samples.join(" "));
    println!(
        "# {} timed iterations; iter_ms_p50 {p50} ms; iter_ms_tail {tail_ms} ms \
         (p{tail_pct:.1}, {} samples beyond); fail_ratio {} ({} of {} checks failed)",
        m.plain_ms.len(),
        stats::TAIL_BEYOND,
        m.fail_ratio(),
        m.failed,
        m.attempted
    );
    println!(
        "# {}_per_s = {} 1/s at the median ({items} {} per iteration); {} 1/s at the fastest",
        W::ITEMS,
        items / (p50 / 1e3),
        W::ITEMS,
        items / (min / 1e3)
    );
    let setups: Vec<String> = m.setup_s.iter().map(|t| format!("{t:.4}")).collect();
    println!("# set-up s: {}", setups.join(" "));
    let values = [
        m.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        min,
        m.peak_rss_mb.unwrap_or(f64::NAN),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

fn per_layer<W: Workload>(m: &Measurement) -> Vec<Metric> {
    let mut values = layer_medians(&m.setup_layers);
    values.extend(layer_medians(&m.probe_layers));
    values.extend(layer_medians(&m.traced_layers));
    let traced = median(&m.traced_ms).unwrap_or(f64::NAN);
    let plain = median(&m.plain_ms).unwrap_or(f64::NAN);
    values.insert(
        "bench.trace_overhead_pct".into(),
        100.0 * (traced / plain - 1.0),
    );
    let covered: f64 = W::top_layers()
        .iter()
        .map(|n| values.get(*n).copied().unwrap_or(0.0))
        .sum();
    values.insert("bench.layer_coverage_pct".into(), 100.0 * covered / traced);
    let (_, tail_ms, tail_pct) = spread(&m.plain_ms);
    values.insert("bench.iter_ms_p50".into(), plain);
    values.insert("bench.iter_ms_tail".into(), tail_ms);
    values.insert("bench.iter_ms_tail_percentile".into(), tail_pct);
    println!(
        "# {} untraced / {} traced iterations; medians {plain} / {traced} ms",
        m.plain_ms.len(),
        m.traced_ms.len()
    );
    PER_LAYER
        .iter()
        .map(|(name, unit)| Metric {
            name: name.to_string(),
            value: values.get(*name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

fn report<W: Workload>(args: &Args, default_seed: u64) -> ExitCode {
    let (m, items) = match run::<W>(args, default_seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(e) = &m.first_failure {
        eprintln!("output check failed: {e}");
    }
    let metrics = if args.trace {
        per_layer::<W>(&m)
    } else {
        end_to_end::<W>(&m, items)
    };
    for metric in &metrics {
        println!("{:<40} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", result_json(m.attempted, m.failed, &metrics));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "prepare_paper" => report::<PreparePaper>(&args, workloads::prepare::DEFAULT_SEED),
        "testability_paper" => report::<Testability>(&args, workloads::testability::DEFAULT_SEED),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = args("--workload testability_paper --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(
            args("--workload x --seed 3 --seconds 10").is_err(),
            "missing --trace"
        );
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 0 --extra").is_err());
        assert_eq!(workload_seed(0, 42), 42);
        assert_eq!(workload_seed(5, 42), 5);
    }

    #[test]
    fn corrupted_reference_yields_a_failure_ratio() {
        let scratch =
            std::env::temp_dir().join(format!("socet-perfbench-main-{}", std::process::id()));
        let mut m = Measurement::default();
        let seed = workloads::testability::DEFAULT_SEED;
        let mut w: Testability = set_up(seed, &scratch, &mut m).expect("set-up");
        assert_eq!(m.setup_s.len(), 1);
        w.corrupt_reference();
        let mut untraced = Measurement::default();
        measure(
            &mut w,
            (seed, &scratch),
            Duration::ZERO,
            false,
            &mut untraced,
        );
        assert_eq!(untraced.setup_s.len(), SETUP_ROUNDS);
        assert!(
            untraced.probe_layers.is_empty(),
            "untraced runs make no probes"
        );
        assert!(untraced.peak_rss_mb.unwrap() > 0.0);
        assert_eq!(untraced.attempted as usize, 1 + untraced.plain_ms.len());
        assert_eq!(untraced.failed, untraced.attempted);
        measure(&mut w, (seed, &scratch), Duration::ZERO, true, &mut m);
        assert_eq!(m.setup_s.len(), SETUP_ROUNDS);
        assert!(m.plain_ms.len() >= MIN_ITERS && m.traced_ms.len() >= MIN_ITERS);
        assert_eq!(
            m.attempted as usize,
            1 + m.plain_ms.len() + m.traced_ms.len() + PROBE_ROUNDS
        );
        assert!(m.fail_ratio() > 0.0);
        assert_eq!(
            m.failed as usize,
            m.attempted as usize - PROBE_ROUNDS,
            "every iteration sees the damaged reference; the replay probe does not"
        );
        let metrics = per_layer::<Testability>(&m);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| metrics.iter().find(|x| x.name == n).unwrap().value;
        assert!(get("atpg.seqfsim_ms") > 0.0);
        assert!(get("verify.replay_ms") > 0.0, "probe readings carry over");
        assert!(
            get("baselines.flatten_ms") > 0.0,
            "set-up layer readings carry over"
        );
        assert_eq!(get("atpg.seq_faults"), (4314 + 3192) as f64);
    }
}
