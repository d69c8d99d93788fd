//! The end-to-end SOCET flow: core-level DFT + test generation, then
//! chip-level planning inputs.
//!
//! This is the "first part" of the paper's two-part methodology — the
//! one-time, per-core work the core provider (hard/firm cores) or the user
//! (soft cores) performs: HSCAN insertion, transparency version synthesis,
//! gate-level elaboration and combinational ATPG. Its output,
//! [`PreparedSoc`], feeds the chip-level
//! [`Explorer`](socet_core::Explorer) directly.
//!
//! # The preparation pipeline
//!
//! The core-level flow is a pure function of `(Core, DftCosts, TpgConfig)`,
//! so [`prepare_soc_with`] content-addresses it:
//!
//! * repeated instances of one core (common in real SOCs — two identical
//!   DSPs, four identical bus bridges) are prepared **once** and the
//!   artifact shared across instances (the in-process memo);
//! * unique cores are prepared one after another, in the order of their
//!   first instance, on the calling thread, so neither the output nor the
//!   counters depend on the host's CPU count;
//! * an optional **on-disk artifact store** keyed by the same fingerprint
//!   makes warm re-runs skip the flow entirely; any change to the core
//!   structure, the DFT cost knobs or the ATPG configuration changes the
//!   key and invalidates the entry.
//!
//! Every stage records through the unified observability layer
//! ([`socet::obs`](crate::obs)): the pipeline opens a `prepare` span, each
//! unique core a `prepare_core` span with the `hscan` / `versions` /
//! `elaborate` / `atpg` / store spans nested inside, and the cache counters
//! land in typed [`Counter`] slots. A run records into one recorder: a
//! fresh one, or the [`SharedRecorder`] passed through
//! [`PrepareOptions::recorder`], which the run locks and records straight
//! into so the caller can read the full trace back
//! (`soctool prepare --trace out.json --profile out.folded`).
//! [`PrepareMetrics`] is this run's share of that recorder: the view
//! ([`PrepareMetrics::from_recorder`]) after the run minus the view before
//! it.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use socet_atpg::{decode_test_set, encode_test_set, generate_tests, Coverage, TestSet, TpgConfig};
use socet_cells::{CellLibrary, CodecError, Dec, DftCosts, Enc, Fingerprint, StableHasher};
use socet_core::{CoreTestData, PrepareMetrics};
use socet_gate::codec::{decode_netlist, encode_netlist};
use socet_gate::{elaborate, GateError, GateNetlist};
use socet_hscan::{decode_hscan, encode_hscan};
use socet_obs::{names, Counter, Recorder, SharedRecorder};
use socet_rtl::{Core, CoreInstanceId, Soc};
use socet_transparency::{decode_versions, encode_versions};

/// Per-core artifacts of the SOCET core-level flow for a whole SOC.
#[derive(Debug)]
pub struct PreparedSoc {
    /// Chip-level planning inputs, indexed by core instance (`None` for
    /// memory cores).
    pub data: Vec<Option<CoreTestData>>,
    /// Elaborated gate netlists of the logic cores.
    pub netlists: Vec<Option<GateNetlist>>,
    /// Generated per-core test sets (the precomputed test sequences the
    /// paper assumes each core ships with).
    pub tests: Vec<Option<TestSet>>,
}

impl PreparedSoc {
    /// Merged fault accounting over every logic core: the chip's fault
    /// coverage when every core receives its precomputed test set (SOCET
    /// and FSCAN-BSCAN both achieve this, Table 3).
    ///
    /// Fault populations are counted **per physical instance**: an SOC
    /// carrying two instances of one core contributes that core's fault
    /// list twice, because both physical copies are really tested. The
    /// preparation memo shares the *artifact* across repeated instances,
    /// never the accounting.
    pub fn aggregate_coverage(&self) -> Coverage {
        self.tests
            .iter()
            .flatten()
            .fold(Coverage::default(), |acc, t| acc.merge(&t.coverage))
    }

    /// Original (pre-DFT) chip area in cells: the sum of the logic cores'
    /// elaborated netlists.
    pub fn original_area_cells(&self, lib: &CellLibrary) -> u64 {
        self.netlists
            .iter()
            .flatten()
            .map(|nl| nl.area().cells(lib))
            .sum()
    }

    /// Total HSCAN (core-level DFT) overhead in cells.
    pub fn hscan_overhead_cells(&self, lib: &CellLibrary) -> u64 {
        self.data
            .iter()
            .flatten()
            .map(|d| d.hscan.overhead_cells(lib))
            .sum()
    }

    /// Full-scan vector count per core instance (0 for memory cores), the
    /// input the FSCAN-BSCAN baseline needs.
    pub fn vectors(&self) -> Vec<u64> {
        self.tests
            .iter()
            .map(|t| t.as_ref().map(|t| t.vector_count() as u64).unwrap_or(0))
            .collect()
    }

    /// A design-space explorer over `soc` fed by this prepared data — the
    /// handoff from the per-core flow to chip-level planning. The explorer
    /// keeps one warm evaluation engine, so repeated `evaluate`, `sweep`
    /// and `optimize` calls share its incremental CCG and route cache.
    pub fn explorer<'a>(&'a self, soc: &'a Soc, costs: DftCosts) -> socet_core::Explorer<'a> {
        socet_core::Explorer::new(soc, &self.data, costs)
    }

    /// Merged ATPG-engine counters over every logic core's test
    /// generation. Counted **per physical instance**, like
    /// [`aggregate_coverage`](Self::aggregate_coverage) — render it
    /// directly, or charge it to the thread's installed [`Recorder`] with
    /// [`publish`](socet_atpg::AtpgMetrics::publish).
    pub fn atpg_stats(&self) -> socet_atpg::AtpgMetrics {
        let mut m = socet_atpg::AtpgMetrics::new();
        for t in self.tests.iter().flatten() {
            m.merge(&t.stats);
        }
        m
    }

    /// HSCAN chain depth per core instance (0 for memory cores), the input
    /// the test-bus baseline needs.
    pub fn depths(&self) -> Vec<u64> {
        self.data
            .iter()
            .map(|d| {
                d.as_ref()
                    .map(|d| d.hscan.sequential_depth() as u64)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// The canonical byte encoding of instance `i`'s prepared artifact, or
    /// `None` for memory cores. Two instances prepared identically encode
    /// to identical bytes — the equality the pipeline's determinism tests
    /// check (the codec is a bijection, so byte equality *is* value
    /// equality).
    pub fn artifact_bytes(&self, i: usize) -> Option<Vec<u8>> {
        let artifact = CoreArtifact {
            data: self.data.get(i)?.clone()?,
            netlist: self.netlists.get(i)?.clone()?,
            tests: self.tests.get(i)?.clone()?,
        };
        let mut e = Enc::new();
        encode_artifact(&artifact, &mut e);
        Some(e.into_bytes())
    }
}

/// A core-level flow failure, pinned to the SOC instance it occurred on.
///
/// [`prepare_soc_with`] stops at the first failure in declaration order,
/// the one [`prepare_soc_uncached`] would have hit first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareError {
    /// The failing core instance.
    pub core: CoreInstanceId,
    /// The failing instance's name in the SOC.
    pub name: String,
    /// The underlying elaboration failure.
    pub source: GateError,
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preparing core instance `{}` (#{}) failed: {}",
            self.name,
            self.core.index(),
            self.source
        )
    }
}

impl Error for PrepareError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// Knobs of the preparation pipeline. [`Default`] / [`PrepareOptions::new`]
/// mean: no on-disk artifact store, no trace capture.
///
/// The struct is `#[non_exhaustive]`: build it with the chainable
/// constructors so new knobs stop being breaking changes.
///
/// # Examples
///
/// ```
/// use socet::flow::PrepareOptions;
/// let opts = PrepareOptions::new().cache_dir("/tmp/socet-cache");
/// assert!(opts.cache_dir.is_some());
/// assert!(opts.recorder.is_none());
/// ```
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct PrepareOptions {
    /// Directory of the on-disk artifact store; `None` disables it. The
    /// directory is created on first write.
    pub cache_dir: Option<PathBuf>,
    /// Shared recorder the pipeline records its full event stream (spans
    /// and counters) into, locked for the length of the run; `None` records
    /// into a fresh recorder that is dropped afterwards. The returned
    /// metrics are the same either way — this knob only adds trace capture.
    pub recorder: Option<SharedRecorder>,
}

impl PrepareOptions {
    /// The default options: no disk store, no trace.
    pub fn new() -> Self {
        PrepareOptions::default()
    }

    /// Does nothing: the pipeline always runs on the calling thread. Kept
    /// only because the benchmark harness (`perfbench`) still calls it;
    /// the perfbench-editing change of ROADMAP item 9 deletes it.
    #[deprecated(note = "the pipeline is serial; this is a no-op")]
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Enables the on-disk artifact store under `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Records the pipeline's trace into `rec`.
    pub fn recorder(mut self, rec: SharedRecorder) -> Self {
        self.recorder = Some(rec);
        self
    }
}

/// One prepared core: everything the flow derives from
/// `(Core, DftCosts, TpgConfig)`.
#[derive(Debug, Clone)]
struct CoreArtifact {
    data: CoreTestData,
    netlist: GateNetlist,
    tests: TestSet,
}

/// The content hash keying the artifact memo and the on-disk store: the
/// full RTL structure plus every DFT cost knob and ATPG configuration
/// knob. Any input change changes the fingerprint — that is the cache
/// invalidation rule; there is no other one.
pub fn artifact_fingerprint(core: &Core, costs: &DftCosts, tpg: &TpgConfig) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_str("socet-artifact-v2");
    core.fingerprint_into(&mut h);
    costs.fingerprint_into(&mut h);
    tpg.fingerprint_into(&mut h);
    h.finish()
}

fn encode_artifact(a: &CoreArtifact, e: &mut Enc) {
    encode_netlist(&a.netlist, e);
    encode_hscan(&a.data.hscan, e);
    encode_versions(&a.data.versions, e);
    e.put_usize(a.data.scan_vectors);
    encode_test_set(&a.tests, e);
}

fn decode_artifact(bytes: &[u8]) -> Result<CoreArtifact, CodecError> {
    let mut d = Dec::new(bytes);
    let netlist = decode_netlist(&mut d)?;
    let hscan = decode_hscan(&mut d)?;
    let versions = decode_versions(&mut d)?;
    let scan_vectors = d.get_usize()?;
    let tests = decode_test_set(&mut d)?;
    if !d.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes after artifact"));
    }
    Ok(CoreArtifact {
        data: CoreTestData {
            versions,
            hscan,
            scan_vectors,
        },
        netlist,
        tests,
    })
}

/// On-disk store entry layout: magic, fingerprint echo, length-prefixed
/// payload, payload checksum. The fingerprint echo catches hash-truncated
/// file names; the checksum catches torn writes.
const STORE_MAGIC: &[u8; 4] = b"SCTA";

fn store_path(dir: &Path, fp: Fingerprint) -> PathBuf {
    dir.join(format!("{}.socet", fp.to_hex()))
}

fn checksum(payload: &[u8]) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

/// Loads an artifact from the store; any anomaly — missing file, bad
/// magic, fingerprint mismatch, torn payload, codec failure — is a cache
/// miss, never an error.
fn load_artifact(dir: &Path, fp: Fingerprint) -> Option<CoreArtifact> {
    let bytes = fs::read(store_path(dir, fp)).ok()?;
    let mut d = Dec::new(&bytes);
    if d.get_raw(4).ok()? != STORE_MAGIC {
        return None;
    }
    let hi = d.get_u64().ok()?;
    let lo = d.get_u64().ok()?;
    if (u128::from(hi) << 64 | u128::from(lo)) != fp.0 {
        return None;
    }
    let len = d.get_usize().ok()?;
    if len != d.remaining().checked_sub(16)? {
        return None;
    }
    let payload = d.get_raw(len).ok()?;
    let sum_hi = d.get_u64().ok()?;
    let sum_lo = d.get_u64().ok()?;
    if (u128::from(sum_hi) << 64 | u128::from(sum_lo)) != checksum(payload).0 {
        return None;
    }
    decode_artifact(payload).ok()
}

/// Distinguishes this process's temporary store files from any concurrent
/// writer's (threads within the process disambiguate via the sequence).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Stores an artifact; best-effort (an unwritable cache directory slows
/// the next run down, it does not fail this one). Writes to a temporary
/// sibling and renames so concurrent readers never see a torn entry.
///
/// The temporary name carries the process id and a per-process sequence
/// number: two processes (or threads) racing to store the same fingerprint
/// each rename their *own* fully written file, so the survivor is always a
/// loadable entry. (With a shared `<fp>.tmp` name, one racer could rename
/// the other's half-written file — the checksum hid that as a silent miss.)
fn store_artifact(dir: &Path, fp: Fingerprint, artifact: &CoreArtifact) -> bool {
    let mut payload = Enc::new();
    encode_artifact(artifact, &mut payload);
    let payload = payload.into_bytes();
    let sum = checksum(&payload);
    let mut e = Enc::new();
    e.put_raw(STORE_MAGIC);
    e.put_u64((fp.0 >> 64) as u64);
    e.put_u64(fp.0 as u64);
    e.put_usize(payload.len());
    e.put_raw(&payload);
    e.put_u64((sum.0 >> 64) as u64);
    e.put_u64(sum.0 as u64);
    let write = || -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            "{}.{}.{}.tmp",
            fp.to_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, e.bytes())?;
        fs::rename(&tmp, store_path(dir, fp)).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    };
    write().is_ok()
}

/// Runs the core-level flow on one unique core, consulting the disk store
/// when configured. Stage wall-times and cache counters land in the
/// thread's installed [`Recorder`]: the `prepare_core` span opened here
/// nests the `hscan` / `versions` / `elaborate` / `atpg` spans the stage
/// crates record themselves, plus the `store_load` / `store_write` spans
/// around disk-store traffic.
fn prepare_unique(
    core: &Core,
    costs: &DftCosts,
    tpg: &TpgConfig,
    cache: Option<(&Path, Fingerprint)>,
) -> Result<CoreArtifact, GateError> {
    let _core_span = socet_obs::span(names::PREPARE_CORE);
    if let Some((dir, fp)) = cache {
        let hit = {
            let _span = socet_obs::span(names::STORE_LOAD);
            load_artifact(dir, fp)
        };
        if let Some(artifact) = hit {
            socet_obs::add(Counter::DiskHits, 1);
            return Ok(artifact);
        }
        socet_obs::add(Counter::DiskMisses, 1);
    }

    let mut data = CoreTestData::synthesize(core, costs, 0).unwrap_or_else(|e| panic!("{e}"));
    let elab = elaborate(core)?;
    let tests = generate_tests(&elab.netlist, tpg);
    data.scan_vectors = tests.vector_count();

    let artifact = CoreArtifact {
        data,
        netlist: elab.netlist,
        tests,
    };
    if let Some((dir, fp)) = cache {
        let _span = socet_obs::span(names::STORE_WRITE);
        if store_artifact(dir, fp, &artifact) {
            socet_obs::add(Counter::DiskWrites, 1);
        }
    }
    Ok(artifact)
}

/// One unique core of the SOC plus the logic instances carrying it.
struct Group<'a> {
    core: &'a Core,
    fp: Fingerprint,
    instances: Vec<usize>,
}

/// Buckets the SOC's logic instances by core content. The `Arc` pointer
/// identity of [`CoreInstance::core`](socet_rtl::CoreInstance) is the fast
/// path; otherwise the fingerprint decides, double-checked by structural
/// equality so a (astronomically unlikely, but cheap to guard) 128-bit
/// collision degrades to an extra preparation instead of wrong data. A
/// colliding core is re-keyed with a salted fingerprint so the disk store
/// stays injective.
fn group_by_core<'a>(soc: &'a Soc, costs: &DftCosts, tpg: &TpgConfig) -> Vec<Group<'a>> {
    let mut groups: Vec<Group<'a>> = Vec::new();
    for (i, inst) in soc.cores().iter().enumerate() {
        if inst.is_memory() {
            continue;
        }
        socet_obs::add(Counter::Instances, 1);
        let core = inst.core();
        if let Some(g) = groups.iter_mut().find(|g| std::ptr::eq(g.core, core)) {
            g.instances.push(i);
            socet_obs::add(Counter::MemoHits, 1);
            continue;
        }
        let mut fp = artifact_fingerprint(core, costs, tpg);
        match groups.iter_mut().find(|g| g.fp == fp) {
            Some(g) if *g.core == *core => {
                g.instances.push(i);
                socet_obs::add(Counter::MemoHits, 1);
                continue;
            }
            Some(_) => {
                let mut salt = 0u64;
                while groups.iter().any(|g| g.fp == fp) {
                    let mut h = StableHasher::new();
                    h.write_str("socet-collision-salt");
                    h.write_u64(salt);
                    h.write_u64((fp.0 >> 64) as u64);
                    h.write_u64(fp.0 as u64);
                    fp = h.finish();
                    salt += 1;
                }
            }
            None => {}
        }
        groups.push(Group {
            core,
            fp,
            instances: vec![i],
        });
    }
    socet_obs::add(Counter::UniqueCores, groups.len() as u64);
    groups
}

/// Runs the core-level flow on one core: HSCAN, version synthesis,
/// elaboration, ATPG.
///
/// # Errors
///
/// Propagates [`GateError`] from elaboration (pathological cores only).
///
/// # Examples
///
/// ```
/// use socet::flow::prepare_core;
/// use socet::cells::DftCosts;
/// use socet::atpg::TpgConfig;
/// let core = socet::socs::gcd_core();
/// let (data, _netlist, tests) = prepare_core(&core, &DftCosts::default(), &TpgConfig::default())?;
/// assert_eq!(data.versions.len(), 3);
/// assert!(tests.coverage.fault_coverage() > 50.0);
/// # Ok::<(), socet::gate::GateError>(())
/// ```
pub fn prepare_core(
    core: &Core,
    costs: &DftCosts,
    tpg: &TpgConfig,
) -> Result<(CoreTestData, GateNetlist, TestSet), GateError> {
    let artifact = prepare_unique(core, costs, tpg, None)?;
    Ok((artifact.data, artifact.netlist, artifact.tests))
}

/// Runs the core-level flow on every logic core of `soc` through the
/// content-addressed pipeline, returning the prepared data and the
/// pipeline's [`PrepareMetrics`]. [`PrepareOptions::default`] means no
/// disk store and no trace capture.
///
/// The result is bit-identical to the uncached flow
/// ([`prepare_soc_uncached`]) for every cache state: repeated instances
/// share one preparation (the flow is deterministic, so sharing is
/// observationally invisible), and a disk hit decodes to exactly the value
/// that was encoded (the codec is a bijection).
///
/// The run records into the recorder of [`PrepareOptions::recorder`] when
/// it is set, and into a fresh [`Recorder`] otherwise: a `prepare` span
/// (a child of any span the caller left open there) with the per-core
/// stage spans below it, and the cache counters. The returned
/// [`PrepareMetrics`] is the view of that recorder after the run minus the
/// view before it ([`PrepareMetrics::since`]), so several runs into one
/// shared recorder each get their own counts.
///
/// # Errors
///
/// Returns the [`PrepareError`] for the first instance (in declaration
/// order) whose elaboration fails — the same instance the serial flow
/// would report.
pub fn prepare_soc_with(
    soc: &Soc,
    costs: &DftCosts,
    tpg: &TpgConfig,
    opts: &PrepareOptions,
) -> Result<(PreparedSoc, PrepareMetrics), PrepareError> {
    let mut fresh;
    let mut locked;
    let rec: &mut Recorder = match &opts.recorder {
        Some(shared) => {
            locked = shared.lock();
            &mut locked
        }
        None => {
            fresh = Recorder::new();
            &mut fresh
        }
    };
    let before = PrepareMetrics::from_recorder(rec);
    let span = rec.begin(names::PREPARE);
    let result = {
        let _sink = rec.install();
        prepare_soc_inner(soc, costs, tpg, opts)
    };
    rec.end(span);
    let metrics = PrepareMetrics::from_recorder(rec).since(&before);
    result.map(|prepared| (prepared, metrics))
}

/// The pipeline body. Runs with the caller's recorder installed as the
/// thread's sink, so every stage records straight into it.
fn prepare_soc_inner(
    soc: &Soc,
    costs: &DftCosts,
    tpg: &TpgConfig,
    opts: &PrepareOptions,
) -> Result<PreparedSoc, PrepareError> {
    let groups = group_by_core(soc, costs, tpg);
    let cache_dir = opts.cache_dir.as_deref();

    // Groups are ordered by their first instance, so the first group that
    // fails names the same instance the uncached flow would report.
    let results = groups
        .iter()
        .map(|g| {
            prepare_unique(g.core, costs, tpg, cache_dir.map(|d| (d, g.fp))).map_err(|source| {
                let i = g.instances[0];
                PrepareError {
                    core: CoreInstanceId::from_index(i),
                    name: soc.cores()[i].name().to_owned(),
                    source,
                }
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut by_instance: Vec<Option<usize>> = vec![None; soc.cores().len()];
    for (gi, g) in groups.iter().enumerate() {
        for &i in &g.instances {
            by_instance[i] = Some(gi);
        }
    }

    let n = soc.cores().len();
    let mut data = Vec::with_capacity(n);
    let mut netlists = Vec::with_capacity(n);
    let mut tests = Vec::with_capacity(n);
    for gi in by_instance {
        match gi {
            Some(gi) => {
                let artifact = &results[gi];
                data.push(Some(artifact.data.clone()));
                netlists.push(Some(artifact.netlist.clone()));
                tests.push(Some(artifact.tests.clone()));
            }
            None => {
                data.push(None);
                netlists.push(None);
                tests.push(None);
            }
        }
    }
    Ok(PreparedSoc {
        data,
        netlists,
        tests,
    })
}

/// The plain flow, one [`prepare_core`] per logic instance with no memo
/// and no disk store — the oracle the pipeline's
/// equivalence tests compare against.
///
/// # Errors
///
/// Returns the [`PrepareError`] for the first failing instance.
pub fn prepare_soc_uncached(
    soc: &Soc,
    costs: &DftCosts,
    tpg: &TpgConfig,
) -> Result<PreparedSoc, PrepareError> {
    let n = soc.cores().len();
    let mut data = Vec::with_capacity(n);
    let mut netlists = Vec::with_capacity(n);
    let mut tests = Vec::with_capacity(n);
    for (i, inst) in soc.cores().iter().enumerate() {
        if inst.is_memory() {
            data.push(None);
            netlists.push(None);
            tests.push(None);
            continue;
        }
        let (d, nl, t) = prepare_core(inst.core(), costs, tpg).map_err(|source| PrepareError {
            core: CoreInstanceId::from_index(i),
            name: inst.name().to_owned(),
            source,
        })?;
        data.push(Some(d));
        netlists.push(Some(nl));
        tests.push(Some(t));
    }
    Ok(PreparedSoc {
        data,
        netlists,
        tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_rtl::SocBuilder;
    use std::sync::Arc;

    fn light_tpg() -> TpgConfig {
        TpgConfig {
            random_patterns: 16,
            max_backtracks: 32,
            ..TpgConfig::default()
        }
    }

    #[test]
    fn gcd_core_prepares_cleanly() {
        let core = socet_socs::gcd_core();
        let tpg = TpgConfig {
            random_patterns: 32,
            max_backtracks: 128,
            ..TpgConfig::default()
        };
        let (data, nl, tests) = prepare_core(&core, &DftCosts::default(), &tpg).unwrap();
        assert_eq!(data.versions.len(), 3);
        assert!(nl.flip_flop_count() > 0);
        assert!(tests.coverage.fault_coverage() > 60.0, "{}", tests.coverage);
        assert_eq!(data.scan_vectors, tests.vector_count());
    }

    #[test]
    fn prepared_system2_has_all_logic_cores() {
        let soc = socet_socs::system2();
        let (prepared, _) = prepare_soc_with(
            &soc,
            &DftCosts::default(),
            &light_tpg(),
            &PrepareOptions::default(),
        )
        .unwrap();
        assert_eq!(prepared.data.iter().flatten().count(), 3);
        assert!(prepared.aggregate_coverage().total > 0);
        let lib = CellLibrary::generic_08um();
        assert!(prepared.original_area_cells(&lib) > 500);
        assert!(prepared.hscan_overhead_cells(&lib) > 0);
        assert_eq!(prepared.vectors().len(), 3);
    }

    /// A SOC carrying two instances of one shared core plus a memory —
    /// the shape the artifact memo exists for.
    fn twin_soc() -> Soc {
        let gcd = Arc::new(socet_socs::gcd_core());
        let mem = Arc::new(socet_socs::memory_core("ram", 8, 8));
        let port = |n: &str| gcd.find_port(n).unwrap();
        let mut b = SocBuilder::new("twin");
        let x = b.input_pin("X", 12).unwrap();
        let g = b.output_pin("G", 12).unwrap();
        let addr = b.input_pin("Addr", 8).unwrap();
        let a = b.instantiate("gcd_a", Arc::clone(&gcd)).unwrap();
        let c = b.instantiate("gcd_b", Arc::clone(&gcd)).unwrap();
        let m = b.instantiate_memory("ram", Arc::clone(&mem)).unwrap();
        b.connect_pin_to_core(x, a, port("X")).unwrap();
        b.connect_cores(a, port("G"), c, port("Y")).unwrap();
        b.connect_core_to_pin(c, port("G"), g).unwrap();
        b.connect_pin_to_core(addr, m, mem.find_port("Addr").unwrap())
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn repeated_instances_share_one_preparation() {
        let soc = twin_soc();
        let (prepared, m) = prepare_soc_with(
            &soc,
            &DftCosts::default(),
            &light_tpg(),
            &PrepareOptions::default(),
        )
        .unwrap();
        // Counted once, used twice.
        assert_eq!(m.instances, 2);
        assert_eq!(m.unique_cores, 1);
        assert_eq!(m.memo_hits, 1);
        // Both instances carry the same artifact, byte for byte.
        let a = prepared.artifact_bytes(0).unwrap();
        let b = prepared.artifact_bytes(1).unwrap();
        assert_eq!(a, b);
        assert!(prepared.artifact_bytes(2).is_none(), "memory core");
        // ...and identical to what the memo-free serial flow computes.
        let oracle = prepare_soc_uncached(&soc, &DftCosts::default(), &light_tpg()).unwrap();
        assert_eq!(a, oracle.artifact_bytes(0).unwrap());
    }

    #[test]
    fn aggregate_coverage_counts_each_physical_instance() {
        let soc = twin_soc();
        let (prepared, _) = prepare_soc_with(
            &soc,
            &DftCosts::default(),
            &light_tpg(),
            &PrepareOptions::default(),
        )
        .unwrap();
        let single = prepared.tests[0].as_ref().unwrap().coverage;
        let agg = prepared.aggregate_coverage();
        // Two physical copies of the core: double the population, double
        // the detections — sharing the prepared artifact must not halve
        // the chip-level accounting.
        assert_eq!(agg.total, 2 * single.total);
        assert_eq!(agg.detected, 2 * single.detected);
        assert!(agg.total > 0);
        assert_eq!(agg.fault_coverage(), single.fault_coverage());
    }

    #[test]
    fn structural_twins_behind_different_arcs_still_memoize() {
        // Two separately built (pointer-distinct) but identical cores must
        // fall into one group via the fingerprint + structural check.
        let first = Arc::new(socet_socs::gcd_core());
        let second = Arc::new(socet_socs::gcd_core());
        let port = |n: &str| first.find_port(n).unwrap();
        let mut b = SocBuilder::new("twins");
        let x = b.input_pin("X", 12).unwrap();
        let g = b.output_pin("G", 12).unwrap();
        let a = b.instantiate("a", first.clone()).unwrap();
        let c = b.instantiate("b", second).unwrap();
        b.connect_pin_to_core(x, a, port("X")).unwrap();
        b.connect_cores(a, port("G"), c, port("Y")).unwrap();
        b.connect_core_to_pin(c, port("G"), g).unwrap();
        let soc = b.build().unwrap();
        let (_, m) = prepare_soc_with(
            &soc,
            &DftCosts::default(),
            &light_tpg(),
            &PrepareOptions::default(),
        )
        .unwrap();
        assert_eq!(m.unique_cores, 1);
        assert_eq!(m.memo_hits, 1);
    }

    #[test]
    fn prepare_error_names_the_instance() {
        // No CoreBuilder-constructible core makes `elaborate` return an
        // error today (its failure modes guard builder misuse), so pin the
        // error type's contract directly: Display names the instance, the
        // gate-level cause stays reachable through `Error::source`.
        let e = PrepareError {
            core: CoreInstanceId::from_index(3),
            name: "dsp_1".to_owned(),
            source: GateError::NoOutputs,
        };
        let shown = e.to_string();
        assert!(shown.contains("dsp_1"), "{shown}");
        assert!(shown.contains("#3"), "{shown}");
        assert!(shown.contains("no outputs"), "{shown}");
        let src = std::error::Error::source(&e).expect("source is chained");
        assert_eq!(src.to_string(), GateError::NoOutputs.to_string());
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let core = socet_socs::gcd_core();
        let costs = DftCosts::default();
        let tpg = light_tpg();
        let base = artifact_fingerprint(&core, &costs, &tpg);
        assert_eq!(base, artifact_fingerprint(&core, &costs, &tpg));
        let other_tpg = TpgConfig {
            random_patterns: tpg.random_patterns + 1,
            ..tpg
        };
        assert_ne!(base, artifact_fingerprint(&core, &costs, &other_tpg));
        let other_costs = DftCosts {
            hscan_test_mux_per_bit: costs.hscan_test_mux_per_bit + 1,
            ..costs
        };
        assert_ne!(base, artifact_fingerprint(&core, &other_costs, &tpg));
        assert_ne!(
            base,
            artifact_fingerprint(&socet_socs::x25_core(), &costs, &tpg)
        );
    }

    #[test]
    fn disk_store_round_trips_and_rejects_anomalies() {
        let dir = std::env::temp_dir().join(format!("socet-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let core = socet_socs::gcd_core();
        let costs = DftCosts::default();
        let tpg = light_tpg();
        let fp = artifact_fingerprint(&core, &costs, &tpg);
        let artifact = prepare_unique(&core, &costs, &tpg, None).unwrap();
        assert!(load_artifact(&dir, fp).is_none(), "cold store");
        assert!(store_artifact(&dir, fp, &artifact));
        let back = load_artifact(&dir, fp).expect("warm store");
        let (mut ea, mut eb) = (Enc::new(), Enc::new());
        encode_artifact(&artifact, &mut ea);
        encode_artifact(&back, &mut eb);
        assert_eq!(ea.bytes(), eb.bytes(), "decode inverts encode exactly");
        // A torn write (truncated payload) must read as a miss.
        let path = store_path(&dir, fp);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(load_artifact(&dir, fp).is_none(), "torn entry is a miss");
        // A different fingerprint never resolves to this entry.
        fs::write(&path, &bytes).unwrap();
        assert!(load_artifact(&dir, Fingerprint(fp.0 ^ 1)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_writers_leave_a_loadable_entry() {
        // Two writers racing to store the same fingerprint (two processes
        // or two threads warming one cache) must each publish their own
        // fully written temporary — whichever rename lands last, the entry
        // loads. With a shared `<fp>.tmp` name, writer B could rename
        // writer A's half-written file into place.
        let dir = std::env::temp_dir().join(format!("socet-store-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let core = socet_socs::gcd_core();
        let costs = DftCosts::default();
        let tpg = light_tpg();
        let fp = artifact_fingerprint(&core, &costs, &tpg);
        let artifact = prepare_unique(&core, &costs, &tpg, None).unwrap();
        for round in 0..8 {
            std::thread::scope(|s| {
                let a = s.spawn(|| store_artifact(&dir, fp, &artifact));
                let b = s.spawn(|| store_artifact(&dir, fp, &artifact));
                assert!(a.join().unwrap(), "round {round}: writer a");
                assert!(b.join().unwrap(), "round {round}: writer b");
            });
            assert!(
                load_artifact(&dir, fp).is_some(),
                "round {round}: surviving entry must load"
            );
        }
        // No stranded temporaries: every tmp either renamed or was removed.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stranded temporaries: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
