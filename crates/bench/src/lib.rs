//! # bench — reproduction binaries and performance benchmarks
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation (see DESIGN.md for the per-experiment index); the
//! benchmark in `benches/throughput.rs` measures generator/emulator/campaign
//! throughput, including how campaign wall-clock scales with the worker
//! count of the `fuzz_harness::exec` scheduler.
//!
//! Every table binary accepts `--threads N` to pin the scheduler's worker
//! count (default: `FUZZ_THREADS` or the machine's available parallelism;
//! `N` must be at least 1 — a zero-worker pool could never drain its queue)
//! and `--pipeline` to run campaign jobs as overlapping
//! generate → execute → judge stages (default: `FUZZ_PIPELINE`, else whole
//! jobs).  Neither flag ever changes the produced tables — only how fast
//! they appear.
//!
//! The campaign binaries (`table1`, `table3`, `table4`, `table5`)
//! additionally speak the shard/journal layer:
//!
//! * `--shard I/N` runs shard `I` of an `N`-way split of the campaign's
//!   job space (any subset of shards is independently computable — on any
//!   machine — because job seeds derive from the job index);
//! * `--journal PATH` records every completed job to a resumable journal;
//! * `--resume` skips the jobs already in the journal (a half-written
//!   record from a mid-write kill is detected by checksum and dropped);
//! * `<binary> merge J1 [J2 ...]` refolds any subset of shard journals
//!   into the (full or partial) table without re-running anything.
//!
//! Every table binary also speaks the cross-campaign outcome store:
//! `--store PATH` points executions at an on-disk outcome cache shared
//! across runs (and across concurrent shard processes), `--no-store`
//! disables it, and neither flag defers to the `CLFUZZ_STORE` environment
//! variable.  Like the scheduler flags, the store never changes the
//! produced tables — only how fast repeat executions resolve.
//!
//! Tables go to stdout; shard/resume/merge progress lines go to stderr, so
//! merged outputs can be diffed byte for byte.

pub mod fleet;

use std::path::PathBuf;
use std::sync::Arc;

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{JournalOptions, RefoldSummary, ShardMetrics, ShardSelect};
use fuzz_harness::{Scheduler, SchedulerMode};
use opencl_sim::{ExecOptions, OutcomeStore};

/// Command-line options shared by the table binaries.
pub struct Cli {
    /// Positional arguments (after flags are extracted).
    pub positional: Vec<String>,
    /// The scheduler campaigns run on (`--threads N`, `FUZZ_THREADS`, or
    /// the machine's available parallelism).
    pub scheduler: Scheduler,
    /// Whether `--paper-scale` was given: generate kernels at the paper's
    /// scale (100–10 000 work-items, full permutation tables) instead of
    /// the fast emulation-friendly default.
    pub paper_scale: bool,
    /// Which shard of the campaign's job space to run (`--shard I/N`;
    /// defaults to the whole space).
    pub shard: ShardSelect,
    /// Journal path (`--journal PATH`).
    pub journal: Option<PathBuf>,
    /// Whether `--resume` was given (requires `--journal`).
    pub resume: bool,
    /// Journal paths of the `merge` subcommand, when invoked as
    /// `<binary> merge J1 [J2 ...]`.
    pub merge: Option<Vec<PathBuf>>,
    /// Cross-campaign outcome store directory (`--store PATH`; defaults to
    /// `CLFUZZ_STORE` when unset).
    pub store: Option<PathBuf>,
    /// Whether `--no-store` was given: run without an outcome store even
    /// when `CLFUZZ_STORE` is set.
    pub no_store: bool,
    /// Fleet-mode flags, used by the `coordinate` and `worker` subcommands.
    pub fleet: FleetCliOptions,
}

/// Flags of the fleet subcommands (`coordinate` spawns `worker` children;
/// see the `fleet` module).
#[derive(Debug, Clone)]
pub struct FleetCliOptions {
    /// Worker processes the coordinator keeps alive (`--workers N`).
    pub workers: usize,
    /// Jobs per lease (`--lease-jobs N`).
    pub lease_jobs: u64,
    /// Journal-growth liveness timeout in milliseconds
    /// (`--lease-timeout-ms N`).
    pub lease_timeout_ms: u64,
    /// Re-lease attempts before a range is quarantined (`--max-retries N`).
    pub max_retries: u32,
    /// Jobs between journal checkpoints in lease workers
    /// (`--checkpoint-every N`).
    pub checkpoint_every: u64,
    /// Directory for lease journals and fleet logs (`--fleet-dir PATH`;
    /// required by `coordinate`).
    pub fleet_dir: Option<PathBuf>,
    /// Fault-injection spec (`--faults SPEC`; `CLFUZZ_FAULTS` overrides).
    pub faults: Option<String>,
    /// Whether `--follow` was given: stream fleet events to stderr live.
    pub follow: bool,
}

impl Default for FleetCliOptions {
    fn default() -> FleetCliOptions {
        FleetCliOptions {
            workers: 2,
            lease_jobs: 8,
            lease_timeout_ms: 30_000,
            max_retries: 3,
            checkpoint_every: 16,
            fleet_dir: None,
            faults: None,
            follow: false,
        }
    }
}

impl Cli {
    /// The scale positional at `index` (kernels per mode, bases, variants,
    /// ...), or `default` when it is absent; exits through [`usage_error`]
    /// when it is not a non-negative integer (see [`parse_scale`]).
    pub fn scale_arg(&self, index: usize, name: &str, default: usize) -> usize {
        parse_scale(
            name,
            self.positional.get(index).map(String::as_str),
            default,
        )
        .unwrap_or_else(|e| usage_error(e))
    }

    /// The base generator options selected by the flags: the paper's
    /// generation scale under `--paper-scale`, otherwise the given fast
    /// default.  Mode and seed are overridden per kernel by the campaign
    /// drivers either way.
    pub fn generator_or(&self, fast_default: GeneratorOptions) -> GeneratorOptions {
        if self.paper_scale {
            GeneratorOptions::paper_scale(GenMode::All, 0)
        } else {
            fast_default
        }
    }

    /// The shard executor's journal configuration implied by `--journal` /
    /// `--resume`.
    pub fn journal_options(&self) -> Option<JournalOptions> {
        self.journal.as_ref().map(|path| JournalOptions {
            path: path.clone(),
            resume: self.resume,
        })
    }

    /// Whether this run covers only part of the job space (so the printed
    /// table is partial).
    pub fn is_sharded(&self) -> bool {
        self.shard.count > 1
    }

    /// The execution options selected by the store flags: `--store PATH`
    /// opens (creating if needed) an explicit outcome store, `--no-store`
    /// disables the store even when `CLFUZZ_STORE` is set, and neither flag
    /// defers to the environment default.  The store never changes the
    /// produced tables — only how fast repeat executions resolve.
    pub fn exec_options(&self) -> ExecOptions {
        let mut exec = ExecOptions::default();
        if self.no_store {
            exec.store = None;
        } else if let Some(path) = &self.store {
            match OutcomeStore::open(path) {
                Ok(store) => exec.store = Some(Arc::new(store)),
                Err(e) => fail(format!("--store {}: {e}", path.display())),
            }
        }
        exec
    }
}

/// Prints a parse/validation error and exits with status 2.
pub fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Prints a campaign/journal error and exits with status 1.
pub fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

/// Reports a sharded run's resume/journal metrics on stderr (stdout is
/// reserved for the table, which merge outputs diff byte for byte).
pub fn report_shard_metrics(cli: &Cli, metrics: &ShardMetrics) {
    if cli.journal.is_none() && !cli.is_sharded() {
        return;
    }
    eprintln!(
        "shard {} ({} scheduler): {} job(s) resumed from the journal, {} executed, journal {} byte(s){}",
        cli.shard,
        cli.scheduler.mode().name(),
        metrics.jobs_resumed,
        metrics.jobs_replayed,
        metrics.journal_bytes,
        if metrics.dropped_bytes > 0 {
            format!(", {} corrupt tail byte(s) dropped", metrics.dropped_bytes)
        } else {
            String::new()
        }
    );
}

/// Reports the outcome store's counters on stderr (stdout is reserved for
/// the table, which store-warm re-runs diff byte for byte).  No-op when no
/// store is configured.
pub fn report_store_stats(exec: &ExecOptions) {
    if let Some(store) = &exec.store {
        let stats = store.stats();
        eprintln!(
            "store {}: {} hit(s), {} miss(es), {} write(s), {} eviction(s), {} byte(s), hit rate {:.2}{}",
            store.dir().display(),
            stats.hits,
            stats.misses,
            stats.writes,
            stats.evictions,
            stats.bytes,
            stats.hit_rate(),
            if stats.transient_errors > 0 || stats.corrupt_entries > 0 {
                format!(
                    ", {} transient error(s), {} corrupt entrie(s) deleted",
                    stats.transient_errors, stats.corrupt_entries
                )
            } else {
                String::new()
            }
        );
    }
}

/// Reports what a `merge` covered on stderr.
pub fn report_refold_summary(summary: &RefoldSummary) {
    eprintln!(
        "merged {} journal(s): {}/{} job(s) of campaign {:?} (seed {:016x}){}",
        summary.journals,
        summary.jobs_folded,
        summary.total_jobs,
        summary.campaign,
        summary.campaign_seed,
        if summary.complete {
            " — complete".to_string()
        } else {
            " — PARTIAL table".to_string()
        }
    );
}

/// Parses a `--threads` argument value: a positive integer (zero is
/// rejected — a zero-worker scheduler could never drain its queue, so the
/// historical "accept 0, build a stuck pool" behaviour is now an error).
pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
    match value.map(str::parse::<usize>) {
        Some(Ok(0)) => Err("--threads must be at least 1 (got 0); \
             omit the flag to use every core"
            .to_string()),
        Some(Ok(n)) => Ok(n),
        _ => Err(format!(
            "--threads requires a positive integer, got {:?}",
            value.unwrap_or("nothing")
        )),
    }
}

/// Parses a scale positional: `default` when absent, otherwise a
/// non-negative integer.  A value that does not parse is an error rather
/// than a silent fall-back to the default, like [`parse_threads`].
pub fn parse_scale(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} requires a non-negative integer, got {v:?}")),
    }
}

/// Validates the store flag combination: at most one of `--store PATH` and
/// `--no-store`, and the path (when given) must be non-empty.  Pure so the
/// conflict handling is unit-testable like [`parse_threads`].
pub fn resolve_store(store: Option<&str>, no_store: bool) -> Result<Option<PathBuf>, String> {
    match (store, no_store) {
        (Some(_), true) => {
            Err("--store PATH conflicts with --no-store; pass at most one".to_string())
        }
        (Some(""), false) => Err("--store requires a non-empty path".to_string()),
        (Some(path), false) => Ok(Some(PathBuf::from(path))),
        (None, _) => Ok(None),
    }
}

/// Parses the command-line arguments shared by the table binaries:
/// extracts `--threads N` (or `--threads=N`), `--pipeline`, `--paper-scale`,
/// `--shard I/N`, `--journal PATH`, `--resume`, `--store PATH` and
/// `--no-store`, recognises the `merge` subcommand, and returns them with
/// the remaining positional arguments.
pub fn cli() -> Cli {
    let mut positional = Vec::new();
    let mut threads: Option<usize> = None;
    let mut pipeline = false;
    let mut paper_scale = false;
    let mut shard = ShardSelect::whole();
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut store: Option<String> = None;
    let mut no_store = false;
    let mut fleet = FleetCliOptions::default();
    let parse = |value: Option<String>| -> usize {
        parse_threads(value.as_deref()).unwrap_or_else(|e| usage_error(e))
    };
    fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
        match value.as_deref().map(str::parse) {
            Some(Ok(n)) => n,
            _ => usage_error(format!(
                "{flag} requires a number, got {:?}",
                value.unwrap_or_default()
            )),
        }
    }
    let parse_shard = |value: Option<String>| -> ShardSelect {
        match value.as_deref().map(ShardSelect::parse) {
            Some(Ok(s)) => s,
            Some(Err(e)) => usage_error(e),
            None => usage_error("--shard requires an I/N argument"),
        }
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            threads = Some(parse(args.next()));
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            threads = Some(parse(Some(value.to_string())));
        } else if arg == "--pipeline" {
            pipeline = true;
        } else if arg == "--paper-scale" {
            paper_scale = true;
        } else if arg == "--shard" {
            shard = parse_shard(args.next());
        } else if let Some(value) = arg.strip_prefix("--shard=") {
            shard = parse_shard(Some(value.to_string()));
        } else if arg == "--journal" {
            match args.next() {
                Some(path) => journal = Some(PathBuf::from(path)),
                None => usage_error("--journal requires a path"),
            }
        } else if let Some(value) = arg.strip_prefix("--journal=") {
            journal = Some(PathBuf::from(value));
        } else if arg == "--resume" {
            resume = true;
        } else if arg == "--store" {
            match args.next() {
                Some(path) => store = Some(path),
                None => usage_error("--store requires a path"),
            }
        } else if let Some(value) = arg.strip_prefix("--store=") {
            store = Some(value.to_string());
        } else if arg == "--no-store" {
            no_store = true;
        } else if arg == "--workers" {
            fleet.workers = parse_num("--workers", args.next());
        } else if let Some(value) = arg.strip_prefix("--workers=") {
            fleet.workers = parse_num("--workers", Some(value.to_string()));
        } else if arg == "--lease-jobs" {
            fleet.lease_jobs = parse_num("--lease-jobs", args.next());
        } else if let Some(value) = arg.strip_prefix("--lease-jobs=") {
            fleet.lease_jobs = parse_num("--lease-jobs", Some(value.to_string()));
        } else if arg == "--lease-timeout-ms" {
            fleet.lease_timeout_ms = parse_num("--lease-timeout-ms", args.next());
        } else if let Some(value) = arg.strip_prefix("--lease-timeout-ms=") {
            fleet.lease_timeout_ms = parse_num("--lease-timeout-ms", Some(value.to_string()));
        } else if arg == "--max-retries" {
            fleet.max_retries = parse_num("--max-retries", args.next());
        } else if let Some(value) = arg.strip_prefix("--max-retries=") {
            fleet.max_retries = parse_num("--max-retries", Some(value.to_string()));
        } else if arg == "--checkpoint-every" {
            fleet.checkpoint_every = parse_num("--checkpoint-every", args.next());
        } else if let Some(value) = arg.strip_prefix("--checkpoint-every=") {
            fleet.checkpoint_every = parse_num("--checkpoint-every", Some(value.to_string()));
        } else if arg == "--fleet-dir" {
            match args.next() {
                Some(path) => fleet.fleet_dir = Some(PathBuf::from(path)),
                None => usage_error("--fleet-dir requires a path"),
            }
        } else if let Some(value) = arg.strip_prefix("--fleet-dir=") {
            fleet.fleet_dir = Some(PathBuf::from(value));
        } else if arg == "--faults" {
            match args.next() {
                Some(spec) => fleet.faults = Some(spec),
                None => usage_error("--faults requires a spec (e.g. kill@3,torn@5)"),
            }
        } else if let Some(value) = arg.strip_prefix("--faults=") {
            fleet.faults = Some(value.to_string());
        } else if arg == "--follow" {
            fleet.follow = true;
        } else {
            positional.push(arg);
        }
    }
    if fleet.workers == 0 {
        usage_error("--workers must be at least 1");
    }
    if fleet.lease_jobs == 0 {
        usage_error("--lease-jobs must be at least 1");
    }
    if fleet.checkpoint_every == 0 {
        usage_error("--checkpoint-every must be at least 1");
    }
    let store = resolve_store(store.as_deref(), no_store).unwrap_or_else(|e| usage_error(e));
    let merge = if positional.first().map(String::as_str) == Some("merge") {
        let paths: Vec<PathBuf> = positional[1..].iter().map(PathBuf::from).collect();
        if paths.is_empty() {
            usage_error("merge requires at least one journal path");
        }
        Some(paths)
    } else {
        None
    };
    if resume && journal.is_none() {
        usage_error("--resume requires --journal PATH");
    }
    if merge.is_some() && (journal.is_some() || resume || shard.count > 1) {
        usage_error("merge takes only journal paths (no --shard/--journal/--resume)");
    }
    // `--threads N` pins the worker count but still honours `FUZZ_PIPELINE`;
    // `--pipeline` then forces the pipelined mode either way.
    let mut scheduler = threads
        .map(|n| Scheduler::new(n).with_mode(SchedulerMode::from_env()))
        .unwrap_or_else(Scheduler::from_env);
    if pipeline {
        scheduler = scheduler.with_mode(SchedulerMode::Pipelined);
    }
    Cli {
        positional: if merge.is_some() {
            Vec::new()
        } else {
            positional
        },
        scheduler,
        paper_scale,
        shard,
        journal,
        resume,
        merge,
        store,
        no_store,
        fleet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_argument_rejects_zero_and_garbage() {
        assert_eq!(parse_threads(Some("1")), Ok(1));
        assert_eq!(parse_threads(Some("16")), Ok(16));
        assert!(parse_threads(Some("0")).unwrap_err().contains("at least 1"));
        assert!(parse_threads(Some("-3")).is_err());
        assert!(parse_threads(Some("two")).is_err());
        assert!(parse_threads(None).is_err());
    }

    #[test]
    fn scale_arguments_default_when_absent_and_reject_garbage() {
        assert_eq!(parse_scale("kernels", None, 20), Ok(20));
        assert_eq!(parse_scale("kernels", Some("3"), 20), Ok(3));
        assert_eq!(parse_scale("kernels", Some("0"), 20), Ok(0));
        let err = parse_scale("kernels", Some("abc"), 20).unwrap_err();
        assert!(
            err.contains("kernels") && err.contains("\"abc\""),
            "got: {err}"
        );
        assert!(parse_scale("kernels", Some("-1"), 20).is_err());
        assert!(parse_scale("kernels", Some("2.5"), 20).is_err());
        assert!(parse_scale("kernels", Some(""), 20).is_err());
    }

    #[test]
    fn store_flags_reject_conflicts_and_empty_paths() {
        assert_eq!(resolve_store(None, false), Ok(None));
        assert_eq!(resolve_store(None, true), Ok(None));
        assert_eq!(
            resolve_store(Some("/tmp/store"), false),
            Ok(Some(PathBuf::from("/tmp/store")))
        );
        let conflict = resolve_store(Some("/tmp/store"), true).unwrap_err();
        assert!(conflict.contains("--no-store"), "got: {conflict}");
        assert!(resolve_store(Some(""), false)
            .unwrap_err()
            .contains("non-empty"));
    }
}
