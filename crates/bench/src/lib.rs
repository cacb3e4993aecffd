//! # bench — the reproduction binaries
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation.  Their performance is measured by the separate
//! `campaign-bench` package at the repository root, which runs whole
//! campaigns through the same entry points.
//!
//! Every table binary accepts `--threads N` to pin the scheduler's worker
//! count (default: the machine's available parallelism; `N` must be at
//! least 1 — a zero-worker pool could never drain its queue).  The worker
//! count never changes the produced tables — only how fast they appear.
//!
//! The campaign binaries (`table1`, `table3`, `table4`, `table5`) each
//! implement [`Table`] for their `fuzz_harness::Campaign`, and [`run`]
//! gives them all the same surface:
//!
//! * a plain run of the whole campaign;
//! * `--shard I/N` runs shard `I` of an `N`-way split of the campaign's
//!   job space (any subset of shards is independently computable — on any
//!   machine — because job seeds derive from the job index);
//! * `--journal PATH` records every completed job to a resumable journal;
//! * `--resume` skips the jobs already in the journal (a half-written
//!   record from a mid-write kill is detected by checksum and dropped);
//! * `<binary> merge J1 [J2 ...]` merges any subset of shard or lease
//!   journals into the (full or partial) table without re-running anything;
//! * `<binary> coordinate …` runs the campaign as a crash-tolerant fleet
//!   of `<binary> worker` processes, which rebuild it from the header the
//!   coordinator writes into the fleet directory (see [`fleet`]).
//!
//! Every table binary also speaks the cross-campaign outcome store:
//! `--store PATH` points executions at an on-disk outcome cache shared
//! across runs (and across concurrent shard processes), `--no-store`
//! disables it, and neither flag defers to the `CLFUZZ_STORE` environment
//! variable (`CLFUZZ_STORE_CAP` sets its size cap in bytes; a value that is
//! not a byte count is a usage error whenever a store would be opened).
//! These two variables are read here, in [`Cli::exec_options`], and nowhere
//! in the libraries.  Like the worker count, the store never changes the
//! produced tables — only how fast repeat executions resolve.
//!
//! Tables go to stdout; shard/resume/merge progress lines go to stderr, so
//! merged outputs can be diffed byte for byte.

pub mod fleet;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{JournalOptions, RefoldSummary, ShardMetrics, ShardSelect};
use fuzz_harness::{merge, run_shard, Campaign, JournalError, Scheduler};
use opencl_sim::{Configuration, ExecOptions, OutcomeStore};

/// A campaign binary: how it builds its [`Campaign`] from the command line
/// and renders the table a tally denotes.  [`run`] does the rest.
pub trait Table {
    /// The campaign the binary runs.
    type Campaign: Campaign;
    /// How many scale positionals the binary takes (kernels per mode,
    /// bases, ...); a run given more is a usage error.
    const SCALE_ARGS: usize;
    /// The configurations the table covers; merges and fleet workers
    /// parse journal headers against them.
    fn configs() -> Vec<Configuration>;
    /// Builds the campaign from the scale positionals of `cli` (any
    /// `coordinate` subcommand already removed).
    fn build(cli: &Cli, configs: &[Configuration], exec: ExecOptions) -> Self::Campaign;
    /// Renders the (full or partial) table of `tally`.
    fn render(
        campaign: &Self::Campaign,
        tally: &<Self::Campaign as Campaign>::Tally,
        source: Source<'_>,
    ) -> String;
}

/// Where a rendered tally came from.
pub enum Source<'a> {
    /// This process ran the campaign (or `--shard` of it), covering `jobs`
    /// jobs.
    Run {
        /// The run's command line.
        cli: &'a Cli,
        /// Jobs the tally covers (resumed and executed).
        jobs: u64,
    },
    /// Journals were merged.
    Merged(&'a RefoldSummary),
}

/// The whole command-line surface of a campaign binary: a plain or
/// `--shard`/`--journal`/`--resume` run, `merge`, `coordinate` and
/// `worker`.  Tables go to stdout, progress to stderr.
pub fn run<T: Table>() {
    let mut cli = cli();
    let configs = T::configs();
    if let Some(paths) = &cli.merge {
        let (table, summary) = merged_table::<T>(paths, &configs).unwrap_or_else(|e| fail(e));
        report_refold_summary(&summary);
        print!("{table}");
        return;
    }
    let role = match cli.positional.first().map(String::as_str) {
        Some("coordinate" | "worker") => Some(cli.positional.remove(0)),
        _ => None,
    };
    if role.as_deref() == Some("worker") {
        fleet::worker_loop::<T>(&cli, &configs);
    }
    if let Some(extra) = cli.positional.get(T::SCALE_ARGS) {
        usage_error(format!(
            "unexpected argument {extra:?}: this binary takes at most {} scale argument(s), \
             and merge, coordinate and worker only come first",
            T::SCALE_ARGS
        ));
    }
    let exec = cli.exec_options();
    let campaign = T::build(&cli, &configs, exec.clone());
    if role.is_some() {
        fleet::coordinate::<T>(&cli, &campaign, &configs);
    }
    let journal = cli.journal_options();
    let run = run_shard(&cli.scheduler, &campaign, cli.shard, journal.as_ref())
        .unwrap_or_else(|e| fail(e));
    report_shard_metrics(&cli, &run.metrics);
    report_store_stats(&exec);
    let source = Source::Run {
        cli: &cli,
        jobs: run.jobs,
    };
    print!("{}", T::render(&campaign, &run.aggregate, source));
}

/// Merges `paths` and renders the table — what `merge` prints, and what a
/// coordinator prints after its fleet finishes.
pub fn merged_table<T: Table>(
    paths: &[PathBuf],
    configs: &[Configuration],
) -> Result<(String, RefoldSummary), JournalError> {
    let (campaign, tally, summary) = merge::<T::Campaign>(paths, configs)?;
    let table = T::render(&campaign, &tally, Source::Merged(&summary));
    Ok((table, summary))
}

/// Command-line options shared by the table binaries.
pub struct Cli {
    /// Positional arguments (after flags are extracted).
    pub positional: Vec<String>,
    /// The scheduler campaigns run on (`--threads N`, or the machine's
    /// available parallelism).
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
    /// Directory for the campaign header, lease journals and fleet logs
    /// (`--fleet-dir PATH`; required by `coordinate` and `worker`).
    pub fleet_dir: Option<PathBuf>,
    /// Fault-injection spec (`--faults SPEC`).
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
    /// generation scale under `--paper-scale`, otherwise the fast default of
    /// 16 to `max_threads` work-items.  Mode and seed are overridden per
    /// kernel by the campaign drivers either way.
    pub fn generator(&self, max_threads: usize) -> GeneratorOptions {
        if self.paper_scale {
            return GeneratorOptions::paper_scale(GenMode::All, 0);
        }
        GeneratorOptions {
            min_threads: 16,
            max_threads,
            ..GeneratorOptions::default()
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
    /// defers to `CLFUZZ_STORE` (a path that cannot be opened prints one
    /// warning and runs without a store).  `CLFUZZ_STORE_CAP` caps either
    /// store in bytes (default 256 MiB); a value that is not a byte count
    /// exits through [`usage_error`] before the store is opened.  The store
    /// never changes the produced tables — only how fast repeat executions
    /// resolve.
    pub fn exec_options(&self) -> ExecOptions {
        let env = |name| std::env::var(name).ok().filter(|v| !v.is_empty());
        let open = |path: &Path| match env("CLFUZZ_STORE_CAP") {
            Some(cap) => {
                let cap = cap.parse().unwrap_or_else(|_| {
                    usage_error(format!(
                        "CLFUZZ_STORE_CAP must be a byte count, got {cap:?}"
                    ))
                });
                OutcomeStore::open_with_cap(path, cap)
            }
            None => OutcomeStore::open(path),
        };
        let store = if self.no_store {
            None
        } else if let Some(path) = &self.store {
            let store =
                open(path).unwrap_or_else(|e| fail(format!("--store {}: {e}", path.display())));
            Some(store)
        } else if let Some(path) = env("CLFUZZ_STORE") {
            open(Path::new(&path))
                .map_err(|e| eprintln!("warning: CLFUZZ_STORE={path}: {e}; outcome store disabled"))
                .ok()
        } else {
            None
        };
        ExecOptions {
            store: store.map(Arc::new),
            ..ExecOptions::default()
        }
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
        "shard {}: {} job(s) resumed from the journal, {} executed, journal {} byte(s){}",
        cli.shard,
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
/// extracts `--threads N`, `--paper-scale`, `--shard I/N`, `--journal PATH`,
/// `--resume`, `--store PATH`, `--no-store` and the fleet flags (each valued
/// flag also as `--flag=V`), recognises the `merge` subcommand, and returns
/// them with the remaining positional arguments.  Any other `--flag` is a
/// usage error.
pub fn cli() -> Cli {
    let mut positional = Vec::new();
    let mut threads: Option<usize> = None;
    let mut paper_scale = false;
    let mut shard = ShardSelect::whole();
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut store: Option<String> = None;
    let mut no_store = false;
    let mut fleet = FleetCliOptions::default();
    fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
        match value.as_deref().map(str::parse) {
            Some(Ok(n)) => n,
            _ => usage_error(format!(
                "{flag} requires a number, got {:?}",
                value.unwrap_or_default()
            )),
        }
    }
    fn required(flag: &str, value: Option<String>, what: &str) -> String {
        value.unwrap_or_else(|| usage_error(format!("{flag} requires {what}")))
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Valued flags take `--flag VALUE` or `--flag=VALUE`.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = || inline.clone().or_else(|| args.next());
        match (flag, inline.is_some()) {
            ("--paper-scale", false) => paper_scale = true,
            ("--resume", false) => resume = true,
            ("--no-store", false) => no_store = true,
            ("--follow", false) => fleet.follow = true,
            ("--threads", _) => {
                threads = Some(parse_threads(value().as_deref()).unwrap_or_else(|e| usage_error(e)))
            }
            ("--shard", _) => {
                let value = required(flag, value(), "an I/N argument");
                shard = ShardSelect::parse(&value).unwrap_or_else(|e| usage_error(e));
            }
            ("--journal", _) => journal = Some(required(flag, value(), "a path").into()),
            ("--store", _) => store = Some(required(flag, value(), "a path")),
            ("--workers", _) => fleet.workers = parse_num(flag, value()),
            ("--lease-jobs", _) => fleet.lease_jobs = parse_num(flag, value()),
            ("--lease-timeout-ms", _) => fleet.lease_timeout_ms = parse_num(flag, value()),
            ("--max-retries", _) => fleet.max_retries = parse_num(flag, value()),
            ("--fleet-dir", _) => fleet.fleet_dir = Some(required(flag, value(), "a path").into()),
            ("--faults", _) => {
                fleet.faults = Some(required(flag, value(), "a spec (e.g. kill@3,torn@5)"))
            }
            _ if arg.starts_with("--") => usage_error(format!("unknown flag {arg:?}")),
            _ => positional.push(arg.clone()),
        }
    }
    if fleet.workers == 0 {
        usage_error("--workers must be at least 1");
    }
    if fleet.lease_jobs == 0 {
        usage_error("--lease-jobs must be at least 1");
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
    let threads =
        threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let scheduler = Scheduler::new(threads);
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
