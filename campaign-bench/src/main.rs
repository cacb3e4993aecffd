//! One campaign of the campaign benchmark, run in a fresh process.
//!
//! `run.py` next to this package drives this binary: it builds it, fills
//! the warm outcome store, starts one process per repetition, checks every
//! table digest and reports medians.  One invocation runs exactly one
//! campaign through the entry points the table binaries call and prints one
//! JSON object on stdout:
//!
//! ```text
//! campaign-bench --workload table4_cold|table5_emi|table1_warm --seed N --dir DIR
//!                [--trace] [--workers N]
//! ```
//!
//! The seed becomes the campaign's `seed_offset`, so seed 0 runs the same
//! kernels as the table binaries.  `DIR` belongs to the caller:
//! `table4_cold` and `table1_warm` keep their outcome store in `DIR/store`
//! (empty for a cold run, filled for a warm one), and `table4_cold` writes
//! its journal to `DIR/campaign.journal`.  With `--trace` the same jobs are
//! replayed through the layers' public calls instead (see `trace.rs`), the
//! spans go to `DIR/spans.tsv`, and the object gains the additive per-layer
//! `layers` totals and the per-job wall times `job_ms`.  Campaigns run on
//! one scheduler worker unless `--workers` says otherwise (only the warm
//! store's fill uses more; results never depend on it).

mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{JournalOptions, ShardMetrics, ShardSelect};
use fuzz_harness::{
    checksum, classify_configurations_sharded, render_campaign_table, render_emi_table,
    render_reliability_table, run_emi_campaign_sharded, run_modes_campaign_sharded,
    CampaignOptions, CampaignResult, EmiCampaignOptions, EmiCampaignResult, ReliabilityRow,
    Scheduler,
};
use opencl_sim::{process_cache_stats, CacheStats, Configuration, ExecOptions, OutcomeStore};

/// Kernels per generation mode in `table4_cold` (six modes, 20 targets).
const TABLE4_KERNELS_PER_MODE: usize = 10;
/// Live base programs in `table5_emi`.
const TABLE5_BASES: usize = 2;
/// Pruning variants per base in `table5_emi`: the paper's full grid.
const TABLE5_VARIANTS: usize = 40;
/// Kernels per generation mode in `table1_warm` (six modes, 42 targets).
const TABLE1_KERNELS_PER_MODE: usize = 120;

const USAGE: &str = "usage: campaign-bench --workload table4_cold|table5_emi|table1_warm \
                     --seed N --dir DIR [--trace] [--workers N]";

/// The benchmark's workloads (see the README next to this package for why
/// each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 4: six modes over the 20 above-threshold targets, empty store.
    Table4Cold,
    /// Table 5: live bases × the full pruning grid × 20 targets, no store.
    Table5Emi,
    /// Table 1: six modes over all 42 targets, replayed from a filled store.
    Table1Warm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table4_cold" => Some(Workload::Table4Cold),
            "table5_emi" => Some(Workload::Table5Emi),
            "table1_warm" => Some(Workload::Table1Warm),
            _ => None,
        }
    }

    /// (program, target) verdicts one campaign judges; in Table 5 a verdict
    /// is one (pruning variant, target) outcome.
    fn verdicts(self, targets: usize) -> u64 {
        let programs = match self {
            Workload::Table4Cold => GenMode::ALL.len() * TABLE4_KERNELS_PER_MODE,
            Workload::Table5Emi => TABLE5_BASES * TABLE5_VARIANTS,
            Workload::Table1Warm => GenMode::ALL.len() * TABLE1_KERNELS_PER_MODE,
        };
        (programs * targets) as u64
    }
}

/// Everything a campaign needs before it starts; building it is the
/// benchmark's set-up time.
pub struct Setup {
    pub workload: Workload,
    pub scheduler: Scheduler,
    pub configs: Vec<Configuration>,
    pub campaign: CampaignOptions,
    pub store: Option<Arc<OutcomeStore>>,
    pub journal: Option<JournalOptions>,
}

impl Setup {
    fn new(workload: Workload, seed: u64, dir: &Path, workers: usize) -> std::io::Result<Setup> {
        let configs = match workload {
            Workload::Table1Warm => opencl_sim::all_configurations(),
            _ => opencl_sim::above_threshold_configurations(),
        };
        let store = match workload {
            Workload::Table5Emi => None,
            _ => Some(Arc::new(OutcomeStore::open(dir.join("store"))?)),
        };
        let journal = match workload {
            Workload::Table4Cold => Some(JournalOptions::create(dir.join("campaign.journal"))),
            _ => None,
        };
        let campaign = CampaignOptions {
            kernels: TABLE4_KERNELS_PER_MODE,
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::default()
            },
            exec: ExecOptions {
                store: store.clone(),
                ..ExecOptions::default()
            },
            seed_offset: seed,
            prefilter: false,
        };
        Ok(Setup {
            workload,
            scheduler: Scheduler::new(workers),
            configs,
            campaign,
            store,
            journal,
        })
    }

    fn emi_options(&self) -> EmiCampaignOptions {
        EmiCampaignOptions {
            bases: TABLE5_BASES,
            variants_per_base: TABLE5_VARIANTS,
            campaign: self.campaign.clone(),
        }
    }

    /// Targets per kernel: every configuration at both optimisation levels.
    fn targets(&self) -> usize {
        self.configs.len() * opencl_sim::OptLevel::BOTH.len()
    }

    /// Runs the campaign through the entry point its table binary calls.
    fn run(&self) -> Result<Campaign, String> {
        let whole = ShardSelect::whole();
        match self.workload {
            Workload::Table4Cold => {
                let run = run_modes_campaign_sharded(
                    &self.scheduler,
                    &GenMode::ALL,
                    &self.configs,
                    &self.campaign,
                    whole,
                    self.journal.as_ref(),
                )
                .map_err(|e| e.to_string())?;
                Ok(Campaign::modes(&run.results, &run.metrics))
            }
            Workload::Table5Emi => {
                let run = run_emi_campaign_sharded(
                    &self.scheduler,
                    &self.configs,
                    &self.emi_options(),
                    whole,
                    None,
                )
                .map_err(|e| e.to_string())?;
                Ok(Campaign::emi(&run.result, &run.metrics))
            }
            Workload::Table1Warm => {
                let run = classify_configurations_sharded(
                    &self.scheduler,
                    &self.configs,
                    TABLE1_KERNELS_PER_MODE,
                    &self.campaign,
                    whole,
                    None,
                )
                .map_err(|e| e.to_string())?;
                Ok(Campaign::reliability(&run.rows, &run.metrics))
            }
        }
    }
}

/// What one campaign produced: the rendered table, the jobs its shard
/// executor ran, its journal size, and whether the table has the shape the
/// workload asked for.
pub struct Campaign {
    pub table: String,
    pub jobs: u64,
    pub journal_bytes: u64,
    pub shape_error: Option<String>,
}

/// Jobs a shard run completed, executed or restored from its journal.
fn jobs_run(metrics: &ShardMetrics) -> u64 {
    metrics.jobs_replayed + metrics.jobs_resumed
}

impl Campaign {
    /// Table 4's per-mode blocks, rendered as the `table4` binary prints them.
    pub fn modes(results: &[CampaignResult], metrics: &ShardMetrics) -> Campaign {
        let mut table = String::new();
        let mut shape_error = None;
        if results.len() != GenMode::ALL.len() {
            shape_error = Some(format!("{} mode blocks, expected 6", results.len()));
        }
        for result in results {
            let _ = writeln!(table, "{} ({} kernels)", result.mode.name(), result.kernels);
            table.push_str(&render_campaign_table(result));
            table.push('\n');
            if result.kernels != TABLE4_KERNELS_PER_MODE
                || result
                    .stats
                    .iter()
                    .any(|s| s.total() != TABLE4_KERNELS_PER_MODE)
            {
                shape_error = Some(format!("{} block is incomplete", result.mode.name()));
            }
        }
        Campaign {
            table,
            jobs: jobs_run(metrics),
            journal_bytes: metrics.journal_bytes,
            shape_error,
        }
    }

    /// Table 5.
    pub fn emi(result: &EmiCampaignResult, metrics: &ShardMetrics) -> Campaign {
        let shape_error = (result.bases != TABLE5_BASES
            || result.variants_per_base != TABLE5_VARIANTS)
            .then(|| {
                format!(
                    "{} bases x {} variants, expected {TABLE5_BASES} x {TABLE5_VARIANTS}",
                    result.bases, result.variants_per_base
                )
            });
        Campaign {
            table: render_emi_table(result),
            jobs: jobs_run(metrics),
            journal_bytes: 0,
            shape_error,
        }
    }

    /// Table 1.
    pub fn reliability(rows: &[ReliabilityRow], metrics: &ShardMetrics) -> Campaign {
        // Each configuration pools both optimisation levels of every kernel.
        let expected = GenMode::ALL.len() * TABLE1_KERNELS_PER_MODE * 2;
        let shape_error = rows
            .iter()
            .find(|r| r.kernels != expected)
            .map(|r| format!("configuration {} has {} results", r.config.id, r.kernels))
            .or_else(|| (rows.len() != 21).then(|| format!("{} rows, expected 21", rows.len())));
        Campaign {
            table: render_reliability_table(rows),
            jobs: jobs_run(metrics),
            journal_bytes: 0,
            shape_error,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    trace: bool,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut dir, mut trace, mut workers) = (None, None, None, false, 1);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name = args.next().unwrap_or_default();
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let value = args.next().unwrap_or_default();
                seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?);
            }
            "--dir" => dir = args.next().map(PathBuf::from),
            "--trace" => trace = true,
            "--workers" => {
                let value = args.next().unwrap_or_default();
                workers = value
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or(format!("bad worker count {value:?}"))?;
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        dir: dir.ok_or("--dir is required")?,
        trace,
        workers,
    })
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 where unknown.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        requests: after.requests - before.requests,
        launches: after.launches - before.launches,
        compiles: after.compiles - before.compiles,
        outcome_hits: after.outcome_hits - before.outcome_hits,
        kernel_hits: after.kernel_hits - before.kernel_hits,
        shared_hits: after.shared_hits - before.shared_hits,
        store_hits: after.store_hits - before.store_hits,
    }
}

/// A flat JSON object writer for numbers and plain strings.
struct Json(String);

impl Json {
    fn new() -> Json {
        Json(String::from("{"))
    }

    fn raw(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Json {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{key}\": {value}");
        self
    }

    fn num(&mut self, key: &str, value: f64) -> &mut Json {
        if value.is_finite() {
            self.raw(key, value)
        } else {
            self.raw(key, "null")
        }
    }

    fn text(&mut self, key: &str, value: &str) -> &mut Json {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.raw(key, format!("\"{escaped}\""))
    }

    fn finish(&mut self) -> String {
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

fn main() {
    let started = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let setup = Setup::new(args.workload, args.seed, &args.dir, args.workers).unwrap_or_else(|e| {
        eprintln!("error: set-up in {}: {e}", args.dir.display());
        std::process::exit(1);
    });
    let setup_s = started.elapsed().as_secs_f64();

    let cache_before = process_cache_stats();
    let store_before = setup.store.as_ref().map(|s| s.stats()).unwrap_or_default();
    let clock = Instant::now();
    let outcome = if args.trace {
        trace::run(&setup, &args.dir).map(|(campaign, summary)| (campaign, Some(summary)))
    } else {
        setup.run().map(|campaign| (campaign, None))
    };
    let wall_s = clock.elapsed().as_secs_f64();
    let cache = cache_delta(process_cache_stats(), cache_before);
    let store_after = setup.store.as_ref().map(|s| s.stats()).unwrap_or_default();
    let (campaign, summary) = outcome.unwrap_or_else(|e| {
        eprintln!("error: campaign failed: {e}");
        std::process::exit(1);
    });

    let store_misses = store_after.misses - store_before.misses;
    let store_writes = store_after.writes - store_before.writes;
    let store_bytes = store_after.bytes.saturating_sub(store_before.bytes);
    let mut json = Json::new();
    json.text(
        "digest",
        &format!("{:016x}", checksum(campaign.table.as_bytes())),
    )
    .text("shape_error", campaign.shape_error.as_deref().unwrap_or(""))
    .raw("verdicts", args.workload.verdicts(setup.targets()))
    .raw("jobs", campaign.jobs)
    .num("setup_s", setup_s)
    .num("wall_s", wall_s)
    .raw("peak_rss_kib", peak_rss_kib())
    .raw("requests", cache.requests)
    .raw("launches", cache.launches)
    .raw("memo_hits", cache.outcome_hits)
    .raw("shared_hits", cache.shared_hits)
    .raw("store_hits", cache.store_hits)
    .raw("store_misses", store_misses)
    .raw("store_writes", store_writes)
    .raw("store_bytes", store_bytes)
    .raw("journal_bytes", campaign.journal_bytes);
    if let Some(summary) = summary {
        let mut layers = Json::new();
        for (name, value) in &summary.totals {
            layers.num(name, *value);
        }
        json.raw("layers", layers.finish());
        let job_ms: Vec<String> = summary.job_ms.iter().map(f64::to_string).collect();
        json.raw("job_ms", format!("[{}]", job_ms.join(", ")));
    }
    println!("{}", json.finish());
}
