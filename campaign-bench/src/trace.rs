//! Outside-in tracing of one campaign.
//!
//! The traced run replays the untraced run's jobs through the same shard
//! executor (`run_sharded`) and scheduler, with the same job seeds, journal
//! and store.  Only the job types differ: their stages call the layers'
//! public functions one at a time, and each call is wrapped in a span.
//!
//! | span                 | call                                          |
//! |----------------------|-----------------------------------------------|
//! | `campaign`           | the whole campaign (the root)                 |
//! | `fuzz-harness.probe` | the EMI live-base search                      |
//! | `fuzz-harness.stage` | one `StagedJob` stage of one job              |
//! | `clsmith.generate`   | `KernelJob`/`LivenessProbeJob::generate`      |
//! | `clsmith.prune`      | `EmiBaseJob::generate` (`prune_variant` × 40) |
//! | `clc.fingerprint`    | `Session::new` / `Session::with_memo`         |
//! | `opencl-sim.front`   | `Session::compile`                            |
//! | `opencl-sim.execute` | `Session::execute` / `reference_execute`      |
//! | `fuzz-harness.judge` | the jobs' `judge` stage                       |
//! | `trace.front_repeat` | a second `Session::compile` (trace only)      |
//!
//! Each `opencl-sim.execute` span is classified from how its memo's
//! counters moved: a launch (`clc-interp`), a cache hit (`opencl-sim`
//! lookup) or a front-end decision.  `Session::execute` repeats the front
//! end internally, so before each execute the trace times one more,
//! equally warm `Session::compile` of the same target and nets that
//! duration out of the execute span; both copies count as tracing overhead,
//! not as layer time.
//!
//! Spans are kept in memory and written to `DIR/spans.tsv` at the end.  A
//! span's self time is its duration minus its children's.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use clsmith::GenMode;
use fuzz_harness::campaign::ExecutedKernel;
use fuzz_harness::emi_campaign::BaseJudgement;
use fuzz_harness::shard::{run_sharded, ShardRun, ShardSelect, ShardSpec};
use fuzz_harness::{
    classification_descriptor, emi_campaign_descriptor, job_seed, mode_campaign_descriptor,
    pruning_grid, reliability_rows, targets_for, CampaignResult, ClassificationTally, EmiBaseJob,
    EmiCampaignResult, EmiTally, EmiVariantGrid, GeneratedKernel, KernelJob, LivenessCandidate,
    LivenessOutcomes, LivenessProbeJob, MultiModeTally, StagedJob, TestTarget, Verdict,
};
use opencl_sim::{
    CacheStats, CompiledProgram, Configuration, ExecMemo, ExecOptions, OptLevel, Session,
    TestOutcome,
};

use crate::{Campaign, Setup, Workload, TABLE1_KERNELS_PER_MODE};

/// How an `opencl-sim.execute` span was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain,
    Launch,
    Hit,
    Decided,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    job: u64,
    start_ns: u64,
    end_ns: u64,
    kind: Kind,
    /// Trace-only work inside the span (the front-end repeat of an execute).
    overhead_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Job ids of liveness probes, kept apart from the campaign's job indices.
const PROBE_JOB: u64 = 1 << 32;
const NO_JOB: u64 = u64::MAX;

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static JOB: Cell<u64> = const { Cell::new(NO_JOB) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

fn open(name: &'static str) -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    Open {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

impl Open {
    /// Records the span and returns its duration in nanoseconds.
    fn close(self, kind: Kind, overhead_ns: u64) -> u64 {
        let end_ns = now_ns();
        OPEN.with(|stack| stack.borrow_mut().pop());
        SPANS.lock().expect("span log poisoned").push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            job: JOB.with(Cell::get),
            start_ns: self.start_ns,
            end_ns,
            kind,
            overhead_ns,
        });
        end_ns - self.start_ns
    }
}

fn traced<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let span = open(name);
    let result = f();
    span.close(Kind::Plain, 0);
    result
}

/// One stage of job `job`.
fn stage<R>(job: u64, f: impl FnOnce() -> R) -> R {
    JOB.with(|j| j.set(job));
    traced("fuzz-harness.stage", f)
}

fn served(before: CacheStats, after: CacheStats) -> Kind {
    let hits = |s: CacheStats| s.outcome_hits + s.shared_hits + s.store_hits;
    if after.launches > before.launches {
        Kind::Launch
    } else if hits(after) > hits(before) {
        Kind::Hit
    } else {
        Kind::Decided
    }
}

/// `Session::execute` on one target, preceded by the traced front end.
fn execute_target(
    session: &Session<'_>,
    config: &Configuration,
    opt: OptLevel,
    exec: &ExecOptions,
) -> TestOutcome {
    let front = open("opencl-sim.front");
    let decided = matches!(
        session.compile(config, opt),
        CompiledProgram::Decided { .. }
    );
    front.close(if decided { Kind::Decided } else { Kind::Plain }, 0);
    let repeat = open("trace.front_repeat");
    drop(session.compile(config, opt));
    let repeat_ns = repeat.close(Kind::Plain, 0);
    let span = open("opencl-sim.execute");
    let before = session.memo().stats();
    let outcome = session.execute(config, opt, exec);
    span.close(served(before, session.memo().stats()), repeat_ns);
    outcome
}

/// `Session::reference_execute` (no front end).
fn reference_target(session: &Session<'_>, exec: &ExecOptions) -> TestOutcome {
    let span = open("opencl-sim.execute");
    let before = session.memo().stats();
    let outcome = session.reference_execute(exec);
    span.close(served(before, session.memo().stats()), 0);
    outcome
}

/// [`KernelJob`] with traced stages (Tables 1 and 4).
struct TracedKernelJob {
    index: u64,
    job: KernelJob,
}

impl StagedJob for TracedKernelJob {
    type Generated = (u64, GeneratedKernel);
    type Executed = (u64, ExecutedKernel);
    type Output = Vec<Verdict>;

    fn generate(self) -> (u64, GeneratedKernel) {
        let job = self.job;
        let kernel = stage(self.index, || traced("clsmith.generate", || job.generate()));
        (self.index, kernel)
    }

    fn execute((index, kernel): (u64, GeneratedKernel)) -> (u64, ExecutedKernel) {
        let executed = stage(index, || {
            let session = traced("clc.fingerprint", || Session::new(&kernel.program));
            let outcomes = kernel
                .targets
                .iter()
                .map(|t| execute_target(&session, &t.config, t.opt, &kernel.exec))
                .collect();
            ExecutedKernel {
                outcomes,
                skipped_targets: None,
            }
        });
        (index, executed)
    }

    fn judge((index, executed): (u64, ExecutedKernel)) -> Vec<Verdict> {
        stage(index, || {
            traced("fuzz-harness.judge", || KernelJob::judge(executed))
        })
    }
}

/// [`EmiBaseJob`] with traced stages (Table 5).
struct TracedEmiBaseJob {
    job: EmiBaseJob,
}

impl StagedJob for TracedEmiBaseJob {
    type Generated = (u64, EmiVariantGrid);
    type Executed = (u64, Vec<Vec<TestOutcome>>);
    type Output = Vec<BaseJudgement>;

    fn generate(self) -> (u64, EmiVariantGrid) {
        let index = self.job.base_index as u64;
        let job = self.job;
        (
            index,
            stage(index, || traced("clsmith.prune", || job.generate())),
        )
    }

    fn execute((index, grid): (u64, EmiVariantGrid)) -> (u64, Vec<Vec<TestOutcome>>) {
        let rows = stage(index, || {
            let memo = Rc::new(ExecMemo::new());
            let sessions: Vec<Session<'_>> = grid
                .variants
                .iter()
                .map(|v| {
                    traced("clc.fingerprint", || {
                        Session::with_memo(v, Rc::clone(&memo))
                    })
                })
                .collect();
            let mut rows = Vec::with_capacity(grid.configs.len() * OptLevel::BOTH.len());
            for config in grid.configs.iter() {
                for opt in OptLevel::BOTH {
                    rows.push(
                        sessions
                            .iter()
                            .map(|s| execute_target(s, config, opt, &grid.exec))
                            .collect(),
                    );
                }
            }
            rows
        });
        (index, rows)
    }

    fn judge((index, rows): (u64, Vec<Vec<TestOutcome>>)) -> Vec<BaseJudgement> {
        stage(index, || {
            traced("fuzz-harness.judge", || EmiBaseJob::judge(rows))
        })
    }
}

/// [`LivenessProbeJob`] with traced stages.
struct TracedProbeJob {
    candidate: u64,
    job: LivenessProbeJob,
}

impl StagedJob for TracedProbeJob {
    type Generated = (u64, LivenessCandidate);
    type Executed = (u64, LivenessOutcomes);
    type Output = Option<clc::Program>;

    fn generate(self) -> (u64, LivenessCandidate) {
        let id = PROBE_JOB | self.candidate;
        let job = self.job;
        (
            id,
            stage(id, || traced("clsmith.generate", || job.generate())),
        )
    }

    fn execute((id, candidate): (u64, LivenessCandidate)) -> (u64, LivenessOutcomes) {
        let outcomes = stage(id, || {
            let (normal, inverted) = {
                let session = traced("clc.fingerprint", || Session::new(&candidate.program));
                let normal = reference_target(&session, &candidate.exec);
                let mut inverted_exec = candidate.exec.clone();
                Arc::make_mut(&mut inverted_exec.buffer_overrides).insert(
                    "dead".into(),
                    clc::BufferInit::ReverseIota.materialize(candidate.program.dead_len),
                );
                (normal, reference_target(&session, &inverted_exec))
            };
            LivenessOutcomes {
                program: candidate.program,
                normal,
                inverted,
            }
        });
        (id, outcomes)
    }

    fn judge((id, outcomes): (u64, LivenessOutcomes)) -> Option<clc::Program> {
        stage(id, || {
            traced("fuzz-harness.judge", || LivenessProbeJob::judge(outcomes))
        })
    }
}

/// `generate_live_bases_with`'s search, probing through [`TracedProbeJob`]s
/// in the same chunks.  Returns the bases and the number of candidates
/// probed.
fn live_bases(setup: &Setup) -> (Vec<clc::Program>, usize) {
    let options = setup.emi_options();
    let max_attempts = options.bases * 20 + 50;
    let mut bases = Vec::new();
    let mut attempt = 0usize;
    while bases.len() < options.bases && attempt < max_attempts {
        let missing = options.bases - bases.len();
        let chunk = missing.max(setup.scheduler.threads() * 4);
        let upper = (attempt + chunk).min(max_attempts);
        let jobs: Vec<TracedProbeJob> = (attempt..upper)
            .map(|candidate| TracedProbeJob {
                candidate: candidate as u64,
                job: LivenessProbeJob {
                    seed: job_seed(options.campaign.seed_offset, candidate as u64),
                    generator: options.campaign.generator.clone(),
                    exec: options.campaign.exec.clone(),
                },
            })
            .collect();
        for program in setup.scheduler.run_staged_all(jobs).into_iter().flatten() {
            if bases.len() < options.bases {
                bases.push(program);
            }
        }
        attempt = upper;
    }
    (bases, attempt)
}

/// Runs `total` traced kernel jobs through the shard executor; `job` maps a
/// job index to its mode and seed exactly as the campaign driver does.
fn kernel_campaign(
    setup: &Setup,
    targets: &Arc<Vec<TestTarget>>,
    descriptor: &str,
    total: u64,
    job: impl Fn(u64) -> (GenMode, u64),
) -> Result<ShardRun<Vec<Verdict>>, String> {
    let spec = ShardSpec::select(setup.campaign.seed_offset, total, ShardSelect::whole());
    run_sharded::<TracedKernelJob, _>(
        &setup.scheduler,
        &spec,
        descriptor,
        setup.journal.as_ref(),
        |g| {
            let (mode, seed) = job(g);
            let job = KernelJob {
                mode,
                seed,
                generator: setup.campaign.generator.clone(),
                exec: setup.campaign.exec.clone(),
                prefilter: setup.campaign.prefilter,
                targets: Arc::clone(targets),
            };
            (seed, TracedKernelJob { index: g, job })
        },
    )
    .map_err(|e| e.to_string())
}

/// The traced campaign: the table plus the span summary.
pub fn run(setup: &Setup, dir: &Path) -> Result<(Campaign, Summary), String> {
    if setup.campaign.prefilter {
        return Err("the traced replay does not model the static pre-filter".into());
    }
    let seed = setup.campaign.seed_offset;
    let mut probes = (0usize, 0usize);
    let root = open("campaign");
    let campaign = match setup.workload {
        Workload::Table4Cold => {
            let targets = Arc::new(targets_for(&setup.configs));
            let kernels = setup.campaign.kernels;
            let descriptor = mode_campaign_descriptor(
                &GenMode::ALL,
                kernels,
                &setup.campaign.generator,
                &targets,
            );
            let kernels = kernels as u64;
            let total = GenMode::ALL.len() as u64 * kernels;
            let run = kernel_campaign(setup, &targets, &descriptor, total, |g| {
                (
                    GenMode::ALL[(g / kernels) as usize],
                    job_seed(seed, g % kernels),
                )
            })?;
            let mut tally = MultiModeTally::new(GenMode::ALL.len(), targets.len());
            for (g, verdicts) in &run.outputs {
                tally.per_mode[(g / kernels) as usize].record(verdicts);
            }
            let results: Vec<CampaignResult> = GenMode::ALL
                .iter()
                .zip(&tally.per_mode)
                .map(|(mode, t)| CampaignResult {
                    mode: *mode,
                    kernels: t.kernels(),
                    targets: targets.to_vec(),
                    stats: t.per_target.clone(),
                })
                .collect();
            Campaign::modes(&results, &run.metrics)
        }
        Workload::Table1Warm => {
            let targets = Arc::new(targets_for(&setup.configs));
            let descriptor = classification_descriptor(
                TABLE1_KERNELS_PER_MODE,
                &setup.campaign.generator,
                &targets,
            );
            let kernels = TABLE1_KERNELS_PER_MODE as u64;
            let total = GenMode::ALL.len() as u64 * kernels;
            let run = kernel_campaign(setup, &targets, &descriptor, total, |g| {
                let mode = g / kernels;
                let seed = job_seed(seed + mode * 100_000, g % kernels);
                (GenMode::ALL[mode as usize], seed)
            })?;
            let mut tally = ClassificationTally::new(setup.configs.len());
            for (_, verdicts) in &run.outputs {
                tally.record(verdicts);
            }
            Campaign::reliability(&reliability_rows(&setup.configs, &tally), &run.metrics)
        }
        Workload::Table5Emi => {
            let options = setup.emi_options();
            let (bases, probed) = traced("fuzz-harness.probe", || live_bases(setup));
            probes = (probed, bases.len());
            let bases = Arc::new(bases);
            let grid = Arc::new(pruning_grid(options.variants_per_base));
            let configs = Arc::new(setup.configs.clone());
            let labels: Vec<String> = setup
                .configs
                .iter()
                .flat_map(|c| OptLevel::BOTH.map(|opt| c.label(opt)))
                .collect();
            let descriptor = emi_campaign_descriptor(&options, &setup.configs);
            let spec = ShardSpec::select(seed, bases.len() as u64, ShardSelect::whole());
            let run = run_sharded::<TracedEmiBaseJob, _>(
                &setup.scheduler,
                &spec,
                &descriptor,
                setup.journal.as_ref(),
                |g| {
                    let base_index = g as usize;
                    let job = EmiBaseJob {
                        base: bases[base_index].clone(),
                        base_index,
                        campaign_seed: seed,
                        grid: Arc::clone(&grid),
                        configs: Arc::clone(&configs),
                        exec: options.campaign.exec.clone(),
                    };
                    (job_seed(seed, g), TracedEmiBaseJob { job })
                },
            )
            .map_err(|e| e.to_string())?;
            let mut tally = EmiTally::new(labels.len());
            for (_, judgements) in &run.outputs {
                tally.record(judgements);
            }
            Campaign::emi(
                &EmiCampaignResult {
                    bases: run.outputs.len(),
                    variants_per_base: grid.len(),
                    labels,
                    stats: tally.per_target.clone(),
                },
                &run.metrics,
            )
        }
    };
    root.close(Kind::Plain, 0);
    let spans = std::mem::take(&mut *SPANS.lock().expect("span log poisoned"));
    write_spans(&dir.join("spans.tsv"), &spans).map_err(|e| format!("spans.tsv: {e}"))?;
    Ok((campaign, Summary::new(&spans, probes)))
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tname\tjob\tstart_ns\tend_ns\tkind\toverhead_ns"
    )?;
    for s in spans {
        let job = if s.job == NO_JOB {
            "-".to_string()
        } else {
            s.job.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{job}\t{}\t{}\t{:?}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.kind, s.overhead_ns
        )?;
    }
    out.flush()
}

/// Per-layer totals folded from one traced campaign's spans.  Every value
/// is additive across campaigns (times in seconds, counts), so the caller
/// can sum several campaigns before deriving ratios.
pub struct Summary {
    pub totals: Vec<(&'static str, f64)>,
    /// Wall time of each campaign job (probes excluded), net of trace
    /// overhead, in milliseconds.
    pub job_ms: Vec<f64>,
}

impl Summary {
    fn new(spans: &[Span], (probed, live): (usize, usize)) -> Summary {
        let mut children: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans {
            *children.entry(s.parent).or_default() += s.duration();
        }
        let self_s = |s: &Span| {
            s.duration()
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0)) as f64
                * 1e-9
        };
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut add = |key: &'static str, value: f64| *totals.entry(key).or_default() += value;
        let mut jobs: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        for s in spans {
            let repeat_ns = if s.name == "trace.front_repeat" {
                s.duration()
            } else {
                0
            };
            if s.job != NO_JOB {
                let job = jobs.entry(s.job).or_insert((u64::MAX, 0, 0));
                if s.name == "fuzz-harness.stage" {
                    job.0 = job.0.min(s.start_ns);
                    job.1 = job.1.max(s.end_ns);
                }
                job.2 += s.overhead_ns + repeat_ns;
            }
            // An execute span's layer time is its duration net of the
            // front end it repeats internally.
            let net = (s.duration() as f64 - s.overhead_ns as f64) * 1e-9;
            match s.name {
                "campaign" => {
                    add("trace.wall_s", s.duration() as f64 * 1e-9);
                    add("fuzz-harness.unattributed_s", self_s(s));
                }
                "clsmith.generate" => {
                    add("clsmith.programs", 1.0);
                    add("clsmith.generate_s", self_s(s));
                }
                "clsmith.prune" => add("clsmith.prune_s", self_s(s)),
                "clc.fingerprint" => add("clc.fingerprint_s", self_s(s)),
                "opencl-sim.front" => {
                    add("opencl-sim.front_calls", 1.0);
                    add(
                        "opencl-sim.decided",
                        f64::from(u8::from(s.kind == Kind::Decided)),
                    );
                    add("opencl-sim.front_s", self_s(s));
                }
                "opencl-sim.execute" => {
                    add("trace.overhead_s", s.overhead_ns as f64 * 1e-9);
                    match s.kind {
                        Kind::Launch => {
                            add("clc-interp.launch_spans", 1.0);
                            add("clc-interp.launch_s", net);
                        }
                        Kind::Hit => add("opencl-sim.lookup_s", net),
                        _ => add("opencl-sim.front_s", net),
                    }
                }
                "trace.front_repeat" => add("trace.overhead_s", repeat_ns as f64 * 1e-9),
                "fuzz-harness.judge" => add("fuzz-harness.judge_s", self_s(s)),
                "fuzz-harness.probe" => {
                    add("fuzz-harness.probe_s", s.duration() as f64 * 1e-9);
                    add("fuzz-harness.stage_s", self_s(s));
                }
                _ => add("fuzz-harness.stage_s", self_s(s)),
            }
        }
        add("fuzz-harness.probed", probed as f64);
        add("fuzz-harness.live", live as f64);
        let job_ms = jobs
            .iter()
            .filter(|(job, _)| **job < PROBE_JOB)
            .map(|(_, (start, end, overhead))| {
                end.saturating_sub(*start).saturating_sub(*overhead) as f64 * 1e-6
            })
            .collect();
        Summary {
            totals: totals.into_iter().collect(),
            job_ms,
        }
    }
}
