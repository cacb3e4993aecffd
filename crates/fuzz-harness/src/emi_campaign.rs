//! CLsmith+EMI testing campaigns (Table 5, §7.4).
//!
//! A *base* program is an ALL-mode CLsmith kernel containing 1–5 EMI blocks
//! that survives the liveness check (inverting the `dead` array changes its
//! result, §7.4).  From each base a set of variants is derived with the
//! leaf/compound/lift pruning grid, and every variant is run on a single
//! (configuration, optimisation level) target: because all variants are
//! equivalent modulo the standard `dead` input, any disagreement between two
//! terminating variants indicates a miscompilation — no cross-configuration
//! comparison is needed, which is the selling point of EMI testing (§3.2).

use crate::campaign::{
    descriptor_fields, descriptor_number, generator_fingerprint, parsed_options,
    target_fingerprint, CampaignOptions,
};
use crate::differential::{targets_for, TestTarget};
use crate::exec::{job_seed, Scheduler, StagedJob};
use crate::journal::{JournalError, JournalHeader};
use crate::shard::{
    run_shard, Campaign, JournalOptions, JournalPayload, Mergeable, ShardMetrics, ShardSelect,
};
use clsmith::{generate, prune_variant, GenMode, GeneratorOptions, PruneProbabilities};
use opencl_sim::{Configuration, ExecMemo, ExecOptions, OptLevel, Session, TestOutcome};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Per-target tallies over base programs (the rows of Table 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmiStats {
    /// Bases for which no variant terminated with a value ("base fails").
    pub base_fails: usize,
    /// Bases with two terminating variants that disagree (`w`).
    pub wrong: usize,
    /// Bases with at least one variant that failed to build (`bf`).
    pub build_failures: usize,
    /// Bases with at least one variant that crashed (`c`).
    pub crashes: usize,
    /// Bases with at least one variant that timed out (`to`).
    pub timeouts: usize,
    /// Bases whose variants all terminated with one uniform value ("stable").
    pub stable: usize,
}

impl EmiStats {
    /// Whether no base has been tallied yet — a streaming/partial table
    /// renders such columns as `–` rather than a misleading row of zeros.
    pub fn is_empty(&self) -> bool {
        self.base_fails
            + self.wrong
            + self.build_failures
            + self.crashes
            + self.timeouts
            + self.stable
            == 0
    }
}

/// Result of an EMI campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmiCampaignResult {
    /// Number of base programs that passed the liveness check.
    pub bases: usize,
    /// Number of variants per base.
    pub variants_per_base: usize,
    /// Target labels in column order (e.g. `"1-"`, `"1+"`, ...).
    pub labels: Vec<String>,
    /// Tallies per target.
    pub stats: Vec<EmiStats>,
}

impl EmiCampaignResult {
    /// Stats for a target label.
    pub fn stats_for(&self, label: &str) -> Option<&EmiStats> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| &self.stats[i])
    }
}

/// Options for the EMI campaign.
#[derive(Debug, Clone)]
pub struct EmiCampaignOptions {
    /// Number of base programs to accept (the paper uses 180 after
    /// discarding).
    pub bases: usize,
    /// How many pruning-probability combinations to use per base (the paper
    /// uses all 40; smaller values subsample the grid evenly).
    pub variants_per_base: usize,
    /// Campaign scale options (generator sizes, execution options).
    pub campaign: CampaignOptions,
}

impl Default for EmiCampaignOptions {
    fn default() -> Self {
        EmiCampaignOptions {
            bases: 6,
            variants_per_base: 10,
            campaign: CampaignOptions::default(),
        }
    }
}

/// One candidate-base probe: generate an ALL-mode EMI kernel from the
/// job-derived seed and apply the §7.4 liveness check (inverting the `dead`
/// array must change the result).
#[derive(Debug, Clone)]
pub struct LivenessProbeJob {
    /// The candidate's generator seed.
    pub seed: u64,
    /// Base generator options (mode/seed/EMI overridden).
    pub generator: GeneratorOptions,
    /// Execution options for the two reference runs.
    pub exec: ExecOptions,
}

/// Stage-1 output of a [`LivenessProbeJob`]: the candidate base kernel plus
/// the execution options for the two reference runs.
#[derive(Debug)]
pub struct LivenessCandidate {
    /// The generated EMI candidate.
    pub program: clc::Program,
    /// Execution options for the reference runs.
    pub exec: ExecOptions,
}

/// Stage-2 output of a [`LivenessProbeJob`]: the candidate and its two
/// reference outcomes (normal and `dead`-inverted).
#[derive(Debug)]
pub struct LivenessOutcomes {
    /// The candidate under probe.
    pub program: clc::Program,
    /// Reference outcome with the standard `dead` input.
    pub normal: TestOutcome,
    /// Reference outcome with the `dead` array inverted.
    pub inverted: TestOutcome,
}

impl StagedJob for LivenessProbeJob {
    type Generated = LivenessCandidate;
    type Executed = LivenessOutcomes;
    type Output = Option<clc::Program>;

    fn generate(self) -> LivenessCandidate {
        let gen_opts = GeneratorOptions {
            mode: GenMode::All,
            seed: self.seed,
            ..self.generator
        }
        .with_emi();
        LivenessCandidate {
            program: generate(&gen_opts),
            exec: self.exec,
        }
    }

    fn execute(candidate: LivenessCandidate) -> LivenessOutcomes {
        // One session for both reference runs: the normal and inverted
        // executions differ only in buffer overrides, so they share a
        // single lowered kernel (distinct outcome-cache lines).
        let session = Session::new(&candidate.program);
        let normal = session.reference_execute(&candidate.exec);
        let mut inverted_exec = candidate.exec.clone();
        Arc::make_mut(&mut inverted_exec.buffer_overrides).insert(
            "dead".into(),
            clc::BufferInit::ReverseIota.materialize(candidate.program.dead_len),
        );
        let inverted = session.reference_execute(&inverted_exec);
        LivenessOutcomes {
            program: candidate.program,
            normal,
            inverted,
        }
    }

    fn judge(outcomes: LivenessOutcomes) -> Option<clc::Program> {
        let live = match (&outcomes.normal, &outcomes.inverted) {
            (TestOutcome::Result { hash: a, .. }, TestOutcome::Result { hash: b, .. }) => a != b,
            // An inverted run that fails outright also proves the blocks are
            // reachable under the inverted input.
            (TestOutcome::Result { .. }, _) => true,
            _ => false,
        };
        live.then_some(outcomes.program)
    }
}

/// Generates base programs that pass the §7.4 liveness check: the EMI blocks
/// must not all sit in already-dead code, which is checked by comparing the
/// reference result with the `dead` array inverted.
///
/// Probes are evaluated in chunks of candidate seeds, but acceptance scans
/// candidates strictly in index order and keeps the first `options.bases`
/// live ones — exactly the set the sequential loop accepts — so the base
/// list is independent of both the worker count and the chunk size.
pub fn generate_live_bases_with(
    scheduler: &Scheduler,
    options: &EmiCampaignOptions,
) -> Vec<clc::Program> {
    let max_attempts = options.bases * 20 + 50;
    let mut bases = Vec::new();
    let mut attempt = 0usize;
    while bases.len() < options.bases && attempt < max_attempts {
        // Probe only about as many candidates as are still missing (with a
        // floor that keeps every worker busy), so a nearly-complete campaign
        // does not burn a full-sized chunk for its last base.
        let missing = options.bases - bases.len();
        let chunk = missing.max(scheduler.threads() * 4);
        let upper = (attempt + chunk).min(max_attempts);
        let jobs: Vec<LivenessProbeJob> = (attempt..upper)
            .map(|candidate| LivenessProbeJob {
                seed: job_seed(options.campaign.seed_offset, candidate as u64),
                generator: options.campaign.generator.clone(),
                exec: options.campaign.exec.clone(),
            })
            .collect();
        for program in scheduler.run_staged_all(jobs).into_iter().flatten() {
            if bases.len() < options.bases {
                bases.push(program);
            }
        }
        attempt = upper;
    }
    bases
}

/// The evenly subsampled pruning grid of the requested size.
pub fn pruning_grid(variants: usize) -> Vec<PruneProbabilities> {
    let all = PruneProbabilities::table5_combinations();
    if variants >= all.len() {
        return all;
    }
    let step = (all.len() as f64 / variants as f64).max(1.0);
    (0..variants)
        .map(|i| all[((i as f64 * step) as usize).min(all.len() - 1)])
        .collect()
}

/// One base program's worth of EMI campaign work: derive every pruning
/// variant (seeded from the base index, not the worker), judge the base on
/// every (configuration, optimisation level) column.  The pruning grid and
/// configuration list are shared read-only state behind [`Arc`]s.
#[derive(Debug, Clone)]
pub struct EmiBaseJob {
    /// The live base program.
    pub base: clc::Program,
    /// Index of the base in the campaign (drives variant seeding).
    pub base_index: usize,
    /// The campaign seed (`options.campaign.seed_offset`).
    pub campaign_seed: u64,
    /// The pruning-probability grid, shared across the batch.
    pub grid: Arc<Vec<PruneProbabilities>>,
    /// The configurations, shared across the batch.
    pub configs: Arc<Vec<Configuration>>,
    /// Execution options.
    pub exec: ExecOptions,
}

/// Stage-1 output of an [`EmiBaseJob`]: the base's pruning-variant grid
/// plus the judging context.  Variant seeding depends only on the campaign
/// seed and the base index, never on which worker pruned.
#[derive(Debug)]
pub struct EmiVariantGrid {
    /// The derived pruning variants, in grid order.
    pub variants: Vec<clc::Program>,
    /// The configurations, shared across the batch.
    pub configs: Arc<Vec<Configuration>>,
    /// Execution options.
    pub exec: ExecOptions,
}

/// Stage-2 output of an [`EmiBaseJob`]: one outcome row per
/// (configuration, optimisation level) column, each row holding every
/// variant's outcome on that column, in variant order.
pub type EmiOutcomeGrid = Vec<Vec<TestOutcome>>;

impl StagedJob for EmiBaseJob {
    type Generated = EmiVariantGrid;
    type Executed = EmiOutcomeGrid;
    type Output = Vec<BaseJudgement>;

    /// Variant pruning (stage 1).
    fn generate(self) -> EmiVariantGrid {
        let base_seed = job_seed(self.campaign_seed, self.base_index as u64);
        let variants: Vec<clc::Program> = self
            .grid
            .iter()
            .enumerate()
            .map(|(i, probs)| prune_variant(&self.base, probs, job_seed(base_seed, i as u64)))
            .collect();
        EmiVariantGrid {
            variants,
            configs: self.configs,
            exec: self.exec,
        }
    }

    /// The memoised judging grid (stage 2): one session per variant, all
    /// behind one [`ExecMemo`] spanning the whole (config × opt) grid —
    /// gently pruned variants are often bit-identical to each other (or
    /// compile identically on non-optimising targets across both opt
    /// levels), so the unpruned AST is executed once, not once per target.
    /// The memo is [`Rc`]-based and lives and dies with this stage.
    fn execute(grid: EmiVariantGrid) -> EmiOutcomeGrid {
        let memo = Rc::new(ExecMemo::new());
        let sessions: Vec<Session<'_>> = grid
            .variants
            .iter()
            .map(|v| Session::with_memo(v, Rc::clone(&memo)))
            .collect();
        let mut rows = Vec::with_capacity(grid.configs.len() * OptLevel::BOTH.len());
        for config in grid.configs.iter() {
            for opt in OptLevel::BOTH {
                rows.push(
                    sessions
                        .iter()
                        .map(|s| s.execute(config, opt, &grid.exec))
                        .collect(),
                );
            }
        }
        rows
    }

    /// Row classification (stage 3): §7.4's per-target verdict over each
    /// outcome row.
    fn judge(rows: EmiOutcomeGrid) -> Vec<BaseJudgement> {
        rows.iter().map(|row| judge_outcomes(row)).collect()
    }
}

/// The aggregation state of an EMI campaign: per-target base-level tallies,
/// folded from per-base judgement rows.  Counts sum elementwise, so shard
/// merges are associative and commutative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmiTally {
    /// Tallies per (configuration, optimisation level) column.
    pub per_target: Vec<EmiStats>,
}

impl EmiTally {
    /// An empty tally over `targets` columns.
    pub fn new(targets: usize) -> EmiTally {
        EmiTally {
            per_target: vec![EmiStats::default(); targets],
        }
    }

    /// Folds one base's per-target judgement row in.
    pub fn record(&mut self, judgements: &[BaseJudgement]) {
        assert_eq!(judgements.len(), self.per_target.len());
        for (stats, judgement) in self.per_target.iter_mut().zip(judgements) {
            record_base(stats, *judgement);
        }
    }
}

impl Mergeable for EmiTally {
    fn same_shape(&self, other: &EmiTally) -> bool {
        self.per_target.len() == other.per_target.len()
    }

    fn merge(&mut self, other: EmiTally) {
        assert!(
            self.same_shape(&other),
            "cannot merge tallies with different target counts"
        );
        for (a, b) in self.per_target.iter_mut().zip(other.per_target) {
            a.base_fails += b.base_fails;
            a.wrong += b.wrong;
            a.build_failures += b.build_failures;
            a.crashes += b.crashes;
            a.timeouts += b.timeouts;
            a.stable += b.stable;
        }
    }

    fn serialize(&self) -> String {
        if self.per_target.is_empty() {
            return "-".to_string();
        }
        self.per_target
            .iter()
            .map(|s| {
                format!(
                    "{},{},{},{},{},{}",
                    s.base_fails, s.wrong, s.build_failures, s.crashes, s.timeouts, s.stable
                )
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    fn deserialize(text: &str) -> Result<EmiTally, JournalError> {
        if text == "-" {
            return Ok(EmiTally::default());
        }
        let per_target = text
            .split(';')
            .map(|token| {
                let fields = crate::shard::parse_fields::<usize>(token, ',', "EMI stats")?;
                if fields.len() != 6 {
                    return Err(JournalError::Format(format!(
                        "expected 6 EMI counts, got {token:?}"
                    )));
                }
                Ok(EmiStats {
                    base_fails: fields[0],
                    wrong: fields[1],
                    build_failures: fields[2],
                    crashes: fields[3],
                    timeouts: fields[4],
                    stable: fields[5],
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(EmiTally { per_target })
    }
}

/// One base's journal payload: its per-target judgement row, two lowercase
/// hex digits per column (a six-bit mask of
/// `bad_base/wrong/build_failure/crash/timeout/stable`).
impl JournalPayload for Vec<BaseJudgement> {
    fn width(&self) -> usize {
        self.len()
    }

    fn encode(&self) -> String {
        if self.is_empty() {
            return "-".to_string();
        }
        self.iter()
            .map(|j| {
                let bits = (j.bad_base as u8)
                    | (j.wrong as u8) << 1
                    | (j.build_failure as u8) << 2
                    | (j.crash as u8) << 3
                    | (j.timeout as u8) << 4
                    | (j.stable as u8) << 5;
                format!("{bits:02x}")
            })
            .collect()
    }

    fn decode(text: &str) -> Result<Self, JournalError> {
        if text == "-" {
            return Ok(Vec::new());
        }
        if !text.len().is_multiple_of(2) {
            return Err(JournalError::Format(format!(
                "judgement row has odd length: {text:?}"
            )));
        }
        // Chunk over bytes, not `&text[..]` slices: a foreign journal's
        // payload may hold multi-byte characters, and slicing at a
        // non-boundary would panic instead of reporting the corruption.
        text.as_bytes()
            .chunks(2)
            .map(|pair| {
                let bits = std::str::from_utf8(pair)
                    .ok()
                    .and_then(|hex| u8::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| {
                        JournalError::Format(format!("bad judgement byte in {text:?}"))
                    })?;
                if bits >= 64 {
                    return Err(JournalError::Format(format!(
                        "judgement bits out of range in {text:?}"
                    )));
                }
                Ok(BaseJudgement {
                    bad_base: bits & 1 != 0,
                    wrong: bits & 2 != 0,
                    build_failure: bits & 4 != 0,
                    crash: bits & 8 != 0,
                    timeout: bits & 16 != 0,
                    stable: bits & 32 != 0,
                })
            })
            .collect()
    }
}

/// The self-describing campaign descriptor of an EMI campaign journal:
/// requested bases, variants per base, and fingerprints of the generator
/// options and target columns.
pub fn emi_campaign_descriptor(options: &EmiCampaignOptions, configs: &[Configuration]) -> String {
    format!(
        "emi:b{}:v{}:gen{:016x}:cfg{:016x}",
        options.bases,
        pruning_grid(options.variants_per_base).len(),
        generator_fingerprint(&options.campaign.generator),
        target_fingerprint(&targets_for(configs))
    )
}

/// A sharded EMI campaign's outcome: the partial result over this shard's
/// base slice, the mergeable tally behind it, and resume/journal metrics.
#[derive(Debug)]
pub struct ShardedEmiCampaign {
    /// Partial [`EmiCampaignResult`] (its `bases` counts only this shard's
    /// slice; `variants_per_base` and labels are campaign-global).
    pub result: EmiCampaignResult,
    /// The underlying aggregation state.
    pub tally: EmiTally,
    /// Shard/resume metrics.
    pub metrics: ShardMetrics,
    /// Live bases found across the whole campaign (the global job space).
    pub total_bases: usize,
}

/// The CLsmith+EMI campaign of Table 5: the job space is the live-base
/// index space, job `g` judging base `g` seeded `job_seed(seed_offset, g)`.
///
/// Building it probes for live bases ([`generate_live_bases_with`]);
/// generation is a small fraction of judging cost, and acceptance scans
/// candidates in index order, so every process that builds the campaign
/// agrees on the base list bit for bit.
#[derive(Debug, Clone)]
pub struct EmiCampaign {
    /// Campaign scale options.
    pub options: EmiCampaignOptions,
    /// The configurations, in column order (each at both opt levels).
    pub configs: Arc<Vec<Configuration>>,
    /// The live bases (empty in a campaign parsed from a journal).
    bases: Vec<clc::Program>,
    /// Live bases found: the size of the job space.
    live: u64,
    /// The pruning-probability grid every base is judged over.
    grid: Arc<Vec<PruneProbabilities>>,
}

impl EmiCampaign {
    /// Probes for `options.bases` live bases and builds the campaign over
    /// `configs`.
    pub fn new(
        scheduler: &Scheduler,
        configs: &[Configuration],
        options: &EmiCampaignOptions,
    ) -> EmiCampaign {
        let bases = generate_live_bases_with(scheduler, options);
        EmiCampaign {
            options: options.clone(),
            configs: Arc::new(configs.to_vec()),
            live: bases.len() as u64,
            bases,
            grid: Arc::new(pruning_grid(options.variants_per_base)),
        }
    }

    /// The Table 5 result of a (full or partial) tally over `bases` judged
    /// bases — shared by runs and merges, so both render through the same
    /// path.
    pub fn result(&self, tally: &EmiTally, bases: u64) -> EmiCampaignResult {
        EmiCampaignResult {
            bases: bases as usize,
            variants_per_base: self.grid.len(),
            labels: targets_for(&self.configs)
                .iter()
                .map(TestTarget::label)
                .collect(),
            stats: tally.per_target.clone(),
        }
    }
}

impl Campaign for EmiCampaign {
    type Job = EmiBaseJob;
    type Tally = EmiTally;

    fn descriptor(&self) -> String {
        emi_campaign_descriptor(&self.options, &self.configs)
    }

    fn parse(header: &JournalHeader, configs: &[Configuration]) -> Result<Self, JournalError> {
        let fields = descriptor_fields(&header.campaign, "emi", 5, &targets_for(configs))?;
        let bases: u64 = descriptor_number(fields[1], 'b')?;
        let variants_per_base = descriptor_number(fields[2], 'v')?;
        if header.total_jobs > bases {
            return Err(JournalError::Mismatch(format!(
                "journals claim {} live bases of the {bases} requested",
                header.total_jobs
            )));
        }
        Ok(EmiCampaign {
            options: EmiCampaignOptions {
                bases: bases as usize,
                variants_per_base,
                campaign: parsed_options(0, header.campaign_seed),
            },
            configs: Arc::new(configs.to_vec()),
            bases: Vec::new(),
            live: header.total_jobs,
            grid: Arc::new(pruning_grid(variants_per_base)),
        })
    }

    fn seed(&self) -> u64 {
        self.options.campaign.seed_offset
    }

    fn total_jobs(&self) -> u64 {
        self.live
    }

    fn job(&self, g: u64) -> (u64, EmiBaseJob) {
        let job = EmiBaseJob {
            base: self.bases[g as usize].clone(),
            base_index: g as usize,
            campaign_seed: self.seed(),
            grid: Arc::clone(&self.grid),
            configs: Arc::clone(&self.configs),
            exec: self.options.campaign.exec.clone(),
        };
        (job_seed(self.seed(), g), job)
    }

    fn tally(&self) -> EmiTally {
        EmiTally::new(self.width())
    }

    fn fold(&self, tally: &mut EmiTally, _: u64, judgements: Vec<BaseJudgement>) {
        tally.record(&judgements);
    }

    fn width(&self) -> usize {
        self.configs.len() * OptLevel::BOTH.len()
    }
}

/// Runs one shard of the EMI campaign ([`EmiCampaign`]) with an optional
/// resumable journal: every shard probes the full live-base list, then
/// judges only the bases in its slice.
///
/// Only the campaign benchmark (`campaign-bench`) calls this wrapper;
/// everything else builds the campaign and calls [`run_shard`].
pub fn run_emi_campaign_sharded(
    scheduler: &Scheduler,
    configs: &[Configuration],
    options: &EmiCampaignOptions,
    select: ShardSelect,
    journal: Option<&JournalOptions>,
) -> Result<ShardedEmiCampaign, JournalError> {
    let campaign = EmiCampaign::new(scheduler, configs, options);
    let run = run_shard(scheduler, &campaign, select, journal)?;
    Ok(ShardedEmiCampaign {
        result: campaign.result(&run.aggregate, run.jobs),
        tally: run.aggregate,
        metrics: run.metrics,
        total_bases: campaign.bases.len(),
    })
}

/// What a single base program induced on a single target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseJudgement {
    /// No variant terminated with a value.
    pub bad_base: bool,
    /// Two terminating variants disagreed.
    pub wrong: bool,
    /// Some variant failed to build.
    pub build_failure: bool,
    /// Some variant crashed.
    pub crash: bool,
    /// Some variant timed out.
    pub timeout: bool,
    /// All variants terminated with a single uniform value.
    pub stable: bool,
}

/// Classifies one outcome row — every variant of a base on one target —
/// according to §7.4: the judge stage of [`EmiBaseJob`].
pub fn judge_outcomes(outcomes: &[TestOutcome]) -> BaseJudgement {
    // A BTreeMap keeps the tally independent of hash iteration order (the
    // verdict only reads set size and totals today, but stable ordering is
    // the crate-wide rule after the `classify` tie-break fix).
    let mut hashes: BTreeMap<u64, usize> = BTreeMap::new();
    let mut build_failure = false;
    let mut crash = false;
    let mut timeout = false;
    for outcome in outcomes {
        match outcome {
            TestOutcome::Result { hash, .. } => {
                *hashes.entry(*hash).or_insert(0) += 1;
            }
            TestOutcome::BuildFailure(_) => build_failure = true,
            TestOutcome::Crash(_) => crash = true,
            TestOutcome::Timeout => timeout = true,
        }
    }
    let terminated = hashes.values().sum::<usize>();
    let bad_base = terminated == 0;
    let wrong = hashes.len() > 1;
    let stable = !bad_base && !wrong && terminated == outcomes.len();
    BaseJudgement {
        bad_base,
        wrong,
        build_failure,
        crash,
        timeout,
        stable,
    }
}

fn record_base(stats: &mut EmiStats, j: BaseJudgement) {
    if j.bad_base {
        stats.base_fails += 1;
        return;
    }
    if j.wrong {
        stats.wrong += 1;
    }
    if j.build_failure {
        stats.build_failures += 1;
    }
    if j.crash {
        stats.crashes += 1;
    }
    if j.timeout {
        stats.timeouts += 1;
    }
    if j.stable {
        stats.stable += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clsmith::GeneratorOptions;

    fn small_options(bases: usize) -> EmiCampaignOptions {
        EmiCampaignOptions {
            bases,
            variants_per_base: 6,
            campaign: CampaignOptions {
                generator: GeneratorOptions {
                    min_threads: 16,
                    max_threads: 48,
                    ..GeneratorOptions::default()
                },
                ..CampaignOptions::default()
            },
        }
    }

    #[test]
    fn pruning_grid_subsamples_evenly() {
        assert_eq!(pruning_grid(40).len(), 40);
        assert_eq!(pruning_grid(100).len(), 40);
        let five = pruning_grid(5);
        assert_eq!(five.len(), 5);
    }

    #[test]
    fn judgement_rows_and_emi_tallies_round_trip_through_the_journal_forms() {
        let row = vec![
            BaseJudgement {
                bad_base: false,
                wrong: true,
                build_failure: false,
                crash: true,
                timeout: false,
                stable: false,
            },
            BaseJudgement {
                bad_base: false,
                wrong: false,
                build_failure: false,
                crash: false,
                timeout: false,
                stable: true,
            },
        ];
        let encoded = row.encode();
        assert_eq!(encoded, "0a20");
        assert_eq!(Vec::<BaseJudgement>::decode(&encoded).unwrap(), row);
        assert_eq!(Vec::<BaseJudgement>::decode("-").unwrap(), Vec::new());
        assert!(Vec::<BaseJudgement>::decode("0a2").is_err());
        assert!(Vec::<BaseJudgement>::decode("ff").is_err());
        // Multi-byte characters in a corrupted/foreign journal must surface
        // as a format error, not a char-boundary panic.
        assert!(Vec::<BaseJudgement>::decode("\u{1D11E}").is_err());

        let mut tally = EmiTally::new(2);
        tally.record(&row);
        let round = EmiTally::deserialize(&tally.serialize()).unwrap();
        assert_eq!(round, tally);
        let mut doubled = tally.clone();
        doubled.merge(tally.clone());
        assert_eq!(doubled.per_target[0].wrong, 2 * tally.per_target[0].wrong);
    }

    #[test]
    fn sharded_emi_campaign_merges_to_the_single_run() {
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
        let options = small_options(3);
        let scheduler = Scheduler::new(2);
        let campaign = EmiCampaign::new(&scheduler, &configs, &options);
        let single = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
        let mut merged: Option<EmiTally> = None;
        let mut judged = 0;
        for index in 0..2u32 {
            // Every shard probes the live-base list afresh.
            let shard_campaign = EmiCampaign::new(&scheduler, &configs, &options);
            assert_eq!(shard_campaign.total_jobs(), campaign.total_jobs());
            let select = ShardSelect { index, count: 2 };
            let shard = run_shard(&scheduler, &shard_campaign, select, None).unwrap();
            judged += shard.jobs;
            match &mut merged {
                None => merged = Some(shard.aggregate),
                Some(t) => t.merge(shard.aggregate),
            }
        }
        assert_eq!(judged, single.jobs);
        assert_eq!(merged.unwrap(), single.aggregate);
    }

    #[test]
    fn live_base_generation_filters_dead_placements() {
        let bases = generate_live_bases_with(&Scheduler::new(2), &small_options(2));
        assert!(!bases.is_empty());
        for base in &bases {
            assert!(base.has_dead_array());
            assert!(!base.emi_blocks().is_empty());
        }
    }

    #[test]
    fn judging_a_base_on_a_healthy_config_is_stable() {
        let options = small_options(1);
        let bases = generate_live_bases_with(&Scheduler::new(2), &options);
        let grid = pruning_grid(4);
        let variants: Vec<clc::Program> = grid
            .iter()
            .enumerate()
            .map(|(i, p)| prune_variant(&bases[0], p, i as u64))
            .collect();
        // The reference emulator (no injected bugs) must find every base
        // stable: all variants agree.
        let mut hashes = std::collections::HashSet::new();
        for v in &variants {
            match opencl_sim::reference_execute(v, &options.campaign.exec) {
                TestOutcome::Result { hash, .. } => {
                    hashes.insert(hash);
                }
                other => panic!("variant failed on the reference emulator: {other:?}"),
            }
        }
        assert_eq!(hashes.len(), 1);
    }

    #[test]
    fn small_emi_campaign_produces_consistent_counts() {
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
        let options = small_options(2);
        let scheduler = Scheduler::new(2);
        let campaign = EmiCampaign::new(&scheduler, &configs, &options);
        let run = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
        let result = campaign.result(&run.aggregate, run.jobs);
        assert_eq!(result.labels.len(), 4);
        for stats in &result.stats {
            // Every base is accounted for: either a bad base or judged.
            assert!(
                stats.base_fails + stats.stable + stats.wrong <= result.bases + stats.base_fails
            );
        }
    }
}
