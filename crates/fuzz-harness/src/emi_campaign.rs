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
    descriptor_fields, descriptor_number, descriptor_numbers, generator_field, number_list,
    parse_generator, target_fingerprint, CampaignOptions,
};
use crate::differential::{targets_for, TestTarget};
use crate::exec::{job_seed, Scheduler, StagedJob};
use crate::journal::{JournalError, JournalHeader};
use crate::shard::{
    run_shard, Campaign, JournalOptions, JournalPayload, ShardMetrics, ShardSelect,
};
use clsmith::{generate, prune_variant, GenMode, GeneratorOptions, PruneProbabilities};
use opencl_sim::{Configuration, ExecOptions, OptLevel, Session, TestOutcome};
use std::collections::BTreeMap;
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
        LivenessCandidate {
            program: candidate_base(&self.generator, self.seed),
            exec: self.exec,
        }
    }

    fn execute(candidate: LivenessCandidate) -> LivenessOutcomes {
        // The normal and inverted reference runs differ only in buffer
        // overrides, so they are two lines of the campaign cache; the
        // normal one later serves the live base's unpruned variant on
        // targets that run it untransformed.
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

/// Candidate base `seed`: the ALL-mode EMI kernel a liveness probe checks
/// and a live base's job judges.
fn candidate_base(generator: &GeneratorOptions, seed: u64) -> clc::Program {
    let options = GeneratorOptions {
        mode: GenMode::All,
        seed,
        ..generator.clone()
    };
    generate(&options.with_emi())
}

/// Generates base programs that pass the §7.4 liveness check: the bases of
/// [`EmiCampaign::new`].
pub fn generate_live_bases_with(
    scheduler: &Scheduler,
    options: &EmiCampaignOptions,
) -> Vec<clc::Program> {
    let campaign = EmiCampaign::new(scheduler, &[], options);
    let bases = (0..campaign.total_jobs()).map(|g| campaign.job(g).1.base);
    bases.collect()
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
    /// served by the campaign's outcome cache across the whole (config ×
    /// opt) grid.  Variants differ from their base only inside
    /// never-entered EMI blocks, so a target that compiles them alike up to
    /// those blocks shares one launch through the built AST's live key
    /// (`clc_interp::live_fingerprint`), and bit-identical compiles share
    /// it through the recipe key.
    fn execute(grid: EmiVariantGrid) -> EmiOutcomeGrid {
        let sessions: Vec<Session<'_>> = grid.variants.iter().map(Session::new).collect();
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
/// folded from per-base judgement rows.
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

/// The descriptor of an EMI campaign's options: requested bases, variants
/// per base, the generator options and a fingerprint of the target columns.
/// A campaign's [descriptor](Campaign::descriptor) adds the candidate
/// indices of its live bases as a last field, `live<i>.<j>…`.
pub fn emi_campaign_descriptor(options: &EmiCampaignOptions, configs: &[Configuration]) -> String {
    format!(
        "emi:b{}:v{}:{}:cfg{:016x}",
        options.bases,
        pruning_grid(options.variants_per_base).len(),
        generator_field(&options.campaign.generator),
        target_fingerprint(&targets_for(configs))
    )
}

/// A sharded EMI campaign's outcome: the partial result over this shard's
/// base slice, the tally behind it, and resume/journal metrics.
#[derive(Debug)]
pub struct ShardedEmiCampaign {
    /// Partial [`EmiCampaignResult`] (its `bases` counts only this shard's
    /// slice; `variants_per_base` and labels are campaign-global).
    pub result: EmiCampaignResult,
    /// The underlying aggregation state.
    pub tally: EmiTally,
    /// Shard/resume metrics.
    pub metrics: ShardMetrics,
}

/// The CLsmith+EMI campaign of Table 5: the job space is the live-base
/// index space, job `g` judging base `g` seeded `job_seed(seed_offset, g)`.
///
/// Only [`EmiCampaign::new`] probes for live bases: the campaign keeps
/// their candidate indices, which its descriptor records, and each job
/// regenerates its base from its index, so a campaign
/// [parsed](Campaign::parse) from a header runs the same jobs without
/// probing.
#[derive(Debug, Clone)]
pub struct EmiCampaign {
    /// Campaign scale options.
    pub options: EmiCampaignOptions,
    /// The configurations, in column order (each at both opt levels).
    pub configs: Arc<Vec<Configuration>>,
    /// The candidate index of each live base, ascending: the job space.
    live: Vec<u64>,
    /// The pruning-probability grid every base is judged over.
    grid: Arc<Vec<PruneProbabilities>>,
}

impl EmiCampaign {
    /// Probes for `options.bases` live bases and builds the campaign over
    /// `configs`.  A base passes the §7.4 liveness check when its EMI
    /// blocks do not all sit in already-dead code: inverting the `dead`
    /// array changes the reference result.
    ///
    /// Probes are evaluated in chunks of candidate seeds, but acceptance
    /// scans candidates strictly in index order and keeps the first
    /// `options.bases` live ones — exactly the set the sequential loop
    /// accepts — so the base list is independent of both the worker count
    /// and the chunk size.
    pub fn new(
        scheduler: &Scheduler,
        configs: &[Configuration],
        options: &EmiCampaignOptions,
    ) -> EmiCampaign {
        let max_attempts = options.bases * 20 + 50;
        let mut live = Vec::new();
        let mut attempt = 0usize;
        while live.len() < options.bases && attempt < max_attempts {
            // Probe as many candidates as are still missing, or one per
            // worker if that is more: bases are accepted in candidate
            // order, so probing further ahead changes no base and only
            // wastes probes.
            let missing = options.bases - live.len();
            let upper = (attempt + missing.max(scheduler.threads())).min(max_attempts);
            let jobs: Vec<LivenessProbeJob> = (attempt..upper)
                .map(|candidate| LivenessProbeJob {
                    seed: job_seed(options.campaign.seed_offset, candidate as u64),
                    generator: options.campaign.generator.clone(),
                    exec: options.campaign.exec.clone(),
                })
                .collect();
            let probed = (attempt as u64..).zip(scheduler.run_staged_all(jobs));
            let passed = probed.filter_map(|(candidate, base)| base.map(|_| candidate));
            live.extend(passed.take(missing));
            attempt = upper;
        }
        EmiCampaign::with_live(configs, options, live)
    }

    /// The campaign over the live bases at candidate indices `live`.
    fn with_live(
        configs: &[Configuration],
        options: &EmiCampaignOptions,
        live: Vec<u64>,
    ) -> EmiCampaign {
        EmiCampaign {
            options: options.clone(),
            configs: Arc::new(configs.to_vec()),
            live,
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
        let options = emi_campaign_descriptor(&self.options, &self.configs);
        format!("{options}:live{}", number_list(&self.live))
    }

    fn decode(
        header: &JournalHeader,
        configs: &[Configuration],
        exec: ExecOptions,
    ) -> Result<Self, JournalError> {
        let [bases, variants, generator, _, live] = descriptor_fields(&header.campaign, "emi")?;
        let options = EmiCampaignOptions {
            bases: descriptor_number(bases, "b")?,
            variants_per_base: descriptor_number(variants, "v")?,
            campaign: CampaignOptions {
                generator: parse_generator(generator)?,
                exec,
                seed_offset: header.campaign_seed,
                ..CampaignOptions::default()
            },
        };
        let live = descriptor_numbers(live, "live")?;
        Ok(EmiCampaign::with_live(configs, &options, live))
    }

    fn seed(&self) -> u64 {
        self.options.campaign.seed_offset
    }

    fn total_jobs(&self) -> u64 {
        self.live.len() as u64
    }

    fn job(&self, g: u64) -> (u64, EmiBaseJob) {
        let candidate = job_seed(self.seed(), self.live[g as usize]);
        let job = EmiBaseJob {
            base: candidate_base(&self.options.campaign.generator, candidate),
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
    }

    #[test]
    fn sharded_emi_campaign_merges_to_the_single_run() {
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
        let options = small_options(3);
        let scheduler = Scheduler::new(2);
        let campaign = EmiCampaign::new(&scheduler, &configs, &options);
        let single = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
        let mut paths = Vec::new();
        for index in 0..2u32 {
            // Every shard probes the live-base list afresh.
            let shard_campaign = EmiCampaign::new(&scheduler, &configs, &options);
            assert_eq!(shard_campaign.total_jobs(), campaign.total_jobs());
            let path = std::env::temp_dir().join(format!(
                "clfuzz-emi-test-{}-shard-{index}.journal",
                std::process::id()
            ));
            let select = ShardSelect { index, count: 2 };
            let journal = JournalOptions::create(&path);
            run_shard(&scheduler, &shard_campaign, select, Some(&journal)).unwrap();
            paths.push(path);
        }
        let (_, merged, summary) = crate::shard::merge::<EmiCampaign>(&paths, &configs).unwrap();
        assert_eq!(summary.jobs_folded, single.jobs);
        assert_eq!(merged, single.aggregate);
        for path in paths {
            let _ = std::fs::remove_file(path);
        }
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
