//! Campaign drivers: the initial reliability classification (Table 1, §7.1)
//! and the per-mode CLsmith campaigns (Table 4, §7.3).

use crate::differential::{classify, targets_for, TestTarget, Verdict};
use crate::exec::{job_seed, Scheduler, StagedJob};
use crate::journal::{checksum, JournalError, JournalHeader};
use crate::shard::{
    parse_fields, run_shard, Campaign, JournalOptions, JournalPayload, Mergeable, ShardMetrics,
    ShardSelect,
};
use clsmith::{generate, GenMode, GeneratorOptions};
use opencl_sim::{Configuration, ExecOptions, OptLevel, TestOutcome};
use std::sync::Arc;

/// The options of a campaign [parsed](Campaign::parse) from a journal: its
/// kernels and seed, the rest defaults, since its jobs never run.
pub fn parsed_options(kernels: usize, seed_offset: u64) -> CampaignOptions {
    CampaignOptions {
        kernels,
        seed_offset,
        ..CampaignOptions::default()
    }
}

/// Per-target tallies for a batch of kernels (one cell block of Table 4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetStats {
    /// Wrong-code results (`w`).
    pub wrong: usize,
    /// Build failures (`bf`).
    pub build_failures: usize,
    /// Runtime crashes (`c`).
    pub crashes: usize,
    /// Timeouts (`to`).
    pub timeouts: usize,
    /// Results that agreed with the majority (`✓`).
    pub ok: usize,
    /// Kernels skipped by the static pre-filter, never executed (`sk`).
    pub skipped: usize,
}

impl TargetStats {
    /// Records one verdict.
    pub fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Ok => self.ok += 1,
            Verdict::WrongCode => self.wrong += 1,
            Verdict::BuildFailure => self.build_failures += 1,
            Verdict::Crash => self.crashes += 1,
            Verdict::Timeout => self.timeouts += 1,
            Verdict::Skipped => self.skipped += 1,
        }
    }

    /// Total number of kernels recorded (including statically skipped ones).
    pub fn total(&self) -> usize {
        self.wrong + self.build_failures + self.crashes + self.timeouts + self.ok + self.skipped
    }

    /// The paper's *wrong code percentage* `w%`: wrong-code results as a
    /// percentage of computed (non-{bf, c, to}) results.
    pub fn wrong_code_percentage(&self) -> f64 {
        let computed = self.wrong + self.ok;
        if computed == 0 {
            0.0
        } else {
            100.0 * self.wrong as f64 / computed as f64
        }
    }

    /// Fraction of kernels that failed (build failure, crash or wrong code) —
    /// the quantity the §7.1 reliability threshold is defined over.
    /// Statically skipped kernels never ran, so they are excluded.
    pub fn failure_fraction(&self) -> f64 {
        let total = self.total() - self.skipped;
        if total == 0 {
            0.0
        } else {
            (self.wrong + self.build_failures + self.crashes) as f64 / total as f64
        }
    }
}

impl TargetStats {
    /// Serializes to the journal's comma-separated count form
    /// (`w,bf,c,to,ok,sk`).
    pub(crate) fn to_token(&self) -> String {
        format!(
            "{},{},{},{},{},{}",
            self.wrong, self.build_failures, self.crashes, self.timeouts, self.ok, self.skipped
        )
    }

    /// Parses a count token.
    pub(crate) fn from_token(token: &str) -> Result<TargetStats, JournalError> {
        let fields = parse_fields::<usize>(token, ',', "target stats")?;
        let [wrong, build_failures, crashes, timeouts, ok, skipped] = fields[..] else {
            return Err(JournalError::Format(format!(
                "expected 6 target-stat counts, got {token:?}"
            )));
        };
        Ok(TargetStats {
            wrong,
            build_failures,
            crashes,
            timeouts,
            ok,
            skipped,
        })
    }

    fn absorb(&mut self, other: &TargetStats) {
        self.wrong += other.wrong;
        self.build_failures += other.build_failures;
        self.crashes += other.crashes;
        self.timeouts += other.timeouts;
        self.ok += other.ok;
        self.skipped += other.skipped;
    }
}

/// Serializes a row of per-target stats as `;`-joined count tokens (the
/// shared backbone of the [`Mergeable`] campaign aggregates).
pub(crate) fn stats_row_token(stats: &[TargetStats]) -> String {
    if stats.is_empty() {
        return "-".to_string();
    }
    stats
        .iter()
        .map(TargetStats::to_token)
        .collect::<Vec<_>>()
        .join(";")
}

pub(crate) fn stats_row_from_token(token: &str) -> Result<Vec<TargetStats>, JournalError> {
    if token == "-" {
        return Ok(Vec::new());
    }
    token.split(';').map(TargetStats::from_token).collect()
}

pub(crate) fn merge_stats_rows(into: &mut [TargetStats], from: &[TargetStats]) {
    assert_eq!(
        into.len(),
        from.len(),
        "cannot merge tallies with different target counts"
    );
    for (a, b) in into.iter_mut().zip(from) {
        a.absorb(b);
    }
}

/// The aggregation state of one mode's campaign: per-target verdict tallies,
/// folded from per-kernel verdict shards and mergeable across campaign
/// shards (counts sum elementwise, so the merge is associative and
/// commutative — any shard grouping folds to the same state).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModeTally {
    /// Tallies per target, in target order.
    pub per_target: Vec<TargetStats>,
}

impl ModeTally {
    /// An empty tally over `targets` columns.
    pub fn new(targets: usize) -> ModeTally {
        ModeTally {
            per_target: vec![TargetStats::default(); targets],
        }
    }

    /// Folds one kernel's verdict shard in.
    pub fn record(&mut self, verdicts: &[Verdict]) {
        assert_eq!(verdicts.len(), self.per_target.len());
        for (stat, verdict) in self.per_target.iter_mut().zip(verdicts) {
            stat.record(*verdict);
        }
    }

    /// Number of kernels folded in (every kernel contributes one verdict to
    /// every target).
    pub fn kernels(&self) -> usize {
        self.per_target.first().map_or(0, TargetStats::total)
    }
}

impl Mergeable for ModeTally {
    fn merge(&mut self, other: ModeTally) {
        merge_stats_rows(&mut self.per_target, &other.per_target);
    }

    fn same_shape(&self, other: &ModeTally) -> bool {
        self.per_target.len() == other.per_target.len()
    }

    fn serialize(&self) -> String {
        stats_row_token(&self.per_target)
    }

    fn deserialize(text: &str) -> Result<ModeTally, JournalError> {
        Ok(ModeTally {
            per_target: stats_row_from_token(text)?,
        })
    }
}

/// The aggregation state of a multi-mode campaign (Table 4: all six modes):
/// one [`ModeTally`] per mode, in mode order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiModeTally {
    /// One tally per mode, in the order the campaign was submitted.
    pub per_mode: Vec<ModeTally>,
}

impl MultiModeTally {
    /// An empty tally for `modes` modes over `targets` columns each.
    pub fn new(modes: usize, targets: usize) -> MultiModeTally {
        MultiModeTally {
            per_mode: vec![ModeTally::new(targets); modes],
        }
    }
}

impl Mergeable for MultiModeTally {
    fn merge(&mut self, other: MultiModeTally) {
        assert_eq!(
            self.per_mode.len(),
            other.per_mode.len(),
            "cannot merge tallies with different mode counts"
        );
        for (a, b) in self.per_mode.iter_mut().zip(other.per_mode) {
            a.merge(b);
        }
    }

    fn same_shape(&self, other: &MultiModeTally) -> bool {
        self.per_mode.len() == other.per_mode.len()
            && self
                .per_mode
                .iter()
                .zip(&other.per_mode)
                .all(|(a, b)| a.same_shape(b))
    }

    fn serialize(&self) -> String {
        if self.per_mode.is_empty() {
            return "-".to_string();
        }
        self.per_mode
            .iter()
            .map(Mergeable::serialize)
            .collect::<Vec<_>>()
            .join("|")
    }

    fn deserialize(text: &str) -> Result<MultiModeTally, JournalError> {
        if text == "-" {
            return Ok(MultiModeTally::default());
        }
        Ok(MultiModeTally {
            per_mode: text
                .split('|')
                .map(Mergeable::deserialize)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Result of a per-mode campaign: one [`TargetStats`] per target, in target
/// order.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The mode the kernels were generated with.
    pub mode: GenMode,
    /// Number of kernels in the batch.
    pub kernels: usize,
    /// The targets, in column order.
    pub targets: Vec<TestTarget>,
    /// Tallies per target.
    pub stats: Vec<TargetStats>,
}

impl PartialEq for CampaignResult {
    /// Semantic equality: same mode, same batch size, same target columns
    /// (by label) and identical tallies.  Used by the scheduler determinism
    /// tests to compare campaigns run at different worker counts.
    fn eq(&self, other: &Self) -> bool {
        self.mode == other.mode
            && self.kernels == other.kernels
            && self.stats == other.stats
            && self.targets.len() == other.targets.len()
            && self
                .targets
                .iter()
                .zip(&other.targets)
                .all(|(a, b)| a.label() == b.label())
    }
}

impl CampaignResult {
    /// Stats for a target by its paper label (e.g. `"12-"`).
    pub fn stats_for(&self, label: &str) -> Option<&TargetStats> {
        self.targets
            .iter()
            .position(|t| t.label() == label)
            .map(|i| &self.stats[i])
    }

    /// Aggregate wrong-code percentage across all targets (the "Total"
    /// column of Table 4).
    pub fn total_wrong_code_percentage(&self) -> f64 {
        let mut wrong = 0usize;
        let mut ok = 0usize;
        for s in &self.stats {
            wrong += s.wrong;
            ok += s.ok;
        }
        if wrong + ok == 0 {
            0.0
        } else {
            100.0 * wrong as f64 / (wrong + ok) as f64
        }
    }
}

/// Options controlling campaign scale.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Kernels per mode.
    pub kernels: usize,
    /// Base generator options (mode and seed are overridden per kernel).
    pub generator: GeneratorOptions,
    /// Execution options (step limit maps to the paper's 60 s timeout).
    pub exec: ExecOptions,
    /// Seed offset so different campaigns use disjoint kernel sets.
    pub seed_offset: u64,
    /// Run the static analyzer on every generated kernel and skip (rather
    /// than execute) kernels it refuses to certify as race-free and
    /// divergence-free.  Skipped kernels land in the `sk` tally column.
    pub prefilter: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            kernels: 30,
            generator: GeneratorOptions::default(),
            exec: ExecOptions::default(),
            seed_offset: 0,
            prefilter: false,
        }
    }
}

/// One kernel's worth of campaign work: generate the kernel from its
/// job-derived seed, run it on every target, vote.  The target list is
/// shared read-only state behind an [`Arc`].
#[derive(Debug, Clone)]
pub struct KernelJob {
    /// Generation mode.
    pub mode: GenMode,
    /// The per-job seed (`job_seed(campaign_seed, job_index)`).
    pub seed: u64,
    /// Base generator options (mode/seed overridden by the fields above).
    pub generator: GeneratorOptions,
    /// Execution options.
    pub exec: ExecOptions,
    /// Whether to statically pre-filter before executing (see
    /// [`CampaignOptions::prefilter`]).
    pub prefilter: bool,
    /// The targets, shared across the whole batch.
    pub targets: Arc<Vec<TestTarget>>,
}

/// Stage-1 output of a [`KernelJob`]: the generated kernel plus the
/// execution context the later stages need.
#[derive(Debug)]
pub struct GeneratedKernel {
    /// The generated kernel.
    pub program: clc::Program,
    /// The targets, shared across the whole batch.
    pub targets: Arc<Vec<TestTarget>>,
    /// Execution options.
    pub exec: ExecOptions,
    /// Whether to statically pre-filter before executing.
    pub prefilter: bool,
}

/// Stage-2 output of a [`KernelJob`]: per-target outcomes, or a record that
/// the static pre-filter rejected the kernel before launch.
#[derive(Debug)]
pub struct ExecutedKernel {
    /// Per-target outcomes (empty when the kernel was skipped).
    pub outcomes: Vec<TestOutcome>,
    /// `Some(target_count)` when the static pre-filter skipped execution.
    pub skipped_targets: Option<usize>,
}

impl StagedJob for KernelJob {
    type Generated = GeneratedKernel;
    type Executed = ExecutedKernel;
    type Output = Vec<Verdict>;

    fn generate(self) -> GeneratedKernel {
        let gen_opts = GeneratorOptions {
            mode: self.mode,
            seed: self.seed,
            ..self.generator
        };
        GeneratedKernel {
            program: generate(&gen_opts),
            targets: self.targets,
            exec: self.exec,
            prefilter: self.prefilter,
        }
    }

    fn execute(generated: GeneratedKernel) -> ExecutedKernel {
        let session = opencl_sim::Session::new(&generated.program);
        if generated.prefilter && !session.analysis().is_certified() {
            return ExecutedKernel {
                outcomes: Vec::new(),
                skipped_targets: Some(generated.targets.len()),
            };
        }
        ExecutedKernel {
            outcomes: crate::differential::run_on_targets_session(
                &session,
                &generated.targets,
                &generated.exec,
            ),
            skipped_targets: None,
        }
    }

    fn judge(executed: ExecutedKernel) -> Vec<Verdict> {
        match executed.skipped_targets {
            Some(n) => vec![Verdict::Skipped; n],
            None => classify(&executed.outcomes),
        }
    }
}

/// One kernel's journal payload: its per-target verdict row, one letter per
/// target (`k`/`w`/`b`/`c`/`t`).
impl JournalPayload for Vec<Verdict> {
    fn encode(&self) -> String {
        if self.is_empty() {
            return "-".to_string();
        }
        self.iter()
            .map(|v| match v {
                Verdict::Ok => 'k',
                Verdict::WrongCode => 'w',
                Verdict::BuildFailure => 'b',
                Verdict::Crash => 'c',
                Verdict::Timeout => 't',
                Verdict::Skipped => 's',
            })
            .collect()
    }

    fn width(&self) -> usize {
        self.len()
    }

    fn decode(text: &str) -> Result<Self, JournalError> {
        if text == "-" {
            return Ok(Vec::new());
        }
        text.chars()
            .map(|c| match c {
                'k' => Ok(Verdict::Ok),
                'w' => Ok(Verdict::WrongCode),
                'b' => Ok(Verdict::BuildFailure),
                'c' => Ok(Verdict::Crash),
                't' => Ok(Verdict::Timeout),
                's' => Ok(Verdict::Skipped),
                other => Err(JournalError::Format(format!(
                    "unknown verdict letter {other:?} in {text:?}"
                ))),
            })
            .collect()
    }
}

/// A short fingerprint of the target column set, embedded in campaign
/// descriptors so journals from runs over different configuration lists
/// refuse to merge.
pub(crate) fn target_fingerprint(targets: &[TestTarget]) -> u64 {
    let labels: Vec<String> = targets.iter().map(TestTarget::label).collect();
    checksum(labels.join("\n").as_bytes())
}

/// A mode name as a descriptor token (Table 4 names contain spaces).
fn mode_token(mode: GenMode) -> String {
    mode.name().replace(' ', "_")
}

fn mode_from_token(token: &str) -> Result<GenMode, JournalError> {
    GenMode::ALL
        .into_iter()
        .find(|m| mode_token(*m) == token)
        .ok_or_else(|| JournalError::Format(format!("unknown generation mode token {token:?}")))
}

/// A fingerprint of the base generator options, embedded in campaign
/// descriptors so shards or resumes run at different generation scales
/// (e.g. one with `--paper-scale`, one without) refuse to combine.
/// `GeneratorOptions` is a flat value struct, so its `Debug` form is a
/// stable serialization.
pub(crate) fn generator_fingerprint(generator: &GeneratorOptions) -> u64 {
    checksum(format!("{generator:?}").as_bytes())
}

/// The self-describing campaign descriptor of a (multi-)mode campaign
/// journal: the modes, kernels per mode, and fingerprints of the generator
/// options and target columns.
pub fn mode_campaign_descriptor(
    modes: &[GenMode],
    kernels: usize,
    generator: &GeneratorOptions,
    targets: &[TestTarget],
) -> String {
    let names: Vec<String> = modes.iter().map(|m| mode_token(*m)).collect();
    format!(
        "modes:{}:k{kernels}:gen{:016x}:cfg{:016x}",
        names.join("+"),
        generator_fingerprint(generator),
        target_fingerprint(targets)
    )
}

/// Splits a campaign descriptor `<kind>:…:gen<fp>:cfg<fp>` of `count`
/// fields, checking its kind and that it was recorded over `targets`.  (The
/// generator fingerprint is not re-validated — a merge has no generator
/// options; journals only merge when their descriptors agree verbatim,
/// which pins it across shards.)
pub(crate) fn descriptor_fields<'a>(
    descriptor: &'a str,
    kind: &str,
    count: usize,
    targets: &[TestTarget],
) -> Result<Vec<&'a str>, JournalError> {
    let fields: Vec<&str> = descriptor.split(':').collect();
    if fields.len() != count || fields[0] != kind || !fields[count - 2].starts_with("gen") {
        return Err(JournalError::Format(format!(
            "bad {kind} campaign descriptor {descriptor:?}"
        )));
    }
    let expected = format!("cfg{:016x}", target_fingerprint(targets));
    if fields[count - 1] != expected {
        return Err(JournalError::Mismatch(format!(
            "journal was recorded over a different target set ({} vs {expected})",
            fields[count - 1]
        )));
    }
    Ok(fields)
}

/// The number in a descriptor field, after its one-letter `prefix`.
pub(crate) fn descriptor_number<T: std::str::FromStr>(
    field: &str,
    prefix: char,
) -> Result<T, JournalError> {
    field
        .strip_prefix(prefix)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| JournalError::Format(format!("bad campaign descriptor field {field:?}")))
}

/// Parses a [`mode_campaign_descriptor`] back into (modes, kernels per
/// mode), validating the target fingerprint against `targets`.
fn parse_mode_campaign_descriptor(
    descriptor: &str,
    targets: &[TestTarget],
) -> Result<(Vec<GenMode>, usize), JournalError> {
    let fields = descriptor_fields(descriptor, "modes", 5, targets)?;
    let modes = fields[1].split('+').map(mode_from_token);
    Ok((
        modes.collect::<Result<_, _>>()?,
        descriptor_number(fields[2], 'k')?,
    ))
}

/// A sharded (multi-)mode campaign's outcome: per-mode partial results over
/// this shard's slice, the mergeable tally behind them, and resume/journal
/// metrics.
#[derive(Debug)]
pub struct ShardedModeCampaign {
    /// One partial [`CampaignResult`] per submitted mode (tallies cover
    /// only this shard's job slice).
    pub results: Vec<CampaignResult>,
    /// The underlying aggregation state ([`Mergeable`], one tally per
    /// mode) — merge shards' tallies and rebuild results for a full table.
    pub tally: MultiModeTally,
    /// Shard/resume metrics.
    pub metrics: ShardMetrics,
}

/// The job a kernel campaign runs for kernel `seed` of `mode`.
fn kernel_job(
    options: &CampaignOptions,
    targets: &Arc<Vec<TestTarget>>,
    mode: GenMode,
    seed: u64,
) -> KernelJob {
    KernelJob {
        mode,
        seed,
        generator: options.generator.clone(),
        exec: options.exec.clone(),
        prefilter: options.prefilter,
        targets: Arc::clone(targets),
    }
}

/// A (multi-)mode CLsmith campaign (Table 4 submits all six modes as one
/// job space).
///
/// The job space is mode-major: job `g` is kernel `g % kernels` of mode
/// `g / kernels`, seeded `job_seed(options.seed_offset, g % kernels)` —
/// exactly the seed each kernel had under the historical per-mode
/// campaigns, so sharded, resumed and merged runs reproduce their tallies
/// bit for bit.
#[derive(Debug, Clone)]
pub struct ModeCampaign {
    /// The modes, in job-space (and result) order.
    pub modes: Vec<GenMode>,
    /// Campaign scale options (`kernels` is kernels per mode).
    pub options: CampaignOptions,
    /// The targets, in column order.
    pub targets: Arc<Vec<TestTarget>>,
}

impl ModeCampaign {
    /// The campaign of `modes` over `configs` at both optimisation levels.
    pub fn new(
        modes: &[GenMode],
        configs: &[Configuration],
        options: &CampaignOptions,
    ) -> ModeCampaign {
        ModeCampaign {
            modes: modes.to_vec(),
            options: options.clone(),
            targets: Arc::new(targets_for(configs)),
        }
    }

    /// One [`CampaignResult`] per mode from a (full or partial) tally —
    /// shared by runs and merges, so both render through the same path.
    pub fn results(&self, tally: &MultiModeTally) -> Vec<CampaignResult> {
        self.modes
            .iter()
            .zip(&tally.per_mode)
            .map(|(mode, mode_tally)| CampaignResult {
                mode: *mode,
                kernels: mode_tally.kernels(),
                targets: self.targets.to_vec(),
                stats: mode_tally.per_target.clone(),
            })
            .collect()
    }
}

impl Campaign for ModeCampaign {
    type Job = KernelJob;
    type Tally = MultiModeTally;

    fn descriptor(&self) -> String {
        mode_campaign_descriptor(
            &self.modes,
            self.options.kernels,
            &self.options.generator,
            &self.targets,
        )
    }

    fn parse(header: &JournalHeader, configs: &[Configuration]) -> Result<Self, JournalError> {
        let targets = targets_for(configs);
        let (modes, kernels) = parse_mode_campaign_descriptor(&header.campaign, &targets)?;
        Ok(ModeCampaign {
            modes,
            options: parsed_options(kernels, header.campaign_seed),
            targets: Arc::new(targets),
        })
    }

    fn seed(&self) -> u64 {
        self.options.seed_offset
    }

    fn total_jobs(&self) -> u64 {
        (self.modes.len() * self.options.kernels) as u64
    }

    fn job(&self, g: u64) -> (u64, KernelJob) {
        let kernels = self.options.kernels as u64;
        let seed = job_seed(self.options.seed_offset, g % kernels);
        let mode = self.modes[(g / kernels) as usize];
        (seed, kernel_job(&self.options, &self.targets, mode, seed))
    }

    fn tally(&self) -> MultiModeTally {
        MultiModeTally::new(self.modes.len(), self.targets.len())
    }

    fn fold(&self, tally: &mut MultiModeTally, g: u64, verdicts: Vec<Verdict>) {
        tally.per_mode[(g / self.options.kernels as u64) as usize].record(&verdicts);
    }

    fn width(&self) -> usize {
        self.targets.len()
    }
}

/// Runs one shard of a (multi-)mode campaign ([`ModeCampaign`]) with an
/// optional resumable journal.
///
/// Only the campaign benchmark (`campaign-bench`) calls this wrapper;
/// everything else builds the campaign and calls [`run_shard`].
pub fn run_modes_campaign_sharded(
    scheduler: &Scheduler,
    modes: &[GenMode],
    configs: &[Configuration],
    options: &CampaignOptions,
    select: ShardSelect,
    journal: Option<&JournalOptions>,
) -> Result<ShardedModeCampaign, JournalError> {
    let campaign = ModeCampaign::new(modes, configs, options);
    let run = run_shard(scheduler, &campaign, select, journal)?;
    Ok(ShardedModeCampaign {
        results: campaign.results(&run.aggregate),
        tally: run.aggregate,
        metrics: run.metrics,
    })
}

/// Outcome of the §7.1 initial classification for one configuration.
#[derive(Debug, Clone)]
pub struct ReliabilityRow {
    /// The configuration.
    pub config: Configuration,
    /// Failure fraction over the initial kernel set (both optimisation
    /// levels pooled, as in §7.1).
    pub failure_fraction: f64,
    /// Whether the configuration lies above the reliability threshold.
    pub above_threshold: bool,
    /// How many results were tallied for this configuration (0 in a
    /// partial table that has not reached it yet — rendered as `–`).
    pub kernels: usize,
}

/// The §7.1 reliability threshold: at most 25 % of the initial tests may be
/// build failures, runtime crashes or wrong-code results.
pub const RELIABILITY_THRESHOLD: f64 = 0.25;

/// The aggregation state of the §7.1 reliability classification: one pooled
/// [`TargetStats`] per configuration (both optimisation levels folded
/// together, as the paper does).  Counts sum elementwise, so shard merges
/// are associative and commutative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassificationTally {
    /// Pooled tallies per configuration, in configuration order.
    pub per_config: Vec<TargetStats>,
}

impl ClassificationTally {
    /// An empty tally over `configs` configurations.
    pub fn new(configs: usize) -> ClassificationTally {
        ClassificationTally {
            per_config: vec![TargetStats::default(); configs],
        }
    }

    /// Folds one kernel's per-target verdict row in, pooling the two
    /// optimisation levels of each configuration (target column `2k` is
    /// configuration `k` at `-`, column `2k+1` at `+`).
    pub fn record(&mut self, verdicts: &[Verdict]) {
        assert_eq!(verdicts.len(), self.per_config.len() * OptLevel::BOTH.len());
        for (column, verdict) in verdicts.iter().enumerate() {
            self.per_config[column / OptLevel::BOTH.len()].record(*verdict);
        }
    }
}

impl Mergeable for ClassificationTally {
    fn merge(&mut self, other: ClassificationTally) {
        merge_stats_rows(&mut self.per_config, &other.per_config);
    }

    fn same_shape(&self, other: &ClassificationTally) -> bool {
        self.per_config.len() == other.per_config.len()
    }

    fn serialize(&self) -> String {
        stats_row_token(&self.per_config)
    }

    fn deserialize(text: &str) -> Result<ClassificationTally, JournalError> {
        Ok(ClassificationTally {
            per_config: stats_row_from_token(text)?,
        })
    }
}

/// Derives the §7.1 reliability rows from a classification tally — shared
/// by live runs and journal merges so both render identically.
pub fn reliability_rows(
    configs: &[Configuration],
    tally: &ClassificationTally,
) -> Vec<ReliabilityRow> {
    configs
        .iter()
        .zip(&tally.per_config)
        .map(|(config, stats)| {
            let failure_fraction = stats.failure_fraction();
            // The paper additionally demotes the Xeon Phi (configuration 18)
            // because of its prohibitively slow compilation; timeouts caused
            // by compile hangs are counted against the threshold here so the
            // same judgement falls out of the data.
            let hang_fraction = stats.timeouts as f64 / stats.total().max(1) as f64;
            let above_threshold =
                failure_fraction <= RELIABILITY_THRESHOLD && hang_fraction <= RELIABILITY_THRESHOLD;
            ReliabilityRow {
                config: config.clone(),
                failure_fraction,
                above_threshold,
                kernels: stats.total(),
            }
        })
        .collect()
}

/// The self-describing campaign descriptor of a classification journal.
pub fn classification_descriptor(
    kernels_per_mode: usize,
    generator: &GeneratorOptions,
    targets: &[TestTarget],
) -> String {
    format!(
        "classify:k{kernels_per_mode}:gen{:016x}:cfg{:016x}",
        generator_fingerprint(generator),
        target_fingerprint(targets)
    )
}

/// A sharded classification run: partial rows over this shard's slice, the
/// mergeable tally behind them, and resume/journal metrics.
#[derive(Debug)]
pub struct ShardedClassification {
    /// Reliability rows derived from this shard's (partial) tally.
    pub rows: Vec<ReliabilityRow>,
    /// The underlying aggregation state.
    pub tally: ClassificationTally,
    /// Shard/resume metrics.
    pub metrics: ShardMetrics,
}

/// The §7.1 reliability classification: a mode-major job space over all
/// six modes (`GenMode::ALL.len() * kernels_per_mode` jobs) whose seeds keep
/// the historical derivation `job_seed(seed_offset + mode_index * 100_000,
/// kernel_index)`.
#[derive(Debug, Clone)]
pub struct ClassificationCampaign {
    /// Kernels generated per mode.
    pub kernels_per_mode: usize,
    /// Campaign scale options (`kernels` is unused).
    pub options: CampaignOptions,
    /// The configurations, in row order.
    pub configs: Vec<Configuration>,
    /// Every configuration at both optimisation levels, in column order.
    targets: Arc<Vec<TestTarget>>,
}

impl ClassificationCampaign {
    /// The classification of `configs` with `kernels_per_mode` kernels from
    /// each mode.
    pub fn new(
        configs: &[Configuration],
        kernels_per_mode: usize,
        options: &CampaignOptions,
    ) -> ClassificationCampaign {
        ClassificationCampaign {
            kernels_per_mode,
            options: options.clone(),
            configs: configs.to_vec(),
            targets: Arc::new(targets_for(configs)),
        }
    }
}

impl Campaign for ClassificationCampaign {
    type Job = KernelJob;
    type Tally = ClassificationTally;

    fn descriptor(&self) -> String {
        classification_descriptor(
            self.kernels_per_mode,
            &self.options.generator,
            &self.targets,
        )
    }

    fn parse(header: &JournalHeader, configs: &[Configuration]) -> Result<Self, JournalError> {
        let targets = targets_for(configs);
        let fields = descriptor_fields(&header.campaign, "classify", 4, &targets)?;
        Ok(ClassificationCampaign {
            kernels_per_mode: descriptor_number(fields[1], 'k')?,
            options: parsed_options(0, header.campaign_seed),
            configs: configs.to_vec(),
            targets: Arc::new(targets),
        })
    }

    fn seed(&self) -> u64 {
        self.options.seed_offset
    }

    fn total_jobs(&self) -> u64 {
        (GenMode::ALL.len() * self.kernels_per_mode) as u64
    }

    fn job(&self, g: u64) -> (u64, KernelJob) {
        let kernels = self.kernels_per_mode as u64;
        let mode_index = g / kernels;
        let seed = job_seed(self.options.seed_offset + mode_index * 100_000, g % kernels);
        let mode = GenMode::ALL[mode_index as usize];
        (seed, kernel_job(&self.options, &self.targets, mode, seed))
    }

    fn tally(&self) -> ClassificationTally {
        ClassificationTally::new(self.configs.len())
    }

    fn fold(&self, tally: &mut ClassificationTally, _: u64, verdicts: Vec<Verdict>) {
        tally.record(&verdicts);
    }

    fn width(&self) -> usize {
        self.targets.len()
    }
}

/// Runs one shard of the §7.1 classification ([`ClassificationCampaign`])
/// with an optional resumable journal.
///
/// Only the campaign benchmark (`campaign-bench`) calls this wrapper;
/// everything else builds the campaign and calls [`run_shard`].
pub fn classify_configurations_sharded(
    scheduler: &Scheduler,
    configs: &[Configuration],
    kernels_per_mode: usize,
    options: &CampaignOptions,
    select: ShardSelect,
    journal: Option<&JournalOptions>,
) -> Result<ShardedClassification, JournalError> {
    let campaign = ClassificationCampaign::new(configs, kernels_per_mode, options);
    let run = run_shard(scheduler, &campaign, select, journal)?;
    Ok(ShardedClassification {
        rows: reliability_rows(configs, &run.aggregate),
        tally: run.aggregate,
        metrics: run.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_derive_percentages() {
        let mut s = TargetStats::default();
        for v in [
            Verdict::Ok,
            Verdict::Ok,
            Verdict::WrongCode,
            Verdict::Crash,
            Verdict::Timeout,
        ] {
            s.record(v);
        }
        assert_eq!(s.total(), 5);
        assert!((s.wrong_code_percentage() - 100.0 / 3.0).abs() < 1e-9);
        assert!((s.failure_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn small_campaign_runs_and_finds_wrong_code_somewhere() {
        let configs = vec![
            opencl_sim::configuration(1),
            opencl_sim::configuration(3),
            opencl_sim::configuration(9),
            opencl_sim::configuration(19),
        ];
        let options = CampaignOptions {
            kernels: 6,
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 48,
                ..GeneratorOptions::default()
            },
            ..CampaignOptions::default()
        };
        let campaign = ModeCampaign::new(&[GenMode::Basic], &configs, &options);
        let run = run_shard(&Scheduler::new(2), &campaign, ShardSelect::whole(), None).unwrap();
        let result = &campaign.results(&run.aggregate)[0];
        assert_eq!(result.stats.len(), 8);
        assert!(result.stats.iter().all(|s| s.total() == 6));
        assert!(result.stats_for("9+").is_some());
        assert!(result.stats_for("99+").is_none());
    }

    #[test]
    fn verdict_rows_and_tallies_round_trip_through_the_journal_forms() {
        let row = vec![
            Verdict::Ok,
            Verdict::WrongCode,
            Verdict::BuildFailure,
            Verdict::Crash,
            Verdict::Timeout,
            Verdict::Skipped,
        ];
        assert_eq!(row.encode(), "kwbcts");
        assert_eq!(Vec::<Verdict>::decode("kwbcts").unwrap(), row);
        assert_eq!(Vec::<Verdict>::decode("-").unwrap(), Vec::new());
        assert!(Vec::<Verdict>::decode("kxz").is_err());

        // TargetStats tokens: the 6-count form round-trips, and the
        // pre-prefilter 5-count form is rejected.
        let mut stats = TargetStats::default();
        stats.record(Verdict::WrongCode);
        stats.record(Verdict::Skipped);
        stats.record(Verdict::Ok);
        let token = stats.to_token();
        assert_eq!(TargetStats::from_token(&token).unwrap(), stats);
        assert!(matches!(
            TargetStats::from_token("1,0,0,0,1"),
            Err(JournalError::Format(_))
        ));

        let mut tally = ModeTally::new(6);
        tally.record(&row);
        tally.record(&row);
        let round = ModeTally::deserialize(&tally.serialize()).unwrap();
        assert_eq!(round, tally);
        assert_eq!(round.kernels(), 2);

        let mut multi = MultiModeTally::new(2, 6);
        multi.per_mode[0].record(&row);
        multi.per_mode[1].record(&row);
        let round = MultiModeTally::deserialize(&multi.serialize()).unwrap();
        assert_eq!(round, multi);
    }

    #[test]
    fn tally_merge_is_associative_and_matches_a_single_fold() {
        let rows: Vec<Vec<Verdict>> = (0..12)
            .map(|i| {
                vec![
                    if i % 3 == 0 {
                        Verdict::WrongCode
                    } else {
                        Verdict::Ok
                    },
                    if i % 4 == 0 {
                        Verdict::Crash
                    } else {
                        Verdict::Timeout
                    },
                ]
            })
            .collect();
        let mut whole = ModeTally::new(2);
        for row in &rows {
            whole.record(row);
        }
        // Fold the same rows in three shards, merge in two groupings.
        let shard = |range: std::ops::Range<usize>| {
            let mut t = ModeTally::new(2);
            for row in &rows[range] {
                t.record(row);
            }
            t
        };
        let (a, b, c) = (shard(0..5), shard(5..8), shard(8..12));
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut right = b;
        right.merge(c);
        let mut right_first = a;
        right_first.merge(right);
        assert_eq!(left, whole);
        assert_eq!(right_first, whole);
    }

    #[test]
    fn mode_campaign_descriptor_round_trips_and_pins_the_target_set() {
        let targets = targets_for(&[opencl_sim::configuration(1), opencl_sim::configuration(9)]);
        let generator = GeneratorOptions::default();
        let descriptor = mode_campaign_descriptor(&GenMode::ALL, 20, &generator, &targets);
        let (modes, kernels) = parse_mode_campaign_descriptor(&descriptor, &targets).unwrap();
        assert_eq!(modes, GenMode::ALL.to_vec());
        assert_eq!(kernels, 20);
        // A different target set refuses the descriptor.
        let other = targets_for(&[opencl_sim::configuration(1)]);
        assert!(parse_mode_campaign_descriptor(&descriptor, &other).is_err());
        // Different generator options change the descriptor (so resumes
        // across e.g. --paper-scale runs refuse to combine).
        let paper = GeneratorOptions::paper_scale(GenMode::All, 0);
        assert_ne!(
            descriptor,
            mode_campaign_descriptor(&GenMode::ALL, 20, &paper, &targets)
        );
    }

    #[test]
    fn sharded_mode_campaign_merges_to_the_single_run() {
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(9)];
        let options = CampaignOptions {
            kernels: 7,
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 32,
                ..GeneratorOptions::default()
            },
            seed_offset: 0xABCD,
            ..CampaignOptions::default()
        };
        let scheduler = Scheduler::new(2);
        let campaign = ModeCampaign::new(&[GenMode::Basic], &configs, &options);
        let single = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
        let mut merged: Option<MultiModeTally> = None;
        for index in 0..3u32 {
            let select = ShardSelect { index, count: 3 };
            let shard = run_shard(&scheduler, &campaign, select, None).unwrap();
            match &mut merged {
                None => merged = Some(shard.aggregate),
                Some(t) => t.merge(shard.aggregate),
            }
        }
        assert_eq!(merged.unwrap(), single.aggregate);
    }

    #[test]
    fn classification_separates_reliable_from_unreliable_configs() {
        // Use a tiny kernel budget: the rates are strong enough that the
        // Altera FPGA lands below the threshold while NVIDIA stays above.
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(21)];
        let options = CampaignOptions {
            kernels: 0, // overridden by kernels_per_mode argument
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 48,
                ..GeneratorOptions::default()
            },
            ..CampaignOptions::default()
        };
        let campaign = ClassificationCampaign::new(&configs, 3, &options);
        let run = run_shard(&Scheduler::new(2), &campaign, ShardSelect::whole(), None).unwrap();
        let rows = reliability_rows(&configs, &run.aggregate);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[0].above_threshold,
            "NVIDIA should be above the threshold"
        );
        assert!(
            !rows[1].above_threshold,
            "the Altera FPGA should fall below the threshold"
        );
    }
}
