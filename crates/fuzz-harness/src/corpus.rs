//! Corpus campaigns: the feedback-guided counterpart of the paper's blind
//! sampling, closing the generator → mutator → feedback loop.
//!
//! The paper's campaigns draw every kernel fresh from the grammar.  A corpus
//! campaign instead evolves **lineages**: each lineage starts from one
//! generated base kernel and applies a chain of seeded mutations
//! (`clsmith::mutator`), executing every link over the full differential
//! target fan-out.  Two selection strategies run over the *same* base seeds
//! and the *same* kernel budget (`1 + chain` executions per lineage):
//!
//! * **guided** — a mutant becomes the chain's new head only when its
//!   [`CoverageMap`] lights at least one bit the lineage has not covered yet
//!   (`new_bits > 0`, the classic coverage-feedback acceptance test);
//! * **blind** — every mutant is accepted, so the chain drifts without
//!   feedback (the ablation the `bench` axes compare against).
//!
//! Each lineage is one self-contained job of the shard layer: its record
//! (accumulated coverage, per-target verdict tallies, acceptance counters)
//! journals like any other payload, so `--shard`, `--journal`/`--resume`,
//! lease fleets and `merge` work unchanged — and the determinism invariant
//! carries over: for a fixed campaign seed the folded tally (and therefore
//! the rendered table) is bit-identical at any worker count and on both
//! interpreter tiers (coverage uses only tier-stable signals).

use crate::campaign::{
    descriptor_fields, descriptor_number, generator_fingerprint, job_space, merge_stats_rows,
    parsed_options, stats_row_from_token, stats_row_token, target_fingerprint, TargetStats,
};
use crate::differential::{classify, run_on_targets_session, targets_for, TestTarget};
use crate::exec::{job_seed, StagedJob};
use crate::journal::{JournalError, JournalHeader};
use crate::shard::{parse_fields, Campaign, JournalPayload};
use clsmith::{generate, mutate, CoverageMap, GeneratorOptions};
use opencl_sim::{Configuration, ExecOptions, Session};
use std::sync::Arc;

/// How a lineage decides whether a mutant becomes the new chain head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusStrategy {
    /// Accept a mutant only when it covers at least one new bit.
    Guided,
    /// Accept every mutant (the no-feedback ablation).
    Blind,
}

impl CorpusStrategy {
    /// Both strategies, in job-space (and table-column) order.
    pub const ALL: [CorpusStrategy; 2] = [CorpusStrategy::Guided, CorpusStrategy::Blind];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            CorpusStrategy::Guided => "guided",
            CorpusStrategy::Blind => "blind",
        }
    }
}

/// Options controlling corpus-campaign scale.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Lineages per strategy (both strategies reuse the same base seeds, so
    /// the comparison is paired).
    pub lineages: usize,
    /// Mutations per lineage; every lineage executes `1 + chain` kernels.
    pub chain: usize,
    /// Base generator options (seed overridden per lineage).
    pub generator: GeneratorOptions,
    /// Execution options.
    pub exec: ExecOptions,
    /// Seed offset so different campaigns use disjoint lineage sets.
    pub seed_offset: u64,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            lineages: 12,
            chain: 5,
            generator: GeneratorOptions::default(),
            exec: ExecOptions::default(),
            seed_offset: 0,
        }
    }
}

/// One lineage's worth of corpus work: generate the base kernel, then walk
/// the mutation chain, executing every link over the differential targets.
#[derive(Debug, Clone)]
pub struct CorpusJob {
    /// Selection strategy of this lineage.
    pub strategy: CorpusStrategy,
    /// The lineage's base-kernel seed (`job_seed(campaign_seed, lineage)`).
    pub seed: u64,
    /// Mutations to attempt.
    pub chain: usize,
    /// Base generator options (seed overridden by the field above).
    pub generator: GeneratorOptions,
    /// Execution options.
    pub exec: ExecOptions,
    /// The targets, shared across the whole batch.
    pub targets: Arc<Vec<TestTarget>>,
}

/// Stage-1 output of a [`CorpusJob`]: the generated base kernel plus the
/// chain context.
#[derive(Debug)]
pub struct GeneratedLineage {
    base: clc::Program,
    job: CorpusJob,
}

/// One lineage's journal payload and job output: the accumulated coverage
/// map, per-target verdict tallies over every executed link, and the
/// chain's acceptance counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusRecord {
    /// Coverage accumulated over the base kernel and every executed mutant.
    pub coverage: CoverageMap,
    /// Per-target verdict tallies (base + mutants), in target order.
    pub stats: Vec<TargetStats>,
    /// Mutants executed (the chain links that produced a program).
    pub executed: u32,
    /// Mutants accepted as the new chain head.
    pub accepted: u32,
    /// Mutants rejected by the guided acceptance test.
    pub rejected: u32,
}

impl StagedJob for CorpusJob {
    type Generated = GeneratedLineage;
    type Executed = CorpusRecord;
    type Output = CorpusRecord;

    fn generate(self) -> GeneratedLineage {
        let gen_opts = GeneratorOptions {
            seed: self.seed,
            ..self.generator.clone()
        };
        GeneratedLineage {
            base: generate(&gen_opts),
            job: self,
        }
    }

    fn execute(generated: GeneratedLineage) -> CorpusRecord {
        let GeneratedLineage { base, job } = generated;
        // Structurally identical links (a mutation that undoes an earlier
        // one) collapse to the campaign cache's outcomes, and the cached
        // coverage replays bit-identically.
        let mut stats = vec![TargetStats::default(); job.targets.len()];
        let record = |program: &clc::Program, stats: &mut [TargetStats]| -> CoverageMap {
            let session = Session::new(program);
            let outcomes = run_on_targets_session(&session, &job.targets, &job.exec);
            for (stat, verdict) in stats.iter_mut().zip(classify(&outcomes)) {
                stat.record(verdict);
            }
            session.coverage()
        };
        let mut coverage = record(&base, &mut stats);
        let (mut executed, mut accepted, mut rejected) = (0u32, 0u32, 0u32);
        let mut current = base;
        for step in 0..job.chain {
            // Mutation seeds derive from the lineage seed and the step, so a
            // lineage replays identically regardless of which worker runs it.
            let Some((mutant, _mutation)) = mutate(&current, job_seed(job.seed, 1 + step as u64))
            else {
                continue;
            };
            executed += 1;
            let mutant_coverage = record(&mutant, &mut stats);
            let fresh = coverage.new_bits(&mutant_coverage);
            // The lineage observes the mutant's coverage either way — what
            // the strategy controls is only where the chain continues from.
            coverage.merge(&mutant_coverage);
            let accept = match job.strategy {
                CorpusStrategy::Guided => fresh > 0,
                CorpusStrategy::Blind => true,
            };
            if accept {
                accepted += 1;
                current = mutant;
            } else {
                rejected += 1;
            }
        }
        CorpusRecord {
            coverage,
            stats,
            executed,
            accepted,
            rejected,
        }
    }

    fn judge(executed: CorpusRecord) -> CorpusRecord {
        executed
    }
}

impl JournalPayload for CorpusRecord {
    fn width(&self) -> usize {
        self.stats.len()
    }

    fn encode(&self) -> String {
        format!(
            "{}|{}|{},{},{}",
            self.coverage.token(),
            stats_row_token(&self.stats),
            self.executed,
            self.accepted,
            self.rejected,
        )
    }

    fn decode(text: &str) -> Result<CorpusRecord, JournalError> {
        let bad = || JournalError::Format(format!("bad corpus record {text:?}"));
        let mut parts = text.split('|');
        let coverage = CoverageMap::parse(parts.next().ok_or_else(bad)?).ok_or_else(bad)?;
        let stats = stats_row_from_token(parts.next().ok_or_else(bad)?)?;
        let counters = parse_fields::<u32>(parts.next().ok_or_else(bad)?, ',', "corpus counters")?;
        if parts.next().is_some() || counters.len() != 3 {
            return Err(bad());
        }
        Ok(CorpusRecord {
            coverage,
            stats,
            executed: counters[0],
            accepted: counters[1],
            rejected: counters[2],
        })
    }
}

/// The folded state of one strategy's half of a corpus campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrategyTally {
    /// Union of every lineage's coverage map.
    pub coverage: CoverageMap,
    /// Per-target verdict tallies over every executed kernel.
    pub per_target: Vec<TargetStats>,
    /// Lineages folded in.
    pub lineages: u64,
    /// Mutants executed across all lineages.
    pub executed: u64,
    /// Mutants accepted.
    pub accepted: u64,
    /// Mutants rejected.
    pub rejected: u64,
}

impl StrategyTally {
    fn new(targets: usize) -> StrategyTally {
        StrategyTally {
            per_target: vec![TargetStats::default(); targets],
            ..StrategyTally::default()
        }
    }

    /// Folds one lineage's record in.
    pub fn record(&mut self, record: &CorpusRecord) {
        self.coverage.merge(&record.coverage);
        merge_stats_rows(&mut self.per_target, &record.stats);
        self.lineages += 1;
        self.executed += u64::from(record.executed);
        self.accepted += u64::from(record.accepted);
        self.rejected += u64::from(record.rejected);
    }

    /// Kernels executed (every kernel contributes one verdict per target).
    pub fn kernels(&self) -> usize {
        self.per_target.first().map_or(0, TargetStats::total)
    }

    /// Bug-exposing results: wrong code, build failures and crashes summed
    /// over every target (the numerator of the paper-style bug yield).
    pub fn bugs(&self) -> u64 {
        self.per_target
            .iter()
            .map(|s| (s.wrong + s.build_failures + s.crashes) as u64)
            .sum()
    }

    /// Bug-exposing results per executed kernel — the headline
    /// feedback-vs-blind axis (`0.0` when nothing ran yet).
    pub fn bugs_per_kernel(&self) -> f64 {
        if self.kernels() == 0 {
            0.0
        } else {
            self.bugs() as f64 / self.kernels() as f64
        }
    }

    /// Fraction of the 256 coverage bits this strategy saturated.
    pub fn saturation(&self) -> f64 {
        self.coverage.saturation()
    }

    /// Fraction of executed mutants that were accepted (`0.0` when no
    /// mutant ran yet).
    pub fn acceptance_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.executed as f64
        }
    }
}

/// The aggregation state of a corpus campaign: one [`StrategyTally`] per
/// strategy, in [`CorpusStrategy::ALL`] order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusTally {
    /// One tally per strategy, in [`CorpusStrategy::ALL`] order.
    pub per_strategy: [StrategyTally; 2],
}

impl CorpusTally {
    /// An empty tally over `targets` columns.
    pub fn new(targets: usize) -> CorpusTally {
        CorpusTally {
            per_strategy: [StrategyTally::new(targets), StrategyTally::new(targets)],
        }
    }

    /// The tally of one strategy.
    pub fn strategy(&self, strategy: CorpusStrategy) -> &StrategyTally {
        match strategy {
            CorpusStrategy::Guided => &self.per_strategy[0],
            CorpusStrategy::Blind => &self.per_strategy[1],
        }
    }
}

/// Result of a corpus campaign: both strategies' folded tallies over the
/// same target columns and kernel budget.
#[derive(Debug, Clone)]
pub struct CorpusCampaignResult {
    /// The targets, in column order.
    pub targets: Vec<TestTarget>,
    /// The folded per-strategy state.
    pub tally: CorpusTally,
}

impl CorpusCampaignResult {
    /// The guided strategy's tally.
    pub fn guided(&self) -> &StrategyTally {
        self.tally.strategy(CorpusStrategy::Guided)
    }

    /// The blind strategy's tally.
    pub fn blind(&self) -> &StrategyTally {
        self.tally.strategy(CorpusStrategy::Blind)
    }
}

/// The self-describing campaign descriptor of a corpus-campaign journal.
pub fn corpus_campaign_descriptor(options: &CorpusOptions, targets: &[TestTarget]) -> String {
    format!(
        "corpus:l{}:c{}:gen{:016x}:cfg{:016x}",
        options.lineages,
        options.chain,
        generator_fingerprint(&options.generator),
        target_fingerprint(targets)
    )
}

/// Parses a [`corpus_campaign_descriptor`] back into (lineages, chain),
/// validating the target fingerprint against `targets`.
fn parse_corpus_descriptor(
    descriptor: &str,
    targets: &[TestTarget],
) -> Result<(usize, usize), JournalError> {
    let fields = descriptor_fields(descriptor, "corpus", 5, targets)?;
    Ok((
        descriptor_number(fields[1], 'l')?,
        descriptor_number(fields[2], 'c')?,
    ))
}

/// A corpus campaign: the job space is strategy-major — jobs
/// `0..lineages` are the guided lineages, `lineages..2*lineages` the blind
/// ones — and both strategies reuse the same lineage seeds
/// (`job_seed(seed_offset, lineage)`), so the comparison is paired at equal
/// budget.
#[derive(Debug, Clone)]
pub struct CorpusCampaign {
    /// Campaign scale options.
    pub options: CorpusOptions,
    /// The targets, in column order.
    pub targets: Arc<Vec<TestTarget>>,
}

impl CorpusCampaign {
    /// The corpus campaign over `configs` at both optimisation levels.
    ///
    /// # Panics
    ///
    /// When its job count overflows (see [`CorpusCampaign::try_new`]).
    pub fn new(configs: &[Configuration], options: &CorpusOptions) -> CorpusCampaign {
        CorpusCampaign::try_new(configs, options).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`CorpusCampaign::new`], or an error when two strategies ×
    /// `options.lineages` jobs do not fit a 64-bit job index.
    pub fn try_new(
        configs: &[Configuration],
        options: &CorpusOptions,
    ) -> Result<CorpusCampaign, String> {
        job_space(CorpusStrategy::ALL.len(), options.lineages)?;
        Ok(CorpusCampaign {
            options: options.clone(),
            targets: Arc::new(targets_for(configs)),
        })
    }

    /// The (full or partial) result a tally renders as.
    pub fn result(&self, tally: CorpusTally) -> CorpusCampaignResult {
        CorpusCampaignResult {
            targets: self.targets.to_vec(),
            tally,
        }
    }
}

impl Campaign for CorpusCampaign {
    type Job = CorpusJob;
    type Tally = CorpusTally;

    fn descriptor(&self) -> String {
        corpus_campaign_descriptor(&self.options, &self.targets)
    }

    fn parse(header: &JournalHeader, configs: &[Configuration]) -> Result<Self, JournalError> {
        let targets = targets_for(configs);
        let (lineages, chain) = parse_corpus_descriptor(&header.campaign, &targets)?;
        job_space(CorpusStrategy::ALL.len(), lineages).map_err(JournalError::Format)?;
        let parsed = parsed_options(0, header.campaign_seed);
        let options = CorpusOptions {
            lineages,
            chain,
            generator: parsed.generator,
            exec: parsed.exec,
            seed_offset: header.campaign_seed,
        };
        Ok(CorpusCampaign {
            options,
            targets: Arc::new(targets),
        })
    }

    fn seed(&self) -> u64 {
        self.options.seed_offset
    }

    fn total_jobs(&self) -> u64 {
        job_space(CorpusStrategy::ALL.len(), self.options.lineages).expect("checked when built")
    }

    fn job(&self, g: u64) -> (u64, CorpusJob) {
        let lineages = self.options.lineages as u64;
        let seed = job_seed(self.options.seed_offset, g % lineages);
        let job = CorpusJob {
            strategy: CorpusStrategy::ALL[(g / lineages) as usize],
            seed,
            chain: self.options.chain,
            generator: self.options.generator.clone(),
            exec: self.options.exec.clone(),
            targets: Arc::clone(&self.targets),
        };
        (seed, job)
    }

    fn tally(&self) -> CorpusTally {
        CorpusTally::new(self.targets.len())
    }

    fn fold(&self, tally: &mut CorpusTally, g: u64, record: CorpusRecord) {
        tally.per_strategy[(g / self.options.lineages as u64) as usize].record(&record);
    }

    fn width(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::Verdict;
    use crate::exec::Scheduler;
    use crate::shard::{run_shard, ShardSelect};

    fn sample_record(bit: u32) -> CorpusRecord {
        let mut coverage = CoverageMap::new();
        coverage.set(clsmith::CoverageClass::Rules, bit);
        let mut stats = vec![TargetStats::default(); 2];
        stats[0].record(Verdict::WrongCode);
        stats[1].record(Verdict::Ok);
        CorpusRecord {
            coverage,
            stats,
            executed: 5,
            accepted: 3,
            rejected: 2,
        }
    }

    #[test]
    fn corpus_record_roundtrips_through_the_journal_encoding() {
        let record = sample_record(17);
        let token = record.encode();
        assert!(!token.contains(char::is_whitespace));
        assert_eq!(CorpusRecord::decode(&token).unwrap(), record);
        assert!(CorpusRecord::decode("garbage").is_err());
    }

    #[test]
    fn strategy_tally_rates() {
        let mut tally = StrategyTally::new(2);
        assert_eq!(tally.bugs_per_kernel(), 0.0);
        assert_eq!(tally.acceptance_rate(), 0.0);
        tally.record(&sample_record(9));
        assert_eq!(tally.kernels(), 1);
        assert_eq!(tally.bugs(), 1);
        assert!(tally.bugs_per_kernel() > 0.0);
        assert!((tally.acceptance_rate() - 0.6).abs() < 1e-9);
        assert!(tally.saturation() > 0.0);
    }

    #[test]
    fn descriptor_roundtrips_and_pins_the_target_set() {
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(3)];
        let targets = targets_for(&configs);
        let options = CorpusOptions {
            lineages: 7,
            chain: 4,
            ..CorpusOptions::default()
        };
        let descriptor = corpus_campaign_descriptor(&options, &targets);
        assert_eq!(
            parse_corpus_descriptor(&descriptor, &targets).unwrap(),
            (7, 4)
        );
        let other = targets_for(&[opencl_sim::configuration(5)]);
        assert!(parse_corpus_descriptor(&descriptor, &other).is_err());
    }

    #[test]
    fn guided_and_blind_lineages_share_base_seeds_at_equal_budget() {
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(3)];
        let options = CorpusOptions {
            lineages: 2,
            chain: 3,
            ..CorpusOptions::default()
        };
        let campaign = CorpusCampaign::new(&configs, &options);
        let run = run_shard(&Scheduler::new(2), &campaign, ShardSelect::whole(), None).unwrap();
        let result = campaign.result(run.aggregate);
        let (guided, blind) = (result.guided(), result.blind());
        assert_eq!(guided.lineages, 2);
        assert_eq!(blind.lineages, 2);
        // Equal kernel budget: every lineage executes 1 + chain kernels.
        assert_eq!(guided.kernels(), 2 * (1 + 3));
        assert_eq!(guided.kernels(), blind.kernels());
        // Blind accepts everything it executes.
        assert_eq!(blind.accepted, blind.executed);
        assert_eq!(blind.rejected, 0);
        assert_eq!(guided.accepted + guided.rejected, guided.executed);
        // Both observed real coverage.
        assert!(guided.saturation() > 0.0);
        assert!(blind.saturation() > 0.0);
    }
}
