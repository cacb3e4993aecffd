//! The shard/merge layer: every campaign is a [`Campaign`] — an explicit,
//! serializable job index space with a mergeable tally — and runs through
//! one executor, [`run_range_fold`], with an optional resumable journal
//! ([`crate::journal`]) and a deterministic merge.
//!
//! * [`ShardSpec`] / [`ShardSelect`] — a campaign's job space is
//!   `0..total_jobs`; a spec names one contiguous slice of it (shard `i` of
//!   `n`).  Because every job's seed is a pure function of the campaign
//!   seed and the job *index* (`campaign_seed → splitmix → job_seed`), any
//!   slice is independently computable on any machine.
//! * [`run_range_fold`] — the executor: it runs the jobs of one range that
//!   its journal does not already hold, streams each completed record to
//!   the journal's writer thread, and folds every output into the tally in
//!   job-index order.  [`run_shard`] runs a shard as a checkpoint-free
//!   range under its `I/N` header; [`run_lease`] runs a fleet lease with
//!   checkpoints under its lease header.
//! * [`Mergeable`] + [`merge`] — tallies serialize, deserialize and merge
//!   associatively, and any subset of a campaign's shard or lease journals
//!   merges into one tally for full or partial tables, rebuilding the
//!   campaign from the journals' descriptor alone.
//!
//! The invariant the `shard_equivalence` integration test pins: for a fixed
//! campaign seed, *(single process)* ≡ *(N shards merged)* ≡ *(killed at
//! any job boundary, then resumed)* — bit-identical rendered tables.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

use opencl_sim::Configuration;

use crate::exec::{expect_completed, JobResult, Scheduler, StagedJob};
use crate::fleet::LeaseRecord;
use crate::journal::{
    compact_journal, load_journal, Checkpoint, JournalError, JournalHeader, JournalRecord,
    JournalWriter,
};

/// A shard's slice of a campaign: the campaign seed, the size of the global
/// job index space, and which contiguous slice of it this shard covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// The campaign seed every job seed derives from.
    pub campaign_seed: u64,
    /// Size of the global job index space.
    pub total_jobs: u64,
    /// Index of this shard.
    pub shard_index: u32,
    /// Total number of shards the job space is partitioned into.
    pub shard_count: u32,
}

impl ShardSpec {
    /// Shard `select.index` of `select.count` over `0..total_jobs`.
    pub fn select(campaign_seed: u64, total_jobs: u64, select: ShardSelect) -> ShardSpec {
        ShardSpec {
            campaign_seed,
            total_jobs,
            shard_index: select.index,
            shard_count: select.count,
        }
    }

    /// The contiguous job-index slice this shard covers.  The partition is
    /// exact: consecutive shards tile `0..total_jobs` without gaps or
    /// overlaps, and sizes differ by at most one job.
    pub fn job_range(&self) -> Range<u64> {
        let total = self.total_jobs as u128;
        let count = self.shard_count.max(1) as u128;
        let index = (self.shard_index as u128).min(count - 1);
        let start = (total * index / count) as u64;
        let end = (total * (index + 1) / count) as u64;
        start..end
    }

    /// Number of jobs in this shard's slice.
    pub fn jobs(&self) -> u64 {
        let range = self.job_range();
        range.end - range.start
    }

    /// The header a journal for this shard carries.
    pub fn header(&self, campaign: &str) -> JournalHeader {
        let range = self.job_range();
        JournalHeader {
            campaign: campaign.to_string(),
            campaign_seed: self.campaign_seed,
            total_jobs: self.total_jobs,
            shard_index: self.shard_index,
            shard_count: self.shard_count,
            range: (range.start, range.end),
        }
    }
}

/// The header a fleet lease journal carries: the shard field is
/// `lease/0` — count `0` is the "not an I-of-N shard" sentinel — and the
/// journal's coverage is the explicit `[start, end)` range of the lease.
pub fn lease_header(
    campaign: &str,
    campaign_seed: u64,
    total_jobs: u64,
    lease: u32,
    range: Range<u64>,
) -> JournalHeader {
    JournalHeader {
        campaign: campaign.to_string(),
        campaign_seed,
        total_jobs,
        shard_index: lease,
        shard_count: 0,
        range: (range.start, range.end),
    }
}

/// Which shard of how many — the `--shard I/N` selector of the table
/// binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSelect {
    /// Shard index, `0 <= index < count`.
    pub index: u32,
    /// Total shard count, at least 1.
    pub count: u32,
}

impl ShardSelect {
    /// The degenerate selector covering the whole job space.
    pub fn whole() -> ShardSelect {
        ShardSelect { index: 0, count: 1 }
    }

    /// Parses `"I/N"` (e.g. `"0/3"`), validating `I < N` and `N >= 1`.
    pub fn parse(text: &str) -> Result<ShardSelect, String> {
        let invalid = || format!("expected --shard I/N with I < N, got {text:?}");
        let (index, count) = text.split_once('/').ok_or_else(invalid)?;
        let index: u32 = index.parse().map_err(|_| invalid())?;
        let count: u32 = count.parse().map_err(|_| invalid())?;
        if count == 0 || index >= count {
            return Err(invalid());
        }
        Ok(ShardSelect { index, count })
    }
}

impl std::fmt::Display for ShardSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// An aggregation state that campaign shards fold into: it serializes to a
/// single whitespace-free token, deserializes back, and merges
/// **associatively** (merging per-shard aggregates in any grouping yields
/// the same state as folding every job into one aggregate).
pub trait Mergeable: Sized {
    /// Folds `other` into `self`; both must have the [same
    /// shape](Mergeable::same_shape).
    fn merge(&mut self, other: Self);
    /// Whether `other` has this tally's shape (mode and target counts), so
    /// that merging it is defined.  A journal's checkpoint tally is checked
    /// against the campaign's empty tally before it is merged.
    fn same_shape(&self, other: &Self) -> bool;
    /// Serializes to a single whitespace-free token.
    fn serialize(&self) -> String;
    /// Parses a token produced by [`Mergeable::serialize`].
    fn deserialize(text: &str) -> Result<Self, JournalError>;
}

/// A per-job output that can be journaled: encodes to a single
/// whitespace-free token and decodes back to an identical value, so a
/// resumed campaign folds journaled jobs bit-identically to executed ones.
pub trait JournalPayload: Sized {
    /// Encodes to a single whitespace-free token.
    fn encode(&self) -> String;
    /// Parses a token produced by [`JournalPayload::encode`].
    fn decode(text: &str) -> Result<Self, JournalError>;
    /// Target columns the output carries (a verdict row's length); a
    /// campaign folds only outputs of its own [width](Campaign::width).
    fn width(&self) -> usize {
        1
    }
}

/// Where (and whether) a run journals its progress.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Journal file path.
    pub path: PathBuf,
    /// Resume: load the journal first, skip its jobs, and append; without
    /// it the journal is created afresh (truncating any existing file).
    pub resume: bool,
}

impl JournalOptions {
    /// A fresh journal at `path`.
    pub fn create(path: impl Into<PathBuf>) -> JournalOptions {
        JournalOptions {
            path: path.into(),
            resume: false,
        }
    }

    /// Resume from (and append to) the journal at `path`.
    pub fn resume(path: impl Into<PathBuf>) -> JournalOptions {
        JournalOptions {
            path: path.into(),
            resume: true,
        }
    }
}

/// What a run did: how much came from the journal, how much ran, and how
/// big the journal grew.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Jobs restored from the journal instead of executed.
    pub jobs_resumed: u64,
    /// Jobs executed by this run (after any resume skip).
    pub jobs_replayed: u64,
    /// Final size of the journal file in bytes (0 without a journal).
    pub journal_bytes: u64,
    /// Corrupt tail bytes dropped on resume (a mid-write kill's residue).
    pub dropped_bytes: u64,
    /// Shard count of the header the run executed under (0 for a lease).
    pub shard_count: u32,
}

/// Output of [`run_sharded`]: every (job index, output) pair of the
/// shard's slice in job-index order, plus run metrics.
#[derive(Debug)]
pub struct ShardRun<T> {
    /// (global job index, job output) in ascending index order.
    pub outputs: Vec<(u64, T)>,
    /// Resume/journal metrics.
    pub metrics: ShardMetrics,
}

/// Validates that a loaded journal belongs to the campaign and shard the
/// caller is about to run.
fn validate_header(
    loaded: &JournalHeader,
    expected: &JournalHeader,
    path: &Path,
) -> Result<(), JournalError> {
    if loaded == expected {
        return Ok(());
    }
    Err(JournalError::Mismatch(format!(
        "{} was written under {loaded:?}, expected {expected:?}",
        path.display()
    )))
}

/// Runs one shard's slice and returns every job's output in index order —
/// [`run_range_fold`] under the shard's header, folding into a list.
///
/// `make_job` maps a global job index to its derived seed and job.  Shard
/// runs write no checkpoints, so a journal carrying one cannot resume here.
/// Outside this module's tests, only the campaign benchmark
/// (`campaign-bench`) calls it; campaigns run through [`run_shard`].
pub fn run_sharded<J, F>(
    scheduler: &Scheduler,
    spec: &ShardSpec,
    campaign: &str,
    journal: Option<&JournalOptions>,
    make_job: F,
) -> Result<ShardRun<J::Output>, JournalError>
where
    J: StagedJob,
    J::Output: JournalPayload,
    F: Fn(u64) -> (u64, J),
{
    let run = run_range_fold(
        scheduler,
        &spec.header(campaign),
        journal,
        None,
        None,
        make_job,
        Outputs(Vec::new()),
        |outputs, g, output| {
            outputs.0.push((g, output));
            Ok(())
        },
    )?;
    Ok(ShardRun {
        outputs: run.aggregate.0,
        metrics: run.metrics,
    })
}

/// [`run_sharded`]'s aggregate: the outputs themselves, in fold order.
struct Outputs<T>(Vec<(u64, T)>);

impl<T> Mergeable for Outputs<T> {
    fn merge(&mut self, other: Self) {
        self.0.extend(other.0);
    }

    fn same_shape(&self, _: &Self) -> bool {
        true
    }

    fn serialize(&self) -> String {
        unreachable!("shard runs write no checkpoints")
    }

    fn deserialize(_: &str) -> Result<Self, JournalError> {
        let msg = "a checkpointed journal cannot resume a per-output shard run";
        Err(JournalError::Mismatch(msg.into()))
    }
}

/// How often a fold-based run emits journal checkpoints: one `K` line per
/// `every` newly folded jobs (plus a final one at the end of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Jobs folded between checkpoints (at least 1).
    pub every: u64,
}

/// Output of [`run_range_fold`]: the folded aggregate of the journal's
/// range, plus run metrics.
#[derive(Debug)]
pub struct FoldRun<A> {
    /// Every covered job's contribution folded in ascending index order.
    pub aggregate: A,
    /// Jobs the aggregate covers (resumed + executed).
    pub jobs: u64,
    /// Resume/journal metrics.
    pub metrics: ShardMetrics,
}

/// The executor every campaign runs on: the jobs of `header.range` that the
/// journal does not already hold, folded into `aggregate`.
///
/// Completed jobs are folded as soon as the **contiguous completed prefix**
/// of the range advances past them (a watermark — jobs finish out of order
/// under a parallel scheduler, the fold stays in ascending index order
/// regardless).  With a
/// [`CheckpointPolicy`] the running aggregate is serialized into the
/// journal as a `K` line every `every` folded jobs, and the journal is
/// compacted after the run — resume cost is then O(tail since last
/// checkpoint), not O(run).
///
/// `fold` must agree with the journal payload round-trip: an executed
/// output is folded via `decode(encode(output))`, exactly the value a
/// resumed run would fold, so the two are bit-identical by construction.
/// The aggregate's [`Mergeable::merge`] must be commutative as well as
/// associative (every tally in this codebase is a vector of counters).  A
/// `fold` error — a journaled output the campaign cannot fold — ends the
/// run with that error.
///
/// `stop_before` truncates execution to `[range.0, stop_before)` while
/// keeping the journal's declared range intact — the fault-injection layer
/// uses it to abandon a lease at a chosen job index; a later resume of the
/// same journal completes the rest.
///
/// A panicking job is re-raised deterministically (lowest failed index)
/// *after* every completed job of the batch has been journaled, so even a
/// campaign aborted by a poisoned job resumes from everything that
/// finished.
#[allow(clippy::too_many_arguments)]
pub fn run_range_fold<J, A>(
    scheduler: &Scheduler,
    header: &JournalHeader,
    journal: Option<&JournalOptions>,
    checkpoint: Option<CheckpointPolicy>,
    stop_before: Option<u64>,
    make_job: impl Fn(u64) -> (u64, J),
    mut aggregate: A,
    mut fold: impl FnMut(&mut A, u64, J::Output) -> Result<(), JournalError>,
) -> Result<FoldRun<A>, JournalError>
where
    J: StagedJob,
    J::Output: JournalPayload,
    A: Mergeable,
{
    let range = header.range.0..header.range.1;
    let limit = stop_before
        .unwrap_or(range.end)
        .clamp(range.start, range.end);

    // Phase 1: resume — seed the aggregate from the checkpoint, restore the
    // uncovered records, and advance the watermark over both.
    let mut watermark = range.start;
    let mut staged: BTreeMap<u64, J::Output> = BTreeMap::new();
    let mut jobs_resumed = 0u64;
    let mut dropped_bytes = 0u64;
    let mut resume_from: Option<u64> = None;
    if let Some(options) = journal {
        if options.resume && options.path.exists() {
            let loaded = load_journal(&options.path)?;
            validate_header(&loaded.header, header, &options.path)?;
            dropped_bytes = loaded.dropped_bytes;
            resume_from = Some(loaded.valid_bytes);
            if let Some(cp) = &loaded.checkpoint {
                merge_checkpoint(&mut aggregate, &cp.aggregate, &options.path)?;
                watermark = cp.upto;
                jobs_resumed += cp.jobs;
            }
            for record in loaded.records {
                check_in_range(&record, &range, &options.path)?;
                staged.insert(record.job_index, J::Output::decode(&record.payload)?);
                jobs_resumed += 1;
            }
            while let Some(output) = staged.remove(&watermark) {
                fold(&mut aggregate, watermark, output)?;
                watermark += 1;
            }
        }
    }

    // Phase 2: the jobs still missing below the execution limit.
    let mut meta: Vec<(u64, u64)> = Vec::new();
    let mut jobs: Vec<J> = Vec::new();
    for index in watermark..limit {
        if !staged.contains_key(&index) {
            let (seed, job) = make_job(index);
            meta.push((index, seed));
            jobs.push(job);
        }
    }

    // Phase 3: execute, folding at the watermark and checkpointing as the
    // contiguous completed prefix grows.
    let writer = match journal {
        Some(options) => Some(match resume_from {
            Some(valid_bytes) => JournalWriter::append(&options.path, valid_bytes)?,
            None => JournalWriter::create(&options.path, header)?,
        }),
        None => None,
    };
    let jobs_replayed = jobs.len() as u64;
    let mut checkpointed_upto = watermark;
    let mut since_checkpoint = 0u64;
    let mut fold_error: Option<JournalError> = None;
    let results = scheduler.run_streaming(jobs, |batch_index, result| {
        let JobResult::Completed(output) = result else {
            return;
        };
        if fold_error.is_some() {
            return;
        }
        let (index, seed) = meta[batch_index];
        let token = output.encode();
        if let Some(writer) = &writer {
            writer.record(JournalRecord::new(index, seed, token.clone()));
        }
        // Fold through the journal token round-trip so an executed job
        // contributes bit-identically to a resumed one.
        let folded = J::Output::decode(&token).and_then(|decoded| {
            staged.insert(index, decoded);
            while let Some(next) = staged.remove(&watermark) {
                fold(&mut aggregate, watermark, next)?;
                watermark += 1;
                since_checkpoint += 1;
            }
            Ok(())
        });
        if let Err(e) = folded {
            fold_error = Some(e);
            return;
        }
        if let (Some(policy), Some(writer)) = (&checkpoint, &writer) {
            if since_checkpoint >= policy.every.max(1) && watermark > checkpointed_upto {
                writer.checkpoint(Checkpoint {
                    upto: watermark,
                    jobs: watermark - range.start,
                    aggregate: aggregate.serialize(),
                });
                checkpointed_upto = watermark;
                since_checkpoint = 0;
            }
        }
    });
    if let (Some(_), Some(writer)) = (&checkpoint, &writer) {
        // Final checkpoint: everything folded so far, so the compacted
        // journal is header + one K line (+ any out-of-order residue).
        if watermark > checkpointed_upto && fold_error.is_none() {
            writer.checkpoint(Checkpoint {
                upto: watermark,
                jobs: watermark - range.start,
                aggregate: aggregate.serialize(),
            });
        }
    }
    let mut journal_bytes = match writer {
        Some(writer) => writer.finish()?,
        None => 0,
    };
    if let (Some(_), Some(options)) = (&checkpoint, journal) {
        let (_, after) = compact_journal(&options.path)?;
        journal_bytes = after;
    }

    // Phase 4: re-raise contained panics, then surface any fold error.
    expect_completed(results);
    if let Some(error) = fold_error {
        return Err(error);
    }
    debug_assert!(watermark >= limit, "every job below the limit must fold");
    Ok(FoldRun {
        aggregate,
        jobs: jobs_resumed + jobs_replayed,
        metrics: ShardMetrics {
            jobs_resumed,
            jobs_replayed,
            journal_bytes,
            dropped_bytes,
            shard_count: header.shard_count,
        },
    })
}

/// Merges a journal's checkpoint tally into `aggregate`, refusing one whose
/// shape differs from the campaign's.
fn merge_checkpoint<A: Mergeable>(
    aggregate: &mut A,
    token: &str,
    path: &Path,
) -> Result<(), JournalError> {
    let part = A::deserialize(token)?;
    if !aggregate.same_shape(&part) {
        return Err(JournalError::Format(format!(
            "{} holds a checkpoint tally of the wrong shape for its campaign",
            path.display()
        )));
    }
    aggregate.merge(part);
    Ok(())
}

/// Refuses a record outside the journal's declared range.
fn check_in_range(
    record: &JournalRecord,
    range: &Range<u64>,
    path: &Path,
) -> Result<(), JournalError> {
    if range.contains(&record.job_index) {
        return Ok(());
    }
    Err(JournalError::Mismatch(format!(
        "{} contains job {} outside range {}..{}",
        path.display(),
        record.job_index,
        range.start,
        range.end
    )))
}

/// A campaign's job space: what every shard run, fleet lease and merge of
/// it needs to agree on.
///
/// Job `g` of `0..total_jobs()` is built by [`Campaign::job`] with its
/// seed, run whole on one worker, and its output (journaled as a
/// [`JournalPayload`]) is folded into the campaign's [`Mergeable`] tally by
/// [`Campaign::fold`] in job-index order.  [`Campaign::descriptor`] names
/// the job space in every journal header, and [`Campaign::parse`] rebuilds
/// the campaign from such a header: the job space, tally and fold — all a
/// merge needs — but not job inputs the descriptor only fingerprints
/// (generator options, live bases), so a parsed campaign is merged, never
/// run.
pub trait Campaign: Sized {
    /// One job of the space.
    type Job: StagedJob<Output: JournalPayload>;
    /// The aggregation state jobs fold into.
    type Tally: Mergeable;

    /// The single-token descriptor written into every journal header.
    fn descriptor(&self) -> String;
    /// Rebuilds the campaign from a journal header (`configs` are the
    /// target configurations the merging table renders).
    fn parse(header: &JournalHeader, configs: &[Configuration]) -> Result<Self, JournalError>;
    /// The campaign seed every job seed derives from.
    fn seed(&self) -> u64;
    /// Size of the job index space.
    fn total_jobs(&self) -> u64;
    /// Job `g` and its derived seed (recorded in the journal).
    fn job(&self, g: u64) -> (u64, Self::Job);
    /// The empty tally.
    fn tally(&self) -> Self::Tally;
    /// Folds job `g`'s output into `tally`.
    fn fold(&self, tally: &mut Self::Tally, g: u64, output: Output<Self>);
    /// The [width](JournalPayload::width) of every job's output.
    fn width(&self) -> usize {
        1
    }
}

/// What one job of campaign `C` journals and folds.
pub type Output<C> = <<C as Campaign>::Job as StagedJob>::Output;

/// [`Campaign::fold`] behind the check every executor and merge shares: an
/// output of the wrong width (a corrupt or foreign journal record) is a
/// [`JournalError`], never a panic.
fn fold_checked<C: Campaign>(
    campaign: &C,
    tally: &mut C::Tally,
    g: u64,
    output: Output<C>,
) -> Result<(), JournalError> {
    if output.width() != campaign.width() {
        return Err(JournalError::Format(format!(
            "job {g} has {} column(s); the campaign's jobs have {}",
            output.width(),
            campaign.width()
        )));
    }
    campaign.fold(tally, g, output);
    Ok(())
}

/// Runs one shard of `campaign`: a checkpoint-free range under its `I/N`
/// header, optionally journaled and resumed.
pub fn run_shard<C: Campaign>(
    scheduler: &Scheduler,
    campaign: &C,
    select: ShardSelect,
    journal: Option<&JournalOptions>,
) -> Result<FoldRun<C::Tally>, JournalError> {
    let spec = ShardSpec::select(campaign.seed(), campaign.total_jobs(), select);
    run_range_fold(
        scheduler,
        &spec.header(&campaign.descriptor()),
        journal,
        None,
        None,
        |g| campaign.job(g),
        campaign.tally(),
        |tally, g, output| fold_checked(campaign, tally, g, output),
    )
}

/// Runs one fleet lease of `campaign`: its range under a lease header,
/// resuming the lease journal and checkpointing into it, truncated at
/// `stop_before` when a fault is scheduled there.
pub fn run_lease<C: Campaign>(
    scheduler: &Scheduler,
    campaign: &C,
    lease: &LeaseRecord,
    checkpoint: CheckpointPolicy,
    stop_before: Option<u64>,
) -> Result<FoldRun<C::Tally>, JournalError> {
    let header = lease_header(
        &campaign.descriptor(),
        campaign.seed(),
        campaign.total_jobs(),
        lease.id,
        lease.start..lease.end,
    );
    run_range_fold(
        scheduler,
        &header,
        Some(&JournalOptions::resume(&lease.journal)),
        Some(checkpoint),
        stop_before,
        |g| campaign.job(g),
        campaign.tally(),
        |tally, g, output| fold_checked(campaign, tally, g, output),
    )
}

/// What a merge over a set of journals covered.
#[derive(Debug, Clone)]
pub struct RefoldSummary {
    /// The campaign header shared by every journal (shard fields taken from
    /// the first journal; they differ across shards by design).
    pub campaign: String,
    /// The campaign seed.
    pub campaign_seed: u64,
    /// Size of the global job space.
    pub total_jobs: u64,
    /// Distinct jobs folded.
    pub jobs_folded: u64,
    /// Whether every job of the space was present (a complete table).
    pub complete: bool,
    /// Number of journal files merged.
    pub journals: usize,
}

/// Merges any subset of a campaign's shard or lease journals into one
/// tally, without generating or running a single job.
///
/// The campaign is [parsed](Campaign::parse) from the first journal's
/// header, and every journal must carry the same descriptor, seed and job
/// count.  Records are folded in job-index order; duplicate indices must
/// carry identical digests (overlapping shards are fine, conflicting ones
/// are corrupt).  A journal carrying a checkpoint contributes its
/// pre-folded tally directly; its segment `[range.0, upto)` must not
/// overlap any other journal's checkpoint segment (there is no per-job
/// digest left to arbitrate a conflict), and plain records duplicated under
/// a checkpoint segment are dropped as redundant.
///
/// Journal input is checked before anything is folded: a header job count
/// that differs from the campaign's, a record outside its journal's range,
/// and an output or checkpoint tally of the wrong width are each a
/// [`JournalError`].
pub fn merge<C: Campaign>(
    paths: &[PathBuf],
    configs: &[Configuration],
) -> Result<(C, C::Tally, RefoldSummary), JournalError> {
    let journals = paths
        .iter()
        .map(|path| Ok((path, load_journal(path)?)))
        .collect::<Result<Vec<_>, JournalError>>()?;
    let Some((_, first)) = journals.first() else {
        return Err(JournalError::Mismatch(
            "no journals to merge (expected at least one path)".into(),
        ));
    };
    let header = first.header.clone();
    let campaign = C::parse(&header, configs)?;
    if campaign.total_jobs() != header.total_jobs {
        return Err(JournalError::Mismatch(format!(
            "journals claim {} jobs; campaign {:?} has {}",
            header.total_jobs,
            header.campaign,
            campaign.total_jobs()
        )));
    }
    let mut tally = campaign.tally();
    let mut records: BTreeMap<u64, JournalRecord> = BTreeMap::new();
    // Checkpoint segments as (start, upto, source path).
    let mut segments: Vec<(u64, u64, &Path)> = Vec::new();
    // (descriptor, seed, job count): what every journal must share.
    let key = |h: &JournalHeader| (h.campaign.clone(), h.campaign_seed, h.total_jobs);
    for (path, journal) in journals {
        let h = &journal.header;
        if key(h) != key(&header) {
            return Err(JournalError::Mismatch(format!(
                "{} belongs to campaign {:?}; the first journal holds {:?}",
                path.display(),
                key(h),
                key(&header)
            )));
        }
        if h.range.1 > h.total_jobs {
            return Err(JournalError::Mismatch(format!(
                "{} covers jobs {}..{} of a {}-job campaign",
                path.display(),
                h.range.0,
                h.range.1,
                h.total_jobs
            )));
        }
        if let Some(cp) = journal.checkpoint.filter(|cp| cp.jobs > 0) {
            merge_checkpoint(&mut tally, &cp.aggregate, path)?;
            segments.push((h.range.0, cp.upto, path.as_path()));
        }
        let range = h.range.0..h.range.1;
        for record in journal.records {
            check_in_range(&record, &range, path)?;
            match records.get(&record.job_index) {
                Some(existing) if existing.digest != record.digest => {
                    return Err(JournalError::Mismatch(format!(
                        "job {} appears with conflicting digests across journals \
                         ({:016x} vs {:016x})",
                        record.job_index, existing.digest, record.digest
                    )));
                }
                Some(_) => {}
                None => {
                    records.insert(record.job_index, record);
                }
            }
        }
    }
    segments.sort_by_key(|(start, _, _)| *start);
    for pair in segments.windows(2) {
        let ((_, upto, prev), (start, _, next)) = (pair[0], pair[1]);
        if upto > start {
            return Err(JournalError::Mismatch(format!(
                "checkpoint segments overlap: {} covers through job {upto} but {} \
                 starts at job {start}",
                prev.display(),
                next.display(),
            )));
        }
    }
    // Records a checkpoint already folded are redundant duplicates.
    records.retain(|index, _| {
        !segments
            .iter()
            .any(|(start, upto, _)| (*start..*upto).contains(index))
    });
    let jobs_folded = segments
        .iter()
        .map(|(start, upto, _)| upto - start)
        .sum::<u64>()
        + records.len() as u64;
    for (index, record) in records {
        let output = JournalPayload::decode(&record.payload)?;
        fold_checked(&campaign, &mut tally, index, output)?;
    }
    let summary = RefoldSummary {
        complete: jobs_folded == header.total_jobs,
        campaign: header.campaign,
        campaign_seed: header.campaign_seed,
        total_jobs: header.total_jobs,
        jobs_folded,
        journals: paths.len(),
    };
    Ok((campaign, tally, summary))
}

/// Splits `value` on `sep` and parses each piece — the small-deserializer
/// helper every [`Mergeable`]/[`JournalPayload`] implementation in the
/// driver modules shares.
pub(crate) fn parse_fields<T: std::str::FromStr>(
    text: &str,
    sep: char,
    what: &str,
) -> Result<Vec<T>, JournalError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(sep)
        .map(|piece| {
            piece.parse::<T>().map_err(|_| {
                JournalError::Format(format!("bad {what} field {piece:?} in {text:?}"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_the_job_space_exactly() {
        for total in [0u64, 1, 2, 7, 97, 1000] {
            for count in [1u32, 2, 3, 5, 8, 13] {
                let mut covered = 0u64;
                let mut next = 0u64;
                for index in 0..count {
                    let spec = ShardSpec {
                        campaign_seed: 0,
                        total_jobs: total,
                        shard_index: index,
                        shard_count: count,
                    };
                    let range = spec.job_range();
                    assert_eq!(range.start, next, "gap/overlap at shard {index}/{count}");
                    next = range.end;
                    covered += spec.jobs();
                    // Balanced partition: sizes differ by at most one.
                    let ideal = total / count as u64;
                    assert!(spec.jobs() == ideal || spec.jobs() == ideal + 1);
                }
                assert_eq!(next, total);
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn shard_select_parses_and_validates() {
        assert_eq!(
            ShardSelect::parse("0/3").unwrap(),
            ShardSelect { index: 0, count: 3 }
        );
        assert_eq!(ShardSelect::parse("2/3").unwrap().to_string(), "2/3");
        for bad in ["3/3", "1/0", "x/2", "1", "", "1/2/3", "-1/2"] {
            assert!(ShardSelect::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// A trivial journalable staged job for executor tests.
    #[derive(Debug)]
    struct Double(u64);

    impl StagedJob for Double {
        type Generated = u64;
        type Executed = u64;
        type Output = u64;
        fn generate(self) -> u64 {
            self.0
        }
        fn execute(generated: u64) -> u64 {
            generated * 2
        }
        fn judge(executed: u64) -> u64 {
            executed
        }
    }

    impl JournalPayload for u64 {
        fn encode(&self) -> String {
            self.to_string()
        }
        fn decode(text: &str) -> Result<Self, JournalError> {
            text.parse()
                .map_err(|_| JournalError::Format(format!("bad u64 payload {text:?}")))
        }
    }

    impl Mergeable for u64 {
        fn merge(&mut self, other: Self) {
            *self += other;
        }
        fn same_shape(&self, _: &Self) -> bool {
            true
        }
        fn serialize(&self) -> String {
            self.to_string()
        }
        fn deserialize(text: &str) -> Result<Self, JournalError> {
            text.parse()
                .map_err(|_| JournalError::Format(format!("bad u64 aggregate {text:?}")))
        }
    }

    /// A campaign of [`Double`] jobs summing their outputs; its descriptor
    /// is `test:<name>:<total jobs>`.
    #[derive(Debug)]
    struct Sum {
        name: String,
        seed: u64,
        total: u64,
    }

    impl Campaign for Sum {
        type Job = Double;
        type Tally = u64;
        fn descriptor(&self) -> String {
            format!("test:{}:{}", self.name, self.total)
        }
        fn parse(header: &JournalHeader, _: &[Configuration]) -> Result<Sum, JournalError> {
            match header.campaign.split(':').collect::<Vec<_>>()[..] {
                ["test", name, total] => {
                    Ok(sum(name, header.campaign_seed, total.parse().unwrap()))
                }
                _ => Err(JournalError::Mismatch(header.campaign.clone())),
            }
        }
        fn seed(&self) -> u64 {
            self.seed
        }
        fn total_jobs(&self) -> u64 {
            self.total
        }
        fn job(&self, g: u64) -> (u64, Double) {
            make_job(g)
        }
        fn tally(&self) -> u64 {
            0
        }
        fn fold(&self, tally: &mut u64, _: u64, output: u64) {
            *tally += output;
        }
    }

    fn sum(name: &str, seed: u64, total: u64) -> Sum {
        Sum {
            name: name.to_string(),
            seed,
            total,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "clfuzz-shard-test-{}-{name}.log",
            std::process::id()
        ))
    }

    fn make_job(index: u64) -> (u64, Double) {
        (1000 + index, Double(index))
    }

    /// Runs lease `id` of `campaign` over `range` with checkpoints every
    /// `every` jobs, stopping before `stop_before`.
    fn lease(
        campaign: &Sum,
        id: u32,
        range: Range<u64>,
        path: &Path,
        every: u64,
        stop_before: Option<u64>,
    ) -> FoldRun<u64> {
        let lease = LeaseRecord {
            id,
            start: range.start,
            end: range.end,
            attempt: 1,
            journal: path.to_path_buf(),
        };
        run_lease(
            &Scheduler::new(3),
            campaign,
            &lease,
            CheckpointPolicy { every },
            stop_before,
        )
        .unwrap()
    }

    #[test]
    fn sharded_outputs_cover_the_slice_in_index_order() {
        let scheduler = Scheduler::new(4);
        let spec = ShardSpec::select(9, 20, ShardSelect { index: 1, count: 3 });
        let run = run_sharded(&scheduler, &spec, "test:exec", None, make_job).unwrap();
        let range = spec.job_range();
        assert_eq!(run.outputs.len(), spec.jobs() as usize);
        for (offset, (index, output)) in run.outputs.iter().enumerate() {
            assert_eq!(*index, range.start + offset as u64);
            assert_eq!(*output, index * 2);
        }
        assert_eq!(run.metrics.jobs_resumed, 0);
        assert_eq!(run.metrics.jobs_replayed, spec.jobs());
        assert_eq!(run.metrics.shard_count, 3);
    }

    #[test]
    fn journal_then_resume_skips_completed_jobs() {
        let path = temp_path("resume");
        let scheduler = Scheduler::new(2);
        let spec = ShardSpec::select(5, 10, ShardSelect::whole());
        let first = run_sharded::<Double, _>(
            &scheduler,
            &spec,
            "test:resume",
            Some(&JournalOptions::create(&path)),
            make_job,
        )
        .unwrap();
        assert_eq!(first.metrics.jobs_replayed, 10);
        assert!(first.metrics.journal_bytes > 0);

        // Chop the journal down to its first 4 records plus half of the
        // fifth (a mid-write kill).
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: usize = text
            .lines()
            .take(5) // header + 4 records
            .map(|l| l.len() + 1)
            .sum();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((keep + 9) as u64)
            .unwrap();

        let resumed = run_sharded::<Double, _>(
            &scheduler,
            &spec,
            "test:resume",
            Some(&JournalOptions::resume(&path)),
            make_job,
        )
        .unwrap();
        assert_eq!(resumed.metrics.jobs_resumed, 4);
        assert_eq!(resumed.metrics.jobs_replayed, 6);
        assert!(resumed.metrics.dropped_bytes > 0);
        assert_eq!(resumed.outputs, first.outputs);

        // The healed journal now covers the full job space.
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_journal_from_another_campaign() {
        let path = temp_path("mismatch");
        let scheduler = Scheduler::sequential();
        let spec = ShardSpec::select(5, 4, ShardSelect::whole());
        run_sharded::<Double, _>(
            &scheduler,
            &spec,
            "test:a",
            Some(&JournalOptions::create(&path)),
            make_job,
        )
        .unwrap();
        let err = run_sharded::<Double, _>(
            &scheduler,
            &spec,
            "test:b",
            Some(&JournalOptions::resume(&path)),
            make_job,
        )
        .unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
        // Same campaign but different seed: also rejected.
        let err = run_sharded::<Double, _>(
            &scheduler,
            &ShardSpec::select(6, 4, ShardSelect::whole()),
            "test:a",
            Some(&JournalOptions::resume(&path)),
            make_job,
        )
        .unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refold_merges_shard_journals_into_one_aggregate() {
        let scheduler = Scheduler::new(3);
        let campaign = sum("merge", 7, 11);
        let mut paths = Vec::new();
        for index in 0..3u32 {
            let path = temp_path(&format!("merge-{index}"));
            let journal = JournalOptions::create(&path);
            let select = ShardSelect { index, count: 3 };
            run_shard(&scheduler, &campaign, select, Some(&journal)).unwrap();
            paths.push(path);
        }
        let (_, total, summary) = merge::<Sum>(&paths, &[]).unwrap();
        assert_eq!(total, (0..11u64).map(|i| i * 2).sum::<u64>());
        assert!(summary.complete);
        assert_eq!(summary.jobs_folded, 11);
        assert_eq!(summary.journals, 3);

        // A subset of shards merges too — partial, not complete.
        let (_, partial, summary) = merge::<Sum>(&paths[..2], &[]).unwrap();
        assert!(!summary.complete);
        assert!(partial < total);
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn range_fold_checkpoints_compact_and_resume() {
        // A checkpointing lease run: the compacted journal must be tiny
        // (header + one K line), an interrupted attempt (stop_before) must
        // resume from the checkpoint, and the final aggregate must equal
        // the plain fold.
        let path = temp_path("rangefold");
        let campaign = sum("fold", 5, 40);
        let expected: u64 = (10..30u64).map(|i| i * 2).sum();

        // Attempt 1: stop before job 21 (fault-injection style truncation).
        let partial = lease(&campaign, 2, 10..30, &path, 4, Some(21));
        assert_eq!(partial.jobs, 11);
        let loaded = load_journal(&path).unwrap();
        let cp = loaded.checkpoint.as_ref().unwrap();
        assert_eq!(cp.upto, 21);
        assert_eq!(cp.jobs, 11);
        assert!(
            loaded.records.is_empty(),
            "compaction folds all records into the final checkpoint"
        );

        // Attempt 2: resume to completion.
        let run = lease(&campaign, 2, 10..30, &path, 4, None);
        assert_eq!(run.aggregate, expected);
        assert_eq!(run.metrics.jobs_resumed, 11);
        assert_eq!(run.metrics.jobs_replayed, 9);
        assert_eq!(run.jobs, 20);

        // The compacted journal merges (checkpoint consumed, no records).
        let (_, total, summary) = merge::<Sum>(std::slice::from_ref(&path), &[]).unwrap();
        assert_eq!(total, expected);
        assert_eq!(summary.jobs_folded, 20);
        assert!(!summary.complete, "a 20-job lease of a 40-job space");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refold_mixes_checkpointed_and_plain_journals() {
        // Lease 0 journals [0, 6) with checkpoints; shard 1/2 journals
        // [6, 12) as plain records.  The merge must consume both forms and
        // match the whole-space fold.
        let lease_path = temp_path("mix-lease");
        let shard_path = temp_path("mix-shard");
        let campaign = sum("mix", 3, 12);
        lease(&campaign, 0, 0..6, &lease_path, 2, None);
        let select = ShardSelect { index: 1, count: 2 };
        let journal = JournalOptions::create(&shard_path);
        run_shard(&Scheduler::sequential(), &campaign, select, Some(&journal)).unwrap();
        let paths = [lease_path.clone(), shard_path.clone()];
        let (_, total, summary) = merge::<Sum>(&paths, &[]).unwrap();
        assert_eq!(total, (0..12u64).map(|i| i * 2).sum::<u64>());
        assert_eq!(summary.jobs_folded, 12);
        assert!(summary.complete);
        let _ = std::fs::remove_file(&lease_path);
        let _ = std::fs::remove_file(&shard_path);
    }

    #[test]
    fn refold_rejects_overlapping_checkpoint_segments() {
        // Two checkpointed journals over overlapping ranges cannot be
        // arbitrated (no per-job digests under a checkpoint) — the merge
        // must refuse rather than double-count.
        let a = temp_path("overlap-a");
        let b = temp_path("overlap-b");
        let campaign = sum("overlap", 9, 10);
        lease(&campaign, 0, 0..6, &a, 2, None);
        lease(&campaign, 1, 4..10, &b, 2, None);
        let err = merge::<Sum>(&[a.clone(), b.clone()], &[]).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn refold_rejects_foreign_and_mixed_campaigns() {
        let scheduler = Scheduler::sequential();
        let a = temp_path("mixed-a");
        let b = temp_path("mixed-b");
        let c = temp_path("mixed-c");
        for (path, name) in [(&a, "one"), (&b, "two")] {
            let journal = JournalOptions::create(path);
            run_shard(
                &scheduler,
                &sum(name, 1, 3),
                ShardSelect::whole(),
                Some(&journal),
            )
            .unwrap();
        }
        let err = merge::<Sum>(&[a.clone(), b.clone()], &[]).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)));
        let spec = ShardSpec::select(1, 3, ShardSelect::whole());
        let journal = JournalOptions::create(&c);
        run_sharded(&scheduler, &spec, "alien", Some(&journal), make_job).unwrap();
        let err = merge::<Sum>(std::slice::from_ref(&c), &[]).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)));
        for path in [a, b, c] {
            let _ = std::fs::remove_file(path);
        }
    }
}
