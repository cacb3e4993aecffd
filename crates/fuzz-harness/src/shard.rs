//! The shard/merge layer: every campaign is a [`Campaign`] — an explicit,
//! serializable job index space with a tally its jobs fold into — and runs
//! through one executor, [`run_range_fold`], with an optional resumable
//! journal ([`crate::journal`]) and a deterministic merge.
//!
//! * [`ShardSpec`] / [`ShardSelect`] — a campaign's job space is
//!   `0..total_jobs`; a spec names one contiguous slice of it (shard `i` of
//!   `n`).  Because every job's seed is a pure function of the campaign
//!   seed and the job *index* (`campaign_seed → splitmix → job_seed`), any
//!   slice is independently computable on any machine.
//! * [`run_range_fold`] — the executor: it runs the jobs of one range that
//!   its journal does not already hold, writes each completed record to
//!   its journal as it arrives, and folds every output into the tally in
//!   job-index order.  [`run_shard`] runs a shard under its `I/N` header;
//!   [`run_lease`] runs a fleet lease under its lease header.
//! * [`merge`] — any subset of a campaign's shard or lease journals merges
//!   into one tally for full or partial tables, rebuilding the campaign
//!   from the journals' header alone ([`Campaign::parse`]).
//!
//! Journals hold only per-job records, so resume and merge share one path:
//! decode the journaled records and fold them in job order.  The invariant
//! the invariance matrix (`crates/bench/tests/matrix/mod.rs`) pins for
//! every campaign: for a fixed campaign seed, *(single process)* ≡ *(N
//! shards merged)* ≡ *(killed at any job boundary, then resumed)* ≡
//! *(interrupted and resumed leases merged)* — bit-identical rendered
//! tables.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

use opencl_sim::{Configuration, ExecOptions};

use crate::exec::{JobFailure, JobResult, Scheduler, StagedJob};
use crate::fleet::LeaseRecord;
use crate::journal::{load_journal, JournalError, JournalHeader, JournalRecord, JournalWriter};

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
/// `make_job` maps a global job index to its derived seed and job.
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
        make_job,
        Vec::new(),
        |outputs, g, output| {
            outputs.push((g, output));
            Ok(())
        },
    )?;
    Ok(ShardRun {
        outputs: run.aggregate,
        metrics: run.metrics,
    })
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
/// regardless).  A resumed run decodes the journal's records and folds them
/// through the same watermark, so it costs one decode per journaled job and
/// no execution.
///
/// `fold` must agree with the journal payload round-trip: an executed
/// output is folded via `decode(encode(output))`, exactly the value a
/// resumed run would fold, so the two are bit-identical by construction.
/// A `fold` error — a journaled output the campaign cannot fold — ends the
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
pub fn run_range_fold<J, A>(
    scheduler: &Scheduler,
    header: &JournalHeader,
    journal: Option<&JournalOptions>,
    stop_before: Option<u64>,
    make_job: impl Fn(u64) -> (u64, J),
    mut aggregate: A,
    mut fold: impl FnMut(&mut A, u64, J::Output) -> Result<(), JournalError>,
) -> Result<FoldRun<A>, JournalError>
where
    J: StagedJob,
    J::Output: JournalPayload,
{
    let range = header.range.0..header.range.1;
    let limit = stop_before
        .unwrap_or(range.end)
        .clamp(range.start, range.end);

    // Phase 1: resume — restore the journaled records and advance the
    // watermark over them.
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

    // Phase 2: the jobs still missing below the execution limit, built
    // lazily as the scheduler's bounded queue drains, so a range of any
    // size streams in memory bounded by the worker count.  A resumed
    // journal may already reach past the limit.
    let start = watermark.min(limit);
    let resumed: Vec<u64> = staged.range(start..limit).map(|(&g, _)| g).collect();
    let jobs_replayed = limit - start - resumed.len() as u64;
    let jobs = (start..limit)
        .filter(|g| resumed.binary_search(g).is_err())
        .map(|g| {
            let (seed, job) = make_job(g);
            Tagged { g, seed, job }
        });

    // Phase 3: execute, journaling every record and folding at the
    // watermark as the contiguous completed prefix grows.
    let mut writer = match journal {
        Some(options) => Some(match resume_from {
            Some(valid_bytes) => JournalWriter::append(&options.path, valid_bytes)?,
            None => JournalWriter::create(&options.path, header)?,
        }),
        None => None,
    };
    let mut fold_error: Option<JournalError> = None;
    let mut failures: Vec<JobFailure> = Vec::new();
    scheduler.run_streaming(jobs, |_, result| {
        let (index, seed, output) = match result {
            JobResult::Completed(tagged) => tagged,
            JobResult::Failed(failure) => {
                failures.push(failure);
                return;
            }
        };
        if fold_error.is_some() {
            return;
        }
        let token = output.encode();
        if let Some(writer) = &mut writer {
            writer.record(JournalRecord::new(index, seed, token.clone()));
        }
        // Fold through the journal token round-trip so an executed job
        // contributes bit-identically to a resumed one.
        let folded = J::Output::decode(&token).and_then(|decoded| {
            staged.insert(index, decoded);
            while let Some(next) = staged.remove(&watermark) {
                fold(&mut aggregate, watermark, next)?;
                watermark += 1;
            }
            Ok(())
        });
        if let Err(e) = folded {
            fold_error = Some(e);
        }
    });
    let journal_bytes = match writer {
        Some(writer) => writer.finish()?,
        None => 0,
    };

    // Phase 4: re-raise the first contained panic, then surface any fold
    // error.
    if let Some(failure) = failures.iter().min_by_key(|f| f.index) {
        panic!("{failure}");
    }
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

/// A job of a range carrying its global index and seed to the fold, which
/// receives outputs in completion order.
struct Tagged<J> {
    g: u64,
    seed: u64,
    job: J,
}

impl<J: StagedJob> StagedJob for Tagged<J> {
    type Generated = (u64, u64, J::Generated);
    type Executed = (u64, u64, J::Executed);
    type Output = (u64, u64, J::Output);

    fn generate(self) -> Self::Generated {
        (self.g, self.seed, self.job.generate())
    }

    fn execute((g, seed, generated): Self::Generated) -> Self::Executed {
        (g, seed, J::execute(generated))
    }

    fn judge((g, seed, executed): Self::Executed) -> Self::Output {
        (g, seed, J::judge(executed))
    }
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
/// [`JournalPayload`]) is folded into the campaign's tally by
/// [`Campaign::fold`] in job-index order.  A campaign is its journal
/// header: [`Campaign::descriptor`] names every input its jobs read
/// besides the seed, so [`Campaign::parse`] rebuilds from a header a
/// campaign that runs the very jobs of the one that wrote it.
pub trait Campaign: Sized {
    /// One job of the space.
    type Job: StagedJob<Output: JournalPayload>;
    /// The aggregation state jobs fold into.
    type Tally;

    /// The single-token descriptor written into every journal header.
    fn descriptor(&self) -> String;
    /// Builds the campaign a header's descriptor and seed name, through the
    /// constructor a fresh run uses, over `configs` (the configurations the
    /// table covers), its jobs executing with `exec`.
    fn decode(
        header: &JournalHeader,
        configs: &[Configuration],
        exec: ExecOptions,
    ) -> Result<Self, JournalError>;
    /// [`Campaign::decode`], accepting the header only when the rebuilt
    /// campaign's descriptor, seed and job count are the header's.
    fn parse(
        header: &JournalHeader,
        configs: &[Configuration],
        exec: ExecOptions,
    ) -> Result<Self, JournalError> {
        let campaign = Self::decode(header, configs, exec)?;
        let descriptor = campaign.descriptor();
        if descriptor != header.campaign
            || campaign.seed() != header.campaign_seed
            || campaign.total_jobs() != header.total_jobs
        {
            return Err(JournalError::Mismatch(format!(
                "the header's campaign {:?} (seed {:016x}, {} jobs) does not round-trip",
                header.campaign, header.campaign_seed, header.total_jobs
            )));
        }
        Ok(campaign)
    }
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

/// Runs one shard of `campaign` under its `I/N` header, optionally
/// journaled and resumed.
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
        |g| campaign.job(g),
        campaign.tally(),
        |tally, g, output| fold_checked(campaign, tally, g, output),
    )
}

/// Runs one fleet lease of `campaign`: its range under a lease header,
/// resuming the lease journal's records, truncated at `stop_before` when a
/// fault is scheduled there.
pub fn run_lease<C: Campaign>(
    scheduler: &Scheduler,
    campaign: &C,
    lease: &LeaseRecord,
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
/// header (with default execution options: a merge runs no job), and every
/// journal must carry the same descriptor, seed and job count.  Records are
/// folded in job-index order; duplicate indices must carry identical
/// digests (overlapping shards or leases are fine, conflicting ones are
/// corrupt).
///
/// Journal input is checked before anything is folded: a header the
/// campaign does not round-trip, a record outside its journal's range, and
/// an output of the wrong width are each a [`JournalError`].
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
    let campaign = C::parse(&header, configs, ExecOptions::default())?;
    let mut records: BTreeMap<u64, JournalRecord> = BTreeMap::new();
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
    let jobs_folded = records.len() as u64;
    let mut tally = campaign.tally();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

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
        fn decode(
            header: &JournalHeader,
            _: &[Configuration],
            _: ExecOptions,
        ) -> Result<Sum, JournalError> {
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

    /// Runs lease `id` of `campaign` over `range`, stopping before
    /// `stop_before`.
    fn lease(
        campaign: &Sum,
        id: u32,
        range: Range<u64>,
        path: &Path,
        stop_before: Option<u64>,
    ) -> FoldRun<u64> {
        let lease = LeaseRecord {
            id,
            start: range.start,
            end: range.end,
            attempt: 1,
            journal: path.to_path_buf(),
        };
        run_lease(&Scheduler::new(3), campaign, &lease, stop_before).unwrap()
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

    /// Counts jobs built and started, and the most ever built but not yet
    /// started.
    #[derive(Default)]
    struct BuildCounters {
        built: AtomicU64,
        started: AtomicU64,
        most_waiting: AtomicU64,
    }

    /// A job that reports its start to its counters.
    struct Counted(Arc<BuildCounters>);

    impl StagedJob for Counted {
        type Generated = ();
        type Executed = ();
        type Output = u64;
        fn generate(self) {
            self.0.started.fetch_add(1, Ordering::SeqCst);
        }
        fn execute(_: ()) {}
        fn judge(_: ()) -> u64 {
            1
        }
    }

    #[test]
    fn jobs_are_built_only_as_the_queue_drains() {
        let counters = Arc::new(BuildCounters::default());
        let scheduler = Scheduler::new(3);
        let spec = ShardSpec::select(1, 10_000, ShardSelect::whole());
        let make_job = |g: u64| {
            let built = counters.built.fetch_add(1, Ordering::SeqCst) + 1;
            let waiting = built - counters.started.load(Ordering::SeqCst);
            counters.most_waiting.fetch_max(waiting, Ordering::SeqCst);
            (g, Counted(Arc::clone(&counters)))
        };
        let sum = |total: &mut u64, _: u64, output: u64| {
            *total += output;
            Ok(())
        };
        let header = spec.header("test:bounded");
        let run = run_range_fold(&scheduler, &header, None, None, make_job, 0, sum).unwrap();
        assert_eq!(run.aggregate, 10_000);
        // The queue bound is four jobs per worker.
        let most = counters.most_waiting.load(Ordering::SeqCst);
        assert!(most <= 4 * 3, "{most} jobs were built ahead of the workers");
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
    fn range_fold_resumes_an_interrupted_lease_from_its_records() {
        // An interrupted lease attempt (stop_before) journals its records
        // only; the next attempt resumes from them, and the final aggregate
        // and the journal's merge equal the plain fold.
        let path = temp_path("rangefold");
        let campaign = sum("fold", 5, 40);
        let expected: u64 = (10..30u64).map(|i| i * 2).sum();

        // Attempt 1: stop before job 21 (fault-injection style truncation).
        let partial = lease(&campaign, 2, 10..30, &path, Some(21));
        assert_eq!(partial.jobs, 11);
        let loaded = load_journal(&path).unwrap();
        let mut journaled: Vec<u64> = loaded.records.iter().map(|r| r.job_index).collect();
        journaled.sort_unstable();
        assert_eq!(journaled, (10..21).collect::<Vec<_>>());

        // Attempt 2: resume to completion.
        let run = lease(&campaign, 2, 10..30, &path, None);
        assert_eq!(run.aggregate, expected);
        assert_eq!(run.metrics.jobs_resumed, 11);
        assert_eq!(run.metrics.jobs_replayed, 9);
        assert_eq!(run.jobs, 20);

        let (_, total, summary) = merge::<Sum>(std::slice::from_ref(&path), &[]).unwrap();
        assert_eq!(total, expected);
        assert_eq!(summary.jobs_folded, 20);
        assert!(!summary.complete, "a 20-job lease of a 40-job space");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resuming_a_journal_that_reaches_past_the_stop_index_runs_nothing() {
        let path = temp_path("paststop");
        let campaign = sum("past", 5, 40);
        let partial = lease(&campaign, 1, 10..30, &path, Some(21));
        // Resume with the stop index below the journal's watermark.
        let run = lease(&campaign, 1, 10..30, &path, Some(15));
        assert_eq!(run.aggregate, partial.aggregate);
        assert_eq!(run.metrics.jobs_resumed, 11);
        assert_eq!(run.metrics.jobs_replayed, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refold_mixes_overlapping_lease_and_shard_journals() {
        // Lease 0 journals [0, 7); shard 1/2 journals [6, 12).  Job 6 is in
        // both with the same digest, so the merge folds it once and matches
        // the whole-space fold.
        let lease_path = temp_path("mix-lease");
        let shard_path = temp_path("mix-shard");
        let campaign = sum("mix", 3, 12);
        lease(&campaign, 0, 0..7, &lease_path, None);
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
