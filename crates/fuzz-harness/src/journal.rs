//! The resumable on-disk campaign journal.
//!
//! A journal is an append-only text file recording, for one contiguous range
//! of one campaign's job index space, the outcome of every completed job.
//! It is the persistence substrate of the shard layer ([`crate::shard`]) and
//! the fleet coordinator ([`crate::fleet`]): kill a campaign at any point and
//! the journal holds everything completed so far; point a resumed run (or
//! the `merge` subcommand of a table binary) at it and the campaign
//! continues — or renders a partial table — without re-executing a single
//! journaled job.
//!
//! ## Format (version [`JOURNAL_FORMAT_VERSION`])
//!
//! One line per entry, space-separated single-token fields, every line
//! carrying its own checksum ([`checksum`], [`clc::fnv1a`]):
//!
//! ```text
//! CLFUZZ-JOURNAL 2 <campaign> <seed:016x> <total_jobs> <shard>/<of> <start>-<end> <crc:016x>
//! R <job_index> <job_seed:016x> <digest:016x> <payload> <crc:016x>
//! K <upto> <jobs> <aggregate> <crc:016x>
//! R ...
//! ```
//!
//! * The header is self-describing: format version, a campaign descriptor
//!   (a single token encoding the driver and its scale parameters, used to
//!   reject resumes/merges against the wrong campaign), the campaign seed,
//!   the size of the job index space, which shard of it this journal covers,
//!   and the explicit `[start, end)` job index range.  Fleet lease journals
//!   use the shard field `L/0` (`L` = lease ordinal, count `0` as the
//!   "not an I-of-N shard" sentinel) with the range carrying the lease.
//! * Each `R` record names its job index, the job's derived RNG seed, a
//!   digest of the payload (checked again on load), the serialized per-job
//!   tally contribution, and the line checksum.
//! * Each `K` checkpoint asserts that **every** job index in
//!   `[start, upto)` is complete and that their contributions fold to
//!   `aggregate` (a [`crate::shard::Mergeable`] token); `jobs` repeats
//!   `upto - start` as a cross-check.  A loader seeds its tally from the
//!   last valid checkpoint and replays only the records past it, making
//!   resume O(tail) instead of O(run); [`compact_journal`] rewrites the
//!   file down to header + checkpoint + uncovered records.
//! * Payloads are produced by [`crate::shard::JournalPayload`] encoders and
//!   must not contain whitespace or newlines; the writer enforces this.
//!
//! ## Robustness at the edges
//!
//! A process killed mid-write leaves a truncated final line.  [`load_journal`]
//! verifies every line's checksum and **stops at the first invalid line**,
//! reporting the byte offset of the last valid record so a resumed run can
//! truncate the corrupt tail and append from there — a half-written record
//! (or checkpoint) is dropped, degrading to the last good checkpoint plus
//! the records after it, never allowed to poison the campaign.
//!
//! ## Writer thread
//!
//! [`JournalWriter`] owns the file on a dedicated thread fed over an
//! unbounded channel: the scheduler's collector hands completed records over
//! as they arrive (completion order — the journal is an unordered set, the
//! fold re-sorts by job index) and no worker ever blocks on journal IO.
//! Each line is flushed as it is written, so a kill loses at most the few
//! jobs still in flight.  A failed write is retried once after truncating
//! back to the last good line boundary (transient errors — EINTR, brief
//! ENOSPC — heal); a persistent failure is surfaced from
//! [`JournalWriter::finish`] as [`JournalError::WriterFailed`] with a count
//! of the records that never reached disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Version tag of the on-disk journal format.  Bump when the line format
/// changes; [`load_journal`] accepts this version only.
pub const JOURNAL_FORMAT_VERSION: u32 = 2;

/// Magic token opening every journal header line.
pub const JOURNAL_MAGIC: &str = "CLFUZZ-JOURNAL";

/// Backoff before the writer thread's single retry of a failed write.
const WRITE_RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// The checksum protecting every journal line: FNV-1a 64 over the line's
/// bytes up to (and excluding) the trailing checksum field.
pub use clc::fnv1a as checksum;

/// Errors surfaced by the journal and shard layer.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A malformed header, record or payload.
    Format(String),
    /// A structurally valid journal that belongs to a different campaign,
    /// shard or format version than the caller expected.
    Mismatch(String),
    /// The writer thread hit a persistent I/O failure (one bounded retry
    /// already attempted).  The on-disk prefix up to the failure is still a
    /// valid, resumable journal.
    WriterFailed {
        /// The first unrecoverable write error, rendered.
        error: String,
        /// Queued lines that never reached disk.
        dropped: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal IO error: {e}"),
            JournalError::Format(msg) => write!(f, "malformed journal: {msg}"),
            JournalError::Mismatch(msg) => write!(f, "journal mismatch: {msg}"),
            JournalError::WriterFailed { error, dropped } => write!(
                f,
                "journal writer failed after retry ({error}); {dropped} queued line(s) lost"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The self-describing first line of a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Single-token campaign descriptor (driver kind + scale parameters,
    /// e.g. `modes:BARRIER:k20:cfg1a2b3c4d`).  Resume and merge reject
    /// journals whose descriptor does not match.
    pub campaign: String,
    /// The campaign seed every job seed derives from.
    pub campaign_seed: u64,
    /// Size of the campaign's job index space (across *all* shards).
    pub total_jobs: u64,
    /// Which shard of the job space this journal covers; for fleet lease
    /// journals this is the lease ordinal.
    pub shard_index: u32,
    /// How many shards the job space was partitioned into; `0` marks a
    /// fleet lease journal whose coverage is the explicit `range` alone.
    pub shard_count: u32,
    /// The contiguous `[start, end)` job index range this journal covers.
    pub range: (u64, u64),
}

impl JournalHeader {
    fn render(&self) -> Result<String, JournalError> {
        require_token("campaign descriptor", &self.campaign)?;
        let body = format!(
            "{JOURNAL_MAGIC} {JOURNAL_FORMAT_VERSION} {} {:016x} {} {}/{} {}-{}",
            self.campaign,
            self.campaign_seed,
            self.total_jobs,
            self.shard_index,
            self.shard_count,
            self.range.0,
            self.range.1
        );
        Ok(format!("{body} {:016x}", checksum(body.as_bytes())))
    }

    fn parse(line: &str) -> Option<JournalHeader> {
        let body = verify_line_checksum(line)?;
        let fields: Vec<&str> = body.split(' ').collect();
        if fields.len() != 7
            || fields[0] != JOURNAL_MAGIC
            || fields[1] != JOURNAL_FORMAT_VERSION.to_string()
        {
            return None;
        }
        let (shard_index, shard_count) = fields[5].split_once('/')?;
        let (start, end) = fields[6].split_once('-')?;
        let (start, end) = (start.parse().ok()?, end.parse().ok()?);
        Some(JournalHeader {
            campaign: fields[2].to_string(),
            campaign_seed: u64::from_str_radix(fields[3], 16).ok()?,
            total_jobs: fields[4].parse().ok()?,
            shard_index: shard_index.parse().ok()?,
            shard_count: shard_count.parse().ok()?,
            range: (start <= end).then_some((start, end))?,
        })
    }
}

/// One journaled job: its index in the campaign's job space, its derived
/// RNG seed, the digest of its payload, and the serialized per-job tally
/// contribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Index of the job in the campaign's global job space.
    pub job_index: u64,
    /// The job's derived RNG seed (`job_seed(campaign_seed, index)` or the
    /// driver's historical derivation), recorded for post-hoc analysis.
    pub job_seed: u64,
    /// Outcome digest: [`checksum`] of the payload bytes, stored separately
    /// from the line checksum so merges can cross-check duplicate records.
    pub digest: u64,
    /// The serialized per-job contribution (a single whitespace-free token).
    pub payload: String,
}

impl JournalRecord {
    /// Builds a record for a payload, computing its outcome digest.
    pub fn new(job_index: u64, job_seed: u64, payload: String) -> JournalRecord {
        let digest = checksum(payload.as_bytes());
        JournalRecord {
            job_index,
            job_seed,
            digest,
            payload,
        }
    }

    fn render(&self) -> Result<String, JournalError> {
        require_token("record payload", &self.payload)?;
        let body = format!(
            "R {} {:016x} {:016x} {}",
            self.job_index, self.job_seed, self.digest, self.payload
        );
        Ok(format!("{body} {:016x}", checksum(body.as_bytes())))
    }

    fn parse(line: &str) -> Option<JournalRecord> {
        let body = verify_line_checksum(line)?;
        let fields: Vec<&str> = body.split(' ').collect();
        if fields.len() != 5 || fields[0] != "R" {
            return None;
        }
        let record = JournalRecord {
            job_index: fields[1].parse().ok()?,
            job_seed: u64::from_str_radix(fields[2], 16).ok()?,
            digest: u64::from_str_radix(fields[3], 16).ok()?,
            payload: fields[4].to_string(),
        };
        // The digest is an independent check on the payload itself (the line
        // checksum already covered it, but merges compare digests across
        // journals, so a record whose digest lies about its payload is
        // corrupt).
        (checksum(record.payload.as_bytes()) == record.digest).then_some(record)
    }
}

/// A checkpoint record: every job index in `[header.range.0, upto)` is
/// complete and their contributions fold to `aggregate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Exclusive upper bound of the contiguous completed prefix.
    pub upto: u64,
    /// Number of jobs the checkpoint covers (`upto - range.0`), stored as a
    /// cross-check against the header's range.
    pub jobs: u64,
    /// The folded contribution of the covered jobs, serialized with
    /// [`crate::shard::Mergeable::serialize`] (a single token).
    pub aggregate: String,
}

impl Checkpoint {
    fn render(&self) -> Result<String, JournalError> {
        require_token("checkpoint aggregate", &self.aggregate)?;
        let body = format!("K {} {} {}", self.upto, self.jobs, self.aggregate);
        Ok(format!("{body} {:016x}", checksum(body.as_bytes())))
    }

    fn parse(line: &str) -> Option<Checkpoint> {
        let body = verify_line_checksum(line)?;
        let fields: Vec<&str> = body.split(' ').collect();
        if fields.len() != 4 || fields[0] != "K" {
            return None;
        }
        Some(Checkpoint {
            upto: fields[1].parse().ok()?,
            jobs: fields[2].parse().ok()?,
            aggregate: fields[3].to_string(),
        })
    }

    /// Internal consistency against the journal's declared range: a
    /// checkpoint claiming jobs outside the range (or a job count that
    /// disagrees with its bound) is corrupt.
    fn consistent_with(&self, header: &JournalHeader) -> bool {
        let (start, end) = header.range;
        start <= self.upto && self.upto <= end && self.jobs == self.upto - start
    }
}

/// Rejects tokens that would break the space-separated line format.
fn require_token(what: &str, token: &str) -> Result<(), JournalError> {
    if token.is_empty() || token.contains(char::is_whitespace) {
        return Err(JournalError::Format(format!(
            "{what} must be a non-empty whitespace-free token, got {token:?}"
        )));
    }
    Ok(())
}

/// Splits `line` into (body, crc) and verifies the checksum; returns the
/// body on success.
fn verify_line_checksum(line: &str) -> Option<&str> {
    let (body, crc) = line.rsplit_once(' ')?;
    let crc = u64::from_str_radix(crc, 16).ok()?;
    (checksum(body.as_bytes()) == crc).then_some(body)
}

/// A journal read back from disk: the header, the last valid checkpoint (if
/// any), every valid record past it, and how much of the file they account
/// for.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The parsed header.
    pub header: JournalHeader,
    /// Every record whose checksum verified and that is **not** already
    /// covered by `checkpoint`, in file order.
    pub records: Vec<JournalRecord>,
    /// The last valid checkpoint, covering `[header.range.0, upto)`.
    /// Records with `job_index < upto` were folded into its aggregate when
    /// it was written and are dropped from `records`.
    pub checkpoint: Option<Checkpoint>,
    /// Byte offset just past the last valid line — a resumed writer
    /// truncates the file here before appending.
    pub valid_bytes: u64,
    /// Bytes past `valid_bytes` (a truncated or corrupt tail, dropped).
    pub dropped_bytes: u64,
}

impl LoadedJournal {
    /// Number of completed jobs the journal accounts for: checkpoint
    /// coverage plus the uncovered records.
    pub fn jobs_completed(&self) -> u64 {
        self.checkpoint.as_ref().map_or(0, |c| c.jobs) + self.records.len() as u64
    }
}

/// Reads a journal, verifying every line's checksum and dropping the
/// corrupt tail a mid-write kill leaves behind (see the module docs).
///
/// A torn or corrupt checkpoint line stops the scan like any other bad
/// line: the journal degrades to the last *good* checkpoint plus the valid
/// records before the tear.
///
/// Returns `Format` if the header itself is missing or invalid — an empty
/// or headerless file is not a journal.
pub fn load_journal(path: &Path) -> Result<LoadedJournal, JournalError> {
    let mut file = File::open(path)?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw)?;
    let mut offset = 0usize;
    let mut header: Option<JournalHeader> = None;
    let mut records: Vec<JournalRecord> = Vec::new();
    let mut checkpoint: Option<Checkpoint> = None;
    let mut valid_bytes = 0usize;
    while offset < raw.len() {
        // A line is only complete (and only checksummed) once its newline
        // is on disk; anything after the last newline is in-flight tail.
        let Some(nl) = raw[offset..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let Ok(line) = std::str::from_utf8(&raw[offset..offset + nl]) else {
            break;
        };
        match &header {
            None => match JournalHeader::parse(line) {
                Some(h) => header = Some(h),
                None => break,
            },
            Some(h) if line.starts_with("K ") => {
                match Checkpoint::parse(line).filter(|c| c.consistent_with(h)) {
                    Some(c) => {
                        // The new checkpoint covers everything the previous
                        // one did plus the records folded since.
                        records.retain(|r| r.job_index >= c.upto);
                        checkpoint = Some(c);
                    }
                    None => break,
                }
            }
            Some(_) => match JournalRecord::parse(line) {
                Some(r) => records.push(r),
                None => break,
            },
        }
        offset += nl + 1;
        valid_bytes = offset;
    }
    let header = header.ok_or_else(|| {
        JournalError::Format(format!("{} has no valid journal header", path.display()))
    })?;
    if let Some(c) = &checkpoint {
        records.retain(|r| r.job_index >= c.upto);
    }
    Ok(LoadedJournal {
        header,
        records,
        checkpoint,
        valid_bytes: valid_bytes as u64,
        dropped_bytes: (raw.len() - valid_bytes) as u64,
    })
}

/// Rewrites a journal down to its canonical minimum: header, the last
/// checkpoint (if any), and the records it does not cover.  Also heals a
/// corrupt tail (the rewrite only carries valid lines).  Atomic: the new
/// content is staged in a sibling temp file and renamed over the original.
///
/// Returns `(bytes_before, bytes_after)`.
pub fn compact_journal(path: &Path) -> Result<(u64, u64), JournalError> {
    let loaded = load_journal(path)?;
    let bytes_before = loaded.valid_bytes + loaded.dropped_bytes;
    let mut text = loaded.header.render()?;
    text.push('\n');
    if let Some(c) = &loaded.checkpoint {
        text.push_str(&c.render()?);
        text.push('\n');
    }
    for r in &loaded.records {
        text.push_str(&r.render()?);
        text.push('\n');
    }
    let tmp = path.with_extension(format!("compact.{}", std::process::id()));
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, path)?;
    Ok((bytes_before, text.len() as u64))
}

/// Message protocol between the shard executor and the writer thread.
enum WriterMessage {
    Record(JournalRecord),
    Checkpoint(Checkpoint),
    Finish,
}

/// Per-write fault hook for the writer thread, used by tests to exercise
/// the retry path: called once per write *attempt* with a running attempt
/// ordinal; returning an error makes that attempt fail before touching the
/// file.
type WriteFaultHook = Box<dyn FnMut(u64) -> Option<std::io::Error> + Send>;

/// The file half of the writer thread: tracks the byte offset of the last
/// completed line so a failed write can be rolled back to a clean boundary
/// and retried exactly once.
struct FileSink {
    file: File,
    offset: u64,
    attempts: u64,
    faults: Option<WriteFaultHook>,
}

impl FileSink {
    fn attempt(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let ordinal = self.attempts;
        self.attempts += 1;
        if let Some(hook) = &mut self.faults {
            if let Some(err) = hook(ordinal) {
                return Err(err);
            }
        }
        self.file.write_all(bytes)?;
        self.file.flush()
    }

    /// Writes one full line (with newline), retrying once on failure after
    /// truncating back to the last good line boundary.
    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        if let Err(first) = self.attempt(&bytes) {
            // A transient failure may have left a partial prefix; roll the
            // file back to the line boundary so the journal stays valid no
            // matter how the retry goes, then try once more.
            std::thread::sleep(WRITE_RETRY_BACKOFF);
            self.file.set_len(self.offset).map_err(|_| first)?;
            self.file.seek(SeekFrom::Start(self.offset))?;
            self.attempt(&bytes)?;
        }
        self.offset += bytes.len() as u64;
        Ok(())
    }
}

/// The journal writer: a dedicated IO thread owning the file, fed over an
/// unbounded channel so the scheduler (and its workers) never block on disk.
#[derive(Debug)]
pub struct JournalWriter {
    tx: mpsc::Sender<WriterMessage>,
    handle: Option<JoinHandle<Result<u64, JournalError>>>,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` and writes the header.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<JournalWriter, JournalError> {
        JournalWriter::create_with_faults(path, header, None)
    }

    fn create_with_faults(
        path: &Path,
        header: &JournalHeader,
        faults: Option<WriteFaultHook>,
    ) -> Result<JournalWriter, JournalError> {
        let header_line = header.render()?;
        let mut file = File::create(path)?;
        file.write_all(header_line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        let offset = header_line.len() as u64 + 1;
        Ok(JournalWriter::spawn(file, offset, faults))
    }

    /// Reopens an existing journal for appending, first truncating it to
    /// `valid_bytes` (dropping the corrupt tail reported by
    /// [`load_journal`]).
    pub fn append(path: &Path, valid_bytes: u64) -> Result<JournalWriter, JournalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_bytes)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_bytes))?;
        Ok(JournalWriter::spawn(file, valid_bytes, None))
    }

    fn spawn(file: File, offset: u64, faults: Option<WriteFaultHook>) -> JournalWriter {
        let (tx, rx) = mpsc::channel::<WriterMessage>();
        let handle = std::thread::spawn(move || -> Result<u64, JournalError> {
            let mut sink = FileSink {
                file,
                offset,
                attempts: 0,
                faults,
            };
            let mut failure: Option<std::io::Error> = None;
            let mut dropped = 0u64;
            loop {
                let line = match rx.recv() {
                    Ok(WriterMessage::Record(record)) => record.render()?,
                    Ok(WriterMessage::Checkpoint(checkpoint)) => checkpoint.render()?,
                    Ok(WriterMessage::Finish) | Err(_) => break,
                };
                if failure.is_some() {
                    // Past the first persistent failure, drain and count so
                    // senders never block and the loss is reported exactly.
                    dropped += 1;
                    continue;
                }
                if let Err(e) = sink.write_line(&line) {
                    failure = Some(e);
                    dropped += 1;
                }
            }
            match failure {
                Some(error) => Err(JournalError::WriterFailed {
                    error: error.to_string(),
                    dropped,
                }),
                None => Ok(sink.offset),
            }
        });
        JournalWriter {
            tx,
            handle: Some(handle),
        }
    }

    /// Queues one record for writing.  Never blocks on IO; the write happens
    /// on the writer thread.
    pub fn record(&self, record: JournalRecord) {
        // A send can only fail if the writer thread died (e.g. disk full);
        // the error surfaces from `finish`, which owns the thread's result.
        let _ = self.tx.send(WriterMessage::Record(record));
    }

    /// Queues one checkpoint line for writing.
    pub fn checkpoint(&self, checkpoint: Checkpoint) {
        let _ = self.tx.send(WriterMessage::Checkpoint(checkpoint));
    }

    /// Stops the writer thread, flushes, and returns the final file size in
    /// bytes.  A persistent write failure (after the bounded retry)
    /// surfaces here as [`JournalError::WriterFailed`].
    pub fn finish(mut self) -> Result<u64, JournalError> {
        let _ = self.tx.send(WriterMessage::Finish);
        match self.handle.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(JournalError::Format("journal writer panicked".into()))),
            None => Err(JournalError::Format(
                "journal writer already finished".into(),
            )),
        }
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        let _ = self.tx.send(WriterMessage::Finish);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "clfuzz-journal-test-{}-{}-{name}.log",
            std::process::id(),
            // Distinct per test invocation within a process.
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        ))
    }

    fn header() -> JournalHeader {
        JournalHeader {
            campaign: "test:k4".into(),
            campaign_seed: 0xC0FFEE,
            total_jobs: 4,
            shard_index: 0,
            shard_count: 1,
            range: (0, 4),
        }
    }

    fn write_journal(path: &Path, records: usize) {
        let writer = JournalWriter::create(path, &header()).unwrap();
        for i in 0..records {
            writer.record(JournalRecord::new(
                i as u64,
                100 + i as u64,
                format!("p{i}"),
            ));
        }
        writer.finish().unwrap();
    }

    #[test]
    fn header_and_records_round_trip() {
        let path = temp_path("roundtrip");
        write_journal(&path, 4);
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.records.len(), 4);
        assert_eq!(loaded.dropped_bytes, 0);
        for (i, r) in loaded.records.iter().enumerate() {
            assert_eq!(r.job_index, i as u64);
            assert_eq!(r.job_seed, 100 + i as u64);
            assert_eq!(r.payload, format!("p{i}"));
            assert_eq!(r.digest, checksum(r.payload.as_bytes()));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_record_is_detected_and_dropped() {
        // Simulate a mid-write kill: chop the file inside its last record.
        let path = temp_path("truncated");
        write_journal(&path, 4);
        let full = std::fs::metadata(&path).unwrap().len();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.valid_bytes, full);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 7)
            .unwrap();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(
            loaded.records.len(),
            3,
            "the half-written record must be dropped"
        );
        assert!(loaded.dropped_bytes > 0);
        // The reported valid prefix ends exactly after record 3's newline, so
        // a resumed writer can truncate there and append record 3 afresh.
        let writer = JournalWriter::append(&path, loaded.valid_bytes).unwrap();
        writer.record(JournalRecord::new(3, 103, "p3".into()));
        writer.finish().unwrap();
        let healed = load_journal(&path).unwrap();
        assert_eq!(healed.records.len(), 4);
        assert_eq!(healed.records[3].payload, "p3");
        assert_eq!(healed.dropped_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_byte_invalidates_the_checksum() {
        // Flip one payload byte in the middle of the file: that record and
        // everything after it are dropped (an append-only journal is only
        // ever trusted up to its first bad line).
        let path = temp_path("bitflip");
        write_journal(&path, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let target = text.find("p2").unwrap();
        bytes[target + 1] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_or_invalid_header_is_an_error() {
        let path = temp_path("noheader");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(matches!(load_journal(&path), Err(JournalError::Format(_))));
        std::fs::write(&path, "").unwrap();
        assert!(matches!(load_journal(&path), Err(JournalError::Format(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payload_tokens_are_validated() {
        assert!(JournalRecord::new(0, 0, "a b".into()).render().is_err());
        assert!(JournalRecord::new(0, 0, String::new()).render().is_err());
        assert!(JournalRecord::new(0, 0, "ok".into()).render().is_ok());
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let path = temp_path("version");
        // Hand-craft a header claiming version 999 with a valid checksum.
        let body = format!("{JOURNAL_MAGIC} 999 c:1 {:016x} 4 0/1 0-4", 7u64);
        let line = format!("{body} {:016x}\n", checksum(body.as_bytes()));
        std::fs::write(&path, line).unwrap();
        assert!(load_journal(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_journals_are_rejected() {
        // A hand-crafted v1 journal (6-field header, no range field) is not
        // a journal any more: it fails like any other missing header.
        let path = temp_path("v1");
        let body = format!("{JOURNAL_MAGIC} 1 legacy:k10 {:016x} 10 1/3", 0xBEEFu64);
        let mut text = format!("{body} {:016x}\n", checksum(body.as_bytes()));
        let rbody = format!("R 3 {:016x} {:016x} a", 103, checksum(b"a"));
        text.push_str(&format!("{rbody} {:016x}\n", checksum(rbody.as_bytes())));
        std::fs::write(&path, &text).unwrap();
        match load_journal(&path) {
            Err(JournalError::Format(msg)) => assert!(msg.contains("no valid journal header")),
            other => panic!("expected a format error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_supersedes_covered_records() {
        let path = temp_path("checkpoint");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(JournalRecord::new(0, 100, "p0".into()));
        writer.record(JournalRecord::new(1, 101, "p1".into()));
        writer.checkpoint(Checkpoint {
            upto: 2,
            jobs: 2,
            aggregate: "agg2".into(),
        });
        writer.record(JournalRecord::new(2, 102, "p2".into()));
        writer.finish().unwrap();
        let loaded = load_journal(&path).unwrap();
        let cp = loaded.checkpoint.as_ref().unwrap();
        assert_eq!((cp.upto, cp.jobs, cp.aggregate.as_str()), (2, 2, "agg2"));
        assert_eq!(
            loaded
                .records
                .iter()
                .map(|r| r.job_index)
                .collect::<Vec<_>>(),
            vec![2],
            "records covered by the checkpoint must be dropped"
        );
        assert_eq!(loaded.jobs_completed(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn later_checkpoint_wins_and_compaction_round_trips() {
        let path = temp_path("compact");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(JournalRecord::new(0, 100, "p0".into()));
        writer.checkpoint(Checkpoint {
            upto: 1,
            jobs: 1,
            aggregate: "agg1".into(),
        });
        writer.record(JournalRecord::new(1, 101, "p1".into()));
        writer.record(JournalRecord::new(2, 102, "p2".into()));
        writer.checkpoint(Checkpoint {
            upto: 3,
            jobs: 3,
            aggregate: "agg3".into(),
        });
        writer.record(JournalRecord::new(3, 103, "p3".into()));
        writer.finish().unwrap();

        let before = load_journal(&path).unwrap();
        assert_eq!(before.checkpoint.as_ref().unwrap().aggregate, "agg3");
        assert_eq!(before.records.len(), 1);

        let (bytes_before, bytes_after) = compact_journal(&path).unwrap();
        assert!(
            bytes_after < bytes_before,
            "compaction must shrink a journal with superseded lines \
             ({bytes_after} !< {bytes_before})"
        );
        let after = load_journal(&path).unwrap();
        assert_eq!(after.header, before.header);
        assert_eq!(after.checkpoint, before.checkpoint);
        assert_eq!(after.records, before.records);
        assert_eq!(after.jobs_completed(), 4);
        assert_eq!(after.dropped_bytes, 0);
        // Compacting an already-canonical journal is a fixpoint.
        let (b2, a2) = compact_journal(&path).unwrap();
        assert_eq!(b2, a2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_checkpoint_degrades_to_last_good_checkpoint() {
        let path = temp_path("torncp");
        let writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(JournalRecord::new(0, 100, "p0".into()));
        writer.checkpoint(Checkpoint {
            upto: 1,
            jobs: 1,
            aggregate: "agg1".into(),
        });
        writer.record(JournalRecord::new(1, 101, "p1".into()));
        writer.checkpoint(Checkpoint {
            upto: 2,
            jobs: 2,
            aggregate: "agg2".into(),
        });
        writer.finish().unwrap();
        // Tear the file inside the *second* checkpoint line.
        let full = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 5)
            .unwrap();
        let loaded = load_journal(&path).unwrap();
        let cp = loaded.checkpoint.as_ref().unwrap();
        assert_eq!(
            cp.aggregate, "agg1",
            "a torn checkpoint must fall back to the previous good one"
        );
        assert_eq!(
            loaded
                .records
                .iter()
                .map(|r| r.job_index)
                .collect::<Vec<_>>(),
            vec![1],
            "records after the good checkpoint survive"
        );
        assert!(loaded.dropped_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inconsistent_checkpoint_stops_the_scan() {
        // A checkpoint whose bounds contradict the header range is treated
        // as corruption, not trusted.
        let path = temp_path("badcp");
        let h = header();
        let mut text = h.render().unwrap();
        text.push('\n');
        let body = "K 9 9 bogus"; // upto=9 outside range (0,4)
        text.push_str(&format!("{body} {:016x}\n", checksum(body.as_bytes())));
        std::fs::write(&path, &text).unwrap();
        let loaded = load_journal(&path).unwrap();
        assert!(loaded.checkpoint.is_none());
        assert!(loaded.dropped_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_write_failure_is_retried_and_heals() {
        // Fail exactly one write attempt (the hook sees attempt ordinals):
        // the retry must succeed and the journal must be fully intact, with
        // no error from finish().
        let path = temp_path("retryok");
        let mut failed = false;
        let hook: WriteFaultHook = Box::new(move |ordinal| {
            if ordinal == 1 && !failed {
                failed = true;
                Some(std::io::Error::other("injected transient failure"))
            } else {
                None
            }
        });
        let writer = JournalWriter::create_with_faults(&path, &header(), Some(hook)).unwrap();
        for i in 0..4 {
            writer.record(JournalRecord::new(i, 100 + i, format!("p{i}")));
        }
        writer.finish().unwrap();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 4);
        assert_eq!(loaded.dropped_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persistent_write_failure_surfaces_from_finish() {
        // Every attempt for line 2 onward fails: finish() must report the
        // typed writer error with the exact number of lost lines, and the
        // on-disk prefix must still be a valid journal.
        let path = temp_path("retryfail");
        let hook: WriteFaultHook = Box::new(|ordinal| {
            (ordinal >= 2).then(|| std::io::Error::other("injected persistent failure"))
        });
        let writer = JournalWriter::create_with_faults(&path, &header(), Some(hook)).unwrap();
        for i in 0..4 {
            writer.record(JournalRecord::new(i, 100 + i, format!("p{i}")));
        }
        match writer.finish() {
            Err(JournalError::WriterFailed { dropped, error }) => {
                assert_eq!(dropped, 2, "records 2 and 3 were lost ({error})");
            }
            other => panic!("expected WriterFailed, got {other:?}"),
        }
        let loaded = load_journal(&path).unwrap();
        assert_eq!(
            loaded.records.len(),
            2,
            "the prefix before the failure stays valid and resumable"
        );
        let _ = std::fs::remove_file(&path);
    }
}
