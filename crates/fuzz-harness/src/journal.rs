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
//! CLFUZZ-JOURNAL 3 <campaign> <seed:016x> <total_jobs> <shard>/<of> <start>-<end> <crc:016x>
//! R <job_index> <job_seed:016x> <digest:016x> <payload> <crc:016x>
//! R ...
//! ```
//!
//! * The header is self-describing: format version, a campaign descriptor,
//!   the campaign seed, the size of the job index space, which shard of it
//!   this journal covers, and the explicit `[start, end)` job index range.
//!   Fleet lease journals use the shard field `L/0` (`L` = lease ordinal,
//!   count `0` as the "not an I-of-N shard" sentinel) with the range
//!   carrying the lease.
//! * The descriptor is a `:`-separated token naming the campaign kind and
//!   every input its jobs read besides the seed (scale, prefilter flag,
//!   generator options, Table 5's live bases by candidate index) and a
//!   fingerprint of the target columns, so the header alone rebuilds a
//!   runnable campaign ([`crate::shard::Campaign::parse`]).  Version 2
//!   only fingerprinted the generator options; v1 and v2 are refused.
//! * Each `R` record names its job index, the job's derived RNG seed, a
//!   digest of the payload (checked again on load), the serialized per-job
//!   tally contribution, and the line checksum.  Records are the whole
//!   journal: resume and merge decode them and fold them in job order.
//! * Payloads are produced by [`crate::shard::JournalPayload`] encoders and
//!   must not contain whitespace or newlines; the writer enforces this.
//!
//! Older builds also wrote `K` checkpoint lines (a pre-folded tally) into
//! fleet lease journals.  [`load_journal`] refuses a journal holding one
//! with a [`JournalError::Format`] naming the line rather than read half of
//! it; shard journals never held one and still load.
//!
//! ## Robustness at the edges
//!
//! A process killed mid-write leaves a truncated final line.  [`load_journal`]
//! verifies every line's checksum and **stops at the first invalid line**,
//! reporting the byte offset of the last valid record so a resumed run can
//! truncate the corrupt tail and append from there — a half-written record
//! is dropped, never allowed to poison the campaign.
//!
//! ## Synchronous writes
//!
//! [`JournalWriter::record`] renders, writes and flushes each line on the
//! calling thread: the scheduler's collector, which folds the completed
//! records as they arrive (completion order — the journal is an unordered
//! set, the fold re-sorts by job index), so no worker ever blocks on
//! journal IO and a kill loses at most the few jobs still in flight.  A
//! failed write is retried once after truncating back to the last good
//! line boundary (transient errors — EINTR, brief ENOSPC — heal); a
//! persistent failure drops that record and every later one, and surfaces
//! from [`JournalWriter::finish`] as [`JournalError::WriterFailed`] with a
//! count of the records that never reached disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

/// Version tag of the on-disk journal format.  Bump when the line format
/// changes; [`load_journal`] accepts this version only.
pub const JOURNAL_FORMAT_VERSION: u32 = 3;

/// Magic token opening every journal header line.
pub const JOURNAL_MAGIC: &str = "CLFUZZ-JOURNAL";

/// Backoff before the writer's single retry of a failed write.
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
    /// The writer hit a persistent I/O failure (one bounded retry
    /// already attempted).  The on-disk prefix up to the failure is still a
    /// valid, resumable journal.
    WriterFailed {
        /// The first unrecoverable write error, rendered.
        error: String,
        /// Recorded lines that never reached disk.
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
                "journal writer failed after retry ({error}); {dropped} line(s) lost"
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
    /// Single-token campaign descriptor (the campaign kind and every input
    /// its jobs read, see the module docs).  Resume and merge reject
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

/// A journal read back from disk: the header, every valid record, and how
/// much of the file they account for.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The parsed header.
    pub header: JournalHeader,
    /// Every record whose checksum verified, in file order.
    pub records: Vec<JournalRecord>,
    /// Byte offset just past the last valid line — a resumed writer
    /// truncates the file here before appending.
    pub valid_bytes: u64,
    /// Bytes past `valid_bytes` (a truncated or corrupt tail, dropped).
    pub dropped_bytes: u64,
}

/// Reads a journal, verifying every line's checksum and dropping the
/// corrupt tail a mid-write kill leaves behind (see the module docs).
///
/// Returns `Format` if the header itself is missing or invalid — an empty
/// or headerless file is not a journal — and if a complete line is a `K`
/// checkpoint line, which older builds wrote and this one does not read.
pub fn load_journal(path: &Path) -> Result<LoadedJournal, JournalError> {
    let mut file = File::open(path)?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw)?;
    let mut offset = 0usize;
    let mut header: Option<JournalHeader> = None;
    let mut records: Vec<JournalRecord> = Vec::new();
    let mut valid_bytes = 0usize;
    for line_number in 1u64.. {
        // A line is only complete (and only checksummed) once its newline
        // is on disk; anything after the last newline is in-flight tail.
        let Some(nl) = raw[offset..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let Ok(line) = std::str::from_utf8(&raw[offset..offset + nl]) else {
            break;
        };
        if header.is_none() {
            match JournalHeader::parse(line) {
                Some(h) => header = Some(h),
                None => break,
            }
        } else if line.starts_with("K ") {
            return Err(JournalError::Format(format!(
                "{} line {line_number} is a checkpoint (`K`) line; journals hold only \
                 `R` records, so this one cannot be read",
                path.display()
            )));
        } else {
            match JournalRecord::parse(line) {
                Some(r) => records.push(r),
                None => break,
            }
        }
        offset += nl + 1;
        valid_bytes = offset;
    }
    let header = header.ok_or_else(|| {
        JournalError::Format(format!("{} has no valid journal header", path.display()))
    })?;
    Ok(LoadedJournal {
        header,
        records,
        valid_bytes: valid_bytes as u64,
        dropped_bytes: (raw.len() - valid_bytes) as u64,
    })
}

/// Per-write fault hook, used by tests to exercise the retry path: called
/// once per write *attempt* with a running attempt ordinal; returning an
/// error makes that attempt fail before touching the file.
type WriteFaultHook = Box<dyn FnMut(u64) -> Option<std::io::Error> + Send>;

/// The journal writer.  It tracks the byte offset of the last completed
/// line so a failed write can be rolled back to a clean boundary and
/// retried exactly once.
pub struct JournalWriter {
    file: File,
    offset: u64,
    attempts: u64,
    faults: Option<WriteFaultHook>,
    /// The first failure; every record after it is dropped and counted.
    failure: Option<JournalError>,
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
        Ok(JournalWriter::new(file, offset, faults))
    }

    /// Reopens an existing journal for appending, first truncating it to
    /// `valid_bytes` (dropping the corrupt tail reported by
    /// [`load_journal`]).
    pub fn append(path: &Path, valid_bytes: u64) -> Result<JournalWriter, JournalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_bytes)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_bytes))?;
        Ok(JournalWriter::new(file, valid_bytes, None))
    }

    fn new(file: File, offset: u64, faults: Option<WriteFaultHook>) -> JournalWriter {
        JournalWriter {
            file,
            offset,
            attempts: 0,
            faults,
            failure: None,
        }
    }

    /// Writes and flushes one record.  After a failure the record is only
    /// counted; the failure surfaces from [`JournalWriter::finish`].
    pub fn record(&mut self, record: JournalRecord) {
        match &mut self.failure {
            Some(JournalError::WriterFailed { dropped, .. }) => *dropped += 1,
            Some(_) => {}
            None => {
                let written = record.render().and_then(|line| {
                    self.write_line(&line)
                        .map_err(|error| JournalError::WriterFailed {
                            error: error.to_string(),
                            dropped: 1,
                        })
                });
                self.failure = written.err();
            }
        }
    }

    /// Returns the final file size in bytes.  A persistent write failure
    /// (after the bounded retry) surfaces here as
    /// [`JournalError::WriterFailed`].
    pub fn finish(self) -> Result<u64, JournalError> {
        match self.failure {
            Some(error) => Err(error),
            None => Ok(self.offset),
        }
    }

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
        let mut writer = JournalWriter::create(path, &header()).unwrap();
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
        let mut writer = JournalWriter::append(&path, loaded.valid_bytes).unwrap();
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
        // a journal any more: it fails like any other missing header, and
        // so does a v2 journal, whose header had the v3 fields.
        let path = temp_path("v1");
        let v1 = format!("{JOURNAL_MAGIC} 1 legacy:k10 {:016x} 10 1/3", 0xBEEFu64);
        let v2 = format!(
            "{JOURNAL_MAGIC} 2 legacy:k10 {:016x} 10 1/3 0-10",
            0xBEEFu64
        );
        for body in [v1, v2] {
            let mut text = format!("{body} {:016x}\n", checksum(body.as_bytes()));
            let rbody = format!("R 3 {:016x} {:016x} a", 103, checksum(b"a"));
            text.push_str(&format!("{rbody} {:016x}\n", checksum(rbody.as_bytes())));
            std::fs::write(&path, &text).unwrap();
            match load_journal(&path) {
                Err(JournalError::Format(msg)) => assert!(msg.contains("no valid journal header")),
                other => panic!("expected a format error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_lines_are_refused() {
        // Older builds wrote `K <upto> <jobs> <aggregate>` lines into lease
        // journals.  Such a journal is refused whole, naming the line, even
        // when records follow it.
        let path = temp_path("checkpoint");
        write_journal(&path, 2);
        let body = "K 2 2 agg2";
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&format!("{body} {:016x}\n", checksum(body.as_bytes())));
        text.push_str(&JournalRecord::new(2, 102, "p2".into()).render().unwrap());
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        match load_journal(&path) {
            Err(JournalError::Format(msg)) => {
                assert!(
                    msg.contains("line 4") && msg.contains("checkpoint"),
                    "{msg}"
                )
            }
            other => panic!("expected a format error, got {other:?}"),
        }
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
        let mut writer = JournalWriter::create_with_faults(&path, &header(), Some(hook)).unwrap();
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
        let mut writer = JournalWriter::create_with_faults(&path, &header(), Some(hook)).unwrap();
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
