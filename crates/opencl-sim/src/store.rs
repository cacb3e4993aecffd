//! The cross-campaign outcome store: an on-disk content-addressed cache of
//! kernel execution outcomes.
//!
//! The in-memory outcome cache ([`OutcomeCache`](crate::OutcomeCache))
//! belongs to one campaign and dies with it; other campaigns, reducer runs
//! and repeated table regenerations re-execute structurally identical
//! kernels from scratch.  This module persists the cache's `(program key,
//! exec-option key)` → [`TestOutcome`] mapping to a directory, so every
//! process pointed at the same store — sequential re-runs or concurrent
//! shard processes — shares one ever-growing cache.
//!
//! The program key is the platform's [`Recipe::key`](crate::Recipe::key)
//! (the `fingerprint` argument of [`OutcomeStore::get`] and
//! [`OutcomeStore::put`]).  It names what decides the executed AST without
//! building it: the source AST's structural fingerprint when the target
//! neither optimises nor transforms it, a hash of that fingerprint and the
//! ordered transform list when it only transforms, and a hash of an
//! "optimized" tag, the fingerprint and the transform list when it
//! optimises.
//!
//! An entry is therefore valid only under the platform semantics of the
//! build that wrote it: the emulator that computed the outcome, and the
//! optimisation passes and miscompilation transforms a key names.  A change
//! to any of them must bump the format tag (`FORMAT`, the header's
//! `CLFUZZ-STORE 4`), which turns every older entry into a miss.  A lookup
//! deletes such an entry, so two builds of different formats sharing one
//! directory delete each other's entries.
//!
//! A change to how keys are derived needs no bump as long as every key a
//! recipe can still reach names the AST its entry holds the outcome of.
//! Optimised recipes used to be keyed by the optimised AST's own
//! fingerprint, or by a hash of that fingerprint and the transforms, and
//! `CLFUZZ-STORE 4` entries written that way stay in place.  A key of that
//! shape is reached now only by a non-optimising recipe whose source has
//! that fingerprint, with the same transforms, so it names the same AST and
//! the entry's outcome is still the right one.  Optimised keys carry their
//! tag, so no old entry answers them.  The old entries nothing reaches any
//! more are never read again, and the cap's oldest-first eviction reclaims
//! them.
//!
//! ## Entry format
//!
//! One file per entry, under a fingerprint-prefix fan-out directory
//! (`ab/ab12…-cd34…`).  An entry is a self-describing header line followed
//! by an exact-length payload:
//!
//! ```text
//! CLFUZZ-STORE 4 <fingerprint:016x> <key:016x> <payload-len> <digest:016x> <crc:016x>\n
//! <payload-len bytes of payload>
//! ```
//!
//! The payload's first line is the outcome kind (plus the result hash for
//! `ok`), and the rest the outcome's raw message or output text.
//!
//! The header follows the `CLFUZZ-JOURNAL` checksum discipline: `crc` is
//! the FNV-1a checksum of the header prefix before it and `digest` the
//! checksum of the payload, so a torn write, a bit flip, a version bump or
//! a foreign file can never be mistaken for a valid entry — every
//! corruption degrades to a cache **miss**, never to a wrong outcome.
//!
//! ## Concurrency
//!
//! Writes go to a process-unique temporary file and are published by hard
//! linking it to the entry name, so concurrent shard processes sharing one
//! store directory never observe partial entries.  A link never replaces an
//! existing entry: of several writers racing on one key (outcomes are
//! deterministic functions of the key, so they hold identical bytes), the
//! first to link publishes the entry and is the only one to count it as a
//! write and its bytes toward the cap.  The store is capped (256 MiB unless opened with an
//! explicit cap): when a write pushes past the cap, the oldest entries (by
//! modification time — LRU-ish, since hits do not touch files) are evicted
//! until the store fits again.

use crate::platform::TestOutcome;
use clc::{fnv1a, Fingerprint};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Store I/O operation kinds, as seen by the injectable fault hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// An entry-file read attempt (lookups, including the retry).
    Read,
    /// An entry publication attempt.
    Write,
}

/// The injectable I/O fault hook: called with the operation kind and a
/// process-global operation ordinal; returning an error kind makes that
/// operation fail before touching the filesystem.  Installed by the fault
/// injection layer (`fuzz_harness::faults`) to make the store's transient
/// and corruption paths reachable deterministically.
pub type IoFaultHook = Arc<dyn Fn(StoreOp, u64) -> Option<io::ErrorKind> + Send + Sync>;

static IO_FAULT_HOOK: RwLock<Option<IoFaultHook>> = RwLock::new(None);
static IO_OP_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Installs (or with `None` clears) the process-global store fault hook and
/// resets the operation ordinal counter.
pub fn set_io_fault_hook(hook: Option<IoFaultHook>) {
    let mut guard = IO_FAULT_HOOK.write().unwrap_or_else(|e| e.into_inner());
    *guard = hook;
    IO_OP_ORDINAL.store(0, Ordering::Relaxed);
}

/// Consults the fault hook for one operation, consuming an ordinal.  The
/// ordinal only advances while a hook is installed, so fault schedules are
/// stable regardless of what ran before installation.
fn injected_fault(op: StoreOp) -> Option<io::Error> {
    let guard = IO_FAULT_HOOK.read().unwrap_or_else(|e| e.into_inner());
    let hook = guard.as_ref()?;
    let ordinal = IO_OP_ORDINAL.fetch_add(1, Ordering::Relaxed);
    hook(op, ordinal).map(|kind| io::Error::new(kind, "injected store fault"))
}

/// Backoff before the single retry of a transiently failed lookup read.
const READ_RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// The store format tag; bumping the version invalidates (as misses) every
/// existing entry.  Bump it whenever the entry encoding, the emulator's
/// semantics, an optimisation pass or a miscompilation transform changes
/// (see the module docs).
const FORMAT: &str = "CLFUZZ-STORE 4";

/// Size cap (bytes) of a store opened without an explicit one.
const DEFAULT_CAP: u64 = 256 * 1024 * 1024;

/// Counter snapshot of one [`OutcomeStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries evicted to stay under the size cap.
    pub evictions: u64,
    /// Store size in bytes (entry files only), as this handle has seen it
    /// change: its writes, evictions and deletions of invalid entries.
    pub bytes: u64,
    /// Lookups abandoned after an I/O error persisted through the retry.
    /// The entry file (if any) is left in place for the next lookup.
    pub transient_errors: u64,
    /// Entries that read back but failed validation and were deleted.
    pub corrupt_entries: u64,
}

impl StoreStats {
    /// Fraction of lookups served from the store — `0.0` (never `NaN`) when
    /// no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// An on-disk content-addressed outcome store rooted at a directory.
///
/// Cheap to share: campaign drivers hold it behind an [`Arc`] inside
/// [`ExecOptions`](crate::ExecOptions), and every scheduler worker reads and
/// writes it concurrently.
#[derive(Debug)]
pub struct OutcomeStore {
    dir: PathBuf,
    cap: u64,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    transient_errors: AtomicU64,
    corrupt_entries: AtomicU64,
    tmp_seq: AtomicU64,
    /// Serialises eviction scans within this process (concurrent processes
    /// coordinate through the filesystem: eviction re-scans, and deleting a
    /// file another process expects is just a miss there).
    evict_lock: Mutex<()>,
}

impl OutcomeStore {
    /// Opens (creating if needed) the store at `dir` with the default
    /// 256 MiB cap.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<OutcomeStore> {
        OutcomeStore::open_with_cap(dir, DEFAULT_CAP)
    }

    /// Opens (creating if needed) the store at `dir` with an explicit size
    /// cap in bytes.
    pub fn open_with_cap(dir: impl Into<PathBuf>, cap: u64) -> io::Result<OutcomeStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = OutcomeStore {
            dir,
            cap: cap.max(1),
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            corrupt_entries: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            evict_lock: Mutex::new(()),
        };
        let existing: u64 = store.scan().iter().map(|e| e.len).sum();
        store.bytes.store(existing, Ordering::Relaxed);
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's size cap in bytes.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            corrupt_entries: self.corrupt_entries.load(Ordering::Relaxed),
        }
    }

    /// Path of the entry for `(fingerprint, key)`: a two-hex-digit fan-out
    /// directory keeps any one directory from accumulating every entry.
    fn entry_path(&self, fingerprint: Fingerprint, key: u64) -> PathBuf {
        self.dir
            .join(format!("{:02x}", fingerprint.0 >> 56))
            .join(format!("{:016x}-{key:016x}", fingerprint.0))
    }

    /// Looks up an outcome, distinguishing the three ways a lookup can come
    /// up empty:
    ///
    /// - the entry simply is not there (`NotFound`): a plain miss;
    /// - the read failed with any other I/O error: retried once after a
    ///   short backoff, and if it still fails the lookup is a miss counted
    ///   under `transient_errors` — the entry file is *not* deleted, so a
    ///   later lookup can still hit it;
    /// - the entry read back but failed validation — torn, bit-flipped,
    ///   version-mismatched, foreign — a miss counted under
    ///   `corrupt_entries`, and the file is deleted so it cannot consume
    ///   cap space forever.  Its size leaves the byte count only when this
    ///   lookup's delete succeeds, so two readers of one bad entry subtract
    ///   it once.
    pub fn get(&self, fingerprint: Fingerprint, key: u64) -> Option<TestOutcome> {
        let path = self.entry_path(fingerprint, key);
        let bytes = match self.read_entry(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.transient_errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_entry(&bytes, fingerprint, key) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.corrupt_entries.fetch_add(1, Ordering::Relaxed);
                if std::fs::remove_file(&path).is_ok() {
                    let len = bytes.len() as u64;
                    let _ = self
                        .bytes
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                            Some(b.saturating_sub(len))
                        });
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Reads one entry file, consulting the fault hook and retrying once
    /// (after [`READ_RETRY_BACKOFF`]) on any error other than `NotFound`.
    fn read_entry(&self, path: &Path) -> io::Result<Vec<u8>> {
        let first = match injected_fault(StoreOp::Read) {
            Some(e) => Err(e),
            None => std::fs::read(path),
        };
        match first {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(e),
            Err(_) => {
                std::thread::sleep(READ_RETRY_BACKOFF);
                match injected_fault(StoreOp::Read) {
                    Some(e) => Err(e),
                    None => std::fs::read(path),
                }
            }
        }
    }

    /// Persists an outcome (best effort: I/O errors disable nothing and
    /// corrupt nothing — the entry is simply absent next time).  An existing
    /// entry for the key is kept, and the write is then not counted.
    pub fn put(&self, fingerprint: Fingerprint, key: u64, outcome: &TestOutcome) {
        if injected_fault(StoreOp::Write).is_some() {
            return;
        }
        let path = self.entry_path(fingerprint, key);
        let bytes = render_entry(fingerprint, key, outcome);
        let Some(parent) = path.parent() else { return };
        if std::fs::create_dir_all(parent).is_err() {
            return;
        }
        let tmp = parent.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, &bytes).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        // Linking never replaces an entry: when another writer published
        // this key first, the link fails and only that writer counts the
        // entry and its bytes.
        let created = std::fs::hard_link(&tmp, &path).is_ok();
        let _ = std::fs::remove_file(&tmp);
        if !created {
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        let added = bytes.len() as u64;
        let total = self.bytes.fetch_add(added, Ordering::Relaxed) + added;
        if total > self.cap {
            self.evict();
        }
    }

    /// Every entry file currently in the store (skips temporaries and
    /// foreign names).
    fn scan(&self) -> Vec<ScannedEntry> {
        let mut entries = Vec::new();
        let Ok(prefixes) = std::fs::read_dir(&self.dir) else {
            return entries;
        };
        for prefix in prefixes.flatten() {
            let Ok(files) = std::fs::read_dir(prefix.path()) else {
                continue;
            };
            for file in files.flatten() {
                let name = file.file_name();
                let name = name.to_string_lossy();
                // Entry names are `<fp:016x>-<key:016x>`; anything else
                // (temporaries, strays) is not accounted or evicted.
                if name.len() != 33 || name.as_bytes()[16] != b'-' {
                    continue;
                }
                if let Ok(meta) = file.metadata() {
                    entries.push(ScannedEntry {
                        path: file.path(),
                        len: meta.len(),
                        modified: meta.modified().ok(),
                    });
                }
            }
        }
        entries
    }

    /// Evicts oldest-modified entries until the store fits under its cap.
    /// Re-scans the directory first so concurrent writers (including other
    /// processes) are accounted before anything is deleted.
    fn evict(&self) {
        let _guard = self.evict_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries = self.scan();
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        if total > self.cap {
            // Oldest first; ties broken by path so concurrent evictors
            // converge on the same order.
            entries.sort_by(|a, b| a.modified.cmp(&b.modified).then(a.path.cmp(&b.path)));
            for entry in entries {
                if total <= self.cap {
                    break;
                }
                if std::fs::remove_file(&entry.path).is_ok() {
                    total = total.saturating_sub(entry.len);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.bytes.store(total, Ordering::Relaxed);
    }
}

struct ScannedEntry {
    path: PathBuf,
    len: u64,
    modified: Option<std::time::SystemTime>,
}

/// Serialises an outcome to the payload carried after the header line: the
/// outcome kind (plus the result hash for `ok`), then the raw
/// message/output text, which may itself contain any bytes — the header's
/// exact payload length makes escaping unnecessary.
fn render_payload(outcome: &TestOutcome) -> Vec<u8> {
    let text = match outcome {
        TestOutcome::Result { hash, output } => format!("ok {hash:016x}\n{output}"),
        TestOutcome::BuildFailure(msg) => format!("bf\n{msg}"),
        TestOutcome::Crash(msg) => format!("c\n{msg}"),
        TestOutcome::Timeout => "to\n".to_string(),
    };
    text.into_bytes()
}

fn parse_payload(payload: &[u8]) -> Option<TestOutcome> {
    let text = std::str::from_utf8(payload).ok()?;
    let (head, rest) = text.split_once('\n')?;
    let outcome = match head.split(' ').collect::<Vec<_>>().as_slice() {
        ["ok", hash] => TestOutcome::Result {
            hash: u64::from_str_radix(hash, 16).ok()?,
            output: rest.to_string(),
        },
        ["bf"] => TestOutcome::BuildFailure(rest.to_string()),
        ["c"] => TestOutcome::Crash(rest.to_string()),
        ["to"] => TestOutcome::Timeout,
        _ => return None,
    };
    Some(outcome)
}

/// Renders a complete self-checksummed entry file in the current
/// [`FORMAT`].
fn render_entry(fingerprint: Fingerprint, key: u64, outcome: &TestOutcome) -> Vec<u8> {
    render_entry_in(FORMAT, fingerprint, key, outcome)
}

/// Renders an entry file under the format tag `format`.
fn render_entry_in(
    format: &str,
    fingerprint: Fingerprint,
    key: u64,
    outcome: &TestOutcome,
) -> Vec<u8> {
    let payload = render_payload(outcome);
    let digest = fnv1a(&payload);
    let prefix = format!(
        "{format} {:016x} {key:016x} {} {digest:016x}",
        fingerprint.0,
        payload.len()
    );
    let crc = fnv1a(prefix.as_bytes());
    let mut bytes = format!("{prefix} {crc:016x}\n").into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

/// Parses and fully validates an entry file in the current [`FORMAT`];
/// `None` on any defect.
fn parse_entry(bytes: &[u8], fingerprint: Fingerprint, key: u64) -> Option<TestOutcome> {
    parse_entry_in(FORMAT, bytes, fingerprint, key)
}

/// Parses and fully validates an entry file written under the format tag
/// `format`; an entry of any other format is a defect.
fn parse_entry_in(
    format: &str,
    bytes: &[u8],
    fingerprint: Fingerprint,
    key: u64,
) -> Option<TestOutcome> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let payload = &bytes[newline + 1..];
    let (prefix, crc) = header.rsplit_once(' ')?;
    if u64::from_str_radix(crc, 16).ok()? != fnv1a(prefix.as_bytes()) {
        return None;
    }
    // "<format> <fp> <key> <len> <digest>"
    let fields: Vec<&str> = prefix
        .strip_prefix(format)?
        .strip_prefix(' ')?
        .split(' ')
        .collect();
    if fields.len() != 4 {
        return None;
    }
    if u64::from_str_radix(fields[0], 16).ok()? != fingerprint.0
        || u64::from_str_radix(fields[1], 16).ok()? != key
    {
        return None;
    }
    let len: usize = fields[2].parse().ok()?;
    if payload.len() != len {
        return None;
    }
    if u64::from_str_radix(fields[3], 16).ok()? != fnv1a(payload) {
        return None;
    }
    parse_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clfuzz-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_outcomes() -> Vec<TestOutcome> {
        vec![
            TestOutcome::Result {
                hash: 0xDEAD_BEEF,
                output: "1,2,3\nwith a second line, and spaces".into(),
            },
            TestOutcome::BuildFailure("front end said no [ref]".into()),
            TestOutcome::Crash("segfault".into()),
            TestOutcome::Timeout,
        ]
    }

    #[test]
    fn entries_roundtrip_every_outcome_kind() {
        for (i, outcome) in sample_outcomes().into_iter().enumerate() {
            let fp = Fingerprint(0x1234 + i as u64);
            let key = 0x9999 + i as u64;
            let bytes = render_entry(fp, key, &outcome);
            assert_eq!(parse_entry(&bytes, fp, key), Some(outcome));
        }
    }

    #[test]
    fn any_single_bit_flip_is_a_miss_never_a_wrong_outcome() {
        let fp = Fingerprint(0xAB);
        let key = 7;
        let outcome = TestOutcome::Result {
            hash: 42,
            output: "5,5,5".into(),
        };
        let bytes = render_entry(fp, key, &outcome);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let parsed = parse_entry(&flipped, fp, key);
            assert!(
                parsed.is_none() || parsed == Some(outcome.clone()),
                "bit flip {bit} produced a different outcome"
            );
            // Strictly: flips inside checksummed regions must be misses.
            assert_ne!(
                flipped, bytes,
                "flip must change the bytes (test is self-checking)"
            );
        }
        // Truncations at every length are misses.
        for cut in 0..bytes.len() {
            assert_eq!(parse_entry(&bytes[..cut], fp, key), None, "cut at {cut}");
        }
    }

    #[test]
    fn wrong_key_wrong_fingerprint_and_wrong_version_are_misses() {
        let fp = Fingerprint(0xAB);
        let key = 7;
        let bytes = render_entry(fp, key, &TestOutcome::Timeout);
        assert_eq!(parse_entry(&bytes, Fingerprint(0xAC), key), None);
        assert_eq!(parse_entry(&bytes, fp, 8), None);
        // A version bump invalidates old entries even with a valid crc.
        let text = String::from_utf8(bytes).unwrap();
        let bumped = text.replace(FORMAT, &bumped_format());
        let (prefix, _) = bumped.split_once('\n').unwrap();
        let (fields, _) = prefix.rsplit_once(' ').unwrap();
        let crc = fnv1a(fields.as_bytes());
        let mut rebuilt = format!("{fields} {crc:016x}\n").into_bytes();
        rebuilt.extend_from_slice(b"to\n");
        assert_eq!(parse_entry(&rebuilt, fp, key), None);
    }

    #[test]
    fn entries_parse_under_the_format_that_wrote_them_only() {
        // Bumping FORMAT must invalidate old entries *and* keep the entries
        // the bumped build writes readable by that build.
        let fp = Fingerprint(0xAB);
        let key = 7;
        let outcome = TestOutcome::Result {
            hash: 42,
            output: "5,5,5".into(),
        };
        let bumped = bumped_format();
        assert_ne!(bumped, FORMAT);
        let written = render_entry_in(&bumped, fp, key, &outcome);
        assert_eq!(
            parse_entry_in(&bumped, &written, fp, key),
            Some(outcome.clone())
        );
        assert_eq!(parse_entry(&written, fp, key), None);
        let current = render_entry(fp, key, &outcome);
        assert_eq!(parse_entry_in(&bumped, &current, fp, key), None);
    }

    /// The format tag the next version bump would make.
    fn bumped_format() -> String {
        let (magic, version) = FORMAT.rsplit_once(' ').unwrap();
        format!("{magic} {}", version.parse::<u32>().unwrap() + 1)
    }

    #[test]
    fn store_roundtrips_and_counts() {
        let dir = temp_store("roundtrip");
        let store = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        let fp = Fingerprint(0xF00);
        assert_eq!(store.get(fp, 1), None);
        for (i, outcome) in sample_outcomes().into_iter().enumerate() {
            store.put(fp, i as u64, &outcome);
            assert_eq!(store.get(fp, i as u64), Some(outcome));
        }
        let stats = store.stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.writes, 4);
        assert!(stats.bytes > 0);
        // A second handle over the same directory sees the entries (and
        // accounts their bytes at open).
        let reopened = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        assert_eq!(reopened.stats().bytes, stats.bytes);
        assert!(reopened.get(fp, 0).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_on_disk_degrade_to_misses() {
        let dir = temp_store("corrupt");
        let store = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        let fp = Fingerprint(0xC0);
        store.put(fp, 0, &TestOutcome::Timeout);
        let path = store.entry_path(fp, 0);
        // Bit-flip the file in place.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(fp, 0), None);
        assert!(!path.exists(), "corrupt entry should be deleted");
        // Truncated file: also a miss.
        store.put(fp, 1, &TestOutcome::Crash("boom".into()));
        let path = store.entry_path(fp, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert_eq!(store.get(fp, 1), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_counted_and_deleted_but_absence_is_not() {
        let dir = temp_store("corrupt-count");
        let store = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        let fp = Fingerprint(0xC1);
        // Absent entry: plain miss, nothing counted as corruption.
        assert_eq!(store.get(fp, 0), None);
        assert_eq!(store.stats().corrupt_entries, 0);
        assert_eq!(store.stats().transient_errors, 0);
        // Corrupt entry: counted once, deleted, and the follow-up lookup is
        // a plain miss again.
        store.put(fp, 0, &TestOutcome::Timeout);
        let path = store.entry_path(fp, 0);
        std::fs::write(&path, b"not a store entry").unwrap();
        assert_eq!(store.get(fp, 0), None);
        assert!(!path.exists());
        assert_eq!(store.get(fp, 0), None);
        let stats = store.stats();
        assert_eq!(stats.corrupt_entries, 1);
        assert_eq!(stats.transient_errors, 0);
        assert_eq!(stats.misses, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store written by a build of the previous format: every lookup is a
    /// miss that deletes the entry and takes its size off the byte count,
    /// so once each entry is written again the count equals the bytes on
    /// disk.
    #[test]
    fn previous_format_entries_leave_the_byte_count_equal_to_the_disk() {
        let dir = temp_store("previous-format");
        let outcome = TestOutcome::Result {
            hash: 7,
            output: "7,7".into(),
        };
        let keys: Vec<(Fingerprint, u64)> =
            (0..10u64).map(|i| (Fingerprint(i << 56 | i), i)).collect();
        let old = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        for &(fp, key) in &keys {
            let path = old.entry_path(fp, key);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, render_entry_in("CLFUZZ-STORE 3", fp, key, &outcome)).unwrap();
        }
        let store = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        assert!(store.stats().bytes > 0);
        for &(fp, key) in &keys {
            assert_eq!(store.get(fp, key), None);
            assert!(!store.entry_path(fp, key).exists());
            store.put(fp, key, &outcome);
            assert_eq!(store.get(fp, key), Some(outcome.clone()));
        }
        let stats = store.stats();
        assert_eq!(
            (
                stats.corrupt_entries,
                stats.misses,
                stats.writes,
                stats.hits
            ),
            (10, 10, 10, 10)
        );
        let on_disk: u64 = store.scan().iter().map(|e| e.len).sum();
        assert_eq!(stats.bytes, on_disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serialises tests that install the process-global fault hook.
    static HOOK_LOCK: Mutex<()> = Mutex::new(());

    /// Installs a hook that fires only for operations issued from the
    /// calling thread (so unrelated tests running concurrently pass
    /// through), failing the first `n` matching operations of kind `op`.
    fn fail_next_on_this_thread(op: StoreOp, n: u64) {
        let me = std::thread::current().id();
        let remaining = AtomicU64::new(n);
        set_io_fault_hook(Some(Arc::new(move |kind, _ordinal| {
            if kind != op || std::thread::current().id() != me {
                return None;
            }
            let left = remaining.load(Ordering::Relaxed);
            if left == 0 {
                return None;
            }
            remaining.store(left - 1, Ordering::Relaxed);
            Some(io::ErrorKind::Other)
        })));
    }

    #[test]
    fn transient_read_error_is_retried_and_recovers() {
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = temp_store("transient-recover");
        let store = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        let fp = Fingerprint(0xEE);
        store.put(fp, 0, &TestOutcome::Timeout);
        fail_next_on_this_thread(StoreOp::Read, 1);
        assert_eq!(store.get(fp, 0), Some(TestOutcome::Timeout));
        set_io_fault_hook(None);
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.transient_errors, 0, "recovered retry is not an error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_read_error_counts_transient_and_preserves_the_entry() {
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = temp_store("transient-exhaust");
        let store = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        let fp = Fingerprint(0xEF);
        store.put(fp, 0, &TestOutcome::Timeout);
        fail_next_on_this_thread(StoreOp::Read, 2);
        assert_eq!(store.get(fp, 0), None, "both attempts failed");
        set_io_fault_hook(None);
        let stats = store.stats();
        assert_eq!(stats.transient_errors, 1);
        assert_eq!(stats.corrupt_entries, 0);
        assert!(
            store.entry_path(fp, 0).exists(),
            "transient failure must not delete the entry"
        );
        // With the fault gone, the same lookup hits.
        assert_eq!(store.get(fp, 0), Some(TestOutcome::Timeout));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_fault_skips_publication_silently() {
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = temp_store("write-fault");
        let store = OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap();
        let fp = Fingerprint(0xF0);
        fail_next_on_this_thread(StoreOp::Write, 1);
        store.put(fp, 0, &TestOutcome::Timeout);
        set_io_fault_hook(None);
        assert_eq!(store.stats().writes, 0);
        assert_eq!(store.get(fp, 0), None, "faulted put published nothing");
        // The next put goes through.
        store.put(fp, 0, &TestOutcome::Timeout);
        assert_eq!(store.get(fp, 0), Some(TestOutcome::Timeout));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_the_store_under_its_cap() {
        let dir = temp_store("evict");
        // A tiny cap: every entry is ~90 bytes, so the second write must
        // evict.
        let store = OutcomeStore::open_with_cap(&dir, 150).unwrap();
        for i in 0..8u64 {
            store.put(Fingerprint(i << 56 | i), i, &TestOutcome::Timeout);
        }
        let stats = store.stats();
        assert!(stats.evictions > 0, "cap 150 must force evictions");
        assert!(
            stats.bytes <= 150,
            "store over cap after eviction: {stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writers racing on one key publish one entry: exactly one of them
    /// counts the write, and the byte counter holds the entry's size on
    /// disk, not a multiple of it.
    #[test]
    fn racing_writers_of_one_key_count_one_write_and_its_bytes() {
        let dir = temp_store("race-one-key");
        let store = OutcomeStore::open(&dir).unwrap();
        let (fp, key) = (Fingerprint(0x5A << 56 | 3), 11);
        let outcome = TestOutcome::Result {
            hash: 7,
            output: "7,7".into(),
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| store.put(fp, key, &outcome));
            }
        });
        let stats = store.stats();
        assert_eq!(stats.writes, 1, "{stats:?}");
        let path = store.entry_path(fp, key);
        assert_eq!(stats.bytes, std::fs::metadata(&path).unwrap().len());
        let files = std::fs::read_dir(path.parent().unwrap()).unwrap().count();
        assert_eq!(files, 1, "one entry and no temporaries left");
        assert_eq!(store.get(fp, key), Some(outcome));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
