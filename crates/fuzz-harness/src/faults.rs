//! Deterministic fault injection for the campaign fleet.
//!
//! Robustness claims are only as good as their tests, and the recovery
//! paths of [`crate::fleet`] — lease re-issue after a worker dies, torn
//! journal tails, expired leases, store I/O errors — are exactly the paths
//! an ordinary run never takes.  This module makes every one of them
//! reachable *on purpose*, from a compact spec that is deterministic given
//! the campaign seed, so a CI chaos run is reproducible bit for bit.
//!
//! ## Spec grammar (`--faults`)
//!
//! A spec is a comma-separated list of events:
//!
//! ```text
//! spec    := event ("," event)*
//! event   := kind "@" index ("x" times)?     explicit job/ordinal index
//!          | kind "~" count                  seeded: count indices drawn
//!                                            from the campaign seed
//! kind    := "kill" | "torn" | "hang" | "io"
//! ```
//!
//! * `kill@J` — the worker holding the lease containing job `J` completes
//!   (and journals) every job below `J`, then aborts without warning.
//! * `torn@J` — like `kill@J`, but the worker also appends a corrupt
//!   half-record to its lease journal before dying, so recovery must drop
//!   a torn tail, not just resume a clean prefix.
//! * `hang@J` — the worker completes every job below `J` then stops making
//!   progress without exiting; only the coordinator's journal-growth lease
//!   expiry can reclaim the range.
//! * `io@N` — the `N`-th store I/O operation (a process-global ordinal
//!   counted across reads and writes) fails with an injected I/O error.
//!   `io@NxK` fails `K` consecutive ordinals: `x1` exercises the store's
//!   transient-retry path (the retry draws the next ordinal and succeeds),
//!   larger `K` exhausts the retry.
//! * `kind~C` (kill/torn/hang only) — `C` job indices drawn uniformly from
//!   `0..total_jobs` by a [`clsmith::Rng`] seeded from the campaign seed,
//!   so "chaos, but reproducible" needs no index arithmetic by hand.
//!
//! `xT` multiplicity on a job event means the fault re-fires on the first
//! `T` attempts of its lease: `kill@3x2` kills the worker on the original
//! lease *and* on the first retry, and with `--max-retries 1` poisons the
//! range — the dead-letter/quarantine path.
//!
//! ## Attempt semantics
//!
//! Workers are stateless across processes, so a fault schedule cannot rely
//! on in-memory state: [`FaultPlan::lease_action`] is a pure function of
//! (lease range, attempt number).  The events inside a lease's range are
//! expanded by multiplicity and sorted by job index; attempt `k` of that
//! lease fires the `k`-th expanded event, and attempts past the end run
//! clean.  Sorting makes the fire index non-decreasing over attempts,
//! which guarantees forward progress: every retry starts at or past the
//! previous attempt's journal watermark.

use std::fmt;
use std::ops::Range;
use std::path::Path;

use clsmith::{job_seed, Rng};

/// The kinds of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Abort the worker process after completing jobs below the index.
    Kill,
    /// Abort like [`FaultKind::Kill`], leaving a torn journal tail behind.
    Torn,
    /// Stop making progress without exiting (reclaimed by lease expiry).
    Hang,
    /// Fail a store I/O operation (the index is a store-op ordinal).
    Io,
}

impl FaultKind {
    /// The kind's spec-grammar token (`kill`, `torn`, `hang`, `io`).
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::Kill => "kill",
            FaultKind::Torn => "torn",
            FaultKind::Hang => "hang",
            FaultKind::Io => "io",
        }
    }

    fn from_token(token: &str) -> Option<FaultKind> {
        match token {
            "kill" => Some(FaultKind::Kill),
            "torn" => Some(FaultKind::Torn),
            "hang" => Some(FaultKind::Hang),
            "io" => Some(FaultKind::Io),
            _ => None,
        }
    }
}

/// One parsed spec event, before seeded events are resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SpecEvent {
    /// `kind@index[xTimes]`.
    At {
        kind: FaultKind,
        index: u64,
        times: u32,
    },
    /// `kind~count` — indices drawn from the campaign seed at resolve time.
    Seeded { kind: FaultKind, count: u32 },
}

/// A parsed fault spec (see the module docs for the grammar).  Resolve it
/// against a campaign with [`FaultPlan::resolve`] before use.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSpec {
    events: Vec<SpecEvent>,
}

/// Upper bound on `xN` multiplicities and `~C` counts — a typo should not
/// allocate gigabytes of schedule.
const MAX_TIMES: u32 = 10_000;

impl FaultSpec {
    /// Parses a spec string.  The empty string is the empty (fault-free)
    /// spec.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut events = Vec::new();
        for token in text.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            events.push(Self::parse_event(token)?);
        }
        Ok(FaultSpec { events })
    }

    fn parse_event(token: &str) -> Result<SpecEvent, String> {
        let bad = || {
            format!(
                "bad fault event {token:?}: expected kind@index[xN] or kind~count \
                 with kind one of kill|torn|hang|io"
            )
        };
        if let Some((kind, rest)) = token.split_once('@') {
            let kind = FaultKind::from_token(kind).ok_or_else(bad)?;
            let (index, times) = match rest.split_once('x') {
                Some((index, times)) => (
                    index.parse::<u64>().map_err(|_| bad())?,
                    times.parse::<u32>().map_err(|_| bad())?,
                ),
                None => (rest.parse::<u64>().map_err(|_| bad())?, 1),
            };
            if times == 0 || times > MAX_TIMES {
                return Err(bad());
            }
            Ok(SpecEvent::At { kind, index, times })
        } else if let Some((kind, count)) = token.split_once('~') {
            let kind = FaultKind::from_token(kind).ok_or_else(bad)?;
            if kind == FaultKind::Io {
                return Err(format!(
                    "bad fault event {token:?}: io faults need explicit ordinals (io@N)"
                ));
            }
            let count = count.parse::<u32>().map_err(|_| bad())?;
            if count == 0 || count > MAX_TIMES {
                return Err(bad());
            }
            Ok(SpecEvent::Seeded { kind, count })
        } else {
            Err(bad())
        }
    }

    /// Whether the spec injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What a worker must do with one lease attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseFault {
    /// The fault to enact once `stop_before` is reached.
    pub kind: FaultKind,
    /// Complete (and journal) only jobs below this index, then enact the
    /// fault.  Clamped into the lease range by [`FaultPlan::lease_action`].
    pub stop_before: u64,
}

/// A fault spec resolved against a concrete campaign: seeded events have
/// drawn their indices, everything is sorted and ready for stateless
/// per-lease lookup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Job-indexed events (kill/torn/hang) as (index, kind, times), sorted
    /// by index.
    job_events: Vec<(u64, FaultKind, u32)>,
    /// Store-op events as (first ordinal, consecutive count), sorted.
    io_events: Vec<(u64, u32)>,
}

impl FaultPlan {
    /// Resolves a spec against a campaign: seeded events draw their job
    /// indices from an RNG derived from the campaign seed, so every process
    /// of a fleet (and every re-run of a CI job) computes the same plan.
    pub fn resolve(spec: &FaultSpec, campaign_seed: u64, total_jobs: u64) -> FaultPlan {
        let mut job_events: Vec<(u64, FaultKind, u32)> = Vec::new();
        let mut io_events: Vec<(u64, u32)> = Vec::new();
        for event in &spec.events {
            match *event {
                SpecEvent::At { kind, index, times } => match kind {
                    FaultKind::Io => io_events.push((index, times)),
                    _ => job_events.push((index, kind, times)),
                },
                SpecEvent::Seeded { kind, count } => {
                    // A distinct stream per kind, all derived from the
                    // campaign seed.
                    let tag = kind as u64 + 0xFA17;
                    let mut rng = Rng::seed_from_u64(job_seed(campaign_seed, tag));
                    for _ in 0..count {
                        let index = if total_jobs == 0 {
                            0
                        } else {
                            rng.next_u64() % total_jobs
                        };
                        job_events.push((index, kind, 1));
                    }
                }
            }
        }
        job_events.sort();
        io_events.sort_unstable();
        FaultPlan {
            job_events,
            io_events,
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.job_events.is_empty() && self.io_events.is_empty()
    }

    /// The fault attempt `attempt` of a lease over `range` must enact, if
    /// any (see the module docs for the attempt semantics).
    pub fn lease_action(&self, range: &Range<u64>, attempt: u32) -> Option<LeaseFault> {
        let mut expanded: Vec<(u64, FaultKind)> = Vec::new();
        for &(index, kind, times) in &self.job_events {
            if range.contains(&index) {
                for _ in 0..times {
                    expanded.push((index, kind));
                }
            }
        }
        expanded.sort();
        // Attempts are 1-based: attempt n enacts the n-th event in index
        // order, so retries march forward through the schedule and a lease
        // with k scheduled events completes on attempt k+1.
        expanded
            .get((attempt as usize).checked_sub(1)?)
            .map(|&(index, kind)| LeaseFault {
                kind,
                stop_before: index.max(range.start),
            })
    }

    /// The store-op fault predicate: whether global store operation
    /// `ordinal` should fail.
    pub fn io_fault(&self, ordinal: u64) -> bool {
        self.io_events
            .iter()
            .any(|&(first, count)| ordinal >= first && ordinal - first < count as u64)
    }

    /// Installs this plan's store I/O faults as the process-global store
    /// fault hook (see [`opencl_sim::store::set_io_fault_hook`]); a plan
    /// without io events clears the hook.
    pub fn install_store_faults(&self) {
        if self.io_events.is_empty() {
            opencl_sim::store::set_io_fault_hook(None);
            return;
        }
        let plan = self.clone();
        opencl_sim::store::set_io_fault_hook(Some(std::sync::Arc::new(move |_op, ordinal| {
            plan.io_fault(ordinal).then_some(std::io::ErrorKind::Other)
        })));
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the resolved plan in the spec grammar (seeded events appear
    /// with their drawn indices), so logs record exactly what will fire.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, text: String| -> fmt::Result {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{text}")
        };
        for &(index, kind, times) in &self.job_events {
            let suffix = if times > 1 {
                format!("x{times}")
            } else {
                String::new()
            };
            item(f, format!("{}@{index}{suffix}", kind.token()))?;
        }
        for &(ordinal, times) in &self.io_events {
            let suffix = if times > 1 {
                format!("x{times}")
            } else {
                String::new()
            };
            item(f, format!("io@{ordinal}{suffix}"))?;
        }
        if first {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// Appends a torn tail to a journal file: one complete record line whose
/// checksum is wrong, then a half-written line with no newline — the
/// on-disk residue of a worker killed mid-write, which
/// [`crate::journal::load_journal`] must drop on resume.
pub fn tear_journal_tail(path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(b"R 999999 0000000000000000 0000000000000000 torn 0000000000000000\n")?;
    file.write_all(b"R 999999 00000000")?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_the_grammar() {
        let spec = FaultSpec::parse("kill@3, torn@5x2,hang@8,io@10x3,kill~2").unwrap();
        assert_eq!(spec.events.len(), 5);
        assert!(FaultSpec::parse("").unwrap().is_empty());
        for bad in [
            "boom@3", "kill@", "kill@x2", "kill@3x0", "io~2", "kill~0", "kill-3",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn resolution_is_deterministic_and_in_bounds() {
        let spec = FaultSpec::parse("kill~3,hang~2,torn@7").unwrap();
        let a = FaultPlan::resolve(&spec, 42, 100);
        let b = FaultPlan::resolve(&spec, 42, 100);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::resolve(&spec, 43, 100);
        assert_ne!(a, c, "different seed draws different indices");
        for &(index, _, _) in &a.job_events {
            assert!(index < 100);
        }
        assert_eq!(a.job_events.len(), 6);
    }

    #[test]
    fn lease_actions_fire_in_index_order_per_attempt() {
        let spec = FaultSpec::parse("kill@12,torn@15,hang@3").unwrap();
        let plan = FaultPlan::resolve(&spec, 0, 20);
        let range = 10..20u64;
        assert_eq!(
            plan.lease_action(&range, 1),
            Some(LeaseFault {
                kind: FaultKind::Kill,
                stop_before: 12
            })
        );
        assert_eq!(
            plan.lease_action(&range, 2),
            Some(LeaseFault {
                kind: FaultKind::Torn,
                stop_before: 15
            })
        );
        assert_eq!(plan.lease_action(&range, 3), None, "third attempt is clean");
        // The hang@3 event belongs to a different lease.
        assert_eq!(
            plan.lease_action(&(0..10), 1),
            Some(LeaseFault {
                kind: FaultKind::Hang,
                stop_before: 3
            })
        );
        // Attempts are 1-based; a malformed attempt 0 enacts nothing.
        assert_eq!(plan.lease_action(&range, 0), None);
    }

    #[test]
    fn multiplicity_refires_across_attempts() {
        let spec = FaultSpec::parse("kill@5x3").unwrap();
        let plan = FaultPlan::resolve(&spec, 0, 10);
        for attempt in 1..=3 {
            assert_eq!(
                plan.lease_action(&(0..10), attempt),
                Some(LeaseFault {
                    kind: FaultKind::Kill,
                    stop_before: 5
                })
            );
        }
        assert_eq!(plan.lease_action(&(0..10), 4), None);
    }

    #[test]
    fn io_faults_cover_consecutive_ordinals() {
        let spec = FaultSpec::parse("io@5,io@10x3").unwrap();
        let plan = FaultPlan::resolve(&spec, 0, 10);
        let faulted: Vec<u64> = (0..20).filter(|&o| plan.io_fault(o)).collect();
        assert_eq!(faulted, vec![5, 10, 11, 12]);
    }

    #[test]
    fn plan_renders_for_the_log() {
        let spec = FaultSpec::parse("torn@5x2,kill@3,io@7").unwrap();
        let plan = FaultPlan::resolve(&spec, 0, 10);
        assert_eq!(plan.to_string(), "kill@3,torn@5x2,io@7");
        assert_eq!(FaultPlan::default().to_string(), "(none)");
    }

    #[test]
    fn torn_tail_is_dropped_by_the_loader() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("clfuzz-faults-torn-{}.log", std::process::id()));
        let header = crate::shard::lease_header("test:torn", 1, 10, 0, 0..10);
        let mut writer = crate::journal::JournalWriter::create(&path, &header).unwrap();
        writer.record(crate::journal::JournalRecord::new(0, 1, "p0".into()));
        writer.finish().unwrap();
        tear_journal_tail(&path).unwrap();
        let loaded = crate::journal::load_journal(&path).unwrap();
        assert_eq!(loaded.records.len(), 1, "the torn tail must be dropped");
        assert!(loaded.dropped_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }
}
