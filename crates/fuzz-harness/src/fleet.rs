//! Crash-tolerant campaign fleet coordination.
//!
//! A **coordinator** owns a campaign's job index space `0..total_jobs` and
//! leases contiguous ranges of it to **workers** — separate processes in
//! production ([`ProcessWorker`]), scripted stubs in tests — over a
//! zero-dependency line protocol ([`FleetCommand`] / [`FleetReply`]) framed
//! as one ASCII line per message, transport-agnostic by construction
//! (production uses worker stdin/stdout).
//!
//! Every lease writes its own `CLFUZZ-JOURNAL` (see [`crate::journal`]), so
//! the coordinator never trusts a worker's word alone:
//!
//! * **liveness** is observed through journal growth — a lease whose
//!   journal stops growing for longer than the lease timeout is presumed
//!   stuck, its worker is killed, and the range is re-leased;
//! * **crash recovery** is journal resume — a re-leased range picks up
//!   after the last valid record of the previous attempt's journal, so
//!   work done before a crash (even one with a torn final line) is kept;
//! * **poisoned ranges** — ranges that keep failing past the bounded
//!   retry-with-backoff budget — are quarantined as [`DeadLetter`]
//!   records, and the campaign completes around them with explicit gap
//!   accounting ([`FleetOutcome::gaps`]) instead of hanging forever.
//!
//! The merged result of a fleet run is produced by merging the per-lease
//! journals ([`crate::shard::merge`]); because every lease folds
//! journal-decoded outputs in ascending job order, the merged tables are
//! bit-identical to a fault-free single-process run of the same campaign —
//! the invariant the chaos tests pin.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One leased range of the job index space, as granted to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// Stable lease identifier: the range's index in the fixed partition of
    /// the job space, so re-leases of the same range share an id (and a
    /// journal path, which is what makes resume-after-crash work).
    pub id: u32,
    /// First job index of the range.
    pub start: u64,
    /// One past the last job index of the range.
    pub end: u64,
    /// 1-based attempt number for this range.
    pub attempt: u32,
    /// Journal path the worker must write (and resume from when it already
    /// holds a previous attempt's records).
    pub journal: PathBuf,
}

/// Coordinator-to-worker protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetCommand {
    /// Grant a lease; the worker runs it and replies `DONE` or `FAIL`.
    Lease(LeaseRecord),
    /// Orderly shutdown; the worker exits its loop.
    Shutdown,
}

impl FleetCommand {
    /// Renders the message as its single protocol line (no newline).
    pub fn render(&self) -> String {
        match self {
            FleetCommand::Lease(l) => format!(
                "LEASE {} {} {} {} {}",
                l.id,
                l.start,
                l.end,
                l.attempt,
                l.journal.display()
            ),
            FleetCommand::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// Parses one protocol line; `None` for anything malformed (workers
    /// skip such lines rather than dying on them).
    pub fn parse(line: &str) -> Option<FleetCommand> {
        let line = line.trim_end();
        if line == "SHUTDOWN" {
            return Some(FleetCommand::Shutdown);
        }
        let rest = line.strip_prefix("LEASE ")?;
        let mut parts = rest.splitn(5, ' ');
        let id = parts.next()?.parse().ok()?;
        let start = parts.next()?.parse().ok()?;
        let end = parts.next()?.parse().ok()?;
        let attempt = parts.next()?.parse().ok()?;
        let journal = PathBuf::from(parts.next()?);
        (start <= end && attempt >= 1).then_some(FleetCommand::Lease(LeaseRecord {
            id,
            start,
            end,
            attempt,
            journal,
        }))
    }
}

/// Worker-to-coordinator protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetReply {
    /// The worker is up and ready for its first lease.
    Ready {
        /// The worker's OS process id (0 for in-process stubs).
        pid: u32,
    },
    /// The lease ran to the end of its range.
    Done {
        /// Lease id being acknowledged.
        id: u32,
        /// Jobs executed *by this attempt* (resumed jobs not re-counted).
        jobs: u64,
    },
    /// The lease failed; the coordinator will retry or quarantine.
    Fail {
        /// Lease id being failed.
        id: u32,
        /// One-line human-readable reason.
        reason: String,
    },
}

impl FleetReply {
    /// Renders the message as its single protocol line (no newline).
    pub fn render(&self) -> String {
        match self {
            FleetReply::Ready { pid } => format!("READY {pid}"),
            FleetReply::Done { id, jobs } => format!("DONE {id} {jobs}"),
            FleetReply::Fail { id, reason } => {
                format!("FAIL {id} {}", reason.replace(['\n', '\r'], "; "))
            }
        }
    }

    /// Parses one protocol line; `None` for anything malformed (the
    /// coordinator ignores such lines — a crashing worker can emit junk).
    pub fn parse(line: &str) -> Option<FleetReply> {
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("READY ") {
            return Some(FleetReply::Ready {
                pid: rest.parse().ok()?,
            });
        }
        if let Some(rest) = line.strip_prefix("DONE ") {
            let mut parts = rest.splitn(2, ' ');
            return Some(FleetReply::Done {
                id: parts.next()?.parse().ok()?,
                jobs: parts.next()?.parse().ok()?,
            });
        }
        if let Some(rest) = line.strip_prefix("FAIL ") {
            let mut parts = rest.splitn(2, ' ');
            return Some(FleetReply::Fail {
                id: parts.next()?.parse().ok()?,
                reason: parts.next().unwrap_or("").to_string(),
            });
        }
        None
    }
}

/// A coordinator's handle on one worker, over whatever transport.
///
/// The production implementation is [`ProcessWorker`] (a child process with
/// piped stdio); tests script the trait directly.
pub trait WorkerLink {
    /// Delivers one command; an error means the worker is unreachable and
    /// the coordinator treats it as dead.
    fn send(&mut self, command: &FleetCommand) -> io::Result<()>;
    /// Takes the next pending reply, if one has arrived.
    fn try_recv(&mut self) -> Option<FleetReply>;
    /// Whether the worker still appears to be running.
    fn is_alive(&mut self) -> bool;
    /// Forcibly terminates the worker (idempotent, best effort).
    fn kill(&mut self);
}

/// A worker child process speaking the fleet protocol on its stdio.
///
/// A reader thread drains the child's stdout into a channel so the
/// coordinator's `try_recv` never blocks; stderr is inherited so worker
/// diagnostics (including fault-injection logs) stay visible.
pub struct ProcessWorker {
    child: Child,
    stdin: std::process::ChildStdin,
    replies: mpsc::Receiver<FleetReply>,
}

impl ProcessWorker {
    /// Spawns `command` with piped stdin/stdout and starts the reply
    /// reader thread.
    pub fn spawn(command: &mut Command) -> io::Result<ProcessWorker> {
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut child = command.spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| io::Error::other("worker stdin not piped"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("worker stdout not piped"))?;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(reply) = FleetReply::parse(&line) {
                    if tx.send(reply).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(ProcessWorker {
            child,
            stdin,
            replies: rx,
        })
    }
}

impl WorkerLink for ProcessWorker {
    fn send(&mut self, command: &FleetCommand) -> io::Result<()> {
        writeln!(self.stdin, "{}", command.render())?;
        self.stdin.flush()
    }

    fn try_recv(&mut self) -> Option<FleetReply> {
        self.replies.try_recv().ok()
    }

    fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Tuning knobs for a [`Coordinator`] run.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of worker slots the coordinator keeps filled.
    pub workers: usize,
    /// Jobs per lease; the job space is partitioned into fixed contiguous
    /// ranges of this size (last one possibly short).
    pub lease_jobs: u64,
    /// How long a lease's journal may stop growing before the lease is
    /// presumed stuck and revoked.
    pub lease_timeout: Duration,
    /// Re-lease attempts after the first before a range is quarantined
    /// (so a range is tried `max_retries + 1` times in total).
    pub max_retries: u32,
    /// Base of the exponential retry backoff: attempt `n` waits
    /// `retry_backoff * 2^(n-1)`, capped at five seconds.
    pub retry_backoff: Duration,
    /// Coordinator poll interval (reply drain + liveness sweep cadence).
    pub poll_interval: Duration,
    /// Directory for per-lease journals, `fleet.log`, and
    /// `dead-letters.log`.
    pub journal_dir: PathBuf,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            workers: 2,
            lease_jobs: 64,
            lease_timeout: Duration::from_secs(10),
            max_retries: 3,
            retry_backoff: Duration::from_millis(50),
            poll_interval: Duration::from_millis(10),
            journal_dir: PathBuf::from("."),
        }
    }
}

/// A quarantined range: retried past its budget and abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// First job index of the poisoned range.
    pub start: u64,
    /// One past the last job index of the poisoned range.
    pub end: u64,
    /// Total attempts spent before quarantine.
    pub attempts: u32,
    /// Reason reported by (or inferred for) the final attempt.
    pub reason: String,
}

impl fmt::Display for DeadLetter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DEAD {}-{} attempts={} reason={}",
            self.start, self.end, self.attempts, self.reason
        )
    }
}

/// What a [`Coordinator`] run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Total jobs in the campaign.
    pub total_jobs: u64,
    /// Jobs covered by completed leases (journal-resumed jobs included).
    pub completed_jobs: u64,
    /// Leases granted, counting every retry.
    pub leases_issued: u64,
    /// Re-lease attempts caused by failures, deaths, or stalls.
    pub retries: u64,
    /// Replacement workers spawned after deaths or kills.
    pub respawns: u64,
    /// Journals of completed leases, in ascending range order — the input
    /// to the merge step.
    pub journals: Vec<PathBuf>,
    /// Quarantined ranges, in ascending range order.
    pub dead_letters: Vec<DeadLetter>,
}

impl FleetOutcome {
    /// Whether every job was covered (no quarantined ranges).
    pub fn is_complete(&self) -> bool {
        self.dead_letters.is_empty()
    }

    /// The uncovered index ranges, for explicit gap accounting in merged
    /// tables.
    pub fn gaps(&self) -> Vec<(u64, u64)> {
        self.dead_letters.iter().map(|d| (d.start, d.end)).collect()
    }
}

/// State of one range of the partitioned job space.
#[derive(Debug)]
enum RangeState {
    /// Waiting (possibly in backoff) to be leased; `ready_at` gates the
    /// next grant, `attempts` counts grants so far.
    Pending { ready_at: Instant, attempts: u32 },
    /// Currently leased to some worker slot (the slot tracks which).
    Active {
        attempts: u32,
        /// Journal length at the last observed growth.
        journal_len: u64,
        /// When the journal last grew (or the lease was granted).
        last_progress: Instant,
    },
    /// Completed: journal is final.
    Done,
    /// Quarantined.
    Dead,
}

/// One worker slot.
struct Slot {
    link: Option<Box<dyn WorkerLink>>,
    /// Range index of the lease this slot is running, if any.
    lease: Option<usize>,
    /// Whether the worker has sent `READY` and finished any prior lease.
    idle: bool,
}

/// The fleet coordinator: owns the job index space, grants leases, watches
/// liveness, retries, quarantines, and reports the merged coverage.
pub struct Coordinator {
    options: FleetOptions,
    total_jobs: u64,
    ranges: Vec<(u64, u64)>,
    log: Option<std::fs::File>,
}

impl Coordinator {
    /// Creates a coordinator for `total_jobs` jobs, partitioned into
    /// `options.lease_jobs`-sized ranges. Creates `journal_dir` (and its
    /// `fleet.log`) eagerly so early failures surface as errors here.
    pub fn new(options: FleetOptions, total_jobs: u64) -> io::Result<Coordinator> {
        std::fs::create_dir_all(&options.journal_dir)?;
        let log = std::fs::File::create(options.journal_dir.join("fleet.log"))?;
        let lease_jobs = options.lease_jobs.max(1);
        let mut ranges = Vec::new();
        let mut start = 0;
        while start < total_jobs {
            let end = (start + lease_jobs).min(total_jobs);
            ranges.push((start, end));
            start = end;
        }
        Ok(Coordinator {
            options,
            total_jobs,
            ranges,
            log: Some(log),
        })
    }

    /// The journal path for range index `id` — stable across attempts so a
    /// re-lease resumes its predecessor's journal.
    pub fn journal_path(&self, id: u32) -> PathBuf {
        self.options
            .journal_dir
            .join(format!("lease-{id:04}.journal"))
    }

    fn log_event(&mut self, observer: &mut Option<&mut dyn FnMut(&str)>, line: &str) {
        if let Some(log) = &mut self.log {
            let _ = writeln!(log, "{line}");
            let _ = log.flush();
        }
        if let Some(observer) = observer {
            observer(line);
        }
    }

    fn backoff(&self, attempts: u32) -> Duration {
        let exp = attempts.saturating_sub(1).min(16);
        let base = self.options.retry_backoff.as_millis() as u64;
        Duration::from_millis((base << exp).min(5_000))
    }

    /// Runs the fleet to completion: every range either completes or is
    /// quarantined. `spawn` fills worker slot `i` (initially and after
    /// deaths); `observer`, when given, receives every event-log line as
    /// it is written (the `--follow` hook).
    pub fn run(
        &mut self,
        spawn: &mut dyn FnMut(usize) -> io::Result<Box<dyn WorkerLink>>,
        mut observer: Option<&mut dyn FnMut(&str)>,
    ) -> io::Result<FleetOutcome> {
        let now = Instant::now();
        let mut states: Vec<RangeState> = self
            .ranges
            .iter()
            .map(|_| RangeState::Pending {
                ready_at: now,
                attempts: 0,
            })
            .collect();
        let mut slots: Vec<Slot> = Vec::new();
        for i in 0..self.options.workers.max(1) {
            slots.push(Slot {
                link: Some(spawn(i)?),
                lease: None,
                idle: false,
            });
        }
        self.log_event(
            &mut observer,
            &format!(
                "FLEET jobs={} ranges={} workers={}",
                self.total_jobs,
                self.ranges.len(),
                slots.len()
            ),
        );

        let mut leases_issued = 0u64;
        let mut retries = 0u64;
        let mut respawns = 0u64;
        let mut dead_letters: Vec<(usize, DeadLetter)> = Vec::new();
        let mut last_reasons: Vec<String> = vec![String::new(); self.ranges.len()];

        loop {
            let mut progressed = false;

            // 1. Drain replies.
            for (slot_index, slot) in slots.iter_mut().enumerate() {
                while let Some(reply) = slot.link.as_mut().and_then(|link| link.try_recv()) {
                    progressed = true;
                    match reply {
                        FleetReply::Ready { pid } => {
                            slot.idle = true;
                            self.log_event(
                                &mut observer,
                                &format!("READY worker={slot_index} pid={pid}"),
                            );
                        }
                        FleetReply::Done { id, jobs } => {
                            let range_index = id as usize;
                            if slot.lease != Some(range_index) {
                                continue; // Stale ack from a revoked lease.
                            }
                            let (start, end) = self.ranges[range_index];
                            states[range_index] = RangeState::Done;
                            slot.lease = None;
                            slot.idle = true;
                            self.log_event(
                                &mut observer,
                                &format!("DONE lease={id} range={start}-{end} jobs={jobs}"),
                            );
                        }
                        FleetReply::Fail { id, reason } => {
                            let range_index = id as usize;
                            if slot.lease != Some(range_index) {
                                continue;
                            }
                            slot.lease = None;
                            slot.idle = true;
                            last_reasons[range_index] = reason.clone();
                            self.requeue(
                                &mut states,
                                range_index,
                                &mut retries,
                                &mut dead_letters,
                                &last_reasons,
                                &mut observer,
                                &format!("FAIL lease={id} reason={reason}"),
                            );
                        }
                    }
                }
            }

            // 2. Liveness: dead workers and stalled journals.
            for (slot_index, slot) in slots.iter_mut().enumerate() {
                let alive = slot.link.as_mut().is_some_and(|link| link.is_alive());
                if !alive {
                    if let Some(range_index) = slot.lease.take() {
                        progressed = true;
                        last_reasons[range_index] = "worker died".to_string();
                        self.requeue(
                            &mut states,
                            range_index,
                            &mut retries,
                            &mut dead_letters,
                            &last_reasons,
                            &mut observer,
                            &format!("LOST lease={range_index} worker={slot_index} (worker died)"),
                        );
                    }
                    slot.link = None;
                    slot.idle = false;
                    continue;
                }
                if let Some(range_index) = slot.lease {
                    if let RangeState::Active {
                        journal_len,
                        last_progress,
                        ..
                    } = &mut states[range_index]
                    {
                        let len = std::fs::metadata(self.journal_path(range_index as u32))
                            .map(|m| m.len())
                            .unwrap_or(0);
                        if len > *journal_len {
                            *journal_len = len;
                            *last_progress = Instant::now();
                        } else if last_progress.elapsed() > self.options.lease_timeout {
                            progressed = true;
                            if let Some(link) = &mut slot.link {
                                link.kill();
                            }
                            slot.link = None;
                            slot.lease = None;
                            slot.idle = false;
                            last_reasons[range_index] = "lease expired (journal stalled)".into();
                            self.requeue(
                                &mut states,
                                range_index,
                                &mut retries,
                                &mut dead_letters,
                                &last_reasons,
                                &mut observer,
                                &format!(
                                    "EXPIRE lease={range_index} worker={slot_index} \
                                     (journal stalled past timeout)"
                                ),
                            );
                        }
                    }
                }
            }

            // 3. Completion check (before respawning anything we may no
            //    longer need).
            let open_work = states
                .iter()
                .any(|s| matches!(s, RangeState::Pending { .. } | RangeState::Active { .. }));
            if !open_work {
                break;
            }

            // 4. Refill empty worker slots while work remains.
            for (slot_index, slot) in slots.iter_mut().enumerate() {
                if slot.link.is_none() {
                    match spawn(slot_index) {
                        Ok(link) => {
                            slot.link = Some(link);
                            slot.idle = false;
                            respawns += 1;
                            progressed = true;
                        }
                        Err(e) => {
                            self.log_event(
                                &mut observer,
                                &format!("SPAWN-FAIL worker={slot_index} error={e}"),
                            );
                        }
                    }
                }
            }
            if slots.iter().all(|s| s.link.is_none()) {
                return Err(io::Error::other(
                    "fleet stalled: no workers alive and none could be spawned",
                ));
            }

            // 5. Grant due ranges to idle workers.
            let now = Instant::now();
            for (range_index, state) in states.iter_mut().enumerate() {
                let RangeState::Pending { ready_at, attempts } = *state else {
                    continue;
                };
                if ready_at > now {
                    continue;
                }
                let Some(slot_index) = slots
                    .iter()
                    .position(|s| s.idle && s.lease.is_none() && s.link.is_some())
                else {
                    break;
                };
                let (start, end) = self.ranges[range_index];
                let lease = LeaseRecord {
                    id: range_index as u32,
                    start,
                    end,
                    attempt: attempts + 1,
                    journal: self.journal_path(range_index as u32),
                };
                let command = FleetCommand::Lease(lease);
                let slot = &mut slots[slot_index];
                match slot.link.as_mut().unwrap().send(&command) {
                    Ok(()) => {
                        progressed = true;
                        leases_issued += 1;
                        slot.lease = Some(range_index);
                        slot.idle = false;
                        *state = RangeState::Active {
                            attempts: attempts + 1,
                            journal_len: std::fs::metadata(self.journal_path(range_index as u32))
                                .map(|m| m.len())
                                .unwrap_or(0),
                            last_progress: Instant::now(),
                        };
                        self.log_event(
                            &mut observer,
                            &format!(
                                "LEASE id={range_index} range={start}-{end} attempt={} \
                                 worker={slot_index}",
                                attempts + 1
                            ),
                        );
                    }
                    Err(e) => {
                        // Unreachable worker: drop the link; the liveness
                        // sweep respawns the slot next round.
                        slot.link = None;
                        slot.idle = false;
                        self.log_event(
                            &mut observer,
                            &format!("SEND-FAIL worker={slot_index} error={e}"),
                        );
                    }
                }
            }

            if !progressed {
                std::thread::sleep(self.options.poll_interval);
            }
        }

        // Orderly shutdown: ask, then insist.
        for slot in slots.iter_mut() {
            if let Some(link) = &mut slot.link {
                let _ = link.send(&FleetCommand::Shutdown);
                link.kill();
            }
        }

        dead_letters.sort_by_key(|(index, _)| *index);
        let dead_letters: Vec<DeadLetter> =
            dead_letters.into_iter().map(|(_, letter)| letter).collect();
        if !dead_letters.is_empty() {
            let mut dl = std::fs::File::create(self.options.journal_dir.join("dead-letters.log"))?;
            for letter in &dead_letters {
                writeln!(dl, "{letter}")?;
            }
        }
        let completed_jobs = states
            .iter()
            .zip(&self.ranges)
            .filter(|(s, _)| matches!(s, RangeState::Done))
            .map(|(_, (start, end))| end - start)
            .sum();
        let journals = states
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, RangeState::Done))
            .map(|(i, _)| self.journal_path(i as u32))
            .collect();
        let outcome = FleetOutcome {
            total_jobs: self.total_jobs,
            completed_jobs,
            leases_issued,
            retries,
            respawns,
            journals,
            dead_letters,
        };
        self.log_event(
            &mut observer,
            &format!(
                "FLEET-END completed={}/{} leases={} retries={} respawns={} quarantined={}",
                outcome.completed_jobs,
                outcome.total_jobs,
                outcome.leases_issued,
                outcome.retries,
                outcome.respawns,
                outcome.dead_letters.len()
            ),
        );
        Ok(outcome)
    }

    /// Returns a failed/stalled range to the pending queue, or quarantines
    /// it once its retry budget is spent.
    #[allow(clippy::too_many_arguments)]
    fn requeue(
        &mut self,
        states: &mut [RangeState],
        range_index: usize,
        retries: &mut u64,
        dead_letters: &mut Vec<(usize, DeadLetter)>,
        last_reasons: &[String],
        observer: &mut Option<&mut dyn FnMut(&str)>,
        event: &str,
    ) {
        let attempts = match &states[range_index] {
            RangeState::Active { attempts, .. } => *attempts,
            _ => return,
        };
        self.log_event(observer, event);
        if attempts > self.options.max_retries {
            let (start, end) = self.ranges[range_index];
            let letter = DeadLetter {
                start,
                end,
                attempts,
                reason: last_reasons[range_index].clone(),
            };
            self.log_event(observer, &format!("QUARANTINE {letter}"));
            states[range_index] = RangeState::Dead;
            dead_letters.push((range_index, letter));
        } else {
            *retries += 1;
            let backoff = self.backoff(attempts);
            self.log_event(
                observer,
                &format!(
                    "RETRY lease={range_index} attempt={} backoff={}ms",
                    attempts + 1,
                    backoff.as_millis()
                ),
            );
            states[range_index] = RangeState::Pending {
                ready_at: Instant::now() + backoff,
                attempts,
            };
        }
    }
}

/// The worker side of the protocol: announce readiness, then serve leases
/// from `input` until `SHUTDOWN` or EOF.
///
/// `execute` runs one lease and returns the number of jobs this attempt
/// executed, or a one-line failure reason. The bench binaries plug
/// [`crate::run_lease`] (and the fault-injection actions) in here.
pub fn run_worker(
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    execute: &mut dyn FnMut(&LeaseRecord) -> Result<u64, String>,
) -> io::Result<()> {
    writeln!(
        output,
        "{}",
        FleetReply::Ready {
            pid: std::process::id()
        }
        .render()
    )?;
    output.flush()?;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(()); // Coordinator hung up.
        }
        match FleetCommand::parse(&line) {
            Some(FleetCommand::Shutdown) => return Ok(()),
            Some(FleetCommand::Lease(lease)) => {
                let reply = match execute(&lease) {
                    Ok(jobs) => FleetReply::Done { id: lease.id, jobs },
                    Err(reason) => FleetReply::Fail {
                        id: lease.id,
                        reason,
                    },
                };
                writeln!(output, "{}", reply.render())?;
                output.flush()?;
            }
            None => continue,
        }
    }
}

/// Appends `line` to the journal directory's `workers.log` — the fault
/// diagnostics channel for workers, kept separate from the coordinator's
/// `fleet.log` to avoid interleaving partial lines across processes.
pub fn append_worker_log(journal_dir: &Path, line: &str) {
    let path = journal_dir.join("workers.log");
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(file, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// What a scripted worker does with each granted lease.
    #[derive(Clone, Copy)]
    enum Behavior {
        /// Reply `DONE` immediately.
        Complete,
        /// Reply `FAIL` immediately.
        Fail,
        /// Accept the lease and go quiet (stays alive → journal stall).
        Stall,
        /// Die silently on receiving the lease.
        Die,
    }

    #[derive(Default)]
    struct ScriptState {
        received: Vec<FleetCommand>,
        queue: VecDeque<FleetReply>,
        alive: bool,
        killed: bool,
    }

    struct ScriptedWorker {
        state: Rc<RefCell<ScriptState>>,
        behavior: Behavior,
    }

    fn scripted(behavior: Behavior) -> (ScriptedWorker, Rc<RefCell<ScriptState>>) {
        let state = Rc::new(RefCell::new(ScriptState {
            alive: true,
            ..ScriptState::default()
        }));
        state
            .borrow_mut()
            .queue
            .push_back(FleetReply::Ready { pid: 0 });
        (
            ScriptedWorker {
                state: Rc::clone(&state),
                behavior,
            },
            state,
        )
    }

    impl WorkerLink for ScriptedWorker {
        fn send(&mut self, command: &FleetCommand) -> io::Result<()> {
            let mut state = self.state.borrow_mut();
            if !state.alive {
                return Err(io::Error::other("worker gone"));
            }
            state.received.push(command.clone());
            if let FleetCommand::Lease(lease) = command {
                match self.behavior {
                    Behavior::Complete => {
                        let reply = FleetReply::Done {
                            id: lease.id,
                            jobs: lease.end - lease.start,
                        };
                        state.queue.push_back(reply);
                    }
                    Behavior::Fail => {
                        state.queue.push_back(FleetReply::Fail {
                            id: lease.id,
                            reason: "scripted failure".into(),
                        });
                    }
                    Behavior::Stall => {}
                    Behavior::Die => state.alive = false,
                }
            }
            Ok(())
        }

        fn try_recv(&mut self) -> Option<FleetReply> {
            self.state.borrow_mut().queue.pop_front()
        }

        fn is_alive(&mut self) -> bool {
            self.state.borrow().alive
        }

        fn kill(&mut self) {
            let mut state = self.state.borrow_mut();
            state.alive = false;
            state.killed = true;
        }
    }

    fn test_options(dir: &str) -> FleetOptions {
        let journal_dir =
            std::env::temp_dir().join(format!("clfuzz-fleet-test-{}-{dir}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal_dir);
        FleetOptions {
            workers: 2,
            lease_jobs: 30,
            lease_timeout: Duration::from_millis(40),
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            poll_interval: Duration::from_millis(1),
            journal_dir,
        }
    }

    #[test]
    fn protocol_lines_roundtrip() {
        let lease = FleetCommand::Lease(LeaseRecord {
            id: 7,
            start: 210,
            end: 240,
            attempt: 2,
            journal: PathBuf::from("/tmp/with spaces/lease-0007.journal"),
        });
        assert_eq!(FleetCommand::parse(&lease.render()), Some(lease));
        let shutdown = FleetCommand::Shutdown;
        assert_eq!(FleetCommand::parse(&shutdown.render()), Some(shutdown));
        for reply in [
            FleetReply::Ready { pid: 4242 },
            FleetReply::Done { id: 3, jobs: 30 },
            FleetReply::Fail {
                id: 9,
                reason: "kernel panicked; twice".into(),
            },
        ] {
            assert_eq!(FleetReply::parse(&reply.render()), Some(reply));
        }
        for junk in ["", "LEASE", "LEASE a b c d e", "DONE 1", "NOISE 1 2 3"] {
            assert!(FleetCommand::parse(junk).is_none() || junk.starts_with("LEASE"));
            assert!(FleetReply::parse(junk).is_none());
        }
        // Multi-line failure reasons are flattened to one protocol line.
        let flat = FleetReply::Fail {
            id: 1,
            reason: "line one\nline two".into(),
        }
        .render();
        assert!(!flat.contains('\n'));
    }

    #[test]
    fn fleet_completes_all_ranges_with_reliable_workers() {
        let mut coordinator = Coordinator::new(test_options("ok"), 100).unwrap();
        let mut handles = Vec::new();
        let outcome = coordinator
            .run(
                &mut |_slot| {
                    let (worker, state) = scripted(Behavior::Complete);
                    handles.push(state);
                    Ok(Box::new(worker) as Box<dyn WorkerLink>)
                },
                None,
            )
            .unwrap();
        assert_eq!(outcome.completed_jobs, 100);
        assert!(outcome.is_complete());
        assert_eq!(outcome.journals.len(), 4, "100 jobs / 30 per lease");
        assert_eq!(outcome.leases_issued, 4);
        assert_eq!(outcome.retries, 0);
        // Both initial workers — and only those — were spawned.
        assert_eq!(handles.len(), 2);
        assert_eq!(outcome.respawns, 0);
        // Journals are listed in ascending range order.
        let names: Vec<String> = outcome
            .journals
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            [
                "lease-0000.journal",
                "lease-0001.journal",
                "lease-0002.journal",
                "lease-0003.journal"
            ]
        );
    }

    #[test]
    fn failing_range_retries_then_quarantines_as_dead_letter() {
        let mut options = test_options("poison");
        options.workers = 1;
        options.lease_jobs = 64;
        let mut coordinator = Coordinator::new(options.clone(), 40).unwrap();
        let outcome = coordinator
            .run(
                &mut |_slot| Ok(Box::new(scripted(Behavior::Fail).0) as Box<dyn WorkerLink>),
                None,
            )
            .unwrap();
        assert_eq!(outcome.completed_jobs, 0);
        assert_eq!(outcome.dead_letters.len(), 1);
        let letter = &outcome.dead_letters[0];
        assert_eq!((letter.start, letter.end), (0, 40));
        assert_eq!(letter.attempts, options.max_retries + 1);
        assert_eq!(letter.reason, "scripted failure");
        assert_eq!(outcome.retries, options.max_retries as u64);
        assert_eq!(outcome.gaps(), vec![(0, 40)]);
        // The quarantine is durably recorded.
        let dl = std::fs::read_to_string(options.journal_dir.join("dead-letters.log")).unwrap();
        assert!(dl.contains("DEAD 0-40 attempts=3"), "got: {dl}");
    }

    #[test]
    fn dead_worker_is_replaced_and_its_lease_reissued() {
        let mut options = test_options("die");
        options.workers = 1;
        let mut coordinator = Coordinator::new(options, 30).unwrap();
        let mut spawned = 0;
        let outcome = coordinator
            .run(
                &mut |_slot| {
                    spawned += 1;
                    let behavior = if spawned == 1 {
                        Behavior::Die
                    } else {
                        Behavior::Complete
                    };
                    Ok(Box::new(scripted(behavior).0) as Box<dyn WorkerLink>)
                },
                None,
            )
            .unwrap();
        assert_eq!(outcome.completed_jobs, 30);
        assert!(outcome.is_complete());
        assert_eq!(outcome.retries, 1, "death costs one retry");
        assert!(outcome.respawns >= 1);
        assert!(spawned >= 2);
    }

    #[test]
    fn stalled_lease_expires_via_journal_growth_liveness() {
        let mut options = test_options("stall");
        options.workers = 1;
        let mut coordinator = Coordinator::new(options, 30).unwrap();
        let mut handles = Vec::new();
        let mut events = Vec::new();
        let mut observer = |line: &str| events.push(line.to_string());
        let outcome = coordinator
            .run(
                &mut |_slot| {
                    let behavior = if handles.is_empty() {
                        Behavior::Stall
                    } else {
                        Behavior::Complete
                    };
                    let (worker, state) = scripted(behavior);
                    handles.push(state);
                    Ok(Box::new(worker) as Box<dyn WorkerLink>)
                },
                Some(&mut observer),
            )
            .unwrap();
        assert_eq!(outcome.completed_jobs, 30);
        assert!(
            handles[0].borrow().killed,
            "stalled worker must be killed on expiry"
        );
        assert!(
            events.iter().any(|e| e.starts_with("EXPIRE")),
            "expiry must be logged: {events:?}"
        );
        // The event log on disk mirrors the observer stream.
        let log =
            std::fs::read_to_string(coordinator.options.journal_dir.join("fleet.log")).unwrap();
        assert!(log.contains("EXPIRE"));
        assert!(log.contains("FLEET-END completed=30/30"));
    }

    #[test]
    fn worker_loop_serves_leases_and_shuts_down() {
        let dir = std::env::temp_dir();
        let input = format!(
            "LEASE 0 0 10 1 {}\nnot a command\nLEASE 1 10 20 2 {}\nSHUTDOWN\n",
            dir.join("a.journal").display(),
            dir.join("b.journal").display()
        );
        let mut output = Vec::new();
        let mut seen = Vec::new();
        run_worker(
            &mut input.as_bytes(),
            &mut output,
            &mut |lease: &LeaseRecord| {
                seen.push(lease.clone());
                if lease.id == 0 {
                    Ok(10)
                } else {
                    Err("mode unsupported\nextra".into())
                }
            },
        )
        .unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].attempt, 1);
        assert_eq!(seen[1].attempt, 2);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines[0], format!("READY {}", std::process::id()));
        assert_eq!(lines[1], "DONE 0 10");
        assert_eq!(lines[2], "FAIL 1 mode unsupported; extra");
    }
}
