//! The parallel campaign engine: a deterministic work scheduler that every
//! fuzzing driver in this crate runs on.
//!
//! The paper's campaigns are embarrassingly parallel at the test-case level —
//! each kernel (or EMI base, or benchmark variant) is generated, compiled and
//! executed independently — but naive parallelisation destroys the property
//! that makes fuzzing campaigns debuggable: reproducibility.  The scheduler
//! therefore enforces three invariants:
//!
//! 1. **Per-job seeding** — every job derives its RNG seed as
//!    `campaign_seed → splitmix → job_seed` ([`job_seed`]), a pure function
//!    of the campaign seed and the job *index*, never of the worker thread
//!    or completion order.
//! 2. **Index-ordered aggregation** — results are merged in job-index order
//!    ([`Scheduler::run`] returns them that way), so any fold over them is
//!    oblivious to scheduling.
//! 3. **Contained failures** — a panicking job is caught on the worker,
//!    surfaced as [`JobResult::Failed`], and never wedges the queue; the
//!    remaining jobs still complete.
//!
//! Together these guarantee the headline property (exercised by the
//! `scheduler_determinism` integration tests): for a fixed campaign seed the
//! rendered tables are **bit-identical at any thread count**.
//!
//! Mechanically this is a bounded-queue thread pool: jobs are fed through an
//! [`mpsc::sync_channel`] whose capacity bounds the number of in-flight
//! jobs, workers created with [`std::thread::scope`] pull from the shared
//! receiver whenever they go idle (the channel acts as the work-distribution
//! deque), and results flow back over an unbounded channel tagged with their
//! job index.
//!
//! ## Staged jobs
//!
//! Campaign jobs are not opaque: each one is *generate a test case → execute
//! it → judge the outcomes*.  The [`StagedJob`] trait makes those boundaries
//! explicit (they are where per-stage timing hooks in), and the scheduler
//! runs a job's three stages back to back on one worker.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

pub use clsmith::rng::job_seed;

/// A unit of campaign work with explicit *generate → execute → judge* stage
/// boundaries.  A job owns everything it needs (inputs by value, shared
/// read-only state behind [`Arc`]) and produces a result shard that the
/// driver merges in job-index order; it runs on a worker thread, where
/// panics are contained and reported as [`JobResult::Failed`].
///
/// Stage one consumes the job description and produces the test case; stage
/// two runs it; stage three turns raw outcomes into the job's result shard.
/// The intermediate types carry everything the later stages need, so each
/// stage is a pure function of its input (which is what lets a tracer time
/// them one by one).
pub trait StagedJob: Send {
    /// The generated test case (plus whatever execution context it needs).
    type Generated: Send;
    /// The raw execution outcomes (plus whatever judging context they need).
    type Executed: Send;
    /// The per-job result shard.
    type Output: Send;

    /// Stage 1: generate the test case from the job description.
    fn generate(self) -> Self::Generated;
    /// Stage 2: execute the generated test case.
    fn execute(generated: Self::Generated) -> Self::Executed;
    /// Stage 3: judge the execution outcomes.
    fn judge(executed: Self::Executed) -> Self::Output;
}

/// What became of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobResult<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job panicked on its worker; the queue kept draining.
    Failed(JobFailure),
}

impl<T> JobResult<T> {
    /// The completed value, or `None` for a failed job.
    pub fn completed(self) -> Option<T> {
        match self {
            JobResult::Completed(v) => Some(v),
            JobResult::Failed(_) => None,
        }
    }
}

/// Description of a contained job panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed job in the submitted batch.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

/// Unwraps a batch of results, panicking (deterministically, on the lowest
/// failed job index) if any job failed.
///
/// The campaign drivers use this to preserve their historical semantics:
/// a panic inside kernel generation or execution still aborts the campaign,
/// but it does so identically at every thread count instead of tearing down
/// whichever worker happened to run the job.
pub fn expect_completed<T>(results: Vec<JobResult<T>>) -> Vec<T> {
    results
        .into_iter()
        .map(|r| match r {
            JobResult::Completed(v) => v,
            JobResult::Failed(failure) => panic!("{failure}"),
        })
        .collect()
}

/// A fixed-size worker pool with a bounded work queue and index-ordered
/// result aggregation.
///
/// `Scheduler` is cheap to construct and carries no OS resources: threads
/// are scoped to each [`Scheduler::run`] call, so a sequential fallback
/// (`threads == 1`) spawns nothing at all.
#[derive(Debug, Clone)]
pub struct Scheduler {
    threads: usize,
    queue_capacity: usize,
}

impl Scheduler {
    /// A scheduler with `threads` workers (clamped to at least 1 — a
    /// zero-worker pool could never drain its queue, so `0` means "the
    /// sequential fallback", not "no workers").  The work queue is bounded
    /// at four jobs per worker, enough to keep workers busy without
    /// materialising a whole campaign up front.
    pub fn new(threads: usize) -> Scheduler {
        let threads = threads.max(1);
        Scheduler {
            threads,
            queue_capacity: threads * 4,
        }
    }

    /// A single-worker scheduler that runs every job inline, in order.
    pub fn sequential() -> Scheduler {
        Scheduler::new(1)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a batch of jobs and returns one [`JobResult`] per job, **in
    /// job-index order**, regardless of which workers ran what and in which
    /// order they finished.
    pub fn run<J: StagedJob>(&self, jobs: Vec<J>) -> Vec<JobResult<J::Output>> {
        self.run_streaming(jobs, |_, _| {})
    }

    /// [`Scheduler::run`] with a completion-order observer: `on_result` is
    /// invoked on the collecting thread for every job **as it finishes**
    /// (not in index order), before the batch-wide index-ordered result
    /// vector is assembled.
    ///
    /// This is the seam the shard layer's journal hangs off: the observer
    /// forwards each completed record to the journal writer thread while
    /// the batch is still executing (feeding and collection overlap on
    /// separate threads), so a process killed mid-batch has journaled
    /// everything that finished more than a moment earlier — and workers
    /// never touch IO.
    pub fn run_streaming<J: StagedJob>(
        &self,
        jobs: Vec<J>,
        mut on_result: impl FnMut(usize, &JobResult<J::Output>),
    ) -> Vec<JobResult<J::Output>> {
        let count = jobs.len();
        if self.threads == 1 || count <= 1 {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| {
                    let result = run_one(i, job);
                    on_result(i, &result);
                    result
                })
                .collect();
        }

        let workers = self.threads.min(count);
        let (job_tx, job_rx) = mpsc::sync_channel::<(usize, J)>(self.queue_capacity);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel::<(usize, JobResult<J::Output>)>();

        let mut slots: Vec<Option<JobResult<J::Output>>> = Vec::with_capacity(count);
        slots.resize_with(count, || None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = Arc::clone(&job_rx);
                let tx = result_tx.clone();
                scope.spawn(move || loop {
                    // Hold the lock only to pull the next job; execution is
                    // fully concurrent.  `recv` returning Err means the
                    // sender is gone and the queue is drained.
                    let next = rx.lock().expect("job queue lock poisoned").recv();
                    match next {
                        Ok((index, job)) => {
                            if tx.send((index, run_one(index, job))).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                });
            }
            drop(result_tx);

            // Feed the bounded queue from its own thread (back-pressure
            // blocks the send when all workers are busy and the queue is
            // full) so that this thread collects — and hands to
            // `on_result` — each result as it completes.  Feeding and
            // collecting must overlap: a journal observer that only ran
            // after the whole batch was enqueued would leave every
            // already-finished result stranded in memory until the end of
            // the campaign, exactly what the journal exists to prevent.
            scope.spawn(move || {
                for item in jobs.into_iter().enumerate() {
                    job_tx
                        .send(item)
                        .expect("all workers exited with jobs pending");
                }
            });

            // Collect exactly `count` results.  Every job sends exactly one
            // result — even a panicking job, because the panic is caught
            // around its stages — so this cannot hang.
            for (index, result) in result_rx.iter() {
                debug_assert!(slots[index].is_none(), "job {index} reported twice");
                on_result(index, &result);
                slots[index] = Some(result);
            }
        });

        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} produced no result")))
            .collect()
    }

    /// Runs a batch and unwraps every result (see [`expect_completed`]).
    pub fn run_staged_all<J: StagedJob>(&self, jobs: Vec<J>) -> Vec<J::Output> {
        expect_completed(self.run(jobs))
    }
}

/// Executes one job whole — its three stages back to back — with panic
/// containment.
fn run_one<J: StagedJob>(index: usize, job: J) -> JobResult<J::Output> {
    match catch_unwind(AssertUnwindSafe(move || {
        J::judge(J::execute(J::generate(job)))
    })) {
        Ok(value) => JobResult::Completed(value),
        Err(payload) => {
            // `&*payload` reborrows the payload itself; a plain `&payload`
            // would coerce the `Box` into the trait object and defeat the
            // downcasts below.
            JobResult::Failed(JobFailure {
                index,
                message: panic_message(&*payload),
            })
        }
    }
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial job for exercising the pool: its first two stages pass
    /// the value through, and judging squares it.
    struct Square(u64);

    impl StagedJob for Square {
        type Generated = u64;
        type Executed = u64;
        type Output = u64;

        fn generate(self) -> u64 {
            self.0
        }

        fn execute(n: u64) -> u64 {
            n
        }

        fn judge(n: u64) -> u64 {
            if n == u64::MAX {
                panic!("poisoned job");
            }
            n * n
        }
    }

    /// The platform/AST types that jobs move across threads must be
    /// thread-safe; this is the compile-time audit the `opencl-sim` and
    /// `core` layers are held to.
    #[test]
    fn shared_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<clc::Program>();
        assert_send_sync::<clsmith::GeneratorOptions>();
        assert_send_sync::<clsmith::Rng>();
        assert_send_sync::<opencl_sim::Configuration>();
        assert_send_sync::<opencl_sim::ExecOptions>();
        assert_send_sync::<opencl_sim::TestOutcome>();
        assert_send_sync::<crate::TestTarget>();
        assert_send_sync::<Scheduler>();
    }

    #[test]
    fn results_come_back_in_job_index_order_at_any_thread_count() {
        let jobs = |n: u64| (0..n).map(Square).collect::<Vec<_>>();
        let expected: Vec<u64> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let scheduler = Scheduler::new(threads);
            assert_eq!(
                scheduler.run_staged_all(jobs(97)),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn run_streaming_observes_every_result_exactly_once() {
        // The observer fires in completion order (any order), on the
        // collecting thread, once per job — the contract the campaign
        // journal relies on.
        for threads in [1usize, 4] {
            let scheduler = Scheduler::new(threads);
            let mut seen = Vec::new();
            let results =
                scheduler.run_streaming((0..32).map(Square).collect::<Vec<_>>(), |i, r| {
                    assert_eq!(*r, JobResult::Completed((i * i) as u64));
                    seen.push(i);
                });
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(results.len(), 32);
        }
    }

    #[test]
    fn empty_and_single_batches_work() {
        let scheduler = Scheduler::new(4);
        assert_eq!(
            scheduler.run_staged_all(Vec::<Square>::new()),
            Vec::<u64>::new()
        );
        assert_eq!(scheduler.run_staged_all(vec![Square(3)]), vec![9]);
    }

    #[test]
    fn panics_are_contained_and_surfaced_as_job_failures() {
        // A panicking job must neither hang the queue nor take down its
        // worker pool: all other jobs still complete, and the failure
        // reports the correct index and message.
        for threads in [1, 4] {
            let scheduler = Scheduler::new(threads);
            let mut jobs: Vec<Square> = (0..16).map(Square).collect();
            jobs[5] = Square(u64::MAX);
            let results = scheduler.run(jobs);
            assert_eq!(results.len(), 16);
            for (i, result) in results.iter().enumerate() {
                if i == 5 {
                    assert_eq!(
                        *result,
                        JobResult::Failed(JobFailure {
                            index: 5,
                            message: "poisoned job".to_string()
                        })
                    );
                } else {
                    assert_eq!(*result, JobResult::Completed((i * i) as u64), "job {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 2 panicked: poisoned job")]
    fn expect_completed_reraises_the_failure_deterministically() {
        let scheduler = Scheduler::new(4);
        let jobs = vec![Square(1), Square(2), Square(u64::MAX), Square(4)];
        scheduler.run_staged_all(jobs);
    }

    #[test]
    fn queue_capacity_is_respected_without_deadlock() {
        // A batch larger than the queue bound exercises back-pressure.
        let scheduler = Scheduler::new(2);
        let got = scheduler.run_staged_all((0..64).map(Square).collect::<Vec<_>>());
        assert_eq!(got.len(), 64);
    }

    /// A fixed-latency job (wall-clock cost, no CPU cost).
    struct Sleep(std::time::Duration);

    impl StagedJob for Sleep {
        type Generated = std::time::Duration;
        type Executed = ();
        type Output = ();

        fn generate(self) -> std::time::Duration {
            self.0
        }

        fn execute(latency: std::time::Duration) {
            std::thread::sleep(latency);
        }

        fn judge(_: ()) {}
    }

    #[test]
    fn run_streaming_delivers_results_while_the_batch_is_still_running() {
        // The journal's crash guarantee rests on results reaching the
        // observer as they finish, not after the whole batch is enqueued:
        // with 16 × 30ms jobs on 2 workers (queue bound 8), the first
        // callback must arrive well before the ~240ms total — if feeding
        // and collection were sequential, every callback would fire at the
        // very end.
        let jobs: Vec<Sleep> = (0..16)
            .map(|_| Sleep(std::time::Duration::from_millis(30)))
            .collect();
        let scheduler = Scheduler::new(2);
        let start = std::time::Instant::now();
        let mut first_callback = None;
        scheduler.run_streaming(jobs, |_, _| {
            first_callback.get_or_insert_with(|| start.elapsed());
        });
        let total = start.elapsed();
        let first = first_callback.expect("observer ran");
        assert!(
            first.as_secs_f64() <= 0.5 * total.as_secs_f64(),
            "first result reached the observer only at {first:?} of {total:?} — \
             collection is not overlapping execution"
        );
    }

    #[test]
    fn workers_overlap_job_execution() {
        // 8 jobs × 30ms: one worker needs ≥240ms, four workers ≥60ms.  The
        // ≥2× margin keeps this robust on loaded machines while still
        // proving jobs run concurrently (this holds even on a single core,
        // because the cost here is latency, not CPU).
        let jobs = || {
            (0..8)
                .map(|_| Sleep(std::time::Duration::from_millis(30)))
                .collect()
        };
        let start = std::time::Instant::now();
        Scheduler::new(1).run_staged_all(jobs());
        let sequential = start.elapsed();
        let start = std::time::Instant::now();
        Scheduler::new(4).run_staged_all(jobs());
        let parallel = start.elapsed();
        assert!(
            sequential.as_secs_f64() >= 2.0 * parallel.as_secs_f64(),
            "4 workers did not overlap: sequential {sequential:?}, parallel {parallel:?}"
        );
    }

    #[test]
    fn sequential_and_zero_worker_schedulers_have_one_worker() {
        // A zero-worker pool could never drain its queue, so `new(0)`
        // clamps to the sequential fallback.
        assert_eq!(Scheduler::sequential().threads(), 1);
        assert_eq!(Scheduler::new(0).threads(), 1);
    }

    /// A staged job with observable stage boundaries: generate doubles,
    /// execute adds 1, judge squares.  A seed of `u64::MAX - s` panics in
    /// stage `s`.
    struct StagedSquare(u64);

    impl StagedJob for StagedSquare {
        type Generated = u64;
        type Executed = u64;
        type Output = u64;

        fn generate(self) -> u64 {
            if self.0 == u64::MAX {
                panic!("poisoned generate");
            }
            self.0.wrapping_mul(2)
        }

        fn execute(generated: u64) -> u64 {
            if generated == (u64::MAX - 1).wrapping_mul(2) {
                panic!("poisoned execute");
            }
            generated.wrapping_add(1)
        }

        fn judge(executed: u64) -> u64 {
            if executed == (u64::MAX - 2).wrapping_mul(2).wrapping_add(1) {
                panic!("poisoned judge");
            }
            executed.wrapping_mul(executed)
        }
    }

    #[test]
    fn staged_panics_in_any_stage_are_contained_with_the_batch_message() {
        // A panic in generate, execute or judge must surface as the same
        // JobFailure as a whole-job panic (index + payload, no stage
        // prefix), with every other job still completing.
        for threads in [1, 4] {
            let mut jobs: Vec<StagedSquare> = (0..16).map(StagedSquare).collect();
            jobs[3] = StagedSquare(u64::MAX); // generate panics
            jobs[7] = StagedSquare(u64::MAX - 1); // execute panics
            jobs[11] = StagedSquare(u64::MAX - 2); // judge panics
            let results = Scheduler::new(threads).run(jobs);
            assert_eq!(results.len(), 16);
            for (i, result) in results.iter().enumerate() {
                let expected = match i {
                    3 => JobResult::Failed(JobFailure {
                        index: i,
                        message: "poisoned generate".to_string(),
                    }),
                    7 => JobResult::Failed(JobFailure {
                        index: i,
                        message: "poisoned execute".to_string(),
                    }),
                    11 => JobResult::Failed(JobFailure {
                        index: i,
                        message: "poisoned judge".to_string(),
                    }),
                    _ => JobResult::Completed((2 * i as u64 + 1) * (2 * i as u64 + 1)),
                };
                assert_eq!(*result, expected, "{threads} threads, job {i}");
            }
        }
    }

    #[test]
    fn staged_streaming_observes_every_result_exactly_once() {
        for threads in [1usize, 4] {
            let mut seen = Vec::new();
            let results = Scheduler::new(threads).run_streaming(
                (0..32).map(StagedSquare).collect::<Vec<_>>(),
                |i, r| {
                    assert_eq!(*r, JobResult::Completed((2 * i as u64 + 1).pow(2)));
                    seen.push(i);
                },
            );
            seen.sort_unstable();
            assert_eq!(seen, (0..32).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(results.len(), 32);
        }
    }
}
