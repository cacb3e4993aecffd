//! # fuzz-harness — differential and EMI testing campaigns
//!
//! Orchestration of the paper's testing campaigns over the simulated OpenCL
//! platform:
//!
//! * [`differential`] — run one kernel across many (configuration,
//!   optimisation level) targets and vote on the results (§3.2); each
//!   kernel's fan-out goes through a per-kernel `opencl_sim::Session`, so
//!   targets that compile the kernel to a bit-identical AST share one
//!   emulator launch;
//! * [`campaign`] — batch CLsmith campaigns per mode (Table 4) and the
//!   initial reliability classification (Table 1, §7.1);
//! * [`emi_campaign`] — CLsmith+EMI campaigns over base programs and their
//!   pruning variants (Table 5, §7.4);
//! * [`benchmark_emi`] — EMI testing of existing kernels, and the Table 3
//!   campaign over the Parboil/Rodinia miniatures (§7.2);
//! * [`report`] — plain-text table rendering used by the reproduction
//!   binaries in the `bench` crate;
//! * [`exec`] — the parallel campaign engine every driver above runs on: a
//!   bounded-queue worker pool with per-job deterministic seeding and
//!   index-ordered aggregation, so that for a fixed campaign seed the
//!   rendered tables are bit-identical at any thread count;
//! * [`shard`] — the one [`Campaign`] trait every job space above
//!   implements ([`ModeCampaign`], [`ClassificationCampaign`],
//!   [`EmiCampaign`], [`CellCampaign`]), and the one
//!   executor they all run on: shards ([`run_shard`]), fleet leases
//!   ([`run_lease`]) and journal merges ([`merge`]).
//!
//! There is one way to run a campaign: build it, then run it with
//! [`run_shard`] on a [`Scheduler`] of the caller's choosing
//! ([`ShardSelect::whole`] for the whole job space), and render its tally
//! (e.g. [`ModeCampaign::results`]).  The table binaries in the `bench`
//! crate do exactly this.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod benchmark_emi;
pub mod campaign;
pub mod differential;
pub mod emi_campaign;
pub mod exec;
pub mod faults;
pub mod fleet;
pub mod journal;
pub mod report;
pub mod shard;

pub use benchmark_emi::{
    evaluate_benchmark, BenchmarkCell, CellCampaign, CellJob, CellOutcome, Cells, EmiBenchmark,
};
pub use campaign::{
    classification_descriptor, classify_configurations_sharded, mode_campaign_descriptor,
    reliability_rows, run_modes_campaign_sharded, CampaignOptions, CampaignResult,
    ClassificationCampaign, ClassificationTally, GeneratedKernel, KernelJob, ModeCampaign,
    ModeTally, MultiModeTally, ReliabilityRow, ShardedClassification, ShardedModeCampaign,
    TargetStats, RELIABILITY_THRESHOLD,
};
pub use differential::{classify, run_on_targets_session, targets_for, TestTarget, Verdict};
pub use emi_campaign::{
    emi_campaign_descriptor, generate_live_bases_with, judge_outcomes, pruning_grid,
    run_emi_campaign_sharded, EmiBaseJob, EmiCampaign, EmiCampaignOptions, EmiCampaignResult,
    EmiOutcomeGrid, EmiStats, EmiTally, EmiVariantGrid, LivenessCandidate, LivenessOutcomes,
    LivenessProbeJob, ShardedEmiCampaign,
};
pub use exec::{expect_completed, job_seed, JobFailure, JobResult, Scheduler, StagedJob};
pub use faults::{tear_journal_tail, FaultKind, FaultPlan, FaultSpec, LeaseFault};
pub use fleet::{
    run_worker, Coordinator, DeadLetter, FleetCommand, FleetOptions, FleetOutcome, FleetReply,
    LeaseRecord, ProcessWorker, WorkerLink,
};
pub use journal::{
    checksum, load_journal, JournalError, JournalHeader, JournalRecord, JournalWriter,
    LoadedJournal, JOURNAL_FORMAT_VERSION, JOURNAL_MAGIC,
};
pub use opencl_sim::ExecutionTier;
pub use report::{
    percent, render_campaign_table, render_emi_table, render_reliability_table, render_table,
    EMPTY_CELL,
};
pub use shard::{
    lease_header, merge, run_lease, run_range_fold, run_shard, run_sharded, Campaign, FoldRun,
    JournalOptions, JournalPayload, RefoldSummary, ShardMetrics, ShardRun, ShardSelect, ShardSpec,
};
