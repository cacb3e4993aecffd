//! # opencl-sim — the simulated OpenCL platform
//!
//! The paper evaluates CLsmith against 21 commercial (device, driver)
//! configurations (Table 1).  Those drivers and devices cannot be shipped in
//! a self-contained reproduction, so this crate substitutes them with a
//! *simulated platform*:
//!
//! * [`passes`] — genuine, semantics-preserving optimisation passes
//!   (constant folding, dead-code elimination, simplification) that run when
//!   a configuration compiles with optimisations enabled;
//! * [`bugs`] — injected bug models reproducing every bug class of §6 and
//!   Figures 1–2 (struct miscompilations, the rotate constant fold, barrier
//!   related wrong code, the comma-operator bug, front-end rejections,
//!   compile hangs, crashes), realised as real AST transformations;
//! * [`configs`] — the 21 Table-1 configurations, each pairing its metadata
//!   with bug rules and background outcome rates;
//! * [`platform`] — the "online compile then execute" entry point returning
//!   the [`TestOutcome`] a fuzzing harness observes;
//! * [`store`] — the on-disk cross-campaign outcome store: a
//!   content-addressed, checksummed, capped cache of execution outcomes
//!   shared by sequential re-runs and concurrent shard processes;
//! * [`figures`] — the bug-exhibiting kernels of Figures 1 and 2, used as
//!   tests of the bug models and by the `figures` reproduction binary.
//!
//! Differential and EMI testing only ever look at [`TestOutcome`]s, so the
//! harness in the `fuzz-harness` crate finds these injected bugs the same
//! way the paper's campaign found the real ones: by majority vote and by
//! variant disagreement.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bugs;
pub mod configs;
pub mod figures;
pub mod passes;
pub mod platform;
pub mod store;

pub use bugs::{BugEffect, BugRule, Miscompilation, OptLevel, OptScope, Trigger};
pub use clc_interp::{ExecutionTier, Schedule};
pub use clsmith::{coverage_hash, CoverageClass, CoverageMap};
pub use configs::{
    above_threshold_configurations, all_configurations, configuration, Configuration, DeviceType,
    OutcomeRates,
};
pub use figures::{all_figures, FigureKernel};
pub use platform::{
    execute, process_cache_stats, reference_execute, reset_shared_outcome_cache, CacheStats,
    CompiledProgram, ExecMemo, ExecOptions, Recipe, Session, TestOutcome,
};
pub use store::{set_io_fault_hook, IoFaultHook, OutcomeStore, StoreOp, StoreStats};
