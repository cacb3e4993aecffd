//! # clc-analyze — static CFG/dataflow analyzer for `clc` kernels
//!
//! A sound-by-construction lint suite over the [`clc`] AST, mirroring the
//! properties the dynamic detector in `clc-interp` checks at runtime:
//!
//! * **Barrier divergence** ([`divergence`]): no barrier (and no early exit
//!   past one) under control flow whose condition or trip count depends on
//!   `get_local_id` / `get_global_id`.
//! * **Races** ([`race`]): conservative may-read/may-write access sets over
//!   global and local objects, with work-item-index-linearity reasoning on
//!   subscripts ([`classify::IndexClass`]) and barrier-interval separation,
//!   classifying every access pair as disjoint, may-race or must-race.
//! * **Use before init** ([`init`]): a forward dataflow over the basic-block
//!   CFG ([`cfg`](mod@cfg), [`dataflow`]) tracking maybe-uninitialised private
//!   variables.
//! * **Bounds** ([`bounds`]): provable subscript ranges checked against
//!   declared buffer extents.
//!
//! The passes traverse the AST with `clc`'s walkers ([`clc::visit`]); the
//! private `walk` module holds only the control-dependence guard stack that
//! the uniformity environment needs (`Guard`, `guarded_program_stmts`).
//!
//! The soundness contract, enforced by the `analysis_soundness` differential
//! against both interpreter tiers: a kernel whose [`AnalysisReport`] is
//! *certified* (race-free and divergence-free) never produces a dynamic race
//! verdict, and every dynamic race names an object in
//! [`AnalysisReport::flagged_objects`].
//!
//! ```
//! use clc::{KernelDef, LaunchConfig, Program};
//!
//! let program = Program::new(
//!     KernelDef {
//!         name: "k".into(),
//!         params: Program::standard_clsmith_params(0),
//!         body: clc::Block::new(),
//!     },
//!     LaunchConfig::single_group(4),
//! );
//! let report = clc_analyze::analyze(&program);
//! assert!(report.is_certified());
//! assert_eq!(report.verdict(), "clean");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod cfg;
pub mod classify;
pub mod dataflow;
pub mod divergence;
pub mod init;
pub mod race;
pub mod report;
mod walk;

pub use classify::{IndexClass, KernelModel};
pub use report::{AccessPair, AnalysisReport, Diagnostic, DiagnosticKind, PairVerdict};

use clc::program::Program;

/// Runs the full pass suite over `program` and returns a normalised report.
pub fn analyze(program: &Program) -> AnalysisReport {
    let model = KernelModel::build(program);
    let race = race::analyze_races(&model);
    let mut report = AnalysisReport {
        diagnostics: race.diagnostics,
        pairs: race.pairs,
        checked_pairs: race.checked_pairs,
        flagged_objects: Default::default(),
    };
    report
        .diagnostics
        .extend(divergence::check_divergence(&model));
    report.diagnostics.extend(init::check_uninit(&model));
    report
        .diagnostics
        .extend(bounds::check_bounds(&race.accesses, &model));
    report.normalize();
    report
}
