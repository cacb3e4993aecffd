//! # clc-interp — an OpenCL NDRange emulator for the CLsmith reproduction
//!
//! This crate plays the role that Oclgrind plays in the paper (configuration
//! 19 of Table 1): a platform-independent reference executor for OpenCL C
//! kernels.  It executes a [`clc::Program`] over its NDRange with
//! work-group-accurate barrier semantics, intra-group atomics, the four
//! OpenCL address spaces, data-race detection and barrier-divergence
//! detection.
//!
//! ## Execution model
//!
//! * Work-groups run sequentially (OpenCL 1.x offers no inter-group
//!   synchronisation, so this preserves the semantics of well-defined
//!   kernels).
//! * Within a group, work-items are interpreted cooperatively: each runs
//!   until it finishes or reaches a `barrier()` statement in the kernel
//!   body, at which point control passes to the next work-item.  The
//!   scheduling order is configurable ([`Schedule`]) which the harness uses
//!   both to validate determinism of generated kernels and to expose the
//!   data races the paper found in Parboil/Rodinia benchmarks.
//! * Barriers inside helper functions are "soft": they are counted but do
//!   not synchronise.  CLsmith only emits barriers in the kernel body, and
//!   the paper's callee-barrier examples (Figures 1(d), 2(c), 2(d)) do not
//!   depend on callee barriers for cross-thread communication.
//! * The bytecode tier runs each launch's lane-independent prefix once.  A
//!   representative work-item executes from the kernel entry until the
//!   first instruction whose effect could depend on which work-item runs
//!   it: an identity query, an access to memory outside the private space,
//!   a `local` declaration, a barrier or the kernel's return.  Every
//!   work-item of every group is then forked from that snapshot and
//!   continues under the cooperative scheduler above.  Before the fork no
//!   work-item can compute anything different and no shared memory has
//!   been touched, so this is exact, not an approximation.  CLsmith keeps
//!   work-item ids out of generated expressions (§4.2), so for BASIC and
//!   VECTOR kernels the prefix is nearly all of each work-item's work.
//!
//! ## Execution tiers
//!
//! Two engines implement this model and are required to agree bit-for-bit
//! on results, errors and race verdicts:
//!
//! * [`ExecutionTier::TreeWalk`] — the recursive AST evaluator in [`eval`];
//! * [`ExecutionTier::Bytecode`] (the default) — [`compile`](compile())
//!   lowers each kernel into a flat instruction stream with resolved
//!   variable slots and jump-target control flow, and [`vm`] executes it.
//!
//! Select a tier per launch via [`LaunchOptions::tier`] or process-wide with
//! the `CLC_INTERP_TIER` environment variable (`tree` or `bytecode`).
//!
//! ## Example
//!
//! ```
//! use clc::{BufferSpec, Expr, IdKind, KernelDef, LaunchConfig, Program, ScalarType, Stmt};
//!
//! // kernel void k(global ulong *out) { out[get_global_linear_id()] = 7; }
//! let mut program = Program::new(
//!     KernelDef {
//!         name: "k".into(),
//!         params: Program::standard_clsmith_params(0),
//!         body: clc::Block::of(vec![Stmt::assign(
//!             Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
//!             Expr::int(7),
//!         )]),
//!     },
//!     LaunchConfig::single_group(4),
//! );
//! program.buffers.push(BufferSpec::result("out", ScalarType::ULong, 4));
//!
//! let result = clc_interp::run(&program)?;
//! assert_eq!(result.result_string, "7,7,7,7");
//! # Ok::<(), clc_interp::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod error;
pub mod eval;
pub mod exec;
pub mod memory;
pub mod race;
pub mod value;
pub mod vm;

pub use compile::{compile, CompiledProgram};
pub use error::{RaceReport, RuntimeError};
pub use eval::{Ctx, Env, Flow, ThreadIds};
pub use exec::{launch, run, CompiledKernel, ExecutionTier, LaunchOptions, LaunchResult, Schedule};
pub use memory::{Memory, Object};
pub use race::{AccessKind, RaceDetector, RaceStats};
pub use value::{Cell, Lanes, ObjId, PointerValue, Scalar, Value};
