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
//! * The bytecode tier runs the work-items' shared work once per launch.
//!   CLsmith gives every work-item the same computation apart from a few
//!   communication idioms (§4), so most of a kernel body runs the same in
//!   every work-item.  The bytecode tier cuts the kernel body into
//!   *segments*: a segment starts at the kernel entry, or at the first
//!   statement boundary of the kernel body after an instruction whose
//!   effect could depend on which work-item runs it (an identity query, an
//!   access to memory outside the private space, a `local` declaration, a
//!   barrier or the kernel's return), and ends before the next such
//!   instruction.  The first work-item to run a segment from a given state
//!   records what it read (the kernel body's scalars and the cells of its
//!   variables) and what it left behind; a later work-item of any group
//!   that reaches the same start in the same state replays the record
//!   instead of running it, unless the step limit could stop it inside the
//!   segment.  A segment touches no shared memory and asks
//!   nothing of the work-item's identity, so replaying it is exact, not an
//!   approximation, and no shared access changes order.  The segments are
//!   dropped with the launch.
//! * The bytecode tier also runs each distinct helper call once per launch.
//!   OpenCL C has no global variables, so CLsmith passes every helper a
//!   pointer to the work-item's private globals struct (§4), and the
//!   work-items of the idiom modes make the same calls on equal copies of
//!   it.  A helper is *memoisable* when neither it nor anything it calls
//!   queries a work-item's identity, declares or names `local` memory, or
//!   runs a barrier or an atomic: it can then reach only its own objects
//!   and the objects its arguments point to.  A call of such a
//!   helper is keyed by the callee, its arguments (each pointer's object
//!   renamed to its index among the argument objects, so aliasing is part
//!   of the key) and those objects' cells, when every pointer argument
//!   names a live private object that holds no pointer.  The launch's memo
//!   records each keyed call whose result and argument objects hold no
//!   pointer when it returns.  A later call with an equal key, from any
//!   work-item of any group, gets the recorded cells written back into its
//!   argument objects, the recorded result, and the recorded steps and soft
//!   barriers, unless the step limit or the call-depth limit could stop the
//!   work-item inside the call, in which case it runs for real.  The memo
//!   lives and dies with its launch.
//!
//! ## Live keys
//!
//! [`live_fingerprint`] names the program a launch actually runs: the
//! fingerprint of the program with the bodies of its never-entered EMI
//! blocks (§5) removed, when removing them is invisible to a launch on both
//! tiers.  An EMI base and its pruning variants differ only inside such
//! bodies, so they share the key, and the platform above serves one launch
//! for all of them.
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
mod live;
pub mod memory;
pub mod race;
pub mod value;
pub mod vm;

pub use compile::{compile, CompiledProgram};
pub use error::{RaceReport, RuntimeError};
pub use eval::{Ctx, Env, Flow, ThreadIds};
pub use exec::{launch, run, ExecutionTier, LaunchOptions, LaunchResult, Schedule};
pub use live::live_fingerprint;
pub use memory::{Memory, Object};
pub use race::{AccessKind, RaceDetector, RaceStats};
pub use value::{Cell, ObjId, PointerValue, Scalar, Value};
