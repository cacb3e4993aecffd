//! # clc — the OpenCL C subset used by the CLsmith reproduction
//!
//! This crate defines the abstract syntax, type system, pretty printer,
//! static feature analysis and type checker for the OpenCL C subset that the
//! PLDI 2015 paper *Many-Core Compiler Fuzzing* exercises: integer scalars,
//! OpenCL vectors, structs/unions, pointers across the four OpenCL address
//! spaces, barriers, and atomic read-modify-write operations.
//!
//! Everything downstream builds on these types:
//!
//! * the `clsmith` crate generates random [`Program`]s,
//! * the `clc-interp` crate executes them over an NDRange,
//! * the `opencl-sim` crate transforms them with optimisation passes and
//!   injected miscompilation bug models,
//! * the `fuzz-harness` crate compares the results.
//!
//! The AST has one traversal ([`visit`]): [`Expr::for_each_part`],
//! [`Stmt::for_each_part`] and [`Initializer::for_each_part`] enumerate a
//! node's children in source order, tagged with their roles, and every
//! generic walker here (the `for_each*` methods, [`Program::emi_blocks`],
//! the [`Visitor`] walk) is built on them, so downstream crates need no
//! walker of their own.  The walkers' visit orders differ and outputs depend
//! on them; the [`visit`] module states each.
//!
//! # Example
//!
//! Build and print a tiny kernel reminiscent of Figure 1(a) of the paper:
//!
//! ```
//! use clc::{
//!     Expr, Field, KernelDef, LaunchConfig, Program, ScalarType, Stmt, StructDef, Type,
//! };
//!
//! let mut program = Program::new(
//!     KernelDef {
//!         name: "k".into(),
//!         params: Program::standard_clsmith_params(0),
//!         body: clc::Block::new(),
//!     },
//!     LaunchConfig::single_group(4),
//! );
//! let s = program.add_struct(StructDef::new(
//!     "S",
//!     vec![
//!         Field::new("a", Type::Scalar(ScalarType::Char)),
//!         Field::new("b", Type::Scalar(ScalarType::Short)),
//!     ],
//! ));
//! program.kernel.body.push(Stmt::decl_init_list(
//!     "s",
//!     Type::Struct(s),
//!     clc::Initializer::of_exprs(vec![Expr::int(1), Expr::int(1)]),
//! ));
//! let source = clc::print_program(&program);
//! assert!(source.contains("struct S"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod expr;
pub mod fingerprint;
pub mod printer;
pub mod program;
pub mod stmt;
pub mod typecheck;
pub mod types;
pub mod visit;

pub use analysis::Features;
pub use expr::{AssignOp, BinOp, Builtin, Dim, Expr, IdKind, UnOp};
pub use fingerprint::{fnv1a, Fingerprint, ProgramHasher};
pub use printer::{print_expr, print_program, print_stmt};
pub use program::{BufferInit, BufferSpec, FunctionDef, KernelDef, LaunchConfig, Param, Program};
pub use stmt::{Block, EmiBlock, Initializer, MemFence, Stmt};
pub use typecheck::{check_program, TypeError};
pub use types::{AddressSpace, Field, ScalarType, StructDef, StructId, Type, VectorWidth};
pub use visit::{walk_block, walk_expr, walk_stmt, VisitCtx, Visitor};
