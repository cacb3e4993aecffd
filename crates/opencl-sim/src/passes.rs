//! Optimization passes of the simulated OpenCL C compilers.
//!
//! These are genuine, semantics-preserving AST-to-AST transformations
//! (constant folding, dead-code elimination, trivial simplification).  They
//! run when a configuration compiles with optimisations enabled (the default
//! in OpenCL; `-cl-opt-disable` turns them off, §6 of the paper).  Their
//! correctness is checked by differential tests against the reference
//! emulator; the *bugs* that the paper's testing campaign finds live in
//! [`crate::bugs`], not here.
//!
//! An optimising target's outcome is cached under a key derived from the
//! source program, not from what these passes make of it (see
//! [`crate::platform`]), so a change to what any pass does must bump the
//! outcome store's format (see [`crate::store`]).

use clc::expr::{BinOp, Expr, UnOp};
use clc::stmt::{Block, Stmt};
use clc::types::{ScalarType, Type};
use clc::Program;
use clc_interp::eval::{lift_builtin, scalar_binop};
use clc_interp::{Scalar, Value};

/// Bit of [`optimize_traced`]'s change mask for constant folding.
pub const PASS_BIT_CONSTANT_FOLD: u32 = 0;
/// Bit of [`optimize_traced`]'s change mask for dead-code elimination.
pub const PASS_BIT_DEAD_CODE: u32 = 1;
/// Bit of [`optimize_traced`]'s change mask for trivial simplification.
pub const PASS_BIT_SIMPLIFY: u32 = 2;

/// An optimisation pass: rewrites the program in place and returns whether
/// it changed anything.
type Pass = fn(&mut Program) -> bool;

/// The optimisation pipeline: each pass with its `PASS_BIT_*` mask bit.
/// Folding may expose more dead code and vice versa; one extra round is
/// enough for the program shapes CLsmith produces.
const PIPELINE: [(Pass, u32); 5] = [
    (constant_fold, PASS_BIT_CONSTANT_FOLD),
    (eliminate_dead_code, PASS_BIT_DEAD_CODE),
    (simplify, PASS_BIT_SIMPLIFY),
    (constant_fold, PASS_BIT_CONSTANT_FOLD),
    (eliminate_dead_code, PASS_BIT_DEAD_CODE),
];

/// Runs the full optimisation pipeline in place and returns a bitmask over
/// the `PASS_BIT_*` constants of the passes that *changed* the program, so
/// a caller can name the passes behind an optimised program.  Each pass
/// reports its own changes, so the pipeline walks the program only to
/// rewrite it; a unit test pins every pass's report to a fingerprint
/// comparison of the program before and after it.
pub fn optimize_traced(program: &mut Program) -> u8 {
    let mut bits = 0u8;
    for (pass, bit) in PIPELINE {
        if pass(program) {
            bits |= 1u8 << bit;
        }
    }
    bits
}

/// Folds operations whose operands are integer literals.  Returns whether
/// anything was folded.
pub fn constant_fold(program: &mut Program) -> bool {
    let mut changed = false;
    program.for_each_expr_mut(&mut |e| changed |= fold_expr(e));
    changed
}

fn literal_value(e: &Expr) -> Option<Scalar> {
    match e {
        Expr::IntLit { value, ty } => Some(Scalar::from_i128(*value, *ty)),
        _ => None,
    }
}

fn scalar_to_expr(s: Scalar) -> Expr {
    Expr::IntLit {
        value: if s.ty.is_signed() {
            s.as_i64() as i128
        } else {
            s.as_u64() as i128
        },
        ty: s.ty,
    }
}

/// Folds one expression whose operands are already folded (the walk is
/// post-order).  Returns whether it was replaced; a replacement always
/// changes the program, since it either swaps the node's kind for a literal
/// or shrinks it to one of its operands.
fn fold_expr(e: &mut Expr) -> bool {
    let replacement = match e {
        Expr::Binary { op, lhs, rhs } => match (literal_value(lhs), literal_value(rhs)) {
            (Some(a), Some(b)) => {
                if op.is_logical() {
                    let v = match op {
                        BinOp::LAnd => a.is_true() && b.is_true(),
                        _ => a.is_true() || b.is_true(),
                    };
                    Some(Expr::int(i64::from(v)))
                } else {
                    scalar_binop(*op, a, b).ok().map(scalar_to_expr)
                }
            }
            _ => None,
        },
        Expr::Unary { op, expr } => literal_value(expr).map(|v| {
            let folded = match op {
                UnOp::Neg => Scalar::from_i128(-(v.as_i64() as i128), v.ty.promoted()),
                UnOp::LNot => Scalar::from_i128(i128::from(!v.is_true()), ScalarType::Int),
                UnOp::BitNot => Scalar::from_bits(!v.bits, v.ty.promoted()),
            };
            scalar_to_expr(folded)
        }),
        Expr::BuiltinCall { func, args } if !func.is_atomic() => {
            let literals: Option<Vec<Value>> = args
                .iter()
                .map(|a| literal_value(a).map(Value::Scalar))
                .collect();
            match literals {
                Some(values) if values.len() == func.arity() => lift_builtin(*func, &values)
                    .ok()
                    .and_then(|v| v.as_scalar())
                    .map(scalar_to_expr),
                _ => None,
            }
        }
        Expr::Cond {
            cond,
            then_expr,
            else_expr,
        } => literal_value(cond).map(|c| {
            if c.is_true() {
                (**then_expr).clone()
            } else {
                (**else_expr).clone()
            }
        }),
        Expr::Cast {
            ty: Type::Scalar(target),
            expr,
        } => literal_value(expr).map(|v| scalar_to_expr(v.convert(*target))),
        Expr::Comma { lhs, rhs } => {
            // The discarded operand can be dropped when it has no side
            // effects; the comma then folds to its right operand.
            if !lhs.has_side_effects() {
                Some((**rhs).clone())
            } else {
                None
            }
        }
        _ => None,
    };
    match replacement {
        Some(new) => {
            *e = new;
            true
        }
        None => false,
    }
}

/// Removes statically unreachable statements: branches with constant
/// conditions, loops that can never run, and code following a jump.
/// Returns whether anything changed.
pub fn eliminate_dead_code(program: &mut Program) -> bool {
    let mut changed = false;
    program.for_each_block_mut(&mut |block| {
        let mut out: Vec<Stmt> = Vec::with_capacity(block.stmts.len());
        let mut unreachable = false;
        for stmt in block.stmts.drain(..) {
            if unreachable {
                changed = true;
                continue;
            }
            match stmt {
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                } => match literal_value(&cond) {
                    Some(c) if c.is_true() => {
                        changed = true;
                        out.push(Stmt::Block(then_block));
                    }
                    Some(_) => {
                        changed = true;
                        if let Some(e) = else_block {
                            out.push(Stmt::Block(e));
                        }
                    }
                    None => out.push(Stmt::If {
                        cond,
                        then_block,
                        else_block,
                    }),
                },
                Stmt::While { cond, body } => match literal_value(&cond) {
                    Some(c) if !c.is_true() => changed = true,
                    _ => out.push(Stmt::While { cond, body }),
                },
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    let never_runs = cond
                        .as_ref()
                        .and_then(literal_value)
                        .map(|c| !c.is_true())
                        .unwrap_or(false);
                    if never_runs {
                        changed = true;
                        // The initialiser may still have side effects
                        // (e.g. an assignment); keep it.
                        if let Some(init) = init {
                            if !matches!(*init, Stmt::Decl { .. }) {
                                out.push(*init);
                            }
                        }
                    } else {
                        out.push(Stmt::For {
                            init,
                            cond,
                            update,
                            body,
                        });
                    }
                }
                Stmt::Return(_) | Stmt::Break | Stmt::Continue => {
                    out.push(stmt);
                    unreachable = true;
                }
                other => out.push(other),
            }
        }
        block.stmts = out;
    });
    changed
}

/// Structural clean-ups: flattens nested bare blocks, removes empty `if`s and
/// self-assignments.  Returns whether anything was rewritten.
pub fn simplify(program: &mut Program) -> bool {
    let mut changed = false;
    program.for_each_block_mut(&mut |block| {
        let mut out: Vec<Stmt> = Vec::with_capacity(block.stmts.len());
        for stmt in block.stmts.drain(..) {
            match stmt {
                Stmt::Block(inner) => {
                    // Hoisting the contents of a bare block is only safe when
                    // it declares nothing (declarations are scoped).
                    if inner.stmts.iter().any(|s| matches!(s, Stmt::Decl { .. })) {
                        if !inner.is_empty() {
                            out.push(Stmt::Block(inner));
                        }
                    } else {
                        changed = true;
                        out.extend(inner.stmts);
                    }
                }
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let else_empty = else_block.as_ref().map(Block::is_empty).unwrap_or(true);
                    if then_block.is_empty() && else_empty && !cond.has_side_effects() {
                        // if (c) {} with a pure condition: drop entirely.
                        changed = true;
                    } else {
                        out.push(Stmt::If {
                            cond,
                            then_block,
                            else_block,
                        });
                    }
                }
                Stmt::Expr(Expr::Assign { op, lhs, rhs })
                    if *lhs == *rhs && op.binop().is_none() =>
                {
                    // self-assignment x = x
                    changed = true;
                }
                other => out.push(other),
            }
        }
        block.stmts = out;
    });
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::expr::{AssignOp, Builtin};
    use clc::{BufferSpec, KernelDef, LaunchConfig};

    fn program_with_body(body: Block) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body,
            },
            LaunchConfig::single_group(4),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));
        p
    }

    /// Runs [`PIPELINE`] one pass at a time, asserting that each pass's
    /// report equals "the program's fingerprint changed", and returns the
    /// pass bits that fingerprint comparison gives.
    fn fingerprinted_pipeline(program: &mut Program, what: &str) -> u8 {
        let mut bits = 0u8;
        for (stage, (pass, bit)) in PIPELINE.into_iter().enumerate() {
            let before = program.fingerprint();
            let reported = pass(program);
            let changed = program.fingerprint() != before;
            assert_eq!(
                reported, changed,
                "{what}: stage {stage} reported {reported}, but the fingerprint changed: {changed}"
            );
            if changed {
                bits |= 1 << bit;
            }
        }
        bits
    }

    #[test]
    fn every_rewrite_reports_its_change() {
        // Generated kernels rarely reach some rewrites (a `while (0)`, a
        // `for` whose condition is a false literal), so each rewrite also
        // gets a kernel of its own, where it is the only change its pass
        // makes.
        let x = || Expr::var("x");
        let set_x = |v| Stmt::assign(x(), Expr::int(v));
        let cases = vec![
            (
                "fold",
                vec![Stmt::assign(
                    x(),
                    Expr::binary(BinOp::Mul, Expr::int(6), Expr::int(7)),
                )],
                PASS_BIT_CONSTANT_FOLD,
            ),
            (
                "if true",
                vec![Stmt::if_then(Expr::int(1), Block::of(vec![set_x(1)]))],
                PASS_BIT_DEAD_CODE,
            ),
            (
                "if false",
                vec![Stmt::if_then(Expr::int(0), Block::of(vec![set_x(1)]))],
                PASS_BIT_DEAD_CODE,
            ),
            (
                "if false else",
                vec![Stmt::if_else(
                    Expr::int(0),
                    Block::of(vec![set_x(1)]),
                    Block::of(vec![set_x(2)]),
                )],
                PASS_BIT_DEAD_CODE,
            ),
            (
                "while false",
                vec![Stmt::While {
                    cond: Expr::int(0),
                    body: Block::of(vec![Stmt::Break]),
                }],
                PASS_BIT_DEAD_CODE,
            ),
            (
                "for never runs",
                vec![Stmt::For {
                    init: Some(Box::new(set_x(1))),
                    cond: Some(Expr::int(0)),
                    update: None,
                    body: Block::of(vec![set_x(2)]),
                }],
                PASS_BIT_DEAD_CODE,
            ),
            (
                "after return",
                vec![Stmt::Return(None), set_x(9)],
                PASS_BIT_DEAD_CODE,
            ),
            (
                "bare block",
                vec![Stmt::Block(Block::of(vec![set_x(3)]))],
                PASS_BIT_SIMPLIFY,
            ),
            (
                "empty if",
                vec![Stmt::if_then(x(), Block::new())],
                PASS_BIT_SIMPLIFY,
            ),
            (
                "self assignment",
                vec![Stmt::assign(x(), x())],
                PASS_BIT_SIMPLIFY,
            ),
        ];
        for (what, stmts, bit) in cases {
            let mut body = vec![Stmt::decl(
                "x",
                Type::Scalar(ScalarType::Int),
                Some(Expr::int(0)),
            )];
            body.extend(stmts);
            body.push(Stmt::assign(
                Expr::index(Expr::var("out"), Expr::int(0)),
                x(),
            ));
            let mut p = program_with_body(Block::of(body));
            let bits = fingerprinted_pipeline(&mut p, what);
            assert_ne!(bits & (1 << bit), 0, "{what}: bits {bits:#b}");
        }
    }

    #[test]
    fn pass_reports_match_fingerprint_changes_on_generated_kernels() {
        use clsmith::{generate, GenMode, GeneratorOptions};
        // `optimize_traced` must report exactly the bits that
        // fingerprinting between the stages reports: over every mode, with
        // and without EMI blocks.
        let check = |program: &Program, what: &str| {
            let bits = fingerprinted_pipeline(&mut program.clone(), what);
            assert_eq!(optimize_traced(&mut program.clone()), bits, "{what}");
            bits
        };
        let mut kernels = 0;
        for seed in 0..84u64 {
            for mode in GenMode::ALL {
                for emi in [false, true] {
                    let options = GeneratorOptions {
                        min_threads: 16,
                        max_threads: 64,
                        ..GeneratorOptions::new(mode, seed)
                    };
                    let options = if emi { options.with_emi() } else { options };
                    let program = generate(&options);
                    let what = format!("{mode} seed {seed} emi {emi}");
                    check(&program, &what);
                    kernels += 1;
                }
            }
        }
        assert!(kernels >= 1000, "{kernels} kernels");
        // Default-size ALL kernels contain foldable arithmetic, so the
        // constant-folding bit must light up.
        for seed in 0..8u64 {
            let program = generate(&GeneratorOptions::new(GenMode::All, seed));
            let bits = check(&program, &format!("default ALL seed {seed}"));
            assert_ne!(bits & (1 << PASS_BIT_CONSTANT_FOLD), 0, "seed {seed}");
        }
    }

    #[test]
    fn folds_literal_arithmetic_and_builtins() {
        let mut p = program_with_body(Block::of(vec![Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::int(6), Expr::int(7)),
                Expr::builtin(Builtin::SafeDiv, vec![Expr::int(10), Expr::int(0)]),
            ),
        )]));
        constant_fold(&mut p);
        let src = clc::print_program(&p);
        assert!(src.contains("(42 + 10)") || src.contains("52"), "{src}");
    }

    #[test]
    fn folding_preserves_safe_math_semantics() {
        // safe_div(x, 0) folds to x, exactly as the macro evaluates.
        let mut e = Expr::builtin(Builtin::SafeDiv, vec![Expr::int(-9), Expr::int(0)]);
        fold_expr(&mut e);
        assert_eq!(e, Expr::int(-9));
        // Division by zero through the raw operator must NOT fold (the
        // compiler may not introduce or hide UB).
        let mut raw = Expr::binary(BinOp::Div, Expr::int(-9), Expr::int(0));
        let before = raw.clone();
        fold_expr(&mut raw);
        assert_eq!(raw, before);
    }

    #[test]
    fn eliminates_constant_branches_and_dead_loops() {
        let mut p = program_with_body(Block::of(vec![
            Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(0))),
            Stmt::if_else(
                Expr::int(0),
                Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(1))]),
                Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(2))]),
            ),
            Stmt::While {
                cond: Expr::int(0),
                body: Block::of(vec![Stmt::Break]),
            },
            Stmt::Return(None),
            Stmt::assign(Expr::var("x"), Expr::int(9)),
        ]));
        eliminate_dead_code(&mut p);
        let src = clc::print_program(&p);
        assert!(!src.contains("x = 1"));
        assert!(src.contains("x = 2"));
        assert!(!src.contains("while"));
        assert!(!src.contains("x = 9"));
    }

    #[test]
    fn simplify_flattens_blocks_and_drops_noops() {
        let mut p = program_with_body(Block::of(vec![
            Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(0))),
            Stmt::Block(Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(3))])),
            Stmt::if_then(Expr::var("x"), Block::new()),
            Stmt::assign(Expr::var("x"), Expr::var("x")),
        ]));
        simplify(&mut p);
        assert_eq!(p.kernel.body.stmts.len(), 2);
    }

    #[test]
    fn full_pipeline_preserves_semantics_on_generated_programs() {
        use clsmith::{generate, GenMode, GeneratorOptions};
        for seed in 0..8u64 {
            for mode in [
                GenMode::Basic,
                GenMode::Vector,
                GenMode::Barrier,
                GenMode::All,
            ] {
                let opts = GeneratorOptions {
                    min_threads: 16,
                    max_threads: 48,
                    ..GeneratorOptions::new(mode, seed)
                };
                let program = generate(&opts);
                let reference = clc_interp::run(&program).expect("reference run");
                let mut optimized = program.clone();
                optimize_traced(&mut optimized);
                let result = clc_interp::run(&optimized).expect("optimized run");
                assert_eq!(
                    reference.result_string, result.result_string,
                    "optimisation changed semantics for mode {mode} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn comma_with_side_effects_is_not_folded() {
        let mut e = Expr::comma(
            Expr::assign_op(AssignOp::AddAssign, Expr::var("x"), Expr::int(1)),
            Expr::int(5),
        );
        let before = e.clone();
        fold_expr(&mut e);
        assert_eq!(e, before);
        let mut pure = Expr::comma(Expr::var("x"), Expr::int(5));
        fold_expr(&mut pure);
        assert_eq!(pure, Expr::int(5));
    }
}
