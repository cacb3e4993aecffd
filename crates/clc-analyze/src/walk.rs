//! The control-dependence guards a statement's expressions evaluate under.
//!
//! Generic traversal lives in `clc` ([`clc::visit`]); this walk only adds the
//! guard stack, built on [`Stmt::for_each_part`].

use clc::expr::Expr;
use clc::program::Program;
use clc::stmt::{Block, Stmt};
use clc::visit::Part;

/// One control-dependence guard enclosing a statement: executing the
/// statement is conditional on this.
#[derive(Clone, Copy)]
pub(crate) enum Guard<'p> {
    /// An `if`/`while`/`for` condition.
    Cond(&'p Expr),
    /// An EMI dead-block guard (`dead[a] < dead[b]` over the `dead` input).
    EmiDead,
}

/// Calls `f` on every statement of the program (helper bodies first, then
/// the kernel) together with the stack of guards its *own expressions*
/// evaluate under.
///
/// Loop statements (`while`, `for`) are reported under their own condition:
/// their condition and update expressions re-evaluate once per iteration,
/// so any assignment inside them is control-dependent on the trip count.
/// An `if` is reported outside its condition — the condition itself is
/// evaluated by every work-item that reaches the statement.  A `for`
/// initialiser runs once, before the loop, and is reported first.
pub(crate) fn guarded_program_stmts<'p>(
    program: &'p Program,
    f: &mut impl FnMut(&'p Stmt, &[Guard<'p>]),
) {
    let mut guards = Vec::new();
    for func in &program.functions {
        guarded_block(&func.body, &mut guards, f);
    }
    guarded_block(&program.kernel.body, &mut guards, f);
}

fn guarded_block<'p>(
    block: &'p Block,
    guards: &mut Vec<Guard<'p>>,
    f: &mut impl FnMut(&'p Stmt, &[Guard<'p>]),
) {
    for s in block.iter() {
        guarded_stmt(s, guards, f);
    }
}

/// Reports `s` before its first nested block, or after its parts when it has
/// none; a condition guards the parts after it, and a loop's condition the
/// loop statement too.
fn guarded_stmt<'p>(
    s: &'p Stmt,
    guards: &mut Vec<Guard<'p>>,
    f: &mut impl FnMut(&'p Stmt, &[Guard<'p>]),
) {
    let depth = guards.len();
    let is_loop = matches!(s, Stmt::For { .. } | Stmt::While { .. });
    let mut reported = false;
    s.for_each_part(|part| match part {
        Part::Cond(c) => {
            if !is_loop && !reported {
                f(s, guards);
                reported = true;
            }
            guards.push(Guard::Cond(c));
        }
        Part::Stmt(init) => guarded_stmt(init, guards, f),
        Part::Block(b) | Part::LoopBody(b) | Part::EmiBody(b) => {
            if !reported {
                f(s, guards);
                reported = true;
            }
            if let Part::EmiBody(_) = part {
                guards.push(Guard::EmiDead);
            }
            guarded_block(b, guards, f);
        }
        Part::Operand(_) | Part::Init(_) => {}
    });
    if !reported {
        f(s, guards);
    }
    guards.truncate(depth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::expr::BinOp;
    use clc::program::{KernelDef, LaunchConfig};
    use clc::stmt::EmiBlock;
    use clc::types::{ScalarType, Type};

    #[test]
    fn statements_are_reported_under_their_guards() {
        let int = Type::Scalar(ScalarType::Int);
        let lt = |v: &str, n| Expr::binary(BinOp::Lt, Expr::var(v), Expr::int(n));
        let body = Block::of(vec![
            Stmt::if_else(
                lt("a", 1),
                Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(2))]),
                Block::of(vec![Stmt::Break]),
            ),
            Stmt::For {
                init: Some(Box::new(Stmt::decl("i", int.clone(), Some(Expr::int(0))))),
                cond: Some(lt("i", 3)),
                update: None,
                body: Block::of(vec![Stmt::While {
                    cond: Expr::var("w"),
                    body: Block::of(vec![Stmt::Block(Block::of(vec![Stmt::Continue]))]),
                }]),
            },
            Stmt::Emi(EmiBlock {
                index: 0,
                guard: (2, 1),
                body: Block::of(vec![Stmt::decl("y", int, None)]),
            }),
        ]);
        let program = Program::new(
            KernelDef {
                name: "k".into(),
                params: Vec::new(),
                body,
            },
            LaunchConfig::single_group(4),
        );
        let mut seen = Vec::new();
        guarded_program_stmts(&program, &mut |s, guards| {
            let label = match s {
                Stmt::If { .. } => "if",
                Stmt::Expr(_) => "x=",
                Stmt::Break => "break",
                Stmt::For { .. } => "for",
                Stmt::Decl { name, .. } if name == "i" => "decl i",
                Stmt::While { .. } => "while",
                Stmt::Block(_) => "block",
                Stmt::Continue => "continue",
                Stmt::Emi(_) => "emi",
                Stmt::Decl { .. } => "decl y",
                _ => "other",
            };
            let guards: Vec<String> = guards
                .iter()
                .map(|g| match g {
                    Guard::Cond(Expr::Binary { lhs, .. }) => format!("{lhs:?}"),
                    Guard::Cond(e) => format!("{e:?}"),
                    Guard::EmiDead => "dead".into(),
                })
                .collect();
            seen.push(format!("{label} [{}]", guards.join(" ")));
        });
        let a = r#"Var("a")"#;
        let i = r#"Var("i")"#;
        let w = r#"Var("w")"#;
        assert_eq!(
            seen,
            vec![
                "if []".to_string(),
                format!("x= [{a}]"),
                format!("break [{a}]"),
                "decl i []".into(),
                format!("for [{i}]"),
                format!("while [{i} {w}]"),
                format!("block [{i} {w}]"),
                format!("continue [{i} {w}]"),
                "emi []".into(),
                "decl y [dead]".into(),
            ]
        );
    }
}
