//! The one traversal of the AST.
//!
//! [`Expr::for_each_part`], [`Stmt::for_each_part`] and
//! [`Initializer::for_each_part`] (and their `_mut` twins) enumerate a
//! node's direct children in source order, each tagged with its role as a
//! [`Part`].  Every generic walker is built on
//! them: the `for_each*` methods of [`Expr`], [`Stmt`], [`Initializer`],
//! [`Block`] and [`crate::Program`], and the [`Visitor`] walk below, which
//! also tracks loop nesting, condition roots and the innermost literal `for`
//! bound.  Code whose children carry different semantics (evaluators, the
//! bytecode compiler, the printer, the type checker, the fingerprint hasher)
//! matches on variants instead.
//!
//! # Visit orders
//!
//! Downstream outputs depend on these orders, and they differ:
//!
//! * the [`Visitor`] walk and `for_each_expr_mut` follow source order, so a
//!   `for` initialiser comes before the loop's condition and update;
//! * `Stmt::for_each`, `Program::for_each_stmt` and `Program::emi_blocks`
//!   are statement pre-order: a `for` initialiser after its loop, before the
//!   body;
//! * `Stmt::for_each_expr` takes each statement's own expressions before
//!   those of nested statements, so a `for` loop's condition and update come
//!   before its initialiser's expressions;
//! * `Expr::for_each` is pre-order, `Expr::for_each_mut` post-order;
//! * `for_each_block_mut` is children-first and does not enter a `for`
//!   initialiser;
//! * `Program` walkers take the helper functions in order, then the kernel.

use crate::expr::{BinOp, Expr};
use crate::stmt::{Block, EmiBlock, Initializer, Stmt};

/// A direct child of an AST node, tagged with the role it plays there.
#[derive(Debug, Clone, Copy)]
pub enum Part<'a> {
    /// A control-flow condition: of an `if`, `while` or `for`, or the first
    /// operand of `?:`.
    Cond(&'a Expr),
    /// Any other expression: an operand, a declaration's or initialiser
    /// item's value, a `for` update, a returned value.
    Operand(&'a Expr),
    /// A declaration's brace initialiser, or a nested list inside one.
    Init(&'a Initializer),
    /// A nested statement: a `for` initialiser.
    Stmt(&'a Stmt),
    /// A branch of an `if`, or a `{ }` block.
    Block(&'a Block),
    /// The body of a `for` or `while` loop.
    LoopBody(&'a Block),
    /// The body of an EMI block.
    EmiBody(&'a Block),
}

/// A [`Part`] with mutable access.
#[derive(Debug)]
pub enum PartMut<'a> {
    /// See [`Part::Cond`].
    Cond(&'a mut Expr),
    /// See [`Part::Operand`].
    Operand(&'a mut Expr),
    /// See [`Part::Init`].
    Init(&'a mut Initializer),
    /// See [`Part::Stmt`].
    Stmt(&'a mut Stmt),
    /// See [`Part::Block`].
    Block(&'a mut Block),
    /// See [`Part::LoopBody`].
    LoopBody(&'a mut Block),
    /// See [`Part::EmiBody`].
    EmiBody(&'a mut Block),
}

impl<'a> Part<'a> {
    /// The expression of a [`Part::Cond`] or [`Part::Operand`].
    pub fn expr(self) -> Option<&'a Expr> {
        match self {
            Part::Cond(e) | Part::Operand(e) => Some(e),
            _ => None,
        }
    }
}

// Each node kind's two enumerations expand from one macro: matching on `&T`
// binds fields as shared references and on `&mut T` as mutable ones, and
// iterating `&Vec` / `&mut Vec` yields the matching element references.

macro_rules! expr_parts {
    ($node:expr, $part:ident, $f:ident) => {
        match $node {
            Expr::IntLit { .. } | Expr::Var(_) | Expr::IdQuery(_) => {}
            Expr::VectorLit { parts: list, .. }
            | Expr::Call { args: list, .. }
            | Expr::BuiltinCall { args: list, .. } => {
                for e in list {
                    $f($part::Operand(e));
                }
            }
            Expr::Unary { expr: e, .. }
            | Expr::Deref(e)
            | Expr::AddrOf(e)
            | Expr::Cast { expr: e, .. }
            | Expr::Field { base: e, .. }
            | Expr::Swizzle { base: e, .. } => $f($part::Operand(e)),
            Expr::Binary { lhs, rhs, .. }
            | Expr::Assign { lhs, rhs, .. }
            | Expr::Comma { lhs, rhs }
            | Expr::Index {
                base: lhs,
                index: rhs,
            } => {
                $f($part::Operand(lhs));
                $f($part::Operand(rhs));
            }
            Expr::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                $f($part::Cond(cond));
                $f($part::Operand(then_expr));
                $f($part::Operand(else_expr));
            }
        }
    };
}

macro_rules! stmt_parts {
    ($node:expr, $part:ident, $f:ident) => {
        match $node {
            Stmt::Decl {
                init, init_list, ..
            } => {
                if let Some(e) = init {
                    $f($part::Operand(e));
                }
                if let Some(list) = init_list {
                    $f($part::Init(list));
                }
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => $f($part::Operand(e)),
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                $f($part::Cond(cond));
                $f($part::Block(then_block));
                if let Some(b) = else_block {
                    $f($part::Block(b));
                }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(s) = init {
                    $f($part::Stmt(s));
                }
                if let Some(c) = cond {
                    $f($part::Cond(c));
                }
                if let Some(u) = update {
                    $f($part::Operand(u));
                }
                $f($part::LoopBody(body));
            }
            Stmt::While { cond, body } => {
                $f($part::Cond(cond));
                $f($part::LoopBody(body));
            }
            Stmt::Block(b) => $f($part::Block(b)),
            Stmt::Emi(EmiBlock { body, .. }) => $f($part::EmiBody(body)),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Barrier(_) => {}
        }
    };
}

macro_rules! initializer_parts {
    ($node:expr, $part:ident, $f:ident) => {
        match $node {
            Initializer::Expr(e) => $f($part::Operand(e)),
            Initializer::List(items) => {
                for item in items {
                    $f($part::Init(item));
                }
            }
        }
    };
}

impl Expr {
    /// Calls `f` on each direct sub-expression, in source order: the first
    /// operand of `?:` as a [`Part::Cond`], every other as a
    /// [`Part::Operand`].
    pub fn for_each_part<'a>(&'a self, mut f: impl FnMut(Part<'a>)) {
        expr_parts!(self, Part, f)
    }

    /// [`Expr::for_each_part`] with mutable access.
    pub fn for_each_part_mut<'a>(&'a mut self, mut f: impl FnMut(PartMut<'a>)) {
        expr_parts!(self, PartMut, f)
    }
}

impl Stmt {
    /// Calls `f` on each direct child, in source order: a `for` loop's
    /// initialiser ([`Part::Stmt`]), condition, update and body; an `if`'s
    /// condition and branches; a declaration's value and brace initialiser.
    pub fn for_each_part<'a>(&'a self, mut f: impl FnMut(Part<'a>)) {
        stmt_parts!(self, Part, f)
    }

    /// [`Stmt::for_each_part`] with mutable access.
    pub fn for_each_part_mut<'a>(&'a mut self, mut f: impl FnMut(PartMut<'a>)) {
        stmt_parts!(self, PartMut, f)
    }
}

impl Initializer {
    /// Calls `f` on each direct child: the value of an
    /// [`Initializer::Expr`] as a [`Part::Operand`], or the items of a list,
    /// in order, as [`Part::Init`].
    pub fn for_each_part<'a>(&'a self, mut f: impl FnMut(Part<'a>)) {
        initializer_parts!(self, Part, f)
    }

    /// [`Initializer::for_each_part`] with mutable access.
    pub fn for_each_part_mut<'a>(&'a mut self, mut f: impl FnMut(PartMut<'a>)) {
        initializer_parts!(self, PartMut, f)
    }
}

/// Structural context maintained by the walker.
#[derive(Debug, Clone, Copy, Default)]
pub struct VisitCtx {
    /// Whether the node sits inside a loop body (`for` / `while`).
    pub in_loop: bool,
    /// Whether the expression is the *root* of a control-flow condition (an
    /// `if` / `while` / `for` condition or the first operand of `?:`).
    /// Children of a condition are visited with the flag cleared.
    pub in_condition: bool,
    /// Innermost enclosing literal `for` bound (`i < N` / `i <= N`), if any.
    pub enclosing_for_bound: Option<i128>,
}

/// A pre-order AST visitor over nodes borrowed for `'a`.  Both hooks default
/// to doing nothing, so a visitor only implements the granularity it cares
/// about; the walker functions ([`walk_block`], [`walk_stmt`],
/// [`walk_expr`]) perform the recursion, in source order.
pub trait Visitor<'a> {
    /// Called on every statement before its children are walked.
    fn enter_stmt(&mut self, _stmt: &'a Stmt, _cx: &VisitCtx) {}

    /// Called on every expression before its sub-expressions are walked.
    fn enter_expr(&mut self, _expr: &'a Expr, _cx: &VisitCtx) {}
}

/// Walks every statement of a block, in order.
pub fn walk_block<'a, V: Visitor<'a>>(v: &mut V, block: &'a Block, cx: VisitCtx) {
    for s in block.iter() {
        walk_stmt(v, s, cx);
    }
}

/// Walks a statement and everything it contains.  A loop body is walked
/// inside the loop, under the `for` loop's literal bound if it has one.
pub fn walk_stmt<'a, V: Visitor<'a>>(v: &mut V, stmt: &'a Stmt, cx: VisitCtx) {
    v.enter_stmt(stmt, &cx);
    let bound = match stmt {
        Stmt::For { cond: Some(c), .. } => extract_literal_bound(c),
        _ => None,
    };
    stmt.for_each_part(|part| {
        let part_cx = match part {
            Part::LoopBody(_) => VisitCtx {
                in_loop: true,
                enclosing_for_bound: bound.or(cx.enclosing_for_bound),
                ..cx
            },
            _ => cx,
        };
        walk_part(v, part, part_cx);
    });
}

/// Walks an expression and its sub-expressions.
pub fn walk_expr<'a, V: Visitor<'a>>(v: &mut V, expr: &'a Expr, cx: VisitCtx) {
    v.enter_expr(expr, &cx);
    expr.for_each_part(|part| walk_part(v, part, cx));
}

/// Walks one child: a condition's root is flagged, every other expression
/// clears the flag.
fn walk_part<'a, V: Visitor<'a>>(v: &mut V, part: Part<'a>, cx: VisitCtx) {
    match part {
        Part::Cond(e) => walk_expr(
            v,
            e,
            VisitCtx {
                in_condition: true,
                ..cx
            },
        ),
        Part::Operand(e) => walk_expr(
            v,
            e,
            VisitCtx {
                in_condition: false,
                ..cx
            },
        ),
        Part::Init(init) => init.for_each_part(|item| walk_part(v, item, cx)),
        Part::Stmt(s) => walk_stmt(v, s, cx),
        Part::Block(b) | Part::LoopBody(b) | Part::EmiBody(b) => walk_block(v, b, cx),
    }
}

/// Extracts a literal loop bound from conditions of the shape `i < N` or
/// `i <= N` with `N` a literal.
pub fn extract_literal_bound(cond: &Expr) -> Option<i128> {
    if let Expr::Binary { op, rhs, .. } = cond {
        if matches!(op, BinOp::Lt | BinOp::Le) {
            if let Expr::IntLit { value, .. } = rhs.as_ref() {
                return Some(*value);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::MemFence;
    use crate::types::{ScalarType, Type};

    #[derive(Default)]
    struct Recorder {
        stmts: usize,
        exprs: usize,
        condition_roots: Vec<String>,
        barrier_in_loop: bool,
        bounds_at_while: Vec<Option<i128>>,
    }

    impl Visitor<'_> for Recorder {
        fn enter_stmt(&mut self, stmt: &Stmt, cx: &VisitCtx) {
            self.stmts += 1;
            match stmt {
                Stmt::Barrier(_) if cx.in_loop => self.barrier_in_loop = true,
                Stmt::While { .. } => self.bounds_at_while.push(cx.enclosing_for_bound),
                _ => {}
            }
        }

        fn enter_expr(&mut self, expr: &Expr, cx: &VisitCtx) {
            self.exprs += 1;
            if cx.in_condition {
                let label = match expr {
                    Expr::Binary { .. } => "binary".to_string(),
                    Expr::Var(name) => name.clone(),
                    _ => "other".to_string(),
                };
                self.condition_roots.push(label);
            }
        }
    }

    #[test]
    fn condition_flag_marks_only_roots() {
        let stmt = Stmt::if_then(
            Expr::binary(BinOp::Lt, Expr::var("x"), Expr::int(3)),
            Block::of(vec![Stmt::expr(Expr::cond(
                Expr::var("y"),
                Expr::int(1),
                Expr::int(2),
            ))]),
        );
        let mut rec = Recorder::default();
        walk_stmt(&mut rec, &stmt, VisitCtx::default());
        // Only the `if` condition root and the `?:` condition root carry the
        // flag, not their children.
        assert_eq!(rec.condition_roots, vec!["binary".to_string(), "y".into()]);
    }

    #[test]
    fn loop_context_and_for_bounds_propagate() {
        let stmt = Stmt::For {
            init: Some(Box::new(Stmt::decl(
                "i",
                Type::Scalar(ScalarType::Int),
                Some(Expr::int(0)),
            ))),
            cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(9))),
            update: None,
            body: Block::of(vec![
                Stmt::Barrier(MemFence::Local),
                Stmt::While {
                    cond: Expr::int(1),
                    body: Block::new(),
                },
            ]),
        };
        let mut rec = Recorder::default();
        walk_stmt(&mut rec, &stmt, VisitCtx::default());
        assert!(rec.barrier_in_loop);
        assert_eq!(rec.bounds_at_while, vec![Some(9)]);
    }

    #[test]
    fn walker_reaches_initializer_and_emi_expressions() {
        let block = Block::of(vec![
            Stmt::decl_init_list(
                "s",
                Type::Scalar(ScalarType::Int),
                Initializer::of_exprs(vec![Expr::int(1), Expr::int(2)]),
            ),
            Stmt::Emi(crate::stmt::EmiBlock {
                index: 0,
                guard: (3, 1),
                body: Block::of(vec![Stmt::expr(Expr::int(7))]),
            }),
        ]);
        let mut rec = Recorder::default();
        walk_block(&mut rec, &block, VisitCtx::default());
        // decl + emi + inner expr statement; exprs: 1, 2, 7.
        assert_eq!(rec.stmts, 3);
        assert_eq!(rec.exprs, 3);
    }

    #[test]
    fn literal_bound_extraction() {
        let lt = Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(12));
        let le = Expr::binary(BinOp::Le, Expr::var("i"), Expr::int(4));
        let ne = Expr::binary(BinOp::Ne, Expr::var("i"), Expr::int(4));
        assert_eq!(extract_literal_bound(&lt), Some(12));
        assert_eq!(extract_literal_bound(&le), Some(4));
        assert_eq!(extract_literal_bound(&ne), None);
    }
}
