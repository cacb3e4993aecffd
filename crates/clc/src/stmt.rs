//! Statements and blocks of the OpenCL C subset.
//!
//! Statements are the granularity at which the interpreter can suspend a
//! work-item (for barrier synchronisation), and the granularity at which the
//! EMI machinery prunes code.

use crate::expr::Expr;
use crate::types::{AddressSpace, Type};
use crate::visit::{Part, PartMut};

/// The memory-fence argument of a `barrier(...)` call (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemFence {
    /// `CLK_LOCAL_MEM_FENCE`
    #[default]
    Local,
    /// `CLK_GLOBAL_MEM_FENCE`
    Global,
    /// `CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE`
    Both,
}

impl MemFence {
    /// OpenCL C spelling of the fence flags.
    pub fn render(self) -> &'static str {
        match self {
            MemFence::Local => "CLK_LOCAL_MEM_FENCE",
            MemFence::Global => "CLK_GLOBAL_MEM_FENCE",
            MemFence::Both => "CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE",
        }
    }
}

/// An EMI block: `if (dead[i] < dead[j]) { body }` with `j < i`, so that the
/// body is dynamically unreachable by construction (§5 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmiBlock {
    /// Sequence number of the block within the program (the paper's `i`).
    pub index: usize,
    /// Indices `(a, b)` such that the guard is `dead[a] < dead[b]`.
    ///
    /// The host initialises `dead[j] = j`, so the guard is false whenever
    /// `b < a`, which the generator guarantees.
    pub guard: (usize, usize),
    /// The dynamically dead body.
    pub body: Block,
}

impl EmiBlock {
    /// Whether the guard is false under the standard `dead[j] = j`
    /// initialisation (i.e. the body really is dead by construction).
    pub fn is_dead_by_construction(&self) -> bool {
        self.guard.1 < self.guard.0
    }
}

/// A single statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// Local variable declaration, optionally initialised.
    Decl {
        /// Variable name.
        name: String,
        /// Variable type.
        ty: Type,
        /// Address space (`private` by default, `local` for work-group
        /// shared arrays in BARRIER mode).
        space: AddressSpace,
        /// Whether the variable is `volatile`.
        volatile: bool,
        /// Optional initialiser.  Struct/array variables may be initialised
        /// with an [`Initializer`] via `init_list` instead.
        init: Option<Expr>,
        /// Optional brace initialiser list for aggregates.
        init_list: Option<Initializer>,
    },
    /// Expression statement (assignments, calls, atomics, ...).
    Expr(Expr),
    /// `if (cond) { then } else { else }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
    },
    /// `for (init; cond; update) { body }`.
    For {
        /// Optional init statement (a declaration or expression).
        init: Option<Box<Stmt>>,
        /// Optional condition (absent means "true").
        cond: Option<Expr>,
        /// Optional update expression.
        update: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `while (cond) { body }`.
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// A nested block `{ ... }`.
    Block(Block),
    /// `return expr;` / `return;`.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `barrier(fence);`
    Barrier(MemFence),
    /// An EMI block (see [`EmiBlock`]).
    Emi(EmiBlock),
}

impl Stmt {
    /// Shorthand for a declaration with an expression initialiser.
    pub fn decl(name: impl Into<String>, ty: Type, init: Option<Expr>) -> Stmt {
        Stmt::Decl {
            name: name.into(),
            ty,
            space: AddressSpace::Private,
            volatile: false,
            init,
            init_list: None,
        }
    }

    /// Shorthand for a declaration with a brace initialiser.
    pub fn decl_init_list(name: impl Into<String>, ty: Type, init: Initializer) -> Stmt {
        Stmt::Decl {
            name: name.into(),
            ty,
            space: AddressSpace::Private,
            volatile: false,
            init: None,
            init_list: Some(init),
        }
    }

    /// Shorthand for an expression statement.
    pub fn expr(e: Expr) -> Stmt {
        Stmt::Expr(e)
    }

    /// Shorthand for an assignment statement `lhs = rhs;`.
    pub fn assign(lhs: Expr, rhs: Expr) -> Stmt {
        Stmt::Expr(Expr::assign(lhs, rhs))
    }

    /// Shorthand for `if (cond) { then }`.
    pub fn if_then(cond: Expr, then_block: Block) -> Stmt {
        Stmt::If {
            cond,
            then_block,
            else_block: None,
        }
    }

    /// Shorthand for `if (cond) { then } else { else }`.
    pub fn if_else(cond: Expr, then_block: Block, else_block: Block) -> Stmt {
        Stmt::If {
            cond,
            then_block,
            else_block: Some(else_block),
        }
    }

    /// Whether the statement is "compound" in the EMI pruning sense (§5):
    /// it owns nested statements.
    pub fn is_compound(&self) -> bool {
        matches!(
            self,
            Stmt::If { .. } | Stmt::For { .. } | Stmt::While { .. } | Stmt::Block(_) | Stmt::Emi(_)
        )
    }

    /// Whether the statement is a jump (`return` / `break` / `continue`).
    ///
    /// Atomic sections must not contain these (§4.2, ATOMIC SECTION mode).
    pub fn is_jump(&self) -> bool {
        matches!(self, Stmt::Return(_) | Stmt::Break | Stmt::Continue)
    }

    /// Number of AST statement nodes (this node plus nested statements).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.for_each(&mut |_| n += 1);
        n
    }

    /// Calls `f` on this statement and every nested statement, pre-order: a
    /// `for` initialiser after its loop, before the loop body.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        self.for_each_part(|part| match part {
            Part::Stmt(s) => s.for_each(f),
            Part::Block(b) | Part::LoopBody(b) | Part::EmiBody(b) => b.for_each(f),
            _ => {}
        });
    }

    /// Calls `f` on each expression this statement evaluates itself, in
    /// source order, without descending into them: conditions, values, a
    /// `for` update and a brace initialiser's items, not the expressions of
    /// nested statements.
    pub fn for_each_root<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.for_each_part(|part| match part {
            Part::Cond(e) | Part::Operand(e) => f(e),
            Part::Init(list) => list.for_each_item(f),
            _ => {}
        });
    }

    /// Calls `f` on every expression contained in this statement, pre-order
    /// (not descending into nested statements' expressions unless
    /// `recursive`).  Statements are taken pre-order and each one's own
    /// expressions before those of nested statements, so a `for` loop's
    /// condition and update come before its initialiser's expressions.
    pub fn for_each_expr<'a>(&'a self, recursive: bool, f: &mut impl FnMut(&'a Expr)) {
        let mut own = |s: &'a Stmt| s.for_each_root(&mut |e| e.for_each(f));
        if recursive {
            self.for_each(&mut own);
        } else {
            own(self);
        }
    }

    /// Calls `f` mutably on every expression directly owned by this statement
    /// and, recursively, by nested statements: in source order (a `for`
    /// initialiser first), each expression post-order.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        self.for_each_part_mut(|part| match part {
            PartMut::Cond(e) | PartMut::Operand(e) => e.for_each_mut(f),
            PartMut::Init(list) => list.for_each_expr_mut(f),
            PartMut::Stmt(s) => s.for_each_expr_mut(f),
            PartMut::Block(b) | PartMut::LoopBody(b) | PartMut::EmiBody(b) => {
                b.for_each_expr_mut(f)
            }
        });
    }

    /// Whether this statement or any nested statement is a barrier.
    pub fn contains_barrier(&self) -> bool {
        let mut found = false;
        self.for_each(&mut |s| {
            if matches!(s, Stmt::Barrier(_)) {
                found = true;
            }
        });
        found
    }
}

/// A brace-initialiser for aggregates, e.g. `{0, {1, 2}, 3}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Initializer {
    /// A single expression initialising a scalar / vector / pointer slot.
    Expr(Expr),
    /// A nested brace list initialising an aggregate.
    List(Vec<Initializer>),
}

impl Initializer {
    /// Convenience: a list of expression initialisers.
    pub fn of_exprs(exprs: Vec<Expr>) -> Initializer {
        Initializer::List(exprs.into_iter().map(Initializer::Expr).collect())
    }

    /// Calls `f` on each item's value expression, in order, without
    /// descending into it.
    pub fn for_each_item<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.for_each_part(|part| match part {
            Part::Cond(e) | Part::Operand(e) => f(e),
            Part::Init(item) => item.for_each_item(f),
            _ => {}
        });
    }

    /// Calls `f` on every expression in the initialiser, pre-order.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.for_each_item(&mut |e| e.for_each(f));
    }

    /// Calls `f` mutably on every expression in the initialiser, post-order.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        self.for_each_part_mut(|part| match part {
            PartMut::Cond(e) | PartMut::Operand(e) => e.for_each_mut(f),
            PartMut::Init(item) => item.for_each_expr_mut(f),
            _ => {}
        });
    }
}

/// A sequence of statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Block {
    /// The statements, in program order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Block {
        Block::default()
    }

    /// A block holding the given statements.
    pub fn of(stmts: Vec<Stmt>) -> Block {
        Block { stmts }
    }

    /// Appends a statement.
    pub fn push(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    /// Number of directly contained statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Iterates over directly contained statements.
    pub fn iter(&self) -> std::slice::Iter<'_, Stmt> {
        self.stmts.iter()
    }

    /// Calls `f` on every statement in the block, recursively, pre-order.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for s in &self.stmts {
            s.for_each(f);
        }
    }

    /// Calls `f` mutably on every expression in the block, recursively.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        for s in &mut self.stmts {
            s.for_each_expr_mut(f);
        }
    }

    /// Calls `f` mutably on this block and every nested block,
    /// children-first so structural rewrites (statement insertion / removal)
    /// compose.  Blocks are reached through block parts only: the walk does
    /// not enter a `for` initialiser.
    pub fn for_each_block_mut(&mut self, f: &mut impl FnMut(&mut Block)) {
        for s in &mut self.stmts {
            s.for_each_part_mut(|part| {
                if let PartMut::Block(b) | PartMut::LoopBody(b) | PartMut::EmiBody(b) = part {
                    b.for_each_block_mut(f);
                }
            });
        }
        f(self);
    }

    /// Total number of statement nodes contained in the block.
    pub fn node_count(&self) -> usize {
        self.stmts.iter().map(Stmt::node_count).sum()
    }

    /// Whether any contained statement is a barrier.
    pub fn contains_barrier(&self) -> bool {
        self.stmts.iter().any(Stmt::contains_barrier)
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<T: IntoIterator<Item = Stmt>>(iter: T) -> Self {
        Block {
            stmts: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Block {
    type Item = Stmt;
    type IntoIter = std::vec::IntoIter<Stmt>;

    fn into_iter(self) -> Self::IntoIter {
        self.stmts.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::types::ScalarType;

    fn sample_block() -> Block {
        Block::of(vec![
            Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(1))),
            Stmt::If {
                cond: Expr::binary(BinOp::Lt, Expr::var("x"), Expr::int(10)),
                then_block: Block::of(vec![
                    Stmt::assign(Expr::var("x"), Expr::int(2)),
                    Stmt::Barrier(MemFence::Local),
                ]),
                else_block: Some(Block::of(vec![Stmt::Break])),
            },
            Stmt::Return(Some(Expr::var("x"))),
        ])
    }

    #[test]
    fn emi_block_deadness() {
        let dead = EmiBlock {
            index: 0,
            guard: (3, 1),
            body: Block::new(),
        };
        assert!(dead.is_dead_by_construction());
        let live = EmiBlock {
            index: 0,
            guard: (1, 3),
            body: Block::new(),
        };
        assert!(!live.is_dead_by_construction());
    }

    #[test]
    fn statement_classification() {
        assert!(Stmt::if_then(Expr::int(1), Block::new()).is_compound());
        assert!(!Stmt::Break.is_compound());
        assert!(Stmt::Break.is_jump());
        assert!(Stmt::Return(None).is_jump());
        assert!(!Stmt::Barrier(MemFence::Both).is_jump());
    }

    #[test]
    fn walking_counts_nested_statements() {
        let block = sample_block();
        // decl, if, assign, barrier, break, return = 6 statement nodes
        assert_eq!(block.node_count(), 6);
        assert!(block.contains_barrier());
    }

    #[test]
    fn expr_iteration_covers_nested_blocks() {
        let block = sample_block();
        let mut vars = 0;
        for s in block.iter() {
            s.for_each_expr(true, &mut |e| {
                if matches!(e, Expr::Var(_)) {
                    vars += 1;
                }
            });
        }
        // x in condition, x in assignment lhs, x in return
        assert_eq!(vars, 3);
    }

    #[test]
    fn expr_mutation_reaches_nested_blocks() {
        let mut block = sample_block();
        block.for_each_expr_mut(&mut |e| {
            if let Expr::IntLit { value, .. } = e {
                *value = 0;
            }
        });
        let mut nonzero = false;
        for s in block.iter() {
            s.for_each_expr(true, &mut |e| {
                if let Expr::IntLit { value, .. } = e {
                    if *value != 0 {
                        nonzero = true;
                    }
                }
            });
        }
        assert!(!nonzero);
    }

    #[test]
    fn fence_rendering() {
        assert_eq!(MemFence::Local.render(), "CLK_LOCAL_MEM_FENCE");
        assert_eq!(
            MemFence::Both.render(),
            "CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE"
        );
    }

    #[test]
    fn initializer_walks() {
        let init = Initializer::List(vec![
            Initializer::Expr(Expr::int(1)),
            Initializer::List(vec![Initializer::Expr(Expr::int(2))]),
        ]);
        let mut sum = 0i128;
        init.for_each_expr(&mut |e| {
            if let Expr::IntLit { value, .. } = e {
                sum += value;
            }
        });
        assert_eq!(sum, 3);
    }
}
