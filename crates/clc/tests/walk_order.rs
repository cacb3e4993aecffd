//! Pins what every public AST walker visits, and in which order, over one
//! program that holds every `Stmt`, `Expr` and `Initializer` variant.
//!
//! The orders differ between walkers on purpose, and downstream outputs
//! depend on them: `PerturbLiteral` bumps the salt-th literal in
//! `for_each_expr_mut` order, Table 3 takes `emi_blocks().first()` as its
//! donor body, and the bug rules read `Features`, which the visitor fills.
//! A change to any sequence below moves table cells.

use clc::visit::{self, VisitCtx, Visitor};
use clc::{
    AssignOp, BinOp, Block, Builtin, Dim, EmiBlock, Expr, FunctionDef, IdKind, Initializer,
    KernelDef, LaunchConfig, MemFence, Param, Program, ScalarType, Stmt, Type, UnOp, VectorWidth,
};

fn int() -> Type {
    Type::Scalar(ScalarType::Int)
}

fn emi(index: usize, body: Vec<Stmt>) -> Stmt {
    Stmt::Emi(EmiBlock {
        index,
        guard: (index + 2, index),
        body: Block::of(body),
    })
}

/// A helper `h(p)` and a kernel that together hold every statement,
/// expression and initialiser variant, an EMI block nested in another and
/// one used as a `for` initialiser.
fn program() -> Program {
    let helper = FunctionDef::new(
        "h",
        None,
        vec![Param::new("p", int().pointer_to(clc::AddressSpace::Global))],
        Block::of(vec![
            Stmt::decl("t", int(), None),
            Stmt::assign(Expr::deref(Expr::var("p")), Expr::int(15)),
            Stmt::Return(None),
        ]),
    );
    let body = vec![
        Stmt::decl(
            "a",
            Type::Vector(ScalarType::Int, VectorWidth::W2),
            Some(Expr::VectorLit {
                elem: ScalarType::Int,
                width: VectorWidth::W2,
                parts: vec![Expr::int(1), Expr::int(2)],
            }),
        ),
        Stmt::decl_init_list(
            "s",
            int().array_of(3),
            Initializer::List(vec![
                Initializer::Expr(Expr::int(3)),
                Initializer::of_exprs(vec![Expr::int(4), Expr::int(5)]),
            ]),
        ),
        Stmt::assign(Expr::var("x"), Expr::unary(UnOp::Neg, Expr::var("y"))),
        Stmt::if_else(
            Expr::binary(BinOp::Lt, Expr::var("c"), Expr::int(6)),
            Block::of(vec![Stmt::Barrier(MemFence::Local), Stmt::Break]),
            Block::of(vec![Stmt::Continue]),
        ),
        Stmt::For {
            init: Some(Box::new(emi(
                2,
                vec![Stmt::assign(Expr::var("z"), Expr::int(7))],
            ))),
            cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(8))),
            update: Some(Expr::assign_op(
                AssignOp::AddAssign,
                Expr::var("i"),
                Expr::int(9),
            )),
            body: Block::of(vec![Stmt::While {
                cond: Expr::var("w"),
                body: Block::of(vec![Stmt::Block(Block::of(vec![Stmt::Return(Some(
                    Expr::call(
                        "h",
                        vec![
                            Expr::int(10),
                            Expr::builtin(
                                Builtin::SafeAdd,
                                vec![Expr::int(11), Expr::IdQuery(IdKind::LocalId(Dim::X))],
                            ),
                        ],
                    ),
                ))]))]),
            }]),
        },
        emi(
            0,
            vec![
                emi(
                    1,
                    vec![Stmt::assign(
                        Expr::var("q"),
                        Expr::comma(
                            Expr::cond(Expr::var("b"), Expr::int(12), Expr::int(13)),
                            Expr::index(Expr::var("arr"), Expr::int(14)),
                        ),
                    )],
                ),
                Stmt::Return(None),
            ],
        ),
        Stmt::expr(Expr::cast(
            Type::Scalar(ScalarType::Char),
            Expr::lane(Expr::arrow(Expr::addr_of(Expr::var("s")), "g"), 0),
        )),
    ];
    let mut program = Program::new(
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(8),
            body: Block::of(body),
        },
        LaunchConfig::single_group(4),
    );
    program.functions.push(helper);
    program.dead_len = 8;
    program
}

fn expr_label(e: &Expr) -> String {
    match e {
        Expr::IntLit { value, .. } => value.to_string(),
        Expr::Var(name) => name.clone(),
        Expr::VectorLit { .. } => "vec".into(),
        Expr::Unary { .. } => "unary".into(),
        Expr::Binary { .. } => "binary".into(),
        Expr::Assign { .. } => "assign".into(),
        Expr::Cond { .. } => "cond".into(),
        Expr::Comma { .. } => "comma".into(),
        Expr::Call { .. } => "call".into(),
        Expr::BuiltinCall { .. } => "builtin".into(),
        Expr::IdQuery(_) => "id".into(),
        Expr::Index { .. } => "index".into(),
        Expr::Field { .. } => "field".into(),
        Expr::Deref(_) => "deref".into(),
        Expr::AddrOf(_) => "addr".into(),
        Expr::Cast { .. } => "cast".into(),
        Expr::Swizzle { .. } => "swizzle".into(),
    }
}

fn stmt_label(s: &Stmt) -> String {
    match s {
        Stmt::Decl { name, .. } => format!("decl {name}"),
        Stmt::Expr(Expr::Assign { lhs, .. }) => format!("{}=", expr_label(lhs)),
        Stmt::Expr(e) => format!("expr {}", expr_label(e)),
        Stmt::If { .. } => "if".into(),
        Stmt::For { .. } => "for".into(),
        Stmt::While { .. } => "while".into(),
        Stmt::Block(_) => "block".into(),
        Stmt::Return(Some(_)) => "return e".into(),
        Stmt::Return(None) => "return".into(),
        Stmt::Break => "break".into(),
        Stmt::Continue => "continue".into(),
        Stmt::Barrier(_) => "barrier".into(),
        Stmt::Emi(emi) => format!("emi{}", emi.index),
    }
}

fn block_label(b: &Block) -> String {
    let stmts: Vec<String> = b.iter().map(stmt_label).collect();
    format!("[{}]", stmts.join(","))
}

fn words(s: &str) -> Vec<String> {
    s.split_whitespace().map(|w| w.replace('_', " ")).collect()
}

/// The kernel's statements pre-order, helper first: what `for_each_stmt`,
/// `Block::for_each` and `Stmt::for_each` visit.  A `for` initialiser comes
/// after its loop and before the loop body.
const STMTS: &str = "decl_t deref= return \
    decl_a decl_s x= if barrier break continue \
    for emi2 z= while block return_e \
    emi0 emi1 q= return expr_cast";

/// Every expression, statements pre-order and each statement's own
/// expressions pre-order before those of nested statements, so a `for`
/// loop's condition and update come before its initialiser's expressions.
const EXPRS: &str = "assign deref p 15 \
    vec 1 2 3 4 5 assign x unary y binary c 6 \
    binary i 8 assign i 9 assign z 7 w call 10 builtin 11 id \
    assign q comma cond b 12 13 index arr 14 \
    cast swizzle field addr s";

/// Every expression in source order with each expression post-order: a `for`
/// initialiser's expressions come first.
const EXPRS_MUT: &str = "p deref 15 assign \
    1 2 vec 3 4 5 x y unary assign c 6 binary \
    z 7 assign i 8 binary i 9 assign w 10 11 id builtin call \
    q b 12 13 cond arr 14 index comma assign \
    s addr field swizzle cast";

#[test]
fn expression_walkers_visit_pre_order_and_post_order() {
    let p = program();
    let mut seen = Vec::new();
    p.for_each_expr(&mut |e| seen.push(expr_label(e)));
    assert_eq!(seen, words(EXPRS));

    let mut p = program();
    let mut seen = Vec::new();
    p.for_each_expr_mut(&mut |e| seen.push(expr_label(e)));
    assert_eq!(seen, words(EXPRS_MUT));

    // The kernel body on its own: `Block::for_each_expr_mut` and the
    // per-statement `Stmt::for_each_expr(true, ..)`.
    let mut p = program();
    let mut seen = Vec::new();
    p.kernel
        .body
        .for_each_expr_mut(&mut |e| seen.push(expr_label(e)));
    assert_eq!(seen, words(EXPRS_MUT)[4..]);
    let p = program();
    let mut seen = Vec::new();
    for s in p.kernel.body.iter() {
        s.for_each_expr(true, &mut |e| seen.push(expr_label(e)));
    }
    assert_eq!(seen, words(EXPRS)[4..]);
}

#[test]
fn a_statement_s_own_expressions_exclude_nested_statements() {
    let p = program();
    let own: Vec<Vec<String>> = p
        .kernel
        .body
        .iter()
        .map(|s| {
            let mut seen = Vec::new();
            s.for_each_expr(false, &mut |e| seen.push(expr_label(e)));
            seen
        })
        .collect();
    let expected: Vec<Vec<String>> = [
        "vec 1 2",
        "3 4 5",
        "assign x unary y",
        "binary c 6",
        "binary i 8 assign i 9",
        "",
        "cast swizzle field addr s",
    ]
    .iter()
    .map(|s| words(s))
    .collect();
    assert_eq!(own, expected);

    let mut for_stmt = p.kernel.body.stmts[4].clone();
    let mut seen = Vec::new();
    for_stmt.for_each_expr_mut(&mut |e| seen.push(expr_label(e)));
    assert_eq!(
        seen,
        words("z 7 assign i 8 binary i 9 assign w 10 11 id builtin call")
    );
}

#[test]
fn single_expression_walkers() {
    let p = program();
    let Stmt::Emi(outer) = &p.kernel.body.stmts[5] else {
        panic!("statement 5 is the outer EMI block")
    };
    let Stmt::Emi(inner) = &outer.body.stmts[0] else {
        panic!("the outer EMI block opens with the inner one")
    };
    let Stmt::Expr(e) = &inner.body.stmts[0] else {
        panic!("the inner EMI block holds an expression statement")
    };
    let mut pre = Vec::new();
    e.for_each(&mut |x| pre.push(expr_label(x)));
    assert_eq!(pre, words("assign q comma cond b 12 13 index arr 14"));
    assert_eq!(e.node_count(), 10);
    let mut e = e.clone();
    let mut post = Vec::new();
    e.for_each_mut(&mut |x| post.push(expr_label(x)));
    assert_eq!(post, words("q b 12 13 cond arr 14 index comma assign"));
}

#[test]
fn initializer_walkers_visit_leaves_in_order() {
    let p = program();
    let Stmt::Decl {
        init_list: Some(list),
        ..
    } = &p.kernel.body.stmts[1]
    else {
        panic!("statement 1 declares `s` with a brace list")
    };
    let mut seen = Vec::new();
    list.for_each_expr(&mut |e| seen.push(expr_label(e)));
    assert_eq!(seen, words("3 4 5"));
    let mut list = list.clone();
    let mut seen = Vec::new();
    list.for_each_expr_mut(&mut |e| seen.push(expr_label(e)));
    assert_eq!(seen, words("3 4 5"));
}

#[test]
fn statement_walkers_visit_pre_order() {
    let p = program();
    let mut seen = Vec::new();
    p.for_each_stmt(&mut |s| seen.push(stmt_label(s)));
    assert_eq!(seen, words(STMTS));

    let mut seen = Vec::new();
    p.kernel.body.for_each(&mut |s| seen.push(stmt_label(s)));
    assert_eq!(seen, words(STMTS)[3..]);

    let mut seen = Vec::new();
    p.kernel.body.stmts[4].for_each(&mut |s| seen.push(stmt_label(s)));
    assert_eq!(seen, words("for emi2 z= while block return_e"));

    assert_eq!(p.statement_count(), 21);
    assert_eq!(p.kernel.body.node_count(), 18);
    assert_eq!(p.kernel.body.stmts[4].node_count(), 6);
    assert!(p.kernel.body.contains_barrier());
    assert!(!p.kernel.body.stmts[4].contains_barrier());
}

#[test]
fn emi_blocks_are_listed_in_statement_pre_order() {
    let p = program();
    let indices: Vec<usize> = p.emi_blocks().iter().map(|e| e.index).collect();
    assert_eq!(indices, vec![2, 0, 1]);
}

#[test]
fn block_walker_visits_children_first_through_block_parts() {
    let mut p = program();
    let mut seen = Vec::new();
    p.for_each_block_mut(&mut |b| seen.push(block_label(b)));
    // Blocks reached through a `for` initialiser are not visited: the body
    // of `emi2` is missing.
    assert_eq!(
        seen,
        vec![
            "[decl t,deref=,return]",
            "[barrier,break]",
            "[continue]",
            "[return e]",
            "[block]",
            "[while]",
            "[q=]",
            "[emi1,return]",
            "[decl a,decl s,x=,if,for,emi0,expr cast]",
        ]
    );
}

#[derive(Default)]
struct Recorder {
    seen: Vec<String>,
}

impl Recorder {
    fn note(&mut self, label: String, cx: &VisitCtx) {
        let mut flags = String::new();
        if cx.in_loop {
            flags.push('L');
        }
        if cx.in_condition {
            flags.push('C');
        }
        if let Some(bound) = cx.enclosing_for_bound {
            flags.push_str(&bound.to_string());
        }
        self.seen.push(if flags.is_empty() {
            label
        } else {
            format!("{label}@{flags}")
        });
    }
}

impl Visitor<'_> for Recorder {
    fn enter_stmt(&mut self, stmt: &Stmt, cx: &VisitCtx) {
        self.note(stmt_label(stmt), cx);
    }

    fn enter_expr(&mut self, expr: &Expr, cx: &VisitCtx) {
        self.note(expr_label(expr), cx);
    }
}

#[test]
fn visitor_walks_source_order_with_context() {
    let p = program();
    let mut rec = Recorder::default();
    visit::walk_block(&mut rec, &p.functions[0].body, VisitCtx::default());
    visit::walk_block(&mut rec, &p.kernel.body, VisitCtx::default());
    let expected = "decl_t deref= assign deref p 15 return \
        decl_a vec 1 2 decl_s 3 4 5 x= assign x unary y \
        if binary@C c 6 barrier break continue \
        for emi2 z= assign z 7 binary@C i 8 assign i 9 \
        while@L8 w@LC8 block@L8 return_e@L8 call@L8 10@L8 builtin@L8 11@L8 id@L8 \
        emi0 emi1 q= assign q comma cond b@C 12 13 index arr 14 return \
        expr_cast cast swizzle field addr s";
    assert_eq!(rec.seen, words(expected));

    let mut rec = Recorder::default();
    visit::walk_stmt(&mut rec, &p.kernel.body.stmts[3], VisitCtx::default());
    assert_eq!(rec.seen, words("if binary@C c 6 barrier break continue"));

    let mut rec = Recorder::default();
    let in_loop = VisitCtx {
        in_loop: true,
        ..VisitCtx::default()
    };
    visit::walk_expr(
        &mut rec,
        &Expr::cond(Expr::var("b"), Expr::int(1), Expr::int(2)),
        in_loop,
    );
    assert_eq!(rec.seen, words("cond@L b@LC 1@L 2@L"));
}
