//! Static feature analysis over programs.
//!
//! The simulated OpenCL configurations (crate `opencl-sim`) decide whether a
//! bug model triggers by querying the [`Features`] of a program: e.g. the
//! AMD struct bug of Figure 1(a) triggers on "a struct whose first field is
//! `char` followed by a wider member", and the Intel Xeon front-end bug of
//! §6 triggers on "an arithmetic/bitwise operator mixing `int` with a
//! `size_t` work-item id".  Keeping feature detection here, next to the AST,
//! lets the generator, the harness and the simulated compilers all agree on
//! what a feature means.

use crate::expr::{Builtin, Expr, IdKind, UnOp};
use crate::program::Program;
use crate::stmt::{Initializer, Stmt};
use crate::types::Type;
use crate::visit::{self, VisitCtx, Visitor};
use std::collections::HashMap;

/// Static features of a program relevant to the bug models.
///
/// All counters are program-wide (kernel plus helper functions).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Features {
    /// A struct whose first field is `char`/`uchar` and whose second field is
    /// wider (Figure 1(a); the AMD struct bug).
    pub struct_char_then_wider: bool,
    /// A union appears nested inside a struct initialiser (Figure 2(a)).
    pub union_in_initializer: bool,
    /// A vector type appears as a struct field (Figure 1(c); Altera ICE).
    pub vector_in_struct: bool,
    /// Whole-struct assignment (`s = t` at struct type) appears.
    pub whole_struct_assignment: bool,
    /// A struct field is read through a pointer (`p->f` or `(*p).f`).
    pub struct_read_through_pointer: bool,
    /// A helper function writes through a pointer-to-struct parameter
    /// (Figure 1(d)).
    pub struct_written_through_pointer_param: bool,
    /// Largest struct size, in interpreter cells.
    pub max_struct_cells: usize,
    /// Number of `barrier()` statements.
    pub barrier_count: usize,
    /// A barrier appears inside a *forward declared* helper function
    /// (Figure 2(c)).
    pub barrier_in_forward_declared_callee: bool,
    /// A barrier appears inside a loop body (Figure 2(d)).
    pub barrier_in_loop: bool,
    /// Number of atomic builtin calls.
    pub atomic_count: usize,
    /// Any vector-typed expression or declaration appears.
    pub uses_vectors: bool,
    /// A logical (`&&`, `||`, `!`) operator is applied to a vector operand
    /// (the Altera front-end rejection described in §6).
    pub vector_logical_op: bool,
    /// `rotate` is called with a literal zero rotation amount
    /// (Figure 2(b); the Intel constant-folding bug).
    pub rotate_by_zero_literal: bool,
    /// The comma operator appears anywhere.
    pub uses_comma: bool,
    /// A group id appears as an operand of a comparison (Figure 2(e)).
    pub group_id_in_comparison: bool,
    /// A work-item/group id (which has type `size_t` in OpenCL C) appears as
    /// a direct operand of an arithmetic/bitwise operator whose other
    /// operand is a signed `int` expression (the Intel Xeon `int`/`size_t`
    /// front-end rejection of §6).
    pub id_mixed_with_int: bool,
    /// A `while (1)`-style loop with a constant non-zero condition exists.
    pub has_infinite_loop: bool,
    /// Largest literal `for` bound enclosing an infinite `while` loop
    /// (Figure 1(e): compile hang when the bound reaches 197).
    pub max_for_bound_over_infinite_loop: i128,
    /// Number of helper functions.
    pub function_count: usize,
    /// Number of loops (`for` + `while`).
    pub loop_count: usize,
    /// Total statement count.
    pub statement_count: usize,
}

impl Features {
    /// Detects the features of a program.
    pub fn detect(program: &Program) -> Features {
        Detector::new(program).run()
    }
}

struct Detector<'p> {
    program: &'p Program,
    features: Features,
    /// Approximate variable typing environment (flat; shadowing collapses to
    /// the most recent declaration, which is sufficient for feature
    /// detection).
    var_types: HashMap<String, Type>,
    /// Set while walking a forward-declared helper function body.
    forward_declared: bool,
}

impl<'p> Detector<'p> {
    fn new(program: &'p Program) -> Detector<'p> {
        Detector {
            program,
            features: Features::default(),
            var_types: HashMap::new(),
            forward_declared: false,
        }
    }

    fn run(mut self) -> Features {
        self.scan_structs();
        self.collect_var_types();
        self.features.function_count = self.program.functions.len();
        self.features.statement_count = self.program.statement_count();

        let program = self.program;
        for f in &program.functions {
            self.forward_declared = f.forward_declared;
            visit::walk_block(&mut self, &f.body, VisitCtx::default());
            self.scan_function_param_writes(f);
        }
        self.forward_declared = false;
        visit::walk_block(&mut self, &program.kernel.body, VisitCtx::default());
        self.features
    }

    fn scan_structs(&mut self) {
        for def in &self.program.structs {
            if let (Some(first), Some(second)) = (def.fields.first(), def.fields.get(1)) {
                if !def.is_union {
                    if let (Type::Scalar(a), Some(b)) = (&first.ty, second.ty.scalar_elem()) {
                        if a.bits() == 8 && b.bits() > 8 {
                            self.features.struct_char_then_wider = true;
                        }
                    }
                }
            }
            if def.fields.iter().any(|field| field.ty.is_vector()) {
                self.features.vector_in_struct = true;
            }
            let cells = Type::Struct(crate::types::StructId(
                self.program
                    .structs
                    .iter()
                    .position(|d| std::ptr::eq(d, def))
                    .unwrap_or(0),
            ))
            .cell_count(&self.program.structs);
            self.features.max_struct_cells = self.features.max_struct_cells.max(cells);
        }
    }

    fn collect_var_types(&mut self) {
        for p in &self.program.kernel.params {
            self.var_types.insert(p.name.clone(), p.ty.clone());
        }
        for f in &self.program.functions {
            for p in &f.params {
                self.var_types.insert(p.name.clone(), p.ty.clone());
            }
        }
        let mut decls: Vec<(String, Type)> = Vec::new();
        self.program.for_each_stmt(&mut |s| {
            if let Stmt::Decl { name, ty, .. } = s {
                decls.push((name.clone(), ty.clone()));
            }
        });
        for (name, ty) in decls {
            self.var_types.insert(name, ty);
        }
    }

    fn scan_function_param_writes(&mut self, f: &crate::program::FunctionDef) {
        let struct_ptr_params: Vec<&str> = f
            .params
            .iter()
            .filter(|p| matches!(&p.ty, Type::Pointer(inner, _) if inner.is_struct()))
            .map(|p| p.name.as_str())
            .collect();
        if struct_ptr_params.is_empty() {
            return;
        }
        let mut writes = false;
        for s in f.body.iter() {
            s.for_each_expr(true, &mut |e| {
                if let Expr::Assign { lhs, .. } = e {
                    let mut touches_param = false;
                    lhs.for_each(&mut |sub| {
                        if let Expr::Var(name) = sub {
                            if struct_ptr_params.contains(&name.as_str()) {
                                touches_param = true;
                            }
                        }
                    });
                    if touches_param {
                        writes = true;
                    }
                }
            });
        }
        if writes {
            self.features.struct_written_through_pointer_param = true;
        }
    }

    fn scan_initializer(&mut self, ty: &Type, init: &Initializer) {
        // Detect a brace-initialised union field inside a struct initialiser
        // (Figure 2(a)): struct T { union U u[1]; ... } t = { {{1}}, ... }.
        // The initialiser *expressions* are walked by the shared visitor; only
        // this structural check needs the type alongside the initialiser.
        if let (Type::Struct(id), Initializer::List(items)) = (ty, init) {
            let def = self.program.struct_def(*id);
            for (field, item) in def.fields.iter().zip(items) {
                let field_is_unionish = match &field.ty {
                    Type::Struct(fid) => self.program.struct_def(*fid).is_union,
                    Type::Array(elem, _) => {
                        matches!(elem.as_ref(), Type::Struct(fid) if self.program.struct_def(*fid).is_union)
                    }
                    _ => false,
                };
                if field_is_unionish && matches!(item, Initializer::List(_)) {
                    self.features.union_in_initializer = true;
                }
                self.scan_initializer(&field.ty, item);
            }
        }
    }

    fn is_vector_expr(&self, e: &Expr) -> bool {
        match e {
            Expr::VectorLit { .. } => true,
            Expr::Var(name) => {
                matches!(self.var_types.get(name), Some(ty) if ty.is_vector())
            }
            Expr::Swizzle { lanes, .. } => lanes.len() > 1,
            Expr::BuiltinCall { func, args } => {
                matches!(
                    func,
                    Builtin::Rotate
                        | Builtin::Clamp
                        | Builtin::SafeClamp
                        | Builtin::Min
                        | Builtin::Max
                ) && args.iter().any(|a| self.is_vector_expr(a))
            }
            Expr::Binary { lhs, rhs, .. } => self.is_vector_expr(lhs) || self.is_vector_expr(rhs),
            Expr::Cast { ty, .. } => ty.is_vector(),
            _ => false,
        }
    }

    fn is_signed_int_expr(&self, e: &Expr) -> bool {
        match e {
            Expr::IntLit { ty, .. } => ty.is_signed(),
            Expr::Var(name) => matches!(
                self.var_types.get(name),
                Some(Type::Scalar(s)) if s.is_signed()
            ),
            _ => false,
        }
    }

    fn is_struct_expr(&self, e: &Expr) -> bool {
        match e {
            Expr::Var(name) => matches!(self.var_types.get(name), Some(Type::Struct(_))),
            Expr::Deref(inner) => match inner.as_ref() {
                Expr::Var(name) => matches!(
                    self.var_types.get(name),
                    Some(Type::Pointer(t, _)) if t.is_struct()
                ),
                _ => false,
            },
            _ => false,
        }
    }
}

impl Visitor<'_> for Detector<'_> {
    fn enter_stmt(&mut self, stmt: &Stmt, cx: &VisitCtx) {
        match stmt {
            Stmt::Decl { ty, init_list, .. } => {
                if ty.is_vector() {
                    self.features.uses_vectors = true;
                }
                if let Some(list) = init_list {
                    self.scan_initializer(ty, list);
                }
            }
            Stmt::For { .. } => self.features.loop_count += 1,
            Stmt::While { cond, .. } => {
                self.features.loop_count += 1;
                if is_nonzero_literal(cond) {
                    self.features.has_infinite_loop = true;
                    if let Some(bound) = cx.enclosing_for_bound {
                        self.features.max_for_bound_over_infinite_loop =
                            self.features.max_for_bound_over_infinite_loop.max(bound);
                    }
                }
            }
            Stmt::Barrier(_) => {
                self.features.barrier_count += 1;
                if self.forward_declared {
                    self.features.barrier_in_forward_declared_callee = true;
                }
                if cx.in_loop {
                    self.features.barrier_in_loop = true;
                }
            }
            _ => {}
        }
    }

    fn enter_expr(&mut self, e: &Expr, _: &VisitCtx) {
        match e {
            Expr::VectorLit { .. } => self.features.uses_vectors = true,
            Expr::Unary { op, expr } if *op == UnOp::LNot && self.is_vector_expr(expr) => {
                self.features.vector_logical_op = true;
            }
            Expr::Binary { op, lhs, rhs } => {
                if op.is_logical() && (self.is_vector_expr(lhs) || self.is_vector_expr(rhs)) {
                    self.features.vector_logical_op = true;
                }
                if op.is_comparison() && (is_group_id(lhs) || is_group_id(rhs)) {
                    self.features.group_id_in_comparison = true;
                }
                if !op.is_comparison() && !op.is_logical() {
                    let mixes = (is_identity_query(lhs) && self.is_signed_int_expr(rhs))
                        || (is_identity_query(rhs) && self.is_signed_int_expr(lhs));
                    if mixes {
                        self.features.id_mixed_with_int = true;
                    }
                }
            }
            Expr::Assign { op, lhs, rhs } => {
                if op.binop().is_some() && is_identity_query(rhs) && self.is_signed_int_expr(lhs) {
                    self.features.id_mixed_with_int = true;
                }
                if self.is_struct_expr(lhs) && self.is_struct_expr(rhs) {
                    self.features.whole_struct_assignment = true;
                }
            }
            Expr::Comma { .. } => self.features.uses_comma = true,
            Expr::BuiltinCall { func, args } => {
                if func.is_atomic() {
                    self.features.atomic_count += 1;
                }
                if *func == Builtin::Rotate && args.get(1).is_some_and(is_zero_valued) {
                    self.features.rotate_by_zero_literal = true;
                }
            }
            Expr::Field { base, arrow, .. }
                if *arrow || matches!(base.as_ref(), Expr::Deref(_)) =>
            {
                self.features.struct_read_through_pointer = true;
            }
            Expr::Cast { ty, .. } if ty.is_vector() => self.features.uses_vectors = true,
            Expr::Swizzle { .. } => self.features.uses_vectors = true,
            _ => {}
        }
    }
}

fn is_group_id(e: &Expr) -> bool {
    fn direct(e: &Expr) -> bool {
        matches!(
            e,
            Expr::IdQuery(IdKind::GroupId(_)) | Expr::IdQuery(IdKind::GroupLinearId)
        )
    }
    // Only a *shallow* occurrence counts: the operand is itself a group id,
    // or a unary/cast/arithmetic node with a group id as a direct child
    // (this matches the Figure 2(e) shape `(*p - gx) != 1` without flagging
    // group-id-based buffer indexing such as `counters[g_linear*C + c]`).
    match e {
        _ if direct(e) => true,
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => direct(expr),
        Expr::Binary { lhs, rhs, .. } => direct(lhs) || direct(rhs),
        _ => false,
    }
}

fn is_identity_query(e: &Expr) -> bool {
    matches!(e, Expr::IdQuery(kind) if kind.is_identity_dependent())
}

fn is_zero_valued(e: &Expr) -> bool {
    match e {
        Expr::IntLit { value, .. } => *value == 0,
        Expr::VectorLit { parts, .. } => parts.iter().all(is_zero_valued),
        Expr::Cast { expr, .. } => is_zero_valued(expr),
        _ => false,
    }
}

fn is_nonzero_literal(e: &Expr) -> bool {
    matches!(e, Expr::IntLit { value, .. } if *value != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AssignOp, BinOp, Dim};
    use crate::program::{KernelDef, LaunchConfig, Param, Program};
    use crate::stmt::{Block, MemFence};
    use crate::types::{AddressSpace, Field, ScalarType, StructDef, VectorWidth};

    fn base_program() -> Program {
        Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::new(),
            },
            LaunchConfig::single_group(4),
        )
    }

    #[test]
    fn detects_struct_char_then_wider() {
        let mut p = base_program();
        p.add_struct(StructDef::new(
            "S",
            vec![
                Field::new("a", Type::Scalar(ScalarType::Char)),
                Field::new("b", Type::Scalar(ScalarType::Short)),
            ],
        ));
        let f = Features::detect(&p);
        assert!(f.struct_char_then_wider);
        assert_eq!(f.max_struct_cells, 2);
    }

    #[test]
    fn detects_vector_in_struct_and_unions() {
        let mut p = base_program();
        p.add_struct(StructDef::union(
            "U",
            vec![Field::new("x", Type::Scalar(ScalarType::UInt))],
        ));
        p.add_struct(StructDef::new(
            "S",
            vec![Field::new(
                "v",
                Type::Vector(ScalarType::Int, VectorWidth::W4),
            )],
        ));
        let f = Features::detect(&p);
        assert!(f.vector_in_struct);
    }

    #[test]
    fn detects_barrier_contexts() {
        let mut p = base_program();
        p.functions.push(crate::program::FunctionDef {
            name: "f".into(),
            ret: Some(Type::Scalar(ScalarType::Int)),
            params: vec![],
            body: Block::of(vec![
                Stmt::Barrier(MemFence::Local),
                Stmt::Return(Some(Expr::int(1))),
            ]),
            forward_declared: true,
            noinline: false,
        });
        p.kernel.body.push(Stmt::For {
            init: None,
            cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(10))),
            update: None,
            body: Block::of(vec![Stmt::Barrier(MemFence::Local)]),
        });
        let f = Features::detect(&p);
        assert_eq!(f.barrier_count, 2);
        assert!(f.barrier_in_forward_declared_callee);
        assert!(f.barrier_in_loop);
    }

    #[test]
    fn detects_rotate_by_zero_and_comma_in_condition() {
        let mut p = base_program();
        p.kernel.body.push(Stmt::expr(Expr::builtin(
            Builtin::Rotate,
            vec![
                Expr::VectorLit {
                    elem: ScalarType::UInt,
                    width: VectorWidth::W2,
                    parts: vec![
                        Expr::lit(1, ScalarType::UInt),
                        Expr::lit(1, ScalarType::UInt),
                    ],
                },
                Expr::VectorLit {
                    elem: ScalarType::UInt,
                    width: VectorWidth::W2,
                    parts: vec![
                        Expr::lit(0, ScalarType::UInt),
                        Expr::lit(0, ScalarType::UInt),
                    ],
                },
            ],
        )));
        p.kernel.body.push(Stmt::if_then(
            Expr::comma(Expr::var("x"), Expr::int(1)),
            Block::of(vec![Stmt::Break]),
        ));
        let f = Features::detect(&p);
        assert!(f.rotate_by_zero_literal);
        assert!(f.uses_comma);
        assert!(f.uses_vectors);
    }

    #[test]
    fn detects_group_id_comparison_and_int_size_t_mixing() {
        let mut p = base_program();
        p.kernel.body.push(Stmt::decl(
            "x",
            Type::Scalar(ScalarType::Int),
            Some(Expr::int(0)),
        ));
        p.kernel.body.push(Stmt::if_then(
            Expr::binary(
                BinOp::Ne,
                Expr::binary(
                    BinOp::Sub,
                    Expr::var("x"),
                    Expr::IdQuery(IdKind::GroupId(Dim::X)),
                ),
                Expr::int(1),
            ),
            Block::new(),
        ));
        p.kernel.body.push(Stmt::expr(Expr::assign_op(
            AssignOp::OrAssign,
            Expr::var("x"),
            Expr::IdQuery(IdKind::GroupId(Dim::X)),
        )));
        let f = Features::detect(&p);
        assert!(f.group_id_in_comparison);
        assert!(f.id_mixed_with_int);
    }

    #[test]
    fn detects_infinite_loop_under_for_bound() {
        let mut p = base_program();
        p.kernel.body.push(Stmt::For {
            init: Some(Box::new(Stmt::decl(
                "i",
                Type::Scalar(ScalarType::Int),
                Some(Expr::int(0)),
            ))),
            cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(197))),
            update: Some(Expr::assign_op(
                AssignOp::AddAssign,
                Expr::var("i"),
                Expr::int(1),
            )),
            body: Block::of(vec![Stmt::if_then(
                Expr::deref(Expr::var("p")),
                Block::of(vec![Stmt::While {
                    cond: Expr::int(1),
                    body: Block::new(),
                }]),
            )]),
        });
        let f = Features::detect(&p);
        assert!(f.has_infinite_loop);
        assert_eq!(f.max_for_bound_over_infinite_loop, 197);
        assert_eq!(f.loop_count, 2);
    }

    #[test]
    fn detects_struct_pointer_writes_in_callee() {
        let mut p = base_program();
        let sid = p.add_struct(StructDef::new(
            "S",
            vec![
                Field::new("x", Type::Scalar(ScalarType::Int)),
                Field::new("y", Type::Scalar(ScalarType::Int)),
            ],
        ));
        p.functions.push(crate::program::FunctionDef::new(
            "f",
            None,
            vec![Param::new(
                "p",
                Type::Struct(sid).pointer_to(AddressSpace::Private),
            )],
            Block::of(vec![Stmt::assign(
                Expr::arrow(Expr::var("p"), "x"),
                Expr::int(2),
            )]),
        ));
        let f = Features::detect(&p);
        assert!(f.struct_written_through_pointer_param);
        assert!(f.struct_read_through_pointer);
        assert_eq!(f.function_count, 1);
    }

    #[test]
    fn detects_whole_struct_assignment() {
        let mut p = base_program();
        let sid = p.add_struct(StructDef::new(
            "S",
            vec![Field::new("a", Type::Scalar(ScalarType::Int))],
        ));
        p.kernel.body.push(Stmt::decl("s", Type::Struct(sid), None));
        p.kernel.body.push(Stmt::decl("t", Type::Struct(sid), None));
        p.kernel
            .body
            .push(Stmt::assign(Expr::var("s"), Expr::var("t")));
        let f = Features::detect(&p);
        assert!(f.whole_struct_assignment);
    }

    #[test]
    fn detects_vector_logical_op() {
        let mut p = base_program();
        p.kernel.body.push(Stmt::decl(
            "v",
            Type::Vector(ScalarType::Int, VectorWidth::W4),
            None,
        ));
        p.kernel.body.push(Stmt::expr(Expr::binary(
            BinOp::LAnd,
            Expr::var("v"),
            Expr::int(1),
        )));
        let f = Features::detect(&p);
        assert!(f.vector_logical_op);
    }

    #[test]
    fn detects_union_in_struct_initializer() {
        let mut p = base_program();
        let uid = p.add_struct(StructDef::union(
            "U",
            vec![Field::new("a", Type::Scalar(ScalarType::UInt))],
        ));
        let tid = p.add_struct(StructDef::new(
            "T",
            vec![
                Field::new("u", Type::Struct(uid).array_of(1)),
                Field::new("x", Type::Scalar(ScalarType::ULong)),
            ],
        ));
        p.kernel.body.push(Stmt::decl_init_list(
            "t",
            Type::Struct(tid),
            Initializer::List(vec![
                Initializer::List(vec![Initializer::List(vec![Initializer::Expr(Expr::int(
                    1,
                ))])]),
                Initializer::Expr(Expr::int(0)),
            ]),
        ));
        let f = Features::detect(&p);
        assert!(f.union_in_initializer);
    }
}
