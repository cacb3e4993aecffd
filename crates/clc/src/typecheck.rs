//! A lightweight type checker for the OpenCL C subset.
//!
//! The generator is type-directed and should only produce well-typed
//! programs; the checker provides an independent validation used by the
//! generator's property tests, by the EMI pruner (pruning must not produce
//! ill-typed code) and by the reducer.  It implements the typing rules the
//! paper relies on, most importantly the rule that vector types do **not**
//! implicitly convert to one another (§4.1: "it is not possible to cast an
//! `int4` to a `short4` or even a `uint4`"), while scalar integer types
//! convert freely as in C99.

use crate::expr::{BinOp, Builtin, Expr, IdKind, UnOp};
use crate::program::{FunctionDef, Program};
use crate::stmt::{Block, Initializer, Stmt};
use crate::types::{AddressSpace, ScalarType, Type, VectorWidth};
use std::collections::HashMap;
use std::fmt;

/// A type error found by [`check_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Human-readable description of the problem.
    pub message: String,
    /// The function (or kernel) in which the error occurred.
    pub in_function: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error in `{}`: {}", self.in_function, self.message)
    }
}

impl std::error::Error for TypeError {}

/// Checks a whole program.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn check_program(program: &Program) -> Result<(), TypeError> {
    let mut checker = Checker::new(program);
    for f in &program.functions {
        checker.check_function(f)?;
    }
    checker.check_kernel()?;
    Ok(())
}

struct Checker<'p> {
    program: &'p Program,
    /// Current variable scope (flat map; the generator never reuses names
    /// across scopes within a function, and shadowing resolves to the most
    /// recent declaration which matches C semantics closely enough).
    vars: HashMap<String, Type>,
    current: String,
    functions: HashMap<String, (Option<Type>, Vec<Type>)>,
}

impl<'p> Checker<'p> {
    fn new(program: &'p Program) -> Checker<'p> {
        let functions = program
            .functions
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    (
                        f.ret.clone(),
                        f.params.iter().map(|p| p.ty.clone()).collect(),
                    ),
                )
            })
            .collect();
        Checker {
            program,
            vars: HashMap::new(),
            current: String::new(),
            functions,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, TypeError> {
        Err(TypeError {
            message: message.into(),
            in_function: self.current.clone(),
        })
    }

    fn enter_function(&mut self, name: &str, params: &[crate::program::Param]) {
        self.current = name.to_string();
        self.vars.clear();
        // The BARRIER-mode permutation table is a program-scope constant
        // array visible everywhere (the printer emits it at file scope).
        if !self.program.permutations.is_empty() {
            let rows = self.program.permutations.len();
            let cols = self.program.permutations[0].len();
            self.vars.insert(
                "permutations".to_string(),
                Type::Scalar(ScalarType::UInt).array_of(cols).array_of(rows),
            );
        }
        for p in params {
            self.vars.insert(p.name.clone(), p.ty.clone());
        }
    }

    fn check_function(&mut self, f: &FunctionDef) -> Result<(), TypeError> {
        self.enter_function(&f.name, &f.params);
        self.check_block(&f.body, f.ret.as_ref())
    }

    fn check_kernel(&mut self) -> Result<(), TypeError> {
        let kernel = &self.program.kernel;
        self.enter_function(&kernel.name, &kernel.params);
        self.check_block(&kernel.body, None)
    }

    fn check_block(&mut self, block: &Block, ret: Option<&Type>) -> Result<(), TypeError> {
        for stmt in block.iter() {
            self.check_stmt(stmt, ret)?;
        }
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt, ret: Option<&Type>) -> Result<(), TypeError> {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                init_list,
                space,
                ..
            } => {
                if *space == AddressSpace::Constant {
                    return self.err(format!("local declaration `{name}` cannot be constant"));
                }
                if let Some(e) = init {
                    let ity = self.type_of(e)?;
                    self.check_assignable(ty, &ity, &format!("initialiser of `{name}`"))?;
                }
                if let Some(list) = init_list {
                    self.check_initializer(ty, list)?;
                }
                self.vars.insert(name.clone(), ty.clone());
                Ok(())
            }
            Stmt::Expr(e) => {
                self.type_of(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.check_condition(cond)?;
                self.check_block(then_block, ret)?;
                if let Some(b) = else_block {
                    self.check_block(b, ret)?;
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.check_stmt(init, ret)?;
                }
                if let Some(c) = cond {
                    self.check_condition(c)?;
                }
                if let Some(u) = update {
                    self.type_of(u)?;
                }
                self.check_block(body, ret)
            }
            Stmt::While { cond, body } => {
                self.check_condition(cond)?;
                self.check_block(body, ret)
            }
            Stmt::Block(b) => self.check_block(b, ret),
            Stmt::Return(None) => {
                if ret.is_some() {
                    self.err("non-void function returns without a value")
                } else {
                    Ok(())
                }
            }
            Stmt::Return(Some(e)) => {
                let ety = self.type_of(e)?;
                match ret {
                    Some(rty) => self.check_assignable(rty, &ety, "return value"),
                    None => self.err("void function returns a value"),
                }
            }
            Stmt::Break | Stmt::Continue | Stmt::Barrier(_) => Ok(()),
            Stmt::Emi(emi) => {
                if !self.program.has_dead_array() {
                    return self.err("EMI block present but the kernel has no dead array");
                }
                if emi.guard.0 >= self.program.dead_len || emi.guard.1 >= self.program.dead_len {
                    return self.err(format!(
                        "EMI guard indices {:?} out of range for dead array of length {}",
                        emi.guard, self.program.dead_len
                    ));
                }
                self.check_block(&emi.body, ret)
            }
        }
    }

    fn check_condition(&mut self, cond: &Expr) -> Result<(), TypeError> {
        let ty = self.type_of(cond)?;
        match ty {
            Type::Scalar(_) | Type::Pointer(..) => Ok(()),
            other => self.err(format!(
                "condition must be scalar or pointer, found {}",
                other.render(&self.program.structs)
            )),
        }
    }

    fn check_initializer(&mut self, ty: &Type, init: &Initializer) -> Result<(), TypeError> {
        match (ty, init) {
            (_, Initializer::Expr(e)) => {
                let ety = self.type_of(e)?;
                self.check_assignable(ty, &ety, "brace initialiser element")
            }
            (Type::Array(elem, len), Initializer::List(items)) => {
                if items.len() > *len {
                    return self.err(format!("too many initialisers for array of length {len}"));
                }
                for item in items {
                    self.check_initializer(elem, item)?;
                }
                Ok(())
            }
            (Type::Struct(id), Initializer::List(items)) => {
                let def = self.program.struct_def(*id);
                let max = if def.is_union { 1 } else { def.fields.len() };
                if items.len() > max {
                    return self.err(format!(
                        "too many initialisers for {} `{}`",
                        if def.is_union { "union" } else { "struct" },
                        def.name
                    ));
                }
                for (field, item) in def.fields.iter().zip(items) {
                    self.check_initializer(&field.ty, item)?;
                }
                Ok(())
            }
            (Type::Vector(elem, width), Initializer::List(items)) => {
                if items.len() > width.lanes() {
                    return self.err("too many initialisers for vector");
                }
                for item in items {
                    self.check_initializer(&Type::Scalar(*elem), item)?;
                }
                Ok(())
            }
            (other, Initializer::List(_)) => self.err(format!(
                "brace initialiser applied to non-aggregate type {}",
                other.render(&self.program.structs)
            )),
        }
    }

    /// Scalar types convert implicitly; everything else must match exactly,
    /// except that any scalar may initialise a vector (broadcast) and
    /// pointers must agree on pointee and address space.
    fn check_assignable(&self, target: &Type, source: &Type, what: &str) -> Result<(), TypeError> {
        let ok = match (target, source) {
            (Type::Scalar(_), Type::Scalar(_)) => true,
            (Type::Vector(te, tw), Type::Vector(se, sw)) => te == se && tw == sw,
            (Type::Vector(..), Type::Scalar(_)) => true,
            (Type::Struct(a), Type::Struct(b)) => a == b,
            (Type::Pointer(a, _), Type::Pointer(b, _)) => a == b,
            // The null-pointer constant (integer literal 0); the emulator
            // rejects any other integer-to-pointer store at run time.
            (Type::Pointer(..), Type::Scalar(_)) => true,
            (Type::Array(a, n), Type::Array(b, m)) => a == b && n == m,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            self.err(format!(
                "{what}: cannot assign {} to {}",
                source.render(&self.program.structs),
                target.render(&self.program.structs)
            ))
        }
    }

    fn type_of(&mut self, e: &Expr) -> Result<Type, TypeError> {
        match e {
            Expr::IntLit { ty, .. } => Ok(Type::Scalar(*ty)),
            Expr::VectorLit { elem, width, parts } => {
                let mut lanes = 0usize;
                for p in parts {
                    match self.type_of(p)? {
                        Type::Scalar(_) => lanes += 1,
                        Type::Vector(pe, pw) => {
                            if pe != *elem {
                                return self
                                    .err("vector literal component has mismatched element type");
                            }
                            lanes += pw.lanes();
                        }
                        other => {
                            return self.err(format!(
                                "vector literal component has non-numeric type {}",
                                other.render(&self.program.structs)
                            ))
                        }
                    }
                }
                if lanes != width.lanes() && lanes != 1 {
                    return self.err(format!(
                        "vector literal provides {lanes} lanes for a {}-lane vector",
                        width.lanes()
                    ));
                }
                Ok(Type::Vector(*elem, *width))
            }
            Expr::Var(name) => match self.vars.get(name) {
                Some(ty) => Ok(ty.clone()),
                None => self.err(format!("use of undeclared variable `{name}`")),
            },
            Expr::Unary { op, expr } => {
                let ty = self.type_of(expr)?;
                match (op, &ty) {
                    (UnOp::LNot, Type::Scalar(_)) => Ok(Type::Scalar(ScalarType::Int)),
                    (_, Type::Scalar(s)) => Ok(Type::Scalar(s.promoted())),
                    (_, Type::Vector(..)) => Ok(ty),
                    _ => self.err(format!(
                        "unary `{}` applied to non-numeric type {}",
                        op.symbol(),
                        ty.render(&self.program.structs)
                    )),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lt = self.type_of(lhs)?;
                let rt = self.type_of(rhs)?;
                self.binary_result(*op, &lt, &rt)
            }
            Expr::Assign { op, lhs, rhs } => {
                if !lhs.is_lvalue() {
                    return self.err("assignment target is not an lvalue");
                }
                let lt = self.type_of(lhs)?;
                let rt = self.type_of(rhs)?;
                if op.binop().is_some() {
                    // Compound assignment requires numeric operands.
                    if !(lt.is_scalar() || lt.is_vector()) {
                        return self.err("compound assignment to non-numeric lvalue");
                    }
                }
                self.check_assignable(&lt, &rt, "assignment")?;
                Ok(lt)
            }
            Expr::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                let ct = self.type_of(cond)?;
                if !(ct.is_scalar() || ct.is_pointer()) {
                    return self.err("conditional guard must be scalar");
                }
                let tt = self.type_of(then_expr)?;
                let et = self.type_of(else_expr)?;
                match (&tt, &et) {
                    (Type::Scalar(a), Type::Scalar(b)) => {
                        Ok(Type::Scalar(a.usual_arithmetic_conversion(*b)))
                    }
                    _ if tt == et => Ok(tt),
                    _ => self.err("conditional branches have incompatible types"),
                }
            }
            Expr::Comma { lhs, rhs } => {
                self.type_of(lhs)?;
                self.type_of(rhs)
            }
            Expr::Call { name, args } => {
                let (ret, param_tys) = match self.functions.get(name) {
                    Some(sig) => sig.clone(),
                    None => return self.err(format!("call to undefined function `{name}`")),
                };
                if args.len() != param_tys.len() {
                    return self.err(format!(
                        "call to `{name}` has {} arguments, expected {}",
                        args.len(),
                        param_tys.len()
                    ));
                }
                for (arg, pty) in args.iter().zip(&param_tys) {
                    let aty = self.type_of(arg)?;
                    self.check_assignable(pty, &aty, &format!("argument of `{name}`"))?;
                }
                Ok(ret.unwrap_or(Type::Scalar(ScalarType::Int)))
            }
            Expr::BuiltinCall { func, args } => self.builtin_result(*func, args),
            Expr::IdQuery(kind) => Ok(Type::Scalar(id_query_type(*kind))),
            Expr::Index { base, index } => {
                let bt = self.type_of(base)?;
                let it = self.type_of(index)?;
                if !it.is_scalar() {
                    return self.err("array index must be scalar");
                }
                match bt {
                    Type::Array(elem, _) => Ok(*elem),
                    Type::Pointer(elem, _) => Ok(*elem),
                    other => self.err(format!(
                        "indexing non-array type {}",
                        other.render(&self.program.structs)
                    )),
                }
            }
            Expr::Field { base, field, arrow } => {
                let bt = self.type_of(base)?;
                let sid = match (&bt, arrow) {
                    (Type::Struct(id), false) => *id,
                    (Type::Pointer(inner, _), true) => match inner.as_ref() {
                        Type::Struct(id) => *id,
                        _ => return self.err("`->` applied to pointer to non-struct"),
                    },
                    _ => {
                        return self.err(format!(
                            "field access on {} with {}",
                            bt.render(&self.program.structs),
                            if *arrow { "->" } else { "." }
                        ))
                    }
                };
                match self.program.struct_def(sid).field(field) {
                    Some(f) => Ok(f.ty.clone()),
                    None => self.err(format!(
                        "no field `{field}` in `{}`",
                        self.program.struct_def(sid).name
                    )),
                }
            }
            Expr::Deref(p) => {
                let pt = self.type_of(p)?;
                match pt {
                    Type::Pointer(inner, _) => Ok(*inner),
                    other => self.err(format!(
                        "dereference of non-pointer type {}",
                        other.render(&self.program.structs)
                    )),
                }
            }
            Expr::AddrOf(lv) => {
                if !lv.is_lvalue() {
                    return self.err("address-of applied to non-lvalue");
                }
                let lt = self.type_of(lv)?;
                Ok(lt.pointer_to(AddressSpace::Private))
            }
            Expr::Cast { ty, expr } => {
                let et = self.type_of(expr)?;
                match (ty, &et) {
                    // Scalar <-> scalar casts always allowed.
                    (Type::Scalar(_), Type::Scalar(_)) => Ok(ty.clone()),
                    // Vector casts only between identical layouts (OpenCL
                    // forbids implicit and reinterpreting casts; the
                    // generator only emits same-type casts which are no-ops).
                    (Type::Vector(te, tw), Type::Vector(se, sw)) if te == se && tw == sw => {
                        Ok(ty.clone())
                    }
                    // Scalar -> vector broadcast cast.
                    (Type::Vector(..), Type::Scalar(_)) => Ok(ty.clone()),
                    (Type::Pointer(..), Type::Pointer(..)) => Ok(ty.clone()),
                    _ => self.err(format!(
                        "illegal cast from {} to {}",
                        et.render(&self.program.structs),
                        ty.render(&self.program.structs)
                    )),
                }
            }
            Expr::Swizzle { base, lanes } => {
                let bt = self.type_of(base)?;
                match bt {
                    Type::Vector(elem, width) => {
                        if lanes.iter().any(|&l| l as usize >= width.lanes()) {
                            return self.err("swizzle lane out of range");
                        }
                        match lanes.len() {
                            1 => Ok(Type::Scalar(elem)),
                            n => match VectorWidth::from_lanes(n) {
                                Some(w) => Ok(Type::Vector(elem, w)),
                                None => self.err("swizzle produces unsupported vector width"),
                            },
                        }
                    }
                    other => self.err(format!(
                        "swizzle applied to non-vector type {}",
                        other.render(&self.program.structs)
                    )),
                }
            }
        }
    }

    fn binary_result(&self, op: BinOp, lt: &Type, rt: &Type) -> Result<Type, TypeError> {
        if op.is_comparison() || op.is_logical() {
            return match (lt, rt) {
                (Type::Scalar(_), Type::Scalar(_)) => Ok(Type::Scalar(ScalarType::Int)),
                (Type::Vector(e, w), Type::Vector(e2, w2)) if e == e2 && w == w2 => {
                    Ok(Type::Vector(e.to_signed(), *w))
                }
                (Type::Vector(e, w), Type::Scalar(_)) | (Type::Scalar(_), Type::Vector(e, w)) => {
                    Ok(Type::Vector(e.to_signed(), *w))
                }
                (Type::Pointer(..), Type::Pointer(..)) => Ok(Type::Scalar(ScalarType::Int)),
                _ => self.err(format!(
                    "comparison between {} and {}",
                    lt.render(&self.program.structs),
                    rt.render(&self.program.structs)
                )),
            };
        }
        match (lt, rt) {
            (Type::Scalar(a), Type::Scalar(b)) => {
                Ok(Type::Scalar(a.usual_arithmetic_conversion(*b)))
            }
            (Type::Vector(e, w), Type::Vector(e2, w2)) => {
                if e == e2 && w == w2 {
                    Ok(Type::Vector(*e, *w))
                } else {
                    self.err("vector operands of different types (no implicit vector conversion)")
                }
            }
            (Type::Vector(e, w), Type::Scalar(_)) | (Type::Scalar(_), Type::Vector(e, w)) => {
                Ok(Type::Vector(*e, *w))
            }
            // Pointer arithmetic: pointer +/- integer.
            (Type::Pointer(..), Type::Scalar(_)) if matches!(op, BinOp::Add | BinOp::Sub) => {
                Ok(lt.clone())
            }
            _ => self.err(format!(
                "operator `{}` applied to {} and {}",
                op.symbol(),
                lt.render(&self.program.structs),
                rt.render(&self.program.structs)
            )),
        }
    }

    fn builtin_result(&mut self, func: Builtin, args: &[Expr]) -> Result<Type, TypeError> {
        if args.len() != func.arity() {
            return self.err(format!(
                "builtin `{}` called with {} arguments, expected {}",
                func.name(),
                args.len(),
                func.arity()
            ));
        }
        let tys: Vec<Type> = args
            .iter()
            .map(|a| self.type_of(a))
            .collect::<Result<_, _>>()?;
        if func.is_atomic() {
            // First argument must be a pointer to a 32-bit integer in shared
            // memory; result is the old value.
            match &tys[0] {
                Type::Pointer(inner, space) => {
                    let ok_elem = matches!(
                        inner.as_ref(),
                        Type::Scalar(ScalarType::Int) | Type::Scalar(ScalarType::UInt)
                    );
                    if !ok_elem {
                        return self.err("atomic operates on non-32-bit integer location");
                    }
                    if !space.is_shared() && *space != AddressSpace::Private {
                        return self.err("atomic operates on constant memory");
                    }
                    Ok((**inner).clone())
                }
                _ => self.err(format!("atomic `{}` needs a pointer argument", func.name())),
            }
        } else {
            match func {
                Builtin::Abs => match &tys[0] {
                    Type::Scalar(s) => Ok(Type::Scalar(s.to_unsigned())),
                    Type::Vector(s, w) => Ok(Type::Vector(s.to_unsigned(), *w)),
                    _ => self.err("abs of non-numeric value"),
                },
                _ => {
                    // Safe-math, clamp, rotate, min, max: result type follows
                    // the first argument; all arguments must be numeric and,
                    // for vectors, of identical type.
                    let first = &tys[0];
                    if !(first.is_scalar() || first.is_vector()) {
                        return self.err(format!("builtin `{}` on non-numeric value", func.name()));
                    }
                    for t in &tys[1..] {
                        match (first, t) {
                            (Type::Vector(e, w), Type::Vector(e2, w2)) => {
                                if e != e2 || w != w2 {
                                    return self.err("builtin vector arguments differ in type");
                                }
                            }
                            (_, Type::Scalar(_)) | (Type::Scalar(_), _) => {}
                            _ => return self.err("builtin argument is not numeric"),
                        }
                    }
                    Ok(first.clone())
                }
            }
        }
    }
}

fn id_query_type(kind: IdKind) -> ScalarType {
    // All id and size queries return size_t in OpenCL C; we model size_t as
    // ulong (64-bit unsigned).
    let _ = kind;
    ScalarType::ULong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{KernelDef, LaunchConfig, Param};
    use crate::types::{Field, StructDef};

    fn program_with_body(body: Block) -> Program {
        Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body,
            },
            LaunchConfig::single_group(4),
        )
    }

    #[test]
    fn accepts_simple_kernel() {
        let body = Block::of(vec![
            Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(1))),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                Expr::var("x"),
            ),
        ]);
        assert!(check_program(&program_with_body(body)).is_ok());
    }

    #[test]
    fn rejects_undeclared_variable() {
        let body = Block::of(vec![Stmt::assign(Expr::var("nope"), Expr::int(1))]);
        let err = check_program(&program_with_body(body)).unwrap_err();
        assert!(err.message.contains("undeclared"));
        assert_eq!(err.in_function, "k");
    }

    #[test]
    fn rejects_vector_type_mismatch() {
        let body = Block::of(vec![
            Stmt::decl("a", Type::Vector(ScalarType::Int, VectorWidth::W4), None),
            Stmt::decl("b", Type::Vector(ScalarType::Short, VectorWidth::W4), None),
            Stmt::expr(Expr::binary(BinOp::Add, Expr::var("a"), Expr::var("b"))),
        ]);
        let err = check_program(&program_with_body(body)).unwrap_err();
        assert!(err.message.contains("vector"));
    }

    #[test]
    fn scalar_conversions_are_implicit() {
        let body = Block::of(vec![
            Stmt::decl("c", Type::Scalar(ScalarType::Char), Some(Expr::int(3))),
            Stmt::decl("l", Type::Scalar(ScalarType::ULong), Some(Expr::var("c"))),
            Stmt::expr(Expr::binary(BinOp::Mul, Expr::var("c"), Expr::var("l"))),
        ]);
        assert!(check_program(&program_with_body(body)).is_ok());
    }

    #[test]
    fn checks_struct_fields() {
        let mut p = program_with_body(Block::new());
        let sid = p.add_struct(StructDef::new(
            "S",
            vec![Field::new("a", Type::Scalar(ScalarType::Int))],
        ));
        p.kernel.body.push(Stmt::decl("s", Type::Struct(sid), None));
        p.kernel
            .body
            .push(Stmt::assign(Expr::field(Expr::var("s"), "a"), Expr::int(1)));
        assert!(check_program(&p).is_ok());
        p.kernel.body.push(Stmt::assign(
            Expr::field(Expr::var("s"), "zz"),
            Expr::int(1),
        ));
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn checks_calls() {
        let mut p = program_with_body(Block::new());
        p.functions.push(FunctionDef::new(
            "f",
            Some(Type::Scalar(ScalarType::Int)),
            vec![Param::new("x", Type::Scalar(ScalarType::Int))],
            Block::of(vec![Stmt::Return(Some(Expr::var("x")))]),
        ));
        p.kernel
            .body
            .push(Stmt::expr(Expr::call("f", vec![Expr::int(1)])));
        assert!(check_program(&p).is_ok());
        p.kernel.body.push(Stmt::expr(Expr::call(
            "f",
            vec![Expr::int(1), Expr::int(2)],
        )));
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn rejects_bad_emi_guard() {
        let mut p = program_with_body(Block::new());
        p.dead_len = 4;
        p.kernel.params = Program::standard_clsmith_params(4);
        p.kernel.body.push(Stmt::Emi(crate::stmt::EmiBlock {
            index: 0,
            guard: (9, 1),
            body: Block::new(),
        }));
        let err = check_program(&p).unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn checks_swizzles_and_vector_literals() {
        let body = Block::of(vec![
            Stmt::decl(
                "v",
                Type::Vector(ScalarType::UInt, VectorWidth::W2),
                Some(Expr::VectorLit {
                    elem: ScalarType::UInt,
                    width: VectorWidth::W2,
                    parts: vec![
                        Expr::lit(1, ScalarType::UInt),
                        Expr::lit(1, ScalarType::UInt),
                    ],
                }),
            ),
            Stmt::decl(
                "s",
                Type::Scalar(ScalarType::UInt),
                Some(Expr::lane(Expr::var("v"), 0)),
            ),
        ]);
        assert!(check_program(&program_with_body(body)).is_ok());
        let bad = Block::of(vec![
            Stmt::decl(
                "v",
                Type::Vector(ScalarType::UInt, VectorWidth::W2),
                Some(Expr::lit(0, ScalarType::UInt)),
            ),
            Stmt::decl(
                "s",
                Type::Scalar(ScalarType::UInt),
                Some(Expr::lane(Expr::var("v"), 5)),
            ),
        ]);
        assert!(check_program(&program_with_body(bad)).is_err());
    }

    #[test]
    fn rejects_swizzle_targets_that_name_a_lane_twice() {
        let assign = |lanes: Vec<u8>| {
            let target = Expr::Swizzle {
                base: Box::new(Expr::var("v")),
                lanes,
            };
            let literal = |width: VectorWidth| Expr::VectorLit {
                elem: ScalarType::UInt,
                width,
                parts: vec![Expr::lit(1, ScalarType::UInt); width.lanes()],
            };
            let body = Block::of(vec![
                Stmt::decl(
                    "v",
                    Type::Vector(ScalarType::UInt, VectorWidth::W4),
                    Some(literal(VectorWidth::W4)),
                ),
                Stmt::assign(target, literal(VectorWidth::W2)),
            ]);
            check_program(&program_with_body(body))
        };
        assert!(assign(vec![2, 3]).is_ok());
        let err = assign(vec![2, 2]).unwrap_err();
        assert!(err.message.contains("not an lvalue"), "{err}");
    }

    #[test]
    fn atomic_requires_pointer_to_int() {
        let mut p = program_with_body(Block::new());
        p.kernel.params.push(Param::new(
            "c",
            Type::Scalar(ScalarType::UInt).pointer_to(AddressSpace::Global),
        ));
        p.kernel.body.push(Stmt::expr(Expr::builtin(
            Builtin::AtomicInc,
            vec![Expr::var("c")],
        )));
        assert!(check_program(&p).is_ok());
        p.kernel.body.push(Stmt::expr(Expr::builtin(
            Builtin::AtomicInc,
            vec![Expr::int(3)],
        )));
        assert!(check_program(&p).is_err());
    }
}
