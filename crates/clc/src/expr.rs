//! Expressions of the OpenCL C subset.
//!
//! Expressions never contain barriers, so the interpreter evaluates them
//! atomically; statements (see [`crate::stmt`]) are the resumption points.

use crate::types::{ScalarType, Type, VectorWidth};
use crate::visit::PartMut;
use std::fmt;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    LNot,
    /// Bitwise not `~x`.
    BitNot,
}

impl UnOp {
    /// The OpenCL C spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::LNot => "!",
            UnOp::BitNot => "~",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl BinOp {
    /// All binary operators.
    pub const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::LAnd,
        BinOp::LOr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Gt,
        BinOp::Le,
        BinOp::Ge,
    ];

    /// The OpenCL C spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
        }
    }

    /// Whether the operator yields a boolean-ish `int` result (comparisons
    /// and logical connectives).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }

    /// Whether the operator is `&&` or `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LAnd | BinOp::LOr)
    }

    /// Whether the operator is a shift.
    pub fn is_shift(self) -> bool {
        matches!(self, BinOp::Shl | BinOp::Shr)
    }

    /// Whether the operator can exhibit undefined behaviour on signed
    /// operands (overflow, divide by zero, oversized shift) and therefore
    /// must be wrapped in a safe-math builtin by the generator.
    pub fn needs_safe_wrapper(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Sub
                | BinOp::Mul
                | BinOp::Div
                | BinOp::Mod
                | BinOp::Shl
                | BinOp::Shr
        )
    }
}

/// Compound assignment operators (`=`, `+=`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=` (wrapping)
    AddAssign,
    /// `-=` (wrapping)
    SubAssign,
    /// `*=` (wrapping)
    MulAssign,
    /// `&=`
    AndAssign,
    /// `|=`
    OrAssign,
    /// `^=`
    XorAssign,
}

impl AssignOp {
    /// The OpenCL C spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
            AssignOp::AndAssign => "&=",
            AssignOp::OrAssign => "|=",
            AssignOp::XorAssign => "^=",
        }
    }

    /// The underlying binary operator for a compound assignment.
    pub fn binop(self) -> Option<BinOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::AddAssign => Some(BinOp::Add),
            AssignOp::SubAssign => Some(BinOp::Sub),
            AssignOp::MulAssign => Some(BinOp::Mul),
            AssignOp::AndAssign => Some(BinOp::BitAnd),
            AssignOp::OrAssign => Some(BinOp::BitOr),
            AssignOp::XorAssign => Some(BinOp::BitXor),
        }
    }
}

/// A dimension of the 3D NDRange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// x / dimension 0
    X,
    /// y / dimension 1
    Y,
    /// z / dimension 2
    Z,
}

impl Dim {
    /// All dimensions.
    pub const ALL: [Dim; 3] = [Dim::X, Dim::Y, Dim::Z];

    /// The numeric index used by `get_global_id(n)` etc.
    pub fn index(self) -> usize {
        match self {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Z => 2,
        }
    }
}

/// Work-item identity queries (`get_global_id` and friends, plus the
/// linearised forms the paper defines in §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdKind {
    /// `get_global_id(dim)` — the paper's `t_i`.
    GlobalId(Dim),
    /// `get_local_id(dim)` — the paper's `l_i`.
    LocalId(Dim),
    /// `get_group_id(dim)` — the paper's `g_i`.
    GroupId(Dim),
    /// `get_global_size(dim)` — `N_i`.
    GlobalSize(Dim),
    /// `get_local_size(dim)` — `W_i`.
    LocalSize(Dim),
    /// `get_num_groups(dim)`.
    NumGroups(Dim),
    /// `t_linear = (t_z*N_y + t_y)*N_x + t_x`.
    GlobalLinearId,
    /// `l_linear`.
    LocalLinearId,
    /// `g_linear`.
    GroupLinearId,
    /// `W_linear = W_x*W_y*W_z`.
    LinearGroupSize,
    /// `N_linear = N_x*N_y*N_z`.
    LinearGlobalSize,
}

impl IdKind {
    /// Whether the query depends on the identity of the executing work-item
    /// (as opposed to launch-uniform sizes).  The generator must never place
    /// identity-dependent queries where they could cause divergent control
    /// flow around barriers (§4.2, "Avoiding barrier divergence").
    pub fn is_identity_dependent(self) -> bool {
        !matches!(
            self,
            IdKind::GlobalSize(_)
                | IdKind::LocalSize(_)
                | IdKind::NumGroups(_)
                | IdKind::LinearGroupSize
                | IdKind::LinearGlobalSize
        )
    }
}

/// Built-in functions: the CLsmith safe-math wrappers (§4.1), the OpenCL
/// vector built-ins discussed in §3.1, and the atomic operations of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `safe_add(a, b)` — wrapping addition.
    SafeAdd,
    /// `safe_sub(a, b)` — wrapping subtraction.
    SafeSub,
    /// `safe_mul(a, b)` — wrapping multiplication.
    SafeMul,
    /// `safe_div(a, b)` — division guarded against zero and overflow.
    SafeDiv,
    /// `safe_mod(a, b)` — remainder guarded against zero and overflow.
    SafeMod,
    /// `safe_lshift(a, b)` — shift guarded against oversized shift amounts.
    SafeLshift,
    /// `safe_rshift(a, b)`.
    SafeRshift,
    /// `safe_unary_minus(a)` — negation guarded against `INT_MIN`.
    SafeUnaryMinus,
    /// `clamp(x, lo, hi)` (raw OpenCL builtin; UB when `lo > hi`).
    Clamp,
    /// `safe_clamp(x, lo, hi)` = `(lo > hi ? x : clamp(x, lo, hi))` (§4.1).
    SafeClamp,
    /// `rotate(x, y)` — bitwise left-rotate, per-component on vectors.
    Rotate,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// `abs(a)` — returns the unsigned type.
    Abs,
    /// `atomic_inc(p)`.
    AtomicInc,
    /// `atomic_dec(p)`.
    AtomicDec,
    /// `atomic_add(p, v)`.
    AtomicAdd,
    /// `atomic_sub(p, v)`.
    AtomicSub,
    /// `atomic_min(p, v)`.
    AtomicMin,
    /// `atomic_max(p, v)`.
    AtomicMax,
    /// `atomic_and(p, v)`.
    AtomicAnd,
    /// `atomic_or(p, v)`.
    AtomicOr,
    /// `atomic_xor(p, v)`.
    AtomicXor,
    /// `atomic_xchg(p, v)`.
    AtomicXchg,
    /// `atomic_cmpxchg(p, cmp, v)`.
    AtomicCmpxchg,
}

impl Builtin {
    /// The name emitted in OpenCL C source.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::SafeAdd => "safe_add",
            Builtin::SafeSub => "safe_sub",
            Builtin::SafeMul => "safe_mul",
            Builtin::SafeDiv => "safe_div",
            Builtin::SafeMod => "safe_mod",
            Builtin::SafeLshift => "safe_lshift",
            Builtin::SafeRshift => "safe_rshift",
            Builtin::SafeUnaryMinus => "safe_unary_minus",
            Builtin::Clamp => "clamp",
            Builtin::SafeClamp => "safe_clamp",
            Builtin::Rotate => "rotate",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Abs => "abs",
            Builtin::AtomicInc => "atomic_inc",
            Builtin::AtomicDec => "atomic_dec",
            Builtin::AtomicAdd => "atomic_add",
            Builtin::AtomicSub => "atomic_sub",
            Builtin::AtomicMin => "atomic_min",
            Builtin::AtomicMax => "atomic_max",
            Builtin::AtomicAnd => "atomic_and",
            Builtin::AtomicOr => "atomic_or",
            Builtin::AtomicXor => "atomic_xor",
            Builtin::AtomicXchg => "atomic_xchg",
            Builtin::AtomicCmpxchg => "atomic_cmpxchg",
        }
    }

    /// Whether this is a read-modify-write atomic operation.
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            Builtin::AtomicInc
                | Builtin::AtomicDec
                | Builtin::AtomicAdd
                | Builtin::AtomicSub
                | Builtin::AtomicMin
                | Builtin::AtomicMax
                | Builtin::AtomicAnd
                | Builtin::AtomicOr
                | Builtin::AtomicXor
                | Builtin::AtomicXchg
                | Builtin::AtomicCmpxchg
        )
    }

    /// Expected argument count.
    pub fn arity(self) -> usize {
        match self {
            Builtin::SafeUnaryMinus | Builtin::Abs | Builtin::AtomicInc | Builtin::AtomicDec => 1,
            Builtin::Clamp | Builtin::SafeClamp | Builtin::AtomicCmpxchg => 3,
            _ => 2,
        }
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal of a given scalar type.
    IntLit {
        /// Value (interpreted according to `ty`).
        value: i128,
        /// Literal type.
        ty: ScalarType,
    },
    /// Vector literal `(int4)(a, b, c, d)`; element expressions may
    /// themselves be narrower vectors, as in `(int4)((int2)(1, 1), 1, 1)`.
    VectorLit {
        /// Element scalar type.
        elem: ScalarType,
        /// Vector width.
        width: VectorWidth,
        /// Component expressions (scalars or narrower vectors).
        parts: Vec<Expr>,
    },
    /// Variable reference.
    Var(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Assignment (also usable as an expression, as in C).
    Assign {
        /// Operator (`=`, `+=`, ...).
        op: AssignOp,
        /// Assignable target.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// Ternary conditional `c ? a : b`.
    Cond {
        /// Condition.
        cond: Box<Expr>,
        /// Value when the condition is non-zero.
        then_expr: Box<Expr>,
        /// Value when the condition is zero.
        else_expr: Box<Expr>,
    },
    /// Comma operator `a, b` (evaluates both, yields `b`).
    ///
    /// Included explicitly because mis-handling of the comma operator is one
    /// of the Oclgrind bugs the paper reports (Figure 2(f)).
    Comma {
        /// Discarded operand.
        lhs: Box<Expr>,
        /// Result operand.
        rhs: Box<Expr>,
    },
    /// Call to a user-defined function.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Call to a built-in function.
    BuiltinCall {
        /// Which builtin.
        func: Builtin,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Work-item identity / size query.
    IdQuery(IdKind),
    /// Array or pointer indexing `base[index]`.
    Index {
        /// Array or pointer expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Struct field access `base.field` or `base->field`.
    Field {
        /// Struct (or pointer-to-struct) expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// `true` for `->`, `false` for `.`.
        arrow: bool,
    },
    /// Pointer dereference `*p`.
    Deref(Box<Expr>),
    /// Address-of `&lv`.
    AddrOf(Box<Expr>),
    /// Cast `(ty)expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Vector component access / swizzle such as `.x`, `.s3`, `.xy`.
    Swizzle {
        /// Vector expression.
        base: Box<Expr>,
        /// Selected lane indices (1, 2, 4, 8 or 16 of them).
        lanes: Vec<u8>,
    },
}

impl Expr {
    /// An `int` literal.
    pub fn int(value: i64) -> Expr {
        Expr::IntLit {
            value: value as i128,
            ty: ScalarType::Int,
        }
    }

    /// A literal of a specific scalar type.
    pub fn lit(value: i128, ty: ScalarType) -> Expr {
        Expr::IntLit { value, ty }
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// A binary operation.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// A unary operation.
    pub fn unary(op: UnOp, expr: Expr) -> Expr {
        Expr::Unary {
            op,
            expr: Box::new(expr),
        }
    }

    /// A simple assignment `lhs = rhs`.
    pub fn assign(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Assign {
            op: AssignOp::Assign,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// A compound assignment.
    pub fn assign_op(op: AssignOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Assign {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Indexing `base[index]`.
    pub fn index(base: Expr, index: Expr) -> Expr {
        Expr::Index {
            base: Box::new(base),
            index: Box::new(index),
        }
    }

    /// Field access `base.field`.
    pub fn field(base: Expr, field: impl Into<String>) -> Expr {
        Expr::Field {
            base: Box::new(base),
            field: field.into(),
            arrow: false,
        }
    }

    /// Field access through a pointer, `base->field`.
    pub fn arrow(base: Expr, field: impl Into<String>) -> Expr {
        Expr::Field {
            base: Box::new(base),
            field: field.into(),
            arrow: true,
        }
    }

    /// Dereference `*p`.
    pub fn deref(expr: Expr) -> Expr {
        Expr::Deref(Box::new(expr))
    }

    /// Address-of `&lv`.
    pub fn addr_of(expr: Expr) -> Expr {
        Expr::AddrOf(Box::new(expr))
    }

    /// Cast to a type.
    pub fn cast(ty: Type, expr: Expr) -> Expr {
        Expr::Cast {
            ty,
            expr: Box::new(expr),
        }
    }

    /// Call to a user function.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// Call to a builtin.
    pub fn builtin(func: Builtin, args: Vec<Expr>) -> Expr {
        Expr::BuiltinCall { func, args }
    }

    /// Ternary conditional.
    pub fn cond(cond: Expr, then_expr: Expr, else_expr: Expr) -> Expr {
        Expr::Cond {
            cond: Box::new(cond),
            then_expr: Box::new(then_expr),
            else_expr: Box::new(else_expr),
        }
    }

    /// Comma expression.
    pub fn comma(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Comma {
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Swizzle with a single lane (`.x`, `.y`, ...).
    pub fn lane(base: Expr, lane: u8) -> Expr {
        Expr::Swizzle {
            base: Box::new(base),
            lanes: vec![lane],
        }
    }

    /// Whether this expression is a syntactically valid assignment target.
    /// A swizzle is one only when it names each lane at most once, as in
    /// OpenCL C (`v.s22` is not).
    pub fn is_lvalue(&self) -> bool {
        match self {
            Expr::Var(_) | Expr::Deref(_) => true,
            Expr::Index { base, .. } => base.is_lvalue() || base.is_pointer_like(),
            Expr::Field { base, arrow, .. } => *arrow || base.is_lvalue(),
            Expr::Swizzle { base, lanes } => {
                let repeats = lanes
                    .iter()
                    .enumerate()
                    .any(|(i, l)| lanes[..i].contains(l));
                base.is_lvalue() && !repeats
            }
            _ => false,
        }
    }

    fn is_pointer_like(&self) -> bool {
        matches!(
            self,
            Expr::Var(_) | Expr::Field { .. } | Expr::Index { .. } | Expr::Deref(_)
        )
    }

    /// Number of AST nodes in the expression (used for size accounting and
    /// by the EMI pruning and reduction machinery).
    pub fn node_count(&self) -> usize {
        let mut count = 0usize;
        self.for_each(&mut |_| count += 1);
        count
    }

    /// Calls `f` on this node and every sub-expression, pre-order.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_part(|part| {
            if let Some(e) = part.expr() {
                e.for_each(f);
            }
        });
    }

    /// Calls `f` on every sub-expression, mutably, post-order (children
    /// before parents so rewrites compose bottom-up).
    pub fn for_each_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        self.for_each_part_mut(|part| {
            if let PartMut::Cond(e) | PartMut::Operand(e) = part {
                e.for_each_mut(f);
            }
        });
        f(self);
    }

    /// Whether the expression (recursively) contains a call or an atomic /
    /// assignment side effect.
    pub fn has_side_effects(&self) -> bool {
        let mut found = false;
        self.for_each(&mut |e| match e {
            Expr::Assign { .. } | Expr::Call { .. } => found = true,
            Expr::BuiltinCall { func, .. } if func.is_atomic() => found = true,
            _ => {}
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LAnd.is_logical());
        assert!(BinOp::Shl.is_shift());
        assert!(BinOp::Div.needs_safe_wrapper());
        assert!(!BinOp::BitAnd.needs_safe_wrapper());
        assert_eq!(BinOp::Le.symbol(), "<=");
    }

    #[test]
    fn assign_op_mapping() {
        assert_eq!(AssignOp::Assign.binop(), None);
        assert_eq!(AssignOp::AddAssign.binop(), Some(BinOp::Add));
        assert_eq!(AssignOp::XorAssign.symbol(), "^=");
    }

    #[test]
    fn builtin_metadata() {
        assert_eq!(Builtin::SafeAdd.arity(), 2);
        assert_eq!(Builtin::SafeClamp.arity(), 3);
        assert_eq!(Builtin::AtomicInc.arity(), 1);
        assert!(Builtin::AtomicCmpxchg.is_atomic());
        assert!(!Builtin::Rotate.is_atomic());
        assert_eq!(Builtin::SafeClamp.name(), "safe_clamp");
    }

    #[test]
    fn id_kind_identity_dependence() {
        assert!(IdKind::GlobalId(Dim::X).is_identity_dependent());
        assert!(IdKind::GlobalLinearId.is_identity_dependent());
        assert!(!IdKind::LocalSize(Dim::Z).is_identity_dependent());
        assert!(!IdKind::LinearGroupSize.is_identity_dependent());
    }

    #[test]
    fn lvalue_detection() {
        assert!(Expr::var("x").is_lvalue());
        assert!(Expr::deref(Expr::var("p")).is_lvalue());
        assert!(Expr::index(Expr::var("a"), Expr::int(0)).is_lvalue());
        assert!(Expr::arrow(Expr::var("p"), "f").is_lvalue());
        assert!(!Expr::int(3).is_lvalue());
        assert!(!Expr::binary(BinOp::Add, Expr::var("x"), Expr::int(1)).is_lvalue());
    }

    #[test]
    fn node_count_and_walk() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::var("x"),
            Expr::builtin(Builtin::SafeMul, vec![Expr::int(2), Expr::var("y")]),
        );
        assert_eq!(e.node_count(), 5);
        let mut vars = Vec::new();
        e.for_each(&mut |n| {
            if let Expr::Var(name) = n {
                vars.push(name.clone());
            }
        });
        assert_eq!(vars, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn mutation_walk_rewrites_leaves() {
        let mut e = Expr::binary(BinOp::Add, Expr::int(1), Expr::int(2));
        e.for_each_mut(&mut |n| {
            if let Expr::IntLit { value, .. } = n {
                *value += 10;
            }
        });
        match e {
            Expr::Binary { lhs, rhs, .. } => {
                assert_eq!(*lhs, Expr::lit(11, ScalarType::Int));
                assert_eq!(*rhs, Expr::lit(12, ScalarType::Int));
            }
            _ => panic!("shape changed"),
        }
    }

    #[test]
    fn identity_and_side_effect_queries() {
        let f = Expr::binary(
            BinOp::Add,
            Expr::IdQuery(IdKind::LocalSize(Dim::X)),
            Expr::int(1),
        );
        let g = Expr::comma(Expr::assign(Expr::var("x"), Expr::int(1)), Expr::var("x"));
        assert!(g.has_side_effects());
        assert!(!f.has_side_effects());
    }
}
