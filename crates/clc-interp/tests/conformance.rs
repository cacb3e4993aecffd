//! Conformance of the emulator's integer semantics to OpenCL C, table by
//! table.
//!
//! Every expected value here comes from Rust's own fixed-width integer
//! operations (`i8` … `u64`, `as` conversions, `wrapping_*`, `rotate_left`,
//! `unsigned_abs`), never from the emulator's helpers (`scalar_binop`,
//! `vector_lane_binop`, `scalar_builtin`, `lift_builtin`).  Both tiers share
//! those helpers, and so does the simulated optimiser's constant folder,
//! so a bug in them is invisible to the tier differential: this suite is
//! the check that does not share the emulator's code.
//!
//! Each table becomes one single-work-item kernel per operator and type
//! that writes every case to its own `out` slot, converted to `ulong` the
//! way C converts (sign-extending signed results), and each kernel runs on
//! both tiers.  A case appears in several forms so that the bytecode tier's
//! fused instructions meet it too: a register operand against a literal
//! (`RegBinopImm`), an array element against a literal (`BinaryImm`), a
//! compound assignment of a literal to a register (`StoreRegImm`), and two
//! register operands (`Binary`).
//!
//! Swizzles are checked the same way against plain Rust arrays: one-lane
//! and multi-lane selections read from vectors, and written into them by a
//! store, a compound assignment and a scalar broadcast.

use clc::expr::{AssignOp, BinOp, Builtin, Expr, UnOp};
use clc::types::{Type, VectorWidth};
use clc::{BufferSpec, KernelDef, LaunchConfig, Program, ScalarType, Stmt};
use clc_interp::{launch, ExecutionTier, LaunchOptions, RuntimeError};

// --- The native model --------------------------------------------------------

/// A value of one OpenCL scalar type, held in the Rust integer type of the
/// same width and signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum N {
    Char(i8),
    UChar(u8),
    Short(i16),
    UShort(u16),
    Int(i32),
    UInt(u32),
    Long(i64),
    ULong(u64),
}

/// `$body` with `$x` bound to the native value, rewrapped in the same
/// variant.
macro_rules! map {
    ($n:expr, |$x:ident| $body:expr) => {
        match $n {
            N::Char($x) => N::Char($body),
            N::UChar($x) => N::UChar($body),
            N::Short($x) => N::Short($body),
            N::UShort($x) => N::UShort($body),
            N::Int($x) => N::Int($body),
            N::UInt($x) => N::UInt($body),
            N::Long($x) => N::Long($body),
            N::ULong($x) => N::ULong($body),
        }
    };
}

/// `$body` over two values of the same variant, rewrapped in it.
macro_rules! zip {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $body:expr) => {
        match ($a, $b) {
            (N::Char($x), N::Char($y)) => N::Char($body),
            (N::UChar($x), N::UChar($y)) => N::UChar($body),
            (N::Short($x), N::Short($y)) => N::Short($body),
            (N::UShort($x), N::UShort($y)) => N::UShort($body),
            (N::Int($x), N::Int($y)) => N::Int($body),
            (N::UInt($x), N::UInt($y)) => N::UInt($body),
            (N::Long($x), N::Long($y)) => N::Long($body),
            (N::ULong($x), N::ULong($y)) => N::ULong($body),
            (a, b) => unreachable!("operands of different types: {a:?}, {b:?}"),
        }
    };
}

/// `$body` over two values of the same variant, returning its result as it
/// is.
macro_rules! with2 {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $body:expr) => {
        match ($a, $b) {
            (N::Char($x), N::Char($y)) => $body,
            (N::UChar($x), N::UChar($y)) => $body,
            (N::Short($x), N::Short($y)) => $body,
            (N::UShort($x), N::UShort($y)) => $body,
            (N::Int($x), N::Int($y)) => $body,
            (N::UInt($x), N::UInt($y)) => $body,
            (N::Long($x), N::Long($y)) => $body,
            (N::ULong($x), N::ULong($y)) => $body,
            (a, b) => unreachable!("operands of different types: {a:?}, {b:?}"),
        }
    };
}

impl N {
    /// `v` converted to `ty` by Rust's `as`, which truncates and extends as
    /// C's integer conversions do.
    fn of(ty: ScalarType, v: i128) -> N {
        match ty {
            ScalarType::Char => N::Char(v as i8),
            ScalarType::UChar => N::UChar(v as u8),
            ScalarType::Short => N::Short(v as i16),
            ScalarType::UShort => N::UShort(v as u16),
            ScalarType::Int => N::Int(v as i32),
            ScalarType::UInt => N::UInt(v as u32),
            ScalarType::Long => N::Long(v as i64),
            ScalarType::ULong => N::ULong(v as u64),
        }
    }

    fn ty(self) -> ScalarType {
        match self {
            N::Char(_) => ScalarType::Char,
            N::UChar(_) => ScalarType::UChar,
            N::Short(_) => ScalarType::Short,
            N::UShort(_) => ScalarType::UShort,
            N::Int(_) => ScalarType::Int,
            N::UInt(_) => ScalarType::UInt,
            N::Long(_) => ScalarType::Long,
            N::ULong(_) => ScalarType::ULong,
        }
    }

    /// The value, exactly.
    fn wide(self) -> i128 {
        match self {
            N::Char(x) => x as i128,
            N::UChar(x) => x as i128,
            N::Short(x) => x as i128,
            N::UShort(x) => x as i128,
            N::Int(x) => x as i128,
            N::UInt(x) => x as i128,
            N::Long(x) => x as i128,
            N::ULong(x) => x as i128,
        }
    }

    fn to(self, ty: ScalarType) -> N {
        N::of(ty, self.wide())
    }

    /// What a kernel stores into a `ulong` slot.
    fn out(self) -> u64 {
        self.wide() as u64
    }

    fn is_true(self) -> bool {
        self.wide() != 0
    }

    fn min_of(ty: ScalarType) -> N {
        match ty {
            ScalarType::Char => N::Char(i8::MIN),
            ScalarType::UChar => N::UChar(u8::MIN),
            ScalarType::Short => N::Short(i16::MIN),
            ScalarType::UShort => N::UShort(u16::MIN),
            ScalarType::Int => N::Int(i32::MIN),
            ScalarType::UInt => N::UInt(u32::MIN),
            ScalarType::Long => N::Long(i64::MIN),
            ScalarType::ULong => N::ULong(u64::MIN),
        }
    }

    fn max_of(ty: ScalarType) -> N {
        match ty {
            ScalarType::Char => N::Char(i8::MAX),
            ScalarType::UChar => N::UChar(u8::MAX),
            ScalarType::Short => N::Short(i16::MAX),
            ScalarType::UShort => N::UShort(u16::MAX),
            ScalarType::Int => N::Int(i32::MAX),
            ScalarType::UInt => N::UInt(u32::MAX),
            ScalarType::Long => N::Long(i64::MAX),
            ScalarType::ULong => N::ULong(u64::MAX),
        }
    }

    fn int(b: bool) -> N {
        N::Int(i32::from(b))
    }

    /// A kernel literal of this value and type.
    fn lit(self) -> Expr {
        Expr::lit(self.wide(), self.ty())
    }
}

/// The edge operands of a type: 0, ±1, MIN and MAX, plus one ordinary
/// value of each sign.
fn edges(ty: ScalarType) -> Vec<N> {
    let mut values = vec![
        N::of(ty, 0),
        N::of(ty, 1),
        N::of(ty, -1),
        N::min_of(ty),
        N::max_of(ty),
        N::of(ty, 0x5A),
        N::of(ty, -0x33),
    ];
    values.sort_by_key(|n| n.wide());
    values.dedup();
    values
}

/// Shift amounts at and beyond the widths that matter: each type's width,
/// past it, and negative amounts.
fn shift_amounts(ty: ScalarType) -> Vec<N> {
    [3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200, -1, -8]
        .into_iter()
        .map(|v| N::of(ty, v))
        .collect()
}

/// Integer promotion (C99 6.3.1.1): anything narrower than `int` becomes
/// `int`.
fn promoted(ty: ScalarType) -> ScalarType {
    if ty.bits() < 32 {
        ScalarType::Int
    } else {
        ty
    }
}

/// The usual arithmetic conversions (C99 6.3.1.8) over the promoted types:
/// equal types stay, a wider type wins (`long` holds every `uint`), and of
/// two types of one width the unsigned one wins.
fn common(a: ScalarType, b: ScalarType) -> ScalarType {
    let (a, b) = (promoted(a), promoted(b));
    if a == b {
        a
    } else if a.bits() != b.bits() {
        if a.bits() > b.bits() {
            a
        } else {
            b
        }
    } else if a.is_signed() {
        b
    } else {
        a
    }
}

/// Why a case has no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    DivisionByZero,
    InvalidClamp,
}

/// `a op b` for scalar operands.
fn binop(op: BinOp, a: N, b: N) -> Result<N, Fault> {
    if matches!(op, BinOp::LAnd | BinOp::LOr) {
        let r = if op == BinOp::LAnd {
            a.is_true() && b.is_true()
        } else {
            a.is_true() || b.is_true()
        };
        return Ok(N::int(r));
    }
    if matches!(op, BinOp::Shl | BinOp::Shr) {
        // §6.3(j): the result has the promoted left type, and only the low
        // bits of the amount count — exactly Rust's `wrapping_sh*`.
        let x = a.to(promoted(a.ty()));
        return Ok(shift(op, x, b));
    }
    let t = common(a.ty(), b.ty());
    let (x, y) = (a.to(t), b.to(t));
    let ordering = with2!(x, y, |p, q| p.cmp(&q));
    Ok(match op {
        BinOp::Eq => N::int(ordering.is_eq()),
        BinOp::Ne => N::int(ordering.is_ne()),
        BinOp::Lt => N::int(ordering.is_lt()),
        BinOp::Gt => N::int(ordering.is_gt()),
        BinOp::Le => N::int(ordering.is_le()),
        BinOp::Ge => N::int(ordering.is_ge()),
        BinOp::Add => zip!(x, y, |p, q| p.wrapping_add(q)),
        BinOp::Sub => zip!(x, y, |p, q| p.wrapping_sub(q)),
        BinOp::Mul => zip!(x, y, |p, q| p.wrapping_mul(q)),
        BinOp::Div | BinOp::Mod if !y.is_true() => return Err(Fault::DivisionByZero),
        // `MIN / -1` overflows; the emulator defines it as wrapping.
        BinOp::Div => zip!(x, y, |p, q| p.wrapping_div(q)),
        BinOp::Mod => zip!(x, y, |p, q| p.wrapping_rem(q)),
        BinOp::BitAnd => zip!(x, y, |p, q| p & q),
        BinOp::BitOr => zip!(x, y, |p, q| p | q),
        BinOp::BitXor => zip!(x, y, |p, q| p ^ q),
        BinOp::Shl | BinOp::Shr | BinOp::LAnd | BinOp::LOr => unreachable!(),
    })
}

/// `x << amount` or `x >> amount` in `x`'s own type, the amount taken
/// modulo its width (arithmetic right shifts for signed `x`).
fn shift(op: BinOp, x: N, amount: N) -> N {
    let amount = amount.wide() as u32;
    if op == BinOp::Shl {
        map!(x, |v| v.wrapping_shl(amount))
    } else {
        map!(x, |v| v.wrapping_shr(amount))
    }
}

fn unop(op: UnOp, a: N) -> N {
    let x = a.to(promoted(a.ty()));
    match op {
        UnOp::Neg => map!(x, |v| v.wrapping_neg()),
        UnOp::BitNot => map!(x, |v| !v),
        UnOp::LNot => N::int(!a.is_true()),
    }
}

/// One lane of `a op b` on vectors of `a`'s element type: shifts keep the
/// element type (§6.3(j) exempts vectors from promotion), comparisons give
/// -1 for true in the signed element type, and every other result is
/// converted back to the element type.
fn lane_binop(op: BinOp, a: N, b: N) -> Result<N, Fault> {
    let elem = a.ty();
    if matches!(op, BinOp::Shl | BinOp::Shr) {
        return Ok(shift(op, a, b));
    }
    let r = binop(op, a, b)?;
    Ok(
        if matches!(
            op,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        ) {
            N::of(elem.to_signed(), if r.is_true() { -1 } else { 0 })
        } else {
            r.to(elem)
        },
    )
}

/// A non-atomic builtin on scalar arguments, as the emulator documents
/// them: the `safe_*` wrappers behave like the raw operators except where
/// those are undefined (division by zero and `MIN / -1` give the dividend,
/// shift amounts are masked to five bits, `-MIN` wraps); `clamp` with
/// `lo > hi` is undefined and `safe_clamp` then gives `x`; `rotate` rotates
/// the bits of `x`'s own type; `min` and `max` give the winner in the
/// common type; `abs` gives the magnitude in the unsigned type.
fn builtin(func: Builtin, args: &[N]) -> Result<N, Fault> {
    let arg = |i: usize| args[i];
    match func {
        Builtin::SafeAdd => binop(BinOp::Add, arg(0), arg(1)),
        Builtin::SafeSub => binop(BinOp::Sub, arg(0), arg(1)),
        Builtin::SafeMul => binop(BinOp::Mul, arg(0), arg(1)),
        Builtin::SafeDiv | Builtin::SafeMod => {
            let (a, b) = (arg(0), arg(1));
            let t = common(a.ty(), b.ty());
            if !b.is_true() || (t.is_signed() && a.to(t) == N::min_of(t) && b.to(t) == N::of(t, -1))
            {
                return Ok(a.to(t));
            }
            let op = if func == Builtin::SafeDiv {
                BinOp::Div
            } else {
                BinOp::Mod
            };
            binop(op, a, b)
        }
        Builtin::SafeLshift | Builtin::SafeRshift => {
            let amount = N::Int((arg(1).wide() as i32) & 31);
            let op = if func == Builtin::SafeLshift {
                BinOp::Shl
            } else {
                BinOp::Shr
            };
            binop(op, arg(0), amount)
        }
        Builtin::SafeUnaryMinus => Ok(unop(UnOp::Neg, arg(0))),
        Builtin::Clamp | Builtin::SafeClamp => {
            let (x, lo, hi) = (arg(0), arg(1), arg(2));
            let t = common(x.ty(), common(lo.ty(), hi.ty()));
            let (xt, lot, hit) = (x.to(t), lo.to(t), hi.to(t));
            if with2!(lot, hit, |p, q| p > q) {
                return if func == Builtin::SafeClamp {
                    Ok(x)
                } else {
                    Err(Fault::InvalidClamp)
                };
            }
            let clamped = zip!(xt, lot, |p, q| p.max(q));
            Ok(zip!(clamped, hit, |p, q| p.min(q)).to(x.ty()))
        }
        Builtin::Rotate => {
            let amount = arg(1).wide() as u32;
            Ok(map!(arg(0), |v| v.rotate_left(amount)))
        }
        Builtin::Min | Builtin::Max => {
            let t = common(arg(0).ty(), arg(1).ty());
            let (x, y) = (arg(0).to(t), arg(1).to(t));
            Ok(if func == Builtin::Min {
                zip!(x, y, |p, q| p.min(q))
            } else {
                zip!(x, y, |p, q| p.max(q))
            })
        }
        Builtin::Abs => Ok(match arg(0) {
            N::Char(v) => N::UChar(v.unsigned_abs()),
            N::Short(v) => N::UShort(v.unsigned_abs()),
            N::Int(v) => N::UInt(v.unsigned_abs()),
            N::Long(v) => N::ULong(v.unsigned_abs()),
            unsigned => unsigned,
        }),
        other => unreachable!("{other:?} is not a table builtin"),
    }
}

// --- Kernels -----------------------------------------------------------------

/// One checked output: where it comes from and the value it must hold.
struct Case {
    label: String,
    expected: u64,
}

/// A single-work-item kernel under construction: statements that each
/// write one `out` slot, and the value each slot must hold.
#[derive(Default)]
struct Table {
    body: Vec<Stmt>,
    cases: Vec<Case>,
    names: usize,
}

impl Table {
    fn fresh(&mut self, prefix: &str) -> String {
        self.names += 1;
        format!("{prefix}{}", self.names)
    }

    /// `T name = value;` — a register, as its address is never taken.
    fn reg(&mut self, value: N) -> Expr {
        let name = self.fresh("r");
        self.body.push(Stmt::decl(
            name.clone(),
            Type::Scalar(value.ty()),
            Some(value.lit()),
        ));
        Expr::var(name)
    }

    /// `T name[1]; name[0] = value;` — an array element, never a register.
    fn element(&mut self, value: N) -> Expr {
        let name = self.fresh("a");
        self.body.push(Stmt::decl(
            name.clone(),
            Type::Scalar(value.ty()).array_of(1),
            None,
        ));
        let at = Expr::index(Expr::var(name), Expr::int(0));
        self.body.push(Stmt::assign(at.clone(), value.lit()));
        at
    }

    /// `T name = (T)(lane, …);` — a vector variable.
    fn vector(&mut self, lanes: &[N]) -> Expr {
        let elem = lanes[0].ty();
        let width = match lanes.len() {
            2 => VectorWidth::W2,
            4 => VectorWidth::W4,
            8 => VectorWidth::W8,
            16 => VectorWidth::W16,
            n => unreachable!("{n} lanes"),
        };
        let name = self.fresh("v");
        self.body.push(Stmt::decl(
            name.clone(),
            Type::Vector(elem, width),
            Some(Expr::VectorLit {
                elem,
                width,
                parts: lanes.iter().map(|n| n.lit()).collect(),
            }),
        ));
        Expr::var(name)
    }

    /// `out[k] = (ulong)(value);`, which must hold `expected`.
    fn check(&mut self, value: Expr, expected: N, label: String) {
        let slot = self.cases.len() as i64;
        self.body.push(Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(slot)),
            Expr::cast(Type::Scalar(ScalarType::ULong), value),
        ));
        self.cases.push(Case {
            label,
            expected: expected.out(),
        });
    }

    /// Writes every lane of the vector `value`, which must hold `expected`.
    fn check_lanes(&mut self, value: Expr, expected: &[N], label: &str) {
        let name = self.fresh("w");
        let ty = Type::Vector(
            expected[0].ty(),
            match expected.len() {
                2 => VectorWidth::W2,
                4 => VectorWidth::W4,
                8 => VectorWidth::W8,
                _ => VectorWidth::W16,
            },
        );
        self.body.push(Stmt::decl(name.clone(), ty, Some(value)));
        for (i, &lane) in expected.iter().enumerate() {
            self.check(
                Expr::lane(Expr::var(name.clone()), i as u8),
                lane,
                format!("{label} lane {i}"),
            );
        }
    }

    /// Runs the kernel on both tiers and compares every slot.
    fn run(self, what: &str) {
        let slots = self.cases.len().max(1);
        let mut program = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: clc::Block::of(self.body),
            },
            LaunchConfig::single_group(1),
        );
        program
            .buffers
            .push(BufferSpec::result("out", ScalarType::ULong, slots));
        for tier in ExecutionTier::ALL {
            let options = LaunchOptions {
                tier,
                ..LaunchOptions::default()
            };
            let result = launch(&program, &options)
                .unwrap_or_else(|e| panic!("{what} on the {} tier: {e}", tier.name()));
            for (case, got) in self.cases.iter().zip(&result.output) {
                assert_eq!(
                    got.as_u64(),
                    case.expected,
                    "{what}: {} on the {} tier",
                    case.label,
                    tier.name()
                );
            }
        }
    }
}

/// Runs a kernel whose only statement evaluates `value` and asserts it
/// fails with `expected` on both tiers.
fn assert_fails(setup: Table, value: Expr, expected: RuntimeError, what: &str) {
    let mut table = setup;
    table.check(value, N::Int(0), what.to_string());
    let body = table.body;
    let mut program = Program::new(
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(0),
            body: clc::Block::of(body),
        },
        LaunchConfig::single_group(1),
    );
    program
        .buffers
        .push(BufferSpec::result("out", ScalarType::ULong, 1));
    for tier in ExecutionTier::ALL {
        let options = LaunchOptions {
            tier,
            ..LaunchOptions::default()
        };
        let err = launch(&program, &options)
            .expect_err(&format!("{what} must fail on the {} tier", tier.name()));
        assert_eq!(err, expected, "{what} on the {} tier", tier.name());
    }
}

const ARITHMETIC: [BinOp; 18] = [
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

/// The compound assignment of `op`, where OpenCL C has one the AST models.
fn assign_op(op: BinOp) -> Option<AssignOp> {
    Some(match op {
        BinOp::Add => AssignOp::AddAssign,
        BinOp::Sub => AssignOp::SubAssign,
        BinOp::Mul => AssignOp::MulAssign,
        BinOp::BitAnd => AssignOp::AndAssign,
        BinOp::BitOr => AssignOp::OrAssign,
        BinOp::BitXor => AssignOp::XorAssign,
        _ => return None,
    })
}

/// Adds `a op b` to `table` in every form the VM lowers differently.
fn binop_forms(table: &mut Table, op: BinOp, a: N, b: N) {
    let Ok(expected) = binop(op, a, b) else {
        return;
    };
    let label = format!("{a:?} {} {b:?}", op.symbol());
    let x = table.reg(a);
    let y = table.reg(b);
    table.check(
        Expr::binary(op, x.clone(), y),
        expected,
        format!("{label} (registers)"),
    );
    table.check(
        Expr::binary(op, x, b.lit()),
        expected,
        format!("{label} (register, literal)"),
    );
    let element = table.element(a);
    table.check(
        Expr::binary(op, element, b.lit()),
        expected,
        format!("{label} (array element, literal)"),
    );
    if let Some(assign) = assign_op(op) {
        let z = table.reg(a);
        table
            .body
            .push(Stmt::expr(Expr::assign_op(assign, z.clone(), b.lit())));
        table.check(
            z,
            expected.to(a.ty()),
            format!("{label} (compound assignment of a literal)"),
        );
    }
}

// --- The tables --------------------------------------------------------------

/// Every scalar type × every binary operator over the edge operands, and
/// over shift amounts at and beyond every width for the shifts.
#[test]
fn binary_operators_match_native_arithmetic() {
    for ty in ScalarType::ALL {
        for op in ARITHMETIC {
            let mut table = Table::default();
            let rhs = if matches!(op, BinOp::Shl | BinOp::Shr) {
                let mut amounts = edges(ty);
                amounts.extend(shift_amounts(ty));
                amounts
            } else {
                edges(ty)
            };
            for &a in &edges(ty) {
                for &b in &rhs {
                    binop_forms(&mut table, op, a, b);
                }
            }
            table.run(&format!("{ty} {}", op.symbol()));
        }
    }
}

/// Every pair of scalar types under the usual arithmetic conversions, for
/// the arithmetic, comparison, bitwise and shift operators.
#[test]
fn usual_arithmetic_conversions_match_native_arithmetic() {
    let ops = [
        BinOp::Add,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::BitXor,
        BinOp::Lt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Shl,
        BinOp::Shr,
    ];
    for lhs in ScalarType::ALL {
        for rhs in ScalarType::ALL {
            let mut table = Table::default();
            for op in ops {
                for a in [
                    N::min_of(lhs),
                    N::of(lhs, -1),
                    N::max_of(lhs),
                    N::of(lhs, 7),
                ] {
                    for b in [
                        N::min_of(rhs),
                        N::of(rhs, -1),
                        N::max_of(rhs),
                        N::of(rhs, 3),
                    ] {
                        binop_forms(&mut table, op, a, b);
                    }
                }
            }
            table.run(&format!("{lhs} with {rhs}"));
        }
    }
}

/// Every scalar type × every unary operator over the edge operands.
#[test]
fn unary_operators_match_native_arithmetic() {
    for ty in ScalarType::ALL {
        let mut table = Table::default();
        for op in [UnOp::Neg, UnOp::BitNot, UnOp::LNot] {
            for a in edges(ty) {
                let expected = unop(op, a);
                let label = format!("{}{a:?}", op.symbol());
                let x = table.reg(a);
                table.check(Expr::unary(op, x), expected, format!("{label} (register)"));
                table.check(
                    Expr::unary(op, a.lit()),
                    expected,
                    format!("{label} (literal)"),
                );
            }
        }
        table.run(&format!("unary {ty}"));
    }
}

/// Raw division and remainder by zero are errors in every form;
/// `safe_div` and `safe_mod` give the dividend for a zero divisor and for
/// `MIN / -1`, where the raw operators wrap.
#[test]
fn division_by_zero_fails_and_safe_division_does_not() {
    for ty in ScalarType::ALL {
        for op in [BinOp::Div, BinOp::Mod] {
            let what = format!("{ty} {} 0", op.symbol());
            let a = N::of(ty, 5);
            let zero = N::of(ty, 0);
            let mut registers = Table::default();
            let (x, y) = (registers.reg(a), registers.reg(zero));
            assert_fails(
                registers,
                Expr::binary(op, x, y),
                RuntimeError::DivisionByZero,
                &what,
            );
            let mut literal = Table::default();
            let x = literal.reg(a);
            assert_fails(
                literal,
                Expr::binary(op, x, zero.lit()),
                RuntimeError::DivisionByZero,
                &what,
            );
            let mut element = Table::default();
            let x = element.element(a);
            assert_fails(
                element,
                Expr::binary(op, x, zero.lit()),
                RuntimeError::DivisionByZero,
                &what,
            );
        }
        let mut table = Table::default();
        for func in [Builtin::SafeDiv, Builtin::SafeMod] {
            let pairs = [
                (N::of(ty, 5), N::of(ty, 0)),
                (N::min_of(ty), N::of(ty, 0)),
                (N::min_of(ty), N::of(ty, -1)),
                (N::max_of(ty), N::of(ty, -1)),
                (N::of(ty, -7), N::of(ty, 2)),
            ];
            for (a, b) in pairs {
                let expected = builtin(func, &[a, b]).expect("safe division never fails");
                let label = format!("{}({a:?}, {b:?})", func.name());
                let (x, y) = (table.reg(a), table.reg(b));
                table.check(Expr::builtin(func, vec![x, y]), expected, label.clone());
                table.check(
                    Expr::builtin(func, vec![a.lit(), b.lit()]),
                    expected,
                    format!("{label} (literals)"),
                );
            }
            // `MIN / -1` wraps on the raw operators, in the promoted type.
            let (a, b) = (N::min_of(promoted(ty)), N::of(promoted(ty), -1));
            let raw = binop(BinOp::Div, a, b).unwrap();
            let x = table.reg(a);
            table.check(
                Expr::binary(BinOp::Div, x, b.lit()),
                raw,
                format!("{a:?} / -1"),
            );
        }
        table.run(&format!("{ty} safe division"));
    }
}

/// `clamp` with `lo > hi` is undefined in OpenCL C; the emulator reports
/// it, on both tiers.
#[test]
fn clamp_with_crossed_bounds_fails() {
    for ty in ScalarType::ALL {
        let mut table = Table::default();
        let x = table.reg(N::of(ty, 1));
        assert_fails(
            table,
            Expr::builtin(
                Builtin::Clamp,
                vec![x, N::max_of(ty).lit(), N::min_of(ty).lit()],
            ),
            RuntimeError::InvalidClamp,
            &format!("clamp on {ty}"),
        );
    }
}

const BUILTINS: [Builtin; 14] = [
    Builtin::SafeAdd,
    Builtin::SafeSub,
    Builtin::SafeMul,
    Builtin::SafeDiv,
    Builtin::SafeMod,
    Builtin::SafeLshift,
    Builtin::SafeRshift,
    Builtin::SafeUnaryMinus,
    Builtin::Clamp,
    Builtin::SafeClamp,
    Builtin::Rotate,
    Builtin::Min,
    Builtin::Max,
    Builtin::Abs,
];

/// The argument lists a builtin is checked on: every combination of edge
/// operands (and shift amounts for the shifts and `rotate`), leaving out
/// `clamp` with crossed bounds.
fn builtin_cases(func: Builtin, ty: ScalarType) -> Vec<Vec<N>> {
    let values = edges(ty);
    let mut amounts = values.clone();
    if matches!(
        func,
        Builtin::SafeLshift | Builtin::SafeRshift | Builtin::Rotate
    ) {
        amounts.extend(shift_amounts(ty));
    }
    match func.arity() {
        1 => values.iter().map(|&a| vec![a]).collect(),
        2 => values
            .iter()
            .flat_map(|&a| amounts.iter().map(move |&b| vec![a, b]))
            .collect(),
        _ => {
            let mut cases = Vec::new();
            for &x in &values {
                for &lo in &values {
                    for &hi in &values {
                        if builtin(func, &[x, lo, hi]).is_ok() {
                            cases.push(vec![x, lo, hi]);
                        }
                    }
                }
            }
            cases
        }
    }
}

/// Every table builtin on every scalar type, with register and literal
/// arguments.
#[test]
fn builtins_match_native_arithmetic_on_scalars() {
    for ty in ScalarType::ALL {
        for func in BUILTINS {
            let mut table = Table::default();
            for args in builtin_cases(func, ty) {
                let expected = builtin(func, &args).expect("cases are defined");
                let label = format!("{}{args:?}", func.name());
                let registers = args.iter().map(|&a| table.reg(a)).collect();
                table.check(
                    Expr::builtin(func, registers),
                    expected,
                    format!("{label} (registers)"),
                );
                table.check(
                    Expr::builtin(func, args.iter().map(|a| a.lit()).collect()),
                    expected,
                    format!("{label} (literals)"),
                );
            }
            table.run(&format!("{} on {ty}", func.name()));
        }
    }
}

/// Every table builtin on 2-, 4- and 16-lane vectors of every type: the
/// scalar cases are dealt into lanes, each lane is computed natively in the
/// element type, and every lane of the result is checked.
#[test]
fn builtins_match_native_arithmetic_on_vectors() {
    for ty in ScalarType::ALL {
        for func in BUILTINS {
            let cases = builtin_cases(func, ty);
            for lanes in [2, 4, 16] {
                let mut table = Table::default();
                for (chunk_index, chunk) in cases.chunks(lanes).enumerate() {
                    // Pad the last chunk with its first case.
                    let rows: Vec<&Vec<N>> = (0..lanes)
                        .map(|i| chunk.get(i).unwrap_or(&chunk[0]))
                        .collect();
                    let expected: Vec<N> = rows
                        .iter()
                        .map(|args| builtin(func, args).expect("cases are defined").to(ty))
                        .collect();
                    let vectors = (0..func.arity())
                        .map(|i| {
                            let column: Vec<N> = rows.iter().map(|args| args[i]).collect();
                            table.vector(&column)
                        })
                        .collect();
                    table.check_lanes(
                        Expr::builtin(func, vectors),
                        &expected,
                        &format!("{} chunk {chunk_index} {rows:?}", func.name()),
                    );
                }
                table.run(&format!("{} on {ty}{lanes}", func.name()));
            }
        }
    }
}

/// `abs` of a vector has the unsigned element type, as `abs` of a scalar
/// has: every lane is read through a direct widening cast, which
/// zero-extends it (`(ulong)abs((char2)(-128, 5)).s0` is 128, not
/// `0xffffffffffffff80`).  The test above stores the result into a vector
/// of the argument type first, which hides the result's signedness.
#[test]
fn vector_abs_lanes_are_unsigned() {
    for ty in ScalarType::ALL {
        let values = edges(ty);
        for lanes in [2, 4, 16] {
            let mut table = Table::default();
            for (chunk_index, chunk) in values.chunks(lanes).enumerate() {
                let column: Vec<N> = (0..lanes)
                    .map(|i| *chunk.get(i).unwrap_or(&chunk[0]))
                    .collect();
                let v = table.vector(&column);
                for (i, &a) in column.iter().enumerate() {
                    table.check(
                        Expr::lane(Expr::builtin(Builtin::Abs, vec![v.clone()]), i as u8),
                        builtin(Builtin::Abs, &[a]).expect("abs is defined"),
                        format!("abs chunk {chunk_index} lane {i} of {column:?}"),
                    );
                }
            }
            table.run(&format!("abs on {ty}{lanes}"));
        }
    }
}

/// Binary operators on vectors: lane by lane, shifts in the element type
/// and comparisons as -1 / 0, with a vector or a scalar right operand.
#[test]
fn vector_operators_match_native_arithmetic() {
    for ty in ScalarType::ALL {
        for op in ARITHMETIC {
            if matches!(op, BinOp::LAnd | BinOp::LOr) {
                continue;
            }
            let mut pairs = Vec::new();
            let rhs = if matches!(op, BinOp::Shl | BinOp::Shr) {
                shift_amounts(ty)
            } else {
                edges(ty)
            };
            for &a in &edges(ty) {
                for &b in &rhs {
                    if lane_binop(op, a, b).is_ok() {
                        pairs.push((a, b));
                    }
                }
            }
            let mut table = Table::default();
            for chunk in pairs.chunks(4) {
                let rows: Vec<(N, N)> =
                    (0..4).map(|i| *chunk.get(i).unwrap_or(&chunk[0])).collect();
                let expected: Vec<N> = rows
                    .iter()
                    .map(|&(a, b)| lane_binop(op, a, b).unwrap())
                    .collect();
                let lhs: Vec<N> = rows.iter().map(|r| r.0).collect();
                let rhs: Vec<N> = rows.iter().map(|r| r.1).collect();
                let (x, y) = (table.vector(&lhs), table.vector(&rhs));
                table.check_lanes(
                    Expr::binary(op, x, y),
                    &expected,
                    &format!("{rows:?} {}", op.symbol()),
                );
            }
            // A scalar right operand is converted to the element type and
            // applied to every lane.
            for &b in &rhs {
                let lhs = edges(ty)[..4].to_vec();
                if lhs.iter().any(|&a| lane_binop(op, a, b).is_err()) {
                    continue;
                }
                let expected: Vec<N> = lhs.iter().map(|&a| lane_binop(op, a, b).unwrap()).collect();
                let x = table.vector(&lhs);
                table.check_lanes(
                    Expr::binary(op, x, b.lit()),
                    &expected,
                    &format!("{lhs:?} {} {b:?}", op.symbol()),
                );
            }
            table.run(&format!("{ty} vector {}", op.symbol()));
        }
    }
}

// --- Swizzles ----------------------------------------------------------------

/// A distinct value per lane: 53 is odd, so `53 i` differs from lane to lane
/// modulo every width, and the offset makes the first lanes negative.
fn lane_values(ty: ScalarType, lanes: usize) -> Vec<N> {
    (0..lanes)
        .map(|i| N::of(ty, 53 * i as i128 - 0x70))
        .collect()
}

/// The vector type of `lanes` lanes of `elem`.
fn vector_type(elem: ScalarType, lanes: usize) -> Type {
    let width = VectorWidth::from_lanes(lanes).expect("a vector width");
    Type::Vector(elem, width)
}

/// `(T)(lane, …)` — a vector literal.
fn vector_lit(lanes: &[N]) -> Expr {
    let Type::Vector(elem, width) = vector_type(lanes[0].ty(), lanes.len()) else {
        unreachable!()
    };
    Expr::VectorLit {
        elem,
        width,
        parts: lanes.iter().map(|n| n.lit()).collect(),
    }
}

fn swizzle(base: Expr, lanes: &[u8]) -> Expr {
    Expr::Swizzle {
        base: Box::new(base),
        lanes: lanes.to_vec(),
    }
}

/// Multi-lane selections of a `lanes`-lane vector that name each lane at
/// most once, so they are lvalues as well as rvalues: all lanes reversed,
/// the last and the first, a shuffled four and, on 16 lanes, the odd eight.
fn distinct_selections(lanes: usize) -> Vec<Vec<u8>> {
    let n = lanes as u8;
    let mut selections = vec![(0..n).rev().collect(), vec![n - 1, 0]];
    if lanes >= 4 {
        selections.push(vec![3, 0, 2, 1]);
    }
    if lanes == 16 {
        selections.push((1..16).step_by(2).rev().collect());
    }
    selections
}

/// Selections that are rvalues only: a repeated lane, and selections wider
/// than the vector they read.
fn repeating_selections(lanes: usize) -> Vec<Vec<u8>> {
    let n = lanes as u8;
    vec![
        vec![1, 1],
        vec![0, n - 1, n - 1, 0],
        (0..16).map(|i| (i * 7) % n).collect(),
    ]
}

impl Table {
    /// `T name[1]; name[0] = (T)(lane, …);` — a vector array element, which
    /// the bytecode tier reaches through an indexed place.
    fn vector_element(&mut self, lanes: &[N]) -> Expr {
        let name = self.fresh("e");
        self.body.push(Stmt::decl(
            name.clone(),
            vector_type(lanes[0].ty(), lanes.len()).array_of(1),
            None,
        ));
        let at = Expr::index(Expr::var(name), Expr::int(0));
        self.body.push(Stmt::assign(at.clone(), vector_lit(lanes)));
        at
    }
}

/// One-lane and multi-lane swizzles as rvalues, on 2-, 4- and 16-lane
/// vectors of every type: of a vector variable, of a vector array element
/// and of a vector literal, each selecting lanes of a plain Rust array.
#[test]
fn swizzles_read_the_lanes_they_name() {
    for ty in ScalarType::ALL {
        for lanes in [2, 4, 16] {
            let values = lane_values(ty, lanes);
            let mut table = Table::default();
            let bases = [
                ("variable", table.vector(&values)),
                ("element", table.vector_element(&values)),
                ("literal", vector_lit(&values)),
            ];
            for (form, base) in bases {
                for (i, &value) in values.iter().enumerate() {
                    table.check(
                        Expr::lane(base.clone(), i as u8),
                        value,
                        format!("{form}.s{i:x}"),
                    );
                }
                for selection in distinct_selections(lanes)
                    .into_iter()
                    .chain(repeating_selections(lanes))
                {
                    let expected: Vec<N> = selection.iter().map(|&l| values[l as usize]).collect();
                    table.check_lanes(
                        swizzle(base.clone(), &selection),
                        &expected,
                        &format!("{form} swizzle {selection:?}"),
                    );
                }
            }
            table.run(&format!("swizzle reads on {ty}{lanes}"));
        }
    }
}

/// One-lane and multi-lane swizzles as lvalues, on 2-, 4- and 16-lane
/// vectors of every type, held in a variable and in an array element: a
/// store, a compound assignment of a vector and of a scalar, and a scalar
/// broadcast into the selected lanes.  Every lane of the vector is checked
/// afterwards against a plain Rust array, so a store that touches a lane it
/// does not name shows too.
#[test]
fn swizzles_write_the_lanes_they_name() {
    let ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
    ];
    for ty in ScalarType::ALL {
        for lanes in [2, 4, 16] {
            let values = lane_values(ty, lanes);
            let mut table = Table::default();
            // A store of the selection's own width into fresh vectors of
            // both kinds, then checks of the whole vector.
            let written = |table: &mut Table,
                           selection: &[u8],
                           rhs: Expr,
                           op: Option<BinOp>,
                           lane: &dyn Fn(N, usize) -> N,
                           label: String| {
                let mut expected = values.clone();
                for (k, &l) in selection.iter().enumerate() {
                    expected[l as usize] = lane(values[l as usize], k);
                }
                for (form, v) in [
                    ("variable", table.vector(&values)),
                    ("element", table.vector_element(&values)),
                ] {
                    let target = swizzle(v.clone(), selection);
                    let assign = match op.and_then(assign_op) {
                        Some(assign) => Expr::assign_op(assign, target, rhs.clone()),
                        None => Expr::assign(target, rhs.clone()),
                    };
                    table.body.push(Stmt::expr(assign));
                    table.check_lanes(v, &expected, &format!("{form} {label}"));
                }
            };
            let scalar = N::Int(-0x12345679);
            for i in 0..lanes {
                let new = N::of(ty, 0x1F0 + i as i128);
                written(
                    &mut table,
                    &[i as u8],
                    new.lit(),
                    None,
                    &|_, _| new,
                    format!(".s{i:x} = {new:?}"),
                );
                written(
                    &mut table,
                    &[i as u8],
                    scalar.lit(),
                    None,
                    &|_, _| scalar.to(ty),
                    format!(".s{i:x} = {scalar:?}"),
                );
                let op = ops[i % ops.len()];
                let rhs = N::max_of(ty);
                written(
                    &mut table,
                    &[i as u8],
                    rhs.lit(),
                    Some(op),
                    &|a, _| binop(op, a, rhs).expect("defined").to(ty),
                    format!(".s{i:x} {}= {rhs:?}", op.symbol()),
                );
            }
            for (j, selection) in distinct_selections(lanes).into_iter().enumerate() {
                let new: Vec<N> = (0..selection.len())
                    .map(|k| N::of(ty, -0x2B3 * (k as i128 + 1)))
                    .collect();
                written(
                    &mut table,
                    &selection,
                    vector_lit(&new),
                    None,
                    &|_, k| new[k],
                    format!("{selection:?} = {new:?}"),
                );
                written(
                    &mut table,
                    &selection,
                    scalar.lit(),
                    None,
                    &|_, _| scalar.to(ty),
                    format!("{selection:?} = {scalar:?} (broadcast)"),
                );
                let op = ops[j % ops.len()];
                written(
                    &mut table,
                    &selection,
                    vector_lit(&new),
                    Some(op),
                    &|a, k| lane_binop(op, a, new[k]).expect("defined"),
                    format!("{selection:?} {}= {new:?}", op.symbol()),
                );
                let op = ops[(j + 3) % ops.len()];
                written(
                    &mut table,
                    &selection,
                    scalar.lit(),
                    Some(op),
                    &|a, _| lane_binop(op, a, scalar.to(ty)).expect("defined"),
                    format!("{selection:?} {}= {scalar:?}", op.symbol()),
                );
            }
            table.run(&format!("swizzle writes on {ty}{lanes}"));
        }
        // A selection that names a lane twice is no lvalue.
        let mut table = Table::default();
        let v = table.vector(&lane_values(ty, 4));
        assert_fails(
            table,
            Expr::assign(swizzle(v, &[2, 1, 2, 0]), vector_lit(&lane_values(ty, 4))),
            RuntimeError::TypeMismatch {
                detail: "swizzle store names lane 2 twice".into(),
            },
            &format!("a repeated lane on {ty}4"),
        );
    }
}
