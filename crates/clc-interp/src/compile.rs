//! Lowering a [`clc::Program`] into flat bytecode for the [`crate::vm`]
//! execution tier.
//!
//! The compiler walks each function body once and produces a linear
//! instruction stream per function:
//!
//! * **Variable slots** — every lexical binding is resolved at compile time
//!   to a frame-slot index, eliminating the per-access name hashing and
//!   scope-chain walks of the tree-walking evaluator.  Names that are not
//!   statically in scope fall back to the per-group `local`-declaration
//!   table at runtime, exactly mirroring the tree walker's lookup order.
//! * **Registers** — private scalars whose address is never needed (escape
//!   analysis, below) live in a per-frame register bank instead of memory
//!   objects; literal operands fold into the register instructions
//!   (`DeclRegInit`, `StoreRegImm`, `RegBinopImm`) and into `BinaryImm`.
//! * **Scalar slot accesses** — a scalar reached from a slot through
//!   `.field` and constant in-range `[k]` steps is loaded and stored by one
//!   instruction with the cell offset folded in (`LoadScalarSlot`,
//!   `StoreScalarSlot`).  Every other access — vectors, whole aggregates,
//!   `p->field`, `v[i]`, `*p` — builds a place on the place stack
//!   (`PlaceSlot`, `PlaceDeref`, `FieldPlace`, `ResolveIndexable`,
//!   `IndexPlace`, `LanePlace`) and loads or stores through it, as the
//!   tree walker's `eval_place` does.
//! * **Pre-computed layout** — aggregate initialiser offsets are folded at
//!   compile time.
//! * **Jump-target control flow** — `if` / `for` / `while` / `?:` and the
//!   short-circuit operators become conditional branches over basic blocks;
//!   `break` / `continue` / `return` become explicit scope-exit sequences
//!   plus jumps.
//! * **Barrier sites** — a kernel-body `barrier()` lowers to a dedicated
//!   instruction whose address identifies the barrier site for the
//!   divergence check; barriers in helper functions lower to soft-barrier
//!   counting, as in the tree walker.
//!
//! Compilation is total: constructs the tree walker would only reject *when
//! executed* (unknown variables or functions, non-lvalue assignment targets,
//! `break` outside a loop, ...) are lowered to `Instr::Fail` instructions
//! carrying the identical [`RuntimeError`], so dead code containing them
//! stays dead and live code fails with exactly the same error on both tiers.

use crate::error::RuntimeError;
use crate::value::Scalar;
use clc::expr::{BinOp, Builtin, Expr, IdKind, UnOp};
use clc::stmt::{Block, EmiBlock, Initializer, Stmt};
use clc::types::{AddressSpace, ScalarType, Type, VectorWidth};
use clc::visit::Part;
use clc::{Param, Program};
use std::collections::{HashMap, HashSet};

/// How a conditional branch treats its popped condition value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BranchKind {
    /// `if` condition: non-scalar conditions are a type error.
    IfCond,
    /// Ternary guard: non-scalar guards are a type error (different message).
    Ternary,
    /// Loop / EMI guards: non-scalar conditions count as false.
    Permissive,
}

/// One bytecode instruction.
///
/// The VM maintains a value stack and a place (lvalue) stack; the comments
/// note each instruction's effect as `pops → pushes`.
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    /// `→ value` — push a literal scalar.
    Const(Scalar),
    /// `→ value` — push a work-item identity query result.
    Id(IdKind),
    /// `parts values → value` — assemble a vector literal (with broadcast).
    MakeVector {
        elem: ScalarType,
        width: VectorWidth,
        parts: u16,
    },
    /// `→ value` — load the whole object bound to a slot.
    LoadSlot(u16),
    /// `→ value` — fused load of a statically resolved scalar location:
    /// a slot plus a compile-time cell offset (0 for plain variables;
    /// folded struct-field / constant-index offsets otherwise).  `shared`
    /// selects race recording.
    LoadScalarSlot {
        slot: u16,
        offset: u32,
        ty: ScalarType,
        shared: bool,
    },
    /// `rhs-value → value?` — fused plain/compound assignment to a
    /// statically resolved scalar location; `push` is false in statement
    /// position where the result is discarded.
    StoreScalarSlot {
        slot: u16,
        offset: u32,
        ty: ScalarType,
        op: Option<BinOp>,
        shared: bool,
        push: bool,
    },
    /// `→` — reset a register to *uninitialised*.  Emitted at every
    /// register declaration, so a loop body re-declaring the variable gets
    /// a fresh (uninitialised) value each iteration, exactly as
    /// `DeclPrivate`'s fresh object would.
    DeclReg { reg: u16 },
    /// `→` — declare a register with a literal initialiser folded in
    /// (`int i = 0`): the bits are pre-converted to the register's declared
    /// type at compile time.
    DeclRegInit { reg: u16, bits: u64 },
    /// `→ value` — push the scalar held in a register (fails with the tree
    /// walker's `UninitializedRead` when unset).
    LoadReg { reg: u16, ty: ScalarType },
    /// `rhs-value → value?` — plain/compound assignment to a register,
    /// mirroring `StoreScalarSlot`'s conversion and error semantics.
    StoreReg {
        reg: u16,
        ty: ScalarType,
        op: Option<BinOp>,
        push: bool,
    },
    /// `→ value?` — assignment to a register whose right-hand side is a
    /// literal folded into the instruction (`i = 0`, `acc += 3`).
    StoreRegImm {
        reg: u16,
        ty: ScalarType,
        op: Option<BinOp>,
        imm: Scalar,
        push: bool,
    },
    /// `→ value` — fused `LoadReg` + `BinaryImm` (`i < 10`, `i * 2`): reads
    /// the register and applies an operator with a literal right operand,
    /// without touching the register.
    RegBinopImm {
        reg: u16,
        ty: ScalarType,
        op: BinOp,
        imm: Scalar,
    },
    /// `value → value` — apply a unary operator.
    Unary(UnOp),
    /// `lhs rhs → value` — apply a non-logical binary operator.
    Binary(BinOp),
    /// `lhs → value` — apply a non-logical binary operator whose right
    /// operand is a literal folded into the instruction (loop conditions
    /// and counter updates are almost always of this shape).
    BinaryImm { op: BinOp, imm: Scalar },
    /// `lhs → (int)` or nothing — short-circuit evaluation of `&&` / `||`:
    /// pops the left operand; if it decides the result, pushes it as an
    /// `int` and jumps to `end`, otherwise falls through to the right
    /// operand's code.
    ShortCircuit { is_and: bool, end: u32 },
    /// `value → int` — truthiness of the right logical operand.
    TruthToInt,
    /// `cond →` — jump to `target` when the condition is false.
    Branch { target: u32, kind: BranchKind },
    /// `→` — unconditional jump.
    Jump(u32),
    /// `value →` — discard the top of the value stack.
    Pop,
    /// `value → value` — cast to a type.
    Cast(Box<Type>),
    /// `value → value` — vector component selection.
    Swizzle(Box<[u8]>),
    /// `place → value` — materialise a pointer to a place (`&lv`).
    AddrOf,
    /// `→ place` — the storage of a slot-bound variable.
    PlaceSlot(u16),
    /// `→ place` — the storage of a group-`local` variable resolved by name
    /// at runtime (the fallback the tree walker's `lookup_var` provides).
    PlaceGroupLocal(Box<str>),
    /// `value → place` — dereference a pointer value into a place.
    PlaceDeref,
    /// `place → place` — prepare the base of an indexing expression: arrays
    /// stay as-is, pointer-typed places load the pointer they hold.
    ResolveIndexable,
    /// `index-value, place → place` — apply a bounds-checked index.
    IndexPlace,
    /// `place → place` — step into a struct field (offset folded from the
    /// runtime struct type).
    FieldPlace(Box<str>),
    /// `place → place` — step into a single vector lane.
    LanePlace(u8),
    /// `place → value` — load from a place.
    LoadPlace,
    /// `rhs-value, place → value?` — plain (`None`) or compound (`Some(op)`)
    /// assignment; pushes the stored value unless `push` is false
    /// (statement position).
    Store { op: Option<BinOp>, push: bool },
    /// `rhs-value, place → value?` — [`Instr::Store`] into the named lanes
    /// of the vector at the place (a multi-lane swizzle target).
    StoreLanes {
        lanes: Box<[u8]>,
        op: Option<BinOp>,
        push: bool,
    },
    /// `→` — open a lexical scope (objects declared inside are freed on
    /// exit).
    EnterScope,
    /// `→` — close the innermost scope, freeing its objects.
    ExitScope,
    /// `→` — allocate an uninitialised private variable into a slot, owned
    /// by the current scope.
    DeclPrivate {
        slot: u16,
        name: Box<str>,
        ty: Box<Type>,
    },
    /// `→` — bind a slot to the per-group shared allocation for a `local`
    /// declaration (allocating it zeroed on first execution in the group).
    DeclLocal {
        slot: u16,
        name: Box<str>,
        ty: Box<Type>,
    },
    /// `value →` — store a declaration initialiser into a slot's object.
    InitSlot { slot: u16, ty: Box<Type> },
    /// `→` — zero-fill a slot's object (brace initialisation).
    ZeroFill { slot: u16, cells: u32 },
    /// `value →` — store one brace-initialiser element at a pre-computed
    /// cell offset.
    InitAt {
        slot: u16,
        offset: u32,
        ty: Box<Type>,
    },
    /// `→` — suspend the work-item at a kernel-body barrier; the instruction
    /// address is the barrier site for divergence checking.
    Barrier,
    /// `→` — count a non-synchronising barrier inside a helper function.
    SoftBarrier,
    /// `→` — reject calls nested deeper than
    /// [`crate::eval::MAX_CALL_DEPTH`], before argument evaluation.
    CheckDepth,
    /// `argc values →` — call a user function (pushes a frame; its `Return`
    /// pushes the result).
    Call { func: u32, argc: u16 },
    /// `argc values → value` — apply a non-atomic builtin.
    CallBuiltin { func: Builtin, argc: u16 },
    /// `pointer-value → place, value` — begin an atomic read-modify-write:
    /// validates the location, records the access and pushes the old value.
    AtomicBegin,
    /// `operands…, old-value, place → value` — complete the atomic
    /// read-modify-write and push the old value.
    AtomicEnd { func: Builtin, argc: u16 },
    /// `value? →` — return from a helper function (frees its scopes and
    /// parameters, pushes the result — `int 0` for `void` fall-through).
    Return { has_value: bool },
    /// `value? →` — finish the work-item from the kernel body.
    ReturnKernel { has_value: bool },
    /// `→ !` — raise a pre-computed runtime error (unknown name, non-lvalue
    /// target, misplaced `break`, ...), preserving the tree walker's
    /// execute-time error behaviour for code the compiler cannot resolve.
    Fail(Box<RuntimeError>),
}

/// One lowered function: the kernel at index 0, helpers after it.
#[derive(Debug)]
pub(crate) struct CompiledFunc {
    /// Function name (diagnostics only).
    #[allow(dead_code)]
    pub(crate) name: String,
    /// The instruction stream.
    pub(crate) code: Vec<Instr>,
    /// Number of variable slots a frame needs.
    pub(crate) n_slots: usize,
    /// Slot names, for `UnknownVariable` diagnostics on unbound slots.
    pub(crate) slot_names: Vec<String>,
    /// Number of scalar registers a frame needs (see [`Instr::LoadReg`]).
    pub(crate) n_regs: usize,
    /// Register names, for `UninitializedRead` diagnostics.
    pub(crate) reg_names: Vec<String>,
    /// Parameters, for call-frame setup.
    pub(crate) params: Vec<Param>,
    /// Whether the VM may serve calls of this helper from its call memo:
    /// neither the helper nor anything it calls has an identity-dependent
    /// `Id`, a `DeclLocal`, a `PlaceGroupLocal`, a barrier or an atomic
    /// (see [`mark_memoisable`]).  Always false for the kernel.
    pub(crate) memoisable: bool,
}

/// A program lowered to bytecode, ready for [`crate::vm`] execution.
///
/// Produced by [`compile`]; `funcs[0]` is the kernel entry point.
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) funcs: Vec<CompiledFunc>,
}

impl CompiledProgram {
    /// Total number of scalar registers allocated by escape analysis across
    /// all functions (diagnostics; used by tests to pin which declarations
    /// are register-allocated).
    pub fn register_count(&self) -> usize {
        self.funcs.iter().map(|f| f.n_regs).sum()
    }
}

/// Index of the kernel entry point in [`CompiledProgram`].
pub(crate) const KERNEL_FUNC: usize = 0;

// --- escape analysis -------------------------------------------------------
//
// A private scalar declaration can live in a per-frame register instead of a
// `Memory` object exactly when nothing ever needs a memory location for it:
// its address is never taken, it is never the base of an indexing / member /
// place chain (whose lowering resolves to an object + offset), and every
// assignment to it targets the bare name.  The analysis is name-level and
// conservative: if any use of a name anywhere in the function requires an
// object, *every* declaration of that name stays slot-allocated (shadowed
// re-declarations included), which can only cost performance, never
// correctness.

/// Collects the function-body names that must stay memory-allocated.
pub(crate) fn escaping_names(body: &Block) -> HashSet<&str> {
    escaping_names_outside(body, &mut |_| false)
}

/// [`escaping_names`] of `body` without the bodies of the EMI blocks `skip`
/// selects.  `skip` is asked about each EMI block outside the bodies it
/// selects, outer blocks first.
pub(crate) fn escaping_names_outside<'b>(
    body: &'b Block,
    skip: &mut dyn FnMut(&'b EmiBlock) -> bool,
) -> HashSet<&'b str> {
    let mut out = HashSet::new();
    for s in body.iter() {
        escape_stmt(s, &mut out, skip);
    }
    out
}

fn escape_stmt<'b>(
    stmt: &'b Stmt,
    out: &mut HashSet<&'b str>,
    skip: &mut dyn FnMut(&'b EmiBlock) -> bool,
) {
    // The synthesised EMI guard only reads `dead[..]`, a kernel parameter —
    // parameters are never register candidates.
    if let Stmt::Emi(emi) = stmt {
        if skip(emi) {
            return;
        }
    }
    stmt.for_each_part(|part| match part {
        Part::Cond(e) | Part::Operand(e) => escape_expr(e, out),
        Part::Init(list) => list.for_each_item(&mut |e| escape_expr(e, out)),
        Part::Stmt(s) => escape_stmt(s, out, skip),
        Part::Block(b) | Part::LoopBody(b) | Part::EmiBody(b) => {
            for s in b.iter() {
                escape_stmt(s, out, skip);
            }
        }
    });
}

/// Walks an expression in *value* position.
fn escape_expr<'b>(e: &'b Expr, out: &mut HashSet<&'b str>) {
    match e {
        Expr::IntLit { .. } | Expr::IdQuery(_) | Expr::Var(_) => {}
        Expr::VectorLit { parts, .. } => {
            for p in parts {
                escape_expr(p, out);
            }
        }
        Expr::Unary { expr, .. } => escape_expr(expr, out),
        Expr::Binary { lhs, rhs, .. } => {
            escape_expr(lhs, out);
            escape_expr(rhs, out);
        }
        Expr::Assign { lhs, rhs, .. } => {
            // A bare-name target lowers to a register store; anything more
            // structured needs the object.
            if !matches!(&**lhs, Expr::Var(_)) {
                escape_place(lhs, out);
            }
            escape_expr(rhs, out);
        }
        Expr::Cond {
            cond,
            then_expr,
            else_expr,
        } => {
            escape_expr(cond, out);
            escape_expr(then_expr, out);
            escape_expr(else_expr, out);
        }
        Expr::Comma { lhs, rhs } => {
            escape_expr(lhs, out);
            escape_expr(rhs, out);
        }
        Expr::Call { args, .. } | Expr::BuiltinCall { args, .. } => {
            for a in args {
                escape_expr(a, out);
            }
        }
        // `base[i]` / `base.f` load through the base's object even in value
        // position.
        Expr::Index { base, index } => {
            escape_place(base, out);
            escape_expr(index, out);
        }
        Expr::Field { base, arrow, .. } => {
            if *arrow {
                escape_expr(base, out);
            } else {
                escape_place(base, out);
            }
        }
        // A swizzle reads the vector *value*; vectors are never register
        // candidates anyway.
        Expr::Swizzle { base, .. } => escape_expr(base, out),
        Expr::Deref(inner) => escape_expr(inner, out),
        Expr::AddrOf(inner) => escape_place(inner, out),
        Expr::Cast { expr, .. } => escape_expr(expr, out),
    }
}

/// Walks an expression in *place* position, marking the root name of the
/// lvalue chain as escaping.
fn escape_place<'b>(e: &'b Expr, out: &mut HashSet<&'b str>) {
    match e {
        Expr::Var(name) => {
            out.insert(name);
        }
        Expr::Index { base, index } => {
            escape_place(base, out);
            escape_expr(index, out);
        }
        Expr::Field { base, arrow, .. } => {
            if *arrow {
                escape_expr(base, out);
            } else {
                escape_place(base, out);
            }
        }
        Expr::Swizzle { base, .. } => escape_place(base, out),
        Expr::Deref(inner) => escape_expr(inner, out),
        other => escape_expr(other, out),
    }
}

/// Lowers a program (kernel plus helper functions) into bytecode.
///
/// Compilation never fails: unresolvable constructs are lowered to
/// `Instr::Fail` so they raise the tree walker's error if — and only if —
/// they are actually executed.
pub fn compile(program: &Program) -> CompiledProgram {
    // First definition wins on name collisions, matching `Program::function`.
    let mut func_ids: HashMap<&str, u32> = HashMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        func_ids.entry(f.name.as_str()).or_insert(i as u32 + 1);
    }
    let mut funcs = Vec::with_capacity(program.functions.len() + 1);
    funcs.push(compile_kernel(program, &func_ids));
    for f in &program.functions {
        funcs.push(compile_helper(program, &func_ids, f));
    }
    mark_memoisable(&mut funcs);
    CompiledProgram { funcs }
}

/// Decides which helpers are memoisable.  A helper that queries its
/// work-item's identity, declares or names group-`local` memory, or runs a
/// barrier or an atomic is not, and neither is any helper that calls one
/// (a fixpoint over the call graph, so recursion is covered).  Whatever else
/// a memoisable helper does, it can reach only its own objects and those
/// its arguments point to.
fn mark_memoisable(funcs: &mut [CompiledFunc]) {
    let observes_lanes = |instr: &Instr| match instr {
        Instr::Id(kind) => kind.is_identity_dependent(),
        Instr::DeclLocal { .. }
        | Instr::PlaceGroupLocal(_)
        | Instr::Barrier
        | Instr::AtomicBegin
        | Instr::AtomicEnd { .. } => true,
        _ => false,
    };
    let mut memoisable: Vec<bool> = funcs
        .iter()
        .enumerate()
        .map(|(i, f)| i != KERNEL_FUNC && !f.code.iter().any(observes_lanes))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, f) in funcs.iter().enumerate() {
            let calls_unmemoisable = || {
                f.code.iter().any(
                    |instr| matches!(instr, Instr::Call { func, .. } if !memoisable[*func as usize]),
                )
            };
            if memoisable[i] && calls_unmemoisable() {
                memoisable[i] = false;
                changed = true;
            }
        }
    }
    for (f, memoisable) in funcs.iter_mut().zip(memoisable) {
        f.memoisable = memoisable;
    }
}

fn compile_kernel(program: &Program, func_ids: &HashMap<&str, u32>) -> CompiledFunc {
    let escaping = escaping_names(&program.kernel.body);
    let mut c = FnCompiler::new(program, func_ids, true, escaping);
    // Mirrors the tree walker's environment setup: the permutation table is
    // bound before the parameters in the same (outermost) scope.
    c.declare("permutations", None);
    for p in &program.kernel.params {
        c.declare(&p.name, Some((p.ty.clone(), AddressSpace::Private)));
    }
    for stmt in program.kernel.body.iter() {
        c.stmt(stmt);
    }
    c.emit(Instr::ReturnKernel { has_value: false });
    c.finish(program.kernel.name.clone(), program.kernel.params.clone())
}

fn compile_helper(
    program: &Program,
    func_ids: &HashMap<&str, u32>,
    func: &clc::FunctionDef,
) -> CompiledFunc {
    let mut c = FnCompiler::new(program, func_ids, false, escaping_names(&func.body));
    for p in &func.params {
        c.declare(&p.name, Some((p.ty.clone(), AddressSpace::Private)));
    }
    // The body block gets its own scope, as in `exec_block`.
    let scoped = c.enter_scope_for(&func.body);
    for stmt in func.body.iter() {
        c.stmt(stmt);
    }
    c.exit_scope_if(scoped);
    // Falling off the end of a function yields `int 0`.
    c.emit(Instr::Return { has_value: false });
    c.finish(func.name.clone(), func.params.clone())
}

struct LoopFrame {
    /// Materialised scopes open just *outside* the loop-body scope;
    /// `break` / `continue` emit one `ExitScope` per scope open beyond it.
    exit_to: usize,
    break_patches: Vec<usize>,
    /// `Some(head)` for `while` (continue re-tests the condition);
    /// `None` for `for` (continue jumps forward to the update, patched).
    continue_target: Option<u32>,
    continue_patches: Vec<usize>,
}

/// How a name resolves at compile time: to a frame slot holding an object,
/// or to a scalar register in the frame's register bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    Slot(u16),
    Reg(u16),
}

struct FnCompiler<'p> {
    program: &'p Program,
    func_ids: &'p HashMap<&'p str, u32>,
    code: Vec<Instr>,
    scopes: Vec<Vec<(String, Binding)>>,
    slot_names: Vec<String>,
    /// Declared type and address space per slot, when statically known
    /// (drives the fused scalar-slot instructions).
    slot_meta: Vec<Option<(Type, AddressSpace)>>,
    /// Register name and declared scalar type, indexed by register id.
    regs: Vec<(String, ScalarType)>,
    /// Names escape analysis found unsuitable for register allocation.
    escaping: HashSet<&'p str>,
    loops: Vec<LoopFrame>,
    in_kernel: bool,
    /// Number of *materialised* runtime scopes open at the current emission
    /// point.  Scopes that declare nothing are elided: the tree walker
    /// pushes and pops them, but popping an empty scope frees nothing, so
    /// eliding them is unobservable.
    open_scopes: usize,
}

impl<'p> FnCompiler<'p> {
    fn new(
        program: &'p Program,
        func_ids: &'p HashMap<&'p str, u32>,
        in_kernel: bool,
        escaping: HashSet<&'p str>,
    ) -> Self {
        FnCompiler {
            program,
            func_ids,
            code: Vec::new(),
            scopes: vec![Vec::new()],
            slot_names: Vec::new(),
            slot_meta: Vec::new(),
            regs: Vec::new(),
            escaping,
            loops: Vec::new(),
            in_kernel,
            open_scopes: 0,
        }
    }

    fn finish(self, name: String, params: Vec<Param>) -> CompiledFunc {
        debug_assert_eq!(self.open_scopes, 0, "unbalanced scopes in `{name}`");
        CompiledFunc {
            name,
            code: self.code,
            n_slots: self.slot_names.len(),
            slot_names: self.slot_names,
            n_regs: self.regs.len(),
            reg_names: self.regs.into_iter().map(|(n, _)| n).collect(),
            params,
            memoisable: false,
        }
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::Branch { target: t, .. }
            | Instr::ShortCircuit { end: t, .. } => *t = target,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    fn declare(&mut self, name: &str, meta: Option<(Type, AddressSpace)>) -> u16 {
        let slot = self.slot_names.len() as u16;
        self.slot_names.push(name.to_string());
        self.slot_meta.push(meta);
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), Binding::Slot(slot)));
        slot
    }

    fn declare_reg(&mut self, name: &str, ty: ScalarType) -> u16 {
        let reg = self.regs.len() as u16;
        self.regs.push((name.to_string(), ty));
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), Binding::Reg(reg)));
        reg
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| n == name).map(|&(_, b)| b))
    }

    /// Looks a name up only when it resolves to a register.
    fn lookup_reg(&self, name: &str) -> Option<(u16, ScalarType)> {
        match self.lookup(name) {
            Some(Binding::Reg(reg)) => Some((reg, self.regs[reg as usize].1)),
            _ => None,
        }
    }

    /// Looks a name up only when it resolves to a slot.
    fn lookup_slot(&self, name: &str) -> Option<u16> {
        match self.lookup(name) {
            Some(Binding::Slot(slot)) => Some(slot),
            _ => None,
        }
    }

    /// Whether a declaration will be register-allocated: a non-`volatile`
    /// private scalar with no brace initialiser whose name never escapes.
    fn is_reg_decl(&self, name: &str, ty: &Type, space: AddressSpace, volatile: bool) -> bool {
        space != AddressSpace::Local
            && !volatile
            && matches!(ty, Type::Scalar(_))
            && !self.escaping.contains(name)
    }

    /// Whether a statement is a declaration that allocates a memory object
    /// (register declarations don't, so scopes containing only them can be
    /// elided like declaration-free scopes).
    fn decl_needs_object(&self, stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                space,
                volatile,
                init_list,
                ..
            } => init_list.is_some() || !self.is_reg_decl(name, ty, *space, *volatile),
            _ => false,
        }
    }

    /// Statically resolves a `Var` / `.field` / constant-`[idx]` lvalue
    /// chain over a slot with known declared layout to a (slot, cell
    /// offset, leaf type, sharedness) quadruple.  Chains the tree walker
    /// would reject at runtime (missing fields, out-of-range constant
    /// indices) return `None` so the generic lowering preserves the
    /// runtime error.  Sub-expressions of folded chains are side-effect
    /// free (names and integer literals), so folding them is unobservable.
    fn static_slot_path(&self, expr: &Expr) -> Option<(u16, u32, Type, bool)> {
        match expr {
            Expr::Var(name) => {
                let slot = self.lookup_slot(name)?;
                let (ty, space) = self.slot_meta[slot as usize].clone()?;
                Some((slot, 0, ty, space.is_shared()))
            }
            Expr::Field {
                base,
                field,
                arrow: false,
            } => {
                let (slot, offset, ty, shared) = self.static_slot_path(base)?;
                let (field_offset, field_ty) = ty.field_of(field, &self.program.structs)?;
                Some((slot, offset + field_offset as u32, field_ty.clone(), shared))
            }
            Expr::Index { base, index } => {
                let Expr::IntLit { value, .. } = &**index else {
                    return None;
                };
                let (slot, offset, ty, shared) = self.static_slot_path(base)?;
                let Type::Array(elem, len) = ty else {
                    return None;
                };
                if *value < 0 || *value as usize >= len {
                    return None;
                }
                let stride = elem.cell_count(&self.program.structs);
                Some((
                    slot,
                    offset + (*value as usize * stride) as u32,
                    *elem,
                    shared,
                ))
            }
            _ => None,
        }
    }

    /// Emits a fused load when `expr` is a statically resolved scalar
    /// location; returns whether it did.
    fn emit_static_load(&mut self, expr: &Expr) -> bool {
        let Some((slot, offset, Type::Scalar(ty), shared)) = self.static_slot_path(expr) else {
            return false;
        };
        self.emit(Instr::LoadScalarSlot {
            slot,
            offset,
            ty,
            shared,
        });
        true
    }

    /// Opens a compile-time name scope, materialising a runtime scope only
    /// when requested; returns whether one was materialised.
    fn enter_scope_cond(&mut self, materialise: bool) -> bool {
        self.scopes.push(Vec::new());
        if materialise {
            self.open_scopes += 1;
            self.emit(Instr::EnterScope);
        }
        materialise
    }

    /// Opens a runtime scope for `block` only when it directly declares
    /// memory-allocated variables (popping an empty scope frees nothing, and
    /// register declarations own no objects, so eliding it is unobservable).
    fn enter_scope_for(&mut self, block: &clc::stmt::Block) -> bool {
        let needed = block.iter().any(|s| self.decl_needs_object(s));
        self.enter_scope_cond(needed)
    }

    fn exit_scope_if(&mut self, materialised: bool) {
        self.scopes.pop();
        if materialised {
            self.open_scopes -= 1;
            self.emit(Instr::ExitScope);
        }
    }

    /// Emits `n` runtime scope exits for a jump path (`break` / `continue`)
    /// without closing the compiler's lexical scopes: the code after the
    /// jump is still inside them.
    fn emit_scope_exits(&mut self, n: usize) {
        for _ in 0..n {
            self.emit(Instr::ExitScope);
        }
    }

    fn fail(&mut self, e: RuntimeError) {
        self.emit(Instr::Fail(Box::new(e)));
    }

    // --- statements --------------------------------------------------------

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                space,
                volatile,
                init,
                init_list,
            } => self.decl(
                name,
                ty,
                *space,
                *volatile,
                init.as_ref(),
                init_list.as_ref(),
            ),
            Stmt::Expr(e) => self.expr_stmt(e),
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.expr(cond);
                // The resumable machine evaluates the condition of a
                // barrier-containing `if` permissively; the recursive
                // evaluator rejects non-scalar conditions.
                let kind = if self.in_kernel && stmt.contains_barrier() {
                    BranchKind::Permissive
                } else {
                    BranchKind::IfCond
                };
                let br = self.emit(Instr::Branch { target: 0, kind });
                let scoped = self.enter_scope_for(then_block);
                for s in then_block.iter() {
                    self.stmt(s);
                }
                self.exit_scope_if(scoped);
                match else_block {
                    Some(eb) => {
                        let jmp = self.emit(Instr::Jump(0));
                        let else_at = self.here();
                        self.patch(br, else_at);
                        let scoped = self.enter_scope_for(eb);
                        for s in eb.iter() {
                            self.stmt(s);
                        }
                        self.exit_scope_if(scoped);
                        let end = self.here();
                        self.patch(jmp, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(br, end);
                    }
                }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                // Layout:
                //   EnterScope (for-scope, when init declares)   <init>
                //   head: <cond> BranchFalse(exit)
                //         EnterScope <body> ExitScope
                //   cont: <update> Jump(head)
                //   exit: ExitScope (for-scope)
                //
                // Barrier-containing kernel loops run on the tree walker's
                // resumable machine, which keeps loop-body declarations in
                // the loop-level scope (alive across iterations) rather
                // than a per-iteration scope; mirror that by folding the
                // body's declarations into the for-scope.
                let barrier_loop = self.in_kernel && stmt.contains_barrier();
                let body_declares = body.iter().any(|s| self.decl_needs_object(s));
                let for_scoped = self.enter_scope_cond(
                    init.as_deref().is_some_and(|s| self.decl_needs_object(s))
                        || (barrier_loop && body_declares),
                );
                if let Some(init) = init {
                    self.stmt(init);
                }
                let head = self.here();
                let cond_branch = cond.as_ref().map(|c| {
                    self.expr(c);
                    self.emit(Instr::Branch {
                        target: 0,
                        kind: BranchKind::Permissive,
                    })
                });
                let exit_to = self.open_scopes;
                let body_scoped = if barrier_loop {
                    self.enter_scope_cond(false)
                } else {
                    self.enter_scope_for(body)
                };
                self.loops.push(LoopFrame {
                    exit_to,
                    break_patches: Vec::new(),
                    continue_target: None,
                    continue_patches: Vec::new(),
                });
                for s in body.iter() {
                    self.stmt(s);
                }
                let frame = self.loops.pop().expect("loop frame");
                self.exit_scope_if(body_scoped);
                let cont = self.here();
                for at in frame.continue_patches {
                    self.patch(at, cont);
                }
                if let Some(u) = update {
                    self.expr_stmt(u);
                }
                self.emit(Instr::Jump(head));
                let exit = self.here();
                if let Some(br) = cond_branch {
                    self.patch(br, exit);
                }
                for at in frame.break_patches {
                    self.patch(at, exit);
                }
                self.exit_scope_if(for_scoped);
            }
            Stmt::While { cond, body } => {
                // As with `for`: a barrier-containing kernel `while` keeps
                // its body declarations in a loop-level scope (the machine's
                // while-scope), alive across iterations.
                let barrier_loop = self.in_kernel && stmt.contains_barrier();
                let body_declares = body.iter().any(|s| self.decl_needs_object(s));
                let loop_scoped = self.enter_scope_cond(barrier_loop && body_declares);
                let head = self.here();
                self.expr(cond);
                let br = self.emit(Instr::Branch {
                    target: 0,
                    kind: BranchKind::Permissive,
                });
                let exit_to = self.open_scopes;
                let body_scoped = if barrier_loop {
                    self.enter_scope_cond(false)
                } else {
                    self.enter_scope_for(body)
                };
                self.loops.push(LoopFrame {
                    exit_to,
                    break_patches: Vec::new(),
                    continue_target: Some(head),
                    continue_patches: Vec::new(),
                });
                for s in body.iter() {
                    self.stmt(s);
                }
                let frame = self.loops.pop().expect("loop frame");
                self.exit_scope_if(body_scoped);
                self.emit(Instr::Jump(head));
                let end = self.here();
                self.patch(br, end);
                for at in frame.break_patches {
                    self.patch(at, end);
                }
                self.exit_scope_if(loop_scoped);
            }
            Stmt::Block(b) => {
                let scoped = self.enter_scope_for(b);
                for s in b.iter() {
                    self.stmt(s);
                }
                self.exit_scope_if(scoped);
            }
            Stmt::Return(e) => {
                let has_value = e.is_some();
                if let Some(e) = e {
                    self.expr(e);
                }
                if self.in_kernel {
                    self.emit(Instr::ReturnKernel { has_value });
                } else {
                    self.emit(Instr::Return { has_value });
                }
            }
            Stmt::Break => match self.loops.last() {
                Some(frame) => {
                    let exits = self.open_scopes - frame.exit_to;
                    self.emit_scope_exits(exits);
                    let at = self.emit(Instr::Jump(0));
                    self.loops
                        .last_mut()
                        .expect("loop frame")
                        .break_patches
                        .push(at);
                }
                None => self.fail(RuntimeError::Unsupported(if self.in_kernel {
                    "break outside of a loop in kernel body".into()
                } else {
                    "break/continue escaping a function body".into()
                })),
            },
            Stmt::Continue => match self.loops.last() {
                Some(frame) => {
                    let exits = self.open_scopes - frame.exit_to;
                    let target = frame.continue_target;
                    self.emit_scope_exits(exits);
                    match target {
                        Some(head) => {
                            self.emit(Instr::Jump(head));
                        }
                        None => {
                            let at = self.emit(Instr::Jump(0));
                            self.loops
                                .last_mut()
                                .expect("loop frame")
                                .continue_patches
                                .push(at);
                        }
                    }
                }
                None => self.fail(RuntimeError::Unsupported(if self.in_kernel {
                    "continue outside of a loop in kernel body".into()
                } else {
                    "break/continue escaping a function body".into()
                })),
            },
            Stmt::Barrier(_) => {
                if self.in_kernel {
                    self.emit(Instr::Barrier);
                } else {
                    self.emit(Instr::SoftBarrier);
                }
            }
            Stmt::Emi(emi) => {
                // The guard is `dead[a] < dead[b]`, evaluated permissively,
                // exactly as `emi_guard_is_true` builds it.
                let guard = Expr::binary(
                    BinOp::Lt,
                    Expr::index(Expr::var("dead"), Expr::int(emi.guard.0 as i64)),
                    Expr::index(Expr::var("dead"), Expr::int(emi.guard.1 as i64)),
                );
                self.expr(&guard);
                let br = self.emit(Instr::Branch {
                    target: 0,
                    kind: BranchKind::Permissive,
                });
                let scoped = self.enter_scope_for(&emi.body);
                for s in emi.body.iter() {
                    self.stmt(s);
                }
                self.exit_scope_if(scoped);
                let end = self.here();
                self.patch(br, end);
            }
        }
    }

    fn decl(
        &mut self,
        name: &str,
        ty: &Type,
        space: AddressSpace,
        volatile: bool,
        init: Option<&Expr>,
        init_list: Option<&Initializer>,
    ) {
        if space == AddressSpace::Local {
            // One zero-initialised allocation per work-group; initialisers
            // are not evaluated (OpenCL forbids them on `local`).
            let slot = self.declare(name, Some((ty.clone(), AddressSpace::Local)));
            self.emit(Instr::DeclLocal {
                slot,
                name: name.into(),
                ty: Box::new(ty.clone()),
            });
            return;
        }
        if init_list.is_none() && self.is_reg_decl(name, ty, space, volatile) {
            let Type::Scalar(sty) = ty else {
                unreachable!("is_reg_decl only accepts scalar types")
            };
            match init {
                // Literal initialisers fold into the declaration, with the
                // conversion to the declared type done at compile time.
                Some(Expr::IntLit { value, ty: lty }) => {
                    let reg = self.declare_reg(name, *sty);
                    let bits = Scalar::from_i128(*value, *lty).convert(*sty).bits;
                    self.emit(Instr::DeclRegInit { reg, bits });
                }
                Some(e) => {
                    // As with `DeclPrivate` + `InitSlot`, the name is bound
                    // (uninitialised) before the initialiser is evaluated,
                    // so `int x = x + 1;` reads the new, unset `x`.
                    let reg = self.declare_reg(name, *sty);
                    self.emit(Instr::DeclReg { reg });
                    self.expr(e);
                    self.emit(Instr::StoreReg {
                        reg,
                        ty: *sty,
                        op: None,
                        push: false,
                    });
                }
                None => {
                    let reg = self.declare_reg(name, *sty);
                    self.emit(Instr::DeclReg { reg });
                }
            }
            return;
        }
        let slot = self.declare(name, Some((ty.clone(), AddressSpace::Private)));
        self.emit(Instr::DeclPrivate {
            slot,
            name: name.into(),
            ty: Box::new(ty.clone()),
        });
        if let Some(e) = init {
            self.expr(e);
            self.emit(Instr::InitSlot {
                slot,
                ty: Box::new(ty.clone()),
            });
        } else if let Some(list) = init_list {
            // Brace initialisation zero-fills unspecified members.
            let cells = ty.cell_count(&self.program.structs) as u32;
            self.emit(Instr::ZeroFill { slot, cells });
            self.initializer(slot, 0, ty, list);
        }
    }

    /// Lowers a brace initialiser, folding member offsets at compile time
    /// (mirrors `apply_initializer`).
    fn initializer(&mut self, slot: u16, offset: u32, ty: &Type, init: &Initializer) {
        match (ty, init) {
            (_, Initializer::Expr(e)) => {
                self.expr(e);
                self.emit(Instr::InitAt {
                    slot,
                    offset,
                    ty: Box::new(ty.clone()),
                });
            }
            (Type::Array(elem, len), Initializer::List(items)) => {
                let stride = elem.cell_count(&self.program.structs) as u32;
                for (i, item) in items.iter().enumerate() {
                    if i >= *len {
                        break;
                    }
                    self.initializer(slot, offset + i as u32 * stride, elem, item);
                }
            }
            (Type::Struct(id), Initializer::List(items)) => {
                let def = self.program.struct_def(*id).clone();
                if def.is_union {
                    // Only the first member is initialised.
                    if let (Some(field), Some(item)) = (def.fields.first(), items.first()) {
                        self.initializer(slot, offset, &field.ty, item);
                    }
                    return;
                }
                let mut field_offset = 0u32;
                for (field, item) in def.fields.iter().zip(items) {
                    self.initializer(slot, offset + field_offset, &field.ty, item);
                    field_offset += field.ty.cell_count(&self.program.structs) as u32;
                }
            }
            (Type::Vector(elem, width), Initializer::List(items)) => {
                for (i, item) in items.iter().enumerate() {
                    if i >= width.lanes() {
                        break;
                    }
                    self.initializer(slot, offset + i as u32, &Type::Scalar(*elem), item);
                }
            }
            (other, Initializer::List(_)) => {
                self.fail(RuntimeError::TypeMismatch {
                    detail: format!("brace initialiser for non-aggregate {other:?}"),
                });
            }
        }
    }

    // --- expressions -------------------------------------------------------

    /// Compiles an expression in statement position (result discarded):
    /// assignments skip the result push entirely.
    fn expr_stmt(&mut self, expr: &Expr) {
        if let Expr::Assign { op, lhs, rhs } = expr {
            self.assign(op.binop(), lhs, rhs, false);
        } else {
            self.expr(expr);
            self.emit(Instr::Pop);
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::IntLit { value, ty } => {
                self.emit(Instr::Const(Scalar::from_i128(*value, *ty)));
            }
            Expr::VectorLit { elem, width, parts } => {
                for p in parts {
                    self.expr(p);
                }
                self.emit(Instr::MakeVector {
                    elem: *elem,
                    width: *width,
                    parts: parts.len() as u16,
                });
            }
            Expr::Var(name) => {
                if let Some((reg, ty)) = self.lookup_reg(name) {
                    self.emit(Instr::LoadReg { reg, ty });
                    return;
                }
                if self.emit_static_load(expr) {
                    return;
                }
                match self.lookup_slot(name) {
                    Some(slot) => {
                        self.emit(Instr::LoadSlot(slot));
                    }
                    None => {
                        self.emit(Instr::PlaceGroupLocal(name.as_str().into()));
                        self.emit(Instr::LoadPlace);
                    }
                }
            }
            Expr::Index { .. } | Expr::Field { .. } => {
                if self.emit_static_load(expr) {
                    return;
                }
                self.place(expr);
                self.emit(Instr::LoadPlace);
            }
            Expr::Deref(_) => {
                self.place(expr);
                self.emit(Instr::LoadPlace);
            }
            Expr::Swizzle { base, lanes } => {
                self.expr(base);
                self.emit(Instr::Swizzle(lanes.clone().into_boxed_slice()));
            }
            Expr::Unary { op, expr } => {
                self.expr(expr);
                self.emit(Instr::Unary(*op));
            }
            Expr::Binary { op, lhs, rhs } => {
                if op.is_logical() {
                    self.expr(lhs);
                    let sc = self.emit(Instr::ShortCircuit {
                        is_and: *op == BinOp::LAnd,
                        end: 0,
                    });
                    self.expr(rhs);
                    self.emit(Instr::TruthToInt);
                    let end = self.here();
                    self.patch(sc, end);
                } else if let Expr::IntLit { value, ty } = &**rhs {
                    // Literal right operands fold into the instruction; a
                    // literal has no side effects, so evaluation order is
                    // unobservable.
                    let imm = Scalar::from_i128(*value, *ty);
                    // `i < N` / `i + 1` on a register fuses the load too.
                    if let Expr::Var(name) = &**lhs {
                        if let Some((reg, rty)) = self.lookup_reg(name) {
                            self.emit(Instr::RegBinopImm {
                                reg,
                                ty: rty,
                                op: *op,
                                imm,
                            });
                            return;
                        }
                    }
                    self.expr(lhs);
                    self.emit(Instr::BinaryImm { op: *op, imm });
                } else {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.emit(Instr::Binary(*op));
                }
            }
            Expr::Assign { op, lhs, rhs } => self.assign(op.binop(), lhs, rhs, true),
            Expr::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond);
                let br = self.emit(Instr::Branch {
                    target: 0,
                    kind: BranchKind::Ternary,
                });
                self.expr(then_expr);
                let jmp = self.emit(Instr::Jump(0));
                let else_at = self.here();
                self.patch(br, else_at);
                self.expr(else_expr);
                let end = self.here();
                self.patch(jmp, end);
            }
            Expr::Comma { lhs, rhs } => {
                self.expr(lhs);
                self.emit(Instr::Pop);
                self.expr(rhs);
            }
            Expr::Call { name, args } => {
                // The tree walker checks depth, existence and arity before
                // evaluating any argument.
                self.emit(Instr::CheckDepth);
                let Some(&func) = self.func_ids.get(name.as_str()) else {
                    self.fail(RuntimeError::UnknownFunction(name.clone()));
                    return;
                };
                let expected = self.program.functions[func as usize - 1].params.len();
                if args.len() != expected {
                    self.fail(RuntimeError::TypeMismatch {
                        detail: format!(
                            "call to `{name}` with {} args, expected {}",
                            args.len(),
                            expected
                        ),
                    });
                    return;
                }
                for a in args {
                    self.expr(a);
                }
                self.emit(Instr::Call {
                    func,
                    argc: args.len() as u16,
                });
            }
            Expr::BuiltinCall { func, args } => {
                if func.is_atomic() {
                    let Some(ptr) = args.first() else {
                        self.fail(RuntimeError::Unsupported(format!(
                            "atomic builtin {} with no arguments",
                            func.name()
                        )));
                        return;
                    };
                    self.expr(ptr);
                    self.emit(Instr::AtomicBegin);
                    for a in &args[1..] {
                        self.expr(a);
                    }
                    self.emit(Instr::AtomicEnd {
                        func: *func,
                        argc: args.len() as u16,
                    });
                } else {
                    for a in args {
                        self.expr(a);
                    }
                    self.emit(Instr::CallBuiltin {
                        func: *func,
                        argc: args.len() as u16,
                    });
                }
            }
            Expr::IdQuery(kind) => {
                self.emit(Instr::Id(*kind));
            }
            Expr::AddrOf(inner) => {
                self.place(inner);
                self.emit(Instr::AddrOf);
            }
            Expr::Cast { ty, expr } => {
                self.expr(expr);
                self.emit(Instr::Cast(Box::new(ty.clone())));
            }
        }
    }

    /// Lowers an assignment: right-hand side first, then the target, as in
    /// the tree walker.  Registers and statically resolved scalar locations
    /// use the fused store instructions.
    fn assign(&mut self, op: Option<BinOp>, lhs: &Expr, rhs: &Expr, push: bool) {
        if let Expr::Var(name) = lhs {
            if let Some((reg, ty)) = self.lookup_reg(name) {
                // Literal right-hand sides fold into the store; a literal
                // has no side effects, so the fold is unobservable.
                if let Expr::IntLit { value, ty: lty } = rhs {
                    self.emit(Instr::StoreRegImm {
                        reg,
                        ty,
                        op,
                        imm: Scalar::from_i128(*value, *lty),
                        push,
                    });
                } else {
                    self.expr(rhs);
                    self.emit(Instr::StoreReg { reg, ty, op, push });
                }
                return;
            }
        }
        self.expr(rhs);
        if let Expr::Swizzle { base, lanes } = lhs {
            if lanes.len() > 1 {
                self.place(base);
                self.emit(Instr::StoreLanes {
                    lanes: lanes.clone().into_boxed_slice(),
                    op,
                    push,
                });
                return;
            }
        }
        if let Some((slot, offset, Type::Scalar(ty), shared)) = self.static_slot_path(lhs) {
            self.emit(Instr::StoreScalarSlot {
                slot,
                offset,
                ty,
                op,
                shared,
                push,
            });
            return;
        }
        self.place(lhs);
        self.emit(Instr::Store { op, push });
    }

    /// Lowers an lvalue expression to place-stack instructions (mirrors
    /// `eval_place`).
    fn place(&mut self, expr: &Expr) {
        match expr {
            Expr::Var(name) => match self.lookup(name) {
                Some(Binding::Slot(slot)) => {
                    self.emit(Instr::PlaceSlot(slot));
                }
                // Unreachable by construction: escape analysis keeps any
                // name used in place position out of the register bank.
                Some(Binding::Reg(_)) => self.fail(RuntimeError::TypeMismatch {
                    detail: format!("register variable `{name}` used as an lvalue"),
                }),
                None => {
                    self.emit(Instr::PlaceGroupLocal(name.as_str().into()));
                }
            },
            Expr::Deref(inner) => {
                self.expr(inner);
                self.emit(Instr::PlaceDeref);
            }
            Expr::Index { base, index } => {
                // Index value first, then the base place, as in the tree
                // walker's `eval_place`.
                self.expr(index);
                self.place(base);
                self.emit(Instr::ResolveIndexable);
                self.emit(Instr::IndexPlace);
            }
            Expr::Field { base, field, arrow } => {
                if *arrow {
                    self.expr(base);
                    self.emit(Instr::PlaceDeref);
                } else {
                    self.place(base);
                }
                self.emit(Instr::FieldPlace(field.as_str().into()));
            }
            Expr::Swizzle { base, lanes } if lanes.len() == 1 => {
                self.place(base);
                self.emit(Instr::LanePlace(lanes[0]));
            }
            other => self.fail(RuntimeError::TypeMismatch {
                detail: format!("expression is not an lvalue: {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::stmt::Block;
    use clc::{BufferSpec, KernelDef, LaunchConfig};

    fn program_with_body(stmts: Vec<Stmt>) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(stmts),
            },
            LaunchConfig::single_group(2),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 2));
        p
    }

    #[test]
    fn straight_line_kernel_compiles_to_flat_code() {
        let p = program_with_body(vec![Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::int(7),
        )]);
        let c = compile(&p);
        assert_eq!(c.funcs.len(), 1);
        assert!(!c.funcs[KERNEL_FUNC].code.is_empty());
        // Kernel slots: permutations + out.
        assert_eq!(c.funcs[KERNEL_FUNC].n_slots, 2);
        // No unresolved jumps (all targets within the stream).
        for instr in &c.funcs[KERNEL_FUNC].code {
            if let Instr::Jump(t) | Instr::Branch { target: t, .. } = instr {
                assert!((*t as usize) <= c.funcs[KERNEL_FUNC].code.len());
            }
        }
    }

    #[test]
    fn barriers_lower_to_sites_in_kernel_and_soft_in_functions() {
        let mut p = program_with_body(vec![Stmt::Barrier(clc::MemFence::Local)]);
        p.functions.push(clc::FunctionDef::new(
            "f",
            None,
            vec![],
            Block::of(vec![Stmt::Barrier(clc::MemFence::Local)]),
        ));
        let c = compile(&p);
        assert!(c.funcs[KERNEL_FUNC]
            .code
            .iter()
            .any(|i| matches!(i, Instr::Barrier)));
        assert!(c.funcs[1]
            .code
            .iter()
            .any(|i| matches!(i, Instr::SoftBarrier)));
        assert!(!c.funcs[1].code.iter().any(|i| matches!(i, Instr::Barrier)));
    }

    #[test]
    fn break_outside_loop_lowers_to_fail() {
        let p = program_with_body(vec![Stmt::Break]);
        let c = compile(&p);
        assert!(c.funcs[KERNEL_FUNC]
            .code
            .iter()
            .any(|i| matches!(i, Instr::Fail(e) if matches!(**e, RuntimeError::Unsupported(_)))));
    }

    #[test]
    fn unknown_names_fall_back_to_group_local_lookup() {
        let p = program_with_body(vec![Stmt::assign(
            Expr::index(Expr::var("out"), Expr::int(0)),
            Expr::var("nonexistent"),
        )]);
        let c = compile(&p);
        assert!(c.funcs[KERNEL_FUNC]
            .code
            .iter()
            .any(|i| matches!(i, Instr::PlaceGroupLocal(n) if &**n == "nonexistent")));
    }
}
