//! The *mutator* third of the generator → mutator → feedback
//! decomposition: seeded, deterministic rewrites over generated ASTs.
//!
//! Regenerating a kernel from scratch throws away everything a campaign
//! learned about it; mutating an interesting kernel keeps its structure
//! while perturbing one dimension at a time (the IRFuzzer observation that
//! mutation over structured compiler inputs beats regeneration).  Every
//! mutation here is a small rewrite that
//!
//! * is **deterministic**: `mutate(p, seed)` always produces the same
//!   mutant (it reuses [`clsmith::rng`](crate::rng), the generator's own
//!   PRNG);
//! * **preserves validity**: mutants still type-check and keep the
//!   generator's UB-freedom invariants (§4 of the paper) — safe-math stays
//!   safe-math, barriers stay uniform at the kernel-body top level, no
//!   work-item ids leak into expressions, no declaration is removed;
//! * may **change semantics** — that is the point: a mutant explores
//!   different constant ranges, vector shapes, schedules and sync
//!   patterns than its parent, lighting different
//!   [`CoverageMap`](crate::feedback::CoverageMap) bits.
//!
//! Validity is protected by construction: mutations never touch the
//! communication idioms' bookkeeping (the `out`/`result` observables, the
//! barrier shuffle array `A`/`A_global`/`A_offset`, atomic-section
//! counters `sec_*`, reduction buffers `red`/`total`), never remove
//! barriers or declarations, and only insert barriers at the kernel-body
//! top level where uniformity is structural (the kernel body has no early
//! returns).

use crate::generator::KernelSource;
use crate::rng::{Rng, SliceRandom};
use clc::expr::{BinOp, Builtin, Expr};
use clc::stmt::{Block, MemFence, Stmt};
use clc::types::{ScalarType, Type, VectorWidth};
use clc::Program;

/// The mutation grammar: one variant per rewrite family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Duplicate a thread-private top-level statement in place.
    SpliceStatement,
    /// Remove a thread-private top-level statement (never a declaration,
    /// barrier, atomic or EMI block).
    DropStatement,
    /// Perturb an integer literal in a thread-private expression, clamped
    /// to its type's range (array indices and loop bounds excluded).
    NudgeLiteral,
    /// Rewrite one `(element, width)` vector equivalence class to a new
    /// width program-wide (declarations, struct fields, literals, casts).
    NudgeVectorWidth,
    /// Insert an extra barrier at the kernel-body top level, where
    /// uniformity is structural.
    ToggleBarrier,
    /// Swap one commutative atomic read-modify-write for another
    /// (`add`/`min`/`max`/`and`/`or`/`xor`; the `atomic_inc` rank gates of
    /// atomic sections are never touched).
    ToggleAtomicOp,
    /// Replace a literal `for`-loop bound with a fresh one in `1..=10`.
    PerturbLoopBound,
}

impl MutationKind {
    /// Every mutation kind, in declaration order.
    pub const ALL: [MutationKind; 7] = [
        MutationKind::SpliceStatement,
        MutationKind::DropStatement,
        MutationKind::NudgeLiteral,
        MutationKind::NudgeVectorWidth,
        MutationKind::ToggleBarrier,
        MutationKind::ToggleAtomicOp,
        MutationKind::PerturbLoopBound,
    ];

    /// Short lowercase name for reports and journal tokens.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::SpliceStatement => "splice",
            MutationKind::DropStatement => "drop",
            MutationKind::NudgeLiteral => "literal",
            MutationKind::NudgeVectorWidth => "vecwidth",
            MutationKind::ToggleBarrier => "barrier",
            MutationKind::ToggleAtomicOp => "atomic",
            MutationKind::PerturbLoopBound => "loopbound",
        }
    }
}

/// A mutation that was applied: which rewrite, at which (deterministic)
/// candidate site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutation {
    /// The rewrite family.
    pub kind: MutationKind,
    /// Index into the rewrite's deterministic candidate enumeration.
    pub site: usize,
}

/// Applies one seeded mutation to `program`.
///
/// The seed picks both the mutation kind (trying kinds in a seeded order
/// until one is applicable) and the rewrite site.  Returns `None` only if
/// no kind applies — practically impossible, since
/// [`ToggleBarrier`](MutationKind::ToggleBarrier) always applies.
///
/// Deterministic: same `(program, seed)` in, same mutant out.
pub fn mutate(program: &Program, seed: u64) -> Option<(Program, Mutation)> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut kinds = MutationKind::ALL.to_vec();
    kinds.shuffle(&mut rng);
    for kind in kinds {
        if let Some(result) = try_apply(program, kind, &mut rng) {
            return Some(result);
        }
    }
    None
}

fn try_apply(program: &Program, kind: MutationKind, rng: &mut Rng) -> Option<(Program, Mutation)> {
    match kind {
        MutationKind::SpliceStatement => splice_statement(program, rng),
        MutationKind::DropStatement => drop_statement(program, rng),
        MutationKind::NudgeLiteral => nudge_literal(program, rng),
        MutationKind::NudgeVectorWidth => nudge_vector_width(program, rng),
        MutationKind::ToggleBarrier => toggle_barrier(program, rng),
        MutationKind::ToggleAtomicOp => toggle_atomic_op(program, rng),
        MutationKind::PerturbLoopBound => perturb_loop_bound(program, rng),
    }
}

// ----- eligibility -------------------------------------------------------

/// Names owned by the communication idioms and the result epilogue; any
/// statement touching them is off-limits for structural rewrites.
fn protected_name(name: &str) -> bool {
    matches!(
        name,
        "out" | "dead" | "A" | "A_global" | "A_offset" | "red" | "total" | "result"
    ) || name.starts_with("sec_")
}

fn stmt_mentions_protected(stmt: &Stmt) -> bool {
    let mut found = false;
    stmt.for_each_expr(true, &mut |e| {
        if let Expr::Var(name) = e {
            if protected_name(name) {
                found = true;
            }
        }
    });
    found
}

fn stmt_has_atomic(stmt: &Stmt) -> bool {
    let mut found = false;
    stmt.for_each_expr(true, &mut |e| {
        if let Expr::BuiltinCall { func, .. } = e {
            if func.is_atomic() {
                found = true;
            }
        }
    });
    found
}

fn stmt_has_emi(stmt: &Stmt) -> bool {
    let mut found = false;
    stmt.for_each(&mut |s| {
        if matches!(s, Stmt::Emi(_)) {
            found = true;
        }
    });
    found
}

/// Whether a top-level kernel statement is pure thread-private computation
/// that can be duplicated or dropped without touching declarations,
/// synchronisation or the communication idioms.
fn transplantable(stmt: &Stmt) -> bool {
    !matches!(stmt, Stmt::Decl { .. } | Stmt::Barrier(_))
        && !stmt.contains_barrier()
        && !stmt_has_emi(stmt)
        && !stmt_has_atomic(stmt)
        && !stmt_mentions_protected(stmt)
}

/// Whether an expression tree is safe for literal nudging: no array
/// indexing (out-of-bounds risk), no idiom bookkeeping, no atomics.
fn nudgeable_expr(expr: &Expr) -> bool {
    let mut ok = true;
    expr.for_each(&mut |e| match e {
        Expr::Index { .. } => ok = false,
        Expr::Var(name) if protected_name(name) => ok = false,
        Expr::BuiltinCall { func, .. } if func.is_atomic() => ok = false,
        _ => {}
    });
    ok
}

// ----- traversal helpers -------------------------------------------------

/// Visits the expression roots eligible for literal nudging: statement
/// expressions, declaration initialisers, `if` conditions and `return`
/// values — skipping EMI blocks (dead code), `for`/`while` headers (loop
/// bounds have their own mutation) and every ineligible tree.
fn for_each_nudgeable_root(block: &mut Block, f: &mut impl FnMut(&mut Expr)) {
    for stmt in &mut block.stmts {
        match stmt {
            Stmt::Decl { init: Some(e), .. } if nudgeable_expr(e) => {
                f(e);
            }
            Stmt::Expr(e) if nudgeable_expr(e) => {
                f(e);
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                if nudgeable_expr(cond) {
                    f(cond);
                }
                for_each_nudgeable_root(then_block, f);
                if let Some(b) = else_block {
                    for_each_nudgeable_root(b, f);
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                for_each_nudgeable_root(body, f);
            }
            Stmt::Block(b) => for_each_nudgeable_root(b, f),
            Stmt::Return(Some(e)) if nudgeable_expr(e) => {
                f(e);
            }
            _ => {}
        }
    }
}

fn for_each_nudgeable_root_in_program(program: &mut Program, f: &mut impl FnMut(&mut Expr)) {
    for function in &mut program.functions {
        for_each_nudgeable_root(&mut function.body, f);
    }
    for_each_nudgeable_root(&mut program.kernel.body, f);
}

/// Visits every `for` statement in the program mutably (including dead EMI
/// bodies, where a perturbed bound is harmless by construction).
fn for_each_for_mut(block: &mut Block, f: &mut impl FnMut(&mut Stmt)) {
    for stmt in &mut block.stmts {
        if let Stmt::For { .. } = stmt {
            f(stmt);
        }
        match stmt {
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                for_each_for_mut(then_block, f);
                if let Some(b) = else_block {
                    for_each_for_mut(b, f);
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => for_each_for_mut(body, f),
            Stmt::Block(b) => for_each_for_mut(b, f),
            Stmt::Emi(emi) => for_each_for_mut(&mut emi.body, f),
            _ => {}
        }
    }
}

// ----- the rewrites ------------------------------------------------------

fn splice_statement(program: &Program, rng: &mut Rng) -> Option<(Program, Mutation)> {
    let candidates: Vec<usize> = program
        .kernel
        .body
        .stmts
        .iter()
        .enumerate()
        .filter(|(_, s)| transplantable(s))
        .map(|(i, _)| i)
        .collect();
    let &site = candidates.choose(rng)?;
    let mut mutant = program.clone();
    let copy = mutant.kernel.body.stmts[site].clone();
    mutant.kernel.body.stmts.insert(site + 1, copy);
    Some((
        mutant,
        Mutation {
            kind: MutationKind::SpliceStatement,
            site,
        },
    ))
}

fn drop_statement(program: &Program, rng: &mut Rng) -> Option<(Program, Mutation)> {
    let candidates: Vec<usize> = program
        .kernel
        .body
        .stmts
        .iter()
        .enumerate()
        .filter(|(_, s)| transplantable(s))
        .map(|(i, _)| i)
        .collect();
    // Keep at least one transplantable statement so repeated drops cannot
    // strip the kernel down to pure idiom scaffolding.
    if candidates.len() < 2 {
        return None;
    }
    let &site = candidates.choose(rng)?;
    let mut mutant = program.clone();
    mutant.kernel.body.stmts.remove(site);
    Some((
        mutant,
        Mutation {
            kind: MutationKind::DropStatement,
            site,
        },
    ))
}

fn nudge_literal(program: &Program, rng: &mut Rng) -> Option<(Program, Mutation)> {
    let mut count = 0usize;
    let mut probe = program.clone();
    for_each_nudgeable_root_in_program(&mut probe, &mut |root| {
        root.for_each(&mut |e| {
            if matches!(e, Expr::IntLit { .. }) {
                count += 1;
            }
        });
    });
    if count == 0 {
        return None;
    }
    let target = rng.gen_range(0..count);
    const INTERESTING: [i128; 8] = [0, 1, 2, 7, 31, 255, -1, 65535];
    let mut mutant = program.clone();
    let mut index = 0usize;
    for_each_nudgeable_root_in_program(&mut mutant, &mut |root| {
        root.for_each_mut(&mut |e| {
            if let Expr::IntLit { value, ty } = e {
                if index == target {
                    let mut new = if rng.gen_bool(0.5) {
                        *INTERESTING.choose(rng).unwrap()
                    } else {
                        i128::from(rng.gen_range(-128i64..=1024))
                    };
                    new = new.clamp(ty.min_value(), ty.max_value());
                    if new == *value {
                        new = if new == ty.max_value() {
                            ty.min_value()
                        } else {
                            new + 1
                        };
                    }
                    *value = new;
                }
                index += 1;
            }
        });
    });
    Some((
        mutant,
        Mutation {
            kind: MutationKind::NudgeLiteral,
            site: target,
        },
    ))
}

fn nudge_vector_width(program: &Program, rng: &mut Rng) -> Option<(Program, Mutation)> {
    // Enumerate the vector (element, width) classes in deterministic
    // first-seen order: struct fields, then declarations/literals/casts.
    let mut classes: Vec<(ScalarType, VectorWidth)> = Vec::new();
    let mut note = |elem: ScalarType, width: VectorWidth| {
        if !classes.contains(&(elem, width)) {
            classes.push((elem, width));
        }
    };
    for def in &program.structs {
        for field in &def.fields {
            if let Type::Vector(elem, width) = field.ty {
                note(elem, width);
            }
        }
    }
    let mut seen_in_code: Vec<(ScalarType, VectorWidth)> = Vec::new();
    program.for_each_stmt(&mut |s| {
        if let Stmt::Decl {
            ty: Type::Vector(elem, width),
            ..
        } = s
        {
            seen_in_code.push((*elem, *width));
        }
    });
    program.for_each_expr(&mut |e| match e {
        Expr::VectorLit { elem, width, .. } => seen_in_code.push((*elem, *width)),
        Expr::Cast {
            ty: Type::Vector(elem, width),
            ..
        } => seen_in_code.push((*elem, *width)),
        _ => {}
    });
    for (elem, width) in seen_in_code {
        note(elem, width);
    }
    if classes.is_empty() {
        return None;
    }
    let site = rng.gen_range(0..classes.len());
    let (elem, old) = classes[site];
    let alternatives: Vec<VectorWidth> = VectorWidth::ALL
        .iter()
        .copied()
        .filter(|w| *w != old)
        .collect();
    let new = *alternatives.choose(rng).unwrap();
    let old_lanes = old.lanes();
    let new_lanes = new.lanes();

    let mut mutant = program.clone();
    for def in &mut mutant.structs {
        for field in &mut def.fields {
            if field.ty == Type::Vector(elem, old) {
                field.ty = Type::Vector(elem, new);
            }
        }
    }
    mutant.for_each_block_mut(&mut |block| {
        for stmt in &mut block.stmts {
            if let Stmt::Decl { ty, .. } = stmt {
                if *ty == Type::Vector(elem, old) {
                    *ty = Type::Vector(elem, new);
                }
            }
        }
    });
    mutant.for_each_expr_mut(&mut |e| match e {
        Expr::VectorLit {
            elem: lit_elem,
            width,
            parts,
        } if *lit_elem == elem && *width == old => {
            *width = new;
            if parts.len() == old_lanes {
                if new_lanes < old_lanes {
                    parts.truncate(new_lanes);
                } else {
                    for i in old_lanes..new_lanes {
                        let part = parts[i % old_lanes].clone();
                        parts.push(part);
                    }
                }
            }
        }
        Expr::Cast { ty, .. } if *ty == Type::Vector(elem, old) => {
            *ty = Type::Vector(elem, new);
        }
        // When narrowing, remap every swizzle lane modulo the new width.
        // Lanes only shrink under `%`, so swizzles over *other* vector
        // classes stay in range too — semantics may shift, validity never.
        Expr::Swizzle { lanes, .. } if new_lanes < old_lanes => {
            for lane in lanes {
                *lane %= new_lanes as u8;
            }
        }
        _ => {}
    });
    Some((
        mutant,
        Mutation {
            kind: MutationKind::NudgeVectorWidth,
            site,
        },
    ))
}

fn toggle_barrier(program: &Program, rng: &mut Rng) -> Option<(Program, Mutation)> {
    let site = rng.gen_range(0..=program.kernel.body.stmts.len());
    let fence = *[MemFence::Local, MemFence::Global, MemFence::Both]
        .choose(rng)
        .unwrap();
    let mut mutant = program.clone();
    mutant.kernel.body.stmts.insert(site, Stmt::Barrier(fence));
    Some((
        mutant,
        Mutation {
            kind: MutationKind::ToggleBarrier,
            site,
        },
    ))
}

/// Atomics whose final memory effect is order-independent, so swapping one
/// for another keeps kernels schedule-deterministic.
const COMMUTATIVE_ATOMICS: [Builtin; 6] = [
    Builtin::AtomicAdd,
    Builtin::AtomicMin,
    Builtin::AtomicMax,
    Builtin::AtomicAnd,
    Builtin::AtomicOr,
    Builtin::AtomicXor,
];

fn toggle_atomic_op(program: &Program, rng: &mut Rng) -> Option<(Program, Mutation)> {
    let mut count = 0usize;
    program.for_each_expr(&mut |e| {
        if let Expr::BuiltinCall { func, .. } = e {
            if COMMUTATIVE_ATOMICS.contains(func) {
                count += 1;
            }
        }
    });
    if count == 0 {
        return None;
    }
    let target = rng.gen_range(0..count);
    let mut mutant = program.clone();
    let mut index = 0usize;
    mutant.for_each_expr_mut(&mut |e| {
        if let Expr::BuiltinCall { func, .. } = e {
            if COMMUTATIVE_ATOMICS.contains(func) {
                if index == target {
                    let alternatives: Vec<Builtin> = COMMUTATIVE_ATOMICS
                        .iter()
                        .copied()
                        .filter(|b| b != func)
                        .collect();
                    *func = *alternatives.choose(rng).unwrap();
                }
                index += 1;
            }
        }
    });
    Some((
        mutant,
        Mutation {
            kind: MutationKind::ToggleAtomicOp,
            site: target,
        },
    ))
}

fn literal_for_bound(stmt: &Stmt) -> Option<i128> {
    if let Stmt::For {
        cond: Some(Expr::Binary {
            op: BinOp::Lt, rhs, ..
        }),
        ..
    } = stmt
    {
        if let Expr::IntLit { value, .. } = **rhs {
            return Some(value);
        }
    }
    None
}

fn perturb_loop_bound(program: &Program, rng: &mut Rng) -> Option<(Program, Mutation)> {
    let mut count = 0usize;
    let mut probe = program.clone();
    for function in &mut probe.functions {
        for_each_for_mut(&mut function.body, &mut |s| {
            if literal_for_bound(s).is_some() {
                count += 1;
            }
        });
    }
    for_each_for_mut(&mut probe.kernel.body, &mut |s| {
        if literal_for_bound(s).is_some() {
            count += 1;
        }
    });
    if count == 0 {
        return None;
    }
    let target = rng.gen_range(0..count);
    let new_bound = i128::from(rng.gen_range(1i64..=10));
    let mut mutant = program.clone();
    let mut index = 0usize;
    let mut rewrite = |s: &mut Stmt| {
        if literal_for_bound(s).is_none() {
            return;
        }
        if index == target {
            if let Stmt::For {
                cond: Some(Expr::Binary { rhs, .. }),
                ..
            } = s
            {
                if let Expr::IntLit { value, .. } = &mut **rhs {
                    *value = if new_bound == *value {
                        *value % 10 + 1
                    } else {
                        new_bound
                    };
                }
            }
        }
        index += 1;
    };
    for function in &mut mutant.functions {
        for_each_for_mut(&mut function.body, &mut rewrite);
    }
    for_each_for_mut(&mut mutant.kernel.body, &mut rewrite);
    Some((
        mutant,
        Mutation {
            kind: MutationKind::PerturbLoopBound,
            site: target,
        },
    ))
}

// ----- chains ------------------------------------------------------------

/// An accept-all chain of seeded mutations over one base program: the
/// blind-mutation [`KernelSource`].  Feedback-guided drivers call
/// [`mutate`] directly and decide acceptance from coverage instead.
#[derive(Debug, Clone)]
pub struct MutationChain {
    current: Program,
    seed: u64,
    step: u64,
    applied: Vec<Mutation>,
}

impl MutationChain {
    /// Starts a chain at `base`; every step derives its mutation seed from
    /// `seed` and the step index.
    pub fn new(base: Program, seed: u64) -> MutationChain {
        MutationChain {
            current: base,
            seed,
            step: 0,
            applied: Vec::new(),
        }
    }

    /// The chain's current program.
    pub fn current(&self) -> &Program {
        &self.current
    }

    /// The mutations applied so far, in order.
    pub fn applied(&self) -> &[Mutation] {
        &self.applied
    }

    /// Applies the next seeded mutation and returns it, or `None` if no
    /// rewrite was applicable this step.
    pub fn step(&mut self) -> Option<Mutation> {
        let mutation_seed = crate::rng::job_seed(self.seed, self.step);
        self.step += 1;
        let (mutant, mutation) = mutate(&self.current, mutation_seed)?;
        self.current = mutant;
        self.applied.push(mutation);
        Some(mutation)
    }
}

impl KernelSource for MutationChain {
    fn describe(&self) -> String {
        format!("mut:{:#x}:{}", self.seed, self.step)
    }

    fn next_program(&mut self) -> Program {
        self.step();
        self.current.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{GenMode, GeneratorOptions};
    use crate::rng::job_seed;

    fn base(mode: GenMode, seed: u64) -> Program {
        crate::generator::generate(&GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::new(mode, seed)
        })
    }

    #[test]
    fn mutation_is_deterministic() {
        let program = base(GenMode::All, 77);
        let a = mutate(&program, 1).expect("mutation applies");
        let b = mutate(&program, 1).expect("mutation applies");
        assert_eq!(clc::print_program(&a.0), clc::print_program(&b.0));
        assert_eq!(a.1, b.1);
        // Different seeds eventually pick different rewrites.
        let c = mutate(&program, 2).expect("mutation applies");
        assert!(a.1 != c.1 || clc::print_program(&a.0) != clc::print_program(&c.0));
    }

    #[test]
    fn mutants_typecheck_and_differ_from_parent() {
        for mode in GenMode::ALL {
            let program = base(mode, 3141);
            for step in 0..8u64 {
                let (mutant, mutation) =
                    mutate(&program, job_seed(0xBEEF, step)).expect("mutation applies");
                clc::check_program(&mutant).unwrap_or_else(|e| {
                    panic!("{mode:?} mutant ({mutation:?}) fails typecheck: {e}")
                });
                assert_ne!(
                    clc::print_program(&mutant),
                    clc::print_program(&program),
                    "{mode:?} mutation {mutation:?} was a no-op"
                );
            }
        }
    }

    #[test]
    fn chains_accumulate_valid_mutants() {
        let mut chain = MutationChain::new(base(GenMode::Barrier, 9), 0xC0FFEE);
        for _ in 0..6 {
            chain.step();
            clc::check_program(chain.current()).expect("chain mutant typechecks");
        }
        assert!(!chain.applied().is_empty());
    }

    #[test]
    fn protected_idioms_survive_mutation() {
        // Barrier count never decreases; atomic_inc rank gates survive.
        let program = base(GenMode::All, 4242);
        let count = |p: &Program, f: &dyn Fn(&Stmt) -> bool| {
            let mut n = 0;
            p.for_each_stmt(&mut |s| {
                if f(s) {
                    n += 1;
                }
            });
            n
        };
        let barriers = count(&program, &|s| matches!(s, Stmt::Barrier(_)));
        let incs = |p: &Program| {
            let mut n = 0;
            p.for_each_expr(&mut |e| {
                if matches!(
                    e,
                    Expr::BuiltinCall {
                        func: Builtin::AtomicInc,
                        ..
                    }
                ) {
                    n += 1;
                }
            });
            n
        };
        let base_incs = incs(&program);
        for step in 0..12u64 {
            let (mutant, _) = mutate(&program, job_seed(7, step)).expect("mutation applies");
            assert!(count(&mutant, &|s| matches!(s, Stmt::Barrier(_))) >= barriers);
            assert_eq!(incs(&mutant), base_incs);
        }
    }
}
