//! EMI testing machinery (§5 of the paper): dead-by-construction block
//! generation, the three pruning strategies (*leaf*, *compound*, *lift*) and
//! injection of EMI blocks into existing kernels.
//!
//! The workflow mirrors the paper exactly:
//!
//! 1. A *base* program is generated with (or injected with) EMI blocks whose
//!    guard `dead[a] < dead[b]` (with `b < a`) is false under the host's
//!    `dead[j] = j` initialisation, so the block bodies are dynamically
//!    unreachable by construction.
//! 2. *Variants* are derived by pruning the contents of the EMI blocks
//!    according to per-strategy probabilities.
//! 3. All variants must produce identical results; a mismatch on a single
//!    compiler configuration indicates a miscompilation.

use crate::options::PruneProbabilities;
use crate::rng::Rng;
use clc::expr::Expr;
use clc::stmt::{Block, EmiBlock, Stmt};
use clc::types::{ScalarType, Type};
use clc::{BufferInit, BufferSpec, Param, Program};
use std::collections::HashMap;

/// Derives an EMI variant of `base` by pruning the statements inside its EMI
/// blocks with the given probabilities.
///
/// Statements *outside* EMI blocks are never touched, so the variant is
/// guaranteed to be equivalent to the base modulo the standard `dead` input.
pub fn prune_variant(base: &Program, probs: &PruneProbabilities, seed: u64) -> Program {
    let mut rng = Rng::seed_from_u64(seed);
    let mut variant = base.clone();
    variant.for_each_block_mut(&mut |block| {
        for stmt in &mut block.stmts {
            if let Stmt::Emi(emi) = stmt {
                emi.body = prune_block(&emi.body, probs, &mut rng);
            }
        }
    });
    variant
}

/// Applies the pruning strategies to one block (recursively).
///
/// Declarations are never removed on their own: deleting a declaration while
/// later statements still use the variable would produce code that no longer
/// compiles, and EMI variants must stay compilable (they are only allowed to
/// differ in dynamically dead behaviour).  Whole compound statements that
/// contain declarations are still removable because their uses are scoped
/// inside them.
fn prune_block(block: &Block, probs: &PruneProbabilities, rng: &mut Rng) -> Block {
    let mut out = Block::new();
    for stmt in block.iter() {
        if stmt.is_compound() {
            // compound pruning first (§5): delete the whole branch node.
            if rng.gen_bool(probs.compound) {
                continue;
            }
            // lift pruning with the adjusted probability.
            if rng.gen_bool(probs.adjusted_lift()) {
                for lifted in lift_statement(stmt) {
                    // Lifted children are themselves subject to pruning.
                    match lifted {
                        Stmt::If { .. }
                        | Stmt::For { .. }
                        | Stmt::While { .. }
                        | Stmt::Block(_) => {
                            let nested = prune_block(&Block::of(vec![lifted]), probs, rng);
                            out.stmts.extend(nested.stmts);
                        }
                        other => {
                            let is_decl = matches!(other, Stmt::Decl { .. });
                            if is_decl || !rng.gen_bool(probs.leaf) {
                                out.push(other);
                            }
                        }
                    }
                }
                continue;
            }
            // Otherwise keep the node but prune inside it.
            out.push(prune_inside(stmt, probs, rng));
        } else {
            // leaf pruning (declarations are exempt, see above).
            if !matches!(stmt, Stmt::Decl { .. }) && rng.gen_bool(probs.leaf) {
                continue;
            }
            out.push(stmt.clone());
        }
    }
    out
}

fn prune_inside(stmt: &Stmt, probs: &PruneProbabilities, rng: &mut Rng) -> Stmt {
    match stmt {
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => Stmt::If {
            cond: cond.clone(),
            then_block: prune_block(then_block, probs, rng),
            else_block: else_block.as_ref().map(|b| prune_block(b, probs, rng)),
        },
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => Stmt::For {
            init: init.clone(),
            cond: cond.clone(),
            update: update.clone(),
            body: prune_block(body, probs, rng),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond: cond.clone(),
            body: prune_block(body, probs, rng),
        },
        Stmt::Block(b) => Stmt::Block(prune_block(b, probs, rng)),
        Stmt::Emi(emi) => Stmt::Emi(EmiBlock {
            index: emi.index,
            guard: emi.guard,
            body: prune_block(&emi.body, probs, rng),
        }),
        other => other.clone(),
    }
}

/// The *lift* transformation (§5): promotes the children of a branch node to
/// its position.  A conditional `if (c) { S } else { T }` becomes `S; T`; a
/// loop becomes its initialiser followed by one copy of the body with
/// outermost `break` / `continue` statements removed so the result stays
/// syntactically valid.
pub fn lift_statement(stmt: &Stmt) -> Vec<Stmt> {
    match stmt {
        Stmt::If {
            then_block,
            else_block,
            ..
        } => {
            let mut out = then_block.stmts.clone();
            if let Some(e) = else_block {
                out.extend(e.stmts.clone());
            }
            out
        }
        Stmt::For { init, body, .. } => {
            let mut out = Vec::new();
            if let Some(init) = init {
                out.push((**init).clone());
            }
            out.extend(strip_outer_jumps(body));
            out
        }
        Stmt::While { body, .. } => strip_outer_jumps(body),
        Stmt::Block(b) => b.stmts.clone(),
        Stmt::Emi(emi) => emi.body.stmts.clone(),
        other => vec![other.clone()],
    }
}

/// Removes `break` / `continue` at the outermost level of a loop body
/// (nested loops keep theirs).
fn strip_outer_jumps(body: &Block) -> Vec<Stmt> {
    fn strip_block(block: &Block) -> Block {
        let mut out = Block::new();
        for s in block.iter() {
            match s {
                Stmt::Break | Stmt::Continue => {}
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                } => out.push(Stmt::If {
                    cond: cond.clone(),
                    then_block: strip_block(then_block),
                    else_block: else_block.as_ref().map(strip_block),
                }),
                Stmt::Block(b) => out.push(Stmt::Block(strip_block(b))),
                // Loops establish a new break/continue target; leave them be.
                other => out.push(other.clone()),
            }
        }
        out
    }
    strip_block(body).stmts
}

/// Description of one EMI injection into an existing (e.g. benchmark) kernel.
#[derive(Debug, Clone)]
pub struct InjectionOptions {
    /// Length of the `dead` array parameter added to the kernel.
    pub dead_len: usize,
    /// Number of injection points.
    pub injection_points: usize,
    /// Whether free variables of the injected block are substituted
    /// (`#define`-style renaming) with variables of the host kernel instead
    /// of being declared locally (§5, "Injecting into real-world kernels").
    pub substitutions: bool,
    /// RNG seed controlling injection point and substitution choices.
    pub seed: u64,
}

impl Default for InjectionOptions {
    fn default() -> Self {
        InjectionOptions {
            dead_len: 16,
            injection_points: 1,
            substitutions: false,
            seed: 0,
        }
    }
}

/// Injects EMI blocks into an existing program, returning the new program.
///
/// The kernel gains a `global int *dead` parameter (with an accompanying
/// `dead[j] = j` buffer specification) and `injection_points` EMI blocks
/// inserted at pseudo-random statement positions in the kernel body.  Each
/// injected block is a clone of one of `bodies` (chosen round-robin).
///
/// With `substitutions` disabled, every free variable of the block is a
/// variable the block itself declares, so the block is self-contained.  With
/// substitutions enabled, reads and writes of the block's scalar locals are
/// renamed, where possible, to scalar variables already in scope in the host
/// kernel — the paper's hypothesis being that this lets the compiler
/// (erroneously) optimise across the block boundary.
pub fn inject_emi_blocks(base: &Program, bodies: &[Block], options: &InjectionOptions) -> Program {
    let mut rng = Rng::seed_from_u64(options.seed);
    let mut program = base.clone();
    if bodies.is_empty() || options.injection_points == 0 {
        return program;
    }

    // Add the dead parameter and buffer if not already present.
    if !program.has_dead_array() {
        program.dead_len = options.dead_len;
        program.kernel.params.push(Param::new(
            "dead",
            Type::Scalar(ScalarType::Int).pointer_to(clc::AddressSpace::Global),
        ));
        program.buffers.push(BufferSpec::new(
            "dead",
            ScalarType::Int,
            options.dead_len,
            BufferInit::Iota,
        ));
    }

    // Scalar kernel parameters are in scope everywhere in the body.
    let param_scalars: Vec<String> = program
        .kernel
        .params
        .iter()
        .filter(|p| p.ty.is_scalar())
        .map(|p| p.name.clone())
        .collect();

    for point in 0..options.injection_points {
        // Pick the injection point first so substitutions only use variables
        // that are already declared at that point (the paper notes that
        // "some manual tweaking was necessary to ensure well-typed
        // substitutions"; choosing in-scope variables automates that).
        let body_len = program.kernel.body.stmts.len();
        let pos = rng.gen_range(0..=body_len);
        let mut host_scalars = param_scalars.clone();
        for stmt in program.kernel.body.stmts.iter().take(pos) {
            if let Stmt::Decl { name, ty, .. } = stmt {
                if ty.is_scalar() {
                    host_scalars.push(name.clone());
                }
            }
        }
        let mut block = bodies[point % bodies.len()].clone();
        if options.substitutions && !host_scalars.is_empty() {
            block = substitute_free_scalars(&block, &host_scalars, &mut rng);
        }
        let guard_a = 1 + rng.gen_range(0..(program.dead_len - 1));
        let guard_b = rng.gen_range(0..guard_a);
        let emi = Stmt::Emi(EmiBlock {
            index: point,
            guard: (guard_a, guard_b),
            body: block,
        });
        program.kernel.body.stmts.insert(pos, emi);
    }
    program
}

/// Substitutes some of the block's own scalar declarations with host
/// variables: the declaration is dropped and all uses renamed.
fn substitute_free_scalars(block: &Block, host_scalars: &[String], rng: &mut Rng) -> Block {
    // Collect the block's own top-level scalar declarations.
    let mut renames: HashMap<String, String> = HashMap::new();
    let mut kept = Block::new();
    for stmt in block.iter() {
        match stmt {
            Stmt::Decl { name, ty, .. } if ty.is_scalar() && rng.gen_bool(0.6) => {
                let target = host_scalars[rng.gen_range(0..host_scalars.len())].clone();
                renames.insert(name.clone(), target);
                // Declaration dropped: uses now refer to the host variable.
            }
            other => kept.push(other.clone()),
        }
    }
    if renames.is_empty() {
        return block.clone();
    }
    let mut out = kept;
    out.for_each_expr_mut(&mut |e| {
        if let Expr::Var(name) = e {
            if let Some(new) = renames.get(name) {
                *name = new.clone();
            }
        }
    });
    out
}

/// Checks whether every EMI block in the program is dead by construction.
pub fn all_emi_blocks_dead(program: &Program) -> bool {
    program
        .emi_blocks()
        .iter()
        .all(|b| b.is_dead_by_construction())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use crate::options::{GenMode, GeneratorOptions};
    use clc::expr::BinOp;
    use clc::{KernelDef, LaunchConfig};

    fn emi_base(seed: u64) -> Program {
        generate(&GeneratorOptions::new(GenMode::All, seed).with_emi())
    }

    #[test]
    fn pruning_with_zero_probabilities_is_identity() {
        let base = emi_base(11);
        let probs = PruneProbabilities::new(0.0, 0.0, 0.0).unwrap();
        let variant = prune_variant(&base, &probs, 99);
        assert_eq!(base, variant);
    }

    #[test]
    fn full_leaf_and_compound_pruning_empties_emi_blocks() {
        let base = emi_base(12);
        let probs = PruneProbabilities::new(1.0, 1.0, 0.0).unwrap();
        let variant = prune_variant(&base, &probs, 7);
        assert!(variant.emi_blocks().iter().all(|b| b.body.is_empty()));
        // Code outside EMI blocks is untouched.
        assert_eq!(
            base.kernel.body.stmts.len(),
            variant.kernel.body.stmts.len()
        );
    }

    #[test]
    fn pruned_variants_still_typecheck_and_stay_dead() {
        let base = emi_base(13);
        for (i, probs) in PruneProbabilities::table5_combinations().iter().enumerate() {
            let variant = prune_variant(&base, probs, i as u64);
            assert!(all_emi_blocks_dead(&variant));
            if let Err(e) = clc::check_program(&variant) {
                panic!("variant {i} fails to typecheck: {e}");
            }
        }
    }

    #[test]
    fn pruning_is_deterministic_in_the_seed() {
        let base = emi_base(14);
        let probs = PruneProbabilities::new(0.3, 0.3, 0.3).unwrap();
        assert_eq!(
            prune_variant(&base, &probs, 5),
            prune_variant(&base, &probs, 5)
        );
    }

    #[test]
    fn lift_flattens_conditionals_and_strips_loop_jumps() {
        let stmt = Stmt::if_else(
            Expr::int(1),
            Block::of(vec![Stmt::Break, Stmt::expr(Expr::int(1))]),
            Block::of(vec![Stmt::expr(Expr::int(2))]),
        );
        let lifted = lift_statement(&stmt);
        assert_eq!(lifted.len(), 3);

        let loop_stmt = Stmt::For {
            init: Some(Box::new(Stmt::decl(
                "i",
                Type::Scalar(ScalarType::Int),
                Some(Expr::int(0)),
            ))),
            cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(3))),
            update: None,
            body: Block::of(vec![
                Stmt::Break,
                Stmt::expr(Expr::int(5)),
                Stmt::While {
                    cond: Expr::int(0),
                    body: Block::of(vec![Stmt::Continue]),
                },
            ]),
        };
        let lifted = lift_statement(&loop_stmt);
        // init + (body minus the outer break, keeping the nested loop intact)
        assert_eq!(lifted.len(), 3);
        assert!(matches!(lifted[0], Stmt::Decl { .. }));
        assert!(lifted.iter().all(|s| !matches!(s, Stmt::Break)));
        match &lifted[2] {
            Stmt::While { body, .. } => assert!(matches!(body.stmts[0], Stmt::Continue)),
            other => panic!("expected nested while to survive, got {other:?}"),
        }
    }

    #[test]
    fn injection_adds_dead_array_and_blocks() {
        // A small hand-written host kernel.
        let mut host = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(vec![
                    Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(1))),
                    Stmt::assign(Expr::index(Expr::var("out"), Expr::int(0)), Expr::var("x")),
                ]),
            },
            LaunchConfig::single_group(4),
        );
        host.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));

        let body = Block::of(vec![
            Stmt::decl("e0", Type::Scalar(ScalarType::Int), Some(Expr::int(3))),
            Stmt::assign(
                Expr::var("e0"),
                Expr::binary(BinOp::Add, Expr::var("e0"), Expr::int(1)),
            ),
        ]);
        let injected = inject_emi_blocks(
            &host,
            std::slice::from_ref(&body),
            &InjectionOptions {
                injection_points: 2,
                substitutions: false,
                ..Default::default()
            },
        );
        assert!(injected.has_dead_array());
        assert_eq!(injected.emi_blocks().len(), 2);
        assert!(all_emi_blocks_dead(&injected));
        assert!(clc::check_program(&injected).is_ok());

        // With substitutions, the block's local may be renamed to `x`, in
        // which case its declaration disappears.
        let with_subs = inject_emi_blocks(
            &host,
            &[body],
            &InjectionOptions {
                injection_points: 1,
                substitutions: true,
                seed: 3,
                ..Default::default()
            },
        );
        assert!(clc::check_program(&with_subs).is_ok());
    }

    #[test]
    fn substitution_renames_uses_consistently() {
        let block = Block::of(vec![
            Stmt::decl("e0", Type::Scalar(ScalarType::Int), Some(Expr::int(3))),
            Stmt::assign(
                Expr::var("e0"),
                Expr::binary(BinOp::Add, Expr::var("e0"), Expr::int(1)),
            ),
        ]);
        let mut rng = Rng::seed_from_u64(1);
        let hosts = vec!["hostvar".to_string()];
        // Try a few seeds until the 60% substitution coin lands.
        let mut substituted = None;
        for _ in 0..20 {
            let out = substitute_free_scalars(&block, &hosts, &mut rng);
            if out.stmts.len() == 1 {
                substituted = Some(out);
                break;
            }
        }
        let out = substituted.expect("substitution should eventually trigger");
        let mut uses_host = 0;
        let mut uses_old = 0;
        for s in out.iter() {
            s.for_each_expr(true, &mut |e| {
                if let Expr::Var(n) = e {
                    if n == "hostvar" {
                        uses_host += 1;
                    }
                    if n == "e0" {
                        uses_old += 1;
                    }
                }
            });
        }
        assert!(uses_host >= 2);
        assert_eq!(uses_old, 0);
    }
}
