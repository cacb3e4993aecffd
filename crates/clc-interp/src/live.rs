//! The *live key* of a launch: a program's fingerprint with the bodies of
//! its never-entered EMI blocks removed.
//!
//! An EMI variant (§5 of the paper) differs from its base only inside EMI
//! blocks, whose guard `dead[a] < dead[b]` is false under the host's
//! `dead[j] = j` input.  When every such body is invisible to a launch, the
//! base and all its variants run the same live program, so a launch of one
//! answers for all of them.  [`live_fingerprint`] names that live program,
//! and returns `None` whenever removing the bodies could show on either
//! tier.

use crate::compile::{escaping_names, escaping_names_outside};
use crate::eval::scalar_binop;
use crate::exec::initial_contents;
use crate::value::Scalar;
use clc::{BinOp, EmiBlock, Expr, Fingerprint, Program, Stmt, Type};
use std::collections::HashMap;

/// The name of the EMI guard buffer, as the guards read it.
const DEAD: &str = "dead";

/// The fingerprint of `program` with the bodies of its never-entered EMI
/// blocks emptied, or `None` when it has no such block or emptying them
/// could change a launch under `buffer_overrides`.
///
/// The value equals [`Program::fingerprint`] of the emptied program, so it
/// is the same for every program that differs from another only inside
/// never-entered EMI bodies.  It is computed without copying the program,
/// and a program without a `dead` buffer returns at once.  A block is never
/// entered when its guard is false under the buffer's initial contents
/// after `buffer_overrides`.  Blocks are decided outer first, and a body
/// that is kept is searched for never-entered blocks of its own.  A guard
/// that reads past the buffer keeps its body: the launch fails on that read
/// either way, and no generator writes such a guard.
///
/// Emptying the bodies is invisible to a launch on both tiers (same result,
/// error, steps, soft barriers, barrier intervals and race report) when all
/// of these hold, and otherwise the result is `None`:
///
/// * **The program names `dead` only in the kernel's parameter list**, as a
///   pointer to the `dead` buffer's element type.  Nothing but the guards
///   reads or writes the buffer, and no other variable named `dead` can
///   stand in a guard, so each guard reads the buffer's initial contents.
/// * **Some block is never entered.**  Its guard is false under those
///   contents.  A program whose blocks are all entered (say, under a
///   liveness probe's inverted `dead` array) has nothing to remove.
/// * **No emptied body holds a barrier.**  The tree walker's kernel-body
///   machine opens a statement that contains a barrier instead of charging
///   it the step it charges every other statement, and the bytecode tier
///   lowers such `if`s and loops differently.
/// * **Every function's escape set is unchanged.**  The bytecode tier
///   promotes a private scalar to a register only if its name escapes
///   nowhere in the function, dead code included, and the register forms
///   take fewer steps; so every name an emptied body makes escape must
///   escape in the code that stays.
pub fn live_fingerprint(
    program: &Program,
    buffer_overrides: &HashMap<String, Vec<i64>>,
) -> Option<Fingerprint> {
    let guards = Guards::new(program, buffer_overrides)?;
    if names_dead_outside_the_kernel_parameters(program) {
        return None;
    }
    let bodies = program
        .functions
        .iter()
        .map(|f| &f.body)
        .chain([&program.kernel.body]);
    let mut removed = Vec::new();
    for body in bodies {
        let first = removed.len();
        let kept = escaping_names_outside(body, &mut |emi| {
            let never_entered = guards.never_entered(emi);
            if never_entered {
                removed.push(emi);
            }
            never_entered
        });
        for emi in &removed[first..] {
            if emi.body.contains_barrier() || !escaping_names(&emi.body).is_subset(&kept) {
                return None;
            }
        }
    }
    if removed.is_empty() {
        return None;
    }
    Some(program.fingerprint_emptying(&mut |emi| guards.never_entered(emi)))
}

/// The initial contents of the `dead` buffer, as the guards read them.
struct Guards {
    dead: Vec<Scalar>,
}

impl Guards {
    /// `None` unless the kernel's `dead` parameter points at a buffer of
    /// its element type.
    fn new(program: &Program, buffer_overrides: &HashMap<String, Vec<i64>>) -> Option<Guards> {
        let spec = program.buffer_for(DEAD)?;
        let param = program.kernel.params.iter().find(|p| p.name == DEAD)?;
        if !matches!(&param.ty, Type::Pointer(inner, _) if **inner == Type::Scalar(spec.elem)) {
            return None;
        }
        Some(Guards {
            dead: initial_contents(spec, buffer_overrides).collect(),
        })
    }

    /// Whether the block's guard reads two elements of the buffer and
    /// finds the first not less than the second.
    fn never_entered(&self, emi: &EmiBlock) -> bool {
        let (a, b) = emi.guard;
        match (self.dead.get(a), self.dead.get(b)) {
            (Some(&x), Some(&y)) => scalar_binop(BinOp::Lt, x, y).is_ok_and(|lt| !lt.is_true()),
            _ => false,
        }
    }
}

/// Whether any helper parameter, declaration or expression names `dead`.
fn names_dead_outside_the_kernel_parameters(program: &Program) -> bool {
    let mut named = program
        .functions
        .iter()
        .any(|f| f.params.iter().any(|p| p.name == DEAD));
    program.for_each_stmt(&mut |s| {
        named |= matches!(s, Stmt::Decl { name, .. } if name == DEAD);
        s.for_each_expr(false, &mut |e| {
            named |= matches!(e, Expr::Var(name) if name == DEAD);
        });
    });
    named
}
