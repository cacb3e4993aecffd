//! Barrier-divergence lint.
//!
//! OpenCL requires every work-item of a group to reach the *same* barrier
//! the same number of times.  A barrier under identity-dependent control
//! flow (a condition or loop trip count depending on `get_local_id` /
//! `get_global_id` or anything derived from them) can therefore hang or
//! produce undefined behaviour.  This pass walks the kernel body tracking a
//! non-uniform control depth and flags barriers (and divergent early exits)
//! reached under it.
//!
//! Helper-function barriers are *soft* in both interpreter tiers (they do
//! not synchronise), so only the kernel body is checked.

use crate::classify::KernelModel;
use crate::report::{Diagnostic, DiagnosticKind};
use clc::stmt::{Block, Stmt};

/// Runs the divergence pass over the kernel body.
pub fn check_divergence(model: &KernelModel<'_>) -> Vec<Diagnostic> {
    // A group of one work-item cannot diverge from itself.
    if model.group_size < 2 {
        return Vec::new();
    }
    let kernel_has_barrier = model.program.kernel.body.contains_barrier();
    let mut checker = Checker {
        model,
        kernel_has_barrier,
        loops: Vec::new(),
        out: Vec::new(),
    };
    checker.walk_block(&model.program.kernel.body, 0);
    checker.out
}

struct Checker<'m, 'p> {
    model: &'m KernelModel<'p>,
    kernel_has_barrier: bool,
    /// `(loop_contains_barrier, nonuniform_depth_at_loop_entry)`.
    loops: Vec<(bool, usize)>,
    out: Vec<Diagnostic>,
}

impl<'m, 'p> Checker<'m, 'p> {
    fn walk_block(&mut self, block: &Block, nonuniform: usize) {
        for s in block.iter() {
            self.walk_stmt(s, nonuniform);
        }
    }

    fn diag(&mut self, message: &str, excerpt: String) {
        self.out.push(Diagnostic {
            kind: DiagnosticKind::BarrierDivergence,
            object: None,
            message: message.to_string(),
            excerpt,
        });
    }

    fn walk_stmt(&mut self, s: &Stmt, nonuniform: usize) {
        match s {
            Stmt::Barrier(_) => {
                if nonuniform > 0 {
                    self.diag(
                        "barrier under identity-dependent control flow",
                        "barrier(...)".into(),
                    );
                }
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let d = nonuniform + usize::from(!self.model.is_uniform(cond));
                self.walk_block(then_block, d);
                if let Some(b) = else_block {
                    self.walk_block(b, d);
                }
            }
            Stmt::While { cond, body } => {
                let d = nonuniform + usize::from(!self.model.is_uniform(cond));
                self.loops.push((body.contains_barrier(), d));
                self.walk_block(body, d);
                self.loops.pop();
            }
            Stmt::For {
                init,
                cond,
                update: _,
                body,
            } => {
                if let Some(i) = init {
                    self.walk_stmt(i, nonuniform);
                }
                let uniform_trip = cond.as_ref().is_none_or(|c| self.model.is_uniform(c));
                let d = nonuniform + usize::from(!uniform_trip);
                self.loops.push((body.contains_barrier(), d));
                self.walk_block(body, d);
                self.loops.pop();
            }
            Stmt::Block(b) => self.walk_block(b, nonuniform),
            Stmt::Emi(emi) => {
                // The guard `dead[a] < dead[b]` is uniform as long as the
                // `dead` buffer is never written.
                let d = nonuniform + usize::from(self.model.written.contains("dead"));
                self.walk_block(&emi.body, d);
            }
            Stmt::Return(_) => {
                if nonuniform > 0 && self.kernel_has_barrier {
                    self.diag(
                        "divergent early return in a kernel that synchronises",
                        "return".into(),
                    );
                }
            }
            Stmt::Break | Stmt::Continue => {
                if let Some(&(has_barrier, entry)) = self.loops.last() {
                    if has_barrier && nonuniform > entry {
                        self.diag(
                            "divergent break/continue in a loop containing a barrier",
                            "break/continue".into(),
                        );
                    }
                }
            }
            Stmt::Decl { .. } | Stmt::Expr(_) => {}
        }
    }
}
