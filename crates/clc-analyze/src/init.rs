//! Use-before-init dataflow for private variables.
//!
//! A forward "maybe-uninitialised" analysis: the fact is the set of private
//! variables that may still hold an indeterminate value.  Declarations
//! without an initialiser generate, assignments (and address-taking, which
//! conservatively counts as initialisation-by-alias) kill, and any read of a
//! variable still in the set is reported.

use crate::cfg::{build_cfg, Cfg, Step};
use crate::classify::{place_root, KernelModel};
use crate::dataflow::{forward_fixpoint, Analysis};
use crate::report::{Diagnostic, DiagnosticKind};
use clc::expr::Expr;
use clc::stmt::Stmt;
use clc::types::AddressSpace;
use std::collections::BTreeSet;

/// Runs the pass over the kernel and every helper body.
pub fn check_uninit(model: &KernelModel<'_>) -> Vec<Diagnostic> {
    let mut flagged = BTreeSet::new();
    for f in &model.program.functions {
        let params: BTreeSet<String> = f.params.iter().map(|p| p.name.clone()).collect();
        run_body(model, &build_cfg(&f.body), &params, &mut flagged);
    }
    let kernel_params: BTreeSet<String> = model
        .program
        .kernel
        .params
        .iter()
        .map(|p| p.name.clone())
        .collect();
    run_body(
        model,
        &build_cfg(&model.program.kernel.body),
        &kernel_params,
        &mut flagged,
    );

    flagged
        .into_iter()
        .map(|name| Diagnostic {
            kind: DiagnosticKind::UseBeforeInit,
            object: Some(name.clone()),
            message: "private variable may be read before initialisation".into(),
            excerpt: name,
        })
        .collect()
}

fn run_body<'p>(
    model: &KernelModel<'p>,
    cfg: &Cfg<'p>,
    params: &BTreeSet<String>,
    flagged: &mut BTreeSet<String>,
) {
    let mut analysis = Uninit {
        model,
        params,
        report: None,
    };
    let entry_facts = forward_fixpoint(cfg, &mut analysis);
    // Reporting pass: replay each block's transfer from its fixpoint entry
    // fact, recording reads of maybe-uninit variables.
    let mut found = BTreeSet::new();
    analysis.report = Some(&mut found);
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut fact = entry_facts[b].clone();
        for step in &block.steps {
            analysis.transfer(step, &mut fact);
        }
    }
    flagged.extend(found);
}

struct Uninit<'a, 'p> {
    model: &'a KernelModel<'p>,
    params: &'a BTreeSet<String>,
    report: Option<&'a mut BTreeSet<String>>,
}

impl<'a, 'p> Uninit<'a, 'p> {
    fn is_tracked_decl(&self, space: AddressSpace, name: &str) -> bool {
        space == AddressSpace::Private && !self.model.is_object(name)
    }

    /// Walks `e` in evaluation order, recording uses and applying defs.
    fn eval(&mut self, e: &'p Expr, fact: &mut BTreeSet<String>) {
        match e {
            Expr::Assign { op, lhs, rhs } => {
                self.eval(rhs, fact);
                match lhs.as_ref() {
                    Expr::Var(name) => {
                        if op.binop().is_some() {
                            self.use_var(name, fact);
                        }
                        fact.remove(name);
                    }
                    _ => {
                        // Writes through a subscript / field / pointer:
                        // subscripts are uses; a partial write counts as
                        // initialising the whole aggregate (conservative
                        // against false positives).
                        self.eval_place_subscripts(lhs, fact);
                        if op.binop().is_some() {
                            if let Some(root) = place_root(lhs) {
                                self.use_var(root, fact);
                            }
                        }
                        if let Some(root) = place_root(lhs) {
                            fact.remove(root);
                        }
                    }
                }
            }
            Expr::AddrOf(inner) => {
                self.eval_place_subscripts(inner, fact);
                // The address escapes: assume the callee / alias initialises
                // it.  (Sound for the report's *may*-uninit claim direction
                // used by the differential: we only certify, never prove a
                // bug.)
                if let Some(root) = place_root(inner) {
                    fact.remove(root);
                }
            }
            Expr::Var(name) => self.use_var(name, fact),
            Expr::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                self.eval(cond, fact);
                // Either branch may run; evaluate both against the same
                // entry fact, then merge (union of survivors).
                let mut t = fact.clone();
                self.eval(then_expr, &mut t);
                self.eval(else_expr, fact);
                fact.extend(t);
            }
            other => {
                other.for_each_part(|part| {
                    if let Some(c) = part.expr() {
                        self.eval(c, fact);
                    }
                });
            }
        }
    }

    /// Uses occurring inside a place's subscripts (the place itself is being
    /// written, not read).
    fn eval_place_subscripts(&mut self, place: &'p Expr, fact: &mut BTreeSet<String>) {
        match place {
            Expr::Index { base, index } => {
                self.eval(index, fact);
                self.eval_place_subscripts(base, fact);
            }
            Expr::Field { base, .. } | Expr::Swizzle { base, .. } => {
                self.eval_place_subscripts(base, fact)
            }
            Expr::Deref(inner) => self.eval(inner, fact),
            Expr::AddrOf(inner) | Expr::Cast { expr: inner, .. } => {
                self.eval_place_subscripts(inner, fact)
            }
            Expr::Var(_) => {}
            other => self.eval(other, fact),
        }
    }

    fn use_var(&mut self, name: &str, fact: &BTreeSet<String>) {
        if fact.contains(name) {
            if let Some(report) = self.report.as_mut() {
                report.insert(name.to_string());
            }
        }
    }
}

impl<'a, 'p> Analysis<'p> for Uninit<'a, 'p> {
    type Fact = BTreeSet<String>;

    fn boundary(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn join(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
        let before = into.len();
        into.extend(other.iter().cloned());
        into.len() != before
    }

    fn transfer(&mut self, step: &Step<'p>, fact: &mut Self::Fact) {
        match step {
            Step::Decl(Stmt::Decl {
                name,
                space,
                init,
                init_list,
                ..
            }) => {
                if let Some(e) = init {
                    self.eval(e, fact);
                }
                if let Some(list) = init_list {
                    list.for_each_item(&mut |e| self.eval(e, fact));
                }
                if self.is_tracked_decl(*space, name)
                    && !self.params.contains(name)
                    && init.is_none()
                    && init_list.is_none()
                {
                    fact.insert(name.clone());
                } else {
                    fact.remove(name);
                }
            }
            Step::Decl(_) => {}
            Step::Eval(e) => self.eval(e, fact),
            Step::EmiGuard => {}
        }
    }
}
