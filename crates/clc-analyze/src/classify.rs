//! Work-item–index classification of subscript expressions, the shared
//! object table, and the lane-stability analysis.
//!
//! The race analysis reasons about *which cells* an access can touch via a
//! small abstract domain over subscript expressions ([`IndexClass`]): launch
//! constants, thread-linear and lane-linear indices, and group-partitioned
//! affine forms `g·stride + slot` / `g·stride + lane`.  Everything the
//! domain cannot prove collapses to [`IndexClass::Unknown`], which the
//! conflict rules treat as "may touch any cell" — the analysis is
//! conservative by construction.

use clc::expr::{BinOp, Expr, IdKind};
use clc::program::Program;
use clc::stmt::{Block, Stmt};
use clc::types::{AddressSpace, Type};
use std::collections::{BTreeMap, BTreeSet};

/// Where a lane-valued (`0..group_size`, bijective per group) index comes
/// from.  Two lane accesses hit distinct cells for distinct work-items only
/// when they come from the *same* source and that source is stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneSource {
    /// `get_local_linear_id()` directly.
    LocalLinear,
    /// `permutations[r][l_linear]` — row `r` verified to be a permutation of
    /// `0..group_size`.
    PermRow(usize),
    /// A variable whose every reaching definition is lane-valued.  Distinct
    /// per work-item only while the variable is *stable* (see
    /// [`KernelModel::lane_stable`]).
    Var(String),
}

/// Abstract class of a subscript expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexClass {
    /// A compile-time constant.
    Const(i128),
    /// The same value on every work-item at a given program point (launch
    /// constants and values computed only from them).
    Uniform,
    /// A per-group bijection of `0..group_size`.
    Lane(LaneSource),
    /// `get_global_linear_id()` — distinct across *all* work-items.
    Thread,
    /// `g_linear * stride + slot` with `0 <= slot < stride`: one cell per
    /// group.
    GroupSlot {
        /// Cells per group.
        stride: i128,
        /// Fixed offset within the group's stripe.
        slot: i128,
    },
    /// `g_linear * stride + lane` with `group_size <= stride`: a per-group
    /// stripe indexed bijectively by lane.
    GroupLane {
        /// Cells per group.
        stride: i128,
        /// The lane source of the in-stripe offset.
        source: LaneSource,
    },
    /// Anything else — may alias any cell.
    Unknown,
}

/// A shared (global / local / constant address space) object accesses can
/// race on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Address space the object lives in.
    pub space: AddressSpace,
    /// Declared extent in elements, when known (`None` for scalars treated
    /// as single cells).
    pub len: Option<i128>,
}

/// Launch facts, the object table, the flow-insensitive variable
/// classification environment, and lane stability for one program.
pub struct KernelModel<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// Work-items per group (linearised).
    pub group_size: i128,
    /// Number of groups (linearised).
    pub total_groups: i128,
    /// Total work-items.
    pub total_threads: i128,
    /// Shared objects by name: kernel buffers plus `local` declarations.
    pub objects: BTreeMap<String, ObjectInfo>,
    /// Objects with at least one (potential) write anywhere in the program.
    pub written: BTreeSet<String>,
    /// Lane-classed variables whose value provably cannot change between a
    /// barrier and any use that follows it (every assignment is top-level,
    /// unconditional, outside loops, and precedes every use since the last
    /// barrier).  Unstable lane variables can alias across work-items
    /// mid-interval — exactly the dynamic-race mechanism the detector
    /// observes when a sync point and its offset reassignment get separated.
    pub lane_stable: BTreeSet<String>,
    env: BTreeMap<String, IndexClass>,
}

impl<'p> KernelModel<'p> {
    /// Builds the model: object table, written set, variable environment
    /// fixpoint, and lane stability.
    pub fn build(program: &'p Program) -> KernelModel<'p> {
        let group_size = program.launch.group_size() as i128;
        let total_groups = program.launch.total_groups() as i128;
        let total_threads = program.launch.total_work_items() as i128;

        let mut objects = BTreeMap::new();
        for spec in &program.buffers {
            objects.insert(
                spec.param.clone(),
                ObjectInfo {
                    space: AddressSpace::Global,
                    len: Some(spec.len as i128),
                },
            );
        }
        collect_local_objects(&program.kernel.body, &mut objects);
        for f in &program.functions {
            collect_local_objects(&f.body, &mut objects);
        }

        let mut model = KernelModel {
            program,
            group_size,
            total_groups,
            total_threads,
            objects,
            written: BTreeSet::new(),
            lane_stable: BTreeSet::new(),
            env: BTreeMap::new(),
        };
        model.collect_written();
        model.env_fixpoint();
        model.lane_stability();
        model
    }

    /// Whether `name` names a shared object.
    pub fn is_object(&self, name: &str) -> bool {
        self.objects.contains_key(name)
    }

    /// Classifies an expression used as a subscript (or condition).
    pub fn classify(&self, e: &Expr) -> IndexClass {
        self.classify_with_env(e, &self.env)
    }

    /// Whether a condition is launch-uniform: every work-item at the same
    /// program point computes the same value.
    pub fn is_uniform(&self, e: &Expr) -> bool {
        matches!(self.classify(e), IndexClass::Const(_) | IndexClass::Uniform)
            && !e.has_side_effects()
    }

    // ----- written set -----------------------------------------------------

    fn collect_written(&mut self) {
        let mut written = BTreeSet::new();
        self.program.for_each_expr(&mut |e| {
            let target = match e {
                Expr::Assign { lhs, .. } => place_root(lhs),
                Expr::BuiltinCall { func, args } if func.is_atomic() => {
                    args.first().and_then(place_root)
                }
                // A shared address that escapes may be written through.
                Expr::AddrOf(inner) => place_root(inner),
                _ => None,
            };
            if let Some(root) = target {
                if self.objects.contains_key(root) {
                    written.insert(root.to_string());
                }
            }
        });
        self.written = written;
    }

    // ----- variable environment --------------------------------------------

    /// Flow-insensitive classification of every scalar variable: join over
    /// all bindings program-wide, iterated to fixpoint.
    ///
    /// An *assignment* under non-uniform control flow is soundness-critical
    /// even when its right-hand side is uniform: only the work-items taking
    /// the branch observe the new value, so the variable's post-region value
    /// is lane-dependent (`int x = 0; if (lid < 2) x = 1;` makes `x`
    /// non-uniform).  Such binds are therefore demoted to [`IndexClass::
    /// Unknown`], with the guard conditions re-judged against the evolving
    /// environment each fixpoint round.  Declaration initialisers need no
    /// demotion — a declaration's scope is confined to the guarded region,
    /// so its value cannot leak past the divergence the region itself
    /// already accounts for.
    fn env_fixpoint(&mut self) {
        enum Bind<'a> {
            Init(&'a Expr),
            Assign(&'a Expr),
            Opaque,
        }
        use crate::walk::Guard;
        let mut binds: Vec<(String, Bind<'p>, Vec<Guard<'p>>)> = Vec::new();
        let mut uniform_params: BTreeSet<String> = BTreeSet::new();
        for p in &self.program.kernel.params {
            if matches!(p.ty, Type::Scalar(_)) {
                uniform_params.insert(p.name.clone());
            }
        }
        crate::walk::guarded_program_stmts(self.program, &mut |s, guards| {
            if let Stmt::Decl {
                name,
                init: Some(e),
                ..
            } = s
            {
                if !self.objects.contains_key(name) {
                    binds.push((name.clone(), Bind::Init(e), Vec::new()));
                }
            }
            s.for_each_expr(false, &mut |e| {
                if let Expr::Assign { op, lhs, rhs } = e {
                    if let Expr::Var(name) = lhs.as_ref() {
                        if op.binop().is_none() {
                            binds.push((name.clone(), Bind::Assign(rhs), guards.to_vec()));
                        } else {
                            binds.push((name.clone(), Bind::Opaque, Vec::new()));
                        }
                    } else if let Some(root) = place_root(lhs) {
                        // Partial writes (fields / elements) spoil precision.
                        binds.push((root.to_string(), Bind::Opaque, Vec::new()));
                    }
                }
            });
        });

        let mut env: BTreeMap<String, IndexClass> = BTreeMap::new();
        for p in &uniform_params {
            env.insert(p.clone(), IndexClass::Uniform);
        }
        for _ in 0..64 {
            let mut changed = false;
            for (name, bind, guards) in &binds {
                let divergent_ctx = || {
                    guards.iter().any(|g| match g {
                        Guard::Cond(e) => {
                            !matches!(
                                self.classify_with_env(e, &env),
                                IndexClass::Const(_) | IndexClass::Uniform
                            ) || e.has_side_effects()
                        }
                        Guard::EmiDead => self.written.contains("dead"),
                    })
                };
                let new = match bind {
                    Bind::Init(e) => self.classify_with_env(e, &env),
                    Bind::Assign(e) if !divergent_ctx() => self.classify_with_env(e, &env),
                    Bind::Assign(_) | Bind::Opaque => IndexClass::Unknown,
                };
                // A lane-valued variable is represented by its own name so
                // that two uses of the same variable share a source.
                let new = match new {
                    IndexClass::Lane(_) => IndexClass::Lane(LaneSource::Var(name.clone())),
                    IndexClass::GroupLane { stride, .. } => IndexClass::GroupLane {
                        stride,
                        source: LaneSource::Var(name.clone()),
                    },
                    other => other,
                };
                let joined = match env.get(name) {
                    None => new,
                    Some(old) => join(old, &new),
                };
                if env.get(name) != Some(&joined) {
                    env.insert(name.clone(), joined);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.env = env;
    }

    fn classify_with_env(&self, e: &Expr, env: &BTreeMap<String, IndexClass>) -> IndexClass {
        use IndexClass::*;
        match e {
            Expr::IntLit { value, .. } => Const(*value),
            Expr::IdQuery(kind) => match kind {
                IdKind::GlobalLinearId => Thread,
                IdKind::LocalLinearId => Lane(LaneSource::LocalLinear),
                IdKind::GroupLinearId => GroupSlot { stride: 1, slot: 0 },
                k if !k.is_identity_dependent() => Uniform,
                _ => Unknown,
            },
            Expr::Var(name) => match env.get(name) {
                Some(Lane(_)) => Lane(LaneSource::Var(name.clone())),
                Some(GroupLane { stride, .. }) => GroupLane {
                    stride: *stride,
                    source: LaneSource::Var(name.clone()),
                },
                Some(c) => c.clone(),
                None => Unknown,
            },
            Expr::Cast { ty, expr } => match ty {
                // Widening / same-width integer casts preserve the index
                // value for in-bounds subscripts.
                Type::Scalar(s) if s.bits() >= 32 => self.classify_with_env(expr, env),
                _ => Unknown,
            },
            Expr::Unary { expr, .. } => match self.classify_with_env(expr, env) {
                Const(_) | Uniform if !expr.has_side_effects() => Uniform,
                _ => Unknown,
            },
            Expr::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                let all_uniform = [cond.as_ref(), then_expr.as_ref(), else_expr.as_ref()]
                    .into_iter()
                    .all(|x| {
                        matches!(self.classify_with_env(x, env), Const(_) | Uniform)
                            && !x.has_side_effects()
                    });
                if all_uniform {
                    Uniform
                } else {
                    Unknown
                }
            }
            Expr::Index { base, index } => self.classify_index_read(base, index, env),
            Expr::Binary { op, lhs, rhs } => {
                if e.has_side_effects() {
                    return Unknown;
                }
                let l = self.classify_with_env(lhs, env);
                let r = self.classify_with_env(rhs, env);
                // Constant folding.
                if let (Const(a), Const(b)) = (&l, &r) {
                    match op {
                        BinOp::Add => return Const(a.wrapping_add(*b)),
                        BinOp::Sub => return Const(a.wrapping_sub(*b)),
                        BinOp::Mul => return Const(a.wrapping_mul(*b)),
                        _ => return Uniform,
                    }
                }
                // Uniform closure.
                if matches!(l, Const(_) | Uniform) && matches!(r, Const(_) | Uniform) {
                    return Uniform;
                }
                match op {
                    BinOp::Add => add_classes(&l, &r, self.group_size),
                    BinOp::Mul => mul_classes(&l, &r),
                    _ => Unknown,
                }
            }
            _ => Unknown,
        }
    }

    /// Classifies an `Index` expression *read as a value* (not as a place):
    /// `permutations[r][l_linear]` is lane-valued; a read of a never-written
    /// object at a uniform subscript is uniform.
    fn classify_index_read(
        &self,
        base: &Expr,
        index: &Expr,
        env: &BTreeMap<String, IndexClass>,
    ) -> IndexClass {
        // permutations[r][l_linear]
        if let Expr::Index {
            base: inner_base,
            index: row,
        } = base
        {
            if matches!(inner_base.as_ref(), Expr::Var(n) if n == "permutations") {
                if let (Expr::IntLit { value, .. }, Expr::IdQuery(IdKind::LocalLinearId)) =
                    (row.as_ref(), index)
                {
                    if let Ok(r) = usize::try_from(*value) {
                        if self.perm_row_is_permutation(r) {
                            return IndexClass::Lane(LaneSource::PermRow(r));
                        }
                    }
                }
                return IndexClass::Unknown;
            }
        }
        // A read of a never-written object at a uniform subscript yields the
        // (launch-constant) initial contents: uniform.
        if let Expr::Var(name) = base {
            if self.objects.contains_key(name) && !self.written.contains(name) {
                let idx = self.classify_with_env(index, env);
                if matches!(idx, IndexClass::Const(_) | IndexClass::Uniform) {
                    return IndexClass::Uniform;
                }
            }
        }
        IndexClass::Unknown
    }

    /// Whether `permutations[r]` exists and is a permutation of
    /// `0..group_size`.
    pub fn perm_row_is_permutation(&self, r: usize) -> bool {
        let Some(row) = self.program.permutations.get(r) else {
            return false;
        };
        let n = self.group_size as usize;
        if row.len() < n {
            return false;
        }
        let mut seen = vec![false; n];
        for &v in &row[..n] {
            let v = v as usize;
            if v >= n || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        true
    }

    // ----- lane stability ---------------------------------------------------

    /// Linear walk of the kernel body computing which lane-classed variables
    /// are stable: every assignment is top-level, unconditional, outside
    /// loops, and the variable has not been used since the last top-level
    /// barrier when it is (re)assigned.
    fn lane_stability(&mut self) {
        let lane_vars: BTreeSet<String> = self
            .env
            .iter()
            .filter(|(_, c)| matches!(c, IndexClass::Lane(_)))
            .map(|(n, _)| n.clone())
            .collect();
        if lane_vars.is_empty() {
            return;
        }
        let mut unstable: BTreeSet<String> = BTreeSet::new();
        // Any assignment inside a helper function body to a name shadowing a
        // kernel lane variable is treated conservatively (flat namespace).
        for f in &self.program.functions {
            mark_nested_assignments(&f.body, &lane_vars, &mut unstable);
        }
        let mut used_since_sync: BTreeSet<String> = BTreeSet::new();
        walk_stability(
            &self.program.kernel.body,
            &lane_vars,
            &mut used_since_sync,
            &mut unstable,
        );
        self.lane_stable = lane_vars.difference(&unstable).cloned().collect();
    }
}

/// Joins two variable classes (flow-insensitive may-join).
fn join(a: &IndexClass, b: &IndexClass) -> IndexClass {
    use IndexClass::*;
    if a == b {
        return a.clone();
    }
    match (a, b) {
        // Different launch-uniform values at different program points are
        // still launch-uniform at each point.
        (Const(_) | Uniform, Const(_) | Uniform) => Uniform,
        (Lane(x), Lane(_)) => Lane(x.clone()),
        _ => Unknown,
    }
}

fn add_classes(l: &IndexClass, r: &IndexClass, group_size: i128) -> IndexClass {
    use IndexClass::*;
    let pairs = [(l, r), (r, l)];
    for (a, b) in pairs {
        if let (GroupSlot { stride, slot }, Const(c)) = (a, b) {
            let new = slot + c;
            if new >= 0 && new < *stride {
                return GroupSlot {
                    stride: *stride,
                    slot: new,
                };
            }
        }
        if let (GroupSlot { stride, slot: 0 }, Lane(src)) = (a, b) {
            if group_size <= *stride {
                return GroupLane {
                    stride: *stride,
                    source: src.clone(),
                };
            }
        }
    }
    Unknown
}

fn mul_classes(l: &IndexClass, r: &IndexClass) -> IndexClass {
    use IndexClass::*;
    let pairs = [(l, r), (r, l)];
    for (a, b) in pairs {
        if let (GroupSlot { stride: 1, slot: 0 }, Const(c)) = (a, b) {
            if *c > 0 {
                return GroupSlot {
                    stride: *c,
                    slot: 0,
                };
            }
        }
    }
    Unknown
}

/// The root variable of a place expression (`A[i]`, `s.f`, `*p`, `&A[i]`).
pub fn place_root(e: &Expr) -> Option<&str> {
    match e {
        Expr::Var(name) => Some(name),
        Expr::Index { base, .. } => place_root(base),
        Expr::Field { base, .. } => place_root(base),
        Expr::Swizzle { base, .. } => place_root(base),
        Expr::Deref(inner) | Expr::AddrOf(inner) => place_root(inner),
        Expr::Cast { expr, .. } => place_root(expr),
        _ => None,
    }
}

fn collect_local_objects(body: &Block, objects: &mut BTreeMap<String, ObjectInfo>) {
    body.for_each(&mut |s| {
        if let Stmt::Decl {
            name,
            ty,
            space: AddressSpace::Local,
            ..
        } = s
        {
            let len = match ty {
                Type::Array(_, n) => Some(*n as i128),
                _ => None,
            };
            objects.insert(
                name.clone(),
                ObjectInfo {
                    space: AddressSpace::Local,
                    len,
                },
            );
        }
    });
}

/// Marks every assignment (to a tracked variable) inside `body` as
/// destabilising — used for helper bodies and nested control flow.
fn mark_nested_assignments(
    body: &Block,
    tracked: &BTreeSet<String>,
    unstable: &mut BTreeSet<String>,
) {
    for s in body.iter() {
        mark_stmt_assignments(s, tracked, unstable);
    }
}

/// Marks every assignment (or shadowing declaration) of a tracked variable
/// in `stmt` or anything nested in it.
fn mark_stmt_assignments(stmt: &Stmt, tracked: &BTreeSet<String>, unstable: &mut BTreeSet<String>) {
    stmt.for_each(&mut |s| {
        if let Stmt::Decl { name, .. } = s {
            if tracked.contains(name) {
                unstable.insert(name.clone());
            }
        }
        s.for_each_expr(false, &mut |sub| {
            record_assignment_target(sub, tracked, unstable)
        });
    });
}

fn record_assignment_target(e: &Expr, tracked: &BTreeSet<String>, unstable: &mut BTreeSet<String>) {
    if let Expr::Assign { lhs, .. } = e {
        if let Some(root) = place_root(lhs) {
            if tracked.contains(root) {
                unstable.insert(root.to_string());
            }
        }
    }
}

/// Records every variable *use* (read) in an expression, excluding the bare
/// root of a plain-assignment lhs.
fn record_uses(e: &Expr, used: &mut BTreeSet<String>) {
    match e {
        Expr::Assign { op, lhs, rhs } => {
            // Plain `x = rhs` does not read `x`; compound `x += rhs` does.
            match lhs.as_ref() {
                Expr::Var(name) => {
                    if op.binop().is_some() {
                        used.insert(name.clone());
                    }
                }
                other => record_uses(other, used),
            }
            record_uses(rhs, used);
        }
        Expr::Var(name) => {
            used.insert(name.clone());
        }
        _ => {
            e.for_each_part(|part| {
                if let Some(c) = part.expr() {
                    record_uses(c, used);
                }
            });
        }
    }
}

/// The stability walk over the kernel body's unconditional, non-loop
/// statement sequence (nested plain `Block`s included — they execute
/// unconditionally and their barriers synchronise).  Everything under
/// conditional or loop control is handled conservatively: any assignment to
/// a tracked variable there destabilises it.
fn walk_stability(
    body: &Block,
    tracked: &BTreeSet<String>,
    used_since_sync: &mut BTreeSet<String>,
    unstable: &mut BTreeSet<String>,
) {
    for s in body.iter() {
        match s {
            Stmt::Barrier(_) => {
                used_since_sync.clear();
            }
            Stmt::Block(b) => {
                walk_stability(b, tracked, used_since_sync, unstable);
            }
            Stmt::Decl {
                name,
                init,
                init_list,
                ..
            } => {
                if let Some(e) = init {
                    record_uses(e, used_since_sync);
                }
                if let Some(list) = init_list {
                    list.for_each_expr(&mut |e| record_uses(e, used_since_sync));
                }
                if tracked.contains(name) && used_since_sync.contains(name) {
                    unstable.insert(name.clone());
                }
            }
            Stmt::Expr(e) => {
                // A top-level plain assignment to a tracked variable is a
                // legal sync-point reassignment only if the variable has not
                // been used since the last barrier.
                if let Expr::Assign { op, lhs, rhs } = e {
                    if let Expr::Var(name) = lhs.as_ref() {
                        if tracked.contains(name) {
                            let mut uses = BTreeSet::new();
                            record_uses(rhs, &mut uses);
                            if op.binop().is_some() {
                                uses.insert(name.clone());
                            }
                            if used_since_sync.contains(name) || uses.contains(name) {
                                unstable.insert(name.clone());
                            }
                            used_since_sync.extend(uses);
                            continue;
                        }
                    }
                }
                record_uses(e, used_since_sync);
                e.for_each(&mut |sub| record_assignment_target(sub, tracked, unstable));
            }
            other => {
                // Conditional / loop context: every assignment (or shadowing
                // declaration) of a tracked variable destabilises it; every
                // use is recorded.
                mark_stmt_assignments(other, tracked, unstable);
                other.for_each(&mut |s| {
                    s.for_each_root(&mut |root| record_uses(root, used_since_sync))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::expr::Builtin;
    use clc::program::{BufferSpec, KernelDef, LaunchConfig};
    use clc::stmt::MemFence;
    use clc::types::ScalarType;
    use clc::Program;

    fn program_with(body: Vec<Stmt>) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(body),
            },
            LaunchConfig::new([16, 1, 1], [4, 1, 1]).unwrap(),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 16));
        p
    }

    #[test]
    fn classifies_core_idioms() {
        let p = program_with(vec![]);
        let m = KernelModel::build(&p);
        assert_eq!(
            m.classify(&Expr::IdQuery(IdKind::GlobalLinearId)),
            IndexClass::Thread
        );
        assert_eq!(
            m.classify(&Expr::IdQuery(IdKind::LocalLinearId)),
            IndexClass::Lane(LaneSource::LocalLinear)
        );
        assert_eq!(
            m.classify(&Expr::IdQuery(IdKind::GroupLinearId)),
            IndexClass::GroupSlot { stride: 1, slot: 0 }
        );
        assert_eq!(
            m.classify(&Expr::IdQuery(IdKind::LinearGroupSize)),
            IndexClass::Uniform
        );
        // g*4 + 2 → slot 2 of a 4-stride stripe.
        let slot = Expr::binary(
            BinOp::Add,
            Expr::binary(
                BinOp::Mul,
                Expr::IdQuery(IdKind::GroupLinearId),
                Expr::lit(4, ScalarType::UInt),
            ),
            Expr::lit(2, ScalarType::UInt),
        );
        assert_eq!(
            m.classify(&slot),
            IndexClass::GroupSlot { stride: 4, slot: 2 }
        );
        // g*4 + l_linear → per-group lane stripe (group size 4).
        let lane = Expr::binary(
            BinOp::Add,
            Expr::binary(
                BinOp::Mul,
                Expr::IdQuery(IdKind::GroupLinearId),
                Expr::lit(4, ScalarType::UInt),
            ),
            Expr::IdQuery(IdKind::LocalLinearId),
        );
        assert_eq!(
            m.classify(&lane),
            IndexClass::GroupLane {
                stride: 4,
                source: LaneSource::LocalLinear
            }
        );
    }

    #[test]
    fn permutation_rows_are_lane_valued() {
        let mut p = program_with(vec![]);
        p.permutations = vec![vec![2, 0, 3, 1], vec![0, 0, 1, 2]];
        let m = KernelModel::build(&p);
        let read = |r: i64| {
            Expr::index(
                Expr::index(Expr::var("permutations"), Expr::int(r)),
                Expr::IdQuery(IdKind::LocalLinearId),
            )
        };
        assert_eq!(
            m.classify(&read(0)),
            IndexClass::Lane(LaneSource::PermRow(0))
        );
        // Row 1 repeats 0 — not a permutation.
        assert_eq!(m.classify(&read(1)), IndexClass::Unknown);
        // Out-of-range row.
        assert_eq!(m.classify(&read(7)), IndexClass::Unknown);
    }

    #[test]
    fn env_classifies_offset_variable_and_stability() {
        // A_offset = permutations[0][lid], reassigned right after a barrier:
        // stable.
        let mut p = program_with(vec![
            Stmt::decl(
                "A_offset",
                Type::Scalar(ScalarType::UInt),
                Some(Expr::index(
                    Expr::index(Expr::var("permutations"), Expr::int(0)),
                    Expr::IdQuery(IdKind::LocalLinearId),
                )),
            ),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::var("A_offset")),
                Expr::int(1),
            ),
            Stmt::Barrier(MemFence::Global),
            Stmt::assign(
                Expr::var("A_offset"),
                Expr::index(
                    Expr::index(Expr::var("permutations"), Expr::int(0)),
                    Expr::IdQuery(IdKind::LocalLinearId),
                ),
            ),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::var("A_offset")),
                Expr::int(2),
            ),
        ]);
        p.permutations = vec![vec![2, 0, 3, 1]];
        let m = KernelModel::build(&p);
        assert_eq!(
            m.classify(&Expr::var("A_offset")),
            IndexClass::Lane(LaneSource::Var("A_offset".into()))
        );
        assert!(m.lane_stable.contains("A_offset"));
    }

    #[test]
    fn reassignment_after_use_without_barrier_is_unstable() {
        let mut p = program_with(vec![
            Stmt::decl(
                "A_offset",
                Type::Scalar(ScalarType::UInt),
                Some(Expr::index(
                    Expr::index(Expr::var("permutations"), Expr::int(0)),
                    Expr::IdQuery(IdKind::LocalLinearId),
                )),
            ),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::var("A_offset")),
                Expr::int(1),
            ),
            // Reassigned *without* an intervening barrier while live: the
            // shuffle-separated sync-point pattern.
            Stmt::assign(
                Expr::var("A_offset"),
                Expr::index(
                    Expr::index(Expr::var("permutations"), Expr::int(0)),
                    Expr::IdQuery(IdKind::LocalLinearId),
                ),
            ),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::var("A_offset")),
                Expr::int(2),
            ),
        ]);
        p.permutations = vec![vec![2, 0, 3, 1]];
        let m = KernelModel::build(&p);
        assert!(!m.lane_stable.contains("A_offset"));
    }

    #[test]
    fn written_set_sees_assignments_atomics_and_escapes() {
        let mut p = program_with(vec![
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                Expr::int(1),
            ),
            Stmt::expr(Expr::builtin(
                Builtin::AtomicInc,
                vec![Expr::addr_of(Expr::index(Expr::var("red"), Expr::int(0)))],
            )),
        ]);
        p.buffers.push(BufferSpec::new(
            "red",
            ScalarType::UInt,
            4,
            clc::BufferInit::Zero,
        ));
        p.buffers.push(BufferSpec::new(
            "quiet",
            ScalarType::UInt,
            4,
            clc::BufferInit::Zero,
        ));
        let m = KernelModel::build(&p);
        assert!(m.written.contains("out"));
        assert!(m.written.contains("red"));
        assert!(!m.written.contains("quiet"));
    }
}
