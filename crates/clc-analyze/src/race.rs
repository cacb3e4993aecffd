//! Static race analysis: conservative may-read/may-write access sets over
//! shared objects, barrier-interval reasoning, and the per-pair
//! disjoint / may-race / must-race matrix.
//!
//! Mirrors the dynamic detector's conflict rule: two accesses from different
//! work-items conflict when at least one writes and they are not both
//! atomic — across groups always, within a group only inside the same
//! barrier interval.  The static version over-approximates "same cell" via
//! [`IndexClass`] and "same interval" via a linear walk that counts
//! top-level unconditional barriers.

use crate::classify::{place_root, IndexClass, KernelModel, LaneSource};
use crate::report::{AccessPair, Diagnostic, DiagnosticKind, PairVerdict};
use clc::expr::Expr;
use clc::print_expr;
use clc::stmt::{Block, Stmt};
use clc::types::AddressSpace;
use std::collections::{BTreeMap, BTreeSet};

/// A (possibly unbounded) range of barrier-interval indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRange {
    /// First interval the access can occur in.
    pub min: u32,
    /// Last interval, or `None` once the walk loses alignment (a loop
    /// containing barriers).
    pub max: Option<u32>,
}

impl IntervalRange {
    fn overlaps(self, other: IntervalRange) -> bool {
        self.min <= other.max.unwrap_or(u32::MAX) && other.min <= self.max.unwrap_or(u32::MAX)
    }

    fn is_point(self) -> bool {
        self.max == Some(self.min)
    }
}

/// One static access to a shared object.
#[derive(Debug, Clone)]
pub struct Access {
    /// The object touched.
    pub object: String,
    /// Abstract subscript class.
    pub class: IndexClass,
    /// Whether the access writes.
    pub write: bool,
    /// Whether the access is an atomic read-modify-write.
    pub atomic: bool,
    /// Barrier intervals the access can occur in.
    pub interval: IntervalRange,
    /// Whether the access sits under conditional or loop control.
    pub conditional: bool,
    /// Synthesised for an escaped address rather than a syntactic access.
    pub from_escape: bool,
    /// Printer-derived excerpt of the access site.
    pub site: String,
}

/// Result of the race pass.
pub struct RaceAnalysis {
    /// Every collected access (used downstream by the bounds pass).
    pub accesses: Vec<Access>,
    /// Non-disjoint pairs.
    pub pairs: Vec<AccessPair>,
    /// Race diagnostics (one per object and verdict kind).
    pub diagnostics: Vec<Diagnostic>,
    /// Total pairs examined.
    pub checked_pairs: usize,
}

/// Runs the race pass.
pub fn analyze_races(model: &KernelModel<'_>) -> RaceAnalysis {
    let mut collector = Collector {
        model,
        cur: 0,
        unbounded: false,
        conditional_depth: 0,
        loop_depth: 0,
        accesses: Vec::new(),
        poisoned: BTreeSet::new(),
    };
    collector.walk_block(&model.program.kernel.body);

    // Helper bodies: barriers there are soft (non-synchronising) and calls
    // can happen anywhere, so helper accesses live in every interval, under
    // conditional control.
    for f in &model.program.functions {
        let mut helper = Collector {
            model,
            cur: 0,
            unbounded: true,
            conditional_depth: 1,
            loop_depth: 0,
            accesses: Vec::new(),
            poisoned: BTreeSet::new(),
        };
        helper.walk_block(&f.body);
        collector.accesses.extend(helper.accesses);
        collector.poisoned.extend(helper.poisoned);
    }

    let mut accesses = collector.accesses;
    for obj in &collector.poisoned {
        accesses.push(Access {
            object: obj.clone(),
            class: IndexClass::Unknown,
            write: true,
            atomic: false,
            interval: IntervalRange { min: 0, max: None },
            conditional: true,
            from_escape: true,
            site: format!("&{obj}[...] escapes"),
        });
    }

    classify_pairs(model, accesses)
}

fn classify_pairs(model: &KernelModel<'_>, accesses: Vec<Access>) -> RaceAnalysis {
    let mut by_object: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, a) in accesses.iter().enumerate() {
        by_object.entry(a.object.as_str()).or_default().push(i);
    }

    let mut pairs = Vec::new();
    let mut checked_pairs = 0usize;
    // (object, kind) → (pair count, first excerpt)
    let mut summaries: BTreeMap<(String, DiagnosticKind), (usize, String)> = BTreeMap::new();
    for (object, idxs) in &by_object {
        let space = model
            .objects
            .get(*object)
            .map(|o| o.space)
            .unwrap_or(AddressSpace::Global);
        for (pos, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pos..] {
                checked_pairs += 1;
                let verdict = pair_verdict(&accesses[i], &accesses[j], model, space);
                if verdict == PairVerdict::Disjoint {
                    continue;
                }
                let kind = match verdict {
                    PairVerdict::MustRace => DiagnosticKind::MustRace,
                    _ => DiagnosticKind::MayRace,
                };
                let excerpt = format!("{} <-> {}", accesses[i].site, accesses[j].site);
                let entry = summaries
                    .entry((object.to_string(), kind))
                    .or_insert_with(|| (0, excerpt.clone()));
                entry.0 += 1;
                pairs.push(AccessPair {
                    object: object.to_string(),
                    first: accesses[i].site.clone(),
                    second: accesses[j].site.clone(),
                    verdict,
                });
            }
        }
    }

    let diagnostics = summaries
        .into_iter()
        .map(|((object, kind), (count, excerpt))| Diagnostic {
            kind,
            object: Some(object),
            message: format!(
                "{count} access pair{} {} on shared object",
                if count == 1 { "" } else { "s" },
                match kind {
                    DiagnosticKind::MustRace => "must race",
                    _ => "may race",
                }
            ),
            excerpt,
        })
        .collect();

    RaceAnalysis {
        accesses,
        pairs,
        diagnostics,
        checked_pairs,
    }
}

// ----- pair rules -----------------------------------------------------------

fn pair_verdict(
    a: &Access,
    b: &Access,
    model: &KernelModel<'_>,
    space: AddressSpace,
) -> PairVerdict {
    if !(a.write || b.write) {
        return PairVerdict::Disjoint;
    }
    if a.atomic && b.atomic {
        return PairVerdict::Disjoint;
    }

    let same_group_possible = model.group_size >= 2
        && a.interval.overlaps(b.interval)
        && !distinct_cells_same_group(&a.class, &b.class, model);
    let cross_group_possible = model.total_groups >= 2
        && space == AddressSpace::Global
        && !distinct_cells_cross_group(&a.class, &b.class);
    if !(same_group_possible || cross_group_possible) {
        return PairVerdict::Disjoint;
    }

    // Must-race: both unconditional, definitely the same cell, and either
    // cross-group (no interval requirement) or provably the same single
    // interval.
    if !a.conditional && !b.conditional {
        match (&a.class, &b.class) {
            (IndexClass::Const(x), IndexClass::Const(y)) if x == y => {
                let cross_must = model.total_groups >= 2 && space == AddressSpace::Global;
                let point_must =
                    model.group_size >= 2 && a.interval.is_point() && a.interval == b.interval;
                if cross_must || point_must {
                    return PairVerdict::MustRace;
                }
            }
            (
                IndexClass::GroupSlot {
                    stride: s1,
                    slot: k1,
                },
                IndexClass::GroupSlot {
                    stride: s2,
                    slot: k2,
                },
            ) if s1 == s2
                && k1 == k2
                && model.group_size >= 2
                && a.interval.is_point()
                && a.interval == b.interval =>
            {
                return PairVerdict::MustRace;
            }
            _ => {}
        }
    }
    PairVerdict::MayRace
}

/// Whether two same-group accesses provably touch distinct cells for any two
/// *distinct* work-items of one group.
fn distinct_cells_same_group(a: &IndexClass, b: &IndexClass, model: &KernelModel<'_>) -> bool {
    use IndexClass::*;
    match (a, b) {
        (Thread, Thread) => true,
        (Const(x), Const(y)) => x != y,
        (Lane(s1), Lane(s2)) => same_stable_source(s1, s2, model),
        (
            GroupLane {
                stride: s1,
                source: src1,
            },
            GroupLane {
                stride: s2,
                source: src2,
            },
        ) => s1 == s2 && same_stable_source(src1, src2, model),
        (
            GroupSlot {
                stride: s1,
                slot: k1,
            },
            GroupSlot {
                stride: s2,
                slot: k2,
            },
        ) => s1 == s2 && k1 != k2,
        (GroupSlot { stride: s1, slot }, GroupLane { stride: s2, .. })
        | (GroupLane { stride: s2, .. }, GroupSlot { stride: s1, slot }) => {
            // Slot cells g·s+k with k ≥ group_size can never hit the lane
            // stripe g·s+lane (lane < group_size) of the same group.
            s1 == s2 && *slot >= model.group_size
        }
        _ => false,
    }
}

/// Whether two accesses from *different groups* provably touch distinct
/// cells.
fn distinct_cells_cross_group(a: &IndexClass, b: &IndexClass) -> bool {
    use IndexClass::*;
    let group_partitioned_stride = |c: &IndexClass| match c {
        GroupSlot { stride, .. } | GroupLane { stride, .. } => Some(*stride),
        _ => None,
    };
    match (a, b) {
        (Thread, Thread) => true,
        (Const(x), Const(y)) => x != y,
        _ => match (group_partitioned_stride(a), group_partitioned_stride(b)) {
            // Equal-stride group stripes never overlap across groups
            // (slots and lanes are both < stride by construction).
            (Some(s1), Some(s2)) => s1 == s2,
            _ => false,
        },
    }
}

fn same_stable_source(a: &LaneSource, b: &LaneSource, model: &KernelModel<'_>) -> bool {
    match (a, b) {
        (LaneSource::LocalLinear, LaneSource::LocalLinear) => true,
        (LaneSource::PermRow(r1), LaneSource::PermRow(r2)) => r1 == r2,
        (LaneSource::Var(v1), LaneSource::Var(v2)) => v1 == v2 && model.lane_stable.contains(v1),
        _ => false,
    }
}

// ----- access collection ----------------------------------------------------

struct Collector<'m, 'p> {
    model: &'m KernelModel<'p>,
    cur: u32,
    unbounded: bool,
    conditional_depth: usize,
    loop_depth: usize,
    accesses: Vec<Access>,
    poisoned: BTreeSet<String>,
}

impl<'m, 'p> Collector<'m, 'p> {
    fn range(&self) -> IntervalRange {
        IntervalRange {
            min: self.cur,
            max: if self.unbounded { None } else { Some(self.cur) },
        }
    }

    fn conditional(&self) -> bool {
        self.conditional_depth > 0 || self.loop_depth > 0
    }

    fn walk_block(&mut self, block: &Block) {
        for s in block.iter() {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Barrier(_) => {
                // Only unconditional, non-loop barriers separate intervals
                // for every work-item in lockstep.
                if self.conditional_depth == 0 && self.loop_depth == 0 {
                    self.cur += 1;
                }
            }
            Stmt::Decl { .. } | Stmt::Expr(_) | Stmt::Return(_) => {
                s.for_each_root(&mut |e| self.collect_expr(e));
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.collect_expr(cond);
                self.conditional_depth += 1;
                self.walk_block(then_block);
                if let Some(b) = else_block {
                    self.walk_block(b);
                }
                self.conditional_depth -= 1;
            }
            Stmt::While { cond, body } => {
                if body.contains_barrier() {
                    self.unbounded = true;
                }
                self.loop_depth += 1;
                self.collect_expr(cond);
                self.walk_block(body);
                self.loop_depth -= 1;
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(i) = init {
                    self.walk_stmt(i);
                }
                if body.contains_barrier() {
                    self.unbounded = true;
                }
                self.loop_depth += 1;
                if let Some(c) = cond {
                    self.collect_expr(c);
                }
                if let Some(u) = update {
                    self.collect_expr(u);
                }
                self.walk_block(body);
                self.loop_depth -= 1;
            }
            Stmt::Block(b) => self.walk_block(b),
            Stmt::Emi(emi) => {
                // The guard reads `dead[a] < dead[b]` before deciding.
                if self.model.is_object("dead") {
                    for cell in [emi.guard.0, emi.guard.1] {
                        self.accesses.push(Access {
                            object: "dead".into(),
                            class: IndexClass::Const(cell as i128),
                            write: false,
                            atomic: false,
                            interval: self.range(),
                            conditional: self.conditional(),
                            from_escape: false,
                            site: format!("EMI guard #{}", emi.index),
                        });
                    }
                }
                self.conditional_depth += 1;
                self.walk_block(&emi.body);
                self.conditional_depth -= 1;
            }
            Stmt::Break | Stmt::Continue => {}
        }
    }

    fn collect_expr(&mut self, e: &Expr) {
        match e {
            Expr::Assign { op, lhs, rhs } => {
                self.place_access(lhs, true, op.binop().is_some(), false);
                self.collect_expr(rhs);
            }
            Expr::BuiltinCall { func, args } if func.is_atomic() => {
                let mut rest = args.iter();
                if let Some(first) = rest.next() {
                    if let Expr::AddrOf(place) = first {
                        self.place_access(place, true, true, true);
                    } else {
                        self.collect_expr(first);
                    }
                }
                for a in rest {
                    self.collect_expr(a);
                }
            }
            Expr::AddrOf(inner) => {
                // A shared address escaping (outside a direct atomic
                // argument) poisons the object: it may be read or written
                // anywhere afterwards.
                if let Some(root) = place_root(inner) {
                    if self.model.is_object(root) {
                        self.poisoned.insert(root.to_string());
                    }
                }
                self.collect_subscripts(inner);
            }
            Expr::Index { .. } | Expr::Deref(_) | Expr::Field { .. } | Expr::Swizzle { .. } => {
                self.place_access(e, false, false, false);
            }
            Expr::Var(name) => {
                // A bare object name is a pointer value escaping.
                if self.model.is_object(name) {
                    self.poisoned.insert(name.clone());
                }
            }
            _ => {
                e.for_each_part(|part| {
                    if let Some(c) = part.expr() {
                        self.collect_expr(c);
                    }
                });
            }
        }
    }

    /// Records an access through a place expression, and collects nested
    /// reads inside its subscripts.
    fn place_access(&mut self, place: &Expr, write: bool, also_read: bool, atomic: bool) {
        let Some(root) = place_root(place) else {
            // No identifiable root (e.g. a computed pointer): just collect
            // nested reads.
            place.for_each_part(|part| {
                if let Some(c) = part.expr() {
                    self.collect_expr(c);
                }
            });
            return;
        };
        self.collect_subscripts(place);
        if root == "permutations" || !self.model.is_object(root) {
            return;
        }
        let class = match place {
            Expr::Index { base, index } if matches!(base.as_ref(), Expr::Var(n) if n == root) => {
                self.model.classify(index)
            }
            Expr::Deref(inner) if matches!(inner.as_ref(), Expr::Var(n) if n == root) => {
                IndexClass::Const(0)
            }
            _ => IndexClass::Unknown,
        };
        let site = print_expr(place, self.model.program);
        let interval = self.range();
        let conditional = self.conditional();
        if write {
            self.accesses.push(Access {
                object: root.to_string(),
                class: class.clone(),
                write: true,
                atomic,
                interval,
                conditional,
                from_escape: false,
                site: site.clone(),
            });
        }
        if !write || also_read {
            self.accesses.push(Access {
                object: root.to_string(),
                class,
                write: false,
                atomic,
                interval,
                conditional,
                from_escape: false,
                site,
            });
        }
    }

    /// Collects reads occurring inside the subscript / pointee expressions
    /// of a place, without treating the spine itself as an access.
    fn collect_subscripts(&mut self, place: &Expr) {
        match place {
            Expr::Index { base, index } => {
                self.collect_expr(index);
                self.collect_subscripts(base);
            }
            Expr::Field { base, .. } | Expr::Swizzle { base, .. } => self.collect_subscripts(base),
            Expr::Deref(inner) | Expr::AddrOf(inner) => self.collect_subscripts(inner),
            Expr::Cast { expr, .. } => self.collect_subscripts(expr),
            Expr::Var(_) => {}
            other => self.collect_expr(other),
        }
    }
}
