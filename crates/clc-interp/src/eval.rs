//! Expression evaluation and recursive statement execution.
//!
//! Expressions (including calls to helper functions) are evaluated
//! recursively and atomically with respect to the work-group scheduler; only
//! kernel-body statements can suspend a work-item at a barrier (see
//! [`crate::exec`]).  A `barrier()` encountered *inside* a helper function is
//! treated as a "soft" barrier: it is counted (for diagnostics) but does not
//! synchronise.  CLsmith-generated kernels only place barriers directly in
//! the kernel body, and the paper's Figure 1(d)/2(c)/2(d) kernels do not rely
//! on callee barriers for cross-thread communication, so this keeps the
//! semantics of every program in this repository intact; the limitation is
//! documented in DESIGN.md.

use crate::error::RuntimeError;
use crate::memory::Memory;
use crate::race::{AccessKind, RaceDetector};
use crate::value::{Cell, ObjId, PointerValue, Scalar, Value};
use clc::expr::{BinOp, Builtin, Expr, IdKind, UnOp};
use clc::stmt::{Block, Initializer, Stmt};
use clc::types::{AddressSpace, ScalarType, Type};
use clc::{Dim, Program};
use std::collections::HashMap;

/// Maximum nesting depth of user function calls.
pub const MAX_CALL_DEPTH: usize = 64;

/// The identity of the executing work-item plus the launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadIds {
    /// Global id per dimension (`t` in the paper).
    pub global: [usize; 3],
    /// Local id within the group (`l`).
    pub local: [usize; 3],
    /// Group id (`g`).
    pub group: [usize; 3],
    /// Global sizes (`N`).
    pub global_size: [usize; 3],
    /// Work-group sizes (`W`).
    pub local_size: [usize; 3],
    /// Number of groups per dimension.
    pub num_groups: [usize; 3],
    /// Number of work-group barriers this work-item has passed (the race
    /// detector's "interval").
    pub interval: u32,
}

impl ThreadIds {
    /// `t_linear = (t_z*N_y + t_y)*N_x + t_x`.
    pub fn linear_global(&self) -> usize {
        (self.global[2] * self.global_size[1] + self.global[1]) * self.global_size[0]
            + self.global[0]
    }

    /// `l_linear`.
    pub fn linear_local(&self) -> usize {
        (self.local[2] * self.local_size[1] + self.local[1]) * self.local_size[0] + self.local[0]
    }

    /// `g_linear`.
    pub fn linear_group(&self) -> usize {
        (self.group[2] * self.num_groups[1] + self.group[1]) * self.num_groups[0] + self.group[0]
    }

    /// `W_linear`.
    pub fn linear_group_size(&self) -> usize {
        self.local_size[0] * self.local_size[1] * self.local_size[2]
    }

    /// `N_linear`.
    pub fn linear_global_size(&self) -> usize {
        self.global_size[0] * self.global_size[1] * self.global_size[2]
    }
}

/// One lexical scope: variable bindings plus the objects the scope owns
/// (freed when the scope is popped).
#[derive(Debug, Default)]
pub struct Scope {
    vars: HashMap<String, ObjId>,
    owned: Vec<ObjId>,
}

/// A work-item's (or callee's) variable environment.
#[derive(Debug, Default)]
pub struct Env {
    scopes: Vec<Scope>,
}

impl Env {
    /// An environment with a single (outermost) scope.
    pub fn new() -> Env {
        Env {
            scopes: vec![Scope::default()],
        }
    }

    /// Pushes a nested scope.
    pub fn push_scope(&mut self) {
        self.scopes.push(Scope::default());
    }

    /// Pops the innermost scope, freeing the objects it owns.
    pub fn pop_scope(&mut self, memory: &mut Memory) {
        if let Some(scope) = self.scopes.pop() {
            for obj in scope.owned {
                memory.free(obj);
            }
        }
    }

    /// Current scope depth.
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// Pops scopes until the depth equals `depth`.
    pub fn pop_to_depth(&mut self, depth: usize, memory: &mut Memory) {
        while self.scopes.len() > depth {
            self.pop_scope(memory);
        }
    }

    /// Binds a name to an object without transferring ownership.
    pub fn bind(&mut self, name: impl Into<String>, obj: ObjId) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.vars.insert(name.into(), obj);
        }
    }

    /// Binds a name to an object owned by (and freed with) the current scope.
    pub fn bind_owned(&mut self, name: impl Into<String>, obj: ObjId) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.vars.insert(name.into(), obj);
            scope.owned.push(obj);
        }
    }

    /// Resolves a name, innermost scope first.
    pub fn lookup(&self, name: &str) -> Option<ObjId> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.vars.get(name).copied())
    }
}

/// How a statement terminated, for control flow in the recursive executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flow {
    /// Fell through normally.
    Normal,
    /// `break` reached.
    Break,
    /// `continue` reached.
    Continue,
    /// `return` reached (with an optional value).
    Return(Option<Value>),
}

/// A resolved storage location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    /// Object holding the storage.
    pub obj: ObjId,
    /// Cell offset of the location.
    pub offset: usize,
    /// Static type of the location.
    pub ty: Type,
    /// Address space of the object.
    pub space: AddressSpace,
}

impl From<PointerValue> for Place {
    /// The location a pointer points to.
    fn from(p: PointerValue) -> Place {
        Place {
            obj: p.obj,
            offset: p.offset,
            ty: p.pointee,
            space: p.space,
        }
    }
}

// The steps from a place to a place inside it, shared by both tiers: the
// tree walker's `eval_place` and the VM's place instructions.
impl Place {
    /// The base an index applies to: a pointer place gives way to the place
    /// its pointer points to; any other place stays as it is.
    pub(crate) fn indexable(self, memory: &Memory) -> Result<Place, RuntimeError> {
        if !matches!(self.ty, Type::Pointer(..)) {
            return Ok(self);
        }
        match memory.read_cell(self.obj, self.offset)? {
            Cell::Ptr(p) => Ok(p.into()),
            _ => Err(RuntimeError::UninitializedRead {
                object: memory.object(self.obj)?.name.clone(),
            }),
        }
    }

    /// Element `idx` of this place: of an array, bounds-checked; of any
    /// other type, the `idx`-th location of that type from here.
    pub(crate) fn index(self, idx: i64, structs: &[clc::StructDef]) -> Result<Place, RuntimeError> {
        let elem = match self.ty {
            Type::Array(elem, len) => {
                if idx < 0 || idx as usize >= len {
                    return Err(RuntimeError::InvalidAccess {
                        detail: format!("array index {idx} out of bounds for length {len}"),
                    });
                }
                *elem
            }
            other => other,
        };
        if idx < 0 {
            return Err(RuntimeError::InvalidAccess {
                detail: format!("negative index {idx}"),
            });
        }
        Ok(Place {
            obj: self.obj,
            offset: self.offset + idx as usize * elem.cell_count(structs),
            ty: elem,
            space: self.space,
        })
    }

    /// Field `field` of this struct place.
    pub(crate) fn field(
        self,
        field: &str,
        structs: &[clc::StructDef],
    ) -> Result<Place, RuntimeError> {
        let Some((offset, ty)) = self.ty.field_of(field, structs) else {
            return Err(RuntimeError::TypeMismatch {
                detail: format!("no field `{field}` on {:?}", self.ty),
            });
        };
        Ok(Place {
            obj: self.obj,
            offset: self.offset + offset,
            ty: ty.clone(),
            space: self.space,
        })
    }

    /// Lane `lane` of this vector place (a one-lane swizzle as an lvalue).
    pub(crate) fn lane(self, lane: usize) -> Result<Place, RuntimeError> {
        let Type::Vector(elem, width) = self.ty else {
            return Err(RuntimeError::TypeMismatch {
                detail: "swizzle store on non-vector".into(),
            });
        };
        if lane >= width.lanes() {
            return Err(RuntimeError::InvalidAccess {
                detail: format!("swizzle lane {lane} out of range"),
            });
        }
        Ok(Place {
            obj: self.obj,
            offset: self.offset + lane,
            ty: Type::Scalar(elem),
            space: self.space,
        })
    }
}

/// Evaluation context threaded through the evaluator.
pub struct Ctx<'a, 'p> {
    /// The program being executed.
    pub program: &'p Program,
    /// The launch-wide object store.
    pub memory: &'a mut Memory,
    /// Optional race detector.
    pub races: Option<&'a mut RaceDetector>,
    /// Per-group table of `local`-space declarations (one allocation per
    /// group, shared by its work-items).
    pub group_locals: &'a mut HashMap<String, ObjId>,
    /// Identity of the executing work-item.
    pub ids: ThreadIds,
    /// Step counter (shared with the scheduler for this work-item).
    pub steps: &'a mut u64,
    /// Step budget; exceeding it raises [`RuntimeError::StepLimitExceeded`].
    pub step_limit: u64,
    /// Current user-function call depth.
    pub call_depth: usize,
    /// Count of barriers executed inside helper functions ("soft" barriers).
    pub soft_barriers: &'a mut u64,
}

impl<'a, 'p> Ctx<'a, 'p> {
    fn bump(&mut self, n: u64) -> Result<(), RuntimeError> {
        *self.steps += n;
        if *self.steps > self.step_limit {
            Err(RuntimeError::StepLimitExceeded {
                limit: self.step_limit,
            })
        } else {
            Ok(())
        }
    }

    fn record_access(&mut self, place: &Place, cells: usize, kind: AccessKind) {
        self.access().record(place, cells, kind);
    }

    /// The memory-access view of this context, shared with the bytecode VM so
    /// that both tiers load, store and record races identically.
    pub(crate) fn access(&mut self) -> AccessCtx<'_> {
        AccessCtx {
            memory: self.memory,
            races: self.races.as_deref_mut(),
            ids: self.ids,
            structs: &self.program.structs,
        }
    }

    fn structs(&self) -> &'p [clc::StructDef] {
        &self.program.structs
    }
}

/// The minimal state needed to perform a typed memory access with race
/// recording.  Both execution tiers (the tree-walking evaluator and the
/// bytecode VM) route every load and store through this type, which is what
/// guarantees their bit-for-bit agreement on memory and race semantics.
pub(crate) struct AccessCtx<'a> {
    /// The launch-wide object store.
    pub memory: &'a mut Memory,
    /// Optional race detector.
    pub races: Option<&'a mut RaceDetector>,
    /// Identity of the executing work-item.
    pub ids: ThreadIds,
    /// Struct definitions (for cell counts).
    pub structs: &'a [clc::StructDef],
}

impl AccessCtx<'_> {
    pub(crate) fn record(&mut self, place: &Place, cells: usize, kind: AccessKind) {
        if !place.space.is_shared() {
            return;
        }
        record_shared(
            self.races.as_deref_mut(),
            &self.ids,
            place.obj,
            place.offset,
            cells,
            kind,
        );
    }

    /// Loads the value stored at a place (recording the read).
    pub(crate) fn load(&mut self, place: &Place) -> Result<Value, RuntimeError> {
        let cells = place.ty.cell_count(self.structs);
        self.record(place, cells, AccessKind::Read);
        read_value(
            self.memory,
            self.structs,
            place.obj,
            place.offset,
            &place.ty,
            place.space,
        )
    }

    /// Stores a value into a place (recording the write), converting scalars
    /// to the place's type.
    pub(crate) fn store(&mut self, place: &Place, value: Value) -> Result<(), RuntimeError> {
        let cells = place.ty.cell_count(self.structs);
        self.record(place, cells, AccessKind::Write);
        write_value(
            self.memory,
            self.structs,
            place.obj,
            place.offset,
            &place.ty,
            value,
        )
    }

    /// Assigns `rhs` to the lanes `lanes` of the vector at `place`, combined
    /// with their current values by `op` for a compound assignment, and
    /// returns the value assigned.  A scalar `rhs` is broadcast to every
    /// named lane.  A multi-lane swizzle is an lvalue whose lanes need not
    /// be contiguous, so it has no [`Place`] of its own: each named lane is
    /// read and written on its own, and no other lane is touched.  Naming a
    /// lane twice is an error, as it is in OpenCL C.
    pub(crate) fn store_lanes(
        &mut self,
        place: &Place,
        lanes: &[u8],
        op: Option<BinOp>,
        rhs: Value,
    ) -> Result<Value, RuntimeError> {
        let Type::Vector(elem, _) = place.ty else {
            return Err(RuntimeError::TypeMismatch {
                detail: "swizzle store on non-vector".into(),
            });
        };
        let places = lanes
            .iter()
            .enumerate()
            .map(|(i, &lane)| {
                if lanes[..i].contains(&lane) {
                    return Err(RuntimeError::TypeMismatch {
                        detail: format!("swizzle store names lane {lane} twice"),
                    });
                }
                place.clone().lane(lane as usize)
            })
            .collect::<Result<Vec<Place>, RuntimeError>>()?;
        let value = match op {
            None => rhs,
            Some(op) => {
                let mut current = Vec::with_capacity(places.len());
                for lane in &places {
                    self.record(lane, 1, AccessKind::Read);
                    current.push(self.memory.read_scalar(lane.obj, lane.offset, elem)?.bits);
                }
                value_binop(op, Value::Vector(elem, current), rhs)?
            }
        };
        for (i, lane) in places.iter().enumerate() {
            let part = match &value {
                Value::Vector(elem, data) if data.len() == lanes.len() => {
                    Value::Scalar(Scalar::from_bits(data[i], *elem))
                }
                Value::Vector(..) => {
                    return Err(RuntimeError::TypeMismatch {
                        detail: "vector store with mismatched lane count".into(),
                    })
                }
                scalar => scalar.clone(),
            };
            self.store(lane, part)?;
        }
        Ok(value)
    }
}

/// Records a shared-memory access on the race detector (both tiers route
/// every shared access through this).
pub(crate) fn record_shared(
    races: Option<&mut RaceDetector>,
    ids: &ThreadIds,
    obj: ObjId,
    offset: usize,
    cells: usize,
    kind: AccessKind,
) {
    if let Some(races) = races {
        let thread = ids.linear_global();
        let group = ids.linear_group();
        for i in 0..cells.max(1) {
            races.record(obj, offset + i, thread, group, ids.interval, kind);
        }
    }
}

/// Reads a value of type `ty` at an explicit location (the race recording
/// is the caller's responsibility — see [`AccessCtx::load`]).
fn read_value(
    memory: &Memory,
    structs: &[clc::StructDef],
    obj: ObjId,
    offset: usize,
    ty: &Type,
    space: AddressSpace,
) -> Result<Value, RuntimeError> {
    match ty {
        Type::Scalar(s) => Ok(Value::Scalar(memory.read_scalar(obj, offset, *s)?)),
        Type::Vector(s, w) => {
            let mut lanes = Vec::with_capacity(w.lanes());
            for i in 0..w.lanes() {
                lanes.push(memory.read_scalar(obj, offset + i, *s)?.bits);
            }
            Ok(Value::Vector(*s, lanes))
        }
        Type::Pointer(..) => Ok(Value::Pointer(memory.read_pointer(obj, offset)?)),
        Type::Array(elem, _) => {
            // Array-to-pointer decay: an array used as a value becomes a
            // pointer to its first element.
            Ok(Value::Pointer(PointerValue {
                obj,
                offset,
                pointee: (**elem).clone(),
                space,
            }))
        }
        Type::Struct(_) => {
            let cells = ty.cell_count(structs);
            let data = memory.read_cells(obj, offset, cells)?;
            Ok(Value::Aggregate(ty.clone(), data))
        }
    }
}

/// Stores a value of type `ty` at an explicit location, converting scalars
/// to `ty` (race recording is the caller's responsibility — see
/// [`AccessCtx::store`]).
fn write_value(
    memory: &mut Memory,
    structs: &[clc::StructDef],
    obj: ObjId,
    offset: usize,
    ty: &Type,
    value: Value,
) -> Result<(), RuntimeError> {
    match (ty, value) {
        (Type::Scalar(s), Value::Scalar(v)) => memory.write_scalar(obj, offset, v, *s),
        (Type::Scalar(s), Value::Pointer(_)) => {
            // Storing a pointer into an integer is unusual but appears in
            // hand-written kernels via casts; store a stable token (0).
            memory.write_scalar(obj, offset, Scalar::zero(*s), *s)
        }
        (Type::Vector(s, w), Value::Vector(_, lanes)) => {
            if lanes.len() != w.lanes() {
                return Err(RuntimeError::TypeMismatch {
                    detail: "vector store with mismatched lane count".into(),
                });
            }
            for (i, lane) in lanes.iter().enumerate() {
                memory.write_scalar(obj, offset + i, Scalar::from_bits(*lane, *s), *s)?;
            }
            Ok(())
        }
        (Type::Vector(s, w), Value::Scalar(v)) => {
            // Broadcast store.
            for i in 0..w.lanes() {
                memory.write_scalar(obj, offset + i, v, *s)?;
            }
            Ok(())
        }
        (Type::Pointer(..), Value::Pointer(p)) => memory.write_cell(obj, offset, Cell::Ptr(p)),
        // A scalar zero stored into a pointer location is the C null-pointer
        // constant; dereferencing it later is caught as an invalid access.
        (Type::Pointer(..), Value::Scalar(v)) if v.bits == 0 => {
            memory.write_cell(obj, offset, Cell::Bits(0))
        }
        (Type::Struct(_) | Type::Array(..), Value::Aggregate(_, data)) => {
            let cells = ty.cell_count(structs);
            if data.len() != cells {
                return Err(RuntimeError::TypeMismatch {
                    detail: "aggregate store with mismatched size".into(),
                });
            }
            memory.write_cells(obj, offset, &data)
        }
        (ty, v) => Err(RuntimeError::TypeMismatch {
            detail: format!("cannot store {} into {:?}", v.kind(), ty),
        }),
    }
}

/// Evaluates an expression to a value.
pub fn eval_expr(ctx: &mut Ctx<'_, '_>, env: &mut Env, expr: &Expr) -> Result<Value, RuntimeError> {
    ctx.bump(1)?;
    match expr {
        Expr::IntLit { value, ty } => Ok(Value::Scalar(Scalar::from_i128(*value, *ty))),
        Expr::VectorLit { elem, width, parts } => {
            let mut lanes = Vec::with_capacity(width.lanes());
            for part in parts {
                match eval_expr(ctx, env, part)? {
                    Value::Scalar(s) => lanes.push(s.convert(*elem).bits),
                    Value::Vector(_, sub) => lanes.extend(sub.iter().copied()),
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            detail: format!("vector literal component is a {}", other.kind()),
                        })
                    }
                }
            }
            if lanes.len() == 1 {
                // Broadcast form (int4)(x).
                let v = lanes[0];
                lanes = vec![v; width.lanes()];
            }
            if lanes.len() != width.lanes() {
                return Err(RuntimeError::TypeMismatch {
                    detail: format!(
                        "vector literal provides {} lanes, expected {}",
                        lanes.len(),
                        width.lanes()
                    ),
                });
            }
            Ok(Value::Vector(*elem, lanes))
        }
        Expr::Var(_) | Expr::Index { .. } | Expr::Field { .. } | Expr::Deref(_) => {
            let place = eval_place(ctx, env, expr)?;
            load_place(ctx, &place)
        }
        Expr::Swizzle { base, lanes } => {
            let value = eval_expr(ctx, env, base)?;
            swizzle_value(value, lanes)
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr(ctx, env, expr)?;
            unary_op(*op, v)
        }
        Expr::Binary { op, lhs, rhs } => {
            if op.is_logical() {
                // Short-circuit evaluation.
                let l = eval_expr(ctx, env, lhs)?;
                let lt = l.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                    detail: "logical operand is not scalar".into(),
                })?;
                let result = match op {
                    BinOp::LAnd if !lt => false,
                    BinOp::LOr if lt => true,
                    _ => {
                        let r = eval_expr(ctx, env, rhs)?;
                        r.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                            detail: "logical operand is not scalar".into(),
                        })?
                    }
                };
                return Ok(Value::int(i64::from(result)));
            }
            let l = eval_expr(ctx, env, lhs)?;
            let r = eval_expr(ctx, env, rhs)?;
            value_binop(*op, l, r)
        }
        Expr::Assign { op, lhs, rhs } => {
            let rhs_value = eval_expr(ctx, env, rhs)?;
            if let Expr::Swizzle { base, lanes } = &**lhs {
                if lanes.len() > 1 {
                    let place = eval_place(ctx, env, base)?;
                    return ctx
                        .access()
                        .store_lanes(&place, lanes, op.binop(), rhs_value);
                }
            }
            let place = eval_place(ctx, env, lhs)?;
            let new_value = match op.binop() {
                None => rhs_value,
                Some(binop) => {
                    let current = load_place(ctx, &place)?;
                    value_binop(binop, current, rhs_value)?
                }
            };
            store_place(ctx, &place, new_value.clone())?;
            Ok(new_value)
        }
        Expr::Cond {
            cond,
            then_expr,
            else_expr,
        } => {
            let c = eval_expr(ctx, env, cond)?;
            let taken = c.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                detail: "conditional guard is not scalar".into(),
            })?;
            if taken {
                eval_expr(ctx, env, then_expr)
            } else {
                eval_expr(ctx, env, else_expr)
            }
        }
        Expr::Comma { lhs, rhs } => {
            eval_expr(ctx, env, lhs)?;
            eval_expr(ctx, env, rhs)
        }
        Expr::Call { name, args } => call_function(ctx, env, name, args),
        Expr::BuiltinCall { func, args } => eval_builtin(ctx, env, *func, args),
        Expr::IdQuery(kind) => Ok(Value::Scalar(Scalar::from_i128(
            id_query_value(&ctx.ids, *kind) as i128,
            ScalarType::ULong,
        ))),
        Expr::AddrOf(inner) => {
            let place = eval_place(ctx, env, inner)?;
            Ok(Value::Pointer(PointerValue {
                obj: place.obj,
                offset: place.offset,
                pointee: place.ty,
                space: place.space,
            }))
        }
        Expr::Cast { ty, expr } => {
            let v = eval_expr(ctx, env, expr)?;
            cast_value(ty, v, ctx.structs())
        }
    }
}

/// Resolves an lvalue expression to a storage location.
pub fn eval_place(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    expr: &Expr,
) -> Result<Place, RuntimeError> {
    ctx.bump(1)?;
    match expr {
        Expr::Var(name) => {
            let obj = lookup_var(ctx, env, name)?;
            let object = ctx.memory.object(obj)?;
            Ok(Place {
                obj,
                offset: 0,
                ty: object.ty.clone(),
                space: object.space,
            })
        }
        Expr::Deref(inner) => Ok(eval_pointer(ctx, env, inner)?.into()),
        Expr::Index { base, index } => {
            let idx_value = eval_expr(ctx, env, index)?;
            let idx = idx_value
                .as_scalar()
                .ok_or_else(|| RuntimeError::TypeMismatch {
                    detail: "index is not scalar".into(),
                })?
                .as_i64();
            // Arrays and pointer variables are places.
            let base_place = eval_place(ctx, env, base)?.indexable(ctx.memory)?;
            base_place.index(idx, ctx.structs())
        }
        Expr::Field { base, field, arrow } => {
            let base_place = if *arrow {
                eval_pointer(ctx, env, base)?.into()
            } else {
                eval_place(ctx, env, base)?
            };
            base_place.field(field, ctx.structs())
        }
        Expr::Swizzle { base, lanes } if lanes.len() == 1 => {
            eval_place(ctx, env, base)?.lane(lanes[0] as usize)
        }
        other => Err(RuntimeError::TypeMismatch {
            detail: format!("expression is not an lvalue: {other:?}"),
        }),
    }
}

/// Evaluates an expression that must yield a pointer.
fn eval_pointer(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    expr: &Expr,
) -> Result<PointerValue, RuntimeError> {
    match eval_expr(ctx, env, expr)? {
        Value::Pointer(p) => Ok(p),
        other => Err(RuntimeError::TypeMismatch {
            detail: format!("expected pointer, found {}", other.kind()),
        }),
    }
}

/// Loads the value stored at a place.
pub fn load_place(ctx: &mut Ctx<'_, '_>, place: &Place) -> Result<Value, RuntimeError> {
    ctx.access().load(place)
}

/// Stores a value into a place, converting scalars to the place's type.
pub fn store_place(ctx: &mut Ctx<'_, '_>, place: &Place, value: Value) -> Result<(), RuntimeError> {
    ctx.access().store(place, value)
}

/// Applies a swizzle / component selection to an already-evaluated value.
pub(crate) fn swizzle_value(value: Value, lanes: &[u8]) -> Result<Value, RuntimeError> {
    match value {
        Value::Vector(elem, data) => {
            let selected: Result<Vec<u64>, RuntimeError> = lanes
                .iter()
                .map(|&l| {
                    data.get(l as usize)
                        .copied()
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            detail: format!("swizzle lane {l} out of range"),
                        })
                })
                .collect();
            let selected = selected?;
            if selected.len() == 1 {
                Ok(Value::Scalar(Scalar::from_bits(selected[0], elem)))
            } else {
                Ok(Value::Vector(elem, selected))
            }
        }
        other => Err(RuntimeError::TypeMismatch {
            detail: format!("swizzle applied to {}", other.kind()),
        }),
    }
}

fn lookup_var(ctx: &mut Ctx<'_, '_>, env: &Env, name: &str) -> Result<ObjId, RuntimeError> {
    if let Some(obj) = env.lookup(name) {
        return Ok(obj);
    }
    if let Some(obj) = ctx.group_locals.get(name) {
        return Ok(*obj);
    }
    Err(RuntimeError::UnknownVariable(name.to_string()))
}

pub(crate) fn id_query_value(ids: &ThreadIds, kind: IdKind) -> u64 {
    let dim = |d: Dim| d.index();
    (match kind {
        IdKind::GlobalId(d) => ids.global[dim(d)],
        IdKind::LocalId(d) => ids.local[dim(d)],
        IdKind::GroupId(d) => ids.group[dim(d)],
        IdKind::GlobalSize(d) => ids.global_size[dim(d)],
        IdKind::LocalSize(d) => ids.local_size[dim(d)],
        IdKind::NumGroups(d) => ids.num_groups[dim(d)],
        IdKind::GlobalLinearId => ids.linear_global(),
        IdKind::LocalLinearId => ids.linear_local(),
        IdKind::GroupLinearId => ids.linear_group(),
        IdKind::LinearGroupSize => ids.linear_group_size(),
        IdKind::LinearGlobalSize => ids.linear_global_size(),
    }) as u64
}

pub(crate) fn cast_value(
    ty: &Type,
    value: Value,
    structs: &[clc::StructDef],
) -> Result<Value, RuntimeError> {
    match (ty, value) {
        (Type::Scalar(s), Value::Scalar(v)) => Ok(Value::Scalar(v.convert(*s))),
        (Type::Scalar(s), Value::Pointer(_)) => Ok(Value::Scalar(Scalar::zero(*s))),
        (Type::Vector(s, w), Value::Scalar(v)) => {
            Ok(Value::Vector(*s, vec![v.convert(*s).bits; w.lanes()]))
        }
        (Type::Vector(s, w), Value::Vector(from, lanes)) => {
            if lanes.len() != w.lanes() {
                return Err(RuntimeError::TypeMismatch {
                    detail: "vector cast with mismatched lane count".into(),
                });
            }
            let converted = lanes
                .iter()
                .map(|&bits| Scalar::from_bits(bits, from).convert(*s).bits)
                .collect();
            Ok(Value::Vector(*s, converted))
        }
        (Type::Pointer(inner, _), Value::Pointer(mut p)) => {
            p.pointee = (**inner).clone();
            Ok(Value::Pointer(p))
        }
        (ty, v) => Err(RuntimeError::TypeMismatch {
            detail: format!("cannot cast {} to {}", v.kind(), ty.render(structs)),
        }),
    }
}

pub(crate) fn unary_op(op: UnOp, value: Value) -> Result<Value, RuntimeError> {
    match value {
        Value::Scalar(s) => Ok(Value::Scalar(scalar_unop(op, s))),
        Value::Vector(elem, lanes) => {
            let out = lanes
                .iter()
                .map(|&bits| scalar_unop(op, Scalar::from_bits(bits, elem)).bits)
                .collect();
            Ok(Value::Vector(elem, out))
        }
        Value::Pointer(p) => match op {
            UnOp::LNot => Ok(Value::int(0)),
            _ => Err(RuntimeError::TypeMismatch {
                detail: format!("unary {} on pointer {:?}", op.symbol(), p.pointee),
            }),
        },
        other => Err(RuntimeError::TypeMismatch {
            detail: format!("unary {} on {}", op.symbol(), other.kind()),
        }),
    }
}

fn scalar_unop(op: UnOp, s: Scalar) -> Scalar {
    let promoted = s.convert(s.ty.promoted());
    match op {
        UnOp::Neg => Scalar::from_i128((promoted.as_i64() as i128).wrapping_neg(), promoted.ty),
        UnOp::LNot => Scalar::from_i128(i128::from(!s.is_true()), ScalarType::Int),
        UnOp::BitNot => Scalar::from_bits(!promoted.bits, promoted.ty),
    }
}

/// Shifts `a` by `amount`, masking the amount modulo `a`'s width.
///
/// OpenCL C §6.3(j): unlike C, out-of-range shifts are not undefined — only
/// the low log2(width) bits of the amount are used.  That also defines
/// negative amounts: `x << -1` masks the amount's two's complement bit
/// pattern (so it shifts by width-1).  Masking the raw bits equals masking
/// the sign-extended value because every scalar is at least 8 bits wide and
/// the mask needs at most the low 6.
fn shift_masked(op: BinOp, a: Scalar, amount: Scalar) -> Scalar {
    let ty = a.ty;
    let amount = (amount.as_u64() & u64::from(ty.bits() - 1)) as u32;
    let bits = match op {
        BinOp::Shl => a.bits.wrapping_shl(amount),
        BinOp::Shr => {
            if ty.is_signed() {
                (a.as_i64() >> amount) as u64
            } else {
                a.bits >> amount
            }
        }
        _ => unreachable!(),
    };
    Scalar::from_bits(bits, ty)
}

/// One vector lane's binary operation, shared by both execution tiers'
/// vector paths: §6.3(j) exempts vector operands from integer promotion, so
/// lane shifts keep the element type and mask the amount by the **element**
/// width (a `char` lane shifts modulo 8, where the scalar `char` shift
/// promotes to `int` and masks modulo 32); every other operator goes
/// through [`scalar_binop`] unchanged.
pub(crate) fn vector_lane_binop(op: BinOp, a: Scalar, b: Scalar) -> Result<Scalar, RuntimeError> {
    if op.is_shift() {
        Ok(shift_masked(op, a, b))
    } else {
        scalar_binop(op, a, b)
    }
}

/// Applies a binary operator to two values, lifting over vectors.
pub fn value_binop(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, RuntimeError> {
    match (lhs, rhs) {
        (Value::Scalar(a), Value::Scalar(b)) => scalar_binop(op, a, b).map(Value::Scalar),
        (Value::Vector(ea, la), Value::Vector(eb, lb)) => {
            if la.len() != lb.len() {
                return Err(RuntimeError::TypeMismatch {
                    detail: "vector operands of different widths".into(),
                });
            }
            let mut out = Vec::with_capacity(la.len());
            for (&a, &b) in la.iter().zip(lb.iter()) {
                let r = vector_lane_binop(op, Scalar::from_bits(a, ea), Scalar::from_bits(b, eb))?;
                out.push(if op.is_comparison() {
                    // OpenCL vector comparisons produce -1 (all bits set) for
                    // true, 0 for false.
                    if r.is_true() {
                        Scalar::from_i128(-1, ea.to_signed()).bits
                    } else {
                        0
                    }
                } else {
                    r.convert(ea).bits
                });
            }
            let elem = if op.is_comparison() {
                ea.to_signed()
            } else {
                ea
            };
            Ok(Value::Vector(elem, out))
        }
        (Value::Vector(ea, la), Value::Scalar(b)) => {
            let rhs_vec = Value::Vector(ea, vec![b.convert(ea).bits; la.len()]);
            value_binop(op, Value::Vector(ea, la), rhs_vec)
        }
        (Value::Scalar(a), Value::Vector(eb, lb)) => {
            let lhs_vec = Value::Vector(eb, vec![a.convert(eb).bits; lb.len()]);
            value_binop(op, lhs_vec, Value::Vector(eb, lb))
        }
        (Value::Pointer(p), Value::Scalar(s)) if matches!(op, BinOp::Add | BinOp::Sub) => {
            let stride = 1;
            let delta = s.as_i64();
            let offset = if op == BinOp::Add {
                p.offset as i64 + delta * stride as i64
            } else {
                p.offset as i64 - delta * stride as i64
            };
            if offset < 0 {
                return Err(RuntimeError::InvalidAccess {
                    detail: "pointer arithmetic below object start".into(),
                });
            }
            Ok(Value::Pointer(PointerValue {
                offset: offset as usize,
                ..p
            }))
        }
        (Value::Pointer(a), Value::Pointer(b)) if op.is_comparison() => {
            let equal = a.obj == b.obj && a.offset == b.offset;
            let result = match op {
                BinOp::Eq => equal,
                BinOp::Ne => !equal,
                BinOp::Lt => a.offset < b.offset,
                BinOp::Gt => a.offset > b.offset,
                BinOp::Le => a.offset <= b.offset,
                BinOp::Ge => a.offset >= b.offset,
                _ => unreachable!(),
            };
            Ok(Value::int(i64::from(result)))
        }
        (a, b) => Err(RuntimeError::TypeMismatch {
            detail: format!("operator {} on {} and {}", op.symbol(), a.kind(), b.kind()),
        }),
    }
}

/// Applies a binary operator to two scalars with OpenCL C semantics (usual
/// arithmetic conversions, wrapping on overflow, UB detection for raw
/// division by zero; shift amounts are defined for every value — masked
/// modulo the promoted left-operand width per §6.3(j), never an error).
pub fn scalar_binop(op: BinOp, lhs: Scalar, rhs: Scalar) -> Result<Scalar, RuntimeError> {
    if op.is_comparison() {
        let common = lhs.ty.usual_arithmetic_conversion(rhs.ty);
        let (a, b) = (lhs.convert(common), rhs.convert(common));
        let result = if common.is_signed() {
            let (x, y) = (a.as_i64(), b.as_i64());
            match op {
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::Lt => x < y,
                BinOp::Gt => x > y,
                BinOp::Le => x <= y,
                BinOp::Ge => x >= y,
                _ => unreachable!(),
            }
        } else {
            let (x, y) = (a.as_u64(), b.as_u64());
            match op {
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::Lt => x < y,
                BinOp::Gt => x > y,
                BinOp::Le => x <= y,
                BinOp::Ge => x >= y,
                _ => unreachable!(),
            }
        };
        return Ok(Scalar::from_i128(i128::from(result), ScalarType::Int));
    }
    if op.is_logical() {
        let result = match op {
            BinOp::LAnd => lhs.is_true() && rhs.is_true(),
            BinOp::LOr => lhs.is_true() || rhs.is_true(),
            _ => unreachable!(),
        };
        return Ok(Scalar::from_i128(i128::from(result), ScalarType::Int));
    }
    if op.is_shift() {
        // Scalar shift: the result has the *promoted* type of the left
        // operand, and the amount is masked by that promoted width
        // (vector lanes are exempt from promotion and mask by the element
        // width instead — see [`vector_lane_binop`]).
        let ty = lhs.ty.promoted();
        return Ok(shift_masked(op, lhs.convert(ty), rhs));
    }
    let common = lhs.ty.usual_arithmetic_conversion(rhs.ty);
    let a = lhs.convert(common);
    let b = rhs.convert(common);
    let result_bits = if common.is_signed() {
        let (x, y) = (a.as_i64(), b.as_i64());
        let r: i64 = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                x.wrapping_div(y)
            }
            BinOp::Mod => {
                if y == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                x.wrapping_rem(y)
            }
            BinOp::BitAnd => x & y,
            BinOp::BitOr => x | y,
            BinOp::BitXor => x ^ y,
            _ => unreachable!(),
        };
        r as u64
    } else {
        let (x, y) = (a.as_u64(), b.as_u64());
        match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                x / y
            }
            BinOp::Mod => {
                if y == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                x % y
            }
            BinOp::BitAnd => x & y,
            BinOp::BitOr => x | y,
            BinOp::BitXor => x ^ y,
            _ => unreachable!(),
        }
    };
    Ok(Scalar::from_bits(result_bits, common))
}

fn eval_builtin(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    func: Builtin,
    args: &[Expr],
) -> Result<Value, RuntimeError> {
    if func.is_atomic() {
        return eval_atomic(ctx, env, func, args);
    }
    let values: Vec<Value> = args
        .iter()
        .map(|a| eval_expr(ctx, env, a))
        .collect::<Result<_, _>>()?;
    lift_builtin(func, &values)
}

/// Applies a non-atomic builtin, lifting component-wise over vectors.  The
/// result lanes have the element type of the vector argument, except for
/// `abs`, whose lanes are unsigned, as its scalar result is.
pub fn lift_builtin(func: Builtin, values: &[Value]) -> Result<Value, RuntimeError> {
    if values.len() > MAX_BUILTIN_ARGS {
        return Err(RuntimeError::TypeMismatch {
            detail: format!(
                "builtin {} takes at most {MAX_BUILTIN_ARGS} arguments",
                func.name()
            ),
        });
    }
    let mismatch = |v: &Value| RuntimeError::TypeMismatch {
        detail: format!("builtin {} on {}", func.name(), v.kind()),
    };
    // One lane's arguments, rebuilt in place for every lane.
    let mut lane_args = [Scalar::zero(ScalarType::Int); MAX_BUILTIN_ARGS];
    let args = &mut lane_args[..values.len()];
    let vector = values.iter().find_map(|v| match v {
        Value::Vector(elem, lanes) => Some((*elem, lanes.len())),
        _ => None,
    });
    let Some((elem, n)) = vector else {
        for (arg, v) in args.iter_mut().zip(values) {
            *arg = v.as_scalar().ok_or_else(|| mismatch(v))?;
        }
        return scalar_builtin(func, args).map(Value::Scalar);
    };
    let out_elem = if func == Builtin::Abs {
        elem.to_unsigned()
    } else {
        elem
    };
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        for (arg, v) in args.iter_mut().zip(values) {
            *arg = match v {
                Value::Vector(e, l) => Scalar::from_bits(l[i], *e),
                Value::Scalar(s) => *s,
                other => return Err(mismatch(other)),
            };
        }
        out.push(scalar_builtin(func, args)?.convert(out_elem).bits);
    }
    Ok(Value::Vector(out_elem, out))
}

/// The most arguments a non-atomic builtin takes (`clamp`, `safe_clamp`).
const MAX_BUILTIN_ARGS: usize = 3;

pub(crate) fn scalar_builtin(func: Builtin, args: &[Scalar]) -> Result<Scalar, RuntimeError> {
    let arg = |i: usize| args[i];
    match func {
        Builtin::SafeAdd => scalar_binop(BinOp::Add, arg(0), arg(1)),
        Builtin::SafeSub => scalar_binop(BinOp::Sub, arg(0), arg(1)),
        Builtin::SafeMul => scalar_binop(BinOp::Mul, arg(0), arg(1)),
        Builtin::SafeDiv => {
            if !arg(1).is_true() {
                Ok(arg(0))
            } else {
                safe_divlike(BinOp::Div, arg(0), arg(1))
            }
        }
        Builtin::SafeMod => {
            if !arg(1).is_true() {
                Ok(arg(0))
            } else {
                safe_divlike(BinOp::Mod, arg(0), arg(1))
            }
        }
        Builtin::SafeLshift | Builtin::SafeRshift => {
            let masked = Scalar::from_i128((arg(1).as_u64() & 31) as i128, ScalarType::Int);
            let op = if func == Builtin::SafeLshift {
                BinOp::Shl
            } else {
                BinOp::Shr
            };
            scalar_binop(op, arg(0), masked)
        }
        Builtin::SafeUnaryMinus => Ok(scalar_unop(UnOp::Neg, arg(0))),
        Builtin::Clamp | Builtin::SafeClamp => {
            let (x, lo, hi) = (arg(0), arg(1), arg(2));
            let common =
                x.ty.usual_arithmetic_conversion(lo.ty.usual_arithmetic_conversion(hi.ty));
            let cmp = |a: Scalar, b: Scalar| -> std::cmp::Ordering {
                if common.is_signed() {
                    a.convert(common).as_i64().cmp(&b.convert(common).as_i64())
                } else {
                    a.convert(common).as_u64().cmp(&b.convert(common).as_u64())
                }
            };
            if cmp(lo, hi) == std::cmp::Ordering::Greater {
                return if func == Builtin::SafeClamp {
                    Ok(x)
                } else {
                    Err(RuntimeError::InvalidClamp)
                };
            }
            let clamped = if cmp(x, lo) == std::cmp::Ordering::Less {
                lo
            } else if cmp(x, hi) == std::cmp::Ordering::Greater {
                hi
            } else {
                x
            };
            Ok(clamped.convert(x.ty))
        }
        Builtin::Rotate => {
            let (x, y) = (arg(0), arg(1));
            let width = x.ty.bits();
            let amount = (y.as_u64() % u64::from(width)) as u32;
            let bits = if amount == 0 {
                x.bits
            } else {
                crate::value::mask(
                    x.bits.wrapping_shl(amount) | (x.bits >> (width - amount)),
                    x.ty,
                )
            };
            Ok(Scalar::from_bits(bits, x.ty))
        }
        Builtin::Min | Builtin::Max => {
            let (a, b) = (arg(0), arg(1));
            let common = a.ty.usual_arithmetic_conversion(b.ty);
            let a_first = if common.is_signed() {
                a.convert(common).as_i64() <= b.convert(common).as_i64()
            } else {
                a.convert(common).as_u64() <= b.convert(common).as_u64()
            };
            let pick_a = if func == Builtin::Min {
                a_first
            } else {
                !a_first
            };
            // The result has the usual-arithmetic-conversion type; returning
            // the unconverted winning operand would make the result's type
            // (and hence downstream conversions) depend on which side won.
            Ok(if pick_a {
                a.convert(common)
            } else {
                b.convert(common)
            })
        }
        Builtin::Abs => {
            let a = arg(0);
            if a.ty.is_signed() {
                let v = a.as_i64();
                Ok(Scalar::from_i128(
                    (v as i128).unsigned_abs() as i128,
                    a.ty.to_unsigned(),
                ))
            } else {
                // OpenCL `abs` on an unsigned operand is the identity; routing
                // it through the signed interpretation would fold the upper
                // half of the range onto the lower.
                Ok(a)
            }
        }
        _ => Err(RuntimeError::Unsupported(format!(
            "builtin {}",
            func.name()
        ))),
    }
}

/// Division-like op where the divisor is known non-zero; additionally guards
/// the `INT_MIN / -1` overflow by returning the dividend (mirroring Csmith's
/// safe-math functions).
fn safe_divlike(op: BinOp, a: Scalar, b: Scalar) -> Result<Scalar, RuntimeError> {
    let common = a.ty.usual_arithmetic_conversion(b.ty);
    if common.is_signed() {
        let x = a.convert(common).as_i64();
        let y = b.convert(common).as_i64();
        let min = i64::MIN >> (64 - common.bits());
        if x == min && y == -1 {
            return Ok(a.convert(common));
        }
    }
    scalar_binop(op, a, b)
}

fn eval_atomic(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    func: Builtin,
    args: &[Expr],
) -> Result<Value, RuntimeError> {
    let ptr = eval_pointer(ctx, env, &args[0])?;
    let elem = match &ptr.pointee {
        Type::Scalar(s) if s.bits() == 32 => *s,
        other => {
            return Err(RuntimeError::TypeMismatch {
                detail: format!("atomic on non-32-bit location {other:?}"),
            })
        }
    };
    let place = Place {
        obj: ptr.obj,
        offset: ptr.offset,
        ty: Type::Scalar(elem),
        space: ptr.space,
    };
    ctx.record_access(&place, 1, AccessKind::Atomic);
    let old = ctx.memory.read_scalar(place.obj, place.offset, elem)?;
    let operand =
        |ctx: &mut Ctx<'_, '_>, env: &mut Env, i: usize| -> Result<Scalar, RuntimeError> {
            let v = eval_expr(ctx, env, &args[i])?;
            v.as_scalar().ok_or_else(|| RuntimeError::TypeMismatch {
                detail: "atomic operand is not scalar".into(),
            })
        };
    let new = match func {
        Builtin::AtomicInc => scalar_binop(BinOp::Add, old, Scalar::from_i128(1, elem))?,
        Builtin::AtomicDec => scalar_binop(BinOp::Sub, old, Scalar::from_i128(1, elem))?,
        Builtin::AtomicAdd => scalar_binop(BinOp::Add, old, operand(ctx, env, 1)?)?,
        Builtin::AtomicSub => scalar_binop(BinOp::Sub, old, operand(ctx, env, 1)?)?,
        Builtin::AtomicAnd => scalar_binop(BinOp::BitAnd, old, operand(ctx, env, 1)?)?,
        Builtin::AtomicOr => scalar_binop(BinOp::BitOr, old, operand(ctx, env, 1)?)?,
        Builtin::AtomicXor => scalar_binop(BinOp::BitXor, old, operand(ctx, env, 1)?)?,
        Builtin::AtomicMin => {
            let v = operand(ctx, env, 1)?;
            scalar_builtin(Builtin::Min, &[old, v])?
        }
        Builtin::AtomicMax => {
            let v = operand(ctx, env, 1)?;
            scalar_builtin(Builtin::Max, &[old, v])?
        }
        Builtin::AtomicXchg => operand(ctx, env, 1)?,
        Builtin::AtomicCmpxchg => {
            let cmp = operand(ctx, env, 1)?;
            let val = operand(ctx, env, 2)?;
            if old.convert(elem).bits == cmp.convert(elem).bits {
                val
            } else {
                old
            }
        }
        _ => unreachable!("non-atomic builtin routed to eval_atomic"),
    };
    ctx.memory
        .write_scalar(place.obj, place.offset, new, elem)?;
    Ok(Value::Scalar(old.convert(elem)))
}

fn call_function(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    name: &str,
    args: &[Expr],
) -> Result<Value, RuntimeError> {
    if ctx.call_depth >= MAX_CALL_DEPTH {
        return Err(RuntimeError::CallDepthExceeded);
    }
    let func = ctx
        .program
        .function(name)
        .ok_or_else(|| RuntimeError::UnknownFunction(name.to_string()))?;
    if args.len() != func.params.len() {
        return Err(RuntimeError::TypeMismatch {
            detail: format!(
                "call to `{name}` with {} args, expected {}",
                args.len(),
                func.params.len()
            ),
        });
    }
    // Evaluate arguments in the caller's environment.
    let mut arg_values = Vec::with_capacity(args.len());
    for a in args {
        arg_values.push(eval_expr(ctx, env, a)?);
    }
    // Fresh environment for the callee; parameters behave like initialised
    // local variables.
    let mut callee_env = Env::new();
    for (param, value) in func.params.iter().zip(arg_values) {
        let obj = ctx.memory.alloc(
            param.name.clone(),
            param.ty.clone(),
            AddressSpace::Private,
            ctx.structs(),
        );
        callee_env.bind_owned(param.name.clone(), obj);
        let object_ty = ctx.memory.object(obj)?.ty.clone();
        let place = Place {
            obj,
            offset: 0,
            ty: object_ty,
            space: AddressSpace::Private,
        };
        store_place(ctx, &place, value)?;
    }
    ctx.call_depth += 1;
    let flow = exec_block(ctx, &mut callee_env, &func.body);
    ctx.call_depth -= 1;
    callee_env.pop_to_depth(0, ctx.memory);
    match flow? {
        Flow::Return(Some(v)) => Ok(v),
        Flow::Return(None) | Flow::Normal => Ok(Value::int(0)),
        Flow::Break | Flow::Continue => Err(RuntimeError::Unsupported(
            "break/continue escaping a function body".into(),
        )),
    }
}

/// Executes a block recursively (used for helper function bodies and for
/// kernel-body statements that contain no barrier).
pub fn exec_block(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    block: &Block,
) -> Result<Flow, RuntimeError> {
    env.push_scope();
    let result = exec_block_inner(ctx, env, block);
    env.pop_scope(ctx.memory);
    result
}

fn exec_block_inner(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    block: &Block,
) -> Result<Flow, RuntimeError> {
    for stmt in block.iter() {
        match exec_stmt(ctx, env, stmt)? {
            Flow::Normal => {}
            other => return Ok(other),
        }
    }
    Ok(Flow::Normal)
}

/// Executes a single statement recursively.
pub fn exec_stmt(ctx: &mut Ctx<'_, '_>, env: &mut Env, stmt: &Stmt) -> Result<Flow, RuntimeError> {
    ctx.bump(1)?;
    match stmt {
        Stmt::Decl { .. } => {
            declare_var(ctx, env, stmt)?;
            Ok(Flow::Normal)
        }
        Stmt::Expr(e) => {
            eval_expr(ctx, env, e)?;
            Ok(Flow::Normal)
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => {
            let c = eval_expr(ctx, env, cond)?;
            let taken = c.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                detail: "if condition is not scalar".into(),
            })?;
            if taken {
                exec_block(ctx, env, then_block)
            } else if let Some(e) = else_block {
                exec_block(ctx, env, e)
            } else {
                Ok(Flow::Normal)
            }
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            env.push_scope();
            let result = (|| -> Result<Flow, RuntimeError> {
                if let Some(init) = init {
                    exec_stmt(ctx, env, init)?;
                }
                loop {
                    ctx.bump(1)?;
                    if let Some(c) = cond {
                        let v = eval_expr(ctx, env, c)?;
                        if !v.is_true().unwrap_or(false) {
                            break;
                        }
                    }
                    match exec_block(ctx, env, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(u) = update {
                        eval_expr(ctx, env, u)?;
                    }
                }
                Ok(Flow::Normal)
            })();
            env.pop_scope(ctx.memory);
            result
        }
        Stmt::While { cond, body } => loop {
            ctx.bump(1)?;
            let v = eval_expr(ctx, env, cond)?;
            if !v.is_true().unwrap_or(false) {
                return Ok(Flow::Normal);
            }
            match exec_block(ctx, env, body)? {
                Flow::Break => return Ok(Flow::Normal),
                Flow::Return(v) => return Ok(Flow::Return(v)),
                Flow::Normal | Flow::Continue => {}
            }
        },
        Stmt::Block(b) => exec_block(ctx, env, b),
        Stmt::Return(None) => Ok(Flow::Return(None)),
        Stmt::Return(Some(e)) => {
            let v = eval_expr(ctx, env, e)?;
            Ok(Flow::Return(Some(v)))
        }
        Stmt::Break => Ok(Flow::Break),
        Stmt::Continue => Ok(Flow::Continue),
        Stmt::Barrier(_) => {
            // Soft barrier: reached through a helper function call (or
            // through the recursive executor); counted but not synchronising.
            *ctx.soft_barriers += 1;
            Ok(Flow::Normal)
        }
        Stmt::Emi(emi) => {
            if emi_guard_is_true(ctx, env, emi)? {
                exec_block(ctx, env, &emi.body)
            } else {
                Ok(Flow::Normal)
            }
        }
    }
}

/// Evaluates the `dead[a] < dead[b]` guard of an EMI block.
pub fn emi_guard_is_true(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    emi: &clc::EmiBlock,
) -> Result<bool, RuntimeError> {
    let guard = Expr::binary(
        BinOp::Lt,
        Expr::index(Expr::var("dead"), Expr::int(emi.guard.0 as i64)),
        Expr::index(Expr::var("dead"), Expr::int(emi.guard.1 as i64)),
    );
    let v = eval_expr(ctx, env, &guard)?;
    Ok(v.is_true().unwrap_or(false))
}

/// Executes a declaration statement, allocating storage and binding the name.
pub fn declare_var(ctx: &mut Ctx<'_, '_>, env: &mut Env, stmt: &Stmt) -> Result<(), RuntimeError> {
    let Stmt::Decl {
        name,
        ty,
        space,
        init,
        init_list,
        ..
    } = stmt
    else {
        return Err(RuntimeError::TypeMismatch {
            detail: "declare_var on non-declaration".into(),
        });
    };
    match space {
        AddressSpace::Local => {
            // One allocation per work-group, shared by all its work-items;
            // OpenCL forbids initialisers on local declarations, so the
            // storage is zero-initialised (deterministic across devices in
            // practice for CLsmith's usage, which always stores before
            // loading).
            let obj = if let Some(existing) = ctx.group_locals.get(name) {
                *existing
            } else {
                let obj = ctx.memory.alloc_zeroed(
                    name.clone(),
                    ty.clone(),
                    AddressSpace::Local,
                    ctx.structs(),
                );
                if let Some(races) = ctx.races.as_deref_mut() {
                    races.name_object(obj, name);
                }
                ctx.group_locals.insert(name.clone(), obj);
                obj
            };
            env.bind(name.clone(), obj);
            Ok(())
        }
        _ => {
            let obj = ctx.memory.alloc(
                name.clone(),
                ty.clone(),
                AddressSpace::Private,
                ctx.structs(),
            );
            env.bind_owned(name.clone(), obj);
            if let Some(e) = init {
                let v = eval_expr(ctx, env, e)?;
                let place = Place {
                    obj,
                    offset: 0,
                    ty: ty.clone(),
                    space: AddressSpace::Private,
                };
                store_place(ctx, &place, v)?;
            } else if let Some(list) = init_list {
                // Brace initialisation zero-fills unspecified members.
                let cells = ty.cell_count(ctx.structs());
                ctx.memory
                    .write_cells(obj, 0, &vec![Cell::Bits(0); cells])?;
                apply_initializer(ctx, env, obj, 0, ty, list)?;
            }
            Ok(())
        }
    }
}

fn apply_initializer(
    ctx: &mut Ctx<'_, '_>,
    env: &mut Env,
    obj: ObjId,
    offset: usize,
    ty: &Type,
    init: &Initializer,
) -> Result<(), RuntimeError> {
    match (ty, init) {
        (_, Initializer::Expr(e)) => {
            let v = eval_expr(ctx, env, e)?;
            let place = Place {
                obj,
                offset,
                ty: ty.clone(),
                space: AddressSpace::Private,
            };
            store_place(ctx, &place, v)
        }
        (Type::Array(elem, len), Initializer::List(items)) => {
            let stride = elem.cell_count(ctx.structs());
            for (i, item) in items.iter().enumerate() {
                if i >= *len {
                    break;
                }
                apply_initializer(ctx, env, obj, offset + i * stride, elem, item)?;
            }
            Ok(())
        }
        (Type::Struct(id), Initializer::List(items)) => {
            let def = ctx.program.struct_def(*id).clone();
            if def.is_union {
                // Only the first member is initialised.
                if let (Some(field), Some(item)) = (def.fields.first(), items.first()) {
                    apply_initializer(ctx, env, obj, offset, &field.ty, item)?;
                }
                return Ok(());
            }
            let mut field_offset = 0usize;
            for (field, item) in def.fields.iter().zip(items) {
                apply_initializer(ctx, env, obj, offset + field_offset, &field.ty, item)?;
                field_offset += field.ty.cell_count(ctx.structs());
            }
            Ok(())
        }
        (Type::Vector(elem, width), Initializer::List(items)) => {
            for (i, item) in items.iter().enumerate() {
                if i >= width.lanes() {
                    break;
                }
                apply_initializer(ctx, env, obj, offset + i, &Type::Scalar(*elem), item)?;
            }
            Ok(())
        }
        (other, Initializer::List(_)) => Err(RuntimeError::TypeMismatch {
            detail: format!("brace initialiser for non-aggregate {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::{AssignOp, KernelDef, LaunchConfig, Program};

    fn test_ids() -> ThreadIds {
        ThreadIds {
            global: [0, 0, 0],
            local: [0, 0, 0],
            group: [0, 0, 0],
            global_size: [4, 1, 1],
            local_size: [4, 1, 1],
            num_groups: [1, 1, 1],
            interval: 0,
        }
    }

    fn empty_program() -> Program {
        Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::new(),
            },
            LaunchConfig::single_group(4),
        )
    }

    struct Harness {
        program: Program,
        memory: Memory,
        group_locals: HashMap<String, ObjId>,
        steps: u64,
        soft: u64,
    }

    impl Harness {
        fn new(program: Program) -> Harness {
            Harness {
                program,
                memory: Memory::new(),
                group_locals: HashMap::new(),
                steps: 0,
                soft: 0,
            }
        }

        fn eval(&mut self, env: &mut Env, e: &Expr) -> Result<Value, RuntimeError> {
            let mut ctx = Ctx {
                program: &self.program,
                memory: &mut self.memory,
                races: None,
                group_locals: &mut self.group_locals,
                ids: test_ids(),
                steps: &mut self.steps,
                step_limit: 100_000,
                call_depth: 0,
                soft_barriers: &mut self.soft,
            };
            eval_expr(&mut ctx, env, e)
        }

        fn exec(&mut self, env: &mut Env, s: &Stmt) -> Result<Flow, RuntimeError> {
            let mut ctx = Ctx {
                program: &self.program,
                memory: &mut self.memory,
                races: None,
                group_locals: &mut self.group_locals,
                ids: test_ids(),
                steps: &mut self.steps,
                step_limit: 100_000,
                call_depth: 0,
                soft_barriers: &mut self.soft,
            };
            exec_stmt(&mut ctx, env, s)
        }
    }

    #[test]
    fn thread_id_linearisation_matches_paper() {
        let ids = ThreadIds {
            global: [3, 2, 1],
            local: [1, 0, 1],
            group: [1, 1, 0],
            global_size: [4, 3, 2],
            local_size: [2, 1, 1],
            num_groups: [2, 3, 2],
            interval: 0,
        };
        // t_linear = (t_z*N_y + t_y)*N_x + t_x = (1*3 + 2)*4 + 3 = 23
        assert_eq!(ids.linear_global(), 23);
        assert_eq!(ids.linear_group_size(), 2);
        assert_eq!(ids.linear_global_size(), 24);
    }

    #[test]
    fn arithmetic_with_conversions() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        // (char)200 + 100 at int width: (char)200 == -56, so result 44.
        let e = Expr::binary(
            BinOp::Add,
            Expr::cast(Type::Scalar(ScalarType::Char), Expr::int(200)),
            Expr::int(100),
        );
        let v = h.eval(&mut env, &e).unwrap();
        assert_eq!(v.as_scalar().unwrap().as_i64(), 44);
    }

    #[test]
    fn division_by_zero_is_detected_but_safe_div_is_not() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        let raw = Expr::binary(BinOp::Div, Expr::int(5), Expr::int(0));
        assert!(matches!(
            h.eval(&mut env, &raw),
            Err(RuntimeError::DivisionByZero)
        ));
        let safe = Expr::builtin(Builtin::SafeDiv, vec![Expr::int(5), Expr::int(0)]);
        assert_eq!(
            h.eval(&mut env, &safe)
                .unwrap()
                .as_scalar()
                .unwrap()
                .as_i64(),
            5
        );
    }

    #[test]
    fn rotate_matches_figure_2b_expectation() {
        // rotate((uint2)(1,1), (uint2)(0,0)).x == 1
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        let e = Expr::lane(
            Expr::builtin(
                Builtin::Rotate,
                vec![
                    Expr::VectorLit {
                        elem: ScalarType::UInt,
                        width: clc::VectorWidth::W2,
                        parts: vec![
                            Expr::lit(1, ScalarType::UInt),
                            Expr::lit(1, ScalarType::UInt),
                        ],
                    },
                    Expr::VectorLit {
                        elem: ScalarType::UInt,
                        width: clc::VectorWidth::W2,
                        parts: vec![
                            Expr::lit(0, ScalarType::UInt),
                            Expr::lit(0, ScalarType::UInt),
                        ],
                    },
                ],
            ),
            0,
        );
        assert_eq!(
            h.eval(&mut env, &e).unwrap().as_scalar().unwrap().as_u64(),
            1
        );
    }

    #[test]
    fn rotate_wraps_bits() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        let e = Expr::builtin(
            Builtin::Rotate,
            vec![
                Expr::lit(0x8000_0001, ScalarType::UInt),
                Expr::lit(1, ScalarType::UInt),
            ],
        );
        assert_eq!(
            h.eval(&mut env, &e).unwrap().as_scalar().unwrap().as_u64(),
            3
        );
    }

    #[test]
    fn comma_operator_yields_rhs() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        let e = Expr::comma(Expr::int(5), Expr::int(9));
        assert_eq!(
            h.eval(&mut env, &e).unwrap().as_scalar().unwrap().as_i64(),
            9
        );
    }

    #[test]
    fn declarations_assignments_and_loops() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        h.exec(
            &mut env,
            &Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(0))),
        )
        .unwrap();
        // for (int i = 0; i < 10; i += 1) x = x + i;
        let loop_stmt = Stmt::For {
            init: Some(Box::new(Stmt::decl(
                "i",
                Type::Scalar(ScalarType::Int),
                Some(Expr::int(0)),
            ))),
            cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(10))),
            update: Some(Expr::assign_op(
                AssignOp::AddAssign,
                Expr::var("i"),
                Expr::int(1),
            )),
            body: Block::of(vec![Stmt::assign(
                Expr::var("x"),
                Expr::binary(BinOp::Add, Expr::var("x"), Expr::var("i")),
            )]),
        };
        h.exec(&mut env, &loop_stmt).unwrap();
        let v = h.eval(&mut env, &Expr::var("x")).unwrap();
        assert_eq!(v.as_scalar().unwrap().as_i64(), 45);
    }

    #[test]
    fn struct_fields_pointers_and_whole_struct_copy() {
        let mut program = empty_program();
        let sid = program.add_struct(clc::StructDef::new(
            "S",
            vec![
                clc::Field::new("x", Type::Scalar(ScalarType::Int)),
                clc::Field::new("y", Type::Scalar(ScalarType::Int)),
            ],
        ));
        let mut h = Harness::new(program);
        let mut env = Env::new();
        h.exec(
            &mut env,
            &Stmt::decl_init_list(
                "s",
                Type::Struct(sid),
                Initializer::of_exprs(vec![Expr::int(1), Expr::int(2)]),
            ),
        )
        .unwrap();
        h.exec(&mut env, &Stmt::decl("t", Type::Struct(sid), None))
            .unwrap();
        // t = s; then read t.y through a pointer.
        h.exec(&mut env, &Stmt::assign(Expr::var("t"), Expr::var("s")))
            .unwrap();
        h.exec(
            &mut env,
            &Stmt::decl(
                "p",
                Type::Struct(sid).pointer_to(AddressSpace::Private),
                Some(Expr::addr_of(Expr::var("t"))),
            ),
        )
        .unwrap();
        let v = h.eval(&mut env, &Expr::arrow(Expr::var("p"), "y")).unwrap();
        assert_eq!(v.as_scalar().unwrap().as_i64(), 2);
    }

    #[test]
    fn union_initialisation_only_sets_first_member() {
        let mut program = empty_program();
        let uid = program.add_struct(clc::StructDef::union(
            "U",
            vec![
                clc::Field::new("a", Type::Scalar(ScalarType::UInt)),
                clc::Field::new("b", Type::Scalar(ScalarType::ULong)),
            ],
        ));
        let mut h = Harness::new(program);
        let mut env = Env::new();
        h.exec(
            &mut env,
            &Stmt::decl_init_list(
                "u",
                Type::Struct(uid),
                Initializer::of_exprs(vec![Expr::int(7)]),
            ),
        )
        .unwrap();
        let v = h.eval(&mut env, &Expr::field(Expr::var("u"), "a")).unwrap();
        assert_eq!(v.as_scalar().unwrap().as_u64(), 7);
    }

    #[test]
    fn function_calls_pass_pointers() {
        let mut program = empty_program();
        let sid = program.add_struct(clc::StructDef::new(
            "S",
            vec![
                clc::Field::new("x", Type::Scalar(ScalarType::Int)),
                clc::Field::new("y", Type::Scalar(ScalarType::Int)),
            ],
        ));
        program.functions.push(clc::FunctionDef::new(
            "f",
            None,
            vec![clc::Param::new(
                "p",
                Type::Struct(sid).pointer_to(AddressSpace::Private),
            )],
            Block::of(vec![Stmt::assign(
                Expr::arrow(Expr::var("p"), "x"),
                Expr::int(2),
            )]),
        ));
        let mut h = Harness::new(program);
        let mut env = Env::new();
        h.exec(
            &mut env,
            &Stmt::decl_init_list(
                "s",
                Type::Struct(sid),
                Initializer::of_exprs(vec![Expr::int(1), Expr::int(1)]),
            ),
        )
        .unwrap();
        h.exec(
            &mut env,
            &Stmt::expr(Expr::call("f", vec![Expr::addr_of(Expr::var("s"))])),
        )
        .unwrap();
        // s.x + s.y == 2 + 1 == 3 (the expected result in Figure 1(d)).
        let v = h
            .eval(
                &mut env,
                &Expr::binary(
                    BinOp::Add,
                    Expr::field(Expr::var("s"), "x"),
                    Expr::field(Expr::var("s"), "y"),
                ),
            )
            .unwrap();
        assert_eq!(v.as_scalar().unwrap().as_i64(), 3);
    }

    #[test]
    fn step_limit_catches_infinite_loops() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        let inf = Stmt::While {
            cond: Expr::int(1),
            body: Block::new(),
        };
        let result = h.exec(&mut env, &inf);
        assert!(matches!(
            result,
            Err(RuntimeError::StepLimitExceeded { .. })
        ));
    }

    #[test]
    fn uninitialised_reads_are_flagged() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        h.exec(
            &mut env,
            &Stmt::decl("x", Type::Scalar(ScalarType::Int), None),
        )
        .unwrap();
        assert!(matches!(
            h.eval(&mut env, &Expr::var("x")),
            Err(RuntimeError::UninitializedRead { .. })
        ));
    }

    #[test]
    fn short_circuit_prevents_rhs_evaluation() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        // 0 && (1/0) must not trap.
        let e = Expr::binary(
            BinOp::LAnd,
            Expr::int(0),
            Expr::binary(BinOp::Div, Expr::int(1), Expr::int(0)),
        );
        assert_eq!(
            h.eval(&mut env, &e).unwrap().as_scalar().unwrap().as_i64(),
            0
        );
    }

    #[test]
    fn emi_guard_follows_dead_array() {
        let mut program = empty_program();
        program.dead_len = 4;
        let mut h = Harness::new(program);
        let mut env = Env::new();
        // Simulate the host-side dead array: dead[j] = j.
        let dead_obj = h.memory.alloc_with_cells(
            "dead_buf",
            Type::Scalar(ScalarType::Int).array_of(4),
            AddressSpace::Global,
            (0..4).map(|j| Cell::Bits(j as u64)).collect(),
        );
        let param_obj = h.memory.alloc_with_cells(
            "dead",
            Type::Scalar(ScalarType::Int).pointer_to(AddressSpace::Global),
            AddressSpace::Private,
            vec![Cell::Ptr(PointerValue {
                obj: dead_obj,
                offset: 0,
                pointee: Type::Scalar(ScalarType::Int),
                space: AddressSpace::Global,
            })],
        );
        env.bind("dead", param_obj);
        h.exec(
            &mut env,
            &Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(0))),
        )
        .unwrap();
        let emi = Stmt::Emi(clc::EmiBlock {
            index: 0,
            guard: (3, 1),
            body: Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(99))]),
        });
        h.exec(&mut env, &emi).unwrap();
        // Guard dead[3] < dead[1] is false, so x stays 0.
        assert_eq!(
            h.eval(&mut env, &Expr::var("x"))
                .unwrap()
                .as_scalar()
                .unwrap()
                .as_i64(),
            0
        );
    }

    #[test]
    fn atomics_return_old_value() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        h.exec(
            &mut env,
            &Stmt::decl(
                "c",
                Type::Scalar(ScalarType::UInt),
                Some(Expr::lit(5, ScalarType::UInt)),
            ),
        )
        .unwrap();
        let inc = Expr::builtin(Builtin::AtomicInc, vec![Expr::addr_of(Expr::var("c"))]);
        assert_eq!(
            h.eval(&mut env, &inc)
                .unwrap()
                .as_scalar()
                .unwrap()
                .as_u64(),
            5
        );
        assert_eq!(
            h.eval(&mut env, &Expr::var("c"))
                .unwrap()
                .as_scalar()
                .unwrap()
                .as_u64(),
            6
        );
        let cmpxchg = Expr::builtin(
            Builtin::AtomicCmpxchg,
            vec![
                Expr::addr_of(Expr::var("c")),
                Expr::lit(6, ScalarType::UInt),
                Expr::lit(42, ScalarType::UInt),
            ],
        );
        assert_eq!(
            h.eval(&mut env, &cmpxchg)
                .unwrap()
                .as_scalar()
                .unwrap()
                .as_u64(),
            6
        );
        assert_eq!(
            h.eval(&mut env, &Expr::var("c"))
                .unwrap()
                .as_scalar()
                .unwrap()
                .as_u64(),
            42
        );
    }

    #[test]
    fn vector_comparison_produces_minus_one() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        let e = Expr::binary(
            BinOp::Lt,
            Expr::VectorLit {
                elem: ScalarType::Int,
                width: clc::VectorWidth::W2,
                parts: vec![Expr::int(1), Expr::int(5)],
            },
            Expr::VectorLit {
                elem: ScalarType::Int,
                width: clc::VectorWidth::W2,
                parts: vec![Expr::int(3), Expr::int(3)],
            },
        );
        match h.eval(&mut env, &e).unwrap() {
            Value::Vector(ty, lanes) => {
                assert_eq!(ty, ScalarType::Int);
                assert_eq!(
                    lanes
                        .iter()
                        .map(|&b| Scalar::from_bits(b, ScalarType::Int).as_i64())
                        .collect::<Vec<_>>(),
                    vec![-1, 0]
                );
            }
            other => panic!("expected vector, got {other:?}"),
        }
    }

    #[test]
    fn clamp_ub_and_safe_clamp() {
        let mut h = Harness::new(empty_program());
        let mut env = Env::new();
        let bad = Expr::builtin(
            Builtin::Clamp,
            vec![Expr::int(5), Expr::int(9), Expr::int(1)],
        );
        assert!(matches!(
            h.eval(&mut env, &bad),
            Err(RuntimeError::InvalidClamp)
        ));
        let safe = Expr::builtin(
            Builtin::SafeClamp,
            vec![Expr::int(5), Expr::int(9), Expr::int(1)],
        );
        assert_eq!(
            h.eval(&mut env, &safe)
                .unwrap()
                .as_scalar()
                .unwrap()
                .as_i64(),
            5
        );
        let ok = Expr::builtin(
            Builtin::Clamp,
            vec![Expr::int(5), Expr::int(0), Expr::int(3)],
        );
        assert_eq!(
            h.eval(&mut env, &ok).unwrap().as_scalar().unwrap().as_i64(),
            3
        );
    }

    /// Regression: `min`/`max` must return the winning operand *converted* to
    /// the usual-arithmetic-conversion type, not the raw operand, so that the
    /// result's type does not depend on which side won.
    #[test]
    fn min_max_convert_to_common_type() {
        // max(-1, 1u): common type is uint, (uint)-1 = 0xFFFFFFFF wins.
        let r = scalar_builtin(
            Builtin::Max,
            &[
                Scalar::from_i128(-1, ScalarType::Int),
                Scalar::from_i128(1, ScalarType::UInt),
            ],
        )
        .unwrap();
        assert_eq!(r.ty, ScalarType::UInt);
        assert_eq!(r.as_u64(), 0xFFFF_FFFF);
        // min(int, long): winner keeps the common (long) type.
        let r = scalar_builtin(
            Builtin::Min,
            &[
                Scalar::from_i128(-2, ScalarType::Int),
                Scalar::from_i128(3, ScalarType::Long),
            ],
        )
        .unwrap();
        assert_eq!(r.ty, ScalarType::Long);
        assert_eq!(r.as_i64(), -2);
    }

    /// Regression: `abs` on unsigned operands is the identity (OpenCL defines
    /// `abs` on unsigned types as such); it must not be routed through the
    /// signed interpretation of the bits.
    #[test]
    fn abs_on_unsigned_is_identity() {
        let r = scalar_builtin(
            Builtin::Abs,
            &[Scalar::from_bits(u64::MAX, ScalarType::ULong)],
        )
        .unwrap();
        assert_eq!(r.ty, ScalarType::ULong);
        assert_eq!(r.as_u64(), u64::MAX);
        // Signed behaviour is unchanged: abs(INT_MIN) wraps into uint.
        let r = scalar_builtin(
            Builtin::Abs,
            &[Scalar::from_i128(i128::from(i32::MIN), ScalarType::Int)],
        )
        .unwrap();
        assert_eq!(r.ty, ScalarType::UInt);
        assert_eq!(r.as_u64(), 0x8000_0000);
    }

    /// Regression: OpenCL C §6.3(j) — a shift amount is taken modulo the
    /// promoted left-operand width instead of raising a runtime error (the
    /// old `InvalidShift` behaviour was C semantics, not OpenCL's).
    #[test]
    fn shift_amounts_wrap_modulo_the_promoted_width() {
        let shl = |lhs: Scalar, rhs: Scalar| scalar_binop(BinOp::Shl, lhs, rhs).unwrap();
        let shr = |lhs: Scalar, rhs: Scalar| scalar_binop(BinOp::Shr, lhs, rhs).unwrap();
        let int = |v: i128| Scalar::from_i128(v, ScalarType::Int);
        let long = |v: i128| Scalar::from_i128(v, ScalarType::Long);

        // 1 << 33 on int: 33 mod 32 = 1.
        assert_eq!(shl(int(1), long(33)).as_u64(), 2);
        // 1 << 32 on int: exactly the width wraps to 0 — including when the
        // 64-bit amount's low 32 bits are zero (`1 << 32` must not slip
        // through a u32 truncation as a shift by 0... it IS a shift by 0
        // now, by specification).
        assert_eq!(shl(int(1), long(1i128 << 32)).as_u64(), 1);
        // The promoted width is the LEFT operand's: 1L << 64 wraps to 0.
        assert_eq!(shl(long(1), long(64)).as_u64(), 1);
        assert_eq!(shl(long(1), long(65)).as_u64(), 2);
        // char/short promote to int, so the modulus is 32, not 8/16.
        let ch = Scalar::from_i128(1, ScalarType::Char);
        let r = shl(ch, int(9));
        assert_eq!(r.ty, ScalarType::Int);
        assert_eq!(r.as_u64(), 1 << 9);
        assert_eq!(shl(ch, int(33)).as_u64(), 2);

        // Negative amounts mask their two's complement bit pattern:
        // -1 & 31 = 31, -5 & 31 = 27 — on both raw shift directions.
        assert_eq!(shl(int(1), int(-1)).as_u64(), 0x8000_0000);
        assert_eq!(shl(int(1), int(-5)).as_u64(), 1 << 27);
        assert_eq!(shr(int(i32::MIN as i128), int(-1)).as_i64(), -1);
        // A negative char amount sign-extends before masking against a
        // 64-bit left operand: (char)-5 is ...1111011, & 63 = 59.
        let neg_char = Scalar::from_i128(-5, ScalarType::Char);
        assert_eq!(shl(long(1), neg_char).as_u64(), 1u64 << 59);

        // Signed right shifts stay arithmetic; unsigned stay logical.
        assert_eq!(shr(int(-8), int(34)).as_i64(), -2);
        let uns = Scalar::from_bits(0x8000_0000, ScalarType::UInt);
        assert_eq!(shr(uns, int(33)).as_u64(), 0x4000_0000);

        // In-range amounts are untouched.
        assert_eq!(shl(int(1), long(31)).as_u64(), 0x8000_0000);
    }

    /// §6.3(j) applies lane-wise to vector shifts too — but vector operands
    /// are exempt from integer promotion, so every lane's amount wraps
    /// modulo the **element** width (8 for char lanes, not the scalar
    /// rule's promoted 32).
    #[test]
    fn vector_shift_amounts_wrap_modulo_the_element_width() {
        // char lanes mask modulo 8: 1<<9 is 1<<1, 1<<8 is 1<<0, a -1
        // amount masks to 7, and overflow stays within the 8-bit lane.
        let lanes = Value::Vector(ScalarType::Char, vec![1, 1, 1, 0x40]);
        let amounts = Value::Vector(
            ScalarType::Char,
            vec![9, 8, Scalar::from_i128(-1, ScalarType::Char).bits, 1],
        );
        let shifted = value_binop(BinOp::Shl, lanes, amounts).unwrap();
        match shifted {
            Value::Vector(elem, lanes) => {
                assert_eq!(elem, ScalarType::Char, "vector lanes must not promote");
                assert_eq!(lanes, vec![2, 1, 0x80, 0x80]);
            }
            other => panic!("vector shift produced {other:?}"),
        }
        // Contrast with the scalar rule: a scalar char promotes to int, so
        // the same 1 << 9 computes 512 there.
        let scalar = scalar_binop(
            BinOp::Shl,
            Scalar::from_i128(1, ScalarType::Char),
            Scalar::from_i128(9, ScalarType::Char),
        )
        .unwrap();
        assert_eq!(scalar.ty, ScalarType::Int);
        assert_eq!(scalar.as_u64(), 512);
        let lanes = Value::Vector(ScalarType::Int, vec![1, 2, 4, 8]);
        let amounts = Value::Vector(
            ScalarType::Int,
            vec![
                33,                                          // 33 mod 32 = 1
                32,                                          // wraps to 0
                Scalar::from_i128(-1, ScalarType::Int).bits, // -1 & 31 = 31
                1,
            ],
        );
        let shifted = value_binop(BinOp::Shl, lanes, amounts).unwrap();
        match shifted {
            Value::Vector(elem, lanes) => {
                assert_eq!(elem, ScalarType::Int);
                // 1<<1, 2<<0, 4<<31 (overflow masks to 0 at 32 bits), 8<<1.
                assert_eq!(lanes, vec![2, 2, 0, 16]);
            }
            other => panic!("vector shift produced {other:?}"),
        }
        // A scalar amount broadcasts, wrapping identically on every lane.
        let lanes = Value::Vector(ScalarType::Int, vec![1, 2, 3, 4]);
        let shifted = value_binop(
            BinOp::Shl,
            lanes,
            Value::Scalar(Scalar::from_i128(33, ScalarType::Int)),
        )
        .unwrap();
        match shifted {
            Value::Vector(_, lanes) => assert_eq!(lanes, vec![2, 4, 6, 8]),
            other => panic!("vector shift produced {other:?}"),
        }
    }
}
