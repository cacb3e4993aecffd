//! The bytecode execution tier: a stack machine over the instruction streams
//! produced by [`crate::compile()`].
//!
//! The VM shares everything observable with the tree-walking evaluator — the
//! [`Memory`] object store, the race detector, the cooperative work-group
//! scheduler (`exec::drive_group`) and the [`RuntimeError`] surface.
//! Each work-item holds a stack of call frames; a frame carries the resolved
//! variable slots of its function, the objects it owns (freed on scope exit,
//! mirroring the tree walker's `Env`), and a program counter.  A kernel-body
//! `barrier()` suspends the work-item at its instruction address, which
//! serves as the barrier site for divergence detection; execution resumes at
//! the next instruction once the whole group arrives.
//!
//! Side-effect order — loads, stores, race-detector records, allocation and
//! freeing of objects — matches the tree walker statement by statement, which
//! is what makes the two tiers agree bit-for-bit on results, errors and race
//! verdicts (enforced by the `tier_equivalence` integration test).
//!
//! Each launch starts with one *representative* work-item
//! (`run_representative`).  It runs the same loop, but stops — before the
//! step is counted — at the first instruction whose effect could depend on
//! which work-item runs it (`lane_dependent`).  Each group's work-items are
//! then forked from it (`VmItem::fork`): its private objects are copied and
//! every pointer to them redirected, its step and soft-barrier counts
//! carried over, and the work-items continue from the same instruction.
//! Nothing before the fork can differ between work-items or touch shared
//! memory, so the result, the errors, the race verdicts and `total_steps`
//! are those of running every work-item from the kernel entry.

use crate::compile::{BranchKind, CompiledProgram, Instr, LeafTy, KERNEL_FUNC};
use crate::error::RuntimeError;
use crate::eval::{
    cast_value, id_query_value, lift_builtin, read_value, record_shared, scalar_binop,
    scalar_builtin, swizzle_value, unary_op, value_binop, vector_lane_binop, write_value,
    AccessCtx, Place, ThreadIds, MAX_CALL_DEPTH,
};
use crate::exec::{
    alloc_param_object, drive_group, group_linear, thread_ids, CoopItem, LaunchOptions, Status,
};
use crate::memory::Memory;
use crate::race::{AccessKind, RaceDetector};
use crate::value::{Cell, Lanes, ObjId, PointerValue, Scalar, Value};
use clc::expr::{BinOp, Builtin};
use clc::types::{AddressSpace, ScalarType, Type};
use clc::Program;
use std::collections::HashMap;

/// One call frame: the executing function, its program counter, resolved
/// variable slots, and the objects owned by its open scopes.
struct Frame {
    func: usize,
    pc: usize,
    /// Slot-indexed variable bindings (`None` = not (yet) bound).
    slots: Vec<Option<ObjId>>,
    /// Scalar register bank for escape-analysed private scalars (`None` =
    /// uninitialised, the counterpart of `Cell::Uninit`).  Register values
    /// are stored pre-converted to the register's declared type.
    regs: Vec<Option<u64>>,
    /// Objects owned by this frame, in allocation order; `scope_bases` marks
    /// where each open scope's ownership begins.
    owned: Vec<ObjId>,
    scope_bases: Vec<usize>,
}

/// The execution state of one work-item on the bytecode tier.
pub(crate) struct VmItem {
    ids: ThreadIds,
    frames: Vec<Frame>,
    /// Recycled call frames (their vectors keep capacity across calls).
    frame_pool: Vec<Frame>,
    values: Vec<Value>,
    places: Vec<Place>,
    status: Status,
    steps: u64,
    soft_barriers: u64,
    /// Whether this is the launch's representative, which stops (without
    /// counting the step) before the first instruction whose effect could
    /// depend on which work-item runs it; see [`run_representative`].
    representative: bool,
}

impl VmItem {
    fn pop_value(&mut self) -> Value {
        self.values.pop().expect("value stack underflow")
    }

    fn pop_place(&mut self) -> Place {
        self.places.pop().expect("place stack underflow")
    }

    /// Steps executed so far.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Materialises work-item `ids` from a representative stopped at its
    /// first lane-dependent instruction: every private object the
    /// representative owns is copied, and the pointers in the copies, the
    /// slots, the value and place stacks are redirected to them.  The step
    /// and soft-barrier counts carry over, so the fork is indistinguishable
    /// from a work-item that ran the prefix itself.
    fn fork(&self, ids: ThreadIds, memory: &mut Memory) -> Result<VmItem, RuntimeError> {
        let owned = || self.frames.iter().flat_map(|f| f.owned.iter().copied());
        let mut copies: Vec<Option<ObjId>> =
            vec![None; owned().map(|o| o.0 + 1).max().unwrap_or(0)];
        for obj in owned() {
            copies[obj.0] = Some(memory.duplicate(obj)?);
        }
        let redirect = |obj: ObjId| copies.get(obj.0).copied().flatten().unwrap_or(obj);
        let redirect_cell = |cell: &mut Cell| {
            if let Cell::Ptr(p) = cell {
                p.obj = redirect(p.obj);
            }
        };
        for &copy in copies.iter().flatten() {
            memory
                .object_mut(copy)?
                .cells
                .iter_mut()
                .for_each(&redirect_cell);
        }
        let frames = self
            .frames
            .iter()
            .map(|f| Frame {
                func: f.func,
                pc: f.pc,
                slots: f.slots.iter().map(|s| s.map(redirect)).collect(),
                regs: f.regs.clone(),
                owned: f.owned.iter().map(|&o| redirect(o)).collect(),
                scope_bases: f.scope_bases.clone(),
            })
            .collect();
        let mut values = self.values.clone();
        for value in &mut values {
            match value {
                Value::Pointer(p) => p.obj = redirect(p.obj),
                Value::Aggregate(_, cells) => cells.iter_mut().for_each(&redirect_cell),
                Value::Scalar(_) | Value::Vector(..) => {}
            }
        }
        let mut places = self.places.clone();
        for place in &mut places {
            place.obj = redirect(place.obj);
        }
        Ok(VmItem {
            ids,
            frames,
            frame_pool: Vec::new(),
            values,
            places,
            status: Status::Ready,
            steps: self.steps,
            soft_barriers: self.soft_barriers,
            representative: false,
        })
    }
}

impl CoopItem for VmItem {
    fn status(&self) -> &Status {
        &self.status
    }

    fn release_barrier(&mut self) {
        self.ids.interval += 1;
        self.status = Status::Ready;
    }
}

/// Launch-wide mutable state shared by the work-items of the current group.
struct World<'a> {
    compiled: &'a CompiledProgram,
    program: &'a Program,
    step_limit: u64,
    memory: &'a mut Memory,
    races: &'a mut Option<RaceDetector>,
    group_locals: &'a mut HashMap<String, ObjId>,
}

impl World<'_> {
    fn access(&mut self, ids: ThreadIds) -> AccessCtx<'_> {
        AccessCtx {
            memory: self.memory,
            races: self.races.as_mut(),
            ids,
            structs: &self.program.structs,
        }
    }
}

/// Runs the launch's representative work-item from the kernel entry up to
/// its first instruction whose effect could depend on which work-item runs
/// it (see [`lane_dependent`]), and returns it stopped there.
///
/// Until that point every work-item of every group would execute exactly the
/// same instructions on the same private state, and none of them touches
/// shared memory, so no schedule can tell the difference: running the prefix
/// once and forking the result ([`run_group`]) is exact.  An error raised in
/// the prefix is every work-item's error, and so the launch's.
pub(crate) fn run_representative(
    program: &Program,
    compiled: &CompiledProgram,
    options: &LaunchOptions,
    memory: &mut Memory,
    races: &mut Option<RaceDetector>,
    buffer_objects: &HashMap<String, (ObjId, ScalarType, usize)>,
    permutations_obj: Option<ObjId>,
) -> Result<VmItem, RuntimeError> {
    let kernel = &compiled.funcs[KERNEL_FUNC];
    // Slot 0 is the permutation table, followed by the kernel parameters,
    // matching the environment the tree walker builds.
    let mut slots = vec![None; kernel.n_slots];
    let mut owned = Vec::new();
    if let Some(perm) = permutations_obj {
        slots[0] = Some(perm);
    }
    for (i, param) in program.kernel.params.iter().enumerate() {
        let obj = alloc_param_object(memory, buffer_objects, options, param)?;
        slots[1 + i] = Some(obj);
        owned.push(obj);
    }
    let mut item = VmItem {
        // Never observed: identity queries and shared accesses end the prefix.
        ids: thread_ids(&program.launch, [0; 3], [0; 3]),
        frames: vec![Frame {
            func: KERNEL_FUNC,
            pc: 0,
            slots,
            regs: vec![None; kernel.n_regs],
            owned,
            scope_bases: Vec::new(),
        }],
        frame_pool: Vec::new(),
        values: Vec::new(),
        places: Vec::new(),
        status: Status::Ready,
        steps: 0,
        soft_barriers: 0,
        representative: true,
    };
    let mut world = World {
        compiled,
        program,
        step_limit: options.step_limit,
        memory,
        races,
        group_locals: &mut HashMap::new(),
    };
    run_frames(&mut world, &mut item)?;
    Ok(item)
}

/// Executes one work-group on the bytecode tier (the VM counterpart of
/// `exec::run_group`), forking its work-items from the launch's
/// representative.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_group(
    program: &Program,
    compiled: &CompiledProgram,
    options: &LaunchOptions,
    memory: &mut Memory,
    races: &mut Option<RaceDetector>,
    representative: &VmItem,
    group: [usize; 3],
    total_steps: &mut u64,
    soft_barriers: &mut u64,
    barrier_intervals: &mut u64,
) -> Result<(), RuntimeError> {
    let cfg = &program.launch;
    let local = cfg.local;
    let mut group_locals: HashMap<String, ObjId> = HashMap::new();

    let mut items: Vec<VmItem> = Vec::with_capacity(cfg.group_size());
    for lz in 0..local[2] {
        for ly in 0..local[1] {
            for lx in 0..local[0] {
                items.push(representative.fork(thread_ids(cfg, group, [lx, ly, lz]), memory)?);
            }
        }
    }

    let mut world = World {
        compiled,
        program,
        step_limit: options.step_limit,
        memory,
        races,
        group_locals: &mut group_locals,
    };
    let released = drive_group(
        &mut items,
        options.schedule,
        group_linear(group, cfg.groups()),
        |item| run_item(&mut world, item),
    )?;
    *barrier_intervals = (*barrier_intervals).max(released);

    for item in &mut items {
        *total_steps += item.steps;
        *soft_barriers += item.soft_barriers;
        // Free the kernel frame's ownership (parameters plus top-level
        // declarations) in allocation order, as the tree walker's final
        // `pop_to_depth(0)` does.
        if let Some(frame) = item.frames.last_mut() {
            for obj in frame.owned.drain(..) {
                memory.free(obj);
            }
        }
    }
    // The group is over: no later access can race with this group's local
    // objects, so drop their logs with an O(1) era bump per shadow.
    if let Some(r) = races.as_mut() {
        let locals: Vec<ObjId> = group_locals.values().copied().collect();
        r.clear_group_local(&locals);
    }
    Ok(())
}

/// Runs a single work-item until it blocks at a barrier, finishes or fails.
fn run_item(world: &mut World<'_>, item: &mut VmItem) {
    if let Err(e) = run_frames(world, item) {
        item.status = Status::Failed(e);
    }
}

/// The interpreter loop: executes the current frame's instructions with the
/// program counter cached in a local, re-entering the outer loop only on
/// frame transitions (calls and returns).  Returns when the work-item
/// yields (barrier) or finishes; errors mark the work-item failed.
fn run_frames(world: &mut World<'_>, item: &mut VmItem) -> Result<(), RuntimeError> {
    let compiled = world.compiled;
    'frames: loop {
        let frame_idx = item.frames.len() - 1;
        let func = item.frames[frame_idx].func;
        let code: &[Instr] = &compiled.funcs[func].code;
        let mut pc = item.frames[frame_idx].pc;
        loop {
            let instr = &code[pc];
            if item.representative && lane_dependent(world, item, frame_idx, instr) {
                item.frames[frame_idx].pc = pc;
                return Ok(());
            }
            item.steps += 1;
            if item.steps > world.step_limit {
                return Err(RuntimeError::StepLimitExceeded {
                    limit: world.step_limit,
                });
            }
            pc += 1;

            match instr {
                Instr::Const(s) => item.values.push(Value::Scalar(*s)),
                Instr::Id(kind) => item.values.push(Value::Scalar(Scalar::from_i128(
                    id_query_value(&item.ids, *kind) as i128,
                    ScalarType::ULong,
                ))),
                Instr::MakeVector { elem, width, parts } => {
                    let start = item.values.len() - *parts as usize;
                    let mut lanes = Lanes::with_capacity(width.lanes());
                    for part in item.values.drain(start..) {
                        match part {
                            Value::Scalar(s) => lanes.push(s.convert(*elem).bits),
                            Value::Vector(_, sub) => lanes.extend(sub.iter().copied()),
                            other => {
                                return Err(RuntimeError::TypeMismatch {
                                    detail: format!(
                                        "vector literal component is a {}",
                                        other.kind()
                                    ),
                                })
                            }
                        }
                    }
                    if lanes.len() == 1 {
                        // Broadcast form (int4)(x).
                        let v = lanes[0];
                        lanes = Lanes::splat(v, width.lanes());
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
                    item.values.push(Value::Vector(*elem, lanes));
                }
                Instr::LoadSlot(slot) => {
                    let place = slot_place(world, item, frame_idx, func, *slot)?;
                    let value = world.access(item.ids).load(&place)?;
                    item.values.push(value);
                }
                Instr::LoadScalarSlot {
                    slot,
                    offset,
                    ty,
                    shared,
                } => {
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    let offset = *offset as usize;
                    if *shared {
                        record_shared(
                            world.races.as_mut(),
                            &item.ids,
                            obj,
                            offset,
                            1,
                            AccessKind::Read,
                        );
                    }
                    let s = world.memory.read_scalar(obj, offset, *ty)?;
                    item.values.push(Value::Scalar(s));
                }
                Instr::StoreScalarSlot {
                    slot,
                    offset,
                    ty,
                    op,
                    shared,
                    push,
                } => {
                    let rhs = item.pop_value();
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    let offset = *offset as usize;
                    let leaf = LeafTy::Scalar(*ty);
                    let new_value = match op {
                        None => rhs,
                        Some(binop) => {
                            let current = load_leaf(world, item.ids, obj, offset, &leaf, *shared)?;
                            vm_value_binop(*binop, current, rhs)?
                        }
                    };
                    store_leaf(world, item.ids, obj, offset, &leaf, *shared, &new_value)?;
                    if *push {
                        item.values.push(new_value);
                    }
                }
                Instr::LoadVectorSlot {
                    slot,
                    offset,
                    ty,
                    width,
                    shared,
                } => {
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    let value = load_leaf(
                        world,
                        item.ids,
                        obj,
                        *offset as usize,
                        &LeafTy::Vector(*ty, *width),
                        *shared,
                    )?;
                    item.values.push(value);
                }
                Instr::StoreVectorSlot {
                    slot,
                    offset,
                    ty,
                    width,
                    op,
                    shared,
                    push,
                } => {
                    let rhs = item.pop_value();
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    let offset = *offset as usize;
                    let leaf = LeafTy::Vector(*ty, *width);
                    let new_value = match op {
                        None => rhs,
                        Some(binop) => {
                            let current = load_leaf(world, item.ids, obj, offset, &leaf, *shared)?;
                            vm_value_binop(*binop, current, rhs)?
                        }
                    };
                    store_leaf(world, item.ids, obj, offset, &leaf, *shared, &new_value)?;
                    if *push {
                        item.values.push(new_value);
                    }
                }
                Instr::ConstVector(payload) => {
                    let (elem, lanes) = &**payload;
                    item.values.push(Value::Vector(*elem, lanes.clone()));
                }
                Instr::ArrowSlotLoad {
                    slot,
                    ptr_shared,
                    expect,
                    add,
                    leaf,
                    field,
                } => {
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    match resolve_arrow(world, item.ids, obj, *ptr_shared, *expect, *add, field)? {
                        ArrowTarget::Leaf(tobj, toffset, tspace) => {
                            let value = load_leaf(
                                world,
                                item.ids,
                                tobj,
                                toffset,
                                leaf,
                                tspace.is_shared(),
                            )?;
                            item.values.push(value);
                        }
                        ArrowTarget::Place(place) => {
                            let v = world.access(item.ids).load(&place)?;
                            item.values.push(v);
                        }
                    }
                }
                Instr::ArrowSlotStore {
                    slot,
                    ptr_shared,
                    expect,
                    add,
                    leaf,
                    field,
                    op,
                    push,
                } => {
                    let rhs = item.pop_value();
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    match resolve_arrow(world, item.ids, obj, *ptr_shared, *expect, *add, field)? {
                        ArrowTarget::Leaf(tobj, toffset, tspace) => {
                            let shared = tspace.is_shared();
                            let new_value = match op {
                                None => rhs,
                                Some(binop) => {
                                    let current =
                                        load_leaf(world, item.ids, tobj, toffset, leaf, shared)?;
                                    vm_value_binop(*binop, current, rhs)?
                                }
                            };
                            store_leaf(world, item.ids, tobj, toffset, leaf, shared, &new_value)?;
                            if *push {
                                item.values.push(new_value);
                            }
                        }
                        ArrowTarget::Place(place) => {
                            let new_value = match op {
                                None => rhs,
                                Some(binop) => {
                                    let current = world.access(item.ids).load(&place)?;
                                    vm_value_binop(*binop, current, rhs)?
                                }
                            };
                            if *push {
                                world.access(item.ids).store(&place, new_value.clone())?;
                                item.values.push(new_value);
                            } else {
                                world.access(item.ids).store(&place, new_value)?;
                            }
                        }
                    }
                }
                Instr::IndexSlotLoad { slot } => {
                    let idx = index_operand(item)?;
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    let memory: &Memory = &*world.memory;
                    let (tobj, offset, tspace, elem, cells) =
                        resolve_slot_index(memory, &world.program.structs, obj, idx)?;
                    if tspace.is_shared() {
                        record_shared(
                            world.races.as_mut(),
                            &item.ids,
                            tobj,
                            offset,
                            cells,
                            AccessKind::Read,
                        );
                    }
                    let value =
                        read_value(memory, &world.program.structs, tobj, offset, elem, tspace)?;
                    item.values.push(value);
                }
                Instr::IndexSlotStore { slot, op, push } => {
                    let idx = index_operand(item)?;
                    let rhs = item.pop_value();
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    // Resolve with a shared borrow, keeping the element type owned
                    // only when it is not a plain scalar, so the store below can
                    // take the memory mutably.
                    let (tobj, offset, tspace, elem, cells) = {
                        let (tobj, offset, tspace, elem, cells) =
                            resolve_slot_index(&*world.memory, &world.program.structs, obj, idx)?;
                        let elem = match elem {
                            Type::Scalar(s) => ResolvedTy::Scalar(*s),
                            other => ResolvedTy::Owned(other.clone()),
                        };
                        (tobj, offset, tspace, elem, cells)
                    };
                    let shared = tspace.is_shared();
                    let mut new_value = match op {
                        None => rhs,
                        Some(binop) => {
                            if shared {
                                record_shared(
                                    world.races.as_mut(),
                                    &item.ids,
                                    tobj,
                                    offset,
                                    cells,
                                    AccessKind::Read,
                                );
                            }
                            let current = match &elem {
                                ResolvedTy::Scalar(s) => {
                                    Value::Scalar(world.memory.read_scalar(tobj, offset, *s)?)
                                }
                                ResolvedTy::Owned(ty) => read_value(
                                    &*world.memory,
                                    &world.program.structs,
                                    tobj,
                                    offset,
                                    ty,
                                    tspace,
                                )?,
                            };
                            vm_value_binop(*binop, current, rhs)?
                        }
                    };
                    if shared {
                        record_shared(
                            world.races.as_mut(),
                            &item.ids,
                            tobj,
                            offset,
                            cells,
                            AccessKind::Write,
                        );
                    }
                    match &elem {
                        ResolvedTy::Scalar(s) => match &new_value {
                            Value::Scalar(v) => world.memory.write_scalar(tobj, offset, *v, *s)?,
                            Value::Pointer(_) => {
                                world
                                    .memory
                                    .write_scalar(tobj, offset, Scalar::zero(*s), *s)?
                            }
                            other => {
                                return Err(RuntimeError::TypeMismatch {
                                    detail: format!(
                                        "cannot store {} into {:?}",
                                        other.kind(),
                                        Type::Scalar(*s)
                                    ),
                                })
                            }
                        },
                        ResolvedTy::Owned(ty) => {
                            // Move the value into the store when the result
                            // is discarded; clone only when it must also be
                            // pushed.
                            let stored = if *push {
                                new_value.clone()
                            } else {
                                std::mem::replace(&mut new_value, Value::int(0))
                            };
                            write_value(
                                world.memory,
                                &world.program.structs,
                                tobj,
                                offset,
                                ty,
                                stored,
                            )?;
                        }
                    }
                    if *push {
                        item.values.push(new_value);
                    }
                }
                Instr::DeclReg { reg } => {
                    item.frames[frame_idx].regs[*reg as usize] = None;
                }
                Instr::DeclRegInit { reg, bits } => {
                    item.frames[frame_idx].regs[*reg as usize] = Some(*bits);
                }
                Instr::LoadReg { reg, ty } => {
                    let s = read_reg(item, frame_idx, func, compiled, *reg, *ty)?;
                    item.values.push(Value::Scalar(s));
                }
                Instr::StoreReg { reg, ty, op, push } => {
                    let rhs = item.pop_value();
                    let new_value = match op {
                        None => rhs,
                        Some(binop) => {
                            let current = Value::Scalar(read_reg(
                                item, frame_idx, func, compiled, *reg, *ty,
                            )?);
                            vm_value_binop(*binop, current, rhs)?
                        }
                    };
                    write_reg(item, frame_idx, *reg, *ty, &new_value)?;
                    if *push {
                        item.values.push(new_value);
                    }
                }
                Instr::StoreRegImm {
                    reg,
                    ty,
                    op,
                    imm,
                    push,
                } => {
                    let new_value = match op {
                        None => Value::Scalar(*imm),
                        Some(binop) => {
                            let current = Value::Scalar(read_reg(
                                item, frame_idx, func, compiled, *reg, *ty,
                            )?);
                            vm_value_binop(*binop, current, Value::Scalar(*imm))?
                        }
                    };
                    write_reg(item, frame_idx, *reg, *ty, &new_value)?;
                    if *push {
                        item.values.push(new_value);
                    }
                }
                Instr::RegBinopImm { reg, ty, op, imm } => {
                    let l = read_reg(item, frame_idx, func, compiled, *reg, *ty)?;
                    item.values.push(Value::Scalar(scalar_binop(*op, l, *imm)?));
                }
                Instr::Unary(op) => {
                    let v = item.pop_value();
                    item.values.push(unary_op(*op, v)?);
                }
                Instr::Binary(op) => {
                    let rhs = item.pop_value();
                    let lhs = item.pop_value();
                    item.values.push(vm_value_binop(*op, lhs, rhs)?);
                }
                Instr::BinaryImm { op, imm } => {
                    let lhs = item.pop_value();
                    let result = match lhs {
                        Value::Scalar(l) => Value::Scalar(scalar_binop(*op, l, *imm)?),
                        other => vm_value_binop(*op, other, Value::Scalar(*imm))?,
                    };
                    item.values.push(result);
                }
                Instr::ShortCircuit { is_and, end } => {
                    let l = item.pop_value();
                    let lt = l.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                        detail: "logical operand is not scalar".into(),
                    })?;
                    if *is_and && !lt {
                        item.values.push(Value::int(0));
                        pc = *end as usize;
                    } else if !*is_and && lt {
                        item.values.push(Value::int(1));
                        pc = *end as usize;
                    }
                }
                Instr::TruthToInt => {
                    let r = item.pop_value();
                    let rt = r.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                        detail: "logical operand is not scalar".into(),
                    })?;
                    item.values.push(Value::int(i64::from(rt)));
                }
                Instr::Branch { target, kind } => {
                    let c = item.pop_value();
                    let taken = match kind {
                        BranchKind::IfCond => {
                            c.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                                detail: "if condition is not scalar".into(),
                            })?
                        }
                        BranchKind::Ternary => {
                            c.is_true().ok_or_else(|| RuntimeError::TypeMismatch {
                                detail: "conditional guard is not scalar".into(),
                            })?
                        }
                        BranchKind::Permissive => c.is_true().unwrap_or(false),
                    };
                    if !taken {
                        pc = *target as usize;
                    }
                }
                Instr::Jump(target) => pc = *target as usize,
                Instr::Pop => {
                    item.pop_value();
                }
                Instr::Cast(ty) => {
                    let v = item.pop_value();
                    item.values.push(cast_value(ty, v, &world.program.structs)?);
                }
                Instr::Swizzle(lanes) => {
                    let v = item.pop_value();
                    item.values.push(swizzle_value(v, lanes)?);
                }
                Instr::AddrOf => {
                    let place = item.pop_place();
                    item.values.push(Value::Pointer(PointerValue {
                        obj: place.obj,
                        offset: place.offset,
                        pointee: place.ty,
                        space: place.space,
                    }));
                }
                Instr::PlaceSlot(slot) => {
                    let place = slot_place(world, item, frame_idx, func, *slot)?;
                    item.places.push(place);
                }
                Instr::PlaceGroupLocal(name) => {
                    let obj = world
                        .group_locals
                        .get(&**name)
                        .copied()
                        .ok_or_else(|| RuntimeError::UnknownVariable(name.to_string()))?;
                    let object = world.memory.object(obj)?;
                    item.places.push(Place {
                        obj,
                        offset: 0,
                        ty: object.ty.clone(),
                        space: object.space,
                    });
                }
                Instr::PlaceDeref => {
                    let v = item.pop_value();
                    match v {
                        Value::Pointer(p) => item.places.push(Place {
                            obj: p.obj,
                            offset: p.offset,
                            ty: p.pointee,
                            space: p.space,
                        }),
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                detail: format!("expected pointer, found {}", other.kind()),
                            })
                        }
                    }
                }
                Instr::ResolveIndexable => {
                    let place = item.places.last_mut().expect("place stack underflow");
                    match &place.ty {
                        Type::Array(..) => {}
                        Type::Pointer(..) => {
                            let ptr = match world.memory.read_cell(place.obj, place.offset)? {
                                Cell::Ptr(p) => p,
                                _ => {
                                    return Err(RuntimeError::UninitializedRead {
                                        object: world.memory.object(place.obj)?.name.clone(),
                                    })
                                }
                            };
                            *place = Place {
                                obj: ptr.obj,
                                offset: ptr.offset,
                                ty: ptr.pointee,
                                space: ptr.space,
                            };
                        }
                        _ => {}
                    }
                }
                Instr::IndexPlace => {
                    let idx_value = item.pop_value();
                    let idx = idx_value
                        .as_scalar()
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            detail: "index is not scalar".into(),
                        })?
                        .as_i64();
                    let place = item.places.last_mut().expect("place stack underflow");
                    let (elem_ty, stride_base) = match &place.ty {
                        Type::Array(elem, len) => {
                            if idx < 0 || idx as usize >= *len {
                                return Err(RuntimeError::InvalidAccess {
                                    detail: format!(
                                        "array index {idx} out of bounds for length {len}"
                                    ),
                                });
                            }
                            ((**elem).clone(), place.offset)
                        }
                        other => (other.clone(), place.offset),
                    };
                    let stride = elem_ty.cell_count(&world.program.structs);
                    if idx < 0 {
                        return Err(RuntimeError::InvalidAccess {
                            detail: format!("negative index {idx}"),
                        });
                    }
                    place.offset = stride_base + idx as usize * stride;
                    place.ty = elem_ty;
                }
                Instr::FieldPlace(field) => {
                    let place = item.places.last_mut().expect("place stack underflow");
                    let field_offset = place
                        .ty
                        .field_offset(field, &world.program.structs)
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            detail: format!("no field `{field}` on {:?}", place.ty),
                        })?;
                    let field_ty = match &place.ty {
                        Type::Struct(id) => world
                            .program
                            .struct_def(*id)
                            .field(field)
                            .map(|f| f.ty.clone())
                            .ok_or_else(|| RuntimeError::TypeMismatch {
                                detail: format!("no field `{field}`"),
                            })?,
                        _ => {
                            return Err(RuntimeError::TypeMismatch {
                                detail: "field access on non-struct".into(),
                            })
                        }
                    };
                    place.offset += field_offset;
                    place.ty = field_ty;
                }
                Instr::LanePlace(lane) => {
                    let place = item.places.last_mut().expect("place stack underflow");
                    match &place.ty {
                        Type::Vector(elem, width) => {
                            let lane = *lane as usize;
                            if lane >= width.lanes() {
                                return Err(RuntimeError::InvalidAccess {
                                    detail: format!("swizzle lane {lane} out of range"),
                                });
                            }
                            place.offset += lane;
                            place.ty = Type::Scalar(*elem);
                        }
                        _ => {
                            return Err(RuntimeError::TypeMismatch {
                                detail: "swizzle store on non-vector".into(),
                            })
                        }
                    }
                }
                Instr::LoadPlace => {
                    let place = item.pop_place();
                    let value = world.access(item.ids).load(&place)?;
                    item.values.push(value);
                }
                Instr::Store { op, push } => {
                    let place = item.pop_place();
                    let rhs = item.pop_value();
                    let new_value = match op {
                        None => rhs,
                        Some(binop) => {
                            let current = world.access(item.ids).load(&place)?;
                            vm_value_binop(*binop, current, rhs)?
                        }
                    };
                    if *push {
                        world.access(item.ids).store(&place, new_value.clone())?;
                        item.values.push(new_value);
                    } else {
                        world.access(item.ids).store(&place, new_value)?;
                    }
                }
                Instr::EnterScope => {
                    let frame = &mut item.frames[frame_idx];
                    frame.scope_bases.push(frame.owned.len());
                }
                Instr::ExitScope => {
                    let frame = &mut item.frames[frame_idx];
                    let base = frame.scope_bases.pop().expect("scope stack underflow");
                    for obj in frame.owned.drain(base..) {
                        world.memory.free(obj);
                    }
                }
                Instr::DeclPrivate { slot, name, ty } => {
                    let obj = world.memory.alloc(
                        name.to_string(),
                        (**ty).clone(),
                        AddressSpace::Private,
                        &world.program.structs,
                    );
                    let frame = &mut item.frames[frame_idx];
                    frame.slots[*slot as usize] = Some(obj);
                    frame.owned.push(obj);
                }
                Instr::DeclLocal { slot, name, ty } => {
                    // One allocation per work-group, shared by its work-items (and
                    // *not* owned by the declaring scope).
                    let obj = if let Some(existing) = world.group_locals.get(&**name) {
                        *existing
                    } else {
                        let obj = world.memory.alloc_zeroed(
                            name.to_string(),
                            (**ty).clone(),
                            AddressSpace::Local,
                            &world.program.structs,
                        );
                        if let Some(races) = world.races.as_mut() {
                            races.name_object(obj, name);
                        }
                        world.group_locals.insert(name.to_string(), obj);
                        obj
                    };
                    item.frames[frame_idx].slots[*slot as usize] = Some(obj);
                }
                Instr::InitSlot { slot, ty } => {
                    let v = item.pop_value();
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    let place = Place {
                        obj,
                        offset: 0,
                        ty: (**ty).clone(),
                        space: AddressSpace::Private,
                    };
                    world.access(item.ids).store(&place, v)?;
                }
                Instr::ZeroFill { slot, cells } => {
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    world
                        .memory
                        .write_cells(obj, 0, &vec![Cell::Bits(0); *cells as usize])?;
                }
                Instr::InitAt { slot, offset, ty } => {
                    let v = item.pop_value();
                    let obj = bound_slot(item, frame_idx, func, compiled, *slot)?;
                    let place = Place {
                        obj,
                        offset: *offset as usize,
                        ty: (**ty).clone(),
                        space: AddressSpace::Private,
                    };
                    world.access(item.ids).store(&place, v)?;
                }
                Instr::Barrier => {
                    item.frames[frame_idx].pc = pc;
                    item.status = Status::AtBarrier {
                        site: (func, pc - 1),
                    };
                    return Ok(());
                }
                Instr::SoftBarrier => item.soft_barriers += 1,
                Instr::CheckDepth => {
                    if item.frames.len() > MAX_CALL_DEPTH {
                        return Err(RuntimeError::CallDepthExceeded);
                    }
                }
                Instr::Call { func, argc } => {
                    let target = &compiled.funcs[*func as usize];
                    let start = item.values.len() - *argc as usize;
                    let mut frame = item.frame_pool.pop().unwrap_or_else(|| Frame {
                        func: 0,
                        pc: 0,
                        slots: Vec::new(),
                        regs: Vec::new(),
                        owned: Vec::new(),
                        scope_bases: Vec::new(),
                    });
                    frame.func = *func as usize;
                    frame.pc = 0;
                    frame.slots.clear();
                    frame.slots.resize(target.n_slots, None);
                    frame.regs.clear();
                    frame.regs.resize(target.n_regs, None);
                    frame.owned.clear();
                    frame.scope_bases.clear();
                    // Parameters behave like initialised local variables,
                    // allocated and stored one at a time as in
                    // `call_function`.  The drain only borrows the value
                    // stack, so the stores below can take the world.
                    let mut args = item.values.drain(start..);
                    for (i, param) in target.params.iter().enumerate() {
                        let value = args.next().expect("argument count checked at compile time");
                        let obj = world.memory.alloc(
                            param.name.clone(),
                            param.ty.clone(),
                            AddressSpace::Private,
                            &world.program.structs,
                        );
                        frame.slots[i] = Some(obj);
                        frame.owned.push(obj);
                        let place = Place {
                            obj,
                            offset: 0,
                            ty: param.ty.clone(),
                            space: AddressSpace::Private,
                        };
                        let mut access = AccessCtx {
                            memory: world.memory,
                            races: world.races.as_mut(),
                            ids: item.ids,
                            structs: &world.program.structs,
                        };
                        access.store(&place, value)?;
                    }
                    drop(args);
                    item.frames[frame_idx].pc = pc;
                    item.frames.push(frame);
                    continue 'frames;
                }
                Instr::CallBuiltin { func, argc } => {
                    let n = *argc as usize;
                    let start = item.values.len() - n;
                    // Allocation-free fast path for all-scalar arguments (the
                    // common case for the safe-math wrappers); mirrors
                    // `lift_builtin`'s scalar branch, which `scalar_builtin` also
                    // implements.
                    let all_scalar = n <= 3
                        && item.values[start..]
                            .iter()
                            .all(|v| matches!(v, Value::Scalar(_)));
                    if all_scalar {
                        let mut args = [Scalar::zero(ScalarType::Int); 3];
                        for i in (0..n).rev() {
                            args[i] = match item.values.pop() {
                                Some(Value::Scalar(s)) => s,
                                _ => unreachable!("checked scalar"),
                            };
                        }
                        item.values
                            .push(Value::Scalar(scalar_builtin(*func, &args[..n])?));
                    } else {
                        let args: Vec<Value> = item.values.drain(start..).collect();
                        item.values.push(lift_builtin(*func, &args)?);
                    }
                }
                Instr::AtomicBegin => {
                    let v = item.pop_value();
                    let ptr = match v {
                        Value::Pointer(p) => p,
                        other => {
                            return Err(RuntimeError::TypeMismatch {
                                detail: format!("expected pointer, found {}", other.kind()),
                            })
                        }
                    };
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
                    world.access(item.ids).record(&place, 1, AccessKind::Atomic);
                    let old = world.memory.read_scalar(place.obj, place.offset, elem)?;
                    item.places.push(place);
                    item.values.push(Value::Scalar(old));
                }
                Instr::AtomicEnd { func, argc } => {
                    let n_ops = *argc as usize - 1;
                    let start = item.values.len() - n_ops;
                    let raw_ops: Vec<Value> = item.values.drain(start..).collect();
                    let mut operands = Vec::with_capacity(n_ops);
                    for v in raw_ops {
                        operands.push(v.as_scalar().ok_or_else(|| RuntimeError::TypeMismatch {
                            detail: "atomic operand is not scalar".into(),
                        })?);
                    }
                    let old = item
                        .pop_value()
                        .as_scalar()
                        .expect("atomic old value is scalar");
                    let place = item.pop_place();
                    let elem = match place.ty {
                        Type::Scalar(s) => s,
                        _ => unreachable!("atomic place has scalar type"),
                    };
                    let new = match func {
                        Builtin::AtomicInc => {
                            scalar_binop(BinOp::Add, old, Scalar::from_i128(1, elem))?
                        }
                        Builtin::AtomicDec => {
                            scalar_binop(BinOp::Sub, old, Scalar::from_i128(1, elem))?
                        }
                        Builtin::AtomicAdd => scalar_binop(BinOp::Add, old, operands[0])?,
                        Builtin::AtomicSub => scalar_binop(BinOp::Sub, old, operands[0])?,
                        Builtin::AtomicAnd => scalar_binop(BinOp::BitAnd, old, operands[0])?,
                        Builtin::AtomicOr => scalar_binop(BinOp::BitOr, old, operands[0])?,
                        Builtin::AtomicXor => scalar_binop(BinOp::BitXor, old, operands[0])?,
                        Builtin::AtomicMin => scalar_builtin(Builtin::Min, &[old, operands[0]])?,
                        Builtin::AtomicMax => scalar_builtin(Builtin::Max, &[old, operands[0]])?,
                        Builtin::AtomicXchg => operands[0],
                        Builtin::AtomicCmpxchg => {
                            if old.convert(elem).bits == operands[0].convert(elem).bits {
                                operands[1]
                            } else {
                                old
                            }
                        }
                        _ => unreachable!("non-atomic builtin in AtomicEnd"),
                    };
                    world
                        .memory
                        .write_scalar(place.obj, place.offset, new, elem)?;
                    item.values.push(Value::Scalar(old.convert(elem)));
                }
                Instr::Return { has_value } => {
                    let result = if *has_value {
                        item.pop_value()
                    } else {
                        Value::int(0)
                    };
                    let mut frame = item.frames.pop().expect("return without frame");
                    // Free open scopes innermost first, then the parameters, as the
                    // tree walker's unwinding `pop_scope` chain does.
                    while let Some(base) = frame.scope_bases.pop() {
                        for obj in frame.owned.drain(base..) {
                            world.memory.free(obj);
                        }
                    }
                    for obj in frame.owned.drain(..) {
                        world.memory.free(obj);
                    }
                    item.frame_pool.push(frame);
                    item.values.push(result);
                    continue 'frames;
                }
                Instr::ReturnKernel { has_value } => {
                    if *has_value {
                        item.pop_value();
                    }
                    // Free scopes above the kernel frame's base; the base ownership
                    // (parameters and top-level declarations) is released when the
                    // group finishes.
                    let frame = &mut item.frames[frame_idx];
                    while let Some(base) = frame.scope_bases.pop() {
                        let freed: Vec<ObjId> = frame.owned.drain(base..).collect();
                        for obj in freed {
                            world.memory.free(obj);
                        }
                    }
                    item.status = Status::Done;
                    return Ok(());
                }
                Instr::Fail(e) => return Err((**e).clone()),
            }
        }
    }
}

/// Whether executing `instr` next could depend on which work-item runs it,
/// which ends the representative's prefix: a work-item or group identity
/// query, any access to memory outside the private space (the run-time
/// targets of pointer-based accesses are resolved here, without side
/// effects), a `local` declaration or group-local place, a kernel-body
/// barrier, or the kernel's return.  Constant memory counts too: nothing
/// in the emulator stops a kernel from writing it, and a read in the prefix
/// must not see a value another work-item had yet to write.  An access
/// whose target cannot be resolved is not lane-dependent: it raises the
/// same error on every work-item.
fn lane_dependent(world: &World<'_>, item: &VmItem, frame_idx: usize, instr: &Instr) -> bool {
    let memory: &Memory = world.memory;
    let outside_private = |space: AddressSpace| space != AddressSpace::Private;
    let slot_obj = |slot: u16| item.frames[frame_idx].slots[slot as usize];
    let arrow_space = |slot: u16| Some(memory.read_pointer(slot_obj(slot)?, 0).ok()?.space);
    // Before the fork a slot holds a private object or the permutation
    // table (which, as an array, decays to a pointer when loaded whole):
    // shared objects are bound only by `DeclLocal`, which ends the prefix.
    // So `LoadSlot` and the fused slot accesses, which address a slot's own
    // object, never need a check; accesses through pointers do.
    match instr {
        Instr::Id(kind) => kind.is_identity_dependent(),
        Instr::ArrowSlotLoad { slot, .. } | Instr::ArrowSlotStore { slot, .. } => {
            arrow_space(*slot).is_some_and(outside_private)
        }
        Instr::IndexSlotLoad { slot } | Instr::IndexSlotStore { slot, .. } => {
            // The index operand is on top of the value stack.
            let target = item
                .values
                .last()
                .and_then(Value::as_scalar)
                .zip(slot_obj(*slot))
                .and_then(|(idx, obj)| {
                    resolve_slot_index(memory, &world.program.structs, obj, idx.as_i64()).ok()
                });
            target.is_some_and(|(_, _, space, _, _)| outside_private(space))
        }
        Instr::LoadPlace | Instr::Store { .. } | Instr::ResolveIndexable => item
            .places
            .last()
            .is_some_and(|place| outside_private(place.space)),
        Instr::AtomicBegin => {
            matches!(item.values.last(), Some(Value::Pointer(p)) if outside_private(p.space))
        }
        Instr::DeclLocal { .. }
        | Instr::PlaceGroupLocal(_)
        | Instr::Barrier
        | Instr::ReturnKernel { .. } => true,
        _ => false,
    }
}

/// The VM's binary-operator application: identical results to
/// [`value_binop`], but vector operands are rewritten in place instead of
/// allocating fresh lane vectors (the tree walker cannot do this because it
/// holds its operands behind shared AST references).
fn vm_value_binop(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, RuntimeError> {
    match (lhs, rhs) {
        (Value::Vector(ea, mut la), Value::Vector(eb, lb)) => {
            if la.len() != lb.len() {
                return Err(RuntimeError::TypeMismatch {
                    detail: "vector operands of different widths".into(),
                });
            }
            for (a, &b) in la.iter_mut().zip(lb.iter()) {
                let r = vector_lane_binop(op, Scalar::from_bits(*a, ea), Scalar::from_bits(b, eb))?;
                *a = vector_lane_result(op, r, ea);
            }
            Ok(Value::Vector(comparison_elem(op, ea), la))
        }
        (Value::Vector(ea, mut la), Value::Scalar(b)) => {
            let b = b.convert(ea);
            for a in la.iter_mut() {
                let r = vector_lane_binop(op, Scalar::from_bits(*a, ea), b)?;
                *a = vector_lane_result(op, r, ea);
            }
            Ok(Value::Vector(comparison_elem(op, ea), la))
        }
        (Value::Scalar(a), Value::Vector(eb, mut lb)) => {
            let a = a.convert(eb);
            for b in lb.iter_mut() {
                let r = vector_lane_binop(op, a, Scalar::from_bits(*b, eb))?;
                *b = vector_lane_result(op, r, eb);
            }
            Ok(Value::Vector(comparison_elem(op, eb), lb))
        }
        (lhs, rhs) => value_binop(op, lhs, rhs),
    }
}

fn vector_lane_result(op: BinOp, r: Scalar, elem: ScalarType) -> u64 {
    if op.is_comparison() {
        // OpenCL vector comparisons produce -1 (all bits set) for true.
        if r.is_true() {
            Scalar::from_i128(-1, elem.to_signed()).bits
        } else {
            0
        }
    } else {
        r.convert(elem).bits
    }
}

fn comparison_elem(op: BinOp, elem: ScalarType) -> ScalarType {
    if op.is_comparison() {
        elem.to_signed()
    } else {
        elem
    }
}

/// Reads `lanes` vector lanes with a single object lookup (mirrors the
/// per-lane `read_scalar` loop of `read_value`, including its errors).
fn read_lanes(
    memory: &Memory,
    obj: ObjId,
    offset: usize,
    ty: ScalarType,
    lanes: usize,
) -> Result<Lanes, RuntimeError> {
    let object = memory.object(obj)?;
    let mut out = Lanes::with_capacity(lanes);
    for i in 0..lanes {
        match object.cells.get(offset + i) {
            Some(Cell::Bits(b)) => out.push(crate::value::mask(*b, ty)),
            Some(Cell::Uninit) => {
                return Err(RuntimeError::UninitializedRead {
                    object: object.name.clone(),
                })
            }
            Some(Cell::Ptr(_)) => {
                return Err(RuntimeError::TypeMismatch {
                    detail: format!("reading pointer cell of `{}` as scalar", object.name),
                })
            }
            None => {
                return Err(RuntimeError::InvalidAccess {
                    detail: format!("offset {} out of bounds for `{}`", offset + i, object.name),
                })
            }
        }
    }
    Ok(out)
}

/// Writes vector lanes with a single object lookup (mirrors the per-lane
/// `write_scalar` loop of `write_value`, including its errors and its
/// partial-write behaviour on out-of-bounds offsets).
fn write_lanes(
    memory: &mut Memory,
    obj: ObjId,
    offset: usize,
    ty: ScalarType,
    lanes: impl Iterator<Item = u64>,
) -> Result<(), RuntimeError> {
    let object = memory.object_mut(obj)?;
    for (i, bits) in lanes.enumerate() {
        match object.cells.get_mut(offset + i) {
            Some(slot) => *slot = Cell::Bits(crate::value::mask(bits, ty)),
            None => {
                return Err(RuntimeError::InvalidAccess {
                    detail: format!(
                        "offset {} out of bounds for `{}` ({} cells)",
                        offset + i,
                        object.name,
                        object.cells.len()
                    ),
                })
            }
        }
    }
    Ok(())
}

/// Loads a statically typed scalar/vector leaf, recording the read when the
/// location is shared.  Single source of the fused instructions' read
/// semantics (mirrors `AccessCtx::load` for these two type shapes).
fn load_leaf(
    world: &mut World<'_>,
    ids: ThreadIds,
    obj: ObjId,
    offset: usize,
    leaf: &LeafTy,
    shared: bool,
) -> Result<Value, RuntimeError> {
    match leaf {
        LeafTy::Scalar(s) => {
            if shared {
                record_shared(world.races.as_mut(), &ids, obj, offset, 1, AccessKind::Read);
            }
            Ok(Value::Scalar(world.memory.read_scalar(obj, offset, *s)?))
        }
        LeafTy::Vector(s, w) => {
            let lanes = w.lanes();
            if shared {
                record_shared(
                    world.races.as_mut(),
                    &ids,
                    obj,
                    offset,
                    lanes,
                    AccessKind::Read,
                );
            }
            Ok(Value::Vector(
                *s,
                read_lanes(&*world.memory, obj, offset, *s, lanes)?,
            ))
        }
    }
}

/// Stores into a statically typed scalar/vector leaf, recording the write
/// when the location is shared.  Single source of the fused instructions'
/// store-conversion semantics (mirrors `write_value` for these two type
/// shapes: scalar conversion, the pointer-to-integer zero token, the vector
/// lane-count check and the scalar broadcast).
fn store_leaf(
    world: &mut World<'_>,
    ids: ThreadIds,
    obj: ObjId,
    offset: usize,
    leaf: &LeafTy,
    shared: bool,
    value: &Value,
) -> Result<(), RuntimeError> {
    if shared {
        let cells = match leaf {
            LeafTy::Scalar(_) => 1,
            LeafTy::Vector(_, w) => w.lanes(),
        };
        record_shared(
            world.races.as_mut(),
            &ids,
            obj,
            offset,
            cells,
            AccessKind::Write,
        );
    }
    match (leaf, value) {
        (LeafTy::Scalar(s), Value::Scalar(v)) => world.memory.write_scalar(obj, offset, *v, *s),
        (LeafTy::Scalar(s), Value::Pointer(_)) => {
            world.memory.write_scalar(obj, offset, Scalar::zero(*s), *s)
        }
        (LeafTy::Vector(s, w), Value::Vector(_, l)) => {
            if l.len() != w.lanes() {
                return Err(RuntimeError::TypeMismatch {
                    detail: "vector store with mismatched lane count".into(),
                });
            }
            write_lanes(world.memory, obj, offset, *s, l.iter().copied())
        }
        (LeafTy::Vector(s, w), Value::Scalar(v)) => {
            // Broadcast store: the scalar is converted to the element type
            // once.
            let bits = v.convert(*s).bits;
            write_lanes(
                world.memory,
                obj,
                offset,
                *s,
                std::iter::repeat_n(bits, w.lanes()),
            )
        }
        (LeafTy::Scalar(s), other) => Err(RuntimeError::TypeMismatch {
            detail: format!("cannot store {} into {:?}", other.kind(), Type::Scalar(*s)),
        }),
        (LeafTy::Vector(s, w), other) => Err(RuntimeError::TypeMismatch {
            detail: format!(
                "cannot store {} into {:?}",
                other.kind(),
                Type::Vector(*s, *w)
            ),
        }),
    }
}

/// The resolved target of a fused `p->field` access.
enum ArrowTarget {
    /// The pointee matched the compiled struct id: location plus space
    /// (the leaf type comes from the instruction).
    Leaf(ObjId, usize, AddressSpace),
    /// The pointee was retyped (pointer cast): a dynamically resolved place
    /// mirroring `eval_place`'s field handling.
    Place(Place),
}

/// Loads the pointer held by a slot and resolves the fused field access
/// against it, mirroring `eval_pointer` + the `Field` arm of `eval_place`.
fn resolve_arrow(
    world: &mut World<'_>,
    ids: ThreadIds,
    obj: ObjId,
    ptr_shared: bool,
    expect: clc::StructId,
    add: u32,
    field: &str,
) -> Result<ArrowTarget, RuntimeError> {
    if ptr_shared {
        record_shared(world.races.as_mut(), &ids, obj, 0, 1, AccessKind::Read);
    }
    let p = world.memory.read_pointer(obj, 0)?;
    match &p.pointee {
        Type::Struct(id) if *id == expect => {
            Ok(ArrowTarget::Leaf(p.obj, p.offset + add as usize, p.space))
        }
        pointee => {
            let field_offset = pointee
                .field_offset(field, &world.program.structs)
                .ok_or_else(|| RuntimeError::TypeMismatch {
                    detail: format!("no field `{field}` on {pointee:?}"),
                })?;
            let field_ty = match pointee {
                Type::Struct(id) => world
                    .program
                    .struct_def(*id)
                    .field(field)
                    .map(|f| f.ty.clone())
                    .ok_or_else(|| RuntimeError::TypeMismatch {
                        detail: format!("no field `{field}`"),
                    })?,
                _ => {
                    return Err(RuntimeError::TypeMismatch {
                        detail: "field access on non-struct".into(),
                    })
                }
            };
            Ok(ArrowTarget::Place(Place {
                obj: p.obj,
                offset: p.offset + field_offset,
                ty: field_ty,
                space: p.space,
            }))
        }
    }
}

/// The element type of a resolved index target: scalars stay as a copyable
/// tag so the hot store path never clones a `Type`.
enum ResolvedTy {
    Scalar(ScalarType),
    Owned(Type),
}

/// Pops and converts an index operand (mirrors `eval_place`'s index
/// handling).
fn index_operand(item: &mut VmItem) -> Result<i64, RuntimeError> {
    let idx_value = item.pop_value();
    Ok(idx_value
        .as_scalar()
        .ok_or_else(|| RuntimeError::TypeMismatch {
            detail: "index is not scalar".into(),
        })?
        .as_i64())
}

/// The fused equivalent of `ResolveIndexable` + `IndexPlace` on a slot's
/// object: resolves the indexable base (arrays in place, pointers through
/// their cell) and applies the bounds-checked index, returning the target
/// location, element type (borrowed — no clones) and its cell count.
fn resolve_slot_index<'m>(
    memory: &'m Memory,
    structs: &[clc::StructDef],
    obj: ObjId,
    idx: i64,
) -> Result<(ObjId, usize, AddressSpace, &'m Type, usize), RuntimeError> {
    let object = memory.object(obj)?;
    let (tobj, toffset, tspace, tty): (ObjId, usize, AddressSpace, &Type) = match &object.ty {
        Type::Pointer(..) => match object.cells.first() {
            Some(Cell::Ptr(p)) => (p.obj, p.offset, p.space, &p.pointee),
            Some(_) => {
                return Err(RuntimeError::UninitializedRead {
                    object: object.name.clone(),
                })
            }
            None => {
                return Err(RuntimeError::InvalidAccess {
                    detail: format!(
                        "offset 0 out of bounds for `{}` ({} cells)",
                        object.name,
                        object.cells.len()
                    ),
                })
            }
        },
        other => (obj, 0, object.space, other),
    };
    let (elem, stride_base): (&Type, usize) = match tty {
        Type::Array(elem, len) => {
            if idx < 0 || idx as usize >= *len {
                return Err(RuntimeError::InvalidAccess {
                    detail: format!("array index {idx} out of bounds for length {len}"),
                });
            }
            (&**elem, toffset)
        }
        other => (other, toffset),
    };
    let stride = elem.cell_count(structs);
    if idx < 0 {
        return Err(RuntimeError::InvalidAccess {
            detail: format!("negative index {idx}"),
        });
    }
    Ok((
        tobj,
        stride_base + idx as usize * stride,
        tspace,
        elem,
        stride,
    ))
}

/// Resolves a slot to the place of its whole object (the bytecode analogue
/// of `eval_place` on a variable).
fn slot_place(
    world: &World<'_>,
    item: &VmItem,
    frame_idx: usize,
    func: usize,
    slot: u16,
) -> Result<Place, RuntimeError> {
    let obj = bound_slot(item, frame_idx, func, world.compiled, slot)?;
    let object = world.memory.object(obj)?;
    Ok(Place {
        obj,
        offset: 0,
        ty: object.ty.clone(),
        space: object.space,
    })
}

fn bound_slot(
    item: &VmItem,
    frame_idx: usize,
    func: usize,
    compiled: &CompiledProgram,
    slot: u16,
) -> Result<ObjId, RuntimeError> {
    item.frames[frame_idx].slots[slot as usize].ok_or_else(|| {
        RuntimeError::UnknownVariable(compiled.funcs[func].slot_names[slot as usize].clone())
    })
}

/// Reads a register, failing like `Memory::read_scalar` on an
/// uninitialised cell (the same error, naming the same variable).
fn read_reg(
    item: &VmItem,
    frame_idx: usize,
    func: usize,
    compiled: &CompiledProgram,
    reg: u16,
    ty: ScalarType,
) -> Result<Scalar, RuntimeError> {
    match item.frames[frame_idx].regs[reg as usize] {
        Some(bits) => Ok(Scalar::from_bits(bits, ty)),
        None => Err(RuntimeError::UninitializedRead {
            object: compiled.funcs[func].reg_names[reg as usize].clone(),
        }),
    }
}

/// Stores into a register with `write_value`'s `Type::Scalar` semantics:
/// scalar conversion to the declared type, the pointer-to-integer zero
/// token, and the identical `TypeMismatch` for anything else.
fn write_reg(
    item: &mut VmItem,
    frame_idx: usize,
    reg: u16,
    ty: ScalarType,
    value: &Value,
) -> Result<(), RuntimeError> {
    let bits = match value {
        Value::Scalar(v) => v.convert(ty).bits,
        Value::Pointer(_) => Scalar::zero(ty).bits,
        other => {
            return Err(RuntimeError::TypeMismatch {
                detail: format!("cannot store {} into {:?}", other.kind(), Type::Scalar(ty)),
            })
        }
    };
    item.frames[frame_idx].regs[reg as usize] = Some(bits);
    Ok(())
}
