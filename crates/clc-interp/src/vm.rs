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
//! Values live on a value stack, lvalues on a place stack.  A memory access
//! pushes a [`Place`] (object, cell offset, type, address space) and
//! `LoadPlace` / `Store` go through the same `AccessCtx` load and store as
//! the tree walker's.  Two kinds of access skip the place: scalars held in
//! the frame's registers (`LoadReg`, `StoreReg`, and the literal-operand
//! forms `DeclRegInit`, `StoreRegImm`, `RegBinopImm`), and scalars at a
//! compile-time cell offset of a slot's object (`LoadScalarSlot`,
//! `StoreScalarSlot`).
//!
//! Side-effect order — loads, stores, race-detector records, allocation and
//! freeing of objects — matches the tree walker statement by statement, which
//! is what makes the two tiers agree bit-for-bit on results, errors and race
//! verdicts (enforced by the `tier_equivalence` integration test).
//!
//! Each launch replays the *segments* of its kernel that run the same in
//! every work-item, through one `SegmentMemo` shared by every work-item of
//! every group.  A segment starts at the kernel entry, or at the first
//! kernel-frame statement boundary (empty value and place stacks) after an
//! instruction whose effect could depend on which work-item runs it
//! (`lane_dependent`), and ends before the next such instruction.  The
//! first work-item to run a segment from a given start records it: what it
//! read before writing it (kernel-frame registers, and the cells of the
//! kernel frame's objects, `Memory` logging each object's cells at its
//! first touch) and what it left behind (written registers and cells,
//! objects that outlive it, its scopes and frames, both stacks, its steps
//! and soft barriers).  Object ids are stored relative to the work-item: an
//! object the kernel frame owned at the start by its index in the frame's
//! owned list, an object the segment allocated by its index among those
//! that outlive it.  A later work-item at that start whose reads match the
//! record, and whose steps plus the recorded ones stay within the step
//! limit, replays it; any other runs it for real.  A segment never touches
//! shared memory, queries a work-item's identity, or runs a barrier or an
//! atomic on shared memory, so the result, the errors, the race verdicts
//! and `total_steps` are those of running every work-item in full, and no
//! shared access changes order.
//!
//! Calls of memoisable helpers (`CompiledFunc::memoisable`, decided at
//! lowering) go through the launch's `CallMemo`, shared by every work-item
//! of every group.  A `Call` whose pointer arguments all name live private
//! objects free of pointer cells is keyed by the callee, the arguments with
//! each pointer's object renamed to its argument-object index, and those
//! objects' cells.  On a miss the call runs as before and is recorded at its
//! `Return` (unless its result or an argument object then holds a pointer):
//! the argument objects' cells, the result, and the steps, soft barriers and
//! nested call depth it took.  On a hit the cells are written back into this
//! work-item's argument objects, the result is pushed and the steps and soft
//! barriers are charged, so nothing the caller can observe differs from
//! running the call.  A hit is taken only when the work-item could not have
//! stopped inside the call: its steps plus the recorded ones stay within the
//! step limit, and its frames plus the recorded depth within
//! `MAX_CALL_DEPTH`.

use crate::compile::{BranchKind, CompiledProgram, Instr, KERNEL_FUNC};
use crate::error::RuntimeError;
use crate::eval::{
    cast_value, id_query_value, lift_builtin, record_shared, scalar_binop, scalar_builtin,
    swizzle_value, unary_op, value_binop, vector_lane_binop, AccessCtx, Place, ThreadIds,
    MAX_CALL_DEPTH,
};
use crate::exec::{
    alloc_param_object, drive_group, group_linear, thread_ids, CoopItem, LaunchOptions, Status,
};
use crate::memory::{Memory, Object, RESERVED_GENERATIONS};
use crate::race::{AccessKind, RaceDetector};
use crate::value::{Cell, ObjId, PointerValue, Scalar, Value};
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

impl Frame {
    fn empty() -> Frame {
        Frame {
            func: 0,
            pc: 0,
            slots: Vec::new(),
            regs: Vec::new(),
            owned: Vec::new(),
            scope_bases: Vec::new(),
        }
    }

    /// Makes this frame a copy of `from` with every object id mapped by
    /// `id`.
    fn copy_mapped(&mut self, from: &Frame, id: impl Fn(ObjId) -> ObjId) {
        self.func = from.func;
        self.pc = from.pc;
        self.slots.clear();
        self.slots.extend(from.slots.iter().map(|s| s.map(&id)));
        self.regs.clone_from(&from.regs);
        self.owned.clear();
        self.owned.extend(from.owned.iter().map(|&o| id(o)));
        self.scope_bases.clone_from(&from.scope_bases);
    }
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
    /// Steps charged for calls served from the launch's [`CallMemo`]
    /// (included in `steps`).
    memoized_steps: u64,
    /// The memoised calls this work-item is running for real, innermost
    /// last, to be recorded when they return.
    recording: Vec<Recording>,
    /// Steps of the calls made outside any memoised call that a work-item
    /// running the same code after this one would take from the call memo:
    /// each call the memo served or recorded.  A recorded segment charges
    /// its share to the work-items that replay it, as `memoized_steps`.
    memo_credit: u64,
    /// Where this work-item stands towards the launch's segments.
    phase: Phase,
    /// Steps charged for segments replayed from the launch's
    /// [`SegmentMemo`] (included in `steps`).
    replayed_steps: u64,
}

impl VmItem {
    /// A work-item `ids` at the kernel entry.  Slot 0 is the permutation
    /// table, followed by the kernel parameters, matching the environment
    /// the tree walker builds.
    fn new(
        ids: ThreadIds,
        program: &Program,
        compiled: &CompiledProgram,
        memory: &mut Memory,
        buffer_objects: &HashMap<String, (ObjId, ScalarType, usize)>,
        permutations_obj: Option<ObjId>,
    ) -> Result<VmItem, RuntimeError> {
        let kernel = &compiled.funcs[KERNEL_FUNC];
        let mut slots = vec![None; kernel.n_slots];
        let mut owned = Vec::with_capacity(program.kernel.params.len());
        slots[0] = permutations_obj;
        for (i, param) in program.kernel.params.iter().enumerate() {
            let obj = alloc_param_object(memory, buffer_objects, param)?;
            slots[1 + i] = Some(obj);
            owned.push(obj);
        }
        Ok(VmItem {
            ids,
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
            memoized_steps: 0,
            recording: Vec::new(),
            memo_credit: 0,
            phase: Phase::Seek,
            replayed_steps: 0,
        })
    }

    fn pop_value(&mut self) -> Value {
        self.values.pop().expect("value stack underflow")
    }

    fn pop_place(&mut self) -> Place {
        self.places.pop().expect("place stack underflow")
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
    memo: &'a mut CallMemo,
    segments: &'a mut SegmentMemo,
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

    /// Reads a register, failing like `Memory::read_scalar` on an
    /// uninitialised cell (the same error, naming the same variable).  A
    /// kernel-frame read is logged for the segment being recorded.
    fn read_reg(
        &mut self,
        item: &VmItem,
        frame_idx: usize,
        func: usize,
        reg: u16,
        ty: ScalarType,
    ) -> Result<Scalar, RuntimeError> {
        match item.frames[frame_idx].regs[reg as usize] {
            Some(bits) => {
                if frame_idx == 0 && item.phase == Phase::Record {
                    self.segments.pending.read(reg, bits);
                }
                Ok(Scalar::from_bits(bits, ty))
            }
            None => Err(RuntimeError::UninitializedRead {
                object: self.compiled.funcs[func].reg_names[reg as usize].clone(),
            }),
        }
    }

    /// Stores into a register with `write_value`'s `Type::Scalar`
    /// semantics (see [`scalar_store_bits`]).
    fn write_reg(
        &mut self,
        item: &mut VmItem,
        frame_idx: usize,
        reg: u16,
        ty: ScalarType,
        value: &Value,
    ) -> Result<(), RuntimeError> {
        let bits = scalar_store_bits(ty, value)?;
        self.set_reg(item, frame_idx, reg, Some(bits));
        Ok(())
    }

    /// Sets a register, logging a kernel-frame write for the segment being
    /// recorded.
    fn set_reg(&mut self, item: &mut VmItem, frame_idx: usize, reg: u16, bits: Option<u64>) {
        if frame_idx == 0 && item.phase == Phase::Record {
            self.segments.pending.wrote(reg);
        }
        item.frames[frame_idx].regs[reg as usize] = bits;
    }
}

/// Executes one work-group on the bytecode tier (the VM counterpart of
/// `exec::run_group`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_group(
    program: &Program,
    compiled: &CompiledProgram,
    options: &LaunchOptions,
    memory: &mut Memory,
    races: &mut Option<RaceDetector>,
    memo: &mut CallMemo,
    segments: &mut SegmentMemo,
    buffer_objects: &HashMap<String, (ObjId, ScalarType, usize)>,
    permutations_obj: Option<ObjId>,
    group: [usize; 3],
    totals: &mut GroupTotals,
) -> Result<(), RuntimeError> {
    let cfg = &program.launch;
    let local = cfg.local;
    let mut group_locals: HashMap<String, ObjId> = HashMap::new();

    let mut items: Vec<VmItem> = Vec::with_capacity(cfg.group_size());
    for lz in 0..local[2] {
        for ly in 0..local[1] {
            for lx in 0..local[0] {
                items.push(VmItem::new(
                    thread_ids(cfg, group, [lx, ly, lz]),
                    program,
                    compiled,
                    memory,
                    buffer_objects,
                    permutations_obj,
                )?);
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
        memo,
        segments,
    };
    let released = drive_group(
        &mut items,
        options.schedule,
        group_linear(group, cfg.groups()),
        |item| run_item(&mut world, item),
    )?;
    totals.barrier_intervals = totals.barrier_intervals.max(released);

    for item in &mut items {
        totals.steps += item.steps;
        totals.soft_barriers += item.soft_barriers;
        totals.memoized_steps += item.memoized_steps;
        totals.replayed_steps += item.replayed_steps;
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

/// A launch's per-group sums on the bytecode tier.
#[derive(Debug, Default)]
pub(crate) struct GroupTotals {
    pub(crate) steps: u64,
    pub(crate) soft_barriers: u64,
    pub(crate) barrier_intervals: u64,
    pub(crate) memoized_steps: u64,
    pub(crate) replayed_steps: u64,
}

/// Runs a single work-item until it blocks at a barrier, finishes or fails.
fn run_item(world: &mut World<'_>, item: &mut VmItem) {
    let result = run_frames(world, item);
    if item.phase == Phase::Record {
        // Only an error leaves a segment unfinished: drop its recording.
        debug_assert!(result.is_err(), "a recorded segment yielded");
        world.memory.end_tracking();
        item.phase = Phase::Seek;
    }
    if let Err(e) = result {
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
            match item.phase {
                Phase::Record => {
                    let epoch = world.memory.pause_tracking();
                    let ends = lane_dependent(world, item, frame_idx, instr);
                    world.memory.resume_tracking(epoch);
                    if ends {
                        item.frames[frame_idx].pc = pc;
                        world.segments.commit(world.memory, item);
                    }
                }
                Phase::Seek | Phase::Run
                    if frame_idx == 0
                        && item.values.is_empty()
                        && item.places.is_empty()
                        && (item.phase == Phase::Seek || world.segments.started(pc)) =>
                {
                    item.frames[0].pc = pc;
                    if start_segment(world, item, instr)? {
                        continue 'frames;
                    }
                }
                Phase::Seek | Phase::Run => {}
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
                    let mut lanes = Vec::with_capacity(width.lanes());
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
                    let new_value = match op {
                        None => rhs,
                        Some(binop) => {
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
                            let current = world.memory.read_scalar(obj, offset, *ty)?;
                            vm_value_binop(*binop, Value::Scalar(current), rhs)?
                        }
                    };
                    if *shared {
                        record_shared(
                            world.races.as_mut(),
                            &item.ids,
                            obj,
                            offset,
                            1,
                            AccessKind::Write,
                        );
                    }
                    let bits = scalar_store_bits(*ty, &new_value)?;
                    world.memory.write_cell(obj, offset, Cell::Bits(bits))?;
                    if *push {
                        item.values.push(new_value);
                    }
                }
                Instr::DeclReg { reg } => world.set_reg(item, frame_idx, *reg, None),
                Instr::DeclRegInit { reg, bits } => {
                    world.set_reg(item, frame_idx, *reg, Some(*bits))
                }
                Instr::LoadReg { reg, ty } => {
                    let s = world.read_reg(item, frame_idx, func, *reg, *ty)?;
                    item.values.push(Value::Scalar(s));
                }
                Instr::StoreReg { reg, ty, op, push } => {
                    let rhs = item.pop_value();
                    let new_value = match op {
                        None => rhs,
                        Some(binop) => {
                            let current =
                                Value::Scalar(world.read_reg(item, frame_idx, func, *reg, *ty)?);
                            vm_value_binop(*binop, current, rhs)?
                        }
                    };
                    world.write_reg(item, frame_idx, *reg, *ty, &new_value)?;
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
                            let current =
                                Value::Scalar(world.read_reg(item, frame_idx, func, *reg, *ty)?);
                            vm_value_binop(*binop, current, Value::Scalar(*imm))?
                        }
                    };
                    world.write_reg(item, frame_idx, *reg, *ty, &new_value)?;
                    if *push {
                        item.values.push(new_value);
                    }
                }
                Instr::RegBinopImm { reg, ty, op, imm } => {
                    let l = world.read_reg(item, frame_idx, func, *reg, *ty)?;
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
                Instr::PlaceDeref => match item.pop_value() {
                    Value::Pointer(p) => item.places.push(p.into()),
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            detail: format!("expected pointer, found {}", other.kind()),
                        })
                    }
                },
                Instr::ResolveIndexable => {
                    let place = item.pop_place().indexable(world.memory)?;
                    item.places.push(place);
                }
                Instr::IndexPlace => {
                    let idx_value = item.pop_value();
                    let idx = idx_value
                        .as_scalar()
                        .ok_or_else(|| RuntimeError::TypeMismatch {
                            detail: "index is not scalar".into(),
                        })?
                        .as_i64();
                    let place = item.pop_place().index(idx, &world.program.structs)?;
                    item.places.push(place);
                }
                Instr::FieldPlace(field) => {
                    let place = item.pop_place().field(field, &world.program.structs)?;
                    item.places.push(place);
                }
                Instr::LanePlace(lane) => {
                    let place = item.pop_place().lane(*lane as usize)?;
                    item.places.push(place);
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
                Instr::StoreLanes { lanes, op, push } => {
                    let place = item.pop_place();
                    let rhs = item.pop_value();
                    let value = world
                        .access(item.ids)
                        .store_lanes(&place, lanes, *op, rhs)?;
                    if *push {
                        item.values.push(value);
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
                    let frames = item.frames.len();
                    if frames > MAX_CALL_DEPTH {
                        return Err(RuntimeError::CallDepthExceeded);
                    }
                    if let Some(call) = item.recording.last_mut() {
                        call.reach = call.reach.max(frames);
                    }
                }
                Instr::Call { func, argc } => {
                    let target = &compiled.funcs[*func as usize];
                    let start = item.values.len() - *argc as usize;
                    let caller_frames = item.frames.len();
                    let mut recording = None;
                    if target.memoisable
                        && world.memo.keys(*func)
                        && world
                            .memo
                            .key_call(*func, &item.values[start..], world.memory)
                    {
                        let memo = &mut *world.memo;
                        match memo.entries.get(&memo.key) {
                            None => {
                                memo.missed(*func);
                                recording = Some(Recording {
                                    key: memo.key.clone(),
                                    objs: memo.objs.clone(),
                                    caller_frames,
                                    steps: item.steps,
                                    soft_barriers: item.soft_barriers,
                                    reach: 0,
                                });
                            }
                            // A hit is taken only where running the call
                            // could not stop the work-item: within its step
                            // limit and, at every nested call, within
                            // `MAX_CALL_DEPTH`.
                            Some(entry)
                                if item.steps + entry.steps <= world.step_limit
                                    && caller_frames + entry.depth <= MAX_CALL_DEPTH =>
                            {
                                write_back(world.memory, &memo.objs, &entry.cells)?;
                                item.values.truncate(start);
                                item.values.push(entry.result.clone());
                                item.steps += entry.steps;
                                item.soft_barriers += entry.soft_barriers;
                                item.memoized_steps += entry.steps;
                                if item.recording.is_empty() {
                                    item.memo_credit += entry.steps;
                                }
                                if entry.depth > 0 {
                                    if let Some(outer) = item.recording.last_mut() {
                                        outer.reach = outer.reach.max(caller_frames + entry.depth);
                                    }
                                }
                                continue;
                            }
                            // Run for real: it is recorded already.
                            Some(_) => {}
                        }
                    }
                    let mut frame = item.frame_pool.pop().unwrap_or_else(Frame::empty);
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
                    item.recording.extend(recording);
                    continue 'frames;
                }
                Instr::CallBuiltin { func, argc } => {
                    let start = item.values.len() - *argc as usize;
                    let result = lift_builtin(*func, &item.values[start..])?;
                    item.values.truncate(start);
                    item.values.push(result);
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
                    if item
                        .recording
                        .last()
                        .is_some_and(|call| call.caller_frames == item.frames.len())
                    {
                        let call = item.recording.pop().expect("checked above");
                        let (steps, soft_barriers) = (item.steps, item.soft_barriers);
                        let (start_steps, reach) = (call.steps, call.reach);
                        let recorded =
                            world
                                .memo
                                .record(call, &result, steps, soft_barriers, world.memory);
                        match item.recording.last_mut() {
                            Some(outer) => outer.reach = outer.reach.max(reach),
                            None if recorded => item.memo_credit += steps - start_steps,
                            None => {}
                        }
                    }
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

// --- The call memo ---------------------------------------------------------

/// A launch's memo of helper calls: what each recorded call of a
/// memoisable helper did, keyed by everything the call could read.
/// `exec::launch` creates one per launch; every work-item of every group
/// shares it, and it is dropped with the launch.
#[derive(Default)]
pub(crate) struct CallMemo {
    entries: HashMap<CallKey, MemoEntry>,
    /// Per function, how many of its keyed calls missed.
    misses: Vec<u32>,
    /// The key of the call being looked up, reused so a hit allocates
    /// nothing.
    key: CallKey,
    /// That call's argument objects, in key order.
    objs: Vec<ObjId>,
}

/// Everything a call of a memoisable helper can read: the callee, the
/// arguments with each pointer's object renamed to its index among the
/// argument objects (so which arguments alias is part of the key), and the
/// cells of those objects.
#[derive(Default, Clone, PartialEq, Eq, Hash)]
struct CallKey {
    func: u32,
    args: Vec<Value>,
    /// Cell count of each argument object, in index order.
    lens: Vec<u32>,
    /// The argument objects' cells, concatenated (see [`push_memo_cells`]).
    cells: Vec<Option<u64>>,
}

/// What a recorded call did, as far as its caller can tell.
struct MemoEntry {
    /// The argument objects' cells after the call, in key order.
    cells: Box<[Option<u64>]>,
    result: Value,
    steps: u64,
    soft_barriers: u64,
    /// How many frames deeper than its caller's the call's nested
    /// `CheckDepth`s ran (0 when it called nothing).
    depth: usize,
}

/// A keyed call that missed and is running for real, recorded at its
/// `Return`.
struct Recording {
    key: CallKey,
    objs: Vec<ObjId>,
    /// The caller's frame count: the callee's frame is the next one.
    caller_frames: usize,
    steps: u64,
    soft_barriers: u64,
    /// The largest frame count a nested `CheckDepth` has seen (0 = none).
    reach: usize,
}

/// Misses after which a helper stops being keyed for the rest of the
/// launch.  Each miss records an entry, so this bounds the memo's size and
/// the time spent keying calls that never repeat.  Generated kernels stay
/// far below it: the most entries one launch of `table4 10` records for
/// all its helpers together is 176.
const KEYED_MISSES: u32 = 256;

impl CallMemo {
    /// Whether calls of `func` are still keyed in this launch.
    fn keys(&self, func: u32) -> bool {
        self.misses
            .get(func as usize)
            .is_none_or(|&m| m < KEYED_MISSES)
    }

    fn missed(&mut self, func: u32) {
        let func = func as usize;
        if self.misses.len() <= func {
            self.misses.resize(func + 1, 0);
        }
        self.misses[func] += 1;
    }

    /// Builds `key` and `objs` for a call of `func` with `args`.  Returns
    /// false when the call cannot be keyed: a pointer argument does not
    /// name a live private object free of pointer cells, or an aggregate
    /// argument holds a pointer.
    fn key_call(&mut self, func: u32, args: &[Value], memory: &Memory) -> bool {
        let key = &mut self.key;
        key.func = func;
        key.args.clear();
        key.lens.clear();
        key.cells.clear();
        self.objs.clear();
        for arg in args {
            let arg = match arg {
                Value::Pointer(p) => {
                    let index = match self.objs.iter().position(|&o| o == p.obj) {
                        Some(index) => index,
                        None => {
                            let Ok(object) = memory.object(p.obj) else {
                                return false;
                            };
                            if object.space != AddressSpace::Private
                                || !push_memo_cells(&mut key.cells, object)
                            {
                                return false;
                            }
                            key.lens.push(object.cells.len() as u32);
                            self.objs.push(p.obj);
                            self.objs.len() - 1
                        }
                    };
                    Value::Pointer(PointerValue {
                        obj: ObjId {
                            slot: index as u32,
                            generation: 0,
                        },
                        ..p.clone()
                    })
                }
                Value::Aggregate(_, cells) if cells.iter().any(|c| matches!(c, Cell::Ptr(_))) => {
                    return false
                }
                other => other.clone(),
            };
            key.args.push(arg);
        }
        true
    }

    /// Records a call that ran for real and returned `result`, unless the
    /// result or an argument object now holds a pointer.  Returns whether
    /// it recorded the call.
    fn record(
        &mut self,
        call: Recording,
        result: &Value,
        steps: u64,
        soft_barriers: u64,
        memory: &Memory,
    ) -> bool {
        let pointer = match result {
            Value::Pointer(_) => true,
            Value::Aggregate(_, cells) => cells.iter().any(|c| matches!(c, Cell::Ptr(_))),
            Value::Scalar(_) | Value::Vector(..) => false,
        };
        if pointer {
            return false;
        }
        let mut cells = Vec::with_capacity(call.key.cells.len());
        for &obj in &call.objs {
            match memory.object(obj) {
                Ok(object) if push_memo_cells(&mut cells, object) => {}
                _ => return false,
            }
        }
        self.entries.insert(
            call.key,
            MemoEntry {
                cells: cells.into(),
                result: result.clone(),
                steps: steps - call.steps,
                soft_barriers: soft_barriers - call.soft_barriers,
                depth: call.reach.saturating_sub(call.caller_frames),
            },
        );
        true
    }
}

/// Appends `object`'s cells as the memo stores them, `Some(bits)` or
/// `None` when uninitialised; false at the first pointer cell, which the
/// memo has no form for.
fn push_memo_cells(out: &mut Vec<Option<u64>>, object: &Object) -> bool {
    for cell in &object.cells {
        out.push(match cell {
            Cell::Bits(bits) => Some(*bits),
            Cell::Uninit => None,
            Cell::Ptr(_) => return false,
        });
    }
    true
}

/// Writes a memo entry's cells into this call's argument objects.
fn write_back(
    memory: &mut Memory,
    objs: &[ObjId],
    cells: &[Option<u64>],
) -> Result<(), RuntimeError> {
    let mut rest = cells;
    for &obj in objs {
        let object = memory.object_mut(obj)?;
        let (mine, tail) = rest.split_at(object.cells.len());
        for (cell, bits) in object.cells.iter_mut().zip(mine) {
            *cell = bits.map_or(Cell::Uninit, Cell::Bits);
        }
        rest = tail;
    }
    Ok(())
}

// --- The segment memo ------------------------------------------------------

/// Where a work-item stands towards the launch's segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// At the kernel entry or past a lane-dependent instruction: the next
    /// kernel-frame statement boundary starts a segment.
    Seek,
    /// Recording the segment it runs.  A segment never yields, so at most
    /// one work-item records at a time.
    Record,
    /// Running a segment it could neither replay nor record: it tries the
    /// segments recorded at the next boundary that has some.
    Run,
}

/// A launch's memo of kernel segments: per start, what each recorded run
/// from there read and left behind.  `exec::launch` creates one per
/// launch; every work-item of every group shares it, and it is dropped
/// with the launch.
#[derive(Default)]
pub(crate) struct SegmentMemo {
    /// Per kernel instruction address, 1 + the index in `starts` of the
    /// segments recorded from there (0 = no recording began there).
    at: Vec<u32>,
    starts: Vec<Start>,
    /// The steps of the launch's first segment, once a work-item ended it.
    first_steps: Option<u64>,
    /// The recording in progress.
    pending: Pending,
    /// The objects the last replay allocated, kept to reuse the buffer.
    fresh: Vec<ObjId>,
}

/// The segments recorded from one start.
#[derive(Default)]
struct Start {
    /// Recordings begun here, whether they were kept or not.
    recordings: u32,
    segments: Vec<Segment>,
}

/// Recordings begun at one start after which work-items stop recording
/// there for the rest of the launch.  Each recording is one distinct state
/// the segment met, so this bounds the memo's size and the time spent
/// recording and matching segments that read per-work-item values: a
/// segment reading the local id is recorded this many times and replayed
/// never.
const RECORDED_SEGMENTS: u32 = 8;

/// Generation tags of the ids a [`Segment`] stores (see
/// [`RESERVED_GENERATIONS`]): the slot is the object's index in the kernel
/// frame's owned list at the segment's start, or among the objects the
/// segment allocated that outlive it.  Any other id names an object no
/// work-item owns, such as a buffer.
const OWNED: u32 = RESERVED_GENERATIONS;
const FRESH: u32 = RESERVED_GENERATIONS + 1;

/// One recorded run of a segment.
struct Segment {
    // What it read: the state a work-item must be in to replay it.
    /// Length of the kernel frame's owned list, and its scopes.
    owned: usize,
    scope_bases: Box<[usize]>,
    regs_read: Box<[(u16, u64)]>,
    /// Per object touched, its index in the owned list and the end of its
    /// cells in `cells_read`.
    objects_read: Box<[(u32, u32)]>,
    cells_read: Box<[Cell]>,
    // What it left behind.
    steps: u64,
    soft_barriers: u64,
    /// Its share of `VmItem::memo_credit`.
    memoized: u64,
    /// The kernel frame's program counter at the end.
    pc: usize,
    /// How many of the owned objects survive; the rest were freed.
    floor: usize,
    /// Objects the segment allocated that outlive it.
    objects: Box<[FreshObject]>,
    /// The kernel frame's owned objects past `floor` at the end, all of
    /// them allocated by the segment.
    owned_after: Box<[ObjId]>,
    scope_bases_after: Box<[usize]>,
    regs: Box<[(u16, Option<u64>)]>,
    slots: Box<[(u16, Option<ObjId>)]>,
    /// New cells of the objects it wrote, by owned-list index.
    writes: Box<[(u32, Box<[Cell]>)]>,
    /// Helper frames it ended inside, outermost first.
    frames: Box<[Frame]>,
    values: Box<[Value]>,
    places: Box<[Place]>,
}

/// An object a segment allocated that outlives it.
struct FreshObject {
    name: String,
    ty: Type,
    space: AddressSpace,
    cells: Box<[Cell]>,
}

/// The recording in progress: the kernel frame as the segment found it,
/// and the registers it touched.
#[derive(Default)]
struct Pending {
    pc: usize,
    steps: u64,
    soft_barriers: u64,
    credit: u64,
    owned: Vec<ObjId>,
    slots: Vec<Option<ObjId>>,
    scope_bases: Vec<usize>,
    /// `marks[r] == epoch` once the segment touched register `r`.
    epoch: u32,
    marks: Vec<u32>,
    regs_read: Vec<(u16, u64)>,
    regs_touched: Vec<u16>,
}

impl SegmentMemo {
    /// Whether a recording began at kernel address `pc`.
    fn started(&self, pc: usize) -> bool {
        self.at.get(pc).is_some_and(|&at| at != 0)
    }

    /// The steps of the launch's first segment (0 before any work-item
    /// ended it).
    pub(crate) fn first_steps(&self) -> u64 {
        self.first_steps.unwrap_or(0)
    }

    /// Ends the recording of `item`'s segment, stopped before a
    /// lane-dependent instruction, and keeps it when it can be replayed.
    fn commit(&mut self, memory: &mut Memory, item: &mut VmItem) {
        memory.end_tracking();
        item.phase = Phase::Seek;
        let pending = &self.pending;
        let steps = item.steps - pending.steps;
        if pending.pc == 0 && pending.steps == 0 {
            self.first_steps.get_or_insert(steps);
        }
        if let Some(segment) = pending.segment(memory, item, steps) {
            let start = self.at[pending.pc] as usize - 1;
            self.starts[start].segments.push(segment);
        }
    }
}

impl Pending {
    fn read(&mut self, reg: u16, bits: u64) {
        let mark = &mut self.marks[reg as usize];
        if *mark != self.epoch {
            *mark = self.epoch;
            self.regs_touched.push(reg);
            self.regs_read.push((reg, bits));
        }
    }

    fn wrote(&mut self, reg: u16) {
        let mark = &mut self.marks[reg as usize];
        if *mark != self.epoch {
            *mark = self.epoch;
            self.regs_touched.push(reg);
        }
    }

    /// Starts recording `item`'s segment from kernel address `pc`.
    fn begin(&mut self, item: &VmItem, pc: usize) {
        let kernel = &item.frames[0];
        self.pc = pc;
        self.steps = item.steps;
        self.soft_barriers = item.soft_barriers;
        self.credit = item.memo_credit;
        self.owned.clone_from(&kernel.owned);
        self.slots.clone_from(&kernel.slots);
        self.scope_bases.clone_from(&kernel.scope_bases);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        self.marks.resize(kernel.regs.len(), 0);
        self.regs_read.clear();
        self.regs_touched.clear();
    }

    /// The recorded segment, or `None` when it touched an object the kernel
    /// frame did not own at its start.
    fn segment(&self, memory: &Memory, item: &VmItem, steps: u64) -> Option<Segment> {
        let log = memory.touch_log();
        let kernel = &item.frames[0];
        let fresh: Vec<ObjId> = log
            .created
            .iter()
            .copied()
            .filter(|&id| memory.object(id).is_ok())
            .collect();
        // Ids relative to the recording work-item (see [`OWNED`]); any other
        // id is kept as it is: an object no work-item owns, or a freed one,
        // which stays freed for every work-item.
        let rename = |id: ObjId| {
            let tag = |generation, index: usize| ObjId {
                slot: index as u32,
                generation,
            };
            if let Some(index) = self.owned.iter().position(|&o| o == id) {
                tag(OWNED, index)
            } else if let Some(index) = fresh.iter().position(|&o| o == id) {
                tag(FRESH, index)
            } else {
                id
            }
        };
        let floor = kernel
            .owned
            .iter()
            .zip(&self.owned)
            .take_while(|(now, then)| now == then)
            .count();
        let mut objects_read = Vec::with_capacity(log.touched.len());
        let mut cells_read = Vec::with_capacity(log.cells.len());
        let mut writes = Vec::new();
        for (id, range) in &log.touched {
            let index = self.owned.iter().position(|o| o == id)?;
            let start = cells_read.len();
            cells_read.extend(log.cells[range.clone()].iter().map(|c| map_cell(c, rename)));
            objects_read.push((index as u32, cells_read.len() as u32));
            if index < floor {
                let after: Box<[Cell]> = memory
                    .object(*id)
                    .ok()?
                    .cells
                    .iter()
                    .map(|c| map_cell(c, rename))
                    .collect();
                if after[..] != cells_read[start..] {
                    writes.push((index as u32, after));
                }
            }
        }
        let objects = fresh
            .iter()
            .map(|&id| {
                let object = memory.object(id).ok()?;
                Some(FreshObject {
                    name: object.name.clone(),
                    ty: object.ty.clone(),
                    space: object.space,
                    cells: object.cells.iter().map(|c| map_cell(c, rename)).collect(),
                })
            })
            .collect::<Option<_>>()?;
        let regs = self
            .regs_touched
            .iter()
            .filter_map(|&reg| {
                let now = kernel.regs[reg as usize];
                let read = self.regs_read.iter().find(|(r, _)| *r == reg);
                (read.map(|&(_, bits)| Some(bits)) != Some(now)).then_some((reg, now))
            })
            .collect();
        let slots: Vec<(u16, Option<ObjId>)> = kernel
            .slots
            .iter()
            .zip(&self.slots)
            .enumerate()
            .filter(|(_, (now, then))| now != then)
            .map(|(slot, (now, _))| (slot as u16, now.map(rename)))
            .collect();
        let frames = item.frames[1..]
            .iter()
            .map(|f| {
                let mut frame = Frame::empty();
                frame.copy_mapped(f, rename);
                frame
            })
            .collect();
        Some(Segment {
            owned: self.owned.len(),
            scope_bases: self.scope_bases.as_slice().into(),
            regs_read: self.regs_read.as_slice().into(),
            objects_read: objects_read.into(),
            cells_read: cells_read.into(),
            steps,
            soft_barriers: item.soft_barriers - self.soft_barriers,
            memoized: item.memo_credit - self.credit,
            pc: kernel.pc,
            floor,
            objects,
            owned_after: kernel.owned[floor..].iter().map(|&id| rename(id)).collect(),
            scope_bases_after: kernel.scope_bases.as_slice().into(),
            regs,
            slots: slots.into(),
            writes: writes.into(),
            frames,
            values: item.values.iter().map(|v| map_value(v, rename)).collect(),
            places: item
                .places
                .iter()
                .map(|p| Place {
                    obj: rename(p.obj),
                    ..p.clone()
                })
                .collect(),
        })
    }
}

/// `cell` with its pointer's object id mapped by `id`.
fn map_cell(cell: &Cell, id: impl Fn(ObjId) -> ObjId) -> Cell {
    match cell {
        Cell::Ptr(p) => Cell::Ptr(PointerValue {
            obj: id(p.obj),
            ..p.clone()
        }),
        other => other.clone(),
    }
}

/// `value` with its pointers' object ids mapped by `id`.
fn map_value(value: &Value, id: impl Fn(ObjId) -> ObjId) -> Value {
    match value {
        Value::Pointer(p) => Value::Pointer(PointerValue {
            obj: id(p.obj),
            ..p.clone()
        }),
        Value::Aggregate(ty, cells) => {
            Value::Aggregate(ty.clone(), cells.iter().map(|c| map_cell(c, &id)).collect())
        }
        other => other.clone(),
    }
}

/// The replaying work-item's id for a stored one (see [`OWNED`]).
fn concrete(id: ObjId, owned: &[ObjId], fresh: &[ObjId]) -> ObjId {
    match id.generation {
        OWNED => owned[id.slot as usize],
        FRESH => fresh[id.slot as usize],
        _ => id,
    }
}

impl Segment {
    /// Whether `item`, at this segment's start, is in the state the
    /// segment read.
    fn matches(&self, item: &VmItem, memory: &Memory) -> bool {
        let kernel = &item.frames[0];
        if kernel.owned.len() != self.owned || kernel.scope_bases[..] != self.scope_bases[..] {
            return false;
        }
        if !self
            .regs_read
            .iter()
            .all(|&(reg, bits)| kernel.regs[reg as usize] == Some(bits))
        {
            return false;
        }
        let mut start = 0;
        self.objects_read.iter().all(|&(index, end)| {
            let read = &self.cells_read[start..end as usize];
            start = end as usize;
            memory
                .object(kernel.owned[index as usize])
                .is_ok_and(|object| {
                    object.cells.len() == read.len()
                        && object
                            .cells
                            .iter()
                            .zip(read)
                            .all(|(now, then)| match (now, then) {
                                (Cell::Ptr(p), Cell::Ptr(q)) => {
                                    p.obj == concrete(q.obj, &kernel.owned, &[])
                                        && p.offset == q.offset
                                        && p.space == q.space
                                        && p.pointee == q.pointee
                                }
                                (now, then) => now == then,
                            })
                })
        })
    }

    /// Leaves `item` as the recording work-item's run of this segment left
    /// it, with every stored id made `item`'s own.
    fn replay(
        &self,
        item: &mut VmItem,
        memory: &mut Memory,
        fresh: &mut Vec<ObjId>,
    ) -> Result<(), RuntimeError> {
        fresh.clear();
        for object in self.objects.iter() {
            fresh.push(memory.alloc_copy(&object.name, &object.ty, object.space, &object.cells));
        }
        // A segment starts in the kernel frame; the helper frames it ended
        // inside go above it.
        let mut kernel = item
            .frames
            .pop()
            .expect("a segment starts in the kernel frame");
        let (owned, fresh) = (&kernel.owned, &fresh[..]);
        let id = |id| concrete(id, owned, fresh);
        for &obj in fresh {
            for cell in memory.object_mut(obj)?.cells.iter_mut() {
                if let Cell::Ptr(p) = cell {
                    p.obj = id(p.obj);
                }
            }
        }
        for (index, cells) in self.writes.iter() {
            let object = memory.object_mut(owned[*index as usize])?;
            for (cell, recorded) in object.cells.iter_mut().zip(cells.iter()) {
                *cell = map_cell(recorded, id);
            }
        }
        item.values
            .extend(self.values.iter().map(|value| map_value(value, id)));
        item.places.extend(self.places.iter().map(|place| Place {
            obj: id(place.obj),
            ..place.clone()
        }));
        for recorded in self.frames.iter() {
            let mut frame = item.frame_pool.pop().unwrap_or_else(Frame::empty);
            frame.copy_mapped(recorded, id);
            item.frames.push(frame);
        }
        for &(slot, obj) in self.slots.iter() {
            kernel.slots[slot as usize] = obj.map(id);
        }
        for &(reg, bits) in self.regs.iter() {
            kernel.regs[reg as usize] = bits;
        }
        for obj in kernel.owned.drain(self.floor..) {
            memory.free(obj);
        }
        kernel
            .owned
            .extend(self.owned_after.iter().map(|&id| concrete(id, &[], fresh)));
        kernel.scope_bases.clear();
        kernel
            .scope_bases
            .extend_from_slice(&self.scope_bases_after);
        kernel.pc = self.pc;
        item.frames.insert(0, kernel);
        item.steps += self.steps;
        item.soft_barriers += self.soft_barriers;
        item.memoized_steps += self.memoized;
        item.replayed_steps += self.steps;
        Ok(())
    }
}

/// `item` is at a kernel-frame statement boundary, before `instr`, seeking
/// a segment or running one at a boundary where segments were recorded:
/// replays a recorded segment whose reads match (returning true), or
/// starts recording, or runs on.
fn start_segment(
    world: &mut World<'_>,
    item: &mut VmItem,
    instr: &Instr,
) -> Result<bool, RuntimeError> {
    if lane_dependent(world, item, 0, instr) {
        // An empty segment: nothing to record or replay.
        item.phase = Phase::Seek;
        return Ok(false);
    }
    let pc = item.frames[0].pc;
    let SegmentMemo {
        at,
        starts,
        first_steps,
        pending,
        fresh,
    } = &mut *world.segments;
    if at.is_empty() {
        at.resize(world.compiled.funcs[KERNEL_FUNC].code.len(), 0);
    }
    if at[pc] == 0 {
        starts.push(Start::default());
        at[pc] = starts.len() as u32;
    }
    let start = &mut starts[at[pc] as usize - 1];
    if let Some(segment) = start
        .segments
        .iter()
        .find(|s| s.matches(item, world.memory))
    {
        if item.steps + segment.steps > world.step_limit {
            // Running it would stop the work-item inside it.
            item.phase = Phase::Run;
            return Ok(false);
        }
        if pc == 0 && item.steps == 0 {
            first_steps.get_or_insert(segment.steps);
        }
        segment.replay(item, world.memory, fresh)?;
        item.phase = Phase::Seek;
        return Ok(true);
    }
    if start.recordings < RECORDED_SEGMENTS && world.memory.begin_tracking() {
        start.recordings += 1;
        pending.begin(item, pc);
        item.phase = Phase::Record;
    } else {
        item.phase = Phase::Run;
    }
    Ok(false)
}

/// Whether executing `instr` next could depend on which work-item runs it,
/// which ends a segment: a work-item or group identity query, any access
/// to memory outside the private space (a pointer-based access has its
/// target on the place stack by the time it loads or stores), a `local`
/// declaration or group-local place, a kernel-body barrier, or the
/// kernel's return.  Constant memory counts too: nothing in the emulator
/// stops a kernel from writing it, and a segment must not read a value
/// another work-item had yet to write.  An access whose target cannot be
/// resolved is not lane-dependent: it raises the same error on every
/// work-item.
fn lane_dependent(world: &World<'_>, item: &VmItem, frame_idx: usize, instr: &Instr) -> bool {
    let memory: &Memory = world.memory;
    let outside_private = |space: AddressSpace| space != AddressSpace::Private;
    let slot_obj = |slot: u16| item.frames[frame_idx].slots[slot as usize];
    match instr {
        Instr::Id(kind) => kind.is_identity_dependent(),
        // A slot bound to a `local` declaration or the permutation table
        // names an object outside private memory, and a `local` one is a
        // different object in every group.
        Instr::LoadSlot(slot) | Instr::PlaceSlot(slot) => slot_obj(*slot)
            .and_then(|obj| memory.object(obj).ok())
            .is_some_and(|object| outside_private(object.space)),
        Instr::LoadScalarSlot { shared, .. } | Instr::StoreScalarSlot { shared, .. } => *shared,
        Instr::LoadPlace
        | Instr::Store { .. }
        | Instr::StoreLanes { .. }
        | Instr::ResolveIndexable => item
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

/// The bits `write_value` stores for `value` into a `ty` location: the
/// value converted to `ty`, the pointer-to-integer zero token, or the
/// identical `TypeMismatch` for anything else.
fn scalar_store_bits(ty: ScalarType, value: &Value) -> Result<u64, RuntimeError> {
    match value {
        Value::Scalar(v) => Ok(v.convert(ty).bits),
        Value::Pointer(_) => Ok(Scalar::zero(ty).bits),
        other => Err(RuntimeError::TypeMismatch {
            detail: format!("cannot store {} into {:?}", other.kind(), Type::Scalar(ty)),
        }),
    }
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
