//! NDRange execution: the resumable kernel-body machine, the per-group
//! cooperative scheduler, and the launch entry point.
//!
//! Work-groups execute one after another (OpenCL 1.x provides no inter-group
//! synchronisation, §3.1/§4.2 of the paper, so this is semantics-preserving
//! for well-defined kernels).  Within a group, work-items are interpreted
//! cooperatively: each runs until it finishes or reaches a kernel-body
//! `barrier()`, at which point the scheduler switches to the next work-item.
//! When every live work-item waits at the same barrier the group is released
//! into the next *barrier interval*; arriving at different barriers (or
//! finishing while others wait) is reported as barrier divergence.
//!
//! On the bytecode tier, [`launch`] first runs the launch's lane-independent
//! prefix once, on a representative work-item
//! (`vm::run_representative`), and each group's work-items are forked from
//! it before the scheduler takes over; an error in the prefix is the
//! launch's error.  The tree walker runs every work-item from the kernel
//! entry and stays the per-item reference.

use crate::error::{RaceReport, RuntimeError};
use crate::eval::{
    declare_var, emi_guard_is_true, eval_expr, exec_stmt, Ctx, Env, Flow, ThreadIds,
};
use crate::memory::Memory;
use crate::race::{RaceDetector, RaceStats};
use crate::value::{Cell, ObjId, PointerValue, Scalar};
use clc::stmt::{Block, Stmt};
use clc::types::{AddressSpace, ScalarType, Type};
use clc::Program;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Order in which ready work-items of a group are scheduled in each barrier
/// interval.  Varying the schedule is how the harness checks that kernels
/// are schedule-deterministic and how it exposes the data races the paper
/// found in Parboil `spmv` and Rodinia `myocyte`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// Ascending local id (the natural order).
    #[default]
    Forward,
    /// Descending local id.
    Reverse,
    /// Deterministic pseudo-random permutation derived from the seed and the
    /// barrier interval.
    Shuffled(u64),
}

/// Which execution engine runs the kernel.
///
/// Both tiers share the same [`Memory`], race detector, barrier/scheduling
/// machinery and [`RuntimeError`] surface, and are required (and tested) to
/// agree bit-for-bit on results, errors and race verdicts.  The bytecode tier
/// lowers the kernel once ([`crate::compile()`]) and then executes a flat
/// instruction stream ([`crate::vm`]), which avoids the per-statement
/// name-lookup and AST-traversal costs of the tree walker.
///
/// The one intentionally tier-specific quantity is **step accounting**: the
/// tree walker counts evaluated AST nodes while the VM counts executed
/// instructions (typically fewer, since fused instructions cover several
/// nodes).  [`LaunchOptions::step_limit`] is enforced against each tier's
/// own count, so a kernel whose cost sits within a small factor of the
/// budget can time out on one tier but not the other; CLsmith-generated
/// kernels terminate far below the default budget, where the tiers agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionTier {
    /// The original recursive AST evaluator ([`crate::eval`]).
    TreeWalk,
    /// The compiled bytecode VM (the default).
    #[default]
    Bytecode,
}

impl ExecutionTier {
    /// All tiers, for benchmarks and equivalence tests.
    pub const ALL: [ExecutionTier; 2] = [ExecutionTier::TreeWalk, ExecutionTier::Bytecode];

    /// A short name for table axes and logs.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionTier::TreeWalk => "tree-walk",
            ExecutionTier::Bytecode => "bytecode",
        }
    }

    /// The tier selected by the `CLC_INTERP_TIER` environment variable
    /// (`tree` / `treewalk` / `tree-walk` select the tree walker, anything
    /// else — including unset — selects the bytecode tier).  The variable is
    /// read once per process.
    pub fn from_env() -> ExecutionTier {
        static TIER: std::sync::OnceLock<ExecutionTier> = std::sync::OnceLock::new();
        *TIER.get_or_init(|| match std::env::var("CLC_INTERP_TIER").as_deref() {
            Ok("tree") | Ok("treewalk") | Ok("tree-walk") | Ok("tree_walk") => {
                ExecutionTier::TreeWalk
            }
            _ => ExecutionTier::Bytecode,
        })
    }
}

/// Options controlling a kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchOptions {
    /// Per-work-item step budget; exceeding it reports a timeout.
    pub step_limit: u64,
    /// Whether to run the data-race detector (slower; used for benchmark
    /// EMI testing and for the reducer's validity checks).
    pub detect_races: bool,
    /// Work-item scheduling order.
    pub schedule: Schedule,
    /// Replaces the initial contents of named buffers (used to invert the
    /// EMI `dead` array, §7.4).  Behind an [`Arc`] so that per-target
    /// [`LaunchOptions`] can be derived from shared execution options
    /// without cloning the override data; use [`Arc::make_mut`] to edit.
    pub buffer_overrides: Arc<HashMap<String, Vec<i64>>>,
    /// Values for scalar (non-pointer) kernel parameters.
    pub scalar_args: HashMap<String, i64>,
    /// Which execution engine to use (defaults to the bytecode tier, with a
    /// `CLC_INTERP_TIER` environment override).
    pub tier: ExecutionTier,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            step_limit: 2_000_000,
            detect_races: false,
            schedule: Schedule::Forward,
            buffer_overrides: Arc::new(HashMap::new()),
            scalar_args: HashMap::new(),
            tier: ExecutionTier::from_env(),
        }
    }
}

/// The observable outcome of a successful kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchResult {
    /// Final contents of the result buffer (CLsmith's `out` array), if the
    /// program declares one.
    pub output: Vec<Scalar>,
    /// The comma-separated result string a CLsmith host program would print.
    pub result_string: String,
    /// FNV-1a hash of the result string (cheap comparison key).
    pub result_hash: u64,
    /// First data race detected, if race detection was enabled.
    pub race: Option<RaceReport>,
    /// Total interpreter steps across all work-items.  On the bytecode tier
    /// each work-item is charged the steps of the prefix its representative
    /// ran for it (see `uniform_prefix_steps`), so the total is what running
    /// every work-item from the kernel entry would count.
    pub total_steps: u64,
    /// Number of barriers executed inside helper functions (not
    /// synchronising; see `clc-interp`'s crate documentation).
    pub soft_barriers: u64,
    /// Race-detector counters for this launch; `None` when race detection
    /// was disabled.  Diagnostic only: excluded from the tier-equivalence
    /// contract and from memoised outcomes.
    pub race_stats: Option<RaceStats>,
    /// Objects allocated in the launch's memory (buffers, parameters and
    /// every variable declaration that needed backing storage).  Diagnostic
    /// and tier-specific: the bytecode tier's register file keeps scalar
    /// temporaries out of the object table entirely, and its work-items
    /// copy the representative's live private objects at the fork instead
    /// of declaring them again.
    pub objects_allocated: u64,
    /// Maximum number of barriers any work-group released — how deep the
    /// barrier-arrival ladder ran.  Tier-identical (both tiers share the
    /// cooperative scheduler) and schedule-independent for race-free
    /// kernels, so coverage feedback may fold it into its dynamic bits.
    /// Excluded from memoised outcomes, like `race_stats`.
    pub barrier_intervals: u64,
    /// Steps of the launch's lane-independent prefix, which the bytecode
    /// tier runs once on a representative work-item instead of once per
    /// work-item (each work-item's count in `total_steps` still includes
    /// them).  Diagnostic and tier-specific, like `objects_allocated`: 0 on
    /// the tree walker.
    pub uniform_prefix_steps: u64,
}

thread_local! {
    /// Per-thread spare race detector, reused across launches so the shadow
    /// arrays grown by earlier kernels are recycled instead of reallocated —
    /// the detector analogue of `Memory::spare_cells`.  Reuse is sound
    /// because [`RaceDetector::reset`] bumps every shadow's era, which makes
    /// all retained cell logs logically empty in O(#objects).
    static SPARE_DETECTOR: RefCell<Option<RaceDetector>> = const { RefCell::new(None) };
}

/// Executes a program over its NDRange.
///
/// # Errors
///
/// Returns a [`RuntimeError`] for undefined behaviour (barrier divergence,
/// uninitialised reads, raw division by zero, ...), for step-budget
/// exhaustion (timeouts), and for malformed programs (unknown variables,
/// missing buffers).  Data races are reported in the result rather than as
/// errors so that the harness can distinguish them from crashes.
pub fn launch(program: &Program, options: &LaunchOptions) -> Result<LaunchResult, RuntimeError> {
    match options.tier {
        ExecutionTier::Bytecode => {
            launch_with(program, Some(&crate::compile::compile(program)), options)
        }
        ExecutionTier::TreeWalk => launch_with(program, None, options),
    }
}

/// A kernel prepared for repeated launching: the program plus its lazily
/// lowered bytecode module.
///
/// The historical entry point [`launch`] re-lowers the program to bytecode
/// on every call; `CompiledKernel` splits that into an explicit
/// compile-once / launch-many shape, so a differential harness that runs
/// one compiled program under many launch options (schedules, buffer
/// overrides, race detection on and off) pays the lowering exactly once.
/// Lowering happens on the first bytecode-tier launch, so a kernel that is
/// only ever tree-walked never pays it at all.
///
/// Launches are pure: for fixed options, [`CompiledKernel::launch`] returns
/// the same result every time (the emulator is deterministic), which is what
/// makes outcome memoisation above this layer sound.
#[derive(Debug)]
pub struct CompiledKernel {
    program: Program,
    bytecode: OnceLock<crate::compile::CompiledProgram>,
}

impl CompiledKernel {
    /// Takes ownership of a program and prepares it for repeated launching.
    pub fn compile(program: Program) -> CompiledKernel {
        CompiledKernel {
            program,
            bytecode: OnceLock::new(),
        }
    }

    /// The program this kernel was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Executes the kernel over its NDRange, reusing the lowered bytecode
    /// across calls.
    ///
    /// # Errors
    ///
    /// See [`launch`].
    pub fn launch(&self, options: &LaunchOptions) -> Result<LaunchResult, RuntimeError> {
        let compiled = match options.tier {
            ExecutionTier::Bytecode => Some(
                self.bytecode
                    .get_or_init(|| crate::compile::compile(&self.program)),
            ),
            ExecutionTier::TreeWalk => None,
        };
        launch_with(&self.program, compiled, options)
    }
}

/// The shared launch body: executes `program` with an optional pre-lowered
/// bytecode module (present exactly when the tier is
/// [`ExecutionTier::Bytecode`]).
fn launch_with(
    program: &Program,
    compiled: Option<&crate::compile::CompiledProgram>,
    options: &LaunchOptions,
) -> Result<LaunchResult, RuntimeError> {
    program
        .launch
        .validate()
        .map_err(|detail| RuntimeError::InvalidAccess { detail })?;
    let mut memory = Memory::new();
    let mut races = if options.detect_races {
        let mut detector = SPARE_DETECTOR
            .with(|spare| spare.borrow_mut().take())
            .unwrap_or_default();
        detector.reset();
        Some(detector)
    } else {
        None
    };

    // Allocate buffer objects for pointer parameters.
    let mut buffer_objects: HashMap<String, (ObjId, ScalarType, usize)> = HashMap::new();
    for spec in &program.buffers {
        let data = match options.buffer_overrides.get(&spec.param) {
            Some(d) => {
                let mut v = d.clone();
                v.resize(spec.len, 0);
                v
            }
            None => spec.init.materialize(spec.len),
        };
        let cells: Vec<Cell> = data
            .iter()
            .map(|&v| Cell::Bits(Scalar::from_i128(v as i128, spec.elem).bits))
            .collect();
        let ty = Type::Scalar(spec.elem).array_of(spec.len);
        let obj = memory.alloc_with_cells(
            format!("buf_{}", spec.param),
            ty,
            AddressSpace::Global,
            cells,
        );
        if let Some(r) = races.as_mut() {
            r.name_object(obj, &spec.param);
        }
        buffer_objects.insert(spec.param.clone(), (obj, spec.elem, spec.len));
    }

    // The BARRIER-mode permutation table lives in constant memory.
    let permutations_obj = if program.permutations.is_empty() {
        None
    } else {
        let rows = program.permutations.len();
        let cols = program.permutations[0].len();
        let mut cells = Vec::with_capacity(rows * cols);
        for row in &program.permutations {
            for &v in row {
                cells.push(Cell::Bits(u64::from(v)));
            }
        }
        let ty = Type::Scalar(ScalarType::UInt).array_of(cols).array_of(rows);
        Some(memory.alloc_with_cells("permutations", ty, AddressSpace::Constant, cells))
    };

    let launch_cfg = &program.launch;
    let groups = launch_cfg.groups();
    let mut total_steps = 0u64;
    let mut soft_barriers = 0u64;
    let mut barrier_intervals = 0u64;
    let mut uniform_prefix_steps = 0u64;

    // Run the group loop and result readback inside a closure so that the
    // detector is harvested and returned to the spare slot on the error
    // paths too, not just on success.
    let run = (|| -> Result<(Vec<Scalar>, String), RuntimeError> {
        // The bytecode tier runs the launch's lane-independent prefix once,
        // on a representative work-item that every group then forks from.
        let bytecode = match compiled {
            Some(compiled) => {
                let representative = crate::vm::run_representative(
                    program,
                    compiled,
                    options,
                    &mut memory,
                    &mut races,
                    &buffer_objects,
                    permutations_obj,
                )?;
                uniform_prefix_steps = representative.steps();
                Some((compiled, representative))
            }
            None => None,
        };
        for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    let group = [gx, gy, gz];
                    match &bytecode {
                        Some((compiled, representative)) => crate::vm::run_group(
                            program,
                            compiled,
                            options,
                            &mut memory,
                            &mut races,
                            representative,
                            group,
                            &mut total_steps,
                            &mut soft_barriers,
                            &mut barrier_intervals,
                        )?,
                        None => run_group(
                            program,
                            options,
                            &mut memory,
                            &mut races,
                            &buffer_objects,
                            permutations_obj,
                            group,
                            &mut total_steps,
                            &mut soft_barriers,
                            &mut barrier_intervals,
                        )?,
                    }
                }
            }
        }

        // Read back the result buffer.
        match program.result_param() {
            Some(name) => {
                let (obj, elem, len) = buffer_objects.get(name).copied().ok_or_else(|| {
                    RuntimeError::InvalidAccess {
                        detail: format!("result parameter `{name}` has no buffer"),
                    }
                })?;
                let mut values = Vec::with_capacity(len);
                for i in 0..len {
                    values.push(memory.read_scalar(obj, i, elem)?);
                }
                let rendered: Vec<String> = values.iter().map(|s| s.render()).collect();
                Ok((values, rendered.join(",")))
            }
            None => Ok((Vec::new(), String::new())),
        }
    })();

    let race = races.as_ref().and_then(|r| r.race().cloned());
    let race_stats = races.as_ref().map(|r| r.stats());
    if let Some(detector) = races.take() {
        SPARE_DETECTOR.with(|spare| *spare.borrow_mut() = Some(detector));
    }
    let (output, result_string) = run?;
    let result_hash = clc::fnv1a(result_string.as_bytes());
    Ok(LaunchResult {
        output,
        result_string,
        result_hash,
        race,
        total_steps,
        soft_barriers,
        race_stats,
        objects_allocated: memory.allocations(),
        barrier_intervals,
        uniform_prefix_steps,
    })
}

/// Execution status of one work-item.  Shared by both execution tiers; the
/// barrier `site` identifies the syntactic barrier a work-item waits at
/// (block address + statement index for the tree walker, instruction address
/// for the bytecode VM) so that barrier divergence is detected identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Status {
    Ready,
    AtBarrier { site: (usize, usize) },
    Done,
    Failed(RuntimeError),
}

/// A work-item that can be cooperatively scheduled by [`drive_group`].
///
/// Implemented by both tiers' work-item states, so the barrier-interval /
/// divergence machinery is written exactly once.
pub(crate) trait CoopItem {
    /// Current status.
    fn status(&self) -> &Status;
    /// Releases the item from a barrier: the barrier interval advances and
    /// the item becomes ready again.
    fn release_barrier(&mut self);
}

/// The per-group cooperative scheduler shared by both execution tiers: runs
/// ready work-items in schedule order until all finish, detecting barrier
/// divergence and propagating the first failure.
///
/// Returns the number of barriers the group released — i.e. how many
/// barrier intervals beyond the first the group advanced through.  Both
/// tiers walk the same statements through the same scheduler, so the count
/// is tier-identical.
pub(crate) fn drive_group<T: CoopItem>(
    items: &mut [T],
    schedule: Schedule,
    group_linear: usize,
    mut run: impl FnMut(&mut T),
) -> Result<u64, RuntimeError> {
    let n = items.len();
    let mut round = 0u64;
    loop {
        let order = schedule_order(schedule, n, round);
        for &i in &order {
            if *items[i].status() == Status::Ready {
                run(&mut items[i]);
            }
        }
        // Classify.
        let mut any_failed: Option<RuntimeError> = None;
        let mut done = 0usize;
        let mut waiting: Vec<usize> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item.status() {
                Status::Done => done += 1,
                Status::AtBarrier { .. } => waiting.push(i),
                Status::Failed(e) => {
                    if any_failed.is_none() {
                        any_failed = Some(e.clone());
                    }
                }
                Status::Ready => {}
            }
        }
        if let Some(e) = any_failed {
            return Err(e);
        }
        if done == n {
            return Ok(round);
        }
        if waiting.is_empty() {
            // All remaining are Ready (should not happen: `run` always leaves
            // a non-Ready status) — guard against livelock.
            return Err(RuntimeError::Unsupported(
                "scheduler made no progress".into(),
            ));
        }
        if done > 0 {
            return Err(RuntimeError::BarrierDivergence {
                group: group_linear,
            });
        }
        // All work-items must be waiting at the same barrier site.
        let first_site = match items[waiting[0]].status() {
            Status::AtBarrier { site } => *site,
            _ => unreachable!(),
        };
        for &i in &waiting[1..] {
            match items[i].status() {
                Status::AtBarrier { site } if *site == first_site => {}
                _ => {
                    return Err(RuntimeError::BarrierDivergence {
                        group: group_linear,
                    })
                }
            }
        }
        // Release the barrier.
        for item in items.iter_mut() {
            item.release_barrier();
        }
        round += 1;
    }
}

/// Allocates the per-work-item object backing one kernel parameter: a
/// pointer cell aimed at the parameter's buffer, or a scalar cell fed from
/// `scalar_args`.  Shared by both execution tiers.
pub(crate) fn alloc_param_object(
    memory: &mut Memory,
    buffer_objects: &HashMap<String, (ObjId, ScalarType, usize)>,
    options: &LaunchOptions,
    param: &clc::Param,
) -> Result<ObjId, RuntimeError> {
    match &param.ty {
        Type::Pointer(inner, space) => {
            let (buf, _, _) = buffer_objects.get(&param.name).copied().ok_or_else(|| {
                RuntimeError::InvalidAccess {
                    detail: format!(
                        "kernel parameter `{}` has no buffer specification",
                        param.name
                    ),
                }
            })?;
            Ok(memory.alloc_with_cells(
                param.name.clone(),
                param.ty.clone(),
                AddressSpace::Private,
                vec![Cell::Ptr(PointerValue {
                    obj: buf,
                    offset: 0,
                    pointee: (**inner).clone(),
                    space: *space,
                })],
            ))
        }
        other => {
            let value = options.scalar_args.get(&param.name).copied().unwrap_or(0);
            let elem = other.scalar_elem().unwrap_or(ScalarType::Int);
            Ok(memory.alloc_with_cells(
                param.name.clone(),
                param.ty.clone(),
                AddressSpace::Private,
                vec![Cell::Bits(Scalar::from_i128(value as i128, elem).bits)],
            ))
        }
    }
}

/// Builds the [`ThreadIds`] for the work-item at local coordinates
/// `(lx, ly, lz)` of `group`.  Shared by both execution tiers.
pub(crate) fn thread_ids(
    cfg: &clc::LaunchConfig,
    group: [usize; 3],
    local_coord: [usize; 3],
) -> ThreadIds {
    let local = cfg.local;
    ThreadIds {
        global: [
            group[0] * local[0] + local_coord[0],
            group[1] * local[1] + local_coord[1],
            group[2] * local[2] + local_coord[2],
        ],
        local: local_coord,
        group,
        global_size: cfg.global,
        local_size: local,
        num_groups: cfg.groups(),
        interval: 0,
    }
}

#[derive(Debug)]
enum FrameKind<'p> {
    Seq,
    Loop { stmt: &'p Stmt },
}

#[derive(Debug)]
struct Frame<'p> {
    block: &'p Block,
    idx: usize,
    kind: FrameKind<'p>,
    scope_depth: usize,
}

struct WorkItem<'p> {
    ids: ThreadIds,
    env: Env,
    frames: Vec<Frame<'p>>,
    status: Status,
    steps: u64,
    soft_barriers: u64,
}

impl CoopItem for WorkItem<'_> {
    fn status(&self) -> &Status {
        &self.status
    }

    fn release_barrier(&mut self) {
        self.ids.interval += 1;
        self.status = Status::Ready;
    }
}

#[allow(clippy::too_many_arguments)]
fn run_group<'p>(
    program: &'p Program,
    options: &LaunchOptions,
    memory: &mut Memory,
    races: &mut Option<RaceDetector>,
    buffer_objects: &HashMap<String, (ObjId, ScalarType, usize)>,
    permutations_obj: Option<ObjId>,
    group: [usize; 3],
    total_steps: &mut u64,
    soft_barriers: &mut u64,
    barrier_intervals: &mut u64,
) -> Result<(), RuntimeError> {
    let cfg = &program.launch;
    let num_groups = cfg.groups();
    let local = cfg.local;
    let mut group_locals: HashMap<String, ObjId> = HashMap::new();

    // Create the work-items of this group.
    let mut items: Vec<WorkItem<'p>> = Vec::with_capacity(cfg.group_size());
    for lz in 0..local[2] {
        for ly in 0..local[1] {
            for lx in 0..local[0] {
                let ids = thread_ids(cfg, group, [lx, ly, lz]);
                let mut env = Env::new();
                if let Some(perm) = permutations_obj {
                    env.bind("permutations", perm);
                }
                // Bind kernel parameters.
                for param in &program.kernel.params {
                    let obj = alloc_param_object(memory, buffer_objects, options, param)?;
                    env.bind_owned(param.name.clone(), obj);
                }
                let scope_depth = env.depth();
                items.push(WorkItem {
                    ids,
                    env,
                    frames: vec![Frame {
                        block: &program.kernel.body,
                        idx: 0,
                        kind: FrameKind::Seq,
                        scope_depth,
                    }],
                    status: Status::Ready,
                    steps: 0,
                    soft_barriers: 0,
                });
            }
        }
    }

    let released = drive_group(
        &mut items,
        options.schedule,
        group_linear(group, num_groups),
        |item| run_item(program, options, memory, races, &mut group_locals, item),
    )?;
    *barrier_intervals = (*barrier_intervals).max(released);

    for item in &mut items {
        *total_steps += item.steps;
        *soft_barriers += item.soft_barriers;
        item.env.pop_to_depth(0, memory);
    }
    // The group is over: no later access can race with this group's local
    // objects, so drop their logs with an O(1) era bump per shadow.
    if let Some(r) = races.as_mut() {
        let locals: Vec<ObjId> = group_locals.values().copied().collect();
        r.clear_group_local(&locals);
    }
    Ok(())
}

pub(crate) fn group_linear(group: [usize; 3], num_groups: [usize; 3]) -> usize {
    (group[2] * num_groups[1] + group[1]) * num_groups[0] + group[0]
}

fn schedule_order(schedule: Schedule, n: usize, round: u64) -> Vec<usize> {
    match schedule {
        Schedule::Forward => (0..n).collect(),
        Schedule::Reverse => (0..n).rev().collect(),
        Schedule::Shuffled(seed) => {
            let mut order: Vec<usize> = (0..n).collect();
            let mut state =
                seed ^ (round.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ 0x2545_f491_4f6c_dd1d;
            for i in (1..n).rev() {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
                let j = (r % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            order
        }
    }
}

/// Runs a single work-item until it blocks at a barrier, finishes or fails.
fn run_item<'p>(
    program: &'p Program,
    options: &LaunchOptions,
    memory: &mut Memory,
    races: &mut Option<RaceDetector>,
    group_locals: &mut HashMap<String, ObjId>,
    item: &mut WorkItem<'p>,
) {
    loop {
        match step_item(program, options, memory, races, group_locals, item) {
            Ok(true) => continue,
            Ok(false) => return,
            Err(e) => {
                item.status = Status::Failed(e);
                return;
            }
        }
    }
}

/// Executes one machine step.  Returns `Ok(true)` when the work-item can
/// continue immediately, `Ok(false)` when it is now blocked or finished.
fn step_item<'p>(
    program: &'p Program,
    options: &LaunchOptions,
    memory: &mut Memory,
    races: &mut Option<RaceDetector>,
    group_locals: &mut HashMap<String, ObjId>,
    item: &mut WorkItem<'p>,
) -> Result<bool, RuntimeError> {
    let Some(frame) = item.frames.last_mut() else {
        item.status = Status::Done;
        return Ok(false);
    };
    // Frame epilogue: the block is exhausted.
    if frame.idx >= frame.block.stmts.len() {
        let kind_is_loop = matches!(frame.kind, FrameKind::Loop { .. });
        if kind_is_loop {
            let FrameKind::Loop { stmt } = frame.kind else {
                unreachable!()
            };
            let mut ctx = make_ctx(
                program,
                options,
                memory,
                races,
                group_locals,
                item.ids,
                &mut item.steps,
                &mut item.soft_barriers,
            );
            match stmt {
                Stmt::For { cond, update, .. } => {
                    if let Some(u) = update {
                        eval_expr(&mut ctx, &mut item.env, u)?;
                    }
                    let again = match cond {
                        Some(c) => eval_expr(&mut ctx, &mut item.env, c)?
                            .is_true()
                            .unwrap_or(false),
                        None => true,
                    };
                    finish_or_repeat(item, memory, again);
                }
                Stmt::While { cond, .. } => {
                    let again = eval_expr(&mut ctx, &mut item.env, cond)?
                        .is_true()
                        .unwrap_or(false);
                    finish_or_repeat(item, memory, again);
                }
                _ => unreachable!("loop frame over non-loop statement"),
            }
        } else {
            let depth = frame.scope_depth;
            item.frames.pop();
            item.env.pop_to_depth(depth, memory);
        }
        if item.frames.is_empty() {
            item.status = Status::Done;
            return Ok(false);
        }
        return Ok(true);
    }

    let stmt = &frame.block.stmts[frame.idx];
    let site = (frame.block as *const Block as usize, frame.idx);
    frame.idx += 1;

    // A kernel-body barrier suspends the work-item.
    if let Stmt::Barrier(_) = stmt {
        item.steps += 1;
        item.status = Status::AtBarrier { site };
        return Ok(false);
    }

    if !stmt.contains_barrier() {
        // Atomic execution of the whole statement.
        let mut ctx = make_ctx(
            program,
            options,
            memory,
            races,
            group_locals,
            item.ids,
            &mut item.steps,
            &mut item.soft_barriers,
        );
        let flow = exec_stmt(&mut ctx, &mut item.env, stmt)?;
        return handle_flow(item, memory, flow);
    }

    // Compound statement containing a barrier: open it up so the barrier
    // becomes visible to the machine.
    match stmt {
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => {
            let mut ctx = make_ctx(
                program,
                options,
                memory,
                races,
                group_locals,
                item.ids,
                &mut item.steps,
                &mut item.soft_barriers,
            );
            let taken = eval_expr(&mut ctx, &mut item.env, cond)?
                .is_true()
                .unwrap_or(false);
            let block = if taken {
                Some(then_block)
            } else {
                else_block.as_ref()
            };
            if let Some(block) = block {
                push_seq_frame(item, block);
            }
            Ok(true)
        }
        Stmt::Block(b) => {
            push_seq_frame(item, b);
            Ok(true)
        }
        Stmt::Emi(emi) => {
            let mut ctx = make_ctx(
                program,
                options,
                memory,
                races,
                group_locals,
                item.ids,
                &mut item.steps,
                &mut item.soft_barriers,
            );
            let live = emi_guard_is_true(&mut ctx, &mut item.env, emi)?;
            if live {
                push_seq_frame(item, &emi.body);
            }
            Ok(true)
        }
        Stmt::For {
            init, cond, body, ..
        } => {
            let scope_depth = item.env.depth();
            item.env.push_scope();
            let mut ctx = make_ctx(
                program,
                options,
                memory,
                races,
                group_locals,
                item.ids,
                &mut item.steps,
                &mut item.soft_barriers,
            );
            if let Some(init) = init {
                if let Stmt::Decl { .. } = init.as_ref() {
                    declare_var(&mut ctx, &mut item.env, init)?;
                } else {
                    exec_stmt(&mut ctx, &mut item.env, init)?;
                }
            }
            let enter = match cond {
                Some(c) => eval_expr(&mut ctx, &mut item.env, c)?
                    .is_true()
                    .unwrap_or(false),
                None => true,
            };
            if enter {
                item.frames.push(Frame {
                    block: body,
                    idx: 0,
                    kind: FrameKind::Loop { stmt },
                    scope_depth,
                });
            } else {
                item.env.pop_to_depth(scope_depth, memory);
            }
            Ok(true)
        }
        Stmt::While { cond, body } => {
            let scope_depth = item.env.depth();
            item.env.push_scope();
            let mut ctx = make_ctx(
                program,
                options,
                memory,
                races,
                group_locals,
                item.ids,
                &mut item.steps,
                &mut item.soft_barriers,
            );
            let enter = eval_expr(&mut ctx, &mut item.env, cond)?
                .is_true()
                .unwrap_or(false);
            if enter {
                item.frames.push(Frame {
                    block: body,
                    idx: 0,
                    kind: FrameKind::Loop { stmt },
                    scope_depth,
                });
            } else {
                item.env.pop_to_depth(scope_depth, memory);
            }
            Ok(true)
        }
        // Decl / Expr / Return / Break / Continue never contain barriers.
        _ => {
            let mut ctx = make_ctx(
                program,
                options,
                memory,
                races,
                group_locals,
                item.ids,
                &mut item.steps,
                &mut item.soft_barriers,
            );
            let flow = exec_stmt(&mut ctx, &mut item.env, stmt)?;
            handle_flow(item, memory, flow)
        }
    }
}

fn push_seq_frame<'p>(item: &mut WorkItem<'p>, block: &'p Block) {
    let scope_depth = item.env.depth();
    item.env.push_scope();
    item.frames.push(Frame {
        block,
        idx: 0,
        kind: FrameKind::Seq,
        scope_depth,
    });
}

fn finish_or_repeat(item: &mut WorkItem<'_>, memory: &mut Memory, again: bool) {
    if again {
        if let Some(frame) = item.frames.last_mut() {
            frame.idx = 0;
        }
    } else {
        let depth = item.frames.last().map(|f| f.scope_depth).unwrap_or(0);
        item.frames.pop();
        item.env.pop_to_depth(depth, memory);
    }
}

fn handle_flow(
    item: &mut WorkItem<'_>,
    memory: &mut Memory,
    flow: Flow,
) -> Result<bool, RuntimeError> {
    match flow {
        Flow::Normal => Ok(true),
        Flow::Return(_) => {
            while let Some(frame) = item.frames.pop() {
                item.env.pop_to_depth(frame.scope_depth, memory);
            }
            item.status = Status::Done;
            Ok(false)
        }
        Flow::Break => {
            loop {
                match item.frames.last() {
                    Some(frame) => {
                        let is_loop = matches!(frame.kind, FrameKind::Loop { .. });
                        let depth = frame.scope_depth;
                        item.frames.pop();
                        item.env.pop_to_depth(depth, memory);
                        if is_loop {
                            break;
                        }
                    }
                    None => {
                        return Err(RuntimeError::Unsupported(
                            "break outside of a loop in kernel body".into(),
                        ))
                    }
                }
            }
            Ok(true)
        }
        Flow::Continue => {
            // Unwind nested Seq frames to the enclosing loop frame, then jump
            // to its epilogue.
            loop {
                match item.frames.last_mut() {
                    Some(frame) => {
                        if matches!(frame.kind, FrameKind::Loop { .. }) {
                            frame.idx = frame.block.stmts.len();
                            break;
                        }
                        let depth = frame.scope_depth;
                        item.frames.pop();
                        item.env.pop_to_depth(depth, memory);
                    }
                    None => {
                        return Err(RuntimeError::Unsupported(
                            "continue outside of a loop in kernel body".into(),
                        ))
                    }
                }
            }
            Ok(true)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn make_ctx<'a, 'p>(
    program: &'p Program,
    options: &LaunchOptions,
    memory: &'a mut Memory,
    races: &'a mut Option<RaceDetector>,
    group_locals: &'a mut HashMap<String, ObjId>,
    ids: ThreadIds,
    steps: &'a mut u64,
    soft_barriers: &'a mut u64,
) -> Ctx<'a, 'p> {
    Ctx {
        program,
        memory,
        races: races.as_mut(),
        group_locals,
        ids,
        steps,
        step_limit: options.step_limit,
        call_depth: 0,
        soft_barriers,
    }
}

/// Convenience: launches with default options.
///
/// # Errors
///
/// See [`launch`].
pub fn run(program: &Program) -> Result<LaunchResult, RuntimeError> {
    launch(program, &LaunchOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clc::expr::{AssignOp, BinOp, Builtin, Expr, IdKind};
    use clc::stmt::MemFence;
    use clc::{BufferInit, BufferSpec, KernelDef, LaunchConfig, Param};

    /// A kernel where each thread writes `base + t_linear` to `out`.
    fn simple_program(n: usize, base: i64) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(vec![Stmt::assign(
                    Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                    Expr::binary(
                        BinOp::Add,
                        Expr::int(base),
                        Expr::IdQuery(IdKind::GlobalLinearId),
                    ),
                )]),
            },
            LaunchConfig::single_group(n),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, n));
        p
    }

    #[test]
    fn embarrassingly_parallel_kernel_runs() {
        let p = simple_program(8, 100);
        let result = run(&p).unwrap();
        assert_eq!(result.output.len(), 8);
        assert_eq!(result.output[0].as_u64(), 100);
        assert_eq!(result.output[7].as_u64(), 107);
        assert_eq!(result.result_string, "100,101,102,103,104,105,106,107");
    }

    #[test]
    fn result_hash_is_stable_and_discriminating() {
        let a = run(&simple_program(4, 0)).unwrap();
        let b = run(&simple_program(4, 0)).unwrap();
        let c = run(&simple_program(4, 1)).unwrap();
        assert_eq!(a.result_hash, b.result_hash);
        assert_ne!(a.result_hash, c.result_hash);
    }

    #[test]
    fn multiple_groups_execute_independently() {
        let mut p = simple_program(8, 0);
        p.launch = LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap();
        let result = run(&p).unwrap();
        assert_eq!(
            result.output.iter().map(|s| s.as_u64()).collect::<Vec<_>>(),
            (0..8).collect::<Vec<u64>>()
        );
    }

    /// Barrier-based intra-group communication: thread l writes its id into
    /// a local array, everyone barriers, then thread l reads its neighbour's
    /// slot.  Deterministic because the write and read are separated by the
    /// barrier.
    fn barrier_program(n: usize) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(vec![
                    Stmt::Decl {
                        name: "A".into(),
                        ty: Type::Scalar(ScalarType::UInt).array_of(n),
                        space: AddressSpace::Local,
                        volatile: false,
                        init: None,
                        init_list: None,
                    },
                    Stmt::assign(
                        Expr::index(Expr::var("A"), Expr::IdQuery(IdKind::LocalLinearId)),
                        Expr::IdQuery(IdKind::LocalLinearId),
                    ),
                    Stmt::Barrier(MemFence::Local),
                    Stmt::assign(
                        Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                        Expr::index(
                            Expr::var("A"),
                            Expr::binary(
                                BinOp::Mod,
                                Expr::binary(
                                    BinOp::Add,
                                    Expr::IdQuery(IdKind::LocalLinearId),
                                    Expr::lit(1, ScalarType::UInt),
                                ),
                                Expr::lit(n as i128, ScalarType::UInt),
                            ),
                        ),
                    ),
                ]),
            },
            LaunchConfig::single_group(n),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, n));
        p
    }

    #[test]
    fn barrier_communication_is_deterministic_across_schedules() {
        let p = barrier_program(8);
        let forward = run(&p).unwrap();
        let reverse = launch(
            &p,
            &LaunchOptions {
                schedule: Schedule::Reverse,
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        let shuffled = launch(
            &p,
            &LaunchOptions {
                schedule: Schedule::Shuffled(42),
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(forward.result_string, "1,2,3,4,5,6,7,0");
        assert_eq!(forward.result_string, reverse.result_string);
        assert_eq!(forward.result_string, shuffled.result_string);
    }

    #[test]
    fn race_detector_flags_unsynchronised_sharing() {
        // Same as barrier_program but without the barrier: a read/write race.
        let mut p = barrier_program(4);
        p.kernel
            .body
            .stmts
            .retain(|s| !matches!(s, Stmt::Barrier(_)));
        let result = launch(
            &p,
            &LaunchOptions {
                detect_races: true,
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        assert!(result.race.is_some());
        // And the barrier version is race free.
        let clean = launch(
            &barrier_program(4),
            &LaunchOptions {
                detect_races: true,
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        assert!(clean.race.is_none());
    }

    #[test]
    fn barrier_divergence_is_detected() {
        // Thread 0 skips the barrier that everyone else executes.
        let n = 4;
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(vec![
                    Stmt::If {
                        cond: Expr::binary(
                            BinOp::Gt,
                            Expr::IdQuery(IdKind::LocalLinearId),
                            Expr::lit(0, ScalarType::UInt),
                        ),
                        then_block: Block::of(vec![Stmt::Barrier(MemFence::Local)]),
                        else_block: None,
                    },
                    Stmt::assign(
                        Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                        Expr::int(1),
                    ),
                ]),
            },
            LaunchConfig::single_group(n),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, n));
        let err = run(&p).unwrap_err();
        assert!(matches!(err, RuntimeError::BarrierDivergence { .. }));
    }

    #[test]
    fn atomic_reduction_is_schedule_independent() {
        // ATOMIC REDUCTION idiom from §4.2: every thread atomically adds its
        // contribution, thread 0 accumulates after a barrier.
        let n = 16;
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: vec![
                    Param::new(
                        "out",
                        Type::Scalar(ScalarType::ULong).pointer_to(AddressSpace::Global),
                    ),
                    Param::new(
                        "r",
                        Type::Scalar(ScalarType::UInt).pointer_to(AddressSpace::Global),
                    ),
                ],
                body: Block::of(vec![
                    Stmt::expr(Expr::builtin(
                        Builtin::AtomicAdd,
                        vec![Expr::var("r"), Expr::lit(3, ScalarType::UInt)],
                    )),
                    Stmt::Barrier(MemFence::Global),
                    Stmt::If {
                        cond: Expr::binary(
                            BinOp::Eq,
                            Expr::IdQuery(IdKind::LocalLinearId),
                            Expr::lit(0, ScalarType::UInt),
                        ),
                        then_block: Block::of(vec![Stmt::assign(
                            Expr::index(Expr::var("out"), Expr::lit(0, ScalarType::UInt)),
                            Expr::index(Expr::var("r"), Expr::lit(0, ScalarType::UInt)),
                        )]),
                        else_block: None,
                    },
                ]),
            },
            LaunchConfig::single_group(n),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 1));
        p.buffers
            .push(BufferSpec::new("r", ScalarType::UInt, 1, BufferInit::Zero));
        let forward = run(&p).unwrap();
        let shuffled = launch(
            &p,
            &LaunchOptions {
                schedule: Schedule::Shuffled(7),
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(forward.result_string, "48");
        assert_eq!(forward.result_string, shuffled.result_string);
    }

    #[test]
    fn step_limit_reports_timeout() {
        let mut p = simple_program(2, 0);
        p.kernel.body.stmts.insert(
            0,
            Stmt::While {
                cond: Expr::int(1),
                body: Block::of(vec![Stmt::expr(Expr::int(0))]),
            },
        );
        let err = launch(
            &p,
            &LaunchOptions {
                step_limit: 10_000,
                ..LaunchOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::StepLimitExceeded { .. }));
    }

    #[test]
    fn barrier_inside_loop_in_kernel_body() {
        // for (i = 0; i < 4; ++i) { A[l] += 1; barrier; if (l == 0) out[0] += A[sibling]; barrier; }
        let n = 4;
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(vec![
                    Stmt::Decl {
                        name: "A".into(),
                        ty: Type::Scalar(ScalarType::UInt).array_of(n),
                        space: AddressSpace::Local,
                        volatile: false,
                        init: None,
                        init_list: None,
                    },
                    Stmt::assign(
                        Expr::index(Expr::var("A"), Expr::IdQuery(IdKind::LocalLinearId)),
                        Expr::lit(0, ScalarType::UInt),
                    ),
                    Stmt::Barrier(MemFence::Local),
                    Stmt::For {
                        init: Some(Box::new(Stmt::decl(
                            "i",
                            Type::Scalar(ScalarType::Int),
                            Some(Expr::int(0)),
                        ))),
                        cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(4))),
                        update: Some(Expr::assign_op(
                            AssignOp::AddAssign,
                            Expr::var("i"),
                            Expr::int(1),
                        )),
                        body: Block::of(vec![
                            Stmt::expr(Expr::assign_op(
                                AssignOp::AddAssign,
                                Expr::index(Expr::var("A"), Expr::IdQuery(IdKind::LocalLinearId)),
                                Expr::lit(1, ScalarType::UInt),
                            )),
                            Stmt::Barrier(MemFence::Local),
                            Stmt::If {
                                cond: Expr::binary(
                                    BinOp::Eq,
                                    Expr::IdQuery(IdKind::LocalLinearId),
                                    Expr::lit(0, ScalarType::UInt),
                                ),
                                then_block: Block::of(vec![Stmt::expr(Expr::assign_op(
                                    AssignOp::AddAssign,
                                    Expr::index(Expr::var("out"), Expr::lit(0, ScalarType::UInt)),
                                    Expr::index(Expr::var("A"), Expr::lit(3, ScalarType::UInt)),
                                ))]),
                                else_block: None,
                            },
                            Stmt::Barrier(MemFence::Local),
                        ]),
                    },
                ]),
            },
            LaunchConfig::single_group(n),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, n));
        let result = run(&p).unwrap();
        // Thread 3's counter is 1, 2, 3, 4 at the four barriers: 1+2+3+4 = 10.
        assert_eq!(result.output[0].as_u64(), 10);
        // Determinism across schedules.
        let reverse = launch(
            &p,
            &LaunchOptions {
                schedule: Schedule::Reverse,
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(result.result_string, reverse.result_string);
    }

    #[test]
    fn dead_array_override_inverts_emi_guards() {
        let n = 4;
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(8),
                body: Block::of(vec![
                    Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(1))),
                    Stmt::Emi(clc::EmiBlock {
                        index: 0,
                        guard: (5, 2),
                        body: Block::of(vec![Stmt::assign(Expr::var("x"), Expr::int(99))]),
                    }),
                    Stmt::assign(
                        Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                        Expr::var("x"),
                    ),
                ]),
            },
            LaunchConfig::single_group(n),
        );
        p.dead_len = 8;
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, n));
        p.buffers.push(BufferSpec::new(
            "dead",
            ScalarType::Int,
            8,
            BufferInit::Iota,
        ));
        let normal = run(&p).unwrap();
        assert_eq!(normal.output[0].as_u64(), 1);
        // Inverting the dead array (ReverseIota) makes the guard true.
        let mut opts = LaunchOptions::default();
        Arc::make_mut(&mut opts.buffer_overrides)
            .insert("dead".into(), BufferInit::ReverseIota.materialize(8));
        let inverted = launch(&p, &opts).unwrap();
        assert_eq!(inverted.output[0].as_u64(), 99);
    }
}
