//! The simulated OpenCL platform: online compilation followed by NDRange
//! execution, for a given configuration and optimisation level.
//!
//! The flow mirrors what the paper's harness observes when it hands a kernel
//! to a real driver:
//!
//! 1. the front end may reject the program (build failure) or hang
//!    (timeout);
//! 2. the optimiser runs (when enabled and when the driver optimises at all)
//!    and may *miscompile* the program — realised here by applying the
//!    configuration's triggered miscompilation transforms;
//! 3. the kernel executes on the device, where it may crash, time out or
//!    produce a result.
//!
//! Only the resulting [`TestOutcome`] is visible to the fuzzing harness.
//!
//! ## Deduplicated differential execution
//!
//! A differential harness runs the *same* kernel on dozens of
//! (configuration, optimisation level) targets, and most targets compile it
//! to a bit-identical AST; since the emulator is deterministic, those
//! targets provably share one outcome.  The platform is therefore split
//! into two phases:
//!
//! * the **front end** ([`Session::compile`]) — deterministic bug rules,
//!   background-rate rolls, optimisation passes and the choice of triggered
//!   miscompilations, producing a [`CompiledProgram`]: either an outcome
//!   decided without execution, or a [`Recipe`] for the AST to execute —
//!   the session's source or optimised AST plus the target's ordered
//!   transforms, not yet applied;
//! * the **execution phase** — memoised in an [`ExecMemo`] by
//!   `(recipe key, exec-relevant options)`: the AST is built only when no
//!   cache level holds the outcome, each distinct recipe is lowered once (a
//!   shared [`clc_interp::CompiledKernel`]) and launched once per distinct
//!   execution-option set, and every further target is served from the
//!   outcome cache.
//!
//! The recipe key ([`Recipe::key`]) is the base AST's structural
//! [`Fingerprint`] when the target transforms nothing — so i−/i+ targets
//! whose optimisation passes change nothing share one launch — and
//! otherwise a hash of that fingerprint and the transform list, which
//! together determine the built AST exactly.  A transform that happens to
//! leave the AST unchanged therefore gets a key of its own instead of
//! sharing its base's entry; results are the same either way.
//!
//! A [`Session`] carries the per-kernel state both phases reuse across
//! targets (detected [`Features`], the captured program hasher, the
//! optimised AST); a fan-out over 42 targets typically collapses to a
//! handful of real emulator launches.
//!
//! Beyond the per-job memo sit two more outcome-cache levels with the same
//! `(recipe key, exec key)` key: a **process-wide shared cache** (sharded,
//! mutex-striped, bounded) that deduplicates across jobs and scheduler
//! workers, and an optional **on-disk store** ([`OutcomeStore`]) that
//! deduplicates across processes and campaigns.  Memoisation never changes
//! results at any level — outcomes are deterministic in the key, and the
//! `cache_equivalence` integration test pins campaign tables bit-identical
//! with the memo forced off and with the store cold or warm.

use crate::bugs::{apply_miscompilation, BugEffect, Miscompilation, OptLevel};
use crate::configs::Configuration;
use crate::passes;
use crate::store::OutcomeStore;
use clc::{Features, Fingerprint, Program, ProgramHasher};
use clc_analyze::AnalysisReport;
use clc_interp::{
    CompiledKernel, ExecutionTier, LaunchOptions, LaunchResult, RuntimeError, Schedule,
};
use clsmith::{coverage_hash, CoverageClass, CoverageMap};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Execution options for the simulated platform.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Per-work-item step budget (mapped to the paper's 60 s timeout).
    pub step_limit: u64,
    /// Whether to run the data-race detector.
    pub detect_races: bool,
    /// Work-item scheduling order.
    pub schedule: Schedule,
    /// Extra buffer overrides (e.g. the inverted EMI `dead` array, §7.4).
    /// Behind an [`Arc`] so deriving per-launch options never copies the
    /// override data; use [`Arc::make_mut`] to edit.
    pub buffer_overrides: Arc<HashMap<String, Vec<i64>>>,
    /// Which emulator execution tier runs the kernels (defaults to the
    /// bytecode tier, `CLC_INTERP_TIER` overrides process-wide).
    pub tier: ExecutionTier,
    /// On-disk cross-campaign outcome store consulted (and populated) after
    /// the in-memory caches miss (`None` by default).  Like memoisation, the
    /// store never changes results: outcomes are deterministic in
    /// `(recipe key, exec key)`.
    pub store: Option<Arc<OutcomeStore>>,
    /// Whether [`Session`]s may serve repeated executions of an identical
    /// compiled program from the outcome cache (on by default).  Turning
    /// this off forces a cold compile + launch per target — outcomes are
    /// identical either way; only wall-clock changes.  This is also the
    /// opt-out for the process-wide shared cache and the on-disk store.
    pub memoize: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            step_limit: 2_000_000,
            detect_races: false,
            schedule: Schedule::Forward,
            buffer_overrides: Arc::new(HashMap::new()),
            tier: ExecutionTier::from_env(),
            store: None,
            memoize: true,
        }
    }
}

/// The outcome of compiling and running one kernel on one configuration, as
/// observed by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestOutcome {
    /// The kernel built, ran and produced a result.
    Result {
        /// FNV-1a hash of the result string (used for voting).
        hash: u64,
        /// The comma-separated output the host program would print.
        output: String,
    },
    /// The online compiler rejected the program or crashed.
    BuildFailure(String),
    /// The kernel (or the machine) crashed at runtime.
    Crash(String),
    /// Compilation or execution exceeded the time budget.
    Timeout,
}

impl TestOutcome {
    /// Whether the outcome carries a computed result.
    pub fn is_result(&self) -> bool {
        matches!(self, TestOutcome::Result { .. })
    }

    /// The result hash, if any.
    pub fn result_hash(&self) -> Option<u64> {
        match self {
            TestOutcome::Result { hash, .. } => Some(*hash),
            _ => None,
        }
    }

    /// One-letter classification used in the paper's tables: `w`/`X` are
    /// decided by voting at the harness level, so here only `bf`, `c`, `to`
    /// and `ok` exist.
    pub fn kind(&self) -> &'static str {
        match self {
            TestOutcome::Result { .. } => "ok",
            TestOutcome::BuildFailure(_) => "bf",
            TestOutcome::Crash(_) => "c",
            TestOutcome::Timeout => "to",
        }
    }
}

/// What the simulated online compiler's front end produced for one
/// (configuration, optimisation level) target.
///
/// Not to be confused with [`clc_interp::CompiledProgram`], the emulator's
/// lowered bytecode module: this is the *platform-level* compile result —
/// the recipe for the (possibly transformed) AST the device would run, or
/// an outcome the front end already decided.
#[derive(Debug)]
pub enum CompiledProgram<'s> {
    /// The outcome was decided without running the kernel: a deterministic
    /// bug rule or a background rate produced a build failure, compile
    /// hang, or crash.
    Decided {
        /// The decided outcome.
        outcome: TestOutcome,
        /// Front-end coverage recorded while deciding it (rule hits and any
        /// miscompilations collected before the deciding rule fired).
        coverage: CoverageMap,
    },
    /// The kernel must run.  `recipe` names the AST the device executes —
    /// the session's source or optimised AST plus the target's transforms —
    /// without building it: the execution phase memoises on the recipe's
    /// [`Recipe::key`] and builds the AST only when every cache level
    /// misses.
    Execute {
        /// How to build the AST the device executes.
        recipe: Recipe<'s>,
        /// Front-end coverage: bug-rule hits, optimiser passes that changed
        /// the program, miscompilation transforms applied.  Recorded for
        /// free on the deduplicated path — the front end runs per target
        /// regardless of whether the launch is memoised.
        coverage: CoverageMap,
    },
}

/// How to build the AST one target executes: a base AST borrowed from the
/// [`Session`] (the source, or its optimised form) and the ordered
/// miscompilation transforms the target applies to it — the triggered bug
/// rules' miscompilations, then the background literal perturbation.
///
/// The base and the transform list determine the built AST exactly, so the
/// recipe stands in for it as a cache key ([`Recipe::key`]) and the AST is
/// built ([`Recipe::build`]) only when the execution phase has to launch
/// it.
#[derive(Debug)]
pub struct Recipe<'s> {
    base: &'s Program,
    transforms: Vec<Miscompilation>,
    key: Fingerprint,
}

impl<'s> Recipe<'s> {
    /// A recipe over `base`, whose structural fingerprint is
    /// `base_fingerprint`.
    fn new(
        base: &'s Program,
        base_fingerprint: Fingerprint,
        transforms: Vec<Miscompilation>,
    ) -> Recipe<'s> {
        let key = if transforms.is_empty() {
            base_fingerprint
        } else {
            let mut h = DefaultHasher::new();
            (base_fingerprint, &transforms).hash(&mut h);
            Fingerprint(h.finish())
        };
        Recipe {
            base,
            transforms,
            key,
        }
    }

    /// The key every outcome-cache level and the compiled-kernel cache use
    /// for the built AST: the base's structural fingerprint when there are
    /// no transforms, and otherwise a hash of that fingerprint and the
    /// transform list.  Equal recipes share a key; a transform that happens
    /// to leave the AST unchanged still gets a key of its own.
    pub fn key(&self) -> Fingerprint {
        self.key
    }

    /// The AST the device executes: the base itself when there are no
    /// transforms, otherwise a copy with each transform applied in order.
    pub fn build(&self) -> Cow<'s, Program> {
        if self.transforms.is_empty() {
            return Cow::Borrowed(self.base);
        }
        let mut program = self.base.clone();
        for transform in &self.transforms {
            apply_miscompilation(&mut program, *transform);
        }
        Cow::Owned(program)
    }
}

/// Execution-phase caches shared by one or more [`Session`]s.
///
/// Holds the compiled-kernel cache ([`Recipe::key`] → lazily lowered
/// [`CompiledKernel`]) and the outcome cache
/// (`(recipe key, exec-option key)` → [`TestOutcome`]), plus hit/launch
/// counters.  Cheap to create; share one memo (via [`Rc`]) across the
/// sessions of related programs — e.g. the pruning variants of one EMI base,
/// where structurally identical variants then collapse to one launch — and
/// drop it with the job so cache footprint stays bounded.
#[derive(Debug, Default)]
pub struct ExecMemo {
    kernels: RefCell<HashMap<Fingerprint, Rc<CompiledKernel>>>,
    /// Outcome cache, with the launch's dynamic coverage bits stored next
    /// to each outcome so memoised hits replay the *same* coverage the real
    /// launch produced — coverage stays a deterministic function of
    /// `(recipe key, exec key)` at any worker count.
    outcomes: RefCell<HashMap<(Fingerprint, u64), (TestOutcome, CoverageMap)>>,
    analyses: RefCell<HashMap<Fingerprint, Rc<AnalysisReport>>>,
    /// Coverage folded per *base* (unoptimised) fingerprint across every
    /// target executed so far — the per-kernel map the feedback loop reads,
    /// living next to the exec memo exactly like the analysis cache.
    coverage: RefCell<HashMap<Fingerprint, CoverageMap>>,
    stats: MemoCounters,
}

#[derive(Debug, Default)]
struct MemoCounters {
    requests: Cell<u64>,
    launches: Cell<u64>,
    compiles: Cell<u64>,
    outcome_hits: Cell<u64>,
    kernel_hits: Cell<u64>,
    shared_hits: Cell<u64>,
    store_hits: Cell<u64>,
}

/// Counter snapshot for a memo (or the whole process, see
/// [`process_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Target executions requested ([`Session::execute`] /
    /// [`Session::reference_execute`] calls).
    pub requests: u64,
    /// Real emulator launches performed.
    pub launches: u64,
    /// Kernels lowered (compiled-kernel cache misses, plus every launch
    /// when memoisation is off).
    pub compiles: u64,
    /// Executions served from the per-job outcome cache.
    pub outcome_hits: u64,
    /// Launches that reused an already-compiled kernel.
    pub kernel_hits: u64,
    /// Executions served from the process-wide shared outcome cache (after
    /// the per-job cache missed).
    pub shared_hits: u64,
    /// Executions served from the on-disk outcome store (after both
    /// in-memory caches missed).
    pub store_hits: u64,
}

/// The cache-counter kinds.  Doubles as the index into the process-wide
/// atomic array, so the per-memo cell and the global counter cannot drift
/// apart.
#[derive(Clone, Copy)]
enum Counter {
    Requests = 0,
    Launches = 1,
    Compiles = 2,
    OutcomeHits = 3,
    KernelHits = 4,
    SharedHits = 5,
    StoreHits = 6,
}

/// Process-wide counters aggregated across every memo (all threads), for
/// benchmark and CI reporting — indexed by [`Counter`].
static PROCESS: [AtomicU64; 7] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

fn process_count(counter: Counter) -> u64 {
    PROCESS[counter as usize].load(Ordering::Relaxed)
}

impl MemoCounters {
    fn bump(&self, counter: Counter) {
        let cell = match counter {
            Counter::Requests => &self.requests,
            Counter::Launches => &self.launches,
            Counter::Compiles => &self.compiles,
            Counter::OutcomeHits => &self.outcome_hits,
            Counter::KernelHits => &self.kernel_hits,
            Counter::SharedHits => &self.shared_hits,
            Counter::StoreHits => &self.store_hits,
        };
        cell.set(cell.get() + 1);
        PROCESS[counter as usize].fetch_add(1, Ordering::Relaxed);
    }
}

impl ExecMemo {
    /// An empty memo.
    pub fn new() -> ExecMemo {
        ExecMemo::default()
    }

    /// Counter snapshot for this memo.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            requests: self.stats.requests.get(),
            launches: self.stats.launches.get(),
            compiles: self.stats.compiles.get(),
            outcome_hits: self.stats.outcome_hits.get(),
            kernel_hits: self.stats.kernel_hits.get(),
            shared_hits: self.stats.shared_hits.get(),
            store_hits: self.stats.store_hits.get(),
        }
    }
}

/// Process-wide cache counters summed over every memo on every thread since
/// the process started.  Benchmarks read the difference across a campaign.
pub fn process_cache_stats() -> CacheStats {
    CacheStats {
        requests: process_count(Counter::Requests),
        launches: process_count(Counter::Launches),
        compiles: process_count(Counter::Compiles),
        outcome_hits: process_count(Counter::OutcomeHits),
        kernel_hits: process_count(Counter::KernelHits),
        shared_hits: process_count(Counter::SharedHits),
        store_hits: process_count(Counter::StoreHits),
    }
}

// --- The process-wide shared outcome cache (level 1) -----------------------
//
// A [`Session`]'s memo is `Rc`-confined to its job; campaigns running many
// jobs — and schedulers running many workers — re-execute structurally
// identical kernels once per job.  This sharded, mutex-guarded map shares
// outcomes across every memo in the process: lock-striping by recipe key
// keeps worker contention negligible, and a per-shard FIFO bound keeps the
// footprint fixed.  Compiled kernels stay per-memo (`Rc`-based, deliberately
// thread-confined); only final [`TestOutcome`]s — plain data — cross threads.

/// Number of lock stripes (must be a power of two).
const SHARED_SHARDS: usize = 16;

/// Maximum outcomes retained per shard before FIFO eviction.
const SHARED_SHARD_CAP: usize = 4096;

#[derive(Default)]
struct SharedShard {
    outcomes: HashMap<(Fingerprint, u64), (TestOutcome, CoverageMap)>,
    order: VecDeque<(Fingerprint, u64)>,
}

static SHARED: OnceLock<Vec<Mutex<SharedShard>>> = OnceLock::new();

fn shared_shard(fingerprint: Fingerprint) -> &'static Mutex<SharedShard> {
    let shards = SHARED.get_or_init(|| {
        (0..SHARED_SHARDS)
            .map(|_| Mutex::new(SharedShard::default()))
            .collect()
    });
    &shards[(fingerprint.0 as usize) & (SHARED_SHARDS - 1)]
}

fn shared_get(key: &(Fingerprint, u64)) -> Option<(TestOutcome, CoverageMap)> {
    let shard = shared_shard(key.0)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    shard.outcomes.get(key).cloned()
}

fn shared_put(key: (Fingerprint, u64), outcome: TestOutcome, coverage: CoverageMap) {
    let mut shard = shared_shard(key.0)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if shard.outcomes.insert(key, (outcome, coverage)).is_none() {
        shard.order.push_back(key);
        if shard.order.len() > SHARED_SHARD_CAP {
            if let Some(oldest) = shard.order.pop_front() {
                shard.outcomes.remove(&oldest);
            }
        }
    }
}

/// Empties the process-wide shared outcome cache (cold-start bracketing in
/// tests; campaigns never need this — eviction bounds the size).
pub fn reset_shared_outcome_cache() {
    if let Some(shards) = SHARED.get() {
        for shard in shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            shard.outcomes.clear();
            shard.order.clear();
        }
    }
}

/// A per-kernel differential execution session.
///
/// Construction performs the per-kernel work exactly once — a single hash
/// pass capturing reusable hasher state ([`ProgramHasher`]); feature
/// detection and the optimised AST are computed lazily, also at most once —
/// and every [`Session::execute`] call reuses it.  The execution phase is
/// memoised through the session's [`ExecMemo`]: targets whose front end
/// produces the same [`Recipe`] (and identical execution-relevant options)
/// share a single emulator launch.
///
/// Sessions are single-threaded by design (the campaign engine runs one
/// kernel job per worker); the memo is [`Rc`]-based precisely so it cannot
/// leave its thread.  Cross-job and cross-worker sharing happens through
/// the process-wide shared outcome cache (and, when configured, the
/// on-disk [`OutcomeStore`]), which hold only plain-data [`TestOutcome`]s.
pub struct Session<'p> {
    program: &'p Program,
    hasher: ProgramHasher,
    base_fingerprint: Fingerprint,
    features: OnceCell<Features>,
    optimized: OnceCell<(Program, Fingerprint, u8)>,
    memo: Rc<ExecMemo>,
}

impl<'p> Session<'p> {
    /// A session over `program` with a fresh private memo.
    pub fn new(program: &'p Program) -> Session<'p> {
        Session::with_memo(program, Rc::new(ExecMemo::new()))
    }

    /// A session over `program` sharing `memo` with other sessions (e.g.
    /// the pruning variants of one EMI base within one kernel job).
    pub fn with_memo(program: &'p Program, memo: Rc<ExecMemo>) -> Session<'p> {
        let hasher = ProgramHasher::new(program);
        let base_fingerprint = hasher.fingerprint();
        Session {
            program,
            hasher,
            base_fingerprint,
            features: OnceCell::new(),
            optimized: OnceCell::new(),
            memo,
        }
    }

    /// The program under test.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The unoptimised program's structural fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.base_fingerprint
    }

    /// The program's detected features (computed on first use).
    pub fn features(&self) -> &Features {
        self.features.get_or_init(|| Features::detect(self.program))
    }

    /// The program's static analysis report, cached in the memo by the
    /// unoptimised fingerprint so the EMI variants and repeat jobs of one
    /// base (and any structurally identical programs sharing this memo)
    /// analyse once.
    pub fn analysis(&self) -> Rc<AnalysisReport> {
        self.memo
            .analyses
            .borrow_mut()
            .entry(self.base_fingerprint)
            .or_insert_with(|| Rc::new(clc_analyze::analyze(self.program)))
            .clone()
    }

    /// The session's memo (shared caches and counters).
    pub fn memo(&self) -> &ExecMemo {
        &self.memo
    }

    /// Coverage folded for this kernel across every target executed so far:
    /// front-end rule/pass/miscompilation bits plus the dynamic bits of the
    /// launches those targets resolved to.  Keyed in the memo by the
    /// *unoptimised* fingerprint, so repeat sessions over a structurally
    /// identical program (sharing the memo) keep accumulating one map.
    pub fn coverage(&self) -> CoverageMap {
        self.memo
            .coverage
            .borrow()
            .get(&self.base_fingerprint)
            .copied()
            .unwrap_or_default()
    }

    /// Folds `coverage` into this kernel's per-fingerprint map.
    fn fold_coverage(&self, coverage: &CoverageMap) {
        self.memo
            .coverage
            .borrow_mut()
            .entry(self.base_fingerprint)
            .or_default()
            .merge(coverage);
    }

    /// Deterministic pseudo-probability in `[0, 1)` for a background
    /// outcome roll: bit-identical to hashing
    /// `(program, config.id, opt, salt)` from scratch, but reusing the
    /// captured program prefix.
    fn chance(&self, config: &Configuration, opt: OptLevel, salt: &str) -> f64 {
        let h = self.hasher.chain(&(config.id, opt, salt));
        (h % 1_000_000) as f64 / 1_000_000.0
    }

    /// The passes-optimised AST, its fingerprint, and the `PASS_BIT_*` mask
    /// of passes that changed the program (computed once and shared by
    /// every optimising target).
    fn optimized(&self) -> (&Program, Fingerprint, u8) {
        let (program, fingerprint, pass_bits) = self.optimized.get_or_init(|| {
            let mut optimized = self.program.clone();
            let pass_bits = passes::optimize_traced(&mut optimized);
            let fingerprint = optimized.fingerprint();
            (optimized, fingerprint, pass_bits)
        });
        (program, *fingerprint, *pass_bits)
    }

    /// The front-end phase: deterministic bug rules, background-rate rolls,
    /// optimisation passes and triggered miscompilations for one target.
    ///
    /// Pure per target — it touches no cache except the session's shared
    /// optimised AST — and returns either a decided outcome or the
    /// [`Recipe`] of the AST to execute.  It never builds a transformed
    /// AST: [`Session::execute`] does that only on a cache miss.
    pub fn compile(&self, config: &Configuration, opt: OptLevel) -> CompiledProgram<'_> {
        // --- Deterministic bug rules --------------------------------------
        let mut coverage = CoverageMap::new();
        let mut transforms = Vec::new();
        for rule in &config.rules {
            if !rule.applies(self.features(), self.program, opt) {
                continue;
            }
            coverage.set_hash(CoverageClass::Rules, coverage_hash(rule.name));
            match &rule.effect {
                BugEffect::BuildFailure(msg) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::BuildFailure(format!("{} [{}]", msg, rule.reference)),
                        coverage,
                    }
                }
                BugEffect::CompileHang(_) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::Timeout,
                        coverage,
                    }
                }
                BugEffect::RuntimeCrash(msg) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::Crash(format!("{} [{}]", msg, rule.reference)),
                        coverage,
                    }
                }
                BugEffect::Miscompile(m) => {
                    coverage.set(CoverageClass::Miscompiles, m.coverage_bit());
                    transforms.push(*m);
                }
            }
        }

        // --- Background (rate-based) outcomes -----------------------------
        // All rolls are independent hashes of (program, config, opt, salt),
        // so rolling the crash rate here — before compilation rather than
        // after, where the historical code drew it — decides exactly the
        // same outcomes in the same precedence order.
        let rates = config.rates(opt);
        let uses_barriers = self.features().barrier_count > 0;
        if self.chance(config, opt, "bf") < rates.build_failure {
            return CompiledProgram::Decided {
                outcome: TestOutcome::BuildFailure(
                    "driver rejected the program (background rate)".into(),
                ),
                coverage,
            };
        }
        if self.chance(config, opt, "to") < rates.timeout {
            return CompiledProgram::Decided {
                outcome: TestOutcome::Timeout,
                coverage,
            };
        }
        let wrong_rate = rates.wrong_code
            + if uses_barriers {
                rates.barrier_wrong_bonus
            } else {
                0.0
            };
        let perturb = self.chance(config, opt, "wc") < wrong_rate;
        let crash_rate = rates.runtime_crash
            + if uses_barriers {
                rates.barrier_crash_bonus
            } else {
                0.0
            };
        if self.chance(config, opt, "crash") < crash_rate {
            return CompiledProgram::Decided {
                outcome: TestOutcome::Crash("kernel execution crashed (background rate)".into()),
                coverage,
            };
        }

        // --- Compilation --------------------------------------------------
        let (base, base_fingerprint) = if opt == OptLevel::Enabled && config.optimizes {
            let (base, base_fingerprint, pass_bits) = self.optimized();
            for bit in 0..8 {
                if pass_bits & (1 << bit) != 0 {
                    coverage.set(CoverageClass::Passes, bit);
                }
            }
            (base, base_fingerprint)
        } else {
            (self.program, self.base_fingerprint)
        };
        if perturb {
            let salt = self.hasher.chain(&(config.id, "perturb"));
            let perturbation = Miscompilation::PerturbLiteral(salt);
            coverage.set(CoverageClass::Miscompiles, perturbation.coverage_bit());
            transforms.push(perturbation);
        }
        CompiledProgram::Execute {
            recipe: Recipe::new(base, base_fingerprint, transforms),
            coverage,
        }
    }

    /// Compiles and executes the kernel on one target, sharing front-end
    /// state and (when `exec.memoize` is on) emulator launches with every
    /// other target of this session's memo.
    pub fn execute(
        &self,
        config: &Configuration,
        opt: OptLevel,
        exec: &ExecOptions,
    ) -> TestOutcome {
        self.memo.stats.bump(Counter::Requests);
        let (outcome, mut coverage) = match self.compile(config, opt) {
            CompiledProgram::Decided { outcome, coverage } => (outcome, coverage),
            CompiledProgram::Execute { recipe, coverage } => (self.run(&recipe, exec), coverage),
        };
        // The outcome *kind* is itself a coverage signal (a kernel that
        // provokes its first build failure or crash is interesting), and it
        // is available on every path — decided, memoised or launched.
        coverage.set(CoverageClass::Dynamic, outcome_kind_bit(&outcome));
        self.fold_coverage(&coverage);
        outcome
    }

    /// Executes on the reference emulator with no configuration-specific
    /// behaviour, through the same memoised execution phase — so e.g. the
    /// two runs of an EMI liveness probe share one lowered kernel.
    pub fn reference_execute(&self, exec: &ExecOptions) -> TestOutcome {
        self.memo.stats.bump(Counter::Requests);
        let recipe = Recipe::new(self.program, self.base_fingerprint, Vec::new());
        self.run(&recipe, exec)
    }

    /// The execution phase: launch a recipe's AST, memoised by
    /// `(recipe key, exec-relevant options)`.
    ///
    /// Lookup order on the memoised path: the per-job memo, then the
    /// process-wide shared cache, then the on-disk store (when one is
    /// configured); a launch back-fills every level, and a hit at an outer
    /// level back-fills the levels inside it.  All three levels key on the
    /// same `(recipe key, exec key)` pair, and outcomes are deterministic
    /// functions of that pair, so hits can never change a result.  The AST
    /// is built only when every level misses (or memoisation is off).
    fn run(&self, recipe: &Recipe<'_>, exec: &ExecOptions) -> TestOutcome {
        let options = launch_options(exec);
        if !exec.memoize {
            self.memo.stats.bump(Counter::Compiles);
            self.memo.stats.bump(Counter::Launches);
            let result = clc_interp::launch(&recipe.build(), &options);
            self.fold_coverage(&dynamic_coverage(&result));
            return launch_outcome(result);
        }
        let key = (recipe.key(), exec_key(exec));
        if let Some((hit, coverage)) = self.memo.outcomes.borrow().get(&key) {
            self.memo.stats.bump(Counter::OutcomeHits);
            self.fold_coverage(coverage);
            return hit.clone();
        }
        if let Some((hit, coverage)) = shared_get(&key) {
            self.memo.stats.bump(Counter::SharedHits);
            self.fold_coverage(&coverage);
            self.memo
                .outcomes
                .borrow_mut()
                .insert(key, (hit.clone(), coverage));
            return hit;
        }
        if let Some(store) = &exec.store {
            if let Some(hit) = store.get(key.0, key.1) {
                // The store holds outcomes only, so a store hit replays no
                // launch-derived dynamic bits; the empty map is cached so
                // later requests for this key stay consistent in-process.
                self.memo.stats.bump(Counter::StoreHits);
                shared_put(key, hit.clone(), CoverageMap::new());
                self.memo
                    .outcomes
                    .borrow_mut()
                    .insert(key, (hit.clone(), CoverageMap::new()));
                return hit;
            }
        }
        let kernel = {
            let mut kernels = self.memo.kernels.borrow_mut();
            match kernels.entry(key.0) {
                Entry::Occupied(entry) => {
                    self.memo.stats.bump(Counter::KernelHits);
                    Rc::clone(entry.get())
                }
                Entry::Vacant(entry) => {
                    self.memo.stats.bump(Counter::Compiles);
                    let program = recipe.build().into_owned();
                    Rc::clone(entry.insert(Rc::new(CompiledKernel::compile(program))))
                }
            }
        };
        self.memo.stats.bump(Counter::Launches);
        let result = kernel.launch(&options);
        let coverage = dynamic_coverage(&result);
        self.fold_coverage(&coverage);
        let outcome = launch_outcome(result);
        self.memo
            .outcomes
            .borrow_mut()
            .insert(key, (outcome.clone(), coverage));
        shared_put(key, outcome.clone(), coverage);
        if let Some(store) = &exec.store {
            store.put(key.0, key.1, &outcome);
        }
        outcome
    }
}

/// Compiles and executes a kernel on a simulated configuration.
///
/// One-shot form of [`Session::execute`]; a caller fanning the same kernel
/// over many targets should hold a [`Session`] so compiled programs and
/// outcomes are shared across the fan-out.
pub fn execute(
    program: &Program,
    config: &Configuration,
    opt: OptLevel,
    exec: &ExecOptions,
) -> TestOutcome {
    Session::new(program).execute(config, opt, exec)
}

/// Executes on the reference emulator with no configuration-specific
/// behaviour (the oracle used by the harness to sanity-check majorities and
/// by the reducer).
pub fn reference_execute(program: &Program, exec: &ExecOptions) -> TestOutcome {
    let options = launch_options(exec);
    launch_outcome(clc_interp::launch(program, &options))
}

/// Derives the emulator launch options for one execution.
fn launch_options(exec: &ExecOptions) -> LaunchOptions {
    LaunchOptions {
        step_limit: exec.step_limit,
        detect_races: exec.detect_races,
        schedule: exec.schedule,
        buffer_overrides: Arc::clone(&exec.buffer_overrides),
        scalar_args: HashMap::new(),
        tier: exec.tier,
    }
}

/// Maps an emulator result onto the platform outcome surface.
fn launch_outcome(result: Result<clc_interp::LaunchResult, RuntimeError>) -> TestOutcome {
    match result {
        Ok(result) => TestOutcome::Result {
            hash: result.result_hash,
            output: result.result_string,
        },
        Err(RuntimeError::StepLimitExceeded { .. }) => TestOutcome::Timeout,
        Err(e) => TestOutcome::Crash(e.to_string()),
    }
}

/// The dynamic-class coverage bit for an outcome kind (bits 4..=7: ok, bf,
/// crash, timeout).  Available on every path — decided, memoised, launched.
fn outcome_kind_bit(outcome: &TestOutcome) -> u32 {
    match outcome.kind() {
        "ok" => 4,
        "bf" => 5,
        "c" => 6,
        _ => 7,
    }
}

/// Maps one emulator launch onto the dynamic word of the coverage map —
/// the thread-aware feedback bits (à la MUZZ) the blind campaign never saw.
///
/// Layout of the `Dynamic` class word:
///
/// * bit 0 — a data race was detected;
/// * bit 1 — barrier divergence;
/// * bit 2 — step-limit exhaustion;
/// * bit 3 — any other runtime error;
/// * bits 4..=7 — outcome kind (set in [`Session::execute`], not here);
/// * bits 8..=15 — barrier-release depth bucket (`log2` of the deepest
///   barrier ladder any work-group ran, saturated at 7);
/// * bit 16 — non-synchronising helper-function barriers executed;
/// * bits 32..=63 — race-*site* hash (object, offset, same-group), so two
///   distinct racy sites light distinct bits.
///
/// Only tier-stable signals are used (`total_steps` and the race-detector
/// work counters are tier- or schedule-specific and deliberately excluded),
/// so both interpreter tiers produce identical maps.
fn dynamic_coverage(result: &Result<LaunchResult, RuntimeError>) -> CoverageMap {
    let mut map = CoverageMap::new();
    match result {
        Ok(result) => {
            if let Some(race) = &result.race {
                map.set(CoverageClass::Dynamic, 0);
                map.set(CoverageClass::Dynamic, race_site_bit(race));
            }
            let depth = (64 - result.barrier_intervals.leading_zeros()).min(7);
            map.set(CoverageClass::Dynamic, 8 + depth);
            if result.soft_barriers > 0 {
                map.set(CoverageClass::Dynamic, 16);
            }
        }
        Err(RuntimeError::BarrierDivergence { .. }) => map.set(CoverageClass::Dynamic, 1),
        Err(RuntimeError::StepLimitExceeded { .. }) => map.set(CoverageClass::Dynamic, 2),
        Err(RuntimeError::DataRace(race)) => {
            map.set(CoverageClass::Dynamic, 0);
            map.set(CoverageClass::Dynamic, race_site_bit(race));
        }
        Err(_) => map.set(CoverageClass::Dynamic, 3),
    }
    map
}

/// One of the 32 race-site bits (32..=63) for a detected race, hashed from
/// the site's stable identity (schedule-independent parts only: the object,
/// offset and same-group flag, not the thread ids).
fn race_site_bit(race: &clc_interp::RaceReport) -> u32 {
    let site = format!("{}:{}:{}", race.object, race.offset, race.same_group);
    32 + (coverage_hash(&site) % 32) as u32
}

/// Hash of every execution option that can change a launch outcome — the
/// second half of the outcome-cache key.  Buffer overrides are folded in
/// key-sorted order so the value is independent of map iteration order.
/// `store` and `memoize` are deliberately excluded: they select *where*
/// outcomes are cached, never *what* they are.
fn exec_key(exec: &ExecOptions) -> u64 {
    let mut h = DefaultHasher::new();
    exec.step_limit.hash(&mut h);
    exec.detect_races.hash(&mut h);
    exec.schedule.hash(&mut h);
    exec.tier.hash(&mut h);
    let mut names: Vec<&String> = exec.buffer_overrides.keys().collect();
    names.sort();
    for name in names {
        name.hash(&mut h);
        exec.buffer_overrides[name].hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{all_configurations, configuration};
    use clc::{BufferSpec, Expr, IdKind, KernelDef, LaunchConfig, ScalarType, Stmt};

    fn trivial_program(value: i64) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: clc::Block::of(vec![Stmt::assign(
                    Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                    Expr::int(value),
                )]),
            },
            LaunchConfig::single_group(4),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));
        p
    }

    #[test]
    fn outcomes_are_deterministic() {
        let p = trivial_program(7);
        for config in all_configurations() {
            for opt in OptLevel::BOTH {
                let a = execute(&p, &config, opt, &ExecOptions::default());
                let b = execute(&p, &config, opt, &ExecOptions::default());
                assert_eq!(a, b, "config {} {}", config.id, opt);
            }
        }
    }

    #[test]
    fn reference_execution_matches_source_semantics() {
        let p = trivial_program(9);
        match reference_execute(&p, &ExecOptions::default()) {
            TestOutcome::Result { output, .. } => assert_eq!(output, "9,9,9,9"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn healthy_configs_agree_on_a_trivial_kernel() {
        // A struct-free, barrier-free, comma-free kernel triggers none of the
        // deterministic bug rules; any disagreement would have to come from
        // the background rates, which are per-kernel deterministic, so at
        // least the NVIDIA configuration with optimisations (rate bf = 0)
        // must produce the reference answer.
        let p = trivial_program(3);
        let reference = reference_execute(&p, &ExecOptions::default());
        let outcome = execute(
            &p,
            &configuration(1),
            OptLevel::Enabled,
            &ExecOptions::default(),
        );
        if let (TestOutcome::Result { hash: a, .. }, TestOutcome::Result { hash: b, .. }) =
            (&reference, &outcome)
        {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn outcome_kinds_classify() {
        assert_eq!(TestOutcome::Timeout.kind(), "to");
        assert_eq!(TestOutcome::BuildFailure("x".into()).kind(), "bf");
        assert_eq!(TestOutcome::Crash("x".into()).kind(), "c");
        assert_eq!(
            TestOutcome::Result {
                hash: 1,
                output: "1".into()
            }
            .kind(),
            "ok"
        );
        assert!(TestOutcome::Result {
            hash: 1,
            output: "1".into()
        }
        .is_result());
        assert_eq!(TestOutcome::Timeout.result_hash(), None);
    }

    #[test]
    fn altera_rejects_vectors_in_structs() {
        use clc::{Field, StructDef, Type, VectorWidth};
        let mut p = trivial_program(1);
        p.add_struct(StructDef::new(
            "S",
            vec![Field::new(
                "x",
                Type::Vector(ScalarType::Int, VectorWidth::W4),
            )],
        ));
        let outcome = execute(
            &p,
            &configuration(20),
            OptLevel::Enabled,
            &ExecOptions::default(),
        );
        assert!(matches!(outcome, TestOutcome::BuildFailure(msg) if msg.contains("vector")));
    }

    #[test]
    fn oclgrind_miscompiles_comma_kernels() {
        let mut p = trivial_program(1);
        p.kernel.body.stmts[0] = Stmt::assign(
            Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
            Expr::comma(Expr::int(5), Expr::int(1)),
        );
        let reference = reference_execute(&p, &ExecOptions::default());
        let oclgrind = execute(
            &p,
            &configuration(19),
            OptLevel::Disabled,
            &ExecOptions::default(),
        );
        match (reference, oclgrind) {
            (TestOutcome::Result { output: r, .. }, TestOutcome::Result { output: o, .. }) => {
                assert_eq!(r, "1,1,1,1");
                assert_eq!(o, "5,5,5,5");
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn session_fan_out_collapses_identical_compiles_to_few_launches() {
        let p = trivial_program(5);
        let session = Session::new(&p);
        let exec = ExecOptions::default();
        let mut outcomes = Vec::new();
        for config in all_configurations() {
            for opt in OptLevel::BOTH {
                outcomes.push(session.execute(&config, opt, &exec));
            }
        }
        let stats = session.memo().stats();
        assert_eq!(stats.requests, 42);
        assert!(
            stats.launches < stats.requests / 2,
            "expected heavy deduplication, got {stats:?}"
        );
        assert!(stats.launches >= 1);
        assert_eq!(stats.compiles, stats.launches, "one compile per launch: each distinct outcome-cache miss here is a distinct compiled AST");
        // Every computed result must be reproduced by the cold path.
        for (i, (config, opt)) in all_configurations()
            .iter()
            .flat_map(|c| OptLevel::BOTH.map(|o| (c.clone(), o)))
            .enumerate()
        {
            let cold = ExecOptions {
                memoize: false,
                ..ExecOptions::default()
            };
            assert_eq!(
                outcomes[i],
                execute(&p, &config, opt, &cold),
                "config {} {opt} diverged under memoisation",
                config.id
            );
        }
    }

    #[test]
    fn session_memoisation_matches_cold_execution_for_generated_outcomes() {
        // The memo key must separate different exec options for the same
        // fingerprint: the same program with a different schedule or step
        // limit is a different cache line.
        let p = trivial_program(2);
        let session = Session::new(&p);
        let fast = ExecOptions::default();
        let strict = ExecOptions {
            step_limit: 1, // tiny budget: the kernel times out
            ..ExecOptions::default()
        };
        let ok = session.reference_execute(&fast);
        let starved = session.reference_execute(&strict);
        assert!(ok.is_result());
        assert_eq!(starved, TestOutcome::Timeout);
        // Same options again: served from cache, same value.
        assert_eq!(session.reference_execute(&fast), ok);
        let stats = session.memo().stats();
        assert_eq!(stats.launches, 2, "two distinct exec-option sets");
        assert_eq!(stats.outcome_hits, 1);
        assert_eq!(stats.compiles, 1, "one lowered kernel serves both");
    }

    #[test]
    fn shared_memo_deduplicates_across_sessions_of_identical_programs() {
        // Two structurally identical programs behind one memo — the EMI
        // variant case — must share both the compile and the launch.
        let a = trivial_program(4);
        let b = trivial_program(4);
        let memo = Rc::new(ExecMemo::new());
        let sa = Session::with_memo(&a, Rc::clone(&memo));
        let sb = Session::with_memo(&b, Rc::clone(&memo));
        let exec = ExecOptions::default();
        assert_eq!(sa.reference_execute(&exec), sb.reference_execute(&exec));
        let stats = memo.stats();
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.outcome_hits, 1);
    }

    #[test]
    fn shared_cache_and_store_serve_outcomes_beyond_the_job_memo() {
        // This is the only test allowed to call reset_shared_outcome_cache:
        // other tests' shared-cache expectations must not race a reset.
        //
        // Part 1 — the on-disk store survives a simulated process death
        // (shared cache cleared, store reopened from the directory).
        let dir =
            std::env::temp_dir().join(format!("clfuzz-platform-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = trivial_program(12);
        let store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let exec = ExecOptions {
            store: Some(Arc::clone(&store)),
            ..ExecOptions::default()
        };
        let first = Session::new(&p).reference_execute(&exec);
        assert_eq!(store.stats().writes, 1);
        reset_shared_outcome_cache();
        let reopened = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let exec = ExecOptions {
            store: Some(Arc::clone(&reopened)),
            ..ExecOptions::default()
        };
        let session = Session::new(&p);
        assert_eq!(session.reference_execute(&exec), first);
        let stats = session.memo().stats();
        assert_eq!(stats.launches, 0, "warm store must skip the launch");
        assert_eq!(stats.store_hits, 1);
        assert_eq!(reopened.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);

        // Part 2 — the process-wide shared cache deduplicates across
        // sessions with independent memos (i.e. across jobs).
        let q = trivial_program(11);
        let exec = ExecOptions {
            store: None,
            ..ExecOptions::default()
        };
        let a = Session::new(&q);
        let cold = a.reference_execute(&exec);
        assert_eq!(a.memo().stats().launches, 1);
        let b = Session::new(&q); // fresh memo, same process
        assert_eq!(b.reference_execute(&exec), cold);
        let stats = b.memo().stats();
        assert_eq!(stats.launches, 0, "served from the process-wide cache");
        assert_eq!(stats.shared_hits, 1);
        // The per-job memo is back-filled: a repeat hits locally.
        assert_eq!(b.reference_execute(&exec), cold);
        assert_eq!(b.memo().stats().outcome_hits, 1);
    }

    #[test]
    fn coverage_replays_identically_from_every_cache_level() {
        let p = trivial_program(11);
        let exec = ExecOptions {
            store: None,
            ..ExecOptions::default()
        };
        let fan_out = |exec: &ExecOptions| {
            let session = Session::new(&p);
            for config in all_configurations() {
                for opt in OptLevel::BOTH {
                    session.execute(&config, opt, exec);
                }
            }
            session.coverage()
        };
        let cold = fan_out(&exec);
        // The outcome-kind bit fires on every path, so the map is never
        // empty; the trivial kernel must at least produce results.
        assert!(cold.contains(CoverageClass::Dynamic, 4));
        // A warm fan-out is served from the caches; the replayed coverage
        // must be bit-identical to what the real launches produced.
        assert_eq!(fan_out(&exec), cold);
        // So must a fan-out with memoisation off (all real launches).
        let unmemoised = ExecOptions {
            memoize: false,
            store: None,
            ..ExecOptions::default()
        };
        assert_eq!(fan_out(&unmemoised), cold);
    }

    #[test]
    fn front_end_reuses_the_optimised_ast_across_targets() {
        let p = trivial_program(6);
        let session = Session::new(&p);
        // Two optimising configurations at the enabled level: both borrow
        // the session's optimised AST (same fingerprint) unless a
        // miscompilation or perturbation applies.
        let mut fingerprints = Vec::new();
        for id in [1usize, 3] {
            if let CompiledProgram::Execute { recipe, .. } =
                session.compile(&configuration(id), OptLevel::Enabled)
            {
                fingerprints.push(recipe.key());
            }
        }
        assert_eq!(fingerprints.len(), 2);
        assert_eq!(fingerprints[0], fingerprints[1]);
    }

    #[test]
    fn recipe_keys_serve_the_same_outcomes_as_built_asts() {
        use clsmith::{generate, GenMode, GeneratorOptions};
        let memoised = ExecOptions {
            store: None,
            ..ExecOptions::default()
        };
        let cold = ExecOptions {
            memoize: false,
            store: None,
            ..ExecOptions::default()
        };
        let mut transformed_by_mode = HashMap::new();
        let mut identity_by_key = HashMap::new();
        let mut perturbed = 0;
        for (mode, seed) in GenMode::ALL
            .into_iter()
            .flat_map(|m| (0..3u64).map(move |s| (m, s)))
        {
            let program = generate(&GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::new(mode, seed)
            });
            let session = Session::new(&program);
            let cold_session = Session::new(&program);
            for config in all_configurations() {
                for opt in OptLevel::BOTH {
                    assert_eq!(
                        session.execute(&config, opt, &memoised),
                        cold_session.execute(&config, opt, &cold),
                        "{mode} seed {seed}: config {} {opt} diverged under memoisation",
                        config.id
                    );
                    let CompiledProgram::Execute { recipe, .. } = session.compile(&config, opt)
                    else {
                        continue;
                    };
                    let base_fingerprint = recipe.base.fingerprint();
                    let transforms = &recipe.transforms;
                    *transformed_by_mode.entry(mode).or_insert(0) +=
                        usize::from(!transforms.is_empty());
                    assert_eq!(
                        recipe.key() == base_fingerprint,
                        transforms.is_empty(),
                        "the key is the base fingerprint exactly when nothing transforms it: {transforms:?}"
                    );
                    // Equal recipes share a key, and a key names one recipe.
                    let again = Recipe::new(recipe.base, base_fingerprint, transforms.clone());
                    assert_eq!(again.key(), recipe.key());
                    let identity = (base_fingerprint, transforms.clone());
                    let previous = identity_by_key.insert(recipe.key(), identity.clone());
                    assert!(
                        previous.is_none_or(|previous| previous == identity),
                        "two recipes share the key {}",
                        recipe.key()
                    );
                    // Different perturbation salts never share a key.
                    for (i, transform) in transforms.iter().enumerate() {
                        if let Miscompilation::PerturbLiteral(salt) = transform {
                            perturbed += 1;
                            let mut resalted = transforms.clone();
                            resalted[i] = Miscompilation::PerturbLiteral(salt.wrapping_add(1));
                            let resalted = Recipe::new(recipe.base, base_fingerprint, resalted);
                            assert_ne!(resalted.key(), recipe.key());
                        }
                    }
                }
            }
        }
        for mode in GenMode::ALL {
            assert!(
                transformed_by_mode.get(&mode).copied().unwrap_or(0) > 0,
                "no transformed target in {mode}"
            );
        }
        // Each target perturbs with a salt of its own, so two perturbed
        // targets are two salts whose keys the map above kept apart.
        assert!(perturbed >= 2, "{perturbed} perturbed targets");
    }
}
