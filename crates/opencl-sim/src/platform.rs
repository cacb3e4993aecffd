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
//!   background-rate rolls, whether to optimise and the choice of triggered
//!   miscompilations, producing a [`CompiledProgram`]: either an outcome
//!   decided without execution, or a [`Recipe`] for the AST to execute —
//!   the session's source program, whether to optimise it, and the
//!   target's ordered transforms, none of them applied yet;
//! * the **execution phase** — memoised in the campaign's [`OutcomeCache`]
//!   by `(recipe key, exec-relevant options)`: the AST is built (optimised
//!   and transformed) only when no cache level holds the recipe's outcome,
//!   and launched only when the cache holds nothing under the built AST's
//!   live key either (see below), so each distinct live program is
//!   launched once per distinct execution-option set, and every further
//!   target is served from the cache.
//!
//! The recipe key ([`Recipe::key`]) names what decides the built AST, never
//! the AST itself: it is the source's structural [`Fingerprint`] when the
//! target neither optimises nor transforms, a hash of that fingerprint and
//! the transform list when it only transforms, and a hash of an "optimized"
//! tag, the fingerprint and the transform list when it optimises.  So a
//! warm cache answers an optimising target without running the optimiser.
//! The price is that two recipes reaching one AST by different routes get
//! different keys: an optimising target whose passes change nothing does
//! not share its non-optimising twin's entry, nor does an EMI variant that
//! optimises to its base's AST share the base's, except through the live
//! key.  Likewise a transform that happens to leave the AST unchanged gets
//! a key of its own.  Results are the same either way; only a launch is
//! repeated.  Generated kernels make this rare: a cold single-worker
//! `table1 120` campaign (720 kernels) launched 3 709 times both with
//! these keys and with keys taken from the optimised AST, whose
//! fingerprint would cost every miss a pass over the AST.
//!
//! A [`Session`] carries the per-kernel state both phases reuse across
//! targets (detected [`Features`], the captured program hasher, the
//! optimised AST once a build has needed it); a fan-out over 42 targets
//! typically collapses to a handful of real emulator launches.
//!
//! There are two outcome-cache levels, both keyed by `(recipe key, exec
//! key)`: the **campaign cache** ([`ExecOptions::cache`], lock-striped and
//! bounded), which every job and worker of a campaign shares because they
//! all clone the campaign's options, and an optional **on-disk store**
//! ([`OutcomeStore`]) that deduplicates across processes and campaigns.
//! Both hold the [`TestOutcome`] a launch produced and nothing else.
//!
//! An execution therefore makes up to three lookups before it launches:
//!
//! 1. the campaign cache by recipe key;
//! 2. the store by recipe key;
//! 3. with the AST built, the campaign cache by the AST's **live key**:
//!    [`clc_interp::live_fingerprint`], the fingerprint of the program with
//!    the bodies of its never-entered EMI blocks removed, when removing
//!    them is invisible to a launch.  EMI variants (§5) differ from their
//!    base only inside such blocks, so a base and its variants share one
//!    live key, and one launch answers for all of them.
//!
//! A launch puts both keys into the cache; a hit at the third lookup puts
//! the recipe key.  The store only ever holds recipe keys, and every recipe
//! served is written under its own, so a warm store answers every recipe
//! without optimising or building an AST.  Live keys are hashed under a tag
//! into a namespace of their own: a variant whose EMI bodies are already
//! empty has the base's live fingerprint as its recipe key, and without the
//! tag its first lookup would hit the base's live entry and skip its store
//! write.
//!
//! Caching never changes results — outcomes are deterministic in either
//! key, and the invariance matrix
//! (`crates/bench/tests/matrix/mod.rs`) pins every campaign's table
//! bit-identical with the cache off, on, and over a cold or warm store.

use crate::bugs::{apply_miscompilation, BugEffect, Miscompilation, OptLevel};
use crate::configs::Configuration;
use crate::passes;
use crate::store::OutcomeStore;
use clc::{Features, Fingerprint, Program, ProgramHasher};
use clc_interp::{ExecutionTier, LaunchOptions, RuntimeError, Schedule};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// the campaign cache misses (`None` by default).  Like the cache, the
    /// store never changes results: outcomes are deterministic in
    /// `(recipe key, exec key)`.
    pub store: Option<Arc<OutcomeStore>>,
    /// The in-memory outcome cache [`Session`]s consult first (a fresh,
    /// empty one by default).  Clones of these options share it, so every
    /// job and worker of a campaign built from one `ExecOptions` shares one
    /// cache.  `None` launches every execution and consults no store —
    /// outcomes are identical either way; only wall-clock changes.
    pub cache: Option<OutcomeCache>,
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
            cache: Some(OutcomeCache::default()),
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
    },
    /// The kernel must run.  `recipe` names the AST the device executes —
    /// the session's source, optimised or not, plus the target's transforms
    /// — without building it: the execution phase memoises on the recipe's
    /// [`Recipe::key`] and builds the AST only when every cache level
    /// misses.
    Execute {
        /// How to build the AST the device executes.
        recipe: Recipe<'s>,
    },
}

/// How to build the AST one target executes: the [`Session`]'s source
/// program, whether the target optimises it first, and the ordered
/// miscompilation transforms the target applies — the triggered bug rules'
/// miscompilations, then the background literal perturbation.
///
/// Those three determine the built AST exactly, so the recipe stands in for
/// it as a cache key ([`Recipe::key`]).  The AST is built ([`Recipe::build`])
/// only when the execution phase has to launch it, and an optimising
/// recipe runs the optimiser only then: it borrows the session's empty
/// optimised-AST cell and fills it on its first build.
#[derive(Debug)]
pub struct Recipe<'s> {
    source: &'s Program,
    optimized: Option<&'s OnceCell<Program>>,
    transforms: Vec<Miscompilation>,
    key: Fingerprint,
}

impl<'s> Recipe<'s> {
    /// A recipe over `source`, whose structural fingerprint is
    /// `source_fingerprint`, optimised through the session's `optimized`
    /// cell when one is given.
    fn new(
        source: &'s Program,
        source_fingerprint: Fingerprint,
        optimized: Option<&'s OnceCell<Program>>,
        transforms: Vec<Miscompilation>,
    ) -> Recipe<'s> {
        let key = if optimized.is_some() {
            let mut h = DefaultHasher::new();
            ("optimized", source_fingerprint, &transforms).hash(&mut h);
            Fingerprint(h.finish())
        } else if transforms.is_empty() {
            source_fingerprint
        } else {
            let mut h = DefaultHasher::new();
            (source_fingerprint, &transforms).hash(&mut h);
            Fingerprint(h.finish())
        };
        Recipe {
            source,
            optimized,
            transforms,
            key,
        }
    }

    /// The key both outcome-cache levels use for the built AST, computed
    /// without building it: the source's structural fingerprint when the
    /// recipe neither optimises nor transforms, a hash of that fingerprint
    /// and the transform list when it only transforms, and a hash of an
    /// "optimized" tag, the fingerprint and the transform list when it
    /// optimises.  Equal recipes share a key.  An optimising recipe never
    /// shares one with a non-optimising recipe, even where the optimiser
    /// leaves the program unchanged, and a transform that happens to leave
    /// the AST unchanged still gets a key of its own.
    pub fn key(&self) -> Fingerprint {
        self.key
    }

    /// The AST the device executes: the source, or its optimised form, when
    /// there are no transforms, and otherwise a copy with each transform
    /// applied in order.  The first build of an optimising recipe clones the
    /// source and runs [`passes::optimize_traced`] into the session's cell,
    /// which every later optimising recipe of the session reuses.
    pub fn build(&self) -> Cow<'s, Program> {
        let base = match self.optimized {
            Some(cell) => cell.get_or_init(|| {
                let mut optimized = self.source.clone();
                passes::optimize_traced(&mut optimized);
                optimized
            }),
            None => self.source,
        };
        if self.transforms.is_empty() {
            return Cow::Borrowed(base);
        }
        let mut program = base.clone();
        for transform in &self.transforms {
            apply_miscompilation(&mut program, *transform);
        }
        Cow::Owned(program)
    }
}

/// Cache counters shared by one or more [`Session`]s.
///
/// Cheap to create; share one memo (via [`Rc`]) across the sessions of
/// related programs — e.g. the pruning variants of one EMI base — to count
/// their executions together.  Outcomes are not kept here but in the
/// campaign's [`OutcomeCache`].
#[derive(Debug, Default)]
pub struct ExecMemo {
    stats: MemoCounters,
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
    /// Equal to `launches`: no launch reuses another's lowered kernel.
    pub compiles: u64,
    /// Executions served from the campaign's outcome cache: by recipe key,
    /// or by live key when an earlier launch ran the same live program (an
    /// EMI variant that differs from it only in never-entered blocks, see
    /// [`clc_interp::live_fingerprint`]).
    pub outcome_hits: u64,
    /// Always 0: no launch reuses a lowered kernel.
    pub kernel_hits: u64,
    /// Always 0: every in-memory hit is a campaign-cache hit, counted in
    /// `outcome_hits`.
    pub shared_hits: u64,
    /// Executions served from the on-disk outcome store (after the
    /// campaign cache missed).
    pub store_hits: u64,
}

/// The cache-counter kinds, indexing both a memo's cells and the
/// process-wide atomic array, so the two cannot drift apart.
#[derive(Clone, Copy)]
enum Counter {
    Requests,
    Launches,
    OutcomeHits,
    StoreHits,
}

/// A memo's counters, indexed by [`Counter`].
#[derive(Debug, Default)]
struct MemoCounters([Cell<u64>; 4]);

/// Process-wide counters aggregated across every memo (all threads), for
/// benchmark and CI reporting — indexed by [`Counter`].
static PROCESS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];

impl MemoCounters {
    fn bump(&self, counter: Counter) {
        let cell = &self.0[counter as usize];
        cell.set(cell.get() + 1);
        PROCESS[counter as usize].fetch_add(1, Ordering::Relaxed);
    }
}

impl CacheStats {
    /// The snapshot of one count per [`Counter`].
    fn of(count: impl Fn(Counter) -> u64) -> CacheStats {
        let launches = count(Counter::Launches);
        CacheStats {
            requests: count(Counter::Requests),
            launches,
            compiles: launches,
            outcome_hits: count(Counter::OutcomeHits),
            kernel_hits: 0,
            shared_hits: 0,
            store_hits: count(Counter::StoreHits),
        }
    }
}

impl ExecMemo {
    /// An empty memo.
    pub fn new() -> ExecMemo {
        ExecMemo::default()
    }

    /// Counter snapshot for this memo.
    pub fn stats(&self) -> CacheStats {
        CacheStats::of(|counter| self.stats.0[counter as usize].get())
    }
}

/// Process-wide cache counters summed over every memo on every thread since
/// the process started.  Benchmarks read the difference across a campaign.
pub fn process_cache_stats() -> CacheStats {
    CacheStats::of(|counter| PROCESS[counter as usize].load(Ordering::Relaxed))
}

/// Number of lock stripes of an [`OutcomeCache`].
const STRIPES: usize = 16;

/// Maximum outcomes retained per stripe before FIFO eviction.
const STRIPE_CAP: usize = 4096;

type OutcomeKey = (Fingerprint, u64);

#[derive(Default)]
struct Stripe {
    outcomes: HashMap<OutcomeKey, TestOutcome>,
    order: VecDeque<OutcomeKey>,
}

/// A campaign's in-memory outcome cache: `(recipe key, exec key)` → the
/// outcome a launch produced.
///
/// A cheap-to-clone handle: clones share one cache, and since every job
/// clones its campaign's [`ExecOptions`], all jobs and scheduler workers of
/// a campaign share it.  Striping the locks by recipe key keeps worker
/// contention negligible, and a per-stripe FIFO bound keeps the footprint
/// fixed.  Only plain data crosses threads here.
#[derive(Clone, Default)]
pub struct OutcomeCache(Arc<[Mutex<Stripe>; STRIPES]>);

impl OutcomeCache {
    fn stripe(&self, key: &OutcomeKey) -> std::sync::MutexGuard<'_, Stripe> {
        self.0[(key.0 .0 as usize) % STRIPES]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, key: &OutcomeKey) -> Option<TestOutcome> {
        self.stripe(key).outcomes.get(key).cloned()
    }

    fn put(&self, key: OutcomeKey, outcome: TestOutcome) {
        let mut stripe = self.stripe(&key);
        if stripe.outcomes.insert(key, outcome).is_none() {
            stripe.order.push_back(key);
            if stripe.order.len() > STRIPE_CAP {
                if let Some(oldest) = stripe.order.pop_front() {
                    stripe.outcomes.remove(&oldest);
                }
            }
        }
    }
}

impl fmt::Debug for OutcomeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OutcomeCache")
    }
}

/// A per-kernel differential execution session.
///
/// Construction performs the per-kernel work exactly once — a single hash
/// pass capturing reusable hasher state ([`ProgramHasher`]) — and every
/// [`Session::execute`] call reuses it.  Feature detection runs lazily, at
/// most once.  The optimised AST is built at most once too, and only by the
/// first optimising [`Recipe`] the execution phase has to build: the front
/// end never optimises, so a session whose every target the caches answer
/// never runs the optimiser.  The execution phase is memoised through the
/// options' [`OutcomeCache`]: targets whose front end produces the same
/// [`Recipe`] (and identical execution-relevant options) share a single
/// emulator launch, across every session of the campaign.
///
/// Sessions are single-threaded by design (the campaign engine runs one
/// kernel job per worker); the memo of counters is [`Rc`]-based precisely
/// so it cannot leave its thread.
pub struct Session<'p> {
    program: &'p Program,
    hasher: ProgramHasher,
    base_fingerprint: Fingerprint,
    features: OnceCell<Features>,
    optimized: OnceCell<Program>,
    memo: Rc<ExecMemo>,
}

impl<'p> Session<'p> {
    /// A session over `program` with a fresh private memo.
    pub fn new(program: &'p Program) -> Session<'p> {
        Session::with_memo(program, Rc::new(ExecMemo::new()))
    }

    /// A session over `program` sharing `memo`, its counters, with other
    /// sessions (e.g. the pruning variants of one EMI base).
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

    /// The session's memo (its cache counters).
    pub fn memo(&self) -> &ExecMemo {
        &self.memo
    }

    /// Deterministic pseudo-probability in `[0, 1)` for a background
    /// outcome roll: bit-identical to hashing
    /// `(program, config.id, opt, salt)` from scratch, but reusing the
    /// captured program prefix.
    fn chance(&self, config: &Configuration, opt: OptLevel, salt: &str) -> f64 {
        let h = self.hasher.chain(&(config.id, opt, salt));
        (h % 1_000_000) as f64 / 1_000_000.0
    }

    /// The front-end phase: deterministic bug rules, background-rate rolls,
    /// whether to optimise and triggered miscompilations for one target.
    ///
    /// Pure per target — it touches no cache — and returns either a decided
    /// outcome or the [`Recipe`] of the AST to execute.  It never optimises
    /// or transforms an AST: [`Session::execute`] builds one only on a cache
    /// miss.
    pub fn compile(&self, config: &Configuration, opt: OptLevel) -> CompiledProgram<'_> {
        // --- Deterministic bug rules --------------------------------------
        let mut transforms = Vec::new();
        for rule in &config.rules {
            if !rule.applies(self.features(), self.program, opt) {
                continue;
            }
            match &rule.effect {
                BugEffect::BuildFailure(msg) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::BuildFailure(format!("{} [{}]", msg, rule.reference)),
                    }
                }
                BugEffect::CompileHang(_) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::Timeout,
                    }
                }
                BugEffect::RuntimeCrash(msg) => {
                    return CompiledProgram::Decided {
                        outcome: TestOutcome::Crash(format!("{} [{}]", msg, rule.reference)),
                    }
                }
                BugEffect::Miscompile(m) => transforms.push(*m),
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
            };
        }
        if self.chance(config, opt, "to") < rates.timeout {
            return CompiledProgram::Decided {
                outcome: TestOutcome::Timeout,
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
            };
        }

        // --- Compilation --------------------------------------------------
        let optimized = (opt == OptLevel::Enabled && config.optimizes).then_some(&self.optimized);
        if perturb {
            let salt = self.hasher.chain(&(config.id, "perturb"));
            transforms.push(Miscompilation::PerturbLiteral(salt));
        }
        CompiledProgram::Execute {
            recipe: Recipe::new(self.program, self.base_fingerprint, optimized, transforms),
        }
    }

    /// Compiles and executes the kernel on one target, sharing front-end
    /// state with every other target of this session and (when `exec.cache`
    /// is set) emulator launches with every session of the campaign.
    pub fn execute(
        &self,
        config: &Configuration,
        opt: OptLevel,
        exec: &ExecOptions,
    ) -> TestOutcome {
        self.memo.stats.bump(Counter::Requests);
        match self.compile(config, opt) {
            CompiledProgram::Decided { outcome } => outcome,
            CompiledProgram::Execute { recipe } => self.run(&recipe, exec),
        }
    }

    /// Executes on the reference emulator with no configuration-specific
    /// behaviour (the oracle used by the harness to sanity-check majorities
    /// and by the reducer), through the same memoised execution phase.
    pub fn reference_execute(&self, exec: &ExecOptions) -> TestOutcome {
        self.memo.stats.bump(Counter::Requests);
        let recipe = Recipe::new(self.program, self.base_fingerprint, None, Vec::new());
        self.run(&recipe, exec)
    }

    /// The execution phase: launch a recipe's AST, memoised by
    /// `(recipe key, exec-relevant options)` and by the AST's live key.
    ///
    /// Lookup order: the campaign cache, then the on-disk store (when one
    /// is configured), both by recipe key.  Only when both miss is the AST
    /// built; if it has a live key ([`clc_interp::live_fingerprint`], in a
    /// namespace of its own, see [`live_key`]), the campaign cache is tried
    /// by that key next, and a hit there is served as an outcome hit.
    /// Otherwise the AST is launched and its live key put into the cache.
    /// Either way the recipe key is then put into the cache and the store,
    /// so a warm store answers every recipe.  Outcomes are deterministic in
    /// either key with the exec key, so hits can never change a result.
    fn run(&self, recipe: &Recipe<'_>, exec: &ExecOptions) -> TestOutcome {
        let Some(cache) = &exec.cache else {
            return self.launch(&recipe.build(), exec);
        };
        let key = (recipe.key(), exec_key(exec));
        if let Some(hit) = cache.get(&key) {
            self.memo.stats.bump(Counter::OutcomeHits);
            return hit;
        }
        if let Some(hit) = exec.store.as_ref().and_then(|s| s.get(key.0, key.1)) {
            self.memo.stats.bump(Counter::StoreHits);
            cache.put(key, hit.clone());
            return hit;
        }
        let program = recipe.build();
        let live = clc_interp::live_fingerprint(&program, &exec.buffer_overrides)
            .map(|fingerprint| (live_key(fingerprint), key.1));
        let outcome = match live.and_then(|live| cache.get(&live)) {
            Some(hit) => {
                self.memo.stats.bump(Counter::OutcomeHits);
                hit
            }
            None => {
                let outcome = self.launch(&program, exec);
                if let Some(live) = live {
                    cache.put(live, outcome.clone());
                }
                outcome
            }
        };
        cache.put(key, outcome.clone());
        if let Some(store) = &exec.store {
            store.put(key.0, key.1, &outcome);
        }
        outcome
    }

    /// Launches a built AST.
    fn launch(&self, program: &Program, exec: &ExecOptions) -> TestOutcome {
        self.memo.stats.bump(Counter::Launches);
        launch_outcome(clc_interp::launch(program, &launch_options(exec)))
    }
}

/// The campaign-cache key of a live fingerprint: a hash of it under a tag,
/// so that no recipe key names a live entry (see the module docs).
fn live_key(fingerprint: Fingerprint) -> Fingerprint {
    let mut h = DefaultHasher::new();
    ("live", fingerprint).hash(&mut h);
    Fingerprint(h.finish())
}

/// Compiles and executes a kernel on a simulated configuration.
///
/// One-shot form of [`Session::execute`]; a caller fanning the same kernel
/// over many targets should hold a [`Session`] so the front end's
/// per-kernel work (features, hashing, the optimised AST) is shared across
/// the fan-out.
pub fn execute(
    program: &Program,
    config: &Configuration,
    opt: OptLevel,
    exec: &ExecOptions,
) -> TestOutcome {
    Session::new(program).execute(config, opt, exec)
}

/// Executes on the reference emulator with no configuration-specific
/// behaviour: one-shot form of [`Session::reference_execute`].
pub fn reference_execute(program: &Program, exec: &ExecOptions) -> TestOutcome {
    Session::new(program).reference_execute(exec)
}

/// Derives the emulator launch options for one execution.
fn launch_options(exec: &ExecOptions) -> LaunchOptions {
    LaunchOptions {
        step_limit: exec.step_limit,
        detect_races: exec.detect_races,
        schedule: exec.schedule,
        buffer_overrides: Arc::clone(&exec.buffer_overrides),
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

/// Hash of every execution option that can change a launch outcome — the
/// second half of the outcome-cache key.  Buffer overrides are folded in
/// key-sorted order so the value is independent of map iteration order.
/// `store` and `cache` are deliberately excluded: they select *where*
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
                cache: None,
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
        // The cache key must separate different exec options for the same
        // fingerprint: the same program with a different schedule or step
        // limit is a different cache line of the one shared cache.
        let p = trivial_program(2);
        let session = Session::new(&p);
        let fast = ExecOptions::default();
        let strict = ExecOptions {
            step_limit: 1, // tiny budget: the kernel times out
            ..fast.clone()
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
    }

    #[test]
    fn shared_memo_deduplicates_across_sessions_of_identical_programs() {
        // Two structurally identical programs behind one memo — the EMI
        // variant case — must share the launch and count it together.
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
    fn campaign_cache_and_store_serve_outcomes_across_sessions() {
        // Part 1 — one `ExecOptions` is one campaign: sessions with memos
        // of their own (i.e. jobs) share its cache.
        let q = trivial_program(11);
        let exec = ExecOptions::default();
        let a = Session::new(&q);
        let cold = a.reference_execute(&exec);
        assert_eq!(a.memo().stats().launches, 1);
        let b = Session::new(&q);
        assert_eq!(b.reference_execute(&exec), cold);
        let stats = b.memo().stats();
        assert_eq!((stats.launches, stats.outcome_hits), (0, 1));
        // Fresh options are a fresh campaign, whose cache starts empty.
        let fresh = Session::new(&q);
        assert_eq!(fresh.reference_execute(&ExecOptions::default()), cold);
        assert_eq!(fresh.memo().stats().launches, 1);

        // Part 2 — the on-disk store survives a simulated process death
        // (fresh options over a reopened store) and back-fills the new
        // campaign's cache.
        let dir =
            std::env::temp_dir().join(format!("clfuzz-platform-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = trivial_program(12);
        let store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let exec = ExecOptions {
            store: Some(Arc::clone(&store)),
            ..ExecOptions::default()
        };
        let launching = Session::new(&p);
        let first = launching.reference_execute(&exec);
        assert_eq!(store.stats().writes, 1);
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
        let third = Session::new(&p);
        assert_eq!(third.reference_execute(&exec), first);
        assert_eq!(third.memo().stats().outcome_hits, 1);
        let read = reopened.stats();
        assert_eq!(
            (read.hits, read.misses),
            (1, 0),
            "served with no store read"
        );

        // Part 3 — no cache: every execution launches, and a configured
        // store is neither read nor written.
        let off = ExecOptions {
            cache: None,
            ..exec.clone()
        };
        let r = trivial_program(13);
        let session = Session::new(&r);
        assert_eq!(
            session.reference_execute(&off),
            session.reference_execute(&off)
        );
        assert_eq!(session.memo().stats().launches, 2);
        assert_eq!(reopened.stats(), read);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emi_variants_launch_once_per_live_program_and_store_every_recipe() {
        use clsmith::{generate, prune_variant, GenMode, GeneratorOptions, PruneProbabilities};
        use std::collections::HashSet;
        let base = generate(
            &GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::new(GenMode::All, 5)
            }
            .with_emi(),
        );
        // The variant whose EMI bodies are all empty: its recipe key is the
        // base's live fingerprint.
        let mut emptied = base.clone();
        emptied.for_each_block_mut(&mut |block| {
            for stmt in &mut block.stmts {
                if let Stmt::Emi(emi) = stmt {
                    emi.body = clc::Block::new();
                }
            }
        });
        let none = HashMap::new();
        assert_eq!(
            clc_interp::live_fingerprint(&base, &none),
            Some(emptied.fingerprint())
        );
        let mut programs = vec![base.clone(), emptied.clone()];
        for (i, probs) in PruneProbabilities::table5_combinations()
            .iter()
            .enumerate()
            .step_by(7)
        {
            programs.push(prune_variant(&base, probs, i as u64));
        }
        let targets: Vec<(Configuration, OptLevel)> = all_configurations()
            .into_iter()
            .flat_map(|c| OptLevel::BOTH.map(|o| (c.clone(), o)))
            .collect();
        // One pass: every program on every target, then the reference run,
        // all counted by one memo.
        let pass = |exec: &ExecOptions| {
            let memo = Rc::new(ExecMemo::new());
            let outcomes: Vec<TestOutcome> = programs
                .iter()
                .flat_map(|program| {
                    let session = Session::with_memo(program, Rc::clone(&memo));
                    let mut outcomes: Vec<TestOutcome> = targets
                        .iter()
                        .map(|(config, opt)| session.execute(config, *opt, exec))
                        .collect();
                    outcomes.push(session.reference_execute(exec));
                    outcomes
                })
                .collect();
            (outcomes, memo.stats())
        };

        let dir = std::env::temp_dir().join(format!("clfuzz-platform-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let exec = ExecOptions {
            store: Some(Arc::clone(&store)),
            ..ExecOptions::default()
        };
        let (outcomes, stats) = pass(&exec);

        // Launches: one per live program, or per recipe where the built AST
        // has no live key.  Writes: one per recipe, under its own key.
        let mut recipes = HashSet::new();
        let mut launched = HashSet::new();
        for program in &programs {
            let session = Session::new(program);
            let recipes_of = targets
                .iter()
                .filter_map(|(config, opt)| match session.compile(config, *opt) {
                    CompiledProgram::Execute { recipe, .. } => Some(recipe),
                    CompiledProgram::Decided { .. } => None,
                })
                .chain([Recipe::new(
                    program,
                    program.fingerprint(),
                    None,
                    Vec::new(),
                )]);
            for recipe in recipes_of {
                let live = clc_interp::live_fingerprint(&recipe.build(), &none);
                launched.insert(live.ok_or(recipe.key()));
                recipes.insert(recipe.key());
            }
        }
        assert_eq!(stats.launches, launched.len() as u64);
        assert!(
            stats.launches * 2 < recipes.len() as u64,
            "{} launches for {} recipes",
            stats.launches,
            recipes.len()
        );
        assert_eq!(store.stats().writes, recipes.len() as u64);
        assert_eq!(store.stats().misses, recipes.len() as u64);

        // A reopened store answers every recipe under its own key, the
        // emptied variant's included, without a miss, a write or a launch.
        let reopened = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let key = exec_key(&exec);
        for &recipe in &recipes {
            assert!(
                reopened.get(recipe, key).is_some(),
                "recipe {recipe} not stored"
            );
        }
        assert!(recipes.contains(&emptied.fingerprint()));
        let reopened = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let warm = ExecOptions {
            store: Some(Arc::clone(&reopened)),
            ..ExecOptions::default()
        };
        let (warm_outcomes, warm_stats) = pass(&warm);
        assert_eq!(warm_outcomes, outcomes);
        assert_eq!(warm_stats.launches, 0);
        let read = reopened.stats();
        assert_eq!((read.misses, read.writes), (0, 0));

        // Without a cache every execution launches, and nothing is keyed.
        let off = ExecOptions {
            cache: None,
            ..exec.clone()
        };
        let (cold_outcomes, cold_stats) = pass(&off);
        assert_eq!(cold_outcomes, outcomes);
        let decided = stats.requests - stats.launches - stats.outcome_hits - stats.store_hits;
        assert_eq!(cold_stats.launches, cold_stats.requests - decided);
        assert_eq!(store.stats().writes, recipes.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn front_end_reuses_the_optimised_ast_across_targets() {
        let p = trivial_program(6);
        let session = Session::new(&p);
        // Two optimising configurations at the enabled level: both name the
        // session's optimised AST (same key) unless a miscompilation or
        // perturbation applies.
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
            cache: None,
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
                    let source_fingerprint = recipe.source.fingerprint();
                    let transforms = &recipe.transforms;
                    let optimizes = recipe.optimized.is_some();
                    *transformed_by_mode.entry(mode).or_insert(0) +=
                        usize::from(!transforms.is_empty());
                    assert_eq!(
                        recipe.key() == source_fingerprint,
                        !optimizes && transforms.is_empty(),
                        "the key is the source fingerprint exactly when the recipe neither optimises nor transforms: {transforms:?}"
                    );
                    // Equal recipes share a key, and a key names one recipe.
                    let again = Recipe::new(
                        recipe.source,
                        source_fingerprint,
                        recipe.optimized,
                        transforms.clone(),
                    );
                    assert_eq!(again.key(), recipe.key());
                    let identity = (source_fingerprint, optimizes, transforms.clone());
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
                            let resalted = Recipe::new(
                                recipe.source,
                                source_fingerprint,
                                recipe.optimized,
                                resalted,
                            );
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

    #[test]
    fn recipe_keys_name_the_source_the_optimiser_and_the_transforms() {
        // Sessions over equal programs name every target alike.
        let (a, b) = (trivial_program(8), trivial_program(8));
        let (sa, sb) = (Session::new(&a), Session::new(&b));
        for config in all_configurations() {
            for opt in OptLevel::BOTH {
                match (sa.compile(&config, opt), sb.compile(&config, opt)) {
                    (
                        CompiledProgram::Execute { recipe: ra },
                        CompiledProgram::Execute { recipe: rb },
                    ) => assert_eq!(ra.key(), rb.key(), "config {} {opt}", config.id),
                    (
                        CompiledProgram::Decided { outcome: x },
                        CompiledProgram::Decided { outcome: y },
                    ) => {
                        assert_eq!(x, y, "config {} {opt}", config.id)
                    }
                    other => panic!("config {} {opt}: {other:?}", config.id),
                }
            }
        }
        // Optimising gets a key of its own, whatever the transforms, and
        // naming a recipe never runs the optimiser.
        let other = trivial_program(9);
        let cell = OnceCell::new();
        for transforms in [Vec::new(), vec![Miscompilation::PerturbLiteral(1)]] {
            let source = Recipe::new(&a, sa.fingerprint(), None, transforms.clone());
            let optimised = Recipe::new(&a, sa.fingerprint(), Some(&cell), transforms.clone());
            assert_ne!(source.key(), optimised.key(), "{transforms:?}");
            let elsewhere = Recipe::new(&other, other.fingerprint(), Some(&cell), transforms);
            assert_ne!(elsewhere.key(), optimised.key());
        }
        assert!(cell.get().is_none(), "a key was computed by optimising");
    }

    #[test]
    fn warm_store_answers_every_target_without_optimising() {
        use clsmith::{generate, GenMode, GeneratorOptions};
        let programs: Vec<Program> = GenMode::ALL
            .into_iter()
            .flat_map(|mode| (0..2u64).map(move |seed| (mode, seed)))
            .map(|(mode, seed)| {
                generate(&GeneratorOptions {
                    min_threads: 16,
                    max_threads: 64,
                    ..GeneratorOptions::new(mode, seed)
                })
            })
            .collect();
        let targets: Vec<(Configuration, OptLevel)> = all_configurations()
            .into_iter()
            .flat_map(|c| OptLevel::BOTH.map(|o| (c.clone(), o)))
            .collect();
        // One pass: fresh sessions run every program on every target, and
        // each reports whether it built its optimised AST.
        let pass = |exec: &ExecOptions| {
            let memo = Rc::new(ExecMemo::new());
            let mut outcomes = Vec::new();
            let mut optimised = Vec::new();
            for program in &programs {
                let session = Session::with_memo(program, Rc::clone(&memo));
                outcomes.extend(
                    targets
                        .iter()
                        .map(|(config, opt)| session.execute(config, *opt, exec)),
                );
                optimised.push(session.optimized.get().is_some());
            }
            (outcomes, optimised, memo.stats())
        };

        let dir = std::env::temp_dir().join(format!("clfuzz-platform-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let cold = ExecOptions {
            store: Some(Arc::clone(&store)),
            ..ExecOptions::default()
        };
        let (outcomes, optimised, stats) = pass(&cold);
        assert!(stats.launches > 0);
        assert!(
            optimised.iter().any(|&built| built),
            "no cold session optimised"
        );

        let reopened = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let warm = ExecOptions {
            store: Some(Arc::clone(&reopened)),
            ..ExecOptions::default()
        };
        let (warm_outcomes, warm_optimised, warm_stats) = pass(&warm);
        assert_eq!(warm_outcomes, outcomes);
        assert_eq!(warm_stats.launches, 0);
        let read = reopened.stats();
        assert_eq!((read.misses, read.writes), (0, 0));
        assert!(read.hits > 0);
        assert!(
            !warm_optimised.iter().any(|&built| built),
            "a warm session optimised: {warm_optimised:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
