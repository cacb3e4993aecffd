//! Throughput benchmarks (dependency-free, `harness = false`): generator and
//! emulator hot paths — including the execution-tier axis (tree-walk vs
//! bytecode) with a cross-tier result-hash check — plus the headline
//! measurement for the parallel campaign engine: how mode-campaign
//! wall-clock scales with worker count, together with a byte-identity check
//! of the rendered table at 1 vs 8 workers.
//!
//! Run with `cargo bench -p bench` (add `-- --quick` for a faster pass, and
//! `-- --json PATH` to dump every recorded metric as a flat JSON object for
//! CI artifacts and the `BENCH_*` trajectory).

use std::time::{Duration, Instant};

use clsmith::{generate, prune_variant, GenMode, GeneratorOptions, PruneProbabilities};
use fuzz_harness::shard::{JournalOptions, Mergeable, ShardSelect};
use fuzz_harness::{
    render_campaign_table, run_mode_campaign_with, run_modes_campaign_sharded, run_on_targets,
    targets_for, CampaignOptions, Job, MultiModeTally, Scheduler,
};
use opencl_sim::{configuration, execute, ExecOptions, ExecutionTier, OptLevel, OutcomeStore};
use std::sync::Arc;

/// Flat metric sink rendered to JSON at the end of the run (no external
/// serialisation dependencies, so the values are written by hand).
#[derive(Default)]
struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    fn record(&mut self, key: impl Into<String>, value: f64) {
        self.entries.push((key.into(), value));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            // Keys are bench-internal identifiers (no quoting hazards).
            out.push_str(&format!("  \"{key}\": {value}{sep}\n"));
        }
        out.push('}');
        out
    }
}

fn small_opts(mode: GenMode, seed: u64) -> GeneratorOptions {
    GeneratorOptions {
        min_threads: 16,
        max_threads: 48,
        ..GeneratorOptions::new(mode, seed)
    }
}

/// Times `iters` runs of `f` and returns the mean per-iteration duration.
fn time<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters.max(1) as u32
}

fn bench_generation(iters: usize, metrics: &mut Metrics) {
    println!("generation (mean over {iters} kernels per mode)");
    for mode in GenMode::ALL {
        let mut seed = 0u64;
        let per = time(iters, || {
            seed += 1;
            std::hint::black_box(generate(&small_opts(mode, seed)));
        });
        println!("  {:<18} {:>10.1?}/kernel", mode.name(), per);
        metrics.record(
            format!("generation_{}_us", mode.name().replace(' ', "_")),
            per.as_secs_f64() * 1e6,
        );
    }
}

/// The emulator hot path across the execution-tier axis: mean latency and
/// kernels/sec per tier on the default workload, with and without race
/// detection, plus the bytecode-over-tree-walk speedup.  Also asserts the
/// tiers produce the same result hash, so CI catches tier regressions even
/// in the smoke configuration.
fn bench_emulation(iters: usize, metrics: &mut Metrics) {
    println!("emulation (mean over {iters} runs, per execution tier)");
    let program = generate(&small_opts(GenMode::All, 7));
    let mut plain_latency = [Duration::ZERO; 2];
    let mut reference_hash: Option<u64> = None;
    for (t, tier) in ExecutionTier::ALL.into_iter().enumerate() {
        for (label, detect_races) in [("plain", false), ("race-detect", true)] {
            let options = clc_interp::LaunchOptions {
                detect_races,
                tier,
                ..clc_interp::LaunchOptions::default()
            };
            let hash = clc_interp::launch(&program, &options).unwrap().result_hash;
            match reference_hash {
                None => reference_hash = Some(hash),
                Some(h) => assert_eq!(h, hash, "tiers disagree on the bench kernel"),
            }
            let per = time(iters, || {
                std::hint::black_box(clc_interp::launch(&program, &options).unwrap());
            });
            println!("  {:<11} {label:<12} {per:>10.1?}/run", tier.name());
            let key = format!(
                "emulation_{}_{}_us",
                tier.name().replace('-', "_"),
                label.replace('-', "_")
            );
            metrics.record(key, per.as_secs_f64() * 1e6);
            if !detect_races {
                plain_latency[t] = per;
                metrics.record(
                    format!("kernels_per_sec_{}", tier.name().replace('-', "_")),
                    1.0 / per.as_secs_f64(),
                );
            }
        }
    }
    let speedup = plain_latency[0].as_secs_f64() / plain_latency[1].as_secs_f64();
    println!("  bytecode speedup over tree-walk: ×{speedup:.2}");
    metrics.record("tier_speedup_bytecode_over_tree_walk", speedup);
}

/// The interpreter hot-path axes: kernels/sec on a fixed-seed workload with
/// the scalar register file active (`interp_register_*`, plain launches on
/// the bytecode tier, where private scalars live in per-frame registers) and
/// with the shadow-memory race detector recording every shared access
/// (`race_shadow_*`).  Before timing, every kernel in the workload is pinned
/// byte-identical — result strings and race verdicts — against the
/// tree-walking reference tier, which has neither optimisation, so the
/// reported numbers can never drift from the unoptimised semantics.
fn bench_hot_paths(kernels: usize, iters: usize, metrics: &mut Metrics) {
    println!(
        "interpreter hot paths ({kernels} kernels × {iters} runs, register file + shadow detector)"
    );
    let programs: Vec<clc::Program> = (0..kernels)
        .map(|i| generate(&small_opts(GenMode::All, 0xF00D + i as u64)))
        .collect();

    // Byte-identity pin against the reference tier, plus the register file's
    // structural effect: registers allocated at compile time and launch
    // object allocations saved relative to the tree walker.
    let mut registers = 0usize;
    let mut tree_allocs = 0u64;
    let mut vm_allocs = 0u64;
    let mut shadow_accesses = 0u64;
    let mut shadow_arrays = 0u64;
    let mut epoch_bumps = 0u64;
    for program in &programs {
        registers += clc_interp::compile(program).register_count();
        for detect_races in [false, true] {
            let options = |tier| clc_interp::LaunchOptions {
                detect_races,
                tier,
                ..clc_interp::LaunchOptions::default()
            };
            let tree = clc_interp::launch(program, &options(ExecutionTier::TreeWalk)).unwrap();
            let vm = clc_interp::launch(program, &options(ExecutionTier::Bytecode)).unwrap();
            assert_eq!(
                tree.result_string, vm.result_string,
                "register-file tier diverged from the reference result"
            );
            assert_eq!(
                tree.race, vm.race,
                "shadow detector diverged from the reference race verdict"
            );
            if detect_races {
                let stats = vm.race_stats.unwrap_or_default();
                shadow_accesses += stats.accesses;
                shadow_arrays += stats.shadow_arrays;
                epoch_bumps += stats.epoch_bumps;
            } else {
                tree_allocs += tree.objects_allocated;
                vm_allocs += vm.objects_allocated;
            }
        }
    }

    let mut per_axis = [0.0f64; 2];
    for (a, (axis, detect_races)) in [("interp_register", false), ("race_shadow", true)]
        .into_iter()
        .enumerate()
    {
        let options = clc_interp::LaunchOptions {
            detect_races,
            tier: ExecutionTier::Bytecode,
            ..clc_interp::LaunchOptions::default()
        };
        let start = Instant::now();
        for _ in 0..iters {
            for program in &programs {
                std::hint::black_box(clc_interp::launch(program, &options).unwrap());
            }
        }
        let elapsed = start.elapsed();
        per_axis[a] = (kernels * iters) as f64 / elapsed.as_secs_f64();
        println!(
            "  {axis:<15} {:>10.1?} total   {:>8.2} kernels/sec",
            elapsed, per_axis[a]
        );
        metrics.record(format!("{axis}_kernels_per_sec"), per_axis[a]);
    }
    let alloc_ratio = vm_allocs as f64 / tree_allocs.max(1) as f64;
    println!(
        "  registers/kernel {:.1}   allocations vm/tree {vm_allocs}/{tree_allocs} (×{alloc_ratio:.2})   shadow accesses {shadow_accesses} over {shadow_arrays} arrays, {epoch_bumps} epoch bumps",
        registers as f64 / kernels as f64,
    );
    metrics.record(
        "interp_register_count_mean",
        registers as f64 / kernels as f64,
    );
    metrics.record("interp_register_alloc_ratio", alloc_ratio);
    metrics.record("race_shadow_accesses", shadow_accesses as f64);
    metrics.record("race_shadow_arrays", shadow_arrays as f64);
    metrics.record("race_shadow_epoch_bumps", epoch_bumps as f64);
    assert!(
        vm_allocs < tree_allocs,
        "the register file should allocate strictly fewer objects than the tree walker ({vm_allocs} vs {tree_allocs})"
    );
}

fn bench_simulated_platform(iters: usize) {
    println!("simulated platform (compile+run, mean over {iters} runs)");
    let program = generate(&small_opts(GenMode::Barrier, 3));
    for id in [1usize, 12, 19] {
        let config = configuration(id);
        let per = time(iters, || {
            std::hint::black_box(execute(
                &program,
                &config,
                OptLevel::Enabled,
                &ExecOptions::default(),
            ));
        });
        println!("  config {id:<11} {per:>10.1?}/run");
    }
}

fn bench_emi_pruning(iters: usize) {
    println!("emi pruning (mean over {iters} variants)");
    let base = generate(&small_opts(GenMode::All, 11).with_emi());
    let probs = PruneProbabilities::new(0.3, 0.3, 0.3).unwrap();
    let mut seed = 0u64;
    let per = time(iters, || {
        seed += 1;
        std::hint::black_box(prune_variant(&base, &probs, seed));
    });
    println!("  prune-variant      {per:>10.1?}/variant");
}

/// The campaign-engine scaling measurement: the same fixed-seed mode campaign
/// at 1, 2, 4 and 8 workers.  Prints wall-clock and speedup per worker count
/// and asserts that the rendered table is byte-identical at 1 and 8 workers.
fn bench_campaign_scaling(kernels: usize, metrics: &mut Metrics) {
    let configs = vec![
        configuration(1),
        configuration(9),
        configuration(14),
        configuration(19),
    ];
    let options = CampaignOptions {
        kernels,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        exec: ExecOptions::default(),
        seed_offset: 0xBEEF,
        prefilter: false,
    };
    println!("campaign scaling (BARRIER mode, {kernels} kernels, 8 targets)");
    let mut baseline: Option<Duration> = None;
    let mut tables: Vec<(usize, String)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let scheduler = Scheduler::new(workers);
        // Clear the process-wide outcome cache so every worker count does
        // the same cold work — otherwise run 2 onwards would measure cache
        // reads, not scheduler scaling.
        opencl_sim::reset_shared_outcome_cache();
        let start = Instant::now();
        let result = run_mode_campaign_with(&scheduler, GenMode::Barrier, &configs, &options);
        let elapsed = start.elapsed();
        let speedup = baseline
            .map(|b| b.as_secs_f64() / elapsed.as_secs_f64())
            .unwrap_or(1.0);
        baseline.get_or_insert(elapsed);
        println!("  {workers} worker(s)        {elapsed:>10.1?}   speedup ×{speedup:.2}");
        metrics.record(
            format!("campaign_{workers}_workers_ms"),
            elapsed.as_secs_f64() * 1e3,
        );
        tables.push((workers, render_campaign_table(&result)));
    }
    let one = &tables.iter().find(|(w, _)| *w == 1).unwrap().1;
    let eight = &tables.iter().find(|(w, _)| *w == 8).unwrap().1;
    assert_eq!(one, eight, "tables diverged between 1 and 8 workers");
    println!(
        "  tables at 1 and 8 workers: byte-identical ({} bytes)",
        one.len()
    );
}

/// The deduplicated-differential-execution measurement: the default
/// differential workload (every Table 1 configuration at both optimisation
/// levels — the full 42-target fan-out) with the execution memo off and on.
/// Reports kernels/sec both ways, the dedupe speedup, real emulator
/// launches per kernel and the compile-cache hit rate, and asserts that the
/// deduplicated outcomes hash-match the uncached baseline — so CI's smoke
/// run catches both cache-correctness and dedupe regressions.
fn bench_differential_dedupe(kernels: usize, metrics: &mut Metrics) {
    println!("differential dedupe ({kernels} kernels × 42 targets, memo off vs on)");
    let configs = opencl_sim::all_configurations();
    let targets = targets_for(&configs);
    let programs: Vec<clc::Program> = (0..kernels)
        .map(|i| generate(&small_opts(GenMode::All, 0x5EED + i as u64)))
        .collect();
    let mut hashes: Vec<u64> = Vec::new();
    let mut kernels_per_sec = [0.0f64; 2];
    for (m, memoize) in [false, true].into_iter().enumerate() {
        let exec = ExecOptions {
            memoize,
            store: None,
            ..ExecOptions::default()
        };
        // Every pass starts cold at every cache level, so "memo on" measures
        // the per-process dedupe machinery itself, not leftovers.
        opencl_sim::reset_shared_outcome_cache();
        opencl_sim::reset_process_cache_stats();
        let start = Instant::now();
        let mut outcome_hash = 0u64;
        for program in &programs {
            for outcome in run_on_targets(program, &targets, &exec) {
                // Order-sensitive running hash over every outcome.
                let h = clc::fnv1a(format!("{outcome:?}").as_bytes());
                outcome_hash = outcome_hash.rotate_left(7) ^ h;
            }
        }
        let elapsed = start.elapsed();
        let stats = opencl_sim::process_cache_stats();
        hashes.push(outcome_hash);
        kernels_per_sec[m] = kernels as f64 / elapsed.as_secs_f64();
        let label = if memoize { "memo on " } else { "memo off" };
        let launches_per_kernel = stats.launches as f64 / kernels as f64;
        println!(
            "  {label}   {:>10.1?} total   {:>7.2} kernels/sec   {launches_per_kernel:>5.1} launches/kernel   compile hit rate {:.2}",
            elapsed,
            kernels_per_sec[m],
            stats.compile_hit_rate(),
        );
        let key = if memoize { "memo_on" } else { "memo_off" };
        metrics.record(format!("dedupe_{key}_kernels_per_sec"), kernels_per_sec[m]);
        if memoize {
            metrics.record("launches_per_kernel", launches_per_kernel);
            metrics.record("compile_cache_hit_rate", stats.compile_hit_rate());
        }
    }
    assert_eq!(
        hashes[0], hashes[1],
        "deduplicated outcomes diverged from the uncached baseline"
    );
    let speedup = kernels_per_sec[1] / kernels_per_sec[0];
    println!("  dedupe speedup over cold execution: ×{speedup:.2} (outcomes hash-match)");
    metrics.record("dedupe_speedup", speedup);
}

/// The cross-campaign outcome-store measurement: the same fixed-seed
/// differential workload run three ways — store off, cold store (fresh
/// directory) and warm store (a second pass over the same directory with
/// the in-memory cache levels cleared, modelling a fresh process).  Asserts
/// the outcome hash-stream is identical in all three passes — the
/// store-equivalence invariant CI pins in its smoke run — and reports the
/// store counters plus the warm-over-cold speedup.
fn bench_store(kernels: usize, metrics: &mut Metrics) {
    println!("outcome store ({kernels} kernels × 42 targets, off vs cold vs warm)");
    let configs = opencl_sim::all_configurations();
    let targets = targets_for(&configs);
    let programs: Vec<clc::Program> = (0..kernels)
        .map(|i| generate(&small_opts(GenMode::All, 0xCA5E + i as u64)))
        .collect();
    let dir = std::env::temp_dir().join(format!("clfuzz-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut hashes: Vec<u64> = Vec::new();
    let mut kernels_per_sec = [0.0f64; 3];
    let mut cold_misses = 0u64;
    for (pass, label) in ["off", "cold", "warm"].into_iter().enumerate() {
        let store = if label == "off" {
            None
        } else {
            Some(Arc::new(
                OutcomeStore::open_with_cap(&dir, u64::MAX).expect("open bench store"),
            ))
        };
        let exec = ExecOptions {
            store: store.clone(),
            ..ExecOptions::default()
        };
        // Clearing the in-memory levels makes every pass process-cold: the
        // warm pass can only be fast through the on-disk store.
        opencl_sim::reset_shared_outcome_cache();
        opencl_sim::reset_process_cache_stats();
        let start = Instant::now();
        let mut outcome_hash = 0u64;
        for program in &programs {
            for outcome in run_on_targets(program, &targets, &exec) {
                let h = clc::fnv1a(format!("{outcome:?}").as_bytes());
                outcome_hash = outcome_hash.rotate_left(7) ^ h;
            }
        }
        let elapsed = start.elapsed();
        hashes.push(outcome_hash);
        kernels_per_sec[pass] = kernels as f64 / elapsed.as_secs_f64();
        let process = opencl_sim::process_cache_stats();
        let stats = store.as_ref().map(|s| s.stats()).unwrap_or_default();
        println!(
            "  store {label:<5} {elapsed:>10.1?} total   {:>7.2} kernels/sec   store hits/misses {}/{}   outcome hit rate {:.2}",
            kernels_per_sec[pass],
            stats.hits,
            stats.misses,
            process.outcome_hit_rate(),
        );
        match label {
            "cold" => cold_misses = stats.misses,
            "warm" => {
                assert_eq!(
                    process.launches, 0,
                    "a warm store must serve every execution without a launch"
                );
                metrics.record("store_hits", stats.hits as f64);
                metrics.record("store_misses", cold_misses as f64);
                metrics.record("store_evictions", stats.evictions as f64);
                metrics.record("store_bytes", stats.bytes as f64);
                metrics.record("store_warm_kernels_per_sec", kernels_per_sec[pass]);
            }
            _ => {}
        }
    }
    assert!(
        hashes.iter().all(|h| *h == hashes[0]),
        "outcome stream diverged across store off/cold/warm passes"
    );
    let speedup = kernels_per_sec[2] / kernels_per_sec[1];
    println!("  warm-over-cold speedup: ×{speedup:.2} (outcomes hash-match in all passes)");
    metrics.record("store_speedup_warm_over_cold", speedup);
    assert!(
        speedup > 2.0,
        "warm store should beat the cold pass by >2x, got ×{speedup:.2}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shard/journal layer measurement: a fixed-seed mode campaign run
/// three ways — single process, 3 shards merged, and killed-then-resumed —
/// with the journaling overhead and resume bookkeeping reported next to
/// the `dedupe_*` axes (`jobs_resumed`, `jobs_replayed`, `journal_bytes`,
/// `shard_count` in the JSON).  Asserts all three rendered tables are
/// byte-identical, so CI's smoke run pins the shard/merge/resume
/// invariant too.
fn bench_shard_resume(kernels: usize, metrics: &mut Metrics) {
    println!("shard/resume (BARRIER mode, {kernels} kernels, 3 shards + kill/resume)");
    let configs = vec![configuration(1), configuration(19)];
    let options = CampaignOptions {
        kernels,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        exec: ExecOptions::default(),
        seed_offset: 0x54A2D,
        prefilter: false,
    };
    let modes = [GenMode::Barrier];
    let scheduler = Scheduler::new(4);
    let temp = |name: &str| {
        std::env::temp_dir().join(format!("clfuzz-bench-{}-{name}.log", std::process::id()))
    };

    // Reference: the plain single-process campaign.  Each timed phase
    // starts with a cold process-wide cache so the comparison measures the
    // shard/journal machinery, not cache reads of the previous phase.
    opencl_sim::reset_shared_outcome_cache();
    let start = Instant::now();
    let single = run_mode_campaign_with(&scheduler, GenMode::Barrier, &configs, &options);
    let plain = start.elapsed();
    let reference = render_campaign_table(&single);

    // 3 journaled shards, merged in memory (disjoint job spaces, so one
    // reset for the whole loop keeps them mutually cold).
    let mut paths = Vec::new();
    let mut tally: Option<MultiModeTally> = None;
    let mut journal_bytes = 0u64;
    opencl_sim::reset_shared_outcome_cache();
    let start = Instant::now();
    for index in 0..3u32 {
        let path = temp(&format!("shard{index}"));
        let shard = run_modes_campaign_sharded(
            &scheduler,
            &modes,
            &configs,
            &options,
            ShardSelect { index, count: 3 },
            Some(&JournalOptions::create(&path)),
        )
        .expect("sharded campaign");
        journal_bytes += shard.metrics.journal_bytes;
        match &mut tally {
            None => tally = Some(shard.tally),
            Some(t) => t.merge(shard.tally),
        }
        paths.push(path);
    }
    let sharded_elapsed = start.elapsed();
    let tally = tally.expect("shards ran");
    let merged = fuzz_harness::CampaignResult {
        mode: GenMode::Barrier,
        kernels: tally.per_mode[0].kernels(),
        targets: targets_for(&configs),
        stats: tally.per_mode[0].per_target.clone(),
    };
    assert_eq!(
        render_campaign_table(&merged),
        reference,
        "3-shard merge diverged from the single run"
    );

    // Kill after half the jobs (torn final record), resume from the journal.
    let journal = temp("resume");
    opencl_sim::reset_shared_outcome_cache();
    run_modes_campaign_sharded(
        &scheduler,
        &modes,
        &configs,
        &options,
        ShardSelect::whole(),
        Some(&JournalOptions::create(&journal)),
    )
    .expect("full journaled campaign");
    let keep = kernels / 2;
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let bytes: usize = text.lines().take(1 + keep).map(|l| l.len() + 1).sum();
    let mut raw = text.into_bytes();
    raw.truncate(bytes + 11); // a torn half-record survives the kill
    std::fs::write(&journal, raw).expect("truncate journal");
    opencl_sim::reset_shared_outcome_cache();
    let start = Instant::now();
    let resumed = run_modes_campaign_sharded(
        &scheduler,
        &modes,
        &configs,
        &options,
        ShardSelect::whole(),
        Some(&JournalOptions::resume(&journal)),
    )
    .expect("resumed campaign");
    let resume_elapsed = start.elapsed();
    assert_eq!(
        render_campaign_table(&resumed.results[0]),
        reference,
        "resumed campaign diverged from the single run"
    );
    assert_eq!(resumed.metrics.jobs_resumed, keep as u64);

    println!(
        "  plain              {plain:>10.1?}   sharded(3) {sharded_elapsed:>10.1?}   resume({}/{kernels} journaled) {resume_elapsed:>10.1?}",
        keep
    );
    println!(
        "  journal overhead: {journal_bytes} byte(s) across 3 shard journals; tables byte-identical"
    );
    metrics.record("shard_count", 3.0);
    metrics.record("jobs_resumed", resumed.metrics.jobs_resumed as f64);
    metrics.record("jobs_replayed", resumed.metrics.jobs_replayed as f64);
    metrics.record(
        "journal_bytes",
        (journal_bytes + resumed.metrics.journal_bytes) as f64,
    );
    paths.push(journal);
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// A fixed-latency job, standing in for campaign work whose cost is
/// wall-clock rather than CPU (e.g. driving a real OpenCL device, where the
/// harness waits on the GPU).
struct LatencyJob(Duration);

impl Job for LatencyJob {
    type Output = ();
    fn run(self) {
        std::thread::sleep(self.0);
    }
}

/// Demonstrates that the scheduler genuinely overlaps job execution: 16
/// fixed-latency jobs at 4 workers must finish at least twice as fast as at
/// 1 worker.  Unlike [`bench_campaign_scaling`] this holds on any machine —
/// including single-core CI boxes, where a CPU-bound campaign cannot
/// physically speed up no matter how it is scheduled.
/// The `analysis_*` axes: analyzer-only throughput, verdict-class rejection
/// rates, and the wall-clock effect of static pre-filtering on a campaign.
fn bench_analysis(kernels: usize, metrics: &mut Metrics) {
    println!("static analysis ({kernels} kernels per mode)");
    let programs: Vec<_> = GenMode::ALL
        .iter()
        .flat_map(|&mode| (0..kernels as u64).map(move |seed| generate(&small_opts(mode, seed))))
        .collect();
    let mut tally: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let start = Instant::now();
    for program in &programs {
        let report = clsmith::validate(std::hint::black_box(program));
        *tally.entry(report.verdict()).or_insert(0) += 1;
    }
    let elapsed = start.elapsed();
    let per_sec = programs.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    println!("  analyzer alone     {per_sec:>10.0} kernels/s");
    metrics.record("analysis_kernels_per_sec", per_sec);
    let certified = *tally.get("clean").unwrap_or(&0)
        + tally
            .iter()
            .filter(|(k, _)| !matches!(**k, "clean" | "divergence" | "must-race" | "may-race"))
            .map(|(_, n)| n)
            .sum::<usize>();
    for (verdict, count) in &tally {
        let pct = 100.0 * *count as f64 / programs.len() as f64;
        println!("  verdict {verdict:<12} {pct:>9.1}%");
        metrics.record(format!("analysis_pct_{}", verdict.replace('-', "_")), pct);
    }
    metrics.record(
        "analysis_pct_certified",
        100.0 * certified as f64 / programs.len() as f64,
    );

    // Campaign wall-clock with the pre-filter off vs on (same seeds, same
    // targets; the on pass skips whatever the analyzer refuses to certify).
    let configs = vec![configuration(1), configuration(19)];
    let scheduler = Scheduler::new(4);
    let mut seconds = [0.0f64; 2];
    for (i, prefilter) in [false, true].into_iter().enumerate() {
        let options = CampaignOptions {
            kernels: kernels * 2,
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 48,
                ..GeneratorOptions::default()
            },
            exec: ExecOptions::default(),
            seed_offset: 0xA7A1,
            prefilter,
        };
        opencl_sim::reset_shared_outcome_cache();
        let start = Instant::now();
        let result = run_mode_campaign_with(&scheduler, GenMode::Barrier, &configs, &options);
        seconds[i] = start.elapsed().as_secs_f64();
        let skipped: usize = result.stats.iter().map(|s| s.skipped).sum();
        println!(
            "  campaign prefilter={:<5} {:>8.2}s ({} skipped)",
            prefilter, seconds[i], skipped
        );
        metrics.record(
            format!(
                "analysis_campaign_prefilter_{}_s",
                if prefilter { "on" } else { "off" }
            ),
            seconds[i],
        );
    }
    let speedup = seconds[0] / seconds[1].max(1e-9);
    println!("  prefilter speedup  {speedup:>10.2}x");
    metrics.record("analysis_prefilter_speedup", speedup);
}

/// The corpus-campaign measurement: coverage-guided vs blind mutation
/// chains over the same lineage seeds at the same kernel budget.  Records
/// the `corpus_*` axes — coverage saturation and bugs-per-kernel for each
/// strategy plus the guided acceptance rate — and asserts the rendered
/// comparison table is byte-identical at 1 and 4 workers, extending the
/// determinism invariant to the feedback loop.
fn bench_corpus(lineages: usize, metrics: &mut Metrics) {
    println!("corpus campaign ({lineages} lineages per strategy, guided vs blind)");
    let configs = vec![
        configuration(1),
        configuration(9),
        configuration(14),
        configuration(19),
    ];
    let options = fuzz_harness::CorpusOptions {
        lineages,
        chain: 4,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        exec: ExecOptions {
            store: None,
            ..ExecOptions::default()
        },
        seed_offset: 0xC0DE,
    };
    let mut tables: Vec<String> = Vec::new();
    let mut elapsed = Duration::ZERO;
    let mut last: Option<fuzz_harness::CorpusCampaignResult> = None;
    for workers in [1usize, 4] {
        let scheduler = Scheduler::new(workers);
        // Each worker count does the same cold work — without the reset the
        // 4-worker pass would replay the 1-worker pass's shared cache.
        opencl_sim::reset_shared_outcome_cache();
        let start = Instant::now();
        let result = fuzz_harness::run_corpus_campaign_with(&scheduler, &configs, &options);
        elapsed = start.elapsed();
        tables.push(fuzz_harness::render_corpus_table(&result));
        last = Some(result);
    }
    assert_eq!(
        tables[0], tables[1],
        "corpus tables diverged between 1 and 4 workers"
    );
    let result = last.expect("corpus campaign ran");
    let (guided, blind) = (result.guided(), result.blind());
    println!(
        "  guided {:>8.3} bugs/kernel at {:.1}% saturation   blind {:>8.3} at {:.1}%   acceptance {:.1}%   ({elapsed:.1?} at 4 workers, tables byte-identical)",
        guided.bugs_per_kernel(),
        guided.saturation() * 100.0,
        blind.bugs_per_kernel(),
        blind.saturation() * 100.0,
        guided.acceptance_rate() * 100.0,
    );
    metrics.record("corpus_saturation_guided", guided.saturation());
    metrics.record("corpus_saturation_blind", blind.saturation());
    metrics.record("corpus_bugs_per_kernel_guided", guided.bugs_per_kernel());
    metrics.record("corpus_bugs_per_kernel_blind", blind.bugs_per_kernel());
    metrics.record("corpus_mutation_acceptance_rate", guided.acceptance_rate());
}

fn bench_scheduler_overlap() {
    println!("scheduler overlap (16 jobs × 25ms latency)");
    let jobs = || {
        (0..16)
            .map(|_| LatencyJob(Duration::from_millis(25)))
            .collect::<Vec<_>>()
    };
    let mut baseline: Option<Duration> = None;
    for workers in [1usize, 4] {
        let scheduler = Scheduler::new(workers);
        let start = Instant::now();
        scheduler.run_all(jobs());
        let elapsed = start.elapsed();
        let speedup = baseline
            .map(|b| b.as_secs_f64() / elapsed.as_secs_f64())
            .unwrap_or(1.0);
        baseline.get_or_insert(elapsed);
        println!("  {workers} worker(s)        {elapsed:>10.1?}   speedup ×{speedup:.2}");
        if workers == 4 {
            assert!(
                speedup >= 2.0,
                "4 workers should overlap latency at least 2x (got ×{speedup:.2})"
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (iters, campaign_kernels) = if quick { (5, 16) } else { (20, 48) };
    let mut metrics = Metrics::default();
    bench_generation(iters, &mut metrics);
    bench_emulation(iters, &mut metrics);
    bench_hot_paths(if quick { 6 } else { 16 }, iters, &mut metrics);
    bench_simulated_platform(iters);
    bench_emi_pruning(iters.max(30));
    bench_differential_dedupe(if quick { 4 } else { 12 }, &mut metrics);
    bench_store(if quick { 4 } else { 12 }, &mut metrics);
    bench_shard_resume(if quick { 8 } else { 24 }, &mut metrics);
    bench_analysis(if quick { 8 } else { 24 }, &mut metrics);
    bench_corpus(if quick { 4 } else { 12 }, &mut metrics);
    bench_scheduler_overlap();
    // CPU-bound scaling: speedup tracks the machine's core count (×1.0 on a
    // single-core box); the byte-identity assertion holds everywhere.
    bench_campaign_scaling(campaign_kernels, &mut metrics);
    if let Some(path) = json_path {
        std::fs::write(&path, metrics.to_json()).expect("write bench JSON");
        println!("metrics written to {path}");
    }
}
