//! The invariance matrix: a campaign's table must not depend on how it ran.
//!
//! Every campaign (Tables 1, 3, 4 and 5) goes through one generic [`assert_invariant`] over four axes:
//!
//! * workers — 1, 3 or 8 scheduler workers;
//! * tier — the tree walker or the bytecode VM;
//! * cache — memo off, memo on, a cold outcome store or a warm one;
//! * split — the whole job space at once, three concurrent shards merged
//!   from their journals, a run killed mid-record and resumed, leases with
//!   an interrupted attempt merged, or a fleet of worker processes under
//!   injected faults.
//!
//! [`MATRIX`] is a pairwise covering array over those axes: every pair of
//! levels from two different axes appears in at least one cell, except
//! fleet × memo off (no binary can turn the memo off).  Each in-process
//! cell must reproduce the reference run (whole, one worker, bytecode, memo
//! on, no store) byte for byte: its rendered table, its tally's `Debug`
//! text and, where it journals, its journal record set.
//! Fleet cells spawn the campaign's binary with `CLC_INTERP_TIER` and
//! `--store` selecting tier and cache, and must print exactly what `merge`
//! prints over a fault-free batch journal of the same scale; a campaign's
//! fleet cells run at once, as most of their time is a hung lease's
//! timeout.  Store-warm cells must be served entirely by the store: no
//! miss and no write.
//!
//! Every cell belongs to one [`Part`], and each campaign runs each part in
//! exactly one named test, so every cell of every campaign runs once:
//!
//! * Tables 1, 4 and 5: `MemoOffOn` and `StoreLevels` in
//!   `cache_equivalence`, `WorkerCounts` and `WorkersAndTiers` in
//!   `scheduler_determinism`, `ShardedResumed` and `SharedStore` in
//!   `shard_equivalence`, `FleetFaults` in `fleet_chaos`;
//! * Table 3: every in-process part in `scheduler_determinism`,
//!   `FleetFaults` in `fleet_chaos`.
//!
//! Every run builds its campaign from fresh `ExecOptions`, whose outcome
//! cache starts empty and answers only that campaign, so no other run in
//! the test binary can serve a store cell's lookups: a cold cell must
//! write the store and a warm one must hit it, on both tiers.

// Each test file uses the part of this module its tests need.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Arc, Mutex};

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{JournalOptions, ShardSelect, ShardSpec};
use fuzz_harness::{
    load_journal, merge, reliability_rows, render_campaign_table, render_emi_table,
    render_reliability_table, run_lease, run_shard, Campaign, CampaignOptions, CellCampaign,
    ClassificationCampaign, EmiCampaign, EmiCampaignOptions, LeaseRecord, ModeCampaign, Scheduler,
    JOURNAL_FORMAT_VERSION, JOURNAL_MAGIC,
};
use opencl_sim::{
    Configuration, ExecOptions, ExecutionTier, OutcomeCache, OutcomeStore, StoreStats,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    MemoOff,
    MemoOn,
    StoreCold,
    StoreWarm,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    Whole,
    Shards,
    Resumed,
    Leased,
    Fleet,
}

/// Which named test runs a cell (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    MemoOffOn,
    StoreLevels,
    WorkerCounts,
    WorkersAndTiers,
    ShardedResumed,
    SharedStore,
    FleetFaults,
}

pub use Cache::*;
pub use ExecutionTier::{Bytecode, TreeWalk as Tree};
pub use Part::*;
pub use Split::*;

/// One cell: (split, cache, workers, tier).
pub type Cell = (Split, Cache, usize, ExecutionTier);

/// The pairwise covering array every campaign runs, each cell with the
/// part that runs it (`invariance`'s tests check both claims).
pub const MATRIX: [(Part, Cell); 19] = [
    (WorkersAndTiers, (Whole, MemoOff, 8, Tree)),
    (WorkerCounts, (Whole, MemoOn, 3, Bytecode)),
    (StoreLevels, (Whole, StoreCold, 1, Bytecode)),
    (StoreLevels, (Whole, StoreWarm, 3, Tree)),
    (ShardedResumed, (Shards, MemoOff, 3, Bytecode)),
    (ShardedResumed, (Shards, MemoOn, 8, Bytecode)),
    (SharedStore, (Shards, StoreCold, 3, Tree)),
    (SharedStore, (Shards, StoreWarm, 1, Bytecode)),
    (ShardedResumed, (Resumed, MemoOff, 1, Bytecode)),
    (ShardedResumed, (Resumed, MemoOn, 8, Bytecode)),
    (ShardedResumed, (Resumed, StoreCold, 3, Bytecode)),
    (ShardedResumed, (Resumed, StoreWarm, 3, Tree)),
    (MemoOffOn, (Leased, MemoOff, 1, Bytecode)),
    (WorkerCounts, (Leased, MemoOn, 8, Bytecode)),
    (StoreLevels, (Leased, StoreCold, 8, Tree)),
    (StoreLevels, (Leased, StoreWarm, 3, Bytecode)),
    (FleetFaults, (Fleet, MemoOn, 1, Tree)),
    (FleetFaults, (Fleet, StoreCold, 3, Bytecode)),
    (FleetFaults, (Fleet, StoreWarm, 8, Bytecode)),
];

/// Every part but the fleet's.
pub const IN_PROCESS: [Part; 6] = [
    MemoOffOn,
    StoreLevels,
    WorkerCounts,
    WorkersAndTiers,
    ShardedResumed,
    SharedStore,
];

/// The worker processes a fleet cell with `workers` scheduler workers runs.
pub fn fleet_processes(workers: usize) -> usize {
    workers.clamp(2, 3)
}

/// A campaign under test: how one process builds it at the matrix's scale,
/// how its table renders, and which binary runs it as a fleet.
pub struct Subject<C: Campaign> {
    name: &'static str,
    /// The size of its job space at the matrix's scale.
    jobs: u64,
    /// The configurations journals merge against.
    configs: Vec<Configuration>,
    /// The campaign as one process of a cell with the given scheduler
    /// builds it.
    build: fn(&Scheduler, ExecOptions) -> C,
    /// The table a tally over `jobs` jobs renders as.
    render: fn(&C, &C::Tally, u64) -> String,
    fleet: Fleet,
}

/// A campaign binary's fleet runs: scale positionals, lease size, and the
/// faults each lease suffers.
struct Fleet {
    bin: &'static str,
    scale: &'static [&'static str],
    lease_jobs: &'static str,
    /// A kill, a hang (whose lease must time out) and a torn tail.  The
    /// warm-store cell skips the hang: the memo-on and cold-store cells
    /// already revoke a hung lease at two and at three worker processes.
    faults: &'static str,
}

/// What a run left behind: the rendered table, the tally's `Debug` text,
/// and the journal record set (job index → payload) where it journaled.
struct Observed {
    table: String,
    tally: String,
    records: Option<BTreeMap<u64, String>>,
}

impl Observed {
    fn of<C: Campaign<Tally: Debug>>(
        subject: &Subject<C>,
        campaign: &C,
        tally: &C::Tally,
        jobs: u64,
        journals: Option<&[PathBuf]>,
    ) -> Observed {
        Observed {
            table: (subject.render)(campaign, tally, jobs),
            tally: format!("{tally:?}"),
            records: journals.map(record_set),
        }
    }
}

pub fn generator(max_threads: usize) -> GeneratorOptions {
    GeneratorOptions {
        min_threads: 16,
        max_threads,
        ..GeneratorOptions::default()
    }
}

pub fn campaign_options(exec: ExecOptions, kernels: usize, seed_offset: u64) -> CampaignOptions {
    CampaignOptions {
        kernels,
        generator: generator(32),
        exec,
        seed_offset,
        prefilter: false,
    }
}

pub fn configs(ids: &[usize]) -> Vec<Configuration> {
    ids.iter()
        .map(|&id| opencl_sim::configuration(id))
        .collect()
}

/// A fresh directory under the system temp dir, unique to this process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clfuzz-invariance-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Job index → payload over `paths`: what resume and merge consume,
/// independent of the completion order the files record.
fn record_set(paths: &[PathBuf]) -> BTreeMap<u64, String> {
    paths
        .iter()
        .flat_map(|path| load_journal(path).expect("journal loads").records)
        .map(|r| (r.job_index, r.payload))
        .collect()
}

/// Simulates a kill mid-campaign: keeps the header and `records` complete
/// records, then a torn half-record (a process dying inside `write`).
fn kill_after(path: &Path, records: usize) {
    let text = fs::read_to_string(path).expect("journal exists");
    assert!(text.lines().count() > 1 + records, "journal too short");
    let keep: usize = text.lines().take(1 + records).map(|l| l.len() + 1).sum();
    let mut bytes = text.into_bytes();
    bytes.truncate(keep);
    bytes.extend_from_slice(b"R 999 deadbeef");
    fs::write(path, bytes).expect("rewrite truncated journal");
}

/// The execution options of one process of a cell; store levels open a
/// handle of their own (as a separate process would) and keep it for the
/// cell's counters.
struct Stores {
    dir: PathBuf,
    cache: Cache,
    tier: ExecutionTier,
    handles: Mutex<Vec<Arc<OutcomeStore>>>,
}

impl Stores {
    fn exec(&self) -> ExecOptions {
        let store = matches!(self.cache, StoreCold | StoreWarm).then(|| {
            let store = Arc::new(OutcomeStore::open_with_cap(&self.dir, u64::MAX).unwrap());
            self.handles.lock().unwrap().push(Arc::clone(&store));
            store
        });
        ExecOptions {
            tier: self.tier,
            store,
            cache: (self.cache != MemoOff).then(OutcomeCache::default),
            ..ExecOptions::default()
        }
    }
}

/// Runs the in-process cell `(split, cache, workers, tier)` of `subject`.
fn run_cell<C: Campaign<Tally: Debug>>(subject: &Subject<C>, cell: Cell, dir: &Path) -> Observed {
    let (split, cache, workers, tier) = cell;
    fs::create_dir_all(dir).expect("create cell dir");
    let scheduler = Scheduler::new(workers);
    let stores = Stores {
        dir: dir.join("store"),
        cache,
        tier,
        handles: Mutex::new(Vec::new()),
    };
    let build = || (subject.build)(&scheduler, stores.exec());
    if cache == StoreWarm {
        let prep = build();
        run_shard(&Scheduler::sequential(), &prep, ShardSelect::whole(), None).unwrap();
        stores.handles.lock().unwrap().clear();
    }
    let journal = |name: &str| dir.join(format!("{name}.journal"));
    let observed = match split {
        Whole => {
            let campaign = build();
            let run = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
            Observed::of(subject, &campaign, &run.aggregate, run.jobs, None)
        }
        Shards => {
            // Three shard "processes" at once, each with its own campaign
            // and store handle, racing on one store directory.
            let paths: Vec<PathBuf> = (0..3).map(|i| journal(&format!("shard-{i}"))).collect();
            std::thread::scope(|scope| {
                let shards: Vec<_> = (0..3u32)
                    .map(|index| {
                        let (path, build, scheduler) = (&paths[index as usize], &build, &scheduler);
                        scope.spawn(move || {
                            let campaign = build();
                            let select = ShardSelect { index, count: 3 };
                            let options = JournalOptions::create(path);
                            let run = run_shard(scheduler, &campaign, select, Some(&options));
                            let spec =
                                ShardSpec::select(campaign.seed(), campaign.total_jobs(), select);
                            let header = load_journal(path).unwrap().header;
                            assert_eq!(header, spec.header(&campaign.descriptor()));
                            run.unwrap();
                        })
                    })
                    .collect();
                shards.into_iter().for_each(|s| s.join().unwrap());
            });
            let magic = format!("{JOURNAL_MAGIC} {JOURNAL_FORMAT_VERSION} ");
            assert!(fs::read_to_string(&paths[0]).unwrap().starts_with(&magic));
            let (parsed, tally, summary) = merge::<C>(&paths, &subject.configs).unwrap();
            assert!(summary.complete, "three shards cover the job space");
            Observed::of(subject, &parsed, &tally, summary.jobs_folded, Some(&paths))
        }
        Resumed => {
            let path = journal("resumed");
            let campaign = build();
            let total = campaign.total_jobs();
            let options = JournalOptions::create(&path);
            run_shard(&scheduler, &campaign, ShardSelect::whole(), Some(&options)).unwrap();
            let kept = (total / 2).max(1);
            kill_after(&path, kept as usize);
            let campaign = build();
            let options = JournalOptions::resume(&path);
            let run = run_shard(&scheduler, &campaign, ShardSelect::whole(), Some(&options));
            let run = run.unwrap();
            assert_eq!(run.metrics.jobs_resumed, kept);
            assert_eq!(run.metrics.jobs_replayed, total - kept);
            assert!(run.metrics.dropped_bytes > 0, "the torn record was kept");
            // The healed journal alone merges into the same table.
            let healed = std::slice::from_ref(&path);
            let (parsed, tally, summary) = merge::<C>(healed, &subject.configs).unwrap();
            assert!(summary.complete);
            let merged = Observed::of(subject, &parsed, &tally, summary.jobs_folded, None);
            assert_eq!(
                merged.table,
                (subject.render)(&campaign, &run.aggregate, run.jobs)
            );
            Observed::of(subject, &campaign, &run.aggregate, run.jobs, Some(healed))
        }
        Leased => {
            // Three leases; each lease's first attempt stops halfway, and
            // the second resumes it from the records the first journaled.
            let campaign = build();
            let total = campaign.total_jobs();
            let size = total.div_ceil(3).max(1);
            let mut paths = Vec::new();
            for (id, start) in (0..total).step_by(size as usize).enumerate() {
                let end = (start + size).min(total);
                let mut lease = LeaseRecord {
                    id: id as u32,
                    start,
                    end,
                    attempt: 1,
                    journal: journal(&format!("lease-{id}")),
                };
                let stop = Some(start + (end - start) / 2);
                run_lease(&scheduler, &campaign, &lease, stop).unwrap();
                lease.attempt = 2;
                run_lease(&scheduler, &campaign, &lease, None).unwrap();
                paths.push(lease.journal);
            }
            let (parsed, tally, summary) = merge::<C>(&paths, &subject.configs).unwrap();
            assert!(summary.complete, "the leases cover the job space");
            Observed::of(subject, &parsed, &tally, summary.jobs_folded, None)
        }
        Fleet => unreachable!("fleet cells run the binaries"),
    };
    let handles = stores.handles.into_inner().unwrap();
    let stats: Vec<StoreStats> = handles.iter().map(|s| s.stats()).collect();
    let sum = |count: fn(&StoreStats) -> u64| stats.iter().map(count).sum::<u64>();
    let what = format!("{} {cell:?}: {stats:?}", subject.name);
    match cache {
        StoreCold => assert!(
            sum(|s| s.writes) > 0,
            "{what}: the cold store was not written"
        ),
        StoreWarm => {
            assert!(sum(|s| s.hits) > 0, "{what}: the warm store served nothing");
            assert_eq!((sum(|s| s.misses), sum(|s| s.writes)), (0, 0), "{what}");
        }
        MemoOff | MemoOn => {}
    }
    observed
}

/// Runs the cells of `subject` that belong to `parts`, in-process cells
/// against the reference run and fleet cells against a batch merge.
pub fn assert_invariant<C: Campaign<Tally: Debug>>(subject: &Subject<C>, parts: &[Part]) {
    let cells = MATRIX.into_iter().enumerate();
    let (fleet, in_process): (Vec<_>, Vec<_>) = cells
        .filter(|(_, (part, _))| parts.contains(part))
        .map(|(index, (_, cell))| (index, cell))
        .partition(|(_, cell)| cell.0 == Fleet);
    assert!(
        !fleet.is_empty() || !in_process.is_empty(),
        "no cell to run"
    );
    let tag: Vec<String> = parts.iter().map(|part| format!("{part:?}")).collect();
    let dir = scratch(&format!("{}-{}", subject.name, tag.join("-")));
    // The fleet cells spend much of their time waiting on worker
    // processes, so they run alongside the in-process cells.
    std::thread::scope(|scope| {
        let fleet = (!fleet.is_empty())
            .then(|| scope.spawn(|| assert_fleet_invariant(&subject.fleet, &fleet, &dir)));
        if !in_process.is_empty() {
            let reference = reference(subject, &dir);
            for &(index, cell) in &in_process {
                let observed = run_cell(subject, cell, &dir.join(format!("cell-{index}")));
                let what = format!("{} {cell:?}", subject.name);
                assert_eq!(observed.table, reference.table, "{what}: table diverged");
                assert_eq!(observed.tally, reference.tally, "{what}: tally diverged");
                if let Some(records) = &observed.records {
                    assert_eq!(Some(records), reference.records.as_ref(), "{what}: records");
                }
            }
        }
        if let Some(fleet) = fleet {
            fleet
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
    let _ = fs::remove_dir_all(&dir);
}

/// Runs `checks` on threads of their own, re-raising the first panic.
pub fn concurrently(checks: &[&(dyn Fn() + Sync)]) {
    std::thread::scope(|scope| {
        let threads: Vec<_> = checks.iter().map(|&check| scope.spawn(check)).collect();
        for thread in threads {
            thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

/// The reference run every in-process cell reproduces: whole, one worker,
/// bytecode, memo on, no store, journaled.
fn reference<C: Campaign<Tally: Debug>>(subject: &Subject<C>, dir: &Path) -> Observed {
    let journal = [dir.join("reference.journal")];
    let scheduler = Scheduler::sequential();
    let exec = ExecOptions {
        tier: Bytecode,
        ..ExecOptions::default()
    };
    let campaign = (subject.build)(&scheduler, exec);
    let options = JournalOptions::create(&journal[0]);
    let run = run_shard(&scheduler, &campaign, ShardSelect::whole(), Some(&options));
    let run = run.unwrap();
    // Three shards need three jobs, and every job journals one record.
    assert_eq!(run.jobs, subject.jobs, "{}", subject.name);
    assert!(run.jobs >= 3);
    assert_eq!(record_set(&journal).len() as u64, run.jobs);
    Observed::of(subject, &campaign, &run.aggregate, run.jobs, Some(&journal))
}

/// The campaign binary `name`, its tier chosen by `CLC_INTERP_TIER`, with
/// no ambient store.
pub fn campaign_bin(name: &str, tier: ExecutionTier) -> Command {
    let mut cmd = Command::new(match name {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table3" => env!("CARGO_BIN_EXE_table3"),
        "table4" => env!("CARGO_BIN_EXE_table4"),
        "table5" => env!("CARGO_BIN_EXE_table5"),
        other => panic!("no campaign binary {other}"),
    });
    for var in ["CLFUZZ_STORE", "CLFUZZ_STORE_CAP"] {
        cmd.env_remove(var);
    }
    cmd.env("CLC_INTERP_TIER", tier.name());
    cmd
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?})\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Entry files under a store directory.
fn store_entries(dir: &Path) -> usize {
    let prefixes = fs::read_dir(dir).into_iter().flatten().flatten();
    prefixes
        .flat_map(|p| fs::read_dir(p.path()).into_iter().flatten().flatten())
        .filter(|f| !f.file_name().to_string_lossy().starts_with(".tmp"))
        .count()
}

/// The fleet `cells` (index into [`MATRIX`], cell), run at once: each
/// coordinator, its faults firing, prints exactly the merge of a
/// fault-free batch journal.
fn assert_fleet_invariant(fleet: &Fleet, cells: &[(usize, Cell)], dir: &Path) {
    let journal = dir.join("batch.journal");
    let batch = campaign_bin(fleet.bin, Bytecode)
        .args(fleet.scale)
        .args(["--no-store", "--threads", "1", "--journal"])
        .arg(&journal)
        .output()
        .expect("spawn batch run");
    assert_success(&batch, "batch run");
    let merged = campaign_bin(fleet.bin, Bytecode)
        .arg("merge")
        .arg(&journal)
        .output()
        .expect("spawn merge");
    assert_success(&merged, "batch merge");
    let baseline = String::from_utf8_lossy(&merged.stdout).into_owned();
    let baseline = baseline.as_str();
    let checks: Vec<_> = cells
        .iter()
        .map(|&(index, cell)| {
            let cell_dir = dir.join(format!("fleet-{index}"));
            move || assert_fleet_cell(fleet, cell, baseline, &cell_dir)
        })
        .collect();
    let checks: Vec<&(dyn Fn() + Sync)> = checks.iter().map(|c| c as _).collect();
    concurrently(&checks);
}

/// One fleet cell, in `dir`: its coordinator must print `baseline`.
fn assert_fleet_cell(fleet: &Fleet, cell: Cell, baseline: &str, dir: &Path) {
    let (_, cache, workers, tier) = cell;
    let what = format!("{} {cell:?}", fleet.bin);
    let store = dir.join("store");
    let mut coordinate = campaign_bin(fleet.bin, tier);
    coordinate.arg("coordinate").args(fleet.scale);
    match cache {
        MemoOff => unreachable!("no binary turns the memo off"),
        MemoOn => {
            coordinate.arg("--no-store");
        }
        StoreCold => {
            coordinate.arg("--store").arg(&store);
        }
        StoreWarm => {
            // A batch run at the cell's tier and worker count (which sizes
            // Table 5's probing chunks) fills the store.
            let prep = campaign_bin(fleet.bin, tier)
                .args(fleet.scale)
                .args(["--threads", &workers.to_string(), "--store"])
                .arg(&store)
                .output()
                .expect("spawn store-filling run");
            assert_success(&prep, &format!("{what} store-filling run"));
            assert!(
                store_entries(&store) > 0,
                "{what}: the cold run wrote nothing"
            );
            coordinate.arg("--store").arg(&store);
        }
    }
    let entries = store_entries(&store);
    let faults: Vec<&str> = fleet.faults.split(',').collect();
    let faults: Vec<&str> = match cache {
        StoreWarm => faults
            .into_iter()
            .filter(|f| !f.starts_with("hang"))
            .collect(),
        _ => faults,
    };
    let fleet_dir = dir.join("fleet");
    let processes = fleet_processes(workers).to_string();
    let out = coordinate
        .args(["--workers", &processes, "--threads", &workers.to_string()])
        .args([
            "--lease-jobs",
            fleet.lease_jobs,
            "--lease-timeout-ms",
            "1500",
        ])
        .args(["--faults", &faults.join(","), "--fleet-dir"])
        .arg(&fleet_dir)
        .output()
        .expect("spawn coordinate");
    assert_success(&out, &what);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        baseline,
        "{what}: the fleet's table is not the batch merge\nstderr:\n{stderr}"
    );
    // A silently inert fault plan would make the comparison vacuous.
    let log = fs::read_to_string(fleet_dir.join("workers.log")).expect("workers.log");
    for fault in &faults {
        let kind = fault.split('@').next().unwrap();
        assert!(
            log.contains(&format!("FAULT {kind}")),
            "{what}: no {kind}\n{log}"
        );
    }
    // A fresh worker process launches and writes a new entry on every
    // store miss, so a warm store that did not grow served every lookup.
    if cache == StoreWarm {
        assert_eq!(store_entries(&store), entries, "{what}: the store grew");
    }
}

pub fn table1() -> Subject<ClassificationCampaign> {
    Subject {
        name: "table1",
        jobs: 6,
        configs: configs(&[1, 12, 21]),
        build: |_, exec| {
            let options = campaign_options(exec, 0, 0x7AB1E1);
            ClassificationCampaign::new(&configs(&[1, 12, 21]), 1, &options)
        },
        render: |campaign, tally, _| {
            render_reliability_table(&reliability_rows(&campaign.configs, tally))
        },
        fleet: Fleet {
            bin: "table1",
            scale: &["1"],
            lease_jobs: "2",
            faults: "kill@1,hang@3,torn@5",
        },
    }
}

/// The modes and configurations of the Table 4 subject.
pub const TABLE4_MODES: [GenMode; 2] = [GenMode::Barrier, GenMode::All];
pub const TABLE4_CONFIGS: [usize; 3] = [1, 9, 19];

/// The Table 4 subject's campaign options, with the prefilter on or off.
pub fn table4_options(exec: ExecOptions, prefilter: bool) -> CampaignOptions {
    CampaignOptions {
        prefilter,
        ..campaign_options(exec, 4, 15)
    }
}

/// Table 4 with the static prefilter on, so every cell also renders the
/// `sk` row of statically uncertified kernels.
pub fn table4() -> Subject<ModeCampaign> {
    Subject {
        name: "table4",
        jobs: 8,
        configs: configs(&TABLE4_CONFIGS),
        build: |_, exec| {
            let options = table4_options(exec, true);
            ModeCampaign::new(&TABLE4_MODES, &configs(&TABLE4_CONFIGS), &options)
        },
        render: |campaign, tally, _| {
            let results = campaign.results(tally);
            results.iter().map(render_campaign_table).collect()
        },
        fleet: Fleet {
            bin: "table4",
            scale: &["1"],
            lease_jobs: "2",
            faults: "kill@1,hang@3,torn@5",
        },
    }
}

pub fn emi_options(exec: ExecOptions) -> EmiCampaignOptions {
    EmiCampaignOptions {
        bases: 3,
        variants_per_base: 2,
        campaign: campaign_options(exec, 0, 0x7AB1E5),
    }
}

pub fn table5() -> Subject<EmiCampaign> {
    Subject {
        name: "table5",
        jobs: 3,
        configs: configs(&[1, 19]),
        // Probing at the cell's worker count would probe up to 8
        // candidates a round on the tree walker;
        // `live_base_acceptance_is_independent_of_worker_count_and_chunking`
        // pins chunking.
        build: |_, exec| {
            let probing = Scheduler::sequential();
            EmiCampaign::new(&probing, &configs(&[1, 19]), &emi_options(exec))
        },
        render: |campaign, tally, jobs| render_emi_table(&campaign.result(tally, jobs)),
        fleet: Fleet {
            bin: "table5",
            scale: &["2", "1"],
            lease_jobs: "1",
            faults: "kill@0,hang@1,torn@1",
        },
    }
}

pub fn table3() -> Subject<CellCampaign> {
    Subject {
        name: "table3",
        jobs: 24,
        configs: configs(&[1, 12, 21]),
        build: |_, exec| CellCampaign::new(1, &generator(32), &configs(&[1, 12, 21]), exec),
        render: |campaign, cells, _| {
            let rows = campaign
                .names
                .iter()
                .zip(cells.0.chunks(campaign.configs.len()));
            rows.map(|(name, row)| {
                let row: Vec<String> = row.iter().flatten().map(|c| c.render()).collect();
                format!("{name}: {}\n", row.join(" "))
            })
            .collect()
        },
        fleet: Fleet {
            bin: "table3",
            scale: &["1"],
            lease_jobs: "42",
            faults: "kill@50,hang@100,torn@150",
        },
    }
}
