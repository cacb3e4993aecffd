//! The shard/merge layer's headline guarantee: for a fixed campaign seed,
//!
//! * a **single-process** campaign,
//! * the same campaign split into **N shards and merged** (via in-memory
//!   tallies *and* via the on-disk journals), and
//! * the same campaign **killed at a job boundary and resumed** from its
//!   journal (including a half-written final record, which the checksum
//!   drops)
//!
//! all produce **byte-identical** rendered Table 1 / Table 4 / Table 5
//! output — at every worker count.

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{JournalOptions, Mergeable, ShardSelect};
use fuzz_harness::{
    load_journal, merge, reliability_rows, render_campaign_table, render_emi_table,
    render_reliability_table, run_shard, Campaign, CampaignOptions, ClassificationCampaign,
    EmiCampaign, EmiCampaignOptions, EmiTally, ModeCampaign, MultiModeTally, Scheduler,
};
use opencl_sim::{ExecOptions, OutcomeStore};
use std::path::PathBuf;
use std::sync::Arc;

const WORKER_COUNTS: [usize; 2] = [1, 3];
const SHARDS: u32 = 3;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "clfuzz-shard-equiv-{}-{name}.log",
        std::process::id()
    ))
}

fn cleanup(paths: &[PathBuf]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// Simulates a kill mid-campaign: keep the header plus `records` complete
/// records, then a torn half-record of garbage (as a process dying inside
/// `write` would leave).
fn kill_after(path: &PathBuf, records: usize) {
    let text = std::fs::read_to_string(path).expect("journal exists");
    let keep: usize = text.lines().take(1 + records).map(|l| l.len() + 1).sum();
    assert!(
        text.lines().count() > 1 + records,
        "journal too short to truncate at {records} records"
    );
    let mut bytes = text.into_bytes();
    bytes.truncate(keep);
    bytes.extend_from_slice(b"R 999 deadbeef");
    std::fs::write(path, bytes).expect("rewrite truncated journal");
}

fn campaign_options(seed_offset: u64) -> CampaignOptions {
    CampaignOptions {
        kernels: 8,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        seed_offset,
        ..CampaignOptions::default()
    }
}

#[test]
fn table4_single_sharded_and_resumed_runs_are_byte_identical() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(19),
    ];
    let options = campaign_options(0x7AB1E4);
    let modes = [GenMode::Barrier];
    let campaign = ModeCampaign::new(&modes, &configs, &options);
    for workers in WORKER_COUNTS {
        let scheduler = Scheduler::new(workers);
        let single = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
        let reference = render_campaign_table(&campaign.results(&single.aggregate)[0]);

        // N shards, merged two ways: in-memory tallies and journal refold.
        let mut tally: Option<MultiModeTally> = None;
        let mut paths = Vec::new();
        for index in 0..SHARDS {
            let path = temp_path(&format!("t4-{workers}-{index}"));
            let shard = run_shard(
                &scheduler,
                &campaign,
                ShardSelect {
                    index,
                    count: SHARDS,
                },
                Some(&JournalOptions::create(&path)),
            )
            .expect("sharded campaign");
            assert_eq!(shard.metrics.shard_count, SHARDS);
            match &mut tally {
                None => tally = Some(shard.aggregate),
                Some(t) => t.merge(shard.aggregate),
            }
            paths.push(path);
        }
        let merged_tally = tally.expect("at least one shard ran");
        let merged_result = fuzz_harness::CampaignResult {
            mode: GenMode::Barrier,
            kernels: merged_tally.per_mode[0].kernels(),
            targets: fuzz_harness::targets_for(&configs),
            stats: merged_tally.per_mode[0].per_target.clone(),
        };
        assert_eq!(
            render_campaign_table(&merged_result),
            reference,
            "{workers} workers: merged shard tallies diverged from the single run"
        );
        let (merged, tally, summary) =
            merge::<ModeCampaign>(&paths, &configs).expect("journal merge");
        let from_journals = merged.results(&tally);
        assert!(summary.complete, "{SHARDS} shards must cover the job space");
        assert_eq!(
            render_campaign_table(&from_journals[0]),
            reference,
            "{workers} workers: journal-refolded tables diverged from the single run"
        );

        // Kill after 3 jobs (with a torn half-record), then resume.
        let journal = temp_path(&format!("t4-{workers}-resume"));
        run_shard(
            &scheduler,
            &campaign,
            ShardSelect::whole(),
            Some(&JournalOptions::create(&journal)),
        )
        .expect("full journaled campaign");
        kill_after(&journal, 3);
        let resumed = run_shard(
            &scheduler,
            &campaign,
            ShardSelect::whole(),
            Some(&JournalOptions::resume(&journal)),
        )
        .expect("resumed campaign");
        assert_eq!(resumed.metrics.jobs_resumed, 3, "{workers} workers");
        assert_eq!(
            resumed.metrics.jobs_replayed,
            options.kernels as u64 - 3,
            "{workers} workers"
        );
        assert!(resumed.metrics.dropped_bytes > 0, "torn record not dropped");
        assert_eq!(
            render_campaign_table(&campaign.results(&resumed.aggregate)[0]),
            reference,
            "{workers} workers: resumed campaign diverged from the single run"
        );
        // The healed journal alone now reproduces the full table too.
        let (merged, tally, summary) =
            merge::<ModeCampaign>(std::slice::from_ref(&journal), &configs).expect("healed merge");
        let healed = merged.results(&tally);
        assert!(summary.complete);
        assert_eq!(render_campaign_table(&healed[0]), reference);
        paths.push(journal);
        cleanup(&paths);
    }
}

#[test]
fn table1_single_sharded_and_resumed_runs_are_byte_identical() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(12),
        opencl_sim::configuration(21),
    ];
    let options = campaign_options(0x7AB1E1);
    let kernels_per_mode = 2;
    let total_jobs = (GenMode::ALL.len() * kernels_per_mode) as u64;
    let campaign = ClassificationCampaign::new(&configs, kernels_per_mode, &options);
    for workers in WORKER_COUNTS {
        let scheduler = Scheduler::new(workers);
        let single = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
        let reference = render_reliability_table(&reliability_rows(&configs, &single.aggregate));

        let mut paths = Vec::new();
        for index in 0..SHARDS {
            let path = temp_path(&format!("t1-{workers}-{index}"));
            run_shard(
                &scheduler,
                &campaign,
                ShardSelect {
                    index,
                    count: SHARDS,
                },
                Some(&JournalOptions::create(&path)),
            )
            .expect("sharded classification");
            paths.push(path);
        }
        let (_, tally, summary) =
            merge::<ClassificationCampaign>(&paths, &configs).expect("journal merge");
        let rows = reliability_rows(&configs, &tally);
        assert!(summary.complete);
        assert_eq!(
            render_reliability_table(&rows),
            reference,
            "{workers} workers: merged shard journals diverged from the single run"
        );

        // Kill mid-campaign, resume, compare.
        let journal = temp_path(&format!("t1-{workers}-resume"));
        run_shard(
            &scheduler,
            &campaign,
            ShardSelect::whole(),
            Some(&JournalOptions::create(&journal)),
        )
        .expect("full journaled classification");
        kill_after(&journal, 5);
        let resumed = run_shard(
            &scheduler,
            &campaign,
            ShardSelect::whole(),
            Some(&JournalOptions::resume(&journal)),
        )
        .expect("resumed classification");
        assert_eq!(resumed.metrics.jobs_resumed, 5);
        assert_eq!(resumed.metrics.jobs_replayed, total_jobs - 5);
        assert_eq!(
            render_reliability_table(&reliability_rows(&configs, &resumed.aggregate)),
            reference,
            "{workers} workers: resumed classification diverged from the single run"
        );
        paths.push(journal);
        cleanup(&paths);
    }
}

#[test]
fn table5_single_sharded_and_resumed_runs_are_byte_identical() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let options = EmiCampaignOptions {
        bases: 3,
        variants_per_base: 4,
        campaign: campaign_options(0x7AB1E5),
    };
    for workers in WORKER_COUNTS {
        let scheduler = Scheduler::new(workers);
        // Every run below builds its own campaign, so each probes the
        // live-base list afresh, as a separate process would.
        let campaign = EmiCampaign::new(&scheduler, &configs, &options);
        let run = run_shard(&scheduler, &campaign, ShardSelect::whole(), None).unwrap();
        let single = campaign.result(&run.aggregate, run.jobs);
        assert!(single.bases > 0, "liveness filtering accepted no bases");
        let reference = render_emi_table(&single);

        let mut tally: Option<EmiTally> = None;
        let mut paths = Vec::new();
        for index in 0..SHARDS.min(single.bases as u32) {
            let count = SHARDS.min(single.bases as u32);
            let path = temp_path(&format!("t5-{workers}-{index}"));
            let campaign = EmiCampaign::new(&scheduler, &configs, &options);
            let shard = run_shard(
                &scheduler,
                &campaign,
                ShardSelect { index, count },
                Some(&JournalOptions::create(&path)),
            )
            .expect("sharded EMI campaign");
            assert_eq!(campaign.total_jobs(), single.bases as u64);
            match &mut tally {
                None => tally = Some(shard.aggregate),
                Some(t) => t.merge(shard.aggregate),
            }
            paths.push(path);
        }
        let merged = fuzz_harness::EmiCampaignResult {
            bases: single.bases,
            variants_per_base: single.variants_per_base,
            labels: single.labels.clone(),
            stats: tally.expect("shards ran").per_target,
        };
        assert_eq!(
            render_emi_table(&merged),
            reference,
            "{workers} workers: merged shard tallies diverged from the single run"
        );
        let (merged, tally, summary) =
            merge::<EmiCampaign>(&paths, &configs).expect("journal merge");
        let from_journals = merged.result(&tally, summary.jobs_folded);
        assert!(summary.complete);
        assert_eq!(from_journals.bases, single.bases);
        assert_eq!(from_journals.variants_per_base, single.variants_per_base);
        assert_eq!(
            render_emi_table(&from_journals),
            reference,
            "{workers} workers: journal-refolded tables diverged from the single run"
        );

        // Kill after the first judged base, resume, compare.
        let journal = temp_path(&format!("t5-{workers}-resume"));
        run_shard(
            &scheduler,
            &EmiCampaign::new(&scheduler, &configs, &options),
            ShardSelect::whole(),
            Some(&JournalOptions::create(&journal)),
        )
        .expect("full journaled EMI campaign");
        kill_after(&journal, 1);
        let campaign = EmiCampaign::new(&scheduler, &configs, &options);
        let resumed = run_shard(
            &scheduler,
            &campaign,
            ShardSelect::whole(),
            Some(&JournalOptions::resume(&journal)),
        )
        .expect("resumed EMI campaign");
        assert_eq!(resumed.metrics.jobs_resumed, 1);
        assert_eq!(
            resumed.metrics.jobs_resumed + resumed.metrics.jobs_replayed,
            single.bases as u64
        );
        assert_eq!(
            render_emi_table(&campaign.result(&resumed.aggregate, resumed.jobs)),
            reference,
            "{workers} workers: resumed EMI campaign diverged from the single run"
        );
        paths.push(journal);
        cleanup(&paths);
    }
}

#[test]
fn concurrent_shards_sharing_one_store_directory_stay_byte_identical() {
    // Three shard runs race on separate threads, each holding its own
    // `OutcomeStore` handle over the same directory — the in-process model
    // of three shard *processes* sharing one store, racing their reads,
    // atomic-rename writes and overwrites.  The merged table must match a
    // store-less single run byte for byte, and a warm follow-up run over
    // the populated store must match it again.
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(19),
    ];
    let options = campaign_options(0x570BE);
    let modes = [GenMode::Barrier];
    let dir = std::env::temp_dir().join(format!("clfuzz-shard-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = ModeCampaign::new(&modes, &configs, &options);
    let single = run_shard(
        &Scheduler::sequential(),
        &campaign,
        ShardSelect::whole(),
        None,
    );
    let reference = render_campaign_table(&campaign.results(&single.unwrap().aggregate)[0]);

    let with_store = |store: Arc<OutcomeStore>| CampaignOptions {
        exec: ExecOptions {
            store: Some(store),
            ..options.exec.clone()
        },
        ..options.clone()
    };
    let tallies: Vec<MultiModeTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|index| {
                let (configs, modes, dir) = (&configs, &modes, &dir);
                let with_store = &with_store;
                scope.spawn(move || {
                    let store =
                        Arc::new(OutcomeStore::open_with_cap(dir, u64::MAX).expect("open store"));
                    run_shard(
                        &Scheduler::new(2),
                        &ModeCampaign::new(modes, configs, &with_store(store)),
                        ShardSelect {
                            index,
                            count: SHARDS,
                        },
                        None,
                    )
                    .expect("sharded campaign with store")
                    .aggregate
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread"))
            .collect()
    });
    let mut tally: Option<MultiModeTally> = None;
    for shard_tally in tallies {
        match &mut tally {
            None => tally = Some(shard_tally),
            Some(t) => t.merge(shard_tally),
        }
    }
    let merged_tally = tally.expect("shards ran");
    let merged = fuzz_harness::CampaignResult {
        mode: GenMode::Barrier,
        kernels: merged_tally.per_mode[0].kernels(),
        targets: fuzz_harness::targets_for(&configs),
        stats: merged_tally.per_mode[0].per_target.clone(),
    };
    assert_eq!(
        render_campaign_table(&merged),
        reference,
        "concurrent shards sharing one store diverged from the single run"
    );

    // Warm re-run over the store the racing shards populated.
    let warm_store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).expect("reopen store"));
    let warm_campaign = ModeCampaign::new(&modes, &configs, &with_store(Arc::clone(&warm_store)));
    let warm_run = run_shard(
        &Scheduler::new(3),
        &warm_campaign,
        ShardSelect::whole(),
        None,
    );
    let warm = render_campaign_table(&warm_campaign.results(&warm_run.unwrap().aggregate)[0]);
    assert_eq!(warm, reference, "warm store re-run diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journals_are_self_describing_and_versioned() {
    // A journal written by a campaign driver carries the format version,
    // campaign descriptor, seed, job-space size and shard coordinates.
    let configs = vec![opencl_sim::configuration(1)];
    let options = campaign_options(0xD0C);
    let path = temp_path("header");
    run_shard(
        &Scheduler::sequential(),
        &ModeCampaign::new(&[GenMode::Basic], &configs, &options),
        ShardSelect { index: 1, count: 2 },
        Some(&JournalOptions::create(&path)),
    )
    .expect("journaled campaign");
    let loaded = load_journal(&path).expect("load journal");
    assert!(loaded.header.campaign.starts_with("modes:BASIC:k8:"));
    assert_eq!(loaded.header.campaign_seed, 0xD0C);
    assert_eq!(loaded.header.total_jobs, options.kernels as u64);
    assert_eq!(loaded.header.shard_index, 1);
    assert_eq!(loaded.header.shard_count, 2);
    assert_eq!(loaded.records.len(), 4, "shard 1/2 of 8 jobs holds 4");
    let first_line = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    assert!(first_line.starts_with("CLFUZZ-JOURNAL 2 "));
    cleanup(&[path]);
}
