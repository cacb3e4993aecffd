//! The corpus campaign's determinism invariant (the feedback-loop
//! extension of `tests/shard_equivalence.rs`): for a fixed campaign seed,
//! the rendered guided-vs-blind table and the **canonical journal record
//! set** are bit-identical at 1, 3 and 8 workers, on both interpreter
//! tiers.
//!
//! Journal *bytes* are deliberately not compared: `run_shard` streams
//! records in completion order, which legitimately varies with worker
//! count.  The canonical set — job index → payload, which is what resume
//! and merge consume — must not.
//!
//! The runs intentionally share the process-wide outcome cache (no reset
//! between worker counts): a later run replays dynamic coverage from cache
//! entries populated by an earlier one, so this test also pins the
//! coverage-replays-identically property of the platform's cache levels.
//!
//! A 3-shard split merged via journals must also reproduce the whole-run
//! table byte for byte.

use fuzz_harness::shard::{JournalOptions, ShardSelect};
use fuzz_harness::{
    load_journal, merge, render_corpus_table, run_shard, CorpusCampaign, CorpusOptions, Scheduler,
};
use opencl_sim::{ExecOptions, ExecutionTier};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const WORKER_COUNTS: [usize; 3] = [1, 3, 8];

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "clfuzz-corpus-determinism-{}-{name}.log",
        std::process::id()
    ))
}

fn corpus_options(tier: ExecutionTier) -> CorpusOptions {
    CorpusOptions {
        lineages: 2,
        chain: 3,
        generator: clsmith::GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..clsmith::GeneratorOptions::default()
        },
        exec: ExecOptions {
            tier,
            store: None,
            ..ExecOptions::default()
        },
        seed_offset: 0xC0FFEE,
    }
}

/// The canonical record set: job index → journal payload, independent of
/// the completion order the journal file physically records.
fn record_set(path: &Path) -> BTreeMap<u64, String> {
    load_journal(path)
        .expect("journal loads")
        .records
        .into_iter()
        .map(|r| (r.job_index, r.payload))
        .collect()
}

#[test]
fn corpus_campaign_is_bit_identical_across_workers_and_tiers() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(19),
    ];
    let mut cross_tier_tables: Vec<String> = Vec::new();
    let mut paths = Vec::new();
    for tier in ExecutionTier::ALL {
        let campaign = CorpusCampaign::new(&configs, &corpus_options(tier));
        let mut reference: Option<(String, BTreeMap<u64, String>)> = None;
        for workers in WORKER_COUNTS {
            let scheduler = Scheduler::new(workers);
            let path = temp_path(&format!("{}-{workers}", tier.name()));
            let run = run_shard(
                &scheduler,
                &campaign,
                ShardSelect::whole(),
                Some(&JournalOptions::create(&path)),
            )
            .expect("journaled corpus campaign");
            let table = render_corpus_table(&campaign.result(run.aggregate));
            let records = record_set(&path);
            paths.push(path);
            match &reference {
                None => reference = Some((table, records)),
                Some((ref_table, ref_records)) => {
                    assert_eq!(
                        ref_table,
                        &table,
                        "{} {workers} worker(s): table diverged",
                        tier.name()
                    );
                    assert_eq!(
                        ref_records,
                        &records,
                        "{} {workers} worker(s): journal record set diverged",
                        tier.name()
                    );
                }
            }
        }
        let (table, records) = reference.expect("at least one run per tier");
        assert_eq!(
            records.len(),
            4,
            "2 lineages × 2 strategies must journal 4 records"
        );
        cross_tier_tables.push(table);
    }
    // Coverage is built from tier-stable signals only, so the whole table —
    // bug tallies *and* coverage/saturation rows — matches across tiers.
    assert_eq!(
        cross_tier_tables[0], cross_tier_tables[1],
        "corpus table diverged between interpreter tiers"
    );
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn corpus_shard_merge_matches_the_whole_run() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let campaign = CorpusCampaign::new(&configs, &corpus_options(ExecutionTier::Bytecode));
    let scheduler = Scheduler::new(3);
    let whole = run_shard(&scheduler, &campaign, ShardSelect::whole(), None)
        .expect("whole corpus campaign");
    let reference = render_corpus_table(&campaign.result(whole.aggregate));

    let mut paths = Vec::new();
    for index in 0..3u32 {
        let path = temp_path(&format!("shard-{index}"));
        run_shard(
            &scheduler,
            &campaign,
            ShardSelect { index, count: 3 },
            Some(&JournalOptions::create(&path)),
        )
        .expect("sharded corpus campaign");
        paths.push(path);
    }
    let (campaign, tally, summary) =
        merge::<CorpusCampaign>(&paths, &configs).expect("merge corpus journals");
    let merged = campaign.result(tally);
    assert!(summary.complete, "3 shards must cover the whole job space");
    assert_eq!(
        render_corpus_table(&merged),
        reference,
        "3-shard journal merge diverged from the whole run"
    );
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}
