//! Splitting a campaign never changes its table: a single run, the same
//! campaign in three concurrent shards merged from their journals, and a
//! run killed mid-record and resumed from its journal all render the same
//! table and journal the same record set.  Each test runs the invariance
//! matrix's shard and resume cells (`matrix/mod.rs`) of the campaigns it
//! names.

mod matrix;

use clsmith::GenMode;
use fuzz_harness::shard::{JournalOptions, ShardSelect};
use fuzz_harness::{load_journal, run_shard, ModeCampaign, Scheduler};
use matrix::*;
use opencl_sim::ExecOptions;

#[test]
fn table1_single_sharded_and_resumed_runs_are_byte_identical() {
    assert_invariant(&table1(), &[ShardedResumed]);
}

#[test]
fn table4_single_sharded_and_resumed_runs_are_byte_identical() {
    assert_invariant(&table4(), &[ShardedResumed]);
}

#[test]
fn table5_single_sharded_and_resumed_runs_are_byte_identical() {
    assert_invariant(&table5(), &[ShardedResumed]);
}

/// Three shards race on separate threads, each holding its own
/// `OutcomeStore` handle over one directory (the in-process model of three
/// shard processes sharing a store), cold and then warm.
#[test]
fn concurrent_shards_sharing_one_store_directory_stay_byte_identical() {
    concurrently(&[
        &|| assert_invariant(&table1(), &[SharedStore]),
        &|| assert_invariant(&table4(), &[SharedStore]),
        &|| assert_invariant(&table5(), &[SharedStore]),
    ]);
}

/// A journal carries the format version, campaign descriptor, seed,
/// job-space size and shard coordinates.
#[test]
fn journals_are_self_describing_and_versioned() {
    let dir = scratch("header");
    let path = dir.join("shard-1.journal");
    let options = campaign_options(ExecOptions::default(), 8, 0xD0C);
    run_shard(
        &Scheduler::sequential(),
        &ModeCampaign::new(&[GenMode::Basic], &configs(&[1]), &options),
        ShardSelect { index: 1, count: 2 },
        Some(&JournalOptions::create(&path)),
    )
    .expect("journaled campaign");
    let loaded = load_journal(&path).expect("load journal");
    assert!(loaded.header.campaign.starts_with("modes:BASIC:k8:"));
    assert_eq!(loaded.header.campaign_seed, 0xD0C);
    assert_eq!(loaded.header.total_jobs, 8);
    assert_eq!(loaded.header.shard_index, 1);
    assert_eq!(loaded.header.shard_count, 2);
    assert_eq!(loaded.records.len(), 4, "shard 1/2 of 8 jobs holds 4");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("CLFUZZ-JOURNAL 3 "));
    let _ = std::fs::remove_dir_all(&dir);
}
