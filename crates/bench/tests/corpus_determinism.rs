//! The corpus campaign's guided-vs-blind table and journal record set do
//! not depend on worker count, tier, cache level, shard split or fleet
//! faults.  Guided lineages accept mutants by the launches' dynamic
//! coverage, so a cache level that replayed the wrong coverage would show
//! here first.  The tests split the corpus's invariance-matrix cells
//! (`matrix/mod.rs`) between journal-merging splits and the rest.

mod matrix;

use matrix::*;

#[test]
fn corpus_campaign_is_bit_identical_across_workers_and_tiers() {
    let parts = [
        MemoOffOn,
        StoreLevels,
        WorkerCounts,
        WorkersAndTiers,
        FleetFaults,
    ];
    assert_invariant(&corpus(), &parts);
}

#[test]
fn corpus_shard_merge_matches_the_whole_run() {
    assert_invariant(&corpus(), &[ShardedResumed, SharedStore]);
}
