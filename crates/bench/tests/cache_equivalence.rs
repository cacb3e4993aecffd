//! Cache levels never change a table: memo off ≡ memo on, and store off ≡
//! cold store ≡ warm store on both interpreter tiers.  Each test runs the
//! invariance matrix's memo or store cells (`matrix/mod.rs`) of the
//! campaigns it names; a warm store must serve every lookup.

mod matrix;

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{run_on_targets_session, targets_for};
use matrix::*;
use opencl_sim::ExecOptions;

#[test]
fn table1_classification_is_bit_identical_with_memo_off_and_on() {
    assert_invariant(&table1(), &[MemoOffOn]);
}

#[test]
fn table4_mode_campaign_is_bit_identical_with_memo_off_and_on() {
    assert_invariant(&table4(), &[MemoOffOn]);
}

#[test]
fn table5_emi_campaign_is_bit_identical_with_memo_off_and_on() {
    assert_invariant(&table5(), &[MemoOffOn]);
}

#[test]
fn tables_are_bit_identical_with_store_off_cold_and_warm_on_both_tiers() {
    concurrently(&[
        &|| assert_invariant(&table1(), &[StoreLevels]),
        &|| assert_invariant(&table4(), &[StoreLevels]),
        &|| assert_invariant(&table5(), &[StoreLevels]),
    ]);
}

/// The memo is not only invisible but effective: a 42-target fan-out of
/// one kernel launches at most half as often as it is asked to.
#[test]
fn memoised_campaigns_actually_deduplicate_launches() {
    let program = clsmith::generate(&GeneratorOptions {
        min_threads: 16,
        max_threads: 32,
        ..GeneratorOptions::new(GenMode::Basic, 5)
    });
    let targets = targets_for(&opencl_sim::all_configurations());
    assert_eq!(targets.len(), 42);
    let session = opencl_sim::Session::new(&program);
    run_on_targets_session(&session, &targets, &ExecOptions::default());
    let stats = session.memo().stats();
    assert_eq!(stats.requests, 42);
    assert!(stats.launches <= stats.requests / 2, "{stats:?}");
}
