//! Worker count and interpreter tier never change a table.  Each test runs
//! the invariance matrix's worker-count or worker × tier cells
//! (`matrix/mod.rs`) of the campaigns it names; the live-base and
//! prefilter tests pin what the matrix's subjects hold fixed.

mod matrix;

use fuzz_harness::{
    generate_live_bases_with, render_campaign_table, run_shard, ModeCampaign, Scheduler,
    ShardSelect,
};
use matrix::*;
use opencl_sim::ExecOptions;

#[test]
fn reliability_classification_is_bit_identical_at_any_worker_count() {
    assert_invariant(&table1(), &[WorkerCounts]);
}

#[test]
fn mode_campaign_is_bit_identical_at_any_worker_count() {
    assert_invariant(&table4(), &[WorkerCounts]);
}

#[test]
fn emi_campaign_is_bit_identical_at_any_worker_count() {
    assert_invariant(&table5(), &[WorkerCounts]);
}

#[test]
fn tables_1_4_5_are_bit_identical_across_workers_and_tiers() {
    concurrently(&[
        &|| assert_invariant(&table1(), &[WorkersAndTiers]),
        &|| assert_invariant(&table4(), &[WorkersAndTiers]),
        &|| assert_invariant(&table5(), &[WorkersAndTiers]),
    ]);
}

/// A Table 3 cell is one sequential fold, so only the campaign's scheduler
/// varies: every in-process cell of the matrix.
#[test]
fn benchmark_emi_cell_is_bit_identical_at_any_worker_count() {
    assert_invariant(&table3(), &IN_PROCESS);
}

/// Probing runs candidates in chunks sized by the worker count; the
/// accepted bases must be the first live candidates at any of them.  (The
/// Table 5 subject probes sequentially in every cell.)
#[test]
fn live_base_acceptance_is_independent_of_worker_count_and_chunking() {
    let options = emi_options(ExecOptions::default());
    let reference = generate_live_bases_with(&Scheduler::sequential(), &options);
    assert_eq!(
        reference.len(),
        3,
        "liveness filtering starved the campaign"
    );
    for workers in [3, 8] {
        let bases = generate_live_bases_with(&Scheduler::new(workers), &options);
        assert_eq!(bases, reference, "{workers} workers changed the live bases");
    }
}

/// The Table 4 subject runs with the static prefilter on: its kernels
/// render an `sk` row, which is the same at any worker count and absent
/// with the prefilter off.
#[test]
fn prefilter_campaign_is_deterministic_and_renders_sk_row() {
    let table4 = |prefilter: bool, workers: usize| -> Vec<String> {
        let options = table4_options(ExecOptions::default(), prefilter);
        let campaign = ModeCampaign::new(&TABLE4_MODES, &configs(&TABLE4_CONFIGS), &options);
        let run = run_shard(
            &Scheduler::new(workers),
            &campaign,
            ShardSelect::whole(),
            None,
        );
        let results = campaign.results(&run.unwrap().aggregate);
        for result in &results {
            // Skipped kernels still count toward every target's total.
            assert!(result.stats.iter().all(|s| s.total() == 4));
        }
        results.iter().map(render_campaign_table).collect()
    };
    let prefiltered = table4(true, 1);
    for table in &prefiltered {
        assert!(table.contains("| sk "), "no kernel skipped:\n{table}");
    }
    assert_eq!(table4(true, 3), prefiltered);
    for table in table4(false, 1) {
        assert!(!table.contains("| sk "), "{table}");
    }
}
