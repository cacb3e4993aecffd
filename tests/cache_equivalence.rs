//! The deduplicated execution layer's headline guarantee: memoising the
//! execution phase by `(fingerprint, exec-relevant options)` NEVER changes
//! campaign results.  Every campaign family is run with the memo forced off
//! (a cold compile + launch per target, the historical behaviour) and with
//! it on, and the rendered tables must be **bit-identical** — and the same
//! holds for the on-disk outcome store: store off, cold store and warm
//! store must render identical tables on both interpreter tiers.

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{
    reliability_rows, render_campaign_table, render_emi_table, run_shard, CampaignOptions,
    CampaignResult, ClassificationCampaign, EmiCampaign, EmiCampaignOptions, EmiCampaignResult,
    ModeCampaign, ReliabilityRow, Scheduler, ShardSelect,
};
use opencl_sim::{Configuration, ExecOptions, ExecutionTier, OutcomeStore};
use std::sync::Arc;

fn options(memoize: bool, seed_offset: u64) -> CampaignOptions {
    CampaignOptions {
        kernels: 8,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        exec: ExecOptions {
            memoize,
            ..ExecOptions::default()
        },
        seed_offset,
        prefilter: false,
    }
}

/// One mode's Table 4 result, run the way `table4` runs its campaign.
fn table4_result(
    scheduler: &Scheduler,
    mode: GenMode,
    configs: &[Configuration],
    options: &CampaignOptions,
) -> CampaignResult {
    let campaign = ModeCampaign::new(&[mode], configs, options);
    let run = run_shard(scheduler, &campaign, ShardSelect::whole(), None).unwrap();
    campaign.results(&run.aggregate).remove(0)
}

/// The Table 1 rows, run the way `table1` runs its campaign.
fn table1_rows(
    scheduler: &Scheduler,
    configs: &[Configuration],
    kernels_per_mode: usize,
    options: &CampaignOptions,
) -> Vec<ReliabilityRow> {
    let campaign = ClassificationCampaign::new(configs, kernels_per_mode, options);
    let run = run_shard(scheduler, &campaign, ShardSelect::whole(), None).unwrap();
    reliability_rows(configs, &run.aggregate)
}

/// The Table 5 result, run the way `table5` runs its campaign.
fn table5_result(
    scheduler: &Scheduler,
    configs: &[Configuration],
    options: &EmiCampaignOptions,
) -> EmiCampaignResult {
    let campaign = EmiCampaign::new(scheduler, configs, options);
    let run = run_shard(scheduler, &campaign, ShardSelect::whole(), None).unwrap();
    campaign.result(&run.aggregate, run.jobs)
}

#[test]
fn table4_mode_campaign_is_bit_identical_with_memo_off_and_on() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(14),
        opencl_sim::configuration(19),
    ];
    let scheduler = Scheduler::sequential();
    let cold = table4_result(&scheduler, GenMode::Barrier, &configs, &options(false, 42));
    let memoized = table4_result(&scheduler, GenMode::Barrier, &configs, &options(true, 42));
    assert_eq!(cold, memoized, "memoisation changed the campaign result");
    assert_eq!(
        render_campaign_table(&cold),
        render_campaign_table(&memoized),
        "memoisation changed the rendered Table 4"
    );
}

#[test]
fn table1_classification_is_bit_identical_with_memo_off_and_on() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(12),
        opencl_sim::configuration(21),
    ];
    let scheduler = Scheduler::sequential();
    let cold = table1_rows(&scheduler, &configs, 2, &options(false, 7));
    let memoized = table1_rows(&scheduler, &configs, 2, &options(true, 7));
    assert_eq!(cold.len(), memoized.len());
    for (c, m) in cold.iter().zip(&memoized) {
        assert_eq!(c.config.id, m.config.id);
        assert_eq!(
            c.failure_fraction.to_bits(),
            m.failure_fraction.to_bits(),
            "memoisation changed configuration {}'s failure fraction",
            c.config.id
        );
        assert_eq!(c.above_threshold, m.above_threshold);
    }
}

#[test]
fn table5_emi_campaign_is_bit_identical_with_memo_off_and_on() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let emi_options = |memoize: bool| EmiCampaignOptions {
        bases: 2,
        variants_per_base: 6,
        campaign: options(memoize, 11),
    };
    let cold = table5_result(&Scheduler::sequential(), &configs, &emi_options(false));
    let memoized = table5_result(&Scheduler::sequential(), &configs, &emi_options(true));
    assert_eq!(cold, memoized, "memoisation changed the EMI campaign");
    assert_eq!(
        render_emi_table(&cold),
        render_emi_table(&memoized),
        "memoisation changed the rendered Table 5"
    );
}

#[test]
fn tables_are_bit_identical_with_store_off_cold_and_warm_on_both_tiers() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(19),
    ];
    let scheduler = Scheduler::sequential();
    for tier in ExecutionTier::ALL {
        let dir = std::env::temp_dir().join(format!(
            "clfuzz-store-equiv-{}-{}",
            std::process::id(),
            tier.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |store: Option<Arc<OutcomeStore>>| {
            // Each pass starts process-cold, so the only state carried
            // between passes is the on-disk store itself.
            opencl_sim::reset_shared_outcome_cache();
            let options = CampaignOptions {
                kernels: 6,
                generator: GeneratorOptions {
                    min_threads: 16,
                    max_threads: 48,
                    ..GeneratorOptions::default()
                },
                exec: ExecOptions {
                    tier,
                    store,
                    ..ExecOptions::default()
                },
                seed_offset: 0x5702E,
                prefilter: false,
            };
            render_campaign_table(&table4_result(
                &scheduler,
                GenMode::Basic,
                &configs,
                &options,
            ))
        };
        let off = run(None);
        let cold_store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let cold = run(Some(Arc::clone(&cold_store)));
        assert!(
            cold_store.stats().writes > 0,
            "cold pass must populate the store"
        );
        // A second handle over the same directory models a fresh process.
        let warm_store = Arc::new(OutcomeStore::open_with_cap(&dir, u64::MAX).unwrap());
        let warm = run(Some(Arc::clone(&warm_store)));
        assert_eq!(off, cold, "{}: a cold store changed the table", tier.name());
        assert_eq!(off, warm, "{}: a warm store changed the table", tier.name());
        assert!(
            warm_store.stats().hits > 0,
            "warm pass must serve outcomes from the store"
        );
        // A warm store serves every execution the memory caches miss: no
        // lookup misses, so nothing is launched or written.
        let warm_stats = warm_store.stats();
        assert_eq!(warm_stats.misses, 0, "{}: warm store missed", tier.name());
        assert_eq!(warm_stats.writes, 0, "{}: warm store wrote", tier.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn memoised_campaigns_actually_deduplicate_launches() {
    // Not just correct — the memo must also *work*: across a small
    // single-kernel fan-out over every configuration, real launches must
    // fall well below the target count.
    let program = clsmith::generate(&GeneratorOptions {
        min_threads: 16,
        max_threads: 32,
        ..GeneratorOptions::new(GenMode::Basic, 5)
    });
    let targets = fuzz_harness::targets_for(&opencl_sim::all_configurations());
    assert_eq!(targets.len(), 42);
    let session = opencl_sim::Session::new(&program);
    fuzz_harness::run_on_targets_session(&session, &targets, &ExecOptions::default());
    let stats = session.memo().stats();
    assert_eq!(stats.requests, 42);
    assert!(
        stats.launches <= stats.requests / 2,
        "expected ≤ half the targets to need a real launch, got {stats:?}"
    );
}
