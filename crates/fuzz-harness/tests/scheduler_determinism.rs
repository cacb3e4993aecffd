//! The campaign engine's headline guarantee: for a fixed campaign seed,
//! every driver produces **bit-identical** results — including the rendered
//! report tables — at any worker count, on either interpreter tier.

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{
    evaluate_benchmark_with, generate_live_bases_with, percent, reliability_rows,
    render_campaign_table, render_emi_table, render_reliability_table, run_shard, CampaignOptions,
    CampaignResult, ClassificationCampaign, EmiBenchmark, EmiCampaign, EmiCampaignOptions,
    EmiCampaignResult, ExecutionTier, ModeCampaign, ReliabilityRow, Scheduler, ShardSelect,
};
use opencl_sim::{Configuration, ExecOptions};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Worker counts of the worker-count × tier differential (1, a small prime,
/// and "many" relative to the job counts below).
const DIFFERENTIAL_WORKER_COUNTS: [usize; 3] = [1, 3, 8];

fn small_campaign_options(seed_offset: u64) -> CampaignOptions {
    CampaignOptions {
        kernels: 10,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        exec: ExecOptions::default(),
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

#[test]
fn mode_campaign_is_bit_identical_at_any_worker_count() {
    let configs = vec![
        opencl_sim::configuration(1),
        opencl_sim::configuration(9),
        opencl_sim::configuration(14),
        opencl_sim::configuration(19),
    ];
    let options = small_campaign_options(0xC0FFEE);
    let reference = table4_result(
        &Scheduler::sequential(),
        GenMode::Barrier,
        &configs,
        &options,
    );
    let reference_table = render_campaign_table(&reference);
    assert!(reference.stats.iter().any(|s| s.total() == options.kernels));
    for workers in WORKER_COUNTS {
        let result = table4_result(
            &Scheduler::new(workers),
            GenMode::Barrier,
            &configs,
            &options,
        );
        assert_eq!(
            result, reference,
            "{workers} workers changed the campaign result"
        );
        assert_eq!(
            render_campaign_table(&result),
            reference_table,
            "{workers} workers changed the rendered table"
        );
    }
}

#[test]
fn emi_campaign_is_bit_identical_at_any_worker_count() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let options = EmiCampaignOptions {
        bases: 3,
        variants_per_base: 6,
        campaign: small_campaign_options(7),
    };
    let reference = table5_result(&Scheduler::sequential(), &configs, &options);
    let reference_table = render_emi_table(&reference);
    assert!(reference.bases > 0, "liveness filtering accepted no bases");
    for workers in WORKER_COUNTS {
        let result = table5_result(&Scheduler::new(workers), &configs, &options);
        assert_eq!(
            result, reference,
            "{workers} workers changed the EMI campaign result"
        );
        assert_eq!(
            render_emi_table(&result),
            reference_table,
            "{workers} workers changed the rendered table"
        );
    }
}

#[test]
fn live_base_acceptance_is_independent_of_worker_count_and_chunking() {
    let options = EmiCampaignOptions {
        bases: 3,
        variants_per_base: 4,
        campaign: small_campaign_options(21),
    };
    let reference = generate_live_bases_with(&Scheduler::sequential(), &options);
    assert!(!reference.is_empty());
    for workers in WORKER_COUNTS {
        // Different worker counts probe candidates in different chunk sizes;
        // the accepted set must still be the first N live candidates.
        let bases = generate_live_bases_with(&Scheduler::new(workers), &options);
        assert_eq!(
            bases, reference,
            "{workers} workers changed the accepted base set"
        );
    }
}

#[test]
fn reliability_classification_is_bit_identical_at_any_worker_count() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(21)];
    let options = small_campaign_options(0);
    let describe = |scheduler: &Scheduler| -> Vec<(usize, String, bool)> {
        table1_rows(scheduler, &configs, 3, &options)
            .into_iter()
            .map(|row| {
                (
                    row.config.id,
                    percent(row.failure_fraction * 100.0),
                    row.above_threshold,
                )
            })
            .collect()
    };
    let reference = describe(&Scheduler::sequential());
    for workers in WORKER_COUNTS {
        assert_eq!(
            describe(&Scheduler::new(workers)),
            reference,
            "{workers} workers"
        );
    }
}

/// The worker-count × tier differential: Tables 1, 4 and 5 at 1, 3 and 8
/// workers must be bit-identical to the 2-worker reference — on both
/// interpreter tiers, since the tier is the execution half of every staged
/// job.
#[test]
fn tables_1_4_5_are_bit_identical_across_workers_and_tiers() {
    for tier in ExecutionTier::ALL {
        let exec = ExecOptions {
            tier,
            ..ExecOptions::default()
        };
        let campaign_options = |seed_offset: u64| CampaignOptions {
            kernels: 8,
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 48,
                ..GeneratorOptions::default()
            },
            exec: exec.clone(),
            seed_offset,
            prefilter: false,
        };

        // Table 1: the reliability classification.
        let table1_configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(21)];
        let table1 = |scheduler: &Scheduler| {
            render_reliability_table(&table1_rows(
                scheduler,
                &table1_configs,
                3,
                &campaign_options(0x7AB1E1),
            ))
        };

        // Table 4: a per-mode CLsmith campaign.
        let table4_configs = vec![
            opencl_sim::configuration(1),
            opencl_sim::configuration(9),
            opencl_sim::configuration(19),
        ];
        let table4 = |scheduler: &Scheduler| {
            render_campaign_table(&table4_result(
                scheduler,
                GenMode::Barrier,
                &table4_configs,
                &campaign_options(0x7AB1E4),
            ))
        };

        // Table 5: the EMI campaign (variant pruning, the memoised judging
        // grid and row classification are distinct job stages here).
        let table5_configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
        let emi_options = EmiCampaignOptions {
            bases: 2,
            variants_per_base: 5,
            campaign: campaign_options(0x7AB1E5),
        };
        let table5 = |scheduler: &Scheduler| {
            render_emi_table(&table5_result(scheduler, &table5_configs, &emi_options))
        };

        type RenderTable<'a> = &'a dyn Fn(&Scheduler) -> String;
        let tables: [(&str, RenderTable<'_>); 3] = [("1", &table1), ("4", &table4), ("5", &table5)];
        for (name, render) in tables {
            let reference = render(&Scheduler::new(2));
            for workers in DIFFERENTIAL_WORKER_COUNTS {
                assert_eq!(
                    render(&Scheduler::new(workers)),
                    reference,
                    "Table {name} diverged from the 2-worker reference \
                     at {workers} workers on the {} tier",
                    tier.name()
                );
            }
        }
    }
}

#[test]
fn benchmark_emi_cell_is_bit_identical_at_any_worker_count() {
    let donor = clsmith::generate(
        &GeneratorOptions {
            min_threads: 16,
            max_threads: 32,
            ..GeneratorOptions::new(GenMode::Basic, 123)
        }
        .with_emi(),
    );
    let bodies: Vec<clc::Block> = donor
        .emi_blocks()
        .iter()
        .map(|b| b.body.clone())
        .take(4)
        .collect();
    assert!(!bodies.is_empty());
    let bench = parboil();
    let emi = EmiBenchmark {
        name: bench.0,
        program: bench.1,
        bodies,
        injection_points: 1,
    };
    let config = opencl_sim::configuration(12);
    let exec = ExecOptions::default();
    let reference = evaluate_benchmark_with(&Scheduler::sequential(), &emi, &config, &exec);
    for workers in WORKER_COUNTS {
        let cell = evaluate_benchmark_with(&Scheduler::new(workers), &emi, &config, &exec);
        assert_eq!(cell.render(), reference.render(), "{workers} workers");
        assert_eq!(cell.variants, reference.variants, "{workers} workers");
    }
}

/// A small deterministic host kernel for the Table 3 cell test.
fn parboil() -> (String, clc::Program) {
    use clc::{BufferSpec, Expr, IdKind, KernelDef, LaunchConfig, ScalarType, Stmt, Type};
    let mut p = clc::Program::new(
        KernelDef {
            name: "bench".into(),
            params: clc::Program::standard_clsmith_params(0),
            body: clc::Block::of(vec![
                Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(3))),
                Stmt::assign(
                    Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                    Expr::var("x"),
                ),
            ]),
        },
        LaunchConfig::single_group(4),
    );
    p.buffers
        .push(BufferSpec::result("out", ScalarType::ULong, 4));
    ("tiny".to_string(), p)
}

/// The static pre-filter (`CampaignOptions::prefilter`) keeps every
/// guarantee above: skipped kernels land in the `sk` tally row, the row
/// only renders when something was actually skipped, totals still count
/// every kernel, and the table stays bit-identical at any worker count.
#[test]
fn prefilter_campaign_is_deterministic_and_renders_sk_row() {
    let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
    let options = CampaignOptions {
        kernels: 40,
        prefilter: true,
        ..small_campaign_options(0xF117E2)
    };
    let reference = table4_result(&Scheduler::sequential(), GenMode::All, &configs, &options);
    let reference_table = render_campaign_table(&reference);
    let skipped: usize = reference.stats.iter().map(|s| s.skipped).sum();
    assert!(
        skipped > 0,
        "seed offset produced no statically-uncertified kernels — the sk \
         path never ran:\n{reference_table}"
    );
    assert!(
        reference_table.contains("| sk "),
        "skipped kernels must render an sk row:\n{reference_table}"
    );
    for stat in &reference.stats {
        assert_eq!(
            stat.total(),
            options.kernels,
            "skipped kernels must still count toward the per-target total"
        );
    }
    for workers in WORKER_COUNTS {
        let result = table4_result(&Scheduler::new(workers), GenMode::All, &configs, &options);
        assert_eq!(
            render_campaign_table(&result),
            reference_table,
            "prefilter campaign diverged at {workers} workers"
        );
    }
    // Prefilter off on the same seed renders no sk row at all.
    let off = table4_result(
        &Scheduler::sequential(),
        GenMode::All,
        &configs,
        &CampaignOptions {
            prefilter: false,
            ..options.clone()
        },
    );
    assert!(!render_campaign_table(&off).contains("| sk "));
}
