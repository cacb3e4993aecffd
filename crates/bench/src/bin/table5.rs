//! Reproduces Table 5: CLsmith+EMI testing — base programs, their pruning
//! variants, and per-target base-level outcomes.
//!
//! Usage: `cargo run --release -p bench --bin table5 -- [bases] [variants]
//! [--threads N] [--pipeline] [--paper-scale] [--shard I/N]
//! [--journal PATH] [--resume]`
//! (the paper uses 180 bases and 40 variants; defaults here are 4 and 10,
//! and `--paper-scale` generates base kernels at the paper's 100–10 000
//! work-item scale).
//!
//! The job space is the live-base index space (every shard regenerates the
//! cheap base list deterministically, then judges only its slice).
//! `table5 merge J1 [J2 ...]` refolds shard journals into the table
//! without re-judging anything.

use clsmith::GeneratorOptions;
use fuzz_harness::{
    merge_emi_campaign_journals, render_emi_table, run_emi_campaign_sharded, CampaignOptions,
    EmiCampaignOptions,
};

fn main() {
    let cli = bench::cli();
    let configs = opencl_sim::above_threshold_configurations();

    if let Some(paths) = &cli.merge {
        let (result, summary) =
            merge_emi_campaign_journals(paths, &configs).unwrap_or_else(|e| bench::fail(e));
        bench::report_refold_summary(&summary);
        println!("Table 5 — CLsmith+EMI results over the above-threshold configurations");
        println!(
            "({} live base programs, {} pruning variants each, merged from journals)\n",
            result.bases, result.variants_per_base
        );
        print!("{}", render_emi_table(&result));
        return;
    }

    let scheduler = &cli.scheduler;
    let bases = cli.scale_arg(0, "bases", 4);
    let variants = cli.scale_arg(1, "variants per base", 10);
    let options = EmiCampaignOptions {
        bases,
        variants_per_base: variants,
        campaign: CampaignOptions {
            generator: cli.generator_or(GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::default()
            }),
            exec: cli.exec_options(),
            ..CampaignOptions::default()
        },
    };
    let sharded = run_emi_campaign_sharded(
        scheduler,
        &configs,
        &options,
        cli.shard,
        cli.journal_options().as_ref(),
    )
    .unwrap_or_else(|e| bench::fail(e));
    bench::report_shard_metrics(&cli, &sharded.metrics);
    bench::report_store_stats(&options.campaign.exec);
    println!("Table 5 — CLsmith+EMI results over the above-threshold configurations");
    if cli.is_sharded() {
        println!(
            "(shard {} — PARTIAL table over {} of {} live bases, {} variants each, {} worker(s))\n",
            cli.shard,
            sharded.result.bases,
            sharded.total_bases,
            sharded.result.variants_per_base,
            scheduler.threads()
        );
    } else {
        println!(
            "({} live base programs, {} pruning variants each, {} worker(s))\n",
            sharded.result.bases,
            sharded.result.variants_per_base,
            scheduler.threads()
        );
    }
    print!("{}", render_emi_table(&sharded.result));
}
