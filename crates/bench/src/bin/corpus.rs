//! Feedback-guided corpus campaign: evolves lineages of mutated kernels
//! under coverage-map acceptance and compares the guided strategy against a
//! blind ablation at the same kernel budget (same base seeds, same chain
//! length — the paired experiment the paper's blind sampling lacks).
//!
//! Usage: `cargo run --release -p bench --bin corpus -- [lineages] [chain]
//! [--threads N] [--pipeline] [--paper-scale] [--shard I/N]
//! [--journal PATH] [--resume]`
//! (defaults: 12 lineages per strategy, 5 mutations per lineage).
//!
//! The job space is strategy-major (guided lineages first, then blind), so
//! a `--shard I/N` split carves both strategies.  `corpus merge J1 [J2 ...]`
//! refolds shard journals into the comparison table without re-running
//! anything.
//!
//! `corpus coordinate [lineages] [chain] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `corpus worker` children) and prints the merged
//! table — byte-identical to `corpus merge` over a fault-free batch
//! journal, even under injected worker faults.

use fuzz_harness::shard::{CheckpointPolicy, JournalOptions};
use fuzz_harness::{
    merge_corpus_campaign_journals, render_corpus_table, run_corpus_campaign_range,
    run_corpus_campaign_sharded, CorpusCampaignResult, CorpusOptions, CorpusStrategy,
};
use opencl_sim::Configuration;

fn print_result(result: &CorpusCampaignResult) {
    print!("{}", render_corpus_table(result));
    let (guided, blind) = (result.guided(), result.blind());
    if guided.kernels() > 0 && blind.kernels() > 0 {
        println!(
            "\nGuided vs blind at {} kernels each: {:.3} vs {:.3} bugs/kernel, \
             {:.1}% vs {:.1}% coverage saturation.",
            guided.kernels(),
            guided.bugs_per_kernel(),
            blind.bugs_per_kernel(),
            guided.saturation() * 100.0,
            blind.saturation() * 100.0,
        );
    }
}

/// The options and job-space geometry shared by every corpus entry point,
/// derived from the `lineages` and `chain` arguments.
fn campaign_setup(cli: &bench::Cli, lineages: usize, chain: usize) -> (CorpusOptions, u64) {
    let options = CorpusOptions {
        lineages,
        chain,
        generator: cli.generator_or(clsmith::GeneratorOptions {
            min_threads: 16,
            max_threads: 64,
            ..clsmith::GeneratorOptions::default()
        }),
        exec: cli.exec_options(),
        ..CorpusOptions::default()
    };
    let total_jobs = (CorpusStrategy::ALL.len() * lineages) as u64;
    (options, total_jobs)
}

fn scale_args(cli: &bench::Cli, skip: usize) -> (usize, usize) {
    (
        cli.scale_arg(skip, "lineages", 12),
        cli.scale_arg(skip + 1, "chain length", 5),
    )
}

fn fleet_main(cli: &bench::Cli, configs: &[Configuration]) -> ! {
    let role = cli.positional[0].clone();
    let (lineages, chain) = scale_args(cli, 1);
    let (options, total_jobs) = campaign_setup(cli, lineages, chain);
    if role == "worker" {
        bench::fleet::worker_loop(
            cli,
            options.seed_offset,
            total_jobs,
            |lease, stop_before| {
                run_corpus_campaign_range(
                    &cli.scheduler,
                    configs,
                    &options,
                    lease.id,
                    lease.start..lease.end,
                    Some(&JournalOptions {
                        path: lease.journal.clone(),
                        resume: true,
                    }),
                    Some(CheckpointPolicy {
                        every: cli.fleet.checkpoint_every,
                    }),
                    stop_before,
                )
                .map(|run| run.metrics.jobs_replayed)
                .map_err(|e| e.to_string())
            },
        );
    }
    let mut worker_args = vec![
        "worker".to_string(),
        lineages.to_string(),
        chain.to_string(),
    ];
    worker_args.extend(bench::fleet::forwarded_worker_flags(cli));
    // Under --follow, completed lease journals refold into a live partial
    // guided-vs-blind table after every DONE event.
    let live_table = |journals: &[std::path::PathBuf]| {
        merge_corpus_campaign_journals(journals, configs)
            .map(|(result, _)| render_corpus_table(&result))
            .map_err(|e| e.to_string())
    };
    let outcome = bench::fleet::run_coordinator(
        cli,
        options.seed_offset,
        total_jobs,
        worker_args,
        Some(&live_table),
    );
    let status = bench::fleet::report_fleet_outcome(&outcome);
    if outcome.journals.is_empty() {
        eprintln!("fleet: no lease completed; nothing to merge");
        std::process::exit(status.max(1));
    }
    let (result, summary) = merge_corpus_campaign_journals(&outcome.journals, configs)
        .unwrap_or_else(|e| bench::fail(e));
    bench::report_refold_summary(&summary);
    println!("Corpus campaign — coverage-guided vs blind mutation chains");
    println!("(merged from journals)\n");
    print_result(&result);
    std::process::exit(status);
}

fn main() {
    let cli = bench::cli();
    let configs = opencl_sim::above_threshold_configurations();

    match cli.positional.first().map(String::as_str) {
        Some("coordinate") | Some("worker") => fleet_main(&cli, &configs),
        _ => {}
    }

    if let Some(paths) = &cli.merge {
        let (result, summary) =
            merge_corpus_campaign_journals(paths, &configs).unwrap_or_else(|e| bench::fail(e));
        bench::report_refold_summary(&summary);
        println!("Corpus campaign — coverage-guided vs blind mutation chains");
        println!("(merged from journals)\n");
        print_result(&result);
        return;
    }

    let scheduler = &cli.scheduler;
    let (lineages, chain) = scale_args(&cli, 0);
    let (options, total_jobs) = campaign_setup(&cli, lineages, chain);
    let sharded = run_corpus_campaign_sharded(
        scheduler,
        &configs,
        &options,
        cli.shard,
        cli.journal_options().as_ref(),
    )
    .unwrap_or_else(|e| bench::fail(e));
    bench::report_shard_metrics(&cli, &sharded.metrics);
    bench::report_store_stats(&options.exec);
    println!("Corpus campaign — coverage-guided vs blind mutation chains");
    if cli.is_sharded() {
        println!(
            "(shard {} — PARTIAL table over {} of {} lineage jobs, {} worker(s))\n",
            cli.shard,
            sharded.metrics.jobs_resumed + sharded.metrics.jobs_replayed,
            total_jobs,
            scheduler.threads()
        );
    } else {
        println!(
            "({} lineages per strategy, {} mutations per lineage, {} worker(s))\n",
            lineages,
            chain,
            scheduler.threads()
        );
    }
    print_result(&sharded.result);
}
