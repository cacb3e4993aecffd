//! Reproduces Table 4: per-mode CLsmith campaigns over the above-threshold
//! configurations, with w / bf / c / to / ok counts and the wrong-code
//! percentage per (configuration, optimisation level).
//!
//! Usage: `cargo run --release -p bench --bin table4 -- [kernels-per-mode]
//! [--threads N] [--pipeline] [--paper-scale] [--shard I/N]
//! [--journal PATH] [--resume]`
//! (the paper uses 10 000 per mode; default here is 20, and `--paper-scale`
//! generates kernels at the paper's 100–10 000 work-item scale).
//!
//! All six modes form one mode-major job space, so a `--shard I/N` split
//! carves the whole table, not a single mode.  `table4 merge J1 [J2 ...]`
//! refolds shard journals into the per-mode blocks without re-running
//! anything.

//! `table4 coordinate [kernels-per-mode] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `table4 worker` children) and prints the merged
//! table — byte-identical to `table4 merge` over a fault-free batch
//! journal, even under injected worker faults.

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{CheckpointPolicy, JournalOptions};
use fuzz_harness::{
    merge_mode_campaign_journals, render_campaign_table, run_modes_campaign_range,
    run_modes_campaign_sharded, CampaignOptions, CampaignResult,
};
use opencl_sim::Configuration;

fn print_blocks(results: &[CampaignResult]) {
    for result in results {
        println!("{} ({} kernels)", result.mode.name(), result.kernels);
        print!("{}", render_campaign_table(result));
        println!();
    }
}

/// The options and job-space geometry shared by every table4 entry point,
/// derived from one `kernels-per-mode` argument.
fn campaign_setup(cli: &bench::Cli, kernels: usize) -> (CampaignOptions, u64) {
    let options = CampaignOptions {
        kernels,
        generator: cli.generator_or(GeneratorOptions {
            min_threads: 16,
            max_threads: 64,
            ..GeneratorOptions::default()
        }),
        exec: cli.exec_options(),
        ..CampaignOptions::default()
    };
    let total_jobs = (GenMode::ALL.len() * kernels) as u64;
    (options, total_jobs)
}

fn fleet_main(cli: &bench::Cli, configs: &[Configuration]) -> ! {
    let role = cli.positional[0].clone();
    let kernels = cli.scale_arg(1, "kernels per mode", 20);
    let (options, total_jobs) = campaign_setup(cli, kernels);
    if role == "worker" {
        bench::fleet::worker_loop(
            cli,
            options.seed_offset,
            total_jobs,
            |lease, stop_before| {
                run_modes_campaign_range(
                    &cli.scheduler,
                    &GenMode::ALL,
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
    let mut worker_args = vec!["worker".to_string(), kernels.to_string()];
    worker_args.extend(bench::fleet::forwarded_worker_flags(cli));
    // Under --follow, completed lease journals refold into live partial
    // mode blocks after every DONE event.
    let live_table = |journals: &[std::path::PathBuf]| {
        merge_mode_campaign_journals(journals, configs)
            .map(|(results, _)| {
                results
                    .iter()
                    .map(|r| format!("{}\n{}", r.mode.name(), render_campaign_table(r)))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
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
    let (results, summary) =
        merge_mode_campaign_journals(&outcome.journals, configs).unwrap_or_else(|e| bench::fail(e));
    bench::report_refold_summary(&summary);
    println!("Table 4 — CLsmith campaigns over the above-threshold configurations");
    println!("(merged from journals)\n");
    print_blocks(&results);
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
        let (results, summary) =
            merge_mode_campaign_journals(paths, &configs).unwrap_or_else(|e| bench::fail(e));
        bench::report_refold_summary(&summary);
        println!("Table 4 — CLsmith campaigns over the above-threshold configurations");
        println!("(merged from journals)\n");
        print_blocks(&results);
        return;
    }

    let scheduler = &cli.scheduler;
    let kernels = cli.scale_arg(0, "kernels per mode", 20);
    let (options, _total_jobs) = campaign_setup(&cli, kernels);
    let sharded = run_modes_campaign_sharded(
        scheduler,
        &GenMode::ALL,
        &configs,
        &options,
        cli.shard,
        cli.journal_options().as_ref(),
    )
    .unwrap_or_else(|e| bench::fail(e));
    bench::report_shard_metrics(&cli, &sharded.metrics);
    bench::report_store_stats(&options.exec);
    println!("Table 4 — CLsmith campaigns over the above-threshold configurations");
    if cli.is_sharded() {
        println!(
            "(shard {} — PARTIAL tables over {} of {} jobs, {} worker(s))\n",
            cli.shard,
            sharded.metrics.jobs_resumed + sharded.metrics.jobs_replayed,
            kernels * GenMode::ALL.len(),
            scheduler.threads()
        );
    } else {
        println!(
            "({} kernels per mode over {} worker(s); the paper uses 10 000)\n",
            kernels,
            scheduler.threads()
        );
    }
    print_blocks(&sharded.results);
}
