//! Reproduces Table 1: the 21 configurations and their classification
//! against the §7.1 reliability threshold (25 % failures over the initial
//! kernel set).
//!
//! Usage: `cargo run --release -p bench --bin table1 -- [kernels-per-mode]
//! [--threads N] [--pipeline] [--paper-scale] [--shard I/N]
//! [--journal PATH] [--resume]`
//! (the paper uses 100 per mode; the default here is 8 so the emulated run
//! finishes quickly, and `--paper-scale` generates kernels at the paper's
//! 100–10 000 work-item scale).
//!
//! `table1 merge J1 [J2 ...]` refolds shard journals into the table
//! without re-running any job.
//!
//! `table1 coordinate [kernels-per-mode] --fleet-dir DIR [--workers N]
//! [--lease-jobs N] [--faults SPEC] [--follow]` runs the same campaign as a
//! crash-tolerant worker fleet (spawning `table1 worker` children) and
//! prints the merged table — byte-identical to `table1 merge` over a
//! fault-free batch journal, even under injected worker faults.

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::shard::{CheckpointPolicy, JournalOptions};
use fuzz_harness::{
    classify_configurations_range, classify_configurations_sharded, merge_classification_journals,
    render_reliability_table, CampaignOptions, ReliabilityRow,
};
use opencl_sim::Configuration;

fn print_table(rows: &[ReliabilityRow]) {
    print!("{}", render_reliability_table(rows));
    let judged: Vec<&ReliabilityRow> = rows.iter().filter(|r| r.kernels > 0).collect();
    let agreements = judged
        .iter()
        .filter(|r| r.above_threshold == r.config.expected_above_threshold)
        .count();
    println!(
        "\nClassification agrees with the paper for {agreements}/{} configurations.",
        judged.len()
    );
}

/// The options and job-space geometry shared by every table1 entry point,
/// derived from one `kernels-per-mode` argument.
fn campaign_setup(cli: &bench::Cli, kernels_per_mode: usize) -> (CampaignOptions, u64) {
    let options = CampaignOptions {
        generator: cli.generator_or(GeneratorOptions {
            min_threads: 16,
            max_threads: 64,
            ..GeneratorOptions::default()
        }),
        exec: cli.exec_options(),
        ..CampaignOptions::default()
    };
    let total_jobs = (GenMode::ALL.len() * kernels_per_mode) as u64;
    (options, total_jobs)
}

fn fleet_main(cli: &bench::Cli, configs: &[Configuration]) -> ! {
    let role = cli.positional[0].clone();
    let kernels_per_mode = cli.scale_arg(1, "kernels per mode", 8);
    let (options, total_jobs) = campaign_setup(cli, kernels_per_mode);
    if role == "worker" {
        bench::fleet::worker_loop(
            cli,
            options.seed_offset,
            total_jobs,
            |lease, stop_before| {
                classify_configurations_range(
                    &cli.scheduler,
                    configs,
                    kernels_per_mode,
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
    let mut worker_args = vec!["worker".to_string(), kernels_per_mode.to_string()];
    worker_args.extend(bench::fleet::forwarded_worker_flags(cli));
    // Under --follow, completed lease journals refold into a live partial
    // table after every DONE event.
    let live_table = |journals: &[std::path::PathBuf]| {
        merge_classification_journals(journals, configs)
            .map(|(rows, _)| render_reliability_table(&rows))
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
    let (rows, summary) = merge_classification_journals(&outcome.journals, configs)
        .unwrap_or_else(|e| bench::fail(e));
    bench::report_refold_summary(&summary);
    println!("Table 1 — configurations and reliability classification (merged from journals)\n");
    print_table(&rows);
    std::process::exit(status);
}

fn main() {
    let cli = bench::cli();
    let configs = opencl_sim::all_configurations();

    match cli.positional.first().map(String::as_str) {
        Some("coordinate") | Some("worker") => fleet_main(&cli, &configs),
        _ => {}
    }

    if let Some(paths) = &cli.merge {
        let (rows, summary) =
            merge_classification_journals(paths, &configs).unwrap_or_else(|e| bench::fail(e));
        bench::report_refold_summary(&summary);
        println!(
            "Table 1 — configurations and reliability classification (merged from journals)\n"
        );
        print_table(&rows);
        return;
    }

    let scheduler = &cli.scheduler;
    let kernels_per_mode = cli.scale_arg(0, "kernels per mode", 8);
    let (options, _total_jobs) = campaign_setup(&cli, kernels_per_mode);
    let sharded = classify_configurations_sharded(
        scheduler,
        &configs,
        kernels_per_mode,
        &options,
        cli.shard,
        cli.journal_options().as_ref(),
    )
    .unwrap_or_else(|e| bench::fail(e));
    bench::report_shard_metrics(&cli, &sharded.metrics);
    bench::report_store_stats(&options.exec);
    println!("Table 1 — configurations and reliability classification");
    println!("({} scheduler worker(s))", scheduler.threads());
    if cli.is_sharded() {
        println!(
            "(shard {} — PARTIAL table over {} of {} jobs)\n",
            cli.shard,
            sharded.metrics.jobs_resumed + sharded.metrics.jobs_replayed,
            kernels_per_mode * 6
        );
    } else {
        println!(
            "({kernels_per_mode} kernels per mode, {} total per configuration)\n",
            kernels_per_mode * 6
        );
    }
    print_table(&sharded.rows);
}
