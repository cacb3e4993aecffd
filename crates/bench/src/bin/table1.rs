//! Reproduces Table 1: the 21 configurations and their classification
//! against the §7.1 reliability threshold (25 % failures over the initial
//! kernel set).
//!
//! Usage: `cargo run --release -p bench --bin table1 -- [kernels-per-mode]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]`
//! (the paper uses 100 per mode; the default here is 8 so the emulated run
//! finishes quickly, and `--paper-scale` generates kernels at the paper's
//! 100–10 000 work-item scale).
//!
//! `table1 merge J1 [J2 ...]` merges shard journals into the table
//! without re-running any job.
//!
//! `table1 coordinate [kernels-per-mode] --fleet-dir DIR [--workers N]
//! [--lease-jobs N] [--faults SPEC] [--follow]` runs the same campaign as a
//! crash-tolerant worker fleet (spawning `table1 worker` children) and
//! prints the merged table — byte-identical to `table1 merge` over a
//! fault-free batch journal, even under injected worker faults.

use std::fmt::Write as _;

use bench::{Cli, Source};
use fuzz_harness::{
    reliability_rows, render_reliability_table, Campaign, CampaignOptions, ClassificationCampaign,
    ClassificationTally,
};
use opencl_sim::{Configuration, ExecOptions};

struct Table1;

impl bench::Table for Table1 {
    type Campaign = ClassificationCampaign;
    const SCALE_ARGS: usize = 1;

    fn configs() -> Vec<Configuration> {
        opencl_sim::all_configurations()
    }

    fn build(cli: &Cli, configs: &[Configuration], exec: ExecOptions) -> ClassificationCampaign {
        let options = CampaignOptions {
            generator: cli.generator(64),
            exec,
            ..CampaignOptions::default()
        };
        let kernels_per_mode = cli.scale_arg(0, "kernels per mode", 8);
        ClassificationCampaign::try_new(configs, kernels_per_mode, &options)
            .unwrap_or_else(|e| bench::usage_error(e))
    }

    fn render(
        campaign: &ClassificationCampaign,
        tally: &ClassificationTally,
        source: Source<'_>,
    ) -> String {
        let mut out = "Table 1 — configurations and reliability classification".to_string();
        let _ = match source {
            Source::Merged(_) => writeln!(out, " (merged from journals)\n"),
            Source::Run { cli, jobs } => {
                let _ = writeln!(out, "\n({} scheduler worker(s))", cli.scheduler.threads());
                if cli.is_sharded() {
                    writeln!(
                        out,
                        "(shard {} — PARTIAL table over {jobs} of {} jobs)\n",
                        cli.shard,
                        campaign.total_jobs()
                    )
                } else {
                    writeln!(
                        out,
                        "({} kernels per mode, {} total per configuration)\n",
                        campaign.kernels_per_mode,
                        campaign.total_jobs()
                    )
                }
            }
        };
        let rows = reliability_rows(&campaign.configs, tally);
        out.push_str(&render_reliability_table(&rows));
        let judged: Vec<_> = rows.iter().filter(|r| r.kernels > 0).collect();
        let agreements = judged
            .iter()
            .filter(|r| r.above_threshold == r.config.expected_above_threshold)
            .count();
        let _ = writeln!(
            out,
            "\nClassification agrees with the paper for {agreements}/{} configurations.",
            judged.len()
        );
        out
    }
}

fn main() {
    bench::run::<Table1>();
}
