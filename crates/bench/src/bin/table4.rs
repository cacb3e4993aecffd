//! Reproduces Table 4: per-mode CLsmith campaigns over the above-threshold
//! configurations, with w / bf / c / to / ok counts and the wrong-code
//! percentage per (configuration, optimisation level).
//!
//! Usage: `cargo run --release -p bench --bin table4 -- [kernels-per-mode]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]`
//! (the paper uses 10 000 per mode; default here is 20, and `--paper-scale`
//! generates kernels at the paper's 100–10 000 work-item scale).
//!
//! All six modes form one mode-major job space, so a `--shard I/N` split
//! carves the whole table, not a single mode.  `table4 merge J1 [J2 ...]`
//! merges shard journals into the per-mode blocks without re-running
//! anything.
//!
//! `table4 coordinate [kernels-per-mode] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `table4 worker` children) and prints the merged
//! table — byte-identical to `table4 merge` over a fault-free batch
//! journal, even under injected worker faults.

use std::fmt::Write as _;

use bench::{Cli, Source};
use clsmith::GenMode;
use fuzz_harness::{
    render_campaign_table, Campaign, CampaignOptions, ModeCampaign, MultiModeTally,
};
use opencl_sim::{Configuration, ExecOptions};

struct Table4;

impl bench::Table for Table4 {
    type Campaign = ModeCampaign;
    const SCALE_ARGS: usize = 1;

    fn configs() -> Vec<Configuration> {
        opencl_sim::above_threshold_configurations()
    }

    fn build(cli: &Cli, configs: &[Configuration], exec: ExecOptions) -> ModeCampaign {
        let options = CampaignOptions {
            kernels: cli.scale_arg(0, "kernels per mode", 20),
            generator: cli.generator(64),
            exec,
            ..CampaignOptions::default()
        };
        ModeCampaign::try_new(&GenMode::ALL, configs, &options)
            .unwrap_or_else(|e| bench::usage_error(e))
    }

    fn render(campaign: &ModeCampaign, tally: &MultiModeTally, source: Source<'_>) -> String {
        let mut out =
            "Table 4 — CLsmith campaigns over the above-threshold configurations\n".to_string();
        let _ = match source {
            Source::Merged(_) => writeln!(out, "(merged from journals)\n"),
            Source::Run { cli, jobs } if cli.is_sharded() => writeln!(
                out,
                "(shard {} — PARTIAL tables over {jobs} of {} jobs, {} worker(s))\n",
                cli.shard,
                campaign.total_jobs(),
                cli.scheduler.threads()
            ),
            Source::Run { cli, .. } => writeln!(
                out,
                "({} kernels per mode over {} worker(s); the paper uses 10 000)\n",
                campaign.options.kernels,
                cli.scheduler.threads()
            ),
        };
        for result in campaign.results(tally) {
            let _ = writeln!(out, "{} ({} kernels)", result.mode.name(), result.kernels);
            out.push_str(&render_campaign_table(&result));
            out.push('\n');
        }
        out
    }
}

fn main() {
    bench::run::<Table4>();
}
