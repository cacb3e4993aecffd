//! Reproduces Table 5: CLsmith+EMI testing — base programs, their pruning
//! variants, and per-target base-level outcomes.
//!
//! Usage: `cargo run --release -p bench --bin table5 -- [bases] [variants]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]`
//! (the paper uses 180 bases and 40 variants; defaults here are 4 and 10,
//! and `--paper-scale` generates base kernels at the paper's 100–10 000
//! work-item scale).
//!
//! The job space is the live-base index space.  Only a process that starts
//! the campaign — a plain run, a shard, a coordinator — probes for the live
//! bases, deterministically; their candidate indices go into every journal
//! header, so fleet workers rebuild the campaign from the coordinator's
//! header without probing, and `table5 merge J1 [J2 ...]` merges shard
//! journals into the table without re-probing or re-judging anything.
//!
//! `table5 coordinate [bases] [variants] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `table5 worker` children) and prints the merged
//! table — byte-identical to `table5 merge` over a fault-free batch
//! journal, even under injected worker faults.

use std::fmt::Write as _;

use bench::{Cli, Source};
use fuzz_harness::{
    render_emi_table, Campaign, CampaignOptions, EmiCampaign, EmiCampaignOptions, EmiTally,
};
use opencl_sim::{Configuration, ExecOptions};

struct Table5;

impl bench::Table for Table5 {
    type Campaign = EmiCampaign;
    const SCALE_ARGS: usize = 2;

    fn configs() -> Vec<Configuration> {
        opencl_sim::above_threshold_configurations()
    }

    fn build(cli: &Cli, configs: &[Configuration], exec: ExecOptions) -> EmiCampaign {
        let options = EmiCampaignOptions {
            bases: cli.scale_arg(0, "bases", 4),
            variants_per_base: cli.scale_arg(1, "variants per base", 10),
            campaign: CampaignOptions {
                generator: cli.generator(64),
                exec,
                ..CampaignOptions::default()
            },
        };
        EmiCampaign::new(&cli.scheduler, configs, &options)
    }

    fn render(campaign: &EmiCampaign, tally: &EmiTally, source: Source<'_>) -> String {
        let jobs = match source {
            Source::Merged(summary) => summary.jobs_folded,
            Source::Run { jobs, .. } => jobs,
        };
        let result = campaign.result(tally, jobs);
        let variants = result.variants_per_base;
        let mut out =
            "Table 5 — CLsmith+EMI results over the above-threshold configurations\n".to_string();
        let _ = match source {
            Source::Merged(_) => writeln!(
                out,
                "({jobs} live base programs, {variants} pruning variants each, \
                 merged from journals)\n"
            ),
            Source::Run { cli, .. } if cli.is_sharded() => writeln!(
                out,
                "(shard {} — PARTIAL table over {jobs} of {} live bases, {variants} variants \
                 each, {} worker(s))\n",
                cli.shard,
                campaign.total_jobs(),
                cli.scheduler.threads()
            ),
            Source::Run { cli, .. } => writeln!(
                out,
                "({jobs} live base programs, {variants} pruning variants each, {} worker(s))\n",
                cli.scheduler.threads()
            ),
        };
        out.push_str(&render_emi_table(&result));
        out
    }
}

fn main() {
    bench::run::<Table5>();
}
