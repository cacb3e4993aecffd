//! Feedback-guided corpus campaign: evolves lineages of mutated kernels
//! under coverage-map acceptance and compares the guided strategy against a
//! blind ablation at the same kernel budget (same base seeds, same chain
//! length — the paired experiment the paper's blind sampling lacks).
//!
//! Usage: `cargo run --release -p bench --bin corpus -- [lineages] [chain]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]`
//! (defaults: 12 lineages per strategy, 5 mutations per lineage).
//!
//! The job space is strategy-major (guided lineages first, then blind), so
//! a `--shard I/N` split carves both strategies.  `corpus merge J1 [J2 ...]`
//! merges shard journals into the comparison table without re-running
//! anything.
//!
//! `corpus coordinate [lineages] [chain] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `corpus worker` children) and prints the merged
//! table — byte-identical to `corpus merge` over a fault-free batch
//! journal, even under injected worker faults.

use std::fmt::Write as _;

use bench::{Cli, Source};
use clsmith::GeneratorOptions;
use fuzz_harness::{render_corpus_table, Campaign, CorpusCampaign, CorpusOptions, CorpusTally};
use opencl_sim::{Configuration, ExecOptions};

struct Corpus;

impl bench::Table for Corpus {
    type Campaign = CorpusCampaign;
    const SCALE_ARGS: usize = 2;

    fn configs() -> Vec<Configuration> {
        opencl_sim::above_threshold_configurations()
    }

    fn build(cli: &Cli, configs: &[Configuration], exec: ExecOptions) -> CorpusCampaign {
        let options = CorpusOptions {
            lineages: cli.scale_arg(0, "lineages", 12),
            chain: cli.scale_arg(1, "chain length", 5),
            generator: cli.generator_or(GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::default()
            }),
            exec,
            ..CorpusOptions::default()
        };
        CorpusCampaign::try_new(configs, &options).unwrap_or_else(|e| bench::usage_error(e))
    }

    fn render(campaign: &CorpusCampaign, tally: &CorpusTally, source: Source<'_>) -> String {
        let mut out = "Corpus campaign — coverage-guided vs blind mutation chains\n".to_string();
        let _ = match source {
            Source::Merged(_) => writeln!(out, "(merged from journals)\n"),
            Source::Run { cli, jobs } if cli.is_sharded() => writeln!(
                out,
                "(shard {} — PARTIAL table over {jobs} of {} lineage jobs, {} worker(s))\n",
                cli.shard,
                campaign.total_jobs(),
                cli.scheduler.threads()
            ),
            Source::Run { cli, .. } => writeln!(
                out,
                "({} lineages per strategy, {} mutations per lineage, {} worker(s))\n",
                campaign.options.lineages,
                campaign.options.chain,
                cli.scheduler.threads()
            ),
        };
        let result = campaign.result(tally.clone());
        out.push_str(&render_corpus_table(&result));
        let (guided, blind) = (result.guided(), result.blind());
        if guided.kernels() > 0 && blind.kernels() > 0 {
            let _ = writeln!(
                out,
                "\nGuided vs blind at {} kernels each: {:.3} vs {:.3} bugs/kernel, \
                 {:.1}% vs {:.1}% coverage saturation.",
                guided.kernels(),
                guided.bugs_per_kernel(),
                blind.bugs_per_kernel(),
                guided.saturation() * 100.0,
                blind.saturation() * 100.0,
            );
        }
        out
    }
}

fn main() {
    bench::run::<Corpus>();
}
