//! Bug hunt: run a small differential campaign over every CLsmith mode and
//! report which simulated configurations miscompile which kinds of kernels —
//! a miniature of the paper's §7.3 study, run the way the `table4` binary
//! runs it.
//!
//! Run with: `cargo run --release --example bug_hunt -- [kernels-per-mode]`

use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{run_shard, CampaignOptions, ModeCampaign, Scheduler, ShardSelect};

fn main() {
    let kernels: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let configs = opencl_sim::above_threshold_configurations();
    let options = CampaignOptions {
        kernels,
        generator: GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::default()
        },
        ..CampaignOptions::default()
    };
    let campaign = ModeCampaign::new(&GenMode::ALL, &configs, &options);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = run_shard(
        &Scheduler::new(threads),
        &campaign,
        ShardSelect::whole(),
        None,
    )
    .expect("a campaign without a journal cannot fail");
    for result in campaign.results(&run.aggregate) {
        println!(
            "mode {:<16} total w% = {:.2}",
            result.mode.name(),
            result.total_wrong_code_percentage()
        );
        for (target, stats) in result.targets.iter().zip(&result.stats) {
            if stats.wrong > 0 {
                println!(
                    "    {:>4}: {} wrong-code kernels out of {} ({:.1}%)",
                    target.label(),
                    stats.wrong,
                    stats.total(),
                    stats.wrong_code_percentage(),
                );
            }
        }
    }
}
