//! EMI testing end to end: build base kernels with dead-by-construction EMI
//! blocks, derive pruning variants, and look for variant disagreement on a
//! single configuration — no cross-compiler comparison needed (§5, §7.4).
//! The campaign runs the way the `table5` binary runs it.
//!
//! Run with: `cargo run --release --example emi_campaign`

use clsmith::GeneratorOptions;
use fuzz_harness::{
    render_emi_table, run_shard, CampaignOptions, EmiCampaign, EmiCampaignOptions, Scheduler,
    ShardSelect,
};
use opencl_sim::configuration;

fn main() {
    let options = EmiCampaignOptions {
        bases: 3,
        variants_per_base: 8,
        campaign: CampaignOptions {
            generator: GeneratorOptions {
                min_threads: 16,
                max_threads: 48,
                ..GeneratorOptions::default()
            },
            ..CampaignOptions::default()
        },
    };
    let configs = [1, 12, 19].map(configuration);
    let scheduler = Scheduler::new(std::thread::available_parallelism().map_or(1, |n| n.get()));
    // Building the campaign keeps the first candidates that pass the
    // liveness check; each job then judges one base's variants on every
    // (configuration, optimisation level) target.
    let campaign = EmiCampaign::new(&scheduler, &configs, &options);
    let run = run_shard(&scheduler, &campaign, ShardSelect::whole(), None)
        .expect("a campaign without a journal cannot fail");
    let result = campaign.result(&run.aggregate, run.jobs);
    println!(
        "accepted {} live base programs, {} variants each",
        result.bases, result.variants_per_base
    );
    print!("{}", render_emi_table(&result));
}
