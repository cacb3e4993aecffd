//! EMI as a self-check of the emulator, at campaign scale (§5, §7.4).
//!
//! Every pruning variant of a live base differs from it only inside EMI
//! blocks that the `dead` input never enters, so on the reference emulator,
//! which injects no bugs, each variant must give its base's outcome.  A
//! disagreement is an emulator or EMI bug, never a "compiler" bug.
//! Campaigns serve a variant whose live code matches an earlier launch from
//! that launch, so these checks run every variant with the cache off: they
//! are the check that the emulator itself agrees across variants.

use clsmith::{prune_variant, GeneratorOptions};
use fuzz_harness::{
    generate_live_bases_with, job_seed, pruning_grid, CampaignOptions, EmiCampaignOptions,
    ExecutionTier, Scheduler,
};
use opencl_sim::{reference_execute, ExecOptions};

/// Probes `bases` live bases with the cache off and checks that each of
/// the paper's 40 pruning variants, seeded as the EMI campaign seeds them,
/// runs to its base's outcome on `tier`.
fn assert_variants_match_their_bases(tier: ExecutionTier, bases: usize, max_threads: usize) {
    let exec = ExecOptions {
        tier,
        cache: None,
        ..ExecOptions::default()
    };
    let options = EmiCampaignOptions {
        bases,
        variants_per_base: 40,
        campaign: CampaignOptions {
            generator: GeneratorOptions {
                min_threads: 4,
                max_threads,
                ..GeneratorOptions::default()
            },
            exec: exec.clone(),
            ..CampaignOptions::default()
        },
    };
    let live = generate_live_bases_with(&Scheduler::new(2), &options);
    assert_eq!(live.len(), bases, "too few live bases");
    let grid = pruning_grid(options.variants_per_base);
    assert_eq!(grid.len(), 40);
    // Two threads, each judging every second base.
    std::thread::scope(|scope| {
        for first in 0..2 {
            let (live, grid, exec) = (&live, &grid, &exec);
            let seed = options.campaign.seed_offset;
            scope.spawn(move || {
                for (index, base) in live.iter().enumerate().skip(first).step_by(2) {
                    let expected = reference_execute(base, exec);
                    let base_seed = job_seed(seed, index as u64);
                    for (i, probs) in grid.iter().enumerate() {
                        let variant = prune_variant(base, probs, job_seed(base_seed, i as u64));
                        assert_eq!(
                            reference_execute(&variant, exec),
                            expected,
                            "{}: base {index} variant {i} ({probs:?})",
                            tier.name()
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn fifty_bases_agree_with_all_their_variants_on_the_bytecode_tier() {
    assert_variants_match_their_bases(ExecutionTier::Bytecode, 50, 16);
}

#[test]
fn ten_bases_agree_with_all_their_variants_on_the_tree_walker() {
    assert_variants_match_their_bases(ExecutionTier::TreeWalk, 10, 8);
}
