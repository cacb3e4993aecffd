//! Quickstart: generate a random deterministic OpenCL kernel, print its
//! source, run it on the reference emulator, and differential-test it across
//! the simulated configurations.
//!
//! Run with: `cargo run --example quickstart`

use clsmith::{generate, GenMode, GeneratorOptions};
use fuzz_harness::{classify, run_on_targets_session, targets_for};
use opencl_sim::{ExecOptions, Session};

fn main() {
    // 1. Generate a kernel in ALL mode (vectors + barriers + atomics).
    let options = GeneratorOptions {
        min_threads: 16,
        max_threads: 64,
        ..GeneratorOptions::new(GenMode::All, 2026)
    };
    let program = generate(&options);
    println!(
        "=== Generated OpenCL C ===\n{}",
        clc::print_program(&program)
    );

    // 2. Run it on the reference emulator (the repository's Oclgrind stand-in).
    let reference = clc_interp::run(&program).expect("generated kernels are UB-free");
    println!("reference result hash: {:#018x}", reference.result_hash);
    println!(
        "first outputs: {}",
        &reference.result_string[..reference.result_string.len().min(60)]
    );

    // 3. Differential-test it across the above-threshold configurations,
    //    each with optimisations off and on, and vote on the results.
    let targets = targets_for(&opencl_sim::above_threshold_configurations());
    let session = Session::new(&program);
    let verdicts = classify(&run_on_targets_session(
        &session,
        &targets,
        &ExecOptions::default(),
    ));
    for (target, verdict) in targets.iter().zip(&verdicts) {
        println!("  config {:>4}: {:?}", target.label(), verdict);
    }
    let wrong = verdicts
        .iter()
        .filter(|v| matches!(v, fuzz_harness::Verdict::WrongCode))
        .count();
    println!("{wrong} configuration(s) miscompiled this kernel.");
}
