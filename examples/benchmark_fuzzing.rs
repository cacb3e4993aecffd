//! EMI testing of the Parboil/Rodinia miniatures (the §7.2 experiment),
//! including the data-race discovery that excluded spmv and myocyte.
//!
//! Run with: `cargo run --release --example benchmark_fuzzing`

use clc_interp::{launch, LaunchOptions};
use clsmith::{generate, GenMode, GeneratorOptions};
use fuzz_harness::{evaluate_benchmark_with, EmiBenchmark, Scheduler};
use opencl_sim::ExecOptions;
use parboil_rodinia::all_benchmarks;

fn main() {
    for bench in all_benchmarks() {
        let raced = launch(
            &bench.program,
            &LaunchOptions {
                detect_races: true,
                ..LaunchOptions::default()
            },
        )
        .unwrap();
        if let Some(race) = raced.race {
            println!("{:<11} excluded: {}", bench.name, race);
            continue;
        }
        let donor = generate(
            &GeneratorOptions {
                min_threads: 16,
                max_threads: 32,
                ..GeneratorOptions::new(GenMode::Basic, 77)
            }
            .with_emi(),
        );
        let bodies: Vec<clc::Block> = donor
            .emi_blocks()
            .iter()
            .map(|b| b.body.clone())
            .take(2)
            .collect();
        let emi = EmiBenchmark {
            name: bench.name.to_string(),
            program: bench.program.clone(),
            bodies,
            injection_points: 1,
        };
        let cell = evaluate_benchmark_with(
            &Scheduler::sequential(),
            &emi,
            &opencl_sim::configuration(12),
            &ExecOptions::default(),
        );
        println!("{:<11} on config 12: {}", bench.name, cell.render());
    }
}
