//! Reproduces Table 3: EMI testing of the Parboil/Rodinia miniatures across
//! the configurations (spmv and myocyte excluded because of their races).
//!
//! Usage: `cargo run --release -p bench --bin table3 -- [emi-bodies]
//! [--threads N] [--pipeline] [--paper-scale] [--shard I/N]
//! [--journal PATH] [--resume]`
//! (number of EMI block bodies per benchmark; the paper uses 125.
//! `--paper-scale` draws the donor kernels the bodies are taken from at the
//! paper's generation scale).
//!
//! The job space is the benchmark × configuration cell grid
//! (benchmark-major), so shards and resumed runs journal one
//! [`BenchmarkCell`] per record; `table3 merge J1 [J2 ...]` stitches any
//! subset of cell journals back into the table, rendering unreached cells
//! as `–`.

use std::sync::Arc;

use clsmith::{generate, GenMode, GeneratorOptions};
use fuzz_harness::shard::{refold_journal_records, run_sharded, ShardSpec};
use fuzz_harness::{
    checksum, evaluate_benchmark_with, render_table, BenchmarkCell, EmiBenchmark, Scheduler,
    StagedJob, EMPTY_CELL,
};
use opencl_sim::{Configuration, ExecOptions};
use parboil_rodinia::table3_benchmarks;

/// One Table 3 cell: a benchmark evaluated on one configuration.  The
/// inner body fan-out runs sequentially — the cell grid itself is the
/// parallel (and shardable) job space.  A cell's input is prebuilt and its
/// verdict is folded inside the evaluation, so the whole cell is one
/// execute stage (generate and judge pass through); `--pipeline` still
/// overlaps cells freely because execute tasks queue independently.
struct CellJob {
    benchmark: Arc<EmiBenchmark>,
    config: Configuration,
    exec: ExecOptions,
}

impl StagedJob for CellJob {
    type Generated = CellJob;
    type Executed = BenchmarkCell;
    type Output = BenchmarkCell;

    fn generate(self) -> CellJob {
        self
    }

    fn execute(cell: CellJob) -> BenchmarkCell {
        evaluate_benchmark_with(
            &Scheduler::sequential(),
            &cell.benchmark,
            &cell.config,
            &cell.exec,
        )
    }

    fn judge(cell: BenchmarkCell) -> BenchmarkCell {
        cell
    }
}

/// Fingerprint token of the benchmark × configuration grid, embedded in
/// the campaign descriptor and re-validated on merge so journals recorded
/// over a different grid (reordered configurations, changed benchmark
/// list) cannot silently land under the wrong rows/columns.
fn grid_token(names: &[String], configs: &[Configuration]) -> String {
    let config_ids: Vec<String> = configs.iter().map(|c| c.id.to_string()).collect();
    let grid = format!("{}\n---\n{}", names.join("\n"), config_ids.join("\n"));
    format!("grid{:016x}", checksum(grid.as_bytes()))
}

/// The campaign descriptor of a Table 3 journal: bodies per benchmark plus
/// fingerprints of the generator options and the cell grid.
fn descriptor(
    bodies: usize,
    names: &[String],
    configs: &[Configuration],
    generator: &GeneratorOptions,
) -> String {
    format!(
        "table3:bodies{bodies}:gen{:016x}:{}",
        checksum(format!("{generator:?}").as_bytes()),
        grid_token(names, configs)
    )
}

/// Renders the (possibly partial) cell grid; unreached cells read `–`.
fn print_grid(names: &[String], configs: &[Configuration], cells: &[Option<BenchmarkCell>]) {
    let headers: Vec<String> = std::iter::once("Benchmark".to_string())
        .chain(configs.iter().map(|c| c.id.to_string()))
        .collect();
    let mut rows = Vec::new();
    for (b, name) in names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for c in 0..configs.len() {
            row.push(match &cells[b * configs.len() + c] {
                Some(cell) => cell.render(),
                None => EMPTY_CELL.to_string(),
            });
        }
        rows.push(row);
    }
    println!("Table 3 — EMI testing over the Parboil/Rodinia miniatures");
    println!("(letters: w = wrong code, c = crash/build failure, to = timeout, ng = cannot run benchmark, ok = no mismatch;");
    println!(
        " superscripts: e = needs substitutions, d = needs substitutions disabled, ? = either)\n"
    );
    print!("{}", render_table(&headers, &rows));
}

fn main() {
    let cli = bench::cli();
    let configs = opencl_sim::all_configurations();
    let names: Vec<String> = table3_benchmarks()
        .iter()
        .map(|b| b.name.to_string())
        .collect();

    if let Some(paths) = &cli.merge {
        let cols = configs.len();
        let expected_grid = grid_token(&names, &configs);
        let (cells, summary) = refold_journal_records::<BenchmarkCell, Vec<Option<BenchmarkCell>>>(
            paths,
            |campaign| {
                campaign.starts_with("table3:") && campaign.ends_with(expected_grid.as_str())
            },
            |header| Ok(vec![None; header.total_jobs as usize]),
            |cells, index, cell| cells[index as usize] = Some(cell),
        )
        .unwrap_or_else(|e| bench::fail(e));
        if cells.len() != names.len() * cols {
            bench::fail(format!(
                "journals describe a {}-cell grid; this build has {} benchmarks × {} configurations",
                cells.len(),
                names.len(),
                cols
            ));
        }
        bench::report_refold_summary(&summary);
        print_grid(&names, &configs, &cells);
        return;
    }

    let scheduler = &cli.scheduler;
    let bodies_per_benchmark = cli.scale_arg(0, "bodies per benchmark", 3);
    let exec = cli.exec_options();
    let generator = cli.generator_or(GeneratorOptions {
        min_threads: 16,
        max_threads: 32,
        ..GeneratorOptions::default()
    });

    // EMI block bodies are taken from CLsmith-generated kernels (§7.2); the
    // donor seeds are fixed, so every shard derives identical bodies.
    let benchmarks: Vec<Arc<EmiBenchmark>> = table3_benchmarks()
        .iter()
        .map(|bench| {
            let bodies: Vec<clc::Block> = (0..bodies_per_benchmark)
                .map(|i| {
                    let donor = generate(
                        &GeneratorOptions {
                            mode: GenMode::Basic,
                            seed: 900 + i as u64,
                            ..generator.clone()
                        }
                        .with_emi(),
                    );
                    donor
                        .emi_blocks()
                        .first()
                        .map(|b| b.body.clone())
                        .unwrap_or_default()
                })
                .collect();
            Arc::new(EmiBenchmark {
                name: bench.name.to_string(),
                program: bench.program.clone(),
                bodies,
                injection_points: 1,
            })
        })
        .collect();

    let total_cells = (benchmarks.len() * configs.len()) as u64;
    let spec = ShardSpec::select(0, total_cells, cli.shard);
    let campaign = descriptor(bodies_per_benchmark, &names, &configs, &generator);
    let run = run_sharded::<CellJob, _>(
        scheduler,
        &spec,
        &campaign,
        cli.journal_options().as_ref(),
        |g| {
            let (b, c) = (
                (g / configs.len() as u64) as usize,
                (g % configs.len() as u64) as usize,
            );
            (
                g, // cells have no RNG seed of their own; record the index
                CellJob {
                    benchmark: Arc::clone(&benchmarks[b]),
                    config: configs[c].clone(),
                    exec: exec.clone(),
                },
            )
        },
    )
    .unwrap_or_else(|e| bench::fail(e));
    bench::report_shard_metrics(&cli, &run.metrics);
    bench::report_store_stats(&exec);
    let mut cells: Vec<Option<BenchmarkCell>> = vec![None; total_cells as usize];
    for (g, cell) in run.outputs {
        cells[g as usize] = Some(cell);
    }
    print_grid(&names, &configs, &cells);
}
