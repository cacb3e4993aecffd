//! Reproduces Table 3: EMI testing of the Parboil/Rodinia miniatures across
//! the configurations (spmv and myocyte excluded because of their races).
//!
//! Usage: `cargo run --release -p bench --bin table3 -- [emi-bodies]
//! [--threads N] [--paper-scale] [--shard I/N] [--journal PATH] [--resume]`
//! (number of EMI block bodies per benchmark; the paper uses 125.
//! `--paper-scale` draws the donor kernels the bodies are taken from at the
//! paper's generation scale).
//!
//! The job space is the benchmark × configuration cell grid
//! (benchmark-major), so shards and resumed runs journal one
//! [`BenchmarkCell`] per record; `table3 merge J1 [J2 ...]` stitches any
//! subset of cell journals back into the table, rendering unreached cells
//! as `–`.
//!
//! `table3 coordinate [emi-bodies] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `table3 worker` children) and prints the merged
//! table — byte-identical to `table3 merge` over a fault-free batch
//! journal, even under injected worker faults.

use std::sync::Arc;

use bench::{Cli, Source};
use clsmith::{generate, GenMode, GeneratorOptions};
use fuzz_harness::{
    checksum, evaluate_benchmark_with, parsed_options, render_table, BenchmarkCell, Campaign,
    EmiBenchmark, JournalError, JournalHeader, JournalPayload, Mergeable, Scheduler, StagedJob,
    EMPTY_CELL,
};
use opencl_sim::{Configuration, ExecOptions};
use parboil_rodinia::table3_benchmarks;

/// One Table 3 cell: a benchmark evaluated on one configuration.  The
/// inner body fan-out runs sequentially — the cell grid itself is the
/// parallel (and shardable) job space.  A cell's input is prebuilt and its
/// verdict is folded inside the evaluation, so the whole cell is one
/// execute stage (generate and judge pass through).
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

/// The benchmark × configuration cell grid, benchmark-major; unreached
/// cells are `None`.
#[derive(Debug, Clone)]
struct Cells(Vec<Option<BenchmarkCell>>);

impl Mergeable for Cells {
    fn merge(&mut self, other: Cells) {
        for (cell, other) in self.0.iter_mut().zip(other.0) {
            if other.is_some() {
                *cell = other;
            }
        }
    }

    fn same_shape(&self, other: &Cells) -> bool {
        self.0.len() == other.0.len()
    }

    fn serialize(&self) -> String {
        let cells: Vec<String> = self
            .0
            .iter()
            .map(|cell| cell.as_ref().map_or("-".to_string(), BenchmarkCell::encode))
            .collect();
        cells.join(";")
    }

    fn deserialize(text: &str) -> Result<Cells, JournalError> {
        text.split(';')
            .map(|token| match token {
                "-" => Ok(None),
                _ => BenchmarkCell::decode(token).map(Some),
            })
            .collect::<Result<_, _>>()
            .map(Cells)
    }
}

/// The Table 3 campaign: one job per cell of the benchmark × configuration
/// grid.
struct CellCampaign {
    /// Bodies per benchmark plus fingerprints of the generator options and
    /// the cell grid.
    descriptor: String,
    names: Vec<String>,
    configs: Vec<Configuration>,
    /// The benchmarks with their EMI bodies (empty when parsed).
    benchmarks: Vec<Arc<EmiBenchmark>>,
    exec: ExecOptions,
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

fn benchmark_names() -> Vec<String> {
    table3_benchmarks()
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

impl Campaign for CellCampaign {
    type Job = CellJob;
    type Tally = Cells;

    fn descriptor(&self) -> String {
        self.descriptor.clone()
    }

    fn parse(header: &JournalHeader, configs: &[Configuration]) -> Result<Self, JournalError> {
        let names = benchmark_names();
        let descriptor = header.campaign.clone();
        if !descriptor.starts_with("table3:") || !descriptor.ends_with(&grid_token(&names, configs))
        {
            return Err(JournalError::Mismatch(format!(
                "campaign {descriptor:?} is not Table 3 over this build's cell grid"
            )));
        }
        Ok(CellCampaign {
            descriptor,
            names,
            configs: configs.to_vec(),
            benchmarks: Vec::new(),
            exec: parsed_options(0, 0).exec,
        })
    }

    fn seed(&self) -> u64 {
        0
    }

    fn total_jobs(&self) -> u64 {
        (self.names.len() * self.configs.len()) as u64
    }

    /// Cells have no RNG seed of their own; the journal records the index.
    fn job(&self, g: u64) -> (u64, CellJob) {
        let cols = self.configs.len() as u64;
        let job = CellJob {
            benchmark: Arc::clone(&self.benchmarks[(g / cols) as usize]),
            config: self.configs[(g % cols) as usize].clone(),
            exec: self.exec.clone(),
        };
        (g, job)
    }

    fn tally(&self) -> Cells {
        Cells(vec![None; self.total_jobs() as usize])
    }

    fn fold(&self, cells: &mut Cells, g: u64, cell: BenchmarkCell) {
        cells.0[g as usize] = Some(cell);
    }
}

struct Table3;

impl bench::Table for Table3 {
    type Campaign = CellCampaign;

    fn configs() -> Vec<Configuration> {
        opencl_sim::all_configurations()
    }

    fn build(cli: &Cli, configs: &[Configuration], exec: ExecOptions) -> CellCampaign {
        let bodies = cli.scale_arg(0, "bodies per benchmark", 3);
        let generator = cli.generator_or(GeneratorOptions {
            min_threads: 16,
            max_threads: 32,
            ..GeneratorOptions::default()
        });
        // EMI block bodies are taken from CLsmith-generated kernels (§7.2);
        // the donor seeds are fixed, so every process derives identical
        // bodies.
        let donor_bodies: Vec<clc::Block> = (0..bodies)
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
        let benchmarks = table3_benchmarks()
            .iter()
            .map(|bench| {
                Arc::new(EmiBenchmark {
                    name: bench.name.to_string(),
                    program: bench.program.clone(),
                    bodies: donor_bodies.clone(),
                    injection_points: 1,
                })
            })
            .collect();
        let names = benchmark_names();
        let descriptor = format!(
            "table3:bodies{bodies}:gen{:016x}:{}",
            checksum(format!("{generator:?}").as_bytes()),
            grid_token(&names, configs)
        );
        CellCampaign {
            descriptor,
            names,
            configs: configs.to_vec(),
            benchmarks,
            exec,
        }
    }

    /// The (possibly partial) cell grid; unreached cells read `–`.
    fn render(campaign: &CellCampaign, cells: &Cells, _: Source<'_>) -> String {
        let configs = &campaign.configs;
        let headers: Vec<String> = std::iter::once("Benchmark".to_string())
            .chain(configs.iter().map(|c| c.id.to_string()))
            .collect();
        let rows: Vec<Vec<String>> = campaign
            .names
            .iter()
            .zip(cells.0.chunks(configs.len()))
            .map(|(name, row)| {
                std::iter::once(name.clone())
                    .chain(row.iter().map(|cell| match cell {
                        Some(cell) => cell.render(),
                        None => EMPTY_CELL.to_string(),
                    }))
                    .collect()
            })
            .collect();
        format!(
            "Table 3 — EMI testing over the Parboil/Rodinia miniatures\n\
             (letters: w = wrong code, c = crash/build failure, to = timeout, \
             ng = cannot run benchmark, ok = no mismatch;\n \
             superscripts: e = needs substitutions, d = needs substitutions disabled, \
             ? = either)\n\n{}",
            render_table(&headers, &rows)
        )
    }
}

fn main() {
    bench::run::<Table3>();
}
