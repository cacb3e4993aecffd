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
//! (benchmark-major) of `fuzz_harness::CellCampaign`, so shards and resumed
//! runs journal one cell per record; `table3 merge J1 [J2 ...]` stitches any
//! subset of cell journals back into the table, rendering unreached cells
//! as `–`.
//!
//! `table3 coordinate [emi-bodies] --fleet-dir DIR [--workers N]
//! [--faults SPEC] [--follow]` runs the same campaign as a crash-tolerant
//! worker fleet (spawning `table3 worker` children) and prints the merged
//! table — byte-identical to `table3 merge` over a fault-free batch
//! journal, even under injected worker faults.

use bench::{Cli, Source};
use fuzz_harness::{render_table, CellCampaign, Cells, EMPTY_CELL};
use opencl_sim::{Configuration, ExecOptions};

struct Table3;

impl bench::Table for Table3 {
    type Campaign = CellCampaign;
    const SCALE_ARGS: usize = 1;

    fn configs() -> Vec<Configuration> {
        opencl_sim::all_configurations()
    }

    fn build(cli: &Cli, configs: &[Configuration], exec: ExecOptions) -> CellCampaign {
        let bodies = cli.scale_arg(0, "bodies per benchmark", 3);
        let generator = cli.generator(32);
        CellCampaign::new(bodies, &generator, configs, exec)
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
