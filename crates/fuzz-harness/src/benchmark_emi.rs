//! EMI testing over existing (benchmark) kernels — Table 3, §7.2.
//!
//! For each benchmark and configuration the paper reports a single letter
//! summarising the worst outcome over 500 tests (125 EMI blocks ×
//! substitutions on/off × optimisations on/off), with a superscript recording
//! whether substitutions had to be enabled (`e`), disabled (`d`) or either
//! (`?`) to provoke the problem.  [`evaluate_benchmark`] reproduces that
//! judgement for an arbitrary host [`clc::Program`], and [`CellCampaign`]
//! runs it over the Parboil/Rodinia miniatures × configurations grid, one
//! job per cell.

use crate::campaign::{descriptor_fields, descriptor_number, generator_field, parse_generator};
use crate::exec::StagedJob;
use crate::journal::{checksum, JournalError, JournalHeader};
use crate::shard::{Campaign, JournalPayload};
use clsmith::emi::{inject_emi_blocks, InjectionOptions};
use clsmith::{generate, GenMode, GeneratorOptions};
use opencl_sim::{Configuration, ExecOptions, OptLevel, Session, TestOutcome};
use parboil_rodinia::table3_benchmarks;
use std::sync::{Arc, OnceLock};

/// A benchmark prepared for EMI testing.
#[derive(Debug, Clone)]
pub struct EmiBenchmark {
    /// Benchmark name (e.g. `"bfs"`).
    pub name: String,
    /// The original kernel (no EMI blocks).
    pub program: clc::Program,
    /// Candidate EMI block bodies generated by CLsmith.
    pub bodies: Vec<clc::Block>,
    /// Number of injection points (the paper uses one or two per benchmark).
    pub injection_points: usize,
}

/// The worst outcome over all EMI variants, following Table 3's ordering
/// `w > c > to > ng > ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellOutcome {
    /// All tests ran with no mismatch (`✓`).
    Ok,
    /// The unmodified benchmark (empty EMI block) already fails on this
    /// configuration (`ng` — "no generation of the expected output").
    NoGeneration,
    /// Some variant timed out (`to`).
    Timeout,
    /// Some variant crashed (`c`).
    Crash,
    /// Some variant produced a wrong result without crashing (`w`).
    WrongCode,
}

impl CellOutcome {
    /// The letter used in Table 3.
    pub fn letter(self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::NoGeneration => "ng",
            CellOutcome::Timeout => "to",
            CellOutcome::Crash => "c",
            CellOutcome::WrongCode => "w",
        }
    }
}

/// Whether substitutions were required to provoke the worst outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstitutionSensitivity {
    /// Only observed with substitutions enabled (`e`).
    NeedsEnabled,
    /// Only observed with substitutions disabled (`d`).
    NeedsDisabled,
    /// Observed both ways (`?`).
    Either,
    /// Not applicable (no defect observed).
    NotApplicable,
}

impl SubstitutionSensitivity {
    /// Superscript used in Table 3.
    pub fn superscript(self) -> &'static str {
        match self {
            SubstitutionSensitivity::NeedsEnabled => "e",
            SubstitutionSensitivity::NeedsDisabled => "d",
            SubstitutionSensitivity::Either => "?",
            SubstitutionSensitivity::NotApplicable => "",
        }
    }
}

/// One cell of Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkCell {
    /// Worst outcome.
    pub outcome: CellOutcome,
    /// Substitution sensitivity of the worst outcome.
    pub sensitivity: SubstitutionSensitivity,
    /// Number of variants evaluated.
    pub variants: usize,
}

impl BenchmarkCell {
    /// Rendered like the paper: `w?`, `ce`, `to`, `ng`, `ok`.
    pub fn render(&self) -> String {
        format!(
            "{}{}",
            self.outcome.letter(),
            self.sensitivity.superscript()
        )
    }
}

impl CellOutcome {
    /// Stable numeric form used by the journal (severity order preserved).
    fn to_digit(self) -> u8 {
        match self {
            CellOutcome::Ok => 0,
            CellOutcome::NoGeneration => 1,
            CellOutcome::Timeout => 2,
            CellOutcome::Crash => 3,
            CellOutcome::WrongCode => 4,
        }
    }

    fn from_digit(digit: u8) -> Result<CellOutcome, JournalError> {
        Ok(match digit {
            0 => CellOutcome::Ok,
            1 => CellOutcome::NoGeneration,
            2 => CellOutcome::Timeout,
            3 => CellOutcome::Crash,
            4 => CellOutcome::WrongCode,
            other => {
                return Err(JournalError::Format(format!(
                    "unknown cell outcome digit {other}"
                )))
            }
        })
    }
}

/// A whole cell as a journal payload (`outcome,sensitivity,variants`): the
/// [`CellCampaign`] journals one per record.
impl JournalPayload for BenchmarkCell {
    fn encode(&self) -> String {
        let sensitivity = match self.sensitivity {
            SubstitutionSensitivity::NeedsEnabled => 'e',
            SubstitutionSensitivity::NeedsDisabled => 'd',
            SubstitutionSensitivity::Either => 'q',
            SubstitutionSensitivity::NotApplicable => 'n',
        };
        format!(
            "{},{},{}",
            self.outcome.to_digit(),
            sensitivity,
            self.variants
        )
    }

    fn decode(text: &str) -> Result<Self, JournalError> {
        let fields: Vec<&str> = text.split(',').collect();
        let bad = || JournalError::Format(format!("bad benchmark cell {text:?}"));
        if fields.len() != 3 {
            return Err(bad());
        }
        let outcome = CellOutcome::from_digit(fields[0].parse().map_err(|_| bad())?)?;
        let sensitivity = match fields[1] {
            "e" => SubstitutionSensitivity::NeedsEnabled,
            "d" => SubstitutionSensitivity::NeedsDisabled,
            "q" => SubstitutionSensitivity::Either,
            "n" => SubstitutionSensitivity::NotApplicable,
            _ => return Err(bad()),
        };
        Ok(BenchmarkCell {
            outcome,
            sensitivity,
            variants: fields[2].parse().map_err(|_| bad())?,
        })
    }
}

/// The cell of a benchmark its configuration cannot run at all (`ng`).
fn no_generation() -> BenchmarkCell {
    BenchmarkCell {
        outcome: CellOutcome::NoGeneration,
        sensitivity: SubstitutionSensitivity::NotApplicable,
        variants: 0,
    }
}

/// Evaluates one benchmark on one configuration, reproducing one cell of
/// Table 3.  `exec` should have race detection enabled if the caller wants to
/// reproduce the paper's discovery of racy benchmarks (§2.4).
///
/// Every EMI body is injected with substitutions off and on, each variant
/// runs at both optimisation levels, and the worst outcome is folded in
/// body order.  The campaign's outcome cache serves every cell: the
/// reference run launches once per benchmark, and on non-optimising
/// configurations both opt levels (and often both variants, when
/// substitutions change nothing) compile identically and share a launch.
pub fn evaluate_benchmark(
    benchmark: &EmiBenchmark,
    config: &Configuration,
    exec: &ExecOptions,
) -> BenchmarkCell {
    // Expected output: the original benchmark on the reference emulator.
    let expected = match opencl_sim::reference_execute(&benchmark.program, exec) {
        TestOutcome::Result { hash, .. } => hash,
        _ => return no_generation(),
    };
    let inject = |bodies: &[clc::Block], substitutions: bool, seed: u64| {
        let options = InjectionOptions {
            injection_points: benchmark.injection_points,
            substitutions,
            seed,
            ..InjectionOptions::default()
        };
        inject_emi_blocks(&benchmark.program, bodies, &options)
    };

    // "Generation with an empty EMI block": the benchmark with the dead
    // array plumbing but no injected statements.  If this fails, the
    // configuration cannot run the benchmark at all (`ng`).
    let empty = inject(&[clc::Block::new()], false, 0);
    let empty_session = Session::new(&empty);
    let baseline_ok = OptLevel::BOTH.into_iter().any(|opt| {
        matches!(empty_session.execute(config, opt, exec),
            TestOutcome::Result { hash, .. } if hash == expected)
    });
    if !baseline_ok {
        return no_generation();
    }

    let mut worst = CellOutcome::Ok;
    let (mut seen_with_subs, mut seen_without_subs) = (false, false);
    let mut variants = 0;
    for (index, body) in benchmark.bodies.iter().enumerate() {
        for substitutions in [false, true] {
            let variant = inject(std::slice::from_ref(body), substitutions, index as u64 + 1);
            let session = Session::new(&variant);
            for opt in OptLevel::BOTH {
                variants += 1;
                let observed = match session.execute(config, opt, exec) {
                    TestOutcome::Result { hash, .. } if hash == expected => CellOutcome::Ok,
                    TestOutcome::Result { .. } => CellOutcome::WrongCode,
                    TestOutcome::Crash(_) | TestOutcome::BuildFailure(_) => CellOutcome::Crash,
                    TestOutcome::Timeout => CellOutcome::Timeout,
                };
                if observed > CellOutcome::Ok {
                    if substitutions {
                        seen_with_subs = true;
                    } else {
                        seen_without_subs = true;
                    }
                }
                worst = worst.max(observed);
            }
        }
    }
    let sensitivity = match (worst, seen_with_subs, seen_without_subs) {
        (CellOutcome::Ok, _, _) => SubstitutionSensitivity::NotApplicable,
        (_, true, false) => SubstitutionSensitivity::NeedsEnabled,
        (_, false, true) => SubstitutionSensitivity::NeedsDisabled,
        _ => SubstitutionSensitivity::Either,
    };
    BenchmarkCell {
        outcome: worst,
        sensitivity,
        variants,
    }
}

/// One Table 3 cell: a benchmark evaluated on one configuration.  A cell's
/// input is prebuilt and its verdict is folded inside the evaluation, so
/// the whole cell is one execute stage (generate and judge pass through).
#[derive(Debug)]
pub struct CellJob {
    /// The benchmark with its EMI bodies.
    pub benchmark: Arc<EmiBenchmark>,
    /// The configuration it runs on.
    pub config: Configuration,
    /// Execution options.
    pub exec: ExecOptions,
}

impl StagedJob for CellJob {
    type Generated = CellJob;
    type Executed = BenchmarkCell;
    type Output = BenchmarkCell;

    fn generate(self) -> CellJob {
        self
    }

    fn execute(cell: CellJob) -> BenchmarkCell {
        evaluate_benchmark(&cell.benchmark, &cell.config, &cell.exec)
    }

    fn judge(cell: BenchmarkCell) -> BenchmarkCell {
        cell
    }
}

/// The benchmark × configuration cell grid, benchmark-major; unreached
/// cells are `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cells(pub Vec<Option<BenchmarkCell>>);

/// The Table 3 campaign: one job per cell of the Parboil/Rodinia miniatures
/// (the `table3_benchmarks` list, rows) × configurations (columns) grid.
#[derive(Debug)]
pub struct CellCampaign {
    /// EMI block bodies per benchmark.
    bodies: usize,
    /// The generator options the bodies' donor kernels are drawn with.
    generator: GeneratorOptions,
    /// The benchmark names, in row order.
    pub names: Vec<String>,
    /// The configurations, in column order.
    pub configs: Vec<Configuration>,
    /// The benchmarks with their EMI bodies, built by the first job, so a
    /// campaign that is only merged never generates a donor.
    benchmarks: OnceLock<Vec<Arc<EmiBenchmark>>>,
    exec: ExecOptions,
}

/// Fingerprint token of the benchmark × configuration grid, embedded in
/// the campaign descriptor so journals recorded over a different grid
/// (reordered configurations, changed benchmark list) cannot silently land
/// under the wrong rows/columns.
fn grid_token(names: &[String], configs: &[Configuration]) -> String {
    let config_ids: Vec<String> = configs.iter().map(|c| c.id.to_string()).collect();
    let grid = format!("{}\n---\n{}", names.join("\n"), config_ids.join("\n"));
    format!("grid{:016x}", checksum(grid.as_bytes()))
}

impl CellCampaign {
    /// Table 3 over `configs`, each benchmark carrying `bodies` EMI block
    /// bodies.  The bodies are taken from CLsmith kernels (§7.2) generated
    /// with `generator` from fixed donor seeds, so every process derives
    /// identical bodies.
    pub fn new(
        bodies: usize,
        generator: &GeneratorOptions,
        configs: &[Configuration],
        exec: ExecOptions,
    ) -> CellCampaign {
        let names = table3_benchmarks().into_iter().map(|b| b.name.to_string());
        CellCampaign {
            bodies,
            generator: generator.clone(),
            names: names.collect(),
            configs: configs.to_vec(),
            benchmarks: OnceLock::new(),
            exec,
        }
    }

    /// The benchmarks, each with the campaign's donor bodies.
    fn benchmarks(&self) -> &[Arc<EmiBenchmark>] {
        self.benchmarks.get_or_init(|| {
            let donor_bodies: Vec<clc::Block> = (0..self.bodies)
                .map(|i| {
                    let donor = generate(
                        &GeneratorOptions {
                            mode: GenMode::Basic,
                            seed: 900 + i as u64,
                            ..self.generator.clone()
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
            table3_benchmarks()
                .into_iter()
                .map(|bench| {
                    Arc::new(EmiBenchmark {
                        name: bench.name.to_string(),
                        program: bench.program,
                        bodies: donor_bodies.clone(),
                        injection_points: 1,
                    })
                })
                .collect()
        })
    }
}

impl Campaign for CellCampaign {
    type Job = CellJob;
    type Tally = Cells;

    /// Bodies per benchmark, the donors' generator options and a
    /// fingerprint of the cell grid.
    fn descriptor(&self) -> String {
        format!(
            "table3:bodies{}:{}:{}",
            self.bodies,
            generator_field(&self.generator),
            grid_token(&self.names, &self.configs)
        )
    }

    fn decode(
        header: &JournalHeader,
        configs: &[Configuration],
        exec: ExecOptions,
    ) -> Result<Self, JournalError> {
        let [bodies, generator, _] = descriptor_fields(&header.campaign, "table3")?;
        let bodies = descriptor_number(bodies, "bodies")?;
        let generator = parse_generator(generator)?;
        Ok(CellCampaign::new(bodies, &generator, configs, exec))
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
            benchmark: Arc::clone(&self.benchmarks()[(g / cols) as usize]),
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

#[cfg(test)]
mod tests {
    use super::*;
    use clc::{BufferSpec, Expr, IdKind, KernelDef, LaunchConfig, ScalarType, Stmt, Type};

    fn tiny_benchmark() -> EmiBenchmark {
        let mut p = clc::Program::new(
            KernelDef {
                name: "bench".into(),
                params: clc::Program::standard_clsmith_params(0),
                body: clc::Block::of(vec![
                    Stmt::decl("x", Type::Scalar(ScalarType::Int), Some(Expr::int(3))),
                    Stmt::assign(
                        Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                        Expr::var("x"),
                    ),
                ]),
            },
            LaunchConfig::single_group(4),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));
        let body = clc::Block::of(vec![
            Stmt::decl("e0", Type::Scalar(ScalarType::Int), Some(Expr::int(9))),
            Stmt::assign(Expr::var("e0"), Expr::comma(Expr::var("e0"), Expr::int(1))),
        ]);
        EmiBenchmark {
            name: "tiny".into(),
            program: p,
            bodies: vec![body],
            injection_points: 1,
        }
    }

    #[test]
    fn ordering_matches_table_3_severity() {
        assert!(CellOutcome::WrongCode > CellOutcome::Crash);
        assert!(CellOutcome::Crash > CellOutcome::Timeout);
        assert!(CellOutcome::Timeout > CellOutcome::NoGeneration);
        assert!(CellOutcome::NoGeneration > CellOutcome::Ok);
        assert_eq!(CellOutcome::WrongCode.letter(), "w");
        assert_eq!(SubstitutionSensitivity::Either.superscript(), "?");
    }

    #[test]
    fn healthy_configuration_reports_ok() {
        let bench = tiny_benchmark();
        let cell = evaluate_benchmark(
            &bench,
            &opencl_sim::configuration(1),
            &ExecOptions::default(),
        );
        // Configuration 1 triggers none of the deterministic rules on this
        // kernel; background rates may still introduce a crash/timeout but
        // never a wrong result for dead code, so at minimum it must not be
        // `w` or `ng`.
        assert_ne!(cell.outcome, CellOutcome::WrongCode);
        assert_ne!(cell.outcome, CellOutcome::NoGeneration);
    }

    #[test]
    fn unreliable_configuration_reports_ng_or_failure() {
        let bench = tiny_benchmark();
        let cell = evaluate_benchmark(
            &bench,
            &opencl_sim::configuration(21),
            &ExecOptions::default(),
        );
        assert!(
            matches!(
                cell.outcome,
                CellOutcome::NoGeneration | CellOutcome::Crash | CellOutcome::Timeout
            ),
            "Altera FPGA should not run the benchmark cleanly: {cell:?}"
        );
    }

    #[test]
    fn cells_and_cell_grids_round_trip_through_the_journal_forms() {
        let cell = BenchmarkCell {
            outcome: CellOutcome::Crash,
            sensitivity: SubstitutionSensitivity::NeedsEnabled,
            variants: 4,
        };
        assert_eq!(cell.encode(), "3,e,4");
        assert_eq!(BenchmarkCell::decode("3,e,4").unwrap(), cell);
        for bad in ["9,e,4", "3,x,4", "3,e", "3,e,four"] {
            assert!(BenchmarkCell::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rendering_combines_letter_and_superscript() {
        let cell = BenchmarkCell {
            outcome: CellOutcome::WrongCode,
            sensitivity: SubstitutionSensitivity::NeedsEnabled,
            variants: 8,
        };
        assert_eq!(cell.render(), "we");
    }
}
