//! EMI testing over existing (benchmark) kernels — Table 3, §7.2.
//!
//! For each benchmark and configuration the paper reports a single letter
//! summarising the worst outcome over 500 tests (125 EMI blocks ×
//! substitutions on/off × optimisations on/off), with a superscript recording
//! whether substitutions had to be enabled (`e`), disabled (`d`) or either
//! (`?`) to provoke the problem.  This module reproduces that judgement for
//! an arbitrary host [`clc::Program`].

use crate::exec::{Scheduler, StagedJob};
use crate::journal::JournalError;
use crate::shard::{parse_fields, JournalPayload, Mergeable};
use clsmith::emi::{inject_emi_blocks, InjectionOptions};
use opencl_sim::{Configuration, ExecMemo, ExecOptions, OptLevel, Session, TestOutcome};
use std::rc::Rc;
use std::sync::Arc;

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
#[derive(Debug, Clone)]
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

/// What one EMI body contributed to a Table 3 cell: its worst outcome, which
/// substitution settings provoked a defect, and how many variants ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyShard {
    worst: CellOutcome,
    seen_with_subs: bool,
    seen_without_subs: bool,
    variants: usize,
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

/// One body's journal payload: `worst,with_subs,without_subs,variants`.
impl JournalPayload for BodyShard {
    fn encode(&self) -> String {
        format!(
            "{},{},{},{}",
            self.worst.to_digit(),
            self.seen_with_subs as u8,
            self.seen_without_subs as u8,
            self.variants
        )
    }

    fn decode(text: &str) -> Result<Self, JournalError> {
        let fields = parse_fields::<usize>(text, ',', "body shard")?;
        if fields.len() != 4 || fields[1] > 1 || fields[2] > 1 {
            return Err(JournalError::Format(format!("bad body shard {text:?}")));
        }
        Ok(BodyShard {
            worst: CellOutcome::from_digit(fields[0] as u8)?,
            seen_with_subs: fields[1] == 1,
            seen_without_subs: fields[2] == 1,
            variants: fields[3],
        })
    }
}

/// The aggregation state of one Table 3 cell: the fold of every
/// [`BodyShard`].  `max`/`or`/`sum` are all associative and commutative,
/// so any shard grouping merges to the same cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellTally {
    worst_digit: u8,
    seen_with_subs: bool,
    seen_without_subs: bool,
    variants: usize,
}

impl CellTally {
    /// Folds one body's contribution in.
    pub fn record(&mut self, shard: &BodyShard) {
        self.worst_digit = self.worst_digit.max(shard.worst.to_digit());
        self.seen_with_subs |= shard.seen_with_subs;
        self.seen_without_subs |= shard.seen_without_subs;
        self.variants += shard.variants;
    }

    /// Renders the tally as the Table 3 cell it denotes.
    pub fn cell(&self) -> BenchmarkCell {
        let worst =
            CellOutcome::from_digit(self.worst_digit).expect("tally digits come from CellOutcome");
        let sensitivity = match (worst, self.seen_with_subs, self.seen_without_subs) {
            (CellOutcome::Ok, _, _) => SubstitutionSensitivity::NotApplicable,
            (_, true, false) => SubstitutionSensitivity::NeedsEnabled,
            (_, false, true) => SubstitutionSensitivity::NeedsDisabled,
            _ => SubstitutionSensitivity::Either,
        };
        BenchmarkCell {
            outcome: worst,
            sensitivity,
            variants: self.variants,
        }
    }
}

impl Mergeable for CellTally {
    fn merge(&mut self, other: CellTally) {
        self.worst_digit = self.worst_digit.max(other.worst_digit);
        self.seen_with_subs |= other.seen_with_subs;
        self.seen_without_subs |= other.seen_without_subs;
        self.variants += other.variants;
    }

    fn same_shape(&self, _: &CellTally) -> bool {
        true
    }

    fn serialize(&self) -> String {
        format!(
            "{},{},{},{}",
            self.worst_digit,
            self.seen_with_subs as u8,
            self.seen_without_subs as u8,
            self.variants
        )
    }

    fn deserialize(text: &str) -> Result<CellTally, JournalError> {
        let fields = parse_fields::<usize>(text, ',', "cell tally")?;
        if fields.len() != 4 || fields[0] > 4 || fields[1] > 1 || fields[2] > 1 {
            return Err(JournalError::Format(format!("bad cell tally {text:?}")));
        }
        Ok(CellTally {
            worst_digit: fields[0] as u8,
            seen_with_subs: fields[1] == 1,
            seen_without_subs: fields[2] == 1,
            variants: fields[3],
        })
    }
}

/// A whole cell as a journal payload (`outcome,sensitivity,variants`) —
/// used by the `table3` binary, which shards the benchmark × configuration
/// grid at cell granularity.
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

/// One EMI body's worth of Table 3 work: inject the body with substitutions
/// off and on, run at both optimisation levels, record the worst outcome.
/// The benchmark and configuration are shared read-only state behind
/// [`Arc`]s.
#[derive(Debug, Clone)]
pub struct BenchmarkBodyJob {
    /// The benchmark under test, shared across the batch.
    pub benchmark: Arc<EmiBenchmark>,
    /// Index of the body in `benchmark.bodies` (drives injection seeding).
    pub body_index: usize,
    /// The configuration, shared across the batch.
    pub config: Arc<Configuration>,
    /// Execution options.
    pub exec: ExecOptions,
    /// Reference result hash of the unmodified benchmark.
    pub expected: u64,
}

/// Stage-1 output of a [`BenchmarkBodyJob`]: the two injected EMI variants
/// (substitutions off and on) plus the judging context.
#[derive(Debug)]
pub struct InjectedVariants {
    /// `(substitutions, injected program)` pairs, substitutions-off first.
    pub variants: Vec<(bool, clc::Program)>,
    /// The configuration, shared across the batch.
    pub config: Arc<Configuration>,
    /// Execution options.
    pub exec: ExecOptions,
    /// Reference result hash of the unmodified benchmark.
    pub expected: u64,
}

/// Stage-2 output of a [`BenchmarkBodyJob`]: each variant's outcome at both
/// optimisation levels, tagged with its substitution setting, plus the
/// expected hash.
#[derive(Debug)]
pub struct BodyOutcomes {
    /// `(substitutions, outcome)` per (variant, opt level), in run order.
    pub outcomes: Vec<(bool, TestOutcome)>,
    /// Reference result hash of the unmodified benchmark.
    pub expected: u64,
}

impl StagedJob for BenchmarkBodyJob {
    type Generated = InjectedVariants;
    type Executed = BodyOutcomes;
    type Output = BodyShard;

    /// EMI injection (stage 1).
    fn generate(self) -> InjectedVariants {
        let body = &self.benchmark.bodies[self.body_index];
        let variants = [false, true]
            .into_iter()
            .map(|substitutions| {
                (
                    substitutions,
                    inject_emi_blocks(
                        &self.benchmark.program,
                        std::slice::from_ref(body),
                        &InjectionOptions {
                            injection_points: self.benchmark.injection_points,
                            substitutions,
                            seed: self.body_index as u64 + 1,
                            ..InjectionOptions::default()
                        },
                    ),
                )
            })
            .collect();
        InjectedVariants {
            variants,
            config: self.config,
            exec: self.exec,
            expected: self.expected,
        }
    }

    /// Execution (stage 2), with one memo across the substitutions-off/on
    /// pair: on non-optimising configurations both opt levels (and often
    /// both variants, when substitutions change nothing) compile
    /// identically and share one launch.  The [`Rc`]-based memo never
    /// crosses the stage boundary.
    fn execute(injected: InjectedVariants) -> BodyOutcomes {
        let memo = Rc::new(ExecMemo::new());
        let mut outcomes = Vec::with_capacity(injected.variants.len() * OptLevel::BOTH.len());
        for (substitutions, variant) in &injected.variants {
            let session = Session::with_memo(variant, Rc::clone(&memo));
            for opt in OptLevel::BOTH {
                outcomes.push((
                    *substitutions,
                    session.execute(&injected.config, opt, &injected.exec),
                ));
            }
        }
        BodyOutcomes {
            outcomes,
            expected: injected.expected,
        }
    }

    /// Worst-outcome fold (stage 3).
    fn judge(body: BodyOutcomes) -> BodyShard {
        let mut shard = BodyShard {
            worst: CellOutcome::Ok,
            seen_with_subs: false,
            seen_without_subs: false,
            variants: 0,
        };
        for (substitutions, outcome) in &body.outcomes {
            shard.variants += 1;
            let observed = match outcome {
                TestOutcome::Result { hash, .. } if *hash == body.expected => CellOutcome::Ok,
                TestOutcome::Result { .. } => CellOutcome::WrongCode,
                TestOutcome::Crash(_) => CellOutcome::Crash,
                TestOutcome::BuildFailure(_) => CellOutcome::Crash,
                TestOutcome::Timeout => CellOutcome::Timeout,
            };
            if observed > CellOutcome::Ok {
                if *substitutions {
                    shard.seen_with_subs = true;
                } else {
                    shard.seen_without_subs = true;
                }
            }
            if observed > shard.worst {
                shard.worst = observed;
            }
        }
        shard
    }
}

/// Evaluates one benchmark on one configuration, reproducing one cell of
/// Table 3.  `exec` should have race detection enabled if the caller wants to
/// reproduce the paper's discovery of racy benchmarks (§2.4).
///
/// The baseline checks run inline, then one [`BenchmarkBodyJob`] per EMI
/// body on `scheduler`, folded into a [`CellTally`] in body-index order, so
/// the cell is bit-identical at any worker count.
pub fn evaluate_benchmark_with(
    scheduler: &Scheduler,
    benchmark: &EmiBenchmark,
    config: &Configuration,
    exec: &ExecOptions,
) -> BenchmarkCell {
    // Expected output: the original benchmark on the reference emulator.
    let expected = match opencl_sim::reference_execute(&benchmark.program, exec) {
        TestOutcome::Result { hash, .. } => hash,
        _ => {
            return BenchmarkCell {
                outcome: CellOutcome::NoGeneration,
                sensitivity: SubstitutionSensitivity::NotApplicable,
                variants: 0,
            }
        }
    };

    // "Generation with an empty EMI block": the benchmark with the dead
    // array plumbing but no injected statements.  If this fails, the
    // configuration cannot run the benchmark at all (`ng`).
    let empty = inject_emi_blocks(
        &benchmark.program,
        &[clc::Block::new()],
        &InjectionOptions {
            injection_points: benchmark.injection_points,
            substitutions: false,
            seed: 0,
            ..InjectionOptions::default()
        },
    );
    let mut baseline_ok = false;
    let empty_session = Session::new(&empty);
    for opt in OptLevel::BOTH {
        if let TestOutcome::Result { hash, .. } = empty_session.execute(config, opt, exec) {
            if hash == expected {
                baseline_ok = true;
            }
        }
    }
    if !baseline_ok {
        return BenchmarkCell {
            outcome: CellOutcome::NoGeneration,
            sensitivity: SubstitutionSensitivity::NotApplicable,
            variants: 0,
        };
    }

    let shared_benchmark = Arc::new(benchmark.clone());
    let shared_config = Arc::new(config.clone());
    let jobs = (0..benchmark.bodies.len())
        .map(|body_index| BenchmarkBodyJob {
            benchmark: Arc::clone(&shared_benchmark),
            body_index,
            config: Arc::clone(&shared_config),
            exec: exec.clone(),
            expected,
        })
        .collect();
    let mut tally = CellTally::default();
    for shard in scheduler.run_staged_all(jobs) {
        tally.record(&shard);
    }
    tally.cell()
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
        let cell = evaluate_benchmark_with(
            &Scheduler::sequential(),
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
        let cell = evaluate_benchmark_with(
            &Scheduler::sequential(),
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
    fn body_shards_cells_and_tallies_round_trip_through_the_journal_forms() {
        let shard = BodyShard {
            worst: CellOutcome::Crash,
            seen_with_subs: true,
            seen_without_subs: false,
            variants: 4,
        };
        assert_eq!(shard.encode(), "3,1,0,4");
        assert_eq!(BodyShard::decode("3,1,0,4").unwrap(), shard);
        assert!(BodyShard::decode("9,1,0,4").is_err());
        assert!(BodyShard::decode("3,2,0,4").is_err());

        let mut tally = CellTally::default();
        tally.record(&shard);
        tally.record(&BodyShard {
            worst: CellOutcome::WrongCode,
            seen_with_subs: false,
            seen_without_subs: true,
            variants: 4,
        });
        let round = CellTally::deserialize(&tally.serialize()).unwrap();
        assert_eq!(round, tally);
        let cell = tally.cell();
        assert_eq!(cell.outcome, CellOutcome::WrongCode);
        assert_eq!(cell.sensitivity, SubstitutionSensitivity::Either);
        assert_eq!(cell.variants, 8);
        assert_eq!(
            BenchmarkCell::decode(&cell.encode()).unwrap().render(),
            "w?"
        );

        // Merge matches folding everything into one tally.
        let mut a = CellTally::default();
        a.record(&shard);
        let mut b = CellTally::default();
        b.record(&BodyShard {
            worst: CellOutcome::Timeout,
            seen_with_subs: false,
            seen_without_subs: true,
            variants: 2,
        });
        let mut merged = a;
        merged.merge(b);
        let mut whole = CellTally::default();
        whole.record(&shard);
        whole.record(&BodyShard {
            worst: CellOutcome::Timeout,
            seen_with_subs: false,
            seen_without_subs: true,
            variants: 2,
        });
        assert_eq!(merged, whole);
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
