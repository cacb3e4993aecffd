//! Generator modes and options.

use std::fmt;

/// The six CLsmith generation modes (§4 of the paper).
///
/// * [`GenMode::Basic`] — "embarrassingly parallel" kernels, no communication.
/// * [`GenMode::Vector`] — additionally exercises OpenCL vector types and
///   built-ins.
/// * [`GenMode::Barrier`] — deterministic intra-group communication through a
///   shared array whose ownership is re-distributed at barriers.
/// * [`GenMode::AtomicSection`] — atomic-counter guarded sections whose local
///   effects are hashed into a per-group "special value".
/// * [`GenMode::AtomicReduction`] — commutative/associative atomic reductions
///   followed by barrier-protected accumulation.
/// * [`GenMode::All`] — everything combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GenMode {
    /// Embarrassingly parallel kernels (lifted Csmith).
    Basic,
    /// BASIC plus vector types and operations.
    Vector,
    /// Barrier-based deterministic communication.
    Barrier,
    /// Atomic sections.
    AtomicSection,
    /// Atomic reductions.
    AtomicReduction,
    /// All features combined.
    All,
}

impl GenMode {
    /// All modes, in the order used throughout the paper's tables.
    pub const ALL: [GenMode; 6] = [
        GenMode::Basic,
        GenMode::Vector,
        GenMode::Barrier,
        GenMode::AtomicSection,
        GenMode::AtomicReduction,
        GenMode::All,
    ];

    /// The display name used in Table 4.
    pub fn name(self) -> &'static str {
        match self {
            GenMode::Basic => "BASIC",
            GenMode::Vector => "VECTOR",
            GenMode::Barrier => "BARRIER",
            GenMode::AtomicSection => "ATOMIC SECTION",
            GenMode::AtomicReduction => "ATOMIC REDUCTION",
            GenMode::All => "ALL",
        }
    }

    /// Whether kernels of this mode use vector types and built-ins.
    pub fn uses_vectors(self) -> bool {
        matches!(self, GenMode::Vector | GenMode::All)
    }

    /// Whether kernels of this mode use the BARRIER communication idiom.
    pub fn uses_barrier_comm(self) -> bool {
        matches!(self, GenMode::Barrier | GenMode::All)
    }

    /// Whether kernels of this mode contain atomic sections.
    pub fn uses_atomic_sections(self) -> bool {
        matches!(self, GenMode::AtomicSection | GenMode::All)
    }

    /// Whether kernels of this mode contain atomic reductions.
    pub fn uses_atomic_reductions(self) -> bool {
        matches!(self, GenMode::AtomicReduction | GenMode::All)
    }

    /// Whether kernels of this mode contain any barrier statements (the
    /// BARRIER and ATOMIC REDUCTION idioms both synchronise with barriers).
    pub fn uses_barriers(self) -> bool {
        self.uses_barrier_comm() || self.uses_atomic_reductions() || self.uses_atomic_sections()
    }
}

impl fmt::Display for GenMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Options for EMI (dead-by-construction) block generation (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmiOptions {
    /// Length of the `dead` array parameter.
    pub dead_len: usize,
    /// Minimum number of EMI blocks to inject.
    pub min_blocks: usize,
    /// Maximum number of EMI blocks to inject.
    pub max_blocks: usize,
    /// Whether EMI bodies may contain `while (1)` loops.  The paper had to
    /// strip these for configuration 8 (Intel HD 4000), whose compiler hangs
    /// on them (Figure 1(e)).
    pub allow_infinite_loops: bool,
}

impl Default for EmiOptions {
    fn default() -> Self {
        EmiOptions {
            dead_len: 16,
            min_blocks: 1,
            max_blocks: 5,
            allow_infinite_loops: false,
        }
    }
}

/// Options controlling random program generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorOptions {
    /// RNG seed; the (seed, options) pair fully determines the program.
    pub seed: u64,
    /// Generation mode.
    pub mode: GenMode,
    /// Minimum total work-item count (inclusive).  The paper uses 100.
    pub min_threads: usize,
    /// Maximum total work-item count (exclusive).  The paper uses 10 000;
    /// the default here is smaller so that emulated campaigns finish in
    /// reasonable time (see EXPERIMENTS.md for the scaling discussion).
    pub max_threads: usize,
    /// Maximum work-group size (the paper constrains this to 256).
    pub max_group_size: usize,
    /// Number of fields in the per-thread globals struct.
    pub global_fields: usize,
    /// Number of additional local struct types to define.
    pub extra_structs: usize,
    /// Number of helper functions.
    pub helper_functions: usize,
    /// Statements per top-level block (roughly).
    pub block_statements: usize,
    /// Maximum statement nesting depth.
    pub max_block_depth: usize,
    /// Maximum expression depth.
    pub max_expr_depth: usize,
    /// Number of barrier synchronisation points (BARRIER mode).
    pub barrier_sync_points: usize,
    /// Number of atomic sections (ATOMIC SECTION mode).
    pub atomic_sections: usize,
    /// Number of atomic reductions (ATOMIC REDUCTION mode).
    pub atomic_reductions: usize,
    /// Number of rows in the BARRIER-mode permutation table (the paper's
    /// `d`, 10 in practice).
    pub permutation_rows: usize,
    /// EMI block injection; `None` disables the `dead` array entirely.
    pub emi: Option<EmiOptions>,
}

impl Default for GeneratorOptions {
    fn default() -> Self {
        GeneratorOptions {
            seed: 0,
            mode: GenMode::Basic,
            min_threads: 64,
            max_threads: 256,
            max_group_size: 256,
            global_fields: 6,
            extra_structs: 2,
            helper_functions: 2,
            block_statements: 8,
            max_block_depth: 3,
            max_expr_depth: 4,
            barrier_sync_points: 3,
            atomic_sections: 3,
            atomic_reductions: 3,
            permutation_rows: 10,
            emi: None,
        }
    }
}

impl GeneratorOptions {
    /// Options for a given mode and seed with the default sizes.
    pub fn new(mode: GenMode, seed: u64) -> GeneratorOptions {
        GeneratorOptions {
            seed,
            mode,
            ..GeneratorOptions::default()
        }
    }

    /// The paper's generation scale: 100–10 000 work-items per kernel and the
    /// full permutation table.  Campaigns at this scale are slow under
    /// emulation; the table binaries default to [`GeneratorOptions::new`] and
    /// accept `--paper-scale` to switch to this.
    pub fn paper_scale(mode: GenMode, seed: u64) -> GeneratorOptions {
        GeneratorOptions {
            seed,
            mode,
            min_threads: 100,
            max_threads: 10_000,
            block_statements: 12,
            helper_functions: 3,
            ..GeneratorOptions::default()
        }
    }

    /// Enables EMI block generation with default EMI options.
    pub fn with_emi(mut self) -> GeneratorOptions {
        self.emi = Some(EmiOptions::default());
        self
    }

    /// Checks that the generator can run these options in every mode: at
    /// least one work-item and a non-empty range to draw the count from, a
    /// permutation row to draw for each sync point, and, with EMI on, a
    /// `dead` array of at least two entries (a guard compares two of them)
    /// and a non-empty range of block counts.
    pub fn check(&self) -> Result<(), String> {
        let emi_ok = self
            .emi
            .as_ref()
            .is_none_or(|e| e.dead_len >= 2 && e.min_blocks <= e.max_blocks);
        if self.min_threads == 0
            || self.min_threads >= self.max_threads
            || self.permutation_rows == 0
            || !emi_ok
        {
            return Err(format!("the generator cannot run options {self:?}"));
        }
        Ok(())
    }

    /// The options a kernel depends on besides its mode and seed, as
    /// numbers: the sizes in declaration order, from `min_threads` to
    /// `permutation_rows`, then with EMI on `dead_len`, `min_blocks`,
    /// `max_blocks` and `allow_infinite_loops` (0 or 1).  The patterns are
    /// exhaustive, so a new option cannot be left out.
    pub fn sizes(&self) -> Vec<usize> {
        let GeneratorOptions {
            seed: _,
            mode: _,
            min_threads,
            max_threads,
            max_group_size,
            global_fields,
            extra_structs,
            helper_functions,
            block_statements,
            max_block_depth,
            max_expr_depth,
            barrier_sync_points,
            atomic_sections,
            atomic_reductions,
            permutation_rows,
            ref emi,
        } = *self;
        let mut sizes = vec![
            min_threads,
            max_threads,
            max_group_size,
            global_fields,
            extra_structs,
            helper_functions,
            block_statements,
            max_block_depth,
            max_expr_depth,
            barrier_sync_points,
            atomic_sections,
            atomic_reductions,
            permutation_rows,
        ];
        if let Some(EmiOptions {
            dead_len,
            min_blocks,
            max_blocks,
            allow_infinite_loops,
        }) = *emi
        {
            sizes.extend([
                dead_len,
                min_blocks,
                max_blocks,
                allow_infinite_loops.into(),
            ]);
        }
        sizes
    }

    /// The options whose [sizes](GeneratorOptions::sizes) are `sizes`, with
    /// the default mode and seed, or an error when the list is not such a
    /// list or names options the generator cannot run
    /// ([`GeneratorOptions::check`]).
    pub fn from_sizes(sizes: &[usize]) -> Result<GeneratorOptions, String> {
        let emi = match *sizes {
            [_, _, _, _, _, _, _, _, _, _, _, _, _] => None,
            [.., dead_len, min_blocks, max_blocks, infinite @ (0 | 1)] if sizes.len() == 17 => {
                Some(EmiOptions {
                    dead_len,
                    min_blocks,
                    max_blocks,
                    allow_infinite_loops: infinite == 1,
                })
            }
            _ => return Err(format!("{sizes:?} are not generator option sizes")),
        };
        let options = GeneratorOptions {
            seed: 0,
            mode: GenMode::Basic,
            min_threads: sizes[0],
            max_threads: sizes[1],
            max_group_size: sizes[2],
            global_fields: sizes[3],
            extra_structs: sizes[4],
            helper_functions: sizes[5],
            block_statements: sizes[6],
            max_block_depth: sizes[7],
            max_expr_depth: sizes[8],
            barrier_sync_points: sizes[9],
            atomic_sections: sizes[10],
            atomic_reductions: sizes[11],
            permutation_rows: sizes[12],
            emi,
        };
        options.check()?;
        Ok(options)
    }
}

/// Probabilities for the three EMI pruning strategies (§5).
///
/// `leaf` and `compound` reproduce the strategies of the original EMI work;
/// `lift` is the paper's novel strategy that promotes the children of a
/// branch node into its parent.  Because compound and lift both remove branch
/// nodes and compound is applied first, lifting is performed with the
/// adjusted probability `lift / (1 - compound)`, which requires
/// `compound + lift <= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneProbabilities {
    /// Probability of deleting a leaf statement.
    pub leaf: f64,
    /// Probability of deleting a compound statement.
    pub compound: f64,
    /// Probability of lifting a compound statement's children.
    pub lift: f64,
}

impl PruneProbabilities {
    /// Creates and validates pruning probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error when any probability is outside `[0, 1]` or when
    /// `compound + lift > 1` (the adjusted lift probability would exceed 1).
    pub fn new(leaf: f64, compound: f64, lift: f64) -> Result<PruneProbabilities, String> {
        for (name, p) in [("leaf", leaf), ("compound", compound), ("lift", lift)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} probability {p} outside [0, 1]"));
            }
        }
        if compound + lift > 1.0 + 1e-9 {
            return Err(format!(
                "compound ({compound}) + lift ({lift}) must not exceed 1"
            ));
        }
        Ok(PruneProbabilities {
            leaf,
            compound,
            lift,
        })
    }

    /// The adjusted lift probability `lift / (1 - compound)` described in §5.
    pub fn adjusted_lift(&self) -> f64 {
        if self.compound >= 1.0 {
            0.0
        } else {
            (self.lift / (1.0 - self.compound)).min(1.0)
        }
    }

    /// The 40 probability combinations used for Table 5: every combination of
    /// `leaf`, `compound`, `lift` over `{0, 0.3, 0.6, 1}` satisfying
    /// `compound + lift <= 1`.
    pub fn table5_combinations() -> Vec<PruneProbabilities> {
        let grid = [0.0, 0.3, 0.6, 1.0];
        let mut out = Vec::new();
        for &leaf in &grid {
            for &compound in &grid {
                for &lift in &grid {
                    if let Ok(p) = PruneProbabilities::new(leaf, compound, lift) {
                        out.push(p);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_feature_queries() {
        assert!(!GenMode::Basic.uses_vectors());
        assert!(GenMode::Vector.uses_vectors());
        assert!(GenMode::All.uses_vectors());
        assert!(GenMode::Barrier.uses_barrier_comm());
        assert!(GenMode::AtomicReduction.uses_barriers());
        assert!(!GenMode::Basic.uses_barriers());
        assert_eq!(GenMode::ALL.len(), 6);
        assert_eq!(GenMode::AtomicSection.name(), "ATOMIC SECTION");
    }

    #[test]
    fn prune_probability_validation() {
        assert!(PruneProbabilities::new(0.5, 0.5, 0.5).is_ok());
        assert!(PruneProbabilities::new(0.0, 0.6, 0.6).is_err());
        assert!(PruneProbabilities::new(1.5, 0.0, 0.0).is_err());
        let p = PruneProbabilities::new(0.0, 0.3, 0.6).unwrap();
        assert!((p.adjusted_lift() - 0.6 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn table5_grid_matches_paper_count() {
        // The paper derives 40 variants per base program from the probability
        // grid {0, 0.3, 0.6, 1}^3 restricted to compound + lift <= 1.
        let combos = PruneProbabilities::table5_combinations();
        assert_eq!(combos.len(), 40);
        assert!(combos.iter().all(|p| p.compound + p.lift <= 1.0 + 1e-9));
    }

    #[test]
    fn defaults_are_reasonable() {
        let opts = GeneratorOptions::default();
        assert!(opts.min_threads < opts.max_threads);
        assert!(opts.max_group_size <= 256);
        let paper = GeneratorOptions::paper_scale(GenMode::All, 1);
        assert_eq!(paper.min_threads, 100);
        assert_eq!(paper.max_threads, 10_000);
        let emi = GeneratorOptions::new(GenMode::Basic, 3).with_emi();
        assert!(emi.emi.is_some());
    }

    #[test]
    fn sizes_round_trip_and_refuse_what_the_generator_cannot_run() {
        let emi = GeneratorOptions {
            emi: Some(EmiOptions {
                allow_infinite_loops: true,
                ..EmiOptions::default()
            }),
            ..GeneratorOptions::default()
        };
        for options in [GeneratorOptions::default(), emi] {
            assert_eq!(GeneratorOptions::from_sizes(&options.sizes()), Ok(options));
        }
        let paper = GeneratorOptions::paper_scale(GenMode::All, 7);
        let parsed = GeneratorOptions::from_sizes(&paper.sizes()).unwrap();
        assert_eq!(parsed.sizes(), paper.sizes());
        let mut zero_threads = paper.sizes();
        zero_threads[0] = 0;
        for bad in [&zero_threads[..], &[1, 2], &[0; 17]] {
            assert!(GeneratorOptions::from_sizes(bad).is_err(), "{bad:?}");
        }
    }

    /// Every option at 0, 1 and 2 in turn, with EMI off and on: `check`
    /// refuses exactly the options on which the generator panics.
    #[test]
    fn check_refuses_exactly_the_options_the_generator_cannot_run() {
        let base = GeneratorOptions {
            min_threads: 2,
            max_threads: 4,
            ..GeneratorOptions::default()
        };
        let fields: [fn(&mut GeneratorOptions) -> &mut usize; 16] = [
            |o| &mut o.min_threads,
            |o| &mut o.max_threads,
            |o| &mut o.max_group_size,
            |o| &mut o.global_fields,
            |o| &mut o.extra_structs,
            |o| &mut o.helper_functions,
            |o| &mut o.block_statements,
            |o| &mut o.max_block_depth,
            |o| &mut o.max_expr_depth,
            |o| &mut o.barrier_sync_points,
            |o| &mut o.atomic_sections,
            |o| &mut o.atomic_reductions,
            |o| &mut o.permutation_rows,
            |o| &mut o.emi.as_mut().unwrap().dead_len,
            |o| &mut o.emi.as_mut().unwrap().min_blocks,
            |o| &mut o.emi.as_mut().unwrap().max_blocks,
        ];
        let mut refused = 0;
        for (index, field) in fields.iter().enumerate() {
            let emi = index >= 13;
            for value in 0..3 {
                let mut options = if emi {
                    base.clone().with_emi()
                } else {
                    base.clone()
                };
                *field(&mut options) = value;
                let runs = GenMode::ALL.iter().all(|&mode| {
                    (0..4).all(|seed| {
                        let options = GeneratorOptions {
                            mode,
                            seed,
                            ..options.clone()
                        };
                        std::panic::catch_unwind(|| crate::generate(&options)).is_ok()
                    })
                });
                assert_eq!(options.check().is_ok(), runs, "{options:?}");
                refused += usize::from(!runs);
            }
        }
        // `min_threads` 0, `max_threads` 0–2, `permutation_rows` 0,
        // `dead_len` 0–1 and `max_blocks` 0.
        assert_eq!(refused, 8);
    }
}
