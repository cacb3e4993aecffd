//! Structural program fingerprints with reusable hasher state.
//!
//! Differential execution fans one kernel out over dozens of
//! (configuration, optimisation level) targets, and most of those targets
//! end up compiling the program to a bit-identical AST.  Detecting that
//! cheaply requires two things from the hash layer:
//!
//! 1. a **fingerprint** — a single-pass structural hash of a [`Program`]
//!    that distinguishes any observable difference (literals, struct
//!    layout, launch geometry, buffer setup, ...), used as the key of
//!    compiled-kernel and outcome caches; and
//! 2. **reusable hasher state** — the simulated platform derives its
//!    deterministic background-outcome rolls from
//!    `hash(program, config, opt, salt)`.  Hashing the program prefix once
//!    and cloning the hasher for every `(config, opt, salt)` suffix keeps
//!    those rolls *bit-identical* to hashing the whole tuple from scratch
//!    (Rust tuples hash their fields in order into one hasher), while
//!    paying the full AST traversal exactly once per kernel instead of
//!    once per roll.
//!
//! The hasher is [`DefaultHasher`] with its default (fixed) keys, the same
//! hasher the platform has always used, so every historical table and
//! campaign result is preserved.

use crate::program::Program;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A structural fingerprint of a [`Program`].
///
/// Equal fingerprints identify structurally identical programs (up to the
/// negligible 64-bit collision probability); any semantic difference —
/// a changed literal, a reordered struct field, a different launch
/// configuration — produces a different fingerprint with overwhelming
/// probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Hasher state seeded with one full pass over a [`Program`], cloneable per
/// suffix.
///
/// Constructing a `ProgramHasher` walks the AST once.  Every subsequent
/// [`ProgramHasher::chain`] clones the small internal hasher state and hashes
/// only the suffix, producing exactly the value that
/// `hash(&(program, suffix...))` would — without re-walking the AST.
#[derive(Debug, Clone)]
pub struct ProgramHasher {
    state: DefaultHasher,
}

impl ProgramHasher {
    /// Hashes `program` once and captures the hasher state.
    pub fn new(program: &Program) -> ProgramHasher {
        let mut state = DefaultHasher::new();
        program.hash(&mut state);
        ProgramHasher { state }
    }

    /// The program's structural fingerprint (no suffix).
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint(self.state.clone().finish())
    }

    /// Hashes `suffix` on top of the captured program state.
    ///
    /// Bit-identical to hashing the flattened tuple
    /// `(program, suffix fields...)` into a fresh [`DefaultHasher`], because
    /// tuple hashing feeds each field into the same hasher in order.
    pub fn chain<T: Hash>(&self, suffix: &T) -> u64 {
        let mut state = self.state.clone();
        suffix.hash(&mut state);
        state.finish()
    }
}

/// 64-bit FNV-1a over `bytes`: the byte-string hash behind result digests,
/// journal and store checksums and coverage bits.  Its values are persisted
/// (journals, store entries, pinned table digests), so they must never move.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Program {
    /// The program's structural fingerprint: a single-pass hash over the
    /// whole AST, launch geometry and buffer setup.  See [`Fingerprint`].
    pub fn fingerprint(&self) -> Fingerprint {
        ProgramHasher::new(self).fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, IdKind};
    use crate::program::{BufferSpec, KernelDef, LaunchConfig};
    use crate::stmt::{Block, Stmt};

    #[test]
    fn fnv1a_matches_the_reference_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
    use crate::types::{Field, ScalarType, StructDef, Type};

    fn program(value: i64) -> Program {
        let mut p = Program::new(
            KernelDef {
                name: "k".into(),
                params: Program::standard_clsmith_params(0),
                body: Block::of(vec![Stmt::assign(
                    Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                    Expr::int(value),
                )]),
            },
            LaunchConfig::single_group(4),
        );
        p.buffers
            .push(BufferSpec::result("out", ScalarType::ULong, 4));
        p
    }

    #[test]
    fn fingerprint_is_stable_across_clones_and_calls() {
        let p = program(7);
        assert_eq!(p.fingerprint(), p.fingerprint());
        assert_eq!(p.fingerprint(), p.clone().fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_literal_only_differences() {
        // The exact bug class the caches must never conflate: two kernels
        // identical except for one literal (e.g. a PerturbLiteral
        // miscompilation).
        assert_ne!(program(7).fingerprint(), program(8).fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_struct_layout_differences() {
        let base = program(1);
        let mut reordered = base.clone();
        let mut swapped = base.clone();
        reordered.add_struct(StructDef::new(
            "S",
            vec![
                Field::new("a", Type::Scalar(ScalarType::Char)),
                Field::new("b", Type::Scalar(ScalarType::Long)),
            ],
        ));
        swapped.add_struct(StructDef::new(
            "S",
            vec![
                Field::new("b", Type::Scalar(ScalarType::Long)),
                Field::new("a", Type::Scalar(ScalarType::Char)),
            ],
        ));
        assert_ne!(base.fingerprint(), reordered.fingerprint());
        assert_ne!(reordered.fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_launch_config_differences() {
        let base = program(1);
        let mut regrouped = base.clone();
        regrouped.launch = LaunchConfig::new([4, 1, 1], [2, 1, 1]).unwrap();
        assert_ne!(base.fingerprint(), regrouped.fingerprint());
    }

    #[test]
    fn chained_suffix_matches_whole_tuple_hash() {
        // The property `platform::chance` depends on: prefix-captured state
        // plus a chained suffix equals hashing the flat tuple from scratch.
        let p = program(3);
        let hasher = ProgramHasher::new(&p);
        for (config_id, opt, salt) in [(1usize, 0u8, "bf"), (19, 1, "wc"), (7, 0, "perturb")] {
            let chained = hasher.chain(&(config_id, opt, salt));
            let mut whole = DefaultHasher::new();
            (&p, config_id, opt, salt).hash(&mut whole);
            assert_eq!(chained, whole.finish());
        }
    }
}
