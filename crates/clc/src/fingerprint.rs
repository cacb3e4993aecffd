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
//! [`Program::fingerprint_emptying`] hashes a program as if chosen EMI
//! bodies were empty, without copying it: the emulator's live key
//! (`clc_interp::live_fingerprint`) names a program by its live code this
//! way.
//!
//! The hasher is [`DefaultHasher`] with its default (fixed) keys, the same
//! hasher the platform has always used, so every historical table and
//! campaign result is preserved.

use crate::program::{FunctionDef, KernelDef, Program};
use crate::stmt::{Block, EmiBlock, Stmt};
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

/// 64-bit FNV-1a over `bytes`: the byte-string hash behind result digests
/// and journal and store checksums.  Its values are persisted
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

    /// The fingerprint the program would have if the body of every EMI block
    /// that `empty` selects were an empty block, computed in one pass without
    /// copying the program.
    ///
    /// `empty` is asked about each EMI block outside the bodies it selects,
    /// outer blocks first; blocks nested in an emptied body go with it.  The
    /// pass feeds the hasher exactly what the derived `Hash` impls would for
    /// the emptied program, so the result equals emptying those bodies in a
    /// clone and calling [`Program::fingerprint`].
    pub fn fingerprint_emptying(&self, empty: &mut dyn FnMut(&EmiBlock) -> bool) -> Fingerprint {
        let Program {
            structs,
            functions,
            kernel,
            launch,
            buffers,
            permutations,
            dead_len,
        } = self;
        let mut h = EmptyingHasher {
            state: DefaultHasher::new(),
            empty,
        };
        structs.hash(&mut h.state);
        functions.len().hash(&mut h.state);
        for function in functions {
            let FunctionDef {
                name,
                ret,
                params,
                body,
                forward_declared,
                noinline,
            } = function;
            name.hash(&mut h.state);
            ret.hash(&mut h.state);
            params.hash(&mut h.state);
            h.block(body);
            forward_declared.hash(&mut h.state);
            noinline.hash(&mut h.state);
        }
        let KernelDef { name, params, body } = kernel;
        name.hash(&mut h.state);
        params.hash(&mut h.state);
        h.block(body);
        launch.hash(&mut h.state);
        buffers.hash(&mut h.state);
        permutations.hash(&mut h.state);
        dead_len.hash(&mut h.state);
        Fingerprint(h.state.finish())
    }
}

/// The hash pass behind [`Program::fingerprint_emptying`]: statements that
/// own blocks are hashed field by field in declaration order, after their
/// variant's discriminant, as `#[derive(Hash)]` does; every other node goes
/// through its derived impl.  A slice's length prefix is a `usize`.
struct EmptyingHasher<'f> {
    state: DefaultHasher,
    empty: &'f mut dyn FnMut(&EmiBlock) -> bool,
}

impl EmptyingHasher<'_> {
    fn block(&mut self, block: &Block) {
        block.stmts.len().hash(&mut self.state);
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        let discriminant = std::mem::discriminant(stmt);
        match stmt {
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                discriminant.hash(&mut self.state);
                cond.hash(&mut self.state);
                self.block(then_block);
                std::mem::discriminant(else_block).hash(&mut self.state);
                if let Some(else_block) = else_block {
                    self.block(else_block);
                }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                discriminant.hash(&mut self.state);
                std::mem::discriminant(init).hash(&mut self.state);
                if let Some(init) = init {
                    self.stmt(init);
                }
                cond.hash(&mut self.state);
                update.hash(&mut self.state);
                self.block(body);
            }
            Stmt::While { cond, body } => {
                discriminant.hash(&mut self.state);
                cond.hash(&mut self.state);
                self.block(body);
            }
            Stmt::Block(block) => {
                discriminant.hash(&mut self.state);
                self.block(block);
            }
            Stmt::Emi(emi) => {
                let EmiBlock { index, guard, body } = emi;
                discriminant.hash(&mut self.state);
                index.hash(&mut self.state);
                guard.hash(&mut self.state);
                if (self.empty)(emi) {
                    Block::new().hash(&mut self.state);
                } else {
                    self.block(body);
                }
            }
            Stmt::Decl { .. }
            | Stmt::Expr(_)
            | Stmt::Return(_)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::Barrier(_) => stmt.hash(&mut self.state),
        }
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

    /// A program with EMI blocks in every block-owning position: nested in
    /// each other, in both arms of an `if`, in `for` and `while` bodies, a
    /// `for` initialiser, a nested block and a helper function.
    fn emi_everywhere() -> Program {
        use crate::program::FunctionDef;
        use crate::stmt::EmiBlock;
        let emi = |index: usize, body: Vec<Stmt>| {
            Stmt::Emi(EmiBlock {
                index,
                guard: (index + 1, 0),
                body: Block::of(body),
            })
        };
        let leaf = |v: i64| Stmt::expr(Expr::int(v));
        let mut p = program(1);
        p.dead_len = 16;
        p.kernel.body.stmts.extend([
            emi(0, vec![leaf(1), emi(1, vec![leaf(2)])]),
            Stmt::if_else(
                Expr::int(1),
                Block::of(vec![emi(2, vec![leaf(3)])]),
                Block::of(vec![emi(3, vec![])]),
            ),
            Stmt::If {
                cond: Expr::int(0),
                then_block: Block::of(vec![emi(4, vec![leaf(4)])]),
                else_block: None,
            },
            Stmt::For {
                init: Some(Box::new(emi(5, vec![leaf(5)]))),
                cond: Some(Expr::int(0)),
                update: None,
                body: Block::of(vec![emi(6, vec![leaf(6)])]),
            },
            Stmt::While {
                cond: Expr::int(0),
                body: Block::of(vec![emi(7, vec![leaf(7), Stmt::Break])]),
            },
            Stmt::Block(Block::of(vec![emi(8, vec![Stmt::Return(None)])])),
        ]);
        p.functions.push(FunctionDef::new(
            "f",
            None,
            vec![],
            Block::of(vec![emi(9, vec![leaf(9)])]),
        ));
        p
    }

    /// Empties, in place, the body of every EMI block `empty` selects, outer
    /// blocks first.
    fn empty_bodies(block: &mut Block, empty: &dyn Fn(usize) -> bool) {
        for stmt in &mut block.stmts {
            match stmt {
                Stmt::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    empty_bodies(then_block, empty);
                    if let Some(b) = else_block {
                        empty_bodies(b, empty);
                    }
                }
                Stmt::For { init, body, .. } => {
                    if let Some(init) = init {
                        let mut wrapped = Block::of(vec![(**init).clone()]);
                        empty_bodies(&mut wrapped, empty);
                        **init = wrapped.stmts.pop().unwrap();
                    }
                    empty_bodies(body, empty);
                }
                Stmt::While { body, .. } | Stmt::Block(body) => empty_bodies(body, empty),
                Stmt::Emi(emi) if empty(emi.index) => emi.body = Block::new(),
                Stmt::Emi(emi) => empty_bodies(&mut emi.body, empty),
                _ => {}
            }
        }
    }

    #[test]
    fn fingerprint_emptying_matches_emptied_clones() {
        let p = emi_everywhere();
        assert_eq!(p.fingerprint_emptying(&mut |_| false), p.fingerprint());
        let selections: [fn(usize) -> bool; 5] =
            [|_| true, |i| i == 0, |i| i == 1, |i| i % 2 == 1, |i| i >= 5];
        let mut seen = std::collections::HashSet::new();
        for select in selections {
            let mut emptied = p.clone();
            for f in &mut emptied.functions {
                empty_bodies(&mut f.body, &select);
            }
            empty_bodies(&mut emptied.kernel.body, &select);
            let mut asked = Vec::new();
            let fingerprint = p.fingerprint_emptying(&mut |emi| {
                asked.push(emi.index);
                select(emi.index)
            });
            assert_eq!(fingerprint, emptied.fingerprint());
            assert!(
                seen.insert(fingerprint),
                "two selections share a fingerprint"
            );
            // Blocks inside an emptied body are never asked about.
            assert_eq!(asked.contains(&1), !select(0));
        }
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
