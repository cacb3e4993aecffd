//! Coverage feedback: the *feedback* third of the generator → mutator →
//! feedback decomposition.
//!
//! The paper's campaigns are blind sampling — every kernel is drawn fresh
//! from the grammar, so coverage of bug rules, optimiser passes and
//! miscompilation sites is whatever the dice give.  [`CoverageMap`] is the
//! minimal structure a feedback loop needs on top of that: four 64-bit
//! bitmap words, one per [`CoverageClass`]:
//!
//! * **rules** — which injected bug rules matched the kernel during the
//!   simulated front-end phase (one bloom-style bit per rule name);
//! * **passes** — which genuine optimisation passes actually changed the
//!   program (constant folding, dead-code elimination, simplification);
//! * **miscompiles** — which miscompilation transforms were applied to the
//!   kernel (one bit per `Miscompilation` variant);
//! * **dynamic** — thread-aware execution bits à la MUZZ: races detected,
//!   race sites, barrier-arrival depth, outcome kinds.
//!
//! The map deliberately stays in `clsmith` (which knows nothing about the
//! simulated platform): producers in `opencl-sim` and `clc-interp` map
//! their domain events onto plain `(class, bit)` pairs, so the corpus
//! driver in `fuzz-harness` can merge and compare maps without depending
//! on how the bits were produced.
//!
//! Merging is bitwise OR, which makes it associative, commutative and
//! idempotent — exactly the algebra the journal/shard-merge layer requires
//! for bit-identical refolds (pinned by the unit tests below).

use std::fmt;

/// Number of 64-bit words in a [`CoverageMap`] (one per [`CoverageClass`]).
pub const COVERAGE_WORDS: usize = 4;

/// The four bitmap classes of a [`CoverageMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageClass {
    /// Bug-rule hits recorded during the simulated front-end phase.
    Rules,
    /// Optimiser passes that changed the program.
    Passes,
    /// Miscompilation transforms applied to the kernel.
    Miscompiles,
    /// Dynamic schedule/race/barrier bits from real launches.
    Dynamic,
}

impl CoverageClass {
    /// All classes, in word order.
    pub const ALL: [CoverageClass; COVERAGE_WORDS] = [
        CoverageClass::Rules,
        CoverageClass::Passes,
        CoverageClass::Miscompiles,
        CoverageClass::Dynamic,
    ];

    fn word(self) -> usize {
        match self {
            CoverageClass::Rules => 0,
            CoverageClass::Passes => 1,
            CoverageClass::Miscompiles => 2,
            CoverageClass::Dynamic => 3,
        }
    }
}

/// A fixed-size coverage bitmap: 256 bits in four class words.
///
/// The default value is the empty map, which is the identity of
/// [`merge`](CoverageMap::merge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CoverageMap {
    words: [u64; COVERAGE_WORDS],
}

impl CoverageMap {
    /// Total number of bits across all classes.
    pub const BITS: u32 = 64 * COVERAGE_WORDS as u32;

    /// The empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Sets one bit (`bit` is reduced modulo 64).
    pub fn set(&mut self, class: CoverageClass, bit: u32) {
        self.words[class.word()] |= 1u64 << (bit % 64);
    }

    /// Sets the bit a 64-bit hash selects (bloom-style, collisions allowed:
    /// coverage is a saturation signal, not an exact set).
    pub fn set_hash(&mut self, class: CoverageClass, hash: u64) {
        self.set(class, (hash % 64) as u32);
    }

    /// Whether one bit is set (`bit` is reduced modulo 64).
    pub fn contains(&self, class: CoverageClass, bit: u32) -> bool {
        self.words[class.word()] & (1u64 << (bit % 64)) != 0
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits across all classes.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of set bits in one class word.
    pub fn count_class(&self, class: CoverageClass) -> u32 {
        self.words[class.word()].count_ones()
    }

    /// Fraction of the 256 bits that are set, in `0.0..=1.0`.
    pub fn saturation(&self) -> f64 {
        f64::from(self.count()) / f64::from(CoverageMap::BITS)
    }

    /// Folds `other` into `self` (bitwise OR).
    ///
    /// Associative, commutative, idempotent; the empty map is the identity.
    pub fn merge(&mut self, other: &CoverageMap) {
        for (word, theirs) in self.words.iter_mut().zip(other.words.iter()) {
            *word |= theirs;
        }
    }

    /// Number of bits set in `other` that `self` does not cover yet — the
    /// selection signal of the feedback loop (a mutant that lights no new
    /// bit is not interesting).
    pub fn new_bits(&self, other: &CoverageMap) -> u32 {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(mine, theirs)| (theirs & !mine).count_ones())
            .sum()
    }

    /// Whitespace-free journal token: four fixed-width hex words joined by
    /// dots, e.g. `0000000000000003.0000000000000001.0000000000000000.0000000000000010`.
    pub fn token(&self) -> String {
        format!(
            "{:016x}.{:016x}.{:016x}.{:016x}",
            self.words[0], self.words[1], self.words[2], self.words[3]
        )
    }

    /// Parses a [`token`](CoverageMap::token).
    pub fn parse(token: &str) -> Option<CoverageMap> {
        let mut words = [0u64; COVERAGE_WORDS];
        let mut parts = token.split('.');
        for word in words.iter_mut() {
            let part = parts.next()?;
            if part.len() != 16 {
                return None;
            }
            *word = u64::from_str_radix(part, 16).ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(CoverageMap { words })
    }
}

impl fmt::Display for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.token())
    }
}

/// [`clc::fnv1a`] of a name, for mapping string identifiers (bug-rule names,
/// configuration names) onto coverage bits deterministically.
pub fn coverage_hash(name: &str) -> u64 {
    clc::fnv1a(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bits: &[(CoverageClass, u32)]) -> CoverageMap {
        let mut map = CoverageMap::new();
        for &(class, bit) in bits {
            map.set(class, bit);
        }
        map
    }

    #[test]
    fn set_contains_and_count() {
        let mut map = CoverageMap::new();
        assert!(map.is_empty());
        map.set(CoverageClass::Rules, 3);
        map.set(CoverageClass::Dynamic, 63);
        map.set(CoverageClass::Dynamic, 63 + 64); // wraps modulo 64
        assert!(map.contains(CoverageClass::Rules, 3));
        assert!(map.contains(CoverageClass::Dynamic, 63));
        assert!(!map.contains(CoverageClass::Passes, 3));
        assert_eq!(map.count(), 2);
        assert_eq!(map.count_class(CoverageClass::Dynamic), 1);
        assert!(map.saturation() > 0.0 && map.saturation() < 1.0);
    }

    #[test]
    fn merge_is_commutative() {
        let a = sample(&[(CoverageClass::Rules, 1), (CoverageClass::Passes, 2)]);
        let b = sample(&[(CoverageClass::Rules, 7), (CoverageClass::Dynamic, 9)]);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let a = sample(&[(CoverageClass::Rules, 0)]);
        let b = sample(&[(CoverageClass::Miscompiles, 5)]);
        let c = sample(&[(CoverageClass::Dynamic, 11), (CoverageClass::Rules, 4)]);
        // (a ∪ b) ∪ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn self_merge_is_idempotent() {
        let a = sample(&[(CoverageClass::Passes, 1), (CoverageClass::Dynamic, 40)]);
        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged, a);
    }

    #[test]
    fn empty_map_is_the_identity() {
        let a = sample(&[(CoverageClass::Rules, 13), (CoverageClass::Miscompiles, 8)]);
        let mut left = a;
        left.merge(&CoverageMap::new());
        assert_eq!(left, a);
        let mut right = CoverageMap::new();
        right.merge(&a);
        assert_eq!(right, a);
    }

    #[test]
    fn new_bits_counts_only_uncovered() {
        let seen = sample(&[(CoverageClass::Rules, 1), (CoverageClass::Rules, 2)]);
        let hit = sample(&[(CoverageClass::Rules, 2), (CoverageClass::Dynamic, 3)]);
        assert_eq!(seen.new_bits(&hit), 1);
        assert_eq!(seen.new_bits(&seen), 0);
        assert_eq!(CoverageMap::new().new_bits(&hit), 2);
    }

    #[test]
    fn token_roundtrips() {
        let a = sample(&[
            (CoverageClass::Rules, 0),
            (CoverageClass::Passes, 63),
            (CoverageClass::Dynamic, 17),
        ]);
        let token = a.token();
        assert!(!token.contains(char::is_whitespace));
        assert_eq!(CoverageMap::parse(&token), Some(a));
        assert_eq!(CoverageMap::parse(""), None);
        assert_eq!(CoverageMap::parse("zz"), None);
        assert_eq!(
            CoverageMap::parse(&format!("{token}.deadbeefdeadbeef")),
            None
        );
    }

    #[test]
    fn coverage_hash_is_stable_and_spread() {
        assert_eq!(coverage_hash("a"), coverage_hash("a"));
        assert_ne!(coverage_hash("a"), coverage_hash("b"));
        // Spot-check the FNV-1a constant behaviour on the empty string.
        assert_eq!(coverage_hash(""), 0xcbf2_9ce4_8422_2325);
    }
}
