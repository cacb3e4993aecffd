//! Random differential testing: run one kernel across many (configuration,
//! optimisation level) targets and vote on the result (§3.2, §7.3).

use opencl_sim::{Configuration, ExecOptions, OptLevel, Session, TestOutcome};
use std::collections::BTreeMap;

/// One column of Table 4: a configuration at a fixed optimisation level.
#[derive(Debug, Clone)]
pub struct TestTarget {
    /// The simulated configuration.
    pub config: Configuration,
    /// The optimisation level.
    pub opt: OptLevel,
}

impl TestTarget {
    /// Creates a target.
    pub fn new(config: Configuration, opt: OptLevel) -> TestTarget {
        TestTarget { config, opt }
    }

    /// Paper-style label, e.g. `"12-"`.
    pub fn label(&self) -> String {
        self.config.label(self.opt)
    }
}

/// Builds the target list used throughout §7.3/§7.4: every configuration in
/// `configs`, first with optimisations disabled then enabled (the paper's
/// `i−`, `i+` column pairs).
pub fn targets_for(configs: &[Configuration]) -> Vec<TestTarget> {
    let mut out = Vec::with_capacity(configs.len() * 2);
    for config in configs {
        for opt in OptLevel::BOTH {
            out.push(TestTarget::new(config.clone(), opt));
        }
    }
    out
}

/// Per-target verdict for one kernel after majority voting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Terminated with a value that agrees with the majority (the paper's
    /// "✓" bucket) — or no majority of at least three exists, in which case
    /// nothing can be concluded and the result also counts here.
    Ok,
    /// Terminated with a value that disagrees with a majority of at least
    /// three (the paper's `w` bucket).
    WrongCode,
    /// Build failure (`bf`).
    BuildFailure,
    /// Runtime crash (`c`).
    Crash,
    /// Timeout (`to`).
    Timeout,
    /// Not executed: the static analyzer rejected the kernel before launch
    /// (`sk`).  Only produced by campaigns running with
    /// [`crate::CampaignOptions::prefilter`] on.
    Skipped,
}

impl Verdict {
    /// Column key used in the tables.
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::WrongCode => "w",
            Verdict::BuildFailure => "bf",
            Verdict::Crash => "c",
            Verdict::Timeout => "to",
            Verdict::Skipped => "sk",
        }
    }
}

/// Runs one kernel on every target through its per-kernel [`Session`], so
/// targets that compile the program to a bit-identical AST share a single
/// emulator launch (and the caller can read the session's cache counters
/// afterwards).
pub fn run_on_targets_session(
    session: &Session<'_>,
    targets: &[TestTarget],
    exec: &ExecOptions,
) -> Vec<TestOutcome> {
    targets
        .iter()
        .map(|t| session.execute(&t.config, t.opt, exec))
        .collect()
}

/// The minimum number of agreeing results required before a disagreement is
/// classified as wrong code (§7.3: "a majority of at least 3").
pub const MAJORITY_THRESHOLD: usize = 3;

/// Applies the paper's majority-vote rule to a set of outcomes, returning one
/// verdict per outcome.
///
/// Tie-breaking between equal-count value classes is *stable*: the class
/// with the numerically smallest result hash wins.  (A `HashMap` here would
/// make the verdict depend on iteration order — and therefore on nothing
/// reproducible — whenever two value classes tie at the majority count,
/// which would break the campaign engine's bit-identical-at-any-thread-count
/// guarantee.)
pub fn classify(outcomes: &[TestOutcome]) -> Vec<Verdict> {
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for outcome in outcomes {
        if let Some(hash) = outcome.result_hash() {
            *counts.entry(hash).or_insert(0) += 1;
        }
    }
    // `counts` iterates in ascending hash order, so taking a *strictly*
    // greater count keeps the smallest hash among tied classes.
    let mut majority: Option<(u64, usize)> = None;
    for (&hash, &count) in &counts {
        if majority.is_none_or(|(_, best)| count > best) {
            majority = Some((hash, count));
        }
    }
    let majority = majority
        .filter(|(_, count)| *count >= MAJORITY_THRESHOLD)
        .map(|(hash, _)| hash);
    outcomes
        .iter()
        .map(|outcome| match outcome {
            TestOutcome::Result { hash, .. } => match majority {
                Some(m) if *hash != m => Verdict::WrongCode,
                _ => Verdict::Ok,
            },
            TestOutcome::BuildFailure(_) => Verdict::BuildFailure,
            TestOutcome::Crash(_) => Verdict::Crash,
            TestOutcome::Timeout => Verdict::Timeout,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(hash: u64) -> TestOutcome {
        TestOutcome::Result {
            hash,
            output: hash.to_string(),
        }
    }

    #[test]
    fn majority_voting_flags_the_deviant() {
        let outcomes = vec![
            result(1),
            result(1),
            result(1),
            result(2),
            TestOutcome::Timeout,
        ];
        let verdicts = classify(&outcomes);
        assert_eq!(
            verdicts,
            vec![
                Verdict::Ok,
                Verdict::Ok,
                Verdict::Ok,
                Verdict::WrongCode,
                Verdict::Timeout
            ]
        );
    }

    #[test]
    fn no_majority_means_no_wrong_code() {
        // Two against two: the paper requires a majority of at least three.
        let outcomes = vec![result(1), result(1), result(2), result(2)];
        let verdicts = classify(&outcomes);
        assert!(verdicts.iter().all(|v| *v == Verdict::Ok));
    }

    #[test]
    fn tied_majorities_break_towards_the_smallest_hash() {
        // Three against three at the majority threshold: the verdict must
        // not depend on map iteration order.  The stable rule elects the
        // smaller hash (2), so the larger class (5) is the deviant.
        let outcomes = vec![
            result(5),
            result(2),
            result(5),
            result(2),
            result(5),
            result(2),
        ];
        let expected = vec![
            Verdict::WrongCode,
            Verdict::Ok,
            Verdict::WrongCode,
            Verdict::Ok,
            Verdict::WrongCode,
            Verdict::Ok,
        ];
        for _ in 0..32 {
            assert_eq!(classify(&outcomes), expected);
        }
    }

    #[test]
    fn failures_map_to_their_buckets() {
        let outcomes = vec![
            TestOutcome::BuildFailure("x".into()),
            TestOutcome::Crash("y".into()),
            TestOutcome::Timeout,
        ];
        let verdicts = classify(&outcomes);
        assert_eq!(
            verdicts,
            vec![Verdict::BuildFailure, Verdict::Crash, Verdict::Timeout]
        );
        assert_eq!(Verdict::BuildFailure.key(), "bf");
    }

    #[test]
    fn targets_enumerate_both_opt_levels() {
        let configs = vec![opencl_sim::configuration(1), opencl_sim::configuration(19)];
        let targets = targets_for(&configs);
        assert_eq!(targets.len(), 4);
        assert_eq!(targets[0].label(), "1-");
        assert_eq!(targets[1].label(), "1+");
        assert_eq!(targets[3].label(), "19+");
    }

    #[test]
    fn end_to_end_differential_run_finds_injected_bug() {
        // The Figure 1(a) kernel should be flagged as wrong code on the AMD
        // configuration when voting against three healthy configurations.
        let fig = opencl_sim::figures::figure_1a();
        let configs = vec![
            opencl_sim::configuration(1),
            opencl_sim::configuration(3),
            opencl_sim::configuration(9),
            opencl_sim::configuration(5),
        ];
        let targets: Vec<TestTarget> = configs
            .into_iter()
            .map(|c| TestTarget::new(c, OptLevel::Enabled))
            .collect();
        let session = Session::new(&fig.program);
        let verdicts = classify(&run_on_targets_session(
            &session,
            &targets,
            &ExecOptions::default(),
        ));
        assert_eq!(verdicts[3], Verdict::WrongCode, "verdicts: {verdicts:?}");
    }
}
