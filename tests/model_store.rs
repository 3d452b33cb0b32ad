//! The solver model store under poisoning: a store whose every entry is
//! corrupt can cost re-solves, never a different verdict.
//!
//! The covert bombs run under Omniscient — the profile that reads the
//! store through — three ways: with no store, with a fresh store, and with
//! a poisoned store warmed by a first pass. A poisoned model answers a
//! slice only if it still passes concrete re-verification, so the three
//! passes must agree on every outcome and every solved input.

use bomblab::prelude::*;
use bomblab::solver::ShardCache;
use std::sync::Arc;

fn covert_cases() -> Vec<StudyCase> {
    bomblab::bombs::all_cases()
        .into_iter()
        .filter(|c| c.subject.name.starts_with("covert"))
        .collect()
}

/// One Omniscient pass over `cases`, every cell attached to `store`.
fn pass(cases: &[StudyCase], store: Option<&Arc<ShardCache>>) -> Vec<Attempt> {
    cases
        .iter()
        .map(|case| {
            let ground = bomblab::concolic::ground_truth(&case.subject, &case.trigger);
            Engine::new(ToolProfile::omniscient())
                .with_shared_cache(store.cloned())
                .explore(&case.subject, &ground)
        })
        .collect()
}

fn verdicts(attempts: &[Attempt]) -> Vec<(Outcome, Option<WorldInput>)> {
    attempts
        .iter()
        .map(|a| (a.outcome, a.solved_input.clone()))
        .collect()
}

#[test]
fn a_poisoned_store_never_changes_a_verdict() {
    let cases = covert_cases();
    assert!(cases.len() >= 3, "the covert family is in the dataset");
    let bare = verdicts(&pass(&cases, None));
    assert!(
        bare.iter().any(|(o, _)| *o == Outcome::Solved),
        "some covert bomb is solved, so solved inputs are compared"
    );

    let fresh = verdicts(&pass(&cases, Some(&ShardCache::shared())));
    assert_eq!(fresh, bare, "a fresh store changed a verdict");

    let poisoned = Arc::new(ShardCache::poisoned());
    let warm_up = verdicts(&pass(&cases, Some(&poisoned)));
    assert!(poisoned.stores() > 0, "the first pass stored models");
    let attempts = pass(&cases, Some(&poisoned));
    let rejected: u64 = attempts
        .iter()
        .map(|a| a.evidence.shared_cache_rejected)
        .sum();
    assert_eq!(warm_up, bare, "the warming pass changed a verdict");
    assert_eq!(
        verdicts(&attempts),
        bare,
        "a poisoned store changed a verdict"
    );
    assert!(rejected >= 1, "no poisoned model reached verification");
}
