//! The model-check suite: exhaustive exploration of the fleet
//! concurrency layer (the `run_fleet` granule dispatch) plus
//! anti-vacuity checks — mutated copies of that dispatch that the
//! checker must catch, proving the clean verdicts on the real code mean
//! something.
//!
//! Build and run with `RUSTFLAGS="--cfg dsi_model" cargo test -p
//! dsi-model`; under the normal cfg this file compiles to nothing.
#![cfg(dsi_model)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dsi_model::scenarios;
use interleave::sync::atomic::{AtomicUsize, Ordering};
use interleave::{explore, thread, Report, Violation};

// ---------------------------------------------------------------------
// The real code: every core scenario must be exhaustively clean.
// ---------------------------------------------------------------------

#[test]
fn fleet_knn_dispatch_is_clean() {
    scenarios::fleet_knn_dispatch(3).assert_clean();
}

#[test]
fn fleet_granule_panic_is_clean() {
    scenarios::fleet_granule_panic(3).assert_clean();
}

// ---------------------------------------------------------------------
// Anti-vacuity: a copy of `run_fleet`'s dispatch (`run_worker`'s claim
// loop and the merge that picks the panic to re-raise) with one line
// seeded wrong. Each test runs the faithful copy first, which must be
// clean, then the mutation, which the checker must catch.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Mutation {
    None,
    /// The claim reads the cursor, then advances it: two steps, so two
    /// workers can claim the same granule and one is skipped.
    TwoStepClaim,
    /// The merge re-raises the first failure in join order instead of
    /// the lowest failing granule's.
    JoinOrderReraise,
}

type GranulePanic = (usize, Box<dyn Any + Send>);

/// `run_worker`: claims granules from the cursor until none is left. A
/// granule in `fail` panics with its own payload and ends the worker.
fn run_worker(
    next: &AtomicUsize,
    granules: usize,
    fail: &[usize],
    m: Mutation,
) -> Result<Vec<usize>, GranulePanic> {
    let mut ran = Vec::new();
    loop {
        let g = if m == Mutation::TwoStepClaim {
            let g = next.load(Ordering::Relaxed);
            next.fetch_add(1, Ordering::Relaxed);
            g
        } else {
            next.fetch_add(1, Ordering::Relaxed)
        };
        if g >= granules {
            return Ok(ran);
        }
        let granule = || assert!(!fail.contains(&g), "granule {g} failed");
        match catch_unwind(AssertUnwindSafe(granule)) {
            Ok(()) => ran.push(g),
            Err(payload) => return Err((g, payload)),
        }
    }
}

/// `run_fleet`'s dispatch on two workers: spawn, join every worker,
/// then re-raise the kept failure. Returns the granules that ran.
fn dispatch(granules: usize, fail: &'static [usize], m: Mutation) -> Vec<usize> {
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..2.min(granules))
        .map(|_| {
            let next = Arc::clone(&next);
            thread::spawn(move || run_worker(&next, granules, fail, m))
        })
        .collect();
    let mut ran = Vec::new();
    let mut failed: Option<GranulePanic> = None;
    for handle in handles {
        match handle.join().unwrap_or_else(|p| Err((usize::MAX, p))) {
            Ok(outs) => ran.extend(outs),
            Err((g, payload)) => {
                let keep = if m == Mutation::JoinOrderReraise {
                    failed.is_none()
                } else {
                    failed.as_ref().is_none_or(|(first, _)| g < *first)
                };
                if keep {
                    failed = Some((g, payload));
                }
            }
        }
    }
    if let Some((_, payload)) = failed {
        resume_unwind(payload);
    }
    ran
}

/// Every granule of three runs exactly once, in every schedule.
fn explore_claims(m: Mutation) -> Report {
    explore(3, || {
        let mut ran = dispatch(3, &[], m);
        ran.sort_unstable();
        assert_eq!(ran, [0, 1, 2], "a granule ran twice or never");
    })
}

#[test]
fn mutation_two_step_claim_is_caught() {
    explore_claims(Mutation::None).assert_ok();
    let report = explore_claims(Mutation::TwoStepClaim);
    match report.violation {
        Some(Violation::UserPanic { ref message, .. }) => {
            assert!(message.contains("ran twice or never"), "got: {message}")
        }
        ref v => panic!("two-step claim went unnoticed: {v:?}"),
    }
    assert!(
        report.counterexample.is_some_and(|s| !s.is_empty()),
        "a violation comes with its schedule"
    );
}

/// The payloads `dispatch` re-raises across every schedule when
/// granules 0 and 2 of three fail.
fn reraised_payloads(m: Mutation) -> BTreeSet<String> {
    let payloads = RefCell::new(BTreeSet::new());
    explore(3, || {
        let run = catch_unwind(AssertUnwindSafe(|| dispatch(3, &[0, 2], m)));
        let payload = run.expect_err("two granules fail");
        let msg = payload.downcast_ref::<String>().expect("a granule payload");
        payloads.borrow_mut().insert(msg.clone());
    })
    .assert_ok();
    payloads.into_inner()
}

#[test]
fn mutation_join_order_reraise_is_caught() {
    assert_eq!(
        reraised_payloads(Mutation::None),
        BTreeSet::from(["granule 0 failed".to_string()])
    );
    assert_eq!(
        reraised_payloads(Mutation::JoinOrderReraise),
        BTreeSet::from([
            "granule 0 failed".to_string(),
            "granule 2 failed".to_string()
        ]),
        "which payload surfaces must depend on the schedule"
    );
}
