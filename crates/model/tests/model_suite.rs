//! The model-check suite: exhaustive exploration of the fleet
//! concurrency layer (`run_fleet` on dsi-sim's one granule dispatch) plus
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
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

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
// Anti-vacuity: a copy of `dsi_sim::fleet::dispatch` (the cursor claim
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

/// `dsi_sim::fleet::dispatch` (granules of `granule_len(n)` items) over
/// `usize` results, with `m` seeded into its claim or its merge.
fn dispatch<F>(n: usize, workers: usize, job: F, m: Mutation) -> Vec<Vec<usize>>
where
    F: Fn(Range<usize>) -> Vec<usize> + Send + Sync + 'static,
{
    let granule = (n / 256).clamp(8, 8192);
    let granules = n.div_ceil(granule);
    let next = Arc::new(AtomicUsize::new(0));
    let job = Arc::new(job);
    let handles: Vec<_> = (0..workers.min(granules))
        .map(|_| {
            let (next, job) = (Arc::clone(&next), Arc::clone(&job));
            thread::spawn(move || {
                let mut outs = Vec::new();
                loop {
                    let g = if m == Mutation::TwoStepClaim {
                        let g = next.load(Ordering::Relaxed);
                        next.fetch_add(1, Ordering::Relaxed);
                        g
                    } else {
                        next.fetch_add(1, Ordering::Relaxed)
                    };
                    if g >= granules {
                        return Ok(outs);
                    }
                    let items = g * granule..n.min((g + 1) * granule);
                    match catch_unwind(AssertUnwindSafe(|| job(items))) {
                        Ok(part) => outs.push((g, part)),
                        Err(payload) => return Err((g, payload)),
                    }
                }
            })
        })
        .collect();
    let mut parts = vec![Vec::new(); granules];
    let mut failed: Option<(usize, Box<dyn Any + Send>)> = None;
    for handle in handles {
        match handle.join().unwrap_or_else(|p| Err((usize::MAX, p))) {
            Ok(outs) => {
                for (g, part) in outs {
                    parts[g] = part;
                }
            }
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
    parts
}

/// Maps 24 items, three granules of 8, to themselves on two workers and
/// returns the items with the granules the job ran on, sorted; the
/// granules in `fail` panic with their own payload.
fn identity_map(fail: &'static [usize], m: Mutation) -> (Vec<usize>, Vec<usize>) {
    let ran = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&ran);
    let job = move |items: Range<usize>| {
        let g = items.start / 8;
        log.lock().unwrap().push(g);
        assert!(!fail.contains(&g), "granule {g} failed");
        items.collect()
    };
    let items = dispatch(24, 2, job, m).concat();
    let mut ran = ran.lock().unwrap().clone();
    ran.sort_unstable();
    (items, ran)
}

/// Every granule runs exactly once and every item comes back once, in
/// order, in every schedule. A granule run twice returns a part equal to
/// its first, so only the job's own log can see it.
fn explore_claims(m: Mutation) -> Report {
    explore(3, || {
        let (items, ran) = identity_map(&[], m);
        assert_eq!(ran, [0, 1, 2], "a granule ran twice or never");
        assert!(items.into_iter().eq(0..24), "a granule's part is missing");
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
        let run = catch_unwind(AssertUnwindSafe(|| identity_map(&[0, 2], m)));
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
