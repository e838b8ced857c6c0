//! The model-check suite: exhaustive exploration of the fleet
//! concurrency layer (the `run_fleet` granule dispatch and the share
//! cache) plus anti-vacuity checks — seeded mutations of classic
//! queue, parking and locking patterns that the checker must catch,
//! proving the clean verdicts on the real code mean something.
//!
//! Build and run with `RUSTFLAGS="--cfg dsi_model" cargo test -p
//! dsi-model`; under the normal cfg this file compiles to nothing.
#![cfg(dsi_model)]

use std::collections::VecDeque;
use std::sync::Arc;

use dsi_model::check::check;
use dsi_model::scenarios;
use dsi_model::wakeup::DeadlockKind;
use interleave::sync::{Condvar, Mutex};
use interleave::{Options, SharedCell, Violation};

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

#[test]
fn share_cache_insert_hit_is_clean() {
    scenarios::share_cache_insert_hit(3).assert_clean();
}

// ---------------------------------------------------------------------
// Anti-vacuity: mutated copies of synchronization patterns, most of them
// from the work-stealing pool the fleet ran on before its cursor
// dispatch. Each mutation removes one ingredient the correct pattern
// relies on; the checker must catch every one, or a clean verdict
// proves nothing.
// ---------------------------------------------------------------------

/// A minimal single-worker condvar queue, with one seeded mutation:
/// `push` forgets to signal the condvar. The consumer parks forever in
/// schedules where it checks before the push — the explorer must find
/// that deadlock.
#[test]
fn mutation_missing_notify_is_caught_as_deadlock() {
    let report = check(&Options::with_bound(2), || {
        let queue: Arc<Mutex<VecDeque<u32>>> = Arc::new(Mutex::new(VecDeque::new()));
        let ready = Arc::new(Condvar::new());
        let consumer = {
            let queue = Arc::clone(&queue);
            let ready = Arc::clone(&ready);
            interleave::thread::spawn(move || {
                let mut q = queue.lock().unwrap();
                while q.is_empty() {
                    q = ready.wait(q).unwrap();
                }
                q.pop_front().expect("non-empty after wait")
            })
        };
        queue.lock().unwrap().push_back(7);
        // MUTATION: the correct queue notifies here.
        // ready.notify_all();
        let _ = consumer.join();
    });
    assert!(
        matches!(report.report.violation, Some(Violation::Deadlock { .. })),
        "missing notify went unnoticed: {:?}",
        report.report.violation
    );
}

/// Check-then-park with the flag read *outside* the lock (the lost
/// wakeup a pinned-epoch re-scan prevents): the explorer must find the
/// hang and the wakeup analyzer must classify it as a lost wakeup, not a
/// plain deadlock.
#[test]
fn mutation_check_then_park_is_caught_as_lost_wakeup() {
    let report = check(&Options::with_bound(2), || {
        let flag = Arc::new(Mutex::new(false));
        let ready = Arc::new(Condvar::new());
        let waiter = {
            let flag = Arc::clone(&flag);
            let ready = Arc::clone(&ready);
            interleave::thread::spawn(move || {
                // MUTATION: the correct worker pins the epoch under the
                // lock and re-scans before sleeping; this copy checks a
                // stale snapshot and parks unconditionally.
                let set_now = *flag.lock().unwrap();
                if !set_now {
                    let guard = flag.lock().unwrap();
                    let _guard = ready.wait(guard).unwrap();
                }
            })
        };
        {
            let mut f = flag.lock().unwrap();
            *f = true;
            ready.notify_all();
        }
        let _ = waiter.join();
    });
    assert!(
        matches!(report.report.violation, Some(Violation::Deadlock { .. })),
        "lost wakeup went unnoticed: {:?}",
        report.report.violation
    );
    assert!(
        matches!(report.deadlock_kind, Some(DeadlockKind::LostWakeup { .. })),
        "hang not classified as a lost wakeup: {:?}",
        report.deadlock_kind
    );
}

/// Dropped lock acquisition: a shared counter updated without its
/// mutex. No schedule panics or hangs — only the lockset analyzer can
/// see this one, and it must.
#[test]
fn mutation_dropped_lock_is_caught_by_lockset() {
    let report = check(&Options::with_bound(2), || {
        let cell = Arc::new(SharedCell::new(0u32));
        let guard: Arc<Mutex<()>> = Arc::new(Mutex::new(()));
        let t = {
            let cell = Arc::clone(&cell);
            let guard = Arc::clone(&guard);
            interleave::thread::spawn(move || {
                let _g = guard.lock().unwrap();
                cell.set(cell.get() + 1);
            })
        };
        // MUTATION: the real pattern takes `guard` here too.
        cell.set(cell.get() + 1);
        let _ = t.join();
    });
    assert!(
        !report.races.is_empty(),
        "unprotected shared write went unnoticed"
    );
}

/// Opposite-order nested acquisitions: the lock-order analyzer must
/// report the cycle, and the explorer must find a schedule that
/// actually hangs.
#[test]
fn mutation_opposite_lock_order_is_caught() {
    let report = check(&Options::with_bound(2), || {
        let a: Arc<Mutex<()>> = Arc::new(Mutex::new(()));
        let b: Arc<Mutex<()>> = Arc::new(Mutex::new(()));
        let t = {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            interleave::thread::spawn(move || {
                let _ga = a.lock().unwrap();
                let _gb = b.lock().unwrap();
            })
        };
        // MUTATION: the real discipline is the declared a < b order.
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop(_ga);
        drop(_gb);
        let _ = t.join();
    });
    assert!(
        matches!(report.report.violation, Some(Violation::Deadlock { .. })),
        "opposite-order deadlock went unnoticed: {:?}",
        report.report.violation
    );
    assert!(!report.cycles.is_empty(), "lock-order cycle went unnoticed");
}

/// The shutdown bug the model checker once found in the fleet's former
/// work-stealing pool (live check between the empty re-scan and the
/// park, outside the epoch lock), kept alive here as a mutated
/// mini-worker: the explorer must keep catching the lost-job schedule
/// that motivated the fix.
#[test]
fn mutation_stale_live_check_loses_jobs() {
    let report = check(&Options::with_bound(2), || {
        let queue: Arc<Mutex<VecDeque<u32>>> = Arc::new(Mutex::new(VecDeque::new()));
        let epoch: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
        let available = Arc::new(Condvar::new());
        let live = Arc::new(Mutex::new(true));
        let drained = Arc::new(SharedCell::new(0u32));
        let worker = {
            let queue = Arc::clone(&queue);
            let epoch = Arc::clone(&epoch);
            let available = Arc::clone(&available);
            let live = Arc::clone(&live);
            let drained = Arc::clone(&drained);
            interleave::thread::spawn(move || loop {
                if queue.lock().unwrap().pop_front().is_some() {
                    drained.set(drained.get() + 1);
                    continue;
                }
                let seen = *epoch.lock().unwrap();
                if queue.lock().unwrap().pop_front().is_some() {
                    drained.set(drained.get() + 1);
                    continue;
                }
                // MUTATION: the fixed worker re-checks the epoch under
                // its lock before honouring `!live`; this copy returns
                // on a stale scan, losing jobs pushed in the window.
                if !*live.lock().unwrap() {
                    return;
                }
                let mut e = epoch.lock().unwrap();
                while *e == seen && *live.lock().unwrap() {
                    e = available.wait(e).unwrap();
                }
            })
        };
        queue.lock().unwrap().push_back(1);
        {
            let mut e = epoch.lock().unwrap();
            *e += 1;
            available.notify_all();
        }
        *live.lock().unwrap() = false;
        {
            let mut e = epoch.lock().unwrap();
            *e += 1;
            available.notify_all();
        }
        let _ = worker.join();
        assert_eq!(drained.get(), 1, "job lost in the shutdown race");
    });
    assert!(
        matches!(report.report.violation, Some(Violation::UserPanic { .. })),
        "stale live check went unnoticed: {:?}",
        report.report.violation
    );
}
