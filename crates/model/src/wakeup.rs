//! Deadlock classification: plain deadlock vs lost wakeup.
//!
//! The explorer reports a deadlock whenever no task can run. For the
//! condvar parking path the interesting sub-case is the *lost wakeup*:
//! the signal was sent, but before the sleeper actually parked — the
//! check-then-sleep race that an epoch pinned under the lock prevents.
//! The two are distinguished from the event stream: a waiter whose final
//! `CvWait` is preceded by a `Notify` of the same condvar slept through
//! a signal that will never repeat.

use interleave::{BlockedOn, Event, ObjId, TaskId, Violation};

/// Refined deadlock diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockKind {
    /// A condvar waiter parked *after* the last signal on its condvar
    /// fired: the wakeup was lost (check-then-sleep race).
    LostWakeup {
        /// The condvar whose signal was missed.
        cv: ObjId,
        /// The parked task.
        waiter: TaskId,
    },
    /// A deadlock with no missed-signal evidence (lock cycle, waiting
    /// on a signal no live thread can send, join cycle, ...).
    Deadlock,
}

/// Classifies a [`Violation::Deadlock`] using the execution's event
/// stream. Returns `None` for non-deadlock violations.
pub fn classify(events: &[Event], violation: &Violation) -> Option<DeadlockKind> {
    let blocked = match violation {
        Violation::Deadlock { blocked } => blocked,
        _ => return None,
    };
    for &(task, ref on) in blocked {
        let cv = match on {
            BlockedOn::Condvar(cv) => *cv,
            _ => continue,
        };
        // Index of this task's final park on the condvar.
        let wait_at = events.iter().rposition(
            |e| matches!(*e, Event::CvWait { task: t, cv: c, .. } if t == task && c == cv),
        );
        let Some(wait_at) = wait_at else { continue };
        // Any signal on that condvar before the park means the park
        // raced past its wakeup.
        let signalled_before = events[..wait_at]
            .iter()
            .any(|e| matches!(*e, Event::Notify { cv: c, .. } if c == cv));
        if signalled_before {
            return Some(DeadlockKind::LostWakeup { cv, waiter: task });
        }
    }
    Some(DeadlockKind::Deadlock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_before_wait_is_lost_wakeup() {
        let events = [
            Event::Acquire { task: 1, lock: 0 },
            Event::Notify {
                task: 1,
                cv: 2,
                waiters: 0,
                all: true,
            },
            Event::Release { task: 1, lock: 0 },
            Event::Acquire { task: 0, lock: 0 },
            Event::CvWait {
                task: 0,
                cv: 2,
                lock: 0,
            },
        ];
        let v = Violation::Deadlock {
            blocked: vec![(0, BlockedOn::Condvar(2))],
        };
        assert_eq!(
            classify(&events, &v),
            Some(DeadlockKind::LostWakeup { cv: 2, waiter: 0 })
        );
    }

    #[test]
    fn never_signalled_is_plain_deadlock() {
        let events = [
            Event::Acquire { task: 0, lock: 0 },
            Event::CvWait {
                task: 0,
                cv: 2,
                lock: 0,
            },
        ];
        let v = Violation::Deadlock {
            blocked: vec![(0, BlockedOn::Condvar(2))],
        };
        assert_eq!(classify(&events, &v), Some(DeadlockKind::Deadlock));
    }

    #[test]
    fn non_deadlock_violations_are_not_classified() {
        let v = Violation::UserPanic {
            task: 0,
            message: "boom".into(),
        };
        assert_eq!(classify(&[], &v), None);
    }

    #[test]
    fn signal_after_park_is_not_lost() {
        // A notify *after* the final park woke someone else; the
        // remaining waiter is a plain deadlock, not a lost wakeup.
        let events = [
            Event::CvWait {
                task: 0,
                cv: 2,
                lock: 0,
            },
            Event::Notify {
                task: 1,
                cv: 2,
                waiters: 1,
                all: false,
            },
            Event::CvWait {
                task: 3,
                cv: 2,
                lock: 0,
            },
        ];
        let v = Violation::Deadlock {
            blocked: vec![(3, BlockedOn::Condvar(2))],
        };
        // Task 3's park happened after the only notify... which fired
        // before it: that IS a lost wakeup for task 3.
        assert_eq!(
            classify(&events, &v),
            Some(DeadlockKind::LostWakeup { cv: 2, waiter: 3 })
        );
    }
}
