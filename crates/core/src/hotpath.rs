//! Event counters for the client query hot loop.
//!
//! The query driver maintains its cleared-region / remainder state
//! *incrementally* (deltas applied on each `learn` / frame-visit event).
//! The counters tell the two kinds of state work apart: an applied delta,
//! and a from-scratch derivation of the cleared regions — which only the
//! audit oracle performs, so a public query leaves that count at zero.
//!
//! The counters are thread-local, so concurrent tests and simulations do
//! not interfere.

use std::cell::Cell;

thread_local! {
    static ORACLE_DERIVATIONS: Cell<u64> = const { Cell::new(0) };
    static INCREMENTAL_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Zeroes this thread's event counters.
pub fn reset_counters() {
    ORACLE_DERIVATIONS.with(|c| c.set(0));
    INCREMENTAL_EVENTS.with(|c| c.set(0));
}

/// `(oracle_derivations, incremental_events)` accrued on this thread
/// since the last [`reset_counters`]. An oracle derivation is one
/// from-scratch cleared-region derivation, run only by audited queries;
/// an incremental event is one applied delta (frame contribution grown,
/// or remainder subtraction).
pub fn counters() -> (u64, u64) {
    (
        ORACLE_DERIVATIONS.with(|c| c.get()),
        INCREMENTAL_EVENTS.with(|c| c.get()),
    )
}

pub(crate) fn count_oracle_derivation() {
    ORACLE_DERIVATIONS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn count_incremental_event() {
    INCREMENTAL_EVENTS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset_counters();
        count_oracle_derivation();
        count_incremental_event();
        count_incremental_event();
        assert_eq!(counters(), (1, 2));
        reset_counters();
        assert_eq!(counters(), (0, 0));
    }
}
