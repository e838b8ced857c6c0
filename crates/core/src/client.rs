//! The shared client-side query driver.
//!
//! All three DSI search algorithms (EEF point queries, window queries, kNN
//! queries) share one skeleton, which this module implements once:
//!
//! 1. tune in, doze to the next frame boundary, read its index table;
//! 2. fold the table's entries into the client's [`Knowledge`] (and hand
//!    them to the query as *virtual candidates* — "the object represented
//!    by HC′ᵢ", Algorithm 2);
//! 3. keep the *remainders* current: target HC intervals not yet accounted
//!    for;
//! 4. scan the current frame's object headers if its (conservatively
//!    estimated) span may overlap a remainder, retrieving qualifying
//!    objects;
//! 5. navigate: doze to the earliest-arriving frame whose conservative
//!    span ([`Knowledge::span_est`]) meets a remainder. A frame's true span
//!    lies inside its conservative one, so no frame that may hold a target
//!    is skipped. This is the paper's energy-efficient forwarding
//!    generalised to interval targets; every table read tightens the
//!    spans, so repeated hops converge like a base-`r` search. (The
//!    aggressive kNN strategy instead jumps to the frame, among its last
//!    table's entries, closest to the query point: [`NavPick::Slot`].)
//!
//! Navigation finds its candidate frames in one of two ways, chosen by the
//! program's channel count. On one channel, broadcast order is arrival
//! order, so a walk from the current slot stops at the first qualifying
//! successor. On several channels every qualifying frame is a candidate.
//! The first hop enumerates them from the client's own state — runs of
//! frames sharing one conservative span, merged with the sorted
//! remainders — and keeps them in a min-heap keyed by arrival. Candidates
//! only drop out and a stored arrival never exceeds the current one, so
//! later hops settle the earliest frames from the heap and derive only
//! their arrivals again. The sweep over all frames survives as the audit
//! oracle for the enumerated list, and the full plan over that list as
//! the oracle for every heap pick (see [`navigate`]).
//!
//! The remainder state is **incremental**: every learned bound and every
//! resolved header applies a localized delta inside [`QueryState`], so the
//! steady-state loop re-derives nothing and — together with the scratch
//! buffers in [`QueryScratch`] — performs no per-iteration allocations on
//! the no-loss path. An *audited* query (the `audit` flag of
//! [`run_query`], set only by the hidden `*_audited` entry points the
//! differential tests call) also re-derives the state from scratch after
//! every event and asserts that both derivations agree.
//!
//! What differs between queries — which intervals are targets, which
//! objects qualify, when the query is complete, which remainder to chase
//! first — is abstracted as [`QueryMode`]. Link errors never abort a query:
//! a lost table is skipped (the next frame has another one), a lost header
//! or payload is recorded in [`Retries`](crate::state::Retries) and
//! re-fetched a cycle later, while all previously gathered knowledge stays
//! valid (§5).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsi_broadcast::Tuner;
use dsi_datagen::Object;
use dsi_hilbert::HcRange;

use crate::build::{DsiAir, DsiPacket};
use crate::layout::DsiLayout;
use crate::state::{Knowledge, QueryState, ScanLog};
use crate::table::IndexTable;

/// Which destination the navigator should chase.
pub(crate) enum NavPick {
    /// The earliest-arriving frame that may overlap a live remainder
    /// (window queries and the conservative kNN strategy: "follow the
    /// first pointer Pᵢ with the range overlapping some segment of H").
    Earliest,
    /// Jump to a specific broadcast slot — the aggressive kNN strategy
    /// picks, among the last table's entry targets, the frame closest to
    /// the query point.
    Slot(u32),
}

/// How a [`QueryMode::refresh_targets`] call changed the target set; tells
/// the driver which remainder-update path is sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TargetsChange {
    /// Targets are identical to the previous call; the driver re-derives
    /// nothing.
    Unchanged,
    /// Targets were rebuilt arbitrarily; remainders must be re-derived by
    /// subtracting the cleared set from the new targets.
    Replaced,
    /// The new targets cover a **subset** of the previous targets' HC
    /// values (kNN: the search circle only ever shrinks). The driver may
    /// narrow the existing remainders in place — intersect them with the
    /// new targets — without consulting the cleared set at all.
    Narrowed,
}

/// Query-specific behaviour plugged into the shared driver.
pub(crate) trait QueryMode {
    /// Rebuilds the current target intervals (sorted, disjoint) into
    /// `out` **iff they changed** since the last call, returning how. The
    /// driver owns `out` and derives remainders from it incrementally, so
    /// modes must only signal genuine changes (kNN: the search circle
    /// shrank) and may claim [`TargetsChange::Narrowed`] only when the new
    /// targets are a subset of the old.
    fn refresh_targets(&mut self, know: &Knowledge, out: &mut Vec<HcRange>) -> TargetsChange;

    /// Real objects with these HC values exist (one index table's entries,
    /// or the schema's block boundaries, delivered as a batch so the mode
    /// pays any per-update bookkeeping once per table rather than once per
    /// entry).
    fn on_virtuals(&mut self, hcs: &[u64]) {
        let _ = hcs;
    }

    /// An object header was received; return `true` to retrieve the full
    /// record.
    fn on_header(&mut self, o: &Object) -> bool;

    /// The full record was received.
    fn on_retrieved(&mut self, o: &Object);

    /// Extra completion condition beyond "no remainders, no retries"
    /// (kNN: the k best candidates are all retrieved).
    fn complete(&mut self) -> bool {
        true
    }

    /// Which destination to chase next. `entry_targets` holds the
    /// (broadcast slot, min HC) pairs of the most recently read index
    /// table — the frames "reachable" from here in the paper's sense —
    /// filtered to those that can still contribute; the driver builds
    /// that list only when [`QueryMode::picks_entries`] says it is read.
    fn nav_pick(&mut self, rem: &[HcRange], entry_targets: &[(u32, u64)]) -> NavPick {
        let _ = (rem, entry_targets);
        NavPick::Earliest
    }

    /// Whether [`QueryMode::nav_pick`] reads its `entry_targets`.
    fn picks_entries(&self) -> bool {
        false
    }

    /// Refines, in place and at the radius the targets were published
    /// for, the target range holding HC value `hc` if that range is still
    /// *unrefined* — a coarse block that may hold cells outside the exact
    /// target set. Returns the replaced range and its exact pieces (a
    /// sorted subset of it), or `None` when the range is already exact.
    /// Modes whose published targets are always exact keep the default.
    fn refine_target(&mut self, hc: u64) -> Option<(HcRange, &[HcRange])> {
        let _ = hc;
        None
    }

    /// Audited queries only: the exact target set the published targets
    /// stand for, or `None` when the published targets are themselves
    /// exact.
    fn exact_targets(&self) -> Option<Vec<HcRange>> {
        None
    }
}

/// What the driver is about to do at its current position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Positioned at the frame start of `slot`: read its index table.
    Table(u32),
    /// Visit objects of `slot`: retries, plus (optionally) the unread
    /// fresh tail. `max_hi` is the early-exit threshold for fresh reads.
    Visit {
        slot: u32,
        include_fresh: bool,
        max_hi: u64,
    },
}

impl Pending {
    /// The broadcast slot of the frame this plan reads from.
    fn slot(self) -> u32 {
        match self {
            Pending::Table(slot) | Pending::Visit { slot, .. } => slot,
        }
    }
}

/// Reusable buffers owned by the driver so the steady-state loop performs
/// no per-iteration allocations.
#[derive(Default)]
struct QueryScratch {
    /// `(object index, is_retry)` visit plan of the current frame.
    visit: Vec<(u32, bool)>,
    /// Header flat positions of the visit plan, for the multi-antenna
    /// arrival-ordered visit.
    visit_flats: Vec<u64>,
    /// Targets of the most recently received index table, for the
    /// aggressive strategy's "reachable frame nearest the query point".
    entry_targets: Vec<(u32, u64)>,
    /// Entry targets that can still contribute, rebuilt per navigation.
    useful_entries: Vec<(u32, u64)>,
    /// HC values of the current table's entries, batched for
    /// [`QueryMode::on_virtuals`].
    virtuals: Vec<u64>,
    /// Flat positions of the current navigation candidates, retries
    /// first, handed to the tuner's read planner ([`Tuner::plan`]).
    nav_flats: Vec<u64>,
    /// What to do at each navigation candidate (parallel to `nav_flats`).
    nav_plans: Vec<Pending>,
    /// Arrival of each multi-channel navigation candidate (parallel to
    /// `nav_flats`; a full listing keeps only its frames' arrivals and
    /// leaves the retries' entries at 0).
    nav_at: Vec<u64>,
    /// One bit per broadcast slot: the multi-channel navigator marks its
    /// candidate frames here, then drains them in broadcast order. All
    /// bits are clear between navigations.
    nav_marks: Vec<u64>,
    /// The multi-channel navigator's candidate frames between hops, as
    /// `(stored arrival, slot)` in a min-heap; `None` until the first
    /// multi-channel hop lists them (see [`navigate`]).
    nav_heap: Option<BinaryHeap<Reverse<(u64, u32)>>>,
}

/// Runs a query to completion. The tuner carries the metrics. With
/// `audit`, every state update and remainder read is cross-checked
/// against the from-scratch oracle (panicking on divergence); the drive
/// itself is the same.
pub(crate) fn run_query<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    mode: &mut M,
    audit: bool,
) {
    let l = air.layout();
    let mut state = QueryState::new(l, air.curve().max_d(), audit);
    let mut scratch = QueryScratch::default();
    // The schema's block boundaries are minimum HC values of real objects.
    mode.on_virtuals(l.block_min_hc());

    let slot0 = if tuner.program().n_channels() == 1 {
        // Single channel: the next frame boundary is a binary search.
        let (abs, slot0) = l.next_frame_boundary(tuner.pos());
        tuner.doze_to(abs);
        slot0
    } else {
        // Channels progress in parallel: take the earliest-arriving index
        // table across all of them (tables are what a fresh client needs).
        scratch
            .nav_flats
            .extend((0..l.n_frames()).map(|slot| l.frame_start(slot)));
        let (slot0, _) = tuner
            .plan(&scratch.nav_flats, |_| 0)
            .expect("a cycle has at least one frame");
        tuner.goto(l.frame_start(slot0 as u32));
        slot0 as u32
    };
    let mut pending = Pending::Table(slot0);

    // Defensive bound: every iteration makes progress (reads a packet or
    // resolves a retry); the bound only trips on internal logic errors or
    // on channels so lossy that multi-packet objects are unreceivable.
    let mut fuel: u64 = 512 * (l.n_frames() as u64 + l.n_objects() as u64 + 64);
    loop {
        fuel -= 1;
        if fuel == 0 {
            // Livelock guard: a stuck retry set shows up here (and as a
            // run of consecutive losses in the tuner's own guard). Abort
            // with a diagnostic instead of returning a silently partial
            // answer.
            panic!(
                "DSI query did not terminate: fuel exhausted at instant {} \
                 ({} retries pending over {} slots, {} packets lost)",
                tuner.pos(),
                state.retries.total(),
                state.retries.iter_slots().count(),
                tuner.lost_reads(),
            );
        }
        let just_read_table = match pending {
            Pending::Table(slot) => {
                if let Some(tbl) = read_table(air, tuner, slot) {
                    scratch.entry_targets.clear();
                    scratch.virtuals.clear();
                    let nf = l.n_frames();
                    for e in &tbl.entries {
                        let target = (slot + e.delta) % nf;
                        scratch.entry_targets.push((target, e.hc));
                        state.learn(l.hc_index_of_slot(target), e.hc);
                        scratch.virtuals.push(e.hc);
                    }
                    mode.on_virtuals(&scratch.virtuals);
                }
                Some(slot)
            }
            Pending::Visit {
                slot,
                include_fresh,
                max_hi,
            } => {
                visit_frame(
                    air,
                    tuner,
                    slot,
                    include_fresh,
                    max_hi,
                    mode,
                    &mut state,
                    &mut scratch.visit,
                    &mut scratch.visit_flats,
                );
                None
            }
        };

        // Bring the remainder state up to date (incremental path: only
        // target changes trigger work; events already applied deltas).
        // Liveness needs no separate sweep: the kNN mode's targets are a
        // circle decomposition, so every published target — hence every
        // remainder derived from them — is within the radius the targets
        // were refreshed for.
        state.refresh_targets(|know, out| mode.refresh_targets(know, out));
        state.audit_rem();
        if rem_settled(mode, &mut state) && mode.complete() {
            break;
        }

        // After a table read we are at the frame body: scan in place if the
        // frame may hold something we need.
        if let Some(slot) = just_read_table {
            let t = l.hc_index_of_slot(slot);
            let (lb, ub) = state.know.span_est(t);
            let fresh = !fully_attempted(&state.log, t, l.objects_in_slot(slot))
                && rem_overlaps(mode, &mut state, lb, ub);
            let has_retry = !state.retries.for_slot(slot).is_empty();
            if fresh || has_retry {
                pending = Pending::Visit {
                    slot,
                    include_fresh: fresh,
                    max_hi: rem_max_hi(mode, &mut state),
                };
                continue;
            }
        }

        match navigate(air, tuner, mode, &mut state, &mut scratch) {
            Some(p) => pending = p,
            None => break,
        }
    }
}

/// Whether every object index of frame `t` has been read at least once
/// (possibly with lost headers, which live on as retries).
fn fully_attempted(log: &ScanLog, t: u32, n_obj: u32) -> bool {
    log.get(t).is_some_and(|s| s.read_upto >= n_obj)
}

fn max_hi_of(rem: &[HcRange]) -> u64 {
    // Sorted and disjoint: the last range has the largest end.
    rem.last().map_or(0, |r| r.hi)
}

/// Whether any remainder intersects the half-open span `[lb, ub)`.
/// Remainders are sorted and disjoint, so a binary search answers it.
fn overlaps_any(rem: &[HcRange], lb: u64, ub: u64) -> bool {
    let i = rem.partition_point(|r| r.hi < lb);
    i < rem.len() && rem[i].lo < ub
}

// The remainder reads every decision goes through. The mode's published
// targets may hold unrefined ranges (coarse blocks straddling the kNN
// circle), so the stored remainders can be a superset of the exact ones.
// Each read first refines, in place, just the unrefined targets holding
// the remainders it looks at, until its answer is decided by a remainder
// inside an exact target — so it returns exactly what it would on the
// exact decomposition, and costs one `refine_target` call more than the
// plain read when no unrefined range is left. An audited query checks
// every answer against the oracle remainders.

/// [`overlaps_any`] on the exact remainders.
fn rem_overlaps<M: QueryMode>(mode: &mut M, state: &mut QueryState<'_>, lb: u64, ub: u64) -> bool {
    let hit = loop {
        let rem = state.rem();
        let i = rem.partition_point(|r| r.hi < lb);
        if i == rem.len() || rem[i].lo >= ub {
            break false;
        }
        match mode.refine_target(rem[i].lo) {
            Some((old, pieces)) => state.refine_target(old, pieces),
            None => break true,
        }
    };
    if state.audits() {
        let exact = state.oracle_rem(mode.exact_targets().as_deref());
        assert_eq!(
            hit,
            overlaps_any(&exact, lb, ub),
            "remainder overlap of [{lb}, {ub}) differs from the exact decomposition"
        );
    }
    hit
}

/// [`max_hi_of`] on the exact remainders. Leaves the last remainder
/// inside an exact target, so `state.rem().is_empty()` is exact after it.
fn rem_max_hi<M: QueryMode>(mode: &mut M, state: &mut QueryState<'_>) -> u64 {
    while let Some(&last) = state.rem().last() {
        match mode.refine_target(last.lo) {
            Some((old, pieces)) => state.refine_target(old, pieces),
            None => break,
        }
    }
    if state.audits() {
        let exact = state.oracle_rem(mode.exact_targets().as_deref());
        assert_eq!(
            state.rem().last().map(|r| r.hi),
            exact.last().map(|r| r.hi),
            "remainder end differs from the exact decomposition"
        );
    }
    max_hi_of(state.rem())
}

/// [`QueryState::settled`] on the exact remainders.
fn rem_settled<M: QueryMode>(mode: &mut M, state: &mut QueryState<'_>) -> bool {
    state.retries.is_empty() && {
        rem_max_hi(mode, state);
        state.settled()
    }
}

/// Reads the (possibly multi-packet) index table at the current position.
/// All-or-nothing: a lost packet discards the table — the client simply
/// proceeds with its existing knowledge.
fn read_table<'a>(
    air: &'a DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    slot: u32,
) -> Option<&'a IndexTable> {
    debug_assert!(
        matches!(tuner.current_packet(), DsiPacket::Table { slot: s, part: 0 } if *s == slot),
        "tuner not at the table of slot {slot}"
    );
    for _ in 0..air.layout().framing().table_packets {
        if tuner.read().is_err() {
            return None;
        }
    }
    Some(air.table(slot))
}

/// Visits objects of a frame: pending retries first, then (optionally) the
/// unread fresh tail. The single-receiver client reads in ascending header
/// order (the pinned pre-refactor baseline); the multi-antenna client
/// reads headers as they air across its monitored channels — under
/// unit-granular striping a frame's consecutive units air *in parallel*,
/// so the serial order waits a channel cycle per unit while the arrival
/// order streams one channel's units back-to-back and collects the rest
/// on the next pass. Updates the scan log, knowledge (frame minimum from
/// header 0) and retry sets through the incremental state.
#[allow(clippy::too_many_arguments)]
fn visit_frame<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    slot: u32,
    include_fresh: bool,
    max_hi: u64,
    mode: &mut M,
    state: &mut QueryState<'_>,
    visit: &mut Vec<(u32, bool)>,
    visit_flats: &mut Vec<u64>,
) {
    let l = air.layout();
    let t = l.hc_index_of_slot(slot);
    let n_obj = l.objects_in_slot(slot);

    // Retry indices are sorted and all precede the fresh tail (a retry is
    // only ever recorded for an attempted index), so the concatenation is
    // already in ascending header order.
    visit.clear();
    visit.extend(state.retries.for_slot(slot).iter().map(|&i| (i, true)));
    if include_fresh {
        let read_upto = state.log.entry(t, n_obj).read_upto;
        visit.extend((read_upto..n_obj).map(|i| (i, false)));
    }
    debug_assert!(visit.windows(2).all(|w| w[0].0 < w[1].0));

    if tuner.antennas() > 1 {
        // Arrival-ordered visit. The ascending-HC early exit survives
        // out-of-order reads: once a fresh header's HC exceeds the
        // largest remainder end, every fresh header at a higher index is
        // also beyond it (objects ascend in HC within a frame), so those
        // are pruned from the plan.
        while !visit.is_empty() {
            visit_flats.clear();
            visit_flats.extend(visit.iter().map(|&(idx, _)| l.header_packet(slot, idx)));
            let (i, _) = tuner
                .plan(visit_flats, |_| 0)
                .expect("visit plan is non-empty");
            let (idx, is_retry) = visit.swap_remove(i);
            if visit_header(
                air, tuner, slot, idx, is_retry, max_hi, mode, state, t, n_obj,
            ) {
                visit.retain(|&(j, retry)| retry || j < idx);
            }
        }
    } else {
        let mut stop_fresh = false;
        for &(idx, is_retry) in visit.iter() {
            if !is_retry && stop_fresh {
                break;
            }
            if visit_header(
                air, tuner, slot, idx, is_retry, max_hi, mode, state, t, n_obj,
            ) {
                stop_fresh = true;
            }
        }
    }
}

/// Reads one (already targeted) object header and processes it; returns
/// whether it was a fresh read whose HC lies beyond `max_hi` (the
/// ascending-HC early-exit signal).
#[allow(clippy::too_many_arguments)]
fn visit_header<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    slot: u32,
    idx: u32,
    is_retry: bool,
    max_hi: u64,
    mode: &mut M,
    state: &mut QueryState<'_>,
    t: u32,
    n_obj: u32,
) -> bool {
    let l = air.layout();
    let payload_packets = l.framing().object_packets - 1;
    tuner.goto(l.header_packet(slot, idx));
    match tuner.read() {
        Ok(p) => {
            debug_assert!(
                matches!(p, DsiPacket::ObjHeader { slot: s, idx: i } if *s == slot && *i == idx)
            );
            let o = air.object(slot, idx);
            if !is_retry {
                state.note_attempted(t, n_obj, idx);
            }
            state.resolve_header(t, n_obj, idx, o.hc);
            state.retries.remove(slot, idx);
            if mode.on_header(o) {
                if read_payload(tuner, payload_packets) {
                    mode.on_retrieved(o);
                } else {
                    state.retries.insert(slot, idx, n_obj);
                }
            }
            !is_retry && o.hc > max_hi
        }
        Err(_) => {
            if !is_retry {
                state.note_attempted(t, n_obj, idx);
            }
            state.retries.insert(slot, idx, n_obj);
            false
        }
    }
}

/// Reads the remaining packets of an object's record. Aborts on the first
/// lost packet (the per-packet checksum tells the client immediately).
fn read_payload(tuner: &mut Tuner<'_, DsiPacket>, n: u32) -> bool {
    for _ in 0..n {
        if tuner.read().is_err() {
            return false;
        }
    }
    true
}

/// The cheapest way to reach frame `slot` from the tuner's position:
/// through its index table (fresh frames) or straight to its first unread
/// header (partially scanned frames, or frames whose table occurrence
/// already passed). Returns `(flat target, what to do there, its
/// arrival)`.
fn approach(
    air: &DsiAir,
    tuner: &Tuner<'_, DsiPacket>,
    log: &ScanLog,
    slot: u32,
    max_hi: u64,
) -> (u64, Pending, u64) {
    let l = air.layout();
    let t = l.hc_index_of_slot(slot);
    let read_upto = log.get(t).map_or(0, |s| s.read_upto);
    let table_flat = l.frame_start(slot);
    let visit_flat = l.header_packet(slot, read_upto.min(l.objects_in_slot(slot) - 1));
    let table_abs = tuner.arrival(table_flat);
    let visit_abs = tuner.arrival(visit_flat);
    if table_abs <= visit_abs && log.get(t).is_none() {
        (table_flat, Pending::Table(slot), table_abs)
    } else {
        (
            visit_flat,
            Pending::Visit {
                slot,
                include_fresh: true,
                max_hi,
            },
            visit_abs,
        )
    }
}

/// Chooses the next destination and dozes there.
///
/// Candidates are (a) the first pending retry header of every affected
/// slot — read directly off the per-slot sorted retry lists — and (b)
/// frames that may still hold remainder content: frames not yet fully
/// attempted whose conservative span overlaps a remainder. Aggressive
/// kNN jumps to the slot its strategy picked (the entry target nearest
/// the query point); window queries and conservative kNN find the frames
/// by channel count:
///
/// - **One channel:** arrivals follow broadcast order, so the walk from
///   the current slot stops at the first qualifying successor. It
///   usually stops within a few frames, where the enumeration below
///   would still walk every run that meets a remainder.
/// - **Several channels:** broadcast order no longer orders arrivals and
///   every qualifying frame is a candidate. [`list_frames`] enumerates
///   them from the client's own state, exactly the list a sweep over all
///   frames would build; an audited query checks it against that sweep
///   ([`sweep_candidates`]). The first such hop hands every candidate to
///   [`Tuner::plan`] and keeps the frames in a min-heap keyed by their
///   arrivals. Later hops settle the pick from the heap
///   ([`settle_stored`]) and list no frame again.
///
/// The heap gives [`Tuner::plan`]'s pick because of two facts.
///
/// - **The candidate set only shrinks.** Knowledge only adds bounds, so
///   spans only tighten; the exact remainders only shrink (window targets
///   are published once, kNN targets only narrow, a refinement replaces a
///   target by its exact pieces, and the cleared set only grows); scan
///   progress never goes back. So the frames listed at the first hop hold
///   every later candidate, and a frame dropped once never returns.
/// - **A stored key never exceeds the frame's current arrival.** The
///   clock only advances. A retune lowers arrivals on the channel it
///   starts monitoring by at most the switch cost, and the retune itself
///   spends that cost. An unscanned frame's arrival is the earlier of its
///   table's and its first header's, each bounded below in turn. A frame
///   visited since its key was stored was reached no earlier than that
///   key, and that instant has passed.
///
/// During a fade the planner backs reads off the fading channel, so the
/// stored keys do not give its pick: such a hop lists and plans every
/// candidate again, and rebuilds the heap from the exact arrivals. An
/// audited query runs that full plan after every stored-key pick as well,
/// and asserts both agree.
fn navigate<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    mode: &mut M,
    state: &mut QueryState<'_>,
    scratch: &mut QueryScratch,
) -> Option<Pending> {
    let l = air.layout();
    let max_hi = rem_max_hi(mode, state);
    list_retries(l, state, max_hi, scratch);

    // Entry targets the strategy may pick from: frames not yet fully
    // attempted whose conservative span can still overlap a remainder.
    // Without this filter the aggressive strategy would keep re-picking a
    // "nearest" frame that has nothing left to offer. Strategies that
    // never read the entries skip it.
    let QueryScratch {
        entry_targets,
        useful_entries,
        ..
    } = scratch;
    useful_entries.clear();
    if mode.picks_entries() {
        for &(slot, hc) in entry_targets.iter() {
            let t = l.hc_index_of_slot(slot);
            if fully_attempted(&state.log, t, l.objects_in_slot(slot)) {
                continue;
            }
            let (lb, ub) = state.know.span_est(t);
            if rem_overlaps(mode, state, lb, ub) {
                useful_entries.push((slot, hc));
            }
        }
    }

    // `rem_max_hi` left the last remainder exact: emptiness is exact.
    if !state.rem().is_empty() {
        match mode.nav_pick(state.rem(), &scratch.useful_entries) {
            NavPick::Slot(slot) => {
                let (flat, p, _) = approach(air, tuner, &state.log, slot, max_hi);
                scratch.nav_flats.push(flat);
                scratch.nav_plans.push(p);
            }
            NavPick::Earliest if tuner.program().n_channels() > 1 => {
                if scratch.nav_heap.is_some() && !tuner.fade_active() {
                    let pick = settle_stored(air, tuner, mode, state, scratch, max_hi);
                    if state.audits() {
                        assert_eq!(
                            pick,
                            plan_full(air, tuner, mode, state, scratch, max_hi),
                            "the stored-key pick differs from the full plan"
                        );
                    }
                    let (flat, p) = pick?;
                    tuner.goto(flat);
                    return Some(p);
                }
                let base = scratch.nav_flats.len();
                list_frames(air, tuner, mode, state, scratch, max_hi);
                let heap = scratch.nav_heap.get_or_insert_with(BinaryHeap::new);
                heap.clear();
                heap.extend(
                    (base..scratch.nav_flats.len())
                        .map(|j| Reverse((scratch.nav_at[j], scratch.nav_plans[j].slot()))),
                );
            }
            NavPick::Earliest => {
                // One channel: arrivals are monotone in broadcast distance
                // `d` for d ≥ 1 (those frames lie strictly ahead); only the
                // current slot (d = 0) can arrive later than its
                // successors, so keep walking past it but stop at the
                // first qualifying successor.
                let cur = l.slot_of_packet(tuner.flat_pos());
                let nf = l.n_frames();
                for d in 0..nf {
                    let slot = (cur + d) % nf;
                    let t = l.hc_index_of_slot(slot);
                    if fully_attempted(&state.log, t, l.objects_in_slot(slot)) {
                        continue;
                    }
                    let (lb, ub) = state.know.span_est(t);
                    if !rem_overlaps(mode, state, lb, ub) {
                        continue;
                    }
                    let (flat, p, _) = approach(air, tuner, &state.log, slot, max_hi);
                    scratch.nav_flats.push(flat);
                    scratch.nav_plans.push(p);
                    if d > 0 {
                        break;
                    }
                }
            }
        }
    }

    let pick = plan_listed(l, tuner, state, scratch)?;
    tuner.goto(scratch.nav_flats[pick]);
    Some(scratch.nav_plans[pick])
}

/// Lists the retry visits as navigation candidates, replacing the
/// previous list: the earliest pending index per slot is the head of its
/// maintained sorted list.
fn list_retries(l: &DsiLayout, state: &QueryState<'_>, max_hi: u64, scratch: &mut QueryScratch) {
    scratch.nav_flats.clear();
    scratch.nav_plans.clear();
    scratch.nav_at.clear();
    for (slot, idxs) in state.retries.iter_slots() {
        scratch.nav_flats.push(l.header_packet(slot, idxs[0]));
        scratch.nav_plans.push(Pending::Visit {
            slot,
            include_fresh: false,
            max_hi,
        });
    }
}

/// Appends every multi-channel candidate frame to the navigation
/// candidates, with its arrival. [`mark_candidates`] enumerates them from
/// the client's own state — the runs of frames between known bounds,
/// merged with the remainders — and they are emitted in broadcast order
/// from the current slot, exactly the list a sweep over all frames would
/// build. An audited query checks the list against that sweep.
fn list_frames<M: QueryMode>(
    air: &DsiAir,
    tuner: &Tuner<'_, DsiPacket>,
    mode: &mut M,
    state: &mut QueryState<'_>,
    scratch: &mut QueryScratch,
    max_hi: u64,
) {
    let l = air.layout();
    let QueryScratch {
        nav_flats,
        nav_plans,
        nav_at,
        nav_marks,
        ..
    } = scratch;
    let base = nav_flats.len();
    nav_at.resize(base, 0);
    let nf = l.n_frames();
    let cur = l.slot_of_packet(tuner.flat_pos());
    nav_marks.resize(nf.div_ceil(64) as usize, 0);
    mark_candidates(l, mode, state, nav_marks);
    let mut push = |slot| {
        let (flat, p, at) = approach(air, tuner, &state.log, slot, max_hi);
        nav_flats.push(flat);
        nav_plans.push(p);
        nav_at.push(at);
    };
    drain_marks(nav_marks, cur, nf, &mut push);
    drain_marks(nav_marks, 0, cur, &mut push);
    if state.audits() {
        let exact = state.oracle_rem(mode.exact_targets().as_deref());
        let got: Vec<_> = (base..nav_flats.len())
            .map(|j| (nav_flats[j], nav_plans[j], nav_at[j]))
            .collect();
        assert_eq!(
            got,
            sweep_candidates(air, tuner, state, &exact, max_hi),
            "multi-channel navigation candidates differ from the full sweep"
        );
    }
}

/// One plan over the listed candidates: the earliest-arriving read wins,
/// ties to the first candidate, matching the sweep order. The
/// multi-antenna client also costs how long each plan occupies the
/// receiver, so the planner can take the runner-up first when the
/// earliest airing would trample it; the one-antenna client plans with
/// zero durations.
fn plan_listed(
    l: &DsiLayout,
    tuner: &mut Tuner<'_, DsiPacket>,
    state: &QueryState<'_>,
    scratch: &QueryScratch,
) -> Option<usize> {
    let QueryScratch {
        nav_flats,
        nav_plans,
        ..
    } = scratch;
    let multi = tuner.antennas() > 1;
    let (pick, _) = tuner.plan(nav_flats, |j| {
        if multi {
            plan_duration(l, state, &nav_plans[j], nav_flats[j])
        } else {
            0
        }
    })?;
    Some(pick)
}

/// The audit oracle of a stored-key pick: lists every multi-channel
/// candidate again and plans over the whole list, as the first hop does.
fn plan_full<M: QueryMode>(
    air: &DsiAir,
    tuner: &mut Tuner<'_, DsiPacket>,
    mode: &mut M,
    state: &mut QueryState<'_>,
    scratch: &mut QueryScratch,
    max_hi: u64,
) -> Option<(u64, Pending)> {
    list_retries(air.layout(), state, max_hi, scratch);
    list_frames(air, tuner, mode, state, scratch, max_hi);
    let pick = plan_listed(air.layout(), tuner, state, scratch)?;
    Some((scratch.nav_flats[pick], scratch.nav_plans[pick]))
}

/// [`Tuner::plan`]'s loss-blind pick over the retries already listed and
/// the heap's frames, whose stored keys are lower bounds on their
/// arrivals (see [`navigate`]). Returns `(flat target, what to do
/// there)`.
///
/// The leader is settled by popping the heap while its least key is at
/// most the best arrival found so far. A popped frame that no longer
/// qualifies is dropped for good; one that does gets its exact arrival
/// and joins the listed candidates. Once the least key exceeds the best
/// arrival, no frame left in the heap can arrive as early. The runner-up
/// is settled the same way over the rest. Every frame popped and kept
/// returns to the heap under its exact arrival, and the two go to the
/// planner's conflict rule ([`Tuner::settle_conflict`]). A one-antenna
/// client plans with zero durations ([`plan_listed`]), under which that
/// rule never defers the leader, so it settles no runner-up.
fn settle_stored<M: QueryMode>(
    air: &DsiAir,
    tuner: &Tuner<'_, DsiPacket>,
    mode: &mut M,
    state: &mut QueryState<'_>,
    scratch: &mut QueryScratch,
    max_hi: u64,
) -> Option<(u64, Pending)> {
    let l = air.layout();
    let QueryScratch {
        nav_flats,
        nav_plans,
        nav_at,
        nav_heap,
        ..
    } = scratch;
    let heap = nav_heap.as_mut().expect("the first hop lists the frames");
    let n_retries = nav_flats.len();
    nav_at.clear();
    nav_at.extend(nav_flats.iter().map(|&flat| tuner.arrival(flat)));
    let cur = l.slot_of_packet(tuner.flat_pos());
    let nf = l.n_frames();
    // `Tuner::plan`'s order over the full list: arrival, then list
    // position — retries in `Retries::iter_slots` order, then frames in
    // broadcast order from the current slot.
    let rank = |j: usize, at: &[u64], plans: &[Pending]| {
        if j < n_retries {
            (at[j], false, j as u32)
        } else {
            (at[j], true, (plans[j].slot() + nf - cur) % nf)
        }
    };
    let mut settle = |skip: Option<usize>| {
        let mut best = (0..nav_flats.len())
            .filter(|&j| Some(j) != skip)
            .min_by_key(|&j| rank(j, nav_at, nav_plans));
        while let Some(&Reverse((key, slot))) = heap.peek() {
            if best.is_some_and(|b| key > nav_at[b]) {
                break;
            }
            heap.pop();
            let t = l.hc_index_of_slot(slot);
            if fully_attempted(&state.log, t, l.objects_in_slot(slot)) {
                continue;
            }
            let (lb, ub) = state.know.span_est(t);
            if !rem_overlaps(mode, state, lb, ub) {
                continue;
            }
            let (flat, p, at) = approach(air, tuner, &state.log, slot, max_hi);
            debug_assert!(at >= key, "a stored key exceeds its frame's arrival");
            nav_flats.push(flat);
            nav_plans.push(p);
            nav_at.push(at);
            let j = nav_flats.len() - 1;
            if best.is_none_or(|b| rank(j, nav_at, nav_plans) < rank(b, nav_at, nav_plans)) {
                best = Some(j);
            }
        }
        best
    };
    let leader = settle(None);
    let runner_up = match leader {
        Some(x) if tuner.antennas() > 1 => settle(Some(x)),
        _ => None,
    };
    for j in n_retries..nav_flats.len() {
        heap.push(Reverse((nav_at[j], nav_plans[j].slot())));
    }
    let x = leader?;
    let (pick, _) = tuner.settle_conflict(
        (x, nav_at[x]),
        runner_up.map(|y| (y, nav_at[y])),
        |j| nav_flats[j],
        |j| plan_duration(l, state, &nav_plans[j], nav_flats[j]),
    );
    Some((nav_flats[pick], nav_plans[pick]))
}

/// Whether HC-order frame `t` still has an object index never attempted.
fn is_open(l: &DsiLayout, log: &ScanLog, t: u32) -> bool {
    !fully_attempted(log, t, l.objects_in_slot(l.slot_of_hc_index(t)))
}

/// Marks in `marks` (one bit per broadcast slot) every frame that is not
/// fully attempted and whose conservative span overlaps an exact
/// remainder — the frames the multi-channel navigator must consider.
///
/// [`Knowledge::span_est`] is constant over each run of HC-order frames
/// between two consecutive known bounds, so the walk tests runs, not
/// frames, and skips every run no stored remainder meets (a jump to the
/// run holding the next remainder). The stored remainders are a superset
/// of the exact ones, so that prefilter never drops a candidate; a run
/// that passes it and still holds an open frame costs one exact,
/// refining [`rem_overlaps`] read. Every span the read receives is one a
/// per-frame sweep would also pass it, each exactly once, so the lazy
/// kNN narrowing refines the same target blocks as under that sweep.
/// Cost: O(runs met + remainders + candidate frames).
fn mark_candidates<M: QueryMode>(
    l: &DsiLayout,
    mode: &mut M,
    state: &mut QueryState<'_>,
    marks: &mut [u64],
) {
    let n_runs = state.know.n_runs();
    let mut k = 0;
    while k < n_runs {
        let (first, end, lb, ub) = state.know.run(k);
        let rem = state.rem();
        let Some(&next) = rem.get(rem.partition_point(|r| r.hi < lb)) else {
            break;
        };
        if next.lo >= ub {
            // `next.lo ≥ ub`, the next run's bound: the jump moves forward.
            k = state.know.run_of_hc(next.lo);
            continue;
        }
        k += 1;
        let Some(open) = (first..end).find(|&t| is_open(l, &state.log, t)) else {
            continue;
        };
        if !rem_overlaps(mode, state, lb, ub) {
            continue;
        }
        for t in open..end {
            if is_open(l, &state.log, t) {
                let slot = l.slot_of_hc_index(t);
                marks[slot as usize / 64] |= 1 << (slot % 64);
            }
        }
    }
}

/// Calls `f` on every marked slot in `from..to`, ascending, and clears
/// those marks.
fn drain_marks(marks: &mut [u64], from: u32, to: u32, f: &mut impl FnMut(u32)) {
    if from >= to {
        return;
    }
    let (w0, w1) = (from as usize / 64, (to - 1) as usize / 64);
    for (w, word) in marks.iter_mut().enumerate().take(w1 + 1).skip(w0) {
        let mut mask = !0u64;
        if w == w0 {
            mask &= !0u64 << (from % 64);
        }
        if w == w1 {
            mask &= !0u64 >> (63 - (to - 1) % 64);
        }
        let mut bits = *word & mask;
        *word &= !mask;
        while bits != 0 {
            f(w as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Audit oracle for the multi-channel candidate list: the full sweep of
/// every frame in broadcast order from the current slot, testing each
/// against the exact remainders `rem`. Returns `(flat, plan, arrival)`
/// per candidate, in the order the navigator must list them.
fn sweep_candidates(
    air: &DsiAir,
    tuner: &Tuner<'_, DsiPacket>,
    state: &QueryState<'_>,
    rem: &[HcRange],
    max_hi: u64,
) -> Vec<(u64, Pending, u64)> {
    let l = air.layout();
    let cur = l.slot_of_packet(tuner.flat_pos());
    let nf = l.n_frames();
    (0..nf)
        .map(|d| (cur + d) % nf)
        .filter(|&slot| {
            let t = l.hc_index_of_slot(slot);
            let (lb, ub) = state.know.span_est(t);
            !fully_attempted(&state.log, t, l.objects_in_slot(slot)) && overlaps_any(rem, lb, ub)
        })
        .map(|slot| approach(air, tuner, &state.log, slot, max_hi))
        .collect()
}

/// Estimate, in packets, of how long executing plan `p` occupies the
/// receiver once its first packet (at flat position `flat`) airs, from
/// schema knowledge plus the client's own scan state. Flat-position
/// spans, so under unit-granular striping (where a frame's units air
/// interleaved across channels) this can undershoot wall-clock
/// occupancy — the top-2 conflict costing it feeds is a heuristic, not
/// a bound.
fn plan_duration(l: &DsiLayout, state: &QueryState<'_>, p: &Pending, flat: u64) -> u64 {
    let f = l.framing();
    match *p {
        Pending::Table(_) => f.table_packets as u64,
        Pending::Visit {
            slot,
            include_fresh,
            ..
        } => {
            if include_fresh {
                // May scan to the end of the frame.
                let frame_len = f.table_packets as u64
                    + l.objects_in_slot(slot) as u64 * f.object_packets as u64;
                (l.frame_start(slot) + frame_len).saturating_sub(flat)
            } else {
                // Retry-only visit: first to last pending header.
                let idxs = state.retries.for_slot(slot);
                match idxs.last() {
                    Some(&last) => l.header_packet(slot, last) + f.object_packets as u64 - flat,
                    None => f.object_packets as u64,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_marks_visits_broadcast_order_from_the_current_slot() {
        // 150 slots over three words; marks on both sides of every word
        // boundary and of the starting slot.
        let nf = 150;
        let marked = [0u32, 1, 63, 64, 69, 70, 71, 127, 128, 149];
        let mut marks = vec![0u64; (nf as usize).div_ceil(64)];
        for &s in &marked {
            marks[s as usize / 64] |= 1 << (s % 64);
        }
        let cur = 70;
        let mut got = Vec::new();
        drain_marks(&mut marks, cur, nf, &mut |s| got.push(s));
        drain_marks(&mut marks, 0, cur, &mut |s| got.push(s));
        let want: Vec<u32> = (0..nf)
            .map(|d| (cur + d) % nf)
            .filter(|s| marked.contains(s))
            .collect();
        assert_eq!(got, want);
        assert!(marks.iter().all(|&w| w == 0), "draining clears every mark");
        // An empty range touches nothing.
        marks[0] = 1;
        drain_marks(&mut marks, 5, 5, &mut |_| panic!("empty range"));
        assert_eq!(marks[0], 1);
    }
}
