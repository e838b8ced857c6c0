//! Client-side query state: what a mobile client has learned so far.
//!
//! DSI's resilience rests on clients being able to *accumulate* partial
//! knowledge of the object distribution ("continue to use the knowledge of
//! data distribution obtained previously", §5). This module holds that
//! state:
//!
//! * [`Knowledge`] — the map from HC-order frame index to its (exact)
//!   minimum HC value, learned from index-table entries and from the first
//!   object header of scanned frames, seeded with the schema's block
//!   boundaries. It answers conservative span queries: "which HC values
//!   *could* frame `t` hold, given what I know?"
//! * [`ScanLog`] — which object headers of which frames the client has
//!   resolved, including partial frames interrupted by link errors or
//!   early exits.
//! * [`QueryState`] — the driver-facing aggregate: knowledge, scan log,
//!   retries, the *cleared* HC intervals the client has fully accounted
//!   for, and the *remainders* (targets − cleared) the query still
//!   chases. Cleared regions and remainders are maintained
//!   **incrementally**: every `learn` / header event applies a localized
//!   delta instead of re-deriving the whole state, which is what keeps
//!   the query loop allocation-free in steady state. The from-scratch
//!   derivation survives as [`cleared_regions`], the oracle an audited
//!   query checks every delta against.
//! * [`Retries`] — object slots whose header or payload was lost and must
//!   be re-fetched in a later cycle, kept sorted per broadcast slot so
//!   both visits and navigation read them without re-sorting.

use dsi_hilbert::{merge_ranges, HcRange};

use crate::client::TargetsChange;
use crate::hotpath;
use crate::layout::DsiLayout;

/// Accumulated frame-boundary knowledge (exact minimum HC per frame).
///
/// A dense bound per HC-order frame plus a bitset of the frames whose
/// bound is known, so learning and testing a bound are one array access
/// each. A conservative span ([`Self::span_est`]) is two bit-scans: back
/// to the nearest known frame at or before the frame, and forward to the
/// next known one after it. Minimum HC values increase strictly with
/// frame index, so the known frames in frame order are also in bound
/// order; the *runs* between consecutive known frames
/// ([`Self::run`], [`Self::run_of_hc`]) come from the same bitset. One
/// representation serves every channel count.
#[derive(Debug, Clone)]
pub(crate) struct Knowledge {
    /// Exact minimum HC of each HC-order frame; meaningful only where the
    /// frame's bit in `known` is set.
    bound: Vec<u64>,
    /// One bit per HC-order frame: whether its bound is known. Bits past
    /// the last frame stay clear.
    known: Vec<u64>,
    n_frames: u32,
    /// One past the largest representable HC value.
    max_hc_excl: u64,
}

impl Knowledge {
    /// Seeds knowledge with the broadcast schema: block start boundaries.
    pub fn new(layout: &DsiLayout, max_hc: u64) -> Self {
        let n_frames = layout.n_frames();
        let mut k = Self {
            bound: vec![0; n_frames as usize],
            known: vec![0; n_frames.div_ceil(64) as usize],
            n_frames,
            max_hc_excl: max_hc + 1,
        };
        for c in 0..layout.n_blocks() {
            k.learn(
                layout.block_start_frame(c),
                layout.block_min_hc()[c as usize],
            );
        }
        k
    }

    /// Records that HC-order frame `idx` starts at HC value `hc`. Returns
    /// whether this was new knowledge.
    pub fn learn(&mut self, idx: u32, hc: u64) -> bool {
        debug_assert!(idx < self.n_frames);
        let (w, bit) = (idx as usize / 64, 1u64 << (idx % 64));
        if self.known[w] & bit != 0 {
            debug_assert_eq!(
                self.bound[idx as usize], hc,
                "inconsistent bound learned for frame {idx}"
            );
            return false;
        }
        debug_assert!(self
            .prev_known(idx)
            .is_none_or(|p| self.bound[p as usize] < hc));
        debug_assert!(self
            .next_known(idx)
            .is_none_or(|n| hc < self.bound[n as usize]));
        self.known[w] |= bit;
        self.bound[idx as usize] = hc;
        true
    }

    /// Exact minimum HC of frame `idx`, if known.
    pub fn known(&self, idx: u32) -> Option<u64> {
        (self.known[idx as usize / 64] & (1 << (idx % 64)) != 0).then(|| self.bound[idx as usize])
    }

    /// The last known frame at or before `t`.
    fn prev_known(&self, t: u32) -> Option<u32> {
        let mut w = t as usize / 64;
        let mut bits = self.known[w] & (!0u64 >> (63 - t % 64));
        loop {
            if bits != 0 {
                return Some(w as u32 * 64 + 63 - bits.leading_zeros());
            }
            w = w.checked_sub(1)?;
            bits = self.known[w];
        }
    }

    /// The first known frame after `t`.
    fn next_known(&self, t: u32) -> Option<u32> {
        let t = t + 1;
        let mut w = t as usize / 64;
        let mut bits = *self.known.get(w)? & (!0u64 << (t % 64));
        loop {
            if bits != 0 {
                return Some(w as u32 * 64 + bits.trailing_zeros());
            }
            w += 1;
            bits = *self.known.get(w)?;
        }
    }

    /// Conservative span `[lb, ub)` of frame `idx`: the true span is always
    /// contained in it. `lb` is the bound of the last known frame at or
    /// before `idx` (frames hold ascending HC runs, so the true start is
    /// ≥ `lb`); `ub` is the bound of the first known frame after `idx`.
    pub fn span_est(&self, idx: u32) -> (u64, u64) {
        let lb = self.prev_known(idx).map_or(0, |p| self.bound[p as usize]);
        let ub = self
            .next_known(idx)
            .map_or(self.max_hc_excl, |n| self.bound[n as usize]);
        (lb, ub)
    }

    /// The *run* holding frame `t`, as `(first, end, lb, ub)`: the maximal
    /// stretch `first..end` of HC-order frames between two consecutive
    /// known bounds, over which [`Self::span_est`] is `[lb, ub)` for every
    /// frame.
    pub fn run(&self, t: u32) -> (u32, u32, u64, u64) {
        // The schema knows frame 0 (block 0 starts there), so the runs
        // cover every frame.
        let first = self.prev_known(t).expect("the schema knows frame 0");
        let (end, ub) = self
            .next_known(t)
            .map_or((self.n_frames, self.max_hc_excl), |n| {
                (n, self.bound[n as usize])
            });
        (first, end, self.bound[first as usize], ub)
    }

    /// The first frame of the run whose span holds HC value `hc` (frame
    /// 0's run when `hc` lies below frame 0's bound): a binary search over
    /// the frames, whose span starts rise with the frame index.
    pub fn run_of_hc(&self, hc: u64) -> u32 {
        let (mut lo, mut hi) = (0u32, self.n_frames);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self
                .prev_known(mid)
                .is_none_or(|p| self.bound[p as usize] <= hc)
            {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.prev_known(lo.saturating_sub(1))
            .expect("the schema knows frame 0")
    }

    /// One past the largest representable HC value.
    pub fn max_hc_excl(&self) -> u64 {
        self.max_hc_excl
    }
}

/// Per-frame record of which object headers have been resolved.
#[derive(Debug, Clone)]
pub(crate) struct FrameScan {
    /// Resolved HC value per object index (`None` = header lost or not yet
    /// read).
    pub hcs: Vec<Option<u64>>,
    /// First object index never attempted in a sequential pass (early-exit
    /// resume point).
    pub read_upto: u32,
    /// Number of leading `Some` entries of `hcs` (maintained by
    /// [`FrameScan::resolve`]). Headers are only resolved after their slot
    /// was attempted, so this never exceeds `read_upto`.
    prefix_len: u32,
    /// Cleared contribution of this frame as last applied to the query's
    /// [`ClearedSet`]. Contributions only ever grow.
    contrib: Option<HcRange>,
}

impl FrameScan {
    fn new(n_obj: u32) -> Self {
        Self {
            hcs: vec![None; n_obj as usize],
            read_upto: 0,
            prefix_len: 0,
            contrib: None,
        }
    }

    /// Records the resolved HC of object `idx`, advancing the resolved
    /// prefix over any holes this fills.
    pub fn resolve(&mut self, idx: u32, hc: u64) {
        self.hcs[idx as usize] = Some(hc);
        let n = self.hcs.len() as u32;
        while self.prefix_len < n && self.hcs[self.prefix_len as usize].is_some() {
            self.prefix_len += 1;
        }
    }

    /// The cleared interval this frame's scan currently vouches for: the
    /// resolved header prefix `[h₀, h_{p−1}]`, extended through the empty
    /// gap to the next frame's bound when the whole frame is resolved.
    fn contribution(&self, t: u32, know: &Knowledge, layout: &DsiLayout) -> Option<HcRange> {
        let p = self.prefix_len as usize;
        if p == 0 {
            return None;
        }
        let first = self.hcs[0].expect("non-empty resolved prefix");
        let last = self.hcs[p - 1].expect("entry inside resolved prefix");
        let hi = if p == self.hcs.len() {
            if t + 1 == layout.n_frames() {
                know.max_hc_excl() - 1
            } else {
                match know.known(t + 1) {
                    Some(b) => b - 1,
                    None => last,
                }
            }
        } else {
            last
        };
        Some(HcRange::new(first, hi.max(first)))
    }
}

/// All frames the client has (partially) scanned: a dense per-frame
/// index (HC order) into the scan records, kept in first-scan order. A
/// lookup is one array read, which matters because the navigator and the
/// visit loop look frames up on every step.
#[derive(Debug, Clone)]
pub(crate) struct ScanLog {
    /// Position in `scans` per HC-order frame index, or [`UNSCANNED`].
    index: Vec<u32>,
    /// `(HC-order frame index, scan)`, in the order frames were first
    /// scanned.
    scans: Vec<(u32, FrameScan)>,
}

/// [`ScanLog::index`] marker of a frame never scanned.
const UNSCANNED: u32 = u32::MAX;

impl ScanLog {
    pub fn new(n_frames: u32) -> Self {
        Self {
            index: vec![UNSCANNED; n_frames as usize],
            scans: Vec::new(),
        }
    }

    /// The scan record for frame `idx`, created on first use.
    pub fn entry(&mut self, idx: u32, n_obj: u32) -> &mut FrameScan {
        let pos = &mut self.index[idx as usize];
        if *pos == UNSCANNED {
            *pos = self.scans.len() as u32;
            self.scans.push((idx, FrameScan::new(n_obj)));
        }
        &mut self.scans[*pos as usize].1
    }

    /// Read-only access.
    pub fn get(&self, idx: u32) -> Option<&FrameScan> {
        match self.index[idx as usize] {
            UNSCANNED => None,
            pos => Some(&self.scans[pos as usize].1),
        }
    }

    fn get_mut(&mut self, idx: u32) -> Option<&mut FrameScan> {
        match self.index[idx as usize] {
            UNSCANNED => None,
            pos => Some(&mut self.scans[pos as usize].1),
        }
    }

    /// Iterates over scanned frames, in first-scan order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &FrameScan)> {
        self.scans.iter().map(|(idx, scan)| (*idx, scan))
    }
}

/// Lost-packet bookkeeping: object slots to re-fetch in a later cycle.
///
/// Stored per broadcast slot with the pending object indices sorted, so a
/// frame visit iterates its retries directly (no collect/sort/dedup) and
/// the navigator reads each slot's earliest retry as `idxs[0]` (no
/// per-call scratch map). Header and payload retries share one set: a
/// payload retry re-reads the header anyway to re-qualify the object, so
/// the distinction never changes the visit path.
#[derive(Debug, Clone, Default)]
pub(crate) struct Retries {
    /// Per-slot pending indices, sorted by slot id; `idxs` sorted, unique,
    /// never empty.
    slots: Vec<RetrySlot>,
    total: usize,
}

#[derive(Debug, Clone)]
struct RetrySlot {
    slot: u32,
    idxs: Vec<u32>,
}

impl Retries {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total pending re-fetches over all slots.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Marks object `idx` of broadcast slot `slot` as needing a re-fetch.
    ///
    /// `n_obj` is the slot's live object count — the growth cap: a slot's
    /// retry set holds at most one entry per object the slot carries, so
    /// under sustained loss the set is bounded by the live remainders
    /// instead of growing silently.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if `idx` is not a live object index of the
    /// slot (`idx >= n_obj`) — that retry could never be satisfied and
    /// would leak forever.
    pub fn insert(&mut self, slot: u32, idx: u32, n_obj: u32) {
        assert!(
            idx < n_obj,
            "retry cap: object index {idx} is outside slot {slot}'s {n_obj} \
             live objects ({} retries pending) — an unsatisfiable retry \
             would leak forever",
            self.total
        );
        match self.slots.binary_search_by_key(&slot, |s| s.slot) {
            Ok(si) => {
                let idxs = &mut self.slots[si].idxs;
                if let Err(pos) = idxs.binary_search(&idx) {
                    idxs.insert(pos, idx);
                    self.total += 1;
                }
                debug_assert!(
                    idxs.len() <= n_obj as usize,
                    "slot {slot} retry set exceeded its {n_obj} live objects"
                );
            }
            Err(si) => {
                self.slots.insert(
                    si,
                    RetrySlot {
                        slot,
                        idxs: vec![idx],
                    },
                );
                self.total += 1;
            }
        }
    }

    /// Clears the pending re-fetch of object `idx` in `slot`, if any.
    pub fn remove(&mut self, slot: u32, idx: u32) {
        if let Ok(si) = self.slots.binary_search_by_key(&slot, |s| s.slot) {
            let idxs = &mut self.slots[si].idxs;
            if let Ok(pos) = idxs.binary_search(&idx) {
                idxs.remove(pos);
                self.total -= 1;
                if idxs.is_empty() {
                    self.slots.remove(si);
                }
            }
        }
    }

    /// Pending object indices of `slot`, ascending (empty slice if none).
    pub fn for_slot(&self, slot: u32) -> &[u32] {
        match self.slots.binary_search_by_key(&slot, |s| s.slot) {
            Ok(si) => &self.slots[si].idxs,
            Err(_) => &[],
        }
    }

    /// All slots with pending retries as `(slot, sorted indices)`,
    /// ascending by slot. Each slot's earliest retry is `idxs[0]`.
    pub fn iter_slots(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.slots.iter().map(|s| (s.slot, s.idxs.as_slice()))
    }
}

/// The cleared HC intervals, kept sorted, disjoint and non-adjacent — the
/// same canonical form [`merge_ranges`] produces, so the incremental set
/// compares bit-for-bit against the from-scratch oracle.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClearedSet {
    ranges: Vec<HcRange>,
}

impl ClearedSet {
    pub fn as_slice(&self) -> &[HcRange] {
        &self.ranges
    }

    /// Inserts `r`, coalescing overlapping and adjacent ranges. Returns
    /// whether the set's coverage grew.
    pub fn insert(&mut self, r: HcRange) -> bool {
        // First existing range that overlaps or is adjacent to `r`.
        let start = self
            .ranges
            .partition_point(|c| c.hi.saturating_add(1) < r.lo);
        let mut end = start;
        while end < self.ranges.len() && self.ranges[end].lo <= r.hi.saturating_add(1) {
            end += 1;
        }
        if start == end {
            self.ranges.insert(start, r);
            return true;
        }
        if end - start == 1 {
            let c = self.ranges[start];
            if c.lo <= r.lo && r.hi <= c.hi {
                return false;
            }
        }
        // `r` extends the first touched range and/or bridges to the later
        // ones; ranges strictly between were separated by gaps `r` covers.
        let merged = HcRange::new(
            self.ranges[start].lo.min(r.lo),
            self.ranges[end - 1].hi.max(r.hi),
        );
        self.ranges[start] = merged;
        self.ranges.drain(start + 1..end);
        true
    }
}

/// Derives the HC intervals the client has fully accounted for, from
/// scratch. This is the audit **oracle**; queries maintain the same set
/// incrementally in [`QueryState`]. Each call counts as one oracle
/// derivation in [`hotpath::counters`].
///
/// For every scanned frame the resolved *prefix* of object headers
/// `h₀ … h_{j−1}` clears `[h₀, h_{j−1}]` (those objects were examined, and
/// frames hold contiguous HC runs). If the prefix covers the whole frame,
/// the cleared interval extends to the next frame's known bound − 1 (or to
/// the end of HC space for the last frame) because the gap provably
/// contains no objects. The region below the global minimum is cleared by
/// the schema.
pub(crate) fn cleared_regions(log: &ScanLog, know: &Knowledge, layout: &DsiLayout) -> Vec<HcRange> {
    hotpath::count_oracle_derivation();
    let mut out = Vec::with_capacity(log.scans.len() + 1);
    if layout.global_min_hc() > 0 {
        out.push(HcRange::new(0, layout.global_min_hc() - 1));
    }
    for (idx, scan) in log.iter() {
        // Resolved prefix of the attempted part.
        let mut last = None;
        let mut first = None;
        let upto = scan.read_upto as usize;
        let mut complete_prefix = true;
        for h in &scan.hcs[..upto] {
            match h {
                Some(hc) => {
                    if first.is_none() {
                        first = Some(*hc);
                    }
                    last = Some(*hc);
                }
                None => {
                    complete_prefix = false;
                    break;
                }
            }
        }
        let (Some(first), Some(last)) = (first, last) else {
            continue;
        };
        let hi = if complete_prefix && upto == scan.hcs.len() {
            // Whole frame examined: extend through the empty gap up to the
            // next frame's bound, when known.
            if idx + 1 == layout.n_frames() {
                know.max_hc_excl() - 1
            } else {
                match know.known(idx + 1) {
                    Some(b) => b - 1,
                    None => last,
                }
            }
        } else {
            last
        };
        out.push(HcRange::new(first, hi.max(first)));
    }
    merge_ranges(&mut out);
    out
}

/// `targets − cleared` into a caller-provided buffer (cleared first). Both
/// input lists must be sorted and disjoint; the result is too.
pub(crate) fn subtract_ranges_into(
    targets: &[HcRange],
    cleared: &[HcRange],
    out: &mut Vec<HcRange>,
) {
    out.clear();
    let mut ci = 0usize;
    for &t in targets {
        let mut lo = t.lo;
        // Skip cleared intervals entirely below.
        while ci < cleared.len() && cleared[ci].hi < lo {
            ci += 1;
        }
        let mut cj = ci;
        while lo <= t.hi {
            if cj >= cleared.len() || cleared[cj].lo > t.hi {
                out.push(HcRange::new(lo, t.hi));
                break;
            }
            let c = cleared[cj];
            if c.lo > lo {
                out.push(HcRange::new(lo, c.lo - 1));
            }
            if c.hi >= t.hi {
                break;
            }
            lo = c.hi + 1;
            cj += 1;
        }
    }
}

/// `targets − cleared` as a fresh Vec (oracle-side convenience).
pub(crate) fn subtract_ranges(targets: &[HcRange], cleared: &[HcRange]) -> Vec<HcRange> {
    let mut out = Vec::new();
    subtract_ranges_into(targets, cleared, &mut out);
    out
}

/// `a ∩ b` into a caller-provided buffer (cleared first). Both inputs must
/// be sorted and disjoint; the result is too, split wherever `b` is and
/// wherever `a` leaves a gap. This is the remainder-narrowing kernel: when
/// a mode reports its new targets are a subset of the old
/// ([`TargetsChange::Narrowed`]), or refines one target in place, the new
/// remainders are exactly `old remainders ∩ new targets` — no cleared-set
/// subtraction needed.
///
/// Remainders split exactly where the oracle's per-target subtraction
/// splits them: at target boundaries and around cleared ranges. Two
/// adjacent pieces of `a` meet at an old target boundary (a cleared range
/// would have left a gap), which a coarse narrowing can drop by publishing
/// one target over both; so adjacent pieces cut from one range of `b` are
/// joined.
pub(crate) fn intersect_ranges_into(a: &[HcRange], b: &[HcRange], out: &mut Vec<HcRange>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    // The range of `b` the last piece was cut from.
    let mut last_j = usize::MAX;
    while i < a.len() && j < b.len() {
        let lo = a[i].lo.max(b[j].lo);
        let hi = a[i].hi.min(b[j].hi);
        if lo <= hi {
            match out.last_mut() {
                Some(prev) if last_j == j && prev.hi + 1 == lo => prev.hi = hi,
                _ => out.push(HcRange::new(lo, hi)),
            }
            last_j = j;
        }
        if a[i].hi < b[j].hi {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Removes the single cleared interval `c` from the sorted disjoint
/// remainder list, in place. At most one range is split in two; all other
/// affected ranges shrink or vanish, so no allocation happens unless the
/// list must grow past its capacity (amortized across the query).
pub(crate) fn subtract_range_in_place(rem: &mut Vec<HcRange>, c: HcRange) {
    let start = rem.partition_point(|t| t.hi < c.lo);
    let mut end = start;
    while end < rem.len() && rem[end].lo <= c.hi {
        end += 1;
    }
    if start == end {
        return;
    }
    let left = (rem[start].lo < c.lo).then(|| HcRange::new(rem[start].lo, c.lo - 1));
    let last = rem[end - 1];
    let right = (last.hi > c.hi).then(|| HcRange::new(c.hi + 1, last.hi));
    match (left, right) {
        (Some(l), Some(r)) => {
            rem[start] = l;
            if end - start >= 2 {
                rem[start + 1] = r;
                rem.drain(start + 2..end);
            } else {
                rem.insert(start + 1, r);
            }
        }
        (Some(l), None) => {
            rem[start] = l;
            rem.drain(start + 1..end);
        }
        (None, Some(r)) => {
            rem[start] = r;
            rem.drain(start + 1..end);
        }
        (None, None) => {
            rem.drain(start..end);
        }
    }
}

/// The query driver's aggregate state, with incremental cleared/remainder
/// maintenance.
///
/// Invariant (checked against the oracle when the state audits): after
/// every applied event, `cleared` equals [`cleared_regions`] of the
/// current scan log and knowledge, and `rem` equals
/// `targets − cleared` minus ranges the mode declared dead.
pub(crate) struct QueryState<'l> {
    layout: &'l DsiLayout,
    pub know: Knowledge,
    pub log: ScanLog,
    pub retries: Retries,
    cleared: ClearedSet,
    /// Current target intervals (sorted, disjoint), owned here so modes
    /// rebuild in place without allocating per iteration.
    targets: Vec<HcRange>,
    /// `targets − cleared`; maintained incrementally.
    rem: Vec<HcRange>,
    /// Swap buffer for in-place remainder narrowing.
    rem_scratch: Vec<HcRange>,
    /// Cross-check every delta and remainder read against the oracle.
    audit: bool,
}

impl<'l> QueryState<'l> {
    pub fn new(layout: &'l DsiLayout, max_hc: u64, audit: bool) -> Self {
        let know = Knowledge::new(layout, max_hc);
        let mut cleared = ClearedSet::default();
        if layout.global_min_hc() > 0 {
            cleared.insert(HcRange::new(0, layout.global_min_hc() - 1));
        }
        Self {
            layout,
            know,
            log: ScanLog::new(layout.n_frames()),
            retries: Retries::new(),
            cleared,
            targets: Vec::new(),
            rem: Vec::new(),
            rem_scratch: Vec::new(),
            audit,
        }
    }

    /// The intervals the query has not accounted for yet.
    pub fn rem(&self) -> &[HcRange] {
        &self.rem
    }

    /// Records a learned frame bound and propagates the delta: a new bound
    /// for frame `idx` can extend the cleared contribution of the fully
    /// scanned frame `idx − 1`.
    pub fn learn(&mut self, idx: u32, hc: u64) {
        if self.know.learn(idx, hc) && idx > 0 {
            self.refresh_frame(idx - 1);
        }
    }

    /// Marks object `idx` of frame `t` as attempted (fresh sequential
    /// read), moving the resume point past it.
    pub fn note_attempted(&mut self, t: u32, n_obj: u32, idx: u32) {
        let scan = self.log.entry(t, n_obj);
        scan.read_upto = scan.read_upto.max(idx + 1);
    }

    /// Records a resolved object header: updates the scan, re-applies the
    /// frame's cleared contribution, and (for the first object) learns the
    /// frame's minimum. Call [`Self::note_attempted`] first for fresh
    /// reads so the oracle's `read_upto` window always covers the
    /// resolved prefix.
    pub fn resolve_header(&mut self, t: u32, n_obj: u32, idx: u32, hc: u64) {
        self.log.entry(t, n_obj).resolve(idx, hc);
        self.refresh_frame(t);
        if idx == 0 {
            self.learn(t, hc);
        }
    }

    /// Re-derives frame `t`'s cleared contribution and applies the growth
    /// delta to the cleared set and the remainders.
    fn refresh_frame(&mut self, t: u32) {
        let Some(scan) = self.log.get(t) else { return };
        let Some(new) = scan.contribution(t, &self.know, self.layout) else {
            return;
        };
        if scan.contrib == Some(new) {
            return;
        }
        debug_assert!(
            scan.contrib
                .is_none_or(|old| old.lo == new.lo && old.hi <= new.hi),
            "frame contribution must only grow: {:?} -> {new:?}",
            scan.contrib
        );
        self.log.get_mut(t).expect("scan entry exists").contrib = Some(new);
        hotpath::count_incremental_event();
        self.cleared.insert(new);
        subtract_range_in_place(&mut self.rem, new);
        if self.audit {
            self.audit_cleared();
        }
    }

    /// Gives the mode a chance to rebuild its target set (in place, into
    /// the state-owned buffer); rebuilds the remainders when it did. A
    /// [`TargetsChange::Narrowed`] report takes the fast path: the new
    /// remainders are the old ones intersected with the new targets
    /// (dead ranges previously dropped by liveness lie outside the shrunk
    /// target set, so the intersection re-derives exactly
    /// `targets − cleared` without touching the cleared set).
    pub fn refresh_targets(
        &mut self,
        refresh: impl FnOnce(&Knowledge, &mut Vec<HcRange>) -> TargetsChange,
    ) {
        match refresh(&self.know, &mut self.targets) {
            TargetsChange::Unchanged => {}
            TargetsChange::Replaced => {
                subtract_ranges_into(&self.targets, self.cleared.as_slice(), &mut self.rem);
            }
            TargetsChange::Narrowed => {
                hotpath::count_incremental_event();
                intersect_ranges_into(&self.rem, &self.targets, &mut self.rem_scratch);
                std::mem::swap(&mut self.rem, &mut self.rem_scratch);
            }
        }
    }

    /// Replaces the target range `old` by `pieces` — its refinement, a
    /// sorted subset of it — and intersects the remainders inside `old`
    /// with the pieces. Work and moves are local to `old`; remainders
    /// elsewhere are untouched, so `rem == targets − cleared` still holds.
    pub fn refine_target(&mut self, old: HcRange, pieces: &[HcRange]) {
        let j = self.targets.partition_point(|t| t.hi < old.lo);
        debug_assert_eq!(self.targets.get(j), Some(&old), "refined a non-target");
        self.targets.splice(j..=j, pieces.iter().copied());
        let start = self.rem.partition_point(|r| r.hi < old.lo);
        let end = start + self.rem[start..].partition_point(|r| r.lo <= old.hi);
        intersect_ranges_into(&self.rem[start..end], pieces, &mut self.rem_scratch);
        self.rem.splice(start..end, self.rem_scratch.drain(..));
        self.audit_rem();
    }

    /// Whether nothing is missing: no remainders and no pending retries.
    pub fn settled(&self) -> bool {
        self.rem.is_empty() && self.retries.is_empty()
    }

    /// Whether this query cross-checks its state against the oracle.
    pub fn audits(&self) -> bool {
        self.audit
    }

    /// Oracle remainders: `exact_targets` (the published targets when
    /// `None`) minus the cleared set derived from scratch. What every
    /// remainder read of an audited query must agree with.
    pub fn oracle_rem(&self, exact_targets: Option<&[HcRange]>) -> Vec<HcRange> {
        let cleared = cleared_regions(&self.log, &self.know, self.layout);
        subtract_ranges(exact_targets.unwrap_or(&self.targets), &cleared)
    }

    fn audit_cleared(&self) {
        let oracle = cleared_regions(&self.log, &self.know, self.layout);
        assert_eq!(
            self.cleared.as_slice(),
            oracle.as_slice(),
            "incremental cleared set diverged from the from-scratch oracle"
        );
    }

    /// Cross-check of the remainder state when the query audits (a no-op
    /// otherwise), called once per driver iteration.
    ///
    /// The cleared assert here is not redundant with the per-delta
    /// [`Self::audit_cleared`] in `refresh_frame`: that one fires only
    /// when a delta *is applied*, so it catches wrong deltas but not
    /// *missed* ones (say, a `learn` that failed to refresh its
    /// neighbour frame). This unconditional check catches the misses.
    pub fn audit_rem(&self) {
        if !self.audit {
            return;
        }
        let oracle_cleared = cleared_regions(&self.log, &self.know, self.layout);
        assert_eq!(
            self.cleared.as_slice(),
            oracle_cleared.as_slice(),
            "incremental cleared set diverged from the from-scratch oracle"
        );
        let oracle_rem = subtract_ranges(&self.targets, &oracle_cleared);
        assert_eq!(
            self.rem, oracle_rem,
            "incremental remainders diverged from the from-scratch oracle"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsiConfig, FramingPolicy};
    use proptest::prelude::*;

    fn layout() -> DsiLayout {
        // 16 objects in 8 frames of 2, minima 10,20,…,80.
        let cfg = DsiConfig {
            framing: FramingPolicy::FixedFrameCount(8),
            ..DsiConfig::paper_default()
        };
        let mins: Vec<u64> = (1..=8u64).map(|i| i * 10).collect();
        DsiLayout::new(cfg, 16, &mins)
    }

    #[test]
    fn span_estimates_tighten_with_learning() {
        let l = layout();
        let mut k = Knowledge::new(&l, 1000);
        // Schema gives only frame 0's bound (one block).
        assert_eq!(k.span_est(3), (10, 1001));
        assert!(k.learn(2, 30));
        assert!(k.learn(5, 60));
        assert!(!k.learn(5, 60), "re-learning is not new knowledge");
        assert_eq!(k.span_est(3), (30, 60));
        assert_eq!(k.span_est(2), (30, 60));
        assert_eq!(k.span_est(6), (60, 1001));
    }

    #[test]
    fn runs_tile_the_frames_with_one_span_each() {
        let l = layout();
        let mut k = Knowledge::new(&l, 1000);
        k.learn(2, 30);
        k.learn(5, 60);
        k.learn(6, 70);
        let mut next = 0;
        while next < l.n_frames() {
            let (first, end, lb, ub) = k.run(next);
            assert_eq!(first, next, "runs are contiguous");
            assert!(first < end);
            for t in first..end {
                assert_eq!(k.span_est(t), (lb, ub));
                assert_eq!(k.run(t), (first, end, lb, ub));
            }
            assert_eq!(k.run_of_hc(lb), first);
            assert_eq!(k.run_of_hc(ub - 1), first);
            next = end;
        }
        assert_eq!(next, l.n_frames());
        assert_eq!(k.run_of_hc(0), 0, "below the first bound");
    }

    /// The sorted-`Vec` knowledge the dense map replaced: one `(frame
    /// index, min HC)` pair per known bound, sorted by frame and so by
    /// bound, searched in both directions and shifted on every insert.
    /// Runs are numbered by their bound's position. The reference the
    /// dense map is checked against.
    struct SortedKnowledge {
        bounds: Vec<(u32, u64)>,
        n_frames: u32,
        max_hc_excl: u64,
    }

    impl SortedKnowledge {
        fn new(layout: &DsiLayout, max_hc: u64) -> Self {
            let mut k = Self {
                bounds: Vec::new(),
                n_frames: layout.n_frames(),
                max_hc_excl: max_hc + 1,
            };
            for c in 0..layout.n_blocks() {
                k.learn(
                    layout.block_start_frame(c),
                    layout.block_min_hc()[c as usize],
                );
            }
            k
        }

        fn learn(&mut self, idx: u32, hc: u64) -> bool {
            match self.bounds.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(_) => false,
                Err(pos) => {
                    self.bounds.insert(pos, (idx, hc));
                    true
                }
            }
        }

        fn known(&self, idx: u32) -> Option<u64> {
            self.bounds
                .binary_search_by_key(&idx, |&(i, _)| i)
                .ok()
                .map(|pos| self.bounds[pos].1)
        }

        fn span_est(&self, idx: u32) -> (u64, u64) {
            let pos = self.bounds.partition_point(|&(i, _)| i <= idx);
            let lb = if pos > 0 { self.bounds[pos - 1].1 } else { 0 };
            let ub = self.bounds.get(pos).map_or(self.max_hc_excl, |&(_, hc)| hc);
            (lb, ub)
        }

        fn n_runs(&self) -> usize {
            self.bounds.len()
        }

        fn run(&self, k: usize) -> (u32, u32, u64, u64) {
            let (first, lb) = self.bounds[k];
            let (end, ub) = self
                .bounds
                .get(k + 1)
                .copied()
                .unwrap_or((self.n_frames, self.max_hc_excl));
            (first, end, lb, ub)
        }

        fn run_of_hc(&self, hc: u64) -> usize {
            self.bounds
                .partition_point(|&(_, h)| h <= hc)
                .saturating_sub(1)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The dense map answers every lookup the sorted reference
        /// answers, checked every few learned bounds: `known` and
        /// `span_est` for every frame, the run walk the multi-channel
        /// navigator reads, each frame's run and the HC → run lookup.
        #[test]
        fn dense_bounds_equal_the_sorted_reference(
            segments in 1u32..5,
            nf in prop_oneof![
                Just(1u32), Just(2), Just(7), Just(64), Just(65), Just(130), Just(1024)
            ],
            gaps in any::<u64>(),
            learns in proptest::collection::vec(any::<u64>(), 0..160),
        ) {
            // Strictly rising frame minima from a seeded gap stream.
            let mut mins = Vec::with_capacity(nf as usize);
            let mut g = gaps;
            let mut hc = g % 5;
            for _ in 0..nf {
                mins.push(hc);
                g = g.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                hc += 1 + (g >> 58);
            }
            let cfg = DsiConfig {
                framing: FramingPolicy::FixedFrameCount(nf),
                segments,
                ..DsiConfig::paper_default()
            };
            let l = DsiLayout::new(cfg, 2 * nf, &mins);
            let mut dense = Knowledge::new(&l, hc + 3);
            let mut reference = SortedKnowledge::new(&l, hc + 3);
            let check = |dense: &Knowledge, reference: &SortedKnowledge| {
                for t in 0..nf {
                    assert_eq!(dense.known(t), reference.known(t), "known({t})");
                    assert_eq!(dense.span_est(t), reference.span_est(t), "span_est({t})");
                }
                let mut walk = Vec::new();
                let mut t = 0;
                while t < nf {
                    let run = dense.run(t);
                    for u in run.0..run.1 {
                        assert_eq!(dense.run(u), run, "run of frame {u}");
                    }
                    walk.push(run);
                    t = run.1;
                }
                let want: Vec<_> = (0..reference.n_runs()).map(|k| reference.run(k)).collect();
                assert_eq!(walk, want, "run walk");
                for &(_, _, lb, ub) in &walk {
                    for h in [lb.saturating_sub(1), lb, lb + 1, ub - 1, ub] {
                        let want = reference.run(reference.run_of_hc(h)).0;
                        assert_eq!(dense.run_of_hc(h), want, "run_of_hc({h})");
                    }
                }
            };
            check(&dense, &reference);
            for (i, &x) in learns.iter().enumerate() {
                let t = (x % u64::from(nf)) as u32;
                let hc = mins[t as usize];
                assert_eq!(dense.learn(t, hc), reference.learn(t, hc), "learn({t})");
                if i % 8 == 7 || i + 1 == learns.len() {
                    check(&dense, &reference);
                }
            }
        }
    }

    fn scan_frame(log: &mut ScanLog, idx: u32, hcs: &[Option<u64>]) {
        let s = log.entry(idx, hcs.len() as u32);
        for (i, h) in hcs.iter().enumerate() {
            if let Some(hc) = h {
                s.resolve(i as u32, *hc);
            }
        }
        s.read_upto = hcs.len() as u32;
    }

    #[test]
    fn cleared_regions_prefix_and_extension() {
        let l = layout();
        let mut k = Knowledge::new(&l, 1000);
        let mut log = ScanLog::new(l.n_frames());
        // Frame 1 fully scanned: objects at 20 and 25.
        scan_frame(&mut log, 1, &[Some(20), Some(25)]);
        // Without frame 2's bound, cleared stops at 25.
        let c = cleared_regions(&log, &k, &l);
        assert_eq!(c, vec![HcRange::new(0, 9), HcRange::new(20, 25)]);
        // Learning frame 2's bound extends through the empty gap.
        k.learn(2, 30);
        let c = cleared_regions(&log, &k, &l);
        assert_eq!(c, vec![HcRange::new(0, 9), HcRange::new(20, 29)]);
    }

    #[test]
    fn cleared_regions_hole_blocks_clearing() {
        let l = layout();
        let k = Knowledge::new(&l, 1000);
        let mut log = ScanLog::new(l.n_frames());
        // Frame 3: first header lost, second resolved → nothing clearable.
        scan_frame(&mut log, 3, &[None, Some(45)]);
        let c = cleared_regions(&log, &k, &l);
        assert_eq!(c, vec![HcRange::new(0, 9)]);
    }

    #[test]
    fn last_frame_clears_to_end_of_space() {
        let l = layout();
        let k = Knowledge::new(&l, 1000);
        let mut log = ScanLog::new(l.n_frames());
        scan_frame(&mut log, 7, &[Some(80), Some(85)]);
        let c = cleared_regions(&log, &k, &l);
        assert!(c.contains(&HcRange::new(80, 1000)));
    }

    #[test]
    fn subtract_ranges_cases() {
        let t = vec![HcRange::new(10, 50), HcRange::new(70, 80)];
        let c = vec![
            HcRange::new(0, 14),
            HcRange::new(20, 29),
            HcRange::new(45, 75),
        ];
        assert_eq!(
            subtract_ranges(&t, &c),
            vec![
                HcRange::new(15, 19),
                HcRange::new(30, 44),
                HcRange::new(76, 80)
            ]
        );
        // Fully cleared.
        assert!(subtract_ranges(&t, &[HcRange::new(0, 100)]).is_empty());
        // Nothing cleared.
        assert_eq!(subtract_ranges(&t, &[]), t);
    }

    #[test]
    fn subtract_in_place_matches_oracle() {
        let base = vec![
            HcRange::new(10, 50),
            HcRange::new(70, 80),
            HcRange::new(90, 95),
        ];
        for c in [
            HcRange::new(0, 5),
            HcRange::new(0, 10),
            HcRange::new(20, 30),
            HcRange::new(10, 50),
            HcRange::new(40, 75),
            HcRange::new(45, 92),
            HcRange::new(0, 200),
            HcRange::new(96, 200),
            HcRange::new(80, 90),
        ] {
            let mut got = base.clone();
            subtract_range_in_place(&mut got, c);
            let want = subtract_ranges(&base, &[c]);
            assert_eq!(got, want, "subtracting {c:?}");
        }
    }

    #[test]
    fn cleared_set_insert_merges_and_reports_growth() {
        let mut s = ClearedSet::default();
        assert!(s.insert(HcRange::new(10, 20)));
        assert!(s.insert(HcRange::new(30, 40)));
        assert!(
            !s.insert(HcRange::new(12, 18)),
            "contained range is no growth"
        );
        // Adjacency coalesces like merge_ranges.
        assert!(s.insert(HcRange::new(21, 25)));
        assert_eq!(s.as_slice(), &[HcRange::new(10, 25), HcRange::new(30, 40)]);
        // Bridging merges everything it touches.
        assert!(s.insert(HcRange::new(24, 29)));
        assert_eq!(s.as_slice(), &[HcRange::new(10, 40)]);
        assert!(s.insert(HcRange::new(0, 2)));
        assert_eq!(s.as_slice(), &[HcRange::new(0, 2), HcRange::new(10, 40)]);
    }

    #[test]
    fn retries_sorted_per_slot() {
        let mut r = Retries::new();
        assert!(r.is_empty());
        r.insert(3, 1, 2);
        r.insert(2, 0, 1);
        r.insert(3, 0, 2);
        r.insert(3, 1, 2); // duplicate ignored
        assert!(!r.is_empty());
        assert_eq!(r.total(), 3);
        assert_eq!(r.for_slot(3), &[0, 1]);
        assert_eq!(r.for_slot(2), &[0]);
        assert_eq!(r.for_slot(9), &[] as &[u32]);
        let v: Vec<_> = r.iter_slots().map(|(s, i)| (s, i.to_vec())).collect();
        assert_eq!(v, vec![(2, vec![0]), (3, vec![0, 1])]);
        r.remove(3, 0);
        assert_eq!(r.for_slot(3), &[1]);
        r.remove(3, 1);
        r.remove(2, 0);
        assert!(r.is_empty());
        assert_eq!(r.total(), 0);
        assert_eq!(r.iter_slots().count(), 0);
    }

    #[test]
    fn retries_stay_bounded_by_live_remainders() {
        // Sustained loss re-inserts the same live indices cycle after
        // cycle: the per-slot set must stay capped at the slot's object
        // count, never growing with the number of loss events.
        let mut r = Retries::new();
        for _cycle in 0..100 {
            for idx in 0..4 {
                r.insert(7, idx, 4);
            }
        }
        assert_eq!(r.total(), 4);
        assert_eq!(r.for_slot(7), &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "retry cap")]
    fn retries_reject_dead_indices() {
        let mut r = Retries::new();
        r.insert(7, 4, 4); // index 4 of a 4-object slot can never resolve
    }

    #[test]
    fn query_state_applies_deltas_incrementally() {
        // Audited: every delta below is cross-checked against the
        // from-scratch oracle as it is applied.
        let l = layout();
        let mut qs = QueryState::new(&l, 1000, true);
        // Target the whole space; prime the remainder state.
        qs.refresh_targets(|_, out| {
            out.clear();
            out.push(HcRange::new(0, 1000));
            TargetsChange::Replaced
        });
        assert_eq!(qs.rem(), &[HcRange::new(10, 1000)]);
        // Resolving frame 1 completely clears [20, 25] (no bound for 2 yet).
        qs.note_attempted(1, 2, 0);
        qs.resolve_header(1, 2, 0, 20);
        qs.note_attempted(1, 2, 1);
        qs.resolve_header(1, 2, 1, 25);
        assert_eq!(qs.rem(), &[HcRange::new(10, 19), HcRange::new(26, 1000)]);
        // Learning frame 2's bound extends the cleared gap to 29.
        qs.learn(2, 30);
        assert_eq!(qs.rem(), &[HcRange::new(10, 19), HcRange::new(30, 1000)]);
        qs.audit_rem();
        // Narrowing the targets to a subset intersects the remainders in
        // place — the cleared set is not consulted.
        qs.refresh_targets(|_, out| {
            out.clear();
            out.extend([HcRange::new(0, 15), HcRange::new(500, 600)]);
            TargetsChange::Narrowed
        });
        assert_eq!(qs.rem(), &[HcRange::new(10, 15), HcRange::new(500, 600)]);
        qs.audit_rem();
    }

    #[test]
    fn intersect_ranges_cases() {
        let a = vec![
            HcRange::new(10, 50),
            HcRange::new(70, 80),
            HcRange::new(90, 95),
        ];
        let b = vec![HcRange::new(0, 14), HcRange::new(40, 92)];
        let mut out = Vec::new();
        intersect_ranges_into(&a, &b, &mut out);
        assert_eq!(
            out,
            vec![
                HcRange::new(10, 14),
                HcRange::new(40, 50),
                HcRange::new(70, 80),
                HcRange::new(90, 92)
            ]
        );
        // Identity and annihilation.
        intersect_ranges_into(&a, &[HcRange::new(0, 100)], &mut out);
        assert_eq!(out, a);
        intersect_ranges_into(&a, &[], &mut out);
        assert!(out.is_empty());
        // Remainders split only by an old target boundary join under one
        // new target; a boundary `b` keeps, or a gap in `a`, still splits.
        let a = vec![
            HcRange::new(55296, 56319),
            HcRange::new(56320, 57001),
            HcRange::new(57002, 57100),
            HcRange::new(57200, 57300),
        ];
        intersect_ranges_into(&a, &[HcRange::new(55296, 57250)], &mut out);
        assert_eq!(
            out,
            vec![HcRange::new(55296, 57100), HcRange::new(57200, 57250)]
        );
        let b = vec![HcRange::new(55300, 56400), HcRange::new(56401, 56500)];
        intersect_ranges_into(&a, &b, &mut out);
        assert_eq!(
            out,
            vec![HcRange::new(55300, 56400), HcRange::new(56401, 56500)]
        );
    }
}
