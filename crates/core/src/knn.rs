//! k-nearest-neighbour queries over DSI (paper §3.4–3.5).
//!
//! The client maintains a *search space*: a circle around the query point
//! guaranteed to contain the k nearest objects. Index-table entries are
//! *virtual candidates* ("the object represented by HC′ᵢ", Algorithm 2):
//! each is a real object whose cell — hence an upper bound on its distance
//! — is known from its HC value alone. The circle's radius is the k-th
//! smallest upper bound and only ever shrinks; objects and HC regions
//! provably outside it are skipped. The query completes when the k best
//! candidates are fully retrieved and every uncleared part of the circle
//! is farther than the k-th candidate.
//!
//! The search space is decomposed **as a circle**, not as its bounding
//! square: the `dsi_hilbert` circle kernel prunes quadrants outside the
//! circle during the descent, and every produced range carries its
//! exact distance bounds. Because the circle only shrinks, a radius
//! tightening *narrows* the existing target set (drop ranges now
//! provably outside, copy ranges still provably inside, re-split only
//! boundary ranges) instead of re-decomposing the world — and the driver
//! intersects its remainders with the narrowed targets in place
//! ([`TargetsChange::Narrowed`]). Range distances live on the ranges
//! themselves, so no side cache of interval distances exists to grow
//! without bound under loss.
//!
//! The narrowing is **lazy** ([`narrow_ranges_to_circle_coarse_into`]):
//! it re-splits only down to a floor level one below the mean frame's HC
//! span, leaving each block there that straddles the circle as one
//! *unrefined* target range. A drive's decisions read only the targets
//! next to the frames they test, so the driver refines an unrefined range
//! only when a read reaches a remainder inside it
//! ([`QueryMode::refine_target`]), and then only along the path to the HC
//! value the read needs ([`refine_circle_path_into`]): in place, at the
//! published radius, each level's three off-path children classified
//! whole as dropped, exact or smaller unrefined blocks. Every decision
//! therefore sees exactly the remainders of the exact decomposition
//! (checked read by read when the query is audited), while most of the
//! rim of the early, large circles is never resolved to single cells.
//! The aggressive strategy reads distances off whole targets, so it
//! narrows at full resolution instead.
//!
//! Two navigation strategies from the paper:
//!
//! * **Conservative** — proceed to the earliest-arriving frame that may
//!   still hold circle content: small latency, more tuning (slow shrink).
//! * **Aggressive** — follow the index entry whose frame is closest to the
//!   query point: fast shrink and low tuning, but skipped regions must be
//!   re-checked a cycle later, extending latency.
//!
//! The broadcast reorganization (§3.5, `segments ≥ 2` in
//! [`crate::DsiConfig`]) gives the conservative strategy early views of
//! remote regions, combining the strengths of both.

use std::collections::BTreeMap;

use dsi_broadcast::Tuner;
use dsi_datagen::Object;
use dsi_geom::{dist2, BoundOrder, GridMapper, Point};
use dsi_hilbert::{
    narrow_ranges_to_circle_coarse_into, ranges_in_circle_with_dist_into, refine_circle_path_into,
    DistRange, HcRange, HilbertCurve,
};

use crate::build::{DsiAir, DsiPacket};
use crate::client::{run_query, NavPick, QueryMode, TargetsChange};
use crate::state::Knowledge;

/// kNN search-space navigation strategy (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnStrategy {
    /// Retrieve every frame that may still matter, in broadcast order.
    Conservative,
    /// Jump to the reachable frame nearest the query point.
    Aggressive,
}

/// Peak-memory and decomposition counters of one kNN query, for the
/// bounded-memory property tests. Not part of the public API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct KnnProbe {
    /// Largest number of annotated ranges *held* at any one time — the
    /// current decomposition plus the narrowing swap buffer. This is the
    /// quantity that must stay flat across shrinks: a reintroduced
    /// accumulate-forever structure would drive it toward
    /// [`KnnProbe::total_ranges`].
    pub peak_live_ranges: usize,
    /// Largest single target decomposition, as published at a refresh
    /// (unrefined ranges count once each).
    pub largest_refresh: usize,
    /// Ranges produced across all decompositions — what a never-evicted
    /// per-interval distance cache would have accumulated: every
    /// refresh's published (possibly coarse) decomposition plus the
    /// pieces, exact or unrefined, of every path refinement a read made.
    pub total_ranges: usize,
    /// Number of target rebuilds (circle shrinks reaching the driver).
    pub refreshes: usize,
    /// Largest candidate-set size.
    pub peak_cands: usize,
}

/// One known-to-exist object, keyed by its HC value.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Upper bound on the squared distance (cell max-distance for virtual
    /// candidates; the exact distance once the header has been seen).
    ub2: f64,
    /// Exact squared distance (only when the header has been seen).
    d2: f64,
    /// Object id (only when the header has been seen).
    id: u32,
    /// Whether the full record has been retrieved.
    retrieved: bool,
}

/// The candidate set: per-HC state, plus every candidate's upper bound in
/// (bound, HC) order, whose front the radius and the completion check
/// read.
struct Candidates {
    k: usize,
    by_hc: BTreeMap<u64, Cand>,
    bounds: BoundOrder<u64>,
}

impl Candidates {
    fn new(k: usize) -> Self {
        Self {
            k,
            by_hc: BTreeMap::new(),
            bounds: BoundOrder::default(),
        }
    }

    fn len(&self) -> usize {
        self.by_hc.len()
    }

    /// The squared radius of the search space: the k-th smallest upper
    /// bound over known-distinct objects (∞ while fewer than k are known).
    fn r2(&self) -> f64 {
        self.bounds.kth(self.k)
    }

    /// Whether the k best candidates (smallest upper bound, ties broken
    /// by HC value) have all been retrieved.
    fn top_k_retrieved(&self) -> bool {
        let top = self.bounds.first(self.k);
        top.len() == self.k && top.iter().all(|(_, hc)| self.by_hc[hc].retrieved)
    }

    fn insert_virtual(&mut self, hc: u64, ub2: f64) {
        self.by_hc.insert(
            hc,
            Cand {
                ub2,
                d2: f64::NAN,
                id: u32::MAX,
                retrieved: false,
            },
        );
        self.bounds.insert(ub2, hc);
    }

    /// Offers one batch of virtual candidates (an index table's entries),
    /// all filtered against the radius read once before the batch. The
    /// stale bound admits a superset of what per-offer filtering would
    /// (offers the mid-batch radius would already reject), but each extra
    /// member's upper bound is at least the radius at its insertion and
    /// the radius never grows — extras rank strictly beyond the k-th bound
    /// forever, so the radius is unchanged and completion is at most
    /// deferred (asserted against the sequential oracle in the
    /// differential property tests).
    fn offer_virtuals(&mut self, offers: &[(u64, f64)]) {
        let r2 = self.r2();
        for &(hc, ub2) in offers {
            if self.by_hc.len() >= self.k && ub2 >= r2 {
                continue;
            }
            if !self.by_hc.contains_key(&hc) {
                self.insert_virtual(hc, ub2);
            }
        }
    }

    /// Header seen and the object is (still) wanted: record its exact
    /// distance, keeping any retrieved flag, and move its bound there.
    fn resolve_wanted(&mut self, hc: u64, d2: f64, id: u32) {
        if let Some(c) = self.by_hc.get(&hc) {
            self.bounds.remove(c.ub2, hc);
        }
        let c = self.by_hc.entry(hc).or_insert(Cand {
            ub2: d2,
            d2,
            id,
            retrieved: false,
        });
        c.ub2 = d2;
        c.d2 = d2;
        c.id = id;
        self.bounds.insert(d2, hc);
    }

    /// Header seen but the object is provably outside the search space:
    /// drop the virtual candidate. Its upper bound necessarily exceeded
    /// the k-th bound (exactness can only lower a bound), so removal never
    /// loosens the radius.
    fn drop_unwanted(&mut self, hc: u64) {
        if let Some(c) = self.by_hc.get(&hc) {
            if !c.retrieved {
                self.bounds.remove(c.ub2, hc);
                self.by_hc.remove(&hc);
            }
        }
    }

    fn mark_retrieved(&mut self, hc: u64) {
        if let Some(c) = self.by_hc.get_mut(&hc) {
            c.retrieved = true;
        }
    }

    /// The final answer: ids of the k nearest retrieved objects
    /// (distance, then id, ascending), returned in ascending id order.
    fn result_ids(&self) -> Vec<u32> {
        let mut retr: Vec<(f64, u32)> = self
            .by_hc
            .values()
            .filter(|c| c.retrieved)
            .map(|c| (c.d2, c.id))
            .collect();
        retr.sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are never NaN"));
        let mut ids: Vec<u32> = retr.into_iter().take(self.k).map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }
}

/// Re-decompose the search space only when the squared radius has dropped
/// below this fraction of the radius the targets were published for.
///
/// The radius tightens dozens of times per query, mostly by slivers.
/// Keeping the published targets — always a correct *superset* of the
/// true circle — until the radius has shrunk materially trades a bounded,
/// transient over-coverage (≈0.1% of tuning bytes) for fewer refreshes.
/// It was chosen when every refresh re-derived an exact decomposition;
/// now that narrowing is lazy it stays only to keep the air metrics
/// bit-identical, because the refresh cadence decides which frames a
/// drive reads. Correctness is
/// unaffected either way (the extra rim is cleared or out-scanned like any
/// target).
const REFRESH_HYSTERESIS: f64 = 0.7;

/// The floor level of the lazy circle narrowing: one level below the
/// largest aligned block that fits a mean frame's HC span (level 6 for
/// 1,024 frames on the order-12 grid). A frame-overlap test then touches
/// at most a few floor blocks, so refining just those stays cheap, while
/// the floor still cuts the rim of a large circle to a few hundred
/// blocks.
fn coarse_floor(curve: &HilbertCurve, n_frames: u32) -> u8 {
    let mean_span = ((curve.max_d() + 1) / u64::from(n_frames.max(1))).max(1);
    let fits = (63 - mean_span.leading_zeros()) / 2;
    (fits as u8).saturating_sub(1)
}

struct KnnMode {
    q: Point,
    curve: HilbertCurve,
    mapper: GridMapper,
    strategy: KnnStrategy,
    cands: Candidates,
    /// Radius the driver-held target set was computed for; targets are
    /// narrowed (in place) only when the circle shrinks.
    targets_r2: f64,
    /// Whether the initial target set has been published.
    published: bool,
    /// The current target decomposition with exact distance bounds,
    /// sorted by HC: exact ranges plus, below a nonzero `floor`, unrefined
    /// blocks (`max_min_d2 > targets_r2`). Remainder liveness reads
    /// distances straight off this list — there is no unbounded side
    /// cache of interval distances.
    targets: Vec<DistRange>,
    /// Floor level of the narrowing (0: exact targets at every refresh).
    floor: u8,
    /// Unrefined ranges left in `targets`.
    unrefined: usize,
    /// Swap buffer for narrowing the targets between shrinks.
    narrow_buf: Vec<DistRange>,
    /// Pieces of the range being refined, with bounds and bare.
    refine_buf: Vec<DistRange>,
    piece_buf: Vec<HcRange>,
    /// Scratch for one table's batched `(hc, ub2)` offers.
    offer_buf: Vec<(u64, f64)>,
    /// Scratch for the aggressive strategy's sorted entry bounds.
    nav_bounds: Vec<u64>,
    probe: KnnProbe,
}

impl KnnMode {
    fn new(air: &DsiAir, q: Point, k: usize, strategy: KnnStrategy) -> Self {
        // Aggressive navigation reads distances off whole targets, so it
        // needs exact ones.
        let exact = strategy == KnnStrategy::Aggressive;
        Self {
            q,
            curve: *air.curve(),
            mapper: *air.mapper(),
            strategy,
            cands: Candidates::new(k),
            targets_r2: f64::INFINITY,
            published: false,
            targets: Vec::new(),
            floor: if exact {
                0
            } else {
                coarse_floor(air.curve(), air.layout().n_frames())
            },
            unrefined: 0,
            narrow_buf: Vec::new(),
            refine_buf: Vec::new(),
            piece_buf: Vec::new(),
            offer_buf: Vec::new(),
            nav_bounds: Vec::new(),
            probe: KnnProbe::default(),
        }
    }

    /// Exact lower bound on the distance of remainder `r`: the distance of
    /// the published target range containing it. Remainders are derived
    /// from the targets by subtraction and intersection, so each lies
    /// inside exactly one target range; the parent's minimum is a valid
    /// (and for whole-target remainders exact) bound.
    fn target_min_d2(&self, r: &HcRange) -> f64 {
        let i = self.targets.partition_point(|t| t.range.hi < r.lo);
        match self.targets.get(i) {
            Some(t) if t.range.lo <= r.lo => {
                debug_assert!(r.hi <= t.range.hi, "remainder {r:?} straddles targets");
                t.min_d2
            }
            // Not under any published target (only reachable before the
            // first publication): conservatively live.
            _ => 0.0,
        }
    }
}

impl QueryMode for KnnMode {
    fn refresh_targets(&mut self, _know: &Knowledge, out: &mut Vec<HcRange>) -> TargetsChange {
        let r2 = self.cands.r2();
        if self.published && r2 >= self.targets_r2 * REFRESH_HYSTERESIS {
            return TargetsChange::Unchanged;
        }
        let change = if self.published {
            // The circle only shrinks, so the rebuilt targets cover a
            // subset of the previous ones: the driver may intersect its
            // remainders in place.
            TargetsChange::Narrowed
        } else {
            TargetsChange::Replaced
        };
        if !self.published {
            // Fewer than k candidates known: the whole space is in play.
            // Seeding it as one synthetic range (min 0, max ∞) makes the
            // first finite radius a plain narrowing of it.
            self.targets.clear();
            self.targets.push(DistRange {
                range: HcRange::new(0, self.curve.max_d()),
                min_d2: 0.0,
                max_min_d2: f64::INFINITY,
            });
        }
        self.published = true;
        self.targets_r2 = r2;
        if r2.is_finite() {
            self.unrefined = narrow_ranges_to_circle_coarse_into(
                &self.curve,
                &self.mapper,
                self.q,
                r2,
                self.floor,
                &self.targets,
                &mut self.narrow_buf,
            );
            std::mem::swap(&mut self.targets, &mut self.narrow_buf);
        }
        self.probe.refreshes += 1;
        self.probe.total_ranges += self.targets.len();
        self.probe.largest_refresh = self.probe.largest_refresh.max(self.targets.len());
        self.probe.peak_live_ranges = self
            .probe
            .peak_live_ranges
            .max(self.targets.len() + self.narrow_buf.len());
        out.clear();
        out.reserve(self.targets.len());
        out.extend(self.targets.iter().map(|t| t.range));
        change
    }

    fn on_virtuals(&mut self, hcs: &[u64]) {
        self.offer_buf.clear();
        for &hc in hcs {
            let rect = self.mapper.cell_rect(self.curve.d2xy(hc));
            self.offer_buf.push((hc, rect.max_dist2(self.q)));
        }
        self.cands.offer_virtuals(&self.offer_buf);
        self.probe.peak_cands = self.probe.peak_cands.max(self.cands.len());
    }

    fn on_header(&mut self, o: &Object) -> bool {
        let d2 = dist2(self.q, o.pos);
        if d2 <= self.cands.r2() {
            self.cands.resolve_wanted(o.hc, d2, o.id);
            self.probe.peak_cands = self.probe.peak_cands.max(self.cands.len());
            true
        } else {
            self.cands.drop_unwanted(o.hc);
            false
        }
    }

    fn on_retrieved(&mut self, o: &Object) {
        self.cands.mark_retrieved(o.hc);
    }

    fn complete(&mut self) -> bool {
        self.cands.top_k_retrieved()
    }

    fn picks_entries(&self) -> bool {
        self.strategy == KnnStrategy::Aggressive
    }

    fn refine_target(&mut self, hc: u64) -> Option<(HcRange, &[HcRange])> {
        if self.unrefined == 0 {
            return None;
        }
        let i = self.targets.partition_point(|t| t.range.hi < hc);
        let t = *self.targets.get(i)?;
        debug_assert!(
            t.range.contains(hc),
            "remainder at {hc} outside the targets"
        );
        if t.max_min_d2 <= self.targets_r2 {
            return None;
        }
        // Split the block at its own radius along the path to `hc` only:
        // the piece holding `hc` comes out exact or is dropped, its
        // siblings exact, dropped or unrefined. The pieces (non-empty:
        // the block meets the circle) replace it in place; a neighbouring
        // exact range they touch is merged again by the next narrowing.
        let unrefined = refine_circle_path_into(
            &self.curve,
            &self.mapper,
            self.q,
            self.targets_r2,
            t,
            hc,
            &mut self.refine_buf,
        );
        self.targets.splice(i..=i, self.refine_buf.iter().copied());
        self.unrefined = self.unrefined - 1 + unrefined;
        self.probe.total_ranges += self.refine_buf.len();
        self.probe.peak_live_ranges = self
            .probe
            .peak_live_ranges
            .max(self.targets.len() + self.narrow_buf.len());
        self.piece_buf.clear();
        self.piece_buf
            .extend(self.refine_buf.iter().map(|d| d.range));
        Some((t.range, &self.piece_buf))
    }

    fn exact_targets(&self) -> Option<Vec<HcRange>> {
        if !self.targets_r2.is_finite() {
            // The whole space, published as one exact range.
            return None;
        }
        let mut exact = Vec::new();
        ranges_in_circle_with_dist_into(
            &self.curve,
            &self.mapper,
            self.q,
            self.targets_r2,
            &mut exact,
        );
        Some(exact.iter().map(|d| d.range).collect())
    }

    fn nav_pick(&mut self, rem: &[HcRange], entry_targets: &[(u32, u64)]) -> NavPick {
        match self.strategy {
            KnnStrategy::Conservative => NavPick::Earliest,
            KnnStrategy::Aggressive => {
                debug_assert_eq!(self.unrefined, 0, "aggressive targets are exact");
                // Follow the entry whose frame lies closest to the query
                // point — but only among entries whose region (up to the
                // next entry's bound) still overlaps a *live* remainder.
                // Jumping to the nearest frame whose content is provably
                // outside the current circle wastes the retune and a full
                // extra cycle.
                let r2 = self.cands.r2();
                // Each entry's region ends at the next-larger entry bound;
                // sort the bounds once so the successor is a binary search
                // instead of a scan per entry.
                self.nav_bounds.clear();
                self.nav_bounds
                    .extend(entry_targets.iter().map(|&(_, h)| h));
                self.nav_bounds.sort_unstable();
                let mut best: Option<(f64, u32)> = None;
                for &(slot, hc) in entry_targets {
                    let next = match self.nav_bounds.partition_point(|&h| h <= hc) {
                        i if i < self.nav_bounds.len() => self.nav_bounds[i],
                        _ => u64::MAX,
                    };
                    let mut i = rem.partition_point(|r| r.hi < hc);
                    let mut live = false;
                    while i < rem.len() && rem[i].lo < next {
                        if self.target_min_d2(&rem[i]) <= r2 {
                            live = true;
                            break;
                        }
                        i += 1;
                    }
                    if !live {
                        continue;
                    }
                    let d2 = self.mapper.cell_rect(self.curve.d2xy(hc)).min_dist2(self.q);
                    if best.is_none_or(|(b, _)| d2 < b) {
                        best = Some((d2, slot));
                    }
                }
                match best {
                    Some((_, slot)) => NavPick::Slot(slot),
                    None => NavPick::Earliest,
                }
            }
        }
    }
}

impl DsiAir {
    /// Answers a kNN query on the air: returns the ids of the `k` objects
    /// nearest to `q` (ties broken by id), in ascending id order. Metrics
    /// accrue on `tuner`.
    pub fn knn_query(
        &self,
        tuner: &mut Tuner<'_, DsiPacket>,
        q: Point,
        k: usize,
        strategy: KnnStrategy,
    ) -> Vec<u32> {
        self.knn_query_probed(tuner, q, k, strategy).0
    }

    /// [`DsiAir::knn_query`] plus the query's memory/decomposition probe.
    #[doc(hidden)]
    pub fn knn_query_probed(
        &self,
        tuner: &mut Tuner<'_, DsiPacket>,
        q: Point,
        k: usize,
        strategy: KnnStrategy,
    ) -> (Vec<u32>, KnnProbe) {
        self.run_knn(tuner, q, k, strategy, false)
    }

    /// [`DsiAir::knn_query_probed`] with every state update and remainder
    /// read cross-checked against the from-scratch oracle; panics on
    /// divergence. Test support for the differential suites.
    #[doc(hidden)]
    pub fn knn_query_audited(
        &self,
        tuner: &mut Tuner<'_, DsiPacket>,
        q: Point,
        k: usize,
        strategy: KnnStrategy,
    ) -> (Vec<u32>, KnnProbe) {
        self.run_knn(tuner, q, k, strategy, true)
    }

    fn run_knn(
        &self,
        tuner: &mut Tuner<'_, DsiPacket>,
        q: Point,
        k: usize,
        strategy: KnnStrategy,
        audit: bool,
    ) -> (Vec<u32>, KnnProbe) {
        let k = k.min(self.objects().len());
        if k == 0 {
            return (Vec::new(), KnnProbe::default());
        }
        let mut mode = KnnMode::new(self, q, k, strategy);
        run_query(self, tuner, &mut mode, audit);
        (mode.cands.result_ids(), mode.probe)
    }
}

/// Test-only access to the candidate set, for the differential property
/// tests of the batched-offer API (`crates/core/tests/props.rs`).
#[doc(hidden)]
pub mod testkit {
    use std::collections::BTreeMap;

    use super::{Cand, Candidates};

    /// The k best candidates by (upper bound, HC value), found by a full
    /// selection over every candidate (`None` while fewer than k are
    /// known): the radius bookkeeping before the candidate bounds were
    /// kept in order, and the reference they are checked against.
    fn select_top_k(by_hc: &BTreeMap<u64, Cand>, k: usize) -> Option<Vec<(f64, u64, bool)>> {
        if by_hc.len() < k {
            return None;
        }
        let mut buf: Vec<(f64, u64, bool)> = by_hc
            .iter()
            .map(|(&hc, c)| (c.ub2, hc, c.retrieved))
            .collect();
        buf.select_nth_unstable_by(k - 1, |a, b| {
            a.partial_cmp(b).expect("bounds are never NaN")
        });
        buf.truncate(k);
        Some(buf)
    }

    /// The client's private `Candidates`, wrapped to expose its
    /// transitions and checks.
    pub struct CandSet(Candidates);

    impl CandSet {
        /// A candidate set selecting the k-th bound.
        pub fn new(k: usize) -> Self {
            Self(Candidates::new(k))
        }

        /// Sequential-oracle offer: re-filters against a fresh radius per
        /// offer (the pre-batching behaviour). Skipped if it cannot tighten
        /// the k-th bound.
        pub fn offer_one(&mut self, hc: u64, ub2: f64) {
            let c = &mut self.0;
            if !c.by_hc.contains_key(&hc) && (c.len() < c.k || ub2 < c.r2()) {
                c.insert_virtual(hc, ub2);
            }
        }

        /// Batched offer: one radius bound for the whole batch.
        pub fn offer_batch(&mut self, offers: &[(u64, f64)]) {
            self.0.offer_virtuals(offers);
        }

        /// Header-event transition, exactly as the driver applies it:
        /// resolves the object when it is inside the current radius, drops
        /// it otherwise. Returns whether it was wanted.
        pub fn header(&mut self, hc: u64, d2: f64, id: u32) -> bool {
            if d2 <= self.0.r2() {
                self.0.resolve_wanted(hc, d2, id);
                true
            } else {
                self.0.drop_unwanted(hc);
                false
            }
        }

        /// Marks a candidate's record as fully retrieved.
        pub fn mark_retrieved(&mut self, hc: u64) {
            self.0.mark_retrieved(hc);
        }

        /// The current squared search radius.
        pub fn r2(&self) -> f64 {
            self.0.r2()
        }

        /// Whether the k best candidates are all retrieved.
        pub fn top_k_retrieved(&self) -> bool {
            self.0.top_k_retrieved()
        }

        /// Number of candidates currently held.
        pub fn len(&self) -> usize {
            self.0.len()
        }

        /// Whether no candidates are held.
        pub fn is_empty(&self) -> bool {
            self.0.len() == 0
        }

        /// Asserts the ordered bounds hold exactly the candidates' upper
        /// bounds, and that the radius, the top-k membership and the
        /// completion check all equal a full selection's over the
        /// candidates.
        pub fn assert_matches_selection(&self) {
            let c = &self.0;
            let mut held: Vec<(f64, u64)> = c.by_hc.iter().map(|(&hc, d)| (d.ub2, hc)).collect();
            held.sort_by(|a, b| a.partial_cmp(b).expect("bounds are never NaN"));
            assert_eq!(c.bounds.first(usize::MAX), held, "ordered bounds drifted");
            match select_top_k(&c.by_hc, c.k) {
                None => {
                    assert_eq!(c.r2(), f64::INFINITY, "radius below k candidates");
                    assert!(!c.top_k_retrieved(), "completed below k candidates");
                }
                Some(mut top) => {
                    let kth = top[c.k - 1].0;
                    assert_eq!(c.r2(), kth, "radius differs from the selection");
                    top.sort_by(|a, b| a.partial_cmp(b).expect("bounds are never NaN"));
                    let members: Vec<(f64, u64)> = top.iter().map(|&(b, hc, _)| (b, hc)).collect();
                    assert_eq!(
                        c.bounds.first(c.k),
                        members,
                        "top-k differs from the selection"
                    );
                    let done = top.iter().all(|&(_, _, retrieved)| retrieved);
                    assert_eq!(c.top_k_retrieved(), done, "completion differs");
                }
            }
        }

        /// The retrieved ids, nearest-first capped at k, ascending.
        pub fn result_ids(&self) -> Vec<u32> {
            self.0.result_ids()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsiConfig, FramingPolicy};
    use dsi_broadcast::LossModel;
    use dsi_datagen::{knn_points, uniform, SpatialDataset};

    fn check_knn(cfg: DsiConfig, strategy: KnnStrategy, n: usize, order: u8, ks: &[usize]) {
        let ds = SpatialDataset::build(&uniform(n, 31), order);
        let air = DsiAir::build(&ds, cfg);
        let queries = knn_points(10, 17);
        for (qi, &q) in queries.iter().enumerate() {
            for &k in ks {
                let start = (qi as u64 * 6151) % air.program().len();
                let mut tuner = Tuner::tune_in(air.program(), start, LossModel::None, qi as u64);
                let got = air.knn_query(&mut tuner, q, k, strategy);
                let want = ds.brute_knn(q, k);
                assert_eq!(got, want, "q{qi}={q:?} k={k} {strategy:?} {cfg:?}");
            }
        }
    }

    #[test]
    fn conservative_matches_brute_force() {
        check_knn(
            DsiConfig::paper_default(),
            KnnStrategy::Conservative,
            400,
            9,
            &[1, 4, 10],
        );
    }

    #[test]
    fn aggressive_matches_brute_force() {
        check_knn(
            DsiConfig::paper_default(),
            KnnStrategy::Aggressive,
            400,
            9,
            &[1, 4, 10],
        );
    }

    #[test]
    fn reorganized_matches_brute_force() {
        check_knn(
            DsiConfig::paper_reorganized(),
            KnnStrategy::Conservative,
            400,
            9,
            &[1, 4, 10],
        );
    }

    #[test]
    fn object_factor_one_matches() {
        let cfg = DsiConfig {
            framing: FramingPolicy::FixedObjectFactor(1),
            ..DsiConfig::paper_default()
        };
        check_knn(cfg, KnnStrategy::Conservative, 250, 8, &[3]);
        check_knn(cfg, KnnStrategy::Aggressive, 250, 8, &[3]);
    }

    #[test]
    fn k_equals_n_returns_all() {
        let ds = SpatialDataset::build(&uniform(40, 3), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let mut tuner = Tuner::tune_in(air.program(), 11, LossModel::None, 1);
        let got = air.knn_query(
            &mut tuner,
            Point::new(0.4, 0.6),
            40,
            KnnStrategy::Conservative,
        );
        assert_eq!(got.len(), 40);
        // k larger than N clamps.
        let mut tuner = Tuner::tune_in(air.program(), 11, LossModel::None, 1);
        let got = air.knn_query(
            &mut tuner,
            Point::new(0.4, 0.6),
            99,
            KnnStrategy::Conservative,
        );
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn query_point_outside_space() {
        let ds = SpatialDataset::build(&uniform(120, 9), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let q = Point::new(1.8, -0.4);
        let mut tuner = Tuner::tune_in(air.program(), 77, LossModel::None, 2);
        let got = air.knn_query(&mut tuner, q, 5, KnnStrategy::Conservative);
        assert_eq!(got, ds.brute_knn(q, 5));
    }

    #[test]
    fn correct_under_loss_all_strategies() {
        let ds = SpatialDataset::build(&uniform(300, 21), 9);
        for cfg in [DsiConfig::paper_default(), DsiConfig::paper_reorganized()] {
            let air = DsiAir::build(&ds, cfg);
            for (qi, q) in knn_points(8, 3).into_iter().enumerate() {
                for strategy in [KnnStrategy::Conservative, KnnStrategy::Aggressive] {
                    let mut tuner = Tuner::tune_in(
                        air.program(),
                        (qi as u64 * 911) % air.program().len(),
                        LossModel::iid(0.4),
                        qi as u64,
                    );
                    let got = air.knn_query(&mut tuner, q, 10, strategy);
                    assert_eq!(got, ds.brute_knn(q, 10), "lossy q{qi} {strategy:?}");
                }
            }
        }
    }

    /// Regression for the aggressive strategy ignoring `rem`: the picked
    /// slot must always have a live remainder in its entry's region; an
    /// entry with none is skipped even when its frame is the one nearest
    /// the query point (the old behaviour jumped there anyway, wasting the
    /// retune and a full cycle).
    #[test]
    fn aggressive_nav_skips_entries_without_live_targets() {
        let ds = SpatialDataset::build(&uniform(64, 5), 4);
        let air = DsiAir::build(&ds, DsiConfig::paper_default());
        let q = Point::new(0.05, 0.05); // in the cell of HC 0 (order 4)
        let mut mode = KnnMode::new(&air, q, 2, KnnStrategy::Aggressive);

        // Rig a finite, moderate radius and publish the circle targets.
        mode.cands.offer_virtuals(&[(0, 0.09), (1, 0.1)]);
        assert!(mode.cands.r2().is_finite());
        let mut out = Vec::new();
        let change =
            mode.refresh_targets(&Knowledge::new(air.layout(), air.curve().max_d()), &mut out);
        assert_eq!(change, TargetsChange::Replaced);
        assert!(!out.is_empty());

        // The only remainder left is the tail of the last target range.
        // Entry B points at the query's own cell (HC 0 — distance 0, the
        // nearest frame by far) but its region [0, m) holds no remainder;
        // entry A's region [m, ∞) holds the live one.
        let m = out.last().unwrap().hi;
        assert!(m > 0);
        let rem = vec![HcRange::new(m, m)];
        let entries = vec![(7u32, m), (3u32, 0u64)];
        match mode.nav_pick(&rem, &entries) {
            NavPick::Slot(slot) => assert_eq!(slot, 7, "picked an entry with no live target"),
            NavPick::Earliest => panic!("a live entry existed"),
        }

        // With no live remainder in any entry's region the pick falls back
        // to the conservative sweep instead of a wasted jump.
        let far_only = vec![(7u32, m)];
        let rem_outside = vec![HcRange::new(1, 1)];
        assert!(matches!(
            mode.nav_pick(&rem_outside, &far_only),
            NavPick::Earliest
        ));
    }

    /// Drives a conservative 10NN query at `q` twice from `tuner()`: lazy
    /// and audited, then eager (floor 0, narrowing at full resolution).
    /// Asserts both answer like brute force with equal stats, refreshes
    /// and peak candidates; returns the lazy and the eager probe.
    fn lazy_reads_like_eager<'a>(
        air: &'a DsiAir,
        ds: &SpatialDataset,
        q: Point,
        tuner: impl Fn() -> Tuner<'a, DsiPacket>,
        what: &str,
    ) -> (KnnProbe, KnnProbe) {
        let run = |eager: bool| {
            let mut tuner = tuner();
            let mut mode = KnnMode::new(air, q, 10, KnnStrategy::Conservative);
            if eager {
                mode.floor = 0;
            }
            run_query(air, &mut tuner, &mut mode, !eager);
            (mode.cands.result_ids(), tuner.stats(), mode.probe)
        };
        let (ids, stats, lazy) = run(false);
        let (want_ids, want_stats, exact) = run(true);
        assert_eq!(ids, ds.brute_knn(q, 10), "{what}");
        assert_eq!(ids, want_ids, "{what}");
        assert_eq!(stats, want_stats, "{what}");
        assert_eq!(lazy.refreshes, exact.refreshes, "{what}");
        assert_eq!(lazy.peak_cands, exact.peak_cands, "{what}");
        (lazy, exact)
    }

    /// Lazy narrowing changes no decision. The audited drive asserts
    /// every remainder read equal to the same read on the exact
    /// decomposition minus the oracle cleared set; the drive must also
    /// match, read for read, an eager one whose floor of 0 narrows at
    /// full resolution — one channel and four, lossless and lossy.
    #[test]
    fn lazy_targets_read_like_exact_ones() {
        use dsi_broadcast::{AntennaConfig, ChannelConfig};

        let ds = SpatialDataset::build(&uniform(1200, 13), 9);
        let cases = [
            (ChannelConfig::single(), 1, LossModel::None),
            (ChannelConfig::single(), 1, LossModel::iid(0.3)),
            (ChannelConfig::blocked(4, 1), 2, LossModel::iid(0.2)),
        ];
        for (chan, antennas, loss) in cases {
            let air = DsiAir::try_build_channels(&ds, DsiConfig::paper_reorganized(), chan)
                .expect("the layout builds");
            for (qi, q) in knn_points(3, 23).into_iter().enumerate() {
                let start = (qi as u64 * 7717) % air.program().len();
                let tuner = || {
                    Tuner::tune_in_with(
                        air.program(),
                        start,
                        loss.clone(),
                        qi as u64,
                        AntennaConfig::new(antennas),
                    )
                };
                let what = format!("q{qi} {antennas} antenna(s) {loss:?}");
                let (lazy, exact) = lazy_reads_like_eager(&air, &ds, q, tuner, &what);
                assert!(
                    lazy.total_ranges < exact.total_ranges,
                    "{what}: lazy {} vs exact {} ranges",
                    lazy.total_ranges,
                    exact.total_ranges
                );
            }
        }
    }

    /// The audited drives at the benchmark's geometry: UNIFORM N = 10,000
    /// on the order-12 grid, reorganized DSI at 64 B, so 1,024 frames and
    /// a coarse floor of 6: a floor block is 64 × 64 cells and a path
    /// refinement descends up to six levels. Audited window and 10NN
    /// drives from a dozen tune-ins, on one lossless channel and on four
    /// blocked channels with two antennas under Gilbert–Elliott loss,
    /// answer like brute force, and every 10NN drive reads like the eager
    /// one (floor 0): equal stats, refreshes and peak candidates. Debug
    /// builds run two tune-ins per case.
    #[test]
    fn audited_drives_at_the_benchmark_geometry() {
        use dsi_broadcast::{AntennaConfig, ChannelConfig};
        use dsi_datagen::window_queries;

        let tune_ins = if cfg!(debug_assertions) { 2 } else { 12 };
        let ds = SpatialDataset::build(&uniform(10_000, 1), 12);
        let windows = window_queries(tune_ins, 0.1, 5);
        let points = knn_points(tune_ins, 7);
        let cases = [
            (ChannelConfig::single(), 1, LossModel::None),
            (
                ChannelConfig::blocked(4, 1),
                2,
                LossModel::gilbert(0.02, 0.25, 0.9),
            ),
        ];
        for (chan, antennas, loss) in cases {
            let air = DsiAir::try_build_channels(&ds, DsiConfig::paper_reorganized(), chan)
                .expect("the layout builds");
            assert_eq!(air.layout().n_frames(), 1024);
            assert_eq!(coarse_floor(air.curve(), air.layout().n_frames()), 6);
            for i in 0..tune_ins {
                let what = format!("tune-in {i}, {antennas} antenna(s), {loss:?}");
                let start = (i as u64 * 104_729 + 17) % air.program().len();
                let tuner = || {
                    Tuner::tune_in_with(
                        air.program(),
                        start,
                        loss.clone(),
                        i as u64,
                        AntennaConfig::new(antennas),
                    )
                };
                let w = &windows[i];
                let got = air.window_query_audited(&mut tuner(), w);
                assert_eq!(got, ds.brute_window(w), "window {w:?}, {what}");
                let q = points[i];
                lazy_reads_like_eager(&air, &ds, q, tuner, &format!("10NN at {q:?}, {what}"));
            }
        }
    }

    /// The probe shows the narrowing path holds at most two decompositions
    /// (current + swap buffer) at a time even across many shrinks, while
    /// the epochs together produced far more — the quantity a
    /// never-evicted cache would have retained.
    #[test]
    fn probe_reports_bounded_targets() {
        let ds = SpatialDataset::build(&uniform(500, 11), 9);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let q = Point::new(0.37, 0.61);
        let mut tuner = Tuner::tune_in(air.program(), 29, LossModel::None, 5);
        let (got, probe) = air.knn_query_probed(&mut tuner, q, 10, KnnStrategy::Conservative);
        assert_eq!(got, ds.brute_knn(q, 10));
        assert!(probe.refreshes >= 3, "expected several circle shrinks");
        assert!(
            probe.total_ranges > probe.peak_live_ranges,
            "held ranges must not accumulate across epochs"
        );
        assert!(probe.peak_cands <= 500);
    }
}
