//! Decomposition of a query window into contiguous Hilbert ranges.
//!
//! "The window query algorithm first detects all the intersections between
//! the HC and the boundary of W" (paper §3.3): all curve segments inside the
//! window form the *target segments set* `H`. We compute `H` exactly by
//! descending the quadtree of grid-aligned blocks: a block fully inside the
//! window contributes its whole (contiguous) HC interval; a block partially
//! overlapping is split into its four children; disjoint blocks are pruned.
//! Adjacent intervals are then merged so the result is the minimal set of
//! maximal segments.

use dsi_geom::{Cell, GridMapper, Point, Rect};

use crate::curve::{HilbertCurve, CHILD_ORDER, CHILD_STATE};

/// An inclusive interval `[lo, hi]` of Hilbert values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HcRange {
    /// Smallest HC value of the segment.
    pub lo: u64,
    /// Largest HC value of the segment (inclusive).
    pub hi: u64,
}

impl HcRange {
    /// Creates a range; `lo` must not exceed `hi`.
    #[inline]
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi, "invalid HC range [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Whether `d` lies inside the range.
    #[inline]
    pub fn contains(&self, d: u64) -> bool {
        self.lo <= d && d <= self.hi
    }

    /// Whether the two inclusive ranges share a value.
    #[inline]
    pub fn overlaps(&self, other: &HcRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Number of HC values covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Inclusive ranges are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Computes the target segment set `H` for a continuous query window.
///
/// `rect` is intersected with the grid; cells whose extent intersects the
/// window are included (an object anywhere in such a cell may satisfy the
/// query). Returns maximal disjoint ranges in ascending order; empty if the
/// window misses the grid.
pub fn ranges_in_rect(curve: &HilbertCurve, mapper: &GridMapper, rect: &Rect) -> Vec<HcRange> {
    match mapper.cells_overlapping(rect) {
        Some((lo, hi)) => ranges_in_cell_rect(curve, lo, hi),
        None => Vec::new(),
    }
}

/// Computes the maximal HC ranges covering exactly the inclusive cell
/// rectangle `[lo.x, hi.x] × [lo.y, hi.y]`.
pub fn ranges_in_cell_rect(curve: &HilbertCurve, lo: Cell, hi: Cell) -> Vec<HcRange> {
    assert!(lo.x <= hi.x && lo.y <= hi.y, "inverted cell rectangle");
    let mut out = Vec::new();
    descend(0, 0, curve.order(), 0, 0, lo, hi, &mut out);
    out
}

/// A decomposed HC range annotated with exact squared cell-distance bounds
/// from the query point: `min_d2` is the smallest and `max_min_d2` the
/// largest *cell* minimum distance over the range. The bounds classify a
/// range against a shrinking circle without re-descending: `min_d2 > r2`
/// means every cell left the circle (drop), `max_min_d2 <= r2` means every
/// cell is still in it (keep verbatim), and only ranges in between — those
/// with cells inside the shrink annulus — need re-splitting. Both bounds
/// are partition-independent (the extreme cell's coordinates are evaluated
/// with the same expressions regardless of which aligned block emitted
/// it), so a narrowed decomposition is bit-identical to a direct one.
///
/// In a *coarse* decomposition at radius `r2` (see
/// [`narrow_ranges_to_circle_coarse_into`]) a range with
/// `max_min_d2 > r2` is **unrefined**: one aligned block that straddles
/// the circle, kept whole with its exact block bounds. An exact range
/// never satisfies that test, so no flag is needed to tell them apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistRange {
    /// The HC interval.
    pub range: HcRange,
    /// Exact minimum squared distance from the query point to any cell of
    /// the range.
    pub min_d2: f64,
    /// Exact maximum over the range's cells of each cell's minimum squared
    /// distance — the radius below which the range must be re-split.
    pub max_min_d2: f64,
}

/// Decomposes the closed circle `dist2(center, ·) <= r2` directly into
/// maximal HC ranges, pruning during the descent (paper §3.4: the kNN
/// search space is a circle, not its bounding square).
///
/// The produced ranges cover **exactly** the cells whose extent intersects
/// the circle (`min_dist2 <= r2`); quadrants whose minimum distance exceeds
/// `r2` are pruned before recursion, so — unlike decomposing the bounding
/// square and filtering afterwards — no work is spent on the ~21% of the
/// square provably outside the circle. Output is sorted, disjoint,
/// non-adjacent, and each range carries its exact distance bounds.
pub fn ranges_in_circle_with_dist_into(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    center: Point,
    r2: f64,
    out: &mut Vec<DistRange>,
) {
    out.clear();
    let clip = HcRange::new(0, curve.max_d());
    let ctx = CircleCtx::new(mapper, center, r2, 0);
    circle_descend::<false>(&ctx, 0, 0, curve.order(), 0, 0, clip, out);
}

/// Narrows a previous circle decomposition to a smaller circle (the kNN
/// search space only ever shrinks). Ranges whose every cell left the
/// circle (`min_d2 > r2`) are dropped, ranges whose every cell is still
/// inside (`max_min_d2 <= r2`) are copied verbatim, and only ranges with
/// cells in the shrink annulus are re-split — by a clipped descent that
/// starts at the range's containing block (integer jump, no root walk).
/// The cost therefore scales with the size of the *shrink*, not with the
/// circle.
///
/// `prev` must be a decomposition produced by
/// [`ranges_in_circle_with_dist_into`] or by a previous (coarse or exact)
/// narrowing, for the same `center` and a radius `>= r2`; the result then
/// equals the direct decomposition at `r2` exactly, distances included.
/// Narrowing a coarse decomposition at its *own* radius is how it is
/// refined: every unrefined range is re-split, every exact one kept.
pub fn narrow_ranges_to_circle_into(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    center: Point,
    r2: f64,
    prev: &[DistRange],
    out: &mut Vec<DistRange>,
) {
    let unrefined = narrow_ranges_to_circle_coarse_into(curve, mapper, center, r2, 0, prev, out);
    debug_assert_eq!(unrefined, 0, "a floor-0 narrowing is exact");
}

/// [`narrow_ranges_to_circle_into`] with a coarse floor: the re-splitting
/// descent stops at blocks of level `floor`. A block of at most that level
/// that lies inside a re-split range and straddles the circle is emitted
/// whole, as one **unrefined** range (`max_min_d2 > r2`) with its exact
/// block bounds; it is never merged with a neighbour. Blocks fully inside
/// the circle are emitted exactly as the full-resolution descent emits
/// them, and exact ranges stay maximal among themselves. Returns the
/// number of unrefined ranges in `out`.
///
/// The result covers a superset of the circle's cells; narrowing it at
/// `r2` with floor 0 ([`narrow_ranges_to_circle_into`]) reproduces the
/// direct decomposition bit-for-bit, and so does refining its unrefined
/// ranges a path at a time ([`refine_circle_path_into`]), in any order,
/// until none is left, as long as each range's pieces replace it in
/// place. Such a partially refined list may hold adjacent exact ranges;
/// any later narrowing merges them again.
pub fn narrow_ranges_to_circle_coarse_into(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    center: Point,
    r2: f64,
    floor: u8,
    prev: &[DistRange],
    out: &mut Vec<DistRange>,
) -> usize {
    out.clear();
    let ctx = CircleCtx::new(mapper, center, r2, floor);
    if floor == 0 {
        narrow::<false>(curve, &ctx, prev, out);
        return 0;
    }
    narrow::<true>(curve, &ctx, prev, out);
    out.iter().filter(|d| d.max_min_d2 > r2).count()
}

/// Refines one **unrefined** range `block` of a coarse decomposition at
/// its own radius `r2`, along the path to the HC value `hc` it holds, and
/// writes its pieces to `out` in HC order. Returns how many of them are
/// unrefined.
///
/// The block is split level by level. At each level the three children
/// off the path are classified whole, with their exact block bounds:
/// dropped when no cell meets the circle (`min_d2 > r2`), exact when
/// every cell does (`max_min_d2 <= r2`, as for any single cell that meets
/// it), and otherwise left as one unrefined block. The path child
/// is split in turn until it is exact or dropped, so the piece holding
/// `hc`, if any, is exact. Exact pieces are merged among themselves, so a
/// read costs one short descent per level of the block instead of the
/// whole block's decomposition. The unrefined pieces are aligned blocks
/// that meet the circle, smaller than `block`, and the next narrowing
/// re-splits them like any other.
///
/// # Panics
///
/// Panics in debug builds unless `block` is an aligned block holding
/// `hc` that straddles the circle (`min_d2 <= r2 < max_min_d2`).
pub fn refine_circle_path_into(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    center: Point,
    r2: f64,
    block: DistRange,
    hc: u64,
    out: &mut Vec<DistRange>,
) -> usize {
    out.clear();
    debug_assert!(block.range.contains(hc), "{hc} outside {block:?}");
    debug_assert!(
        block.min_d2 <= r2 && block.max_min_d2 > r2,
        "{block:?} is not unrefined at {r2}"
    );
    let (x0, y0, level, state, base) = block_containing(curve, block.range);
    debug_assert!(
        base == block.range.lo && block.range.len() == 1 << (2 * level),
        "{block:?} is not an aligned block"
    );
    let ctx = CircleCtx::new(mapper, center, r2, 0);
    path_descend(&ctx, x0, y0, level, state, base, hc, out);
    out.iter().filter(|d| d.max_min_d2 > r2).count()
}

/// One level of [`refine_circle_path_into`]: splits the straddling block
/// `(x0, y0, level, state, base)` into its children in curve order and
/// descends only into the child holding `hc`.
#[allow(clippy::too_many_arguments)]
fn path_descend(
    ctx: &CircleCtx,
    x0: u32,
    y0: u32,
    level: u8,
    state: u8,
    base: u64,
    hc: u64,
    out: &mut Vec<DistRange>,
) {
    debug_assert!(level > 0, "a cell meeting the circle is exact");
    let half = 1u32 << (level - 1);
    let child_shift = 2 * (level - 1);
    let path = ((hc - base) >> child_shift) as usize;
    let s = state as usize;
    for (k, &(dx, dy)) in CHILD_ORDER[s].iter().enumerate() {
        let (cx, cy) = (x0 + dx * half, y0 + dy * half);
        let min_d2 = ctx.block_min_d2(cx, cy, half);
        if min_d2 > ctx.r2 {
            continue;
        }
        let lo = base + ((k as u64) << child_shift);
        let dr = DistRange {
            range: HcRange::new(lo, lo + (1u64 << child_shift) - 1),
            min_d2,
            max_min_d2: ctx.block_max_min_d2(cx, cy, half),
        };
        if dr.max_min_d2 <= ctx.r2 {
            emit_dist_range::<true>(out, dr, ctx.r2);
        } else if k == path {
            let child_state = CHILD_STATE[s][k];
            path_descend(ctx, cx, cy, level - 1, child_state, lo, hc, out);
        } else {
            out.push(dr);
        }
    }
}

/// The narrowing loop; `COARSE` says whether `ctx` has a nonzero floor,
/// so the exact path pays nothing for unrefined ranges.
fn narrow<const COARSE: bool>(
    curve: &HilbertCurve,
    ctx: &CircleCtx,
    prev: &[DistRange],
    out: &mut Vec<DistRange>,
) {
    for &dr in prev {
        if dr.min_d2 > ctx.r2 {
            continue;
        }
        if dr.max_min_d2 <= ctx.r2 {
            // A kept range goes through the merging emitter: after an
            // unrefined neighbour was refined in place it may touch the
            // last emitted range. Maximality of a fully exact `prev`
            // makes the merge a no-op there.
            emit_dist_range::<COARSE>(out, dr, ctx.r2);
        } else {
            let (x0, y0, level, state, base) = block_containing(curve, dr.range);
            circle_descend::<COARSE>(ctx, x0, y0, level, state, base, dr.range, out);
        }
    }
}

/// Appends an exact range, merging it into the previous one when that is
/// exact too and HC-adjacent (bounds combine by min/max — the cells of
/// both ranges are all kept). An unrefined previous range (one with
/// `max_min_d2 > r2`, only ever emitted when `COARSE`) is never merged
/// into.
fn emit_dist_range<const COARSE: bool>(out: &mut Vec<DistRange>, dr: DistRange, r2: f64) {
    if let Some(last) = out.last_mut() {
        if last.range.hi + 1 == dr.range.lo && (!COARSE || last.max_min_d2 <= r2) {
            last.range.hi = dr.range.hi;
            last.min_d2 = last.min_d2.min(dr.min_d2);
            last.max_min_d2 = last.max_min_d2.max(dr.max_min_d2);
            return;
        }
    }
    out.push(dr);
}

/// Grid geometry and query constants of one circle descent, hoisted out
/// of the recursion: `cell_side` divides once here instead of once per
/// visited block. All coordinate expressions stay of the
/// `origin + index × cell_side` form [`GridMapper::cell_rect`] uses, so
/// distances remain bit-identical to cell-level evaluation.
struct CircleCtx {
    ox: f64,
    oy: f64,
    s: f64,
    cx: f64,
    cy: f64,
    r2: f64,
    /// Blocks of at most this level that straddle the circle are emitted
    /// unrefined (0: full resolution).
    floor: u8,
}

impl CircleCtx {
    fn new(mapper: &GridMapper, center: Point, r2: f64, floor: u8) -> Self {
        let o = mapper.origin();
        Self {
            ox: o.x,
            oy: o.y,
            s: mapper.cell_side(),
            cx: center.x,
            cy: center.y,
            r2,
            floor,
        }
    }

    /// Exact minimum squared distance from the query point to the block's
    /// cell extent.
    #[inline]
    fn block_min_d2(&self, x0: u32, y0: u32, bs: u32) -> f64 {
        let dx = (self.ox + x0 as f64 * self.s - self.cx)
            .max(self.cx - (self.ox + (x0 + bs) as f64 * self.s))
            .max(0.0);
        let dy = (self.oy + y0 as f64 * self.s - self.cy)
            .max(self.cy - (self.oy + (y0 + bs) as f64 * self.s))
            .max(0.0);
        dx * dx + dy * dy
    }

    /// The largest cell minimum distance of the block: attained at the
    /// corner cell farthest from the query point, whose near edges are
    /// `origin + index × cell_side` for the extreme cell indices — the
    /// value is identical no matter which block partition emitted the
    /// cell.
    #[inline]
    fn block_max_min_d2(&self, x0: u32, y0: u32, bs: u32) -> f64 {
        let dx = (self.ox + (x0 + bs - 1) as f64 * self.s - self.cx)
            .max(self.cx - (self.ox + (x0 + 1) as f64 * self.s))
            .max(0.0);
        let dy = (self.oy + (y0 + bs - 1) as f64 * self.s - self.cy)
            .max(self.cy - (self.oy + (y0 + 1) as f64 * self.s))
            .max(0.0);
        dx * dx + dy * dy
    }
}

/// Curve-order block descent over the circle `dist2(center, ·) <= r2`,
/// restricted to HC values in `clip`. Prunes blocks whose minimum distance
/// exceeds `r2` *before* recursing; emits a whole block as soon as every
/// one of its cells meets both the clip interval and the circle, or — at
/// or below the context's floor level — as soon as the block lies inside
/// the clip (unrefined). Emissions arrive in ascending HC order, so
/// merging is a single look-back.
#[allow(clippy::too_many_arguments)]
fn circle_descend<const COARSE: bool>(
    ctx: &CircleCtx,
    x0: u32,
    y0: u32,
    level: u8,
    state: u8,
    base: u64,
    clip: HcRange,
    out: &mut Vec<DistRange>,
) {
    let span = HcRange::new(base, base + (1u64 << (2 * level)) - 1);
    if !span.overlaps(&clip) {
        return;
    }
    let bs = 1u32 << level;
    let min_d2 = ctx.block_min_d2(x0, y0, bs);
    if min_d2 > ctx.r2 {
        return;
    }
    if clip.lo <= span.lo && span.hi <= clip.hi {
        // A level-0 block is a single cell: overlapping the clip means
        // contained in it, so this branch catches every reached cell and
        // the recursion below never splits one. The cell-max bound is
        // computed only here — pruned and recursed blocks never pay for
        // it. A block whose farthest cell still meets the circle is
        // emitted whole: every one of its cells belongs to the output.
        let max_min_d2 = ctx.block_max_min_d2(x0, y0, bs);
        let dr = DistRange {
            range: span,
            min_d2,
            max_min_d2,
        };
        if level == 0 || max_min_d2 <= ctx.r2 {
            emit_dist_range::<COARSE>(out, dr, ctx.r2);
            return;
        }
        if COARSE && level <= ctx.floor {
            // Straddles the circle at or below the floor: one unrefined
            // range, never merged, refined later only if a reader needs
            // its cells.
            out.push(dr);
            return;
        }
    }
    debug_assert!(level > 0, "a reached cell is always emitted");
    let half = bs >> 1;
    let child_span = 1u64 << (2 * (level - 1));
    let s = state as usize;
    for (k, &(dx, dy)) in CHILD_ORDER[s].iter().enumerate() {
        circle_descend::<COARSE>(
            ctx,
            x0 + dx * half,
            y0 + dy * half,
            level - 1,
            CHILD_STATE[s][k],
            base + k as u64 * child_span,
            clip,
            out,
        );
    }
}

/// The smallest grid-aligned block whose HC span contains `r`, as
/// `(x0, y0, level, orientation, base)`: the digits of `r.lo` above that
/// level, walked down from the root ([`HilbertCurve::block_of`]). Integer
/// work only: this is what lets a clipped circle descent start at the
/// range itself instead of re-descending from the root (the dominant cost
/// of narrowing a decomposition with thousands of ranges).
fn block_containing(curve: &HilbertCurve, r: HcRange) -> (u32, u32, u8, u8, u64) {
    // Base-4 digits in which lo and hi differ = levels that must stay
    // inside the block.
    let diff_bits = 64 - (r.lo ^ r.hi).leading_zeros() as u8;
    let level = diff_bits.div_ceil(2).min(curve.order());
    let (x0, y0, state) = curve.block_of(r.lo, level);
    let base = r.lo & !((1u64 << (2 * level)) - 1);
    (x0, y0, level, state, base)
}

/// Curve-order recursive block descent. `(x0, y0)` is the block's
/// lower-left cell, `level` its log2 side length, `state` its curve
/// orientation and `base` its first HC value. Appends the HC interval of
/// every maximal fully-contained block to `out`; blocks arrive in
/// ascending HC order, so merging a block into an adjacent predecessor
/// with a single look-back leaves `out` maximal and sorted.
#[allow(clippy::too_many_arguments)]
fn descend(
    x0: u32,
    y0: u32,
    level: u8,
    state: u8,
    base: u64,
    lo: Cell,
    hi: Cell,
    out: &mut Vec<HcRange>,
) {
    let bs = 1u32 << level; // block side
    let bx1 = x0 + bs - 1;
    let by1 = y0 + bs - 1;
    // Disjoint from the query rectangle?
    if bx1 < lo.x || x0 > hi.x || by1 < lo.y || y0 > hi.y {
        return;
    }
    // Fully contained: the block's HC interval is contiguous. This also
    // catches every reached level-0 block — a single cell that overlaps
    // the rectangle is inside it — so the recursion below never splits a
    // cell.
    if x0 >= lo.x && bx1 <= hi.x && y0 >= lo.y && by1 <= hi.y {
        let r = HcRange::new(base, base + (1u64 << (2 * level)) - 1);
        match out.last_mut() {
            Some(last) if last.hi + 1 == r.lo => last.hi = r.hi,
            _ => out.push(r),
        }
        return;
    }
    debug_assert!(level > 0, "partial overlap is impossible for single cells");
    let half = bs >> 1;
    let child_span = 1u64 << (2 * (level - 1));
    let s = state as usize;
    for (k, &(dx, dy)) in CHILD_ORDER[s].iter().enumerate() {
        descend(
            x0 + dx * half,
            y0 + dy * half,
            level - 1,
            CHILD_STATE[s][k],
            base + k as u64 * child_span,
            lo,
            hi,
            out,
        );
    }
}

/// Sorts ranges and merges overlapping or adjacent ones in place.
pub fn merge_ranges(ranges: &mut Vec<HcRange>) {
    if ranges.len() <= 1 {
        return;
    }
    ranges.sort_unstable();
    let mut w = 0usize;
    for i in 1..ranges.len() {
        let cur = ranges[i];
        let last = &mut ranges[w];
        // Adjacent (hi + 1 == lo) or overlapping ranges coalesce.
        if cur.lo <= last.hi.saturating_add(1) {
            last.hi = last.hi.max(cur.hi);
        } else {
            w += 1;
            ranges[w] = cur;
        }
    }
    ranges.truncate(w + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_geom::Point;

    fn brute_force(curve: &HilbertCurve, lo: Cell, hi: Cell) -> Vec<u64> {
        let mut ds = Vec::new();
        for x in lo.x..=hi.x {
            for y in lo.y..=hi.y {
                ds.push(curve.xy2d(Cell::new(x, y)));
            }
        }
        ds.sort_unstable();
        ds
    }

    fn expand(ranges: &[HcRange]) -> Vec<u64> {
        let mut ds = Vec::new();
        for r in ranges {
            ds.extend(r.lo..=r.hi);
        }
        ds
    }

    #[test]
    fn full_grid_is_one_range() {
        let c = HilbertCurve::new(4);
        let r = ranges_in_cell_rect(&c, Cell::new(0, 0), Cell::new(15, 15));
        assert_eq!(r, vec![HcRange::new(0, 255)]);
    }

    #[test]
    fn single_cell() {
        let c = HilbertCurve::new(3);
        let d = c.xy2d(Cell::new(5, 2));
        let r = ranges_in_cell_rect(&c, Cell::new(5, 2), Cell::new(5, 2));
        assert_eq!(r, vec![HcRange::new(d, d)]);
    }

    #[test]
    fn matches_brute_force_exhaustively() {
        // Every rectangle of a 8×8 grid.
        let c = HilbertCurve::new(3);
        for x0 in 0..8u32 {
            for y0 in 0..8u32 {
                for x1 in x0..8u32 {
                    for y1 in y0..8u32 {
                        let lo = Cell::new(x0, y0);
                        let hi = Cell::new(x1, y1);
                        let got = expand(&ranges_in_cell_rect(&c, lo, hi));
                        let want = brute_force(&c, lo, hi);
                        assert_eq!(got, want, "rect ({x0},{y0})..({x1},{y1})");
                    }
                }
            }
        }
    }

    #[test]
    fn ranges_are_maximal() {
        let c = HilbertCurve::new(4);
        for (lo, hi) in [
            (Cell::new(1, 1), Cell::new(6, 9)),
            (Cell::new(0, 3), Cell::new(15, 5)),
            (Cell::new(7, 0), Cell::new(9, 15)),
        ] {
            let rs = ranges_in_cell_rect(&c, lo, hi);
            for w in rs.windows(2) {
                assert!(
                    w[0].hi + 1 < w[1].lo,
                    "ranges {:?} and {:?} should have been merged",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn continuous_rect_covers_overlapping_cells() {
        let c = HilbertCurve::new(2);
        let m = GridMapper::unit_square(2);
        // A window well inside cell (1,1)..(2,2) on a 4×4 grid.
        let w = Rect::new(0.3, 0.3, 0.7, 0.7);
        let rs = ranges_in_rect(&c, &m, &w);
        let want = brute_force(&c, Cell::new(1, 1), Cell::new(2, 2));
        assert_eq!(expand(&rs), want);
        // A window outside the grid yields nothing.
        assert!(ranges_in_rect(&c, &m, &Rect::new(2.0, 2.0, 3.0, 3.0)).is_empty());
        // Degenerate (point) window maps to one cell.
        let p = Rect::from_corners(Point::new(0.1, 0.1), Point::new(0.1, 0.1));
        let rs = ranges_in_rect(&c, &m, &p);
        assert_eq!(expand(&rs), vec![c.xy2d(Cell::new(0, 0))]);
    }

    /// Brute-force circle membership: HC values of all cells whose extent
    /// intersects the closed circle, sorted.
    fn brute_circle(c: &HilbertCurve, m: &GridMapper, center: Point, r2: f64) -> Vec<u64> {
        let mut ds = Vec::new();
        for x in 0..c.side() {
            for y in 0..c.side() {
                let cell = Cell::new(x, y);
                if m.cell_rect(cell).min_dist2(center) <= r2 {
                    ds.push(c.xy2d(cell));
                }
            }
        }
        ds.sort_unstable();
        ds
    }

    fn check_circle(c: &HilbertCurve, m: &GridMapper, center: Point, r2: f64) {
        let mut out = Vec::new();
        ranges_in_circle_with_dist_into(c, m, center, r2, &mut out);
        // Sorted, disjoint, non-adjacent (maximal).
        for w in out.windows(2) {
            assert!(
                w[0].range.hi + 1 < w[1].range.lo,
                "ranges {:?} / {:?} not maximal (center {center:?}, r2 {r2})",
                w[0],
                w[1]
            );
        }
        // Exactly the cells intersecting the circle.
        let got: Vec<u64> = out
            .iter()
            .flat_map(|dr| dr.range.lo..=dr.range.hi)
            .collect();
        assert_eq!(
            got,
            brute_circle(c, m, center, r2),
            "membership mismatch (center {center:?}, r2 {r2})"
        );
        // Distance bounds are exact per range: the min and max over the
        // range's cells of each cell's minimum distance.
        for dr in &out {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for d in dr.range.lo..=dr.range.hi {
                let cell_min = m.cell_rect(c.d2xy(d)).min_dist2(center);
                min = min.min(cell_min);
                max = max.max(cell_min);
            }
            assert!(
                (dr.min_d2 - min).abs() < 1e-12,
                "min_d2 of {dr:?}: want {min}"
            );
            assert!(
                (dr.max_min_d2 - max).abs() < 1e-12,
                "max_min_d2 of {dr:?}: want {max}"
            );
        }
    }

    #[test]
    fn circle_matches_brute_force_exhaustively() {
        let c = HilbertCurve::new(3);
        let m = GridMapper::unit_square(3);
        for cx in [-0.2, 0.0, 0.31, 0.5, 0.77, 1.0, 1.4] {
            for cy in [-0.1, 0.12, 0.5, 0.99] {
                for r in [0.0, 0.05, 0.13, 0.3, 0.62, 1.0, 2.0] {
                    check_circle(&c, &m, Point::new(cx, cy), r * r);
                }
            }
        }
    }

    #[test]
    fn circle_degenerate_radii() {
        let c = HilbertCurve::new(4);
        let m = GridMapper::unit_square(4);
        // Zero radius inside a cell: exactly that cell.
        let q = Point::new(0.53, 0.27);
        let mut out = Vec::new();
        ranges_in_circle_with_dist_into(&c, &m, q, 0.0, &mut out);
        let d = c.xy2d(m.cell_of(q));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].range, HcRange::new(d, d));
        assert_eq!(out[0].min_d2, 0.0);
        // Radius covering the whole grid: one full range.
        ranges_in_circle_with_dist_into(&c, &m, q, 10.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].range, HcRange::new(0, c.max_d()));
        assert_eq!(out[0].min_d2, 0.0);
        // Center outside the unit square, circle missing the grid: empty.
        ranges_in_circle_with_dist_into(&c, &m, Point::new(3.0, 3.0), 0.5, &mut out);
        assert!(out.is_empty());
        // Center outside, circle clipping a corner.
        check_circle(&c, &m, Point::new(1.2, 1.2), 0.1);
    }

    /// Merges HC-adjacent ranges, combining their bounds: the canonical
    /// form of a list whose unrefined ranges were refined in place.
    fn merge_adjacent(list: &[DistRange]) -> Vec<DistRange> {
        let mut out: Vec<DistRange> = Vec::new();
        for &dr in list {
            match out.last_mut() {
                Some(last) if last.range.hi + 1 == dr.range.lo => {
                    last.range.hi = dr.range.hi;
                    last.min_d2 = last.min_d2.min(dr.min_d2);
                    last.max_min_d2 = last.max_min_d2.max(dr.max_min_d2);
                }
                _ => out.push(dr),
            }
        }
        out
    }

    /// Refines unrefined ranges of `list` one at a time, in place, each by
    /// a floor-0 narrowing of that range alone. Each of up to `passes`
    /// passes walks the list backwards and refines every `stride`-th
    /// unrefined range it meets, so the order is not HC order.
    fn refine_in_place(
        c: &HilbertCurve,
        m: &GridMapper,
        q: Point,
        r2: f64,
        list: &mut Vec<DistRange>,
        stride: usize,
        passes: usize,
    ) {
        let mut pieces = Vec::new();
        for _ in 0..passes {
            let mut i = list.len();
            let mut seen = 0usize;
            while i > 0 {
                i -= 1;
                if list[i].max_min_d2 <= r2 {
                    continue;
                }
                seen += 1;
                if !(seen - 1).is_multiple_of(stride) {
                    continue;
                }
                narrow_ranges_to_circle_into(c, m, q, r2, &list[i..=i], &mut pieces);
                list.splice(i..=i, pieces.iter().copied());
            }
        }
    }

    /// Checks a partially refined coarse decomposition at `r2`: sorted
    /// and disjoint, exact bounds on every range, every unrefined range
    /// an aligned block at or below the floor that meets the circle, every
    /// exact range inside the circle, and every circle cell covered.
    fn check_partial(
        c: &HilbertCurve,
        m: &GridMapper,
        q: Point,
        r2: f64,
        floor: u8,
        list: &[DistRange],
    ) {
        let what = format!("q {q:?} r2 {r2} floor {floor}");
        for w in list.windows(2) {
            assert!(w[0].range.hi < w[1].range.lo, "{what}: unsorted");
        }
        let mut want = brute_circle(c, m, q, r2);
        for d in list {
            let cells = d.range.lo..=d.range.hi;
            let min = cells
                .clone()
                .map(|h| m.cell_rect(c.d2xy(h)).min_dist2(q))
                .fold(f64::INFINITY, f64::min);
            let max = cells
                .map(|h| m.cell_rect(c.d2xy(h)).min_dist2(q))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((d.min_d2 - min).abs() < 1e-12, "{what}: min_d2 of {d:?}");
            assert!((d.max_min_d2 - max).abs() < 1e-12, "{what}: max of {d:?}");
            if d.max_min_d2 > r2 {
                // Unrefined: one aligned block at or below the floor that
                // meets the circle.
                let len = d.range.len();
                assert!(len.is_power_of_two() && len.trailing_zeros() % 2 == 0);
                assert!(len <= 1 << (2 * floor), "{what}: {d:?} above the floor");
                assert_eq!(d.range.lo % len, 0, "{what}: {d:?} unaligned");
                assert!(d.min_d2 <= r2, "{what}: {d:?} misses the circle");
                want.extend(d.range.lo..=d.range.hi);
            }
        }
        want.sort_unstable();
        want.dedup();
        let got: Vec<u64> = list.iter().flat_map(|d| d.range.lo..=d.range.hi).collect();
        assert_eq!(got, want, "{what}: coverage");
    }

    /// Path-refines up to `budget` unrefined ranges of `list` in place,
    /// each toward a pseudo-random cell of a pseudo-random unrefined
    /// range, checking the list after every step. Returns how many
    /// unrefined ranges are left.
    #[allow(clippy::too_many_arguments)]
    fn path_refine(
        c: &HilbertCurve,
        m: &GridMapper,
        q: Point,
        r2: f64,
        floor: u8,
        list: &mut Vec<DistRange>,
        rng: &mut u64,
        budget: usize,
    ) -> usize {
        let mut pieces = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        for _ in 0..budget {
            open.clear();
            open.extend((0..list.len()).filter(|&i| list[i].max_min_d2 > r2));
            if open.is_empty() {
                break;
            }
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = open[(*rng >> 33) as usize % open.len()];
            let block = list[i];
            let hc = block.range.lo + (*rng >> 11) % block.range.len();
            let n = refine_circle_path_into(c, m, q, r2, block, hc, &mut pieces);
            assert_eq!(n, pieces.iter().filter(|d| d.max_min_d2 > r2).count());
            let holder = pieces.iter().find(|d| d.range.contains(hc));
            assert!(
                holder.is_none_or(|d| d.max_min_d2 <= r2),
                "{hc} left unrefined"
            );
            assert!(pieces
                .iter()
                .all(|d| block.range.lo <= d.range.lo && d.range.hi <= block.range.hi));
            list.splice(i..=i, pieces.iter().copied());
            check_partial(c, m, q, r2, floor, list);
        }
        list.iter().filter(|d| d.max_min_d2 > r2).count()
    }

    /// Checks a coarse decomposition at `r2` against brute force and
    /// against the direct decomposition, refined three ways: all at once,
    /// block by block (the full-block refinement reads once made), and
    /// path by path.
    fn check_coarse(
        c: &HilbertCurve,
        m: &GridMapper,
        q: Point,
        r2: f64,
        floor: u8,
        coarse: &[DistRange],
        unrefined: usize,
    ) {
        let mut direct = Vec::new();
        ranges_in_circle_with_dist_into(c, m, q, r2, &mut direct);
        let what = format!("q {q:?} r2 {r2} floor {floor}");
        assert_eq!(
            unrefined,
            coarse.iter().filter(|d| d.max_min_d2 > r2).count(),
            "{what}"
        );
        check_partial(c, m, q, r2, floor, coarse);
        // Refining everything at once…
        let mut refined = Vec::new();
        narrow_ranges_to_circle_into(c, m, q, r2, coarse, &mut refined);
        assert_eq!(refined, direct, "{what}: refine all");
        // …or range by range, in place and out of order…
        let mut in_place = coarse.to_vec();
        refine_in_place(c, m, q, r2, &mut in_place, 3, 64);
        assert!(in_place.iter().all(|d| d.max_min_d2 <= r2));
        assert_eq!(merge_adjacent(&in_place), direct, "{what}: in place");
        // …or path by path until nothing is unrefined.
        let mut by_path = coarse.to_vec();
        let mut rng = r2.to_bits() ^ u64::from(floor);
        let left = path_refine(c, m, q, r2, floor, &mut by_path, &mut rng, usize::MAX);
        assert_eq!(left, 0);
        assert_eq!(merge_adjacent(&by_path), direct, "{what}: by path");
    }

    #[test]
    fn narrowing_equals_direct_decomposition() {
        let c = HilbertCurve::new(4);
        let m = GridMapper::unit_square(4);
        for (cx, cy) in [
            (0.4, 0.6),
            (0.05, 0.95),
            (-0.2, 0.5),
            (1.1, -0.1),
            (3.0, 3.0),
        ] {
            let q = Point::new(cx, cy);
            let radii = [1.6, 0.9, 0.41, 0.4, 0.17, 0.03, 0.0, 0.0];
            let mut prev = Vec::new();
            ranges_in_circle_with_dist_into(&c, &m, q, radii[0] * radii[0], &mut prev);
            for w in radii.windows(2) {
                let r2 = w[1] * w[1];
                let mut narrowed = Vec::new();
                narrow_ranges_to_circle_into(&c, &m, q, r2, &prev, &mut narrowed);
                let mut direct = Vec::new();
                ranges_in_circle_with_dist_into(&c, &m, q, r2, &mut direct);
                assert_eq!(narrowed, direct, "narrow {} -> {} at {q:?}", w[0], w[1]);
                prev = narrowed;
            }
            // The same shrink chain through coarse narrowings, as the kNN
            // client runs it: seeded with the whole space, each step
            // narrows the previous (partially refined) list.
            for floor in 1..=4 {
                let mut prev = vec![DistRange {
                    range: HcRange::new(0, c.max_d()),
                    min_d2: 0.0,
                    max_min_d2: f64::INFINITY,
                }];
                let mut coarse = Vec::new();
                for &r in &radii[1..] {
                    let r2 = r * r;
                    let unrefined = narrow_ranges_to_circle_coarse_into(
                        &c,
                        &m,
                        q,
                        r2,
                        floor,
                        &prev,
                        &mut coarse,
                    );
                    check_coarse(&c, &m, q, r2, floor, &coarse, unrefined);
                    // Leave the next narrowing a list refined partly by
                    // path and partly by block.
                    let mut rng = r2.to_bits();
                    path_refine(&c, &m, q, r2, floor, &mut coarse, &mut rng, unrefined / 2);
                    refine_in_place(&c, &m, q, r2, &mut coarse, 2, 1);
                    std::mem::swap(&mut prev, &mut coarse);
                }
            }
        }
    }

    #[test]
    fn merge_handles_duplicates_and_adjacency() {
        let mut rs = vec![
            HcRange::new(10, 12),
            HcRange::new(0, 3),
            HcRange::new(4, 6),
            HcRange::new(11, 15),
            HcRange::new(20, 20),
        ];
        merge_ranges(&mut rs);
        assert_eq!(
            rs,
            vec![
                HcRange::new(0, 6),
                HcRange::new(10, 15),
                HcRange::new(20, 20)
            ]
        );
    }

    #[test]
    fn running_example_window() {
        // Reconstruct the paper's Figure 5 example: on the order-3 curve the
        // shaded window produces target segments [10,11], [28,35], [52,53].
        // Those segments correspond to the 2×4 cell block with corners such
        // that the curve enters/leaves three times; we verify our
        // decomposition produces exactly three segments for that block.
        let c = HilbertCurve::new(3);
        // Cells covering HC 10,11,28..35,52,53 — find them by brute force.
        let mut cells = Vec::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                let d = c.xy2d(Cell::new(x, y));
                if (10..=11).contains(&d) || (28..=35).contains(&d) || (52..=53).contains(&d) {
                    cells.push(Cell::new(x, y));
                }
            }
        }
        let min = Cell::new(
            cells.iter().map(|c| c.x).min().unwrap(),
            cells.iter().map(|c| c.y).min().unwrap(),
        );
        let max = Cell::new(
            cells.iter().map(|c| c.x).max().unwrap(),
            cells.iter().map(|c| c.y).max().unwrap(),
        );
        // The cells must form exactly that rectangle for the example to hold.
        assert_eq!(
            ((max.x - min.x + 1) * (max.y - min.y + 1)) as usize,
            cells.len()
        );
        let rs = ranges_in_cell_rect(&c, min, max);
        assert_eq!(
            rs,
            vec![
                HcRange::new(10, 11),
                HcRange::new(28, 35),
                HcRange::new(52, 53)
            ]
        );
    }
}
