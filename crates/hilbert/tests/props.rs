//! Property tests for the Hilbert kernels: bijectivity, decomposition
//! exactness, and distance lower bounds.

use dsi_geom::{Cell, GridMapper, Point, Rect};
use dsi_hilbert::{
    min_dist2_to_range, narrow_ranges_to_circle_coarse_into, narrow_ranges_to_circle_into,
    ranges_in_cell_rect, ranges_in_circle_with_dist_into, ranges_in_rect, refine_circle_path_into,
    DistRange, HcRange, HilbertCurve,
};
use proptest::prelude::*;

/// Merges HC-adjacent ranges, combining their bounds: the canonical form
/// of a coarse list whose unrefined ranges were refined in place.
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

/// Checks a partially refined coarse decomposition at `r2`: sorted and
/// disjoint; every unrefined range an aligned block that meets the circle
/// and carries its exact block bounds; every circle cell covered, and
/// every cell outside the circle only by an unrefined range.
fn assert_partial_refinement(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    center: Point,
    r2: f64,
    list: &[DistRange],
) {
    for w in list.windows(2) {
        assert!(w[0].range.hi < w[1].range.lo, "unsorted: {w:?}");
    }
    for d in list.iter().filter(|d| d.max_min_d2 > r2) {
        let len = d.range.len();
        assert!(len.is_power_of_two() && len.trailing_zeros() % 2 == 0 && d.range.lo % len == 0);
        assert!(d.min_d2 <= r2, "{d:?} misses the circle");
        let cell_d2 = |h| mapper.cell_rect(curve.d2xy(h)).min_dist2(center);
        let min = (d.range.lo..=d.range.hi)
            .map(cell_d2)
            .fold(f64::INFINITY, f64::min);
        let max = (d.range.lo..=d.range.hi)
            .map(cell_d2)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!((d.min_d2, d.max_min_d2), (min, max), "bounds of {d:?}");
    }
    let mut i = 0;
    for h in 0..=curve.max_d() {
        while i < list.len() && list[i].range.hi < h {
            i += 1;
        }
        let holder = list.get(i).filter(|d| d.range.contains(h));
        let inside = mapper.cell_rect(curve.d2xy(h)).min_dist2(center) <= r2;
        match holder {
            None => assert!(!inside, "circle cell {h} uncovered"),
            Some(d) => assert!(
                inside || d.max_min_d2 > r2,
                "cell {h} outside the circle in {d:?}"
            ),
        }
    }
}

/// Checks a circle decomposition against brute force over every cell:
/// membership (exactly the cells whose extent intersects the closed
/// circle), maximality, and exact distance bounds.
fn assert_circle_decomposition(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    center: Point,
    r2: f64,
    out: &[DistRange],
) {
    for w in out.windows(2) {
        assert!(
            w[0].range.hi + 1 < w[1].range.lo,
            "not maximal: {:?} / {:?}",
            w[0],
            w[1]
        );
    }
    let covered: Vec<u64> = out
        .iter()
        .flat_map(|dr| dr.range.lo..=dr.range.hi)
        .collect();
    let mut want = Vec::new();
    for x in 0..curve.side() {
        for y in 0..curve.side() {
            let cell = Cell::new(x, y);
            if mapper.cell_rect(cell).min_dist2(center) <= r2 {
                want.push(curve.xy2d(cell));
            }
        }
    }
    want.sort_unstable();
    assert_eq!(covered, want, "center {center:?}, r2 {r2}");
    for dr in out {
        let mut min = f64::INFINITY;
        for d in dr.range.lo..=dr.range.hi {
            min = min.min(mapper.cell_rect(curve.d2xy(d)).min_dist2(center));
        }
        assert!(
            (dr.min_d2 - min).abs() < 1e-12,
            "range {:?}: min_d2 {} want {min}",
            dr.range,
            dr.min_d2
        );
        let oracle = min_dist2_to_range(curve, mapper, center, dr.range);
        assert!(
            (dr.min_d2 - oracle).abs() < 1e-12,
            "range {:?}: min_d2 {} differs from branch-and-bound {oracle}",
            dr.range,
            dr.min_d2
        );
    }
}

/// Exhaustive sweep on a small grid: centers on and off the grid (incl.
/// outside the unit square), radii from degenerate 0 through
/// covering-the-grid.
#[test]
fn circle_decomposition_exhaustive_small_grid() {
    let curve = HilbertCurve::new(3);
    let mapper = GridMapper::unit_square(3);
    let mut out = Vec::new();
    for cx in [-0.4, 0.0, 0.125, 0.5, 0.9, 1.0, 1.6] {
        for cy in [-0.2, 0.25, 0.51, 1.3] {
            for r in [0.0, 0.06, 0.125, 0.25, 0.49, 0.8, 1.5, 3.0] {
                let center = Point::new(cx, cy);
                ranges_in_circle_with_dist_into(&curve, &mapper, center, r * r, &mut out);
                assert_circle_decomposition(&curve, &mapper, center, r * r, &out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn xy2d_d2xy_roundtrip(order in 1u8..16, seed in any::<u64>()) {
        let c = HilbertCurve::new(order);
        let d = seed % (c.max_d() + 1);
        prop_assert_eq!(c.xy2d(c.d2xy(d)), d);
    }

    #[test]
    fn neighbours_along_curve(order in 2u8..10, seed in any::<u64>()) {
        let c = HilbertCurve::new(order);
        let d = seed % c.max_d();
        let a = c.d2xy(d);
        let b = c.d2xy(d + 1);
        let manhattan = (a.x as i64 - b.x as i64).abs() + (a.y as i64 - b.y as i64).abs();
        prop_assert_eq!(manhattan, 1);
    }

    #[test]
    fn decomposition_matches_membership(
        order in 2u8..7,
        x0 in 0u32..32, y0 in 0u32..32, w in 0u32..16, h in 0u32..16,
        probe in any::<u64>(),
    ) {
        let c = HilbertCurve::new(order);
        let side = c.side();
        let lo = Cell::new(x0 % side, y0 % side);
        let hi = Cell::new((lo.x + w).min(side - 1), (lo.y + h).min(side - 1));
        let ranges = ranges_in_cell_rect(&c, lo, hi);
        // Ranges are sorted, disjoint, non-adjacent.
        for win in ranges.windows(2) {
            prop_assert!(win[0].hi + 1 < win[1].lo);
        }
        // A random cell is in the rectangle iff its d is in some range.
        let d = probe % (c.max_d() + 1);
        let cell = c.d2xy(d);
        let inside = cell.x >= lo.x && cell.x <= hi.x && cell.y >= lo.y && cell.y <= hi.y;
        let covered = ranges.iter().any(|r| r.contains(d));
        prop_assert_eq!(inside, covered);
        // Total length equals the rectangle's area.
        let total: u64 = ranges.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total, ((hi.x - lo.x + 1) as u64) * ((hi.y - lo.y + 1) as u64));
    }

    #[test]
    fn range_distance_is_exact_lower_bound(
        order in 2u8..6,
        qx in -0.5..1.5f64, qy in -0.5..1.5f64,
        a in any::<u64>(), b in any::<u64>(),
    ) {
        let c = HilbertCurve::new(order);
        let m = GridMapper::unit_square(order);
        let q = Point::new(qx, qy);
        let (mut lo, mut hi) = (a % (c.max_d() + 1), b % (c.max_d() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let range = HcRange::new(lo, hi);
        let got = min_dist2_to_range(&c, &m, q, range);
        // Brute force over every cell in the range.
        let mut want = f64::INFINITY;
        for d in lo..=hi {
            want = want.min(m.cell_rect(c.d2xy(d)).min_dist2(q));
        }
        prop_assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
    }

    #[test]
    fn continuous_window_covers_all_objects(
        order in 3u8..9,
        cx in 0.0..1.0f64, cy in 0.0..1.0f64, side in 0.01..0.5f64,
        px in 0.0..1.0f64, py in 0.0..1.0f64,
    ) {
        let c = HilbertCurve::new(order);
        let m = GridMapper::unit_square(order);
        let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
        let ranges = ranges_in_rect(&c, &m, &w);
        // Any point inside the window has its cell's HC covered.
        let p = Point::new(px, py);
        if w.contains(p) {
            let d = c.xy2d(m.cell_of(p));
            prop_assert!(ranges.iter().any(|r| r.contains(d)),
                "point {p:?} in window but HC {d} uncovered");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn circle_decomposition_matches_brute_force(
        order in 2u8..7,
        cx in -0.5..1.5f64, cy in -0.5..1.5f64,
        r in 0.0..1.2f64,
    ) {
        let curve = HilbertCurve::new(order);
        let mapper = GridMapper::unit_square(order);
        let center = Point::new(cx, cy);
        let mut out = Vec::new();
        ranges_in_circle_with_dist_into(&curve, &mapper, center, r * r, &mut out);
        // No range reaches outside the circle's bounding square.
        let bbox = Rect::bounding_square(center, r);
        for dr in &out {
            for d in [dr.range.lo, dr.range.hi] {
                let cell_rect = mapper.cell_rect(curve.d2xy(d));
                prop_assert!(
                    cell_rect.intersects(&bbox),
                    "cell of HC {d} outside the bounding square"
                );
            }
        }
        assert_circle_decomposition(&curve, &mapper, center, r * r, &out);
    }

    #[test]
    fn narrowing_matches_direct_decomposition(
        order in 2u8..7,
        cx in -0.3..1.3f64, cy in -0.3..1.3f64,
        r_big in 0.05..1.2f64,
        shrink in 0.0..1.0f64,
        // Second step of the shrink chain; the fixed arms are the
        // degenerate radii (a point circle, and no shrink at all).
        shrink2 in prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
        floor in 0u8..6,
        refine_seed in any::<u64>(),
    ) {
        let curve = HilbertCurve::new(order);
        let mapper = GridMapper::unit_square(order);
        let center = Point::new(cx, cy);
        let mut prev = Vec::new();
        ranges_in_circle_with_dist_into(&curve, &mapper, center, r_big * r_big, &mut prev);
        let r_small = r_big * shrink;
        let mut narrowed = Vec::new();
        narrow_ranges_to_circle_into(&curve, &mapper, center, r_small * r_small, &prev, &mut narrowed);
        let mut direct = Vec::new();
        ranges_in_circle_with_dist_into(&curve, &mapper, center, r_small * r_small, &mut direct);
        prop_assert_eq!(&narrowed, &direct);

        // The same chain through coarse narrowings at a floor level:
        // refining every unrefined range — all at once, or one at a time
        // in place in a seeded order — reproduces the direct
        // decomposition at each radius, ranges and both bounds.
        let mut coarse = prev;
        let mut rng = refine_seed;
        for r in [r_small, r_small * shrink2] {
            let r2 = r * r;
            let mut next = Vec::new();
            let unrefined = narrow_ranges_to_circle_coarse_into(
                &curve, &mapper, center, r2, floor, &coarse, &mut next,
            );
            prop_assert_eq!(unrefined, next.iter().filter(|d| d.max_min_d2 > r2).count());
            // Each unrefined range is one aligned block at or below the
            // floor that meets the circle, so refining it stays local.
            for d in next.iter().filter(|d| d.max_min_d2 > r2) {
                let len = d.range.len();
                prop_assert!(len.is_power_of_two() && len.trailing_zeros() % 2 == 0);
                prop_assert!(len <= 1 << (2 * floor) && d.range.lo % len == 0, "{:?}", d);
                prop_assert!(d.min_d2 <= r2);
            }
            ranges_in_circle_with_dist_into(&curve, &mapper, center, r2, &mut direct);
            let mut all = Vec::new();
            narrow_ranges_to_circle_into(&curve, &mapper, center, r2, &next, &mut all);
            prop_assert_eq!(&all, &direct);
            // Refine a seeded half of the unrefined ranges in place (the
            // list the next step narrows), then the rest.
            let mut pieces = Vec::new();
            for pass in 0..2 {
                let mut i = next.len();
                while i > 0 {
                    i -= 1;
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if next[i].max_min_d2 <= r2 || (pass == 0 && rng >> 63 == 0) {
                        continue;
                    }
                    narrow_ranges_to_circle_into(&curve, &mapper, center, r2, &next[i..=i], &mut pieces);
                    next.splice(i..=i, pieces.iter().copied());
                }
                if pass == 0 {
                    coarse = next.clone();
                }
            }
            prop_assert_eq!(merge_adjacent(&next), direct.clone());
        }

        // The client's chain, refined a path at a time: from the whole
        // space, each radius narrows the list the previous one left,
        // then path-refines unrefined ranges toward seeded cells (a
        // seeded share of them, all of them at the last radius).
        let radii = [r_big, r_small, r_small * shrink2];
        let mut list = vec![DistRange {
            range: HcRange::new(0, curve.max_d()),
            min_d2: 0.0,
            max_min_d2: f64::INFINITY,
        }];
        let (mut next, mut pieces) = (Vec::new(), Vec::new());
        for (step, r) in radii.into_iter().enumerate() {
            let r2 = r * r;
            let mut unrefined = narrow_ranges_to_circle_coarse_into(
                &curve, &mapper, center, r2, floor, &list, &mut next,
            );
            std::mem::swap(&mut list, &mut next);
            assert_partial_refinement(&curve, &mapper, center, r2, &list);
            let last = step + 1 == radii.len();
            while unrefined > 0 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if !last && rng >> 62 == 0 {
                    break;
                }
                let open: Vec<usize> = (0..list.len()).filter(|&i| list[i].max_min_d2 > r2).collect();
                let i = open[(rng >> 33) as usize % open.len()];
                let hc = list[i].range.lo + (rng >> 7) % list[i].range.len();
                let n = refine_circle_path_into(&curve, &mapper, center, r2, list[i], hc, &mut pieces);
                prop_assert!(pieces.iter().filter(|d| d.range.contains(hc)).all(|d| d.max_min_d2 <= r2));
                list.splice(i..=i, pieces.iter().copied());
                unrefined = unrefined - 1 + n;
                prop_assert_eq!(unrefined, list.iter().filter(|d| d.max_min_d2 > r2).count());
                assert_partial_refinement(&curve, &mapper, center, r2, &list);
            }
            if last {
                ranges_in_circle_with_dist_into(&curve, &mapper, center, r2, &mut direct);
                prop_assert_eq!(merge_adjacent(&list), direct.clone());
            }
        }
    }
}
