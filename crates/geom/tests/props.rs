//! Property tests for the geometry primitives.

use dsi_geom::{dist2, GridMapper, Point, Rect};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-2.0..3.0f64, -2.0..3.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corners(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mindist_is_zero_iff_inside_or_boundary(r in arb_rect(), p in arb_point()) {
        let d = r.min_dist2(p);
        prop_assert!(d >= 0.0);
        if r.contains(p) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    #[test]
    fn mindist_lower_bounds_any_contained_point(r in arb_rect(), p in arb_point(), q in arb_point()) {
        // For any point q inside r, dist(p, q) >= mindist(p, r).
        if r.contains(q) {
            prop_assert!(dist2(p, q) >= r.min_dist2(p) - 1e-12);
        }
    }

    #[test]
    fn maxdist_upper_bounds_any_contained_point(r in arb_rect(), p in arb_point(), q in arb_point()) {
        if r.contains(q) {
            prop_assert!(dist2(p, q) <= r.max_dist2(p) + 1e-12);
        }
    }

    #[test]
    fn union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn intersects_is_symmetric_and_consistent(a in arb_rect(), b in arb_rect(), p in arb_point()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        // A shared point forces intersection.
        if a.contains(p) && b.contains(p) {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn grid_cell_roundtrip(p in (0.0..1.0f64, 0.0..1.0f64), order in 1u8..12) {
        let m = GridMapper::unit_square(order);
        let cell = m.cell_of(Point::new(p.0, p.1));
        let rect = m.cell_rect(cell);
        prop_assert!(rect.contains(Point::new(p.0, p.1)));
        prop_assert_eq!(m.cell_of(m.cell_center(cell)), cell);
    }
}
