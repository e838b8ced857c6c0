//! The Hilbert curve cell↔position mapping.

use dsi_geom::Cell;

/// Quadrant traversal tables of the 2D Hilbert curve: `CHILD_ORDER[s][k]`
/// is the `(dx, dy)` offset of the k-th child visited by the curve in
/// orientation `s`, and `CHILD_STATE[s][k]` that child's orientation.
/// State 0 is the root orientation at every order (the order-1 curve
/// visits `(0,0) (0,1) (1,1) (1,0)`). These tables are the one source of
/// the curve's geometry: the conversions below walk them digit by digit,
/// and the decompositions descend through them in curve order, carrying
/// each block's first HC value down the recursion so that emissions
/// arrive sorted (no per-block `block_base`, no final sort, no merge
/// pass).
pub(crate) const CHILD_ORDER: [[(u32, u32); 4]; 4] = [
    [(0, 0), (0, 1), (1, 1), (1, 0)],
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(1, 1), (0, 1), (0, 0), (1, 0)],
    [(1, 1), (1, 0), (0, 0), (0, 1)],
];
pub(crate) const CHILD_STATE: [[u8; 4]; 4] =
    [[1, 0, 0, 2], [0, 1, 1, 3], [3, 2, 2, 0], [2, 3, 3, 1]];

/// The inverse of [`CHILD_ORDER`]: `CHILD_INDEX[s][2·dx + dy]` is the
/// visiting position of the child at offset `(dx, dy)` in orientation `s`.
const CHILD_INDEX: [[u8; 4]; 4] = invert(CHILD_ORDER);

const fn invert(order: [[(u32, u32); 4]; 4]) -> [[u8; 4]; 4] {
    let mut inv = [[0u8; 4]; 4];
    let mut s = 0;
    while s < 4 {
        let mut k = 0;
        while k < 4 {
            let (dx, dy) = order[s][k];
            inv[s][(2 * dx + dy) as usize] = k as u8;
            k += 1;
        }
        s += 1;
    }
    inv
}

/// A Hilbert curve of a given order over the `2^order × 2^order` grid.
///
/// Positions along the curve ("HC values", `d`) run from `0` to
/// `4^order - 1`. Both conversions walk the base-4 digits of `d` from the
/// root down through the quadrant traversal tables, one table read per
/// level, so they cost `O(order)` with no data-dependent branch: constant
/// time for any fixed curve (the paper's `[12]`). The decompositions
/// descend through the same tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve {
    order: u8,
}

impl HilbertCurve {
    /// Creates a curve of the given order.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= order <= 31` (31 keeps `d` within `u64` and cell
    /// coordinates within `u32`).
    pub fn new(order: u8) -> Self {
        assert!(
            (1..=31).contains(&order),
            "Hilbert order must be in 1..=31, got {order}"
        );
        Self { order }
    }

    /// The order of the curve.
    #[inline]
    pub fn order(&self) -> u8 {
        self.order
    }

    /// Number of cells per grid side (`2^order`).
    #[inline]
    pub fn side(&self) -> u32 {
        1u32 << self.order
    }

    /// The largest HC value on the curve (`4^order - 1`).
    #[inline]
    pub fn max_d(&self) -> u64 {
        (1u64 << (2 * self.order)) - 1
    }

    /// Maps a grid cell to its position along the curve.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the cell lies outside the grid.
    pub fn xy2d(&self, cell: Cell) -> u64 {
        debug_assert!(
            cell.x < self.side() && cell.y < self.side(),
            "cell {cell:?} outside order-{} grid",
            self.order
        );
        let (mut d, mut state) = (0u64, 0usize);
        for l in (0..self.order).rev() {
            let quad = 2 * ((cell.x >> l) & 1) + ((cell.y >> l) & 1);
            let k = CHILD_INDEX[state][quad as usize] as usize;
            d = (d << 2) | k as u64;
            state = CHILD_STATE[state][k] as usize;
        }
        d
    }

    /// Maps a position along the curve back to its grid cell.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `d` exceeds [`HilbertCurve::max_d`].
    pub fn d2xy(&self, d: u64) -> Cell {
        debug_assert!(
            d <= self.max_d(),
            "d {d} outside order-{} curve",
            self.order
        );
        let (x, y, _) = self.block_of(d, 0);
        Cell::new(x, y)
    }

    /// The aligned block of side `2^level` whose HC span holds `d`, as
    /// `(x0, y0, orientation)`: its lower-left cell and the traversal
    /// state the curve enters it in. Walks the digits of `d` above
    /// `level` through the traversal tables.
    #[inline]
    pub(crate) fn block_of(&self, d: u64, level: u8) -> (u32, u32, u8) {
        debug_assert!(level <= self.order);
        let (mut x, mut y, mut state) = (0u32, 0u32, 0usize);
        for l in (level..self.order).rev() {
            let k = ((d >> (2 * l)) & 3) as usize;
            let (dx, dy) = CHILD_ORDER[state][k];
            x = (x << 1) | dx;
            y = (y << 1) | dy;
            state = CHILD_STATE[state][k] as usize;
        }
        (x << level, y << level, state as u8)
    }

    /// The HC value of the *entry cell* of the aligned block of side
    /// `2^level` containing `cell` — i.e. the smallest `d` in that block.
    ///
    /// Every grid-aligned `2^level × 2^level` block is traversed contiguously
    /// by the Hilbert curve, so its positions form the interval
    /// `[block_base, block_base + 4^level - 1]`. This identity is what makes
    /// the window decomposition emit exact, maximal ranges.
    #[inline]
    pub fn block_base(&self, cell: Cell, level: u8) -> u64 {
        debug_assert!(level <= self.order);
        let d = self.xy2d(cell);
        let span = 1u64 << (2 * level);
        d & !(span - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classical iterative rotate-and-accumulate converter (Moore's,
    /// the paper's `[12]`) that the table walks replaced, operating on one
    /// bit of each coordinate per step: the reference they are checked
    /// against.
    mod rotate_oracle {
        use dsi_geom::Cell;

        pub fn xy2d(order: u8, cell: Cell) -> u64 {
            let (mut x, mut y) = (cell.x, cell.y);
            let mut d: u64 = 0;
            let mut s: u32 = (1u32 << order) >> 1;
            while s > 0 {
                let rx = u32::from(x & s > 0);
                let ry = u32::from(y & s > 0);
                d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
                rotate(s, &mut x, &mut y, rx, ry);
                s >>= 1;
            }
            d
        }

        pub fn d2xy(order: u8, d: u64) -> Cell {
            let (mut x, mut y) = (0u32, 0u32);
            let mut t = d;
            let mut s: u32 = 1;
            while s < 1u32 << order {
                let rx = (1 & (t >> 1)) as u32;
                let ry = (1 & (t ^ rx as u64)) as u32;
                rotate(s, &mut x, &mut y, rx, ry);
                x += s * rx;
                y += s * ry;
                t >>= 2;
                s <<= 1;
            }
            Cell::new(x, y)
        }

        /// The quadrant rotation/reflection step shared by both
        /// conversions.
        fn rotate(s: u32, x: &mut u32, y: &mut u32, rx: u32, ry: u32) {
            if ry == 0 {
                if rx == 1 {
                    *x = s.wrapping_sub(1).wrapping_sub(*x);
                    *y = s.wrapping_sub(1).wrapping_sub(*y);
                }
                core::mem::swap(x, y);
            }
        }
    }

    /// SplitMix64: a fixed, seedable bit stream for the sampled checks.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn conversions_match_rotate_oracle_exhaustively() {
        for order in 1..=8u8 {
            let c = HilbertCurve::new(order);
            for d in 0..=c.max_d() {
                // The oracle is a bijection, so this visits every cell.
                let cell = rotate_oracle::d2xy(order, d);
                assert_eq!(c.d2xy(d), cell, "d2xy({d}) at order {order}");
                assert_eq!(
                    c.xy2d(cell),
                    rotate_oracle::xy2d(order, cell),
                    "xy2d({cell:?}) at order {order}"
                );
            }
        }
    }

    #[test]
    fn conversions_match_rotate_oracle_on_sampled_inputs() {
        let mut rng = 0x5eed;
        for order in [12u8, 16, 31] {
            let c = HilbertCurve::new(order);
            let mask = c.side() - 1;
            for _ in 0..1_000_000 {
                let d = splitmix(&mut rng) & c.max_d();
                assert_eq!(
                    c.d2xy(d),
                    rotate_oracle::d2xy(order, d),
                    "d2xy({d}) at order {order}"
                );
                let bits = splitmix(&mut rng);
                let cell = Cell::new(bits as u32 & mask, (bits >> 32) as u32 & mask);
                assert_eq!(
                    c.xy2d(cell),
                    rotate_oracle::xy2d(order, cell),
                    "xy2d({cell:?}) at order {order}"
                );
            }
        }
    }

    #[test]
    fn block_of_is_the_aligned_block_holding_d() {
        let c = HilbertCurve::new(4);
        for d in 0..=c.max_d() {
            let cell = c.d2xy(d);
            for level in 0..=4u8 {
                let (x0, y0, _) = c.block_of(d, level);
                assert_eq!(
                    (x0, y0),
                    (cell.x >> level << level, cell.y >> level << level)
                );
                assert_eq!(
                    c.block_base(Cell::new(x0, y0), level),
                    d >> (2 * level) << (2 * level)
                );
            }
        }
    }

    #[test]
    fn order_one_square() {
        // The order-1 curve visits (0,0) (0,1) (1,1) (1,0).
        let c = HilbertCurve::new(1);
        let expected = [(0, 0), (0, 1), (1, 1), (1, 0)];
        for (d, &(x, y)) in expected.iter().enumerate() {
            assert_eq!(c.d2xy(d as u64), Cell::new(x, y));
            assert_eq!(c.xy2d(Cell::new(x, y)), d as u64);
        }
    }

    #[test]
    fn paper_running_example_value() {
        // Paper §2.1: on the order-3 curve, point (1,1) has HC value 2.
        let c = HilbertCurve::new(3);
        assert_eq!(c.xy2d(Cell::new(1, 1)), 2);
    }

    #[test]
    fn bijective_on_small_orders() {
        for order in 1..=5u8 {
            let c = HilbertCurve::new(order);
            let mut seen = vec![false; (c.max_d() + 1) as usize];
            for x in 0..c.side() {
                for y in 0..c.side() {
                    let d = c.xy2d(Cell::new(x, y));
                    assert!(!seen[d as usize], "duplicate d={d} at ({x},{y})");
                    seen[d as usize] = true;
                    assert_eq!(c.d2xy(d), Cell::new(x, y));
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn consecutive_positions_are_grid_neighbours() {
        // The defining locality property of the Hilbert curve.
        let c = HilbertCurve::new(5);
        let mut prev = c.d2xy(0);
        for d in 1..=c.max_d() {
            let cur = c.d2xy(d);
            let manhattan =
                (cur.x as i64 - prev.x as i64).abs() + (cur.y as i64 - prev.y as i64).abs();
            assert_eq!(manhattan, 1, "jump at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn block_base_is_min_of_block() {
        let c = HilbertCurve::new(4);
        for level in 0..=4u8 {
            let bs = 1u32 << level;
            for bx in (0..c.side()).step_by(bs as usize) {
                for by in (0..c.side()).step_by(bs as usize) {
                    let base = c.block_base(Cell::new(bx, by), level);
                    let mut min_d = u64::MAX;
                    for x in bx..bx + bs {
                        for y in by..by + bs {
                            min_d = min_d.min(c.xy2d(Cell::new(x, y)));
                        }
                    }
                    assert_eq!(base, min_d, "level {level} block ({bx},{by})");
                }
            }
        }
    }

    #[test]
    fn max_d_matches_area() {
        assert_eq!(HilbertCurve::new(3).max_d(), 63);
        assert_eq!(HilbertCurve::new(16).max_d(), (1u64 << 32) - 1);
    }

    #[test]
    #[should_panic(expected = "Hilbert order")]
    fn order_32_rejected() {
        let _ = HilbertCurve::new(32);
    }
}
