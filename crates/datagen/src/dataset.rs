//! The broadcast database: HC-ordered spatial objects.

use std::collections::HashSet;

use dsi_geom::{Cell, GridMapper, Point, Rect};
use dsi_hilbert::HilbertCurve;

/// One data object of the broadcast system. On the air it occupies 1024
/// bytes whose first packet carries `pos` (16 B) and `hc` (16 B); in the
/// simulator we keep the logical fields only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Object {
    /// Stable identifier (index into the source point set).
    pub id: u32,
    /// Exact coordinates.
    pub pos: Point,
    /// Hilbert value of the object's grid cell.
    pub hc: u64,
}

/// A point set snapped onto the Hilbert grid, with **distinct** HC values,
/// sorted in ascending HC order — the default broadcast order of DSI and
/// HCI ("data objects are broadcast in the ascending order of their HC
/// values", §3.1).
///
/// The paper requires a 1-1 correspondence between coordinates and HC
/// values ("the curve has to pass through all the objects"); when two input
/// points collide on one grid cell we relocate the later one to the nearest
/// free cell (and move its coordinates to that cell's centre so the
/// object-inside-its-cell invariant, on which all pruning bounds rest,
/// holds). At the default order (16) collisions are vanishingly rare for
/// the paper's dataset sizes.
#[derive(Debug, Clone)]
pub struct SpatialDataset {
    objects: Vec<Object>,
    curve: HilbertCurve,
    mapper: GridMapper,
}

impl SpatialDataset {
    /// Builds a dataset over the unit square with the given Hilbert order.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or if the grid is too small to give
    /// every object a distinct cell.
    pub fn build(points: &[Point], order: u8) -> Self {
        assert!(!points.is_empty(), "dataset must not be empty");
        let curve = HilbertCurve::new(order);
        let mapper = GridMapper::unit_square(order);
        assert!(
            (points.len() as u64) <= curve.max_d() + 1,
            "grid of order {order} cannot hold {} distinct objects",
            points.len()
        );
        let mut taken: HashSet<u64> = HashSet::with_capacity(points.len());
        let mut objects = Vec::with_capacity(points.len());
        for (id, &pos) in points.iter().enumerate() {
            let cell = mapper.cell_of(pos);
            let hc = curve.xy2d(cell);
            if taken.insert(hc) {
                objects.push(Object {
                    id: id as u32,
                    pos,
                    hc,
                });
            } else {
                let (cell, hc) = nearest_free_cell(&curve, &mapper, cell, &taken);
                taken.insert(hc);
                objects.push(Object {
                    id: id as u32,
                    pos: mapper.cell_center(cell),
                    hc,
                });
            }
        }
        objects.sort_unstable_by_key(|o| o.hc);
        Self {
            objects,
            curve,
            mapper,
        }
    }

    /// Objects in ascending HC order.
    #[inline]
    pub fn objects(&self) -> &[Object] {
        &self.objects
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Datasets are never empty (checked at construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The Hilbert curve objects are ordered by.
    #[inline]
    pub fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    /// The continuous↔grid mapping.
    #[inline]
    pub fn mapper(&self) -> &GridMapper {
        &self.mapper
    }

    /// Ground truth for a window query: ids of objects strictly inside the
    /// closed window, ascending.
    pub fn brute_window(&self, w: &Rect) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .objects
            .iter()
            .filter(|o| w.contains(o.pos))
            .map(|o| o.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Ground truth for a kNN query: ids of the `k` nearest objects to `q`
    /// (ties broken by id), sorted ascending by id.
    pub fn brute_knn(&self, q: Point, k: usize) -> Vec<u32> {
        let mut by_dist: Vec<(f64, u32)> = self
            .objects
            .iter()
            .map(|o| (q.dist2(o.pos), o.id))
            .collect();
        by_dist.sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are not NaN"));
        let mut ids: Vec<u32> = by_dist.iter().take(k).map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// The distance of the `k`-th nearest object (used by tests to detect
    /// tie ambiguity at the answer boundary).
    pub fn kth_dist2(&self, q: Point, k: usize) -> f64 {
        let mut d: Vec<f64> = self.objects.iter().map(|o| q.dist2(o.pos)).collect();
        d.sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are not NaN"));
        d.get(k - 1).copied().unwrap_or(f64::INFINITY)
    }
}

/// Spiral search for the nearest grid cell not yet taken.
fn nearest_free_cell(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    from: Cell,
    taken: &HashSet<u64>,
) -> (Cell, u64) {
    let side = mapper.cells_per_side() as i64;
    for radius in 1..side {
        for dx in -radius..=radius {
            for dy in -radius..=radius {
                if dx.abs().max(dy.abs()) != radius {
                    continue; // ring only
                }
                let x = from.x as i64 + dx;
                let y = from.y as i64 + dy;
                if (0..side).contains(&x) && (0..side).contains(&y) {
                    let cell = Cell::new(x as u32, y as u32);
                    let hc = curve.xy2d(cell);
                    if !taken.contains(&hc) {
                        return (cell, hc);
                    }
                }
            }
        }
    }
    panic!("no free grid cell found — grid saturated");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::uniform;

    #[test]
    fn objects_sorted_and_unique() {
        let ds = SpatialDataset::build(&uniform(500, 3), 10);
        let objs = ds.objects();
        assert_eq!(objs.len(), 500);
        for w in objs.windows(2) {
            assert!(w[0].hc < w[1].hc, "HC values must be strictly ascending");
        }
    }

    #[test]
    fn every_object_inside_its_cell() {
        let ds = SpatialDataset::build(&uniform(300, 9), 8);
        for o in ds.objects() {
            let cell = ds.curve().d2xy(o.hc);
            assert!(
                ds.mapper().cell_rect(cell).contains(o.pos),
                "object {} not inside its assigned cell",
                o.id
            );
        }
    }

    #[test]
    fn collisions_are_relocated() {
        // 50 identical points on a tiny grid: all must get distinct cells.
        let pts = vec![Point::new(0.5, 0.5); 50];
        let ds = SpatialDataset::build(&pts, 4); // 256 cells
        let mut hcs: Vec<u64> = ds.objects().iter().map(|o| o.hc).collect();
        hcs.dedup();
        assert_eq!(hcs.len(), 50);
    }

    #[test]
    fn brute_oracles_agree_with_naive() {
        let pts = uniform(200, 11);
        let ds = SpatialDataset::build(&pts, 12);
        let w = Rect::new(0.2, 0.3, 0.6, 0.7);
        let in_window = ds.brute_window(&w);
        for o in ds.objects() {
            assert_eq!(w.contains(o.pos), in_window.binary_search(&o.id).is_ok());
        }
        let q = Point::new(0.4, 0.4);
        let knn = ds.brute_knn(q, 5);
        assert_eq!(knn.len(), 5);
        let kth = ds.kth_dist2(q, 5);
        // Every non-answer object is at least as far as the kth distance.
        for o in ds.objects() {
            if knn.binary_search(&o.id).is_err() {
                assert!(q.dist2(o.pos) >= kth);
            }
        }
    }

    #[test]
    fn knn_k_larger_than_n_returns_all() {
        let ds = SpatialDataset::build(&uniform(10, 5), 8);
        assert_eq!(ds.brute_knn(Point::new(0.5, 0.5), 50).len(), 10);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_dataset_rejected() {
        let _ = SpatialDataset::build(&[], 8);
    }
}
