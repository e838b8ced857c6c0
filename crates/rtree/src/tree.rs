//! The packed R-tree structure.

use dsi_broadcast::segmented::Children;
use dsi_geom::{Point, Rect};

/// On-air size of an internal node entry: MBR (4 × f64) + 2-byte pointer.
pub const INTERNAL_ENTRY_BYTES: u32 = 34;
/// On-air size of a leaf entry: point (2 × f64) + 2-byte pointer.
pub const LEAF_ENTRY_BYTES: u32 = 18;
/// Per-node header (entry count).
pub const NODE_HEADER_BYTES: u32 = 2;

/// One R-tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Minimum bounding rectangle of everything below this node.
    pub mbr: Rect,
    /// Children (lower-level nodes or objects).
    pub children: Children,
}

impl Node {
    /// Number of entries in the node (defines its on-air size).
    pub fn entry_count(&self) -> u32 {
        match &self.children {
            Children::Nodes(v) => v.len() as u32,
            Children::Objects { count, .. } => *count,
        }
    }
}

/// A bulk-loaded R-tree. `levels[0]` are the leaves; the last level holds
/// the single root.
#[derive(Debug, Clone)]
pub struct RTree {
    /// Nodes per level, leaves first.
    pub levels: Vec<Vec<Node>>,
    /// Objects in leaf-packing order: (id, position).
    pub objects: Vec<(u32, Point)>,
}

impl RTree {
    /// Height of the tree in node levels (leaves count as one).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.levels[self.height() - 1][0]
    }

    /// Checks the structural invariants; used by tests and debug builds.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn validate(&self) {
        assert!(!self.levels.is_empty(), "tree has no levels");
        assert_eq!(
            self.levels.last().expect("non-empty").len(),
            1,
            "root level must be single"
        );
        // Leaves: MBR contains objects; ranges partition the object array.
        let mut covered = vec![false; self.objects.len()];
        for leaf in &self.levels[0] {
            let Children::Objects { start, count } = &leaf.children else {
                panic!("leaf without object children");
            };
            for i in *start..*start + *count {
                assert!(!covered[i as usize], "object {i} in two leaves");
                covered[i as usize] = true;
                assert!(
                    leaf.mbr.contains(self.objects[i as usize].1),
                    "object escapes its leaf MBR"
                );
            }
        }
        assert!(covered.iter().all(|&b| b), "objects not covered by leaves");
        // Internal levels: MBR contains child MBRs; children partition.
        for lv in 1..self.levels.len() {
            let mut covered = vec![false; self.levels[lv - 1].len()];
            for node in &self.levels[lv] {
                let Children::Nodes(kids) = &node.children else {
                    panic!("internal node with object children at level {lv}");
                };
                for &k in kids {
                    assert!(
                        !covered[k as usize],
                        "node {k} has two parents at level {lv}"
                    );
                    covered[k as usize] = true;
                    assert!(
                        node.mbr.contains_rect(&self.levels[lv - 1][k as usize].mbr),
                        "child MBR escapes its parent at level {lv}"
                    );
                }
            }
            assert!(
                covered.iter().all(|&b| b),
                "level {lv} does not cover level below"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::str_pack;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, seed: u64) -> Vec<(u32, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u32)
            .map(|id| (id, Point::new(rng.gen(), rng.gen())))
            .collect()
    }

    #[test]
    fn str_pack_validates_at_various_fanouts() {
        for (lf, nf) in [(2, 2), (3, 2), (7, 7), (28, 15)] {
            let t = str_pack(&points(500, 1), lf, nf);
            t.validate();
            assert_eq!(t.objects.len(), 500);
        }
    }

    #[test]
    fn str_pack_single_object() {
        let t = str_pack(&points(1, 2), 3, 2);
        t.validate();
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn str_pack_respects_fanout() {
        let t = str_pack(&points(1000, 3), 5, 4);
        for leaf in &t.levels[0] {
            assert!((1..=5).contains(&leaf.entry_count()));
        }
        for lv in 1..t.height() {
            for n in &t.levels[lv] {
                assert!((1..=4).contains(&n.entry_count()));
            }
        }
    }

    #[test]
    fn str_preserves_spatial_locality() {
        // Objects in one leaf should be much closer together than random
        // pairs: the mean intra-leaf MBR half-perimeter must be small.
        let t = str_pack(&points(1000, 4), 10, 10);
        let mean_diag: f64 = t.levels[0]
            .iter()
            .map(|l| l.mbr.max.x - l.mbr.min.x + (l.mbr.max.y - l.mbr.min.y))
            .sum::<f64>()
            / t.levels[0].len() as f64;
        assert!(mean_diag < 0.5, "leaves not local: mean diag {mean_diag}");
    }

    #[test]
    fn duplicate_positions_are_packed() {
        let pts: Vec<(u32, Point)> = (0..50).map(|i| (i, Point::new(0.5, 0.5))).collect();
        let t = str_pack(&pts, 4, 4);
        t.validate();
        assert_eq!(t.objects.len(), 50);
    }
}
