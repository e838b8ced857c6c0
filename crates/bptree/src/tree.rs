//! The bulk-loaded B+-tree over HC values.

use dsi_broadcast::segmented::Children;
use dsi_datagen::Object;

/// On-air size of a B+-tree entry: HC key (16 bytes) + pointer (2 bytes).
pub const BP_ENTRY_BYTES: u32 = 18;
/// Per-node header (entry count).
pub const BP_NODE_HEADER_BYTES: u32 = 2;

/// One B+-tree node.
#[derive(Debug, Clone)]
pub struct BpNode {
    /// Smallest HC value under this node (its separator key).
    pub min_hc: u64,
    /// Children.
    pub children: Children,
}

impl BpNode {
    /// Number of entries (defines the on-air size).
    pub fn entry_count(&self) -> u32 {
        match &self.children {
            Children::Nodes(v) => v.len() as u32,
            Children::Objects { count, .. } => *count,
        }
    }
}

/// A bulk-loaded B+-tree. `levels[0]` are the leaves; the last level holds
/// the single root. Objects are kept in ascending HC order (the broadcast
/// order of HCI).
#[derive(Debug, Clone)]
pub struct BpTree {
    /// Nodes per level, leaves first.
    pub levels: Vec<Vec<BpNode>>,
    /// Objects in ascending HC order.
    pub objects: Vec<Object>,
}

/// Bulk-loads a B+-tree by chunking the HC-sorted objects into leaves of
/// `fanout` entries and stacking levels until a single root remains.
///
/// # Panics
///
/// Panics if `objects` is empty, unsorted, or `fanout < 2`.
pub fn bulk_load(objects: &[Object], fanout: u32) -> BpTree {
    assert!(!objects.is_empty(), "cannot load an empty B+-tree");
    assert!(fanout >= 2, "fanout must be >= 2");
    assert!(
        objects.windows(2).all(|w| w[0].hc < w[1].hc),
        "objects must be strictly ascending in HC"
    );
    let mut leaves = Vec::with_capacity(objects.len().div_ceil(fanout as usize));
    let mut at = 0u32;
    for chunk in objects.chunks(fanout as usize) {
        leaves.push(BpNode {
            min_hc: chunk[0].hc,
            children: Children::Objects {
                start: at,
                count: chunk.len() as u32,
            },
        });
        at += chunk.len() as u32;
    }
    let mut levels = vec![leaves];
    while levels.last().expect("non-empty").len() > 1 {
        let below = levels.last().expect("non-empty");
        let mut parents = Vec::with_capacity(below.len().div_ceil(fanout as usize));
        let mut idx = 0u32;
        for chunk in below.chunks(fanout as usize) {
            parents.push(BpNode {
                min_hc: chunk[0].min_hc,
                children: Children::Nodes((idx..idx + chunk.len() as u32).collect()),
            });
            idx += chunk.len() as u32;
        }
        levels.push(parents);
    }
    BpTree {
        levels,
        objects: objects.to_vec(),
    }
}

impl BpTree {
    /// Height in node levels.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// The root node.
    pub fn root(&self) -> &BpNode {
        &self.levels[self.height() - 1][0]
    }

    /// Exclusive upper bound of the key interval of child `c` within a
    /// node: the next sibling's separator, or the parent's own bound.
    pub fn child_upper(
        &self,
        level: usize,
        node: &BpNode,
        child_pos: usize,
        parent_ub: u64,
    ) -> u64 {
        let Children::Nodes(kids) = &node.children else {
            panic!("child_upper on a leaf");
        };
        kids.get(child_pos + 1)
            .map(|&k| self.levels[level - 1][k as usize].min_hc)
            .unwrap_or(parent_ub)
    }

    /// Checks structural invariants (tests / debug builds).
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn validate(&self) {
        assert_eq!(self.levels.last().expect("non-empty").len(), 1);
        let mut at = 0u32;
        for leaf in &self.levels[0] {
            let Children::Objects { start, count } = leaf.children else {
                panic!("leaf without objects");
            };
            assert_eq!(start, at);
            assert_eq!(leaf.min_hc, self.objects[start as usize].hc);
            at += count;
        }
        assert_eq!(at as usize, self.objects.len());
        for lv in 1..self.levels.len() {
            let mut at = 0u32;
            for node in &self.levels[lv] {
                let Children::Nodes(kids) = &node.children else {
                    panic!("internal node without node children");
                };
                assert_eq!(kids[0], at);
                assert_eq!(node.min_hc, self.levels[lv - 1][at as usize].min_hc);
                at += kids.len() as u32;
            }
            assert_eq!(at as usize, self.levels[lv - 1].len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_datagen::{uniform, SpatialDataset};

    fn objects(n: usize) -> Vec<Object> {
        SpatialDataset::build(&uniform(n, 3), 10).objects().to_vec()
    }

    #[test]
    fn bulk_load_validates() {
        for fanout in [2u32, 3, 7, 50] {
            let t = bulk_load(&objects(300), fanout);
            t.validate();
        }
    }

    #[test]
    fn single_object_tree() {
        let t = bulk_load(&objects(1), 4);
        t.validate();
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn separators_bound_subtrees() {
        let t = bulk_load(&objects(200), 5);
        // Every leaf's objects lie in [min_hc, next leaf's min_hc).
        for (i, leaf) in t.levels[0].iter().enumerate() {
            let ub = t.levels[0].get(i + 1).map(|n| n.min_hc).unwrap_or(u64::MAX);
            let Children::Objects { start, count } = leaf.children else {
                unreachable!()
            };
            for o in &t.objects[start as usize..(start + count) as usize] {
                assert!(o.hc >= leaf.min_hc && o.hc < ub);
            }
        }
    }

    #[test]
    fn child_upper_uses_sibling_or_parent() {
        let t = bulk_load(&objects(100), 4);
        let lv = t.height() - 1;
        let root = t.root();
        let Children::Nodes(kids) = &root.children else {
            unreachable!()
        };
        let ub = t.child_upper(lv, root, kids.len() - 1, u64::MAX);
        assert_eq!(ub, u64::MAX);
        if kids.len() >= 2 {
            let ub0 = t.child_upper(lv, root, 0, u64::MAX);
            assert_eq!(ub0, t.levels[lv - 1][kids[1] as usize].min_hc);
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_objects_rejected() {
        let mut objs = objects(10);
        objs.swap(0, 5);
        let _ = bulk_load(&objs, 4);
    }
}
