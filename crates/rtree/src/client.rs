//! On-air R-tree query processing.
//!
//! The client seeds its search by reading the root copy at the next
//! segment boundary, then processes a pending queue ordered by broadcast
//! position: pop the earliest item, doze to it, read it, and push whatever
//! qualifies. Child pointers resolve to the child's next occurrence, so a
//! child already broadcast this cycle rolls over to the next one — the
//! branch-and-bound-vs-broadcast-order mismatch of the paper's Figure 1.
//!
//! Link errors follow the paper's tree-index analysis: a lost node can
//! only be re-read at its next occurrence (the next cycle for subtree
//! nodes, the next covering segment for replicated path nodes), and a lost
//! root seed means waiting for the next segment boundary.

use dsi_broadcast::segmented::{Children, ReadQueue, TreePacket, OBJECT};
use dsi_broadcast::Tuner;
use dsi_geom::{dist2, BoundOrder, Point, Rect};

use crate::air::RTreeAir;
use crate::tree::RTree;

/// A pending read, ordered by broadcast position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Node { level: u8, idx: u32 },
    Object { obj: u32 },
}

/// Encodes an item as (kind, payload) so queues need no trait objects.
fn encode(item: Item) -> (u8, u32) {
    match item {
        Item::Node { level, idx } => (level, idx),
        Item::Object { obj } => (OBJECT, obj),
    }
}

fn decode(kind: u8, payload: u32) -> Item {
    if kind == OBJECT {
        Item::Object { obj: payload }
    } else {
        Item::Node {
            level: kind,
            idx: payload,
        }
    }
}

impl RTreeAir {
    /// Queues a read of `item` at its earliest readable copy.
    fn push(&self, pending: &mut ReadQueue<()>, tuner: &Tuner<'_, TreePacket>, item: Item) {
        match item {
            Item::Node { level, idx } => pending.push_node(&self.air, tuner, level, idx, ()),
            Item::Object { obj } => pending.push_object(&self.air, tuner, obj, ()),
        }
    }

    /// The next read and the flat position to tune to.
    fn pop(
        &self,
        pending: &mut ReadQueue<()>,
        tuner: &mut Tuner<'_, TreePacket>,
    ) -> Option<(Item, u64)> {
        let (kind, payload, (), flat) = pending.pop(&self.air, tuner)?;
        Some((decode(kind, payload), flat))
    }

    /// Answers a window query on the air: ids of all objects inside
    /// `window`, ascending. Metrics accrue on `tuner`.
    pub fn window_query(&self, tuner: &mut Tuner<'_, TreePacket>, window: &Rect) -> Vec<u32> {
        let mut result = Vec::new();
        if !self.tree.root().mbr.intersects(window) {
            return result;
        }
        let mut pending = ReadQueue::seed(&self.air, tuner, ());
        while let Some((item, flat)) = self.pop(&mut pending, tuner) {
            tuner.goto(flat);
            if !self.air.read_unit(tuner, encode(item).0) {
                // Wait for the rebroadcast.
                self.push(&mut pending, tuner, item);
                continue;
            }
            match item {
                Item::Node { level, idx } => {
                    match &self.tree.levels[level as usize][idx as usize].children {
                        Children::Nodes(kids) => {
                            for &k in kids {
                                let child = &self.tree.levels[level as usize - 1][k as usize];
                                if child.mbr.intersects(window) {
                                    let it = Item::Node {
                                        level: level - 1,
                                        idx: k,
                                    };
                                    self.push(&mut pending, tuner, it);
                                }
                            }
                        }
                        Children::Objects { start, count } => {
                            for obj in *start..*start + *count {
                                if window.contains(self.tree.objects[obj as usize].1) {
                                    self.push(&mut pending, tuner, Item::Object { obj });
                                }
                            }
                        }
                    }
                }
                Item::Object { obj } => result.push(self.tree.objects[obj as usize].0),
            }
        }
        result.sort_unstable();
        result
    }

    /// Answers a kNN query on the air: ids of the `k` nearest objects to
    /// `q` (ties by id), ascending. Metrics accrue on `tuner`.
    pub fn knn_query(&self, tuner: &mut Tuner<'_, TreePacket>, q: Point, k: usize) -> Vec<u32> {
        let k = k.min(self.tree.objects.len());
        if k == 0 {
            return Vec::new();
        }
        let mut cands = RtCandidates::new(&self.tree, q, k);
        cands.insert(Item::Node {
            level: self.air.root_level(),
            idx: 0,
        });
        let mut pending = ReadQueue::seed(&self.air, tuner, ());
        while let Some((item, flat)) = self.pop(&mut pending, tuner) {
            // Prune anything provably outside the search space.
            let min2 = match item {
                Item::Node { level, idx } => self.tree.levels[level as usize][idx as usize]
                    .mbr
                    .min_dist2(q),
                Item::Object { obj } => dist2(q, self.tree.objects[obj as usize].1),
            };
            if min2 > cands.r2() {
                cands.remove(item);
                continue;
            }
            tuner.goto(flat);
            if !self.air.read_unit(tuner, encode(item).0) {
                self.push(&mut pending, tuner, item);
                continue;
            }
            match item {
                Item::Node { level, idx } => {
                    // Expanded: the node's virtual is replaced by its
                    // children's (disjoint subtrees keep candidates
                    // distinct).
                    cands.remove(item);
                    match &self.tree.levels[level as usize][idx as usize].children {
                        Children::Nodes(kids) => {
                            for &k in kids {
                                let child = &self.tree.levels[level as usize - 1][k as usize];
                                if child.mbr.min_dist2(q) <= cands.r2() {
                                    let it = Item::Node {
                                        level: level - 1,
                                        idx: k,
                                    };
                                    cands.insert(it);
                                    self.push(&mut pending, tuner, it);
                                }
                            }
                        }
                        Children::Objects { start, count } => {
                            for obj in *start..*start + *count {
                                let (_, p) = self.tree.objects[obj as usize];
                                if dist2(q, p) <= cands.r2() {
                                    let it = Item::Object { obj };
                                    cands.insert(it);
                                    self.push(&mut pending, tuner, it);
                                }
                            }
                        }
                    }
                }
                Item::Object { obj } => cands.retrieve(obj),
            }
        }
        cands.result_ids()
    }
}

impl dsi_broadcast::AirScheme for RTreeAir {
    type Packet = TreePacket;

    fn program(&self) -> &dsi_broadcast::Program<TreePacket> {
        RTreeAir::program(self)
    }

    fn window(&self, tuner: &mut Tuner<'_, TreePacket>, window: &Rect) -> Vec<u32> {
        self.window_query(tuner, window)
    }

    fn knn(&self, tuner: &mut Tuner<'_, TreePacket>, q: Point, k: usize) -> Vec<u32> {
        self.knn_query(tuner, q, k)
    }

    /// An R-tree client's first act is to seed at the earliest root copy,
    /// so that copy's arrival is the coalescing anchor.
    fn tune_anchor(&self, start: u64) -> Option<u64> {
        self.air.root_anchor(start)
    }
}

/// Candidate bookkeeping for the air R-tree kNN: one virtual candidate per
/// pending (unexpanded) node — every unexpanded subtree holds at least one
/// object within its MBR's max-distance — plus exact candidates for leaf
/// entries. Subtrees in the pending set are disjoint and disjoint from all
/// seen leaf entries, so candidates always denote distinct objects.
///
/// A candidate's bound is a pure function of its item and `q` (the node
/// MBR's max-distance, or the object's exact distance), so it is derived
/// again on removal instead of stored. A retrieved object stays a
/// candidate — its distance still bounds the radius — and is also listed
/// with its distance for the answer.
struct RtCandidates<'a> {
    tree: &'a RTree,
    q: Point,
    k: usize,
    bounds: BoundOrder<(u8, u32)>,
    /// (d2, id) of every retrieved object.
    retrieved: Vec<(f64, u32)>,
}

impl<'a> RtCandidates<'a> {
    fn new(tree: &'a RTree, q: Point, k: usize) -> Self {
        Self {
            tree,
            q,
            k,
            bounds: BoundOrder::default(),
            retrieved: Vec::new(),
        }
    }

    fn bound(&self, item: Item) -> f64 {
        match item {
            Item::Node { level, idx } => self.tree.levels[level as usize][idx as usize]
                .mbr
                .max_dist2(self.q),
            Item::Object { obj } => dist2(self.q, self.tree.objects[obj as usize].1),
        }
    }

    /// The squared search radius: the k-th smallest bound (∞ while fewer
    /// than k candidates are known).
    fn r2(&self) -> f64 {
        self.bounds.kth(self.k)
    }

    fn insert(&mut self, item: Item) {
        self.bounds.insert(self.bound(item), encode(item));
    }

    fn remove(&mut self, item: Item) {
        self.bounds.remove(self.bound(item), encode(item));
    }

    fn retrieve(&mut self, obj: u32) {
        let (id, p) = self.tree.objects[obj as usize];
        self.retrieved.push((dist2(self.q, p), id));
    }

    /// Final answer: k nearest retrieved objects (distance, then id).
    fn result_ids(mut self) -> Vec<u32> {
        self.retrieved
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are never NaN"));
        let mut ids: Vec<u32> = self
            .retrieved
            .iter()
            .take(self.k)
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::RtreeAirConfig;
    use dsi_broadcast::LossModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, seed: u64) -> Vec<(u32, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u32)
            .map(|id| (id, Point::new(rng.gen(), rng.gen())))
            .collect()
    }

    fn brute_window(pts: &[(u32, Point)], w: &Rect) -> Vec<u32> {
        let mut v: Vec<u32> = pts
            .iter()
            .filter(|(_, p)| w.contains(*p))
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_knn(pts: &[(u32, Point)], q: Point, k: usize) -> Vec<u32> {
        let mut v: Vec<(f64, u32)> = pts.iter().map(|&(id, p)| (dist2(q, p), id)).collect();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mut ids: Vec<u32> = v.into_iter().take(k).map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn window_matches_brute_force() {
        let pts = points(500, 11);
        for cap in [64u32, 128, 512] {
            let air = RTreeAir::build(&pts, RtreeAirConfig::new(cap));
            let mut rng = StdRng::seed_from_u64(5);
            for i in 0..20 {
                let c = Point::new(rng.gen(), rng.gen());
                let w = Rect::window_in_unit_square(c, 0.3);
                let start = (i * 9973) % air.program().len();
                let mut t = Tuner::tune_in(air.program(), start, LossModel::None, i);
                assert_eq!(
                    air.window_query(&mut t, &w),
                    brute_window(&pts, &w),
                    "cap {cap}"
                );
                let s = t.stats();
                assert!(s.latency_packets <= 3 * air.program().len());
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = points(500, 13);
        for cap in [64u32, 256] {
            let air = RTreeAir::build(&pts, RtreeAirConfig::new(cap));
            let mut rng = StdRng::seed_from_u64(6);
            for i in 0..15 {
                let q = Point::new(rng.gen(), rng.gen());
                for k in [1usize, 5, 10] {
                    let start = (i * 7919) % air.program().len();
                    let mut t = Tuner::tune_in(air.program(), start, LossModel::None, i);
                    assert_eq!(
                        air.knn_query(&mut t, q, k),
                        brute_knn(&pts, q, k),
                        "cap {cap} k {k}"
                    );
                }
            }
        }
    }

    /// The scheme-agnostic driver rejects a NaN or infinite query
    /// coordinate, naming the query, before this client sees it: a NaN
    /// kNN point used to panic deep inside the search, and a NaN window
    /// answered nothing.
    #[test]
    fn driver_rejects_non_finite_queries() {
        use dsi_broadcast::{drive, Query};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let air = RTreeAir::build(&points(100, 3), RtreeAirConfig::new(64));
        for query in [
            Query::Knn(Point::new(f64::NAN, 0.5), 3),
            Query::Knn(Point::new(0.5, f64::INFINITY), 1),
            Query::Window(Rect {
                min: Point::new(0.1, f64::NAN),
                max: Point::new(0.4, 0.4),
            }),
        ] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                drive(&air, 0, LossModel::None, 0, &query)
            }))
            .expect_err("a non-finite query was accepted");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("non-finite coordinate"), "{query:?}: {msg}");
        }
    }

    #[test]
    fn queries_survive_loss() {
        let pts = points(300, 17);
        let air = RTreeAir::build(&pts, RtreeAirConfig::new(64));
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..10 {
            let c = Point::new(rng.gen(), rng.gen());
            let w = Rect::window_in_unit_square(c, 0.25);
            let mut t = Tuner::tune_in(air.program(), i * 131, LossModel::iid(0.4), i);
            assert_eq!(air.window_query(&mut t, &w), brute_window(&pts, &w));
            let q = Point::new(rng.gen(), rng.gen());
            let mut t = Tuner::tune_in(air.program(), i * 131, LossModel::iid(0.4), i);
            assert_eq!(air.knn_query(&mut t, q, 5), brute_knn(&pts, q, 5));
        }
    }

    #[test]
    fn empty_window_costs_one_root_read() {
        let pts = points(200, 19);
        let air = RTreeAir::build(&pts, RtreeAirConfig::new(64));
        let mut t = Tuner::tune_in(air.program(), 3, LossModel::None, 1);
        // Window outside the root MBR: answered without any reads.
        let got = air.window_query(&mut t, &Rect::new(2.0, 2.0, 3.0, 3.0));
        assert!(got.is_empty());
        assert_eq!(t.stats().tuning_packets, 0);
    }

    #[test]
    fn k_equals_n() {
        let pts = points(50, 23);
        let air = RTreeAir::build(&pts, RtreeAirConfig::new(128));
        let mut t = Tuner::tune_in(air.program(), 0, LossModel::None, 1);
        let got = air.knn_query(&mut t, Point::new(0.5, 0.5), 50);
        assert_eq!(got.len(), 50);
    }
}
