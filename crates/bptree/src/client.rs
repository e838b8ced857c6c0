//! On-air HCI query processing.

use std::collections::BTreeMap;

use dsi_broadcast::segmented::{Children, ReadQueue, TreePacket, OBJECT};
use dsi_broadcast::Tuner;
use dsi_geom::{dist2, BoundOrder, Point, Rect};
use dsi_hilbert::{ranges_in_rect, HcRange};

use crate::air::BpAir;

fn overlaps(ranges: &[HcRange], lo: u64, ub: u64) -> bool {
    // First range with hi >= lo, then check it begins before ub.
    let i = ranges.partition_point(|r| r.hi < lo);
    i < ranges.len() && ranges[i].lo < ub
}

impl BpAir {
    /// Answers a window query on the air: ids of all objects inside
    /// `window`, ascending. Metrics accrue on `tuner`.
    pub fn window_query(&self, tuner: &mut Tuner<'_, TreePacket>, window: &Rect) -> Vec<u32> {
        let ranges = ranges_in_rect(&self.curve, &self.mapper, window);
        let mut result = Vec::new();
        if ranges.is_empty() {
            return result;
        }
        let mut pending = ReadQueue::seed(&self.air, tuner, u64::MAX);
        while let Some((kind, payload, ub, flat)) = pending.pop(&self.air, tuner) {
            tuner.goto(flat);
            if kind == OBJECT {
                // Header first: exact coordinates decide retrieval.
                match tuner.read() {
                    Ok(_) => {
                        let o = &self.tree.objects[payload as usize];
                        if window.contains(o.pos) {
                            if self.read_payload(tuner) {
                                result.push(o.id);
                            } else {
                                self.requeue_object(tuner, payload, &mut pending);
                            }
                        }
                    }
                    Err(_) => self.requeue_object(tuner, payload, &mut pending),
                }
                continue;
            }
            let (level, idx) = (kind, payload);
            if !self.air.read_unit(tuner, level) {
                pending.push_node(&self.air, tuner, level, idx, ub);
                continue;
            }
            let node = &self.tree.levels[level as usize][idx as usize];
            match &node.children {
                Children::Nodes(kids) => {
                    for (ci, &k) in kids.iter().enumerate() {
                        let child = &self.tree.levels[level as usize - 1][k as usize];
                        let cub = self.tree.child_upper(level as usize, node, ci, ub);
                        if overlaps(&ranges, child.min_hc, cub) {
                            pending.push_node(&self.air, tuner, level - 1, k, cub);
                        }
                    }
                }
                Children::Objects { start, count } => {
                    for obj in *start..*start + *count {
                        let hc = self.tree.objects[obj as usize].hc;
                        if overlaps(&ranges, hc, hc + 1) {
                            pending.push_object(&self.air, tuner, obj, hc);
                        }
                    }
                }
            }
        }
        result.sort_unstable();
        result
    }

    fn read_payload(&self, tuner: &mut Tuner<'_, TreePacket>) -> bool {
        for _ in 1..self.config.object_packets() {
            if tuner.read().is_err() {
                return false;
            }
        }
        true
    }

    fn requeue_object(
        &self,
        tuner: &Tuner<'_, TreePacket>,
        obj: u32,
        pending: &mut ReadQueue<u64>,
    ) {
        let hc = self.tree.objects[obj as usize].hc;
        pending.push_object(&self.air, tuner, obj, hc);
    }

    /// Answers a kNN query with the two-phase HCI algorithm (Zheng et al.
    /// PerCom'03): phase 1 descends to the query point's HC position and
    /// bounds a radius from the k index-nearest entries; phase 2 runs a
    /// window-style retrieval over the circle's bounding box. Returns ids
    /// of the `k` nearest objects (ties by id), ascending.
    pub fn knn_query(&self, tuner: &mut Tuner<'_, TreePacket>, q: Point, k: usize) -> Vec<u32> {
        let k = k.min(self.tree.objects.len());
        if k == 0 {
            return Vec::new();
        }
        // ---- Phase 1: locate hc(q) and bound the search radius.
        let hc_q = self.curve.xy2d(self.mapper.cell_of(q));
        let leaf0 = self.descend_to_leaf(tuner, hc_q);
        // Collect at least k entry HC values from the leaves following the
        // descend target in HC order.
        let n_leaves = self.tree.levels[0].len() as u32;
        let mut entry_hcs: Vec<u64> = Vec::with_capacity(k + 8);
        if tuner.antennas() <= 1 {
            // Single receiver: keep the classic serial walk (this is the
            // pinned pre-refactor baseline; on one channel the next leaf
            // in HC order is also the next to air anyway).
            let mut leaf = leaf0;
            let mut visited = 0u32;
            while entry_hcs.len() < k && visited < n_leaves {
                let (_, flat) = self.air.node_arrival(tuner, 0, leaf);
                tuner.goto(flat);
                if self.air.read_unit(tuner, 0) {
                    self.leaf_entries(leaf, &mut entry_hcs);
                    visited += 1;
                    leaf = (leaf + 1) % n_leaves;
                }
                // On loss, retry the same leaf at its next occurrence.
            }
        } else {
            // Multi-antenna client on parallel channels: HC order no
            // longer orders airings. Keep a window of the next leaves
            // (one per channel) and read whichever the batch planner says
            // airs first; a lost leaf stays in the window and competes at
            // its next occurrence. The walk stops as soon as k entries
            // are known — a leaf skipped by the arrival order costs only
            // radius slack, never the full-cycle wait reading it would.
            let c = tuner.program().n_channels() as usize;
            let mut window: Vec<u32> = Vec::new();
            let mut flats: Vec<u64> = Vec::new();
            let mut cursor = leaf0;
            let mut unqueued = n_leaves;
            let mut visited = 0u32;
            while entry_hcs.len() < k && visited < n_leaves {
                while window.len() < c && unqueued > 0 {
                    window.push(cursor);
                    cursor = (cursor + 1) % n_leaves;
                    unqueued -= 1;
                }
                flats.clear();
                flats.extend(
                    window
                        .iter()
                        .map(|&lf| self.air.node_arrival(tuner, 0, lf).1),
                );
                let (i, _) = tuner
                    .plan_resilient(&flats, |_| self.air.unit_dur(0))
                    .expect("window is non-empty");
                tuner.goto(flats[i]);
                if self.air.read_unit(tuner, 0) {
                    self.leaf_entries(window[i], &mut entry_hcs);
                    visited += 1;
                    window.swap_remove(i);
                }
            }
        }
        // Radius: k-th smallest cell-max-distance over the entries.
        let mut ubs: Vec<f64> = entry_hcs
            .iter()
            .map(|&hc| self.mapper.cell_rect(self.curve.d2xy(hc)).max_dist2(q))
            .collect();
        ubs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("bounds are never NaN"));
        let r2_phase1 = ubs.get(k - 1).copied().unwrap_or(f64::INFINITY);

        // ---- Phase 2: window-style retrieval over the bounding box.
        let bbox = Rect::bounding_square(q, r2_phase1.sqrt());
        let ranges = ranges_in_rect(&self.curve, &self.mapper, &bbox);
        // hc -> (d2, id, retrieved); `SpatialDataset` keeps HC values
        // distinct, so the HC keys each offered object's exact bound.
        let mut cands: BTreeMap<u64, (f64, u32, bool)> = BTreeMap::new();
        let mut bounds: BoundOrder<u64> = BoundOrder::default();
        let r2 = |bounds: &BoundOrder<u64>| r2_phase1.min(bounds.kth(k));
        let mut pending = ReadQueue::seed(&self.air, tuner, u64::MAX);
        while let Some((kind, payload, ub, flat)) = pending.pop(&self.air, tuner) {
            if kind == OBJECT {
                // Skip objects provably outside the shrunken space without
                // listening (the decoded cell distance is schema knowledge).
                let hc = self.tree.objects[payload as usize].hc;
                let cell_min = self.mapper.cell_rect(self.curve.d2xy(hc)).min_dist2(q);
                if cell_min > r2(&bounds) {
                    continue;
                }
                tuner.goto(flat);
                match tuner.read() {
                    Ok(_) => {
                        let o = &self.tree.objects[payload as usize];
                        let d2 = dist2(q, o.pos);
                        if d2 <= r2(&bounds) {
                            // Offer each distinct object once (payload-loss
                            // retries must not shrink the bound twice).
                            cands.entry(o.hc).or_insert_with(|| {
                                bounds.insert(d2, o.hc);
                                (d2, o.id, false)
                            });
                            if self.read_payload(tuner) {
                                cands.get_mut(&o.hc).expect("just inserted").2 = true;
                            } else {
                                self.requeue_object(tuner, payload, &mut pending);
                            }
                        }
                    }
                    Err(_) => self.requeue_object(tuner, payload, &mut pending),
                }
                continue;
            }
            let (level, idx) = (kind, payload);
            tuner.goto(flat);
            if !self.air.read_unit(tuner, level) {
                pending.push_node(&self.air, tuner, level, idx, ub);
                continue;
            }
            let node = &self.tree.levels[level as usize][idx as usize];
            match &node.children {
                Children::Nodes(kids) => {
                    for (ci, &kid) in kids.iter().enumerate() {
                        let child = &self.tree.levels[level as usize - 1][kid as usize];
                        let cub = self.tree.child_upper(level as usize, node, ci, ub);
                        if overlaps(&ranges, child.min_hc, cub) {
                            pending.push_node(&self.air, tuner, level - 1, kid, cub);
                        }
                    }
                }
                Children::Objects { start, count } => {
                    for obj in *start..*start + *count {
                        let hc = self.tree.objects[obj as usize].hc;
                        if overlaps(&ranges, hc, hc + 1) {
                            pending.push_object(&self.air, tuner, obj, hc);
                        }
                    }
                }
            }
        }
        let mut retr: Vec<(f64, u32)> = cands
            .values()
            .filter(|(_, _, r)| *r)
            .map(|&(d2, id, _)| (d2, id))
            .collect();
        retr.sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are never NaN"));
        let mut ids: Vec<u32> = retr.into_iter().take(k).map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// The HC values of one leaf's entries, appended to `out`.
    fn leaf_entries(&self, leaf: u32, out: &mut Vec<u64>) {
        let Children::Objects { start, count } = self.tree.levels[0][leaf as usize].children else {
            unreachable!("level 0 is leaves");
        };
        for obj in start..start + count {
            out.push(self.tree.objects[obj as usize].hc);
        }
    }

    /// Phase-1 descent: follows separator keys from the root to the leaf
    /// whose interval contains `hc_q`, reading one node per level.
    fn descend_to_leaf(&self, tuner: &mut Tuner<'_, TreePacket>, hc_q: u64) -> u32 {
        let mut level = (self.tree.height() - 1) as u8;
        let mut idx = 0u32;
        loop {
            if level == 0 {
                return idx;
            }
            // Path copies make upper levels cheap to reach; subtree nodes
            // have one occurrence per cycle.
            let (_, flat) = self.air.node_arrival(tuner, level, idx);
            tuner.goto(flat);
            if !self.air.read_unit(tuner, level) {
                continue; // retry at the node's next occurrence
            }
            let node = &self.tree.levels[level as usize][idx as usize];
            let Children::Nodes(kids) = &node.children else {
                unreachable!("internal node");
            };
            // Last child whose separator is <= hc_q (or the first child).
            let mut chosen = kids[0];
            for &k in kids {
                if self.tree.levels[level as usize - 1][k as usize].min_hc <= hc_q {
                    chosen = k;
                } else {
                    break;
                }
            }
            level -= 1;
            idx = chosen;
        }
    }
}

impl dsi_broadcast::AirScheme for BpAir {
    type Packet = TreePacket;

    fn program(&self) -> &dsi_broadcast::Program<TreePacket> {
        BpAir::program(self)
    }

    fn window(&self, tuner: &mut Tuner<'_, TreePacket>, window: &Rect) -> Vec<u32> {
        self.window_query(tuner, window)
    }

    fn knn(&self, tuner: &mut Tuner<'_, TreePacket>, q: Point, k: usize) -> Vec<u32> {
        self.knn_query(tuner, q, k)
    }

    /// An HCI client's first act is to seed at the earliest root copy, so
    /// that copy's arrival is the coalescing anchor.
    fn tune_anchor(&self, start: u64) -> Option<u64> {
        self.air.root_anchor(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::BpAirConfig;
    use dsi_broadcast::LossModel;
    use dsi_datagen::{knn_points, uniform, window_queries, SpatialDataset};

    #[test]
    fn window_matches_brute_force() {
        let ds = SpatialDataset::build(&uniform(400, 11), 9);
        for cap in [32u32, 64, 256] {
            let air = BpAir::build(&ds, BpAirConfig::new(cap));
            for (i, w) in window_queries(20, 0.25, 3).iter().enumerate() {
                let start = (i as u64 * 9973) % air.program().len();
                let mut t = Tuner::tune_in(air.program(), start, LossModel::None, i as u64);
                assert_eq!(air.window_query(&mut t, w), ds.brute_window(w), "cap {cap}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let ds = SpatialDataset::build(&uniform(400, 13), 9);
        for cap in [64u32, 256] {
            let air = BpAir::build(&ds, BpAirConfig::new(cap));
            for (i, q) in knn_points(12, 5).into_iter().enumerate() {
                for k in [1usize, 5, 10] {
                    let start = (i as u64 * 7919) % air.program().len();
                    let mut t = Tuner::tune_in(air.program(), start, LossModel::None, i as u64);
                    assert_eq!(
                        air.knn_query(&mut t, q, k),
                        ds.brute_knn(q, k),
                        "cap {cap} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn queries_survive_loss() {
        let ds = SpatialDataset::build(&uniform(250, 17), 9);
        let air = BpAir::build(&ds, BpAirConfig::new(64));
        for (i, w) in window_queries(8, 0.3, 7).iter().enumerate() {
            let mut t =
                Tuner::tune_in(air.program(), i as u64 * 401, LossModel::iid(0.4), i as u64);
            assert_eq!(air.window_query(&mut t, w), ds.brute_window(w));
        }
        for (i, q) in knn_points(8, 9).into_iter().enumerate() {
            let mut t =
                Tuner::tune_in(air.program(), i as u64 * 401, LossModel::iid(0.4), i as u64);
            assert_eq!(air.knn_query(&mut t, q, 5), ds.brute_knn(q, 5));
        }
    }

    #[test]
    fn knn_query_point_outside_space() {
        let ds = SpatialDataset::build(&uniform(150, 19), 8);
        let air = BpAir::build(&ds, BpAirConfig::new(64));
        let q = Point::new(-0.7, 1.9);
        let mut t = Tuner::tune_in(air.program(), 31, LossModel::None, 2);
        assert_eq!(air.knn_query(&mut t, q, 3), ds.brute_knn(q, 3));
    }

    #[test]
    fn empty_window_is_free() {
        let ds = SpatialDataset::build(&uniform(100, 23), 8);
        let air = BpAir::build(&ds, BpAirConfig::new(64));
        let mut t = Tuner::tune_in(air.program(), 3, LossModel::None, 1);
        assert!(air
            .window_query(&mut t, &Rect::new(3.0, 3.0, 4.0, 4.0))
            .is_empty());
        assert_eq!(t.stats().tuning_packets, 0);
    }
}
