//! Window queries over DSI (paper Algorithm 1).
//!
//! The client decomposes the query window into the target segment set `H`
//! (contiguous HC intervals), then drives the shared query loop: it hops
//! from index table to index table toward the first unaccounted segment
//! (energy-efficient forwarding), scans the frames whose spans overlap a
//! segment, retrieves the objects whose exact coordinates fall in the
//! window, and terminates once every segment is covered by cleared HC
//! regions.

use dsi_broadcast::Tuner;
use dsi_datagen::Object;
use dsi_geom::Rect;
use dsi_hilbert::HcRange;

use crate::build::{DsiAir, DsiPacket};
use crate::client::{run_query, QueryMode, TargetsChange};
use crate::state::Knowledge;

struct WindowMode {
    window: Rect,
    segments: Vec<HcRange>,
    /// Targets are static: they are handed to the driver exactly once.
    published: bool,
    result: Vec<u32>,
}

impl QueryMode for WindowMode {
    fn refresh_targets(&mut self, _know: &Knowledge, out: &mut Vec<HcRange>) -> TargetsChange {
        if self.published {
            return TargetsChange::Unchanged;
        }
        self.published = true;
        out.clear();
        out.extend_from_slice(&self.segments);
        TargetsChange::Replaced
    }

    fn on_header(&mut self, o: &Object) -> bool {
        self.window.contains(o.pos)
    }

    fn on_retrieved(&mut self, o: &Object) {
        self.result.push(o.id);
    }
}

impl DsiAir {
    /// Answers a window query on the air: returns the ids of all objects
    /// inside `window`, ascending. Metrics accrue on `tuner`.
    pub fn window_query(&self, tuner: &mut Tuner<'_, DsiPacket>, window: &Rect) -> Vec<u32> {
        self.run_window(tuner, window, false)
    }

    /// [`DsiAir::window_query`] with every state update and remainder
    /// read cross-checked against the from-scratch oracle; panics on
    /// divergence. Test support for the differential suites.
    #[doc(hidden)]
    pub fn window_query_audited(
        &self,
        tuner: &mut Tuner<'_, DsiPacket>,
        window: &Rect,
    ) -> Vec<u32> {
        self.run_window(tuner, window, true)
    }

    fn run_window(&self, tuner: &mut Tuner<'_, DsiPacket>, window: &Rect, audit: bool) -> Vec<u32> {
        // Through the thread's installed share cache when a fleet worker
        // put one up (bit-identical either way; see `crate::share`).
        let segments = crate::share::window_segments(self.curve(), self.mapper(), window);
        if segments.is_empty() {
            return Vec::new();
        }
        let mut mode = WindowMode {
            window: *window,
            segments,
            published: false,
            result: Vec::new(),
        };
        run_query(self, tuner, &mut mode, audit);
        mode.result.sort_unstable();
        mode.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsiConfig, FramingPolicy};
    use dsi_broadcast::LossModel;
    use dsi_datagen::{uniform, window_queries, SpatialDataset};

    fn check_windows(cfg: DsiConfig, n: usize, order: u8, n_queries: usize) {
        let ds = SpatialDataset::build(&uniform(n, 77), order);
        let air = DsiAir::build(&ds, cfg);
        let windows = window_queries(n_queries, 0.25, 99);
        let cycle = air.program().len();
        for (qi, w) in windows.iter().enumerate() {
            let start = (qi as u64 * 7919) % cycle;
            let mut tuner = Tuner::tune_in(air.program(), start, LossModel::None, qi as u64);
            let got = air.window_query(&mut tuner, w);
            let want = ds.brute_window(w);
            assert_eq!(got, want, "query {qi} ({w:?}) cfg {cfg:?}");
            let s = tuner.stats();
            assert!(s.tuning_packets <= s.latency_packets);
            assert!(
                s.latency_packets <= 3 * cycle,
                "latency {} over 3 cycles (cycle {cycle})",
                s.latency_packets
            );
        }
    }

    #[test]
    fn correct_on_paper_default() {
        check_windows(DsiConfig::paper_default(), 400, 9, 24);
    }

    #[test]
    fn correct_with_reorganization() {
        check_windows(DsiConfig::paper_reorganized(), 400, 9, 24);
    }

    #[test]
    fn correct_with_many_segments_per_frame() {
        // Few large frames: several target segments land in one frame.
        let cfg = DsiConfig {
            framing: FramingPolicy::FixedFrameCount(4),
            ..DsiConfig::paper_default()
        };
        check_windows(cfg, 300, 8, 16);
    }

    #[test]
    fn correct_with_object_factor_one() {
        let cfg = DsiConfig {
            framing: FramingPolicy::FixedObjectFactor(1),
            ..DsiConfig::paper_default()
        };
        check_windows(cfg, 200, 8, 12);
    }

    #[test]
    fn correct_with_four_segments() {
        let cfg = DsiConfig {
            segments: 4,
            ..DsiConfig::paper_default()
        };
        check_windows(cfg, 300, 8, 16);
    }

    #[test]
    fn empty_window_answers_instantly() {
        let ds = SpatialDataset::build(&uniform(100, 3), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_default());
        let mut tuner = Tuner::tune_in(air.program(), 5, LossModel::None, 1);
        // A window outside the unit square covers no grid cells.
        let got = air.window_query(&mut tuner, &Rect::new(2.0, 2.0, 3.0, 3.0));
        assert!(got.is_empty());
        assert_eq!(tuner.stats().latency_packets, 0);
    }

    #[test]
    fn whole_space_window_returns_everything() {
        let ds = SpatialDataset::build(&uniform(150, 5), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let mut tuner = Tuner::tune_in(air.program(), 123, LossModel::None, 1);
        let got = air.window_query(&mut tuner, &Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(got.len(), 150);
    }

    #[test]
    fn correct_under_heavy_index_loss() {
        let ds = SpatialDataset::build(&uniform(300, 21), 9);
        for cfg in [DsiConfig::paper_default(), DsiConfig::paper_reorganized()] {
            let air = DsiAir::build(&ds, cfg);
            let windows = window_queries(12, 0.3, 5);
            for (qi, w) in windows.iter().enumerate() {
                let mut tuner = Tuner::tune_in(
                    air.program(),
                    (qi as u64 * 1237) % air.program().len(),
                    LossModel::iid(0.5),
                    qi as u64,
                );
                let got = air.window_query(&mut tuner, w);
                assert_eq!(got, ds.brute_window(w), "lossy query {qi}");
            }
        }
    }
}
