//! Energy-efficient forwarding: point queries by location (paper §3.2).
//!
//! Given a target location, the client computes its HC value and hops from
//! index table to index table — following, at each hop, the largest
//! exponential pointer that cannot overshoot — until it reaches the frame
//! that would contain the object, then scans it. "EEF is logically like a
//! binary search … the distances between visited frames and the final
//! target frame decrease rapidly."

use dsi_broadcast::Tuner;
use dsi_datagen::Object;
use dsi_geom::Point;
use dsi_hilbert::HcRange;

use crate::build::{DsiAir, DsiPacket};
use crate::client::{run_query, QueryMode, TargetsChange};
use crate::state::Knowledge;

struct EefMode {
    target: u64,
    published: bool,
    found: Option<Object>,
}

impl QueryMode for EefMode {
    fn refresh_targets(&mut self, _know: &Knowledge, out: &mut Vec<HcRange>) -> TargetsChange {
        if self.published {
            return TargetsChange::Unchanged;
        }
        self.published = true;
        out.clear();
        out.push(HcRange::new(self.target, self.target));
        TargetsChange::Replaced
    }

    fn on_header(&mut self, o: &Object) -> bool {
        o.hc == self.target
    }

    fn on_retrieved(&mut self, o: &Object) {
        self.found = Some(*o);
    }
}

impl DsiAir {
    /// Point query: retrieves the object broadcast for the grid cell of
    /// `location`, or `None` if that cell holds no object. Metrics accrue
    /// on `tuner`.
    pub fn point_query(&self, tuner: &mut Tuner<'_, DsiPacket>, location: Point) -> Option<Object> {
        let hc = self.curve().xy2d(self.mapper().cell_of(location));
        self.point_query_hc(tuner, hc)
    }

    /// Point query by HC value (the paper's EEF primitive).
    pub fn point_query_hc(&self, tuner: &mut Tuner<'_, DsiPacket>, hc: u64) -> Option<Object> {
        let mut mode = EefMode {
            target: hc,
            published: false,
            found: None,
        };
        run_query(self, tuner, &mut mode, false);
        mode.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsiConfig;
    use dsi_broadcast::LossModel;
    use dsi_datagen::{uniform, SpatialDataset};

    #[test]
    fn finds_every_object() {
        let ds = SpatialDataset::build(&uniform(200, 13), 9);
        for cfg in [DsiConfig::paper_default(), DsiConfig::paper_reorganized()] {
            let air = DsiAir::build(&ds, cfg);
            for (i, o) in ds.objects().iter().enumerate().step_by(17) {
                let mut tuner = Tuner::tune_in(
                    air.program(),
                    (i as u64 * 101) % air.program().len(),
                    LossModel::None,
                    i as u64,
                );
                let got = air.point_query_hc(&mut tuner, o.hc);
                assert_eq!(got.map(|g| g.id), Some(o.id));
                // A point query should finish within ~one cycle, error-free.
                assert!(tuner.stats().latency_packets <= 2 * air.program().len());
            }
        }
    }

    #[test]
    fn absent_location_returns_none() {
        let ds = SpatialDataset::build(&uniform(50, 13), 9);
        let air = DsiAir::build(&ds, DsiConfig::paper_default());
        // Find an unoccupied HC value.
        let taken: std::collections::HashSet<u64> = ds.objects().iter().map(|o| o.hc).collect();
        let free = (0..air.curve().max_d())
            .find(|d| !taken.contains(d))
            .unwrap();
        let mut tuner = Tuner::tune_in(air.program(), 0, LossModel::None, 7);
        assert_eq!(air.point_query_hc(&mut tuner, free), None);
    }

    #[test]
    fn eef_hops_are_logarithmic() {
        // With object factor 1 and no errors, the number of index tables a
        // point query reads is O(log nF): tuning stays tiny compared to a
        // frame-by-frame scan.
        let ds = SpatialDataset::build(&uniform(512, 29), 10);
        let cfg = DsiConfig {
            framing: crate::config::FramingPolicy::FixedObjectFactor(1),
            ..DsiConfig::paper_default()
        };
        let air = DsiAir::build(&ds, cfg);
        for (i, o) in ds.objects().iter().enumerate().step_by(41) {
            let mut tuner = Tuner::tune_in(
                air.program(),
                (i as u64 * 379) % air.program().len(),
                LossModel::None,
                1,
            );
            air.point_query_hc(&mut tuner, o.hc);
            let tuning = tuner.stats().tuning_packets;
            // log2(512) = 9 hops; allow headroom for the header + payload
            // reads (object = 16 packets at 64 B) and boundary effects.
            assert!(
                tuning <= 9 + 16 + 24,
                "point query used {tuning} packets of tuning"
            );
        }
    }

    #[test]
    fn survives_loss() {
        let ds = SpatialDataset::build(&uniform(128, 3), 9);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        for (i, o) in ds.objects().iter().enumerate().step_by(13) {
            let mut tuner =
                Tuner::tune_in(air.program(), i as u64 * 53, LossModel::iid(0.4), i as u64);
            let got = air.point_query_hc(&mut tuner, o.hc);
            assert_eq!(got.map(|g| g.id), Some(o.id));
        }
    }
}
