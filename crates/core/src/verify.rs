//! [`Verifiable`] for the DSI air index: extracts the static pointer
//! graph — every table's exponential entry ladder plus its local object
//! announcements — for the `dsi-verify` analyzer.

use dsi_verify::{Edge, EdgeClaim, StaticModel, Verifiable};

use crate::build::{DsiAir, DsiScheme};

impl DsiAir {
    /// The static model of this broadcast: one index unit per table, one
    /// data unit per object, `MinKey` edges for the table entries
    /// (claiming the pointed frame's minimum HC, exactly what the 16-byte
    /// on-air `hc` field promises) and `Local` edges for each frame's
    /// announced objects. Every table is a navigation entry: a client can
    /// tune in anywhere and waits at most one frame for a table.
    pub fn static_model(&self) -> StaticModel {
        let l = self.layout();
        let mut m = StaticModel::from_program("DSI", self.program());
        // Worst DSI query: the window/kNN drivers scan result frames
        // sequentially and the conservative kNN may re-expand once; three
        // full passes bound every observed workload (pinned against the
        // conformance grid's measured maxima in `tests/verify_bounds.rs`).
        m.sweep_passes = 3;
        let nf = l.n_frames();
        let r = l.config().index_base as u64;
        let n_entries = l.framing().n_entries;
        for slot in 0..nf {
            let unit = m
                .unit_at(l.frame_start(slot))
                .expect("frame start is a unit start");
            // The schema fixes the edge count of every table: the
            // exponential ladder (deltas 1, r, r², … while < nf, capped
            // at the framing's entry budget) plus one local edge per
            // announced object. A dropped or duplicated entry shows up
            // as a count mismatch before any claim is even checked.
            let mut ladder = 0u32;
            let mut delta = 1u64;
            for _ in 0..n_entries {
                if delta >= nf as u64 {
                    break;
                }
                ladder += 1;
                delta = delta.saturating_mul(r);
            }
            let f = self.frame(slot);
            m.units[unit].expected_edges = Some(ladder + f.n_obj);
            for e in &self.table(slot).entries {
                let target_slot = (slot + e.delta) % nf;
                m.edges[unit].push(Edge {
                    target: l.frame_start(target_slot),
                    claim: EdgeClaim::MinKey(e.hc),
                });
            }
            for idx in 0..f.n_obj {
                let pos = l.header_packet(slot, idx);
                let data_unit = m.unit_at(pos).expect("object header is a unit start");
                m.units[data_unit].key = self.object(slot, idx).hc;
                m.edges[unit].push(Edge {
                    target: pos,
                    claim: EdgeClaim::Local,
                });
            }
            m.entries.push(unit as u32);
        }
        m
    }
}

impl Verifiable for DsiAir {
    fn static_model(&self) -> StaticModel {
        DsiAir::static_model(self)
    }
}

impl Verifiable for DsiScheme {
    fn static_model(&self) -> StaticModel {
        self.air.static_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsiConfig;
    use dsi_broadcast::ChannelConfig;
    use dsi_datagen::SpatialDataset;

    fn dataset(n: usize) -> SpatialDataset {
        SpatialDataset::build(&dsi_datagen::uniform(n, 42), 10)
    }

    #[test]
    fn grid_valid_dsi_programs_verify_clean() {
        let ds = dataset(220);
        for m in [1, 2] {
            let cfg = DsiConfig {
                segments: m,
                ..DsiConfig::paper_default().with_capacity(64)
            };
            for chan in [
                ChannelConfig::single(),
                ChannelConfig::blocked(2, 1),
                ChannelConfig::striped(2, 1),
                ChannelConfig::striped_frames(4, 1),
                ChannelConfig::index_data(2, 1, 2),
            ] {
                let air =
                    DsiAir::try_build_channels(&ds, cfg, chan.clone()).expect("the layout builds");
                let model = air.static_model();
                let report = dsi_verify::verify(&model)
                    .unwrap_or_else(|v| panic!("{chan:?} (m={m}): {v:?}"));
                assert_eq!(report.checked_pairs, report.total_pairs);
                assert!(report.bounds.latency_packets > 0);
            }
        }
    }
}
