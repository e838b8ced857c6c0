//! Scheme construction: one enum of buildable schemes, one engine that
//! holds whichever index was built.
//!
//! Building is the only scheme-specific step. [`Engine`] keeps the built
//! index in a private three-arm enum, and each method matches on it once
//! to reach the generic code, so every query — any scheme, channel
//! configuration, loss model, workload — goes through the one
//! [`dsi_broadcast::drive_antennas`] loop ([`Engine::drive_traced`] is the
//! same loop with the read journal on), and no index repeats the
//! tune-in/loss/stats plumbing. The static model the verifier reads is
//! derived state: the engine keeps none and extracts one when asked
//! ([`Engine::static_model`]).

use dsi_bptree::{BpAir, BpAirConfig};
use dsi_broadcast::{
    AirScheme, AntennaConfig, ChannelConfig, FaultTrace, LayoutError, LossModel, Query,
    QueryOutcome,
};
use dsi_core::share::ShareCache;
use dsi_core::{DsiAir, DsiConfig, DsiScheme, KnnStrategy};
use dsi_datagen::SpatialDataset;
use dsi_geom::{Point, Rect};
use dsi_rtree::{RTreeAir, RtreeAirConfig};
use dsi_verify::{StaticModel, Verifiable, VerifyReport, Violation};

/// Which air index to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// DSI with a full configuration and a kNN strategy.
    Dsi(DsiConfig, KnnStrategy),
    /// STR-packed R-tree with the distributed layout.
    RTree,
    /// HCI: B+-tree over HC values.
    Hci,
}

impl Scheme {
    /// The paper's main DSI configuration (two-segment reorganized
    /// broadcast, conservative navigation) at a given capacity.
    pub fn dsi_reorganized(capacity: u32) -> Self {
        Scheme::Dsi(
            DsiConfig::paper_reorganized().with_capacity(capacity),
            KnnStrategy::Conservative,
        )
    }

    /// DSI on the original ascending-HC broadcast.
    pub fn dsi_original(capacity: u32, strategy: KnnStrategy) -> Self {
        Scheme::Dsi(DsiConfig::paper_default().with_capacity(capacity), strategy)
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Dsi(..) => "DSI",
            Scheme::RTree => "R-tree",
            Scheme::Hci => "HCI",
        }
    }
}

/// The built index of an [`Engine`], one arm per [`Scheme`].
enum Built {
    Dsi(DsiScheme),
    RTree(RTreeAir),
    Hci(BpAir),
}

/// Evaluates `$body` with `$s` bound to the built index, whatever its
/// scheme: the one place an [`Engine`] call reaches the generic code.
macro_rules! with_built {
    ($built:expr, $s:ident => $body:expr) => {
        match $built {
            Built::Dsi($s) => $body,
            Built::RTree($s) => $body,
            Built::Hci($s) => $body,
        }
    };
}

/// A built broadcast: any [`Scheme`] behind one set of drive and program
/// calls.
pub struct Engine {
    built: Built,
}

impl Engine {
    /// Builds the single-channel broadcast program for `scheme` at
    /// `capacity` bytes.
    pub fn build(scheme: Scheme, dataset: &SpatialDataset, capacity: u32) -> Self {
        Self::build_channels(scheme, dataset, capacity, ChannelConfig::single())
    }

    /// Builds the broadcast program for `scheme` scheduled over the
    /// channels of `channels`.
    pub fn build_channels(
        scheme: Scheme,
        dataset: &SpatialDataset,
        capacity: u32,
        channels: ChannelConfig,
    ) -> Self {
        match Self::try_build_channels(scheme, dataset, capacity, channels) {
            Ok(e) => e,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Engine::build_channels`]: a channel configuration the
    /// cycle cannot be scheduled over (zero channels, stranded explicit
    /// assignment, …) comes back as its structural [`LayoutError`], so
    /// batch drivers like the experiment matrix can reject the cell with
    /// a diagnostic and keep running.
    pub fn try_build_channels(
        scheme: Scheme,
        dataset: &SpatialDataset,
        capacity: u32,
        channels: ChannelConfig,
    ) -> Result<Self, LayoutError> {
        let built = match scheme {
            Scheme::Dsi(cfg, strategy) => Built::Dsi(DsiScheme {
                air: DsiAir::try_build_channels(dataset, cfg.with_capacity(capacity), channels)?,
                strategy,
            }),
            Scheme::RTree => {
                let pts: Vec<(u32, Point)> =
                    dataset.objects().iter().map(|o| (o.id, o.pos)).collect();
                Built::RTree(RTreeAir::try_build_channels(
                    &pts,
                    RtreeAirConfig::new(capacity),
                    channels,
                )?)
            }
            Scheme::Hci => Built::Hci(BpAir::try_build_channels(
                dataset,
                BpAirConfig::new(capacity),
                channels,
            )?),
        };
        Ok(Self { built })
    }

    /// Extracts the static pointer-graph model of this engine's broadcast
    /// program, whatever scheme or placement produced it, for the
    /// `dsi-verify` analyzer. Nothing is cached: each call walks the
    /// program again, at the cost of building it or more, so a caller
    /// that reads the model more than once extracts it once and keeps it.
    pub fn static_model(&self) -> StaticModel {
        with_built!(&self.built, s => s.static_model())
    }

    /// Runs the full `dsi-verify` analysis (structure, progress, bounds)
    /// over this engine's broadcast program, on a freshly extracted
    /// [`Engine::static_model`].
    pub fn verify(&self) -> Result<VerifyReport, Vec<Violation>> {
        dsi_verify::verify(&self.static_model())
    }

    /// Runs one query through the scheme-agnostic driver with a receiver
    /// configuration (the client monitors up to `antennas.antennas`
    /// channels concurrently).
    pub fn drive_antennas(
        &self,
        start: u64,
        loss: LossModel,
        seed: u64,
        antennas: AntennaConfig,
        query: &Query,
    ) -> QueryOutcome {
        with_built!(&self.built, s => {
            dsi_broadcast::drive_antennas(s, start, loss, seed, antennas, query)
        })
    }

    /// Runs one query while journaling every read (channel, instant, loss
    /// outcome), returning the recorded [`FaultTrace`] alongside the
    /// outcome. The trace replays the run exactly via
    /// [`LossModel::Trace`], on any seed; on the single-channel build it
    /// is also the query's access profile for the placement optimizer
    /// ([`dsi_broadcast::optimize::AccessProfile::from_journals`]).
    pub fn drive_traced(
        &self,
        start: u64,
        loss: LossModel,
        seed: u64,
        antennas: AntennaConfig,
        query: &Query,
    ) -> (QueryOutcome, FaultTrace) {
        with_built!(&self.built, s => {
            dsi_broadcast::drive_traced(s, start, loss, seed, antennas, query)
        })
    }

    /// The fleet's decomposition table for the windows `rects`: DSI
    /// decomposes each distinct one on its curve and grid; the R-tree and
    /// HCI, whose clients never consult the table, get an empty one.
    pub(crate) fn window_table<'a>(&self, rects: impl IntoIterator<Item = &'a Rect>) -> ShareCache {
        match &self.built {
            Built::Dsi(s) => ShareCache::from_windows(s.air.curve(), s.air.mapper(), rects),
            Built::RTree(_) | Built::Hci(_) => ShareCache::new(),
        }
    }

    /// The cohort-coalescing anchor of a tune-in at `start` — the
    /// absolute instant of the client's first scheme-defined action, or
    /// `None` when no sound anchor exists (multi-channel programs). See
    /// [`dsi_broadcast::AirScheme::tune_anchor`] for the exact contract;
    /// `dsi_sim::fleet` builds its deduplicated cohorts on it.
    pub fn tune_anchor(&self, start: u64) -> Option<u64> {
        with_built!(&self.built, s => s.tune_anchor(start))
    }

    /// Which flat positions begin an indivisible broadcast unit — the
    /// structure a placement assigns to channels.
    pub fn unit_starts(&self) -> Vec<bool> {
        with_built!(&self.built, s => s.program().unit_starts())
    }

    /// Packets per (flat) broadcast cycle.
    pub fn cycle_packets(&self) -> u64 {
        with_built!(&self.built, s => s.program().len())
    }

    /// Bytes per (flat) broadcast cycle.
    pub fn cycle_bytes(&self) -> u64 {
        with_built!(&self.built, s => s.program().cycle_bytes())
    }

    /// Number of parallel channels.
    pub fn n_channels(&self) -> u32 {
        with_built!(&self.built, s => s.program().n_channels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_dataset_n;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn run(e: &Engine, start: u64, loss: LossModel, seed: u64, query: Query) -> QueryOutcome {
        e.drive_antennas(start, loss, seed, AntennaConfig::single(), &query)
    }

    #[test]
    fn all_engines_answer_identically() {
        let ds = uniform_dataset_n(300);
        let w = Rect::new(0.2, 0.2, 0.5, 0.55);
        let q = Point::new(0.4, 0.3);
        let want_w = ds.brute_window(&w);
        let want_k = ds.brute_knn(q, 7);
        for scheme in [
            Scheme::dsi_reorganized(64),
            Scheme::dsi_original(64, KnnStrategy::Aggressive),
            Scheme::RTree,
            Scheme::Hci,
        ] {
            let e = Engine::build(scheme, &ds, 64);
            let sw = run(&e, 17, LossModel::None, 5, Query::Window(w));
            assert_eq!(sw.ids, want_w);
            assert!(sw.stats.tuning_packets <= sw.stats.latency_packets);
            let sk = run(&e, 17, LossModel::None, 5, Query::Knn(q, 7));
            assert_eq!(sk.ids, want_k);
            assert!(sk.stats.tuning_packets <= sk.stats.latency_packets);
        }
    }

    #[test]
    fn channelized_engines_answer_identically() {
        let ds = uniform_dataset_n(250);
        let w = Rect::new(0.1, 0.3, 0.45, 0.6);
        let q = Point::new(0.6, 0.55);
        for chan in [
            ChannelConfig::blocked(2, 1),
            ChannelConfig::striped(2, 1),
            ChannelConfig::index_data(2, 1, 2),
        ] {
            for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree, Scheme::Hci] {
                let e = Engine::build_channels(scheme, &ds, 64, chan.clone());
                assert_eq!(e.n_channels(), 2);
                let out = run(&e, 31, LossModel::iid(0.2), 9, Query::Window(w));
                assert_eq!(out.ids, ds.brute_window(&w), "{chan:?}");
                let out = run(&e, 31, LossModel::iid(0.2), 9, Query::Knn(q, 4));
                assert_eq!(out.ids, ds.brute_knn(q, 4), "{chan:?}");
            }
        }
    }

    /// The scheme-agnostic driver rejects a NaN or infinite query
    /// coordinate, naming the query, before any scheme's client sees it:
    /// a NaN kNN point used to panic deep inside the search, and a NaN
    /// window answered nothing.
    #[test]
    fn driver_rejects_non_finite_queries() {
        let ds = uniform_dataset_n(100);
        for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree, Scheme::Hci] {
            let e = Engine::build(scheme, &ds, 64);
            for query in [
                Query::Knn(Point::new(f64::NAN, 0.5), 3),
                Query::Knn(Point::new(0.5, f64::INFINITY), 1),
                Query::Window(Rect {
                    min: Point::new(0.1, f64::NAN),
                    max: Point::new(0.4, 0.4),
                }),
            ] {
                let err = catch_unwind(AssertUnwindSafe(|| run(&e, 0, LossModel::None, 0, query)))
                    .expect_err("a non-finite query was accepted");
                let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    msg.contains("non-finite coordinate"),
                    "{}: {query:?}: {msg}",
                    scheme.name()
                );
            }
        }
    }
}
