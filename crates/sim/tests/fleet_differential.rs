//! Fleet-vs-sequential differential suite.
//!
//! The fleet engine's determinism contract (see `dsi_sim::fleet`): for a
//! fixed [`FleetSpec`], [`run_fleet`] returns [`FleetOutcomes`] —
//! answers, per-query stats, channel stats — **bit-identical** to the
//! sequential per-client oracle, for every worker count. This suite pins
//! the contract across the full configuration cross product the harness
//! supports: scheme × channel placement × antennas × loss model ×
//! worker count.

use std::collections::BTreeSet;
use std::sync::Arc;

use dsi_broadcast::{AntennaConfig, ChannelConfig, LossModel, Query};
use dsi_datagen::{knn_points, window_queries, SpatialDataset};
use dsi_sim::fleet::{run_fleet, run_fleet_oracle, FleetSpec, Population};
use dsi_sim::{uniform_dataset_n, Engine, Scheme};

fn mixed_pool() -> Vec<Query> {
    let mut pool: Vec<Query> = window_queries(5, 0.2, 31)
        .into_iter()
        .map(Query::Window)
        .collect();
    pool.extend(knn_points(5, 17).into_iter().map(|p| Query::Knn(p, 4)));
    pool
}

fn spec(loss: LossModel, antennas: u32, workers: usize) -> FleetSpec {
    FleetSpec {
        skew: 0.8,
        loss,
        antennas: AntennaConfig {
            antennas,
            ..AntennaConfig::single()
        },
        workers,
        keep_ids: true,
        keep_channels: true,
        validate: false,
        ..FleetSpec::new(150, mixed_pool())
    }
}

/// Asserts the contract for one built engine across loss × antennas ×
/// workers, including answer validation on the lossless single-antenna
/// cell (the oracle validates; the equality check then covers the fleet).
/// The counters are checked too: every client is driven or coalesced
/// exactly once, and the dispatch does the same work at every worker
/// count (a granule run twice would overwrite identical outcome rows).
/// The drive count pins the cohort contract the column assembly relies
/// on: one drive per distinct `(tune anchor, query)` pair on a lossless
/// single-channel engine, one per client under loss or on several
/// channels.
fn check_engine(engine: Engine, dataset: &Arc<SpatialDataset>, losses: &[LossModel]) {
    let engine = Arc::new(engine);
    let pop = Population::derive(&spec(LossModel::None, 1, 1), engine.cycle_packets());
    let pairs: Option<BTreeSet<(u64, u32)>> = pop
        .start
        .iter()
        .zip(&pop.query)
        .map(|(&start, &query)| Some((engine.tune_anchor(start)?, query)))
        .collect();
    for loss in losses {
        for antennas in [1u32, 2] {
            let mut reference = None;
            let mut work = None;
            for workers in [1usize, 2, 5] {
                let mut s = spec(loss.clone(), antennas, workers);
                if matches!(loss, LossModel::None) && antennas == 1 {
                    s.validate = true;
                }
                let (stats, outcomes) = run_fleet(&engine, Some(dataset), &s);
                let cell = format!("{loss:?}, {antennas} antennas, {workers} workers");
                let oracle =
                    reference.get_or_insert_with(|| run_fleet_oracle(&engine, Some(dataset), &s));
                assert_eq!(&outcomes, oracle, "fleet != oracle ({cell})");
                assert_eq!(stats.drives + stats.coalesced, stats.clients, "({cell})");
                let cohorts = if matches!(loss, LossModel::None) && engine.n_channels() == 1 {
                    pairs
                        .as_ref()
                        .expect("one channel anchors every tune-in")
                        .len()
                } else {
                    stats.clients
                };
                assert_eq!(stats.drives, cohorts, "({cell})");
                let counts = (stats.drives, stats.coalesced, stats.granules);
                assert_eq!(*work.get_or_insert(counts), counts, "({cell})");
            }
        }
    }
}

#[test]
fn single_channel_all_schemes_all_losses() {
    let ds = Arc::new(uniform_dataset_n(250));
    let losses = [
        LossModel::None,
        LossModel::iid(0.25),
        LossModel::keyed_iid(0.25),
        LossModel::gilbert(0.05, 0.3, 0.9),
    ];
    for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree, Scheme::Hci] {
        check_engine(Engine::build(scheme, &ds, 64), &ds, &losses);
    }
}

#[test]
fn blocked_two_channel_placement() {
    let ds = Arc::new(uniform_dataset_n(220));
    for scheme in [Scheme::dsi_reorganized(64), Scheme::Hci] {
        check_engine(
            Engine::build_channels(scheme, &ds, 64, ChannelConfig::blocked(2, 1)),
            &ds,
            &[LossModel::None, LossModel::keyed_iid(0.2)],
        );
    }
}

#[test]
fn striped_four_channel_placement() {
    let ds = Arc::new(uniform_dataset_n(220));
    for scheme in [Scheme::dsi_reorganized(64), Scheme::RTree] {
        check_engine(
            Engine::build_channels(scheme, &ds, 64, ChannelConfig::striped(4, 1)),
            &ds,
            &[LossModel::None, LossModel::gilbert(0.02, 0.25, 0.8)],
        );
    }
}
