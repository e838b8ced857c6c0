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

/// Asserts the contract for `scheme` built over `channels` across loss ×
/// antennas × workers, including answer validation on the lossless
/// single-antenna cell (the oracle validates; the equality check then
/// covers the fleet). The counters are checked too: every client is
/// driven or coalesced exactly once, and the dispatch does the same work
/// and reports the same window-table counters at every worker count (a
/// granule run twice would overwrite identical outcome rows). The drive
/// count pins the cohort contract the column assembly relies on: one
/// drive per distinct `(tune anchor, query)` pair on a lossless
/// single-channel engine, one per client under loss or on several
/// channels. DSI decomposes each distinct window the population drew
/// once and serves every other window drive from that table; the R-tree
/// and HCI never consult it.
fn check_engine(
    scheme: Scheme,
    channels: ChannelConfig,
    dataset: &Arc<SpatialDataset>,
    losses: &[LossModel],
) {
    let engine = Engine::build_channels(scheme, dataset, 64, channels);
    let pool = mixed_pool();
    let is_window = |query: u32| matches!(pool[query as usize], Query::Window(_));
    let pop = Population::derive(&spec(LossModel::None, 1, 1), engine.cycle_packets());
    let pairs: Option<BTreeSet<(u64, u32)>> = pop
        .start
        .iter()
        .zip(&pop.query)
        .map(|(&start, &query)| Some((engine.tune_anchor(start)?, query)))
        .collect();
    // The pool's windows are distinct rectangles, so the population drew
    // as many distinct windows as distinct window indices.
    let windows_drawn: BTreeSet<u32> = pop
        .query
        .iter()
        .copied()
        .filter(|&q| is_window(q))
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
                let coalesces = matches!(loss, LossModel::None) && engine.n_channels() == 1;
                let anchored = || pairs.as_ref().expect("one channel anchors every tune-in");
                let cohorts = if coalesces {
                    anchored().len()
                } else {
                    stats.clients
                };
                assert_eq!(stats.drives, cohorts, "({cell})");
                let counts = (
                    stats.drives,
                    stats.coalesced,
                    stats.granules,
                    stats.window_cache_hits,
                    stats.window_cache_misses,
                );
                assert_eq!(*work.get_or_insert(counts), counts, "({cell})");
                let table = (
                    stats.window_cache_hits + stats.window_cache_misses,
                    stats.window_cache_misses,
                );
                if matches!(scheme, Scheme::Dsi(..)) {
                    let window_drives = if coalesces {
                        anchored().iter().filter(|&&(_, q)| is_window(q)).count()
                    } else {
                        pop.query.iter().filter(|&&q| is_window(q)).count()
                    };
                    let want = (window_drives as u64, windows_drawn.len() as u64);
                    assert_eq!(table, want, "window drives and distinct windows ({cell})");
                } else {
                    assert_eq!(table, (0, 0), "the trees never consult the table ({cell})");
                }
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
        check_engine(scheme, ChannelConfig::single(), &ds, &losses);
    }
}

#[test]
fn blocked_two_channel_placement() {
    let ds = Arc::new(uniform_dataset_n(220));
    for scheme in [Scheme::dsi_reorganized(64), Scheme::Hci] {
        check_engine(
            scheme,
            ChannelConfig::blocked(2, 1),
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
            scheme,
            ChannelConfig::striped(4, 1),
            &ds,
            &[LossModel::None, LossModel::gilbert(0.02, 0.25, 0.8)],
        );
    }
}
