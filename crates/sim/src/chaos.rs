//! Deterministic fault-injection harness (chaos runs).
//!
//! The chaos grid is the robustness counterpart of the conformance
//! matrix: every scheme × placement × channel-count × antenna cell is
//! exercised under each fault family — i.i.d. noise, a bursty
//! Gilbert–Elliott channel, and scheduled whole-channel outages — with
//! `validate: true`, so every answer is cross-checked against brute
//! force while the faults are live. The sweep is fully seeded: the same
//! `(spec, seed)` pair reproduces every loss draw, outage hit, and
//! retune decision bit-for-bit (see [`dsi_broadcast::loss`] for the
//! stream-keying guarantees).
//!
//! [`run_chaos`] executes the grid; [`retune_ablation`] isolates the
//! value of loss-aware retuning by racing the default resilient client
//! against a wait-out-the-fade client
//! ([`AntennaConfig::without_loss_retune`]) on the same engine, queries,
//! and fault sequence.

use dsi_broadcast::{
    AntennaConfig, ChannelConfig, GilbertElliott, LossModel, LossScope, OutageSchedule,
    OutageWindow, Query,
};
use dsi_datagen::{skewed_window_queries, zipf_hotspot, SpatialDataset};

use crate::engine::{Engine, Scheme};
use crate::experiments::{ExpOptions, HOTSPOTS};
use crate::matrix::{cells_table, run_matrix, MatrixCell, MatrixSpec, WorkloadSpec};
use crate::runner::{run_query_batch, BatchOptions, BatchResult};
use crate::table::{fmt_bytes, Table};

/// Retune latency (packets) used across the chaos grid.
pub const CHAOS_SWITCH_COST: u32 = 2;

/// The grid's bursty channel: mean good sojourn 50 packets, mean fade
/// length 4 packets, 90% loss inside a fade. Short fades keep small-N
/// smoke runs fast while still triggering burst detection (two
/// consecutive losses) on most fades.
pub fn bursty_channel() -> LossModel {
    LossModel::Gilbert(GilbertElliott::new(0.02, 0.25, 0.9))
}

/// A harsher fade for the retune-vs-wait ablation: mean fade length
/// 1,500 packets — comparable to a per-channel cycle at the ablation's
/// N = 10k, C = 4 scale — with 98% loss inside a fade, applied to *all*
/// packet classes. Short fades are nearly free to wait out (a retry is
/// one re-occurrence away); a fade this deep swallows several retry
/// attempts in a row, so hopping to a candidate on another monitored
/// channel is decisively cheaper than camping on the faded one.
pub fn deep_fade_channel() -> LossModel {
    LossModel::Gilbert(
        GilbertElliott::new(1.0 / 6_000.0, 1.0 / 1_500.0, 0.98).with_scope(LossScope::All),
    )
}

/// The grid's outage schedule: every 509 packets, channel 0 goes dark
/// for 24 packets and channel 1 (when present) for 24 packets roughly
/// half a period later. Outage lengths stay far below the default
/// livelock cap (512 consecutive lost reads), so single-antenna clients
/// that must wait out the darkness still terminate — and the *prime*
/// period cannot resonate with a channel cycle: unless the cycle length
/// is a multiple of 509, a recurring packet's airing drifts through
/// every residue of the period and escapes the dark window, so retries
/// always make progress eventually.
pub fn chaos_outages() -> LossModel {
    LossModel::Outage(OutageSchedule::periodic(
        vec![
            OutageWindow {
                channel: 0,
                start: 64,
                len: 24,
            },
            OutageWindow {
                channel: 1,
                start: 320,
                len: 24,
            },
        ],
        509,
    ))
}

/// The chaos loss axis: one i.i.d. cell, one Gilbert–Elliott cell, one
/// outage cell.
pub fn chaos_losses() -> Vec<(String, LossModel)> {
    vec![
        ("iid10".into(), LossModel::iid(0.10)),
        ("gilbert".into(), bursty_channel()),
        ("outage".into(), chaos_outages()),
    ]
}

/// Builds the chaos sweep: scheme × placement × C ∈ {1, 2, 4} ×
/// antennas × {iid, gilbert, outage}, every answer validated against
/// brute force.
pub fn chaos_spec(n_queries: usize, seed: u64) -> MatrixSpec {
    MatrixSpec {
        schemes: vec![
            ("DSI".into(), Scheme::dsi_reorganized(64)),
            ("R-tree".into(), Scheme::RTree),
            ("HCI".into(), Scheme::Hci),
        ],
        capacity: 64,
        channels: vec![
            ("C1".into(), ChannelConfig::single().into()),
            (
                "C2-blocked".into(),
                ChannelConfig::blocked(2, CHAOS_SWITCH_COST).into(),
            ),
            (
                "C4-stripe".into(),
                ChannelConfig::striped(4, CHAOS_SWITCH_COST).into(),
            ),
            (
                "C4-split".into(),
                ChannelConfig::index_data(4, 1, CHAOS_SWITCH_COST).into(),
            ),
        ],
        antennas: vec![
            ("k1".into(), AntennaConfig::single()),
            ("k2".into(), AntennaConfig::new(2)),
        ],
        losses: chaos_losses(),
        workloads: vec![
            ("window10".into(), WorkloadSpec::Window { ratio: 0.1 }, 3),
            ("3NN".into(), WorkloadSpec::Knn { k: 3 }, 9),
        ],
        n_queries,
        seed,
        validate: true,
    }
}

/// Runs the chaos grid on `dataset`; panics on any answer mismatch or
/// livelock, so a clean return *is* the conformance verdict.
pub fn run_chaos(dataset: &SpatialDataset, n_queries: usize, seed: u64) -> Vec<MatrixCell> {
    run_matrix(dataset, &chaos_spec(n_queries, seed))
}

/// Outcome of one retune-vs-wait ablation run.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// The default resilient client (loss-aware retune on).
    pub retune: BatchResult,
    /// The wait-out-the-fade client (loss-aware retune off).
    pub wait: BatchResult,
}

/// Races the default resilient k≥2 client against the wait-out-the-fade
/// ablation on identical queries, seeds, and fault models. Both clients
/// see the same per-(query, channel) fault streams; only the reaction
/// to a detected burst differs, so any latency gap is attributable to
/// the loss-aware retune policy.
pub fn retune_ablation(
    engine: &Engine,
    dataset: &SpatialDataset,
    queries: &[Query],
    loss: LossModel,
    antennas: u32,
    seed: u64,
) -> AblationResult {
    let base = BatchOptions {
        loss,
        seed,
        validate: true,
        antennas: AntennaConfig::new(antennas),
    };
    let retune = run_query_batch(engine, dataset, queries, &base);
    let wait = run_query_batch(
        engine,
        dataset,
        queries,
        &BatchOptions {
            antennas: AntennaConfig::new(antennas).without_loss_retune(),
            ..base
        },
    );
    AblationResult { retune, wait }
}

/// The chaos experiment, `dsi-bench` shape: one panel sweeping the
/// validated fault-injection grid at smoke scale, and one retune-vs-wait
/// ablation on the Zipf-hotspot skewed scenario (C = 4 blocked, k = 2)
/// under [`deep_fade_channel`] — the measured case for loss-aware
/// retuning over waiting out the fade.
pub fn chaos_experiment(opts: &ExpOptions) -> Vec<Table> {
    // Panel 1: the conformance grid. Scale is capped — the grid's value
    // is coverage (scheme × placement × C × antennas × fault family),
    // not statistical depth.
    let grid_ds = crate::uniform_dataset_n(opts.dataset_n.min(1_000));
    let grid_queries = opts.n_queries.clamp(2, 12);
    let cells = run_chaos(&grid_ds, grid_queries, 11);
    let grid = cells_table(
        "Chaos grid — fault injection with brute-force validation (64 B)",
        &cells,
    );

    // Panel 2: retune vs wait-out-the-fade, per scheme.
    let (n_hotspots, skew, hotspot_seed) = HOTSPOTS;
    let zds = SpatialDataset::build(
        &zipf_hotspot(opts.dataset_n, n_hotspots, skew, hotspot_seed),
        crate::EVAL_ORDER,
    );
    let queries: Vec<Query> =
        skewed_window_queries(opts.n_queries, 0.1, n_hotspots, skew, hotspot_seed, 3)
            .into_iter()
            .map(Query::Window)
            .collect();
    let mut ablation = Table::new(
        "Loss-aware retune vs wait-out-the-fade — skewed data, C4-blocked, k = 2, deep fades (64 B)",
        vec![
            "scheme".into(),
            "policy".into(),
            "latency".into(),
            "tuning".into(),
            "lost/query".into(),
            "max stall".into(),
            "loss retunes".into(),
            "latency vs wait".into(),
        ],
    );
    for (name, scheme) in [
        ("DSI", Scheme::dsi_reorganized(64)),
        ("R-tree", Scheme::RTree),
        ("HCI", Scheme::Hci),
    ] {
        let engine = Engine::build_channels(
            scheme,
            &zds,
            64,
            ChannelConfig::blocked(4, CHAOS_SWITCH_COST),
        );
        let r = retune_ablation(&engine, &zds, &queries, deep_fade_channel(), 2, 7);
        let gain = 100.0 * (1.0 - r.retune.latency_bytes / r.wait.latency_bytes);
        for (policy, b, vs) in [
            ("retune", &r.retune, format!("{gain:+.1}%")),
            ("wait", &r.wait, "—".into()),
        ] {
            ablation.push_row(vec![
                name.into(),
                policy.into(),
                fmt_bytes(b.latency_bytes),
                fmt_bytes(b.tuning_bytes),
                format!("{:.2}", b.mean_lost_packets),
                format!("{}", b.max_stall_packets),
                format!("{:.2}", b.mean_loss_retunes),
                vs,
            ]);
        }
    }
    vec![grid, ablation]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_dataset_n;
    use dsi_datagen::window_queries;

    #[test]
    fn chaos_grid_smoke() {
        let ds = uniform_dataset_n(150);
        let cells = run_chaos(&ds, 2, 11);
        // scheme(3) × channel(4) × antenna(2) × loss(3) × workload(2)
        assert_eq!(cells.len(), 3 * 4 * 2 * 3 * 2);
        // The fault models actually bite somewhere in the grid.
        assert!(cells.iter().any(|c| c.result.mean_lost_packets > 0.0));
        // And the grid is deterministic under its seed.
        let again = run_chaos(&ds, 2, 11);
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.result.latency_bytes, b.result.latency_bytes);
            assert_eq!(a.result.mean_lost_packets, b.result.mean_lost_packets);
            assert_eq!(a.result.max_stall_packets, b.result.max_stall_packets);
        }
    }

    #[test]
    fn ablation_reports_both_arms() {
        let ds = uniform_dataset_n(200);
        let e = Engine::build_channels(
            Scheme::dsi_reorganized(64),
            &ds,
            64,
            ChannelConfig::blocked(2, CHAOS_SWITCH_COST),
        );
        let qs: Vec<Query> = window_queries(4, 0.15, 3)
            .into_iter()
            .map(Query::Window)
            .collect();
        let r = retune_ablation(&e, &ds, &qs, bursty_channel(), 2, 7);
        assert_eq!(r.retune.queries, 4);
        assert_eq!(r.wait.queries, 4);
        // The ablation arm never retunes on loss; the default arm may.
        assert_eq!(r.wait.mean_loss_retunes, 0.0);
    }

    #[test]
    fn chaos_experiment_smoke() {
        let tables = chaos_experiment(&ExpOptions::smoke());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 3 * 4 * 2 * 3 * 2);
        assert_eq!(tables[1].rows.len(), 6, "three schemes × two policies");
        assert!(
            tables[1].rows.iter().any(|r| r[6] != "0.00"),
            "the resilient arm retuned under deep fades"
        );
    }
}
