//! Golden differential tests for the unified air-scheme layer.
//!
//! The `QueryStats` below were captured from the **pre-refactor** query
//! engines (PR 2 state: per-index tuner plumbing, single channel) at small
//! N, for a lossless and a lossy channel. With `C = 1` and zero switch
//! cost, the ported schemes must reproduce every latency/tuning pair
//! bit-for-bit — the unified driver and channel layer are pure refactors
//! of the single-channel path, down to the per-packet RNG draw sequence.
//! The `dsi_aggressive` rows were added later, from the engine as it stood
//! before the kNN client's lazy circle decomposition, and pin that change
//! the same way.

use dsi::broadcast::{AntennaConfig, ChannelConfig, LossModel, Placement, Query, QueryOutcome};
use dsi::core::{DsiConfig, KnnStrategy};
use dsi::datagen::{knn_points, uniform, window_queries, SpatialDataset};
use dsi::sim::{Engine, Scheme};
use dsi::{Point, Rect};

/// (scheme, loss, query kind, query index, latency_packets, tuning_packets)
/// captured from the pre-refactor engines (see module docs).
const GOLDEN: &[(&str, &str, &str, usize, u64, u64)] = &[
    ("dsi", "none", "window", 0, 4585, 177),
    ("dsi", "none", "window", 1, 3846, 215),
    ("dsi", "none", "window", 2, 3367, 243),
    ("dsi", "none", "window", 3, 2792, 215),
    ("dsi", "none", "knn", 0, 3143, 307),
    ("dsi", "none", "knn", 1, 3412, 305),
    ("dsi", "none", "knn", 2, 4325, 301),
    ("dsi", "none", "knn", 3, 2478, 240),
    ("rtree", "none", "window", 0, 6284, 170),
    ("rtree", "none", "window", 1, 6319, 207),
    ("rtree", "none", "window", 2, 3046, 262),
    ("rtree", "none", "window", 3, 5235, 220),
    ("rtree", "none", "knn", 0, 4536, 886),
    ("rtree", "none", "knn", 1, 3939, 890),
    ("rtree", "none", "knn", 2, 4204, 700),
    ("rtree", "none", "knn", 3, 3156, 503),
    ("hci", "none", "window", 0, 3462, 158),
    ("hci", "none", "window", 1, 3945, 184),
    ("hci", "none", "window", 2, 3824, 239),
    ("hci", "none", "window", 3, 4199, 183),
    ("hci", "none", "knn", 0, 7220, 97),
    ("hci", "none", "knn", 1, 9207, 156),
    ("hci", "none", "knn", 2, 10454, 128),
    ("hci", "none", "knn", 3, 9309, 398),
    ("dsi", "iid30", "window", 0, 4585, 184),
    ("dsi", "iid30", "window", 1, 3846, 237),
    ("dsi", "iid30", "window", 2, 3367, 243),
    ("dsi", "iid30", "window", 3, 2792, 213),
    ("dsi", "iid30", "knn", 0, 3143, 416),
    ("dsi", "iid30", "knn", 1, 3412, 359),
    ("dsi", "iid30", "knn", 2, 4409, 312),
    ("dsi", "iid30", "knn", 3, 2478, 393),
    ("rtree", "iid30", "window", 0, 31374, 191),
    ("rtree", "iid30", "window", 1, 18919, 243),
    ("rtree", "iid30", "window", 2, 21883, 280),
    ("rtree", "iid30", "window", 3, 27194, 256),
    ("rtree", "iid30", "knn", 0, 23373, 625),
    ("rtree", "iid30", "knn", 1, 20876, 458),
    ("rtree", "iid30", "knn", 2, 16237, 356),
    ("rtree", "iid30", "knn", 3, 13582, 299),
    ("hci", "iid30", "window", 0, 8862, 163),
    ("hci", "iid30", "window", 1, 25545, 199),
    ("hci", "iid30", "window", 2, 14456, 242),
    ("hci", "iid30", "window", 3, 9599, 191),
    ("hci", "iid30", "knn", 0, 7220, 102),
    ("hci", "iid30", "knn", 1, 36207, 172),
    ("hci", "iid30", "knn", 2, 32470, 140),
    ("hci", "iid30", "knn", 3, 19947, 348),
    // DSI kNN under the aggressive strategy, captured from the engine as
    // it stood before the lazy circle decomposition. Its navigation reads
    // remainder liveness off the target ranges, so these rows pin that
    // read path bit-for-bit.
    ("dsi_aggressive", "none", "knn", 0, 7822, 310),
    ("dsi_aggressive", "none", "knn", 1, 8208, 224),
    ("dsi_aggressive", "none", "knn", 2, 6821, 310),
    ("dsi_aggressive", "none", "knn", 3, 16554, 354),
    ("dsi_aggressive", "iid30", "knn", 0, 7822, 397),
    ("dsi_aggressive", "iid30", "knn", 1, 8340, 379),
    ("dsi_aggressive", "iid30", "knn", 2, 11849, 313),
    ("dsi_aggressive", "iid30", "knn", 3, 21910, 351),
];

const K: usize = 5;

fn dataset() -> SpatialDataset {
    SpatialDataset::build(&uniform(300, 42), 9)
}

fn schemes(ds: &SpatialDataset, chan: &ChannelConfig) -> Vec<(&'static str, Engine)> {
    [
        ("dsi", Scheme::dsi_reorganized(64)),
        ("rtree", Scheme::RTree),
        ("hci", Scheme::Hci),
    ]
    .into_iter()
    .map(|(name, scheme)| {
        let built = Engine::try_build_channels(scheme, ds, 64, chan.clone());
        (name, built.expect("the layout builds"))
    })
    .collect()
}

fn run(
    scheme: &Engine,
    loss: LossModel,
    kind: &str,
    qi: usize,
    windows: &[Rect],
    points: &[Point],
) -> QueryOutcome {
    let cycle = scheme.cycle_packets();
    let (start, query) = match kind {
        "window" => ((qi as u64 * 7919) % cycle, Query::Window(windows[qi])),
        _ => ((qi as u64 * 6151) % cycle, Query::Knn(points[qi], K)),
    };
    scheme.drive_antennas(start, loss, qi as u64, AntennaConfig::single(), &query)
}

#[test]
fn single_channel_unified_path_reproduces_pre_refactor_stats() {
    let ds = dataset();
    let windows = window_queries(4, 0.2, 3);
    let points = knn_points(4, 9);
    let mut schemes = schemes(&ds, &ChannelConfig::single());
    let aggressive = Scheme::Dsi(DsiConfig::paper_reorganized(), KnnStrategy::Aggressive);
    schemes.push(("dsi_aggressive", Engine::build(aggressive, &ds, 64)));
    for &(scheme_name, loss_name, kind, qi, latency, tuning) in GOLDEN {
        let loss = match loss_name {
            "none" => LossModel::None,
            _ => LossModel::iid(0.3),
        };
        let (_, scheme) = schemes
            .iter()
            .find(|(n, _)| *n == scheme_name)
            .expect("scheme exists");
        let out = run(scheme, loss, kind, qi, &windows, &points);
        assert_eq!(
            (out.stats.latency_packets, out.stats.tuning_packets),
            (latency, tuning),
            "{scheme_name}/{loss_name}/{kind} query {qi} diverged from the pre-refactor oracle"
        );
        // Single channel: no switches, all tuning on channel 0.
        assert_eq!(out.channels.switches, 0);
        assert_eq!(out.channels.tuning_packets, vec![out.stats.tuning_packets]);
        // Answers stay exact.
        let want = match kind {
            "window" => ds.brute_window(&windows[qi]),
            _ => ds.brute_knn(points[qi], K),
        };
        assert_eq!(out.ids, want);
    }
}

#[test]
fn multi_channel_answers_stay_exact() {
    let ds = dataset();
    let windows = window_queries(4, 0.2, 3);
    let points = knn_points(4, 9);
    for chan in [
        ChannelConfig::striped(2, 1),
        ChannelConfig::striped(4, 2),
        ChannelConfig {
            channels: 3,
            placement: Placement::IndexData { index_channels: 1 },
            switch_cost: 2,
        },
    ] {
        for (name, scheme) in schemes(&ds, &chan) {
            for (loss_name, loss) in [("none", LossModel::None), ("iid30", LossModel::iid(0.3))] {
                for kind in ["window", "knn"] {
                    for qi in 0..4 {
                        let out = run(&scheme, loss.clone(), kind, qi, &windows, &points);
                        let want = match kind {
                            "window" => ds.brute_window(&windows[qi]),
                            _ => ds.brute_knn(points[qi], K),
                        };
                        assert_eq!(
                            out.ids, want,
                            "{name} C={} {loss_name} {kind} q{qi}",
                            chan.channels
                        );
                        assert_eq!(out.channels.tuning_packets.len(), chan.channels as usize);
                        assert_eq!(
                            out.channels.tuning_packets.iter().sum::<u64>(),
                            out.stats.tuning_packets
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn blocked_channels_shorten_latency_for_window_queries() {
    // More block-contiguous channels → shorter per-channel cycles while
    // frame scans keep their locality → lower access latency on average.
    // Assert the direction for the DSI scheme with free switches.
    let ds = dataset();
    let windows = window_queries(8, 0.2, 3);
    let mut means = Vec::new();
    for c in [1u32, 4] {
        let schemes = schemes(&ds, &ChannelConfig::blocked(c, 0));
        let (_, dsi) = &schemes[0];
        let mut total = 0u64;
        for (qi, w) in windows.iter().enumerate() {
            let out = dsi.drive_antennas(
                (qi as u64 * 7919) % dsi.cycle_packets(),
                LossModel::None,
                qi as u64,
                AntennaConfig::single(),
                &Query::Window(*w),
            );
            total += out.stats.latency_packets;
        }
        means.push(total as f64 / windows.len() as f64);
    }
    assert!(
        means[1] < means[0],
        "4-channel striping should beat single-channel latency: {means:?}"
    );
}

#[test]
fn drive_reports_channel_switches_under_split() {
    // Index/data split: every object retrieval forces a hop off the index
    // channel, so switches must be non-zero and index tuning must land on
    // channel 0.
    let ds = dataset();
    let windows = window_queries(4, 0.2, 3);
    let chan = ChannelConfig::index_data(2, 1, 1);
    for (name, scheme) in schemes(&ds, &chan) {
        let out = scheme.drive_antennas(
            17,
            LossModel::None,
            5,
            AntennaConfig::single(),
            &Query::Window(windows[0]),
        );
        assert_eq!(out.ids, ds.brute_window(&windows[0]), "{name}");
        assert!(out.channels.switches > 0, "{name}: no switches recorded");
        assert!(
            out.channels.tuning_packets[0] > 0,
            "{name}: no index-channel tuning"
        );
    }
}
