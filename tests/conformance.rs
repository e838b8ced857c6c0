//! Cross-scheme conformance suite for the channel-aware navigation and
//! multi-antenna tuner layer.
//!
//! One table-driven harness asserts, for every scheme × placement
//! (including the frame-granular `StripeFrames`) × C ∈ {1, 2, 4} ×
//! antennas ∈ {1, 2} × loss ∈ {0, 0.05} combination:
//!
//! (a) query answers are bit-identical to the brute-force oracle —
//!     antennas and placements change latency and tuning, never results;
//! (b) a single-antenna client reproduces the pre-refactor
//!     [`ChannelStats`] (switch counts and per-channel tuning) exactly —
//!     the goldens below were captured from the PR 3 code before the
//!     multi-antenna tuner existed;
//! (c) on the lossless path, a 2-antenna client is never slower than the
//!     single-antenna client on the batch (mean access latency per cell);
//! (d) the 2-antenna clients of all three schemes reproduce pinned
//!     [`ChannelStats`] rows on multi-channel programs, lossless and under
//!     bursty fades;
//! (e) DSI on four equal-length channels reproduces pinned
//!     [`ChannelStats`] rows that depend on how its navigator breaks ties
//!     between frames on different channels.
//!
//! A final regression test pins the PR 3 measured finding that motivated
//! this layer: at C = 4 unit-granular striping hurts the serial-scan DSI
//! client, `Blocked` beats it, and `StripeFrames` closes the gap.

use dsi::bptree::{BpAir, BpAirConfig};
use dsi::broadcast::optimize::{
    arc_assignment, optimize_placement, predict_latency_packets, AccessProfile, OptimizedPlacement,
    UnitSchema,
};
use dsi::broadcast::segmented::{SegmentedAir, TreePacket, MAX_SEGMENTS};
use dsi::broadcast::{
    AntennaConfig, ChannelConfig, DynScheme, GilbertElliott, LayoutError, LossModel,
    OutageSchedule, OutageWindow, Placement, Query, QueryOutcome,
};
use dsi::core::{DsiAir, DsiConfig, DsiScheme, KnnStrategy};
use dsi::datagen::{knn_points, uniform, window_queries, SpatialDataset};
use dsi::rtree::{RTreeAir, RtreeAirConfig};
use dsi::{Point, Rect};

const K: usize = 5;
const SWITCH_COST: u32 = 2;

fn dataset() -> SpatialDataset {
    SpatialDataset::build(&uniform(300, 42), 9)
}

/// Builds one scheme by name under a channel configuration (explicit
/// placements are per-scheme: unit counts differ, so an optimized
/// assignment only fits the scheme it was fitted for).
fn build_scheme(ds: &SpatialDataset, name: &str, chan: &ChannelConfig) -> Box<dyn DynScheme> {
    match name {
        "dsi" => Box::new(DsiScheme {
            air: DsiAir::try_build_channels(
                ds,
                DsiConfig::paper_reorganized().with_capacity(64),
                chan.clone(),
            )
            .expect("the layout builds"),
            strategy: KnnStrategy::Conservative,
        }),
        "rtree" => {
            let pts: Vec<(u32, Point)> = ds.objects().iter().map(|o| (o.id, o.pos)).collect();
            Box::new(
                RTreeAir::try_build_channels(&pts, RtreeAirConfig::new(64), chan.clone())
                    .expect("the layout builds"),
            )
        }
        "hci" => Box::new(
            BpAir::try_build_channels(ds, BpAirConfig::new(64), chan.clone())
                .expect("the layout builds"),
        ),
        other => panic!("unknown scheme {other}"),
    }
}

fn schemes(ds: &SpatialDataset, chan: &ChannelConfig) -> Vec<(&'static str, Box<dyn DynScheme>)> {
    ["dsi", "rtree", "hci"]
        .into_iter()
        .map(|name| (name, build_scheme(ds, name, chan)))
        .collect()
}

/// The channel grid: every placement × C ∈ {1, 2, 4}. C = 1 collapses all
/// placements to the classic single channel, so it appears once.
fn channel_grid() -> Vec<(String, ChannelConfig)> {
    let mut grid = vec![("C1".to_string(), ChannelConfig::single())];
    for c in [2u32, 4] {
        grid.push((
            format!("blocked{c}"),
            ChannelConfig::blocked(c, SWITCH_COST),
        ));
        grid.push((format!("stripe{c}"), ChannelConfig::striped(c, SWITCH_COST)));
        grid.push((
            format!("stripef{c}"),
            ChannelConfig::striped_frames(c, SWITCH_COST),
        ));
        grid.push((
            format!("split{c}"),
            ChannelConfig::index_data(c, 1, SWITCH_COST),
        ));
    }
    grid
}

fn run(
    scheme: &dyn DynScheme,
    loss: LossModel,
    antennas: AntennaConfig,
    kind: &str,
    qi: usize,
    windows: &[Rect],
    points: &[Point],
) -> QueryOutcome {
    let cycle = scheme.cycle_packets();
    match kind {
        "window" => scheme.drive_antennas(
            (qi as u64 * 7919) % cycle,
            loss,
            qi as u64,
            antennas,
            &Query::Window(windows[qi]),
        ),
        _ => scheme.drive_antennas(
            (qi as u64 * 6151) % cycle,
            loss,
            qi as u64,
            antennas,
            &Query::Knn(points[qi], K),
        ),
    }
}

/// (a) + (c): answers equal brute force over the full grid, and the
/// 2-antenna client's mean lossless latency never exceeds the 1-antenna
/// client's. Per-query latency dominance does not hold in general — the
/// navigation is greedy, so one earlier read can reorder the rest of the
/// plan — but every individual `arrival` is pointwise ≤ with more
/// antennas, which shows in the batch mean.
#[test]
fn answers_match_oracle_and_antennas_never_slow_the_batch() {
    const NQ: usize = 8;
    let ds = dataset();
    let windows = window_queries(NQ, 0.2, 3);
    let points = knn_points(NQ, 9);
    for (cname, chan) in channel_grid() {
        for (sname, scheme) in schemes(&ds, &chan) {
            // Mean lossless latency of the cell's whole workload (window
            // plus kNN queries), per antenna count.
            let mut mean_latency = [0.0f64; 2];
            for (lname, loss) in [("none", LossModel::None), ("iid5", LossModel::iid(0.05))] {
                for kind in ["window", "knn"] {
                    for (ai, antennas) in [AntennaConfig::single(), AntennaConfig::new(2)]
                        .into_iter()
                        .enumerate()
                    {
                        for qi in 0..NQ {
                            let out = run(
                                scheme.as_ref(),
                                loss.clone(),
                                antennas,
                                kind,
                                qi,
                                &windows,
                                &points,
                            );
                            let want = match kind {
                                "window" => ds.brute_window(&windows[qi]),
                                _ => ds.brute_knn(points[qi], K),
                            };
                            assert_eq!(
                                out.ids, want,
                                "{sname}/{cname}/k{}/{lname}/{kind} q{qi} diverged from oracle",
                                antennas.antennas
                            );
                            // Per-channel tuning always reconciles with the
                            // aggregate view.
                            assert_eq!(
                                out.channels.tuning_packets.iter().sum::<u64>(),
                                out.stats.tuning_packets
                            );
                            assert_eq!(
                                out.channels.tuning_packets.len() as u32,
                                chan.channels.max(1)
                            );
                            if matches!(loss, LossModel::None) {
                                mean_latency[ai] +=
                                    out.stats.latency_packets as f64 / (2 * NQ) as f64;
                            }
                        }
                    }
                }
            }
            // (c): the 2-antenna client is never slower on the cell's
            // lossless workload. Per-query dominance cannot hold in
            // general — navigation is greedy, so one earlier read can
            // reorder the rest of the plan — but every individual
            // `arrival` is pointwise ≤ with more antennas, which shows
            // in the workload mean.
            assert!(
                mean_latency[1] <= mean_latency[0],
                "{sname}/{cname}: k=2 mean latency {} > k=1 {}",
                mean_latency[1],
                mean_latency[0]
            );
        }
    }
}

/// The fault-model loss axis of the robustness grid: one bursty
/// Gilbert–Elliott channel (mean fade 4 packets, 90% loss inside a
/// fade), one periodic two-channel outage schedule, and the keyed
/// per-(query, channel) i.i.d. streams.
fn fault_grid() -> Vec<(&'static str, LossModel)> {
    vec![
        (
            "gilbert",
            LossModel::Gilbert(GilbertElliott::new(0.02, 0.25, 0.9)),
        ),
        (
            // Prime period: a recurring packet's airing drifts through
            // every residue of the period (unless 509 divides the channel
            // cycle), so retries of an object caught by one window always
            // escape it eventually — no resonance livelock.
            "outage",
            LossModel::Outage(OutageSchedule::periodic(
                vec![
                    OutageWindow {
                        channel: 0,
                        start: 48,
                        len: 24,
                    },
                    OutageWindow {
                        channel: 1,
                        start: 304,
                        len: 24,
                    },
                ],
                509,
            )),
        ),
        ("keyed10", LossModel::keyed_iid(0.10)),
    ]
}

/// The robustness counterpart of the oracle test: under bursty
/// Gilbert–Elliott fades, scheduled whole-channel outages, and keyed
/// i.i.d. streams, every scheme × placement × C × antenna cell still
/// answers exactly the brute-force result, terminates (the livelock
/// guard would panic otherwise), and keeps its per-channel tuning
/// reconciled. Loss-aware retunes only ever happen on k = 2 clients
/// with somewhere to dodge to.
#[test]
fn answers_survive_bursty_faults_across_the_grid() {
    const NQ: usize = 4;
    let ds = dataset();
    let windows = window_queries(NQ, 0.2, 3);
    let points = knn_points(NQ, 9);
    for (cname, chan) in channel_grid() {
        for (sname, scheme) in schemes(&ds, &chan) {
            for (lname, loss) in fault_grid() {
                for kind in ["window", "knn"] {
                    for antennas in [AntennaConfig::single(), AntennaConfig::new(2)] {
                        for qi in 0..NQ {
                            let out = run(
                                scheme.as_ref(),
                                loss.clone(),
                                antennas,
                                kind,
                                qi,
                                &windows,
                                &points,
                            );
                            let want = match kind {
                                "window" => ds.brute_window(&windows[qi]),
                                _ => ds.brute_knn(points[qi], K),
                            };
                            assert_eq!(
                                out.ids, want,
                                "{sname}/{cname}/k{}/{lname}/{kind} q{qi} diverged from oracle",
                                antennas.antennas
                            );
                            assert_eq!(
                                out.channels.tuning_packets.iter().sum::<u64>(),
                                out.stats.tuning_packets
                            );
                            if antennas.antennas == 1 || chan.channels == 1 {
                                assert_eq!(
                                    out.stats.loss_retunes, 0,
                                    "{sname}/{cname}/{lname}: nowhere to dodge, yet retuned"
                                );
                            }
                            assert!(
                                out.stats.longest_stall_packets <= out.stats.latency_packets,
                                "stall cannot exceed the query's own span"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// (scheme, channel config, loss, query kind, query index,
/// latency_packets, tuning_packets, switches, per-channel tuning packets)
/// captured from the PR 3 code (single-receiver tuner, before the
/// multi-antenna refactor). The k = 1 path must reproduce every row
/// bit-for-bit, loss-draw sequences included.
type GoldenRow = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    usize,
    u64,
    u64,
    u64,
    &'static [u64],
);

const CHANNEL_GOLDEN: &[GoldenRow] = &[
    (
        "dsi",
        "blocked2",
        "none",
        "window",
        0,
        2117,
        175,
        1,
        &[2, 173],
    ),
    (
        "dsi",
        "blocked2",
        "none",
        "window",
        1,
        3854,
        206,
        6,
        &[143, 63],
    ),
    ("dsi", "blocked2", "none", "knn", 0, 675, 218, 1, &[22, 196]),
    (
        "dsi",
        "blocked2",
        "none",
        "knn",
        1,
        3317,
        291,
        6,
        &[246, 45],
    ),
    (
        "dsi",
        "blocked2",
        "iid5",
        "window",
        0,
        2117,
        177,
        1,
        &[4, 173],
    ),
    (
        "dsi",
        "blocked2",
        "iid5",
        "window",
        1,
        3854,
        220,
        8,
        &[146, 74],
    ),
    (
        "dsi",
        "blocked2",
        "iid5",
        "knn",
        0,
        2886,
        351,
        3,
        &[128, 223],
    ),
    (
        "dsi",
        "blocked2",
        "iid5",
        "knn",
        1,
        3317,
        294,
        6,
        &[245, 49],
    ),
    (
        "rtree",
        "blocked2",
        "none",
        "window",
        0,
        3134,
        170,
        1,
        &[2, 168],
    ),
    (
        "rtree",
        "blocked2",
        "none",
        "window",
        1,
        3169,
        207,
        6,
        &[146, 61],
    ),
    (
        "rtree",
        "blocked2",
        "none",
        "knn",
        0,
        23436,
        319,
        9,
        &[86, 233],
    ),
    (
        "rtree",
        "blocked2",
        "none",
        "knn",
        1,
        30357,
        366,
        36,
        &[239, 127],
    ),
    (
        "rtree",
        "blocked2",
        "iid5",
        "window",
        0,
        3134,
        172,
        1,
        &[4, 168],
    ),
    (
        "rtree",
        "blocked2",
        "iid5",
        "window",
        1,
        5374,
        213,
        9,
        &[150, 63],
    ),
    (
        "rtree",
        "blocked2",
        "iid5",
        "knn",
        0,
        26586,
        329,
        13,
        &[76, 253],
    ),
    (
        "rtree",
        "blocked2",
        "iid5",
        "knn",
        1,
        27207,
        231,
        32,
        &[194, 37],
    ),
    (
        "hci",
        "blocked2",
        "none",
        "window",
        0,
        762,
        158,
        1,
        &[2, 156],
    ),
    (
        "hci",
        "blocked2",
        "none",
        "window",
        1,
        14745,
        184,
        10,
        &[161, 23],
    ),
    ("hci", "blocked2", "none", "knn", 0, 4520, 97, 2, &[96, 1]),
    (
        "hci",
        "blocked2",
        "none",
        "knn",
        1,
        3845,
        156,
        7,
        &[12, 144],
    ),
    (
        "hci",
        "blocked2",
        "iid5",
        "window",
        0,
        762,
        159,
        1,
        &[3, 156],
    ),
    (
        "hci",
        "blocked2",
        "iid5",
        "window",
        1,
        17353,
        187,
        12,
        &[163, 24],
    ),
    ("hci", "blocked2", "iid5", "knn", 0, 4520, 98, 2, &[97, 1]),
    (
        "hci",
        "blocked2",
        "iid5",
        "knn",
        1,
        23501,
        129,
        18,
        &[16, 113],
    ),
    (
        "dsi",
        "stripe2",
        "none",
        "window",
        0,
        28745,
        171,
        23,
        &[80, 91],
    ),
    (
        "dsi",
        "stripe2",
        "none",
        "window",
        1,
        41402,
        198,
        35,
        &[85, 113],
    ),
    (
        "dsi",
        "stripe2",
        "none",
        "knn",
        0,
        52063,
        357,
        42,
        &[167, 190],
    ),
    (
        "dsi",
        "stripe2",
        "none",
        "knn",
        1,
        90722,
        584,
        73,
        &[282, 302],
    ),
    (
        "dsi",
        "stripe2",
        "iid5",
        "window",
        0,
        28745,
        171,
        23,
        &[80, 91],
    ),
    (
        "dsi",
        "stripe2",
        "iid5",
        "window",
        1,
        52026,
        204,
        43,
        &[87, 117],
    ),
    (
        "dsi",
        "stripe2",
        "iid5",
        "knn",
        0,
        52063,
        418,
        42,
        &[197, 221],
    ),
    (
        "dsi",
        "stripe2",
        "iid5",
        "knn",
        1,
        90722,
        584,
        73,
        &[282, 302],
    ),
    (
        "rtree",
        "stripe2",
        "none",
        "window",
        0,
        15711,
        170,
        8,
        &[81, 89],
    ),
    (
        "rtree",
        "stripe2",
        "none",
        "window",
        1,
        19195,
        207,
        12,
        &[131, 76],
    ),
    (
        "rtree",
        "stripe2",
        "none",
        "knn",
        0,
        14829,
        272,
        16,
        &[203, 69],
    ),
    (
        "rtree",
        "stripe2",
        "none",
        "knn",
        1,
        14238,
        279,
        16,
        &[223, 56],
    ),
    (
        "rtree",
        "stripe2",
        "iid5",
        "window",
        0,
        15711,
        172,
        8,
        &[81, 91],
    ),
    (
        "rtree",
        "stripe2",
        "iid5",
        "window",
        1,
        19195,
        213,
        20,
        &[128, 85],
    ),
    (
        "rtree",
        "stripe2",
        "iid5",
        "knn",
        0,
        14829,
        248,
        18,
        &[181, 67],
    ),
    (
        "rtree",
        "stripe2",
        "iid5",
        "knn",
        1,
        14238,
        250,
        20,
        &[193, 57],
    ),
    (
        "hci",
        "stripe2",
        "none",
        "window",
        0,
        12528,
        158,
        7,
        &[73, 85],
    ),
    (
        "hci",
        "stripe2",
        "none",
        "window",
        1,
        23112,
        184,
        16,
        &[126, 58],
    ),
    ("hci", "stripe2", "none", "knn", 0, 17102, 97, 9, &[61, 36]),
    (
        "hci",
        "stripe2",
        "none",
        "knn",
        1,
        17736,
        156,
        16,
        &[80, 76],
    ),
    (
        "hci",
        "stripe2",
        "iid5",
        "window",
        0,
        12528,
        159,
        9,
        &[73, 86],
    ),
    (
        "hci",
        "stripe2",
        "iid5",
        "window",
        1,
        9612,
        187,
        14,
        &[128, 59],
    ),
    ("hci", "stripe2", "iid5", "knn", 0, 17102, 98, 9, &[61, 37]),
    (
        "hci",
        "stripe2",
        "iid5",
        "knn",
        1,
        17736,
        160,
        20,
        &[81, 79],
    ),
    (
        "dsi",
        "split2",
        "none",
        "window",
        0,
        9120,
        177,
        9,
        &[18, 159],
    ),
    (
        "dsi",
        "split2",
        "none",
        "window",
        1,
        15794,
        205,
        9,
        &[18, 187],
    ),
    ("dsi", "split2", "none", "knn", 0, 7857, 245, 15, &[28, 217]),
    (
        "dsi",
        "split2",
        "none",
        "knn",
        1,
        19849,
        387,
        23,
        &[24, 363],
    ),
    (
        "dsi",
        "split2",
        "iid5",
        "window",
        0,
        9120,
        177,
        9,
        &[18, 159],
    ),
    (
        "dsi",
        "split2",
        "iid5",
        "window",
        1,
        15794,
        210,
        11,
        &[18, 192],
    ),
    ("dsi", "split2", "iid5", "knn", 0, 12497, 292, 9, &[20, 272]),
    (
        "dsi",
        "split2",
        "iid5",
        "knn",
        1,
        19849,
        388,
        21,
        &[24, 364],
    ),
    (
        "rtree",
        "split2",
        "none",
        "window",
        0,
        4784,
        170,
        1,
        &[26, 144],
    ),
    (
        "rtree",
        "split2",
        "none",
        "window",
        1,
        4477,
        207,
        1,
        &[47, 160],
    ),
    (
        "rtree",
        "split2",
        "none",
        "knn",
        0,
        17856,
        225,
        5,
        &[113, 112],
    ),
    ("rtree", "split2", "none", "knn", 1, 4857, 159, 3, &[79, 80]),
    (
        "rtree",
        "split2",
        "iid5",
        "window",
        0,
        4784,
        172,
        1,
        &[28, 144],
    ),
    (
        "rtree",
        "split2",
        "iid5",
        "window",
        1,
        4477,
        215,
        1,
        &[55, 160],
    ),
    (
        "rtree",
        "split2",
        "iid5",
        "knn",
        0,
        22656,
        259,
        7,
        &[115, 144],
    ),
    ("rtree", "split2", "iid5", "knn", 1, 4857, 163, 3, &[83, 80]),
    (
        "hci",
        "split2",
        "none",
        "window",
        0,
        3072,
        158,
        1,
        &[14, 144],
    ),
    (
        "hci",
        "split2",
        "none",
        "window",
        1,
        4665,
        184,
        1,
        &[24, 160],
    ),
    ("hci", "split2", "none", "knn", 0, 1616, 97, 1, &[17, 80]),
    ("hci", "split2", "none", "knn", 1, 3297, 156, 1, &[28, 128]),
    (
        "hci",
        "split2",
        "iid5",
        "window",
        0,
        3072,
        159,
        1,
        &[15, 144],
    ),
    (
        "hci",
        "split2",
        "iid5",
        "window",
        1,
        4665,
        187,
        1,
        &[27, 160],
    ),
    ("hci", "split2", "iid5", "knn", 0, 1616, 98, 1, &[18, 80]),
    ("hci", "split2", "iid5", "knn", 1, 3297, 160, 1, &[32, 128]),
    (
        "dsi",
        "blocked4",
        "none",
        "window",
        0,
        887,
        173,
        2,
        &[2, 2, 0, 169],
    ),
    (
        "dsi",
        "blocked4",
        "none",
        "window",
        1,
        1340,
        209,
        5,
        &[9, 141, 0, 59],
    ),
    (
        "dsi",
        "blocked4",
        "none",
        "knn",
        0,
        675,
        292,
        2,
        &[22, 0, 190, 80],
    ),
    (
        "dsi",
        "blocked4",
        "none",
        "knn",
        1,
        2083,
        299,
        8,
        &[2, 246, 6, 45],
    ),
    (
        "dsi",
        "blocked4",
        "iid5",
        "window",
        0,
        887,
        173,
        2,
        &[2, 2, 0, 169],
    ),
    (
        "dsi",
        "blocked4",
        "iid5",
        "window",
        1,
        1340,
        221,
        5,
        &[19, 143, 0, 59],
    ),
    (
        "dsi",
        "blocked4",
        "iid5",
        "knn",
        0,
        675,
        281,
        2,
        &[84, 7, 190, 0],
    ),
    (
        "dsi",
        "blocked4",
        "iid5",
        "knn",
        1,
        2083,
        296,
        5,
        &[2, 251, 0, 43],
    ),
    (
        "rtree",
        "blocked4",
        "none",
        "window",
        0,
        1559,
        170,
        1,
        &[2, 0, 0, 168],
    ),
    (
        "rtree",
        "blocked4",
        "none",
        "window",
        1,
        11107,
        207,
        18,
        &[29, 117, 61, 0],
    ),
    (
        "rtree",
        "blocked4",
        "none",
        "knn",
        0,
        20286,
        193,
        20,
        &[56, 6, 114, 17],
    ),
    (
        "rtree",
        "blocked4",
        "none",
        "knn",
        1,
        17285,
        221,
        23,
        &[80, 119, 16, 6],
    ),
    (
        "rtree",
        "blocked4",
        "iid5",
        "window",
        0,
        1559,
        172,
        2,
        &[4, 0, 2, 166],
    ),
    (
        "rtree",
        "blocked4",
        "iid5",
        "window",
        1,
        2869,
        213,
        13,
        &[31, 117, 65, 0],
    ),
    (
        "rtree",
        "blocked4",
        "iid5",
        "knn",
        0,
        15561,
        234,
        24,
        &[72, 9, 141, 12],
    ),
    (
        "rtree",
        "blocked4",
        "iid5",
        "knn",
        1,
        18860,
        230,
        27,
        &[40, 167, 11, 12],
    ),
    (
        "hci",
        "blocked4",
        "none",
        "window",
        0,
        762,
        158,
        2,
        &[2, 0, 155, 1],
    ),
    (
        "hci",
        "blocked4",
        "none",
        "window",
        1,
        8751,
        184,
        15,
        &[108, 53, 0, 23],
    ),
    (
        "hci",
        "blocked4",
        "none",
        "knn",
        0,
        1820,
        97,
        4,
        &[4, 92, 1, 0],
    ),
    (
        "hci",
        "blocked4",
        "none",
        "knn",
        1,
        10557,
        156,
        16,
        &[7, 5, 33, 111],
    ),
    (
        "hci",
        "blocked4",
        "iid5",
        "window",
        0,
        762,
        159,
        2,
        &[3, 0, 155, 1],
    ),
    (
        "hci",
        "blocked4",
        "iid5",
        "window",
        1,
        10927,
        187,
        17,
        &[110, 54, 0, 23],
    ),
    (
        "hci",
        "blocked4",
        "iid5",
        "knn",
        0,
        1820,
        98,
        3,
        &[5, 93, 0, 0],
    ),
    (
        "hci",
        "blocked4",
        "iid5",
        "knn",
        1,
        12647,
        129,
        22,
        &[10, 6, 2, 111],
    ),
    (
        "dsi",
        "stripe4",
        "none",
        "window",
        0,
        15489,
        174,
        29,
        &[39, 20, 42, 73],
    ),
    (
        "dsi",
        "stripe4",
        "none",
        "window",
        1,
        23876,
        204,
        45,
        &[45, 60, 43, 56],
    ),
    (
        "dsi",
        "stripe4",
        "none",
        "knn",
        0,
        36363,
        465,
        64,
        &[83, 142, 122, 118],
    ),
    (
        "dsi",
        "stripe4",
        "none",
        "knn",
        1,
        42110,
        318,
        79,
        &[84, 97, 70, 67],
    ),
    (
        "dsi",
        "stripe4",
        "iid5",
        "window",
        0,
        14365,
        172,
        24,
        &[39, 20, 44, 69],
    ),
    (
        "dsi",
        "stripe4",
        "iid5",
        "window",
        1,
        23876,
        202,
        45,
        &[44, 60, 43, 55],
    ),
    (
        "dsi",
        "stripe4",
        "iid5",
        "knn",
        0,
        36363,
        525,
        64,
        &[98, 157, 137, 133],
    ),
    (
        "dsi",
        "stripe4",
        "iid5",
        "knn",
        1,
        44742,
        364,
        83,
        &[97, 100, 86, 81],
    ),
    (
        "rtree",
        "stripe4",
        "none",
        "window",
        0,
        12597,
        170,
        15,
        &[44, 72, 37, 17],
    ),
    (
        "rtree",
        "stripe4",
        "none",
        "window",
        1,
        16671,
        207,
        22,
        &[72, 42, 57, 36],
    ),
    (
        "rtree",
        "stripe4",
        "none",
        "knn",
        0,
        23181,
        264,
        35,
        &[100, 57, 37, 70],
    ),
    (
        "rtree",
        "stripe4",
        "none",
        "knn",
        1,
        19802,
        217,
        65,
        &[80, 68, 37, 32],
    ),
    (
        "rtree",
        "stripe4",
        "iid5",
        "window",
        0,
        12597,
        172,
        16,
        &[44, 72, 39, 17],
    ),
    (
        "rtree",
        "stripe4",
        "iid5",
        "window",
        1,
        16671,
        213,
        26,
        &[72, 43, 59, 39],
    ),
    (
        "rtree",
        "stripe4",
        "iid5",
        "knn",
        0,
        26331,
        259,
        38,
        &[99, 51, 53, 56],
    ),
    (
        "rtree",
        "stripe4",
        "iid5",
        "knn",
        1,
        8777,
        195,
        34,
        &[64, 55, 38, 38],
    ),
    (
        "hci",
        "stripe4",
        "none",
        "window",
        0,
        17064,
        158,
        19,
        &[6, 51, 66, 35],
    ),
    (
        "hci",
        "stripe4",
        "none",
        "window",
        1,
        15697,
        184,
        24,
        &[74, 37, 51, 22],
    ),
    (
        "hci",
        "stripe4",
        "none",
        "knn",
        0,
        9917,
        97,
        18,
        &[35, 5, 23, 34],
    ),
    (
        "hci",
        "stripe4",
        "none",
        "knn",
        1,
        15250,
        156,
        31,
        &[25, 56, 53, 22],
    ),
    (
        "hci",
        "stripe4",
        "iid5",
        "window",
        0,
        17064,
        159,
        20,
        &[6, 51, 66, 36],
    ),
    (
        "hci",
        "stripe4",
        "iid5",
        "window",
        1,
        12997,
        187,
        31,
        &[76, 37, 51, 23],
    ),
    (
        "hci",
        "stripe4",
        "iid5",
        "knn",
        0,
        9917,
        98,
        19,
        &[35, 5, 23, 35],
    ),
    (
        "hci",
        "stripe4",
        "iid5",
        "knn",
        1,
        13900,
        160,
        32,
        &[27, 56, 53, 24],
    ),
];

#[test]
fn single_antenna_reproduces_pre_refactor_channel_stats() {
    let ds = dataset();
    let windows = window_queries(4, 0.2, 3);
    let points = knn_points(4, 9);
    let configs: Vec<(&str, ChannelConfig)> = vec![
        ("blocked2", ChannelConfig::blocked(2, SWITCH_COST)),
        ("stripe2", ChannelConfig::striped(2, SWITCH_COST)),
        ("split2", ChannelConfig::index_data(2, 1, SWITCH_COST)),
        ("blocked4", ChannelConfig::blocked(4, SWITCH_COST)),
        ("stripe4", ChannelConfig::striped(4, SWITCH_COST)),
    ];
    for (cname, chan) in &configs {
        let built = schemes(&ds, chan);
        for &(sname, gc, lname, kind, qi, latency, tuning, switches, per_chan) in CHANNEL_GOLDEN {
            if gc != *cname {
                continue;
            }
            let (_, scheme) = built.iter().find(|(n, _)| *n == sname).expect("scheme");
            let loss = match lname {
                "none" => LossModel::None,
                _ => LossModel::iid(0.05),
            };
            let out = run(
                scheme.as_ref(),
                loss,
                AntennaConfig::single(),
                kind,
                qi,
                &windows,
                &points,
            );
            assert_eq!(
                (
                    out.stats.latency_packets,
                    out.stats.tuning_packets,
                    out.channels.switches,
                    out.channels.tuning_packets.as_slice(),
                ),
                (latency, tuning, switches, per_chan),
                "{sname}/{cname}/{lname}/{kind} q{qi} diverged from the pre-refactor oracle"
            );
        }
    }
}

/// (scheme, channel config, loss, query kind, query index,
/// latency_packets, tuning_packets, switches, per-channel tuning packets,
/// loss retunes) of the 2-antenna clients. The DSI rows were captured
/// while the multi-channel navigator still swept every frame in broadcast
/// order: the k = 2 client plans over that candidate list with the
/// duration-aware planner, so they pin the list itself, not just the
/// answers. The R-tree rows were captured while its kNN client still
/// re-selected the k-th candidate bound after every change: the radius
/// decides which nodes are pruned before the planner sees them, so they
/// pin that bookkeeping. The HCI rows pin its planned pop and the
/// arrival-ordered leaf walk of its kNN phase 1. Any other way to
/// enumerate candidates, keep bounds or plan reads must reproduce every
/// row bit-for-bit.
type AntennaGoldenRow = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    usize,
    u64,
    u64,
    u64,
    &'static [u64],
    u64,
);

#[rustfmt::skip]
const TWO_ANTENNA_GOLDEN: &[AntennaGoldenRow] = &[
    ("dsi", "blocked4", "none", "window", 0, 887, 173, 2, &[2, 2, 0, 169], 0),
    ("dsi", "blocked4", "none", "window", 1, 1340, 209, 5, &[9, 141, 0, 59], 0),
    ("dsi", "blocked4", "none", "knn", 0, 675, 292, 2, &[22, 0, 190, 80], 0),
    ("dsi", "blocked4", "none", "knn", 1, 2083, 299, 6, &[2, 246, 6, 45], 0),
    ("dsi", "blocked4", "gilbert", "window", 0, 887, 173, 2, &[2, 2, 0, 169], 0),
    ("dsi", "blocked4", "gilbert", "window", 1, 1340, 209, 5, &[9, 141, 0, 59], 0),
    ("dsi", "blocked4", "gilbert", "knn", 0, 675, 292, 2, &[22, 0, 190, 80], 0),
    ("dsi", "blocked4", "gilbert", "knn", 1, 2083, 299, 6, &[2, 246, 6, 45], 0),
    ("dsi", "stripe4", "none", "window", 0, 10321, 177, 20, &[39, 20, 45, 73], 0),
    ("dsi", "stripe4", "none", "window", 1, 19885, 214, 33, &[46, 65, 44, 59], 0),
    ("dsi", "stripe4", "none", "knn", 0, 17961, 400, 32, &[60, 138, 102, 100], 0),
    ("dsi", "stripe4", "none", "knn", 1, 31534, 362, 52, &[75, 118, 97, 72], 0),
    ("dsi", "stripe4", "gilbert", "window", 0, 10321, 177, 20, &[39, 20, 45, 73], 0),
    ("dsi", "stripe4", "gilbert", "window", 1, 20569, 216, 33, &[47, 66, 44, 59], 0),
    ("dsi", "stripe4", "gilbert", "knn", 0, 17961, 400, 32, &[60, 138, 102, 100], 0),
    ("dsi", "stripe4", "gilbert", "knn", 1, 17630, 231, 28, &[63, 63, 61, 44], 0),
    ("dsi", "split2", "none", "window", 0, 9265, 177, 1, &[18, 159], 0),
    ("dsi", "split2", "none", "window", 1, 15794, 207, 1, &[20, 187], 0),
    ("dsi", "split2", "none", "knn", 0, 12657, 273, 1, &[12, 261], 0),
    ("dsi", "split2", "none", "knn", 1, 19993, 379, 1, &[28, 351], 0),
    ("dsi", "split2", "gilbert", "window", 0, 9265, 177, 1, &[18, 159], 0),
    ("dsi", "split2", "gilbert", "window", 1, 15794, 204, 1, &[16, 188], 0),
    ("dsi", "split2", "gilbert", "knn", 0, 12657, 273, 1, &[12, 261], 0),
    ("dsi", "split2", "gilbert", "knn", 1, 19993, 381, 1, &[30, 351], 0),
    ("rtree", "blocked4", "none", "window", 0, 1559, 170, 1, &[2, 0, 0, 168], 0),
    ("rtree", "blocked4", "none", "window", 1, 1657, 207, 6, &[31, 115, 61, 0], 0),
    ("rtree", "blocked4", "none", "knn", 0, 1386, 422, 3, &[47, 8, 273, 94], 0),
    ("rtree", "blocked4", "none", "knn", 1, 1535, 315, 6, &[88, 211, 12, 4], 0),
    ("rtree", "blocked4", "gilbert", "window", 0, 3134, 171, 1, &[2, 0, 0, 169], 0),
    ("rtree", "blocked4", "gilbert", "window", 1, 2869, 212, 5, &[34, 117, 61, 0], 0),
    ("rtree", "blocked4", "gilbert", "knn", 0, 1386, 390, 3, &[47, 8, 241, 94], 0),
    ("rtree", "blocked4", "gilbert", "knn", 1, 1535, 297, 7, &[70, 213, 6, 8], 0),
    ("rtree", "stripe4", "none", "window", 0, 7872, 170, 10, &[44, 72, 37, 17], 0),
    ("rtree", "stripe4", "none", "window", 1, 7221, 207, 9, &[72, 42, 57, 36], 0),
    ("rtree", "stripe4", "none", "knn", 0, 7431, 175, 11, &[83, 35, 23, 34], 0),
    ("rtree", "stripe4", "none", "knn", 1, 6910, 197, 15, &[72, 60, 28, 37], 0),
    ("rtree", "stripe4", "gilbert", "window", 0, 7872, 171, 12, &[43, 72, 37, 19], 0),
    ("rtree", "stripe4", "gilbert", "window", 1, 8269, 211, 13, &[69, 42, 61, 39], 0),
    ("rtree", "stripe4", "gilbert", "knn", 0, 9006, 177, 16, &[76, 38, 26, 37], 0),
    ("rtree", "stripe4", "gilbert", "knn", 1, 8485, 253, 22, &[107, 74, 48, 24], 0),
    ("rtree", "split2", "none", "window", 0, 4784, 170, 1, &[26, 144], 0),
    ("rtree", "split2", "none", "window", 1, 4477, 207, 1, &[47, 160], 0),
    ("rtree", "split2", "none", "knn", 0, 3456, 232, 1, &[104, 128], 0),
    ("rtree", "split2", "none", "knn", 1, 4857, 159, 1, &[79, 80], 0),
    ("rtree", "split2", "gilbert", "window", 0, 4784, 171, 1, &[27, 144], 0),
    ("rtree", "split2", "gilbert", "window", 1, 4477, 210, 1, &[50, 160], 0),
    ("rtree", "split2", "gilbert", "knn", 0, 3456, 239, 1, &[111, 128], 0),
    ("rtree", "split2", "gilbert", "knn", 1, 4857, 161, 1, &[81, 80], 0),
    ("hci", "blocked4", "none", "window", 0, 762, 158, 2, &[2, 0, 155, 1], 0),
    ("hci", "blocked4", "none", "window", 1, 1477, 184, 4, &[108, 53, 0, 23], 0),
    ("hci", "blocked4", "none", "knn", 0, 1820, 97, 3, &[4, 92, 1, 0], 0),
    ("hci", "blocked4", "none", "knn", 1, 2495, 156, 5, &[7, 5, 33, 111], 0),
    ("hci", "blocked4", "gilbert", "window", 0, 2106, 159, 2, &[2, 0, 156, 1], 0),
    ("hci", "blocked4", "gilbert", "window", 1, 2023, 185, 5, &[108, 53, 0, 24], 0),
    ("hci", "blocked4", "gilbert", "knn", 0, 1820, 97, 3, &[4, 92, 1, 0], 0),
    ("hci", "blocked4", "gilbert", "knn", 1, 3807, 159, 5, &[8, 6, 33, 112], 0),
    ("hci", "stripe4", "none", "window", 0, 6264, 158, 8, &[6, 51, 66, 35], 0),
    ("hci", "stripe4", "none", "window", 1, 5851, 184, 14, &[75, 36, 53, 20], 0),
    ("hci", "stripe4", "none", "knn", 0, 5849, 97, 15, &[35, 5, 23, 34], 0),
    ("hci", "stripe4", "none", "knn", 1, 8500, 156, 22, &[25, 56, 55, 20], 0),
    ("hci", "stripe4", "gilbert", "window", 0, 7614, 160, 8, &[7, 51, 66, 36], 0),
    ("hci", "stripe4", "gilbert", "window", 1, 5851, 185, 15, &[74, 36, 53, 22], 0),
    ("hci", "stripe4", "gilbert", "knn", 0, 7216, 98, 15, &[36, 5, 23, 34], 0),
    ("hci", "stripe4", "gilbert", "knn", 1, 9850, 160, 23, &[26, 58, 54, 22], 0),
    ("hci", "split2", "none", "window", 0, 3072, 158, 1, &[14, 144], 0),
    ("hci", "split2", "none", "window", 1, 4665, 184, 1, &[24, 160], 0),
    ("hci", "split2", "none", "knn", 0, 1616, 97, 1, &[17, 80], 0),
    ("hci", "split2", "none", "knn", 1, 3297, 156, 1, &[28, 128], 0),
    ("hci", "split2", "gilbert", "window", 0, 3072, 158, 1, &[14, 144], 0),
    ("hci", "split2", "gilbert", "window", 1, 4665, 187, 1, &[27, 160], 0),
    ("hci", "split2", "gilbert", "knn", 0, 1616, 98, 1, &[18, 80], 0),
    ("hci", "split2", "gilbert", "knn", 1, 3297, 158, 1, &[30, 128], 0),
];

#[test]
fn two_antenna_reproduces_pinned_channel_stats() {
    let ds = dataset();
    let windows = window_queries(4, 0.2, 3);
    let points = knn_points(4, 9);
    let configs: Vec<(&str, ChannelConfig)> = vec![
        ("blocked4", ChannelConfig::blocked(4, SWITCH_COST)),
        ("stripe4", ChannelConfig::striped(4, SWITCH_COST)),
        ("split2", ChannelConfig::index_data(2, 1, SWITCH_COST)),
    ];
    let gilbert = fault_grid()
        .into_iter()
        .find(|(name, _)| *name == "gilbert")
        .expect("the fault grid has a Gilbert–Elliott model")
        .1;
    let mut checked = 0;
    for sname in ["dsi", "rtree", "hci"] {
        for (cname, chan) in &configs {
            let scheme = build_scheme(&ds, sname, chan);
            for (lname, loss) in [("none", LossModel::None), ("gilbert", gilbert.clone())] {
                for kind in ["window", "knn"] {
                    for qi in 0..2 {
                        let out = run(
                            scheme.as_ref(),
                            loss.clone(),
                            AntennaConfig::new(2),
                            kind,
                            qi,
                            &windows,
                            &points,
                        );
                        let key = (sname, *cname, lname, kind, qi);
                        let row = TWO_ANTENNA_GOLDEN
                            .iter()
                            .find(|r| (r.0, r.1, r.2, r.3, r.4) == key)
                            .unwrap_or_else(|| {
                                panic!("no golden for {sname}/{cname}/{lname}/{kind} q{qi}")
                            });
                        assert_eq!(
                            (
                                out.stats.latency_packets,
                                out.stats.tuning_packets,
                                out.channels.switches,
                                out.channels.tuning_packets.as_slice(),
                                out.channels.loss_retunes,
                            ),
                            (row.5, row.6, row.7, row.8, row.9),
                            "{sname}/{cname}/k2/{lname}/{kind} q{qi} diverged from the pinned stats"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, TWO_ANTENNA_GOLDEN.len());
}

/// (placement, antennas, query kind, query index, latency_packets,
/// tuning_packets, switches, per-channel tuning packets) of lossless
/// reorganized DSI on 64 objects at order 8: 16 frames of one index
/// table and four objects each, aired over four equal-length channels
/// with no switch cost. Frames on different channels then often arrive at
/// the same instant, so these rows pin how the multi-channel navigator
/// breaks such ties (by broadcast distance from the current slot): the
/// `stripef4` window queries 8 and 11 and the kNN query 10 move when
/// frame ties are ranked by slot instead.
type TieGoldenRow = (
    &'static str,
    u32,
    &'static str,
    usize,
    u64,
    u64,
    u64,
    &'static [u64],
);

#[rustfmt::skip]
const TIE_GOLDEN: &[TieGoldenRow] = &[
    ("stripe4", 1, "window", 8, 3937, 126, 25, &[56, 24, 21, 25]),
    ("stripe4", 1, "window", 9, 1644, 44, 10, &[19, 4, 17, 4]),
    ("stripe4", 1, "window", 10, 2553, 51, 14, &[24, 3, 6, 18]),
    ("stripe4", 1, "window", 11, 3050, 110, 14, &[9, 18, 50, 33]),
    ("stripe4", 1, "knn", 8, 5805, 246, 29, &[85, 51, 57, 53]),
    ("stripe4", 1, "knn", 9, 7426, 318, 38, &[85, 91, 85, 57]),
    ("stripe4", 1, "knn", 10, 3337, 144, 17, &[23, 33, 54, 34]),
    ("stripe4", 1, "knn", 11, 7532, 291, 42, &[73, 74, 72, 72]),
    ("stripe4", 2, "window", 8, 3673, 128, 19, &[56, 24, 22, 26]),
    ("stripe4", 2, "window", 9, 1380, 44, 7, &[19, 4, 17, 4]),
    ("stripe4", 2, "window", 10, 2025, 51, 11, &[24, 3, 6, 18]),
    ("stripe4", 2, "window", 11, 2271, 110, 11, &[9, 18, 50, 33]),
    ("stripe4", 2, "knn", 8, 4485, 186, 22, &[85, 51, 27, 23]),
    ("stripe4", 2, "knn", 9, 6122, 243, 29, &[85, 59, 40, 59]),
    ("stripe4", 2, "knn", 10, 2543, 144, 13, &[23, 33, 54, 34]),
    ("stripe4", 2, "knn", 11, 7036, 270, 44, &[59, 61, 76, 74]),
    ("stripef4", 1, "window", 8, 521, 124, 6, &[4, 88, 6, 26]),
    ("stripef4", 1, "window", 9, 324, 48, 2, &[2, 40, 0, 6]),
    ("stripef4", 1, "window", 10, 441, 49, 3, &[10, 0, 39, 0]),
    ("stripef4", 1, "window", 11, 458, 111, 2, &[89, 0, 22, 0]),
    ("stripef4", 1, "knn", 8, 541, 248, 4, &[134, 6, 108, 0]),
    ("stripef4", 1, "knn", 9, 594, 239, 5, &[68, 140, 6, 25]),
    ("stripef4", 1, "knn", 10, 449, 173, 2, &[119, 0, 54, 0]),
    ("stripef4", 1, "knn", 11, 979, 230, 4, &[102, 20, 57, 51]),
    ("stripef4", 2, "window", 8, 521, 124, 5, &[4, 88, 6, 26]),
    ("stripef4", 2, "window", 9, 324, 48, 2, &[2, 40, 0, 6]),
    ("stripef4", 2, "window", 10, 441, 49, 1, &[10, 0, 39, 0]),
    ("stripef4", 2, "window", 11, 458, 111, 1, &[89, 0, 22, 0]),
    ("stripef4", 2, "knn", 8, 541, 248, 2, &[134, 6, 108, 0]),
    ("stripef4", 2, "knn", 9, 594, 239, 3, &[68, 140, 6, 25]),
    ("stripef4", 2, "knn", 10, 449, 173, 1, &[119, 0, 54, 0]),
    ("stripef4", 2, "knn", 11, 979, 230, 3, &[102, 20, 57, 51]),
];

#[test]
fn dsi_cross_channel_ties_reproduce_pinned_channel_stats() {
    let ds = SpatialDataset::build(&uniform(64, 42), 8);
    let windows = window_queries(12, 0.2, 3);
    let points = knn_points(12, 9);
    let configs = [
        ("stripe4", ChannelConfig::striped(4, 0)),
        ("stripef4", ChannelConfig::striped_frames(4, 0)),
    ];
    for (cname, chan) in &configs {
        let scheme = build_scheme(&ds, "dsi", chan);
        for &(gc, antennas, kind, qi, latency, tuning, switches, per_chan) in TIE_GOLDEN {
            if gc != *cname {
                continue;
            }
            let out = run(
                scheme.as_ref(),
                LossModel::None,
                AntennaConfig::new(antennas),
                kind,
                qi,
                &windows,
                &points,
            );
            assert_eq!(
                (
                    out.stats.latency_packets,
                    out.stats.tuning_packets,
                    out.channels.switches,
                    out.channels.tuning_packets.as_slice(),
                ),
                (latency, tuning, switches, per_chan),
                "dsi/{cname}/k{antennas}/{kind} q{qi} diverged from the pinned stats"
            );
        }
    }
}

/// The optimizer's training draw: the evaluation families of
/// `optimized_placements_preserve_answers_across_the_grid`, at other
/// seeds.
fn training_draw() -> (Vec<Rect>, Vec<Point>) {
    (window_queries(8, 0.2, 31), knn_points(8, 17))
}

/// Fits a workload-optimized placement for one scheme: profiles a
/// training workload from its read journals on the scheme's
/// single-channel build and runs the sample-driven arc search (see
/// `dsi::broadcast::optimize`). Returns the schema and profile the fit
/// used along with its result.
fn fit_optimized(
    single: &dyn DynScheme,
    channels: u32,
    windows: &[Rect],
    points: &[Point],
) -> (UnitSchema, AccessProfile, OptimizedPlacement) {
    let flat = single.cycle_packets();
    let journals: Vec<_> = windows
        .iter()
        .map(|w| Query::Window(*w))
        .chain(points.iter().map(|p| Query::Knn(*p, K)))
        .enumerate()
        .map(|(qi, q)| {
            let start = (qi as u64 * 101) % flat;
            let k1 = AntennaConfig::single();
            single
                .drive_traced(start, LossModel::None, qi as u64, k1, &q)
                .1
        })
        .collect();
    let schema = UnitSchema::from_unit_starts(&single.unit_starts());
    let profile = AccessProfile::from_journals(flat, &journals);
    let opt = optimize_placement(
        &schema,
        &profile,
        channels,
        SWITCH_COST,
        AntennaConfig::single(),
    );
    (schema, profile, opt)
}

/// [`fit_optimized`] as a ready-to-build explicit channel configuration.
fn optimized_chan(
    single: &dyn DynScheme,
    channels: u32,
    windows: &[Rect],
    points: &[Point],
) -> ChannelConfig {
    fit_optimized(single, channels, windows, points)
        .2
        .config(channels, SWITCH_COST)
}

/// The tentpole's end-to-end guarantee: a *workload-optimized* explicit
/// placement — profiled on a training workload drawn from the same
/// distribution as (but disjoint from) the evaluation queries, fitted by
/// the arc search — preserves answers against brute force across
/// scheme × C ∈ {2, 4} × antennas ∈ {1, 2} × loss ∈ {0, 0.05}, with
/// per-channel tuning reconciling against the aggregate view.
#[test]
fn optimized_placements_preserve_answers_across_the_grid() {
    const NQ: usize = 8;
    let ds = dataset();
    let windows = window_queries(NQ, 0.2, 3);
    let points = knn_points(NQ, 9);
    // Training draw: same families, different seeds.
    let (train_windows, train_points) = training_draw();
    let singles = schemes(&ds, &ChannelConfig::single());
    for c in [2u32, 4] {
        for (sname, single) in &singles {
            let chan = optimized_chan(single.as_ref(), c, &train_windows, &train_points);
            let scheme = build_scheme(&ds, sname, &chan);
            for (lname, loss) in [("none", LossModel::None), ("iid5", LossModel::iid(0.05))] {
                for antennas in [AntennaConfig::single(), AntennaConfig::new(2)] {
                    for kind in ["window", "knn"] {
                        for qi in 0..NQ {
                            let out = run(
                                scheme.as_ref(),
                                loss.clone(),
                                antennas,
                                kind,
                                qi,
                                &windows,
                                &points,
                            );
                            let want = match kind {
                                "window" => ds.brute_window(&windows[qi]),
                                _ => ds.brute_knn(points[qi], K),
                            };
                            assert_eq!(
                                out.ids, want,
                                "{sname}/optimized-C{c}/k{}/{lname}/{kind} q{qi} diverged",
                                antennas.antennas
                            );
                            assert_eq!(
                                out.channels.tuning_packets.iter().sum::<u64>(),
                                out.stats.tuning_packets
                            );
                            assert_eq!(out.channels.tuning_packets.len() as u32, c);
                        }
                    }
                }
            }
        }
    }
}

/// One pinned optimizer fit: scheme, channel count, the arc cuts (first
/// unit of each arc), the channel each arc airs on, the bits of the
/// fit's predicted latency, and the bits of the predicted latency of
/// equal-unit-count arcs under the same profile.
type OptimizerGolden = (
    &'static str,
    u32,
    &'static [usize],
    &'static [u32],
    u64,
    u64,
);

#[rustfmt::skip]
const OPTIMIZER_GOLDEN: &[OptimizerGolden] = &[
    ("dsi", 2, &[160, 346], &[0, 1], 0x40ae8ca205e03ea8, 0x40aeb1fef5811d72),
    ("rtree", 2, &[0, 594], &[0, 1], 0x40b4157d08ff4ec0, 0x40b4c79489004a4e),
    ("hci", 2, &[123, 436], &[1, 0], 0x40ab1ed344a188cc, 0x40ac0d98801f3ad0),
    ("dsi", 4, &[55, 161, 238, 321], &[1, 2, 0, 3], 0x40a61bdc3a8d59f4, 0x40a7e44111c854c1),
    ("rtree", 4, &[160, 363, 594, 926], &[0, 3, 1, 2], 0x40ad9710084534a8, 0x40b09aff0afc1e19),
    ("hci", 4, &[2, 230, 456, 628], &[3, 1, 0, 2], 0x40a170edf3c224de, 0x40a23347226d7f49),
];

/// Pins the analytic placement search on the six fits that
/// `optimized_placements_preserve_answers_across_the_grid` makes. The
/// fits train on the one-channel build, so they move only when the
/// search or its scorer does.
#[test]
fn optimizer_reproduces_pinned_placements() {
    let row = |s: &str, c: u32, cuts: &[usize], arcs: &[u32], fit: u64, equal: u64| {
        format!("({s:?}, {c}, &{cuts:?}, &{arcs:?}, {fit:#x}, {equal:#x}),")
    };
    let ds = dataset();
    let (train_windows, train_points) = training_draw();
    let mut got = Vec::new();
    for c in [2u32, 4] {
        for (sname, single) in schemes(&ds, &ChannelConfig::single()) {
            let (schema, profile, opt) =
                fit_optimized(single.as_ref(), c, &train_windows, &train_points);
            let arcs: Vec<u32> = opt.arc_cuts.iter().map(|&u| opt.assignment[u]).collect();
            let n = schema.n_units();
            let equal: Vec<usize> = (0..c as usize).map(|g| g * n / c as usize).collect();
            let equal_latency = predict_latency_packets(
                &schema,
                &profile,
                c,
                SWITCH_COST,
                AntennaConfig::single(),
                &arc_assignment(&schema, &profile, &equal),
            );
            got.push(row(
                sname,
                c,
                &opt.arc_cuts,
                &arcs,
                opt.predicted_latency_packets.to_bits(),
                equal_latency.to_bits(),
            ));
        }
    }
    let want: Vec<String> = OPTIMIZER_GOLDEN
        .iter()
        .map(|r| row(r.0, r.1, r.2, r.3, r.4, r.5))
        .collect();
    assert_eq!(got, want, "fits moved; got:\n{}", got.join("\n"));
}

/// Pins the PR 3 measured finding this PR exploits: at C = 4 with a real
/// switch cost, unit-granular `Stripe` placement hurts the serial-scan
/// DSI client (it misses each next unit's concurrent airing), `Blocked`
/// beats it, and frame-granular `StripeFrames` closes the gap — the
/// documented tradeoff is enforced, not just described.
#[test]
fn blocked_beats_unit_stripe_and_stripe_frames_closes_the_gap() {
    let ds = dataset();
    let windows = window_queries(8, 0.2, 3);
    let mean = |chan: &ChannelConfig| -> f64 {
        let dsi = build_scheme(&ds, "dsi", chan);
        let mut total = 0u64;
        for (qi, w) in windows.iter().enumerate() {
            let out = dsi.drive_antennas(
                (qi as u64 * 7919) % dsi.cycle_packets(),
                LossModel::None,
                qi as u64,
                AntennaConfig::single(),
                &Query::Window(*w),
            );
            assert_eq!(out.ids, ds.brute_window(w));
            total += out.stats.latency_packets;
        }
        total as f64 / windows.len() as f64
    };
    let of = |placement: Placement| ChannelConfig {
        channels: 4,
        placement,
        switch_cost: SWITCH_COST,
    };
    let blocked = mean(&of(Placement::Blocked));
    let stripe = mean(&of(Placement::Stripe));
    let stripef = mean(&of(Placement::StripeFrames(1)));
    assert!(
        blocked < stripe,
        "blocked ({blocked}) must beat unit-granular stripe ({stripe}) at C=4"
    );
    assert!(
        stripef < stripe,
        "frame-granular striping ({stripef}) must close the gap to stripe ({stripe})"
    );
    // The workload-aware optimizer (trained on a disjoint draw of the
    // same workload families) must also beat the stripe pathology on the
    // measured evaluation batch — the fitted placement stays sane even
    // at this tiny scale.
    let single = build_scheme(&ds, "dsi", &ChannelConfig::single());
    let (train_windows, train_points) = training_draw();
    let chan = optimized_chan(single.as_ref(), 4, &train_windows, &train_points);
    let optimized = mean(&chan);
    assert!(
        optimized < stripe,
        "optimized ({optimized}) must beat unit-granular stripe ({stripe}) at C=4"
    );
}

/// The objects of a dataset as the R-tree builder takes them.
fn id_points(ds: &SpatialDataset) -> Vec<(u32, Point)> {
    ds.objects().iter().map(|o| (o.id, o.pos)).collect()
}

/// The segmented-layout invariants both tree baselines share: every copy
/// of every node starts with that node's part-0 packet, every object
/// header sits where the layout says, and every segment starts with a
/// node. Returns the cut-level node heading each segment, in broadcast
/// order (each cut-level node heads exactly one).
fn check_segmented_layout(layout: &SegmentedAir, level_lens: &[usize], n_objects: u32) -> Vec<u32> {
    let prog = layout.program();
    for (level, &len) in level_lens.iter().enumerate() {
        let level = level as u8;
        for idx in 0..len as u32 {
            let mut copies = 0;
            for at in layout.copies(level, idx) {
                let node = TreePacket::Node {
                    level,
                    idx,
                    part: 0,
                };
                assert_eq!(*prog.get(at), node, "copy of ({level}, {idx}) at {at}");
                copies += 1;
            }
            assert!(copies > 0, "node ({level}, {idx}) never airs");
        }
    }
    for obj in 0..n_objects {
        let at = layout.object_pos(obj);
        assert_eq!(
            *prog.get(at),
            TreePacket::ObjHeader { obj },
            "header at {at}"
        );
    }
    let cut = level_lens
        .iter()
        .position(|&len| len as u32 <= MAX_SEGMENTS)
        .expect("the root level is a single node") as u8;
    let starts = layout.segment_starts();
    let roots: Vec<u32> = starts
        .iter()
        .enumerate()
        .map(|(si, &s)| {
            assert!(
                matches!(prog.get(s), TreePacket::Node { part: 0, .. }),
                "segment {si} must start with a node, found {:?}",
                prog.get(s)
            );
            let end = starts.get(si + 1).copied().unwrap_or(prog.len());
            (s..end)
                .find_map(|at| match *prog.get(at) {
                    TreePacket::Node { level, idx, .. } if level == cut => Some(idx),
                    _ => None,
                })
                .expect("every segment airs its cut-level root")
        })
        .collect();
    let mut sorted = roots.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..level_lens[cut as usize] as u32).collect::<Vec<_>>()
    );
    roots
}

/// The R-tree and HCI layouts keep their invariants from one object up.
/// HCI's segments air in index order: the layout walks segments
/// depth-first, and bulk loading gives every node a contiguous child
/// range, so the two orders agree.
#[test]
fn segmented_layouts_are_consistent_on_both_trees() {
    for n in [1usize, 2, 3, 100, 400, 600] {
        let ds = SpatialDataset::build(&uniform(n, 7), 9);
        for capacity in [64u32, 128] {
            let rtree = RTreeAir::build(&id_points(&ds), RtreeAirConfig::new(capacity));
            let lens: Vec<usize> = rtree.tree().levels.iter().map(Vec::len).collect();
            check_segmented_layout(rtree.layout(), &lens, n as u32);

            let hci = BpAir::build(&ds, BpAirConfig::new(capacity));
            let lens: Vec<usize> = hci.tree().levels.iter().map(Vec::len).collect();
            let roots = check_segmented_layout(hci.layout(), &lens, n as u32);
            assert!(
                roots.windows(2).all(|w| w[0] < w[1]),
                "HCI segments out of index order at n = {n}, capacity {capacity}: {roots:?}"
            );
        }
    }
}

/// Trees of one to three objects. On one channel and on `split2` both
/// baselines answer a window and a 3NN query exactly, with one or two
/// antennas, lossless and under i.i.d. 30% loss. Four blocked channels
/// (N ≤ 3) and four striped channels (N ≤ 2) have more channels than
/// such a cycle has units to fill, and the fallible builders say so.
#[test]
fn tiny_trees_answer_exactly_or_reject_the_layout() {
    let configs = [
        ("C1", ChannelConfig::single()),
        ("split2", ChannelConfig::index_data(2, 1, SWITCH_COST)),
        ("blocked4", ChannelConfig::blocked(4, SWITCH_COST)),
        ("stripe4", ChannelConfig::striped(4, SWITCH_COST)),
    ];
    for n in 1..=3usize {
        let ds = SpatialDataset::build(&uniform(n, 11), 9);
        let windows = [Rect::new(0.0, 0.0, 1.0, 1.0), window_queries(1, 0.3, 5)[0]];
        let q = knn_points(1, 13)[0];
        for (cname, chan) in &configs {
            for sname in ["rtree", "hci"] {
                let built: Result<Box<dyn DynScheme>, LayoutError> = match sname {
                    "rtree" => RTreeAir::try_build_channels(
                        &id_points(&ds),
                        RtreeAirConfig::new(64),
                        chan.clone(),
                    )
                    .map(|a| Box::new(a) as Box<dyn DynScheme>),
                    _ => BpAir::try_build_channels(&ds, BpAirConfig::new(64), chan.clone())
                        .map(|a| Box::new(a) as Box<dyn DynScheme>),
                };
                let rejected = match *cname {
                    "blocked4" => n <= 3,
                    "stripe4" => n <= 2,
                    _ => false,
                };
                let cell = format!("{sname}/{cname}/n{n}");
                if rejected {
                    let err = built.err().unwrap_or_else(|| panic!("{cell} built"));
                    assert!(
                        matches!(err, LayoutError::EmptyChannel { .. })
                            && err.to_string().contains("received no units"),
                        "{cell}: {err}"
                    );
                    continue;
                }
                let scheme = built.unwrap_or_else(|e| panic!("{cell}: {e}"));
                for loss in [LossModel::None, LossModel::iid(0.3)] {
                    for k in [1u32, 2] {
                        let antennas = AntennaConfig::new(k);
                        for (qi, w) in windows.iter().enumerate() {
                            let start = qi as u64 * 7 % scheme.cycle_packets();
                            let out = scheme.drive_antennas(
                                start,
                                loss.clone(),
                                qi as u64,
                                antennas,
                                &Query::Window(*w),
                            );
                            assert_eq!(out.ids, ds.brute_window(w), "{cell}/k{k} window {qi}");
                        }
                        let out =
                            scheme.drive_antennas(0, loss.clone(), 5, antennas, &Query::Knn(q, 3));
                        assert_eq!(out.ids, ds.brute_knn(q, 3), "{cell}/k{k} 3NN");
                    }
                }
            }
        }
    }
}
