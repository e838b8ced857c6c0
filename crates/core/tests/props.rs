//! Property tests for DSI: query answers equal brute force under random
//! datasets, configurations, tune-in positions and channel conditions —
//! the central correctness claim of the reproduction.

use std::collections::HashMap;

use dsi_broadcast::{
    AntennaConfig, ChannelConfig, GilbertElliott, LossModel, LossScope, Placement, Tuner,
};
use dsi_core::hotpath;
use dsi_core::knn_testkit::CandSet;
use dsi_core::{DsiAir, DsiConfig, FramingPolicy, KnnStrategy, ReorgStyle};
use dsi_datagen::{uniform, SpatialDataset};
use dsi_geom::{Point, Rect};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = DsiConfig> {
    (
        prop_oneof![Just(32u32), Just(64), Just(128), Just(256)],
        prop_oneof![Just(2u32), Just(4)],
        prop_oneof![
            Just(FramingPolicy::OverheadBound),
            Just(FramingPolicy::OnePacketTable),
            (1u32..16).prop_map(FramingPolicy::FixedObjectFactor),
        ],
        1u32..5,
        prop_oneof![Just(ReorgStyle::Folded), Just(ReorgStyle::RoundRobin)],
    )
        .prop_map(
            |(capacity, index_base, framing, segments, reorg_style)| DsiConfig {
                capacity,
                index_base,
                framing,
                segments,
                reorg_style,
                max_index_overhead: 0.04,
            },
        )
}

/// Loss models receivable at the given capacity: with `LossScope::All` a
/// 1024-byte object must still have a realistic chance of a clean
/// transfer (at 32 B packets and θ = 0.33 that chance is ~2·10⁻⁶ — the
/// channel is physically unusable, which is why the default scope is
/// IndexOnly).
fn arb_loss(capacity: u32) -> impl Strategy<Value = LossModel> {
    let all_max = if capacity >= 256 {
        0.3
    } else if capacity >= 128 {
        0.2
    } else {
        0.08
    };
    prop_oneof![
        3 => Just(LossModel::None),
        1 => (0.05..0.5f64).prop_map(|theta| LossModel::Iid { theta, scope: LossScope::IndexOnly }),
        1 => (0.02..all_max).prop_map(|theta| LossModel::Iid { theta, scope: LossScope::All }),
    ]
}

fn arb_config_and_loss() -> impl Strategy<Value = (DsiConfig, LossModel)> {
    arb_config().prop_flat_map(|cfg| (Just(cfg), arb_loss(cfg.capacity)))
}

proptest! {
    // End-to-end cases are expensive; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn window_equals_brute_force(
        n in 20usize..160,
        ds_seed in any::<u64>(),
        (cfg, loss) in arb_config_and_loss(),
        start_seed in any::<u64>(),
        cx in 0.0..1.0f64, cy in 0.0..1.0f64, side in 0.02..0.6f64,
    ) {
        let ds = SpatialDataset::build(&uniform(n, ds_seed), 8);
        let air = DsiAir::build(&ds, cfg);
        let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
        let start = start_seed % air.program().len();
        let mut tuner = Tuner::tune_in(air.program(), start, loss, start_seed);
        let got = air.window_query(&mut tuner, &w);
        prop_assert_eq!(got, ds.brute_window(&w));
        let s = tuner.stats();
        prop_assert!(s.tuning_packets <= s.latency_packets);
    }

    #[test]
    fn knn_equals_brute_force(
        n in 20usize..160,
        ds_seed in any::<u64>(),
        (cfg, loss) in arb_config_and_loss(),
        start_seed in any::<u64>(),
        qx in -0.2..1.2f64, qy in -0.2..1.2f64,
        k in 1usize..12,
        aggressive in any::<bool>(),
    ) {
        let ds = SpatialDataset::build(&uniform(n, ds_seed), 8);
        let air = DsiAir::build(&ds, cfg);
        let strategy = if aggressive { KnnStrategy::Aggressive } else { KnnStrategy::Conservative };
        let q = Point::new(qx, qy);
        let start = start_seed % air.program().len();
        let mut tuner = Tuner::tune_in(air.program(), start, loss, start_seed);
        let got = air.knn_query(&mut tuner, q, k, strategy);
        prop_assert_eq!(got, ds.brute_knn(q, k.min(n)));
    }

    #[test]
    fn point_query_finds_exactly_the_present(
        n in 10usize..100,
        ds_seed in any::<u64>(),
        cfg in arb_config(),
        start_seed in any::<u64>(),
        probe in any::<u64>(),
    ) {
        let ds = SpatialDataset::build(&uniform(n, ds_seed), 8);
        let air = DsiAir::build(&ds, cfg);
        let start = start_seed % air.program().len();
        // Probe either a real object's HC or a random HC value.
        let hc = if probe.is_multiple_of(2) {
            ds.objects()[(probe / 2) as usize % n].hc
        } else {
            probe % (air.curve().max_d() + 1)
        };
        let mut tuner = Tuner::tune_in(air.program(), start, LossModel::None, start_seed);
        let got = air.point_query_hc(&mut tuner, hc);
        let want = ds.objects().iter().find(|o| o.hc == hc).map(|o| o.id);
        prop_assert_eq!(got.map(|o| o.id), want);
    }

    #[test]
    fn loss_never_reduces_cost(
        n in 30usize..120,
        ds_seed in any::<u64>(),
        start_seed in any::<u64>(),
        cx in 0.0..1.0f64, cy in 0.0..1.0f64,
    ) {
        // A lossy channel can only cost more than the lossless one for the
        // same query and tune-in (retries only add packets and waits) —
        // statistically; we assert the weaker, always-true invariants.
        let ds = SpatialDataset::build(&uniform(n, ds_seed), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let w = Rect::window_in_unit_square(Point::new(cx, cy), 0.3);
        let start = start_seed % air.program().len();
        let mut clean = Tuner::tune_in(air.program(), start, LossModel::None, start_seed);
        let a = air.window_query(&mut clean, &w);
        let mut lossy = Tuner::tune_in(air.program(), start, LossModel::iid(0.4), start_seed);
        let b = air.window_query(&mut lossy, &w);
        prop_assert_eq!(a, b);
        prop_assert!(lossy.stats().latency_packets >= clean.stats().latency_packets);
    }
}

// ---------------------------------------------------------------------------
// Differential tests of the incremental query-state engine.
//
// An audited query (`window_query_audited`, `knn_query_audited`) asserts,
// after every applied event (learned bound, resolved header) and once per
// loop iteration, that its incrementally maintained cleared set and
// remainders equal the from-scratch `cleared_regions` + `subtract_ranges`
// oracle, and on every multi-channel navigation that its enumerated
// candidate list equals the full broadcast-order sweep's. Running full
// lossy audited window and kNN queries therefore *is* the differential
// property test: any divergence panics inside the driver.
// ---------------------------------------------------------------------------

/// The channel axis of the audited grid: C ∈ {1, 2, 4} × every analytic
/// placement family (C = 1 is the classic single channel whatever the
/// placement).
fn arb_channels() -> impl Strategy<Value = ChannelConfig> {
    (
        prop_oneof![Just(1u32), Just(2), Just(4)],
        prop_oneof![
            Just(Placement::Blocked),
            Just(Placement::Stripe),
            Just(Placement::StripeFrames(2)),
            Just(Placement::IndexData { index_channels: 1 }),
        ],
    )
        .prop_map(|(channels, placement)| {
            if channels == 1 {
                ChannelConfig::single()
            } else {
                ChannelConfig {
                    channels,
                    placement,
                    switch_cost: 2,
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_state_equals_oracle_under_loss(
        n in 30usize..140,
        ds_seed in any::<u64>(),
        start_seed in any::<u64>(),
        theta in 0.05..0.45f64,
        cx in 0.0..1.0f64, cy in 0.0..1.0f64, side in 0.05..0.5f64,
        qx in -0.1..1.1f64, qy in -0.1..1.1f64,
        k in 1usize..10,
        aggressive in any::<bool>(),
        reorganized in any::<bool>(),
        chan in arb_channels(),
        antennas in 1u32..3,
        bursty in any::<bool>(),
    ) {
        let cfg = if reorganized {
            DsiConfig::paper_reorganized()
        } else {
            DsiConfig::paper_default()
        };
        let ds = SpatialDataset::build(&uniform(n, ds_seed), 8);
        let air = DsiAir::try_build_channels(&ds, cfg, chan).expect("the layout builds");
        let loss = if bursty {
            // Fades entered at a θ-scaled rate, mean length 4 packets.
            LossModel::Gilbert(GilbertElliott::new(theta / 4.0, 0.25, 0.9))
        } else {
            LossModel::iid(theta)
        };
        let ant = AntennaConfig::new(antennas);
        let start = start_seed % air.program().len();
        // Window run: audited against the oracle after every event.
        let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
        let mut tuner = Tuner::tune_in_with(air.program(), start, loss.clone(), start_seed, ant);
        let got = air.window_query_audited(&mut tuner, &w);
        assert_eq!(got, ds.brute_window(&w));

        // kNN run, both navigation strategies reachable.
        let strategy = if aggressive {
            KnnStrategy::Aggressive
        } else {
            KnnStrategy::Conservative
        };
        let q = Point::new(qx, qy);
        let mut tuner = Tuner::tune_in_with(air.program(), start, loss, start_seed ^ 1, ant);
        let (got, _) = air.knn_query_audited(&mut tuner, q, k, strategy);
        assert_eq!(got, ds.brute_knn(q, k.min(n)));
    }
}

// ---------------------------------------------------------------------------
// Differential test of the batched-offer candidate API.
//
// `Candidates::offer_virtuals` filters a whole index table's offers against
// the radius read once before the batch instead of once per entry. The
// stale bound may admit candidates a per-offer filter would reject, but
// those extras rank strictly beyond the k-th bound forever — so the radius
// and the completion check must never disagree with the sequential
// per-offer oracle. After every op, both sets are also checked against a
// full selection over their candidates (`assert_matches_selection`): the
// ordered bounds must give the same radius, top-k membership and
// completion as the selection they replaced.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CandOp {
    /// One index table's worth of virtual offers: `(hc, raw upper bound)`.
    Batch(Vec<(u64, u32)>),
    /// Header event for a previously offered candidate: `(selector, raw
    /// distance fraction)`.
    Header(u64, u32),
    /// Full record retrieved for a previously resolved candidate.
    Retrieve(u64),
}

fn arb_cand_op() -> impl Strategy<Value = CandOp> {
    prop_oneof![
        3 => prop::collection::vec((0u64..240, 1u32..1_000_000), 1..12).prop_map(CandOp::Batch),
        3 => (any::<u64>(), 0u32..1_000_001).prop_map(|(s, f)| CandOp::Header(s, f)),
        1 => any::<u64>().prop_map(CandOp::Retrieve),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_offers_agree_with_sequential_oracle(
        k in 1usize..8,
        ops in prop::collection::vec(arb_cand_op(), 1..40),
    ) {
        let mut batched = CandSet::new(k);
        let mut oracle = CandSet::new(k);
        // On the air, a candidate's upper bound and exact distance are
        // deterministic functions of its HC value; mirror that here.
        let mut ub2_of: HashMap<u64, f64> = HashMap::new();
        let mut d2_of: HashMap<u64, f64> = HashMap::new();
        let mut offered: Vec<u64> = Vec::new();
        let mut resolved: Vec<(u64, u32)> = Vec::new();
        let mut next_id = 0u32;
        for op in ops {
            match op {
                CandOp::Batch(raw) => {
                    let offers: Vec<(u64, f64)> = raw
                        .iter()
                        .map(|&(hc, u)| {
                            (hc, *ub2_of.entry(hc).or_insert(u as f64 / 1e4))
                        })
                        .collect();
                    batched.offer_batch(&offers);
                    for &(hc, ub2) in &offers {
                        oracle.offer_one(hc, ub2);
                        offered.push(hc);
                    }
                }
                CandOp::Header(sel, frac) => {
                    if offered.is_empty() {
                        continue;
                    }
                    let hc = offered[(sel % offered.len() as u64) as usize];
                    let d2 =
                        *d2_of.entry(hc).or_insert(ub2_of[&hc] * (frac as f64 / 1e6));
                    next_id += 1;
                    let wanted_b = batched.header(hc, d2, next_id);
                    let wanted_o = oracle.header(hc, d2, next_id);
                    prop_assert_eq!(
                        wanted_b, wanted_o,
                        "radius disagreement: header {} accepted differently", hc
                    );
                    if wanted_b {
                        resolved.push((hc, next_id));
                    }
                }
                CandOp::Retrieve(sel) => {
                    if resolved.is_empty() {
                        continue;
                    }
                    let (hc, _) = resolved[(sel % resolved.len() as u64) as usize];
                    batched.mark_retrieved(hc);
                    oracle.mark_retrieved(hc);
                }
            }
            // The batched set's radius equals the sequential oracle's.
            prop_assert_eq!(batched.r2(), oracle.r2());
            // Radius, top-k membership and completion equal a full
            // selection's over the held candidates.
            batched.assert_matches_selection();
            oracle.assert_matches_selection();
            // Extra batch-admitted candidates may defer completion but
            // never fake it.
            if batched.top_k_retrieved() {
                prop_assert!(oracle.top_k_retrieved());
            }
        }
        prop_assert_eq!(batched.result_ids(), oracle.result_ids());
    }
}

// ---------------------------------------------------------------------------
// Bounded-memory property of the kNN client under loss.
//
// The interval-distance `HashMap` the kNN mode used to keep grew by one
// entry per decomposed range per circle shrink and never evicted: heavy
// loss (many cycles, many shrinks) grew it without bound. Distances now
// live on the target ranges themselves, so the peak memory a query ever
// holds is one decomposition plus the candidate set — independent of how
// many shrinks the channel forces.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn knn_peak_memory_bounded_under_loss(
        n in 50usize..200,
        ds_seed in any::<u64>(),
        start_seed in any::<u64>(),
        theta in 0.2..0.5f64,
        qx in -0.1..1.1f64, qy in -0.1..1.1f64,
        k in 1usize..10,
        aggressive in any::<bool>(),
    ) {
        let ds = SpatialDataset::build(&uniform(n, ds_seed), 8);
        let air = DsiAir::build(&ds, DsiConfig::paper_reorganized());
        let strategy = if aggressive { KnnStrategy::Aggressive } else { KnnStrategy::Conservative };
        let q = Point::new(qx, qy);
        let start = start_seed % air.program().len();
        let mut tuner = Tuner::tune_in(air.program(), start, LossModel::iid(theta), start_seed);
        let (got, probe) = air.knn_query_probed(&mut tuner, q, k, strategy);
        prop_assert_eq!(got, ds.brute_knn(q, k.min(n)));
        // Held range memory (current decomposition + swap buffer) stays
        // flat across shrinks: the epochs together produced strictly more
        // than the client ever held, no matter how many shrinks loss
        // forced. The dropped `(lo, hi) → dist` cache accumulated
        // `total_ranges` instead — a reintroduced accumulate-forever
        // structure drives `peak_live_ranges` back toward it and fails
        // this. (Each epoch emits ≥ 1 range while candidates exist, and
        // the peak covers at most two consecutive epochs, so three or
        // more epochs guarantee a strict gap.)
        if probe.refreshes >= 3 {
            prop_assert!(
                probe.total_ranges > probe.peak_live_ranges,
                "refreshes {} produced {} ranges total but peak held was {}",
                probe.refreshes, probe.total_ranges, probe.peak_live_ranges
            );
        }
        // Candidates are keyed by the HC of a real object: never more
        // entries than objects.
        prop_assert!(probe.peak_cands <= n);
    }
}

/// Anti-vacuity of the audit entry points: the audited drives derive the
/// oracle (the first counter), so the differential tests above check
/// something; the public entry points never do, and apply deltas instead.
#[test]
fn only_audited_drives_run_the_oracle() {
    let ds = SpatialDataset::build(&uniform(400, 7), 9);
    let air = DsiAir::try_build_channels(
        &ds,
        DsiConfig::paper_reorganized(),
        ChannelConfig::blocked(4, 2),
    )
    .expect("the layout builds");
    let loss = LossModel::Gilbert(GilbertElliott::new(0.02, 0.25, 0.9));
    let ant = AntennaConfig::new(2);
    let w = Rect::new(0.2, 0.2, 0.6, 0.6);
    let q = Point::new(0.4, 0.4);
    let tuner = |seed| Tuner::tune_in_with(air.program(), 17, loss.clone(), seed, ant);

    hotpath::reset_counters();
    assert_eq!(
        air.window_query_audited(&mut tuner(3), &w),
        ds.brute_window(&w)
    );
    let (knn, _) = air.knn_query_audited(&mut tuner(4), q, 10, KnnStrategy::Conservative);
    assert_eq!(knn, ds.brute_knn(q, 10));
    let (oracle, _) = hotpath::counters();
    assert!(oracle > 0, "audited drives must derive the oracle");

    hotpath::reset_counters();
    assert_eq!(air.window_query(&mut tuner(3), &w), ds.brute_window(&w));
    assert_eq!(
        air.knn_query(&mut tuner(4), q, 10, KnnStrategy::Conservative),
        ds.brute_knn(q, 10)
    );
    let (oracle, events) = hotpath::counters();
    assert_eq!(oracle, 0, "public queries must not derive the oracle");
    assert!(events > 0, "public queries must apply deltas");
}

/// Explicit (optimizer-shaped) placements change scheduling only: a
/// deliberately scrambled unit→channel assignment — reverse round-robin,
/// destroying every adjacency the analytic placements preserve — keeps
/// DSI's window and kNN answers equal to brute force under loss and any
/// antenna count.
#[test]
fn explicit_placement_preserves_answers() {
    let ds = SpatialDataset::build(&uniform(220, 7), 8);
    let cfg = DsiConfig::paper_reorganized().with_capacity(64);
    let single = DsiAir::build(&ds, cfg);
    let units = single
        .program()
        .unit_starts()
        .iter()
        .filter(|&&s| s)
        .count();
    const C: u32 = 3;
    assert!(units >= C as usize);
    let assignment: Vec<u32> = (0..units).map(|u| (C - 1) - (u as u32 % C)).collect();
    let air = DsiAir::try_build_channels(
        &ds,
        cfg,
        ChannelConfig {
            channels: C,
            placement: Placement::Explicit(assignment),
            switch_cost: 3,
        },
    )
    .expect("the layout builds");
    let w = Rect::new(0.15, 0.2, 0.6, 0.7);
    let q = Point::new(0.4, 0.5);
    for antennas in [1u32, 2, 3] {
        for loss in [LossModel::None, LossModel::iid(0.2)] {
            let ant = AntennaConfig::new(antennas);
            let mut tuner = Tuner::tune_in_with(air.program(), 11, loss.clone(), 5, ant);
            assert_eq!(air.window_query(&mut tuner, &w), ds.brute_window(&w));
            let mut tuner = Tuner::tune_in_with(air.program(), 23, loss, 9, ant);
            assert_eq!(
                air.knn_query(&mut tuner, q, 5, KnnStrategy::Conservative),
                ds.brute_knn(q, 5)
            );
        }
    }
}

/// The audited grid above builds programs of 8 to 32 frames, inside one
/// word of the navigator's candidate bitset. This drive runs the same
/// Audit checks — candidate list included — on a four-channel program of
/// 256 frames, with two antennas and bursty loss.
#[test]
fn audited_multi_channel_drives_span_many_frames() {
    let ds = SpatialDataset::build(&uniform(2000, 5), 8);
    let air = DsiAir::try_build_channels(
        &ds,
        DsiConfig::paper_reorganized(),
        ChannelConfig::blocked(4, 2),
    )
    .expect("the layout builds");
    assert!(
        air.layout().n_frames() > 128,
        "{} frames",
        air.layout().n_frames()
    );
    let loss = LossModel::Gilbert(GilbertElliott::new(0.02, 0.25, 0.9));
    let ant = AntennaConfig::new(2);
    for (i, (x, y)) in [(0.3, 0.6), (0.75, 0.2)].into_iter().enumerate() {
        let start = 7919 * i as u64;
        let w = Rect::window_in_unit_square(Point::new(x, y), 0.15);
        let mut tuner = Tuner::tune_in_with(air.program(), start, loss.clone(), i as u64, ant);
        assert_eq!(
            air.window_query_audited(&mut tuner, &w),
            ds.brute_window(&w)
        );
        let q = Point::new(y, x);
        let mut tuner = Tuner::tune_in_with(air.program(), start, loss.clone(), i as u64, ant);
        let (knn, _) = air.knn_query_audited(&mut tuner, q, 5, KnnStrategy::Conservative);
        assert_eq!(knn, ds.brute_knn(q, 5));
    }
}
