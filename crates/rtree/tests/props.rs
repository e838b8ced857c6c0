//! Property tests for the R-tree baseline: STR invariants and on-air query
//! correctness.

use dsi_broadcast::{AntennaConfig, ChannelConfig, GilbertElliott, LossModel, Tuner};
use dsi_geom::{dist2, Point, Rect};
use dsi_rtree::{str_pack, RTreeAir, RtreeAirConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn points(n: usize, seed: u64) -> Vec<(u32, Point)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u32)
        .map(|id| (id, Point::new(rng.gen(), rng.gen())))
        .collect()
}

fn brute_window(pts: &[(u32, Point)], w: &Rect) -> Vec<u32> {
    let mut v: Vec<u32> = pts
        .iter()
        .filter(|(_, p)| w.contains(*p))
        .map(|(id, _)| *id)
        .collect();
    v.sort_unstable();
    v
}

fn brute_knn(pts: &[(u32, Point)], q: Point, k: usize) -> Vec<u32> {
    let mut v: Vec<(f64, u32)> = pts.iter().map(|&(id, p)| (dist2(q, p), id)).collect();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mut ids: Vec<u32> = v.into_iter().take(k).map(|(_, id)| id).collect();
    ids.sort_unstable();
    ids
}

/// No loss, i.i.d. loss, or Gilbert–Elliott fades entered at rate 0.075
/// with a mean length of 4 packets.
fn loss_models() -> impl Strategy<Value = LossModel> {
    prop_oneof![
        Just(LossModel::None),
        Just(LossModel::iid(0.3)),
        Just(LossModel::Gilbert(GilbertElliott::new(0.075, 0.25, 0.9))),
    ]
}

/// One channel, or four blocked or striped ones.
fn channel_configs() -> impl Strategy<Value = ChannelConfig> {
    prop_oneof![
        Just(ChannelConfig::single()),
        Just(ChannelConfig::blocked(4, 2)),
        Just(ChannelConfig::striped(4, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn str_invariants_hold(n in 1usize..300, seed in any::<u64>(), lf in 2u32..12, nf in 2u32..12) {
        let t = str_pack(&points(n, seed), lf, nf);
        t.validate();
    }

    /// Channels, antennas and bursty loss as in `air_knn_matches_brute`:
    /// two antennas put the window walk in front of the multi-antenna
    /// planner.
    #[test]
    fn air_window_matches_brute(
        n in 10usize..150, seed in any::<u64>(),
        cap in prop_oneof![Just(64u32), Just(128), Just(512)],
        start_seed in any::<u64>(),
        cx in 0.0..1.0f64, cy in 0.0..1.0f64, side in 0.05..0.6f64,
        loss in loss_models(),
        chan in channel_configs(),
        antennas in 1u32..3,
    ) {
        let pts = points(n, seed);
        let air = RTreeAir::try_build_channels(&pts, RtreeAirConfig::new(cap), chan)
            .expect("the layout builds");
        let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
        let start = start_seed % air.program().len();
        let ant = AntennaConfig::new(antennas);
        let mut t = Tuner::tune_in_with(air.program(), start, loss, start_seed, ant);
        prop_assert_eq!(air.window_query(&mut t, &w), brute_window(&pts, &w));
    }

    /// Up to 600 points at 64 B packets lift the segment cut above the
    /// leaves (from about 390 points) and grow the candidate set to
    /// several dozen entries; channels, antennas and bursty loss put the
    /// kNN radius in front of the multi-antenna planner and the loss
    /// retunes.
    #[test]
    fn air_knn_matches_brute(
        n in 10usize..600, seed in any::<u64>(),
        start_seed in any::<u64>(),
        qx in 0.0..1.0f64, qy in 0.0..1.0f64, k in 1usize..10,
        loss in loss_models(),
        chan in channel_configs(),
        antennas in 1u32..3,
    ) {
        let pts = points(n, seed);
        let air = RTreeAir::try_build_channels(&pts, RtreeAirConfig::new(64), chan).expect("the layout builds");
        let q = Point::new(qx, qy);
        let start = start_seed % air.program().len();
        let ant = AntennaConfig::new(antennas);
        let mut t = Tuner::tune_in_with(air.program(), start, loss, start_seed, ant);
        prop_assert_eq!(air.knn_query(&mut t, q, k), brute_knn(&pts, q, k.min(n)));
    }
}

/// Explicit (optimizer-shaped) placements change scheduling only: a
/// scrambled reverse round-robin unit→channel assignment keeps the
/// R-tree's on-air answers equal to brute force under loss and any
/// antenna count.
#[test]
fn explicit_placement_preserves_answers() {
    use dsi_broadcast::Placement;
    let pts = points(200, 11);
    let single = RTreeAir::build(&pts, RtreeAirConfig::new(64));
    let units = single
        .program()
        .unit_starts()
        .iter()
        .filter(|&&s| s)
        .count();
    const C: u32 = 3;
    assert!(units >= C as usize);
    let assignment: Vec<u32> = (0..units).map(|u| (C - 1) - (u as u32 % C)).collect();
    let air = RTreeAir::try_build_channels(
        &pts,
        RtreeAirConfig::new(64),
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
            let mut t = Tuner::tune_in_with(air.program(), 11, loss.clone(), 5, ant);
            assert_eq!(air.window_query(&mut t, &w), brute_window(&pts, &w));
            let mut t = Tuner::tune_in_with(air.program(), 23, loss, 9, ant);
            assert_eq!(air.knn_query(&mut t, q, 5), brute_knn(&pts, q, 5));
        }
    }
}
