//! Property tests for the HCI baseline: B+-tree invariants and on-air
//! query correctness.

use dsi_bptree::{bulk_load, BpAir, BpAirConfig};
use dsi_broadcast::{LossModel, Tuner};
use dsi_datagen::{uniform, SpatialDataset};
use dsi_geom::{Point, Rect};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bulk_load_invariants(n in 1usize..300, seed in any::<u64>(), fanout in 2u32..20) {
        let ds = SpatialDataset::build(&uniform(n, seed), 8);
        bulk_load(ds.objects(), fanout).validate();
    }

    #[test]
    fn air_window_matches_brute(
        n in 10usize..150, seed in any::<u64>(),
        cap in prop_oneof![Just(32u32), Just(64), Just(256)],
        start_seed in any::<u64>(),
        cx in 0.0..1.0f64, cy in 0.0..1.0f64, side in 0.05..0.6f64,
        theta in prop_oneof![Just(0.0f64), Just(0.3)],
    ) {
        let ds = SpatialDataset::build(&uniform(n, seed), 8);
        let air = BpAir::build(&ds, BpAirConfig::new(cap));
        let w = Rect::window_in_unit_square(Point::new(cx, cy), side);
        let start = start_seed % air.program().len();
        let mut t = Tuner::tune_in(air.program(), start, LossModel::iid(theta), start_seed);
        prop_assert_eq!(air.window_query(&mut t, &w), ds.brute_window(&w));
    }

    #[test]
    fn air_knn_matches_brute(
        n in 10usize..150, seed in any::<u64>(),
        start_seed in any::<u64>(),
        qx in -0.2..1.2f64, qy in -0.2..1.2f64, k in 1usize..10,
        theta in prop_oneof![Just(0.0f64), Just(0.3)],
    ) {
        let ds = SpatialDataset::build(&uniform(n, seed), 8);
        let air = BpAir::build(&ds, BpAirConfig::new(64));
        let q = Point::new(qx, qy);
        let start = start_seed % air.program().len();
        let mut t = Tuner::tune_in(air.program(), start, LossModel::iid(theta), start_seed);
        prop_assert_eq!(air.knn_query(&mut t, q, k), ds.brute_knn(q, k.min(n)));
    }
}

/// Explicit (optimizer-shaped) placements change scheduling only: a
/// scrambled reverse round-robin unit→channel assignment keeps HCI's
/// on-air answers equal to brute force under loss and any antenna count.
#[test]
fn explicit_placement_preserves_answers() {
    use dsi_broadcast::{AntennaConfig, ChannelConfig, Placement};
    let ds = SpatialDataset::build(&uniform(200, 11), 8);
    let single = BpAir::build(&ds, BpAirConfig::new(64));
    let units = single
        .program()
        .unit_starts()
        .iter()
        .filter(|&&s| s)
        .count();
    const C: u32 = 3;
    assert!(units >= C as usize);
    let assignment: Vec<u32> = (0..units).map(|u| (C - 1) - (u as u32 % C)).collect();
    let air = BpAir::try_build_channels(
        &ds,
        BpAirConfig::new(64),
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
            assert_eq!(air.window_query(&mut t, &w), ds.brute_window(&w));
            let mut t = Tuner::tune_in_with(air.program(), 23, loss, 9, ant);
            assert_eq!(air.knn_query(&mut t, q, 5), ds.brute_knn(q, 5));
        }
    }
}
