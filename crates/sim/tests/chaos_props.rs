//! Bounded-recovery property: after a one-shot outage clears, every
//! query finishes within a provable number of packets — the livelock
//! guard's companion guarantee that resilience never trades correctness
//! or termination for latency.

use dsi_broadcast::{AntennaConfig, ChannelConfig, LossModel, OutageWindow, Query};
use dsi_datagen::{knn_points, window_queries};
use dsi_sim::{ground_truth, uniform_dataset_n, Engine, Scheme};
use proptest::prelude::*;

const SWITCH_COST: u32 = 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under a one-shot [`OutageSchedule`] that is clean after `T`, every
    /// scheme × antenna client (a) terminates, (b) answers exactly the
    /// brute-force result, and (c) satisfies the recovery bound
    /// `latency ≤ (T − start)⁺ + (tuning + 2) · (cycle + switch_cost)`:
    /// once the air is clean, each of the client's remaining reads waits
    /// at most one channel period plus one retune.
    #[test]
    fn queries_recover_boundedly_after_outages(
        scheme_sel in 0u8..3,
        antennas in 1u32..3,
        start in 0u64..600,
        s0 in 0u64..400,
        l0 in 1u64..120,
        s1 in 0u64..400,
        l1 in 1u64..120,
        knn in any::<bool>(),
        qseed in 0u64..1_000,
        seed in any::<u64>(),
    ) {
        let ds = uniform_dataset_n(120);
        let scheme = match scheme_sel {
            0 => Scheme::dsi_reorganized(64),
            1 => Scheme::RTree,
            _ => Scheme::Hci,
        };
        let e = Engine::build_channels(scheme, &ds, 64, ChannelConfig::blocked(2, SWITCH_COST));
        let loss = LossModel::outage(vec![
            OutageWindow { channel: 0, start: s0, len: l0 },
            OutageWindow { channel: 1, start: s1, len: l1 },
        ]);
        let clean_after = match &loss {
            LossModel::Outage(s) => s.clean_after().expect("one-shot schedule"),
            _ => unreachable!(),
        };
        let q = if knn {
            Query::Knn(knn_points(1, qseed)[0], 3)
        } else {
            Query::Window(window_queries(1, 0.15, qseed)[0])
        };
        let brute = ground_truth(&ds, &q);
        let start = start % e.cycle_packets();
        let o = e.drive_antennas(start, loss, seed, AntennaConfig::new(antennas), &q);
        prop_assert_eq!(&o.ids, &brute, "answers survive the outage");
        let per_read = e.cycle_packets() + SWITCH_COST as u64;
        let bound = clean_after.saturating_sub(start) + (o.stats.tuning_packets + 2) * per_read;
        prop_assert!(
            o.stats.latency_packets <= bound,
            "latency {} exceeds recovery bound {} (clean after {}, start {}, tuning {})",
            o.stats.latency_packets, bound, clean_after, start, o.stats.tuning_packets
        );
    }
}
