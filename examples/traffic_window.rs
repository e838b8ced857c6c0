//! Traffic map: window queries across the three air indexes — and across
//! broadcast channel counts.
//!
//! A navigation device shows local traffic conditions for the map viewport
//! — a window query over the broadcast. We run the same viewport workload
//! against DSI, the STR R-tree and HCI, first on the paper's single
//! channel (the comparison of Figure 9 at one packet capacity), then over
//! 4 block-contiguous channels to show the multi-channel scaling lever:
//! shorter per-channel cycles cut access latency, paid for with channel
//! switches.
//!
//! Run with: `cargo run --release --example traffic_window`
//! (`DSI_N` scales the dataset down for quick runs.)

use dsi::broadcast::{ChannelConfig, LossModel};
use dsi::datagen::{uniform, window_queries, SpatialDataset};
use dsi::sim::{run_window_batch, BatchOptions, Engine, Scheme};

fn main() {
    let n = dsi::sim::env_knob("DSI_N", 10_000);
    let dataset = SpatialDataset::build(&uniform(n, 42), 12);
    // Viewports of 10 % side length, uniformly placed.
    let viewports = window_queries(150.min(n), 0.1, 11);
    let opts = BatchOptions {
        loss: LossModel::None,
        seed: 5,
        validate: true,
        ..BatchOptions::default()
    };

    let schemes = [
        ("DSI   ", Scheme::dsi_reorganized(64)),
        ("R-tree", Scheme::RTree),
        ("HCI   ", Scheme::Hci),
    ];

    println!(
        "index    mean latency      mean tuning   (viewport queries, 64 B packets, 1 channel)"
    );
    for (name, scheme) in schemes {
        let engine = Engine::build(scheme, &dataset, 64);
        let r = run_window_batch(&engine, &dataset, &viewports, &opts);
        println!(
            "{name}  {:>12.3e} B   {:>12.3e} B",
            r.latency_bytes, r.tuning_bytes
        );
    }

    println!();
    println!("index    mean latency      mean tuning    switches  (4 blocked channels, 2-packet switch cost)");
    for (name, scheme) in schemes {
        let engine = Engine::build_channels(scheme, &dataset, 64, ChannelConfig::blocked(4, 2));
        let r = run_window_batch(&engine, &dataset, &viewports, &opts);
        println!(
            "{name}  {:>12.3e} B   {:>12.3e} B   {:>7.1}",
            r.latency_bytes, r.tuning_bytes, r.mean_switches
        );
    }
    println!();
    println!("Every answer set is validated against brute force; the single-");
    println!("channel shapes correspond to the paper's Figure 9 at capacity 64,");
    println!("and the 4-channel run shows latency dropping as each channel's");
    println!("cycle shrinks while tuning stays in the same ballpark.");
}
