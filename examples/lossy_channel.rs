//! Error-prone wireless channel: the paper's §5 resilience story.
//!
//! The same 10NN workload runs over channels with increasing link-error
//! rates θ. DSI clients resume at the very next frame with all knowledge
//! intact, while tree clients must wait for node rebroadcasts — so DSI's
//! deterioration stays smallest, the paper's Table 1.
//!
//! Run with: `cargo run --release --example lossy_channel`
//! (`DSI_N` scales the dataset down for quick runs.)

use dsi::broadcast::LossModel;
use dsi::datagen::{uniform, SpatialDataset};
use dsi::sim::{run_query_batch, BatchOptions, Engine, Scheme, WorkloadSpec};

fn main() {
    let n = dsi::sim::env_knob("DSI_N", 10_000);
    let dataset = SpatialDataset::build(&uniform(n, 42), 12);
    let queries = WorkloadSpec::Knn { k: 10 }.queries(80, 13);

    println!("index    theta   mean latency    vs lossless   (10NN)");
    for (name, scheme) in [
        ("DSI   ", Scheme::dsi_reorganized(64)),
        ("R-tree", Scheme::RTree),
        ("HCI   ", Scheme::Hci),
    ] {
        let engine = Engine::build(scheme, &dataset, 64);
        let mut base = None;
        for theta in [0.0, 0.2, 0.5, 0.7] {
            let opts = BatchOptions {
                loss: LossModel::iid(theta),
                seed: 5,
                validate: true, // answers stay exact even on a lossy channel
                ..BatchOptions::default()
            };
            let r = run_query_batch(&engine, &dataset, &queries, &opts);
            let b = *base.get_or_insert(r.latency_bytes);
            println!(
                "{name}   {theta:<5}  {:>11.3e} B   {:>+8.2}%",
                r.latency_bytes,
                (r.latency_bytes / b - 1.0) * 100.0
            );
        }
    }
    println!();
    println!("Note the validation flag: link errors cost time and energy but");
    println!("never correctness — every client retries lost pieces in later");
    println!("cycles until the exact answer set is assembled.");
}
