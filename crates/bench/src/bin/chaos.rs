//! Regenerates the chaos (fault-injection) results: the validated
//! scheme × placement × C × antennas × fault-family grid plus the
//! retune-vs-wait race; see the README's "Fault models &
//! resilience" section.
//!
//! Trace modes (both use a fixed representative query — DSI, C2-blocked,
//! k = 2, window — under the chaos Gilbert–Elliott channel):
//!
//! - `--record-trace <path>`: journal the run's per-read loss outcomes
//!   and write them in the `dsi-fault-trace v1` text format.
//! - `--replay-trace <path>`: re-run the query with the scripted trace
//!   as its fault model and assert the answer still matches brute
//!   force. Replaying the committed fixture
//!   (`fixtures/fault_trace.txt`) in CI pins the replay format.

use dsi_broadcast::{
    AntennaConfig, ChannelConfig, FaultTrace, GilbertElliott, LossModel, LossScope, Query,
};
use dsi_sim::chaos::{chaos_experiment, CHAOS_SWITCH_COST};
use dsi_sim::{ground_truth, uniform_dataset_n, Engine, Scheme};

/// The traced run's channel: fades every ~50 packets, 90% loss inside,
/// all packet classes — dense enough that a ~200-read query always
/// journals real hits, so the committed fixture exercises the lost-entry
/// side of the replay format, not just the clean side.
fn traced_channel() -> LossModel {
    LossModel::Gilbert(GilbertElliott::new(0.02, 0.1, 0.9).with_scope(LossScope::All))
}

/// The representative traced query: deterministic, multi-channel, lossy
/// enough that its journal always contains hits.
fn traced_setup() -> (Engine, dsi_datagen::SpatialDataset, Query) {
    let ds = uniform_dataset_n(400);
    let e = Engine::build_channels(
        Scheme::dsi_reorganized(64),
        &ds,
        64,
        ChannelConfig::blocked(2, CHAOS_SWITCH_COST),
    );
    let w = dsi_datagen::window_queries(1, 0.2, 3)[0];
    (e, ds, Query::Window(w))
}

fn record_trace(path: &str) {
    let (e, ds, q) = traced_setup();
    let (out, trace) = e.drive_traced(5, traced_channel(), 21, AntennaConfig::new(2), &q);
    assert_eq!(
        out.ids,
        ground_truth(&ds, &q),
        "recorded run diverged from brute force"
    );
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }
    std::fs::write(path, trace.to_text()).expect("write trace");
    println!(
        "recorded {} fault entries ({} lost) to {path}",
        trace.entries().len(),
        trace.entries().iter().filter(|e| e.lost).count()
    );
}

fn replay_trace(path: &str) {
    let text = std::fs::read_to_string(path).expect("read trace");
    let trace = FaultTrace::from_text(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1)
    });
    let (e, ds, q) = traced_setup();
    // Replay is seed-independent: the scripted trace *is* the fault
    // model, so a different seed must reproduce the recorded run.
    let out = e.drive_antennas(
        5,
        LossModel::Trace(trace.clone()),
        777,
        AntennaConfig::new(2),
        &q,
    );
    assert_eq!(
        out.ids,
        ground_truth(&ds, &q),
        "replayed run diverged from brute force"
    );
    println!(
        "replayed {} fault entries from {path}: latency {} packets, {} lost reads, longest stall {}",
        trace.entries().len(),
        out.stats.latency_packets,
        out.stats.lost_packets,
        out.stats.longest_stall_packets
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--record-trace") => record_trace(args.get(2).expect("--record-trace <path>")),
        Some("--replay-trace") => replay_trace(args.get(2).expect("--replay-trace <path>")),
        Some(other) => panic!("unknown flag {other}; use --record-trace/--replay-trace <path>"),
        None => dsi_bench::run_experiment("chaos", chaos_experiment),
    }
}
