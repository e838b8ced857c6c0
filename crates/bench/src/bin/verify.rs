//! Static verification gate: builds the scheme × placement × channel grid
//! at small N, runs the `dsi-verify` analyzer over every program, smokes
//! the derived worst-case bounds against measured lossless maxima, and
//! writes a machine-readable report to `results/verify.json`.
//!
//! Exit status is nonzero on any violation, rejected build, or bound
//! breach, so CI can gate on it the same way it gates on clippy. Scale
//! comes from `DSI_N` (default 300 objects).

use std::process::ExitCode;

use dsi_broadcast::{AntennaConfig, ChannelConfig, LossModel, Query};
use dsi_core::KnnStrategy;
use dsi_datagen::{knn_points, window_queries, SpatialDataset};
use dsi_sim::{env_knob, Engine, Scheme};

/// The static coalescing proof talks about the *static* anchor map; the
/// fleet dedups on the *dynamic* `Engine::tune_anchor`. Soundness needs
/// the dynamic partition to refine the static one: whenever two tune-ins
/// get the same dynamic anchor (and so share one drive), the static
/// proof must also place them in one cohort. Sampled over the cycle.
fn crosscheck_anchors(engine: &Engine, report: &dsi_verify::VerifyReport) -> Result<(), String> {
    let model = engine.static_model();
    let cycle = engine.cycle_packets();
    let statics = dsi_verify::static_anchor_map(model);
    if !report.coalesce.applicable {
        if let Some(s) = (0..cycle).find(|&s| engine.tune_anchor(s).is_some()) {
            return Err(format!(
                "static proof is inapplicable but tune_anchor({s}) is Some"
            ));
        }
        return Ok(());
    }
    let statics = statics.ok_or("report says applicable but no static anchor map")?;
    let step = (cycle / 64).max(1);
    let mut by_dynamic: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for s in (0..cycle).step_by(step as usize) {
        let Some(d) = engine.tune_anchor(s) else {
            return Err(format!("tune_anchor({s}) is None on an applicable cell"));
        };
        let stat = statics[s as usize];
        match by_dynamic.insert(d, stat) {
            Some(prev) if prev != stat => {
                return Err(format!(
                    "dynamic anchor {d} spans static anchors {prev} and {stat}: \
                     the fleet would coalesce clients the model cannot prove equal"
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let n = env_knob("DSI_N", 300);
    let ds = SpatialDataset::build(&dsi_datagen::uniform(n, 42), 10);
    let schemes = [
        ("DSI-reorg", Scheme::dsi_reorganized(64)),
        ("DSI", Scheme::dsi_original(64, KnnStrategy::Conservative)),
        ("R-tree", Scheme::RTree),
        ("HCI", Scheme::Hci),
    ];
    let channel_cfgs = [
        ("C1", ChannelConfig::single()),
        ("C2-blocked", ChannelConfig::blocked(2, 1)),
        ("C2-striped", ChannelConfig::striped(2, 1)),
        ("C4-frames", ChannelConfig::striped_frames(4, 1)),
        ("C3-split", ChannelConfig::index_data(3, 1, 2)),
    ];
    // The bound is proven for the lossless single-antenna client; the
    // smoke drives a small mixed workload from tune-ins spread across the
    // cycle and checks the measured maxima never exceed it.
    let queries: Vec<Query> = window_queries(6, 0.15, 9)
        .into_iter()
        .map(Query::Window)
        .chain(knn_points(6, 10).into_iter().map(|p| Query::Knn(p, 4)))
        .collect();
    let mut rows = Vec::new();
    let mut failed = false;
    for (sname, scheme) in schemes {
        for (cname, cfg) in &channel_cfgs {
            let engine = match Engine::try_build_channels(scheme, &ds, 64, cfg.clone()) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("verify: {sname} x {cname}: build rejected: {e}");
                    failed = true;
                    continue;
                }
            };
            let report = match engine.verify() {
                Ok(r) => r,
                Err(violations) => {
                    eprintln!(
                        "verify: {sname} x {cname}: {} violation(s)",
                        violations.len()
                    );
                    for v in violations.iter().take(8) {
                        eprintln!("  {v}");
                    }
                    failed = true;
                    continue;
                }
            };
            let cycle = engine.cycle_packets();
            let mut max_lat = 0u64;
            let mut max_tun = 0u64;
            for (qi, q) in queries.iter().enumerate() {
                for s in 0..8u64 {
                    let out = engine.drive_antennas(
                        s * cycle / 8,
                        LossModel::None,
                        qi as u64,
                        AntennaConfig::single(),
                        q,
                    );
                    max_lat = max_lat.max(out.stats.latency_packets);
                    max_tun = max_tun.max(out.stats.tuning_packets);
                }
            }
            let lat_ok = max_lat <= report.bounds.latency_packets;
            let tun_ok = max_tun <= report.bounds.tuning_packets;
            if !lat_ok || !tun_ok {
                eprintln!(
                    "verify: {sname} x {cname}: measured exceeds bound \
                     (latency {max_lat} vs {}, tuning {max_tun} vs {})",
                    report.bounds.latency_packets, report.bounds.tuning_packets
                );
                failed = true;
            }
            // Cross-check the static coalescing verdict against the live
            // engine: equal dynamic anchors must imply equal static
            // anchors (the dedup keys on the dynamic one), and a cell the
            // static proof calls inapplicable must never hand out anchors.
            if let Err(e) = crosscheck_anchors(&engine, &report) {
                eprintln!("verify: {sname} x {cname}: anchor cross-check: {e}");
                failed = true;
            }
            let co = &report.coalesce;
            let co_str = if co.applicable {
                format!("coalesce {}a/{}w", co.anchors, co.checked_pairs)
            } else {
                "coalesce n/a".to_string()
            };
            println!(
                "verify: {sname:9} x {cname:10}: {} units, {} hops, \
                 latency {max_lat} <= {}, tuning {max_tun} <= {}, {co_str}",
                report.n_units,
                report.max_nav_hops,
                report.bounds.latency_packets,
                report.bounds.tuning_packets
            );
            rows.push(format!(
                "{{\"scheme\": \"{sname}\", \"channels\": \"{cname}\", \
                 \"measured_latency_packets\": {max_lat}, \
                 \"measured_tuning_packets\": {max_tun}, \
                 \"report\": {}}}",
                report.to_json()
            ));
        }
    }
    let json = format!("{{\"n\": {n}, \"cells\": [{}]}}\n", rows.join(", "));
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|_| std::fs::write("results/verify.json", json))
    {
        eprintln!("warning: could not write results/verify.json: {e}");
    }
    if failed {
        eprintln!("VERIFY FAILED");
        ExitCode::FAILURE
    } else {
        println!("VERIFY OK");
        ExitCode::SUCCESS
    }
}
