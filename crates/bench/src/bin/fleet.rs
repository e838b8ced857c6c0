//! Fleet engine driver: a population of concurrent listeners on one
//! broadcast cycle, with an explicit fleet-vs-sequential equality gate.
//!
//! Two phases:
//!
//! 1. **Equality gate** — for every scheme (reorganized DSI, R-tree,
//!    HCI), a reduced fleet (capped at 2,000 clients) is run at 1, 2 and
//!    auto worker counts and compared bit-for-bit against the sequential
//!    per-client oracle, on a lossless and a Gilbert–Elliott channel. Any
//!    mismatch panics; CI greps the `OK` line, which names the schemes.
//! 2. **Throughput** — the full fleet (`DSI_FLEET_CLIENTS`, default
//!    100,000) runs per scheme via `fleet_summary_on` and prints
//!    clients/sec, events/sec and population latency/tuning percentiles.
//!
//! Scale knobs: `DSI_N` (dataset size), `DSI_FLEET_CLIENTS`,
//! `DSI_QUERIES`/`DSI_VALIDATE` as usual.

use std::sync::Arc;

use dsi_broadcast::{LossModel, Query};
use dsi_datagen::{knn_points, window_queries};
use dsi_sim::experiments::{fleet_summary_on, ExpOptions};
use dsi_sim::fleet::{run_fleet, run_fleet_oracle, FleetSpec};
use dsi_sim::{env_knob, Engine, Scheme};

fn main() {
    let opts = ExpOptions::from_env();
    let clients: usize = env_knob("DSI_FLEET_CLIENTS", 100_000);
    println!(
        "=== fleet (N = {}, {} clients, validate = {}) ===",
        opts.dataset_n, clients, opts.validate
    );
    let ds = Arc::new(dsi_sim::uniform_dataset_n(opts.dataset_n));

    // Phase 1: the equality gate.
    let mut pool: Vec<Query> = window_queries(4, 0.1, 11)
        .into_iter()
        .map(Query::Window)
        .collect();
    pool.extend(knn_points(4, 13).into_iter().map(|p| Query::Knn(p, 10)));
    let gate_clients = clients.min(2_000);
    let schemes = [Scheme::dsi_reorganized(64), Scheme::RTree, Scheme::Hci];
    for scheme in schemes {
        let engine = Engine::build(scheme, &ds, 64);
        for loss in [LossModel::None, LossModel::gilbert(0.05, 0.3, 0.9)] {
            let mut spec = FleetSpec {
                skew: 1.1,
                keep_ids: true,
                keep_channels: true,
                loss: loss.clone(),
                ..FleetSpec::new(gate_clients, pool.clone())
            };
            let oracle = run_fleet_oracle(&engine, Some(&ds), &spec);
            for workers in [1usize, 2, 0] {
                spec.workers = workers;
                let (_, outcomes) = run_fleet(&engine, Some(&ds), &spec);
                assert_eq!(
                    outcomes,
                    oracle,
                    "fleet != sequential oracle ({}, {loss:?}, workers = {workers})",
                    scheme.name()
                );
            }
        }
    }
    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    println!(
        "fleet-vs-sequential equality: OK ({} x {gate_clients} clients x workers 1/2/auto x lossless+gilbert)",
        names.join("/")
    );

    // Phase 2: full-scale throughput per scheme.
    for t in fleet_summary_on(&ds, &opts, clients) {
        println!("{}", t.render());
    }
}
