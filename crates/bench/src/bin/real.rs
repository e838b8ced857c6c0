//! Regenerates the REAL-dataset summaries of the paper's §4.2/§4.3 text —
//! now over the committed point fixture (`crates/bench/fixtures/
//! real_points.txt`, 5,848 sites, loaded offline via
//! [`dsi_datagen::load_points`]; no network, no synthesis at run time) —
//! and runs a concurrent-listener fleet over the same broadcast, writing
//! both to `results/real.json`. `DSI_FLEET_CLIENTS` scales the fleet
//! population (default 20,000).

use std::path::Path;

use dsi_datagen::{load_points, SpatialDataset};
use dsi_sim::env_knob;
use dsi_sim::experiments::{fleet_summary_on, real_summary_on};

fn main() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/real_points.txt");
    let points = load_points(&fixture)
        .unwrap_or_else(|e| panic!("cannot load point fixture {}: {e}", fixture.display()));
    println!(
        "[REAL fixture: {} points from {}]",
        points.len(),
        fixture.display()
    );
    let ds = SpatialDataset::build(&points, dsi_sim::EVAL_ORDER);
    let clients = env_knob("DSI_FLEET_CLIENTS", 20_000);
    dsi_bench::run_experiment("real", |opts| {
        let mut tables = real_summary_on(&ds, opts);
        tables.extend(fleet_summary_on(&ds, opts, clients));
        tables
    });
}
