//! Shared driver for the figure/table regeneration binaries.
//!
//! Each binary (`fig8` … `table1`, `real`, `ablations`, `channels`, `all`)
//! is a thin wrapper: it calls the corresponding `dsi_sim::experiments`
//! function, prints the resulting tables, and drops both CSV copies
//! (`results/<name>_<i>.csv`) and one combined JSON result
//! (`results/<name>.json`) under `results/`. Every experiment function
//! is a selection of cells from the `dsi_sim::matrix` experiment matrix;
//! `real` adds a fleet table from `dsi_sim::fleet`. Scale knobs come from
//! the environment: `DSI_QUERIES` (default 200), `DSI_N` (default 10,000),
//! `DSI_VALIDATE=0` to skip ground-truth checks.

use std::path::PathBuf;
use std::time::Instant;

use dsi_sim::experiments::ExpOptions;
use dsi_sim::Table;

/// Runs one experiment end to end: banner, tables, CSV + JSON dump,
/// timing.
pub fn run_experiment(name: &str, f: impl FnOnce(&ExpOptions) -> Vec<Table>) {
    let opts = ExpOptions::from_env();
    println!(
        "=== {name} (N = {}, {} queries/point, validate = {}) ===",
        opts.dataset_n, opts.n_queries, opts.validate
    );
    let t0 = Instant::now();
    let tables = f(&opts);
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.render());
        let path = csv_path(name, i);
        if let Err(e) = t.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let json_path = PathBuf::from("results").join(format!("{name}.json"));
    if let Err(e) = write_json(&json_path, name, &opts, &tables) {
        eprintln!("warning: could not write {}: {e}", json_path.display());
    }
    println!("[{name} done in {:.1?}]\n", t0.elapsed());
}

/// Writes the combined JSON result of one experiment.
fn write_json(
    path: &std::path::Path,
    name: &str,
    opts: &ExpOptions,
    tables: &[Table],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let body: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
    let json = format!(
        "{{\"experiment\": \"{name}\", \"n\": {}, \"queries\": {}, \"tables\": [{}]}}\n",
        opts.dataset_n,
        opts.n_queries,
        body.join(", ")
    );
    std::fs::write(path, json)
}

fn csv_path(name: &str, idx: usize) -> PathBuf {
    PathBuf::from("results").join(format!("{name}_{idx}.csv"))
}
