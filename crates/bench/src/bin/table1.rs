//! Regenerates the paper's table1 results; see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("table1", dsi_sim::experiments::table1);
}
