//! Regenerates the paper's fig11 results; see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("fig11", dsi_sim::experiments::fig11);
}
