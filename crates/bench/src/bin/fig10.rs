//! Regenerates the paper's fig10 results; see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("fig10", dsi_sim::experiments::fig10);
}
