//! Regenerates the paper's fig12 results; see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("fig12", dsi_sim::experiments::fig12);
}
