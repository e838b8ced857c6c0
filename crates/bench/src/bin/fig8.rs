//! Regenerates the paper's fig8 results; see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("fig8", dsi_sim::experiments::fig8);
}
