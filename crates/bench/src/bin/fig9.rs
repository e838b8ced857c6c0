//! Regenerates the paper's fig9 results; see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("fig9", dsi_sim::experiments::fig9);
}
