//! Regenerates the paper's ablations results; see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("ablations", dsi_sim::experiments::ablations);
}
