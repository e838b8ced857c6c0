//! Regenerates the multi-channel scenario matrix (scheme × channel config
//! × loss × workload, with per-channel tuning stats); see the README's
//! "Reproducing the paper's evaluation" section.
fn main() {
    dsi_bench::run_experiment("channels", dsi_sim::experiments::channels);
}
