//! Experiment harness for the DSI reproduction.
//!
//! This crate drives the three air indexes (DSI, R-tree, HCI) through the
//! paper's evaluation (§4–5): it builds broadcast programs, fires seeded
//! query workloads at random tune-in positions, validates every answer
//! against brute-force ground truth, and aggregates access latency and
//! tuning time in bytes — the exact quantities on the paper's axes.
//!
//! One function per paper artefact lives in [`experiments`]:
//! `fig8` … `fig12`, `table1`, the REAL-dataset summaries and the
//! extension ablations. Each returns [`Table`]s that the `dsi-bench`
//! binaries print and dump as CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod experiments;
pub mod fleet;
pub mod matrix;
pub mod runner;
pub mod table;

pub use chaos::{chaos_spec, retune_ablation, run_chaos, AblationResult};
pub use engine::{Engine, Scheme};
pub use fleet::{run_fleet, run_fleet_oracle, FleetOutcomes, FleetSpec, FleetStats, Population};
pub use matrix::{cells_table, run_matrix, ChannelSpec, MatrixCell, MatrixSpec, WorkloadSpec};
pub use runner::{
    run_knn_batch, run_query_batch, run_query_batch_at, run_window_batch, BatchOptions, BatchResult,
};
pub use table::Table;

use dsi_datagen::{clustered, uniform, SpatialDataset};

/// Hilbert order used throughout the evaluation: `4^12 ≈ 1.7·10⁷` cells,
/// ample for distinct HC values at the paper's dataset sizes while keeping
/// window decompositions small.
pub const EVAL_ORDER: u8 = 12;

/// The paper's UNIFORM dataset: 10,000 uniform points.
pub fn uniform_dataset() -> SpatialDataset {
    SpatialDataset::build(&uniform(10_000, 42), EVAL_ORDER)
}

/// A reduced UNIFORM dataset for quick runs and tests.
pub fn uniform_dataset_n(n: usize) -> SpatialDataset {
    SpatialDataset::build(&uniform(n, 42), EVAL_ORDER)
}

/// Reads the harness knob `name` (`DSI_N`, `DSI_QUERIES`, …): `default`
/// when it is unset, its parsed value otherwise. A value that does not
/// parse panics with the variable's name and value, so a typo such as
/// `DSI_N=2k` cannot silently run the default scale.
pub fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    let Some(raw) = std::env::var_os(name) else {
        return default;
    };
    let parsed = raw.to_str().and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| panic!("{name}={raw:?} is not a {}", std::any::type_name::<T>()))
}

/// The REAL-dataset surrogate: 5,848 points (the size of the paper's
/// Greek towns set) from a heavy-tailed Gaussian mixture. The towns'
/// coordinates are not part of the repository, so a seeded mixture with
/// the same point count stands in for them.
pub fn real_dataset() -> SpatialDataset {
    SpatialDataset::build(&clustered(5_848, 64, 4242), EVAL_ORDER)
}

#[cfg(test)]
mod tests {
    use super::env_knob;

    #[test]
    fn env_knob_defaults_when_unset_and_parses_when_set() {
        assert_eq!(env_knob("DSI_TEST_KNOB_UNSET", 7usize), 7);
        std::env::set_var("DSI_TEST_KNOB_N", "2000");
        assert_eq!(env_knob("DSI_TEST_KNOB_N", 7usize), 2000);
    }

    #[test]
    #[should_panic(expected = "DSI_TEST_KNOB_TYPO=\"2k\" is not a usize")]
    fn env_knob_names_an_unparseable_value() {
        std::env::set_var("DSI_TEST_KNOB_TYPO", "2k");
        let _: usize = env_knob("DSI_TEST_KNOB_TYPO", 10_000);
    }
}
