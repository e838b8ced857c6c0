//! **dsi** — reproduction of *"DSI: A Fully Distributed Spatial Index for
//! Wireless Data Broadcast"* (Lee & Zheng, ICDCS 2005).
//!
//! This umbrella crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`core`] — the DSI air index itself: exponential index tables over a
//!   Hilbert-ordered broadcast, energy-efficient forwarding, window and
//!   kNN queries, broadcast reorganization, loss recovery.
//! * [`broadcast`] — the wireless broadcast channel simulator (packets,
//!   programs, tuners, link-error models, byte metrics).
//! * [`hilbert`] / [`geom`] — the spatial substrate: curve conversions,
//!   window→HC-range decomposition, distance kernels.
//! * [`rtree`] / [`bptree`] — the paper's baselines: an STR-packed R-tree
//!   and the HCI B+-tree, both with distributed air layouts and on-air
//!   query algorithms.
//! * [`datagen`] — datasets (UNIFORM, clustered REAL surrogate) and query
//!   workloads.
//! * [`sim`] — the experiment harness regenerating every figure and table
//!   of the paper's evaluation.
//! * [`verify`] — the static broadcast-program analyzer: structural
//!   soundness, forward-progress proofs, worst-case latency/tuning
//!   bounds, and the repo-invariant source lints.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the README's
//! "Reproducing the paper's evaluation" section for the binaries that
//! regenerate each figure and table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dsi_broadcast as broadcast;
pub use dsi_core as core;
pub use dsi_datagen as datagen;
pub use dsi_geom as geom;
pub use dsi_hilbert as hilbert;
pub use dsi_sim as sim;
pub use dsi_verify as verify;

pub use dsi_bptree as bptree;
pub use dsi_rtree as rtree;

// The most common entry points, re-exported flat.
pub use dsi_broadcast::{LossModel, LossScope, QueryStats, Tuner};
pub use dsi_core::{DsiAir, DsiConfig, FramingPolicy, KnnStrategy, ReorgStyle};
pub use dsi_datagen::SpatialDataset;
pub use dsi_geom::{Point, Rect};
