//! `dsi-model` — model checking for the workspace's concurrency layer.
//!
//! Under `RUSTFLAGS="--cfg dsi_model"` the crate exposes `scenarios`:
//! the `dsi_sim::fleet` granule dispatch on a clean fleet and on one
//! whose granules panic, each explored exhaustively by [`interleave`]'s
//! controlled scheduler with assertions that must hold in every
//! schedule. The `model` binary runs them and prints `MODEL OK` for CI.
//! Under the normal cfg the crate is empty.
#![warn(missing_docs)]

#[cfg(dsi_model)]
pub mod scenarios;
