//! `dsi-model` — model checking for the workspace's concurrency layer.
//!
//! Three analyzers run over the event streams produced by
//! [`interleave`]'s controlled scheduler:
//!
//! - [`lockset`] — Eraser-style race detection on `SharedCell` accesses;
//! - [`lockorder`] — lock-order graph construction with cycle reporting
//!   (potential deadlocks, even in schedules that did not hang);
//! - [`wakeup`] — lost-wakeup classification of explorer deadlocks.
//!
//! Under `RUSTFLAGS="--cfg dsi_model"` the crate additionally exposes
//! [`check`] (the exploration + analysis driver) and [`scenarios`] (the
//! exhaustive suite over the `dsi_sim::fleet` granule dispatch and the
//! `dsi_core::share` cache);
//! the `model` binary runs the suite and prints `MODEL OK` for CI.
//! Under the normal cfg only the pure analyzers build — they need
//! nothing but event streams.
#![warn(missing_docs)]

#[cfg(dsi_model)]
pub mod check;
pub mod lockorder;
pub mod lockset;
#[cfg(dsi_model)]
pub mod scenarios;
pub mod wakeup;
