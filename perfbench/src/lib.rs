//! Repository benchmark for the DSI broadcast simulator.
//!
//! One binary runs one of three seeded workloads (see [`workload`]). An
//! untraced run ([`run::untraced`]) reports the end-to-end metrics — host
//! throughput and set-up time, the simulated air metrics, peak memory —
//! after checking every answer; a traced run ([`layers::traced`]) reports
//! the per-layer metrics from spans around the calls into each module.

#![deny(unsafe_code)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux /proc files and a 64-bit Linux clock");

pub mod clock;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
