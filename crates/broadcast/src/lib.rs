//! Wireless data broadcast channel simulator.
//!
//! The paper's evaluation runs on "a simulation model \[that\] consists of a
//! base station, an arbitrary number of clients, and a broadcast channel"
//! (§4). This crate is that substrate, independent of any particular air
//! index:
//!
//! * [`Program`] — one broadcast *cycle*: a sequence of fixed-capacity
//!   packets that the base station repeats forever. Packets are the atomic
//!   unit of transmission; all byte metrics are `packets × capacity`,
//!   exactly the unit the paper reports ("with a known packet capacity,
//!   conversion between the number of packets and total bytes is
//!   straightforward").
//! * [`Tuner`] — a mobile client's view of the channel: it can [`Tuner::read`]
//!   the packet at the current instant (active mode, costs tuning time) or
//!   [`Tuner::doze_to`] a future instant (doze mode, costs latency only).
//!   Time only moves forward; a pointer into the past means waiting for the
//!   next cycle, which is how the cost of mis-ordered tree traversals
//!   emerges naturally.
//! * [`LossModel`] — the error-prone environment: the paper's §5 i.i.d.
//!   per-packet loss (optionally scoped to index information, the data
//!   payload being assumed FEC-protected: see [`LossScope`] for why),
//!   plus the resilience-testing fault models — per-channel keyed i.i.d.
//!   streams, a bursty Gilbert–Elliott chain per channel, scheduled
//!   whole-channel outages, and scripted [`FaultTrace`] replay (see the
//!   [`loss`] module docs for the catalogue and compatibility
//!   guarantees).
//! * [`ChannelConfig`] / [`Placement`] — the multi-channel scheduler: the
//!   flat cycle's indivisible units spread over `C` lockstep channels,
//!   with a configurable per-switch latency cost and per-channel metrics
//!   ([`ChannelStats`]). `C = 1` is bit-identical to the classic
//!   single-channel broadcast.
//! * [`AirScheme`] / [`drive_antennas`] — the unified scheme layer: every
//!   air index exposes its program and window/kNN search algorithms
//!   through one trait, and one generic driver owns the tune-in/loss/stats
//!   loop for all of them ([`drive_traced`] is the same loop with the
//!   tuner's read journal on).
//! * [`segmented`] — the segmented tree broadcast both tree baselines
//!   share: the distributed indexing layout (replicated root paths,
//!   depth-first subtrees, objects), node-copy arrivals, and the pending
//!   read queue of a tree client.
//! * [`optimize`] — the workload-aware server-side placement optimizer:
//!   profile a training workload over the flat schema from its read
//!   journals ([`drive_traced`] on the single-channel build), price
//!   unit→channel assignments query by query from each training query's
//!   read runs, and search the contiguous arc family for a
//!   [`Placement::Explicit`] layout that fits the workload.
//!
//! The simulator is deterministic under a fixed seed: every stochastic
//! choice (loss draws) comes from the tuner's own RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
pub mod loss;
pub mod optimize;
mod program;
mod scheme;
pub mod segmented;
mod sojourn;
mod stats;
mod tuner;

pub use channel::{AntennaConfig, ChannelConfig, ChannelStats, LayoutError, Placement};
pub use loss::{
    FaultTrace, GilbertElliott, LossModel, LossScope, OutageSchedule, OutageWindow, TraceEntry,
};
pub use program::{PacketClass, Payload, Program};
pub use scheme::{drive_antennas, drive_traced, AirScheme, Query, QueryOutcome};
pub use stats::{DistSummary, Distribution, MeanStats, QueryStats};
pub use tuner::{PacketLost, Tuner};
