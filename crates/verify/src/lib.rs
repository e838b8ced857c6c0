//! Static verification of built broadcast programs, worst-case bound
//! analysis, and the repo-invariant lint pass.
//!
//! The paper's central claim is *structural*: DSI's distributed index
//! lets a client tuning in at **any** packet navigate to its answer in
//! bounded time. Until now the repo checked that claim dynamically — by
//! running clients over conformance grids, goldens and fault harnesses.
//! This crate proves it per artifact instead: every built `Program` +
//! `ChannelLayout` (any scheme, any placement) yields a [`StaticModel`]
//! of its packets, channels, units and pointer graph, and [`verify()`]
//! establishes, without simulating a single packet:
//!
//! 1. **Structural soundness** — every pointer targets a valid,
//!    unit-aligned flat position with a true claim; units are never split
//!    across channels; every data unit is announced by some index unit.
//! 2. **Forward progress** — abstract interpretation of the client
//!    navigation automaton over the pointer graph shows every entry
//!    point reaches every data unit; a revisited knowledge state (a cycle
//!    only a lossy re-airing could break — the static counterpart of the
//!    runtime retry-cap) is a hard error carrying the offending pointer
//!    chain ([`Violation::NoProgress`]).
//! 3. **Worst-case bounds** — per scheme/placement, sound suprema on
//!    access latency and tuning time ([`BoundsReport`]), emitted
//!    machine-readably and pinned against measured maxima by
//!    `tests/verify_bounds.rs`.
//! 4. **Cohort-coalescing soundness** — the fleet engine's
//!    one-drive-per-cohort dedup is justified from the model: anchors
//!    are total, no index knowledge is decodable before an anchor, and
//!    paired equal-anchor starts traverse identical unit sequences
//!    ([`coalesce`], [`CoalesceReport`]).
//!
//! The sibling [`lint`] module is the source-level pass (`dsi-lint`)
//! guarding the determinism invariants the goldens rely on; see its docs
//! for each rule.

#![warn(missing_docs)]

pub mod bounds;
pub mod coalesce;
pub mod lint;
pub mod model;
pub mod verify;

pub use bounds::{compute_bounds, BoundsReport};
pub use coalesce::{static_anchor_map, CoalesceReport};
pub use lint::{lint_source, lint_workspace, LintFinding};
pub use model::{Edge, EdgeClaim, StaticModel, Unit, UnitKind, Verifiable};
pub use verify::{verify, VerifyReport, Violation};
