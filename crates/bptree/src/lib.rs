//! HCI baseline: a B+-tree over Hilbert-curve values on the air.
//!
//! The paper's second baseline (Zheng et al., PerCom'03 "Spatial index on
//! air") broadcasts data objects in Hilbert order and indexes them with a
//! bulk-loaded B+-tree over the HC values, laid out with the same
//! distributed indexing scheme as the R-tree: the segmented tree
//! broadcast of `dsi_broadcast::segmented`, whose layout, node-copy
//! arrivals and pending-read queue both baselines share. This crate keeps
//! the tree, its fanout and slot sizes, and the searches.
//!
//! Window queries decompose the window into HC ranges and descend the
//! tree for each; kNN queries are two-phase: locate the query point's HC
//! position and bound a search radius from the k index-nearest objects,
//! then run a window-style retrieval over the bounding box of that circle
//! — the second pass is what makes HCI kNN pay one-to-two extra broadcast
//! cycles compared to DSI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod air;
mod client;
mod tree;
mod verify;

pub use air::{BpAir, BpAirConfig};
pub use tree::{bulk_load, BpNode, BpTree, BP_ENTRY_BYTES, BP_NODE_HEADER_BYTES};
