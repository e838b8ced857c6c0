//! STR-packed R-tree baseline with a distributed air layout.
//!
//! The paper compares DSI against an R-tree built with the STR packing
//! scheme (Leutenegger et al., ICDE'97 — "to provide an optimal
//! performance") and broadcast with the distributed indexing scheme of
//! Imielinski et al. This crate is that baseline, end to end:
//!
//! * [`RTree`] / [`str_pack`] — bulk loading by Sort-Tile-Recursive.
//! * [`RTreeAir`] — the tree on the air, laid out by the segmented tree
//!   broadcast the HCI baseline shares (`dsi_broadcast::segmented`): the
//!   cycle is a sequence of *segments*, one per subtree at a cut level;
//!   each segment carries a replicated copy of the path from the root (so
//!   clients can start at the next segment instead of waiting for the
//!   root), the segment's subtree nodes (each broadcast once), and its
//!   data objects. This crate supplies the fanouts and slot sizes.
//! * On-air [`RTreeAir::window_query`] / [`RTreeAir::knn_query`] — the
//!   shared pending-read queue ordered by broadcast position: navigation
//!   strictly follows the broadcast order, so a child whose position
//!   already passed costs a wrap to the next cycle. This is precisely the
//!   weakness the paper's Figure 1 illustrates, and it emerges here
//!   naturally rather than being modelled.
//!
//! Node sizing follows the paper's accounting: an internal entry is an MBR
//! (32 bytes) + pointer (2 bytes), a leaf entry a point (16 bytes) +
//! pointer; at a 32-byte packet capacity an internal entry does not fit,
//! which is why the paper (and our experiments) exclude R-tree at 32 B.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod air;
mod client;
mod str_pack;
mod tree;
mod verify;

pub use air::{RTreeAir, RtreeAirConfig};
pub use str_pack::str_pack;
pub use tree::{Node, RTree, INTERNAL_ENTRY_BYTES, LEAF_ENTRY_BYTES, NODE_HEADER_BYTES};
