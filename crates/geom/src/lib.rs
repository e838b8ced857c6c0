//! 2-D geometry primitives shared by every crate of the DSI reproduction.
//!
//! The paper (Lee & Zheng, ICDCS 2005) works in a two-dimensional Euclidean
//! space where a coordinate is a pair of 8-byte floating point numbers.
//! This crate provides the value types for that space — [`Point`] and
//! [`Rect`] — together with the distance kernels used by the query
//! algorithms (squared distances, point↔rectangle *mindist*), and the
//! [`GridMapper`] that maps continuous coordinates onto the `2^order ×
//! 2^order` integer grid on which the Hilbert curve is defined.
//!
//! All distance computations are done on squared distances to avoid `sqrt`
//! in hot loops; call sites take square roots only when a radius is needed
//! for reporting. [`BoundOrder`] keeps such bounds sorted for the kNN
//! clients of every scheme, whose search radius is the k-th smallest
//! upper bound over their candidates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod grid;
mod point;
mod rect;

pub use bound::BoundOrder;
pub use grid::{Cell, GridMapper};
pub use point::{dist2, Point};
pub use rect::Rect;
