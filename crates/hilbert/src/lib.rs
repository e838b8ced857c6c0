//! Hilbert space-filling curve kernels for the DSI reproduction.
//!
//! The paper broadcasts data objects in ascending order of their Hilbert
//! curve (HC) values and performs all spatial reasoning in HC space:
//!
//! * [`HilbertCurve`] — the bidirectional mapping between grid cells and
//!   curve positions (`xy2d` / `d2xy`), the "conversion in constant time"
//!   the paper assumes every client can perform (its reference `[12]`).
//! * [`ranges_in_rect`] — decomposition of a query window into the maximal
//!   set of contiguous HC intervals covered by it: the *target segments*
//!   `H` of the window-query algorithm (paper Algorithm 1, step 1).
//! * [`ranges_in_circle_with_dist_into`] — direct decomposition of a kNN
//!   search circle, pruning quadrants outside the circle *during* the
//!   descent, with [`narrow_ranges_to_circle_into`] refining a previous
//!   decomposition when the circle shrinks (paper §3.4–3.5), and
//!   [`narrow_ranges_to_circle_coarse_into`] doing so only down to a floor
//!   level, leaving blocks that straddle the circle unrefined until a
//!   reader needs them, and [`refine_circle_path_into`] then splitting one
//!   such block along the path to the cell the reader needs.
//! * [`min_dist2_to_range`] — the exact minimum distance from a query point
//!   to any cell of an HC interval; this is what lets the kNN algorithms
//!   decide whether a not-yet-broadcast HC region can still contain a
//!   nearer neighbour.
//!
//! All functions are pure and allocation-conscious; the decompositions
//! reuse caller-provided buffers where it matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod dist;
mod ranges;

pub use curve::HilbertCurve;
pub use dist::min_dist2_to_range;
pub use ranges::{
    merge_ranges, narrow_ranges_to_circle_coarse_into, narrow_ranges_to_circle_into,
    ranges_in_cell_rect, ranges_in_circle_with_dist_into, ranges_in_rect, refine_circle_path_into,
    DistRange, HcRange,
};
