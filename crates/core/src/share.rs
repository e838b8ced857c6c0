//! Cross-client decomposition sharing for fleet workloads.
//!
//! A fleet of concurrent clients (see `dsi_sim::fleet`) running the same
//! window query from different tune-in instants all begin with the same
//! pure computation: decomposing the window into its HC target segments
//! via [`dsi_hilbert::ranges_in_rect`]. The decomposition depends only on
//! the query rectangle (the curve and grid are fixed per broadcast), and
//! every window a fleet will drive is in its query pool, known before any
//! worker starts. So the fleet decomposes each distinct window once, up
//! front, into an immutable [`ShareCache`] that every worker reads. kNN
//! queries get the same effect at a coarser granularity: the fleet engine
//! coalesces identical kNN queries into *cohorts* that share the entire
//! drive — circle decompositions and candidate tables included — so no
//! kNN-specific table is needed here.
//!
//! The table is **opt-in and thread-scoped**: a worker installs an
//! [`Arc<ShareCache>`] via [`install`] (one table shared by all workers of
//! a fleet run), and every [`crate::DsiAir::window_query`] on that thread
//! takes the table's entry for its window. A window the table does not
//! hold, or a thread with no table installed, computes the decomposition
//! directly — single-query paths pay one thread-local read and nothing
//! else.
//!
//! # Determinism
//!
//! The table holds a *pure function* keyed by the exact rectangle bits,
//! filled before it is shared and never written after, so an entry is
//! bit-identical to the direct computation and query outcomes cannot
//! depend on which worker reads it.
//!
//! The map is a `BTreeMap` (not a hash map) per the repo's `dsi-lint`
//! `hash` rule: no hash-ordered container in golden-affecting library
//! paths.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use dsi_geom::{GridMapper, Rect};
use dsi_hilbert::{ranges_in_rect, HcRange, HilbertCurve};

/// Exact-bits key of a query rectangle.
type RectKey = [u64; 4];

fn rect_key(rect: &Rect) -> RectKey {
    [
        rect.min.x.to_bits(),
        rect.min.y.to_bits(),
        rect.max.x.to_bits(),
        rect.max.y.to_bits(),
    ]
}

/// An immutable table of window-segment decompositions, scoped to one
/// broadcast (callers must not reuse a table across different
/// curve/grid pairs; the fleet engine builds one per run).
#[derive(Debug, Default)]
pub struct ShareCache {
    windows: BTreeMap<RectKey, Arc<Vec<HcRange>>>,
}

impl ShareCache {
    /// An empty table: every lookup through it computes directly.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table of `rects`' decompositions on `curve` and `mapper`, each
    /// distinct rectangle decomposed once.
    pub fn from_windows<'a>(
        curve: &HilbertCurve,
        mapper: &GridMapper,
        rects: impl IntoIterator<Item = &'a Rect>,
    ) -> Self {
        let mut windows = BTreeMap::new();
        for rect in rects {
            windows
                .entry(rect_key(rect))
                .or_insert_with(|| Arc::new(ranges_in_rect(curve, mapper, rect)));
        }
        ShareCache { windows }
    }

    /// Distinct windows the table holds.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` when the table holds no window.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

thread_local! {
    /// The table consulted by this thread's window queries, if any.
    static INSTALLED: RefCell<Option<Arc<ShareCache>>> = const { RefCell::new(None) };
}

/// Installs `cache` as this thread's decomposition table (or clears it
/// with `None`), returning the previously installed table. Each fleet
/// granule installs the run's table on its worker's thread before it
/// drives; plain query paths never need to call this.
pub fn install(cache: Option<Arc<ShareCache>>) -> Option<Arc<ShareCache>> {
    INSTALLED.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), cache))
}

/// The window-segment decomposition of `rect`: the installed
/// [`ShareCache`]'s entry when it holds one (shared, a lookup copies
/// nothing), computed directly otherwise. Bit-identical either way.
pub(crate) fn window_segments(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    rect: &Rect,
) -> Arc<Vec<HcRange>> {
    INSTALLED
        .with(|slot| {
            let table = slot.borrow();
            table.as_ref()?.windows.get(&rect_key(rect)).cloned()
        })
        .unwrap_or_else(|| Arc::new(ranges_in_rect(curve, mapper, rect)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DsiAir;
    use crate::config::DsiConfig;
    use dsi_datagen::{uniform, SpatialDataset};

    #[test]
    fn table_entries_are_bit_identical_and_shared() {
        let ds = SpatialDataset::build(&uniform(300, 11), 9);
        let air = DsiAir::build(&ds, DsiConfig::paper_default());
        let (curve, mapper) = (air.curve(), air.mapper());
        let rect = Rect::new(0.1, 0.2, 0.6, 0.7);
        let other = Rect::new(0.3, 0.3, 0.4, 0.9);
        let direct = ranges_in_rect(curve, mapper, &rect);

        let table = Arc::new(ShareCache::from_windows(curve, mapper, [&rect, &rect]));
        assert_eq!(table.len(), 1, "one entry per distinct window");
        let prev = install(Some(Arc::clone(&table)));
        assert!(prev.is_none());
        let first = window_segments(curve, mapper, &rect);
        let second = window_segments(curve, mapper, &rect);
        // A window the table lacks is computed, not added.
        let missing = window_segments(curve, mapper, &other);
        install(None);

        assert_eq!(*first, direct);
        assert!(Arc::ptr_eq(&first, &second), "lookups share the entry");
        assert_eq!(*missing, ranges_in_rect(curve, mapper, &other));
        assert_eq!(table.len(), 1);

        // With the table uninstalled, lookups compute directly.
        let third = window_segments(curve, mapper, &rect);
        assert_eq!(*third, direct);
        assert!(!Arc::ptr_eq(&first, &third));
    }

    #[test]
    fn install_returns_previous_cache() {
        let a = Arc::new(ShareCache::new());
        let b = Arc::new(ShareCache::new());
        assert!(a.is_empty());
        assert!(install(Some(Arc::clone(&a))).is_none());
        let prev = install(Some(b)).expect("a was installed");
        assert!(Arc::ptr_eq(&prev, &a));
        install(None);
    }
}
