//! Cross-client decomposition sharing for fleet workloads.
//!
//! A fleet of concurrent clients (see `dsi_sim::fleet`) running the same
//! window query from different tune-in instants all begin with the same
//! pure computation: decomposing the window into its HC target segments
//! via [`dsi_hilbert::ranges_in_rect`]. The decomposition depends only on
//! the query rectangle (the curve and grid are fixed per broadcast), so a
//! fleet shard can compute it once and share it across every co-located
//! client. kNN queries get the same effect at a coarser granularity: the
//! fleet engine coalesces identical kNN queries into *cohorts* that share
//! the entire drive — circle decompositions and candidate tables
//! included — so no kNN-specific cache is needed here.
//!
//! [`ShareCache`] is that memo table. It is **opt-in and thread-scoped**:
//! a worker installs an [`Arc<ShareCache>`] via [`install`] (usually one
//! cache shared by all workers of a fleet run), and every
//! [`crate::DsiAir::window_query`] on that thread consults it. With no
//! cache installed the query computes the decomposition directly, as
//! before — single-query paths pay one thread-local read and nothing
//! else.
//!
//! # Determinism
//!
//! The cache memoizes a *pure function* keyed by the exact rectangle
//! bits, so a hit returns bit-identical segments to the miss path and
//! query outcomes cannot depend on cache state or on which worker warmed
//! an entry. The hit/miss *counters* are the one exception: under
//! concurrent misses of the same key both workers compute (last insert
//! wins, values are identical), so counter totals may vary by a few
//! units across runs with more than one worker. Outcomes never do.
//!
//! The map is a `BTreeMap` (not a hash map) per the repo's `dsi-lint`
//! `hash` rule: no hash-ordered container in golden-affecting library
//! paths.

// Synchronization goes through the `interleave` shims (pure `std`
// re-exports in normal builds) so the `dsi-model` suite can explore the
// concurrent insert/hit interleavings under `--cfg dsi_model`.
// dsi-lint: lock-order: windows
use interleave::sync::atomic::{AtomicU64, Ordering};
use interleave::sync::Mutex;
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

/// A shared memo table of window-segment decompositions, scoped to one
/// broadcast (callers must not reuse a cache across different
/// curve/grid pairs; the fleet engine creates one per run).
#[derive(Debug, Default)]
pub struct ShareCache {
    windows: Mutex<BTreeMap<RectKey, Arc<Vec<HcRange>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShareCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups that returned a previously computed decomposition.
    pub fn window_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute (and then published the result).
    pub fn window_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The shared decomposition of `rect`, computing and publishing it on
    /// first sight.
    pub fn window_segments(
        &self,
        curve: &HilbertCurve,
        mapper: &GridMapper,
        rect: &Rect,
    ) -> Arc<Vec<HcRange>> {
        let key = rect_key(rect);
        if let Some(hit) = self.windows.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Compute outside the lock: a concurrent miss of the same key
        // duplicates pure work instead of serializing all workers.
        let segments = Arc::new(ranges_in_rect(curve, mapper, rect));
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.windows
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::clone(&segments))
            .clone()
    }
}

thread_local! {
    /// The cache consulted by this thread's window queries, if any.
    static INSTALLED: RefCell<Option<Arc<ShareCache>>> = const { RefCell::new(None) };
}

/// Installs `cache` as this thread's decomposition memo (or clears it
/// with `None`), returning the previously installed cache. Fleet workers
/// install one shared cache before their first granule; plain query
/// paths never need to call this.
pub fn install(cache: Option<Arc<ShareCache>>) -> Option<Arc<ShareCache>> {
    INSTALLED.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), cache))
}

/// The window-segment decomposition of `rect`: through this thread's
/// installed [`ShareCache`] when one is present (shared, memoized),
/// computed directly otherwise. Bit-identical either way.
pub(crate) fn window_segments(
    curve: &HilbertCurve,
    mapper: &GridMapper,
    rect: &Rect,
) -> Vec<HcRange> {
    let cached = INSTALLED.with(|slot| {
        slot.borrow()
            .as_ref()
            .map(|cache| cache.window_segments(curve, mapper, rect))
    });
    match cached {
        Some(shared) => shared.as_ref().clone(),
        None => ranges_in_rect(curve, mapper, rect),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DsiAir;
    use crate::config::DsiConfig;
    use dsi_datagen::{uniform, SpatialDataset};

    #[test]
    fn cached_segments_are_bit_identical_and_counted() {
        let ds = SpatialDataset::build(&uniform(300, 11), 9);
        let air = DsiAir::build(&ds, DsiConfig::paper_default());
        let rect = Rect::new(0.1, 0.2, 0.6, 0.7);
        let direct = ranges_in_rect(air.curve(), air.mapper(), &rect);

        let cache = Arc::new(ShareCache::new());
        let prev = install(Some(Arc::clone(&cache)));
        assert!(prev.is_none());
        let first = window_segments(air.curve(), air.mapper(), &rect);
        let second = window_segments(air.curve(), air.mapper(), &rect);
        install(None);

        assert_eq!(first, direct);
        assert_eq!(second, direct);
        assert_eq!(cache.window_misses(), 1);
        assert_eq!(cache.window_hits(), 1);

        // With the cache uninstalled, lookups bypass it entirely.
        let third = window_segments(air.curve(), air.mapper(), &rect);
        assert_eq!(third, direct);
        assert_eq!(cache.window_hits(), 1);
    }

    #[test]
    fn install_returns_previous_cache() {
        let a = Arc::new(ShareCache::new());
        let b = Arc::new(ShareCache::new());
        assert!(install(Some(Arc::clone(&a))).is_none());
        let prev = install(Some(b)).expect("a was installed");
        assert!(Arc::ptr_eq(&prev, &a));
        install(None);
    }
}
