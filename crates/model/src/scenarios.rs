//! The core model-check scenarios for the fleet concurrency layer.
//!
//! Each scenario wraps the fleet's dispatch (`dsi_sim::fleet::run_fleet`
//! itself, not a copy) or one `dsi_core::share` pattern in
//! [`crate::check::check`], explores every schedule within the given
//! preemption bound, and asserts the *same outcome facts* hold in every
//! one of them — outcomes equal to the sequential oracle, the surfaced
//! granule panic, cache bit-identity. The facts are exactly the
//! properties the fleet engine's `FleetOutcomes` merge relies on.
//!
//! The preemption bound is per-call so the CI job can run the fast
//! bound while local debugging cranks it up; see [`run_all`] for the
//! defaults each scenario is known to exhaust in seconds.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dsi_broadcast::Query;
use dsi_core::share::ShareCache;
use dsi_datagen::{knn_points, uniform, SpatialDataset};
use dsi_geom::{GridMapper, Point, Rect};
use dsi_hilbert::{ranges_in_rect, HilbertCurve};
use dsi_sim::fleet::{run_fleet, run_fleet_oracle, FleetSpec};
use dsi_sim::{uniform_dataset_n, Engine, Scheme, EVAL_ORDER};
use interleave::Options;

use crate::check::{check, CheckReport};

/// The outcome of one scenario run: the check verdict plus the set of
/// distinct outcome facts observed across all schedules (a singleton
/// set is the determinism proof).
pub struct ScenarioReport {
    /// Scenario name, stable for CI log grepping.
    pub name: &'static str,
    /// Preemption bound the exploration ran under.
    pub bound: usize,
    /// The combined explorer + analyzer verdict.
    pub check: CheckReport,
    /// Distinct outcome facts across schedules (should be 1).
    pub distinct_outcomes: usize,
}

impl ScenarioReport {
    /// Panics unless the exploration was exhaustive, violation-free,
    /// race-free, cycle-free and outcome-deterministic.
    pub fn assert_clean(&self) {
        self.check.assert_clean();
        assert_eq!(
            self.distinct_outcomes, 1,
            "{}: outcomes differ across schedules",
            self.name
        );
    }
}

fn report(
    name: &'static str,
    bound: usize,
    check: CheckReport,
    outcomes: BTreeSet<String>,
) -> ScenarioReport {
    ScenarioReport {
        name,
        bound,
        check,
        distinct_outcomes: outcomes.len(),
    }
}

/// A small lossless DSI fleet of kNN clients on two workers: kNN
/// drives take no share-cache lock, so the only branch points are the
/// dispatch's own (spawns, cursor claims, joins). The population is cut
/// into at least three granules, so one worker must claim twice.
fn knn_fleet() -> (Arc<Engine>, Arc<SpatialDataset>, FleetSpec) {
    let ds = Arc::new(uniform_dataset_n(200));
    let engine = Arc::new(Engine::build(Scheme::dsi_reorganized(64), &ds, 64));
    let pool = knn_points(3, 5)
        .into_iter()
        .map(|p| Query::Knn(p, 3))
        .collect();
    let spec = FleetSpec {
        workers: 2,
        validate: true,
        keep_ids: true,
        ..FleetSpec::new(100, pool)
    };
    (engine, ds, spec)
}

/// The fleet's granule dispatch: two workers claiming granules from the
/// shared cursor must return outcomes equal to the sequential oracle,
/// and the same drive count, in every schedule.
pub fn fleet_knn_dispatch(bound: usize) -> ScenarioReport {
    let (engine, ds, spec) = knn_fleet();
    let oracle = run_fleet_oracle(&engine, Some(&ds), &spec);
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let (stats, got) = run_fleet(&engine, Some(&ds), &spec);
        assert!(stats.granules >= 3, "only {} granules", stats.granules);
        assert!(got == oracle, "fleet outcomes differ from the oracle");
        outcomes.borrow_mut().insert(format!(
            "granules={} drives={}",
            stats.granules, stats.drives
        ));
    });
    report("fleet_knn_dispatch", bound, check, outcomes.into_inner())
}

/// A validation mismatch inside a granule: the fleet is validated
/// against a dataset it was not built on, so representatives' answers
/// mismatch. `run_fleet` must return (no deadlock) and re-raise the
/// lowest failing granule's own assert payload, the same one in every
/// schedule.
pub fn fleet_granule_panic(bound: usize) -> ScenarioReport {
    let (engine, _, spec) = knn_fleet();
    let other = Arc::new(SpatialDataset::build(&uniform(200, 7), EVAL_ORDER));
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let run = catch_unwind(AssertUnwindSafe(|| run_fleet(&engine, Some(&other), &spec)));
        let payload = run.expect_err("a validation mismatch must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the granule's own assert payload");
        assert!(msg.contains("fleet answer mismatch (client "), "{msg}");
        outcomes.borrow_mut().insert(msg.clone());
    });
    report("fleet_granule_panic", bound, check, outcomes.into_inner())
}

/// Concurrent share-cache insert/hit: two threads resolving the same
/// window rectangle must observe bit-identical segments (equal to the
/// direct computation) and coherent hit/miss counters in every
/// schedule, with no lockset race anywhere in the cache.
pub fn share_cache_insert_hit(bound: usize) -> ScenarioReport {
    let curve = HilbertCurve::new(3);
    let mapper = GridMapper::new(Point { x: 0.0, y: 0.0 }, 1.0, 3);
    let rect = Rect::new(0.2, 0.2, 0.7, 0.6);
    let expected = Arc::new(ranges_in_rect(&curve, &mapper, &rect));
    let outcomes: RefCell<BTreeSet<String>> = RefCell::new(BTreeSet::new());
    let check = check(&Options::with_bound(bound), || {
        let cache = Arc::new(ShareCache::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let curve = curve.clone();
                let rect = rect;
                interleave::thread::spawn(move || cache.window_segments(&curve, &mapper, &rect))
            })
            .collect();
        for h in workers {
            let got = h.join().expect("cache worker panicked");
            assert_eq!(
                *got, *expected,
                "cache returned segments differing from the direct computation"
            );
        }
        let (hits, misses) = (cache.window_hits(), cache.window_misses());
        assert_eq!(hits + misses, 2, "each lookup is a hit or a miss");
        assert!(misses >= 1, "someone computed the entry");
        outcomes
            .borrow_mut()
            .insert("segments=bit-identical".to_string());
    });
    report(
        "share_cache_insert_hit",
        bound,
        check,
        outcomes.into_inner(),
    )
}

/// Every scenario with the preemption bound its CI run uses.
pub fn run_all() -> Vec<ScenarioReport> {
    vec![
        fleet_knn_dispatch(3),
        fleet_granule_panic(3),
        share_cache_insert_hit(3),
    ]
}
