//! The core model-check scenarios for the fleet concurrency layer.
//!
//! Each scenario wraps the fleet's dispatch (`dsi_sim::fleet::run_fleet`
//! itself, not a copy) in [`interleave::explore`], explores every
//! schedule within the given preemption bound, and asserts the *same
//! outcome facts* hold in every one of them — outcomes equal to the
//! sequential oracle, the surfaced granule panic. The facts are exactly
//! the properties the fleet engine's `FleetOutcomes` merge relies on.
//!
//! The preemption bound is per-call so the CI job can run the fast
//! bound while local debugging cranks it up; see [`run_all`] for the
//! defaults each scenario is known to exhaust in seconds.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dsi_broadcast::Query;
use dsi_datagen::{knn_points, uniform, SpatialDataset};
use dsi_sim::fleet::{run_fleet, run_fleet_oracle, FleetSpec};
use dsi_sim::{uniform_dataset_n, Engine, Scheme, EVAL_ORDER};
use interleave::{explore, Report};

/// The outcome of one scenario run: the explorer's verdict plus the
/// set of distinct outcome facts observed across all schedules (a
/// singleton set is the determinism proof).
pub struct ScenarioReport {
    /// Scenario name, stable for CI log grepping.
    pub name: &'static str,
    /// Preemption bound the exploration ran under.
    pub bound: usize,
    /// The explorer's verdict: schedule count, completeness, the first
    /// violation and its counterexample schedule.
    pub report: Report,
    /// Distinct outcome facts across schedules (should be 1).
    pub distinct_outcomes: usize,
}

impl ScenarioReport {
    /// `true` when exploration exhausted the bounded state space with
    /// no violation and one outcome.
    pub fn is_clean(&self) -> bool {
        self.report.complete && self.report.violation.is_none() && self.distinct_outcomes == 1
    }

    /// Panics with a readable diagnosis unless [`ScenarioReport::is_clean`].
    pub fn assert_clean(&self) {
        self.report.assert_ok();
        assert_eq!(
            self.distinct_outcomes, 1,
            "{}: outcomes differ across schedules",
            self.name
        );
    }
}

/// Explores `f` under `bound`, collecting the outcome fact it returns
/// in every schedule.
fn scenario(name: &'static str, bound: usize, f: impl Fn() -> String) -> ScenarioReport {
    let outcomes = RefCell::new(BTreeSet::new());
    let report = explore(bound, || {
        let fact = f();
        outcomes.borrow_mut().insert(fact);
    });
    ScenarioReport {
        name,
        bound,
        report,
        distinct_outcomes: outcomes.into_inner().len(),
    }
}

/// A small lossless DSI fleet of kNN clients on two workers. The only
/// branch points are the dispatch's own (spawns, cursor claims, joins):
/// the decomposition table is built before the spawns and only read
/// after. The population is cut into at least three granules, so one
/// worker must claim twice.
fn knn_fleet() -> (Engine, Arc<SpatialDataset>, FleetSpec) {
    let ds = Arc::new(uniform_dataset_n(200));
    let engine = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
    let pool = knn_points(3, 5)
        .into_iter()
        .map(|p| Query::Knn(p, 3))
        .collect();
    let spec = FleetSpec {
        workers: 2,
        validate: true,
        keep_ids: true,
        ..FleetSpec::new(24, pool)
    };
    (engine, ds, spec)
}

/// The fleet's granule dispatch: two workers claiming granules from the
/// shared cursor must return outcomes equal to the sequential oracle,
/// and the same drive count, in every schedule.
pub fn fleet_knn_dispatch(bound: usize) -> ScenarioReport {
    let (engine, ds, spec) = knn_fleet();
    let oracle = run_fleet_oracle(&engine, Some(&ds), &spec);
    scenario("fleet_knn_dispatch", bound, || {
        let (stats, got) = run_fleet(&engine, Some(&ds), &spec);
        assert!(stats.granules >= 3, "only {} granules", stats.granules);
        assert!(got == oracle, "fleet outcomes differ from the oracle");
        format!("granules={} drives={}", stats.granules, stats.drives)
    })
}

/// A validation mismatch inside a granule: the fleet is validated
/// against a dataset it was not built on, so representatives' answers
/// mismatch. `run_fleet` must return (no deadlock) and re-raise the
/// lowest failing granule's own assert payload, the same one in every
/// schedule.
pub fn fleet_granule_panic(bound: usize) -> ScenarioReport {
    let (engine, _, spec) = knn_fleet();
    let other = Arc::new(SpatialDataset::build(&uniform(200, 7), EVAL_ORDER));
    scenario("fleet_granule_panic", bound, || {
        let run = catch_unwind(AssertUnwindSafe(|| run_fleet(&engine, Some(&other), &spec)));
        let payload = run.expect_err("a validation mismatch must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the granule's own assert payload");
        assert!(msg.contains("fleet answer mismatch (client "), "{msg}");
        msg.clone()
    })
}

/// Every scenario with the preemption bound its CI run uses.
pub fn run_all() -> Vec<ScenarioReport> {
    vec![fleet_knn_dispatch(3), fleet_granule_panic(3)]
}
