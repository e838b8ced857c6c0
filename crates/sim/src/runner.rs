//! Seeded, parallel, validated query batches.
//!
//! [`run_query_batch`] is the single batch path: any [`Engine`] (scheme ×
//! channel configuration), any [`Query`] list, any loss model. The
//! experiment matrix ([`crate::run_matrix`]) runs every cell through it;
//! [`run_query_batch_at`] is the same loop with the tune-in instants and
//! loss seeds pinned by the caller. Both validate answers against
//! [`ground_truth`]. Queries run granule by granule on the crate's one
//! parallel map, in `crate::fleet`; this module starts no thread.

use std::sync::Arc;

use dsi_broadcast::{AntennaConfig, LossModel, MeanStats, Query, QueryOutcome};
use dsi_datagen::SpatialDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;
use crate::fleet::dispatch;

/// Batch configuration.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Link-error model handed to every client.
    pub loss: LossModel,
    /// Master seed (tune-in positions and per-query loss seeds derive from
    /// it deterministically).
    pub seed: u64,
    /// Cross-check every answer against brute force; panics on mismatch.
    pub validate: bool,
    /// Receiver configuration handed to every client.
    pub antennas: AntennaConfig,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            loss: LossModel::None,
            seed: 7,
            validate: true,
            antennas: AntennaConfig::single(),
        }
    }
}

/// Aggregated batch result (means over all queries, bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Mean access latency, bytes.
    pub latency_bytes: f64,
    /// Mean tuning time, bytes (all channels).
    pub tuning_bytes: f64,
    /// Number of queries.
    pub queries: u64,
    /// Mean channel switches per query.
    pub mean_switches: f64,
    /// Mean tuning time per channel, bytes (length = channel count).
    pub per_channel_tuning_bytes: Vec<f64>,
    /// Mean reads lost to the link-error model per query (retries).
    pub mean_lost_packets: f64,
    /// Longest loss stall of any query, in packets of broadcast time.
    pub max_stall_packets: u64,
    /// Mean retunes forced by loss bursts per query.
    pub mean_loss_retunes: f64,
}

/// Sums `outcomes`, per-granule parts in query order, into means.
fn aggregate(outcomes: &[Vec<QueryOutcome>]) -> BatchResult {
    let mut m = MeanStats::default();
    let mut switches = 0u64;
    let mut lost = 0u64;
    let mut max_stall = 0u64;
    let mut retunes = 0u64;
    let channels = outcomes
        .iter()
        .flatten()
        .next()
        .map_or(1, |o| o.channels.tuning_packets.len());
    let mut per_channel = vec![0.0f64; channels];
    let n = outcomes.iter().map(Vec::len).sum::<usize>().max(1) as f64;
    for o in outcomes.iter().flatten() {
        m.push(o.stats);
        switches += o.channels.switches;
        lost += o.stats.lost_packets;
        max_stall = max_stall.max(o.stats.longest_stall_packets);
        retunes += o.stats.loss_retunes;
        for (c, sum) in per_channel.iter_mut().enumerate() {
            *sum += o.channels.tuning_bytes(c) as f64 / n;
        }
    }
    BatchResult {
        latency_bytes: m.latency_bytes(),
        tuning_bytes: m.tuning_bytes(),
        queries: m.count(),
        mean_switches: switches as f64 / n,
        per_channel_tuning_bytes: per_channel,
        mean_lost_packets: lost as f64 / n,
        max_stall_packets: max_stall,
        mean_loss_retunes: retunes as f64 / n,
    }
}

/// The loss seed of query (or client) `i` under master seed `seed`. Every
/// per-query derivation goes through it, so batches, fleet populations
/// and the matrix's training drives agree on what "client `i` of master
/// seed `s`" means.
pub(crate) fn query_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The brute-force answer to `q` over `dataset` (ascending ids for a
/// window, nearest first for kNN): the ground truth every validated drive
/// is checked against.
pub fn ground_truth(dataset: &SpatialDataset, q: &Query) -> Vec<u32> {
    match q {
        Query::Window(w) => dataset.brute_window(w),
        Query::Knn(p, k) => dataset.brute_knn(*p, *k),
    }
}

/// Runs every query of `queries` through the engine's driver, in
/// parallel, with a deterministic (start, seed) pair per query;
/// optionally validates each answer against brute force.
pub fn run_query_batch(
    engine: &Engine,
    dataset: &SpatialDataset,
    queries: &[Query],
    opts: &BatchOptions,
) -> BatchResult {
    let cycle = engine.cycle_packets();
    // Pre-draw tune-in positions so parallelism cannot change them.
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let starts: Vec<u64> = (0..queries.len())
        .map(|_| rng.gen_range(0..cycle))
        .collect();
    let seeds: Vec<u64> = (0..queries.len())
        .map(|qi| query_seed(opts.seed, qi))
        .collect();
    run_query_batch_at(engine, dataset, queries, &starts, &seeds, opts)
}

/// [`run_query_batch`] with the per-query tune-in instants and loss seeds
/// pinned by the caller instead of derived from `opts.seed`, so a caller
/// can drive a chosen population (a fleet's [`crate::Population`], say)
/// with one full drive per query, nothing shared between them.
///
/// # Panics
///
/// With the panic of the lowest-index query that failed (a validation
/// mismatch names its query), re-raised unchanged after every worker has
/// exited, so which panic surfaces does not depend on the schedule.
pub fn run_query_batch_at(
    engine: &Engine,
    dataset: &SpatialDataset,
    queries: &[Query],
    starts: &[u64],
    seeds: &[u64],
    opts: &BatchOptions,
) -> BatchResult {
    assert_eq!(queries.len(), starts.len(), "one start per query");
    assert_eq!(queries.len(), seeds.len(), "one seed per query");
    let (engine, loss, antennas) = (engine.clone(), opts.loss.clone(), opts.antennas);
    let (queries, starts, seeds) = (queries.to_vec(), starts.to_vec(), seeds.to_vec());
    let truth = opts.validate.then(|| Arc::new(dataset.clone()));
    // Granules are contiguous in query order and each stops at its first
    // failing query, so the lowest failing granule holds the lowest
    // failing query whatever the schedule.
    let parts = dispatch(queries.len(), 0, move |items| {
        items
            .map(|qi| {
                let q = &queries[qi];
                let o = engine.drive_antennas(starts[qi], loss.clone(), seeds[qi], antennas, q);
                if let Some(ds) = &truth {
                    assert_eq!(o.ids, ground_truth(ds, q), "answer mismatch on query {qi}");
                }
                o
            })
            .collect()
    });
    aggregate(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheme;
    use crate::fleet::granule_len;
    use crate::matrix::WorkloadSpec;
    use crate::{uniform_dataset_n, EVAL_ORDER};
    use dsi_broadcast::ChannelConfig;
    use dsi_datagen::uniform;
    use dsi_geom::Point;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The formatted assert payload `run` panics with.
    fn panic_message(run: impl FnOnce() -> BatchResult) -> String {
        let err = catch_unwind(AssertUnwindSafe(run)).expect_err("the batch must panic");
        let payload = err.downcast_ref::<String>();
        payload.expect("a formatted assert payload").clone()
    }

    #[test]
    fn batches_are_deterministic_and_validated() {
        let ds = uniform_dataset_n(250);
        let e = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
        let ws = WorkloadSpec::Window { ratio: 0.2 }.queries(12, 3);
        let opts = BatchOptions::default();
        let a = run_query_batch(&e, &ds, &ws, &opts);
        let b = run_query_batch(&e, &ds, &ws, &opts);
        assert_eq!(a, b);
        assert_eq!(a.queries, 12);
        assert!(a.latency_bytes >= a.tuning_bytes);
        // Single channel: no switches, all tuning on channel 0.
        assert_eq!(a.mean_switches, 0.0);
        assert_eq!(a.per_channel_tuning_bytes.len(), 1);
        assert!((a.per_channel_tuning_bytes[0] - a.tuning_bytes).abs() < 1e-6);
    }

    /// Batches of 100 queries, 13 granules, each surface their lowest
    /// failing query's payload on every run: answers validated against a
    /// dataset the engine was not built on (failures in many granules),
    /// and non-finite queries planted in two granules (query 40's NaN,
    /// never query 80's infinity).
    #[test]
    fn batch_panic_names_the_lowest_failing_query() {
        let ds = uniform_dataset_n(250);
        let other = SpatialDataset::build(&uniform(250, 7), EVAL_ORDER);
        let e = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
        let windows = WorkloadSpec::Window { ratio: 0.2 }.queries(100, 3);
        // Exact answers: the first query the two datasets disagree on.
        let first = (0..100)
            .find(|&qi| ground_truth(&ds, &windows[qi]) != ground_truth(&other, &windows[qi]))
            .expect("the datasets disagree somewhere");
        let mut knn = WorkloadSpec::Knn { k: 3 }.queries(100, 9);
        let nan = Point::new(f64::NAN, 0.5);
        knn[40] = Query::Knn(nan, 3);
        knn[80] = Query::Knn(Point::new(0.5, f64::INFINITY), 3);
        assert_ne!(40 / granule_len(100), 80 / granule_len(100));
        let mismatch = format!("answer mismatch on query {first}\n");
        let non_finite = format!("3NN query at {nan:?} has a non-finite coordinate");
        for (truth, queries, expected) in [(&other, &windows, mismatch), (&ds, &knn, non_finite)] {
            let run = || run_query_batch(&e, truth, queries, &BatchOptions::default());
            let surfaced = panic_message(run);
            assert!(surfaced.contains(&expected), "{surfaced}");
            for _ in 0..3 {
                assert_eq!(surfaced, panic_message(run), "schedule-dependent panic");
            }
        }
    }

    /// 64 windows and 64 kNN queries, 16 granules, on split channels
    /// under loss: the batch equals the same drives run one by one and
    /// aggregated in query order.
    #[test]
    fn mixed_query_batch_equals_one_by_one_drives() {
        let ds = uniform_dataset_n(200);
        let split = ChannelConfig::index_data(2, 1, 1);
        let e = Engine::build_channels(Scheme::dsi_reorganized(64), &ds, 64, split);
        let mut queries = WorkloadSpec::Window { ratio: 0.1 }.queries(64, 3);
        queries.extend(WorkloadSpec::Knn { k: 5 }.queries(64, 9));
        assert_eq!(queries.len().div_ceil(granule_len(queries.len())), 16);
        let opts = BatchOptions {
            loss: LossModel::iid(0.2),
            ..BatchOptions::default()
        };
        let starts: Vec<u64> = (0..128).map(|i| i * 37 % e.cycle_packets()).collect();
        let seeds: Vec<u64> = (0..128).map(|i| query_seed(5, i)).collect();
        let r = run_query_batch_at(&e, &ds, &queries, &starts, &seeds, &opts);
        let (loss, antennas) = (&opts.loss, opts.antennas);
        let drive =
            |i: usize| e.drive_antennas(starts[i], loss.clone(), seeds[i], antennas, &queries[i]);
        assert_eq!(r, aggregate(&[(0..128).map(drive).collect()]));
        assert_eq!(r.per_channel_tuning_bytes.len(), 2);
        assert!(r.mean_switches > 0.0, "split channels force switches");
        let total: f64 = r.per_channel_tuning_bytes.iter().sum();
        assert!((total - r.tuning_bytes).abs() < 1e-6);
    }
}
