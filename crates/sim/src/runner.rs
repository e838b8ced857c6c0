//! Seeded, parallel, validated query batches.
//!
//! [`run_query_batch`] is the single batch path: any [`Engine`] (scheme ×
//! channel configuration), any [`Query`] list, any loss model. The window
//! and kNN entry points are thin workload adapters over it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use dsi_broadcast::{AntennaConfig, LossModel, MeanStats, Query, QueryOutcome};
use dsi_datagen::SpatialDataset;
use dsi_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;

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
#[derive(Debug, Clone)]
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

fn aggregate(outcomes: Vec<QueryOutcome>) -> BatchResult {
    let mut m = MeanStats::default();
    let mut switches = 0u64;
    let mut lost = 0u64;
    let mut max_stall = 0u64;
    let mut retunes = 0u64;
    let channels = outcomes
        .first()
        .map_or(1, |o| o.channels.tuning_packets.len());
    let mut per_channel = vec![0.0f64; channels];
    let n = outcomes.len().max(1) as f64;
    for o in &outcomes {
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

/// Ground truth for one query.
fn brute(dataset: &SpatialDataset, q: &Query) -> Vec<u32> {
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
        .map(|qi| opts.seed ^ (qi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    run_query_batch_at(engine, dataset, queries, &starts, &seeds, opts)
}

/// [`run_query_batch`] with the per-query tune-in instants and loss seeds
/// pinned by the caller instead of derived from `opts.seed`, so a caller
/// can drive a chosen population (a fleet's [`crate::Population`], say)
/// through the classic one-drive-loop-per-client path.
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
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(queries.len().max(1));
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
    let failed = std::thread::scope(|scope| {
        let workers: Vec<_> = queries
            .chunks(chunk)
            .zip(outcomes.chunks_mut(chunk))
            .enumerate()
            .map(|(ci, (qs, out))| {
                scope.spawn(move || -> Result<(), Box<dyn Any + Send>> {
                    for (i, q) in qs.iter().enumerate() {
                        let qi = ci * chunk + i;
                        out[i] = Some(catch_unwind(AssertUnwindSafe(|| {
                            let o = engine.drive_antennas(
                                starts[qi],
                                opts.loss.clone(),
                                seeds[qi],
                                opts.antennas,
                                q,
                            );
                            if opts.validate {
                                assert_eq!(
                                    o.ids,
                                    brute(dataset, q),
                                    "answer mismatch on query {qi}"
                                );
                            }
                            o
                        }))?);
                    }
                    Ok(())
                })
            })
            .collect();
        // Chunks are contiguous in query order and each stops at its
        // first failing query, so the first failing chunk holds the
        // lowest one whatever the schedule. (The scope itself would
        // re-raise a worker panic as a bare "a scoped thread panicked".)
        workers
            .into_iter()
            .find_map(|w| w.join().unwrap_or_else(Err).err())
    });
    if let Some(payload) = failed {
        resume_unwind(payload);
    }
    aggregate(
        outcomes
            .into_iter()
            .map(|o| o.expect("worker ran"))
            .collect(),
    )
}

/// Runs a window-query batch; validates against [`SpatialDataset::brute_window`].
pub fn run_window_batch(
    engine: &Engine,
    dataset: &SpatialDataset,
    windows: &[Rect],
    opts: &BatchOptions,
) -> BatchResult {
    let queries: Vec<Query> = windows.iter().map(|w| Query::Window(*w)).collect();
    run_query_batch(engine, dataset, &queries, opts)
}

/// Runs a kNN batch; validates against [`SpatialDataset::brute_knn`].
pub fn run_knn_batch(
    engine: &Engine,
    dataset: &SpatialDataset,
    queries: &[Point],
    k: usize,
    opts: &BatchOptions,
) -> BatchResult {
    let queries: Vec<Query> = queries.iter().map(|q| Query::Knn(*q, k)).collect();
    run_query_batch(engine, dataset, &queries, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheme;
    use crate::{uniform_dataset_n, EVAL_ORDER};
    use dsi_broadcast::ChannelConfig;
    use dsi_datagen::{knn_points, uniform, window_queries};

    #[test]
    fn batches_are_deterministic_and_validated() {
        let ds = uniform_dataset_n(250);
        let e = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
        let ws = window_queries(12, 0.2, 3);
        let opts = BatchOptions::default();
        let a = run_window_batch(&e, &ds, &ws, &opts);
        let b = run_window_batch(&e, &ds, &ws, &opts);
        assert_eq!(a.latency_bytes, b.latency_bytes);
        assert_eq!(a.tuning_bytes, b.tuning_bytes);
        assert_eq!(a.queries, 12);
        assert!(a.latency_bytes >= a.tuning_bytes);
        // Single channel: no switches, all tuning on channel 0.
        assert_eq!(a.mean_switches, 0.0);
        assert_eq!(a.per_channel_tuning_bytes.len(), 1);
        assert!((a.per_channel_tuning_bytes[0] - a.tuning_bytes).abs() < 1e-6);
    }

    #[test]
    fn batch_panic_names_the_lowest_failing_query() {
        // An engine built on one dataset, validated against another: its
        // answers mismatch.
        let ds = uniform_dataset_n(250);
        let other = SpatialDataset::build(&uniform(250, 7), EVAL_ORDER);
        let e = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
        let ws = window_queries(12, 0.2, 3);
        let message = || {
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_window_batch(&e, &other, &ws, &BatchOptions::default())
            }))
            .expect_err("a validation mismatch must panic");
            err.downcast_ref::<String>()
                .expect("the query's own assert payload")
                .clone()
        };
        let first = message();
        assert!(first.contains("answer mismatch on query "), "{first}");
        assert_eq!(
            first,
            message(),
            "the surfaced panic is schedule-independent"
        );
    }

    #[test]
    fn knn_batch_runs_under_loss() {
        let ds = uniform_dataset_n(200);
        let e = Engine::build(Scheme::Hci, &ds, 64);
        let qs = knn_points(6, 9);
        let opts = BatchOptions {
            loss: LossModel::iid(0.3),
            ..BatchOptions::default()
        };
        let r = run_knn_batch(&e, &ds, &qs, 5, &opts);
        assert_eq!(r.queries, 6);
    }

    #[test]
    fn mixed_query_batch_reports_channel_stats() {
        let ds = uniform_dataset_n(200);
        let e = Engine::build_channels(
            Scheme::dsi_reorganized(64),
            &ds,
            64,
            ChannelConfig::index_data(2, 1, 1),
        );
        let mut queries: Vec<Query> = window_queries(4, 0.2, 3)
            .into_iter()
            .map(Query::Window)
            .collect();
        queries.extend(knn_points(4, 9).into_iter().map(|q| Query::Knn(q, 5)));
        let r = run_query_batch(&e, &ds, &queries, &BatchOptions::default());
        assert_eq!(r.queries, 8);
        assert_eq!(r.per_channel_tuning_bytes.len(), 2);
        assert!(r.mean_switches > 0.0, "split channels force switches");
        let total: f64 = r.per_channel_tuning_bytes.iter().sum();
        assert!((total - r.tuning_bytes).abs() < 1e-6);
    }
}
