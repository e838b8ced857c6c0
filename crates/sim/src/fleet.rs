//! The fleet engine: thousands-to-millions of concurrent broadcast
//! clients advanced with one pass over the cycle, instead of one full
//! drive loop per client.
//!
//! # Why a fleet engine
//!
//! The paper's core economic argument is that a broadcast cycle serves an
//! *unbounded* listener population at constant server cost. The classic
//! harness path ([`crate::run_query_batch`]) simulates that population
//! one client at a time — N clients cost N full drive loops, even though
//! most of those loops are, from the channel's point of view, the same
//! loop. The fleet engine exploits exactly the property the paper sells:
//!
//! 1. **Structure-of-arrays population.** Client state lives in flat
//!    parallel arrays ([`Population`]: query index, tune-in instant, loss
//!    seed; [`FleetOutcomes`]: one column per metric), not in N client
//!    objects. A counting-sort **wake index** buckets clients by tune-in
//!    instant, so one ascending sweep of the cycle visits exactly the
//!    clients waiting at each instant.
//! 2. **Cohort coalescing.** Under a lossless single-channel broadcast a
//!    client's outcome is a pure function of `(query, first scheduled
//!    action)`. Every scheme reports that first action via
//!    [`Engine::tune_anchor`]; clients in the same wake region with equal
//!    anchor and equal query form a *cohort* that is driven **once**. The
//!    representative's absolute trajectory is shared: every member gets
//!    identical answers, tuning, switches and channel stats, and its own
//!    access latency `end − start` (the paper's free-rider premise made
//!    computational). Lossy or multi-channel populations degrade
//!    gracefully to per-client drives — same code path, no sharing.
//! 3. **Batched dispatch on a work-stealing pool.** The sweep is cut into
//!    deterministic granules (contiguous wake-index ranges that never
//!    split an anchor region), which are executed by the vendored `steal`
//!    pool. Granule boundaries are derived from the population only — not
//!    from the worker count — and results are merged by client index, so
//!    **outcomes are bit-identical for any worker count**, including the
//!    sequential oracle ([`run_fleet_oracle`], a plain per-client drive
//!    loop).
//! 4. **Shared decompositions.** Fleet workers install one
//!    [`dsi_core::share::ShareCache`], so representatives of *different*
//!    cohorts running the same window query share its HC-segment
//!    decomposition. Identical kNN queries already share circle
//!    decompositions and candidate tables wholesale through their cohort
//!    representative.
//!
//! # Determinism contract
//!
//! For a fixed [`FleetSpec`], [`run_fleet`] returns bit-identical
//! [`FleetOutcomes`] for every worker count, equal to the sequential
//! oracle's. Wall-clock figures and the share-cache hit/miss counters are
//! measurements, not outcomes: they vary run to run (concurrent misses of
//! the same key may both compute), and are reported for observability
//! only. The differential suite (`crates/sim/tests/fleet_differential`)
//! pins the contract across scheme × placement × antennas × loss ×
//! worker count.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use dsi_broadcast::{AntennaConfig, ChannelStats, LossModel, Query, QueryStats};
use dsi_core::share::{self, ShareCache};
use dsi_datagen::SpatialDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;

/// Multiplier of the per-query seed derivation, shared with
/// [`crate::run_query_batch`] so fleet populations and classic batches
/// agree on what "client `i` of master seed `s`" means.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One fleet scenario: a client population over a query pool.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Distinct queries clients draw from (the "hot set" of the
    /// workload). Client popularity over the pool follows `skew`.
    pub pool: Vec<Query>,
    /// Zipf exponent of pool popularity: `0.0` = uniform, `1.1` ≈ a
    /// flash-crowd where a few queries dominate.
    pub skew: f64,
    /// Link-error model handed to every client. Anything but
    /// [`LossModel::None`] disables cohort coalescing (loss draws are
    /// per-client), falling back to per-client drives.
    pub loss: LossModel,
    /// Receiver configuration handed to every client.
    pub antennas: AntennaConfig,
    /// Master seed; tune-in instants, pool draws and per-client loss
    /// seeds derive from it deterministically.
    pub seed: u64,
    /// Worker threads; `0` means the host's available parallelism.
    /// Outcomes are identical for every value (see the module docs).
    pub workers: usize,
    /// Cross-check every *representative* answer against brute force
    /// (members share the representative's answer by construction).
    pub validate: bool,
    /// Keep every client's answer ids in [`FleetOutcomes::ids`].
    pub keep_ids: bool,
    /// Keep every client's [`ChannelStats`] in [`FleetOutcomes::channels`].
    pub keep_channels: bool,
}

impl FleetSpec {
    /// A lossless single-antenna fleet of `clients` over `pool`, uniform
    /// popularity, validation and per-client result retention off.
    pub fn new(clients: usize, pool: Vec<Query>) -> Self {
        FleetSpec {
            clients,
            pool,
            skew: 0.0,
            loss: LossModel::None,
            antennas: AntennaConfig::single(),
            seed: 7,
            workers: 0,
            validate: false,
            keep_ids: false,
            keep_channels: false,
        }
    }
}

/// The derived client population, structure-of-arrays: column `i` of each
/// array is client `i`. A pure function of `(spec, cycle)`, shared by the
/// fleet engine and the sequential oracle so both drive the *same*
/// clients.
#[derive(Debug, Clone)]
pub struct Population {
    /// Index into [`FleetSpec::pool`] per client.
    pub query: Vec<u32>,
    /// Tune-in instant per client, in `[0, cycle)`.
    pub start: Vec<u64>,
    /// Loss seed per client (same derivation as [`crate::run_query_batch`]).
    pub seed: Vec<u64>,
}

impl Population {
    /// Derives the population of `spec` for a broadcast of `cycle`
    /// packets.
    pub fn derive(spec: &FleetSpec, cycle: u64) -> Self {
        assert!(!spec.pool.is_empty(), "fleet needs a non-empty query pool");
        assert!(cycle > 0, "empty broadcast cycle");
        let mut rng = StdRng::seed_from_u64(spec.seed);
        // Zipf cumulative weights over pool ranks: w_r ∝ 1/(r+1)^skew.
        let cum: Vec<f64> = spec
            .pool
            .iter()
            .enumerate()
            .scan(0.0f64, |acc, (rank, _)| {
                *acc += 1.0 / ((rank + 1) as f64).powf(spec.skew);
                Some(*acc)
            })
            .collect();
        let total = *cum.last().expect("non-empty pool");
        let mut query = Vec::with_capacity(spec.clients);
        let mut start = Vec::with_capacity(spec.clients);
        let mut seed = Vec::with_capacity(spec.clients);
        for i in 0..spec.clients {
            start.push(rng.gen_range(0..cycle));
            // A uniform draw in [0, total) via 53 random mantissa bits.
            let u = (rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64) * total;
            let qi = cum.partition_point(|&c| c <= u).min(spec.pool.len() - 1);
            query.push(qi as u32);
            seed.push(spec.seed ^ (i as u64).wrapping_mul(SEED_MIX));
        }
        Population { query, start, seed }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.query.len()
    }

    /// `true` for an empty population.
    pub fn is_empty(&self) -> bool {
        self.query.is_empty()
    }
}

/// Per-client results, structure-of-arrays (column `i` = client `i`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcomes {
    /// Access latency, packets.
    pub latency: Vec<u64>,
    /// Tuning time, packets.
    pub tuning: Vec<u64>,
    /// Reads lost to the link-error model.
    pub lost: Vec<u64>,
    /// Longest loss stall, packets.
    pub longest_stall: Vec<u64>,
    /// Retunes forced by loss bursts.
    pub loss_retunes: Vec<u64>,
    /// Channel switches.
    pub switches: Vec<u64>,
    /// Packet capacity the program was built with (byte conversion).
    pub capacity: u32,
    /// Answer ids per client, if [`FleetSpec::keep_ids`] was set.
    pub ids: Option<Vec<Vec<u32>>>,
    /// Channel stats per client, if [`FleetSpec::keep_channels`] was set.
    pub channels: Option<Vec<ChannelStats>>,
}

impl FleetOutcomes {
    fn with_capacity(n: usize, capacity: u32, keep_ids: bool, keep_channels: bool) -> Self {
        FleetOutcomes {
            latency: vec![0; n],
            tuning: vec![0; n],
            lost: vec![0; n],
            longest_stall: vec![0; n],
            loss_retunes: vec![0; n],
            switches: vec![0; n],
            capacity,
            ids: keep_ids.then(|| vec![Vec::new(); n]),
            channels: keep_channels.then(|| vec![ChannelStats::default(); n]),
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.latency.len()
    }

    /// `true` for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.latency.is_empty()
    }

    /// Client `i`'s stats, reassembled in the classic per-query shape.
    pub fn stats_of(&self, i: usize) -> QueryStats {
        QueryStats {
            latency_packets: self.latency[i],
            tuning_packets: self.tuning[i],
            capacity: self.capacity,
            lost_packets: self.lost[i],
            longest_stall_packets: self.longest_stall[i],
            loss_retunes: self.loss_retunes[i],
        }
    }
}

/// Population-level fleet counters. `clients`, `drives` and `coalesced`
/// are deterministic; wall-clock rates and cache counters are
/// measurements. Population distributions are read from the returned
/// [`FleetOutcomes`].
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Clients simulated.
    pub clients: usize,
    /// Drive loops actually executed (cohort representatives).
    pub drives: usize,
    /// Clients served from a cohort representative's trajectory.
    pub coalesced: usize,
    /// Clients completed per wall second of the engine pass (population
    /// derivation through outcome assembly).
    pub clients_per_sec: f64,
    /// Tuner read events *served* per wall second, across the population
    /// (the per-client cost a per-client simulator would pay).
    pub events_per_sec: f64,
    /// Window decompositions served from the share cache.
    pub window_cache_hits: u64,
    /// Window decompositions computed (then published).
    pub window_cache_misses: u64,
}

/// Ground truth for one query.
fn brute(dataset: &SpatialDataset, q: &Query) -> Vec<u32> {
    match q {
        Query::Window(w) => dataset.brute_window(w),
        Query::Knn(p, k) => dataset.brute_knn(*p, *k),
    }
}

/// Inputs shared by every granule task.
struct Shared {
    engine: Arc<Engine>,
    dataset: Option<Arc<SpatialDataset>>,
    pool: Vec<Query>,
    pop: Population,
    /// Client ids sorted by (start instant, id) — the wake index order.
    order: Vec<u32>,
    /// Coalescing anchor per cycle instant (`u64::MAX` where unused or
    /// coalescing is off).
    anchor: Vec<u64>,
    coalesce: bool,
    loss: LossModel,
    antennas: AntennaConfig,
    validate: bool,
    keep_ids: bool,
    keep_channels: bool,
}

/// One client's result row, sent back from a granule task.
struct Row {
    client: u32,
    stats: QueryStats,
    switches: u64,
    ids: Option<Vec<u32>>,
    channels: Option<ChannelStats>,
}

/// One granule's output.
struct GranuleOut {
    rows: Vec<Row>,
    drives: usize,
    coalesced: usize,
}

/// Drives the clients of `order[lo..hi]`: groups them into cohorts (when
/// coalescing), drives one representative per cohort, and fans the shared
/// trajectory out to the members. Pure function of its inputs — granule
/// results do not depend on scheduling.
fn run_granule(shared: &Shared, lo: usize, hi: usize) -> GranuleOut {
    // (cohort key, query, client): sorting groups cohorts; client id
    // ascending within a cohort makes the lowest id the representative.
    let mut items: Vec<(u64, u32, u32)> = shared.order[lo..hi]
        .iter()
        .map(|&c| {
            let key = if shared.coalesce {
                shared.anchor[shared.pop.start[c as usize] as usize]
            } else {
                c as u64 // unique key: every client its own cohort
            };
            (key, shared.pop.query[c as usize], c)
        })
        .collect();
    items.sort_unstable();

    let mut out = GranuleOut {
        rows: Vec::with_capacity(hi - lo),
        drives: 0,
        coalesced: 0,
    };
    let mut i = 0;
    while i < items.len() {
        let (key, qidx, rep) = items[i];
        let mut j = i + 1;
        while j < items.len() && items[j].0 == key && items[j].1 == qidx {
            j += 1;
        }
        let query = &shared.pool[qidx as usize];
        let rep_start = shared.pop.start[rep as usize];
        let outcome = shared.engine.drive_antennas(
            rep_start,
            shared.loss.clone(),
            shared.pop.seed[rep as usize],
            shared.antennas,
            query,
        );
        out.drives += 1;
        if let Some(ds) = &shared.dataset {
            if shared.validate {
                assert_eq!(
                    outcome.ids,
                    brute(ds, query),
                    "fleet answer mismatch (client {rep})"
                );
            }
        }
        // The cohort's shared trajectory ends at this absolute instant;
        // each member's latency is `end − its own start` (equal to the
        // representative's for the representative itself). The only case
        // with `end < start` is a query that answers instantly (empty
        // target set, latency 0 at every start), where saturation yields
        // exactly the member's own 0.
        let end = rep_start + outcome.stats.latency_packets;
        for &(_, _, member) in &items[i..j] {
            let m_start = shared.pop.start[member as usize];
            debug_assert!(end >= m_start || outcome.stats.latency_packets == 0);
            out.rows.push(Row {
                client: member,
                stats: QueryStats {
                    latency_packets: if member == rep {
                        outcome.stats.latency_packets
                    } else {
                        end.saturating_sub(m_start)
                    },
                    ..outcome.stats
                },
                switches: outcome.channels.switches,
                ids: shared.keep_ids.then(|| outcome.ids.clone()),
                channels: shared.keep_channels.then(|| outcome.channels.clone()),
            });
        }
        out.coalesced += j - i - 1;
        i = j;
    }
    out
}

/// Runs a fleet: derives the population, builds the wake index, cuts it
/// into anchor-aligned granules, executes them on the work-stealing pool,
/// and assembles per-client outcomes plus population stats. See the
/// module docs for the determinism contract.
pub fn run_fleet(
    engine: &Arc<Engine>,
    dataset: Option<&Arc<SpatialDataset>>,
    spec: &FleetSpec,
) -> (FleetStats, FleetOutcomes) {
    assert!(
        !spec.validate || dataset.is_some(),
        "fleet validation needs the dataset"
    );
    let t0 = Instant::now();
    let cycle = engine.cycle_packets();
    let pop = Population::derive(spec, cycle);
    let n = pop.len();

    // Wake index: counting sort of clients by tune-in instant (stable in
    // client id, so cohort representatives are reproducible).
    let mut counts = vec![0u32; cycle as usize + 1];
    for &s in &pop.start {
        counts[s as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let offsets = counts; // prefix sums: bucket b = order[offsets[b]..offsets[b+1]]
    let mut cursor = offsets.clone();
    let mut order = vec![0u32; n];
    for c in 0..n {
        let b = pop.start[c] as usize;
        order[cursor[b] as usize] = c as u32;
        cursor[b] += 1;
    }

    // Coalescing anchors per populated instant. Any `None` anchor (e.g. a
    // multi-channel program) or a lossy model disables coalescing.
    let mut coalesce = matches!(spec.loss, LossModel::None);
    let mut anchor = vec![u64::MAX; cycle as usize];
    if coalesce {
        'outer: for b in 0..cycle as usize {
            if offsets[b] == offsets[b + 1] {
                continue;
            }
            match engine.tune_anchor(b as u64) {
                Some(a) => anchor[b] = a,
                None => {
                    coalesce = false;
                    break 'outer;
                }
            }
        }
    }

    // Granules: contiguous wake-index ranges, preferentially cut where
    // the anchor changes (so cohorts rarely straddle a cut — a straddle
    // would only cost an extra representative drive, never correctness),
    // sized from the population alone so the task structure is
    // independent of the worker count.
    let target = (n / 256).clamp(32, 8192);
    let mut granules: Vec<(usize, usize)> = Vec::new();
    {
        let mut lo = 0usize;
        let mut at = 0usize; // wake-index position before instant `b`
        let mut prev_anchor = u64::MAX;
        for b in 0..cycle as usize {
            let next = offsets[b + 1] as usize;
            if next == at {
                continue;
            }
            // Cut before instant `b` once the granule is full, waiting
            // for an anchor change when coalescing (cohorts are anchor
            // runs in wake order, so this keeps them whole).
            if at - lo >= target && (!coalesce || anchor[b] != prev_anchor) {
                granules.push((lo, at));
                lo = at;
            }
            prev_anchor = anchor[b];
            at = next;
        }
        if lo < n {
            granules.push((lo, n));
        }
    }

    let workers = if spec.workers == 0 {
        std::thread::available_parallelism().map_or(1, |w| w.get())
    } else {
        spec.workers
    };
    let cache = Arc::new(ShareCache::new());
    let shared = Arc::new(Shared {
        engine: Arc::clone(engine),
        dataset: dataset.map(Arc::clone),
        pool: spec.pool.clone(),
        pop,
        order,
        anchor,
        coalesce,
        loss: spec.loss.clone(),
        antennas: spec.antennas,
        validate: spec.validate,
        keep_ids: spec.keep_ids,
        keep_channels: spec.keep_channels,
    });

    let hook_cache = Arc::clone(&cache);
    let pool = steal::Builder::new()
        .workers(workers)
        .on_thread_start(move || {
            share::install(Some(Arc::clone(&hook_cache)));
        })
        .build();
    let batch = pool.batch();
    let (tx, rx) = mpsc::channel::<GranuleOut>();
    for &(lo, hi) in &granules {
        let shard = Arc::clone(&shared);
        let tx = tx.clone();
        batch.spawn(move || {
            let out = run_granule(&shard, lo, hi);
            let _ = tx.send(out);
        });
    }
    drop(tx);
    batch.join();
    drop(pool);

    // Merge keyed by client id: arrival order of granule outputs cannot
    // affect the assembled columns.
    let mut outcomes = FleetOutcomes::with_capacity(n, 0, spec.keep_ids, spec.keep_channels);
    let mut drives = 0usize;
    let mut coalesced = 0usize;
    for g in rx.iter() {
        drives += g.drives;
        coalesced += g.coalesced;
        for row in g.rows {
            let i = row.client as usize;
            outcomes.capacity = row.stats.capacity;
            outcomes.latency[i] = row.stats.latency_packets;
            outcomes.tuning[i] = row.stats.tuning_packets;
            outcomes.lost[i] = row.stats.lost_packets;
            outcomes.longest_stall[i] = row.stats.longest_stall_packets;
            outcomes.loss_retunes[i] = row.stats.loss_retunes;
            outcomes.switches[i] = row.switches;
            if let (Some(ids), Some(row_ids)) = (&mut outcomes.ids, row.ids) {
                ids[i] = row_ids;
            }
            if let (Some(chs), Some(row_ch)) = (&mut outcomes.channels, row.channels) {
                chs[i] = row_ch;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let served_events: u64 = outcomes.tuning.iter().sum();
    let stats = FleetStats {
        clients: n,
        drives,
        coalesced,
        clients_per_sec: n as f64 / wall,
        events_per_sec: served_events as f64 / wall,
        window_cache_hits: cache.window_hits(),
        window_cache_misses: cache.window_misses(),
    };
    (stats, outcomes)
}

/// The sequential oracle: every client driven individually, no pool, no
/// coalescing, no share cache — the reference the fleet engine must match
/// bit for bit. Returns the same [`FleetOutcomes`] columns.
pub fn run_fleet_oracle(
    engine: &Engine,
    dataset: Option<&SpatialDataset>,
    spec: &FleetSpec,
) -> FleetOutcomes {
    let cycle = engine.cycle_packets();
    let pop = Population::derive(spec, cycle);
    let mut out = FleetOutcomes::with_capacity(pop.len(), 0, spec.keep_ids, spec.keep_channels);
    for c in 0..pop.len() {
        let query = &spec.pool[pop.query[c] as usize];
        let o = engine.drive_antennas(
            pop.start[c],
            spec.loss.clone(),
            pop.seed[c],
            spec.antennas,
            query,
        );
        if spec.validate {
            let ds = dataset.expect("oracle validation needs the dataset");
            assert_eq!(o.ids, brute(ds, query), "oracle answer mismatch");
        }
        out.capacity = o.stats.capacity;
        out.latency[c] = o.stats.latency_packets;
        out.tuning[c] = o.stats.tuning_packets;
        out.lost[c] = o.stats.lost_packets;
        out.longest_stall[c] = o.stats.longest_stall_packets;
        out.loss_retunes[c] = o.stats.loss_retunes;
        out.switches[c] = o.channels.switches;
        if let Some(ids) = &mut out.ids {
            ids[c] = o.ids;
        }
        if let Some(chs) = &mut out.channels {
            chs[c] = o.channels;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheme;
    use crate::uniform_dataset_n;
    use dsi_datagen::{knn_points, window_queries};
    use dsi_geom::Rect;

    fn small_spec(clients: usize) -> FleetSpec {
        let mut pool: Vec<Query> = window_queries(4, 0.2, 9)
            .into_iter()
            .map(Query::Window)
            .collect();
        pool.extend(knn_points(4, 5).into_iter().map(|p| Query::Knn(p, 3)));
        FleetSpec {
            skew: 1.1,
            validate: true,
            keep_ids: true,
            keep_channels: true,
            ..FleetSpec::new(clients, pool)
        }
    }

    #[test]
    fn fleet_matches_oracle_and_coalesces() {
        let ds = Arc::new(uniform_dataset_n(300));
        let engine = Arc::new(Engine::build(Scheme::dsi_reorganized(64), &ds, 64));
        let spec = small_spec(400);
        let (stats, outcomes) = run_fleet(&engine, Some(&ds), &spec);
        let oracle = run_fleet_oracle(&engine, Some(&ds), &spec);
        assert_eq!(outcomes, oracle);
        assert_eq!(stats.clients, 400);
        assert!(stats.drives < 400, "lossless fleet must coalesce");
        assert_eq!(stats.drives + stats.coalesced, 400);
    }

    #[test]
    fn worker_counts_do_not_change_outcomes() {
        let ds = Arc::new(uniform_dataset_n(250));
        let engine = Arc::new(Engine::build(Scheme::RTree, &ds, 64));
        let mut spec = small_spec(240);
        spec.workers = 1;
        let (_, w1) = run_fleet(&engine, Some(&ds), &spec);
        spec.workers = 2;
        let (_, w2) = run_fleet(&engine, Some(&ds), &spec);
        spec.workers = 5;
        let (_, w5) = run_fleet(&engine, Some(&ds), &spec);
        assert_eq!(w1, w2);
        assert_eq!(w1, w5);
    }

    #[test]
    fn lossy_fleet_disables_coalescing_and_matches_oracle() {
        let ds = Arc::new(uniform_dataset_n(200));
        let engine = Arc::new(Engine::build(Scheme::Hci, &ds, 64));
        let mut spec = small_spec(120);
        spec.loss = LossModel::iid(0.2);
        let (stats, outcomes) = run_fleet(&engine, Some(&ds), &spec);
        assert_eq!(stats.drives, 120, "lossy clients cannot share trajectories");
        assert_eq!(outcomes, run_fleet_oracle(&engine, Some(&ds), &spec));
    }

    #[test]
    fn population_is_deterministic_and_zipf_skewed() {
        let spec = FleetSpec {
            skew: 1.2,
            ..FleetSpec::new(
                5_000,
                (0..8)
                    .map(|i| Query::Window(Rect::new(0.0, 0.0, 0.1 + 0.1 * i as f64, 0.5)))
                    .collect(),
            )
        };
        let a = Population::derive(&spec, 997);
        let b = Population::derive(&spec, 997);
        assert_eq!(a.query, b.query);
        assert_eq!(a.start, b.start);
        assert_eq!(a.seed, b.seed);
        assert!(a.start.iter().all(|&s| s < 997));
        let rank0 = a.query.iter().filter(|&&q| q == 0).count();
        let rank7 = a.query.iter().filter(|&&q| q == 7).count();
        assert!(
            rank0 > 2 * rank7,
            "zipf skew must favour low ranks ({rank0} vs {rank7})"
        );
    }
}
