//! The fleet engine: thousands-to-millions of concurrent broadcast
//! clients advanced with one pass over the cycle, instead of one full
//! drive loop per client.
//!
//! # Why a fleet engine
//!
//! The paper's core economic argument is that a broadcast cycle serves an
//! *unbounded* listener population at constant server cost. A query batch
//! ([`crate::run_query_batch`]) gives every query its own full drive, so
//! simulating N clients with it costs N drives, even though most of them
//! are, from the channel's point of view, the same drive. Both run on
//! this module's parallel map; the fleet exploits exactly the property
//! the paper sells, in three phases: settle every cohort before any
//! thread starts, drive each cohort once, then fill the per-client
//! columns.
//!
//! 1. **Structure-of-arrays population and a cohort table.** Client state
//!    lives in flat parallel arrays ([`Population`]: query index, tune-in
//!    instant, loss seed; [`FleetOutcomes`]: one column per metric), not
//!    in N client objects. Under a lossless single-channel broadcast a
//!    client's outcome is a pure function of `(query, first scheduled
//!    action)`, and every scheme reports that first action via
//!    [`Engine::tune_anchor`]. Before spawning, `run_fleet` gives every
//!    client a cohort id, its `(anchor, query)` pair numbered in order of
//!    first appearance, so each cohort's representative is its lowest
//!    client id. Lossy or multi-channel populations degrade gracefully:
//!    every client is its own cohort, same code path, no sharing.
//! 2. **Granules from a shared cursor.** The cohort ids go through the
//!    crate's one parallel map, `dispatch` (the query batches run on it
//!    too): contiguous id ranges sized from the cohort count alone, claimed
//!    from one atomic cursor, and the lowest failing granule's panic (a
//!    failed validation) re-raised after every join. A granule drives each
//!    of its cohorts' representatives once and returns one compact record
//!    per cohort; records come back per granule, in cohort order.
//! 3. **Column assembly in client order.** One sequential pass per column
//!    over the clients in id order fills [`FleetOutcomes`]: every member
//!    gets its cohort's answers, tuning, switches and channel stats, and
//!    its own access latency `end − start` from the shared absolute
//!    trajectory (the paper's free-rider premise made computational).
//! 4. **Shared decompositions.** Before spawning, `run_fleet` decomposes
//!    every distinct window its representatives will drive into one
//!    immutable [`dsi_core::share::ShareCache`], and every granule installs
//!    that one table on its worker's thread (never the caller's thread),
//!    so representatives of *different* cohorts running the same window
//!    query share its HC-segment decomposition. Workers only read it.
//!    Identical kNN queries already share circle decompositions and
//!    candidate tables wholesale through their cohort representative.
//!
//! The cursor, the spawns and the joins go through the `interleave`
//! shims, so `dsi-model` explores this dispatch's schedules under
//! `--cfg dsi_model`. It is the only place dsi-sim starts threads.
//!
//! # Determinism contract
//!
//! For a fixed [`FleetSpec`], [`run_fleet`] returns bit-identical
//! [`FleetOutcomes`] for every worker count, equal to the sequential
//! oracle's ([`run_fleet_oracle`], a plain per-client drive loop):
//! cohorts and granules are fixed before any thread runs, and the columns
//! are filled from the records in client order. Every [`FleetStats`]
//! counter, the window-table ones included, is a pure function of the
//! engine and the spec as well; only the wall-clock rates vary run to run,
//! and they are reported for observability only. The differential suite
//! (`crates/sim/tests/fleet_differential`) pins the contract across
//! scheme × placement × antennas × loss × worker count.

use std::any::Any;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dsi_broadcast::{AntennaConfig, ChannelStats, LossModel, Query, QueryStats};
use dsi_core::share;
use dsi_datagen::SpatialDataset;
use interleave::sync::atomic::{AtomicUsize, Ordering};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Engine;
use crate::runner::{ground_truth, query_seed};

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
            seed.push(query_seed(spec.seed, i));
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

/// Population-level fleet counters. Every count is a pure function of
/// the engine and the [`FleetSpec`]; only the wall-clock rates are
/// measurements. Population distributions are read from the returned
/// [`FleetOutcomes`].
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Clients simulated.
    pub clients: usize,
    /// Drive loops actually executed: one per cohort, so the number of
    /// distinct `(tune anchor, query)` pairs when the fleet coalesces and
    /// `clients` otherwise.
    pub drives: usize,
    /// Clients served from a cohort representative's trajectory
    /// (`clients − drives`).
    pub coalesced: usize,
    /// Granules the cohorts were cut into: contiguous cohort-id ranges of
    /// `(drives / 256).clamp(8, 8192)` cohorts each.
    pub granules: usize,
    /// Clients completed per wall second of the engine pass (population
    /// derivation through outcome assembly).
    pub clients_per_sec: f64,
    /// Tuner read events *served* per wall second, across the population
    /// (the per-client cost a per-client simulator would pay).
    pub events_per_sec: f64,
    /// Representative window drives served from the run's decomposition
    /// table beyond the first drive of each window: DSI's window drives
    /// less [`FleetStats::window_cache_misses`]. The R-tree and HCI never
    /// consult the table and report 0.
    pub window_cache_hits: u64,
    /// Distinct windows decomposed into the run's table before any worker
    /// started; 0 for the R-tree and HCI, whose table is empty.
    pub window_cache_misses: u64,
}

/// Inputs every fleet granule reads.
struct Shared {
    engine: Engine,
    /// The dataset answers are checked against, if [`FleetSpec::validate`].
    truth: Option<Arc<SpatialDataset>>,
    pool: Vec<Query>,
    pop: Population,
    /// Each cohort's representative, its lowest client id.
    reps: Vec<u32>,
    loss: LossModel,
    antennas: AntennaConfig,
    keep_ids: bool,
    keep_channels: bool,
}

/// One cohort's shared trajectory, as its representative drove it.
struct Record {
    /// The absolute instant the trajectory ends (`start + latency` of the
    /// representative).
    end: u64,
    stats: QueryStats,
    switches: u64,
    /// Kept only when [`FleetSpec::keep_ids`] asks for them.
    ids: Option<Vec<u32>>,
    /// Kept only when [`FleetSpec::keep_channels`] asks for them.
    channels: Option<ChannelStats>,
}

/// A seedless multiply-rotate hasher (FxHash's mix) for the cohort
/// table's keys: a million lookups per pass cost a few nanoseconds each
/// instead of SipHash's tens. The keys are anchor instants and anchor
/// and pool indices the engine derives, never outside input.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Ids of keys, numbered in order of arrival.
type Numbering = HashMap<u64, u32, BuildHasherDefault<FxHasher>>;

/// The id `map` gives `key`, numbering an unseen key next.
fn number(map: &mut Numbering, key: u64) -> u32 {
    let next = map.len() as u32;
    *map.entry(key).or_insert(next)
}

/// Phase 1, the cohort table: each client's cohort id and each cohort's
/// representative. When the fleet coalesces (lossless, and every
/// populated instant has a tune anchor), a cohort is an `(anchor, query)`
/// pair; cohorts are numbered in order of first appearance, so the first
/// client seen, the lowest id, represents its cohort. Otherwise every
/// client is its own cohort. Only keyed lookups touch the hash maps, so
/// their iteration order never shows.
fn cohorts(engine: &Engine, loss: &LossModel, pop: &Population) -> (Vec<u32>, Vec<u32>) {
    let own = || {
        let ids: Vec<u32> = (0..pop.len() as u32).collect();
        (ids.clone(), ids)
    };
    if !matches!(loss, LossModel::None) {
        return own();
    }
    // Anchor number per tune-in instant, derived on the instant's first
    // client.
    let mut anchor_of = vec![u32::MAX; engine.cycle_packets() as usize];
    let (mut anchors, mut pairs) = (Numbering::default(), Numbering::default());
    let mut of = Vec::with_capacity(pop.len());
    let mut reps = Vec::new();
    for (c, (&start, &query)) in pop.start.iter().zip(&pop.query).enumerate() {
        let slot = &mut anchor_of[start as usize];
        if *slot == u32::MAX {
            let Some(anchor) = engine.tune_anchor(start) else {
                return own();
            };
            *slot = number(&mut anchors, anchor);
        }
        let k = number(&mut pairs, u64::from(*slot) << 32 | u64::from(query));
        if k as usize == reps.len() {
            reps.push(c as u32);
        }
        of.push(k);
    }
    (of, reps)
}

/// Phase 2, one granule: drives the representatives of the cohorts
/// `cohorts` and returns their records, in cohort order. Pure function of
/// its inputs — granule results do not depend on scheduling.
fn run_granule(shared: &Shared, cohorts: Range<usize>) -> Vec<Record> {
    shared.reps[cohorts]
        .iter()
        .map(|&rep| {
            let c = rep as usize;
            let query = &shared.pool[shared.pop.query[c] as usize];
            let start = shared.pop.start[c];
            let outcome = shared.engine.drive_antennas(
                start,
                shared.loss.clone(),
                shared.pop.seed[c],
                shared.antennas,
                query,
            );
            if let Some(ds) = &shared.truth {
                assert_eq!(
                    outcome.ids,
                    ground_truth(ds, query),
                    "fleet answer mismatch (client {rep})"
                );
            }
            Record {
                end: start + outcome.stats.latency_packets,
                stats: outcome.stats,
                switches: outcome.channels.switches,
                ids: shared.keep_ids.then_some(outcome.ids),
                channels: shared.keep_channels.then_some(outcome.channels),
            }
        })
        .collect()
}

/// Items per granule for a map over `n` items: sized from the item count
/// alone, so the task structure is independent of the worker count. The
/// floor of 8 keeps small maps (a batch of a few dozen queries, a fleet
/// of a few hundred cohorts) spread over every worker.
pub(crate) fn granule_len(n: usize) -> usize {
    (n / 256).clamp(8, 8192)
}

/// The crate's one parallel map: cuts items `0..n` into granules of
/// [`granule_len`] contiguous items, runs `job` on each granule on
/// `min(workers, granules)` threads (`workers == 0` means the host's
/// available parallelism) that claim granule indices from one atomic
/// cursor until the list runs out, and returns each granule's results,
/// in item order. The caller's thread runs no job.
///
/// A panicking job ends its worker; once every worker has exited, the
/// panic of the lowest-index failing granule is re-raised unchanged, so
/// which panic surfaces does not depend on the schedule.
pub(crate) fn dispatch<T, F>(n: usize, workers: usize, job: F) -> Vec<Vec<T>>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> Vec<T> + Send + Sync + 'static,
{
    let granule = granule_len(n);
    let granules = n.div_ceil(granule);
    let workers = match workers {
        0 => interleave::thread::available_parallelism().map_or(1, |w| w.get()),
        w => w,
    };
    let next = Arc::new(AtomicUsize::new(0));
    let job = Arc::new(job);
    let handles: Vec<_> = (0..workers.min(granules))
        .map(|_| {
            let (next, job) = (Arc::clone(&next), Arc::clone(&job));
            interleave::thread::spawn(move || {
                let mut outs = Vec::new();
                loop {
                    // Relaxed: the cursor publishes no data. The job's
                    // inputs were published to this thread by its spawn.
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= granules {
                        return Ok(outs);
                    }
                    let items = g * granule..n.min((g + 1) * granule);
                    match catch_unwind(AssertUnwindSafe(|| job(items))) {
                        Ok(part) => outs.push((g, part)),
                        Err(payload) => return Err((g, payload)),
                    }
                }
            })
        })
        .collect();

    // Parts land by granule index: which worker ran a granule cannot
    // affect the result. A panic outside any granule ranks last.
    let mut parts: Vec<Vec<T>> = Vec::new();
    parts.resize_with(granules, Vec::new);
    let mut failed: Option<(usize, Box<dyn Any + Send>)> = None;
    for handle in handles {
        match handle.join().unwrap_or_else(|p| Err((usize::MAX, p))) {
            Ok(outs) => {
                for (g, part) in outs {
                    parts[g] = part;
                }
            }
            Err((g, payload)) => {
                if failed.as_ref().is_none_or(|(first, _)| g < *first) {
                    failed = Some((g, payload));
                }
            }
        }
    }
    if let Some((_, payload)) = failed {
        resume_unwind(payload);
    }
    parts
}

/// One outcome column in client order: `field` of each client's cohort
/// record, gathered from a per-cohort copy of the field (a few hundred
/// kilobytes at most when the fleet coalesces, so it stays in cache).
fn column(of: &[u32], records: &[&Record], field: impl Fn(&Record) -> u64) -> Vec<u64> {
    let by_cohort: Vec<u64> = records.iter().map(|r| field(r)).collect();
    of.iter().map(|&k| by_cohort[k as usize]).collect()
}

/// Runs a fleet: derives the population and its cohort table, drives
/// the cohorts' representatives granule by granule on the crate's
/// parallel map, and fills the per-client outcome columns plus population
/// stats. See the module docs for the determinism contract.
///
/// # Panics
///
/// With the panic of the lowest-index granule that failed (a validation
/// mismatch names its client), re-raised unchanged after every worker
/// has exited.
pub fn run_fleet(
    engine: &Engine,
    dataset: Option<&Arc<SpatialDataset>>,
    spec: &FleetSpec,
) -> (FleetStats, FleetOutcomes) {
    assert!(
        !spec.validate || dataset.is_some(),
        "fleet validation needs the dataset"
    );
    let t0 = Instant::now();
    let pop = Population::derive(spec, engine.cycle_packets());
    let n = pop.len();
    let (of, reps) = cohorts(engine, &spec.loss, &pop);

    // Every window the representatives will drive, decomposed once into
    // the run's table before any worker starts.
    let windows: Vec<_> = reps
        .iter()
        .filter_map(|&rep| match &spec.pool[pop.query[rep as usize] as usize] {
            Query::Window(w) => Some(w),
            Query::Knn(..) => None,
        })
        .collect();
    let table = Arc::new(engine.window_table(windows.iter().copied()));
    // DSI decomposes every window, so each window drive beyond a window's
    // first is a hit; the trees' table is empty and serves none.
    let (window_cache_hits, window_cache_misses) = match table.len() {
        0 => (0, 0),
        n => ((windows.len() - n) as u64, n as u64),
    };
    let shared = Arc::new(Shared {
        engine: engine.clone(),
        truth: dataset.filter(|_| spec.validate).map(Arc::clone),
        pool: spec.pool.clone(),
        pop,
        reps,
        loss: spec.loss.clone(),
        antennas: spec.antennas,
        keep_ids: spec.keep_ids,
        keep_channels: spec.keep_channels,
    });
    let inputs = Arc::clone(&shared);
    let parts = dispatch(shared.reps.len(), spec.workers, move |cohorts| {
        share::install(Some(Arc::clone(&table)));
        run_granule(&inputs, cohorts)
    });
    let records: Vec<&Record> = parts.iter().flatten().collect();

    // Phase 3: the columns, each one sequential pass in client order. A
    // member's latency is `end − its own start` (the representative's
    // own latency for the representative itself). The only case with
    // `end < start` is a query that answers instantly (empty target set,
    // latency 0 at every start), where saturation yields exactly the
    // member's own 0.
    let ends: Vec<u64> = records.iter().map(|r| r.end).collect();
    let outcomes = FleetOutcomes {
        latency: of
            .iter()
            .zip(&shared.pop.start)
            .map(|(&k, &start)| ends[k as usize].saturating_sub(start))
            .collect(),
        tuning: column(&of, &records, |r| r.stats.tuning_packets),
        lost: column(&of, &records, |r| r.stats.lost_packets),
        longest_stall: column(&of, &records, |r| r.stats.longest_stall_packets),
        loss_retunes: column(&of, &records, |r| r.stats.loss_retunes),
        switches: column(&of, &records, |r| r.switches),
        capacity: records.first().map_or(0, |r| r.stats.capacity),
        ids: spec.keep_ids.then(|| {
            of.iter()
                .map(|&k| records[k as usize].ids.clone().unwrap_or_default())
                .collect()
        }),
        channels: spec.keep_channels.then(|| {
            of.iter()
                .map(|&k| records[k as usize].channels.clone().unwrap_or_default())
                .collect()
        }),
    };
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let served_events: u64 = outcomes.tuning.iter().sum();
    let stats = FleetStats {
        clients: n,
        drives: records.len(),
        coalesced: n - records.len(),
        granules: parts.len(),
        clients_per_sec: n as f64 / wall,
        events_per_sec: served_events as f64 / wall,
        window_cache_hits,
        window_cache_misses,
    };
    (stats, outcomes)
}

/// The sequential oracle: every client driven individually, no workers,
/// no coalescing, no decomposition table — the reference the fleet engine
/// must match bit for bit. Returns the same [`FleetOutcomes`] columns.
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
            assert_eq!(o.ids, ground_truth(ds, query), "oracle answer mismatch");
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
    use crate::{uniform_dataset_n, EVAL_ORDER};
    use dsi_datagen::{knn_points, uniform, window_queries};
    use dsi_geom::Rect;
    use std::sync::mpsc;
    use std::time::Duration;

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

    /// Each scheme, at several worker counts, equals the sequential
    /// oracle: a lossless fleet coalesces, a lossy one drives every client.
    #[test]
    fn fleet_matches_oracle_at_every_worker_count() {
        let ds = Arc::new(uniform_dataset_n(250));
        for (scheme, loss) in [
            (Scheme::dsi_reorganized(64), LossModel::None),
            (Scheme::RTree, LossModel::None),
            (Scheme::Hci, LossModel::iid(0.2)),
        ] {
            let engine = Engine::build(scheme, &ds, 64);
            let lossy = !matches!(loss, LossModel::None);
            let mut spec = FleetSpec {
                loss,
                ..small_spec(240)
            };
            let oracle = run_fleet_oracle(&engine, Some(&ds), &spec);
            for workers in [1, 2, 5] {
                spec.workers = workers;
                let (stats, outcomes) = run_fleet(&engine, Some(&ds), &spec);
                assert_eq!(outcomes, oracle, "{} at {workers} workers", scheme.name());
                assert_eq!((stats.clients, stats.drives + stats.coalesced), (240, 240));
                assert_eq!(stats.drives == 240, lossy, "{}", scheme.name());
            }
        }
    }

    #[test]
    fn granule_panic_propagates_unchanged_at_every_worker_count() {
        // An engine built on one dataset, validated against another: its
        // representatives' answers mismatch.
        let ds = Arc::new(uniform_dataset_n(250));
        let other = Arc::new(SpatialDataset::build(&uniform(250, 7), EVAL_ORDER));
        let engine = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
        let mut messages = Vec::new();
        for workers in [1usize, 2] {
            let spec = FleetSpec {
                workers,
                ..small_spec(240)
            };
            let (engine, other) = (engine.clone(), Arc::clone(&other));
            let (tx, rx) = mpsc::channel();
            let caller = std::thread::spawn(move || {
                let run =
                    catch_unwind(AssertUnwindSafe(|| run_fleet(&engine, Some(&other), &spec)));
                let _ = tx.send(run.map(|_| ()));
            });
            let payload = rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("run_fleet hung at {workers} workers"))
                .expect_err("a validation mismatch must panic");
            caller.join().expect("the caller thread caught the panic");
            let msg = payload
                .downcast_ref::<String>()
                .expect("the granule's own assert payload")
                .clone();
            assert!(msg.contains("fleet answer mismatch (client "), "{msg}");
            messages.push(msg);
        }
        assert_eq!(
            messages[0], messages[1],
            "the surfaced panic is worker-count-independent"
        );
    }

    #[test]
    fn zero_client_fleet_is_empty() {
        let ds = Arc::new(uniform_dataset_n(200));
        let engine = Engine::build(Scheme::Hci, &ds, 64);
        let (stats, outcomes) = run_fleet(&engine, Some(&ds), &small_spec(0));
        assert!(outcomes.is_empty());
        assert_eq!(
            outcomes,
            run_fleet_oracle(&engine, Some(&ds), &small_spec(0))
        );
        assert_eq!((stats.clients, stats.drives, stats.granules), (0, 0, 0));
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
