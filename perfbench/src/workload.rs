//! The three workloads and the inputs each one derives from its seed.
//!
//! Every generator — points, windows, kNN points, fleet populations,
//! tune-in instants and loss seeds — is keyed by the `--seed` argument
//! through [`stream`], so one seed fixes every input and the simulator
//! only ever receives the generated values.

use std::path::{Path, PathBuf};

use dsi_broadcast::{AntennaConfig, ChannelConfig, LossModel, Query};
use dsi_datagen::{load_points, uniform};
use dsi_geom::{GridMapper, Point, Rect};
use dsi_hilbert::HilbertCurve;
use dsi_sim::chaos::{bursty_channel, CHAOS_SWITCH_COST};
use dsi_sim::Scheme;

/// Packet capacity in bytes (the paper's default).
pub const CAPACITY: u32 = 64;
/// Neighbours per kNN query.
pub const K: usize = 10;
/// Window side as a share of the unit square's side.
pub const WINDOW_SIDE: f64 = 0.1;
/// Largest offset of a data-following query location from its site.
pub const JITTER: f64 = 0.005;
/// Hilbert order of every dataset ([`dsi_sim::EVAL_ORDER`]).
pub const ORDER: u8 = dsi_sim::EVAL_ORDER;

/// Seed streams: one per generator, so no two inputs share draws.
const POINTS: u64 = 1;
const WINDOWS: u64 = 2;
const KNN: u64 = 3;
const STARTS: u64 = 4;
const POPULATION: u64 = 5;
const JITTER_SALT: u64 = 0x4A17_7E55;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A million listeners over 16 hot DSI windows.
    WindowFleet,
    /// The paper's single-channel evaluation on all three schemes.
    PaperBatch,
    /// Bursty loss over four blocked channels with two antennas.
    LossyChannels,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WindowFleet,
        Workload::PaperBatch,
        Workload::LossyChannels,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WindowFleet => "window_fleet",
            Workload::PaperBatch => "paper_batch",
            Workload::LossyChannels => "lossy_channels",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How the timed section drives the queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// Each scheme's windows, then its kNN queries, through
    /// `run_query_batch_at`: every query is a full drive.
    Batch,
    /// One `run_fleet` per scheme over the query pool.
    Fleet {
        /// Clients per scheme.
        clients: usize,
        /// Zipf exponent of pool popularity.
        skew: f64,
    },
}

/// Everything a run simulates, derived from the workload and the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these are.
    pub workload: Workload,
    /// The seed every generator was keyed by.
    pub seed: u64,
    /// Dataset label for the report.
    pub dataset: &'static str,
    /// The point set (the set-up timer starts from here).
    pub points: Vec<Point>,
    /// Channel schedule of every engine.
    pub channels: ChannelConfig,
    /// Link-error model of every client.
    pub loss: LossModel,
    /// Receiver of every client.
    pub antennas: AntennaConfig,
    /// Schemes the timed section runs.
    pub schemes: Vec<Scheme>,
    /// Window queries (the fleet pool's windows, or the batch's).
    pub windows: Vec<Rect>,
    /// kNN query points (may be empty).
    pub knn: Vec<Point>,
    /// How the timed section drives them.
    pub driver: Driver,
}

/// The three schemes, each with its paper configuration at [`CAPACITY`].
pub fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::dsi_reorganized(CAPACITY),
        Scheme::RTree,
        Scheme::Hci,
    ]
}

/// Short lower-case scheme label used in metric names.
pub fn scheme_label(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Dsi(..) => "dsi",
        Scheme::RTree => "rtree",
        Scheme::Hci => "hci",
    }
}

/// The committed REAL point fixture.
pub fn real_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/fixtures/real_points.txt")
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of generator `stream` (salted by `index`) under `seed`.
pub fn stream(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)) ^ index)
}

/// A uniform draw in `[0, 1)`, the `i`-th of generator `seed`.
fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed ^ mix(i)) >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` locations stratified along the Hilbert curve, in seeded random
/// order (a fleet's Zipf ranks follow this order). With `sites`, location `i` is a random site among the `i`-th
/// of `n` equal runs of the sites in curve order, moved by at most
/// [`JITTER`]: the locations follow the data. Without, location `i` is a
/// random point of the `i`-th of `n` equal curve segments: uniform over
/// the unit square. Either way every seed samples the whole space
/// evenly, so a few draws cannot decide a run's cost.
pub fn stratified(n: usize, sites: Option<&[Point]>, seed: u64) -> Vec<Point> {
    let curve = HilbertCurve::new(ORDER);
    let grid = GridMapper::unit_square(ORDER);
    let strata = |len: u64| -> Vec<u64> {
        (0..n as u64)
            .map(|i| (((i as f64 + unit(seed, i)) / n as f64) * len as f64) as u64)
            .map(|x| x.min(len - 1))
            .collect()
    };
    let mut out: Vec<Point> = match sites {
        None => strata(curve.max_d() + 1)
            .into_iter()
            .map(|d| grid.cell_center(curve.d2xy(d)))
            .collect(),
        Some(sites) => {
            let mut by_curve: Vec<(u64, Point)> = sites
                .iter()
                .map(|&p| (curve.xy2d(grid.cell_of(p)), p))
                .collect();
            by_curve.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.x.total_cmp(&b.1.x)));
            strata(by_curve.len() as u64)
                .into_iter()
                .enumerate()
                .map(|(i, k)| {
                    let p = by_curve[k as usize].1;
                    let jitter =
                        |j: u64| (2.0 * unit(seed ^ JITTER_SALT, 2 * i as u64 + j) - 1.0) * JITTER;
                    Point::new(
                        (p.x + jitter(0)).clamp(0.0, 1.0),
                        (p.y + jitter(1)).clamp(0.0, 1.0),
                    )
                })
                .collect()
        }
    };
    shuffle(&mut out, mix(seed));
    out
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (mix(seed ^ mix(i as u64)) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Windows of side [`WINDOW_SIDE`] around `centres`. Without `sites`
/// the centres are first squeezed into `[side/2, 1 - side/2]`, so every
/// window lies whole in the unit square and covers the same area.
fn windows_at(centres: Vec<Point>, follow_data: bool) -> Vec<Rect> {
    let half = WINDOW_SIDE / 2.0;
    centres
        .into_iter()
        .map(|c| {
            let c = if follow_data {
                c
            } else {
                Point::new(
                    half + (1.0 - WINDOW_SIDE) * c.x,
                    half + (1.0 - WINDOW_SIDE) * c.y,
                )
            };
            Rect::window_in_unit_square(c, WINDOW_SIDE)
        })
        .collect()
}

/// One window of side [`WINDOW_SIDE`] inside each cell of the
/// `cells × cells` grid, at a random place, in seeded random order.
pub fn windows_in_cells(cells: u32, seed: u64) -> Vec<Rect> {
    let side = 1.0 / f64::from(cells);
    let slack = side - WINDOW_SIDE;
    let mut out: Vec<Rect> = (0..u64::from(cells * cells))
        .map(|i| {
            let (gx, gy) = ((i % u64::from(cells)) as f64, (i / u64::from(cells)) as f64);
            let c = Point::new(
                gx * side + WINDOW_SIDE / 2.0 + slack * unit(seed, 2 * i),
                gy * side + WINDOW_SIDE / 2.0 + slack * unit(seed, 2 * i + 1),
            );
            Rect::window_in_unit_square(c, WINDOW_SIDE)
        })
        .collect();
    shuffle(&mut out, mix(seed));
    out
}

/// `n` scaled by `scale`, never below `floor`.
fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

impl Inputs {
    /// Derives the inputs of `workload` from `seed`. `scale` shrinks
    /// dataset size, query counts and client counts for the benchmark's
    /// own tests; runs that report metrics use `1.0`.
    pub fn generate(workload: Workload, seed: u64, scale: f64) -> std::io::Result<Self> {
        let uniform_points = |n: usize| uniform(scaled(n, scale, 500), stream(seed, POINTS, 0));
        let windows = |n: usize, sites: Option<&[Point]>| {
            windows_at(
                stratified(n, sites, stream(seed, WINDOWS, 0)),
                sites.is_some(),
            )
        };
        let knn = |n: usize, sites: Option<&[Point]>| stratified(n, sites, stream(seed, KNN, 0));
        Ok(match workload {
            // Zipf(1.1) puts a third of the clients on one window. A window
            // across a coarse quadtree boundary reaches its objects at
            // distant points of the cycle (about 0.8 cycles of latency
            // against 0.55 inside a cell), so with free placement the hot
            // window's geometry would decide the air metrics.
            Workload::WindowFleet => Inputs {
                workload,
                seed,
                dataset: "UNIFORM",
                points: uniform_points(10_000),
                channels: ChannelConfig::single(),
                loss: LossModel::None,
                antennas: AntennaConfig::single(),
                schemes: vec![Scheme::dsi_reorganized(CAPACITY)],
                windows: windows_in_cells(4, stream(seed, WINDOWS, 0)),
                knn: Vec::new(),
                driver: Driver::Fleet {
                    clients: scaled(1_000_000, scale, 2_000),
                    skew: 1.1,
                },
            },
            Workload::PaperBatch => {
                let n = scaled(500, scale, 8);
                Inputs {
                    workload,
                    seed,
                    dataset: "UNIFORM",
                    points: uniform_points(10_000),
                    channels: ChannelConfig::single(),
                    loss: LossModel::None,
                    antennas: AntennaConfig::single(),
                    schemes: all_schemes(),
                    windows: windows(n, None),
                    knn: knn(n, None),
                    driver: Driver::Batch,
                }
            }
            Workload::LossyChannels => {
                // On clustered data, query locations follow the sites:
                // uniformly placed 10NN points in empty country make HCI's
                // two-phase search some 50x its usual cost, so a handful of
                // them would decide the run.
                let n = scaled(128, scale, 4);
                let points = load_points(&real_fixture())?;
                let windows = windows(n, Some(&points));
                let knn = knn(n, Some(&points));
                Inputs {
                    workload,
                    seed,
                    dataset: "REAL",
                    points,
                    channels: ChannelConfig::blocked(4, CHAOS_SWITCH_COST),
                    loss: bursty_channel(),
                    antennas: AntennaConfig::new(2),
                    schemes: all_schemes(),
                    windows,
                    knn,
                    driver: Driver::Fleet {
                        clients: scaled(1_000, scale, 64),
                        skew: 0.0,
                    },
                }
            }
        })
    }

    /// Windows followed by kNN queries: the fleet pool, or the batch.
    pub fn queries(&self) -> Vec<Query> {
        let mut q: Vec<Query> = self.windows.iter().map(|w| Query::Window(*w)).collect();
        q.extend(self.knn.iter().map(|p| Query::Knn(*p, K)));
        q
    }

    /// The master seed of scheme `i`'s fleet population.
    pub fn population_seed(&self, i: usize) -> u64 {
        stream(self.seed, POPULATION, i as u64)
    }

    /// Tune-in instant and loss seed of query `q` on scheme `i`, for a
    /// cycle of `cycle` packets.
    pub fn start_and_seed(&self, i: usize, q: usize, cycle: u64) -> (u64, u64) {
        let s = stream(self.seed, STARTS, ((i as u64) << 32) | q as u64);
        (s % cycle, mix(s))
    }

    /// Dataset size after loading or scaling.
    pub fn n(&self) -> usize {
        self.points.len()
    }
}
