//! One function per paper artefact (figures 8–12, Table 1, the REAL
//! summaries, extension ablations) plus the multi-channel extension
//! scenarios.
//!
//! Every function is a selection of cells from the experiment matrix
//! ([`crate::matrix`]): it names schemes, channel configurations, loss
//! models and workloads, lets [`run_matrix`] drive the unified query loop
//! (validating all answers), and shapes the resulting cells like the
//! paper's panels: the x-axis in the first column, one series per curve.

use dsi_broadcast::{AntennaConfig, ChannelConfig, LossModel};
use dsi_core::{DsiConfig, KnnStrategy, ReorgStyle};
use dsi_datagen::{knn_points, window_queries, zipf_hotspot, SpatialDataset};

use crate::engine::{Engine, Scheme};
use crate::matrix::{cells_table, run_matrix, ChannelSpec, MatrixCell, MatrixSpec, WorkloadSpec};
use crate::runner::{run_knn_batch, run_window_batch, BatchOptions, BatchResult};
use crate::table::{fmt_bytes, fmt_pct, Table};
use crate::{env_knob, real_dataset, uniform_dataset, uniform_dataset_n};

/// Packet capacities swept by the paper (bytes).
pub const CAPACITIES: [u32; 5] = [32, 64, 128, 256, 512];
/// Capacities at which the R-tree exists (an internal entry does not fit a
/// 32-byte packet; paper §4).
pub const RTREE_CAPACITIES: [u32; 4] = [64, 128, 256, 512];
/// The paper's default window side ratio.
pub const DEFAULT_RATIO: f64 = 0.1;
/// The paper's default k.
pub const DEFAULT_K: usize = 10;
/// Channel-switch cost (packets) used by the multi-channel scenarios.
pub const SWITCH_COST: u32 = 2;
/// Hotspot parameters of the skewed scenario (shared between the dataset
/// and its query workload so queries follow the data).
pub const HOTSPOTS: (usize, f64, u64) = (32, 1.1, 77);

/// Global experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Queries per measured point.
    pub n_queries: usize,
    /// Dataset size (10,000 reproduces the paper; smaller for smoke runs).
    pub dataset_n: usize,
    /// Validate every answer against brute force.
    pub validate: bool,
}

impl ExpOptions {
    /// Paper-scale defaults, overridable via `DSI_QUERIES` / `DSI_N` /
    /// `DSI_VALIDATE` (`0` or `1`) environment variables.
    pub fn from_env() -> Self {
        let validate = match env_knob("DSI_VALIDATE", "1".to_string()).as_str() {
            "0" => false,
            "1" => true,
            v => panic!("DSI_VALIDATE={v:?} must be 0 or 1"),
        };
        Self {
            n_queries: env_knob("DSI_QUERIES", 200),
            dataset_n: env_knob("DSI_N", 10_000),
            validate,
        }
    }

    /// Tiny configuration for tests.
    pub fn smoke() -> Self {
        Self {
            n_queries: 6,
            dataset_n: 400,
            validate: true,
        }
    }

    fn dataset(&self) -> SpatialDataset {
        if self.dataset_n == 10_000 {
            uniform_dataset()
        } else {
            uniform_dataset_n(self.dataset_n)
        }
    }

    fn batch(&self) -> BatchOptions {
        BatchOptions {
            loss: LossModel::None,
            seed: 7,
            validate: self.validate,
            ..BatchOptions::default()
        }
    }

    /// A single-cell matrix spec: the per-experiment functions fill in the
    /// axes they sweep.
    fn spec(&self, capacity: u32) -> MatrixSpec {
        MatrixSpec {
            schemes: Vec::new(),
            capacity,
            channels: vec![("C1".into(), ChannelConfig::single().into())],
            antennas: Vec::new(),
            losses: vec![("lossless".into(), LossModel::None)],
            workloads: Vec::new(),
            n_queries: self.n_queries,
            seed: 7,
            validate: self.validate,
        }
    }
}

/// The cell of a (scheme, workload, loss) combination, if present.
fn cell<'a>(
    cells: &'a [MatrixCell],
    scheme: &str,
    workload: &str,
    loss: &str,
) -> Option<&'a MatrixCell> {
    cells
        .iter()
        .find(|c| c.scheme == scheme && c.workload == workload && c.loss == loss)
}

fn series_tables(
    title_latency: &str,
    title_tuning: &str,
    x_label: &str,
    xs: &[String],
    series: &[(String, Vec<Option<BatchResult>>)],
) -> (Table, Table) {
    let mut cols = vec![x_label.to_string()];
    cols.extend(series.iter().map(|(name, _)| name.clone()));
    let mut lat = Table::new(title_latency, cols.clone());
    let mut tun = Table::new(title_tuning, cols);
    for (i, x) in xs.iter().enumerate() {
        let mut lrow = vec![x.clone()];
        let mut trow = vec![x.clone()];
        for (_, results) in series {
            match &results[i] {
                Some(r) => {
                    lrow.push(fmt_bytes(r.latency_bytes));
                    trow.push(fmt_bytes(r.tuning_bytes));
                }
                None => {
                    lrow.push("-".to_string());
                    trow.push("-".to_string());
                }
            }
        }
        lat.push_row(lrow);
        tun.push_row(trow);
    }
    (lat, tun)
}

/// Figure 8 — broadcast reorganization (UNIFORM): window latency/tuning of
/// the original vs reorganized DSI broadcast, and 10NN latency/tuning of
/// reorganized vs conservative vs aggressive.
pub fn fig8(opts: &ExpOptions) -> Vec<Table> {
    let ds = opts.dataset();
    let xs: Vec<String> = CAPACITIES.iter().map(|c| c.to_string()).collect();

    let mut win_orig = Vec::new();
    let mut win_reorg = Vec::new();
    let mut knn_cons = Vec::new();
    let mut knn_aggr = Vec::new();
    let mut knn_reorg = Vec::new();
    for &cap in &CAPACITIES {
        // Window panel: the kNN strategy does not affect window queries,
        // so only the two broadcast organizations run it.
        let mut wspec = opts.spec(cap);
        wspec.schemes = vec![
            (
                "Original".into(),
                Scheme::dsi_original(cap, KnnStrategy::Conservative),
            ),
            ("Reorganized".into(), Scheme::dsi_reorganized(cap)),
        ];
        wspec.workloads = vec![(
            "window".into(),
            WorkloadSpec::Window {
                ratio: DEFAULT_RATIO,
            },
            11,
        )];
        let wcells = run_matrix(&ds, &wspec);
        let rw = |s: &str| cell(&wcells, s, "window", "lossless").map(|c| c.result.clone());
        win_orig.push(rw("Original"));
        win_reorg.push(rw("Reorganized"));

        // kNN panel: all three navigation variants.
        let mut kspec = opts.spec(cap);
        kspec.schemes = vec![
            (
                "Conservative".into(),
                Scheme::dsi_original(cap, KnnStrategy::Conservative),
            ),
            (
                "Aggressive".into(),
                Scheme::dsi_original(cap, KnnStrategy::Aggressive),
            ),
            ("Reorganized".into(), Scheme::dsi_reorganized(cap)),
        ];
        kspec.workloads = vec![("10NN".into(), WorkloadSpec::Knn { k: DEFAULT_K }, 13)];
        let kcells = run_matrix(&ds, &kspec);
        let rk = |s: &str| cell(&kcells, s, "10NN", "lossless").map(|c| c.result.clone());
        knn_cons.push(rk("Conservative"));
        knn_aggr.push(rk("Aggressive"));
        knn_reorg.push(rk("Reorganized"));
    }
    let (a, b) = series_tables(
        "Figure 8(a) — window access latency, bytes (UNIFORM)",
        "Figure 8(b) — window tuning time, bytes (UNIFORM)",
        "capacity",
        &xs,
        &[
            ("Original".into(), win_orig),
            ("Reorganized".into(), win_reorg),
        ],
    );
    let (c, d) = series_tables(
        "Figure 8(c) — 10NN access latency, bytes (UNIFORM)",
        "Figure 8(d) — 10NN tuning time, bytes (UNIFORM)",
        "capacity",
        &xs,
        &[
            ("Conservative".into(), knn_cons),
            ("Aggressive".into(), knn_aggr),
            ("Reorganized".into(), knn_reorg),
        ],
    );
    vec![a, b, c, d]
}

/// The three paper schemes at one capacity (R-tree omitted where an
/// internal entry cannot fit the packet).
fn paper_schemes(cap: u32) -> Vec<(String, Scheme)> {
    let mut v = vec![("DSI".to_string(), Scheme::dsi_reorganized(cap))];
    if RTREE_CAPACITIES.contains(&cap) {
        v.push(("R-tree".into(), Scheme::RTree));
    }
    v.push(("HCI".into(), Scheme::Hci));
    v
}

/// Sweeps the three schemes over packet capacities for one workload.
fn three_scheme_sweep(
    ds: &SpatialDataset,
    caps: &[u32],
    opts: &ExpOptions,
    workload: WorkloadSpec,
    workload_seed: u64,
) -> Vec<(String, Vec<Option<BatchResult>>)> {
    let mut series: Vec<(String, Vec<Option<BatchResult>>)> = ["DSI", "R-tree", "HCI"]
        .iter()
        .map(|n| (n.to_string(), Vec::new()))
        .collect();
    for &cap in caps {
        let mut spec = opts.spec(cap);
        spec.schemes = paper_schemes(cap);
        spec.workloads = vec![("w".into(), workload, workload_seed)];
        let cells = run_matrix(ds, &spec);
        for (name, results) in &mut series {
            results.push(cell(&cells, name, "w", "lossless").map(|c| c.result.clone()));
        }
    }
    series
}

/// Figure 9 — window queries vs packet capacity (UNIFORM), DSI vs R-tree
/// vs HCI.
pub fn fig9(opts: &ExpOptions) -> Vec<Table> {
    let ds = opts.dataset();
    let series = three_scheme_sweep(
        &ds,
        &CAPACITIES,
        opts,
        WorkloadSpec::Window {
            ratio: DEFAULT_RATIO,
        },
        11,
    );
    let xs: Vec<String> = CAPACITIES.iter().map(|c| c.to_string()).collect();
    let (a, b) = series_tables(
        "Figure 9(a) — window access latency, bytes (UNIFORM)",
        "Figure 9(b) — window tuning time, bytes (UNIFORM)",
        "capacity",
        &xs,
        &series,
    );
    vec![a, b]
}

/// Figure 10 — window queries vs WinSideRatio at 64-byte packets.
pub fn fig10(opts: &ExpOptions) -> Vec<Table> {
    let ds = opts.dataset();
    let ratios = [0.02, 0.05, 0.1, 0.15, 0.2];
    let mut spec = opts.spec(64);
    spec.schemes = paper_schemes(64);
    spec.workloads = ratios
        .iter()
        .map(|&ratio| (ratio.to_string(), WorkloadSpec::Window { ratio }, 11))
        .collect();
    let cells = run_matrix(&ds, &spec);
    let series: Vec<(String, Vec<Option<BatchResult>>)> = ["DSI", "R-tree", "HCI"]
        .iter()
        .map(|name| {
            (
                name.to_string(),
                ratios
                    .iter()
                    .map(|r| {
                        cell(&cells, name, &r.to_string(), "lossless").map(|c| c.result.clone())
                    })
                    .collect(),
            )
        })
        .collect();
    let xs: Vec<String> = ratios.iter().map(|r| r.to_string()).collect();
    let (a, b) = series_tables(
        "Figure 10(a) — window access latency vs WinSideRatio, bytes (UNIFORM, 64 B)",
        "Figure 10(b) — window tuning time vs WinSideRatio, bytes (UNIFORM, 64 B)",
        "ratio",
        &xs,
        &series,
    );
    vec![a, b]
}

/// Figure 11 — kNN (k = 1 and k = 10) vs packet capacity (UNIFORM).
pub fn fig11(opts: &ExpOptions) -> Vec<Table> {
    let ds = opts.dataset();
    let xs: Vec<String> = RTREE_CAPACITIES.iter().map(|c| c.to_string()).collect();
    let mut tables = Vec::new();
    for (k, label) in [(1usize, "NN"), (10, "10NN")] {
        let series = three_scheme_sweep(&ds, &RTREE_CAPACITIES, opts, WorkloadSpec::Knn { k }, 13);
        let (a, b) = series_tables(
            &format!("Figure 11 — {label} access latency, bytes (UNIFORM)"),
            &format!("Figure 11 — {label} tuning time, bytes (UNIFORM)"),
            "capacity",
            &xs,
            &series,
        );
        tables.push(a);
        tables.push(b);
    }
    tables
}

/// Figure 12 — kNN vs k at 64-byte packets (UNIFORM).
pub fn fig12(opts: &ExpOptions) -> Vec<Table> {
    let ds = opts.dataset();
    let ks = [1usize, 3, 5, 10, 20, 30];
    let mut spec = opts.spec(64);
    spec.schemes = paper_schemes(64);
    spec.workloads = ks
        .iter()
        .map(|&k| (k.to_string(), WorkloadSpec::Knn { k }, 13))
        .collect();
    let cells = run_matrix(&ds, &spec);
    let series: Vec<(String, Vec<Option<BatchResult>>)> = ["DSI", "R-tree", "HCI"]
        .iter()
        .map(|name| {
            (
                name.to_string(),
                ks.iter()
                    .map(|k| {
                        cell(&cells, name, &k.to_string(), "lossless").map(|c| c.result.clone())
                    })
                    .collect(),
            )
        })
        .collect();
    let xs: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
    let (a, b) = series_tables(
        "Figure 12(a) — kNN access latency vs k, bytes (UNIFORM, 64 B)",
        "Figure 12(b) — kNN tuning time vs k, bytes (UNIFORM, 64 B)",
        "k",
        &xs,
        &series,
    );
    vec![a, b]
}

/// Table 1 — performance deterioration under link errors (θ ∈ {0.2, 0.5,
/// 0.7}) relative to the lossless channel, for window and 10NN queries.
pub fn table1(opts: &ExpOptions) -> Vec<Table> {
    let thetas = [0.2, 0.5, 0.7];
    let ds = opts.dataset();
    let mut spec = opts.spec(64);
    spec.schemes = vec![
        ("HCI".into(), Scheme::Hci),
        ("R-tree".into(), Scheme::RTree),
        ("DSI".into(), Scheme::dsi_reorganized(64)),
    ];
    spec.losses = std::iter::once(("lossless".to_string(), LossModel::None))
        .chain(
            thetas
                .iter()
                .map(|&theta| (format!("{theta}"), LossModel::iid(theta))),
        )
        .collect();
    spec.workloads = vec![
        (
            "window".into(),
            WorkloadSpec::Window {
                ratio: DEFAULT_RATIO,
            },
            11,
        ),
        ("10NN".into(), WorkloadSpec::Knn { k: DEFAULT_K }, 13),
    ];
    let cells = run_matrix(&ds, &spec);

    let mut t = Table::new(
        "Table 1 — deterioration vs lossless channel (UNIFORM, 64 B)",
        vec![
            "index".into(),
            "theta".into(),
            "win latency".into(),
            "win tuning".into(),
            "10NN latency".into(),
            "10NN tuning".into(),
        ],
    );
    for (name, _) in &spec.schemes {
        let base_w = &cell(&cells, name, "window", "lossless")
            .expect("base cell")
            .result;
        let base_k = &cell(&cells, name, "10NN", "lossless")
            .expect("base cell")
            .result;
        for &theta in &thetas {
            let w = &cell(&cells, name, "window", &format!("{theta}"))
                .expect("lossy cell")
                .result;
            let k = &cell(&cells, name, "10NN", &format!("{theta}"))
                .expect("lossy cell")
                .result;
            let pct = |lossy: f64, base: f64| fmt_pct((lossy / base - 1.0) * 100.0);
            t.push_row(vec![
                name.clone(),
                format!("{theta}"),
                pct(w.latency_bytes, base_w.latency_bytes),
                pct(w.tuning_bytes, base_w.tuning_bytes),
                pct(k.latency_bytes, base_k.latency_bytes),
                pct(k.tuning_bytes, base_k.tuning_bytes),
            ]);
        }
    }
    vec![t]
}

/// Multi-channel scenarios: every scheme × channel configuration ×
/// antenna count × loss × workload from the one matrix entry point, with
/// per-channel tuning and switch counts — the scaling lever the
/// single-channel paper setting lacks. Both panels include the
/// `optimized` placement value: the workload-aware optimizer profiles
/// the panel's workloads, fits a [`dsi_broadcast::Placement::Explicit`]
/// assignment, and reports measured next to predicted latency. A second
/// panel runs the Zipf-hotspot skewed scenario (dataset and queries
/// drawn from the same hotspots) — the workload where a fitted placement
/// should beat every fixed one.
pub fn channels(opts: &ExpOptions) -> Vec<Table> {
    let optimized = |train_queries: usize| ChannelSpec::Optimized {
        channels: 4,
        switch_cost: SWITCH_COST,
        antennas: AntennaConfig::single(),
        train_queries,
    };
    let ds = opts.dataset();
    let mut spec = opts.spec(64);
    spec.schemes = paper_schemes(64);
    spec.channels = vec![
        ("C1".into(), ChannelConfig::single().into()),
        (
            "C2-split".into(),
            ChannelConfig::index_data(2, 1, SWITCH_COST).into(),
        ),
        (
            "C2-blocked".into(),
            ChannelConfig::blocked(2, SWITCH_COST).into(),
        ),
        (
            "C4-split".into(),
            ChannelConfig::index_data(4, 1, SWITCH_COST).into(),
        ),
        (
            "C4-blocked".into(),
            ChannelConfig::blocked(4, SWITCH_COST).into(),
        ),
        (
            "C4-stripe".into(),
            ChannelConfig::striped(4, SWITCH_COST).into(),
        ),
        (
            "C4-stripef".into(),
            ChannelConfig::striped_frames(4, SWITCH_COST).into(),
        ),
        ("C4-optimized".into(), optimized(opts.n_queries)),
    ];
    spec.antennas = vec![
        ("k1".into(), AntennaConfig::single()),
        ("k2".into(), AntennaConfig::new(2)),
    ];
    spec.losses = vec![
        ("lossless".into(), LossModel::None),
        ("iid20".into(), LossModel::iid(0.2)),
    ];
    spec.workloads = vec![
        (
            "window10".into(),
            WorkloadSpec::Window {
                ratio: DEFAULT_RATIO,
            },
            11,
        ),
        ("10NN".into(), WorkloadSpec::Knn { k: DEFAULT_K }, 13),
    ];
    let uniform_cells = run_matrix(&ds, &spec);

    // Skewed scenario: Zipf-hotspot data, queries from the same hotspots.
    let (n_hotspots, skew, hotspot_seed) = HOTSPOTS;
    let zds = SpatialDataset::build(
        &zipf_hotspot(opts.dataset_n, n_hotspots, skew, hotspot_seed),
        crate::EVAL_ORDER,
    );
    let mut zspec = opts.spec(64);
    zspec.schemes = paper_schemes(64);
    zspec.channels = vec![
        ("C1".into(), ChannelConfig::single().into()),
        (
            "C4-split".into(),
            ChannelConfig::index_data(4, 1, SWITCH_COST).into(),
        ),
        (
            "C4-blocked".into(),
            ChannelConfig::blocked(4, SWITCH_COST).into(),
        ),
        (
            "C4-stripe".into(),
            ChannelConfig::striped(4, SWITCH_COST).into(),
        ),
        (
            "C4-stripef".into(),
            ChannelConfig::striped_frames(4, SWITCH_COST).into(),
        ),
        ("C4-optimized".into(), optimized(opts.n_queries)),
    ];
    zspec.antennas = vec![
        ("k1".into(), AntennaConfig::single()),
        ("k2".into(), AntennaConfig::new(2)),
    ];
    zspec.workloads = vec![
        (
            "skewed-window10".into(),
            WorkloadSpec::SkewedWindow {
                ratio: DEFAULT_RATIO,
                n_hotspots,
                skew,
                hotspot_seed,
            },
            19,
        ),
        (
            "skewed-10NN".into(),
            WorkloadSpec::SkewedKnn {
                k: DEFAULT_K,
                n_hotspots,
                skew,
                hotspot_seed,
            },
            19,
        ),
    ];
    let skew_cells = run_matrix(&zds, &zspec);

    vec![
        cells_table(
            "Channels — scheme × channel-config × loss × workload (UNIFORM, 64 B)",
            &uniform_cells,
        ),
        cells_table(
            "Channels — Zipf-hotspot data with hotspot-following queries (64 B)",
            &skew_cells,
        ),
    ]
}

/// REAL-dataset summaries quoted in the paper's §4.2/§4.3 text: window and
/// kNN metrics of the three schemes on the clustered surrogate, plus the
/// DSI/baseline ratios.
pub fn real_summary(opts: &ExpOptions) -> Vec<Table> {
    let ds = if opts.dataset_n == 10_000 {
        real_dataset()
    } else {
        // Scale the surrogate down with the smoke dataset size.
        SpatialDataset::build(
            &dsi_datagen::clustered(opts.dataset_n, 64, 4242),
            crate::EVAL_ORDER,
        )
    };
    real_summary_on(&ds, opts)
}

/// [`real_summary`] on a caller-provided dataset — the `real` binary runs
/// it over the committed REAL point fixture instead of the synthetic
/// surrogate.
pub fn real_summary_on(ds: &SpatialDataset, opts: &ExpOptions) -> Vec<Table> {
    let ds = ds.clone();
    let windows = window_queries(opts.n_queries, DEFAULT_RATIO, 11);
    let points = knn_points(opts.n_queries, 13);
    let batch = opts.batch();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, scheme) in [
        ("DSI", Scheme::dsi_reorganized(64)),
        ("R-tree", Scheme::RTree),
        ("HCI", Scheme::Hci),
    ] {
        let e = Engine::build(scheme, &ds, 64);
        let w = run_window_batch(&e, &ds, &windows, &batch);
        let k = run_knn_batch(&e, &ds, &points, DEFAULT_K, &batch);
        results.push((name, w, k));
    }
    for (name, w, k) in &results {
        rows.push(vec![
            name.to_string(),
            fmt_bytes(w.latency_bytes),
            fmt_bytes(w.tuning_bytes),
            fmt_bytes(k.latency_bytes),
            fmt_bytes(k.tuning_bytes),
        ]);
    }
    let mut t = Table::new(
        "REAL surrogate (clustered, 5,848 points unless scaled) — 64 B packets",
        vec![
            "index".into(),
            "win latency".into(),
            "win tuning".into(),
            "10NN latency".into(),
            "10NN tuning".into(),
        ],
    );
    for r in rows {
        t.push_row(r);
    }
    let (dsi, rt, hci) = (&results[0], &results[1], &results[2]);
    let mut ratios = Table::new(
        "REAL surrogate — DSI as a fraction of each baseline (paper §4.2/4.3 quotes)",
        vec!["metric".into(), "DSI/R-tree".into(), "DSI/HCI".into()],
    );
    let frac = |a: f64, b: f64| fmt_pct(a / b * 100.0);
    ratios.push_row(vec![
        "win latency".into(),
        frac(dsi.1.latency_bytes, rt.1.latency_bytes),
        frac(dsi.1.latency_bytes, hci.1.latency_bytes),
    ]);
    ratios.push_row(vec![
        "win tuning".into(),
        frac(dsi.1.tuning_bytes, rt.1.tuning_bytes),
        frac(dsi.1.tuning_bytes, hci.1.tuning_bytes),
    ]);
    ratios.push_row(vec![
        "10NN latency".into(),
        frac(dsi.2.latency_bytes, rt.2.latency_bytes),
        frac(dsi.2.latency_bytes, hci.2.latency_bytes),
    ]);
    ratios.push_row(vec![
        "10NN tuning".into(),
        frac(dsi.2.tuning_bytes, rt.2.tuning_bytes),
        frac(dsi.2.tuning_bytes, hci.2.tuning_bytes),
    ]);
    vec![t, ratios]
}

/// Population-level fleet summary over a dataset: one fleet of `clients`
/// concurrent listeners per scheme (mixed window/kNN pool, Zipf-skewed
/// popularity), reporting the coalescing rate, throughput and the
/// latency/tuning percentiles the per-query matrix cannot see. When
/// `opts.validate` is set the fleet additionally validates every cohort
/// representative against brute force.
pub fn fleet_summary_on(ds: &SpatialDataset, opts: &ExpOptions, clients: usize) -> Vec<Table> {
    use crate::fleet::{run_fleet, FleetSpec, Population};
    use dsi_broadcast::{Distribution, Query};
    use std::sync::Arc;

    let ds = Arc::new(ds.clone());
    let mut pool: Vec<Query> = window_queries(4, DEFAULT_RATIO, 11)
        .into_iter()
        .map(Query::Window)
        .collect();
    pool.extend(
        knn_points(4, 13)
            .into_iter()
            .map(|p| Query::Knn(p, DEFAULT_K)),
    );
    let mut t = Table::new(
        "Fleet — concurrent listener population per scheme (64 B packets)",
        vec![
            "index".into(),
            "clients".into(),
            "drives".into(),
            "coalesced".into(),
            "clients/s".into(),
            "events/s".into(),
            "lat p50/p95/p99 (pkt)".into(),
            "tun p50/p95/p99 (pkt)".into(),
            "peak conc".into(),
        ],
    );
    let summary = |column: &[u64]| {
        let mut d = Distribution::with_capacity(column.len());
        d.extend(column.iter().copied());
        let s = d.summary();
        format!("{}/{}/{}", s.p50, s.p95, s.p99)
    };
    for (name, scheme) in [
        ("DSI", Scheme::dsi_reorganized(64)),
        ("R-tree", Scheme::RTree),
        ("HCI", Scheme::Hci),
    ] {
        let engine = Arc::new(Engine::build(scheme, &ds, 64));
        let spec = FleetSpec {
            skew: 1.1,
            validate: opts.validate,
            ..FleetSpec::new(clients, pool.clone())
        };
        let (stats, outcomes) = run_fleet(&engine, Some(&ds), &spec);
        let starts = Population::derive(&spec, engine.cycle_packets()).start;
        t.push_row(vec![
            name.into(),
            stats.clients.to_string(),
            stats.drives.to_string(),
            fmt_pct(100.0 * stats.coalesced as f64 / stats.clients.max(1) as f64),
            format!("{:.0}", stats.clients_per_sec),
            format!("{:.0}", stats.events_per_sec),
            summary(&outcomes.latency),
            summary(&outcomes.tuning),
            peak_concurrent(&starts, &outcomes.latency).to_string(),
        ]);
    }
    vec![t]
}

/// Most clients simultaneously mid-query at any broadcast instant, client
/// `i` being active over `[starts[i], starts[i] + latency[i]]`.
fn peak_concurrent(starts: &[u64], latency: &[u64]) -> u64 {
    let end = starts.iter().zip(latency).map(|(s, l)| s + l).max();
    let mut diff = vec![0i64; end.map_or(0, |e| e as usize + 2)];
    for (&s, &l) in starts.iter().zip(latency) {
        diff[s as usize] += 1;
        diff[(s + l) as usize + 1] -= 1;
    }
    let active = diff.iter().scan(0i64, |active, d| {
        *active += d;
        Some(*active)
    });
    active.max().unwrap_or(0) as u64
}

/// Extension ablations beyond the paper's figures: index base r, segment
/// count m, interleave style, and the loss-scope model.
pub fn ablations(opts: &ExpOptions) -> Vec<Table> {
    let ds = opts.dataset();
    let windows = window_queries(opts.n_queries, DEFAULT_RATIO, 11);
    let points = knn_points(opts.n_queries, 13);
    let batch = opts.batch();
    let mut tables = Vec::new();

    // Index base r.
    let mut t = Table::new(
        "Ablation — index base r (DSI reorganized, 64 B)",
        vec![
            "r".into(),
            "win latency".into(),
            "win tuning".into(),
            "10NN latency".into(),
            "10NN tuning".into(),
        ],
    );
    for r in [2u32, 4, 8] {
        let cfg = DsiConfig {
            index_base: r,
            ..DsiConfig::paper_reorganized()
        };
        let e = Engine::build(Scheme::Dsi(cfg, KnnStrategy::Conservative), &ds, 64);
        let w = run_window_batch(&e, &ds, &windows, &batch);
        let k = run_knn_batch(&e, &ds, &points, DEFAULT_K, &batch);
        t.push_row(vec![
            r.to_string(),
            fmt_bytes(w.latency_bytes),
            fmt_bytes(w.tuning_bytes),
            fmt_bytes(k.latency_bytes),
            fmt_bytes(k.tuning_bytes),
        ]);
    }
    tables.push(t);

    // Segment count m.
    let mut t = Table::new(
        "Ablation — broadcast segments m (DSI conservative, 256 B)",
        vec!["m".into(), "10NN latency".into(), "10NN tuning".into()],
    );
    for m in [1u32, 2, 4, 8] {
        let cfg = DsiConfig {
            segments: m,
            ..DsiConfig::paper_default().with_capacity(256)
        };
        let e = Engine::build(Scheme::Dsi(cfg, KnnStrategy::Conservative), &ds, 256);
        let k = run_knn_batch(&e, &ds, &points, DEFAULT_K, &batch);
        t.push_row(vec![
            m.to_string(),
            fmt_bytes(k.latency_bytes),
            fmt_bytes(k.tuning_bytes),
        ]);
    }
    tables.push(t);

    // Interleave style.
    let mut t = Table::new(
        "Ablation — interleave style (m = 2, 256 B)",
        vec!["style".into(), "10NN latency".into(), "10NN tuning".into()],
    );
    for (name, style) in [
        ("round-robin", ReorgStyle::RoundRobin),
        ("folded", ReorgStyle::Folded),
    ] {
        let cfg = DsiConfig {
            reorg_style: style,
            ..DsiConfig::paper_reorganized().with_capacity(256)
        };
        let e = Engine::build(Scheme::Dsi(cfg, KnnStrategy::Conservative), &ds, 256);
        let k = run_knn_batch(&e, &ds, &points, DEFAULT_K, &batch);
        t.push_row(vec![
            name.to_string(),
            fmt_bytes(k.latency_bytes),
            fmt_bytes(k.tuning_bytes),
        ]);
    }
    tables.push(t);

    // Loss scope: what if data payloads were NOT protected?
    let mut t = Table::new(
        "Ablation — loss scope at theta = 0.2 (DSI reorganized, 64 B, window)",
        vec!["scope".into(), "latency".into(), "tuning".into()],
    );
    let e = Engine::build(Scheme::dsi_reorganized(64), &ds, 64);
    for (name, loss) in [
        ("lossless", LossModel::None),
        (
            "index-only",
            LossModel::Iid {
                theta: 0.2,
                scope: dsi_broadcast::LossScope::IndexOnly,
            },
        ),
        (
            "all-packets",
            LossModel::Iid {
                theta: 0.2,
                scope: dsi_broadcast::LossScope::All,
            },
        ),
    ] {
        let o = BatchOptions {
            loss,
            ..opts.batch()
        };
        let w = run_window_batch(&e, &ds, &windows, &o);
        t.push_row(vec![
            name.to_string(),
            fmt_bytes(w.latency_bytes),
            fmt_bytes(w.tuning_bytes),
        ]);
    }
    tables.push(t);

    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "DSI_VALIDATE=\"false\" must be 0 or 1")]
    fn validate_knob_accepts_only_0_or_1() {
        std::env::set_var("DSI_VALIDATE", "false");
        ExpOptions::from_env();
    }

    #[test]
    fn peak_concurrency_counts_overlapping_clients() {
        // Active over [0, 4], [2, 3] and [5, 5]: two at instants 2 and 3.
        assert_eq!(peak_concurrent(&[0, 2, 5], &[4, 1, 0]), 2);
        assert_eq!(peak_concurrent(&[], &[]), 0);
    }

    #[test]
    fn fig9_smoke_produces_full_tables() {
        let tables = fig9(&ExpOptions::smoke());
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows.len(), CAPACITIES.len());
            assert_eq!(t.columns.len(), 4);
        }
        // R-tree column is "-" at 32 bytes.
        assert_eq!(tables[0].rows[0][2], "-");
        assert_ne!(tables[0].rows[1][2], "-");
    }

    #[test]
    fn table1_smoke_has_nine_rows() {
        let tables = table1(&ExpOptions::smoke());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 9);
    }

    #[test]
    fn channels_smoke_covers_all_configs() {
        let tables = channels(&ExpOptions::smoke());
        assert_eq!(tables.len(), 2);
        // Uniform panel: 3 schemes × 8 channel configs (incl. optimized)
        // × 2 antenna configs × 2 losses × 2 workloads.
        assert_eq!(tables[0].rows.len(), 3 * 8 * 2 * 2 * 2);
        // Skewed panel: 3 schemes × 6 channel configs × 2 antenna
        // configs × 1 loss × 2 workloads.
        assert_eq!(tables[1].rows.len(), 3 * 6 * 2 * 2);
        // Per-channel tuning column is populated and splits across
        // channels for a C4 row.
        let c4 = tables[0]
            .rows
            .iter()
            .find(|r| r[1] == "C4-split")
            .expect("C4 rows exist");
        assert_eq!(c4[8].matches(" / ").count(), 3, "four channel columns");
        // Both antenna configurations appear.
        assert!(tables[0].rows.iter().any(|r| r[2] == "k2"));
        // Optimized rows exist in both panels and carry a predicted
        // latency; fixed rows do not.
        for t in &tables {
            let opt = t
                .rows
                .iter()
                .find(|r| r[1] == "C4-optimized")
                .expect("optimized rows exist");
            assert_ne!(opt[9], "-", "optimized rows carry a prediction");
            let fixed = t.rows.iter().find(|r| r[1] == "C1").expect("C1 rows");
            assert_eq!(fixed[9], "-");
        }
    }
}
