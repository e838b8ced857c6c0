//! The experiment matrix: scheme × channel-config × loss-model × workload
//! from one code path.
//!
//! Every paper figure and every extension scenario is a selection of cells
//! from this matrix. A [`MatrixSpec`] names the axes; [`run_matrix`]
//! builds each (scheme, channel) engine once, fires every (loss, workload)
//! batch through the unified driver, validates answers, and returns one
//! [`MatrixCell`] per combination with channel-aware statistics. Adding a
//! scenario is a spec entry, not a new drive loop.

use dsi_broadcast::optimize::{
    arc_assignment, optimize_placement, predict_latency_packets, AccessProfile, UnitSchema,
};
use dsi_broadcast::{
    AntennaConfig, ChannelConfig, FaultTrace, LayoutError, LossModel, Placement, Query,
};
use dsi_datagen::{
    knn_points, skewed_knn_points, skewed_window_queries, window_queries, SpatialDataset,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Engine, Scheme};
use crate::runner::{run_query_batch, BatchOptions, BatchResult};
use crate::table::{fmt_bytes, Table};

/// A workload family, materialized into concrete queries per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// Uniform square windows of side `ratio` (the paper's WinSideRatio).
    Window {
        /// Window side as a fraction of the space side.
        ratio: f64,
    },
    /// Uniform kNN queries.
    Knn {
        /// Number of neighbours.
        k: usize,
    },
    /// Windows whose centres follow a Zipf-hotspot mixture.
    SkewedWindow {
        /// Window side as a fraction of the space side.
        ratio: f64,
        /// Number of hotspots.
        n_hotspots: usize,
        /// Zipf exponent over hotspot popularity.
        skew: f64,
        /// Hotspot seed (match the dataset's to follow its skew).
        hotspot_seed: u64,
    },
    /// kNN queries whose points follow a Zipf-hotspot mixture.
    SkewedKnn {
        /// Number of neighbours.
        k: usize,
        /// Number of hotspots.
        n_hotspots: usize,
        /// Zipf exponent over hotspot popularity.
        skew: f64,
        /// Hotspot seed (match the dataset's to follow its skew).
        hotspot_seed: u64,
    },
}

impl WorkloadSpec {
    /// Materializes `n` concrete queries, deterministically from `seed`.
    pub fn queries(&self, n: usize, seed: u64) -> Vec<Query> {
        match *self {
            WorkloadSpec::Window { ratio } => window_queries(n, ratio, seed)
                .into_iter()
                .map(Query::Window)
                .collect(),
            WorkloadSpec::Knn { k } => knn_points(n, seed)
                .into_iter()
                .map(|p| Query::Knn(p, k))
                .collect(),
            WorkloadSpec::SkewedWindow {
                ratio,
                n_hotspots,
                skew,
                hotspot_seed,
            } => skewed_window_queries(n, ratio, n_hotspots, skew, hotspot_seed, seed)
                .into_iter()
                .map(Query::Window)
                .collect(),
            WorkloadSpec::SkewedKnn {
                k,
                n_hotspots,
                skew,
                hotspot_seed,
            } => skewed_knn_points(n, n_hotspots, skew, hotspot_seed, seed)
                .into_iter()
                .map(|p| Query::Knn(p, k))
                .collect(),
        }
    }
}

/// One entry of the channel axis: a fixed configuration, or the
/// workload-aware placement optimizer resolved per scheme at build time.
#[derive(Debug, Clone)]
pub enum ChannelSpec {
    /// A fixed channel configuration, used as given.
    Fixed(ChannelConfig),
    /// `optimized`: profile this spec's workloads on the single-channel
    /// build, optimize the unit→channel assignment with the sample-driven
    /// arc search ([`dsi_broadcast::optimize`]), and measure the resulting
    /// [`Placement::Explicit`] layout. The training queries are
    /// materialized from a salted seed, disjoint from the evaluation
    /// batch, so the optimizer fits the workload *distribution*, not the
    /// measured queries.
    Optimized {
        /// Number of parallel channels.
        channels: u32,
        /// Retune latency in packets.
        switch_cost: u32,
        /// Receiver configuration the sample scorer prices (the matrix
        /// still measures every entry of the antennas axis).
        antennas: AntennaConfig,
        /// Training queries drawn per workload.
        train_queries: usize,
    },
}

impl From<ChannelConfig> for ChannelSpec {
    fn from(cfg: ChannelConfig) -> Self {
        ChannelSpec::Fixed(cfg)
    }
}

/// The axes of one experiment: every combination is run.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Schemes to build, with display names.
    pub schemes: Vec<(String, Scheme)>,
    /// Packet capacity in bytes.
    pub capacity: u32,
    /// Channel configurations, with display names.
    pub channels: Vec<(String, ChannelSpec)>,
    /// Receiver configurations, with display names (the client-side
    /// multi-antenna axis; `k1` is the classic single receiver).
    pub antennas: Vec<(String, AntennaConfig)>,
    /// Loss models, with display names.
    pub losses: Vec<(String, LossModel)>,
    /// Workloads: display name, family, and the materialization seed of
    /// this entry (per-entry so an experiment can keep distinct,
    /// historically stable seeds for e.g. its window and kNN workloads).
    pub workloads: Vec<(String, WorkloadSpec, u64)>,
    /// Queries per cell.
    pub n_queries: usize,
    /// Batch seed (tune-in positions, per-query loss seeds).
    pub seed: u64,
    /// Validate every answer against brute force.
    pub validate: bool,
}

/// One matrix combination's aggregated result.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Scheme display name.
    pub scheme: String,
    /// Channel-configuration display name.
    pub channel: String,
    /// Receiver-configuration display name.
    pub antenna: String,
    /// Loss-model display name.
    pub loss: String,
    /// Workload display name.
    pub workload: String,
    /// Number of parallel channels of this configuration.
    pub n_channels: u32,
    /// Aggregated batch metrics (means, switches, per-channel tuning).
    pub result: BatchResult,
    /// The sample scorer's predicted mean access latency (bytes) for
    /// this workload under the built placement — populated only for
    /// [`ChannelSpec::Optimized`] entries, where predicted-vs-measured is
    /// the model's scorecard.
    pub predicted_latency_bytes: Option<f64>,
}

/// Salt applied to workload seeds when materializing the optimizer's
/// training queries, so training and evaluation batches stay disjoint.
const TRAIN_SALT: u64 = 0x7EA1_5EED;

/// Resolves a [`ChannelSpec::Optimized`] entry for one scheme: profiles
/// the spec's workloads on the single-channel build, optimizes the
/// unit→channel assignment, and returns the rebuilt engine plus the
/// model's per-workload predicted mean latency (bytes). A cycle that
/// `Blocked` cannot spread over `channels` returns `Blocked`'s
/// [`LayoutError`] before any search: `Blocked` is the measured baseline
/// every candidate must beat, and its fallback.
fn build_optimized(
    scheme: Scheme,
    dataset: &SpatialDataset,
    spec: &MatrixSpec,
    channels: u32,
    switch_cost: u32,
    model_antennas: AntennaConfig,
    train_queries: usize,
) -> Result<(Engine, Vec<f64>), LayoutError> {
    assert!(train_queries > 0, "optimizer needs a training workload");
    let blocked = Engine::try_build_channels(
        scheme,
        dataset,
        spec.capacity,
        ChannelConfig {
            channels,
            placement: Placement::Blocked,
            switch_cost,
        },
    )?;
    if spec.workloads.is_empty() {
        // Nothing to train on, and no cell to measure.
        return Ok((blocked, Vec::new()));
    }
    let single = Engine::build(scheme, dataset, spec.capacity);
    let cycle = single.cycle_packets();
    let schema = UnitSchema::from_unit_starts(&single.unit_starts());
    let mut rng = StdRng::seed_from_u64(spec.seed ^ TRAIN_SALT);
    let mut train_sets: Vec<Vec<Query>> = Vec::new();
    let mut train_starts: Vec<Vec<u64>> = Vec::new();
    let mut journals: Vec<FaultTrace> = Vec::new();
    let mut per_workload: Vec<AccessProfile> = Vec::new();
    for (_, w, wseed) in &spec.workloads {
        let train = w.queries(train_queries, wseed ^ TRAIN_SALT);
        let mut starts = Vec::with_capacity(train.len());
        let mut wjournals = Vec::with_capacity(train.len());
        for (qi, q) in train.iter().enumerate() {
            let start = rng.gen_range(0..cycle);
            starts.push(start);
            let (_, journal) = single.drive_traced(
                start,
                LossModel::None,
                spec.seed ^ (qi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                AntennaConfig::single(),
                q,
            );
            wjournals.push(journal);
        }
        per_workload.push(AccessProfile::from_journals(cycle, &wjournals));
        journals.extend(wjournals);
        train_sets.push(train);
        train_starts.push(starts);
    }
    let profile = AccessProfile::from_journals(cycle, &journals);
    let opt = optimize_placement(&schema, &profile, channels, switch_cost, model_antennas);

    // Measured simulate-and-select: the sample scorer ranks candidates
    // within its sweep assumptions, but the server can do better —
    // rebuild finalist cut vectors and *measure* them on the training
    // workload (a lossless k = 1 and a k = 2 client per query), then
    // refine the cut positions by measurement. Every candidate stays in
    // the dependency-order-preserving arc family (`arc_assignment`);
    // everything is deterministic. The selection objective is the worst
    // latency ratio against the measured `Blocked` baseline over both
    // antenna counts (ties broken by the ratio sum): a placement only
    // wins by dominating the best analytic layout for single- *and*
    // multi-antenna clients.
    // Cap the per-candidate measurement batch so the search stays cheap
    // at full scale; the workload distribution is what matters, not the
    // whole training set. Window workloads are the experiments' headline
    // latency metric, so when the spec has any, the selection scores
    // those (kNN-only specs fall back to everything). Each measurement
    // rebuilds the engine from scratch even though only the channel
    // layout differs — the flat schema is identical across candidates —
    // which is the dominant fixed cost here; a rebuild-layout-only path
    // on the index crates would remove it if the search ever needs to
    // scale further.
    let m_cap = 120usize;
    // Explicit placements must give every channel at least one index
    // unit — the layout builder rejects stranded channels outright
    // (`LayoutError::StrandedChannel`), since a client parked there could
    // never terminate. Screen every candidate assignment up front and
    // repair coverage by moving an index unit over from the
    // best-provisioned channel; when the cycle simply has fewer index
    // units than channels no explicit map is feasible at all.
    let unit_is_index: Vec<bool> = single
        .static_model()
        .units
        .iter()
        .map(|u| u.kind == dsi_verify::UnitKind::Index)
        .collect();
    let total_index = unit_is_index.iter().filter(|&&b| b).count();
    let cover = |mut a: Vec<u32>| -> Vec<u32> {
        if total_index == 0 {
            return a;
        }
        let mut count = vec![0u32; channels as usize];
        for (u, &ch) in a.iter().enumerate() {
            if unit_is_index[u] {
                count[ch as usize] += 1;
            }
        }
        for ch in 0..channels as usize {
            while count[ch] == 0 {
                let donor = (0..channels as usize)
                    .max_by_key(|&d| count[d])
                    .expect("at least one channel");
                assert!(count[donor] >= 2, "feasibility checked by pigeonhole");
                let u = a
                    .iter()
                    .enumerate()
                    .find(|&(u, &c)| c as usize == donor && unit_is_index[u])
                    .map(|(u, _)| u)
                    .expect("donor channel has an index unit");
                a[u] = ch as u32;
                count[donor] -= 1;
                count[ch] += 1;
            }
        }
        a
    };
    let predict_all = |assignment: &[u32]| -> Vec<f64> {
        per_workload
            .iter()
            .map(|p| {
                predict_latency_packets(
                    &schema,
                    p,
                    channels,
                    switch_cost,
                    model_antennas,
                    assignment,
                ) * spec.capacity as f64
            })
            .collect()
    };
    if total_index > 0 && total_index < channels as usize {
        // Fewer index units than channels: every explicit map strands a
        // channel, so the optimizer's candidate family is empty. Fall
        // back to the blocked placement.
        let nu = schema.n_units();
        let equal: Vec<usize> = (0..channels as usize)
            .map(|g| g * nu / channels as usize)
            .collect();
        let predictions = predict_all(&arc_assignment(&schema, &profile, &equal));
        return Ok((blocked, predictions));
    }
    let is_window = |queries: &[Query]| matches!(queries.first(), Some(Query::Window(_)));
    let any_window = train_sets.iter().any(|t| is_window(t));
    let measure_engine = |engine: &Engine| -> (f64, f64) {
        let mut mean = [0.0f64; 2];
        let mut count = 0u64;
        for (wi, train) in train_sets.iter().enumerate() {
            if any_window && !is_window(train) {
                continue;
            }
            for (qi, q) in train.iter().take(m_cap).enumerate() {
                for (ai, ant) in [1u32, 2].into_iter().enumerate() {
                    let out = engine.drive_antennas(
                        train_starts[wi][qi] % engine.cycle_packets(),
                        LossModel::None,
                        spec.seed ^ (qi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        AntennaConfig::new(ant),
                        q,
                    );
                    mean[ai] += out.stats.latency_packets as f64;
                    count += 1;
                }
            }
        }
        let n = (count / 2).max(1) as f64;
        (mean[0] / n, mean[1] / n)
    };
    let explicit = |assignment: &[u32]| ChannelConfig {
        channels,
        placement: Placement::Explicit(assignment.to_vec()),
        switch_cost,
    };
    let measure = |assignment: &[u32]| {
        measure_engine(&Engine::build_channels(
            scheme,
            dataset,
            spec.capacity,
            explicit(assignment),
        ))
    };
    let (base_k1, base_k2) = measure_engine(&blocked);
    let score = |(k1, k2): (f64, f64)| -> (f64, f64) {
        let r1 = k1 / base_k1.max(1.0);
        let r2 = k2 / base_k2.max(1.0);
        (r1.max(r2), r1 + r2)
    };
    let better = |a: (f64, f64), b: (f64, f64)| -> bool {
        a.0 < b.0 - 1e-12 || (a.0 < b.0 + 1e-12 && a.1 < b.1 - 1e-12)
    };
    let n_units = schema.n_units();
    let total = schema.total_packets();
    // Candidate cut vectors: the model optimum plus equal-packet arcs at
    // several rotations of the cycle.
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    let unit_at = |target: u64| -> usize {
        (0..n_units)
            .find(|&u| schema.start(u) as u64 >= target)
            .unwrap_or(n_units - 1)
    };
    for rot in 0..8u64 {
        let cuts: Vec<usize> = (0..channels as u64)
            .map(|g| unit_at((total * (8 * g + rot)) / (8 * channels as u64)))
            .collect();
        candidates.push(cuts);
    }
    // Deterministic random cut vectors: the measured landscape has
    // minima that coordinate moves from the blocked cuts cannot reach
    // (they need several cuts displaced at once).
    let mut crng = StdRng::seed_from_u64(spec.seed ^ 0xCA75_0FF5);
    for _ in 0..56 {
        let mut cuts: Vec<usize> = (0..channels).map(|_| crng.gen_range(0..n_units)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        if cuts.len() == channels as usize {
            candidates.push(cuts);
        }
    }
    let valid = |cuts: &[usize]| cuts.windows(2).all(|w| w[0] < w[1]) && cuts[0] < n_units;
    if valid(&opt.arc_cuts) {
        candidates.insert(0, opt.arc_cuts);
    }
    // Always-valid fallback: equal unit-count cuts.
    let mut best_cuts: Vec<usize> = (0..channels as usize)
        .map(|g| g * n_units / channels as usize)
        .collect();
    let mut best_assignment = cover(arc_assignment(&schema, &profile, &best_cuts));
    let mut best_score = score(measure(&best_assignment));
    for cuts in candidates {
        if !valid(&cuts) || cuts == best_cuts {
            continue;
        }
        let a = cover(arc_assignment(&schema, &profile, &cuts));
        let s = score(measure(&a));
        if better(s, best_score) {
            best_score = s;
            best_cuts = cuts;
            best_assignment = a;
        }
    }
    // Measured coordinate descent: for each cut in turn, try a grid of
    // alternative positions across its feasible range (coarse, then a
    // finer pass around the incumbent), keeping strict improvements.
    for round in 0..3 {
        let before = best_score;
        for i in 0..channels as usize {
            let incumbent = best_cuts[i];
            let span = if round == 0 {
                n_units
            } else {
                (n_units / (6 * round)).max(2)
            };
            let grid: Vec<usize> = (0..12)
                .map(|g| {
                    let offset = (g * span) / 12;
                    (incumbent + n_units + offset).saturating_sub(span / 2) % n_units
                })
                .collect();
            for pos in grid {
                if pos == incumbent {
                    continue;
                }
                let mut cuts = best_cuts.clone();
                cuts[i] = pos;
                cuts.sort_unstable();
                cuts.dedup();
                if cuts.len() != channels as usize || !valid(&cuts) {
                    continue;
                }
                let a = cover(arc_assignment(&schema, &profile, &cuts));
                let s = score(measure(&a));
                if better(s, best_score) {
                    best_score = s;
                    best_cuts = cuts;
                    best_assignment = a;
                }
            }
        }
        if !better(best_score, before) {
            break;
        }
    }
    // Channel-label rotations: labels only decide which arc carries the
    // tune-in channel 0, but that choice is measurable too.
    let base_labels = best_assignment.clone();
    for r in 1..channels {
        let rotated: Vec<u32> = base_labels.iter().map(|&ch| (ch + r) % channels).collect();
        let s = score(measure(&rotated));
        if better(s, best_score) {
            best_score = s;
            best_assignment = rotated;
        }
    }
    // Robustness margin: adopt a non-blocked layout only when it
    // dominates the Blocked baseline with headroom on its *worst*
    // antenna count, so training noise cannot hand the evaluation a
    // regression. Otherwise return the blocked-equivalent arcs — the
    // honest answer when the family holds no reliably better layout for
    // this scheme.
    if best_score.0 > 0.97 {
        let equal: Vec<usize> = (0..channels as u64)
            .map(|g| unit_at((total * g) / channels as u64))
            .collect();
        let fallback = if valid(&equal) {
            equal
        } else {
            (0..channels as usize)
                .map(|g| g * n_units / channels as usize)
                .collect()
        };
        best_assignment = cover(arc_assignment(&schema, &profile, &fallback));
    }

    let predictions = predict_all(&best_assignment);
    let engine =
        Engine::try_build_channels(scheme, dataset, spec.capacity, explicit(&best_assignment))?;
    Ok((engine, predictions))
}

/// Runs every cell of the matrix. Engines are built once per
/// (scheme, channel) pair; workloads are materialized once per workload.
/// A channel entry the scheme's cycle cannot be scheduled over
/// ([`LayoutError`]) rejects that (scheme, channel) pair with a
/// diagnostic on stderr instead of panicking; the remaining cells still
/// run.
pub fn run_matrix(dataset: &SpatialDataset, spec: &MatrixSpec) -> Vec<MatrixCell> {
    let workloads: Vec<(&String, Vec<Query>)> = spec
        .workloads
        .iter()
        .map(|(name, w, seed)| (name, w.queries(spec.n_queries, *seed)))
        .collect();
    // An omitted antennas axis means the classic single-receiver client.
    let single = vec![("k1".to_string(), AntennaConfig::single())];
    let antennas = if spec.antennas.is_empty() {
        &single
    } else {
        &spec.antennas
    };
    let mut cells = Vec::new();
    for (scheme_name, scheme) in &spec.schemes {
        for (chan_name, chan) in &spec.channels {
            let built = match chan {
                ChannelSpec::Fixed(cfg) => {
                    Engine::try_build_channels(*scheme, dataset, spec.capacity, cfg.clone())
                        .map(|engine| (engine, None))
                }
                ChannelSpec::Optimized {
                    channels,
                    switch_cost,
                    antennas,
                    train_queries,
                } => build_optimized(
                    *scheme,
                    dataset,
                    spec,
                    *channels,
                    *switch_cost,
                    *antennas,
                    *train_queries,
                )
                .map(|(engine, preds)| (engine, Some(preds))),
            };
            // A channel entry can be structurally invalid for this cycle
            // (wrong explicit length, stranded or empty channel, …).
            // Reject the cell with its diagnostic and keep the rest of
            // the matrix running.
            let (engine, predictions) = match built {
                Ok(built) => built,
                Err(e) => {
                    eprintln!("matrix: rejecting cell {scheme_name} x {chan_name}: {e}");
                    continue;
                }
            };
            for (ant_name, ant) in antennas {
                for (loss_name, loss) in &spec.losses {
                    for (wi, (workload_name, queries)) in workloads.iter().enumerate() {
                        let opts = BatchOptions {
                            loss: loss.clone(),
                            seed: spec.seed,
                            validate: spec.validate,
                            antennas: *ant,
                        };
                        let result = run_query_batch(&engine, dataset, queries, &opts);
                        cells.push(MatrixCell {
                            scheme: scheme_name.clone(),
                            channel: chan_name.clone(),
                            antenna: ant_name.clone(),
                            loss: loss_name.clone(),
                            workload: (*workload_name).clone(),
                            n_channels: engine.n_channels(),
                            result,
                            predicted_latency_bytes: predictions.as_ref().map(|p| p[wi]),
                        });
                    }
                }
            }
        }
    }
    cells
}

/// Renders matrix cells as one table with channel-aware columns
/// (per-channel tuning joined as `a / b / …`; the `predicted` column
/// carries the sample scorer's latency estimate for optimized placements,
/// `-` elsewhere). The trailing robustness columns report the batch's
/// loss behaviour: mean reads lost per query, the longest stall any
/// query saw (packets), and mean loss-forced retunes per query.
pub fn cells_table(title: &str, cells: &[MatrixCell]) -> Table {
    let mut t = Table::new(
        title,
        vec![
            "scheme".into(),
            "channels".into(),
            "antennas".into(),
            "loss".into(),
            "workload".into(),
            "latency".into(),
            "tuning".into(),
            "switches".into(),
            "tuning/channel".into(),
            "predicted".into(),
            "lost/query".into(),
            "max stall".into(),
            "loss retunes".into(),
        ],
    );
    for c in cells {
        t.push_row(vec![
            c.scheme.clone(),
            c.channel.clone(),
            c.antenna.clone(),
            c.loss.clone(),
            c.workload.clone(),
            fmt_bytes(c.result.latency_bytes),
            fmt_bytes(c.result.tuning_bytes),
            format!("{:.2}", c.result.mean_switches),
            c.result
                .per_channel_tuning_bytes
                .iter()
                .map(|b| fmt_bytes(*b))
                .collect::<Vec<_>>()
                .join(" / "),
            c.predicted_latency_bytes
                .map_or_else(|| "-".to_string(), fmt_bytes),
            format!("{:.2}", c.result.mean_lost_packets),
            format!("{}", c.result.max_stall_packets),
            format!("{:.2}", c.result.mean_loss_retunes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_dataset_n;
    use dsi_core::KnnStrategy;

    #[test]
    fn matrix_runs_every_combination() {
        let ds = uniform_dataset_n(200);
        let spec = MatrixSpec {
            schemes: vec![
                ("DSI".into(), Scheme::dsi_reorganized(64)),
                ("HCI".into(), Scheme::Hci),
            ],
            capacity: 64,
            channels: vec![
                ("C1".into(), ChannelConfig::single().into()),
                ("C2-split".into(), ChannelConfig::index_data(2, 1, 2).into()),
            ],
            antennas: vec![
                ("k1".into(), AntennaConfig::single()),
                ("k2".into(), AntennaConfig::new(2)),
            ],
            losses: vec![
                ("lossless".into(), LossModel::None),
                ("iid20".into(), LossModel::iid(0.2)),
            ],
            workloads: vec![
                ("window10".into(), WorkloadSpec::Window { ratio: 0.1 }, 3),
                ("5NN".into(), WorkloadSpec::Knn { k: 5 }, 4),
                (
                    "skewed-window".into(),
                    WorkloadSpec::SkewedWindow {
                        ratio: 0.1,
                        n_hotspots: 8,
                        skew: 1.2,
                        hotspot_seed: 3,
                    },
                    5,
                ),
            ],
            n_queries: 4,
            seed: 11,
            validate: true,
        };
        let cells = run_matrix(&ds, &spec);
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 3);
        for c in &cells {
            assert_eq!(c.result.queries, 4);
            assert_eq!(
                c.result.per_channel_tuning_bytes.len(),
                c.n_channels as usize
            );
            if c.channel == "C2-split" {
                assert_eq!(c.n_channels, 2);
                assert!(c.result.mean_switches > 0.0, "{c:?}");
            }
        }
        // The single-receiver axis entry reproduces the classic client:
        // every k1 cell on C1 matches its k2 sibling (one channel leaves
        // a second antenna idle).
        for k1 in cells
            .iter()
            .filter(|c| c.antenna == "k1" && c.channel == "C1")
        {
            let k2 = cells
                .iter()
                .find(|c| {
                    c.antenna == "k2"
                        && c.scheme == k1.scheme
                        && c.channel == k1.channel
                        && c.loss == k1.loss
                        && c.workload == k1.workload
                })
                .expect("sibling cell");
            assert_eq!(k1.result.latency_bytes, k2.result.latency_bytes);
            assert_eq!(k1.result.tuning_bytes, k2.result.tuning_bytes);
        }
        let t = cells_table("matrix", &cells);
        assert_eq!(t.rows.len(), cells.len());
    }

    #[test]
    fn invalid_fixed_cells_are_rejected_not_fatal() {
        let ds = uniform_dataset_n(120);
        let spec = MatrixSpec {
            schemes: vec![("DSI".into(), Scheme::dsi_reorganized(64))],
            capacity: 64,
            channels: vec![
                ("C1".into(), ChannelConfig::single().into()),
                // Wrong explicit length for every cycle: structurally
                // invalid, so the pair must be rejected, not panic.
                (
                    "bad-explicit".into(),
                    ChannelConfig {
                        channels: 2,
                        placement: Placement::Explicit(vec![0, 1]),
                        switch_cost: 1,
                    }
                    .into(),
                ),
            ],
            antennas: Vec::new(),
            losses: vec![("lossless".into(), LossModel::None)],
            workloads: vec![("3NN".into(), WorkloadSpec::Knn { k: 3 }, 9)],
            n_queries: 2,
            seed: 5,
            validate: true,
        };
        let cells = run_matrix(&ds, &spec);
        assert_eq!(cells.len(), 1, "only the valid channel produces cells");
        assert_eq!(cells[0].channel, "C1");
    }

    #[test]
    fn optimized_cells_exist_exactly_when_blocked_ones_do() {
        // Tiny datasets: a cycle with fewer units than channels cannot be
        // spread over them, by `Blocked` or by any arc layout. The
        // optimized entry must reject the same (scheme, C) pairs as the
        // blocked one, with a diagnostic instead of a panic.
        let mut rejected = Vec::new();
        for n in 1..=5 {
            let ds = uniform_dataset_n(n);
            let mut channels = Vec::new();
            for c in [2u32, 4] {
                channels.push((format!("C{c}-blocked"), ChannelConfig::blocked(c, 2).into()));
                channels.push((
                    format!("C{c}-optimized"),
                    ChannelSpec::Optimized {
                        channels: c,
                        switch_cost: 2,
                        antennas: AntennaConfig::single(),
                        train_queries: 3,
                    },
                ));
            }
            let spec = MatrixSpec {
                schemes: vec![
                    ("DSI".into(), Scheme::dsi_reorganized(64)),
                    ("R-tree".into(), Scheme::RTree),
                    ("HCI".into(), Scheme::Hci),
                ],
                capacity: 64,
                channels,
                antennas: Vec::new(),
                losses: vec![("lossless".into(), LossModel::None)],
                workloads: vec![
                    ("window30".into(), WorkloadSpec::Window { ratio: 0.3 }, 3),
                    ("1NN".into(), WorkloadSpec::Knn { k: 1 }, 4),
                ],
                n_queries: 2,
                seed: 7,
                validate: true,
            };
            let cells = run_matrix(&ds, &spec);
            for scheme in ["DSI", "R-tree", "HCI"] {
                for c in [2, 4] {
                    let count = |kind: &str| {
                        let name = format!("C{c}-{kind}");
                        cells
                            .iter()
                            .filter(|cell| cell.scheme == scheme && cell.channel == name)
                            .count()
                    };
                    assert_eq!(count("optimized"), count("blocked"), "{scheme} N={n} C={c}");
                    if count("blocked") == 0 {
                        rejected.push((n, c));
                    }
                }
            }
        }
        // Every scheme rejects N = 1 at C = 2 and N <= 3 at C = 4.
        let expected: Vec<(usize, u32)> = [(1, 2), (1, 4), (2, 4), (3, 4)]
            .into_iter()
            .flat_map(|cell| [cell; 3])
            .collect();
        rejected.sort_unstable();
        assert_eq!(rejected, expected);
    }

    #[test]
    fn dsi_aggressive_fits_the_matrix_too() {
        let ds = uniform_dataset_n(150);
        let spec = MatrixSpec {
            schemes: vec![(
                "DSI-aggr".into(),
                Scheme::dsi_original(64, KnnStrategy::Aggressive),
            )],
            capacity: 64,
            channels: vec![("C2".into(), ChannelConfig::blocked(2, 1).into())],
            antennas: Vec::new(),
            losses: vec![("lossless".into(), LossModel::None)],
            workloads: vec![("3NN".into(), WorkloadSpec::Knn { k: 3 }, 9)],
            n_queries: 3,
            seed: 5,
            validate: true,
        };
        let cells = run_matrix(&ds, &spec);
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn optimized_channel_spec_resolves_and_predicts() {
        let ds = uniform_dataset_n(250);
        let spec = MatrixSpec {
            schemes: vec![
                ("DSI".into(), Scheme::dsi_reorganized(64)),
                ("R-tree".into(), Scheme::RTree),
                ("HCI".into(), Scheme::Hci),
            ],
            capacity: 64,
            channels: vec![
                ("C4-blocked".into(), ChannelConfig::blocked(4, 2).into()),
                (
                    "C4-optimized".into(),
                    ChannelSpec::Optimized {
                        channels: 4,
                        switch_cost: 2,
                        antennas: AntennaConfig::single(),
                        train_queries: 6,
                    },
                ),
            ],
            antennas: vec![
                ("k1".into(), AntennaConfig::single()),
                ("k2".into(), AntennaConfig::new(2)),
            ],
            losses: vec![("lossless".into(), LossModel::None)],
            workloads: vec![
                ("window10".into(), WorkloadSpec::Window { ratio: 0.1 }, 3),
                ("3NN".into(), WorkloadSpec::Knn { k: 3 }, 4),
            ],
            n_queries: 5,
            seed: 13,
            validate: true,
        };
        // `validate: true` checks every answer against brute force, so
        // this also proves optimized placements preserve answers.
        let cells = run_matrix(&ds, &spec);
        assert_eq!(cells.len(), 3 * 2 * 2 * 2);
        for c in &cells {
            if c.channel == "C4-optimized" {
                assert_eq!(c.n_channels, 4);
                let p = c.predicted_latency_bytes.expect("optimized predicts");
                assert!(p.is_finite() && p > 0.0);
            } else {
                assert_eq!(c.predicted_latency_bytes, None);
            }
        }
        let t = cells_table("matrix", &cells);
        assert_eq!(t.columns.last().map(String::as_str), Some("loss retunes"));
        assert_eq!(t.columns[9], "predicted");
        assert!(t.rows.iter().any(|r| r[9] != "-"));
        assert!(t.rows.iter().any(|r| r[9] == "-"));
        // Lossless cells report an all-quiet robustness tail.
        assert!(t.rows.iter().all(|r| r[10] == "0.00" && r[11] == "0"));
    }
}
