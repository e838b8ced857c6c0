//! Metric declarations, sample statistics and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] name the metrics the benchmark prints,
//! with their units. `BENCHMARK.json` holds the same names and units (the
//! package tests keep the two equal) and is the only place that gives each
//! metric its direction and bound. Each per-layer metric carries the
//! end-to-end metric and workload it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One per-layer metric and what it should move.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end metric and workload a change here should move.
    pub moves: &'static str,
}

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("air_latency_bytes_mean", "bytes"),
    ("air_latency_bytes_p50", "bytes"),
    ("air_latency_bytes_p99", "bytes"),
    ("air_tuning_bytes_mean", "bytes"),
    ("air_tuning_bytes_p50", "bytes"),
    ("air_tuning_bytes_p99", "bytes"),
    ("peak_rss_mib", "MiB"),
];

const SETUP: &str = "setup_s on every workload";
const HILBERT: &str = "queries_per_s on paper_batch; little effect on window_fleet";
const CORE_WINDOW: &str = "queries_per_s on window_fleet (window drives)";
const CORE_KNN: &str = "queries_per_s on paper_batch (10NN)";
const CORE: &str = "queries_per_s on window_fleet and paper_batch";
const TREES: &str = "queries_per_s on paper_batch (k=1) and lossy_channels (k=2)";
const BROADCAST: &str =
    "queries_per_s and the air metrics on lossy_channels; no change on the other two";
const RUNNER: &str = "queries_per_s on paper_batch";
const FLEET: &str = "queries_per_s on window_fleet, and on lossy_channels for scaling";
const TRACE: &str = "none: the cost of the traced run itself";

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer { name, unit, moves }
}

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[Layer] = &[
    layer("datagen.dataset_ms", "ms", SETUP),
    layer("core.build_ms", "ms", SETUP),
    layer("rtree.build_ms", "ms", SETUP),
    layer("bptree.build_ms", "ms", SETUP),
    layer("verify.static_model_ms.dsi", "ms", SETUP),
    layer("verify.static_model_ms.rtree", "ms", SETUP),
    layer("verify.static_model_ms.hci", "ms", SETUP),
    layer("hilbert.rect_us.p50", "us", HILBERT),
    layer("hilbert.rect_us.p99", "us", HILBERT),
    layer("hilbert.rect_ranges", "count/query", HILBERT),
    layer("hilbert.circle_us.p50", "us", HILBERT),
    layer("hilbert.circle_us.p99", "us", HILBERT),
    layer("hilbert.circle_ranges", "count/query", HILBERT),
    layer("core.window_us.p50", "us", CORE_WINDOW),
    layer("core.window_us.p99", "us", CORE_WINDOW),
    layer("core.knn_us.p50", "us", CORE_KNN),
    layer("core.knn_us.p99", "us", CORE_KNN),
    layer("core.knn_refreshes", "count/query", CORE_KNN),
    layer("core.knn_ranges", "count/query", CORE_KNN),
    layer("core.knn_peak_cands", "count/query", CORE_KNN),
    layer("core.state_events", "count/query", CORE_KNN),
    layer("core.share_hit_ratio", "ratio", CORE_WINDOW),
    layer("rtree.window_us.p50", "us", TREES),
    layer("rtree.window_us.p99", "us", TREES),
    layer("rtree.knn_us.p50", "us", TREES),
    layer("rtree.knn_us.p99", "us", TREES),
    layer("bptree.window_us.p50", "us", TREES),
    layer("bptree.window_us.p99", "us", TREES),
    layer("bptree.knn_us.p50", "us", TREES),
    layer("bptree.knn_us.p99", "us", TREES),
    layer("broadcast.reads.dsi", "count/query", BROADCAST),
    layer("broadcast.reads.rtree", "count/query", BROADCAST),
    layer("broadcast.reads.hci", "count/query", BROADCAST),
    layer("broadcast.lost.dsi", "count/query", BROADCAST),
    layer("broadcast.lost.rtree", "count/query", BROADCAST),
    layer("broadcast.lost.hci", "count/query", BROADCAST),
    layer("broadcast.loss_retunes.dsi", "count/query", BROADCAST),
    layer("broadcast.loss_retunes.rtree", "count/query", BROADCAST),
    layer("broadcast.loss_retunes.hci", "count/query", BROADCAST),
    layer("broadcast.switches.dsi", "count/query", BROADCAST),
    layer("broadcast.switches.rtree", "count/query", BROADCAST),
    layer("broadcast.switches.hci", "count/query", BROADCAST),
    layer("broadcast.ns_per_read.dsi", "ns", BROADCAST),
    layer("broadcast.ns_per_read.rtree", "ns", BROADCAST),
    layer("broadcast.ns_per_read.hci", "ns", BROADCAST),
    layer("sim.runner.parallel_efficiency", "ratio", RUNNER),
    layer("sim.fleet.drives_per_client", "ratio", FLEET),
    layer("sim.fleet.population_ms", "ms", FLEET),
    layer("sim.fleet.anchor_ms", "ms", FLEET),
    layer("sim.fleet.parallel_speedup", "ratio", FLEET),
    layer("sim.fleet.bookkeeping_share", "ratio", FLEET),
    layer("self_ms.datagen", "ms", SETUP),
    layer("self_ms.core", "ms", CORE),
    layer("self_ms.rtree", "ms", TREES),
    layer("self_ms.bptree", "ms", TREES),
    layer("self_ms.verify", "ms", SETUP),
    layer("self_ms.hilbert", "ms", HILBERT),
    layer("self_ms.sim.runner", "ms", RUNNER),
    layer("self_ms.sim.fleet", "ms", FLEET),
    layer("trace.overhead_share", "ratio", TRACE),
];

/// (name, unit) of every metric a run reports: per-layer when `traced`,
/// end-to-end otherwise.
pub fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.to_vec()
    }
}

/// Median of `v` (mean of the middle pair for even lengths); `0` when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `v`; `0` when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Arithmetic mean; `0` when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// One reported value with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Samples behind it (repetitions, queries or clients).
    pub samples: usize,
}

/// A run's outcome: metrics plus the correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<String, Value>,
    /// Checked queries or clients.
    pub attempted: u64,
    /// Of those, answers that differed from the reference or panicked.
    pub failed: u64,
    /// Host facts and run sizes, printed before the metrics.
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics.insert(name.into(), Value { value, samples });
    }

    /// Records a host fact or run size.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Share of checked queries that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines followed by the one-line JSON result, in
    /// the order of `declared` (metric name, unit).
    pub fn render(&self, declared: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (k, v) in &self.facts {
            let _ = writeln!(out, "# {k}: {v}");
        }
        let _ = writeln!(
            out,
            "# error_rate: {} ({} failed of {} checked)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for (name, unit) in declared {
            if let Some(v) = self.metrics.get(*name) {
                let _ = writeln!(out, "{name} = {} {unit} (n = {})", v.value, v.samples);
            }
        }
        // A declared metric that is missing, or not a finite number (which
        // JSON cannot carry; it is printed as 0), makes the run incorrect.
        let mut complete = true;
        let mut json = String::new();
        for (name, unit) in declared {
            let Some(v) = self.metrics.get(*name) else {
                complete = false;
                continue;
            };
            if !json.is_empty() {
                json.push_str(", ");
            }
            complete &= v.value.is_finite();
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            complete && self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        out
    }
}
