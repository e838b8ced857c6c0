//! Perf-tracking harness: measures client query-engine throughput and
//! writes `BENCH_PR15.json` so later PRs have a trajectory to beat.
//!
//! Runs seeded window and 10NN batches over one DSI broadcast twice —
//! once on the incremental state path and once on the from-scratch
//! baseline (`dsi_core::hotpath`) — single-threaded for stable timing,
//! and reports mean **and p50/p95** latency/tuning bytes plus wall-clock
//! queries per second and the incremental/from-scratch speedup. The
//! percentiles are deterministic air-cost quantiles (no wall-clock in
//! them), so they compare exactly across PRs.
//!
//! `--compare <prev.json>` reads a previous run (e.g. the committed
//! `BENCH_PR5.json`), prints per-metric deltas, and exits non-zero when
//! any incremental metric regressed by more than
//! `DSI_BENCH_MAX_REGRESSION` (a fraction, default 0.10) — so CI can keep
//! both the harness and the perf trajectory honest. Metrics absent from
//! the older baseline (the percentiles, pre-PR 3) are skipped. The run's
//! own JSON records the baseline it compared against (`compared_against`:
//! path and, when present, the baseline's `pr` number) — gap PRs that
//! ship no bench JSON leave the lineage readable.
//!
//! Since PR 8 the run also exercises the **fleet engine**
//! (`dsi_sim::fleet`): a population of `DSI_FLEET_CLIENTS` (default
//! 200,000) concurrent clients on the same broadcast, A/B-measured in the
//! same process against the classic one-`run_query_batch`-call-per-client
//! loop over the *same* population (interleaved passes, so host noise
//! hits both arms alike; the deliberately slow baseline is rate-measured
//! on a deterministic population subsample). The `fleet` section of the
//! JSON reports clients/sec, served events/sec, the baseline events/sec
//! and speedup, and population latency/tuning p50/p95/p99. Fleet
//! *outcomes* are pinned bit-identical to the sequential oracle by the
//! differential suite and the `fleet` binary's equality gate; this
//! harness only adds the throughput trajectory.
//!
//! Scale knobs: `DSI_N` (objects, default 10,000), `DSI_QUERIES` (queries
//! per batch, default 200), `DSI_FLEET_CLIENTS` (fleet population,
//! default 200,000), `DSI_BENCH_OUT` (output path, default
//! `BENCH_PR15.json`).
//!
//! The committed `BENCH_PR15.json` was produced at full scale with
//! `--compare BENCH_PR14.json`, the newest committed baseline; the
//! classic air metrics must stay bit-identical.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dsi_broadcast::{LossModel, MeanStats, Query, QueryStats, Tuner};
use dsi_core::hotpath::{self, StatePath};
use dsi_core::{DsiAir, DsiConfig, KnnStrategy};
use dsi_datagen::{knn_points, uniform, window_queries, SpatialDataset};
use dsi_sim::fleet::{baseline_loop, run_fleet, BaselineRun, FleetSpec, FleetStats};
use dsi_sim::{env_knob, Engine, Scheme};

const CAPACITY: u32 = 64;
const ORDER: u8 = 12;
const K: usize = 10;
const WINDOW_RATIO: f64 = 0.1;
const PR: u32 = 15;

#[derive(Clone, Copy)]
struct BatchMetrics {
    queries: u64,
    wall_seconds: f64,
    queries_per_sec: f64,
    mean_latency_bytes: f64,
    mean_tuning_bytes: f64,
    p50_latency_bytes: u64,
    p95_latency_bytes: u64,
    p50_tuning_bytes: u64,
    p95_tuning_bytes: u64,
}

/// Nearest-rank percentile of a sorted sample (q in [0, 1]).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Deterministic tune-in instant for query `qi`.
fn start_of(qi: usize, cycle: u64) -> u64 {
    (qi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % cycle
}

fn run_windows(
    air: &DsiAir,
    windows: &[dsi_geom::Rect],
    validate: Option<&SpatialDataset>,
) -> BatchMetrics {
    let cycle = air.program().len();
    let mut stats = Vec::with_capacity(windows.len());
    let t0 = Instant::now();
    for (qi, w) in windows.iter().enumerate() {
        let mut tuner = Tuner::tune_in(
            air.program(),
            start_of(qi, cycle),
            LossModel::None,
            qi as u64,
        );
        let got = air.window_query(&mut tuner, w);
        if let Some(ds) = validate {
            assert_eq!(got, ds.brute_window(w), "window {qi} answer mismatch");
        }
        stats.push(tuner.stats());
    }
    finish(stats, t0)
}

fn run_knns(
    air: &DsiAir,
    points: &[dsi_geom::Point],
    validate: Option<&SpatialDataset>,
) -> BatchMetrics {
    let cycle = air.program().len();
    let mut stats = Vec::with_capacity(points.len());
    let t0 = Instant::now();
    for (qi, q) in points.iter().enumerate() {
        let mut tuner = Tuner::tune_in(
            air.program(),
            start_of(qi, cycle),
            LossModel::None,
            qi as u64,
        );
        let got = air.knn_query(&mut tuner, *q, K, KnnStrategy::Conservative);
        if let Some(ds) = validate {
            assert_eq!(got, ds.brute_knn(*q, K), "kNN {qi} answer mismatch");
        }
        stats.push(tuner.stats());
    }
    finish(stats, t0)
}

fn finish(stats: Vec<QueryStats>, t0: Instant) -> BatchMetrics {
    let wall = t0.elapsed().as_secs_f64();
    let mut m = MeanStats::default();
    let mut latencies: Vec<u64> = Vec::with_capacity(stats.len());
    let mut tunings: Vec<u64> = Vec::with_capacity(stats.len());
    for s in &stats {
        m.push(*s);
        latencies.push(s.latency_bytes());
        tunings.push(s.tuning_bytes());
    }
    latencies.sort_unstable();
    tunings.sort_unstable();
    BatchMetrics {
        queries: m.count(),
        wall_seconds: wall,
        queries_per_sec: m.count() as f64 / wall,
        mean_latency_bytes: m.latency_bytes(),
        mean_tuning_bytes: m.tuning_bytes(),
        p50_latency_bytes: percentile(&latencies, 0.50),
        p95_latency_bytes: percentile(&latencies, 0.95),
        p50_tuning_bytes: percentile(&tunings, 0.50),
        p95_tuning_bytes: percentile(&tunings, 0.95),
    }
}

fn batch_json(out: &mut String, name: &str, inc: BatchMetrics, scratch: BatchMetrics) {
    let speedup = inc.queries_per_sec / scratch.queries_per_sec;
    let _ = write!(
        out,
        "  \"{name}\": {{\n    \"incremental\": {},\n    \"from_scratch\": {},\n    \"speedup\": {speedup:.3}\n  }}",
        metrics_json(inc),
        metrics_json(scratch),
    );
}

fn metrics_json(m: BatchMetrics) -> String {
    format!(
        "{{\"queries\": {}, \"wall_seconds\": {:.4}, \"queries_per_sec\": {:.1}, \"mean_latency_bytes\": {:.1}, \"mean_tuning_bytes\": {:.1}, \"p50_latency_bytes\": {}, \"p95_latency_bytes\": {}, \"p50_tuning_bytes\": {}, \"p95_tuning_bytes\": {}}}",
        m.queries,
        m.wall_seconds,
        m.queries_per_sec,
        m.mean_latency_bytes,
        m.mean_tuning_bytes,
        m.p50_latency_bytes,
        m.p95_latency_bytes,
        m.p50_tuning_bytes,
        m.p95_tuning_bytes
    )
}

fn report(name: &str, inc: BatchMetrics, scratch: BatchMetrics) {
    println!(
        "{name:>8}: incremental {:>9.1} q/s | from-scratch {:>9.1} q/s | speedup {:.2}x | mean latency {:.0} B, tuning {:.0} B | latency p50/p95 {}/{} B | tuning p50/p95 {}/{} B",
        inc.queries_per_sec,
        scratch.queries_per_sec,
        inc.queries_per_sec / scratch.queries_per_sec,
        inc.mean_latency_bytes,
        inc.mean_tuning_bytes,
        inc.p50_latency_bytes,
        inc.p95_latency_bytes,
        inc.p50_tuning_bytes,
        inc.p95_tuning_bytes,
    );
}

/// Pulls one numeric field of a named batch's incremental record out of a
/// previous run's JSON (the fixed shape this binary writes; no JSON crate
/// in the offline build image).
fn extract_incremental(json: &str, section: &str, field: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let inc = sec + json[sec..].find("\"incremental\"")?;
    let key = format!("\"{field}\":");
    let val = inc + json[inc..].find(&key)? + key.len();
    let rest = json[val..].trim_start();
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Pulls a top-level numeric field (e.g. `"pr"`) out of a previous run's
/// JSON. Best-effort: absent in hand-edited or pre-PR 3 baselines.
fn extract_top_number(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let val = json.find(&key)? + key.len();
    let rest = json[val..].trim_start();
    let end = rest.find([',', '}', '\n'])?;
    rest[..end].trim().parse().ok()
}

/// Prints per-metric deltas against a previous run (already read into
/// `prev`) and returns whether any incremental metric regressed beyond
/// `max_regression`: throughput dropping, or mean latency / tuning bytes
/// (the paper's access-time and energy costs) growing, by more than the
/// margin.
fn compare_against(
    prev_path: &str,
    prev: &str,
    batches: &[(&str, BatchMetrics)],
    max_regression: f64,
) -> bool {
    let mut regressed = false;
    println!(
        "--- comparison vs {prev_path} (fail beyond {:.0}% regression) ---",
        max_regression * 100.0
    );
    for &(name, m) in batches {
        // `(field, new value, higher-is-better)`.
        let metrics = [
            ("queries_per_sec", m.queries_per_sec, true),
            ("mean_latency_bytes", m.mean_latency_bytes, false),
            ("mean_tuning_bytes", m.mean_tuning_bytes, false),
            ("p50_latency_bytes", m.p50_latency_bytes as f64, false),
            ("p95_latency_bytes", m.p95_latency_bytes as f64, false),
            ("p50_tuning_bytes", m.p50_tuning_bytes as f64, false),
            ("p95_tuning_bytes", m.p95_tuning_bytes as f64, false),
        ];
        for (field, new, higher_better) in metrics {
            let Some(old) = extract_incremental(prev, name, field) else {
                println!("{name:>8}.{field}: not present in baseline, skipped");
                continue;
            };
            let ratio = new / old;
            let bad = if higher_better {
                ratio < 1.0 - max_regression
            } else {
                ratio > 1.0 + max_regression
            };
            let verdict = if bad {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{name:>8}.{field}: {new:>12.1} vs {old:>12.1} ({:+.1}%) {verdict}",
                (ratio - 1.0) * 100.0,
            );
        }
    }
    regressed
}

/// One fleet workload's interleaved A/B result.
struct FleetAb {
    stats: FleetStats,
    baseline: BaselineRun,
    baseline_stride: usize,
}

impl FleetAb {
    /// Baseline events (tuning packets) served per second, from the
    /// subsampled rate measurement.
    fn baseline_events_per_sec(&self) -> f64 {
        (self.baseline.tuning_bytes / CAPACITY as f64) / self.baseline.wall_seconds
    }

    /// Fleet served-events/sec over baseline events/sec.
    fn events_speedup(&self) -> f64 {
        self.stats.events_per_sec / self.baseline_events_per_sec()
    }
}

/// Runs one fleet workload and its classic-loop baseline, interleaved
/// (fleet, baseline, fleet, baseline), keeping the best pass of each arm.
fn run_fleet_ab(
    engine: &Arc<Engine>,
    ds: &Arc<SpatialDataset>,
    pool: Vec<Query>,
    clients: usize,
) -> FleetAb {
    let spec = FleetSpec {
        skew: 1.1,
        ..FleetSpec::new(clients, pool)
    };
    // Rate-measure the slow baseline on ~300 clients of the population.
    let baseline_stride = clients.div_ceil(300).max(1);
    let mut best: Option<(FleetStats, BaselineRun)> = None;
    for _ in 0..2 {
        let (stats, _) = run_fleet(engine, None, &spec);
        let base = baseline_loop(engine, ds, &spec, baseline_stride);
        best = Some(match best.take() {
            None => (stats, base),
            Some((bs, bb)) => (
                if stats.wall_seconds < bs.wall_seconds {
                    stats
                } else {
                    bs
                },
                if base.wall_seconds < bb.wall_seconds {
                    base
                } else {
                    bb
                },
            ),
        });
    }
    let (stats, baseline) = best.expect("two passes ran");
    FleetAb {
        stats,
        baseline,
        baseline_stride,
    }
}

fn fleet_report(name: &str, ab: &FleetAb) {
    let s = &ab.stats;
    println!(
        "fleet {name:>6}: {} clients | {} drives ({:.1}% coalesced) | {:>9.0} clients/s | {:.3e} events/s | baseline {:.3e} events/s ({:.1}x) | lat p50/p95/p99 {}/{}/{} pkt | tun p50/p95/p99 {}/{}/{} pkt",
        s.clients,
        s.drives,
        100.0 * s.coalesced as f64 / s.clients.max(1) as f64,
        s.clients_per_sec,
        s.events_per_sec,
        ab.baseline_events_per_sec(),
        ab.events_speedup(),
        s.latency.p50,
        s.latency.p95,
        s.latency.p99,
        s.tuning.p50,
        s.tuning.p95,
        s.tuning.p99,
    );
}

fn fleet_json(out: &mut String, name: &str, ab: &FleetAb) {
    let s = &ab.stats;
    let _ = write!(
        out,
        "    \"{name}\": {{\"drives\": {}, \"coalesced\": {}, \"wall_seconds\": {:.4}, \"clients_per_sec\": {:.1}, \"events_per_sec\": {:.1}, \"baseline_clients\": {}, \"baseline_stride\": {}, \"baseline_wall_seconds\": {:.4}, \"baseline_events_per_sec\": {:.1}, \"events_speedup\": {:.2}, \"latency_p50\": {}, \"latency_p95\": {}, \"latency_p99\": {}, \"tuning_p50\": {}, \"tuning_p95\": {}, \"tuning_p99\": {}, \"share_hits\": {}, \"share_misses\": {}}}",
        s.drives,
        s.coalesced,
        s.wall_seconds,
        s.clients_per_sec,
        s.events_per_sec,
        ab.baseline.clients,
        ab.baseline_stride,
        ab.baseline.wall_seconds,
        ab.baseline_events_per_sec(),
        ab.events_speedup(),
        s.latency.p50,
        s.latency.p95,
        s.latency.p99,
        s.tuning.p50,
        s.tuning.p95,
        s.tuning.p99,
        s.window_cache_hits,
        s.window_cache_misses,
    );
}

fn main() {
    let n: usize = env_knob("DSI_N", 10_000);
    let n_queries: usize = env_knob("DSI_QUERIES", 200);
    assert!(n > 0, "DSI_N must be at least 1");
    assert!(n_queries > 0, "DSI_QUERIES must be at least 1");
    let out_path = std::env::var("DSI_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR15.json".into());
    let args: Vec<String> = std::env::args().collect();
    let compare_path = args
        .iter()
        .position(|a| a == "--compare")
        .map(|i| args.get(i + 1).expect("--compare needs a path").clone());
    // Read the baseline up front (fail before the long measurement, not
    // after) and name it in this run's JSON: gap PRs whose baseline is
    // several PRs old stay self-documenting.
    let baseline = compare_path.as_ref().map(|p| {
        let content = std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("cannot read comparison baseline {p}: {e}"));
        (p.clone(), content)
    });
    let compared_against = match &baseline {
        Some((path, content)) => match extract_top_number(content, "pr") {
            Some(pr) => format!("{{\"path\": \"{path}\", \"pr\": {pr}}}"),
            None => format!("{{\"path\": \"{path}\"}}"),
        },
        None => "null".to_string(),
    };
    let max_regression: f64 = env_knob("DSI_BENCH_MAX_REGRESSION", 0.10);

    println!("=== DSI client query-engine perf (N = {n}, {n_queries} queries/batch, {CAPACITY} B packets) ===");
    let ds = SpatialDataset::build(&uniform(n, 42), ORDER);
    let air = DsiAir::build(&ds, DsiConfig::paper_reorganized().with_capacity(CAPACITY));
    let windows = window_queries(n_queries, WINDOW_RATIO, 99);
    let points = knn_points(n_queries, 17);

    // Correctness pass (untimed): both paths must answer identically.
    hotpath::set_state_path(StatePath::Incremental);
    run_windows(&air, &windows[..n_queries.min(20)], Some(&ds));
    run_knns(&air, &points[..n_queries.min(20)], Some(&ds));
    hotpath::set_state_path(StatePath::FromScratch);
    run_windows(&air, &windows[..n_queries.min(20)], Some(&ds));
    run_knns(&air, &points[..n_queries.min(20)], Some(&ds));

    // Timed passes: warm up each path once, then keep the best of three
    // measured passes — shared-host scheduling noise otherwise dominates
    // run-to-run comparisons of sub-second batches.
    let fastest = |a: BatchMetrics, b: BatchMetrics| {
        if b.wall_seconds < a.wall_seconds {
            b
        } else {
            a
        }
    };
    let mut measured = Vec::new();
    for path in [StatePath::Incremental, StatePath::FromScratch] {
        hotpath::set_state_path(path);
        hotpath::reset_counters();
        run_windows(&air, &windows, None);
        run_knns(&air, &points, None);
        let mut w = run_windows(&air, &windows, None);
        let mut k = run_knns(&air, &points, None);
        for _ in 0..2 {
            w = fastest(w, run_windows(&air, &windows, None));
            k = fastest(k, run_knns(&air, &points, None));
        }
        let (full, events) = hotpath::counters();
        match path {
            StatePath::Incremental => assert_eq!(
                full, 0,
                "incremental path performed a from-scratch recomputation"
            ),
            _ => assert!(full > 0, "baseline path did not recompute"),
        }
        let _ = events;
        measured.push((w, k));
    }
    hotpath::set_state_path(StatePath::Incremental);
    let (win_inc, knn_inc) = measured[0];
    let (win_scr, knn_scr) = measured[1];

    report("window", win_inc, win_scr);
    report("knn10", knn_inc, knn_scr);

    // Fleet phase: the same broadcast serving a concurrent population,
    // interleaved A/B against the classic per-client loop.
    let fleet_clients: usize = env_knob("DSI_FLEET_CLIENTS", 200_000);
    let ds = Arc::new(ds);
    let engine = Arc::new(Engine::build(
        Scheme::dsi_reorganized(CAPACITY),
        &ds,
        CAPACITY,
    ));
    let win_pool: Vec<Query> = windows.iter().take(8).copied().map(Query::Window).collect();
    let knn_pool: Vec<Query> = points
        .iter()
        .take(8)
        .copied()
        .map(|p| Query::Knn(p, K))
        .collect();
    let fleet_win = run_fleet_ab(&engine, &ds, win_pool, fleet_clients);
    let fleet_knn = run_fleet_ab(&engine, &ds, knn_pool, fleet_clients);
    fleet_report("window", &fleet_win);
    fleet_report("knn10", &fleet_knn);
    println!(
        "fleet  knn10: effective {:.0} q/s vs {:.0} q/s classic loop this run ({:.1}x; BENCH_PR6 single-client reference ~529 q/s)",
        fleet_knn.stats.clients_per_sec,
        knn_inc.queries_per_sec,
        fleet_knn.stats.clients_per_sec / knn_inc.queries_per_sec,
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"dsi_client_query_engine\",\n  \"pr\": {PR},\n  \"compared_against\": {compared_against},\n  \"n\": {n},\n  \"queries_per_batch\": {n_queries},\n  \"capacity_bytes\": {CAPACITY},\n  \"k\": {K},\n  \"window_ratio\": {WINDOW_RATIO},"
    );
    batch_json(&mut json, "window", win_inc, win_scr);
    json.push_str(",\n");
    batch_json(&mut json, "knn10", knn_inc, knn_scr);
    json.push_str(",\n");
    let _ = writeln!(
        json,
        "  \"fleet\": {{\n    \"clients\": {fleet_clients},\n    \"workers\": {},",
        fleet_win.stats.workers
    );
    fleet_json(&mut json, "window", &fleet_win);
    json.push_str(",\n");
    fleet_json(&mut json, "knn10", &fleet_knn);
    json.push_str("\n  }\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("[wrote {out_path}]");

    if let Some((prev_path, prev)) = baseline {
        let batches = [("window", win_inc), ("knn10", knn_inc)];
        if compare_against(&prev_path, &prev, &batches, max_regression) {
            eprintln!("perf regression beyond the allowed margin");
            std::process::exit(1);
        }
    }
}
