//! The benchmark's own tests: every workload at reduced scale, run in
//! process through the functions the binary calls.
//!
//! Each asserts that the run checks out (`error_rate` 0), that the air
//! metrics repeat exactly across runs and worker counts, and that every
//! metric printed is declared in `BENCHMARK.json`.

#[path = "support/json.rs"]
mod json;

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;

use dsi_perfbench::layers::traced;
use dsi_perfbench::metrics::{declared, Report};
use dsi_perfbench::run::{build, jobs, nproc, reference_pass, untraced, Job};
use dsi_perfbench::trace::{layer_of, Tracer};
use dsi_perfbench::workload::{Inputs, Workload};
use dsi_sim::{run_fleet, run_query_batch_at, BatchOptions, FleetSpec};
use json::Json;

/// Workload size used by these tests, as a share of the full size.
const SCALE: f64 = 0.02;
const SEED: u64 = 5;
/// Timed-section budget of a test run, in seconds.
const SECONDS: f64 = 0.3;

const AIR: [&str; 6] = [
    "air_latency_bytes_mean",
    "air_latency_bytes_p50",
    "air_latency_bytes_p99",
    "air_tuning_bytes_mean",
    "air_tuning_bytes_p50",
    "air_tuning_bytes_p99",
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in `section` of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .unwrap_or_else(|| panic!("{section} in BENCHMARK.json"))
        .as_array()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn inputs(workload: Workload) -> Inputs {
    Inputs::generate(workload, SEED, SCALE).expect("inputs")
}

/// Checks a finished run and returns its result line, rendered as the
/// binary prints it and parsed.
fn checked_result(workload: Workload, report: &Report, traced: bool) -> Json {
    let name = workload.name();
    assert_eq!(
        report.failed,
        0,
        "{name}: error_rate {}",
        report.error_rate()
    );
    assert!(report.attempted >= 1, "{name}");
    let computed: Vec<&str> = report.metrics.keys().map(String::as_str).collect();
    let mut wanted: Vec<&str> = declared(traced).iter().map(|&(n, _)| n).collect();
    wanted.sort_unstable();
    assert_eq!(computed, wanted, "{name}: computed metrics");

    let text = report.render(&declared(traced));
    let last = text.lines().last().expect("a result line");
    let r = Json::parse(last).unwrap_or_else(|e| panic!("{name}: {e}: {last}"));
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{name}");
    assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
    let section = if traced { "per_layer" } else { "end_to_end" };
    let in_json: Vec<String> = benchmark_metrics(section)
        .into_iter()
        .map(|m| m.0)
        .collect();
    assert_eq!(
        r.get("metrics").expect("metrics").keys(),
        in_json,
        "{name}: printed metrics"
    );
    r
}

fn metric(r: &Json, name: &str) -> f64 {
    r.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let b = benchmark_json();
    let workloads: Vec<&str> = b
        .get("workloads")
        .expect("workloads")
        .as_array()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let owned = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
        v.into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(benchmark_metrics("end_to_end"), owned(declared(false)));
    assert_eq!(benchmark_metrics("per_layer"), owned(declared(true)));

    // Set-up time carries the largest bound.
    let bounds: Vec<(&str, f64)> = b
        .get("end_to_end")
        .expect("end_to_end")
        .as_array()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            (name, m.get("bound").and_then(Json::as_f64).expect("bound"))
        })
        .collect();
    let setup = bounds.iter().find(|m| m.0 == "setup_s").expect("setup_s").1;
    assert!(bounds.iter().all(|m| m.1 <= setup), "{bounds:?}");
}

#[test]
fn untraced_runs_are_correct_repeatable_and_declared() {
    for w in Workload::ALL {
        let inputs = inputs(w);
        let first = untraced(&inputs, SECONDS).expect("first run");
        let second = untraced(&inputs, SECONDS).expect("second run");
        let (first, second) = (
            checked_result(w, &first, false),
            checked_result(w, &second, false),
        );
        for name in AIR {
            assert_eq!(
                metric(&first, name),
                metric(&second, name),
                "{} {name}",
                w.name()
            );
            assert!(metric(&first, name) > 0.0, "{} {name}", w.name());
        }
    }
}

/// Spans per name, outside the benchmark's own `bench` layer.
fn layer_spans(t: &Tracer) -> BTreeMap<&'static str, usize> {
    let mut count = BTreeMap::new();
    for s in t.spans().iter().filter(|s| layer_of(s.name) != "bench") {
        *count.entry(s.name).or_insert(0) += 1;
    }
    count
}

fn timed_spans(t: &Tracer) -> usize {
    t.spans()
        .iter()
        .filter(|s| s.name.starts_with("bench.timed."))
        .count()
}

/// A traced run reports every per-layer metric. Its time budget only
/// buys more `bench.timed.*` repetitions for the overhead measurement:
/// every span in a measured layer, and so every `self_ms.<layer>`, comes
/// from a pass whose size does not depend on `--seconds`.
#[test]
fn traced_runs_report_every_layer_from_a_budget_independent_pass() {
    for w in Workload::ALL {
        let inputs = inputs(w);
        let (short_report, short) = traced(&inputs, 0.05).expect("short traced run");
        let (long_report, long) = traced(&inputs, 4.0 * SECONDS).expect("long traced run");
        checked_result(w, &short_report, true);
        checked_result(w, &long_report, true);
        assert_eq!(layer_spans(&short), layer_spans(&long), "{}", w.name());
        assert!(
            timed_spans(&long) > timed_spans(&short),
            "{}: the longer budget runs more repetitions",
            w.name()
        );
    }
}

/// The air metrics come from the one-worker (or sequential) reference;
/// the timed section runs on every worker. Both must give the same air.
#[test]
fn air_metrics_do_not_depend_on_the_worker_count() {
    let many = nproc().max(2);
    for w in Workload::ALL {
        let inputs = inputs(w);
        let built = build(&inputs);
        let mut calls = jobs(&inputs, &built);
        let mut report = Default::default();
        let mut air = reference_pass(&built, &inputs, &mut calls, &mut report);
        assert_eq!(report.failed, 0, "{}", w.name());
        let (mut latency, mut tuning) = (0u64, 0u64);
        for job in &calls {
            match job {
                Job::Fleet {
                    scheme,
                    spec,
                    reference,
                } => {
                    let spec = FleetSpec {
                        workers: many,
                        ..spec.clone()
                    };
                    let (_, got) = run_fleet(&built.engines[*scheme], None, &spec);
                    assert_eq!(Some(&got), reference.as_deref(), "{}", w.name());
                    let cap = u64::from(got.capacity);
                    latency += got.latency.iter().sum::<u64>() * cap;
                    tuning += got.tuning.iter().sum::<u64>() * cap;
                }
                Job::Batch {
                    scheme,
                    queries,
                    starts,
                    seeds,
                    reference,
                    ..
                } => {
                    let opts = BatchOptions {
                        loss: inputs.loss.clone(),
                        validate: true,
                        antennas: inputs.antennas,
                        ..BatchOptions::default()
                    };
                    let engine = Arc::clone(&built.engines[*scheme]);
                    let r =
                        run_query_batch_at(&engine, &built.dataset, queries, starts, seeds, &opts);
                    assert_eq!(Some((r.latency_bytes, r.tuning_bytes)), *reference);
                    latency += (r.latency_bytes * queries.len() as f64).round() as u64;
                    tuning += (r.tuning_bytes * queries.len() as f64).round() as u64;
                }
            }
        }
        let n = air.latency.len() as f64;
        assert_eq!(
            air.latency.summary().mean,
            latency as f64 / n,
            "{}",
            w.name()
        );
        assert_eq!(air.tuning.summary().mean, tuning as f64 / n, "{}", w.name());
    }
}

/// A bad or unknown argument (the command takes no size option) stops
/// the binary before it prints a result.
#[test]
fn bad_arguments_print_no_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper_batch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec![
            "--workload",
            "paper_batch",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper_batch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale",
            "0.02",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsi-perfbench"))
            .args(&args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
