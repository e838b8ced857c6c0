//! The traced run: per-layer metrics from spans around the calls the
//! benchmark makes into each module's public functions.
//!
//! Every traced run measures every layer on its own workload's dataset,
//! channel schedule, loss model and queries, so each per-layer metric is
//! a measurement on every workload. Where the timed section does not call
//! a layer, the traced run calls it once on the same inputs: `window_fleet`
//! has no kNN queries, so its kNN layers run 10NN at each pool window's
//! centre, and it builds R-tree and HCI only here; `paper_batch` has no
//! fleet, so its fleet layers run a uniform DSI fleet with as many
//! clients as it has queries. That fleet draws each client's query with
//! replacement, so it need not drive every query. The tags in
//! [`crate::metrics::PER_LAYER`] say on which workload each metric is
//! expected to move.
//!
//! The timed section's own calls, which the traced run repeats for its
//! whole time budget to measure the tracing overhead, record `bench.timed.*`
//! spans. Only the single pass of each layer below records spans in the
//! simulator's layers, so no layer's self time depends on the budget.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use dsi_bptree::{BpAir, BpAirConfig};
use dsi_broadcast::{MeanStats, Query, Tuner};
use dsi_core::share::{self, ShareCache};
use dsi_core::{hotpath, DsiAir, DsiConfig, KnnStrategy};
use dsi_datagen::SpatialDataset;
use dsi_geom::Point;
use dsi_hilbert::{ranges_in_circle_with_dist_into, ranges_in_rect};
use dsi_rtree::{RTreeAir, RtreeAirConfig};
use dsi_sim::{run_fleet, run_query_batch_at, BatchOptions, Engine, FleetSpec, Population, Scheme};
use dsi_verify::Verifiable;

use crate::clock::{process_cpu_seconds, HostTimer};
use crate::metrics::{mean, median, quantile, Report, PER_LAYER};
use crate::run::{
    brute, build, describe, differing_clients, jobs, nproc, reference_pass, repeat_for, repetition,
    Built, Job, SETUP_REPS,
};
use crate::trace::Tracer;
use crate::workload::{all_schemes, Driver, Inputs, CAPACITY, K, ORDER};

/// Calls per timed decomposition span (one call takes microseconds).
const HILBERT_REPS: usize = 8;
/// Representative drives replayed per fleet for the bookkeeping share.
const REP_SAMPLE: usize = 400;

/// Where a traced run writes its spans.
pub fn trace_path(inputs: &Inputs) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.jsonl",
            inputs.workload.name(),
            inputs.seed
        ))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Span name of a drive on `scheme`'s client layer.
fn drive_span(scheme: Scheme, kind: &str) -> &'static str {
    match (scheme, kind) {
        (Scheme::Dsi(..), "window") => "core.drive.window",
        (Scheme::Dsi(..), "knn") => "core.drive.knn",
        (Scheme::Dsi(..), _) => "core.drive.representative",
        (Scheme::RTree, "window") => "rtree.drive.window",
        (Scheme::RTree, "knn") => "rtree.drive.knn",
        (Scheme::RTree, _) => "rtree.drive.representative",
        (Scheme::Hci, "window") => "bptree.drive.window",
        (Scheme::Hci, "knn") => "bptree.drive.knn",
        (Scheme::Hci, _) => "bptree.drive.representative",
    }
}

/// Client layer prefix of `scheme` in metric names.
fn layer_prefix(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Dsi(..) => "core",
        Scheme::RTree => "rtree",
        Scheme::Hci => "bptree",
    }
}

/// Records `<prefix>.p50` and `<prefix>.p99` of `v`.
fn percentiles(report: &mut Report, prefix: &str, v: &[f64]) {
    report.set(format!("{prefix}.p50"), quantile(v, 0.50), v.len());
    report.set(format!("{prefix}.p99"), quantile(v, 0.99), v.len());
}

/// The set-up layers, timed [`SETUP_REPS`] times for all three schemes.
/// Returns the last DSI broadcast.
fn setup_layers(t: &mut Tracer, inputs: &Inputs, report: &mut Report) -> DsiAir {
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (dataset, ns) = t.run("datagen.dataset", || {
            SpatialDataset::build(&inputs.points, ORDER)
        });
        times
            .entry("datagen.dataset_ms")
            .or_default()
            .push(ms(ns.cpu_ns));
        let config = DsiConfig::paper_reorganized().with_capacity(CAPACITY);
        let (dsi, ns) = t.run("core.build", || {
            DsiAir::try_build_channels(&dataset, config, inputs.channels.clone())
        });
        let dsi = dsi.expect("the workload's channel schedule fits DSI");
        times
            .entry("core.build_ms")
            .or_default()
            .push(ms(ns.cpu_ns));
        let (_, ns) = t.run("verify.static_model.dsi", || {
            black_box(Verifiable::static_model(&dsi))
        });
        times
            .entry("verify.static_model_ms.dsi")
            .or_default()
            .push(ms(ns.cpu_ns));

        let objects: Vec<(u32, Point)> = dataset.objects().iter().map(|o| (o.id, o.pos)).collect();
        let (rtree, ns) = t.run("rtree.build", || {
            RTreeAir::try_build_channels(
                &objects,
                RtreeAirConfig::new(CAPACITY),
                inputs.channels.clone(),
            )
        });
        let rtree = rtree.expect("the workload's channel schedule fits the R-tree");
        times
            .entry("rtree.build_ms")
            .or_default()
            .push(ms(ns.cpu_ns));
        let (_, ns) = t.run("verify.static_model.rtree", || {
            black_box(Verifiable::static_model(&rtree))
        });
        times
            .entry("verify.static_model_ms.rtree")
            .or_default()
            .push(ms(ns.cpu_ns));

        let (bp, ns) = t.run("bptree.build", || {
            BpAir::try_build_channels(
                &dataset,
                BpAirConfig::new(CAPACITY),
                inputs.channels.clone(),
            )
        });
        let bp = bp.expect("the workload's channel schedule fits HCI");
        times
            .entry("bptree.build_ms")
            .or_default()
            .push(ms(ns.cpu_ns));
        let (_, ns) = t.run("verify.static_model.hci", || {
            black_box(Verifiable::static_model(&bp))
        });
        times
            .entry("verify.static_model_ms.hci")
            .or_default()
            .push(ms(ns.cpu_ns));
        last = Some(dsi);
    }
    for (name, v) in times {
        report.set(name, median(&v), v.len());
    }
    last.expect("at least one set-up")
}

/// Alternates untraced and traced repetitions of the timed section for
/// `seconds`; returns `1 − traced / untraced` median throughput and the
/// repetitions of each.
fn tracing_overhead(
    t: &mut Tracer,
    built: &Built,
    inputs: &Inputs,
    jobs: &[Job],
    seconds: f64,
    report: &mut Report,
) -> (f64, usize) {
    let pairs = repeat_for(seconds, || {
        let plain = repetition(built, inputs, jobs, report, None)?;
        let traced = repetition(built, inputs, jobs, report, Some(&mut *t))?;
        Some((plain, traced))
    });
    let (plain, traced): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    if traced.is_empty() {
        return (0.0, 0);
    }
    report.fact(
        "queries_per_s untraced / traced",
        format!(
            "{} / {} (n = {})",
            median(&plain),
            median(&traced),
            traced.len()
        ),
    );
    (1.0 - median(&traced) / median(&plain), traced.len())
}

/// Per-query records of the sequential replay on one scheme.
#[derive(Default)]
struct Replay {
    window_us: Vec<f64>,
    knn_us: Vec<f64>,
    drive_ns: u64,
    reads: u64,
    lost: u64,
    loss_retunes: u64,
    switches: u64,
    queries: usize,
    /// Mean bytes per query type, in query order, for the runner check.
    means: [MeanStats; 2],
}

/// The traced run: every per-layer metric.
pub fn traced(inputs: &Inputs, seconds: f64) -> std::io::Result<(Report, Tracer)> {
    let mut report = Report::default();
    describe(inputs, &mut report);
    let mut t = Tracer::new(inputs.workload.name());
    let root = t.begin("bench.run");

    let dsi_air = setup_layers(&mut t, inputs, &mut report);

    // The workload's own timed section, traced and untraced.
    let built = build(inputs);
    let mut own_jobs = jobs(inputs, &built);
    let reference = t.begin("bench.reference");
    reference_pass(&built, inputs, &mut own_jobs, &mut report);
    t.end(reference);
    own_jobs.retain(Job::has_reference);
    let (overhead, reps) =
        tracing_overhead(&mut t, &built, inputs, &own_jobs, seconds, &mut report);
    report.set("trace.overhead_share", overhead, reps);

    // Replay queries: the workload's windows, and its kNN points or, for
    // a window-only pool, 10NN at each window's centre.
    let knn_points: Vec<Point> = if inputs.knn.is_empty() {
        inputs.windows.iter().map(|w| w.center()).collect()
    } else {
        inputs.knn.clone()
    };
    let mut queries: Vec<Query> = inputs.windows.iter().map(|w| Query::Window(*w)).collect();
    queries.extend(knn_points.iter().map(|&p| Query::Knn(p, K)));
    let truth: Vec<Vec<u32>> = queries.iter().map(|q| brute(&built.dataset, q)).collect();

    hilbert_layer(&mut t, inputs, &built.dataset, &knn_points, &mut report);

    // Every scheme on the workload's dataset and channels; those the
    // timed section does not run are built here.
    let schemes = all_schemes();
    let engines: Vec<Arc<Engine>> = schemes
        .iter()
        .map(|&s| match inputs.schemes.iter().position(|&w| w == s) {
            Some(i) => Arc::clone(&built.engines[i]),
            None => Arc::new(Engine::build_channels(
                s,
                &built.dataset,
                CAPACITY,
                inputs.channels.clone(),
            )),
        })
        .collect();
    let mut replays = Vec::new();
    for (si, (&scheme, engine)) in schemes.iter().zip(&engines).enumerate() {
        let r = replay(
            &mut t,
            inputs,
            si,
            scheme,
            engine,
            &queries,
            &truth,
            &mut report,
        );
        let p = layer_prefix(scheme);
        percentiles(&mut report, &format!("{p}.window_us"), &r.window_us);
        percentiles(&mut report, &format!("{p}.knn_us"), &r.knn_us);
        broadcast_metrics(&mut report, scheme, &r);
        replays.push(r);
    }
    dsi_client_layer(&mut t, inputs, &dsi_air, &queries, &truth, &mut report);
    runner_layer(
        &mut t,
        inputs,
        &engines,
        &built.dataset,
        &queries,
        &replays,
        &mut report,
    );
    fleet_layer(&mut t, inputs, &built, &engines[0], &queries, &mut report);

    t.end(root);
    let self_ns = t.self_ns_by_layer();
    for name in PER_LAYER.iter().map(|m| m.name) {
        if let Some(layer) = name.strip_prefix("self_ms.") {
            report.set(name, ms(self_ns.get(layer).copied().unwrap_or(0)), 1);
        }
    }
    report.fact("spans", t.spans().len());
    Ok((report, t))
}

/// `hilbert`: window and circle decompositions.
fn hilbert_layer(
    t: &mut Tracer,
    inputs: &Inputs,
    dataset: &SpatialDataset,
    knn_points: &[Point],
    report: &mut Report,
) {
    let (curve, mapper) = (dataset.curve(), dataset.mapper());
    let (mut us, mut ranges) = (Vec::new(), Vec::new());
    for w in &inputs.windows {
        let (n, ns) = t.run("hilbert.rect", || {
            let mut n = 0;
            for _ in 0..HILBERT_REPS {
                n = black_box(ranges_in_rect(curve, mapper, w)).len();
            }
            n
        });
        us.push(ns.cpu_ns as f64 / 1e3 / HILBERT_REPS as f64);
        ranges.push(n as f64);
    }
    percentiles(report, "hilbert.rect_us", &us);
    report.set("hilbert.rect_ranges", mean(&ranges), ranges.len());

    let (mut us, mut ranges) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for &q in knn_points {
        let r2 = dataset.kth_dist2(q, K);
        let (_, ns) = t.run("hilbert.circle", || {
            for _ in 0..HILBERT_REPS {
                ranges_in_circle_with_dist_into(curve, mapper, q, r2, &mut buf);
                black_box(&buf);
            }
        });
        us.push(ns.cpu_ns as f64 / 1e3 / HILBERT_REPS as f64);
        ranges.push(buf.len() as f64);
    }
    percentiles(report, "hilbert.circle_us", &us);
    report.set("hilbert.circle_ranges", mean(&ranges), ranges.len());
}

/// Sequential replay of every query on one scheme through
/// `Engine::drive_antennas`, checked against brute force.
#[allow(clippy::too_many_arguments)]
fn replay(
    t: &mut Tracer,
    inputs: &Inputs,
    si: usize,
    scheme: Scheme,
    engine: &Engine,
    queries: &[Query],
    truth: &[Vec<u32>],
    report: &mut Report,
) -> Replay {
    let mut r = Replay::default();
    for (qi, q) in queries.iter().enumerate() {
        let (start, seed) = inputs.start_and_seed(si, qi, engine.cycle_packets());
        let kind = match q {
            Query::Window(_) => "window",
            Query::Knn(..) => "knn",
        };
        let (out, ns) = t.run(drive_span(scheme, kind), || {
            catch_unwind(AssertUnwindSafe(|| {
                engine.drive_antennas(start, inputs.loss.clone(), seed, inputs.antennas, q)
            }))
        });
        report.attempted += 1;
        let Ok(o) = out else {
            report.failed += 1;
            continue;
        };
        report.failed += u64::from(o.ids != truth[qi]);
        let us = ns.cpu_ns as f64 / 1e3;
        match q {
            Query::Window(_) => r.window_us.push(us),
            Query::Knn(..) => r.knn_us.push(us),
        }
        r.means[usize::from(kind == "knn")].push(o.stats);
        r.drive_ns += ns.cpu_ns;
        r.reads += o.stats.tuning_packets;
        r.lost += o.stats.lost_packets;
        r.loss_retunes += o.stats.loss_retunes;
        r.switches += o.channels.switches;
        r.queries += 1;
    }
    r
}

/// `broadcast`: tuner reads, losses, retunes and switches per query, and
/// replayed drive time per read, for one scheme.
fn broadcast_metrics(report: &mut Report, scheme: Scheme, r: &Replay) {
    let label = crate::workload::scheme_label(scheme);
    let per_query = |x: u64| ratio(x as f64, r.queries as f64);
    for (metric, value) in [
        ("reads", per_query(r.reads)),
        ("lost", per_query(r.lost)),
        ("loss_retunes", per_query(r.loss_retunes)),
        ("switches", per_query(r.switches)),
        ("ns_per_read", ratio(r.drive_ns as f64, r.reads as f64)),
    ] {
        report.set(format!("broadcast.{metric}.{label}"), value, r.queries);
    }
}

/// `core`: the DSI client's kNN probe and state events per query.
fn dsi_client_layer(
    t: &mut Tracer,
    inputs: &Inputs,
    air: &DsiAir,
    queries: &[Query],
    truth: &[Vec<u32>],
    report: &mut Report,
) {
    let (mut refreshes, mut ranges, mut cands, mut events) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (qi, q) in queries.iter().enumerate() {
        // Scheme 0 is DSI: the same tune-in and loss seed as its replay.
        let (start, seed) = inputs.start_and_seed(0, qi, air.program().len());
        hotpath::reset_counters();
        let (out, _) = t.run("core.query_probed", || {
            catch_unwind(AssertUnwindSafe(|| {
                let mut tuner = Tuner::tune_in_with(
                    air.program(),
                    start,
                    inputs.loss.clone(),
                    seed,
                    inputs.antennas,
                );
                match q {
                    Query::Window(w) => (air.window_query(&mut tuner, w), None),
                    Query::Knn(p, k) => {
                        let (ids, probe) =
                            air.knn_query_probed(&mut tuner, *p, *k, KnnStrategy::Conservative);
                        (ids, Some(probe))
                    }
                }
            }))
        });
        let (full, incremental) = hotpath::counters();
        report.attempted += 1;
        let Ok((ids, probe)) = out else {
            report.failed += 1;
            continue;
        };
        report.failed += u64::from(ids != truth[qi]);
        events.push((full + incremental) as f64);
        if let Some(p) = probe {
            refreshes.push(p.refreshes as f64);
            ranges.push(p.total_ranges as f64);
            cands.push(p.peak_cands as f64);
        }
    }
    report.set("core.knn_refreshes", mean(&refreshes), refreshes.len());
    report.set("core.knn_ranges", mean(&ranges), ranges.len());
    report.set("core.knn_peak_cands", mean(&cands), cands.len());
    report.set("core.state_events", mean(&events), events.len());
}

/// `sim.runner`: each scheme's windows and kNN queries through
/// `run_query_batch_at`, against the sequential replay's drive time.
fn runner_layer(
    t: &mut Tracer,
    inputs: &Inputs,
    engines: &[Arc<Engine>],
    dataset: &SpatialDataset,
    queries: &[Query],
    replays: &[Replay],
    report: &mut Report,
) {
    let opts = BatchOptions {
        loss: inputs.loss.clone(),
        seed: inputs.seed,
        validate: false,
        antennas: inputs.antennas,
    };
    let split = inputs.windows.len();
    let (mut busy_ns, mut sequential_ns) = (0.0, 0.0);
    for (si, (engine, r)) in engines.iter().zip(replays).enumerate() {
        sequential_ns += r.drive_ns as f64;
        for (family, range) in [(0, 0..split), (1, split..queries.len())] {
            let family_queries = &queries[range.clone()];
            if family_queries.is_empty() {
                continue;
            }
            let (starts, seeds): (Vec<u64>, Vec<u64>) = range
                .map(|qi| inputs.start_and_seed(si, qi, engine.cycle_packets()))
                .unzip();
            let ((out, secs), _) = t.run("sim.runner.batch", || {
                let timer = HostTimer::start();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    run_query_batch_at(engine, dataset, family_queries, &starts, &seeds, &opts)
                }));
                (out, timer.seconds())
            });
            let want = &r.means[family];
            let ok = matches!(out, Ok(b) if b.latency_bytes == want.latency_bytes()
                && b.tuning_bytes == want.tuning_bytes());
            report.attempted += family_queries.len() as u64;
            report.failed += if ok { 0 } else { family_queries.len() as u64 };
            busy_ns += nproc().min(family_queries.len()) as f64 * secs * 1e9;
        }
    }
    report.set(
        "sim.runner.parallel_efficiency",
        ratio(sequential_ns, busy_ns),
        engines.len(),
    );
}

/// `sim.fleet`: population, anchors, one-worker and `nproc`-worker runs,
/// and a replay of sampled representative drives.
fn fleet_layer(
    t: &mut Tracer,
    inputs: &Inputs,
    built: &Built,
    dsi: &Arc<Engine>,
    queries: &[Query],
    report: &mut Report,
) {
    let fleets: Vec<(Arc<Engine>, Scheme, FleetSpec)> = match inputs.driver {
        Driver::Fleet { .. } => jobs(inputs, built)
            .into_iter()
            .filter_map(|j| match j {
                Job::Fleet { scheme, spec, .. } => Some((
                    Arc::clone(&built.engines[scheme]),
                    inputs.schemes[scheme],
                    spec,
                )),
                Job::Batch { .. } => None,
            })
            .collect(),
        // A uniform fleet with as many clients as queries; each client's
        // query is drawn with replacement.
        Driver::Batch => vec![(
            Arc::clone(dsi),
            Scheme::dsi_reorganized(CAPACITY),
            FleetSpec {
                seed: inputs.population_seed(0),
                workers: nproc(),
                ..FleetSpec::new(queries.len(), queries.to_vec())
            },
        )],
    };
    let (mut clients, mut drives) = (0usize, 0usize);
    let (mut population_ns, mut anchor_ns) = (0u64, 0u64);
    let (mut one_s, mut many_s) = (0.0, 0.0);
    let (mut drive_estimate_ns, mut hits, mut misses) = (0.0, 0u64, 0u64);
    for (engine, scheme, spec) in &fleets {
        let cycle = engine.cycle_packets();
        let (pop, took) = t.run("sim.fleet.population", || Population::derive(spec, cycle));
        population_ns += took.cpu_ns;
        let mut instants = pop.start.clone();
        instants.sort_unstable();
        instants.dedup();
        // Anchors of the populated instants, as `run_fleet` derives them:
        // the first instant without one turns coalescing off.
        let (anchors, took) = t.run("sim.fleet.anchor", || {
            instants
                .iter()
                .map(|&s| engine.tune_anchor(s))
                .collect::<Option<Vec<u64>>>()
        });
        anchor_ns += took.cpu_ns;

        let one = FleetSpec {
            workers: 1,
            ..spec.clone()
        };
        // One worker: the process's CPU time is that worker's (the caller
        // waits). All workers: wall time less steal.
        let ((first, cpu), _) = t.run("sim.fleet.run", || {
            let cpu = process_cpu_seconds();
            let out = catch_unwind(AssertUnwindSafe(|| run_fleet(engine, None, &one)));
            (out, process_cpu_seconds() - cpu)
        });
        one_s += cpu;
        let ((second, secs), _) = t.run("sim.fleet.run", || {
            let timer = HostTimer::start();
            let out = catch_unwind(AssertUnwindSafe(|| run_fleet(engine, None, spec)));
            (out, timer.seconds())
        });
        many_s += secs;
        report.attempted += spec.clients as u64;
        let (stats, reference) = match (first, second) {
            (Ok((stats, a)), Ok((_, b))) => {
                report.failed += differing_clients(&a, &b);
                (stats, a)
            }
            _ => {
                report.failed += spec.clients as u64;
                continue;
            }
        };
        clients += stats.clients;
        drives += stats.drives;
        hits += stats.window_cache_hits;
        misses += stats.window_cache_misses;

        // Representatives: the lowest client id per (anchor, query) when
        // the fleet coalesces, every client otherwise.
        let coalesced = matches!(spec.loss, dsi_broadcast::LossModel::None);
        let reps: Vec<usize> = match anchors.filter(|_| coalesced) {
            Some(anchors) => {
                let mut first_of: BTreeMap<(u64, u32), usize> = BTreeMap::new();
                for c in 0..pop.len() {
                    let a = anchors[instants.partition_point(|&s| s < pop.start[c])];
                    first_of.entry((a, pop.query[c])).or_insert(c);
                }
                let mut reps: Vec<usize> = first_of.into_values().collect();
                reps.sort_unstable();
                reps
            }
            None => (0..pop.len()).collect(),
        };
        let stride = reps.len().div_ceil(REP_SAMPLE).max(1);
        let mut sample: Vec<usize> = reps.iter().copied().step_by(stride).collect();
        // Replay in wake order with a decomposition cache installed, as
        // fleet workers run, so replayed drives find the caches as warm as
        // they are in the fleet.
        sample.sort_by_key(|&c| (pop.start[c], c));
        let previous = share::install(Some(Arc::new(ShareCache::new())));
        let mut replay_ns = 0u64;
        for &c in &sample {
            let query = &spec.pool[pop.query[c] as usize];
            let (out, took) = t.run(drive_span(*scheme, "representative"), || {
                catch_unwind(AssertUnwindSafe(|| {
                    engine.drive_antennas(
                        pop.start[c],
                        spec.loss.clone(),
                        pop.seed[c],
                        spec.antennas,
                        query,
                    )
                }))
            });
            replay_ns += took.cpu_ns;
            report.attempted += 1;
            match out {
                Ok(o) if o.stats == reference.stats_of(c) => {}
                _ => report.failed += 1,
            }
        }
        share::install(previous);
        drive_estimate_ns += ratio(replay_ns as f64, sample.len() as f64) * stats.drives as f64;
    }
    report.set(
        "sim.fleet.drives_per_client",
        ratio(drives as f64, clients as f64),
        clients,
    );
    report.set("sim.fleet.population_ms", ms(population_ns), fleets.len());
    report.set("sim.fleet.anchor_ms", ms(anchor_ns), fleets.len());
    report.set(
        "sim.fleet.parallel_speedup",
        ratio(one_s, many_s),
        fleets.len(),
    );
    report.set(
        "sim.fleet.bookkeeping_share",
        1.0 - ratio(drive_estimate_ns, one_s * 1e9),
        fleets.len(),
    );
    report.set(
        "core.share_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        fleets.len(),
    );
    report.fact(
        "fleet workers (traced fleet layer)",
        format!("1 and {}", nproc()),
    );
}
