//! The untraced run: set-up, the untimed reference pass, the timed
//! section, and the end-to-end metrics.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsi_broadcast::{Distribution, MeanStats, Query};
use dsi_datagen::SpatialDataset;
use dsi_sim::{run_fleet, run_query_batch_at, BatchOptions, Engine, FleetOutcomes, FleetSpec};

use crate::clock::{thread_cpu_seconds, HostTimer};
use crate::metrics::{median, peak_rss_mib, Report};
use crate::trace::Tracer;
use crate::workload::{scheme_label, Driver, Inputs, CAPACITY, ORDER};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Timed repetitions per run, at least, however long they take.
pub const MIN_REPS: usize = 2;

/// Host parallelism: the fleet's worker count and the runner's threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A dataset and one engine per scheme, ready to serve.
pub struct Built {
    /// The dataset the engines were built from.
    pub dataset: Arc<SpatialDataset>,
    /// One engine per scheme of the inputs, in order.
    pub engines: Vec<Arc<Engine>>,
}

/// Builds the dataset and every scheme's engine from the point set.
pub fn build(inputs: &Inputs) -> Built {
    let dataset = SpatialDataset::build(&inputs.points, ORDER);
    let engines = inputs
        .schemes
        .iter()
        .map(|&s| {
            Arc::new(Engine::build_channels(
                s,
                &dataset,
                CAPACITY,
                inputs.channels.clone(),
            ))
        })
        .collect();
    Built {
        dataset: Arc::new(dataset),
        engines,
    }
}

/// Builds `reps` times; returns the last build and each build's seconds
/// on the set-up thread's CPU clock (the set-up is single-threaded).
pub fn timed_setup(inputs: &Inputs, reps: usize) -> (Built, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = thread_cpu_seconds();
        let built = black_box(build(inputs));
        times.push(thread_cpu_seconds() - t);
        last = Some(built);
    }
    (last.expect("at least one set-up"), times)
}

/// Ground truth for one query.
pub fn brute(dataset: &SpatialDataset, q: &Query) -> Vec<u32> {
    match q {
        Query::Window(w) => dataset.brute_window(w),
        Query::Knn(p, k) => dataset.brute_knn(*p, *k),
    }
}

/// One call of the timed section and the reference it must reproduce.
pub enum Job {
    /// A `run_query_batch_at` call.
    Batch {
        /// Index of the engine.
        scheme: usize,
        /// Position of the first query in [`Inputs::queries`].
        first: usize,
        /// The queries.
        queries: Vec<Query>,
        /// Tune-in instant per query.
        starts: Vec<u64>,
        /// Loss seed per query.
        seeds: Vec<u64>,
        /// Mean latency and tuning bytes of the sequential replay.
        reference: Option<(f64, f64)>,
    },
    /// A `run_fleet` call.
    Fleet {
        /// Index of the engine.
        scheme: usize,
        /// The fleet, with `workers` = the host's parallelism.
        spec: FleetSpec,
        /// Outcomes of the validated one-worker run.
        reference: Option<Box<FleetOutcomes>>,
    },
}

impl Job {
    /// Queries or clients the call simulates.
    pub fn len(&self) -> usize {
        match self {
            Job::Batch { queries, .. } => queries.len(),
            Job::Fleet { spec, .. } => spec.clients,
        }
    }

    /// `true` when the call simulates nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Name of the span around a timed repetition of the call. It belongs
    /// to the `bench` layer, not to the simulator layer the call enters:
    /// the traced run repeats these calls for its whole time budget, and
    /// the simulator layers' self time must not grow with that budget.
    pub fn span_name(&self) -> &'static str {
        match self {
            Job::Batch { .. } => "bench.timed.batch",
            Job::Fleet { .. } => "bench.timed.fleet",
        }
    }

    /// `true` once the reference pass produced a result to compare with.
    pub fn has_reference(&self) -> bool {
        match self {
            Job::Batch { reference, .. } => reference.is_some(),
            Job::Fleet { reference, .. } => reference.is_some(),
        }
    }
}

/// The timed section's calls: per scheme, its windows then its kNN
/// queries (batch), or its fleet.
pub fn jobs(inputs: &Inputs, built: &Built) -> Vec<Job> {
    let mut out = Vec::new();
    for (i, engine) in built.engines.iter().enumerate() {
        match inputs.driver {
            Driver::Batch => {
                let all = inputs.queries();
                let (windows, knn) = all.split_at(inputs.windows.len());
                let mut base = 0;
                for family in [windows, knn] {
                    if family.is_empty() {
                        continue;
                    }
                    let (starts, seeds) = (0..family.len())
                        .map(|q| inputs.start_and_seed(i, base + q, engine.cycle_packets()))
                        .unzip();
                    base += family.len();
                    out.push(Job::Batch {
                        scheme: i,
                        first: base - family.len(),
                        queries: family.to_vec(),
                        starts,
                        seeds,
                        reference: None,
                    });
                }
            }
            Driver::Fleet { clients, skew } => out.push(Job::Fleet {
                scheme: i,
                spec: FleetSpec {
                    skew,
                    loss: inputs.loss.clone(),
                    antennas: inputs.antennas,
                    seed: inputs.population_seed(i),
                    workers: nproc(),
                    ..FleetSpec::new(clients, inputs.queries())
                },
                reference: None,
            }),
        }
    }
    out
}

/// Air metrics over every query or client, in bytes.
#[derive(Default)]
pub struct Air {
    /// Access latency per query or client.
    pub latency: Distribution,
    /// Tuning time per query or client.
    pub tuning: Distribution,
}

/// Clients whose outcome columns differ between `a` and `b` (all of them
/// when the populations differ in size).
pub fn differing_clients(a: &FleetOutcomes, b: &FleetOutcomes) -> u64 {
    if a.len() != b.len() || a.capacity != b.capacity {
        return a.len().max(b.len()) as u64;
    }
    (0..a.len())
        .filter(|&i| a.stats_of(i) != b.stats_of(i) || a.switches[i] != b.switches[i])
        .count() as u64
}

/// The untimed reference pass. Batches replay every query sequentially
/// and check each answer against brute force; fleets run validated on
/// one worker. A wrong answer or a panicking drive counts as failed; a
/// panic also leaves the call without a reference, so the timed section
/// skips it.
pub fn reference_pass(
    built: &Built,
    inputs: &Inputs,
    jobs: &mut [Job],
    report: &mut Report,
) -> Air {
    let mut air = Air::default();
    let truth: Vec<Vec<u32>> = match inputs.driver {
        Driver::Batch => inputs
            .queries()
            .iter()
            .map(|q| brute(&built.dataset, q))
            .collect(),
        Driver::Fleet { .. } => Vec::new(),
    };
    for job in jobs.iter_mut() {
        report.attempted += job.len() as u64;
        match job {
            Job::Batch {
                scheme,
                first,
                queries,
                starts,
                seeds,
                reference,
            } => {
                let engine = &built.engines[*scheme];
                let mut means = MeanStats::default();
                let mut panicked = false;
                for (q, query) in queries.iter().enumerate() {
                    let drive = catch_unwind(AssertUnwindSafe(|| {
                        engine.drive_antennas(
                            starts[q],
                            inputs.loss.clone(),
                            seeds[q],
                            inputs.antennas,
                            query,
                        )
                    }));
                    match drive {
                        Ok(o) => {
                            if o.ids != truth[*first + q] {
                                report.failed += 1;
                            }
                            means.push(o.stats);
                            air.latency.push(o.stats.latency_bytes());
                            air.tuning.push(o.stats.tuning_bytes());
                        }
                        Err(_) => {
                            report.failed += 1;
                            panicked = true;
                        }
                    }
                }
                *reference = (!panicked).then(|| (means.latency_bytes(), means.tuning_bytes()));
            }
            Job::Fleet {
                scheme,
                spec,
                reference,
            } => {
                let engine = &built.engines[*scheme];
                let checked = FleetSpec {
                    workers: 1,
                    validate: true,
                    ..spec.clone()
                };
                match catch_unwind(AssertUnwindSafe(|| {
                    run_fleet(engine, Some(&built.dataset), &checked)
                })) {
                    Ok((_, outcomes)) => {
                        let cap = u64::from(outcomes.capacity);
                        air.latency
                            .extend(outcomes.latency.iter().map(|&l| l * cap));
                        air.tuning.extend(outcomes.tuning.iter().map(|&t| t * cap));
                        *reference = Some(Box::new(outcomes));
                    }
                    Err(_) => report.failed += spec.clients as u64,
                }
            }
        }
    }
    air
}

/// Runs one timed call; returns its seconds (wall time less steal) and
/// the clients or queries whose results differ from the reference (all of
/// them when the call panicked).
pub fn timed_call(built: &Built, inputs: &Inputs, job: &Job) -> (f64, u64) {
    match job {
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
                seed: inputs.seed,
                validate: false,
                antennas: inputs.antennas,
            };
            let t = HostTimer::start();
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_query_batch_at(
                    &built.engines[*scheme],
                    &built.dataset,
                    queries,
                    starts,
                    seeds,
                    &opts,
                )
            }));
            let wall = t.seconds();
            let ok = matches!((r, reference), (Ok(r), Some((lat, tun)))
                if r.latency_bytes == *lat && r.tuning_bytes == *tun
                    && r.queries == queries.len() as u64);
            (wall, if ok { 0 } else { queries.len() as u64 })
        }
        Job::Fleet {
            scheme,
            spec,
            reference,
        } => {
            let t = HostTimer::start();
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_fleet(&built.engines[*scheme], None, spec)
            }));
            let wall = t.seconds();
            let failed = match (r, reference) {
                (Ok((_, got)), Some(want)) => differing_clients(&got, want),
                _ => spec.clients as u64,
            };
            (wall, failed)
        }
    }
}

/// Runs every call that has a reference once, each inside a span when a
/// tracer is given. Returns the queries (or clients) per second of the
/// calls' summed seconds, or `None` when no call has a reference.
pub fn repetition(
    built: &Built,
    inputs: &Inputs,
    jobs: &[Job],
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Option<f64> {
    let (mut wall, mut served) = (0.0, 0usize);
    for job in jobs.iter().filter(|j| j.has_reference()) {
        let (secs, failed) = match tracer.as_deref_mut() {
            Some(t) => t.run(job.span_name(), || timed_call(built, inputs, job)).0,
            None => timed_call(built, inputs, job),
        };
        wall += secs;
        served += job.len();
        report.attempted += job.len() as u64;
        report.failed += failed;
    }
    (served > 0).then(|| served as f64 / wall)
}

/// Calls `rep` until `seconds` have passed, at least [`MIN_REPS`] times,
/// and collects what it returns; stops early when it returns `None`.
pub fn repeat_for<R>(seconds: f64, mut rep: impl FnMut() -> Option<R>) -> Vec<R> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || start.elapsed() < budget {
        match rep() {
            Some(r) => out.push(r),
            None => break,
        }
    }
    out
}

/// The timed section: untraced repetitions of every call that has a
/// reference, for `seconds`. Returns each repetition's queries (or
/// clients) per second.
pub fn timed_section(
    built: &Built,
    inputs: &Inputs,
    jobs: &[Job],
    seconds: f64,
    report: &mut Report,
) -> Vec<f64> {
    repeat_for(seconds, || repetition(built, inputs, jobs, report, None))
}

/// Host facts and run sizes shared by both modes.
pub fn describe(inputs: &Inputs, report: &mut Report) {
    report.fact("workload", inputs.workload.name());
    report.fact("seed", inputs.seed);
    report.fact("nproc", nproc());
    report.fact("dataset", format!("{} N = {}", inputs.dataset, inputs.n()));
    let schemes: Vec<&str> = inputs.schemes.iter().map(|&s| scheme_label(s)).collect();
    report.fact("schemes", schemes.join(","));
    report.fact(
        "channels",
        format!(
            "{} x {:?}, antennas = {}, loss = {:?}",
            inputs.channels.channels,
            inputs.channels.placement,
            inputs.antennas.antennas,
            inputs.loss
        ),
    );
    report.fact(
        "queries",
        format!(
            "{} windows + {} 10NN",
            inputs.windows.len(),
            inputs.knn.len()
        ),
    );
    match inputs.driver {
        Driver::Batch => {
            let per_call = inputs.windows.len().max(inputs.knn.len());
            report.fact(
                "driver",
                "run_query_batch_at, one call per scheme and query type",
            );
            report.fact("runner threads", nproc().min(per_call.max(1)));
        }
        Driver::Fleet { clients, skew } => {
            report.fact("driver", format!("run_fleet, Zipf skew {skew}"));
            report.fact("clients per scheme", clients);
            report.fact("fleet workers", nproc());
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(inputs: &Inputs, seconds: f64) -> std::io::Result<Report> {
    let mut report = Report::default();
    describe(inputs, &mut report);
    let (built, setup) = timed_setup(inputs, SETUP_REPS);
    let mut jobs = jobs(inputs, &built);
    let mut air = reference_pass(&built, inputs, &mut jobs, &mut report);
    let rates = timed_section(&built, inputs, &jobs, seconds, &mut report);
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    report.fact("queries_per_s per repetition", shown.join(" "));

    report.set("queries_per_s", median(&rates), rates.len());
    report.set("setup_s", median(&setup), setup.len());
    let (lat, tun) = (air.latency.summary(), air.tuning.summary());
    let n = air.latency.len();
    report.set("air_latency_bytes_mean", lat.mean, n);
    report.set("air_latency_bytes_p50", lat.p50 as f64, n);
    report.set("air_latency_bytes_p99", lat.p99 as f64, n);
    report.set("air_tuning_bytes_mean", tun.mean, n);
    report.set("air_tuning_bytes_p50", tun.p50 as f64, n);
    report.set("air_tuning_bytes_p99", tun.p99 as f64, n);
    report.set("peak_rss_mib", peak_rss_mib()?, 1);
    Ok(report)
}
