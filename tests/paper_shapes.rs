//! Shape tests: reduced-scale versions of the paper's qualitative claims
//! that must hold for the reproduction to be meaningful. The `dsi-bench`
//! binaries regenerate the full-scale numbers (README, "Reproducing the
//! paper's evaluation").

use dsi::broadcast::LossModel;
use dsi::core::KnnStrategy;
use dsi::datagen::{uniform, SpatialDataset};
use dsi::sim::{run_query_batch, BatchOptions, Engine, Scheme, WorkloadSpec};

fn dataset() -> SpatialDataset {
    SpatialDataset::build(&uniform(2_000, 42), 11)
}

#[test]
fn aggressive_tunes_less_conservative_waits_less() {
    // Paper §3.4: "the conservative and aggressive approaches represent a
    // tradeoff between access latency and energy efficiency."
    let ds = dataset();
    let knn = WorkloadSpec::Knn { k: 10 }.queries(30, 5);
    let opts = BatchOptions::default();
    let run = |strategy| {
        let e = Engine::build(Scheme::dsi_original(64, strategy), &ds, 64);
        run_query_batch(&e, &ds, &knn, &opts)
    };
    let cons = run(KnnStrategy::Conservative);
    let aggr = run(KnnStrategy::Aggressive);
    assert!(
        aggr.tuning_bytes < cons.tuning_bytes,
        "aggressive should tune less: {} vs {}",
        aggr.tuning_bytes,
        cons.tuning_bytes
    );
    assert!(
        aggr.latency_bytes > cons.latency_bytes,
        "aggressive should wait longer: {} vs {}",
        aggr.latency_bytes,
        cons.latency_bytes
    );
}

#[test]
fn dsi_latency_is_flat_across_capacities() {
    // Paper §4.2/4.3: DSI's access latency is bounded by the cycle and
    // barely moves with packet capacity.
    let ds = dataset();
    let windows = WorkloadSpec::Window { ratio: 0.1 }.queries(30, 3);
    let opts = BatchOptions::default();
    let mut lats = Vec::new();
    for cap in [64u32, 128, 256] {
        let e = Engine::build(Scheme::dsi_reorganized(cap), &ds, cap);
        lats.push(run_query_batch(&e, &ds, &windows, &opts).latency_bytes);
    }
    let (min, max) = (
        lats.iter().cloned().fold(f64::INFINITY, f64::min),
        lats.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        max / min < 1.35,
        "DSI window latency should be flat-ish across capacities: {lats:?}"
    );
}

#[test]
fn dsi_deteriorates_least_under_link_errors() {
    // Paper Table 1: DSI has the smallest latency deterioration at every θ.
    let ds = dataset();
    let windows = WorkloadSpec::Window { ratio: 0.1 }.queries(30, 3);
    let mut deterioration = Vec::new();
    for (name, scheme) in [
        ("dsi", Scheme::dsi_reorganized(64)),
        ("rtree", Scheme::RTree),
        ("hci", Scheme::Hci),
    ] {
        let e = Engine::build(scheme, &ds, 64);
        let clean = run_query_batch(&e, &ds, &windows, &BatchOptions::default());
        let lossy = run_query_batch(
            &e,
            &ds,
            &windows,
            &BatchOptions {
                loss: LossModel::iid(0.5),
                ..BatchOptions::default()
            },
        );
        deterioration.push((name, lossy.latency_bytes / clean.latency_bytes - 1.0));
    }
    let dsi = deterioration[0].1;
    let rtree = deterioration[1].1;
    assert!(
        dsi < rtree,
        "DSI should deteriorate less than the R-tree: {deterioration:?}"
    );
}

#[test]
fn hci_knn_pays_the_two_phase_penalty() {
    // Paper §4.3: HCI's kNN latency is several times DSI's because of its
    // two-phase search.
    let ds = dataset();
    let nn = WorkloadSpec::Knn { k: 1 }.queries(20, 5);
    let opts = BatchOptions::default();
    let run = |scheme| run_query_batch(&Engine::build(scheme, &ds, 64), &ds, &nn, &opts);
    let dsi = run(Scheme::dsi_reorganized(64));
    let hci = run(Scheme::Hci);
    assert!(
        hci.latency_bytes > 1.5 * dsi.latency_bytes,
        "HCI NN latency {} should far exceed DSI {}",
        hci.latency_bytes,
        dsi.latency_bytes
    );
}
