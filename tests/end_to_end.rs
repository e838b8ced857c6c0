//! Cross-crate integration tests: the full pipeline (dataset → broadcast
//! program → on-air query → validated answer + metrics) for all three
//! schemes, determinism, and metric sanity.

use dsi::broadcast::LossModel;
use dsi::core::KnnStrategy;
use dsi::datagen::{uniform, SpatialDataset};
use dsi::sim::{run_query_batch, BatchOptions, Engine, Scheme, WorkloadSpec};

fn dataset() -> SpatialDataset {
    SpatialDataset::build(&uniform(1_200, 42), 10)
}

fn schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("dsi-reorg", Scheme::dsi_reorganized(64)),
        (
            "dsi-aggressive",
            Scheme::dsi_original(64, KnnStrategy::Aggressive),
        ),
        ("rtree", Scheme::RTree),
        ("hci", Scheme::Hci),
    ]
}

#[test]
fn every_scheme_answers_both_query_types_correctly() {
    let ds = dataset();
    let windows = WorkloadSpec::Window { ratio: 0.15 }.queries(10, 3);
    let knn = WorkloadSpec::Knn { k: 10 }.queries(10, 5);
    let opts = BatchOptions::default(); // validate = true
    for (name, scheme) in schemes() {
        let engine = Engine::build(scheme, &ds, 64);
        let w = run_query_batch(&engine, &ds, &windows, &opts);
        assert_eq!(w.queries, 10, "{name}");
        assert!(w.latency_bytes >= w.tuning_bytes, "{name}");
        let k = run_query_batch(&engine, &ds, &knn, &opts);
        assert_eq!(k.queries, 10, "{name}");
        assert!(k.latency_bytes >= k.tuning_bytes, "{name}");
        // No scheme should need more than three cycles on a clean channel.
        assert!(
            w.latency_bytes <= 3.0 * engine.cycle_bytes() as f64,
            "{name} window latency > 3 cycles"
        );
        assert!(
            k.latency_bytes <= 3.0 * engine.cycle_bytes() as f64,
            "{name} kNN latency > 3 cycles"
        );
    }
}

#[test]
fn batches_are_reproducible_across_runs() {
    let ds = dataset();
    let windows = WorkloadSpec::Window { ratio: 0.1 }.queries(8, 9);
    let opts = BatchOptions::default();
    for (name, scheme) in schemes() {
        let e1 = Engine::build(scheme, &ds, 64);
        let e2 = Engine::build(scheme, &ds, 64);
        let a = run_query_batch(&e1, &ds, &windows, &opts);
        let b = run_query_batch(&e2, &ds, &windows, &opts);
        assert_eq!(
            a.latency_bytes, b.latency_bytes,
            "{name} latency not deterministic"
        );
        assert_eq!(
            a.tuning_bytes, b.tuning_bytes,
            "{name} tuning not deterministic"
        );
    }
}

#[test]
fn lossy_channels_cost_more_but_stay_correct() {
    let ds = dataset();
    let windows = WorkloadSpec::Window { ratio: 0.15 }.queries(8, 11);
    for (name, scheme) in schemes() {
        let engine = Engine::build(scheme, &ds, 64);
        let clean = run_query_batch(&engine, &ds, &windows, &BatchOptions::default());
        let lossy = run_query_batch(
            &engine,
            &ds,
            &windows,
            &BatchOptions {
                loss: LossModel::iid(0.5),
                ..BatchOptions::default()
            },
        );
        // Validation inside the runner guarantees identical answers; the
        // lossy channel must cost at least as much on average.
        assert!(
            lossy.latency_bytes >= clean.latency_bytes,
            "{name}: lossy latency {} < clean {}",
            lossy.latency_bytes,
            clean.latency_bytes
        );
    }
}

#[test]
fn dsi_beats_baselines_on_knn_latency() {
    // The paper's headline (Figure 11): DSI's kNN access latency is far
    // below both baselines. Checked at a reduced scale.
    let ds = SpatialDataset::build(&uniform(2_000, 42), 11);
    let knn = WorkloadSpec::Knn { k: 10 }.queries(24, 5);
    let opts = BatchOptions::default();
    let run = |scheme| run_query_batch(&Engine::build(scheme, &ds, 64), &ds, &knn, &opts);
    let dsi = run(Scheme::dsi_reorganized(64));
    let rtree = run(Scheme::RTree);
    let hci = run(Scheme::Hci);
    assert!(
        dsi.latency_bytes < rtree.latency_bytes,
        "DSI {} should beat R-tree {}",
        dsi.latency_bytes,
        rtree.latency_bytes
    );
    assert!(
        dsi.latency_bytes < 0.6 * hci.latency_bytes,
        "DSI {} should beat HCI {} by a wide margin",
        dsi.latency_bytes,
        hci.latency_bytes
    );
}

#[test]
fn umbrella_reexports_compose() {
    // The flat re-exports work together in one program.
    let ds = dsi::SpatialDataset::build(&uniform(150, 7), 9);
    let air = dsi::DsiAir::build(&ds, dsi::DsiConfig::paper_reorganized());
    let mut tuner = dsi::Tuner::tune_in(air.program(), 42, dsi::LossModel::None, 1);
    let w = dsi::Rect::new(0.1, 0.1, 0.6, 0.6);
    assert_eq!(air.window_query(&mut tuner, &w), ds.brute_window(&w));
}
