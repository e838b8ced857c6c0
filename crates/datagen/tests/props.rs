//! Property tests for datasets and workloads.

use dsi_datagen::{
    clustered, knn_points, load_points, skewed_knn_points, skewed_window_queries, uniform,
    window_queries, zipf_hotspot, SpatialDataset,
};
use dsi_geom::{Point, Rect};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dataset_objects_sorted_unique_and_in_cells(
        n in 1usize..300, seed in any::<u64>(), order in 5u8..12,
    ) {
        let ds = SpatialDataset::build(&uniform(n, seed), order);
        let objs = ds.objects();
        prop_assert_eq!(objs.len(), n);
        for w in objs.windows(2) {
            prop_assert!(w[0].hc < w[1].hc);
        }
        for o in objs {
            let cell = ds.curve().d2xy(o.hc);
            prop_assert!(ds.mapper().cell_rect(cell).contains(o.pos));
        }
    }

    #[test]
    fn clustered_points_stay_in_unit_square(n in 1usize..500, c in 1usize..32, seed in any::<u64>()) {
        for p in clustered(n, c, seed) {
            prop_assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    fn zipf_hotspot_points_stay_in_unit_square(
        n in 1usize..400, h in 1usize..24, skew in 0.0..2.5f64, seed in any::<u64>(),
    ) {
        let pts = zipf_hotspot(n, h, skew, seed);
        prop_assert_eq!(pts.len(), n);
        for p in pts {
            prop_assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    fn skewed_workloads_are_well_formed(
        n in 1usize..60, h in 1usize..16, skew in 0.0..2.0f64,
        ratio in 0.01..0.5f64, seed in any::<u64>(),
    ) {
        let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
        for w in skewed_window_queries(n, ratio, h, skew, seed, seed ^ 1) {
            prop_assert!(unit.contains_rect(&w));
            prop_assert!(!w.is_empty());
        }
        for p in skewed_knn_points(n, h, skew, seed, seed ^ 2) {
            prop_assert!(unit.contains(p));
        }
        // Determinism under identical seeds.
        prop_assert_eq!(
            skewed_knn_points(n, h, skew, seed, seed ^ 2),
            skewed_knn_points(n, h, skew, seed, seed ^ 2)
        );
    }

    #[test]
    fn brute_knn_is_k_smallest(n in 5usize..200, seed in any::<u64>(), k in 1usize..20,
                               qx in 0.0..1.0f64, qy in 0.0..1.0f64) {
        let ds = SpatialDataset::build(&uniform(n, seed), 10);
        let q = Point::new(qx, qy);
        let ids = ds.brute_knn(q, k);
        prop_assert_eq!(ids.len(), k.min(n));
        let kth = ds.kth_dist2(q, k.min(n));
        for o in ds.objects() {
            if ids.binary_search(&o.id).is_ok() {
                prop_assert!(q.dist2(o.pos) <= kth);
            }
        }
    }

    #[test]
    fn workloads_are_well_formed(n in 1usize..100, ratio in 0.01..1.0f64, seed in any::<u64>()) {
        let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
        for w in window_queries(n, ratio, seed) {
            prop_assert!(unit.contains_rect(&w));
            prop_assert!(!w.is_empty());
        }
        for p in knn_points(n, seed) {
            prop_assert!(unit.contains(p));
        }
    }
}

/// Finite coordinates at the edges of the `f64` range.
const EXTREMES: [f64; 7] = [
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    0.0,
    -0.0,
    1e-300,
];
/// Tokens that parse to a NaN or an infinity.
const NON_FINITE: [&str; 6] = ["nan", "NaN", "inf", "-inf", "infinity", "1e400"];
/// Tokens that do not parse as a number.
const GARBAGE: [&str; 5] = ["x1", "1,2", "0x10", "--1", "1.2.3"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn point_files_load_exactly_when_every_data_line_is_a_finite_pair(
        lines in prop::collection::vec((0u8..8, -1e6..1e6f64, -1e6..1e6f64, any::<u64>()), 0..12),
        final_newline in any::<bool>(),
    ) {
        // Each line is a finite pair, a comment, a blank, or bad: one or
        // three tokens, a non-finite coordinate, or garbage.
        let mut text = String::new();
        let mut data_lines = 0usize;
        let mut first_bad = None;
        for (i, &(kind, x, y, v)) in lines.iter().enumerate() {
            let x = if v % 5 == 0 { EXTREMES[(v / 5 % 7) as usize] } else { x };
            let num = |z: f64| if v & 1 == 0 { format!("{z}") } else { format!("{z:e}") };
            let sep = [" ", "\t", "   "][(v >> 8) as usize % 3];
            let (line, good) = match kind {
                0 | 1 => (format!("{}{sep}{}", num(x), num(y)), Some(true)),
                2 => (format!("{sep}# {} note", num(x)), None),
                3 => (sep.repeat((v >> 4) as usize % 2), None),
                4 => (num(x), Some(false)),
                5 => (format!("{} {}{sep}{}", num(x), num(y), num(x)), Some(false)),
                6 => {
                    let bad = NON_FINITE[(v >> 12) as usize % NON_FINITE.len()];
                    if v & 2 == 0 {
                        (format!("{bad} {}", num(y)), Some(false))
                    } else {
                        (format!("{}{sep}{bad}", num(x)), Some(false))
                    }
                }
                _ => {
                    let bad = GARBAGE[(v >> 12) as usize % GARBAGE.len()];
                    (format!("{}{sep}{bad}", num(x)), Some(false))
                }
            };
            match good {
                Some(true) => data_lines += 1,
                Some(false) if first_bad.is_none() => first_bad = Some(i + 1),
                _ => {}
            }
            text.push_str(&line);
            if i + 1 < lines.len() || final_newline {
                text.push('\n');
            }
        }
        let path = std::env::temp_dir().join(format!("dsi_points_fuzz_{}.txt", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let loaded = load_points(&path);
        std::fs::remove_file(&path).unwrap();
        match (loaded, first_bad) {
            (Ok(pts), None) => {
                prop_assert_eq!(pts.len(), data_lines);
                for p in pts {
                    prop_assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y), "{p:?}");
                }
            }
            (Err(e), Some(line)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                let msg = e.to_string();
                prop_assert!(msg.starts_with(&format!("line {line}: ")), "{msg}\n{text}");
            }
            (got, first_bad) => panic!("first bad line {first_bad:?}, got {got:?}\n{text}"),
        }
    }
}
