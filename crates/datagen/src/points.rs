//! Point-set generators and loaders.

use std::io::{BufRead, BufReader};
use std::path::Path;

use dsi_geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's UNIFORM dataset: `n` points uniform in the unit square.
pub fn uniform(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// REAL-surrogate: a Gaussian-mixture point set in the unit square.
///
/// Cluster centres are uniform; cluster weights follow a Zipf-like
/// heavy-tailed distribution (a few dense towns, many hamlets) and spreads
/// vary per cluster, mimicking the skew of a populated-places dataset such
/// as the Greek towns file used by the paper.
pub fn clustered(n: usize, n_clusters: usize, seed: u64) -> Vec<Point> {
    assert!(n_clusters > 0, "need at least one cluster");
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..n_clusters)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    // Zipf-ish weights: w_i ∝ 1 / (i + 1)^0.8.
    let weights: Vec<f64> = (0..n_clusters)
        .map(|i| 1.0 / ((i + 1) as f64).powf(0.8))
        .collect();
    let total: f64 = weights.iter().sum();
    let spreads: Vec<f64> = (0..n_clusters)
        .map(|_| 0.005 + rng.gen::<f64>() * 0.035)
        .collect();
    let mut pts = Vec::with_capacity(n);
    while pts.len() < n {
        // Pick a cluster by weight.
        let mut t = rng.gen::<f64>() * total;
        let mut ci = 0;
        for (i, w) in weights.iter().enumerate() {
            if t < *w {
                ci = i;
                break;
            }
            t -= *w;
        }
        let c = centers[ci];
        let s = spreads[ci];
        // Box–Muller for a 2-D Gaussian around the centre.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let p = Point::new(
            c.x + s * r * (std::f64::consts::TAU * u2).cos(),
            c.y + s * r * (std::f64::consts::TAU * u2).sin(),
        );
        if (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y) {
            pts.push(p);
        }
    }
    pts
}

/// A set of Zipf-weighted hotspot centres in the unit square, shared by
/// the clustered point generator and the skewed query workloads so that
/// queries can follow the data skew (a query distribution drawn from the
/// same hotspots concentrates where objects are dense — the
/// "popular-places" workload the multi-channel scenarios need).
#[derive(Debug, Clone)]
pub struct Hotspots {
    centers: Vec<Point>,
    /// Cumulative Zipf weights, normalised to end at 1.
    cum: Vec<f64>,
    /// Per-hotspot Gaussian spread.
    spreads: Vec<f64>,
}

impl Hotspots {
    /// `n_hotspots` uniform centres whose popularity follows a Zipf law
    /// with exponent `skew` (`skew = 0` is uniform over hotspots; larger
    /// concentrates mass on the first few).
    pub fn new(n_hotspots: usize, skew: f64, seed: u64) -> Self {
        assert!(n_hotspots > 0, "need at least one hotspot");
        assert!(skew >= 0.0, "Zipf exponent must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Point> = (0..n_hotspots)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let spreads: Vec<f64> = (0..n_hotspots)
            .map(|_| 0.01 + rng.gen::<f64>() * 0.04)
            .collect();
        let mut cum = Vec::with_capacity(n_hotspots);
        let mut total = 0.0;
        for i in 0..n_hotspots {
            total += 1.0 / ((i + 1) as f64).powf(skew);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Self {
            centers,
            cum,
            spreads,
        }
    }

    /// Hotspot centres, most popular first.
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }

    /// One point Gaussian-distributed around a Zipf-picked hotspot,
    /// rejection-clamped to the unit square.
    fn sample(&self, rng: &mut StdRng) -> Point {
        loop {
            let t = rng.gen::<f64>();
            let ci = self.cum.partition_point(|&c| c < t).min(self.cum.len() - 1);
            let (c, s) = (self.centers[ci], self.spreads[ci]);
            // Box–Muller for a 2-D Gaussian around the centre.
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let p = Point::new(
                c.x + s * r * (std::f64::consts::TAU * u2).cos(),
                c.y + s * r * (std::f64::consts::TAU * u2).sin(),
            );
            if (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y) {
                return p;
            }
        }
    }

    /// `n` points drawn from the hotspot mixture.
    pub fn points(&self, n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

/// Zipf-hotspot clustered dataset: `n` points around `n_hotspots`
/// Zipf-`skew`-weighted centres. Sharper than [`clustered`] (which uses a
/// mild 0.8 exponent): at `skew >= 1` a handful of hotspots dominate,
/// which is the regime where index/data channel splits and skewed query
/// workloads diverge from the uniform results.
pub fn zipf_hotspot(n: usize, n_hotspots: usize, skew: f64, seed: u64) -> Vec<Point> {
    Hotspots::new(n_hotspots, skew, seed).points(n, seed ^ 0x5EED_F00D)
}

/// Loads an ASCII point file (one `x y` pair per whitespace-separated
/// line, `#`-prefixed comments ignored) and normalises it into the unit
/// square. This is the format of the rtreeportal.org datasets the paper
/// uses, so the original REAL file can be substituted for [`clustered`].
///
/// A data line that is not exactly two tokens (a truncated `0.53`, an
/// extra `7 0.5 0.3`), whose pair does not parse, or that parses to a
/// NaN or infinite coordinate (`nan`, `inf`, `1e400`), is `InvalidData`
/// naming its line number: one such point would make the normalising
/// side infinite.
pub fn load_points(path: &Path) -> std::io::Result<Vec<Point>> {
    let file = std::fs::File::open(path)?;
    let mut pts = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let problem = match (it.next(), it.next(), it.next()) {
            (Some(xs), Some(ys), None) => match (xs.parse::<f64>(), ys.parse::<f64>()) {
                (Ok(x), Ok(y)) if x.is_finite() && y.is_finite() => {
                    pts.push(Point::new(x, y));
                    continue;
                }
                (Ok(_), Ok(_)) => "non-finite coordinate",
                _ => "unparseable point",
            },
            _ => "expected an x y pair",
        };
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line {}: {problem}: {line:?}", i + 1),
        ));
    }
    Ok(normalize_unit(pts))
}

/// Affinely maps a point set into the unit square, preserving aspect ratio.
fn normalize_unit(pts: Vec<Point>) -> Vec<Point> {
    if pts.is_empty() {
        return pts;
    }
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in &pts {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    // A span beyond `f64::MAX` overflows: halve every coordinate first
    // (exact at such magnitudes), which brings the span back in range.
    let k = if (max_x - min_x).is_finite() && (max_y - min_y).is_finite() {
        1.0
    } else {
        0.5
    };
    let side = (k * max_x - k * min_x)
        .max(k * max_y - k * min_y)
        .max(1e-12);
    pts.into_iter()
        .map(|p| Point::new((k * p.x - k * min_x) / side, (k * p.y - k * min_y) / side))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_in_unit_square_and_deterministic() {
        let a = uniform(1000, 42);
        let b = uniform(1000, 42);
        assert_eq!(a.len(), 1000);
        assert!(a
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
        assert_eq!(a, b);
        assert_ne!(a, uniform(1000, 43));
    }

    #[test]
    fn clustered_is_skewed() {
        let pts = clustered(2000, 16, 7);
        assert_eq!(pts.len(), 2000);
        assert!(pts
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
        // Skew check: the occupied fraction of a 16×16 occupancy grid should
        // be well below uniform occupancy.
        let mut grid = [false; 256];
        for p in &pts {
            let gx = ((p.x * 16.0) as usize).min(15);
            let gy = ((p.y * 16.0) as usize).min(15);
            grid[gy * 16 + gx] = true;
        }
        let occupied = grid.iter().filter(|&&b| b).count();
        assert!(
            occupied < 220,
            "clustered data should leave parts of space empty, occupied {occupied}/256"
        );
    }

    #[test]
    fn load_points_parses_and_normalizes() {
        let dir = std::env::temp_dir().join("dsi_datagen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pts.txt");
        std::fs::write(
            &path,
            "# greek towns\n100.0 200.0\n300.0  250.0\n\n150 225\n",
        )
        .unwrap();
        let pts = load_points(&path).unwrap();
        assert_eq!(pts.len(), 3);
        assert!(pts
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y)));
        // Aspect ratio preserved: x spans [0,1], y spans [0, 0.25].
        assert!((pts[1].x - 1.0).abs() < 1e-12);
        assert!((pts[1].y - 0.25).abs() < 1e-12);
    }

    #[test]
    fn load_points_rejects_garbage() {
        let dir = std::env::temp_dir().join("dsi_datagen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "1.0 not-a-number\n").unwrap();
        assert!(load_points(&path).is_err());
    }

    #[test]
    fn load_points_rejects_lines_that_are_not_pairs() {
        let dir = std::env::temp_dir().join("dsi_datagen_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body, line) in [
            ("truncated.txt", "0.1 0.2\n0.53", 2),
            ("extra.txt", "# pts\n0.1 0.2\n\n7 0.5 0.3\n", 4),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let err = load_points(&path).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
            let msg = err.to_string();
            assert!(
                msg.starts_with(&format!("line {line}: expected an x y pair")),
                "{name}: {msg}"
            );
        }
    }

    #[test]
    fn load_points_normalises_spans_beyond_f64_max() {
        let dir = std::env::temp_dir().join("dsi_datagen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.txt");
        std::fs::write(&path, "-1e308 0\n1e308 1\n0 0\n").unwrap();
        let pts = load_points(&path).unwrap();
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        assert_eq!(xs, [0.0, 1.0, 0.5]);
    }

    #[test]
    fn load_points_rejects_non_finite_coordinates() {
        let dir = std::env::temp_dir().join("dsi_datagen_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body, line) in [
            ("overflow.txt", "0.1 0.2\n0.5 0.9\n1e400 0.3\nnan 0.4\n", 3),
            ("nan.txt", "# header\n0.1 0.2\nnan 0.4\n", 3),
            ("inf.txt", "0.1 -inf\n", 1),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let err = load_points(&path).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
            let msg = err.to_string();
            assert!(
                msg.starts_with(&format!("line {line}: non-finite coordinate")),
                "{name}: {msg}"
            );
        }
    }
}
