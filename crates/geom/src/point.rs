//! Points and distance kernels.

/// A point in the two-dimensional Euclidean space of the broadcast system.
///
/// The paper represents a coordinate as two 8-byte floating point numbers
/// (16 bytes on the air); `Point` is the in-memory equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(&self, other: Point) -> f64 {
        dist2(*self, other)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Self { x, y }
    }
}

/// Squared Euclidean distance between two points.
///
/// Query algorithms compare squared distances wherever possible so that the
/// hot loops are free of `sqrt`.
#[inline]
pub fn dist2(a: Point, b: Point) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(0.25, 0.75);
        let b = Point::new(-1.0, 2.0);
        assert_eq!(dist2(a, b), dist2(b, a));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(3.5, -2.25);
        assert_eq!(dist2(p, p), 0.0);
    }

    #[test]
    fn pythagorean_triple() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(dist2(a, b), 25.0);
    }

    #[test]
    fn from_tuple() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p, Point::new(1.0, 2.0));
    }
}
