//! Integer and floating-point 2-D points.

use std::fmt;

/// An integer point in nanometre layout coordinates.
///
/// # Example
///
/// ```
/// use lsopc_geometry::Point;
/// let p = Point::new(10, -4) + Point::new(2, 4);
/// assert_eq!(p, Point::new(12, 0));
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate (nm).
    pub x: i64,
    /// Vertical coordinate (nm).
    pub y: i64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: i64, y: i64) -> Self {
        Self { x, y }
    }
}

impl std::ops::Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A floating-point 2-D point (contour vertices, probe positions).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct FPoint {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl FPoint {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: FPoint) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

impl fmt::Display for FPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(3, 4);
        let b = Point::new(1, -2);
        assert_eq!(a + b, Point::new(4, 2));
        assert_eq!(a - b, Point::new(2, 6));
    }

    #[test]
    fn fpoint_distance() {
        let a = FPoint::new(0.0, 0.0);
        let b = FPoint::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
    }

    #[test]
    fn display() {
        assert_eq!(Point::new(1, 2).to_string(), "(1, 2)");
    }
}
