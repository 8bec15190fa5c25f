//! Rectilinear (axis-parallel) simple polygons.

use crate::{Point, Rect};

/// A simple rectilinear polygon given by its vertices in order.
///
/// The polygon is implicitly closed (the last vertex connects back to the
/// first). Every edge must be axis-parallel; [`Polygon::new`] validates
/// this.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use lsopc_geometry::{Point, Polygon};
///
/// // An L-shape.
/// let poly = Polygon::new(vec![
///     Point::new(0, 0), Point::new(20, 0), Point::new(20, 10),
///     Point::new(10, 10), Point::new(10, 30), Point::new(0, 30),
/// ])?;
/// assert_eq!(poly.area(), 20 * 10 + 10 * 20);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

/// Error constructing a [`Polygon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than four vertices (the smallest rectilinear polygon is a
    /// rectangle).
    TooFewVertices(usize),
    /// An edge is neither horizontal nor vertical.
    NotRectilinear {
        /// Index of the offending edge's first vertex.
        index: usize,
    },
    /// Two consecutive vertices coincide.
    DegenerateEdge {
        /// Index of the offending edge's first vertex.
        index: usize,
    },
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewVertices(n) => write!(f, "polygon needs at least 4 vertices, got {n}"),
            Self::NotRectilinear { index } => {
                write!(f, "edge starting at vertex {index} is not axis-parallel")
            }
            Self::DegenerateEdge { index } => {
                write!(f, "edge starting at vertex {index} has zero length")
            }
        }
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Creates a polygon after validating rectilinearity.
    ///
    /// # Errors
    ///
    /// Returns [`PolygonError`] if fewer than four vertices are supplied,
    /// an edge is diagonal, or an edge has zero length.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 4 {
            return Err(PolygonError::TooFewVertices(vertices.len()));
        }
        let n = vertices.len();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            if a == b {
                return Err(PolygonError::DegenerateEdge { index: i });
            }
            if a.x != b.x && a.y != b.y {
                return Err(PolygonError::NotRectilinear { index: i });
            }
        }
        Ok(Self { vertices })
    }

    /// The vertices in order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Iterator over directed edges `(from, to)`, including the closing
    /// edge.
    pub fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| (self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Absolute enclosed area (shoelace formula), in nm².
    pub fn area(&self) -> i64 {
        self.signed_area().abs()
    }

    /// Signed shoelace area: positive when vertices wind counter-clockwise
    /// in a y-up frame (equivalently clockwise in the y-down grid frame).
    ///
    /// Accumulates in `i128`: individual cross terms reach 2·|coord|² and
    /// would overflow `i64` for coordinates past ±2³⁰ nm even though the
    /// final area of a simple polygon with such coordinates still fits.
    pub fn signed_area(&self) -> i64 {
        let n = self.vertices.len();
        let mut acc = 0i128;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.x as i128 * b.y as i128 - b.x as i128 * a.y as i128;
        }
        (acc / 2) as i64
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        let mut it = self.vertices.iter();
        let first = it.next().expect("validated non-empty");
        let mut r = Rect::new(first.x, first.y, first.x, first.y);
        for p in it {
            r.x0 = r.x0.min(p.x);
            r.y0 = r.y0.min(p.y);
            r.x1 = r.x1.max(p.x);
            r.y1 = r.y1.max(p.y);
        }
        r
    }

    /// Even-odd point-in-polygon test at a floating-point location.
    ///
    /// Points exactly on the boundary may report either side; the
    /// rasterizer only queries pixel centres, which it keeps off integer
    /// edges where possible.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        let mut inside = false;
        for (a, b) in self.edges() {
            // Only non-horizontal edges can cross a horizontal ray.
            if a.y == b.y {
                continue;
            }
            let (ylo, yhi) = (a.y.min(b.y) as f64, a.y.max(b.y) as f64);
            if y >= ylo && y < yhi {
                // Rectilinear: edge is vertical, at x == a.x.
                if (a.x as f64) > x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Translates every vertex by `(dx, dy)`.
    pub fn translated(&self, dx: i64, dy: i64) -> Polygon {
        Polygon {
            vertices: self
                .vertices
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy))
                .collect(),
        }
    }
}

impl From<Rect> for Polygon {
    fn from(r: Rect) -> Self {
        Polygon {
            vertices: r.corners().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polygon {
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(20, 0),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .expect("valid")
    }

    #[test]
    fn rejects_diagonal_edges() {
        let err = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 10),
            Point::new(10, 0),
            Point::new(0, 0),
        ])
        .expect_err("diagonal");
        assert!(matches!(err, PolygonError::NotRectilinear { index: 0 }));
    }

    #[test]
    fn rejects_too_few_vertices() {
        let err = Polygon::new(vec![Point::new(0, 0), Point::new(1, 0), Point::new(1, 1)])
            .expect_err("too few");
        assert_eq!(err, PolygonError::TooFewVertices(3));
    }

    #[test]
    fn rejects_zero_length_edge() {
        let err = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
        ])
        .expect_err("degenerate");
        assert!(matches!(err, PolygonError::DegenerateEdge { index: 0 }));
    }

    #[test]
    fn area_of_l_shape() {
        assert_eq!(l_shape().area(), 400);
    }

    #[test]
    fn rect_conversion_matches_area() {
        let r = Rect::new(2, 3, 12, 9);
        let p: Polygon = r.into();
        assert_eq!(p.area(), r.area());
        assert_eq!(p.bbox(), r);
    }

    #[test]
    fn contains_interior_and_notch() {
        let p = l_shape();
        assert!(p.contains(5.0, 5.0)); // in the horizontal arm
        assert!(p.contains(5.0, 25.0)); // in the vertical arm
        assert!(!p.contains(15.0, 20.0)); // in the notch
        assert!(!p.contains(-1.0, 5.0));
    }

    #[test]
    fn bbox_of_l_shape() {
        assert_eq!(l_shape().bbox(), Rect::new(0, 0, 20, 30));
    }

    #[test]
    fn translation_preserves_area() {
        let p = l_shape().translated(100, -50);
        assert_eq!(p.area(), 400);
        assert_eq!(p.bbox(), Rect::new(100, -50, 120, -20));
    }

    #[test]
    fn edge_count_includes_closure() {
        assert_eq!(l_shape().edges().count(), 6);
    }
}
