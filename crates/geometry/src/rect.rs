//! Axis-aligned rectangles.

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle `[x0, x1) x [y0, y1)` in nanometres.
///
/// The half-open convention means two rectangles sharing an edge do not
/// overlap, and the pixel area of a rectangle rasterized at 1 nm/px equals
/// [`Rect::area`].
///
/// # Example
///
/// ```
/// use lsopc_geometry::Rect;
/// let r = Rect::new(0, 0, 10, 4);
/// assert_eq!(r.area(), 40);
/// assert!(r.contains(9, 3));
/// assert!(!r.contains(10, 3)); // exclusive upper edge
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i64,
    /// Top edge (inclusive).
    pub y0: i64,
    /// Right edge (exclusive).
    pub x1: i64,
    /// Bottom edge (exclusive).
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle, normalizing coordinate order.
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Self {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Creates a rectangle from origin and size.
    pub fn from_origin_size(x: i64, y: i64, w: i64, h: i64) -> Self {
        Self::new(x, y, x + w, y + h)
    }

    /// Width in nm.
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height in nm.
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// True if the rectangle has zero area.
    pub fn is_degenerate(&self) -> bool {
        self.x0 == self.x1 || self.y0 == self.y1
    }

    /// True if the point `(x, y)` lies inside (half-open).
    pub fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// True if the two rectangles share interior area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// Smallest rectangle containing both.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Translates by `(dx, dy)`.
    pub fn translated(&self, dx: i64, dy: i64) -> Rect {
        Rect {
            x0: self.x0 + dx,
            y0: self.y0 + dy,
            x1: self.x1 + dx,
            y1: self.y1 + dy,
        }
    }

    /// Expands every edge outward by `margin` (may be negative to shrink).
    pub fn inflated(&self, margin: i64) -> Rect {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// The four corners in clockwise order starting at `(x0, y0)`.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.x0, self.y0),
            Point::new(self.x1, self.y0),
            Point::new(self.x1, self.y1),
            Point::new(self.x0, self.y1),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}) x [{}, {})", self.x0, self.x1, self.y0, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_order() {
        let r = Rect::new(10, 8, 2, 4);
        assert_eq!(r, Rect::new(2, 4, 10, 8));
        assert_eq!(r.width(), 8);
        assert_eq!(r.height(), 4);
    }

    #[test]
    fn touching_rects_do_not_intersect() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn union_bbox_covers_both() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(10, 10, 12, 13);
        let u = a.union_bbox(&b);
        assert_eq!(u, Rect::new(0, 0, 12, 13));
    }

    #[test]
    fn translate_and_inflate() {
        let r = Rect::new(0, 0, 4, 4).translated(1, 2);
        assert_eq!(r, Rect::new(1, 2, 5, 6));
        assert_eq!(r.inflated(1), Rect::new(0, 1, 6, 7));
        assert_eq!(r.inflated(-2).area(), 0);
    }

    #[test]
    fn degenerate_detection() {
        assert!(Rect::new(3, 3, 3, 9).is_degenerate());
        assert!(!Rect::new(0, 0, 1, 1).is_degenerate());
    }

    #[test]
    fn corners_clockwise() {
        let c = Rect::new(0, 0, 2, 3).corners();
        assert_eq!(c[0], Point::new(0, 0));
        assert_eq!(c[1], Point::new(2, 0));
        assert_eq!(c[2], Point::new(2, 3));
        assert_eq!(c[3], Point::new(0, 3));
    }
}
