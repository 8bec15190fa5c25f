//! Layouts: collections of shapes forming one benchmark tile.

use crate::{Polygon, Rect};

/// Either a rectangle or a general rectilinear polygon.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// An axis-aligned rectangle.
    Rect(Rect),
    /// A rectilinear polygon.
    Polygon(Polygon),
}

impl Shape {
    /// Enclosed area in nm² (shapes are assumed disjoint within a layout).
    pub fn area(&self) -> i64 {
        match self {
            Shape::Rect(r) => r.area(),
            Shape::Polygon(p) => p.area(),
        }
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        match self {
            Shape::Rect(r) => *r,
            Shape::Polygon(p) => p.bbox(),
        }
    }

    /// Translated copy.
    pub fn translated(&self, dx: i64, dy: i64) -> Shape {
        match self {
            Shape::Rect(r) => Shape::Rect(r.translated(dx, dy)),
            Shape::Polygon(p) => Shape::Polygon(p.translated(dx, dy)),
        }
    }

    /// View as a polygon (rectangles are converted).
    pub fn to_polygon(&self) -> Polygon {
        match self {
            Shape::Rect(r) => (*r).into(),
            Shape::Polygon(p) => p.clone(),
        }
    }
}

impl From<Rect> for Shape {
    fn from(r: Rect) -> Self {
        Shape::Rect(r)
    }
}

impl From<Polygon> for Shape {
    fn from(p: Polygon) -> Self {
        Shape::Polygon(p)
    }
}

/// A design layout: a set of non-overlapping shapes in one tile.
///
/// # Example
///
/// ```
/// use lsopc_geometry::{Layout, Rect};
///
/// let mut layout = Layout::new();
/// layout.push(Rect::new(0, 0, 100, 40).into());
/// layout.push(Rect::new(0, 80, 100, 120).into());
/// assert_eq!(layout.total_area(), 100 * 40 * 2);
/// assert_eq!(layout.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layout {
    shapes: Vec<Shape>,
    /// Optional cell name carried from / written to `.glp`.
    pub name: Option<String>,
}

impl Layout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a shape.
    pub fn push(&mut self, shape: Shape) {
        self.shapes.push(shape);
    }

    /// The shapes in insertion order.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Number of shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// True if the layout has no shapes.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Sum of shape areas in nm² (assumes disjoint shapes).
    pub fn total_area(&self) -> i64 {
        self.shapes.iter().map(Shape::area).sum()
    }

    /// Bounding box over all shapes, or `None` when empty.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.shapes.iter();
        let first = it.next()?.bbox();
        Some(it.fold(first, |acc, s| acc.union_bbox(&s.bbox())))
    }

    /// Translated copy of the whole layout.
    pub fn translated(&self, dx: i64, dy: i64) -> Layout {
        Layout {
            shapes: self.shapes.iter().map(|s| s.translated(dx, dy)).collect(),
            name: self.name.clone(),
        }
    }
}

impl FromIterator<Shape> for Layout {
    fn from_iter<I: IntoIterator<Item = Shape>>(iter: I) -> Self {
        Layout {
            shapes: iter.into_iter().collect(),
            name: None,
        }
    }
}

impl Extend<Shape> for Layout {
    fn extend<I: IntoIterator<Item = Shape>>(&mut self, iter: I) {
        self.shapes.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    #[test]
    fn empty_layout() {
        let l = Layout::new();
        assert!(l.is_empty());
        assert_eq!(l.total_area(), 0);
        assert!(l.bbox().is_none());
    }

    #[test]
    fn bbox_spans_shapes() {
        let l: Layout = [
            Shape::from(Rect::new(0, 0, 10, 10)),
            Shape::from(Rect::new(50, 20, 60, 40)),
        ]
        .into_iter()
        .collect();
        assert_eq!(l.bbox(), Some(Rect::new(0, 0, 60, 40)));
    }

    #[test]
    fn mixed_shapes_area() {
        let poly = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
            Point::new(0, 10),
        ])
        .expect("valid");
        let mut l = Layout::new();
        l.push(Rect::new(20, 0, 30, 10).into());
        l.push(poly.into());
        assert_eq!(l.total_area(), 200);
    }

    #[test]
    fn translate_moves_bbox() {
        let mut l = Layout::new();
        l.push(Rect::new(0, 0, 4, 4).into());
        let t = l.translated(10, 20);
        assert_eq!(t.bbox(), Some(Rect::new(10, 20, 14, 24)));
        assert_eq!(t.total_area(), l.total_area());
    }

    #[test]
    fn extend_appends() {
        let mut l = Layout::new();
        l.extend([
            Shape::from(Rect::new(0, 0, 1, 1)),
            Shape::from(Rect::new(2, 2, 3, 3)),
        ]);
        assert_eq!(l.len(), 2);
    }
}
