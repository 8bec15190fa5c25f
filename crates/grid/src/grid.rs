//! The dense row-major 2-D array type [`Grid`].

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::scalar::Scalar;

/// A dense 2-D array with row-major storage, indexed as `(x, y)` where `x`
/// is the column and `y` the row.
///
/// `Grid` is the common carrier for every field in the workspace: binary
/// masks, aerial intensities, level-set functions and complex spectra.
///
/// # Example
///
/// ```
/// use lsopc_grid::Grid;
///
/// let mut g = Grid::new(3, 2, 0.0_f64);
/// g[(2, 1)] = 7.0;
/// assert_eq!(g.width(), 3);
/// assert_eq!(g.height(), 2);
/// assert_eq!(g.as_slice()[5], 7.0); // row-major: index = y*width + x
/// ```
#[derive(Clone, PartialEq)]
pub struct Grid<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a `width` x `height` grid with every cell set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `height == 0`.
    pub fn new(width: usize, height: usize, fill: T) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![fill; width * height],
        }
    }

    /// Creates a grid from an existing row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        assert_eq!(
            data.len(),
            width * height,
            "data length {} does not match {}x{}",
            data.len(),
            width,
            height
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Fills every cell with `value`.
    pub fn fill(&mut self, value: T) {
        for v in &mut self.data {
            *v = value.clone();
        }
    }
}

impl<T> Grid<T> {
    /// Creates a grid by evaluating `f(x, y)` at every cell.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Grid width (number of columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: grids have non-zero dimensions by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Row-major view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// One row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(y < self.height, "row {y} out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Checked access: `None` outside the grid.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<&T> {
        if x < self.width && y < self.height {
            Some(&self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Iterator over `(x, y, &value)` in row-major order.
    pub fn iter_coords(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (i % w, i / w, v))
    }

    /// Maps every cell through `f`, producing a grid of a new element type.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Combines two same-shape grids element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the grids have different dimensions.
    pub fn zip_map<U, V>(&self, other: &Grid<U>, mut f: impl FnMut(&T, &U) -> V) -> Grid<V> {
        assert_eq!(self.dims(), other.dims(), "grid dimensions must match");
        Grid {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        }
    }

    /// Applies `f` to every cell in place.
    pub fn apply(&mut self, mut f: impl FnMut(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }
}

impl<T: Copy> Grid<T> {
    /// Extracts the `w` x `h` sub-grid whose top-left corner is `(x0, y0)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit inside the grid.
    pub fn window(&self, x0: usize, y0: usize, w: usize, h: usize) -> Grid<T> {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "window out of bounds"
        );
        Grid::from_fn(w, h, |x, y| self[(x0 + x, y0 + y)])
    }
}

impl Grid<f64> {
    /// Downsamples by integer `factor`, averaging each `factor` x `factor`
    /// block. Used to rescale 1 nm/px layouts to coarser simulation grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not divisible by `factor` or
    /// `factor == 0`.
    pub fn downsample(&self, factor: usize) -> Grid<f64> {
        assert!(factor > 0, "factor must be positive");
        assert!(
            self.width.is_multiple_of(factor) && self.height.is_multiple_of(factor),
            "dimensions {}x{} not divisible by {}",
            self.width,
            self.height,
            factor
        );
        let inv = 1.0 / (factor * factor) as f64;
        Grid::from_fn(self.width / factor, self.height / factor, |x, y| {
            let mut acc = 0.0;
            for dy in 0..factor {
                for dx in 0..factor {
                    acc += self[(x * factor + dx, y * factor + dy)];
                }
            }
            acc * inv
        })
    }
}

impl<T: Scalar> Grid<T> {
    /// Binarizes the grid at `threshold`: cells `>= threshold` become 1.0.
    pub fn binarize(&self, threshold: f64) -> Grid<T> {
        let threshold = T::from_f64(threshold);
        self.map(|&v| if v >= threshold { T::ONE } else { T::ZERO })
    }

    /// Sum of all cells.
    pub fn sum(&self) -> T {
        self.data.iter().copied().sum()
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;
    /// Indexing by `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= width` or `y >= height`.
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        debug_assert!(
            x < self.width && y < self.height,
            "index ({x},{y}) out of bounds"
        );
        &self.data[y * self.width + x]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        debug_assert!(
            x < self.width && y < self.height,
            "index ({x},{y}) out of bounds"
        );
        &mut self.data[y * self.width + x]
    }
}

impl<T: fmt::Debug> fmt::Debug for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid {}x{} ", self.width, self.height)?;
        if self.len() <= 64 {
            for y in 0..self.height {
                writeln!(f)?;
                write!(f, "  ")?;
                for x in 0..self.width {
                    write!(f, "{:?} ", self.data[y * self.width + x])?;
                }
            }
            Ok(())
        } else {
            write!(f, "[{} cells]", self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index() {
        let mut g = Grid::new(4, 3, 0i32);
        g[(1, 2)] = 5;
        assert_eq!(g[(1, 2)], 5);
        assert_eq!(g.as_slice()[2 * 4 + 1], 5);
        assert_eq!(g.dims(), (4, 3));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        let _ = Grid::new(0, 3, 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Grid::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn from_fn_coordinates() {
        let g = Grid::from_fn(3, 2, |x, y| 10 * y + x);
        assert_eq!(g[(2, 0)], 2);
        assert_eq!(g[(0, 1)], 10);
        assert_eq!(g[(2, 1)], 12);
    }

    #[test]
    fn rows_are_contiguous() {
        let g = Grid::from_fn(3, 3, |x, y| (x, y));
        assert_eq!(g.row(1), &[(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Grid::from_fn(2, 2, |x, y| (x + y) as f64);
        let b = a.map(|v| v * 2.0);
        let c = a.zip_map(&b, |x, y| y - x);
        assert_eq!(c.as_slice(), &[0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn window_extracts_block() {
        let g = Grid::from_fn(4, 4, |x, y| y * 4 + x);
        let w = g.window(1, 2, 2, 2);
        assert_eq!(w.as_slice(), &[9, 10, 13, 14]);
    }

    #[test]
    fn downsample_averages_blocks() {
        let g = Grid::from_fn(4, 4, |x, _| x as f64);
        let d = g.downsample(2);
        assert_eq!(d.dims(), (2, 2));
        assert_eq!(d[(0, 0)], 0.5);
        assert_eq!(d[(1, 0)], 2.5);
    }

    #[test]
    fn binarize_threshold() {
        let g = Grid::from_vec(2, 1, vec![0.2, 0.8]);
        assert_eq!(g.binarize(0.5).as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn iter_coords_visits_all_cells() {
        let g = Grid::from_fn(3, 2, |x, y| x + 10 * y);
        let coords: Vec<_> = g.iter_coords().map(|(x, y, &v)| (x, y, v)).collect();
        assert_eq!(coords.len(), 6);
        assert_eq!(coords[4], (1, 1, 11));
    }

    #[test]
    fn debug_small_grid_prints_rows() {
        let g = Grid::new(2, 2, 1);
        let s = format!("{g:?}");
        assert!(s.contains("Grid 2x2"));
        assert!(s.contains('1'));
    }
}
