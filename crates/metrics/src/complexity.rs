//! Mask complexity and manufacturability metrics.
//!
//! The paper motivates the level-set formulation by the "unwanted tiny
//! isolated stains and edge glitches" that pixel-wise ILT produces
//! (Section I). This module makes that claim measurable:
//!
//! * [`MaskComplexity`] — fragment count, perimeter, smallest fragment,
//!   and jaggedness (perimeter²/area, scale-free);
//! * [`MrcReport`] — mask rule checks: minimum feature width and minimum
//!   spacing violations, measured by morphological probing.
//!
//! These feed the ablation study comparing level-set masks against
//! pixel-ILT masks.

use lsopc_geometry::label_components;
use lsopc_grid::Grid;

/// Geometric complexity measures of a binary mask.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MaskComplexity {
    /// Number of connected mask fragments.
    pub fragments: usize,
    /// Total boundary length in pixel edges (4-neighbour transitions).
    pub perimeter_px: usize,
    /// Pixel area of the smallest fragment (0 when the mask is empty).
    pub smallest_fragment_px: usize,
    /// Isoperimetric jaggedness `perimeter² / (16·area)`: 1.0 for a
    /// square, larger for more ragged geometry.
    pub jaggedness: f64,
}

impl MaskComplexity {
    /// Measures a binary mask (`>= 0.5` is inside).
    ///
    /// # Example
    ///
    /// ```
    /// use lsopc_grid::Grid;
    /// use lsopc_metrics::MaskComplexity;
    ///
    /// // A single 8x8 square: jaggedness exactly 1.
    /// let mask = Grid::from_fn(16, 16, |x, y| {
    ///     if (4..12).contains(&x) && (4..12).contains(&y) { 1.0 } else { 0.0 }
    /// });
    /// let c = MaskComplexity::measure(&mask);
    /// assert_eq!(c.fragments, 1);
    /// assert_eq!(c.perimeter_px, 32);
    /// assert!((c.jaggedness - 1.0).abs() < 1e-12);
    /// ```
    pub fn measure(mask: &Grid<f64>) -> Self {
        let (w, h) = mask.dims();
        let inside = |x: i64, y: i64| -> bool {
            if x < 0 || y < 0 || x >= w as i64 || y >= h as i64 {
                false
            } else {
                mask[(x as usize, y as usize)] >= 0.5
            }
        };
        let mut perimeter = 0usize;
        let mut area = 0usize;
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                if !inside(x, y) {
                    continue;
                }
                area += 1;
                for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                    if !inside(x + dx, y + dy) {
                        perimeter += 1;
                    }
                }
            }
        }
        let (_, comps) = label_components(mask, 0.5);
        let smallest = comps.iter().map(|c| c.area).min().unwrap_or(0);
        let jaggedness = if area > 0 {
            (perimeter * perimeter) as f64 / (16.0 * area as f64)
        } else {
            0.0
        };
        Self {
            fragments: comps.len(),
            perimeter_px: perimeter,
            smallest_fragment_px: smallest,
            jaggedness,
        }
    }
}

/// Mask rule check results.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MrcReport {
    /// Mask pixels sitting in a run (horizontal or vertical) narrower than
    /// the minimum width.
    pub width_violations: usize,
    /// Background pixels in a gap narrower than the minimum spacing that
    /// separates two mask pixels.
    pub spacing_violations: usize,
}

impl MrcReport {
    /// Checks minimum width and spacing (both in pixels) by run-length
    /// scanning every row and column.
    ///
    /// A run of consecutive mask pixels shorter than `min_width_px` in
    /// *both* directions marks its pixels as width violations (thin in
    /// one direction only is fine — that is just a wire seen across).
    /// A run of background pixels shorter than `min_space_px` with mask
    /// on both sides marks spacing violations.
    ///
    /// # Panics
    ///
    /// Panics if either minimum is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use lsopc_grid::Grid;
    /// use lsopc_metrics::MrcReport;
    ///
    /// // Two bars 2px apart: spacing check at 4px flags the gap.
    /// let mask = Grid::from_fn(16, 8, |x, _| {
    ///     if (2..6).contains(&x) || (8..12).contains(&x) { 1.0 } else { 0.0 }
    /// });
    /// let mrc = MrcReport::check(&mask, 3, 4);
    /// assert_eq!(mrc.width_violations, 0);
    /// assert!(mrc.spacing_violations > 0);
    /// ```
    pub fn check(mask: &Grid<f64>, min_width_px: usize, min_space_px: usize) -> Self {
        assert!(min_width_px > 0, "minimum width must be positive");
        assert!(min_space_px > 0, "minimum spacing must be positive");
        let (w, h) = mask.dims();
        let is_in = |x: usize, y: usize| mask[(x, y)] >= 0.5;

        // Horizontal and vertical run lengths per pixel.
        let mut run_h: Grid<u32> = Grid::new(w, h, 0);
        let mut run_v: Grid<u32> = Grid::new(w, h, 0);
        for y in 0..h {
            let mut x = 0;
            while x < w {
                if is_in(x, y) {
                    let start = x;
                    while x < w && is_in(x, y) {
                        x += 1;
                    }
                    let len = (x - start) as u32;
                    for i in start..x {
                        run_h[(i, y)] = len;
                    }
                } else {
                    x += 1;
                }
            }
        }
        for x in 0..w {
            let mut y = 0;
            while y < h {
                if is_in(x, y) {
                    let start = y;
                    while y < h && is_in(x, y) {
                        y += 1;
                    }
                    let len = (y - start) as u32;
                    for j in start..y {
                        run_v[(x, j)] = len;
                    }
                } else {
                    y += 1;
                }
            }
        }
        let mut width_violations = 0usize;
        for y in 0..h {
            for x in 0..w {
                if is_in(x, y)
                    && (run_h[(x, y)] as usize) < min_width_px
                    && (run_v[(x, y)] as usize) < min_width_px
                {
                    width_violations += 1;
                }
            }
        }

        // Spacing: short background runs bounded by mask on both sides.
        let mut spacing_violations = 0usize;
        for y in 0..h {
            let mut x = 1;
            while x < w {
                if !is_in(x, y) && is_in(x - 1, y) {
                    let start = x;
                    while x < w && !is_in(x, y) {
                        x += 1;
                    }
                    if x < w && (x - start) < min_space_px {
                        spacing_violations += x - start;
                    }
                } else {
                    x += 1;
                }
            }
        }
        for x in 0..w {
            let mut y = 1;
            while y < h {
                if !is_in(x, y) && is_in(x, y - 1) {
                    let start = y;
                    while y < h && !is_in(x, y) {
                        y += 1;
                    }
                    if y < h && (y - start) < min_space_px {
                        spacing_violations += y - start;
                    }
                } else {
                    y += 1;
                }
            }
        }
        Self {
            width_violations,
            spacing_violations,
        }
    }

    /// Total rule violations.
    pub fn total(&self) -> usize {
        self.width_violations + self.spacing_violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(n: usize, lo: usize, hi: usize) -> Grid<f64> {
        Grid::from_fn(n, n, |x, y| {
            if (lo..hi).contains(&x) && (lo..hi).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn square_complexity_is_canonical() {
        let c = MaskComplexity::measure(&square(32, 8, 24));
        assert_eq!(c.fragments, 1);
        assert_eq!(c.perimeter_px, 4 * 16);
        assert_eq!(c.smallest_fragment_px, 256);
        assert!((c.jaggedness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speckle_raises_fragment_count_and_jaggedness() {
        let mut m = square(32, 8, 24);
        m[(2, 2)] = 1.0;
        m[(29, 3)] = 1.0;
        let c = MaskComplexity::measure(&m);
        assert_eq!(c.fragments, 3);
        assert_eq!(c.smallest_fragment_px, 1);
        assert!(c.jaggedness > 1.0);
    }

    #[test]
    fn empty_mask_measures_zero() {
        let c = MaskComplexity::measure(&Grid::new(8, 8, 0.0));
        assert_eq!(c, MaskComplexity::default());
    }

    #[test]
    fn wide_wire_passes_width_check() {
        // A 4px-wide wire: thin horizontally but long vertically — legal.
        let m = Grid::from_fn(16, 16, |x, _| if (6..10).contains(&x) { 1.0 } else { 0.0 });
        let mrc = MrcReport::check(&m, 4, 2);
        assert_eq!(mrc.width_violations, 0);
    }

    #[test]
    fn isolated_speck_fails_width_check() {
        let mut m = Grid::new(16, 16, 0.0);
        m[(8, 8)] = 1.0;
        let mrc = MrcReport::check(&m, 3, 3);
        assert_eq!(mrc.width_violations, 1);
    }

    #[test]
    fn close_bars_fail_spacing_check() {
        let m = Grid::from_fn(16, 4, |x, _| {
            if (2..5).contains(&x) || (7..10).contains(&x) {
                1.0
            } else {
                0.0
            }
        });
        // Gap is 2px wide (x = 5, 6): at min_space 3, both gap pixels per
        // row violate (4 rows × 2 px).
        let mrc = MrcReport::check(&m, 1, 3);
        assert_eq!(mrc.spacing_violations, 8);
        // Relaxing the rule to 2px clears it.
        assert_eq!(MrcReport::check(&m, 1, 2).spacing_violations, 0);
    }

    #[test]
    fn grid_edge_gaps_are_not_spacing_violations() {
        // Background between mask and the field edge does not count.
        let m = square(16, 0, 4);
        let mrc = MrcReport::check(&m, 2, 8);
        assert_eq!(mrc.spacing_violations, 0);
        assert_eq!(mrc.total(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rule_panics() {
        let _ = MrcReport::check(&Grid::new(4, 4, 0.0), 0, 1);
    }
}
