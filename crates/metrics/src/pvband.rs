//! Process-variation band (paper Fig. 1(b)).

use lsopc_grid::Grid;

/// The process-variation band: the XOR region between the outermost and
/// innermost printed contours over the process window.
///
/// # Example
///
/// ```
/// use lsopc_grid::Grid;
/// use lsopc_metrics::PvBand;
///
/// let inner = Grid::from_fn(8, 8, |x, y| {
///     if (3..5).contains(&x) && (3..5).contains(&y) { 1.0 } else { 0.0 }
/// });
/// let outer = Grid::from_fn(8, 8, |x, y| {
///     if (2..6).contains(&x) && (2..6).contains(&y) { 1.0 } else { 0.0 }
/// });
/// let pvb = PvBand::measure(&inner, &outer, 2.0);
/// assert_eq!(pvb.area_nm2, (16.0 - 4.0) * 4.0); // 12 px at 4 nm² each
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PvBand {
    /// Band area in nm².
    pub area_nm2: f64,
    /// Binary map of the band (1 inside the XOR region), for figures.
    pub map: Grid<f64>,
}

impl PvBand {
    /// Measures the PV band from hard prints at the innermost and
    /// outermost process corners.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ in shape or `pixel_nm` is not positive.
    pub fn measure(inner: &Grid<f64>, outer: &Grid<f64>, pixel_nm: f64) -> Self {
        assert!(pixel_nm > 0.0, "pixel size must be positive");
        assert_eq!(inner.dims(), outer.dims(), "grid dimensions must match");
        let map = inner.zip_map(outer, |&a, &b| {
            let ia = a >= 0.5;
            let ib = b >= 0.5;
            if ia != ib {
                1.0
            } else {
                0.0
            }
        });
        let area_nm2 = map.sum() * pixel_nm * pixel_nm;
        Self { area_nm2, map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_prints_have_zero_band() {
        let g = Grid::from_fn(16, 16, |x, _| if x > 8 { 1.0 } else { 0.0 });
        let pvb = PvBand::measure(&g, &g, 1.0);
        assert_eq!(pvb.area_nm2, 0.0);
        assert_eq!(pvb.map.sum(), 0.0);
    }

    #[test]
    fn area_scales_with_pixel_size() {
        let inner = Grid::new(4, 4, 0.0);
        let outer = Grid::new(4, 4, 1.0);
        assert_eq!(PvBand::measure(&inner, &outer, 1.0).area_nm2, 16.0);
        assert_eq!(PvBand::measure(&inner, &outer, 4.0).area_nm2, 256.0);
    }

    #[test]
    fn xor_is_symmetric() {
        let a = Grid::from_fn(8, 8, |x, _| if x < 3 { 1.0 } else { 0.0 });
        let b = Grid::from_fn(8, 8, |_, y| if y < 2 { 1.0 } else { 0.0 });
        let p1 = PvBand::measure(&a, &b, 1.0);
        let p2 = PvBand::measure(&b, &a, 1.0);
        assert_eq!(p1.area_nm2, p2.area_nm2);
        // |A| + |B| − 2|A∩B| = 24 + 16 − 2·6 = 28.
        assert_eq!(p1.area_nm2, 28.0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_grids_panic() {
        let a = Grid::new(4, 4, 0.0);
        let b = Grid::new(8, 8, 0.0);
        let _ = PvBand::measure(&a, &b, 1.0);
    }
}
