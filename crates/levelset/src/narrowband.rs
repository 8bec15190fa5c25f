//! Narrow-band restriction of level-set evolution.
//!
//! Classic level-set optimization (Adalsteinsson & Sethian): only cells
//! within a band `|ψ| ≤ width` around the contour can influence where the
//! zero level moves, so the evolution update may be restricted to the
//! band. In this workspace the simulation gradient (FFT-dominated) is
//! global either way, so the narrow band is an optional refinement—it
//! keeps far-field ψ values frozen, which avoids spurious far-away
//! islands appearing between reinitializations.

use lsopc_grid::{Grid, Scalar};

/// The set of grid cells within `width` pixels of the zero contour.
#[derive(Clone, Debug, PartialEq)]
pub struct NarrowBand {
    width: f64,
    /// Row-major indices of band cells.
    indices: Vec<u32>,
}

impl NarrowBand {
    /// Extracts the band `|ψ| ≤ width` from a (signed-distance-like)
    /// level-set function.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive.
    ///
    /// # Example
    ///
    /// ```
    /// use lsopc_grid::{Grid, Scalar};
    /// use lsopc_levelset::{signed_distance, NarrowBand};
    ///
    /// let mask = Grid::from_fn(32, 32, |x, y| {
    ///     if (8..24).contains(&x) && (8..24).contains(&y) { 1.0 } else { 0.0 }
    /// });
    /// let psi = signed_distance(&mask);
    /// let band = NarrowBand::extract(&psi, 3.0);
    /// assert!(band.len() > 0);
    /// assert!(band.len() < psi.len()); // a band, not the whole grid
    /// ```
    pub fn extract<T: Scalar>(psi: &Grid<T>, width: f64) -> Self {
        assert!(width > 0.0, "band width must be positive");
        let width_t = T::from_f64(width);
        let indices = psi
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v.abs() <= width_t)
            .map(|(i, _)| i as u32)
            .collect();
        Self { width, indices }
    }

    /// Band half-width in pixels.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of cells in the band.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the band is empty (no contour in the field).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Zeroes a velocity field outside the band, in place, so a
    /// subsequent [`crate::evolve`] step only moves ψ near the contour.
    ///
    /// # Panics
    ///
    /// Panics if the velocity grid size differs from the ψ the band was
    /// extracted from.
    pub fn mask_velocity<T: Scalar>(&self, velocity: &mut Grid<T>) {
        let slice = velocity.as_mut_slice();
        // Walk both the sorted band indices and the slice once.
        let mut band_iter = self.indices.iter().peekable();
        for (i, v) in slice.iter_mut().enumerate() {
            match band_iter.peek() {
                Some(&&next) if next as usize == i => {
                    band_iter.next();
                }
                _ => *v = T::ZERO,
            }
        }
        assert!(
            band_iter.next().is_none(),
            "velocity grid smaller than the band's source grid"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evolve, mask_from_levelset, signed_distance};

    fn psi() -> Grid<f64> {
        let mask = Grid::from_fn(32, 32, |x, y| {
            if (10..22).contains(&x) && (10..22).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        signed_distance(&mask)
    }

    #[test]
    fn band_contains_exactly_the_near_contour_cells() {
        let psi = psi();
        let band = NarrowBand::extract(&psi, 2.0);
        let expected = psi.as_slice().iter().filter(|v| v.abs() <= 2.0).count();
        assert_eq!(band.len(), expected);
        assert!(2 * band.len() < psi.len(), "a band, not the field");
    }

    #[test]
    fn wider_band_is_larger() {
        let psi = psi();
        let narrow = NarrowBand::extract(&psi, 1.0);
        let wide = NarrowBand::extract(&psi, 4.0);
        assert!(wide.len() > narrow.len());
    }

    #[test]
    fn mask_velocity_zeroes_far_field_only() {
        let psi = psi();
        let band = NarrowBand::extract(&psi, 2.0);
        let mut velocity = Grid::new(32, 32, 1.0);
        band.mask_velocity(&mut velocity);
        let moved = velocity.as_slice().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(moved, band.len());
        // Far corner untouched by the band.
        assert_eq!(velocity[(0, 0)], 0.0);
        // A contour-adjacent cell keeps its velocity.
        assert_eq!(velocity[(10, 16)], 1.0);
    }

    #[test]
    fn banded_evolution_moves_the_contour_like_full_evolution_nearby() {
        let mut psi_banded = psi();
        let mut psi_full = psi();
        let band = NarrowBand::extract(&psi_banded, 3.0);
        let mut v_banded = Grid::new(32, 32, -0.8); // expand the mask
        let v_full = v_banded.clone();
        band.mask_velocity(&mut v_banded);
        evolve(&mut psi_banded, &v_banded, 1.0);
        evolve(&mut psi_full, &v_full, 1.0);
        // The resulting masks agree (contour motion only depends on the
        // near field).
        assert_eq!(
            mask_from_levelset(&psi_banded),
            mask_from_levelset(&psi_full)
        );
    }

    #[test]
    fn empty_band_for_far_contourless_field() {
        let flat = Grid::new(8, 8, 10.0);
        let band = NarrowBand::extract(&flat, 2.0);
        assert!(band.is_empty());
        assert_eq!(band.len(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = NarrowBand::extract(&Grid::new(4, 4, 0.0), 0.0);
    }
}
