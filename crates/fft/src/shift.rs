//! Index utilities on the periodic grid.
//!
//! The optics crate stores kernel spectra on small centred windows (DC in
//! the middle); the FFT works with DC at index 0. [`wrap_index`] maps a
//! centred offset onto the DFT bin layout, and [`cyclic_shift`]
//! translates a field with wraparound.

use lsopc_grid::Grid;

/// Wraps a signed frequency index onto `[0, n)` (DFT bin layout).
///
/// # Example
///
/// ```
/// use lsopc_fft::wrap_index;
/// assert_eq!(wrap_index(-1, 8), 7);
/// assert_eq!(wrap_index(3, 8), 3);
/// ```
#[inline]
pub fn wrap_index(k: i64, n: usize) -> usize {
    let n = n as i64;
    (((k % n) + n) % n) as usize
}

/// Translates a periodic field by whole pixels with wraparound: output
/// cell `(x, y)` takes the value of input cell `(x − dx, y − dy)` (mod
/// the grid), so positive shifts move content toward larger indices.
///
/// Cyclic shifts are exactly invertible — `cyclic_shift(&cyclic_shift(g,
/// dx, dy), -dx, -dy)` reproduces `g` bit-for-bit — which is what makes
/// them the right alignment primitive for the warm-start cache's
/// translation-invariant keying (shifted copies of a cached level set
/// round-trip without loss).
///
/// # Example
///
/// ```
/// use lsopc_fft::cyclic_shift;
/// use lsopc_grid::Grid;
///
/// let mut g = Grid::new(4, 4, 0);
/// g[(1, 2)] = 9;
/// let s = cyclic_shift(&g, 2, -1);
/// assert_eq!(s[(3, 1)], 9);
/// let back = cyclic_shift(&s, -2, 1);
/// assert_eq!(back, g);
/// ```
pub fn cyclic_shift<T: Copy>(g: &Grid<T>, dx: i64, dy: i64) -> Grid<T> {
    let (w, h) = g.dims();
    if wrap_index(dx, w) == 0 && wrap_index(dy, h) == 0 {
        return g.clone();
    }
    Grid::from_fn(w, h, |x, y| {
        let sx = wrap_index(x as i64 - dx, w);
        let sy = wrap_index(y as i64 - dy, h);
        g[(sx, sy)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_negative_and_positive() {
        assert_eq!(wrap_index(0, 4), 0);
        assert_eq!(wrap_index(-1, 4), 3);
        assert_eq!(wrap_index(-4, 4), 0);
        assert_eq!(wrap_index(5, 4), 1);
    }

    #[test]
    fn cyclic_shift_moves_content_with_wraparound() {
        let mut g = Grid::new(4, 3, 0);
        g[(3, 2)] = 5;
        let s = cyclic_shift(&g, 1, 1);
        assert_eq!(s[(0, 0)], 5);
        assert_eq!(s.as_slice().iter().filter(|&&v| v != 0).count(), 1);
    }

    #[test]
    fn cyclic_shift_roundtrips_bitwise() {
        let g = Grid::from_fn(8, 8, |x, y| (x as f64 * 0.37 + y as f64 * 1.91).sin());
        for &(dx, dy) in &[(0i64, 0i64), (3, -2), (-7, 5), (8, 8), (13, -11)] {
            let round = cyclic_shift(&cyclic_shift(&g, dx, dy), -dx, -dy);
            for (a, b) in round.as_slice().iter().zip(g.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "shift ({dx},{dy}) lost bits");
            }
        }
    }

    #[test]
    fn cyclic_shift_by_zero_or_period_is_identity() {
        let g = Grid::from_fn(6, 4, |x, y| (y * 6 + x) as i32);
        assert_eq!(cyclic_shift(&g, 0, 0), g);
        assert_eq!(cyclic_shift(&g, 6, 4), g);
        assert_eq!(cyclic_shift(&g, -6, -4), g);
    }
}
