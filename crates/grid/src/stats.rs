//! Reductions over real-valued grids used by the optimizer.

use crate::{Grid, Scalar};

/// Maximum absolute value over the grid.
///
/// Returns zero for an all-zero grid; NaN cells are ignored (treated as
/// not larger than any finite value).
///
/// # Example
///
/// ```
/// use lsopc_grid::{Grid, max_abs};
/// let g = Grid::from_vec(2, 1, vec![-3.0, 2.0]);
/// assert_eq!(max_abs(&g), 3.0);
/// ```
pub fn max_abs<T: Scalar>(g: &Grid<T>) -> T {
    g.as_slice()
        .iter()
        .fold(T::ZERO, |acc, &v| acc.max(v.abs()))
}

/// Squared Euclidean (Frobenius) norm `Σ v²`.
pub fn l2_norm_sq<T: Scalar>(g: &Grid<T>) -> T {
    g.as_slice().iter().map(|&v| v * v).sum()
}

/// Inner product `Σ aᵢ bᵢ` of two same-shape grids.
///
/// # Panics
///
/// Panics if the grids have different dimensions.
pub fn dot<T: Scalar>(a: &Grid<T>, b: &Grid<T>) -> T {
    assert_eq!(a.dims(), b.dims(), "grid dimensions must match");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x * y)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_of_mixed_signs() {
        let g = Grid::from_vec(3, 1, vec![1.0, -5.0, 4.0]);
        assert_eq!(max_abs(&g), 5.0);
    }

    #[test]
    fn max_abs_of_zero_grid_is_zero() {
        let g: Grid<f64> = Grid::new(4, 4, 0.0);
        assert_eq!(max_abs(&g), 0.0);
    }

    #[test]
    fn norms_match_hand_computation() {
        let g = Grid::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(l2_norm_sq(&g), 25.0);
    }

    #[test]
    fn dot_is_bilinear() {
        let a = Grid::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Grid::from_vec(2, 1, vec![3.0, -1.0]);
        assert_eq!(dot(&a, &b), 1.0);
        assert_eq!(dot(&a, &a), l2_norm_sq(&a));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn dot_shape_mismatch_panics() {
        let a: Grid<f64> = Grid::new(2, 1, 0.0);
        let b: Grid<f64> = Grid::new(1, 2, 0.0);
        let _ = dot(&a, &b);
    }
}
