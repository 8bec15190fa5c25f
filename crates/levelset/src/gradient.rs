//! The upwind gradient-magnitude scheme for level-set evolution.

use lsopc_grid::{Grid, Scalar};

/// Godunov upwind |∇ψ| for advection under the speed field `speed`.
///
/// For each cell the one-sided differences are combined according to the
/// sign of the local speed (Osher–Sethian scheme), which keeps the
/// evolution stable where the contour moves toward or away from the cell:
///
/// * speed > 0 (contour expands): `√(max(D⁻ˣ,0)² + min(D⁺ˣ,0)² + …)`
/// * speed < 0 (contour shrinks): `√(min(D⁻ˣ,0)² + max(D⁺ˣ,0)² + …)`
///
/// # Panics
///
/// Panics if the two grids have different dimensions.
pub fn godunov_gradient<T: Scalar>(psi: &Grid<T>, speed: &Grid<T>) -> Grid<T> {
    assert_eq!(psi.dims(), speed.dims(), "grid dimensions must match");
    let (w, h) = psi.dims();
    Grid::from_fn(w, h, |x, y| godunov_at(psi, x, y, speed[(x, y)]))
}

/// The level-set speed `G·|∇ψ|` of paper Eq. (10), written over the
/// field `G` it is built from: each cell `g` becomes `g·m`, with `m` the
/// [`godunov_gradient`] of ψ under `G` at that cell, in one row-major
/// sweep that allocates nothing. `visit(i, v)` sees each new value `v`
/// at its row-major index `i`, in that order, so a caller can fold sums
/// over the result into the same sweep.
///
/// The upwind difference at a cell reads ψ and the sign of `G` at that
/// cell only, so overwriting `G` as the sweep goes changes nothing: the
/// result is bit for bit `G ⊙ godunov_gradient(ψ, G)`.
///
/// # Panics
///
/// Panics if the two grids have different dimensions.
pub fn godunov_velocity<T: Scalar>(
    psi: &Grid<T>,
    speed: &mut Grid<T>,
    mut visit: impl FnMut(usize, T),
) {
    assert_eq!(psi.dims(), speed.dims(), "grid dimensions must match");
    let (w, h) = psi.dims();
    let cells = speed.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            let g = cells[i];
            cells[i] = g * godunov_at(psi, x, y, g);
            visit(i, cells[i]);
        }
    }
}

/// The Godunov upwind |∇ψ| at `(x, y)` under the local speed `s`.
#[inline]
fn godunov_at<T: Scalar>(psi: &Grid<T>, x: usize, y: usize, s: T) -> T {
    let dxm = diff_backward(psi, x, y, true);
    let dxp = diff_forward(psi, x, y, true);
    let dym = diff_backward(psi, x, y, false);
    let dyp = diff_forward(psi, x, y, false);
    let (a, b, c, d) = if s > T::ZERO {
        (
            dxm.max(T::ZERO),
            dxp.min(T::ZERO),
            dym.max(T::ZERO),
            dyp.min(T::ZERO),
        )
    } else {
        (
            dxm.min(T::ZERO),
            dxp.max(T::ZERO),
            dym.min(T::ZERO),
            dyp.max(T::ZERO),
        )
    };
    (a * a + b * b + c * c + d * d).sqrt()
}

#[inline]
fn diff_backward<T: Scalar>(psi: &Grid<T>, x: usize, y: usize, along_x: bool) -> T {
    if along_x {
        if x == 0 {
            T::ZERO
        } else {
            psi[(x, y)] - psi[(x - 1, y)]
        }
    } else if y == 0 {
        T::ZERO
    } else {
        psi[(x, y)] - psi[(x, y - 1)]
    }
}

#[inline]
fn diff_forward<T: Scalar>(psi: &Grid<T>, x: usize, y: usize, along_x: bool) -> T {
    let (w, h) = psi.dims();
    if along_x {
        if x == w - 1 {
            T::ZERO
        } else {
            psi[(x + 1, y)] - psi[(x, y)]
        }
    } else if y == h - 1 {
        T::ZERO
    } else {
        psi[(x, y + 1)] - psi[(x, y)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signed_distance;

    #[test]
    fn godunov_matches_central_on_smooth_ramp() {
        let psi = Grid::from_fn(16, 16, |x, _| x as f64);
        let speed = Grid::new(16, 16, 1.0);
        let g = godunov_gradient(&psi, &speed);
        assert!((g[(8, 8)] - 1.0).abs() < 1e-12);
        let speed_neg = Grid::new(16, 16, -1.0);
        let g2 = godunov_gradient(&psi, &speed_neg);
        assert!((g2[(8, 8)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn godunov_on_sdf_is_near_one_on_contour() {
        let mask = Grid::from_fn(32, 32, |x, y| {
            if (8..24).contains(&x) && (8..24).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let psi = signed_distance(&mask);
        let speed = Grid::new(32, 32, 1.0);
        let g = godunov_gradient(&psi, &speed);
        // On the flat part of an edge the SDF satisfies the eikonal
        // equation.
        assert!((g[(16, 8)] - 1.0).abs() < 1e-6);
        assert!((g[(8, 16)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn godunov_at_kink_picks_entropy_solution() {
        // ψ = |x - 8|: a valley at x = 8. For positive speed (expanding
        // away from the valley) the Godunov gradient at the kink is 0.
        let psi = Grid::from_fn(17, 3, |x, _| (x as f64 - 8.0).abs());
        let plus = Grid::new(17, 3, 1.0);
        let minus = Grid::new(17, 3, -1.0);
        let gp = godunov_gradient(&psi, &plus);
        let gm = godunov_gradient(&psi, &minus);
        assert!(gp[(8, 1)].abs() < 1e-12, "expanding kink: {}", gp[(8, 1)]);
        assert!((gm[(8, 1)] - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn velocity_sweep_is_the_speed_times_the_godunov_gradient() {
        let mask = Grid::from_fn(24, 16, |x, y| {
            if (5..17).contains(&x) && (4..11).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let psi = signed_distance(&mask);
        let speed = Grid::from_fn(24, 16, |x, y| ((x * 7 + y * 3) % 5) as f64 - 2.0);
        let want = speed.zip_map(&godunov_gradient(&psi, &speed), |&g, &m| g * m);
        let mut got = speed.clone();
        let mut seen = Vec::new();
        godunov_velocity(&psi, &mut got, |i, v| seen.push((i, v)));
        assert_eq!(got, want);
        let order: Vec<(usize, f64)> = want.as_slice().iter().copied().enumerate().collect();
        assert_eq!(seen, order, "one visit per cell, in row-major order");
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn dimension_mismatch_panics() {
        let psi = Grid::new(4, 4, 0.0);
        let speed = Grid::new(3, 4, 0.0);
        let _ = godunov_gradient(&psi, &speed);
    }
}
