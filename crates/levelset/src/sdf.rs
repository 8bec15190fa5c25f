//! Exact Euclidean signed distance transform.

use lsopc_grid::{Grid, Scalar};

const INF: f64 = 1e20;

/// 1-D squared Euclidean distance transform by the
/// Felzenszwalb–Huttenlocher lower parabolic envelope, O(n).
///
/// `f` holds per-cell source costs (0 at feature cells, INF elsewhere);
/// the result `d[i] = min_j (i-j)² + f[j]` is written into `out`.
fn dt1d(f: &[f64], out: &mut [f64], v: &mut [usize], z: &mut [f64]) {
    let n = f.len();
    debug_assert!(out.len() == n && v.len() >= n && z.len() > n);
    let mut k = 0usize;
    v[0] = 0;
    z[0] = -INF;
    z[1] = INF;
    for q in 1..n {
        let mut s;
        loop {
            let p = v[k];
            s = ((f[q] + (q * q) as f64) - (f[p] + (p * p) as f64)) / (2.0 * (q as f64 - p as f64));
            if s <= z[k] {
                if k == 0 {
                    break;
                }
                k -= 1;
            } else {
                break;
            }
        }
        k += 1;
        v[k] = q;
        z[k] = s;
        z[k + 1] = INF;
    }
    k = 0;
    for (q, out_q) in out.iter_mut().enumerate() {
        while z[k + 1] < q as f64 {
            k += 1;
        }
        let p = v[k];
        let dq = q as f64 - p as f64;
        *out_q = dq * dq + f[p];
    }
}

/// 2-D squared Euclidean distance to the nearest cell where `feature`
/// is true.
fn edt_sq(feature: impl Fn(usize, usize) -> bool, w: usize, h: usize) -> Grid<f64> {
    let n = w.max(h);
    let mut v = vec![0usize; n];
    let mut z = vec![0.0f64; n + 1]; // allow-f64: EDT internals (DESIGN.md §11)
    let mut buf_in = vec![0.0f64; n]; // allow-f64: EDT internals (DESIGN.md §11)
    let mut buf_out = vec![0.0f64; n]; // allow-f64: EDT internals (DESIGN.md §11)

    // Column pass first: distance along y to the nearest feature cell.
    let mut stage = Grid::new(w, h, INF);
    for x in 0..w {
        for (y, cell) in buf_in[..h].iter_mut().enumerate() {
            *cell = if feature(x, y) { 0.0 } else { INF };
        }
        dt1d(&buf_in[..h], &mut buf_out[..h], &mut v, &mut z);
        for y in 0..h {
            stage[(x, y)] = buf_out[y];
        }
    }
    // Row pass: combine with distance along x.
    let mut result = Grid::new(w, h, INF);
    for y in 0..h {
        buf_in[..w].copy_from_slice(stage.row(y));
        dt1d(&buf_in[..w], &mut buf_out[..w], &mut v, &mut z);
        result.row_mut(y).copy_from_slice(&buf_out[..w]);
    }
    result
}

/// Exact Euclidean signed distance from a binary mask (`>= 0.5` is
/// inside), negative inside and positive outside per paper Eq. (5), in
/// pixels.
///
/// The distance is measured to the inter-pixel boundary: a pixel adjacent
/// to the contour gets |ψ| = 0.5. Degenerate masks (all inside or all
/// outside) produce distances clamped to `w + h`.
///
/// # Example
///
/// ```
/// use lsopc_grid::{Grid, Scalar};
/// use lsopc_levelset::signed_distance;
///
/// let mask = Grid::from_fn(8, 8, |x, _| if x >= 4 { 1.0 } else { 0.0 });
/// let psi = signed_distance(&mask);
/// assert_eq!(psi[(3, 4)], 0.5);   // last outside column
/// assert_eq!(psi[(4, 4)], -0.5);  // first inside column
/// assert_eq!(psi[(0, 4)], 3.5);
/// ```
/// At any scalar precision `T` the transform itself runs in `f64` — the
/// parabolic-envelope intersections are the numerically delicate part and
/// the pass is cheap next to the FFT work — and each distance is rounded
/// to `T` once on output. At `T = f64` that is the identity.
pub fn signed_distance<T: Scalar>(mask: &Grid<T>) -> Grid<T> {
    let _span = lsopc_trace::span!("levelset.sdf");
    let (w, h) = mask.dims();
    let clamp = (w + h) as f64;
    let half = T::from_f64(0.5);
    let inside = |x: usize, y: usize| mask[(x, y)] >= half;
    let d_to_inside = edt_sq(inside, w, h);
    let d_to_outside = edt_sq(|x, y| !inside(x, y), w, h);
    Grid::from_fn(w, h, |x, y| {
        if inside(x, y) {
            T::from_f64(-(d_to_outside[(x, y)].sqrt() - 0.5).min(clamp))
        } else {
            T::from_f64((d_to_inside[(x, y)].sqrt() - 0.5).min(clamp))
        }
    })
}

/// Thresholds a level-set function back into a binary mask: `ψ <= 0` is
/// inside (paper Eq. (6)).
pub fn mask_from_levelset<T: Scalar>(psi: &Grid<T>) -> Grid<T> {
    let (w, h) = psi.dims();
    let mut mask = Grid::new(w, h, T::ZERO);
    mask_from_levelset_into(psi, &mut mask);
    mask
}

/// [`mask_from_levelset`] written over `mask`, a grid the caller keeps.
///
/// # Panics
///
/// Panics if the grids differ in shape.
pub fn mask_from_levelset_into<T: Scalar>(psi: &Grid<T>, mask: &mut Grid<T>) {
    assert_eq!(psi.dims(), mask.dims(), "grid dimensions must match");
    for (m, &v) in mask.as_mut_slice().iter_mut().zip(psi.as_slice()) {
        *m = if v <= T::ZERO { T::ONE } else { T::ZERO };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_mask(n: usize, lo: usize, hi: usize) -> Grid<f64> {
        Grid::from_fn(n, n, |x, y| {
            if (lo..hi).contains(&x) && (lo..hi).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn sign_convention() {
        let mask = square_mask(16, 4, 12);
        let psi = signed_distance(&mask);
        assert!(psi[(8, 8)] < 0.0);
        assert!(psi[(0, 0)] > 0.0);
    }

    #[test]
    fn distances_match_geometry() {
        let mask = square_mask(32, 8, 24);
        let psi = signed_distance(&mask);
        // Centre of a 16-px square: 8 px to the edge, minus half-pixel.
        assert!(
            (psi[(16, 16)] + 7.5).abs() < 1e-9,
            "centre {}",
            psi[(16, 16)]
        );
        // Just outside the left edge.
        assert!((psi[(7, 16)] - 0.5).abs() < 1e-9);
        // 4 px out along x.
        assert!((psi[(4, 16)] - 3.5).abs() < 1e-9);
    }

    #[test]
    fn diagonal_distance_is_euclidean() {
        // Single inside pixel at (8, 8).
        let mask = Grid::from_fn(16, 16, |x, y| if x == 8 && y == 8 { 1.0 } else { 0.0 });
        let psi = signed_distance(&mask);
        let d = psi[(11, 12)];
        let expected = ((3.0f64 * 3.0) + (4.0 * 4.0)).sqrt() - 0.5;
        assert!((d - expected).abs() < 1e-9, "got {d}, want {expected}");
    }

    #[test]
    fn roundtrip_through_threshold() {
        let mask = square_mask(24, 6, 18);
        let psi = signed_distance(&mask);
        assert_eq!(mask_from_levelset(&psi), mask);
    }

    #[test]
    fn degenerate_masks_are_clamped() {
        let all_out = Grid::new(8, 8, 0.0);
        let psi = signed_distance(&all_out);
        assert!(psi.as_slice().iter().all(|&v| v > 0.0 && v <= 16.0));
        let all_in = Grid::new(8, 8, 1.0);
        let psi = signed_distance(&all_in);
        assert!(psi.as_slice().iter().all(|&v| (-16.0..0.0).contains(&v)));
    }

    #[test]
    fn eikonal_property_inside_band() {
        // |∇ψ| ≈ 1 away from the medial axis.
        let mask = square_mask(32, 10, 22);
        let psi = signed_distance(&mask);
        // Sample along a horizontal line through the middle, left half
        // (away from the medial axis at x = 16 and from corners).
        for x in 1..14 {
            let g = (psi[(x + 1, 16)] - psi[(x - 1, 16)]) / 2.0;
            assert!((g.abs() - 1.0).abs() < 1e-6, "gradient {g} at x={x}");
        }
    }

    #[test]
    fn rectangular_grids_work() {
        let mask = Grid::from_fn(32, 8, |x, _| if (12..20).contains(&x) { 1.0 } else { 0.0 });
        let psi = signed_distance(&mask);
        assert!((psi[(0, 4)] - 11.5).abs() < 1e-9);
        assert!((psi[(15, 4)] + 3.5).abs() < 1e-9);
    }
}
