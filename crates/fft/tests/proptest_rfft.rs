//! Property and sweep tests for the real-input fast path ([`RfftPlan`]).
//!
//! The dense complex transform is the oracle throughout: every property
//! here compares the half-spectrum path against `Fft2d` on the same
//! input. The sweep tests cover every power-of-two size in 4..=512
//! deterministically (one pseudo-random grid per size); the proptests
//! then fuzz values on small sizes where the dense oracle is cheap. The
//! band-limited transforms are pinned bitwise against the full ones.

use lsopc_fft::{HalfSpectrum, RfftPlan};
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_parallel::ParallelContext;
use proptest::prelude::*;

/// Deterministic pseudo-random fill (no RNG state: reproducible per size).
fn sample(x: usize, y: usize, seed: u64) -> f64 {
    let h = (x as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .wrapping_add(seed.wrapping_mul(0x165667b19e3779f9));
    let h = (h ^ (h >> 29)).wrapping_mul(0xbf58476d1ce4e5b9);
    let h = h ^ (h >> 32);
    (h % 2_000_003) as f64 / 1_000_001.0 - 1.0
}

fn test_grid(w: usize, h: usize, seed: u64) -> Grid<f64> {
    Grid::from_fn(w, h, |x, y| sample(x, y, seed))
}

/// Dense-oracle forward: full w×h spectrum via the complex plan.
fn dense_forward(g: &Grid<f64>) -> Grid<Complex<f64>> {
    let (w, h) = g.dims();
    lsopc_fft::plan_t::<f64>(w, h).forward_real(g)
}

fn assert_forward_matches_dense(g: &Grid<f64>, tag: &str) {
    let (w, h) = g.dims();
    let half = RfftPlan::<f64>::new(w, h).forward(g);
    let dense = dense_forward(g);
    // Spectrum magnitudes grow with the sample count; scale the absolute
    // tolerance accordingly.
    let tol = 1e-11 * (w * h) as f64;
    for ky in 0..h {
        for kx in 0..w {
            let d = (half.at(kx, ky) - dense[(kx, ky)]).norm();
            assert!(d < tol, "{tag}: ({kx},{ky}) diff {d} (tol {tol})");
        }
    }
}

fn assert_roundtrip(g: &Grid<f64>, tag: &str) {
    let (w, h) = g.dims();
    let plan = RfftPlan::<f64>::new(w, h);
    let back = plan.inverse(&plan.forward(g));
    for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
        assert!((a - b).abs() < 1e-11, "{tag}: {a} vs {b}");
    }
}

#[test]
fn power_of_two_sweep_matches_dense_oracle() {
    // Every square power-of-two size the optimizer can encounter.
    let mut n = 4;
    let mut seed = 1;
    while n <= 512 {
        let g = test_grid(n, n, seed);
        // The dense comparison is O(N²) lookups; keep it to moderate sizes
        // and check the large ones via the round trip below.
        if n <= 128 {
            assert_forward_matches_dense(&g, &format!("{n}x{n}"));
        }
        assert_roundtrip(&g, &format!("{n}x{n}"));
        n *= 2;
        seed += 1;
    }
}

#[test]
fn rectangular_sizes_match_dense_oracle() {
    for &(w, h) in &[(4, 512), (512, 4), (8, 64), (64, 8), (32, 4), (4, 32)] {
        let g = test_grid(w, h, (w * 1000 + h) as u64);
        if w * h <= 16_384 {
            assert_forward_matches_dense(&g, &format!("{w}x{h}"));
        }
        assert_roundtrip(&g, &format!("{w}x{h}"));
    }
}

#[test]
fn thread_counts_are_bit_identical() {
    let serial = ParallelContext::new(1);
    let threaded = ParallelContext::new(4);
    for &(w, h) in &[(64, 64), (128, 32), (4, 256)] {
        let g = test_grid(w, h, 7);
        let plan = RfftPlan::<f64>::new(w, h);
        let a = plan.forward_with(&serial, &g);
        let b = plan.forward_with(&threaded, &g);
        assert_eq!(a.as_slice(), b.as_slice(), "{w}x{h} forward");
        let ia = plan.inverse_with(&serial, &a);
        let ib = plan.inverse_with(&threaded, &b);
        assert_eq!(ia.as_slice(), ib.as_slice(), "{w}x{h} inverse");
    }
}

/// Bit pattern of a complex sample, widened to f64 (exact for f32, and
/// it keeps the sign of zero).
fn bits<T: Scalar>(c: Complex<T>) -> (u64, u64) {
    (c.re.to_f64().to_bits(), c.im.to_f64().to_bits())
}

/// The band transforms of `g` against the full ones on `ctx`, for every
/// band of the sweep: the band forward matches `forward` bit for bit on
/// `kx < band` and is `+0.0` beyond, and the band inverse of the
/// spectrum zeroed beyond the band matches `inverse` of that spectrum
/// bit for bit. The largest band exceeds the half width, where both
/// must be the full transform.
fn assert_band_transforms_exact<T: Scalar>(g: &Grid<T>, ctx: &ParallelContext, tag: &str) {
    let (w, h) = g.dims();
    let plan = RfftPlan::<T>::new(w, h);
    let half = w / 2 + 1;
    let full = plan.forward_with(ctx, g);
    for band in [1, 2, half / 2, half, half + 3] {
        let banded = plan.forward_band_with(ctx, g, band);
        let mut zeroed = full.clone();
        for ky in 0..h {
            for kx in 0..half {
                let got = banded.at(kx, ky);
                if kx < band {
                    let want = full.at(kx, ky);
                    assert_eq!(bits(got), bits(want), "{tag} band {band}: ({kx},{ky})");
                } else {
                    assert_eq!(bits(got), (0, 0), "{tag} band {band}: ({kx},{ky}) not 0");
                    zeroed.set(kx, ky, Complex::ZERO);
                }
            }
        }
        let want = plan.inverse_with(ctx, &zeroed);
        let got = plan.inverse_band_with(ctx, zeroed, band);
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                a.to_f64().to_bits(),
                b.to_f64().to_bits(),
                "{tag} band {band}: inverse pixel {i}"
            );
        }
    }
}

#[test]
fn band_transforms_are_bit_identical_to_full_transforms() {
    let mut sizes: Vec<(usize, usize)> = (2..=9).map(|p| (1 << p, 1 << p)).collect();
    sizes.extend([(64, 8), (8, 64), (4, 512), (512, 4)]);
    let contexts = [ParallelContext::new(1), ParallelContext::new(4)];
    for (i, &(w, h)) in sizes.iter().enumerate() {
        let g = test_grid(w, h, 100 + i as u64);
        let g32 = g.map(|&v| v as f32);
        for ctx in &contexts {
            let tag = format!("{w}x{h} on {} lanes", ctx.threads());
            assert_band_transforms_exact(&g, ctx, &format!("f64 {tag}"));
            assert_band_transforms_exact(&g32, ctx, &format!("f32 {tag}"));
        }
    }
}

#[test]
fn hermitian_projection_round_trip() {
    // from_full_hermitian ∘ to_full reproduces the half layout up to the
    // projection zeroing round-off imaginary residue at the
    // self-conjugate bins (DC/Nyquist), and is idempotent bit-exactly
    // from there on.
    let g = test_grid(32, 16, 11);
    let half = RfftPlan::<f64>::new(32, 16).forward(&g);
    let once = HalfSpectrum::from_full_hermitian(&half.to_full());
    for (a, b) in half.as_slice().iter().zip(once.as_slice()) {
        assert!((*a - *b).norm() < 1e-12);
    }
    let twice = HalfSpectrum::from_full_hermitian(&once.to_full());
    assert_eq!(once.as_slice(), twice.as_slice());
}

fn real_grid(w: usize, h: usize) -> impl Strategy<Value = Grid<f64>> {
    prop::collection::vec(-10.0f64..10.0, w * h)
        .prop_map(move |v| Grid::from_fn(w, h, |x, y| v[y * w + x]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn forward_matches_dense_on_random_grids(g in real_grid(16, 8)) {
        let half = RfftPlan::<f64>::new(16, 8).forward(&g);
        let dense = dense_forward(&g);
        for ky in 0..8 {
            for kx in 0..16 {
                prop_assert!((half.at(kx, ky) - dense[(kx, ky)]).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn roundtrip_is_identity_on_random_grids(g in real_grid(8, 16)) {
        let plan = RfftPlan::<f64>::new(8, 16);
        let back = plan.inverse(&plan.forward(&g));
        for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_agrees_with_dense_inverse_on_hermitian_spectra(g in real_grid(16, 16)) {
        // Build a Hermitian spectrum from a real grid, then invert it both
        // ways: through the half layout and through the dense plan.
        let plan = RfftPlan::<f64>::new(16, 16);
        let fft = lsopc_fft::plan_t::<f64>(16, 16);
        let half = plan.forward(&g);
        let mut dense = half.to_full();
        fft.inverse(&mut dense);
        let real = plan.inverse(&half);
        for (a, b) in real.as_slice().iter().zip(dense.as_slice()) {
            prop_assert!((a - b.re).abs() < 1e-10);
            prop_assert!(b.im.abs() < 1e-10);
        }
    }
}
