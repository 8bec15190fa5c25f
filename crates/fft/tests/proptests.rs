//! Property-based invariants of the FFT substrate.

use lsopc_fft::{naive_dft, Fft2d, FftPlan};
use lsopc_grid::{Grid, C64};
use proptest::prelude::*;

fn signal(len: usize) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| C64::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forward_matches_naive_dft(x in signal(64)) {
        let plan = FftPlan::<f64>::new(64);
        let mut fast = x.clone();
        plan.forward(&mut fast);
        let slow = naive_dft(&x, false);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).norm() < 1e-8);
        }
    }

    #[test]
    fn roundtrip_is_identity(x in signal(128)) {
        let plan = FftPlan::<f64>::new(128);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn transform_is_linear(a in signal(32), b in signal(32), s in -3.0f64..3.0) {
        let plan = FftPlan::<f64>::new(32);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut combined: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(s)).collect();
        plan.forward(&mut combined);
        for ((x, y), z) in fa.iter().zip(&fb).zip(&combined) {
            prop_assert!((*x + y.scale(s) - *z).norm() < 1e-8);
        }
    }

    #[test]
    fn time_shift_preserves_magnitude(x in signal(64), shift in 0usize..64) {
        let plan = FftPlan::<f64>::new(64);
        let shifted: Vec<C64> = (0..64).map(|i| x[(i + shift) % 64]).collect();
        let mut fx = x;
        let mut fs = shifted;
        plan.forward(&mut fx);
        plan.forward(&mut fs);
        for (a, b) in fx.iter().zip(&fs) {
            prop_assert!((a.norm() - b.norm()).abs() < 1e-8);
        }
    }

    #[test]
    fn fft2d_separability(vals in prop::collection::vec(-3.0f64..3.0, 16 * 16)) {
        // 2-D transform of a rank-1 field u(x)·v(y) is the outer product
        // of the 1-D transforms.
        let u: Vec<f64> = vals[..16].to_vec();
        let v: Vec<f64> = vals[16..32].to_vec();
        let grid = Grid::from_fn(16, 16, |x, y| C64::from_real(u[x] * v[y]));
        let mut f2 = grid;
        Fft2d::new(16, 16).forward(&mut f2);
        let plan = FftPlan::<f64>::new(16);
        let mut fu: Vec<C64> = u.iter().map(|&r| C64::from_real(r)).collect();
        let mut fv: Vec<C64> = v.iter().map(|&r| C64::from_real(r)).collect();
        plan.forward(&mut fu);
        plan.forward(&mut fv);
        for ky in 0..16 {
            for kx in 0..16 {
                let expected = fu[kx] * fv[ky];
                prop_assert!((f2[(kx, ky)] - expected).norm() < 1e-7);
            }
        }
    }
}
