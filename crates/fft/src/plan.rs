//! 1-D radix-2 FFT plans.

use lsopc_grid::{Complex, Scalar};

/// A reusable plan for 1-D FFTs of a fixed power-of-two length.
///
/// The plan precomputes the bit-reversal permutation and twiddle factors so
/// that repeated transforms (the hot loop of lithography simulation) perform
/// no trigonometry. The transform is an iterative decimation-in-time
/// Cooley–Tukey butterfly network operating in place.
///
/// # Example
///
/// ```
/// use lsopc_fft::FftPlan;
/// use lsopc_grid::C64;
///
/// // The FFT of a unit impulse is an all-ones spectrum.
/// let plan = FftPlan::<f64>::new(4);
/// let mut x = vec![C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO];
/// plan.forward(&mut x);
/// for v in &x {
///     assert!((*v - C64::ONE).norm() < 1e-15);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan<T> {
    n: usize,
    rev: Vec<u32>,
    /// Forward twiddles: `tw[k] = exp(-2πi k / n)` for `k < n/2`.
    twiddles: Vec<Complex<T>>,
}

impl<T: Scalar> FftPlan<T> {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_power_of_two(),
            "fft length {n} must be a power of two"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let twiddles = (0..n / 2)
            .map(|k| {
                let theta = T::from_f64(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
                Complex::cis(theta)
            })
            .collect();
        Self { n, rev, twiddles }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (length is at least 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward transform `X[k] = Σ x[n]·exp(-2πi kn/N)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn forward(&self, data: &mut [Complex<T>]) {
        self.transform(data, false);
    }

    /// In-place inverse transform, scaled by `1/N` so that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn inverse(&self, data: &mut [Complex<T>]) {
        self.transform(data, true);
        let scale = T::ONE / T::from_usize(self.n);
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn transform(&self, data: &mut [Complex<T>], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "buffer length must match plan length {n}");
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative DIT butterflies.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len; // twiddle stride
            let mut base = 0;
            while base < n {
                let mut tw_idx = 0;
                for j in base..base + half {
                    let mut w = self.twiddles[tw_idx];
                    if inverse {
                        w = w.conj();
                    }
                    let u = data[j];
                    let v = data[j + half] * w;
                    data[j] = u + v;
                    data[j + half] = u - v;
                    tw_idx += step;
                }
                base += len;
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_dft;
    use lsopc_grid::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft_across_sizes() {
        for &n in &[1usize, 2, 4, 8, 32, 128, 512] {
            let plan = FftPlan::<f64>::new(n);
            let x = rand_signal(n, n as u64);
            let expected = naive_dft(&x, false);
            let mut got = x.clone();
            plan.forward(&mut got);
            assert!(
                max_err(&got, &expected) < 1e-9 * n as f64,
                "forward mismatch at n={n}"
            );
        }
    }

    #[test]
    fn inverse_is_true_inverse() {
        for &n in &[2usize, 16, 256] {
            let plan = FftPlan::<f64>::new(n);
            let x = rand_signal(n, 7 + n as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-11, "roundtrip failed at n={n}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let plan = FftPlan::<f64>::new(n);
        let x = rand_signal(n, 11);
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x;
        plan.forward(&mut y);
        let freq_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-10);
    }

    #[test]
    fn constant_signal_transforms_to_dc() {
        let n = 32;
        let plan = FftPlan::<f64>::new(n);
        let mut x = vec![C64::new(2.5, 0.0); n];
        plan.forward(&mut x);
        assert!((x[0] - C64::new(2.5 * n as f64, 0.0)).norm() < 1e-10);
        for v in &x[1..] {
            assert!(v.norm() < 1e-10);
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = FftPlan::<f64>::new(n);
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let sum: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a;
        let mut fb = b;
        let mut fsum = sum;
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        plan.forward(&mut fsum);
        let combined: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &combined) < 1e-10);
    }

    #[test]
    fn f32_plan_has_adequate_precision() {
        let n = 256;
        let plan = FftPlan::<f32>::new(n);
        let x64 = rand_signal(n, 5);
        let mut x32: Vec<Complex<f32>> = x64.iter().map(|v| v.cast()).collect();
        let expected = naive_dft(&x64, false);
        plan.forward(&mut x32);
        let err = x32
            .iter()
            .zip(&expected)
            .map(|(a, b)| (a.cast::<f64>() - *b).norm())
            .fold(0.0, f64::max);
        assert!(err < 1e-3, "f32 error too large: {err}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = FftPlan::<f64>::new(12);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::<f64>::new(8);
        let mut buf = vec![C64::ZERO; 4];
        plan.forward(&mut buf);
    }
}
