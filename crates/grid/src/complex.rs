//! A minimal complex-number type, generic over [`Scalar`].

use crate::Scalar;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i*im`.
///
/// The workspace implements its own complex type instead of pulling in an
/// external numerics crate; only the operations needed by the FFT and the
/// Hopkins imaging model are provided.
///
/// # Example
///
/// ```
/// use lsopc_grid::Complex;
///
/// let z = Complex::cis(std::f64::consts::FRAC_PI_2).scale(2.0);
/// assert!((z.re).abs() < 1e-15);
/// assert!((z.im - 2.0).abs() < 1e-15);
/// assert!((z.norm_sqr() - 4.0).abs() < 1e-15);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T: Scalar> Complex<T> {
    /// Complex zero.
    pub const ZERO: Self = Self {
        re: T::ZERO,
        im: T::ZERO,
    };
    /// Complex one.
    pub const ONE: Self = Self {
        re: T::ONE,
        im: T::ZERO,
    };
    /// The imaginary unit `i`.
    pub const I: Self = Self {
        re: T::ZERO,
        im: T::ONE,
    };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub fn from_real(re: T) -> Self {
        Self { re, im: T::ZERO }
    }

    /// Creates `exp(i*theta)`, a unit phasor.
    #[inline]
    pub fn cis(theta: T) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `sqrt(re² + im²)`.
    #[inline]
    pub fn norm(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, s: T) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Converts the component precision (e.g. `f64` → `f32`).
    #[inline]
    pub fn cast<U: Scalar>(self) -> Complex<U> {
        Complex {
            re: U::from_f64(self.re.to_f64()),
            im: U::from_f64(self.im.to_f64()),
        }
    }
}

impl<T: Scalar> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl<T: Scalar> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl<T: Scalar> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl<T: Scalar> Div for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl<T: Scalar> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl<T: Scalar> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Scalar> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Scalar> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Scalar> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Scalar> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<T: Scalar> From<T> for Complex<T> {
    fn from(re: T) -> Self {
        Self::from_real(re)
    }
}

impl<T: Scalar> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im < T::ZERO {
            write!(f, "{}-{}i", self.re, self.im.abs())
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn close(a: C64, b: C64) -> bool {
        (a - b).norm() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(3.0, -2.0);
        assert_eq!(z + C64::ZERO, z);
        assert_eq!(z * C64::ONE, z);
        assert!(close(z * C64::I * C64::I, -z));
        assert!(close(z / z, C64::ONE));
    }

    #[test]
    fn conjugate_properties() {
        let z = C64::new(1.5, 2.5);
        assert_eq!(z.conj().conj(), z);
        assert_eq!((z * z.conj()).im, 0.0);
        assert!((z.norm_sqr() - (z * z.conj()).re).abs() < 1e-12);
    }

    #[test]
    fn cis_is_a_unit_phasor() {
        assert!(close(C64::cis(std::f64::consts::PI), C64::new(-1.0, 0.0)));
        let u = C64::cis(std::f64::consts::FRAC_PI_4);
        assert!((u.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1--2i".replace("--", "-"));
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1+2i");
    }

    #[test]
    fn cast_to_f32_and_back() {
        let z = C64::new(0.5, -0.25);
        let w: Complex<f32> = z.cast();
        let back: C64 = w.cast();
        assert!(close(back, z));
    }

    #[test]
    fn sum_of_phasors_cancels() {
        // The 8 eighth-roots of unity sum to zero.
        let total: C64 = (0..8)
            .map(|k| C64::cis(2.0 * std::f64::consts::PI * k as f64 / 8.0))
            .sum();
        assert!(total.norm() < 1e-14);
    }
}
