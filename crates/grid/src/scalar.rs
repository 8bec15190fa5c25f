//! The [`Scalar`] trait abstracting over `f32` and `f64`.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar used throughout the workspace.
///
/// Implemented for `f32` and `f64` only (the trait is sealed by construction:
/// all methods are required and mirror the std float API, so implementing it
/// for other types is possible but unsupported).
///
/// # Example
///
/// ```
/// use lsopc_grid::Scalar;
///
/// fn hypotenuse<T: Scalar>(a: T, b: T) -> T {
///     (a * a + b * b).sqrt()
/// }
/// assert_eq!(hypotenuse(3.0_f64, 4.0_f64), 5.0);
/// ```
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Archimedes' constant.
    const PI: Self;
    /// Machine epsilon: the difference between 1.0 and the next
    /// representable value. Guard thresholds scale with this so f32 runs
    /// tolerate proportionally larger round-off.
    const EPSILON: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Positive infinity.
    const INFINITY: Self;

    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Lossless widening to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from `usize` (exact for the magnitudes used here).
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }

    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Larger of two values (NaN-propagating like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Smaller of two values.
    fn min(self, other: Self) -> Self;
    /// True if the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;
    /// Raise to an integer power.
    fn powi(self, n: i32) -> Self;
    /// Restrict to `[min, max]` with `f64::clamp` semantics (NaN passes
    /// through; `min`/`max` folds would swallow it).
    fn clamp(self, min: Self, max: Self) -> Self;
    /// Euclidean distance `sqrt(self² + other²)` without intermediate
    /// overflow/underflow.
    fn hypot(self, other: Self) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $pi:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const PI: Self = $pi;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const INFINITY: Self = <$t>::INFINITY;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline]
            fn clamp(self, min: Self, max: Self) -> Self {
                self.clamp(min, max)
            }
            #[inline]
            fn hypot(self, other: Self) -> Self {
                self.hypot(other)
            }
        }
    };
}

impl_scalar!(f32, std::f32::consts::PI);
impl_scalar!(f64, std::f64::consts::PI);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>(v: f64) -> f64 {
        T::from_f64(v).to_f64()
    }

    #[test]
    fn constants_match_std() {
        assert_eq!(f64::PI, std::f64::consts::PI);
        assert_eq!(f32::PI, std::f32::consts::PI);
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f64::ONE, 1.0);
    }

    #[test]
    fn f64_roundtrip_is_exact() {
        for v in [0.0, 1.5, -3.25, 1e-12, 1e12] {
            assert_eq!(roundtrip::<f64>(v), v);
        }
    }

    #[test]
    fn f32_roundtrip_within_precision() {
        for v in [0.0, 1.5, -3.25] {
            assert_eq!(roundtrip::<f32>(v), v);
        }
        assert!((roundtrip::<f32>(0.1) - 0.1).abs() < 1e-7);
    }

    #[test]
    fn from_usize_is_exact_for_grid_sizes() {
        assert_eq!(f64::from_usize(2048), 2048.0);
        assert_eq!(f32::from_usize(4096), 4096.0);
    }

    #[test]
    fn math_delegates_to_std() {
        assert_eq!(4.0_f64.sqrt(), Scalar::sqrt(4.0_f64));
        assert_eq!(0.5_f32.exp(), Scalar::exp(0.5_f32));
        assert!(Scalar::is_finite(1.0_f64));
        assert!(!Scalar::is_finite(f64::NAN));
    }

    #[test]
    fn epsilon_and_limits_match_std() {
        assert_eq!(<f64 as Scalar>::EPSILON, f64::EPSILON);
        assert_eq!(<f32 as Scalar>::EPSILON, f32::EPSILON);
        assert_eq!(<f64 as Scalar>::MIN_POSITIVE, f64::MIN_POSITIVE);
        assert_eq!(<f32 as Scalar>::INFINITY, f32::INFINITY);
        // f32 round-off is ~2^29 times coarser than f64: the ratio used to
        // scale guard thresholds per precision.
        let ratio = <f32 as Scalar>::EPSILON.to_f64() / <f64 as Scalar>::EPSILON;
        assert_eq!(ratio, (1u64 << 29) as f64);
    }

    #[test]
    fn clamp_keeps_f64_semantics() {
        assert_eq!(Scalar::clamp(5.0_f64, -1.0, 1.0), 1.0);
        assert_eq!(Scalar::clamp(-5.0_f32, -1.0, 1.0), -1.0);
        assert!(Scalar::clamp(f64::NAN, -1.0, 1.0).is_nan());
    }

    #[test]
    fn hypot_avoids_overflow() {
        assert_eq!(Scalar::hypot(3.0_f64, 4.0), 5.0);
        assert_eq!(Scalar::hypot(3.0_f32, 4.0), 5.0);
        // Naive sqrt(a²+b²) would overflow here; hypot must not.
        assert!(Scalar::hypot(1e300_f64, 1e300).is_finite());
        assert!(Scalar::hypot(1e30_f32, 1e30).is_finite());
    }
}
