//! Photoresist models.

use lsopc_grid::{Grid, Scalar};

/// The constant-threshold resist model with its sigmoid relaxation.
///
/// The printed (binary) image is `R = 1` where the dosed aerial intensity
/// reaches the threshold (paper Eq. (2)); for gradient back-propagation the
/// step is relaxed to `R = 1 / (1 + exp(−s·(dose·I − I_th)))` (Eq. (8)).
///
/// The ICCAD 2013 threshold is `I_th = 0.225`; the paper leaves the
/// steepness `s` unspecified, we default to 50 (a common choice in the
/// ILT literature).
///
/// # Example
///
/// ```
/// use lsopc_litho::ResistModel;
///
/// let resist = ResistModel::iccad2013();
/// assert_eq!(resist.threshold(), 0.225);
/// assert_eq!(resist.develop(0.3, 1.0), 1.0);
/// assert_eq!(resist.develop(0.1, 1.0), 0.0);
/// // The sigmoid is 0.5 exactly at threshold.
/// assert!((resist.develop_soft(0.225, 1.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ResistModel {
    threshold: f64,
    steepness: f64,
}

impl ResistModel {
    /// Creates a resist model.
    ///
    /// # Panics
    ///
    /// Panics if the threshold or steepness is not positive.
    pub fn new(threshold: f64, steepness: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        assert!(steepness > 0.0, "steepness must be positive");
        Self {
            threshold,
            steepness,
        }
    }

    /// The ICCAD 2013 model: threshold 0.225, steepness 50.
    pub fn iccad2013() -> Self {
        Self::new(0.225, 50.0)
    }

    /// Intensity threshold `I_th`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Sigmoid steepness `s`.
    pub fn steepness(&self) -> f64 {
        self.steepness
    }

    /// Hard-threshold development of one intensity sample (Eq. (2)),
    /// with the dose multiplier applied to the intensity.
    #[inline]
    pub fn develop(&self, intensity: f64, dose: f64) -> f64 {
        self.develop_t(intensity, dose)
    }

    /// Sigmoid development of one intensity sample (Eq. (8)).
    #[inline]
    pub fn develop_soft(&self, intensity: f64, dose: f64) -> f64 {
        self.develop_soft_t(intensity, dose)
    }

    /// [`ResistModel::develop`] at scalar precision `T` (the model
    /// parameters are stored in `f64` and rounded into `T` per call; at
    /// `T = f64` the rounding is the identity).
    #[inline]
    pub fn develop_t<T: Scalar>(&self, intensity: T, dose: f64) -> T {
        if T::from_f64(dose) * intensity >= T::from_f64(self.threshold) {
            T::ONE
        } else {
            T::ZERO
        }
    }

    /// [`ResistModel::develop_soft`] at scalar precision `T`.
    #[inline]
    pub fn develop_soft_t<T: Scalar>(&self, intensity: T, dose: f64) -> T {
        let s = T::from_f64(self.steepness);
        let th = T::from_f64(self.threshold);
        T::ONE / (T::ONE + (-(s * (T::from_f64(dose) * intensity - th))).exp())
    }

    /// Hard-threshold development of a whole aerial image.
    pub fn print<T: Scalar>(&self, aerial: &Grid<T>, dose: f64) -> Grid<T> {
        aerial.map(|&i| self.develop_t(i, dose))
    }

    /// Sigmoid development of a whole aerial image.
    pub fn print_soft<T: Scalar>(&self, aerial: &Grid<T>, dose: f64) -> Grid<T> {
        aerial.map(|&i| self.develop_soft_t(i, dose))
    }

    /// Derivative of the sigmoid output with respect to the (undosed)
    /// intensity: `dR/dI = s·dose·R·(1−R)`.
    #[inline]
    pub fn soft_derivative(&self, r: f64, dose: f64) -> f64 {
        self.soft_derivative_t(r, dose)
    }

    /// [`ResistModel::soft_derivative`] at scalar precision `T`.
    #[inline]
    pub fn soft_derivative_t<T: Scalar>(&self, r: T, dose: f64) -> T {
        T::from_f64(self.steepness) * T::from_f64(dose) * r * (T::ONE - r)
    }
}

impl Default for ResistModel {
    fn default() -> Self {
        Self::iccad2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_threshold_with_dose() {
        let r = ResistModel::iccad2013();
        // 0.22 misses at nominal dose but prints at +2%... (0.22*1.02=0.2244)
        assert_eq!(r.develop(0.22, 1.0), 0.0);
        assert_eq!(r.develop(0.222, 1.02), 1.0);
        assert_eq!(r.develop(0.23, 0.98), 1.0);
    }

    #[test]
    fn sigmoid_limits_match_step() {
        let r = ResistModel::new(0.225, 200.0);
        assert!(r.develop_soft(0.4, 1.0) > 0.999);
        assert!(r.develop_soft(0.05, 1.0) < 1e-3);
    }

    #[test]
    fn sigmoid_is_monotone_in_dose() {
        let r = ResistModel::iccad2013();
        assert!(r.develop_soft(0.2, 1.02) > r.develop_soft(0.2, 0.98));
    }

    #[test]
    fn soft_derivative_matches_finite_difference() {
        let r = ResistModel::iccad2013();
        let (i, dose, h) = (0.21, 1.01, 1e-7);
        let fd = (r.develop_soft(i + h, dose) - r.develop_soft(i - h, dose)) / (2.0 * h);
        let analytic = r.soft_derivative(r.develop_soft(i, dose), dose);
        assert!((fd - analytic).abs() < 1e-5, "fd={fd}, analytic={analytic}");
    }

    #[test]
    fn grid_print_applies_elementwise() {
        let r = ResistModel::iccad2013();
        let aerial = Grid::from_vec(2, 1, vec![0.1, 0.3]);
        assert_eq!(r.print(&aerial, 1.0).as_slice(), &[0.0, 1.0]);
        let soft = r.print_soft(&aerial, 1.0);
        assert!(soft.as_slice()[0] < 0.01 && soft.as_slice()[1] > 0.97);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_threshold_panics() {
        let _ = ResistModel::new(0.0, 50.0);
    }
}
