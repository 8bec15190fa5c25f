//! Process conditions (focus / dose corners).

/// One lithography process condition: a defocus and a dose multiplier.
///
/// The paper's evaluation (Section IV) uses a defocus range of ±25 nm and a
/// dose range of ±2 %: the *outer* printed contour is generated at nominal
/// focus and +2 % dose, the *inner* contour at defocus and −2 % dose.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ProcessCondition {
    /// Defocus in nanometres (0 = nominal focal plane).
    pub defocus_nm: f64,
    /// Dose multiplier (1.0 = nominal exposure dose).
    pub dose: f64,
}

impl ProcessCondition {
    /// The nominal condition: in focus, nominal dose.
    pub const NOMINAL: Self = Self {
        defocus_nm: 0.0,
        dose: 1.0,
    };

    /// Creates a condition.
    pub fn new(defocus_nm: f64, dose: f64) -> Self {
        Self { defocus_nm, dose }
    }
}

impl Default for ProcessCondition {
    fn default() -> Self {
        Self::NOMINAL
    }
}

/// The three conditions used by the process-window-aware cost function.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ProcessCorners {
    /// Nominal condition.
    pub nominal: ProcessCondition,
    /// Inner-contour condition (defocused, under-dosed).
    pub inner: ProcessCondition,
    /// Outer-contour condition (in focus, over-dosed).
    pub outer: ProcessCondition,
}

impl ProcessCorners {
    /// The ICCAD 2013 corners: ±25 nm defocus, ±2 % dose.
    pub fn iccad2013() -> Self {
        Self::from_ranges(25.0, 0.02)
    }

    /// Builds corners from a defocus range and dose deviation, following
    /// the paper's convention (outer: nominal focus & `1 + dose_delta`;
    /// inner: `defocus_nm` & `1 - dose_delta`).
    pub fn from_ranges(defocus_nm: f64, dose_delta: f64) -> Self {
        Self {
            nominal: ProcessCondition::NOMINAL,
            inner: ProcessCondition::new(defocus_nm, 1.0 - dose_delta),
            outer: ProcessCondition::new(0.0, 1.0 + dose_delta),
        }
    }

    /// The corners as an array `[nominal, inner, outer]`.
    pub fn as_array(&self) -> [ProcessCondition; 3] {
        [self.nominal, self.inner, self.outer]
    }
}

impl Default for ProcessCorners {
    fn default() -> Self {
        Self::iccad2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iccad_corners_match_paper() {
        let c = ProcessCorners::iccad2013();
        assert_eq!(c.nominal, ProcessCondition::NOMINAL);
        assert_eq!(c.inner, ProcessCondition::new(25.0, 0.98));
        assert_eq!(c.outer, ProcessCondition::new(0.0, 1.02));
    }

    #[test]
    fn default_is_iccad() {
        assert_eq!(ProcessCorners::default(), ProcessCorners::iccad2013());
        assert_eq!(ProcessCondition::default(), ProcessCondition::NOMINAL);
    }

    #[test]
    fn array_order() {
        let c = ProcessCorners::from_ranges(10.0, 0.05);
        let arr = c.as_array();
        assert_eq!(arr[0].dose, 1.0);
        assert_eq!(arr[1].dose, 0.95);
        assert_eq!(arr[2].dose, 1.05);
        assert_eq!(arr[1].defocus_nm, 10.0);
    }
}
