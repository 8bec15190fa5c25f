//! The contest score function (paper Eq. (18)).

/// The ICCAD 2013 score:
/// `Score = RT + 4·PVBand + 5000·#EPE + 10000·ShapeViol`
/// with the runtime in seconds and the PV band in nm².
///
/// # Example
///
/// ```
/// use lsopc_metrics::ContestScore;
///
/// let score = ContestScore {
///     runtime_s: 100.0,
///     pvb_nm2: 50_000.0,
///     epe_violations: 2,
///     shape_violations: 0,
/// };
/// assert_eq!(score.value(), 100.0 + 4.0 * 50_000.0 + 5000.0 * 2.0);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ContestScore {
    /// End-to-end optimization runtime in seconds.
    pub runtime_s: f64,
    /// PV band area in nm².
    pub pvb_nm2: f64,
    /// Number of EPE violations.
    pub epe_violations: usize,
    /// Number of shape violations.
    pub shape_violations: usize,
}

impl ContestScore {
    /// Weight of the PV band term.
    pub const PVB_WEIGHT: f64 = 4.0;
    /// Weight of each EPE violation.
    pub const EPE_WEIGHT: f64 = 5000.0;
    /// Weight of each shape violation.
    pub const SHAPE_WEIGHT: f64 = 10000.0;

    /// The combined score (lower is better).
    pub fn value(&self) -> f64 {
        self.runtime_s
            + Self::PVB_WEIGHT * self.pvb_nm2
            + Self::EPE_WEIGHT * self.epe_violations as f64
            + Self::SHAPE_WEIGHT * self.shape_violations as f64
    }
}

impl std::fmt::Display for ContestScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "score {:.0} (rt {:.1}s, pvb {:.0} nm², #epe {}, shapes {})",
            self.value(),
            self.runtime_s,
            self.pvb_nm2,
            self.epe_violations,
            self.shape_violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_match_equation_18() {
        assert_eq!(ContestScore::PVB_WEIGHT, 4.0);
        assert_eq!(ContestScore::EPE_WEIGHT, 5000.0);
        assert_eq!(ContestScore::SHAPE_WEIGHT, 10000.0);
    }

    #[test]
    fn zero_metrics_zero_score() {
        assert_eq!(ContestScore::default().value(), 0.0);
    }

    #[test]
    fn each_term_contributes() {
        let base = ContestScore {
            runtime_s: 10.0,
            pvb_nm2: 1000.0,
            epe_violations: 1,
            shape_violations: 1,
        };
        assert_eq!(base.value(), 10.0 + 4000.0 + 5000.0 + 10000.0);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = ContestScore {
            runtime_s: 1.0,
            pvb_nm2: 2.0,
            epe_violations: 3,
            shape_violations: 4,
        }
        .to_string();
        assert!(s.contains("#epe 3") && s.contains("shapes 4"));
    }
}
