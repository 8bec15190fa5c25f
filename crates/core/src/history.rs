//! Per-iteration optimization records.

/// What happened in one optimizer iteration (one line of Algorithm 1).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct IterationRecord {
    /// Iteration index, starting at 0.
    pub iteration: usize,
    /// Nominal fidelity cost `L_nom` (paper Eq. (7)).
    pub cost_nominal: f64,
    /// Process-variation cost `L_pvb` (paper Eq. (12)).
    pub cost_pvb: f64,
    /// Combined cost `L = L_nom + w_pvb·L_pvb` (paper Eq. (13)).
    pub cost_total: f64,
    /// Peak evolution speed `max|v|` before the update.
    pub max_velocity: f64,
    /// Time step `Δt = λ_t / max|v|` used for the update.
    pub time_step: f64,
    /// PRP conjugate-gradient coefficient `λ` (0 on restarts or when CG
    /// is disabled).
    pub cg_beta: f64,
    /// Seconds elapsed since optimization started.
    pub elapsed_s: f64,
    /// True when the health guard rejected this iteration and rolled
    /// `ψ` back to the last healthy checkpoint (its cost fields may be
    /// NaN — they record the rejected evaluation).
    pub rolled_back: bool,
    /// Cumulative guard backoffs at the end of this iteration.
    pub backoffs: usize,
    /// Effective `λ_t` multiplier applied this iteration (1.0 unless the
    /// guard backed off earlier in the run).
    pub lambda_scale: f64,
}

impl Default for IterationRecord {
    fn default() -> Self {
        Self {
            iteration: 0,
            cost_nominal: 0.0,
            cost_pvb: 0.0,
            cost_total: 0.0,
            max_velocity: 0.0,
            time_step: 0.0,
            cg_beta: 0.0,
            elapsed_s: 0.0,
            rolled_back: false,
            backoffs: 0,
            // A unit multiplier, not zero: "no guard intervention".
            lambda_scale: 1.0,
        }
    }
}

impl IterationRecord {
    /// Renders a compact single-line summary, handy for progress logs.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "iter {:>3}: L={:.4e} (nom {:.4e}, pvb {:.4e}) |v|max={:.3e} dt={:.3e} beta={:.3}",
            self.iteration,
            self.cost_total,
            self.cost_nominal,
            self.cost_pvb,
            self.max_velocity,
            self.time_step,
            self.cg_beta
        );
        if self.rolled_back {
            line.push_str(" [rolled back]");
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_fields() {
        let rec = IterationRecord {
            iteration: 7,
            cost_total: 12.5,
            ..IterationRecord::default()
        };
        let s = rec.summary();
        assert!(s.contains("iter   7"));
        assert!(s.contains("1.2500e1"));
    }

    #[test]
    fn default_is_zeroed() {
        let rec = IterationRecord::default();
        assert_eq!(rec.iteration, 0);
        assert_eq!(rec.cost_total, 0.0);
        assert!(!rec.rolled_back);
        assert_eq!(rec.backoffs, 0);
        assert_eq!(rec.lambda_scale, 1.0);
    }

    #[test]
    fn summary_marks_rollbacks() {
        let rec = IterationRecord {
            rolled_back: true,
            ..IterationRecord::default()
        };
        assert!(rec.summary().contains("[rolled back]"));
        assert!(!IterationRecord::default().summary().contains("rolled"));
    }
}
