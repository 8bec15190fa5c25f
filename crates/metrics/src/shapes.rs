//! Shape-violation detection.
//!
//! The contest score penalizes "shape violations … visually checked from
//! the final printed image" (paper Eq. (18)). This module makes that
//! check mechanical by comparing connected components of the printed
//! image against the target:
//!
//! * **extra** — printed blobs (SRAF remnants, stains) that touch no
//!   target feature;
//! * **missing** — target features with no printed counterpart;
//! * **bridges** — printed blobs merging two or more target features.

use lsopc_geometry::label_components;
use lsopc_grid::Grid;

/// Printed-vs-target shape violations.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShapeViolations {
    /// Printed components overlapping no target feature.
    pub extra: usize,
    /// Target features with no printed overlap.
    pub missing: usize,
    /// Each printed component merging `n ≥ 2` target features adds
    /// `n − 1`.
    pub bridges: usize,
}

impl ShapeViolations {
    /// Counts violations between a printed binary image and the target
    /// binary image (same grid).
    ///
    /// # Panics
    ///
    /// Panics if the grids differ in shape.
    ///
    /// # Example
    ///
    /// ```
    /// use lsopc_grid::Grid;
    /// use lsopc_metrics::ShapeViolations;
    ///
    /// let target = Grid::from_fn(16, 16, |x, y| {
    ///     if (2..6).contains(&x) && (2..14).contains(&y) { 1.0 } else { 0.0 }
    /// });
    /// let v = ShapeViolations::count(&target, &target);
    /// assert_eq!(v.total(), 0);
    /// ```
    pub fn count(printed: &Grid<f64>, target: &Grid<f64>) -> Self {
        assert_eq!(printed.dims(), target.dims(), "grid dimensions must match");
        let (printed_labels, printed_comps) = label_components(printed, 0.5);
        let (target_labels, target_comps) = label_components(target, 0.5);

        // For every printed component, the set of target components it
        // touches; and for every target component, whether it is covered.
        let mut touched_targets = vec![std::collections::BTreeSet::new(); printed_comps.len()];
        let mut target_covered = vec![false; target_comps.len()];
        let (w, h) = printed.dims();
        for y in 0..h {
            for x in 0..w {
                let p = printed_labels[(x, y)];
                let t = target_labels[(x, y)];
                if p != 0 && t != 0 {
                    touched_targets[(p - 1) as usize].insert(t);
                    target_covered[(t - 1) as usize] = true;
                }
            }
        }
        let extra = touched_targets.iter().filter(|s| s.is_empty()).count();
        let missing = target_covered.iter().filter(|covered| !*covered).count();
        let bridges = touched_targets
            .iter()
            .map(|s| s.len().saturating_sub(1))
            .sum();
        Self {
            extra,
            missing,
            bridges,
        }
    }

    /// Total violation count (the paper's ShapeViol).
    pub fn total(&self) -> usize {
        self.extra + self.missing + self.bridges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bars() -> Grid<f64> {
        Grid::from_fn(32, 16, |x, y| {
            if ((4..12).contains(&x) || (20..28).contains(&x)) && (2..14).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn perfect_print_is_clean() {
        let t = two_bars();
        let v = ShapeViolations::count(&t, &t);
        assert_eq!(v, ShapeViolations::default());
        assert_eq!(v.total(), 0);
    }

    #[test]
    fn isolated_stain_counts_as_extra() {
        let t = two_bars();
        let mut p = t.clone();
        p[(16, 1)] = 1.0; // a speck between the bars
        let v = ShapeViolations::count(&p, &t);
        assert_eq!(v.extra, 1);
        assert_eq!(v.total(), 1);
    }

    #[test]
    fn vanished_feature_counts_as_missing() {
        let t = two_bars();
        let p = Grid::from_fn(32, 16, |x, y| {
            if (4..12).contains(&x) && (2..14).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let v = ShapeViolations::count(&p, &t);
        assert_eq!(v.missing, 1);
        assert_eq!(v.extra, 0);
        assert_eq!(v.total(), 1);
    }

    #[test]
    fn bridge_counts_once_per_extra_feature() {
        let t = two_bars();
        // One blob covering both bars and the gap.
        let p = Grid::from_fn(32, 16, |x, y| {
            if (4..28).contains(&x) && (2..14).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let v = ShapeViolations::count(&p, &t);
        assert_eq!(v.bridges, 1);
        assert_eq!(v.missing, 0);
        assert_eq!(v.total(), 1);
    }

    #[test]
    fn everything_wrong_at_once() {
        let t = two_bars();
        let mut p = Grid::new(32, 16, 0.0);
        p[(0, 15)] = 1.0; // stain, everything else missing
        let v = ShapeViolations::count(&p, &t);
        assert_eq!(v.extra, 1);
        assert_eq!(v.missing, 2);
        assert_eq!(v.total(), 3);
    }
}
