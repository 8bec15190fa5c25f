//! Edge placement error measurement (paper Fig. 1(a), Eq. (4)).

use lsopc_geometry::{probe_sites, Layout, ProbeSite};
use lsopc_grid::Grid;

/// One EPE measurement at a probe site.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EpeMeasurement {
    /// The probe site on the target edge.
    pub site: ProbeSite,
    /// Signed displacement of the printed contour along the outward
    /// normal, in nm (positive = printed edge outside the target edge);
    /// `None` when no contour was found within the search range.
    pub displacement_nm: Option<f64>,
    /// True when `|D| >= th_EPE` (or no contour was found).
    pub violation: bool,
}

/// Summary of an EPE check.
#[derive(Clone, Debug, PartialEq)]
pub struct EpeReport {
    /// Number of violating probes (the paper's #EPE).
    pub violations: usize,
    /// Total probes measured.
    pub total_probes: usize,
    /// Per-probe details.
    pub measurements: Vec<EpeMeasurement>,
}

/// The EPE checker: probes every `spacing_nm` along target edges and
/// flags displacements of `threshold_nm` or more (contest values: 40 nm
/// spacing, 15 nm threshold).
///
/// # Example
///
/// ```
/// use lsopc_metrics::EpeChecker;
/// let checker = EpeChecker::iccad2013();
/// assert_eq!(checker.spacing_nm(), 40.0);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EpeChecker {
    spacing_nm: f64,
    threshold_nm: f64,
    search_nm: f64,
}

impl EpeChecker {
    /// Creates a checker.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold_nm <= search_nm` and `spacing_nm > 0`.
    pub fn new(spacing_nm: f64, threshold_nm: f64, search_nm: f64) -> Self {
        assert!(spacing_nm > 0.0, "spacing must be positive");
        assert!(threshold_nm > 0.0, "threshold must be positive");
        assert!(
            search_nm >= threshold_nm,
            "search range must cover the threshold"
        );
        Self {
            spacing_nm,
            threshold_nm,
            search_nm,
        }
    }

    /// The contest configuration: 40 nm spacing, 15 nm threshold, with a
    /// 40 nm search range.
    pub fn iccad2013() -> Self {
        Self::new(40.0, 15.0, 40.0)
    }

    /// Probe spacing in nm.
    pub fn spacing_nm(&self) -> f64 {
        self.spacing_nm
    }

    /// Measures the EPE of a printed (hard-thresholded) image against the
    /// target layout. `pixel_nm` converts between layout nanometres and
    /// grid pixels.
    ///
    /// At each probe the printed image is sampled along the edge normal;
    /// the nearest 0/1 transition gives the contour displacement. Probes
    /// with no transition inside the search range (feature vanished or
    /// bridged) count as violations.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_nm` is not positive.
    pub fn check(&self, target: &Layout, printed: &Grid<f64>, pixel_nm: f64) -> EpeReport {
        assert!(pixel_nm > 0.0, "pixel size must be positive");
        let sites = probe_sites(target, self.spacing_nm);
        let mut measurements = Vec::with_capacity(sites.len());
        let mut violations = 0;
        for site in sites {
            let displacement = self.contour_displacement(&site, printed, pixel_nm);
            let violation = match displacement {
                Some(d) => d.abs() >= self.threshold_nm,
                None => true,
            };
            if violation {
                violations += 1;
            }
            measurements.push(EpeMeasurement {
                site,
                displacement_nm: displacement,
                violation,
            });
        }
        EpeReport {
            violations,
            total_probes: measurements.len(),
            measurements,
        }
    }

    /// Finds the signed distance from the probe to the nearest printed
    /// contour crossing along the outward normal, with sub-pixel
    /// localization by bilinear interpolation.
    fn contour_displacement(
        &self,
        site: &ProbeSite,
        printed: &Grid<f64>,
        pixel_nm: f64,
    ) -> Option<f64> {
        let step = (pixel_nm / 2.0).min(1.0);
        let sample = |t: f64| -> f64 {
            let x = site.pos.x + site.outward.x * t;
            let y = site.pos.y + site.outward.y * t;
            sample_bilinear(printed, x, y, pixel_nm)
        };
        // Walk outward in both directions simultaneously, returning the
        // crossing nearest to the edge; refine each crossing linearly.
        let refine = |t_prev: f64, t: f64, v_prev: f64, v: f64| -> f64 {
            if (v - v_prev).abs() < 1e-12 {
                (t_prev + t) / 2.0
            } else {
                t_prev + (t - t_prev) * (0.5 - v_prev) / (v - v_prev)
            }
        };
        let mut best: Option<f64> = None;
        let steps = (self.search_nm / step).ceil() as i64;
        let mut prev_out = sample(0.0);
        let mut prev_in = prev_out;
        for i in 1..=steps {
            let t = i as f64 * step;
            let v_out = sample(t);
            if (v_out >= 0.5) != (prev_out >= 0.5) {
                best = Some(refine(t - step, t, prev_out, v_out));
                break;
            }
            prev_out = v_out;
            let v_in = sample(-t);
            if (v_in >= 0.5) != (prev_in >= 0.5) {
                best = Some(refine(-(t - step), -t, prev_in, v_in));
                break;
            }
            prev_in = v_in;
        }
        best
    }
}

impl Default for EpeChecker {
    fn default() -> Self {
        Self::iccad2013()
    }
}

/// Bilinear sample of a grid at layout coordinates (nm); pixel `(i, j)`'s
/// value is located at its centre `((i + 0.5)·p, (j + 0.5)·p)`, and the
/// field is clamped at the borders.
fn sample_bilinear(grid: &Grid<f64>, x_nm: f64, y_nm: f64, pixel_nm: f64) -> f64 {
    let (w, h) = grid.dims();
    let fx = (x_nm / pixel_nm - 0.5).clamp(0.0, (w - 1) as f64);
    let fy = (y_nm / pixel_nm - 0.5).clamp(0.0, (h - 1) as f64);
    let i0 = fx.floor() as usize;
    let j0 = fy.floor() as usize;
    let i1 = (i0 + 1).min(w - 1);
    let j1 = (j0 + 1).min(h - 1);
    let tx = fx - i0 as f64;
    let ty = fy - j0 as f64;
    let top = grid[(i0, j0)] * (1.0 - tx) + grid[(i1, j0)] * tx;
    let bottom = grid[(i0, j1)] * (1.0 - tx) + grid[(i1, j1)] * tx;
    top * (1.0 - ty) + bottom * ty
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_geometry::{rasterize, Rect};

    fn wire_layout() -> Layout {
        let mut l = Layout::new();
        l.push(Rect::new(80, 40, 176, 216).into());
        l
    }

    /// Rasterize the layout displaced uniformly by `d` nm in every
    /// outward direction (positive inflates).
    fn printed_with_bias(d: i64) -> Grid<f64> {
        let mut l = Layout::new();
        l.push(Rect::new(80 - d, 40 - d, 176 + d, 216 + d).into());
        rasterize(&l, 256, 256, 1.0)
    }

    #[test]
    fn perfect_print_has_no_violations() {
        let layout = wire_layout();
        let printed = printed_with_bias(0);
        let report = EpeChecker::iccad2013().check(&layout, &printed, 1.0);
        assert!(report.total_probes > 0);
        assert_eq!(report.violations, 0);
        for m in &report.measurements {
            let d = m.displacement_nm.expect("contour present");
            assert!(d.abs() <= 1.0, "displacement {d}");
        }
    }

    #[test]
    fn small_bias_is_tolerated() {
        let report = EpeChecker::iccad2013().check(&wire_layout(), &printed_with_bias(10), 1.0);
        assert_eq!(report.violations, 0);
        // Every displacement reads close to +10 nm (outward).
        for m in &report.measurements {
            let d = m.displacement_nm.expect("contour present");
            assert!((d - 10.0).abs() <= 1.5, "displacement {d}");
        }
    }

    #[test]
    fn large_bias_violates_everywhere() {
        let report = EpeChecker::iccad2013().check(&wire_layout(), &printed_with_bias(20), 1.0);
        assert_eq!(report.violations, report.total_probes);
        assert!(report.violations > 0);
    }

    #[test]
    fn shrunken_print_gives_negative_displacement() {
        let report = EpeChecker::iccad2013().check(&wire_layout(), &printed_with_bias(-10), 1.0);
        assert_eq!(report.violations, 0);
        for m in &report.measurements {
            let d = m.displacement_nm.expect("contour present");
            assert!((d + 10.0).abs() <= 1.5, "displacement {d}");
        }
    }

    #[test]
    fn vanished_feature_counts_all_probes() {
        let layout = wire_layout();
        let empty = Grid::new(256, 256, 0.0);
        let report = EpeChecker::iccad2013().check(&layout, &empty, 1.0);
        assert_eq!(report.violations, report.total_probes);
        assert!(report
            .measurements
            .iter()
            .all(|m| m.displacement_nm.is_none()));
    }

    #[test]
    fn coarse_pixels_still_measure() {
        let layout = wire_layout();
        let mut l = Layout::new();
        l.push(Rect::new(60, 20, 196, 236).into()); // +20nm bias
        let printed = rasterize(&l, 64, 64, 4.0);
        let report = EpeChecker::iccad2013().check(&layout, &printed, 4.0);
        assert_eq!(report.violations, report.total_probes);
    }

    #[test]
    #[should_panic(expected = "search range")]
    fn search_below_threshold_panics() {
        let _ = EpeChecker::new(40.0, 15.0, 10.0);
    }
}
