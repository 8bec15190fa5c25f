//! Illumination source shapes and their point discretization.

/// One discretized source point in normalized pupil coordinates
/// (|σ| = 1 at the pupil edge) together with its intensity weight.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SourcePoint {
    /// Normalized x pupil coordinate.
    pub sx: f64,
    /// Normalized y pupil coordinate.
    pub sy: f64,
    /// Relative intensity weight (weights sum to 1 across a sample set).
    pub weight: f64,
}

/// Illumination source shape.
///
/// The ICCAD 2013 optical system uses annular illumination; circular and
/// quadrupole shapes are provided for experiments beyond the paper.
///
/// # Example
///
/// ```
/// use lsopc_optics::SourceModel;
///
/// let pts = SourceModel::Annular { sigma_in: 0.6, sigma_out: 0.9 }.sample(24);
/// assert_eq!(pts.len(), 24);
/// let total: f64 = pts.iter().map(|p| p.weight).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SourceModel {
    /// A uniform disc of radius `sigma`.
    Circular {
        /// Partial-coherence factor (disc radius in pupil units).
        sigma: f64,
    },
    /// A uniform ring between `sigma_in` and `sigma_out`.
    Annular {
        /// Inner radius in pupil units.
        sigma_in: f64,
        /// Outer radius in pupil units.
        sigma_out: f64,
    },
    /// Four poles on the ±45° diagonals, each a small disc.
    Quadrupole {
        /// Pole-centre radius in pupil units.
        sigma_center: f64,
        /// Pole disc radius in pupil units.
        sigma_radius: f64,
    },
}

impl SourceModel {
    /// The largest radial extent of the source in pupil units.
    pub fn sigma_max(&self) -> f64 {
        match *self {
            SourceModel::Circular { sigma } => sigma,
            SourceModel::Annular { sigma_out, .. } => sigma_out,
            SourceModel::Quadrupole {
                sigma_center,
                sigma_radius,
            } => sigma_center + sigma_radius,
        }
    }

    /// Discretizes the source into exactly `count` weighted points.
    ///
    /// Points are placed on concentric rings (or pole clusters for the
    /// quadrupole) with per-ring counts proportional to circumference, so
    /// the discretization approaches the continuous shape as `count` grows.
    /// All weights are equal and sum to one. The layout is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or the shape parameters are non-positive /
    /// inverted.
    pub fn sample(&self, count: usize) -> Vec<SourcePoint> {
        assert!(count > 0, "source sample count must be positive");
        let pts = match *self {
            SourceModel::Circular { sigma } => {
                assert!(sigma > 0.0, "sigma must be positive");
                sample_disc(0.0, sigma, count, 0.0, 0.0)
            }
            SourceModel::Annular {
                sigma_in,
                sigma_out,
            } => {
                assert!(
                    sigma_out > sigma_in && sigma_in >= 0.0,
                    "annulus requires 0 <= sigma_in < sigma_out"
                );
                sample_disc(sigma_in, sigma_out, count, 0.0, 0.0)
            }
            SourceModel::Quadrupole {
                sigma_center,
                sigma_radius,
            } => {
                assert!(
                    sigma_center > 0.0 && sigma_radius > 0.0,
                    "quadrupole parameters must be positive"
                );
                let per_pole = count.div_euclid(4).max(1);
                let mut pts = Vec::new();
                let d = sigma_center / std::f64::consts::SQRT_2;
                for &(cx, cy) in &[(d, d), (-d, d), (d, -d), (-d, -d)] {
                    pts.extend(sample_disc(0.0, sigma_radius, per_pole, cx, cy));
                }
                pts
            }
        };
        let w = 1.0 / pts.len() as f64;
        pts.into_iter()
            .map(|(sx, sy)| SourcePoint { sx, sy, weight: w })
            .collect()
    }
}

/// Samples `count` points on an annulus `[r_in, r_out]` centred at
/// `(cx, cy)`, using rings with point counts proportional to ring radius.
fn sample_disc(r_in: f64, r_out: f64, count: usize, cx: f64, cy: f64) -> Vec<(f64, f64)> {
    if count == 1 {
        let r = (r_in + r_out) / 2.0;
        // A single point sits on the mid-radius along +x (or at the centre
        // for a full disc).
        return if r_in == 0.0 {
            vec![(cx, cy)]
        } else {
            vec![(cx + r, cy)]
        };
    }
    // Choose the number of rings so each ring has a handful of points.
    let rings = ((count as f64).sqrt() / 1.8).ceil().max(1.0) as usize;
    // Ring radii at band centres.
    let radii: Vec<f64> = (0..rings)
        .map(|i| r_in + (r_out - r_in) * (i as f64 + 0.5) / rings as f64)
        .collect();
    // Allocate points proportionally to radius (rounded, then fixed up so
    // the total is exactly `count`).
    let total_r: f64 = radii.iter().map(|r| r.max(1e-9)).sum();
    let mut counts: Vec<usize> = radii
        .iter()
        .map(|r| ((r.max(1e-9) / total_r) * count as f64).round().max(1.0) as usize)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let mut i = 0;
    while assigned != count {
        let idx = i % rings;
        if assigned < count {
            counts[idx] += 1;
            assigned += 1;
        } else if counts[idx] > 1 {
            counts[idx] -= 1;
            assigned -= 1;
        }
        i += 1;
    }
    let mut pts = Vec::with_capacity(count);
    for (ring, (&r, &n)) in radii.iter().zip(&counts).enumerate() {
        // Stagger consecutive rings so points do not align radially.
        let phase = 0.5 * ring as f64;
        for k in 0..n {
            let theta = 2.0 * std::f64::consts::PI * (k as f64 + phase) / n as f64;
            pts.push((cx + r * theta.cos(), cy + r * theta.sin()));
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annular_points_lie_in_annulus() {
        let src = SourceModel::Annular {
            sigma_in: 0.6,
            sigma_out: 0.9,
        };
        for p in src.sample(24) {
            let r = (p.sx * p.sx + p.sy * p.sy).sqrt();
            assert!(
                (0.6 - 1e-9..=0.9 + 1e-9).contains(&r),
                "point at radius {r}"
            );
        }
    }

    #[test]
    fn circular_points_lie_in_disc() {
        let src = SourceModel::Circular { sigma: 0.5 };
        for p in src.sample(16) {
            let r = (p.sx * p.sx + p.sy * p.sy).sqrt();
            assert!(r <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn exact_count_for_various_requests() {
        let src = SourceModel::Annular {
            sigma_in: 0.6,
            sigma_out: 0.9,
        };
        for count in [1usize, 2, 5, 13, 24, 64] {
            assert_eq!(src.sample(count).len(), count, "count={count}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for src in [
            SourceModel::Circular { sigma: 0.7 },
            SourceModel::Annular {
                sigma_in: 0.5,
                sigma_out: 0.8,
            },
            SourceModel::Quadrupole {
                sigma_center: 0.7,
                sigma_radius: 0.15,
            },
        ] {
            let pts = src.sample(24);
            let total: f64 = pts.iter().map(|p| p.weight).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn annular_centroid_is_origin() {
        let pts = SourceModel::Annular {
            sigma_in: 0.6,
            sigma_out: 0.9,
        }
        .sample(24);
        let (mx, my) = pts
            .iter()
            .fold((0.0, 0.0), |(x, y), p| (x + p.sx, y + p.sy));
        assert!(mx.abs() / 24.0 < 0.05, "centroid x = {}", mx / 24.0);
        assert!(my.abs() / 24.0 < 0.05, "centroid y = {}", my / 24.0);
    }

    #[test]
    fn quadrupole_has_four_clusters() {
        let pts = SourceModel::Quadrupole {
            sigma_center: 0.7,
            sigma_radius: 0.1,
        }
        .sample(24);
        let quadrants: [usize; 4] = pts.iter().fold([0; 4], |mut acc, p| {
            let q = match (p.sx > 0.0, p.sy > 0.0) {
                (true, true) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (false, false) => 3,
            };
            acc[q] += 1;
            acc
        });
        assert_eq!(quadrants, [6, 6, 6, 6]);
    }

    #[test]
    fn sigma_max_matches_shape() {
        assert_eq!(SourceModel::Circular { sigma: 0.4 }.sigma_max(), 0.4);
        assert_eq!(
            SourceModel::Annular {
                sigma_in: 0.6,
                sigma_out: 0.9
            }
            .sigma_max(),
            0.9
        );
    }

    #[test]
    #[should_panic(expected = "sigma_in < sigma_out")]
    fn inverted_annulus_panics() {
        let _ = SourceModel::Annular {
            sigma_in: 0.9,
            sigma_out: 0.6,
        }
        .sample(8);
    }

    #[test]
    fn deterministic() {
        let src = SourceModel::Annular {
            sigma_in: 0.6,
            sigma_out: 0.9,
        };
        assert_eq!(src.sample(24), src.sample(24));
    }
}
