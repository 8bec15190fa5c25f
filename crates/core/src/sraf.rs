//! Sub-resolution assist feature (SRAF) seeding.
//!
//! Isolated features have the weakest process window: no neighbouring
//! pattern scatters light into their sidelobes. Production flows insert
//! *sub-resolution* assist bars next to isolated edges — too small to
//! print, but enough to make the main feature image more like a dense
//! pattern. The paper's level-set evolution can grow such islands by
//! itself; seeding them explicitly (and letting the optimizer refine
//! them) is the standard acceleration of that process and is provided
//! here as an extension.
//!
//! The seeding is geometric: a band of mask at signed distance
//! `[distance, distance + width]` from the target, cleaned of fragments
//! too small to matter. Where two features are closer than twice the
//! assist distance their bands merge into a single scattering bar, which
//! matches manual SRAF practice.

use lsopc_geometry::label_components;
use lsopc_grid::Grid;
use lsopc_levelset::signed_distance;

/// SRAF seeding rule (distances in pixels of the working grid).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SrafRule {
    /// Gap between the target edge and the assist bar, px.
    pub distance_px: f64,
    /// Assist bar width, px (keep below the printing threshold!).
    pub width_px: f64,
    /// Fragments below this pixel count are dropped.
    pub min_fragment_px: usize,
}

impl SrafRule {
    /// A reasonable default for the ICCAD 2013 system at 4 nm/px:
    /// 80 nm gap, 24 nm bars (sub-resolution for isolated features).
    pub fn iccad2013_4nm() -> Self {
        Self {
            distance_px: 20.0,
            width_px: 6.0,
            min_fragment_px: 30,
        }
    }
}

/// Seeds SRAFs around a binary target, returning the combined mask
/// (target + assist bars).
///
/// # Panics
///
/// Panics if the rule's distance or width is not positive.
///
/// # Example
///
/// ```
/// use lsopc_core::sraf::{seed_srafs, SrafRule};
/// use lsopc_grid::Grid;
///
/// let target = Grid::from_fn(128, 128, |x, y| {
///     if (56..72).contains(&x) && (32..96).contains(&y) { 1.0 } else { 0.0 }
/// });
/// let rule = SrafRule { distance_px: 12.0, width_px: 4.0, min_fragment_px: 10 };
/// let seeded = seed_srafs(&target, rule);
/// // The assist bars add mask area without touching the target.
/// assert!(seeded.sum() > target.sum());
/// assert!(seeded.zip_map(&target, |&s, &t| s - t).as_slice().iter().all(|&d| d >= 0.0));
/// ```
pub fn seed_srafs(target: &Grid<f64>, rule: SrafRule) -> Grid<f64> {
    assert!(rule.distance_px > 0.0, "assist distance must be positive");
    assert!(rule.width_px > 0.0, "assist width must be positive");
    let psi = signed_distance(target);
    // The raw assist band.
    let band = psi.map(|&d| {
        if d >= rule.distance_px && d <= rule.distance_px + rule.width_px {
            1.0
        } else {
            0.0
        }
    });
    // Drop sub-critical fragments (corner crumbs).
    let (labels, comps) = label_components(&band, 0.5);
    let keep: Vec<bool> = comps
        .iter()
        .map(|c| c.area >= rule.min_fragment_px)
        .collect();
    let mut out = target.binarize(0.5);
    for (idx, &label) in labels.as_slice().iter().enumerate() {
        if label != 0 && keep[(label - 1) as usize] {
            out.as_mut_slice()[idx] = 1.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_litho::{LithoSimulator, ProcessCondition};
    use lsopc_optics::OpticsConfig;

    fn isolated_wire(n: usize) -> Grid<f64> {
        Grid::from_fn(n, n, |x, y| {
            if (n / 2 - 8..n / 2 + 8).contains(&x) && (n / 4..3 * n / 4).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    fn rule() -> SrafRule {
        SrafRule {
            distance_px: 12.0,
            width_px: 4.0,
            min_fragment_px: 10,
        }
    }

    #[test]
    fn assists_surround_but_do_not_touch_the_target() {
        let target = isolated_wire(128);
        let seeded = seed_srafs(&target, rule());
        // Added area exists and is disjoint from the target.
        let added = seeded.zip_map(&target, |&s, &t| s - t);
        assert!(added.sum() > 0.0);
        assert!(added.as_slice().iter().all(|&d| d >= 0.0));
        // Every added pixel is at least distance_px from the target.
        let psi = lsopc_levelset::signed_distance(&target);
        for (i, &a) in added.as_slice().iter().enumerate() {
            if a > 0.0 {
                assert!(psi.as_slice()[i] >= 12.0 - 1e-9);
            }
        }
    }

    #[test]
    fn tiny_fragments_are_dropped() {
        let target = isolated_wire(128);
        let strict = SrafRule {
            min_fragment_px: usize::MAX,
            ..rule()
        };
        let seeded = seed_srafs(&target, strict);
        assert_eq!(seeded, target.binarize(0.5), "everything filtered out");
    }

    #[test]
    fn srafs_do_not_print() {
        let sim =
            LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(8), 128, 4.0)
                .expect("valid configuration");
        let target = isolated_wire(128);
        let seeded = seed_srafs(&target, rule());
        let printed = sim.print(&seeded, ProcessCondition::NOMINAL);
        // Components of the print: exactly one (the wire), no printed
        // assist bars.
        let (_, comps) = label_components(&printed, 0.5);
        assert_eq!(comps.len(), 1, "SRAFs printed!");
    }

    #[test]
    fn srafs_brighten_the_feature_edge() {
        // The scattering bars add constructive light at the main feature
        // edge — the whole point of SRAFs.
        let sim =
            LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(8), 128, 4.0)
                .expect("valid configuration");
        let target = isolated_wire(128);
        let seeded = seed_srafs(&target, rule());
        let plain = sim.aerial(&target, ProcessCondition::NOMINAL);
        let assisted = sim.aerial(&seeded, ProcessCondition::NOMINAL);
        // Sample on the wire edge (x = 56, mid-height).
        let edge = (56usize, 64usize);
        assert!(
            assisted[edge] > plain[edge],
            "edge intensity {} -> {}",
            plain[edge],
            assisted[edge]
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_distance_panics() {
        let _ = seed_srafs(
            &Grid::new(16, 16, 0.0),
            SrafRule {
                distance_px: 0.0,
                width_px: 2.0,
                min_fragment_px: 1,
            },
        );
    }
}
