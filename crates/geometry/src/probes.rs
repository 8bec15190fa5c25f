//! EPE probe-site generation.
//!
//! The ICCAD 2013 contest measures edge placement error at sample points
//! placed every 40 nm along the horizontal and vertical edges of the target
//! pattern. [`probe_sites`] generates those sample points together with the
//! outward edge normal, which the EPE checker uses to measure the printed
//! contour displacement.

use crate::{FPoint, Layout};

/// Orientation of the target edge a probe sits on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Edge runs horizontally; the normal is vertical.
    Horizontal,
    /// Edge runs vertically; the normal is horizontal.
    Vertical,
}

/// One EPE measurement site on a target edge.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ProbeSite {
    /// Position on the target edge, in nanometres.
    pub pos: FPoint,
    /// Edge orientation.
    pub axis: Axis,
    /// Unit normal pointing out of the pattern.
    pub outward: FPoint,
}

/// Generates probe sites along every edge of every shape, spaced
/// `spacing_nm` apart.
///
/// Edges shorter than the spacing receive a single probe at their midpoint;
/// longer edges receive `floor(L / spacing)` probes centred on the edge
/// (offset `spacing/2 + k·spacing` from a corner-symmetric start), so no
/// probe sits on a corner.
///
/// # Panics
///
/// Panics if `spacing_nm` is not positive.
///
/// # Example
///
/// ```
/// use lsopc_geometry::{probe_sites, Layout, Rect};
///
/// let mut layout = Layout::new();
/// layout.push(Rect::new(0, 0, 100, 40).into());
/// let probes = probe_sites(&layout, 40.0);
/// // Two 100nm edges get 2 probes each, two 40nm edges get 1 each.
/// assert_eq!(probes.len(), 6);
/// ```
pub fn probe_sites(layout: &Layout, spacing_nm: f64) -> Vec<ProbeSite> {
    assert!(spacing_nm > 0.0, "probe spacing must be positive");
    let mut sites = Vec::new();
    for shape in layout.shapes() {
        let poly = shape.to_polygon();
        for (a, b) in poly.edges() {
            let (ax, ay) = (a.x as f64, a.y as f64);
            let (bx, by) = (b.x as f64, b.y as f64);
            let len = ((bx - ax).abs() + (by - ay).abs()).max(0.0); // axis-parallel
            if len == 0.0 {
                continue;
            }
            let dir = FPoint::new((bx - ax) / len, (by - ay) / len);
            let axis = if a.y == b.y {
                Axis::Horizontal
            } else {
                Axis::Vertical
            };
            // Decide outward normal by probing just off the edge midpoint.
            let mid = FPoint::new((ax + bx) / 2.0, (ay + by) / 2.0);
            let n = FPoint::new(-dir.y, dir.x);
            let eps = 0.25;
            let outward = if poly.contains(mid.x + n.x * eps, mid.y + n.y * eps) {
                FPoint::new(-n.x, -n.y)
            } else {
                n
            };
            // Probe positions along the edge.
            let count = (len / spacing_nm).floor() as usize;
            if count == 0 {
                sites.push(ProbeSite {
                    pos: mid,
                    axis,
                    outward,
                });
            } else {
                // Centre the probe train on the edge.
                let margin = (len - count as f64 * spacing_nm) / 2.0;
                for k in 0..count {
                    let t = margin + spacing_nm * (k as f64 + 0.5);
                    sites.push(ProbeSite {
                        pos: FPoint::new(ax + dir.x * t, ay + dir.y * t),
                        axis,
                        outward,
                    });
                }
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn rect_layout(r: Rect) -> Layout {
        let mut l = Layout::new();
        l.push(r.into());
        l
    }

    #[test]
    fn outward_normals_point_away_from_rect() {
        let layout = rect_layout(Rect::new(0, 0, 100, 100));
        let probes = probe_sites(&layout, 40.0);
        for p in &probes {
            // Moving 1nm outward must leave the rectangle.
            let out = FPoint::new(p.pos.x + p.outward.x, p.pos.y + p.outward.y);
            let inside = out.x > 0.0 && out.x < 100.0 && out.y > 0.0 && out.y < 100.0;
            assert!(!inside, "probe at {:?} has inward normal", p.pos);
            // Moving 1nm inward must stay inside.
            let inn = FPoint::new(p.pos.x - p.outward.x, p.pos.y - p.outward.y);
            assert!(inn.x > 0.0 && inn.x < 100.0 && inn.y > 0.0 && inn.y < 100.0);
        }
    }

    #[test]
    fn short_edges_get_midpoint_probe() {
        let layout = rect_layout(Rect::new(0, 0, 30, 30));
        let probes = probe_sites(&layout, 40.0);
        assert_eq!(probes.len(), 4);
        // All probes at edge midpoints.
        assert!(probes.iter().any(|p| p.pos == FPoint::new(15.0, 0.0)));
        assert!(probes.iter().any(|p| p.pos == FPoint::new(15.0, 30.0)));
    }

    #[test]
    fn probe_count_scales_with_edge_length() {
        let layout = rect_layout(Rect::new(0, 0, 200, 40));
        let probes = probe_sites(&layout, 40.0);
        // 200nm edges: 5 probes each; 40nm edges: 1 each.
        assert_eq!(probes.len(), 5 + 5 + 1 + 1);
    }

    #[test]
    fn axes_are_labelled() {
        let layout = rect_layout(Rect::new(0, 0, 80, 40));
        let probes = probe_sites(&layout, 40.0);
        let horizontal = probes.iter().filter(|p| p.axis == Axis::Horizontal).count();
        let vertical = probes.iter().filter(|p| p.axis == Axis::Vertical).count();
        assert_eq!(horizontal, 4); // two 80nm edges, 2 probes each
        assert_eq!(vertical, 2); // two 40nm edges, 1 probe each
    }

    #[test]
    fn probes_avoid_corners() {
        let layout = rect_layout(Rect::new(0, 0, 120, 120));
        for p in probe_sites(&layout, 40.0) {
            let on_corner =
                (p.pos.x == 0.0 || p.pos.x == 120.0) && (p.pos.y == 0.0 || p.pos.y == 120.0);
            assert!(!on_corner);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_spacing_panics() {
        let _ = probe_sites(&Layout::new(), 0.0);
    }
}
