//! Repeated-tile layout synthesis for warm-start benchmarking.
//!
//! AdaOPC's observation (PAPERS.md) is that production layouts repeat a
//! small vocabulary of local patterns; a content-addressed warm-start
//! cache converts that repetition into skipped iterations. This generator
//! builds the idealized version of that workload: one contact motif
//! stamped on a regular `cell_nm` grid, so every tile of a [`TiledIlt`]
//! run whose core matches the cell period sees *identical* content up to
//! whole-pixel translation — a 100 % cache-hit workload after the first
//! tile. Real layouts sit between this and a fully irregular layout.

use crate::{CaseSpec, FIELD_NM};
use lsopc_geometry::{Layout, Rect, Shape};

/// Parameters of a periodic repeated-motif tile.
///
/// The motif is a `cluster × cluster` array of square contacts, centred
/// in each `cell_nm × cell_nm` cell of the field. Keeping the motif well
/// inside its cell guarantees that a tile's halo region sees only empty
/// field, which is what makes every populated tile translation-equivalent.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RepeatedTileSpec {
    /// Cell period, nm. Must divide the 2048 nm field evenly.
    pub cell_nm: i64,
    /// Contacts per motif row/column.
    pub cluster: usize,
    /// Contact side length, nm.
    pub size_nm: i64,
    /// Centre-to-centre contact pitch within the motif, nm.
    pub pitch_nm: i64,
}

impl RepeatedTileSpec {
    /// The default warm-start workload: 512 nm cells (a 4×4 tile grid),
    /// each holding a 3×3 cluster of 70 nm contacts on a 140 nm pitch.
    /// The motif spans 350 nm, leaving an 81 nm empty margin per side —
    /// wider than any reasonable tile halo.
    pub fn default_repeated() -> Self {
        Self {
            cell_nm: 512,
            cluster: 3,
            size_nm: 70,
            pitch_nm: 140,
        }
    }

    /// Number of cells per field side.
    pub fn cells_per_side(&self) -> usize {
        (FIELD_NM / self.cell_nm) as usize
    }

    fn motif_span(&self) -> i64 {
        (self.cluster as i64 - 1) * self.pitch_nm + self.size_nm
    }

    /// Generates the layout: the motif stamped once per cell.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (non-positive sizes, pitch
    /// smaller than the contact, empty cluster), `cell_nm` does not
    /// divide the field, or the motif does not fit inside a cell.
    pub fn generate(&self) -> Layout {
        assert!(self.size_nm > 0, "contact size must be positive");
        assert!(
            self.pitch_nm >= self.size_nm,
            "pitch must be at least the contact size"
        );
        assert!(self.cluster > 0, "cluster must be non-empty");
        assert!(
            self.cell_nm > 0 && FIELD_NM % self.cell_nm == 0,
            "cell period {} must divide the {FIELD_NM} nm field",
            self.cell_nm
        );
        let span = self.motif_span();
        assert!(
            span < self.cell_nm,
            "motif span {span} does not fit the {} nm cell",
            self.cell_nm
        );
        let offset = (self.cell_nm - span) / 2;

        let per_side = self.cells_per_side() as i64;
        let mut layout = Layout::new();
        layout.name = Some(format!(
            "repeated_{}x{}_cell{}",
            per_side, per_side, self.cell_nm
        ));
        for cy in 0..per_side {
            for cx in 0..per_side {
                let ox = cx * self.cell_nm + offset;
                let oy = cy * self.cell_nm + offset;
                for r in 0..self.cluster as i64 {
                    for c in 0..self.cluster as i64 {
                        layout.push(Shape::Rect(Rect::from_origin_size(
                            ox + c * self.pitch_nm,
                            oy + r * self.pitch_nm,
                            self.size_nm,
                            self.size_nm,
                        )));
                    }
                }
            }
        }
        layout
    }

    /// Wraps the generated layout in a [`CaseSpec`]-style descriptor.
    pub fn as_case(&self, index: usize) -> (CaseSpec, Layout) {
        let layout = self.generate();
        let case = CaseSpec {
            index,
            name: format!("R{}", index + 1),
            target_area_nm2: layout.total_area(),
            seed: 0,
        };
        (case, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_geometry::rasterize;

    #[test]
    fn default_spec_fills_every_cell() {
        let spec = RepeatedTileSpec::default_repeated();
        let layout = spec.generate();
        let cells = spec.cells_per_side() * spec.cells_per_side();
        assert_eq!(cells, 16);
        assert_eq!(layout.len(), cells * 9);
        assert_eq!(layout.total_area(), (cells * 9) as i64 * 70 * 70);
        // The empty margin between the motif and its cell boundary: tile
        // halos narrower than it see only empty field, the precondition
        // for every tile hashing to the same warm-start key.
        let margin_nm = (spec.cell_nm - spec.motif_span()) / 2;
        assert!(margin_nm >= 64, "margin {margin_nm}");
    }

    #[test]
    fn cells_are_translations_of_each_other() {
        let spec = RepeatedTileSpec::default_repeated();
        let grid = rasterize(&spec.generate(), 1024, 1024, 2.0);
        let cell_px = (spec.cell_nm / 2) as usize;
        // Every cell's raster block must equal cell (0, 0)'s block.
        for cy in 0..spec.cells_per_side() {
            for cx in 0..spec.cells_per_side() {
                for y in 0..cell_px {
                    for x in 0..cell_px {
                        assert_eq!(
                            grid[(cx * cell_px + x, cy * cell_px + y)],
                            grid[(x, y)],
                            "cell ({cx},{cy}) differs at ({x},{y})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn as_case_records_produced_area() {
        let (case, layout) = RepeatedTileSpec::default_repeated().as_case(0);
        assert_eq!(case.name, "R1");
        assert_eq!(case.target_area_nm2, layout.total_area());
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn non_dividing_cell_panics() {
        let _ = RepeatedTileSpec {
            cell_nm: 500,
            ..RepeatedTileSpec::default_repeated()
        }
        .generate();
    }

    #[test]
    #[should_panic(expected = "fit")]
    fn oversized_motif_panics() {
        let _ = RepeatedTileSpec {
            cluster: 5,
            ..RepeatedTileSpec::default_repeated()
        }
        .generate();
    }
}
