//! ICCAD 2013-style synthetic benchmark suite.
//!
//! The contest's ten IBM 32 nm M1 benchmark tiles are proprietary, so this
//! crate synthesizes stand-ins (see DESIGN.md §2): deterministic, seeded
//! rectilinear layouts in the same 2048 x 2048 nm field whose **pattern
//! areas match the paper's Table I exactly** (215344 … 102400 nm²) and
//! whose feature mix (wires, L/T shapes, pads) is metal-1-like.
//!
//! # Example
//!
//! ```
//! use lsopc_benchsuite::Iccad2013Suite;
//!
//! let suite = Iccad2013Suite::new();
//! let case = &suite.cases()[0];
//! assert_eq!(case.name, "B1");
//! let layout = suite.layout(case);
//! assert_eq!(layout.total_area(), 215344); // Table I pattern area
//! ```

#![warn(missing_docs)]

mod cases;
mod generator;
mod repeated;

pub use cases::{CaseSpec, FIELD_NM, PAPER_PATTERN_AREAS};
pub use generator::generate_layout;
pub use repeated::RepeatedTileSpec;

use lsopc_geometry::Layout;

/// The ten-benchmark suite (B1–B10).
#[derive(Clone, Debug, Default)]
pub struct Iccad2013Suite {
    cases: Vec<CaseSpec>,
}

impl Iccad2013Suite {
    /// Creates the suite with the paper's pattern areas.
    pub fn new() -> Self {
        Self {
            cases: CaseSpec::all(),
        }
    }

    /// The case descriptors B1..B10.
    pub fn cases(&self) -> &[CaseSpec] {
        &self.cases
    }

    /// Generates (deterministically) the layout of a case.
    pub fn layout(&self, case: &CaseSpec) -> Layout {
        generate_layout(case)
    }

    /// Generates every `(case, layout)` pair.
    pub fn all_layouts(&self) -> Vec<(CaseSpec, Layout)> {
        self.cases
            .iter()
            .map(|c| (c.clone(), self.layout(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_cases_with_paper_areas() {
        let suite = Iccad2013Suite::new();
        assert_eq!(suite.cases().len(), 10);
        for (case, layout) in suite.all_layouts() {
            assert_eq!(
                layout.total_area(),
                case.target_area_nm2,
                "{} area mismatch",
                case.name
            );
        }
    }
}
