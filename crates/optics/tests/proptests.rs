//! Property-based invariants of the optics crate.

use lsopc_grid::{Grid, C64};
use lsopc_optics::{KernelSet, SourceModel};
use proptest::prelude::*;

fn arbitrary_kernel_set() -> impl Strategy<Value = KernelSet> {
    let support = 5usize;
    (
        prop::collection::vec(
            prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), support * support),
            1..4,
        ),
        prop::collection::vec(0.01f64..5.0, 1..4),
    )
        .prop_filter_map(
            "weights/spectra length mismatch",
            move |(specs, weights)| {
                let count = specs.len().min(weights.len());
                if count == 0 {
                    return None;
                }
                let spectra: Vec<Grid<C64>> = specs[..count]
                    .iter()
                    .map(|vals| {
                        Grid::from_vec(
                            support,
                            support,
                            vals.iter().map(|&(re, im)| C64::new(re, im)).collect(),
                        )
                    })
                    .collect();
                Some(KernelSet::new(
                    spectra,
                    weights[..count].to_vec(),
                    256.0,
                    7.5,
                ))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Source sampling always returns the requested count with unit total
    /// weight, inside the stated radial extent.
    #[test]
    fn source_sampling_invariants(
        count in 1usize..64,
        sigma_in in 0.1f64..0.7,
        extra in 0.05f64..0.5,
    ) {
        let source = SourceModel::Annular {
            sigma_in,
            sigma_out: sigma_in + extra,
        };
        let pts = source.sample(count);
        prop_assert_eq!(pts.len(), count);
        let total: f64 = pts.iter().map(|p| p.weight).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for p in &pts {
            let r = (p.sx * p.sx + p.sy * p.sy).sqrt();
            prop_assert!(r <= source.sigma_max() + 1e-9);
        }
    }

    /// Kernel truncation preserves unit clear-field intensity and never
    /// increases the kernel count.
    #[test]
    fn truncation_preserves_normalization(set in arbitrary_kernel_set(), rank in 1usize..4) {
        // Ensure a usable clear-field intensity first.
        prop_assume!(set.clear_field_intensity() > 1e-6);
        let normalized = set.normalized();
        let truncated = normalized.truncated(rank);
        prop_assert!(truncated.len() <= rank.max(1));
        prop_assert!((truncated.clear_field_intensity() - 1.0).abs() < 1e-9);
    }
}
