//! Format round trip: `.glp` in, optimization, `.glp` out.

use lsopc::prelude::*;
use lsopc_geometry::{mask_to_polygons, parse_glp, polygons_to_layout, write_glp};
use lsopc_metrics::evaluate_mask;

fn design() -> Layout {
    let mut layout = Layout::new();
    layout.name = Some("FMT".to_string());
    layout.push(Rect::new(152, 96, 232, 416).into());
    layout.push(Rect::new(296, 96, 376, 416).into());
    layout
}

#[test]
fn glp_design_optimizes_and_exports() {
    // `.glp` → layout.
    let layout = parse_glp(&write_glp(&design())).expect("glp parses");
    assert_eq!(layout.total_area(), design().total_area());

    // Optimize.
    let sim =
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(6), 128, 4.0)
            .expect("valid configuration")
            .with_accelerated_backend(1);
    let target = rasterize(&layout, 128, 128, 4.0);
    let result = LevelSetIlt::builder()
        .max_iterations(10)
        .build()
        .optimize(&sim, &target)
        .expect("optimization runs");

    // Mask → polygons → `.glp` → back; geometry survives losslessly.
    let polygons = mask_to_polygons(&result.mask, 4.0);
    let mask_layout = polygons_to_layout(&polygons);
    let mask_back = parse_glp(&write_glp(&mask_layout)).expect("mask glp parses");
    assert_eq!(mask_back.total_area(), mask_layout.total_area());
    let re_rasterized = rasterize(&mask_back, 128, 128, 4.0);
    assert_eq!(re_rasterized, result.mask);

    // The exported mask still beats the uncorrected design.
    let before = evaluate_mask(&sim, &target, &layout, &target);
    let after = evaluate_mask(&sim, &re_rasterized, &layout, &target);
    assert!(after.epe.violations <= before.epe.violations);
}
