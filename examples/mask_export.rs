//! Full OPC flow with geometry export: target `.glp` in, optimized mask
//! `.glp` out, plus manufacturability metrics of the result.
//!
//! Writes `optimized_mask.glp` to the current directory.
//!
//! ```text
//! cargo run --release --example mask_export
//! ```

use lsopc::prelude::*;
use lsopc_geometry::{mask_to_polygons, polygons_to_layout, write_glp};
use lsopc_metrics::{MaskComplexity, MrcReport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid_px = 128;
    let pixel_nm = 4.0;

    // The incoming design (would normally be parse_glp of a file).
    let mut design = Layout::new();
    design.name = Some("demo_m1".to_string());
    design.push(Rect::new(96, 96, 168, 416).into());
    design.push(Rect::new(232, 96, 304, 300).into());
    design.push(Rect::new(232, 360, 416, 416).into());

    let optics = OpticsConfig::iccad2013().with_kernel_count(12);
    let sim = LithoSimulator::from_optics(&optics, grid_px, pixel_nm)?.with_accelerated_backend(1);
    let target = rasterize(&design, grid_px, grid_px, pixel_nm);

    let result = LevelSetIlt::builder()
        .max_iterations(25)
        .build()
        .optimize(&sim, &target)?;

    // Vectorize the optimized mask back into rectilinear polygons.
    let polygons = mask_to_polygons(&result.mask, pixel_nm);
    let mut mask_layout = polygons_to_layout(&polygons);
    mask_layout.name = Some("demo_m1_opc".to_string());
    std::fs::write("optimized_mask.glp", write_glp(&mask_layout))?;

    // Manufacturability of the exported mask.
    let complexity = MaskComplexity::measure(&result.mask);
    let mrc = MrcReport::check(&result.mask, 10, 10); // 40nm rules at 4nm/px
    println!(
        "optimized mask: {} polygons, {} vertices total",
        mask_layout.len(),
        polygons.iter().map(|p| p.vertices().len()).sum::<usize>()
    );
    println!(
        "complexity: {} fragments, perimeter {} px, jaggedness {:.2}",
        complexity.fragments, complexity.perimeter_px, complexity.jaggedness
    );
    println!(
        "MRC (40nm width/space): {} width + {} spacing violations",
        mrc.width_violations, mrc.spacing_violations
    );
    println!("wrote optimized_mask.glp ({} shapes)", mask_layout.len());

    // Round-trip sanity: the exported geometry re-rasterizes to the mask.
    let roundtrip = rasterize(&mask_layout, grid_px, grid_px, pixel_nm);
    let identical = roundtrip == result.mask;
    println!("glp round-trip reproduces the mask exactly: {identical}");
    Ok(())
}
