//! Ablation experiments beyond the paper's tables, pinning its design
//! choices:
//!
//! * PRP conjugate gradient (Section III-C claim) vs plain descent;
//! * `w_pvb` sweep (Section III-B trade-off between EPE and PVB);
//! * the Eq. (17) fused-kernel approximation error (DESIGN.md §7);
//! * mask complexity of level-set vs pixel-ILT masks (paper §I).
//!
//! ```text
//! cargo run -p lsopc-bench --release --bin ablation [--grid 512] [--cases 1]
//! ```
//!
//! Writes `results/ablation.csv`.

use lsopc_baselines::{MaskOptimizer, PixelIlt, PixelIltMode};
use lsopc_bench::runner::init_from_args;
use lsopc_bench::Method;
use lsopc_benchsuite::Iccad2013Suite;
use lsopc_core::LevelSetIlt;
use lsopc_geometry::rasterize;
use lsopc_litho::{fused_aerial_image, ProcessCondition};
use lsopc_metrics::{evaluate_mask, MaskComplexity};
use std::fmt::Write as _;

fn main() {
    let mut cfg = init_from_args();
    if cfg.case_filter.is_empty() {
        cfg.case_filter = vec![0];
    }
    std::fs::create_dir_all("results").ok();

    let suite = Iccad2013Suite::new();
    let case = cfg.cases().into_iter().next().expect("case selected");
    let layout = suite.layout(&case);
    let sim = cfg.simulator(Method::LevelSetGpu);
    let target = rasterize(&layout, cfg.grid_px, cfg.grid_px, cfg.pixel_nm());
    let mut csv = String::from("experiment,variant,final_cost,epe,pvb_nm2,runtime_s\n");

    eprintln!("ablation: case {}, grid {} px", case.name, cfg.grid_px);

    // ---- 1. Evolution: PRP CG vs plain descent -----------------------------
    for (variant, cg) in [("prp-cg", true), ("plain", false)] {
        let result = LevelSetIlt::builder()
            .max_iterations(cfg.levelset_iterations)
            .conjugate_gradient(cg)
            .build()
            .optimize(&sim, &target)
            .expect("well-formed target");
        let eval = evaluate_mask(&sim, &result.mask, &layout, &target);
        let final_cost = result.final_cost();
        println!(
            "evolution / {variant:<6}: final cost {final_cost:>10.2}, #EPE {:>3}, PVB {:>9.0}",
            eval.epe.violations, eval.pvb_area_nm2
        );
        let _ = writeln!(
            csv,
            "evolution,{variant},{final_cost:.3},{},{:.0},{:.3}",
            eval.epe.violations, eval.pvb_area_nm2, result.runtime_s
        );
    }

    // ---- 2. w_pvb sweep ----------------------------------------------------
    for w in [0.0, 0.5, 1.0, 2.0] {
        let result = LevelSetIlt::builder()
            .max_iterations(cfg.levelset_iterations)
            .pvb_weight(w)
            .build()
            .optimize(&sim, &target)
            .expect("well-formed target");
        let eval = evaluate_mask(&sim, &result.mask, &layout, &target);
        println!(
            "w_pvb sweep / {w:<4}: #EPE {:>3}, PVB {:>9.0} nm²",
            eval.epe.violations, eval.pvb_area_nm2
        );
        let _ = writeln!(
            csv,
            "w_pvb,{w},{:.3},{},{:.0},{:.3}",
            result.final_cost(),
            eval.epe.violations,
            eval.pvb_area_nm2,
            result.runtime_s
        );
    }

    // ---- 3. Eq. (17) fused-kernel approximation error ----------------------
    let kernels = sim.kernels_for(ProcessCondition::NOMINAL.defocus_nm);
    let exact = sim.aerial(&target, ProcessCondition::NOMINAL);
    let fused = fused_aerial_image(&kernels, &target);
    let (mut num, mut den, mut max_err) = (0.0f64, 0.0f64, 0.0f64);
    for (a, b) in exact.as_slice().iter().zip(fused.as_slice()) {
        num += (a - b) * (a - b);
        den += a * a;
        max_err = max_err.max((a - b).abs());
    }
    let rel = (num / den).sqrt();
    println!(
        "fused kernel (Eq. 17): relative L2 error {rel:.4}, max abs error {max_err:.4} \
         — the fusion is a coherent approximation, not an identity (DESIGN.md §7)"
    );
    let _ = writeln!(csv, "fused_kernel,rel_l2,{rel:.6},0,0,0");
    let _ = writeln!(csv, "fused_kernel,max_abs,{max_err:.6},0,0,0");

    // ---- 4. Mask complexity: level-set vs pixel ILT -----------------------
    {
        let ls = LevelSetIlt::builder()
            .max_iterations(cfg.levelset_iterations)
            .build()
            .optimize(&sim, &target)
            .expect("well-formed target");
        let px = PixelIlt::new(PixelIltMode::Exact)
            .with_iterations(cfg.levelset_iterations)
            .optimize(&sim, &target)
            .expect("well-formed target");
        let c_ls = MaskComplexity::measure(&ls.mask);
        let c_px = MaskComplexity::measure(&px.mask);
        println!(
            "mask complexity: level-set {} fragments / jaggedness {:.2}; \
             pixel-ilt {} fragments / jaggedness {:.2} \
             (paper §I: level-set suppresses irregularity)",
            c_ls.fragments, c_ls.jaggedness, c_px.fragments, c_px.jaggedness
        );
        let _ = writeln!(
            csv,
            "complexity,levelset,{:.3},{},0,0",
            c_ls.jaggedness, c_ls.fragments
        );
        let _ = writeln!(
            csv,
            "complexity,pixel_ilt,{:.3},{},0,0",
            c_px.jaggedness, c_px.fragments
        );
    }

    std::fs::write("results/ablation.csv", csv).ok();
    eprintln!("wrote results/ablation.csv");
}
