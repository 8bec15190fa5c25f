//! Regenerates the paper's figures:
//!
//! * **Fig. 1(a)** — EPE measurement: probe displacements along target
//!   edges (`results/fig1a_epe_probes.csv`);
//! * **Fig. 1(b)** — PV band: the XOR region between the outer and inner
//!   printed contours (`results/fig1b_pvband.pgm`);
//! * **Fig. 2** — level-set boundary evolution: mask snapshots at the
//!   initial and later iterations (`results/fig2_iterN.pgm` +
//!   `results/fig2_contours.csv`);
//! * convergence curves (CG vs plain gradient), beyond the paper's
//!   figures but matching its Section III-C claim
//!   (`results/convergence.csv`).
//!
//! ```text
//! cargo run -p lsopc-bench --release --bin figures [--grid 512] [--cases 1]
//! ```

use lsopc_bench::runner::init_from_args;
use lsopc_bench::Method;
use lsopc_benchsuite::Iccad2013Suite;
use lsopc_core::LevelSetIlt;
use lsopc_geometry::{extract_contours, rasterize};
use lsopc_grid::write_pgm;
use lsopc_metrics::{evaluate_mask, EpeChecker};
use std::fmt::Write as _;

fn main() {
    let mut cfg = init_from_args();
    if cfg.case_filter.is_empty() {
        cfg.case_filter = vec![0]; // B1 by default
    }
    std::fs::create_dir_all("results").ok();

    let suite = Iccad2013Suite::new();
    let case = cfg.cases().into_iter().next().expect("case selected");
    let layout = suite.layout(&case);
    let sim = cfg.simulator(Method::LevelSetGpu);
    let target = rasterize(&layout, cfg.grid_px, cfg.grid_px, cfg.pixel_nm());

    eprintln!(
        "figures: case {}, grid {} px, K = {}",
        case.name, cfg.grid_px, cfg.kernel_count
    );

    // ---- Fig. 2: evolution snapshots -----------------------------------
    let snap_every = (cfg.levelset_iterations / 4).max(1);
    let result = LevelSetIlt::builder()
        .max_iterations(cfg.levelset_iterations)
        .snapshot_interval(snap_every)
        .build()
        .optimize(&sim, &target)
        .expect("suite targets are well-formed");
    let mut contour_csv = String::from("iteration,contour_id,x_px,y_px\n");
    for (iter, mask) in &result.snapshots {
        let path = format!("results/fig2_iter{iter}.pgm");
        if let Err(e) = write_pgm(mask, &path) {
            eprintln!("warning: {e}");
        }
        for (cid, contour) in extract_contours(mask, 0.5).iter().enumerate() {
            for p in &contour.points {
                let _ = writeln!(contour_csv, "{iter},{cid},{:.2},{:.2}", p.x, p.y);
            }
        }
    }
    std::fs::write("results/fig2_contours.csv", contour_csv).ok();
    eprintln!(
        "fig2: {} snapshots written (iterations {:?})",
        result.snapshots.len(),
        result.snapshots.iter().map(|(i, _)| *i).collect::<Vec<_>>()
    );

    // ---- Fig. 1(a): EPE probes ------------------------------------------
    let eval = evaluate_mask(&sim, &result.mask, &layout, &target);
    let checker = EpeChecker::iccad2013();
    let report = checker.check(&layout, &eval.printed_nominal, cfg.pixel_nm());
    let mut epe_csv = String::from("x_nm,y_nm,axis,displacement_nm,violation\n");
    for m in &report.measurements {
        let _ = writeln!(
            epe_csv,
            "{:.1},{:.1},{:?},{},{}",
            m.site.pos.x,
            m.site.pos.y,
            m.site.axis,
            m.displacement_nm
                .map_or("none".to_string(), |d| format!("{d:.2}")),
            m.violation
        );
    }
    std::fs::write("results/fig1a_epe_probes.csv", epe_csv).ok();
    eprintln!(
        "fig1a: {} probes, {} violations",
        report.total_probes, report.violations
    );

    // ---- Fig. 1(b): PV band map ------------------------------------------
    if let Err(e) = write_pgm(&eval.pvb_map, "results/fig1b_pvband.pgm") {
        eprintln!("warning: {e}");
    }
    eprintln!("fig1b: PVB = {:.0} nm²", eval.pvb_area_nm2);

    // ---- Convergence curves: CG vs plain gradient -------------------------
    let mut conv_csv = String::from("iteration,cg_cost,plain_cost\n");
    let cg = result; // reuse the CG run above
    let plain = LevelSetIlt::builder()
        .max_iterations(cfg.levelset_iterations)
        .conjugate_gradient(false)
        .build()
        .optimize(&sim, &target)
        .expect("suite targets are well-formed");
    for i in 0..cg.history.len().max(plain.history.len()) {
        let a = cg
            .history
            .get(i)
            .map_or(String::new(), |r| format!("{:.4}", r.cost_total));
        let b = plain
            .history
            .get(i)
            .map_or(String::new(), |r| format!("{:.4}", r.cost_total));
        let _ = writeln!(conv_csv, "{i},{a},{b}");
    }
    std::fs::write("results/convergence.csv", conv_csv).ok();
    let final_cg = cg.history.last().map_or(f64::NAN, |r| r.cost_total);
    let final_plain = plain.history.last().map_or(f64::NAN, |r| r.cost_total);
    eprintln!(
        "convergence: final cost CG {final_cg:.2} vs plain {final_plain:.2} \
         (paper claims CG improves convergence)"
    );

    println!("figures written to results/ (fig1a, fig1b, fig2_*, convergence.csv)");
}
