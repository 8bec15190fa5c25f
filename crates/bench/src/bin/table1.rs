//! Regenerates the paper's **Table I**: #EPE / PVB / Score comparison of
//! MOSAIC_fast, MOSAIC_exact, robust OPC, PVOPC and the level-set method
//! on the B1–B10 suite.
//!
//! ```text
//! cargo run -p lsopc-bench --release --bin table1 [--grid 512] [--cases 1,2,...] [--kernels 24]
//! ```
//!
//! Prints the measured table, the paper's reference numbers, and writes
//! `results/table1.csv`.

use lsopc_bench::report::{render_table1, write_csv};
use lsopc_bench::runner::init_from_args;
use lsopc_bench::{paper, run_suite, Method};

fn main() {
    let cfg = init_from_args();
    let methods = Method::table1();

    eprintln!(
        "table1: grid {} px ({} nm/px), K = {}, cases = {}",
        cfg.grid_px,
        cfg.pixel_nm(),
        cfg.kernel_count,
        if cfg.case_filter.is_empty() {
            "all".to_string()
        } else {
            format!(
                "{:?}",
                cfg.case_filter.iter().map(|i| i + 1).collect::<Vec<_>>()
            )
        }
    );

    let outcomes = run_suite(&methods, &cfg);

    println!("== Table I (measured, this reproduction) ==");
    println!("{}", render_table1(&outcomes, &methods));

    println!("== Table I (paper, for reference) ==");
    println!(
        "{:<14}{:>10}{:>12}{:>12}",
        "method", "avg #EPE", "avg PVB", "avg score"
    );
    for row in &paper::TABLE1 {
        let epe: f64 = row.cases.iter().map(|&(e, _, _)| e as f64).sum::<f64>() / 10.0;
        let pvb: f64 = row.cases.iter().map(|&(_, p, _)| p as f64).sum::<f64>() / 10.0;
        println!(
            "{:<14}{:>10.1}{:>12.0}{:>12.0}",
            row.method, epe, pvb, row.avg_score
        );
    }

    // Shape check: does the level-set method win on average score?
    let avg_score = |m: Method| {
        let scores: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.method == m)
            .map(|o| o.score)
            .collect();
        scores.iter().sum::<f64>() / scores.len().max(1) as f64
    };
    let ours = avg_score(Method::LevelSetGpu);
    println!("\n== shape check ==");
    for m in [
        Method::MosaicFast,
        Method::MosaicExact,
        Method::RobustOpc,
        Method::PvOpc,
    ] {
        let s = avg_score(m);
        println!(
            "levelset vs {:<13} avg score ratio {:.3} ({})",
            m.label(),
            ours / s,
            if ours <= s { "ours wins" } else { "ours loses" }
        );
    }

    std::fs::create_dir_all("results").ok();
    if let Err(e) = write_csv(&outcomes, "results/table1.csv") {
        eprintln!("warning: could not write results/table1.csv: {e}");
    } else {
        eprintln!("wrote results/table1.csv");
    }
}
