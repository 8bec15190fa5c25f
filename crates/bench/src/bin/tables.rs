//! Runs the full benchmark suite once (all six methods) and regenerates
//! **both** Table I and Table II from the same measurements — the
//! recommended way to reproduce the paper's evaluation in one sitting.
//!
//! ```text
//! cargo run -p lsopc-bench --release --bin tables [--grid 256] [--cases 1,2]
//! ```
//!
//! Writes `results/table1.csv` and `results/table2.csv`.

use lsopc_bench::report::{render_table1, render_table2, write_csv};
use lsopc_bench::runner::init_from_args;
use lsopc_bench::{paper, run_suite, Method};

fn main() {
    let cfg = init_from_args();
    let methods = Method::all();
    eprintln!(
        "tables: grid {} px ({} nm/px), K = {}, levelset N = {}",
        cfg.grid_px,
        cfg.pixel_nm(),
        cfg.kernel_count,
        cfg.levelset_iterations
    );

    let outcomes = run_suite(&methods, &cfg);
    let table1_methods = Method::table1();

    println!("== Table I (measured; quality) ==");
    println!("{}", render_table1(&outcomes, &table1_methods));
    println!("== Table II (measured; runtime, seconds) ==");
    println!("{}", render_table2(&outcomes, &methods));

    // Shape checks against the paper's claims.
    let avg = |m: Method, f: &dyn Fn(&lsopc_bench::CaseOutcome) -> f64| {
        let xs: Vec<f64> = outcomes.iter().filter(|o| o.method == m).map(f).collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let score = |m: Method| avg(m, &|o| o.score);
    let rt = |m: Method| avg(m, &|o| o.runtime_s);
    println!("== shape checks ==");
    let ours = score(Method::LevelSetGpu);
    for m in [
        Method::MosaicFast,
        Method::MosaicExact,
        Method::RobustOpc,
        Method::PvOpc,
    ] {
        println!(
            "score: levelset vs {:<13} ratio {:.3} ({})",
            m.label(),
            ours / score(m),
            if ours <= score(m) {
                "ours wins"
            } else {
                "ours loses"
            }
        );
    }
    let (cpu, gpu, exact) = (
        rt(Method::LevelSetCpu),
        rt(Method::LevelSetGpu),
        rt(Method::MosaicExact),
    );
    println!(
        "runtime: accelerated vs cpu reduction {:.1}% (paper 71%)",
        100.0 * (1.0 - gpu / cpu)
    );
    println!(
        "runtime: cpu vs mosaic-exact speedup {:.2}x (paper 4.94x)",
        exact / cpu
    );
    println!(
        "runtime: accelerated fastest overall: {}",
        Method::all()
            .into_iter()
            .filter(|m| *m != Method::LevelSetGpu)
            .all(|m| gpu <= rt(m))
    );
    println!(
        "paper reference averages: scores {:?}, runtimes {:?}",
        paper::TABLE1
            .iter()
            .map(|r| r.avg_score)
            .collect::<Vec<_>>(),
        paper::TABLE2_AVG
    );

    std::fs::create_dir_all("results").ok();
    write_csv(&outcomes, "results/table1.csv").ok();
    write_csv(&outcomes, "results/table2.csv").ok();
    eprintln!("wrote results/table1.csv and results/table2.csv");
}
