//! Regenerates the paper's **Table II**: runtime comparison, including the
//! level-set method's CPU (per-kernel FFT) vs "GPU" (accelerated batched)
//! backends.
//!
//! ```text
//! cargo run -p lsopc-bench --release --bin table2 [--grid 512] [--cases 1,2] [--threads 1]
//! ```
//!
//! Prints the measured runtimes, the paper's reference runtimes, the
//! CPU→GPU reduction, and writes `results/table2.csv`.

use lsopc_bench::report::{render_table2, write_csv};
use lsopc_bench::runner::init_from_args;
use lsopc_bench::{paper, run_suite, Method};

fn main() {
    let cfg = init_from_args();
    let methods = Method::all();

    eprintln!(
        "table2: grid {} px ({} nm/px), K = {}, threads = {}",
        cfg.grid_px,
        cfg.pixel_nm(),
        cfg.kernel_count,
        cfg.threads
    );

    let outcomes = run_suite(&methods, &cfg);

    println!("== Table II (measured, this reproduction; seconds) ==");
    println!("{}", render_table2(&outcomes, &methods));

    println!("== Table II (paper; seconds) ==");
    print!("{:<6}", "case");
    for m in paper::TABLE2_METHODS {
        print!("{m:>14}");
    }
    println!();
    for (i, row) in paper::TABLE2.iter().enumerate() {
        print!("B{:<5}", i + 1);
        for v in row {
            print!("{v:>14.1}");
        }
        println!();
    }
    print!("{:<6}", "avg");
    for v in paper::TABLE2_AVG {
        print!("{v:>14.1}");
    }
    println!();

    // Shape checks the paper reports: GPU ≈ 71 % faster than CPU;
    // ≈ 4.9x vs MOSAIC_exact.
    let avg = |m: Method| {
        let xs: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.method == m)
            .map(|o| o.runtime_s)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let cpu = avg(Method::LevelSetCpu);
    let gpu = avg(Method::LevelSetGpu);
    let exact = avg(Method::MosaicExact);
    println!("\n== shape check ==");
    println!(
        "levelset accelerated vs cpu: {:.1}% runtime reduction (paper: 71%)",
        100.0 * (1.0 - gpu / cpu)
    );
    println!(
        "levelset cpu vs mosaic-exact: {:.2}x speedup (paper: 4.94x)",
        exact / cpu
    );
    println!(
        "levelset accelerated is fastest: {}",
        Method::all()
            .into_iter()
            .filter(|m| *m != Method::LevelSetGpu)
            .all(|m| gpu <= avg(m))
    );

    std::fs::create_dir_all("results").ok();
    if let Err(e) = write_csv(&outcomes, "results/table2.csv") {
        eprintln!("warning: could not write results/table2.csv: {e}");
    } else {
        eprintln!("wrote results/table2.csv");
    }
}
