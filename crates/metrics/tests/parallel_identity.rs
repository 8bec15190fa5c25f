//! Parallel == serial bit-identity for the process-corner prints that
//! the PV band is measured on.

use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;
use lsopc_parallel::ParallelContext;

fn sim() -> LithoSimulator {
    LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(6), 64, 4.0)
        .expect("valid configuration")
}

fn wire_mask() -> Grid<f64> {
    Grid::from_fn(64, 64, |x, y| {
        if (26..38).contains(&x) && (12..52).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

/// `print_corners` (used by `evaluate_mask`) is likewise invariant.
#[test]
fn print_corners_are_thread_count_invariant() {
    let sim = sim();
    let mask = wire_mask();
    let reference = sim.print_corners_with(&ParallelContext::new(1), &mask);
    for threads in [2usize, 3, 8] {
        let got = sim.print_corners_with(&ParallelContext::new(threads), &mask);
        assert_eq!(got.nominal, reference.nominal);
        assert_eq!(got.inner, reference.inner);
        assert_eq!(got.outer, reference.outer);
    }
}
