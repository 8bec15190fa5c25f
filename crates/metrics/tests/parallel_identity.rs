//! Parallel == serial bit-identity for the process-corner prints that
//! the PV band is measured on.

use lsopc_grid::Grid;
use lsopc_litho::{AcceleratedBackend, FftBackend, LithoSimulator, SimBackend};
use lsopc_optics::OpticsConfig;
use lsopc_parallel::ParallelContext;

fn sim(backend: Box<dyn SimBackend>) -> LithoSimulator {
    LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(6), 64, 4.0)
        .expect("valid configuration")
        .with_backend(backend)
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

/// `print_corners` (used by `evaluate_mask`) is invariant under the
/// backend's lane count, for the FFT and the accelerated backend.
#[test]
fn print_corners_are_thread_count_invariant() {
    let backends: [fn(ParallelContext) -> Box<dyn SimBackend>; 2] = [
        |ctx| Box::new(FftBackend::with_context(ctx)),
        |ctx| Box::new(AcceleratedBackend::with_context(ctx)),
    ];
    let mask = wire_mask();
    for backend in backends {
        let reference = sim(backend(ParallelContext::new(1))).print_corners(&mask);
        for threads in [2usize, 3, 8] {
            let got = sim(backend(ParallelContext::new(threads))).print_corners(&mask);
            assert_eq!(got.nominal, reference.nominal, "{threads} lanes");
            assert_eq!(got.inner, reference.inner, "{threads} lanes");
            assert_eq!(got.outer, reference.outer, "{threads} lanes");
        }
    }
}
