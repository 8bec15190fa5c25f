//! Dense 2-D grid and complex-number substrate for lithography simulation.
//!
//! Every field manipulated by the `lsopc` workspace — binary masks, aerial
//! images, level-set functions, kernel spectra — is stored in a [`Grid`],
//! a row-major dense 2-D array. Complex-valued fields use the crate's own
//! [`Complex`] type (no external numerics dependency), generic over the
//! floating-point [`Scalar`] trait so that both `f64` (reference path) and
//! `f32` (accelerated path) are supported.
//!
//! # Example
//!
//! ```
//! use lsopc_grid::{Grid, Complex};
//!
//! // A 4x4 real grid filled from a function of the pixel coordinates.
//! let g = Grid::from_fn(4, 4, |x, y| (x + y) as f64);
//! assert_eq!(g[(3, 3)], 6.0);
//!
//! // Complex arithmetic.
//! let z = Complex::new(1.0, 2.0) * Complex::new(3.0, -1.0);
//! assert_eq!(z, Complex::new(5.0, 5.0));
//! ```

#![warn(missing_docs)]

mod complex;
mod grid;
mod io;
mod scalar;
mod stats;

pub use complex::Complex;
pub use grid::Grid;
pub use io::{write_csv, write_pgm, GridIoError};
pub use scalar::Scalar;
pub use stats::{dot, l2_norm_sq, max_abs};

/// Complex number specialised to `f64`, the workspace's reference precision.
pub type C64 = Complex<f64>;
