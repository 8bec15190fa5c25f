//! Level-set toolkit: signed distance transforms, upwind gradients,
//! contour evolution and reinitialization.
//!
//! The paper reformulates mask optimization as contour evolution: the mask
//! boundary is the zero level of a function `ψ(x, y)` that is negative
//! inside the mask and positive outside (paper Eq. (5)), evolved by
//! `ψ ← ψ + v·Δt` with a CFL-limited time step. This crate supplies those
//! primitives:
//!
//! * [`signed_distance`] — exact Euclidean signed distance from a binary
//!   mask (Felzenszwalb–Huttenlocher parabolic envelope, O(n) per row);
//! * [`godunov_gradient`] — the upwind |∇ψ| scheme; [`godunov_velocity`]
//!   writes the speed `G·|∇ψ|` over `G` in one sweep;
//! * [`evolve`] / [`cfl_time_step`] — the evolution update and the paper's
//!   `Δt = λ_t / max|v|` step rule, from one [`SpeedScan`] of the speed;
//! * [`reinitialize`] — restore the signed-distance property, preserving
//!   the zero contour;
//! * [`upsample_levelset`] — carry ψ from a coarse grid to a finer one.
//!
//! # Example
//!
//! ```
//! use lsopc_grid::Grid;
//! use lsopc_levelset::{signed_distance, mask_from_levelset};
//!
//! // A square mask.
//! let mask = Grid::from_fn(16, 16, |x, y| {
//!     if (4..12).contains(&x) && (4..12).contains(&y) { 1.0 } else { 0.0 }
//! });
//! let psi = signed_distance(&mask);
//! assert!(psi[(8, 8)] < 0.0);  // inside is negative
//! assert!(psi[(0, 0)] > 0.0);  // outside is positive
//! // Thresholding the level-set recovers the mask.
//! assert_eq!(mask_from_levelset(&psi), mask);
//! ```

#![warn(missing_docs)]

mod evolve;
mod gradient;
mod resample;
mod sdf;

pub use evolve::{cfl_time_step, evolve, reinitialize, SpeedScan};
pub use gradient::{godunov_gradient, godunov_velocity};
pub use resample::upsample_levelset;
pub use sdf::{mask_from_levelset, mask_from_levelset_into, signed_distance};
