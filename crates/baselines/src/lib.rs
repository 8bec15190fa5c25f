//! Pixel-based OPC baselines for the paper's Table I / Table II
//! comparisons.
//!
//! The paper compares its level-set method against four process
//! window-aware pixel-based ILT algorithms. Their original binaries are
//! not available, so this crate re-implements *representative* versions of
//! each on top of the shared [`lsopc_litho`] simulator (see DESIGN.md §2):
//!
//! * [`PixelIlt`] in [`PixelIltMode::Fast`] — MOSAIC_fast-style: steepest
//!   descent on a sigmoid-parameterized pixel mask, simulating the
//!   process-window corners only every few iterations;
//! * [`PixelIlt`] in [`PixelIltMode::Exact`] — MOSAIC_exact-style: the
//!   full three-corner gradient every iteration, with more iterations;
//! * [`RobustOpc`] — Kuang et al. (DATE'15)-style: simulates only the two
//!   extreme corners per iteration and *estimates* the nominal response as
//!   their average, trading accuracy for runtime;
//! * [`PvOpc`] — Su et al. (TCAD'16)-style: the PV-aware cost with
//!   heavy-ball momentum for faster convergence.
//!
//! All baselines implement the [`MaskOptimizer`] trait, as does the
//! level-set method through an adapter in the benchmark harness, so the
//! Table I/II generators can treat every method uniformly.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use lsopc_baselines::{MaskOptimizer, PixelIlt, PixelIltMode};
//! use lsopc_grid::Grid;
//! use lsopc_litho::LithoSimulator;
//! use lsopc_optics::OpticsConfig;
//!
//! let sim = LithoSimulator::from_optics(
//!     &OpticsConfig::iccad2013().with_kernel_count(4),
//!     64,
//!     4.0,
//! )?;
//! let target = Grid::from_fn(64, 64, |x, y| {
//!     if (24..40).contains(&x) && (12..52).contains(&y) { 1.0 } else { 0.0 }
//! });
//! let result = PixelIlt::new(PixelIltMode::Fast)
//!     .with_iterations(8)
//!     .optimize(&sim, &target)?;
//! assert!(result.mask.sum() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod engine;
mod pixel_ilt;
mod pvopc;
mod robust;

pub use engine::{BaselineError, BaselineResult, MaskOptimizer};
pub use pixel_ilt::{PixelIlt, PixelIltMode};
pub use pvopc::PvOpc;
pub use robust::RobustOpc;
