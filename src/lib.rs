//! `lsopc` — level-set inverse lithography mask optimization.
//!
//! This is the umbrella crate of the workspace reproducing the DATE 2021
//! paper *“A GPU-enabled Level Set Method for Mask Optimization”* (Yu, Chen,
//! Ma, Yu). It re-exports the public API of every member crate so that a
//! downstream user can depend on `lsopc` alone.
//!
//! # Quick start
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use lsopc::prelude::*;
//!
//! // A small target layout: one 80nm x 200nm wire in a 512nm field.
//! let mut layout = Layout::new();
//! layout.push(Rect::new(216, 156, 296, 356).into());
//!
//! // Build the optical model and simulator at 4 nm/px.
//! let optics = OpticsConfig::iccad2013();
//! let sim = LithoSimulator::from_optics(&optics, 128, 4.0)?;
//!
//! // Run the level-set ILT optimizer.
//! let target = rasterize(&layout, 128, 128, 4.0);
//! let result = LevelSetIlt::builder()
//!     .max_iterations(20)
//!     .build()
//!     .optimize(&sim, &target)?;
//! println!("final cost: {}", result.history.last().expect("iterations").cost_total);
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

/// The README's Rust examples, compiled (not run) by `cargo test --doc`
/// so an API the README shows cannot disappear unnoticed.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use lsopc_baselines as baselines;
pub use lsopc_benchsuite as benchsuite;
pub use lsopc_core as core;
pub use lsopc_engine as engine;
pub use lsopc_fft as fft;
pub use lsopc_geometry as geometry;
pub use lsopc_grid as grid;
pub use lsopc_levelset as levelset;
pub use lsopc_litho as litho;
pub use lsopc_metrics as metrics;
pub use lsopc_optics as optics;
pub use lsopc_trace as trace;

/// Convenient glob-import of the most common types.
pub mod prelude {
    pub use lsopc_baselines::{MaskOptimizer, PixelIlt, PvOpc, RobustOpc};
    pub use lsopc_benchsuite::Iccad2013Suite;
    pub use lsopc_core::{IltResult, IterationRecord, LevelSetIlt};
    pub use lsopc_geometry::{rasterize, Layout, Polygon, Rect};
    pub use lsopc_grid::{Grid, C64};
    pub use lsopc_litho::{LithoSimulator, ProcessCondition, ResistModel};
    pub use lsopc_metrics::{ContestScore, EpeChecker, PvBand};
    pub use lsopc_optics::OpticsConfig;
}
