//! Rectilinear layout geometry for mask optimization.
//!
//! The ICCAD 2013 benchmarks are rectilinear metal-layer layouts given in a
//! textual `.glp` format. This crate supplies everything the optimizer and
//! the metric suite need to work with such layouts:
//!
//! * [`Rect`], [`Polygon`], [`Shape`], [`Layout`] — integer-nanometre
//!   rectilinear geometry;
//! * [`glp`] — parse/write the contest-style `.glp` text format;
//! * [`gds`] — minimal GDSII stream reader/writer (BOUNDARY subset);
//! * [`rasterize`] — layout → binary pixel grid at a chosen resolution;
//! * [`contour`] — marching-squares iso-contour extraction;
//! * [`components`] — connected-component labelling of binary grids;
//! * [`probes`] — EPE probe-site generation along target edges;
//! * [`mask_to_polygons`] — vectorize an optimized mask back into exact
//!   rectilinear polygons for `.glp` export.
//!
//! # Example
//!
//! ```
//! use lsopc_geometry::{Layout, Rect, rasterize};
//!
//! let mut layout = Layout::new();
//! layout.push(Rect::new(8, 8, 24, 16).into()); // 16nm x 8nm wire
//! let grid = rasterize(&layout, 32, 32, 1.0);
//! assert_eq!(grid[(10, 10)], 1.0);
//! assert_eq!(grid[(0, 0)], 0.0);
//! assert_eq!(grid.sum() as i64, 16 * 8);
//! ```

#![warn(missing_docs)]

/// Largest coordinate magnitude (nm) the parsers accept: ±2³⁰ nm ≈ ±1.07 m,
/// far beyond any reticle. Bounding parsed coordinates here keeps every
/// downstream integer computation (rect sizes, shoelace areas, bounding
/// boxes) inside `i64`/`i128` range, so adversarial inputs cannot trigger
/// arithmetic overflow.
pub const MAX_COORD: i64 = 1 << 30;

pub mod components;
pub mod contour;
pub mod gds;
pub mod glp;
pub mod probes;

mod layout;
mod point;
mod polygon;
mod raster;
mod rect;
mod vectorize;

pub use components::{label_components, Component};
pub use contour::{extract_contours, Contour};
pub use gds::{parse_gds, write_gds, ParseGdsError};
pub use glp::{parse_glp, write_glp, ParseGlpError};
pub use layout::{Layout, Shape};
pub use point::{FPoint, Point};
pub use polygon::{Polygon, PolygonError};
pub use probes::{probe_sites, Axis, ProbeSite};
pub use raster::rasterize;
pub use rect::Rect;
pub use vectorize::{mask_to_polygons, polygons_to_layout};
