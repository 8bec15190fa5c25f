//! Partially coherent optical model for lithography simulation.
//!
//! The ICCAD 2013 contest ships 24 precomputed optical kernels (the SOCS
//! decomposition of its 193 nm annular-illumination system). This crate
//! *generates* equivalent kernels from first principles:
//!
//! * [`SourceModel`] — the annular illumination shape, discretized into
//!   weighted source points;
//! * [`Pupil`] — the projection-lens pupil with (non-paraxial) defocus;
//! * [`KernelSet`] — band-limited kernel spectra `ĥ_k` with weights `μ_k`,
//!   the inputs of the Hopkins sum `I = Σ μ_k |h_k ⊗ M|²` (paper Eq. (1));
//! * two generation paths:
//!   [`OpticsConfig::kernels`] (Abbe source-point discretization, exact for
//!   the discretized source: the kernels every simulation uses) and
//!   [`OpticsConfig::kernels_tcc`] (Hopkins TCC matrix + Hermitian
//!   eigendecomposition, the classical SOCS construction: the oracle the
//!   tests check the Abbe kernels against);
//! * [`eig`] — from-scratch dense Hermitian eigensolvers (cyclic Jacobi and
//!   orthogonal iteration) used by the TCC path.
//!
//! # Example
//!
//! ```
//! use lsopc_optics::OpticsConfig;
//!
//! // A small test-scale optical system.
//! let optics = OpticsConfig::iccad2013().with_field_nm(256.0).with_kernel_count(8);
//! let kernels = optics.kernels(0.0);
//! assert_eq!(kernels.len(), 8);
//! // Weights are normalized so that a fully clear mask prints intensity 1.
//! let clear: f64 = (0..kernels.len())
//!     .map(|k| kernels.weight(k) * kernels.spectrum(k)[(kernels.center(), kernels.center())].norm_sqr())
//!     .sum();
//! assert!((clear - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod eig;

mod condition;
mod config;
mod kernels;
mod matrix;
mod pupil;
mod source;
mod tcc;

pub use condition::{ProcessCondition, ProcessCorners};
pub use config::OpticsConfig;
pub use kernels::KernelSet;
pub use matrix::CMatrix;
pub use pupil::Pupil;
pub use source::{SourceModel, SourcePoint};
