//! From-scratch power-of-two FFT used for convolution in lithography
//! simulation.
//!
//! The paper accelerates the Hopkins-model convolutions with FFTs
//! (Section III-E); this crate provides that substrate without external
//! dependencies:
//!
//! * [`FftPlan`] — an iterative radix-2 decimation-in-time 1-D transform
//!   with precomputed twiddle factors and bit-reversal tables;
//! * [`Fft2d`] — row-column 2-D transforms over [`lsopc_grid::Grid`],
//!   including band-limited variants ([`Fft2d::inverse_band`],
//!   [`Fft2d::forward_band`]) that skip zero spectrum columns, plus
//!   batched multi-grid variants ([`Fft2d::inverse_band_batch`],
//!   [`Fft2d::forward_band_batch`]) that share one strided column pass
//!   across several band-limited spectra;
//! * [`RfftPlan`]/[`HalfSpectrum`] — a true real-input 2-D transform that
//!   stores only the non-redundant `(w/2 + 1) × h` Hermitian half and
//!   reconstructs real output directly; the simulation backends run every
//!   full-size real transform through it;
//! * [`PlanCache`]/[`plan`] — a process-wide cache handing out shared
//!   `Arc<Fft2d>` plans so hot paths never rebuild twiddle tables;
//! * [`naive_dft`]/[`naive_dft2d`] — O(n²) reference transforms used by the
//!   test-suite to pin correctness;
//! * [`upsample_spectral`] and the index helpers [`wrap_index`] and
//!   [`cyclic_shift`].
//!
//! All transforms are generic over [`lsopc_grid::Scalar`] (`f32`/`f64`).
//!
//! # Conventions
//!
//! The forward transform is unnormalized, `X[k] = Σ x[n]·exp(-2πi kn/N)`;
//! the inverse divides by `N` so that `inverse(forward(x)) == x`.
//!
//! # Example
//!
//! ```
//! use lsopc_fft::FftPlan;
//! use lsopc_grid::C64;
//!
//! let plan = FftPlan::<f64>::new(8);
//! let mut data: Vec<C64> = (0..8).map(|i| C64::new(i as f64, 0.0)).collect();
//! let original = data.clone();
//! plan.forward(&mut data);
//! plan.inverse(&mut data);
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((*a - *b).norm() < 1e-12);
//! }
//! ```

#![warn(missing_docs)]

mod cache;
mod fft2d;
mod plan;
mod reference;
mod resample;
mod rfft;
mod shift;

pub use cache::{plan, plan_t, rplan, rplan_t, PlanCache};
pub use fft2d::Fft2d;
pub use plan::FftPlan;
pub use reference::{naive_dft, naive_dft2d};
pub use resample::upsample_spectral;
pub use rfft::{HalfSpectrum, RfftPlan};
pub use shift::{cyclic_shift, wrap_index};
