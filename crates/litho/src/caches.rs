//! The FFT plan cache a simulator owns and shares with its backend.
//!
//! Every FFT-based backend transforms the same few grid sizes on every
//! pass, so it looks its plans up in a [`PlanCache`] instead of building
//! them. [`SimCaches`] is the handle to that cache: each
//! [`crate::LithoSimulator`] owns one and hands it to its backend, and a
//! multi-job host (the `lsopc-engine` crate) gives one clone to every
//! simulator it builds so its jobs share plans. There is no process-wide
//! cache; a default-constructed handle is a fresh one.

use std::sync::Arc;

use lsopc_fft::{Fft2d, PlanCache, RfftPlan};
use lsopc_grid::Scalar;

/// Shared cache handle injected into a [`crate::LithoSimulator`] and its
/// backend. Cloning shares the underlying cache (the handle is an
/// `Arc`); [`Default`] and [`Self::private`] make a fresh one.
#[derive(Debug, Default, Clone)]
pub struct SimCaches {
    plans: Arc<PlanCache>,
}

impl SimCaches {
    /// A fresh, empty cache. Simulators built from clones of the
    /// returned value share it. The same as [`Default::default`].
    pub fn private() -> Self {
        Self::default()
    }

    /// The FFT plan for a `width x height` grid at precision `T`.
    pub fn plan_t<T: Scalar>(&self, width: usize, height: usize) -> Arc<Fft2d<T>> {
        self.plans.plan_t::<T>(width, height)
    }

    /// The real-input FFT plan for a `width x height` grid at precision
    /// `T`.
    pub fn rplan_t<T: Scalar>(&self, width: usize, height: usize) -> Arc<RfftPlan<T>> {
        self.plans.rplan_t::<T>(width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_cache() {
        let caches = SimCaches::private();
        let again = caches.clone();
        assert!(Arc::ptr_eq(
            &caches.plan_t::<f64>(32, 32),
            &again.plan_t::<f64>(32, 32)
        ));
        assert!(Arc::ptr_eq(
            &caches.rplan_t::<f32>(32, 32),
            &again.rplan_t::<f32>(32, 32)
        ));
    }

    #[test]
    fn fresh_bundles_do_not_share() {
        let (a, b) = (SimCaches::default(), SimCaches::private());
        assert!(!Arc::ptr_eq(
            &a.plan_t::<f64>(16, 16),
            &b.plan_t::<f64>(16, 16)
        ));
        assert!(!Arc::ptr_eq(
            &a.rplan_t::<f64>(16, 16),
            &b.rplan_t::<f64>(16, 16)
        ));
    }
}
