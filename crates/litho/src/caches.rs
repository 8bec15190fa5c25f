//! Injectable cache handles for the simulation backends.
//!
//! Every FFT-based backend needs two long-lived caches: the FFT plan
//! cache ([`lsopc_fft::PlanCache`]) and the embedded-spectrum cache
//! ([`SpectrumCache`]). Historically both were process globals; that is
//! still the default, but multi-job hosts (the `lsopc-engine` crate)
//! want *explicit* handles so a set of jobs can share one cache pool —
//! amortizing plans and spectra across submissions — while staying
//! isolated from unrelated work in the same process.
//!
//! [`SimCaches`] bundles the two handles. `None` means "use the process
//! global", so a default-constructed value reproduces the historical
//! behavior exactly and costs nothing extra on the hot path (one branch
//! per lookup, then the same cache code either way).

use std::sync::Arc;

use crate::spectra::{EmbeddedSpectra, SpectrumCache};
use lsopc_fft::{Fft2d, PlanCache, RfftPlan};
use lsopc_grid::Scalar;
use lsopc_optics::KernelSet;

/// Shared cache handles injected into a [`crate::LithoSimulator`] and its
/// backend. Cloning shares the underlying caches (handles are `Arc`s).
#[derive(Debug, Default, Clone)]
pub struct SimCaches {
    /// `None` → [`PlanCache::global`].
    plans: Option<Arc<PlanCache>>,
    /// `None` → [`SpectrumCache::global`].
    spectra: Option<Arc<SpectrumCache>>,
}

impl SimCaches {
    /// A fresh, private cache pool independent of the process globals.
    /// Simulators built from clones of the returned value share it.
    pub fn private() -> Self {
        Self {
            plans: Some(Arc::new(PlanCache::new())),
            spectra: Some(Arc::new(SpectrumCache::new())),
        }
    }

    /// Builds a bundle from explicit cache handles.
    pub fn with_handles(plans: Arc<PlanCache>, spectra: Arc<SpectrumCache>) -> Self {
        Self {
            plans: Some(plans),
            spectra: Some(spectra),
        }
    }

    /// The FFT plan for a `width x height` grid at precision `T`, from
    /// the injected plan cache or the process-global one.
    pub fn plan_t<T: Scalar>(&self, width: usize, height: usize) -> Arc<Fft2d<T>> {
        match &self.plans {
            Some(cache) => cache.plan_t::<T>(width, height),
            None => lsopc_fft::plan_t::<T>(width, height),
        }
    }

    /// The real-input FFT plan for a `width x height` grid at precision
    /// `T`, from the injected plan cache or the process-global one.
    pub fn rplan_t<T: Scalar>(&self, width: usize, height: usize) -> Arc<RfftPlan<T>> {
        match &self.plans {
            Some(cache) => cache.rplan_t::<T>(width, height),
            None => lsopc_fft::rplan_t::<T>(width, height),
        }
    }

    /// The embedded spectra of `kernels` on a `width x height` grid, from
    /// the injected spectrum cache or the process-global one.
    pub(crate) fn embedded<T: Scalar>(
        &self,
        kernels: &KernelSet<T>,
        width: usize,
        height: usize,
    ) -> Arc<EmbeddedSpectra<T>> {
        match &self.spectra {
            Some(cache) => cache.embedded(kernels, width, height),
            None => SpectrumCache::global().embedded(kernels, width, height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    #[test]
    fn default_handles_resolve_to_globals() {
        let caches = SimCaches::default();
        let a = caches.plan_t::<f64>(16, 16);
        let b = lsopc_fft::plan_t::<f64>(16, 16);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn private_handles_are_isolated_but_clones_share() {
        let caches = SimCaches::private();
        let global = lsopc_fft::plan_t::<f64>(32, 32);
        let private = caches.plan_t::<f64>(32, 32);
        assert!(!Arc::ptr_eq(&global, &private));
        // A clone of the bundle resolves to the same cache entries.
        let again = caches.clone().plan_t::<f64>(32, 32);
        assert!(Arc::ptr_eq(&private, &again));
        // Spectrum cache likewise.
        let kernels = OpticsConfig::iccad2013()
            .with_field_nm(128.0)
            .with_kernel_count(2)
            .kernels(0.0);
        let s1 = caches.embedded(&kernels, 16, 16);
        let s2 = caches.clone().embedded(&kernels, 16, 16);
        assert!(Arc::ptr_eq(&s1, &s2));
        let sg = SpectrumCache::global().embedded(&kernels, 16, 16);
        assert!(!Arc::ptr_eq(&s1, &sg));
    }
}
