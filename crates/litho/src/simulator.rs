//! The forward lithography simulator facade.

use crate::{AcceleratedBackend, FftBackend, ResistModel, SimBackend, SimCaches};
use lsopc_grid::{Grid, Scalar};
use lsopc_optics::{KernelSet, OpticsConfig, ProcessCondition, ProcessCorners};
use lsopc_parallel::ParallelContext;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// Error building a [`LithoSimulator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildSimulatorError {
    /// The simulation grid must be a power of two for the FFT.
    GridNotPowerOfTwo {
        /// Offending grid size.
        grid_px: usize,
    },
    /// The grid cannot hold the optical band (increase the grid or the
    /// pixel size).
    GridTooSmall {
        /// Offending grid size.
        grid_px: usize,
        /// Required minimum (doubled kernel band).
        required: usize,
    },
    /// The pixel size must be positive.
    InvalidPixelSize,
}

impl fmt::Display for BuildSimulatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::GridNotPowerOfTwo { grid_px } => {
                write!(f, "grid size {grid_px} is not a power of two")
            }
            Self::GridTooSmall { grid_px, required } => write!(
                f,
                "grid size {grid_px} cannot hold the optical band (need at least {required})"
            ),
            Self::InvalidPixelSize => write!(f, "pixel size must be positive"),
        }
    }
}

impl Error for BuildSimulatorError {}

/// Hard-threshold prints at the three process corners.
#[derive(Clone, Debug, PartialEq)]
pub struct PrintedCorners<T: Scalar = f64> {
    /// Print at the nominal condition.
    pub nominal: Grid<T>,
    /// Innermost print (defocused, under-dosed).
    pub inner: Grid<T>,
    /// Outermost print (in focus, over-dosed).
    pub outer: Grid<T>,
}

/// Forward lithography simulator: optics + resist + backend + corners.
///
/// Kernel sets are generated lazily per defocus value and cached, so
/// repeated simulation at the three process corners only pays kernel
/// generation once per corner.
///
/// The simulator is generic over the scalar precision `T` its forward
/// and adjoint passes run at (`f64` default; select `f32` with
/// `LithoSimulator::<f32>::from_optics`). Kernel generation always runs
/// in `f64` and is cast once at construction of each cached set — see
/// [`OpticsConfig::kernels_t`](lsopc_optics::OpticsConfig::kernels_t).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use lsopc_grid::Grid;
/// use lsopc_litho::{LithoSimulator, ProcessCondition};
/// use lsopc_optics::OpticsConfig;
///
/// let sim = LithoSimulator::<f64>::from_optics(
///     &OpticsConfig::iccad2013().with_kernel_count(4),
///     64,
///     4.0,
/// )?;
/// assert_eq!(sim.grid_px(), 64);
/// assert_eq!(sim.field_nm(), 256.0);
/// let mask = Grid::new(64, 64, 1.0);
/// let aerial = sim.aerial(&mask, ProcessCondition::NOMINAL);
/// assert!((aerial[(32, 32)] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub struct LithoSimulator<T: Scalar = f64> {
    optics: OpticsConfig,
    grid_px: usize,
    pixel_nm: f64,
    resist: ResistModel,
    corners: ProcessCorners,
    backend: Box<dyn SimBackend<T>>,
    caches: SimCaches,
    kernel_cache: RwLock<HashMap<i64, Arc<KernelSet<T>>>>,
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultHook>,
}

/// An installed fault injector plus its evaluation counter.
#[cfg(feature = "fault-injection")]
#[derive(Debug)]
struct FaultHook {
    injector: Arc<dyn crate::FaultInjector>,
    calls: std::sync::atomic::AtomicUsize,
}

impl<T: Scalar> fmt::Debug for LithoSimulator<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LithoSimulator")
            .field("grid_px", &self.grid_px)
            .field("pixel_nm", &self.pixel_nm)
            .field("backend", &self.backend.name())
            .field("resist", &self.resist)
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> LithoSimulator<T> {
    /// Builds a simulator over a `grid_px x grid_px` field with square
    /// pixels of `pixel_nm`. The optics' field period is set to
    /// `grid_px · pixel_nm`. Uses the [`FftBackend`] by default.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSimulatorError`] if the grid is not a power of two,
    /// the pixel size is not positive, or the grid is too small to hold
    /// the optical band.
    pub fn from_optics(
        optics: &OpticsConfig,
        grid_px: usize,
        pixel_nm: f64,
    ) -> Result<Self, BuildSimulatorError> {
        if pixel_nm <= 0.0 {
            return Err(BuildSimulatorError::InvalidPixelSize);
        }
        if grid_px == 0 || !grid_px.is_power_of_two() {
            return Err(BuildSimulatorError::GridNotPowerOfTwo { grid_px });
        }
        let optics = optics.clone().with_field_nm(grid_px as f64 * pixel_nm);
        let required = 2 * optics.support_size() - 1;
        if grid_px < required {
            return Err(BuildSimulatorError::GridTooSmall { grid_px, required });
        }
        // Pre-warm the process-wide real-input FFT plan for this grid
        // size so the first simulation call pays no planning; every
        // backend fetches the same shared plan for the mask spectrum.
        let _ = lsopc_fft::rplan_t::<T>(grid_px, grid_px);
        Ok(Self {
            optics,
            grid_px,
            pixel_nm,
            resist: ResistModel::iccad2013(),
            corners: ProcessCorners::iccad2013(),
            backend: Box::new(FftBackend::new()),
            caches: SimCaches::default(),
            kernel_cache: RwLock::new(HashMap::new()),
            #[cfg(feature = "fault-injection")]
            fault: None,
        })
    }

    /// Installs a [`FaultInjector`](crate::FaultInjector) invoked after
    /// every [`cost_and_gradient`](crate::cost_and_gradient) evaluation
    /// on this simulator, with a call counter starting at 0.
    ///
    /// Only available with the `fault-injection` feature; production
    /// builds have no hook.
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_injector(mut self, injector: Arc<dyn crate::FaultInjector>) -> Self {
        self.fault = Some(FaultHook {
            injector,
            calls: std::sync::atomic::AtomicUsize::new(0),
        });
        self
    }

    /// Runs the installed fault injector (if any) against one evaluation.
    /// Called by [`cost_and_gradient`](crate::cost_and_gradient).
    #[cfg(feature = "fault-injection")]
    pub(crate) fn apply_fault(&self, report: &mut crate::CostReport, gradient: &mut Grid<T>) {
        if let Some(hook) = &self.fault {
            let call = hook
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            lsopc_trace::count("fault.hook_calls", 1);
            // The injector API is `f64` (object-safe); round-trip the
            // gradient through `f64`. At `T = f64` both casts are the
            // identity, so the hook sees and writes the exact values.
            let mut g64 = gradient.map(|v| v.to_f64());
            hook.injector.inject(call, report, &mut g64);
            *gradient = g64.map(|&v| T::from_f64(v));
        }
    }

    /// Replaces the compute backend. The simulator's cache handles (see
    /// [`Self::with_caches`]) are injected into the new backend, so the
    /// calls compose in either order.
    pub fn with_backend(mut self, mut backend: Box<dyn SimBackend<T>>) -> Self {
        backend.set_caches(&self.caches);
        self.backend = backend;
        self
    }

    /// Injects shared cache handles (FFT plans, embedded spectra) into
    /// this simulator and its backend. Defaults to the process-global
    /// caches; multi-job hosts pass one [`SimCaches`] clone per simulator
    /// to amortize plans and spectra across submissions.
    pub fn with_caches(mut self, caches: SimCaches) -> Self {
        // Pre-warm the injected plan cache like `from_optics` pre-warmed
        // the global one, so the first call pays no planning.
        let _ = caches.rplan_t::<T>(self.grid_px, self.grid_px);
        self.backend.set_caches(&caches);
        self.caches = caches;
        self
    }

    /// Convenience: use the accelerated ("GPU") backend.
    pub fn with_accelerated_backend(self, threads: usize) -> Self {
        self.with_backend(Box::new(AcceleratedBackend::new(threads)))
    }

    /// Replaces the resist model.
    pub fn with_resist(mut self, resist: ResistModel) -> Self {
        self.resist = resist;
        self
    }

    /// Grid size in pixels.
    pub fn grid_px(&self) -> usize {
        self.grid_px
    }

    /// Pixel size in nm.
    pub fn pixel_nm(&self) -> f64 {
        self.pixel_nm
    }

    /// Field period in nm (`grid_px · pixel_nm`).
    pub fn field_nm(&self) -> f64 {
        self.grid_px as f64 * self.pixel_nm
    }

    /// Area of one pixel in nm².
    pub fn pixel_area_nm2(&self) -> f64 {
        self.pixel_nm * self.pixel_nm
    }

    /// The resist model.
    pub fn resist(&self) -> ResistModel {
        self.resist
    }

    /// The process corners used by [`LithoSimulator::print_corners`].
    pub fn corners(&self) -> ProcessCorners {
        self.corners
    }

    /// The optics configuration (with the field set to this simulator's).
    pub fn optics(&self) -> &OpticsConfig {
        &self.optics
    }

    /// Name of the active backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The active backend.
    pub fn backend(&self) -> &dyn SimBackend<T> {
        self.backend.as_ref()
    }

    /// The cache handles this simulator and its backend use (see
    /// [`Self::with_caches`]).
    pub fn caches(&self) -> &SimCaches {
        &self.caches
    }

    /// The kernel set for a defocus value (cached; keyed at 1/1000 nm
    /// resolution).
    pub fn kernels_for(&self, defocus_nm: f64) -> Arc<KernelSet<T>> {
        let key = (defocus_nm * 1000.0).round() as i64;
        if let Some(k) = self
            .kernel_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            lsopc_trace::count("cache.kernels.hit", 1);
            return Arc::clone(k);
        }
        lsopc_trace::count("cache.kernels.miss", 1);
        let generated = Arc::new(self.optics.kernels_t::<T>(defocus_nm));
        self.kernel_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(generated)
            .clone()
    }

    fn check_mask(&self, mask: &Grid<T>) {
        assert_eq!(
            mask.dims(),
            (self.grid_px, self.grid_px),
            "mask dimensions must be {0}x{0}",
            self.grid_px
        );
    }

    /// Aerial image at a process condition (dose does **not** scale the
    /// aerial image; it is applied by the resist).
    ///
    /// # Panics
    ///
    /// Panics if the mask dimensions do not match the simulator grid.
    pub fn aerial(&self, mask: &Grid<T>, condition: ProcessCondition) -> Grid<T> {
        self.check_mask(mask);
        let kernels = self.kernels_for(condition.defocus_nm);
        self.backend.aerial_image(&kernels, mask)
    }

    /// Hard-threshold print (paper Eq. (2)) at a process condition.
    ///
    /// # Panics
    ///
    /// Panics if the mask dimensions do not match the simulator grid.
    pub fn print(&self, mask: &Grid<T>, condition: ProcessCondition) -> Grid<T> {
        let aerial = self.aerial(mask, condition);
        self.resist.print(&aerial, condition.dose)
    }

    /// Sigmoid print (paper Eq. (8)) at a process condition.
    ///
    /// # Panics
    ///
    /// Panics if the mask dimensions do not match the simulator grid.
    pub fn print_soft(&self, mask: &Grid<T>, condition: ProcessCondition) -> Grid<T> {
        let aerial = self.aerial(mask, condition);
        self.resist.print_soft(&aerial, condition.dose)
    }

    /// Hard prints at all three process corners.
    ///
    /// The corners are independent simulations and run concurrently on
    /// the shared pool (each one's inner kernel fold then runs inline on
    /// its thread). Results are identical to running them sequentially.
    ///
    /// # Panics
    ///
    /// Panics if the mask dimensions do not match the simulator grid.
    pub fn print_corners(&self, mask: &Grid<T>) -> PrintedCorners<T> {
        self.print_corners_with(ParallelContext::global(), mask)
    }

    /// [`Self::print_corners`] on an explicit [`ParallelContext`].
    pub fn print_corners_with(&self, ctx: &ParallelContext, mask: &Grid<T>) -> PrintedCorners<T> {
        let _span = lsopc_trace::span!("litho.print_corners");
        self.check_mask(mask);
        let corners = [self.corners.nominal, self.corners.inner, self.corners.outer];
        // Pre-warm the kernel cache serially: concurrent misses on the
        // same defocus would generate the same kernel set redundantly.
        for c in &corners {
            let _ = self.kernels_for(c.defocus_nm);
        }
        let mut prints = ctx.par_map(corners.len(), |i| self.print(mask, corners[i]));
        let outer = prints.pop().expect("three corners");
        let inner = prints.pop().expect("three corners");
        let nominal = prints.pop().expect("three corners");
        PrintedCorners {
            nominal,
            inner,
            outer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> LithoSimulator {
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(6), 64, 4.0)
            .expect("valid configuration")
    }

    fn wire_mask() -> Grid<f64> {
        // A 48nm-wide, 160nm-tall wire centred in the 256nm field.
        Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn builder_validation() {
        let cfg = OpticsConfig::iccad2013();
        assert!(matches!(
            LithoSimulator::<f64>::from_optics(&cfg, 60, 4.0),
            Err(BuildSimulatorError::GridNotPowerOfTwo { grid_px: 60 })
        ));
        assert!(matches!(
            LithoSimulator::<f64>::from_optics(&cfg, 64, 0.0),
            Err(BuildSimulatorError::InvalidPixelSize)
        ));
        // 2048nm field on a 16px grid: band larger than the grid.
        assert!(matches!(
            LithoSimulator::<f64>::from_optics(&cfg, 16, 128.0),
            Err(BuildSimulatorError::GridTooSmall { .. })
        ));
    }

    #[test]
    fn field_and_pixel_accounting() {
        let s = sim();
        assert_eq!(s.field_nm(), 256.0);
        assert_eq!(s.pixel_area_nm2(), 16.0);
        assert_eq!(s.backend_name(), "fft-cpu");
    }

    #[test]
    fn kernel_cache_returns_same_arc() {
        let s = sim();
        let a = s.kernels_for(25.0);
        let b = s.kernels_for(25.0);
        assert!(Arc::ptr_eq(&a, &b));
        let c = s.kernels_for(0.0);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn wire_prints_smaller_than_drawn_without_opc() {
        // The classic OPC motivation: an uncorrected mask under-prints.
        let s = sim();
        let mask = wire_mask();
        let printed = s.print(&mask, ProcessCondition::NOMINAL);
        assert!(printed.sum() > 0.0, "wire must print at all");
        assert!(
            printed.sum() < mask.sum(),
            "printed area {} should be below drawn area {}",
            printed.sum(),
            mask.sum()
        );
    }

    #[test]
    fn dose_ordering_of_prints() {
        // Higher dose prints more area (outer ⊇ nominal ⊇ inner at equal
        // focus).
        let s = sim();
        let mask = wire_mask();
        let corners = s.print_corners(&mask);
        let (inner, nominal, outer) = (
            corners.inner.sum(),
            corners.nominal.sum(),
            corners.outer.sum(),
        );
        assert!(outer >= nominal, "outer {outer} < nominal {nominal}");
        assert!(nominal >= inner, "nominal {nominal} < inner {inner}");
        assert!(outer > inner, "corners must differ");
    }

    #[test]
    fn print_soft_approaches_hard_print() {
        let s = sim().with_resist(ResistModel::new(0.225, 400.0));
        let mask = wire_mask();
        let hard = s.print(&mask, ProcessCondition::NOMINAL);
        let soft = s.print_soft(&mask, ProcessCondition::NOMINAL);
        let mean_gap: f64 = hard
            .as_slice()
            .iter()
            .zip(soft.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / hard.len() as f64;
        assert!(mean_gap < 0.02, "mean gap {mean_gap}");
    }

    #[test]
    fn accelerated_backend_gives_same_print() {
        let mask = wire_mask();
        let cpu = sim();
        let gpu = sim().with_accelerated_backend(2);
        assert_eq!(gpu.backend_name(), "accelerated");
        let a = cpu.print(&mask, ProcessCondition::NOMINAL);
        let b = gpu.print(&mask, ProcessCondition::NOMINAL);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "mask dimensions")]
    fn wrong_mask_size_panics() {
        let s = sim();
        let mask = Grid::new(32, 32, 0.0);
        let _ = s.aerial(&mask, ProcessCondition::NOMINAL);
    }
}
