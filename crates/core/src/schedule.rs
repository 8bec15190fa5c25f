//! Coarse-to-fine resolution scheduling for the optimization loop.
//!
//! The early ILT iterations move the contour by many pixels per step;
//! nothing about that motion needs the full grid resolution or the full
//! kernel rank. A [`ResolutionSchedule`] makes
//! [`LevelSetIlt::optimize`](crate::LevelSetIlt::optimize) run those
//! iterations on a downsampled grid with a truncated kernel set, then
//! transfer `ψ` to the full grid (spectral upsample + signed-distance
//! reinitialization, see `lsopc_levelset::upsample_levelset`) and finish
//! with a short full-resolution refinement. See DESIGN.md §14 for the
//! stage state machine and the accuracy contract.

use lsopc_optics::OpticsConfig;

/// Parameters of a two-stage coarse-to-fine run.
///
/// Construct with [`ResolutionSchedule::new`] (explicit parameters) or
/// [`ResolutionSchedule::auto`] (derived from the simulator geometry).
/// Attach to an optimizer with
/// [`LevelSetIltBuilder::schedule`](crate::LevelSetIltBuilder::schedule);
/// without one the optimizer runs the historical flat loop bit-for-bit.
///
/// # Example
///
/// ```
/// use lsopc_core::{LevelSetIlt, ResolutionSchedule};
///
/// let opt = LevelSetIlt::builder()
///     .schedule(Some(ResolutionSchedule::new(256, 12, 20, 10)))
///     .build();
/// assert_eq!(opt.schedule().expect("set").coarse_px(), 256);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ResolutionSchedule {
    coarse_px: usize,
    coarse_kernels: usize,
    coarse_iterations: usize,
    fine_iterations: usize,
}

impl ResolutionSchedule {
    /// Creates a schedule: `coarse_iterations` on a `coarse_px²` grid
    /// with (at most) `coarse_kernels` kernels, then `fine_iterations`
    /// at full resolution.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_px` is not a power of two (FFT requirement) or
    /// any count is zero.
    pub fn new(
        coarse_px: usize,
        coarse_kernels: usize,
        coarse_iterations: usize,
        fine_iterations: usize,
    ) -> Self {
        assert!(
            coarse_px > 0 && coarse_px.is_power_of_two(),
            "coarse grid {coarse_px} must be a power of two"
        );
        assert!(coarse_kernels > 0, "coarse kernel count must be positive");
        assert!(
            coarse_iterations > 0 && fine_iterations > 0,
            "stage iteration counts must be positive"
        );
        Self {
            coarse_px,
            coarse_kernels,
            coarse_iterations,
            fine_iterations,
        }
    }

    /// Derives a schedule from the simulator geometry: a quarter-size
    /// coarse grid (clamped so the grid still holds the optical band),
    /// half the kernel rank (floored at 8 — below that the truncated
    /// aerial image diverges enough that the coarse optimum misleads the
    /// fine stage), and a roughly 2:1 coarse:fine split of
    /// `max_iterations`. Returns `None` when no coarser grid can hold
    /// the band — then a flat run is the only option.
    ///
    /// `optics` must carry the run's field period (e.g.
    /// [`LithoSimulator::optics`](lsopc_litho::LithoSimulator::optics)),
    /// since the minimum grid follows from the band in cycles per field.
    pub fn auto(grid_px: usize, optics: &OpticsConfig, max_iterations: usize) -> Option<Self> {
        let min_px = (2 * optics.support_size() - 1).next_power_of_two();
        let coarse_px = (grid_px / 4).max(min_px);
        if coarse_px >= grid_px || max_iterations < 2 {
            return None;
        }
        let kernels = optics.kernel_count();
        let coarse_kernels = kernels.div_ceil(2).max(8).min(kernels);
        let fine_iterations = max_iterations.div_ceil(3).max(1);
        let coarse_iterations = (max_iterations - fine_iterations).max(1);
        Some(Self::new(
            coarse_px,
            coarse_kernels,
            coarse_iterations,
            fine_iterations,
        ))
    }

    /// Coarse-stage grid size in pixels.
    pub fn coarse_px(&self) -> usize {
        self.coarse_px
    }

    /// Kernel-rank cap for the coarse stage (clamped to the optimizer's
    /// simulator rank at run time).
    pub fn coarse_kernels(&self) -> usize {
        self.coarse_kernels
    }

    /// Iteration budget of the coarse stage.
    pub fn coarse_iterations(&self) -> usize {
        self.coarse_iterations
    }

    /// Iteration budget of the full-resolution refinement stage.
    pub fn fine_iterations(&self) -> usize {
        self.fine_iterations
    }

    /// The integer downsampling factor for a `grid_px` run, or `None`
    /// when the schedule is degenerate for that grid (coarse not
    /// strictly smaller) and the optimizer should fall back to a flat
    /// run.
    pub(crate) fn downsample_factor(&self, grid_px: usize) -> Option<usize> {
        if self.coarse_px < grid_px && grid_px.is_multiple_of(self.coarse_px) {
            Some(grid_px / self.coarse_px)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedule_roundtrips_accessors() {
        let s = ResolutionSchedule::new(256, 12, 20, 10);
        assert_eq!(s.coarse_px(), 256);
        assert_eq!(s.coarse_kernels(), 12);
        assert_eq!(s.coarse_iterations(), 20);
        assert_eq!(s.fine_iterations(), 10);
        assert_eq!(s.downsample_factor(1024), Some(4));
    }

    #[test]
    fn degenerate_grids_fall_back() {
        let s = ResolutionSchedule::new(256, 12, 20, 10);
        assert_eq!(s.downsample_factor(256), None, "coarse == fine");
        assert_eq!(s.downsample_factor(128), None, "coarse > fine");
    }

    #[test]
    fn auto_respects_the_optical_band() {
        // 2048 nm field: support 59 → minimum coarse grid 128.
        let optics = OpticsConfig::iccad2013().with_field_nm(2048.0);
        let s = ResolutionSchedule::auto(1024, &optics, 30).expect("schedulable");
        assert_eq!(s.coarse_px(), 256, "quarter grid above the band floor");
        assert!(s.coarse_px() >= (2 * optics.support_size() - 1).next_power_of_two());
        assert_eq!(s.coarse_iterations() + s.fine_iterations(), 30);
        assert!(s.coarse_iterations() > s.fine_iterations());
        assert_eq!(
            s.coarse_kernels(),
            12,
            "half the ICCAD 2013 rank of 24, above the floor of 8"
        );

        let low_rank = OpticsConfig::iccad2013().with_kernel_count(4);
        let s = ResolutionSchedule::auto(1024, &low_rank, 30).expect("schedulable");
        assert_eq!(s.coarse_kernels(), 4, "never raised above the full rank");

        let tight = ResolutionSchedule::auto(256, &optics, 30).expect("schedulable");
        assert_eq!(tight.coarse_px(), 128, "clamped to the band floor");
        assert!(
            ResolutionSchedule::auto(128, &optics, 30).is_none(),
            "no coarser grid holds the band"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_coarse_grid_panics() {
        let _ = ResolutionSchedule::new(200, 12, 20, 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stage_budget_panics() {
        let _ = ResolutionSchedule::new(256, 12, 0, 10);
    }
}
