//! Process-wide cache of 2-D FFT plans.
//!
//! Building an [`Fft2d`] computes twiddle-factor and bit-reversal tables;
//! doing that on every simulation call wastes work and, worse, hides the
//! plan's identity from callers that could otherwise share it. This
//! module gives the workspace one canonical plan per `(scalar type,
//! width, height)`:
//!
//! * [`PlanCache`] — an injectable cache instance, for tests and for
//!   callers that want isolated plan lifetimes;
//! * [`PlanCache::global`] — the process-global instance every hot path
//!   (backends, convolution helpers, optics kernel construction) goes
//!   through;
//! * [`plan`] — shorthand for `PlanCache::global().plan(w, h)` (`f64`);
//! * [`plan_t`] — the scalar-generic equivalent, used by the f32
//!   execution mode;
//! * [`rplan`]/[`rplan_t`] — the same for the real-input [`RfftPlan`].
//!
//! Plans are returned as `Arc<Fft2d<T>>`: repeated lookups of the same
//! size and scalar type return clones of the *same* allocation, so
//! callers may compare with `Arc::ptr_eq` and hold plans across
//! iterations for free. Plans of different scalar types never alias:
//! the cache key includes `TypeId::of::<T>()`.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

use lsopc_grid::Scalar;
use parking_lot::RwLock;

use crate::{Fft2d, RfftPlan};

/// Plans stored by the cache, keyed by `(scalar type, width, height)`.
/// Values are type-erased `Arc<Fft2d<T>>` (generic statics are illegal in
/// Rust, so one erased map serves every scalar type).
type PlanMap = HashMap<(TypeId, usize, usize), Arc<dyn Any + Send + Sync>>;

/// A thread-safe cache of [`Fft2d`] plans keyed by scalar type and
/// `(width, height)`.
///
/// Reads take a shared lock, so concurrent simulation threads hitting
/// already-built plans never serialize; only the first construction of a
/// given size takes the write lock.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: RwLock<PlanMap>,
    /// Real-input ([`RfftPlan`]) plans, cached separately: the two plan
    /// kinds have different twiddle tables and a caller asking for one
    /// never wants the other.
    rplans: RwLock<PlanMap>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The process-global cache shared by all simulation hot paths.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: std::sync::LazyLock<PlanCache> = std::sync::LazyLock::new(PlanCache::new);
        &GLOBAL
    }

    /// Returns the shared `f64` plan for `width` x `height` grids,
    /// building it on first use. All callers asking for the same size get
    /// the same `Arc` allocation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two (same
    /// contract as [`Fft2d::new`]).
    pub fn plan(&self, width: usize, height: usize) -> Arc<Fft2d<f64>> {
        self.plan_t::<f64>(width, height)
    }

    /// Returns the shared plan of scalar type `T` for `width` x `height`
    /// grids, building it on first use. Plans of different scalar types
    /// are cached independently — an `f64` plan is never handed to an
    /// `f32` caller.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two (same
    /// contract as [`Fft2d::new`]).
    pub fn plan_t<T: Scalar>(&self, width: usize, height: usize) -> Arc<Fft2d<T>> {
        let key = (TypeId::of::<T>(), width, height);
        if let Some(plan) = self.plans.read().get(&key) {
            lsopc_trace::count("cache.plan.hit", 1);
            return downcast_plan(plan);
        }
        lsopc_trace::count("cache.plan.miss", 1);
        let mut plans = self.plans.write();
        // Re-check under the write lock: another thread may have built
        // the plan between our read and write acquisitions, and every
        // caller must observe the same Arc.
        let erased = plans
            .entry(key)
            .or_insert_with(|| Arc::new(Fft2d::<T>::new(width, height)));
        downcast_plan(erased)
    }

    /// Returns the shared `f64` real-input plan for `width` x `height`
    /// grids, building it on first use. See [`PlanCache::rplan_t`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two (same
    /// contract as [`RfftPlan::new`]).
    pub fn rplan(&self, width: usize, height: usize) -> Arc<RfftPlan<f64>> {
        self.rplan_t::<f64>(width, height)
    }

    /// Returns the shared real-input ([`RfftPlan`]) plan of scalar type
    /// `T` for `width` x `height` grids, building it on first use. Cached
    /// independently of the dense [`Fft2d`] plans and per scalar type,
    /// with the same `Arc`-sharing guarantees as [`PlanCache::plan_t`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two (same
    /// contract as [`RfftPlan::new`]).
    pub fn rplan_t<T: Scalar>(&self, width: usize, height: usize) -> Arc<RfftPlan<T>> {
        let key = (TypeId::of::<T>(), width, height);
        if let Some(plan) = self.rplans.read().get(&key) {
            lsopc_trace::count("cache.rplan.hit", 1);
            return downcast_rplan(plan);
        }
        lsopc_trace::count("cache.rplan.miss", 1);
        let mut rplans = self.rplans.write();
        let erased = rplans
            .entry(key)
            .or_insert_with(|| Arc::new(RfftPlan::<T>::new(width, height)));
        downcast_rplan(erased)
    }

    /// Number of distinct `(scalar type, size)` plans currently cached
    /// (dense and real-input combined).
    pub fn len(&self) -> usize {
        self.plans.read().len() + self.rplans.read().len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.read().is_empty() && self.rplans.read().is_empty()
    }

    /// Drops all cached plans. Outstanding `Arc`s stay valid; subsequent
    /// lookups rebuild.
    pub fn clear(&self) {
        self.plans.write().clear();
        self.rplans.write().clear();
    }
}

/// Recovers the typed `Arc<Fft2d<T>>` from a cache entry. The key's
/// `TypeId` guarantees the downcast succeeds.
fn downcast_plan<T: Scalar>(erased: &Arc<dyn Any + Send + Sync>) -> Arc<Fft2d<T>> {
    Arc::clone(erased)
        .downcast::<Fft2d<T>>()
        .unwrap_or_else(|_| unreachable!("plan cache entry keyed by TypeId has that type"))
}

/// Recovers the typed `Arc<RfftPlan<T>>` from a cache entry. The key's
/// `TypeId` guarantees the downcast succeeds.
fn downcast_rplan<T: Scalar>(erased: &Arc<dyn Any + Send + Sync>) -> Arc<RfftPlan<T>> {
    Arc::clone(erased)
        .downcast::<RfftPlan<T>>()
        .unwrap_or_else(|_| unreachable!("rfft plan cache entry keyed by TypeId has that type"))
}

/// Shared `f64` plan for `width` x `height` grids from the process-global
/// cache. See [`PlanCache::plan`].
///
/// # Panics
///
/// Panics if either dimension is zero or not a power of two.
pub fn plan(width: usize, height: usize) -> Arc<Fft2d<f64>> {
    PlanCache::global().plan(width, height)
}

/// Shared plan of scalar type `T` for `width` x `height` grids from the
/// process-global cache. See [`PlanCache::plan_t`].
///
/// # Panics
///
/// Panics if either dimension is zero or not a power of two.
pub fn plan_t<T: Scalar>(width: usize, height: usize) -> Arc<Fft2d<T>> {
    PlanCache::global().plan_t::<T>(width, height)
}

/// Shared `f64` real-input plan for `width` x `height` grids from the
/// process-global cache. See [`PlanCache::rplan`].
///
/// # Panics
///
/// Panics if either dimension is zero or not a power of two.
pub fn rplan(width: usize, height: usize) -> Arc<RfftPlan<f64>> {
    PlanCache::global().rplan(width, height)
}

/// Shared real-input plan of scalar type `T` for `width` x `height` grids
/// from the process-global cache. See [`PlanCache::rplan_t`].
///
/// # Panics
///
/// Panics if either dimension is zero or not a power of two.
pub fn rplan_t<T: Scalar>(width: usize, height: usize) -> Arc<RfftPlan<T>> {
    PlanCache::global().rplan_t::<T>(width, height)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_size_returns_same_arc() {
        let cache = PlanCache::new();
        let a = cache.plan(16, 8);
        let b = cache.plan(16, 8);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let c = cache.plan(8, 16);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_plan_transforms_like_a_fresh_one() {
        use lsopc_grid::{Grid, C64};
        let cache = PlanCache::new();
        let plan = cache.plan(8, 8);
        let fresh = Fft2d::<f64>::new(8, 8);
        let g = Grid::from_fn(8, 8, |x, y| C64::new(x as f64, y as f64));
        let mut a = g.clone();
        let mut b = g;
        plan.forward(&mut a);
        fresh.forward(&mut b);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn clear_keeps_outstanding_arcs_usable() {
        use lsopc_grid::{Grid, C64};
        let cache = PlanCache::new();
        let plan = cache.plan(4, 4);
        cache.clear();
        assert!(cache.is_empty());
        let mut g = Grid::new(4, 4, C64::ONE);
        plan.forward(&mut g);
        let rebuilt = cache.plan(4, 4);
        assert!(!Arc::ptr_eq(&plan, &rebuilt));
    }

    #[test]
    fn f32_and_f64_plans_are_cached_independently() {
        let cache = PlanCache::new();
        let a64 = cache.plan_t::<f64>(16, 16);
        let a32 = cache.plan_t::<f32>(16, 16);
        let b32 = cache.plan_t::<f32>(16, 16);
        assert!(Arc::ptr_eq(&a32, &b32), "f32 plans are cached");
        assert_eq!(cache.len(), 2, "one entry per scalar type");
        assert_eq!((a64.width(), a64.height()), (16, 16));
        assert_eq!((a32.width(), a32.height()), (16, 16));
    }

    #[test]
    fn rplans_are_cached_separately_from_dense_plans() {
        let cache = PlanCache::new();
        let dense = cache.plan(16, 8);
        let r1 = cache.rplan(16, 8);
        let r2 = cache.rplan(16, 8);
        assert!(Arc::ptr_eq(&r1, &r2), "rfft plans are cached");
        assert_eq!(cache.len(), 2, "dense and rfft entries are distinct");
        assert_eq!((dense.width(), dense.height()), (16, 8));
        let r32 = cache.rplan_t::<f32>(16, 8);
        assert_eq!((r32.width(), r32.height()), (16, 8));
        assert_eq!(cache.len(), 3, "per-scalar rfft entries");
        cache.clear();
        assert!(cache.is_empty());
        // Outstanding Arcs stay valid after clear.
        use lsopc_grid::Grid;
        let g = Grid::new(16, 8, 1.0_f64);
        let spec = r1.forward(&g);
        assert_eq!(spec.dims(), (16, 8));
    }

    #[test]
    fn generic_helper_reuses_f64_plans() {
        // The global cache is shared; use a size no other test asks for.
        let a = plan_t::<f64>(64, 2);
        let b = plan(64, 2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = plan_t::<f32>(64, 2);
        let d = plan_t::<f32>(64, 2);
        assert!(Arc::ptr_eq(&c, &d), "global f32 plans are cached too");
        assert_eq!((c.width(), c.height()), (64, 2));
    }
}
