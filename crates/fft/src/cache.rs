//! A cache of 2-D FFT plans.
//!
//! Building an [`Fft2d`] computes twiddle-factor and bit-reversal tables;
//! doing that on every simulation call wastes work. A [`PlanCache`] holds
//! one plan per `(scalar type, width, height)`, dense ([`Fft2d`]) and
//! real-input ([`RfftPlan`]) alike. There is no process-wide instance:
//! each simulator owns one (through `lsopc_litho::SimCaches`) and shares
//! it with its backend, and a one-shot transform builds its plan with
//! [`Fft2d::new`] or [`RfftPlan::new`].
//!
//! Plans are returned as `Arc<Fft2d<T>>`: repeated lookups of the same
//! size and scalar type return clones of the *same* allocation, so
//! callers may compare with `Arc::ptr_eq` and hold plans across
//! iterations for free. Plans of different scalar types never alias:
//! the cache key includes `TypeId::of::<T>()`.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use lsopc_grid::Scalar;

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
/// given size takes the write lock. A construction that panics (a size
/// that is not a power of two) poisons the lock but inserts nothing, so
/// every lookup recovers the map from the `PoisonError`.
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
        if let Some(plan) = self
            .plans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            lsopc_trace::count("cache.plan.hit", 1);
            return downcast_plan(plan);
        }
        lsopc_trace::count("cache.plan.miss", 1);
        let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
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
        if let Some(plan) = self
            .rplans
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            lsopc_trace::count("cache.rplan.hit", 1);
            return downcast_rplan(plan);
        }
        lsopc_trace::count("cache.rplan.miss", 1);
        let mut rplans = self.rplans.write().unwrap_or_else(PoisonError::into_inner);
        let erased = rplans
            .entry(key)
            .or_insert_with(|| Arc::new(RfftPlan::<T>::new(width, height)));
        downcast_rplan(erased)
    }

    /// Number of distinct `(scalar type, size)` plans currently cached
    /// (dense and real-input combined).
    pub fn len(&self) -> usize {
        let plans = self.plans.read().unwrap_or_else(PoisonError::into_inner);
        let rplans = self.rplans.read().unwrap_or_else(PoisonError::into_inner);
        plans.len() + rplans.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    }

    #[test]
    fn a_panicking_build_leaves_the_cache_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache = PlanCache::new();
        // 12 is not a power of two: both builds panic under the write
        // lock and poison it, and later lookups must recover.
        assert!(catch_unwind(AssertUnwindSafe(|| cache.plan(12, 8))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| cache.rplan(12, 8))).is_err());
        assert_eq!(cache.plan(8, 8).width(), 8);
        assert_eq!(cache.rplan(8, 8).width(), 8);
        assert_eq!(cache.len(), 2);
    }
}
