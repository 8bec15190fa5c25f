//! A simulation backend that times every call into the backend it
//! wraps — the litho layer's probe, built only on the public
//! `SimBackend` trait.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use lsopc_grid::{Grid, Scalar};
use lsopc_litho::{SimBackend, SimCaches};
use lsopc_optics::KernelSet;

/// Call durations in seconds, in call order.
#[derive(Debug, Default)]
pub struct CallLog {
    aerial: Mutex<Vec<f64>>,
    gradient: Mutex<Vec<f64>>,
}

impl CallLog {
    /// Returns and clears the `(aerial, gradient)` durations so far.
    pub fn take(&self) -> (Vec<f64>, Vec<f64>) {
        let take = |m: &Mutex<Vec<f64>>| std::mem::take(&mut *m.lock().expect("call log poisoned"));
        (take(&self.aerial), take(&self.gradient))
    }

    fn record(list: &Mutex<Vec<f64>>, started: Instant) {
        let s = started.elapsed().as_secs_f64();
        list.lock().expect("call log poisoned").push(s);
    }
}

/// Forwards every call to `inner` unchanged and logs its duration.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    log: Arc<CallLog>,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, log: Arc<CallLog>) -> Self {
        Self { inner, log }
    }
}

impl<T: Scalar, B: SimBackend<T>> SimBackend<T> for TimedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T> {
        let started = Instant::now();
        let out = self.inner.aerial_image(kernels, mask);
        CallLog::record(&self.log.aerial, started);
        out
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        let started = Instant::now();
        let out = self.inner.gradient(kernels, mask, z);
        CallLog::record(&self.log.gradient, started);
        out
    }

    fn set_caches(&mut self, caches: &SimCaches) {
        self.inner.set_caches(caches);
    }
}
