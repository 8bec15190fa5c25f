//! Fault injection on the cost evaluation path (robustness testing).
//!
//! Compiled only with the `fault-injection` cargo feature; production
//! builds carry no hook and no branch. A [`FaultInjector`] installed via
//! [`LithoSimulator::with_fault_injector`](crate::LithoSimulator::with_fault_injector)
//! is invoked at the end of every [`cost_and_gradient`](crate::cost_and_gradient)
//! and [`cost_only`](crate::cost_only) call with a monotonically
//! increasing call index, and may corrupt the cost report and/or the
//! gradient in place — or panic from inside a worker-pool job to emulate
//! a poisoned `lsopc-parallel` chunk.
//!
//! The solver health guard in `lsopc-core` is tested against exactly this
//! hook: its property tests inject every [`FaultMode`] at every iteration
//! and assert the optimizer still returns a finite mask no worse than the
//! last healthy checkpoint.

use crate::CostReport;
use lsopc_grid::Grid;
use lsopc_parallel::{CancelToken, ParallelContext, StopReason};
use std::fmt::Debug;

/// What an injected fault does to the cost report / gradient.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum FaultMode {
    /// Poison one gradient cell with NaN.
    NanGradient,
    /// Poison one gradient cell with +∞.
    InfGradient,
    /// Multiply the whole gradient by a large factor (finite spike).
    SpikeGradient(f64),
    /// Replace the nominal cost term with NaN.
    NanCost,
    /// Replace the nominal cost term with +∞.
    InfCost,
    /// Multiply the cost terms by a large factor (finite spike).
    SpikeCost(f64),
    /// Panic from inside a shared-pool worker job, emulating a poisoned
    /// `lsopc-parallel` chunk on the simulator path.
    Panic,
}

impl FaultMode {
    /// Applies this mode to a report and, when the evaluation computed
    /// one, its gradient. The gradient modes do nothing on `None`.
    pub fn apply(self, report: &mut CostReport, gradient: Option<&mut Grid<f64>>) {
        match self {
            Self::NanGradient => poison_gradient(gradient, f64::NAN),
            Self::InfGradient => poison_gradient(gradient, f64::INFINITY),
            Self::SpikeGradient(factor) => {
                if let Some(gradient) = gradient {
                    for g in gradient.as_mut_slice() {
                        *g *= factor;
                    }
                }
            }
            Self::NanCost => report.nominal = f64::NAN,
            Self::InfCost => report.nominal = f64::INFINITY,
            Self::SpikeCost(factor) => {
                report.nominal *= factor;
                report.pvb *= factor;
            }
            Self::Panic => {
                // Panic from a pool job, not from the calling thread: the
                // pool catches it per chunk and re-raises it on the
                // submitting caller after the job drains, which is the
                // exact poisoning path the guard must contain.
                let _ = ParallelContext::global().par_map(2, |i| -> usize {
                    panic!("injected fault: worker panic in job {i}")
                });
            }
        }
    }
}

fn poison_gradient(gradient: Option<&mut Grid<f64>>, value: f64) {
    if let Some(gradient) = gradient {
        let mid = gradient.len() / 2;
        gradient.as_mut_slice()[mid] = value;
    }
}

/// A hook invoked after every `cost_and_gradient` and `cost_only`
/// evaluation.
///
/// `call` counts evaluations on the owning simulator from 0, with or
/// without a gradient, so "the fault at iteration k" is expressed as
/// `call == k` for optimizers that evaluate once per iteration and run
/// no line search; the final iterate's evaluation comes after the last
/// iteration's.
pub trait FaultInjector: Send + Sync + Debug {
    /// Possibly corrupts `report`/`gradient` for evaluation number `call`;
    /// `gradient` is `None` for a cost-only evaluation.
    fn inject(&self, call: usize, report: &mut CostReport, gradient: Option<&mut Grid<f64>>);
}

/// The standard scripted injector: fire a [`FaultMode`] once at a chosen
/// call index, or on every call.
#[derive(Clone, Debug)]
pub struct ScriptedFault {
    at_call: Option<usize>,
    mode: FaultMode,
}

impl ScriptedFault {
    /// Fires `mode` exactly once, at evaluation number `at_call`.
    pub fn once(at_call: usize, mode: FaultMode) -> Self {
        Self {
            at_call: Some(at_call),
            mode,
        }
    }

    /// Fires `mode` on every evaluation (for give-up/strict-mode tests).
    pub fn persistent(mode: FaultMode) -> Self {
        Self {
            at_call: None,
            mode,
        }
    }
}

impl FaultInjector for ScriptedFault {
    fn inject(&self, call: usize, report: &mut CostReport, gradient: Option<&mut Grid<f64>>) {
        match self.at_call {
            Some(at) if call != at => {}
            _ => self.mode.apply(report, gradient),
        }
    }
}

/// A process-fault injector: cancels a [`CancelToken`] at a chosen
/// evaluation, emulating a signal or an external stop arriving mid-run.
/// The optimizer must notice at the next iteration boundary and stop
/// gracefully (best-so-far mask, final checkpoint, categorized reason)
/// — exactly the contract the `process_fault` suite in `lsopc-core`
/// pins.
#[derive(Clone, Debug)]
pub struct ScriptedCancel {
    at_call: usize,
    token: CancelToken,
    reason: StopReason,
}

impl ScriptedCancel {
    /// Cancels `token` with `reason` at evaluation number `at_call`.
    pub fn new(at_call: usize, token: CancelToken, reason: StopReason) -> Self {
        Self {
            at_call,
            token,
            reason,
        }
    }
}

impl FaultInjector for ScriptedCancel {
    fn inject(&self, call: usize, _report: &mut CostReport, _gradient: Option<&mut Grid<f64>>) {
        if call == self.at_call {
            self.token.cancel(self.reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> (CostReport, Grid<f64>) {
        (
            CostReport {
                nominal: 2.0,
                pvb: 1.0,
                w_pvb: 1.0,
            },
            Grid::new(4, 4, 1.0),
        )
    }

    #[test]
    fn once_fires_only_at_its_call() {
        let fault = ScriptedFault::once(3, FaultMode::NanCost);
        let (mut report, mut gradient) = clean();
        fault.inject(2, &mut report, Some(&mut gradient));
        assert!(report.total().is_finite());
        fault.inject(3, &mut report, Some(&mut gradient));
        assert!(report.total().is_nan());
    }

    #[test]
    fn persistent_fires_every_call() {
        let fault = ScriptedFault::persistent(FaultMode::InfGradient);
        for call in 0..4 {
            let (mut report, mut gradient) = clean();
            fault.inject(call, &mut report, Some(&mut gradient));
            assert!(gradient.as_slice().iter().any(|v| !v.is_finite()));
        }
    }

    #[test]
    fn spike_modes_stay_finite() {
        let (mut report, mut gradient) = clean();
        FaultMode::SpikeGradient(1e30).apply(&mut report, Some(&mut gradient));
        FaultMode::SpikeCost(1e30).apply(&mut report, Some(&mut gradient));
        assert!(gradient.as_slice().iter().all(|v| v.is_finite()));
        assert!(report.total().is_finite());
        assert!(report.total() > 1e29);
    }

    #[test]
    fn scripted_cancel_fires_only_at_its_call() {
        let token = CancelToken::new();
        let fault = ScriptedCancel::new(2, token.clone(), StopReason::External);
        let (mut report, mut gradient) = clean();
        fault.inject(1, &mut report, Some(&mut gradient));
        assert!(token.cancelled().is_none());
        fault.inject(2, &mut report, Some(&mut gradient));
        assert_eq!(token.cancelled(), Some(StopReason::External));
        // Report and gradient are untouched — this is a process fault.
        assert!(report.total().is_finite());
        assert!(gradient.as_slice().iter().all(|v| *v == 1.0));
    }

    #[test]
    fn panic_mode_reraises_on_caller_and_pool_survives() {
        let (mut report, mut gradient) = clean();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FaultMode::Panic.apply(&mut report, Some(&mut gradient));
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The shared pool survives a poisoned job.
        let v = ParallelContext::global().par_map(3, |i| i * 2);
        assert_eq!(v, vec![0, 2, 4]);
    }
}
