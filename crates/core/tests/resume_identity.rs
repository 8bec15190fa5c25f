//! Resume determinism: a run killed at iteration `k` (via an iteration
//! budget, standing in for a crash or Ctrl-C at the same boundary) and
//! resumed from its checkpoint must reproduce the uninterrupted run
//! bit-for-bit — the same mask, the same ψ, the same history records
//! (excluding wall-clock `elapsed_s`) and the same mask snapshots.
//!
//! Covered paths: the plain loop, the health-guard loop (state machine
//! and rollback target are checkpointed), the snapshotting loop, and
//! the coarse-to-fine schedule resumed in *both* stages, at f64 — plus
//! the plain and guarded loops at f32, where the checkpoint widens
//! every field to f64 and the resume narrows it back.
//! An uninterrupted run that writes periodic checkpoints must equal the
//! run with no control, bit for bit, and write exactly the checkpoints
//! its interval asks for.
//! `scripts/check.sh` runs this suite at `LSOPC_THREADS=1` and `=4` so
//! the guarantee holds across pool sizes.

use lsopc_core::{
    CheckpointSpec, GuardConfig, IltResult, LevelSetIlt, RecoveryPolicy, ResolutionSchedule,
    RunControl, StopReason,
};
use lsopc_grid::{Grid, Scalar};
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;
use lsopc_trace::MetricsRegistry;
use std::path::PathBuf;
use std::sync::Arc;

fn sim<T: Scalar>(grid_px: usize) -> LithoSimulator<T> {
    // 4 nm pixels at 64 px (the golden-test geometry); 8 nm at 256 px so
    // the 128 px coarse stage still holds the optical band.
    let pixel_nm = if grid_px == 64 { 4.0 } else { 8.0 };
    LithoSimulator::from_optics(
        &OpticsConfig::iccad2013().with_kernel_count(4),
        grid_px,
        pixel_nm,
    )
    .expect("valid configuration")
}

fn wire_target<T: Scalar>(grid_px: usize) -> Grid<T> {
    let s = grid_px / 64;
    Grid::from_fn(grid_px, grid_px, |x, y| {
        if (26 * s..38 * s).contains(&x) && (12 * s..52 * s).contains(&y) {
            T::ONE
        } else {
            T::ZERO
        }
    })
}

/// Asserts two grids hold the same cells bit for bit.
fn assert_grid_bits<T: Scalar>(a: &Grid<T>, b: &Grid<T>, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: dims");
    for (i, (va, vb)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            va.to_f64().to_bits(),
            vb.to_f64().to_bits(),
            "{what}: pixel {i}"
        );
    }
}

fn tmp_ck(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lsopc_resume_{}_{name}.lsckpt", std::process::id()))
}

/// Asserts two results are bit-identical up to wall-clock fields.
fn assert_bit_identical<T: Scalar>(a: &IltResult<T>, b: &IltResult<T>, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iteration count");
    assert_eq!(
        a.coarse_iterations, b.coarse_iterations,
        "{what}: coarse iteration count"
    );
    assert_eq!(a.converged, b.converged, "{what}: convergence flag");
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(ra.iteration, rb.iteration, "{what}: history iteration");
        for (va, vb, field) in [
            (ra.cost_nominal, rb.cost_nominal, "cost_nominal"),
            (ra.cost_pvb, rb.cost_pvb, "cost_pvb"),
            (ra.cost_total, rb.cost_total, "cost_total"),
            (ra.max_velocity, rb.max_velocity, "max_velocity"),
            (ra.time_step, rb.time_step, "time_step"),
            (ra.cg_beta, rb.cg_beta, "cg_beta"),
            (ra.lambda_scale, rb.lambda_scale, "lambda_scale"),
        ] {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: iter {} field {field}: {va} vs {vb}",
                ra.iteration
            );
        }
        assert_eq!(ra.rolled_back, rb.rolled_back, "{what}: rollback flag");
        assert_eq!(ra.backoffs, rb.backoffs, "{what}: backoff count");
    }
    assert_grid_bits(&a.mask, &b.mask, &format!("{what}: mask"));
    assert_grid_bits(&a.levelset, &b.levelset, &format!("{what}: ψ"));
    assert_eq!(
        a.snapshots.len(),
        b.snapshots.len(),
        "{what}: snapshot count"
    );
    for ((ia, ma), (ib, mb)) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(ia, ib, "{what}: snapshot iteration");
        assert_grid_bits(ma, mb, &format!("{what}: snapshot {ia}"));
    }
}

/// Runs `ilt` uninterrupted, then kill-at-`k`/resume, and asserts the
/// two trajectories match bitwise.
fn check_kill_resume<T: Scalar>(ilt: &LevelSetIlt, grid_px: usize, k: usize, name: &str) {
    let sim = sim::<T>(grid_px);
    let target = wire_target::<T>(grid_px);
    let baseline = ilt.optimize(&sim, &target).expect("baseline run");

    let ck = tmp_ck(&format!("{name}_k{k}"));
    std::fs::remove_file(&ck).ok();
    // "Crash" at iteration k: the budget stops the loop at the same
    // boundary a deadline or SIGINT would, and the graceful-stop path
    // writes a final checkpoint.
    let control = RunControl::new()
        .with_iteration_budget(k)
        .with_checkpoint(CheckpointSpec::new(&ck, 1));
    let killed = ilt
        .optimize_controlled(&sim, &target, &control)
        .expect("killed run");
    assert_eq!(
        killed.stopped,
        Some(StopReason::Budget),
        "{name} k={k}: budget stop recorded"
    );
    assert!(ck.exists(), "{name} k={k}: checkpoint written");

    let resumed = ilt
        .optimize_controlled(&sim, &target, &RunControl::new().with_resume(&ck))
        .expect("resumed run");
    assert!(
        resumed.stopped.is_none(),
        "{name} k={k}: resumed run completes"
    );
    assert_bit_identical(&baseline, &resumed, &format!("{name} k={k}"));
    std::fs::remove_file(ck).ok();
}

#[test]
fn plain_loop_resumes_bit_identically() {
    let ilt = LevelSetIlt::builder()
        .max_iterations(12)
        .recovery(RecoveryPolicy::Off)
        .build();
    for k in [1, 5, 9] {
        check_kill_resume::<f64>(&ilt, 64, k, "plain");
    }
}

/// Periodic checkpoints only observe: a 12-iteration run writing one
/// every `every` iterations is bit-identical to the run with no
/// control and writes 12 / `every` of them. A completed run writes no
/// final checkpoint.
#[test]
fn periodic_checkpoints_only_observe() {
    let ilt = LevelSetIlt::builder().max_iterations(12).build();
    let sim = sim::<f64>(64);
    let target = wire_target::<f64>(64);
    let baseline = ilt.optimize(&sim, &target).expect("baseline run");
    assert_eq!(baseline.iterations, 12, "premise: the run uses its budget");
    for (every, writes) in [(1, 12), (10, 1)] {
        let ck = tmp_ck(&format!("periodic_every{every}"));
        std::fs::remove_file(&ck).ok();
        let control = RunControl::new().with_checkpoint(CheckpointSpec::new(&ck, every));
        let registry = Arc::new(MetricsRegistry::new());
        let result = lsopc_trace::with_scoped_sink(registry.clone(), || {
            ilt.optimize_controlled(&sim, &target, &control)
        })
        .expect("checkpointed run");
        assert!(result.stopped.is_none(), "every={every}: run completes");
        assert_bit_identical(&baseline, &result, &format!("every={every}"));
        assert_eq!(
            registry.counter("checkpoint.write"),
            writes,
            "every={every}: checkpoint writes"
        );
        assert!(ck.exists(), "every={every}: checkpoint on disk");
        std::fs::remove_file(ck).ok();
    }
}

fn guarded() -> LevelSetIlt {
    LevelSetIlt::builder()
        .max_iterations(10)
        .recovery(RecoveryPolicy::On(GuardConfig::default()))
        .build()
}

#[test]
fn guarded_loop_resumes_bit_identically() {
    // The guard's state machine and rollback ψ ride in the checkpoint,
    // so a resume replays identical guard decisions.
    for k in [2, 6] {
        check_kill_resume::<f64>(&guarded(), 64, k, "guarded");
    }
}

#[test]
fn f32_plain_loop_resumes_bit_identically() {
    // The checkpoint stores f64; f32 → f64 → f32 is exact, so an f32
    // run resumes bit-identically too.
    let ilt = LevelSetIlt::builder()
        .max_iterations(12)
        .recovery(RecoveryPolicy::Off)
        .build();
    for k in [1, 5] {
        check_kill_resume::<f32>(&ilt, 64, k, "f32_plain");
    }
}

#[test]
fn f32_guarded_loop_resumes_bit_identically() {
    for k in [2, 6] {
        check_kill_resume::<f32>(&guarded(), 64, k, "f32_guarded");
    }
}

#[test]
fn snapshotting_loop_resumes_bit_identically() {
    // Snapshots taken before the kill ride in the checkpoint; the
    // resumed run appends the rest, ending with the final mask.
    let ilt = LevelSetIlt::builder()
        .max_iterations(8)
        .snapshot_interval(2)
        .build();
    for k in [3, 5] {
        check_kill_resume::<f64>(&ilt, 64, k, "snapshots");
    }
}

#[test]
fn scheduled_run_resumes_in_coarse_stage() {
    // 3 coarse + 2 fine iterations; killing at k=2 lands mid-coarse, so
    // the resume re-enters the coarse stage and still reproduces the
    // stage merge bitwise.
    let ilt = LevelSetIlt::builder()
        .max_iterations(5)
        .schedule(Some(ResolutionSchedule::new(128, 4, 3, 2)))
        .build();
    check_kill_resume::<f64>(&ilt, 256, 2, "scheduled_coarse");
}

#[test]
fn scheduled_run_resumes_in_fine_stage() {
    // Killing at k=4 lands after the full coarse stage plus one fine
    // iteration: the checkpoint's CoarseCarry must reproduce the merged
    // history and diagnostics without re-running the coarse stage.
    let ilt = LevelSetIlt::builder()
        .max_iterations(5)
        .schedule(Some(ResolutionSchedule::new(128, 4, 3, 2)))
        .build();
    check_kill_resume::<f64>(&ilt, 256, 4, "scheduled_fine");
}
