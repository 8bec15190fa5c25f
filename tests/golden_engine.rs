//! Golden bit-identity test of the production path: `Engine::submit`
//! runs every job on the accelerated backend, which `golden_f64` (the
//! `FftBackend` at 64²) does not reach.
//!
//! The hash is FNV-1a over `to_bits` of the outputs at K = 24 on a
//! 256² grid: for the flat jobs (case B1, 4 iterations, f64 and f32 loop
//! arithmetic) the mask, the final ψ and each history record's cost,
//! peak velocity and time step; for the tiled job (the repeated-motif
//! layout in 64 px tiles with the in-memory warm-start cache) the
//! stitched mask and the full-resolution iteration count. Any change to
//! the order of floating-point operations anywhere on those paths moves
//! them. The values are the same at every pool size (`LSOPC_THREADS`).

use lsopc::benchsuite::{generate_layout, CaseSpec, RepeatedTileSpec};
use lsopc::engine::{
    pixel_nm, Engine, JobDetail, JobOutcome, JobSpec, Precision, Tiling, WarmStart,
};
use lsopc::geometry::{rasterize, Layout};
use lsopc::grid::Grid;

const GRID: usize = 256;

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_grid(&mut self, g: &Grid<f64>) {
        for &v in g.as_slice() {
            self.push(v.to_bits());
        }
    }
}

fn target(layout: &Layout) -> Grid<f64> {
    rasterize(layout, GRID, GRID, pixel_nm(GRID))
}

fn submit(spec: &JobSpec) -> JobOutcome {
    Engine::builder()
        .build()
        .submit(spec)
        .expect("the job runs")
}

fn flat_hash(precision: Precision) -> u64 {
    let mut spec = JobSpec::new(target(&generate_layout(&CaseSpec::all()[0])));
    spec.iterations = 4;
    spec.precision = precision;
    spec.collect_metrics = false;
    let JobDetail::Flat(result) = submit(&spec).detail else {
        panic!("a job without tiling runs flat");
    };
    let mut h = Fnv::new();
    h.push_grid(&result.mask);
    h.push_grid(&result.levelset);
    for r in &result.history {
        h.push(r.cost_total.to_bits());
        h.push(r.max_velocity.to_bits());
        h.push(r.time_step.to_bits());
    }
    h.0
}

#[test]
fn flat_f64_job_is_bit_identical_to_pinned_output() {
    let hash = flat_hash(Precision::F64);
    println!("flat f64 engine hash: {hash:#018x}");
    assert_eq!(
        hash, GOLDEN_FLAT_F64,
        "flat f64 engine output drifted bitwise"
    );
}

#[test]
fn flat_f32_job_is_bit_identical_to_pinned_output() {
    let hash = flat_hash(Precision::F32);
    println!("flat f32 engine hash: {hash:#018x}");
    assert_eq!(
        hash, GOLDEN_FLAT_F32,
        "flat f32 engine output drifted bitwise"
    );
}

#[test]
fn tiled_warm_job_is_bit_identical_to_pinned_output() {
    let mut spec = JobSpec::new(target(&RepeatedTileSpec::default_repeated().generate()));
    spec.iterations = 3;
    spec.tiling = Some(Tiling::new(64, 0).expect("power-of-two core, no halo"));
    spec.warm_start = Some(WarmStart::Memory);
    spec.warm_iterations = 1;
    spec.collect_metrics = false;
    let JobDetail::Tiled { mask, stats } = submit(&spec).detail else {
        panic!("a tiled job reports tile statistics");
    };
    let mut h = Fnv::new();
    h.push_grid(&mask);
    h.push(stats.full_iterations() as u64);
    let hash = h.0;
    println!("tiled engine hash: {hash:#018x}");
    assert_eq!(hash, GOLDEN_TILED, "tiled engine output drifted bitwise");
}

const GOLDEN_FLAT_F64: u64 = 0xbfa9_f66a_d47c_6b79;
const GOLDEN_FLAT_F32: u64 = 0x279b_8ab2_7586_313f;
const GOLDEN_TILED: u64 = 0x7b09_cfbb_a228_0557;
