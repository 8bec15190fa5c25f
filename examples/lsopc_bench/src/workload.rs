//! The benchmark's workloads: what each one submits, and the inputs it
//! generates from the seed. The program under test only ever receives
//! the generated rasters.

use lsopc_benchsuite::{generate_layout, CaseSpec, RepeatedTileSpec};
use lsopc_engine::{pixel_nm, JobSpec, Precision, Tiling, WarmStart};
use lsopc_geometry::{rasterize, Layout};
use lsopc_grid::Grid;

/// Every workload, in the order a full invocation runs them.
pub const NAMES: [&str; 4] = ["iccad512", "iccad512_f32", "iccad1024", "tiled_repeat1024"];

/// One target: the geometric layout (scoring places EPE probes on it)
/// and its raster on the workload grid.
pub struct Case {
    pub name: String,
    pub layout: Layout,
    pub target: Grid<f64>,
}

impl Case {
    fn new(name: String, layout: Layout, grid: usize) -> Self {
        let target = rasterize(&layout, grid, grid, pixel_nm(grid));
        Self {
            name,
            layout,
            target,
        }
    }
}

pub enum Mode {
    /// Whole-field solves at the given loop precision; one warm engine
    /// serves every pass.
    Flat(Precision),
    /// Tiled solves with the in-memory warm-start cache; every pass uses
    /// a fresh engine and submits the same job `submissions` times.
    Tiled {
        tiling: Tiling,
        warm_iterations: usize,
        submissions: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    /// The input seed and size the workload was built with.
    pub seed: u64,
    pub quick: bool,
    pub grid: usize,
    pub kernels: usize,
    pub iterations: usize,
    pub mode: Mode,
    pub cases: Vec<Case>,
    /// Also submit one zero-area target per pass, which must come back
    /// as a typed error.
    pub empty_probe: bool,
}

impl Workload {
    /// Builds workload `name` with inputs derived from `seed`; `None`
    /// for an unknown name. `quick` shrinks every workload to 256², K=8,
    /// 2 iterations and 2 cases.
    pub fn build(name: &str, seed: u64, quick: bool) -> Option<Self> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let (grid, kernels) = match (quick, name) {
            (true, _) => (256, 8),
            (false, "iccad1024" | "tiled_repeat1024") => (1024, 24),
            (false, _) => (512, 24),
        };
        let iterations = match (quick, name) {
            (true, _) => 2,
            (false, "iccad1024") => 6,
            (false, "tiled_repeat1024") => 9,
            (false, _) => 8,
        };
        let mode = match name {
            "iccad512_f32" => Mode::Flat(Precision::F32),
            "tiled_repeat1024" => {
                // One 512 nm motif cell per tile core, so every tile is a
                // translation of the first.
                let core = grid / 4;
                Mode::Tiled {
                    tiling: Tiling::new(core, 0).expect("power-of-two core, no halo"),
                    warm_iterations: if quick { 1 } else { 3 },
                    submissions: 3,
                }
            }
            _ => Mode::Flat(Precision::F64),
        };
        let cases = match name {
            "tiled_repeat1024" => {
                let layout = RepeatedTileSpec::default_repeated().generate();
                vec![Case::new("R1".into(), layout, grid)]
            }
            _ => {
                // B1, B4 and B10 span the suite's pattern-area range.
                let picks: &[usize] = match (quick, name) {
                    (true, _) => &[0, 1],
                    (false, "iccad1024") => &[0, 3, 9],
                    (false, _) => &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                };
                let all = CaseSpec::all();
                picks
                    .iter()
                    .map(|&i| {
                        let spec = CaseSpec {
                            seed: all[i].seed.wrapping_add(seed),
                            ..all[i].clone()
                        };
                        Case::new(spec.name.clone(), generate_layout(&spec), grid)
                    })
                    .collect()
            }
        };
        Some(Self {
            name,
            seed,
            quick,
            grid,
            kernels,
            iterations,
            mode,
            cases,
            empty_probe: name == "iccad512",
        })
    }

    /// The engine job for one case, as the benchmark submits it.
    pub fn spec(&self, case: &Case) -> JobSpec {
        let mut spec = JobSpec::new(case.target.clone());
        spec.kernels = self.kernels;
        spec.iterations = self.iterations;
        spec.collect_metrics = false;
        match &self.mode {
            Mode::Flat(precision) => spec.precision = *precision,
            Mode::Tiled {
                tiling,
                warm_iterations,
                ..
            } => {
                spec.tiling = Some(*tiling);
                spec.warm_start = Some(WarmStart::Memory);
                spec.warm_iterations = *warm_iterations;
            }
        }
        spec
    }

    /// The zero-area job of the empty-target probe.
    pub fn empty_spec(&self) -> JobSpec {
        let mut spec = self.spec(&self.cases[0]);
        spec.target = Grid::new(self.grid, self.grid, 0.0);
        spec
    }

    /// The grid each solve runs on: the tile window when tiled.
    pub fn solve_px(&self) -> usize {
        match &self.mode {
            Mode::Flat(_) => self.grid,
            Mode::Tiled { tiling, .. } => tiling.window(),
        }
    }

    pub fn is_f32(&self) -> bool {
        matches!(self.mode, Mode::Flat(Precision::F32))
    }
}
