//! Tile-partitioned optimization for large fields.
//!
//! Full-chip ILT never optimizes one giant grid: the layout is cut into
//! tiles with an optical-interaction halo, each tile is optimized
//! independently (embarrassingly parallel in production), and the tile
//! cores are stitched back together. The optical interaction range of the
//! 193 nm / NA 1.35 system is a few hundred nanometres, so a halo of
//! ~128 nm already isolates tiles to high accuracy.
//!
//! This module implements that flow on top of [`LevelSetIlt`]; it is an
//! extension beyond the paper (whose benchmarks are single tiles by
//! construction). With a [`WarmStartCache`] attached, repeated tile
//! patterns are recognized by content (translation-invariant
//! fingerprints) and solved with a short warm refinement from the cached
//! ψ instead of a full cold run — see DESIGN.md §14.

use crate::resume::{self, RunControl, TileCheckpoint};
use crate::warmstart::{fingerprint, PatternFingerprint, WarmStartCache};
use crate::{IltResult, LevelSetIlt, OptimizeError, SolverDiagnostics, StopReason};
use lsopc_grid::Grid;
use lsopc_litho::{BuildSimulatorError, LithoSimulator};
use lsopc_optics::OpticsConfig;
use lsopc_parallel::ParallelContext;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Error from tiled optimization.
#[derive(Debug)]
pub enum TiledError {
    /// The tile/halo configuration is invalid for the target grid.
    BadConfiguration(String),
    /// Building a tile simulator failed.
    Simulator(BuildSimulatorError),
    /// A tile optimization failed.
    Optimize(OptimizeError),
    /// The checkpoint/resume directory could not be used.
    Checkpoint(String),
}

impl fmt::Display for TiledError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadConfiguration(msg) => write!(f, "bad tile configuration: {msg}"),
            Self::Simulator(e) => write!(f, "tile simulator: {e}"),
            Self::Optimize(e) => write!(f, "tile optimization: {e}"),
            Self::Checkpoint(msg) => write!(f, "tile checkpoint: {msg}"),
        }
    }
}

impl Error for TiledError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::BadConfiguration(_) | Self::Checkpoint(_) => None,
            Self::Simulator(e) => Some(e),
            Self::Optimize(e) => Some(e),
        }
    }
}

impl From<BuildSimulatorError> for TiledError {
    fn from(e: BuildSimulatorError) -> Self {
        Self::Simulator(e)
    }
}

impl From<OptimizeError> for TiledError {
    fn from(e: OptimizeError) -> Self {
        Self::Optimize(e)
    }
}

/// What a tiled run did: tile counts and iteration totals, split by
/// whether the tile solved cold (full run from the target's signed
/// distance) or warm (short refinement from a cached ψ).
///
/// "Full" iterations are full-resolution ones — with a
/// [`ResolutionSchedule`](crate::ResolutionSchedule) on the tile
/// optimizer, coarse-stage iterations are tallied separately.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TiledStats {
    /// Non-empty tiles optimized.
    pub tiles: usize,
    /// Tiles solved cold.
    pub cold: usize,
    /// Tiles warm-started from the cache.
    pub warm: usize,
    /// Full-resolution iterations spent on cold tiles.
    pub cold_full_iterations: usize,
    /// Full-resolution iterations spent on warm tiles.
    pub warm_full_iterations: usize,
    /// Coarse-stage iterations across all tiles (0 without a schedule).
    pub coarse_iterations: usize,
    /// Tiles restored from a checkpoint directory instead of solved
    /// (also counted in [`TiledStats::tiles`] and the cold/warm split).
    pub resumed: usize,
    /// Tiles left unsolved by a cancellation or deadline; the stitched
    /// output falls back to the target pattern in those regions.
    pub unfinished: usize,
    /// Why the run stopped early (`None` when every tile completed).
    pub stopped: Option<StopReason>,
}

impl TiledStats {
    /// Total full-resolution iterations across all tiles.
    pub fn full_iterations(&self) -> usize {
        self.cold_full_iterations + self.warm_full_iterations
    }

    fn tally(&mut self, result: &IltResult<f64>, warm: bool) {
        self.tiles += 1;
        let full = result.iterations - result.coarse_iterations;
        self.coarse_iterations += result.coarse_iterations;
        if warm {
            self.warm += 1;
            self.warm_full_iterations += full;
        } else {
            self.cold += 1;
            self.cold_full_iterations += full;
        }
    }
}

/// Tile-partitioned level-set ILT.
///
/// # Example
///
/// ```no_run
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use lsopc_core::{LevelSetIlt, TiledIlt};
/// use lsopc_grid::Grid;
/// use lsopc_optics::OpticsConfig;
///
/// let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(20).build(), 128, 64)?;
/// let target = Grid::new(512, 512, 0.0);
/// let mask = tiled.optimize(&OpticsConfig::iccad2013(), &target, 4.0)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TiledIlt {
    optimizer: LevelSetIlt,
    core_px: usize,
    halo_px: usize,
    warm_start: Option<WarmStartCache>,
    warm_iterations: Option<usize>,
    /// `None` → [`ParallelContext::global`].
    ctx: Option<ParallelContext>,
    control: Option<RunControl>,
    /// The plan cache of the internal tile simulator.
    caches: lsopc_litho::SimCaches,
}

impl TiledIlt {
    /// Creates a tiled optimizer: tiles of `core_px` pixels, extended by
    /// `halo_px` of context on every side (`core + 2·halo` must be a
    /// power of two).
    ///
    /// # Errors
    ///
    /// Returns [`TiledError::BadConfiguration`] when the geometry is
    /// degenerate: a zero core, a halo at least as large as the core
    /// (the "core" would be mostly duplicated context), an overflowing
    /// tile size, or a tile that is not a power of two (FFT
    /// requirement).
    pub fn new(optimizer: LevelSetIlt, core_px: usize, halo_px: usize) -> Result<Self, TiledError> {
        let bad = |msg: String| Err(TiledError::BadConfiguration(msg));
        if core_px == 0 {
            return bad("core size must be positive".into());
        }
        if halo_px >= core_px {
            return bad(format!(
                "halo {halo_px}px must be smaller than the {core_px}px core"
            ));
        }
        let Some(tile) = halo_px
            .checked_mul(2)
            .and_then(|h2| core_px.checked_add(h2))
        else {
            return bad(format!("tile size {core_px} + 2·{halo_px} overflows"));
        };
        if !tile.is_power_of_two() {
            return bad(format!("core + 2·halo = {tile} must be a power of two"));
        }
        Ok(Self {
            optimizer,
            core_px,
            halo_px,
            warm_start: None,
            warm_iterations: None,
            ctx: None,
            control: None,
            caches: lsopc_litho::SimCaches::default(),
        })
    }

    /// Attaches a [`WarmStartCache`]: tiles whose pattern (up to
    /// whole-pixel translation) is already cached — from an earlier run
    /// via a shared/directory cache, or from an earlier tile of this run
    /// — skip the cold solve and run a short refinement from the cached
    /// ψ.
    pub fn with_warm_start(mut self, cache: WarmStartCache) -> Self {
        self.warm_start = Some(cache);
        self
    }

    /// Overrides the warm-tile refinement budget (default: a quarter of
    /// the optimizer's `max_iterations`, at least 2).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_warm_iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "warm iteration budget must be positive");
        self.warm_iterations = Some(iterations);
        self
    }

    /// Runs tile optimizations on an explicit [`ParallelContext`] instead
    /// of the process-global one (tests and thread-count sweeps).
    pub fn with_context(mut self, ctx: ParallelContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Attaches run-lifecycle controls ([`RunControl`]). The cancel
    /// token and deadline are observed at tile-claim points (unclaimed
    /// tiles drain promptly after a stop) and inside every tile's
    /// iteration loop; tiles interrupted mid-solve stitch their
    /// best-so-far mask and count as
    /// [`unfinished`](TiledStats::unfinished).
    ///
    /// For tiled runs a [`CheckpointSpec`](crate::CheckpointSpec) path
    /// names a *directory*: each completed tile is persisted there as
    /// its own file (`tile_<x>_<y>.tile`), and a resume path restores
    /// completed tiles from such a directory, re-solving any missing,
    /// corrupt or configuration-mismatched entries. Iteration budgets
    /// are rejected ([`TiledError::BadConfiguration`]) — a global
    /// iteration count is not meaningful across concurrent tiles.
    pub fn with_run_control(mut self, control: RunControl) -> Self {
        self.control = Some(control);
        self
    }

    /// Injects a shared plan cache ([`lsopc_litho::SimCaches`]) into the
    /// tile simulator built by [`Self::optimize_with_stats`], so tiled
    /// runs of one host process (the engine) amortize FFT plans across
    /// optimizers. Without it, the optimizer and its clones share a fresh
    /// cache of their own.
    pub fn with_caches(mut self, caches: lsopc_litho::SimCaches) -> Self {
        self.caches = caches;
        self
    }

    fn ctx(&self) -> &ParallelContext {
        self.ctx
            .as_ref()
            .unwrap_or_else(|| ParallelContext::global())
    }

    /// Tile size including halo.
    pub fn tile_px(&self) -> usize {
        self.core_px + 2 * self.halo_px
    }

    /// The warm-tile refinement budget in effect.
    pub fn warm_iterations(&self) -> usize {
        self.warm_iterations
            .unwrap_or_else(|| (self.optimizer.max_iterations / 4).max(2))
    }

    /// Hash binding a tile checkpoint to the solver configuration, the
    /// tile geometry and the tile's target content — a mismatch on any
    /// of them re-solves the tile instead of restoring a stale result.
    fn tile_hash(&self, sim: &LithoSimulator<f64>, tile_target: &Grid<f64>) -> u64 {
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let base = resume::config_hash(&self.optimizer, sim, tile_target, None);
        let h = fold(base, self.core_px as u64);
        let h = fold(h, self.halo_px as u64);
        fold(h, self.warm_iterations() as u64)
    }

    /// Persists one completed tile under the checkpoint directory.
    /// A write failure degrades to a warning — the run's result does
    /// not depend on the checkpoint.
    fn persist_tile(
        &self,
        dir: &Path,
        tx: usize,
        ty: usize,
        hash: u64,
        warm: bool,
        result: &IltResult<f64>,
    ) {
        let tc = TileCheckpoint {
            hash,
            warm,
            iterations: result.iterations,
            coarse_iterations: result.coarse_iterations,
            mask: result.mask.clone(),
            levelset: result.levelset.clone(),
        };
        let path = dir.join(resume::tile_entry_name(tx, ty));
        match resume::write_tile_checkpoint(&path, &tc) {
            Ok(()) => lsopc_trace::count("checkpoint.write", 1),
            Err(e) => lsopc_trace::warn(
                "tiles",
                &format!("failed to write tile checkpoint {}: {e}", path.display()),
            ),
        }
    }

    /// Optimizes a (possibly large) target by tiles and stitches the
    /// result. Empty tiles are skipped. See
    /// [`TiledIlt::optimize_with_stats`] for the full contract.
    ///
    /// # Errors
    ///
    /// Returns [`TiledError`] when the target is not a multiple of the
    /// core size, or a tile fails to simulate/optimize.
    pub fn optimize(
        &self,
        optics: &OpticsConfig,
        target: &Grid<f64>,
        pixel_nm: f64,
    ) -> Result<Grid<f64>, TiledError> {
        self.optimize_with_stats(optics, target, pixel_nm)
            .map(|(mask, _)| mask)
    }

    /// [`TiledIlt::optimize`], also reporting per-run [`TiledStats`].
    ///
    /// Tiles are independent given the halo design and are optimized
    /// concurrently on the shared pool. The stitch (and the choice of
    /// which error is reported when several tiles fail) follows the
    /// deterministic row-major tile order, so the output never depends
    /// on which tile finished first.
    ///
    /// With a warm-start cache the run is two deterministic phases:
    /// every pattern's first occurrence (row-major) not already cached
    /// solves cold in phase one and is stored; phase two warm-starts the
    /// remaining tiles from the cache. Classification depends only on
    /// the tile contents and the cache state at entry — never on thread
    /// scheduling — so results are bit-identical across thread counts
    /// (pinned by `tests/parallel_tiles.rs`). Cold-phase failures are
    /// reported (first in row-major order) before warm-phase ones.
    ///
    /// With a [`RunControl`] attached (see
    /// [`TiledIlt::with_run_control`]) the run stops gracefully on
    /// cancellation or deadline — completed tiles keep their solved
    /// masks, interrupted tiles stitch best-so-far, untouched tiles
    /// fall back to the target pattern — and completed tiles persist
    /// to / restore from a per-tile checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns [`TiledError`] when the target is not a multiple of the
    /// core size, a tile fails to simulate/optimize, or the
    /// checkpoint/resume directory is unusable.
    pub fn optimize_with_stats(
        &self,
        optics: &OpticsConfig,
        target: &Grid<f64>,
        pixel_nm: f64,
    ) -> Result<(Grid<f64>, TiledStats), TiledError> {
        let (w, h) = target.dims();
        if w % self.core_px != 0 || h % self.core_px != 0 {
            return Err(TiledError::BadConfiguration(format!(
                "target {w}x{h} is not a multiple of the {}px core",
                self.core_px
            )));
        }
        let control = self.control.clone().unwrap_or_default();
        if control.iteration_budget.is_some() {
            return Err(TiledError::BadConfiguration(
                "iteration budgets are not supported for tiled runs \
                 (a global iteration count is not meaningful across concurrent tiles)"
                    .into(),
            ));
        }
        let tile = self.tile_px();
        // Each tile solve is serial (the fan-out is across tiles), hence
        // the 1-thread backend; the plan cache forwards to it because the
        // simulator is built here, out of the caller's reach.
        let sim = LithoSimulator::from_optics(optics, tile, pixel_nm)?
            .with_backend(Box::new(lsopc_litho::AcceleratedBackend::new(1)))
            .with_caches(self.caches.clone());
        // Warm the per-defocus kernel cache before fanning out so
        // concurrent tiles don't all generate the same kernels on a miss.
        let corners = sim.corners();
        for c in [corners.nominal, corners.inner, corners.outer] {
            let _ = sim.kernels_for(c.defocus_nm);
        }

        // Collect the non-empty tiles in row-major order.
        let mut tiles: Vec<(usize, usize, Grid<f64>)> = Vec::new();
        for ty in (0..h).step_by(self.core_px) {
            for tx in (0..w).step_by(self.core_px) {
                // Extract the tile with halo; outside the target is empty.
                let tile_target = Grid::from_fn(tile, tile, |x, y| {
                    let gx = tx as i64 + x as i64 - self.halo_px as i64;
                    let gy = ty as i64 + y as i64 - self.halo_px as i64;
                    if gx >= 0 && gy >= 0 && (gx as usize) < w && (gy as usize) < h {
                        target[(gx as usize, gy as usize)]
                    } else {
                        0.0
                    }
                });
                if tile_target.sum() == 0.0 {
                    continue; // nothing to optimize here
                }
                tiles.push((tx, ty, tile_target));
            }
        }

        let mut slots: Vec<Option<IltResult<f64>>> = (0..tiles.len()).map(|_| None).collect();
        let mut stats = TiledStats::default();

        // Per-tile checkpointing: the spec's path is a directory of one
        // file per completed tile.
        let ck_dir: Option<&Path> = control.checkpoint.as_ref().map(|s| s.path.as_path());
        if let Some(dir) = ck_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                TiledError::Checkpoint(format!(
                    "cannot create checkpoint directory {}: {e}",
                    dir.display()
                ))
            })?;
        }

        // Restore completed tiles before classification so that a
        // restored cold tile still seeds the warm-start cache for its
        // in-run repeats. Missing entries are normal (the previous run
        // was interrupted); corrupt or mismatched entries degrade to a
        // re-solve with a warning, never an error.
        if let Some(dir) = control.resume.as_ref() {
            if !dir.is_dir() {
                return Err(TiledError::Checkpoint(format!(
                    "resume path {} is not a tile checkpoint directory",
                    dir.display()
                )));
            }
            let _span = lsopc_trace::span!("tiles.phase.resume");
            for (i, (tx, ty, t)) in tiles.iter().enumerate() {
                let path = dir.join(resume::tile_entry_name(*tx, *ty));
                if !path.exists() {
                    continue;
                }
                let tc = match resume::load_tile_checkpoint(&path) {
                    Ok(tc) => tc,
                    Err(e) => {
                        lsopc_trace::warn(
                            "tiles",
                            &format!("ignoring tile checkpoint {}: {e}", path.display()),
                        );
                        continue;
                    }
                };
                if tc.hash != self.tile_hash(&sim, t) {
                    lsopc_trace::warn(
                        "tiles",
                        &format!(
                            "ignoring tile checkpoint {}: configuration or content changed",
                            path.display()
                        ),
                    );
                    continue;
                }
                if tc.mask.dims() != (tile, tile) || tc.levelset.dims() != (tile, tile) {
                    lsopc_trace::warn(
                        "tiles",
                        &format!(
                            "ignoring tile checkpoint {}: wrong dimensions",
                            path.display()
                        ),
                    );
                    continue;
                }
                if let Some(cache) = &self.warm_start {
                    if !tc.warm {
                        let fp = fingerprint(t).expect("non-empty tiles have fingerprints");
                        cache.store(&fp, &tc.levelset);
                    }
                }
                let result = IltResult {
                    mask: tc.mask,
                    levelset: tc.levelset,
                    history: Vec::new(),
                    iterations: tc.iterations,
                    coarse_iterations: tc.coarse_iterations,
                    converged: true,
                    runtime_s: 0.0,
                    snapshots: Vec::new(),
                    diagnostics: SolverDiagnostics::default(),
                    stopped: None,
                };
                stats.tally(&result, tc.warm);
                stats.resumed += 1;
                lsopc_trace::count("tiles.resume", 1);
                slots[i] = Some(result);
            }
        }

        // The effective cancel token: tile-internal stops (deadline
        // expiring mid-tile) are promoted into it so unclaimed tiles
        // drain instead of starting doomed solves.
        let token = control.cancel.clone().unwrap_or_default();
        let mut tile_control = RunControl::new().with_cancel(token.clone());
        if let Some(deadline) = control.deadline {
            tile_control = tile_control.with_deadline(deadline);
        }

        // Classify tiles by content, in row-major order so the choice of
        // each pattern's cold representative is deterministic. Restored
        // tiles participate in first-occurrence bookkeeping (their
        // pattern is already solved) but get no plan of their own.
        let plans: Vec<Option<PatternFingerprint>> = match &self.warm_start {
            None => vec![None; tiles.len()],
            Some(cache) => {
                let mut seen: HashSet<u64> = HashSet::new();
                tiles
                    .iter()
                    .enumerate()
                    .map(|(i, (_, _, t))| {
                        let fp = fingerprint(t).expect("non-empty tiles have fingerprints");
                        let first = seen.insert(fp.key());
                        if slots[i].is_some() {
                            return None;
                        }
                        let warm = if first {
                            // First occurrence: warm only on a cache hit
                            // from an earlier run (counts hit/miss).
                            cache.lookup(&fp).is_some()
                        } else {
                            // In-run repeat of a pattern being solved
                            // cold (or already warm) this run.
                            lsopc_trace::count("cache.warmstart.hit", 1);
                            true
                        };
                        if warm {
                            Some(fp)
                        } else {
                            None
                        }
                    })
                    .collect()
            }
        };

        // Phase one: cold tiles (everything unrestored, without a cache).
        let cold_idx: Vec<usize> = (0..tiles.len())
            .filter(|&i| slots[i].is_none() && plans[i].is_none())
            .collect();
        {
            let _span = lsopc_trace::span!("tiles.phase.cold");
            let results = self.ctx().par_map_cancellable(cold_idx.len(), &token, |j| {
                if let Some(reason) = tile_control.stop_requested(0) {
                    token.cancel(reason);
                }
                self.optimizer
                    .optimize_controlled(&sim, &tiles[cold_idx[j]].2, &tile_control)
            });
            for (&i, result) in cold_idx.iter().zip(results) {
                let Some(result) = result else {
                    stats.unfinished += 1;
                    continue;
                };
                let result = result?;
                if let Some(reason) = result.stopped {
                    token.cancel(reason);
                    stats.unfinished += 1;
                    slots[i] = Some(result);
                    continue;
                }
                if let Some(cache) = &self.warm_start {
                    let fp = fingerprint(&tiles[i].2).expect("non-empty tiles have fingerprints");
                    cache.store(&fp, &result.levelset);
                }
                if let Some(dir) = ck_dir {
                    let (tx, ty, t) = &tiles[i];
                    self.persist_tile(dir, *tx, *ty, self.tile_hash(&sim, t), false, &result);
                }
                stats.tally(&result, false);
                slots[i] = Some(result);
            }
        }

        // Phase two: warm tiles, refined from the cache that phase one
        // just completed. A cache entry that went missing (e.g. a
        // corrupt directory entry) degrades to a cold solve.
        let warm_idx: Vec<usize> = (0..tiles.len()).filter(|&i| plans[i].is_some()).collect();
        if !warm_idx.is_empty() {
            let _span = lsopc_trace::span!("tiles.phase.warm");
            let cache = self.warm_start.as_ref().expect("warm tiles imply a cache");
            let mut warm_opt = self.optimizer.clone();
            warm_opt.max_iterations = self.warm_iterations();
            let results = self.ctx().par_map_cancellable(warm_idx.len(), &token, |j| {
                if let Some(reason) = tile_control.stop_requested(0) {
                    token.cancel(reason);
                }
                let i = warm_idx[j];
                let fp = plans[i].as_ref().expect("warm plan");
                match cache.lookup_uncounted(fp) {
                    Some(psi0) => warm_opt
                        .optimize_from_controlled(&sim, &tiles[i].2, psi0, &tile_control)
                        .map(|r| (r, true)),
                    None => self
                        .optimizer
                        .optimize_controlled(&sim, &tiles[i].2, &tile_control)
                        .map(|r| (r, false)),
                }
            });
            for (&i, result) in warm_idx.iter().zip(results) {
                let Some(result) = result else {
                    stats.unfinished += 1;
                    continue;
                };
                let (result, warm) = result?;
                if let Some(reason) = result.stopped {
                    token.cancel(reason);
                    stats.unfinished += 1;
                    slots[i] = Some(result);
                    continue;
                }
                if let Some(dir) = ck_dir {
                    let (tx, ty, t) = &tiles[i];
                    self.persist_tile(dir, *tx, *ty, self.tile_hash(&sim, t), warm, &result);
                }
                stats.tally(&result, warm);
                slots[i] = Some(result);
            }
        }
        stats.stopped = token.cancelled();
        if let Some(reason) = stats.stopped {
            lsopc_trace::count(reason.counter_name(), 1);
        }

        // Stitch in row-major tile order. On a stopped run, tiles that
        // never produced a mask fall back to their target core — the
        // best-so-far output for an unstarted tile is the pattern
        // itself.
        let mut out = Grid::new(w, h, 0.0);
        for ((tx, ty, t), slot) in tiles.iter().zip(slots) {
            for y in 0..self.core_px {
                for x in 0..self.core_px {
                    let v = match &slot {
                        Some(result) => result.mask[(x + self.halo_px, y + self.halo_px)],
                        None => t[(x + self.halo_px, y + self.halo_px)],
                    };
                    out[(tx + x, ty + y)] = v;
                }
            }
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_litho::ProcessCondition;

    fn optics() -> OpticsConfig {
        OpticsConfig::iccad2013().with_kernel_count(4)
    }

    /// Two features in different tiles of a 256-px target.
    fn two_tile_target() -> Grid<f64> {
        Grid::from_fn(256, 256, |x, y| {
            let a = (40..60).contains(&x) && (30..90).contains(&y);
            let b = (180..200).contains(&x) && (160..220).contains(&y);
            if a || b {
                1.0
            } else {
                0.0
            }
        })
    }

    /// The same 20×56 feature twice in a 512-px target: once tucked in
    /// the top-left corner (visible only to tile (0,0)'s window) and
    /// once at +(256, 256), where the 2-tile-overlapping windows make it
    /// fully visible — as a pure translation — to four tiles. One
    /// pattern key, five non-empty tiles.
    fn repeated_tile_target() -> Grid<f64> {
        Grid::from_fn(512, 512, |x, y| {
            let a = (8..28).contains(&x) && (4..60).contains(&y);
            let b = (264..284).contains(&x) && (260..316).contains(&y);
            if a || b {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn tiled_mask_covers_both_features() {
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(6).build(), 128, 64)
            .expect("valid tiling");
        let target = two_tile_target();
        let mask = tiled.optimize(&optics(), &target, 4.0).expect("tiles run");
        assert_eq!(mask.dims(), (256, 256));
        // The mask prints both features.
        let sim = LithoSimulator::from_optics(&optics(), 256, 4.0)
            .expect("valid")
            .with_accelerated_backend(1);
        let printed = sim.print(&mask, ProcessCondition::NOMINAL);
        let (_, comps) = lsopc_geometry::label_components(&printed, 0.5);
        assert_eq!(comps.len(), 2, "both features must print");
    }

    #[test]
    fn tiled_matches_monolithic_for_isolated_features() {
        // With a halo covering the optical interaction range, tiling is
        // nearly transparent: the printed results agree.
        let opt = LevelSetIlt::builder().max_iterations(6).build();
        let target = two_tile_target();
        let tiled_mask = TiledIlt::new(opt.clone(), 128, 64)
            .expect("valid tiling")
            .optimize(&optics(), &target, 4.0)
            .expect("tiles run");
        let sim = LithoSimulator::from_optics(&optics(), 256, 4.0)
            .expect("valid")
            .with_accelerated_backend(1);
        let mono = opt.optimize(&sim, &target).expect("monolithic runs");
        let p_tiled = sim.print(&tiled_mask, ProcessCondition::NOMINAL);
        let p_mono = sim.print(&mono.mask, ProcessCondition::NOMINAL);
        // Printed images agree except a small fraction of pixels.
        let differing = p_tiled
            .as_slice()
            .iter()
            .zip(p_mono.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            differing < 256 * 256 / 200,
            "tiled and monolithic prints differ on {differing} px"
        );
    }

    #[test]
    fn empty_tiles_are_skipped_cheaply() {
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(4).build(), 128, 64)
            .expect("valid tiling");
        let target = Grid::from_fn(512, 512, |x, y| {
            if (40..60).contains(&x) && (30..90).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let start = std::time::Instant::now();
        let mask = tiled.optimize(&optics(), &target, 4.0).expect("tiles run");
        let with_empty = start.elapsed();
        assert!(mask.sum() > 0.0);
        // 15 of 16 tiles are empty; the run must be much faster than 16
        // tile optimizations (loose sanity bound: under 16x one tile).
        assert!(with_empty.as_secs_f64() < 30.0);
    }

    #[test]
    fn rejects_misaligned_target() {
        let tiled = TiledIlt::new(LevelSetIlt::default(), 128, 64).expect("valid tiling");
        let target = Grid::new(200, 200, 1.0);
        let err = tiled
            .optimize(&optics(), &target, 4.0)
            .expect_err("misaligned");
        assert!(matches!(err, TiledError::BadConfiguration(_)));
        assert!(err.to_string().contains("multiple"));
    }

    #[test]
    fn rejects_degenerate_tile_geometry() {
        for (core, halo, needle) in [
            (0usize, 0usize, "positive"),
            (100, 10, "power of two"),
            (128, 128, "smaller than"),
            (64, 96, "smaller than"),
            (usize::MAX - 1, 4, "overflow"),
        ] {
            let err = TiledIlt::new(LevelSetIlt::default(), core, halo)
                .err()
                .unwrap_or_else(|| panic!("core {core} halo {halo} must be rejected"));
            assert!(matches!(err, TiledError::BadConfiguration(_)));
            assert!(
                err.to_string().contains(needle),
                "core {core} halo {halo}: got {err}"
            );
        }
    }

    #[test]
    fn accepts_the_standard_geometry() {
        let tiled = TiledIlt::new(LevelSetIlt::default(), 128, 64).expect("128+2·64=256 is valid");
        assert_eq!(tiled.tile_px(), 256);
    }

    #[test]
    fn warm_start_reuses_repeated_tiles() {
        let opt = LevelSetIlt::builder().max_iterations(8).build();
        let cache = WarmStartCache::in_memory();
        let tiled = TiledIlt::new(opt, 128, 64)
            .expect("valid tiling")
            .with_warm_start(cache.clone());
        let (mask, stats) = tiled
            .optimize_with_stats(&optics(), &repeated_tile_target(), 4.0)
            .expect("tiles run");
        assert!(mask.sum() > 0.0);
        assert_eq!(stats.tiles, 5);
        assert_eq!(stats.cold, 1, "one representative solves cold");
        assert_eq!(stats.warm, 4, "every repeat warm-starts");
        assert_eq!(cache.len(), 1, "one pattern cached");
        let per_warm = stats.warm_full_iterations as f64 / stats.warm as f64;
        let per_cold = stats.cold_full_iterations as f64 / stats.cold as f64;
        assert!(
            per_warm < per_cold,
            "warm tiles averaged {per_warm} iterations vs cold {per_cold}"
        );
    }

    #[test]
    fn warm_start_second_run_is_all_hits() {
        let cache = WarmStartCache::in_memory();
        let make = || {
            TiledIlt::new(LevelSetIlt::builder().max_iterations(6).build(), 128, 64)
                .expect("valid tiling")
                .with_warm_start(cache.clone())
        };
        let (first_mask, first) = make()
            .optimize_with_stats(&optics(), &repeated_tile_target(), 4.0)
            .expect("first run");
        assert_eq!((first.cold, first.warm), (1, 4));
        let (second_mask, second) = make()
            .optimize_with_stats(&optics(), &repeated_tile_target(), 4.0)
            .expect("second run");
        assert_eq!((second.cold, second.warm), (0, 5), "all cached now");
        // The second run warm-starts from the first run's refined ψ, so
        // the masks need not be identical — but both must print.
        assert!(first_mask.sum() > 0.0 && second_mask.sum() > 0.0);
    }

    #[test]
    fn tile_checkpoints_restore_bit_identically() {
        let dir = std::env::temp_dir().join(format!("lsopc_tiles_ck_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opt = LevelSetIlt::builder().max_iterations(5).build();
        let make = || TiledIlt::new(opt.clone(), 128, 64).expect("valid tiling");
        let spec = crate::CheckpointSpec::new(&dir, 1);
        let (first_mask, first) = make()
            .with_run_control(RunControl::new().with_checkpoint(spec))
            .optimize_with_stats(&optics(), &two_tile_target(), 4.0)
            .expect("first run");
        assert_eq!(first.resumed, 0);
        let (second_mask, second) = make()
            .with_run_control(RunControl::new().with_resume(&dir))
            .optimize_with_stats(&optics(), &two_tile_target(), 4.0)
            .expect("resumed run");
        assert_eq!(second.resumed, first.tiles, "every tile restores");
        assert_eq!(second.tiles, first.tiles);
        assert_eq!(second.full_iterations(), first.full_iterations());
        assert_eq!(first_mask, second_mask, "restored stitch is bit-identical");

        // A configuration change invalidates the stored tiles.
        let other = LevelSetIlt::builder().max_iterations(6).build();
        let (_, third) = TiledIlt::new(other, 128, 64)
            .expect("valid tiling")
            .with_run_control(RunControl::new().with_resume(&dir))
            .optimize_with_stats(&optics(), &two_tile_target(), 4.0)
            .expect("mismatched resume still runs");
        assert_eq!(third.resumed, 0, "hash mismatch re-solves every tile");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_run_stops_gracefully_with_target_fallback() {
        let token = crate::CancelToken::new();
        token.cancel(crate::StopReason::External);
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(5).build(), 128, 64)
            .expect("valid tiling")
            .with_run_control(RunControl::new().with_cancel(token));
        let target = two_tile_target();
        let (mask, stats) = tiled
            .optimize_with_stats(&optics(), &target, 4.0)
            .expect("cancelled run is not an error");
        assert_eq!(stats.stopped, Some(crate::StopReason::External));
        assert_eq!(stats.tiles, 0);
        // Every halo window of this target sees some pattern, so all
        // four tile positions are non-empty — and all go unsolved.
        assert_eq!(stats.unfinished, 4);
        assert_eq!(mask, target, "unsolved tiles fall back to the target");
    }

    #[test]
    fn rejects_iteration_budget() {
        let tiled = TiledIlt::new(LevelSetIlt::default(), 128, 64)
            .expect("valid tiling")
            .with_run_control(RunControl::new().with_iteration_budget(3));
        let err = tiled
            .optimize(&optics(), &two_tile_target(), 4.0)
            .expect_err("budget must be rejected");
        assert!(matches!(err, TiledError::BadConfiguration(_)));
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn rejects_file_as_resume_directory() {
        let path = std::env::temp_dir().join(format!("lsopc_tiles_file_{}", std::process::id()));
        std::fs::write(&path, b"not a directory").expect("write");
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(4).build(), 128, 64)
            .expect("valid tiling")
            .with_run_control(RunControl::new().with_resume(&path));
        let err = tiled
            .optimize(&optics(), &two_tile_target(), 4.0)
            .expect_err("file is not a resume directory");
        assert!(matches!(err, TiledError::Checkpoint(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_start_off_matches_warm_start_free_run() {
        // Without a cache attached, the stats-reporting path is the
        // plain cold path.
        let tiled = TiledIlt::new(LevelSetIlt::builder().max_iterations(5).build(), 128, 64)
            .expect("valid tiling");
        let target = two_tile_target();
        let plain = tiled.optimize(&optics(), &target, 4.0).expect("runs");
        let (with_stats, stats) = tiled
            .optimize_with_stats(&optics(), &target, 4.0)
            .expect("runs");
        assert_eq!(plain, with_stats);
        assert_eq!(stats.warm, 0);
        assert_eq!(stats.cold, stats.tiles);
        assert_eq!(stats.coarse_iterations, 0);
    }
}
