//! Crash-safe checkpoint/resume and the run-lifecycle controls
//! ([`RunControl`]) that drive cooperative stops.
//!
//! A long optimization must be stoppable (deadline, `SIGINT`, iteration
//! budget, external request) and restartable after a crash without
//! losing progress or determinism. This module provides both halves:
//!
//! * [`RunControl`] bundles a [`CancelToken`], an optional wall-clock
//!   deadline, an optional global iteration budget, a checkpoint
//!   schedule and a resume source. The optimizer polls
//!   [`RunControl::stop_requested`] at every iteration boundary (which
//!   also covers CG restarts and the coarse→fine stage transition — the
//!   first fine iteration re-checks before doing any work), and tile
//!   fan-outs drain promptly via
//!   [`ParallelContext::par_map_cancellable`](lsopc_parallel::ParallelContext::par_map_cancellable).
//! * A versioned, checksummed checkpoint file format holding the
//!   optimizer's `LoopState` (`ψ`, CG velocity pair, best-so-far
//!   iterate, guard state, history, snapshots) plus the schedule stage,
//!   encoded in place in little-endian `f64::to_bits` form (every field
//!   scalar widened to f64, exactly), written via atomic temp-file +
//!   rename so a crash mid-write can never destroy the previous good
//!   checkpoint. Restoring the state and continuing the loop replays
//!   the identical floating-point operations, so a resumed run is
//!   bit-identical to the uninterrupted one (DESIGN.md §15).
//!
//! Corrupt or mismatched files always surface as a categorized
//! [`CheckpointError`] — decoding validates magic, version, length and
//! checksum before interpreting a single field, and never panics or
//! over-allocates on hostile input.

use crate::config::LevelSetIlt;
use crate::guard::HealthGuard;
use crate::history::IterationRecord;
use crate::optimizer::LoopState;
use crate::{
    CancelToken, GuardConfig, GuardEvent, GuardEventKind, RecoveryPolicy, SolverDiagnostics,
    StopReason,
};
use lsopc_grid::{Grid, Scalar};
use lsopc_litho::LithoSimulator;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File magic of an optimizer checkpoint.
const MAGIC: &[u8; 8] = b"LSCKPT01";
/// File magic of a per-tile checkpoint (see `TiledIlt`).
const TILE_MAGIC: &[u8; 8] = b"LSTILE01";
/// Format version; bumped on any layout change.
const VERSION: u32 = 1;
/// Decode guard: a corrupt length field must not trigger a huge
/// allocation, so grids and collections are capped well above any real
/// run (a 2^16 × 2^16 grid) before allocating.
const MAX_ELEMENTS: u64 = 1 << 32;

/// How and when the optimizer should persist loop state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    pub(crate) path: PathBuf,
    pub(crate) every: usize,
}

impl CheckpointSpec {
    /// Checkpoint to `path` every `every` iterations (and always on a
    /// graceful stop). For tiled runs the path is a directory and
    /// `every` is ignored — tiles persist on completion.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            path: path.into(),
            every,
        }
    }
}

/// Lifecycle controls for one optimization run: cancellation, deadline,
/// iteration budget, checkpointing and resume.
///
/// The default value imposes nothing — `optimize` with a default
/// control is bit-identical to an uncontrolled run. Stops are always
/// graceful: the optimizer returns its best-so-far iterate with
/// [`IltResult::stopped`](crate::IltResult::stopped) set instead of
/// erroring.
///
/// ```
/// use lsopc_core::RunControl;
/// use std::time::Duration;
///
/// let control = RunControl::new()
///     .with_deadline_in(Duration::from_secs(300))
///     .with_iteration_budget(40);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunControl {
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) iteration_budget: Option<usize>,
    pub(crate) checkpoint: Option<CheckpointSpec>,
    pub(crate) resume: Option<PathBuf>,
}

impl RunControl {
    /// An unconstrained control (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes `token`: cancelling it stops the run at the next
    /// iteration boundary.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Stops the run once the wall clock reaches `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stops the run `timeout` from now ([`RunControl::with_deadline`]
    /// with `Instant::now() + timeout`).
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Stops the run after `budget` iterations, counted globally across
    /// schedule stages (a coarse-to-fine run shares one budget). Unlike
    /// a deadline this is deterministic, which makes it the kill switch
    /// of choice for bit-identity tests.
    pub fn with_iteration_budget(mut self, budget: usize) -> Self {
        self.iteration_budget = Some(budget);
        self
    }

    /// Periodically persists loop state per `spec`.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Restores loop state from the checkpoint at `path` before the
    /// first iteration.
    pub fn with_resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Polls every stop source, in deterministic-first order: an
    /// exhausted iteration budget wins over a cancellation, which wins
    /// over an expired deadline. `iterations_done` is the number of
    /// iterations completed globally (across schedule stages).
    pub(crate) fn stop_requested(&self, iterations_done: usize) -> Option<StopReason> {
        if let Some(budget) = self.iteration_budget {
            if iterations_done >= budget {
                return Some(StopReason::Budget);
            }
        }
        if let Some(token) = &self.cancel {
            if let Some(reason) = token.cancelled() {
                return Some(reason);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::Deadline);
            }
        }
        None
    }

    /// True when a checkpoint file must be written or read, i.e. when
    /// the config hash is worth computing.
    pub(crate) fn persists(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some()
    }
}

/// Why a checkpoint file could not be used.
///
/// Every failure mode of `--resume` is categorized here; none panics.
/// Surfaced through [`OptimizeError::Checkpoint`](crate::OptimizeError::Checkpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading the file failed (rendered `std::io::Error`).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload checksum does not match — truncated or corrupted.
    ChecksumMismatch,
    /// The payload is structurally invalid (with a description).
    Malformed(String),
    /// The checkpoint was written by a run with a different
    /// configuration, simulator geometry or target pattern.
    ConfigMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            Self::ChecksumMismatch => {
                f.write_str("checkpoint checksum mismatch (truncated or corrupted file)")
            }
            Self::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            Self::ConfigMismatch => f.write_str(
                "checkpoint was written by a different configuration, geometry or target",
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Which stage of the run wrote a checkpoint. Resume re-enters the same
/// stage; the config hash guarantees the schedule (and hence the stage
/// structure) matches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum StageTag {
    /// Unscheduled single-resolution loop.
    Flat,
    /// Coarse stage of a [`ResolutionSchedule`](crate::ResolutionSchedule) run.
    Coarse,
    /// Full-resolution refinement stage of a scheduled run.
    Fine,
}

impl StageTag {
    fn code(self) -> u8 {
        match self {
            Self::Flat => 0,
            Self::Coarse => 1,
            Self::Fine => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, CheckpointError> {
        match code {
            0 => Ok(Self::Flat),
            1 => Ok(Self::Coarse),
            2 => Ok(Self::Fine),
            other => Err(CheckpointError::Malformed(format!(
                "unknown stage tag {other}"
            ))),
        }
    }
}

/// Completed-coarse-stage context embedded in fine-stage checkpoints so
/// a resume can reproduce the stage merge exactly without re-running
/// the coarse stage.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoarseCarry {
    /// Iterations the coarse stage executed.
    pub(crate) iterations: usize,
    /// The coarse stage's full history.
    pub(crate) history: Vec<IterationRecord>,
    /// The coarse stage's guard diagnostics.
    pub(crate) diagnostics: SolverDiagnostics,
}

/// One decoded checkpoint file, already checked against the resuming
/// run's config hash.
pub(crate) struct Checkpoint<T: Scalar> {
    /// Stage that wrote the file.
    pub(crate) stage: StageTag,
    /// The loop state, narrowed to the run's precision.
    pub(crate) state: LoopState<T>,
    /// Coarse-stage context; present exactly when `stage` is `Fine`.
    pub(crate) carry: Option<CoarseCarry>,
}

/// One completed tile persisted by `TiledIlt` under a checkpoint
/// directory. Tiles are atomic units: there is no intra-tile state.
#[derive(Clone, Debug)]
pub(crate) struct TileCheckpoint {
    /// Hash binding the file to the tile's target content and solver
    /// configuration.
    pub(crate) hash: u64,
    /// Whether the tile was solved warm-started.
    pub(crate) warm: bool,
    /// Iterations the tile's solve executed.
    pub(crate) iterations: usize,
    /// Coarse-stage share of `iterations`.
    pub(crate) coarse_iterations: usize,
    /// The solved tile mask (halo included).
    pub(crate) mask: Grid<f64>,
    /// The solved tile level set (halo included).
    pub(crate) levelset: Grid<f64>,
}

/// File name of a tile checkpoint inside the checkpoint directory.
pub(crate) fn tile_entry_name(tx: usize, ty: usize) -> String {
    format!("tile_{tx}_{ty}.tile")
}

// --- hashing ------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, absorbed 8 bytes per step (LE words, the
/// final partial word zero-padded). The word stride keeps the serial
/// multiply chain ~8× shorter than byte-wise FNV — checksumming a
/// ~34 MB checkpoint payload is on the optimizer's periodic write path.
/// Any flipped or truncated byte still changes the digest.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Incremental FNV-1a hasher for configuration fingerprints.
struct Hasher(u64);

impl Hasher {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }
    fn u64(&mut self, v: u64) {
        self.0 = fnv1a(self.0, &v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }
}

/// Hashes everything that must match between the writing and the
/// resuming run for the replayed arithmetic to be identical: optimizer
/// parameters, simulator geometry, kernel rank, the loop precision `T`,
/// the target pattern and (for warm starts) the initial level set.
pub(crate) fn config_hash<T: Scalar>(
    opt: &LevelSetIlt,
    sim: &LithoSimulator<T>,
    target: &Grid<T>,
    init: Option<&Grid<T>>,
) -> u64 {
    let mut h = Hasher::new();
    h.u64(opt.max_iterations as u64);
    h.f64(opt.velocity_tolerance);
    h.f64(opt.lambda_t);
    h.f64(opt.w_pvb);
    match opt.evolution {
        crate::Evolution::Plain => h.u64(0),
        crate::Evolution::PrpConjugateGradient => h.u64(1),
        crate::Evolution::HeavyBall { beta } => {
            h.u64(2);
            h.f64(beta);
        }
    }
    h.bool(opt.upwind);
    h.u64(opt.reinit_interval as u64);
    h.f64(opt.curvature_weight);
    h.u64(opt.snapshot_interval as u64);
    h.f64(opt.narrow_band);
    h.bool(opt.line_search);
    match opt.recovery {
        crate::RecoveryPolicy::Off => h.u64(0),
        crate::RecoveryPolicy::On(c) | crate::RecoveryPolicy::Strict(c) => {
            h.u64(if opt.recovery.is_strict() { 2 } else { 1 });
            h.u64(c.max_backoffs as u64);
            h.u64(c.divergence_window as u64);
            h.f64(c.divergence_tolerance);
            h.u64(c.stall_window as u64);
            h.f64(c.stall_tolerance);
            h.f64(c.cost_spike_factor);
            h.f64(c.gradient_spike_factor);
        }
    }
    match opt.schedule {
        None => h.u64(0),
        Some(s) => {
            h.u64(1);
            h.u64(s.coarse_px() as u64);
            h.u64(s.coarse_kernels() as u64);
            h.u64(s.coarse_iterations() as u64);
            h.u64(s.fine_iterations() as u64);
        }
    }
    h.u64(sim.grid_px() as u64);
    h.f64(sim.pixel_nm());
    h.u64(sim.optics().kernel_count() as u64);
    h.f64(sim.optics().field_nm());
    // The sealed `Scalar` is f32 or f64, so its width names the precision.
    h.u64(std::mem::size_of::<T>() as u64);
    hash_grid_content(&mut h, target);
    match init {
        None => h.u64(0),
        Some(g) => {
            h.u64(1);
            hash_grid_content(&mut h, g);
        }
    }
    h.0
}

/// Folds a grid's dimensions and exact cell bit patterns into `h`.
fn hash_grid_content<T: Scalar>(h: &mut Hasher, g: &Grid<T>) {
    let (w, hh) = g.dims();
    h.u64(w as u64);
    h.u64(hh as u64);
    for v in g.as_slice() {
        h.f64(v.to_f64());
    }
}

// --- binary codec -------------------------------------------------------

/// Little-endian payload writer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A grid as dims and cells, each cell widened to f64 in place (exact
    /// for every [`Scalar`]): one layout at every precision.
    fn grid<T: Scalar>(&mut self, g: &Grid<T>) {
        let (w, h) = g.dims();
        // One reservation per grid: a 1024² grid appends 8 MB, and
        // growth-doubling re-copies would dominate the encode.
        self.buf.reserve(16 + g.as_slice().len() * 8);
        self.u64(w as u64);
        self.u64(h as u64);
        for &v in g.as_slice() {
            self.f64(v.to_f64());
        }
    }
    fn opt_grid<T: Scalar>(&mut self, g: Option<&Grid<T>>) {
        match g {
            None => self.u8(0),
            Some(g) => {
                self.u8(1);
                self.grid(g);
            }
        }
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
        }
    }
}

/// Little-endian payload reader; every read is bounds-checked and every
/// length field is sanity-capped before allocation.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, CheckpointError>;

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CheckpointError::Malformed("payload truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn finished(&self) -> DecResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )))
        }
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Malformed(format!(
                "invalid boolean byte {other}"
            ))),
        }
    }

    fn u64(&mut self) -> DecResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::Malformed(format!("count {v} exceeds usize")))
    }

    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection length, validated against both the element cap and
    /// the bytes actually remaining (`min_elem_bytes` per element) so a
    /// corrupt length can never trigger a large allocation.
    fn len(&mut self, min_elem_bytes: usize) -> DecResult<usize> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n > MAX_ELEMENTS || n.saturating_mul(min_elem_bytes as u64) > remaining {
            return Err(CheckpointError::Malformed(format!(
                "length {n} inconsistent with {remaining} remaining bytes"
            )));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> DecResult<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed("invalid UTF-8 string".into()))
    }

    /// A grid written by [`Enc::grid`], each cell narrowed to `T` as it
    /// is read (the exact inverse of the widening).
    fn grid<T: Scalar>(&mut self) -> DecResult<Grid<T>> {
        let w = self.len(0)?;
        let h = self.len(0)?;
        let cells = (w as u64).checked_mul(h as u64).filter(|&c| {
            c > 0 && c <= MAX_ELEMENTS && c * 8 <= (self.bytes.len() - self.pos) as u64
        });
        let Some(cells) = cells else {
            return Err(CheckpointError::Malformed(format!(
                "grid dims {w}×{h} inconsistent with remaining payload"
            )));
        };
        let mut data = Vec::with_capacity(cells as usize);
        for _ in 0..cells {
            data.push(T::from_f64(self.f64()?));
        }
        Ok(Grid::from_vec(w, h, data))
    }

    fn opt_grid<T: Scalar>(&mut self) -> DecResult<Option<Grid<T>>> {
        if self.bool()? {
            Ok(Some(self.grid()?))
        } else {
            Ok(None)
        }
    }

    fn opt_f64(&mut self) -> DecResult<Option<f64>> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }
}

fn encode_record(e: &mut Enc, r: &IterationRecord) {
    e.u64(r.iteration as u64);
    e.f64(r.cost_nominal);
    e.f64(r.cost_pvb);
    e.f64(r.cost_total);
    e.f64(r.max_velocity);
    e.f64(r.time_step);
    e.f64(r.cg_beta);
    e.f64(r.elapsed_s);
    e.bool(r.rolled_back);
    e.u64(r.backoffs as u64);
    e.f64(r.lambda_scale);
}

fn decode_record(d: &mut Dec) -> DecResult<IterationRecord> {
    Ok(IterationRecord {
        iteration: d.usize()?,
        cost_nominal: d.f64()?,
        cost_pvb: d.f64()?,
        cost_total: d.f64()?,
        max_velocity: d.f64()?,
        time_step: d.f64()?,
        cg_beta: d.f64()?,
        elapsed_s: d.f64()?,
        rolled_back: d.bool()?,
        backoffs: d.usize()?,
        lambda_scale: d.f64()?,
    })
}

fn encode_history(e: &mut Enc, history: &[IterationRecord]) {
    e.u64(history.len() as u64);
    for r in history {
        encode_record(e, r);
    }
}

fn decode_history(d: &mut Dec) -> DecResult<Vec<IterationRecord>> {
    // One record is 8 u64/f64 fields + 1 usize + 1 f64 + 1 bool = 81 B.
    let n = d.len(81)?;
    (0..n).map(|_| decode_record(d)).collect()
}

fn encode_event_kind(e: &mut Enc, kind: &GuardEventKind) {
    match kind {
        GuardEventKind::NonFiniteCost => e.u8(0),
        GuardEventKind::NonFiniteGradient => e.u8(1),
        GuardEventKind::NonFiniteVelocity => e.u8(2),
        GuardEventKind::NonFiniteLevelSet => e.u8(3),
        GuardEventKind::CostDivergence { consecutive } => {
            e.u8(4);
            e.u64(*consecutive as u64);
        }
        GuardEventKind::CostSpike { ratio } => {
            e.u8(5);
            e.f64(*ratio);
        }
        GuardEventKind::GradientSpike { ratio } => {
            e.u8(6);
            e.f64(*ratio);
        }
        GuardEventKind::Stall { window } => {
            e.u8(7);
            e.u64(*window as u64);
        }
        GuardEventKind::WorkerPanic { message } => {
            e.u8(8);
            e.str(message);
        }
        GuardEventKind::Backoff { lambda_scale } => {
            e.u8(9);
            e.f64(*lambda_scale);
        }
        GuardEventKind::Recovered => e.u8(10),
        GuardEventKind::GaveUp => e.u8(11),
    }
}

fn decode_event_kind(d: &mut Dec) -> DecResult<GuardEventKind> {
    Ok(match d.u8()? {
        0 => GuardEventKind::NonFiniteCost,
        1 => GuardEventKind::NonFiniteGradient,
        2 => GuardEventKind::NonFiniteVelocity,
        3 => GuardEventKind::NonFiniteLevelSet,
        4 => GuardEventKind::CostDivergence {
            consecutive: d.usize()?,
        },
        5 => GuardEventKind::CostSpike { ratio: d.f64()? },
        6 => GuardEventKind::GradientSpike { ratio: d.f64()? },
        7 => GuardEventKind::Stall { window: d.usize()? },
        8 => GuardEventKind::WorkerPanic { message: d.str()? },
        9 => GuardEventKind::Backoff {
            lambda_scale: d.f64()?,
        },
        10 => GuardEventKind::Recovered,
        11 => GuardEventKind::GaveUp,
        other => {
            return Err(CheckpointError::Malformed(format!(
                "unknown guard event tag {other}"
            )))
        }
    })
}

fn encode_diagnostics(e: &mut Enc, d: &SolverDiagnostics) {
    e.u64(d.events.len() as u64);
    for event in &d.events {
        e.u64(event.iteration as u64);
        encode_event_kind(e, &event.kind);
    }
    e.u64(d.backoffs as u64);
    e.u64(d.recoveries as u64);
    e.bool(d.gave_up);
    e.f64(d.final_lambda_scale);
}

fn decode_diagnostics(d: &mut Dec) -> DecResult<SolverDiagnostics> {
    // An event is at least a u64 iteration + a tag byte.
    let n = d.len(9)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let iteration = d.usize()?;
        let kind = decode_event_kind(d)?;
        events.push(GuardEvent { iteration, kind });
    }
    Ok(SolverDiagnostics {
        events,
        backoffs: d.usize()?,
        recoveries: d.usize()?,
        gave_up: d.bool()?,
        final_lambda_scale: d.f64()?,
    })
}

/// Encodes the guard's mutable state in place (everything but its
/// config, which the recovery policy supplies on decode).
fn encode_guard(e: &mut Enc, g: &HealthGuard) {
    encode_diagnostics(e, &g.diagnostics);
    e.f64(g.lambda_scale);
    e.u64(g.rising_streak as u64);
    e.u64(g.stall_streak as u64);
    e.opt_f64(g.last_healthy_cost);
    e.opt_f64(g.last_healthy_gradient_peak);
    e.bool(g.pending_recovery);
}

fn decode_guard(d: &mut Dec, config: GuardConfig) -> DecResult<HealthGuard> {
    Ok(HealthGuard {
        config,
        diagnostics: decode_diagnostics(d)?,
        lambda_scale: d.f64()?,
        rising_streak: d.usize()?,
        stall_streak: d.usize()?,
        last_healthy_cost: d.opt_f64()?,
        last_healthy_gradient_peak: d.opt_f64()?,
        pending_recovery: d.bool()?,
    })
}

/// Encodes the loop state in place, every field scalar widened to f64.
fn encode_state<T: Scalar>(e: &mut Enc, s: &LoopState<T>) {
    e.u64(s.next_iteration as u64);
    e.grid(&s.psi);
    e.opt_grid(s.prev_gradient_velocity.as_ref());
    e.opt_grid(s.prev_velocity.as_ref());
    match &s.best {
        None => e.u8(0),
        Some((cost, psi)) => {
            e.u8(1);
            e.f64(*cost);
            e.grid(psi);
        }
    }
    match &s.guard {
        None => e.u8(0),
        Some(g) => {
            e.u8(1);
            encode_guard(e, g);
        }
    }
    e.opt_grid(s.guard_checkpoint.as_ref());
    encode_history(e, &s.history);
    e.u64(s.snapshots.len() as u64);
    for (iteration, mask) in &s.snapshots {
        e.u64(*iteration as u64);
        e.grid(mask);
    }
}

/// Decodes the loop state of a run under `recovery`, narrowing every
/// field scalar to `T`. The file carries guard state exactly when the
/// policy enables the guard.
fn decode_state<T: Scalar>(d: &mut Dec, recovery: &RecoveryPolicy) -> DecResult<LoopState<T>> {
    // Fields decode in file order: struct literals evaluate in order.
    Ok(LoopState {
        next_iteration: d.usize()?,
        psi: d.grid()?,
        prev_gradient_velocity: d.opt_grid()?,
        prev_velocity: d.opt_grid()?,
        best: if d.bool()? {
            Some((d.f64()?, d.grid()?))
        } else {
            None
        },
        guard: match (d.bool()?, HealthGuard::from_policy(recovery)) {
            (true, Some(fresh)) => Some(decode_guard(d, fresh.config)?),
            (false, None) => None,
            _ => {
                return Err(CheckpointError::Malformed(
                    "checkpoint guard state does not match the recovery policy".into(),
                ))
            }
        },
        guard_checkpoint: d.opt_grid()?,
        history: decode_history(d)?,
        snapshots: {
            // A snapshot entry is at least a u64 iteration + grid dims.
            let n = d.len(24)?;
            let mut snapshots = Vec::with_capacity(n);
            for _ in 0..n {
                let iteration = d.usize()?;
                snapshots.push((iteration, d.grid()?));
            }
            snapshots
        },
    })
}

// --- file I/O -----------------------------------------------------------

/// Writes `bytes` to `path` atomically: a sibling temp file is written
/// and synced, then renamed over the destination. A crash at any point
/// leaves either the old file or the new one — never a torn mix.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_parts(path, &[], bytes)
}

/// [`atomic_write`] of `header` followed by `payload`, without first
/// gluing them into one allocation — the checkpoint payload can be tens
/// of megabytes, and the extra copy is measurable on the periodic write
/// path.
fn atomic_write_parts(path: &Path, header: &[u8], payload: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(header)?;
    file.write_all(payload)?;
    file.sync_all()?;
    drop(file);
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Frames a payload with magic, version, length and checksum and writes
/// it atomically.
fn write_framed(path: &Path, magic: &[u8; 8], payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 28];
    header[..8].copy_from_slice(magic);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..28].copy_from_slice(&fnv1a(FNV_OFFSET, payload).to_le_bytes());
    atomic_write_parts(path, &header, payload)
}

/// Reads a framed file, validating magic, version, length and checksum
/// before returning the payload.
fn read_framed(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>, CheckpointError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 28 || &bytes[..8] != magic {
        if bytes.len() >= 8 && &bytes[..8] == magic {
            return Err(CheckpointError::ChecksumMismatch);
        }
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[28..];
    if payload.len() as u64 != len {
        return Err(CheckpointError::ChecksumMismatch);
    }
    if fnv1a(FNV_OFFSET, payload) != checksum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(payload.to_vec())
}

/// Serializes the loop `state` of `stage` in place and atomically
/// writes it as an optimizer checkpoint.
pub(crate) fn write_checkpoint<T: Scalar>(
    path: &Path,
    config_hash: u64,
    stage: StageTag,
    carry: Option<&CoarseCarry>,
    state: &LoopState<T>,
) -> io::Result<()> {
    let mut e = Enc::new();
    e.u64(config_hash);
    e.u8(stage.code());
    encode_state(&mut e, state);
    match carry {
        None => e.u8(0),
        Some(carry) => {
            e.u8(1);
            e.u64(carry.iterations as u64);
            encode_history(&mut e, &carry.history);
            encode_diagnostics(&mut e, &carry.diagnostics);
        }
    }
    let total = 28 + e.buf.len() as u64;
    write_framed(path, MAGIC, &e.buf)?;
    // Full on-disk size (28-byte frame header + payload); accumulated
    // so job summaries can report checkpoint I/O volume.
    lsopc_trace::count("checkpoint.bytes", total);
    Ok(())
}

/// Reads, validates and decodes the optimizer checkpoint of a run with
/// `config_hash` under `recovery`, narrowing its fields to `T`.
pub(crate) fn load_checkpoint<T: Scalar>(
    path: &Path,
    config_hash: u64,
    recovery: &RecoveryPolicy,
) -> Result<Checkpoint<T>, CheckpointError> {
    let payload = read_framed(path, MAGIC)?;
    let mut d = Dec::new(&payload);
    if d.u64()? != config_hash {
        return Err(CheckpointError::ConfigMismatch);
    }
    let stage = StageTag::from_code(d.u8()?)?;
    let state = decode_state(&mut d, recovery)?;
    let carry = if d.bool()? {
        Some(CoarseCarry {
            iterations: d.usize()?,
            history: decode_history(&mut d)?,
            diagnostics: decode_diagnostics(&mut d)?,
        })
    } else {
        None
    };
    d.finished()?;
    if (stage == StageTag::Fine) != carry.is_some() {
        return Err(CheckpointError::Malformed(
            "coarse carry present iff stage is fine".into(),
        ));
    }
    Ok(Checkpoint {
        stage,
        state,
        carry,
    })
}

/// Serializes and atomically writes a tile checkpoint.
pub(crate) fn write_tile_checkpoint(path: &Path, tc: &TileCheckpoint) -> io::Result<()> {
    let mut e = Enc::new();
    e.u64(tc.hash);
    e.bool(tc.warm);
    e.u64(tc.iterations as u64);
    e.u64(tc.coarse_iterations as u64);
    e.grid(&tc.mask);
    e.grid(&tc.levelset);
    write_framed(path, TILE_MAGIC, &e.buf)
}

/// Reads, validates and decodes a tile checkpoint.
pub(crate) fn load_tile_checkpoint(path: &Path) -> Result<TileCheckpoint, CheckpointError> {
    let payload = read_framed(path, TILE_MAGIC)?;
    let mut d = Dec::new(&payload);
    let tc = TileCheckpoint {
        hash: d.u64()?,
        warm: d.bool()?,
        iterations: d.usize()?,
        coarse_iterations: d.usize()?,
        mask: d.grid()?,
        levelset: d.grid()?,
    };
    d.finished()?;
    Ok(tc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(seed: f64, w: usize, h: usize) -> Grid<f64> {
        Grid::from_fn(w, h, |x, y| seed + (x * 31 + y * 7) as f64 * 0.125)
    }

    const SAMPLE_HASH: u64 = 0xfeed_beef_dead_cafe;

    fn sample_checkpoint() -> Checkpoint<f64> {
        Checkpoint {
            stage: StageTag::Fine,
            state: LoopState {
                next_iteration: 7,
                psi: grid(0.5, 8, 8),
                prev_gradient_velocity: Some(grid(-1.25, 8, 8)),
                prev_velocity: None,
                best: Some((123.456, grid(0.75, 8, 8))),
                guard: Some(HealthGuard {
                    config: GuardConfig::default(),
                    diagnostics: SolverDiagnostics {
                        events: vec![
                            GuardEvent {
                                iteration: 3,
                                kind: GuardEventKind::CostSpike { ratio: 101.5 },
                            },
                            GuardEvent {
                                iteration: 3,
                                kind: GuardEventKind::WorkerPanic {
                                    message: "boom ω".into(),
                                },
                            },
                        ],
                        backoffs: 1,
                        recoveries: 1,
                        gave_up: false,
                        final_lambda_scale: 0.5,
                    },
                    lambda_scale: 0.5,
                    rising_streak: 2,
                    stall_streak: 0,
                    last_healthy_cost: Some(99.0),
                    last_healthy_gradient_peak: None,
                    pending_recovery: true,
                }),
                guard_checkpoint: Some(grid(0.0, 8, 8)),
                history: vec![IterationRecord::default(), IterationRecord::default()],
                snapshots: vec![(0, grid(1.0, 8, 8))],
            },
            carry: Some(CoarseCarry {
                iterations: 4,
                history: vec![IterationRecord::default()],
                diagnostics: SolverDiagnostics::default(),
            }),
        }
    }

    fn write(path: &Path, ck: &Checkpoint<f64>) -> io::Result<()> {
        write_checkpoint(path, SAMPLE_HASH, ck.stage, ck.carry.as_ref(), &ck.state)
    }

    fn guard_on() -> RecoveryPolicy {
        RecoveryPolicy::On(GuardConfig::default())
    }

    fn load(path: &Path) -> Result<Checkpoint<f64>, CheckpointError> {
        load_checkpoint(path, SAMPLE_HASH, &guard_on())
    }

    fn assert_grids_eq(a: &Grid<f64>, b: &Grid<f64>) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("lsopc_ck_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("state.ckpt");
        let ck = sample_checkpoint();
        write(&path, &ck).expect("write");
        let back = load(&path).expect("load");
        // The stored config hash is checked as the file is decoded.
        assert_eq!(
            load_checkpoint::<f64>(&path, SAMPLE_HASH ^ 1, &guard_on()).err(),
            Some(CheckpointError::ConfigMismatch)
        );
        assert_eq!(back.stage, ck.stage);
        assert_eq!(back.state.next_iteration, 7);
        assert_grids_eq(&back.state.psi, &ck.state.psi);
        assert_grids_eq(
            back.state.prev_gradient_velocity.as_ref().expect("pgv"),
            ck.state.prev_gradient_velocity.as_ref().expect("pgv"),
        );
        assert!(back.state.prev_velocity.is_none());
        let (cost, bpsi) = back.state.best.as_ref().expect("best");
        assert_eq!(cost.to_bits(), 123.456f64.to_bits());
        assert_grids_eq(bpsi, &ck.state.best.as_ref().expect("best").1);
        let guard = back.state.guard.as_ref().expect("guard");
        assert_eq!(guard.diagnostics.events.len(), 2);
        assert_eq!(
            guard.diagnostics.events[1].kind,
            GuardEventKind::WorkerPanic {
                message: "boom ω".into()
            }
        );
        assert!(guard.pending_recovery);
        assert_eq!(back.state.history, ck.state.history);
        assert_eq!(back.carry.as_ref().expect("carry").iterations, 4);
        // Guard state is present exactly when the policy enables a guard.
        assert!(matches!(
            load_checkpoint::<f64>(&path, SAMPLE_HASH, &RecoveryPolicy::Off),
            Err(CheckpointError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_always_a_categorized_error() {
        let dir = std::env::temp_dir().join(format!("lsopc_ck_fuzz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("state.ckpt");
        write(&path, &sample_checkpoint()).expect("write");
        let good = std::fs::read(&path).expect("read back");

        // Truncations at every prefix length (sampled) decode as errors.
        for cut in (0..good.len()).step_by(97).chain([good.len() - 1]) {
            std::fs::write(&path, &good[..cut]).expect("truncate");
            assert!(load(&path).is_err(), "truncation at {cut} must fail");
        }
        // Flipping any byte breaks the frame, the checksum or a field.
        for pos in (0..good.len()).step_by(53) {
            let mut bad = good.clone();
            bad[pos] ^= 0xff;
            std::fs::write(&path, &bad).expect("corrupt");
            assert!(load(&path).is_err(), "byte flip at {pos} must fail");
        }
        // Oversized length fields must not allocate absurd buffers.
        let mut bad = good.clone();
        let grid_w_at = 28 + 8 + 1 + 8; // payload + hash + stage + next_iteration
        bad[grid_w_at..grid_w_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bad).expect("corrupt dims");
        assert!(load(&path).is_err(), "absurd dims must fail");

        assert!(
            matches!(load(&dir.join("missing.ckpt")), Err(CheckpointError::Io(_))),
            "missing file is an I/O error"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The v1 byte layout, pinned by the FNV-1a of the sample's payload.
    /// A change here strands every checkpoint already written and must
    /// bump `VERSION`.
    #[test]
    fn checkpoint_layout_is_pinned() {
        let dir = std::env::temp_dir().join(format!("lsopc_ck_pin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("state.ckpt");
        write(&path, &sample_checkpoint()).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(VERSION, 1);
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(bytes.len(), 3124);
        assert_eq!(fnv1a(FNV_OFFSET, &bytes[28..]), 0x038a_b9df_f93e_c5a2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tile_checkpoint_roundtrips_and_rejects_optimizer_files() {
        let dir = std::env::temp_dir().join(format!("lsopc_tile_ck_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(tile_entry_name(2, 3));
        assert_eq!(tile_entry_name(2, 3), "tile_2_3.tile");
        let tc = TileCheckpoint {
            hash: 42,
            warm: true,
            iterations: 9,
            coarse_iterations: 4,
            mask: grid(0.0, 6, 6).binarize(0.5),
            levelset: grid(-0.5, 6, 6),
        };
        write_tile_checkpoint(&path, &tc).expect("write");
        let back = load_tile_checkpoint(&path).expect("load");
        assert_eq!(back.hash, 42);
        assert!(back.warm);
        assert_eq!((back.iterations, back.coarse_iterations), (9, 4));
        assert_grids_eq(&back.levelset, &tc.levelset);

        // An optimizer checkpoint is not a tile checkpoint.
        let ck_path = dir.join("state.ckpt");
        write(&ck_path, &sample_checkpoint()).expect("write");
        assert!(matches!(
            load_tile_checkpoint(&ck_path),
            Err(CheckpointError::BadMagic)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("lsopc_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("value.bin");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        assert!(
            !dir.join("value.bin.tmp").exists(),
            "temp file must not linger"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_order_is_budget_then_cancel_then_deadline() {
        let token = CancelToken::new();
        token.cancel(StopReason::External);
        let control = RunControl::new()
            .with_iteration_budget(5)
            .with_cancel(token)
            .with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(control.stop_requested(5), Some(StopReason::Budget));
        assert_eq!(control.stop_requested(4), Some(StopReason::External));
        let deadline_only =
            RunControl::new().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(deadline_only.stop_requested(0), Some(StopReason::Deadline));
        assert_eq!(RunControl::new().stop_requested(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_checkpoint_interval_panics() {
        let _ = CheckpointSpec::new("x", 0);
    }
}
