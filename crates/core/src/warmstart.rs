//! Content-addressed warm-start cache for repeated tile patterns.
//!
//! Production layouts repeat a small vocabulary of local patterns
//! (AdaOPC's premise, PAPERS.md); solving the same pattern from scratch
//! in every tile wastes the bulk of the iteration budget. This module
//! keys solved tiles by *content*, not position:
//!
//! 1. [`fingerprint`] normalizes a tile target to its bounding box and
//!    hashes the bit pattern (FNV-1a over packed rows). Two tiles whose
//!    patterns differ only by a whole-pixel translation produce the same
//!    key with different bounding-box anchors — translation-invariant
//!    keying.
//! 2. [`WarmStartCache`] maps the key to the solved ψ together with the
//!    anchor it was solved at. A lookup re-anchors the cached ψ to the
//!    requesting tile with [`lsopc_fft::cyclic_shift`], which is exactly
//!    invertible, so the aligned ψ round-trips bit-for-bit (the property
//!    `tests/warmstart.rs` pins).
//!
//! The warm-started run itself is *not* bit-identical to a cold solve of
//! the shifted tile — FFT convolution is only translation-equivariant in
//! exact arithmetic — it is equivalent at the tolerance level (DESIGN.md
//! §14). The cache has a shared in-memory backend and an on-disk
//! directory backend; both are best-effort (a corrupt or unwritable
//! entry degrades to a miss/no-op with a trace warning, never an error).

use crate::resume::{load_psi_entry, write_psi_entry};
use lsopc_fft::cyclic_shift;
use lsopc_grid::Grid;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The translation-invariant identity of a tile pattern: a content hash
/// plus the bounding-box anchor the pattern sits at in its tile.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PatternFingerprint {
    key: u64,
    bx: usize,
    by: usize,
}

impl PatternFingerprint {
    /// The content hash (identical for whole-pixel translations of the
    /// same pattern within equally-sized tiles).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Bounding-box anchor (minimum on-pixel x, y) in the tile.
    pub fn anchor(&self) -> (usize, usize) {
        (self.bx, self.by)
    }
}

/// Fingerprints a tile target: binarize at 0.5, locate the pattern's
/// bounding box, and hash tile dims + box dims + the box-relative bit
/// pattern. Returns `None` for an empty tile (nothing to key).
pub fn fingerprint(target: &Grid<f64>) -> Option<PatternFingerprint> {
    let (w, h) = target.dims();
    let (mut x0, mut y0, mut x1, mut y1) = (w, h, 0usize, 0usize);
    for y in 0..h {
        for x in 0..w {
            if target[(x, y)] >= 0.5 {
                x0 = x0.min(x);
                y0 = y0.min(y);
                x1 = x1.max(x);
                y1 = y1.max(y);
            }
        }
    }
    if x0 > x1 {
        return None;
    }
    let (bw, bh) = (x1 - x0 + 1, y1 - y0 + 1);
    let mut key = FNV_OFFSET;
    for dims in [w as u64, h as u64, bw as u64, bh as u64] {
        key = fnv1a(key, dims);
    }
    // Pack the box-relative pattern 64 cells per word, row-major; the
    // anchor itself stays out of the hash — that is the invariance.
    let mut word = 0u64;
    let mut bits = 0;
    for y in y0..=y1 {
        for x in x0..=x1 {
            word = (word << 1) | u64::from(target[(x, y)] >= 0.5);
            bits += 1;
            if bits == 64 {
                key = fnv1a(key, word);
                word = 0;
                bits = 0;
            }
        }
    }
    if bits > 0 {
        key = fnv1a(key, word << (64 - bits));
    }
    Some(PatternFingerprint {
        key,
        bx: x0,
        by: y0,
    })
}

/// A solved ψ plus the anchor its pattern sat at when solved.
#[derive(Clone, Debug)]
struct StoredPsi {
    bx: usize,
    by: usize,
    psi: Grid<f64>,
}

impl StoredPsi {
    /// Re-anchors the stored ψ to a requesting tile's pattern position.
    /// A cyclic shift is exact for the periodic simulation domain and
    /// exactly invertible, so alignment loses nothing.
    fn aligned(&self, fp: &PatternFingerprint) -> Grid<f64> {
        cyclic_shift(
            &self.psi,
            fp.bx as i64 - self.bx as i64,
            fp.by as i64 - self.by as i64,
        )
    }
}

#[derive(Clone, Debug)]
enum Backend {
    Mem(Arc<Mutex<HashMap<u64, StoredPsi>>>),
    Dir(PathBuf),
}

/// Content-addressed store of solved tile level sets.
///
/// Cloning shares the underlying store (the in-memory backend is an
/// `Arc`; the directory backend is a path), so one cache can be handed
/// to many [`TiledIlt`](crate::TiledIlt) runs. Lookups and stores are
/// counted as `cache.warmstart.hit` / `cache.warmstart.miss` in
/// `lsopc-trace`.
///
/// # Example
///
/// ```
/// use lsopc_core::{fingerprint, WarmStartCache};
/// use lsopc_grid::Grid;
///
/// let cache = WarmStartCache::in_memory();
/// let tile = Grid::from_fn(64, 64, |x, y| {
///     if (10..20).contains(&x) && (10..20).contains(&y) { 1.0 } else { 0.0 }
/// });
/// let fp = fingerprint(&tile).expect("non-empty");
/// assert!(cache.lookup(&fp).is_none());
/// cache.store(&fp, &Grid::new(64, 64, 1.0));
/// assert!(cache.lookup(&fp).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct WarmStartCache {
    backend: Backend,
}

impl WarmStartCache {
    /// A process-lifetime shared in-memory cache.
    pub fn in_memory() -> Self {
        Self {
            backend: Backend::Mem(Arc::new(Mutex::new(HashMap::new()))),
        }
    }

    /// An on-disk cache: one file per pattern key under `path`
    /// (created if missing). Entries persist across runs and processes.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn directory(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        std::fs::create_dir_all(&path)?;
        Ok(Self {
            backend: Backend::Dir(path),
        })
    }

    /// Looks up a fingerprint and returns the cached ψ re-anchored to
    /// the fingerprint's pattern position. Counts a warm-start hit or
    /// miss.
    pub fn lookup(&self, fp: &PatternFingerprint) -> Option<Grid<f64>> {
        match self.fetch(fp.key) {
            Some(stored) => {
                lsopc_trace::count("cache.warmstart.hit", 1);
                Some(stored.aligned(fp))
            }
            None => {
                lsopc_trace::count("cache.warmstart.miss", 1);
                None
            }
        }
    }

    /// [`WarmStartCache::lookup`] without touching the hit/miss
    /// counters — for re-reading an entry this run already classified.
    pub(crate) fn lookup_uncounted(&self, fp: &PatternFingerprint) -> Option<Grid<f64>> {
        self.fetch(fp.key).map(|stored| stored.aligned(fp))
    }

    /// Stores a solved ψ under the fingerprint's key, anchored at the
    /// fingerprint's pattern position. Best-effort on the directory
    /// backend: write failures warn and drop the entry.
    pub fn store(&self, fp: &PatternFingerprint, psi: &Grid<f64>) {
        match &self.backend {
            Backend::Mem(map) => {
                let stored = StoredPsi {
                    bx: fp.bx,
                    by: fp.by,
                    psi: psi.clone(),
                };
                map.lock()
                    .expect("warm-start cache lock")
                    .insert(fp.key, stored);
            }
            Backend::Dir(dir) => {
                // Checksummed and written atomically (temp file +
                // rename): a crash never leaves a torn entry, and a
                // damaged one reads back as a miss.
                let path = dir.join(entry_name(fp.key));
                if let Err(e) = write_psi_entry(&path, (fp.bx, fp.by), psi) {
                    lsopc_trace::warn("warmstart", &format!("failed to persist entry: {e}"));
                }
            }
        }
    }

    /// Number of cached patterns (0 if a directory backend is unreadable).
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Mem(map) => map.lock().expect("warm-start cache lock").len(),
            Backend::Dir(dir) => std::fs::read_dir(dir).map_or(0, |entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "psi"))
                    .count()
            }),
        }
    }

    /// True when no pattern has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn fetch(&self, key: u64) -> Option<StoredPsi> {
        match &self.backend {
            Backend::Mem(map) => map
                .lock()
                .expect("warm-start cache lock")
                .get(&key)
                .cloned(),
            Backend::Dir(dir) => {
                let path = dir.join(entry_name(key));
                if !path.exists() {
                    return None;
                }
                match load_psi_entry(&path) {
                    Ok(((bx, by), psi)) => Some(StoredPsi { bx, by, psi }),
                    Err(e) => {
                        // A corrupt, truncated or older-format entry is
                        // a miss, never an error: the tile just solves
                        // cold again.
                        lsopc_trace::warn("warmstart", &format!("discarding bad entry: {e}"));
                        None
                    }
                }
            }
        }
    }
}

fn entry_name(key: u64) -> String {
    format!("{key:016x}.psi")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_with_square(n: usize, ox: usize, oy: usize) -> Grid<f64> {
        Grid::from_fn(n, n, |x, y| {
            if (ox..ox + 8).contains(&x) && (oy..oy + 6).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn fingerprint_is_translation_invariant() {
        let a = fingerprint(&tile_with_square(64, 10, 20)).expect("non-empty");
        let b = fingerprint(&tile_with_square(64, 31, 5)).expect("non-empty");
        assert_eq!(a.key(), b.key());
        assert_eq!(a.anchor(), (10, 20));
        assert_eq!(b.anchor(), (31, 5));
    }

    #[test]
    fn fingerprint_separates_content_and_tile_size() {
        let square = fingerprint(&tile_with_square(64, 10, 20)).expect("non-empty");
        let taller = fingerprint(&Grid::from_fn(64, 64, |x, y| {
            if (10..18).contains(&x) && (20..27).contains(&y) {
                1.0
            } else {
                0.0
            }
        }))
        .expect("non-empty");
        assert_ne!(square.key(), taller.key(), "different content");
        let other_tile = fingerprint(&tile_with_square(128, 10, 20)).expect("non-empty");
        assert_ne!(square.key(), other_tile.key(), "different tile size");
    }

    #[test]
    fn empty_tile_has_no_fingerprint() {
        assert!(fingerprint(&Grid::new(16, 16, 0.0)).is_none());
        assert!(
            fingerprint(&Grid::new(16, 16, 0.4)).is_none(),
            "below threshold"
        );
    }

    #[test]
    fn lookup_aligns_to_the_new_anchor() {
        let cache = WarmStartCache::in_memory();
        let solved_at = fingerprint(&tile_with_square(64, 10, 20)).expect("non-empty");
        // A recognizable ψ: equal to the column index.
        let psi = Grid::from_fn(64, 64, |x, _| x as f64);
        cache.store(&solved_at, &psi);

        let wanted_at = fingerprint(&tile_with_square(64, 13, 24)).expect("non-empty");
        let aligned = cache.lookup(&wanted_at).expect("hit");
        // Shift (+3, +4): cell (x) now holds the value of column x-3.
        assert_eq!(aligned[(13, 0)], 10.0);
        assert_eq!(aligned[(0, 0)], 61.0, "wraps cyclically");
    }

    #[test]
    fn directory_backend_roundtrips_bitwise_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("lsopc-ws-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = WarmStartCache::directory(&dir).expect("create");
        assert!(cache.is_empty());

        let fp = fingerprint(&tile_with_square(32, 4, 6)).expect("non-empty");
        let psi = Grid::from_fn(32, 32, |x, y| (x as f64 * 0.31 - y as f64 * 1.7).sin());
        cache.store(&fp, &psi);
        assert_eq!(cache.len(), 1);
        let back = cache.lookup(&fp).expect("hit");
        for (a, b) in back.as_slice().iter().zip(psi.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Truncate the entry: the next lookup must degrade to a miss.
        let entry = dir.join(entry_name(fp.key()));
        std::fs::write(&entry, b"garbage").expect("overwrite");
        assert!(cache.lookup(&fp).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
