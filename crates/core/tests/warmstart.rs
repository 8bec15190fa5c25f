//! Property tests for warm-start fingerprint normalization: translated
//! copies of a pattern share one cache key, and the cached ψ aligns
//! bit-for-bit (DESIGN.md §14). Plus the cache's engagement on a tiled
//! run over a periodic layout.

use lsopc_core::{fingerprint, LevelSetIlt, TiledIlt, TiledStats, WarmStartCache};
use lsopc_fft::cyclic_shift;
use lsopc_grid::Grid;
use lsopc_optics::OpticsConfig;
use proptest::prelude::*;

const TILE: usize = 64;

/// 4 × 4 copies of one motif, a 3 × 3 cluster of 9 px contacts on an
/// 18 px pitch, at a 64 px period on 256² (8 nm/px over the 2048 nm
/// field). With 64 px cores and no halo every tile sees the same motif
/// at the same place.
fn periodic_target() -> Grid<f64> {
    Grid::from_fn(256, 256, |x, y| {
        let on = |v: usize| {
            let v = v % TILE;
            (10..56).contains(&v) && (v - 10) % 18 < 9
        };
        if on(x) && on(y) {
            1.0
        } else {
            0.0
        }
    })
}

/// One tiled run (K = 4, 3 iterations, 1 warm iteration, halo 0) over
/// [`periodic_target`], optionally on `cache`.
fn tiled_run(cache: Option<&WarmStartCache>) -> TiledStats {
    let opt = LevelSetIlt::builder().max_iterations(3).build();
    let mut ilt = TiledIlt::new(opt, TILE, 0)
        .expect("valid tiling")
        .with_warm_iterations(1);
    if let Some(cache) = cache {
        ilt = ilt.with_warm_start(cache.clone());
    }
    let optics = OpticsConfig::iccad2013().with_kernel_count(4);
    let (_, stats) = ilt
        .optimize_with_stats(&optics, &periodic_target(), 8.0)
        .expect("tiled run");
    stats
}

/// The cache collapses the 16 translation-equal tiles onto one cold
/// solve, a second run on the same cache solves none cold, and warm
/// tiles cut the full-resolution iterations at least in half.
#[test]
fn repeated_tiles_warm_start_from_one_cold_solve() {
    let uncached = tiled_run(None);
    assert_eq!(
        (uncached.tiles, uncached.cold),
        (16, 16),
        "every tile solves cold without a cache"
    );
    let cache = WarmStartCache::in_memory();
    let first = tiled_run(Some(&cache));
    assert_eq!(
        (first.cold, first.warm),
        (1, 15),
        "repeated tiles collapse onto one cold representative"
    );
    let second = tiled_run(Some(&cache));
    assert_eq!(
        (second.cold, second.warm),
        (0, 16),
        "a populated cache warm-starts every tile"
    );
    assert!(
        uncached.full_iterations() >= 2 * second.full_iterations(),
        "warm starts must cut full-resolution iterations at least 2x: {} vs {}",
        uncached.full_iterations(),
        second.full_iterations()
    );
}

/// Builds a TILE×TILE tile with a `bw`×`bh` bit box placed at `(ox, oy)`.
fn place(pattern: &[bool], bw: usize, bh: usize, ox: usize, oy: usize) -> Grid<f64> {
    Grid::from_fn(TILE, TILE, |x, y| {
        let inside = (ox..ox + bw).contains(&x) && (oy..oy + bh).contains(&y);
        if inside && pattern[(y - oy) * bw + (x - ox)] {
            1.0
        } else {
            0.0
        }
    })
}

proptest! {
    /// The same pattern placed at two different offsets fingerprints to
    /// the same key with anchors differing by exactly the translation;
    /// a ψ cached under one placement, looked up through the other, and
    /// shifted back reproduces the stored ψ bit-for-bit.
    #[test]
    fn shifted_tiles_share_a_key_and_align_bitwise(
        bw in 1usize..=12,
        bh in 1usize..=12,
        bits in prop::collection::vec(any::<bool>(), 144),
        ox1 in 0usize..=50, oy1 in 0usize..=50,
        ox2 in 0usize..=50, oy2 in 0usize..=50,
        seed in 1usize..1000,
    ) {
        let mut pattern = bits[..bw * bh].to_vec();
        // Pin the box corner on so the bounding-box anchor is (ox, oy)
        // exactly and the pattern is never empty.
        pattern[0] = true;
        let a = place(&pattern, bw, bh, ox1, oy1);
        let b = place(&pattern, bw, bh, ox2, oy2);
        let fa = fingerprint(&a).expect("non-empty");
        let fb = fingerprint(&b).expect("non-empty");
        prop_assert_eq!(fa.key(), fb.key());
        let (ax, ay) = fa.anchor();
        let (bx, by) = fb.anchor();
        prop_assert_eq!(bx as i64 - ax as i64, ox2 as i64 - ox1 as i64);
        prop_assert_eq!(by as i64 - ay as i64, oy2 as i64 - oy1 as i64);

        let cache = WarmStartCache::in_memory();
        let psi = Grid::from_fn(TILE, TILE, |x, y| {
            ((x * 31 + y * 17 + seed) as f64 * 0.37).sin()
        });
        cache.store(&fa, &psi);
        let aligned = cache.lookup(&fb).expect("same key hits");
        let back = cyclic_shift(&aligned, ax as i64 - bx as i64, ay as i64 - by as i64);
        for (got, want) in back.as_slice().iter().zip(psi.as_slice()) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// Flipping any single interior cell of the bounding box changes the
    /// key: the fingerprint depends on the full box-relative bit
    /// pattern, not just the box geometry.
    #[test]
    fn content_changes_change_the_key(
        bw in 2usize..=10,
        bh in 2usize..=10,
        bits in prop::collection::vec(any::<bool>(), 100),
        flip in (1usize..99),
        ox in 0usize..=40, oy in 0usize..=40,
    ) {
        let mut pattern = bits[..bw * bh].to_vec();
        // Pin all four corners so the bounding box is identical before
        // and after the flip — only the interior content differs.
        pattern[0] = true;
        pattern[bw - 1] = true;
        pattern[(bh - 1) * bw] = true;
        pattern[bh * bw - 1] = true;
        let flip = flip % (bw * bh);
        prop_assume!(
            flip != 0 && flip != bw - 1 && flip != (bh - 1) * bw && flip != bh * bw - 1
        );
        let original = fingerprint(&place(&pattern, bw, bh, ox, oy)).expect("non-empty");
        pattern[flip] = !pattern[flip];
        let flipped = fingerprint(&place(&pattern, bw, bh, ox, oy)).expect("non-empty");
        prop_assert!(original.key() != flipped.key());
        prop_assert_eq!(original.anchor(), flipped.anchor());
    }
}
