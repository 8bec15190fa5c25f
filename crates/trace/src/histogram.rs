//! Fixed-footprint log-linear histogram for latency aggregation.
//!
//! Layout: values below [`LINEAR_MAX`] (16) land in exact unit buckets;
//! above that, each power-of-two major bucket `[2^h, 2^(h+1))` splits
//! into [`SUB_COUNT`] (16) equal linear sub-buckets. That covers the
//! full `u64` range with [`NUM_BUCKETS`] (976) buckets — a fixed
//! ~7.8 KB of `AtomicU64`s, no allocation after construction.
//!
//! Error bound: a bucket at height `h` spans `2^(h-4)` values, so any
//! reconstructed value (quantiles report the bucket's upper bound) is
//! within a factor of `1 + 1/16` above the true sample — one-sided
//! relative error `< 6.25%`, and *exact* for values below 16. Counts
//! and sums are exact.
//!
//! Concurrency: `record` is a single relaxed `fetch_add` on the bucket
//! plus relaxed updates of count/sum/min/max — lock-free, no CAS loop,
//! safe to call from pool workers on hot paths. Buckets act as natural
//! stripes: concurrent recorders of different magnitudes touch
//! different cache lines. Relaxed ordering is sound because totals are
//! only *read* after the recording threads are joined (job end, report
//! time); integer adds commute, so counts are bit-stable under any
//! thread interleaving.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two range splits into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per major (power-of-two) bucket.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Values below this are stored exactly (one bucket per value).
const LINEAR_MAX: u64 = SUB_COUNT as u64;
/// Total bucket count: 16 exact unit buckets + 60 majors × 16 subs.
pub const NUM_BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// One-sided relative error bound of [`Histogram::quantile`] for values
/// `>= 16`; values below 16 are exact. The reported quantile `r`
/// satisfies `v <= r < v * (1 + RELATIVE_ERROR_BOUND)` for the true
/// rank-selected sample `v`.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB_COUNT as f64;

/// Fixed-footprint concurrent histogram of `u64` samples (typically
/// nanosecond durations). See the module docs for layout, error bound,
/// and the concurrency contract.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for `value`. Exact below [`LINEAR_MAX`]; log-linear
/// above.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    let h = 63 - value.leading_zeros(); // h >= SUB_BITS here
    let major = (h - SUB_BITS + 1) as usize;
    let sub = ((value >> (h - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
    major * SUB_COUNT + sub
}

/// Inclusive lower bound of bucket `index`.
#[inline]
fn bucket_lower(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let major = index / SUB_COUNT;
    let sub = (index % SUB_COUNT) as u64;
    let h = major as u32 + SUB_BITS - 1;
    (1u64 << h) + (sub << (h - SUB_BITS))
}

/// Inclusive upper bound of bucket `index`.
#[inline]
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let major = index / SUB_COUNT;
    let h = major as u32 + SUB_BITS - 1;
    let width = 1u64 << (h - SUB_BITS);
    bucket_lower(index).saturating_add(width - 1)
}

impl Histogram {
    /// An empty histogram (~7.8 KB, allocated once).
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array in place.
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = (0..NUM_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length is NUM_BUCKETS by construction"));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: one relaxed `fetch_add` on the
    /// bucket plus relaxed count/sum/min/max updates.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples (wrapping only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket holding the rank-`ceil(q·count)` sample, clamped to the
    /// observed `[min, max]`. Within [`RELATIVE_ERROR_BOUND`] above the
    /// true sample (exact below 16). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                let lo = self.min.load(Ordering::Relaxed);
                let hi = self.max.load(Ordering::Relaxed);
                return bucket_upper(i).clamp(lo, hi);
            }
        }
        // Unreachable when count/bucket totals agree; fall back to max.
        self.max.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    /// The exposition and analyzer layers build cumulative (`le`)
    /// series from this.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                if n > 0 {
                    Some((bucket_upper(i), n))
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        // Every bucket's lower bound maps back to its own index, and
        // consecutive buckets abut exactly.
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_lower(i + 1), hi + 1, "gap after bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_upper_bound_within_documented_error() {
        let h = Histogram::new();
        for v in [1u64, 17, 100, 1_000, 65_535, 1 << 40] {
            let single = Histogram::new();
            single.record(v);
            let q = single.quantile(0.5);
            assert!(q >= v, "quantile below sample: {q} < {v}");
            let bound = (v as f64 * (1.0 + RELATIVE_ERROR_BOUND)).ceil() as u64;
            assert!(q <= bound, "quantile {q} above error bound {bound} for {v}");
            h.record(v);
        }
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert!(h.nonzero_buckets().is_empty());
    }
}
