//! Histogram accuracy and stability guarantees, checked against an
//! exact oracle.
//!
//! Two contracts from the module docs are exercised here: every
//! quantile stays within [`RELATIVE_ERROR_BOUND`] of the true
//! rank-selected sample (on random *and* adversarial distributions),
//! and recorded totals are bit-stable under any thread count (the
//! workspace test suite runs at `LSOPC_THREADS=1` and `4`; this test
//! additionally compares 1-thread and 4-thread recordings of the same
//! multiset directly).

use lsopc_trace::{Histogram, RELATIVE_ERROR_BOUND};

/// Deterministic 64-bit LCG (Knuth constants); no external RNG crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// The true `q`-quantile under the histogram's rank convention:
/// the rank-`ceil(q·n)` smallest sample (clamped to `[1, n]`).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

const QS: [f64; 9] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];

/// Asserts every probed quantile of `samples` lands in
/// `[exact, exact · (1 + RELATIVE_ERROR_BOUND)]`.
fn assert_quantiles_within_bound(samples: &[u64], label: &str) {
    let hist = Histogram::new();
    for &v in samples {
        hist.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for q in QS {
        let exact = exact_quantile(&sorted, q);
        let est = hist.quantile(q);
        assert!(
            est >= exact,
            "{label}: q={q}: estimate {est} below exact {exact}"
        );
        let bound = (exact as f64 * (1.0 + RELATIVE_ERROR_BOUND)).ceil() as u64;
        assert!(
            est <= bound.max(exact),
            "{label}: q={q}: estimate {est} above bound {bound} (exact {exact})"
        );
    }
}

#[test]
fn quantiles_match_oracle_on_random_magnitude_spread() {
    let mut rng = Lcg(0x5eed_1234_dead_beef);
    // Magnitudes from sub-16 (exact region) up to ~2^40, log-uniform-ish.
    let samples: Vec<u64> = (0..10_000)
        .map(|_| {
            let shift = rng.next() % 40;
            rng.next() % (1u64 << (shift + 1))
        })
        .collect();
    assert_quantiles_within_bound(&samples, "random spread");
}

#[test]
fn quantiles_are_exact_when_every_sample_shares_one_bucket() {
    // Adversarial: all mass in a single bucket. The [min, max] clamp
    // must collapse every quantile to the exact sample value.
    let hist = Histogram::new();
    let value = 123_456_789u64;
    for _ in 0..5_000 {
        hist.record(value);
    }
    for q in QS {
        assert_eq!(hist.quantile(q), value, "q={q}");
    }
    assert_eq!(hist.min(), Some(value));
    assert_eq!(hist.max(), Some(value));
}

#[test]
fn quantiles_match_oracle_on_bimodal_distribution() {
    // Adversarial: two far-apart modes, so a rank just past the split
    // must not bleed into the other mode's magnitude.
    let mut samples = vec![100u64; 500];
    samples.extend(std::iter::repeat_n(10_000_000u64, 500));
    assert_quantiles_within_bound(&samples, "bimodal");

    let hist = Histogram::new();
    for &v in &samples {
        hist.record(v);
    }
    // p50 falls on the low mode (rank 500 of 1000), p75 on the high one.
    assert!(hist.quantile(0.5) <= 107, "p50 stayed on the low mode");
    assert!(
        hist.quantile(0.75) >= 10_000_000,
        "p75 reached the high mode"
    );
}

#[test]
fn concurrent_recording_is_bit_stable_across_thread_counts() {
    let mut rng = Lcg(7);
    let samples: Vec<u64> = (0..8_000).map(|_| rng.next() % (1u64 << 34)).collect();

    // Reference: strictly sequential recording.
    let sequential = Histogram::new();
    for &v in &samples {
        sequential.record(v);
    }

    // Same multiset recorded from 1 and from 4 threads concurrently.
    for threads in [1usize, 4] {
        let hist = Histogram::new();
        std::thread::scope(|scope| {
            for chunk in samples.chunks(samples.len().div_ceil(threads)) {
                let hist = &hist;
                scope.spawn(move || {
                    for &v in chunk {
                        hist.record(v);
                    }
                });
            }
        });
        assert_eq!(hist.count(), sequential.count(), "{threads} threads");
        assert_eq!(hist.sum(), sequential.sum(), "{threads} threads");
        assert_eq!(hist.min(), sequential.min(), "{threads} threads");
        assert_eq!(hist.max(), sequential.max(), "{threads} threads");
        assert_eq!(
            hist.nonzero_buckets(),
            sequential.nonzero_buckets(),
            "bucket counts are bit-stable at {threads} threads"
        );
        for q in QS {
            assert_eq!(
                hist.quantile(q),
                sequential.quantile(q),
                "q={q} at {threads} threads"
            );
        }
    }
}
