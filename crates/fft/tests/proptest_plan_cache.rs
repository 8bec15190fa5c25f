//! Property tests for the process-wide FFT plan cache.

use std::sync::Arc;

use lsopc_fft::PlanCache;
use proptest::prelude::*;

proptest! {
    /// Concurrent lookups of the same size — including the racy first
    /// construction — must all observe the *same* `Arc` allocation.
    #[test]
    fn concurrent_lookups_share_one_plan(
        wexp in 0u32..=6,
        hexp in 0u32..=6,
        threads in 2usize..=8,
    ) {
        let cache = PlanCache::new();
        let (w, h) = (1usize << wexp, 1usize << hexp);
        let plans: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| cache.plan(w, h)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("worker panicked"))
                .collect()
        });
        for plan in &plans {
            prop_assert!(Arc::ptr_eq(&plans[0], plan));
        }
        // A later lookup still hits the same allocation, and exactly one
        // plan was built despite the racing threads.
        prop_assert!(Arc::ptr_eq(&plans[0], &cache.plan(w, h)));
        prop_assert_eq!(cache.len(), 1);
    }

    /// Looking up distinct sizes from concurrent threads builds exactly
    /// one plan per size, each shared across threads.
    #[test]
    fn distinct_sizes_get_distinct_shared_plans(
        exps in prop::collection::vec(0u32..=5, 1..5),
        threads in 2usize..=4,
    ) {
        let cache = PlanCache::new();
        let sizes: Vec<usize> = exps.iter().map(|&e| 1usize << e).collect();
        let rounds: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let sizes = &sizes;
                    let cache = &cache;
                    scope.spawn(move || {
                        sizes.iter().map(|&n| cache.plan(n, n)).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("worker panicked"))
                .collect()
        });
        for round in &rounds {
            for (plan, first) in round.iter().zip(&rounds[0]) {
                prop_assert!(Arc::ptr_eq(plan, first));
            }
        }
        let distinct: std::collections::HashSet<usize> = sizes.iter().copied().collect();
        prop_assert_eq!(cache.len(), distinct.len());
    }
}
