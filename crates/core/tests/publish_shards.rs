//! Regression: `DcObserver::publish_shards` must aggregate per-shard
//! counters correctly *while the shard threads are still draining* —
//! the single-threaded `publish_metrics` assumption (stats mutated and
//! published by the same thread) does not hold in the sharded runtime.
//!
//! The test hammers per-shard `ShardStats` from worker threads while a
//! publisher thread re-publishes concurrently, then checks the final
//! published totals against a sequentially computed oracle, and checks
//! that every mid-churn publish was a sane partial total (never above
//! the oracle — a publish that *double-counted* a shard would
//! overshoot). Workers pause at their halfway mark until a non-zero
//! partial total has been published, so at least one publish lands
//! mid-churn on any core count.

use scale_core::{DcObserver, ShardStats};
use scale_obs::Registry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn concurrent_publish_matches_sequential_oracle() {
    const SHARDS: usize = 4;
    const INCREMENTS: u64 = 20_000;

    let registry = Arc::new(Registry::new());
    let observer = DcObserver::new(Arc::clone(&registry));
    let shards: Vec<Arc<ShardStats>> = (0..SHARDS).map(|_| Arc::new(ShardStats::default())).collect();
    let stop = AtomicBool::new(false);
    let max_seen = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for stats in &shards {
            scope.spawn(|| {
                for i in 0..INCREMENTS {
                    if i == INCREMENTS / 2 {
                        // Halfway: hold until the publisher has
                        // published a non-zero partial total, so a
                        // mid-churn publish happens by construction,
                        // however the threads are scheduled.
                        while max_seen.load(Ordering::Relaxed) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    stats.messages.fetch_add(1, Ordering::Relaxed);
                    if i % 3 == 0 {
                        stats.attaches.fetch_add(1, Ordering::Relaxed);
                    }
                    if i % 5 == 0 {
                        stats.replicas_imported.fetch_add(2, Ordering::Relaxed);
                    }
                }
            });
        }
        scope.spawn(|| {
            // Publisher churn: keep overwriting the registry while the
            // shard threads run.
            let messages = registry.counter("scale_dc_messages_total", "");
            while !stop.load(Ordering::Relaxed) {
                observer.publish_shards(&shards);
                let seen = messages.get();
                max_seen.fetch_max(seen, Ordering::Relaxed);
                assert!(
                    seen <= SHARDS as u64 * INCREMENTS,
                    "published total {seen} overshoots the true maximum — a shard was double-counted"
                );
                std::hint::spin_loop();
            }
        });
        // Wait (in the scope body, so the publisher keeps running and
        // racing) until every worker's increments have landed, then
        // release the publisher; the scope joins everything after.
        let target = SHARDS as u64 * INCREMENTS;
        while shards
            .iter()
            .map(|s| s.messages.load(Ordering::Relaxed))
            .sum::<u64>()
            < target
        {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesced: one more publish must equal the sequential oracle.
    observer.publish_shards(&shards);
    let oracle_messages = SHARDS as u64 * INCREMENTS;
    let oracle_attaches = SHARDS as u64 * INCREMENTS.div_ceil(3);
    let oracle_replicas = SHARDS as u64 * 2 * INCREMENTS.div_ceil(5);
    assert_eq!(registry.counter("scale_dc_messages_total", "").get(), oracle_messages);
    assert_eq!(
        registry.counter("scale_mmp_attaches_completed_total", "").get(),
        oracle_attaches
    );
    assert_eq!(
        registry.counter("scale_dc_replications_total", "").get(),
        oracle_replicas
    );
    // The publisher actually observed progress mid-churn (the race was
    // exercised, not vacuous; the halfway pause guarantees it).
    assert!(max_seen.load(Ordering::Relaxed) > 0);
}

#[test]
fn publish_is_idempotent_overwrite_not_accumulate() {
    let registry = Arc::new(Registry::new());
    let observer = DcObserver::new(Arc::clone(&registry));
    let shard = Arc::new(ShardStats::default());
    shard.messages.fetch_add(7, Ordering::Relaxed);
    shard.taus.fetch_add(3, Ordering::Relaxed);
    let shards = vec![shard];
    for _ in 0..5 {
        observer.publish_shards(&shards);
    }
    assert_eq!(registry.counter("scale_dc_messages_total", "").get(), 7);
    assert_eq!(registry.counter("scale_mmp_taus_total", "").get(), 3);
}
