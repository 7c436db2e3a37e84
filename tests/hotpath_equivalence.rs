//! Equivalence suite for the PR-3 zero-alloc hot path.
//!
//! Three independently checked invariants:
//!
//! 1. the allocation-free k-map APIs (`fill_indices`, `indices_iter`)
//!    return exactly the indices of the allocating `indices()` API for
//!    10k random flows across random `(k, L, seed)` geometries — the
//!    foundation of the slot-memoization argument (memo rows are
//!    written with `fill_indices` at insert time and consumed at
//!    eviction time; indices are a pure function of the flow);
//! 2. the prefetching `record_batch` ingest produces a **byte-identical
//!    recorded sketch** to one-at-a-time `record` (same SRAM words,
//!    same eviction/write counts, same estimates);
//! 3. the chunk-parallel batch query engine is **bit-identical** to the
//!    sequential per-flow estimators for CSM and MLM at 1, 2 and 4
//!    threads, for every engine behind the one `SketchRead` surface
//!    (sequential, packed, sharded, pump and threaded).

use caesar::{
    Caesar, CaesarConfig, ConcurrentCaesar, Estimator, OnlineCaesar, PackedCaesar, SketchRead,
    ThreadedCaesar,
};
use caesar_repro::prelude::*;
use hashkit::{KCounterMap, K_MAX};
use std::time::Duration;
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{for_each_seed_n, GenExt};

fn random_cfg(rng: &mut StdRng) -> CaesarConfig {
    let counters = rng.gen_range(64usize..2048);
    CaesarConfig {
        cache_entries: rng.gen_range(1usize..200),
        entry_capacity: rng.gen_range(2u64..40),
        policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
        counters,
        k: rng.gen_range(1usize..6).min(counters),
        counter_bits: rng.pick(&[8u32, 16, 32]),
        seed: rng.gen(),
        ..CaesarConfig::default()
    }
}

fn random_workload(rng: &mut StdRng) -> Vec<u64> {
    let population = rng.gen_range(1u64..120);
    let packets = rng.gen_range(1usize..6000);
    (0..packets)
        .map(|_| {
            // Zipf-ish skew: a few flows dominate.
            let f = rng.gen_range(0..population);
            if rng.gen_bool(0.5) {
                f % (population / 4 + 1)
            } else {
                f
            }
        })
        .collect()
}

#[test]
fn allocation_free_kmap_apis_match_alloc_api_over_random_geometries() {
    let mut checked = 0u64;
    for_each_seed_n(8, |rng| {
        let l = rng.gen_range(8usize..5000);
        let k = rng.gen_range(1usize..=8.min(l));
        let seed: u64 = rng.gen();
        let kmap = KCounterMap::new(k, l, seed);
        let mut buf = [0usize; K_MAX];
        for _ in 0..1250 {
            let flow: u64 = rng.gen();
            let reference = kmap.indices(flow);
            let filled = kmap.fill_indices(flow, &mut buf);
            assert_eq!(filled, k);
            assert_eq!(
                &buf[..k],
                &reference[..],
                "fill_indices diverged: k={k} l={l} seed={seed:#x} flow={flow:#x}"
            );
            let iterated: Vec<usize> = kmap.indices_iter(flow).collect();
            assert_eq!(
                iterated, reference,
                "indices_iter diverged: k={k} l={l} seed={seed:#x} flow={flow:#x}"
            );
            checked += 1;
        }
    });
    assert_eq!(checked, 10_000, "geometry sweep must cover 10k flows");
}

#[test]
fn record_batch_builds_byte_identical_sketch() {
    for_each_seed_n(12, |rng| {
        let cfg = random_cfg(rng);
        let workload = random_workload(rng);

        let mut one_by_one = Caesar::new(cfg);
        for &f in &workload {
            one_by_one.record(f);
        }
        one_by_one.finish();

        // Batch path, fed in randomly sized chunks (including size 1).
        let mut batched = Caesar::new(cfg);
        let mut rest = workload.as_slice();
        while !rest.is_empty() {
            let n = rng.gen_range(1usize..=rest.len().min(97));
            let (chunk, tail) = rest.split_at(n);
            batched.record_batch(chunk);
            rest = tail;
        }
        batched.finish();

        assert_eq!(
            one_by_one.sram().as_slice(),
            batched.sram().as_slice(),
            "recorded sketch must be byte-identical ({cfg:?})"
        );
        let (a, b) = (one_by_one.stats(), batched.stats());
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.sram_writes, b.sram_writes);
        for &f in workload.iter().take(32) {
            assert_eq!(
                one_by_one.query(f).to_bits(),
                batched.query(f).to_bits(),
                "query diverged for flow {f}"
            );
        }
    });
}

/// The whole [`SketchRead`] batch surface of `sketch` against its own
/// per-flow queries over `flows`: `estimate_all_threads` at 1, 2 and 4
/// threads and `estimate_all` bit-identical to `estimate` under both
/// estimators, and `query_all` to `query`.
fn assert_batch_matches_per_flow<S: SketchRead>(sketch: &S, flows: &[u64]) {
    for estimator in [Estimator::Csm, Estimator::Mlm] {
        let reference: Vec<_> = flows.iter().map(|&f| sketch.estimate(f, estimator)).collect();
        let batches = [1usize, 2, 4]
            .map(|threads| (threads, sketch.estimate_all_threads(flows, estimator, threads)));
        let sequential = (0, sketch.estimate_all(flows, estimator));
        for (threads, batch) in batches.iter().chain([&sequential]) {
            assert_eq!(batch.len(), reference.len());
            for (i, (a, b)) in reference.iter().zip(batch).enumerate() {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "{estimator:?} t={threads} flow#{i} value"
                );
                assert_eq!(
                    a.variance.to_bits(),
                    b.variance.to_bits(),
                    "{estimator:?} t={threads} flow#{i} variance"
                );
            }
        }
    }
    let clamped = sketch.query_all(flows);
    for (&f, &v) in flows.iter().zip(&clamped) {
        assert_eq!(v.to_bits(), sketch.query(f).to_bits(), "query_all flow {f}");
    }
}

/// The trace's flows, deduplicated, plus one flow it never saw.
fn query_flows(workload: &[u64]) -> Vec<u64> {
    let mut flows = workload.to_vec();
    flows.sort_unstable();
    flows.dedup();
    flows.push(0xFEED_FACE);
    flows
}

#[test]
fn parallel_query_bit_identical_to_sequential_caesar() {
    for_each_seed_n(6, |rng| {
        let cfg = random_cfg(rng);
        let workload = random_workload(rng);
        let mut sketch = Caesar::new(cfg);
        sketch.record_all(workload.iter().copied());
        sketch.finish();
        assert_batch_matches_per_flow(&sketch, &query_flows(&workload));
    });
}

#[test]
fn parallel_query_bit_identical_to_sequential_packed() {
    for_each_seed_n(4, |rng| {
        let cfg = random_cfg(rng);
        let workload = random_workload(rng);
        let mut sketch = PackedCaesar::new(cfg);
        sketch.record_batch(&workload);
        sketch.finish();
        assert_batch_matches_per_flow(&sketch, &query_flows(&workload));
    });
}

#[test]
fn parallel_query_bit_identical_to_sequential_concurrent() {
    for_each_seed_n(4, |rng| {
        let cfg = random_cfg(rng);
        let workload = random_workload(rng);
        let shards = rng.gen_range(1usize..4);
        let sketch = ConcurrentCaesar::build(cfg, shards, &workload);
        assert_batch_matches_per_flow(&sketch, &query_flows(&workload));
    });
}

#[test]
fn parallel_query_bit_identical_to_sequential_online() {
    for_each_seed_n(4, |rng| {
        let cfg = random_cfg(rng);
        let workload = random_workload(rng);
        let mut engine = OnlineCaesar::new(cfg, rng.gen_range(1usize..4));
        engine.offer_batch(&workload);
        engine.merge_now();
        assert_batch_matches_per_flow(&engine, &query_flows(&workload));
    });
}

#[test]
fn parallel_query_bit_identical_to_sequential_threaded() {
    for_each_seed_n(2, |rng| {
        let cfg = random_cfg(rng);
        let workload = random_workload(rng);
        let mut engine = ThreadedCaesar::new(cfg, rng.gen_range(1usize..4))
            .with_heartbeat_interval(Duration::from_secs(5));
        engine.offer_batch(&workload);
        engine.merge_now();
        assert_batch_matches_per_flow(&engine, &query_flows(&workload));
    });
}

#[test]
fn query_health_identical_between_caesar_and_one_shard_concurrent() {
    for_each_seed_n(6, |rng| {
        let cfg = random_cfg(rng);
        let workload = random_workload(rng);
        let mut sequential = Caesar::new(cfg);
        sequential.record_batch(&workload);
        sequential.finish();
        let sharded = ConcurrentCaesar::build(cfg, 1, &workload);
        for f in query_flows(&workload) {
            let (a, b) = (sequential.query_health(f), sharded.query_health(f));
            assert_eq!(a.estimate.value.to_bits(), b.estimate.value.to_bits(), "flow {f}");
            assert_eq!(a.estimate.variance.to_bits(), b.estimate.variance.to_bits());
            assert_eq!(a.saturation_events, b.saturation_events, "flow {f} ({cfg:?})");
            assert_eq!(a.saturated_counters, b.saturated_counters);
            assert_eq!(a.loss_fraction.to_bits(), b.loss_fraction.to_bits());
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    });
}

#[test]
fn query_all_is_clamped_default_estimator() {
    let cfg = CaesarConfig {
        cache_entries: 64,
        entry_capacity: 8,
        counters: 1024,
        k: 3,
        ..CaesarConfig::default()
    };
    let mut sketch = Caesar::new(cfg);
    for f in 0..50u64 {
        for _ in 0..=f {
            sketch.record(f);
        }
    }
    sketch.finish();
    let flows: Vec<u64> = (0..60).collect();
    let batch = sketch.query_all(&flows);
    for (&f, &v) in flows.iter().zip(&batch) {
        assert_eq!(v.to_bits(), sketch.query(f).to_bits(), "flow {f}");
        assert!(v >= 0.0);
    }
}
