//! Ingest-**scaling** equivalence suite: the ring-fed thread runtime
//! must be a pure transport change.
//!
//! Over randomized `(cfg, workload)` cases the suite pins, at 1/2/4
//! shards:
//!
//! * a fault-free [`ThreadedCaesar`] fed the trace and finished ≡
//!   `build` — byte-for-byte counter snapshots and equal eviction
//!   counts, for **every** ring capacity tried (including capacity 1,
//!   where every packet hand-off rides full-ring backpressure);
//! * at one shard, all of the above ≡ the sequential `Caesar` oracle
//!   byte-for-byte (shard 0 runs the sequential seeds, so the whole
//!   concurrent family is anchored to the paper's reference sketch);
//! * the empty-shard edges (shards > distinct flows, shards > trace
//!   length, empty trace) terminate and conserve counts.

use std::time::Duration;

use caesar::{CaesarConfig, ConcurrentCaesar, ThreadedCaesar, DEFAULT_RING_CAPACITY};
use caesar_repro::prelude::*;
use cachesim::CachePolicy;
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{for_each_seed_n, GenExt};

/// Each case spins up `shards` threads several times over; keep the
/// case count modest (the workload/geometry randomization covers the
/// space jointly).
const CASES: u32 = 12;

/// A fault-free thread runtime whose heartbeat monitor can never
/// legitimately fire, however starved the host.
fn engine(cfg: CaesarConfig, shards: usize) -> ThreadedCaesar {
    ThreadedCaesar::new(cfg, shards).with_heartbeat_interval(Duration::from_secs(5))
}

/// Offer the whole trace to `engine` and finish it.
fn run(mut engine: ThreadedCaesar, flows: &[u64]) -> ConcurrentCaesar {
    engine.offer_batch(flows);
    engine.finish()
}

/// The fault-free thread runtime over a ring of `cap` slots per shard.
fn threaded(cfg: CaesarConfig, shards: usize, flows: &[u64], cap: usize) -> ConcurrentCaesar {
    run(engine(cfg, shards).with_ring_capacity(cap), flows)
}

fn random_cfg(rng: &mut StdRng) -> CaesarConfig {
    let counters = rng.gen_range(64usize..2048);
    CaesarConfig {
        cache_entries: rng.gen_range(1usize..160),
        entry_capacity: rng.gen_range(2u64..40),
        policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
        counters,
        k: rng.gen_range(1usize..6).min(counters),
        counter_bits: rng.pick(&[4u32, 8, 16, 32]),
        seed: rng.gen(),
        ..CaesarConfig::default()
    }
}

fn random_workload(rng: &mut StdRng) -> Vec<u64> {
    let population = rng.gen_range(1u64..80);
    rng.vec_with(0..3000, |r| {
        if r.gen_bool(0.8) {
            hashkit::mix::mix64(r.gen_range(0..population))
        } else {
            r.gen()
        }
    })
}

#[test]
fn ring_stream_matches_build_at_1_2_4_shards() {
    for_each_seed_n(CASES, |rng| {
        let cfg = random_cfg(rng);
        let flows = random_workload(rng);
        for shards in [1usize, 2, 4] {
            let build = ConcurrentCaesar::build(cfg, shards, &flows);
            // Ring capacities: the degenerate ping-pong (1), a couple
            // of mid-sizes that wrap many times, and the default.
            for cap in [1usize, rng.gen_range(2..64), 256, DEFAULT_RING_CAPACITY] {
                // One epoch: the only merge is `finish`, as in `build`.
                let one_epoch =
                    engine(cfg, shards).with_ring_capacity(cap).with_epoch_len(u64::MAX);
                let threaded = run(one_epoch, &flows);
                assert_eq!(
                    threaded.sram().snapshot(),
                    build.sram().snapshot(),
                    "threaded(cap={cap}) vs build: {cfg:?} shards={shards}"
                );
                assert_eq!(threaded.evictions(), build.evictions(), "cap={cap}");
                assert_eq!(
                    threaded.sram().total_added(),
                    build.sram().total_added(),
                    "cap={cap}"
                );
                // Transport must not leak into the ingest statistics
                // either: same staging, same coalescing, same merges.
                assert_eq!(threaded.ingest_stats(), build.ingest_stats(), "cap={cap}");
            }
        }
    });
}

#[test]
fn one_shard_ring_stream_matches_sequential_oracle() {
    for_each_seed_n(CASES, |rng| {
        let cfg = random_cfg(rng);
        let flows = random_workload(rng);
        let mut seq = Caesar::new(cfg);
        for &f in &flows {
            seq.record(f);
        }
        seq.finish();
        for cap in [1usize, 17, DEFAULT_RING_CAPACITY] {
            let threaded = threaded(cfg, 1, &flows, cap);
            assert_eq!(
                threaded.sram().snapshot(),
                seq.sram().as_slice(),
                "cap={cap}: {cfg:?}"
            );
            assert_eq!(threaded.evictions(), seq.stats().evictions, "cap={cap}");
        }
    });
}

#[test]
fn capacity_one_full_backpressure_conserves_large_workload() {
    // A workload much larger than shards × capacity: every single
    // packet hand-off exercises the full-ring backpressure path, across
    // several shard counts and, at the default epoch length, several
    // epoch merges.
    let cfg = CaesarConfig {
        cache_entries: 64,
        entry_capacity: 8,
        counters: 1024,
        k: 3,
        ..CaesarConfig::default()
    };
    let flows: Vec<u64> = (0..40_000u64).map(|i| hashkit::mix::mix64(i % 500)).collect();
    for shards in [2usize, 4] {
        let reference = ConcurrentCaesar::build(cfg, shards, &flows);
        let mut squeezed = engine(cfg, shards).with_ring_capacity(1);
        squeezed.offer_batch(&flows);
        let st = squeezed.stats();
        assert_eq!(st.offered as usize, flows.len());
        assert_eq!(st.dropped + st.quarantined, 0, "Block never sheds: shards={shards}");
        assert!(st.epoch > 0, "the trace spans several epochs");
        let squeezed = squeezed.finish();
        assert_eq!(squeezed.sram().total_added() as usize, flows.len());
        assert_eq!(
            squeezed.sram().snapshot(),
            reference.sram().snapshot(),
            "shards={shards}"
        );
        assert_eq!(squeezed.evictions(), reference.evictions(), "shards={shards}");
    }
}

#[test]
fn empty_shard_edges_terminate_and_conserve() {
    let cfg = CaesarConfig {
        cache_entries: 32,
        entry_capacity: 8,
        counters: 512,
        k: 3,
        ..CaesarConfig::default()
    };
    // Shards ≫ distinct flows: most rings never see an item.
    let tiny: Vec<u64> = (0..5u64).map(hashkit::mix::mix64).collect();
    let built = ConcurrentCaesar::build(cfg, 16, &tiny);
    assert_eq!(built.sram().total_added(), 5);
    let threaded16 = threaded(cfg, 16, &tiny, 1);
    assert_eq!(threaded16.sram().total_added(), 5);
    assert_eq!(threaded16.sram().snapshot(), built.sram().snapshot());
    assert_eq!(threaded16.evictions(), built.evictions());
    // Shards > trace length and the empty trace.
    let one = [hashkit::mix::mix64(9)];
    let c = run(engine(cfg, 8), &one);
    assert_eq!(c.sram().total_added(), 1);
    let empty = threaded(cfg, 8, &[], 1);
    assert_eq!(empty.sram().total_added(), 0);
    assert_eq!(empty.evictions(), 0);
}
