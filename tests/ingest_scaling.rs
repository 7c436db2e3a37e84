//! Ingest-**scaling** equivalence suite (PR 4): the lock-free
//! ring-based stream build must be a pure transport change.
//!
//! Over randomized `(cfg, workload)` cases the suite pins, at 1/2/4
//! shards:
//!
//! * ring-fed stream build ≡ `build` — byte-for-byte counter
//!   snapshots, for **every** ring capacity tried (including capacity
//!   1, where every chunk hand-off rides full-ring backpressure);
//! * at one shard, all of the above ≡ the sequential `Caesar` oracle
//!   byte-for-byte (shard 0 runs the sequential seeds, so the whole
//!   concurrent family is anchored to the paper's reference sketch);
//! * the empty-shard edges (shards > distinct flows, shards > trace
//!   length, empty trace) terminate and conserve counts.

use caesar::{CaesarConfig, ConcurrentCaesar, DEFAULT_RING_CAPACITY};
use caesar_repro::prelude::*;
use cachesim::CachePolicy;
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{for_each_seed_n, GenExt};

/// Each case spins up `shards` threads several times over; keep the
/// case count modest (the workload/geometry randomization covers the
/// space jointly).
const CASES: u32 = 12;

/// The fault-free stream build over a ring of `cap` slots per shard.
fn stream(cfg: CaesarConfig, shards: usize, flows: &[u64], cap: usize) -> ConcurrentCaesar {
    ConcurrentCaesar::try_build_stream(cfg, shards, flows.iter().copied(), cap, &[])
        .expect("no faults scheduled")
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
                let stream = stream(cfg, shards, &flows, cap);
                assert_eq!(
                    stream.sram().snapshot(),
                    build.sram().snapshot(),
                    "stream(cap={cap}) vs build: {cfg:?} shards={shards}"
                );
                assert_eq!(stream.evictions(), build.evictions(), "cap={cap}");
                assert_eq!(
                    stream.sram().total_added(),
                    build.sram().total_added(),
                    "cap={cap}"
                );
                // Transport must not leak into the ingest statistics
                // either: same staging, same coalescing, same merges.
                assert_eq!(stream.ingest_stats(), build.ingest_stats(), "cap={cap}");
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
            let stream = stream(cfg, 1, &flows, cap);
            assert_eq!(
                stream.sram().snapshot(),
                seq.sram().as_slice(),
                "cap={cap}: {cfg:?}"
            );
            assert_eq!(stream.evictions(), seq.stats().evictions, "cap={cap}");
        }
    });
}

#[test]
fn capacity_one_full_backpressure_conserves_large_workload() {
    // A workload much larger than shards × capacity: every single chunk
    // hand-off exercises the full-ring backpressure path, across
    // several policies and shard counts.
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
        let squeezed = stream(cfg, shards, &flows, 1);
        assert_eq!(squeezed.sram().total_added() as usize, flows.len());
        assert_eq!(
            squeezed.sram().snapshot(),
            reference.sram().snapshot(),
            "shards={shards}"
        );
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
    let streamed = stream(cfg, 16, &tiny, 1);
    assert_eq!(streamed.sram().total_added(), 5);
    // Shards > trace length and the empty trace.
    let one = [hashkit::mix::mix64(9)];
    let c = ConcurrentCaesar::build_stream(cfg, 8, one.iter().copied());
    assert_eq!(c.sram().total_added(), 1);
    let empty = stream(cfg, 8, &[], 1);
    assert_eq!(empty.sram().total_added(), 0);
    assert_eq!(empty.evictions(), 0);
}
