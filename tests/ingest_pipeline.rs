//! Property suite for the sharded ingest pipeline (`support::testkit`
//! harness): over randomized `(cfg, shards, workload)` cases, the
//! partitioned batch-writeback construction must
//!
//! * conserve every packet,
//! * produce **bit-identical** SRAM snapshots across repeated runs and
//!   across `build` and the ring-fed thread runtime at any ring
//!   capacity and epoch length,
//! * match the sequential `Caesar` total mass with one shard, and
//! * split the on-chip budget exactly (`Σ per-shard entries ==
//!   max(M, shards)`).

use std::time::Duration;

use caesar::{
    per_shard_entries, CaesarConfig, ConcurrentCaesar, ThreadedCaesar, DEFAULT_EPOCH_LEN,
    DEFAULT_RING_CAPACITY,
};
use caesar_repro::prelude::*;
use cachesim::CachePolicy;
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{for_each_seed_n, GenExt};

/// Threaded builds are costlier than the unit-level properties; fewer
/// cases, each covering cfg × shards × workload jointly.
const CASES: u32 = 24;

/// A fault-free thread runtime (its heartbeat monitor can never
/// legitimately fire, however starved the host), fed `flows` and
/// finished.
fn threaded(engine: ThreadedCaesar, flows: &[u64]) -> ConcurrentCaesar {
    let mut engine = engine.with_heartbeat_interval(Duration::from_secs(5));
    engine.offer_batch(flows);
    engine.finish()
}

fn random_cfg(rng: &mut StdRng) -> CaesarConfig {
    let counters = rng.gen_range(64usize..2048);
    CaesarConfig {
        cache_entries: rng.gen_range(1usize..200),
        entry_capacity: rng.gen_range(2u64..40),
        policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
        counters,
        // k up to 6, never above L; k = 1 exercises the no-sharing edge.
        k: rng.gen_range(1usize..6).min(counters),
        // Narrow widths on purpose: saturating counters must stay
        // order-independent too.
        counter_bits: rng.pick(&[4u32, 8, 16, 32]),
        seed: rng.gen(),
        ..CaesarConfig::default()
    }
}

fn random_workload(rng: &mut StdRng) -> Vec<u64> {
    let population = rng.gen_range(1u64..80);
    rng.vec_with(0..2500, |r| {
        // Mix of heavy-tailed repeats and raw 64-bit IDs.
        if r.gen_bool(0.8) {
            hashkit::mix::mix64(r.gen_range(0..population))
        } else {
            r.gen()
        }
    })
}

#[test]
fn ingest_conserves_packets_and_repeats_bit_exactly() {
    for_each_seed_n(CASES, |rng| {
        let cfg = random_cfg(rng);
        let shards = rng.gen_range(1usize..8);
        let flows = random_workload(rng);
        let a = ConcurrentCaesar::build(cfg, shards, &flows);
        assert_eq!(a.sram().total_added() as usize, flows.len(), "{cfg:?}");
        let b = ConcurrentCaesar::build(cfg, shards, &flows);
        assert_eq!(a.sram().snapshot(), b.sram().snapshot(), "{cfg:?} shards={shards}");
        assert_eq!(a.evictions(), b.evictions());
        assert_eq!(a.ingest_stats(), b.ingest_stats(), "ingest stats must be deterministic");
    });
}

#[test]
fn threaded_finish_is_bit_identical_to_build() {
    for_each_seed_n(CASES, |rng| {
        let cfg = random_cfg(rng);
        let shards = rng.gen_range(1usize..8);
        let flows = random_workload(rng);
        // Scheduling must be invisible: the ring transport at any
        // capacity (1 = full-backpressure ping-pong) and any epoch
        // length agrees with the partitioned slice build.
        let ring_capacity = rng.pick(&[1usize, 7, DEFAULT_RING_CAPACITY]);
        let epoch_len = rng.pick(&[u64::MAX, 97, DEFAULT_EPOCH_LEN]);
        let batch = ConcurrentCaesar::build(cfg, shards, &flows);
        let engine = ThreadedCaesar::new(cfg, shards)
            .with_ring_capacity(ring_capacity)
            .with_epoch_len(epoch_len);
        let stream = threaded(engine, &flows);
        assert_eq!(
            batch.sram().snapshot(),
            stream.sram().snapshot(),
            "build vs threads: {cfg:?} shards={shards} ring={ring_capacity} epoch={epoch_len}"
        );
        assert_eq!(batch.evictions(), stream.evictions());
        assert_eq!(batch.sram().total_added(), stream.sram().total_added());
        if (flows.len() as u64) < epoch_len {
            // One epoch: `finish` is the only merge, as in `build`.
            assert_eq!(batch.ingest_stats(), stream.ingest_stats(), "stream stats");
        }
    });
}

#[test]
fn one_shard_matches_sequential_byte_for_byte() {
    for_each_seed_n(CASES, |rng| {
        let cfg = random_cfg(rng);
        let flows = random_workload(rng);
        let conc = ConcurrentCaesar::build(cfg, 1, &flows);
        let stream = threaded(ThreadedCaesar::new(cfg, 1), &flows);
        assert_eq!(conc.sram().snapshot(), stream.sram().snapshot(), "{cfg:?}");
        assert_eq!(conc.evictions(), stream.evictions(), "{cfg:?}");
        let mut seq = Caesar::new(cfg);
        for &f in &flows {
            seq.record(f);
        }
        seq.finish();
        // Shard 0's seeds (cache — including the Random-replacement
        // victim RNG — and remainder-scatter RNG) are exactly the
        // sequential sketch's, so with one shard the concurrent build
        // IS the sequential oracle: same eviction stream, same RNG
        // draws, same counters, for every replacement policy.
        assert_eq!(
            conc.sram().snapshot(),
            seq.sram().as_slice(),
            "{cfg:?}"
        );
        assert_eq!(conc.sram().total_added(), seq.sram().total_added(), "{cfg:?}");
        assert_eq!(conc.sram().total_added() as usize, flows.len());
        assert_eq!(conc.evictions(), seq.stats().evictions, "{cfg:?}");
    });
}

#[test]
fn shard_budget_is_exact_for_random_geometries() {
    for_each_seed_n(96, |rng| {
        let m = rng.gen_range(1usize..5000);
        let t = rng.gen_range(1usize..64);
        let parts = per_shard_entries(m, t);
        assert_eq!(parts.len(), t);
        assert_eq!(parts.iter().sum::<usize>(), m.max(t), "M={m} T={t}");
        assert!(parts.iter().all(|&e| e >= 1), "M={m} T={t}");
        let lo = parts.iter().min().copied().unwrap_or(0);
        let hi = parts.iter().max().copied().unwrap_or(0);
        assert!(hi - lo <= 1, "M={m} T={t}: {parts:?}");
    });
}
