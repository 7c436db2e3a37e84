//! Independent reference for the construction phase.
//!
//! Every engine runs one shard-worker kernel (memoized index rows,
//! probe-one-ahead batch loop, slot hints, prefetches). This suite
//! rebuilds the paper's construction phase from public parts only —
//! [`CacheTable::record`] one packet at a time, [`KCounterMap::indices`]
//! per eviction (no memo, no hint), [`spread_eviction`] into a plain
//! [`CounterArray`], then [`CacheTable::drain`] — and pins every
//! engine byte-identical to it: SRAM words, eviction count and SRAM
//! writes.

use cachesim::{CacheConfig, CachePolicy, CacheTable};
use caesar::SketchRead;
use caesar::update::spread_eviction;
use caesar::{Caesar, CaesarConfig, ConcurrentCaesar, CounterArray, ThreadedCaesar};
use hashkit::{KCounterMap, K_MAX};
use support::rand::{rngs::StdRng, Rng, SeedableRng};
use support::testkit::{for_each_seed_n, GenExt};

/// What an engine must reproduce exactly.
struct Reference {
    words: Vec<u64>,
    evictions: u64,
    sram_writes: u64,
}

/// The construction phase, written out with the same seed derivations
/// as the engines.
fn reference_ingest(cfg: &CaesarConfig, flows: &[u64]) -> Reference {
    let mut cache = CacheTable::new(CacheConfig {
        entries: cfg.cache_entries,
        entry_capacity: cfg.entry_capacity,
        policy: cfg.policy,
        seed: cfg.seed ^ 0xA11C_E5ED,
    });
    let kmap = KCounterMap::new(cfg.k, cfg.counters, cfg.seed ^ 0x5EED_5EED);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0D15_EA5E);
    let mut sram = CounterArray::new(cfg.counters, cfg.counter_bits);
    let (mut evictions, mut sram_writes) = (0u64, 0u64);
    let mut evict = |flow: u64, value: u64| {
        sram_writes += spread_eviction(&mut sram, &kmap.indices(flow), value, &mut rng);
        evictions += 1;
    };
    for &flow in flows {
        if let Some(ev) = cache.record(flow) {
            evict(ev.flow, ev.value);
        }
    }
    for ev in cache.drain() {
        evict(ev.flow, ev.value);
    }
    Reference {
        words: sram.as_slice().to_vec(),
        evictions,
        sram_writes,
    }
}

fn random_cfg(rng: &mut StdRng) -> CaesarConfig {
    let k = rng.gen_range(1usize..=8);
    // A quarter of the cases use an SRAM big enough (≥ 256 KiB of
    // words) for the batch path's prefetching branch.
    let counters = if rng.gen_bool(0.25) {
        rng.gen_range(32_768usize..40_000)
    } else {
        rng.gen_range(k.max(16)..2048)
    };
    CaesarConfig {
        cache_entries: rng.gen_range(1usize..200),
        entry_capacity: rng.gen_range(2u64..40),
        policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
        counters,
        k,
        counter_bits: rng.pick(&[4u32, 7, 16, 32]),
        seed: rng.gen(),
        ..CaesarConfig::default()
    }
}

fn random_workload(rng: &mut StdRng) -> Vec<u64> {
    let population = rng.gen_range(1u64..300);
    rng.vec_with(0..4000, |r| {
        if r.gen_bool(0.8) {
            hashkit::mix::mix64(r.gen_range(0..population))
        } else {
            r.gen()
        }
    })
}

fn assert_matches(reference: &Reference, sketch: &Caesar, ctx: &str) {
    assert_eq!(sketch.sram().as_slice(), reference.words, "{ctx}: SRAM words");
    assert_eq!(
        sketch.stats().evictions,
        reference.evictions,
        "{ctx}: evictions"
    );
    assert_eq!(
        sketch.stats().sram_writes,
        reference.sram_writes,
        "{ctx}: SRAM writes"
    );
}

fn assert_concurrent_matches(reference: &Reference, sketch: &ConcurrentCaesar, ctx: &str) {
    assert_eq!(
        sketch.sram().snapshot(),
        reference.words,
        "{ctx}: SRAM words"
    );
    assert_eq!(sketch.evictions(), reference.evictions, "{ctx}: evictions");
    // A staging sink writes each nonzero increment once into its
    // segment: the staged count is the sequential write count.
    assert_eq!(
        sketch.ingest_stats().staged_updates,
        reference.sram_writes,
        "{ctx}: SRAM writes"
    );
}

/// Caesar's `record` and `record_batch` (fed in random chunk sizes),
/// the one-shard `ConcurrentCaesar` build and a one-shard thread
/// runtime all equal the reference ingest.
#[test]
fn every_engine_matches_the_reference_ingest() {
    for_each_seed_n(32, |rng| {
        let cfg = random_cfg(rng);
        let flows = random_workload(rng);
        let reference = reference_ingest(&cfg, &flows);

        let mut per_packet = Caesar::new(cfg);
        for &f in &flows {
            per_packet.record(f);
        }
        per_packet.finish();
        assert_matches(&reference, &per_packet, &format!("record {cfg:?}"));

        let mut batched = Caesar::new(cfg);
        let mut rest = &flows[..];
        while !rest.is_empty() {
            let n = rng.gen_range(1..=rest.len().min(700));
            batched.record_batch(&rest[..n]);
            rest = &rest[n..];
        }
        batched.finish();
        assert_matches(&reference, &batched, &format!("record_batch {cfg:?}"));

        let built = ConcurrentCaesar::build(cfg, 1, &flows);
        assert_concurrent_matches(&reference, &built, &format!("build {cfg:?}"));
        let mut engine = ThreadedCaesar::new(cfg, 1)
            .with_heartbeat_interval(std::time::Duration::from_secs(5));
        engine.offer_batch(&flows);
        assert_concurrent_matches(&reference, &engine.finish(), &format!("threaded {cfg:?}"));
    });
}

/// Past the stack-scratch bound (`k = K_MAX + 1`) the split takes its
/// heap path; the sequential sketch still equals the reference.
#[test]
fn caesar_matches_the_reference_above_k_max() {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    let cfg = CaesarConfig {
        cache_entries: 48,
        entry_capacity: 300,
        counters: 4096,
        k: K_MAX + 1,
        seed: 0x5EED,
        ..CaesarConfig::default()
    };
    let flows = random_workload(&mut rng);
    let reference = reference_ingest(&cfg, &flows);

    let mut per_packet = Caesar::new(cfg);
    for &f in &flows {
        per_packet.record(f);
    }
    per_packet.finish();
    assert_matches(&reference, &per_packet, "record, k > K_MAX");

    let mut batched = Caesar::new(cfg);
    for chunk in flows.chunks(333) {
        batched.record_batch(chunk);
    }
    batched.finish();
    assert_matches(&reference, &batched, "record_batch, k > K_MAX");

    // The per-flow query's heap row agrees with the batch engine.
    for &f in flows.iter().take(50) {
        let one = batched.estimate(f, caesar::Estimator::Csm);
        let all = batched.estimate_all(&[f], caesar::Estimator::Csm)[0];
        assert_eq!(one.value.to_bits(), all.value.to_bits(), "flow {f}");
    }
}
