//! Acceptance suite for epoch-delta checkpoints (DESIGN.md §4j).
//!
//! The contract under test: a full [`OnlineCaesar::snapshot`] anchors
//! a checkpoint chain, every [`OnlineCaesar::checkpoint_delta`] link
//! carries exactly the counter blocks dirtied since the previous
//! link (plus the lane tail), and replaying `base + deltas` — link by
//! link with [`OnlineCaesar::apply_delta`] or wholesale with
//! [`OnlineCaesar::restore_chain`] — reconstructs the live engine
//! **byte-for-byte**, across random geometries × 1/2/4 shards ×
//! random fault plans. Broken chains (gaps, replays, corruption,
//! foreign chains, foreign fleets) must be refused with typed errors,
//! never half-applied.

use std::collections::HashMap;

use caesar::{
    AtomicCounterArray, BackpressurePolicy, CaesarConfig, ChainError, DeltaError, OnlineCaesar,
    ThreadedCaesar, DIRTY_BLOCK_COUNTERS,
};
use cachesim::CachePolicy;
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{for_each_seed_n, FaultEvent, FaultInjector, FaultSite, GenExt};

/// Chain cases are costlier than unit properties; each case jointly
/// covers cfg × shards × epoch boundaries × fault schedule.
const CASES: u32 = 12;

fn random_cfg(rng: &mut StdRng) -> CaesarConfig {
    let counters = rng.gen_range(64usize..1024);
    CaesarConfig {
        cache_entries: rng.gen_range(1usize..120),
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
    let population = rng.gen_range(1u64..60);
    rng.vec_with(200..3000, |r| {
        if r.gen_bool(0.8) {
            hashkit::mix::mix64(r.gen_range(0..population))
        } else {
            r.gen()
        }
    })
}

/// The headline acceptance property: stream under a random fault plan,
/// anchor a chain at a random point, cut 2–4 delta links at random
/// epoch boundaries, and replay every link into a restored replica.
/// Per link the replica must conserve mass exactly and its counter
/// array must equal the live engine's; at the end the live engine, the
/// link-by-link replica, and a wholesale [`OnlineCaesar::restore_chain`]
/// must all serialize to the same bytes.
#[test]
fn delta_chain_replays_byte_identical_across_geometries_and_faults() {
    for shards in [1usize, 2, 4] {
        for_each_seed_n(CASES, |rng| {
            let cfg = random_cfg(rng);
            let flows = random_workload(rng);
            let horizon = (flows.len() as u64 / shards as u64).max(1);
            let plan = FaultInjector::random_plan(rng, shards, horizon);

            let mut live = OnlineCaesar::new(cfg, shards)
                .with_policy(BackpressurePolicy::Block)
                .with_injector(plan);

            // Random epoch boundaries: the first cut anchors the
            // chain, each later cut seals one delta link (possibly
            // empty — a quiet epoch is a legal link).
            let links = rng.gen_range(2usize..5);
            let mut cuts: Vec<usize> =
                (0..links).map(|_| rng.gen_range(0..flows.len())).collect();
            cuts.push(flows.len());
            cuts.sort_unstable();

            for &f in &flows[..cuts[0]] {
                live.offer(f);
            }
            let base = live.snapshot();
            let mut replica = OnlineCaesar::restore(&base).expect("restore anchor");
            let mut prev_counters = replica.sram().snapshot();
            let mut deltas: Vec<Vec<u8>> = Vec::new();

            for pair in cuts.windows(2) {
                for &f in &flows[pair[0]..pair[1]] {
                    live.offer(f);
                }
                let delta = live.checkpoint_delta().expect("anchored chain");
                replica.apply_delta(&delta).expect("in-order link applies");
                deltas.push(delta);

                // Mass conservation per link: nothing offered to the
                // live engine leaks out of the replayed accounting.
                let st = replica.stats();
                assert_eq!(
                    st.recorded + st.dropped + st.quarantined + st.in_flight,
                    st.offered,
                    "link {}: mass leak after replay: {cfg:?} shards={shards}",
                    deltas.len()
                );
                assert_eq!(live.stats(), st, "link {}: stats diverge", deltas.len());

                // Dirty-bitmap soundness, observed end to end: the
                // replica only stores the blocks each link reported,
                // so every counter that moved since the previous epoch
                // must have been inside a reported dirty block — or it
                // could not match here.
                let now = live.sram().snapshot();
                let rep = replica.sram().snapshot();
                for (i, (&want, &got)) in now.iter().zip(&rep).enumerate() {
                    if want != prev_counters[i] {
                        assert_eq!(
                            got, want,
                            "link {}: counter {i} changed this epoch but was not \
                             covered by a dirty block: {cfg:?} shards={shards}",
                            deltas.len()
                        );
                    }
                }
                assert_eq!(rep, now, "link {}: counter arrays diverge", deltas.len());
                prev_counters = now;
            }

            // Byte-identity of the full serialized state, three ways.
            let final_live = live.snapshot();
            assert_eq!(
                final_live,
                replica.snapshot(),
                "link-by-link replay diverges: {cfg:?} shards={shards}"
            );
            let mut chained =
                OnlineCaesar::restore_chain(&base, &deltas).expect("wholesale chain restore");
            assert_eq!(
                final_live,
                chained.snapshot(),
                "restore_chain diverges: {cfg:?} shards={shards}"
            );
        });
    }
}

/// Delta chains are emitter-agnostic: links cut alternately by the
/// deterministic pump and by the detached-thread runtime splice into
/// one chain that replays byte-identical into a pump replica. The
/// live runtime handoffs mid-chain ([`ThreadedCaesar::from_online`]
/// and [`ThreadedCaesar::into_online`]) are invisible on the wire.
#[test]
fn chain_links_from_pump_and_threaded_emitters_splice() {
    for shards in [1usize, 2] {
        for_each_seed_n(CASES / 2, |rng| {
            let cfg = random_cfg(rng);
            let flows = random_workload(rng);
            let q = (flows.len() / 4).max(1);

            let mut pump = OnlineCaesar::new(cfg, shards);
            for &f in &flows[..q] {
                pump.offer(f);
            }
            pump.merge_now();
            let base = pump.snapshot();
            let mut replica = OnlineCaesar::restore(&base).expect("restore anchor");
            let mut deltas: Vec<Vec<u8>> = Vec::new();

            // Link 1: cut by the pump.
            for &f in &flows[q..2 * q] {
                pump.offer(f);
            }
            deltas.push(pump.checkpoint_delta().expect("anchored chain"));

            // Link 2: cut by the threaded runtime after a live handoff.
            let mut threaded = ThreadedCaesar::from_online(pump);
            threaded.offer_batch(&flows[2 * q..3 * q]);
            deltas.push(threaded.checkpoint_delta().expect("chain survives handoff"));

            // Link 3: cut by the pump again, handed back.
            let mut pump = threaded.into_online();
            for &f in &flows[3 * q..] {
                pump.offer(f);
            }
            pump.merge_now();
            deltas.push(pump.checkpoint_delta().expect("still anchored"));

            for (i, d) in deltas.iter().enumerate() {
                replica.apply_delta(d).unwrap_or_else(|e| {
                    panic!("mixed-emitter link {i} must apply: {e:?}")
                });
            }
            assert_eq!(
                pump.snapshot(),
                replica.snapshot(),
                "mixed-emitter replay diverges: {cfg:?} shards={shards}"
            );
            assert_eq!(pump.stats(), replica.stats());
            let mut chained =
                OnlineCaesar::restore_chain(&base, &deltas).expect("wholesale chain restore");
            assert_eq!(
                pump.snapshot(),
                chained.snapshot(),
                "restore_chain over mixed emitters diverges: {cfg:?} shards={shards}"
            );
        });
    }
}

/// A chain that carries a survived worker panic mid-link replays the
/// fault's aftermath (quarantine counters, respawn, fault log) and the
/// chain-restored engine resumes bit-identically to the live one.
#[test]
fn survived_panic_mid_chain_replays_and_resumes_identically() {
    for_each_seed_n(CASES / 2, |rng| {
        let cfg = random_cfg(rng);
        let flows = random_workload(rng);
        let cut = flows.len() / 3;
        // Pinned to fire after the anchor (cut packets) but before the
        // first delta link seals, so the panic's aftermath travels in
        // a delta, not in the base snapshot.
        let events = vec![FaultEvent {
            site: FaultSite::WorkerPanic,
            shard: 0,
            at_tick: cut as u64 + rng.gen_range(0..cut as u64 / 2),
        }];

        let mut live =
            OnlineCaesar::new(cfg, 1).with_injector(FaultInjector::with_events(events));
        for &f in &flows[..cut] {
            live.offer(f);
        }
        let base = live.snapshot();

        // The panic fires inside the first delta epoch.
        for &f in &flows[cut..2 * cut] {
            live.offer(f);
        }
        live.merge_now();
        assert_eq!(live.fault_log(0).panics(), 1, "panic must fire mid-chain");
        let d1 = live.checkpoint_delta().expect("anchored");
        for &f in &flows[2 * cut..] {
            live.offer(f);
        }
        let d2 = live.checkpoint_delta().expect("anchored");

        let mut chained =
            OnlineCaesar::restore_chain(&base, &[&d1, &d2]).expect("chain with a panic link");
        assert_eq!(chained.stats(), live.stats());
        assert_eq!(chained.fault_log(0).panics(), 1, "fault log survives the chain");
        assert_eq!(chained.lane_stats(0).respawns, 1);

        // Both engines keep running; the injector fired its only
        // event, so the resumed streams stay in lockstep.
        for i in 0..500u64 {
            let f = hashkit::mix::mix64(i ^ cfg.seed);
            live.offer(f);
            chained.offer(f);
        }
        assert_eq!(live.stats(), chained.stats());
        let (fa, fb) = (live.finish(), chained.finish());
        assert_eq!(fa.sram().snapshot(), fb.sram().snapshot(), "{cfg:?}");
        assert_eq!(fa.ingest_stats(), fb.ingest_stats());
    });
}

/// The size claim behind the whole feature, pinned at the acceptance
/// geometry: at `L = 32768`, a low-churn epoch (one hot flow) seals
/// into a delta several times smaller than the full snapshot it
/// replaces — and still replays byte-identically.
#[test]
fn low_churn_delta_is_many_times_smaller_than_a_full_snapshot() {
    let cfg = CaesarConfig {
        cache_entries: 64,
        entry_capacity: 16,
        counters: 32_768,
        k: 3,
        seed: 0xD17A,
        ..CaesarConfig::default()
    };
    let mut live = OnlineCaesar::new(cfg, 2);
    // Broad warm-up churns counters across the whole array.
    for i in 0..60_000u64 {
        live.offer(hashkit::mix::mix64(i));
    }
    live.merge_now();
    let base = live.snapshot();

    // Low-churn epoch: one hot flow dirties only a handful of blocks.
    for _ in 0..1_000 {
        live.offer(hashkit::mix::mix64(7));
    }
    live.merge_now();
    let delta = live.checkpoint_delta().expect("anchored");
    assert!(
        delta.len() * 5 <= base.len(),
        "low-churn delta must be >= 5x smaller: delta {} B vs snapshot {} B",
        delta.len(),
        base.len()
    );

    let mut replica = OnlineCaesar::restore(&base).expect("restore");
    replica.apply_delta(&delta).expect("apply");
    assert_eq!(live.snapshot(), replica.snapshot(), "small delta still replays exactly");
}

/// Broken chains are refused with typed errors and the replica stays
/// intact: gaps, replays, bit flips, frames from a different chain or
/// a different fleet, and frame-type confusion all name their reason,
/// and the chain completes after every rejection.
#[test]
fn misordered_foreign_and_corrupt_deltas_are_rejected_typed() {
    let cfg = CaesarConfig {
        cache_entries: 32,
        entry_capacity: 8,
        counters: 512,
        k: 3,
        seed: 0xCAFE,
        ..CaesarConfig::default()
    };
    let stream = |salt: u64, n: u64| (0..n).map(move |i| hashkit::mix::mix64(i ^ salt));

    let mut live = OnlineCaesar::new(cfg, 2);
    for f in stream(1, 600) {
        live.offer(f);
    }
    let base = live.snapshot();
    let mut deltas = Vec::new();
    for round in 2..5u64 {
        for f in stream(round, 400) {
            live.offer(f);
        }
        deltas.push(live.checkpoint_delta().expect("anchored"));
    }
    let (d1, d2, d3) = (&deltas[0], &deltas[1], &deltas[2]);

    let mut replica = OnlineCaesar::restore(&base).expect("restore");
    // Gap: link 2 before link 1.
    assert!(matches!(
        replica.apply_delta(d2),
        Err(DeltaError::Sequence { expected: 1, found: 2 })
    ));
    replica.apply_delta(d1).expect("in-order link");
    // Replay of an already-applied link.
    assert!(matches!(
        replica.apply_delta(d1),
        Err(DeltaError::Sequence { expected: 2, found: 1 })
    ));
    // Bit flip inside the sealed frame.
    let mut bent = d2.clone();
    let last = bent.len() - 1;
    bent[last] ^= 0x40;
    assert!(matches!(replica.apply_delta(&bent), Err(DeltaError::Seal(_))));
    // A delta cut from a different engine of the *same* fleet config:
    // right fingerprint, wrong chain.
    let mut stranger = OnlineCaesar::new(cfg, 2);
    for f in stream(77, 600) {
        stranger.offer(f);
    }
    stranger.snapshot();
    for f in stream(78, 100) {
        stranger.offer(f);
    }
    let foreign = stranger.checkpoint_delta().expect("anchored");
    assert!(matches!(
        replica.apply_delta(&foreign),
        Err(DeltaError::ForeignChain { .. })
    ));
    // A delta from a different fleet entirely: fingerprint mismatch.
    let mut alien = OnlineCaesar::new(CaesarConfig { seed: 0xBAD, ..cfg }, 2);
    for f in stream(9, 600) {
        alien.offer(f);
    }
    alien.snapshot();
    for f in stream(10, 100) {
        alien.offer(f);
    }
    let alien_delta = alien.checkpoint_delta().expect("anchored");
    assert!(matches!(
        replica.apply_delta(&alien_delta),
        Err(DeltaError::Incompatible(_))
    ));
    // Frame-type confusion, both directions.
    assert!(matches!(replica.apply_delta(&base), Err(DeltaError::BadMagic)));
    assert!(OnlineCaesar::restore(d1).is_err(), "a delta is not a snapshot");

    // Every rejection left the replica untouched: the chain completes
    // and the final bytes still match the live engine's.
    replica.apply_delta(d2).expect("in-order link");
    replica.apply_delta(d3).expect("in-order link");
    assert_eq!(live.snapshot(), replica.snapshot());

    // Wholesale restore names the offending link.
    assert!(matches!(
        OnlineCaesar::restore_chain(&base, &[d2]),
        Err(ChainError::Delta { index: 0, .. })
    ));
    assert!(matches!(
        OnlineCaesar::restore_chain(&base, &[d1, d3]),
        Err(ChainError::Delta { index: 1, .. })
    ));
    assert!(matches!(
        OnlineCaesar::restore_chain(d1, &[] as &[Vec<u8>]),
        Err(ChainError::Base(_))
    ));
}

/// The layer below the chain: the shared atomic array's dirty masks
/// over-approximate change and never miss it — every counter whose
/// value moved since the last drain has its bit set in a reported
/// block's mask, a drain clears the masks, and later writes re-mark
/// them.
#[test]
fn dirty_block_bitmaps_cover_every_changed_counter() {
    for_each_seed_n(CASES, |rng| {
        let len = rng.gen_range(1usize..2000);
        let bits = rng.pick(&[8u32, 16, 32]);
        let n_ops = rng.gen_range(1usize..200);
        let ops: Vec<(usize, u64)> =
            (0..n_ops).map(|_| (rng.gen_range(0..len), rng.gen_range(0..2000))).collect();

        let atomic = AtomicCounterArray::new(len, bits);
        // Drain construction-time state so the observed window is
        // exactly the ops below.
        atomic.take_dirty_blocks();

        let before = atomic.snapshot();
        for (i, &(idx, v)) in ops.iter().enumerate() {
            if i % 3 == 0 {
                atomic.add_batch(&[(idx, v)]);
            } else {
                atomic.add(idx, v);
            }
        }

        let after = atomic.snapshot();
        let masks = atomic.take_dirty_masks();
        assert!(masks.windows(2).all(|w| w[0].0 < w[1].0), "blocks ascending");
        assert!(masks.iter().all(|&(_, m)| m != 0), "listed masks are nonempty");
        // One bit per counter: the masks cover every changed counter
        // itself, not just its block.
        let mask_of: HashMap<usize, u64> = masks.into_iter().collect();
        for (i, (&b, &a)) in before.iter().zip(&after).enumerate() {
            let bit = 1u64 << (i % DIRTY_BLOCK_COUNTERS);
            if b != a {
                let mask = mask_of.get(&(i / DIRTY_BLOCK_COUNTERS)).copied().unwrap_or(0);
                assert!(mask & bit != 0, "counter {i} changed outside its mask (len={len})");
            }
        }

        // A drain means *drained*: nothing reported twice, and the
        // next write re-marks its block.
        assert!(atomic.take_dirty_blocks().is_empty());
        let idx = ops[0].0;
        atomic.add(idx, 1);
        assert_eq!(atomic.take_dirty_blocks(), vec![idx / DIRTY_BLOCK_COUNTERS]);
    });
}
