//! Fault-tolerance acceptance suite for the supervised online engine
//! (`caesar::online::OnlineCaesar`), property-tested with the
//! `support::testkit` harness:
//!
//! * randomized fault schedules (worker panics + ring stalls) across
//!   1/2/4 shards × random geometries must leave the engine serving
//!   queries with **exact** loss accounting:
//!   `recorded + dropped + quarantined == offered` once drained;
//! * a fault-free online run must `finish()` **bit-identical** to the
//!   batch `ConcurrentCaesar::build` over the same stream;
//! * `snapshot → restore → resume` must be byte-identical to the
//!   uninterrupted run, at every snapshot point, including after
//!   survived faults;
//! * drop-policy losses and forced saturation must surface in
//!   [`QueryHealth`] as reduced confidence, never as silent bias.

use caesar::SketchRead;
use caesar::{
    BackpressurePolicy, CaesarConfig, ConcurrentCaesar, FaultKind, OnlineCaesar,
    ThreadedCaesar,
};
use cachesim::CachePolicy;
use support::rand::{rngs::StdRng, Rng};
use support::testkit::{
    for_each_seed_n, FaultEvent, FaultInjector, FaultSite, GenExt, INJECTED_PANIC,
};

/// Supervised-stream cases are costlier than unit properties; each
/// case jointly covers cfg × shards × workload × fault schedule.
const CASES: u32 = 18;

/// Thread-chaos cases pay real wall-clock per injected hang (two
/// missed heartbeat deadlines before the failover verdict), so the
/// property runs fewer of them.
const THREAD_CASES: u32 = 6;

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
    rng.vec_with(0..3000, |r| {
        if r.gen_bool(0.8) {
            hashkit::mix::mix64(r.gen_range(0..population))
        } else {
            r.gen()
        }
    })
}

/// The headline acceptance property: inject a random fault plan
/// (worker panics between packets, sticky ring stalls) while
/// streaming, and the supervised engine must (a) keep serving queries,
/// (b) account for every single offered packet exactly, and (c) keep
/// its fault log coherent with the injector's fired schedule.
#[test]
fn random_fault_plans_keep_accounting_exact_across_shard_counts() {
    for shards in [1usize, 2, 4] {
        for_each_seed_n(CASES, |rng| {
            let cfg = random_cfg(rng);
            let flows = random_workload(rng);
            let horizon = (flows.len() as u64 / shards as u64).max(1);
            let plan = FaultInjector::random_plan(rng, shards, horizon);
            let planned = plan.pending().len();

            let mut online = OnlineCaesar::new(cfg, shards)
                .with_policy(BackpressurePolicy::Block)
                .with_injector(plan);
            for (i, &f) in flows.iter().enumerate() {
                online.offer(f);
                if i == flows.len() / 2 {
                    // Mid-stream the invariant holds with in-flight mass.
                    let st = online.stats();
                    assert_eq!(
                        st.recorded + st.dropped + st.quarantined + st.in_flight,
                        st.offered,
                        "mid-stream mass leak: {cfg:?} shards={shards}"
                    );
                }
            }
            online.merge_now(); // drains every ring dry
            let st = online.stats();
            assert_eq!(st.in_flight, 0);
            assert_eq!(st.offered, flows.len() as u64);
            assert_eq!(
                st.recorded + st.dropped + st.quarantined,
                st.offered,
                "post-drain mass leak: {cfg:?} shards={shards}"
            );
            // Block policy never sheds; only panics lose packets.
            assert_eq!(st.dropped, 0, "Block policy dropped packets");

            // The engine is still serving: estimates are finite and the
            // sketch holds exactly the surviving mass.
            let est = online.query(flows[0]);
            assert!(est.is_finite());
            assert_eq!(
                online.sram().total_added() + online.unmerged_units(),
                st.recorded,
                "surviving mass must equal recorded packets: {cfg:?}"
            );

            // Fault log ↔ injector coherence: every fired WorkerPanic
            // appears in exactly one lane log, tagged exact, carrying
            // the injected payload.
            let fired_panics = online.injector().fired_at(FaultSite::WorkerPanic);
            let logged: usize = (0..shards).map(|s| online.fault_log(s).panics()).sum();
            assert_eq!(fired_panics, logged, "fired vs logged panics");
            assert_eq!(st.respawns as usize, logged, "one respawn per panic");
            for s in 0..shards {
                let log = online.fault_log(s);
                assert!(log.is_exact(), "injected faults fire between packets");
                for r in &log.records {
                    if r.kind == FaultKind::WorkerPanic {
                        assert!(r.payload.contains(INJECTED_PANIC));
                    }
                }
            }
            if fired_panics == 0 && planned == 0 {
                // Fault-free plans must not lose anything at all.
                assert_eq!(st.quarantined, 0);
            }
        });
    }
}

/// The same acceptance property on the detached-thread runtime:
/// random *thread* chaos schedules (panics, heartbeat-supervised
/// hangs, slow drains) across shard counts must leave the engine
/// serving with exact loss accounting and a fault log coherent with
/// what actually fired. Batch boundaries — and therefore *when* a
/// hang/slow tick is consumed — depend on OS scheduling, so this
/// asserts invariants, not byte-identity (the fault-free byte-identity
/// property lives in `tests/threaded_runtime.rs`).
#[test]
fn random_thread_chaos_keeps_accounting_exact_across_shard_counts() {
    // A tight heartbeat keeps each injected hang's two-deadline
    // verdict (and thus the whole suite) fast.
    let heartbeat = std::time::Duration::from_millis(25);
    for shards in [1usize, 2, 4] {
        for_each_seed_n(THREAD_CASES, |rng| {
            let cfg = random_cfg(rng);
            let flows = random_workload(rng);
            let horizon = (flows.len() as u64 / shards as u64).max(1);
            let plan = FaultInjector::random_thread_plan(rng, shards, horizon);

            let mut engine = ThreadedCaesar::new(cfg, shards)
                .with_heartbeat_interval(heartbeat)
                .with_injector(plan);
            engine.offer_batch(&flows);
            engine.merge_now(); // drains every ring dry

            // A hang verdict is wall-clock asynchronous: a worker that
            // consumed its hang tick *after* draining its ring hangs
            // with nothing in flight, and its failover only lands once
            // the monitor sees two missed deadlines AND the supervisor
            // next services the lane. Give every fired hang a bounded
            // window to settle before auditing the ledger.
            let settle = std::time::Instant::now();
            loop {
                let hangs = engine.with_injector_state(|inj| inj.fired_at(FaultSite::WorkerHang));
                let failovers: usize =
                    (0..shards).map(|s| engine.fault_log(s).failovers()).sum();
                if failovers >= hangs || settle.elapsed() > std::time::Duration::from_secs(10) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
                engine.merge_now(); // services lanes → executes pending verdicts
            }

            let st = engine.stats();
            assert_eq!(st.in_flight, 0);
            assert_eq!(st.offered, flows.len() as u64);
            assert_eq!(
                st.recorded + st.dropped + st.quarantined,
                st.offered,
                "post-drain mass leak: {cfg:?} shards={shards}"
            );
            assert_eq!(st.dropped, 0, "Block policy dropped packets");

            // Still serving, and the sketch holds exactly the
            // surviving mass.
            assert!(engine.query(flows[0]).is_finite());
            assert_eq!(
                engine.sram().total_added() + engine.unmerged_units(),
                st.recorded,
                "surviving mass must equal recorded packets: {cfg:?}"
            );

            // Ledger ↔ injector coherence: every fired panic respawned
            // a worker in place; every fired hang cost one heartbeat
            // failover; slow drains are absorbed without a record.
            let (panics, hangs) = engine.with_injector_state(|inj| {
                (inj.fired_at(FaultSite::WorkerPanic), inj.fired_at(FaultSite::WorkerHang))
            });
            let logged_panics: usize =
                (0..shards).map(|s| engine.fault_log(s).panics()).sum();
            let logged_failovers: usize =
                (0..shards).map(|s| engine.fault_log(s).failovers()).sum();
            assert_eq!(logged_panics, panics, "fired vs logged panics");
            assert_eq!(logged_failovers, hangs, "fired hangs vs heartbeat failovers");
            for s in 0..shards {
                let log = engine.fault_log(s);
                assert!(log.is_exact(), "injected thread faults account exactly");
                for r in &log.records {
                    if r.kind == FaultKind::WorkerPanic {
                        assert!(r.payload.contains(INJECTED_PANIC));
                    }
                }
            }
            if panics == 0 && hangs == 0 {
                assert_eq!(st.quarantined, 0, "no fault, no loss");
            }
            engine.finish();
        });
    }
}

/// With no faults injected, the supervised engine is the batch build:
/// same SRAM bytes, same ingest stats, across shard counts.
#[test]
fn fault_free_online_run_is_bit_identical_to_batch_build() {
    for shards in [1usize, 2, 4] {
        for_each_seed_n(CASES / 2, |rng| {
            let cfg = random_cfg(rng);
            let flows = random_workload(rng);
            let mut online = OnlineCaesar::new(cfg, shards);
            for &f in &flows {
                online.offer(f);
            }
            let finished = online.finish();
            let batch = ConcurrentCaesar::build(cfg, shards, &flows);
            assert_eq!(
                finished.sram().snapshot(),
                batch.sram().snapshot(),
                "online vs batch: {cfg:?} shards={shards}"
            );
            assert_eq!(finished.ingest_stats(), batch.ingest_stats());
        });
    }
}

/// Crash-consistency property: snapshot at a random point mid-stream
/// (pending ring contents and all), restore into a fresh engine,
/// resume the remaining stream — the final SRAM bytes, stats, and
/// estimates must equal the uninterrupted run's.
#[test]
fn snapshot_restore_resume_matches_uninterrupted_run() {
    for shards in [1usize, 2, 4] {
        for_each_seed_n(CASES / 2, |rng| {
            let cfg = random_cfg(rng);
            let flows = random_workload(rng);
            let cut = rng.gen_range(1..flows.len());

            // Uninterrupted run.
            let mut a = OnlineCaesar::new(cfg, shards);
            for &f in &flows {
                a.offer(f);
            }

            // Interrupted run: stream, snapshot at the cut, restore,
            // resume with the remainder.
            let mut b = OnlineCaesar::new(cfg, shards);
            for &f in &flows[..cut] {
                b.offer(f);
            }
            let snap = b.snapshot();
            drop(b);
            let mut b = OnlineCaesar::restore(&snap).expect("restore");
            for &f in &flows[cut..] {
                b.offer(f);
            }

            let (sa, sb) = (a.stats(), b.stats());
            assert_eq!(sa, sb, "stats diverge: {cfg:?} shards={shards} cut={cut}");
            let qa = a.query(flows[0]);
            let qb = b.query(flows[0]);
            assert_eq!(qa.to_bits(), qb.to_bits(), "estimates diverge");
            let (fa, fb) = (a.finish(), b.finish());
            assert_eq!(
                fa.sram().snapshot(),
                fb.sram().snapshot(),
                "SRAM diverges after restore: {cfg:?} shards={shards} cut={cut}"
            );
            assert_eq!(fa.ingest_stats(), fb.ingest_stats());
        });
    }
}

/// Snapshots taken *after a survived worker panic* carry the fault's
/// aftermath (respawned worker, quarantine counters, fault log) and
/// still resume bit-identically. The panic is pinned early and the
/// rings are drained at the cut so it is guaranteed consumed before
/// the snapshot in both runs (the injector itself is deliberately not
/// serialized — a restored engine starts with an inert one).
#[test]
fn snapshot_after_survived_panic_resumes_identically() {
    for_each_seed_n(CASES / 2, |rng| {
        let cfg = random_cfg(rng);
        let flows = random_workload(rng);
        let cut = rng.gen_range(2..flows.len());
        let events = vec![FaultEvent {
            site: FaultSite::WorkerPanic,
            shard: 0,
            at_tick: rng.gen_range(0..cut as u64 / 2).max(1) - 1,
        }];

        // Uninterrupted run, merged at the cut so both runs share the
        // same epoch alignment.
        let mut a = OnlineCaesar::new(cfg, 1)
            .with_injector(FaultInjector::with_events(events.clone()));
        for &f in &flows[..cut] {
            a.offer(f);
        }
        a.merge_now();
        for &f in &flows[cut..] {
            a.offer(f);
        }

        // Interrupted run: drain at the cut (fault fires), snapshot,
        // restore, resume.
        let mut b = OnlineCaesar::new(cfg, 1)
            .with_injector(FaultInjector::with_events(events));
        for &f in &flows[..cut] {
            b.offer(f);
        }
        b.merge_now();
        assert_eq!(b.fault_log(0).panics(), 1, "panic must fire before the cut");
        let pre = b.stats();
        let snap = b.snapshot();
        drop(b);
        let mut b = OnlineCaesar::restore(&snap).expect("restore");
        // The restored engine remembers the fault's aftermath.
        assert_eq!(b.stats(), pre);
        assert_eq!(b.fault_log(0).panics(), 1);
        assert_eq!(b.lane_stats(0).respawns, 1);
        assert!(b.injector().is_inert(), "injector is not serialized");
        for &f in &flows[cut..] {
            b.offer(f);
        }

        assert_eq!(a.stats(), b.stats(), "{cfg:?} cut={cut}");
        let (fa, fb) = (a.finish(), b.finish());
        assert_eq!(fa.sram().snapshot(), fb.sram().snapshot(), "{cfg:?} cut={cut}");
        assert_eq!(fa.ingest_stats(), fb.ingest_stats());
    });
}

/// Degradation must be visible, never silent: a stalled ring under a
/// drop policy sheds packets, and every shed packet shows up both in
/// the exact lane counters and as reduced query confidence.
#[test]
fn shed_packets_surface_as_reduced_confidence() {
    let cfg = CaesarConfig {
        cache_entries: 32,
        entry_capacity: 8,
        counters: 512,
        k: 3,
        seed: 7,
        ..CaesarConfig::default()
    };
    let mut online = OnlineCaesar::new(cfg, 1)
        .with_policy(BackpressurePolicy::DropNewest)
        .with_ring_capacity(64)
        .with_watchdog_deadline(u64::MAX) // never fail over: force shedding
        .with_injector(FaultInjector::with_events(vec![FaultEvent {
            site: FaultSite::RingStall,
            shard: 0,
            at_tick: 0,
        }]));
    for i in 0..4096u64 {
        online.offer(hashkit::mix::mix64(i % 16));
    }
    let st = online.stats();
    assert!(st.dropped > 0, "stalled DropNewest lane must shed");
    assert_eq!(st.recorded + st.dropped + st.quarantined + st.in_flight, st.offered);

    let lane = online.lane_stats(0);
    assert_eq!(lane.dropped, st.dropped, "single lane carries all losses");

    let health = online.query_health(hashkit::mix::mix64(3));
    let expect_loss = st.dropped as f64 / st.offered as f64;
    assert!((health.loss_fraction - expect_loss).abs() < 1e-12);
    assert!(health.is_degraded());
    assert!(health.confidence < 1.0);
    assert!(health.confidence >= 0.0);

    // The tally feeds straight into the metrics aggregation path.
    let mut tally = metrics::HealthTally::new();
    tally.push(health.is_degraded(), health.confidence);
    assert_eq!(tally.queries(), 1);
    assert!(tally.degraded_fraction() > 0.99);
    assert!(tally.mean_confidence() < 1.0);
}
