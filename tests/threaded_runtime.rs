//! Acceptance suite for the detached-thread online runtime
//! (`caesar::threaded::ThreadedCaesar`) against its deterministic
//! oracle (`caesar::online::OnlineCaesar`, the single-owner pump):
//!
//! * a **fault-free** threaded run must be bit-identical to the pump at
//!   every epoch boundary (snapshot bytes equal) and `finish()`
//!   bit-identical to the batch build, at 1/2/4 shards;
//! * an injected worker-thread **hang** must be detected by the
//!   wall-clock heartbeat monitor (two missed deadlines) and failed
//!   over with the exact-loss invariant
//!   `offered == recorded + dropped + quarantined` intact;
//! * an injected worker-thread **panic** must respawn the worker in
//!   place with exact accounting and **no** failover;
//! * a **slow** worker (one heartbeat-interval stall) must ride out the
//!   two-deadline budget without tripping failover;
//! * `snapshot → restore → resume` while detached workers are live
//!   (quiesce-then-checkpoint) must be byte-identical to the
//!   uninterrupted run, including across the pump/threaded boundary
//!   and after a survived hang failover.
//!
//! Wall-clock discipline: fault-free cases run with a deliberately
//! enormous heartbeat interval (the monitor must never fire on an
//! oversubscribed CI host); hang cases run with a small one so the
//! two-deadline verdict lands in milliseconds, and every waiting loop
//! in the engine is verdict-bounded, so nothing here can wedge.

use std::time::{Duration, Instant};

use caesar::merge::FINGERPRINT_BYTES;
use caesar::SketchRead;
use caesar::{
    BackpressurePolicy, CaesarConfig, ChainError, ConcurrentCaesar, DeltaError, FaultKind,
    OnlineCaesar, RestoreError, ThreadedCaesar,
};
use support::bytesx::{seal, unseal};
use support::testkit::{FaultEvent, FaultInjector, FaultSite, INJECTED_PANIC};

/// Heartbeat for fault-free runs: long enough that the monitor can
/// never legitimately fire, however starved the host.
const QUIET: Duration = Duration::from_secs(5);

/// Heartbeat for hang-detection runs: short enough that the
/// two-deadline verdict lands quickly.
const JUMPY: Duration = Duration::from_millis(25);

fn cfg() -> CaesarConfig {
    CaesarConfig {
        cache_entries: 96,
        entry_capacity: 8,
        counters: 2048,
        k: 3,
        ..CaesarConfig::default()
    }
}

fn workload(n: usize) -> Vec<u64> {
    (0..n).map(|i| hashkit::mix::mix64((i % 257) as u64)).collect()
}

fn assert_conserved(st: &caesar::OnlineStats) {
    assert_eq!(
        st.recorded + st.dropped + st.quarantined + st.in_flight,
        st.offered,
        "mass leak: {st:?}"
    );
}

/// The headline bit-identity oracle: the same stream through the pump
/// and through real detached worker threads must serialize to the very
/// same bytes at an interior epoch boundary and at the end, and finish
/// to the very same sketch — at every shard count.
#[test]
fn fault_free_threaded_matches_pump_oracle_bitwise() {
    const EPOCH: u64 = 2048;
    let flows = workload(4 * EPOCH as usize);
    let half = 2 * EPOCH as usize; // an interior epoch boundary
    for shards in [1usize, 2, 4] {
        let mut pump = OnlineCaesar::new(cfg(), shards).with_epoch_len(EPOCH);
        let mut threaded = ThreadedCaesar::new(cfg(), shards)
            .with_epoch_len(EPOCH)
            .with_heartbeat_interval(QUIET);

        for &f in &flows[..half] {
            pump.offer(f);
            threaded.offer(f);
        }
        assert_eq!(
            pump.snapshot(),
            threaded.snapshot(),
            "snapshot divergence at interior epoch boundary, shards={shards}"
        );
        assert_eq!(
            pump.export_sketch(),
            threaded.export_sketch(),
            "exported sketch divergence at interior epoch boundary, shards={shards}"
        );

        for &f in &flows[half..] {
            pump.offer(f);
            threaded.offer(f);
        }
        assert_eq!(pump.stats(), threaded.stats(), "stats divergence, shards={shards}");
        assert_eq!(
            pump.snapshot(),
            threaded.snapshot(),
            "final snapshot divergence, shards={shards}"
        );
        assert_eq!(
            pump.export_sketch(),
            threaded.export_sketch(),
            "final exported sketch divergence, shards={shards}"
        );

        let from_pump = pump.finish();
        let from_threads = threaded.finish();
        let batch = ConcurrentCaesar::build(cfg(), shards, &flows);
        assert_eq!(
            from_threads.sram().snapshot(),
            batch.sram().snapshot(),
            "threaded finish diverged from batch build, shards={shards}"
        );
        assert_eq!(
            from_threads.sram().snapshot(),
            from_pump.sram().snapshot(),
            "threaded finish diverged from pump finish, shards={shards}"
        );
        assert_eq!(from_threads.sram().total_added(), flows.len() as u64);
        for &f in &flows[..16] {
            assert_eq!(from_threads.query(f), batch.query(f));
        }
    }
}

/// A worker thread that stops heartbeating entirely must be declared
/// hung by the monitor after two missed wall-clock deadlines and
/// failed over: ring sealed, in-flight quarantined exactly, salvaged
/// mass preserved, fresh worker serving the lane afterwards.
#[test]
fn injected_hang_triggers_heartbeat_failover_with_exact_loss() {
    let shards = 2;
    let flows = workload(40_000);
    let plan = FaultInjector::with_events(vec![FaultEvent {
        site: FaultSite::WorkerHang,
        shard: 0,
        at_tick: 3,
    }]);
    let mut online = ThreadedCaesar::new(cfg(), shards)
        .with_heartbeat_interval(JUMPY)
        .with_injector(plan);
    for &f in &flows {
        online.offer(f);
    }
    online.merge_now(); // drains every lane dry (failover included)

    let st = online.stats();
    assert_eq!(st.offered, flows.len() as u64);
    assert_eq!(st.in_flight, 0);
    assert_eq!(st.dropped, 0, "Block policy never sheds");
    assert_eq!(
        st.recorded + st.quarantined,
        st.offered,
        "post-failover mass leak: {st:?}"
    );
    assert!(st.failovers >= 1, "heartbeat monitor never fired: {st:?}");
    assert!(
        st.quarantined > 0,
        "a hung lane under sustained offered load must quarantine its in-flight mass"
    );

    // The hang fired at a batch boundary, so the accounting is exact
    // and the record says what happened in wall-clock terms.
    let log = online.fault_log(0);
    assert!(log.failovers() >= 1);
    assert!(log.is_exact(), "batch-boundary hang must keep exact accounting");
    let rec = log
        .records
        .iter()
        .find(|r| r.kind == FaultKind::WatchdogFailover)
        .expect("failover record");
    assert!(
        rec.payload.contains("heartbeat") && rec.payload.contains("deadline"),
        "failover record should speak wall-clock: {:?}",
        rec.payload
    );
    // The untouched lane saw no faults.
    assert_eq!(online.fault_log(1).records.len(), 0);

    // Still serving, and the sketch holds exactly the surviving mass.
    assert!(online.query(flows[0]).is_finite());
    assert_eq!(
        online.sram().total_added() + online.unmerged_units(),
        st.recorded,
        "surviving mass must equal recorded packets"
    );
    let health = online.query_health(flows[0]);
    assert!(health.confidence < 1.0, "quarantine loss must dent confidence");
}

/// A worker panic on the worker's own thread is a *wound*, not a hang:
/// the engine salvages, respawns the state machine in place (same
/// thread), accounts the batch remainder exactly — and the heartbeat
/// monitor must not confuse it with a hang.
#[test]
fn injected_thread_panic_respawns_in_place_exactly() {
    let shards = 2;
    let flows = workload(20_000);
    let plan = FaultInjector::with_events(vec![
        FaultEvent { site: FaultSite::WorkerPanic, shard: 0, at_tick: 100 },
        FaultEvent { site: FaultSite::WorkerPanic, shard: 1, at_tick: 900 },
    ]);
    let mut online = ThreadedCaesar::new(cfg(), shards)
        .with_heartbeat_interval(QUIET)
        .with_injector(plan);
    for &f in &flows {
        online.offer(f);
    }
    online.merge_now();

    let st = online.stats();
    assert_eq!(st.offered, flows.len() as u64);
    assert_eq!(st.in_flight, 0);
    assert_eq!(st.recorded + st.quarantined, st.offered);
    assert_eq!(st.failovers, 0, "a panic is serviced in place, not failed over");
    assert_eq!(st.respawns, 2, "one respawn per injected panic");
    for s in 0..shards {
        let log = online.fault_log(s);
        assert_eq!(log.panics(), 1);
        assert!(log.is_exact(), "injected panics fire between packets");
        assert!(log.records[0].payload.contains(INJECTED_PANIC));
    }
    assert_eq!(
        online.sram().total_added() + online.unmerged_units(),
        st.recorded
    );
    let sketch = online.finish();
    assert_eq!(sketch.sram().total_added(), st.recorded);
}

/// A worker that is merely *slow* — one whole heartbeat interval late —
/// is inside the two-deadline budget and must not be failed over:
/// degraded is not dead, and a false verdict would quarantine real
/// traffic.
#[test]
fn slow_drain_stays_within_deadline_budget() {
    let flows = workload(6_000);
    let plan = FaultInjector::with_events(vec![FaultEvent {
        site: FaultSite::SlowDrain,
        shard: 0,
        at_tick: 2,
    }]);
    let mut online = ThreadedCaesar::new(cfg(), 1)
        .with_heartbeat_interval(Duration::from_millis(150))
        .with_injector(plan);
    for &f in &flows {
        online.offer(f);
    }
    online.merge_now();

    let st = online.stats();
    assert_eq!(st.failovers, 0, "a slow worker must not trip failover: {st:?}");
    assert_eq!(st.quarantined, 0);
    assert_eq!(st.respawns, 0);
    assert_eq!(st.recorded, st.offered, "every packet lands despite the stall");
    assert!(online.fault_log(0).records.is_empty());
}

/// Quiesce-then-checkpoint while detached workers are live: a snapshot
/// taken mid-stream (workers parked, rings drained) must restore —
/// into a threaded engine *or* the pump — and resume to a byte-
/// identical end state versus the uninterrupted run.
#[test]
fn live_snapshot_restore_resumes_identically() {
    const EPOCH: u64 = 1024;
    let flows = workload(5_000); // snapshot point is NOT an epoch boundary
    let cut = 2_300;
    let mut original = ThreadedCaesar::new(cfg(), 2)
        .with_epoch_len(EPOCH)
        .with_heartbeat_interval(QUIET);
    for &f in &flows[..cut] {
        original.offer(f);
    }
    let snap = original.snapshot(); // quiesces, encodes, resumes

    let mut restored_threaded = ThreadedCaesar::restore(&snap).expect("restore threaded");
    let mut restored_pump = OnlineCaesar::restore(&snap).expect("restore pump");
    assert_eq!(restored_threaded.stats(), original.stats());

    for &f in &flows[cut..] {
        original.offer(f);
        restored_threaded.offer(f);
        restored_pump.offer(f);
    }
    // The pump's rings are only guaranteed dry at a merge point, and
    // the byte-identity contract is stated at boundaries — drain all
    // three engines before comparing.
    original.merge_now();
    restored_threaded.merge_now();
    restored_pump.merge_now();
    let a = original.snapshot();
    let b = restored_threaded.snapshot();
    let c = restored_pump.snapshot();
    assert_eq!(a, b, "threaded restore diverged from uninterrupted run");
    assert_eq!(a, c, "pump restore of a threaded snapshot diverged");

    let done = original.finish();
    let batch = ConcurrentCaesar::build(cfg(), 2, &flows);
    assert_eq!(done.sram().snapshot(), batch.sram().snapshot());
}

/// Delta-checkpoint chains emitted by a live threaded engine
/// (quiesce → `CDLT` frame → resume) must restore through
/// `restore_chain` to the same bytes as the engine that emitted them.
#[test]
fn restore_chain_from_live_threaded_engine() {
    const EPOCH: u64 = 1024;
    let flows = workload(6_000);
    let mut online = ThreadedCaesar::new(cfg(), 2)
        .with_epoch_len(EPOCH)
        .with_heartbeat_interval(QUIET);

    for &f in &flows[..2_000] {
        online.offer(f);
    }
    let base = online.snapshot();
    assert!(online.chain_position().is_some());

    let mut deltas = Vec::new();
    for chunk in [2_000..3_500, 3_500..6_000] {
        for &f in &flows[chunk] {
            online.offer(f);
        }
        deltas.push(online.checkpoint_delta().expect("anchored chain"));
    }
    assert_eq!(online.chain_position().map(|(_, seq)| seq), Some(2));

    let mut revived =
        ThreadedCaesar::restore_chain(&base, &deltas).expect("chain restores");
    assert_eq!(revived.stats(), online.stats());
    assert_eq!(
        revived.snapshot(),
        online.snapshot(),
        "chain-restored engine diverged from the emitter"
    );
}

/// The full robustness story end to end: a hang failover, then a
/// snapshot of the survivor, then restore — the fault history, the
/// quarantine accounting and the surviving mass all cross the
/// checkpoint intact, and the revived engine keeps serving.
#[test]
fn snapshot_after_hang_failover_preserves_fault_history() {
    let flows = workload(30_000);
    let plan = FaultInjector::with_events(vec![FaultEvent {
        site: FaultSite::WorkerHang,
        shard: 0,
        at_tick: 2,
    }]);
    let mut online = ThreadedCaesar::new(cfg(), 1)
        .with_heartbeat_interval(JUMPY)
        .with_injector(plan);
    for &f in &flows {
        online.offer(f);
    }
    online.merge_now();
    let st = online.stats();
    assert!(st.failovers >= 1 && st.quarantined > 0, "precondition: {st:?}");

    let snap = online.snapshot();
    let mut revived = ThreadedCaesar::restore(&snap).expect("restore survivor");
    let rst = revived.stats();
    assert_eq!(rst, st, "accounting must cross the checkpoint intact");
    let log = revived.fault_log(0);
    assert!(log.failovers() >= 1, "fault history lost in restore");
    assert!(log.records.iter().any(|r| r.payload.contains("heartbeat")));

    // The revived engine is healthy: offer more, stay conserved, finish.
    for &f in &flows[..5_000] {
        revived.offer(f);
    }
    let mid = revived.stats();
    assert_conserved(&mid);
    assert_eq!(mid.offered, st.offered + 5_000);
    // finish() drains what was still in flight at `mid`, so the final
    // sketch holds everything offered minus the quarantined loss.
    let sketch = revived.finish();
    assert_eq!(
        sketch.sram().total_added(),
        mid.offered - mid.dropped - mid.quarantined
    );
}

/// Handoff both ways without a codec round trip: a pump engine picked
/// up mid-stream by real threads (`from_online`), then handed back
/// (`into_online`), must end bit-identical to a pump that ran the
/// whole stream itself.
#[test]
fn pump_to_threads_and_back_is_bit_preserving() {
    const EPOCH: u64 = 1024;
    let flows = workload(5_000);
    let mut oracle = OnlineCaesar::new(cfg(), 2).with_epoch_len(EPOCH);
    let mut pump = OnlineCaesar::new(cfg(), 2).with_epoch_len(EPOCH);
    for &f in &flows[..1_700] {
        oracle.offer(f);
        pump.offer(f);
    }
    let mut threaded = ThreadedCaesar::from_online(pump);
    for &f in &flows[1_700..3_400] {
        oracle.offer(f);
        threaded.offer(f);
    }
    let mut pump_again = threaded.into_online();
    for &f in &flows[3_400..] {
        oracle.offer(f);
        pump_again.offer(f);
    }
    assert_eq!(oracle.stats(), pump_again.stats());
    assert_eq!(
        oracle.snapshot(),
        pump_again.snapshot(),
        "pump→threads→pump handoff must be bit-preserving"
    );
}

/// Threads that were joined into a pump can be started again: the
/// lanes carry no stale stop or flush command across the round trip.
#[test]
fn threads_restart_after_a_round_trip_through_the_pump() {
    const EPOCH: u64 = 1024;
    let flows = workload(6_000);
    let mut oracle = OnlineCaesar::new(cfg(), 2).with_epoch_len(EPOCH);
    let mut threaded = ThreadedCaesar::new(cfg(), 2)
        .with_epoch_len(EPOCH)
        .with_heartbeat_interval(QUIET);
    for (i, chunk) in flows.chunks(1_500).enumerate() {
        oracle.offer_batch(chunk);
        threaded.offer_batch(chunk);
        if i % 2 == 1 {
            threaded = ThreadedCaesar::from_online(threaded.into_online())
                .with_heartbeat_interval(QUIET);
        }
    }
    oracle.merge_now();
    threaded.merge_now();
    assert_eq!(oracle.stats(), threaded.stats());
    assert_eq!(oracle.snapshot(), threaded.snapshot());
}

/// `finish()` on a drained engine costs its joins, not a poll: the
/// monitor waits on a condition variable its drop signals, and every
/// worker wait is a wake. With a 60 s heartbeat the monitor polls
/// every 25 ms, which a polling `finish` would wait out.
#[test]
fn finish_does_not_wait_out_the_monitor() {
    let flows = workload(4_096);
    let mut times = Vec::new();
    for _ in 0..9 {
        let mut engine =
            ThreadedCaesar::new(cfg(), 2).with_heartbeat_interval(Duration::from_secs(60));
        engine.offer_batch(&flows);
        engine.merge_now();
        let started = Instant::now();
        let sketch = engine.finish();
        times.push(started.elapsed());
        assert_eq!(sketch.sram().total_added(), flows.len() as u64);
    }
    times.sort();
    assert!(
        times[4] < Duration::from_millis(5),
        "median finish {:?} over {times:?}",
        times[4]
    );
}

/// Overwrite the little-endian u64 at `at` in a sealed blob's payload,
/// checking the value it replaces, and re-seal, so only the decoder's
/// own checks can refuse the result.
fn forge(blob: &[u8], at: usize, was: u64, value: u64) -> Vec<u8> {
    let mut payload = unseal(blob).expect("pristine blob").to_vec();
    assert_eq!(read_u64(&payload, at), was, "field at payload offset {at}");
    payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
    seal(&mut payload);
    payload
}

fn read_u64(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().expect("eight bytes"))
}

/// The payload offset just past the counter-block section at `at`: a
/// LEB128 block count, then per block a LEB128 gap, a tag (0: an
/// 8-byte change mask; 1: a position count and that many position
/// bytes) and one LEB128 value per listed counter.
fn skip_blocks(payload: &[u8], mut at: usize) -> usize {
    fn varint(payload: &[u8], at: &mut usize) -> u64 {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = payload[*at];
            *at += 1;
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }
    for _ in 0..varint(payload, &mut at) {
        varint(payload, &mut at);
        let (tag, form) = (payload[at], at + 1);
        let listed = if tag == 0 {
            at = form + 8;
            read_u64(payload, form).count_ones()
        } else {
            let count = payload[form];
            at = form + 1 + usize::from(count);
            u32::from(count)
        };
        for _ in 0..listed {
            varint(payload, &mut at);
        }
    }
    at
}

/// A lane section whose counts do not reconcile, or lanes whose offers
/// do not sum to the engine's, must come back as a typed error from
/// both engines' restore and from delta replay. Both runtimes derive
/// in-flight from these counts: accepted, a forged `recorded` above
/// `offered` underflows that derivation, and a drain wait on it never
/// returns.
#[test]
fn forged_lane_counts_are_refused_by_both_restores() {
    let mut engine = ThreadedCaesar::new(cfg(), 1).with_heartbeat_interval(QUIET);
    engine.offer_batch(&workload(777));
    let blob = engine.snapshot();
    engine.offer_batch(&workload(100));
    let delta = engine.checkpoint_delta().expect("anchored chain");

    // Snapshot payload: magic, layout version, fingerprint, chain id
    // and sequence, settings, engine scalars (offered last), the SRAM
    // block section (the nonzero counters), one tally stripe, then the
    // lane: offered, recorded, ...
    let settings_end = 4 + 2 + FINGERPRINT_BYTES + 16 + 42;
    let offered_total = settings_end + 24 - 8;
    let payload = unseal(&blob).expect("pristine blob");
    let lane = skip_blocks(payload, settings_end + 24) + 16;
    assert_eq!(read_u64(payload, lane), 777, "lane offered");

    let recorded_above_offered = forge(&blob, lane + 8, 777, 782);
    let offers_off_by_one = forge(&blob, offered_total, 777, 778);
    for forged in [&recorded_above_offered, &offers_off_by_one] {
        assert!(matches!(OnlineCaesar::restore(forged), Err(RestoreError::Corrupt(_))));
        assert!(matches!(ThreadedCaesar::restore(forged), Err(RestoreError::Corrupt(_))));
    }
    assert!(ThreadedCaesar::restore(&blob).is_ok(), "the pristine blob restores");

    // Delta payload: the same layout, listing the written counters.
    let payload = unseal(&delta).expect("pristine delta");
    let lane = skip_blocks(payload, settings_end + 24) + 16;
    assert_eq!(read_u64(payload, lane), 877, "lane offered");
    let forged = forge(&delta, lane + 8, 877, 882);
    let mut replica = OnlineCaesar::restore(&blob).expect("base restores");
    assert!(matches!(replica.apply_delta(&forged), Err(DeltaError::Corrupt(_))));
    assert!(matches!(
        ThreadedCaesar::restore_chain(&blob, &[&forged]),
        Err(ChainError::Delta { index: 0, source: DeltaError::Corrupt(_) })
    ));
    replica.apply_delta(&delta).expect("the pristine delta applies");
    assert_eq!(replica.stats(), engine.stats());
}

/// A well-formed snapshot taken under `DropOldest` restores on the
/// pump. The thread runtime cannot head-drop (its workers own the
/// consumer endpoints), so it refuses the blob with a typed error
/// through both restore paths instead of panicking.
#[test]
fn drop_oldest_snapshot_is_refused_typed_by_the_thread_runtime() {
    let mut pump = OnlineCaesar::new(cfg(), 2).with_policy(BackpressurePolicy::DropOldest);
    pump.offer_batch(&workload(500));
    let blob = pump.snapshot();
    pump.offer_batch(&workload(300));
    let delta = pump.checkpoint_delta().expect("anchored chain emits");
    assert!(OnlineCaesar::restore(&blob).is_ok(), "the pump restores its own blob");
    assert!(OnlineCaesar::restore_chain(&blob, &[&delta]).is_ok());
    assert!(matches!(
        ThreadedCaesar::restore(&blob),
        Err(RestoreError::Corrupt(why)) if why.contains("DropOldest")
    ));
    assert!(matches!(
        ThreadedCaesar::restore_chain(&blob, &[&delta]),
        Err(ChainError::Base(RestoreError::Corrupt(why))) if why.contains("DropOldest")
    ));
}
