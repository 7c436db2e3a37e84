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

use std::time::Duration;

use caesar::SketchRead;
use caesar::{
    CaesarConfig, ConcurrentCaesar, FaultKind, OnlineCaesar, ThreadedCaesar,
};
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
