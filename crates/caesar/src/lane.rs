//! One shard lane, driven by either driver of the online engine.
//!
//! A [`Lane`] is everything one shard of an online engine owns: the
//! bounded [`support::spsc`] ring, the [`ShardWorker`] behind its lock,
//! the exact accounting ([`LaneLedger`]), the pump's watchdog fields,
//! and what a detached worker thread needs (heartbeat slot, control
//! word, join handle). [`crate::online::OnlineEngine`] holds
//! `Vec<Lane>` under either driver, so handing an engine from the pump
//! to the thread runtime and back moves its lanes and swaps only the
//! driver:
//!
//! * the **pump** ([`crate::online::Pump`]) holds the consumer endpoint
//!   and drains the lane on the caller's thread at deterministic
//!   points;
//! * a **worker thread** ([`crate::threaded::Threads`]) takes the
//!   consumer endpoint and drains the lane on its own, woken by
//!   [`Lane::wake`] instead of polling.
//!
//! Both apply a popped batch through one supervised step,
//! [`LaneShared::apply`]. The recorded count lives in the heartbeat
//! slot; in-flight is derived from the ledger ([`Lane::in_flight`]),
//! never counted, so `offered == recorded + dropped + quarantined +
//! in_flight` holds by construction.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::atomic_sram::AtomicCounterArray;
use crate::concurrent::{BatchPanic, IngestStats, ShardWorker};
use crate::config::CaesarConfig;
use crate::online::{FaultKind, FaultLog, FaultRecord, LaneStats, OnlineStats};
use hashkit::KCounterMap;
use support::spsc::{self, CachePadded};
use support::testkit::INJECTED_PANIC;

/// Packets a worker drains per supervised batch, and the queue depth
/// at which a producer wakes an idle worker (amortizes ring publishes
/// over many packets while keeping offer→record latency bounded).
pub(crate) const STREAM_CHUNK: usize = 1024;

/// Default in-flight bound of each lane's SPSC ring: a few chunks of
/// headroom so a transiently slow shard does not stall the producer,
/// small enough that a persistently slow shard back-pressures it
/// instead of buffering the whole trace.
pub const DEFAULT_RING_CAPACITY: usize = 4 * STREAM_CHUNK;

// Worker lifecycle states published through the heartbeat slot. Every
// state but `HB_RUNNING` tells the monitor the worker is not expected
// to beat, so quiet is never read as a hang.
pub(crate) const HB_RUNNING: u8 = 0;
pub(crate) const HB_PARKED: u8 = 1;
pub(crate) const HB_PANICKED: u8 = 2;
pub(crate) const HB_EXITED: u8 = 3;
/// Ring empty, no command pending: the worker waits for a wake.
pub(crate) const HB_IDLE: u8 = 4;

/// The per-worker heartbeat slot: everything the supervisor learns
/// about a worker without taking a lock. Each field sits on its own
/// cache line so the worker's stores never bounce the monitor's reads
/// into the ingest hot path.
#[derive(Debug)]
pub(crate) struct Heartbeat {
    /// Monotonic liveness counter: bumped once per worker loop
    /// iteration. The monitor judges *this* against the wall clock.
    pub(crate) beat: CachePadded<AtomicU64>,
    /// The lane's recorded count. Written only under the worker cell's
    /// lock, so a plain load-add-store publishes it.
    pub(crate) recorded: CachePadded<AtomicU64>,
    /// The engine epoch the worker last observed (mirrored from the
    /// control word; diagnostic).
    pub(crate) epoch: CachePadded<AtomicU64>,
    /// Last flush / delta-checkpoint sequence the worker acknowledged.
    pub(crate) ckpt_seq: CachePadded<AtomicU64>,
    /// Lifecycle state (`HB_*`).
    pub(crate) state: CachePadded<AtomicU8>,
    /// Monitor verdict: non-zero means "missed two heartbeat
    /// deadlines"; the engine consumes it at its next service point.
    pub(crate) verdict: CachePadded<AtomicU8>,
}

/// Engine → worker control word. The engine wakes the worker
/// ([`Lane::wake`]) after every store, so a waiting worker sees it at
/// once.
#[derive(Debug, Default)]
pub(crate) struct Control {
    /// Generation fence: a worker that observes a generation other
    /// than the one it was spawned with exits immediately and never
    /// touches shared state again. Bumped exactly once, at failover.
    pub(crate) gen: AtomicU64,
    /// Park request (quiesce): the worker drains its ring dry, then
    /// waits at `HB_PARKED` until cleared.
    pub(crate) park: AtomicBool,
    /// Stop request: the worker exits once its ring is empty.
    pub(crate) stop: AtomicBool,
    /// Flush command sequence: when it advances past the worker's
    /// acknowledged sequence, the worker flushes its writeback segment
    /// into the shared SRAM and acks via `Heartbeat::ckpt_seq`.
    pub(crate) flush_seq: AtomicU64,
    /// Current engine epoch (workers mirror it into their heartbeat).
    pub(crate) epoch: AtomicU64,
}

/// The mutable worker state, owned by whichever side holds the lock:
/// the lane's driver while applying a batch, the engine while
/// salvaging, snapshotting, or respawning.
#[derive(Debug)]
pub(crate) struct WorkerCell {
    pub(crate) worker: ShardWorker,
    /// A panic the worker thread caught and left for the engine to
    /// service (the pump services its own at once).
    pub(crate) panic_info: Option<BatchPanic>,
}

/// The part of a lane a worker thread shares with the engine.
#[derive(Debug)]
pub(crate) struct LaneShared {
    pub(crate) hb: Heartbeat,
    pub(crate) ctrl: Control,
    pub(crate) cell: Mutex<WorkerCell>,
}

impl LaneShared {
    fn new(worker: ShardWorker, recorded: u64) -> Self {
        let padded = |v| CachePadded(AtomicU64::new(v));
        Self {
            hb: Heartbeat {
                beat: padded(0),
                recorded: padded(recorded),
                epoch: padded(0),
                ckpt_seq: padded(0),
                state: CachePadded(AtomicU8::new(HB_RUNNING)),
                verdict: CachePadded(AtomicU8::new(0)),
            },
            ctrl: Control::default(),
            cell: Mutex::new(WorkerCell { worker, panic_info: None }),
        }
    }

    /// Lock the worker cell.
    pub(crate) fn lock(&self) -> MutexGuard<'_, WorkerCell> {
        self.cell.lock().expect("worker cell lock")
    }

    /// The supervised drain step every lane driver runs: apply `flows`
    /// to the locked `cell`'s worker under
    /// [`ShardWorker::apply_supervised`] and publish the lane's new
    /// recorded count. On a panic the applied prefix counts as
    /// recorded; servicing the fault is the caller's.
    pub(crate) fn apply(
        &self,
        cell: &mut WorkerCell,
        flows: &[u64],
        sram: &AtomicCounterArray,
        kmap: &KCounterMap,
        fault_tick: Option<impl FnMut() -> bool>,
    ) -> Result<(), BatchPanic> {
        let result = cell.worker.apply_supervised(flows, sram, kmap, fault_tick);
        let applied = match &result {
            Ok(()) => flows.len() as u64,
            Err(panic) => panic.applied,
        };
        let recorded = self.hb.recorded.0.load(Ordering::Relaxed) + applied;
        self.hb.recorded.0.store(recorded, Ordering::Release);
        result
    }
}

/// The per-lane accounting: every count the lane's driver does not
/// publish itself. It moves with the lane between runtimes.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneLedger {
    /// Packets routed to this shard.
    pub(crate) offered: u64,
    /// Packets shed by the backpressure policy.
    pub(crate) dropped: u64,
    /// Packets lost to worker faults.
    pub(crate) quarantined: u64,
    /// Times the worker was respawned.
    pub(crate) respawns: u64,
    /// Ingest stats retired from workers that have since been
    /// respawned (so the aggregate survives respawns).
    pub(crate) retired: IngestStats,
    /// Every fault the lane survived.
    pub(crate) log: FaultLog,
}

impl LaneLedger {
    /// Packets accepted but neither recorded nor lost, given the lane's
    /// `recorded` count.
    pub(crate) fn unsettled(&self, recorded: u64) -> u64 {
        self.offered - self.dropped - self.quarantined - recorded
    }

    /// The exact loss ratio `(dropped + quarantined) / offered`
    /// ([`crate::SketchRead::loss_fraction`] of the lane's flows).
    pub(crate) fn loss_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.dropped + self.quarantined) as f64 / self.offered as f64
        }
    }

    /// Service a worker panic: quarantine the unprocessed remainder,
    /// salvage the surviving cache mass (plus anything already staged)
    /// into the shared SRAM so every *recorded* packet stays
    /// query-visible, retire the dead worker's stats, swap in `fresh`
    /// (fresh cache and RNG streams against the shard's surviving
    /// accumulator state), and log the fault.
    pub(crate) fn respawn_after_panic(
        &mut self,
        worker: &mut ShardWorker,
        fresh: ShardWorker,
        sram: &AtomicCounterArray,
        kmap: &KCounterMap,
        epoch: u64,
        panic: BatchPanic,
    ) {
        self.quarantined += panic.unapplied;
        let mut dead = std::mem::replace(worker, fresh);
        let salvaged_units = dead.drain_cache(sram, kmap);
        dead.flush_writeback(sram);
        self.retired.merge(&dead.ingest_stats());
        self.respawns += 1;
        self.log.records.push(FaultRecord {
            kind: FaultKind::WorkerPanic,
            epoch,
            at_offered: self.offered,
            quarantined: panic.unapplied,
            salvaged_units,
            exact: panic.payload == INJECTED_PANIC,
            payload: panic.payload,
        });
    }
}

/// One shard lane (see the module docs). Dropping a lane whose worker
/// thread runs stops and wakes that worker, so a dropped engine
/// releases every thread it started.
#[derive(Debug)]
pub(crate) struct Lane {
    pub(crate) tx: spsc::Producer<u64>,
    /// The consumer endpoint whenever no worker thread holds it:
    /// always on the pump; on a threaded lane until its worker spawns,
    /// and again once the worker is joined.
    pub(crate) rx: Option<spsc::Consumer<u64>>,
    pub(crate) shared: Arc<LaneShared>,
    /// The worker thread, which hands the consumer endpoint back when
    /// it exits. Its [`std::thread::Thread`] is the lane's wake handle.
    pub(crate) handle: Option<JoinHandle<spsc::Consumer<u64>>>,
    /// Flush commands issued to the current worker cell (restarts with
    /// a failover's fresh lane).
    pub(crate) flush_issued: u64,
    /// Pump watchdog: the lane is failed over to inline processing.
    pub(crate) inline_fallback: bool,
    /// Pump watchdog: consecutive no-progress pump attempts.
    pub(crate) stalled_attempts: u64,
    /// Pump drain scratch (reused; grows to one chunk on first use).
    pub(crate) buf: Vec<u64>,
    pub(crate) ledger: LaneLedger,
}

impl Lane {
    /// A fresh lane for `shard` with an empty ring.
    pub(crate) fn new(cfg: &CaesarConfig, shard: usize, entries: usize, capacity: usize) -> Self {
        let worker = ShardWorker::staged(cfg, shard, entries);
        Self::with_parts(capacity, worker, 0, LaneLedger::default(), &[])
            .expect("ring too large to allocate")
    }

    /// A lane around an existing worker and ledger, its ring holding
    /// `pending` (at most `ring_capacity` packets); `None` when the
    /// allocator refuses the ring (a restored capacity comes from
    /// outside the program).
    pub(crate) fn with_parts(
        ring_capacity: usize,
        worker: ShardWorker,
        recorded: u64,
        ledger: LaneLedger,
        pending: &[u64],
    ) -> Option<Self> {
        let (mut tx, rx) = spsc::try_ring::<u64>(ring_capacity)?;
        for &f in pending {
            let pushed = tx.try_push(f).is_ok();
            debug_assert!(pushed, "pending packets fit the ring");
        }
        Some(Self {
            tx,
            rx: Some(rx),
            shared: Arc::new(LaneShared::new(worker, recorded)),
            handle: None,
            flush_issued: 0,
            inline_fallback: false,
            stalled_attempts: 0,
            buf: Vec::new(),
            ledger,
        })
    }

    /// Packets fully applied to the lane's worker.
    pub(crate) fn recorded(&self) -> u64 {
        self.shared.hb.recorded.0.load(Ordering::Acquire)
    }

    /// Packets accepted but not yet applied (in the ring, or popped and
    /// mid-batch). Derived, so the mass identity holds at every instant
    /// by construction.
    pub(crate) fn in_flight(&self) -> u64 {
        self.ledger.unsettled(self.recorded())
    }

    /// The lane's public accounting snapshot.
    pub(crate) fn stats(&self, shard: usize) -> LaneStats {
        // One load of the recorded count, so the snapshot satisfies the
        // mass identity even while a worker thread races ahead.
        let recorded = self.recorded();
        let ledger = &self.ledger;
        LaneStats {
            shard,
            offered: ledger.offered,
            recorded,
            dropped: ledger.dropped,
            quarantined: ledger.quarantined,
            in_flight: ledger.unsettled(recorded),
            respawns: ledger.respawns,
            inline_fallback: self.inline_fallback,
        }
    }

    /// Add the lane into an engine-wide aggregate.
    pub(crate) fn fold_into(&self, st: &mut OnlineStats) {
        let lane = self.stats(0);
        st.recorded += lane.recorded;
        st.dropped += lane.dropped;
        st.quarantined += lane.quarantined;
        st.in_flight += lane.in_flight;
        st.respawns += lane.respawns;
        st.failovers += self.ledger.log.failovers() as u64;
    }

    /// Wake the lane's worker thread, if one runs. Cheap when it is
    /// awake; a wake that arrives before the worker waits is kept, so
    /// store a command first, then wake.
    pub(crate) fn wake(&self) {
        if let Some(h) = &self.handle {
            h.thread().unpark();
        }
    }

    /// Stop and join the lane's worker thread, if one runs, taking the
    /// consumer endpoint back and re-arming the control word for the
    /// next spawn.
    pub(crate) fn join_worker(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let ctrl = &self.shared.ctrl;
        ctrl.stop.store(true, Ordering::Release);
        ctrl.park.store(false, Ordering::Release);
        handle.thread().unpark();
        self.rx = Some(handle.join().expect("shard worker thread exits cleanly"));
        ctrl.stop.store(false, Ordering::Release);
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shared.ctrl.stop.store(true, Ordering::Release);
            self.wake();
        }
    }
}
