//! Detached-thread online runtime with heartbeat supervision and
//! crash failover.
//!
//! [`crate::online::OnlineCaesar`] is the **deterministic oracle**: a
//! single-owner engine that holds both ring endpoints and pumps shard
//! workers itself at deterministic points, so every schedule — and
//! every injected fault — is a pure function of the offered stream.
//! [`ThreadedCaesar`] is the same machinery deployed the way a line
//! card actually runs it: each shard worker is a **real detached OS
//! thread** draining its bounded [`support::spsc`] ring through the
//! same batch hot path, supervised by **wall-clock heartbeats**
//! instead of logical pump-attempt ticks.
//!
//! * **Heartbeat slots.** Each worker publishes progress through a
//!   cache-line-padded atomic slot ([`support::spsc::CachePadded`]):
//!   a monotonic beat counter, the cumulative drained count, the
//!   engine epoch it has observed, and the last flush (checkpoint)
//!   sequence it acknowledged. The slot is the *only* state the
//!   supervisor reads without a lock.
//! * **A monitor thread** wakes a few times per heartbeat interval and
//!   compares each worker's beat against a wall-clock deadline. A
//!   worker whose beat has not moved for **two consecutive heartbeat
//!   deadlines** is declared hung: the monitor publishes a verdict the
//!   engine consumes at its next service point.
//! * **Crash failover.** A hung worker's ring is sealed, the lane's
//!   in-flight packets are **quarantined** (counted exactly, recorded
//!   in the lane's [`FaultLog`]), whatever accumulator state can be
//!   reached without racing the zombie is **salvaged** into the shared
//!   SRAM, and a fresh worker thread is respawned on a fresh ring. A
//!   generation fence keeps the zombie from ever touching shared state
//!   again: it stages into an orphaned accumulator that is never
//!   flushed.
//! * **Worker panics** are caught on the worker thread (the batch runs
//!   under `catch_unwind`), surfaced through the heartbeat slot, and
//!   serviced by the engine exactly like the pump does it: applied
//!   prefix counted recorded, remainder quarantined, surviving cache
//!   mass salvaged, worker respawned *in place* (same thread, fresh
//!   state machine).
//!
//! The mass-accounting invariant is preserved **exactly** at every
//! observation point, fault or no fault:
//!
//! ```text
//! offered == recorded + dropped + quarantined + in_flight
//! ```
//!
//! **Bit-identity.** On a fault-free run a `ThreadedCaesar` is
//! bit-identical to the pump oracle at every epoch boundary, and its
//! [`ThreadedCaesar::finish`] equals [`ConcurrentCaesar::build`]. This
//! is by construction, not luck: workers stage all evictions in
//! shard-local [`crate::WRITEBACK_ACCUMULATE_ALL`] segments (no
//! mid-epoch writes to shared SRAM), the batch kernel is
//! chunk-boundary-insensitive, and epoch rotation drains every lane
//! dry then serializes the per-shard flushes in ascending shard order
//! with acknowledgement waits — the same order the pump merges, so
//! even the saturation tallies match. Snapshots are taken at a
//! **quiesced** point (all accepted packets applied, workers parked)
//! and reuse the pump's exact encoders, so a quiesced threaded
//! snapshot is byte-identical to the pump's at the same boundary.
//!
//! The pump remains the test oracle precisely because it is
//! deterministic; this module is the thing it is an oracle *for*.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::atomic_sram::AtomicCounterArray;
use crate::concurrent::{BatchPanic, ConcurrentCaesar, ShardWorker, STREAM_CHUNK};
use crate::config::CaesarConfig;
use crate::merge::{SketchFingerprint, SketchPayload};
use crate::online::{
    encode_delta_prelude, encode_lane_section, encode_snapshot_prelude, BackpressurePolicy,
    ChainError, DeltaError, EngineHeader, FaultKind, FaultLog, FaultRecord, Lane, LaneEncodeParts,
    LaneLedger, LaneStats, OnlineCaesar, OnlineStats, RestoreError,
};
use crate::query::SketchRead;
use hashkit::KCounterMap;
use support::bytesx::seal;
use support::spsc::{self, CachePadded};
use support::testkit::{FaultInjector, FaultSite};

/// Default heartbeat interval of a new engine, in milliseconds.
/// Generous on purpose: supervision exists to catch *wedged* workers,
/// and a false failover quarantines real traffic. Latency-sensitive
/// deployments tune it down with
/// [`ThreadedCaesar::with_heartbeat_interval`].
pub const DEFAULT_HEARTBEAT_MS: u64 = 250;

// Worker lifecycle states published through the heartbeat slot.
const HB_RUNNING: u8 = 0;
const HB_PARKED: u8 = 1;
const HB_PANICKED: u8 = 2;
const HB_EXITED: u8 = 3;

/// The per-worker heartbeat slot: everything the supervisor learns
/// about a worker without taking a lock. Each field sits on its own
/// cache line so the worker's stores never bounce the monitor's reads
/// into the ingest hot path.
struct Heartbeat {
    /// Monotonic liveness counter: bumped once per worker loop
    /// iteration. The monitor judges *this* against the wall clock.
    beat: CachePadded<AtomicU64>,
    /// Cumulative packets applied by the current worker cell.
    recorded: CachePadded<AtomicU64>,
    /// The engine epoch the worker last observed (mirrored from the
    /// control word; diagnostic).
    epoch: CachePadded<AtomicU64>,
    /// Last flush / delta-checkpoint sequence the worker acknowledged.
    ckpt_seq: CachePadded<AtomicU64>,
    /// Lifecycle state (`HB_*`).
    state: CachePadded<AtomicU8>,
    /// Monitor verdict: non-zero means "missed two heartbeat
    /// deadlines"; the engine consumes it at its next service point.
    verdict: CachePadded<AtomicU8>,
}

impl Heartbeat {
    fn new() -> Self {
        Self {
            beat: CachePadded(AtomicU64::new(0)),
            recorded: CachePadded(AtomicU64::new(0)),
            epoch: CachePadded(AtomicU64::new(0)),
            ckpt_seq: CachePadded(AtomicU64::new(0)),
            state: CachePadded(AtomicU8::new(HB_RUNNING)),
            verdict: CachePadded(AtomicU8::new(0)),
        }
    }
}

/// Engine → worker control word.
struct Control {
    /// Generation fence: a worker that observes a generation other
    /// than the one it was spawned with exits immediately and never
    /// touches shared state again. Bumped exactly once, at failover.
    gen: AtomicU64,
    /// Park request (quiesce): the worker drains its ring dry, then
    /// idles at `HB_PARKED` until cleared.
    park: AtomicBool,
    /// Stop request: the worker exits once its ring is empty.
    stop: AtomicBool,
    /// Flush command sequence: when it advances past the worker's
    /// acknowledged sequence, the worker flushes its writeback segment
    /// into the shared SRAM and acks via `Heartbeat::ckpt_seq`.
    flush_seq: AtomicU64,
    /// Current engine epoch (workers mirror it into their heartbeat).
    epoch: AtomicU64,
}

impl Control {
    fn new() -> Self {
        Self {
            gen: AtomicU64::new(0),
            park: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            flush_seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }
}

/// The mutable worker state, owned by whichever side holds the lock:
/// the worker thread while applying a batch, the engine while
/// salvaging, snapshotting, or respawning.
struct WorkerCell {
    worker: ShardWorker,
    /// Packets applied by this cell's workers since the cell was
    /// created (survives in-place panic respawns; reset only by
    /// failover, which folds it into the lane's `recorded_base`).
    recorded: u64,
    panic_info: Option<BatchPanic>,
}

/// Everything one worker thread and the engine share for a lane.
struct LaneShared {
    hb: Heartbeat,
    ctrl: Control,
    cell: Mutex<WorkerCell>,
}

impl LaneShared {
    fn new(worker: ShardWorker) -> Self {
        Self {
            hb: Heartbeat::new(),
            ctrl: Control::new(),
            cell: Mutex::new(WorkerCell { worker, recorded: 0, panic_info: None }),
        }
    }
}

/// Engine-side lane state: the producer endpoint, the shared slot,
/// the thread handle, and the exact accounting the worker does not
/// own.
struct ThreadLane {
    tx: spsc::Producer<u64>,
    /// The consumer endpoint, held until the worker thread is spawned
    /// (and returned by the thread when it exits).
    boot: Option<spsc::Consumer<u64>>,
    shared: Arc<LaneShared>,
    handle: Option<JoinHandle<spsc::Consumer<u64>>>,
    /// Recorded count carried over from before the current worker cell
    /// existed (prior failovers, or the pump engine this lane was
    /// built from). Lane total = `recorded_base + hb.recorded`.
    recorded_base: u64,
    /// Flush commands issued to the current worker cell (reset by
    /// failover along with the control word).
    flush_issued: u64,
    ledger: LaneLedger,
}

impl ThreadLane {
    fn new(cfg: &CaesarConfig, shard: usize, entries: usize, ring_capacity: usize) -> Self {
        let (tx, rx) = spsc::ring::<u64>(ring_capacity);
        Self {
            tx,
            boot: Some(rx),
            shared: Arc::new(LaneShared::new(ShardWorker::staged(cfg, shard, entries))),
            handle: None,
            recorded_base: 0,
            flush_issued: 0,
            ledger: LaneLedger::default(),
        }
    }

    fn from_pump_lane(lane: Lane) -> Self {
        let Lane { tx, rx, worker, recorded, ledger, .. } = lane;
        // The pump's transient watchdog state (`inline_fallback`,
        // `stalled_attempts`) does not transfer: the threaded runtime
        // has its own supervision. In-ring packets stay in the ring —
        // the worker drains them once spawned.
        Self {
            tx,
            boot: Some(rx),
            shared: Arc::new(LaneShared::new(worker)),
            handle: None,
            recorded_base: recorded,
            flush_issued: 0,
            ledger,
        }
    }

    /// Lane total recorded: carried-over base plus the live cell's
    /// published count.
    fn recorded(&self) -> u64 {
        self.recorded_base + self.shared.hb.recorded.0.load(Ordering::Acquire)
    }

    /// Packets accepted but not yet applied (in the ring, or popped
    /// and mid-batch). Derived, so the mass invariant holds at every
    /// instant by construction.
    fn in_flight(&self) -> u64 {
        self.ledger.unsettled(self.recorded())
    }
}

/// Monitor-thread shared state: the stop flag and the registry of
/// heartbeat slots to watch (slots are replaced on failover).
struct MonitorShared {
    stop: AtomicBool,
    lanes: Mutex<Vec<Arc<LaneShared>>>,
}

/// The supervisor monitor: stops and joins its thread on drop, so a
/// dropped engine never leaks it.
struct Monitor {
    shared: Arc<MonitorShared>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The heartbeat-supervised detached-thread online engine. See the
/// module docs for the architecture; the API mirrors
/// [`OnlineCaesar`] — same accounting, same snapshot format, same
/// finish semantics — with wall-clock supervision in place of logical
/// watchdog ticks.
///
/// ```
/// use caesar::{CaesarConfig, ThreadedCaesar};
/// use std::time::Duration;
/// let cfg = CaesarConfig { cache_entries: 64, entry_capacity: 8, counters: 2048, k: 3,
///                          ..CaesarConfig::default() };
/// let mut online = ThreadedCaesar::new(cfg, 2)
///     .with_heartbeat_interval(Duration::from_secs(5));
/// for i in 0..10_000u64 {
///     online.offer(i % 100);
/// }
/// let st = online.stats();
/// assert_eq!(st.offered, 10_000);
/// assert_eq!(st.offered, st.recorded + st.dropped + st.quarantined + st.in_flight);
/// let sketch = online.finish(); // joins workers, then drains + merges
/// assert_eq!(sketch.sram().total_added(), 10_000);
/// ```
pub struct ThreadedCaesar {
    cfg: CaesarConfig,
    shards: usize,
    policy: BackpressurePolicy,
    ring_capacity: usize,
    epoch_len: u64,
    /// Not used by this runtime (supervision is wall-clock), but
    /// carried and serialized so snapshots stay byte-compatible with
    /// the pump's layout.
    watchdog_deadline: u64,
    heartbeat: Duration,
    pin_workers: bool,
    sram: Arc<AtomicCounterArray>,
    kmap: Arc<KCounterMap>,
    entries: Vec<usize>,
    lanes: Vec<ThreadLane>,
    epoch: u64,
    merges: u64,
    offered_total: u64,
    injector: Arc<Mutex<FaultInjector>>,
    injector_live: bool,
    chain: Option<(u64, u64)>,
    monitor: Option<Monitor>,
    started: bool,
    quiesced: bool,
}

impl ThreadedCaesar {
    /// A fresh engine with the default policy
    /// ([`BackpressurePolicy::Block`]), ring capacity
    /// ([`crate::DEFAULT_RING_CAPACITY`]), epoch length
    /// ([`crate::DEFAULT_EPOCH_LEN`]) and heartbeat interval
    /// ([`DEFAULT_HEARTBEAT_MS`]). Worker threads spawn lazily on the
    /// first offer (or rotation/snapshot), so an engine that is built
    /// and dropped costs nothing.
    ///
    /// # Panics
    /// Panics if `shards == 0` or the configuration is invalid.
    pub fn new(cfg: CaesarConfig, shards: usize) -> Self {
        let (sram, kmap, entries) = ConcurrentCaesar::scaffold(&cfg, shards);
        let ring_capacity = crate::DEFAULT_RING_CAPACITY;
        let lanes = (0..shards)
            .map(|shard| ThreadLane::new(&cfg, shard, entries[shard], ring_capacity))
            .collect();
        Self {
            cfg,
            shards,
            policy: BackpressurePolicy::Block,
            ring_capacity,
            epoch_len: crate::DEFAULT_EPOCH_LEN,
            watchdog_deadline: crate::DEFAULT_WATCHDOG_DEADLINE,
            heartbeat: Duration::from_millis(DEFAULT_HEARTBEAT_MS),
            pin_workers: false,
            sram: Arc::new(sram),
            kmap: Arc::new(kmap),
            entries,
            lanes,
            epoch: 0,
            merges: 0,
            offered_total: 0,
            injector: Arc::new(Mutex::new(FaultInjector::none())),
            injector_live: false,
            chain: None,
            monitor: None,
            started: false,
            quiesced: false,
        }
    }

    /// Take over a pump engine's complete state — counters, worker
    /// state machines, ring contents, fault logs, chain position —
    /// without a codec round trip. The inverse of
    /// [`ThreadedCaesar::into_online`].
    ///
    /// # Panics
    /// Panics if the pump is configured with
    /// [`BackpressurePolicy::DropOldest`], which requires consumer-side
    /// ownership the threaded runtime hands to its workers.
    pub fn from_online(online: OnlineCaesar) -> Self {
        let OnlineCaesar {
            cfg,
            shards,
            policy,
            ring_capacity,
            epoch_len,
            watchdog_deadline,
            sram,
            kmap,
            entries,
            lanes,
            epoch,
            merges,
            offered_total,
            injector,
            chain,
        } = online;
        assert!(
            policy != BackpressurePolicy::DropOldest,
            "DropOldest needs the consumer endpoint, which threaded workers own"
        );
        let injector_live = !injector.is_inert();
        let lanes: Vec<ThreadLane> =
            lanes.into_iter().map(ThreadLane::from_pump_lane).collect();
        let engine = Self {
            cfg,
            shards,
            policy,
            ring_capacity,
            epoch_len,
            watchdog_deadline,
            heartbeat: Duration::from_millis(DEFAULT_HEARTBEAT_MS),
            pin_workers: false,
            sram: Arc::new(sram),
            kmap: Arc::new(kmap),
            entries,
            lanes,
            epoch,
            merges,
            offered_total,
            injector: Arc::new(Mutex::new(injector)),
            injector_live,
            chain,
            monitor: None,
            started: false,
            quiesced: false,
        };
        for lane in &engine.lanes {
            lane.shared.ctrl.epoch.store(engine.epoch, Ordering::Release);
        }
        engine
    }

    /// Set the backpressure policy (builder-style; call before
    /// offering packets). [`BackpressurePolicy::DropOldest`] is not
    /// supported here: head drop needs the consumer endpoint, which
    /// the worker threads own.
    ///
    /// # Panics
    /// Panics on [`BackpressurePolicy::DropOldest`].
    pub fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        assert!(
            policy != BackpressurePolicy::DropOldest,
            "DropOldest needs the consumer endpoint, which threaded workers own"
        );
        self.policy = policy;
        self
    }

    /// Set the per-shard ring capacity (`>= 1`). Rebuilds the (empty)
    /// rings, so call before offering packets.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or packets have been offered.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        assert_eq!(self.offered_total, 0, "set ring capacity before offering");
        assert!(!self.started, "set ring capacity before workers spawn");
        self.ring_capacity = capacity;
        for (shard, lane) in self.lanes.iter_mut().enumerate() {
            *lane = ThreadLane::new(&self.cfg, shard, self.entries[shard], capacity);
        }
        self
    }

    /// Set the epoch length in offered packets (`>= 1`).
    ///
    /// # Panics
    /// Panics if `epoch_len == 0`.
    pub fn with_epoch_len(mut self, epoch_len: u64) -> Self {
        assert!(epoch_len >= 1, "epoch length must be at least 1");
        self.epoch_len = epoch_len;
        self
    }

    /// Set the wall-clock heartbeat interval. The monitor declares a
    /// worker hung when its beat misses **two** consecutive deadlines
    /// of this length. Choose generously on oversubscribed hosts: a
    /// false verdict quarantines real traffic.
    ///
    /// # Panics
    /// Panics if `interval` is zero or workers already spawned.
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "heartbeat interval must be non-zero");
        assert!(!self.started, "set the heartbeat interval before workers spawn");
        self.heartbeat = interval;
        self
    }

    /// Pin each worker thread to a core (shard *i* → CPU
    /// `i % cores`, via [`support::affinity::pin_shard`]). A loud
    /// no-op on hosts that cannot pin.
    ///
    /// # Panics
    /// Panics if workers already spawned.
    pub fn with_pinning(mut self, pin: bool) -> Self {
        assert!(!self.started, "set pinning before workers spawn");
        self.pin_workers = pin;
        self
    }

    /// Attach a deterministic fault-injection schedule (testing).
    /// Thread-aware sites: [`FaultSite::WorkerPanic`] panics the
    /// worker *on its own thread* between two packets;
    /// [`FaultSite::WorkerHang`] stops the worker's heartbeat entirely
    /// (until the failover fence releases it);
    /// [`FaultSite::SlowDrain`] delays one iteration by one heartbeat
    /// interval — visible to the monitor but inside the two-deadline
    /// budget, so it must **not** trip failover.
    /// [`FaultSite::RingStall`] has no meaning here (there are no pump
    /// attempts) and never fires.
    ///
    /// # Panics
    /// Panics if workers already spawned.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        assert!(!self.started, "attach the injector before workers spawn");
        self.injector_live = !injector.is_inert();
        self.injector = Arc::new(Mutex::new(injector));
        self
    }

    // -----------------------------------------------------------------
    // Thread lifecycle
    // -----------------------------------------------------------------

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for shard in 0..self.shards {
            self.spawn_worker(shard);
        }
        let shared = Arc::new(MonitorShared {
            stop: AtomicBool::new(false),
            lanes: Mutex::new(self.lanes.iter().map(|l| Arc::clone(&l.shared)).collect()),
        });
        let for_thread = Arc::clone(&shared);
        let interval = self.heartbeat;
        let handle = std::thread::Builder::new()
            .name("caesar-monitor".into())
            .spawn(move || monitor_loop(&for_thread, interval))
            .expect("spawn heartbeat monitor thread");
        self.monitor = Some(Monitor { shared, handle: Some(handle) });
    }

    fn spawn_worker(&mut self, shard: usize) {
        let lane = &mut self.lanes[shard];
        let rx = lane.boot.take().expect("consumer endpoint available to spawn");
        let shared = Arc::clone(&lane.shared);
        let sram = Arc::clone(&self.sram);
        let kmap = Arc::clone(&self.kmap);
        let injector = if self.injector_live { Some(Arc::clone(&self.injector)) } else { None };
        let ctx = WorkerCtx {
            shard,
            shards: self.shards,
            interval: self.heartbeat,
            pin: self.pin_workers,
        };
        let handle = std::thread::Builder::new()
            .name(format!("caesar-worker-{shard}"))
            .spawn(move || worker_loop(ctx, rx, &shared, &sram, &kmap, injector.as_deref()))
            .expect("spawn shard worker thread");
        lane.handle = Some(handle);
    }

    /// Consume any pending worker event on `shard`: a surfaced panic
    /// first (cheap respawn-in-place), then a monitor verdict (full
    /// failover). Called on every offer and inside every wait loop.
    fn service_lane(&mut self, shard: usize) {
        if self.lanes[shard].shared.hb.state.0.load(Ordering::Acquire) == HB_PANICKED {
            self.service_panic(shard);
        }
        if self.lanes[shard].shared.hb.verdict.0.load(Ordering::Acquire) != 0 {
            self.heartbeat_failover(shard);
        }
    }

    /// A worker panicked and parked itself at `HB_PANICKED`: salvage
    /// the surviving cache mass into the shared SRAM (on *this*
    /// thread — the worker is waiting, not racing us), respawn the
    /// state machine in place, log the fault, release the worker.
    fn service_panic(&mut self, shard: usize) {
        let epoch = self.epoch;
        let Self { lanes, sram, kmap, cfg, entries, .. } = self;
        let lane = &mut lanes[shard];
        let mut cell = lane.shared.cell.lock().expect("worker cell lock");
        let Some(panic) = cell.panic_info.take() else {
            return;
        };
        let fresh = ShardWorker::staged(cfg, shard, entries[shard]);
        lane.ledger.respawn_after_panic(&mut cell.worker, fresh, sram, kmap, epoch, panic);
        drop(cell);
        // Releasing the state releases the worker thread, which loops
        // straight back into draining against the fresh state machine.
        lane.shared.hb.state.0.store(HB_RUNNING, Ordering::Release);
    }

    /// The monitor found a worker that missed two heartbeat deadlines.
    /// Seal the ring, fence the zombie behind a generation bump,
    /// salvage what can be reached without racing it, quarantine the
    /// exact in-flight residue, and respawn a fresh worker on a fresh
    /// ring.
    fn heartbeat_failover(&mut self, shard: usize) {
        let interval = self.heartbeat;
        let epoch = self.epoch;
        {
            let Self { lanes, sram, kmap, cfg, entries, ring_capacity, quiesced, .. } = self;
            let lane = &mut lanes[shard];
            // Seal first: nothing new enters the wedged ring, and a
            // zombie that wakes up sees a closed, abandoned ring.
            lane.tx.seal();
            let old = Arc::clone(&lane.shared);
            old.ctrl.gen.fetch_add(1, Ordering::Release);
            let (exact, salvaged_units) = match old.cell.try_lock() {
                Ok(mut cell) => {
                    // Hung at a batch boundary (the injected form):
                    // the cell is free, so the applied count is final
                    // and the accumulator is safe to salvage.
                    lane.recorded_base += cell.recorded;
                    let salvaged = cell.worker.drain_cache(sram, kmap);
                    cell.worker.flush_writeback(sram);
                    lane.ledger.retired.merge(&cell.worker.ingest_stats());
                    (true, salvaged)
                }
                Err(_) => {
                    // Genuinely wedged mid-batch: the zombie owns the
                    // cell. Its published prefix counts as recorded,
                    // but its staged mass is stranded in an orphaned
                    // accumulator the fence will never let it flush.
                    // Flagged inexact, like a genuine mid-record panic.
                    lane.recorded_base += old.hb.recorded.0.load(Ordering::Acquire);
                    (false, 0)
                }
            };
            let ledger = &mut lane.ledger;
            let residual = ledger.unsettled(lane.recorded_base);
            ledger.quarantined += residual;
            ledger.respawns += 1;
            ledger.log.records.push(FaultRecord {
                kind: FaultKind::WatchdogFailover,
                epoch,
                at_offered: ledger.offered,
                quarantined: residual,
                salvaged_units,
                payload: format!(
                    "worker heartbeat missed two {}ms deadlines; lane failed over",
                    interval.as_millis()
                ),
                exact,
            });
            // Fresh ring, fresh shared slot, fresh state machine. The
            // old thread handle is dropped (detached); the zombie
            // exits on its next fence or closed-ring check.
            let (tx, rx) = spsc::ring::<u64>(*ring_capacity);
            lane.tx = tx;
            lane.boot = Some(rx);
            lane.shared =
                Arc::new(LaneShared::new(ShardWorker::staged(cfg, shard, entries[shard])));
            lane.shared.ctrl.epoch.store(epoch, Ordering::Release);
            lane.shared.ctrl.park.store(*quiesced, Ordering::Release);
            lane.flush_issued = 0;
            let _zombie = lane.handle.take();
        }
        if self.started {
            if let Some(mon) = &self.monitor {
                let mut registry = mon.shared.lanes.lock().expect("monitor registry lock");
                registry[shard] = Arc::clone(&self.lanes[shard].shared);
            }
            self.spawn_worker(shard);
        }
    }

    // -----------------------------------------------------------------
    // Ingest
    // -----------------------------------------------------------------

    /// Which shard a flow routes to.
    fn route(&self, flow: u64) -> usize {
        if self.shards == 1 {
            0
        } else {
            ConcurrentCaesar::shard_of(flow, self.shards, self.cfg.seed)
        }
    }

    /// Offer one packet of `flow` to the engine. Never blocks the
    /// caller indefinitely: a wedged worker is bounded by the
    /// two-deadline heartbeat verdict, which fails the lane over.
    pub fn offer(&mut self, flow: u64) {
        self.ensure_started();
        let shard = self.route(flow);
        self.offered_total += 1;
        self.service_lane(shard);
        // The lane's `offered` counter moves only once the packet's
        // fate is settled (queued or shed). A failover can fire while
        // this packet is still in our hand — if it were pre-counted,
        // the failover's residual quarantine would cover it AND the
        // retry would queue it into the fresh ring, double-counting
        // one packet and wedging every drain wait on an underflowed
        // in-flight figure.
        let mut backoff = spsc::Backoff::new();
        loop {
            if self.lanes[shard].tx.try_push(flow).is_ok() {
                self.lanes[shard].ledger.offered += 1;
                break;
            }
            // Ring full: the worker is behind (or wedged — the monitor
            // decides which).
            match self.policy {
                BackpressurePolicy::Block => {
                    self.service_lane(shard);
                    backoff.wait();
                }
                BackpressurePolicy::DropNewest => {
                    let ledger = &mut self.lanes[shard].ledger;
                    ledger.offered += 1;
                    ledger.dropped += 1;
                    break;
                }
                BackpressurePolicy::DropOldest => {
                    unreachable!("rejected by with_policy/from_online")
                }
            }
        }
        if self.offered_total.is_multiple_of(self.epoch_len) {
            self.rotate_epoch();
        }
    }

    /// Offer a batch of packets (`for` loop over
    /// [`ThreadedCaesar::offer`]).
    pub fn offer_batch(&mut self, flows: &[u64]) {
        for &flow in flows {
            self.offer(flow);
        }
    }

    /// Spin (servicing worker events) until `shard` has applied every
    /// accepted packet.
    fn wait_drained(&mut self, shard: usize) {
        let mut backoff = spsc::Backoff::new();
        loop {
            self.service_lane(shard);
            if self.lanes[shard].in_flight() == 0 {
                return;
            }
            backoff.wait();
        }
    }

    /// Command `shard`'s worker to flush its writeback segment and
    /// wait for the acknowledgement. Serialized per lane: the caller
    /// runs these in ascending shard order, so the shared SRAM sees
    /// the same merge order as the pump — bit-identical saturation
    /// tallies included.
    fn command_flush(&mut self, shard: usize) {
        self.lanes[shard].flush_issued += 1;
        let target = self.lanes[shard].flush_issued;
        self.lanes[shard].shared.ctrl.flush_seq.store(target, Ordering::Release);
        let mut backoff = spsc::Backoff::new();
        loop {
            if self.lanes[shard].shared.hb.ckpt_seq.0.load(Ordering::Acquire) >= target {
                return;
            }
            self.service_lane(shard);
            if self.lanes[shard].flush_issued == 0 {
                // A failover replaced the lane mid-flush: the salvage
                // already flushed everything the dead worker had
                // staged, and the fresh worker has nothing staged.
                return;
            }
            backoff.wait();
        }
    }

    /// Epoch boundary: drain every lane dry, then flush every lane's
    /// staged writeback into the shared SRAM in ascending shard order
    /// (each flush acknowledged before the next is commanded), and
    /// advance the epoch.
    fn rotate_epoch(&mut self) {
        self.ensure_started();
        for shard in 0..self.shards {
            self.wait_drained(shard);
        }
        if self.injector_live {
            // Deterministic saturation-degradation seam: one tick per
            // shard per epoch boundary, engine-side (same schedule as
            // the pump).
            let mut injector = self.injector.lock().expect("injector lock");
            for shard in 0..self.shards {
                if injector.tick(FaultSite::ForceSaturation, shard) {
                    self.sram.force_saturation(shard, 1);
                }
            }
        }
        for shard in 0..self.shards {
            self.command_flush(shard);
        }
        self.epoch += 1;
        self.merges += 1;
        for lane in &self.lanes {
            lane.shared.ctrl.epoch.store(self.epoch, Ordering::Release);
        }
    }

    /// Force an epoch rotation now (drain + merge), without waiting
    /// for the packet-count boundary.
    pub fn merge_now(&mut self) {
        self.rotate_epoch();
    }

    // -----------------------------------------------------------------
    // Quiesce (for snapshots)
    // -----------------------------------------------------------------

    /// Park every worker at a checkpoint-safe point: rings drained
    /// dry, all accepted packets applied, workers idling at
    /// `HB_PARKED`. The engine then owns every cell uncontended.
    fn quiesce(&mut self) {
        self.ensure_started();
        self.quiesced = true;
        for lane in &self.lanes {
            lane.shared.ctrl.park.store(true, Ordering::Release);
        }
        for shard in 0..self.shards {
            let mut backoff = spsc::Backoff::new();
            loop {
                self.service_lane(shard);
                let lane = &self.lanes[shard];
                if lane.shared.hb.state.0.load(Ordering::Acquire) == HB_PARKED
                    && lane.in_flight() == 0
                {
                    break;
                }
                backoff.wait();
            }
        }
    }

    /// Release parked workers back into their drain loops.
    fn resume(&mut self) {
        self.quiesced = false;
        for lane in &self.lanes {
            lane.shared.ctrl.park.store(false, Ordering::Release);
        }
    }

    // -----------------------------------------------------------------
    // Snapshot / delta checkpoints
    // -----------------------------------------------------------------

    fn header(&self) -> EngineHeader<'_> {
        EngineHeader {
            cfg: &self.cfg,
            shards: self.shards,
            policy: self.policy,
            ring_capacity: self.ring_capacity,
            epoch_len: self.epoch_len,
            watchdog_deadline: self.watchdog_deadline,
            epoch: self.epoch,
            merges: self.merges,
            offered_total: self.offered_total,
        }
    }

    fn encode_lanes(&mut self, buf: &mut Vec<u8>) {
        for lane in &self.lanes {
            let cell = lane.shared.cell.lock().expect("worker cell lock");
            encode_lane_section(
                buf,
                &LaneEncodeParts {
                    ledger: &lane.ledger,
                    recorded: lane.recorded_base + cell.recorded,
                    // Quiesced: rings are empty and the pump-specific
                    // watchdog state has no threaded counterpart.
                    inline_fallback: false,
                    stalled_attempts: 0,
                    pending: &[],
                    state: &cell.worker.snapshot_state(),
                },
            );
        }
    }

    /// Serialize the complete dynamic state into a sealed blob in the
    /// **same format** as [`OnlineCaesar::snapshot`] — either engine
    /// restores the other's blobs. The engine is quiesced first (all
    /// accepted packets applied, workers parked), so the snapshot is
    /// taken at a boundary-equivalent point; ingest resumes before
    /// this returns. Anchors a delta-checkpoint chain, exactly like
    /// the pump.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.snapshot_into(&mut buf);
        buf
    }

    /// [`ThreadedCaesar::snapshot`] into a caller-owned buffer
    /// (cleared first).
    pub fn snapshot_into(&mut self, buf: &mut Vec<u8>) {
        self.quiesce();
        buf.clear();
        encode_snapshot_prelude(buf, &self.header(), &self.sram);
        self.encode_lanes(buf);
        seal(buf);
        self.chain = Some((hashkit::fnv::fnv1a64(buf), 0));
        let _ = self.sram.take_dirty_blocks();
        self.resume();
    }

    /// Emit a sealed `CDLT` delta-checkpoint frame (see
    /// [`OnlineCaesar::checkpoint_delta`] — same format, same chain
    /// discipline). Quiesces, emits, resumes.
    ///
    /// # Errors
    /// [`DeltaError::NoBase`] when no snapshot has anchored a chain.
    pub fn checkpoint_delta(&mut self) -> Result<Vec<u8>, DeltaError> {
        let mut buf = Vec::new();
        self.checkpoint_delta_into(&mut buf)?;
        Ok(buf)
    }

    /// [`ThreadedCaesar::checkpoint_delta`] into a caller-owned buffer
    /// (cleared first).
    ///
    /// # Errors
    /// [`DeltaError::NoBase`] when no snapshot has anchored a chain.
    pub fn checkpoint_delta_into(&mut self, buf: &mut Vec<u8>) -> Result<(), DeltaError> {
        let (chain_id, seq) = self.chain.ok_or(DeltaError::NoBase)?;
        self.quiesce();
        buf.clear();
        encode_delta_prelude(buf, &self.header(), &self.sram, chain_id, seq + 1);
        self.encode_lanes(buf);
        seal(buf);
        self.chain = Some((chain_id, seq + 1));
        self.resume();
        Ok(())
    }

    /// Rebuild a threaded engine from a snapshot blob (the pump's or
    /// this runtime's — same format). Workers spawn lazily on the
    /// first offer.
    ///
    /// # Errors
    /// Everything [`OnlineCaesar::restore`] rejects.
    ///
    /// # Panics
    /// Panics if the blob encodes [`BackpressurePolicy::DropOldest`]
    /// (unsupported here — restore through [`OnlineCaesar`] instead).
    pub fn restore(bytes: &[u8]) -> Result<Self, RestoreError> {
        OnlineCaesar::restore(bytes).map(Self::from_online)
    }

    /// Rebuild a threaded engine from a full-snapshot anchor plus its
    /// ordered delta frames (see [`OnlineCaesar::restore_chain`]).
    ///
    /// # Errors
    /// [`ChainError::Base`] / [`ChainError::Delta`] as the pump.
    ///
    /// # Panics
    /// Panics if the chain encodes [`BackpressurePolicy::DropOldest`].
    pub fn restore_chain<B: AsRef<[u8]>>(base: &[u8], deltas: &[B]) -> Result<Self, ChainError> {
        OnlineCaesar::restore_chain(base, deltas).map(Self::from_online)
    }

    /// The engine's delta-chain position: `(chain id, deltas emitted
    /// since the anchoring snapshot)`, or `None` before any snapshot.
    pub fn chain_position(&self) -> Option<(u64, u64)> {
        self.chain
    }

    // -----------------------------------------------------------------
    // Teardown
    // -----------------------------------------------------------------

    /// Quiesce, stop the monitor and every worker thread, join them,
    /// and hand the complete state back as a deterministic pump
    /// engine. Bit-preserving: the pump's subsequent snapshots,
    /// queries and [`OnlineCaesar::finish`] behave exactly as if it
    /// had run the whole stream itself (fault-free).
    pub fn into_online(mut self) -> OnlineCaesar {
        self.quiesce();
        // Stop the monitor first so it cannot judge a worker that is
        // mid-shutdown.
        drop(self.monitor.take());
        for lane in &mut self.lanes {
            lane.shared.ctrl.stop.store(true, Ordering::Release);
            lane.shared.ctrl.park.store(false, Ordering::Release);
        }
        let Self {
            cfg,
            shards,
            policy,
            ring_capacity,
            epoch_len,
            watchdog_deadline,
            sram,
            kmap,
            entries,
            lanes,
            epoch,
            merges,
            offered_total,
            injector,
            injector_live,
            mut chain,
            ..
        } = self;
        let mut pump_lanes = Vec::with_capacity(shards);
        for lane in lanes {
            let ThreadLane { tx, boot, shared, handle, recorded_base, ledger, .. } = lane;
            let rx = match handle {
                Some(h) => h.join().expect("shard worker thread exits cleanly"),
                None => boot.expect("unstarted lane retains its consumer endpoint"),
            };
            let shared = Arc::try_unwrap(shared)
                .ok()
                .expect("worker joined; engine holds the last reference");
            let cell = shared.cell.into_inner().expect("worker cell lock unpoisoned");
            pump_lanes.push(Lane {
                tx,
                rx,
                worker: cell.worker,
                buf: Vec::with_capacity(STREAM_CHUNK),
                recorded: recorded_base + cell.recorded,
                in_ring: 0,
                inline_fallback: false,
                stalled_attempts: 0,
                ledger,
            });
        }
        let sram = Arc::try_unwrap(sram).unwrap_or_else(|arc| {
            // A fenced zombie from an earlier failover still holds a
            // reference; clone the state into a fresh array. The
            // original's dirty-block baseline goes with it, so the
            // delta chain (if any) must re-anchor.
            chain = None;
            AtomicCounterArray::restore(arc.bits(), &arc.snapshot(), &arc.tally_snapshot())
        });
        let kmap = Arc::try_unwrap(kmap).unwrap_or_else(|_| {
            // Same construction the pump's restore path uses — the
            // k-map is a pure function of the config.
            KCounterMap::new(cfg.k, cfg.counters, cfg.seed ^ 0x5EED_5EED)
        });
        let injector = if injector_live {
            Arc::try_unwrap(injector)
                .map(|m| m.into_inner().expect("injector lock unpoisoned"))
                .unwrap_or_else(|_| FaultInjector::none())
        } else {
            FaultInjector::none()
        };
        OnlineCaesar {
            cfg,
            shards,
            policy,
            ring_capacity,
            epoch_len,
            watchdog_deadline,
            sram,
            kmap,
            entries,
            lanes: pump_lanes,
            epoch,
            merges,
            offered_total,
            injector,
            chain,
        }
    }

    /// End of measurement: join every worker, dump every cache, merge
    /// every segment — then hand back a finished [`ConcurrentCaesar`].
    /// On a fault-free run this is **bit-identical** to
    /// [`ConcurrentCaesar::build`] over the same stream.
    pub fn finish(self) -> ConcurrentCaesar {
        self.into_online().finish()
    }

    // -----------------------------------------------------------------
    // Observability (mirrors the pump's API)
    // -----------------------------------------------------------------

    /// Aggregate accounting across all lanes.
    pub fn stats(&self) -> OnlineStats {
        let mut st = OnlineStats::empty(self.offered_total, self.epoch, self.merges);
        for lane in &self.lanes {
            // One load of the worker's recorded counter per lane, so
            // the reported snapshot satisfies the mass invariant even
            // while the worker races ahead.
            let recorded = lane.recorded();
            lane.ledger.fold_into(&mut st, recorded, lane.ledger.unsettled(recorded));
        }
        st
    }

    /// Per-shard accounting snapshot.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn lane_stats(&self, shard: usize) -> LaneStats {
        let ledger = &self.lanes[shard].ledger;
        let recorded = self.lanes[shard].recorded();
        ledger.lane_stats(shard, recorded, ledger.unsettled(recorded), false)
    }

    /// The shard's fault history.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn fault_log(&self, shard: usize) -> &FaultLog {
        &self.lanes[shard].ledger.log
    }

    /// Inspect the fault-injection schedule (fired/pending counts).
    /// Unlike the pump's [`OnlineCaesar::injector`], the threaded
    /// injector is shared with the worker threads behind a mutex, so
    /// this borrows it to `f` under a brief lock.
    pub fn with_injector_state<R>(&self, f: impl FnOnce(&FaultInjector) -> R) -> R {
        f(&self.injector.lock().expect("fault injector lock"))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configuration in use.
    pub fn config(&self) -> &CaesarConfig {
        &self.cfg
    }

    /// Current epoch ordinal.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The heartbeat interval in effect.
    pub fn heartbeat_interval(&self) -> Duration {
        self.heartbeat
    }

    /// The shared SRAM (query-visible state as of the last merge or
    /// salvage).
    pub fn sram(&self) -> &AtomicCounterArray {
        &self.sram
    }

    /// Unit mass recorded but not yet query-visible: resident in shard
    /// caches or staged in writeback segments. Takes each worker's
    /// cell lock briefly.
    pub fn unmerged_units(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| {
                let cell = l.shared.cell.lock().expect("worker cell lock");
                cell.worker.resident_units() + cell.worker.staged_units()
            })
            .sum()
    }

    /// Export the current visible state as a wire-transportable
    /// [`SketchPayload`] — what a supervised measurement tap pushes to
    /// an aggregator. Call [`ThreadedCaesar::merge_now`] first if the
    /// payload should include everything offered so far.
    pub fn export_sketch(&self) -> SketchPayload {
        let mut evictions = 0;
        for lane in &self.lanes {
            let cell = lane.shared.cell.lock().expect("worker cell lock");
            evictions += lane.ledger.retired.evictions + cell.worker.ingest_stats().evictions;
        }
        SketchPayload {
            fingerprint: SketchFingerprint::of(&self.cfg),
            counters: self.sram.snapshot(),
            total_added: self.sram.total_added(),
            saturation_events: self.sram.saturations(),
            evictions,
        }
    }
}

/// Queries read the visible (merged) state; ingest continues
/// unaffected. A flow's health carries its shard's exact loss ratio.
impl SketchRead for ThreadedCaesar {
    type Counters = AtomicCounterArray;

    fn config(&self) -> &CaesarConfig {
        &self.cfg
    }

    fn kmap(&self) -> &KCounterMap {
        &self.kmap
    }

    fn counters(&self) -> &AtomicCounterArray {
        &self.sram
    }

    fn loss_fraction(&self, flow: u64) -> f64 {
        self.lanes[self.route(flow)].ledger.loss_fraction()
    }
}

/// Per-spawn worker parameters (bundled to keep the thread closure
/// readable).
struct WorkerCtx {
    shard: usize,
    shards: usize,
    interval: Duration,
    pin: bool,
}

/// The detached worker thread body. Returns the consumer endpoint so
/// [`ThreadedCaesar::into_online`] can reassemble the pump's lane.
///
/// Exit paths: generation fence (failover), stop request with an
/// empty ring (teardown), or a closed *and* empty ring (the engine
/// was dropped, or sealed the ring at failover).
fn worker_loop(
    ctx: WorkerCtx,
    mut rx: spsc::Consumer<u64>,
    shared: &LaneShared,
    sram: &AtomicCounterArray,
    kmap: &KCounterMap,
    injector: Option<&Mutex<FaultInjector>>,
) -> spsc::Consumer<u64> {
    if ctx.pin {
        let _ = support::affinity::pin_shard(ctx.shard, ctx.shards);
    }
    let my_gen = shared.ctrl.gen.load(Ordering::Acquire);
    let fenced = |rx: &mut spsc::Consumer<u64>| {
        shared.ctrl.gen.load(Ordering::Acquire) != my_gen
            || (rx.is_closed() && rx.is_empty())
    };
    let mut buf: Vec<u64> = Vec::with_capacity(STREAM_CHUNK);
    let mut flush_ack = 0u64;
    let mut idle = 0u32;
    loop {
        if shared.ctrl.gen.load(Ordering::Acquire) != my_gen {
            shared.hb.state.0.store(HB_EXITED, Ordering::Release);
            return rx;
        }
        shared.hb.beat.0.fetch_add(1, Ordering::Release);
        shared
            .hb
            .epoch
            .0
            .store(shared.ctrl.epoch.load(Ordering::Acquire), Ordering::Release);
        if let Some(inj) = injector {
            // Thread-aware fault hooks, at batch boundaries so the
            // accounting stays exact.
            let (hang, nap) = {
                let mut guard = inj.lock().expect("injector lock");
                (
                    guard.tick(FaultSite::WorkerHang, ctx.shard),
                    guard.tick(FaultSite::SlowDrain, ctx.shard),
                )
            };
            if hang {
                // Stop heartbeating entirely: the monitor must notice
                // and the engine must fail the lane over. Only the
                // fence (or an abandoned ring) releases the zombie.
                while !fenced(&mut rx) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                shared.hb.state.0.store(HB_EXITED, Ordering::Release);
                return rx;
            }
            if nap {
                // One heartbeat-interval stall: visibly late, but
                // inside the two-deadline budget — must NOT fail over.
                std::thread::sleep(ctx.interval);
            }
        }
        buf.clear();
        let n = rx.pop_batch(&mut buf, STREAM_CHUNK);
        if n == 0 {
            let seq = shared.ctrl.flush_seq.load(Ordering::Acquire);
            if seq != flush_ack {
                let mut cell = shared.cell.lock().expect("worker cell lock");
                if shared.ctrl.gen.load(Ordering::Acquire) != my_gen {
                    shared.hb.state.0.store(HB_EXITED, Ordering::Release);
                    return rx;
                }
                cell.worker.flush_writeback(sram);
                drop(cell);
                flush_ack = seq;
                shared.hb.ckpt_seq.0.store(seq, Ordering::Release);
                continue;
            }
            if shared.ctrl.park.load(Ordering::Acquire) {
                shared.hb.state.0.store(HB_PARKED, Ordering::Release);
                while shared.ctrl.park.load(Ordering::Acquire)
                    && !shared.ctrl.stop.load(Ordering::Acquire)
                    && !fenced(&mut rx)
                {
                    std::thread::sleep(Duration::from_micros(200));
                }
                shared.hb.state.0.store(HB_RUNNING, Ordering::Release);
                continue;
            }
            if (shared.ctrl.stop.load(Ordering::Acquire) || rx.is_closed()) && rx.is_empty() {
                shared.hb.state.0.store(HB_EXITED, Ordering::Release);
                return rx;
            }
            idle += 1;
            if idle > 64 {
                std::thread::sleep(Duration::from_micros(200));
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        idle = 0;
        let mut cell = shared.cell.lock().expect("worker cell lock");
        if shared.ctrl.gen.load(Ordering::Acquire) != my_gen {
            // Fenced between pop and apply: the popped packets are
            // part of the residual the failover quarantined. Applying
            // them now would double-count.
            shared.hb.state.0.store(HB_EXITED, Ordering::Release);
            return rx;
        }
        let shard = ctx.shard;
        let tick = injector.map(|inj| {
            move || inj.lock().expect("injector lock").tick(FaultSite::WorkerPanic, shard)
        });
        match cell.worker.apply_supervised(&buf, sram, kmap, tick) {
            Ok(()) => {
                cell.recorded += n as u64;
                let recorded = cell.recorded;
                drop(cell);
                shared.hb.recorded.0.store(recorded, Ordering::Release);
            }
            Err(panic) => {
                cell.recorded += panic.applied;
                let recorded = cell.recorded;
                cell.panic_info = Some(panic);
                drop(cell);
                shared.hb.recorded.0.store(recorded, Ordering::Release);
                shared.hb.state.0.store(HB_PANICKED, Ordering::Release);
                // Keep beating while the engine salvages and respawns
                // the state machine in place — a panicked worker is
                // wounded, not hung.
                loop {
                    if fenced(&mut rx) {
                        shared.hb.state.0.store(HB_EXITED, Ordering::Release);
                        return rx;
                    }
                    if shared.hb.state.0.load(Ordering::Acquire) != HB_PANICKED {
                        break;
                    }
                    shared.hb.beat.0.fetch_add(1, Ordering::Release);
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
}

/// The monitor thread body: wake a few times per heartbeat interval,
/// compare each registered worker's beat against the wall clock, and
/// publish a verdict when one misses two consecutive deadlines.
fn monitor_loop(shared: &MonitorShared, interval: Duration) {
    struct Track {
        identity: usize,
        beat: u64,
        since: Instant,
    }
    let poll = (interval / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
    let deadline = interval * 2;
    let mut tracks: Vec<Option<Track>> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(poll);
        let lanes: Vec<Arc<LaneShared>> =
            shared.lanes.lock().expect("monitor registry lock").clone();
        tracks.resize_with(lanes.len(), || None);
        let now = Instant::now();
        for (slot, lane) in lanes.iter().enumerate() {
            // The slot's identity changes when a failover installs a
            // fresh LaneShared; the clock restarts with it.
            let identity = Arc::as_ptr(lane) as usize;
            let beat = lane.hb.beat.0.load(Ordering::Acquire);
            let state = lane.hb.state.0.load(Ordering::Acquire);
            let moved = !matches!(
                &tracks[slot],
                Some(t) if t.identity == identity && t.beat == beat
            );
            if moved || state != HB_RUNNING {
                // Fresh slot, fresh beat, or a worker that is parked /
                // being serviced / already exiting: restart its clock.
                tracks[slot] = Some(Track { identity, beat, since: now });
                continue;
            }
            let stalled_for = now.duration_since(tracks[slot].as_ref().expect("tracked").since);
            if stalled_for >= deadline {
                lane.hb.verdict.0.store(1, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unstarted_engine_builds_and_drops_without_spawning() {
        let cfg = CaesarConfig {
            cache_entries: 32,
            entry_capacity: 8,
            counters: 1024,
            k: 3,
            ..CaesarConfig::default()
        };
        let engine = ThreadedCaesar::new(cfg, 2);
        assert_eq!(engine.stats().offered, 0);
        assert!(!engine.started);
        drop(engine);
    }

    #[test]
    #[should_panic(expected = "DropOldest")]
    fn drop_oldest_is_rejected() {
        let cfg = CaesarConfig {
            cache_entries: 32,
            entry_capacity: 8,
            counters: 1024,
            k: 3,
            ..CaesarConfig::default()
        };
        let _ = ThreadedCaesar::new(cfg, 1).with_policy(BackpressurePolicy::DropOldest);
    }
}
