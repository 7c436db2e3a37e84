//! The detached-thread driver of the online engine, with heartbeat
//! supervision and crash failover.
//!
//! [`crate::online::OnlineEngine`] is one engine with two drivers.
//! Under the pump ([`crate::OnlineCaesar`]) the caller's thread drains
//! every lane at deterministic points, so every schedule — and every
//! injected fault — is a pure function of the offered stream: the
//! **deterministic oracle**. [`ThreadedCaesar`] is the same engine
//! driven by [`Threads`], the way a line card actually runs it: each
//! lane's worker is a **real detached OS thread** draining its bounded
//! [`support::spsc`] ring through the same supervised step, supervised
//! by **wall-clock heartbeats** instead of logical pump-attempt ticks.
//! `offer`, the epoch rotation, checkpoints, restore and the read
//! surface are the engine's; this module holds only what is about
//! threads:
//!
//! * **Heartbeat slots.** Each worker publishes progress through a
//!   cache-line-padded atomic slot ([`support::spsc::CachePadded`]):
//!   a monotonic beat counter, the lane's recorded count, the engine
//!   epoch it has observed, the last flush (checkpoint) sequence it
//!   acknowledged, and its lifecycle state. The slot is the *only*
//!   state the supervisor reads without a lock.
//! * **Woken, not polled.** A worker with nothing to do — ring empty
//!   and idle, parked for a snapshot, or waiting out a panic's
//!   service — publishes a non-running state and parks its thread.
//!   The engine wakes it after every command it stores (resume, flush,
//!   park, stop, failover, drop), and a producer whose push finds the
//!   worker idle wakes it once a chunk is queued. That check is one
//!   plain load on the offer path, with no fence: a wake lost to the
//!   race, or a tail shorter than a chunk, is caught by a later push,
//!   by any supervisor wait (each wakes the worker before it waits), or
//!   by the idle wait's heartbeat-interval timeout.
//! * **A monitor thread** wakes a few times per heartbeat interval and
//!   compares each running worker's beat against a wall-clock
//!   deadline. A worker whose beat has not moved for **two consecutive
//!   heartbeat deadlines** is declared hung: the monitor publishes a
//!   verdict the engine consumes at its next service point. It waits
//!   on a condition variable, so stopping it never waits out a poll.
//! * **Crash failover.** A hung worker's ring is sealed, the lane's
//!   in-flight packets are **quarantined** (counted exactly, recorded
//!   in the lane's [`crate::FaultLog`]), whatever accumulator state can be
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
//!   state machine), worker woken.
//!
//! The mass-accounting invariant is preserved **exactly** at every
//! observation point, fault or no fault:
//!
//! ```text
//! offered == recorded + dropped + quarantined + in_flight
//! ```
//!
//! A lane counts a packet offered only once its fate is settled
//! (queued or shed): a failover can fire while the packet is still in
//! the producer's hand, and a pre-counted packet would be covered by
//! the failover's residual quarantine *and* queued into the fresh ring.
//!
//! **Bit-identity.** On a fault-free run a `ThreadedCaesar` is
//! bit-identical to the pump oracle at every epoch boundary, and its
//! `finish` equals [`ConcurrentCaesar::build`]. This is by
//! construction, not luck: workers stage all evictions in shard-local
//! [`crate::WritebackBuffer`] segments (no mid-epoch writes to
//! shared SRAM), the batch kernel is chunk-boundary-insensitive, and
//! the engine's epoch rotation drains every lane dry then flushes the
//! shards in ascending order with acknowledgement waits — the same
//! order the pump merges, so even the saturation tallies match.
//! Snapshots are taken at a **quiesced** point (all accepted packets
//! applied, workers parked) by the engine's one encoder, so a quiesced
//! threaded snapshot is byte-identical to the pump's at the same
//! boundary.
//!
//! [`ConcurrentCaesar::build`]: crate::ConcurrentCaesar::build

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::atomic_sram::AtomicCounterArray;
use crate::concurrent::ShardWorker;
use crate::lane::{
    Lane, LaneShared, HB_EXITED, HB_IDLE, HB_PANICKED, HB_PARKED, HB_RUNNING, STREAM_CHUNK,
};
use crate::online::{
    BackpressurePolicy, Drive, FaultKind, FaultRecord, OnlineCaesar, OnlineEngine, Pump,
};
use hashkit::KCounterMap;
use support::spsc::{self, Backoff};
use support::testkit::{FaultInjector, FaultSite};

/// Default heartbeat interval of a new engine, in milliseconds.
/// Generous on purpose: supervision exists to catch *wedged* workers,
/// and a false failover quarantines real traffic. Latency-sensitive
/// deployments tune it down with
/// [`ThreadedCaesar::with_heartbeat_interval`].
pub const DEFAULT_HEARTBEAT_MS: u64 = 250;

/// Monitor-thread shared state: the stop flag with the condition
/// variable the monitor waits on between polls, and the registry of
/// heartbeat slots to watch (slots are replaced on failover).
struct MonitorShared {
    stop: Mutex<bool>,
    wake: Condvar,
    lanes: Mutex<Vec<Arc<LaneShared>>>,
}

/// The supervisor monitor: stops, wakes and joins its thread on drop,
/// so a dropped engine never leaks it and never waits out a poll.
struct Monitor {
    shared: Arc<MonitorShared>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Monitor {
    fn drop(&mut self) {
        *self.shared.stop.lock().expect("monitor stop lock") = true;
        self.shared.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The detached-thread driver: one worker thread per lane plus a
/// heartbeat monitor, all spawned on first use.
pub struct Threads {
    heartbeat: Duration,
    pin_workers: bool,
    /// The live fault schedule, shared with the worker threads.
    injector: Arc<Mutex<FaultInjector>>,
    injector_live: bool,
    monitor: Option<Monitor>,
    started: bool,
    quiesced: bool,
}

impl Default for Threads {
    fn default() -> Self {
        Self {
            heartbeat: Duration::from_millis(DEFAULT_HEARTBEAT_MS),
            pin_workers: false,
            injector: Arc::default(),
            injector_live: false,
            monitor: None,
            started: false,
            quiesced: false,
        }
    }
}

/// The heartbeat-supervised detached-thread online engine: the same
/// engine, accounting, snapshot format and finish semantics as
/// [`crate::OnlineCaesar`], with worker threads and wall-clock
/// supervision in place of the pump and its logical watchdog ticks.
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
pub type ThreadedCaesar = OnlineEngine<Threads>;

impl ThreadedCaesar {
    /// Take over a pump engine's complete state — counters, worker
    /// state machines, ring contents, fault logs, chain position,
    /// fault schedule — without a codec round trip: only the driver
    /// changes, and the worker threads spawn on first use. The inverse
    /// of [`ThreadedCaesar::into_online`].
    ///
    /// # Panics
    /// Panics if the pump is configured with
    /// [`BackpressurePolicy::DropOldest`], which requires consumer-side
    /// ownership the threaded runtime hands to its workers.
    pub fn from_online(engine: OnlineCaesar) -> Self {
        Threads::check_policy(engine.policy).unwrap_or_else(|why| panic!("{why}"));
        Threads::adopt(engine)
    }

    /// Quiesce, stop the monitor and every worker thread, join them,
    /// and hand the complete state back to the pump. Bit-preserving:
    /// the pump's subsequent snapshots, queries and `finish` behave
    /// exactly as if it had run the whole stream itself (fault-free).
    pub fn into_online(mut self) -> OnlineCaesar {
        Threads::retire(&mut self);
        // Every worker is joined; only a fenced zombie can still hold
        // the schedule, and then it stays with the zombie.
        let injector = Arc::try_unwrap(std::mem::take(&mut self.driver.injector))
            .map_or_else(|_| FaultInjector::none(), |m| m.into_inner().expect("injector lock"));
        self.with_driver(Pump { injector })
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
        assert!(!self.driver.started, "set the heartbeat interval before workers spawn");
        self.driver.heartbeat = interval;
        self
    }

    /// Pin each worker thread to a core (shard *i* → CPU
    /// `i % cores`, via [`support::affinity::pin_shard`]). A loud
    /// no-op on hosts that cannot pin.
    ///
    /// # Panics
    /// Panics if workers already spawned.
    pub fn with_pinning(mut self, pin: bool) -> Self {
        assert!(!self.driver.started, "set pinning before workers spawn");
        self.driver.pin_workers = pin;
        self
    }

    /// Attach a deterministic fault-injection schedule (testing).
    /// Thread-aware sites: [`FaultSite::WorkerPanic`] panics the
    /// worker *on its own thread* between two packets;
    /// [`FaultSite::WorkerHang`] stops the worker's heartbeat entirely
    /// with a popped batch in hand (until the failover fence releases
    /// it); [`FaultSite::SlowDrain`] stalls one batch for one heartbeat
    /// interval — visible to the monitor but inside the two-deadline
    /// budget, so it must **not** trip failover. Both tick once per
    /// popped batch.
    /// [`FaultSite::RingStall`] has no meaning here (there are no pump
    /// attempts) and never fires.
    ///
    /// # Panics
    /// Panics if workers already spawned.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        assert!(!self.driver.started, "attach the injector before workers spawn");
        self.driver.injector_live = !injector.is_inert();
        self.driver.injector = Arc::new(Mutex::new(injector));
        self
    }

    /// Inspect the fault-injection schedule (fired/pending counts).
    /// Unlike the pump's [`OnlineCaesar::injector`], the threaded
    /// injector is shared with the worker threads behind a mutex, so
    /// this borrows it to `f` under a brief lock.
    pub fn with_injector_state<R>(&self, f: impl FnOnce(&FaultInjector) -> R) -> R {
        f(&self.driver.injector.lock().expect("fault injector lock"))
    }

    /// The heartbeat interval in effect.
    pub fn heartbeat_interval(&self) -> Duration {
        self.driver.heartbeat
    }

    // -----------------------------------------------------------------
    // Thread lifecycle
    // -----------------------------------------------------------------

    #[inline]
    fn ensure_started(&mut self) {
        if !self.driver.started {
            self.start();
        }
    }

    fn start(&mut self) {
        self.driver.started = true;
        for shard in 0..self.shards {
            self.spawn_worker(shard);
        }
        let shared = Arc::new(MonitorShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            lanes: Mutex::new(self.lanes.iter().map(|l| Arc::clone(&l.shared)).collect()),
        });
        let for_thread = Arc::clone(&shared);
        let interval = self.driver.heartbeat;
        let handle = std::thread::Builder::new()
            .name("caesar-monitor".into())
            .spawn(move || monitor_loop(&for_thread, interval))
            .expect("spawn heartbeat monitor thread");
        self.driver.monitor = Some(Monitor { shared, handle: Some(handle) });
    }

    fn spawn_worker(&mut self, shard: usize) {
        let lane = &mut self.lanes[shard];
        let rx = lane.rx.take().expect("consumer endpoint available to spawn");
        lane.shared.ctrl.epoch.store(self.epoch, Ordering::Release);
        lane.shared.hb.state.0.store(HB_RUNNING, Ordering::Release);
        let shared = Arc::clone(&lane.shared);
        let sram = Arc::clone(&self.sram);
        let kmap = Arc::clone(&self.kmap);
        let driver = &self.driver;
        let injector = driver.injector_live.then(|| Arc::clone(&driver.injector));
        let ctx = WorkerCtx {
            shard,
            shards: self.shards,
            interval: driver.heartbeat,
            pin: driver.pin_workers,
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
    #[inline]
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
        let Self { lanes, sram, kmap, cfg, entries, epoch, .. } = self;
        let lane = &mut lanes[shard];
        let mut cell = lane.shared.lock();
        let Some(panic) = cell.panic_info.take() else {
            return;
        };
        let fresh = ShardWorker::staged(cfg, shard, entries[shard]);
        lane.ledger.respawn_after_panic(&mut cell.worker, fresh, sram, kmap, *epoch, panic);
        drop(cell);
        // Releasing the state releases the worker thread, which loops
        // straight back into draining against the fresh state machine.
        lane.shared.hb.state.0.store(HB_RUNNING, Ordering::Release);
        lane.wake();
    }

    /// The monitor found a worker that missed two heartbeat deadlines.
    /// Seal the ring, fence the zombie behind a generation bump,
    /// salvage what can be reached without racing it, quarantine the
    /// exact in-flight residue, and respawn a fresh worker on a fresh
    /// ring.
    fn heartbeat_failover(&mut self, shard: usize) {
        let Self { lanes, sram, kmap, cfg, entries, ring_capacity, epoch, driver, .. } = self;
        let lane = &mut lanes[shard];
        // Seal first: nothing new enters the wedged ring, and a
        // zombie that wakes up sees a closed, abandoned ring.
        lane.tx.seal();
        let old = &lane.shared;
        old.ctrl.gen.fetch_add(1, Ordering::Release);
        let (exact, salvaged_units) = match old.cell.try_lock() {
            Ok(mut cell) => {
                // Hung at a batch boundary (the injected form): the
                // cell is free, so the accumulator is safe to salvage.
                let salvaged = cell.worker.drain_cache(sram, kmap);
                cell.worker.flush_writeback(sram);
                lane.ledger.retired.merge(&cell.worker.ingest_stats());
                (true, salvaged)
            }
            // Genuinely wedged mid-batch: the zombie owns the cell. Its
            // published prefix counts as recorded, but its staged mass
            // is stranded in an orphaned accumulator the fence will
            // never let it flush. Flagged inexact, like a genuine
            // mid-record panic.
            Err(_) => (false, 0),
        };
        // Final either way: the fence keeps the zombie off the fresh
        // lane's slot.
        let recorded = lane.recorded();
        let ledger = &mut lane.ledger;
        let residual = ledger.unsettled(recorded);
        ledger.quarantined += residual;
        ledger.respawns += 1;
        ledger.log.records.push(FaultRecord {
            kind: FaultKind::WatchdogFailover,
            epoch: *epoch,
            at_offered: ledger.offered,
            quarantined: residual,
            salvaged_units,
            payload: format!(
                "worker heartbeat missed two {}ms deadlines; lane failed over",
                driver.heartbeat.as_millis()
            ),
            exact,
        });
        // Fresh ring, fresh shared slot, fresh state machine. Dropping
        // the old lane wakes the zombie into its fence; its thread is
        // detached, not joined.
        let worker = ShardWorker::staged(cfg, shard, entries[shard]);
        let ledger = std::mem::take(&mut lane.ledger);
        *lane = Lane::with_parts(*ring_capacity, worker, recorded, ledger, &[])
            .expect("the lane's own ring capacity allocates");
        lane.shared.ctrl.park.store(driver.quiesced, Ordering::Release);
        if let Some(mon) = &driver.monitor {
            let mut registry = mon.shared.lanes.lock().expect("monitor registry lock");
            registry[shard] = Arc::clone(&lane.shared);
        }
        if driver.started {
            self.spawn_worker(shard);
        }
    }
}

/// The thread runtime counts a packet offered only once its fate is
/// settled (see the module docs), and relieves a full ring by waking
/// the worker and backing off, never by draining it itself.
impl Drive for Threads {
    fn check_policy(policy: BackpressurePolicy) -> Result<(), &'static str> {
        match policy {
            BackpressurePolicy::DropOldest => {
                Err("DropOldest needs the consumer endpoint, which threaded workers own")
            }
            BackpressurePolicy::Block | BackpressurePolicy::DropNewest => Ok(()),
        }
    }

    fn adopt(mut engine: OnlineCaesar) -> ThreadedCaesar {
        let injector = std::mem::take(&mut engine.driver.injector);
        for lane in &mut engine.lanes {
            // The pump's watchdog state does not transfer: this runtime
            // supervises by heartbeat. In-ring packets stay in the ring
            // for the worker to drain once spawned.
            lane.inline_fallback = false;
            lane.stalled_attempts = 0;
        }
        engine.with_driver(Threads {
            injector_live: !injector.is_inert(),
            injector: Arc::new(Mutex::new(injector)),
            ..Threads::default()
        })
    }

    #[inline]
    fn admit(engine: &mut ThreadedCaesar, shard: usize) {
        engine.ensure_started();
        engine.service_lane(shard);
    }

    #[inline]
    fn bypass(_: &mut ThreadedCaesar, _: usize, _: u64) -> bool {
        false
    }

    #[inline]
    fn settled(engine: &mut ThreadedCaesar, shard: usize) {
        engine.lanes[shard].ledger.offered += 1;
    }

    /// Wake an idle worker once a chunk (or half a small ring) waits
    /// for it, as the pump drains one. The check is a plain load, no
    /// fence: a wake lost to the race, like a short tail, waits for a
    /// later push or the next supervisor wait (each wakes the worker
    /// first), never loses a packet.
    #[inline]
    fn pushed(engine: &mut ThreadedCaesar, shard: usize) {
        let lane = &mut engine.lanes[shard];
        if lane.shared.hb.state.0.load(Ordering::Relaxed) == HB_IDLE {
            let queued = lane.tx.in_flight();
            if queued >= STREAM_CHUNK || 2 * queued >= lane.tx.capacity() {
                lane.wake();
            }
        }
    }

    /// The worker is behind, idle past a lost wake, or wedged (the
    /// monitor decides): wake it, consume any verdict, back off.
    fn ring_full(engine: &mut ThreadedCaesar, shard: usize, backoff: &mut Backoff) -> bool {
        engine.lanes[shard].wake();
        engine.service_lane(shard);
        backoff.wait();
        false
    }

    fn fault_tick(engine: &mut ThreadedCaesar, site: FaultSite, shard: usize) -> bool {
        let driver = &engine.driver;
        driver.injector_live && driver.injector.lock().expect("injector lock").tick(site, shard)
    }

    /// Wake the worker, then wait (servicing worker events) until it
    /// has applied every accepted packet.
    fn drain_dry(engine: &mut ThreadedCaesar, shard: usize) {
        engine.ensure_started();
        engine.lanes[shard].wake();
        let mut backoff = Backoff::new();
        loop {
            engine.service_lane(shard);
            if engine.lanes[shard].in_flight() == 0 {
                return;
            }
            backoff.wait();
        }
    }

    /// Command the worker to flush its writeback segment and wait for
    /// the acknowledgement. The engine calls this in ascending shard
    /// order, so the shared SRAM sees the pump's merge order.
    fn flush(engine: &mut ThreadedCaesar, shard: usize) {
        let lane = &mut engine.lanes[shard];
        lane.flush_issued += 1;
        let target = lane.flush_issued;
        lane.shared.ctrl.flush_seq.store(target, Ordering::Release);
        lane.wake();
        let mut backoff = Backoff::new();
        loop {
            if engine.lanes[shard].shared.hb.ckpt_seq.0.load(Ordering::Acquire) >= target {
                return;
            }
            engine.service_lane(shard);
            if engine.lanes[shard].flush_issued == 0 {
                // A failover replaced the lane mid-flush: the salvage
                // already flushed everything the dead worker had
                // staged, and the fresh worker has nothing staged.
                return;
            }
            backoff.wait();
        }
    }

    /// Park every worker at a checkpoint-safe point: rings drained
    /// dry, all accepted packets applied, workers waiting at
    /// `HB_PARKED`. The engine then owns every cell uncontended.
    fn quiesce(engine: &mut ThreadedCaesar) {
        engine.ensure_started();
        engine.driver.quiesced = true;
        for lane in &engine.lanes {
            lane.shared.ctrl.park.store(true, Ordering::Release);
            lane.wake();
        }
        for shard in 0..engine.shards {
            let mut backoff = Backoff::new();
            loop {
                engine.service_lane(shard);
                let lane = &engine.lanes[shard];
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
    fn resume(engine: &mut ThreadedCaesar) {
        engine.driver.quiesced = false;
        for lane in &engine.lanes {
            lane.shared.ctrl.park.store(false, Ordering::Release);
            lane.wake();
        }
    }

    /// Quiesce, then stop the monitor first (so it cannot judge a
    /// worker that is mid-shutdown) and join every worker, which hands
    /// each consumer endpoint back to its lane.
    fn retire(engine: &mut ThreadedCaesar) {
        Self::quiesce(engine);
        drop(engine.driver.monitor.take());
        for lane in &mut engine.lanes {
            lane.join_worker();
        }
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

/// Yields an idle worker spends on an empty ring before it waits for
/// a wake: enough to ride out a producer's gap between two pushes
/// without a wake round trip.
const IDLE_SPINS: u32 = 64;

/// The detached worker thread body. Returns the consumer endpoint so
/// [`ThreadedCaesar::into_online`] can hand the lane back to the pump.
///
/// Every wait is a wake, never a sleep (the injected `SlowDrain` stall
/// is the fault itself): the idle, parked, panicked and fenced-zombie
/// waits park the thread, the engine wakes it ([`Lane::wake`]) after
/// every command it stores, and the producer once a chunk is queued.
///
/// Exit paths: generation fence (failover), stop request with an
/// empty ring (teardown or a dropped engine), or a closed *and* empty
/// ring (the engine sealed the ring at failover).
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
    let ctrl = &shared.ctrl;
    let state = &shared.hb.state.0;
    let my_gen = ctrl.gen.load(Ordering::Acquire);
    let fenced = |rx: &mut spsc::Consumer<u64>| {
        ctrl.gen.load(Ordering::Acquire) != my_gen || (rx.is_closed() && rx.is_empty())
    };
    let stopped = || ctrl.stop.load(Ordering::Acquire);
    let mut buf: Vec<u64> = Vec::with_capacity(STREAM_CHUNK);
    // Every flush commanded before this spawn was acknowledged.
    let mut flush_ack = shared.hb.ckpt_seq.0.load(Ordering::Acquire);
    let mut idle = 0u32;
    loop {
        if ctrl.gen.load(Ordering::Acquire) != my_gen {
            break;
        }
        shared.hb.beat.0.fetch_add(1, Ordering::Release);
        shared.hb.epoch.0.store(ctrl.epoch.load(Ordering::Acquire), Ordering::Release);
        buf.clear();
        let n = rx.pop_batch(&mut buf, STREAM_CHUNK);
        if n == 0 {
            let seq = ctrl.flush_seq.load(Ordering::Acquire);
            if seq != flush_ack {
                let mut cell = shared.lock();
                if ctrl.gen.load(Ordering::Acquire) != my_gen {
                    break;
                }
                cell.worker.flush_writeback(sram);
                drop(cell);
                flush_ack = seq;
                shared.hb.ckpt_seq.0.store(seq, Ordering::Release);
                continue;
            }
            if ctrl.park.load(Ordering::Acquire) {
                // Parked until released, or until packets arrive: a
                // resume and the next quiesce can both land before this
                // thread runs, and the packets offered in between must
                // still drain before the engine's quiesce can finish.
                state.store(HB_PARKED, Ordering::Release);
                while ctrl.park.load(Ordering::Acquire)
                    && !stopped()
                    && !fenced(&mut rx)
                    && rx.is_empty()
                {
                    std::thread::park();
                }
                state.store(HB_RUNNING, Ordering::Release);
                continue;
            }
            if (stopped() || rx.is_closed()) && rx.is_empty() {
                break;
            }
            idle += 1;
            if idle <= IDLE_SPINS {
                std::thread::yield_now();
                continue;
            }
            // Publish idle before the last look at the ring: a producer
            // that pushes after this store sees it and wakes us once a
            // chunk waits. A push that raced it, or a short tail, is
            // caught by a later push, by any supervisor wait, or by the
            // heartbeat-interval timeout.
            state.store(HB_IDLE, Ordering::SeqCst);
            if rx.is_empty() {
                std::thread::park_timeout(ctx.interval);
            }
            state.store(HB_RUNNING, Ordering::Release);
            // A wake usually brings work or a command, and a supervisor
            // often stores its next command right after: spin again
            // before the next wait.
            idle = 0;
            continue;
        }
        idle = 0;
        if let Some(inj) = injector {
            // Thread-aware fault hooks, once per popped batch: a batch
            // boundary, so the accounting stays exact. A hung worker
            // holds its batch unapplied, in flight for the failover to
            // quarantine; an idle worker consumes no ticks.
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
                // fence, an abandoned ring or a stop releases the
                // zombie.
                while !fenced(&mut rx) && !stopped() {
                    std::thread::park();
                }
                break;
            }
            if nap {
                // One heartbeat-interval stall: visibly late, but
                // inside the two-deadline budget — must NOT fail over.
                std::thread::sleep(ctx.interval); // injected SlowDrain stall
            }
        }
        let mut cell = shared.lock();
        if ctrl.gen.load(Ordering::Acquire) != my_gen {
            // Fenced between pop and apply: the popped packets are
            // part of the residual the failover quarantined. Applying
            // them now would double-count.
            break;
        }
        let shard = ctx.shard;
        let tick = injector.map(|inj| {
            move || inj.lock().expect("injector lock").tick(FaultSite::WorkerPanic, shard)
        });
        let Err(panic) = shared.apply(&mut cell, &buf, sram, kmap, tick) else {
            continue;
        };
        cell.panic_info = Some(panic);
        drop(cell);
        // Wounded, not hung: `HB_PANICKED` stops the monitor's clock
        // while the engine salvages and respawns the state machine in
        // place, then releases and wakes us.
        state.store(HB_PANICKED, Ordering::Release);
        while state.load(Ordering::Acquire) == HB_PANICKED {
            if fenced(&mut rx) || stopped() {
                state.store(HB_EXITED, Ordering::Release);
                return rx;
            }
            std::thread::park();
        }
    }
    state.store(HB_EXITED, Ordering::Release);
    rx
}

/// The monitor thread body: wake a few times per heartbeat interval,
/// compare each registered worker's beat against the wall clock, and
/// publish a verdict when one misses two consecutive deadlines. It
/// waits on the stop flag's condition variable, so a dropped engine
/// releases it at once.
fn monitor_loop(shared: &MonitorShared, interval: Duration) {
    struct Track {
        identity: usize,
        beat: u64,
        since: Instant,
    }
    let poll = (interval / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
    let deadline = interval * 2;
    let mut tracks: Vec<Option<Track>> = Vec::new();
    let mut stop = shared.stop.lock().expect("monitor stop lock");
    loop {
        stop = shared
            .wake
            .wait_timeout_while(stop, poll, |stop| !*stop)
            .expect("monitor stop lock")
            .0;
        if *stop {
            return;
        }
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
                // Fresh slot, fresh beat, or a worker that is idle,
                // parked, being serviced or already exiting: restart
                // its clock.
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
    use crate::CaesarConfig;

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
        assert!(!engine.driver.started);
        drop(engine);
    }

    #[test]
    fn dropped_engine_releases_every_worker() {
        let cfg = CaesarConfig {
            cache_entries: 32,
            entry_capacity: 8,
            counters: 1024,
            k: 3,
            ..CaesarConfig::default()
        };
        let mut threaded =
            ThreadedCaesar::new(cfg, 2).with_heartbeat_interval(Duration::from_secs(60));
        threaded.offer_batch(&(0..4_096).collect::<Vec<u64>>());
        threaded.merge_now();
        // Let both workers reach their idle wait, whose backstop
        // timeout (the 60 s heartbeat) would outlast the test.
        let deadline = Instant::now() + Duration::from_secs(10);
        let lanes = &threaded.lanes;
        while lanes.iter().any(|l| l.shared.hb.state.0.load(Ordering::Acquire) != HB_IDLE) {
            assert!(Instant::now() < deadline, "workers never went idle");
            std::thread::yield_now();
        }
        let slots: Vec<std::sync::Weak<LaneShared>> =
            lanes.iter().map(|l| Arc::downgrade(&l.shared)).collect();
        drop(threaded);
        let deadline = Instant::now() + Duration::from_secs(1);
        while slots.iter().any(|w| w.strong_count() > 0) {
            assert!(Instant::now() < deadline, "a worker outlived its engine by 1 s");
            std::thread::yield_now();
        }
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
