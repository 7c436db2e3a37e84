//! Fault-tolerant **online** (non-terminating) ingest runtime.
//!
//! The finite builds in [`crate::concurrent`] run to completion and
//! abort (or now, with the `try_` family, *return an error*) when a
//! shard worker panics — acceptable for an offline trace replay,
//! useless for a line card that must keep measuring through faults.
//! [`OnlineCaesar`] is the supervised, long-running form of the same
//! machinery:
//!
//! * **Supervised shard workers.** Each shard lane owns a bounded
//!   [`support::spsc`] ring and a [`ShardWorker`] state machine. Every
//!   drain step runs under [`std::panic::catch_unwind`]; a panicking
//!   worker **quarantines** the unprocessed remainder of its batch
//!   (counted exactly), has its surviving cache mass **salvaged** into
//!   the shared SRAM (no recorded packet is lost), and is **respawned**
//!   fresh against the shard's surviving accumulator state. Every fault
//!   is appended to the lane's [`FaultLog`].
//! * **Loss-accounted backpressure.** A full ring is first relieved by
//!   pumping the consumer; only when the consumer makes no progress
//!   does the configured [`BackpressurePolicy`] apply — `Block` keeps
//!   pumping (bounded by the watchdog), `DropNewest`/`DropOldest` shed
//!   with exact per-shard loss counters that
//!   [`OnlineCaesar::query_health`] folds into query-time confidence.
//! * **Watchdog failover.** A lane whose consumer makes no progress for
//!   [`OnlineCaesar::with_watchdog_deadline`] consecutive pump attempts
//!   is declared hung: the supervisor drains the wedged ring inline,
//!   marks the lane `inline_fallback`, and serves it on the supervisor
//!   thread until the next epoch boundary re-arms the ring path.
//! * **Epoch-aligned merges.** Workers stage evictions in shard-local
//!   [`crate::WRITEBACK_ACCUMULATE_ALL`] segments; at every epoch boundary
//!   ([`OnlineCaesar::with_epoch_len`] offered packets) all lanes are
//!   drained dry and their segments merged into the shared SRAM in
//!   ascending shard order. Queries read the SRAM at any time — a
//!   consistent (merge-aligned) snapshot — without stopping ingest.
//! * **Crash-consistent snapshot/restore.** [`OnlineCaesar::snapshot`]
//!   serializes the complete dynamic state (config, per-lane cache
//!   slots + memoized k-maps + RNG streams, staged writeback segments,
//!   SRAM words + tally stripes, in-ring packets, loss counters and
//!   fault logs) through [`support::bytesx`] and seals it with a
//!   checksum footer; [`OnlineCaesar::restore`] refuses truncated or
//!   bit-flipped blobs, and a restored engine **resumes byte-identical**
//!   to the uninterrupted run (pinned by `tests/fault_tolerance.rs`).
//!
//! Determinism: the runtime is a single-owner engine — the supervisor
//! holds both ring endpoints and pumps workers itself at deterministic
//! points (ring occupancy reaching a chunk, backpressure, epoch
//! boundaries), so the whole schedule, including every injected fault
//! from a [`FaultInjector`] plan, is a pure function of the offered
//! stream. A fault-free run's [`OnlineCaesar::finish`] is bit-identical
//! to [`ConcurrentCaesar::build`] on the same stream.
//!
//! Mass accounting invariant (checked by the property suite):
//!
//! ```text
//! offered == recorded + dropped + quarantined + in_flight
//! ```
//!
//! exactly, per shard and in aggregate, at every instant — injected
//! faults fire *between* packets, so no packet is ever half-counted.
//! (A genuine mid-record panic — a bug, not a scheduled fault — is
//! still caught and accounted, but its in-progress packet may have
//! left partial cache state; the lane's [`FaultRecord::exact`] flag
//! turns `false` to say so.)

use crate::atomic_sram::AtomicCounterArray;
use crate::concurrent::{
    BatchPanic, ConcurrentCaesar, IngestStats, ShardWorker, ShardWorkerState, STREAM_CHUNK,
};
use crate::config::{CaesarConfig, Estimator};
use crate::merge::{MergeError, SketchFingerprint};
use crate::query::SketchRead;
use cachesim::{CachePolicy, CacheStats, CacheTableState};
use hashkit::{KCounterMap, K_MAX};
use support::bytesx::{seal, unseal, ByteReader, PutBytes, SealError};
use support::spsc;
use support::testkit::{FaultInjector, FaultSite, INJECTED_PANIC};

/// Default epoch length in offered packets: a few ring-chunks per lane
/// between merges — frequent enough that queries lag ingest by a small
/// bounded window, rare enough that the merge CAS traffic stays
/// amortized.
pub const DEFAULT_EPOCH_LEN: u64 = 16 * STREAM_CHUNK as u64;

/// Default watchdog deadline: consecutive no-progress pump attempts on
/// a backpressured lane before the supervisor declares the consumer
/// hung and fails the lane over to inline processing.
pub const DEFAULT_WATCHDOG_DEADLINE: u64 = 8;

/// What the front end does with a packet whose shard ring is full *and*
/// whose consumer is making no progress (a healthy consumer is always
/// pumped first, so a drop can only happen under genuine backpressure).
///
/// Every shed packet is counted exactly in the lane's `dropped`
/// counter; [`OnlineCaesar::query_health`] folds the loss fraction
/// into the reported confidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Never drop: keep pumping the consumer until space frees. A hung
    /// consumer is bounded by the watchdog, which fails the lane over
    /// to inline processing — so `Block` guarantees `dropped == 0`.
    Block,
    /// Shed the *incoming* packet (tail drop — the classic NIC-queue
    /// behaviour). Loss is accounted against the incoming packet's
    /// shard.
    DropNewest,
    /// Shed the *oldest* queued packet to admit the new one (head
    /// drop — freshness-biased, as in time-decayed monitors).
    DropOldest,
}

impl BackpressurePolicy {
    fn to_u8(self) -> u8 {
        match self {
            BackpressurePolicy::Block => 0,
            BackpressurePolicy::DropNewest => 1,
            BackpressurePolicy::DropOldest => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(BackpressurePolicy::Block),
            1 => Some(BackpressurePolicy::DropNewest),
            2 => Some(BackpressurePolicy::DropOldest),
            _ => None,
        }
    }
}

/// What kind of fault a [`FaultRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The shard worker panicked during a drain step.
    WorkerPanic,
    /// The watchdog declared the lane's consumer hung and failed the
    /// lane over to inline processing.
    WatchdogFailover,
}

/// One supervised fault, as recorded in a lane's [`FaultLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Fault kind.
    pub kind: FaultKind,
    /// Epoch in which the fault fired.
    pub epoch: u64,
    /// The lane's `offered` count when the fault fired.
    pub at_offered: u64,
    /// Packets quarantined by this fault (the unprocessed remainder of
    /// the batch a panicking worker was draining).
    pub quarantined: u64,
    /// Unit mass salvaged from the panicked worker's surviving cache
    /// into the shared SRAM before respawn.
    pub salvaged_units: u64,
    /// The panic payload (for [`FaultKind::WorkerPanic`]) or a
    /// human-readable reason (for [`FaultKind::WatchdogFailover`]).
    pub payload: String,
    /// Whether the mass accounting around this fault is exact.
    /// Injected faults fire *between* packets, so they are always
    /// exact; a genuine mid-record panic may have left the in-progress
    /// packet half-applied, which this flag surfaces.
    pub exact: bool,
}

/// Per-shard fault history: every worker panic and watchdog failover
/// the lane survived, in firing order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// The recorded faults, oldest first.
    pub records: Vec<FaultRecord>,
}

impl FaultLog {
    /// Number of worker panics survived.
    pub fn panics(&self) -> usize {
        self.records.iter().filter(|r| r.kind == FaultKind::WorkerPanic).count()
    }

    /// Number of watchdog failovers.
    pub fn failovers(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.kind == FaultKind::WatchdogFailover)
            .count()
    }

    /// True when every recorded fault kept exact mass accounting.
    pub fn is_exact(&self) -> bool {
        self.records.iter().all(|r| r.exact)
    }
}

/// Public per-shard accounting snapshot (see the module-level mass
/// invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStats {
    /// Shard id.
    pub shard: usize,
    /// Packets routed to this shard.
    pub offered: u64,
    /// Packets fully applied to the shard's cache/sketch.
    pub recorded: u64,
    /// Packets shed by the backpressure policy.
    pub dropped: u64,
    /// Packets lost to worker panics (unprocessed batch remainders).
    pub quarantined: u64,
    /// Packets currently queued in the shard's ring.
    pub in_flight: u64,
    /// Times the worker was respawned after a panic.
    pub respawns: u64,
    /// Whether the lane is currently failed over to inline processing.
    pub inline_fallback: bool,
}

/// Aggregate accounting across all lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineStats {
    /// Packets offered to the engine.
    pub offered: u64,
    /// Packets fully applied.
    pub recorded: u64,
    /// Packets shed by backpressure.
    pub dropped: u64,
    /// Packets lost to worker panics.
    pub quarantined: u64,
    /// Packets currently in rings (not yet applied).
    pub in_flight: u64,
    /// Current epoch ordinal.
    pub epoch: u64,
    /// Epoch-aligned merges performed.
    pub merges: u64,
    /// Worker respawns across all lanes.
    pub respawns: u64,
    /// Watchdog failovers across all lanes.
    pub failovers: u64,
}

/// The per-lane accounting both online runtimes keep — the pump's
/// [`Lane`] and the detached-thread runtime's thread lane each hold
/// one, and it moves between them whole. How many packets were
/// *recorded* and are *in flight* is runtime-specific (the pump counts
/// them, the threaded runtime reads the worker's heartbeat), so those
/// two are passed in where needed.
#[derive(Debug, Default)]
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
    /// Packets accepted but neither recorded nor lost, given the
    /// runtime's `recorded` count.
    pub(crate) fn unsettled(&self, recorded: u64) -> u64 {
        self.offered - self.dropped - self.quarantined - recorded
    }

    /// The exact loss ratio `(dropped + quarantined) / offered`
    /// ([`SketchRead::loss_fraction`] of the lane's flows).
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

    /// The lane's public accounting snapshot.
    pub(crate) fn lane_stats(
        &self,
        shard: usize,
        recorded: u64,
        in_flight: u64,
        inline_fallback: bool,
    ) -> LaneStats {
        LaneStats {
            shard,
            offered: self.offered,
            recorded,
            dropped: self.dropped,
            quarantined: self.quarantined,
            in_flight,
            respawns: self.respawns,
            inline_fallback,
        }
    }

    /// Add the lane into an engine-wide aggregate.
    pub(crate) fn fold_into(&self, st: &mut OnlineStats, recorded: u64, in_flight: u64) {
        st.recorded += recorded;
        st.dropped += self.dropped;
        st.quarantined += self.quarantined;
        st.in_flight += in_flight;
        st.respawns += self.respawns;
        st.failovers += self.log.failovers() as u64;
    }
}

impl OnlineStats {
    /// The aggregate before any lane is folded in.
    pub(crate) fn empty(offered: u64, epoch: u64, merges: u64) -> Self {
        Self {
            offered,
            recorded: 0,
            dropped: 0,
            quarantined: 0,
            in_flight: 0,
            epoch,
            merges,
            respawns: 0,
            failovers: 0,
        }
    }
}

/// One shard lane: the ring, the worker state machine, and the exact
/// accounting. `pub(crate)` so the detached-thread runtime
/// ([`crate::threaded`]) can decompose a pump engine into thread lanes
/// and reassemble one (`from_online` / `into_online`) without a codec
/// round trip.
#[derive(Debug)]
pub(crate) struct Lane {
    pub(crate) tx: spsc::Producer<u64>,
    pub(crate) rx: spsc::Consumer<u64>,
    pub(crate) worker: ShardWorker,
    /// Pump scratch buffer (reused; capacity [`STREAM_CHUNK`]).
    pub(crate) buf: Vec<u64>,
    pub(crate) recorded: u64,
    /// Packets currently queued in the ring.
    pub(crate) in_ring: u64,
    pub(crate) inline_fallback: bool,
    /// Consecutive no-progress pump attempts (watchdog state).
    pub(crate) stalled_attempts: u64,
    pub(crate) ledger: LaneLedger,
}

impl Lane {
    fn new(cfg: &CaesarConfig, shard: usize, entries: usize, ring_capacity: usize) -> Self {
        let (tx, rx) = spsc::ring::<u64>(ring_capacity);
        Self {
            tx,
            rx,
            worker: ShardWorker::staged(cfg, shard, entries),
            buf: Vec::with_capacity(STREAM_CHUNK),
            recorded: 0,
            in_ring: 0,
            inline_fallback: false,
            stalled_attempts: 0,
            ledger: LaneLedger::default(),
        }
    }
}

/// The supervised online ingest engine. See the module docs for the
/// architecture; the short version:
///
/// ```
/// use caesar::{CaesarConfig, OnlineCaesar};
/// let cfg = CaesarConfig { cache_entries: 64, entry_capacity: 8, counters: 2048, k: 3,
///                          ..CaesarConfig::default() };
/// let mut online = OnlineCaesar::new(cfg, 2);
/// for i in 0..10_000u64 {
///     online.offer(i % 100);
/// }
/// let st = online.stats();
/// assert_eq!(st.offered, 10_000);
/// assert_eq!(st.offered, st.recorded + st.dropped + st.quarantined + st.in_flight);
/// let sketch = online.finish(); // drain + merge: now a finished ConcurrentCaesar
/// assert_eq!(sketch.sram().total_added(), 10_000);
/// ```
#[derive(Debug)]
pub struct OnlineCaesar {
    // Fields are `pub(crate)` so [`crate::threaded`] — the detached-
    // thread form of this same engine — can decompose and reassemble
    // one without going through the snapshot codec.
    pub(crate) cfg: CaesarConfig,
    pub(crate) shards: usize,
    pub(crate) policy: BackpressurePolicy,
    pub(crate) ring_capacity: usize,
    pub(crate) epoch_len: u64,
    pub(crate) watchdog_deadline: u64,
    pub(crate) sram: AtomicCounterArray,
    pub(crate) kmap: KCounterMap,
    pub(crate) entries: Vec<usize>,
    pub(crate) lanes: Vec<Lane>,
    pub(crate) epoch: u64,
    pub(crate) merges: u64,
    pub(crate) offered_total: u64,
    pub(crate) injector: FaultInjector,
    /// Delta-checkpoint chain position: `(chain id, deltas emitted)`.
    /// The chain id is the FNV-1a digest of the anchoring full
    /// snapshot's sealed bytes, so an uninterrupted engine and one
    /// restored from that same blob agree on it without coordination.
    /// `None` until the first [`OnlineCaesar::snapshot`] anchors a
    /// chain.
    pub(crate) chain: Option<(u64, u64)>,
}

impl OnlineCaesar {
    /// A fresh engine with the default policy ([`BackpressurePolicy::Block`]),
    /// ring capacity ([`crate::DEFAULT_RING_CAPACITY`]), epoch length
    /// ([`DEFAULT_EPOCH_LEN`]) and watchdog deadline
    /// ([`DEFAULT_WATCHDOG_DEADLINE`]).
    ///
    /// # Panics
    /// Panics if `shards == 0` or the configuration is invalid.
    pub fn new(cfg: CaesarConfig, shards: usize) -> Self {
        let (sram, kmap, entries) = ConcurrentCaesar::scaffold(&cfg, shards);
        let ring_capacity = crate::DEFAULT_RING_CAPACITY;
        let lanes = (0..shards)
            .map(|shard| Lane::new(&cfg, shard, entries[shard], ring_capacity))
            .collect();
        Self {
            cfg,
            shards,
            policy: BackpressurePolicy::Block,
            ring_capacity,
            epoch_len: DEFAULT_EPOCH_LEN,
            watchdog_deadline: DEFAULT_WATCHDOG_DEADLINE,
            sram,
            kmap,
            entries,
            lanes,
            epoch: 0,
            merges: 0,
            offered_total: 0,
            injector: FaultInjector::none(),
            chain: None,
        }
    }

    /// Set the backpressure policy (builder-style; call before
    /// offering packets).
    pub fn with_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the per-shard ring capacity (`>= 1`). Rebuilds the (empty)
    /// rings, so call before offering packets.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        assert_eq!(self.offered_total, 0, "set ring capacity before offering");
        self.ring_capacity = capacity;
        for (shard, lane) in self.lanes.iter_mut().enumerate() {
            *lane = Lane::new(&self.cfg, shard, self.entries[shard], capacity);
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

    /// Set the watchdog deadline in consecutive no-progress pump
    /// attempts (`>= 1`).
    ///
    /// The pump's hang verdict counts **ticks, not time**: a lane is
    /// declared hung after `deadline` pump attempts that moved
    /// nothing, a count independent of scheduler jitter or host load.
    /// That determinism is what keeps this runtime the bit-identity
    /// oracle for the detached-thread runtime
    /// ([`crate::ThreadedCaesar`]), whose supervision must instead use
    /// wall-clock heartbeats ([`crate::ThreadedCaesar::with_heartbeat_interval`])
    /// because a hung OS thread makes no observable "attempts" to
    /// count.
    ///
    /// # Panics
    /// Panics if `deadline == 0`.
    pub fn with_watchdog_deadline(mut self, deadline: u64) -> Self {
        assert!(deadline >= 1, "watchdog deadline must be at least 1");
        self.watchdog_deadline = deadline;
        self
    }

    /// Attach a deterministic fault-injection schedule (testing).
    /// [`FaultInjector::none`] — the default — adds zero overhead to
    /// the batch drain path.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Which shard a flow routes to.
    fn route(&self, flow: u64) -> usize {
        if self.shards == 1 {
            0
        } else {
            ConcurrentCaesar::shard_of(flow, self.shards, self.cfg.seed)
        }
    }

    /// Offer one packet of `flow` to the engine. Never blocks the
    /// caller indefinitely: a wedged lane is bounded by the watchdog.
    pub fn offer(&mut self, flow: u64) {
        let shard = self.route(flow);
        self.offered_total += 1;
        self.lanes[shard].ledger.offered += 1;
        loop {
            if self.lanes[shard].inline_fallback {
                // Failed-over lane: the supervisor serves it directly.
                self.ingest_inline(shard, flow);
                break;
            }
            if self.lanes[shard].tx.try_push(flow).is_ok() {
                self.lanes[shard].in_ring += 1;
                if self.lanes[shard].in_ring >= STREAM_CHUNK as u64 {
                    // A full chunk is ready: pump it through the worker
                    // so ring occupancy stays bounded by one chunk on a
                    // healthy lane.
                    self.pump(shard);
                }
                break;
            }
            // Ring full. A healthy consumer is always pumped first —
            // drops can only happen when it makes no progress.
            if self.pump(shard) > 0 || self.lanes[shard].inline_fallback {
                continue;
            }
            match self.policy {
                // Keep pumping: each retry is one watchdog tick, so a
                // hung consumer fails over after the deadline.
                BackpressurePolicy::Block => continue,
                BackpressurePolicy::DropNewest => {
                    self.lanes[shard].ledger.dropped += 1;
                    break;
                }
                BackpressurePolicy::DropOldest => {
                    if self.lanes[shard].rx.try_pop().is_some() {
                        self.lanes[shard].in_ring -= 1;
                        self.lanes[shard].ledger.dropped += 1;
                    }
                    continue; // admit the new packet into the freed slot
                }
            }
        }
        if self.offered_total.is_multiple_of(self.epoch_len) {
            self.rotate_epoch();
        }
    }

    /// Offer a batch of packets (`for` loop over [`OnlineCaesar::offer`]).
    pub fn offer_batch(&mut self, flows: &[u64]) {
        for &flow in flows {
            self.offer(flow);
        }
    }

    /// One supervised pump attempt on `shard`: returns the number of
    /// packets consumed from the ring (0 = no progress, which feeds
    /// the watchdog).
    fn pump(&mut self, shard: usize) -> u64 {
        // Every pump attempt is a RingStall tick: a scheduled stall
        // wedges the consumer at a deterministic pump ordinal.
        self.injector.tick(FaultSite::RingStall, shard);
        if self.injector.is_stalled(shard) {
            self.lanes[shard].stalled_attempts += 1;
            if self.lanes[shard].stalled_attempts >= self.watchdog_deadline {
                return self.failover(shard);
            }
            return 0;
        }
        self.lanes[shard].stalled_attempts = 0;
        self.drain_chunk(shard)
    }

    /// Pop one chunk off `shard`'s ring and run the supervised drain
    /// step. Returns packets popped.
    fn drain_chunk(&mut self, shard: usize) -> u64 {
        let lane = &mut self.lanes[shard];
        lane.buf.clear();
        let n = lane.rx.pop_batch(&mut lane.buf, STREAM_CHUNK);
        if n == 0 {
            return 0;
        }
        lane.in_ring -= n as u64;
        self.drain_step(shard);
        n as u64
    }

    /// Feed a single packet through the supervised drain step (the
    /// inline-fallback path).
    fn ingest_inline(&mut self, shard: usize, flow: u64) {
        let lane = &mut self.lanes[shard];
        lane.buf.clear();
        lane.buf.push(flow);
        self.drain_step(shard);
    }

    /// The supervised drain step: apply `lane.buf` to the worker under
    /// [`ShardWorker::apply_supervised`]. On a panic the applied prefix
    /// counts as recorded and the lane's ledger services the fault
    /// ([`LaneLedger::respawn_after_panic`]).
    fn drain_step(&mut self, shard: usize) {
        let Self { lanes, injector, sram, kmap, cfg, entries, epoch, .. } = self;
        let lane = &mut lanes[shard];
        // Per-packet fault ticks only under a live schedule: the inert
        // injector keeps the whole-chunk batch kernel.
        let tick = (!injector.is_inert())
            .then_some(|| injector.tick(FaultSite::WorkerPanic, shard));
        match lane.worker.apply_supervised(&lane.buf, sram, kmap, tick) {
            Ok(()) => lane.recorded += lane.buf.len() as u64,
            Err(panic) => {
                lane.recorded += panic.applied;
                let fresh = ShardWorker::staged(cfg, shard, entries[shard]);
                lane.ledger.respawn_after_panic(&mut lane.worker, fresh, sram, kmap, *epoch, panic);
            }
        }
    }

    /// Watchdog failover: the lane's consumer is declared hung. The
    /// supervisor takes ownership — drains the wedged ring inline and
    /// serves the lane on the calling thread until the next epoch
    /// boundary re-arms the ring path. Returns packets drained.
    fn failover(&mut self, shard: usize) -> u64 {
        // In the deterministic runtime the "hung consumer" is the
        // injector's sticky stall; failover clears it because the
        // supervisor, not the consumer loop, now drives the worker.
        self.injector.clear_stall(shard);
        let deadline = self.watchdog_deadline;
        let lane = &mut self.lanes[shard];
        lane.inline_fallback = true;
        lane.stalled_attempts = 0;
        lane.ledger.log.records.push(FaultRecord {
            kind: FaultKind::WatchdogFailover,
            epoch: self.epoch,
            at_offered: lane.ledger.offered,
            quarantined: 0,
            salvaged_units: 0,
            payload: format!("no consumer progress within {deadline} pump attempts"),
            exact: true,
        });
        let mut drained = 0;
        loop {
            let n = self.drain_chunk(shard);
            if n == 0 {
                break;
            }
            drained += n;
        }
        drained
    }

    /// Epoch boundary: drain every lane dry (failing over lanes still
    /// wedged), merge every shard-local writeback segment into the
    /// shared SRAM in ascending shard order, re-arm failed-over lanes,
    /// and advance the epoch. Queries between merges read the SRAM as
    /// of the last merge — a consistent snapshot — while ingest
    /// continues.
    fn rotate_epoch(&mut self) {
        for shard in 0..self.shards {
            loop {
                if self.lanes[shard].in_ring == 0 {
                    break;
                }
                if self.injector.is_stalled(shard) {
                    self.failover(shard);
                    continue;
                }
                self.drain_chunk(shard);
            }
            // Deterministic saturation-degradation seam: one tick per
            // shard per epoch boundary.
            if self.injector.tick(FaultSite::ForceSaturation, shard) {
                self.sram.force_saturation(shard, 1);
            }
        }
        let Self { lanes, sram, .. } = self;
        for lane in lanes.iter_mut() {
            lane.worker.flush_writeback(sram);
            lane.inline_fallback = false;
            lane.stalled_attempts = 0;
        }
        self.epoch += 1;
        self.merges += 1;
    }

    /// Force an epoch rotation now (drain + merge), without waiting
    /// for the packet-count boundary.
    pub fn merge_now(&mut self) {
        self.rotate_epoch();
    }

    /// Aggregate accounting across all lanes.
    pub fn stats(&self) -> OnlineStats {
        let mut st = OnlineStats::empty(self.offered_total, self.epoch, self.merges);
        for lane in &self.lanes {
            lane.ledger.fold_into(&mut st, lane.recorded, lane.in_ring);
        }
        st
    }

    /// Per-shard accounting snapshot.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn lane_stats(&self, shard: usize) -> LaneStats {
        let lane = &self.lanes[shard];
        lane.ledger.lane_stats(shard, lane.recorded, lane.in_ring, lane.inline_fallback)
    }

    /// The shard's fault history.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn fault_log(&self, shard: usize) -> &FaultLog {
        &self.lanes[shard].ledger.log
    }

    /// The attached fault injector (fired/pending schedule).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
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

    /// The shared SRAM (query-visible state as of the last merge or
    /// salvage).
    pub fn sram(&self) -> &AtomicCounterArray {
        &self.sram
    }

    /// Unit mass recorded but not yet query-visible: resident in shard
    /// caches or staged in writeback segments (rings hold *packets*
    /// that are not recorded yet — see [`OnlineStats::in_flight`]).
    pub fn unmerged_units(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.worker.resident_units() + l.worker.staged_units())
            .sum()
    }

    /// End of measurement: drain every ring, dump every cache, merge
    /// every segment — then hand back a finished [`ConcurrentCaesar`].
    /// On a fault-free run this is **bit-identical** to
    /// [`ConcurrentCaesar::build`] over the same stream (pinned by the
    /// fault-tolerance suite).
    pub fn finish(mut self) -> ConcurrentCaesar {
        for shard in 0..self.shards {
            loop {
                if self.lanes[shard].in_ring == 0 {
                    break;
                }
                if self.injector.is_stalled(shard) {
                    self.failover(shard);
                    continue;
                }
                self.drain_chunk(shard);
            }
        }
        let Self { cfg, shards, sram, kmap, lanes, .. } = self;
        let per_shard: Vec<IngestStats> = lanes
            .into_iter()
            .map(|lane| {
                let mut st = lane.ledger.retired;
                st.merge(&lane.worker.finish(&sram, &kmap));
                st
            })
            .collect();
        ConcurrentCaesar::assemble(cfg, shards, sram, kmap, per_shard)
    }

    // -----------------------------------------------------------------
    // Crash-consistent snapshot / restore
    // -----------------------------------------------------------------

    /// Serialize the complete dynamic state into a sealed,
    /// self-validating blob (see [`support::bytesx::seal`]).
    ///
    /// Takes `&mut self` because the in-ring packets are drained and
    /// re-queued (order-preserving) to serialize them; the engine's
    /// observable state is unchanged. The attached [`FaultInjector`]
    /// is test scaffolding and is **not** serialized — a restored
    /// engine gets an inert injector.
    ///
    /// A full snapshot **anchors a delta-checkpoint chain**: subsequent
    /// [`OnlineCaesar::checkpoint_delta`] frames name this blob (by
    /// digest) as their base and serialize only the SRAM blocks that
    /// changed since, so checkpoint cost drops from O(L) to O(changed).
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.snapshot_into(&mut buf);
        buf
    }

    /// [`OnlineCaesar::snapshot`] into a caller-owned buffer (cleared
    /// first), so a periodic checkpoint loop reuses one allocation
    /// instead of growing a fresh `Vec` every epoch.
    pub fn snapshot_into(&mut self, buf: &mut Vec<u8>) {
        buf.clear();
        encode_snapshot_prelude(buf, &self.header(), &self.sram);
        self.encode_lanes(buf);
        seal(buf);
        // This blob is now the chain anchor: future deltas diff against
        // it, so the dirty baseline resets here.
        self.chain = Some((hashkit::fnv::fnv1a64(buf), 0));
        let _ = self.sram.take_dirty_blocks();
    }

    /// The scalar engine header shared by full snapshots and delta
    /// frames (see [`EngineHeader`]).
    pub(crate) fn header(&self) -> EngineHeader<'_> {
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

    /// Per-lane dynamic state, shared verbatim by full snapshots and
    /// delta frames (the lane tail is O(cache + staged) — small and
    /// epoch-churned, so deltas carry it whole). Drains and re-queues
    /// each ring to serialize its contents; observably side-effect
    /// free.
    fn encode_lanes(&mut self, buf: &mut Vec<u8>) {
        for shard in 0..self.shards {
            // Drain the ring to serialize its contents, then re-queue
            // them in order (the ring is empty in between, so pushes
            // cannot fail).
            let mut pending: Vec<u64> = Vec::with_capacity(self.lanes[shard].in_ring as usize);
            while let Some(f) = self.lanes[shard].rx.try_pop() {
                pending.push(f);
            }
            debug_assert_eq!(pending.len() as u64, self.lanes[shard].in_ring);
            let lane = &mut self.lanes[shard];
            encode_lane_section(
                buf,
                &LaneEncodeParts {
                    ledger: &lane.ledger,
                    recorded: lane.recorded,
                    inline_fallback: lane.inline_fallback,
                    stalled_attempts: lane.stalled_attempts,
                    pending: &pending,
                    state: &lane.worker.snapshot_state(),
                },
            );
            for f in pending {
                let pushed = lane.tx.try_push(f).is_ok();
                debug_assert!(pushed, "re-queue into an emptied ring cannot fail");
            }
        }
    }

    /// Emit a sealed `CDLT` delta-checkpoint frame: everything that
    /// changed since the chain's previous checkpoint. The SRAM section
    /// is **sparse** — only the [`crate::DIRTY_BLOCK_COUNTERS`]-counter
    /// blocks the dirty bitmap reports — so at large `L` with low
    /// per-epoch churn the frame is a small fraction of a full
    /// [`OnlineCaesar::snapshot`]. The lane tail (caches, RNG streams,
    /// staged writeback, rings, loss counters, fault logs) is carried
    /// whole: it is O(cache), independent of `L`, and churns fully
    /// every epoch anyway.
    ///
    /// Chain discipline: a full snapshot anchors the chain (its digest
    /// is the chain id); each delta carries the chain id and a 1-based
    /// sequence number. [`OnlineCaesar::restore_chain`] replays
    /// `base + deltas` to a state **byte-identical** to the
    /// uninterrupted engine at the moment this frame was emitted.
    ///
    /// # Errors
    /// [`DeltaError::NoBase`] when no [`OnlineCaesar::snapshot`] has
    /// anchored a chain yet.
    pub fn checkpoint_delta(&mut self) -> Result<Vec<u8>, DeltaError> {
        let mut buf = Vec::new();
        self.checkpoint_delta_into(&mut buf)?;
        Ok(buf)
    }

    /// [`OnlineCaesar::checkpoint_delta`] into a caller-owned buffer
    /// (cleared first) — the zero-realloc form for a periodic
    /// checkpoint loop.
    pub fn checkpoint_delta_into(&mut self, buf: &mut Vec<u8>) -> Result<(), DeltaError> {
        let (chain_id, seq) = self.chain.ok_or(DeltaError::NoBase)?;
        buf.clear();
        encode_delta_prelude(buf, &self.header(), &self.sram, chain_id, seq + 1);
        self.encode_lanes(buf);
        seal(buf);
        self.chain = Some((chain_id, seq + 1));
        Ok(())
    }

    /// Apply one `CDLT` delta frame emitted by
    /// [`OnlineCaesar::checkpoint_delta`] on the uninterrupted engine.
    /// The frame is fully decoded and validated **before** any state is
    /// touched, so a rejected delta leaves the engine unchanged.
    ///
    /// # Errors
    /// Typed rejection for every failure mode: sealed-envelope damage
    /// ([`DeltaError::Seal`]), frames that are not deltas
    /// ([`DeltaError::BadMagic`]), foreign sketches
    /// ([`DeltaError::Incompatible`]), deltas from another chain
    /// ([`DeltaError::ForeignChain`]), gaps / replays / out-of-order
    /// application ([`DeltaError::Sequence`]), and internal
    /// inconsistencies ([`DeltaError::Corrupt`]).
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), DeltaError> {
        let (chain_id, seq) = self.chain.ok_or(DeltaError::NoBase)?;
        let payload = unseal(bytes)?;
        let mut r = ByteReader::new(payload);
        let magic = r.get_array::<4>().ok_or(DeltaError::Truncated)?;
        if &magic != DELTA_MAGIC {
            return Err(DeltaError::BadMagic);
        }
        let version = r.get_u16_le().ok_or(DeltaError::Truncated)?;
        if version != DELTA_VERSION {
            return Err(DeltaError::UnsupportedVersion(version));
        }
        let fingerprint = SketchFingerprint::decode_from(&mut r).ok_or(DeltaError::Truncated)?;
        SketchFingerprint::of(&self.cfg)
            .expect_matches(&fingerprint)
            .map_err(DeltaError::Incompatible)?;
        let found_chain = r.get_u64_le().ok_or(DeltaError::Truncated)?;
        if found_chain != chain_id {
            return Err(DeltaError::ForeignChain { expected: chain_id, found: found_chain });
        }
        let found_seq = r.get_u64_le().ok_or(DeltaError::Truncated)?;
        if found_seq != seq + 1 {
            return Err(DeltaError::Sequence { expected: seq + 1, found: found_seq });
        }
        let epoch = r.get_u64_le().ok_or(DeltaError::Truncated)?;
        let merges = r.get_u64_le().ok_or(DeltaError::Truncated)?;
        let offered_total = r.get_u64_le().ok_or(DeltaError::Truncated)?;
        let shards = r.get_u64_le().ok_or(DeltaError::Truncated)? as usize;
        if shards != self.shards {
            return Err(DeltaError::Corrupt("shard count disagrees with engine"));
        }
        let bits = r.get_u32_le().ok_or(DeltaError::Truncated)?;
        if bits != self.cfg.counter_bits {
            return Err(DeltaError::Corrupt("SRAM width disagrees with config"));
        }
        let counters = r.get_u64_le().ok_or(DeltaError::Truncated)? as usize;
        if counters != self.cfg.counters {
            return Err(DeltaError::Corrupt("SRAM length disagrees with config"));
        }
        let n_blocks_total = counters.div_ceil(crate::sram::DIRTY_BLOCK_COUNTERS);
        let max = self.sram.max_value();
        let n_blocks = r.get_u64_le().ok_or(DeltaError::Truncated)? as usize;
        if n_blocks > n_blocks_total {
            return Err(DeltaError::Corrupt("more dirty blocks than blocks"));
        }
        let mut blocks: Vec<(usize, Vec<u64>)> = Vec::with_capacity(n_blocks);
        let mut prev_block = None;
        for _ in 0..n_blocks {
            let b = r.get_u64_le().ok_or(DeltaError::Truncated)? as usize;
            if b >= n_blocks_total {
                return Err(DeltaError::Corrupt("dirty block index out of range"));
            }
            if prev_block.is_some_and(|p| b <= p) {
                return Err(DeltaError::Corrupt("dirty blocks not strictly ascending"));
            }
            prev_block = Some(b);
            let start = b * crate::sram::DIRTY_BLOCK_COUNTERS;
            let end = (start + crate::sram::DIRTY_BLOCK_COUNTERS).min(counters);
            let mut values = Vec::with_capacity(end - start);
            for _ in start..end {
                let v = r.get_u64_le().ok_or(DeltaError::Truncated)?;
                if v > max {
                    return Err(DeltaError::Corrupt("counter exceeds width"));
                }
                values.push(v);
            }
            blocks.push((start, values));
        }
        let n_tallies = r.get_u64_le().ok_or(DeltaError::Truncated)? as usize;
        if n_tallies != self.shards {
            return Err(DeltaError::Corrupt("tally stripe count disagrees with shards"));
        }
        let mut tallies = Vec::with_capacity(n_tallies);
        for _ in 0..n_tallies {
            let added = r.get_u64_le().ok_or(DeltaError::Truncated)?;
            let sat = r.get_u64_le().ok_or(DeltaError::Truncated)?;
            tallies.push((added, sat));
        }
        let mut lanes = Vec::with_capacity(self.shards);
        #[allow(clippy::needless_range_loop)] // shard indexes `entries` AND names the lane
        for shard in 0..self.shards {
            lanes.push(
                decode_lane(&mut r, &self.cfg, shard, self.entries[shard], self.ring_capacity)
                    .map_err(DeltaError::from)?,
            );
        }
        if r.remaining() != 0 {
            return Err(DeltaError::Corrupt("trailing bytes"));
        }
        // Everything validated — apply.
        self.epoch = epoch;
        self.merges = merges;
        self.offered_total = offered_total;
        for (start, values) in &blocks {
            self.sram.store_counters(*start, values);
        }
        self.sram.restore_tallies(&tallies);
        self.lanes = lanes;
        self.chain = Some((chain_id, found_seq));
        // Replayed state is the new baseline, exactly as it was on the
        // emitting engine the instant after its drain.
        let _ = self.sram.take_dirty_blocks();
        Ok(())
    }

    /// Rebuild an engine from a full-snapshot anchor plus its ordered
    /// delta frames. The result is **byte-identical** (its next
    /// [`OnlineCaesar::snapshot`] emits the same bytes) to the
    /// uninterrupted engine at the moment the last delta was emitted —
    /// and it can keep extending the same chain, since
    /// [`OnlineCaesar::restore`] re-derives the chain id from the base
    /// blob.
    ///
    /// # Errors
    /// [`ChainError::Base`] if the anchor fails to restore;
    /// [`ChainError::Delta`] (naming the offending index) if a delta is
    /// damaged, foreign, or out of sequence.
    pub fn restore_chain<B: AsRef<[u8]>>(base: &[u8], deltas: &[B]) -> Result<Self, ChainError> {
        let mut engine = Self::restore(base).map_err(ChainError::Base)?;
        for (index, delta) in deltas.iter().enumerate() {
            engine
                .apply_delta(delta.as_ref())
                .map_err(|source| ChainError::Delta { index, source })?;
        }
        Ok(engine)
    }

    /// The engine's delta-chain position: `(chain id, deltas emitted
    /// since the anchoring snapshot)`, or `None` before any snapshot.
    pub fn chain_position(&self) -> Option<(u64, u64)> {
        self.chain
    }

    /// Rebuild an engine from a [`OnlineCaesar::snapshot`] blob. The
    /// restored engine **resumes byte-identical** to the uninterrupted
    /// run: every RNG stream, cache slot, memo row, staged writeback
    /// segment, ring packet and counter continues exactly.
    ///
    /// # Errors
    /// Rejects truncated, bit-flipped, version-mismatched or
    /// internally inconsistent blobs.
    pub fn restore(bytes: &[u8]) -> Result<Self, RestoreError> {
        let payload = unseal(bytes)?;
        let mut r = ByteReader::new(payload);
        let version = r.get_u16_le().ok_or(RestoreError::Truncated)?;
        if version != SNAP_VERSION {
            return Err(RestoreError::UnsupportedVersion(version));
        }
        let fingerprint = SketchFingerprint::decode_from(&mut r).ok_or(RestoreError::Truncated)?;
        let cfg = decode_config(&mut r)?;
        if fingerprint != SketchFingerprint::of(&cfg) {
            return Err(RestoreError::Corrupt("fingerprint disagrees with config"));
        }
        let shards = get_usize(&mut r)?;
        if shards == 0 {
            return Err(RestoreError::Corrupt("zero shards"));
        }
        let policy = BackpressurePolicy::from_u8(get_u8(&mut r)?)
            .ok_or(RestoreError::Corrupt("backpressure policy"))?;
        let ring_capacity = get_usize(&mut r)?;
        if ring_capacity == 0 {
            return Err(RestoreError::Corrupt("zero ring capacity"));
        }
        let epoch_len = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        if epoch_len == 0 {
            return Err(RestoreError::Corrupt("zero epoch length"));
        }
        let watchdog_deadline = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        if watchdog_deadline == 0 {
            return Err(RestoreError::Corrupt("zero watchdog deadline"));
        }
        let epoch = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let merges = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let offered_total = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        // SRAM.
        let bits = r.get_u32_le().ok_or(RestoreError::Truncated)?;
        if bits != cfg.counter_bits {
            return Err(RestoreError::Corrupt("SRAM width disagrees with config"));
        }
        let n_words = get_usize(&mut r)?;
        if n_words != cfg.counters {
            return Err(RestoreError::Corrupt("SRAM length disagrees with config"));
        }
        if n_words > r.remaining() / 8 {
            return Err(RestoreError::Truncated);
        }
        let max = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            let w = r.get_u64_le().ok_or(RestoreError::Truncated)?;
            if w > max {
                return Err(RestoreError::Corrupt("counter exceeds width"));
            }
            words.push(w);
        }
        let n_tallies = get_usize(&mut r)?;
        if n_tallies != shards {
            return Err(RestoreError::Corrupt("tally stripe count disagrees with shards"));
        }
        if n_tallies > r.remaining() / 16 {
            return Err(RestoreError::Truncated);
        }
        let mut tallies = Vec::with_capacity(n_tallies);
        for _ in 0..n_tallies {
            let added = r.get_u64_le().ok_or(RestoreError::Truncated)?;
            let sat = r.get_u64_le().ok_or(RestoreError::Truncated)?;
            tallies.push((added, sat));
        }
        let sram = AtomicCounterArray::restore(bits, &words, &tallies);
        let kmap = KCounterMap::new(cfg.k, cfg.counters, cfg.seed ^ 0x5EED_5EED);
        let entries = crate::concurrent::per_shard_entries(cfg.cache_entries, shards);
        let mut lanes = Vec::with_capacity(shards);
        #[allow(clippy::needless_range_loop)] // shard indexes `entries` AND names the lane
        for shard in 0..shards {
            lanes.push(decode_lane(&mut r, &cfg, shard, entries[shard], ring_capacity)?);
        }
        if r.remaining() != 0 {
            return Err(RestoreError::Corrupt("trailing bytes"));
        }
        Ok(Self {
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
            injector: FaultInjector::none(),
            // Re-deriving the chain id from the blob's own bytes means a
            // restored engine continues the chain the blob anchored:
            // both sides hashed the same bytes.
            chain: Some((hashkit::fnv::fnv1a64(bytes), 0)),
        })
    }

    /// Read just the [`SketchFingerprint`] embedded in a snapshot blob
    /// — the cheap compatibility probe an aggregator runs before
    /// committing to a full [`OnlineCaesar::restore`] of a peer node's
    /// state. Validates the seal, so a truncated or bit-flipped blob
    /// is rejected here too.
    pub fn snapshot_fingerprint(bytes: &[u8]) -> Result<SketchFingerprint, RestoreError> {
        let payload = unseal(bytes)?;
        let mut r = ByteReader::new(payload);
        let version = r.get_u16_le().ok_or(RestoreError::Truncated)?;
        if version != SNAP_VERSION {
            return Err(RestoreError::UnsupportedVersion(version));
        }
        SketchFingerprint::decode_from(&mut r).ok_or(RestoreError::Truncated)
    }

    /// [`OnlineCaesar::restore`] gated on merge compatibility: the
    /// blob's embedded fingerprint must match `expected` (typically
    /// the local sketch's [`ConcurrentCaesar::fingerprint`]), so a
    /// node cannot accidentally restore-and-merge a peer snapshot
    /// built with different geometry, seed or estimator — the mismatch
    /// comes back as a typed [`MergeError`] naming the field.
    pub fn restore_expecting(
        bytes: &[u8],
        expected: &SketchFingerprint,
    ) -> Result<Self, RestoreError> {
        let found = Self::snapshot_fingerprint(bytes)?;
        expected
            .expect_matches(&found)
            .map_err(RestoreError::Incompatible)?;
        Self::restore(bytes)
    }
}

/// Queries read the visible (merged) state; ingest continues
/// unaffected. A flow's health carries its shard's exact loss ratio.
impl SketchRead for OnlineCaesar {
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

/// Snapshot payload layout version (bump on layout changes; the sealed
/// footer's own version is managed by [`support::bytesx`]).
const SNAP_VERSION: u16 = 2;

/// Why [`OnlineCaesar::restore`] rejected a blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The sealed envelope failed validation (truncation, bad magic,
    /// checksum mismatch).
    Seal(SealError),
    /// The payload ran out mid-field.
    Truncated,
    /// The payload's layout version is not supported.
    UnsupportedVersion(u16),
    /// A field decoded but violates an internal invariant.
    Corrupt(&'static str),
    /// The blob is valid but belongs to an incompatible sketch: its
    /// fingerprint differs from the expected one (see
    /// [`OnlineCaesar::restore_expecting`]).
    Incompatible(MergeError),
}

impl From<SealError> for RestoreError {
    fn from(e: SealError) -> Self {
        RestoreError::Seal(e)
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Seal(e) => write!(f, "snapshot envelope invalid: {e}"),
            RestoreError::Truncated => write!(f, "snapshot payload truncated"),
            RestoreError::UnsupportedVersion(v) => {
                write!(f, "snapshot layout version {v} not supported")
            }
            RestoreError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            RestoreError::Incompatible(e) => {
                write!(f, "snapshot belongs to an incompatible sketch: {e}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Delta-frame payload magic: distinguishes a `CDLT` delta from a full
/// snapshot at the first four bytes, so feeding one to the other's
/// decoder fails typed, not garbled.
const DELTA_MAGIC: &[u8; 4] = b"CDLT";

/// Delta-frame payload layout version (bump on layout changes).
const DELTA_VERSION: u16 = 1;

/// Why [`OnlineCaesar::apply_delta`] (or
/// [`OnlineCaesar::checkpoint_delta`]) rejected a frame or refused to
/// emit one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The sealed envelope failed validation (truncation, bad magic,
    /// checksum mismatch).
    Seal(SealError),
    /// The payload ran out mid-field.
    Truncated,
    /// The payload is not a delta frame (e.g. a full snapshot blob was
    /// offered to [`OnlineCaesar::apply_delta`]).
    BadMagic,
    /// The delta's layout version is not supported.
    UnsupportedVersion(u16),
    /// A field decoded but violates an internal invariant.
    Corrupt(&'static str),
    /// The delta belongs to an incompatible sketch (geometry, seed or
    /// estimator differ); the inner error names the diverging field.
    Incompatible(MergeError),
    /// The delta extends a different chain (anchored by a different
    /// full snapshot) than the engine is on.
    ForeignChain {
        /// The engine's chain id.
        expected: u64,
        /// The frame's chain id.
        found: u64,
    },
    /// The delta is not the next link: a gap, a replay, or out-of-order
    /// application.
    Sequence {
        /// The sequence number the engine requires next.
        expected: u64,
        /// The frame's sequence number.
        found: u64,
    },
    /// No full snapshot has anchored a chain on this engine yet.
    NoBase,
}

impl From<SealError> for DeltaError {
    fn from(e: SealError) -> Self {
        DeltaError::Seal(e)
    }
}

impl From<RestoreError> for DeltaError {
    fn from(e: RestoreError) -> Self {
        match e {
            RestoreError::Seal(s) => DeltaError::Seal(s),
            RestoreError::Truncated => DeltaError::Truncated,
            RestoreError::UnsupportedVersion(v) => DeltaError::UnsupportedVersion(v),
            RestoreError::Corrupt(what) => DeltaError::Corrupt(what),
            RestoreError::Incompatible(m) => DeltaError::Incompatible(m),
        }
    }
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Seal(e) => write!(f, "delta envelope invalid: {e}"),
            DeltaError::Truncated => write!(f, "delta payload truncated"),
            DeltaError::BadMagic => write!(f, "payload is not a CDLT delta frame"),
            DeltaError::UnsupportedVersion(v) => {
                write!(f, "delta layout version {v} not supported")
            }
            DeltaError::Corrupt(what) => write!(f, "delta corrupt: {what}"),
            DeltaError::Incompatible(e) => {
                write!(f, "delta belongs to an incompatible sketch: {e}")
            }
            DeltaError::ForeignChain { expected, found } => write!(
                f,
                "delta extends chain {found:#018x}, engine is on {expected:#018x}"
            ),
            DeltaError::Sequence { expected, found } => {
                write!(f, "delta out of sequence: expected #{expected}, found #{found}")
            }
            DeltaError::NoBase => {
                write!(f, "no full snapshot has anchored a delta chain yet")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Why [`OnlineCaesar::restore_chain`] failed, locating the offending
/// link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The anchoring full snapshot failed to restore.
    Base(RestoreError),
    /// A delta frame was rejected; `index` is its position in the
    /// `deltas` slice.
    Delta {
        /// Zero-based position of the rejected frame.
        index: usize,
        /// Why it was rejected.
        source: DeltaError,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Base(e) => write!(f, "chain base snapshot rejected: {e}"),
            ChainError::Delta { index, source } => {
                write!(f, "chain delta #{index} rejected: {source}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

// ---------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------

/// The scalar engine state every checkpoint frame carries — shared
/// between [`OnlineCaesar`] and the detached-thread runtime
/// ([`crate::threaded`]) so both emit **byte-identical** layouts from
/// one encoder instead of two hand-kept copies.
pub(crate) struct EngineHeader<'a> {
    pub(crate) cfg: &'a CaesarConfig,
    pub(crate) shards: usize,
    pub(crate) policy: BackpressurePolicy,
    pub(crate) ring_capacity: usize,
    pub(crate) epoch_len: u64,
    pub(crate) watchdog_deadline: u64,
    pub(crate) epoch: u64,
    pub(crate) merges: u64,
    pub(crate) offered_total: u64,
}

/// Full-snapshot prelude: layout version, fingerprint, config, engine
/// scalars, then the complete SRAM (words + tally stripes). The lane
/// sections and the seal footer follow.
pub(crate) fn encode_snapshot_prelude(
    buf: &mut Vec<u8>,
    h: &EngineHeader<'_>,
    sram: &AtomicCounterArray,
) {
    buf.put_u16_le(SNAP_VERSION);
    // The sketch identity leads the blob so a peer can check merge
    // compatibility (see [`SketchFingerprint`]) without decoding —
    // or trusting — the rest of the state.
    SketchFingerprint::of(h.cfg).encode_into(buf);
    encode_config(buf, h.cfg);
    buf.put_u64_le(h.shards as u64);
    buf.put_slice(&[h.policy.to_u8()]);
    buf.put_u64_le(h.ring_capacity as u64);
    buf.put_u64_le(h.epoch_len);
    buf.put_u64_le(h.watchdog_deadline);
    buf.put_u64_le(h.epoch);
    buf.put_u64_le(h.merges);
    buf.put_u64_le(h.offered_total);
    // SRAM: counter words + per-stripe tallies.
    buf.put_u32_le(sram.bits());
    let words = sram.snapshot();
    buf.put_u64_le(words.len() as u64);
    for w in &words {
        buf.put_u64_le(*w);
    }
    let tallies = sram.tally_snapshot();
    buf.put_u64_le(tallies.len() as u64);
    for &(added, sat) in &tallies {
        buf.put_u64_le(added);
        buf.put_u64_le(sat);
    }
}

/// Delta-frame prelude: magic, chain discipline fields, engine
/// scalars, then the **sparse** SRAM section — absolute counter values
/// of every dirty block (replay is a plain store — no
/// read-modify-write, no saturation bookkeeping to re-derive) plus the
/// full tally stripes (O(shards), tiny). Consumes the dirty baseline
/// via [`AtomicCounterArray::take_dirty_blocks`].
pub(crate) fn encode_delta_prelude(
    buf: &mut Vec<u8>,
    h: &EngineHeader<'_>,
    sram: &AtomicCounterArray,
    chain_id: u64,
    next_seq: u64,
) {
    buf.put_slice(DELTA_MAGIC);
    buf.put_u16_le(DELTA_VERSION);
    SketchFingerprint::of(h.cfg).encode_into(buf);
    buf.put_u64_le(chain_id);
    buf.put_u64_le(next_seq);
    buf.put_u64_le(h.epoch);
    buf.put_u64_le(h.merges);
    buf.put_u64_le(h.offered_total);
    buf.put_u64_le(h.shards as u64);
    buf.put_u32_le(sram.bits());
    buf.put_u64_le(sram.len() as u64);
    let blocks = sram.take_dirty_blocks();
    buf.put_u64_le(blocks.len() as u64);
    for &b in &blocks {
        buf.put_u64_le(b as u64);
        let start = b * crate::sram::DIRTY_BLOCK_COUNTERS;
        let end = (start + crate::sram::DIRTY_BLOCK_COUNTERS).min(sram.len());
        for idx in start..end {
            buf.put_u64_le(sram.get(idx));
        }
    }
    let tallies = sram.tally_snapshot();
    buf.put_u64_le(tallies.len() as u64);
    for &(added, sat) in &tallies {
        buf.put_u64_le(added);
        buf.put_u64_le(sat);
    }
}

/// Everything one per-lane section serializes, borrowed from whichever
/// runtime owns the lane (the pump's [`Lane`] or a thread lane's
/// locked worker cell).
pub(crate) struct LaneEncodeParts<'a> {
    pub(crate) ledger: &'a LaneLedger,
    pub(crate) recorded: u64,
    pub(crate) inline_fallback: bool,
    pub(crate) stalled_attempts: u64,
    pub(crate) pending: &'a [u64],
    pub(crate) state: &'a ShardWorkerState,
}

/// One lane's dynamic state, shared verbatim by full snapshots and
/// delta frames (the lane tail is O(cache + staged) — small and
/// epoch-churned, so deltas carry it whole).
pub(crate) fn encode_lane_section(buf: &mut Vec<u8>, parts: &LaneEncodeParts<'_>) {
    let ledger = parts.ledger;
    buf.put_u64_le(ledger.offered);
    buf.put_u64_le(parts.recorded);
    buf.put_u64_le(ledger.dropped);
    buf.put_u64_le(ledger.quarantined);
    buf.put_u64_le(ledger.respawns);
    buf.put_slice(&[u8::from(parts.inline_fallback)]);
    buf.put_u64_le(parts.stalled_attempts);
    buf.put_u64_le(parts.pending.len() as u64);
    for &f in parts.pending {
        buf.put_u64_le(f);
    }
    encode_ingest_stats(buf, &ledger.retired);
    encode_worker_state(buf, parts.state);
    encode_fault_log(buf, &ledger.log);
}

/// Decode one lane's dynamic state — the exact inverse of the per-lane
/// section [`OnlineCaesar`]'s `encode_lanes` writes, shared by
/// [`OnlineCaesar::restore`] and [`OnlineCaesar::apply_delta`].
fn decode_lane(
    r: &mut ByteReader<'_>,
    cfg: &CaesarConfig,
    shard: usize,
    entries: usize,
    ring_capacity: usize,
) -> Result<Lane, RestoreError> {
    let offered = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let recorded = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let dropped = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let quarantined = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let respawns = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let inline_fallback = match get_u8(r)? {
        0 => false,
        1 => true,
        _ => return Err(RestoreError::Corrupt("inline flag")),
    };
    let stalled_attempts = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let n_pending = get_usize(r)?;
    if n_pending > ring_capacity {
        return Err(RestoreError::Corrupt("ring contents exceed capacity"));
    }
    if n_pending > r.remaining() / 8 {
        return Err(RestoreError::Truncated);
    }
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending.push(r.get_u64_le().ok_or(RestoreError::Truncated)?);
    }
    let retired = decode_ingest_stats(r)?;
    let state = decode_worker_state(r)?;
    if state.memo.len() != entries * cfg.k {
        return Err(RestoreError::Corrupt("memo geometry"));
    }
    if state.cache.slots.len() > entries {
        return Err(RestoreError::Corrupt("cache slot count"));
    }
    let log = decode_fault_log(r)?;
    let worker = ShardWorker::restore_state(cfg, shard, entries, state);
    let (mut tx, rx) = spsc::ring::<u64>(ring_capacity);
    let in_ring = pending.len() as u64;
    for f in pending {
        let pushed = tx.try_push(f).is_ok();
        debug_assert!(pushed, "capacity checked above");
    }
    Ok(Lane {
        tx,
        rx,
        worker,
        buf: Vec::with_capacity(STREAM_CHUNK),
        recorded,
        in_ring,
        inline_fallback,
        stalled_attempts,
        ledger: LaneLedger { offered, dropped, quarantined, respawns, retired, log },
    })
}

fn get_u8(r: &mut ByteReader<'_>) -> Result<u8, RestoreError> {
    r.get_array::<1>().map(|[b]| b).ok_or(RestoreError::Truncated)
}

fn get_usize(r: &mut ByteReader<'_>) -> Result<usize, RestoreError> {
    let v = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    usize::try_from(v).map_err(|_| RestoreError::Corrupt("length exceeds usize"))
}

/// An element count the remaining input can hold at `width` bytes per
/// element (see [`ByteReader::get_count`]).
fn get_count(r: &mut ByteReader<'_>, width: usize) -> Result<usize, RestoreError> {
    r.get_count(width).ok_or(RestoreError::Truncated)
}

fn policy_to_u8(p: CachePolicy) -> u8 {
    match p {
        CachePolicy::Lru => 0,
        CachePolicy::Random => 1,
        CachePolicy::Fifo => 2,
    }
}

fn policy_from_u8(v: u8) -> Option<CachePolicy> {
    match v {
        0 => Some(CachePolicy::Lru),
        1 => Some(CachePolicy::Random),
        2 => Some(CachePolicy::Fifo),
        _ => None,
    }
}

fn encode_config(buf: &mut Vec<u8>, cfg: &CaesarConfig) {
    buf.put_u64_le(cfg.cache_entries as u64);
    buf.put_u64_le(cfg.entry_capacity);
    buf.put_slice(&[policy_to_u8(cfg.policy)]);
    buf.put_u64_le(cfg.counters as u64);
    buf.put_u64_le(cfg.k as u64);
    buf.put_u32_le(cfg.counter_bits);
    buf.put_slice(&[match cfg.estimator {
        Estimator::Csm => 0,
        Estimator::Mlm => 1,
    }]);
    buf.put_u64_le(cfg.seed);
}

fn decode_config(r: &mut ByteReader<'_>) -> Result<CaesarConfig, RestoreError> {
    let cache_entries = get_usize(r)?;
    let entry_capacity = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let policy = policy_from_u8(get_u8(r)?).ok_or(RestoreError::Corrupt("cache policy"))?;
    let counters = get_usize(r)?;
    let k = get_usize(r)?;
    let counter_bits = r.get_u32_le().ok_or(RestoreError::Truncated)?;
    let estimator = match get_u8(r)? {
        0 => Estimator::Csm,
        1 => Estimator::Mlm,
        _ => return Err(RestoreError::Corrupt("estimator")),
    };
    let seed = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let cfg = CaesarConfig {
        cache_entries,
        entry_capacity,
        policy,
        counters,
        k,
        counter_bits,
        estimator,
        seed,
    };
    // Manual validation (CaesarConfig::validate panics; restore must
    // surface bad data as an error).
    if cache_entries == 0
        || entry_capacity < 2
        || counters == 0
        || k == 0
        || k > K_MAX
        || k > counters
        || !(1..=63).contains(&counter_bits)
    {
        return Err(RestoreError::Corrupt("config out of range"));
    }
    Ok(cfg)
}

fn encode_ingest_stats(buf: &mut Vec<u8>, st: &IngestStats) {
    buf.put_u64_le(st.evictions);
    buf.put_u64_le(st.staged_updates);
    buf.put_u64_le(st.flushed_updates);
    buf.put_u64_le(st.flushes);
}

fn decode_ingest_stats(r: &mut ByteReader<'_>) -> Result<IngestStats, RestoreError> {
    Ok(IngestStats {
        evictions: r.get_u64_le().ok_or(RestoreError::Truncated)?,
        staged_updates: r.get_u64_le().ok_or(RestoreError::Truncated)?,
        flushed_updates: r.get_u64_le().ok_or(RestoreError::Truncated)?,
        flushes: r.get_u64_le().ok_or(RestoreError::Truncated)?,
    })
}

fn encode_worker_state(buf: &mut Vec<u8>, st: &ShardWorkerState) {
    // Cache.
    buf.put_u64_le(st.cache.slots.len() as u64);
    for &(flow, count, prev, next) in &st.cache.slots {
        buf.put_u64_le(flow);
        buf.put_u64_le(count);
        buf.put_u32_le(prev);
        buf.put_u32_le(next);
    }
    buf.put_u32_le(st.cache.head);
    buf.put_u32_le(st.cache.tail);
    for &s in &st.cache.rng {
        buf.put_u64_le(s);
    }
    buf.put_u64_le(st.cache.stats.hits);
    buf.put_u64_le(st.cache.stats.misses);
    buf.put_u64_le(st.cache.stats.overflow_evictions);
    buf.put_u64_le(st.cache.stats.replacement_evictions);
    buf.put_u64_le(st.cache.stats.final_dump_entries);
    // Scatter RNG.
    for &s in &st.rng {
        buf.put_u64_le(s);
    }
    // Memo rows.
    buf.put_u64_le(st.memo.len() as u64);
    for &m in &st.memo {
        buf.put_u64_le(m as u64);
    }
    // Writeback segment.
    buf.put_u64_le(st.wb.pending.len() as u64);
    for &(idx, v) in &st.wb.pending {
        buf.put_u64_le(idx as u64);
        buf.put_u64_le(v);
    }
    buf.put_u64_le(st.wb.capacity as u64);
    buf.put_u64_le(st.wb.stripe as u64);
    buf.put_u64_le(st.wb.flushes);
    buf.put_u64_le(st.wb.staged_updates);
    buf.put_u64_le(st.wb.flushed_updates);
    buf.put_u64_le(st.evictions);
}

fn get_rng_state(r: &mut ByteReader<'_>) -> Result<[u64; 4], RestoreError> {
    let mut s = [0u64; 4];
    for slot in &mut s {
        *slot = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    }
    Ok(s)
}

fn decode_worker_state(r: &mut ByteReader<'_>) -> Result<ShardWorkerState, RestoreError> {
    let n_slots = get_count(r, 24)?;
    let mut slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        let flow = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let count = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let prev = r.get_u32_le().ok_or(RestoreError::Truncated)?;
        let next = r.get_u32_le().ok_or(RestoreError::Truncated)?;
        slots.push((flow, count, prev, next));
    }
    let head = r.get_u32_le().ok_or(RestoreError::Truncated)?;
    let tail = r.get_u32_le().ok_or(RestoreError::Truncated)?;
    let cache_rng = get_rng_state(r)?;
    let stats = CacheStats {
        hits: r.get_u64_le().ok_or(RestoreError::Truncated)?,
        misses: r.get_u64_le().ok_or(RestoreError::Truncated)?,
        overflow_evictions: r.get_u64_le().ok_or(RestoreError::Truncated)?,
        replacement_evictions: r.get_u64_le().ok_or(RestoreError::Truncated)?,
        final_dump_entries: r.get_u64_le().ok_or(RestoreError::Truncated)?,
    };
    let rng = get_rng_state(r)?;
    let n_memo = get_count(r, 8)?;
    let mut memo = Vec::with_capacity(n_memo);
    for _ in 0..n_memo {
        memo.push(get_usize(r)?);
    }
    let n_pending = get_count(r, 16)?;
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        let idx = get_usize(r)?;
        let v = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        pending.push((idx, v));
    }
    let capacity = get_usize(r)?;
    let stripe = get_usize(r)?;
    let flushes = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let staged_updates = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let flushed_updates = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    let evictions = r.get_u64_le().ok_or(RestoreError::Truncated)?;
    Ok(ShardWorkerState {
        cache: CacheTableState { slots, head, tail, rng: cache_rng, stats },
        rng,
        memo,
        wb: crate::atomic_sram::WritebackState {
            pending,
            capacity,
            stripe,
            flushes,
            staged_updates,
            flushed_updates,
        },
        evictions,
    })
}

fn encode_fault_log(buf: &mut Vec<u8>, log: &FaultLog) {
    buf.put_u64_le(log.records.len() as u64);
    for rec in &log.records {
        buf.put_slice(&[match rec.kind {
            FaultKind::WorkerPanic => 0,
            FaultKind::WatchdogFailover => 1,
        }]);
        buf.put_u64_le(rec.epoch);
        buf.put_u64_le(rec.at_offered);
        buf.put_u64_le(rec.quarantined);
        buf.put_u64_le(rec.salvaged_units);
        buf.put_slice(&[u8::from(rec.exact)]);
        buf.put_u64_le(rec.payload.len() as u64);
        buf.put_slice(rec.payload.as_bytes());
    }
}

fn decode_fault_log(r: &mut ByteReader<'_>) -> Result<FaultLog, RestoreError> {
    // A record is at least its kind, four u64s, the exact flag and the
    // payload length.
    let n = get_count(r, 1 + 4 * 8 + 1 + 8)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = match get_u8(r)? {
            0 => FaultKind::WorkerPanic,
            1 => FaultKind::WatchdogFailover,
            _ => return Err(RestoreError::Corrupt("fault kind")),
        };
        let epoch = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let at_offered = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let quarantined = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let salvaged_units = r.get_u64_le().ok_or(RestoreError::Truncated)?;
        let exact = match get_u8(r)? {
            0 => false,
            1 => true,
            _ => return Err(RestoreError::Corrupt("exact flag")),
        };
        let len = get_count(r, 1)?;
        let bytes = r.get_slice(len).ok_or(RestoreError::Truncated)?;
        let payload = String::from_utf8(bytes.to_vec())
            .map_err(|_| RestoreError::Corrupt("payload utf-8"))?;
        records.push(FaultRecord {
            kind,
            epoch,
            at_offered,
            quarantined,
            salvaged_units,
            payload,
            exact,
        });
    }
    Ok(FaultLog { records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use support::testkit::FaultEvent;

    fn cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 96,
            entry_capacity: 8,
            counters: 2048,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    fn workload(n: u64) -> Vec<u64> {
        (0..n).map(|i| hashkit::mix::mix64(i % 257)).collect()
    }

    fn assert_conserved(o: &OnlineCaesar) {
        let st = o.stats();
        assert_eq!(
            st.offered,
            st.recorded + st.dropped + st.quarantined + st.in_flight,
            "mass conservation"
        );
    }

    #[test]
    fn fault_free_online_equals_batch_build() {
        let flows = workload(40_000);
        for shards in [1usize, 2, 4] {
            let mut online = OnlineCaesar::new(cfg(), shards);
            online.offer_batch(&flows);
            assert_conserved(&online);
            let finished = online.finish();
            let reference = ConcurrentCaesar::build(cfg(), shards, &flows);
            assert_eq!(
                finished.sram().snapshot(),
                reference.sram().snapshot(),
                "shards = {shards}"
            );
            assert_eq!(finished.evictions(), reference.evictions());
            assert_eq!(finished.sram().total_added(), reference.sram().total_added());
        }
    }

    #[test]
    fn injected_panic_keeps_engine_serving_with_exact_accounting() {
        let flows = workload(30_000);
        let plan = FaultInjector::with_events(vec![FaultEvent {
            site: FaultSite::WorkerPanic,
            shard: 0,
            at_tick: 1_000,
        }]);
        let mut online = OnlineCaesar::new(cfg(), 2).with_injector(plan);
        online.offer_batch(&flows);
        assert_conserved(&online);
        let st = online.stats();
        assert_eq!(st.respawns, 1, "worker respawned once");
        assert!(st.quarantined > 0, "the fault batch remainder was quarantined");
        assert_eq!(online.fault_log(0).panics(), 1);
        assert!(online.fault_log(0).is_exact());
        // Still serving queries.
        let q = online.query(flows[0]);
        assert!(q.is_finite() && q >= 0.0);
        // And mass: visible + cache-resident == recorded (merges flush
        // staged evictions; live cache mass stays on-chip by design).
        online.merge_now();
        assert_eq!(
            online.sram().total_added() + online.unmerged_units(),
            online.stats().recorded
        );
    }

    #[test]
    fn stalled_ring_fails_over_and_blocks_policy_never_drops() {
        let flows = workload(20_000);
        let plan = FaultInjector::with_events(vec![FaultEvent {
            site: FaultSite::RingStall,
            shard: 0,
            at_tick: 3,
        }]);
        let mut online = OnlineCaesar::new(cfg(), 2)
            .with_injector(plan)
            .with_ring_capacity(64)
            .with_watchdog_deadline(4);
        online.offer_batch(&flows);
        assert_conserved(&online);
        let st = online.stats();
        assert_eq!(st.dropped, 0, "Block never drops");
        assert_eq!(st.failovers, 1, "watchdog failed the lane over once");
        assert!(online.fault_log(0).failovers() == 1);
        let finished = online.finish();
        assert_eq!(finished.sram().total_added(), flows.len() as u64);
    }

    #[test]
    fn drop_policies_account_losses_exactly() {
        let flows = workload(10_000);
        for policy in [BackpressurePolicy::DropNewest, BackpressurePolicy::DropOldest] {
            let plan = FaultInjector::with_events(vec![FaultEvent {
                site: FaultSite::RingStall,
                shard: 0,
                at_tick: 0,
            }]);
            let mut online = OnlineCaesar::new(cfg(), 1)
                .with_injector(plan)
                .with_policy(policy)
                .with_ring_capacity(16)
                .with_watchdog_deadline(1_000_000); // never fail over
            online.offer_batch(&flows);
            assert_conserved(&online);
            let st = online.stats();
            assert!(st.dropped > 0, "{policy:?} sheds under a wedged consumer");
            let finished = online.finish();
            assert_eq!(
                finished.sram().total_added() + st.dropped,
                flows.len() as u64,
                "{policy:?}: every packet is either measured or counted lost"
            );
        }
    }

    #[test]
    fn query_health_folds_losses_into_confidence() {
        let flows = workload(10_000);
        let plan = FaultInjector::with_events(vec![FaultEvent {
            site: FaultSite::RingStall,
            shard: 0,
            at_tick: 0,
        }]);
        let mut online = OnlineCaesar::new(cfg(), 1)
            .with_injector(plan)
            .with_policy(BackpressurePolicy::DropNewest)
            .with_ring_capacity(16)
            .with_watchdog_deadline(1_000_000);
        online.offer_batch(&flows);
        online.merge_now();
        let h = online.query_health(flows[0]);
        assert!(h.loss_fraction > 0.0, "losses surface at query time");
        assert!(h.confidence < 1.0);
        assert!(h.is_degraded());
    }

    #[test]
    fn forced_saturation_degrades_health() {
        let flows = workload(9_000);
        let plan = FaultInjector::with_events(vec![FaultEvent {
            site: FaultSite::ForceSaturation,
            shard: 0,
            at_tick: 0,
        }]);
        let mut online = OnlineCaesar::new(cfg(), 1)
            .with_injector(plan)
            .with_epoch_len(4_096);
        online.offer_batch(&flows);
        assert!(online.sram().saturations() > 0);
        let h = online.query_health(flows[0]);
        assert!(h.saturation_events > 0);
        assert!(h.is_degraded());
        // Forced saturation bumps the tally only — mass is unaffected.
        assert_conserved(&online);
    }

    #[test]
    fn epochs_rotate_and_merge_visibly() {
        let flows = workload(20_000);
        let mut online = OnlineCaesar::new(cfg(), 2).with_epoch_len(5_000);
        online.offer_batch(&flows);
        let st = online.stats();
        assert_eq!(st.epoch, 4, "20k packets / 5k epoch length");
        assert_eq!(st.merges, 4);
        // After a merge every recorded packet's evicted mass is
        // visible; residue lives only in the caches.
        assert_eq!(
            online.sram().total_added() + online.unmerged_units(),
            st.recorded
        );
    }

    #[test]
    fn snapshot_restore_resume_is_byte_identical() {
        let flows = workload(24_000);
        let (first, rest) = flows.split_at(11_000);
        // Uninterrupted reference.
        let mut a = OnlineCaesar::new(cfg(), 2).with_epoch_len(4_096);
        a.offer_batch(&flows);
        let fa = a.finish();
        // Interrupted: snapshot mid-stream, restore, resume.
        let mut b = OnlineCaesar::new(cfg(), 2).with_epoch_len(4_096);
        b.offer_batch(first);
        let blob = b.snapshot();
        drop(b); // the "crash"
        let mut c = OnlineCaesar::restore(&blob).expect("snapshot restores");
        c.offer_batch(rest);
        let fc = c.finish();
        assert_eq!(fa.sram().snapshot(), fc.sram().snapshot(), "SRAM byte-identical");
        assert_eq!(fa.evictions(), fc.evictions());
        assert_eq!(fa.ingest_stats(), fc.ingest_stats());
    }

    #[test]
    fn snapshot_is_side_effect_free() {
        let flows = workload(8_000);
        let mut a = OnlineCaesar::new(cfg(), 2);
        let mut b = OnlineCaesar::new(cfg(), 2);
        for (i, &f) in flows.iter().enumerate() {
            a.offer(f);
            b.offer(f);
            if i % 1_000 == 0 {
                let _ = b.snapshot(); // drain + re-queue must be invisible
            }
        }
        assert_eq!(a.finish().sram().snapshot(), b.finish().sram().snapshot());
    }

    #[test]
    fn delta_chain_replays_byte_identical() {
        let flows = workload(30_000);
        let (base_part, tail) = flows.split_at(10_000);
        let (mid, last) = tail.split_at(10_000);
        let mut live = OnlineCaesar::new(cfg(), 2).with_epoch_len(4_096);
        live.offer_batch(base_part);
        let base = live.snapshot();
        assert_eq!(live.chain_position(), Some((hashkit::fnv::fnv1a64(&base), 0)));
        live.offer_batch(mid);
        let d1 = live.checkpoint_delta().expect("anchored chain emits");
        live.offer_batch(last);
        let d2 = live.checkpoint_delta().expect("second link");
        assert_eq!(live.chain_position().map(|(_, s)| s), Some(2));
        // Replica replays the chain and lands byte-identical: its next
        // full snapshot emits the same bytes as the live engine's.
        let mut replica =
            OnlineCaesar::restore_chain(&base, &[&d1, &d2]).expect("chain replays");
        assert_conserved(&replica);
        assert_eq!(live.snapshot(), replica.snapshot(), "state byte-identical");
        // And both keep measuring identically.
        let more = workload(6_000);
        live.offer_batch(&more);
        replica.offer_batch(&more);
        assert_eq!(live.finish().sram().snapshot(), replica.finish().sram().snapshot());
    }

    #[test]
    fn checkpoint_delta_requires_an_anchor() {
        let mut online = OnlineCaesar::new(cfg(), 2);
        online.offer_batch(&workload(1_000));
        assert_eq!(online.checkpoint_delta(), Err(DeltaError::NoBase));
        let _ = online.snapshot();
        assert!(online.checkpoint_delta().is_ok());
    }

    #[test]
    fn apply_delta_rejects_gaps_replays_foreign_and_corrupt_frames() {
        let flows = workload(20_000);
        let mut live = OnlineCaesar::new(cfg(), 2);
        live.offer_batch(&flows[..8_000]);
        let base = live.snapshot();
        live.offer_batch(&flows[8_000..14_000]);
        let d1 = live.checkpoint_delta().expect("link 1");
        live.offer_batch(&flows[14_000..]);
        let d2 = live.checkpoint_delta().expect("link 2");

        // Gap: skipping d1 is a typed sequence error, and the rejected
        // frame leaves the replica untouched — d1 then d2 still apply.
        let mut replica = OnlineCaesar::restore(&base).expect("base restores");
        assert_eq!(
            replica.apply_delta(&d2),
            Err(DeltaError::Sequence { expected: 1, found: 2 })
        );
        replica.apply_delta(&d1).expect("in-order link applies");
        // Replay: the same link twice is also out of sequence.
        assert_eq!(
            replica.apply_delta(&d1),
            Err(DeltaError::Sequence { expected: 2, found: 1 })
        );
        replica.apply_delta(&d2).expect("chain completes after rejections");
        assert_eq!(replica.snapshot(), live.snapshot());

        // Foreign chain: a delta anchored to a *different* snapshot.
        let mut other = OnlineCaesar::new(cfg(), 2);
        other.offer_batch(&flows[..500]);
        let other_base = other.snapshot();
        let other_delta = {
            other.offer_batch(&flows[500..900]);
            other.checkpoint_delta().expect("foreign link")
        };
        let mut fresh = OnlineCaesar::restore(&base).expect("base restores");
        assert!(matches!(
            fresh.apply_delta(&other_delta),
            Err(DeltaError::ForeignChain { .. })
        ));
        // A full snapshot blob is not a delta frame.
        assert_eq!(fresh.apply_delta(&other_base), Err(DeltaError::BadMagic));
        // ... and a delta frame is not a snapshot blob.
        assert!(OnlineCaesar::restore(&d1).is_err());
        // Bit-flip → seal rejection before any decoding.
        let mut flipped = d1.clone();
        flipped[d1.len() / 2] ^= 0x10;
        assert!(matches!(
            fresh.apply_delta(&flipped),
            Err(DeltaError::Seal(SealError::BadChecksum))
        ));
        // Unanchored engines cannot apply deltas at all.
        let mut unanchored = OnlineCaesar::new(cfg(), 2);
        assert_eq!(unanchored.apply_delta(&d1), Err(DeltaError::NoBase));
    }

    #[test]
    fn restore_chain_names_the_offending_link() {
        let mut live = OnlineCaesar::new(cfg(), 1);
        live.offer_batch(&workload(4_000));
        let base = live.snapshot();
        live.offer_batch(&workload(2_000));
        let d1 = live.checkpoint_delta().expect("link 1");
        live.offer_batch(&workload(2_000));
        let d2 = live.checkpoint_delta().expect("link 2");
        // Out of order: the failure points at slice index 0.
        assert!(matches!(
            OnlineCaesar::restore_chain(&base, &[&d2, &d1]),
            Err(ChainError::Delta { index: 0, source: DeltaError::Sequence { .. } })
        ));
        // Damaged base.
        assert!(matches!(
            OnlineCaesar::restore_chain(&base[..base.len() - 2], &[&d1]),
            Err(ChainError::Base(_))
        ));
        // The intact chain replays.
        assert!(OnlineCaesar::restore_chain(&base, &[&d1, &d2]).is_ok());
    }

    #[test]
    fn restore_rejects_corruption() {
        let mut online = OnlineCaesar::new(cfg(), 2);
        online.offer_batch(&workload(5_000));
        let blob = online.snapshot();
        // Bit flip anywhere in the payload → checksum mismatch.
        let mut flipped = blob.clone();
        flipped[blob.len() / 2] ^= 0x40;
        assert!(matches!(
            OnlineCaesar::restore(&flipped),
            Err(RestoreError::Seal(SealError::BadChecksum))
        ));
        // Truncation.
        assert!(OnlineCaesar::restore(&blob[..blob.len() - 3]).is_err());
        // Empty.
        assert!(matches!(
            OnlineCaesar::restore(&[]),
            Err(RestoreError::Seal(SealError::Truncated))
        ));
        // The pristine blob still restores.
        assert!(OnlineCaesar::restore(&blob).is_ok());
    }

    #[test]
    fn forged_sram_length_is_truncation_not_an_allocation() {
        use crate::merge::FINGERPRINT_BYTES;
        let mut online = OnlineCaesar::new(cfg(), 1);
        online.offer_batch(&workload(2_000));
        let mut payload = unseal(&online.snapshot()).unwrap().to_vec();
        // Field offsets in the payload: layout version, fingerprint
        // (counters first), then the config (cache entries, entry
        // capacity, policy, counters, k, width, estimator, seed), the
        // engine scalars (shards, policy, ring capacity, epoch length,
        // watchdog, epoch, merges, offered) and the SRAM width.
        let fp_counters = 2;
        let cfg_counters = fp_counters + FINGERPRINT_BYTES + 8 + 8 + 1;
        let n_words = cfg_counters + 8 + 8 + 4 + 1 + 8 + (8 + 1 + 6 * 8) + 4;
        let huge = (1u64 << 44).to_le_bytes();
        for at in [fp_counters, cfg_counters, n_words] {
            let field: [u8; 8] = payload[at..at + 8].try_into().unwrap();
            assert_eq!(u64::from_le_bytes(field), cfg().counters as u64, "offset {at}");
            payload[at..at + 8].copy_from_slice(&huge);
        }
        // Consistent and re-sealed: only the input length can refuse
        // the 2^44-word SRAM, and it must before allocating for it.
        seal(&mut payload);
        assert_eq!(OnlineCaesar::restore(&payload).err(), Some(RestoreError::Truncated));
    }

    #[test]
    fn snapshot_embeds_fingerprint() {
        let mut online = OnlineCaesar::new(cfg(), 2);
        online.offer_batch(&workload(2_000));
        let blob = online.snapshot();
        let fp = OnlineCaesar::snapshot_fingerprint(&blob).expect("peek");
        assert_eq!(fp, SketchFingerprint::of(&cfg()));
        // Peeking validates the seal too.
        assert!(OnlineCaesar::snapshot_fingerprint(&blob[..8]).is_err());
    }

    #[test]
    fn restore_expecting_rejects_mismatched_sketches() {
        let mut online = OnlineCaesar::new(cfg(), 2);
        online.offer_batch(&workload(2_000));
        let blob = online.snapshot();

        // Matching expectation restores and resumes.
        let ours = SketchFingerprint::of(&cfg());
        let restored = OnlineCaesar::restore_expecting(&blob, &ours).expect("compatible");
        assert_eq!(restored.stats().offered, 2_000);

        // A node running different geometry gets a typed field-level
        // rejection instead of a silently wrong merge.
        let other_k = SketchFingerprint::of(&CaesarConfig { k: 4, ..cfg() });
        assert!(matches!(
            OnlineCaesar::restore_expecting(&blob, &other_k),
            Err(RestoreError::Incompatible(MergeError::Geometry { field: "k", .. }))
        ));
        let other_seed = SketchFingerprint::of(&CaesarConfig { seed: 7, ..cfg() });
        assert!(matches!(
            OnlineCaesar::restore_expecting(&blob, &other_seed),
            Err(RestoreError::Incompatible(MergeError::Seed { .. }))
        ));
    }

    #[test]
    fn restored_engine_finishes_into_a_mergeable_sketch() {
        // The cross-node flow the service layer builds on: node B's
        // snapshot travels to node A, restores there (fingerprint
        // checked), finishes, and merges into A's cluster view.
        let flows = workload(10_000);
        let (fa, fb) = flows.split_at(flows.len() / 2);
        let mut node_a = OnlineCaesar::new(cfg(), 2);
        node_a.offer_batch(fa);
        let mut node_b = OnlineCaesar::new(cfg(), 4);
        node_b.offer_batch(fb);
        let blob = node_b.snapshot();

        let a = node_a.finish();
        let b = OnlineCaesar::restore_expecting(&blob, &a.fingerprint())
            .expect("same fleet config")
            .finish();
        let mut view = ConcurrentCaesar::empty(cfg());
        view.merge(&a).unwrap();
        view.merge(&b).unwrap();
        assert_eq!(view.sram().total_added() as usize, flows.len());
    }
}
