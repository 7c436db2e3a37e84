//! Fault-tolerant **online** (non-terminating) ingest: one engine, two
//! drivers.
//!
//! The finite build in [`crate::concurrent`] runs to completion and
//! panics when a shard worker panics — acceptable for an offline trace
//! replay, useless for a line card that must keep measuring through
//! faults.
//! [`OnlineEngine`] is the supervised, long-running form of the same
//! machinery. It holds the configuration, the shared SRAM and k-map,
//! one shard lane per shard (the crate-private `lane::Lane`: a bounded
//! [`support::spsc`] ring, a shard worker state machine and its exact
//! ledger), the epoch and the delta-chain position, plus a **driver**
//! that decides who drains the rings:
//!
//! * [`OnlineCaesar`] (`OnlineEngine<`[`Pump`]`>`) drains every lane on
//!   the caller's thread at deterministic points, so the whole
//!   schedule, including every injected fault, is a pure function of
//!   the offered stream: the bit-identity oracle;
//! * [`crate::ThreadedCaesar`] (`OnlineEngine<`[`crate::threaded::Threads`]`>`)
//!   runs each lane's worker on a detached OS thread, supervised by
//!   wall-clock heartbeats.
//!
//! `offer`, the epoch rotation, snapshots and delta checkpoints,
//! `finish`, restore, the accounting and the query surface are written
//! once, here; the driver supplies the hooks in between (DESIGN §4n).
//! Every hook is a static call on the concrete driver: the per-packet
//! path has no `dyn` and no branch on the driver. The engine provides:
//!
//! * **Supervised shard workers.** Every drain step runs under
//!   [`std::panic::catch_unwind`]; a panicking worker **quarantines**
//!   the unprocessed remainder of its batch (counted exactly), has its
//!   surviving cache mass **salvaged** into the shared SRAM (no
//!   recorded packet is lost), and is **respawned** fresh against the
//!   shard's surviving accumulator state. Every fault is appended to
//!   the lane's [`FaultLog`].
//! * **Loss-accounted backpressure.** A full ring is first relieved by
//!   the driver (the pump pumps the consumer; the thread runtime wakes
//!   the worker and backs off); only then does the configured
//!   [`BackpressurePolicy`] apply — `Block` retries (a hung consumer is
//!   bounded by the watchdog or the heartbeat verdict),
//!   `DropNewest` sheds the incoming packet with an exact per-shard
//!   loss counter that [`SketchRead::query_health`] folds into
//!   query-time confidence.
//! * **Watchdog failover (pump).** A lane whose consumer makes no
//!   progress for [`OnlineCaesar::with_watchdog_deadline`] consecutive
//!   pump attempts is declared hung: the pump drains the wedged ring
//!   inline, marks the lane `inline_fallback`, and serves it on the
//!   caller's thread until the next epoch boundary re-arms the ring
//!   path.
//! * **Epoch-aligned merges.** Workers stage evictions in shard-local
//!   [`crate::WritebackBuffer`] segments; at every epoch
//!   boundary ([`OnlineEngine::with_epoch_len`] offered packets) all
//!   lanes are drained dry and their segments merged into the shared
//!   SRAM in ascending shard order. Queries read the SRAM at any time —
//!   a consistent (merge-aligned) snapshot — without stopping ingest.
//! * **Crash-consistent snapshot/restore.** [`OnlineEngine::snapshot`]
//!   serializes the irreducible dynamic state (settings, per-lane cache
//!   slots + RNG streams, staged writeback segments, SRAM words + tally
//!   stripes, in-ring packets, loss counters and fault logs) through
//!   [`support::bytesx`] and seals it with a checksum footer; restore
//!   recomputes everything else, such as the memoized counter rows.
//!   Snapshots and delta links share one frame layout and one
//!   validating decoder (the crate-private `checkpoint` module, DESIGN
//!   §4j). [`OnlineEngine::restore`] refuses truncated, bit-flipped or
//!   forged blobs with typed errors, and a restored engine **resumes
//!   byte-identical** to the uninterrupted run (pinned by
//!   `tests/fault_tolerance.rs`). Both drivers write and read the same
//!   format.
//!
//! A fault-free run's [`OnlineEngine::finish`] is bit-identical to
//! [`ConcurrentCaesar::build`] on the same stream, under either driver.
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

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::atomic_sram::AtomicCounterArray;
use crate::checkpoint;
use crate::concurrent::{ConcurrentCaesar, IngestStats, ShardWorker};
use crate::config::CaesarConfig;
use crate::lane::{Lane, STREAM_CHUNK};
use crate::merge::{MergeError, SketchFingerprint, SketchPayload};
use crate::query::SketchRead;
use hashkit::KCounterMap;
use support::bytesx::SealError;
use support::spsc::Backoff;
use support::testkit::{FaultInjector, FaultSite};

pub(crate) use drive::Drive;

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
/// counter; [`SketchRead::query_health`] folds the loss fraction
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
}

impl BackpressurePolicy {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            BackpressurePolicy::Block => 0,
            BackpressurePolicy::DropNewest => 1,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(BackpressurePolicy::Block),
            1 => Some(BackpressurePolicy::DropNewest),
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


/// The scheduler seam of [`OnlineEngine`]: everything the pump and the
/// thread runtime do differently. It lives in a private module, so no
/// driver outside this crate can exist.
mod drive {
    use super::{OnlineCaesar, OnlineEngine};
    use support::spsc::Backoff;
    use support::testkit::FaultSite;

    /// Who drains an [`OnlineEngine`]'s rings. The engine calls these
    /// hooks as static functions on the concrete driver; see DESIGN
    /// §4n for the order they run in.
    pub trait Drive: Default + Sized {
        /// Take over a pump engine's complete state (a restore, or a
        /// handoff between drivers).
        fn adopt(engine: OnlineCaesar) -> OnlineEngine<Self>;

        /// A packet for `shard` arrives, before its first push.
        fn admit(engine: &mut OnlineEngine<Self>, shard: usize);

        /// Serve the packet without the ring; `true` when it was.
        fn bypass(engine: &mut OnlineEngine<Self>, shard: usize, flow: u64) -> bool;

        /// The packet's fate is settled: queued, or shed by
        /// `DropNewest`.
        fn settled(engine: &mut OnlineEngine<Self>, shard: usize);

        /// The packet was queued.
        fn pushed(engine: &mut OnlineEngine<Self>, shard: usize);

        /// The push found the ring full: relieve it. `true` retries
        /// the push before the policy applies.
        fn ring_full(engine: &mut OnlineEngine<Self>, shard: usize, backoff: &mut Backoff) -> bool;

        /// One engine-side fault-injection tick at `site` on `shard`.
        fn fault_tick(engine: &mut OnlineEngine<Self>, site: FaultSite, shard: usize) -> bool;

        /// Apply every packet accepted on `shard`.
        fn drain_dry(engine: &mut OnlineEngine<Self>, shard: usize);

        /// Merge `shard`'s staged writeback into the shared SRAM.
        fn flush(engine: &mut OnlineEngine<Self>, shard: usize);

        /// Hold every lane at a checkpoint-safe point: all accepted
        /// packets applied, no worker touching its state.
        fn quiesce(_engine: &mut OnlineEngine<Self>) {}

        /// Release what [`Drive::quiesce`] held.
        fn resume(_engine: &mut OnlineEngine<Self>) {}

        /// Stop driving for good: every accepted packet applied and
        /// no worker thread left, so the lanes can be finished or
        /// handed to another driver.
        fn retire(engine: &mut OnlineEngine<Self>);
    }
}

/// The supervised online ingest engine over shard lanes, drained by
/// the driver `D`. Name it through its two drivers, [`OnlineCaesar`]
/// and [`crate::ThreadedCaesar`]; see the module docs for the
/// architecture.
#[derive(Debug)]
pub struct OnlineEngine<D> {
    pub(crate) cfg: CaesarConfig,
    pub(crate) shards: usize,
    pub(crate) policy: BackpressurePolicy,
    pub(crate) ring_capacity: usize,
    pub(crate) epoch_len: u64,
    /// The pump's watchdog deadline. Kept here, not in [`Pump`],
    /// because snapshots carry it whichever driver writes them.
    pub(crate) watchdog_deadline: u64,
    /// Shared (`Arc`) so detached worker threads can reach them.
    pub(crate) sram: Arc<AtomicCounterArray>,
    pub(crate) kmap: Arc<KCounterMap>,
    pub(crate) entries: Vec<usize>,
    pub(crate) lanes: Vec<Lane>,
    pub(crate) epoch: u64,
    pub(crate) merges: u64,
    pub(crate) offered_total: u64,
    /// Delta-checkpoint chain position: `(chain id, deltas emitted)`.
    /// The chain id is the anchoring full snapshot's seal checksum (the
    /// FNV-1a digest of its payload), so an uninterrupted engine and
    /// one restored from that same blob agree on it without
    /// coordination.
    /// `None` until the first [`OnlineEngine::snapshot`] anchors a
    /// chain.
    pub(crate) chain: Option<(u64, u64)>,
    pub(crate) driver: D,
}

/// The deterministic driver: the caller's thread holds both ring
/// endpoints and drains each lane itself at deterministic points (ring
/// occupancy reaching a chunk, backpressure, epoch boundaries), so the
/// schedule and every injected fault are a pure function of the
/// offered stream.
#[derive(Debug, Default)]
pub struct Pump {
    pub(crate) injector: FaultInjector,
}

/// The single-owner pump engine, the bit-identity oracle for
/// [`crate::ThreadedCaesar`]:
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
pub type OnlineCaesar = OnlineEngine<Pump>;

impl<D: Drive> OnlineEngine<D> {
    /// A fresh engine with the default policy
    /// ([`BackpressurePolicy::Block`]), ring capacity
    /// ([`crate::DEFAULT_RING_CAPACITY`]), epoch length
    /// ([`DEFAULT_EPOCH_LEN`]), watchdog deadline
    /// ([`DEFAULT_WATCHDOG_DEADLINE`]) and, on the thread runtime,
    /// heartbeat interval ([`crate::DEFAULT_HEARTBEAT_MS`]). The thread
    /// runtime spawns its workers lazily on first use, so an engine
    /// that is built and dropped costs nothing.
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
            sram: Arc::new(sram),
            kmap: Arc::new(kmap),
            entries,
            lanes,
            epoch: 0,
            merges: 0,
            offered_total: 0,
            chain: None,
            driver: D::default(),
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
    /// Panics if `capacity == 0`, or once packets were offered or
    /// worker threads spawned.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        assert_eq!(self.offered_total, 0, "set ring capacity before offering");
        assert!(
            self.lanes.iter().all(|lane| lane.handle.is_none()),
            "set ring capacity before workers spawn"
        );
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

    /// Which shard a flow routes to.
    pub(crate) fn route(&self, flow: u64) -> usize {
        if self.shards == 1 {
            0
        } else {
            ConcurrentCaesar::shard_of(flow, self.shards, self.cfg.seed)
        }
    }

    /// Offer one packet of `flow` to the engine. Never blocks the
    /// caller indefinitely: a wedged lane is bounded by the pump's
    /// watchdog or the thread runtime's heartbeat verdict, either of
    /// which fails the lane over.
    pub fn offer(&mut self, flow: u64) {
        let shard = self.route(flow);
        self.offered_total += 1;
        D::admit(self, shard);
        let mut backoff = Backoff::new();
        loop {
            if D::bypass(self, shard, flow) {
                break;
            }
            if self.lanes[shard].tx.try_push(flow).is_ok() {
                D::settled(self, shard);
                D::pushed(self, shard);
                break;
            }
            if D::ring_full(self, shard, &mut backoff) {
                continue;
            }
            match self.policy {
                BackpressurePolicy::Block => continue,
                BackpressurePolicy::DropNewest => {
                    D::settled(self, shard);
                    self.lanes[shard].ledger.dropped += 1;
                    break;
                }
            }
        }
        if self.offered_total.is_multiple_of(self.epoch_len) {
            self.rotate_epoch();
        }
    }

    /// Offer a batch of packets (`for` loop over [`OnlineEngine::offer`]).
    pub fn offer_batch(&mut self, flows: &[u64]) {
        for &flow in flows {
            self.offer(flow);
        }
    }

    /// Epoch boundary: drain every lane dry, tick the deterministic
    /// saturation-degradation seam once per shard, merge every
    /// shard-local writeback segment into the shared SRAM in ascending
    /// shard order (so the merge order, saturation tallies included,
    /// is the same under both drivers), and advance the epoch. Queries
    /// between merges read the SRAM as of the last merge — a
    /// consistent snapshot — while ingest continues.
    fn rotate_epoch(&mut self) {
        for shard in 0..self.shards {
            D::drain_dry(self, shard);
            if D::fault_tick(self, FaultSite::ForceSaturation, shard) {
                self.sram.force_saturation(shard, 1);
            }
        }
        for shard in 0..self.shards {
            D::flush(self, shard);
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

    /// Aggregate accounting across all lanes.
    pub fn stats(&self) -> OnlineStats {
        let mut st = OnlineStats::empty(self.offered_total, self.epoch, self.merges);
        for lane in &self.lanes {
            lane.fold_into(&mut st);
        }
        st
    }

    /// Per-shard accounting snapshot.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn lane_stats(&self, shard: usize) -> LaneStats {
        self.lanes[shard].stats(shard)
    }

    /// The shard's fault history.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn fault_log(&self, shard: usize) -> &FaultLog {
        &self.lanes[shard].ledger.log
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
    /// Takes each lane's worker lock briefly.
    pub fn unmerged_units(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| {
                let cell = l.shared.lock();
                cell.worker.resident_units().wrapping_add(cell.worker.staged_units())
            })
            .fold(0, u64::wrapping_add)
    }

    /// Export the current visible state as a wire-transportable
    /// [`SketchPayload`] — what a supervised measurement tap pushes to
    /// an aggregator. Call [`OnlineEngine::merge_now`] first if the
    /// payload should include everything offered so far.
    pub fn export_sketch(&self) -> SketchPayload {
        let mut evictions = 0;
        for lane in &self.lanes {
            let cell = lane.shared.lock();
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

    /// End of measurement: apply every accepted packet (joining any
    /// worker threads), dump every cache, merge every segment — then
    /// hand back a finished [`ConcurrentCaesar`]. On a fault-free run
    /// this is **bit-identical** to [`ConcurrentCaesar::build`] over
    /// the same stream (pinned by the fault-tolerance suite).
    pub fn finish(mut self) -> ConcurrentCaesar {
        D::retire(&mut self);
        let Self { cfg, shards, sram, kmap, lanes, .. } = self;
        let per_shard: Vec<IngestStats> = lanes
            .iter()
            .map(|lane| {
                let mut st = lane.ledger.retired;
                st.merge(&lane.shared.lock().worker.finish(&sram, &kmap));
                st
            })
            .collect();
        // A worker thread fenced off at a failover may still hold the
        // arrays; it never writes them again, so copy them out.
        let sram = Arc::try_unwrap(sram).unwrap_or_else(|arc| {
            AtomicCounterArray::restore(arc.bits(), &arc.snapshot(), &arc.tally_snapshot())
        });
        let kmap = Arc::unwrap_or_clone(kmap);
        ConcurrentCaesar::assemble(cfg, shards, sram, kmap, per_shard)
    }

    // -----------------------------------------------------------------
    // Crash-consistent snapshot / restore
    // -----------------------------------------------------------------

    /// Serialize the complete dynamic state into a sealed,
    /// self-validating blob (see [`support::bytesx::seal`]). Both
    /// drivers write the same format, and either restores the other's
    /// blobs.
    ///
    /// The driver quiesces first (a no-op on the pump; the thread
    /// runtime applies every accepted packet and parks its workers)
    /// and resumes before this returns. Takes `&mut self` because the
    /// in-ring packets are drained and re-queued (order-preserving) to
    /// serialize them; the engine's observable state is unchanged. The
    /// attached fault injector is test scaffolding and is **not**
    /// serialized — a restored engine gets an inert injector.
    ///
    /// A full snapshot **anchors a delta-checkpoint chain**: subsequent
    /// [`OnlineEngine::checkpoint_delta`] frames name this blob (by
    /// digest) as their base and serialize only the SRAM blocks that
    /// changed since, so checkpoint cost drops from O(L) to O(changed).
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.snapshot_into(&mut buf);
        buf
    }

    /// [`OnlineEngine::snapshot`] into a caller-owned buffer (cleared
    /// first), so a periodic checkpoint loop reuses one allocation
    /// instead of growing a fresh `Vec` every epoch.
    pub fn snapshot_into(&mut self, buf: &mut Vec<u8>) {
        D::quiesce(self);
        // This blob is now the chain anchor, named by its seal's
        // checksum: future deltas diff against it, so the dirty
        // baseline resets here.
        let chain_id = checkpoint::encode_frame(buf, self, None);
        self.chain = Some((chain_id, 0));
        let _ = self.sram.take_dirty_blocks();
        D::resume(self);
    }

    /// Emit a sealed `CDLT` delta-checkpoint frame: everything that
    /// changed since the chain's previous checkpoint. The SRAM section
    /// is **sparse** — only the counters the per-counter dirty bitmap
    /// reports, each value in as few bytes as it needs — so at large
    /// `L` with low per-epoch churn the frame is a small fraction of a
    /// full [`OnlineEngine::snapshot`]. The lane tail (caches, RNG streams,
    /// staged writeback, rings, loss counters, fault logs) is carried
    /// whole: it is O(cache), independent of `L`, and churns fully
    /// every epoch anyway. Quiesces and resumes like a snapshot.
    ///
    /// Chain discipline: a full snapshot anchors the chain (its digest
    /// is the chain id); each delta carries the chain id and a 1-based
    /// sequence number. [`OnlineEngine::restore_chain`] replays
    /// `base + deltas` to a state **byte-identical** to the
    /// uninterrupted engine at the moment this frame was emitted.
    ///
    /// # Errors
    /// [`DeltaError::NoBase`] when no [`OnlineEngine::snapshot`] has
    /// anchored a chain yet.
    pub fn checkpoint_delta(&mut self) -> Result<Vec<u8>, DeltaError> {
        let mut buf = Vec::new();
        self.checkpoint_delta_into(&mut buf)?;
        Ok(buf)
    }

    /// [`OnlineEngine::checkpoint_delta`] into a caller-owned buffer
    /// (cleared first) — the zero-realloc form for a periodic
    /// checkpoint loop.
    ///
    /// # Errors
    /// [`DeltaError::NoBase`] when no snapshot has anchored a chain.
    pub fn checkpoint_delta_into(&mut self, buf: &mut Vec<u8>) -> Result<(), DeltaError> {
        let (chain_id, seq) = self.chain.ok_or(DeltaError::NoBase)?;
        D::quiesce(self);
        checkpoint::encode_frame(buf, self, Some((chain_id, seq + 1)));
        self.chain = Some((chain_id, seq + 1));
        D::resume(self);
        Ok(())
    }

    /// Rebuild an engine from a [`OnlineEngine::snapshot`] blob written
    /// under either driver. The restored engine **resumes
    /// byte-identical** to the uninterrupted run: every RNG stream,
    /// cache slot, staged writeback segment, ring packet and counter
    /// continues exactly, and each resident slot's memoized counter row
    /// is recomputed from its flow. The thread runtime spawns its
    /// workers on first use.
    ///
    /// # Errors
    /// Rejects truncated, bit-flipped, version-mismatched or
    /// internally inconsistent blobs.
    pub fn restore(bytes: &[u8]) -> Result<Self, RestoreError> {
        checkpoint::restore(bytes).map(D::adopt)
    }

    /// Rebuild an engine from a full-snapshot anchor plus its ordered
    /// delta frames, replayed on the pump and then handed to this
    /// driver. The result is **byte-identical** (its next
    /// [`OnlineEngine::snapshot`] emits the same bytes) to the
    /// uninterrupted engine at the moment the last delta was emitted —
    /// and it can keep extending the same chain, since restore
    /// re-derives the chain id from the base blob.
    ///
    /// # Errors
    /// [`ChainError::Base`] if the anchor fails to restore under this
    /// driver; [`ChainError::Delta`] (naming the offending index) if a
    /// delta is damaged, foreign, or out of sequence.
    pub fn restore_chain<B: AsRef<[u8]>>(base: &[u8], deltas: &[B]) -> Result<Self, ChainError> {
        let mut engine = checkpoint::restore(base).map_err(ChainError::Base)?;
        for (index, delta) in deltas.iter().enumerate() {
            engine
                .apply_delta(delta.as_ref())
                .map_err(|source| ChainError::Delta { index, source })?;
        }
        Ok(D::adopt(engine))
    }

    /// The engine's delta-chain position: `(chain id, deltas emitted
    /// since the anchoring snapshot)`, or `None` before any snapshot.
    pub fn chain_position(&self) -> Option<(u64, u64)> {
        self.chain
    }

    /// The same engine state under another driver.
    pub(crate) fn with_driver<E>(self, driver: E) -> OnlineEngine<E> {
        OnlineEngine {
            cfg: self.cfg,
            shards: self.shards,
            policy: self.policy,
            ring_capacity: self.ring_capacity,
            epoch_len: self.epoch_len,
            watchdog_deadline: self.watchdog_deadline,
            sram: self.sram,
            kmap: self.kmap,
            entries: self.entries,
            lanes: self.lanes,
            epoch: self.epoch,
            merges: self.merges,
            offered_total: self.offered_total,
            chain: self.chain,
            driver,
        }
    }
}

impl OnlineCaesar {
    /// Set the watchdog deadline in consecutive no-progress pump
    /// attempts (`>= 1`).
    ///
    /// The pump's hang verdict counts **ticks, not time**: a lane is
    /// declared hung after `deadline` pump attempts that moved
    /// nothing, a count independent of scheduler jitter or host load.
    /// That determinism is what keeps the pump the bit-identity oracle
    /// for the thread runtime ([`crate::ThreadedCaesar`]), whose
    /// supervision must instead use wall-clock heartbeats
    /// ([`crate::ThreadedCaesar::with_heartbeat_interval`]) because a
    /// hung OS thread makes no observable "attempts" to count.
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
        self.driver.injector = injector;
        self
    }

    /// The attached fault injector (fired/pending schedule).
    pub fn injector(&self) -> &FaultInjector {
        &self.driver.injector
    }

    /// Apply one `CDLT` delta frame emitted by
    /// [`OnlineEngine::checkpoint_delta`] on the uninterrupted engine
    /// (under either driver). Pump only: it replaces the lanes, which a
    /// running worker thread owns; [`OnlineEngine::restore_chain`]
    /// replays here, then hands the engine to its driver.
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
    /// inconsistencies or settings that differ from the engine's
    /// ([`DeltaError::Corrupt`]).
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), DeltaError> {
        checkpoint::apply_delta(self, bytes)
    }

    /// One supervised pump attempt on `shard`: returns the number of
    /// packets consumed from the ring (0 = no progress, which feeds
    /// the watchdog).
    fn pump(&mut self, shard: usize) -> u64 {
        // Every pump attempt is a RingStall tick: a scheduled stall
        // wedges the consumer at a deterministic pump ordinal.
        let injector = &mut self.driver.injector;
        injector.tick(FaultSite::RingStall, shard);
        if injector.is_stalled(shard) {
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
        let rx = lane.rx.as_mut().expect("the pump holds every ring");
        let n = rx.pop_batch(&mut lane.buf, STREAM_CHUNK);
        if n == 0 {
            return 0;
        }
        self.drain_step(shard);
        n as u64
    }

    /// The supervised drain step: apply `lane.buf` through the lane's
    /// supervised step ([`crate::lane::LaneShared::apply`]). On a panic
    /// the lane's ledger services the fault at once
    /// ([`LaneLedger::respawn_after_panic`]).
    fn drain_step(&mut self, shard: usize) {
        let Self { lanes, driver, sram, kmap, cfg, entries, epoch, .. } = self;
        let lane = &mut lanes[shard];
        let injector = &mut driver.injector;
        // Per-packet fault ticks only under a live schedule: the inert
        // injector keeps the whole-chunk batch kernel.
        let tick = (!injector.is_inert())
            .then_some(|| injector.tick(FaultSite::WorkerPanic, shard));
        let mut cell = lane.shared.lock();
        if let Err(panic) = lane.shared.apply(&mut cell, &lane.buf, sram, kmap, tick) {
            let fresh = ShardWorker::staged(cfg, shard, entries[shard]);
            lane.ledger.respawn_after_panic(&mut cell.worker, fresh, sram, kmap, *epoch, panic);
        }
    }

    /// Watchdog failover: the lane's consumer is declared hung. The
    /// pump takes ownership — drains the wedged ring inline and serves
    /// the lane on the calling thread until the next epoch boundary
    /// re-arms the ring path. Returns packets drained.
    fn failover(&mut self, shard: usize) -> u64 {
        // In the deterministic runtime the "hung consumer" is the
        // injector's sticky stall; failover clears it because the
        // pump, not the consumer loop, now drives the worker.
        self.driver.injector.clear_stall(shard);
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
}

/// The pump counts a packet offered on arrival, before any pump
/// attempt, so a fault that attempt fires includes the packet in hand
/// in its `at_offered`.
impl Drive for Pump {
    fn adopt(engine: OnlineCaesar) -> OnlineCaesar {
        engine
    }

    #[inline]
    fn admit(engine: &mut OnlineCaesar, shard: usize) {
        engine.lanes[shard].ledger.offered += 1;
    }

    /// A failed-over lane is served inline until the next epoch.
    #[inline]
    fn bypass(engine: &mut OnlineCaesar, shard: usize, flow: u64) -> bool {
        let lane = &mut engine.lanes[shard];
        if !lane.inline_fallback {
            return false;
        }
        lane.buf.clear();
        lane.buf.push(flow);
        engine.drain_step(shard);
        true
    }

    #[inline]
    fn settled(_: &mut OnlineCaesar, _: usize) {}

    /// A full chunk is ready: pump it through the worker, so ring
    /// occupancy stays bounded by one chunk on a healthy lane.
    #[inline]
    fn pushed(engine: &mut OnlineCaesar, shard: usize) {
        if engine.lanes[shard].in_flight() >= STREAM_CHUNK as u64 {
            engine.pump(shard);
        }
    }

    /// One pump attempt, which is one watchdog tick: a healthy
    /// consumer is always pumped before the policy can drop, and a
    /// hung one fails over after the deadline.
    fn ring_full(engine: &mut OnlineCaesar, shard: usize, _: &mut Backoff) -> bool {
        engine.pump(shard) > 0 || engine.lanes[shard].inline_fallback
    }

    fn fault_tick(engine: &mut OnlineCaesar, site: FaultSite, shard: usize) -> bool {
        engine.driver.injector.tick(site, shard)
    }

    /// Drain the ring dry, failing the lane over if it is still
    /// wedged.
    fn drain_dry(engine: &mut OnlineCaesar, shard: usize) {
        while engine.lanes[shard].in_flight() != 0 {
            if engine.driver.injector.is_stalled(shard) {
                engine.failover(shard);
            } else {
                engine.drain_chunk(shard);
            }
        }
    }

    /// Flush on the caller's thread and re-arm a failed-over lane.
    fn flush(engine: &mut OnlineCaesar, shard: usize) {
        let lane = &mut engine.lanes[shard];
        lane.shared.lock().worker.flush_writeback(&engine.sram);
        lane.inline_fallback = false;
        lane.stalled_attempts = 0;
    }

    fn retire(engine: &mut OnlineCaesar) {
        for shard in 0..engine.shards {
            Self::drain_dry(engine, shard);
        }
    }
}

/// Queries read the visible (merged) state; ingest continues
/// unaffected. A flow's health carries its shard's exact loss ratio.
impl<D: Drive> SketchRead for OnlineEngine<D> {
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

/// Why [`OnlineEngine::restore`] rejected a blob.
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
        }
    }
}

impl std::error::Error for RestoreError {}

/// Why [`OnlineCaesar::apply_delta`] (or
/// [`OnlineEngine::checkpoint_delta`]) rejected a frame or refused to
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

/// Why [`OnlineEngine::restore_chain`] failed, locating the offending
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
        let plan = FaultInjector::with_events(vec![FaultEvent {
            site: FaultSite::RingStall,
            shard: 0,
            at_tick: 0,
        }]);
        let mut online = OnlineCaesar::new(cfg(), 1)
            .with_injector(plan)
            .with_policy(BackpressurePolicy::DropNewest)
            .with_ring_capacity(16)
            .with_watchdog_deadline(1_000_000); // never fail over
        online.offer_batch(&flows);
        assert_conserved(&online);
        let st = online.stats();
        assert!(st.dropped > 0, "DropNewest sheds under a wedged consumer");
        let finished = online.finish();
        assert_eq!(
            finished.sram().total_added() + st.dropped,
            flows.len() as u64,
            "every packet is either measured or counted lost"
        );
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
        let payload = support::bytesx::unseal(&base).expect("a sealed snapshot");
        assert_eq!(live.chain_position(), Some((hashkit::fnv::fnv1a64(payload), 0)));
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
    fn restored_engine_finishes_into_a_mergeable_sketch() {
        // The cross-node flow the service layer builds on: node B's
        // snapshot travels to node A, restores there, finishes, and
        // merges (fingerprint checked) into A's cluster view.
        let flows = workload(10_000);
        let (fa, fb) = flows.split_at(flows.len() / 2);
        let mut node_a = OnlineCaesar::new(cfg(), 2);
        node_a.offer_batch(fa);
        let mut node_b = OnlineCaesar::new(cfg(), 4);
        node_b.offer_batch(fb);
        let blob = node_b.snapshot();

        let a = node_a.finish();
        let b = OnlineCaesar::restore(&blob).expect("pristine blob").finish();
        let mut view = ConcurrentCaesar::empty(cfg());
        view.merge(&a).unwrap();
        view.merge(&b).unwrap();
        assert_eq!(view.sram().total_added() as usize, flows.len());
    }
}

