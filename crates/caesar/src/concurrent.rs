//! The shard-worker ingest kernel and the sharded multi-core
//! construction phase built on it.
//!
//! `ShardWorker` is the **one** construction-phase hot path in the
//! crate: a private on-chip cache, the memoized per-slot counter rows,
//! the remainder-scatter RNG, and the probe-one-ahead batch loop. Every
//! eviction is split `e = p·k + q` by [`crate::update::spread_eviction`]
//! and handed to the worker's `EvictionSink`:
//!
//! * the sequential [`crate::Caesar`] is one worker whose sink is its
//!   own [`CounterArray`] — evictions apply directly, with no staging;
//! * the sharded engines ([`ConcurrentCaesar`], the online pump and the
//!   detached-thread runtime) give each shard a worker whose sink is a
//!   [`WritebackBuffer`] acting as a **shard-local SRAM segment**: the
//!   whole delta accumulates in a dense private array and merges into
//!   the shared [`AtomicCounterArray`] once per shard (or per epoch) —
//!   saturating adds commute, so the merge order cannot change any
//!   final counter.
//!
//! A real multi-queue line card (RSS) already partitions packets by a
//! hash of the flow ID, so per-flow state never crosses cores. The same
//! structure parallelizes CAESAR's construction phase:
//!
//! * [`ConcurrentCaesar::build`] routes an in-memory trace into
//!   per-shard batches with **one** O(n) partition pass
//!   ([`support::par::partition_by`]) and runs each batch on its own
//!   scoped thread; a trace that arrives as a stream goes through the
//!   ring-fed thread runtime instead ([`crate::ThreadedCaesar`], whose
//!   fault-free `finish` is bit-identical to `build`);
//! * each shard owns a private on-chip cache (the `M` entries are
//!   divided with the remainder distributed — see
//!   [`per_shard_entries`] — so the total on-chip budget is exact);
//! * the shared offered-units/saturation tallies are **striped** per
//!   shard ([`AtomicCounterArray::with_stripes`]) so not even the
//!   bookkeeping RMWs share a cache line;
//! * the query phase is identical to the sequential sketch.
//!
//! Because flows are partitioned (not packets), every shard's eviction
//! sequence is independent of thread scheduling, and because saturating
//! adds commute, the staged writeback cannot change any final counter
//! value — the sketch is **deterministic** for a fixed configuration
//! across runs and across engines, which the tests pin bit-exactly.
//! Shard 0's seeds equal the sequential [`crate::Caesar`]'s, so a
//! one-shard build is additionally byte-identical to the sequential
//! sketch.

use crate::atomic_sram::{AtomicCounterArray, WritebackBuffer, WritebackState};
use crate::config::{CaesarConfig, Estimator};
use crate::estimator::Estimate;
use crate::merge::{MergeError, SketchDelta, SketchFingerprint, SketchPayload};
use crate::query::{QueryHealth, SketchRead};
use crate::sram::CounterArray;
use crate::update::{spread_eviction, SpreadTarget};
use cachesim::{CacheConfig, CacheTable, CacheTableState};
use hashkit::mix::{bucket, mix64};
use hashkit::{KCounterMap, K_MAX};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::par::partition_by;
use support::rand::{rngs::StdRng, SeedableRng};
use support::testkit::INJECTED_PANIC;

/// Smallest SRAM footprint (bytes) for which the batch path issues
/// software prefetches of predicted counter rows. Below this the
/// counter array is comfortably cache-resident and the prefetch
/// instructions are pure front-end overhead — BENCH_PR3 measured the
/// hinted batch path *slower* than scalar `record` on the 2048-counter
/// (16 KiB) micro-trace geometry precisely because every prefetch was
/// wasted. 256 KiB ≈ typical per-core L2 size: arrays at least this
/// big miss often enough for the one-ahead hint to pay.
const SRAM_PREFETCH_MIN_BYTES: usize = 256 * 1024;

/// Where a [`ShardWorker`]'s evictions go.
///
/// The split itself is always [`spread_eviction`]'s, so every engine
/// consumes its remainder-scatter RNG identically; the sink only
/// decides where the finished increment row lands.
pub(crate) trait EvictionSink {
    /// State the sink writes through, passed into every call: the
    /// shared atomic array for a writeback segment, `()` for a sink
    /// that owns its SRAM.
    type Target: ?Sized;

    /// Split `value` over `indices` and apply (or stage) the
    /// increments. Returns the number of counters written.
    fn spread(
        &mut self,
        target: &Self::Target,
        indices: &[usize],
        value: u64,
        rng: &mut StdRng,
    ) -> u64;

    /// Best-effort software prefetch of counter `idx`'s storage.
    fn prefetch(&self, target: &Self::Target, idx: usize);
}

/// The sequential sketch's sink: evictions apply straight to the
/// worker's own SRAM.
impl EvictionSink for CounterArray {
    type Target = ();

    #[inline]
    fn spread(&mut self, _: &(), indices: &[usize], value: u64, rng: &mut StdRng) -> u64 {
        spread_eviction(self, indices, value, rng)
    }

    #[inline]
    fn prefetch(&self, _: &(), idx: usize) {
        CounterArray::prefetch(self, idx);
    }
}

/// The sharded engines' sink: evictions stage in a shard-local
/// segment that merges into the shared array at flush time.
impl EvictionSink for WritebackBuffer {
    type Target = AtomicCounterArray;

    #[inline]
    fn spread(
        &mut self,
        sram: &AtomicCounterArray,
        indices: &[usize],
        value: u64,
        rng: &mut StdRng,
    ) -> u64 {
        spread_eviction(&mut Staged { wb: self, sram }, indices, value, rng)
    }

    #[inline]
    fn prefetch(&self, sram: &AtomicCounterArray, idx: usize) {
        sram.prefetch(idx);
    }
}

/// A writeback segment paired with its flush target for one eviction.
struct Staged<'a> {
    wb: &'a mut WritebackBuffer,
    sram: &'a AtomicCounterArray,
}

impl SpreadTarget for Staged<'_> {
    #[inline]
    fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64 {
        let mut staged = 0;
        for (&idx, &inc) in indices.iter().zip(incs) {
            if inc != 0 {
                self.wb.push(idx, inc, self.sram);
                staged += 1;
            }
        }
        staged
    }
}

/// The construction-phase kernel: one cache, its remainder-scatter
/// RNG, the memoized per-slot counter indices, and the sink evictions
/// go to. [`crate::Caesar`] is one worker over its own SRAM; the
/// sharded engines run one staging worker per shard.
///
/// The worker holds **no references**: the index map (and, for a
/// staging sink, the shared SRAM) is passed into each call, so a
/// worker can live inside an owned engine as easily as inside a scoped
/// thread borrowing the arrays.
#[derive(Debug)]
pub(crate) struct ShardWorker<S = WritebackBuffer> {
    pub(crate) cache: CacheTable,
    rng: StdRng,
    /// Memoized counter indices, stride-`k` rows indexed by cache slot:
    /// computed once per insert, reused by every eviction of that
    /// occupancy — Overflow, Replacement (the victim's row is consumed
    /// before the rebind refreshes it), and the FinalDump drain.
    pub(crate) memo: Vec<usize>,
    k: usize,
    pub(crate) sink: S,
    /// Software-prefetch predicted SRAM rows in the batch path only
    /// when the counter array is too big to be cache-resident (see
    /// [`SRAM_PREFETCH_MIN_BYTES`]); on small arrays the hint is pure
    /// overhead.
    prefetch_sram: bool,
    /// Reusable per-batch base-hash row — `record_batch` hashes its
    /// whole batch up front in lane-width chunks
    /// ([`KCounterMap::base_hashes`]). Transient scratch, not state:
    /// deliberately absent from [`ShardWorkerState`].
    base_buf: Vec<u64>,
    pub(crate) evictions: u64,
    /// Counters written (for a staging sink: increments staged).
    pub(crate) sram_writes: u64,
}

/// Serializable dynamic state of a staging [`ShardWorker`], for the
/// online runtime's crash-consistent snapshots: the cache (slots,
/// recency list, victim RNG), the remainder-scatter RNG, the
/// staged-but-unflushed writeback segment, and the eviction count.
/// Only what a restore cannot recompute is here: the memo rows are a
/// function of the resident flows, and the writeback segment's shape
/// is the one [`ShardWorker::staged`] gives every lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardWorkerState {
    pub(crate) cache: CacheTableState,
    pub(crate) rng: [u64; 4],
    pub(crate) wb: WritebackState,
    pub(crate) evictions: u64,
}

/// Shard-decorrelated cache configuration; shard 0's seed equals the
/// sequential sketch's, so a 1-shard build is byte-identical to it.
fn cache_config(cfg: &CaesarConfig, shard: usize, entries: usize) -> CacheConfig {
    CacheConfig {
        entries,
        entry_capacity: cfg.entry_capacity,
        policy: cfg.policy,
        seed: cfg.seed ^ 0xA11C_E5ED ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// Shard-decorrelated remainder-scatter RNG seed (shard 0 sequential).
fn rng_seed(cfg: &CaesarConfig, shard: usize) -> u64 {
    cfg.seed ^ 0x0D15_EA5E ^ (shard as u64) << 32
}

impl<S: EvictionSink> ShardWorker<S> {
    /// A fresh worker for `shard` with `entries` cache entries,
    /// sending its evictions to `sink`.
    pub(crate) fn new(cfg: &CaesarConfig, shard: usize, entries: usize, sink: S) -> Self {
        let cache = CacheTable::new(cache_config(cfg, shard, entries));
        Self::with_parts(cfg, shard, cache, vec![0usize; entries * cfg.k], sink)
    }

    /// A fresh worker for `shard` around a built cache and memo.
    fn with_parts(
        cfg: &CaesarConfig,
        shard: usize,
        cache: CacheTable,
        memo: Vec<usize>,
        sink: S,
    ) -> Self {
        Self {
            cache,
            rng: StdRng::seed_from_u64(rng_seed(cfg, shard)),
            memo,
            k: cfg.k,
            sink,
            prefetch_sram: cfg.counters * 8 >= SRAM_PREFETCH_MIN_BYTES,
            base_buf: Vec::new(),
            evictions: 0,
            sram_writes: 0,
        }
    }

    /// Ingest one packet of `flow`.
    pub(crate) fn record(&mut self, flow: u64, target: &S::Target, kmap: &KCounterMap) {
        let r = self.cache.record_slotted(flow);
        if let Some(row) = self.settle(r, target, kmap) {
            kmap.fill_indices(flow, row);
        }
    }

    /// Ingest a batch of packets through the probe-one-ahead hot path:
    /// packet `i + 1`'s cache slot is probed while packet `i` is being
    /// applied, the probe is carried forward as a slot hint (one index
    /// lookup per packet instead of two on hits, see
    /// [`record_slotted_hinted`](CacheTable::record_slotted_hinted)),
    /// and — when the next packet will overflow its entry and the SRAM
    /// is big enough for prefetching to pay — the flow's `k` counter
    /// words are software-prefetched. Strictly equivalent to
    /// `for &f in flows { self.record(f, ..) }`: probes are read-only
    /// and the hint is tag-validated, so the sketch is byte-identical.
    pub(crate) fn record_batch(&mut self, flows: &[u64], target: &S::Target, kmap: &KCounterMap) {
        let k = self.k;
        // Hash the whole batch up front: `base_hashes` mixes the keys
        // in lane-width chunks, and inserted flows derive their `k`
        // counter indices from the memoized base — bit-identical to
        // per-flow `fill_indices` (pinned in hashkit).
        let mut bases = std::mem::take(&mut self.base_buf);
        bases.clear();
        bases.resize(flows.len(), 0);
        kmap.base_hashes(flows, &mut bases);
        if !self.prefetch_sram {
            // Cache-resident counter array: no miss latency to hide, so
            // the probe-one-ahead pipeline is pure overhead. Plain loop,
            // same sketch, with a pure-hit fast path: most packets are
            // absorbed on-chip with no memo or spread bookkeeping.
            for (&flow, &base) in flows.iter().zip(&bases) {
                if self.cache.record_absorbed(flow) {
                    continue;
                }
                let r = self.cache.record_slotted(flow);
                if let Some(row) = self.settle(r, target, kmap) {
                    kmap.fill_indices_from_base(base, row);
                }
            }
            self.base_buf = bases;
            return;
        }
        let mut hint = flows.first().and_then(|&f| self.cache.prefetch(f));
        for (i, &flow) in flows.iter().enumerate() {
            let r = self
                .cache
                .record_slotted_hinted(flow, hint.map(|(slot, _)| slot));
            if let Some(row) = self.settle(r, target, kmap) {
                kmap.fill_indices_from_base(bases[i], row);
            }
            hint = flows.get(i + 1).and_then(|&next| {
                let probe = self.cache.prefetch(next);
                if let Some((slot, true)) = probe {
                    let start = slot as usize * k;
                    for &idx in &self.memo[start..start + k] {
                        self.sink.prefetch(target, idx);
                    }
                }
                probe
            });
        }
        self.base_buf = bases;
    }

    /// Memo/spread bookkeeping for one recorded packet: spread the
    /// eviction (if any) over the slot's memoized row, then return the
    /// row for the caller to refill when the slot was rebound to a new
    /// flow. The refill comes *after* the spread, so a Replacement
    /// consumes the victim's row.
    #[inline]
    fn settle(
        &mut self,
        r: cachesim::Recorded,
        target: &S::Target,
        kmap: &KCounterMap,
    ) -> Option<&mut [usize]> {
        let k = self.k;
        let start = r.slot as usize * k;
        if let Some(ev) = r.eviction {
            debug_assert_eq!(self.memo[start..start + k], kmap.indices(ev.flow)[..]);
            self.spread_row(start, ev.value, target);
        }
        r.inserted.then(|| &mut self.memo[start..start + k])
    }

    /// Send an eviction of `value` over the memoized index row starting
    /// at `start` to the sink.
    #[inline]
    pub(crate) fn spread_row(&mut self, start: usize, value: u64, target: &S::Target) {
        let Self { memo, rng, sink, k, .. } = self;
        self.sram_writes += sink.spread(target, &memo[start..start + *k], value, rng);
        self.evictions += 1;
    }

    /// Dump every resident cache entry through the memoized rows into
    /// the sink (the FinalDump), leaving the worker alive with an
    /// **empty** cache. For a staging worker this is also the salvage
    /// primitive of the online supervisor: after a worker panic, the
    /// surviving cache mass is drained here before the lane respawns,
    /// so no recorded packet is lost. Returns the unit mass drained.
    /// Does **not** flush a writeback segment.
    pub(crate) fn drain_cache(&mut self, target: &S::Target, kmap: &KCounterMap) -> u64 {
        let Self { cache, rng, memo, k, sink, evictions, sram_writes, .. } = self;
        let mut drained = 0u64;
        cache.drain_with(|slot, ev| {
            let start = slot as usize * *k;
            let indices = &memo[start..start + *k];
            debug_assert_eq!(indices, &kmap.indices(ev.flow)[..]);
            *evictions += 1;
            drained += ev.value;
            *sram_writes += sink.spread(target, indices, ev.value, rng);
        });
        drained
    }

    /// Unit mass currently resident in the cache (recorded packets not
    /// yet evicted) — the supervisor's salvage-consistency oracle.
    pub(crate) fn resident_units(&self) -> u64 {
        self.cache.iter().fold(0u64, |sum, (_, count)| sum.wrapping_add(count))
    }
}

impl ShardWorker<WritebackBuffer> {
    /// A fresh worker for `shard` staging its evictions in a
    /// shard-local segment charged to the shard's tally stripe.
    pub(crate) fn staged(cfg: &CaesarConfig, shard: usize, entries: usize) -> Self {
        Self::new(cfg, shard, entries, WritebackBuffer::new(shard))
    }

    /// Merge the shard-local writeback segment into the shared SRAM —
    /// the epoch-boundary flush of the online runtime. The cache keeps
    /// counting; only staged evictions become query-visible.
    pub(crate) fn flush_writeback(&mut self, sram: &AtomicCounterArray) {
        self.sink.flush(sram);
    }

    /// Unit mass staged in the writeback buffer (evicted but not yet
    /// merged into the shared SRAM).
    pub(crate) fn staged_units(&self) -> u64 {
        // Wrapping, like the SRAM's `total_added`: a restored segment's
        // increments are only checked to be nonzero.
        self.sink.state().pending.iter().fold(0u64, |sum, &(_, v)| sum.wrapping_add(v))
    }

    /// Ingest statistics so far (the mid-stream form of the report
    /// [`finish`](Self::finish) returns).
    pub(crate) fn ingest_stats(&self) -> IngestStats {
        IngestStats {
            evictions: self.evictions,
            staged_updates: self.sink.staged_updates(),
            flushed_updates: self.sink.flushed_updates(),
            flushes: self.sink.flushes(),
        }
    }

    /// Capture the worker's complete dynamic state (see
    /// [`ShardWorkerState`]).
    pub(crate) fn snapshot_state(&self) -> ShardWorkerState {
        ShardWorkerState {
            cache: self.cache.snapshot_state(),
            rng: self.rng.state(),
            wb: self.sink.state(),
            evictions: self.evictions,
        }
    }

    /// Rebuild a worker from a [`ShardWorkerState`] snapshot taken
    /// under the same `(cfg, shard, entries)`: the worker
    /// [`ShardWorker::staged`] builds, with the state loaded and each
    /// resident slot's memo row recomputed from its flow. Every other
    /// row stays zero, as in a fresh worker; no path reads a row whose
    /// slot is not resident. Byte-identical continuation: the cache
    /// (including its victim RNG), the scatter RNG and the staged
    /// writeback all resume exactly.
    ///
    /// # Errors
    /// A state no run can produce (see [`CacheTable::restore`] and
    /// [`WritebackBuffer::restore`]), named; and an `entries` whose
    /// cache or memo the allocator refuses, since it comes with the
    /// state.
    pub(crate) fn restore_state(
        cfg: &CaesarConfig,
        shard: usize,
        entries: usize,
        kmap: &KCounterMap,
        state: &ShardWorkerState,
    ) -> Result<Self, &'static str> {
        let cache = CacheTable::restore(cache_config(cfg, shard, entries), &state.cache)?;
        let rows = entries.saturating_mul(cfg.k);
        let mut memo = Vec::new();
        memo.try_reserve_exact(rows).map_err(|_| "memo rows too large to allocate")?;
        memo.resize(rows, 0);
        for (row, &(flow, ..)) in memo.chunks_exact_mut(cfg.k).zip(&state.cache.slots) {
            kmap.fill_indices(flow, row);
        }
        let mut sink = WritebackBuffer::new(shard);
        sink.restore(&state.wb, cfg.counters)?;
        let mut worker = Self::with_parts(cfg, shard, cache, memo, sink);
        worker.rng = StdRng::from_state(state.rng);
        worker.evictions = state.evictions;
        worker.sram_writes = worker.sink.staged_updates();
        Ok(worker)
    }

    /// The supervised drain step both online runtimes run: apply
    /// `flows` under an unwind boundary and, if the batch panics,
    /// report the exact applied prefix and the payload.
    ///
    /// Without `fault_tick` the whole batch goes through one
    /// [`record_batch`](Self::record_batch) call — the production hot
    /// path. With one, `fault_tick()` runs before every packet and a
    /// `true` panics with [`INJECTED_PANIC`] *between* two packets, so
    /// the applied prefix of an injected fault is exact.
    pub(crate) fn apply_supervised(
        &mut self,
        flows: &[u64],
        sram: &AtomicCounterArray,
        kmap: &KCounterMap,
        fault_tick: Option<impl FnMut() -> bool>,
    ) -> Result<(), BatchPanic> {
        let applied = Cell::new(0usize);
        let result = match fault_tick {
            None => catch_unwind(AssertUnwindSafe(|| {
                self.record_batch(flows, sram, kmap);
                applied.set(flows.len());
            })),
            Some(mut tick) => catch_unwind(AssertUnwindSafe(|| {
                for (i, &flow) in flows.iter().enumerate() {
                    if tick() {
                        panic!("{}", INJECTED_PANIC);
                    }
                    self.record(flow, sram, kmap);
                    applied.set(i + 1);
                }
            })),
        };
        result.map_err(|p| BatchPanic {
            applied: applied.get() as u64,
            unapplied: (flows.len() - applied.get()) as u64,
            payload: panic_payload(p),
        })
    }

    /// End of measurement: dump the cache, flush the segment, report.
    pub(crate) fn finish(&mut self, sram: &AtomicCounterArray, kmap: &KCounterMap) -> IngestStats {
        self.drain_cache(sram, kmap);
        self.sink.flush(sram);
        self.ingest_stats()
    }
}

/// Split the on-chip budget of `cache_entries` entries over `shards`
/// private caches.
///
/// Rule: the distributed total is **exactly** `max(cache_entries,
/// shards)` — shard `i` receives `⌊total/shards⌋ + 1` if
/// `i < total mod shards`, else `⌊total/shards⌋`. In particular:
///
/// * when `cache_entries >= shards` the budget is conserved exactly
///   (the old `(M / T).max(1)` rule silently dropped the remainder —
///   M = 130, T = 4 lost 2 entries);
/// * when `cache_entries < shards` every shard still needs one entry to
///   make progress, so the budget inflates to `shards` — explicitly,
///   not as a side effect (M = 4, T = 8 becomes 8, and callers can see
///   why).
///
/// # Panics
/// Panics if `shards == 0`.
pub fn per_shard_entries(cache_entries: usize, shards: usize) -> Vec<usize> {
    assert!(shards >= 1, "need at least one shard");
    let total = cache_entries.max(shards);
    let base = total / shards;
    let rem = total % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

/// Aggregate statistics of one construction phase's ingest pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Eviction events pushed off-chip (overflow + replacement + final
    /// dump), summed over shards.
    pub evictions: u64,
    /// Individual `(counter, increment)` updates staged in writeback
    /// buffers.
    pub staged_updates: u64,
    /// Updates that reached the shared SRAM after coalescing.
    pub flushed_updates: u64,
    /// Writeback batch flushes performed.
    pub flushes: u64,
}

impl IngestStats {
    /// Staged-to-flushed ratio: how many CAS sequences each hot-counter
    /// batch saved (1.0 = no coalescing happened).
    pub fn coalescing_factor(&self) -> f64 {
        if self.flushed_updates == 0 {
            1.0
        } else {
            self.staged_updates as f64 / self.flushed_updates as f64
        }
    }

    pub(crate) fn merge(&mut self, other: &IngestStats) {
        self.evictions += other.evictions;
        self.staged_updates += other.staged_updates;
        self.flushed_updates += other.flushed_updates;
        self.flushes += other.flushes;
    }
}

/// What a panicking [`ShardWorker::apply_supervised`] batch left behind.
#[derive(Debug)]
pub(crate) struct BatchPanic {
    /// Packets fully applied before the panic.
    pub(crate) applied: u64,
    /// The unprocessed remainder of the batch (to be quarantined).
    pub(crate) unapplied: u64,
    /// The panic payload, rendered to a string.
    pub(crate) payload: String,
}

/// Render a `catch_unwind`/`join` panic payload to a string.
pub(crate) fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Join per-shard scoped-thread handles into per-shard results. Every
/// handle is joined first, so no worker outlives the scope with the
/// accumulators still borrowed; then a shard panic is re-raised,
/// naming the **lowest** panicking shard when several fail.
fn join_shards<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    (joined.into_iter().enumerate())
        .map(|(shard, r)| {
            r.unwrap_or_else(|p| {
                panic!("concurrent build failed: shard {shard} worker panicked: {}", panic_payload(p))
            })
        })
        .collect()
}

/// Multi-core CAESAR: sharded caches, one shared atomic SRAM.
///
/// ```
/// use caesar::{CaesarConfig, ConcurrentCaesar, SketchRead};
/// let flows: Vec<u64> = (0..5_000).map(|i| i % 50).collect();
/// let sketch = ConcurrentCaesar::build(
///     CaesarConfig { cache_entries: 64, entry_capacity: 8, counters: 4096, k: 3,
///                    ..CaesarConfig::default() },
///     4,
///     &flows,
/// );
/// assert_eq!(sketch.sram().total_added(), 5_000);
/// assert!((sketch.query(0) - 100.0).abs() < 30.0);
/// ```
#[derive(Debug)]
pub struct ConcurrentCaesar {
    cfg: CaesarConfig,
    shards: usize,
    sram: AtomicCounterArray,
    kmap: KCounterMap,
    ingest: IngestStats,
}

impl ConcurrentCaesar {
    /// Which shard a flow belongs to (RSS-style hash partition).
    pub fn shard_of(flow: u64, shards: usize, seed: u64) -> usize {
        bucket(mix64(flow ^ seed), shards)
    }

    /// What [`ConcurrentCaesar::scaffold`] requires of `cfg` and
    /// `shards`, as a `Result`: a restore refuses what a build would
    /// panic on.
    pub(crate) fn check_shape(cfg: &CaesarConfig, shards: usize) -> Result<(), &'static str> {
        if shards == 0 {
            return Err("need at least one shard");
        }
        if cfg.k > K_MAX {
            return Err("concurrent build supports k up to hashkit::K_MAX");
        }
        cfg.check()
    }

    pub(crate) fn scaffold(
        cfg: &CaesarConfig,
        shards: usize,
    ) -> (AtomicCounterArray, KCounterMap, Vec<usize>) {
        Self::try_scaffold(cfg, shards).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`ConcurrentCaesar::scaffold`], refusing a bad shape or an SRAM
    /// the allocator will not grant with the reason instead of a panic
    /// or an abort: the form a restore from outside bytes uses.
    pub(crate) fn try_scaffold(
        cfg: &CaesarConfig,
        shards: usize,
    ) -> Result<(AtomicCounterArray, KCounterMap, Vec<usize>), &'static str> {
        Self::check_shape(cfg, shards)?;
        // One tally stripe per shard: the offered-units/saturation RMWs
        // land on private padded lines instead of ping-ponging one.
        let sram = AtomicCounterArray::try_with_stripes(cfg.counters, cfg.counter_bits, shards)
            .ok_or("counter array too large to allocate")?;
        let kmap = KCounterMap::new(cfg.k, cfg.counters, cfg.seed ^ 0x5EED_5EED);
        let entries = per_shard_entries(cfg.cache_entries, shards);
        Ok((sram, kmap, entries))
    }

    pub(crate) fn assemble(
        cfg: CaesarConfig,
        shards: usize,
        sram: AtomicCounterArray,
        kmap: KCounterMap,
        per_shard: Vec<IngestStats>,
    ) -> Self {
        let mut ingest = IngestStats::default();
        for s in &per_shard {
            ingest.merge(s);
        }
        Self { cfg, shards, sram, kmap, ingest }
    }

    /// Run the construction phase over `flows` with `shards` shard
    /// workers, then return the finished sketch.
    ///
    /// The trace is routed with one O(n) partition pass; each worker
    /// consumes only its own flow subsequence through the batch hot
    /// path and stages evictions in a shard-local [`WritebackBuffer`]
    /// segment merged once at the end. The batches run on scoped
    /// threads, or one after another on the calling thread when there
    /// is one shard or one hardware thread (same sketch, none of the
    /// coordination cost).
    ///
    /// # Panics
    /// Panics if `shards == 0`, the configuration is invalid, or a
    /// shard worker panics.
    pub fn build(cfg: CaesarConfig, shards: usize, flows: &[u64]) -> Self {
        let (sram, kmap, entries) = Self::scaffold(&cfg, shards);
        let run = |shard: usize, batch: &[u64]| {
            let mut w = ShardWorker::staged(&cfg, shard, entries[shard]);
            w.record_batch(batch, &sram, &kmap);
            w.finish(&sram, &kmap)
        };
        let per_shard = if shards == 1 {
            vec![run(0, flows)]
        } else {
            // The single partition pass: flow-affine, order-preserving.
            let batches = partition_by(flows, shards, |&f| Self::shard_of(f, shards, cfg.seed));
            if support::par::host_parallelism() == 1 {
                batches.iter().enumerate().map(|(shard, b)| run(shard, b)).collect()
            } else {
                let run = &run;
                std::thread::scope(|s| {
                    let handles = batches
                        .iter()
                        .enumerate()
                        .map(|(shard, b)| s.spawn(move || run(shard, b)))
                        .collect();
                    join_shards(handles)
                })
            }
        };
        Self::assemble(cfg, shards, sram, kmap, per_shard)
    }

    /// The configuration in use.
    pub fn config(&self) -> &CaesarConfig {
        &self.cfg
    }

    /// Number of shards used during construction.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total eviction events pushed off-chip.
    pub fn evictions(&self) -> u64 {
        self.ingest.evictions
    }

    /// Ingest-pipeline statistics (evictions, writeback coalescing).
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// The shared SRAM array.
    pub fn sram(&self) -> &AtomicCounterArray {
        &self.sram
    }

    /// [`SketchRead::estimate_all`], callable without importing the
    /// trait.
    pub fn estimate_all(&self, flows: &[u64], estimator: Estimator) -> Vec<Estimate> {
        SketchRead::estimate_all(self, flows, estimator)
    }

    /// [`SketchRead::query_health`], callable without importing the
    /// trait. Offline sketches have no ingest loss, so only saturation
    /// can degrade confidence — on a merged cluster view that includes
    /// saturation folded in from every contributing node.
    pub fn query_health(&self, flow: u64) -> QueryHealth {
        SketchRead::query_health(self, flow)
    }

    /// The identity two sketches must share to merge (see
    /// [`SketchFingerprint`]).
    pub fn fingerprint(&self) -> SketchFingerprint {
        SketchFingerprint::of(&self.cfg)
    }

    /// A zero-traffic sketch — the merge identity. An aggregator
    /// starts here and folds every node's [`SketchPayload`] in to form
    /// the cluster view.
    ///
    /// # Panics
    /// Panics on invalid configurations.
    pub fn empty(cfg: CaesarConfig) -> Self {
        let (sram, kmap, _) = Self::scaffold(&cfg, 1);
        Self::assemble(cfg, 1, sram, kmap, Vec::new())
    }

    /// Merge another finished sketch into this one: counter-wise
    /// saturating add with both sides' saturation tallies folded (see
    /// [`AtomicCounterArray::merge_from`]), plus the ingest statistics.
    /// Shard counts may differ — sharding is an ingest-side layout
    /// choice, the shared SRAM is what merges.
    ///
    /// Below the clamp this is exact linearity: with identical
    /// geometry and seeds, every flow maps to the same `k` counters on
    /// both sides, so the merged view queries as if one box had seen
    /// both streams. At the clamp the merge stays honest: sums pin at
    /// `max_value` and are flagged, degrading
    /// [`QueryHealth::confidence`] instead of silently under-counting.
    pub fn merge(&mut self, other: &ConcurrentCaesar) -> Result<(), MergeError> {
        self.fingerprint().expect_matches(&other.fingerprint())?;
        self.sram.merge_from(&other.sram)?;
        self.ingest.merge(&other.ingest);
        Ok(())
    }

    /// Export the wire-transportable state: what a measurement node
    /// pushes to an aggregator (`PushSketch` in the service protocol).
    pub fn export_sketch(&self) -> SketchPayload {
        SketchPayload {
            fingerprint: self.fingerprint(),
            counters: self.sram.snapshot(),
            total_added: self.sram.total_added(),
            saturation_events: self.sram.saturations(),
            evictions: self.ingest.evictions,
        }
    }

    /// Fold a pushed [`SketchPayload`] into this sketch — the
    /// aggregator half of [`ConcurrentCaesar::export_sketch`]. Same
    /// semantics as [`ConcurrentCaesar::merge`].
    pub fn merge_sketch(&mut self, payload: &SketchPayload) -> Result<(), MergeError> {
        self.fingerprint().expect_matches(&payload.fingerprint)?;
        let len = self.sram.len();
        if payload.counters.len() != len {
            let theirs = payload.counters.len() as u64;
            return Err(MergeError::Geometry { field: "counters", ours: len as u64, theirs });
        }
        let updates = payload.counters.iter().copied().enumerate();
        self.sram.fold(updates, payload.total_added, payload.saturation_events);
        self.ingest.evictions += payload.evictions;
        Ok(())
    }

    /// Fold a pushed [`SketchDelta`] into this sketch — the incremental
    /// counterpart of [`ConcurrentCaesar::merge_sketch`]. Counter
    /// increments apply as saturating adds (clamp crossings counted)
    /// and the tally increments fold, so a view fed
    /// `full push + deltas` is identical to one fed the equivalent
    /// full pushes. The caller (the service layer) is responsible for
    /// base-epoch discipline — this method applies unconditionally.
    pub fn merge_delta(&mut self, delta: &SketchDelta) -> Result<(), MergeError> {
        self.fingerprint().expect_matches(&delta.fingerprint)?;
        let span = crate::sram::DIRTY_BLOCK_COUNTERS;
        // Every listed block must lie inside the array, zeros or not.
        let len = self.sram.len();
        let end = |(block, increments): &(usize, Vec<u64>)| {
            block.checked_mul(span).and_then(|start| start.checked_add(increments.len()))
        };
        if let Some(past) = delta.blocks.iter().map(end).find(|e| e.is_none_or(|e| e > len)) {
            return Err(MergeError::Geometry {
                field: "counters",
                ours: len as u64,
                theirs: past.map_or(u64::MAX, |e| e as u64 - 1),
            });
        }
        let updates = (delta.blocks.iter()).flat_map(|(block, increments)| {
            (block * span..).zip(increments.iter().copied())
        });
        self.sram.fold(updates, delta.total_added_delta, delta.saturation_events_delta);
        self.ingest.evictions += delta.evictions_delta;
        Ok(())
    }
}

impl SketchRead for ConcurrentCaesar {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 128,
            entry_capacity: 8,
            counters: 4096,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    fn workload() -> Vec<u64> {
        // 64 flows with sizes 16·(i+1), deterministically interleaved.
        let mut flows = Vec::new();
        for round in 0..1040u64 {
            for f in 0..64u64 {
                if round < 16 * (f + 1) {
                    flows.push(mix64(f)); // spread IDs like real hashes
                }
            }
        }
        flows
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ConcurrentCaesar::build(cfg(), 0, &[]);
    }

    #[test]
    fn conserves_packets_across_threads() {
        let flows = workload();
        for shards in [1, 2, 4, 8] {
            let c = ConcurrentCaesar::build(cfg(), shards, &flows);
            assert_eq!(
                c.sram().total_added() as usize,
                flows.len(),
                "shards = {shards}"
            );
            assert_eq!(c.sram().stripes(), shards, "one tally stripe per shard");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let flows = workload();
        let a = ConcurrentCaesar::build(cfg(), 4, &flows);
        let b = ConcurrentCaesar::build(cfg(), 4, &flows);
        assert_eq!(a.sram().snapshot(), b.sram().snapshot());
    }

    #[test]
    fn writeback_batching_coalesces_hot_counters() {
        let flows = workload();
        let c = ConcurrentCaesar::build(cfg(), 2, &flows);
        let stats = c.ingest_stats();
        assert!(stats.evictions > 0);
        assert!(stats.staged_updates >= stats.flushed_updates);
        // Shard-local segments: exactly one merge per shard.
        assert_eq!(stats.flushes, 2);
        // 64 flows × k=3 ⇒ at most 192 hot counters per shard, so the
        // whole-run accumulation must coalesce substantially.
        assert!(
            stats.coalescing_factor() > 1.5,
            "coalescing factor {}",
            stats.coalescing_factor()
        );
    }

    #[test]
    fn per_shard_entries_conserves_the_budget() {
        // Remainder distributed: no silent loss (the old rule dropped
        // 130 mod 4 = 2 entries here).
        assert_eq!(per_shard_entries(130, 4), vec![33, 33, 32, 32]);
        // Fewer entries than shards: explicit inflation to 1 each.
        assert_eq!(per_shard_entries(4, 8), vec![1; 8]);
        // One shard: the sequential geometry, untouched.
        assert_eq!(per_shard_entries(130, 1), vec![130]);
        for m in [1usize, 4, 31, 128, 130, 1000] {
            for t in [1usize, 2, 3, 4, 7, 8, 64] {
                let parts = per_shard_entries(m, t);
                assert_eq!(parts.len(), t);
                assert_eq!(
                    parts.iter().sum::<usize>(),
                    m.max(t),
                    "M = {m}, T = {t}"
                );
                assert!(parts.iter().all(|&e| e >= 1));
                // Fair split: shard sizes differ by at most one entry.
                let (lo, hi) = (
                    *parts.iter().min().expect("nonempty"),
                    *parts.iter().max().expect("nonempty"),
                );
                assert!(hi - lo <= 1, "M = {m}, T = {t}: {parts:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn per_shard_entries_zero_shards_rejected() {
        per_shard_entries(16, 0);
    }

    #[test]
    fn accuracy_comparable_to_sequential() {
        let flows = workload();
        let conc = ConcurrentCaesar::build(cfg(), 4, &flows);
        let mut seq = crate::Caesar::new(cfg());
        for &f in &flows {
            seq.record(f);
        }
        seq.finish();
        // Both must recover the largest flow (size 1024) within a few
        // percent; the sketches differ (different cache partitioning)
        // but not materially.
        let big = mix64(63);
        let e_conc = conc.query(big);
        let e_seq = seq.query(big);
        assert!((e_conc - 1024.0).abs() < 64.0, "concurrent = {e_conc}");
        assert!((e_seq - 1024.0).abs() < 64.0, "sequential = {e_seq}");
    }

    #[test]
    fn single_shard_matches_sequential_byte_for_byte() {
        // One shard uses exactly the sequential seeds (cache and RNG),
        // so both builds must reproduce the sequential sketch's counter
        // array bit for bit — the anchor for the multi-shard
        // determinism argument (each shard is "a sequential sketch over
        // its flow subsequence").
        let flows = workload();
        let mut seq = crate::Caesar::new(cfg());
        for &f in &flows {
            seq.record(f);
        }
        seq.finish();
        let conc = ConcurrentCaesar::build(cfg(), 1, &flows);
        assert_eq!(conc.sram().snapshot(), seq.sram().as_slice());
        assert_eq!(conc.sram().total_added(), seq.sram().total_added());
        assert_eq!(conc.evictions(), seq.stats().evictions);
    }

    #[test]
    fn more_shards_than_flows_is_fine() {
        let flows: Vec<u64> = (0..10u64).map(mix64).collect();
        let c = ConcurrentCaesar::build(cfg(), 32, &flows);
        assert_eq!(c.sram().total_added(), 10);
    }

    #[test]
    fn empty_is_the_merge_identity() {
        let flows = workload();
        let built = ConcurrentCaesar::build(cfg(), 2, &flows);
        let mut agg = ConcurrentCaesar::empty(cfg());
        assert_eq!(agg.sram().total_added(), 0);
        agg.merge(&built).unwrap();
        assert_eq!(agg.sram().snapshot(), built.sram().snapshot());
        assert_eq!(agg.sram().total_added(), built.sram().total_added());
        assert_eq!(agg.evictions(), built.evictions());
        // Queries on the merged view match the original sketch exactly.
        let big = mix64(63);
        assert_eq!(agg.query(big).to_bits(), built.query(big).to_bits());
    }

    #[test]
    fn merge_conserves_total_mass() {
        let flows = workload();
        let (a_flows, b_flows) = flows.split_at(flows.len() / 2);
        let a = ConcurrentCaesar::build(cfg(), 2, a_flows);
        let b = ConcurrentCaesar::build(cfg(), 4, b_flows);
        let mut merged = ConcurrentCaesar::empty(cfg());
        merged.merge(&a).unwrap();
        merged.merge(&b).unwrap();
        assert_eq!(
            merged.sram().total_added(),
            a.sram().total_added() + b.sram().total_added()
        );
        assert_eq!(merged.sram().sum(), a.sram().sum() + b.sram().sum());
        assert_eq!(merged.evictions(), a.evictions() + b.evictions());
    }

    #[test]
    fn merge_rejects_mismatched_fingerprints() {
        let mut a = ConcurrentCaesar::empty(cfg());
        let b = ConcurrentCaesar::empty(CaesarConfig { k: 4, ..cfg() });
        assert!(matches!(
            a.merge(&b),
            Err(MergeError::Geometry { field: "k", .. })
        ));
        let c = ConcurrentCaesar::empty(CaesarConfig { seed: 99, ..cfg() });
        assert!(matches!(a.merge(&c), Err(MergeError::Seed { .. })));
    }

    #[test]
    fn sketch_payload_roundtrip_merges_identically() {
        let flows = workload();
        let (a_flows, b_flows) = flows.split_at(flows.len() / 3);
        let a = ConcurrentCaesar::build(cfg(), 1, a_flows);
        let b = ConcurrentCaesar::build(cfg(), 2, b_flows);

        // Path 1: in-process merge of live sketches.
        let mut direct = ConcurrentCaesar::empty(cfg());
        direct.merge(&a).unwrap();
        direct.merge(&b).unwrap();

        // Path 2: wire payloads (encode → decode → merge_sketch).
        let mut wired = ConcurrentCaesar::empty(cfg());
        for node in [&a, &b] {
            let bytes = node.export_sketch().encode();
            let payload = SketchPayload::decode(&bytes).unwrap();
            wired.merge_sketch(&payload).unwrap();
        }

        assert_eq!(direct.sram().snapshot(), wired.sram().snapshot());
        assert_eq!(direct.sram().total_added(), wired.sram().total_added());
        assert_eq!(direct.sram().saturations(), wired.sram().saturations());
        assert_eq!(direct.evictions(), wired.evictions());
    }

    #[test]
    fn delta_pushes_converge_to_the_full_push_view() {
        // A tap that pushes full, then deltas, must leave the
        // aggregator in exactly the state a final full push describes.
        let flows = workload();
        let third = flows.len() / 3;
        let mut tap = ConcurrentCaesar::empty(cfg());
        let mut view = ConcurrentCaesar::empty(cfg());

        // Epoch 0: full push.
        tap.merge(&ConcurrentCaesar::build(cfg(), 1, &flows[..third])).unwrap();
        let mut prev = tap.export_sketch();
        view.merge_sketch(&prev).unwrap();

        // Epochs 1..: delta pushes (encode → decode → merge_delta).
        for (epoch, chunk) in flows[third..].chunks(third).enumerate() {
            tap.merge(&ConcurrentCaesar::build(cfg(), 2, chunk)).unwrap();
            let cur = tap.export_sketch();
            let delta = SketchDelta::between(&prev, &cur, epoch as u64).unwrap();
            let wired = SketchDelta::decode(&delta.encode()).unwrap();
            view.merge_delta(&wired).unwrap();
            prev = cur;
        }

        // The delta-fed view equals a view fed one cumulative payload.
        let mut reference = ConcurrentCaesar::empty(cfg());
        reference.merge_sketch(&tap.export_sketch()).unwrap();
        assert_eq!(view.sram().snapshot(), reference.sram().snapshot());
        assert_eq!(view.sram().total_added(), reference.sram().total_added());
        assert_eq!(view.sram().saturations(), reference.sram().saturations());
        assert_eq!(view.evictions(), reference.evictions());

        // Foreign deltas are rejected typed.
        let foreign_cfg = CaesarConfig { seed: 0xBAD, ..cfg() };
        let f = ConcurrentCaesar::empty(foreign_cfg).export_sketch();
        let foreign = SketchDelta::between(&f, &f, 0).unwrap();
        assert!(matches!(view.merge_delta(&foreign), Err(MergeError::Seed { .. })));
    }

    #[test]
    fn merged_view_health_reports_folded_saturation() {
        let flows = workload();
        let built = ConcurrentCaesar::build(cfg(), 2, &flows);
        let mut agg = ConcurrentCaesar::empty(cfg());
        agg.merge(&built).unwrap();
        let healthy = agg.query_health(mix64(63));
        assert!(!healthy.is_degraded());
        assert_eq!(healthy.confidence, 1.0);
        // Fold in a payload carrying saturation events: confidence on
        // flows touching pinned counters must degrade.
        let mut sat_payload = built.export_sketch();
        let cap = (1u64 << cfg().counter_bits) - 1;
        for c in sat_payload.counters.iter_mut() {
            *c = cap;
        }
        sat_payload.saturation_events = 1;
        agg.merge_sketch(&sat_payload).unwrap();
        let degraded = agg.query_health(mix64(63));
        assert!(degraded.is_degraded());
        assert!(degraded.confidence < healthy.confidence);
        assert_eq!(degraded.saturated_counters, cfg().k);
    }
}
