//! The checkpoint codec: one frame layout for full snapshots (magic
//! `CSNP`) and `CDLT` delta links, one validating decoder for both,
//! and the counter-block section the `CSKP` and `CSKD` wire frames
//! share. The layout tables are in DESIGN §4j.
//!
//! A frame holds only what a restore cannot recompute: the memo rows,
//! the writeback segment's shape, the SRAM geometry and the tally
//! count all follow from the fingerprint, the settings and the
//! resident flows. So a forged copy of derived state cannot be
//! expressed. Decoding checks seal, magic, version, fingerprint,
//! chain, sequence, then structure, and bounds every count by the
//! bytes left before anything is sized from it. The counter section is
//! sparse (a snapshot lists the nonzero counters, a link the written
//! ones), so the input does not bound `L`: the SRAM a snapshot sizes
//! from it is allocated fallibly.

use std::ops::Range;
use std::sync::Arc;

use crate::atomic_sram::{AtomicCounterArray, WritebackState};
use crate::concurrent::{ConcurrentCaesar, IngestStats, ShardWorker, ShardWorkerState};
use crate::config::CaesarConfig;
use crate::lane::{Lane, LaneLedger};
use crate::merge::SketchFingerprint;
use crate::online::{
    BackpressurePolicy, DeltaError, FaultKind, FaultLog, FaultRecord, OnlineCaesar, OnlineEngine,
    Pump, RestoreError,
};
use crate::sram::DIRTY_BLOCK_COUNTERS;
use cachesim::{CachePolicy, CacheStats, CacheTableState};
use hashkit::KCounterMap;
use support::bytesx::{seal, unseal_with_checksum, ByteReader, PutBytes, VarintError};

const SNAPSHOT_MAGIC: &[u8; 4] = b"CSNP";
const DELTA_MAGIC: &[u8; 4] = b"CDLT";

/// Frame layout version, shared by snapshots and deltas (bump on
/// layout changes; the sealed footer's own version is managed by
/// [`support::bytesx`]). Version 3 unified the two kinds, version 4
/// made the counter-block section sparse, version 5 stores a cache as
/// slots and a recency order; earlier frames are refused, not read.
const FRAME_VERSION: u16 = 5;

// ---------------------------------------------------------------------
// Counter-block section (shared with `CSKP` and `CSKD`)
// ---------------------------------------------------------------------

/// Tag of a block listed by its 64-bit change mask.
const TAG_MASK: u8 = 0;
/// Tag of a block listed by a position count and in-block positions.
const TAG_POSITIONS: u8 = 1;
/// The most listed counters the positions form is used for: beyond
/// it, `1 + n` position bytes are no smaller than the 8-byte mask.
const POSITIONS_MAX: u32 = 6;
/// The fewest bytes a listed block takes: its gap, tag, a position
/// count of one, the position and one value.
const BLOCK_MIN_BYTES: usize = 5;

/// Why a counter-block section was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockError {
    /// The input ran out, or cannot hold the count it declares.
    Truncated,
    /// A field decoded but violates the section's structure.
    Malformed(&'static str),
}

impl From<VarintError> for BlockError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => BlockError::Truncated,
            VarintError::Overlong => BlockError::Malformed("overlong varint"),
            VarintError::Overflow => BlockError::Malformed("varint exceeds 64 bits"),
        }
    }
}

/// The counters of block `block < len.div_ceil(DIRTY_BLOCK_COUNTERS)`
/// in an array of `len`: a full [`DIRTY_BLOCK_COUNTERS`] span, or the
/// short tail. Saturating, for a `len` from outside near `usize::MAX`.
pub(crate) fn block_span(block: usize, len: usize) -> Range<usize> {
    let start = block * DIRTY_BLOCK_COUNTERS;
    start..start.saturating_add(DIRTY_BLOCK_COUNTERS).min(len)
}

/// The in-block positions of `mask`'s set bits, ascending.
pub(crate) fn positions(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let at = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        at
    })
}

/// Write a sparse counter-block section: a LEB128 count of listed
/// blocks, then per block its index gap (LEB128: the index minus the
/// previous block's plus one; the first block's index itself), a tag
/// byte choosing the smaller form — [`TAG_MASK`] and the 64-bit change
/// mask, or [`TAG_POSITIONS`], a position count and one byte per
/// position — and one LEB128 value per listed counter, in position
/// order. `blocks` yields `(index, mask, value)`, strictly ascending,
/// each mask nonzero, with `value(i)` the block's counter `i`.
pub(crate) fn put_blocks<B, I, F>(buf: &mut B, blocks: I)
where
    B: PutBytes,
    I: ExactSizeIterator<Item = (usize, u64, F)>,
    F: Fn(usize) -> u64,
{
    buf.put_uvarint(blocks.len() as u64);
    let mut next = 0usize;
    for (block, mask, value) in blocks {
        debug_assert!(mask != 0, "a listed block lists a counter");
        // Wrapping: a misordered block (a hand-built `SketchDelta`'s)
        // encodes to a gap the decoder refuses, not a panic here.
        buf.put_uvarint(block.wrapping_sub(next) as u64);
        next = block.wrapping_add(1);
        let n = mask.count_ones();
        if n <= POSITIONS_MAX {
            buf.put_u8(TAG_POSITIONS);
            buf.put_u8(n as u8);
            for i in positions(mask) {
                buf.put_u8(i as u8);
            }
        } else {
            buf.put_u8(TAG_MASK);
            buf.put_u64_le(mask);
        }
        for i in positions(mask) {
            buf.put_uvarint(value(i));
        }
    }
}

/// The section listing `masks`' counters of `sram`, read straight from
/// the array without copying it.
fn put_sram_blocks(buf: &mut Vec<u8>, sram: &AtomicCounterArray, masks: &[(usize, u64)]) {
    let value = |block: usize| move |i| sram.get(block * DIRTY_BLOCK_COUNTERS + i);
    put_blocks(buf, masks.iter().map(|&(block, mask)| (block, mask, value(block))));
}

/// A decoded counter-block section: the listed blocks as `(index,
/// change mask)` pairs, strictly ascending, each mask nonzero and
/// inside its block's span, and one value per set mask bit, block by
/// block in position order.
#[derive(Debug)]
pub(crate) struct Blocks {
    pub(crate) masks: Vec<(usize, u64)>,
    pub(crate) values: Vec<u64>,
}

impl Blocks {
    /// `(counter index, value)` for every listed counter, ascending.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let index = |block: usize| move |i| block * DIRTY_BLOCK_COUNTERS + i;
        let indices = (self.masks.iter()).flat_map(move |&(b, mask)| positions(mask).map(index(b)));
        indices.zip(self.values.iter().copied())
    }
}

/// Read a [`put_blocks`] section for an array of `len` counters, every
/// value at most `max` (`None` for increments, which are unbounded).
/// Refused: a block past the array, an empty block (mask zero), a
/// position outside the block's span, positions not strictly
/// ascending, an unknown tag, a non-canonical varint. What it
/// allocates is bounded by the input, not by `len`: each listed block
/// takes [`BLOCK_MIN_BYTES`] and each value a byte.
pub(crate) fn get_blocks(
    r: &mut ByteReader<'_>,
    len: usize,
    max: Option<u64>,
) -> Result<Blocks, BlockError> {
    let total = len.div_ceil(DIRTY_BLOCK_COUNTERS);
    let max = max.unwrap_or(u64::MAX);
    let count = r.get_uvarint()?;
    if count > total as u64 {
        return Err(BlockError::Malformed("more changed blocks than blocks"));
    }
    // `total` trusts the sender's `len`, so it bounds nothing; the
    // input does.
    let count = count as usize;
    if count > r.remaining() / BLOCK_MIN_BYTES {
        return Err(BlockError::Truncated);
    }
    let mut masks = Vec::with_capacity(count);
    let mut values = Vec::new();
    let mut next = 0usize;
    for _ in 0..count {
        let gap = r.get_uvarint()?;
        let block = usize::try_from(gap).ok().and_then(|gap| next.checked_add(gap));
        let block = (block.filter(|&b| b < total))
            .ok_or(BlockError::Malformed("block index out of range"))?;
        let span = block_span(block, len).len();
        let mask = match r.get_u8().ok_or(BlockError::Truncated)? {
            TAG_MASK => r.get_u64_le().ok_or(BlockError::Truncated)?,
            TAG_POSITIONS => {
                let n = r.get_u8().ok_or(BlockError::Truncated)?;
                if n == 0 || usize::from(n) > span {
                    return Err(BlockError::Malformed("position count"));
                }
                let at = r.get_slice(usize::from(n)).ok_or(BlockError::Truncated)?;
                if at.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(BlockError::Malformed("positions not strictly ascending"));
                }
                // Ascending, so the last is the largest: checking it
                // bounds the shifts below.
                if usize::from(at[at.len() - 1]) >= span {
                    return Err(BlockError::Malformed("position outside block"));
                }
                at.iter().fold(0u64, |mask, &i| mask | 1 << i)
            }
            _ => return Err(BlockError::Malformed("block tag")),
        };
        if mask == 0 {
            return Err(BlockError::Malformed("empty block"));
        }
        if span < DIRTY_BLOCK_COUNTERS && mask >> span != 0 {
            return Err(BlockError::Malformed("position outside block"));
        }
        for _ in 0..mask.count_ones() {
            let v = r.get_uvarint()?;
            if v > max {
                return Err(BlockError::Malformed("counter exceeds width"));
            }
            values.push(v);
        }
        masks.push((block, mask));
        next = block + 1;
    }
    Ok(Blocks { masks, values })
}

impl From<BlockError> for DeltaError {
    fn from(e: BlockError) -> Self {
        match e {
            BlockError::Truncated => DeltaError::Truncated,
            BlockError::Malformed(why) => DeltaError::Corrupt(why),
        }
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// The engine settings the fingerprint does not carry. With the
/// fingerprint they are everything a restore builds an engine from; a
/// delta must match its engine's exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Settings {
    cache_entries: usize,
    cache_policy: CachePolicy,
    shards: usize,
    policy: BackpressurePolicy,
    ring_capacity: usize,
    epoch_len: u64,
    watchdog_deadline: u64,
}

impl Settings {
    fn of<D>(e: &OnlineEngine<D>) -> Self {
        Self {
            cache_entries: e.cfg.cache_entries,
            cache_policy: e.cfg.policy,
            shards: e.shards,
            policy: e.policy,
            ring_capacity: e.ring_capacity,
            epoch_len: e.epoch_len,
            watchdog_deadline: e.watchdog_deadline,
        }
    }

    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.cache_entries as u64);
        buf.push(match self.cache_policy {
            CachePolicy::Lru => 0,
            CachePolicy::Random => 1,
            CachePolicy::Fifo => 2,
        });
        buf.put_u64_le(self.shards as u64);
        buf.push(self.policy.to_u8());
        buf.put_u64_le(self.ring_capacity as u64);
        buf.put_u64_le(self.epoch_len);
        buf.put_u64_le(self.watchdog_deadline);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, DeltaError> {
        let cache_entries = get_usize(r)?;
        let cache_policy = match get_u8(r)? {
            0 => CachePolicy::Lru,
            1 => CachePolicy::Random,
            2 => CachePolicy::Fifo,
            _ => return Err(DeltaError::Corrupt("cache policy")),
        };
        let shards = get_usize(r)?;
        let policy = BackpressurePolicy::from_u8(get_u8(r)?)
            .ok_or(DeltaError::Corrupt("backpressure policy"))?;
        Ok(Self {
            cache_entries,
            cache_policy,
            shards,
            policy,
            ring_capacity: get_usize(r)?,
            epoch_len: get_u64(r)?,
            watchdog_deadline: get_u64(r)?,
        })
    }

    /// The scaffold of the engine `fp` and these settings describe, or
    /// why none can be built. `remaining` is the input left after the
    /// frame's scalars: a snapshot carries a tally pair and a lane
    /// section per shard, so the input bounds the shard count before
    /// anything is sized from it. `L` it cannot bound (a snapshot
    /// lists only nonzero counters), so the SRAM is sized fallibly: a
    /// size the allocator refuses is `Corrupt`, not an abort.
    fn scaffold(&self, fp: &SketchFingerprint, remaining: usize) -> Result<Scaffold, DeltaError> {
        if self.shards > remaining / (16 + LANE_SECTION_MIN) {
            return Err(DeltaError::Truncated);
        }
        let cfg = CaesarConfig {
            cache_entries: self.cache_entries,
            entry_capacity: fp.entry_capacity,
            policy: self.cache_policy,
            counters: fp.counters,
            k: fp.k,
            counter_bits: fp.counter_bits,
            estimator: fp.estimator,
            seed: fp.seed,
        };
        ConcurrentCaesar::check_shape(&cfg, self.shards).map_err(DeltaError::Corrupt)?;
        if self.ring_capacity == 0 || self.epoch_len == 0 || self.watchdog_deadline == 0 {
            return Err(DeltaError::Corrupt("zero ring capacity, epoch length or watchdog"));
        }
        let (sram, kmap, entries) =
            ConcurrentCaesar::try_scaffold(&cfg, self.shards).map_err(DeltaError::Corrupt)?;
        Ok(Scaffold { cfg, settings: *self, sram: Arc::new(sram), kmap: Arc::new(kmap), entries })
    }
}

/// An engine short of its lanes and state: what a frame body is
/// checked and built against. A delta's is its engine's; a snapshot's
/// is the configuration and settings it carries, plus the zeroed SRAM,
/// the k-map and the per-shard cache split they determine. Lanes are
/// built one by one as their sections decode.
struct Scaffold {
    cfg: CaesarConfig,
    settings: Settings,
    sram: Arc<AtomicCounterArray>,
    kmap: Arc<KCounterMap>,
    entries: Vec<usize>,
}

impl Scaffold {
    fn of(e: &OnlineCaesar) -> Self {
        let (sram, kmap) = (Arc::clone(&e.sram), Arc::clone(&e.kmap));
        Self { cfg: e.cfg, settings: Settings::of(e), sram, kmap, entries: e.entries.clone() }
    }

    /// The engine, without lanes until a [`Body`] is applied.
    fn engine(self) -> OnlineCaesar {
        let Settings { shards, policy, ring_capacity, epoch_len, watchdog_deadline, .. } =
            self.settings;
        OnlineEngine {
            cfg: self.cfg,
            shards,
            policy,
            ring_capacity,
            epoch_len,
            watchdog_deadline,
            sram: self.sram,
            kmap: self.kmap,
            entries: self.entries,
            lanes: Vec::new(),
            epoch: 0,
            merges: 0,
            offered_total: 0,
            chain: None,
            driver: Pump::default(),
        }
    }
}

/// Seal a frame of `e`'s state into `buf`: a snapshot listing every
/// nonzero counter when `link` is `None`, else the `CDLT` link
/// `(chain id, sequence)` listing every counter written since the last
/// checkpoint (consuming the dirty baseline). Returns the seal's
/// checksum, a snapshot's chain id. The caller has quiesced the driver.
pub(crate) fn encode_frame<D>(
    buf: &mut Vec<u8>,
    e: &mut OnlineEngine<D>,
    link: Option<(u64, u64)>,
) -> u64 {
    buf.clear();
    buf.put_slice(if link.is_some() { DELTA_MAGIC } else { SNAPSHOT_MAGIC });
    buf.put_u16_le(FRAME_VERSION);
    // The sketch identity leads the frame so a peer can check merge
    // compatibility (see [`SketchFingerprint`]) without decoding — or
    // trusting — the rest of the state.
    SketchFingerprint::of(&e.cfg).encode_into(buf);
    let (chain_id, seq) = link.unwrap_or((0, 0));
    buf.put_u64_le(chain_id);
    buf.put_u64_le(seq);
    Settings::of(e).put(buf);
    buf.put_u64_le(e.epoch);
    buf.put_u64_le(e.merges);
    buf.put_u64_le(e.offered_total);
    let sram = &e.sram;
    let masks = match link {
        // An absent counter is zero in the restore's zeroed scaffold.
        None => sram.nonzero_masks(),
        Some(_) => sram.take_dirty_masks(),
    };
    put_sram_blocks(buf, sram, &masks);
    for (added, sat) in sram.tally_snapshot() {
        buf.put_u64_le(added);
        buf.put_u64_le(sat);
    }
    for lane in &mut e.lanes {
        LaneSection::of(lane).put(buf);
    }
    seal(buf)
}

/// Unseal a frame and read its kind (snapshot frames come back as
/// `true`) and fingerprint, with the seal checksum.
fn read_header(bytes: &[u8]) -> Result<(bool, SketchFingerprint, u64, ByteReader<'_>), DeltaError> {
    let (payload, checksum) = unseal_with_checksum(bytes)?;
    let mut r = ByteReader::new(payload);
    let magic = r.get_array::<4>().ok_or(DeltaError::Truncated)?;
    let snapshot = match &magic {
        SNAPSHOT_MAGIC => true,
        DELTA_MAGIC => false,
        _ => return Err(DeltaError::BadMagic),
    };
    let version = r.get_u16_le().ok_or(DeltaError::Truncated)?;
    if version != FRAME_VERSION {
        return Err(DeltaError::UnsupportedVersion(version));
    }
    let fingerprint = SketchFingerprint::decode_from(&mut r).ok_or(DeltaError::Truncated)?;
    Ok((snapshot, fingerprint, checksum, r))
}

/// A frame's body, validated in full against the engine it restores
/// or extends: nothing in it can make that engine panic.
struct Body {
    /// The chain position the frame leaves its engine at.
    chain: (u64, u64),
    epoch: u64,
    merges: u64,
    offered_total: u64,
    blocks: Blocks,
    tallies: Vec<(u64, u64)>,
    lanes: Vec<Lane>,
}

impl Body {
    /// Install the body on `e`.
    fn apply(self, e: &mut OnlineCaesar) {
        // Plain stores: the values are absolute.
        e.sram.store_counters(self.blocks.counters());
        e.sram.restore_tallies(&self.tallies);
        e.epoch = self.epoch;
        e.merges = self.merges;
        e.offered_total = self.offered_total;
        e.lanes = self.lanes;
        e.chain = Some(self.chain);
        // Replayed state is the new baseline, exactly as it was on the
        // emitting engine the instant after its drain.
        let _ = e.sram.take_dirty_blocks();
    }
}

/// Decode and validate a whole frame before any state is touched: the
/// next `CDLT` link of `base`'s chain, which must share its fingerprint
/// and settings; or, without a `base`, a snapshot. Returned with the
/// scaffold the body was checked against.
fn decode_frame(bytes: &[u8], base: Option<&OnlineCaesar>) -> Result<(Scaffold, Body), DeltaError> {
    let (snapshot, fingerprint, checksum, mut r) = read_header(bytes)?;
    if snapshot != base.is_none() {
        return Err(DeltaError::BadMagic);
    }
    if let Some(e) = base {
        SketchFingerprint::of(&e.cfg)
            .expect_matches(&fingerprint)
            .map_err(DeltaError::Incompatible)?;
    }
    let chain_id = get_u64(&mut r)?;
    let seq = get_u64(&mut r)?;
    match base.map(|e| e.chain.ok_or(DeltaError::NoBase)).transpose()? {
        Some((expected, _)) if chain_id != expected => {
            return Err(DeltaError::ForeignChain { expected, found: chain_id });
        }
        Some((_, at)) if seq != at + 1 => {
            return Err(DeltaError::Sequence { expected: at + 1, found: seq });
        }
        None if (chain_id, seq) != (0, 0) => {
            return Err(DeltaError::Corrupt("snapshot carries a chain position"));
        }
        _ => {}
    }
    let settings = Settings::get(&mut r)?;
    let epoch = get_u64(&mut r)?;
    let merges = get_u64(&mut r)?;
    let offered_total = get_u64(&mut r)?;
    let scaffold = match base {
        Some(e) if settings != Settings::of(e) => {
            return Err(DeltaError::Corrupt("settings disagree with the engine"));
        }
        Some(e) => Scaffold::of(e),
        None => settings.scaffold(&fingerprint, r.remaining())?,
    };
    let len = scaffold.cfg.counters;
    let blocks = get_blocks(&mut r, len, Some(scaffold.sram.max_value()))?;
    let tallies = (0..settings.shards)
        .map(|_| Ok((get_u64(&mut r)?, get_u64(&mut r)?)))
        .collect::<Result<Vec<_>, DeltaError>>()?;
    let lanes = (scaffold.entries.iter().enumerate())
        .map(|(shard, &n)| LaneSection::get(&mut r)?.into_lane(&scaffold, shard, n))
        .collect::<Result<Vec<_>, _>>()?;
    if r.remaining() != 0 {
        return Err(DeltaError::Corrupt("trailing bytes"));
    }
    let offers = lanes.iter().try_fold(0u64, |sum, l| sum.checked_add(l.ledger.offered));
    if offers != Some(offered_total) {
        return Err(DeltaError::Corrupt("lane offers do not sum to the engine's"));
    }
    // A snapshot's chain id is its seal checksum, the one the emitting
    // engine kept: a restored engine continues the chain it anchored.
    let chain = (if snapshot { checksum } else { chain_id }, seq);
    Ok((scaffold, Body { chain, epoch, merges, offered_total, blocks, tallies, lanes }))
}

/// Build a pump engine from a snapshot frame.
pub(crate) fn restore(bytes: &[u8]) -> Result<OnlineCaesar, RestoreError> {
    let (scaffold, body) = decode_frame(bytes, None).map_err(restore_error)?;
    let mut e = scaffold.engine();
    body.apply(&mut e);
    Ok(e)
}

/// Decode, validate and apply the next `CDLT` link of `e`'s chain; a
/// refused frame leaves `e` untouched.
pub(crate) fn apply_delta(e: &mut OnlineCaesar, bytes: &[u8]) -> Result<(), DeltaError> {
    e.chain.ok_or(DeltaError::NoBase)?;
    let (_, body) = decode_frame(bytes, Some(e))?;
    body.apply(e);
    Ok(())
}

/// A frame error as the snapshot path reports it.
fn restore_error(e: DeltaError) -> RestoreError {
    match e {
        DeltaError::Seal(s) => RestoreError::Seal(s),
        DeltaError::Truncated => RestoreError::Truncated,
        DeltaError::UnsupportedVersion(v) => RestoreError::UnsupportedVersion(v),
        DeltaError::Corrupt(why) => RestoreError::Corrupt(why),
        DeltaError::BadMagic => RestoreError::Corrupt("not a snapshot frame"),
        DeltaError::Incompatible(_)
        | DeltaError::ForeignChain { .. }
        | DeltaError::Sequence { .. }
        | DeltaError::NoBase => RestoreError::Corrupt("base-engine check on a snapshot frame"),
    }
}

// ---------------------------------------------------------------------
// Lane sections
// ---------------------------------------------------------------------

/// The fewest bytes a lane section encodes to (no ring contents, cache
/// slots, recency order, staged increments or fault records): the
/// ledger and pump scalars, the ring length, the retired ingest stats,
/// the worker's fixed fields and counts, and the fault-log count.
const LANE_SECTION_MIN: usize =
    5 * 8 + 1 + 8 + 8 + 4 * 8 + (8 + 8 + 4 * 8 + 5 * 8 + 4 * 8 + 8 + 4 * 8) + 8;

/// One lane section as plain data: what a frame says about a lane,
/// before any check. The same in both frame kinds (the lane tail is
/// O(cache + staged), small and churned every epoch, so deltas carry
/// it whole) and under both drivers.
#[derive(Debug, Clone)]
struct LaneSection {
    ledger: LaneLedger,
    recorded: u64,
    inline_fallback: bool,
    stalled_attempts: u64,
    /// The packets in the ring, oldest first.
    pending: Vec<u64>,
    worker: ShardWorkerState,
}

impl LaneSection {
    /// Capture `lane`. A ring the engine holds is drained to read its
    /// contents, then re-queued in order (it is empty in between, so
    /// the pushes cannot fail): observably side effect free. A worker
    /// thread's ring is empty here, because the thread driver
    /// quiesces first.
    fn of(lane: &mut Lane) -> Self {
        let mut pending = Vec::new();
        if let Some(rx) = lane.rx.as_mut() {
            while let Some(f) = rx.try_pop() {
                pending.push(f);
            }
        }
        debug_assert_eq!(pending.len() as u64, lane.in_flight());
        for &f in &pending {
            let pushed = lane.tx.try_push(f).is_ok();
            debug_assert!(pushed, "re-queue into an emptied ring cannot fail");
        }
        Self {
            ledger: lane.ledger.clone(),
            recorded: lane.recorded(),
            inline_fallback: lane.inline_fallback,
            stalled_attempts: lane.stalled_attempts,
            pending,
            worker: lane.shared.lock().worker.snapshot_state(),
        }
    }

    fn put(&self, buf: &mut Vec<u8>) {
        let ledger = &self.ledger;
        buf.put_u64_le(ledger.offered);
        buf.put_u64_le(self.recorded);
        buf.put_u64_le(ledger.dropped);
        buf.put_u64_le(ledger.quarantined);
        buf.put_u64_le(ledger.respawns);
        buf.push(u8::from(self.inline_fallback));
        buf.put_u64_le(self.stalled_attempts);
        buf.put_u64_le(self.pending.len() as u64);
        for &f in &self.pending {
            buf.put_u64_le(f);
        }
        encode_ingest_stats(buf, &ledger.retired);
        encode_worker_state(buf, &self.worker);
        encode_fault_log(buf, &ledger.log);
    }

    /// Read a section, bounding every count by the input.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, DeltaError> {
        let (offered, recorded) = (get_u64(r)?, get_u64(r)?);
        let (dropped, quarantined, respawns) = (get_u64(r)?, get_u64(r)?, get_u64(r)?);
        let inline_fallback = get_flag(r, "inline flag")?;
        let stalled_attempts = get_u64(r)?;
        let n_pending = get_count(r, 8)?;
        let pending = (0..n_pending).map(|_| get_u64(r)).collect::<Result<_, _>>()?;
        let retired = decode_ingest_stats(r)?;
        let worker = decode_worker_state(r)?;
        let log = decode_fault_log(r)?;
        let ledger = LaneLedger { offered, dropped, quarantined, respawns, retired, log };
        Ok(Self { ledger, recorded, inline_fallback, stalled_attempts, pending, worker })
    }

    /// Check the section and build shard `shard`'s lane from it. The
    /// counts must reconcile: both runtimes derive in-flight from
    /// them, so a section claiming more settled packets than it was
    /// offered is refused here.
    fn into_lane(self, s: &Scaffold, shard: usize, entries: usize) -> Result<Lane, DeltaError> {
        let ring_capacity = s.settings.ring_capacity;
        if self.pending.len() > ring_capacity {
            return Err(DeltaError::Corrupt("ring contents exceed capacity"));
        }
        let l = &self.ledger;
        let settled = [l.dropped, l.quarantined, self.pending.len() as u64]
            .into_iter()
            .try_fold(self.recorded, u64::checked_add);
        if settled != Some(l.offered) {
            return Err(DeltaError::Corrupt("lane counts do not reconcile"));
        }
        let worker = ShardWorker::restore_state(&s.cfg, shard, entries, &s.kmap, &self.worker)
            .map_err(DeltaError::Corrupt)?;
        let (recorded, pending) = (self.recorded, &self.pending);
        let mut lane = Lane::with_parts(ring_capacity, worker, recorded, self.ledger, pending)
            .ok_or(DeltaError::Corrupt("ring too large to allocate"))?;
        lane.inline_fallback = self.inline_fallback;
        lane.stalled_attempts = self.stalled_attempts;
        Ok(lane)
    }
}

fn get_u8(r: &mut ByteReader<'_>) -> Result<u8, DeltaError> {
    r.get_u8().ok_or(DeltaError::Truncated)
}

fn get_uvarint(r: &mut ByteReader<'_>) -> Result<u64, DeltaError> {
    Ok(r.get_uvarint().map_err(BlockError::from)?)
}

fn get_u64(r: &mut ByteReader<'_>) -> Result<u64, DeltaError> {
    r.get_u64_le().ok_or(DeltaError::Truncated)
}

fn get_usize(r: &mut ByteReader<'_>) -> Result<usize, DeltaError> {
    usize::try_from(get_u64(r)?).map_err(|_| DeltaError::Corrupt("length exceeds usize"))
}

fn get_flag(r: &mut ByteReader<'_>, what: &'static str) -> Result<bool, DeltaError> {
    match get_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DeltaError::Corrupt(what)),
    }
}

/// An element count the remaining input can hold at `width` bytes per
/// element (see [`ByteReader::get_count`]).
fn get_count(r: &mut ByteReader<'_>, width: usize) -> Result<usize, DeltaError> {
    r.get_count(width).ok_or(DeltaError::Truncated)
}

fn get_rng_state(r: &mut ByteReader<'_>) -> Result<[u64; 4], DeltaError> {
    Ok([get_u64(r)?, get_u64(r)?, get_u64(r)?, get_u64(r)?])
}

fn encode_ingest_stats(buf: &mut Vec<u8>, st: &IngestStats) {
    buf.put_u64_le(st.evictions);
    buf.put_u64_le(st.staged_updates);
    buf.put_u64_le(st.flushed_updates);
    buf.put_u64_le(st.flushes);
}

fn decode_ingest_stats(r: &mut ByteReader<'_>) -> Result<IngestStats, DeltaError> {
    Ok(IngestStats {
        evictions: get_u64(r)?,
        staged_updates: get_u64(r)?,
        flushed_updates: get_u64(r)?,
        flushes: get_u64(r)?,
    })
}

fn encode_worker_state(buf: &mut Vec<u8>, st: &ShardWorkerState) {
    // Cache: each slot's flow and count (below `y`, so its varint is
    // short), then the recency order as slot ids.
    buf.put_u64_le(st.cache.slots.len() as u64);
    for &(flow, count) in &st.cache.slots {
        buf.put_u64_le(flow);
        buf.put_uvarint(count);
    }
    buf.put_u64_le(st.cache.order.len() as u64);
    for &slot in &st.cache.order {
        buf.put_uvarint(u64::from(slot));
    }
    for &s in &st.cache.rng {
        buf.put_u64_le(s);
    }
    let stats = &st.cache.stats;
    buf.put_u64_le(stats.hits);
    buf.put_u64_le(stats.misses);
    buf.put_u64_le(stats.overflow_evictions);
    buf.put_u64_le(stats.replacement_evictions);
    buf.put_u64_le(stats.final_dump_entries);
    // Scatter RNG.
    for &s in &st.rng {
        buf.put_u64_le(s);
    }
    // Writeback segment.
    buf.put_u64_le(st.wb.pending.len() as u64);
    for &(idx, v) in &st.wb.pending {
        buf.put_u64_le(idx as u64);
        buf.put_u64_le(v);
    }
    buf.put_u64_le(st.wb.flushes);
    buf.put_u64_le(st.wb.staged_updates);
    buf.put_u64_le(st.wb.flushed_updates);
    buf.put_u64_le(st.evictions);
}

fn decode_worker_state(r: &mut ByteReader<'_>) -> Result<ShardWorkerState, DeltaError> {
    let n_slots = get_count(r, 9)?;
    let slots = (0..n_slots)
        .map(|_| Ok((get_u64(r)?, get_uvarint(r)?)))
        .collect::<Result<Vec<_>, DeltaError>>()?;
    let n_order = get_count(r, 1)?;
    let order = (0..n_order)
        .map(|_| u32::try_from(get_uvarint(r)?).map_err(|_| DeltaError::Corrupt("slot id")))
        .collect::<Result<Vec<_>, DeltaError>>()?;
    let cache_rng = get_rng_state(r)?;
    let stats = CacheStats {
        hits: get_u64(r)?,
        misses: get_u64(r)?,
        overflow_evictions: get_u64(r)?,
        replacement_evictions: get_u64(r)?,
        final_dump_entries: get_u64(r)?,
    };
    let rng = get_rng_state(r)?;
    let n_pending = get_count(r, 16)?;
    let pending = (0..n_pending)
        .map(|_| Ok((get_usize(r)?, get_u64(r)?)))
        .collect::<Result<Vec<_>, DeltaError>>()?;
    Ok(ShardWorkerState {
        cache: CacheTableState { slots, order, rng: cache_rng, stats },
        rng,
        wb: WritebackState {
            pending,
            flushes: get_u64(r)?,
            staged_updates: get_u64(r)?,
            flushed_updates: get_u64(r)?,
        },
        evictions: get_u64(r)?,
    })
}

fn encode_fault_log(buf: &mut Vec<u8>, log: &FaultLog) {
    buf.put_u64_le(log.records.len() as u64);
    for rec in &log.records {
        buf.push(match rec.kind {
            FaultKind::WorkerPanic => 0,
            FaultKind::WatchdogFailover => 1,
        });
        buf.put_u64_le(rec.epoch);
        buf.put_u64_le(rec.at_offered);
        buf.put_u64_le(rec.quarantined);
        buf.put_u64_le(rec.salvaged_units);
        buf.push(u8::from(rec.exact));
        buf.put_u64_le(rec.payload.len() as u64);
        buf.put_slice(rec.payload.as_bytes());
    }
}

fn decode_fault_log(r: &mut ByteReader<'_>) -> Result<FaultLog, DeltaError> {
    // A record is at least its kind, four u64s, the exact flag and the
    // payload length.
    let n = get_count(r, 1 + 4 * 8 + 1 + 8)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = match get_u8(r)? {
            0 => FaultKind::WorkerPanic,
            1 => FaultKind::WatchdogFailover,
            _ => return Err(DeltaError::Corrupt("fault kind")),
        };
        let epoch = get_u64(r)?;
        let at_offered = get_u64(r)?;
        let quarantined = get_u64(r)?;
        let salvaged_units = get_u64(r)?;
        let exact = get_flag(r, "exact flag")?;
        let len = get_count(r, 1)?;
        let bytes = r.get_slice(len).ok_or(DeltaError::Truncated)?;
        let payload =
            String::from_utf8(bytes.to_vec()).map_err(|_| DeltaError::Corrupt("payload utf-8"))?;
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

/// A counter-block section taken apart into its fields, each forgeable
/// apart from the others: the hostile-input tests of both the frame
/// and the `CSKD` codec re-encode sections through it.
#[cfg(test)]
pub(crate) mod raw {
    use super::*;
    use support::rand::rngs::StdRng;
    use support::rand::Rng;

    /// One listed block, field by field.
    #[derive(Debug, Clone)]
    pub(crate) struct RawBlock {
        pub(crate) gap: u64,
        pub(crate) tag: u8,
        pub(crate) mask: u64,
        pub(crate) count: u8,
        pub(crate) positions: Vec<u8>,
        pub(crate) values: Vec<u64>,
    }

    /// A section, field by field. [`RawSection::put`] writes an honest
    /// one byte for byte as [`put_blocks`] does.
    #[derive(Debug, Clone)]
    pub(crate) struct RawSection {
        pub(crate) count: u64,
        pub(crate) blocks: Vec<RawBlock>,
    }

    /// The section fields the forging tests set, one per case.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum SectionField {
        Count,
        Gap,
        Tag,
        Mask,
        PositionCount,
        Position,
        Value,
    }

    pub(crate) const SECTION_FIELDS: [SectionField; 7] = [
        SectionField::Count,
        SectionField::Gap,
        SectionField::Tag,
        SectionField::Mask,
        SectionField::PositionCount,
        SectionField::Position,
        SectionField::Value,
    ];

    impl RawSection {
        /// Read a pristine section.
        pub(crate) fn get(r: &mut ByteReader<'_>, len: usize) -> Self {
            let blocks = get_blocks(r, len, None).expect("pristine blocks");
            let mut values = blocks.values.iter().copied();
            let mut next = 0;
            let raw = (blocks.masks.iter())
                .map(|&(block, mask)| {
                    let gap = (block - next) as u64;
                    next = block + 1;
                    let n = mask.count_ones();
                    RawBlock {
                        gap,
                        tag: if n <= POSITIONS_MAX { TAG_POSITIONS } else { TAG_MASK },
                        mask,
                        count: n as u8,
                        positions: positions(mask).map(|i| i as u8).collect(),
                        values: values.by_ref().take(n as usize).collect(),
                    }
                })
                .collect();
            Self { count: blocks.masks.len() as u64, blocks: raw }
        }

        pub(crate) fn put(&self, buf: &mut Vec<u8>) {
            buf.put_uvarint(self.count);
            for b in &self.blocks {
                buf.put_uvarint(b.gap);
                buf.push(b.tag);
                if b.tag == TAG_MASK {
                    buf.put_u64_le(b.mask);
                } else {
                    buf.push(b.count);
                    buf.extend_from_slice(&b.positions);
                }
                for &v in &b.values {
                    buf.put_uvarint(v);
                }
            }
        }

        /// Set `field` to `value` (truncated to the field's width) in a
        /// random block, switching the block to the form that writes
        /// the field. `false` when there is no block to forge.
        pub(crate) fn forge(&mut self, field: SectionField, value: u64, rng: &mut StdRng) -> bool {
            if let SectionField::Count = field {
                self.count = value;
                return true;
            }
            if self.blocks.is_empty() {
                return false;
            }
            let at = rng.gen_range(0..self.blocks.len());
            let b = &mut self.blocks[at];
            match field {
                SectionField::Count => unreachable!("handled above"),
                SectionField::Gap => b.gap = value,
                SectionField::Tag => b.tag = value as u8,
                SectionField::Mask => (b.tag, b.mask) = (TAG_MASK, value),
                SectionField::PositionCount => (b.tag, b.count) = (TAG_POSITIONS, value as u8),
                SectionField::Position => {
                    let j = rng.gen_range(0..b.positions.len());
                    (b.tag, b.positions[j]) = (TAG_POSITIONS, value as u8);
                }
                SectionField::Value => {
                    let j = rng.gen_range(0..b.values.len());
                    b.values[j] = value;
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::FINGERPRINT_BYTES;
    use support::bytesx::unseal;
    use support::rand::rngs::StdRng;
    use support::rand::Rng;
    use support::testkit::{for_each_seed_n, GenExt};
    use raw::{RawSection, SectionField, SECTION_FIELDS};

    /// Payload bytes before the settings: magic, version, fingerprint,
    /// chain id and sequence.
    const HEAD: usize = 4 + 2 + FINGERPRINT_BYTES + 16;

    /// Payload bytes of the settings.
    const SETTINGS: usize = 42;

    /// Payload bytes before the counter blocks: the head, settings and
    /// engine scalars.
    const PRELUDE: usize = HEAD + SETTINGS + 24;

    /// Payload offset of the ring length within a lane section.
    const RING_LEN_AT: usize = 5 * 8 + 1 + 8;

    /// A frame taken apart into plain sections, to be changed and
    /// sealed again with the codec's own encoders.
    struct Parts {
        head: Vec<u8>,
        settings: Settings,
        scalars: Vec<u8>,
        blocks: RawSection,
        tallies: Vec<u8>,
        lanes: Vec<LaneSection>,
    }

    impl Parts {
        fn of(frame: &[u8], len: usize, shards: usize) -> Self {
            let payload = unseal(frame).expect("pristine frame");
            let mut r = ByteReader::new(&payload[PRELUDE..]);
            let blocks = RawSection::get(&mut r, len);
            let tallies = r.get_slice(16 * shards).expect("pristine tallies").to_vec();
            let lanes =
                (0..shards).map(|_| LaneSection::get(&mut r).expect("pristine lane")).collect();
            assert_eq!(r.remaining(), 0, "the parts cover the frame");
            let settings = Settings::get(&mut ByteReader::new(&payload[HEAD..]));
            Self {
                head: payload[..HEAD].to_vec(),
                settings: settings.expect("pristine settings"),
                scalars: payload[HEAD + SETTINGS..PRELUDE].to_vec(),
                blocks,
                tallies,
                lanes,
            }
        }

        /// Encode and seal, first overwriting the `u64` at the payload
        /// offset `raw` picks: a count forged apart from what follows.
        fn seal(&self, raw: Option<(Raw, u64)>) -> Vec<u8> {
            let mut buf = self.head.clone();
            self.settings.put(&mut buf);
            buf.extend_from_slice(&self.scalars);
            self.blocks.put(&mut buf);
            buf.extend_from_slice(&self.tallies);
            let mut lane_at = Vec::new();
            for lane in &self.lanes {
                lane_at.push(buf.len());
                lane.put(&mut buf);
            }
            if let Some((Raw::RingLen(lane), value)) = raw {
                let at = lane_at[lane] + RING_LEN_AT;
                buf[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            seal(&mut buf);
            buf
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Raw {
        RingLen(usize),
    }

    fn cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 64,
            entry_capacity: 8,
            counters: 2048,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    fn traffic(salt: u64, n: u64) -> Vec<u64> {
        (0..n).map(|i| hashkit::mix::mix64((i * 7 + salt) % 211)).collect()
    }

    /// A one-shard engine mid-epoch, with full caches and staged
    /// writeback: its snapshot and the delta link after it.
    fn frames() -> (Vec<u8>, Vec<u8>) {
        frames_under(cfg())
    }

    fn frames_under(under: CaesarConfig) -> (Vec<u8>, Vec<u8>) {
        let mut live = OnlineCaesar::new(under, 1).with_epoch_len(1 << 20);
        live.offer_batch(&traffic(0, 3_000));
        let base = live.snapshot();
        live.offer_batch(&traffic(1, 2_000));
        let delta = live.checkpoint_delta().expect("anchored chain");
        (base, delta)
    }

    /// Apply `edit` to the lane of both frames: the snapshot must be
    /// refused as corrupt by restore, and the delta by delta replay,
    /// which leaves the replica as it was.
    fn assert_refused(edit: impl Fn(&mut LaneSection)) {
        assert_refused_under(cfg(), edit);
    }

    fn assert_refused_under(under: CaesarConfig, edit: impl Fn(&mut LaneSection)) {
        let (base, delta) = frames_under(under);
        for (frame, is_delta) in [(&base, false), (&delta, true)] {
            let mut parts = Parts::of(frame, under.counters, 1);
            edit(&mut parts.lanes[0]);
            let forged = parts.seal(None);
            if is_delta {
                let mut replica = OnlineCaesar::restore(&base).expect("base restores");
                let refused = replica.apply_delta(&forged);
                assert!(matches!(refused, Err(DeltaError::Corrupt(_))), "{refused:?}");
                replica.apply_delta(delta.as_slice()).expect("the pristine link still applies");
            } else {
                let refused = OnlineCaesar::restore(&forged).err();
                assert!(matches!(refused, Some(RestoreError::Corrupt(_))), "{refused:?}");
            }
        }
    }

    #[test]
    fn reencoding_pristine_frames_reproduces_them() {
        let (base, delta) = frames();
        for frame in [&base, &delta] {
            assert_eq!(&Parts::of(frame, cfg().counters, 1).seal(None), frame);
        }
        let st = &Parts::of(&base, cfg().counters, 1).lanes[0].worker;
        assert!(st.cache.slots.len() >= 2, "the cache holds flows");
        assert!(st.wb.pending.len() >= 2, "the writeback segment holds increments");
    }

    #[test]
    fn snapshots_list_nonzero_counters_and_deltas_written_ones() {
        // Epochs short enough that the SRAM fills between frames, over
        // ~9 written counters per block: some blocks take each form.
        let cfg = CaesarConfig { counters: 4096, ..cfg() };
        let mut live = OnlineCaesar::new(cfg, 1).with_epoch_len(500);
        // A fresh engine's snapshot lists no counter at all.
        let fresh = Parts::of(&live.snapshot(), cfg.counters, 1);
        assert_eq!(fresh.blocks.count, 0);
        live.offer_batch(&traffic(0, 3_000));
        let base = live.snapshot();
        let sram = live.sram().snapshot();
        let listed = Parts::of(&base, cfg.counters, 1).blocks;
        let nonzero = sram.iter().filter(|&&v| v != 0).count();
        assert_eq!(listed.blocks.iter().map(|b| b.values.len()).sum::<usize>(), nonzero);
        let forms: std::collections::BTreeSet<u8> = listed.blocks.iter().map(|b| b.tag).collect();
        assert_eq!(forms.len(), 2, "blocks are listed in both forms");
        // A delta lists exactly the counters written since the anchor,
        // at their absolute values.
        live.offer_batch(&traffic(1, 2_000));
        let delta = live.checkpoint_delta().expect("anchored chain");
        let now = live.sram().snapshot();
        let payload = unseal(&delta).expect("pristine");
        let mut r = ByteReader::new(&payload[PRELUDE..]);
        let blocks = get_blocks(&mut r, cfg.counters, None).expect("pristine blocks");
        let written: Vec<(usize, u64)> = blocks.counters().collect();
        for (i, (&was, &is)) in sram.iter().zip(&now).enumerate() {
            if was != is {
                assert!(written.contains(&(i, is)), "counter {i} changed but is not listed");
            }
        }
        assert!(written.iter().all(|&(i, v)| now[i] == v));
    }

    #[test]
    fn earlier_layouts_are_refused_typed() {
        let (base, delta) = frames();
        // A version-2 snapshot began with its version, then the
        // fingerprint: no magic at all.
        let mut old = unseal(&base).expect("pristine")[4..].to_vec();
        old[..2].copy_from_slice(&2u16.to_le_bytes());
        seal(&mut old);
        assert_eq!(
            OnlineCaesar::restore(&old).err(),
            Some(RestoreError::Corrupt("not a snapshot frame"))
        );
        // A version-1 `CDLT` link keeps its magic; version 3, the
        // dense counter-block layout, shares it with the snapshot, and
        // version 4 wrote each cache slot with its recency links.
        let mut replica = OnlineCaesar::restore(&base).expect("base restores");
        for version in [1u16, 3, 4] {
            let mut old = unseal(&delta).expect("pristine").to_vec();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            seal(&mut old);
            assert_eq!(replica.apply_delta(&old), Err(DeltaError::UnsupportedVersion(version)));
        }
        for version in [3u16, 4] {
            let mut old = unseal(&base).expect("pristine").to_vec();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            seal(&mut old);
            let refused = OnlineCaesar::restore(&old).err();
            assert_eq!(refused, Some(RestoreError::UnsupportedVersion(version)));
        }
    }

    #[test]
    fn forged_duplicate_cache_flow_is_refused() {
        assert_refused(|lane| lane.worker.cache.slots[1].0 = lane.worker.cache.slots[0].0);
    }

    #[test]
    fn forged_recency_orders_are_refused() {
        assert_refused(|lane| {
            let order = &mut lane.worker.cache.order;
            order[1] = order[0];
        });
        assert_refused(|lane| lane.worker.cache.order[0] = lane.worker.cache.slots.len() as u32);
        assert_refused(|lane| lane.worker.cache.order.truncate(1));
        // Random replacement keeps no list: any order is forged.
        let random = CaesarConfig { policy: CachePolicy::Random, ..cfg() };
        assert_refused_under(random, |lane| {
            lane.worker.cache.order = (0..lane.worker.cache.slots.len() as u32).collect();
        });
    }

    #[test]
    fn forged_slot_count_above_entries_is_refused() {
        assert_refused(|lane| {
            let cache = &mut lane.worker.cache;
            cache.order.push(cache.slots.len() as u32);
            cache.slots.push((u64::MAX, cache.slots[0].1));
        });
    }

    #[test]
    fn forged_slot_count_at_capacity_is_refused() {
        assert_refused(|lane| lane.worker.cache.slots[0].1 = cfg().entry_capacity);
        assert_refused(|lane| lane.worker.cache.slots[0].1 = u64::MAX);
    }

    #[test]
    fn forged_pending_index_out_of_range_is_refused() {
        assert_refused(|lane| lane.worker.wb.pending[0].0 = 1 << 50);
        assert_refused(|lane| lane.worker.wb.pending[0].0 = cfg().counters);
    }

    #[test]
    fn forged_zero_or_duplicate_pending_increment_is_refused() {
        assert_refused(|lane| lane.worker.wb.pending[0].1 = 0);
        assert_refused(|lane| lane.worker.wb.pending[1].0 = lane.worker.wb.pending[0].0);
    }

    /// Apply `edit` to the settings of both frames: each must be
    /// refused typed (a delta must match its engine's settings).
    fn assert_settings_refused(edit: impl Fn(&mut Settings)) {
        let (base, delta) = frames();
        for frame in [&base, &delta] {
            let mut parts = Parts::of(frame, cfg().counters, 1);
            edit(&mut parts.settings);
            let forged = parts.seal(None);
            let mut replica = OnlineCaesar::restore(&base).expect("base restores");
            if frame == &delta {
                let refused = replica.apply_delta(&forged);
                assert_eq!(refused, Err(DeltaError::Corrupt("settings disagree with the engine")));
            } else {
                let refused = OnlineCaesar::restore(&forged).err();
                assert!(refused.is_some(), "{:?}", parts.settings);
            }
        }
    }

    /// Forge the fingerprint's `L` in both frames: the snapshot must be
    /// refused typed (its SRAM is sized from `L`, which a sparse
    /// section no longer bounds), the delta as incompatible.
    fn assert_length_refused(counters: usize) {
        let (base, delta) = frames();
        for frame in [&base, &delta] {
            let mut parts = Parts::of(frame, cfg().counters, 1);
            parts.head[6..14].copy_from_slice(&(counters as u64).to_le_bytes());
            let forged = parts.seal(None);
            if frame == &delta {
                let mut replica = OnlineCaesar::restore(&base).expect("base restores");
                let refused = replica.apply_delta(&forged);
                assert!(matches!(refused, Err(DeltaError::Incompatible(_))), "{refused:?}");
            } else {
                let refused = OnlineCaesar::restore(&forged).err();
                let why = "counter array too large to allocate";
                assert_eq!(refused, Some(RestoreError::Corrupt(why)));
            }
        }
    }

    #[test]
    fn forged_settings_are_refused_before_anything_is_sized_from_them() {
        // Sizes whose tables overflow or exceed `isize::MAX` bytes are
        // refused without asking the allocator.
        for n in [0, 1 << 62, usize::MAX] {
            assert_settings_refused(|s| s.cache_entries = n);
            assert_settings_refused(|s| s.ring_capacity = n);
        }
        for n in [1 << 62, usize::MAX] {
            assert_length_refused(n);
        }
        // The input bounds the shard count: each shard needs a tally
        // pair and a lane section.
        for n in [0, 2, 1 << 40, usize::MAX] {
            assert_settings_refused(|s| s.shards = n);
        }
    }

    /// Forged sizes the allocator itself must refuse. Without an
    /// address-space limit a host that overcommits memory might grant
    /// them, so this runs under `ulimit -v` (`scripts/check.sh
    /// --delta-smoke`), where a failed allocation is a typed refusal,
    /// not an abort.
    #[test]
    #[ignore = "needs an address-space limit: run by scripts/check.sh --delta-smoke"]
    fn forged_huge_settings_are_refused_typed_under_an_address_limit() {
        for n in [1 << 30, 1 << 40] {
            assert_settings_refused(|s| s.cache_entries = n);
            assert_settings_refused(|s| s.ring_capacity = n);
        }
        assert_length_refused(1 << 40);
    }

    #[test]
    fn forged_huge_staged_increments_and_tallies_sum_without_overflow() {
        // Each forged value passes the decoder (an increment in range,
        // nonzero and distinct; a tally is any count), so the sums over
        // them must not overflow.
        let (base, _) = frames();
        let mut parts = Parts::of(&base, cfg().counters, 1);
        let mut expected = OnlineCaesar::restore(&base).expect("pristine").unmerged_units();
        for staged in &mut parts.lanes[0].worker.wb.pending[..2] {
            expected = expected.wrapping_sub(staged.1).wrapping_add(u64::MAX);
            staged.1 = u64::MAX;
        }
        let engine = OnlineCaesar::restore(&parts.seal(None)).expect("a valid staged segment");
        assert_eq!(engine.unmerged_units(), expected);

        let mut live = OnlineCaesar::new(cfg(), 2);
        live.offer_batch(&traffic(0, 3_000));
        let mut parts = Parts::of(&live.snapshot(), cfg().counters, 2);
        for stripe in 0..2 {
            let sat = 16 * stripe + 8;
            parts.tallies[sat..sat + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        let engine = OnlineCaesar::restore(&parts.seal(None)).expect("tallies are any counts");
        assert_eq!(engine.sram().saturations(), u64::MAX - 1);
    }

    #[test]
    fn an_empty_lane_section_is_the_minimum_the_shard_bound_assumes() {
        let mut fresh = OnlineCaesar::new(cfg(), 1);
        let mut buf = Vec::new();
        LaneSection::of(&mut fresh.lanes[0]).put(&mut buf);
        assert_eq!(buf.len(), LANE_SECTION_MIN);
    }

    /// A lane whose cache is full costs a flow and a one-byte count per
    /// slot (`y <= 128`), plus a slot id of at most two bytes (at most
    /// 2^14 entries) per order entry where the policy keeps a list.
    #[test]
    fn a_full_cache_costs_at_most_eleven_bytes_per_slot() {
        for (policy, per_slot) in
            [(CachePolicy::Lru, 11), (CachePolicy::Fifo, 11), (CachePolicy::Random, 9)]
        {
            let full =
                CaesarConfig { cache_entries: 1 << 14, entry_capacity: 128, policy, ..cfg() };
            let mut cache = cachesim::CacheTable::new(cachesim::CacheConfig {
                entries: full.cache_entries,
                entry_capacity: full.entry_capacity,
                policy,
                seed: 7,
            });
            for i in 0..200_000u64 {
                cache.record(hashkit::mix::mix64(i * i % 40_009));
            }
            assert_eq!(cache.len(), full.cache_entries, "{policy:?}: the cache is full");
            let mut fresh = OnlineCaesar::new(full, 1);
            let mut section = LaneSection::of(&mut fresh.lanes[0]);
            section.worker.cache = cache.snapshot_state();
            let mut buf = Vec::new();
            section.put(&mut buf);
            assert!(
                buf.len() <= LANE_SECTION_MIN + per_slot * full.cache_entries,
                "{policy:?}: {} bytes",
                buf.len()
            );
            let decoded = LaneSection::get(&mut ByteReader::new(&buf)).expect("a full lane");
            assert_eq!(decoded.worker.cache, section.worker.cache);
        }
    }

    /// The structural fields the property forges, one per case.
    #[derive(Debug, Clone, Copy)]
    enum Field {
        SlotFlow,
        SlotCount,
        Order,
        PendingIndex,
        PendingValue,
        Offered,
        Recorded,
        Dropped,
        Quarantined,
        RingLen,
        Section(SectionField),
    }

    const FIELDS: [Field; 17] = [
        Field::SlotFlow,
        Field::SlotCount,
        Field::Order,
        Field::PendingIndex,
        Field::PendingValue,
        Field::Offered,
        Field::Recorded,
        Field::Dropped,
        Field::Quarantined,
        Field::RingLen,
        Field::Section(SECTION_FIELDS[0]),
        Field::Section(SECTION_FIELDS[1]),
        Field::Section(SECTION_FIELDS[2]),
        Field::Section(SECTION_FIELDS[3]),
        Field::Section(SECTION_FIELDS[4]),
        Field::Section(SECTION_FIELDS[5]),
        Field::Section(SECTION_FIELDS[6]),
    ];

    /// Set `field` to `value` (truncated to the field's width) at a
    /// random element of a random lane. `None` when the frame has no
    /// such element; otherwise the raw count patch, if the field is one.
    fn forge(
        parts: &mut Parts,
        field: Field,
        value: u64,
        rng: &mut StdRng,
    ) -> Option<Option<(Raw, u64)>> {
        let lane = rng.gen_range(0..parts.lanes.len());
        let section = &mut parts.lanes[lane];
        let (slots, order) = (&mut section.worker.cache.slots, &mut section.worker.cache.order);
        let pending = &mut section.worker.wb.pending;
        let slot = (!slots.is_empty()).then(|| rng.gen_range(0..slots.len()));
        let listed = (!order.is_empty()).then(|| rng.gen_range(0..order.len()));
        let staged = (!pending.is_empty()).then(|| rng.gen_range(0..pending.len()));
        match field {
            Field::SlotFlow => slots[slot?].0 = value,
            Field::SlotCount => slots[slot?].1 = value,
            Field::Order => order[listed?] = value as u32,
            Field::PendingIndex => pending[staged?].0 = value as usize,
            Field::PendingValue => pending[staged?].1 = value,
            Field::Offered => section.ledger.offered = value,
            Field::Recorded => section.recorded = value,
            Field::Dropped => section.ledger.dropped = value,
            Field::Quarantined => section.ledger.quarantined = value,
            Field::RingLen => return Some(Some((Raw::RingLen(lane), value))),
            Field::Section(field) => parts.blocks.forge(field, value, rng).then_some(())?,
        }
        Some(None)
    }

    /// A restored engine must keep its accounting identity and go on
    /// measuring: more traffic, then a finish.
    fn assert_runs(mut engine: OnlineCaesar, more: &[u64]) {
        let conserved = |e: &OnlineCaesar| {
            let st = e.stats();
            assert_eq!(st.offered, st.recorded + st.dropped + st.quarantined + st.in_flight);
            for shard in 0..e.shards() {
                let l = e.lane_stats(shard);
                assert_eq!(l.offered, l.recorded + l.dropped + l.quarantined + l.in_flight);
            }
        };
        conserved(&engine);
        engine.offer_batch(more);
        conserved(&engine);
        let _ = engine.finish();
    }

    /// Forge one structural field of a random engine's snapshot or
    /// delta link (boundary values and random ones), re-seal it, and
    /// require a typed refusal or an engine that still runs. A refused
    /// delta leaves its replica unchanged.
    #[test]
    fn forged_frames_are_refused_typed_or_restore_a_working_engine() {
        for_each_seed_n(48, |rng| {
            let shards = rng.gen_range(1usize..4);
            let counters = rng.gen_range(64usize..600);
            let cfg = CaesarConfig {
                cache_entries: rng.gen_range(1usize..48),
                entry_capacity: rng.gen_range(2u64..12),
                counters,
                k: rng.gen_range(1usize..5).min(counters),
                counter_bits: rng.pick(&[8u32, 16, 32]),
                seed: rng.gen(),
                policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
                ..CaesarConfig::default()
            };
            let population = rng.gen_range(1u64..80);
            let mut stream = |n: usize| -> Vec<u64> {
                (0..n).map(|_| hashkit::mix::mix64(rng.gen_range(0..population))).collect()
            };
            let (first, second, more) = (stream(1_500), stream(800), stream(300));
            // Small rings are pumped often, so lanes hold both queued
            // packets and staged writeback at the cut.
            let mut live = OnlineCaesar::new(cfg, shards)
                .with_ring_capacity(rng.gen_range(8..200))
                .with_epoch_len(rng.gen_range(700..3_000));
            live.offer_batch(&first);
            let base = live.snapshot();
            live.offer_batch(&second);
            let delta = live.checkpoint_delta().expect("anchored chain");
            let (l, y) = (counters as u64, cfg.entry_capacity);
            // 6/7 and 63/64 straddle the positions-form limit and the
            // block edge.
            let values =
                [0, 1, 6, 7, 63, 64, l - 1, l, y - 1, y, u64::from(u32::MAX), 1 << 50, u64::MAX];
            for field in FIELDS {
                let value = if rng.gen_bool(0.75) { rng.pick(&values) } else { rng.gen() };
                let is_delta = rng.gen_bool(0.5);
                let frame = if is_delta { &delta } else { &base };
                let mut parts = Parts::of(frame, counters, shards);
                let Some(raw) = forge(&mut parts, field, value, rng) else {
                    continue;
                };
                let forged = parts.seal(raw);
                if is_delta {
                    let mut replica = OnlineCaesar::restore(&base).expect("base restores");
                    match replica.apply_delta(&forged) {
                        Ok(()) => assert_runs(replica, &more),
                        Err(_) => assert_eq!(replica.snapshot(), base, "{field:?}: untouched"),
                    }
                } else if let Ok(engine) = OnlineCaesar::restore(&forged) {
                    assert_runs(engine, &more);
                }
            }
        });
    }
}
