//! Mergeable sketches: the cluster-view primitive.
//!
//! CAESAR's shared-counter SRAM is *linear*: two sketches built with
//! the same geometry and seeds map every flow onto the same `k`
//! counters, so their counter arrays sum counter-wise and the union
//! queries exactly as if one box had seen both packet streams. That is
//! what turns N independent linecard engines into one cluster-wide
//! measurement view.
//!
//! The one place a naive counter-wise sum goes wrong is saturation: a
//! counter clamped at `max_value` on one node, summed past the clamp
//! during a merge, would silently read as an ordinary (unsaturated)
//! value and every sharing flow would be under-estimated with no
//! warning. Merging here is therefore *saturation-aware*: sums clamp
//! at `max_value`, each crossing is counted as a saturation event, and
//! both sides' prior event tallies fold into the result — so
//! [`crate::QueryHealth`] confidence degrades on the merged view
//! exactly as it would have on a single overloaded node.
//!
//! Mismatched configurations are rejected with a typed [`MergeError`]
//! instead of producing silently-wrong sums; [`SketchFingerprint`]
//! captures exactly the fields two sketches must share. The
//! wire-transportable form of a sketch is [`SketchPayload`] — what a
//! measurement node pushes to an aggregator (see the `service` crate).

use crate::checkpoint::{block_span, get_blocks, positions, put_blocks, BlockError, Blocks};
use crate::config::{CaesarConfig, Estimator};
use support::bytesx::{ByteCount, ByteReader, PutBytes};

/// Everything two sketches must share for their counter arrays to be
/// summable *and* for the merged view to answer queries identically:
/// the SRAM geometry (`L`, counter width), the per-flow mapping
/// (`k`, master seed — the hash family), the estimator the view will
/// serve, and the cache capacity `y` the estimators' noise model uses.
///
/// Deliberately **not** part of the fingerprint: `cache_entries` and
/// the replacement policy. They shape *when* mass is evicted on each
/// node, not *where* it lands — taps with different on-chip budgets
/// still merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchFingerprint {
    /// Number of shared SRAM counters `L`.
    pub counters: usize,
    /// Bits per counter (fixes the clamp value).
    pub counter_bits: u32,
    /// Mapped counters per flow `k`.
    pub k: usize,
    /// Cache entry capacity `y` (an estimator parameter).
    pub entry_capacity: u64,
    /// Master seed — the whole hash family.
    pub seed: u64,
    /// Default estimator the merged view serves.
    pub estimator: Estimator,
}

/// Serialized size of a fingerprint (see
/// [`SketchFingerprint::encode_into`]).
pub const FINGERPRINT_BYTES: usize = 8 + 4 + 8 + 8 + 8 + 1;

impl SketchFingerprint {
    /// The fingerprint of a configuration.
    pub fn of(cfg: &CaesarConfig) -> Self {
        Self {
            counters: cfg.counters,
            counter_bits: cfg.counter_bits,
            k: cfg.k,
            entry_capacity: cfg.entry_capacity,
            seed: cfg.seed,
            estimator: cfg.estimator,
        }
    }

    /// FNV-1a fold of every field — a compact identity for logs and
    /// wire handshakes. Equal fingerprints have equal digests; a digest
    /// alone cannot name *which* field diverged (compare the structs
    /// for that).
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(FINGERPRINT_BYTES);
        self.encode_into(&mut buf);
        hashkit::fnv::fnv1a64(&buf)
    }

    /// Typed compatibility check: `Ok(())` when `other` can merge into
    /// a sketch with this fingerprint, the first mismatching field as
    /// a [`MergeError`] otherwise.
    pub fn expect_matches(&self, other: &Self) -> Result<(), MergeError> {
        let geometry = [
            ("counters", self.counters as u64, other.counters as u64),
            ("counter_bits", u64::from(self.counter_bits), u64::from(other.counter_bits)),
            ("k", self.k as u64, other.k as u64),
            ("entry_capacity", self.entry_capacity, other.entry_capacity),
        ];
        for (field, ours, theirs) in geometry {
            if ours != theirs {
                return Err(MergeError::Geometry { field, ours, theirs });
            }
        }
        if self.seed != other.seed {
            return Err(MergeError::Seed { ours: self.seed, theirs: other.seed });
        }
        if self.estimator != other.estimator {
            return Err(MergeError::Estimator {
                ours: self.estimator,
                theirs: other.estimator,
            });
        }
        Ok(())
    }

    /// Append the fixed-width encoding ([`FINGERPRINT_BYTES`] bytes).
    pub fn encode_into(&self, buf: &mut impl PutBytes) {
        buf.put_u64_le(self.counters as u64);
        buf.put_u32_le(self.counter_bits);
        buf.put_u64_le(self.k as u64);
        buf.put_u64_le(self.entry_capacity);
        buf.put_u64_le(self.seed);
        buf.put_u8(match self.estimator {
            Estimator::Csm => 0,
            Estimator::Mlm => 1,
        });
    }

    /// Decode [`SketchFingerprint::encode_into`] output from a reader.
    /// `None` on truncation or an unknown estimator tag.
    pub fn decode_from(r: &mut ByteReader) -> Option<Self> {
        let counters = r.get_u64_le()? as usize;
        let counter_bits = r.get_u32_le()?;
        let k = r.get_u64_le()? as usize;
        let entry_capacity = r.get_u64_le()?;
        let seed = r.get_u64_le()?;
        let estimator = match r.get_u8()? {
            0 => Estimator::Csm,
            1 => Estimator::Mlm,
            _ => return None,
        };
        Some(Self { counters, counter_bits, k, entry_capacity, seed, estimator })
    }
}

/// Why two sketches refused to merge. Every variant names what this
/// side expected (`ours`) and what the other side carried (`theirs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// A geometry field differs (counter count, width, `k`, or `y`).
    Geometry {
        /// Which field diverged.
        field: &'static str,
        /// This side's value.
        ours: u64,
        /// The other side's value.
        theirs: u64,
    },
    /// The master seeds differ — the hash families map flows to
    /// different counters, so summing would mix unrelated flows.
    Seed {
        /// This side's seed.
        ours: u64,
        /// The other side's seed.
        theirs: u64,
    },
    /// The default estimators differ — merged queries would silently
    /// answer with a different de-noising model than the pushing node
    /// calibrated for.
    Estimator {
        /// This side's estimator.
        ours: Estimator,
        /// The other side's estimator.
        theirs: Estimator,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Geometry { field, ours, theirs } => {
                write!(f, "sketch geometry mismatch: {field} is {ours} here, {theirs} there")
            }
            MergeError::Seed { ours, theirs } => {
                write!(f, "sketch seed mismatch: {ours:#x} here, {theirs:#x} there")
            }
            MergeError::Estimator { ours, theirs } => write!(
                f,
                "sketch estimator mismatch: {} here, {} there",
                ours.name(),
                theirs.name()
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Magic prefix of an encoded [`SketchPayload`].
pub const PAYLOAD_MAGIC: &[u8; 4] = b"CSKP";
/// Current payload encoding version. Version 2 lists only the nonzero
/// counters (the sparse counter-block section, values absolute);
/// version 1, every counter at 8 bytes, is refused, not read.
pub const PAYLOAD_VERSION: u16 = 2;

/// Errors from decoding a [`SketchPayload`] or [`SketchDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadError {
    /// Stream did not start with the expected magic.
    BadMagic,
    /// Unknown encoding version.
    BadVersion(u16),
    /// Fewer bytes than the header promised, or a malformed field.
    Truncated,
    /// A field decoded but violates an internal invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::BadMagic => write!(f, "not a sketch payload"),
            PayloadError::BadVersion(v) => write!(f, "unsupported sketch payload version {v}"),
            PayloadError::Truncated => write!(f, "sketch payload truncated"),
            PayloadError::Malformed(what) => write!(f, "sketch payload malformed: {what}"),
        }
    }
}

impl std::error::Error for PayloadError {}

/// One of the two sketch frame kinds: `CSKP` (a full payload) or
/// `CSKD` (a delta, which also names its base epoch).
#[derive(Clone, Copy)]
struct Kind {
    magic: &'static [u8; 4],
    version: u16,
    base_epoch: bool,
}

const FULL: Kind = Kind { magic: PAYLOAD_MAGIC, version: PAYLOAD_VERSION, base_epoch: false };
const DELTA: Kind =
    Kind { magic: DELTA_PAYLOAD_MAGIC, version: DELTA_PAYLOAD_VERSION, base_epoch: true };

/// The fixed fields a sketch frame leads with, before its counter
/// section: magic, version, fingerprint, a delta's base epoch, then
/// the three tallies (`total_added`, `saturation_events`, `evictions`:
/// absolute in a payload, increments in a delta).
struct Head {
    fingerprint: SketchFingerprint,
    base_epoch: u64,
    tallies: [u64; 3],
}

impl Head {
    fn put(&self, buf: &mut impl PutBytes, kind: Kind) {
        buf.put_slice(kind.magic);
        buf.put_u16_le(kind.version);
        self.fingerprint.encode_into(buf);
        if kind.base_epoch {
            buf.put_u64_le(self.base_epoch);
        }
        for tally in self.tallies {
            buf.put_u64_le(tally);
        }
    }

    fn get(r: &mut ByteReader<'_>, kind: Kind) -> Result<Self, PayloadError> {
        let magic = r.get_array::<4>().ok_or(PayloadError::BadMagic)?;
        if &magic != kind.magic {
            return Err(PayloadError::BadMagic);
        }
        let version = r.get_u16_le().ok_or(PayloadError::Truncated)?;
        if version != kind.version {
            return Err(PayloadError::BadVersion(version));
        }
        let fingerprint = SketchFingerprint::decode_from(r).ok_or(PayloadError::Truncated)?;
        let mut word = || r.get_u64_le().ok_or(PayloadError::Truncated);
        let base_epoch = if kind.base_epoch { word()? } else { 0 };
        let tallies = [word()?, word()?, word()?];
        Ok(Self { fingerprint, base_epoch, tallies })
    }
}

/// Write the counter section of a sketch frame: every nonzero value of
/// `blocks`, given as `(block index, the block's counters)` ascending.
/// A block with no nonzero counter is not listed.
fn put_section<'a>(buf: &mut impl PutBytes, blocks: impl Iterator<Item = (usize, &'a [u64])>) {
    let nonzero = |values: &[u64]| {
        let bits = values.iter().take(64).map(|&v| u64::from(v != 0));
        bits.enumerate().fold(0u64, |mask, (i, bit)| mask | bit << i)
    };
    let listed: Vec<(usize, u64, &[u64])> = (blocks.map(|(b, values)| (b, nonzero(values), values)))
        .filter(|&(_, mask, _)| mask != 0)
        .collect();
    let blocks = listed.iter().map(|&(b, mask, values)| (b, mask, move |i: usize| values[i]));
    put_blocks(buf, blocks);
}

/// Read the counter section that ends a sketch frame, for an array of
/// `len` counters with every value at most `max`, and check that
/// nothing follows it.
fn get_section(
    r: &mut ByteReader<'_>,
    len: usize,
    max: Option<u64>,
) -> Result<Blocks, PayloadError> {
    let section = get_blocks(r, len, max).map_err(|e| match e {
        BlockError::Truncated => PayloadError::Truncated,
        BlockError::Malformed(why) => PayloadError::Malformed(why),
    })?;
    if r.remaining() != 0 {
        return Err(PayloadError::Malformed("trailing bytes"));
    }
    Ok(section)
}

/// Write a listed block's values, in position order, into `span` (the
/// block's counters) at the set bits of `mask`.
fn expand(span: &mut [u64], mask: u64, values: &mut impl Iterator<Item = u64>) {
    for (i, v) in positions(mask).zip(values) {
        span[i] = v;
    }
}

/// The wire-transportable state of one node's sketch: fingerprint,
/// frozen counters, and the tallies the merged view must fold to stay
/// honest. This is what `PushSketch` carries in the service protocol
/// and what [`crate::ConcurrentCaesar::merge_sketch`] consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchPayload {
    /// Identity of the producing configuration.
    pub fingerprint: SketchFingerprint,
    /// The `L` frozen counter values.
    pub counters: Vec<u64>,
    /// Units offered to the producing array (the estimators' `n`).
    pub total_added: u64,
    /// Saturating-add events the producer observed.
    pub saturation_events: u64,
    /// Eviction events behind those counters (diagnostics).
    pub evictions: u64,
}

impl SketchPayload {
    /// Binary encoding:
    ///
    /// ```text
    /// magic "CSKP", version u16 (little-endian, as every fixed field)
    /// fingerprint (FINGERPRINT_BYTES)
    /// total_added u64, saturation_events u64, evictions u64
    /// the sparse counter-block section (DESIGN §4j), listing every
    ///   nonzero counter with its absolute value
    /// ```
    ///
    /// `L` is the fingerprint's, so it is not stored; an unlisted
    /// counter decodes as zero.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append [`SketchPayload::encode`]'s bytes to `buf` — the form a
    /// caller framing the payload in a larger buffer uses, and, into a
    /// [`ByteCount`], [`SketchPayload::encoded_len`].
    pub fn encode_into(&self, buf: &mut impl PutBytes) {
        let tallies = [self.total_added, self.saturation_events, self.evictions];
        Head { fingerprint: self.fingerprint, base_epoch: 0, tallies }.put(buf, FULL);
        let span = crate::sram::DIRTY_BLOCK_COUNTERS;
        put_section(buf, self.counters.chunks(span).enumerate());
    }

    /// Exact size of [`SketchPayload::encode`]'s output in bytes — the
    /// wire cost of a full push, without encoding. O(nonzero counters)
    /// bytes; computing it reads all `L`.
    pub fn encoded_len(&self) -> usize {
        let mut count = ByteCount::default();
        self.encode_into(&mut count);
        count.0
    }

    /// The fingerprint of an encoded payload, read without decoding its
    /// counters. [`SketchPayload::decode`] allocates the fingerprint's
    /// `L` counters, so a receiver checks this against its own
    /// fingerprint first: a matching `L` bounds the allocation by the
    /// receiver's own array.
    pub fn decode_fingerprint(data: &[u8]) -> Result<SketchFingerprint, PayloadError> {
        Ok(Head::get(&mut ByteReader::new(data), FULL)?.fingerprint)
    }

    /// Decode [`SketchPayload::encode`] output, validating the section
    /// (see [`SketchDelta::decode`]) with every value at most the
    /// fingerprint's clamp. The dense `L` counters are allocated
    /// fallibly, after the section passed: an `L` the allocator refuses
    /// is `Malformed`, not an abort.
    pub fn decode(data: &[u8]) -> Result<Self, PayloadError> {
        let mut r = ByteReader::new(data);
        let head = Head::get(&mut r, FULL)?;
        let fingerprint = head.fingerprint;
        let (len, bits) = (fingerprint.counters, fingerprint.counter_bits);
        let max = 1u64.checked_shl(bits).map_or(u64::MAX, |cap| cap - 1);
        let section = get_section(&mut r, len, Some(max))?;
        let mut counters = Vec::new();
        (counters.try_reserve_exact(len))
            .map_err(|_| PayloadError::Malformed("counter array too large to allocate"))?;
        counters.resize(len, 0);
        let mut values = section.values.into_iter();
        for &(block, mask) in &section.masks {
            expand(&mut counters[block_span(block, len)], mask, &mut values);
        }
        let [total_added, saturation_events, evictions] = head.tallies;
        Ok(Self { fingerprint, counters, total_added, saturation_events, evictions })
    }
}

/// Magic prefix of an encoded [`SketchDelta`].
pub const DELTA_PAYLOAD_MAGIC: &[u8; 4] = b"CSKD";
/// Current delta payload encoding version. Version 2 lists only the
/// nonzero increments (the sparse counter-block section); version 1,
/// whole blocks at 8 bytes per counter, is refused, not read.
pub const DELTA_PAYLOAD_VERSION: u16 = 2;

/// The **incremental** wire form of a sketch push: only the counter
/// blocks that grew since the tap's previous push, plus the tally
/// *increments* the view must fold. Counters are monotone
/// non-decreasing (saturating adds never shrink one), so the diff of
/// two consecutive [`SketchPayload`]s is itself a mergeable sketch —
/// applying it to the view is counter-wise addition, exactly like
/// [`SketchPayload`] but O(changed counters) on the wire instead of
/// O(nonzero counters).
///
/// Blocks are [`crate::DIRTY_BLOCK_COUNTERS`]-counter spans — the same
/// granularity the SRAM layer's dirty bitmap tracks — identified by
/// block index, carrying one increment per counter in the span. That
/// is the in-memory form; on the wire only the nonzero increments are
/// listed (see [`SketchDelta::encode`]).
///
/// `base_epoch` is the aggregator view epoch this delta diffs against:
/// the server only applies a delta whose base matches its current
/// epoch (see the service protocol's `PushDelta`/`DeltaNack`), so a
/// tap that missed an epoch is told to fall back to a full push
/// instead of silently double- or under-counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchDelta {
    /// Identity of the producing configuration.
    pub fingerprint: SketchFingerprint,
    /// The aggregator view epoch this delta was diffed against.
    pub base_epoch: u64,
    /// Changed blocks: `(block index, per-counter increments)`,
    /// strictly ascending by block index. The last block of a
    /// non-multiple `L` is short, exactly like the dirty bitmap's.
    pub blocks: Vec<(usize, Vec<u64>)>,
    /// Increment of the producer's offered-units total (`n`).
    pub total_added_delta: u64,
    /// Saturating-add events since the previous push.
    pub saturation_events_delta: u64,
    /// Eviction events since the previous push (diagnostics).
    pub evictions_delta: u64,
}

impl SketchDelta {
    /// Diff two consecutive exports of the **same tap**: `cur` must be
    /// a later [`crate::ConcurrentCaesar::export_sketch`] (or
    /// equivalent) of the sketch that produced `prev`. Counters only
    /// grow, so `cur − prev` is exact below the clamp; a counter
    /// pinned at `max_value` on both sides diffs to zero (its mass is
    /// already accounted — the saturation tally increment keeps the
    /// view's health honest).
    ///
    /// # Errors
    /// Typed [`MergeError`] when the two payloads do not share a
    /// fingerprint (they cannot be exports of one tap).
    pub fn between(
        prev: &SketchPayload,
        cur: &SketchPayload,
        base_epoch: u64,
    ) -> Result<Self, MergeError> {
        cur.fingerprint.expect_matches(&prev.fingerprint)?;
        let span = crate::sram::DIRTY_BLOCK_COUNTERS;
        let len = cur.counters.len().min(prev.counters.len());
        let mut blocks = Vec::new();
        for (block, (c, p)) in cur.counters[..len]
            .chunks(span)
            .zip(prev.counters[..len].chunks(span))
            .enumerate()
        {
            // Listed only when some counter grew: a block whose
            // increments are all zero is not expressible on the wire.
            if c != p && c.iter().zip(p).any(|(cv, pv)| cv > pv) {
                blocks.push((
                    block,
                    c.iter().zip(p).map(|(&cv, &pv)| cv.saturating_sub(pv)).collect(),
                ));
            }
        }
        Ok(Self {
            fingerprint: cur.fingerprint,
            base_epoch,
            blocks,
            total_added_delta: cur.total_added - prev.total_added,
            saturation_events_delta: cur.saturation_events - prev.saturation_events,
            evictions_delta: cur.evictions - prev.evictions,
        })
    }

    /// `true` when nothing changed between the two exports — the tap
    /// can skip the push entirely (the frame would still carry the
    /// header).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
            && self.total_added_delta == 0
            && self.saturation_events_delta == 0
            && self.evictions_delta == 0
    }

    /// Re-express this delta as a full-width [`SketchPayload`] that
    /// carries **only the increment**: the changed blocks' per-counter
    /// increments at their dense offsets, zeros everywhere else, and
    /// the tally *deltas* in the tally slots. Merging the result via
    /// [`crate::ConcurrentCaesar::merge_sketch`] is state-for-state
    /// identical to merging the delta via
    /// [`crate::ConcurrentCaesar::merge_delta`].
    ///
    /// This is the recovery path after a delta NACK: the aggregator
    /// refused the delta because its view epoch moved on, not because
    /// the increment was applied — so the tap re-pushes the same
    /// increment as an epoch-free full frame. Pushing the tap's
    /// *cumulative* sketch there instead would double-count every
    /// previously-acked epoch.
    pub fn to_increment_payload(&self) -> SketchPayload {
        let span = crate::sram::DIRTY_BLOCK_COUNTERS;
        let mut counters = vec![0u64; self.fingerprint.counters];
        for (block, increments) in &self.blocks {
            let start = block * span;
            counters[start..start + increments.len()].copy_from_slice(increments);
        }
        SketchPayload {
            fingerprint: self.fingerprint,
            counters,
            total_added: self.total_added_delta,
            saturation_events: self.saturation_events_delta,
            evictions: self.evictions_delta,
        }
    }

    /// Binary encoding:
    ///
    /// ```text
    /// magic "CSKD", version u16 (little-endian, as every fixed field)
    /// fingerprint (FINGERPRINT_BYTES)
    /// base_epoch u64
    /// total_added_delta u64, saturation_events_delta u64, evictions_delta u64
    /// the sparse counter-block section (DESIGN §4j), listing each
    ///   block with a nonzero increment and in it only those:
    ///   block count     LEB128
    ///   per block:      index gap LEB128 (index − previous index − 1;
    ///                   the first block's index itself)
    ///                   tag u8: 0 = change mask u64,
    ///                           1 = position count u8, positions u8 each
    ///                   one LEB128 increment per listed counter
    /// ```
    ///
    /// The span of a block is derived from the fingerprint's `L`, so it
    /// is not stored; a listed block's unlisted counters decode as zero.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append [`SketchDelta::encode`]'s bytes to `buf` — the form a
    /// caller framing the delta in a larger buffer uses, and, into a
    /// [`ByteCount`], [`SketchDelta::encoded_len`].
    pub fn encode_into(&self, buf: &mut impl PutBytes) {
        let tallies =
            [self.total_added_delta, self.saturation_events_delta, self.evictions_delta];
        let head = Head { fingerprint: self.fingerprint, base_epoch: self.base_epoch, tallies };
        head.put(buf, DELTA);
        put_section(buf, self.blocks.iter().map(|(block, inc)| (*block, inc.as_slice())));
    }

    /// Exact size of [`SketchDelta::encode`]'s output in bytes — the
    /// wire cost of a delta push, without encoding. O(changed counters)
    /// bytes where the full payload's is O(nonzero counters).
    pub fn encoded_len(&self) -> usize {
        let mut count = ByteCount::default();
        self.encode_into(&mut count);
        count.0
    }

    /// The fingerprint of an encoded delta, read without decoding its
    /// blocks. [`SketchDelta::decode`] expands every listed block to
    /// its full span, so a receiver checks this against its own
    /// fingerprint first: a matching `L` bounds the expansion by the
    /// receiver's own array.
    pub fn decode_fingerprint(data: &[u8]) -> Result<SketchFingerprint, PayloadError> {
        Ok(Head::get(&mut ByteReader::new(data), DELTA)?.fingerprint)
    }

    /// Decode [`SketchDelta::encode`] output, validating block
    /// structure (in range, strictly ascending, nonempty, positions
    /// inside the span, canonical varints) so a decoded delta is always
    /// safe to apply. Blocks come back span-length, zeros included.
    /// The listed form is bounded by the input; the expansion is at
    /// most 8 bytes per counter of the fingerprint's `L` (see
    /// [`SketchDelta::decode_fingerprint`]).
    pub fn decode(data: &[u8]) -> Result<Self, PayloadError> {
        let mut r = ByteReader::new(data);
        let head = Head::get(&mut r, DELTA)?;
        let len = head.fingerprint.counters;
        let section = get_section(&mut r, len, None)?;
        let mut values = section.values.into_iter();
        let blocks = (section.masks.iter())
            .map(|&(block, mask)| {
                let mut increments = vec![0; block_span(block, len).len()];
                expand(&mut increments, mask, &mut values);
                (block, increments)
            })
            .collect();
        let [total_added_delta, saturation_events_delta, evictions_delta] = head.tallies;
        Ok(Self {
            fingerprint: head.fingerprint,
            base_epoch: head.base_epoch,
            blocks,
            total_added_delta,
            saturation_events_delta,
            evictions_delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use support::rand::rngs::StdRng;
    use support::rand::Rng;
    use support::testkit::{for_each_seed_n, GenExt};

    fn fp() -> SketchFingerprint {
        SketchFingerprint::of(&CaesarConfig::default())
    }

    #[test]
    fn fingerprint_roundtrips_and_digests_stably() {
        let a = fp();
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), FINGERPRINT_BYTES);
        let b = SketchFingerprint::decode_from(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let other = SketchFingerprint { seed: a.seed ^ 1, ..a };
        assert_ne!(a.digest(), other.digest());
    }

    #[test]
    fn expect_matches_names_the_diverging_field() {
        let a = fp();
        assert_eq!(a.expect_matches(&a), Ok(()));
        let geo = SketchFingerprint { counters: a.counters + 1, ..a };
        assert!(matches!(
            a.expect_matches(&geo),
            Err(MergeError::Geometry { field: "counters", .. })
        ));
        let width = SketchFingerprint { counter_bits: a.counter_bits - 1, ..a };
        assert!(matches!(
            a.expect_matches(&width),
            Err(MergeError::Geometry { field: "counter_bits", .. })
        ));
        let seed = SketchFingerprint { seed: a.seed ^ 0xFF, ..a };
        assert!(matches!(a.expect_matches(&seed), Err(MergeError::Seed { .. })));
        let est = SketchFingerprint { estimator: Estimator::Mlm, ..a };
        assert!(matches!(a.expect_matches(&est), Err(MergeError::Estimator { .. })));
    }

    #[test]
    fn merge_errors_render() {
        let a = fp();
        let seed = SketchFingerprint { seed: 7, ..a };
        let msg = a.expect_matches(&seed).unwrap_err().to_string();
        assert!(msg.contains("seed mismatch"), "{msg}");
        let est = SketchFingerprint { estimator: Estimator::Mlm, ..a };
        let msg = a.expect_matches(&est).unwrap_err().to_string();
        assert!(msg.contains("csm") && msg.contains("mlm"), "{msg}");
    }

    #[test]
    fn payload_roundtrips() {
        let f = SketchFingerprint { counters: 4, ..fp() };
        let p = SketchPayload {
            fingerprint: f,
            counters: vec![0, 1, (1 << f.counter_bits) - 1, 42],
            total_added: 1_000,
            saturation_events: 3,
            evictions: 17,
        };
        let enc = p.encode();
        let dec = SketchPayload::decode(&enc).unwrap();
        assert_eq!(dec, p);
        // A value above the clamp is no counter this fingerprint holds.
        let above = SketchPayload { counters: vec![0, 1, 1 << f.counter_bits, 42], ..p };
        assert_eq!(
            SketchPayload::decode(&above.encode()),
            Err(PayloadError::Malformed("counter exceeds width"))
        );
    }

    /// A random payload under a random geometry and width: all zero,
    /// all at the clamp, or a mix of zeros, clamped and random values
    /// at a random density, the short tail block included.
    fn random_payload(rng: &mut StdRng) -> SketchPayload {
        let counters = rng.gen_range(1usize..700);
        let counter_bits = rng.gen_range(1u32..=63);
        let clamp = (1u64 << counter_bits) - 1;
        let f = SketchFingerprint { counters, counter_bits, ..fp() };
        let density = rng.pick(&[0.002, 0.05, 0.3, 1.0]);
        let mode = rng.gen_range(0..4);
        let mut values: Vec<u64> = (0..counters)
            .map(|_| match mode {
                0 => 0,
                1 => clamp,
                _ if !rng.gen_bool(density) => 0,
                _ => match rng.gen_range(0..4) {
                    0 => 1,
                    1 => clamp,
                    2 => rng.gen::<u64>() & clamp,
                    _ => rng.gen_range(0..300).min(clamp),
                },
            })
            .collect();
        if mode > 1 && rng.gen_bool(0.5) {
            values[counters - 1] = clamp; // a listed short tail
        }
        SketchPayload {
            fingerprint: f,
            counters: values,
            total_added: rng.gen(),
            saturation_events: rng.gen(),
            evictions: rng.gen(),
        }
    }

    #[test]
    fn payloads_roundtrip_and_encoded_len_is_exact() {
        for_each_seed_n(200, |rng| {
            let p = random_payload(rng);
            let enc = p.encode();
            assert_eq!(p.encoded_len(), enc.len());
            assert_eq!(SketchPayload::decode(&enc).as_ref(), Ok(&p));
            assert_eq!(SketchPayload::decode_fingerprint(&enc), Ok(p.fingerprint));
            let mut framed = vec![0xA5];
            p.encode_into(&mut framed);
            assert_eq!(&framed[1..], enc.as_slice());
            // Only nonzero counters are listed: an all-zero payload is
            // its head and an empty section.
            if p.counters.iter().all(|&c| c == 0) {
                assert_eq!(enc.len(), PAYLOAD_HEAD + 1);
            }
        });
    }

    #[test]
    fn earlier_payload_versions_are_refused_typed() {
        let p = SketchPayload {
            fingerprint: fp(),
            counters: vec![0; fp().counters],
            total_added: 0,
            saturation_events: 0,
            evictions: 0,
        };
        let mut v1 = p.encode();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(SketchPayload::decode(&v1), Err(PayloadError::BadVersion(1)));
        assert_eq!(SketchPayload::decode_fingerprint(&v1), Err(PayloadError::BadVersion(1)));
        // A delta is not a payload, nor a payload a delta.
        let d = SketchDelta::between(&p, &p, 0).unwrap();
        assert_eq!(SketchPayload::decode(&d.encode()), Err(PayloadError::BadMagic));
        assert_eq!(SketchDelta::decode_fingerprint(&p.encode()), Err(PayloadError::BadMagic));
    }

    /// Bytes before a `CSKP` frame's counter section.
    const PAYLOAD_HEAD: usize = 4 + 2 + FINGERPRINT_BYTES + 24;

    /// `(offset, width)` of every fixed field of a `CSKP` head: magic,
    /// version, the six fingerprint fields, the three tallies.
    const PAYLOAD_HEAD_FIELDS: [(usize, usize); 11] = [
        (0, 4),
        (4, 2),
        (6, 8),
        (14, 4),
        (18, 8),
        (26, 8),
        (34, 8),
        (42, 1),
        (43, 8),
        (51, 8),
        (59, 8),
    ];

    /// Forge one head field or one section field of random payloads'
    /// frames (boundary values and random ones): each must be refused
    /// typed, or decode to a payload of its fingerprint's `L`, every
    /// value within its clamp, which merges into a view of the
    /// original geometry when its fingerprint is the original one and
    /// is refused typed by it otherwise.
    #[test]
    fn forged_payload_frames_are_refused_typed_or_merge() {
        use crate::checkpoint::raw::{RawSection, SECTION_FIELDS};
        use crate::concurrent::ConcurrentCaesar;
        for_each_seed_n(64, |rng| {
            let p = random_payload(rng);
            let enc = p.encode();
            let len = p.fingerprint.counters as u64;
            let values =
                [0, 1, 6, 7, 63, 64, 255, len - 1, len, len + 1, len / 64, 1 << 20, 1 << 50, u64::MAX];
            let value =
                |rng: &mut StdRng| if rng.gen_bool(0.75) { rng.pick(&values) } else { rng.gen() };
            let mut frames = Vec::new();
            for (at, width) in PAYLOAD_HEAD_FIELDS {
                let mut forged = enc.clone();
                forged[at..at + width].copy_from_slice(&value(rng).to_le_bytes()[..width]);
                frames.push(forged);
            }
            for field in SECTION_FIELDS {
                let mut raw =
                    RawSection::get(&mut ByteReader::new(&enc[PAYLOAD_HEAD..]), len as usize);
                if raw.forge(field, value(rng), rng) {
                    let mut forged = enc[..PAYLOAD_HEAD].to_vec();
                    raw.put(&mut forged);
                    frames.push(forged);
                }
            }
            let cfg = CaesarConfig {
                counters: len as usize,
                counter_bits: p.fingerprint.counter_bits,
                ..CaesarConfig::default()
            };
            for forged in frames {
                let Ok(back) = SketchPayload::decode(&forged) else {
                    continue;
                };
                let f = back.fingerprint;
                assert_eq!(back.counters.len(), f.counters);
                let clamp = 1u64.checked_shl(f.counter_bits).map_or(u64::MAX, |cap| cap - 1);
                assert!(back.counters.iter().all(|&c| c <= clamp));
                let merged = ConcurrentCaesar::empty(cfg).merge_sketch(&back);
                assert_eq!(merged.is_ok(), f == p.fingerprint, "{f:?}: {merged:?}");
            }
        });
    }

    /// A 68-byte `CSKP` frame whose fingerprint claims `L` = 2^40 and
    /// lists no counter: the section is well formed, so decoding asks
    /// for 8 TiB of dense counters, fallibly. Ignored by default: only
    /// an address limit makes the request safe everywhere, so
    /// `scripts/check.sh --delta-smoke` runs it under `ulimit -v`.
    #[test]
    #[ignore]
    fn forged_payload_with_a_huge_length_and_no_counters_is_refused_typed() {
        let forged = SketchPayload {
            fingerprint: SketchFingerprint { counters: 1 << 40, ..fp() },
            counters: Vec::new(),
            total_added: 0,
            saturation_events: 0,
            evictions: 0,
        };
        let enc = forged.encode();
        assert_eq!(enc.len(), PAYLOAD_HEAD + 1);
        assert_eq!(
            SketchPayload::decode(&enc),
            Err(PayloadError::Malformed("counter array too large to allocate"))
        );
    }

    #[test]
    fn delta_between_diffs_only_changed_blocks() {
        let span = crate::sram::DIRTY_BLOCK_COUNTERS;
        let f = SketchFingerprint { counters: span * 3 + 5, ..fp() };
        let prev = SketchPayload {
            fingerprint: f,
            counters: vec![10; f.counters],
            total_added: 1_000,
            saturation_events: 1,
            evictions: 4,
        };
        let mut cur = prev.clone();
        cur.counters[3] += 7; // block 0
        cur.counters[span * 3 + 4] += 2; // the short tail block
        cur.total_added = 1_009;
        cur.saturation_events = 2;
        cur.evictions = 6;
        let d = SketchDelta::between(&prev, &cur, 42).unwrap();
        assert_eq!(d.base_epoch, 42);
        assert_eq!(d.total_added_delta, 9);
        assert_eq!(d.saturation_events_delta, 1);
        assert_eq!(d.evictions_delta, 2);
        assert_eq!(d.blocks.len(), 2);
        assert_eq!(d.blocks[0].0, 0);
        assert_eq!(d.blocks[0].1[3], 7);
        assert_eq!(d.blocks[1].0, 3);
        assert_eq!(d.blocks[1].1.len(), 5, "tail block is short");
        assert_eq!(d.blocks[1].1[4], 2);
        assert!(!d.is_empty());
        // Identical exports diff to the empty delta.
        assert!(SketchDelta::between(&prev, &prev, 42).unwrap().is_empty());
        // Foreign exports cannot diff.
        let foreign = SketchPayload {
            fingerprint: SketchFingerprint { seed: f.seed ^ 1, ..f },
            ..prev.clone()
        };
        assert!(matches!(
            SketchDelta::between(&prev, &foreign, 0),
            Err(MergeError::Seed { .. })
        ));
    }

    #[test]
    fn delta_roundtrips_and_rejects_malformed_frames() {
        let span = crate::sram::DIRTY_BLOCK_COUNTERS;
        let f = SketchFingerprint { counters: span * 2, ..fp() };
        let d = SketchDelta {
            fingerprint: f,
            base_epoch: 7,
            blocks: vec![(0, vec![1; span]), (1, vec![2; span])],
            total_added_delta: 3 * span as u64,
            saturation_events_delta: 0,
            evictions_delta: 5,
        };
        let enc = d.encode();
        assert_eq!(SketchDelta::decode(&enc).unwrap(), d);
        // Magic / version / truncation.
        assert_eq!(SketchDelta::decode(b"nope"), Err(PayloadError::BadMagic));
        assert_eq!(
            SketchDelta::decode(&enc[..enc.len() - 1]),
            Err(PayloadError::Truncated)
        );
        let mut wrong = enc.clone();
        wrong[4] = 0xEE;
        assert!(matches!(SketchDelta::decode(&wrong), Err(PayloadError::BadVersion(_))));
        // A full payload is not a delta.
        let full = SketchPayload {
            fingerprint: f,
            counters: vec![0; f.counters],
            total_added: 0,
            saturation_events: 0,
            evictions: 0,
        };
        assert_eq!(SketchDelta::decode(&full.encode()), Err(PayloadError::BadMagic));
        // Out-of-order and out-of-range blocks are structural errors:
        // a block listed before its predecessor encodes to a gap that
        // runs past the array.
        let unordered = SketchDelta {
            blocks: vec![(1, vec![2; span]), (0, vec![1; span])],
            ..d.clone()
        };
        assert!(matches!(
            SketchDelta::decode(&unordered.encode()),
            Err(PayloadError::Malformed("block index out of range"))
        ));
        let out_of_range = SketchDelta { blocks: vec![(9, vec![1; span])], ..d.clone() };
        assert!(matches!(
            SketchDelta::decode(&out_of_range.encode()),
            Err(PayloadError::Malformed("block index out of range"))
        ));
    }

    /// A delta with no blocks under `fp`, encoded: the 75-byte head and
    /// a one-byte block count of zero.
    fn empty_frame(fp: SketchFingerprint) -> Vec<u8> {
        let empty = SketchDelta {
            fingerprint: fp,
            base_epoch: 0,
            blocks: Vec::new(),
            total_added_delta: 0,
            saturation_events_delta: 0,
            evictions_delta: 0,
        };
        let frame = empty.encode();
        assert_eq!(frame.len(), HEAD + 1);
        frame
    }

    /// Bytes before a `CSKD` frame's block section.
    const HEAD: usize = 4 + 2 + FINGERPRINT_BYTES + 32;

    #[test]
    fn forged_delta_block_count_is_truncation_not_an_allocation() {
        // An 81-byte frame: header only, claiming 2^41 changed blocks
        // of a 2^47-counter sketch. The count passes the fingerprint
        // bound, so only the input length can refuse it — before any
        // allocation is sized from it.
        let mut frame = empty_frame(SketchFingerprint { counters: 1 << 47, ..fp() });
        frame.truncate(HEAD);
        frame.put_uvarint(1 << 41);
        assert_eq!(frame.len(), 81);
        assert_eq!(SketchDelta::decode(&frame), Err(PayloadError::Truncated));
    }

    #[test]
    fn forged_delta_varints_are_refused_typed() {
        let frame = empty_frame(fp());
        for (count, why) in [
            (&[0x80, 0x00][..], "overlong varint"),
            (&[0x81, 0x80, 0x00][..], "overlong varint"),
            (&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2][..], "varint exceeds 64 bits"),
            (&[0x80; 11][..], "varint exceeds 64 bits"),
        ] {
            let mut forged = frame[..HEAD].to_vec();
            forged.extend_from_slice(count);
            assert_eq!(SketchDelta::decode(&forged), Err(PayloadError::Malformed(why)));
        }
        // The same inside a block: an overlong gap, then an overlong
        // value.
        let mut forged = frame[..HEAD].to_vec();
        forged.extend_from_slice(&[1, 0x80, 0x00, 1, 1, 0, 1]);
        assert_eq!(SketchDelta::decode(&forged), Err(PayloadError::Malformed("overlong varint")));
        let mut forged = frame[..HEAD].to_vec();
        forged.extend_from_slice(&[1, 0, 1, 1, 0, 0x85, 0x00]);
        assert_eq!(SketchDelta::decode(&forged), Err(PayloadError::Malformed("overlong varint")));
    }

    #[test]
    fn forged_huge_length_with_empty_blocks_is_refused_small() {
        // A 2^40-counter fingerprint and 10 000 listed blocks, each
        // with an empty mask: 11 bytes a block, refused at the first.
        let mut forged = empty_frame(SketchFingerprint { counters: 1 << 40, ..fp() });
        forged.truncate(HEAD);
        forged.put_uvarint(10_000);
        for _ in 0..10_000 {
            forged.extend_from_slice(&[0, 0]);
            forged.put_u64_le(0);
        }
        assert_eq!(SketchDelta::decode(&forged), Err(PayloadError::Malformed("empty block")));
        // One counter a block decodes: 5 input bytes to one block of
        // 64 increments, bounded by the input (a receiver checks the
        // fingerprint before it lets a delta expand this far).
        let mut forged = forged[..HEAD].to_vec();
        forged.put_uvarint(10_000);
        for _ in 0..10_000 {
            forged.extend_from_slice(&[0, 1, 1, 63, 1]);
        }
        let d = SketchDelta::decode(&forged).expect("well-formed");
        assert_eq!(d.blocks.len(), 10_000);
        assert_eq!(d.blocks[9_999], (9_999, (0..64).map(|i| u64::from(i == 63)).collect()));
        assert!(matches!(
            crate::concurrent::ConcurrentCaesar::empty(CaesarConfig::default()).merge_delta(&d),
            Err(MergeError::Geometry { field: "counters", .. })
        ));
        // The last block of a `usize::MAX`-counter sketch is 63 long.
        let mut forged = empty_frame(SketchFingerprint { counters: usize::MAX, ..fp() });
        forged.truncate(HEAD);
        forged.put_uvarint(1);
        forged.put_uvarint((usize::MAX / 64) as u64);
        forged.extend_from_slice(&[1, 1, 62, 7]);
        let d = SketchDelta::decode(&forged).expect("well-formed");
        assert_eq!(d.blocks, vec![(usize::MAX / 64, (0..63).map(|i| 7 * u64::from(i == 62)).collect())]);
        forged.truncate(forged.len() - 2);
        forged.extend_from_slice(&[63, 7]);
        let outside = SketchDelta::decode(&forged);
        assert_eq!(outside, Err(PayloadError::Malformed("position outside block")));
    }

    #[test]
    fn earlier_delta_versions_are_refused_typed() {
        let mut v1 = empty_frame(fp());
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(SketchDelta::decode(&v1), Err(PayloadError::BadVersion(1)));
        assert_eq!(SketchDelta::decode_fingerprint(&v1), Err(PayloadError::BadVersion(1)));
        assert_eq!(SketchDelta::decode_fingerprint(&empty_frame(fp())), Ok(fp()));
    }

    /// A random delta as `between` can produce it, under a random
    /// geometry: exports of one tap at two points, most blocks
    /// untouched, changed counters with increments across every varint
    /// length, some counters shrinking (a foreign pair), some blocks
    /// changed only by shrinking.
    fn random_pair(rng: &mut StdRng) -> (SketchPayload, SketchPayload) {
        // At least `k` counters, so a view of the geometry exists.
        let counters = rng.gen_range(3usize..700);
        let f = SketchFingerprint { counters, ..fp() };
        let prev: Vec<u64> = (0..counters).map(|_| rng.gen_range(0..1_000)).collect();
        let density = rng.pick(&[0.002, 0.05, 0.3, 1.0]);
        let cur = (prev.iter())
            .map(|&p| match rng.gen_range(0..100) {
                _ if !rng.gen_bool(density) => p,
                0..=4 => p.saturating_sub(rng.gen_range(1..=p.max(1))),
                5..=9 => p + (1 << rng.gen_range(0..62)),
                _ => p + rng.gen_range(1..300),
            })
            .collect();
        let payload = |counters| SketchPayload {
            fingerprint: f,
            counters,
            total_added: 10,
            saturation_events: 1,
            evictions: 2,
        };
        (payload(prev), payload(cur))
    }

    #[test]
    fn between_deltas_roundtrip_and_encoded_len_is_exact() {
        for_each_seed_n(200, |rng| {
            let (prev, cur) = random_pair(rng);
            let d = SketchDelta::between(&prev, &cur, rng.gen()).expect("one fingerprint");
            let enc = d.encode();
            assert_eq!(d.encoded_len(), enc.len());
            assert_eq!(SketchDelta::decode(&enc).as_ref(), Ok(&d));
            let mut framed = vec![0xA5];
            d.encode_into(&mut framed);
            assert_eq!(&framed[1..], enc.as_slice());
            // Every listed block grew somewhere.
            assert!(d.blocks.iter().all(|(_, inc)| inc.iter().any(|&v| v != 0)));
        });
    }

    #[test]
    fn encoded_len_is_exact_over_random_deltas() {
        for_each_seed_n(200, |rng| {
            let counters = rng.gen_range(1usize..2_000);
            let total = counters.div_ceil(crate::sram::DIRTY_BLOCK_COUNTERS);
            let mut blocks = Vec::new();
            for block in 0..total {
                if rng.gen_bool(0.3) {
                    let span = block_span(block, counters).len();
                    let value = |rng: &mut StdRng| rng.gen::<u64>() >> rng.gen_range(0..64);
                    let inc = (0..span)
                        .map(|_| if rng.gen_bool(0.5) { 0 } else { value(rng) })
                        .collect();
                    blocks.push((block, inc));
                }
            }
            let d = SketchDelta {
                fingerprint: SketchFingerprint { counters, ..fp() },
                base_epoch: rng.gen(),
                blocks,
                total_added_delta: rng.gen(),
                saturation_events_delta: rng.gen(),
                evictions_delta: rng.gen(),
            };
            assert_eq!(d.encoded_len(), d.encode().len());
        });
    }

    /// Forge one section field of random deltas' frames (boundary
    /// values and random ones): each must be refused typed, or decode
    /// to a delta whose blocks are in range, strictly ascending and
    /// span-length, and which merges.
    #[test]
    fn forged_delta_sections_are_refused_typed_or_merge() {
        use crate::checkpoint::raw::{RawSection, SECTION_FIELDS};
        use crate::concurrent::ConcurrentCaesar;
        for_each_seed_n(64, |rng| {
            let (prev, cur) = random_pair(rng);
            let d = SketchDelta::between(&prev, &cur, 3).expect("one fingerprint");
            let enc = d.encode();
            let len = d.fingerprint.counters as u64;
            let values = [0, 1, 6, 7, 63, 64, 255, len - 1, len, len / 64, 1 << 50, u64::MAX];
            for field in SECTION_FIELDS {
                let value = if rng.gen_bool(0.75) { rng.pick(&values) } else { rng.gen() };
                let mut raw = RawSection::get(&mut ByteReader::new(&enc[HEAD..]), len as usize);
                if !raw.forge(field, value, rng) {
                    continue;
                }
                let mut forged = enc[..HEAD].to_vec();
                raw.put(&mut forged);
                let Ok(back) = SketchDelta::decode(&forged) else {
                    continue;
                };
                let mut next = 0;
                for (block, inc) in &back.blocks {
                    assert!(*block >= next, "{field:?}: blocks strictly ascending");
                    assert_eq!(inc.len(), block_span(*block, len as usize).len(), "{field:?}");
                    next = block + 1;
                }
                let cfg = CaesarConfig { counters: len as usize, ..CaesarConfig::default() };
                let mut view = ConcurrentCaesar::empty(cfg);
                assert_eq!(view.merge_delta(&back), Ok(()), "{field:?}");
            }
        });
    }

    #[test]
    fn increment_payload_merges_like_the_delta() {
        use crate::concurrent::ConcurrentCaesar;
        let cfg = CaesarConfig {
            cache_entries: 64,
            entry_capacity: 8,
            counters: 1024,
            k: 3,
            ..CaesarConfig::default()
        };
        let flows: Vec<u64> = (0..4_000u64)
            .map(|i| hashkit::mix::mix64(i % 97))
            .collect();
        let half = flows.len() / 2;
        let mut tap = ConcurrentCaesar::empty(cfg);
        tap.merge(&ConcurrentCaesar::build(cfg, 1, &flows[..half])).unwrap();
        let prev = tap.export_sketch();
        tap.merge(&ConcurrentCaesar::build(cfg, 1, &flows[half..])).unwrap();
        let cur = tap.export_sketch();
        let delta = SketchDelta::between(&prev, &cur, 3).unwrap();
        assert!(!delta.is_empty());

        let payload = delta.to_increment_payload();
        assert_eq!(payload.fingerprint, delta.fingerprint);
        assert_eq!(payload.counters.len(), cfg.counters);
        assert_eq!(payload.total_added, delta.total_added_delta);
        assert_eq!(payload.saturation_events, delta.saturation_events_delta);
        assert_eq!(payload.evictions, delta.evictions_delta);

        // Same aggregator state whichever wire form applies the
        // increment.
        let mut via_delta = ConcurrentCaesar::empty(cfg);
        via_delta.merge_sketch(&prev).unwrap();
        via_delta.merge_delta(&delta).unwrap();
        let mut via_payload = ConcurrentCaesar::empty(cfg);
        via_payload.merge_sketch(&prev).unwrap();
        via_payload.merge_sketch(&payload).unwrap();
        assert_eq!(via_delta.sram().snapshot(), via_payload.sram().snapshot());
        assert_eq!(via_delta.sram().total_added(), via_payload.sram().total_added());
        assert_eq!(via_delta.sram().saturations(), via_payload.sram().saturations());
        assert_eq!(via_delta.evictions(), via_payload.evictions());

        // An empty delta converts to the all-zero payload.
        let idle = SketchDelta::between(&cur, &cur, 4).unwrap();
        let zero = idle.to_increment_payload();
        assert!(zero.counters.iter().all(|&c| c == 0));
        assert_eq!(zero.total_added, 0);
    }

    #[test]
    fn payload_rejects_garbage() {
        assert_eq!(SketchPayload::decode(b"nope"), Err(PayloadError::BadMagic));
        let p = SketchPayload {
            fingerprint: fp(),
            counters: vec![1, 2, 3],
            total_added: 6,
            saturation_events: 0,
            evictions: 1,
        };
        let enc = p.encode();
        assert_eq!(
            SketchPayload::decode(&enc[..enc.len() - 1]),
            Err(PayloadError::Truncated)
        );
        let mut wrong = enc.clone();
        wrong[4] = 0xEE;
        assert!(matches!(
            SketchPayload::decode(&wrong),
            Err(PayloadError::BadVersion(_))
        ));
    }
}
