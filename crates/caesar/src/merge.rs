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

use crate::config::{CaesarConfig, Estimator};
use support::bytesx::{ByteReader, PutBytes};

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
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.counters as u64);
        buf.put_u32_le(self.counter_bits);
        buf.put_u64_le(self.k as u64);
        buf.put_u64_le(self.entry_capacity);
        buf.put_u64_le(self.seed);
        buf.push(match self.estimator {
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
/// Current payload encoding version.
pub const PAYLOAD_VERSION: u16 = 1;

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
    /// Fixed-width binary encoding (little-endian throughout):
    ///
    /// ```text
    /// magic "CSKP", version u16
    /// fingerprint (FINGERPRINT_BYTES)
    /// total_added u64, saturation_events u64, evictions u64
    /// num_counters u64, then each counter u64
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.put_slice(PAYLOAD_MAGIC);
        buf.put_u16_le(PAYLOAD_VERSION);
        self.fingerprint.encode_into(&mut buf);
        buf.put_u64_le(self.total_added);
        buf.put_u64_le(self.saturation_events);
        buf.put_u64_le(self.evictions);
        buf.put_u64_le(self.counters.len() as u64);
        for &c in &self.counters {
            buf.put_u64_le(c);
        }
        buf
    }

    /// Exact size of [`SketchPayload::encode`]'s output in bytes —
    /// the wire cost of a full push, without encoding.
    pub fn encoded_len(&self) -> usize {
        4 + 2 + FINGERPRINT_BYTES + 32 + self.counters.len() * 8
    }

    /// Decode [`SketchPayload::encode`] output.
    pub fn decode(data: &[u8]) -> Result<Self, PayloadError> {
        let mut r = ByteReader::new(data);
        let magic = r.get_array::<4>().ok_or(PayloadError::BadMagic)?;
        if &magic != PAYLOAD_MAGIC {
            return Err(PayloadError::BadMagic);
        }
        let version = r.get_u16_le().ok_or(PayloadError::Truncated)?;
        if version != PAYLOAD_VERSION {
            return Err(PayloadError::BadVersion(version));
        }
        let fingerprint =
            SketchFingerprint::decode_from(&mut r).ok_or(PayloadError::Truncated)?;
        let total_added = r.get_u64_le().ok_or(PayloadError::Truncated)?;
        let saturation_events = r.get_u64_le().ok_or(PayloadError::Truncated)?;
        let evictions = r.get_u64_le().ok_or(PayloadError::Truncated)?;
        let num = r.get_count(8).ok_or(PayloadError::Truncated)?;
        let mut counters = Vec::with_capacity(num);
        for _ in 0..num {
            counters.push(r.get_u64_le().ok_or(PayloadError::Truncated)?);
        }
        Ok(Self { fingerprint, counters, total_added, saturation_events, evictions })
    }
}

/// Magic prefix of an encoded [`SketchDelta`].
pub const DELTA_PAYLOAD_MAGIC: &[u8; 4] = b"CSKD";
/// Current delta payload encoding version.
pub const DELTA_PAYLOAD_VERSION: u16 = 1;

/// The **incremental** wire form of a sketch push: only the counter
/// blocks that grew since the tap's previous push, plus the tally
/// *increments* the view must fold. Counters are monotone
/// non-decreasing (saturating adds never shrink one), so the diff of
/// two consecutive [`SketchPayload`]s is itself a mergeable sketch —
/// applying it to the view is counter-wise addition, exactly like
/// [`SketchPayload`] but O(changed blocks) on the wire instead of
/// O(L).
///
/// Blocks are [`crate::DIRTY_BLOCK_COUNTERS`]-counter spans — the same
/// granularity the SRAM layer's dirty bitmap tracks — identified by
/// block index, carrying one increment per counter in the span.
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
            if c != p {
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

    /// Binary encoding, little-endian throughout:
    ///
    /// ```text
    /// magic "CSKD", version u16
    /// fingerprint (FINGERPRINT_BYTES)
    /// base_epoch u64
    /// total_added_delta u64, saturation_events_delta u64, evictions_delta u64
    /// num_blocks u64, then per block: block_index u64 + one u64 per
    ///   counter in the span (the span is derived from the
    ///   fingerprint's L, so it is not stored)
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.put_slice(DELTA_PAYLOAD_MAGIC);
        buf.put_u16_le(DELTA_PAYLOAD_VERSION);
        self.fingerprint.encode_into(&mut buf);
        buf.put_u64_le(self.base_epoch);
        buf.put_u64_le(self.total_added_delta);
        buf.put_u64_le(self.saturation_events_delta);
        buf.put_u64_le(self.evictions_delta);
        buf.put_u64_le(self.blocks.len() as u64);
        for (block, increments) in &self.blocks {
            buf.put_u64_le(*block as u64);
            for &v in increments {
                buf.put_u64_le(v);
            }
        }
        buf
    }

    /// Exact size of [`SketchDelta::encode`]'s output in bytes — the
    /// wire cost of a delta push, without encoding. O(changed blocks)
    /// where the full payload's is O(L).
    pub fn encoded_len(&self) -> usize {
        let values: usize = self.blocks.iter().map(|(_, v)| v.len()).sum();
        4 + 2 + FINGERPRINT_BYTES + 40 + self.blocks.len() * 8 + values * 8
    }

    /// Decode [`SketchDelta::encode`] output, validating block
    /// structure (in-range, strictly ascending, correct span length)
    /// so a decoded delta is always safe to apply.
    pub fn decode(data: &[u8]) -> Result<Self, PayloadError> {
        let span = crate::sram::DIRTY_BLOCK_COUNTERS;
        let mut r = ByteReader::new(data);
        let magic = r.get_array::<4>().ok_or(PayloadError::BadMagic)?;
        if &magic != DELTA_PAYLOAD_MAGIC {
            return Err(PayloadError::BadMagic);
        }
        let version = r.get_u16_le().ok_or(PayloadError::Truncated)?;
        if version != DELTA_PAYLOAD_VERSION {
            return Err(PayloadError::BadVersion(version));
        }
        let fingerprint =
            SketchFingerprint::decode_from(&mut r).ok_or(PayloadError::Truncated)?;
        let base_epoch = r.get_u64_le().ok_or(PayloadError::Truncated)?;
        let total_added_delta = r.get_u64_le().ok_or(PayloadError::Truncated)?;
        let saturation_events_delta = r.get_u64_le().ok_or(PayloadError::Truncated)?;
        let evictions_delta = r.get_u64_le().ok_or(PayloadError::Truncated)?;
        let n_blocks_total = fingerprint.counters.div_ceil(span);
        let num = r.get_u64_le().ok_or(PayloadError::Truncated)? as usize;
        if num > n_blocks_total {
            return Err(PayloadError::Malformed("more changed blocks than blocks"));
        }
        // `n_blocks_total` trusts the sender's fingerprint, so it bounds
        // nothing; the input does. Every block is an index plus at
        // least one increment.
        if num > r.remaining() / 16 {
            return Err(PayloadError::Truncated);
        }
        let mut blocks = Vec::with_capacity(num);
        let mut prev_block = None;
        for _ in 0..num {
            let block = r.get_u64_le().ok_or(PayloadError::Truncated)? as usize;
            if block >= n_blocks_total {
                return Err(PayloadError::Malformed("block index out of range"));
            }
            if prev_block.is_some_and(|p| block <= p) {
                return Err(PayloadError::Malformed("blocks not strictly ascending"));
            }
            prev_block = Some(block);
            let start = block * span;
            let count = span.min(fingerprint.counters - start);
            let mut increments = Vec::with_capacity(count);
            for _ in 0..count {
                increments.push(r.get_u64_le().ok_or(PayloadError::Truncated)?);
            }
            blocks.push((block, increments));
        }
        if r.remaining() != 0 {
            return Err(PayloadError::Malformed("trailing bytes"));
        }
        Ok(Self {
            fingerprint,
            base_epoch,
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
        let p = SketchPayload {
            fingerprint: fp(),
            counters: vec![0, 1, u64::MAX >> 1, 42],
            total_added: 1_000,
            saturation_events: 3,
            evictions: 17,
        };
        let enc = p.encode();
        let dec = SketchPayload::decode(&enc).unwrap();
        assert_eq!(dec, p);
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
        // Out-of-order and out-of-range blocks are structural errors.
        let unordered = SketchDelta {
            blocks: vec![(1, vec![2; span]), (0, vec![1; span])],
            ..d.clone()
        };
        assert!(matches!(
            SketchDelta::decode(&unordered.encode()),
            Err(PayloadError::Malformed("blocks not strictly ascending"))
        ));
        let out_of_range = SketchDelta { blocks: vec![(9, vec![1; span])], ..d.clone() };
        assert!(matches!(
            SketchDelta::decode(&out_of_range.encode()),
            Err(PayloadError::Malformed("block index out of range"))
        ));
    }

    #[test]
    fn forged_delta_block_count_is_truncation_not_an_allocation() {
        // An 83-byte frame: header only, claiming 2^41 changed blocks
        // of a 2^47-counter sketch. The count passes the fingerprint
        // bound, so only the input length can refuse it — before any
        // allocation is sized from it.
        let forged = SketchDelta {
            fingerprint: SketchFingerprint { counters: 1 << 47, ..fp() },
            base_epoch: 0,
            blocks: Vec::new(),
            total_added_delta: 0,
            saturation_events_delta: 0,
            evictions_delta: 0,
        };
        let mut frame = forged.encode();
        assert_eq!(frame.len(), 83);
        let count_at = frame.len() - 8;
        frame[count_at..].copy_from_slice(&(1u64 << 41).to_le_bytes());
        assert_eq!(SketchDelta::decode(&frame), Err(PayloadError::Truncated));
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
