//! Bit-packed counter storage.
//!
//! The paper's memory accounting (`SRAM = L·log2(l)/8192` KB) assumes
//! counters are packed back-to-back at exactly `log2(l)` bits. The
//! simulator's hot path uses one machine word per counter
//! ([`crate::CounterArray`]) for speed; this module provides the
//! hardware-faithful packed layout with the same semantics, so the
//! byte-for-byte memory claims can be verified and the two layouts can
//! be property-tested against each other.

/// A counter array storing `len` counters of exactly `bits` bits each,
/// packed contiguously into 64-bit words (counters may straddle word
/// boundaries).
/// ```
/// use caesar::PackedCounterArray;
/// let mut a = PackedCounterArray::new(100, 13); // 13-bit counters
/// a.add(7, 1000);
/// assert_eq!(a.get(7), 1000);
/// assert_eq!(a.memory_bytes(), (100 * 13 + 7) / 8);
/// ```
#[derive(Debug, Clone)]
pub struct PackedCounterArray {
    words: Vec<u64>,
    len: usize,
    bits: u32,
    max_value: u64,
    saturations: u64,
    total_added: u64,
    /// Write accesses performed — same tally as
    /// [`crate::CounterArray`]'s, so a packed-backed build reports
    /// identical [`CounterArrayStats`](crate::sram::CounterArrayStats)
    /// to a word-backed one (the parity suite pins it).
    accesses: u64,
    /// Dirty-block bitmap, same layout and semantics as
    /// [`crate::CounterArray`]'s (one bit per
    /// [`DIRTY_BLOCK_COUNTERS`](crate::sram::DIRTY_BLOCK_COUNTERS)
    /// counters, independent of the packed word layout).
    dirty: Vec<u64>,
}

impl PackedCounterArray {
    /// `len` counters of `bits` bits, all zero.
    ///
    /// # Panics
    /// Panics if `len == 0` or `bits` is outside `1..=63`.
    pub fn new(len: usize, bits: u32) -> Self {
        assert!(len > 0, "counter array cannot be empty");
        assert!((1..=63).contains(&bits), "counter bits must be in 1..=63");
        let total_bits = len as u64 * bits as u64;
        let words = total_bits.div_ceil(64) as usize;
        Self {
            words: vec![0; words],
            len,
            bits,
            max_value: (1u64 << bits) - 1,
            saturations: 0,
            total_added: 0,
            accesses: 0,
            dirty: vec![0; crate::sram::dirty_words_for(len)],
        }
    }

    /// Mark the block holding counter `idx` dirty.
    #[inline(always)]
    fn mark_dirty(&mut self, idx: usize) {
        let block = idx >> crate::sram::DIRTY_BLOCK_SHIFT;
        let bit = 1u64 << (block & 63);
        let word = &mut self.dirty[block >> 6];
        if *word & bit == 0 {
            *word |= bit;
        }
    }

    /// Drain the dirty-block bitmap — see
    /// [`crate::CounterArray::take_dirty_blocks`] for the contract.
    pub fn take_dirty_blocks(&mut self) -> Vec<usize> {
        crate::sram::drain_dirty_words(&mut self.dirty)
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no counters (never: `new` forbids it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per counter.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Maximum storable value `l`.
    pub fn max_value(&self) -> u64 {
        self.max_value
    }

    /// Exact storage footprint in bytes (the paper's SRAM size).
    pub fn memory_bytes(&self) -> usize {
        // Count the packed bits, not the Vec<u64> slack.
        (self.len * self.bits as usize).div_ceil(8)
    }

    /// Read counter `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "counter index {idx} out of range {}", self.len);
        let bit = idx as u64 * self.bits as u64;
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        let lo = self.words[word] >> off;
        let have = 64 - off;
        let v = if have >= self.bits {
            lo
        } else {
            lo | (self.words[word + 1] << have)
        };
        v & self.max_value
    }

    fn set(&mut self, idx: usize, v: u64) {
        debug_assert!(v <= self.max_value);
        let bit = idx as u64 * self.bits as u64;
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        let mask = self.max_value;
        self.words[word] &= !(mask << off);
        self.words[word] |= v << off;
        let have = 64 - off;
        if have < self.bits {
            let hi_bits = self.bits - have;
            let hi_mask = (1u64 << hi_bits) - 1;
            self.words[word + 1] &= !hi_mask;
            self.words[word + 1] |= v >> have;
        }
    }

    /// Add `v` to counter `idx`, saturating at the counter capacity.
    /// The offered-units total is a wrapping tally (the same semantics
    /// as [`crate::AtomicCounterArray::add`]).
    pub fn add(&mut self, idx: usize, v: u64) {
        self.accesses += 1;
        self.total_added = self.total_added.wrapping_add(v);
        self.mark_dirty(idx);
        let cur = self.get(idx);
        let room = self.max_value - cur;
        if v > room {
            self.set(idx, self.max_value);
            self.saturations += 1;
        } else {
            self.set(idx, cur + v);
        }
    }

    /// Apply a batch of `(index, increment)` updates — the packed
    /// mirror of [`crate::AtomicCounterArray::add_batch`]: the
    /// offered-units total is accumulated once for the whole batch
    /// (wrapping, exactly like repeated [`PackedCounterArray::add`]
    /// tallies would), zero increments are skipped, and duplicate
    /// indices are legal. Equivalent to
    /// `for &(i, v) in updates { self.add(i, v) }` for every
    /// observable value (pinned against the plain word-per-counter
    /// [`crate::CounterArray`] by property test).
    pub fn add_batch(&mut self, updates: &[(usize, u64)]) {
        let mut batch_total = 0u64;
        for &(_, v) in updates {
            batch_total = batch_total.wrapping_add(v);
        }
        self.total_added = self.total_added.wrapping_add(batch_total);
        self.accesses += updates.len() as u64;
        for &(idx, v) in updates {
            // A zero add still marks its block, exactly like the word
            // array's `add_batch` (dirtiness over-approximates).
            self.mark_dirty(idx);
            if v == 0 {
                continue;
            }
            let cur = self.get(idx);
            let room = self.max_value - cur;
            if v > room {
                self.set(idx, self.max_value);
                self.saturations += 1;
            } else {
                self.set(idx, cur + v);
            }
        }
    }

    /// Apply one eviction's coalesced per-counter increments — the
    /// packed mirror of [`crate::CounterArray::add_spread`]: every
    /// **nonzero** `incs[slot]` is added (one access tallied) to
    /// counter `indices[slot]` in slot order; returns the number of
    /// counters written.
    ///
    /// # Panics
    /// Panics if `incs` is shorter than `indices` or an index is out
    /// of bounds.
    #[inline]
    pub fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64 {
        let mut writes = 0u64;
        for (&idx, &inc) in indices.iter().zip(&incs[..indices.len()]) {
            if inc > 0 {
                self.add(idx, inc);
                writes += 1;
            }
        }
        writes
    }

    /// Software-prefetch the word holding counter `idx`'s low bits
    /// (no-op when out of bounds or on non-x86 targets).
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        if idx < self.len {
            let word = (idx as u64 * self.bits as u64 / 64) as usize;
            support::mem::prefetch_index(&self.words, word);
        }
    }

    /// Sum over all counters.
    pub fn sum(&self) -> u64 {
        (0..self.len).map(|i| self.get(i)).sum()
    }

    /// Total units offered.
    pub fn total_added(&self) -> u64 {
        self.total_added
    }

    /// Saturating adds that lost precision.
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Write accesses performed (one per [`PackedCounterArray::add`],
    /// one per batch entry).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Fraction of counters pinned at the capacity `l` (see
    /// [`crate::CounterArray::saturated_fraction`]).
    pub fn saturated_fraction(&self) -> f64 {
        let sat = (0..self.len)
            .filter(|&i| self.get(i) >= self.max_value)
            .count();
        sat as f64 / self.len as f64
    }

    /// Array statistics in the common
    /// [`CounterArrayStats`](crate::sram::CounterArrayStats) shape.
    pub fn stats(&self) -> crate::sram::CounterArrayStats {
        crate::sram::CounterArrayStats {
            len: self.len,
            bits: self.bits,
            saturations: self.saturations,
            total_added: self.total_added,
            accesses: self.accesses,
            zeros: (0..self.len).filter(|&i| self.get(i) == 0).count(),
        }
    }
}

impl crate::sram::SramBacking for PackedCounterArray {
    fn new_backing(len: usize, bits: u32) -> Self {
        PackedCounterArray::new(len, bits)
    }

    #[inline]
    fn add(&mut self, idx: usize, v: u64) {
        PackedCounterArray::add(self, idx, v);
    }

    #[inline]
    fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64 {
        PackedCounterArray::add_spread(self, indices, incs)
    }

    fn len(&self) -> usize {
        PackedCounterArray::len(self)
    }

    fn sum(&self) -> u64 {
        PackedCounterArray::sum(self)
    }

    fn stats(&self) -> crate::sram::CounterArrayStats {
        PackedCounterArray::stats(self)
    }

    fn saturated_fraction(&self) -> f64 {
        PackedCounterArray::saturated_fraction(self)
    }

    fn take_dirty_blocks(&mut self) -> Vec<usize> {
        PackedCounterArray::take_dirty_blocks(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::CounterArray;

    #[test]
    fn straddling_counters_roundtrip() {
        // 13-bit counters guarantee word straddles.
        let mut a = PackedCounterArray::new(100, 13);
        for i in 0..100 {
            a.add(i, (i as u64 * 37) % 8192);
        }
        for i in 0..100 {
            assert_eq!(a.get(i), (i as u64 * 37) % 8192, "counter {i}");
        }
    }

    #[test]
    fn neighbours_do_not_clobber() {
        let mut a = PackedCounterArray::new(10, 7);
        a.add(3, 100);
        a.add(4, 27);
        a.add(2, 1);
        assert_eq!(a.get(3), 100);
        assert_eq!(a.get(4), 27);
        assert_eq!(a.get(2), 1);
        assert_eq!(a.get(5), 0);
    }

    #[test]
    fn saturation() {
        let mut a = PackedCounterArray::new(3, 4);
        a.add(1, 20);
        assert_eq!(a.get(1), 15);
        assert_eq!(a.saturations(), 1);
        assert_eq!(a.total_added(), 20);
    }

    #[test]
    fn memory_accounting_is_exact() {
        // 23,437 counters × 32 bits = 91.55 KB (the paper's Fig. 4 budget).
        let a = PackedCounterArray::new(23_437, 32);
        let kb = a.memory_bytes() as f64 / 1024.0;
        assert!((kb - 91.55).abs() < 0.01, "kb = {kb}");
        // 5-bit counters actually take 5/8 byte each.
        let b = PackedCounterArray::new(8, 5);
        assert_eq!(b.memory_bytes(), 5);
    }

    #[test]
    fn equivalent_to_word_array() {
        // Same operation stream against both layouts.
        let mut packed = PackedCounterArray::new(57, 11);
        let mut plain = CounterArray::new(57, 11);
        let mut x = 5u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (x % 57) as usize;
            let v = (x >> 32) % 40;
            packed.add(idx, v);
            plain.add(idx, v);
        }
        for i in 0..57 {
            assert_eq!(packed.get(i), plain.get(i), "counter {i}");
        }
        assert_eq!(packed.sum(), plain.sum());
        assert_eq!(packed.total_added(), plain.total_added());
    }

    #[test]
    fn one_bit_counters() {
        let mut a = PackedCounterArray::new(130, 1);
        a.add(0, 1);
        a.add(64, 1);
        a.add(129, 5); // saturates at 1
        assert_eq!(a.get(0), 1);
        assert_eq!(a.get(1), 0);
        assert_eq!(a.get(64), 1);
        assert_eq!(a.get(129), 1);
        assert_eq!(a.sum(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        PackedCounterArray::new(4, 8).get(4);
    }

    #[test]
    fn dirty_blocks_match_word_array_semantics() {
        use crate::sram::DIRTY_BLOCK_COUNTERS;
        let mut a = PackedCounterArray::new(DIRTY_BLOCK_COUNTERS * 3, 11);
        assert!(a.take_dirty_blocks().is_empty());
        a.add(1, 7);
        a.add(DIRTY_BLOCK_COUNTERS * 2 + 5, 9);
        assert_eq!(a.take_dirty_blocks(), vec![0, 2]);
        a.add_batch(&[(DIRTY_BLOCK_COUNTERS, 0), (2, 4)]);
        assert_eq!(a.take_dirty_blocks(), vec![0, 1]);
        assert!(a.take_dirty_blocks().is_empty());
    }

    #[test]
    fn add_batch_matches_repeated_add() {
        let mut batched = PackedCounterArray::new(8, 10);
        let mut looped = PackedCounterArray::new(8, 10);
        let updates: Vec<(usize, u64)> =
            vec![(0, 3), (1, 0), (7, 2000), (0, 5), (7, 200), (3, 1), (0, 2)];
        batched.add_batch(&updates);
        for &(i, v) in &updates {
            looped.add(i, v);
        }
        for i in 0..8 {
            assert_eq!(batched.get(i), looped.get(i), "counter {i}");
        }
        assert_eq!(batched.total_added(), looped.total_added());
        assert_eq!(batched.saturations(), looped.saturations());
        assert_eq!(batched.sum(), looped.sum());
    }

    #[test]
    fn add_batch_empty_and_zeroes_are_noops() {
        let mut a = PackedCounterArray::new(4, 8);
        a.add_batch(&[]);
        a.add_batch(&[(0, 0), (3, 0)]);
        assert_eq!(a.total_added(), 0);
        assert_eq!(a.sum(), 0);
        assert_eq!(a.saturations(), 0);
    }

    #[test]
    fn batched_adds_match_plain_counter_array_under_saturation() {
        // Property pin (randomized): packed batched adds ≡ plain
        // word-per-counter adds for every observable value, across
        // straddling widths and narrow saturating counters.
        use support::rand::Rng;
        use support::testkit::for_each_seed_n;
        for_each_seed_n(32, |rng| {
            let len = rng.gen_range(1..97usize);
            // Narrow widths force frequent saturation; odd widths force
            // word straddles.
            let bits = rng.gen_range(1..17u32);
            let mut packed = PackedCounterArray::new(len, bits);
            let mut plain = CounterArray::new(len, bits);
            for _batch in 0..rng.gen_range(1..8usize) {
                let updates: Vec<(usize, u64)> = (0..rng.gen_range(0..64usize))
                    .map(|_| {
                        (
                            rng.gen_range(0..len),
                            rng.gen_range(0..(3u64 << bits.min(32))),
                        )
                    })
                    .collect();
                packed.add_batch(&updates);
                for &(i, v) in &updates {
                    plain.add(i, v);
                }
            }
            for i in 0..len {
                assert_eq!(
                    packed.get(i),
                    plain.get(i),
                    "len {len} bits {bits} counter {i}"
                );
            }
            assert_eq!(packed.sum(), plain.sum());
            assert_eq!(packed.total_added(), plain.total_added());
        });
    }
}
