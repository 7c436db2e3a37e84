//! The off-chip SRAM counter array.
//!
//! `L` counters of `counter_bits` bits each. Adds saturate at the
//! counter capacity `l = 2^bits − 1` (a real SRAM word cannot wrap
//! silently without corrupting every sharing flow); saturation events
//! are counted so experiments can detect an undersized configuration.

use crate::merge::MergeError;
use crate::query::CounterView;

/// Counters per dirty-tracking block: the granularity at which
/// checkpoint and push deltas report "something here changed" (one
/// cache line of u64 words), and the width of the atomic array's
/// per-counter change mask.
pub const DIRTY_BLOCK_COUNTERS: usize = 64;

/// Fixed-width saturating counter array.
#[derive(Debug, Clone)]
pub struct CounterArray {
    counters: Vec<u64>,
    max_value: u64,
    bits: u32,
    saturations: u64,
    /// Total of everything ever added (before saturation clipping) —
    /// the `n = Q·μ` the estimators need for de-noising.
    total_added: u64,
    accesses: u64,
}

/// Summary of the array state.
#[derive(Debug, Clone, Copy)]
pub struct CounterArrayStats {
    /// Number of counters `L`.
    pub len: usize,
    /// Bits per counter.
    pub bits: u32,
    /// Saturating adds that lost precision.
    pub saturations: u64,
    /// Total units added.
    pub total_added: u64,
    /// Write accesses performed.
    pub accesses: u64,
    /// Counters currently zero.
    pub zeros: usize,
}

impl CounterArray {
    /// `len` counters of `bits` bits, all zero.
    ///
    /// # Panics
    /// Panics if `len == 0` or `bits` is outside `1..=63`.
    pub fn new(len: usize, bits: u32) -> Self {
        assert!(len > 0, "counter array cannot be empty");
        assert!((1..=63).contains(&bits), "counter bits must be in 1..=63");
        Self {
            counters: vec![0; len],
            max_value: (1u64 << bits) - 1,
            bits,
            saturations: 0,
            total_added: 0,
            accesses: 0,
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when the array has no counters (never: `new` forbids it).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Maximum storable value `l`.
    pub fn max_value(&self) -> u64 {
        self.max_value
    }

    /// Add `v` to counter `idx`, saturating at `l`.
    #[inline]
    pub fn add(&mut self, idx: usize, v: u64) {
        self.accesses += 1;
        self.total_added += v;
        let c = &mut self.counters[idx];
        let room = self.max_value - *c;
        if v > room {
            *c = self.max_value;
            self.saturations += 1;
        } else {
            *c += v;
        }
    }

    /// Apply one eviction's coalesced per-counter increments: add
    /// `incs[slot]` to counter `indices[slot]` for every **nonzero**
    /// increment, in slot order, with exactly the per-write tallies of
    /// [`CounterArray::add`]. Returns the number of counters written.
    /// One inherent call instead of `k` dependent `add` calls keeps the
    /// capacity/room math in registers across the whole row — the
    /// lane-structured eviction hot path
    /// ([`crate::update::spread_eviction`]).
    ///
    /// # Panics
    /// Panics if `incs` is shorter than `indices` or an index is out of
    /// bounds.
    #[inline]
    pub fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64 {
        let max = self.max_value;
        let mut writes = 0u64;
        for (&idx, &inc) in indices.iter().zip(&incs[..indices.len()]) {
            if inc == 0 {
                continue;
            }
            self.accesses += 1;
            self.total_added += inc;
            let c = &mut self.counters[idx];
            let room = max - *c;
            if inc > room {
                *c = max;
                self.saturations += 1;
            } else {
                *c += inc;
            }
            writes += 1;
        }
        writes
    }

    /// Apply a batch of `(index, increment)` updates, one
    /// [`CounterArray::add`] each (duplicates legal, zero increments
    /// tallied as accesses exactly like a zero `add`). The word-array
    /// mirror of [`crate::PackedCounterArray::add_batch`].
    pub fn add_batch(&mut self, updates: &[(usize, u64)]) {
        for &(idx, v) in updates {
            self.add(idx, v);
        }
    }

    /// Read counter `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        self.counters[idx]
    }

    /// Software-prefetch the word holding counter `idx` (no-op when
    /// out of bounds or on non-x86 targets). Used by the batch record
    /// loop to hint a flow's `k` counter lines one packet ahead of the
    /// eviction that will read-modify-write them.
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        support::mem::prefetch_index(&self.counters, idx);
    }

    /// Sum over all counters (equals `total_added` when nothing
    /// saturated).
    pub fn sum(&self) -> u64 {
        self.counters.iter().sum()
    }

    /// Total units offered to the array (`n` for the estimators).
    pub fn total_added(&self) -> u64 {
        self.total_added
    }

    /// Fraction of counters pinned at the capacity `l` — the
    /// per-workload saturation metric of the zoo sweeps. A clamped
    /// counter under-reports every flow sharing it, so this bounds the
    /// fraction of the array that is silently lossy.
    pub fn saturated_fraction(&self) -> f64 {
        let sat = self
            .counters
            .iter()
            .filter(|&&c| c >= self.max_value)
            .count();
        sat as f64 / self.counters.len() as f64
    }

    /// Array statistics.
    pub fn stats(&self) -> CounterArrayStats {
        CounterArrayStats {
            len: self.counters.len(),
            bits: self.bits,
            saturations: self.saturations,
            total_added: self.total_added,
            accesses: self.accesses,
            zeros: self.counters.iter().filter(|&&c| c == 0).count(),
        }
    }

    /// Reset all counters and statistics.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        self.saturations = 0;
        self.total_added = 0;
        self.accesses = 0;
    }

    /// Borrow the raw counters (for estimation sweeps).
    pub fn as_slice(&self) -> &[u64] {
        &self.counters
    }

    /// Merge another array into this one (element-wise saturating add).
    ///
    /// # Panics
    /// Panics if geometries differ. Prefer
    /// [`CounterArray::merge_from`] for the error-propagating form.
    pub fn merge(&mut self, other: &CounterArray) {
        self.merge_from(other).expect("counter array merge");
    }

    /// Saturation-aware merge: add `other` counter-wise, clamping each
    /// sum at `max_value` and counting every clamp as a saturation
    /// event; `other`'s own saturation/offered/access tallies fold in,
    /// so the merged array reports the union's health honestly (a
    /// clamped counter summed past the cap must *not* read as an
    /// ordinary value). Rejects mismatched geometry with a typed
    /// [`MergeError`] instead of summing unrelated flows.
    pub fn merge_from(&mut self, other: &CounterArray) -> Result<(), MergeError> {
        if self.counters.len() != other.counters.len() {
            return Err(MergeError::Geometry {
                field: "counters",
                ours: self.counters.len() as u64,
                theirs: other.counters.len() as u64,
            });
        }
        if self.bits != other.bits {
            return Err(MergeError::Geometry {
                field: "counter_bits",
                ours: u64::from(self.bits),
                theirs: u64::from(other.bits),
            });
        }
        for (idx, &v) in other.counters.iter().enumerate() {
            if v == 0 {
                continue;
            }
            let c = &mut self.counters[idx];
            let room = self.max_value - *c;
            if v > room {
                *c = self.max_value;
                self.saturations += 1;
            } else {
                *c += v;
            }
        }
        self.total_added += other.total_added;
        self.accesses += other.accesses;
        self.saturations += other.saturations;
        Ok(())
    }
}

/// The storage seam of the ingest path: everything the CAESAR pipeline
/// ([`crate::CaesarCore`]) needs from its off-chip counter array.
///
/// Implemented by the word-per-counter [`CounterArray`] (the simulation
/// hot path) and the hardware-faithful bit-packed
/// [`crate::PackedCounterArray`], so the same construction code runs —
/// and is priced, by the `ablations/ingest_backing` bench group —
/// against either layout.
///
/// Reads come from the [`CounterView`] supertrait — the same contract
/// the query phase reads through.
///
/// Every implementor must honor the [`CounterArray`] semantics (the
/// packed-parity suite pins them): adds saturate at
/// [`clamp_value`](CounterView::clamp_value) and count saturation
/// events, each write tallies one access, and the offered-units total
/// records pre-clipping values.
pub trait SramBacking: CounterView {
    /// Fresh all-zero array of `len` counters of `bits` bits each.
    ///
    /// # Panics
    /// Panics if `len == 0` or `bits` is outside `1..=63`.
    fn new_backing(len: usize, bits: u32) -> Self
    where
        Self: Sized;

    /// Add `v` to counter `idx`, saturating at the capacity.
    fn add(&mut self, idx: usize, v: u64);

    /// Apply one eviction's coalesced per-counter increments
    /// (`incs[slot]` onto `indices[slot]`, zero increments skipped with
    /// **no** access tallied) and return the number of counters
    /// written. Must be observably identical to the skip-zero `add`
    /// loop — see [`CounterArray::add_spread`].
    fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64;

    /// Number of counters `L`.
    fn len(&self) -> usize;

    /// True when the array has no counters.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum over all counters.
    fn sum(&self) -> u64;

    /// Array statistics in the common [`CounterArrayStats`] shape.
    fn stats(&self) -> CounterArrayStats;

    /// Fraction of counters pinned at the capacity `l`.
    fn saturated_fraction(&self) -> f64;
}

impl SramBacking for CounterArray {
    fn new_backing(len: usize, bits: u32) -> Self {
        CounterArray::new(len, bits)
    }

    #[inline]
    fn add(&mut self, idx: usize, v: u64) {
        CounterArray::add(self, idx, v);
    }

    #[inline]
    fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64 {
        CounterArray::add_spread(self, indices, incs)
    }

    fn len(&self) -> usize {
        CounterArray::len(self)
    }

    fn sum(&self) -> u64 {
        CounterArray::sum(self)
    }

    fn stats(&self) -> CounterArrayStats {
        CounterArray::stats(self)
    }

    fn saturated_fraction(&self) -> f64 {
        CounterArray::saturated_fraction(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut a = CounterArray::new(4, 8);
        a.add(0, 5);
        a.add(0, 7);
        a.add(3, 1);
        assert_eq!(a.get(0), 12);
        assert_eq!(a.get(3), 1);
        assert_eq!(a.get(1), 0);
        assert_eq!(a.sum(), 13);
        assert_eq!(a.total_added(), 13);
    }

    #[test]
    fn saturates_at_capacity() {
        let mut a = CounterArray::new(1, 4); // max 15
        a.add(0, 10);
        a.add(0, 10);
        assert_eq!(a.get(0), 15);
        assert_eq!(a.stats().saturations, 1);
        // total_added still records what was offered.
        assert_eq!(a.total_added(), 20);
    }

    #[test]
    fn clear_resets_everything() {
        let mut a = CounterArray::new(2, 8);
        a.add(1, 3);
        a.clear();
        assert_eq!(a.sum(), 0);
        assert_eq!(a.total_added(), 0);
        assert_eq!(a.stats().accesses, 0);
    }

    #[test]
    fn stats_zeros() {
        let mut a = CounterArray::new(5, 8);
        a.add(2, 1);
        assert_eq!(a.stats().zeros, 4);
    }

    #[test]
    fn saturated_fraction_counts_pinned_words() {
        let mut a = CounterArray::new(4, 4); // max 15
        assert_eq!(a.saturated_fraction(), 0.0);
        a.add(0, 100);
        a.add(1, 15); // exactly at cap counts as saturated
        a.add(2, 14);
        assert!((a.saturated_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_rejected() {
        CounterArray::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn bad_bits_rejected() {
        CounterArray::new(1, 64);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_add_panics() {
        let mut a = CounterArray::new(2, 8);
        a.add(2, 1);
    }

    #[test]
    fn add_spread_matches_skip_zero_add_loop() {
        let indices = [0usize, 3, 1, 3];
        for incs in [[5u64, 0, 7, 2], [0, 0, 0, 0], [300, 1, 1, 300]] {
            let mut spread = CounterArray::new(4, 8);
            let mut looped = CounterArray::new(4, 8);
            let writes = spread.add_spread(&indices, &incs);
            let mut expect = 0u64;
            for (&idx, &inc) in indices.iter().zip(&incs) {
                if inc > 0 {
                    looped.add(idx, inc);
                    expect += 1;
                }
            }
            assert_eq!(writes, expect, "incs {incs:?}");
            assert_eq!(spread.as_slice(), looped.as_slice());
            let (a, b) = (spread.stats(), looped.stats());
            assert_eq!(a.accesses, b.accesses);
            assert_eq!(a.total_added, b.total_added);
            assert_eq!(a.saturations, b.saturations);
        }
    }

    #[test]
    #[should_panic]
    fn add_spread_short_incs_panics() {
        let mut a = CounterArray::new(4, 8);
        a.add_spread(&[0, 1, 2], &[1, 2]);
    }

    #[test]
    fn merge_from_sums_counters_and_tallies() {
        let mut a = CounterArray::new(4, 8);
        let mut b = CounterArray::new(4, 8);
        a.add(0, 5);
        a.add(2, 7);
        b.add(0, 3);
        b.add(3, 9);
        a.merge_from(&b).unwrap();
        assert_eq!(a.as_slice(), &[8, 0, 7, 9]);
        assert_eq!(a.total_added(), 24);
        assert_eq!(a.stats().accesses, 4);
        assert_eq!(a.stats().saturations, 0);
    }

    #[test]
    fn merge_from_clamps_and_counts_saturation() {
        let mut a = CounterArray::new(2, 4); // max 15
        let mut b = CounterArray::new(2, 4);
        a.add(0, 10);
        b.add(0, 10); // merged sum 20 > 15 → clamp
        b.add(1, 100); // b already saturated once itself
        a.merge_from(&b).unwrap();
        assert_eq!(a.get(0), 15);
        assert_eq!(a.get(1), 15);
        // one clamp during merge + one inherited from b's own add
        assert_eq!(a.stats().saturations, 2);
        // offered totals fold even though values clamped
        assert_eq!(a.total_added(), 120);
    }

    #[test]
    fn merge_from_rejects_mismatched_geometry() {
        let mut a = CounterArray::new(4, 8);
        let b = CounterArray::new(5, 8);
        match a.merge_from(&b) {
            Err(MergeError::Geometry { field, ours, theirs }) => {
                assert_eq!(field, "counters");
                assert_eq!((ours, theirs), (4, 5));
            }
            other => panic!("expected geometry error, got {other:?}"),
        }
        let c = CounterArray::new(4, 10);
        assert!(matches!(
            a.merge_from(&c),
            Err(MergeError::Geometry { field: "counter_bits", .. })
        ));
    }
}
