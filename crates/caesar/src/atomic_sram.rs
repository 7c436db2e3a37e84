//! Lock-free shared SRAM counter array.
//!
//! The off-chip counter array is the only state the sharded
//! construction phase shares, and its one operation — saturating add —
//! commutes, so plain relaxed atomics suffice: no ordering is needed
//! between adds, and the `crossbeam::scope` join provides the
//! happens-before edge that makes the final values visible to the
//! query phase. (See the "Rust Atomics and Locks" guidance: use the
//! weakest ordering the algorithm admits.)

use crate::merge::MergeError;
use crate::sram::DIRTY_BLOCK_COUNTERS;
use std::sync::atomic::{AtomicU64, Ordering};
use support::spsc::CachePadded;

/// One stripe of the shared tallies: the offered-units total and the
/// saturation count a group of writers (one shard, typically) charges.
///
/// Cache-line padded: before striping, every shard's writeback ended in
/// a `fetch_add` on *one* shared `total_added` word — a guaranteed
/// cache-line ping-pong that serialized otherwise independent flushes.
/// With one padded stripe per shard the RMWs land on private lines and
/// the aggregate is summed at read time (reads are the cold path).
#[derive(Debug, Default)]
struct Tally {
    total_added: AtomicU64,
    saturations: AtomicU64,
}

/// Fixed-width saturating counter array with interior mutability.
#[derive(Debug)]
pub struct AtomicCounterArray {
    counters: Vec<AtomicU64>,
    max_value: u64,
    bits: u32,
    /// Per-stripe tallies; writers pick a stripe (their shard id), the
    /// read accessors sum over all stripes.
    tallies: Box<[CachePadded<Tally>]>,
    /// Dirty bitmap, one bit per counter: word `b` is block `b`'s
    /// change mask (a block is [`DIRTY_BLOCK_COUNTERS`] = 64 counters).
    /// Writers test-then-or with relaxed atomics — within an epoch
    /// almost every write hits an already-set bit, so the hot path pays
    /// a load, not a locked RMW.
    dirty: Vec<AtomicU64>,
}

// A block's change mask is one `u64` word.
const _: () = assert!(DIRTY_BLOCK_COUNTERS == u64::BITS as usize);

impl AtomicCounterArray {
    /// `len` counters of `bits` bits, all zero, with a single tally
    /// stripe (the sequential / few-writer shape).
    ///
    /// # Panics
    /// Panics if `len == 0` or `bits` is outside `1..=63`.
    pub fn new(len: usize, bits: u32) -> Self {
        Self::with_stripes(len, bits, 1)
    }

    /// `len` counters of `bits` bits with `stripes` cache-line-padded
    /// tally stripes — one per expected concurrent writer (shard), so
    /// the hot offered-units/saturation RMWs never contend.
    ///
    /// # Panics
    /// Panics if `len == 0`, `bits` is outside `1..=63`,
    /// `stripes == 0`, or the allocator refuses `len` counters.
    pub fn with_stripes(len: usize, bits: u32, stripes: usize) -> Self {
        Self::try_with_stripes(len, bits, stripes)
            .unwrap_or_else(|| panic!("{len} counters are too many to allocate"))
    }

    /// [`AtomicCounterArray::with_stripes`], or `None` when the
    /// allocator refuses the `len` counters — the form a restore uses,
    /// whose `len` comes from outside the program.
    ///
    /// # Panics
    /// Panics if `len == 0`, `bits` is outside `1..=63`, or
    /// `stripes == 0`.
    pub(crate) fn try_with_stripes(len: usize, bits: u32, stripes: usize) -> Option<Self> {
        assert!(len > 0, "counter array cannot be empty");
        assert!((1..=63).contains(&bits), "counter bits must be in 1..=63");
        assert!(stripes >= 1, "need at least one tally stripe");
        let zeroed = |n: usize| {
            let mut words = Vec::new();
            words.try_reserve_exact(n).ok()?;
            words.resize_with(n, || AtomicU64::new(0));
            Some(words)
        };
        Some(Self {
            counters: zeroed(len)?,
            max_value: (1u64 << bits) - 1,
            bits,
            tallies: (0..stripes).map(|_| CachePadded::<Tally>::default()).collect(),
            dirty: zeroed(len.div_ceil(DIRTY_BLOCK_COUNTERS))?,
        })
    }

    /// Mark counter `idx` dirty. Test-then-or: the locked RMW only
    /// fires the first time a counter dirties between drains, so
    /// steady-state writes pay one relaxed load.
    #[inline(always)]
    fn mark_dirty(&self, idx: usize) {
        let word = &self.dirty[idx / DIRTY_BLOCK_COUNTERS];
        let bit = 1u64 << (idx % DIRTY_BLOCK_COUNTERS);
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Drain the dirty bitmap: `(block, change mask)` for every block
    /// with a counter written since the last drain, ascending, then
    /// mark everything clean. Bit `i` of a mask is counter
    /// `block * DIRTY_BLOCK_COUNTERS + i`. Clean words are read, not
    /// swapped. The masks over-approximate change and never miss a
    /// changed counter — **provided the caller drains at a quiescent
    /// point**: a writer racing the drain may have its mark consumed
    /// while its counter store lands after the caller reads the
    /// counter, so the delta checkpoint machinery only drains at epoch
    /// boundaries, after the lane rings and writeback buffers have been
    /// flushed.
    pub fn take_dirty_masks(&self) -> Vec<(usize, u64)> {
        let mut masks = Vec::new();
        for (block, word) in self.dirty.iter().enumerate() {
            if word.load(Ordering::Relaxed) != 0 {
                masks.push((block, word.swap(0, Ordering::Relaxed)));
            }
        }
        masks
    }

    /// Drain the dirty bitmap down to its blocks: ascending indices of
    /// every [`DIRTY_BLOCK_COUNTERS`]-counter block written since the
    /// last drain (the blocks whose mask is nonzero; see
    /// [`AtomicCounterArray::take_dirty_masks`], whose quiescence
    /// contract applies).
    pub fn take_dirty_blocks(&self) -> Vec<usize> {
        self.take_dirty_masks().into_iter().map(|(block, _)| block).collect()
    }

    /// `(block, mask)` for every [`DIRTY_BLOCK_COUNTERS`]-counter block
    /// holding a nonzero counter, ascending; bit `i` of a mask is set
    /// when the block's counter `i` is nonzero.
    pub(crate) fn nonzero_masks(&self) -> Vec<(usize, u64)> {
        let nonzero = |block: &[AtomicU64]| {
            let bits = block.iter().map(|c| u64::from(c.load(Ordering::Relaxed) != 0));
            bits.enumerate().fold(0u64, |mask, (i, bit)| mask | bit << i)
        };
        (self.counters.chunks(DIRTY_BLOCK_COUNTERS).enumerate())
            .filter_map(|(b, block)| Some((b, nonzero(block))).filter(|&(_, m)| m != 0))
            .collect()
    }

    /// Overwrite counters with absolute values, given as `(index,
    /// value)` pairs (relaxed stores, no tallies, no dirty marks) — the
    /// replay primitive of delta-checkpoint restore, where the values
    /// come from a frame that already carries the matching tallies and
    /// the rewritten state re-baselines the dirty bitmap.
    ///
    /// # Panics
    /// Panics if an index is out of bounds or a value exceeds the
    /// `bits` cap (callers validate first to report typed errors).
    pub fn store_counters(&self, values: impl IntoIterator<Item = (usize, u64)>) {
        for (idx, v) in values {
            assert!(v <= self.max_value, "stored counter exceeds {}-bit cap", self.bits);
            self.counters[idx].store(v, Ordering::Relaxed);
        }
    }

    /// Overwrite the per-stripe tallies with pairs from
    /// [`AtomicCounterArray::tally_snapshot`] — the tally half of a
    /// delta-checkpoint replay.
    ///
    /// # Panics
    /// Panics if `tallies` does not match the stripe count.
    pub fn restore_tallies(&self, tallies: &[(u64, u64)]) {
        assert_eq!(tallies.len(), self.tallies.len(), "stripe count mismatch");
        for (t, &(added, sat)) in self.tallies.iter().zip(tallies) {
            t.total_added.store(added, Ordering::Relaxed);
            t.saturations.store(sat, Ordering::Relaxed);
        }
    }

    /// Number of tally stripes.
    pub fn stripes(&self) -> usize {
        self.tallies.len()
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when the array has no counters (never: `new` forbids it).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Bits per counter.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Maximum storable value `l`.
    pub fn max_value(&self) -> u64 {
        self.max_value
    }

    /// Saturating add of `v` to counter `idx`, callable from any
    /// thread concurrently. Tallies charge stripe 0.
    pub fn add(&self, idx: usize, v: u64) {
        if v == 0 {
            return;
        }
        self.tallies[0].total_added.fetch_add(v, Ordering::Relaxed);
        self.add_counter(idx, v, 0);
    }

    /// The CAS half of [`AtomicCounterArray::add`]: saturate counter
    /// `idx` towards `cur + v` without touching the offered-units
    /// total; saturation events are charged to `stripe`.
    fn add_counter(&self, idx: usize, v: u64, stripe: usize) {
        self.mark_dirty(idx);
        let c = &self.counters[idx];
        // CAS loop: fetch_add alone could overshoot the saturation cap.
        let mut cur = c.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v).min(self.max_value);
            match c.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    // `cur + v` on raw u64s would wrap in release (and
                    // panic in debug) for byte-mode adds near u64::MAX;
                    // checked_add makes "overflowed u64" mean saturated.
                    let crossed =
                        cur.checked_add(v).is_none_or(|sum| sum > self.max_value);
                    if crossed {
                        self.tallies[stripe].saturations.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Apply a batch of `(index, increment)` updates with **one**
    /// shared-total RMW for the whole batch, then one CAS sequence per
    /// entry. Zero increments are skipped; duplicate indices are legal
    /// (callers wanting fewer CAS rounds should coalesce first — see
    /// [`WritebackBuffer`]). Equivalent to `for (i, v) in updates
    /// { self.add(i, v) }` for every observable value.
    pub fn add_batch(&self, updates: &[(usize, u64)]) {
        self.add_batch_striped(0, updates);
    }

    /// [`AtomicCounterArray::add_batch`] charging its tallies (the
    /// offered-units total and any saturation events) to tally stripe
    /// `stripe % stripes()` — the contention-free form for per-shard
    /// writeback: each shard's flush touches only its own padded tally
    /// line. Counter values are unaffected by the stripe choice.
    pub fn add_batch_striped(&self, stripe: usize, updates: &[(usize, u64)]) {
        let stripe = stripe % self.tallies.len();
        let mut batch_total = 0u64;
        for &(_, v) in updates {
            // The offered-units total is a u64 tally, not a saturating
            // counter; keep exact semantics identical to repeated `add`.
            batch_total = batch_total.wrapping_add(v);
        }
        if batch_total != 0 {
            self.tallies[stripe].total_added.fetch_add(batch_total, Ordering::Relaxed);
        }
        for &(idx, v) in updates {
            if v != 0 {
                self.add_counter(idx, v, stripe);
            }
        }
    }

    /// Read counter `idx`.
    pub fn get(&self, idx: usize) -> u64 {
        self.counters[idx].load(Ordering::Relaxed)
    }

    /// Software-prefetch the word holding counter `idx` (no-op when
    /// out of bounds or on non-x86 targets). A pure hint — no memory
    /// ordering effects.
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        support::mem::prefetch_index(&self.counters, idx);
    }

    /// Sum over all counters.
    pub fn sum(&self) -> u64 {
        self.counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total units offered (the estimators' `n`), summed over tally
    /// stripes. Reads are the cold path; writers never share a stripe
    /// line, so this sum is the entire cost of striping.
    pub fn total_added(&self) -> u64 {
        self.tallies
            .iter()
            .map(|t| t.total_added.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Saturating adds that lost precision, summed over tally stripes.
    pub fn saturations(&self) -> u64 {
        let sats = self.tallies.iter().map(|t| t.saturations.load(Ordering::Relaxed));
        sats.fold(0, u64::wrapping_add)
    }

    /// Fraction of counters pinned at the capacity `l` (see
    /// [`crate::sram::CounterArray::saturated_fraction`]) — the
    /// per-workload saturation metric of the zoo sweeps.
    pub fn saturated_fraction(&self) -> f64 {
        let sat = self
            .counters
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) >= self.max_value)
            .count();
        sat as f64 / self.counters.len() as f64
    }

    /// Copy out the counter values.
    pub fn snapshot(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Copy out the per-stripe tallies as `(total_added, saturations)`
    /// pairs — the other half of a crash-consistent snapshot (counter
    /// words alone cannot reconstruct the offered-units total or the
    /// saturation count, both of which query-health reporting needs).
    pub fn tally_snapshot(&self) -> Vec<(u64, u64)> {
        self.tallies
            .iter()
            .map(|t| {
                (
                    t.total_added.load(Ordering::Relaxed),
                    t.saturations.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Rebuild an array from a snapshot: `counters` are the words from
    /// [`AtomicCounterArray::snapshot`], `tallies` the stripe pairs
    /// from [`AtomicCounterArray::tally_snapshot`]. The restored array
    /// is observationally identical to the original — same values,
    /// same totals, same stripe layout.
    ///
    /// # Panics
    /// Panics if `counters` is empty, `bits` is outside `1..=63`,
    /// `tallies` is empty, or any counter word exceeds the `bits` cap
    /// (a corrupted snapshot must not smuggle in unreachable values).
    pub fn restore(bits: u32, counters: &[u64], tallies: &[(u64, u64)]) -> Self {
        let arr = Self::with_stripes(counters.len(), bits, tallies.len());
        for (i, &v) in counters.iter().enumerate() {
            assert!(
                v <= arr.max_value,
                "snapshot counter {i} = {v} exceeds {}-bit cap",
                bits
            );
            arr.counters[i].store(v, Ordering::Relaxed);
        }
        for (i, &(added, sat)) in tallies.iter().enumerate() {
            arr.tallies[i].total_added.store(added, Ordering::Relaxed);
            arr.tallies[i].saturations.store(sat, Ordering::Relaxed);
        }
        arr
    }

    /// Saturation-aware merge: add `other`'s counters element-wise
    /// (clamping at `max_value`, counting each crossing as a
    /// saturation event on stripe 0) and fold its offered-units and
    /// saturation tallies. Rejects mismatched geometry with a typed
    /// [`MergeError`]. Stripe counts may differ — stripes are an
    /// ingest-side layout detail, not part of the sketch identity.
    pub fn merge_from(&self, other: &AtomicCounterArray) -> Result<(), MergeError> {
        if self.bits != other.bits {
            return Err(MergeError::Geometry {
                field: "counter_bits",
                ours: u64::from(self.bits),
                theirs: u64::from(other.bits),
            });
        }
        self.merge_counters(&other.snapshot(), other.total_added(), other.saturations())
    }

    /// The raw-slice half of [`AtomicCounterArray::merge_from`]: fold a
    /// frozen counter snapshot plus its producer's tallies into this
    /// array. This is what a wire-pushed [`crate::SketchPayload`]
    /// merges through — the producing array no longer exists on this
    /// node, only its values do.
    pub fn merge_counters(
        &self,
        counters: &[u64],
        total_added: u64,
        saturation_events: u64,
    ) -> Result<(), MergeError> {
        if self.counters.len() != counters.len() {
            return Err(MergeError::Geometry {
                field: "counters",
                ours: self.counters.len() as u64,
                theirs: counters.len() as u64,
            });
        }
        for (idx, &v) in counters.iter().enumerate() {
            if v > 0 {
                self.add_counter(idx, v, 0);
            }
        }
        self.tallies[0].total_added.fetch_add(total_added, Ordering::Relaxed);
        self.tallies[0].saturations.fetch_add(saturation_events, Ordering::Relaxed);
        Ok(())
    }

    /// The sparse form of [`AtomicCounterArray::merge_counters`]: fold
    /// `(index, increment)` pairs plus the producer's tally increments
    /// — what a wire-pushed [`crate::SketchDelta`] merges through.
    /// Saturation-aware exactly like the dense path (each clamp
    /// crossing is counted), so a delta-fed view degrades
    /// [`crate::QueryHealth`] identically to a full-push-fed one.
    pub fn merge_counters_sparse(
        &self,
        updates: &[(usize, u64)],
        total_added: u64,
        saturation_events: u64,
    ) -> Result<(), MergeError> {
        if let Some(&(idx, _)) = updates.iter().find(|&&(idx, _)| idx >= self.counters.len()) {
            return Err(MergeError::Geometry {
                field: "counters",
                ours: self.counters.len() as u64,
                theirs: idx as u64,
            });
        }
        for &(idx, v) in updates {
            if v > 0 {
                self.add_counter(idx, v, 0);
            }
        }
        self.tallies[0].total_added.fetch_add(total_added, Ordering::Relaxed);
        self.tallies[0].saturations.fetch_add(saturation_events, Ordering::Relaxed);
        Ok(())
    }

    /// Charge `events` saturation events to `stripe` without touching
    /// any counter word — the deterministic seam behind the
    /// `ForceSaturation` fault-injection site: it drives the
    /// saturation-degradation reporting path (query health flags, loss
    /// accounting) with zero effect on stored mass, so accounting
    /// invariants stay exact while the degraded path is exercised.
    pub fn force_saturation(&self, stripe: usize, events: u64) {
        self.tallies[stripe % self.tallies.len()]
            .saturations
            .fetch_add(events, Ordering::Relaxed);
    }
}

/// Plain-data snapshot of a [`WritebackBuffer`]'s staged-but-unflushed
/// state, captured by [`WritebackBuffer::state`] and consumed by
/// [`WritebackBuffer::restore`]. `pending` preserves first-touch order
/// so a restored buffer's next flush stages the identical batch. The
/// buffer's stripe is not state: the buffer a snapshot restores into
/// already has it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritebackState {
    /// Staged `(counter index, pending increment)` pairs in
    /// first-touch (dirty-list) order.
    pub pending: Vec<(usize, u64)>,
    /// Lifetime flush count.
    pub flushes: u64,
    /// Lifetime staged-update count.
    pub staged_updates: u64,
    /// Lifetime flushed-update count.
    pub flushed_updates: u64,
}

/// Per-worker eviction writeback buffer — a **shard-local SRAM
/// segment**: stages `(index, increment)` updates in a dense
/// thread-local accumulator, coalescing duplicates as they arrive, and
/// merges them into a shared [`AtomicCounterArray`] when its owner
/// flushes (at the end of construction, or at an epoch boundary).
///
/// Rationale (the PriMe / additive-error-counter amortization): in a
/// sharded construction phase every eviction touches `k` shared SRAM
/// counters, and hot counters are touched by many evictions in a row.
/// Staging updates thread-locally turns `B` relaxed-atomic RMWs into
/// one RMW per *distinct* counter per flush — plus a *single* RMW on
/// the shared offered-units total per flush instead of one per
/// eviction — so the CAS traffic on contended cache lines drops by the
/// coalescing factor.
///
/// The accumulator is a plain `Vec<u64>` indexed like the SRAM (lazily
/// sized to `sram.len()` on first push, so O(L) memory per worker — the
/// same order as the SRAM itself, and typically a few KiB) plus a dirty
/// list of touched indices. `push` is O(1) with no hashing or sorting:
/// repeated hits on a hot counter just bump a local word. It never
/// flushes on its own: the accumulator is already dense O(L), so
/// holding a shard's whole delta costs no extra memory, and the shared
/// array sees **one** CAS sequence per distinct counter per flush.
///
/// Because saturating adds commute, buffering and reordering never
/// change the final counter values; only the transient interleaving
/// differs. Callers must [`WritebackBuffer::flush`] before dropping the
/// buffer (the construction phase does so when a shard finishes).
#[derive(Debug)]
pub struct WritebackBuffer {
    /// Dense per-counter staging area, `acc[i]` = pending increment.
    acc: Vec<u64>,
    /// Indices with `acc[i] != 0`, in first-touch order.
    dirty: Vec<usize>,
    /// Reusable `(index, increment)` scratch handed to `add_batch`.
    batch: Vec<(usize, u64)>,
    /// Tally stripe flushes charge (the owning shard's id).
    stripe: usize,
    flushes: u64,
    staged_updates: u64,
    flushed_updates: u64,
}

impl WritebackBuffer {
    /// An empty buffer whose flushes charge tally stripe `stripe` of
    /// the target array (see [`AtomicCounterArray::add_batch_striped`]).
    pub fn new(stripe: usize) -> Self {
        Self {
            acc: Vec::new(),
            dirty: Vec::new(),
            batch: Vec::new(),
            stripe,
            flushes: 0,
            staged_updates: 0,
            flushed_updates: 0,
        }
    }

    /// Stage one update for `sram`.
    #[inline]
    pub fn push(&mut self, idx: usize, v: u64, sram: &AtomicCounterArray) {
        if v == 0 {
            return;
        }
        if self.acc.len() < sram.len() {
            self.acc.resize(sram.len(), 0);
        }
        // `v >= 1`, so a zero slot means "not staged yet" — a staged
        // slot can never return to zero before its flush resets it.
        if self.acc[idx] == 0 {
            self.dirty.push(idx);
        }
        // Counter adds saturate at `max_value < 2^63`, so the coalesced
        // sum saturating at u64::MAX is lossless for the counter; the
        // offered-units total uses the same wrapping tally as repeated
        // `add` (see add_batch).
        self.acc[idx] = self.acc[idx].saturating_add(v);
        self.staged_updates += 1;
    }

    /// Apply the staged (already coalesced) updates to `sram` via
    /// [`AtomicCounterArray::add_batch`] and reset the accumulator.
    /// A no-op on an empty buffer.
    pub fn flush(&mut self, sram: &AtomicCounterArray) {
        if self.dirty.is_empty() {
            return;
        }
        self.batch.clear();
        for &idx in &self.dirty {
            self.batch.push((idx, self.acc[idx]));
            self.acc[idx] = 0;
        }
        self.flushed_updates += self.dirty.len() as u64;
        self.dirty.clear();
        sram.add_batch_striped(self.stripe, &self.batch);
        self.batch.clear();
        self.flushes += 1;
    }

    /// Distinct counters currently staged (not yet flushed).
    pub fn pending(&self) -> usize {
        self.dirty.len()
    }

    /// Flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Updates staged over the buffer's lifetime.
    pub fn staged_updates(&self) -> u64 {
        self.staged_updates
    }

    /// Updates that reached the SRAM after coalescing; the ratio
    /// `flushed_updates / staged_updates` is the CAS-traffic factor.
    pub fn flushed_updates(&self) -> u64 {
        self.flushed_updates
    }

    /// Capture the buffer's staged state and statistics for a
    /// crash-consistent snapshot (see [`WritebackState`]).
    pub fn state(&self) -> WritebackState {
        WritebackState {
            pending: self.dirty.iter().map(|&idx| (idx, self.acc[idx])).collect(),
            flushes: self.flushes,
            staged_updates: self.staged_updates,
            flushed_updates: self.flushed_updates,
        }
    }

    /// Load a [`WritebackState`] into this freshly built buffer, which
    /// keeps its own stripe, for a target SRAM of `len` counters.
    ///
    /// # Errors
    /// The state comes from outside the program: a staged index
    /// `>= len`, a zero increment or a duplicate index (none of which
    /// `push` can leave behind) is refused before anything is sized
    /// from it, and an accumulator of `len` counters the allocator
    /// refuses is refused too. A refused buffer holds part of the
    /// state: drop it.
    ///
    /// # Panics
    /// Panics if the buffer already holds staged updates.
    pub fn restore(&mut self, state: &WritebackState, len: usize) -> Result<(), &'static str> {
        assert!(self.dirty.is_empty(), "restore into a fresh buffer");
        if state.pending.iter().any(|&(idx, v)| idx >= len || v == 0) {
            return Err("staged writeback index out of range or zero");
        }
        if !state.pending.is_empty() {
            // `len` is the restored SRAM's, itself from outside: size
            // the accumulator fallibly too.
            let grow = len.saturating_sub(self.acc.len());
            (self.acc.try_reserve_exact(grow))
                .map_err(|_| "staged writeback accumulator too large to allocate")?;
            self.acc.resize(len, 0);
        }
        for &(idx, v) in &state.pending {
            if self.acc[idx] != 0 {
                return Err("duplicate staged writeback index");
            }
            self.acc[idx] = v;
            self.dirty.push(idx);
        }
        self.flushes = state.flushes;
        self.staged_updates = state.staged_updates;
        self.flushed_updates = state.flushed_updates;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let a = AtomicCounterArray::new(4, 32);
        a.add(1, 5);
        a.add(1, 7);
        a.add(3, 1);
        assert_eq!(a.get(1), 12);
        assert_eq!(a.sum(), 13);
        assert_eq!(a.total_added(), 13);
    }

    #[test]
    fn saturates_without_overshoot() {
        let a = AtomicCounterArray::new(1, 4); // max 15
        a.add(0, 10);
        a.add(0, 10);
        assert_eq!(a.get(0), 15);
        assert_eq!(a.saturations(), 1);
        assert_eq!(a.total_added(), 20);
    }

    #[test]
    fn zero_add_is_noop() {
        let a = AtomicCounterArray::new(2, 8);
        a.add(0, 0);
        assert_eq!(a.total_added(), 0);
    }

    #[test]
    fn concurrent_adds_conserve() {
        let a = AtomicCounterArray::new(64, 63);
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = &a;
                s.spawn(move || {
                    for i in 0..per_thread {
                        a.add(((t as u64 * 31 + i) % 64) as usize, 1);
                    }
                });
            }
        });
        assert_eq!(a.sum(), threads as u64 * per_thread);
        assert_eq!(a.total_added(), threads as u64 * per_thread);
    }

    #[test]
    fn merge_from_sums_values_and_tallies() {
        let a = AtomicCounterArray::new(4, 16);
        let b = AtomicCounterArray::with_stripes(4, 16, 3); // stripe counts may differ
        a.add(0, 5);
        b.add(0, 3);
        b.add(2, 9);
        a.merge_from(&b).unwrap();
        assert_eq!(a.snapshot(), vec![8, 0, 9, 0]);
        assert_eq!(a.total_added(), 17);
        assert_eq!(a.saturations(), 0);
    }

    #[test]
    fn merge_from_clamps_and_flags() {
        let a = AtomicCounterArray::new(2, 4); // max 15
        let b = AtomicCounterArray::new(2, 4);
        a.add(0, 10);
        b.add(0, 10); // merged crossing
        b.add(1, 100); // b's own saturation folds in
        a.merge_from(&b).unwrap();
        assert_eq!(a.get(0), 15);
        assert_eq!(a.get(1), 15);
        assert_eq!(a.saturations(), 2);
        assert_eq!(a.total_added(), 120);
    }

    #[test]
    fn merge_rejects_mismatched_geometry() {
        let a = AtomicCounterArray::new(4, 16);
        assert!(matches!(
            a.merge_from(&AtomicCounterArray::new(4, 8)),
            Err(MergeError::Geometry { field: "counter_bits", .. })
        ));
        assert!(matches!(
            a.merge_counters(&[1, 2, 3], 6, 0),
            Err(MergeError::Geometry { field: "counters", .. })
        ));
    }

    #[test]
    fn merge_counters_matches_merge_from() {
        let a = AtomicCounterArray::new(4, 16);
        let b = AtomicCounterArray::new(4, 16);
        for i in 0..4 {
            a.add(i, i as u64 + 1);
            b.add(i, 10 * (i as u64 + 1));
        }
        let via_from = AtomicCounterArray::restore(16, &a.snapshot(), &a.tally_snapshot());
        via_from.merge_from(&b).unwrap();
        a.merge_counters(&b.snapshot(), b.total_added(), b.saturations()).unwrap();
        assert_eq!(a.snapshot(), via_from.snapshot());
        assert_eq!(a.total_added(), via_from.total_added());
        assert_eq!(a.saturations(), via_from.saturations());
    }

    #[test]
    fn snapshot_matches_gets() {
        let a = AtomicCounterArray::new(8, 16);
        for i in 0..8 {
            a.add(i, i as u64 * 3);
        }
        let snap = a.snapshot();
        for (i, &v) in snap.iter().enumerate() {
            assert_eq!(v, a.get(i));
        }
    }

    #[test]
    fn saturated_fraction_counts_pinned_words() {
        let a = AtomicCounterArray::new(4, 4); // max 15
        assert_eq!(a.saturated_fraction(), 0.0);
        a.add(0, 100);
        a.add(1, 15);
        assert!((a.saturated_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_rejected() {
        AtomicCounterArray::new(0, 8);
    }

    #[test]
    fn huge_weighted_add_near_cap_does_not_overflow() {
        // Regression: saturation detection used `cur + v` on raw u64s,
        // which wrapped in release / panicked in debug when a byte-mode
        // eviction pushed a nearly-full counter with v near u64::MAX.
        let a = AtomicCounterArray::new(2, 63);
        let cap = a.max_value(); // 2^63 - 1
        a.add(0, cap); // exactly full, no saturation yet
        assert_eq!(a.get(0), cap);
        assert_eq!(a.saturations(), 0);
        a.add(0, u64::MAX); // cur + v would wrap: must count as saturated
        assert_eq!(a.get(0), cap);
        assert_eq!(a.saturations(), 1);
        // A single add bigger than the cap also saturates exactly once.
        a.add(1, u64::MAX);
        assert_eq!(a.get(1), cap);
        assert_eq!(a.saturations(), 2);
        assert_eq!(a.total_added(), cap.wrapping_add(u64::MAX).wrapping_add(u64::MAX));
    }

    #[test]
    fn full_counter_plus_one_still_counts_saturation() {
        let a = AtomicCounterArray::new(1, 4); // max 15
        a.add(0, 15);
        assert_eq!(a.saturations(), 0);
        a.add(0, 1);
        assert_eq!(a.get(0), 15);
        assert_eq!(a.saturations(), 1);
    }

    #[test]
    fn add_batch_matches_repeated_add() {
        let batched = AtomicCounterArray::new(8, 10);
        let looped = AtomicCounterArray::new(8, 10);
        let updates: Vec<(usize, u64)> =
            vec![(0, 3), (1, 0), (7, 1000), (0, 5), (7, 200), (3, 1), (0, 2)];
        batched.add_batch(&updates);
        for &(i, v) in &updates {
            looped.add(i, v);
        }
        assert_eq!(batched.snapshot(), looped.snapshot());
        assert_eq!(batched.total_added(), looped.total_added());
        assert_eq!(batched.sum(), looped.sum());
    }

    #[test]
    fn add_batch_empty_and_zeroes_are_noops() {
        let a = AtomicCounterArray::new(4, 8);
        a.add_batch(&[]);
        a.add_batch(&[(0, 0), (3, 0)]);
        assert_eq!(a.total_added(), 0);
        assert_eq!(a.sum(), 0);
    }

    #[test]
    fn writeback_buffer_coalesces_and_conserves() {
        let a = AtomicCounterArray::new(16, 32);
        let mut wb = WritebackBuffer::new(0);
        // 12 updates over 3 distinct indices coalesce into one explicit
        // flush of exactly 3 SRAM updates.
        for i in 0..12u64 {
            wb.push((i % 3) as usize, i + 1, &a);
        }
        wb.push(5, 0, &a); // zero increments never stage
        assert_eq!(wb.pending(), 3, "3 distinct counters staged");
        assert_eq!(wb.flushes(), 0, "staging never flushes on its own");
        wb.flush(&a);
        assert_eq!(wb.pending(), 0);
        assert_eq!(a.total_added(), (1..=12u64).sum::<u64>());
        assert_eq!(wb.staged_updates(), 12);
        assert_eq!(wb.flushed_updates(), 3, "one SRAM update per counter");
        assert_eq!(wb.flushes(), 1);
        // Same result as direct adds.
        let direct = AtomicCounterArray::new(16, 32);
        for i in 0..12u64 {
            direct.add((i % 3) as usize, i + 1);
        }
        assert_eq!(a.snapshot(), direct.snapshot());
        // The flush reset the accumulator: an index dirties again cleanly.
        wb.push(0, 3, &a);
        assert_eq!(wb.pending(), 1);
        wb.flush(&a);
        assert_eq!(a.get(0), direct.get(0) + 3);
    }

    #[test]
    fn array_snapshot_restore_round_trips() {
        let a = AtomicCounterArray::with_stripes(16, 10, 3);
        let mut wb = WritebackBuffer::new(2);
        for i in 0..40u64 {
            wb.push((i % 7) as usize, i + 1, &a);
        }
        wb.flush(&a);
        a.add(15, 5000); // force a saturation (10-bit cap = 1023)
        let r = AtomicCounterArray::restore(a.bits(), &a.snapshot(), &a.tally_snapshot());
        assert_eq!(r.snapshot(), a.snapshot());
        assert_eq!(r.tally_snapshot(), a.tally_snapshot());
        assert_eq!(r.total_added(), a.total_added());
        assert_eq!(r.saturations(), a.saturations());
        assert_eq!(r.stripes(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn restore_rejects_overflowing_words() {
        AtomicCounterArray::restore(4, &[16], &[(16, 0)]); // 4-bit cap is 15
    }

    #[test]
    fn force_saturation_touches_tallies_only() {
        let a = AtomicCounterArray::with_stripes(4, 8, 2);
        a.add(0, 9);
        let before = a.snapshot();
        a.force_saturation(1, 3);
        assert_eq!(a.snapshot(), before, "counter words untouched");
        assert_eq!(a.total_added(), 9, "offered mass untouched");
        assert_eq!(a.saturations(), 3);
    }

    #[test]
    fn writeback_state_restore_flushes_identically() {
        let a = AtomicCounterArray::new(32, 16);
        let b = AtomicCounterArray::new(32, 16);
        let mut wb = WritebackBuffer::new(0);
        for i in 0..100u64 {
            wb.push((i % 11) as usize, i % 5 + 1, &a);
        }
        let state = wb.state();
        assert_eq!(state.pending.len(), 11);
        let mut restored = WritebackBuffer::new(0);
        restored.restore(&state, 32).expect("an honest state restores");
        assert_eq!(restored.state(), state, "restore → state is the identity");
        // Continue both identically, flush to separate arrays.
        wb.push(30, 7, &a);
        restored.push(30, 7, &b);
        wb.flush(&a);
        restored.flush(&b);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.total_added(), b.total_added());
        assert_eq!(wb.state(), restored.state());
    }

    #[test]
    fn dirty_blocks_track_adds_and_merges() {
        use crate::sram::DIRTY_BLOCK_COUNTERS;
        let a = AtomicCounterArray::with_stripes(DIRTY_BLOCK_COUNTERS * 3 + 5, 16, 2);
        assert!(a.take_dirty_blocks().is_empty(), "fresh array is clean");
        a.add(0, 1);
        a.add_batch_striped(1, &[(DIRTY_BLOCK_COUNTERS * 3 + 4, 9), (2, 3)]);
        // One bit per counter: the masks name exactly the written ones.
        assert_eq!(a.take_dirty_masks(), vec![(0, 0b101), (3, 1 << 4)]);
        assert!(a.take_dirty_masks().is_empty(), "drain clears");
        assert_eq!(a.nonzero_masks(), vec![(0, 0b101), (3, 1 << 4)]);
        a.add(DIRTY_BLOCK_COUNTERS * 3, 1);
        assert_eq!(a.take_dirty_blocks(), vec![3]);
        a.merge_counters(&{
            let mut v = vec![0u64; DIRTY_BLOCK_COUNTERS * 3 + 5];
            v[DIRTY_BLOCK_COUNTERS + 1] = 7;
            v
        }, 7, 0)
        .unwrap();
        assert_eq!(a.take_dirty_blocks(), vec![1]);
        // Restore and store_counters re-baseline: no marks.
        let r = AtomicCounterArray::restore(a.bits(), &a.snapshot(), &a.tally_snapshot());
        assert!(r.take_dirty_blocks().is_empty());
        r.store_counters([(DIRTY_BLOCK_COUNTERS, 3), (DIRTY_BLOCK_COUNTERS + 1, 4)]);
        assert!(r.take_dirty_blocks().is_empty());
        assert_eq!(r.get(DIRTY_BLOCK_COUNTERS + 1), 4);
    }

    #[test]
    fn restore_tallies_overwrites_stripes() {
        let a = AtomicCounterArray::with_stripes(8, 16, 2);
        a.add(0, 5);
        a.restore_tallies(&[(100, 2), (50, 1)]);
        assert_eq!(a.tally_snapshot(), vec![(100, 2), (50, 1)]);
        assert_eq!(a.total_added(), 150);
        assert_eq!(a.saturations(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn store_counters_rejects_out_of_range() {
        AtomicCounterArray::new(4, 8).store_counters([(2, 1), (4, 3)]);
    }

    #[test]
    fn concurrent_batched_adds_conserve() {
        let a = AtomicCounterArray::new(64, 63);
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = &a;
                s.spawn(move || {
                    let mut wb = WritebackBuffer::new(0);
                    for i in 0..per_thread {
                        wb.push(((t as u64 * 31 + i) % 64) as usize, 1, a);
                    }
                    wb.flush(a);
                });
            }
        });
        assert_eq!(a.sum(), threads as u64 * per_thread);
        assert_eq!(a.total_added(), threads as u64 * per_thread);
    }
}
