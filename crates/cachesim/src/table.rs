//! The cache table implementation.

use hashkit::FlowSlotMap;
use support::rand::{rngs::StdRng, Rng, SeedableRng};

/// Replacement policy for a full table (§3.1: "we try both LRU and
/// random replacement algorithms in this paper"; FIFO is our ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the least-recently-used entry.
    Lru,
    /// Evict a uniformly random entry.
    Random,
    /// Evict the oldest-inserted entry (no touch on access).
    Fifo,
}

/// Why an entry left the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionReason {
    /// The entry counter reached capacity `y` (a "fulfilled" entry).
    Overflow,
    /// The table was full and the policy chose this entry as victim.
    Replacement,
    /// End-of-measurement dump of all residual entries.
    FinalDump,
}

/// An eviction event: `value` packets of `flow` must be pushed to the
/// off-chip counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted flow.
    pub flow: u64,
    /// The evicted partial count (`E_i` in the paper, `1..=y`).
    pub value: u64,
    /// What triggered the eviction.
    pub reason: EvictionReason,
}

/// Outcome of a slot-visible record ([`CacheTable::record_slotted`]).
///
/// Exposing the slot id lets callers keep **per-slot side tables** (the
/// CAESAR layer memoizes each resident flow's `k` counter indices this
/// way) without a second hash lookup:
///
/// * `inserted == true` means the flow was newly bound to `slot` by
///   this call (fresh allocation *or* victim replacement) and any
///   side-table row for `slot` must be refreshed — **after** consuming
///   `eviction`, which still refers to the slot's previous occupant on
///   the replacement path.
/// * `inserted == false` means the flow was already resident; the
///   side-table row for `slot` is the flow's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorded {
    /// The slot the flow occupies after this call.
    pub slot: u32,
    /// True when the flow was (re)bound to `slot` by this call.
    pub inserted: bool,
    /// The eviction the packet caused, if any. On the replacement path
    /// this is the **previous** occupant of `slot`.
    pub eviction: Option<Eviction>,
}

/// Cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of entries `M`.
    pub entries: usize,
    /// Per-entry capacity `y` (evict when the count reaches `y`).
    pub entry_capacity: u64,
    /// Replacement policy.
    pub policy: CachePolicy,
    /// Seed for the random-replacement policy.
    pub seed: u64,
}

impl CacheConfig {
    /// LRU cache with the given geometry.
    pub fn lru(entries: usize, entry_capacity: u64) -> Self {
        Self {
            entries,
            entry_capacity,
            policy: CachePolicy::Lru,
            seed: 0x5EED,
        }
    }

    /// Random-replacement cache with the given geometry.
    pub fn random(entries: usize, entry_capacity: u64) -> Self {
        Self {
            policy: CachePolicy::Random,
            ..Self::lru(entries, entry_capacity)
        }
    }

    /// On-chip memory footprint in bits, following the paper's
    /// accounting `M · log2(y)` for the counters plus the flow-ID tag
    /// bits per entry.
    pub fn memory_bits(&self, tag_bits: u32) -> u64 {
        let counter_bits = 64 - (self.entry_capacity.max(2) - 1).leading_zeros();
        self.entries as u64 * (counter_bits as u64 + tag_bits as u64)
    }
}

/// Running statistics of the cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets that found their flow resident.
    pub hits: u64,
    /// Packets that missed.
    pub misses: u64,
    /// Overflow evictions emitted.
    pub overflow_evictions: u64,
    /// Replacement evictions emitted.
    pub replacement_evictions: u64,
    /// Entries flushed by the final dump.
    pub final_dump_entries: u64,
}

impl CacheStats {
    /// Total packets processed.
    pub fn packets(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.packets() == 0 {
            0.0
        } else {
            self.hits as f64 / self.packets() as f64
        }
    }

    /// Total evictions of every kind.
    pub fn total_evictions(&self) -> u64 {
        self.overflow_evictions + self.replacement_evictions + self.final_dump_entries
    }
}

/// Complete serializable dynamic state of a [`CacheTable`], captured by
/// [`CacheTable::snapshot_state`] and consumed by
/// [`CacheTable::restore`]. All fields are plain data so callers can
/// encode them with any codec (the CAESAR online runtime uses
/// `support::bytesx`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheTableState {
    /// Resident slots in slot-id order: `(flow, count, prev, next)`
    /// where `prev`/`next` are recency-list links (`u32::MAX` = nil).
    pub slots: Vec<(u64, u64, u32, u32)>,
    /// Most-recently-used slot (list head; `u32::MAX` = empty).
    pub head: u32,
    /// Least-recently-used slot (list tail; `u32::MAX` = empty).
    pub tail: u32,
    /// Random-replacement generator state ([`StdRng::state`]).
    pub rng: [u64; 4],
    /// Running statistics at snapshot time.
    pub stats: CacheStats,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    flow: u64,
    count: u64,
    prev: u32,
    next: u32,
}

/// The on-chip cache table (see crate docs).
///
/// ```
/// use cachesim::{CacheConfig, CacheTable, EvictionReason};
/// let mut cache = CacheTable::new(CacheConfig::lru(2, 10));
/// assert!(cache.record(1).is_none());  // miss: allocated
/// assert!(cache.record(2).is_none());
/// let ev = cache.record(3).expect("table full: victim flushed");
/// assert_eq!(ev.reason, EvictionReason::Replacement);
/// assert_eq!(cache.drain().len(), 2);  // final dump
/// ```
#[derive(Debug)]
pub struct CacheTable {
    cfg: CacheConfig,
    slots: Vec<Slot>,
    /// flow -> slot index: a fixed-capacity open-addressing table
    /// (population is bounded by `cfg.entries`, so it never grows).
    index: FlowSlotMap,
    /// Most-recently-used slot (list head).
    head: u32,
    /// Least-recently-used slot (list tail).
    tail: u32,
    free: Vec<u32>,
    rng: StdRng,
    stats: CacheStats,
}

impl CacheTable {
    /// Build an empty table.
    ///
    /// # Panics
    /// Panics if `entries == 0` or `entry_capacity < 2` (an entry must
    /// be able to hold at least one packet without overflowing).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.entries > 0, "cache needs at least one entry");
        assert!(cfg.entry_capacity >= 2, "entry capacity y must be >= 2");
        Self {
            slots: Vec::with_capacity(cfg.entries),
            index: FlowSlotMap::with_capacity(cfg.entries),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of resident flows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no flow is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current partial count of `flow`, if resident.
    pub fn peek(&self, flow: u64) -> Option<u64> {
        self.index.get(flow).map(|s| self.slots[s as usize].count)
    }

    /// Process one packet of `flow`. Returns the eviction the packet
    /// caused, if any (at most one in packet-counting mode).
    #[inline]
    pub fn record(&mut self, flow: u64) -> Option<Eviction> {
        self.record_slotted(flow).eviction
    }

    /// Process one packet of `flow`, additionally reporting **which
    /// slot** the flow now occupies and whether it was (re)bound by
    /// this call. This is the single implementation behind
    /// [`record`](Self::record); the eviction semantics and emission
    /// order are identical. See [`Recorded`] for the side-table
    /// contract.
    #[inline]
    pub fn record_slotted(&mut self, flow: u64) -> Recorded {
        if let Some(slot) = self.index.get(flow) {
            return self.hit(flow, slot);
        }

        self.stats.misses += 1;
        // Free capacity? Allocate a fresh or recycled slot.
        if self.index.len() < self.cfg.entries {
            let slot = if let Some(s) = self.free.pop() {
                self.slots[s as usize] = Slot { flow, count: 1, prev: NIL, next: NIL };
                s
            } else {
                self.slots.push(Slot { flow, count: 1, prev: NIL, next: NIL });
                (self.slots.len() - 1) as u32
            };
            self.index.insert(flow, slot);
            self.push_front(slot);
            return Recorded { slot, inserted: true, eviction: None };
        }

        // Full: pick a victim, flush it, reuse its slot.
        let victim = self.select_victim();
        let victim_flow = self.slots[victim as usize].flow;
        let victim_count = self.slots[victim as usize].count;
        self.index.remove(victim_flow);
        self.unlink(victim);
        self.slots[victim as usize] = Slot { flow, count: 1, prev: NIL, next: NIL };
        self.index.insert(flow, victim);
        self.push_front(victim);
        let eviction = if victim_count > 0 {
            self.stats.replacement_evictions += 1;
            Some(Eviction {
                flow: victim_flow,
                value: victim_count,
                reason: EvictionReason::Replacement,
            })
        } else {
            // The victim had just overflowed (count 0): nothing to flush.
            None
        };
        Recorded { slot: victim, inserted: true, eviction }
    }

    /// The shared hit branch of [`record_slotted`](Self::record_slotted)
    /// and [`record_slotted_hinted`](Self::record_slotted_hinted):
    /// `slot` is known to be bound to `flow`.
    #[inline]
    fn hit(&mut self, flow: u64, slot: u32) -> Recorded {
        self.stats.hits += 1;
        self.touch(slot);
        let s = &mut self.slots[slot as usize];
        s.count += 1;
        let eviction = if s.count >= self.cfg.entry_capacity {
            let value = s.count;
            s.count = 0;
            self.stats.overflow_evictions += 1;
            Some(Eviction {
                flow,
                value,
                reason: EvictionReason::Overflow,
            })
        } else {
            None
        };
        Recorded { slot, inserted: false, eviction }
    }

    /// The pure-hit fast path: absorb one packet of `flow` on-chip iff
    /// the flow is resident **and** the increment does not overflow its
    /// entry, returning whether the packet was absorbed. On `false`
    /// nothing was recorded — the caller must fall through to
    /// [`record_slotted`](Self::record_slotted), which redoes the index
    /// probe and handles miss/overflow/replacement.
    ///
    /// Exists because in the cache-friendly regime >90% of packets take
    /// exactly this branch, and carving it out of the (large, fully
    /// inlined) `record_slotted` body gives the batch ingest loop a
    /// tiny, branch-predictable common path with no [`Recorded`]
    /// construction at all. Observable behavior — stats, recency order,
    /// counts — is bit-identical to `record_slotted` on the same
    /// packet: the absorbed case is precisely its hit branch with
    /// `eviction: None`, which triggers no downstream bookkeeping.
    #[inline]
    pub fn record_absorbed(&mut self, flow: u64) -> bool {
        if let Some(slot) = self.index.get(flow) {
            let count = self.slots[slot as usize].count;
            if count + 1 < self.cfg.entry_capacity {
                self.stats.hits += 1;
                self.touch(slot);
                self.slots[slot as usize].count = count + 1;
                return true;
            }
        }
        false
    }

    /// [`record_slotted`](Self::record_slotted) with a **slot hint**
    /// from an earlier [`prefetch`](Self::prefetch) of the same `flow`,
    /// letting the hot hit path skip the index lookup entirely (the
    /// probe already paid for it).
    ///
    /// The hint is validated against the slot's flow tag: between the
    /// probe and this call, intervening `record*` calls can only
    /// *rebind* a slot (replacement), never free one, so a matching tag
    /// proves `slot` is still `flow`'s binding. A stale or `None` hint
    /// falls back to the full lookup. Either way the observable
    /// behavior — stats, recency order, evictions, slot binding — is
    /// identical to [`record_slotted`](Self::record_slotted).
    ///
    /// Do **not** carry hints across [`drain`](Self::drain),
    /// [`drain_with`](Self::drain_with) or weighted records, which can
    /// free slots and leave stale flow tags behind.
    #[inline]
    pub fn record_slotted_hinted(&mut self, flow: u64, hint: Option<u32>) -> Recorded {
        if let Some(slot) = hint {
            if self
                .slots
                .get(slot as usize)
                .is_some_and(|s| s.flow == flow)
            {
                return self.hit(flow, slot);
            }
        }
        self.record_slotted(flow)
    }

    /// Process one packet of `flow` carrying `weight` units (bytes for
    /// flow-volume measurement, §3.1). A large weight can fill the
    /// entry several times over, so this may emit several overflow
    /// evictions (each of exactly `y`) plus at most one replacement
    /// eviction; they are appended to `out` in order.
    pub fn record_weighted(&mut self, flow: u64, weight: u64, out: &mut Vec<Eviction>) {
        self.record_weighted_slotted(flow, weight, out);
    }

    /// Slot-visible form of [`record_weighted`](Self::record_weighted);
    /// identical eviction semantics and emission order (replacement of
    /// the previous occupant first, then the new flow's overflows).
    /// Returns `None` when `weight == 0` (a no-op that binds nothing).
    ///
    /// Side-table contract: when `inserted` is true, refresh the row
    /// for `slot` **after** consuming any `Replacement` eviction in
    /// `out` (it refers to the slot's previous occupant) and **before**
    /// consuming the `Overflow` evictions (they are the new flow's).
    pub fn record_weighted_slotted(
        &mut self,
        flow: u64,
        weight: u64,
        out: &mut Vec<Eviction>,
    ) -> Option<Recorded> {
        if weight == 0 {
            return None;
        }
        let mut inserted = false;
        let slot = if let Some(slot) = self.index.get(flow) {
            self.stats.hits += 1;
            self.touch(slot);
            slot
        } else {
            self.stats.misses += 1;
            inserted = true;
            if self.index.len() < self.cfg.entries {
                let slot = if let Some(s) = self.free.pop() {
                    self.slots[s as usize] = Slot { flow, count: 0, prev: NIL, next: NIL };
                    s
                } else {
                    self.slots.push(Slot { flow, count: 0, prev: NIL, next: NIL });
                    (self.slots.len() - 1) as u32
                };
                self.index.insert(flow, slot);
                self.push_front(slot);
                slot
            } else {
                let victim = self.select_victim();
                let victim_flow = self.slots[victim as usize].flow;
                let victim_count = self.slots[victim as usize].count;
                self.index.remove(victim_flow);
                self.unlink(victim);
                self.slots[victim as usize] = Slot { flow, count: 0, prev: NIL, next: NIL };
                self.index.insert(flow, victim);
                self.push_front(victim);
                if victim_count > 0 {
                    self.stats.replacement_evictions += 1;
                    out.push(Eviction {
                        flow: victim_flow,
                        value: victim_count,
                        reason: EvictionReason::Replacement,
                    });
                }
                victim
            }
        };
        let s = &mut self.slots[slot as usize];
        s.count += weight;
        while s.count >= self.cfg.entry_capacity {
            s.count -= self.cfg.entry_capacity;
            self.stats.overflow_evictions += 1;
            out.push(Eviction {
                flow,
                value: self.cfg.entry_capacity,
                reason: EvictionReason::Overflow,
            });
        }
        Some(Recorded { slot, inserted, eviction: None })
    }

    /// End-of-measurement dump (§3.1): flush every entry with a nonzero
    /// count and clear the table.
    pub fn drain(&mut self) -> Vec<Eviction> {
        let mut out = Vec::with_capacity(self.index.len());
        self.drain_with(|_, e| out.push(e));
        out
    }

    /// Streaming form of [`drain`](Self::drain): invoke `sink` with
    /// `(slot, eviction)` for every resident entry with a nonzero
    /// count, **in ascending slot-id order** (the same order `drain`
    /// emits), then clear the table. The slot id lets callers consume
    /// their per-slot side tables (e.g. memoized counter indices)
    /// without re-hashing, and the callback form avoids materializing
    /// the eviction `Vec`.
    ///
    /// Slot-id order (rather than hash-map iteration order) makes the
    /// dump a pure function of the *visible* table state: a table
    /// rebuilt from a [`CacheTableState`] snapshot drains — and
    /// therefore scatters its final-dump remainders through the
    /// downstream RNG — byte-identically to the original, even though
    /// the rebuilt hash index has a different internal layout history.
    /// Every slot in `slots` is resident by construction (slots are
    /// only ever allocated bound and rebound in place, never freed
    /// mid-run), so this walk misses nothing.
    pub fn drain_with(&mut self, mut sink: impl FnMut(u32, Eviction)) {
        let mut dumped = 0u64;
        for (slot, s) in self.slots.iter().enumerate() {
            if s.count > 0 {
                dumped += 1;
                sink(
                    slot as u32,
                    Eviction {
                        flow: s.flow,
                        value: s.count,
                        reason: EvictionReason::FinalDump,
                    },
                );
            }
        }
        self.stats.final_dump_entries += dumped;
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Capture the table's complete dynamic state for a
    /// crash-consistent snapshot. Restoring via
    /// [`CacheTable::restore`] yields a table whose every future
    /// observable — records, evictions, recency order, random-victim
    /// draws, final dump — is byte-identical to continuing with `self`.
    pub fn snapshot_state(&self) -> CacheTableState {
        debug_assert!(self.free.is_empty(), "slots are never freed mid-run");
        CacheTableState {
            slots: self
                .slots
                .iter()
                .map(|s| (s.flow, s.count, s.prev, s.next))
                .collect(),
            head: self.head,
            tail: self.tail,
            rng: self.rng.state(),
            stats: self.stats,
        }
    }

    /// Rebuild a table from a [`CacheTableState`] snapshot taken with
    /// the same `cfg`. The hash index is reconstructed from the slot
    /// array; because no observable path depends on hash-map iteration
    /// order (see [`drain_with`](Self::drain_with)), the restored table
    /// continues the original's behavior exactly.
    ///
    /// # Errors
    /// The state comes from outside the program, so every invariant
    /// the table's operations index by is checked, and a violation is
    /// named instead of panicking later: more slots than entries, a
    /// count a `record` could never leave behind (`>= entry_capacity`),
    /// a duplicate flow, or a recency list that is not one chain
    /// through every slot. An `entries` the allocator refuses is an
    /// error too.
    ///
    /// # Panics
    /// Panics if `cfg` itself is invalid (see [`CacheTable::new`]).
    pub fn restore(cfg: CacheConfig, state: &CacheTableState) -> Result<Self, &'static str> {
        assert!(cfg.entries > 0, "cache needs at least one entry");
        assert!(cfg.entry_capacity >= 2, "entry capacity y must be >= 2");
        if state.slots.len() > cfg.entries {
            return Err("more cache slots than entries");
        }
        // `entries` comes with the state, so its tables are sized
        // fallibly: a size the allocator refuses is an error, not an
        // abort.
        const TOO_LARGE: &str = "cache too large to allocate";
        let mut slots = Vec::new();
        slots.try_reserve_exact(cfg.entries).map_err(|_| TOO_LARGE)?;
        let mut index = FlowSlotMap::try_with_capacity(cfg.entries).ok_or(TOO_LARGE)?;
        for (i, &(flow, count, prev, next)) in state.slots.iter().enumerate() {
            if count >= cfg.entry_capacity {
                return Err("cache slot count at or above the entry capacity");
            }
            if index.insert(flow, i as u32).is_some() {
                return Err("duplicate flow in the cache");
            }
            slots.push(Slot { flow, count, prev, next });
        }
        check_recency_list(&slots, state.head, state.tail)?;
        Ok(Self {
            cfg,
            slots,
            index,
            head: state.head,
            tail: state.tail,
            free: Vec::new(),
            rng: StdRng::from_state(state.rng),
            stats: state.stats,
        })
    }

    /// Software-prefetch the table state for an upcoming
    /// [`record`](Self::record) of `flow` (issued one batch element
    /// ahead by the CAESAR batch record loop).
    ///
    /// Probing the index warms the hash-map bucket line as a side
    /// effect; on a resident flow the slot's line is additionally
    /// prefetched and `Some((slot, will_overflow))` is returned so the
    /// caller can also prefetch the flow's `k` SRAM counter words when
    /// the *next* packet will overflow the entry. Read-only: no stats,
    /// no recency update.
    #[inline]
    pub fn prefetch(&self, flow: u64) -> Option<(u32, bool)> {
        let slot = self.index.get(flow)?;
        let s = &self.slots[slot as usize];
        support::mem::prefetch_read(s);
        Some((slot, s.count + 1 >= self.cfg.entry_capacity))
    }

    /// Iterate resident `(flow, partial_count)` pairs without flushing,
    /// in ascending slot-id order (deterministic and
    /// layout-independent, like [`drain_with`](Self::drain_with)).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots.iter().map(|s| (s.flow, s.count))
    }

    #[inline]
    fn select_victim(&mut self) -> u32 {
        match self.cfg.policy {
            CachePolicy::Lru | CachePolicy::Fifo => self.tail,
            CachePolicy::Random => {
                // Table is full, so every slot is occupied.
                self.rng.gen_range(0..self.slots.len()) as u32
            }
        }
    }

    /// Move `slot` to the list head on access (LRU only).
    ///
    /// Specialized unlink + relink: `slot != head` guarantees a
    /// predecessor exists and the list is non-empty, so the nil checks
    /// the general [`unlink`](Self::unlink)/[`push_front`](Self::push_front)
    /// pair makes are dead here — this is the hottest list operation
    /// (one per cache hit).
    #[inline]
    fn touch(&mut self, slot: u32) {
        if self.cfg.policy == CachePolicy::Lru && self.head != slot {
            let Slot { prev, next, .. } = self.slots[slot as usize];
            self.slots[prev as usize].next = next;
            if next != NIL {
                self.slots[next as usize].prev = prev;
            } else {
                self.tail = prev;
            }
            let old_head = self.head;
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
            self.slots[old_head as usize].prev = slot;
            self.head = slot;
        }
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = NIL;
    }

    #[inline]
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    #[cfg(test)]
    fn assert_list_invariants(&self) {
        // Walk the list forward: every resident slot appears exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut cur = self.head;
        let mut prev = NIL;
        while cur != NIL {
            assert!(seen.insert(cur), "cycle at slot {cur}");
            assert_eq!(self.slots[cur as usize].prev, prev);
            prev = cur;
            cur = self.slots[cur as usize].next;
        }
        assert_eq!(prev, self.tail);
        assert_eq!(seen.len(), self.index.len());
        for (flow, slot) in self.index.iter() {
            assert_eq!(self.slots[slot as usize].flow, flow);
            assert!(seen.contains(&slot));
        }
    }
}

/// The recency list must be one chain from `head` to `tail` through
/// every slot exactly once, with each `prev` naming the slot before:
/// `touch` and `unlink` follow these links without checking them.
fn check_recency_list(slots: &[Slot], head: u32, tail: u32) -> Result<(), &'static str> {
    let mut seen = vec![false; slots.len()];
    let (mut prev, mut cur) = (NIL, head);
    while cur != NIL {
        let slot = slots.get(cur as usize).ok_or("dangling recency link")?;
        if std::mem::replace(&mut seen[cur as usize], true) {
            return Err("recency list revisits a slot");
        }
        if slot.prev != prev {
            return Err("recency list back link disagrees");
        }
        (prev, cur) = (cur, slot.next);
    }
    if prev != tail {
        return Err("recency list does not end at its tail");
    }
    if seen.iter().any(|&s| !s) {
        return Err("recency list misses a slot");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(entries: usize, cap: u64) -> CacheTable {
        CacheTable::new(CacheConfig::lru(entries, cap))
    }

    #[test]
    fn hit_increments_without_eviction() {
        let mut c = lru(4, 100);
        assert!(c.record(1).is_none());
        assert!(c.record(1).is_none());
        assert_eq!(c.peek(1), Some(2));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn overflow_evicts_full_capacity() {
        let mut c = lru(4, 5);
        let mut evictions = Vec::new();
        for _ in 0..12 {
            if let Some(e) = c.record(9) {
                evictions.push(e);
            }
        }
        // Counts 1..5 -> overflow at 5, again at 10.
        assert_eq!(evictions.len(), 2);
        for e in &evictions {
            assert_eq!(e.value, 5);
            assert_eq!(e.reason, EvictionReason::Overflow);
        }
        assert_eq!(c.peek(9), Some(2)); // 12 - 2*5
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = lru(2, 100);
        c.record(1);
        c.record(2);
        c.record(1); // 1 is now MRU
        let e = c.record(3).expect("replacement eviction");
        assert_eq!(e.flow, 2);
        assert_eq!(e.value, 1);
        assert_eq!(e.reason, EvictionReason::Replacement);
        assert_eq!(c.peek(1), Some(2));
        assert_eq!(c.peek(2), None);
        assert_eq!(c.peek(3), Some(1));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = CacheTable::new(CacheConfig {
            policy: CachePolicy::Fifo,
            ..CacheConfig::lru(2, 100)
        });
        c.record(1);
        c.record(2);
        c.record(1); // touch must NOT save flow 1 under FIFO
        let e = c.record(3).expect("replacement eviction");
        assert_eq!(e.flow, 1);
        assert_eq!(e.value, 2);
    }

    #[test]
    fn random_policy_evicts_some_resident_flow() {
        let mut c = CacheTable::new(CacheConfig::random(4, 100));
        for f in 1..=4 {
            c.record(f);
        }
        let e = c.record(5).expect("replacement eviction");
        assert!((1..=4).contains(&e.flow));
        assert_eq!(c.len(), 4);
        assert_eq!(c.peek(5), Some(1));
    }

    #[test]
    fn drain_flushes_everything_once() {
        let mut c = lru(8, 100);
        for f in 0..5u64 {
            for _ in 0..=f {
                c.record(f);
            }
        }
        let mut dump = c.drain();
        dump.sort_by_key(|e| e.flow);
        assert_eq!(dump.len(), 5);
        for (i, e) in dump.iter().enumerate() {
            assert_eq!(e.flow, i as u64);
            assert_eq!(e.value, i as u64 + 1);
            assert_eq!(e.reason, EvictionReason::FinalDump);
        }
        assert!(c.is_empty());
        assert!(c.drain().is_empty());
    }

    #[test]
    fn conservation_of_packets() {
        // Every packet must end up in exactly one eviction value.
        let mut c = lru(16, 7);
        let mut evicted = 0u64;
        let mut sent = 0u64;
        for i in 0..10_000u64 {
            let flow = i % 37; // 37 flows > 16 entries: lots of churn
            sent += 1;
            if let Some(e) = c.record(flow) {
                evicted += e.value;
            }
        }
        for e in c.drain() {
            evicted += e.value;
        }
        assert_eq!(evicted, sent);
    }

    #[test]
    fn zero_count_victim_emits_nothing() {
        // Overflow resets a count to zero; replacing that entry before
        // its next packet must not emit a zero-value eviction.
        let mut c = lru(1, 2);
        c.record(1);
        let e = c.record(1).expect("overflow at capacity 2");
        assert_eq!(e.value, 2);
        // Flow 1's entry now has count 0; a miss replaces it silently.
        assert!(c.record(2).is_none());
        assert_eq!(c.peek(2), Some(1));
    }

    #[test]
    fn list_invariants_under_churn() {
        for policy in [CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo] {
            let mut c = CacheTable::new(CacheConfig {
                policy,
                ..CacheConfig::lru(8, 4)
            });
            let mut x = 1u64;
            for _ in 0..5_000 {
                // Cheap LCG over a 29-flow universe.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                c.record(x % 29);
                c.assert_list_invariants();
            }
        }
    }

    #[test]
    fn eviction_values_bounded_by_capacity() {
        let mut c = CacheTable::new(CacheConfig::random(8, 6));
        let mut x = 7u64;
        let check = |e: Option<Eviction>| {
            if let Some(e) = e {
                assert!(e.value >= 1 && e.value <= 6, "eviction {e:?}");
            }
        };
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            check(c.record(x % 100));
        }
        for e in c.drain() {
            assert!(e.value >= 1 && e.value <= 6);
        }
    }

    #[test]
    fn stats_accounting() {
        let mut c = lru(2, 3);
        c.record(1); // miss
        c.record(1); // hit
        c.record(1); // hit + overflow (count reaches 3)
        c.record(2); // miss
        c.record(3); // miss + replacement (victim is flow 1 w/ count 0 -> silent) or flow 2?
        let st = c.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.misses, 3);
        assert_eq!(st.overflow_evictions, 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        CacheTable::new(CacheConfig::lru(0, 10));
    }

    #[test]
    #[should_panic(expected = "y must be >= 2")]
    fn tiny_capacity_rejected() {
        CacheTable::new(CacheConfig::lru(4, 1));
    }

    #[test]
    fn weighted_conservation() {
        let mut c = lru(8, 100);
        let mut out = Vec::new();
        let mut sent = 0u64;
        let mut x = 3u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let w = x % 1500 + 1;
            sent += w;
            c.record_weighted(x % 23, w, &mut out);
        }
        let mut evicted: u64 = out.iter().map(|e| e.value).sum();
        evicted += c.drain().iter().map(|e| e.value).sum::<u64>();
        assert_eq!(evicted, sent);
    }

    #[test]
    fn weighted_multi_overflow() {
        let mut c = lru(2, 10);
        let mut out = Vec::new();
        c.record_weighted(1, 35, &mut out);
        // 35 units in a capacity-10 entry: three overflow evictions of
        // exactly 10, residue 5 stays resident.
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|e| e.value == 10 && e.reason == EvictionReason::Overflow));
        assert_eq!(c.peek(1), Some(5));
    }

    #[test]
    fn weighted_replacement_then_overflow() {
        let mut c = lru(1, 10);
        let mut out = Vec::new();
        c.record_weighted(1, 4, &mut out);
        assert!(out.is_empty());
        c.record_weighted(2, 25, &mut out);
        // Replacement eviction of flow 1 (value 4), then two overflows
        // of flow 2.
        assert_eq!(out[0], Eviction { flow: 1, value: 4, reason: EvictionReason::Replacement });
        assert_eq!(out.len(), 3);
        assert_eq!(c.peek(2), Some(5));
    }

    #[test]
    fn weighted_zero_is_noop() {
        let mut c = lru(2, 10);
        let mut out = Vec::new();
        c.record_weighted(1, 0, &mut out);
        assert!(out.is_empty());
        assert!(c.is_empty());
        assert_eq!(c.stats().packets(), 0);
    }

    #[test]
    fn weighted_unit_matches_record() {
        // record_weighted(f, 1) must behave exactly like record(f).
        let mut a = lru(4, 7);
        let mut b = lru(4, 7);
        let mut out = Vec::new();
        let mut x = 9u64;
        for _ in 0..3_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let f = x % 13;
            let e1 = a.record(f);
            let before = out.len();
            b.record_weighted(f, 1, &mut out);
            match e1 {
                Some(e) => assert_eq!(out.last(), Some(&e)),
                None => assert_eq!(out.len(), before),
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn record_slotted_agrees_with_record_and_tracks_binding() {
        for policy in [CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo] {
            let mut a = CacheTable::new(CacheConfig { policy, ..CacheConfig::lru(8, 4) });
            let mut b = CacheTable::new(CacheConfig { policy, ..CacheConfig::lru(8, 4) });
            let mut bound: std::collections::HashMap<u32, u64> = Default::default();
            let mut x = 5u64;
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let f = x % 29;
                let e = a.record(f);
                let r = b.record_slotted(f);
                assert_eq!(e, r.eviction);
                if !r.inserted {
                    // Already resident: the slot must have been bound to
                    // this flow by an earlier inserted=true call.
                    assert_eq!(bound.get(&r.slot), Some(&f), "slot {} flow {f}", r.slot);
                } else if let Some(ev) = r.eviction {
                    // Replacement: the eviction names the previous
                    // occupant of the reused slot.
                    assert_eq!(bound.get(&r.slot), Some(&ev.flow));
                }
                bound.insert(r.slot, f);
            }
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn drain_with_matches_drain_order_and_slots() {
        let build = |seed: u64| {
            let mut c = CacheTable::new(CacheConfig::random(16, 9));
            let mut x = seed;
            for _ in 0..4_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                c.record(x % 41);
            }
            c
        };
        let mut a = build(11);
        let mut b = build(11);
        let expected = a.drain();
        let mut got = Vec::new();
        b.drain_with(|slot, e| {
            // The slot really held this flow's count.
            got.push(e);
            let _ = slot;
        });
        assert_eq!(expected, got);
        assert_eq!(a.stats(), b.stats());
        assert!(b.is_empty());
    }

    #[test]
    fn weighted_slotted_agrees_with_weighted() {
        let mut a = lru(4, 7);
        let mut b = lru(4, 7);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        let mut x = 9u64;
        for _ in 0..3_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let f = x % 13;
            let w = x % 20;
            a.record_weighted(f, w, &mut out_a);
            let r = b.record_weighted_slotted(f, w, &mut out_b);
            assert_eq!(r.is_none(), w == 0);
        }
        assert_eq!(out_a, out_b);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn prefetch_is_read_only_and_predicts_overflow() {
        let mut c = lru(4, 3);
        assert_eq!(c.prefetch(1), None);
        c.record(1); // count 1
        let st = c.stats();
        assert_eq!(c.prefetch(1), Some((0, false)));
        c.record(1); // count 2: next packet overflows (y = 3)
        assert_eq!(c.prefetch(1).map(|(_, o)| o), Some(true));
        assert_eq!(c.stats().hits, st.hits + 1, "prefetch must not count as access");
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        for policy in [CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo] {
            let cfg = CacheConfig { policy, ..CacheConfig::lru(8, 5) };
            let mut a = CacheTable::new(cfg);
            let mut x = 17u64;
            for _ in 0..3_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                a.record(x % 31);
            }
            let snap = a.snapshot_state();
            let mut b = CacheTable::restore(cfg, &snap).expect("a snapshot restores");
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.len(), b.len());
            // Identical futures: same evictions, same random victims,
            // same recency decisions, same final dump.
            for _ in 0..3_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let f = x % 31;
                assert_eq!(a.record_slotted(f), b.record_slotted(f));
            }
            let mut da = Vec::new();
            let mut db = Vec::new();
            a.drain_with(|slot, e| da.push((slot, e)));
            b.drain_with(|slot, e| db.push((slot, e)));
            assert_eq!(da, db);
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn snapshot_restore_round_trips_state() {
        let cfg = CacheConfig::random(4, 9);
        let mut c = CacheTable::new(cfg);
        for f in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            c.record(f);
        }
        let snap = c.snapshot_state();
        let r = CacheTable::restore(cfg, &snap).expect("a snapshot restores");
        assert_eq!(r.snapshot_state(), snap, "restore → snapshot is the identity");
        // iter() is slot-ordered, hence identical too.
        assert_eq!(c.iter().collect::<Vec<_>>(), r.iter().collect::<Vec<_>>());
    }

    #[test]
    fn restore_rejects_duplicate_flows() {
        let cfg = CacheConfig::lru(4, 9);
        let state = CacheTableState {
            slots: vec![(7, 1, NIL, 1), (7, 2, 0, NIL)],
            head: 0,
            tail: 1,
            rng: [1, 2, 3, 4],
            stats: CacheStats::default(),
        };
        assert_eq!(CacheTable::restore(cfg, &state).err(), Some("duplicate flow in the cache"));
    }

    #[test]
    fn memory_bits_accounting() {
        let cfg = CacheConfig::lru(1024, 64);
        // 64-capacity counter needs 6 bits; with a 32-bit tag:
        assert_eq!(cfg.memory_bits(32), 1024 * (6 + 32));
    }
}
