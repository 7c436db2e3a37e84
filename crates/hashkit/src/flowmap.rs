//! A bounded-capacity open-addressing `flow -> slot` index.
//!
//! The cache table resolves one `flow_id -> slot` lookup per packet —
//! the single hottest map operation in the simulator. A general-purpose
//! `HashMap` (even behind [`crate::IdHashMap`]'s identity hasher) pays
//! for growth machinery, SwissTable control groups, and bucket
//! indirection on every probe. The cache's index needs none of that:
//! its population is bounded by the entry count fixed at construction,
//! keys are 64-bit flow IDs, and values are small slot numbers.
//!
//! [`FlowSlotMap`] exploits those bounds: a flat power-of-two table at
//! load factor ≤ 1/4, Fibonacci-hashed home buckets, and linear probing
//! with **backward-shift deletion** (a removal pulls displaced chain
//! entries back toward their home buckets instead of leaving a
//! tombstone), so lookups touch a single flat bucket array with no
//! marker walking, probe chains never degrade under churn, and the
//! table never reallocates after construction.
//!
//! The map is **not observable** in anything it indexes for: iteration
//! order is arbitrary, exactly like a hash map's. Callers that need
//! deterministic output must order by their own data, not by this map.

/// Bucket marker: never a legal slot value.
const EMPTY: u32 = u32::MAX;

/// Largest slot value storable (`u32::MAX - 1`); the largest value is
/// reserved as the empty-bucket marker.
pub const FLOW_SLOT_MAX: u32 = u32::MAX - 1;

/// Fibonacci multiplier (odd part of 2^64 / φ) — spreads structured
/// keys (test traces use small consecutive flow IDs) across buckets
/// without assuming the pre-hashed uniformity real flow IDs have.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One probe bucket: a key and its bound slot (or [`EMPTY`]). 16
/// bytes, so a probe touches a single cache line for both fields.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    key: u64,
    slot: u32,
}

const VACANT: Bucket = Bucket { key: 0, slot: EMPTY };

/// Fixed-capacity open-addressing map from `u64` flow IDs to `u32`
/// slot numbers. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct FlowSlotMap {
    /// Power-of-two bucket array; every index is taken `& (len - 1)`,
    /// which also lets the compiler elide the bounds checks.
    buckets: Box<[Bucket]>,
    shift: u32,
    len: usize,
}

impl FlowSlotMap {
    /// Build a map that can hold up to `max_entries` bindings without
    /// ever reallocating. The backing table is sized to four times the
    /// capacity (rounded up to a power of two), keeping probe chains
    /// near length one at every legal fill level — the table trades a
    /// few KiB of memory for a hot path that almost never probes twice.
    ///
    /// # Panics
    /// Panics if the table cannot be allocated (see
    /// [`try_with_capacity`](Self::try_with_capacity)).
    pub fn with_capacity(max_entries: usize) -> Self {
        Self::try_with_capacity(max_entries).expect("flow index too large to allocate")
    }

    /// [`with_capacity`](Self::with_capacity), or `None` when the table
    /// size overflows or the allocator refuses it: for capacities that
    /// come from outside the program.
    pub fn try_with_capacity(max_entries: usize) -> Option<Self> {
        let cap = max_entries.max(1).checked_mul(4)?.checked_next_power_of_two()?;
        let mut buckets = Vec::new();
        buckets.try_reserve_exact(cap).ok()?;
        buckets.resize(cap, VACANT);
        Some(Self {
            buckets: buckets.into_boxed_slice(),
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        })
    }

    /// Number of live bindings.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no flow is bound.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home bucket of `flow`.
    #[inline]
    fn home(&self, flow: u64) -> usize {
        (flow.wrapping_mul(PHI) >> self.shift) as usize
    }

    /// The slot bound to `flow`, if any.
    #[inline]
    pub fn get(&self, flow: u64) -> Option<u32> {
        let buckets = &self.buckets;
        let mask = buckets.len() - 1;
        let mut i = self.home(flow);
        loop {
            let b = buckets[i & mask];
            if b.key == flow && b.slot != EMPTY {
                return Some(b.slot);
            }
            if b.slot == EMPTY {
                return None;
            }
            i += 1;
        }
    }

    /// Bind `flow` to `slot`, returning the previously bound slot if
    /// the flow was already present (its binding is replaced).
    ///
    /// # Panics
    /// Panics if inserting a new flow would exceed the construction
    /// capacity, or if `slot > FLOW_SLOT_MAX`.
    pub fn insert(&mut self, flow: u64, slot: u32) -> Option<u32> {
        assert!(slot <= FLOW_SLOT_MAX, "slot {slot} collides with the empty marker");
        let mask = self.buckets.len() - 1;
        let mut i = self.home(flow);
        loop {
            let b = self.buckets[i & mask];
            if b.slot == EMPTY {
                assert!(
                    self.len <= mask / 2,
                    "FlowSlotMap over capacity: {} live bindings",
                    self.len
                );
                self.buckets[i & mask] = Bucket { key: flow, slot };
                self.len += 1;
                return None;
            }
            if b.key == flow {
                self.buckets[i & mask].slot = slot;
                return Some(b.slot);
            }
            i += 1;
        }
    }

    /// Unbind `flow`, returning its slot if it was present.
    pub fn remove(&mut self, flow: u64) -> Option<u32> {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(flow);
        loop {
            let b = self.buckets[i & mask];
            if b.slot == EMPTY {
                return None;
            }
            if b.key == flow {
                self.backward_shift(i & mask);
                self.len -= 1;
                return Some(b.slot);
            }
            i += 1;
        }
    }

    /// Close the gap opened at bucket `gap`: walk the probe chain that
    /// follows and pull each entry displaced past the gap back into it,
    /// so no lookup's chain is ever severed and no tombstone is needed.
    fn backward_shift(&mut self, mut gap: usize) {
        let mask = self.buckets.len() - 1;
        let mut j = gap;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b.slot == EMPTY {
                break;
            }
            let home = self.home(b.key);
            // The entry at `j` may move into the gap iff its home
            // bucket lies at or before the gap along its probe path —
            // i.e. its displacement covers the gap.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(gap) & mask) {
                self.buckets[gap] = b;
                gap = j;
            }
        }
        self.buckets[gap] = VACANT;
    }

    /// Drop every binding (capacity is retained).
    pub fn clear(&mut self) {
        self.buckets.fill(VACANT);
        self.len = 0;
    }

    /// Iterate live `(flow, slot)` bindings in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.buckets
            .iter()
            .filter(|b| b.slot != EMPTY)
            .map(|b| (b.key, b.slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn basic_bindings() {
        let mut m = FlowSlotMap::with_capacity(8);
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 3), None);
        assert_eq!(m.insert(0, 0), None); // flow 0 is a legal key
        assert_eq!(m.get(7), Some(3));
        assert_eq!(m.get(0), Some(0));
        assert_eq!(m.get(8), None);
        assert_eq!(m.insert(7, 5), Some(3), "rebind returns old slot");
        assert_eq!(m.get(7), Some(5));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(7), Some(5));
        assert_eq!(m.remove(7), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn churn_matches_reference_model() {
        // Random insert/remove/get churn against std HashMap; keys are
        // drawn from a small universe to force collisions, removals,
        // and backward shifts across wrapped probe chains.
        let mut m = FlowSlotMap::with_capacity(64);
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for step in 0..200_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let flow = x % 97;
            match x >> 62 {
                0 | 1 => {
                    if model.len() < 64 || model.contains_key(&flow) {
                        let slot = (step % 1000) as u32;
                        assert_eq!(m.insert(flow, slot), model.insert(flow, slot));
                    }
                }
                2 => assert_eq!(m.remove(flow), model.remove(&flow)),
                _ => assert_eq!(m.get(flow), model.get(&flow).copied()),
            }
            assert_eq!(m.len(), model.len());
        }
        let mut got: Vec<_> = m.iter().collect();
        let mut want: Vec<_> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn full_population_churn() {
        // The cache's replacement regime: the map sits at its exact
        // construction capacity while every step removes one flow and
        // inserts another. Must never panic or lose a binding.
        let mut m = FlowSlotMap::with_capacity(32);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for f in 0..32u64 {
            m.insert(f, f as u32);
            model.insert(f, f as u32);
        }
        let mut x = 7u64;
        for next_flow in 32u64..100_032 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let victim = *model.keys().nth((x % 32) as usize % model.len()).unwrap();
            let slot = model[&victim];
            assert_eq!(m.remove(victim), model.remove(&victim));
            assert_eq!(m.insert(next_flow, slot), model.insert(next_flow, slot));
            assert_eq!(m.len(), 32);
        }
        for (&f, &s) in &model {
            assert_eq!(m.get(f), Some(s));
        }
    }

    #[test]
    fn clear_resets() {
        let mut m = FlowSlotMap::with_capacity(4);
        m.insert(1, 1);
        m.insert(2, 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        m.insert(3, 3);
        assert_eq!(m.get(3), Some(3));
    }

    #[test]
    fn colliding_keys_probe_through() {
        // Keys equal mod 2^k collide under low-bit bucketing; Fibonacci
        // hashing must still resolve them, including through deletes.
        let mut m = FlowSlotMap::with_capacity(16);
        let keys: Vec<u64> = (0..16u64).map(|i| i << 32).collect();
        for (s, &k) in keys.iter().enumerate() {
            m.insert(k, s as u32);
        }
        for (s, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(s as u32));
        }
        for &k in keys.iter().step_by(2) {
            m.remove(k);
        }
        for (s, &k) in keys.iter().enumerate() {
            let want = if s % 2 == 0 { None } else { Some(s as u32) };
            assert_eq!(m.get(k), want);
        }
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn over_capacity_rejected() {
        let mut m = FlowSlotMap::with_capacity(4);
        for f in 0..100u64 {
            m.insert(f, 0);
        }
    }

    #[test]
    #[should_panic(expected = "collides with the empty marker")]
    fn marker_slot_rejected() {
        let mut m = FlowSlotMap::with_capacity(4);
        m.insert(1, u32::MAX);
    }
}
