//! The split-`k` eviction update (§3.1, Fig. 2).
//!
//! An evicted value `e = p·k + q` (`q < k`) is pushed to the flow's `k`
//! mapped counters: the aliquot `p` to each counter, then each of the
//! `q` remainder units to one of the `k` counters chosen independently
//! and uniformly at random — which makes the per-counter remainder
//! follow `B(q, 1/k)` exactly as the analysis assumes (Eq. 4).

use crate::sram::CounterArray;
use hashkit::K_MAX;
use support::rand::Rng;

/// Where one eviction's finished per-counter increment row lands: a
/// [`CounterArray`] applies it directly, the sharded engines stage it in
/// a shard-local writeback segment. Either way the split itself is
/// [`spread_eviction_scratch`]'s, so every engine draws the same
/// remainder placements.
pub trait SpreadTarget {
    /// Add `incs[slot]` to counter `indices[slot]` for every nonzero
    /// increment, in slot order, and return the number of counters
    /// written (see [`CounterArray::add_spread`]).
    fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64;
}

impl SpreadTarget for CounterArray {
    #[inline]
    fn add_spread(&mut self, indices: &[usize], incs: &[u64]) -> u64 {
        CounterArray::add_spread(self, indices, incs)
    }
}

/// Spread eviction value `value` over the counters at `indices`.
///
/// Returns the number of SRAM counter writes performed (every mapped
/// counter is written once per eviction on real hardware: the aliquot
/// and any remainder units for the same counter coalesce into one
/// read-modify-write).
///
/// **Zero-allocation**: for `k <= K_MAX` (every paper configuration)
/// the remainder accumulator lives in a stack array; larger `k` takes
/// a cold heap fallback. The RNG draw sequence — `q` calls of
/// `gen_range(0..k)` — is identical in both paths and identical to the
/// pre-optimization implementation, so recorded sketches stay
/// byte-for-byte the same.
#[inline]
pub fn spread_eviction<B: SpreadTarget + ?Sized, R: Rng + ?Sized>(
    sram: &mut B,
    indices: &[usize],
    value: u64,
    rng: &mut R,
) -> u64 {
    if indices.len() <= K_MAX {
        spread_zeroed(sram, indices, value, rng, &mut [0u64; K_MAX])
    } else {
        spread_eviction_large(sram, indices, value, rng)
    }
}

/// Cold path for `k > K_MAX`: keeps the old heap-allocating behavior
/// for pathological geometries without burdening the hot path.
#[cold]
#[inline(never)]
fn spread_eviction_large<B: SpreadTarget + ?Sized, R: Rng + ?Sized>(
    sram: &mut B,
    indices: &[usize],
    value: u64,
    rng: &mut R,
) -> u64 {
    spread_zeroed(sram, indices, value, rng, &mut vec![0u64; indices.len()])
}

/// [`spread_eviction`] with a **caller-provided scratch buffer** of at
/// least `indices.len()` words; only the first `indices.len()` entries
/// are used and they are re-zeroed on entry, so the same buffer can be
/// reused across calls without clearing.
///
/// # Panics
/// Panics if `scratch.len() < indices.len()`.
pub fn spread_eviction_scratch<B: SpreadTarget + ?Sized, R: Rng + ?Sized>(
    sram: &mut B,
    indices: &[usize],
    value: u64,
    rng: &mut R,
    scratch: &mut [u64],
) -> u64 {
    scratch[..indices.len()].fill(0);
    spread_zeroed(sram, indices, value, rng, scratch)
}

/// The split itself, over a scratch row whose first `indices.len()`
/// words are zero. [`spread_eviction`] hands it a freshly zeroed row
/// directly: the re-zeroing `fill` of the scratch variant compiles to
/// a `memset` call per eviction, which cost the staged shard kernel
/// 7–15% on a trace where every packet evicts (2-vCPU Xeon).
#[inline]
fn spread_zeroed<B: SpreadTarget + ?Sized, R: Rng + ?Sized>(
    sram: &mut B,
    indices: &[usize],
    value: u64,
    rng: &mut R,
    scratch: &mut [u64],
) -> u64 {
    let k = indices.len() as u64;
    debug_assert!(k > 0, "need at least one mapped counter");
    let extra = &mut scratch[..indices.len()];
    let p = value / k;
    let q = (value % k) as usize;

    // Draw the remainder placement first so each counter gets exactly
    // one coalesced write.
    for _ in 0..q {
        extra[rng.gen_range(0..indices.len())] += 1;
    }
    // Fold the aliquot into the scatter accumulator in one
    // lane-parallel pass: `extra` becomes the finished per-counter
    // increment row, applied by a single coalesced `add_spread` call
    // (same writes, tallies, and slot order as the old per-slot `add`
    // loop — `add_spread` pins that equivalence).
    for inc in extra.iter_mut() {
        *inc += p;
    }
    sram.add_spread(indices, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::CounterArray;
    use support::rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn conserves_value_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        for value in [0u64, 1, 2, 3, 7, 54, 1000] {
            let mut sram = CounterArray::new(10, 32);
            spread_eviction(&mut sram, &[1, 4, 7], value, &mut rng);
            assert_eq!(sram.sum(), value, "value {value} not conserved");
        }
    }

    #[test]
    fn divisible_value_splits_evenly() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sram = CounterArray::new(6, 32);
        spread_eviction(&mut sram, &[0, 2, 4], 9, &mut rng);
        assert_eq!(sram.get(0), 3);
        assert_eq!(sram.get(2), 3);
        assert_eq!(sram.get(4), 3);
    }

    #[test]
    fn remainder_stays_within_mapped_counters() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sram = CounterArray::new(8, 32);
        spread_eviction(&mut sram, &[1, 3], 5, &mut rng);
        // p = 2 each, remainder 1 lands on counter 1 or 3.
        assert_eq!(sram.get(0), 0);
        assert!(sram.get(1) + sram.get(3) == 5);
        assert!(sram.get(1) >= 2 && sram.get(3) >= 2);
    }

    #[test]
    fn remainder_distribution_is_binomial() {
        // With value < k, each unit picks a counter with prob 1/k:
        // counter 0's share over many trials must be ≈ q/k.
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 60_000;
        let mut hits = 0u64;
        for _ in 0..trials {
            let mut sram = CounterArray::new(3, 32);
            spread_eviction(&mut sram, &[0, 1, 2], 1, &mut rng);
            hits += sram.get(0);
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 1.0 / 3.0).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn write_count_is_at_most_k() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sram = CounterArray::new(10, 32);
        // value 2 with k = 3: at most 2 counters written (p = 0).
        let w = spread_eviction(&mut sram, &[0, 1, 2], 2, &mut rng);
        assert!(w <= 2);
        let w = spread_eviction(&mut sram, &[0, 1, 2], 30, &mut rng);
        assert_eq!(w, 3);
        // Zero value writes nothing.
        let w = spread_eviction(&mut sram, &[0, 1, 2], 0, &mut rng);
        assert_eq!(w, 0);
    }

    #[test]
    fn k_equals_one_puts_everything_in_one_counter() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sram = CounterArray::new(4, 32);
        spread_eviction(&mut sram, &[2], 17, &mut rng);
        assert_eq!(sram.get(2), 17);
    }

    #[test]
    fn scratch_variant_is_bit_identical_and_reusable_dirty() {
        // Same seed, same calls: the caller-scratch path must consume
        // the RNG identically and leave the same SRAM state, even when
        // the scratch buffer arrives full of garbage.
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut a = CounterArray::new(16, 32);
        let mut b = CounterArray::new(16, 32);
        let mut scratch = [u64::MAX; K_MAX];
        for value in [0u64, 1, 2, 5, 9, 54, 1001] {
            let wa = spread_eviction(&mut a, &[1, 4, 7, 9], value, &mut rng_a);
            let wb =
                spread_eviction_scratch(&mut b, &[1, 4, 7, 9], value, &mut rng_b, &mut scratch);
            assert_eq!(wa, wb, "value {value}");
        }
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
    }

    #[test]
    fn oversized_k_falls_back_without_misbehaving() {
        // k > K_MAX exercises the cold heap path; conservation and the
        // RNG stream must match a direct scratch call with a big buffer.
        let indices: Vec<usize> = (0..K_MAX + 5).collect();
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let mut a = CounterArray::new(K_MAX + 5, 32);
        let mut b = CounterArray::new(K_MAX + 5, 32);
        let mut big = vec![0u64; indices.len()];
        spread_eviction(&mut a, &indices, 1234, &mut rng_a);
        spread_eviction_scratch(&mut b, &indices, 1234, &mut rng_b, &mut big);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(a.sum(), 1234);
    }

    #[test]
    #[should_panic]
    fn short_scratch_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sram = CounterArray::new(8, 32);
        let mut scratch = [0u64; 2];
        spread_eviction_scratch(&mut sram, &[0, 1, 2], 5, &mut rng, &mut scratch);
    }
}
