//! Bit-identity properties for the lane-structured query kernels.
//!
//! The batch query engine sweeps prepared CSM/MLM kernels over
//! `HASH_LANES`-wide chunks of flows ([`csm::Prepared::estimate_lanes`]
//! and [`mlm::Prepared::estimate_lanes`]). The optimization contract is
//! that lanes only give the autovectorizer independent chains to pack —
//! **every lane must reproduce the scalar kernel bit for bit**, for
//! every `k` and geometry, so `estimate_all` answers never depend on
//! which code path computed them.

use caesar::estimator::{csm, mlm, EstimateParams, LANES};
use caesar::{Caesar, CaesarConfig, Estimator, SketchRead};
use cachesim::CachePolicy;
use support::rand::Rng;
use support::testkit::{for_each_seed, GenExt};

fn random_params(rng: &mut impl Rng, k: usize) -> EstimateParams {
    EstimateParams {
        k,
        y: rng.gen_range(2u64..200),
        counters: rng.gen_range(k.max(2)..5000),
        total_packets: rng.gen_range(0u64..2_000_000),
    }
}

/// CSM lane kernel ≡ scalar prepared kernel, bitwise, for k ∈ 1..=8 ×
/// random geometries × random counter loads.
#[test]
fn csm_lanes_match_scalar_bitwise() {
    for_each_seed(|rng| {
        for k in 1..=8usize {
            let params = random_params(rng, k);
            let prep = csm::Prepared::new(&params);
            let rows: Vec<Vec<u64>> =
                (0..LANES).map(|_| rng.vec_with(k..k + 1, |r| r.gen_range(0u64..1 << 34))).collect();
            // u64 accumulation then one exact convert, as the batch
            // gather pass does it.
            let sums: [u64; LANES] = std::array::from_fn(|l| rows[l].iter().sum());
            let sums_f: [f64; LANES] = std::array::from_fn(|l| sums[l] as f64);
            let (values, variances) = prep.estimate_lanes(&sums_f);
            for (lane, row) in rows.iter().enumerate() {
                let scalar = prep.estimate(row);
                assert_eq!(
                    scalar.value.to_bits(),
                    values[lane].to_bits(),
                    "csm value lane {lane} k {k}"
                );
                assert_eq!(
                    scalar.variance.to_bits(),
                    variances[lane].to_bits(),
                    "csm variance lane {lane} k {k}"
                );
            }
        }
    });
}

/// MLM lane kernel ≡ scalar prepared kernel, bitwise, including the
/// `denom == 0` guard lanes (forced via zero-noise geometries).
#[test]
fn mlm_lanes_match_scalar_bitwise() {
    for_each_seed(|rng| {
        for k in 1..=8usize {
            let params = random_params(rng, k);
            let prep = mlm::Prepared::new(&params);
            let rows: Vec<Vec<u64>> =
                (0..LANES).map(|_| rng.vec_with(k..k + 1, |r| r.gen_range(0u64..1 << 30))).collect();
            // Σw² exactly as the scalar kernel accumulates it.
            let sum_sq: [f64; LANES] = std::array::from_fn(|l| {
                rows[l].iter().map(|&w| (w as f64) * (w as f64)).sum()
            });
            let lanes = prep.estimate_lanes(&sum_sq);
            for (lane, row) in rows.iter().enumerate() {
                let scalar = prep.estimate(row);
                assert_eq!(
                    scalar.value.to_bits(),
                    lanes[lane].value.to_bits(),
                    "mlm value lane {lane} k {k}"
                );
                assert_eq!(
                    scalar.variance.to_bits(),
                    lanes[lane].variance.to_bits(),
                    "mlm variance lane {lane} k {k}"
                );
            }
        }
    });
}

/// The `denom == 0` guard: k = 1 makes every constant term vanish, so
/// the select lane must produce exactly 0.0, same as the scalar branch.
#[test]
fn mlm_zero_denominator_guard_matches() {
    let params = EstimateParams { k: 1, y: 10, counters: 100, total_packets: 0 };
    let prep = mlm::Prepared::new(&params);
    let scalar = prep.estimate(&[0]);
    let lanes = prep.estimate_lanes(&[0.0; LANES]);
    for est in &lanes {
        assert_eq!(scalar.value.to_bits(), est.value.to_bits());
        assert_eq!(scalar.variance.to_bits(), est.variance.to_bits());
        assert_eq!(est.variance, 0.0);
    }
}

/// End-to-end: `estimate_all`'s fused gather + lane sweep over a real
/// sketch is bit-identical to the per-flow scalar query, for every
/// k ∈ 1..=8, both estimators, random geometries, and flow sets that
/// are not a multiple of the lane width (remainder tail included).
#[test]
fn batch_query_matches_per_flow_bitwise() {
    for_each_seed(|rng| {
        let k = rng.gen_range(1usize..=8);
        let cfg = CaesarConfig {
            cache_entries: rng.gen_range(4usize..64),
            entry_capacity: rng.gen_range(2u64..40),
            policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
            counters: rng.gen_range(k.max(16)..512),
            k,
            counter_bits: rng.gen_range(8u32..40),
            seed: rng.gen(),
            ..CaesarConfig::default()
        };
        let universe = rng.gen_range(8u64..200);
        let flows: Vec<u64> = rng.vec_with(100..2000, |r| r.gen_range(0..universe));
        let mut sketch = Caesar::new(cfg);
        sketch.record_batch(&flows);
        sketch.finish();
        let query: Vec<u64> = (0..universe).collect();
        for est in [Estimator::Csm, Estimator::Mlm] {
            let batch = sketch.estimate_all(&query, est);
            assert_eq!(batch.len(), query.len());
            for (i, &f) in query.iter().enumerate() {
                let scalar = sketch.estimate(f, est);
                assert_eq!(
                    scalar.value.to_bits(),
                    batch[i].value.to_bits(),
                    "{} flow {f} k {k}",
                    est.name()
                );
                assert_eq!(
                    scalar.variance.to_bits(),
                    batch[i].variance.to_bits(),
                    "{} flow {f} variance",
                    est.name()
                );
            }
        }
    });
}
