//! Property tests for the CAESAR crate's data structures and
//! estimators, on the deterministic `support::testkit` harness.

use caesar::estimator::{csm, mlm, EstimateParams};
use caesar::{AtomicCounterArray, CounterArray};
use support::rand::Rng;
use support::testkit::{for_each_seed, GenExt};

/// Plain and atomic counter arrays agree on any operation stream and
/// geometry.
#[test]
fn plain_and_atomic_counter_arrays_agree() {
    for_each_seed(|rng| {
        let ops =
            rng.vec_with(1..800, |r| (r.gen_range(0usize..64), r.gen_range(0u64..5000)));
        let len = rng.gen_range(1usize..64);
        let bits = rng.gen_range(1u32..40);
        let mut plain = CounterArray::new(len, bits);
        let atomic = AtomicCounterArray::new(len, bits);
        for &(idx, v) in &ops {
            let idx = idx % len;
            plain.add(idx, v);
            atomic.add(idx, v);
        }
        for i in 0..len {
            assert_eq!(atomic.get(i), plain.get(i), "counter {i}");
        }
        assert_eq!(atomic.total_added(), plain.total_added());
    });
}

/// CSM is the exact inverse of the counter-sum model: construct
/// counters with a known own-share split plus uniform noise and the
/// estimate recovers the size exactly.
#[test]
fn csm_inverts_the_forward_model() {
    for_each_seed(|rng| {
        let x = rng.gen_range(0u64..1_000_000);
        let noise = rng.gen_range(0u64..10_000);
        let k = rng.gen_range(1usize..8);
        let l_extra = rng.gen_range(0usize..100);
        let k64 = k as u64;
        let counters: Vec<u64> =
            (0..k64).map(|r| x / k64 + u64::from(r < x % k64) + noise).collect();
        let l = k + l_extra;
        let params = EstimateParams {
            k,
            y: 54,
            counters: l,
            // Total mass such that n/L is exactly `noise`.
            total_packets: noise * l as u64,
        };
        let est = csm::estimate(&counters, &params);
        assert!((est.value - x as f64).abs() < 1e-6, "x={} est={}", x, est.value);
    });
}

/// MLM and CSM agree within the model variance for noise-free
/// evenly split counters.
#[test]
fn mlm_tracks_csm_on_clean_counters() {
    for_each_seed(|rng| {
        let x = rng.gen_range(1u64..500_000);
        let k = rng.gen_range(2usize..6);
        let k64 = k as u64;
        let counters: Vec<u64> = (0..k64).map(|r| x / k64 + u64::from(r < x % k64)).collect();
        let params = EstimateParams { k, y: 54, counters: 1 << 20, total_packets: x };
        let c = csm::estimate(&counters, &params);
        let m = mlm::estimate(&counters, &params);
        // Identical inputs: the two estimators differ by at most the
        // MLM quadratic's (k−1)²/y correction plus rounding.
        assert!(
            (c.value - m.value).abs() <= 1.0 + 0.001 * x as f64,
            "CSM {} vs MLM {}",
            c.value,
            m.value
        );
    });
}

/// Confidence intervals are ordered and contain the point estimate
/// for any reliability.
#[test]
fn confidence_intervals_are_sane() {
    for_each_seed(|rng| {
        let w = rng.vec_with(3..4, |r| r.gen_range(0u64..100_000));
        let alpha = rng.gen_range(0.5f64..0.999);
        let params = EstimateParams { k: 3, y: 54, counters: 1000, total_packets: 50_000 };
        let e = csm::estimate(&w, &params);
        let (lo, hi) = e.confidence_interval(alpha);
        assert!(lo <= e.value && e.value <= hi);
        // Higher reliability never shrinks the interval.
        let (lo2, hi2) = e.confidence_interval((alpha + 1.0) / 2.0);
        assert!(lo2 <= lo && hi2 >= hi);
    });
}

/// Gaussian quantile inverts the CDF everywhere.
#[test]
fn gaussian_quantile_roundtrip() {
    for_each_seed(|rng| {
        let p = rng.gen_range(0.001f64..0.999);
        let x = caesar::gaussian::normal_quantile(p);
        assert!((caesar::gaussian::normal_cdf(x) - p).abs() < 1e-6);
    });
}
