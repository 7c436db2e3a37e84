//! Acceptance properties for mergeable sketches (DESIGN.md §4h).
//!
//! The pinned property: `merge(build(A), build(B))` equals
//! `build(A ∥ B)` **byte-for-byte** whenever no counter clamps, and is
//! clamped-and-flagged (never silently wrong) when counters saturate —
//! across random geometries and every combination of 1/2/4 ingest
//! shards on either side.
//!
//! Exact linearity needs the builds to be RNG-free and eviction-order
//! free, which the regime below guarantees by construction:
//!
//! * every per-flow packet count is a multiple of `k`, so each
//!   eviction splits `e = p·k + 0` — no remainder units, no RNG draw,
//!   and each of the flow's `k` counters receives exactly `count/k`
//!   regardless of when the eviction happens;
//! * `entry_capacity` exceeds the largest combined per-flow count and
//!   the cache holds every flow on every shard, so the only evictions
//!   are the final dump — no mid-stream overflow or replacement can
//!   split a count into non-multiple-of-`k` pieces.
//!
//! Under that regime the final SRAM is a pure function of the
//! per-flow totals, so separate builds compose exactly. Saturating
//! adds commute with the composition (`min(a+b, cap)` either way), so
//! counter *values* stay byte-equal even above the clamp; only the
//! saturation-event tallies legitimately differ (one crossing per
//! merge vs. one per offending add), which is why the clamped case
//! asserts values-equal + flagged rather than tally-equal.

use caesar::{CaesarConfig, ConcurrentCaesar, SketchPayload, SketchRead};
use support::rand::Rng;
use support::testkit::for_each_seed;

const SHARD_GRID: [usize; 3] = [1, 2, 4];

/// Emit `counts[i].1` packets for flow `counts[i].0`, round-robin
/// interleaved so cache entries stay concurrently live.
fn interleave(counts: &[(u64, u64)]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut round = 0;
    loop {
        let mut emitted = false;
        for &(flow, count) in counts {
            if round < count {
                out.push(flow);
                emitted = true;
            }
        }
        if !emitted {
            return out;
        }
        round += 1;
    }
}

/// Random per-flow counts, each a multiple of `k` (possibly zero).
fn multiples_of_k(
    rng: &mut support::rand::rngs::StdRng,
    flows: &[u64],
    k: usize,
    max_multiple: u64,
) -> Vec<(u64, u64)> {
    flows
        .iter()
        .map(|&f| (f, k as u64 * rng.gen_range(0..=max_multiple)))
        .collect()
}

fn build(cfg: &CaesarConfig, shards: usize, flows: &[u64]) -> ConcurrentCaesar {
    ConcurrentCaesar::build(*cfg, shards, flows)
}

/// Below the clamp: merged view is bit-identical to the single-box
/// build of the concatenated stream, for every shard combination.
#[test]
fn merge_equals_combined_build_byte_for_byte() {
    for_each_seed(|rng| {
        let k = rng.gen_range(1usize..=4);
        let num_flows = rng.gen_range(4usize..=24);
        let flows: Vec<u64> = (0..num_flows).map(|_| rng.gen()).collect();
        let a_counts = multiples_of_k(rng, &flows, k, 8);
        let b_counts = multiples_of_k(rng, &flows, k, 8);
        let combined_max: u64 = a_counts
            .iter()
            .zip(&b_counts)
            .map(|(a, b)| a.1 + b.1)
            .max()
            .unwrap();
        let cfg = CaesarConfig {
            // Every shard's cache slice holds every flow even at 4
            // shards (per_shard_entries divides cache_entries).
            cache_entries: 4 * num_flows.max(1),
            entry_capacity: combined_max + k as u64 + 1,
            counters: rng.gen_range(64usize..512),
            k,
            counter_bits: 40, // far above any reachable sum: no clamps
            seed: rng.gen(),
            ..CaesarConfig::default()
        };
        let trace_a = interleave(&a_counts);
        let trace_b = interleave(&b_counts);
        let mut trace_ab = trace_a.clone();
        trace_ab.extend_from_slice(&trace_b);

        for i in 0..SHARD_GRID.len() {
            let (sa, sb, sab) = (
                SHARD_GRID[i],
                SHARD_GRID[(i + 1) % 3],
                SHARD_GRID[(i + 2) % 3],
            );
            let a = build(&cfg, sa, &trace_a);
            let b = build(&cfg, sb, &trace_b);
            let ab = build(&cfg, sab, &trace_ab);

            let mut merged = ConcurrentCaesar::empty(cfg);
            merged.merge(&a).expect("fingerprints match");
            merged.merge(&b).expect("fingerprints match");

            assert_eq!(
                merged.sram().snapshot(),
                ab.sram().snapshot(),
                "shards = ({sa},{sb},{sab}), k = {k}"
            );
            assert_eq!(merged.sram().total_added(), ab.sram().total_added());
            assert_eq!(merged.sram().saturations(), 0);
            assert_eq!(ab.sram().saturations(), 0);
            // Estimates over the merged view are bit-identical too:
            // same counters, same totals, same estimator inputs.
            for &(flow, _) in &a_counts {
                assert_eq!(
                    merged.query(flow).to_bits(),
                    ab.query(flow).to_bits(),
                    "flow {flow:#x}"
                );
            }

            // The wire path (export → encode → decode → merge_sketch)
            // lands on the identical cluster view.
            let mut wired = ConcurrentCaesar::empty(cfg);
            for node in [&a, &b] {
                let payload =
                    SketchPayload::decode(&node.export_sketch().encode()).expect("payload");
                wired.merge_sketch(&payload).expect("fingerprints match");
            }
            assert_eq!(wired.sram().snapshot(), ab.sram().snapshot());
            assert_eq!(wired.sram().total_added(), ab.sram().total_added());
        }
    });
}

/// Above the clamp: counter values still agree byte-for-byte (both
/// paths pin at `max_value`), and the merged view *flags* the damage —
/// saturation events recorded, query health degraded — instead of
/// silently under-counting.
#[test]
fn merge_above_clamp_is_clamped_and_flagged() {
    for_each_seed(|rng| {
        let k = rng.gen_range(1usize..=4);
        let num_flows = rng.gen_range(4usize..=12);
        let flows: Vec<u64> = (0..num_flows).map(|_| rng.gen()).collect();
        // Large counts into few, narrow counters: per-counter share is
        // count/k ≥ 100 against a cap of at most 63, so every flow's
        // counters pin with certainty.
        let a_counts = multiples_of_k(rng, &flows, k, 200);
        let b_counts: Vec<(u64, u64)> = flows
            .iter()
            .map(|&f| (f, k as u64 * rng.gen_range(100..=200)))
            .collect();
        let combined_max: u64 = a_counts
            .iter()
            .zip(&b_counts)
            .map(|(a, b)| a.1 + b.1)
            .max()
            .unwrap();
        let cfg = CaesarConfig {
            cache_entries: 4 * num_flows,
            entry_capacity: combined_max + k as u64 + 1,
            counters: rng.gen_range(16usize..64),
            k,
            counter_bits: rng.gen_range(4u32..=6), // cap 15..=63
            seed: rng.gen(),
            ..CaesarConfig::default()
        };
        let trace_a = interleave(&a_counts);
        let trace_b = interleave(&b_counts);
        let mut trace_ab = trace_a.clone();
        trace_ab.extend_from_slice(&trace_b);

        let a = build(&cfg, 2, &trace_a);
        let b = build(&cfg, 4, &trace_b);
        let ab = build(&cfg, 1, &trace_ab);

        let mut merged = ConcurrentCaesar::empty(cfg);
        merged.merge(&a).unwrap();
        merged.merge(&b).unwrap();

        // Values agree (saturating add composes), tallies flag damage.
        assert_eq!(merged.sram().snapshot(), ab.sram().snapshot());
        assert_eq!(merged.sram().total_added(), ab.sram().total_added());
        assert!(merged.sram().saturations() > 0, "clamps must be recorded");
        assert!(ab.sram().saturations() > 0);
        assert!(merged.sram().saturated_fraction() > 0.0);

        // Every flow was driven past the cap, so its k counters are
        // pinned and health must report a degraded, low-confidence
        // estimate.
        let (flow, _) = b_counts[0];
        let health = merged.query_health(flow);
        assert!(health.is_degraded(), "saturated view must be flagged");
        assert!(health.confidence < 1.0);
        assert_eq!(health.saturated_counters, k);
    });
}

/// Sum conservation needs no special regime: for *arbitrary* traces
/// below the clamp, merged mass equals the sum of the parts (eviction
/// split and remainder scattering conserve units exactly).
#[test]
fn merge_conserves_mass_for_arbitrary_traces() {
    for_each_seed(|rng| {
        let cfg = CaesarConfig {
            cache_entries: rng.gen_range(4usize..64),
            entry_capacity: rng.gen_range(2u64..32),
            counters: rng.gen_range(32usize..512),
            k: rng.gen_range(1usize..=4),
            counter_bits: 40,
            seed: rng.gen(),
            ..CaesarConfig::default()
        };
        let trace_a: Vec<u64> =
            (0..rng.gen_range(0usize..1500)).map(|_| rng.gen_range(0u64..100)).collect();
        let trace_b: Vec<u64> =
            (0..rng.gen_range(0usize..1500)).map(|_| rng.gen_range(0u64..100)).collect();
        let a = build(&cfg, 2, &trace_a);
        let b = build(&cfg, 1, &trace_b);
        let mut merged = ConcurrentCaesar::empty(cfg);
        merged.merge(&a).unwrap();
        merged.merge(&b).unwrap();
        let total = (trace_a.len() + trace_b.len()) as u64;
        assert_eq!(merged.sram().total_added(), total);
        assert_eq!(merged.sram().sum(), total);
    });
}
