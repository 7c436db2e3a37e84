//! Packed-SRAM ingest parity: the bit-packed [`PackedCaesar`] build
//! must be **byte-identical** to the word-per-counter [`Caesar`] build
//! for every configuration — same counters, same tallies, same
//! estimates. The [`caesar::SramBacking`] seam only swaps the storage
//! layout; nothing observable may change.

use caesar::{Caesar, CaesarConfig, CounterView, Estimator, PackedCaesar};
use cachesim::CachePolicy;
use support::rand::Rng;
use support::testkit::{for_each_seed, GenExt};

fn assert_parity(word: &Caesar, packed: &PackedCaesar, ctx: &str) {
    let (w, p) = (word.sram(), packed.sram());
    assert_eq!(w.len(), p.len(), "{ctx}: length");
    for i in 0..w.len() {
        assert_eq!(
            CounterView::get(w, i),
            CounterView::get(p, i),
            "{ctx}: counter {i}"
        );
    }
    assert_eq!(w.sum(), p.sum(), "{ctx}: sum");
    assert_eq!(w.total_added(), p.total_added(), "{ctx}: offered units");
    let (ws, ps) = (word.stats(), packed.stats());
    assert_eq!(ws.sram.accesses, ps.sram.accesses, "{ctx}: accesses");
    assert_eq!(ws.sram.saturations, ps.sram.saturations, "{ctx}: saturations");
    assert_eq!(ws.evictions, ps.evictions, "{ctx}: evictions");
    assert_eq!(ws.sram_writes, ps.sram_writes, "{ctx}: sram writes");
    assert_eq!(
        w.saturated_fraction().to_bits(),
        p.saturated_fraction().to_bits(),
        "{ctx}: saturated fraction"
    );
}

fn random_cfg(rng: &mut impl Rng, counter_bits: u32) -> CaesarConfig {
    let k = rng.gen_range(1usize..=8);
    CaesarConfig {
        cache_entries: rng.gen_range(4usize..64),
        entry_capacity: rng.gen_range(2u64..48),
        policy: rng.pick(&[CachePolicy::Lru, CachePolicy::Random, CachePolicy::Fifo]),
        counters: rng.gen_range(k.max(16)..400),
        k,
        counter_bits,
        seed: rng.gen(),
        ..CaesarConfig::default()
    }
}

fn random_trace(rng: &mut impl Rng) -> Vec<u64> {
    let universe = rng.gen_range(8u64..300);
    rng.vec_with(200..3000, |r| r.gen_range(0..universe))
}

/// Word-backed and packed-backed sequential builds are byte-identical
/// across all eviction policies and random geometries; queries agree
/// bitwise.
#[test]
fn sequential_builds_are_byte_identical() {
    for_each_seed(|rng| {
        // Word-straddling widths on purpose: 64 % bits != 0 exercises
        // split reads/writes in the packed layout.
        let bits = rng.pick(&[3u32, 5, 7, 11, 13, 17, 23, 31, 33, 63]);
        let cfg = random_cfg(rng, bits);
        let flows = random_trace(rng);

        let mut word = Caesar::new(cfg);
        word.record_batch(&flows);
        word.finish();

        let mut packed = PackedCaesar::new(cfg);
        packed.record_batch(&flows);
        packed.finish();

        assert_parity(&word, &packed, &format!("bits {bits}"));

        let query: Vec<u64> = (0..64).collect();
        for est in [Estimator::Csm, Estimator::Mlm] {
            let a = word.estimate_all(&query, est);
            let b = packed.estimate_all(&query, est);
            for i in 0..query.len() {
                assert_eq!(a[i].value.to_bits(), b[i].value.to_bits(), "{}", est.name());
                assert_eq!(a[i].variance.to_bits(), b[i].variance.to_bits(), "{}", est.name());
            }
        }
    });
}

/// Saturation edges: narrow straddling widths clamp at max_value in
/// both layouts on the same packets, leaving identical counters and
/// saturation tallies.
#[test]
fn saturation_edges_agree_at_straddling_widths() {
    for_each_seed(|rng| {
        let bits = rng.pick(&[1u32, 2, 3, 5, 7]);
        let mut cfg = random_cfg(rng, bits);
        // Saturation by pigeonhole: at most 11 counters * 127 max_value
        // = 1397 storable units, but every trace offers >= 2000, so at
        // least one counter must clamp regardless of the k-split.
        cfg.counters = rng.gen_range(cfg.k.max(4)..12);
        cfg.entry_capacity = rng.gen_range(16u64..64);
        let universe = rng.gen_range(8u64..300);
        let flows: Vec<u64> = rng.vec_with(2000..4000, |r| r.gen_range(0..universe));

        let mut word = Caesar::new(cfg);
        word.record_batch(&flows);
        word.finish();

        let mut packed = PackedCaesar::new(cfg);
        packed.record_batch(&flows);
        packed.finish();

        assert!(
            word.stats().sram.saturations > 0,
            "geometry failed to saturate (bits {bits}) — weak test"
        );
        assert_parity(&word, &packed, &format!("saturating bits {bits}"));
    });
}

/// Per-packet `record` and batched `record_batch` agree on the packed
/// backing too (the batch base-hash path is layout-independent).
#[test]
fn packed_scalar_and_batch_ingest_agree() {
    for_each_seed(|rng| {
        let bits = rng.pick(&[5u32, 13, 29]);
        let cfg = random_cfg(rng, bits);
        let flows = random_trace(rng);

        let mut scalar = PackedCaesar::new(cfg);
        for &f in &flows {
            scalar.record(f);
        }
        scalar.finish();

        let mut batch = PackedCaesar::new(cfg);
        batch.record_batch(&flows);
        batch.finish();

        let (s, b) = (scalar.sram(), batch.sram());
        for i in 0..s.len() {
            assert_eq!(CounterView::get(s, i), CounterView::get(b, i), "counter {i}");
        }
        assert_eq!(scalar.stats().evictions, batch.stats().evictions);
        assert_eq!(scalar.stats().sram_writes, batch.stats().sram_writes);
    });
}
