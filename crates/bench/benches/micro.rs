//! Hot-path microbenchmarks: the per-packet and per-eviction costs the
//! Fig. 8 model prices, measured for real on the host CPU.
//!
//! Runs on the vendored `support::timing::Harness`; sub-microsecond
//! kernels use `bench_n` batching so a sample is long enough for the
//! timer. Bench names are stable across harness changes.

use baselines::{Case, CaseConfig, DiscoScale, LossModel, Rcs, RcsConfig};
use bench::{bench_config, bench_trace, build_sketch};
use caesar::estimator::{csm, mlm, EstimateParams};
use caesar::update::spread_eviction;
use caesar::{AtomicCounterArray, Caesar, CounterArray, Estimator, SketchRead, WritebackBuffer};
use hashkit::{aphash::aphash64, fnv::fnv1a64, sha1::Sha1, KCounterMap, K_MAX};
use std::hint::black_box;
use support::rand::{rngs::StdRng, Rng, SeedableRng};
use support::timing::Harness;

fn hashing() {
    let mut g = Harness::new("hashing");
    let tuple = [0u8; 13];
    g.bench_n("sha1_13B_tuple", 100_000, || {
        black_box(Sha1::digest64(&tuple));
    });
    g.bench_n("aphash64_13B_tuple", 100_000, || {
        black_box(aphash64(&tuple));
    });
    g.bench_n("fnv1a64_13B_tuple", 100_000, || {
        black_box(fnv1a64(&tuple));
    });
    let map = KCounterMap::new(3, 23_437, 7);
    let mut buf = Vec::with_capacity(3);
    let mut i = 0u64;
    g.bench_n("kmap_indices_k3", 100_000, || {
        i = i.wrapping_add(1);
        map.indices_into(black_box(i), &mut buf);
        black_box(buf.len());
    });
    // The allocation-free hot-path form: fixed stack scratch, no Vec
    // bookkeeping at all (PR 3 pair for kmap_indices_k3).
    let mut fill = [0usize; K_MAX];
    let mut j = 0u64;
    g.bench_n("kmap_fill_indices_k3", 100_000, || {
        j = j.wrapping_add(1);
        map.fill_indices(black_box(j), &mut fill);
        black_box(fill[0]);
    });
    g.finish();
}

fn record_paths() {
    let (trace, _) = bench_trace();
    let mut g = Harness::new("record");

    g.bench("caesar_trace", || {
        black_box(build_sketch(bench_config(), &trace));
    });
    // Prefetched batch ingest over the same packets (PR 3 pair for
    // caesar_trace; byte-identical sketch, see hotpath_equivalence).
    let batch_flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    g.bench("caesar_trace_batch", || {
        let mut c = Caesar::new(bench_config());
        c.record_batch(&batch_flows);
        c.finish();
        black_box(c.stats().evictions);
    });
    // The per-eviction spread kernel in isolation (zero-alloc scratch).
    let mut sram = CounterArray::new(2048, 32);
    let idx = [17usize, 701, 1400];
    let mut srng = StdRng::seed_from_u64(9);
    g.bench_n("spread_eviction_k3_54u", 100_000, || {
        black_box(spread_eviction(&mut sram, &idx, 54, &mut srng));
    });
    g.bench("rcs_trace", || {
        let mut r = Rcs::new(RcsConfig {
            counters: 2048,
            k: 3,
            loss: LossModel::Lossless,
            seed: 1,
        });
        for p in &trace.packets {
            r.record(p.flow);
        }
        black_box(r.stats().recorded);
    });
    g.bench("case_trace", || {
        let mut cs = Case::new(CaseConfig {
            counters: trace.num_flows,
            counter_bits: 10,
            max_expected_flow: trace.num_packets() as f64,
            cache_entries: 512,
            entry_capacity: 54,
            ..CaseConfig::default()
        });
        for p in &trace.packets {
            cs.record(p.flow);
        }
        cs.finish();
        black_box(cs.stats().evictions);
    });
    g.finish();
}

fn estimators() {
    let (trace, truth) = bench_trace();
    let sketch: Caesar = build_sketch(bench_config(), &trace);
    let flows: Vec<u64> = truth.keys().copied().collect();
    let mut g = Harness::new("estimators");
    g.bench("caesar_query_csm_all_flows", || {
        let mut acc = 0.0;
        for &f in &flows {
            acc += sketch.estimate(f, Estimator::Csm).value;
        }
        black_box(acc);
    });
    g.bench("caesar_query_mlm_all_flows", || {
        let mut acc = 0.0;
        for &f in &flows {
            acc += sketch.estimate(f, Estimator::Mlm).value;
        }
        black_box(acc);
    });
    // PR 3 pairs: the zero-alloc batch engine, sequential and 4-way
    // (the 4-way width resolves against available_parallelism, so on a
    // 1-core host it measures the batch kernel itself).
    g.bench("caesar_query_csm_all_flows_batch", || {
        black_box(sketch.estimate_all(&flows, Estimator::Csm));
    });
    g.bench("caesar_query_mlm_all_flows_batch", || {
        black_box(sketch.estimate_all(&flows, Estimator::Mlm));
    });
    g.bench("caesar_query_csm_all_flows_par4", || {
        black_box(sketch.estimate_all_threads(&flows, Estimator::Csm, 4));
    });
    g.bench("caesar_query_mlm_all_flows_par4", || {
        black_box(sketch.estimate_all_threads(&flows, Estimator::Mlm, 4));
    });

    // RCS's search-based MLE: the paper calls it "extremely slow";
    // quantify it against closed-form CSM.
    let mut rcs = Rcs::new(RcsConfig {
        counters: 2048,
        k: 3,
        loss: LossModel::Lossless,
        seed: 1,
    });
    for p in &trace.packets {
        rcs.record(p.flow);
    }
    let sample: Vec<u64> = flows.iter().copied().take(200).collect();
    g.bench("rcs_csm_200_flows", || {
        let mut acc = 0.0;
        for &f in &sample {
            acc += rcs.estimate_csm(f);
        }
        black_box(acc);
    });
    g.bench("rcs_mle_search_200_flows", || {
        let mut acc = 0.0;
        for &f in &sample {
            acc += rcs.estimate_mle(f);
        }
        black_box(acc);
    });
    g.finish();

    // Raw estimator kernels on fixed counter values.
    let params = EstimateParams { k: 3, y: 54, counters: 2048, total_packets: 75_000 };
    let w = [150u64, 160, 140];
    let mut g = Harness::new("estimator_kernels");
    g.bench_n("csm_kernel", 100_000, || {
        black_box(csm::estimate(&w, &params));
    });
    g.bench_n("mlm_kernel", 100_000, || {
        black_box(mlm::estimate(&w, &params));
    });
    // Prepared (constants-hoisted) kernels the batch engine runs.
    let csm_prep = csm::Prepared::new(&params);
    g.bench_n("csm_kernel_prepared", 100_000, || {
        black_box(csm_prep.estimate(&w));
    });
    let mlm_prep = mlm::Prepared::new(&params);
    g.bench_n("mlm_kernel_prepared", 100_000, || {
        black_box(mlm_prep.estimate(&w));
    });
    g.finish();
}

fn disco_ops() {
    let scale = DiscoScale::for_bits(10, 1e7);
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = Harness::new("disco");
    g.bench_n("apply_bulk_54_units", 10_000, || {
        black_box(scale.apply_bulk(black_box(500), 54, &mut rng));
    });
    g.bench_n("apply_unit_trials_54_units", 10_000, || {
        black_box(scale.apply(black_box(500), 54, &mut rng));
    });
    let mut x = 0u64;
    g.bench_n("decompress", 100_000, || {
        x = (x + 1) % 1024;
        black_box(scale.decompress(x));
    });
    g.finish();

    let mut rng2 = StdRng::seed_from_u64(2);
    let mut g = Harness::new("cache");
    let mut cache = cachesim::CacheTable::new(cachesim::CacheConfig::lru(512, 1 << 30));
    for f in 0..512u64 {
        cache.record(f);
    }
    g.bench_n("cache_record_hit", 100_000, || {
        let f = rng2.gen_range(0..512u64);
        black_box(cache.record(f));
    });
    g.finish();
}

fn sram_writeback() {
    // The per-eviction off-chip write path: one relaxed-CAS `add` per
    // counter versus staging through a coalescing writeback buffer.
    let mut g = Harness::new("atomic_sram");
    let a = AtomicCounterArray::new(2048, 32);
    let mut i = 0u64;
    g.bench_n("add_hot64", 100_000, || {
        i = i.wrapping_add(1);
        a.add((i % 64) as usize, 1);
    });
    let mut wb = WritebackBuffer::new(1024);
    g.bench_n("writeback_push_hot64", 100_000, || {
        i = i.wrapping_add(1);
        wb.push((i % 64) as usize, 1, &a);
    });
    let updates: Vec<(usize, u64)> = (0..1024u64).map(|j| ((j % 64) as usize, 1)).collect();
    g.bench_n("add_batch_1024_uncoalesced", 1_000, || {
        a.add_batch(black_box(&updates));
    });
    g.finish();
}

fn spsc_transport() {
    // Raw hand-off cost of the PR 4 ring: per-item push/pop round trips
    // and the batched producer/consumer forms the shard workers use.
    // Single-threaded on purpose — this prices the atomics and index
    // arithmetic, not scheduling.
    let mut g = Harness::new("spsc");
    let (mut tx, mut rx) = support::spsc::ring::<u64>(4096);
    let mut i = 0u64;
    g.bench_n("push_pop_1", 100_000, || {
        i = i.wrapping_add(1);
        assert!(tx.try_push(i).is_ok());
        black_box(rx.try_pop());
    });
    let chunk: Vec<u64> = (0..1024u64).collect();
    let mut buf: Vec<u64> = Vec::with_capacity(1024);
    g.bench_n("push_slice_pop_batch_1024", 1_000, || {
        assert_eq!(tx.push_slice(black_box(&chunk)), chunk.len());
        buf.clear();
        assert_eq!(rx.pop_batch(&mut buf, 1024), chunk.len());
        black_box(buf.len());
    });
    g.finish();
}

fn main() {
    hashing();
    record_paths();
    estimators();
    disco_ops();
    sram_writeback();
    spsc_transport();
}
