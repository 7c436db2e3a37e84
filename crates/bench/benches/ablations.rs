//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each bench measures construction throughput for one point of the
//! design space and prints the resulting accuracy (large-flow ARE)
//! once, so a single `cargo bench --bench ablations` run yields both
//! sides of every trade-off:
//!
//! * `k` — mapped counters per flow (paper uses 3);
//! * `y` — cache entry capacity (paper uses 2·n/Q);
//! * replacement policy — LRU vs random vs FIFO;
//! * `M` — cache entries (eviction rate vs on-chip budget);
//! * `L` — SRAM counters (sharing noise vs off-chip budget).
//!
//! Runs on the vendored `support::timing::Harness`; group/name pairs
//! match the old criterion ids (`ablate_k/3`, `ablate_policy/lru`, …).

use bench::{bench_config, bench_trace, big_bench_trace, build_sketch, sketch_are};
use cachesim::CachePolicy;
use std::hint::black_box;
use support::timing::Harness;

fn ablate_k() {
    let (trace, truth) = bench_trace();
    let mut g = Harness::new("ablate_k");
    for k in [1usize, 2, 3, 5, 8] {
        let cfg = caesar::CaesarConfig { k, ..bench_config() };
        let sketch = build_sketch(cfg, &trace);
        eprintln!(
            "[ablate_k] k={k}: large-flow ARE = {:.3}, SRAM writes = {}",
            sketch_are(&sketch, &truth, 1000),
            sketch.stats().sram_writes
        );
        g.bench(&k.to_string(), || {
            black_box(build_sketch(cfg, &trace));
        });
    }
    g.finish();
}

fn ablate_entry_capacity() {
    let (trace, truth) = bench_trace();
    let mut g = Harness::new("ablate_y");
    for y in [4u64, 16, 54, 128, 512] {
        let cfg = caesar::CaesarConfig { entry_capacity: y, ..bench_config() };
        let sketch = build_sketch(cfg, &trace);
        let st = sketch.stats();
        eprintln!(
            "[ablate_y] y={y}: ARE = {:.3}, evictions = {} (overflow {}, replacement {})",
            sketch_are(&sketch, &truth, 1000),
            st.evictions,
            st.cache.overflow_evictions,
            st.cache.replacement_evictions
        );
        g.bench(&y.to_string(), || {
            black_box(build_sketch(cfg, &trace));
        });
    }
    g.finish();
}

fn ablate_policy() {
    let (trace, truth) = bench_trace();
    let mut g = Harness::new("ablate_policy");
    for (name, policy) in [
        ("lru", CachePolicy::Lru),
        ("random", CachePolicy::Random),
        ("fifo", CachePolicy::Fifo),
    ] {
        let cfg = caesar::CaesarConfig { policy, ..bench_config() };
        let sketch = build_sketch(cfg, &trace);
        eprintln!(
            "[ablate_policy] {name}: ARE = {:.3}, hit rate = {:.3}",
            sketch_are(&sketch, &truth, 1000),
            sketch.stats().cache.hit_rate()
        );
        g.bench(name, || {
            black_box(build_sketch(cfg, &trace));
        });
    }
    g.finish();
}

fn ablate_cache_size() {
    let (trace, _truth) = bench_trace();
    let mut g = Harness::new("ablate_cache_size");
    for m in [32usize, 128, 512, 2048] {
        let cfg = caesar::CaesarConfig { cache_entries: m, ..bench_config() };
        let sketch = build_sketch(cfg, &trace);
        let st = sketch.stats();
        eprintln!(
            "[ablate_cache_size] M={m}: hit rate = {:.3}, SRAM writes/pkt = {:.3}",
            st.cache.hit_rate(),
            st.sram_writes as f64 / trace.num_packets() as f64
        );
        g.bench(&m.to_string(), || {
            black_box(build_sketch(cfg, &trace));
        });
    }
    g.finish();
}

fn ablate_sram_size() {
    let (trace, truth) = big_bench_trace();
    let mut g = Harness::new("ablate_sram");
    for l in [512usize, 2048, 8192, 32768] {
        let cfg = caesar::CaesarConfig {
            cache_entries: 2048,
            counters: l,
            ..bench_config()
        };
        let sketch = build_sketch(cfg, &trace);
        eprintln!(
            "[ablate_sram] L={l} ({:.1} KB): large-flow ARE = {:.3}",
            cfg.sram_kb(),
            sketch_are(&sketch, &truth, 1000)
        );
        g.bench(&l.to_string(), || {
            black_box(build_sketch(cfg, &trace));
        });
    }
    g.finish();
}

fn main() {
    ablate_k();
    ablate_entry_capacity();
    ablate_policy();
    ablate_cache_size();
    ablate_sram_size();
}
