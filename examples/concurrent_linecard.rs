//! Multi-core line-card model: sharded CAESAR construction.
//!
//! ```text
//! cargo run --release --example concurrent_linecard
//! ```
//!
//! An RSS-style line card partitions flows across worker cores; each
//! core runs a private cache, all cores share one lock-free atomic
//! counter array. The ingest pipeline routes the trace into per-shard
//! batches with a single O(n) pass and pushes evictions through
//! coalescing writeback buffers. This example measures construction
//! throughput from 1 to 8 shards, compares the slice build against the
//! ring-fed thread runtime, and checks accuracy is unaffected.

use caesar::SketchRead;
use caesar::{ConcurrentCaesar, ThreadedCaesar};
use caesar_repro::prelude::*;
use std::time::Instant;

fn main() {
    // Bursty (captured-order) replay: flows stay temporally local, so
    // the per-shard caches actually hit and off-chip traffic stays low
    // — the regime a real line card operates in. (Try UniformShuffle
    // to see the pathological case: every cache misses, all shards
    // hammer the shared counters, and scaling inverts.)
    let (trace, truth) = TraceGenerator::new(SynthConfig {
        num_flows: 50_000,
        order: ArrivalOrder::PerFlowBursts,
        ..SynthConfig::default()
    })
    .generate();
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    println!(
        "trace: {} packets, {} flows\n",
        flows.len(),
        trace.num_flows
    );

    let cfg = CaesarConfig {
        cache_entries: 4_096,
        entry_capacity: trace.recommended_entry_capacity(),
        counters: 32_768,
        k: 3,
        ..CaesarConfig::default()
    };

    // The biggest flow, for the accuracy spot-check.
    let (&big_flow, &big_size) = truth.iter().max_by_key(|(_, &x)| x).expect("flows");

    println!("{:>7} {:>12} {:>14} {:>16}", "shards", "time (ms)", "Mpkt/s", "biggest-flow est");
    let mut baseline_ms = 0.0;
    let mut last_ms = 0.0;
    for shards in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let sketch = ConcurrentCaesar::build(cfg, shards, &flows);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if shards == 1 {
            baseline_ms = ms;
        }
        last_ms = ms;
        assert_eq!(sketch.sram().total_added() as usize, flows.len());
        println!(
            "{shards:>7} {ms:>12.1} {:>14.2} {:>10.0} (true {big_size})",
            flows.len() as f64 / ms / 1e3,
            sketch.query(big_flow),
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nspeedup at 8 shards: {:.2}x on {cores} available core(s)",
        baseline_ms / last_ms
    );
    if cores == 1 {
        println!(
            "(single-core host: sharding can only add overhead here; on a\n\
             multi-core box each shard runs on its own core)"
        );
    }

    // Slice build (one partition pass, then a scoped thread per shard)
    // vs the thread runtime (packets offered one at a time, routed on
    // the fly over one SPSC ring per shard to supervised workers).
    let shards = 4usize;
    let t0 = Instant::now();
    let fast = ConcurrentCaesar::build(cfg, shards, &flows);
    let partitioned_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let mut engine = ThreadedCaesar::new(cfg, shards);
    engine.offer_batch(&flows);
    let threaded = engine.finish();
    let threaded_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fast.sram().snapshot(), threaded.sram().snapshot());
    assert_eq!(fast.evictions(), threaded.evictions());
    println!(
        "\ningest pipeline at {shards} shards (identical counters, pinned):\n\
         {:>14} {partitioned_ms:>10.1} ms\n\
         {:>14} {threaded_ms:>10.1} ms  (offered over SPSC rings to supervised workers)",
        "partitioned", "threaded",
    );
    let stats = fast.ingest_stats();
    println!(
        "writeback batching: {} staged updates -> {} SRAM writes \
         ({:.1}x coalescing over {} flushes)",
        stats.staged_updates,
        stats.flushed_updates,
        stats.coalescing_factor(),
        stats.flushes,
    );
    println!(
        "\nflow partitioning keeps each shard's eviction stream deterministic —\n\
         rerun this example and the counter array is bit-identical; the slice\n\
         build and the thread runtime agree because saturating adds commute"
    );
}
