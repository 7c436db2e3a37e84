//! Shared fixtures for the benchmark suites.
//!
//! Three Criterion harnesses live in `benches/`:
//!
//! * `figures` — regenerates each paper figure (Fig. 3–8 + headline)
//!   end-to-end, one bench per figure, at the `Tiny` scale;
//! * `micro` — the hot paths: per-packet record, hashing, counter
//!   mapping, estimators;
//! * `ablations` — the design choices DESIGN.md calls out: `k`, entry
//!   capacity `y`, replacement policy, cache size `M`, SRAM size `L`.

use caesar::{Caesar, CaesarConfig, SketchRead};
use flowtrace::synth::{SynthConfig, TraceGenerator};
use flowtrace::{FlowId, Trace};
use std::collections::HashMap;

/// A deterministic benchmark trace: ~2 K flows, ~75 K packets.
pub fn bench_trace() -> (Trace, HashMap<FlowId, u64>) {
    TraceGenerator::new(SynthConfig::small()).generate()
}

/// A larger trace for throughput measurements (~20 K flows).
pub fn big_bench_trace() -> (Trace, HashMap<FlowId, u64>) {
    TraceGenerator::new(SynthConfig {
        num_flows: 20_000,
        ..SynthConfig::default()
    })
    .generate()
}

/// The line-rate ingest trace: ~400 flows, ~1.6 M packets.
///
/// This is the paper's operating regime for the construction phase —
/// the on-chip cache is sized to the resident working set, so nearly
/// every packet is absorbed on-chip and the measured cost is the ingest
/// pipeline itself (routing, cache hit path, eviction writeback) rather
/// than cache-thrash churn. The `concurrent_build` before/after numbers
/// (`linerate_4` vs `linerate_replay_4`) are taken here.
pub fn linerate_bench_trace() -> (Trace, HashMap<FlowId, u64>) {
    TraceGenerator::new(SynthConfig {
        num_flows: 400,
        mean_flow_size: 4000.0,
        ..SynthConfig::default()
    })
    .generate()
}

/// The benchmark CAESAR geometry (paper operating point, bench scale).
pub fn bench_config() -> CaesarConfig {
    CaesarConfig {
        cache_entries: 512,
        entry_capacity: 54,
        counters: 2048,
        k: 3,
        ..CaesarConfig::default()
    }
}

/// Run a full construction phase over the trace.
pub fn build_sketch(cfg: CaesarConfig, trace: &Trace) -> Caesar {
    let mut c = Caesar::new(cfg);
    for p in &trace.packets {
        c.record(p.flow);
    }
    c.finish();
    c
}

/// Average relative error of the sketch against ground truth over
/// flows of at least `min` packets.
pub fn sketch_are(sketch: &Caesar, truth: &HashMap<FlowId, u64>, min: u64) -> f64 {
    let mut n = 0usize;
    let mut sum = 0.0;
    for (&f, &x) in truth {
        if x >= min {
            n += 1;
            sum += (sketch.query(f) - x as f64).abs() / x as f64;
        }
    }
    sum / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (trace, truth) = bench_trace();
        assert!(!trace.packets.is_empty());
        let sketch = build_sketch(bench_config(), &trace);
        let are = sketch_are(&sketch, &truth, 1000);
        assert!(are.is_finite());
    }
}
