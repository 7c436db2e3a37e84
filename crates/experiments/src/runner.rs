//! Shared machinery: trace caching and scheme drivers.

use crate::scale::{Scale, PAPER_MEAN_FLOW};
use baselines::{Case, Rcs};
use caesar::{Caesar, CaesarConfig, ConcurrentCaesar, Estimator, SketchRead};
use flowtrace::{FlowId, Trace};
use metrics::ScatterSeries;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use support::par::{par_map, partition_by};

/// A generated trace plus its ground truth, shared between figures.
pub type SharedTrace = Arc<(Trace, HashMap<FlowId, u64>)>;

static TRACE_CACHE: Mutex<Vec<(Scale, bool, SharedTrace)>> = Mutex::new(Vec::new());

fn cached_trace(scale: Scale, bursty: bool) -> SharedTrace {
    let mut cache = TRACE_CACHE.lock().expect("trace cache poisoned");
    if let Some((_, _, t)) = cache.iter().find(|(s, b, _)| *s == scale && *b == bursty) {
        return Arc::clone(t);
    }
    let mut cfg = scale.synth_config();
    if bursty {
        cfg.order = flowtrace::synth::ArrivalOrder::PerFlowBursts;
    }
    let gen = flowtrace::synth::TraceGenerator::new(cfg);
    let t = Arc::new(gen.generate());
    cache.push((scale, bursty, Arc::clone(&t)));
    t
}

/// The synthetic trace for `scale` with uniformly shuffled arrivals
/// (the paper's analysis assumption), generated once per process.
pub fn trace_for(scale: Scale) -> SharedTrace {
    cached_trace(scale, false)
}

/// The same flow population with per-flow burst arrivals — the
/// high-temporal-locality replay Fig. 8's timing sweep uses (real
/// captures replayed in order keep flows bursty; a global shuffle
/// destroys the locality every cache depends on).
pub fn bursty_trace_for(scale: Scale) -> SharedTrace {
    cached_trace(scale, true)
}

/// The CAESAR configuration every accuracy figure uses at `scale`
/// (the Fig. 4 operating point: 91.55 KB-equivalent SRAM, k = 3,
/// y = ⌊2·n/Q⌋).
pub fn caesar_config(scale: Scale) -> CaesarConfig {
    CaesarConfig {
        cache_entries: scale.cache_entries(),
        entry_capacity: (2.0 * PAPER_MEAN_FLOW).floor() as u64,
        counters: scale.caesar_counters(),
        k: 3,
        ..CaesarConfig::default()
    }
}

/// Run CAESAR over the trace and return the finished sketch.
pub fn run_caesar(cfg: CaesarConfig, trace: &Trace) -> Caesar {
    let mut c = Caesar::new(cfg);
    for p in &trace.packets {
        c.record(p.flow);
    }
    c.finish();
    c
}

/// Route the trace's packet stream into RSS-style per-shard flow
/// batches with one O(n) pass — the same flow→shard map
/// [`ConcurrentCaesar`] uses, exposed so custom replays (throughput
/// studies, figure sweeps) can reuse the ingest partition without
/// rebuilding a sketch.
pub fn shard_flows(trace: &Trace, shards: usize, seed: u64) -> Vec<Vec<u64>> {
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    partition_by(&flows, shards, |&f| {
        ConcurrentCaesar::shard_of(f, shards, seed)
    })
}

/// Run the sharded construction phase over the trace and return the
/// finished sketch (the multi-core analogue of [`run_caesar`]).
pub fn run_caesar_sharded(cfg: CaesarConfig, shards: usize, trace: &Trace) -> ConcurrentCaesar {
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    ConcurrentCaesar::build(cfg, shards, &flows)
}

/// Score a finished CAESAR sketch against ground truth with the given
/// estimator, in parallel over flows.
pub fn score_caesar(
    sketch: &Caesar,
    truth: &HashMap<FlowId, u64>,
    estimator: Estimator,
) -> ScatterSeries {
    let mut pairs: Vec<(FlowId, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable(); // deterministic order for reproducible output
    let points: Vec<(u64, f64)> =
        par_map(&pairs, |&(f, x)| (x, sketch.estimate(f, estimator).clamped()));
    let mut series = ScatterSeries::new();
    for (x, e) in points {
        series.push(x, e);
    }
    series
}

/// Score a finished RCS sketch (CSM estimator) against ground truth.
pub fn score_rcs(sketch: &Rcs, truth: &HashMap<FlowId, u64>) -> ScatterSeries {
    let mut pairs: Vec<(FlowId, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable();
    let points: Vec<(u64, f64)> = par_map(&pairs, |&(f, x)| (x, sketch.query(f)));
    let mut series = ScatterSeries::new();
    for (x, e) in points {
        series.push(x, e);
    }
    series
}

/// Score a finished CASE sketch against ground truth.
pub fn score_case(sketch: &Case, truth: &HashMap<FlowId, u64>) -> ScatterSeries {
    let mut pairs: Vec<(FlowId, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable();
    let mut series = ScatterSeries::new();
    for (f, x) in pairs {
        series.push(x, sketch.query(f));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cache_returns_same_arc() {
        let a = trace_for(Scale::Tiny);
        let b = trace_for(Scale::Tiny);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn shard_flows_partitions_the_whole_trace_consistently() {
        let shared = trace_for(Scale::Tiny);
        let trace = &shared.0;
        let seed = 0xCAE5A12D;
        let batches = shard_flows(trace, 4, seed);
        assert_eq!(batches.len(), 4);
        assert_eq!(
            batches.iter().map(Vec::len).sum::<usize>(),
            trace.num_packets()
        );
        for (shard, batch) in batches.iter().enumerate() {
            assert!(batch
                .iter()
                .all(|&f| ConcurrentCaesar::shard_of(f, 4, seed) == shard));
        }
    }

    #[test]
    fn sharded_run_conserves_packets_at_tiny_scale() {
        let shared = trace_for(Scale::Tiny);
        let trace = &shared.0;
        let sketch = run_caesar_sharded(caesar_config(Scale::Tiny), 4, trace);
        assert_eq!(sketch.sram().total_added() as usize, trace.num_packets());
    }

    #[test]
    fn caesar_runs_end_to_end_at_tiny_scale() {
        let shared = trace_for(Scale::Tiny);
        let (trace, truth) = (&shared.0, &shared.1);
        let sketch = run_caesar(caesar_config(Scale::Tiny), trace);
        let series = score_caesar(&sketch, truth, Estimator::Csm);
        assert_eq!(series.len(), truth.len());
        // Packet conservation end-to-end.
        assert_eq!(sketch.sram().total_added() as usize, trace.num_packets());
        // Estimates must be finite and non-negative (clamped).
        for p in series.points() {
            assert!(p.estimated.is_finite() && p.estimated >= 0.0);
        }
    }
}
