//! Per-workload accuracy and stress sweeps over the workload zoo.
//!
//! Runs every family of [`flowtrace::zoo::standard_zoo`] through all
//! three ingest paths — sequential [`caesar::Caesar`], 2-shard
//! [`caesar::ConcurrentCaesar`], and 4-shard [`caesar::OnlineCaesar`]
//! driven by a per-family [`StressPlan`] — and reports, per workload:
//! relative error (all flows and large flows), cache hit rate, SRAM
//! saturated fraction, ingest loss, and [`caesar::QueryHealth`]
//! confidence. The adversarial rows show exactly which mechanism each
//! hostile shape breaks: the mouse flood collapses the cache hit rate
//! and (under a stalled lane) the loss accounting, the single elephant
//! pins its `k` shared counters at the clamp value, and flow churn
//! invalidates the cached working set every epoch.

use crate::report::{f, pct, Csv, TextTable};
use crate::scale::{
    Scale, PAPER_CACHE_ENTRIES, PAPER_CAESAR_COUNTERS, PAPER_FLOWS, PAPER_PACKETS,
};
use caesar::SketchRead;
use caesar::{
    BackpressurePolicy, Caesar, CaesarConfig, ConcurrentCaesar, Estimator, OnlineCaesar,
};
use flowtrace::zoo::{standard_zoo, WorkloadGen, ZOO_SEED};
use flowtrace::{FlowId, Trace};
use metrics::{are_over_threshold, HealthTally, ScatterSeries};
use std::collections::HashMap;
use support::json::{Json, ToJson};
use support::testkit::{FaultEvent, FaultInjector, FaultSite};

/// Shards used by the concurrent ingest pass.
const CONCURRENT_SHARDS: usize = 2;
/// Shards used by the online stress pass.
pub const ONLINE_SHARDS: usize = 4;
/// Health queries sampled per workload (largest flows first).
const HEALTH_SAMPLE: usize = 256;
/// Ingest chunk size for the online pass.
const ONLINE_CHUNK: usize = 4096;

/// A CAESAR configuration derived from a zoo trace's *realized* shape,
/// holding the paper's intensive operating point (`n/L` noise per
/// counter, `y = ⌊2·n/Q⌋`, cache covering the same working-set
/// fraction) on traces whose `Q` and mean differ wildly per family.
pub fn zoo_config(trace: &Trace) -> CaesarConfig {
    let q = trace.num_flows.max(1) as f64;
    let n = (trace.num_packets().max(1)) as f64;
    let paper_noise = PAPER_PACKETS as f64 / PAPER_CAESAR_COUNTERS as f64;
    CaesarConfig {
        cache_entries: ((q * PAPER_CACHE_ENTRIES as f64 / PAPER_FLOWS as f64).round() as usize)
            .max(32),
        entry_capacity: ((2.0 * n / q).floor() as u64).max(2),
        counters: ((n / paper_noise).round() as usize).max(64),
        k: 3,
        ..CaesarConfig::default()
    }
}

/// How the online stress pass runs one workload: ring/backpressure
/// shape, counter width, and the deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct StressPlan {
    /// Per-shard ring capacity.
    pub ring_capacity: usize,
    /// Backpressure policy.
    pub policy: BackpressurePolicy,
    /// SRAM counter width for the online pass (narrow widths make
    /// saturation observable at sweep scales).
    pub counter_bits: u32,
    /// Watchdog deadline override (`None` = engine default).
    pub watchdog_deadline: Option<u64>,
    /// Scheduled faults (empty = clean run).
    pub events: Vec<FaultEvent>,
}

impl Default for StressPlan {
    fn default() -> Self {
        Self {
            ring_capacity: 1024,
            policy: BackpressurePolicy::Block,
            counter_bits: 32,
            watchdog_deadline: None,
            events: Vec::new(),
        }
    }
}

/// The per-family stress plan. Realistic families get a clean,
/// lossless run (`Block`, wide counters, no faults); each adversarial
/// family gets the plan that exposes its failure mode:
///
/// * `mouse_flood` — shard 0's ring consumer is stalled from the first
///   pump tick with a tail-drop ring of 64 slots and an effectively
///   infinite watchdog, so shard-0 loss grows without bound;
/// * `single_elephant` — 10-bit counters, so the elephant's mass pins
///   its `k` shared counters at the clamp value;
/// * `flow_churn` — three worker panics on shard 0, exercising the
///   quarantine accounting across epoch rotations.
pub fn stress_plan(workload: &str) -> StressPlan {
    match workload {
        "mouse_flood" => StressPlan {
            ring_capacity: 64,
            policy: BackpressurePolicy::DropNewest,
            watchdog_deadline: Some(1 << 40),
            events: vec![FaultEvent { site: FaultSite::RingStall, shard: 0, at_tick: 0 }],
            ..StressPlan::default()
        },
        "single_elephant" => StressPlan { counter_bits: 10, ..StressPlan::default() },
        "flow_churn" => StressPlan {
            events: vec![
                FaultEvent { site: FaultSite::WorkerPanic, shard: 0, at_tick: 1 },
                FaultEvent { site: FaultSite::WorkerPanic, shard: 0, at_tick: 3 },
                FaultEvent { site: FaultSite::WorkerPanic, shard: 0, at_tick: 5 },
            ],
            ..StressPlan::default()
        },
        _ => StressPlan::default(),
    }
}

/// Build the online engine a [`StressPlan`] describes (shared by the
/// sweep and the adversarial regression tests, so both stress the
/// identical configuration).
pub fn online_engine(cfg: CaesarConfig, plan: &StressPlan, shards: usize) -> OnlineCaesar {
    let cfg = CaesarConfig { counter_bits: plan.counter_bits, ..cfg };
    let mut engine = OnlineCaesar::new(cfg, shards)
        .with_policy(plan.policy)
        .with_ring_capacity(plan.ring_capacity)
        .with_injector(FaultInjector::with_events(plan.events.clone()));
    if let Some(deadline) = plan.watchdog_deadline {
        engine = engine.with_watchdog_deadline(deadline);
    }
    engine
}

/// One workload's sweep results.
#[derive(Debug, Clone)]
pub struct ZooRow {
    /// Family name (`flowtrace::zoo` naming).
    pub workload: String,
    /// `realistic` or `adversarial`.
    pub kind: &'static str,
    /// Realized flow count.
    pub flows: usize,
    /// Realized packet count.
    pub packets: usize,
    /// Sequential-ingest cache hit rate.
    pub cache_hit_rate: f64,
    /// Average relative error over all flows (sequential, CSM).
    pub are_all: f64,
    /// ARE over flows ≥ 20× the realized mean (`None` when the family
    /// has no such flows — e.g. flat/KV shapes).
    pub are_large: Option<f64>,
    /// ARE over all flows after 2-shard concurrent ingest.
    pub are_concurrent: f64,
    /// Fraction of online-pass SRAM counters pinned at the clamp.
    pub saturated_fraction: f64,
    /// Online ingest loss `(dropped + quarantined) / offered`.
    pub loss_fraction: f64,
    /// Mean [`caesar::QueryHealth`] confidence over the sampled flows.
    pub mean_confidence: f64,
    /// Fraction of sampled queries flagged degraded.
    pub degraded_fraction: f64,
}

/// Results of the full per-workload sweep.
#[derive(Debug, Clone)]
pub struct ZooSweep {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// One row per zoo family.
    pub rows: Vec<ZooRow>,
}

fn score_series(series: &ScatterSeries) -> f64 {
    series.report().avg_relative_error
}

fn score_concurrent(
    sketch: &ConcurrentCaesar,
    truth: &HashMap<FlowId, u64>,
) -> ScatterSeries {
    let mut pairs: Vec<(FlowId, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable();
    let mut series = ScatterSeries::new();
    for (flow, x) in pairs {
        series.push(x, sketch.estimate(flow, Estimator::Csm).clamped());
    }
    series
}

/// Flows to health-query: the largest `HEALTH_SAMPLE` flows (size
/// descending, flow id as tiebreak — deterministic, and guaranteed to
/// include the elephant-class flows whose health matters most).
fn health_sample(truth: &HashMap<FlowId, u64>) -> Vec<FlowId> {
    let mut pairs: Vec<(u64, FlowId)> = truth.iter().map(|(&f, &x)| (x, f)).collect();
    pairs.sort_unstable_by(|a, b| b.cmp(a));
    pairs.into_iter().take(HEALTH_SAMPLE).map(|(_, f)| f).collect()
}

fn run_one(w: &dyn WorkloadGen, seed: u64) -> ZooRow {
    let (trace, truth) = w.generate(seed);
    let cfg = zoo_config(&trace);
    let mean = trace.num_packets().max(1) as f64 / trace.num_flows.max(1) as f64;

    // Sequential pass: hit rate + accuracy.
    let mut sketch = Caesar::new(cfg);
    for p in &trace.packets {
        sketch.record(p.flow);
    }
    sketch.finish();
    let series = crate::runner::score_caesar(&sketch, &truth, Estimator::Csm);
    let large_threshold = (20.0 * mean).ceil() as u64;
    let are_large = are_over_threshold(series.points(), large_threshold).map(|(_, are)| are);

    // Concurrent pass: 2-shard construction, same accuracy metric.
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    let concurrent = ConcurrentCaesar::build(cfg, CONCURRENT_SHARDS, &flows);
    let are_concurrent = score_series(&score_concurrent(&concurrent, &truth));

    // Online stress pass under the family's plan.
    let plan = stress_plan(w.name());
    let mut engine = online_engine(cfg, &plan, ONLINE_SHARDS);
    for chunk in flows.chunks(ONLINE_CHUNK) {
        engine.offer_batch(chunk);
        let s = engine.stats();
        assert_eq!(
            s.offered,
            s.recorded + s.dropped + s.quarantined + s.in_flight,
            "{}: online mass accounting must stay exact",
            w.name()
        );
    }
    engine.merge_now();
    let stats = engine.stats();
    let loss_fraction = if stats.offered == 0 {
        0.0
    } else {
        (stats.dropped + stats.quarantined) as f64 / stats.offered as f64
    };
    let saturated_fraction = engine.sram().saturated_fraction();
    let mut health = HealthTally::new();
    for flow in health_sample(&truth) {
        let h = engine.query_health(flow);
        health.push(h.is_degraded(), h.confidence);
    }

    ZooRow {
        workload: w.name().to_string(),
        kind: w.kind().name(),
        flows: trace.num_flows,
        packets: trace.num_packets(),
        cache_hit_rate: sketch.stats().cache.hit_rate(),
        are_all: score_series(&series),
        are_large,
        are_concurrent,
        saturated_fraction,
        loss_fraction,
        mean_confidence: health.mean_confidence(),
        degraded_fraction: health.degraded_fraction(),
    }
}

/// Run the sweep over every family of the standard zoo at `scale`.
pub fn run(scale: Scale) -> ZooSweep {
    // Quarter of the synth trace's flow count: the zoo runs 8 families
    // × 3 ingest paths per sweep, and several families multiply `q`
    // (4q mice, 14q elephant packets), so the per-family scale is kept
    // smaller than the single-trace figures at the same `Scale`.
    let q = (PAPER_FLOWS as f64 * scale.fraction() * 0.25).round() as usize;
    let zoo = standard_zoo(q).expect("standard zoo parameters are valid");
    let rows = zoo.iter().map(|w| run_one(w.as_ref(), ZOO_SEED)).collect();
    ZooSweep { scale, rows }
}

impl ZooSweep {
    /// Render the per-workload table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload", "kind", "flows", "packets", "hit rate", "ARE", "ARE large",
            "ARE 2-shard", "saturated", "loss", "confidence", "degraded",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.kind.to_string(),
                r.flows.to_string(),
                r.packets.to_string(),
                pct(r.cache_hit_rate),
                pct(r.are_all),
                r.are_large.map_or_else(|| "-".to_string(), pct),
                pct(r.are_concurrent),
                pct(r.saturated_fraction),
                pct(r.loss_fraction),
                f(r.mean_confidence),
                pct(r.degraded_fraction),
            ]);
        }
        format!(
            "Workload zoo sweep ({:?} scale): sequential / 2-shard / {}-shard online ingest\n{}",
            self.scale,
            ONLINE_SHARDS,
            t.render()
        )
    }

    /// CSV + JSON artifacts.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut csv = Csv::new(&[
            "workload", "kind", "flows", "packets", "cache_hit_rate", "are_all", "are_large",
            "are_concurrent", "saturated_fraction", "loss_fraction", "mean_confidence",
            "degraded_fraction",
        ]);
        for r in &self.rows {
            csv.row(&[
                r.workload.clone(),
                r.kind.to_string(),
                r.flows.to_string(),
                r.packets.to_string(),
                f(r.cache_hit_rate),
                f(r.are_all),
                r.are_large.map_or_else(|| "nan".to_string(), f),
                f(r.are_concurrent),
                f(r.saturated_fraction),
                f(r.loss_fraction),
                f(r.mean_confidence),
                f(r.degraded_fraction),
            ]);
        }
        vec![
            ("zoo_sweep.csv".to_string(), csv.to_string()),
            ("zoo_sweep.json".to_string(), self.to_json_string()),
        ]
    }
}

impl ToJson for ZooRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.clone())),
            ("kind", Json::from(self.kind)),
            ("flows", Json::from(self.flows)),
            ("packets", Json::from(self.packets)),
            ("cache_hit_rate", Json::from(self.cache_hit_rate)),
            ("are_all", Json::from(self.are_all)),
            (
                "are_large",
                self.are_large.map_or(Json::Null, Json::from),
            ),
            ("are_concurrent", Json::from(self.are_concurrent)),
            ("saturated_fraction", Json::from(self.saturated_fraction)),
            ("loss_fraction", Json::from(self.loss_fraction)),
            ("mean_confidence", Json::from(self.mean_confidence)),
            ("degraded_fraction", Json::from(self.degraded_fraction)),
        ])
    }
}

impl ToJson for ZooSweep {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scale", Json::from(format!("{:?}", self.scale))),
            (
                "rows",
                Json::from(self.rows.iter().map(ToJson::to_json).collect::<Vec<_>>()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(sweep: &'a ZooSweep, name: &str) -> &'a ZooRow {
        sweep
            .rows
            .iter()
            .find(|r| r.workload == name)
            .unwrap_or_else(|| panic!("missing row {name}"))
    }

    #[test]
    fn sweep_covers_every_family_with_contrasting_stress() {
        let sweep = run(Scale::Tiny);
        let names: Vec<&str> = sweep.rows.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(
            names,
            [
                "cdn",
                "kv",
                "flat",
                "bursty",
                "mouse_flood",
                "single_elephant",
                "flow_churn",
                "caida_fit"
            ]
        );

        // The cache-friendly CDN shape must beat the cache-thrashing
        // mouse flood on hit rate by a wide margin.
        assert!(
            row(&sweep, "cdn").cache_hit_rate > row(&sweep, "mouse_flood").cache_hit_rate + 0.3,
            "cdn {} vs mouse {}",
            row(&sweep, "cdn").cache_hit_rate,
            row(&sweep, "mouse_flood").cache_hit_rate
        );

        // The stalled-lane plan sheds packets; the elephant plan pins
        // counters; clean realistic runs lose nothing.
        assert!(row(&sweep, "mouse_flood").loss_fraction > 0.0);
        assert!(row(&sweep, "single_elephant").saturated_fraction > 0.0);
        assert!(row(&sweep, "flow_churn").loss_fraction > 0.0, "quarantined packets count");
        for name in ["cdn", "kv", "flat", "bursty", "caida_fit"] {
            let r = row(&sweep, name);
            assert_eq!(r.loss_fraction, 0.0, "{name}: clean plan must be lossless");
            assert!(r.are_all.is_finite() && r.are_all >= 0.0);
        }

        // Degraded workloads must report reduced confidence.
        assert!(row(&sweep, "mouse_flood").mean_confidence < 0.999);
        assert!(row(&sweep, "single_elephant").degraded_fraction > 0.0);
    }

    #[test]
    fn artifacts_are_well_formed() {
        let sweep = run(Scale::Tiny);
        let artifacts = sweep.to_csv();
        assert_eq!(artifacts.len(), 2);
        let (csv_name, csv) = &artifacts[0];
        assert_eq!(csv_name, "zoo_sweep.csv");
        assert_eq!(csv.lines().count(), 1 + sweep.rows.len());
        let (json_name, json) = &artifacts[1];
        assert_eq!(json_name, "zoo_sweep.json");
        let parsed = support::json::parse(json).expect("sweep JSON must parse");
        let rows = parsed.get("rows").expect("sweep JSON carries rows");
        match rows {
            Json::Arr(items) => assert_eq!(items.len(), sweep.rows.len()),
            other => panic!("expected array, got {other:?}"),
        }
        assert!(!sweep.render().is_empty());
    }

    #[test]
    fn stress_plans_differ_where_it_matters() {
        assert_eq!(stress_plan("cdn").events.len(), 0);
        assert_eq!(stress_plan("mouse_flood").policy, BackpressurePolicy::DropNewest);
        assert_eq!(stress_plan("single_elephant").counter_bits, 10);
        assert_eq!(stress_plan("flow_churn").events.len(), 3);
    }
}
