//! Per-node vs merged cluster-view accuracy over the workload zoo.
//!
//! Emulates the deployment the `service` crate exists for: each zoo
//! family's packet stream is striped across [`CLUSTER_NODES`]
//! measurement taps (round-robin — every tap sees an unbiased slice of
//! every flow), each tap builds its own [`caesar::ConcurrentCaesar`]
//! sketch, exports its [`caesar::SketchPayload`], and pushes it to a
//! [`service::MeasurementService`] aggregator through the full wire
//! codec. Per workload the sweep reports:
//!
//! * **ARE single / ARE merged** — accuracy of the whole-stream sketch
//!   vs the merged cluster view queried through the service client;
//! * **bias per node / bias merged** — mass-weighted signed relative
//!   error `Σ(x̂ − x) / Σx` on *raw* (unclamped) estimates: the
//!   statistic that separates *missing traffic* from *sharing noise*.
//!   Counter-sharing noise is near-zero-mean and largely averages out
//!   of the bias over the sampled flows; a tap that saw only `1/N` of
//!   the stream cannot average its way out of a `≈ −(1 − 1/N)` bias.
//!
//! The sweep runs **two measurement intervals** per family. Interval 1
//! ingests the head of every stripe and full-pushes each tap's
//! payload. Interval 2 ingests the tail (the final `1/DELTA_TAIL` of
//! each stripe), diffs each tap's cumulative sketch against its
//! already-acked payload with [`caesar::SketchDelta`], and ships only
//! the changed counter blocks via `PushDelta`. Both wire costs are
//! *measured* — they come back in the service's `PushAck` (`bytes` =
//! decoded payload size) — and reported per family as **full B /
//! delta B**. Expect delta ≈ full here: the zoo geometry sizes `L`
//! to the flow count, so even a tail interval dirties every block —
//! this sweep charts the delta's *worst case* (bounded at full plus
//! block-index overhead). The regime where deltas win outright —
//! large provisioned `L`, few flows active between pushes — is
//! priced by the `service_delta` and `checkpoint` bench groups.
//!
//! All statistics are scored over the [`TOP_FLOWS`] largest flows (the
//! flows measurement exists for). The headline: the merged view tracks
//! the single-box sketch (linearity of the shared-counter SRAM) and
//! recovers the mass every single tap is missing — the quantitative
//! justification for the push/merge service. (Per-flow ARE does *not*
//! tell this story at small scales: a lone tap carries `1/N` of the
//! sharing mass, so its noise is smaller and its ARE can *beat* the
//! merged view even though every large flow is under-counted `N×`.)

use crate::report::{f, pct, Csv, TextTable};
use crate::scale::{Scale, PAPER_FLOWS};
use crate::zoo::zoo_config;
use caesar::{ConcurrentCaesar, Estimator, SketchDelta, SketchRead};
use flowtrace::zoo::{standard_zoo, WorkloadGen, ZOO_SEED};
use flowtrace::FlowId;
use metrics::ScatterSeries;
use service::{DeltaPush, InProcess, MeasurementClient, MeasurementService};
use std::collections::HashMap;
use support::json::{Json, ToJson};

/// Measurement taps the stream is striped across.
pub const CLUSTER_NODES: usize = 3;
/// Shards inside each tap's concurrent builder.
const NODE_SHARDS: usize = 2;
/// Flows per service query frame (exercises multi-frame batching).
const QUERY_BATCH: usize = 24;
/// Largest-flows sample the AREs are scored over.
pub const TOP_FLOWS: usize = 64;
/// The final `1/DELTA_TAIL` of every stripe is the second measurement
/// interval, shipped as a block-sparse delta push instead of a full
/// payload.
const DELTA_TAIL: usize = 10;

/// One workload's cluster-view results.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// Family name (`flowtrace::zoo` naming).
    pub workload: String,
    /// `realistic` or `adversarial`.
    pub kind: &'static str,
    /// Realized flow count.
    pub flows: usize,
    /// Realized packet count.
    pub packets: usize,
    /// ARE of one sketch over the whole stream ([`TOP_FLOWS`] flows).
    pub are_single: f64,
    /// ARE of the merged cluster view, queried through the service
    /// ([`TOP_FLOWS`] flows).
    pub are_merged: f64,
    /// Mean (over taps) mass-weighted signed relative error
    /// `Σ(x̂ − x) / Σx` of querying a single tap alone; ≈ `−(1 − 1/N)`
    /// because each tap saw only its stripe.
    pub bias_node_mean: f64,
    /// Mass-weighted signed relative error of the merged view — no
    /// traffic is missing, so only residual sharing noise remains.
    pub bias_merged: f64,
    /// Epoch the merged answers were served at (= one full push plus
    /// one delta push per tap).
    pub epoch: u64,
    /// Mean service-side query-health confidence over sampled flows.
    pub mean_confidence: f64,
    /// Measured wire bytes of the interval-1 full pushes, summed over
    /// taps (from the service's `PushAck`).
    pub bytes_full: u64,
    /// Measured wire bytes of the interval-2 delta pushes, summed over
    /// taps (from the service's `PushAck`).
    pub bytes_delta: u64,
}

/// Results of the cluster-view sweep.
#[derive(Debug, Clone)]
pub struct ClusterSweep {
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// One row per zoo family.
    pub rows: Vec<ClusterRow>,
}

/// ARE plus the mass-weighted signed relative error (`Σ(x̂ − x) / Σx`).
///
/// ARE is scored on clamped estimates (physical sizes); the bias is
/// scored on *raw* estimates so that zero-mean sharing noise cancels
/// instead of being rectified by the clamp at zero — only genuinely
/// missing traffic (a tap that never saw it) survives into the bias.
#[derive(Debug, Clone, Copy)]
struct Score {
    are: f64,
    bias: f64,
}

/// `pairs` is `(true size, raw unclamped estimate)`.
fn score(pairs: impl IntoIterator<Item = (u64, f64)>) -> Score {
    let mut series = ScatterSeries::new();
    let (mut est_sum, mut truth_sum) = (0.0f64, 0.0f64);
    for (x, raw) in pairs {
        series.push(x, raw.max(0.0));
        est_sum += raw;
        truth_sum += x as f64;
    }
    Score {
        are: series.report().avg_relative_error,
        bias: (est_sum - truth_sum) / truth_sum.max(1.0),
    }
}

fn score_sketch(sketch: &ConcurrentCaesar, truth: &[(FlowId, u64)]) -> Score {
    score(truth.iter().map(|&(flow, x)| (x, sketch.estimate(flow, Estimator::Csm).value)))
}

/// The [`TOP_FLOWS`] largest flows (size descending, flow id as a
/// deterministic tiebreak).
fn top_flows(truth: &HashMap<FlowId, u64>) -> Vec<(FlowId, u64)> {
    let mut pairs: Vec<(u64, FlowId)> = truth.iter().map(|(&f, &x)| (x, f)).collect();
    pairs.sort_unstable_by(|a, b| b.cmp(a));
    pairs.into_iter().take(TOP_FLOWS).map(|(x, f)| (f, x)).collect()
}

fn run_one(w: &dyn WorkloadGen, seed: u64) -> ClusterRow {
    let (trace, truth) = w.generate(seed);
    let cfg = zoo_config(&trace);
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    let truth = top_flows(&truth);

    // The accuracy ceiling: one box, whole stream.
    let single = ConcurrentCaesar::build(cfg, NODE_SHARDS, &flows);
    let single_score = score_sketch(&single, &truth);

    // Stripe the stream across the taps (round-robin: every tap sees
    // ~1/N of every flow, the uniform-tap-load case).
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); CLUSTER_NODES];
    for (i, &flow) in flows.iter().enumerate() {
        slices[i % CLUSTER_NODES].push(flow);
    }
    // Interval 1: each tap sketches the head of its stripe and
    // full-pushes the payload through the service codec. Interval 2:
    // each tap ingests its stripe's low-churn tail, diffs its
    // cumulative sketch against the already-acked payload, and ships
    // only the changed counter blocks. Both wire costs come back
    // measured in the ack.
    let svc = MeasurementService::new(cfg);
    let mut client = MeasurementClient::connect(InProcess::new(&svc), &single.fingerprint())
        .expect("same fleet config");
    let mut taps: Vec<ConcurrentCaesar> = Vec::with_capacity(CLUSTER_NODES);
    let mut acked: Vec<caesar::SketchPayload> = Vec::with_capacity(CLUSTER_NODES);
    let mut epoch = 0;
    let (mut bytes_full, mut bytes_delta) = (0u64, 0u64);
    for slice in &slices {
        let head = slice.len() - slice.len() / DELTA_TAIL;
        let tap = ConcurrentCaesar::build(cfg, NODE_SHARDS, &slice[..head]);
        let payload = tap.export_sketch();
        let receipt = client.push_sketch(&payload).expect("compatible sketch");
        epoch = receipt.epoch;
        bytes_full += receipt.bytes;
        taps.push(tap);
        acked.push(payload);
    }
    for (i, slice) in slices.iter().enumerate() {
        let head = slice.len() - slice.len() / DELTA_TAIL;
        taps[i]
            .merge(&ConcurrentCaesar::build(cfg, NODE_SHARDS, &slice[head..]))
            .expect("same fleet config");
        let delta = SketchDelta::between(&acked[i], &taps[i].export_sketch(), epoch)
            .expect("cumulative sketch extends the acked payload");
        match client.push_delta(&delta).expect("delta push") {
            DeltaPush::Accepted(receipt) => {
                epoch = receipt.epoch;
                bytes_delta += receipt.bytes;
            }
            DeltaPush::Stale { .. } => unreachable!("one client, no concurrent pushers"),
        }
    }
    // Nothing lost in transit: the merged view accounts for exactly
    // the packets the taps ingested across both intervals.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.total_added as usize, flows.len(), "delta pushes must conserve mass");
    let bias_node_mean =
        taps.iter().map(|n| score_sketch(n, &truth).bias).sum::<f64>() / taps.len() as f64;
    // ARE from the batch Query endpoint (clamped physical sizes);
    // bias + confidence from the QueryHealth endpoint, whose reports
    // carry the raw unclamped estimate.
    let mut series = ScatterSeries::new();
    let flow_ids: Vec<u64> = truth.iter().map(|&(f, _)| f).collect();
    for (batch, batch_truth) in flow_ids.chunks(QUERY_BATCH).zip(truth.chunks(QUERY_BATCH)) {
        let (_, values) = client.query(batch).expect("query");
        for (&(_, x), est) in batch_truth.iter().zip(&values) {
            series.push(x, *est);
        }
    }
    let mut confidence_sum = 0.0;
    let mut raw_sum = 0.0;
    let mut sampled = 0usize;
    for &flow in &flow_ids {
        let (_, health) = client.query_health(flow).expect("health");
        confidence_sum += health.confidence;
        raw_sum += health.estimate;
        sampled += 1;
    }
    let truth_mass: f64 = truth.iter().map(|&(_, x)| x as f64).sum();
    let bias_merged = (raw_sum - truth_mass) / truth_mass.max(1.0);

    ClusterRow {
        workload: w.name().to_string(),
        kind: w.kind().name(),
        flows: trace.num_flows,
        packets: trace.num_packets(),
        are_single: single_score.are,
        are_merged: series.report().avg_relative_error,
        bias_node_mean,
        bias_merged,
        epoch,
        mean_confidence: confidence_sum / sampled.max(1) as f64,
        bytes_full,
        bytes_delta,
    }
}

/// Run the cluster-view sweep over every family of the standard zoo.
pub fn run(scale: Scale) -> ClusterSweep {
    // Same per-family scale reasoning as the zoo sweep, with the
    // additional ×(CLUSTER_NODES + 1) sketch builds per family.
    let q = (PAPER_FLOWS as f64 * scale.fraction() * 0.25).round() as usize;
    let zoo = standard_zoo(q).expect("standard zoo parameters are valid");
    let rows = zoo.iter().map(|w| run_one(w.as_ref(), ZOO_SEED)).collect();
    ClusterSweep { scale, rows }
}

impl ClusterSweep {
    /// Render the per-workload table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload", "kind", "flows", "packets", "ARE single", "ARE merged",
            "bias per-node", "bias merged", "epoch", "confidence", "full B", "delta B", "delta/full",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.kind.to_string(),
                r.flows.to_string(),
                r.packets.to_string(),
                pct(r.are_single),
                pct(r.are_merged),
                pct(r.bias_node_mean),
                pct(r.bias_merged),
                r.epoch.to_string(),
                f(r.mean_confidence),
                r.bytes_full.to_string(),
                r.bytes_delta.to_string(),
                pct(r.bytes_delta as f64 / r.bytes_full.max(1) as f64),
            ]);
        }
        format!(
            "Cluster view ({:?} scale): {} taps, round-robin striping, merged via the service codec\n\
             (interval 1 full-pushed, interval 2 = final 1/{} of each stripe pushed as counter-block deltas)\n{}",
            self.scale,
            CLUSTER_NODES,
            DELTA_TAIL,
            t.render()
        )
    }

    /// CSV + JSON artifacts.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut csv = Csv::new(&[
            "workload", "kind", "flows", "packets", "are_single", "are_merged",
            "bias_node_mean", "bias_merged", "epoch", "mean_confidence",
            "bytes_full", "bytes_delta",
        ]);
        for r in &self.rows {
            csv.row(&[
                r.workload.clone(),
                r.kind.to_string(),
                r.flows.to_string(),
                r.packets.to_string(),
                f(r.are_single),
                f(r.are_merged),
                f(r.bias_node_mean),
                f(r.bias_merged),
                r.epoch.to_string(),
                f(r.mean_confidence),
                r.bytes_full.to_string(),
                r.bytes_delta.to_string(),
            ]);
        }
        vec![
            ("cluster_view.csv".to_string(), csv.to_string()),
            ("cluster_view.json".to_string(), self.to_json_string()),
        ]
    }
}

impl ToJson for ClusterRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.clone())),
            ("kind", Json::from(self.kind)),
            ("flows", Json::from(self.flows)),
            ("packets", Json::from(self.packets)),
            ("are_single", Json::from(self.are_single)),
            ("are_merged", Json::from(self.are_merged)),
            ("bias_node_mean", Json::from(self.bias_node_mean)),
            ("bias_merged", Json::from(self.bias_merged)),
            ("epoch", Json::from(self.epoch)),
            ("mean_confidence", Json::from(self.mean_confidence)),
            ("bytes_full", Json::from(self.bytes_full)),
            ("bytes_delta", Json::from(self.bytes_delta)),
        ])
    }
}

impl ToJson for ClusterSweep {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scale", Json::from(format!("{:?}", self.scale))),
            ("nodes", Json::from(CLUSTER_NODES)),
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

    #[test]
    fn merged_view_recovers_single_box_accuracy() {
        let sweep = run(Scale::Tiny);
        assert_eq!(sweep.rows.len(), 8, "every zoo family");
        for r in &sweep.rows {
            assert_eq!(
                r.epoch,
                2 * CLUSTER_NODES as u64,
                "{}: one full push plus one delta push per tap",
                r.workload
            );
            // Both wire costs were actually measured off PushAcks, and
            // the tail never costs more than re-shipping the whole
            // counter array would (worst case every block is dirty:
            // the full payload plus one block index per block — 1/64
            // of the counter bytes — plus fixed frame headers, which
            // at the zoo's small L approach 3% on their own). The zoo
            // geometry keeps every counter hot by design, so this
            // sweep measures the delta's worst case; the regime where
            // deltas win outright is priced by the "service_delta"
            // and "checkpoint" bench groups.
            assert!(r.bytes_full > 0 && r.bytes_delta > 0, "{}: acks carry bytes", r.workload);
            assert!(
                r.bytes_delta <= r.bytes_full + r.bytes_full / 16,
                "{}: delta pushes ({} B) must not exceed full pushes ({} B) plus block-index overhead",
                r.workload,
                r.bytes_delta,
                r.bytes_full
            );
            // A lone tap saw ~1/3 of the mass, so its estimates carry
            // an irreducible ≈ −2/3 bias (noise cannot hide it: bias
            // is mass-weighted and sharing noise is near-zero-mean).
            assert!(
                r.bias_node_mean < -0.25,
                "{}: per-node bias {} must reflect the missing 2/3 of traffic",
                r.workload,
                r.bias_node_mean
            );
            // Merging restores the missing mass: the merged bias moves
            // decisively back toward zero (residual sharing noise
            // keeps it from being exactly zero at Tiny scale).
            assert!(
                r.bias_merged > r.bias_node_mean + 0.25,
                "{}: merging must recover mass (merged {} vs per-node {})",
                r.workload,
                r.bias_merged,
                r.bias_node_mean
            );
            // Merging recovers the single-box accuracy regime: same
            // noise floor to within a factor (cache eviction timing
            // differs per tap, so not bit-equal).
            assert!(
                r.are_merged < r.are_single * 1.5 + 0.05 && r.are_merged > r.are_single * 0.5,
                "{}: merged ARE {} should track single-box ARE {}",
                r.workload,
                r.are_merged,
                r.are_single
            );
        }
    }

    #[test]
    fn artifacts_are_well_formed() {
        let sweep = run(Scale::Tiny);
        let artifacts = sweep.to_csv();
        assert_eq!(artifacts.len(), 2);
        let (csv_name, csv) = &artifacts[0];
        assert_eq!(csv_name, "cluster_view.csv");
        assert_eq!(csv.lines().count(), 1 + sweep.rows.len());
        let (_, json) = &artifacts[1];
        support::json::parse(json).expect("cluster JSON must parse");
        assert!(!sweep.render().is_empty());
    }
}
