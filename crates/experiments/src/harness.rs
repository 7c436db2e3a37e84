//! A uniform interface over every measurement scheme in the workspace,
//! and the grand comparison it enables.
//!
//! Each scheme crate keeps its own idiomatic API (they differ in
//! essentials: RCS loses packets, braids decode in bulk, samplers keep
//! tables); [`FlowSketch`] is the *evaluation* interface that lets one
//! harness drive them all over the same trace and produce the unified
//! table `caesar-experiments compare` prints — every §2/§6 scheme, one
//! workload, memory / accuracy / access-cost side by side.

use crate::report::{f, pct, Csv, TextTable};
use crate::runner::{caesar_config, trace_for};
use crate::scale::{Scale, LARGE_FLOW_THRESHOLD};
use baselines::{
    BraidsConfig, Case, CaseConfig, CounterBraids, LossModel, Rcs, RcsConfig, SampledCounter,
    SamplingConfig, Vhc, VhcConfig,
};
use caesar::{Caesar, CaesarConfig, Estimator, SketchRead};
use hashkit::IdHashMap;
use metrics::{are_over_threshold, AccuracyReport, ScatterPoint};

/// A per-flow measurement scheme under evaluation.
pub trait FlowSketch {
    /// Display name.
    fn name(&self) -> String;
    /// Process one packet.
    fn record(&mut self, flow: u64);
    /// End of measurement (dump caches, etc.). Default: nothing.
    fn finish(&mut self) {}
    /// Optional bulk-decode pass over the candidate flows (Counter
    /// Braids needs one; everything else ignores it).
    fn prepare(&mut self, _candidates: &[u64]) {}
    /// Estimated size of `flow`.
    fn query(&self, flow: u64) -> f64;
    /// Memory footprint in bits (on-chip + off-chip state).
    fn memory_bits(&self) -> u64;
    /// Off-chip accesses performed during construction.
    fn offchip_accesses(&self) -> u64;
}

// --- Adapters -----------------------------------------------------------

/// CAESAR behind the trait.
pub struct CaesarSketch(pub Caesar);

impl FlowSketch for CaesarSketch {
    fn name(&self) -> String {
        "CAESAR (CSM)".into()
    }
    fn record(&mut self, flow: u64) {
        self.0.record(flow);
    }
    fn finish(&mut self) {
        self.0.finish();
    }
    fn query(&self, flow: u64) -> f64 {
        self.0.estimate(flow, Estimator::Csm).clamped()
    }
    fn memory_bits(&self) -> u64 {
        let cfg = self.0.config();
        cfg.counters as u64 * cfg.counter_bits as u64
            + (cfg.cache_kb(32) * 8.0 * 1024.0) as u64
    }
    fn offchip_accesses(&self) -> u64 {
        self.0.stats().sram_writes * 2
    }
}

/// RCS behind the trait.
pub struct RcsSketch(pub Rcs);

impl FlowSketch for RcsSketch {
    fn name(&self) -> String {
        match self.0.config().loss {
            LossModel::Lossless => "RCS (lossless)".into(),
            LossModel::Uniform(p) => format!("RCS (loss {p:.2})"),
            LossModel::Queue(_) => "RCS (queue loss)".into(),
        }
    }
    fn record(&mut self, flow: u64) {
        self.0.record(flow);
    }
    fn query(&self, flow: u64) -> f64 {
        self.0.query(flow)
    }
    fn memory_bits(&self) -> u64 {
        self.0.config().counters as u64 * 32
    }
    fn offchip_accesses(&self) -> u64 {
        self.0.stats().sram_accesses * 2
    }
}

/// CASE behind the trait.
pub struct CaseSketch(pub Case);

impl FlowSketch for CaseSketch {
    fn name(&self) -> String {
        format!("CASE ({} bit/flow)", self.0.config().counter_bits)
    }
    fn record(&mut self, flow: u64) {
        self.0.record(flow);
    }
    fn finish(&mut self) {
        self.0.finish();
    }
    fn query(&self, flow: u64) -> f64 {
        self.0.query(flow)
    }
    fn memory_bits(&self) -> u64 {
        let cfg = self.0.config();
        cfg.counters as u64 * cfg.counter_bits as u64
    }
    fn offchip_accesses(&self) -> u64 {
        self.0.stats().sram_accesses
    }
}

/// VHC behind the trait (caches the pool estimate at finish time).
pub struct VhcSketch {
    inner: Vhc,
    total: f64,
}

impl VhcSketch {
    /// Wrap a VHC instance.
    pub fn new(inner: Vhc) -> Self {
        Self { inner, total: 0.0 }
    }
}

impl FlowSketch for VhcSketch {
    fn name(&self) -> String {
        format!("VHC (s={})", self.inner.config().virtual_registers)
    }
    fn record(&mut self, flow: u64) {
        self.inner.record(flow);
    }
    fn finish(&mut self) {
        self.total = self.inner.total_estimate();
    }
    fn query(&self, flow: u64) -> f64 {
        self.inner.query_with_total(flow, self.total)
    }
    fn memory_bits(&self) -> u64 {
        self.inner.config().memory_bits()
    }
    fn offchip_accesses(&self) -> u64 {
        self.inner.packets()
    }
}

/// The NetFlow-style sampler behind the trait.
pub struct SamplingSketch(pub SampledCounter);

impl FlowSketch for SamplingSketch {
    fn name(&self) -> String {
        format!("sampling (p={})", self.0.config().rate)
    }
    fn record(&mut self, flow: u64) {
        self.0.record(flow);
    }
    fn query(&self, flow: u64) -> f64 {
        self.0.query(flow)
    }
    fn memory_bits(&self) -> u64 {
        self.0.memory_bytes() as u64 * 8
    }
    fn offchip_accesses(&self) -> u64 {
        self.0.stats().sampled
    }
}

/// Counter Braids behind the trait: `prepare` runs the min-sum decode
/// over the candidate flows and caches the results.
pub struct BraidsSketch {
    inner: CounterBraids,
    decoded: IdHashMap<f64>,
}

impl BraidsSketch {
    /// Wrap a braid.
    pub fn new(inner: CounterBraids) -> Self {
        Self { inner, decoded: IdHashMap::default() }
    }
}

impl FlowSketch for BraidsSketch {
    fn name(&self) -> String {
        "Counter Braids".into()
    }
    fn record(&mut self, flow: u64) {
        self.inner.record(flow);
    }
    fn prepare(&mut self, candidates: &[u64]) {
        let est = self.inner.decode(candidates, 60);
        self.decoded = candidates.iter().copied().zip(est).collect();
    }
    fn query(&self, flow: u64) -> f64 {
        self.decoded.get(&flow).copied().unwrap_or(0.0)
    }
    fn memory_bits(&self) -> u64 {
        self.inner.config().memory_bits()
    }
    fn offchip_accesses(&self) -> u64 {
        self.inner.stats().accesses
    }
}

// --- The grand comparison ------------------------------------------------

/// One scheme's scored row.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Scheme name.
    pub scheme: String,
    /// Memory in KB.
    pub memory_kb: f64,
    /// ARE over all flows.
    pub are_all: f64,
    /// ARE over flows ≥ the large-flow cutoff.
    pub are_large: f64,
    /// Off-chip accesses per packet.
    pub offchip_per_packet: f64,
}

/// The unified table.
#[derive(Debug, Clone)]
pub struct CompareResult {
    /// One row per scheme.
    pub rows: Vec<CompareRow>,
}

/// Drive a sketch over the trace and score it.
pub fn evaluate(
    sketch: &mut dyn FlowSketch,
    trace: &flowtrace::Trace,
    truth: &std::collections::HashMap<u64, u64>,
) -> CompareRow {
    for p in &trace.packets {
        sketch.record(p.flow);
    }
    sketch.finish();
    let mut pairs: Vec<(u64, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable();
    let candidates: Vec<u64> = pairs.iter().map(|&(f, _)| f).collect();
    sketch.prepare(&candidates);
    let points: Vec<ScatterPoint> = pairs
        .iter()
        .map(|&(f, x)| ScatterPoint { actual: x, estimated: sketch.query(f) })
        .collect();
    CompareRow {
        scheme: sketch.name(),
        memory_kb: sketch.memory_bits() as f64 / 8192.0,
        are_all: AccuracyReport::from_points(&points).avg_relative_error,
        are_large: are_over_threshold(&points, LARGE_FLOW_THRESHOLD)
            .map(|(_, a)| a)
            .unwrap_or(f64::NAN),
        offchip_per_packet: sketch.offchip_accesses() as f64 / trace.num_packets() as f64,
    }
}

/// Every scheme in the workspace on one trace at roughly CAESAR's
/// memory budget (braids additionally shown in its decodable regime).
pub fn compare_all(scale: Scale) -> CompareResult {
    let shared = trace_for(scale);
    let (trace, truth) = (&shared.0, &shared.1);
    let cfg: CaesarConfig = caesar_config(scale);
    let budget_bits = cfg.counters as u64 * cfg.counter_bits as u64;
    let q = truth.len();

    let mut sketches: Vec<Box<dyn FlowSketch>> = vec![
        Box::new(CaesarSketch(Caesar::new(cfg))),
        Box::new(RcsSketch(Rcs::new(RcsConfig {
            counters: cfg.counters,
            k: cfg.k,
            loss: LossModel::Lossless,
            seed: 0xC01,
        }))),
        Box::new(RcsSketch(Rcs::new(RcsConfig {
            counters: cfg.counters,
            k: cfg.k,
            loss: LossModel::Uniform(2.0 / 3.0),
            seed: 0xC02,
        }))),
        Box::new(CaseSketch(Case::new(CaseConfig {
            counters: q,
            counter_bits: ((budget_bits / q as u64).max(1) as u32).min(32),
            max_expected_flow: trace.num_packets() as f64,
            cache_entries: scale.cache_entries(),
            entry_capacity: cfg.entry_capacity,
            ..CaseConfig::default()
        }))),
        Box::new(VhcSketch::new(Vhc::new(VhcConfig {
            registers: ((budget_bits / 5) as usize).max(512),
            virtual_registers: 256,
            seed: 0xC03,
        }))),
        Box::new(SamplingSketch(SampledCounter::new(SamplingConfig {
            rate: 0.01,
            max_entries: (budget_bits / 96) as usize, // 12-byte records
            seed: 0xC04,
        }))),
        Box::new(BraidsSketch::new(CounterBraids::new(BraidsConfig {
            layer1_counters: ((budget_bits as f64 * 0.8 / 8.0) as usize).max(4),
            layer2_counters: ((budget_bits as f64 * 0.2 / 56.0) as usize).max(2),
            ..BraidsConfig::default()
        }))),
    ];

    let rows = sketches
        .iter_mut()
        .map(|s| evaluate(s.as_mut(), trace, truth))
        .collect();
    CompareResult { rows }
}

impl CompareResult {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "scheme".to_string(),
            "memory KB".to_string(),
            format!("ARE (x>={LARGE_FLOW_THRESHOLD})"),
            "ARE (all)".to_string(),
            "off-chip accesses/pkt".to_string(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.scheme.clone(),
                f(r.memory_kb),
                pct(r.are_large),
                pct(r.are_all),
                f(r.offchip_per_packet),
            ]);
        }
        format!(
            "Grand comparison — every scheme, one trace, ≈ equal memory\n{}",
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&[
            "scheme",
            "memory_kb",
            "are_large",
            "are_all",
            "offchip_per_packet",
        ]);
        for r in &self.rows {
            c.row(&[
                r.scheme.clone(),
                format!("{:.2}", r.memory_kb),
                format!("{:.4}", r.are_large),
                format!("{:.4}", r.are_all),
                format!("{:.4}", r.offchip_per_packet),
            ]);
        }
        vec![("compare_all.csv".into(), c.to_string())]
    }

    /// Find a row by scheme-name prefix.
    pub fn row(&self, prefix: &str) -> Option<&CompareRow> {
        self.rows.iter().find(|r| r.scheme.starts_with(prefix))
    }

    /// SVG rendering: large-flow ARE and off-chip access-rate bars.
    pub fn to_svg(&self) -> Vec<(String, String)> {
        use crate::plot::BarChart;
        let mut are = BarChart::new(
            "Grand comparison — large-flow ARE (log scale)",
            "average relative error",
        )
        .log_y();
        let mut acc = BarChart::new(
            "Grand comparison — off-chip accesses per packet",
            "accesses / packet",
        );
        for r in &self.rows {
            let short: String = r.scheme.chars().take_while(|&c| c != '(').collect();
            are = are.bar(short.trim(), r.are_large.max(1e-4));
            acc = acc.bar(short.trim(), r.offchip_per_packet);
        }
        vec![
            ("compare_are.svg".into(), are.render_svg()),
            ("compare_accesses.svg".into(), acc.render_svg()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_produce_finite_rows() {
        let r = compare_all(Scale::Tiny);
        assert_eq!(r.rows.len(), 7);
        for row in &r.rows {
            assert!(row.memory_kb > 0.0, "{row:?}");
            assert!(row.are_large.is_finite(), "{row:?}");
            assert!(row.offchip_per_packet >= 0.0, "{row:?}");
        }
    }

    #[test]
    fn caesar_has_lowest_offchip_rate_of_accurate_schemes() {
        let r = compare_all(Scale::Tiny);
        let caesar = r.row("CAESAR").expect("row");
        let rcs = r.row("RCS (lossless)").expect("row");
        let braids = r.row("Counter Braids").expect("row");
        assert!(caesar.offchip_per_packet < rcs.offchip_per_packet);
        assert!(caesar.offchip_per_packet < braids.offchip_per_packet);
    }

    #[test]
    fn caesar_beats_lossy_rcs_and_case_on_large_flows() {
        let r = compare_all(Scale::Tiny);
        let caesar = r.row("CAESAR").expect("row");
        let lossy = r.row("RCS (loss 0").expect("row");
        let case = r.row("CASE").expect("row");
        assert!(caesar.are_large < lossy.are_large, "{}", r.render());
        assert!(caesar.are_large < case.are_large, "{}", r.render());
    }

    #[test]
    fn render_lists_every_scheme() {
        let r = compare_all(Scale::Tiny);
        let s = r.render();
        for name in ["CAESAR", "RCS", "CASE", "VHC", "sampling", "Counter Braids"] {
            assert!(s.contains(name), "missing {name}:\n{s}");
        }
    }
}
