//! Maximum sustainable line rate per scheme.
//!
//! The paper's FPGA prototype sustains 680.832 Mbps (§6.2) — a
//! property of their clock and bus, not of the schemes. The scheme-level
//! question an operator asks is: *at what packet rate does each design
//! start dropping or stalling?* This experiment answers it with the
//! event-driven pipeline model: binary-search the arrival spacing until
//! the run is (almost) stall-free, then convert to packets/second and
//! to Gbps at a 300-byte average packet.
//!
//! Expected shape: RCS saturates at the SRAM port rate divided by its
//! per-packet accesses; CASE at the cache rate minus its per-eviction
//! power ops; CAESAR at nearly the raw front-end rate because its
//! off-chip traffic is a trickle.

use crate::report::{f, Csv, TextTable};
use crate::runner::bursty_trace_for;
use crate::scale::{Scale, PAPER_MEAN_FLOW};
use cachesim::{CacheConfig, CacheTable};
use caesar::ConcurrentCaesar;
use memsim::{AccessCosts, PacketWork, Pipeline};
use std::time::Instant;

/// One scheme's saturation point.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Scheme label.
    pub scheme: String,
    /// Smallest sustainable arrival spacing (ns/packet).
    pub min_spacing_ns: f64,
    /// Corresponding packet rate (Mpps).
    pub mpps: f64,
    /// Line rate at 300-byte average packets (Gbps).
    pub gbps_at_300b: f64,
}

/// The throughput study.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Rows, CAESAR / CASE / RCS.
    pub rows: Vec<ThroughputRow>,
}

/// Find the smallest arrival spacing at which the pipeline keeps up
/// with the line — makespan within 0.5% of the pure arrival span — by
/// bisection over `[lo, hi]` ns. (A stall-only criterion would miss
/// front-end saturation: a compute-bound front end falls behind
/// without ever reporting a FIFO stall.)
fn saturation_spacing(work: &[PacketWork], mut lo: f64, mut hi: f64) -> f64 {
    let n = work.len() as f64;
    let sustainable = |spacing: f64| {
        let pl = Pipeline { arrival_ns: spacing, ..Pipeline::default() };
        let r = pl.run(work.iter().copied());
        let span = n * spacing;
        r.makespan_ns <= span * 1.005 + 1_000.0
    };
    // Ensure the bracket is valid.
    if sustainable(lo) {
        return lo;
    }
    while !sustainable(hi) {
        hi *= 2.0;
        assert!(hi < 1e6, "no sustainable rate found");
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if sustainable(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Run the study at the given scale.
pub fn run(scale: Scale) -> ThroughputResult {
    let shared = bursty_trace_for(scale);
    let trace = &shared.0;
    let n = trace.packets.len().min(200_000);
    let prefix = &trace.packets[..n];
    let costs = AccessCosts::default();
    let k = crate::runner::caesar_config(scale).k as u32;

    let mk_cache = || {
        CacheTable::new(CacheConfig::lru(
            scale.cache_entries(),
            (2.0 * PAPER_MEAN_FLOW).floor() as u64,
        ))
    };

    // Materialize each scheme's work stream once.
    let mut cache = mk_cache();
    let caesar_work: Vec<PacketWork> = prefix
        .iter()
        .map(|p| match cache.record(p.flow) {
            Some(_) => PacketWork { writebacks: k * 2, compute_ns: 0.0 },
            None => PacketWork::HIT,
        })
        .collect();
    let mut cache = mk_cache();
    let case_work: Vec<PacketWork> = prefix
        .iter()
        .map(|p| match cache.record(p.flow) {
            Some(_) => PacketWork { writebacks: 2, compute_ns: 2.0 * costs.pow_op_ns },
            None => PacketWork::HIT,
        })
        .collect();
    let rcs_work: Vec<PacketWork> =
        vec![PacketWork { writebacks: 2, compute_ns: 0.0 }; n];

    let mut rows = Vec::new();
    for (scheme, work) in [
        ("CAESAR", &caesar_work),
        ("CASE", &case_work),
        ("RCS", &rcs_work),
    ] {
        let spacing = saturation_spacing(work, 0.5, 64.0);
        let mpps = 1e3 / spacing;
        rows.push(ThroughputRow {
            scheme: scheme.into(),
            min_spacing_ns: spacing,
            mpps,
            gbps_at_300b: mpps * 300.0 * 8.0 / 1e3,
        });
    }
    ThroughputResult { rows }
}

impl ThroughputResult {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "scheme",
            "min spacing ns/pkt",
            "Mpps",
            "Gbps @ 300B pkts",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.scheme.clone(),
                f(r.min_spacing_ns),
                f(r.mpps),
                f(r.gbps_at_300b),
            ]);
        }
        format!(
            "Extension — maximum sustainable line rate (pipeline model)\n{}",
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&["scheme", "min_spacing_ns", "mpps", "gbps_at_300b"]);
        for r in &self.rows {
            c.row(&[
                r.scheme.clone(),
                format!("{:.3}", r.min_spacing_ns),
                format!("{:.3}", r.mpps),
                format!("{:.3}", r.gbps_at_300b),
            ]);
        }
        vec![("ext_throughput.csv".into(), c.to_string())]
    }

    /// Row lookup.
    pub fn row(&self, scheme: &str) -> Option<&ThroughputRow> {
        self.rows.iter().find(|r| r.scheme == scheme)
    }

    /// SVG rendering: sustainable packet rate per scheme.
    pub fn to_svg(&self) -> Vec<(String, String)> {
        use crate::plot::BarChart;
        let mut chart =
            BarChart::new("Maximum sustainable line rate", "Mpps");
        for r in &self.rows {
            chart = chart.bar(&r.scheme, r.mpps);
        }
        vec![("ext_throughput.svg".into(), chart.render_svg())]
    }
}

/// One measured construction run of the sharded CAESAR build.
#[derive(Debug, Clone)]
pub struct ConstructionRow {
    /// Ingest path: `partitioned` (O(n) single pass + batch writeback),
    /// `stream` (overlapped partition/consume over SPSC rings),
    /// `pinned` (explicit ring-fed worker-per-shard mode), or `replay`
    /// (the seed's O(T·n) scan-and-filter reference).
    pub path: String,
    /// Worker shards used.
    pub shards: usize,
    /// Wall-clock construction time (ms), median of the timed runs.
    pub ms: f64,
    /// Construction rate (Mpkt/s).
    pub mpps: f64,
}

/// Wall-clock construction-throughput study of the ingest pipeline:
/// the partitioned slice build versus the ring-fed stream build, per
/// shard count.
#[derive(Debug, Clone)]
pub struct ConstructionScaling {
    /// Measured rows.
    pub rows: Vec<ConstructionRow>,
    /// Packets per construction run.
    pub n_packets: usize,
}

fn median_ms(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Measure sharded construction wall-clock at `scale` for each shard
/// count (median of `samples` runs; the sketches are checked for
/// packet conservation on every run).
pub fn construction_scaling(
    scale: Scale,
    shard_counts: &[usize],
    samples: usize,
) -> ConstructionScaling {
    let shared = bursty_trace_for(scale);
    let trace = &shared.0;
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    let cfg = crate::runner::caesar_config(scale);
    let samples = samples.max(1);

    let mut rows = Vec::new();
    let mut timed = |path: &str, shards: usize, build: &dyn Fn() -> ConcurrentCaesar| {
        let times: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let sketch = build();
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                assert_eq!(sketch.sram().total_added() as usize, flows.len());
                ms
            })
            .collect();
        let ms = median_ms(times);
        rows.push(ConstructionRow {
            path: path.into(),
            shards,
            ms,
            mpps: flows.len() as f64 / ms / 1e3,
        });
    };
    for &shards in shard_counts {
        timed("partitioned", shards, &|| {
            ConcurrentCaesar::build(cfg, shards, &flows)
        });
        timed("stream", shards, &|| {
            ConcurrentCaesar::build_stream(cfg, shards, flows.iter().copied())
        });
    }
    ConstructionScaling { rows, n_packets: flows.len() }
}

impl ConstructionScaling {
    /// Row lookup by path and shard count.
    pub fn row(&self, path: &str, shards: usize) -> Option<&ConstructionRow> {
        self.rows.iter().find(|r| r.path == path && r.shards == shards)
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["path", "shards", "ms", "Mpkt/s"]);
        for r in &self.rows {
            t.row(vec![
                r.path.clone(),
                r.shards.to_string(),
                f(r.ms),
                f(r.mpps),
            ]);
        }
        format!(
            "Extension — sharded construction wall-clock ({} packets)\n{}",
            self.n_packets,
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&["path", "shards", "ms", "mpps"]);
        for r in &self.rows {
            c.row(&[
                r.path.clone(),
                r.shards.to_string(),
                format!("{:.3}", r.ms),
                format!("{:.3}", r.mpps),
            ]);
        }
        vec![("ext_construction_scaling.csv".into(), c.to_string())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caesar_sustains_the_highest_rate() {
        let r = run(Scale::Tiny);
        let caesar = r.row("CAESAR").expect("row");
        let case = r.row("CASE").expect("row");
        let rcs = r.row("RCS").expect("row");
        assert!(
            caesar.mpps > rcs.mpps,
            "CAESAR {} vs RCS {} Mpps",
            caesar.mpps,
            rcs.mpps
        );
        assert!(caesar.mpps > case.mpps);
        // RCS is port-bound: two 10 ns accesses per packet ⇒ ≤ 50 Mpps.
        assert!(
            (rcs.min_spacing_ns - 20.0).abs() < 1.0,
            "RCS spacing {}",
            rcs.min_spacing_ns
        );
    }

    #[test]
    fn rates_are_positive_and_finite() {
        let r = run(Scale::Tiny);
        for row in &r.rows {
            assert!(row.min_spacing_ns > 0.0);
            assert!(row.mpps.is_finite() && row.mpps > 0.0);
            assert!(row.gbps_at_300b > 0.0);
        }
    }

    #[test]
    fn render_nonempty() {
        let r = run(Scale::Tiny);
        assert!(r.render().contains("sustainable"));
        assert_eq!(r.to_csv().len(), 1);
    }

    #[test]
    fn construction_scaling_measures_every_path() {
        // Structural assertions only — wall-clock ordering is asserted
        // by the `concurrent_build` bench, not in CI-sized tests.
        let r = construction_scaling(Scale::Tiny, &[1, 2], 1);
        assert_eq!(r.rows.len(), 4, "2 paths × 2 shard counts");
        for row in &r.rows {
            assert!(row.ms > 0.0 && row.ms.is_finite(), "{row:?}");
            assert!(row.mpps > 0.0 && row.mpps.is_finite(), "{row:?}");
        }
        assert!(r.row("partitioned", 2).is_some());
        assert!(r.row("stream", 1).is_some());
        assert!(r.render().contains("construction"));
        assert_eq!(r.to_csv().len(), 1);
    }
}
