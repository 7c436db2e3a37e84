//! Extension experiments beyond the paper's figures.
//!
//! * [`sampling_comparison`] — §2.2 dismisses sampling-based
//!   approaches ("the filtered flows inevitably introduce significant
//!   estimation errors") without measuring them; this quantifies the
//!   argument at equal memory.
//! * [`braids_comparison`] — §2.1's Counter Braids and VHC, measured
//!   instead of cited.
//! * [`compression_comparison`] — the single-counter compressor family
//!   (SAC / DISCO / ANLS / CEDAR) at equal width.
//! * [`burst_tolerance`] — how much arrival burstiness the cache
//!   front end absorbs relative to a cache-free design.
//! * [`tail_sensitivity`] — does the headline comparison survive a
//!   log-normal tail instead of a power law? (It does; CAESAR's
//!   absolute ARE even lands on the paper's number.)

use crate::report::{f, pct, Csv, TextTable};
use crate::runner::{caesar_config, run_caesar, trace_for};
use crate::scale::{Scale, LARGE_FLOW_THRESHOLD};
use baselines::{BraidsConfig, CounterBraids, SampledCounter, SamplingConfig};
use caesar::SketchRead;
use caesar::Estimator;
use metrics::{are_over_threshold, ScatterPoint};

/// One contender's row in the comparison.
#[derive(Debug, Clone)]
pub struct ContenderRow {
    /// Scheme label.
    pub scheme: String,
    /// Memory consumed (bytes), as configured or realized.
    pub memory_bytes: usize,
    /// ARE over large flows (≥ [`LARGE_FLOW_THRESHOLD`]).
    pub large_flow_are: f64,
    /// Fraction of all flows estimated as exactly 0 (invisible flows).
    pub frac_invisible: f64,
    /// Fraction of *large* flows estimated as exactly 0.
    pub frac_large_invisible: f64,
}

/// Result of the sampling comparison.
#[derive(Debug, Clone)]
pub struct SamplingComparison {
    /// CAESAR first, then the sampler at each swept rate.
    pub rows: Vec<ContenderRow>,
}

/// Run the comparison at the given scale.
pub fn sampling_comparison(scale: Scale) -> SamplingComparison {
    let shared = trace_for(scale);
    let (trace, truth) = (&shared.0, &shared.1);
    let mut pairs: Vec<(u64, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable();

    let mut rows = Vec::new();

    // CAESAR at the paper budget. Total memory = SRAM + cache (32-bit
    // tag + 6-bit counter per entry).
    let cfg = caesar_config(scale);
    let sketch = run_caesar(cfg, trace);
    let caesar_bytes =
        (cfg.sram_kb() * 1024.0) as usize + (cfg.cache_kb(32) * 1024.0) as usize;
    let points: Vec<ScatterPoint> = pairs
        .iter()
        .map(|&(fl, x)| ScatterPoint {
            actual: x,
            estimated: sketch.estimate(fl, Estimator::Csm).clamped(),
        })
        .collect();
    rows.push(score("CAESAR (CSM)", caesar_bytes, &points));

    // NetFlow-style sampling with the flow table capped at the same
    // byte budget (12 bytes per record).
    let max_entries = caesar_bytes / 12;
    for rate in [0.001, 0.01, 0.1] {
        let mut sampler = SampledCounter::new(SamplingConfig {
            rate,
            max_entries,
            seed: 0xE47,
        });
        for p in &trace.packets {
            sampler.record(p.flow);
        }
        let points: Vec<ScatterPoint> = pairs
            .iter()
            .map(|&(fl, x)| ScatterPoint { actual: x, estimated: sampler.query(fl) })
            .collect();
        rows.push(score(
            &format!("sampling p={rate}"),
            sampler.memory_bytes(),
            &points,
        ));
    }
    SamplingComparison { rows }
}

fn score(scheme: &str, memory_bytes: usize, points: &[ScatterPoint]) -> ContenderRow {
    let large_flow_are = are_over_threshold(points, LARGE_FLOW_THRESHOLD)
        .map(|(_, a)| a)
        .unwrap_or(f64::NAN);
    let invisible = points.iter().filter(|p| p.estimated == 0.0).count();
    let large: Vec<&ScatterPoint> = points
        .iter()
        .filter(|p| p.actual >= LARGE_FLOW_THRESHOLD)
        .collect();
    let large_invisible = large.iter().filter(|p| p.estimated == 0.0).count();
    ContenderRow {
        scheme: scheme.to_string(),
        memory_bytes,
        large_flow_are,
        frac_invisible: invisible as f64 / points.len().max(1) as f64,
        frac_large_invisible: large_invisible as f64 / large.len().max(1) as f64,
    }
}

impl SamplingComparison {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "scheme",
            "memory KB",
            "large-flow ARE",
            "flows reading 0",
            "large flows reading 0",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.scheme.clone(),
                f(r.memory_bytes as f64 / 1024.0),
                pct(r.large_flow_are),
                pct(r.frac_invisible),
                pct(r.frac_large_invisible),
            ]);
        }
        format!(
            "Extension — CAESAR vs NetFlow-style sampling at equal memory (§2.2)\n{}\
             (A CAESAR zero is a noisy measurement clamped at zero; a sampler\n\
             zero is a structurally invisible flow that was never recorded.)\n",
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&[
            "scheme",
            "memory_bytes",
            "large_flow_are",
            "frac_invisible",
            "frac_large_invisible",
        ]);
        for r in &self.rows {
            c.row(&[
                r.scheme.clone(),
                r.memory_bytes.to_string(),
                format!("{:.4}", r.large_flow_are),
                format!("{:.4}", r.frac_invisible),
                format!("{:.4}", r.frac_large_invisible),
            ]);
        }
        vec![("ext_sampling.csv".into(), c.to_string())]
    }
}

/// One row of the Counter Braids comparison.
#[derive(Debug, Clone)]
pub struct BraidsRow {
    /// Scheme label.
    pub scheme: String,
    /// Memory in bits.
    pub memory_bits: u64,
    /// ARE over large flows.
    pub large_flow_are: f64,
    /// ARE over all flows.
    pub all_flow_are: f64,
    /// Off-chip accesses per packet (the construction-phase cost).
    pub accesses_per_packet: f64,
}

/// Result of the Counter Braids comparison.
#[derive(Debug, Clone)]
pub struct BraidsComparison {
    /// CAESAR, then Counter Braids at equal and at generous memory.
    pub rows: Vec<BraidsRow>,
}

/// CAESAR vs Counter Braids (§2.1, refs [21, 25, 26]).
///
/// Quantifies both criticisms the paper levels at braids: every packet
/// costs `k1` off-chip read-modify-writes (vs CAESAR's ~0.1 amortized
/// writes), and decodability needs > 4 bits per flow — at CAESAR's
/// memory budget (< 1 bit per flow) the braid is hopelessly overloaded,
/// while in its decodable regime (~38 bits/flow for a regular braid) it
/// decodes almost exactly.
pub fn braids_comparison(scale: Scale) -> BraidsComparison {
    let shared = trace_for(scale);
    let (trace, truth) = (&shared.0, &shared.1);
    let mut pairs: Vec<(u64, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
    pairs.sort_unstable();
    let ids: Vec<u64> = pairs.iter().map(|&(f, _)| f).collect();

    let mut rows = Vec::new();

    // CAESAR reference.
    let cfg = caesar_config(scale);
    let sketch = run_caesar(cfg, trace);
    let st = sketch.stats();
    let points: Vec<ScatterPoint> = pairs
        .iter()
        .map(|&(fl, x)| ScatterPoint {
            actual: x,
            estimated: sketch.estimate(fl, Estimator::Csm).clamped(),
        })
        .collect();
    rows.push(BraidsRow {
        scheme: "CAESAR (CSM)".into(),
        memory_bits: cfg.counters as u64 * cfg.counter_bits as u64,
        large_flow_are: are_over_threshold(&points, LARGE_FLOW_THRESHOLD)
            .map(|(_, a)| a)
            .unwrap_or(f64::NAN),
        all_flow_are: metrics::AccuracyReport::from_points(&points).avg_relative_error,
        accesses_per_packet: st.sram_writes as f64 * 2.0 / trace.num_packets() as f64,
    });

    // Counter Braids at equal memory and in its decodable regime. A
    // regular k1 = 3 braid with min-sum decoding needs roughly three
    // layer-1 counters per flow (the optimized irregular graphs of the
    // original paper do better); with 8-bit layer-1 counters and a
    // layer-2 sized for the carries that is ≈ 38 bits per flow.
    let budget_bits = cfg.counters as u64 * cfg.counter_bits as u64;
    let q = truth.len() as f64;
    for (label, m1, m2) in [
        (
            "equal memory",
            (budget_bits as f64 * 0.8 / 8.0) as usize,
            ((budget_bits as f64 * 0.2 / 56.0) as usize).max(2),
        ),
        ("decodable, ~38 bits/flow", (q * 3.0) as usize, ((q * 0.25) as usize).max(2)),
    ] {
        let bcfg = BraidsConfig {
            layer1_counters: m1.max(4),
            layer2_counters: m2,
            ..BraidsConfig::default()
        };
        let mut cb = CounterBraids::new(bcfg);
        for p in &trace.packets {
            cb.record(p.flow);
        }
        let est = cb.decode(&ids, 100);
        let points: Vec<ScatterPoint> = pairs
            .iter()
            .zip(&est)
            .map(|(&(_, x), &e)| ScatterPoint { actual: x, estimated: e })
            .collect();
        rows.push(BraidsRow {
            scheme: format!("Counter Braids ({label})"),
            memory_bits: bcfg.memory_bits(),
            large_flow_are: are_over_threshold(&points, LARGE_FLOW_THRESHOLD)
                .map(|(_, a)| a)
                .unwrap_or(f64::NAN),
            all_flow_are: metrics::AccuracyReport::from_points(&points).avg_relative_error,
            accesses_per_packet: cb.stats().accesses as f64 / trace.num_packets() as f64,
        });
    }

    // VHC at equal memory: the §2.1 one-access-per-packet contender.
    let m = ((budget_bits / 5) as usize).max(512);
    let s_virtual = 256usize.min((m / 2).next_power_of_two() / 2).max(16);
    let mut vhc = baselines::Vhc::new(baselines::VhcConfig {
        registers: m,
        virtual_registers: s_virtual,
        seed: 0x7AC7,
    });
    for p in &trace.packets {
        vhc.record(p.flow);
    }
    let total = vhc.total_estimate();
    let points: Vec<ScatterPoint> = pairs
        .iter()
        .map(|&(fl, x)| ScatterPoint { actual: x, estimated: vhc.query_with_total(fl, total) })
        .collect();
    rows.push(BraidsRow {
        scheme: format!("VHC (s={s_virtual}, equal memory)"),
        memory_bits: vhc.config().memory_bits(),
        large_flow_are: are_over_threshold(&points, LARGE_FLOW_THRESHOLD)
            .map(|(_, a)| a)
            .unwrap_or(f64::NAN),
        all_flow_are: metrics::AccuracyReport::from_points(&points).avg_relative_error,
        accesses_per_packet: 1.0,
    });
    BraidsComparison { rows }
}

impl BraidsComparison {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "scheme",
            "memory KB",
            "large-flow ARE",
            "all-flow ARE",
            "off-chip accesses/pkt",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.scheme.clone(),
                f(r.memory_bits as f64 / 8192.0),
                pct(r.large_flow_are),
                pct(r.all_flow_are),
                f(r.accesses_per_packet),
            ]);
        }
        format!(
            "Extension — CAESAR vs Counter Braids vs VHC (§2.1)\n{}",
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&[
            "scheme",
            "memory_bits",
            "large_flow_are",
            "all_flow_are",
            "accesses_per_packet",
        ]);
        for r in &self.rows {
            c.row(&[
                r.scheme.clone(),
                r.memory_bits.to_string(),
                format!("{:.4}", r.large_flow_are),
                format!("{:.4}", r.all_flow_are),
                format!("{:.4}", r.accesses_per_packet),
            ]);
        }
        vec![("ext_braids.csv".into(), c.to_string())]
    }
}

/// One scheme's moments at one operating point.
#[derive(Debug, Clone, Copy)]
pub struct Moments {
    /// Mean estimate over trials.
    pub mean: f64,
    /// Relative standard deviation.
    pub rel_std: f64,
}

/// One operating point of the compression-family comparison.
#[derive(Debug, Clone, Copy)]
pub struct CompressionPoint {
    /// True count applied.
    pub true_count: u64,
    /// SAC (mantissa/exponent).
    pub sac: Moments,
    /// DISCO geometric scale, CASE-style bulk updates.
    pub disco: Moments,
    /// ANLS geometric-decay sampling.
    pub anls: Moments,
    /// CEDAR shared estimator ladder.
    pub cedar: Moments,
}

/// Result of the compression-family comparison.
#[derive(Debug, Clone)]
pub struct CompressionComparison {
    /// Bits per counter both schemes were given.
    pub bits: u32,
    /// The sweep, increasing true counts.
    pub points: Vec<CompressionPoint>,
}

/// SAC vs DISCO at equal counter width (the §2.1 single-counter
/// compression family).
///
/// Both compressors get `bits`-wide counters spanning 10⁷ and count the
/// same workloads; the table shows that both stay unbiased while their
/// relative noise grows with the count — the structural weakness that
/// motivates shared-counter schemes like RCS/CAESAR in the first place.
pub fn compression_comparison(bits: u32, trials: usize) -> CompressionComparison {
    use support::rand::{rngs::StdRng, SeedableRng};
    let span = 1e7;
    // SAC: give 4 bits to the exponent, the rest to the mantissa, and
    // the smallest stride that still covers the span.
    let mode_bits = 4u32;
    let a_bits = bits - mode_bits;
    let mut r = 1;
    while baselines::SacCounter::new(a_bits, mode_bits, r).max_value() < span {
        r += 1;
    }
    let disco = baselines::DiscoScale::for_bits(bits, span);
    // CEDAR: pick the largest delta... the ladder must span `span`;
    // search the smallest delta that still covers it.
    let mut delta = 0.01f64;
    while baselines::CedarScale::new(bits, delta).max_value() < span {
        delta *= 1.3;
        assert!(delta < 1.0, "CEDAR cannot span {span} at {bits} bits");
    }
    let cedar = baselines::CedarScale::new(bits, delta);
    let anls_proto = baselines::AnlsCounter::for_range(bits, span);
    let mut rng = StdRng::seed_from_u64(0xC03B);

    let stats = |vals: &[f64]| {
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / vals.len() as f64;
        Moments { mean, rel_std: var.sqrt() / mean.max(1e-9) }
    };

    let mut points = Vec::new();
    for exp in 1..=6u32 {
        let true_count = 10u64.pow(exp);
        let mut sac_vals = Vec::with_capacity(trials);
        let mut disco_vals = Vec::with_capacity(trials);
        let mut anls_vals = Vec::with_capacity(trials);
        let mut cedar_vals = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut sac = baselines::SacCounter::new(a_bits, mode_bits, r);
            sac.add(true_count, &mut rng);
            sac_vals.push(sac.estimate());
            // Bulk-apply in eviction-sized chunks like CASE would.
            let mut c = 0u64;
            let mut left = true_count;
            while left > 0 {
                let chunk = left.min(54);
                c = disco.apply_bulk(c, chunk, &mut rng);
                left -= chunk;
            }
            disco_vals.push(disco.decompress(c));
            let mut anls = anls_proto;
            anls.add(true_count, &mut rng);
            anls_vals.push(anls.estimate());
            cedar_vals.push(cedar.estimate(cedar.add(0, true_count, &mut rng)));
        }
        points.push(CompressionPoint {
            true_count,
            sac: stats(&sac_vals),
            disco: stats(&disco_vals),
            anls: stats(&anls_vals),
            cedar: stats(&cedar_vals),
        });
    }
    CompressionComparison { bits, points }
}

impl CompressionComparison {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "true count",
            "SAC mean",
            "SAC rel sigma",
            "DISCO mean",
            "DISCO rel sigma",
            "ANLS mean",
            "ANLS rel sigma",
            "CEDAR mean",
            "CEDAR rel sigma",
        ]);
        for p in &self.points {
            t.row(vec![
                p.true_count.to_string(),
                f(p.sac.mean),
                pct(p.sac.rel_std),
                f(p.disco.mean),
                pct(p.disco.rel_std),
                f(p.anls.mean),
                pct(p.anls.rel_std),
                f(p.cedar.mean),
                pct(p.cedar.rel_std),
            ]);
        }
        format!(
            "Extension — single-counter compression family at {} bits (§2.1)\n{}",
            self.bits,
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&[
            "true_count",
            "sac_mean",
            "sac_rel_std",
            "disco_mean",
            "disco_rel_std",
            "anls_mean",
            "anls_rel_std",
            "cedar_mean",
            "cedar_rel_std",
        ]);
        for p in &self.points {
            c.row(&[
                p.true_count.to_string(),
                format!("{:.2}", p.sac.mean),
                format!("{:.4}", p.sac.rel_std),
                format!("{:.2}", p.disco.mean),
                format!("{:.4}", p.disco.rel_std),
                format!("{:.2}", p.anls.mean),
                format!("{:.4}", p.anls.rel_std),
                format!("{:.2}", p.cedar.mean),
                format!("{:.4}", p.cedar.rel_std),
            ]);
        }
        vec![("ext_compression.csv".into(), c.to_string())]
    }
}

/// One row of the burst-tolerance study.
#[derive(Debug, Clone)]
pub struct BurstRow {
    /// Arrival process label.
    pub process: String,
    /// CAESAR pipeline ns/packet.
    pub caesar_ns_pkt: f64,
    /// CAESAR stall fraction.
    pub caesar_stall: f64,
    /// RCS pipeline ns/packet.
    pub rcs_ns_pkt: f64,
    /// RCS stall fraction.
    pub rcs_stall: f64,
}

/// Result of the burst-tolerance study.
#[derive(Debug, Clone)]
pub struct BurstTolerance {
    /// Average inter-arrival spacing used (ns).
    pub mean_spacing_ns: f64,
    /// Rows per arrival process.
    pub rows: Vec<BurstRow>,
}

/// Burst tolerance: how much arrival burstiness the cache front end
/// absorbs (extension; the paper models constant line-rate arrivals
/// only).
///
/// The average rate is set so cache-free RCS *just* keeps up under
/// constant arrivals; Poisson and on/off bursts at the same average
/// rate then expose the difference: CAESAR's writeback FIFO rides the
/// bursts out while RCS's per-packet off-chip access stalls.
pub fn burst_tolerance(scale: Scale) -> BurstTolerance {
    use flowtrace::timing::ArrivalProcess;
    use memsim::{PacketWork, Pipeline};

    let shared = crate::runner::bursty_trace_for(scale);
    let trace = &shared.0;
    let n = trace.packets.len().min(300_000);
    let prefix = &trace.packets[..n];

    // RCS work: 2 port ops per packet at 10 ns = 20 ns service. Give
    // arrivals a 24 ns average so constant arrivals are sustainable.
    let mean_ns = 24.0;
    let processes = [
        ("constant", ArrivalProcess::Constant { spacing_ns: mean_ns }),
        ("poisson", ArrivalProcess::Poisson { mean_ns, seed: 0xB127 }),
        (
            "on/off bursts (64 @ line rate)",
            ArrivalProcess::OnOff { mean_ns, on_ns: 1.0, burst_len: 64 },
        ),
    ];

    let pl = Pipeline { arrival_ns: mean_ns, ..Pipeline::default() };
    let k = crate::runner::caesar_config(scale).k as u32;
    let mut rows = Vec::new();
    for (label, proc_) in processes {
        let ts = proc_.timestamps(n);
        // CAESAR work stream: cache replay.
        let mut cache = cachesim::CacheTable::new(cachesim::CacheConfig::lru(
            scale.cache_entries(),
            (2.0 * crate::scale::PAPER_MEAN_FLOW).floor() as u64,
        ));
        let caesar = pl.run_timed(prefix.iter().zip(&ts).map(|(p, &t)| {
            let w = match cache.record(p.flow) {
                Some(_) => PacketWork { writebacks: k * 2, compute_ns: 0.0 },
                None => PacketWork::HIT,
            };
            (t, w)
        }));
        let rcs = pl.run_timed(
            ts.iter()
                .map(|&t| (t, PacketWork { writebacks: 2, compute_ns: 0.0 })),
        );
        rows.push(BurstRow {
            process: label.to_string(),
            caesar_ns_pkt: caesar.ns_per_packet(),
            caesar_stall: caesar.stall_fraction(),
            rcs_ns_pkt: rcs.ns_per_packet(),
            rcs_stall: rcs.stall_fraction(),
        });
    }
    BurstTolerance { mean_spacing_ns: mean_ns, rows }
}

impl BurstTolerance {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "arrival process",
            "CAESAR ns/pkt",
            "CAESAR stall",
            "RCS ns/pkt",
            "RCS stall",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.process.clone(),
                f(r.caesar_ns_pkt),
                pct(r.caesar_stall),
                f(r.rcs_ns_pkt),
                pct(r.rcs_stall),
            ]);
        }
        format!(
            "Extension — burst tolerance at {} ns average arrivals\n{}",
            f(self.mean_spacing_ns),
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&[
            "process",
            "caesar_ns_pkt",
            "caesar_stall",
            "rcs_ns_pkt",
            "rcs_stall",
        ]);
        for r in &self.rows {
            c.row(&[
                r.process.clone(),
                format!("{:.2}", r.caesar_ns_pkt),
                format!("{:.4}", r.caesar_stall),
                format!("{:.2}", r.rcs_ns_pkt),
                format!("{:.4}", r.rcs_stall),
            ]);
        }
        vec![("ext_bursts.csv".into(), c.to_string())]
    }
}

/// One tail family's headline numbers.
#[derive(Debug, Clone)]
pub struct TailRow {
    /// Tail family label.
    pub tail: String,
    /// Realized mean flow size.
    pub mean_flow: f64,
    /// Fraction of flows below the mean.
    pub frac_below_mean: f64,
    /// CAESAR large-flow ARE.
    pub caesar_are: f64,
    /// Lossy RCS (2/3) large-flow ARE.
    pub rcs_lossy_are: f64,
}

/// Result of the tail-sensitivity study.
#[derive(Debug, Clone)]
pub struct TailSensitivity {
    /// One row per tail family.
    pub rows: Vec<TailRow>,
}

/// Does the headline comparison survive a different heavy-tail family?
///
/// The paper's trace is "heavy tailed" with no stated family; we
/// default to a truncated power law. This study reruns the CAESAR vs
/// lossy-RCS comparison with a log-normal tail at the same mean, so
/// the conclusion demonstrably does not hinge on the modelling choice.
pub fn tail_sensitivity(scale: Scale) -> TailSensitivity {
    use baselines::{LossModel, Rcs, RcsConfig};
    use flowtrace::synth::{SynthConfig, TailFamily, TraceGenerator};

    let mut rows = Vec::new();
    for (label, tail) in [
        ("power law", TailFamily::PowerLaw),
        ("log-normal (sigma=2)", TailFamily::LogNormal { sigma_log: 2.0 }),
    ] {
        let base = scale.synth_config();
        let (trace, truth) = TraceGenerator::new(SynthConfig { tail, ..base }).generate();
        let mut pairs: Vec<(u64, u64)> = truth.iter().map(|(&f, &x)| (f, x)).collect();
        pairs.sort_unstable();

        let sketch = run_caesar(caesar_config(scale), &trace);
        let caesar_pts: Vec<ScatterPoint> = pairs
            .iter()
            .map(|&(fl, x)| ScatterPoint {
                actual: x,
                estimated: sketch.estimate(fl, Estimator::Csm).clamped(),
            })
            .collect();

        let mut rcs = Rcs::new(RcsConfig {
            counters: scale.caesar_counters(),
            k: 3,
            loss: LossModel::Uniform(2.0 / 3.0),
            seed: 0x7A11,
        });
        for p in &trace.packets {
            rcs.record(p.flow);
        }
        let rcs_pts: Vec<ScatterPoint> = pairs
            .iter()
            .map(|&(fl, x)| ScatterPoint { actual: x, estimated: rcs.query(fl) })
            .collect();

        let sizes: Vec<u64> = pairs.iter().map(|&(_, x)| x).collect();
        let stats = flowtrace::stats::FlowStats::from_sizes(&sizes);
        rows.push(TailRow {
            tail: label.into(),
            mean_flow: stats.mean,
            frac_below_mean: stats.frac_below_mean,
            caesar_are: are_over_threshold(&caesar_pts, LARGE_FLOW_THRESHOLD)
                .map(|(_, a)| a)
                .unwrap_or(f64::NAN),
            rcs_lossy_are: are_over_threshold(&rcs_pts, LARGE_FLOW_THRESHOLD)
                .map(|(_, a)| a)
                .unwrap_or(f64::NAN),
        });
    }
    TailSensitivity { rows }
}

impl TailSensitivity {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "tail family",
            "mean flow",
            "below mean",
            "CAESAR ARE",
            "RCS(2/3) ARE",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.tail.clone(),
                f(r.mean_flow),
                pct(r.frac_below_mean),
                pct(r.caesar_are),
                pct(r.rcs_lossy_are),
            ]);
        }
        format!(
            "Extension — tail-family sensitivity (large-flow ARE)\n{}",
            t.render()
        )
    }

    /// CSV export.
    pub fn to_csv(&self) -> Vec<(String, String)> {
        let mut c = Csv::new(&[
            "tail",
            "mean_flow",
            "frac_below_mean",
            "caesar_are",
            "rcs_lossy_are",
        ]);
        for r in &self.rows {
            c.row(&[
                r.tail.clone(),
                format!("{:.2}", r.mean_flow),
                format!("{:.4}", r.frac_below_mean),
                format!("{:.4}", r.caesar_are),
                format!("{:.4}", r.rcs_lossy_are),
            ]);
        }
        vec![("ext_tails.csv".into(), c.to_string())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ordering_survives_a_lognormal_tail() {
        let r = tail_sensitivity(Scale::Small);
        for row in &r.rows {
            assert!(
                row.caesar_are < row.rcs_lossy_are,
                "{}: CAESAR {} vs lossy RCS {}",
                row.tail,
                row.caesar_are,
                row.rcs_lossy_are
            );
        }
        // The lossy-RCS error tracks the loss rate under both tails.
        for row in &r.rows {
            assert!((row.rcs_lossy_are - 2.0 / 3.0).abs() < 0.15, "{row:?}");
        }
    }

    #[test]
    fn bursts_hurt_the_cache_free_scheme_most() {
        let r = burst_tolerance(Scale::Tiny);
        let constant = &r.rows[0];
        let bursty = &r.rows[2];
        // Constant arrivals at the chosen rate: both keep up.
        assert!(constant.rcs_stall < 0.05, "RCS constant stall {}", constant.rcs_stall);
        // Bursts at the same average rate: RCS stalls hard, CAESAR far less.
        assert!(bursty.rcs_stall > 0.2, "RCS bursty stall {}", bursty.rcs_stall);
        assert!(
            bursty.caesar_stall < bursty.rcs_stall,
            "CAESAR {} vs RCS {}",
            bursty.caesar_stall,
            bursty.rcs_stall
        );
    }

    #[test]
    fn compression_family_is_unbiased_but_noisy() {
        let r = compression_comparison(12, 60);
        for p in &r.points {
            for (name, m) in [
                ("SAC", p.sac),
                ("DISCO", p.disco),
                ("ANLS", p.anls),
                ("CEDAR", p.cedar),
            ] {
                let bias = (m.mean - p.true_count as f64).abs() / p.true_count as f64;
                // Unbiased within sampling noise (150 trials).
                let slack = 0.05 + 4.0 * m.rel_std / (60f64).sqrt();
                assert!(bias < slack, "{name} bias {bias} at {}", p.true_count);
            }
        }
        // Relative noise at 10^6 must be substantial — the family's
        // structural cost.
        let last = r.points.last().expect("sweep");
        assert!(last.sac.rel_std > 0.02 || last.disco.rel_std > 0.02);
    }

    #[test]
    fn braids_need_more_memory_but_decode_exactly_when_given_it() {
        let r = braids_comparison(Scale::Tiny);
        let caesar = &r.rows[0];
        let equal = &r.rows[1];
        let generous = &r.rows[2];
        // Equal memory: the braid is overloaded — far worse than CAESAR
        // on large flows.
        assert!(
            equal.large_flow_are > 2.0 * caesar.large_flow_are,
            "equal-memory braid ARE {} vs CAESAR {}",
            equal.large_flow_are,
            caesar.large_flow_are
        );
        // Generous memory: near-exact decoding.
        assert!(
            generous.all_flow_are < 0.1,
            "generous braid all-flow ARE {}",
            generous.all_flow_are
        );
        // But the paper's cost criticism stands: ≥ k1 accesses/packet.
        assert!(equal.accesses_per_packet >= 3.0);
        assert!(caesar.accesses_per_packet < 1.0);
    }

    #[test]
    fn caesar_sees_every_large_flow() {
        let r = sampling_comparison(Scale::Small);
        let caesar = &r.rows[0];
        assert_eq!(caesar.frac_large_invisible, 0.0, "{}", r.render());
        // The shared-counter structure makes *every* flow visible
        // (estimates can be clamped to 0, but large flows never are).
        assert!(caesar.large_flow_are < 0.6);
    }

    #[test]
    fn low_rate_sampling_filters_mice_as_paper_argues() {
        let r = sampling_comparison(Scale::Small);
        let low = r
            .rows
            .iter()
            .find(|row| row.scheme.contains("0.001"))
            .expect("rate swept");
        // §2.2's criticism quantified: at p = 0.1% the vast majority of
        // flows are invisible.
        assert!(low.frac_invisible > 0.8, "invisible = {}", low.frac_invisible);
    }

    #[test]
    fn render_lists_all_contenders() {
        let r = sampling_comparison(Scale::Tiny);
        assert_eq!(r.rows.len(), 4);
        assert!(r.render().contains("CAESAR"));
    }
}
