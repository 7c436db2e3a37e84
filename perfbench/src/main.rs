//! The repository benchmark: one named workload from one seed, checked
//! for correctness, every metric printed by name and unit.
//!
//! ```text
//! perfbench --workload <caida_epochs|mouse_flood|bursty_query> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny] [--spans-out <file>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! phases with spans recorded, replays each layer alone, and prints the
//! per-layer ledger (span file written at exit). The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! A run that fails any correctness check prints `correct: false` with
//! no metrics and exits 1. See README.md for the metric definitions.

mod e2e;
mod ledger;
mod span;
mod stats;
mod workloads;

use caesar::{Caesar, ThreadedCaesar};
use e2e::E2e;
use service::MeasurementService;
use span::Tracer;
use stats::{median, median_of_reps, quantile};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Scale, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--scale" => scale = Scale::parse(&value).ok_or(format!("bad --scale {value}"))?,
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale,
        spans_out,
    })
}

/// One metric line of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Set-up repetitions (`setup_s` is their median): at least `min`, and
/// more while they take under `SETUP_BUDGET` in all, up to `max`.
fn setup_reps(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (5, 25),
        Scale::Tiny => (2, 2),
    }
}

const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Generate the workload and construct the engines and the aggregator
/// several times (single-threaded work only), timing each. Returns the
/// first workload, the set-up times, and the generation share of each.
fn setup(args: &Args, tr: &mut Tracer) -> Result<(Workload, Vec<f64>, Vec<f64>), String> {
    let mut kept: Option<Workload> = None;
    let mut totals = Vec::new();
    let mut generation = Vec::new();
    let (min, max) = setup_reps(args.scale);
    let start = Instant::now();
    while totals.len() < min || (totals.len() < max && start.elapsed() < SETUP_BUDGET) {
        let t = Instant::now();
        let w = tr
            .span("flowtrace.generate", 1, || {
                workloads::generate(&args.workload, args.seed, args.scale)
            })
            .ok_or("unknown workload")?;
        generation.push(t.elapsed().as_secs_f64());
        tr.span("setup.construct", 1, || {
            black_box(Caesar::new(w.cfg));
            black_box(ThreadedCaesar::new(w.cfg, 1));
            black_box(MeasurementService::new(w.cfg));
        });
        totals.push(t.elapsed().as_secs_f64());
        match &kept {
            None => kept = Some(w),
            Some(first) if first.packets != w.packets || first.query_flows != w.query_flows => {
                return Err("the same seed generated different inputs".into());
            }
            Some(_) => {}
        }
    }
    Ok((
        kept.expect("at least one set-up repetition"),
        totals,
        generation,
    ))
}

fn mean(v: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = v.len().max(1) as f64;
    v.sum::<f64>() / n
}

/// Per-position quantile of the single-threaded phases' segment times:
/// the fastest pass at each position. Interference on this host only
/// slows a segment, and its share varies from run to run, so the floor
/// is steadier than any middle quantile (see README.md).
const SINGLE_THREAD_Q: f64 = 0.0;
/// Per-position quantile for the online engine: with two threads, a
/// segment's floor needs both processors free at once, which the
/// median reaches more steadily than the minimum.
const TWO_THREAD_Q: f64 = 0.5;

fn end_to_end(w: &Workload, run: &E2e, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
    let n = w.packets.len();
    let flows = w.query_flows.len() as f64;
    Ok(vec![
        m(
            "ingest_mpps",
            n as f64 / run.ingest_t.total_at(SINGLE_THREAD_Q) / 1e6,
            "Mpkt/s",
        ),
        m(
            "sharded_mpps",
            n as f64 / median(&run.sharded_s) / 1e6,
            "Mpkt/s",
        ),
        m(
            "online_mpps",
            n as f64 / run.online_t.total_at(TWO_THREAD_Q) / 1e6,
            "Mpkt/s",
        ),
        m(
            "query_mflows_s",
            flows / run.query_t.total_at(SINGLE_THREAD_Q) / 1e6,
            "Mflow/s",
        ),
        m(
            "tcp_query_p50_us",
            median_of_reps(&run.tcp_query_us, 0.5),
            "us",
        ),
        m(
            "tcp_push_p50_us",
            median_of_reps(&run.tcp_push_us, 0.5),
            "us",
        ),
        m("are_heavy", run.are_heavy, "ratio"),
        m(
            "checkpoint_kib_per_epoch",
            mean(run.checkpoint_bytes.iter().map(|&b| b as f64)) / 1024.0,
            "KiB",
        ),
        m(
            "wire_kib_per_epoch",
            mean(run.deltas.iter().map(|d| d.encoded_len() as f64)) / 1024.0,
            "KiB",
        ),
        m("setup_s", median(setup_s), "s"),
        m(
            "peak_rss_mib",
            stats::peak_rss_mib().ok_or("peak RSS unavailable")?,
            "MiB",
        ),
    ])
}

/// The traced run's per-layer metrics and the ledger reconciliation.
fn per_layer(
    w: &Workload,
    run: &E2e,
    layers: &ledger::LayerCounts,
    tr: &Tracer,
    generation_s: &[f64],
    overhead_pct: f64,
) -> Vec<Metric> {
    let st = tr.self_times();
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let n = w.packets.len() as f64;
    let flows = w.query_flows.len() as f64;
    let fill_ns = get("hashkit.fill").ns_per_unit();
    let record_ns = get("cachesim.record").ns_per_unit();
    let spread_ns = get("caesar.update.spread").ns_per_unit();
    let partition_ns = get("caesar.concurrent.partition").ns_per_unit();
    let handoff_ns = get("support.spsc.handoff").ns_per_unit();
    let finish_ns = get("caesar.pipeline.finish").ns_per_span();
    let tcp_p50 = median_of_reps(&run.tcp_query_us, 0.5);
    let inproc_p50 = quantile(&layers.inprocess_query_us, 0.5);
    let handle_push_us = get("service.server.handle_push").ns_per_span() / 1e3;
    let handle_query_us = get("service.server.handle_query").ns_per_span() / 1e3;
    let delta_encode_us = get("caesar.merge.delta_encode").ns_per_span() / 1e3;

    // Reconciliation: layer costs scaled by the work each phase gives
    // them, against the phase's mean pass time in this run. Span self
    // times are means over passes too, so both sides count slow passes
    // alike.
    let mean_ns = |passes: &[f64]| mean(passes.iter().copied()) * 1e9;
    let ingest_ns = mean_ns(&run.ingest_t.totals());
    // `record_batch` hashes every packet up front, probes the cache per
    // packet and spreads every eviction.
    let ingest_explained = (record_ns + fill_ns) * n + spread_ns * layers.evictions as f64;
    let sharded_ns = mean_ns(&run.sharded_s);
    let sharded_explained = partition_ns * n + ingest_ns / n * layers.max_shard_packets as f64;
    let online_ns = mean_ns(&run.online_t.totals());
    let per_pass = |name: &str| {
        let s = get(name);
        s.self_ns as f64 / get("caesar.threaded.snapshot").count.max(1) as f64
    };
    let online_explained = handoff_ns.max(ingest_ns / n) * n
        + per_pass("caesar.threaded.snapshot")
        + per_pass("caesar.threaded.merge_now")
        + per_pass("caesar.threaded.checkpoint_delta")
        + per_pass("caesar.threaded.finish");
    let query_ns = mean_ns(&run.query_t.totals());
    let query_explained = fill_ns * flows;
    let push_p50 = median_of_reps(&run.tcp_push_us, 0.5);
    let push_explained = handle_push_us + delta_encode_us;

    vec![
        m("hashkit.fill_ns_per_flow", fill_ns, "ns"),
        m("cachesim.record_ns_per_pkt", record_ns, "ns"),
        m("cachesim.hit_ratio", layers.hit_ratio, "ratio"),
        m(
            "cachesim.evictions_per_kpkt",
            layers.evictions as f64 / n * 1e3,
            "1/kpkt",
        ),
        m("caesar.update.spread_ns_per_eviction", spread_ns, "ns"),
        m(
            "caesar.sram.writes_per_pkt",
            run.sequential.stats().sram_writes as f64 / n,
            "1/pkt",
        ),
        m("caesar.pipeline.finish_ms", finish_ns / 1e6, "ms"),
        m("caesar.concurrent.partition_ns_per_pkt", partition_ns, "ns"),
        m("support.spsc.handoff_ns_per_pkt", handoff_ns, "ns"),
        m(
            "caesar.threaded.offer_ns_per_pkt",
            get("caesar.threaded.offer").ns_per_unit(),
            "ns",
        ),
        m(
            "caesar.threaded.merge_now_ms",
            get("caesar.threaded.merge_now").ns_per_span() / 1e6,
            "ms",
        ),
        m(
            "caesar.threaded.checkpoint_delta_us",
            get("caesar.threaded.checkpoint_delta").ns_per_span() / 1e3,
            "us",
        ),
        m(
            "caesar.threaded.finish_ms",
            get("caesar.threaded.finish").ns_per_span() / 1e6,
            "ms",
        ),
        m(
            "caesar.query.csm_ns_per_flow",
            get("caesar.query.csm").ns_per_unit(),
            "ns",
        ),
        m(
            "caesar.query.mlm_ns_per_flow",
            get("caesar.query.mlm").ns_per_unit(),
            "ns",
        ),
        m(
            "caesar.query.health_ns_per_flow",
            get("caesar.query.health").ns_per_unit(),
            "ns",
        ),
        m(
            "caesar.merge.delta_between_us",
            get("caesar.merge.delta_between").ns_per_span() / 1e3,
            "us",
        ),
        m("caesar.merge.delta_encode_us", delta_encode_us, "us"),
        m(
            "caesar.merge.delta_decode_us",
            get("caesar.merge.delta_decode").ns_per_span() / 1e3,
            "us",
        ),
        m(
            "caesar.merge.payload_encode_us",
            get("caesar.merge.payload_encode").ns_per_span() / 1e3,
            "us",
        ),
        m(
            "caesar.merge.payload_decode_us",
            get("caesar.merge.payload_decode").ns_per_span() / 1e3,
            "us",
        ),
        m(
            "caesar.merge.dirty_block_ratio",
            layers.dirty_block_ratio,
            "ratio",
        ),
        m("service.server.handle_push_us", handle_push_us, "us"),
        m("service.server.handle_query_us", handle_query_us, "us"),
        m("service.inprocess_query_p50_us", inproc_p50, "us"),
        m("service.socket_query_us", tcp_p50 - inproc_p50, "us"),
        m(
            "service.tcp_query_p90_us",
            median_of_reps(&run.tcp_query_us, 0.9),
            "us",
        ),
        m(
            "service.tcp_query_p99_us",
            median_of_reps(&run.tcp_query_us, 0.99),
            "us",
        ),
        m("flowtrace.generate_s", median(generation_s), "s"),
        m(
            "ledger.ingest.explained_ratio",
            ingest_explained / ingest_ns,
            "ratio",
        ),
        m(
            "ledger.ingest.unexplained_ms",
            (ingest_ns - ingest_explained) / 1e6,
            "ms",
        ),
        m(
            "ledger.sharded.explained_ratio",
            sharded_explained / sharded_ns,
            "ratio",
        ),
        m(
            "ledger.sharded.unexplained_ms",
            (sharded_ns - sharded_explained) / 1e6,
            "ms",
        ),
        m(
            "ledger.online.explained_ratio",
            online_explained / online_ns,
            "ratio",
        ),
        m(
            "ledger.online.unexplained_ms",
            (online_ns - online_explained) / 1e6,
            "ms",
        ),
        m(
            "ledger.query.explained_ratio",
            query_explained / query_ns,
            "ratio",
        ),
        m(
            "ledger.query.unexplained_ms",
            (query_ns - query_explained) / 1e6,
            "ms",
        ),
        m(
            "ledger.tcp_query.explained_ratio",
            inproc_p50 / tcp_p50,
            "ratio",
        ),
        m(
            "ledger.tcp_query.unexplained_us",
            tcp_p50 - inproc_p50,
            "us",
        ),
        m(
            "ledger.tcp_push.explained_ratio",
            push_explained / push_p50,
            "ratio",
        ),
        m(
            "ledger.tcp_push.unexplained_us",
            push_p50 - push_explained,
            "us",
        ),
        m("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// Tracing overhead on this workload: ingest passes alternately traced
/// and untraced, as a percentage of the untraced median.
fn tracing_overhead(w: &Workload, budget: Duration, tr: &mut Tracer) -> f64 {
    let mut on = Vec::new();
    let mut off = Vec::new();
    let start = Instant::now();
    while on.len() < 3 || start.elapsed() < budget {
        for traced in [on.len() % 2 == 0, on.len() % 2 == 1] {
            tr.set_enabled(traced);
            let (d, c) = e2e::ingest_pass(w, tr);
            black_box(c);
            let d: f64 = d.iter().sum();
            if traced {
                on.push(d)
            } else {
                off.push(d)
            }
        }
    }
    tr.set_enabled(true);
    (median(&on) / median(&off) - 1.0) * 100.0
}

fn default_spans_path(args: &Args) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    target
        .join("perfbench-spans")
        .join(format!("{}-{}.jsonl", args.workload, args.seed))
}

fn print_result(correct: bool, ops: e2e::Ops, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let (w, setup_s, generation_s) = match setup(&args, &mut tr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            print_result(
                false,
                e2e::Ops {
                    attempted: 1,
                    failed: 1,
                },
                &[],
            );
            std::process::exit(1);
        }
    };
    eprintln!(
        "perfbench: {} seed {}: {} packets, {} flows, L = {}, M = {}, y = {}",
        w.name,
        args.seed,
        w.packets.len(),
        w.query_flows.len(),
        w.cfg.counters,
        w.cfg.cache_entries,
        w.cfg.entry_capacity
    );
    let min_rounds = 3;
    // The traced run gives the end-to-end phases half its time and the
    // layer replays and overhead probe the other half.
    let e2e_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let run = e2e::run(&w, e2e_seconds, min_rounds, &mut tr);
    for (phase, segments) in [
        ("ingest", &run.ingest_t),
        ("online", &run.online_t),
        ("query", &run.query_t),
    ] {
        eprintln!(
            "perfbench: {phase:<8} {:>5} passes, segment-quantile totals ms: min {:.3} p10 {:.3} p25 {:.3} median {:.3}",
            segments.totals().len(),
            segments.total_at(0.0) * 1e3,
            segments.total_at(0.1) * 1e3,
            segments.total_at(0.25) * 1e3,
            segments.total_at(0.5) * 1e3,
        );
    }
    let sharded = &run.sharded_s;
    eprintln!(
        "perfbench: sharded  {:>5} passes, pass-time quantiles ms: min {:.3} p10 {:.3} p25 {:.3} median {:.3}",
        sharded.len(),
        quantile(sharded, 0.0) * 1e3,
        quantile(sharded, 0.1) * 1e3,
        quantile(sharded, 0.25) * 1e3,
        median(sharded) * 1e3,
    );
    for (name, reps, q) in [
        ("tcp_query_p50", &run.tcp_query_us, 0.5),
        ("tcp_query_p90", &run.tcp_query_us, 0.9),
        ("tcp_push_p50", &run.tcp_push_us, 0.5),
    ] {
        let pooled: Vec<f64> = reps.iter().flatten().copied().collect();
        eprintln!(
            "perfbench: {name:<14} us: median of repetitions {:.3} pooled {:.3}",
            median_of_reps(reps, q),
            quantile(&pooled, q),
        );
    }
    let mut failures = run.failures.clone();
    let ops = run.ops;

    let metrics = if args.trace {
        let share = Duration::from_secs_f64(args.seconds / 2.0 / 12.0);
        let layers = ledger::replay(&w, &run, share, &mut tr);
        failures.extend(layers.failures.iter().cloned());
        let overhead = tracing_overhead(&w, share, &mut tr);
        let path = args
            .spans_out
            .clone()
            .unwrap_or_else(|| default_spans_path(&args));
        if let Err(e) = tr.write_jsonl(&path) {
            failures.push(format!("writing spans to {}: {e}", path.display()));
        }
        Ok(per_layer(&w, &run, &layers, &tr, &generation_s, overhead))
    } else {
        end_to_end(&w, &run, &setup_s)
    };
    let metrics = metrics.unwrap_or_else(|e| {
        failures.push(e);
        Vec::new()
    });
    if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
        failures.push(format!("metric {} is not finite", bad.name));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perfbench: FAILED: {f}");
        }
        print_result(false, ops, &[]);
        std::process::exit(1);
    }
    for x in &metrics {
        eprintln!("perfbench: {:<40} {:>14.4} {}", x.name, x.value, x.unit);
    }
    print_result(true, ops, &metrics);
}
