//! The timed end-to-end phases, and the correctness gate over their
//! outputs.
//!
//! Every phase drives public functions only, from this process, with at
//! most two busy threads: ingest and query run on the calling thread;
//! the sharded build runs two scoped workers while the caller waits;
//! the online engine runs one worker beside the offering caller; the
//! TCP phase runs one client beside one server connection thread.

use crate::span::Tracer;
use crate::stats::Segments;
use crate::workloads::Workload;
use caesar::{Caesar, ConcurrentCaesar, Estimator, SketchDelta, SketchPayload, ThreadedCaesar};
use service::{DeltaPush, MeasurementClient, MeasurementService, TcpServer, TcpTransport};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Packets per `record_batch` / `offer_batch` call: one NIC drain batch.
pub const BATCH: usize = 4096;
/// Flows per in-process `estimate_all` call of the query phase.
pub const QUERY_CHUNK: usize = 4096;
/// Flows per TCP query request.
pub const QUERY_BATCH: usize = 64;
/// Shards of the sharded build.
pub const SHARDS: usize = 2;

/// Attempted and failed operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Raw samples of one end-to-end run.
pub struct E2e {
    /// Segment seconds of each ingest and online pass.
    pub ingest_t: Segments,
    pub online_t: Segments,
    /// Seconds per pass.
    pub sharded_s: Vec<f64>,
    /// Chunk seconds of each query pass.
    pub query_t: Segments,
    /// Microseconds per round trip, one list per TCP repetition.
    pub tcp_query_us: Vec<Vec<f64>>,
    pub tcp_push_us: Vec<Vec<f64>>,
    /// Bytes of each epoch's `checkpoint_delta`.
    pub checkpoint_bytes: Vec<usize>,
    /// The first epoch's full export; the aggregator's starting point.
    pub first_export: SketchPayload,
    /// Every later push: one delta per epoch boundary, then one for the
    /// cache dump at `finish`.
    pub deltas: Vec<SketchDelta>,
    /// The sequential sketch of the last ingest pass.
    pub sequential: Caesar,
    /// The online engine's finished sketch from the capture pass.
    pub online: ConcurrentCaesar,
    pub are_heavy: f64,
    pub ops: Ops,
    /// Correctness-gate failures, one line each.
    pub failures: Vec<String>,
}

/// Consecutive segment times of one pass.
struct Laps {
    last: Instant,
    times: Vec<f64>,
}

impl Laps {
    fn start() -> Self {
        Self {
            last: Instant::now(),
            times: Vec::new(),
        }
    }

    /// Close the segment running since the last lap.
    fn lap(&mut self) {
        let now = Instant::now();
        self.times.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Leave the time since the last lap out of every segment.
    fn skip(&mut self) {
        self.last = Instant::now();
    }
}

/// Run `pass` once, then again until `slice` is spent.
pub fn for_slice(slice: Duration, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed() >= slice {
            return;
        }
    }
}

/// One sequential ingest pass: `record_batch` over the trace in drain
/// batches, then `finish`. Returns each batch's time and `finish`'s.
pub fn ingest_pass(w: &Workload, tr: &mut Tracer) -> (Vec<f64>, Caesar) {
    let mut c = Caesar::new(w.cfg);
    let outer = tr.enter("e2e.ingest");
    let mut laps = Laps::start();
    tr.span(
        "caesar.pipeline.record_batch",
        w.packets.len() as u64,
        || {
            for chunk in w.packets.chunks(BATCH) {
                c.record_batch(chunk);
                laps.lap();
            }
        },
    );
    tr.span("caesar.pipeline.finish", 1, || c.finish());
    laps.lap();
    tr.exit(outer, w.packets.len() as u64);
    (laps.times, c)
}

/// One sharded build over the whole trace.
pub fn sharded_pass(w: &Workload, tr: &mut Tracer) -> (f64, ConcurrentCaesar) {
    let t = Instant::now();
    let s = tr.span("caesar.concurrent.build", w.packets.len() as u64, || {
        ConcurrentCaesar::build(w.cfg, SHARDS, &w.packets)
    });
    (t.elapsed().as_secs_f64(), s)
}

/// What the capture pass of the online phase keeps.
#[derive(Default)]
pub struct Capture {
    pub checkpoint_bytes: Vec<usize>,
    /// The first epoch's export: the aggregator's first, full push.
    pub first: Option<SketchPayload>,
    /// The latest export, base of the next delta.
    pub last: Option<SketchPayload>,
    /// Epoch `j`'s export against epoch `j-1`'s, based on view epoch
    /// `j` (the aggregator's epoch after `j` pushes).
    pub deltas: Vec<SketchDelta>,
    pub failures: Vec<String>,
}

impl Capture {
    fn push_export(&mut self, cur: SketchPayload) {
        match &self.last {
            None => self.first = Some(cur.clone()),
            Some(prev) => match SketchDelta::between(prev, &cur, self.deltas.len() as u64 + 1) {
                Ok(d) => self.deltas.push(d),
                Err(e) => self
                    .failures
                    .push(format!("delta between epochs failed: {e}")),
            },
        }
        self.last = Some(cur);
    }
}

/// One online pass: a one-worker `ThreadedCaesar` fed epoch by epoch,
/// each epoch closed by `merge_now` + `checkpoint_delta`, then
/// `finish`. Returns the time of the anchoring snapshot, of each
/// epoch's offers, merge and checkpoint, and of `finish`. With
/// `capture`, each epoch's checkpoint size and sketch export are kept
/// (outside the timed segments) and the accounting identity is checked.
pub fn online_pass(
    w: &Workload,
    tr: &mut Tracer,
    ops: &mut Ops,
    mut capture: Option<&mut Capture>,
) -> (Vec<f64>, ConcurrentCaesar) {
    let mut eng = ThreadedCaesar::new(w.cfg, 1);
    let per_epoch = w.packets.len().div_ceil(w.epochs);
    let outer = tr.enter("e2e.online");
    let mut laps = Laps::start();
    tr.span("caesar.threaded.snapshot", 1, || black_box(eng.snapshot()));
    laps.lap();
    let mut offered = 0u64;
    for chunk in w.packets.chunks(per_epoch) {
        tr.span("caesar.threaded.offer", chunk.len() as u64, || {
            for batch in chunk.chunks(BATCH) {
                eng.offer_batch(batch);
            }
        });
        laps.lap();
        offered += chunk.len() as u64;
        tr.span("caesar.threaded.merge_now", 1, || eng.merge_now());
        laps.lap();
        let ckpt = tr.span("caesar.threaded.checkpoint_delta", 1, || {
            eng.checkpoint_delta()
        });
        laps.lap();
        let Some(cap) = capture.as_deref_mut() else {
            black_box(ckpt.ok());
            continue;
        };
        match ckpt {
            Ok(bytes) => cap.checkpoint_bytes.push(bytes.len()),
            Err(e) => cap.failures.push(format!("checkpoint_delta failed: {e:?}")),
        }
        cap.push_export(eng.export_sketch());
        let st = eng.stats();
        if st.offered != offered
            || st.offered != st.recorded + st.dropped + st.quarantined + st.in_flight
            || st.in_flight != 0
        {
            cap.failures.push(format!(
                "accounting identity broken after epoch {}: {st:?} with {offered} offered",
                st.epoch
            ));
        }
        laps.skip();
    }
    let st = eng.stats();
    ops.attempted += st.offered;
    ops.failed += st.dropped + st.quarantined;
    let sketch = tr.span("caesar.threaded.finish", 1, || eng.finish());
    laps.lap();
    tr.exit(outer, w.packets.len() as u64);
    (laps.times, sketch)
}

/// One in-process query pass: CSM over every flow, in request-sized
/// chunks. Returns each chunk's time.
pub fn query_pass(w: &Workload, seq: &Caesar, tr: &mut Tracer) -> Vec<f64> {
    let mut laps = Laps::start();
    tr.span("caesar.query.csm", w.query_flows.len() as u64, || {
        for chunk in w.query_flows.chunks(QUERY_CHUNK) {
            black_box(seq.estimate_all(chunk, Estimator::Csm));
            laps.lap();
        }
    });
    laps.times
}

/// The 64 query flows of batch `b` (windows over the flow list, wrapping).
pub fn query_batch(flows: &[u64], b: usize, out: &mut Vec<u64>) -> usize {
    let start = (b * QUERY_BATCH) % flows.len();
    out.clear();
    out.extend((0..QUERY_BATCH).map(|j| flows[(start + j) % flows.len()]));
    start
}

/// Inputs of the TCP phase, fixed by the capture pass.
pub struct TcpPlan<'a> {
    pub first: &'a SketchPayload,
    pub deltas: &'a [SketchDelta],
    /// Expected answer bits for every entry of `query_flows`.
    pub expected: &'a [u64],
    /// The finished sketch the aggregator's view must equal.
    pub finished: &'a ConcurrentCaesar,
}

/// One TCP repetition against a fresh aggregator: push the first epoch
/// in full and every later epoch as a delta (with `queries_per_push`
/// query batches after each), then `storm_queries` query batches whose
/// answers are checked against the in-process ones. One client, one
/// connection, closed loop.
///
/// Returns the push and query round trips in microseconds.
pub fn tcp_rep(
    w: &Workload,
    plan: &TcpPlan<'_>,
    rep: usize,
    tr: &mut Tracer,
    ops: &mut Ops,
    failures: &mut Vec<String>,
) -> (Vec<f64>, Vec<f64>) {
    let mut push_us = Vec::new();
    let mut query_us = Vec::new();
    let svc = Arc::new(MeasurementService::new(w.cfg));
    let server = match TcpServer::spawn(Arc::clone(&svc), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            ops.attempted += 1;
            ops.failed += 1;
            failures.push(format!("aggregator bind failed: {e}"));
            return (push_us, query_us);
        }
    };
    let fp = svc.fingerprint();
    let client =
        TcpTransport::connect(server.addr()).and_then(|t| MeasurementClient::connect(t, &fp));
    ops.attempted += 1;
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            ops.failed += 1;
            failures.push(format!("client connect failed: {e}"));
            server.stop();
            return (push_us, query_us);
        }
    };
    let outer = tr.enter("e2e.tcp");
    let mut batch = Vec::with_capacity(QUERY_BATCH);
    let mut b = rep * 7919;
    let mut query = |client: &mut MeasurementClient<TcpTransport>,
                     tr: &mut Tracer,
                     ops: &mut Ops,
                     verify: bool|
     -> Option<String> {
        let start = query_batch(&w.query_flows, b, &mut batch);
        b += 1;
        ops.attempted += 1;
        let t = Instant::now();
        let answer = tr.span("service.tcp.query", 1, || client.query(&batch));
        query_us.push(t.elapsed().as_secs_f64() * 1e6);
        match answer {
            Err(e) => {
                ops.failed += 1;
                Some(format!("query failed: {e}"))
            }
            Ok((_, values)) if verify => {
                let n = plan.expected.len();
                let bad = values.len() != QUERY_BATCH
                    || values
                        .iter()
                        .enumerate()
                        .any(|(j, v)| v.to_bits() != plan.expected[(start + j) % n]);
                bad.then(|| {
                    format!("TCP answers differ from in-process estimate_all at flow {start}")
                })
            }
            Ok(_) => None,
        }
    };

    ops.attempted += 1;
    let t = Instant::now();
    let full = tr.span("service.tcp.push", 1, || client.push_sketch(plan.first));
    push_us.push(t.elapsed().as_secs_f64() * 1e6);
    if let Err(e) = full {
        ops.failed += 1;
        failures.push(format!("full push failed: {e}"));
    }
    for delta in plan.deltas {
        ops.attempted += 1;
        let t = Instant::now();
        let pushed = tr.span("service.tcp.push", 1, || client.push_delta(delta));
        push_us.push(t.elapsed().as_secs_f64() * 1e6);
        match pushed {
            Ok(DeltaPush::Accepted(_)) => {}
            Ok(DeltaPush::Stale { epoch }) => {
                ops.failed += 1;
                failures.push(format!(
                    "delta at base {} refused as stale at {epoch}",
                    delta.base_epoch
                ));
                if let Err(e) = client.resync_after_nack(delta) {
                    failures.push(format!("resync failed: {e}"));
                }
            }
            Err(e) => {
                ops.failed += 1;
                failures.push(format!("delta push failed: {e}"));
            }
        }
        for _ in 0..w.queries_per_push {
            failures.extend(query(&mut client, tr, ops, false));
        }
    }
    for _ in 0..w.storm_queries {
        if let Some(f) = query(&mut client, tr, ops, true) {
            failures.push(f);
            break;
        }
    }
    tr.exit(outer, 0);
    drop(client);
    server.stop();
    if rep == 0 {
        let same = svc.with_view(|view, _| {
            view.sram().snapshot() == plan.finished.sram().snapshot()
                && view.sram().total_added() == plan.finished.sram().total_added()
        });
        if !same {
            failures.push("aggregator view differs from the online engine's sketch".into());
        }
    }
    (push_us, query_us)
}

/// Sketch seeds `are_heavy` averages over: one heavy flow colliding
/// with a large one moves a single sketch's mean error by a fifth, so
/// the metric takes the mean over several hash families (with four, it
/// still spread 11% over ten bursty_query seeds).
const ARE_SKETCH_SEEDS: u64 = 8;

/// Average relative error of CSM estimates over the heavy flows, for
/// `seq` and for `ARE_SKETCH_SEEDS - 1` more sequential sketches of the
/// same trace under other sketch seeds; the mean over all of them.
pub fn are_heavy(w: &Workload, seq: &Caesar) -> f64 {
    let heavy = w.heavy_flows();
    let flows: Vec<u64> = heavy.iter().map(|&(f, _)| f).collect();
    let are = |sketch: &Caesar| {
        let est = sketch.estimate_all(&flows, Estimator::Csm);
        let sum: f64 = heavy
            .iter()
            .zip(&est)
            .map(|(&(_, n), e)| (e.clamped() - n as f64).abs() / n as f64)
            .sum();
        sum / heavy.len().max(1) as f64
    };
    let mut total = are(seq);
    for s in 1..ARE_SKETCH_SEEDS {
        let mut c = Caesar::new(caesar::CaesarConfig {
            seed: w.cfg.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..w.cfg
        });
        for chunk in w.packets.chunks(BATCH) {
            c.record_batch(chunk);
        }
        c.finish();
        total += are(&c);
    }
    total / ARE_SKETCH_SEEDS as f64
}

/// Time one round gives each of ingest and the sharded build: whole
/// passes until this is spent, so a short trace still yields enough
/// passes beside the online engine's long one.
const PASS_SLICE: Duration = Duration::from_millis(60);

/// Time one round gives the query phase: one unrecorded pass to bring
/// the sketch back into cache after the other phases, then whole passes
/// until this is spent.
const QUERY_SLICE: Duration = Duration::from_millis(25);

/// Run every phase on `w` for about `seconds`, in rounds: each round
/// runs a slice of ingest passes, a slice of sharded builds, one online
/// pass, a slice of query passes and one TCP repetition, so a slow
/// spell of the host lands on every phase alike. One warm-up round
/// goes unrecorded; at least `min_rounds` rounds are recorded.
pub fn run(w: &Workload, seconds: f64, min_rounds: usize, tr: &mut Tracer) -> E2e {
    let n = w.packets.len() as u64;
    let mut ops = Ops::default();
    let mut failures = Vec::new();

    // Warm-up round. The online capture pass keeps every epoch's
    // checkpoint size and delta; its last delta carries the cache dump
    // of `finish`.
    let traced = tr.enabled();
    tr.set_enabled(false);
    let (_, mut sequential) = ingest_pass(w, tr);
    let (_, mut sharded) = sharded_pass(w, tr);
    let mut cap = Capture::default();
    let (_, online) = online_pass(w, tr, &mut ops, Some(&mut cap));
    black_box(query_pass(w, &sequential, tr));
    tr.set_enabled(traced);
    cap.push_export(online.export_sketch());
    failures.append(&mut cap.failures);
    ops.attempted += 2 * n + w.query_flows.len() as u64;

    let first_export = cap.first.expect("the capture pass exports every epoch");
    let deltas = cap.deltas;
    let expected: Vec<u64> = online
        .estimate_all(&w.query_flows, w.cfg.estimator)
        .iter()
        .map(|e| e.clamped().to_bits())
        .collect();
    let plan = TcpPlan {
        first: &first_export,
        deltas: &deltas,
        expected: &expected,
        finished: &online,
    };

    let mut ingest_t = Segments::default();
    let mut sharded_s = Vec::new();
    let mut online_t = Segments::default();
    let mut query_t = Segments::default();
    let mut tcp_push_us = Vec::new();
    let mut tcp_query_us = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed().as_secs_f64() < seconds {
        for_slice(PASS_SLICE, || {
            let (d, c) = ingest_pass(w, tr);
            ingest_t.push(d);
            sequential = c;
            ops.attempted += n;
        });
        for_slice(PASS_SLICE, || {
            let (d, s) = sharded_pass(w, tr);
            sharded_s.push(d);
            sharded = s;
            ops.attempted += n;
        });
        online_t.push(online_pass(w, tr, &mut ops, None).0);
        black_box(query_pass(w, &sequential, tr));
        ops.attempted += w.query_flows.len() as u64;
        for_slice(QUERY_SLICE, || {
            query_t.push(query_pass(w, &sequential, tr));
            ops.attempted += w.query_flows.len() as u64;
        });
        let (push_us, query_us) = tcp_rep(w, &plan, round, tr, &mut ops, &mut failures);
        tcp_push_us.push(push_us);
        tcp_query_us.push(query_us);
        round += 1;
    }

    check_sketches(w, &sequential, &sharded, &online, &mut failures);
    let are = are_heavy(w, &sequential);
    E2e {
        ingest_t,
        sharded_s,
        online_t,
        query_t,
        tcp_query_us,
        tcp_push_us,
        checkpoint_bytes: cap.checkpoint_bytes,
        first_export,
        deltas,
        sequential,
        online,
        are_heavy: are,
        ops,
        failures,
    }
}

/// The sketch-level gate: mass conservation in every engine, and the
/// online engine byte-identical to a build over the same stream.
fn check_sketches(
    w: &Workload,
    seq: &Caesar,
    sharded: &ConcurrentCaesar,
    online: &ConcurrentCaesar,
    failures: &mut Vec<String>,
) {
    let n = w.packets.len() as u64;
    let mut mass = |engine: &str, sum: u64, added: u64| {
        if sum != n || added != n {
            failures.push(format!(
                "{engine}: SRAM mass {sum} (offered units {added}) != {n} packets"
            ));
        }
    };
    mass("sequential", seq.sram().sum(), seq.sram().total_added());
    mass(
        "sharded",
        sharded.sram().sum(),
        sharded.sram().total_added(),
    );
    mass("online", online.sram().sum(), online.sram().total_added());
    let reference = ConcurrentCaesar::build(w.cfg, 1, &w.packets);
    if online.sram().snapshot() != reference.sram().snapshot()
        || online.sram().total_added() != reference.sram().total_added()
    {
        failures.push("online finish() counters differ from ConcurrentCaesar::build".into());
    }
    if seq.sram().as_slice() != reference.sram().snapshot().as_slice() {
        failures.push("sequential counters differ from the one-shard build".into());
    }
}
