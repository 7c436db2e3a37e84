//! The traced run's layer replays.
//!
//! Each layer is driven alone through its crate's public functions on
//! the same inputs the end-to-end phases used, inside a span, so its
//! self time per unit of work can be set against the end-to-end phase
//! it belongs to.

use crate::e2e::{self, for_slice, E2e, QUERY_BATCH, SHARDS};
use crate::span::Tracer;
use crate::workloads::Workload;
use cachesim::{CacheConfig, CacheTable};
use caesar::update::spread_eviction_scratch;
use caesar::{ConcurrentCaesar, CounterArray, Estimator, SketchDelta, SketchPayload};
use hashkit::KCounterMap;
use service::{InProcess, MeasurementClient, MeasurementService, Request, Response};
use std::hint::black_box;
use std::time::{Duration, Instant};
use support::rand::rngs::StdRng;
use support::rand::SeedableRng;
use support::spsc;

/// Counts the replays observe, beside the span times.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub hit_ratio: f64,
    pub evictions: u64,
    /// Packets routed to the busiest shard.
    pub max_shard_packets: u64,
    /// Mean share of counter blocks a delta carries.
    pub dirty_block_ratio: f64,
    /// In-process (no socket) 64-flow query round trips, microseconds.
    pub inprocess_query_us: Vec<f64>,
    pub failures: Vec<String>,
}

/// Replay every layer, each for about `budget` (at least one pass).
pub fn replay(w: &Workload, run: &E2e, budget: Duration, tr: &mut Tracer) -> LayerCounts {
    let mut out = LayerCounts::default();
    let cfg = w.cfg;
    let n = w.packets.len() as u64;

    // hashkit: the k counter indices of every flow.
    let kmap = KCounterMap::new(cfg.k, cfg.counters, cfg.seed ^ 0x5EED_5EED);
    let mut row = vec![0usize; cfg.k];
    for_slice(budget, || {
        tr.span("hashkit.fill", w.query_flows.len() as u64, || {
            for &f in &w.query_flows {
                black_box(kmap.fill_indices(f, &mut row));
            }
        });
    });

    // cachesim: the cache alone over the trace.
    let cache_cfg = CacheConfig {
        entries: cfg.cache_entries,
        entry_capacity: cfg.entry_capacity,
        policy: cfg.policy,
        seed: cfg.seed ^ 0xA11C_E5ED,
    };
    for_slice(budget, || {
        let mut cache = CacheTable::new(cache_cfg);
        tr.span("cachesim.record", n, || {
            let mut acc = 0u32;
            for &f in &w.packets {
                acc ^= cache.record_slotted(f).slot;
            }
            black_box(acc);
        });
    });
    // The eviction stream, captured once outside any span.
    let mut cache = CacheTable::new(cache_cfg);
    let mut evictions: Vec<(u64, u64)> = Vec::new();
    for &f in &w.packets {
        if let Some(ev) = cache.record_slotted(f).eviction {
            evictions.push((ev.flow, ev.value));
        }
    }
    let stats = cache.stats();
    out.hit_ratio = stats.hit_rate();
    cache.drain_with(|_, ev| evictions.push((ev.flow, ev.value)));
    out.evictions = evictions.len() as u64;

    // caesar.update: spread the captured evictions into a counter array.
    let k = cfg.k;
    let mut rows = vec![0usize; evictions.len() * k];
    for (r, &(flow, _)) in rows.chunks_exact_mut(k).zip(&evictions) {
        kmap.fill_indices(flow, r);
    }
    let mut mass = 0;
    for_slice(budget, || {
        let mut sram = CounterArray::new(cfg.counters, cfg.counter_bits);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0D15_EA5E);
        let mut scratch = [0u64; hashkit::K_MAX];
        tr.span("caesar.update.spread", evictions.len() as u64, || {
            for (r, &(_, value)) in rows.chunks_exact(k).zip(&evictions) {
                spread_eviction_scratch(&mut sram, r, value, &mut rng, &mut scratch);
            }
        });
        mass = sram.sum();
    });
    if mass != n {
        out.failures
            .push(format!("eviction replay: SRAM mass {mass} != {n} packets"));
    }
    drop((rows, evictions));

    // caesar.concurrent: the RSS partition alone.
    for_slice(budget, || {
        let mut per_shard = [0u64; SHARDS];
        tr.span("caesar.concurrent.partition", n, || {
            for &f in &w.packets {
                per_shard[ConcurrentCaesar::shard_of(f, SHARDS, cfg.seed)] += 1;
            }
        });
        out.max_shard_packets = per_shard.into_iter().max().unwrap_or(0);
    });

    // support::spsc: the trace through one ring, producer to consumer.
    let expected: u64 = w.packets.iter().fold(0, |a, &f| a.wrapping_add(f));
    let mut got = 0;
    for_slice(budget, || {
        let (mut tx, mut rx) = spsc::ring::<u64>(caesar::DEFAULT_RING_CAPACITY);
        got = tr.span("support.spsc.handoff", n, || {
            std::thread::scope(|s| {
                let consumer = s.spawn(move || {
                    let mut buf = Vec::with_capacity(e2e::BATCH);
                    let mut sum = 0u64;
                    loop {
                        buf.clear();
                        if rx.pop_batch_blocking(&mut buf, e2e::BATCH) == 0 {
                            return sum;
                        }
                        sum = buf.iter().fold(sum, |a, &f| a.wrapping_add(f));
                    }
                });
                let mut backoff = spsc::Backoff::new();
                let mut rest = &w.packets[..];
                while !rest.is_empty() {
                    let pushed = tx.push_slice(rest);
                    rest = &rest[pushed..];
                    if pushed == 0 {
                        backoff.wait();
                    } else {
                        backoff.reset();
                    }
                }
                drop(tx);
                consumer.join().expect("ring consumer thread")
            })
        });
    });
    if got != expected {
        out.failures
            .push("ring hand-off lost or altered packets".into());
    }

    // caesar.query: the other estimator and the health query.
    for_slice(budget, || {
        tr.span("caesar.query.mlm", w.query_flows.len() as u64, || {
            black_box(run.sequential.estimate_all(&w.query_flows, Estimator::Mlm))
        });
    });
    for_slice(budget, || {
        tr.span("caesar.query.health", w.query_flows.len() as u64, || {
            for &f in &w.query_flows {
                black_box(run.online.query_health(f));
            }
        });
    });

    codec(w, run, budget, tr, &mut out);
    server(w, run, budget, tr, &mut out);
    out
}

/// caesar.merge: delta diff and both codecs over the epoch exports.
fn codec(w: &Workload, run: &E2e, budget: Duration, tr: &mut Tracer, out: &mut LayerCounts) {
    let blocks = w.cfg.counters.div_ceil(caesar::DIRTY_BLOCK_COUNTERS);
    out.dirty_block_ratio = run
        .deltas
        .iter()
        .map(|d| d.blocks.len() as f64 / blocks as f64)
        .sum::<f64>()
        / run.deltas.len().max(1) as f64;
    let mut first_pass = true;
    for_slice(budget, || {
        let mut prev = run.first_export.clone();
        for (j, d) in run.deltas.iter().enumerate() {
            let cur = apply(&prev, d);
            let delta = tr.span("caesar.merge.delta_between", 1, || {
                SketchDelta::between(&prev, &cur, j as u64 + 1)
            });
            if delta.as_ref() != Ok(d) {
                out.failures
                    .push("delta diff replay differs from the captured delta".into());
                return;
            }
            let bytes = tr.span("caesar.merge.delta_encode", 1, || d.encode());
            let back = tr.span("caesar.merge.delta_decode", 1, || {
                SketchDelta::decode(&bytes)
            });
            if back.as_ref() != Ok(d) {
                out.failures.push("delta codec round trip differs".into());
                return;
            }
            let bytes = tr.span("caesar.merge.payload_encode", 1, || cur.encode());
            let back = tr.span("caesar.merge.payload_decode", 1, || {
                SketchPayload::decode(&bytes)
            });
            if back.as_ref() != Ok(&cur) {
                out.failures.push("payload codec round trip differs".into());
                return;
            }
            prev = cur;
        }
        if std::mem::take(&mut first_pass) && prev != run.online.export_sketch() {
            out.failures
                .push("first export plus every delta differs from the final sketch".into());
        }
    });
}

/// `prev` with `delta`'s increments added: the export the delta was
/// diffed against.
fn apply(prev: &SketchPayload, delta: &SketchDelta) -> SketchPayload {
    let mut next = prev.clone();
    for (block, increments) in &delta.blocks {
        let start = block * caesar::DIRTY_BLOCK_COUNTERS;
        for (c, inc) in next.counters[start..].iter_mut().zip(increments) {
            *c += inc;
        }
    }
    next.total_added += delta.total_added_delta;
    next.saturation_events += delta.saturation_events_delta;
    next.evictions += delta.evictions_delta;
    next
}

/// service: the aggregator's frame handler without a socket, and the
/// in-process client.
fn server(w: &Workload, run: &E2e, budget: Duration, tr: &mut Tracer, out: &mut LayerCounts) {
    let mut batch = Vec::with_capacity(QUERY_BATCH);
    let mut b = 0;
    for_slice(budget, || {
        let svc = MeasurementService::new(w.cfg);
        let pushes = std::iter::once(Request::PushSketch(run.first_export.clone()))
            .chain(run.deltas.iter().map(|d| Request::PushDelta(d.clone())));
        for request in pushes {
            let frame = request.encode();
            let reply = tr.span("service.server.handle_push", 1, || {
                svc.handle_payload(&frame)
            });
            if !matches!(Response::decode(&reply), Ok(Response::PushAck { .. })) {
                out.failures
                    .push("in-process push was not acknowledged".into());
                return;
            }
        }
        for _ in 0..256 {
            e2e::query_batch(&w.query_flows, b, &mut batch);
            b += 1;
            let frame = Request::Query(batch.clone()).encode();
            let reply = tr.span("service.server.handle_query", 1, || {
                svc.handle_payload(&frame)
            });
            black_box(reply);
        }
        let fp = svc.fingerprint();
        let Ok(mut client) = MeasurementClient::connect(InProcess::new(&svc), &fp) else {
            out.failures
                .push("in-process client handshake failed".into());
            return;
        };
        for _ in 0..256 {
            e2e::query_batch(&w.query_flows, b, &mut batch);
            b += 1;
            let t = Instant::now();
            let answer = tr.span("service.inprocess.query", 1, || client.query(&batch));
            out.inprocess_query_us.push(t.elapsed().as_secs_f64() * 1e6);
            if answer.is_err() {
                out.failures.push("in-process query failed".into());
                return;
            }
        }
    });
}
