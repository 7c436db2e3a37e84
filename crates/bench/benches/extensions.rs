//! Benchmarks for the systems built beyond the paper's core: Counter
//! Braids (construction + min-sum decode), SAC counters, the sampling
//! baseline, the sharded concurrent build, epoch rotation, and the
//! event-driven pipeline model.
//!
//! Runs on the vendored `support::timing::Harness`; bench names are
//! stable across harness changes.

use baselines::{
    AnlsCounter, BraidsConfig, CedarScale, CounterBraids, LossModel, Rcs, RcsConfig,
    SacCounter, SampledCounter, SamplingConfig, Vhc, VhcConfig,
};
use bench::{bench_config, bench_trace, linerate_bench_trace};
use caesar::SketchRead;
use caesar::epochs::EpochedCaesar;
use caesar::{
    Caesar, CaesarConfig, ConcurrentCaesar, Estimator, OnlineCaesar, SketchDelta, ThreadedCaesar,
};
use experiments::zoo::{online_engine, stress_plan, zoo_config, ONLINE_SHARDS};
use flowtrace::zoo::{standard_zoo, ZOO_SEED};
use memsim::{PacketWork, Pipeline};
use service::{
    InProcess, MeasurementClient, MeasurementService, Request, Response, TcpServer, TcpTransport,
};
use std::hint::black_box;
use support::rand::{rngs::StdRng, SeedableRng};
use support::timing::Harness;

fn braids() {
    let (trace, truth) = bench_trace();
    let mut g = Harness::new("braids");
    let cfg = BraidsConfig {
        layer1_counters: trace.num_flows * 3,
        layer2_counters: trace.num_flows / 4,
        ..BraidsConfig::default()
    };
    g.bench("construct", || {
        let mut cb = CounterBraids::new(cfg);
        for p in &trace.packets {
            cb.record(p.flow);
        }
        black_box(cb.stats().accesses);
    });
    let mut cb = CounterBraids::new(cfg);
    for p in &trace.packets {
        cb.record(p.flow);
    }
    let ids: Vec<u64> = truth.keys().copied().collect();
    g.bench("min_sum_decode", || {
        black_box(cb.decode(&ids, 60));
    });
    g.finish();
}

fn sac_and_sampling() {
    let mut g = Harness::new("single_counter");
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_n("sac_10k_units", 100, {
        let rng = &mut rng;
        move || {
            let mut s = SacCounter::new(8, 4, 1);
            s.add(10_000, rng);
            black_box(s.estimate());
        }
    });
    let mut rng = StdRng::seed_from_u64(1);
    let anls_proto = AnlsCounter::for_range(12, 1e6);
    g.bench_n("anls_10k_units", 100, {
        let rng = &mut rng;
        move || {
            let mut a = anls_proto;
            a.add(10_000, rng);
            black_box(a.estimate());
        }
    });
    let mut rng = StdRng::seed_from_u64(1);
    let cedar = CedarScale::new(12, 0.1);
    g.bench_n("cedar_10k_units", 100, {
        let rng = &mut rng;
        move || {
            black_box(cedar.estimate(cedar.add(0, 10_000, rng)));
        }
    });
    g.finish();

    let (trace, _) = bench_trace();
    let mut g = Harness::new("vhc");
    g.bench("record_trace", || {
        let mut v = Vhc::new(VhcConfig {
            registers: 1 << 14,
            virtual_registers: 128,
            seed: 1,
        });
        for p in &trace.packets {
            v.record(p.flow);
        }
        black_box(v.total_estimate());
    });
    g.finish();

    let mut g = Harness::new("sampling");
    g.bench("netflow_p01_trace", || {
        let mut s = SampledCounter::new(SamplingConfig {
            rate: 0.01,
            ..SamplingConfig::default()
        });
        for p in &trace.packets {
            s.record(p.flow);
        }
        black_box(s.table_entries());
    });
    g.finish();
}

fn concurrent_and_epochs() {
    let (trace, _) = bench_trace();
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    // Stable names "1"/"2"/"4" keep measuring the slice build — the
    // single-pass partitioned pipeline. The ring-fed transport is
    // priced by the thread runtime rows in group "online".
    let mut g = Harness::new("concurrent_build");
    for shards in [1usize, 2, 4] {
        g.bench(&shards.to_string(), || {
            black_box(ConcurrentCaesar::build(bench_config(), shards, &flows));
        });
    }
    // The line-rate regime (cache sized to the working set) isolates
    // the ingest pipeline itself.
    let (linerate, _) = linerate_bench_trace();
    let lflows: Vec<u64> = linerate.packets.iter().map(|p| p.flow).collect();
    g.bench("linerate_4", || {
        black_box(ConcurrentCaesar::build(bench_config(), 4, &lflows));
    });
    g.finish();

    // The supervised online engine: SPSC rings and striped writeback
    // segments, single-owner, supervised and non-terminating.
    // `steady_state_*` is the packet-at-a-time offer loop incl. epoch
    // merges and the final drain; against concurrent_build/N in the
    // same trajectory file it prices the streaming, supervised shape
    // over the slice build. `snapshot_roundtrip_4` prices a mid-stream
    // checkpoint (serialize + restore + one resumed epoch).
    let mut g = Harness::new("online");
    for shards in [1usize, 4] {
        g.bench(&format!("steady_state_{shards}"), || {
            let mut o = OnlineCaesar::new(bench_config(), shards);
            for &f in &flows {
                o.offer(f);
            }
            black_box(o.finish());
        });
    }
    // The detached-thread runtime: same offer loop as
    // `steady_state_*`, but the shard workers are real OS threads
    // under heartbeat supervision, so this prices the thread-runtime
    // tax (ring hand-off, heartbeat stores, supervised drains) against
    // online/steady_state_N in the same trajectory file.
    for shards in [1usize, 4] {
        g.bench(&format!("threaded_steady_state_{shards}"), || {
            let mut t = ThreadedCaesar::new(bench_config(), shards);
            t.offer_batch(&flows);
            black_box(t.finish());
        });
    }
    g.bench("snapshot_roundtrip_4", || {
        let mut o = OnlineCaesar::new(bench_config(), 4);
        let half = flows.len() / 2;
        for &f in &flows[..half] {
            o.offer(f);
        }
        let snap = o.snapshot();
        let mut o = OnlineCaesar::restore(&snap).expect("bench restore");
        for &f in &flows[half..] {
            o.offer(f);
        }
        black_box((snap.len(), o.finish()));
    });
    g.finish();

    let mut g = Harness::new("epochs");
    g.bench("rotate_8_epochs", || {
        let mut e = EpochedCaesar::new(bench_config(), 8);
        for chunk in flows.chunks(flows.len() / 8) {
            for &f in chunk {
                e.record(f);
            }
            e.rotate();
        }
        black_box(e.epochs().count());
    });
    g.finish();
}

fn parallel_query() {
    // The PR 3 batch query engine against the concurrent sketch's
    // atomic SRAM: per-call sweep (the "before") vs the zero-alloc
    // batch kernel at widths 1/2/4. Thread widths resolve against
    // available_parallelism, and results are bit-identical at every
    // width (tests/hotpath_equivalence.rs), so the numbers isolate
    // kernel + scheduling cost, never accuracy.
    let (trace, truth) = bench_trace();
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    let sketch = ConcurrentCaesar::build(bench_config(), 4, &flows);
    let population: Vec<u64> = truth.keys().copied().collect();
    let mut g = Harness::new("parallel_query");
    for (label, estimator) in [("csm", Estimator::Csm), ("mlm", Estimator::Mlm)] {
        g.bench(&format!("{label}_per_call"), || {
            let mut acc = 0.0;
            for &f in &population {
                acc += sketch.estimate(f, estimator).value;
            }
            black_box(acc);
        });
        for t in [1usize, 2, 4] {
            g.bench(&format!("{label}_batch_t{t}"), || {
                black_box(sketch.estimate_all_threads(&population, estimator, t));
            });
        }
    }
    g.finish();
}

fn pipeline_and_rcs() {
    let mut g = Harness::new("timing_models");
    let n = 200_000usize;
    g.bench("pipeline_200k_events", || {
        let p = Pipeline::default();
        black_box(p.run((0..n).map(|i| {
            if i % 20 == 0 {
                PacketWork { writebacks: 6, compute_ns: 0.0 }
            } else {
                PacketWork::HIT
            }
        })));
    });
    let (trace, _) = bench_trace();
    g.bench("rcs_lossy_queue_trace", || {
        let mut r = Rcs::new(RcsConfig {
            counters: 2048,
            k: 3,
            loss: LossModel::Queue(memsim::IngressQueue {
                arrival_ns: 1.0,
                service_ns: 10.0,
                capacity: 64,
            }),
            seed: 3,
        });
        for p in &trace.packets {
            r.record(p.flow);
        }
        black_box(r.stats().loss_rate());
    });
    g.finish();
}

fn zoo_ingest() {
    // The PR 6 workload zoo: one sequential-ingest bench per family at
    // a fixed ~2 K-flow scale, each sketch sized from its own trace by
    // `experiments::zoo::zoo_config` so every family runs at the
    // paper's intensive operating point. The per-family numbers price
    // how each traffic *shape* loads the cache/SRAM pipeline (the CDN
    // shape is nearly all cache hits, the mouse flood nearly all
    // evictions). `mouse_flood_online_stressed` additionally prices
    // the supervised online path under its shipped stress plan
    // (stalled shard-0 lane, tail-drop ring) — the cost of shedding,
    // not just recording.
    let zoo = standard_zoo(2_000).expect("standard zoo parameters are valid");
    let mut g = Harness::new("zoo_ingest");
    for w in &zoo {
        let (trace, _) = w.generate(ZOO_SEED);
        let cfg = zoo_config(&trace);
        g.bench(w.name(), || {
            let mut c = Caesar::new(cfg);
            for p in &trace.packets {
                c.record(p.flow);
            }
            c.finish();
            black_box(c.sram().total_added());
        });
    }
    let mouse = &zoo[4];
    let (trace, _) = mouse.generate(ZOO_SEED);
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    let cfg = zoo_config(&trace);
    let plan = stress_plan(mouse.name());
    g.bench("mouse_flood_online_stressed", || {
        let mut o = online_engine(cfg, &plan, ONLINE_SHARDS);
        o.offer_batch(&flows);
        o.merge_now();
        black_box(o.stats().dropped);
    });
    g.finish();
}

fn zoo_merge_and_service() {
    // PR 7: the cluster-view path. `zoo_merge` prices folding three
    // taps' frozen sketches into an empty cluster view, per family —
    // merge cost is O(L) counter adds and the per-family `zoo_config`
    // geometry makes L a function of traffic shape, so families
    // differ. `service` prices the wire: payload codec, the in-process
    // push + 64-flow query through the full frame path, and the same
    // query over a live loopback TCP socket.
    let zoo = standard_zoo(2_000).expect("standard zoo parameters are valid");
    let mut g = Harness::new("zoo_merge");
    let mut cdn_setup = None;
    for w in &zoo {
        let (trace, _) = w.generate(ZOO_SEED);
        let cfg = zoo_config(&trace);
        let packets: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
        let mut slices: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (i, &f) in packets.iter().enumerate() {
            slices[i % 3].push(f);
        }
        let payloads: Vec<caesar::SketchPayload> = slices
            .iter()
            .map(|s| ConcurrentCaesar::build(cfg, 2, s).export_sketch())
            .collect();
        g.bench(&format!("merge_3_taps_{}", w.name()), || {
            let mut cluster = ConcurrentCaesar::empty(cfg);
            for p in &payloads {
                cluster.merge_sketch(p).expect("same fleet config");
            }
            black_box(cluster.sram().total_added());
        });
        if w.name() == "cdn" {
            let flow_sample: Vec<u64> = packets.iter().step_by(97).take(64).copied().collect();
            cdn_setup = Some((cfg, payloads, flow_sample));
        }
    }
    g.finish();

    let (cfg, payloads, flow_sample) = cdn_setup.expect("zoo has the cdn family");
    let mut g = Harness::new("service");
    g.bench("payload_encode_decode", || {
        let bytes = payloads[0].encode();
        black_box(caesar::SketchPayload::decode(&bytes).expect("round trip"));
    });
    g.bench("inprocess_push3_query64", || {
        let svc = MeasurementService::new(cfg);
        let mut client =
            MeasurementClient::connect(InProcess::new(&svc), &svc.fingerprint()).expect("hello");
        for p in &payloads {
            client.push_sketch(p).expect("push");
        }
        let (_, values) = client.query(&flow_sample).expect("query");
        black_box(values);
    });
    let svc = std::sync::Arc::new(MeasurementService::new(cfg));
    for p in &payloads {
        let ack = Response::decode(&svc.handle_payload(&Request::push_sketch_payload(p)))
            .expect("ack decodes");
        assert!(matches!(ack, Response::PushAck { .. }), "push: {ack:?}");
    }
    let server = TcpServer::spawn(std::sync::Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut client = MeasurementClient::connect(
        TcpTransport::connect(server.addr()).expect("connect"),
        &svc.fingerprint(),
    )
    .expect("hello");
    g.bench("tcp_query64_round_trip", || {
        let (_, values) = client.query(&flow_sample).expect("query");
        black_box(values);
    });
    g.finish();
    drop(client);
    server.stop();
}

/// Emit a frame size as a pseudo-result in the trajectory JSON schema:
/// the `*_bytes_*` names carry **bytes, not nanoseconds** in the `ns`
/// fields, so size wins land in `BENCH_PR*.json` next to the time wins
/// and ride the same diff tooling.
fn emit_bytes(group: &str, name: &str, bytes: usize) {
    let r = support::timing::BenchResult {
        group: group.to_string(),
        name: name.to_string(),
        median_ns: bytes as u128,
        min_ns: bytes as u128,
        max_ns: bytes as u128,
        samples: 1,
    };
    println!("{}", r.to_json());
}

fn checkpoint_and_delta() {
    // PR 9: epoch-delta checkpoints. A full `snapshot_into` re-seals
    // all L counters every epoch; `checkpoint_delta_into` seals only
    // the blocks dirtied since the last checkpoint. Both sides of each
    // pair ingest the same low-churn epoch (256 packets of one hot
    // flow, then a drain) before serializing into a reused buffer, so
    // the measured gap is serialization cost alone. The headline pair
    // is `snapshot_full_large_l` vs `delta_low_churn_large_l` at
    // L=32768, with the matching frame sizes in the `*_bytes_*`
    // pseudo-results.
    let mut g = Harness::new("checkpoint");
    for (tag, l) in [("small_l", 2_048usize), ("large_l", 32_768)] {
        let cfg = CaesarConfig {
            cache_entries: 64,
            entry_capacity: 16,
            counters: l,
            k: 3,
            seed: 0x9E37 ^ l as u64,
            ..CaesarConfig::default()
        };
        let hot = hashkit::mix::mix64(7);
        let warm_engine = || {
            // Broad churn warms counters across the whole array before
            // the chain is anchored.
            let mut o = OnlineCaesar::new(cfg, 2);
            for i in 0..(l as u64 * 2) {
                o.offer(hashkit::mix::mix64(i));
            }
            o.merge_now();
            o
        };

        let mut full = warm_engine();
        let mut buf = Vec::new();
        full.snapshot_into(&mut buf);
        let full_bytes = buf.len();
        g.bench(&format!("snapshot_full_{tag}"), || {
            for _ in 0..256 {
                full.offer(hot);
            }
            full.merge_now();
            full.snapshot_into(&mut buf);
            black_box(buf.len());
        });

        let mut chained = warm_engine();
        let mut dbuf = Vec::new();
        chained.snapshot_into(&mut dbuf); // anchor the chain
        let mut delta_bytes = 0usize;
        g.bench(&format!("delta_low_churn_{tag}"), || {
            for _ in 0..256 {
                chained.offer(hot);
            }
            chained.merge_now();
            chained.checkpoint_delta_into(&mut dbuf).expect("anchored chain");
            delta_bytes = dbuf.len();
            black_box(delta_bytes);
        });
        // Size pseudo-results only for benches that actually ran, so a
        // CAESAR_BENCH_FILTER run never emits stale byte counts.
        if g.results().iter().any(|r| r.name == format!("snapshot_full_{tag}")) {
            emit_bytes("checkpoint", &format!("snapshot_bytes_{tag}"), full_bytes);
        }
        if g.results().iter().any(|r| r.name == format!("delta_low_churn_{tag}")) {
            emit_bytes("checkpoint", &format!("delta_bytes_{tag}"), delta_bytes);
        }
    }
    g.finish();
}

fn service_delta() {
    // PR 9: wire cost of keeping the cluster view fresh. After its
    // first full push, a tap re-ships one low-churn interval (a burst
    // over 8 hot flows — the steady-state case where only a few flows
    // moved between epochs) either as a whole `SketchPayload` (the
    // unacked-increment sketch — the PR 8 protocol, and still the NACK
    // recovery path) or as a `SketchDelta` carrying only the dirtied
    // counter blocks. Both refresh benches pay the same service setup
    // and initial push; the `*_bytes` pseudo-results record the frame
    // sizes behind the time gap.
    let (trace, _) = bench_trace();
    let flows: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    let cfg = bench_config();
    let mut tap = ConcurrentCaesar::build(cfg, 2, &flows);
    let prev = tap.export_sketch();
    let interval: Vec<u64> = (0..2_000u64).map(|i| hashkit::mix::mix64(i % 8)).collect();
    let increment_sketch = ConcurrentCaesar::build(cfg, 2, &interval);
    let increment = increment_sketch.export_sketch();
    tap.merge(&increment_sketch).expect("same fleet config");
    let cur = tap.export_sketch();
    let delta = SketchDelta::between(&prev, &cur, 1).expect("cumulative extends acked");

    let mut g = Harness::new("service_delta");
    g.bench("delta_between_encode_decode", || {
        let d = SketchDelta::between(&prev, &cur, 1).expect("cumulative extends acked");
        let bytes = d.encode();
        black_box(SketchDelta::decode(&bytes).expect("round trip"));
    });
    g.bench("inprocess_refresh_full_push", || {
        let svc = MeasurementService::new(cfg);
        let mut client =
            MeasurementClient::connect(InProcess::new(&svc), &svc.fingerprint()).expect("hello");
        client.push_sketch(&prev).expect("push");
        black_box(client.push_sketch(&increment).expect("push"));
    });
    g.bench("inprocess_refresh_delta_push", || {
        let svc = MeasurementService::new(cfg);
        let mut client =
            MeasurementClient::connect(InProcess::new(&svc), &svc.fingerprint()).expect("hello");
        client.push_sketch(&prev).expect("push");
        black_box(client.push_delta(&delta).expect("delta push"));
    });
    if !g.results().is_empty() {
        emit_bytes("service_delta", "full_payload_bytes", increment.encoded_len());
        emit_bytes("service_delta", "delta_payload_bytes", delta.encoded_len());
    }
    g.finish();
}

fn main() {
    braids();
    sac_and_sampling();
    concurrent_and_epochs();
    parallel_query();
    pipeline_and_rcs();
    zoo_ingest();
    zoo_merge_and_service();
    checkpoint_and_delta();
    service_delta();
}
