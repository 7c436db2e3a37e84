//! Cluster view over the wire: taps push sketches to an aggregator.
//!
//! ```text
//! cargo run --release --example cluster_view
//! ```
//!
//! The networked sibling of `merge_collectors`: instead of merging
//! sketches by hand in one process, each measurement tap freezes its
//! [`ConcurrentCaesar`] into a [`SketchPayload`] and pushes it over a
//! real TCP socket to a [`MeasurementService`] aggregator. The
//! aggregator merges every push into one epoch-versioned cluster view
//! and answers flow-size queries against it — so the controller sees
//! the union of all taps without ever shipping raw packets.
//!
//! Walkthrough:
//!   1. stripe one synthetic stream across 3 taps (per-packet ECMP);
//!   2. each tap builds its own sketch locally;
//!   3. spawn a `TcpServer` on a loopback port;
//!   4. handshake (fingerprint check), push each tap's payload;
//!   5. query the merged view + per-flow health over the same socket.

use caesar::SketchRead;
use caesar_repro::prelude::*;
use flowtrace::transform;
use service::{MeasurementClient, MeasurementService, TcpServer, TcpTransport};
use std::sync::Arc;

const TAPS: usize = 3;

fn main() {
    // One logical traffic aggregate, split across the taps.
    let (trace, _truth) = TraceGenerator::new(SynthConfig {
        num_flows: 20_000,
        seed: 0x3C1,
        ..SynthConfig::default()
    })
    .generate();

    // Identical config + seed fleet-wide — mandatory, and enforced:
    // the service refuses pushes whose fingerprint disagrees.
    let cfg = CaesarConfig {
        cache_entries: 1_024,
        entry_capacity: trace.recommended_entry_capacity(),
        counters: 16_384,
        k: 3,
        seed: 0xC1_057E4,
        ..CaesarConfig::default()
    };

    // 1–2. Per-packet ECMP striping; each tap sketches its slice.
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); TAPS];
    for (i, p) in trace.packets.iter().enumerate() {
        slices[i % TAPS].push(p.flow);
    }
    let taps: Vec<ConcurrentCaesar> =
        slices.iter().map(|s| ConcurrentCaesar::build(cfg, 2, s)).collect();

    // 3. The aggregator: an empty cluster view behind a TCP socket.
    let svc = Arc::new(MeasurementService::new(cfg));
    let server = TcpServer::spawn(Arc::clone(&svc), "127.0.0.1:0").expect("bind loopback");
    println!("aggregator listening on {}", server.addr());

    // 4. Handshake, then push every tap's frozen sketch.
    let transport = TcpTransport::connect(server.addr()).expect("connect");
    let mut client =
        MeasurementClient::connect(transport, &taps[0].fingerprint()).expect("compatible fleet");
    for (i, tap) in taps.iter().enumerate() {
        let payload = tap.export_sketch();
        let receipt = client.push_sketch(&payload).expect("push");
        println!(
            "tap {i}: pushed {} packets ({} counter words, {} wire bytes) -> epoch {}, {} node(s)",
            payload.total_added,
            payload.counters.len(),
            receipt.bytes,
            receipt.epoch,
            receipt.nodes
        );
    }

    // 5. Query the merged view for the top flows, over the same socket.
    let mut sizes = transform::flow_sizes(&trace);
    sizes.sort_by_key(|&(_, x)| std::cmp::Reverse(x));
    let top: Vec<(u64, u64)> = sizes.iter().take(6).copied().collect();
    let flow_ids: Vec<u64> = top.iter().map(|&(f, _)| f).collect();
    let (epoch, estimates) = client.query(&flow_ids).expect("query");

    println!("\ncluster view at epoch {epoch}:");
    println!("{:<18} {:>8} {:>12} {:>12}", "flow", "actual", "merged est", "tap-0 alone");
    for (&(flow, actual), est) in top.iter().zip(&estimates) {
        println!("{flow:<18x} {actual:>8} {est:>12.0} {:>12.0}", taps[0].query(flow));
    }

    let (_, health) = client.query_health(flow_ids[0]).expect("health");
    println!(
        "\ntop flow health: confidence {:.2}, {} saturated counter(s), loss {:.1}%",
        health.confidence,
        health.saturated_counters,
        health.loss_fraction * 100.0
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.total_added as usize, trace.num_packets());
    println!(
        "cluster stats: {} nodes, {} packets accounted — equals the trace, nothing lost in transit",
        stats.nodes, stats.total_added
    );

    server.stop();
    println!("\n(each tap alone sees ~1/{TAPS} of every flow; the service merge restores the totals)");
}
