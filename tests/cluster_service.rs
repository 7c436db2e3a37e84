//! Cluster-service acceptance tests over the workload zoo.
//!
//! Two pinned properties from DESIGN.md §4h:
//!
//! * **Saturation monotonicity** — merging shard sketches of the zoo's
//!   `single_elephant` family under its stress geometry (10-bit
//!   counters, the width `experiments::zoo::stress_plan` uses to make
//!   the elephant pin its counters) never *lowers* the merged view's
//!   saturated fraction, and the elephant's query-health confidence
//!   never *rises* as more saturated mass folds in.
//! * **Wire transparency** — for every zoo family, flow estimates
//!   served over a loopback TCP socket are bit-identical to the
//!   in-process query engine on the same service (f64s cross the wire
//!   as raw bits; both paths converge on the same frame handler).

use caesar::{ConcurrentCaesar, Estimator, SketchRead};
use experiments::zoo::{stress_plan, zoo_config};
use flowtrace::zoo::{standard_zoo, ZOO_SEED};
use flowtrace::FlowId;
use service::{InProcess, MeasurementClient, MeasurementService, TcpServer, TcpTransport};
use std::collections::HashMap;
use std::sync::Arc;

/// Target flow count for the zoo traces (small: these tests build
/// every family).
const ZOO_FLOWS: usize = 250;

/// Round-robin stripe a packet stream across `n` tap slices.
fn stripe(flows: &[u64], n: usize) -> Vec<Vec<u64>> {
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (i, &f) in flows.iter().enumerate() {
        slices[i % n].push(f);
    }
    slices
}

fn largest_flow(truth: &HashMap<FlowId, u64>) -> FlowId {
    truth
        .iter()
        .max_by_key(|&(&f, &x)| (x, f))
        .map(|(&f, _)| f)
        .expect("non-empty truth")
}

/// Satellite: merge linearity under forced saturation. The
/// `single_elephant` family with the stress plan's 10-bit counters
/// drives the elephant's `k` shared counters past the clamp; folding
/// in one saturated shard sketch after another must degrade the merged
/// view monotonically — saturated fraction non-decreasing, elephant
/// confidence non-increasing — and the damage must end up flagged, not
/// silently absorbed.
#[test]
fn elephant_saturation_degrades_merged_view_monotonically() {
    let zoo = standard_zoo(ZOO_FLOWS).expect("standard zoo parameters are valid");
    let elephant_gen = zoo
        .iter()
        .find(|w| w.name() == "single_elephant")
        .expect("zoo has the single_elephant family");
    let (trace, truth) = elephant_gen.generate(ZOO_SEED);
    let elephant = largest_flow(&truth);

    let plan = stress_plan("single_elephant");
    assert_eq!(plan.counter_bits, 10, "the stress plan pins 10-bit counters");
    let cfg = caesar::CaesarConfig {
        counter_bits: plan.counter_bits,
        ..zoo_config(&trace)
    };
    // The whole elephant must overflow the clamp even split k ways,
    // or the test asserts nothing.
    assert!(
        truth[&elephant] / cfg.k as u64 > (1u64 << cfg.counter_bits) - 1,
        "elephant mass must exceed the 10-bit clamp"
    );

    let packets: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();
    let nodes: Vec<ConcurrentCaesar> = stripe(&packets, 3)
        .iter()
        .map(|slice| ConcurrentCaesar::build(cfg, 2, slice))
        .collect();

    let mut cluster = ConcurrentCaesar::empty(cfg);
    let mut last_fraction = cluster.sram().saturated_fraction();
    let mut last_confidence = cluster.query_health(elephant).confidence;
    assert_eq!(last_fraction, 0.0);
    assert_eq!(last_confidence, 1.0);

    for (i, node) in nodes.iter().enumerate() {
        cluster.merge(node).expect("same fleet config");
        let fraction = cluster.sram().saturated_fraction();
        let confidence = cluster.query_health(elephant).confidence;
        assert!(
            fraction >= last_fraction,
            "merge {i}: saturated fraction fell {last_fraction} -> {fraction}"
        );
        assert!(
            confidence <= last_confidence,
            "merge {i}: confidence rose {last_confidence} -> {confidence}"
        );
        // Folding a sketch in can never report less damage than the
        // sketch carried on its own.
        assert!(fraction >= node.sram().saturated_fraction());
        last_fraction = fraction;
        last_confidence = confidence;
    }

    // The elephant's counters are pinned in the final view and the
    // health surface says so.
    let health = cluster.query_health(elephant);
    assert!(health.is_degraded(), "saturated cluster view must be flagged");
    assert!(health.confidence < 1.0);
    assert_eq!(health.saturated_counters, cfg.k);
    assert!(cluster.sram().saturated_fraction() > 0.0);
    assert!(cluster.sram().saturations() > 0);
    // And the estimate is visibly clamped: it cannot exceed the sum of
    // k pinned counters, which the true mass does.
    let ceiling = (cfg.k as u64 * ((1u64 << cfg.counter_bits) - 1)) as f64;
    let est = cluster.estimate(elephant, Estimator::Csm).clamped();
    assert!(
        est <= ceiling && ceiling < truth[&elephant] as f64,
        "a clamped elephant must under-report: est {est}, ceiling {ceiling}, true {}",
        truth[&elephant]
    );
}

/// Acceptance: for every zoo family, the loopback TCP round trip
/// returns bit-identical estimates to the in-process query engine on
/// the same epoch-consistent view.
#[test]
fn tcp_round_trip_is_bit_identical_for_every_zoo_family() {
    let zoo = standard_zoo(ZOO_FLOWS).expect("standard zoo parameters are valid");
    assert_eq!(zoo.len(), 8, "every zoo family participates");
    for w in &zoo {
        let (trace, truth) = w.generate(ZOO_SEED);
        let cfg = zoo_config(&trace);
        let packets: Vec<u64> = trace.packets.iter().map(|p| p.flow).collect();

        let svc = Arc::new(MeasurementService::new(cfg));
        let server = TcpServer::spawn(Arc::clone(&svc), "127.0.0.1:0")
            .unwrap_or_else(|e| panic!("{}: bind loopback: {e}", w.name()));
        let fp = svc.fingerprint();
        let mut tcp =
            MeasurementClient::connect(TcpTransport::connect(server.addr()).unwrap(), &fp)
                .unwrap_or_else(|e| panic!("{}: handshake: {e}", w.name()));

        // Two taps push their halves over the socket.
        for slice in stripe(&packets, 2) {
            let node = ConcurrentCaesar::build(cfg, 2, &slice);
            tcp.push_sketch(&node.export_sketch())
                .unwrap_or_else(|e| panic!("{}: push: {e}", w.name()));
        }

        // Sample present flows plus a few the sketch never saw.
        let mut targets: Vec<u64> = truth.keys().copied().take(48).collect();
        targets.sort_unstable();
        targets.extend([u64::MAX, u64::MAX - 1, 0xDEAD_BEEF_0BAD_F00D]);

        let (tcp_epoch, over_tcp) = tcp.query(&targets).unwrap();
        let mut local = MeasurementClient::connect(InProcess::new(&svc), &fp).unwrap();
        let (local_epoch, in_process) = local.query(&targets).unwrap();
        assert_eq!(tcp_epoch, local_epoch, "{}: same served epoch", w.name());
        assert_eq!(tcp_epoch, 2, "{}: one epoch per push", w.name());
        for (flow, (a, b)) in targets.iter().zip(over_tcp.iter().zip(&in_process)) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: flow {flow:#x} differs across transports",
                w.name()
            );
        }

        // Health reports cross the wire bit-identically too.
        let probe = targets[0];
        let (_, tcp_health) = tcp.query_health(probe).unwrap();
        let (_, local_health) = local.query_health(probe).unwrap();
        assert_eq!(tcp_health.estimate.to_bits(), local_health.estimate.to_bits());
        assert_eq!(tcp_health.confidence.to_bits(), local_health.confidence.to_bits());

        server.stop();
    }
}
