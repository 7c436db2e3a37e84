//! The measurement client: one API over two transports.
//!
//! [`MeasurementClient`] speaks [`crate::proto`] over anything that
//! implements [`Transport`]:
//!
//! * [`InProcess`] — single-threaded, no sockets: requests are
//!   encoded, handed to the service's frame entry point, and the
//!   response decoded. The full codec is exercised, so a passing
//!   in-process test pins the same bytes the TCP path ships.
//! * [`TcpTransport`] — a real `std::net::TcpStream` speaking
//!   length-prefixed sealed frames to a [`crate::TcpServer`].
//!
//! Connecting performs the Hello handshake: the server's fingerprint
//! is checked against the client's expected one with the typed
//! [`SketchFingerprint::expect_matches`], so an incompatible client
//! fails fast with a [`caesar::MergeError`] naming the field instead
//! of pushing sketches that can never merge.

use std::net::{TcpStream, ToSocketAddrs};

use caesar::{MergeError, SketchDelta, SketchFingerprint, SketchPayload};

use crate::proto::{
    read_frame, write_frame, ClusterStats, HealthReport, ProtoError, Request, Response,
};
use crate::server::MeasurementService;

/// Client-side failures.
#[derive(Debug)]
pub enum ServiceError {
    /// Transport or codec failure.
    Proto(ProtoError),
    /// The handshake found an incompatible aggregator.
    Incompatible(MergeError),
    /// The server refused the request (its rendered error message).
    Remote(String),
    /// The server answered with the wrong response variant.
    UnexpectedResponse,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Proto(e) => write!(f, "{e}"),
            ServiceError::Incompatible(e) => write!(f, "incompatible aggregator: {e}"),
            ServiceError::Remote(msg) => write!(f, "server refused: {msg}"),
            ServiceError::UnexpectedResponse => write!(f, "unexpected response variant"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ProtoError> for ServiceError {
    fn from(e: ProtoError) -> Self {
        ServiceError::Proto(e)
    }
}

/// One request/response round trip; how the bytes move is the
/// implementor's business.
pub trait Transport {
    /// Send one encoded request payload (see [`Request::encode`]), wait
    /// for and return the response. The buffer is the frame's own: a
    /// socket transport seals it in place and writes it.
    fn exchange(&mut self, payload: Vec<u8>) -> Result<Response, ServiceError>;

    /// Send `request`, wait for and return the response.
    fn round_trip(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.exchange(request.encode())
    }
}

/// In-process transport: drives a [`MeasurementService`] directly
/// through its frame-payload entry point (encode → handle → decode),
/// single-threaded, no sockets.
pub struct InProcess<'a> {
    service: &'a MeasurementService,
}

impl<'a> InProcess<'a> {
    /// Wrap a service.
    pub fn new(service: &'a MeasurementService) -> Self {
        Self { service }
    }
}

impl Transport for InProcess<'_> {
    fn exchange(&mut self, payload: Vec<u8>) -> Result<Response, ServiceError> {
        let payload = self.service.handle_payload(&payload);
        Ok(Response::decode(&payload)?)
    }
}

/// Real-socket transport: length-prefixed sealed frames over a
/// `TcpStream`.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connect to a [`crate::TcpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServiceError::Proto(ProtoError::Io(e.to_string())))?;
        // A frame is two small writes (length prefix + body); without
        // this, Nagle + delayed ACK stall every round trip ~80 ms.
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
    }
}

impl Transport for TcpTransport {
    fn exchange(&mut self, payload: Vec<u8>) -> Result<Response, ServiceError> {
        write_frame(&mut self.stream, payload)?;
        let payload = read_frame(&mut self.stream)?
            .ok_or(ServiceError::Proto(ProtoError::Io("server closed".into())))?;
        Ok(Response::decode(&payload)?)
    }
}

/// A successful push acknowledgement: what the server reported back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushReceipt {
    /// Cluster-view epoch the push created.
    pub epoch: u64,
    /// Sketches folded into the view so far (deltas update an
    /// existing tap's contribution, so they do not bump this).
    pub nodes: u64,
    /// Server-measured decoded payload size, in bytes — the wire cost
    /// experiments chart, reported by the side that actually decoded
    /// it.
    pub bytes: u64,
}

/// Outcome of a [`MeasurementClient::push_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPush {
    /// The delta's base epoch matched and it was merged.
    Accepted(PushReceipt),
    /// The view moved on since the delta was diffed; nothing was
    /// applied. Full-push to recover.
    Stale {
        /// The server's current view epoch.
        epoch: u64,
    },
}

/// A handshaken measurement client over any [`Transport`].
pub struct MeasurementClient<T: Transport> {
    transport: T,
    server_fingerprint: SketchFingerprint,
}

impl<T: Transport> MeasurementClient<T> {
    /// Perform the Hello handshake: announce `expected`, receive the
    /// aggregator's fingerprint, and verify compatibility. An
    /// incompatible pairing fails here with the typed field-level
    /// [`MergeError`] — before any sketch bytes move.
    pub fn connect(mut transport: T, expected: &SketchFingerprint) -> Result<Self, ServiceError> {
        let server_fingerprint = match transport.round_trip(&Request::Hello(*expected))? {
            Response::HelloAck(fp) => fp,
            Response::Error(msg) => return Err(ServiceError::Remote(msg)),
            _ => return Err(ServiceError::UnexpectedResponse),
        };
        expected
            .expect_matches(&server_fingerprint)
            .map_err(ServiceError::Incompatible)?;
        Ok(Self { transport, server_fingerprint })
    }

    /// The aggregator's fingerprint learned during the handshake.
    pub fn server_fingerprint(&self) -> SketchFingerprint {
        self.server_fingerprint
    }

    /// Push one node's frozen sketch; returns the server's receipt
    /// (the epoch the merge created, total sketches merged, and the
    /// server-measured payload size).
    pub fn push_sketch(&mut self, sketch: &SketchPayload) -> Result<PushReceipt, ServiceError> {
        match self.transport.exchange(Request::push_sketch_payload(sketch))? {
            Response::PushAck { epoch, nodes, bytes } => {
                Ok(PushReceipt { epoch, nodes, bytes })
            }
            Response::Error(msg) => Err(ServiceError::Remote(msg)),
            _ => Err(ServiceError::UnexpectedResponse),
        }
    }

    /// Push the increments since this tap's previous push. The server
    /// applies the delta only when its view epoch still equals the
    /// delta's `base_epoch`; otherwise nothing is applied and
    /// [`DeltaPush::Stale`] carries the current epoch — the tap
    /// recovers by falling back to [`MeasurementClient::push_sketch`].
    ///
    /// The recovery push must carry the tap's **unacked increment**,
    /// not its cumulative sketch: payload merges are additive, so
    /// re-pushing mass the view already acked would double-count it.
    pub fn push_delta(&mut self, delta: &SketchDelta) -> Result<DeltaPush, ServiceError> {
        match self.transport.exchange(Request::push_delta_payload(delta))? {
            Response::PushAck { epoch, nodes, bytes } => {
                Ok(DeltaPush::Accepted(PushReceipt { epoch, nodes, bytes }))
            }
            Response::DeltaNack { epoch } => Ok(DeltaPush::Stale { epoch }),
            Response::Error(msg) => Err(ServiceError::Remote(msg)),
            _ => Err(ServiceError::UnexpectedResponse),
        }
    }

    /// Recover from a [`DeltaPush::Stale`] NACK: re-push the refused
    /// delta's increment as a full [`SketchPayload`] frame, which the
    /// server applies unconditionally (full pushes carry no base
    /// epoch).
    ///
    /// The frame is built with
    /// [`SketchDelta::to_increment_payload`], so it carries **only
    /// the unacked increment** — never the tap's cumulative sketch.
    /// A NACK means the view's epoch moved on, not that the increment
    /// landed; re-pushing the cumulative sketch after a NACK would
    /// add every previously-acked epoch a second time. This method
    /// makes the NACK → resync cycle double-count-proof by
    /// construction: whatever mass the refused delta described enters
    /// the view exactly once.
    pub fn resync_after_nack(
        &mut self,
        delta: &SketchDelta,
    ) -> Result<PushReceipt, ServiceError> {
        self.push_sketch(&delta.to_increment_payload())
    }

    /// Batch flow-size query; returns the serving epoch and one
    /// clamped default-estimator size per flow, in request order.
    pub fn query(&mut self, flows: &[u64]) -> Result<(u64, Vec<f64>), ServiceError> {
        match self.transport.round_trip(&Request::Query(flows.to_vec()))? {
            Response::Estimates { epoch, values } => Ok((epoch, values)),
            Response::Error(msg) => Err(ServiceError::Remote(msg)),
            _ => Err(ServiceError::UnexpectedResponse),
        }
    }

    /// Health-annotated single-flow query.
    pub fn query_health(&mut self, flow: u64) -> Result<(u64, HealthReport), ServiceError> {
        match self.transport.round_trip(&Request::QueryHealth(flow))? {
            Response::Health { epoch, health } => Ok((epoch, health)),
            Response::Error(msg) => Err(ServiceError::Remote(msg)),
            _ => Err(ServiceError::UnexpectedResponse),
        }
    }

    /// Cluster view statistics.
    pub fn stats(&mut self) -> Result<ClusterStats, ServiceError> {
        match self.transport.round_trip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error(msg) => Err(ServiceError::Remote(msg)),
            _ => Err(ServiceError::UnexpectedResponse),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::TcpServer;
    use caesar::{CaesarConfig, ConcurrentCaesar, SketchRead};
    use std::sync::Arc;

    fn cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 64,
            entry_capacity: 16,
            counters: 1024,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    fn flows(n: u64, salt: u64) -> Vec<u64> {
        (0..n)
            .map(|i| (i % 50).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn in_process_push_then_query() {
        let svc = MeasurementService::new(cfg());
        let node = ConcurrentCaesar::build(cfg(), 2, &flows(5_000, 1));
        let mut client =
            MeasurementClient::connect(InProcess::new(&svc), &node.fingerprint()).unwrap();
        let payload = node.export_sketch();
        let receipt = client.push_sketch(&payload).unwrap();
        assert_eq!((receipt.epoch, receipt.nodes), (1, 1));
        assert_eq!(receipt.bytes, payload.encoded_len() as u64);
        let targets: Vec<u64> = flows(50, 1);
        let (qe, values) = client.query(&targets).unwrap();
        assert_eq!(qe, 1);
        // The service view now equals the node's own sketch, so the
        // served estimates are bit-identical to local queries.
        for (flow, served) in targets.iter().zip(&values) {
            assert_eq!(served.to_bits(), node.query(*flow).to_bits());
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.total_added, 5_000);
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn handshake_rejects_incompatible_client_with_typed_error() {
        let svc = MeasurementService::new(cfg());
        let wrong = SketchFingerprint::of(&CaesarConfig { k: 4, ..cfg() });
        match MeasurementClient::connect(InProcess::new(&svc), &wrong) {
            Err(ServiceError::Incompatible(MergeError::Geometry { field: "k", .. })) => {}
            Err(other) => panic!("expected typed k mismatch, got {other:?}"),
            Ok(_) => panic!("incompatible handshake must not succeed"),
        }
    }

    #[test]
    fn loopback_tcp_matches_in_process_bit_for_bit() {
        let svc = Arc::new(MeasurementService::new(cfg()));
        let server = TcpServer::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();

        let node_a = ConcurrentCaesar::build(cfg(), 1, &flows(3_000, 7));
        let node_b = ConcurrentCaesar::build(cfg(), 4, &flows(2_000, 99));
        let fp = node_a.fingerprint();

        let tcp = TcpTransport::connect(server.addr()).unwrap();
        let mut client = MeasurementClient::connect(tcp, &fp).unwrap();
        client.push_sketch(&node_a.export_sketch()).unwrap();
        let receipt = client.push_sketch(&node_b.export_sketch()).unwrap();
        assert_eq!((receipt.epoch, receipt.nodes), (2, 2));

        let targets: Vec<u64> = flows(50, 7).into_iter().chain(flows(50, 99)).collect();
        let (_, over_tcp) = client.query(&targets).unwrap();
        let mut local = MeasurementClient::connect(InProcess::new(&svc), &fp).unwrap();
        let (_, in_process) = local.query(&targets).unwrap();
        for (a, b) in over_tcp.iter().zip(&in_process) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let (he, health) = client.query_health(targets[0]).unwrap();
        assert_eq!(he, 2);
        assert!(!health.is_degraded());

        server.stop();
    }

    #[test]
    fn delta_pushes_apply_or_nack_on_stale_base() {
        let svc = Arc::new(MeasurementService::new(cfg()));
        let server = TcpServer::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let fp = SketchFingerprint::of(&cfg());
        let mut tap =
            MeasurementClient::connect(TcpTransport::connect(server.addr()).unwrap(), &fp)
                .unwrap();

        // Epoch 0 → 1: the tap's first (full) push.
        let mut node = ConcurrentCaesar::empty(cfg());
        node.merge(&ConcurrentCaesar::build(cfg(), 1, &flows(2_000, 3))).unwrap();
        let mut prev = node.export_sketch();
        let receipt = tap.push_sketch(&prev).unwrap();
        assert_eq!(receipt.epoch, 1);

        // Epoch 1 → 2: a low-churn epoch (one hot flow touches only
        // k counters), diffed against the epoch the tap just observed.
        node.merge(&ConcurrentCaesar::build(cfg(), 1, &[0xF00Du64; 1_000])).unwrap();
        let cur = node.export_sketch();
        let delta = SketchDelta::between(&prev, &cur, receipt.epoch).unwrap();
        let accepted = match tap.push_delta(&delta).unwrap() {
            DeltaPush::Accepted(r) => r,
            other => panic!("fresh base must apply, got {other:?}"),
        };
        assert_eq!(accepted.epoch, 2);
        assert_eq!(accepted.nodes, 1, "a delta is not a new node");
        assert_eq!(accepted.bytes, delta.encoded_len() as u64);
        assert!(
            accepted.bytes < prev.encoded_len() as u64,
            "delta must undercut the full payload it replaces"
        );
        prev = cur;

        // Another tap's full push moves the view to epoch 3 ...
        let mut other =
            MeasurementClient::connect(InProcess::new(&svc), &fp).unwrap();
        other
            .push_sketch(&ConcurrentCaesar::build(cfg(), 2, &flows(500, 9)).export_sketch())
            .unwrap();

        // ... so the tap's next delta (diffed against epoch 2) is
        // stale: typed NACK, nothing applied, a full push recovers.
        let increment = ConcurrentCaesar::build(cfg(), 1, &flows(700, 11));
        node.merge(&increment).unwrap();
        let cur = node.export_sketch();
        let stale = SketchDelta::between(&prev, &cur, accepted.epoch).unwrap();
        let before = svc.with_view(|sketch, _| sketch.sram().total_added());
        match tap.push_delta(&stale).unwrap() {
            DeltaPush::Stale { epoch } => assert_eq!(epoch, 3),
            other => panic!("stale base must NACK, got {other:?}"),
        }
        assert_eq!(
            svc.with_view(|sketch, _| sketch.sram().total_added()),
            before,
            "a NACKed delta leaves the view untouched"
        );
        // The recovery full-push carries the tap's unacked increment
        // (payload merges are additive — re-pushing acked mass would
        // double-count it).
        let receipt = tap.push_sketch(&increment.export_sketch()).unwrap();
        assert_eq!(receipt.epoch, 4);
        server.stop();
    }

    #[test]
    fn nack_resync_counts_the_increment_exactly_once() {
        let svc = Arc::new(MeasurementService::new(cfg()));
        let server = TcpServer::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let fp = SketchFingerprint::of(&cfg());
        let mut tap =
            MeasurementClient::connect(TcpTransport::connect(server.addr()).unwrap(), &fp)
                .unwrap();

        // Full push, then an accepted delta — epochs 1 and 2.
        let mut node = ConcurrentCaesar::empty(cfg());
        node.merge(&ConcurrentCaesar::build(cfg(), 1, &flows(2_000, 3))).unwrap();
        let mut prev = node.export_sketch();
        let receipt = tap.push_sketch(&prev).unwrap();
        node.merge(&ConcurrentCaesar::build(cfg(), 1, &flows(800, 5))).unwrap();
        let cur = node.export_sketch();
        let delta = SketchDelta::between(&prev, &cur, receipt.epoch).unwrap();
        let acked = match tap.push_delta(&delta).unwrap() {
            DeltaPush::Accepted(r) => r,
            other => panic!("fresh base must apply, got {other:?}"),
        };
        prev = cur;

        // A rival tap moves the view epoch under us ...
        let rival = ConcurrentCaesar::build(cfg(), 2, &flows(500, 9));
        MeasurementClient::connect(InProcess::new(&svc), &fp)
            .unwrap()
            .push_sketch(&rival.export_sketch())
            .unwrap();

        // ... so the next delta NACKs, and resync_after_nack recovers.
        node.merge(&ConcurrentCaesar::build(cfg(), 1, &flows(700, 11))).unwrap();
        let cur = node.export_sketch();
        let stale = SketchDelta::between(&prev, &cur, acked.epoch).unwrap();
        match tap.push_delta(&stale).unwrap() {
            DeltaPush::Stale { .. } => {}
            other => panic!("stale base must NACK, got {other:?}"),
        }
        let receipt = tap.resync_after_nack(&stale).unwrap();
        assert_eq!(receipt.bytes, stale.to_increment_payload().encoded_len() as u64);

        // The regression this guards: the recovered view must equal a
        // reference fed each increment exactly once. Re-pushing the
        // tap's cumulative sketch here would leave the view heavier by
        // every acked epoch's mass.
        let mut reference = ConcurrentCaesar::empty(cfg());
        reference.merge(&node).unwrap();
        reference.merge(&rival).unwrap();
        svc.with_view(|sketch, _| {
            assert_eq!(sketch.sram().snapshot(), reference.sram().snapshot());
            assert_eq!(sketch.sram().total_added(), reference.sram().total_added());
            assert_eq!(sketch.sram().saturations(), reference.sram().saturations());
        });
        server.stop();
    }

    #[test]
    fn remote_refusal_keeps_the_connection_usable() {
        let svc = Arc::new(MeasurementService::new(cfg()));
        let server = TcpServer::spawn(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let fp = SketchFingerprint::of(&cfg());
        let mut client =
            MeasurementClient::connect(TcpTransport::connect(server.addr()).unwrap(), &fp)
                .unwrap();
        let foreign =
            ConcurrentCaesar::build(CaesarConfig { seed: 1, ..cfg() }, 1, &[1, 2, 3])
                .export_sketch();
        match client.push_sketch(&foreign) {
            Err(ServiceError::Remote(msg)) => assert!(msg.contains("seed"), "{msg}"),
            other => panic!("expected remote refusal, got {other:?}"),
        }
        // Same connection still answers.
        let stats = client.stats().unwrap();
        assert_eq!(stats.nodes, 0);
        server.stop();
    }
}
