//! The aggregator side: a cluster view plus the loops that serve it.
//!
//! [`MeasurementService`] owns the merged [`ConcurrentCaesar`] behind
//! an `RwLock`; pushes take the write lock and bump the **epoch**,
//! queries take the read lock for their whole batch — so every answer
//! is served against one epoch-consistent snapshot of the view (a
//! push can never interleave mid-batch), and carries the epoch it was
//! served at.
//!
//! [`TcpServer`] is the real-socket loop: one `std::net::TcpListener`
//! accept thread, one handler thread per connection, frames in /
//! frames out until the peer closes. The in-process transport in
//! [`crate::client`] drives the exact same [`MeasurementService`]
//! entry point, so both paths answer bit-identically by construction.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

use caesar::{CaesarConfig, ConcurrentCaesar, MergeError, SketchFingerprint, SketchRead};

use crate::proto::{read_frame, write_frame, ClusterStats, HealthReport, ProtoError, Request, Response};

struct View {
    sketch: ConcurrentCaesar,
    /// Bumps on every accepted push; every answer names the epoch it
    /// was served at so clients can reason about staleness.
    epoch: u64,
    /// Sketches merged so far.
    nodes: u64,
}

/// The measurement aggregator: merges pushed sketches into a cluster
/// view and answers queries against epoch-consistent snapshots of it.
pub struct MeasurementService {
    view: RwLock<View>,
    fingerprint: SketchFingerprint,
}

impl MeasurementService {
    /// An empty aggregator for the given fleet configuration (the
    /// merge identity — see [`ConcurrentCaesar::empty`]).
    ///
    /// # Panics
    /// Panics on invalid configurations.
    pub fn new(cfg: CaesarConfig) -> Self {
        let sketch = ConcurrentCaesar::empty(cfg);
        let fingerprint = sketch.fingerprint();
        Self {
            view: RwLock::new(View { sketch, epoch: 0, nodes: 0 }),
            fingerprint,
        }
    }

    /// The fingerprint every pushed sketch must match.
    pub fn fingerprint(&self) -> SketchFingerprint {
        self.fingerprint
    }

    /// Handle one decoded request. Infallible by design: refusals
    /// (incompatible sketch) come back as [`Response::Error`] so the
    /// connection survives them.
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Hello(_) => Response::HelloAck(self.fingerprint),
            Request::PushSketch(payload) => {
                self.apply(payload.encoded_len(), None, |view| view.merge_sketch(payload))
            }
            Request::PushDelta(delta) => {
                let base = Some(delta.base_epoch);
                self.apply(delta.encoded_len(), base, |view| view.merge_delta(delta))
            }
            Request::Query(flows) => {
                let view = self.view.read().expect("view lock");
                Response::Estimates {
                    epoch: view.epoch,
                    values: view.sketch.query_all(flows),
                }
            }
            Request::QueryHealth(flow) => {
                let view = self.view.read().expect("view lock");
                Response::Health {
                    epoch: view.epoch,
                    health: HealthReport::of(&view.sketch.query_health(*flow)),
                }
            }
            Request::Stats => {
                let view = self.view.read().expect("view lock");
                Response::Stats(ClusterStats {
                    epoch: view.epoch,
                    nodes: view.nodes,
                    total_added: view.sketch.sram().total_added(),
                    saturation_events: view.sketch.sram().saturations(),
                    evictions: view.sketch.evictions(),
                    counters: view.sketch.sram().len() as u64,
                })
            }
        }
    }

    /// Apply one push under the write lock and acknowledge it with its
    /// `bytes` on the wire. A delta names the view epoch it was diffed
    /// against (`base_epoch`): optimistic concurrency — if any other
    /// push landed in between, applying it would interleave with state
    /// the tap never saw, so it is refused typed and nothing is
    /// applied. An accepted push bumps the epoch; a full push also adds
    /// a sketch to `nodes`, while a delta updates an existing tap's
    /// contribution.
    fn apply(
        &self,
        bytes: usize,
        base_epoch: Option<u64>,
        merge: impl FnOnce(&mut ConcurrentCaesar) -> Result<(), MergeError>,
    ) -> Response {
        let mut view = self.view.write().expect("view lock");
        if base_epoch.is_some_and(|base| base != view.epoch) {
            return Response::DeltaNack { epoch: view.epoch };
        }
        match merge(&mut view.sketch) {
            Ok(()) => {
                view.epoch += 1;
                view.nodes += u64::from(base_epoch.is_none());
                Response::PushAck { epoch: view.epoch, nodes: view.nodes, bytes: bytes as u64 }
            }
            Err(e) => Response::Error(e.to_string()),
        }
    }

    /// Frame-level entry point: decode a sealed-and-stripped request
    /// payload, handle it, encode the response payload. Decode
    /// failures become [`Response::Error`] payloads, never a dropped
    /// connection.
    ///
    /// A push's fingerprint is checked against the view's before the
    /// push is decoded: decoding a `PushSketch` allocates the
    /// fingerprint's `L` counters and decoding a `PushDelta` expands
    /// every listed block to its full span, so only a matching `L`
    /// bounds either by the view's own array. A forged `L` is refused
    /// here, at the cost of reading the frame's head.
    pub fn handle_payload(&self, payload: &[u8]) -> Vec<u8> {
        if let Some(Err(e)) = Request::push_fingerprint(payload)
            .map(|theirs| self.fingerprint.expect_matches(&theirs))
        {
            return Response::Error(e.to_string()).encode();
        }
        let response = match Request::decode(payload) {
            Ok(request) => self.handle(&request),
            Err(e) => Response::Error(e.to_string()),
        };
        response.encode()
    }

    /// Run `f` against an epoch-consistent read snapshot of the view.
    pub fn with_view<T>(&self, f: impl FnOnce(&ConcurrentCaesar, u64) -> T) -> T {
        let view = self.view.read().expect("view lock");
        f(&view.sketch, view.epoch)
    }
}

/// A live TCP measurement service: accept loop on its own thread, one
/// handler thread per connection. Drop-safe shutdown via
/// [`TcpServer::stop`].
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `service`.
    pub fn spawn(service: Arc<MeasurementService>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            // Handler threads detach; they end when their peer closes.
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // A frame is two small writes (length prefix + body);
                // with Nagle on, the second queues behind the peer's
                // delayed ACK and every round trip costs ~80 ms.
                let _ = stream.set_nodelay(true);
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let _ = serve_connection(&service, stream);
                });
            }
        });
        Ok(Self { addr, shutdown, accept_thread: Some(accept_thread) })
    }

    /// The bound address (with the OS-assigned port when spawned on
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Connections already
    /// being served finish naturally when their peers close.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve one connection: frames in, frames out, until clean EOF or a
/// transport error.
fn serve_connection(service: &MeasurementService, mut stream: TcpStream) -> Result<(), ProtoError> {
    loop {
        let Some(payload) = read_frame(&mut stream)? else {
            return Ok(()); // peer closed between frames
        };
        let response = service.handle_payload(&payload);
        write_frame(&mut stream, response)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar::{SketchDelta, SketchPayload};

    fn cfg() -> CaesarConfig {
        CaesarConfig {
            cache_entries: 64,
            entry_capacity: 16,
            counters: 1024,
            k: 3,
            ..CaesarConfig::default()
        }
    }

    fn node_sketch(flows: &[u64]) -> SketchPayload {
        ConcurrentCaesar::build(cfg(), 2, flows).export_sketch()
    }

    #[test]
    fn push_bumps_epoch_and_answers_reflect_it() {
        let svc = MeasurementService::new(cfg());
        assert_eq!(svc.handle(&Request::Stats), Response::Stats(ClusterStats {
            epoch: 0,
            nodes: 0,
            total_added: 0,
            saturation_events: 0,
            evictions: 0,
            counters: 1024,
        }));
        let flows: Vec<u64> = (0..100).map(hash_flow).collect();
        let payload = node_sketch(&flows);
        let bytes = payload.encoded_len() as u64;
        let rsp = svc.handle(&Request::PushSketch(payload));
        assert_eq!(rsp, Response::PushAck { epoch: 1, nodes: 1, bytes });
        match svc.handle(&Request::Query(vec![flows[0]])) {
            Response::Estimates { epoch, values } => {
                assert_eq!(epoch, 1);
                assert_eq!(values.len(), 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn incompatible_push_is_refused_but_survivable() {
        let svc = MeasurementService::new(cfg());
        let foreign = ConcurrentCaesar::build(
            CaesarConfig { seed: 0xBAD, ..cfg() },
            1,
            &[1, 2, 3],
        )
        .export_sketch();
        match svc.handle(&Request::PushSketch(foreign)) {
            Response::Error(msg) => assert!(msg.contains("seed mismatch"), "{msg}"),
            other => panic!("wrong variant: {other:?}"),
        }
        // The view is untouched and the service keeps answering.
        match svc.handle(&Request::Stats) {
            Response::Stats(s) => assert_eq!((s.epoch, s.nodes, s.total_added), (0, 0, 0)),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn handle_payload_reports_garbage_as_error_response() {
        let svc = MeasurementService::new(cfg());
        let rsp = Response::decode(&svc.handle_payload(b"\xEEgarbage")).unwrap();
        assert!(matches!(rsp, Response::Error(_)));
    }

    /// A `PushDelta` whose fingerprint claims `L` = 2^40 and lists
    /// 9 million blocks of one counter each: 45 MB of input that would
    /// expand to 4.6 GB of span-length blocks. The view refuses it on
    /// its fingerprint before expanding a block, so this stays small
    /// (under `ulimit -v` in `scripts/check.sh --delta-smoke`, an
    /// expansion would abort the process).
    #[test]
    fn forged_push_delta_with_a_huge_length_is_refused_before_expansion() {
        use support::bytesx::PutBytes;
        let svc = MeasurementService::new(cfg());
        let blocks = 9_000_000;
        let head = SketchDelta {
            fingerprint: SketchFingerprint { counters: 1 << 40, ..svc.fingerprint() },
            base_epoch: 0,
            blocks: Vec::new(),
            total_added_delta: 1,
            saturation_events_delta: 0,
            evictions_delta: 0,
        };
        let mut payload = Request::push_delta_payload(&head);
        payload.pop(); // the empty block count
        payload.reserve(5 * blocks + 8);
        payload.put_uvarint(blocks as u64);
        for _ in 0..blocks {
            // Gap 0, the positions form with one position, value 1.
            payload.extend_from_slice(&[0, 1, 1, 0, 1]);
        }
        assert!(payload.len() < crate::proto::MAX_FRAME_BYTES);
        match Response::decode(&svc.handle_payload(&payload)).unwrap() {
            Response::Error(msg) => assert!(msg.contains("counters"), "{msg}"),
            other => panic!("wrong variant: {other:?}"),
        }
        match svc.handle(&Request::Stats) {
            Response::Stats(s) => assert_eq!((s.epoch, s.total_added), (0, 0)),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// A `PushSketch` whose fingerprint claims `L` = 2^40 and lists no
    /// counter: a frame of under 100 bytes whose decode would allocate
    /// 8 TiB of dense counters. The view refuses it on its fingerprint
    /// before decoding, so nothing is sized from that `L` (the same
    /// runs under `ulimit -v` in `scripts/check.sh --delta-smoke`).
    #[test]
    fn forged_push_sketch_with_a_huge_length_is_refused_before_allocation() {
        let svc = MeasurementService::new(cfg());
        let forged = SketchPayload {
            fingerprint: SketchFingerprint { counters: 1 << 40, ..svc.fingerprint() },
            counters: Vec::new(),
            total_added: 1,
            saturation_events: 0,
            evictions: 0,
        };
        let payload = Request::push_sketch_payload(&forged);
        assert!(payload.len() < 100);
        match Response::decode(&svc.handle_payload(&payload)).unwrap() {
            Response::Error(msg) => assert!(msg.contains("counters"), "{msg}"),
            other => panic!("wrong variant: {other:?}"),
        }
        match svc.handle(&Request::Stats) {
            Response::Stats(s) => assert_eq!((s.epoch, s.nodes, s.total_added), (0, 0, 0)),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    fn hash_flow(i: u64) -> u64 {
        // Spread IDs like real flow hashes.
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
    }
}
