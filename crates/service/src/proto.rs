//! The measurement service wire protocol.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! u32 le  body length N          (N ≤ MAX_FRAME_BYTES)
//! N bytes body = seal(payload)   (support::bytesx seal/unseal)
//! ```
//!
//! The sealed body makes each frame self-validating — truncation,
//! bit-flips and garbage streams are rejected by the checksum before a
//! decoder sees a single field. The payload inside the seal is a
//! tagged message:
//!
//! ```text
//! u8 tag, then tag-specific fields (little-endian throughout)
//! ```
//!
//! Requests: `Hello` (fingerprint handshake), `PushSketch` (a node's
//! [`SketchPayload`]), `PushDelta` (an incremental [`SketchDelta`]
//! against a named view epoch), `Query` (batch of flow IDs),
//! `QueryHealth` (one flow, health-annotated), `Stats`. Responses
//! mirror them, plus a generic `Error` and `DeltaNack` — the typed
//! "your base epoch is stale, full-push instead" answer that keeps
//! delta pushes exactly-once. Estimates cross the wire as
//! `f64::to_bits` so a TCP round-trip is **bit-identical** to an
//! in-process query.

use std::io::Read;

use caesar::{QueryHealth, SketchDelta, SketchFingerprint, SketchPayload};
use support::bytesx::{seal, unseal, ByteReader, PutBytes, SealError};

/// Upper bound on a frame body. A `PushSketch` lists only its nonzero
/// counters, one to nine bytes each beside a block's position bytes,
/// so one million counters all nonzero take at most ~10 MB; 64 MB
/// leaves headroom while still refusing nonsense lengths before
/// allocating.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// What [`read_frame`] reserves before a frame body arrives; past it,
/// the buffer grows only as bytes come in.
const FRAME_READ_CHUNK: usize = 64 << 10;

/// Why a frame or message failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The transport failed mid-frame (peer closed, read error).
    Io(String),
    /// The declared body length exceeds [`MAX_FRAME_BYTES`].
    Oversized(u64),
    /// The sealed body failed validation.
    Seal(SealError),
    /// The payload decoded but is not a well-formed message.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            ProtoError::Seal(e) => write!(f, "frame body invalid: {e}"),
            ProtoError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e.to_string())
    }
}

impl From<SealError> for ProtoError {
    fn from(e: SealError) -> Self {
        ProtoError::Seal(e)
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Geometry handshake: the client announces its fingerprint; the
    /// server answers with its own so the client can run the typed
    /// [`SketchFingerprint::expect_matches`] check locally.
    Hello(SketchFingerprint),
    /// Push one node's frozen sketch into the cluster view.
    PushSketch(SketchPayload),
    /// Push the increments since the tap's previous push. Applied only
    /// when the delta's `base_epoch` matches the server's current view
    /// epoch; a stale base gets a [`Response::DeltaNack`] instead.
    PushDelta(SketchDelta),
    /// Batch flow-size query against the current epoch snapshot.
    Query(Vec<u64>),
    /// Health-annotated single-flow query.
    QueryHealth(u64),
    /// Cluster view statistics.
    Stats,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Hello`]: the aggregator's own fingerprint.
    HelloAck(SketchFingerprint),
    /// Sketch (full or delta) accepted: the epoch it created, total
    /// sketches merged, and how large the accepted payload was — the
    /// server-measured wire cost, so experiments report what actually
    /// crossed instead of inferring it client-side.
    PushAck {
        /// Cluster-view epoch after this merge (bumps on every push).
        epoch: u64,
        /// Sketches folded into the view so far.
        nodes: u64,
        /// Decoded payload size of the accepted push, in bytes.
        bytes: u64,
    },
    /// A [`Request::PushDelta`] named a base epoch that is not the
    /// server's current one (another tap pushed in between). Nothing
    /// was applied; the tap must fall back to a full push.
    DeltaNack {
        /// The server's current view epoch.
        epoch: u64,
    },
    /// Answer to [`Request::Query`]: clamped default-estimator sizes,
    /// in request order, plus the epoch they were served at.
    Estimates {
        /// Epoch the whole batch was consistently served against.
        epoch: u64,
        /// One estimate per requested flow.
        values: Vec<f64>,
    },
    /// Answer to [`Request::QueryHealth`].
    Health {
        /// Epoch the answer was served at.
        epoch: u64,
        /// The health-annotated estimate.
        health: HealthReport,
    },
    /// Answer to [`Request::Stats`].
    Stats(ClusterStats),
    /// The server refused the request (incompatible sketch, malformed
    /// field); the connection stays usable.
    Error(String),
}

/// Wire form of [`caesar::QueryHealth`] (the `Estimate` is flattened
/// into value + variance bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// Estimated flow size `x̂`.
    pub estimate: f64,
    /// Model variance of the estimate.
    pub variance: f64,
    /// Array-wide saturating-add events on the merged view.
    pub saturation_events: u64,
    /// How many of the flow's `k` counters sit at the clamp.
    pub saturated_counters: u64,
    /// Ingest-loss fraction folded into confidence.
    pub loss_fraction: f64,
    /// Combined [0, 1] trust score.
    pub confidence: f64,
}

impl HealthReport {
    /// Flatten a [`QueryHealth`] for the wire.
    pub fn of(h: &QueryHealth) -> Self {
        Self {
            estimate: h.estimate.value,
            variance: h.estimate.variance,
            saturation_events: h.saturation_events,
            saturated_counters: h.saturated_counters as u64,
            loss_fraction: h.loss_fraction,
            confidence: h.confidence,
        }
    }

    /// True when any degradation source is present (mirrors
    /// [`QueryHealth::is_degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.saturated_counters > 0 || self.saturation_events > 0 || self.loss_fraction > 0.0
    }
}

/// Aggregate statistics of the cluster view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Current epoch (number of accepted pushes).
    pub epoch: u64,
    /// Sketches merged so far.
    pub nodes: u64,
    /// Units offered across every merged node.
    pub total_added: u64,
    /// Folded saturation events.
    pub saturation_events: u64,
    /// Folded eviction counts.
    pub evictions: u64,
    /// Shared counters `L` in the view.
    pub counters: u64,
}

const TAG_HELLO: u8 = 0x01;
const TAG_PUSH: u8 = 0x02;
const TAG_QUERY: u8 = 0x03;
const TAG_HEALTH: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_PUSH_DELTA: u8 = 0x06;
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_PUSH_ACK: u8 = 0x82;
const TAG_ESTIMATES: u8 = 0x83;
const TAG_HEALTH_RSP: u8 = 0x84;
const TAG_STATS_RSP: u8 = 0x85;
const TAG_DELTA_NACK: u8 = 0x86;
const TAG_ERROR: u8 = 0xFF;

impl Request {
    /// The payload [`Request::PushSketch`] of `sketch` encodes to,
    /// written once, straight from the borrowed sketch.
    pub fn push_sketch_payload(sketch: &SketchPayload) -> Vec<u8> {
        let mut buf = vec![TAG_PUSH];
        sketch.encode_into(&mut buf);
        buf
    }

    /// The payload [`Request::PushDelta`] of `delta` encodes to,
    /// written once, straight from the borrowed delta.
    pub fn push_delta_payload(delta: &SketchDelta) -> Vec<u8> {
        let mut buf = vec![TAG_PUSH_DELTA];
        delta.encode_into(&mut buf);
        buf
    }

    /// The fingerprint of an encoded `PushSketch` or `PushDelta`
    /// payload, read from its head without decoding its counters;
    /// `None` for any other payload, or one whose head does not decode
    /// (its full decode reports why).
    pub fn push_fingerprint(payload: &[u8]) -> Option<SketchFingerprint> {
        match payload.split_first() {
            Some((&TAG_PUSH, sketch)) => SketchPayload::decode_fingerprint(sketch).ok(),
            Some((&TAG_PUSH_DELTA, delta)) => SketchDelta::decode_fingerprint(delta).ok(),
            _ => None,
        }
    }

    /// Encode into a raw (unsealed) payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello(fp) => {
                buf.push(TAG_HELLO);
                fp.encode_into(&mut buf);
            }
            Request::PushSketch(p) => return Self::push_sketch_payload(p),
            Request::PushDelta(d) => return Self::push_delta_payload(d),
            Request::Query(flows) => {
                buf.push(TAG_QUERY);
                buf.put_u64_le(flows.len() as u64);
                for &f in flows {
                    buf.put_u64_le(f);
                }
            }
            Request::QueryHealth(flow) => {
                buf.push(TAG_HEALTH);
                buf.put_u64_le(*flow);
            }
            Request::Stats => buf.push(TAG_STATS),
        }
        buf
    }

    /// Decode a payload produced by [`Request::encode`].
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8().ok_or(ProtoError::Malformed("empty payload"))?;
        match tag {
            TAG_HELLO => {
                let fp = SketchFingerprint::decode_from(&mut r)
                    .ok_or(ProtoError::Malformed("hello fingerprint"))?;
                expect_drained(&r)?;
                Ok(Request::Hello(fp))
            }
            TAG_PUSH => {
                let rest = r.get_slice(r.remaining()).unwrap_or(&[]);
                let p = SketchPayload::decode(rest)
                    .map_err(|_| ProtoError::Malformed("sketch payload"))?;
                Ok(Request::PushSketch(p))
            }
            TAG_PUSH_DELTA => {
                let rest = r.get_slice(r.remaining()).unwrap_or(&[]);
                let d = SketchDelta::decode(rest)
                    .map_err(|_| ProtoError::Malformed("sketch delta"))?;
                Ok(Request::PushDelta(d))
            }
            TAG_QUERY => {
                let n = r.get_u64_le().ok_or(ProtoError::Malformed("query count"))? as usize;
                if r.remaining() != n.saturating_mul(8) {
                    return Err(ProtoError::Malformed("query flow list"));
                }
                let mut flows = Vec::with_capacity(n);
                for _ in 0..n {
                    flows.push(r.get_u64_le().ok_or(ProtoError::Malformed("query flow"))?);
                }
                Ok(Request::Query(flows))
            }
            TAG_HEALTH => {
                let flow = r.get_u64_le().ok_or(ProtoError::Malformed("health flow"))?;
                expect_drained(&r)?;
                Ok(Request::QueryHealth(flow))
            }
            TAG_STATS => {
                expect_drained(&r)?;
                Ok(Request::Stats)
            }
            _ => Err(ProtoError::Malformed("unknown request tag")),
        }
    }
}

impl Response {
    /// Encode into a raw (unsealed) payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloAck(fp) => {
                buf.push(TAG_HELLO_ACK);
                fp.encode_into(&mut buf);
            }
            Response::PushAck { epoch, nodes, bytes } => {
                buf.push(TAG_PUSH_ACK);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*nodes);
                buf.put_u64_le(*bytes);
            }
            Response::DeltaNack { epoch } => {
                buf.push(TAG_DELTA_NACK);
                buf.put_u64_le(*epoch);
            }
            Response::Estimates { epoch, values } => {
                buf.push(TAG_ESTIMATES);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(values.len() as u64);
                for &v in values {
                    buf.put_u64_le(v.to_bits());
                }
            }
            Response::Health { epoch, health } => {
                buf.push(TAG_HEALTH_RSP);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(health.estimate.to_bits());
                buf.put_u64_le(health.variance.to_bits());
                buf.put_u64_le(health.saturation_events);
                buf.put_u64_le(health.saturated_counters);
                buf.put_u64_le(health.loss_fraction.to_bits());
                buf.put_u64_le(health.confidence.to_bits());
            }
            Response::Stats(s) => {
                buf.push(TAG_STATS_RSP);
                buf.put_u64_le(s.epoch);
                buf.put_u64_le(s.nodes);
                buf.put_u64_le(s.total_added);
                buf.put_u64_le(s.saturation_events);
                buf.put_u64_le(s.evictions);
                buf.put_u64_le(s.counters);
            }
            Response::Error(msg) => {
                buf.push(TAG_ERROR);
                let bytes = msg.as_bytes();
                buf.put_u64_le(bytes.len() as u64);
                buf.put_slice(bytes);
            }
        }
        buf
    }

    /// Decode a payload produced by [`Response::encode`].
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8().ok_or(ProtoError::Malformed("empty payload"))?;
        match tag {
            TAG_HELLO_ACK => {
                let fp = SketchFingerprint::decode_from(&mut r)
                    .ok_or(ProtoError::Malformed("ack fingerprint"))?;
                expect_drained(&r)?;
                Ok(Response::HelloAck(fp))
            }
            TAG_PUSH_ACK => {
                let epoch = r.get_u64_le().ok_or(ProtoError::Malformed("ack epoch"))?;
                let nodes = r.get_u64_le().ok_or(ProtoError::Malformed("ack nodes"))?;
                let bytes = r.get_u64_le().ok_or(ProtoError::Malformed("ack bytes"))?;
                expect_drained(&r)?;
                Ok(Response::PushAck { epoch, nodes, bytes })
            }
            TAG_DELTA_NACK => {
                let epoch = r.get_u64_le().ok_or(ProtoError::Malformed("nack epoch"))?;
                expect_drained(&r)?;
                Ok(Response::DeltaNack { epoch })
            }
            TAG_ESTIMATES => {
                let epoch = r.get_u64_le().ok_or(ProtoError::Malformed("estimates epoch"))?;
                let n =
                    r.get_u64_le().ok_or(ProtoError::Malformed("estimate count"))? as usize;
                if r.remaining() != n.saturating_mul(8) {
                    return Err(ProtoError::Malformed("estimate list"));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    let bits = r.get_u64_le().ok_or(ProtoError::Malformed("estimate"))?;
                    values.push(f64::from_bits(bits));
                }
                Ok(Response::Estimates { epoch, values })
            }
            TAG_HEALTH_RSP => {
                let mut next =
                    |what| r.get_u64_le().ok_or(ProtoError::Malformed(what));
                let epoch = next("health epoch")?;
                let health = HealthReport {
                    estimate: f64::from_bits(next("health estimate")?),
                    variance: f64::from_bits(next("health variance")?),
                    saturation_events: next("health events")?,
                    saturated_counters: next("health counters")?,
                    loss_fraction: f64::from_bits(next("health loss")?),
                    confidence: f64::from_bits(next("health confidence")?),
                };
                expect_drained(&r)?;
                Ok(Response::Health { epoch, health })
            }
            TAG_STATS_RSP => {
                let mut next =
                    |what| r.get_u64_le().ok_or(ProtoError::Malformed(what));
                let s = ClusterStats {
                    epoch: next("stats epoch")?,
                    nodes: next("stats nodes")?,
                    total_added: next("stats total")?,
                    saturation_events: next("stats events")?,
                    evictions: next("stats evictions")?,
                    counters: next("stats counters")?,
                };
                expect_drained(&r)?;
                Ok(Response::Stats(s))
            }
            TAG_ERROR => {
                let n = r.get_u64_le().ok_or(ProtoError::Malformed("error length"))? as usize;
                let bytes = r.get_slice(n).ok_or(ProtoError::Malformed("error text"))?;
                let msg = String::from_utf8(bytes.to_vec())
                    .map_err(|_| ProtoError::Malformed("error text utf-8"))?;
                expect_drained(&r)?;
                Ok(Response::Error(msg))
            }
            _ => Err(ProtoError::Malformed("unknown response tag")),
        }
    }
}

fn expect_drained(r: &ByteReader<'_>) -> Result<(), ProtoError> {
    if r.remaining() != 0 {
        return Err(ProtoError::Malformed("trailing bytes"));
    }
    Ok(())
}

/// Write one frame: seal `payload` in place and prefix the body length.
pub fn write_frame(w: &mut impl std::io::Write, payload: Vec<u8>) -> Result<(), ProtoError> {
    let mut body = payload;
    seal(&mut body);
    if body.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized(body.len() as u64));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Read one frame and return the validated payload (footer stripped).
/// `Ok(None)` on a clean end-of-stream at a frame boundary.
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized(len as u64));
    }
    // Grow with the bytes that arrive, not with the declared length: a
    // header alone reserves at most FRAME_READ_CHUNK, not up to
    // MAX_FRAME_BYTES. The first chunk is reserved so a typical frame
    // arrives in one read, not in a run of small probe reads.
    let mut body = Vec::with_capacity(len.min(FRAME_READ_CHUNK));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(ProtoError::Io(format!(
            "frame body truncated: {} of {len} bytes arrived",
            body.len()
        )));
    }
    // The seal footer is a suffix: strip it in place.
    let payload_len = unseal(&body)?.len();
    body.truncate(payload_len);
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar::CaesarConfig;

    fn fp() -> SketchFingerprint {
        SketchFingerprint::of(&CaesarConfig::default())
    }

    #[test]
    fn requests_roundtrip() {
        // `L` travels in the fingerprint, so a payload's counters are
        // its fingerprint's.
        let payload = SketchPayload {
            fingerprint: SketchFingerprint { counters: 3, ..fp() },
            counters: vec![1, 2, 3],
            total_added: 6,
            saturation_events: 0,
            evictions: 2,
        };
        let delta = SketchDelta {
            fingerprint: fp(),
            base_epoch: 5,
            blocks: vec![(0, vec![3; caesar::DIRTY_BLOCK_COUNTERS])],
            total_added_delta: 3 * caesar::DIRTY_BLOCK_COUNTERS as u64,
            saturation_events_delta: 0,
            evictions_delta: 1,
        };
        for req in [
            Request::Hello(fp()),
            Request::PushSketch(payload),
            Request::PushDelta(delta),
            Request::Query(vec![]),
            Request::Query(vec![7, 8, u64::MAX]),
            Request::QueryHealth(42),
            Request::Stats,
        ] {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for rsp in [
            Response::HelloAck(fp()),
            Response::PushAck { epoch: 3, nodes: 2, bytes: 16_408 },
            Response::DeltaNack { epoch: 11 },
            Response::Estimates { epoch: 1, values: vec![-0.5, 1024.25, f64::INFINITY] },
            Response::Health {
                epoch: 9,
                health: HealthReport {
                    estimate: 12.5,
                    variance: 3.25,
                    saturation_events: 2,
                    saturated_counters: 1,
                    loss_fraction: 0.125,
                    confidence: 0.75,
                },
            },
            Response::Stats(ClusterStats {
                epoch: 4,
                nodes: 4,
                total_added: 1_000_000,
                saturation_events: 0,
                evictions: 512,
                counters: 23_438,
            }),
            Response::Error("sketch geometry mismatch: k is 3 here, 4 there".into()),
        ] {
            let decoded = Response::decode(&rsp.encode()).unwrap();
            assert_eq!(decoded, rsp);
        }
    }

    #[test]
    fn estimates_survive_the_wire_bit_for_bit() {
        let values = vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e300];
        let rsp = Response::Estimates { epoch: 0, values: values.clone() };
        match Response::decode(&rsp.encode()).unwrap() {
            Response::Estimates { values: got, .. } => {
                for (a, b) in values.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let payload = Request::Query(vec![1, 2, 3]).encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, payload.clone()).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload.clone()));
        // Clean EOF at the boundary.
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
        // Bit flip inside the body → checksum failure.
        let mut flipped = wire.clone();
        let n = flipped.len();
        flipped[n / 2] ^= 0x10;
        assert!(matches!(
            read_frame(&mut &flipped[..]),
            Err(ProtoError::Seal(SealError::BadChecksum))
        ));
        // Truncated mid-body.
        assert!(matches!(
            read_frame(&mut &wire[..wire.len() - 2]),
            Err(ProtoError::Io(_))
        ));
        // Nonsense length refuses before allocating.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn hostile_length_header_then_eof_is_an_io_error() {
        let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xA5; 16]);
        assert!(matches!(read_frame(&mut &wire[..]), Err(ProtoError::Io(_))));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(matches!(Request::decode(&[]), Err(ProtoError::Malformed(_))));
        assert!(matches!(Request::decode(&[0x42]), Err(ProtoError::Malformed(_))));
        // Trailing garbage after a fixed-size message.
        let mut hello = Request::Hello(fp()).encode();
        hello.push(0);
        assert!(matches!(
            Request::decode(&hello),
            Err(ProtoError::Malformed("trailing bytes"))
        ));
        assert!(matches!(Response::decode(&[0x42]), Err(ProtoError::Malformed(_))));
    }
}
