//! Minimal from-scratch libpcap file support.
//!
//! The paper replays a real capture; users who have one can load it
//! here. We implement the classic pcap container (24-byte global
//! header plus per-record headers) and decode the Ethernet → IPv4 →
//! TCP/UDP/ICMP stack into [`FiveTuple`]s.
//!
//! Anything else (IPv6, VLAN, truncated records) is counted and
//! skipped rather than failing the whole file — real captures are
//! messy. A record header is untrusted input: a record longer than
//! both the file's snaplen and a 256 KiB ceiling is streamed past and
//! counted as skipped, never buffered, and a record's buffer grows
//! only as its bytes actually arrive.
//!
//! A writer is included so tests and examples can synthesize captures
//! and round-trip them.

use crate::packet::{FiveTuple, Packet, Trace};
use std::collections::HashSet;
use std::io::{self, Read, Write};

/// Classic pcap magic, microsecond timestamps, writer-native order.
pub const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// Byte-swapped magic (file written on opposite endianness).
pub const PCAP_MAGIC_SWAPPED: u32 = 0xD4C3_B2A1;
/// Linktype for Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Linktype for raw IP (no link-layer header).
pub const LINKTYPE_RAW: u32 = 101;
/// Hard ceiling on a buffered record, in bytes (4× the 65 535-byte
/// snaplen writers use by default). A record larger than both this and
/// the file's snaplen is undecodable and is skipped unread.
const MAX_RECORD_BYTES: u32 = 262_144;

/// Counters of what the parser saw and skipped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParseStats {
    /// Records parsed into packets.
    pub parsed: u64,
    /// Records skipped (non-IPv4, unsupported transport, truncated,
    /// oversized).
    pub skipped: u64,
}

/// Errors from reading a pcap stream.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The global header magic was not a known pcap magic.
    BadMagic(u32),
    /// The link type is not Ethernet.
    UnsupportedLinkType(u32),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::UnsupportedLinkType(t) => write!(f, "unsupported linktype {t}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Streaming pcap reader yielding `(FiveTuple, original_length)`.
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    raw_ip: bool,
    /// The global header's snaplen: the largest record a well-formed
    /// file holds.
    snaplen: u32,
    /// One record buffer, reused across records.
    record: Vec<u8>,
    stats: ParseStats,
}

impl<R: Read> PcapReader<R> {
    /// Parse the global header and construct a reader.
    pub fn new(mut inner: R) -> Result<Self, PcapError> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let swapped = match magic {
            PCAP_MAGIC => false,
            PCAP_MAGIC_SWAPPED => true,
            other => return Err(PcapError::BadMagic(other)),
        };
        let read_u32 = |b: &[u8]| {
            let arr = [b[0], b[1], b[2], b[3]];
            if swapped {
                u32::from_be_bytes(arr)
            } else {
                u32::from_le_bytes(arr)
            }
        };
        let linktype = read_u32(&hdr[20..24]);
        let raw_ip = match linktype {
            LINKTYPE_ETHERNET => false,
            LINKTYPE_RAW => true,
            other => return Err(PcapError::UnsupportedLinkType(other)),
        };
        Ok(Self {
            inner,
            swapped,
            raw_ip,
            snaplen: read_u32(&hdr[16..20]),
            record: Vec::new(),
            stats: ParseStats::default(),
        })
    }

    /// Parse stats so far.
    pub fn stats(&self) -> ParseStats {
        self.stats
    }

    fn read_u32(&mut self) -> io::Result<Option<u32>> {
        let mut b = [0u8; 4];
        match self.inner.read_exact(&mut b) {
            Ok(()) => Ok(Some(if self.swapped {
                u32::from_be_bytes(b)
            } else {
                u32::from_le_bytes(b)
            })),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Next decodable packet, or `None` at end of file. Undecodable
    /// records are skipped and counted in [`ParseStats::skipped`].
    pub fn next_packet(&mut self) -> Result<Option<(FiveTuple, u32)>, PcapError> {
        loop {
            let Some(_ts_sec) = self.read_u32()? else {
                return Ok(None);
            };
            // ts_usec, incl_len, orig_len must follow or the file is
            // truncated mid-header, which we treat as EOF.
            let (Some(_ts_usec), Some(incl_len), Some(orig_len)) =
                (self.read_u32()?, self.read_u32()?, self.read_u32()?)
            else {
                return Ok(None);
            };
            let mut body = (&mut self.inner).take(u64::from(incl_len));
            if incl_len > self.snaplen && incl_len > MAX_RECORD_BYTES {
                // Undecodable by size alone: stream past it unread.
                self.stats.skipped += 1;
                match io::copy(&mut body, &mut io::sink()) {
                    Ok(n) if n == u64::from(incl_len) => continue,
                    _ => return Ok(None),
                }
            }
            // `read_to_end` grows the buffer as bytes arrive, so a
            // header that lies about a short file cannot force the
            // allocation it claims.
            self.record.clear();
            match body.read_to_end(&mut self.record) {
                Ok(n) if n == incl_len as usize => {}
                _ => return Ok(None),
            }
            let decoded = if self.raw_ip {
                decode_ipv4(&self.record)
            } else {
                decode_ethernet_ipv4(&self.record)
            };
            match decoded {
                Some(tuple) => {
                    self.stats.parsed += 1;
                    return Ok(Some((tuple, orig_len)));
                }
                None => {
                    self.stats.skipped += 1;
                }
            }
        }
    }

    /// Read the whole file into a [`Trace`].
    pub fn read_trace(mut self) -> Result<(Trace, ParseStats), PcapError> {
        let mut packets = Vec::new();
        let mut flows = HashSet::new();
        while let Some((tuple, orig_len)) = self.next_packet()? {
            let flow = tuple.flow_id();
            flows.insert(flow);
            packets.push(Packet { flow, byte_len: orig_len });
        }
        Ok((
            Trace {
                packets,
                num_flows: flows.len(),
            },
            self.stats,
        ))
    }
}

/// Decode an Ethernet frame carrying IPv4 TCP/UDP/ICMP into a 5-tuple.
/// Returns `None` for anything else.
pub fn decode_ethernet_ipv4(frame: &[u8]) -> Option<FiveTuple> {
    if frame.len() < 14 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None; // not IPv4 (could be VLAN/IPv6/ARP)
    }
    decode_ipv4(&frame[14..])
}

/// Decode a bare IPv4 packet (linktype RAW) into a 5-tuple.
pub fn decode_ipv4(ip: &[u8]) -> Option<FiveTuple> {
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = ((ip[0] & 0x0F) as usize) * 4;
    if ihl < 20 || ip.len() < ihl {
        return None;
    }
    let proto = ip[9];
    let src_ip = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]);
    let dst_ip = u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]);
    let l4 = &ip[ihl..];
    let (src_port, dst_port) = match proto {
        FiveTuple::TCP | FiveTuple::UDP => {
            if l4.len() < 4 {
                return None;
            }
            (
                u16::from_be_bytes([l4[0], l4[1]]),
                u16::from_be_bytes([l4[2], l4[3]]),
            )
        }
        FiveTuple::ICMP => (0, 0),
        _ => return None,
    };
    Some(FiveTuple {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        proto,
    })
}

/// Writer producing classic little-endian pcap with Ethernet linktype.
pub struct PcapWriter<W: Write> {
    inner: W,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and construct the writer.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&PCAP_MAGIC.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&65535u32.to_le_bytes())?; // snaplen
        inner.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(Self { inner })
    }

    /// Append one minimal Ethernet+IPv4 packet for `tuple`, padding the
    /// on-wire length to `wire_len`.
    pub fn write_packet(&mut self, tuple: &FiveTuple, ts_sec: u32, wire_len: u32) -> io::Result<()> {
        let frame = encode_ethernet_ipv4(tuple);
        self.inner.write_all(&ts_sec.to_le_bytes())?;
        self.inner.write_all(&0u32.to_le_bytes())?; // ts_usec
        self.inner.write_all(&(frame.len() as u32).to_le_bytes())?;
        // The max must happen in u32: pcap's orig_len field is 32-bit,
        // and narrowing wire_len first would truncate jumbo lengths
        // before the comparison ever saw them.
        self.inner
            .write_all(&wire_len.max(frame.len() as u32).to_le_bytes())?;
        self.inner.write_all(&frame)?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Build the smallest valid Ethernet+IPv4(+L4 ports) frame for `tuple`.
pub fn encode_ethernet_ipv4(tuple: &FiveTuple) -> Vec<u8> {
    let l4_len = match tuple.proto {
        FiveTuple::TCP => 20,
        FiveTuple::UDP => 8,
        _ => 8, // ICMP header
    };
    let total_ip = 20 + l4_len;
    let mut f = Vec::with_capacity(14 + total_ip);
    // Ethernet: dst MAC, src MAC, ethertype IPv4.
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]);
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]);
    f.extend_from_slice(&0x0800u16.to_be_bytes());
    // IPv4 header (no options, checksum left zero — parsers don't care).
    f.push(0x45);
    f.push(0);
    f.extend_from_slice(&(total_ip as u16).to_be_bytes());
    f.extend_from_slice(&[0, 0, 0, 0]); // id, flags/frag
    f.push(64); // ttl
    f.push(tuple.proto);
    f.extend_from_slice(&[0, 0]); // checksum
    f.extend_from_slice(&tuple.src_ip.to_be_bytes());
    f.extend_from_slice(&tuple.dst_ip.to_be_bytes());
    // L4.
    match tuple.proto {
        FiveTuple::TCP | FiveTuple::UDP => {
            f.extend_from_slice(&tuple.src_port.to_be_bytes());
            f.extend_from_slice(&tuple.dst_port.to_be_bytes());
            f.resize(14 + total_ip, 0);
        }
        _ => {
            f.resize(14 + total_ip, 0);
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tuple(p: u8) -> FiveTuple {
        FiveTuple {
            src_ip: 0x0A00_0001,
            dst_ip: 0xC0A8_0001,
            src_port: if p == FiveTuple::ICMP { 0 } else { 4242 },
            dst_port: if p == FiveTuple::ICMP { 0 } else { 443 },
            proto: p,
        }
    }

    #[test]
    fn roundtrip_tcp_udp_icmp() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for p in [FiveTuple::TCP, FiveTuple::UDP, FiveTuple::ICMP] {
                w.write_packet(&tuple(p), 0, 64).unwrap();
            }
            w.finish().unwrap();
        }
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        for p in [FiveTuple::TCP, FiveTuple::UDP, FiveTuple::ICMP] {
            let (t, len) = r.next_packet().unwrap().expect("packet");
            assert_eq!(t, tuple(p));
            assert_eq!(len, 64);
        }
        assert!(r.next_packet().unwrap().is_none());
        assert_eq!(r.stats(), ParseStats { parsed: 3, skipped: 0 });
    }

    #[test]
    fn jumbo_orig_len_survives_read_trace() {
        // Regression: read_trace used to clamp orig_len to u16::MAX,
        // silently corrupting byte counts for jumbo/aggregated records
        // (offload NICs hand the capture stack 64 KB+ super-packets).
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_packet(&tuple(FiveTuple::TCP), 0, 100_000).unwrap();
            w.write_packet(&tuple(FiveTuple::TCP), 0, 64).unwrap();
            w.finish().unwrap();
        }
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        let (_, len) = r.next_packet().unwrap().expect("packet");
        assert_eq!(len, 100_000);
        let (trace, _) = PcapReader::new(Cursor::new(&buf)).unwrap().read_trace().unwrap();
        assert_eq!(trace.packets[0].byte_len, 100_000);
        assert_eq!(trace.packets[1].byte_len, 64);
    }

    #[test]
    fn writer_orig_len_compares_in_u32() {
        // Regression: write_packet used to narrow wire_len to u16
        // before taking max(frame.len()), so a jumbo wire_len wrote a
        // truncated orig_len. The whole comparison now runs in u32.
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            // Larger than u16::MAX: must round-trip exactly.
            w.write_packet(&tuple(FiveTuple::UDP), 0, 70_000).unwrap();
            // Smaller than the synthesized frame: orig_len is the
            // frame length, never less than what was captured.
            w.write_packet(&tuple(FiveTuple::UDP), 0, 1).unwrap();
            w.finish().unwrap();
        }
        let frame_len = encode_ethernet_ipv4(&tuple(FiveTuple::UDP)).len() as u32;
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        let (_, len) = r.next_packet().unwrap().expect("jumbo packet");
        assert_eq!(len, 70_000);
        let (_, len) = r.next_packet().unwrap().expect("tiny packet");
        assert_eq!(len, frame_len);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = vec![0u8; 24];
        let err = PcapReader::new(Cursor::new(&buf)).err().expect("must fail");
        assert!(matches!(err, PcapError::BadMagic(0)));
    }

    #[test]
    fn non_ipv4_records_are_skipped() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_packet(&tuple(FiveTuple::TCP), 0, 64).unwrap();
            w.finish().unwrap();
        }
        // Append an ARP record by hand.
        let arp_frame = {
            let mut f = vec![0u8; 14];
            f[12] = 0x08;
            f[13] = 0x06; // ethertype ARP
            f.resize(42, 0);
            f
        };
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(arp_frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(arp_frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&arp_frame);

        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert!(r.next_packet().unwrap().is_some());
        assert!(r.next_packet().unwrap().is_none());
        assert_eq!(r.stats(), ParseStats { parsed: 1, skipped: 1 });
    }

    #[test]
    fn oversized_record_is_skipped_without_allocating_it() {
        // A 56-byte file: the global header, then one record header
        // claiming 0xFFFF_FFF0 bytes followed by 16 real ones. Reading
        // must neither allocate the claimed length nor fail.
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf).unwrap().finish().unwrap();
        for field in [0u32, 0, 0xFFFF_FFF0, 0xFFFF_FFF0] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        buf.extend_from_slice(&[0xAB; 16]);
        assert_eq!(buf.len(), 56);
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert!(r.next_packet().unwrap().is_none());
        assert_eq!(r.stats(), ParseStats { parsed: 0, skipped: 1 });
        assert!(r.record.capacity() <= MAX_RECORD_BYTES as usize);

        // An oversized record that is really there is streamed past,
        // and the packet after it still decodes.
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf).unwrap().finish().unwrap();
        let big = MAX_RECORD_BYTES + 1;
        for field in [0u32, 0, big, big] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        buf.resize(buf.len() + big as usize, 0);
        let mut w = PcapWriter { inner: &mut buf };
        w.write_packet(&tuple(FiveTuple::UDP), 0, 64).unwrap();
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        let (t, _) = r.next_packet().unwrap().expect("packet after the oversized record");
        assert_eq!(t, tuple(FiveTuple::UDP));
        assert_eq!(r.stats(), ParseStats { parsed: 1, skipped: 1 });
        assert!(r.record.capacity() < big as usize);
    }

    #[test]
    fn truncated_file_ends_cleanly() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            w.write_packet(&tuple(FiveTuple::TCP), 0, 64).unwrap();
            w.finish().unwrap();
        }
        // Chop the last record in half.
        let cut = buf.len() - 10;
        let mut r = PcapReader::new(Cursor::new(&buf[..cut])).unwrap();
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn read_trace_counts_flows() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for _ in 0..3 {
                w.write_packet(&tuple(FiveTuple::TCP), 0, 100).unwrap();
            }
            w.write_packet(&tuple(FiveTuple::UDP), 1, 200).unwrap();
            w.finish().unwrap();
        }
        let (trace, stats) = PcapReader::new(Cursor::new(&buf)).unwrap().read_trace().unwrap();
        assert_eq!(trace.num_packets(), 4);
        assert_eq!(trace.num_flows, 2);
        assert_eq!(stats.parsed, 4);
    }

    #[test]
    fn decode_rejects_short_and_non_v4() {
        assert!(decode_ethernet_ipv4(&[]).is_none());
        assert!(decode_ethernet_ipv4(&[0u8; 13]).is_none());
        let mut f = encode_ethernet_ipv4(&tuple(FiveTuple::TCP));
        f[14] = 0x65; // version 6
        assert!(decode_ethernet_ipv4(&f).is_none());
    }

    #[test]
    fn raw_ip_linktype_parses() {
        // Hand-build a linktype-101 capture: bare IPv4 packets.
        let mut buf = Vec::new();
        buf.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
        let frame = encode_ethernet_ipv4(&tuple(FiveTuple::UDP));
        let ip_only = &frame[14..];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(ip_only.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(ip_only.len() as u32).to_le_bytes());
        buf.extend_from_slice(ip_only);
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        let (t, _) = r.next_packet().unwrap().expect("packet");
        assert_eq!(t, tuple(FiveTuple::UDP));
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn unsupported_linktype_rejected() {
        let mut buf = vec![0u8; 24];
        buf[0..4].copy_from_slice(&PCAP_MAGIC.to_le_bytes());
        buf[20..24].copy_from_slice(&105u32.to_le_bytes()); // 802.11
        let err = PcapReader::new(Cursor::new(&buf)).err().expect("must fail");
        assert!(matches!(err, PcapError::UnsupportedLinkType(105)));
    }

    #[test]
    fn swapped_endianness_reader() {
        // Hand-build a big-endian pcap with one TCP packet.
        let mut buf = Vec::new();
        buf.extend_from_slice(&PCAP_MAGIC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        let frame = encode_ethernet_ipv4(&tuple(FiveTuple::TCP));
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&frame);
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        let (t, _) = r.next_packet().unwrap().expect("packet");
        assert_eq!(t, tuple(FiveTuple::TCP));
    }
}
