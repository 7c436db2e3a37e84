//! Little-endian byte codec helpers — the workspace's replacement for
//! the `bytes` crate in `flowtrace::binfmt`.
//!
//! Writers push onto a plain `Vec<u8>` through [`PutBytes`]; readers
//! walk a borrowed slice with [`ByteReader`], which length-checks every
//! read so decoders can surface truncation as an error instead of a
//! panic. Variable-length integers are canonical unsigned LEB128
//! ([`PutBytes::put_uvarint`], [`ByteReader::get_uvarint`]).

/// Appending little-endian primitives to a byte buffer.
pub trait PutBytes {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a `u16`, little-endian.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a `u32`, little-endian.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a `u64`, little-endian.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append `v` as unsigned LEB128: seven bits per byte, low group
    /// first, the high bit set on every byte but the last. Always the
    /// shortest form, which is the only form
    /// [`ByteReader::get_uvarint`] accepts.
    fn put_uvarint(&mut self, mut v: u64) {
        let mut out = [0u8; UVARINT_MAX];
        let mut n = 0;
        while v >= 0x80 {
            out[n] = v as u8 | 0x80;
            v >>= 7;
            n += 1;
        }
        out[n] = v as u8;
        self.put_slice(&out[..=n]);
    }
}

impl PutBytes for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
}

/// A [`PutBytes`] sink that only counts: the exact length an encoder
/// would write, without writing it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl PutBytes for ByteCount {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// The most bytes a `u64` takes as LEB128.
const UVARINT_MAX: usize = 10;

/// Why [`ByteReader::get_uvarint`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended inside the varint.
    Truncated,
    /// A longer encoding than the value needs (it ends in a zero
    /// group): the value has another, canonical, encoding.
    Overlong,
    /// The value does not fit in 64 bits.
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VarintError::Truncated => "varint truncated",
            VarintError::Overlong => "overlong varint",
            VarintError::Overflow => "varint exceeds 64 bits",
        })
    }
}

impl std::error::Error for VarintError {}

/// A checked cursor over a byte slice. Every `get_*` returns `None`
/// once the input runs dry, so decoders never panic on truncated data.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Read exactly `N` bytes.
    pub fn get_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        if self.buf.len() < N {
            return None;
        }
        let (head, tail) = self.buf.split_at(N);
        self.buf = tail;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        Some(out)
    }

    /// Read exactly `n` bytes as a borrowed slice.
    pub fn get_slice(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    /// Read a single byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.get_array::<1>().map(|[b]| b)
    }

    /// Read a little-endian `u16`.
    pub fn get_u16_le(&mut self) -> Option<u16> {
        self.get_array::<2>().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    pub fn get_u32_le(&mut self) -> Option<u32> {
        self.get_array::<4>().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> Option<u64> {
        self.get_array::<8>().map(u64::from_le_bytes)
    }

    /// Read a little-endian `u64` element count whose elements take at
    /// least `width` bytes each (`width >= 1`), and return it only if
    /// the rest of the input can hold that many elements. A decoder
    /// that sizes an allocation from this count is thereby bounded by
    /// the input's own length: a forged count fails here as truncation
    /// instead of asking the allocator for terabytes.
    pub fn get_count(&mut self, width: usize) -> Option<usize> {
        let n = usize::try_from(self.get_u64_le()?).ok()?;
        (n <= self.remaining() / width).then_some(n)
    }

    /// Read a canonical unsigned LEB128 value (see
    /// [`PutBytes::put_uvarint`]). A refused read consumes nothing.
    pub fn get_uvarint(&mut self) -> Result<u64, VarintError> {
        let mut v = 0u64;
        for (i, &b) in self.buf.iter().take(UVARINT_MAX).enumerate() {
            // The tenth group holds bit 63 alone.
            if i == UVARINT_MAX - 1 && b > 1 {
                return Err(VarintError::Overflow);
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(VarintError::Overlong);
                }
                self.buf = &self.buf[i + 1..];
                return Ok(v);
            }
        }
        Err(VarintError::Truncated)
    }
}

/// Magic tag of a sealed buffer footer (`b"CSRB"` — CAESAR blob —
/// followed by a format version byte pair).
const SEAL_MAGIC: u32 = u32::from_le_bytes(*b"CSRB");
/// Footer layout version. Bump when the footer itself (not the
/// payload) changes shape.
const SEAL_VERSION: u16 = 1;
/// Footer length: magic (4) + version (2) + payload len (8) + fnv (8).
/// A buffer with this much spare capacity seals without reallocating.
pub const SEAL_FOOTER_LEN: usize = 4 + 2 + 8 + 8;

use hashkit::fnv::fnv1a64;

/// Append a crash-consistency footer — `magic, version, payload_len,
/// fnv1a64(payload)` — to `payload` in place. A sealed buffer is
/// self-validating: [`unseal`] refuses truncated, over-long, or
/// bit-flipped blobs instead of letting a decoder misparse them.
pub fn seal(payload: &mut Vec<u8>) {
    let len = payload.len() as u64;
    let sum = fnv1a64(payload);
    payload.put_u32_le(SEAL_MAGIC);
    payload.put_u16_le(SEAL_VERSION);
    payload.put_u64_le(len);
    payload.put_u64_le(sum);
}

/// Why [`unseal`] rejected a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Shorter than a footer, or payload length disagrees with the
    /// buffer length.
    Truncated,
    /// Footer magic or version mismatch — not a sealed buffer (or a
    /// future format).
    BadMagic,
    /// Payload bytes do not hash to the recorded checksum.
    BadChecksum,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Truncated => write!(f, "sealed buffer truncated"),
            SealError::BadMagic => write!(f, "sealed buffer magic/version mismatch"),
            SealError::BadChecksum => write!(f, "sealed buffer checksum mismatch"),
        }
    }
}

impl std::error::Error for SealError {}

/// Validate a buffer produced by [`seal`] and return the payload slice
/// (footer stripped).
pub fn unseal(buf: &[u8]) -> Result<&[u8], SealError> {
    if buf.len() < SEAL_FOOTER_LEN {
        return Err(SealError::Truncated);
    }
    let (payload, footer) = buf.split_at(buf.len() - SEAL_FOOTER_LEN);
    let mut r = ByteReader::new(footer);
    let magic = r.get_u32_le().ok_or(SealError::Truncated)?;
    let version = r.get_u16_le().ok_or(SealError::Truncated)?;
    let len = r.get_u64_le().ok_or(SealError::Truncated)?;
    let sum = r.get_u64_le().ok_or(SealError::Truncated)?;
    if magic != SEAL_MAGIC || version != SEAL_VERSION {
        return Err(SealError::BadMagic);
    }
    if len != payload.len() as u64 {
        return Err(SealError::Truncated);
    }
    if sum != fnv1a64(payload) {
        return Err(SealError::BadChecksum);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        buf.put_slice(b"tail");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u16_le(), Some(0xBEEF));
        assert_eq!(r.get_u32_le(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64_le(), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(r.get_array::<4>(), Some(*b"tail"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_returns_none_not_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u16_le(), Some(0x0201));
        assert_eq!(r.get_u32_le(), None, "only 1 byte left");
        assert_eq!(r.remaining(), 1, "failed read consumes nothing");
        assert_eq!(r.get_array::<1>(), Some([3]));
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_input() {
        let mut buf = Vec::new();
        buf.put_u64_le(2);
        buf.put_slice(&[0; 16]);
        assert_eq!(ByteReader::new(&buf).get_count(8), Some(2));
        assert_eq!(ByteReader::new(&buf).get_count(9), None, "18 bytes needed, 16 left");
        let mut forged = Vec::new();
        forged.put_u64_le(1 << 44);
        assert_eq!(ByteReader::new(&forged).get_count(1), None);
        forged.clear();
        forged.put_u64_le(u64::MAX);
        assert_eq!(ByteReader::new(&forged).get_count(8), None);
    }

    #[test]
    fn uvarints_roundtrip_at_every_length() {
        let mut values = vec![0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u64::MAX - 1, u64::MAX];
        values.extend((0..64).map(|s| 1u64 << s));
        values.extend((1..64).map(|s| (1u64 << s) - 1));
        for v in values {
            let mut buf = Vec::new();
            buf.put_uvarint(v);
            let groups = (64 - (v | 1).leading_zeros() as usize).div_ceil(7);
            assert_eq!(buf.len(), groups, "{v:#x}: the shortest form");
            let mut count = ByteCount::default();
            count.put_uvarint(v);
            assert_eq!(count.0, buf.len());
            buf.push(0xA5);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.get_uvarint(), Ok(v));
            assert_eq!(r.get_u8(), Some(0xA5), "reads exactly its own bytes");
        }
    }

    #[test]
    fn overlong_overflowing_and_truncated_uvarints_are_refused() {
        let refused = |bytes: &[u8], want: VarintError| {
            let mut r = ByteReader::new(bytes);
            assert_eq!(r.get_uvarint(), Err(want), "{bytes:x?}");
            assert_eq!(r.remaining(), bytes.len(), "a refused read consumes nothing");
        };
        // Overlong: a trailing zero group, at every length.
        refused(&[0x80, 0x00], VarintError::Overlong);
        refused(&[0x81, 0x80, 0x00], VarintError::Overlong);
        let nine = [0xFF; 9];
        refused(&[&nine[..], &[0x00]].concat(), VarintError::Overlong);
        // Over 64 bits: bit 64 set, or an eleventh byte.
        refused(&[&nine[..], &[0x02]].concat(), VarintError::Overflow);
        refused(&[0x80; 10], VarintError::Overflow);
        refused(&[0xFF; 11], VarintError::Overflow);
        // Truncated: empty, or every byte continues.
        refused(&[], VarintError::Truncated);
        refused(&[0x80], VarintError::Truncated);
        refused(&[0xFF; 9], VarintError::Truncated);
        // The largest value in ten bytes is fine.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(ByteReader::new(&max).get_uvarint(), Ok(u64::MAX));
    }

    #[test]
    fn little_endian_layout_is_pinned() {
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        assert_eq!(buf, [1, 0, 0, 0]);
    }

    #[test]
    fn seal_unseal_round_trip() {
        let mut buf = b"snapshot payload".to_vec();
        let payload = buf.clone();
        seal(&mut buf);
        assert_eq!(buf.len(), payload.len() + SEAL_FOOTER_LEN);
        assert_eq!(unseal(&buf), Ok(payload.as_slice()));
        // Empty payload seals too.
        let mut empty = Vec::new();
        seal(&mut empty);
        assert_eq!(unseal(&empty), Ok(&[][..]));
    }

    #[test]
    fn unseal_rejects_corruption() {
        let mut buf = vec![7u8; 100];
        seal(&mut buf);
        // Bit flip in the payload.
        let mut flipped = buf.clone();
        flipped[50] ^= 0x01;
        assert_eq!(unseal(&flipped), Err(SealError::BadChecksum));
        // Truncation (drops footer bytes): the footer window shifts,
        // so this surfaces as *some* error (magic lands on garbage).
        assert!(unseal(&buf[..buf.len() - 1]).is_err());
        // Extra garbage after the footer shifts the parse window.
        let mut padded = buf.clone();
        padded.push(0);
        assert_ne!(unseal(&padded), Ok(&buf[..100]));
        // Magic smashed.
        let n = buf.len();
        let mut bad = buf.clone();
        bad[n - SEAL_FOOTER_LEN] ^= 0xFF;
        assert_eq!(unseal(&bad), Err(SealError::BadMagic));
        // Too short to even hold a footer.
        assert_eq!(unseal(&[1, 2, 3]), Err(SealError::Truncated));
    }
}
