//! Low-level wire encoding: LEB128 varints, zigzag mapping for signed
//! deltas, and the dependency-free FNV-1a checksum.

use crate::TraceError;
use std::io::{BufRead, Read};

/// 64-bit FNV-1a running hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET_BASIS)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn digest(self) -> u64 {
        self.0
    }
}

/// Appends `v` to `out` as an LEB128 varint (1–10 bytes).
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a signed delta onto an unsigned varint payload so small
/// negative strides stay short: 0, -1, 1, -2, 2, ... → 0, 1, 2, 3, 4.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A reader wrapper that hashes every byte it yields, through `read` or
/// through `consume` after `fill_buf`, so validation passes compute the
/// checksum while streaming.
pub(crate) struct HashingReader<R> {
    inner: R,
    hash: Fnv,
}

impl<R> HashingReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hash: Fnv::new(),
        }
    }

    pub(crate) fn digest(&self) -> u64 {
        self.hash.digest()
    }

    /// The wrapped reader, for reads that must stay out of the hash
    /// (the checksum field itself).
    pub(crate) fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for HashingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        // `fill_buf` again returns, without reading, the buffer the
        // caller consumes from; its front `amt` bytes are the consumed.
        if let Ok(buf) = self.inner.fill_buf() {
            self.hash.update(&buf[..amt.min(buf.len())]);
        }
        self.inner.consume(amt);
    }
}

/// Reads exactly `N` bytes.
pub(crate) fn read_array<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads a little-endian u32.
pub(crate) fn read_u32<R: Read>(r: &mut R) -> Result<u32, TraceError> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

/// Reads a little-endian u64.
pub(crate) fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceError> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

/// Reads one LEB128 varint a byte at a time, for stream ends and
/// buffer edges: [`decode_varint`] decides within 11 bytes.
pub(crate) fn read_varint<R: Read>(r: &mut R) -> Result<u64, TraceError> {
    let mut buf = [0u8; 11];
    for len in 1..=buf.len() {
        buf[len - 1] = read_array::<_, 1>(r)?[0];
        if let Some((v, _)) = decode_varint(&buf[..len])? {
            return Ok(v);
        }
    }
    unreachable!("an 11-byte varint always overflows")
}

/// Decodes one LEB128 varint from the front of `buf`: its value and
/// length, or `Ok(None)` when `buf` ends before the varint (or its
/// overflow) does.
#[inline]
pub(crate) fn decode_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, TraceError> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate() {
        let (shift, payload) = (7 * i as u32, (byte & 0x7f) as u64);
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(TraceError::Corrupt("varint overflows 64 bits".into()));
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(Some((v, i + 1)));
        }
    }
    Ok(None)
}

/// True when the stream has no more bytes (used to reject trailing
/// garbage after the footer).
pub(crate) fn at_eof<R: BufRead>(r: &mut R) -> Result<bool, TraceError> {
    Ok(r.fill_buf()?.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn varints_round_trip_across_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            assert_eq!(decode_varint(&buf), Ok(Some((v, buf.len()))));
            assert_eq!(decode_varint(&buf[..buf.len() - 1]), Ok(None));
            let mut cur = Cursor::new(buf);
            assert_eq!(read_varint(&mut cur).expect("decodes"), v);
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        let overflow = Err(TraceError::Corrupt("varint overflows 64 bits".into()));
        // Eleven continuation bytes cannot fit in 64 bits.
        assert_eq!(read_varint(&mut Cursor::new(vec![0x80u8; 11])), overflow);
        assert_eq!(decode_varint(&[0x80; 11]).map(|_| 0), overflow);
        // Ten continuation bytes decide nothing until the eleventh.
        assert_eq!(decode_varint(&[0x80; 10]), Ok(None));
        // Ten bytes whose top payload exceeds the final two bits.
        let mut bytes = vec![0xffu8; 9];
        bytes.push(0x7f);
        assert_eq!(decode_varint(&bytes).map(|_| 0), overflow);
        assert_eq!(read_varint(&mut Cursor::new(bytes)), overflow);
    }

    #[test]
    fn zigzag_round_trips_signed_deltas() {
        for v in [0i64, 1, -1, 2, -2, 1000, -1000, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn fnv_matches_the_reference_basis_and_differs_on_content() {
        assert_eq!(Fnv::new().digest(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::new();
        a.update(b"silo");
        let mut b = Fnv::new();
        b.update(b"sil0");
        assert_ne!(a.digest(), b.digest());
        // Incremental updates equal one-shot hashing.
        let mut c = Fnv::new();
        c.update(b"si");
        c.update(b"lo");
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn hashing_reader_hashes_exactly_the_bytes_read() {
        let data = b"0123456789".to_vec();
        let mut hr = HashingReader::new(Cursor::new(data.clone()));
        let mut out = Vec::new();
        hr.read_to_end(&mut out).expect("reads");
        let mut direct = Fnv::new();
        direct.update(&data);
        assert_eq!(hr.digest(), direct.digest());

        // Consumed buffer slices and reads mix, through a 3-byte buffer.
        let inner = std::io::BufReader::with_capacity(3, Cursor::new(data.clone()));
        let mut hr = HashingReader::new(inner);
        assert_eq!(hr.fill_buf().expect("fills"), b"012");
        hr.consume(2);
        assert_eq!(read_array::<_, 4>(&mut hr).expect("reads"), *b"2345");
        hr.fill_buf().expect("fills");
        hr.consume(1);
        hr.read_to_end(&mut out).expect("reads");
        assert_eq!(hr.digest(), direct.digest());
    }
}
