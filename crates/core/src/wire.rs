//! Low-level binary encoding helpers shared by the streaming log
//! format ([`crate::stream`]) and its whole-recording façade
//! ([`crate::serialize`]).

use crate::mode::Mode;
use crate::serialize::DecodeError;

/// Format magic: "DLRN".
pub(crate) const MAGIC: u32 = 0x444c_524e;
/// Format version (v2: streamed, self-delimiting segments).
pub(crate) const VERSION: u16 = 2;

/// Segment kind: LZ77-compressed commit events.
pub(crate) const SEG_EVENTS: u8 = 1;
/// Segment kind: the trailing digest + statistics.
pub(crate) const SEG_TRAILER: u8 = 2;

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// LEB128: seven bits a byte, low group first, high bit set on
    /// every byte but the last.
    pub(crate) fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }
    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }
    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }
    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }
    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }
    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }
    /// Reads a [`Writer::varint`]. A value that overflows 64 bits is
    /// truncated input, like any other field that cannot be read.
    pub(crate) fn varint(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8(what)?;
            let group = u64::from(b & 0x7f);
            if shift == 63 && group > 1 {
                return Err(DecodeError::Truncated(what));
            }
            v |= group << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::Truncated(what))
    }
    /// Bytes left to read — the bound for any element count taken from
    /// the input, so a forged count can never size an allocation.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn len(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let n = self.u64(what)?;
        if n > self.buf.len() as u64 {
            return Err(DecodeError::Truncated(what));
        }
        Ok(n as usize)
    }
    pub(crate) fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.len(what)?;
        self.take(n, what)
    }
    pub(crate) fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes(what)?.to_vec()).map_err(|_| DecodeError::Truncated(what))
    }
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// FNV-1a over a byte slice — the format's corruption check.
#[cfg(test)]
pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a, for checksumming a segment's header fields and
/// body without concatenating them first.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub(crate) fn value(&self) -> u64 {
        self.0
    }
}

/// A fresh incremental FNV-1a hasher.
pub(crate) fn fnv_hasher() -> Fnv {
    Fnv::new()
}

pub(crate) fn mode_tag(m: Mode) -> u8 {
    match m {
        Mode::OrderSize => 0,
        Mode::OrderOnly => 1,
        Mode::PicoLog => 2,
    }
}

pub(crate) fn mode_from(tag: u8) -> Result<Mode, DecodeError> {
    Ok(match tag {
        0 => Mode::OrderSize,
        1 => Mode::OrderOnly,
        2 => Mode::PicoLog,
        _ => return Err(DecodeError::Truncated("mode tag")),
    })
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn incremental_fnv_matches_oneshot() {
        let data = b"delorean streaming segments";
        let mut inc = Fnv::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.0, fnv(data));
    }

    #[test]
    fn reader_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(2.5);
        w.str("barnes");
        for v in [0, 127, 128, 300, u64::MAX] {
            w.varint(v);
        }
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.f64("e").unwrap(), 2.5);
        assert_eq!(r.str("f").unwrap(), "barnes");
        for v in [0, 127, 128, 300, u64::MAX] {
            assert_eq!(r.varint("v").unwrap(), v);
        }
        assert!(r.done());
        assert!(r.u8("g").is_err());
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // Eleven continuation groups, and a tenth group past bit 63.
        for bad in [
            &[0xff; 11][..],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
        ] {
            assert!(Reader::new(bad).varint("v").is_err());
        }
        assert!(Reader::new(&[0x80]).varint("v").is_err(), "unterminated");
    }
}
