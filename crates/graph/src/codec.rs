//! A small self-contained binary codec: length-prefixed little-endian
//! primitives plus an FNV-1a 64 checksum.
//!
//! This is the wire layer shared by the lossless compact snapshot
//! ([`crate::snapshot::to_compact`]) and the durability stack in
//! `nous-persist` (WAL frames, checkpoint files). It deliberately has no
//! serde dependency: durable state must be writable and readable at
//! runtime in builds where the JSON stack is unavailable, and a
//! hand-rolled format keeps torn-write detection (checksums, length
//! sanity) explicit.

/// FNV-1a 64-bit hash — the checksum used by WAL frames and checkpoint
/// sections. Not cryptographic; it detects torn/corrupt records, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- writers --------------------------------------------------------------

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// UTF-8 string with a u32 length prefix.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Raw bytes with a u32 length prefix.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// What [`put_bytes`] writes for the bytes `fill` appends, written in
/// place: the length prefix is patched once `fill` returns, so a nested
/// section never exists as a buffer of its own.
pub fn put_bytes_with(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let prefix = buf.len();
    put_u32(buf, 0);
    fill(buf);
    let len = (buf.len() - prefix - 4) as u32;
    buf[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
}

/// A checksummed section written in place: `magic`, `version`, the
/// FNV-1a 64 of everything `fill` appends (patched once it returns), then
/// those bytes.
pub fn put_checksummed(
    buf: &mut Vec<u8>,
    magic: &[u8; 8],
    version: u32,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    buf.extend_from_slice(magic);
    put_u32(buf, version);
    let sum = buf.len();
    put_u64(buf, 0);
    fill(buf);
    let checksum = fnv1a64(&buf[sum + 8..]);
    buf[sum..sum + 8].copy_from_slice(&checksum.to_le_bytes());
}

// ---- reader ---------------------------------------------------------------

/// Decode failure: the buffer was truncated or structurally invalid.
/// Carries a static description of what was being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an immutable byte slice. Every accessor is
/// bounds-checked and returns [`DecodeError`] instead of panicking —
/// corrupt durable state must surface as an error, never a crash.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.take(4, "f32")?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().unwrap()))
    }

    /// Inverse of [`put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len, "length-prefixed bytes")
    }

    /// Inverse of [`put_str`].
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError("invalid utf-8 in string"))
    }

    /// A u32 element count, sanity-capped so a corrupt length can't
    /// drive a huge allocation: each element needs at least
    /// `min_elem_bytes` bytes of remaining input.
    pub fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError(what));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -1.5);
        put_f64(&mut buf, 2.25);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.f64().unwrap(), 2.25);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abcdef");
        let mut r = Reader::new(&buf[..buf.len() - 2]);
        assert!(r.str().is_err());
        let mut r2 = Reader::new(&[1, 2]);
        assert!(r2.u32().is_err());
    }

    #[test]
    fn insane_counts_are_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(r.count(1, "elements").is_err());
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Pinned value so the on-disk checksum format never drifts.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }
}
