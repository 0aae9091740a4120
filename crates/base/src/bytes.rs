//! The one little-endian byte codec behind everything a run persists:
//! checkpoints and the trace, flight-recorder and weather blobs they
//! carry.
//!
//! [`Writer`] appends fixed-width little-endian integers (and
//! `u64`-length-prefixed strings) to a `Vec<u8>`; [`Reader`] is its
//! bounds-checked inverse. The reader never panics and never
//! over-allocates on hostile input: every read past the end is an
//! error, and [`Reader::count`] rejects an element count that the bytes
//! remaining could not hold, so a forged length cannot drive a huge
//! allocation. Errors are plain strings; each format prefixes its own
//! context (a section tag, `"trace blob"`, ...).

/// Little-endian appends onto a byte buffer.
pub trait Writer {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u16`, little-endian.
    fn put_u16(&mut self, v: u16);
    /// Appends a `u32`, little-endian.
    fn put_u32(&mut self, v: u32);
    /// Appends a `u64`, little-endian.
    fn put_u64(&mut self, v: u64);
    /// Appends a `u128`, little-endian.
    fn put_u128(&mut self, v: u128);
    /// Appends `0` or `1`.
    fn put_bool(&mut self, v: bool);
    /// Appends `0` for `None`, else `1` and the value.
    fn put_opt_u64(&mut self, v: Option<u64>);
    /// Appends the byte length as a `u64`, then the bytes.
    fn put_bytes(&mut self, v: &[u8]);
    /// Appends a string as [`Writer::put_bytes`] of its UTF-8.
    fn put_str(&mut self, v: &str);
}

impl Writer for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u128(&mut self, v: u128) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_bool(&mut self, v: bool) {
        self.push(v as u8);
    }

    #[inline]
    fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.push(1);
                self.put_u64(x);
            }
            None => self.push(0),
        }
    }

    #[inline]
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.extend_from_slice(v);
    }

    #[inline]
    fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'b [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, or an error naming the offset when fewer
    /// remain.
    pub fn take(&mut self, n: usize) -> Result<&'b [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// A `0`/`1` byte; any other value is an error.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("bad bool byte {v}")),
        }
    }

    /// The inverse of [`Writer::put_opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            v => Err(format!("bad option byte {v}")),
        }
    }

    /// Reads a `u64` element count and rejects it when even
    /// `min_elem_bytes` per element would not fit in the bytes
    /// remaining, so a forged count can never drive a huge allocation.
    pub fn count(&mut self, what: &str, min_elem_bytes: usize) -> Result<usize, String> {
        let c = self.u64()?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if c > cap {
            return Err(format!("{what} count {c} exceeds the bytes remaining"));
        }
        Ok(c as usize)
    }

    /// Reads a [`count`](Reader::count), then that many elements with
    /// `read`.
    pub fn vec<T>(
        &mut self,
        what: &str,
        min_elem_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let count = self.count(what, min_elem_bytes)?;
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            v.push(read(self)?);
        }
        Ok(v)
    }

    /// The inverse of [`Writer::put_bytes`], borrowed from the buffer.
    pub fn bytes(&mut self, what: &str) -> Result<&'b [u8], String> {
        let len = self.count(what, 1)?;
        self.take(len)
    }

    /// The inverse of [`Writer::put_str`].
    pub fn str(&mut self, what: &str) -> Result<String, String> {
        let bytes = self.bytes(what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(&self, what: &str) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!(
                "{what}: {} trailing byte(s) after the last field",
                self.remaining()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_every_width() {
        let mut out = Vec::new();
        out.put_u8(0xAB);
        out.put_u16(0xBEEF);
        out.put_u32(0xDEAD_BEEF);
        out.put_u64(u64::MAX - 1);
        out.put_u128(1 << 100);
        out.put_bool(true);
        out.put_opt_u64(None);
        out.put_opt_u64(Some(9));
        out.put_str("héllo");
        assert_eq!(&out[1..3], &[0xEF, 0xBE], "little-endian");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.str("name").unwrap(), "héllo");
        r.finish("all").unwrap();
    }

    #[test]
    fn bytes_reads_past_the_end_and_bad_tags_are_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u32().unwrap_err().contains("wanted 4 bytes at offset 0"));
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert!(r.finish("x").unwrap_err().contains("1 trailing byte"));
        assert!(Reader::new(&[2]).bool().is_err());
        assert!(Reader::new(&[7]).opt_u64().is_err());
        let mut bad = Vec::new();
        bad.put_bytes(&[0xFF, 0xFE]);
        assert!(Reader::new(&bad)
            .str("s")
            .unwrap_err()
            .contains("not UTF-8"));
    }

    #[test]
    fn bytes_forged_count_is_an_error_and_allocates_nothing() {
        let mut out = Vec::new();
        out.put_u64(u64::MAX);
        out.put_u64(7);
        // The count is refused before any caller could size a buffer
        // from it: only the count word itself was consumed.
        let mut r = Reader::new(&out);
        let err = r.count("forged", 8).unwrap_err();
        assert!(err.contains("forged count"), "{err}");
        assert_eq!(r.remaining(), 8);
        assert!(Reader::new(&out).bytes("blob").is_err());
        // A count the remaining bytes can hold passes.
        out[..8].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(Reader::new(&out).count("one", 8).unwrap(), 1);
    }
}
