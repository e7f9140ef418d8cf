/// Append-only encoder producing canonical wire bytes.
///
/// All multi-byte integers are little-endian; lengths and counts use
/// LEB128 varints. See the crate docs for the format overview.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varu64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a signed integer with zig-zag + LEB128 encoding.
    pub fn put_vari64(&mut self, v: i64) {
        self.put_varu64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian.
    ///
    /// NaN payloads are canonicalised so equal-by-meaning values encode
    /// identically (required for signing).
    pub fn put_f64(&mut self, v: f64) {
        let bits = if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        };
        self.put_u64(bits);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varu64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varu64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes raw bytes with no length prefix (caller manages framing).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Current write position, for [`Writer::bytes_from`] /
    /// [`Writer::patch_u32`] bookkeeping.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.buf.len()
    }

    /// Reserves a 4-byte little-endian `u32` slot (written as zeros)
    /// and returns its offset for a later [`Writer::patch_u32`].
    ///
    /// This is the allocation-free framing path: instead of encoding a
    /// body into an intermediate `Vec` to learn its length, callers
    /// reserve the prefix, encode the body in place, and patch the slot
    /// with `mark() - slot - 4`.
    pub fn reserve_u32(&mut self) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        at
    }

    /// Overwrites a previously reserved 4-byte slot with `v`,
    /// little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `at` was not obtained from [`Writer::reserve_u32`] (or
    /// an equivalent in-bounds offset with 4 bytes of room).
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Borrows everything written since `mark` (exclusive of nothing —
    /// `bytes_from(0)` is the whole buffer).
    #[must_use]
    pub fn bytes_from(&self, mark: usize) -> &[u8] {
        &self.buf[mark..]
    }

    /// Drops everything written since `mark`.
    pub fn truncate_to(&mut self, mark: usize) {
        self.buf.truncate(mark);
    }

    /// Consumes the writer into a shared, cheap-to-clone [`Bytes`]
    /// view — the borrowed-write path: encode once, fan out by
    /// refcount.
    #[must_use]
    pub fn freeze(self) -> crate::Bytes {
        crate::Bytes::from_vec(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_single_byte_values() {
        for v in 0u64..128 {
            let mut w = Writer::new();
            w.put_varu64(v);
            assert_eq!(w.as_bytes(), &[v as u8]);
        }
    }

    #[test]
    fn varint_multi_byte() {
        let mut w = Writer::new();
        w.put_varu64(300);
        assert_eq!(w.as_bytes(), &[0xac, 0x02]);
    }

    #[test]
    fn zigzag_small_negatives_are_small() {
        let mut w = Writer::new();
        w.put_vari64(-1);
        assert_eq!(w.as_bytes(), &[1]);
        let mut w = Writer::new();
        w.put_vari64(1);
        assert_eq!(w.as_bytes(), &[2]);
    }

    #[test]
    fn nan_is_canonical() {
        let mut w1 = Writer::new();
        w1.put_f64(f64::NAN);
        let mut w2 = Writer::new();
        w2.put_f64(-f64::NAN);
        assert_eq!(w1.as_bytes(), w2.as_bytes());
    }

    #[test]
    fn reserve_patch_matches_two_pass_encoding() {
        // Length-prefix a body without the intermediate Vec...
        let mut w = Writer::new();
        let slot = w.reserve_u32();
        let body_start = w.mark();
        w.put_str("hall-a");
        w.put_u64(42);
        let body_len = (w.mark() - body_start) as u32;
        w.patch_u32(slot, body_len);
        // ...and compare against the naive encode-then-prefix path.
        let mut body = Writer::new();
        body.put_str("hall-a");
        body.put_u64(42);
        let mut naive = Writer::new();
        naive.put_u32(body.len() as u32);
        naive.put_raw(body.as_bytes());
        assert_eq!(w.as_bytes(), naive.as_bytes());
        assert_eq!(w.bytes_from(body_start), body.as_bytes());
    }

    #[test]
    fn truncate_to_discards_a_partial_frame() {
        let mut w = Writer::new();
        w.put_u32(7);
        let mark = w.mark();
        w.put_str("doomed");
        w.truncate_to(mark);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn freeze_shares_without_copying() {
        let mut w = Writer::new();
        w.put_str("once");
        let encoded = w.as_bytes().to_vec();
        let b = w.freeze();
        let views: Vec<crate::Bytes> = (0..8).map(|_| b.clone()).collect();
        assert_eq!(b.ref_count(), 9);
        for v in &views {
            assert_eq!(&**v, &encoded[..]);
        }
    }
}
