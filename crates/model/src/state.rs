//! Serialisable per-processor contexts.
//!
//! The EM-CGM simulation swaps each virtual processor's *context* to disk
//! between supersteps (steps (a)/(e) of the paper's Algorithm 2). A
//! context is anything implementing [`ProcState`]: a lossless, fixed
//! self-describing binary encoding. The encoded length is the context
//! size; its maximum over processors and rounds is the paper's `μ`.

use cgmio_pdm::{CodecError, Item};

/// Streaming encoder used by [`ProcState::encode`].
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Append a length-prefixed slice of items.
    pub fn items<T: Item>(&mut self, xs: &[T]) -> &mut Self {
        self.u64(xs.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + xs.len() * T::SIZE, 0);
        for (i, x) in xs.iter().enumerate() {
            x.write_to(&mut self.buf[start + i * T::SIZE..start + (i + 1) * T::SIZE]);
        }
        self
    }

    /// Append a bare `u64`.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// Append a bare `i64`.
    pub fn i64(&mut self, x: i64) -> &mut Self {
        self.buf.extend_from_slice(&x.to_le_bytes());
        self
    }

    /// Append one item.
    pub fn item<T: Item>(&mut self, x: &T) -> &mut Self {
        let start = self.buf.len();
        self.buf.resize(start + T::SIZE, 0);
        x.write_to(&mut self.buf[start..]);
        self
    }

    /// Append raw bytes, length-prefixed.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Finish, returning the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Streaming decoder used by [`ProcState::decode`].
///
/// The decoder is *poisoning*, not panicking: reading past the end of
/// the buffer (or hitting a length prefix that doesn't fit) records a
/// [`CodecError`], and every subsequent read returns a zero value /
/// empty collection. Contexts read back from disk can be truncated or
/// corrupt — a torn write that slipped past checksumming, a bad resume —
/// and that is an I/O condition to report via
/// [`ProcState::try_from_bytes`], never a reason to crash the run.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    failed: Option<CodecError>,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, failed: None }
    }

    /// Take the next `n` bytes, or poison the decoder.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let left = self.buf.len() - self.pos;
        if left >= n {
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Some(s)
        } else {
            if self.failed.is_none() {
                self.failed = Some(CodecError { needed: n, got: left });
            }
            self.pos = self.buf.len();
            None
        }
    }

    /// Read a length-prefixed item slice; empty once poisoned.
    ///
    /// The length prefix is validated against the remaining bytes
    /// *before* any allocation, so a corrupt prefix cannot trigger a
    /// huge allocation (let alone an out-of-bounds read).
    pub fn items<T: Item>(&mut self) -> Vec<T> {
        let n = self.u64() as usize;
        let Some(bytes) = n.checked_mul(T::SIZE) else {
            self.take(usize::MAX); // poison with an impossible need
            return Vec::new();
        };
        match self.take(bytes) {
            Some(buf) => T::decode_from(buf, n).expect("length checked"),
            None => Vec::new(),
        }
    }

    /// Read a bare `u64`; 0 once poisoned.
    pub fn u64(&mut self) -> u64 {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).unwrap_or(0)
    }

    /// Read a bare `i64`; 0 once poisoned.
    pub fn i64(&mut self) -> i64 {
        self.take(8).map(|b| i64::from_le_bytes(b.try_into().unwrap())).unwrap_or(0)
    }

    /// Read one item; zero-bytes value once poisoned.
    pub fn item<T: Item>(&mut self) -> T {
        match self.take(T::SIZE) {
            Some(b) => T::read_from(b),
            None => T::read_from(&vec![0u8; T::SIZE]),
        }
    }

    /// Read a length-prefixed byte string; empty once poisoned.
    pub fn bytes(&mut self) -> Vec<u8> {
        let n = self.u64() as usize;
        self.take(n).map(|b| b.to_vec()).unwrap_or_default()
    }

    /// True if the whole buffer was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The first decode failure, if any read ran past the buffer.
    pub fn error(&self) -> Option<CodecError> {
        self.failed
    }
}

/// A virtual processor context that can be swapped to disk.
pub trait ProcState: Sized {
    /// Serialise into `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Reconstruct from `dec`. Must be the exact inverse of `encode`.
    fn decode(dec: &mut Decoder<'_>) -> Self;

    /// Encoded size in bytes (the context size; max over procs = `μ`).
    fn encoded_len(&self) -> usize {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.finish().len()
    }

    /// Convenience: encode to a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode(&mut e);
        e.finish()
    }

    /// Convenience: encode into a reused buffer (cleared first), keeping
    /// its capacity across calls. This is what the runners use on the hot
    /// path so swapping a context out doesn't allocate once the scratch
    /// buffer has grown to the largest context size.
    fn encode_to_vec(&self, buf: &mut Vec<u8>) {
        buf.clear();
        self.encode_append(buf);
    }

    /// Encode after `buf`'s current contents, keeping them: the runners
    /// encode a context after the image read from its slot, so that the
    /// write-back can compare the two without a second buffer.
    fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut e = Encoder { buf: std::mem::take(buf) };
        self.encode(&mut e);
        *buf = e.finish();
    }

    /// Decode from a buffer, reporting truncated or corrupt input as an
    /// error instead of panicking. Callers reading contexts back from
    /// disk should use this and surface the failure as an I/O error.
    fn try_from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(buf);
        let v = Self::decode(&mut d);
        match d.error() {
            Some(e) => Err(e),
            None => Ok(v),
        }
    }

    /// Convenience: decode from a buffer known to be well-formed.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is truncated or corrupt; use
    /// [`ProcState::try_from_bytes`] for data read from disk.
    fn from_bytes(buf: &[u8]) -> Self {
        Self::try_from_bytes(buf).expect("corrupt ProcState bytes")
    }
}

// The built-in states know their encoded length without encoding: the
// runners size contexts they never write (a fresh run's input, a
// finished run's finals) with it.
impl<T: Item> ProcState for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.items(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Self {
        dec.items()
    }
    fn encoded_len(&self) -> usize {
        8 + self.len() * T::SIZE
    }
}

impl ProcState for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Self {
        dec.u64()
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl<A: ProcState, B: ProcState> ProcState for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Self {
        let a = A::decode(dec);
        let b = B::decode(dec);
        (a, b)
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: ProcState, B: ProcState, C: ProcState> ProcState for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Self {
        let a = A::decode(dec);
        let b = B::decode(dec);
        let c = C::decode(dec);
        (a, b, c)
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_roundtrip() {
        let v: Vec<u64> = (0..50).collect();
        let bytes = v.to_bytes();
        assert_eq!(Vec::<u64>::from_bytes(&bytes), v);
        assert_eq!(v.encoded_len(), 8 + 50 * 8);
    }

    #[test]
    fn tuple_state_roundtrip() {
        let s: (u64, Vec<i64>, Vec<(u64, u64)>) = (7, vec![-1, 2], vec![(1, 2), (3, 4)]);
        let bytes = s.to_bytes();
        let back = <(u64, Vec<i64>, Vec<(u64, u64)>)>::from_bytes(&bytes);
        assert_eq!(back, s);
        assert_eq!(s.encoded_len(), bytes.len());
        let pair: (Vec<u32>, u64) = (vec![1, 2, 3], 9);
        assert_eq!(pair.encoded_len(), pair.to_bytes().len());
    }

    #[test]
    fn encoder_decoder_mixed_stream() {
        let mut e = Encoder::new();
        e.u64(5).i64(-9).item(&(1u32, 2u32)).bytes(b"hi").items(&[7u16, 8, 9]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u64(), 5);
        assert_eq!(d.i64(), -9);
        assert_eq!(d.item::<(u32, u32)>(), (1, 2));
        assert_eq!(d.bytes(), b"hi");
        assert_eq!(d.items::<u16>(), vec![7, 8, 9]);
        assert!(d.is_exhausted());
    }

    #[test]
    fn empty_vec_roundtrip() {
        let v: Vec<u64> = vec![];
        assert_eq!(Vec::<u64>::from_bytes(&v.to_bytes()), v);
    }

    #[test]
    fn truncated_bytes_error_instead_of_panicking() {
        let v: Vec<u64> = (0..8).collect();
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            let e = Vec::<u64>::try_from_bytes(&bytes[..cut])
                .expect_err("truncated buffer must not decode");
            assert!(e.got < e.needed, "{e}");
        }
        assert_eq!(Vec::<u64>::try_from_bytes(&bytes).unwrap(), v);
        // tuple states poison through all fields without panicking
        let s: (u64, Vec<i64>, Vec<(u64, u64)>) = (7, vec![-1, 2], vec![(1, 2)]);
        let enc = s.to_bytes();
        assert!(<(u64, Vec<i64>, Vec<(u64, u64)>)>::try_from_bytes(&enc[..enc.len() - 1]).is_err());
        assert!(<(u64, Vec<i64>, Vec<(u64, u64)>)>::try_from_bytes(&enc).is_ok());
    }

    #[test]
    fn corrupt_length_prefix_is_bounded() {
        // an absurd length prefix must neither panic nor allocate
        let mut bytes = vec![0u8; 8];
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Vec::<u64>::try_from_bytes(&bytes).is_err());
        // a plausible-but-too-long prefix is caught by the remaining-bytes check
        let mut e = Encoder::new();
        e.u64(1000).u64(42);
        assert!(Vec::<u64>::try_from_bytes(&e.finish()).is_err());
    }

    #[test]
    fn poisoned_decoder_returns_defaults_and_first_error() {
        let mut e = Encoder::new();
        e.u64(5);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u64(), 5);
        assert_eq!(d.u64(), 0); // past the end: default, poisoned
        assert_eq!(d.i64(), 0);
        assert_eq!(d.item::<(u32, u32)>(), (0, 0));
        assert!(d.bytes().is_empty());
        assert!(d.items::<u64>().is_empty());
        let err = d.error().unwrap();
        assert_eq!((err.needed, err.got), (8, 0)); // first failure is kept
    }

    #[test]
    fn encode_to_vec_reuses_capacity() {
        let v: Vec<u64> = (0..100).collect();
        let mut buf = Vec::new();
        v.encode_to_vec(&mut buf);
        assert_eq!(buf, v.to_bytes());
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let small: Vec<u64> = vec![1, 2];
        small.encode_to_vec(&mut buf);
        assert_eq!(buf, small.to_bytes());
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
    }
}
