//! Fixed-size binary records.
//!
//! Everything that crosses a disk block or a message boundary in the
//! simulation implements [`Item`]: a `Copy` type with a fixed-width
//! little-endian encoding. Fixed width is essential — the paper's entire
//! layout story (blocked messages, `b′ = ⌈b/B⌉` blocks per message,
//! striped contexts) presumes records of known size.

/// Decode (or encode) failure on fixed-size records.
///
/// Returned by the fallible codec entry points ([`Item::decode_from`],
/// [`Item::encode_into`], [`SpanDecoder::finish`]) instead of panicking:
/// corrupt or truncated **on-disk** bytes are an I/O condition, not a
/// programming error, and the layers above map this into their
/// `Corrupt` fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// Bytes the operation needed.
    pub needed: usize,
    /// Bytes actually available (or provided).
    pub got: usize,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated or corrupt encoding: needed {} bytes, got {}", self.needed, self.got)
    }
}

impl std::error::Error for CodecError {}

/// A fixed-size, plain-old-data record.
pub trait Item: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Encode into `buf` (exactly `SIZE` bytes).
    fn write_to(&self, buf: &mut [u8]);

    /// Decode from `buf` (exactly `SIZE` bytes).
    fn read_from(buf: &[u8]) -> Self;

    /// Encode a slice of items into a fresh byte vector.
    ///
    /// Allocates per call; the disk hot path uses [`Item::encode_into`]
    /// with a pooled buffer instead.
    fn encode_slice(items: &[Self]) -> Vec<u8> {
        let mut out = vec![0u8; items.len() * Self::SIZE];
        Self::encode_into(items, &mut out).expect("sized buffer");
        out
    }

    /// Encode `items` into the front of a caller-owned buffer
    /// (`items.len() * SIZE` bytes are written). Fails if `buf` is too
    /// short; bytes beyond the encoded prefix are left untouched.
    fn encode_into(items: &[Self], buf: &mut [u8]) -> Result<(), CodecError> {
        let needed = items.len() * Self::SIZE;
        if buf.len() < needed {
            return Err(CodecError { needed, got: buf.len() });
        }
        for (it, chunk) in items.iter().zip(buf.chunks_exact_mut(Self::SIZE)) {
            it.write_to(chunk);
        }
        Ok(())
    }

    /// Decode `n` items from the front of `buf`, panicking when `buf` is
    /// too short.
    ///
    /// This is the infallible convenience for in-memory buffers the
    /// caller sized itself; bytes read back from a disk go through
    /// [`Item::decode_from`] (or [`SpanDecoder`]), which reports
    /// truncation as a [`CodecError`] instead of panicking.
    fn decode_slice(buf: &[u8], n: usize) -> Vec<Self> {
        assert!(buf.len() >= n * Self::SIZE, "buffer too short for {n} items");
        Self::decode_from(buf, n).expect("length checked")
    }

    /// Decode `n` items from the front of `buf`, failing on truncation.
    fn decode_from(buf: &[u8], n: usize) -> Result<Vec<Self>, CodecError> {
        let needed =
            n.checked_mul(Self::SIZE).ok_or(CodecError { needed: usize::MAX, got: buf.len() })?;
        if buf.len() < needed {
            return Err(CodecError { needed, got: buf.len() });
        }
        Ok(buf[..needed].chunks_exact(Self::SIZE).map(Self::read_from).collect())
    }
}

/// Streaming decoder over a sequence of byte spans (disk blocks).
///
/// Feeding blocks one at a time lets the caller decode **directly from
/// borrowed block buffers** — no reassembly copy into a contiguous
/// `Vec<u8>` first. Items that straddle a block boundary (when `SIZE`
/// does not divide the block size) are carried over in a small scratch
/// buffer; everything else decodes in place.
///
/// ```
/// use cgmio_pdm::{Item, SpanDecoder};
/// let bytes = u32::encode_slice(&[1, 2, 3]);
/// let mut dec = SpanDecoder::<u32>::new(3);
/// dec.feed(&bytes[..5]); // splits item 2 across spans
/// dec.feed(&bytes[5..]);
/// assert_eq!(dec.finish().unwrap(), vec![1, 2, 3]);
/// ```
pub struct SpanDecoder<T: Item> {
    out: Vec<T>,
    want: usize,
    carry: Vec<u8>,
    fed: usize,
}

impl<T: Item> SpanDecoder<T> {
    /// Decoder expecting exactly `want` items.
    pub fn new(want: usize) -> Self {
        Self { out: Vec::with_capacity(want), want, carry: Vec::new(), fed: 0 }
    }

    /// Feed the next span. Bytes past the `want`-th item (block padding)
    /// are ignored.
    pub fn feed(&mut self, mut span: &[u8]) {
        self.fed += span.len();
        if self.out.len() == self.want {
            return;
        }
        if !self.carry.is_empty() {
            let take = (T::SIZE - self.carry.len()).min(span.len());
            self.carry.extend_from_slice(&span[..take]);
            span = &span[take..];
            if self.carry.len() == T::SIZE {
                self.out.push(T::read_from(&self.carry));
                self.carry.clear();
                if self.out.len() == self.want {
                    return;
                }
            }
        }
        let whole = ((self.want - self.out.len()) * T::SIZE).min(span.len() - span.len() % T::SIZE);
        self.out.extend(span[..whole].chunks_exact(T::SIZE).map(T::read_from));
        if self.out.len() < self.want {
            self.carry.extend_from_slice(&span[whole..]);
        }
    }

    /// Finish, failing if the spans held fewer than `want` items.
    pub fn finish(mut self) -> Result<Vec<T>, CodecError> {
        self.take()
    }

    /// [`Self::finish`] that keeps the decoder — and its carry buffer,
    /// so that straddling items stop allocating — for
    /// [`Self::restart`].
    pub fn take(&mut self) -> Result<Vec<T>, CodecError> {
        if self.out.len() < self.want {
            return Err(CodecError { needed: self.want * T::SIZE, got: self.fed });
        }
        Ok(std::mem::take(&mut self.out))
    }

    /// Start over, expecting `want` items.
    pub fn restart(&mut self, want: usize) {
        (self.out, self.want, self.fed) = (Vec::with_capacity(want), want, 0);
        self.carry.clear();
    }
}

macro_rules! impl_item_int {
    ($($t:ty),*) => {$(
        impl Item for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn write_to(&self, buf: &mut [u8]) {
                buf[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            fn read_from(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf[..Self::SIZE].try_into().unwrap())
            }
        }
    )*};
}

impl_item_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Item for f64 {
    const SIZE: usize = 8;
    fn write_to(&self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&self.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        f64::from_le_bytes(buf[..8].try_into().unwrap())
    }
}

impl<A: Item, B: Item> Item for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;
    fn write_to(&self, buf: &mut [u8]) {
        self.0.write_to(&mut buf[..A::SIZE]);
        self.1.write_to(&mut buf[A::SIZE..A::SIZE + B::SIZE]);
    }
    fn read_from(buf: &[u8]) -> Self {
        (A::read_from(&buf[..A::SIZE]), B::read_from(&buf[A::SIZE..A::SIZE + B::SIZE]))
    }
}

impl<A: Item, B: Item, C: Item> Item for (A, B, C) {
    const SIZE: usize = A::SIZE + B::SIZE + C::SIZE;
    fn write_to(&self, buf: &mut [u8]) {
        self.0.write_to(&mut buf[..A::SIZE]);
        self.1.write_to(&mut buf[A::SIZE..A::SIZE + B::SIZE]);
        self.2.write_to(&mut buf[A::SIZE + B::SIZE..Self::SIZE]);
    }
    fn read_from(buf: &[u8]) -> Self {
        (
            A::read_from(&buf[..A::SIZE]),
            B::read_from(&buf[A::SIZE..A::SIZE + B::SIZE]),
            C::read_from(&buf[A::SIZE + B::SIZE..Self::SIZE]),
        )
    }
}

impl<A: Item, B: Item, C: Item, D: Item> Item for (A, B, C, D) {
    const SIZE: usize = A::SIZE + B::SIZE + C::SIZE + D::SIZE;
    fn write_to(&self, buf: &mut [u8]) {
        self.0.write_to(&mut buf[..A::SIZE]);
        self.1.write_to(&mut buf[A::SIZE..A::SIZE + B::SIZE]);
        self.2.write_to(&mut buf[A::SIZE + B::SIZE..A::SIZE + B::SIZE + C::SIZE]);
        self.3.write_to(&mut buf[A::SIZE + B::SIZE + C::SIZE..Self::SIZE]);
    }
    fn read_from(buf: &[u8]) -> Self {
        (
            A::read_from(&buf[..A::SIZE]),
            B::read_from(&buf[A::SIZE..A::SIZE + B::SIZE]),
            C::read_from(&buf[A::SIZE + B::SIZE..A::SIZE + B::SIZE + C::SIZE]),
            D::read_from(&buf[A::SIZE + B::SIZE + C::SIZE..Self::SIZE]),
        )
    }
}

impl<T: Item, const N: usize> Item for [T; N] {
    const SIZE: usize = T::SIZE * N;
    fn write_to(&self, buf: &mut [u8]) {
        for (i, it) in self.iter().enumerate() {
            it.write_to(&mut buf[i * T::SIZE..(i + 1) * T::SIZE]);
        }
    }
    fn read_from(buf: &[u8]) -> Self {
        std::array::from_fn(|i| T::read_from(&buf[i * T::SIZE..(i + 1) * T::SIZE]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let mut buf = [0u8; 8];
        0xDEAD_BEEF_u64.write_to(&mut buf);
        assert_eq!(u64::read_from(&buf), 0xDEAD_BEEF);
        let mut buf = [0u8; 4];
        (-7i32).write_to(&mut buf);
        assert_eq!(i32::read_from(&buf), -7);
    }

    #[test]
    fn tuple_roundtrip() {
        let v: (u64, i32, u8) = (42, -5, 7);
        let mut buf = [0u8; 13];
        assert_eq!(<(u64, i32, u8)>::SIZE, 13);
        v.write_to(&mut buf);
        assert_eq!(<(u64, i32, u8)>::read_from(&buf), v);
    }

    #[test]
    fn quad_and_array_roundtrip() {
        let v: (u64, u64, u64, u64) = (1, 2, 3, 4);
        let mut buf = [0u8; 32];
        v.write_to(&mut buf);
        assert_eq!(<(u64, u64, u64, u64)>::read_from(&buf), v);

        let a: [i64; 3] = [-1, 0, 9];
        let mut buf = [0u8; 24];
        a.write_to(&mut buf);
        assert_eq!(<[i64; 3]>::read_from(&buf), a);
    }

    #[test]
    fn slice_roundtrip() {
        let xs: Vec<u32> = (0..100).map(|i| i * 3).collect();
        let bytes = u32::encode_slice(&xs);
        assert_eq!(bytes.len(), 400);
        assert_eq!(u32::decode_slice(&bytes, 100), xs);
    }

    #[test]
    fn f64_roundtrip() {
        let mut buf = [0u8; 8];
        (1.5f64).write_to(&mut buf);
        assert_eq!(f64::read_from(&buf), 1.5);
    }

    #[test]
    #[should_panic]
    fn decode_too_short_panics() {
        let bytes = vec![0u8; 7];
        let _ = u64::decode_slice(&bytes, 1);
    }

    #[test]
    fn fallible_codecs_report_truncation() {
        let bytes = vec![0u8; 7];
        assert_eq!(u64::decode_from(&bytes, 1), Err(CodecError { needed: 8, got: 7 }));
        let mut buf = [0u8; 7];
        assert_eq!(u64::encode_into(&[1], &mut buf), Err(CodecError { needed: 8, got: 7 }));
        // overflow-sized counts fail instead of trying to allocate
        assert!(u64::decode_from(&bytes, usize::MAX / 4).is_err());
    }

    #[test]
    fn encode_into_matches_encode_slice() {
        let xs: Vec<u32> = (0..9).map(|i| i * 7 + 1).collect();
        let mut buf = vec![0xAAu8; 4 * 9 + 3];
        u32::encode_into(&xs, &mut buf).unwrap();
        assert_eq!(&buf[..36], &u32::encode_slice(&xs)[..]);
        assert_eq!(&buf[36..], &[0xAA; 3], "tail untouched");
        assert_eq!(u32::decode_from(&buf, 9).unwrap(), xs);
    }

    #[test]
    fn span_decoder_handles_straddles_and_padding() {
        // 13-byte items over 8-byte "blocks": every item straddles
        let xs: Vec<(u64, i32, u8)> = (0..10).map(|i| (i, -(i as i32), i as u8)).collect();
        let mut bytes = <(u64, i32, u8)>::encode_slice(&xs);
        bytes.extend_from_slice(&[0u8; 6]); // trailing block padding
        let mut dec = SpanDecoder::<(u64, i32, u8)>::new(10);
        for chunk in bytes.chunks(8) {
            dec.feed(chunk);
        }
        assert_eq!(dec.finish().unwrap(), xs);

        // truncated input fails instead of panicking
        let mut dec = SpanDecoder::<(u64, i32, u8)>::new(10);
        dec.feed(&bytes[..40]);
        assert!(dec.finish().is_err());

        // zero items succeeds on empty input
        assert_eq!(SpanDecoder::<u64>::new(0).finish().unwrap(), Vec::<u64>::new());
    }
}
