//! Hermetic shim for the `bytes` crate. See `shims/README.md`.
//!
//! [`Bytes`] is an immutable, cheaply-cloneable byte buffer whose
//! clones share one allocation (the frame pool's pointer-equality test
//! depends on this). [`BytesMut`] is a growable build buffer with the
//! little-endian `put_*` writers from the [`BufMut`] trait; `split()`
//! detaches the filled bytes and `freeze()` makes them shared.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An immutable byte buffer; clones share the underlying storage. A
/// `Bytes` may view a sub-range of its allocation ([`Bytes::slice`]),
/// so many wire messages carved out of one receive slab share a single
/// `Arc` without copying.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer owning a copy of `slice`.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy view of `range` (relative to this view) sharing the
    /// same allocation.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or reversed.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

/// A growable build buffer.
#[derive(Debug, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// A buffer with at least `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Reserve space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current allocation size.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Drop all written bytes, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Shorten to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Resize to `new_len` bytes, filling any growth with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    /// Detach all written bytes into a new `BytesMut`, leaving this
    /// buffer empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            buf: std::mem::take(&mut self.buf),
        }
    }

    /// Convert into an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Append a byte slice.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.buf.extend_from_slice(slice);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

/// Little-endian append operations for build buffers.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a `u16`, little endian.
    fn put_u16_le(&mut self, v: u16);
    /// Append a `u32`, little endian.
    fn put_u32_le(&mut self, v: u32);
    /// Append a `u64`, little endian.
    fn put_u64_le(&mut self, v: u64);
    /// Append an `f64`, little endian.
    fn put_f64_le(&mut self, v: f64);
    /// Append a byte slice.
    fn put_slice(&mut self, v: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b.as_ptr(), c.as_ptr());
        assert_eq!(b, c);
    }

    #[test]
    fn slices_share_storage_and_nest() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let mid = b.slice(8..24);
        assert_eq!(mid.len(), 16);
        assert_eq!(mid[0], 8);
        assert_eq!(mid.as_ptr(), unsafe { b.as_ptr().add(8) });
        // Sub-slicing is relative to the view, not the allocation.
        let inner = mid.slice(4..=7);
        assert_eq!(&inner[..], &[12, 13, 14, 15]);
        let all = mid.slice(..);
        assert_eq!(all, mid);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rejects_overrun() {
        let b = Bytes::from(vec![0u8; 4]);
        let _ = b.slice(2..8);
    }

    #[test]
    fn builder_roundtrip_little_endian() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u8(0xAB);
        m.put_u32_le(0x01020304);
        m.put_u64_le(7);
        m.put_f64_le(1.5);
        m.put_slice(&[9, 9]);
        let frozen = m.split().freeze();
        assert_eq!(frozen[0], 0xAB);
        assert_eq!(&frozen[1..5], &[4, 3, 2, 1]);
        assert_eq!(frozen.len(), 1 + 4 + 8 + 8 + 2);
    }

    #[test]
    fn split_leaves_buffer_reusable() {
        let mut m = BytesMut::with_capacity(4);
        m.put_u8(1);
        let first = m.split().freeze();
        assert!(m.is_empty());
        m.reserve(16);
        m.put_u8(2);
        assert_eq!(first[0], 1);
        assert_eq!(m[0], 2);
    }
}
