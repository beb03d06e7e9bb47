//! Message frames.
//!
//! "The first byte of any message is a packet type which determines how
//! a Participant will handle the message. ElGA's protocols typically
//! involve direct memory copies into ZeroMQ's network buffers" (§3.5).
//! A [`Frame`] is a cheaply cloneable byte buffer (`bytes::Bytes`)
//! whose first byte is the packet type; [`Frame::builder`] and
//! [`FrameReader`] provide the fixed-width little-endian serialization
//! the protocols use.

use bytes::{BufMut, Bytes, BytesMut};
use std::cell::RefCell;

/// Build buffers larger than this are not returned to the thread-local
/// pool — one oversized broadcast must not pin megabytes per thread.
const POOL_MAX_RETAINED: usize = 1 << 20;

/// Buffers kept per thread. Frame construction is single-buffer deep
/// on every path (builders don't nest), so a small stack suffices.
const POOL_DEPTH: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<BytesMut>> = const { RefCell::new(Vec::new()) };
}

/// Take a build buffer from the thread-local pool (or allocate one).
///
/// `reserve` reclaims the buffer's original allocation once every
/// [`Bytes`] split off by previous [`FrameBuilder::finish`] calls has
/// been dropped — the steady state of a send loop — so repeated frame
/// construction on one thread recycles a single allocation instead of
/// hitting the allocator per frame.
pub(crate) fn pool_take(capacity: usize) -> BytesMut {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.reserve(capacity);
    buf
}

/// Return a (now empty) build buffer to the thread-local pool.
pub(crate) fn pool_give(buf: BytesMut) {
    if buf.capacity() > POOL_MAX_RETAINED {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOL_DEPTH {
            p.push(buf);
        }
    });
}

/// Append `recs` to `buf` as packed `stride`-byte records: one
/// reservation for the whole run, then `write` fills each record's
/// slot in place. The one loop behind every record region on the wire
/// ([`FrameBuilder::records`], `CoalescingOutbox::append_records`).
pub(crate) fn put_records<T>(
    buf: &mut BytesMut,
    stride: usize,
    recs: &[T],
    write: impl Fn(&T, &mut [u8]),
) {
    let at = buf.len();
    buf.resize(at + recs.len() * stride, 0);
    for (slot, rec) in buf[at..].chunks_exact_mut(stride).zip(recs) {
        write(rec, slot);
    }
}

/// Buffers currently pooled on this thread (test observability).
#[cfg(test)]
pub(crate) fn pool_depth() -> usize {
    POOL.with(|p| p.borrow().len())
}

/// An immutable wire message. Clones share the underlying buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    bytes: Bytes,
}

impl Frame {
    /// Frame from raw bytes.
    ///
    /// # Panics
    /// Panics on an empty buffer — every ElGA message carries at least
    /// its packet-type byte.
    pub fn from_bytes(bytes: Bytes) -> Self {
        assert!(!bytes.is_empty(), "frames must carry a packet type");
        Frame { bytes }
    }

    /// Start building a frame with the given packet type.
    ///
    /// The build buffer comes from a thread-local pool: once the frames
    /// split off earlier on this thread have been dropped, their
    /// allocation is reclaimed and reused, so steady-state send loops
    /// do not allocate per frame.
    pub fn builder(packet_type: u8) -> FrameBuilder {
        let mut buf = pool_take(64);
        buf.put_u8(packet_type);
        FrameBuilder { buf }
    }

    /// A frame carrying only its packet type.
    pub fn signal(packet_type: u8) -> Frame {
        Frame::builder(packet_type).finish()
    }

    /// The packet type (first byte).
    #[inline]
    pub fn packet_type(&self) -> u8 {
        self.bytes[0]
    }

    /// The payload after the packet type.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.bytes[1..]
    }

    /// Reader positioned at the start of the payload.
    #[inline]
    pub fn reader(&self) -> FrameReader<'_> {
        FrameReader {
            buf: self.payload(),
        }
    }

    /// Whole frame including the type byte.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Frames are never empty; provided for clippy symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The underlying shared buffer.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }
}

/// Incremental frame construction with fixed-width little-endian
/// fields.
#[derive(Debug)]
pub struct FrameBuilder {
    buf: BytesMut,
}

impl FrameBuilder {
    /// Append a `u8`.
    pub fn u8(mut self, v: u8) -> Self {
        self.buf.put_u8(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append a run of little-endian `u32`s with no length prefix
    /// (caller knows the framing): a sketch table is tens of thousands
    /// of them. A run of known length is written into its pre-sized
    /// region one exact 4-byte chunk per value, a loop that vectorizes
    /// (7.5 µs against the stack-buffer copy's 36 µs for a 4096×8 table,
    /// medians on a two-core x86-64 host); any other goes through a
    /// stack buffer's worth per copy.
    pub fn u32s(mut self, values: impl IntoIterator<Item = u32>) -> Self {
        let values = values.into_iter();
        if let (n, Some(max)) = values.size_hint() {
            if n == max {
                let at = self.buf.len();
                self.buf.resize(at + n * 4, 0);
                for (slot, v) in self.buf[at..].chunks_exact_mut(4).zip(values) {
                    slot.copy_from_slice(&v.to_le_bytes());
                }
                return self;
            }
        }
        self.buf.reserve(values.size_hint().0 * 4);
        let mut chunk = [0u8; 256];
        let mut at = 0;
        for v in values {
            chunk[at..at + 4].copy_from_slice(&v.to_le_bytes());
            at += 4;
            if at == chunk.len() {
                self.buf.put_slice(&chunk);
                at = 0;
            }
        }
        self.buf.put_slice(&chunk[..at]);
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append a little-endian `f64`.
    pub fn f64(mut self, v: f64) -> Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(mut self, v: &[u8]) -> Self {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Append raw bytes with no length prefix (caller knows the
    /// framing).
    pub fn raw(mut self, v: &[u8]) -> Self {
        self.buf.put_slice(v);
        self
    }

    /// Append `len` bytes filled in place by `write`.
    pub fn slot(mut self, len: usize, write: impl FnOnce(&mut [u8])) -> Self {
        let at = self.buf.len();
        self.buf.resize(at + len, 0);
        write(&mut self.buf[at..]);
        self
    }

    /// Append a `u32` record count, then `recs` as packed
    /// `stride`-byte records, each slot filled by `write` — the record
    /// region a coalesced frame carries, built in one go.
    pub fn records<T>(mut self, stride: usize, recs: &[T], write: impl Fn(&T, &mut [u8])) -> Self {
        self.buf.put_u32_le(recs.len() as u32);
        put_records(&mut self.buf, stride, recs, write);
        self
    }

    /// Finish into an immutable [`Frame`].
    pub fn finish(mut self) -> Frame {
        let bytes = self.buf.split().freeze();
        pool_give(self.buf);
        Frame { bytes }
    }
}

/// Sequential reader over a frame payload. Every accessor returns
/// `None` once the buffer is exhausted, so malformed frames surface as
/// parse failures rather than panics.
#[derive(Debug, Clone, Copy)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
}

impl<'a> FrameReader<'a> {
    /// Reader over a raw byte slice (no packet-type byte). Lets nested
    /// encodings — a view embedded in a join reply, say — be parsed
    /// straight from a borrowed length-prefixed field without copying
    /// it into a fresh [`Frame`] first.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf }
    }

    /// Read the next `len` bytes.
    pub fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.buf.split_at_checked(len)?;
        self.buf = rest;
        Some(head)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Remaining unread payload.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_roundtrip() {
        let f = Frame::builder(7)
            .u8(1)
            .u32(0xDEAD_BEEF)
            .u64(42)
            .f64(0.5)
            .bytes(b"elga")
            .finish();
        assert_eq!(f.packet_type(), 7);
        let mut r = f.reader();
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.f64(), Some(0.5));
        assert_eq!(r.bytes(), Some(&b"elga"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), None, "exhausted reader yields None");
    }

    #[test]
    fn u32_runs_equal_one_append_per_value() {
        // Empty, under one stack chunk (64 values), exactly one, over.
        // A run of known length, and one of unknown length (a filter).
        for n in [0u32, 1, 63, 64, 65, 200] {
            let values = (0..n).map(|i| i.wrapping_mul(0x9E37_79B9));
            let each = values
                .clone()
                .fold(Frame::builder(3).u8(9), |b, v| b.u32(v));
            let each = each.u8(7).finish();
            let run = Frame::builder(3).u8(9).u32s(values.clone()).u8(7).finish();
            assert_eq!(run, each, "{n} values");
            let unknown = values.filter(|_| true);
            let run = Frame::builder(3).u8(9).u32s(unknown).u8(7).finish();
            assert_eq!(run, each, "{n} values, length unknown");
        }
    }

    #[test]
    fn signal_frames_are_one_byte() {
        let f = Frame::signal(9);
        assert_eq!(f.len(), 1);
        assert_eq!(f.packet_type(), 9);
        assert!(f.payload().is_empty());
    }

    #[test]
    fn truncated_reads_return_none() {
        let f = Frame::builder(1).u8(5).finish();
        let mut r = f.reader();
        assert_eq!(r.u64(), None, "not enough bytes for a u64");
        // reader is unchanged after a failed read
        assert_eq!(r.u8(), Some(5));
    }

    #[test]
    fn length_prefixed_bytes_guard_against_overrun() {
        // Claim 100 bytes but provide 2.
        let f = Frame::builder(1).u32(100).raw(b"xy").finish();
        let mut r = f.reader();
        assert_eq!(r.bytes(), None);
    }

    #[test]
    #[should_panic(expected = "packet type")]
    fn empty_frame_rejected() {
        let _ = Frame::from_bytes(Bytes::new());
    }

    #[test]
    fn clones_share_storage() {
        let f = Frame::builder(3).raw(&[0u8; 1024]).finish();
        let g = f.clone();
        assert_eq!(f.as_bytes().as_ptr(), g.as_bytes().as_ptr());
    }

    #[test]
    fn pool_recycles_build_buffers() {
        // finish() must hand the build buffer back to the thread-local
        // pool, and the next builder must take it from there instead of
        // the allocator (with real `bytes`, `reserve` then reclaims the
        // original region once previous frames are dropped).
        let f = Frame::builder(1).raw(&[7u8; 512]).finish();
        let depth = pool_depth();
        assert!(
            depth >= 1,
            "finish must return the build buffer to the pool"
        );
        drop(f);
        let _builder = Frame::builder(1);
        assert_eq!(
            pool_depth(),
            depth - 1,
            "a new builder must reuse a pooled buffer"
        );
    }

    #[test]
    fn pool_survives_live_frames() {
        // A frame still alive pins its region; the pool must hand out a
        // distinct buffer rather than corrupt the live frame.
        let held = Frame::builder(2).raw(&[9u8; 256]).finish();
        let other = Frame::builder(3).raw(&[1u8; 256]).finish();
        assert_eq!(held.payload(), &[9u8; 256][..]);
        assert_eq!(other.payload(), &[1u8; 256][..]);
    }
}
