//! Coalescing outboxes: batch same-destination, same-packet-type
//! records into large frames before they hit the transport.
//!
//! The paper's throughput rests on batched traffic ("direct memory
//! copies into network buffers", §3.5); surveyed dynamic-graph systems
//! likewise identify message coalescing as the dominant throughput
//! lever. A [`CoalescingOutbox`] wraps one destination's [`Outbox`]
//! and keeps at most one *open frame* — packet type, caller-written
//! header, a record-count field, then packed fixed-stride records. The
//! packet type and the header bytes are what tell frames apart.
//!
//! The unit of the data plane is a record *slice*:
//! [`CoalescingOutbox::append_records`] takes a run of records, reserves
//! once per open frame and copies the part of the run that fits,
//! closing frames at exactly the record where appending the run one
//! record at a time would have closed them. A run of a different packet
//! type (or with a different header) first flushes the open frame, so
//! the per-destination byte stream is a strict FIFO of the appended
//! records: coalescing changes frame boundaries, never record order.
//! That is what keeps sync-mode results bit-identical whatever the
//! frame limits.
//!
//! Flushes happen on four triggers, each counted in
//! [`CoalesceStats`]:
//!
//! * **size** — the open frame reached `max_bytes`;
//! * **count** — it reached `max_records`;
//! * **explicit** — a phase boundary called [`CoalescingOutbox::flush`]
//!   (agents flush before every READY/DRAIN report so barrier counters
//!   never run ahead of delivered frames);
//! * a different packet type or header displaced it (counted as
//!   `switch_flushes`).
//!
//! Backpressure is credit-based: each destination has an in-flight
//! byte budget. Sent frame sizes are tracked against the outbox's
//! queue depth ([`Outbox::queued`]); once the consumer drains a frame
//! its bytes are re-credited. A sender that exhausts the budget blocks
//! (bounding its peer's queue memory) and, past `block_timeout`,
//! spills anyway — liveness is preserved even if the peer died and the
//! failure detector has not yet evicted it.

use crate::frame::{pool_give, pool_take, put_records, Frame};
use crate::transport::{NetStats, Outbox};
use bytes::{BufMut, BytesMut};
use elga_trace::{flush_reason, EventKind, Tracer};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for a [`CoalescingOutbox`].
#[derive(Debug, Clone)]
pub struct CoalesceConfig {
    /// Flush the open frame once it holds this many payload bytes.
    pub max_bytes: usize,
    /// Flush the open frame once it holds this many records.
    pub max_records: u32,
    /// Per-destination in-flight byte budget; `0` disables
    /// backpressure (required for an agent's outbox to itself, which
    /// cannot drain while blocked on it).
    pub credit_bytes: usize,
    /// How long to block for credit before spilling anyway.
    pub block_timeout: Duration,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            // ~64 KiB frames: large enough to amortize per-frame costs,
            // small enough to keep latency and peak buffering modest.
            max_bytes: 60 * 1024,
            max_records: 4096,
            credit_bytes: 16 << 20,
            block_timeout: Duration::from_secs(2),
        }
    }
}

/// Flush-reason and volume counters for one [`CoalescingOutbox`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Flushes triggered by `max_bytes`.
    pub size_flushes: u64,
    /// Flushes triggered by `max_records`.
    pub count_flushes: u64,
    /// Explicit phase-end flushes that found an open frame.
    pub explicit_flushes: u64,
    /// Flushes forced by a packet-type or header change.
    pub switch_flushes: u64,
    /// Times the sender had to wait for in-flight credit.
    pub backpressure_waits: u64,
    /// Frames actually handed to the transport.
    pub frames: u64,
    /// Records appended.
    pub records: u64,
    /// Bytes handed to the transport.
    pub bytes: u64,
}

impl CoalesceStats {
    /// Merge another outbox's counters into this one.
    pub fn absorb(&mut self, other: &CoalesceStats) {
        self.size_flushes += other.size_flushes;
        self.count_flushes += other.count_flushes;
        self.explicit_flushes += other.explicit_flushes;
        self.switch_flushes += other.switch_flushes;
        self.backpressure_waits += other.backpressure_waits;
        self.frames += other.frames;
        self.records += other.records;
        self.bytes += other.bytes;
    }
}

/// The frame currently accumulating records: `buf` holds the packet
/// type, the header, the count field and the records so far, so a run
/// belongs to it when its packet type and header bytes are those.
struct OpenFrame {
    buf: BytesMut,
    /// Offset of the little-endian `u32` record count within `buf`,
    /// right after the header.
    count_at: usize,
    records: u32,
}

/// A batching, credit-limited wrapper around one destination's
/// [`Outbox`]. See the module docs for semantics.
pub struct CoalescingOutbox {
    outbox: Outbox,
    cfg: CoalesceConfig,
    open: Option<OpenFrame>,
    /// Sizes of frames sent but (as far as we can tell) not yet taken
    /// off the queue by the consumer, oldest first.
    sent_sizes: VecDeque<usize>,
    in_flight: usize,
    stats: CoalesceStats,
    /// Frames the transport refused (peer gone). The owner drains
    /// these through its retry path.
    failed: Vec<Frame>,
    /// Optional per-owner traffic sink: every flushed frame is counted
    /// here by packet type (an agent passes its own [`NetStats`] so its
    /// metrics report per-type frames/bytes sent).
    sink: Option<std::sync::Arc<NetStats>>,
    /// Optional event tracer: flush reasons and backpressure waits are
    /// recorded into the owner's ring buffer. `None` (the default)
    /// keeps the hot append path free of even the atomic check.
    tracer: Option<Arc<Tracer>>,
}

impl CoalescingOutbox {
    /// Wrap `outbox` with the given tuning.
    pub fn new(outbox: Outbox, cfg: CoalesceConfig) -> Self {
        CoalescingOutbox {
            outbox,
            cfg,
            open: None,
            sent_sizes: VecDeque::new(),
            in_flight: 0,
            stats: CoalesceStats::default(),
            failed: Vec::new(),
            sink: None,
            tracer: None,
        }
    }

    /// Count every flushed frame (by packet type) into `sink` as well.
    pub fn with_net_stats(mut self, sink: std::sync::Arc<NetStats>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Record flush and backpressure events into `tracer` as well.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Trace one counted flush; called with the open frame still in
    /// place so the event carries its byte size.
    #[inline]
    fn trace_flush(&self, reason: u64) {
        if let Some(t) = &self.tracer {
            let bytes = self.open.as_ref().map_or(0, |o| o.buf.len() as u64);
            t.instant(EventKind::CoalesceFlush, reason, bytes);
        }
    }

    /// Append a run of fixed-`stride` records to the open frame of
    /// `packet_type` and `header`, opening (and if necessary first
    /// flushing) frames as needed.
    ///
    /// `header` is the frame's post-type header, written whenever a new
    /// frame is opened; an open frame of another packet type or other
    /// header bytes is flushed first, so records never land under the
    /// wrong one. The coalescer itself maintains the `u32` record count
    /// that follows the header. `write` fills one record's `stride`-byte
    /// slot. Each open frame takes as much of the run as fits in one
    /// reservation and closes on the record that reaches `max_records`
    /// or `max_bytes` — the boundaries appending the run one record at
    /// a time gives, so frames do not depend on how a stream was cut
    /// into runs.
    pub fn append_records<T>(
        &mut self,
        packet_type: u8,
        header: &[u8],
        stride: usize,
        mut recs: &[T],
        write: impl Fn(&T, &mut [u8]),
    ) {
        if recs.is_empty() {
            return;
        }
        let displaced = match &self.open {
            Some(open) => open.buf[0] != packet_type || open.buf[1..open.count_at] != *header,
            None => false,
        };
        if displaced {
            self.stats.switch_flushes += 1;
            self.trace_flush(flush_reason::SWITCH);
            self.flush_open();
        }
        self.stats.records += recs.len() as u64;
        let (max_records, max_bytes) = (self.cfg.max_records, self.cfg.max_bytes);
        // Type byte, header, count field: where a fresh frame's records
        // start.
        let head = 1 + header.len() + 4;
        while !recs.is_empty() {
            let (held, len) = match &self.open {
                Some(open) => (open.records, open.buf.len()),
                None => (0, head),
            };
            // Records until a threshold closes the frame; the record
            // that reaches it still goes in, so at least one.
            let by_count = max_records.saturating_sub(held).max(1) as usize;
            let by_size = max_bytes.saturating_sub(len).div_ceil(stride).max(1);
            let (run, rest) = recs.split_at(recs.len().min(by_count).min(by_size));
            let open = self.open.get_or_insert_with(|| {
                // Sized for what is about to be written, not for the
                // largest frame there could be: a small run costs a
                // small buffer.
                let mut buf = pool_take(head + run.len() * stride);
                buf.put_u8(packet_type);
                buf.put_slice(header);
                let count_at = buf.len();
                buf.put_u32_le(0);
                OpenFrame {
                    buf,
                    count_at,
                    records: 0,
                }
            });
            put_records(&mut open.buf, stride, run, &write);
            open.records += run.len() as u32;
            recs = rest;
            if open.records >= max_records {
                self.stats.count_flushes += 1;
                self.trace_flush(flush_reason::COUNT);
                self.flush_open();
            } else if open.buf.len() >= max_bytes {
                self.stats.size_flushes += 1;
                self.trace_flush(flush_reason::SIZE);
                self.flush_open();
            }
        }
    }

    /// Send a pre-built frame through this destination's stream. Any
    /// open frame is flushed first so record order stays FIFO.
    pub fn send(&mut self, frame: Frame) {
        if self.open.is_some() {
            self.stats.switch_flushes += 1;
            self.trace_flush(flush_reason::SWITCH);
            self.flush_open();
        }
        self.send_now(frame);
    }

    /// Phase-end flush: push the open frame (if any) to the transport.
    pub fn flush(&mut self) {
        if self.open.is_some() {
            self.stats.explicit_flushes += 1;
            self.trace_flush(flush_reason::EXPLICIT);
            self.flush_open();
        }
    }

    /// Records sitting in the open frame, not yet flushed.
    pub fn pending_records(&self) -> u32 {
        self.open.as_ref().map_or(0, |o| o.records)
    }

    /// Flush-reason and volume counters.
    pub fn stats(&self) -> &CoalesceStats {
        &self.stats
    }

    /// Frames the transport refused, for the owner's retry path.
    pub fn take_failed(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.failed)
    }

    /// Whether the underlying peer has refused a send.
    pub fn has_failed(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Whether the route lost frames it had accepted ([`Outbox::lost`]).
    pub fn lost(&self) -> bool {
        self.outbox.lost()
    }

    fn flush_open(&mut self) {
        let Some(mut open) = self.open.take() else {
            return;
        };
        if open.records == 0 {
            pool_give(open.buf);
            return;
        }
        let count = open.records.to_le_bytes();
        open.buf[open.count_at..open.count_at + 4].copy_from_slice(&count);
        let frame = Frame::from_bytes(open.buf.split().freeze());
        pool_give(open.buf);
        self.send_now(frame);
    }

    /// Credit-check then hand the frame to the transport.
    fn send_now(&mut self, frame: Frame) {
        let len = frame.len();
        if self.cfg.credit_bytes > 0 {
            self.reclaim();
            if self.in_flight + len > self.cfg.credit_bytes {
                self.stats.backpressure_waits += 1;
                let waited_from = Instant::now();
                let deadline = waited_from + self.cfg.block_timeout;
                while self.in_flight + len > self.cfg.credit_bytes && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(100));
                    self.reclaim();
                }
                // Past the deadline: spill to preserve liveness (the
                // peer may be dead; eviction is the detector's job).
                if let Some(t) = &self.tracer {
                    t.span(EventKind::BackpressureWait, waited_from, len as u64, 0);
                }
            }
        }
        self.stats.frames += 1;
        self.stats.bytes += len as u64;
        if let Some(sink) = &self.sink {
            sink.record_sent(frame.packet_type(), len);
        }
        match self.outbox.send(frame.clone()) {
            Ok(()) => {
                if self.cfg.credit_bytes > 0 {
                    self.sent_sizes.push_back(len);
                    self.in_flight += len;
                }
            }
            Err(_) => self.failed.push(frame),
        }
    }

    /// Re-credit frames the consumer has drained. The queue may carry
    /// other senders' deliveries too, so this is conservative: it only
    /// re-credits when the queue is provably shorter than our
    /// outstanding count — credit can lag (blocking a little extra)
    /// but never run ahead (overcommitting the peer).
    fn reclaim(&mut self) {
        let queued = self.outbox.queued();
        while self.sent_sizes.len() > queued {
            let len = self.sent_sizes.pop_front().expect("len checked");
            self.in_flight -= len;
        }
    }
}

impl std::fmt::Debug for CoalescingOutbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalescingOutbox")
            .field("pending_records", &self.pending_records())
            .field("in_flight", &self.in_flight)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::inproc::InProcTransport;
    use crate::transport::Transport;

    fn pair(credit: usize) -> (crate::transport::Mailbox, CoalescingOutbox) {
        let t = InProcTransport::new();
        let addr = Addr::inproc("coalesce-test");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        let cfg = CoalesceConfig {
            credit_bytes: credit,
            block_timeout: Duration::from_millis(50),
            ..CoalesceConfig::default()
        };
        (mb, CoalescingOutbox::new(out, cfg))
    }

    /// A `(run, step)` header as the VMSG-shaped frames carry it.
    fn header(run: u64, step: u32) -> [u8; 12] {
        let mut h = [0; 12];
        h[..8].copy_from_slice(&run.to_le_bytes());
        h[8..].copy_from_slice(&step.to_le_bytes());
        h
    }

    fn put_pair(rec: &(u64, u64), slot: &mut [u8]) {
        slot[..8].copy_from_slice(&rec.0.to_le_bytes());
        slot[8..].copy_from_slice(&rec.1.to_le_bytes());
    }

    /// Append `n` 16-byte records as one run under packet type 21
    /// (VMSG-shaped: u64 run + u32 step header, u32 count, (u64, u64)
    /// records).
    fn append_n(c: &mut CoalescingOutbox, n: u64) {
        let recs: Vec<(u64, u64)> = (0..n).map(|i| (i, i * 2)).collect();
        c.append_records(21, &header(7, 0), 16, &recs, put_pair);
    }

    #[test]
    fn records_coalesce_into_one_frame() {
        let (mb, mut c) = pair(0);
        append_n(&mut c, 100);
        assert_eq!(mb.backlog(), 0, "nothing sent before flush");
        c.flush();
        let d = mb.recv().unwrap();
        assert_eq!(d.frame.packet_type(), 21);
        let mut r = d.frame.reader();
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.u32(), Some(0));
        assert_eq!(r.u32(), Some(100), "count patched at flush");
        assert_eq!(r.remaining(), 100 * 16);
        assert_eq!(c.stats().explicit_flushes, 1);
        assert_eq!(c.stats().records, 100);
    }

    #[test]
    fn count_threshold_flushes() {
        let (mb, mut c) = pair(0);
        c.cfg.max_bytes = usize::MAX;
        let max_records = u64::from(c.cfg.max_records);
        append_n(&mut c, max_records + 1);
        assert_eq!(mb.backlog(), 1);
        assert_eq!(c.stats().count_flushes, 1);
        assert_eq!(c.pending_records(), 1);
    }

    #[test]
    fn size_threshold_flushes() {
        let (mb, mut c) = pair(0);
        c.cfg.max_records = u32::MAX;
        let per_record = 16;
        let n = (c.cfg.max_bytes / per_record + 2) as u64;
        append_n(&mut c, n);
        assert_eq!(mb.backlog(), 1);
        assert_eq!(c.stats().size_flushes, 1);
    }

    #[test]
    fn type_or_header_switch_flushes() {
        let (mb, mut c) = pair(0);
        append_n(&mut c, 3);
        // Same type, same header: the open frame takes it.
        c.append_records(21, &header(7, 0), 16, &[(1, 1)], put_pair);
        assert_eq!(mb.backlog(), 0);
        // Different header bytes: same type, new step.
        c.append_records(21, &header(7, 1), 16, &[(1, 1)], put_pair);
        assert_eq!(mb.backlog(), 1);
        assert_eq!(c.stats().switch_flushes, 1);
        let d = mb.recv().unwrap();
        let mut r = d.frame.reader();
        r.u64();
        r.u32();
        assert_eq!(r.u32(), Some(4));
        // Different type, same header.
        c.append_records(22, &header(7, 1), 16, &[(1, 1)], put_pair);
        assert_eq!(mb.backlog(), 1);
        assert_eq!(c.stats().switch_flushes, 2);
    }

    /// The first buffer a frame asks for is sized by the run that
    /// opens it, not by `max_bytes`: the frame owns its allocation
    /// (`freeze` hands it to the consumer), so what `append_records`
    /// reserves is what every small frame costs.
    #[test]
    fn a_small_run_opens_a_small_buffer() {
        let (_mb, mut c) = pair(0);
        append_n(&mut c, 4);
        let open = c.open.as_ref().expect("open frame");
        assert!(open.buf.capacity() < 256, "{} B", open.buf.capacity());
        assert_eq!(open.buf.len(), 1 + 12 + 4 + 4 * 16);
    }

    #[test]
    fn passthrough_send_preserves_fifo() {
        let (mb, mut c) = pair(0);
        append_n(&mut c, 2);
        c.send(Frame::signal(9));
        c.flush();
        // Appended records must arrive before the passthrough frame.
        assert_eq!(mb.recv().unwrap().frame.packet_type(), 21);
        assert_eq!(mb.recv().unwrap().frame.packet_type(), 9);
    }

    #[test]
    fn backpressure_bounds_receiver_queue() {
        // Credit for ~4 full frames; a stalled receiver must cap the
        // sender's queue at the budget (plus one spilled frame after
        // the block timeout), not the full send volume.
        let frame_bytes = 60 * 1024;
        let credit = 4 * frame_bytes;
        let (mb, mut c) = pair(credit);
        let records = (16 * frame_bytes / 16) as u64; // ~16 frames' worth
        let sender = std::thread::spawn(move || {
            append_n(&mut c, records);
            c.flush();
            c
        });
        std::thread::sleep(Duration::from_millis(20));
        let stalled_backlog = mb.backlog();
        assert!(
            stalled_backlog <= credit / frame_bytes + 1,
            "stalled receiver saw {stalled_backlog} queued frames; credit allows ~4"
        );
        // Drain; the sender finishes and reports waits.
        let mut got = 0u64;
        while got < records {
            let d = mb.recv_timeout(Duration::from_secs(5)).unwrap();
            let mut r = d.frame.reader();
            r.u64();
            r.u32();
            got += u64::from(r.u32().unwrap());
        }
        let c = sender.join().unwrap();
        assert!(c.stats().backpressure_waits > 0, "sender never waited");
        assert_eq!(c.stats().records, records);
    }

    #[test]
    fn tracer_records_flush_reasons() {
        let (_mb, mut c) = pair(0);
        let tracer = Arc::new(Tracer::new(64));
        c = c.with_tracer(tracer.clone());
        c.cfg.max_bytes = usize::MAX;
        let max_records = u64::from(c.cfg.max_records);
        append_n(&mut c, max_records); // count flush
                                       // Opens a fresh type-22 frame (previous one already flushed).
        c.append_records(22, &header(7, 0), 16, &[(0, 0)], put_pair);
        c.flush(); // explicit flush of the open type-22 frame
        let (events, dropped) = tracer.drain();
        assert_eq!(dropped, 0);
        let reasons: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::CoalesceFlush)
            .map(|e| e.a)
            .collect();
        assert_eq!(reasons, vec![flush_reason::COUNT, flush_reason::EXPLICIT]);
        assert!(events.iter().all(|e| e.b > 0), "flush events carry bytes");
    }

    #[test]
    fn failed_sends_are_handed_back() {
        let t = InProcTransport::new();
        let addr = Addr::inproc("coalesce-dead");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        drop(mb);
        let mut c = CoalescingOutbox::new(out, CoalesceConfig::default());
        append_n(&mut c, 3);
        c.flush();
        assert!(c.has_failed());
        let failed = c.take_failed();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].packet_type(), 21);
    }
}
