//! Property tests for the messaging substrate.

use elga_net::{
    Addr, CoalesceConfig, CoalesceStats, CoalescingOutbox, Frame, InProcTransport, Transport,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NAME: AtomicU64 = AtomicU64::new(0);

fn fresh_name(prefix: &str) -> Addr {
    Addr::inproc(format!("{prefix}-{}", NAME.fetch_add(1, Ordering::Relaxed)))
}

/// The record streams of the coalescer property: `(packet type,
/// header bytes, stride)`. Strides as the data plane's (VMSG 16,
/// EDGE_CHANGES 17, STATE 33); the header also feeds the key.
const STREAMS: [(u8, usize, usize); 3] = [(21, 12, 16), (22, 2, 17), (23, 0, 33)];

fn stream_header(len: usize, key: u64) -> Vec<u8> {
    key.to_le_bytes()
        .iter()
        .cycle()
        .take(len)
        .copied()
        .collect()
}

/// Fill a record's slot from its seed, every byte a function of the
/// seed and the position.
fn put_seeded(seed: &u64, slot: &mut [u8]) {
    for (i, b) in slot.iter_mut().enumerate() {
        *b = (seed.rotate_left(i as u32 * 5) as u8) ^ i as u8;
    }
}

/// What appending one record at a time is specified to do, as plainly
/// as it can be written: a different `(type, key)` closes the open
/// frame; a record goes in; the frame closes once it holds
/// `max_records` records or `max_bytes` bytes.
#[derive(Default)]
struct FrameModel {
    frames: Vec<Vec<u8>>,
    /// `(type, key, bytes so far, offset of the count, records)`.
    open: Option<(u8, u64, Vec<u8>, usize, u32)>,
}

impl FrameModel {
    fn close(&mut self) {
        if let Some((_, _, mut buf, count_at, n)) = self.open.take() {
            buf[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
            self.frames.push(buf);
        }
    }

    fn append(&mut self, cfg: &CoalesceConfig, stream: usize, key: u64, seed: u64) {
        let (ty, header_len, stride) = STREAMS[stream];
        if self.open.as_ref().is_some_and(|o| (o.0, o.1) != (ty, key)) {
            self.close();
        }
        let open = self.open.get_or_insert_with(|| {
            let mut buf = vec![ty];
            buf.extend(stream_header(header_len, key));
            let count_at = buf.len();
            buf.extend([0; 4]);
            (ty, key, buf, count_at, 0)
        });
        let at = open.2.len();
        open.2.resize(at + stride, 0);
        put_seeded(&seed, &mut open.2[at..]);
        open.4 += 1;
        if open.4 >= cfg.max_records || open.2.len() >= cfg.max_bytes {
            self.close();
        }
    }
}

/// Feed `runs` through a fresh outbox, each run cut into blocks of the
/// given sizes (cycled; a zero takes the rest), and return the frames
/// that left, final flush included, with the outbox's counters.
fn coalesced_frames(
    cfg: &CoalesceConfig,
    runs: &[(usize, u64, Vec<u64>)],
    blocks: &[usize],
) -> (Vec<Vec<u8>>, CoalesceStats) {
    let t = InProcTransport::new();
    let addr = fresh_name("blocks");
    let mb = t.bind(&addr).unwrap();
    let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), cfg.clone());
    let mut sizes = blocks.iter().copied().cycle();
    for (stream, key, seeds) in runs {
        let (ty, header_len, stride) = STREAMS[*stream];
        let header = stream_header(header_len, *key);
        let mut rest = &seeds[..];
        while !rest.is_empty() {
            let n = match sizes.next() {
                Some(n) if n > 0 => n.min(rest.len()),
                _ => rest.len(),
            };
            c.append_records(ty, *key, &header, stride, &rest[..n], put_seeded);
            rest = &rest[n..];
        }
    }
    c.flush();
    let mut frames = Vec::new();
    while let Some(d) = mb.try_recv().unwrap() {
        frames.push(d.frame.as_bytes().to_vec());
    }
    (frames, *c.stats())
}

proptest! {
    /// However a record stream is cut into blocks, the frames are the
    /// ones appending it one record at a time gives — byte for byte,
    /// boundary for boundary, flush reason for flush reason — and those
    /// are the frames the per-record rule specifies. Streams of
    /// different packet types, keys and strides interleave; the limits
    /// range from "every record its own frame" to "never reached".
    #[test]
    fn block_appends_cut_frames_where_single_appends_do(
        max_records in 1u32..48,
        max_bytes in 1usize..900,
        runs in prop::collection::vec(
            (0usize..3, 0u64..2, prop::collection::vec(any::<u64>(), 0..70)),
            1..7,
        ),
        blocks in prop::collection::vec(0usize..40, 1..6),
    ) {
        let cfg = CoalesceConfig {
            max_records,
            max_bytes,
            credit_bytes: 0,
            ..CoalesceConfig::default()
        };
        let mut model = FrameModel::default();
        for (stream, key, seeds) in &runs {
            for &seed in seeds {
                model.append(&cfg, *stream, *key, seed);
            }
        }
        model.close();
        let (single, single_stats) = coalesced_frames(&cfg, &runs, &[1]);
        let (whole, whole_stats) = coalesced_frames(&cfg, &runs, &[0]);
        let (cut, cut_stats) = coalesced_frames(&cfg, &runs, &blocks);
        prop_assert_eq!(&single, &model.frames);
        prop_assert_eq!(&whole, &model.frames);
        prop_assert_eq!(&cut, &model.frames);
        prop_assert_eq!(whole_stats, single_stats);
        prop_assert_eq!(cut_stats, single_stats);
        let records: usize = runs.iter().map(|r| r.2.len()).sum();
        prop_assert_eq!(single_stats.records, records as u64);
        // Every frame's count field says what its record region holds.
        for frame in &model.frames {
            let (_, header_len, stride) =
                STREAMS.into_iter().find(|s| s.0 == frame[0]).unwrap();
            let region = &frame[1 + header_len..];
            let n = u32::from_le_bytes(region[..4].try_into().unwrap()) as usize;
            prop_assert!(n > 0 && region.len() == 4 + n * stride);
        }
    }

    /// Frames round-trip through the builder/reader for arbitrary
    /// field sequences.
    #[test]
    fn frame_field_roundtrip(
        ptype in any::<u8>(),
        u8s in prop::collection::vec(any::<u8>(), 0..8),
        u32s in prop::collection::vec(any::<u32>(), 0..8),
        u64s in prop::collection::vec(any::<u64>(), 0..8),
        blob in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut b = Frame::builder(ptype);
        for &x in &u8s { b = b.u8(x); }
        for &x in &u32s { b = b.u32(x); }
        for &x in &u64s { b = b.u64(x); }
        b = b.bytes(&blob);
        let f = b.finish();
        prop_assert_eq!(f.packet_type(), ptype);
        let mut r = f.reader();
        for &x in &u8s { prop_assert_eq!(r.u8(), Some(x)); }
        for &x in &u32s { prop_assert_eq!(r.u32(), Some(x)); }
        for &x in &u64s { prop_assert_eq!(r.u64(), Some(x)); }
        prop_assert_eq!(r.bytes(), Some(&blob[..]));
        prop_assert_eq!(r.remaining(), 0);
    }

    /// The in-process transport preserves per-sender FIFO order for
    /// arbitrary message sequences.
    #[test]
    fn inproc_preserves_fifo(values in prop::collection::vec(any::<u64>(), 1..100)) {
        let t = Arc::new(InProcTransport::new());
        let addr = fresh_name("fifo");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        for &v in &values {
            out.send(Frame::builder(1).u64(v).finish()).unwrap();
        }
        for &v in &values {
            let d = mb.recv().unwrap();
            prop_assert_eq!(d.frame.reader().u64(), Some(v));
        }
    }

    /// Pub/sub filtering delivers exactly the matching packet types,
    /// in order.
    #[test]
    fn pubsub_filters_exactly(
        topics in prop::collection::hash_set(any::<u8>(), 0..4),
        stream in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let t = Arc::new(InProcTransport::new());
        let addr = fresh_name("bus");
        let publ = t.bind_publisher(&addr).unwrap();
        let topic_vec: Vec<u8> = topics.iter().copied().collect();
        let sub = t.subscribe(&addr, &topic_vec).unwrap();
        for &pt in &stream {
            publ.publish(&Frame::signal(pt));
        }
        let expected: Vec<u8> = stream
            .iter()
            .copied()
            .filter(|pt| topics.is_empty() || topics.contains(pt))
            .collect();
        for want in expected {
            let d = sub.recv().unwrap();
            prop_assert_eq!(d.frame.packet_type(), want);
        }
        prop_assert!(sub.try_recv().unwrap().is_none(), "no extra deliveries");
    }
}
