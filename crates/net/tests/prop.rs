//! Property tests for the messaging substrate.

use elga_net::{
    Addr, CoalesceConfig, CoalesceStats, CoalescingOutbox, FaultPlan, FaultyTransport, Frame,
    InProcTransport, NetError, SendPolicy, TcpTransport, Transport, TransportExt,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static NAME: AtomicU64 = AtomicU64::new(0);

fn fresh_name(prefix: &str) -> Addr {
    Addr::inproc(format!("{prefix}-{}", NAME.fetch_add(1, Ordering::Relaxed)))
}

/// The record streams of the coalescer property: `(packet type,
/// header bytes, stride)`. Strides as the data plane's (VMSG 16,
/// EDGE_CHANGES 17, STATE 33); a run's header is cut from its key, so
/// the header-less stream's keys all give the same (empty) header.
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
/// as it can be written: a different head — type byte and header bytes
/// — closes the open frame; a record goes in; the frame closes once it
/// holds `max_records` records or `max_bytes` bytes.
#[derive(Default)]
struct FrameModel {
    frames: Vec<Vec<u8>>,
    /// `(bytes so far, offset of the count, records)`: the bytes before
    /// the count are the frame's head.
    open: Option<(Vec<u8>, usize, u32)>,
}

impl FrameModel {
    fn close(&mut self) {
        if let Some((mut buf, count_at, n)) = self.open.take() {
            buf[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
            self.frames.push(buf);
        }
    }

    fn append(&mut self, cfg: &CoalesceConfig, stream: usize, key: u64, seed: u64) {
        let (ty, header_len, stride) = STREAMS[stream];
        let head = [vec![ty], stream_header(header_len, key)].concat();
        if self.open.as_ref().is_some_and(|o| o.0[..o.1] != head) {
            self.close();
        }
        let open = self.open.get_or_insert_with(|| {
            let count_at = head.len();
            ([head, vec![0; 4]].concat(), count_at, 0)
        });
        let at = open.0.len();
        open.0.resize(at + stride, 0);
        put_seeded(&seed, &mut open.0[at..]);
        open.2 += 1;
        if open.2 >= cfg.max_records || open.0.len() >= cfg.max_bytes {
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
            c.append_records(ty, &header, stride, &rest[..n], put_seeded);
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
    /// different packet types, headers and strides interleave; the limits
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

// ---------------------------------------------------------------------
// Scatter–gather requests
// ---------------------------------------------------------------------

/// What a test reads from and sets on one echo server.
#[derive(Default)]
struct Echo {
    /// Requests that reached the server.
    frames: AtomicU64,
    /// Connections accepted (TCP servers only).
    conns: AtomicU64,
    /// How long the server works on a request before it replies.
    delay_ms: AtomicU64,
    /// Requests the server will still leave unanswered for good.
    ignore: AtomicU64,
}

impl Echo {
    /// Count a request in; false if it is one to leave unanswered.
    fn admit(&self) -> bool {
        self.frames.fetch_add(1, Ordering::SeqCst);
        let ignored = self
            .ignore
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if ignored.is_ok() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(self.delay_ms.load(Ordering::SeqCst)));
        true
    }
}

fn ask(x: u64) -> Frame {
    Frame::builder(1).u64(x).finish()
}

/// Server `id`'s reply to `ask(x)`.
fn echo(id: u64, x: u64) -> Frame {
    Frame::builder(2).u64(id).u64(x).finish()
}

/// Either backend, with `n` echo servers behind it. A server answers
/// its requests one at a time, in arrival order.
struct Rig {
    transport: Arc<dyn Transport>,
    addrs: Vec<Addr>,
    servers: Vec<Arc<Echo>>,
}

impl Rig {
    fn new(tcp: bool, n: u64) -> Rig {
        let transport: Arc<dyn Transport> = if tcp {
            Arc::new(TcpTransport::new())
        } else {
            Arc::new(InProcTransport::new())
        };
        let (addrs, servers) = (0..n)
            .map(|id| {
                if tcp {
                    serve_tcp(id)
                } else {
                    serve_inproc(&transport, id)
                }
            })
            .unzip();
        Rig {
            transport,
            addrs,
            servers,
        }
    }

    fn requests(&self, dests: &[usize]) -> Vec<(&Addr, Frame)> {
        dests
            .iter()
            .enumerate()
            .map(|(x, &d)| (&self.addrs[d], ask(x as u64)))
            .collect()
    }

    fn frames(&self) -> Vec<u64> {
        let seen = |s: &Arc<Echo>| s.frames.load(Ordering::SeqCst);
        self.servers.iter().map(seen).collect()
    }
}

/// An echo server on the transport's own mailbox. Reply handles of
/// ignored requests are kept, so the requester sees silence rather
/// than a disconnect.
fn serve_inproc(transport: &Arc<dyn Transport>, id: u64) -> (Addr, Arc<Echo>) {
    let addr = fresh_name("echo");
    let mailbox = transport.bind(&addr).unwrap();
    let state = Arc::new(Echo::default());
    let server = state.clone();
    std::thread::spawn(move || {
        let mut unanswered = Vec::new();
        while let Ok(d) = mailbox.recv() {
            let reply = d.reply.expect("servers are only ever asked");
            if server.admit() {
                let x = d.frame.reader().u64().unwrap();
                let _ = reply.send(echo(id, x));
            } else {
                unanswered.push(reply);
            }
        }
    });
    (addr, state)
}

/// An echo server on a raw listener speaking the TCP backend's wire
/// format (`u32` length, opcode 2 = REQ / 3 = REP, frame bytes), so
/// that accepted connections can be counted.
fn serve_tcp(id: u64) -> (Addr, Arc<Echo>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = Addr::tcp(listener.local_addr().unwrap());
    let state = Arc::new(Echo::default());
    let server = state.clone();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            server.conns.fetch_add(1, Ordering::SeqCst);
            let server = server.clone();
            std::thread::spawn(move || loop {
                let mut head = [0u8; 5];
                if stream.read_exact(&mut head).is_err() {
                    return;
                }
                assert_eq!(head[4], 2, "clients only ever send REQ");
                let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
                let mut frame = vec![0u8; len - 1];
                stream.read_exact(&mut frame).unwrap();
                if !server.admit() {
                    continue;
                }
                let x = u64::from_le_bytes(frame[1..9].try_into().unwrap());
                let reply = echo(id, x);
                let mut out = ((reply.len() + 1) as u32).to_le_bytes().to_vec();
                out.push(3);
                out.extend_from_slice(reply.as_bytes());
                if stream.write_all(&out).is_err() {
                    return;
                }
            });
        }
    });
    (addr, state)
}

fn answered(results: &[Result<Frame, NetError>]) -> Vec<Option<Vec<u8>>> {
    results
        .iter()
        .map(|r| r.as_ref().ok().map(|f| f.as_bytes().to_vec()))
        .collect()
}

/// Scheduling slack allowed on top of the servers' own delays.
const SLACK: Duration = Duration::from_millis(60);

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `request_all` returns what the same `request`s return, slot for
    /// slot, and takes about as long as its slowest destination: the
    /// requests are in flight together. A destination named twice
    /// works its requests off one after the other on both backends.
    #[test]
    fn request_all_is_the_requests_in_flight_together(
        tcp in any::<bool>(),
        dests in prop::collection::vec(0usize..4, 1..9),
        delays in prop::collection::vec(30u64..70, 4),
    ) {
        let rig = Rig::new(tcp, 4);
        for (server, &ms) in rig.servers.iter().zip(&delays) {
            server.delay_ms.store(ms, Ordering::SeqCst);
        }
        let requests = rig.requests(&dests);

        let t0 = Instant::now();
        let together = rig.transport.request_all(&requests, Duration::from_secs(5));
        let took = t0.elapsed();
        for server in &rig.servers {
            server.delay_ms.store(0, Ordering::SeqCst);
        }
        let one_by_one: Vec<_> = requests
            .iter()
            .map(|(addr, frame)| rig.transport.request(addr, frame.clone(), Duration::from_secs(5)))
            .collect();
        prop_assert_eq!(answered(&together), answered(&one_by_one));
        let expected: Vec<_> = dests
            .iter()
            .enumerate()
            .map(|(x, &d)| Some(echo(d as u64, x as u64).as_bytes().to_vec()))
            .collect();
        prop_assert_eq!(answered(&together), expected);

        // Round r holds every destination's r-th request; a round
        // takes its slowest member. (The in-process servers overlap
        // rounds too and only do better.)
        let mut asked = [0usize; 4];
        let mut rounds: Vec<u64> = Vec::new();
        for &d in &dests {
            if asked[d] == rounds.len() {
                rounds.push(0);
            }
            rounds[asked[d]] = rounds[asked[d]].max(delays[d]);
            asked[d] += 1;
        }
        let bound = Duration::from_millis(rounds.iter().sum());
        prop_assert!(
            took < bound + SLACK,
            "{dests:?} with delays {delays:?} took {took:?}; the slowest path is {bound:?}"
        );
        prop_assert_eq!(rig.frames(), asked.map(|n| 2 * n as u64).to_vec());
    }

    /// One destination that never replies times out alone, inside one
    /// `timeout` for the whole call. On TCP its connection is dropped
    /// (the next request to it opens a fresh one) and every other
    /// destination keeps the connection it had.
    #[test]
    fn a_silent_destination_times_out_alone(
        tcp in any::<bool>(),
        dests in prop::collection::vec(0usize..4, 1..9),
        silent in 0usize..4,
    ) {
        let rig = Rig::new(tcp, 4);
        rig.servers[silent].ignore.store(u64::MAX, Ordering::SeqCst);
        let requests = rig.requests(&dests);
        let timeout = Duration::from_millis(120);

        let t0 = Instant::now();
        let results = rig.transport.request_all(&requests, timeout);
        let took = t0.elapsed();
        for (x, (&d, result)) in dests.iter().zip(&results).enumerate() {
            if d == silent {
                prop_assert!(matches!(result, Err(NetError::Timeout)), "slot {x}: {result:?}");
            } else {
                let reply = result.as_ref().expect("answered");
                prop_assert_eq!(reply.as_bytes(), echo(d as u64, x as u64).as_bytes());
            }
        }
        if dests.contains(&silent) {
            prop_assert!(took >= timeout);
        }
        prop_assert!(took < timeout + SLACK, "{took:?} for one {timeout:?} timeout");

        // Afterwards every destination answers a plain request — on
        // the connection it had, unless that one timed out.
        rig.servers[silent].ignore.store(0, Ordering::SeqCst);
        for (d, (addr, server)) in rig.addrs.iter().zip(&rig.servers).enumerate() {
            let before = server.conns.load(Ordering::SeqCst);
            let reply = rig.transport.request(addr, ask(77), Duration::from_secs(5));
            prop_assert_eq!(reply.unwrap().as_bytes(), echo(d as u64, 77).as_bytes());
            if tcp {
                let fresh = u64::from(d == silent || !dests.contains(&d));
                let conns = server.conns.load(Ordering::SeqCst);
                prop_assert_eq!(conns, before + fresh, "destination {d}");
                prop_assert!(d == silent || conns == 1);
            }
        }
    }

    /// Under a fault plan each request meets the plan on its own: the
    /// slots of a cut destination are `Disconnected` without reaching
    /// it, every other slot is answered.
    #[test]
    fn a_cut_destination_fails_alone(
        tcp in any::<bool>(),
        dests in prop::collection::vec(0usize..4, 1..9),
        cut in 0usize..4,
    ) {
        let rig = Rig::new(tcp, 4);
        let faulty = FaultyTransport::new(rig.transport.clone(), FaultPlan::default(), 7);
        faulty.disconnect(&rig.addrs[cut]);
        let results = faulty.request_all(&rig.requests(&dests), Duration::from_secs(5));
        for (x, (&d, result)) in dests.iter().zip(&results).enumerate() {
            if d == cut {
                prop_assert!(matches!(result, Err(NetError::Disconnected)), "slot {x}: {result:?}");
            } else {
                let reply = result.as_ref().expect("answered");
                prop_assert_eq!(reply.as_bytes(), echo(d as u64, x as u64).as_bytes());
            }
        }
        let mut asked = [0u64; 4];
        for &d in dests.iter().filter(|&&d| d != cut) {
            asked[d] += 1;
        }
        prop_assert_eq!(rig.frames(), asked.to_vec());
        prop_assert_eq!(
            faulty.stats().rejected(),
            dests.iter().filter(|&&d| d == cut).count() as u64
        );
    }

    /// `request_all_with_retry` sends again exactly the slots that
    /// failed: a destination that swallows its first request sees one
    /// frame more than it was asked, every other destination sees its
    /// requests once, and every slot ends up answered.
    #[test]
    fn a_retry_resends_only_the_failed_slots(
        tcp in any::<bool>(),
        dests in prop::collection::vec(0usize..4, 1..9),
        flaky in 0usize..4,
    ) {
        let rig = Rig::new(tcp, 4);
        rig.servers[flaky].ignore.store(1, Ordering::SeqCst);
        let policy = SendPolicy {
            retries: 2,
            base_delay: Duration::from_millis(1),
            deadline: Duration::from_secs(5),
        };
        let results = rig.transport.request_all_with_retry(
            &rig.requests(&dests),
            Duration::from_millis(80),
            &policy,
        );
        let expected: Vec<_> = dests
            .iter()
            .enumerate()
            .map(|(x, &d)| Some(echo(d as u64, x as u64).as_bytes().to_vec()))
            .collect();
        prop_assert_eq!(answered(&results), expected);
        let mut asked = [0u64; 4];
        for &d in &dests {
            asked[d] += 1;
        }
        asked[flaky] += u64::from(dests.contains(&flaky));
        prop_assert_eq!(rig.frames(), asked.to_vec());
    }
}
