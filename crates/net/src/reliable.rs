//! At-least-once delivery with receiver-side dedup, layered over any
//! [`Transport`].
//!
//! ElGA's Mattern-style termination detection counts every data-plane
//! message sent and received; a single silently dropped (or duplicated)
//! PUSH frame unbalances those counters forever and wedges the
//! superstep barrier. [`ReliableTransport`] restores the exactly-once
//! *accounting* the algorithm needs on top of a lossy substrate:
//!
//! * every PUSH is wrapped in a `SEQ` envelope carrying a per-route
//!   sequence number and an acknowledgement return address;
//! * the receiving side ACKs each envelope, suppresses duplicates by
//!   sequence number, and forwards the original frames to the bound
//!   mailbox *in sequence order* — a frame that overtook a dropped
//!   predecessor is parked until the retransmit fills the hole. The
//!   FIFO matters beyond accounting: ZeroMQ (the paper's substrate)
//!   delivers per-route in order, and the asynchronous engine's
//!   replica state adoption is overwrite-based, so reordered state
//!   broadcasts would strand replicas on stale values;
//! * a retransmit thread re-sends unacknowledged envelopes with
//!   exponential backoff, giving up after [`GIVE_UP`] (at which point
//!   the peer is presumed dead — heartbeat-based failure detection in
//!   `elga-core` handles eviction).
//!
//! REQ/REP traffic and PUB/SUB broadcasts pass through untouched:
//! requests already surface loss as [`NetError::Timeout`] for the retry
//! layer, and the bus is treated as reliable (see `fault.rs`).
//!
//! Stack order for chaos testing: `Reliable(Faulty(inner))` — the ACKs
//! themselves then traverse the faulty layer, exercising retransmit and
//! dedup for real.

use crate::addr::Addr;
use crate::frame::Frame;
use crate::transport::{Delivery, Mailbox, NetError, Outbox, Publisher, Transport};
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Packet type of the sequencing envelope. Top of the u8 range so it
/// can never collide with ElGA protocol packets (which grow upward
/// from 1).
pub const SEQ: u8 = 250;
/// Packet type of the acknowledgement frame.
pub const ACK: u8 = 251;

/// How long retransmission keeps trying before presuming the peer dead.
pub const GIVE_UP: Duration = Duration::from_secs(10);

const RETX_TICK: Duration = Duration::from_millis(10);
const INITIAL_RTO: Duration = Duration::from_millis(40);
const MAX_RTO: Duration = Duration::from_secs(1);

static NEXT_NONCE: AtomicU64 = AtomicU64::new(1);

fn addr_hash(addr: &Addr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.to_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An envelope awaiting acknowledgement.
struct Pending {
    envelope: Frame,
    route: u64,
    next_retx: Instant,
    rto: Duration,
    deadline: Instant,
}

/// Per-(sender, route) dedup *and* reorder buffer: everything below
/// `floor` has been delivered; `held` parks admitted frames whose
/// predecessors are still in flight so delivery stays in sequence
/// order. ZeroMQ — the substrate the paper's system is built on —
/// guarantees per-route FIFO, and the asynchronous engine leans on it:
/// replica state adoption is overwrite-based, so two reordered state
/// broadcasts would leave a replica permanently stale. Sync mode only
/// needs the counting barriers, but async correctness needs FIFO too.
///
/// A hole at `floor` that persists past the sender's give-up horizon
/// can never be filled — the sender stopped retransmitting it — so the
/// window skips it rather than accumulating every later frame for the
/// life of the route.
#[derive(Default)]
struct ReorderWindow {
    floor: u64,
    held: HashMap<u64, Frame>,
    /// The hole currently blocking `floor`, and when it was first
    /// observed (i.e. when a later seq arrived while `floor` was
    /// still missing). `None` = no hole.
    stalled: Option<(u64, Instant)>,
}

impl ReorderWindow {
    /// Returns `None` when `seq` was already seen (duplicate), else the
    /// frames now deliverable, in sequence order — possibly empty if
    /// `frame` must wait for a predecessor. `horizon` is the
    /// sender-side give-up bound: a hole older than this is declared
    /// permanently lost and skipped, releasing the frames parked
    /// behind it.
    fn admit(
        &mut self,
        seq: u64,
        frame: Frame,
        now: Instant,
        horizon: Duration,
    ) -> Option<Vec<Frame>> {
        if seq < self.floor {
            return None;
        }
        match self.held.entry(seq) {
            std::collections::hash_map::Entry::Occupied(_) => return None,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(frame);
            }
        }
        let mut ready = Vec::new();
        self.drain(&mut ready);
        if self.held.is_empty() {
            self.stalled = None;
            return Some(ready);
        }
        match self.stalled {
            // The same hole is still blocking us; once it outlives the
            // give-up horizon the sender has abandoned it, so jump the
            // floor to the next seq we actually hold.
            Some((hole, since)) if hole == self.floor => {
                if now.duration_since(since) >= horizon {
                    if let Some(&next) = self.held.keys().min() {
                        self.floor = next;
                        self.drain(&mut ready);
                    }
                    self.stalled = (!self.held.is_empty()).then_some((self.floor, now));
                }
            }
            // A new hole (or the first one): start its clock.
            _ => self.stalled = Some((self.floor, now)),
        }
        Some(ready)
    }

    fn drain(&mut self, out: &mut Vec<Frame>) {
        while let Some(f) = self.held.remove(&self.floor) {
            out.push(f);
            self.floor += 1;
        }
    }
}

/// Counters describing the reliability machinery's work.
#[derive(Debug, Default)]
pub struct ReliableStats {
    retransmits: AtomicU64,
    gave_up: AtomicU64,
    dups_suppressed: AtomicU64,
}

impl ReliableStats {
    /// Envelopes re-sent after a missing ACK.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    /// Envelopes abandoned after [`GIVE_UP`] (peer presumed dead).
    pub fn gave_up(&self) -> u64 {
        self.gave_up.load(Ordering::Relaxed)
    }

    /// Duplicate envelopes discarded by receivers.
    pub fn dups_suppressed(&self) -> u64 {
        self.dups_suppressed.load(Ordering::Relaxed)
    }
}

/// Shared mutable state between the transport handle, its relay
/// threads, and the retransmit thread.
struct Shared {
    inner: Arc<dyn Transport>,
    nonce: u64,
    ack_addr: Addr,
    stats: ReliableStats,
    /// Unacknowledged envelopes keyed by (route, seq).
    pending: Mutex<HashMap<(u64, u64), Pending>>,
    /// Next sequence number per route (routes are destination-address
    /// hashes, shared across all outboxes to the same destination).
    next_seq: Mutex<HashMap<u64, u64>>,
    /// Cached raw inner outboxes per route, for retransmission.
    route_out: Mutex<HashMap<u64, Outbox>>,
    /// Cached outboxes for sending ACKs back to each sender.
    ack_out: Mutex<HashMap<String, Outbox>>,
}

impl Shared {
    fn envelope(&self, route: u64, seq: u64, payload: &Frame) -> Frame {
        Frame::builder(SEQ)
            .u64(self.nonce)
            .u64(route)
            .u64(seq)
            .bytes(self.ack_addr.to_string().as_bytes())
            .bytes(payload.as_bytes())
            .finish()
    }

    /// The envelope `(route, seq)` is acknowledged or abandoned.
    fn retire(&self, route: u64, seq: u64) {
        self.pending.lock().remove(&(route, seq));
    }
}

/// A decorator adding at-least-once PUSH delivery + dedup to any
/// [`Transport`]. See module docs.
pub struct ReliableTransport {
    shared: Arc<Shared>,
}

impl ReliableTransport {
    /// Wrap `inner`, binding the acknowledgement mailbox at an
    /// in-process address (sufficient whenever `inner` routes
    /// `inproc://` traffic; for pure-TCP deployments bind the ACK
    /// endpoint on a reachable address via
    /// [`ReliableTransport::with_ack_addr`]).
    pub fn new(inner: Arc<dyn Transport>) -> Result<Self, NetError> {
        let nonce = NEXT_NONCE.fetch_add(1, Ordering::Relaxed);
        let ack_addr = Addr::inproc(format!("reliable-ack-{nonce}"));
        Self::with_ack_addr(inner, ack_addr)
    }

    /// Wrap `inner`, binding the acknowledgement mailbox at `ack_addr`
    /// (must be bindable on `inner` and reachable by every peer).
    pub fn with_ack_addr(inner: Arc<dyn Transport>, ack_addr: Addr) -> Result<Self, NetError> {
        let ack_mb = inner.bind(&ack_addr)?;
        let nonce = NEXT_NONCE.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            inner,
            nonce,
            ack_addr: ack_mb.addr().clone(),
            stats: ReliableStats::default(),
            pending: Mutex::new(HashMap::new()),
            next_seq: Mutex::new(HashMap::new()),
            route_out: Mutex::new(HashMap::new()),
            ack_out: Mutex::new(HashMap::new()),
        });

        // ACK sink: each acknowledgement retires one pending envelope.
        let ack_shared = Arc::downgrade(&shared);
        std::thread::spawn(move || {
            while let Ok(d) = ack_mb.recv() {
                let Some(shared) = ack_shared.upgrade() else {
                    break;
                };
                let mut r = d.frame.reader();
                if d.frame.packet_type() != ACK {
                    continue;
                }
                let (Some(_nonce), Some(route), Some(seq)) = (r.u64(), r.u64(), r.u64()) else {
                    continue;
                };
                shared.retire(route, seq);
            }
        });

        // Retransmit loop: exits once the transport handle is dropped.
        let retx_shared = Arc::downgrade(&shared);
        std::thread::spawn(move || retransmit_loop(retx_shared));

        Ok(Self { shared })
    }

    /// Counters describing retransmits / give-ups / suppressed dups.
    pub fn stats(&self) -> &ReliableStats {
        &self.shared.stats
    }
}

fn retransmit_loop(shared: Weak<Shared>) {
    loop {
        std::thread::sleep(RETX_TICK);
        let Some(shared) = shared.upgrade() else {
            return;
        };
        let now = Instant::now();
        let mut resend: Vec<(u64, Frame)> = Vec::new();
        {
            let mut pending = shared.pending.lock();
            pending.retain(|_, p| {
                if now >= p.deadline {
                    shared.stats.gave_up.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                if now >= p.next_retx {
                    resend.push((p.route, p.envelope.clone()));
                    p.rto = (p.rto * 2).min(MAX_RTO);
                    p.next_retx = now + p.rto;
                    shared.stats.retransmits.fetch_add(1, Ordering::Relaxed);
                }
                true
            });
        }
        for (route, envelope) in resend {
            let out = shared.route_out.lock().get(&route).cloned();
            if let Some(out) = out {
                // A failed resend means the destination mailbox is
                // gone; the give-up deadline will reap the entry.
                let _ = out.send(envelope);
            }
        }
    }
}

impl Transport for ReliableTransport {
    fn bind(&self, addr: &Addr) -> Result<Mailbox, NetError> {
        let inner_mb = self.shared.inner.bind(addr)?;
        let bound = inner_mb.addr().clone();
        let (tx, rx) = unbounded::<Delivery>();
        let shared = Arc::downgrade(&self.shared);
        std::thread::spawn(move || {
            // Dedup + reorder state per sending transport instance and
            // route.
            let mut windows: HashMap<(u64, u64), ReorderWindow> = HashMap::new();
            'relay: while let Ok(d) = inner_mb.recv() {
                if d.frame.packet_type() != SEQ {
                    // REQ deliveries, bus forwards, raw pushes: pass
                    // through untouched (reply handle intact).
                    if tx.send(d).is_err() {
                        break;
                    }
                    continue;
                }
                let Some(shared) = shared.upgrade() else {
                    break;
                };
                let mut r = d.frame.reader();
                let (Some(nonce), Some(route), Some(seq)) = (r.u64(), r.u64(), r.u64()) else {
                    continue;
                };
                let Some(ack_addr) = r.bytes().map(|b| String::from_utf8_lossy(b).into_owned())
                else {
                    continue;
                };
                let Some(payload) = r.bytes() else {
                    continue;
                };
                // Always acknowledge — the previous ACK may have been
                // the lost frame.
                let ack = Frame::builder(ACK).u64(nonce).u64(route).u64(seq).finish();
                let cached = shared.ack_out.lock().get(&ack_addr).cloned();
                let out = match cached {
                    Some(o) => Some(o),
                    None => match Addr::parse(&ack_addr)
                        .ok()
                        .and_then(|a| shared.inner.sender(&a).ok())
                    {
                        Some(o) => {
                            shared.ack_out.lock().insert(ack_addr.clone(), o.clone());
                            Some(o)
                        }
                        None => None,
                    },
                };
                if let Some(out) = out {
                    let _ = out.send(ack);
                }
                let frame = Frame::from_bytes(bytes::Bytes::copy_from_slice(payload));
                match windows.entry((nonce, route)).or_default().admit(
                    seq,
                    frame,
                    Instant::now(),
                    GIVE_UP,
                ) {
                    None => {
                        shared.stats.dups_suppressed.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(ready) => {
                        for f in ready {
                            if tx.send(Delivery::push(f)).is_err() {
                                break 'relay;
                            }
                        }
                    }
                }
            }
        });
        Ok(Mailbox {
            addr: bound,
            rx,
            stats: None,
        })
    }

    fn sender(&self, addr: &Addr) -> Result<Outbox, NetError> {
        let route = addr_hash(addr);
        let inner_out = self.shared.inner.sender(addr)?;
        self.shared
            .route_out
            .lock()
            .entry(route)
            .or_insert_with(|| inner_out.clone());
        let (tx, rx) = unbounded::<Delivery>();
        let shared = Arc::downgrade(&self.shared);
        std::thread::spawn(move || {
            // Runs until every clone of the outbox is gone.
            while let Ok(d) = rx.recv() {
                let Some(shared) = shared.upgrade() else {
                    break;
                };
                let seq = {
                    let mut next = shared.next_seq.lock();
                    let slot = next.entry(route).or_insert(0);
                    let seq = *slot;
                    *slot += 1;
                    seq
                };
                let envelope = shared.envelope(route, seq, &d.frame);
                let now = Instant::now();
                shared.pending.lock().insert(
                    (route, seq),
                    Pending {
                        envelope: envelope.clone(),
                        route,
                        next_retx: now + INITIAL_RTO,
                        rto: INITIAL_RTO,
                        deadline: now + GIVE_UP,
                    },
                );
                if inner_out.send(envelope).is_err() {
                    // Destination mailbox gone: nothing will ever
                    // acknowledge this envelope or a retransmit of it.
                    shared.retire(route, seq);
                }
            }
        });
        Ok(Outbox { tx, stats: None })
    }

    fn request(&self, addr: &Addr, frame: Frame, timeout: Duration) -> Result<Frame, NetError> {
        self.shared.inner.request(addr, frame, timeout)
    }

    fn request_all(
        &self,
        requests: &[(&Addr, Frame)],
        timeout: Duration,
    ) -> Vec<Result<Frame, NetError>> {
        self.shared.inner.request_all(requests, timeout)
    }

    fn bind_publisher(&self, addr: &Addr) -> Result<Publisher, NetError> {
        self.shared.inner.bind_publisher(addr)
    }

    fn subscribe(&self, addr: &Addr, topics: &[u8]) -> Result<Mailbox, NetError> {
        self.shared.inner.subscribe(addr, topics)
    }

    fn subscribe_forward(&self, addr: &Addr, topics: &[u8], target: &Addr) -> Result<(), NetError> {
        self.shared.inner.subscribe_forward(addr, topics, target)
    }

    fn net_stats(&self) -> Option<Arc<crate::transport::NetStats>> {
        self.shared.inner.net_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyTransport};
    use crate::inproc::InProcTransport;

    fn reliable_over_faulty(plan: FaultPlan, seed: u64) -> ReliableTransport {
        let inproc: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let faulty: Arc<dyn Transport> = Arc::new(FaultyTransport::new(inproc, plan, seed));
        ReliableTransport::new(faulty).unwrap()
    }

    fn collect(mb: &Mailbox, n: usize, budget: Duration) -> Vec<Frame> {
        let deadline = Instant::now() + budget;
        let mut got = Vec::new();
        while got.len() < n && Instant::now() < deadline {
            if let Ok(d) = mb.recv_timeout(Duration::from_millis(50)) {
                got.push(d.frame);
            }
        }
        got
    }

    #[test]
    fn lossless_when_substrate_is_clean() {
        let t = reliable_over_faulty(FaultPlan::default(), 0);
        let addr = Addr::inproc("clean");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        for i in 0..100u64 {
            out.send(Frame::builder(1).u64(i).finish()).unwrap();
        }
        let got = collect(&mb, 100, Duration::from_secs(5));
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn recovers_every_frame_despite_drops_and_dups() {
        let plan = FaultPlan::uniform(0.2, 0.1, Duration::ZERO, Duration::from_micros(100));
        let t = reliable_over_faulty(plan, 99);
        let addr = Addr::inproc("lossy");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        let n = 300u64;
        for i in 0..n {
            out.send(Frame::builder(7).u64(i).finish()).unwrap();
        }
        let got = collect(&mb, n as usize, Duration::from_secs(30));
        assert_eq!(got.len(), n as usize, "every frame must arrive");
        let seen: Vec<u64> = got
            .iter()
            .map(|f| {
                assert_eq!(f.packet_type(), 7);
                f.reader().u64().unwrap()
            })
            .collect();
        assert_eq!(
            seen,
            (0..n).collect::<Vec<u64>>(),
            "exactly once, no dups, and in send order"
        );
        assert!(t.stats().retransmits() > 0, "drops must force retransmits");
    }

    #[test]
    fn req_rep_passes_through() {
        let t = reliable_over_faulty(FaultPlan::default(), 0);
        let addr = Addr::inproc("server");
        let mb = t.bind(&addr).unwrap();
        let handle = std::thread::spawn(move || {
            let d = mb.recv().unwrap();
            assert_eq!(d.frame.packet_type(), 9);
            d.reply.unwrap().send(Frame::signal(10)).unwrap();
        });
        let rep = t
            .request(&addr, Frame::signal(9), Duration::from_secs(5))
            .unwrap();
        assert_eq!(rep.packet_type(), 10);
        handle.join().unwrap();
    }

    fn tagged(s: u64) -> Frame {
        Frame::builder(1).u64(s).finish()
    }

    fn tags(frames: &[Frame]) -> Vec<u64> {
        frames.iter().map(|f| f.reader().u64().unwrap()).collect()
    }

    #[test]
    fn reorder_window_delivers_in_sequence_order() {
        let mut w = ReorderWindow::default();
        let t0 = Instant::now();
        let h = Duration::from_secs(10);
        assert_eq!(tags(&w.admit(0, tagged(0), t0, h).unwrap()), [0]);
        // 2 and 3 overtake 1: parked, nothing deliverable yet.
        assert_eq!(w.admit(2, tagged(2), t0, h).unwrap(), []);
        assert_eq!(w.admit(3, tagged(3), t0, h).unwrap(), []);
        // The hole fills: the whole backlog drains in order.
        assert_eq!(tags(&w.admit(1, tagged(1), t0, h).unwrap()), [1, 2, 3]);
        assert_eq!(w.floor, 4);
        assert!(w.held.is_empty());
    }

    #[test]
    fn reorder_window_skips_holes_older_than_the_give_up_horizon() {
        let mut w = ReorderWindow::default();
        let t0 = Instant::now();
        let h = Duration::from_millis(50);
        assert_eq!(tags(&w.admit(0, tagged(0), t0, h).unwrap()), [0]);
        // seq 1 is lost forever (sender gave up); later seqs park
        // behind the hole.
        for s in 2..100 {
            assert_eq!(w.admit(s, tagged(s), t0, h).unwrap(), []);
        }
        assert_eq!(w.floor, 1);
        assert_eq!(w.held.len(), 98, "backlog parked while the hole is live");
        // Horizon passes: the next admit declares seq 1 lost, jumps the
        // floor, and releases the backlog in order.
        let released = w.admit(100, tagged(100), t0 + h, h).unwrap();
        assert_eq!(tags(&released), (2..=100).collect::<Vec<u64>>());
        assert_eq!(w.floor, 101);
        assert!(w.held.is_empty(), "skipped hole must release the backlog");
        // The lost seq arriving absurdly late is still suppressed.
        assert!(w.admit(1, tagged(1), t0 + h, h).is_none());
        // A fresh hole starts its own clock rather than reusing the
        // expired one.
        assert_eq!(w.admit(102, tagged(102), t0 + h, h).unwrap(), []);
        assert_eq!(w.floor, 101);
        assert_eq!(
            w.admit(103, tagged(103), t0 + h + Duration::from_millis(1), h)
                .unwrap(),
            []
        );
        assert_eq!(w.floor, 101, "new hole must wait out its own horizon");
        assert_eq!(
            tags(&w.admit(104, tagged(104), t0 + h + h, h).unwrap()),
            [102, 103, 104]
        );
        assert_eq!(w.floor, 105);
    }

    #[test]
    fn reorder_window_suppresses_dups_without_a_hole() {
        let mut w = ReorderWindow::default();
        let t0 = Instant::now();
        let h = Duration::from_secs(10);
        for s in 0..10 {
            assert_eq!(tags(&w.admit(s, tagged(s), t0, h).unwrap()), [s]);
            assert!(
                w.admit(s, tagged(s), t0, h).is_none(),
                "second sighting is a dup"
            );
        }
        assert_eq!(w.floor, 10);
        assert!(w.held.is_empty());
    }

    #[test]
    fn reorder_window_suppresses_dups_of_parked_frames() {
        let mut w = ReorderWindow::default();
        let t0 = Instant::now();
        let h = Duration::from_secs(10);
        assert_eq!(w.admit(1, tagged(1), t0, h).unwrap(), []);
        assert!(
            w.admit(1, tagged(1), t0, h).is_none(),
            "retransmit of a parked frame is a dup"
        );
        assert_eq!(tags(&w.admit(0, tagged(0), t0, h).unwrap()), [0, 1]);
    }

    #[test]
    fn acks_retire_every_pending_frame() {
        let t = reliable_over_faulty(FaultPlan::default(), 0);
        let addr = Addr::inproc("drain");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        for _ in 0..20 {
            out.send(Frame::signal(1)).unwrap();
        }
        let _ = collect(&mb, 20, Duration::from_secs(5));
        let deadline = Instant::now() + Duration::from_secs(5);
        let pending = || t.shared.pending.lock().len();
        while pending() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pending(), 0, "ACKs must retire all pending frames");
    }
}
