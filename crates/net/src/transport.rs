//! The transport abstraction: mailboxes, outboxes, publishers, and the
//! [`Transport`] trait implemented by the in-process and TCP backends.

use crate::addr::Addr;
use crate::frame::Frame;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One packet type's traffic totals.
#[derive(Default)]
struct PacketCounter {
    frames: AtomicU64,
    bytes: AtomicU64,
}

/// Per-packet-type frame and byte counters for one transport instance.
///
/// Every [`Outbox`] push, publisher fan-out, and REQ send records
/// under the frame's packet type; every [`Mailbox`] receive records on
/// the other side. Counters are monotonic and lock-free; reads are
/// `Relaxed` snapshots.
pub struct NetStats {
    sent: [PacketCounter; 256],
    recv: [PacketCounter; 256],
    rx_pool_hits: AtomicU64,
    rx_pool_misses: AtomicU64,
}

impl Default for NetStats {
    fn default() -> Self {
        NetStats {
            sent: std::array::from_fn(|_| PacketCounter::default()),
            recv: std::array::from_fn(|_| PacketCounter::default()),
            rx_pool_hits: AtomicU64::new(0),
            rx_pool_misses: AtomicU64::new(0),
        }
    }
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one sent frame of `packet_type`.
    pub fn record_sent(&self, packet_type: u8, bytes: usize) {
        self.record_sent_n(packet_type, bytes, 1);
    }

    /// Count `copies` identical sent frames of `packet_type` (broadcast).
    pub fn record_sent_n(&self, packet_type: u8, bytes: usize, copies: u64) {
        let c = &self.sent[packet_type as usize];
        c.frames.fetch_add(copies, Ordering::Relaxed);
        c.bytes.fetch_add(bytes as u64 * copies, Ordering::Relaxed);
    }

    /// Fold in RX slab accounting from a receive loop: `hits` messages
    /// parsed out of already-reserved slab capacity, `misses` that
    /// forced the slab to grow (or re-reserve after frames pinned it).
    pub fn record_rx_pool(&self, hits: u64, misses: u64) {
        if hits != 0 {
            self.rx_pool_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses != 0 {
            self.rx_pool_misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// `(hits, misses)` of the RX slab pool across data-plane receive
    /// loops (mailbox connections). Request/reply and subscription
    /// slabs are excluded: their one-message-per-refill shape is
    /// protocol-inherent (stop-and-wait replies, sporadic broadcasts),
    /// not a property of the pool.
    pub fn rx_pool(&self) -> (u64, u64) {
        (
            self.rx_pool_hits.load(Ordering::Relaxed),
            self.rx_pool_misses.load(Ordering::Relaxed),
        )
    }

    /// Fraction of messages served from an existing batch allocation
    /// (`hits / (hits + misses)`; 0 before any traffic). Each miss is
    /// one batch promotion, so this is the amortization factor of the
    /// RX slab pool.
    pub fn rx_pool_hit_rate(&self) -> f64 {
        let (hits, misses) = self.rx_pool();
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// Take the RX pool counters, resetting them to zero. Lets exactly
    /// one consumer claim transport-level counts even when several
    /// agents share one transport — each drained hit/miss is
    /// attributed once cluster-wide.
    pub fn drain_rx_pool(&self) -> (u64, u64) {
        (
            self.rx_pool_hits.swap(0, Ordering::Relaxed),
            self.rx_pool_misses.swap(0, Ordering::Relaxed),
        )
    }

    /// Count one received frame of `packet_type`.
    pub fn record_recv(&self, packet_type: u8, bytes: usize) {
        let c = &self.recv[packet_type as usize];
        c.frames.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// `(frames, bytes)` sent under `packet_type`.
    pub fn sent(&self, packet_type: u8) -> (u64, u64) {
        let c = &self.sent[packet_type as usize];
        (
            c.frames.load(Ordering::Relaxed),
            c.bytes.load(Ordering::Relaxed),
        )
    }

    /// `(frames, bytes)` received under `packet_type`.
    pub fn received(&self, packet_type: u8) -> (u64, u64) {
        let c = &self.recv[packet_type as usize];
        (
            c.frames.load(Ordering::Relaxed),
            c.bytes.load(Ordering::Relaxed),
        )
    }

    /// `(frames, bytes)` sent across all packet types.
    pub fn total_sent(&self) -> (u64, u64) {
        self.sent.iter().fold((0, 0), |(f, b), c| {
            (
                f + c.frames.load(Ordering::Relaxed),
                b + c.bytes.load(Ordering::Relaxed),
            )
        })
    }

    /// `(frames, bytes)` received across all packet types.
    pub fn total_received(&self) -> (u64, u64) {
        self.recv.iter().fold((0, 0), |(f, b), c| {
            (
                f + c.frames.load(Ordering::Relaxed),
                b + c.bytes.load(Ordering::Relaxed),
            )
        })
    }
}

impl std::fmt::Debug for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (sf, sb) = self.total_sent();
        let (rf, rb) = self.total_received();
        f.debug_struct("NetStats")
            .field("sent_frames", &sf)
            .field("sent_bytes", &sb)
            .field("recv_frames", &rf)
            .field("recv_bytes", &rb)
            .finish()
    }
}

/// Errors surfaced by the messaging layer.
#[derive(Debug)]
pub enum NetError {
    /// The address is already bound.
    AddrInUse(Addr),
    /// The peer's mailbox is gone (agent left / process exited).
    Disconnected,
    /// A blocking operation timed out.
    Timeout,
    /// Malformed frame on the wire.
    Protocol(&'static str),
    /// Underlying socket error.
    Io(std::io::Error),
    /// A crashed peer's state cannot be rebuilt: there is no valid
    /// checkpoint on disk and no retained change log to replay. The
    /// cluster fails fast instead of limping to a deadline timeout.
    RecoveryUnavailable(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::AddrInUse(a) => write!(f, "address in use: {a}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "operation timed out"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::RecoveryUnavailable(why) => {
                write!(f, "recovery unavailable: {why}")
            }
        }
    }
}

impl NetError {
    /// Whether retrying the operation could plausibly succeed.
    ///
    /// Timeouts and connection-level socket errors are transient: the
    /// peer may be slow or restarting, or its connection may have
    /// broken. A closed mailbox
    /// ([`NetError::Disconnected`]), a bind conflict, or a protocol
    /// violation will not heal on retry.
    pub fn is_transient(&self) -> bool {
        match self {
            NetError::Timeout => true,
            NetError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::Interrupted
            ),
            NetError::AddrInUse(_)
            | NetError::Disconnected
            | NetError::Protocol(_)
            | NetError::RecoveryUnavailable(_) => false,
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// How a reply is routed back to a requester.
#[derive(Debug)]
pub(crate) enum ReplyRoute {
    /// In-process: a one-shot channel the requester blocks on.
    Chan(Sender<Frame>),
    /// TCP: a handle to the per-connection writer.
    Writer(Sender<Frame>),
}

/// Capability to answer a REQ with exactly one REP.
#[derive(Debug)]
pub struct ReplyHandle {
    pub(crate) route: ReplyRoute,
}

impl ReplyHandle {
    /// Send the reply. Consumes the handle: REQ/REP is strictly
    /// one-for-one (§3.5, "designed for blocking requests and
    /// responses").
    pub fn send(self, frame: Frame) -> Result<(), NetError> {
        let tx = match self.route {
            ReplyRoute::Chan(tx) => tx,
            ReplyRoute::Writer(tx) => tx,
        };
        tx.send(frame).map_err(|_| NetError::Disconnected)
    }
}

/// One received message: the frame plus, for REQ deliveries, the means
/// to reply.
#[derive(Debug)]
pub struct Delivery {
    /// The message.
    pub frame: Frame,
    /// Present iff the sender used [`Transport::request`] and is
    /// blocked awaiting a reply.
    pub reply: Option<ReplyHandle>,
}

impl Delivery {
    /// A PUSH delivery (no reply expected).
    pub fn push(frame: Frame) -> Self {
        Delivery { frame, reply: None }
    }
}

/// Receiving end of a bound endpoint. Entities poll this continuously —
/// "They continuously poll on their communication channel and act on
/// whatever packet they receive" (§3.4).
#[derive(Debug)]
pub struct Mailbox {
    pub(crate) addr: Addr,
    pub(crate) rx: Receiver<Delivery>,
    /// Receive-side traffic counters of the owning transport, when the
    /// backend tracks them.
    pub(crate) stats: Option<Arc<NetStats>>,
}

impl Mailbox {
    fn note(&self, d: &Delivery) {
        if let Some(stats) = &self.stats {
            stats.record_recv(d.frame.packet_type(), d.frame.len());
        }
    }

    /// The bound address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Block until a message arrives or all senders are gone.
    pub fn recv(&self) -> Result<Delivery, NetError> {
        let d = self.rx.recv().map_err(|_| NetError::Disconnected)?;
        self.note(&d);
        Ok(d)
    }

    /// Block up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Delivery, NetError> {
        let d = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })?;
        self.note(&d);
        Ok(d)
    }

    /// Non-blocking receive; `Ok(None)` when the mailbox is empty.
    pub fn try_recv(&self) -> Result<Option<Delivery>, NetError> {
        match self.rx.try_recv() {
            Ok(d) => {
                self.note(&d);
                Ok(Some(d))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Number of queued messages (approximate under concurrency).
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }
}

/// Non-blocking send handle to a peer (the PUSH pattern: "a
/// non-blocking send ... allows the client to continue executing while
/// [the transport] finishes sending the message", §3.5).
#[derive(Debug, Clone)]
pub struct Outbox {
    pub(crate) tx: Sender<Delivery>,
    /// Send-side traffic counters of the owning transport, when the
    /// backend tracks them.
    pub(crate) stats: Option<Arc<NetStats>>,
    /// Set by a backend whose route dropped frames it had already
    /// accepted ([`Outbox::lost`]); `None` where that cannot happen.
    pub(crate) lost: Option<Arc<AtomicBool>>,
}

impl Outbox {
    /// Queue a frame for delivery. Fails only if the peer is gone.
    pub fn send(&self, frame: Frame) -> Result<(), NetError> {
        if let Some(stats) = &self.stats {
            stats.record_sent(frame.packet_type(), frame.len());
        }
        self.tx
            .send(Delivery::push(frame))
            .map_err(|_| NetError::Disconnected)
    }

    /// Frames queued behind this handle that the consumer has not yet
    /// taken (approximate under concurrency). For the in-process
    /// backend this is the peer's mailbox backlog; for TCP it is the
    /// connection writer's queue. [`crate::CoalescingOutbox`] uses it
    /// to bound in-flight bytes.
    pub fn queued(&self) -> usize {
        self.tx.len()
    }

    /// Whether the route lost frames [`Outbox::send`] had accepted (a
    /// failed TCP write, a broken route of [`crate::FaultyTransport`]).
    /// It refuses later sends, so the caller reopens it; what was lost
    /// is the caller's to recover.
    pub fn lost(&self) -> bool {
        self.lost
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Acquire))
    }
}

/// A bound PUB endpoint fanning frames out to matching subscribers.
pub struct Publisher {
    pub(crate) addr: Addr,
    pub(crate) sink: Box<dyn Fn(&Frame) -> usize + Send + Sync>,
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher").finish_non_exhaustive()
    }
}

impl Publisher {
    /// The bound address (with the actual port for TCP binds to
    /// ephemeral port 0).
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Publish a frame to every subscriber whose topic filter matches
    /// the frame's packet type. Returns the number of subscribers
    /// reached (useful for tests; ZeroMQ offers no such feedback).
    ///
    /// Frames are `Bytes`-backed, so each subscriber receives a cheap
    /// reference-counted handle to the same buffer: one allocation per
    /// broadcast regardless of subscriber count (TCP subscribers pay
    /// the unavoidable socket copy, but no heap copy).
    pub fn publish(&self, frame: &Frame) -> usize {
        (self.sink)(frame)
    }
}

/// A message-passing backend. All methods are callable from any
/// thread; entities share one `Arc<dyn Transport>`.
pub trait Transport: Send + Sync + 'static {
    /// Bind a PULL/REP endpoint and obtain its mailbox.
    fn bind(&self, addr: &Addr) -> Result<Mailbox, NetError>;

    /// Obtain a PUSH handle to `addr`. Binding order does not matter
    /// for in-process endpoints; TCP requires the peer to be listening.
    fn sender(&self, addr: &Addr) -> Result<Outbox, NetError>;

    /// Blocking REQ/REP round trip.
    fn request(&self, addr: &Addr, frame: Frame, timeout: Duration) -> Result<Frame, NetError>;

    /// Scatter–gather: issue every request, then collect every reply.
    /// Slot `i` of the result is what `request(requests[i].0,
    /// requests[i].1, ..)` would have returned, and all slots share
    /// one deadline `timeout` from the call — a destination that never
    /// answers times out alone and costs the call one `timeout`, not
    /// one each. A destination may appear more than once; its requests
    /// are then answered in the order given.
    ///
    /// This default is the sequential loop, correct for any backend;
    /// every backend in this crate overrides it so that the requests
    /// are in flight together (see each `impl`).
    fn request_all(
        &self,
        requests: &[(&Addr, Frame)],
        timeout: Duration,
    ) -> Vec<Result<Frame, NetError>> {
        let deadline = Instant::now() + timeout;
        requests
            .iter()
            .map(|(addr, frame)| {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(NetError::Timeout);
                }
                self.request(addr, frame.clone(), left)
            })
            .collect()
    }

    /// Bind a PUB endpoint.
    fn bind_publisher(&self, addr: &Addr) -> Result<Publisher, NetError>;

    /// Subscribe to the packet types in `topics` from the publisher at
    /// `addr` (empty `topics` = all messages, as in ZeroMQ).
    fn subscribe(&self, addr: &Addr, topics: &[u8]) -> Result<Mailbox, NetError>;

    /// Subscribe and deliver matching frames into the mailbox bound at
    /// `target`, so a single-threaded entity can poll one channel for
    /// both direct and broadcast traffic (the paper's agents poll one
    /// communication channel, §3.4). The default implementation relays
    /// through a thread; backends may wire it directly.
    fn subscribe_forward(&self, addr: &Addr, topics: &[u8], target: &Addr) -> Result<(), NetError> {
        let sub = self.subscribe(addr, topics)?;
        let out = self.sender(target)?;
        std::thread::spawn(move || {
            while let Ok(d) = sub.recv() {
                if out.send(d.frame).is_err() {
                    break;
                }
            }
        });
        Ok(())
    }

    /// Transport-level traffic counters ([`NetStats`]), when the
    /// backend tracks them. Wrapper transports delegate to their inner
    /// backend.
    fn net_stats(&self) -> Option<Arc<NetStats>> {
        None
    }
}
