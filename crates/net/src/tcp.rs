//! TCP transport: the same [`Transport`] contract over real sockets
//! (the `tcp://` analog of §3.5).
//!
//! Wire format: every message is `u32` little-endian length, one wire
//! opcode byte, then the payload. Opcodes:
//!
//! | op | meaning |
//! |----|---------|
//! | 1  | PUSH frame |
//! | 2  | REQ frame (reply comes back on the same connection) |
//! | 3  | REP frame |
//! | 4  | SUBSCRIBE (payload = topic bytes; empty = all) |
//!
//! Connections are handled by detached reader/writer threads feeding
//! the same crossbeam channels the in-process backend uses, so
//! everything above the [`Transport`] trait is backend-agnostic. The
//! bench driver's §3.5 figure (`sec35`) compares the two backends' REQ/REP
//! round trip the way the paper compares MPI / raw TCP / ZeroMQ.

use crate::addr::Addr;
use crate::frame::Frame;
use crate::rx::{write_frame_batch, write_msg, RecvBuf};
use crate::transport::{
    Delivery, Mailbox, NetError, NetStats, Outbox, Publisher, ReplyHandle, ReplyRoute, Transport,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::convert::identity;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OP_PUSH: u8 = 1;
const OP_REQ: u8 = 2;
const OP_REP: u8 = 3;
const OP_SUB: u8 = 4;

/// Most frames gathered into one `writev` by a writer thread. Bounds
/// the slice table while still letting a burst of queued flushes leave
/// in a single syscall.
const WRITE_BATCH: usize = 32;

/// Drain `rx` and write everything queued, each item's `frame`, as
/// gather-batches until the channel closes or the peer goes away: a
/// coalesced flush (or a burst of them) is one `writev`.
fn run_writer<T>(
    mut stream: TcpStream,
    rx: Receiver<T>,
    frame: fn(T) -> Frame,
    op: u8,
    what: &str,
    peer: &str,
) {
    let mut batch: Vec<Frame> = Vec::with_capacity(WRITE_BATCH);
    while let Ok(item) = rx.recv() {
        batch.push(frame(item));
        while batch.len() < WRITE_BATCH {
            match rx.try_recv() {
                Ok(item) => batch.push(frame(item)),
                Err(_) => break,
            }
        }
        if let Err(e) = write_frame_batch(&mut stream, op, &batch) {
            log_conn_error(what, peer, &e);
            return;
        }
        batch.clear();
    }
}

/// Connection teardowns that are part of normal peer lifecycle; not
/// worth a log line.
fn is_benign_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Log an unexpected per-connection error. One bad peer must never
/// panic the process; reader/writer threads log and exit instead.
fn log_conn_error(what: &str, peer: &str, e: &std::io::Error) {
    if !is_benign_disconnect(e) {
        eprintln!("elga-net: tcp {what} ({peer}): {e}");
    }
}

/// A cached REQ connection: the socket plus its receive slab (replies
/// may straddle reads, so the slab must persist across requests).
/// The slab carries no pool stats: request/reply is stop-and-wait by
/// protocol — exactly one reply per refill — so counting it would pin
/// the reported hit rate near 0.5 no matter how well the data-plane
/// batches.
struct ReqConn {
    stream: TcpStream,
    rbuf: RecvBuf,
}

/// Write `frame` as a REQ on the cached connection in `conn`, opening
/// one first if there is none. A failed write drops the connection.
fn send_req(
    conn: &mut Option<ReqConn>,
    sock: SocketAddr,
    frame: &Frame,
    stats: &NetStats,
) -> Result<(), NetError> {
    if conn.is_none() {
        let stream = TcpStream::connect(sock)?;
        stream.set_nodelay(true)?;
        *conn = Some(ReqConn {
            stream,
            rbuf: RecvBuf::new(None),
        });
    }
    let open = conn.as_mut().expect("opened above");
    stats.record_sent(frame.packet_type(), frame.len());
    let written = write_msg(&mut open.stream, OP_REQ, frame.as_bytes());
    if written.is_err() {
        *conn = None;
    }
    Ok(written?)
}

/// Read the REP to the REQ last written on `conn`, waiting at most
/// `timeout` (at least a millisecond: the socket API has no zero
/// wait). Any failure drops the connection: a timed-out REQ would
/// otherwise desynchronize the lock-step REQ/REP stream.
fn read_rep(conn: &mut Option<ReqConn>, timeout: Duration) -> Result<Frame, NetError> {
    let Some(open) = conn.as_mut() else {
        return Err(NetError::Disconnected);
    };
    let outcome = (|| -> Result<Frame, NetError> {
        open.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let (op, payload) = open.rbuf.read_msg(&mut open.stream).map_err(|e| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                NetError::Timeout
            } else {
                NetError::Io(e)
            }
        })?;
        if op != OP_REP || payload.is_empty() {
            return Err(NetError::Protocol("expected REP frame"));
        }
        Ok(Frame::from_bytes(payload))
    })();
    if outcome.is_err() {
        *conn = None;
    }
    outcome
}

/// TCP backend. Keeps a cache of REQ connections per peer.
#[derive(Default)]
pub struct TcpTransport {
    req_conns: Mutex<HashMap<SocketAddr, std::sync::Arc<Mutex<Option<ReqConn>>>>>,
    stats: Arc<NetStats>,
}

impl TcpTransport {
    /// A fresh transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Transport-level traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn tcp_addr(addr: &Addr) -> Result<SocketAddr, NetError> {
        addr.as_tcp().ok_or(NetError::Protocol(
            "tcp transport requires tcp:// addresses",
        ))
    }
}

/// Serve one inbound connection on a bound PULL/REP endpoint: PUSH
/// frames go to the mailbox; REQ frames carry a reply handle routed to
/// this connection's writer thread. Payloads are split zero-copy off a
/// pooled receive slab, never copied into fresh `Vec<u8>`s.
fn serve_conn(mut stream: TcpStream, inbox: Sender<Delivery>, stats: Arc<NetStats>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            log_conn_error("clone stream", &peer, &e);
            return;
        }
    };
    let (rep_tx, rep_rx) = unbounded::<Frame>();
    let writer_peer = peer.clone();
    std::thread::spawn(move || {
        run_writer(
            writer,
            rep_rx,
            identity,
            OP_REP,
            "write reply",
            &writer_peer,
        )
    });
    let mut rbuf = RecvBuf::new(Some(stats));
    loop {
        let (op, payload) = match rbuf.read_msg(&mut stream) {
            Ok(msg) => msg,
            Err(e) => {
                log_conn_error("read", &peer, &e);
                break;
            }
        };
        if payload.is_empty() {
            break; // frames must carry a packet type
        }
        let frame = Frame::from_bytes(payload);
        let delivery = match op {
            OP_PUSH => Delivery::push(frame),
            OP_REQ => Delivery {
                frame,
                reply: Some(ReplyHandle {
                    route: ReplyRoute::Writer(rep_tx.clone()),
                }),
            },
            _ => break,
        };
        if inbox.send(delivery).is_err() {
            break;
        }
    }
}

impl Transport for TcpTransport {
    fn bind(&self, addr: &Addr) -> Result<Mailbox, NetError> {
        let sock = Self::tcp_addr(addr)?;
        let listener = TcpListener::bind(sock)?;
        let local = listener.local_addr()?;
        let (tx, rx) = unbounded();
        let stats = self.stats.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let _ = stream.set_nodelay(true);
                let inbox = tx.clone();
                let stats = stats.clone();
                std::thread::spawn(move || serve_conn(stream, inbox, stats));
            }
        });
        Ok(Mailbox {
            addr: Addr::Tcp(local),
            rx,
            stats: Some(self.stats.clone()),
        })
    }

    fn sender(&self, addr: &Addr) -> Result<Outbox, NetError> {
        let sock = Self::tcp_addr(addr)?;
        let stream = TcpStream::connect(sock)?;
        stream.set_nodelay(true)?;
        let (tx, rx) = unbounded::<Delivery>();
        let peer = sock.to_string();
        std::thread::spawn(move || {
            run_writer(stream, rx, |d| d.frame, OP_PUSH, "write push", &peer)
        });
        Ok(Outbox {
            tx,
            stats: Some(self.stats.clone()),
        })
    }

    fn request(&self, addr: &Addr, frame: Frame, timeout: Duration) -> Result<Frame, NetError> {
        let sock = Self::tcp_addr(addr)?;
        let slot = self.req_conns.lock().entry(sock).or_default().clone();
        let mut conn = slot.lock();
        send_req(&mut conn, sock, &frame, &self.stats)?;
        read_rep(&mut conn, timeout)
    }

    /// The cached REQ connections of the distinct destinations are
    /// locked in address order (so two concurrent calls cannot hold
    /// each other's), every request is written, then every reply is
    /// read under the shared deadline. A connection that fails or
    /// times out is dropped exactly as [`Transport::request`] drops
    /// it; the others stay cached and in step. A destination named
    /// more than once gets its requests one per round — its stream is
    /// lock-step REQ/REP — so a later one follows the earlier one's
    /// reply, on a fresh connection if that reply never came. A reply
    /// already in the socket when the deadline has passed is still
    /// collected (each read waits at least a millisecond).
    fn request_all(
        &self,
        requests: &[(&Addr, Frame)],
        timeout: Duration,
    ) -> Vec<Result<Frame, NetError>> {
        let deadline = Instant::now() + timeout;
        // Every slot that is queued below is overwritten by its outcome.
        let mut results: Vec<Result<Frame, NetError>> =
            requests.iter().map(|_| Err(NetError::Timeout)).collect();
        // Request slots per distinct destination, in address order.
        let mut queues: BTreeMap<SocketAddr, VecDeque<usize>> = BTreeMap::new();
        for (i, (addr, _)) in requests.iter().enumerate() {
            match Self::tcp_addr(addr) {
                Ok(sock) => queues.entry(sock).or_default().push_back(i),
                Err(e) => results[i] = Err(e),
            }
        }
        let slots: Vec<_> = {
            let mut cache = self.req_conns.lock();
            queues
                .keys()
                .map(|&sock| cache.entry(sock).or_default().clone())
                .collect()
        };
        let mut conns: Vec<_> = slots.iter().map(|slot| slot.lock()).collect();
        loop {
            let mut awaiting = Vec::new();
            for ((&sock, queue), conn) in queues.iter_mut().zip(conns.iter_mut()) {
                let Some(i) = queue.pop_front() else { continue };
                match send_req(conn, sock, &requests[i].1, &self.stats) {
                    Ok(()) => awaiting.push((i, conn)),
                    Err(e) => results[i] = Err(e),
                }
            }
            if awaiting.is_empty() && queues.values().all(VecDeque::is_empty) {
                return results;
            }
            for (i, conn) in awaiting {
                let left = deadline.saturating_duration_since(Instant::now());
                results[i] = read_rep(conn, left);
            }
        }
    }

    fn bind_publisher(&self, addr: &Addr) -> Result<Publisher, NetError> {
        let sock = Self::tcp_addr(addr)?;
        let listener = TcpListener::bind(sock)?;
        let local = listener.local_addr()?;
        type Subs = std::sync::Arc<Mutex<Vec<(Vec<u8>, Sender<Frame>)>>>;
        let subs: Subs = Default::default();
        let accept_subs = subs.clone();
        std::thread::spawn(move || {
            for mut stream in listener.incoming().flatten() {
                let _ = stream.set_nodelay(true);
                let subs = accept_subs.clone();
                std::thread::spawn(move || {
                    // First message must be a subscription.
                    let Ok((OP_SUB, topics)) = RecvBuf::new(None).read_msg(&mut stream) else {
                        return;
                    };
                    let peer = stream
                        .peer_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_else(|_| "<unknown>".into());
                    let (tx, rx) = unbounded::<Frame>();
                    subs.lock().push((topics.to_vec(), tx));
                    run_writer(stream, rx, identity, OP_PUSH, "write publication", &peer);
                });
            }
        });
        let stats = self.stats.clone();
        Ok(Publisher {
            addr: Addr::Tcp(local),
            sink: Box::new(move |frame: &Frame| {
                let mut subs = subs.lock();
                let mut reached = 0;
                subs.retain(|(topics, tx)| {
                    let matches = topics.is_empty() || topics.contains(&frame.packet_type());
                    if !matches {
                        return true;
                    }
                    match tx.send(frame.clone()) {
                        Ok(()) => {
                            reached += 1;
                            true
                        }
                        Err(_) => false,
                    }
                });
                stats.record_sent_n(frame.packet_type(), frame.len(), reached);
                reached as usize
            }),
        })
    }

    fn subscribe(&self, addr: &Addr, topics: &[u8]) -> Result<Mailbox, NetError> {
        let sock = Self::tcp_addr(addr)?;
        let mut stream = TcpStream::connect(sock)?;
        stream.set_nodelay(true)?;
        write_msg(&mut stream, OP_SUB, topics)?;
        let (tx, rx) = unbounded();
        let local = Addr::Tcp(stream.local_addr()?);
        let peer = sock.to_string();
        std::thread::spawn(move || {
            // No pool stats: subscriptions carry sporadic control-plane
            // broadcasts (ADVANCE/RECOVER), inherently one per refill.
            let mut rbuf = RecvBuf::new(None);
            loop {
                let payload = match rbuf.read_msg(&mut stream) {
                    Ok((OP_PUSH, payload)) => payload,
                    Ok(_) => break, // publishers only ever push
                    Err(e) => {
                        log_conn_error("read subscription", &peer, &e);
                        break;
                    }
                };
                if payload.is_empty()
                    || tx.send(Delivery::push(Frame::from_bytes(payload))).is_err()
                {
                    break;
                }
            }
        });
        Ok(Mailbox {
            addr: local,
            rx,
            stats: Some(self.stats.clone()),
        })
    }

    fn net_stats(&self) -> Option<Arc<NetStats>> {
        Some(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn any_port() -> Addr {
        Addr::parse("tcp://127.0.0.1:0").unwrap()
    }

    #[test]
    fn push_roundtrip_over_sockets() {
        let t = TcpTransport::new();
        let mb = t.bind(&any_port()).unwrap();
        let out = t.sender(mb.addr()).unwrap();
        out.send(Frame::builder(5).u64(99).finish()).unwrap();
        let d = mb.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.frame.packet_type(), 5);
        assert_eq!(d.frame.reader().u64(), Some(99));
    }

    #[test]
    fn request_reply_over_sockets() {
        let t = Arc::new(TcpTransport::new());
        let mb = t.bind(&any_port()).unwrap();
        let server_addr = mb.addr().clone();
        std::thread::spawn(move || {
            for _ in 0..2 {
                let d = mb.recv().unwrap();
                let echoed = d.frame.reader().u64().unwrap();
                d.reply
                    .unwrap()
                    .send(Frame::builder(2).u64(echoed * 2).finish())
                    .unwrap();
            }
        });
        // Two sequential requests reuse the cached connection.
        for x in [21u64, 50] {
            let rep = t
                .request(
                    &server_addr,
                    Frame::builder(1).u64(x).finish(),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(rep.reader().u64(), Some(x * 2));
        }
    }

    #[test]
    fn request_timeout_resets_connection() {
        let t = TcpTransport::new();
        let mb = t.bind(&any_port()).unwrap();
        let addr = mb.addr().clone();
        // Server never replies.
        let err = t
            .request(&addr, Frame::signal(1), Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        // A later request gets a fresh connection and works.
        std::thread::spawn(move || {
            while let Ok(d) = mb.recv() {
                if let Some(r) = d.reply {
                    let _ = r.send(Frame::signal(8));
                }
            }
        });
        let rep = t
            .request(&addr, Frame::signal(1), Duration::from_secs(5))
            .unwrap();
        assert_eq!(rep.packet_type(), 8);
    }

    #[test]
    fn pubsub_over_sockets_filters_topics() {
        let t = TcpTransport::new();
        let publ = t.bind_publisher(&any_port()).unwrap();
        let sub_all = t.subscribe(publ.addr(), &[]).unwrap();
        let sub_7 = t.subscribe(publ.addr(), &[7]).unwrap();
        // Wait until both subscriptions are registered: a type-7 probe
        // matches both filters.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while publ.publish(&Frame::signal(7)) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "subscribers never registered"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        publ.publish(&Frame::signal(3));
        assert_eq!(
            sub_7
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .frame
                .packet_type(),
            7
        );
        // sub_all sees some number of 7-probes followed by the 3.
        loop {
            let d = sub_all.recv_timeout(Duration::from_secs(5)).unwrap();
            match d.frame.packet_type() {
                7 => continue,
                3 => break,
                other => panic!("unexpected packet type {other}"),
            }
        }
        // sub_7 never receives the 3 — anything still queued must be a
        // 7-probe.
        while let Ok(Some(d)) = sub_7.try_recv() {
            assert_eq!(d.frame.packet_type(), 7);
        }
    }

    #[test]
    fn inproc_addr_rejected() {
        let t = TcpTransport::new();
        assert!(matches!(
            t.bind(&Addr::inproc("x")),
            Err(NetError::Protocol(_))
        ));
    }
}
