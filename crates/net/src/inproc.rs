//! In-process transport: crossbeam channels behind the [`Transport`]
//! trait (the `inproc://` analog of §3.5).
//!
//! This backend powers the scaled-down cluster simulation: every ElGA
//! entity is an OS thread, every endpoint a channel. Senders may
//! connect before the receiver binds (the hub creates the channel on
//! first touch), matching ZeroMQ's connection-order independence.

use crate::addr::Addr;
use crate::frame::Frame;
use crate::transport::{
    Delivery, Mailbox, NetError, NetStats, Outbox, Publisher, ReplyHandle, ReplyRoute, Transport,
};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One registered endpoint: the send side plus the receive side, which
/// is handed out once on `bind`.
struct Slot {
    tx: Sender<Delivery>,
    rx: Option<Receiver<Delivery>>,
}

/// A subscriber of a PUB endpoint: its topic filter and channel.
struct Subscriber {
    topics: Vec<u8>,
    tx: Sender<Delivery>,
}

#[derive(Default)]
struct Hub {
    endpoints: HashMap<String, Slot>,
    topics: HashMap<String, Arc<Mutex<Vec<Subscriber>>>>,
}

impl Hub {
    fn slot(&mut self, name: &str) -> &mut Slot {
        self.endpoints.entry(name.to_string()).or_insert_with(|| {
            let (tx, rx) = unbounded();
            Slot { tx, rx: Some(rx) }
        })
    }

    fn subscribers(&mut self, name: &str) -> Arc<Mutex<Vec<Subscriber>>> {
        self.topics.entry(name.to_string()).or_default().clone()
    }
}

/// The in-process transport. Cheap to clone via `Arc`.
#[derive(Default)]
pub struct InProcTransport {
    hub: Mutex<Hub>,
    stats: Arc<NetStats>,
}

impl InProcTransport {
    /// A fresh, empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Transport-level traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn inproc_name(addr: &Addr) -> Result<&str, NetError> {
        addr.as_inproc().ok_or(NetError::Protocol(
            "in-process transport requires inproc:// addresses",
        ))
    }

    /// Queue a REQ delivery at `addr` and return the one-shot channel
    /// its reply will arrive on.
    fn enqueue_request(&self, addr: &Addr, frame: Frame) -> Result<Receiver<Frame>, NetError> {
        let name = Self::inproc_name(addr)?;
        let tx = self.hub.lock().slot(name).tx.clone();
        let (reply_tx, reply_rx) = bounded(1);
        self.stats.record_sent(frame.packet_type(), frame.len());
        tx.send(Delivery {
            frame,
            reply: Some(ReplyHandle {
                route: ReplyRoute::Chan(reply_tx),
            }),
        })
        .map_err(|_| NetError::Disconnected)?;
        Ok(reply_rx)
    }
}

/// Block on a one-shot reply channel for at most `timeout`.
fn await_reply(reply: &Receiver<Frame>, timeout: Duration) -> Result<Frame, NetError> {
    reply.recv_timeout(timeout).map_err(|e| match e {
        RecvTimeoutError::Timeout => NetError::Timeout,
        RecvTimeoutError::Disconnected => NetError::Disconnected,
    })
}

impl Transport for InProcTransport {
    fn bind(&self, addr: &Addr) -> Result<Mailbox, NetError> {
        let name = Self::inproc_name(addr)?;
        let mut hub = self.hub.lock();
        let slot = hub.slot(name);
        match slot.rx.take() {
            Some(rx) => Ok(Mailbox {
                addr: addr.clone(),
                rx,
                stats: Some(self.stats.clone()),
            }),
            None => Err(NetError::AddrInUse(addr.clone())),
        }
    }

    fn sender(&self, addr: &Addr) -> Result<Outbox, NetError> {
        let name = Self::inproc_name(addr)?;
        let mut hub = self.hub.lock();
        Ok(Outbox {
            tx: hub.slot(name).tx.clone(),
            stats: Some(self.stats.clone()),
            lost: None,
        })
    }

    fn request(&self, addr: &Addr, frame: Frame, timeout: Duration) -> Result<Frame, NetError> {
        await_reply(&self.enqueue_request(addr, frame)?, timeout)
    }

    /// Every delivery is queued, each with its own one-shot reply
    /// channel, before the first reply is awaited: the destinations
    /// work on their requests at the same time and the caller's thread
    /// is the only one involved. A reply that has already arrived is
    /// still collected when the shared deadline has passed.
    fn request_all(
        &self,
        requests: &[(&Addr, Frame)],
        timeout: Duration,
    ) -> Vec<Result<Frame, NetError>> {
        let deadline = Instant::now() + timeout;
        let pending: Vec<_> = requests
            .iter()
            .map(|(addr, frame)| self.enqueue_request(addr, frame.clone()))
            .collect();
        pending
            .into_iter()
            .map(|reply| await_reply(&reply?, deadline.saturating_duration_since(Instant::now())))
            .collect()
    }

    fn bind_publisher(&self, addr: &Addr) -> Result<Publisher, NetError> {
        let name = Self::inproc_name(addr)?;
        let subs = self.hub.lock().subscribers(name);
        let stats = self.stats.clone();
        Ok(Publisher {
            addr: addr.clone(),
            sink: Box::new(move |frame: &Frame| {
                let mut subs = subs.lock();
                let mut reached = 0;
                // Drop subscribers whose mailbox is gone, like ZeroMQ
                // reaping dead connections. Each delivery is a
                // reference-counted handle to the one published buffer.
                subs.retain(|s| {
                    let matches = s.topics.is_empty() || s.topics.contains(&frame.packet_type());
                    if !matches {
                        return true;
                    }
                    match s.tx.send(Delivery::push(frame.clone())) {
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
        let name = Self::inproc_name(addr)?;
        let subs = self.hub.lock().subscribers(name);
        let (tx, rx) = unbounded();
        subs.lock().push(Subscriber {
            topics: topics.to_vec(),
            tx,
        });
        Ok(Mailbox {
            addr: addr.clone(),
            rx,
            stats: Some(self.stats.clone()),
        })
    }

    /// Thread-free override: register the target endpoint's sender as
    /// the subscription sink directly.
    fn subscribe_forward(&self, addr: &Addr, topics: &[u8], target: &Addr) -> Result<(), NetError> {
        let name = Self::inproc_name(addr)?;
        let target_name = Self::inproc_name(target)?.to_string();
        let mut hub = self.hub.lock();
        let tx = hub.slot(&target_name).tx.clone();
        let subs = hub.subscribers(name);
        drop(hub);
        subs.lock().push(Subscriber {
            topics: topics.to_vec(),
            tx,
        });
        Ok(())
    }

    fn net_stats(&self) -> Option<Arc<NetStats>> {
        Some(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t() -> Arc<InProcTransport> {
        Arc::new(InProcTransport::new())
    }

    #[test]
    fn push_then_receive() {
        let t = t();
        let addr = Addr::inproc("a");
        let mb = t.bind(&addr).unwrap();
        let out = t.sender(&addr).unwrap();
        out.send(Frame::signal(3)).unwrap();
        let d = mb.recv().unwrap();
        assert_eq!(d.frame.packet_type(), 3);
        assert!(d.reply.is_none());
    }

    #[test]
    fn sender_before_bind_is_fine() {
        let t = t();
        let addr = Addr::inproc("late");
        let out = t.sender(&addr).unwrap();
        out.send(Frame::signal(1)).unwrap();
        let mb = t.bind(&addr).unwrap();
        assert_eq!(mb.recv().unwrap().frame.packet_type(), 1);
    }

    #[test]
    fn double_bind_rejected() {
        let t = t();
        let addr = Addr::inproc("x");
        let _mb = t.bind(&addr).unwrap();
        assert!(matches!(t.bind(&addr), Err(NetError::AddrInUse(_))));
    }

    #[test]
    fn request_reply_roundtrip() {
        let t = t();
        let addr = Addr::inproc("server");
        let mb = t.bind(&addr).unwrap();
        let t2 = t.clone();
        let addr2 = addr.clone();
        let client = std::thread::spawn(move || {
            t2.request(&addr2, Frame::signal(9), Duration::from_secs(5))
                .unwrap()
        });
        let d = mb.recv().unwrap();
        assert_eq!(d.frame.packet_type(), 9);
        d.reply.unwrap().send(Frame::signal(10)).unwrap();
        assert_eq!(client.join().unwrap().packet_type(), 10);
    }

    #[test]
    fn request_times_out_without_reply() {
        let t = t();
        let addr = Addr::inproc("slow");
        let _mb = t.bind(&addr).unwrap();
        let err = t
            .request(&addr, Frame::signal(1), Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout));
    }

    #[test]
    fn pubsub_filters_by_packet_type() {
        let t = t();
        let addr = Addr::inproc("bus");
        let publ = t.bind_publisher(&addr).unwrap();
        let all = t.subscribe(&addr, &[]).unwrap();
        let only2 = t.subscribe(&addr, &[2]).unwrap();
        assert_eq!(publ.publish(&Frame::signal(1)), 1);
        assert_eq!(publ.publish(&Frame::signal(2)), 2);
        assert_eq!(all.backlog(), 2);
        assert_eq!(only2.backlog(), 1);
        assert_eq!(only2.recv().unwrap().frame.packet_type(), 2);
    }

    #[test]
    fn dead_subscribers_are_reaped() {
        let t = t();
        let addr = Addr::inproc("bus2");
        let publ = t.bind_publisher(&addr).unwrap();
        let sub = t.subscribe(&addr, &[]).unwrap();
        drop(sub);
        assert_eq!(publ.publish(&Frame::signal(1)), 0);
    }

    #[test]
    fn subscribe_before_publisher_bind() {
        let t = t();
        let addr = Addr::inproc("bus3");
        let sub = t.subscribe(&addr, &[7]).unwrap();
        let publ = t.bind_publisher(&addr).unwrap();
        publ.publish(&Frame::signal(7));
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(1))
                .unwrap()
                .frame
                .packet_type(),
            7
        );
    }

    #[test]
    fn try_recv_and_backlog() {
        let t = t();
        let addr = Addr::inproc("q");
        let mb = t.bind(&addr).unwrap();
        assert!(mb.try_recv().unwrap().is_none());
        t.sender(&addr).unwrap().send(Frame::signal(1)).unwrap();
        assert_eq!(mb.backlog(), 1);
        assert!(mb.try_recv().unwrap().is_some());
    }

    #[test]
    fn tcp_addr_rejected() {
        let t = t();
        let addr = Addr::parse("tcp://127.0.0.1:1").unwrap();
        assert!(matches!(t.bind(&addr), Err(NetError::Protocol(_))));
    }
}
