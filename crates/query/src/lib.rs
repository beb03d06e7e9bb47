//! Continuous-query serving plane.
//!
//! The paper's low-latency client path (§3.5) asks one vertex per
//! blocking round trip; here a read is always a `QUERY_BATCH`, and
//! there is one read path, `elga_core::read::Reader`, which
//! `elga_core::cluster::Cluster::query_u64` asks a batch of one. This
//! crate is the front for *serving workloads*: many clients, many
//! vertices per question, answers flowing continuously as the graph
//! computes. Three mechanisms, all riding the existing comms plane:
//!
//! * **Batched point reads.** [`QueryClient::query_batch`] groups the
//!   asked vertices by primary agent under the view the reader keeps,
//!   ships one `QUERY_BATCH` frame per agent (borrowed-view wire
//!   records, zero-copy decode on the agent), and has the per-agent
//!   requests in flight together — one scatter–gather on the caller's
//!   thread, one round trip per *agent*, not per vertex. The reader
//!   fetches a newer view only when an answer tells it to: a miss or a
//!   failed request.
//! * **Standing subscriptions.** [`QueryClient::subscribe`] registers
//!   vertex interest with every agent; after each completed run the
//!   vertices' primaries push only the values that changed, coalesced
//!   per client through the same credit/backpressure-bounded
//!   [`elga_net::CoalescingOutbox`] the data plane uses. Polling
//!   becomes push. [`QueryClient::refresh`] moves the registrations to
//!   the agents of a newer view; reads need no refresh.
//! * **Snapshot consistency.** Agents double-buffer the last
//!   *completed* run's values and serve queries exclusively from that
//!   buffer, tagged with the run id and the ingest batch watermark it
//!   was taken at. Only a vertex's primary under the agent's adopted
//!   view answers a hit, so a reader holding an old view is sent on,
//!   never served a moved-away copy. A reader never observes torn
//!   mid-superstep state — across live runs, elastic view changes, and
//!   crash recovery. A client reads with `min_run` 0: agents never
//!   hold its reads for a run to end.
//!
//! Query traffic is uncounted in the Mattern barrier sums, so serving
//! load never perturbs run termination.

#![warn(missing_docs)]

use elga_core::config::SystemConfig;
use elga_core::msg::{self, packet, DirectoryView, Message, SubReg};
use elga_core::read::Reader;
pub use elga_core::read::SnapshotValue;
use elga_graph::types::VertexId;
use elga_net::{Addr, Frame, Mailbox, NetError, Transport, TransportExt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One subscription push: a watched vertex whose value changed in the
/// run that just completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubUpdate {
    /// The subscription the update belongs to.
    pub sub: u64,
    /// The watched vertex.
    pub vertex: VertexId,
    /// Its new snapshot state.
    pub state: u64,
    /// Run id of the completed run that produced the value.
    pub run: u64,
    /// Batch watermark the snapshot was taken at.
    pub watermark: u64,
}

/// Distinguishes client mailboxes when several live in one process.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A serving-plane client: batched reads plus standing subscriptions.
///
/// One `QueryClient` models one downstream consumer; a serving bench
/// or gateway holds many, all sharing the one `Arc<dyn Transport>`.
pub struct QueryClient {
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    reader: Reader,
    /// Bound lazily on the first `subscribe`: the address agents push
    /// `SUB_PUSH` frames to.
    mailbox: Option<Mailbox>,
    /// Client-chosen subscription ids and their watched vertices, kept
    /// so registrations can be replayed at new agents after a view
    /// change.
    subs: HashMap<u64, Vec<VertexId>>,
    next_sub: u64,
}

impl QueryClient {
    /// Connect through a directory address.
    pub fn connect(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        directory: Addr,
    ) -> Result<QueryClient, NetError> {
        let reader = Reader::connect(transport.clone(), cfg.clone(), directory)?;
        Ok(QueryClient {
            transport,
            cfg,
            reader,
            mailbox: None,
            subs: HashMap::new(),
            next_sub: 1,
        })
    }

    /// Fetch the view (after elasticity events) and replay every
    /// standing subscription at the agents of the new view, so vertex
    /// interest follows primaryship.
    pub fn refresh(&mut self) -> Result<(), NetError> {
        self.reader.refresh()?;
        if let Some(addr) = self.mailbox.as_ref().map(|m| m.addr().clone()) {
            let reg = |(&sub, vertices): (&u64, &Vec<VertexId>)| {
                let (addr, vertices) = (addr.clone(), vertices.clone());
                SubReg {
                    addr,
                    sub,
                    vertices,
                }
                .encode()
            };
            let _ = self.register(&self.subs.iter().map(reg).collect::<Vec<_>>());
        }
        Ok(())
    }

    /// Send every registration frame to every agent of the kept view,
    /// all in one scatter–gather; replies agent-major, in `frames` order.
    fn register(&self, frames: &[Frame]) -> Vec<Result<Frame, NetError>> {
        let view = self.reader.view();
        let requests: Vec<(&Addr, Frame)> = view
            .agents
            .iter()
            .flat_map(|a| frames.iter().map(move |f| (&a.addr, f.clone())))
            .collect();
        self.transport.request_all_with_retry(
            &requests,
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        )
    }

    /// The view the client's reader keeps.
    pub fn view(&self) -> DirectoryView {
        self.reader.view()
    }

    // ------------------------------------------------------------------
    // Batched point reads
    // ------------------------------------------------------------------

    /// Query many vertices in one sweep ([`Reader::read`] with
    /// `min_run` 0): one `QUERY_BATCH` round trip per distinct primary
    /// agent, all in flight together and encoded, sent and decoded on
    /// the caller's thread. Answers come back in the order asked;
    /// `None` marks a vertex the primary authoritatively does not hold
    /// (never created, or deleted), a vertex with no completed-run
    /// snapshot yet, or an unreachable agent.
    ///
    /// Every `Some` in the slice an agent answered shares that agent's
    /// single `(run, watermark)` snapshot tag: a batch can straddle
    /// agents (and therefore runs, briefly, while a flip propagates),
    /// but never a superstep.
    pub fn query_batch(&self, vertices: &[VertexId]) -> Vec<Option<SnapshotValue>> {
        self.reader.read(vertices, 0)
    }

    // ------------------------------------------------------------------
    // Standing subscriptions
    // ------------------------------------------------------------------

    /// The client's push mailbox, bound on first use.
    fn mailbox_addr(&mut self) -> Result<Addr, NetError> {
        if self.mailbox.is_none() {
            let seq = CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
            let addr = Addr::parse(&format!(
                "inproc://query-client-{}-{seq}",
                std::process::id()
            ))
            .map_err(|_| NetError::Protocol("bad client mailbox addr"))?;
            self.mailbox = Some(self.transport.bind(&addr)?);
        }
        Ok(self.mailbox.as_ref().expect("just bound").addr().clone())
    }

    /// Register a standing subscription for `vertices` and return its
    /// id. Every agent learns the interest set; after each completed
    /// run, each watched vertex's *primary* pushes the vertices whose
    /// snapshot value changed (the first completed run pushes
    /// everything watched, since every value is new).
    pub fn subscribe(&mut self, vertices: &[VertexId]) -> Result<u64, NetError> {
        let addr = self.mailbox_addr()?;
        let sub = self.next_sub;
        self.next_sub += 1;
        let reg = SubReg {
            addr,
            sub,
            vertices: vertices.to_vec(),
        };
        for rep in self.register(&[reg.encode()]) {
            if rep?.packet_type() != packet::OK {
                return Err(NetError::Protocol("subscription refused"));
            }
        }
        self.subs.insert(sub, reg.vertices);
        Ok(sub)
    }

    /// Cancel a subscription (an empty vertex set is the cancel form
    /// on the wire).
    pub fn unsubscribe(&mut self, sub: u64) -> Result<(), NetError> {
        if self.subs.remove(&sub).is_none() {
            return Ok(());
        }
        let (addr, vertices) = (self.mailbox_addr()?, Vec::new());
        let _ = self.register(&[SubReg {
            addr,
            sub,
            vertices,
        }
        .encode()]);
        Ok(())
    }

    /// Drain every subscription update currently queued, waiting up to
    /// `wait` for the first one. Updates arrive coalesced (many
    /// records per frame) and are flattened here, in the order pushed.
    pub fn poll_updates(&mut self, wait: Duration) -> Vec<SubUpdate> {
        let Some(mb) = self.mailbox.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut next = mb.recv_timeout(wait).ok();
        while let Some(d) = next {
            if let Some(push) = msg::decode_sub_push(&d.frame) {
                out.extend(push.records.iter().map(|(vertex, state)| SubUpdate {
                    sub: push.sub,
                    vertex,
                    state,
                    run: push.run,
                    watermark: push.watermark,
                }));
            }
            next = mb.try_recv().ok().flatten();
        }
        out
    }

    /// Updates for one subscription, keeping only the newest value per
    /// vertex (pushes from successive runs may be queued together).
    pub fn latest_for(&mut self, sub: u64, wait: Duration) -> HashMap<VertexId, SnapshotValue> {
        let mut latest: HashMap<VertexId, SnapshotValue> = HashMap::new();
        for u in self.poll_updates(wait).into_iter().filter(|u| u.sub == sub) {
            let (state, run, watermark) = (u.state, u.run, u.watermark);
            let snap = SnapshotValue {
                state,
                run,
                watermark,
            };
            let kept = latest.entry(u.vertex).or_insert(snap);
            if run >= kept.run {
                *kept = snap;
            }
        }
        latest
    }
}
