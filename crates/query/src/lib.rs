//! Continuous-query serving plane.
//!
//! The paper's low-latency client path (§3.5) asks one vertex per
//! blocking round trip; here a read is always a `QUERY_BATCH`
//! (`elga_core::cluster::Cluster::query_u64` is a batch of one). This
//! crate is the front for *serving workloads*: many clients, many
//! vertices per question, answers flowing continuously as the graph
//! computes. Three mechanisms, all riding the existing comms plane:
//!
//! * **Batched point reads.** [`QueryClient::query_batch`] groups the
//!   asked vertices by primary agent, ships one `QUERY_BATCH` frame
//!   per agent (borrowed-view wire records, zero-copy decode on the
//!   agent), and has the per-agent requests in flight together — one
//!   scatter–gather on the caller's thread, one round trip per
//!   *agent*, not per vertex.
//! * **Standing subscriptions.** [`QueryClient::subscribe`] registers
//!   vertex interest with every agent; after each completed run the
//!   vertices' primaries push only the values that changed, coalesced
//!   per client through the same credit/backpressure-bounded
//!   [`elga_net::CoalescingOutbox`] the data plane uses. Polling
//!   becomes push.
//! * **Snapshot consistency.** Agents double-buffer the last
//!   *completed* run's values and serve queries exclusively from that
//!   buffer, tagged with the run id and the ingest batch watermark it
//!   was taken at. A reader never observes torn mid-superstep state —
//!   across live runs, elastic view changes, and crash recovery.
//!
//! Query traffic is uncounted in the Mattern barrier sums, so serving
//! load never perturbs run termination.

#![warn(missing_docs)]

use elga_core::config::SystemConfig;
use elga_core::msg::{self, packet, DirectoryView, Message, SubReg};
use elga_graph::types::VertexId;
use elga_hash::{AgentId, EdgeLocator};
use elga_net::{Addr, Frame, Mailbox, NetError, Transport, TransportExt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One served value: the snapshot the answering agent holds for the
/// vertex, plus the consistency tag identifying which completed run
/// (and which ingest watermark) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotValue {
    /// Encoded program state (decode with the algorithm's `decode`).
    pub state: u64,
    /// Id of the completed run the snapshot was taken from (0 when the
    /// values were restored from a checkpoint, whose run id went
    /// unrecorded).
    pub run: u64,
    /// The snapshot's ingest batch watermark: the batches folded before
    /// its run was launched, the same on every agent — the staleness
    /// handle of Definition 2.6.
    pub watermark: u64,
}

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
    directory: Addr,
    view: DirectoryView,
    locator: EdgeLocator,
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
        let rep = transport.request(
            &directory,
            Frame::signal(packet::GET_VIEW),
            cfg.request_timeout,
        )?;
        let view = DirectoryView::decode(&rep).ok_or(NetError::Protocol("bad view"))?;
        let locator = view.locator();
        Ok(QueryClient {
            transport,
            cfg,
            directory,
            view,
            locator,
            mailbox: None,
            subs: HashMap::new(),
            next_sub: 1,
        })
    }

    /// Refresh the view (after elasticity events) and replay every
    /// standing subscription at the agents of the new view, so vertex
    /// interest follows primaryship.
    pub fn refresh(&mut self) -> Result<(), NetError> {
        let (rep, _) = self.transport.request_with_retry(
            &self.directory,
            Frame::signal(packet::GET_VIEW),
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        )?;
        let view = DirectoryView::decode(&rep).ok_or(NetError::Protocol("bad view"))?;
        if view.epoch >= self.view.epoch {
            self.locator = view.locator();
            self.view = view;
        }
        if let Some(addr) = self.mailbox.as_ref().map(|m| m.addr().clone()) {
            let frames: Vec<Frame> = self
                .subs
                .iter()
                .map(|(&sub, vertices)| {
                    let vertices = vertices.clone();
                    SubReg {
                        addr: addr.clone(),
                        sub,
                        vertices,
                    }
                    .encode()
                })
                .collect();
            let _ = self.register(&frames);
        }
        Ok(())
    }

    /// Send every registration frame to every agent of the view, all
    /// in one scatter–gather; replies agent-major, in `frames` order.
    fn register(&self, frames: &[Frame]) -> Vec<Result<Frame, NetError>> {
        let requests: Vec<(&Addr, Frame)> = self
            .view
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

    /// The client's current view.
    pub fn view(&self) -> &DirectoryView {
        &self.view
    }

    // ------------------------------------------------------------------
    // Batched point reads
    // ------------------------------------------------------------------

    /// Query many vertices in one sweep: one `QUERY_BATCH` round trip
    /// per distinct primary agent, all in flight together
    /// ([`Transport::request_all`]) and encoded, sent and decoded on
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
        let mut answers: Vec<Option<SnapshotValue>> = vec![None; vertices.len()];
        // Group positions by primary agent.
        let mut by_agent: HashMap<AgentId, Vec<usize>> = HashMap::new();
        for (i, &v) in vertices.iter().enumerate() {
            if let Some(primary) = self.locator.ring().owner(v) {
                by_agent.entry(primary).or_default().push(i);
            }
        }
        // One REQ per agent, all in flight at once.
        let groups: Vec<(&Addr, Vec<usize>)> = by_agent
            .into_iter()
            .filter_map(|(agent, positions)| Some((self.view.addr_of(agent)?, positions)))
            .collect();
        let requests: Vec<(&Addr, Frame)> = groups
            .iter()
            .map(|(addr, positions)| {
                let asked: Vec<VertexId> = positions.iter().map(|&i| vertices[i]).collect();
                (*addr, msg::encode_query_batch(&asked))
            })
            .collect();
        let replies = self.transport.request_all_with_retry(
            &requests,
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        );
        for ((_, positions), reply) in groups.iter().zip(replies) {
            // An unreachable agent or a malformed reply leaves its
            // slice unanswered.
            let Ok(reply) = reply else { continue };
            let Some(msg::QueryReplyView {
                run,
                watermark,
                records: recs,
            }) = msg::decode_query_batch_rep(&reply)
            else {
                continue;
            };
            if recs.len() != positions.len() {
                continue;
            }
            for (&i, a) in positions.iter().zip(recs.iter()) {
                if a.found == msg::ANSWER_HIT {
                    answers[i] = Some(SnapshotValue {
                        state: a.state,
                        run,
                        watermark,
                    });
                }
            }
        }
        answers
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
        let addr = self.mailbox_addr()?;
        let vertices = Vec::new();
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
        let mut first = true;
        loop {
            let d = if first {
                match mb.recv_timeout(wait) {
                    Ok(d) => d,
                    Err(_) => break,
                }
            } else {
                match mb.try_recv() {
                    Ok(Some(d)) => d,
                    _ => break,
                }
            };
            first = false;
            if d.frame.packet_type() != packet::SUB_PUSH {
                continue;
            }
            let Some(msg::SubPushView {
                sub,
                run,
                watermark,
                records: recs,
            }) = msg::decode_sub_push(&d.frame)
            else {
                continue;
            };
            for (vertex, state) in recs.iter() {
                out.push(SubUpdate {
                    sub,
                    vertex,
                    state,
                    run,
                    watermark,
                });
            }
        }
        out
    }

    /// Updates for one subscription, keeping only the newest value per
    /// vertex (pushes from successive runs may be queued together).
    pub fn latest_for(&mut self, sub: u64, wait: Duration) -> HashMap<VertexId, SnapshotValue> {
        let mut latest: HashMap<VertexId, SnapshotValue> = HashMap::new();
        for u in self.poll_updates(wait) {
            if u.sub != sub {
                continue;
            }
            let e = latest.entry(u.vertex).or_insert(SnapshotValue {
                state: u.state,
                run: u.run,
                watermark: u.watermark,
            });
            if u.run >= e.run {
                *e = SnapshotValue {
                    state: u.state,
                    run: u.run,
                    watermark: u.watermark,
                };
            }
        }
        latest
    }
}
