//! ClientProxies: the query path (paper §3.1: "ClientProxies proxy
//! end-user queries to Agents to receive algorithm results").
//!
//! Queries are ElGA's low-latency REQ/REP traffic (§3.5). A query for
//! vertex `v` goes to one of `v`'s replicas — "if only *some* Agent
//! responsible for the vertex is required, e.g., for a vertex query,
//! then the last consistent hash is bypassed and one replica is chosen
//! at random" (§3.4.1) — with a fallback to the primary, which always
//! holds the authoritative state.
//!
//! Answers are *snapshot-consistent*: agents serve a double-buffered
//! copy of the last completed run's values, tagged with that run's id
//! and the ingest batches folded before it was launched, so a
//! reader never observes torn mid-superstep state. An agent's answer
//! is one of three things — a hit, a non-authoritative miss ("no
//! snapshot here, try another replica"), or an *authoritative*
//! negative from the vertex's primary ("this vertex does not exist"),
//! which short-circuits the replica walk instead of burning a view
//! refresh and another round of requests on a vertex that was never
//! there.

use crate::config::SystemConfig;
use crate::msg::{self, packet, DirectoryView};
use elga_graph::types::VertexId;
use elga_hash::EdgeLocator;
use elga_net::{Addr, Frame, NetError, Transport, TransportExt};
use std::sync::Arc;

/// The result of a vertex query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryResult {
    /// Encoded program state (decode with the algorithm's `decode`).
    pub state: u64,
    /// The ingest batch watermark of the served snapshot: the batches
    /// folded before its run was launched — the staleness handle of
    /// Definition 2.6.
    pub batch_id: u64,
    /// Id of the completed run the snapshot belongs to (0 when the
    /// values were restored from a checkpoint, whose run id went
    /// unrecorded).
    pub run: u64,
}

/// One agent's answer to a point query, before the walk policy is
/// applied.
enum AgentAnswer {
    /// Transport failure or undecodable reply: try another replica.
    Unreachable,
    /// The agent holds no snapshot for the vertex (not authoritative).
    Miss,
    /// The vertex's primary says it does not exist: stop searching.
    Gone,
    Hit(QueryResult),
}

/// A query client.
pub struct ClientProxy {
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    directory: Addr,
    view: DirectoryView,
    locator: EdgeLocator,
    salt: u64,
}

impl ClientProxy {
    /// Connect through a directory address.
    pub fn connect(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        directory: Addr,
    ) -> Result<ClientProxy, NetError> {
        let rep = transport.request(
            &directory,
            Frame::signal(packet::GET_VIEW),
            cfg.request_timeout,
        )?;
        let view = DirectoryView::decode(&rep).ok_or(NetError::Protocol("bad view"))?;
        let locator = view.locator();
        Ok(ClientProxy {
            transport,
            cfg,
            directory,
            view,
            locator,
            salt: 0,
        })
    }

    /// Refresh the view (after elasticity events).
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
        Ok(())
    }

    /// The proxy's current view.
    pub fn view(&self) -> &DirectoryView {
        &self.view
    }

    fn query_agent(&self, agent: elga_hash::AgentId, v: VertexId) -> AgentAnswer {
        let Some(addr) = self.view.addr_of(agent).cloned() else {
            return AgentAnswer::Unreachable;
        };
        let Ok((rep, _)) = self.transport.request_with_retry(
            &addr,
            Frame::builder(packet::QUERY).u64(v).finish(),
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        ) else {
            return AgentAnswer::Unreachable;
        };
        let mut r = rep.reader();
        let (Some(found), Some(state), Some(batch_id), Some(run)) =
            (r.u8(), r.u64(), r.u64(), r.u64())
        else {
            return AgentAnswer::Unreachable;
        };
        match found {
            msg::ANSWER_HIT => AgentAnswer::Hit(QueryResult {
                state,
                batch_id,
                run,
            }),
            msg::ANSWER_GONE => AgentAnswer::Gone,
            _ => AgentAnswer::Miss,
        }
    }

    /// Query a random replica of `v` (the paper's fast path), walking
    /// the remaining replicas when it is unreachable or has no state
    /// yet, and finally refreshing the view once and retrying the
    /// adopted primary before giving up. An authoritative negative
    /// from the primary ends the walk immediately.
    pub fn query(&mut self, v: VertexId) -> Option<QueryResult> {
        self.salt = self.salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let est = self.view.sketch.estimate(v);
        let sampled = self.locator.any_replica(v, est, self.salt)?;
        match self.query_agent(sampled, v) {
            AgentAnswer::Hit(r) => return Some(r),
            AgentAnswer::Gone => return None,
            _ => {}
        }
        // Walk the rest of the replica set, ending on the primary —
        // it always holds the authoritative state.
        let mut candidates: Vec<elga_hash::AgentId> = self
            .locator
            .replicas_of_vertex(v, est)
            .into_iter()
            .filter(|&a| a != sampled)
            .collect();
        if let Some(primary) = self.locator.ring().owner(v) {
            candidates.retain(|&a| a != primary);
            if primary != sampled {
                candidates.push(primary);
            }
        }
        for agent in candidates {
            match self.query_agent(agent, v) {
                AgentAnswer::Hit(r) => return Some(r),
                AgentAnswer::Gone => return None,
                _ => {}
            }
        }
        // Every replica under the cached view failed or had no
        // snapshot: the view may be stale (agents joined, left, or
        // were evicted). Refresh once and ask the adopted primary.
        self.refresh().ok()?;
        let primary = self.locator.ring().owner(v)?;
        match self.query_agent(primary, v) {
            AgentAnswer::Hit(r) => Some(r),
            _ => None,
        }
    }

    /// Query the primary replica directly (authoritative state; used
    /// by the correctness tests).
    pub fn query_primary(&self, v: VertexId) -> Option<QueryResult> {
        let primary = self.locator.ring().owner(v)?;
        match self.query_agent(primary, v) {
            AgentAnswer::Hit(r) => Some(r),
            _ => None,
        }
    }
}
