//! Streamers: the entities that feed graph changes into ElGA (paper
//! §3.1: "Streamers send graph updates to Agents").
//!
//! A streamer batches a turnstile change stream. Per batch it asks the
//! lead one short question — the batch clock ticks, and the answer says
//! whether the epoch it routes by is still current — then routes each
//! change to *both* of its placements: the out-edge record to
//! `owner(src, dst)` and the in-edge record to `owner(dst, src)`
//! (Figure 3).
//!
//! A streamer counts no degrees. Whether a change moves one depends on
//! what the agents hold (an insert of a present edge or a delete of an
//! absent one moves nothing), so the agents that apply the changes
//! count them and push them to the lead, which folds them into the
//! view's count-min sketch — the constant-size global state that drives
//! replication decisions.
//!
//! An ingest batch is not a view change. The streamer keeps everything
//! it routes by — view, outboxes, owner memo — across batches; only a
//! new view epoch (membership, ring parameters, or a fold that moved
//! some sketch counter across a replication-factor boundary) replaces
//! them, and that epoch opens after the batch that caused it was
//! applied.

use crate::config::SystemConfig;
use crate::directory::fetch_view;
use crate::msg::{self, packet, DirectoryView, Message, Side};
use crate::outboxes::Outboxes;
use elga_graph::types::EdgeChange;
use elga_graph::ChangeLog;
use elga_hash::{AgentId, EdgeLocator, FxHashMap, OwnerCache};
use elga_net::{Addr, Frame, NetError, Transport, TransportExt};
use elga_trace::{EventKind, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Changes routed per pass of [`Streamer::route_block`]: bounds the
/// scratch a batch of any size keeps (56 KiB) and keeps it in cache
/// between the resolve and the copy into frames.
const ROUTE_BLOCK: usize = 1024;

/// Reusable buffers of [`Streamer::route_block`]: cleared, not dropped,
/// so steady-state routing allocates nothing but the frames.
#[derive(Default)]
struct RouteScratch {
    /// The block's placements on one side, `(key, other)`.
    pairs: Vec<(u64, u64)>,
    /// Their owners, index for index.
    owners: Vec<Option<AgentId>>,
    /// The block's records per destination.
    batches: FxHashMap<AgentId, Vec<EdgeChange>>,
}

/// A streaming ingest client.
pub struct Streamer {
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    directory: Addr,
    view: DirectoryView,
    locator: EdgeLocator,
    /// Per-agent coalescing outboxes: each destination's records go in
    /// as one run per placement side and leave in large frames, the
    /// last one at the end of every routed batch.
    outboxes: Outboxes,
    scratch: RouteScratch,
    /// What recovery replays, whole, so edges lost with a dead agent
    /// come back: each edge's last change since the oldest retained
    /// checkpoint (or since the empty graph), plus the changes since
    /// the last compaction. Its end is the lifetime count of ingested
    /// records, where checkpoint watermarks are cut.
    log: ChangeLog,
    /// Owner memo: each distinct source vertex is hashed and estimated
    /// once, and checked against the ring once per membership change,
    /// instead of once per edge.
    cache: OwnerCache,
    /// Event recorder (view adoption, recovery replay, coalescer
    /// flushes); disabled unless `cfg.tracing`.
    tracer: Arc<Tracer>,
    /// Records routed to each agent, ever.
    sent: BTreeMap<AgentId, u64>,
}

impl Streamer {
    /// Connect to the system through a directory address.
    pub fn connect(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        directory: Addr,
    ) -> Result<Streamer, NetError> {
        let view = fetch_view(&*transport, &cfg, &directory)?;
        let locator = view.locator();
        let mut cache = OwnerCache::new();
        view.advance_memo(&mut cache);
        let tracer = Arc::new(Tracer::from_flag(cfg.tracing));
        Ok(Streamer {
            outboxes: Outboxes::new(transport.clone(), cfg.send_policy, &tracer, None),
            transport,
            cfg,
            directory,
            view,
            locator,
            scratch: RouteScratch::default(),
            log: ChangeLog::default(),
            cache,
            tracer,
            sent: BTreeMap::new(),
        })
    }

    /// The records this streamer has routed to each agent: what a
    /// `quiesce` asks each to have taken in first.
    pub fn sent(&self) -> &BTreeMap<AgentId, u64> {
        &self.sent
    }

    /// The streamer's event recorder; the cluster drains it directly
    /// when collecting traces (streamers have no mailbox to query).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The streamer's current view of the system.
    pub fn view(&self) -> &DirectoryView {
        &self.view
    }

    /// Refresh the view from the directory.
    pub fn refresh(&mut self) -> Result<(), NetError> {
        self.adopt(fetch_view(&*self.transport, &self.cfg, &self.directory)?);
        Ok(())
    }

    /// Adopt a newer view: the locator and the owner memo follow it, so
    /// the memo's epoch is the view's wherever `route` looks. One of
    /// the epoch already held is no news: under one epoch every sketch
    /// places every vertex alike, and keeping ours keeps the memo
    /// consistent with it.
    fn adopt(&mut self, view: DirectoryView) {
        if view.epoch > self.view.epoch {
            self.view = view;
            self.locator = self.view.locator();
            self.view.advance_memo(&mut self.cache);
            self.tracer.instant(
                EventKind::ViewAdopt,
                self.view.epoch,
                self.view.agents.len() as u64,
            );
            // Outboxes are always flushed by the end of route(), so
            // dropping them here cannot strand records.
            self.outboxes.discard();
        }
    }

    /// Send one batch of changes: tick the lead's batch clock, follow
    /// it to a new view if there is one, and route every change to both
    /// placements. Returns the number of change records pushed (2× the
    /// batch size: one out-placement and one in-placement each).
    pub fn send_batch(&mut self, changes: &[EdgeChange]) -> Result<usize, NetError> {
        if changes.is_empty() {
            return Ok(0);
        }
        // 1. The batch clock, and the view only if ours is stale: an
        //    `OK(epoch)` says whatever we route by stands.
        let ask = Frame::builder(packet::GET_VIEW)
            .u64(self.view.epoch)
            .finish();
        let (rep, _) = self.transport.request_with_retry(
            &self.directory,
            ask,
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        )?;
        if let Some(view) = DirectoryView::decode(&rep) {
            self.adopt(view);
        }

        // 2. Route each change to both placements, then log the batch:
        //    a compaction the records set off runs while the agents
        //    apply them.
        let pushed = self.route(changes);
        self.log.extend(changes);
        Ok(pushed)
    }

    /// The retained change log. Its [`end`](ChangeLog::end) is the
    /// lifetime count of ingested records, where checkpoint watermarks
    /// are cut; its [`base`](ChangeLog::base) is the point a replay
    /// starts from — 0, the empty graph, until a checkpoint commits,
    /// then the oldest retained generation's watermark.
    pub fn log(&self) -> &ChangeLog {
        &self.log
    }

    /// A checkpoint at the log's end has committed and `oldest` is the
    /// oldest retained generation's watermark: move the log's base
    /// there (see [`ChangeLog::truncate`]).
    pub fn truncate_log(&mut self, oldest: u64) {
        self.log.truncate(oldest);
    }

    /// Lifetime owner-cache counters `(hits, misses)` for this
    /// streamer's ingest routing.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Re-route the whole change log after a recovery reset: onto
    /// empty agents while its base is 0, onto the generation the
    /// driver restored after that. The reset wipes every survivor
    /// regardless of execution mode, so the driver replays this log
    /// before restarting either a synchronous or an asynchronous run.
    ///
    /// The records are not re-logged. The reset zeroed the lead's
    /// sketch, so they are routed by what the agents have counted since
    /// (the restored generation, if there is one); the agents count
    /// what the replay applies, and a vertex it takes over the
    /// threshold is re-placed at the epoch their counts open. Returns
    /// the number of change records replayed.
    ///
    /// The log is decoded and routed one block at a time through a
    /// reused scratch, so a replay holds one block decoded, never the
    /// whole log. One `route` per block keeps the per-destination
    /// ordering that per-batch `send_batch` calls gave: each
    /// destination gets a block's out-placement records, then its
    /// in-placement records, each in log order, and every block's
    /// before the next one's.
    pub fn replay(&mut self) -> Result<usize, NetError> {
        let t0 = Instant::now();
        self.refresh()?;
        let log = std::mem::take(&mut self.log);
        let mut pushed = 0;
        let replayed = log.decode(|block| pushed += self.route(block));
        self.log = log;
        self.tracer
            .span(EventKind::RecoveryReplay, t0, replayed, pushed as u64);
        Ok(replayed as usize)
    }

    /// Route each change to its two placements: the out-edge record to
    /// `owner(src, dst)` and the in-edge record to `owner(dst, src)`.
    /// Every destination gets its out-placement records first, then its
    /// in-placement records, each in batch order.
    fn route(&mut self, changes: &[EdgeChange]) -> usize {
        let mut pushed = 0;
        for side in [Side::Out, Side::In] {
            for block in changes.chunks(ROUTE_BLOCK) {
                pushed += self.route_block(side, block);
            }
        }
        // A routed batch must be on the wire when send_batch returns:
        // callers quiesce against the agents right after, and records
        // parked in open frames would be invisible to them.
        self.outboxes.flush(&self.view);
        pushed
    }

    /// Resolve one block's placements on `side` and append each
    /// destination's records to its open EDGE_CHANGES frame.
    fn route_block(&mut self, side: Side, block: &[EdgeChange]) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        let RouteScratch {
            pairs,
            owners,
            batches,
        } = &mut scratch;
        pairs.clear();
        pairs.extend(block.iter().map(|c| match side {
            Side::Out => (c.edge.src, c.edge.dst),
            Side::In => (c.edge.dst, c.edge.src),
        }));
        owners.clear();
        let sketch = &self.view.sketch;
        // Batched resolution: each distinct key vertex is hashed and
        // sketch-estimated once per view epoch.
        self.cache
            .resolve_many(&self.locator, pairs, |u| sketch.estimate(u), owners);
        for (&c, owner) in block.iter().zip(owners.iter()) {
            if let Some(owner) = owner {
                batches.entry(*owner).or_default().push(c);
            }
        }
        let mut pushed = 0;
        for (&agent, recs) in batches.iter_mut().filter(|(_, r)| !r.is_empty()) {
            pushed += recs.len();
            *self.sent.entry(agent).or_default() += recs.len() as u64;
            self.outboxes.with(agent, &self.view, |out| {
                msg::append_edge_changes(out, side, 0, recs)
            });
            recs.clear();
        }
        self.scratch = scratch;
        pushed
    }
}
