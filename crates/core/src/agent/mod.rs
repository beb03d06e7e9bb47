//! Agents: the single-threaded participants that hold the graph and
//! run vertex programs (paper §3.4).
//!
//! "Agents are responsible for holding the graph in memory and carrying
//! out the computation on the graph. ... They operate as a state
//! machine and, during computation, either execute the algorithms on
//! their vertices, send updates to other Agents, or receive updates
//! from Agents. They continuously poll on their communication channel
//! and act on whatever packet they receive."
//!
//! Key behaviors reproduced from the paper:
//!
//! * **Ownership checks and forwarding** — every received edge change
//!   is re-validated against the current view; wrong-destination
//!   packets are "forwarded to the latest, correct Agent".
//! * **Buffering** — vertex messages for future phases are stored
//!   "until the computation can catch up"; edge changes arriving while
//!   a batch algorithm runs are buffered and applied afterwards.
//! * **Migration** — on any view change the agent recomputes "the
//!   correct destination for all current edges" and forwards misplaced
//!   ones; when leaving, it drains everything and only disconnects
//!   after the directory confirms.
//! * **Replication** — high-degree vertices are split: each replica
//!   holds a slice of the vertex's edges, pre-aggregates its incoming
//!   messages, and synchronizes state with the primary between
//!   supersteps.
//!
//! The module is organized by concern; this file holds the state
//! machine (join, dispatch, run lifecycle) and the submodules hold the
//! rest:
//!
//! * [`comms`] — the send side: phase-end flushes of the outbox set,
//!   READY reports, degree and metrics pushes.
//! * [`ingest`] — graph changes: edge insert and removal, change
//!   application and forwarding, degree deltas.
//! * [`superstep`] — the sync phase kernels (scatter/combine/apply),
//!   run shard by shard on the agent thread, and the async
//!   event-driven mode.
//! * [`migrate`] — view adoption and vertex migration.
//! * [`recovery`] — the clock ([`Agent::on_tick`]: METRICS, the
//!   liveness push, once per heartbeat interval) and the peer-loss
//!   reset.

mod checkpoint;
mod comms;
mod ingest;
mod migrate;
mod recovery;
mod superstep;

use crate::adjacency::Adjacency;
use crate::config::SystemConfig;
use crate::directory::{agent_addr, bus_addr};
use crate::metrics::{AgentMetrics, CommsMetrics};
use crate::msg::{
    self, packet, AgentInfo, Counters, DirectoryView, Message, Phase, ReadyReport, Rows, RunInfo,
    Side, StateRecord,
};
use crate::outboxes::Outboxes;
use crate::program::{dispatch, DeltaKind, Program, ProgramSpec, VertexCtx, VertexProgram};
use crate::store::{Shard, VertexStore, Worklists, SHARDS};
use crate::targets::{EdgeSlots, TargetTable, NO_SLOT};
use elga_graph::types::{Action, EdgeChange, VertexId};
use elga_hash::{AgentId, EdgeLocator, FxHashMap, FxHashSet, OwnerCache};
use elga_net::{
    Addr, CoalesceConfig, CoalescingOutbox, Delivery, Frame, NetError, NetStats, Outbox,
    ReplyHandle, Transport, TransportExt,
};
use elga_sketch::{CountMinSketch, SketchDelta};
use elga_trace::{EventKind, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ingest::IngestScratch;
use superstep::StepScratch;

/// Most deliveries [`Agent::serve_reads`] parks before it stops looking
/// at the mailbox: at full ~60 KiB frames, one sender's 16 MiB credit.
const MAX_PARKED: usize = 256;

/// Forwarding hop cap (views converge long before this).
const MAX_HOPS: u8 = 64;

/// Per-vertex data held by an agent. One entry serves all three roles
/// a vertex can have here: replica (edges + state copy), aggregation
/// target (partials), and primary (authoritative meta).
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct VertexEntry {
    /// Local out- and in-edges (this agent owns their out- and
    /// in-placements). Its mutators take the store's tally
    /// ([`VertexStore::entry_parts`]).
    pub(crate) adj: Adjacency,
    /// Replica state copy (from STATE broadcasts or local apply).
    pub(crate) state: u64,
    /// Whether `state` is initialized.
    pub(crate) has_state: bool,
    /// Replica copy of the global out-degree.
    pub(crate) rep_out_degree: u64,
    /// Active for the next scatter.
    pub(crate) active: bool,
    /// Scatter-phase partial aggregate.
    pub(crate) partial: u64,
    pub(crate) has_partial: bool,
    /// Combine-phase aggregate (primary side).
    pub(crate) ppartial: u64,
    pub(crate) has_ppartial: bool,
    /// §3.2 waiting set (async): messages collected so far toward the
    /// program's `waits_for` requirement.
    pub(crate) wait_recv: u64,
    /// Primary-only: authoritative global degrees.
    pub(crate) g_out: i64,
    pub(crate) g_in: i64,
    /// Primary-only: this agent holds the vertex's meta record.
    pub(crate) is_meta: bool,
    /// Primary-only: touched by changes since the last run.
    pub(crate) dirty: bool,
    /// Primary-only: unapplied residual of the incremental (delta)
    /// formulation. Accumulated by ingest-time corrections between
    /// runs, folded into `state` during a delta run, and carried across
    /// runs when it stays below the program's tolerance.
    pub(crate) residual: u64,
    pub(crate) has_residual: bool,
    /// Replica-side: the applied delta broadcast by the primary in the
    /// last STATE record, to be pushed along local out-edges at the
    /// next scatter. Transient within a sync delta superstep.
    pub(crate) pending_delta: u64,
    pub(crate) has_pending_delta: bool,
    /// Double-buffered copy of `state` taken when the last run
    /// *completed*. Queries serve this buffer, never the live `state`,
    /// so readers cannot observe torn mid-superstep values while the
    /// next run is writing. Tagged agent-wide by
    /// [`Agent::snap_run`] / [`Agent::snap_watermark`].
    pub(crate) snap: u64,
    pub(crate) has_snap: bool,
    /// The edge memo: the [`TargetTable`] row each local edge's
    /// message lands in, for a prefix of the out-list and then the
    /// in-list. The adjacency mutators in `ingest` patch it in step with
    /// the lists (lengths alone prove nothing: a delete then an insert
    /// keeps them), scatter fills the tail of each side that fires, and
    /// a table generation other than `placed` outdates it.
    pub(crate) slots: EdgeSlots,
    /// The table generation `slots` and `home` were computed under.
    pub(crate) placed: u32,
    /// The placement stamp: the vertex is unsplit with its primary at
    /// this agent — its PARTIAL and STATE records are all its own, no
    /// lookup needed. Anything else (split, foreign, a husk) reads
    /// false and asks the owner cache.
    pub(crate) home: bool,
}

impl VertexEntry {
    /// Whether a kernel has stamped the vertex home under `generation`.
    #[inline]
    pub(crate) fn is_stamped_home(&self, generation: u32) -> bool {
        self.placed == generation && self.home
    }

    /// Whether the vertex is unsplit with its primary here. The first
    /// kernel to ask under `generation` brings the entry into it: the
    /// old edge memo is dropped and `resolve` says where the vertex
    /// lives now.
    #[inline]
    pub(crate) fn is_home(&mut self, generation: u32, resolve: impl FnOnce() -> bool) -> bool {
        if self.placed != generation {
            self.slots.clear();
            self.home = resolve();
            self.placed = generation;
        }
        self.home
    }

    /// Whether the apply kernel has work here that no message brought:
    /// a parked partial, or primary meta that step 0 activates (touched
    /// by changes) or initialises (no state yet).
    pub(crate) fn wants_apply(&self) -> bool {
        self.has_ppartial || self.is_meta && (self.dirty || !self.has_state)
    }

    fn is_empty(&self) -> bool {
        self.adj.is_empty()
            && !self.is_meta
            && !self.has_state
            && !self.has_partial
            && !self.has_ppartial
            && !self.has_residual
            && !self.has_pending_delta
            && !self.has_snap
    }
}

// Every resident vertex pays for its entry: let it grow on purpose only.
const _: () = assert!(std::mem::size_of::<VertexEntry>() <= 184);

/// One standing subscription (client-registered vertex interest).
/// Value deltas ride a dedicated per-client [`CoalescingOutbox`] — the
/// same credit/backpressure machinery as the agent planes — and are
/// UNCOUNTED: like queries, subscription traffic is client-plane and
/// must not move the channel counts.
struct Subscription {
    outbox: CoalescingOutbox,
    /// Each watched vertex and the served value last pushed for it.
    vertices: FxHashMap<VertexId, Option<u64>>,
}

/// An agent's thread: joined, the events left in its trace buffer.
pub type AgentThread = std::thread::JoinHandle<Vec<elga_trace::TraceEvent>>;

/// Per-run execution state.
struct AgentRun {
    info: RunInfo,
    program: Program,
    /// Latest directive from the directory.
    step: u32,
    phase: Phase,
    n_vertices: u64,
    global: f64,
    /// Async event-driven mode entered.
    async_live: bool,
    /// Async execution is paused for a mid-run view change: idle
    /// reports are suppressed (the migrate barrier is the one consuming
    /// READYs, and re-reports keep it fresh as counters move) until the
    /// directory re-publishes the async advance. Frames keep being
    /// processed — buffering them would strand counted sends and wedge
    /// the barrier's settled-counters check.
    paused: bool,
    /// Records the last sync phase put on the wire, per destination,
    /// sorted by it; the phase's READY takes it.
    sent: msg::StepCounts,
    /// `((step, phase), n)`: `n` records that `phase` of `step` sent
    /// from peers have been taken in — what an advance's expected count
    /// is held against. Counted at fold time, unlike the `*_recv`
    /// counters, which count a frame of a later phase on arrival.
    taken_in: ((u32, Phase), u64),
    /// An answer to a barrier that ran ahead of the last record frame
    /// it counts, released by the frame that completes the count, and
    /// a view that arrived behind it ([`Agent::take_view`]). Gone with
    /// the run, so an aborted run's advance never fires into its restart.
    parked_advance: Option<msg::Advance>,
    parked_view: Option<DirectoryView>,
}

impl AgentRun {
    /// Records of `(step, phase)` taken in from peers so far.
    fn taken_in(&self, key: (u32, Phase)) -> u64 {
        if self.taken_in.0 == key {
            self.taken_in.1
        } else {
            0
        }
    }
}

/// One ElGA agent. Spawned on its own thread by the cluster driver.
pub struct Agent {
    id: AgentId,
    cfg: SystemConfig,
    transport: Arc<dyn Transport>,
    mailbox: elga_net::Mailbox,
    dir_push: Outbox,
    view: DirectoryView,
    locator: EdgeLocator,
    /// Per-destination coalescing outboxes. Sends accumulate into at
    /// most one open frame per destination; phase boundaries flush.
    outboxes: Outboxes,
    /// This agent's own data-plane traffic accounting (per packet
    /// type). Distinct from the transport's cluster-wide `NetStats`:
    /// every in-process participant shares that transport, so only a
    /// per-agent sink attributes traffic to its sender/receiver.
    net: Arc<NetStats>,
    vertices: VertexStore,
    /// The meta entries the adopted view's ring places here — the
    /// primary count every READY of a run reports. Kept where `is_meta`
    /// flips or the ring moves: MIG_VERTEX adoption, DEG_DELTA, the
    /// placement sweep, the recovery reset ([`Agent::recount_primaries`]
    /// is the walk it stands for).
    primaries: u64,
    /// Where each local edge's scatter message lands, and this step's
    /// combined value per destination row (agent thread only).
    targets: TargetTable,
    /// The agent's one owner memo: change apply, the superstep kernels,
    /// the placement sweep and the async handlers all ask it.
    route_cache: OwnerCache,
    scratch: StepScratch,
    ingest_scratch: IngestScratch,
    /// Degree changes applied since the last push to the directory:
    /// edge placements stored and removed, counted where the store said
    /// they happened, for the lead's sketch ([`Agent::push_degrees`]).
    degrees: SketchDelta,
    /// Per-vertex degree changes applied but not yet in `degrees`: the
    /// sketch rows are written once the mailbox drains, after the
    /// records the changes caused are on the wire
    /// ([`Agent::count_degrees`]).
    uncounted: Vec<(VertexId, i32)>,
    /// Counted records sent to and taken in from each peer (the lead's
    /// channel table, this agent's rows of it), and the rows as the lead
    /// was last told them: a report carries the ones that moved since.
    channels: BTreeMap<AgentId, Counters>,
    told: BTreeMap<AgentId, Counters>,
    /// Streamer records (EDGE_CHANGES at hop 0) taken in: uncounted in
    /// the channels, but a DRAIN can ask for a number of them first.
    streamed: u64,
    /// The lead's DRAIN, parked until this agent has taken in what its
    /// rows say was sent here; answered from [`Agent::on_idle`].
    drain: Option<Rows>,
    metrics: AgentMetrics,
    run: Option<AgentRun>,
    /// The worklists cannot be trusted: `begin_run` did not keep them
    /// (an async run never clears this), or entries were bulk-written
    /// outside the flag handlers (restore, label reset, recovery). Step
    /// 0's apply and the next scatter sweep, re-establishing them.
    needs_sweep: bool,
    /// The last residual-kind program, armed by `begin_run` and kept
    /// after the run finishes: between runs, ingest uses its
    /// `merge_residual`, `rescale_on_degree_change` and
    /// `edge_change_residual` to turn edge changes into residual
    /// corrections (§ DESIGN.md "Incremental execution"). Cleared by
    /// recovery resets and non-residual runs.
    delta_program: Option<Program>,
    /// The change in the sum of the primaries' states (delta engine)
    /// since the last `done`: folds, ingest-time rescales and vanished
    /// vertices. Every READY carries it; the lead adds the members'
    /// last reports to its sum S when it ends the run.
    unreported_sum: f64,
    /// Changes received while a run was active (§3.4: "While a batch is
    /// running, the graph does not change: any edge changes are
    /// buffered").
    buffered_changes: Vec<Frame>,
    /// Future-phase frames ("If it is for an iteration in the future,
    /// the packet is stored").
    buffered_frames: Vec<Frame>,
    /// Deliveries taken off the mailbox by [`Agent::serve_reads`] while
    /// it looked for reads mid-superstep, oldest first.
    parked: VecDeque<Delivery>,
    /// Reads that asked for the run this agent holds open, answered
    /// when it ends ([`Agent::answer_reads`]).
    reads: Vec<(Frame, ReplyHandle)>,
    /// The last READY sent; [`Agent::on_idle`] re-sends it when late
    /// counted frames moved the counts since.
    reported: Option<ReadyReport>,
    /// A live async run's next idle report is due even if no count
    /// moved since the last report.
    idle_owed: bool,
    departing: bool,
    /// Highest view epoch for which migration ran and was reported.
    migrated_epoch: u64,
    /// When [`Agent::on_tick`] last pushed METRICS, or the start.
    metrics_pushed: Instant,
    /// Event recorder (phase spans, view changes, migrations,
    /// recoveries). Disabled unless `cfg.tracing`; drained over the
    /// wire by TRACE_DUMP.
    tracer: Arc<Tracer>,
    /// Durable checkpoint store, opened at first use
    /// ([`Agent::ckpt_store`]).
    ckpt_store: Option<elga_ckpt::CheckpointStore>,
    /// The `(generation, shard)` pairs CKPT_LOAD merged since the last
    /// recovery reset, with their payload bytes: a retried request
    /// skips them.
    loaded: FxHashMap<(u64, AgentId), u64>,
    /// Run id of the last completed run whose states were copied into
    /// the per-vertex `snap` buffers (0 = no run completed here yet;
    /// restored checkpoints also report 0, their run id being
    /// unrecorded).
    snap_run: u64,
    /// Ingest batch watermark of that run: the batches the lead had
    /// folded when it launched it ([`RunInfo::watermark`]). Every query
    /// answer carries the `(snap_run, snap_watermark)` pair, so a
    /// client knows exactly which completed computation it read.
    snap_watermark: u64,
    /// Standing subscriptions by client-chosen id.
    subs: FxHashMap<u64, Subscription>,
    /// Reverse index: watched vertex → subscribing ids. Kept in sync
    /// with `subs` so the post-run push sweep costs O(changed ∩
    /// watched), not O(changed × subscriptions).
    watchers: FxHashMap<VertexId, Vec<u64>>,
}

impl Agent {
    /// Bind the mailbox, subscribe to the bus and join through the
    /// given directory, using the in-process address conventions.
    pub fn join(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        id: AgentId,
        directory: Addr,
    ) -> Result<Agent, NetError> {
        Agent::join_at(transport, cfg, id, agent_addr(id), directory, bus_addr())
    }

    /// Deployment-agnostic join: bind the mailbox at `addr` (for TCP,
    /// a concrete `tcp://host:port`), subscribe to the broadcast bus at
    /// `bus`, and register with `directory`. Returns the ready-to-run
    /// agent.
    pub fn join_at(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        id: AgentId,
        addr: Addr,
        directory: Addr,
        bus: Addr,
    ) -> Result<Agent, NetError> {
        let mailbox = transport.bind(&addr)?;
        let addr = mailbox.addr().clone();
        // Subscribe broadcasts into the mailbox *before* joining so no
        // VIEW/START/ADVANCE can be missed.
        transport.subscribe_forward(
            &bus,
            &[
                packet::VIEW,
                packet::ADVANCE,
                packet::START,
                packet::SHUTDOWN,
                packet::RESET_LABELS,
            ],
            &addr,
        )?;
        let join = AgentInfo { id, addr }.encode();
        let (reply, join_retries) = transport.request_with_retry(
            &directory,
            join,
            cfg.request_timeout,
            &cfg.send_policy,
        )?;
        let msg::JoinReply { view, run } =
            msg::JoinReply::decode(&reply).ok_or(NetError::Protocol("bad join reply"))?;
        let dir_push = transport.sender(&directory)?;
        let mut agent = Agent::new(transport, cfg, id, mailbox, dir_push, view, Instant::now());
        agent.metrics.retries_attempted = join_retries as u64;
        if let Some(info) = run {
            agent.begin_run(info);
        }
        // A view that names the joiner is the one its VIEW will open the
        // barrier with: holding nothing, it reports that migration now.
        if agent.view.addr_of(id).is_some() {
            let (epoch, members) = (agent.view.epoch, agent.view.agents.len() as u64);
            agent.tracer.instant(EventKind::ViewAdopt, epoch, members);
            agent.migrated_epoch = epoch;
            agent.migrate(epoch, migrate::Sweep::All(Vec::new()));
        }
        Ok(agent)
    }

    /// An agent holding nothing, under `view`, started at `now`; all
    /// I/O handles given.
    fn new(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        id: AgentId,
        mailbox: elga_net::Mailbox,
        dir_push: Outbox,
        view: DirectoryView,
        now: Instant,
    ) -> Agent {
        let locator = view.locator();
        let mut route_cache = OwnerCache::new();
        view.advance_memo(&mut route_cache);
        let degrees = SketchDelta::new(view.sketch.width(), view.sketch.depth());
        let tracer = Arc::new(Tracer::from_flag(cfg.tracing));
        let net = Arc::new(NetStats::default());
        Agent {
            id,
            cfg: cfg.clone(),
            outboxes: Outboxes::new(
                transport.clone(),
                cfg.send_policy,
                &tracer,
                Some((id, net.clone())),
            ),
            transport,
            mailbox,
            dir_push,
            view,
            locator,
            net,
            vertices: VertexStore::default(),
            primaries: 0,
            targets: TargetTable::new(id),
            route_cache,
            scratch: StepScratch::default(),
            ingest_scratch: IngestScratch::default(),
            degrees,
            uncounted: Vec::new(),
            channels: BTreeMap::new(),
            told: BTreeMap::new(),
            streamed: 0,
            drain: None,
            metrics: AgentMetrics {
                agent: id,
                ..Default::default()
            },
            run: None,
            // An empty store's lists are complete.
            needs_sweep: false,
            delta_program: None,
            unreported_sum: 0.0,
            buffered_changes: Vec::new(),
            buffered_frames: Vec::new(),
            parked: VecDeque::new(),
            reads: Vec::new(),
            reported: None,
            idle_owed: false,
            departing: false,
            migrated_epoch: 0,
            metrics_pushed: now,
            tracer,
            ckpt_store: None,
            loaded: FxHashMap::default(),
            snap_run: 0,
            snap_watermark: 0,
            subs: FxHashMap::default(),
            watchers: FxHashMap::default(),
        }
    }

    /// Spawn the agent's thread. Joined, it returns the events left in
    /// its trace buffer when it ended, a departer's last sweep included.
    pub fn spawn(self) -> AgentThread {
        Agent::on_thread(self.id, move || Some(self))
    }

    /// [`Agent::join`] on the agent's own thread, which then runs it as
    /// [`Agent::spawn`]'s does. Returns once the directory has answered
    /// the JOIN: the thread is up before the view it joins is
    /// published, and takes its first frames at once.
    pub fn spawn_join(
        transport: Arc<dyn Transport>,
        cfg: SystemConfig,
        id: AgentId,
        directory: Addr,
    ) -> Result<AgentThread, NetError> {
        let (joined, answer) = std::sync::mpsc::sync_channel(1);
        let thread = Agent::on_thread(id, move || {
            let (answer, agent) = match Agent::join(transport, cfg, id, directory) {
                Ok(agent) => (Ok(()), Some(agent)),
                Err(e) => (Err(e), None),
            };
            let _ = joined.send(answer);
            agent
        });
        match answer.recv().unwrap_or(Err(NetError::Disconnected)) {
            Ok(()) => Ok(thread),
            Err(e) => {
                let _ = thread.join();
                Err(e)
            }
        }
    }

    /// The thread `elga-agent-{id}` (a harness pins agents by that
    /// name), running the agent `make` returns, if any.
    fn on_thread(
        id: AgentId,
        make: impl FnOnce() -> Option<Agent> + Send + 'static,
    ) -> AgentThread {
        std::thread::Builder::new()
            .name(format!("elga-agent-{id}"))
            .spawn(move || {
                let Some(agent) = make() else {
                    return Vec::new();
                };
                let tracer = agent.tracer.clone();
                agent.run_loop();
                tracer.drain().0
            })
            .expect("spawn agent")
    }

    /// The agent's shell, as `directory::lead_loop` is the lead's: each
    /// frame goes to [`Agent::handle`], each drained mailbox to
    /// [`Agent::on_idle`], and the time after either to [`Agent::on_tick`].
    fn run_loop(mut self) {
        // Frames were handled since the last idle pass: drain without
        // waiting, so idle detection sees a truly empty mailbox. Frames
        // that keep arriving faster than a starved agent handles them
        // (the lead republishes an open barrier every heartbeat
        // interval) hold it here, ticking, past the eviction window.
        let mut draining = false;
        loop {
            // Frames parked by `serve_reads` arrived before anything
            // still in the mailbox. With own async work pending the
            // agent does not wait either: the next round is due.
            let next = match self.parked.pop_front() {
                Some(d) => Ok(Some(d)),
                None if draining || self.local_work() => self.mailbox.try_recv(),
                None => self
                    .mailbox
                    .recv_timeout(Duration::from_millis(20))
                    .map(Some),
            };
            match next {
                Ok(Some(d)) => {
                    if !self.handle(d) {
                        return;
                    }
                    draining = true;
                }
                Ok(None) | Err(NetError::Timeout) => {
                    self.on_idle();
                    draining = false;
                }
                Err(_) => return,
            }
            self.on_tick(Instant::now());
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, d: Delivery) -> bool {
        let frame = d.frame;
        self.net.record_recv(frame.packet_type(), frame.len());
        match frame.packet_type() {
            // A view already migrated for (a republished barrier-open,
            // or a joiner's own) is not decoded again.
            packet::VIEW if frame.reader().u64() > Some(self.migrated_epoch) => {
                if let Some(view) = DirectoryView::decode(&frame) {
                    return self.take_view(view);
                }
            }
            packet::START => {
                if let Some(info) = RunInfo::decode(&frame) {
                    self.begin_run(info);
                }
            }
            packet::ADVANCE => {
                if let Some(adv) = msg::Advance::decode(&frame) {
                    self.on_advance(adv);
                }
            }
            // Data-plane receives: time decode + consume together (a
            // borrowed view makes them inseparable) so the per-agent
            // cost of the hot path is observable as `decode_nanos`.
            packet::VMSG | packet::PARTIAL | packet::STATE => {
                self.timed_data_plane(frame, |a, f| a.take_records(f, true));
                self.release_parked_advance();
            }
            packet::EDGE_CHANGES => self.timed_data_plane(frame, Self::on_changes),
            packet::DEG_DELTA => self.timed_data_plane(frame, Self::on_deg_delta),
            packet::RESIDUAL => self.timed_data_plane(frame, Self::on_residual),
            packet::MIG_VERTEX => self.on_mig_vertex(frame),
            packet::CKPT_SAVE => self.on_ckpt_save(&frame, d.reply),
            packet::CKPT_LOAD => self.on_ckpt_load(&frame, d.reply),
            packet::RESET_LABELS => self.on_reset_labels(frame),
            packet::QUERY_BATCH => self.answer_read(frame, d.reply),
            packet::SUB_REG => {
                if let Some(reg) = msg::SubReg::decode(&frame) {
                    self.on_sub_reg(reg);
                    if let Some(reply) = d.reply {
                        let _ = reply.send(Frame::signal(packet::OK));
                    }
                }
            }
            packet::DUMP => {
                if let Some(reply) = d.reply {
                    let mut pairs: Vec<(VertexId, u64)> = Vec::new();
                    for (&v, e) in self.vertices.iter() {
                        if e.is_meta && e.has_snap && self.is_primary(v) {
                            pairs.push((v, e.snap));
                        }
                    }
                    let _ = reply.send(msg::encode_dump(&pairs));
                }
            }
            packet::DRAIN => match (msg::DrainReport::decode(&frame), d.reply) {
                // Asked directly: every row, once every counted record
                // is on the wire.
                (_, Some(reply)) => {
                    self.flush_outboxes();
                    let rows = self.channels.iter().map(|(&p, &c)| (p, c)).collect();
                    let report = msg::DrainReport {
                        agent: self.id,
                        epoch: self.view.epoch,
                        rows,
                    };
                    let _ = reply.send(report.encode());
                }
                (Some(ask), None) if ask.epoch >= self.view.reset => self.drain = Some(ask.rows),
                _ => {}
            },
            packet::METRICS => {
                if let Some(reply) = d.reply {
                    self.push_metrics();
                    let _ = reply.send(Frame::signal(packet::OK));
                }
            }
            packet::TRACE_DUMP => {
                if let Some(reply) = d.reply {
                    let (events, dropped) = self.tracer.drain();
                    let rep = Frame::builder(packet::TRACE_DUMP)
                        .raw(&elga_trace::encode_events(&events, dropped))
                        .finish();
                    let _ = reply.send(rep);
                }
            }
            packet::OK
                // Departure confirmed by the directory.
                if self.departing => {
                    return false;
                }
            // From the bus, or alone from `Cluster::kill_agent`: no LEAVE.
            packet::SHUTDOWN => return false,
            _ => {}
        }
        true
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn is_primary(&self, v: VertexId) -> bool {
        self.locator.ring().owner(v) == Some(self.id)
    }

    /// Whether `v`'s entry `e` is a primary meta here: an entry a
    /// kernel stamped home under the table's generation is one without
    /// a ring search; anything else asks the ring.
    fn is_primary_meta(&self, v: VertexId, e: &VertexEntry) -> bool {
        e.is_meta && (e.is_stamped_home(self.targets.generation()) || self.is_primary(v))
    }

    /// The walk [`Agent::primaries`] keeps the answer of: the meta
    /// entries the adopted ring places here.
    #[cfg(any(debug_assertions, test))]
    fn recount_primaries(&self) -> u64 {
        let primary = |(&v, e): (&VertexId, &VertexEntry)| self.is_primary_meta(v, e);
        self.vertices.iter().filter(|&p| primary(p)).count() as u64
    }

    /// Sweep the primaries for the sum of the program's
    /// `global_contrib` over them: a full run of a program with a
    /// global term (PageRank's dangling mass) asks for it on the steps
    /// that visit every vertex. Debug builds hold the kept primary
    /// count to the walk's.
    fn primary_summary(&mut self) -> f64 {
        let Some(run) = self.run.as_ref() else {
            return 0.0;
        };
        // Folded in shard order (VertexStore iteration).
        let mut contrib = 0.0;
        let mut n_primary = 0;
        let program = run.program.as_dyn();
        for (&v, e) in self.vertices.iter() {
            if self.is_primary_meta(v, e) {
                n_primary += 1;
                if e.has_state {
                    let ctx = VertexCtx {
                        out_degree: e.g_out.max(0) as u64,
                        in_degree: e.g_in.max(0) as u64,
                        n_vertices: run.n_vertices,
                        step: run.step,
                        global: 0.0,
                    };
                    contrib += program.global_contrib(v, e.state, &ctx);
                }
            }
        }
        debug_assert_eq!(n_primary, self.primaries, "the kept primary count");
        self.metrics.kernel_visits += self.vertices.len() as u64;
        contrib
    }

    // ------------------------------------------------------------------
    // Query serving
    // ------------------------------------------------------------------

    /// Answer a point query from the snapshot buffer. Live `state` is
    /// never served: mid-run it is torn (some vertices stepped, some
    /// not), and the snapshot is exactly the last completed run's
    /// values. Only the vertex's primary under the adopted view answers
    /// a hit: a husk that moved away keeps its `snap` until the next run
    /// completes, and answers a miss. A vertex with no entry at its
    /// primary does not exist — that answer is authoritative
    /// ([`msg::ANSWER_GONE`]) and lets clients stop searching.
    fn answer_query(&self, v: VertexId) -> msg::QueryAnswer {
        let (state, found) = match self.vertices.get(&v) {
            Some(e) if e.has_snap && self.is_primary_meta(v, e) => (e.snap, msg::ANSWER_HIT),
            None if self.is_primary(v) => (0, msg::ANSWER_GONE),
            _ => (0, msg::ANSWER_MISS),
        };
        msg::QueryAnswer {
            vertex: v,
            state,
            found,
        }
    }

    /// Answer a QUERY_BATCH request from the snapshot buffer, or — when
    /// it asks for the run this agent still holds open — park it until
    /// that run's snapshot flip ([`Agent::answer_reads`]).
    fn answer_read(&mut self, frame: Frame, reply: Option<ReplyHandle>) {
        let (Some(reply), Some(ask)) = (reply, msg::decode_query_batch(&frame)) else {
            return;
        };
        if self.run.as_ref().map(|r| r.info.run_id) == Some(ask.min_run) {
            self.reads.push((frame, reply));
            return;
        }
        self.metrics.queries += ask.records.len() as u64;
        self.metrics.query_batches += 1;
        let answers: Vec<msg::QueryAnswer> =
            ask.records.iter().map(|v| self.answer_query(v)).collect();
        let _ = reply.send(msg::encode_query_batch_rep(
            self.snap_run,
            self.snap_watermark,
            &answers,
        ));
    }

    /// Answer the parked reads: the run they wait for ended here, by its
    /// snapshot flip or a recovery reset.
    fn answer_reads(&mut self) {
        for (frame, reply) in std::mem::take(&mut self.reads) {
            self.answer_read(frame, Some(reply));
        }
    }

    /// Look at the mailbox from inside a superstep: answer the reads
    /// that are waiting and park everything else, in arrival order, for
    /// [`Agent::run_loop`] to handle before it takes anything newer.
    ///
    /// Safe at any point of a run: answers come from the snapshot
    /// buffer and its tag, which nothing writes between one
    /// `finish_run` and the next, and a read moves no barrier counter.
    /// Called where a step used to wait at a barrier (between the
    /// phases of one advance) and inside the loops that can run long —
    /// so a step does not starve the serving plane.
    fn serve_reads(&mut self) {
        // Parked frames no longer count against their senders' credit
        // ([`CoalescingOutbox`] watches the queue depth); stop looking
        // before a kernel's worth of parking can outgrow one sender's
        // in-flight budget.
        while self.parked.len() < MAX_PARKED {
            let Ok(Some(d)) = self.mailbox.try_recv() else {
                return;
            };
            match d.frame.packet_type() {
                packet::QUERY_BATCH => {
                    self.net.record_recv(d.frame.packet_type(), d.frame.len());
                    self.answer_read(d.frame, d.reply);
                }
                _ => self.parked.push_back(d),
            }
        }
    }

    /// SUB_REG: install (or replace; empty set cancels) a standing
    /// subscription. The push channel is a dedicated per-client
    /// coalescing outbox, so delta floods to slow clients hit the same
    /// credit/backpressure ceiling as agent-plane traffic.
    fn on_sub_reg(
        &mut self,
        msg::SubReg {
            addr,
            sub,
            vertices,
        }: msg::SubReg,
    ) {
        if let Some(old) = self.subs.remove(&sub) {
            for v in old.vertices.into_keys() {
                let emptied = match self.watchers.get_mut(&v) {
                    Some(ids) => {
                        ids.retain(|&s| s != sub);
                        ids.is_empty()
                    }
                    None => false,
                };
                if emptied {
                    self.watchers.remove(&v);
                }
            }
        }
        if vertices.is_empty() {
            self.metrics.subscriptions = self.subs.len() as u64;
            return;
        }
        let Ok(out) = self.transport.sender(&addr) else {
            return;
        };
        let outbox =
            CoalescingOutbox::new(out, CoalesceConfig::default()).with_net_stats(self.net.clone());
        for &v in &vertices {
            self.watchers.entry(v).or_default().push(sub);
        }
        self.subs.insert(
            sub,
            Subscription {
                outbox,
                vertices: vertices.into_iter().map(|v| (v, None)).collect(),
            },
        );
        self.metrics.subscriptions = self.subs.len() as u64;
    }

    /// Publish a completed run to the serving plane: copy every
    /// settled state's served value into its query snapshot buffer,
    /// advance the agent-wide snapshot tag, and push moved values to
    /// matching subscriptions. Runs at ADVANCE(done): the termination
    /// barrier already confirmed every STATE broadcast of the run was
    /// received and processed, so `state` holds the completed value on
    /// replicas too — and since queries are handled on this same
    /// thread, the buffer flip is atomic with respect to readers.
    ///
    /// A residual program's served value is `y / sum`, over the sum S
    /// the `done` carried: a delta run's states are the unnormalized
    /// `y`, and a full run's normalized ones are scaled to `y` here, in
    /// the same walk, for the delta runs that follow.
    fn snapshot_states(&mut self, sum: f64) {
        let Some(run) = self.run.as_ref() else {
            return;
        };
        let run_id = run.info.run_id;
        self.snap_run = run_id;
        self.snap_watermark = run.info.watermark;
        let program = run.program.as_dyn();
        let residual = program.delta_kind() == DeltaKind::Residual;
        let (normalize, rescale) = (residual && run.info.delta, residual && !run.info.delta);
        let tolerance = program.tolerance();
        let id = self.id;
        let locator = &self.locator;
        let watchers = &self.watchers;
        let mut changed: Vec<(VertexId, u64)> = Vec::new();
        let mut emptied: Vec<VertexId> = Vec::new();
        for (&v, e) in self.vertices.iter_mut() {
            if !e.has_state {
                // The vertex vanished (or lost its state) since the
                // snapshot was taken; the old value stayed servable
                // until this run completed, and expires with it.
                if e.has_snap {
                    e.snap = 0;
                    e.has_snap = false;
                    if e.is_empty() {
                        emptied.push(v);
                    }
                }
                continue;
            }
            let served = if normalize {
                (f64::from_bits(e.state) / sum).to_bits()
            } else {
                e.state
            };
            if rescale {
                e.state = (f64::from_bits(e.state) * sum).to_bits();
                // What the final scatter sent, which no apply takes in:
                // cleared, the lists stay settled for the delta run.
                (e.has_partial, e.has_ppartial) = (false, false);
            }
            let moved = !e.has_snap || e.snap != served;
            e.snap = served;
            e.has_snap = true;
            // Collect from the primary only, so a subscriber hears
            // each change exactly once no matter how many replicas
            // hold state copies.
            if moved
                && e.is_meta
                && watchers.contains_key(&v)
                && locator.ring().owner(v) == Some(id)
            {
                changed.push((v, served));
            }
        }
        for v in emptied {
            self.vertices.remove(&v);
        }
        if changed.is_empty() {
            return;
        }
        // A served value is pushed once it moved by more than the
        // program's tolerance since its last push: S moves every delta
        // run, and so does every served value, by a little.
        let far = |last: u64, served: u64| {
            if tolerance > 0.0 {
                (f64::from_bits(served) - f64::from_bits(last)).abs() > tolerance
            } else {
                served != last
            }
        };
        // Deterministic push order regardless of map iteration.
        changed.sort_unstable();
        let mut pushed = 0u64;
        for (v, served) in changed {
            for sub in &self.watchers[&v] {
                let Some(s) = self.subs.get_mut(sub) else {
                    continue;
                };
                let last = s.vertices.get_mut(&v).expect("a watched vertex");
                if last.is_some_and(|last| !far(last, served)) {
                    continue;
                }
                *last = Some(served);
                let push = [(v, served)];
                msg::append_sub_pushes(&mut s.outbox, *sub, run_id, self.snap_watermark, &push);
                pushed += 1;
            }
        }
        self.metrics.sub_pushes += pushed;
        for s in self.subs.values_mut() {
            s.outbox.flush();
            // A client whose mailbox is gone refuses every push; the
            // next run's values supersede these, so they are dropped.
            s.outbox.take_failed();
        }
    }

    // ------------------------------------------------------------------
    // Run lifecycle
    // ------------------------------------------------------------------

    /// Drop the residuals ingest left on dead incarnations
    /// ([`drop_stale_residual`]) where a run that keeps its lists finds
    /// them: on the apply lists, as ingest lists every entry it corrects.
    fn purge_stale_residuals(&mut self) {
        let mut stale = Vec::new();
        for shard in self.vertices.shards_mut() {
            for v in &shard.lists.apply {
                if shard.map.get_mut(v).is_some_and(drop_stale_residual) {
                    stale.push(*v);
                }
            }
        }
        for v in stale {
            self.vertices.remove(&v);
        }
    }

    fn begin_run(&mut self, info: RunInfo) {
        let Some(spec) = ProgramSpec::decode(info.tag, info.params) else {
            return;
        };
        let program = spec.instantiate();
        // A sync reuse run starts from the lists the last run left if
        // trusted and settled; any other resets every entry.
        let keep = !self.needs_sweep
            && info.reuse_state
            && !info.asynchronous
            && self.vertices.lists_settled();
        if keep {
            self.purge_stale_residuals();
        } else {
            let mut stale = Vec::new();
            for (&v, e) in self.vertices.iter_mut() {
                if !info.reuse_state {
                    e.has_state = false;
                    e.state = 0;
                    e.active = false;
                    e.residual = 0;
                    e.has_residual = false;
                }
                e.has_partial = false;
                e.has_ppartial = false;
                e.wait_recv = 0;
                e.pending_delta = 0;
                e.has_pending_delta = false;
                if drop_stale_residual(e) {
                    stale.push(v);
                }
            }
            for v in stale {
                self.vertices.remove(&v);
            }
            self.vertices.clear_worklists();
            self.needs_sweep = true;
        }
        if !info.reuse_state {
            // A from-scratch run recomputes every vertex; changes to the
            // sum of the discarded states are moot.
            self.unreported_sum = 0.0;
        }
        // Remember the residual program across the run so ingest can
        // turn the next batch's edge changes into corrections.
        self.delta_program =
            (program.as_dyn().delta_kind() == DeltaKind::Residual).then(|| program.clone());
        self.buffered_frames.clear();
        // Rows of targets that no longer exist live until the next view
        // epoch unless they come to outnumber the edges held.
        self.targets
            .collect_garbage(self.vertices.held().iter().sum());
        self.run = Some(AgentRun {
            info,
            program,
            step: 0,
            phase: Phase::Scatter,
            n_vertices: self.view.n_vertices,
            global: 0.0,
            async_live: false,
            paused: false,
            sent: Vec::new(),
            taken_in: ((0, Phase::Scatter), 0),
            parked_advance: None,
            parked_view: None,
        });
        self.reported = None;
        self.idle_owed = true;
    }

    fn on_advance(&mut self, adv: msg::Advance) {
        let Some(run) = self.run.as_mut() else {
            return;
        };
        if adv.run != run.info.run_id {
            return;
        }
        // An answer to a sync barrier — `done` included — says how many
        // records of that barrier's phase are addressed here. Until they
        // are all taken in it waits; reads and every other frame but a
        // VIEW are served from `run_loop` meanwhile.
        let owed = adv.expected_by(self.id);
        if !run.async_live && owed > 0 && run.taken_in(adv.answers()) < owed {
            run.parked_advance = Some(adv);
            return;
        }
        if adv.done {
            self.finish_run(adv.global);
            return;
        }
        if adv.phase == Phase::Migrate {
            return; // the step's STATE is in: the view may follow
        }
        if run.async_live {
            if adv.phase == Phase::Scatter {
                // Resume after a mid-run view change: the migrate
                // barrier settled and the directory re-published the
                // async advance. Re-scatter the surviving frontier
                // under the adopted view and release the frames that
                // were buffered while paused.
                run.paused = false;
                run.step = adv.step;
                run.phase = Phase::Scatter;
                run.n_vertices = adv.n_vertices;
                self.idle_owed = true;
                self.async_rescatter();
                self.replay_buffered();
            }
            return;
        }
        run.step = adv.step;
        run.phase = adv.phase;
        run.n_vertices = adv.n_vertices;
        run.global = adv.global;
        if run.info.asynchronous && adv.step == 1 && adv.phase == Phase::Scatter {
            run.async_live = true;
            let t0 = Instant::now();
            self.async_initial_scatter();
            self.tracer
                .span(EventKind::PhaseScatter, t0, adv.run, u64::from(adv.step));
            // A faster peer's initial scatter can race ahead of this
            // advance; those frames were buffered under the sync rules
            // and would otherwise be stranded (their send was counted,
            // their receive never would be — the run could not
            // terminate). Release them into the async handlers.
            self.replay_buffered();
            return;
        }
        self.run_phases(&adv);
    }

    /// End the run at its `done`, whose `global` is the sum S of a
    /// residual program's states ([`Agent::snapshot_states`]).
    fn finish_run(&mut self, sum: f64) {
        // Lists the run trusted must be complete at its end, and the
        // primary count it reported true.
        #[cfg(debug_assertions)]
        {
            if !self.needs_sweep {
                for shard in self.vertices.shards() {
                    shard.assert_worklists_complete();
                }
            }
            assert_eq!(
                self.primaries,
                self.recount_primaries(),
                "the kept primary count"
            );
        }
        // Flip the serving snapshot and notify subscribers before the
        // run is dropped (the sweep needs its id and program context).
        self.snapshot_states(sum);
        // The lead took the sum's change in with the members' reports.
        self.unreported_sum = 0.0;
        self.run = None;
        self.reported = None;
        self.answer_reads();
        // Apply the changes that were buffered during the run. Their
        // receives were counted when they arrived; decode and apply
        // directly so they are not counted twice.
        let buffered: Vec<Frame> = std::mem::take(&mut self.buffered_changes);
        for frame in buffered {
            match frame.packet_type() {
                packet::RESIDUAL => {
                    if let Some(view) = msg::decode_residuals(&frame) {
                        self.apply_residuals(view.records);
                    }
                }
                _ => {
                    if let Some(view) = msg::decode_edge_changes(&frame) {
                        self.apply_changes(view.side, view.hop, view.records);
                    }
                }
            }
        }
        self.flush_outboxes();
        self.push_metrics();
    }

    /// Run a data-plane frame handler under the `decode_nanos` clock.
    fn timed_data_plane(&mut self, frame: Frame, f: fn(&mut Self, Frame)) {
        let t0 = std::time::Instant::now();
        f(self, frame);
        self.metrics.decode_nanos += t0.elapsed().as_nanos() as u64;
    }

    /// Act on the parked advance if the frame just handled completed
    /// its count ([`Agent::on_advance`] parks it again if not), then on
    /// a view that waited for it. Outside the frame's `decode_nanos`
    /// clock: what runs is a superstep.
    fn release_parked_advance(&mut self) {
        let Some(run) = self.run.as_mut().filter(|r| r.parked_advance.is_some()) else {
            return;
        };
        let (adv, view) = (run.parked_advance.take(), run.parked_view.take());
        self.on_advance(adv.expect("parked"));
        if let Some(view) = view {
            let stays = self.take_view(view);
            debug_assert!(stays, "a parked view opened a reset: take_view parks none");
        }
    }

    /// Take `view` on, or — while an advance is parked — keep it until
    /// the advance has run: its records were placed under the view
    /// before. A view opening a newer recovery reset is never parked:
    /// the agent wipes itself ([`Agent::wipe`], the run goes too) and
    /// migrates at once, or exits (false) if the view omits it — it was
    /// evicted or departing, and after the reset holds nothing to drain.
    fn take_view(&mut self, view: DirectoryView) -> bool {
        if view.reset > self.view.reset {
            if view.addr_of(self.id).is_none() {
                return false;
            }
            self.wipe();
            self.on_view(view);
            // A read parked for the aborted run is answered under the
            // view that reset it, with the reset's tag.
            self.answer_reads();
            return true;
        }
        match self.run.as_mut().filter(|r| r.parked_advance.is_some()) {
            Some(run) => run.parked_view = Some(view),
            None => self.on_view(view),
        }
        true
    }

    /// Re-dispatch buffered frames that now match the current phase.
    /// Their receives were counted when they arrived.
    fn replay_buffered(&mut self) {
        for frame in std::mem::take(&mut self.buffered_frames) {
            self.take_records(frame, false);
        }
    }

    fn current_phase(&self) -> Option<(u64, u32, Phase, bool)> {
        self.run
            .as_ref()
            .map(|r| (r.info.run_id, r.step, r.phase, r.async_live))
    }
}

/// A parked correction addressed to a vertex with no edges and no state
/// belongs to a dead incarnation: within its (now settled) batch, the
/// deg-delta that vanished the vertex raced ahead of the correction,
/// which then landed on the emptied entry. Drop it, or a later
/// re-created vertex inherits mass owed to its predecessor. True when
/// that left the entry empty.
fn drop_stale_residual(e: &mut VertexEntry) -> bool {
    if !(e.has_residual && !e.is_meta && !e.has_state) {
        return false;
    }
    (e.residual, e.has_residual) = (0, false);
    e.is_empty()
}

/// The one way a unit-test fixture writes an entry directly.
#[cfg(test)]
impl Agent {
    /// Write `v`'s entry (created if need be) with `f`, as a handler
    /// would without being one: the primary count follows what `f` did
    /// to `is_meta`, and the entry is listed as a possible stray, as no
    /// owner check placed it.
    pub(super) fn edit(&mut self, v: VertexId, f: impl FnOnce(&mut VertexEntry, &mut Worklists)) {
        let owned = self.is_primary(v);
        let (e, lists) = self.vertices.entry_and_lists(v);
        let was = e.is_meta;
        f(e, lists);
        if owned && e.is_meta != was {
            if e.is_meta {
                self.primaries += 1;
            } else {
                self.primaries -= 1;
            }
        }
        self.vertices.list_stray(v);
    }

    /// Every peer's counts added up.
    pub(super) fn total(&self) -> Counters {
        testkit::sum(&self.channels.iter().map(|(&p, &c)| (p, c)).collect())
    }
}

/// Agents for unit tests: built with [`Agent::new`], joined to nothing.
#[cfg(test)]
pub(super) mod testkit {
    use super::*;
    use crate::msg::{AgentInfo, MigMeta, MigVertex};
    use elga_hash::HashKind;
    use elga_net::InProcTransport;

    /// The agent under test.
    pub const ME: AgentId = 1;

    /// `rows`' counts added up, kind by kind.
    pub fn sum(rows: &Rows) -> Counters {
        let mut t = Counters::default();
        for (_, c) in rows {
            t.vmsg_sent += c.vmsg_sent;
            t.vmsg_recv += c.vmsg_recv;
            t.part_sent += c.part_sent;
            t.part_recv += c.part_recv;
            t.state_sent += c.state_sent;
            t.state_recv += c.state_recv;
            t.mig_sent += c.mig_sent;
            t.mig_recv += c.mig_recv;
            t.chg_sent += c.chg_sent;
            t.chg_recv += c.chg_recv;
        }
        t
    }
    /// Replication threshold of [`view`]; a hub is estimated at 3×.
    const THRESHOLD: u64 = 40;

    /// A view of `members` whose sketch puts `hubs` over the threshold.
    pub fn view(epoch: u64, members: &[AgentId], hubs: &[VertexId]) -> DirectoryView {
        let mut sketch = CountMinSketch::new(64, 3);
        for &h in hubs {
            sketch.add(h, 3 * THRESHOLD as u32);
        }
        DirectoryView {
            epoch,
            reset: 0,
            batch_id: 0,
            n_vertices: 0,
            agents: members
                .iter()
                .map(|&id| AgentInfo {
                    id,
                    addr: agent_addr(id),
                })
                .collect(),
            sketch,
            hash: HashKind::Wang,
            virtual_agents: 8,
            replication_threshold: THRESHOLD,
            max_replicas: 3,
        }
    }

    /// [`view`] as a recovery publishes it: its `reset` is its epoch.
    pub fn reset_view(epoch: u64, members: &[AgentId]) -> DirectoryView {
        DirectoryView {
            reset: epoch,
            ..view(epoch, members, &[])
        }
    }

    /// Agent [`ME`] on a transport of its own: frames it sends wait in
    /// the in-process hub for whoever binds the destination address.
    pub fn detached(view: DirectoryView) -> (Arc<InProcTransport>, Agent) {
        let transport = Arc::new(InProcTransport::new());
        let mailbox = transport.bind(&agent_addr(ME)).expect("bind");
        let dir_push = transport
            .sender(&Addr::inproc("nobody"))
            .expect("in-process sender");
        let cfg = SystemConfig::default();
        let agent = Agent::new(
            transport.clone(),
            cfg,
            ME,
            mailbox,
            dir_push,
            view,
            Instant::now(),
        );
        (transport, agent)
    }

    /// One vertex as MIG_VERTEX records brought it to one destination,
    /// the records of a vertex cut across frames joined again: its head
    /// (list lengths zeroed), its meta and its out- and in-list.
    #[derive(Debug, Default, PartialEq)]
    pub struct Moved {
        pub head: MigVertex,
        pub meta: Option<MigMeta>,
        pub lists: [Vec<VertexId>; 2],
    }

    /// Add the records of `frame` to `got`, joining a vertex's records.
    pub fn join(got: &mut Vec<Moved>, frame: &Frame) {
        let view = msg::decode_mig_vertex(frame).expect("a MIG_VERTEX frame");
        for (head, tail) in view.records.tailed() {
            let (meta, out, inn) = head.read_tail(tail);
            let cut = |m: &Moved| m.head.vertex == head.vertex && m.meta.is_none();
            if !got.last().is_some_and(cut) {
                let head = MigVertex {
                    n_out: 0,
                    n_in: 0,
                    ..head
                };
                got.push(Moved {
                    head,
                    ..Moved::default()
                });
            }
            let m = got.last_mut().expect("just pushed");
            m.head.flags |= head.flags;
            m.meta = meta;
            m.lists[0].extend(out);
            m.lists[1].extend(inn);
        }
    }

    /// Every vertex sent to `agent` and waiting in its mailbox, in order.
    pub fn moved_to(transport: &InProcTransport, agent: AgentId) -> Vec<Moved> {
        let mailbox = transport.bind(&agent_addr(agent)).expect("bind");
        let mut got = Vec::new();
        while let Ok(Some(d)) = mailbox.try_recv() {
            join(&mut got, &d.frame);
        }
        got
    }
}
