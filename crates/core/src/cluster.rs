//! The single-process cluster driver.
//!
//! [`Cluster`] assembles a full ElGA deployment over the in-process
//! transport: a DirectoryMaster, one or more Directories, and N Agents,
//! each on its own OS thread — the shared-nothing topology of the
//! paper's Figure 1 with threads standing in for processes (see
//! DESIGN.md, "Substitutions"). It exposes the operations the paper's
//! evaluation drives with `pdsh` and client programs:
//!
//! * `ingest` — stream edge changes in (a Streamer);
//! * `run` / `start_run` + `wait_run` — execute vertex programs
//!   synchronously or asynchronously, optionally incrementally;
//! * `query_*` — client queries, concurrent with everything else;
//! * `add_agents` / `remove_agent` — elastic scaling, mid-run included
//!   (Figure 17: scaling is applied at superstep boundaries);
//! * `metrics` / `autoscale_once` — the reactive autoscaler loop
//!   (Figure 18).

use crate::agent::Agent;
use crate::autoscale::Autoscaler;
use crate::config::SystemConfig;
use crate::directory::{self, bus_addr, directory_addr, master_addr};
use crate::metrics::ClusterMetrics;
use crate::msg::{self, packet, AgentInfo, Counters, DirectoryView, Message, RunInfo};
use crate::program::{ProgramSpec, RunOptions};
use crate::streamer::Streamer;
use elga_ckpt::CheckpointStore;
use elga_graph::types::EdgeChange;
use elga_graph::ChangeLogStats;
use elga_hash::AgentId;
use elga_net::{
    Addr, DiskFault, FaultPlan, FaultyTransport, Frame, InProcTransport, Mailbox, NetError,
    ReliableTransport, Transport, TransportExt,
};
use elga_trace::{EventKind, TraceEvent, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Changes per ingest batch (one batch-clock request to the lead each).
const INGEST_BATCH: usize = 16384;

/// Builder for [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    agents: usize,
    config: SystemConfig,
    chaos: Option<(FaultPlan, u64)>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            agents: 4,
            config: SystemConfig::default(),
            chaos: None,
        }
    }
}

impl ClusterBuilder {
    /// Number of initial agents (default 4).
    pub fn agents(mut self, n: usize) -> Self {
        self.agents = n.max(1);
        self
    }

    /// Number of directories (default 1; agents are assigned
    /// round-robin by the master).
    pub fn directories(mut self, n: usize) -> Self {
        self.config.directories = n.max(1);
        self
    }

    /// Full system configuration.
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Replication threshold shorthand (degree per replica).
    pub fn replication_threshold(mut self, t: u64) -> Self {
        self.config.replication_threshold = t;
        self
    }

    /// Virtual agents per agent shorthand.
    pub fn virtual_agents(mut self, v: u32) -> Self {
        self.config.virtual_agents = v;
        self
    }

    /// Run the whole cluster over a fault-injecting transport seeded
    /// for determinism. The chaos stack is `Reliable(Faulty(InProc))`:
    /// the reliability layer (sequence numbers, acknowledgements,
    /// retransmits) recovers every frame the fault layer drops,
    /// duplicates, or delays — including its own acknowledgements.
    pub fn chaos(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.chaos = Some((plan, seed));
        self
    }

    /// Enable durable checkpointing into `dir` (shorthand for
    /// `SystemConfig::checkpoint_dir`). Once a generation commits,
    /// recovery loads the newest valid one and replays the change log,
    /// which reaches back to the oldest retained generation.
    pub fn checkpoints(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.checkpoint_dir = Some(dir.into());
        self
    }

    /// Take a checkpoint automatically after every `n` quiesced ingest
    /// calls' batches (0 disables the automatic trigger; explicit
    /// [`Cluster::checkpoint`] calls always work).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.config.checkpoint_interval_batches = n;
        self
    }

    /// Inject disk faults (torn writes, bit corruption) into agent
    /// checkpoint writes, deterministically seeded. The driver's
    /// read-back scrub and recovery validation must absorb every one —
    /// a damaged generation is fallen past, never restored from.
    pub fn disk_chaos(mut self, fault: DiskFault, seed: u64) -> Self {
        self.config.disk_fault = Some(fault);
        self.config.disk_fault_seed = seed;
        self
    }

    /// Assemble and start the cluster.
    pub fn build(self) -> Cluster {
        let (transport, fault): (Arc<dyn Transport>, _) = match self.chaos {
            Some((plan, seed)) => {
                let fault = Arc::new(FaultyTransport::new(
                    Arc::new(InProcTransport::new()),
                    plan,
                    seed,
                ));
                let reliable =
                    ReliableTransport::new(fault.clone()).expect("bind reliability ack mailbox");
                (Arc::new(reliable), Some(fault))
            }
            None => (Arc::new(InProcTransport::new()), None),
        };
        let master = master_addr();
        let mut handles = vec![directory::spawn_master(transport.clone(), master.clone())];
        for d in 0..self.config.directories as u64 {
            handles.push(directory::spawn_directory(
                transport.clone(),
                self.config.clone(),
                d,
                master.clone(),
            ));
        }
        let tracer = Arc::new(Tracer::from_flag(self.config.tracing));
        let mut cluster = Cluster {
            transport,
            fault,
            cfg: self.config,
            lead: directory_addr(0),
            handles,
            agent_handles: HashMap::new(),
            next_agent: 1,
            recovered_epoch: 0,
            streamer: None,
            alive: true,
            trace_tracks: Vec::new(),
            ckpt_store: None,
            batches_since_ckpt: 0,
            recovery: RecoveryStats::default(),
            tracer,
        };
        cluster.add_agents(self.agents);
        cluster.quiesce().expect("initial quiesce");
        cluster
    }
}

/// Wall-clock results of one run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Run identifier.
    pub run_id: u64,
    /// Supersteps executed (sync) — 0-based init step excluded.
    pub steps: u32,
    /// Per-superstep durations (sync) or the single total (async).
    pub step_durations: Vec<Duration>,
    /// Global vertex count at the end.
    pub n_vertices: u64,
    /// Total wall time observed by the driver.
    pub total: Duration,
}

impl RunStats {
    /// Mean per-iteration time, excluding the initialization step —
    /// the paper's per-iteration PageRank metric.
    pub fn mean_iteration(&self) -> Duration {
        let iters: Vec<&Duration> = self.step_durations.iter().skip(1).collect();
        if iters.is_empty() {
            return self.total;
        }
        let sum: Duration = iters.iter().copied().sum();
        sum / iters.len() as u32
    }
}

/// An in-progress run started with [`Cluster::start_run`].
///
/// Retains the program spec so the driver can restart the run when a
/// mid-run agent failure aborts it.
pub struct RunHandle {
    run_id: u64,
    sub: Mailbox,
    started: Instant,
    spec: ProgramSpec,
    options: RunOptions,
}

/// A fully assembled in-process ElGA deployment.
pub struct Cluster {
    transport: Arc<dyn Transport>,
    /// The fault layer under `transport` when built with
    /// [`ClusterBuilder::chaos`].
    fault: Option<Arc<FaultyTransport>>,
    cfg: SystemConfig,
    lead: Addr,
    handles: Vec<JoinHandle<()>>,
    agent_handles: HashMap<AgentId, JoinHandle<Vec<TraceEvent>>>,
    next_agent: u64,
    /// The epoch of the last recovery reset this driver rebuilt from.
    recovered_epoch: u64,
    streamer: Option<Streamer>,
    alive: bool,
    /// Trace buffers of agents that already left, as their threads
    /// returned them. Merged into [`Cluster::collect_traces`] output.
    trace_tracks: Vec<(String, Vec<TraceEvent>)>,
    /// Driver-side, fault-free checkpoint store: scrubs and commits
    /// generations the agents wrote (possibly through an injector) and
    /// reads them back during recovery. Opened lazily.
    ckpt_store: Option<CheckpointStore>,
    /// Quiesced ingest batches since the last automatic checkpoint.
    batches_since_ckpt: u64,
    /// Driver-side recovery/restore accounting, merged into
    /// [`Cluster::metrics`].
    recovery: RecoveryStats,
    /// Driver-side event recorder (checkpoint restores, end-to-end
    /// recovery spans); drained as the `driver` track by
    /// [`Cluster::collect_traces`].
    tracer: Arc<Tracer>,
}

/// The stderr line of a `what` (`run`, `quiesce`) that passed its
/// `deadline`: what the lead waited on (`None`: the lead did not answer).
fn stall_line(what: &str, deadline: Duration, waiting_on: Option<&str>) -> String {
    let waiting = waiting_on.unwrap_or("(the lead did not answer)");
    format!("elga {what}: gave up after {deadline:?}: the lead is waiting on {waiting}")
}

/// Driver-side recovery and checkpoint-restore accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Completed recoveries driven by this cluster handle.
    pub recoveries: u64,
    /// Total recovery wall time, from the reset through the restored
    /// cluster, in nanoseconds.
    pub recovery_nanos: u64,
    /// Recoveries that restored from a checkpoint generation.
    pub ckpt_restores: u64,
    /// Wall time spent reading, re-routing, and re-injecting shards.
    pub ckpt_restore_nanos: u64,
    /// Committed generations skipped as damaged before a valid one was
    /// found (the fallback ladder length, summed over recoveries).
    pub ckpt_fallbacks: u64,
    /// Change records replayed from the retained log.
    pub replayed_records: u64,
}

/// Outcome of one [`Cluster::checkpoint`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Generation written.
    pub generation: u64,
    /// View epoch at the cut.
    pub epoch: u64,
    /// Change-stream watermark the generation covers.
    pub watermark: u64,
    /// Whether the manifest was committed after the read-back scrub.
    /// False means a shard write failed or did not survive validation;
    /// earlier generations and the full change log stay intact.
    pub committed: bool,
    /// Total payload bytes across shards.
    pub bytes: u64,
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The shared transport (for spawning extra Streamers/Proxies).
    pub fn transport(&self) -> Arc<dyn Transport> {
        self.transport.clone()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Address of the lead directory.
    pub fn lead_directory(&self) -> Addr {
        self.lead.clone()
    }

    fn request(&self, frame: Frame) -> Result<Frame, NetError> {
        self.transport
            .request_with_retry(
                &self.lead,
                frame,
                self.cfg.request_timeout,
                &self.cfg.send_policy,
            )
            .map(|(rep, _)| rep)
    }

    /// Ask every agent in `agents` the same question at once
    /// ([`Transport::request_all`]), failed slots retried under the
    /// configured policy. Replies come back in `agents` order.
    fn request_agents(&self, agents: &[AgentInfo], frame: Frame) -> Vec<Result<Frame, NetError>> {
        let requests: Vec<(&Addr, Frame)> =
            agents.iter().map(|a| (&a.addr, frame.clone())).collect();
        self.transport.request_all_with_retry(
            &requests,
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        )
    }

    /// Current directory view.
    pub fn view(&self) -> DirectoryView {
        let rep = self
            .request(Frame::signal(packet::GET_VIEW))
            .expect("directory unavailable");
        DirectoryView::decode(&rep).expect("bad view")
    }

    /// Registered agent count.
    pub fn agent_count(&self) -> usize {
        self.view().agents.len()
    }

    /// Ids of the registered agents.
    pub fn agent_ids(&self) -> Vec<AgentId> {
        self.view().agents.iter().map(|a| a.id).collect()
    }

    // ------------------------------------------------------------------
    // Elasticity
    // ------------------------------------------------------------------

    /// Spawn and join `n` new agents; returns their ids. During a run,
    /// they take effect at the next superstep boundary.
    ///
    /// Each joins from its own thread ([`Agent::spawn_join`]), so it is
    /// running when the founders start to sweep, and this returns once
    /// the lead has answered every JOIN: a `quiesce` that follows sees
    /// the migration.
    pub fn add_agents(&mut self, n: usize) -> Vec<AgentId> {
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.next_agent;
            self.next_agent += 1;
            let dir = directory::bootstrap_directory(
                self.transport.as_ref(),
                &master_addr(),
                self.cfg.request_timeout,
            )
            .unwrap_or_else(|_| self.lead.clone());
            let agent = Agent::spawn_join(self.transport.clone(), self.cfg.clone(), id, dir);
            self.agent_handles.insert(id, agent.expect("agent join"));
            ids.push(id);
        }
        ids
    }

    /// Gracefully remove an agent: it migrates all of its data away
    /// and disconnects only once the directory confirms the drain
    /// (§3.4.3).
    pub fn remove_agent(&mut self, id: AgentId) {
        self.remove_agent_batch(&[id]);
    }

    /// Gracefully remove the `n` most recently added agents in a
    /// single view change. One LEAVE frame carries every departing id,
    /// so the directory runs one membership update and one migration
    /// barrier total — not one per agent as a `remove_agent` loop
    /// would. Returns the removed ids (may be fewer than `n` if the
    /// cluster is smaller).
    pub fn remove_agents(&mut self, n: usize) -> Vec<AgentId> {
        let mut ids: Vec<AgentId> = self.agent_handles.keys().copied().collect();
        ids.sort_unstable();
        let keep = ids.len().saturating_sub(n);
        let departing: Vec<AgentId> = ids.split_off(keep);
        self.remove_agent_batch(&departing);
        departing
    }

    fn remove_agent_batch(&mut self, ids: &[AgentId]) {
        if ids.is_empty() {
            return;
        }
        let mut b = Frame::builder(packet::LEAVE);
        for &id in ids {
            b = b.u64(id);
        }
        let _ = self.request(b.finish());
        for id in ids {
            let events = self.agent_handles.remove(id).map(JoinHandle::join);
            if let (Some(Ok(events)), true) = (events, self.cfg.tracing) {
                self.trace_tracks.push((format!("agent-{id}"), events));
            }
        }
    }

    /// Remove the most recently added agent, if any. Returns its id.
    pub fn remove_last_agent(&mut self) -> Option<AgentId> {
        let id = *self.agent_handles.keys().max()?;
        self.remove_agent(id);
        Some(id)
    }

    /// Crash an agent without the LEAVE drain protocol: it dies
    /// holding its share of the graph and whatever was in flight.
    /// Failure detection must notice the silence, evict it, and
    /// broadcast RECOVER (handled by [`Cluster::wait_run`]).
    pub fn kill_agent(&mut self, id: AgentId) {
        if let Ok(out) = self.transport.sender(&directory::agent_addr(id)) {
            let _ = out.send(Frame::signal(packet::KILL));
        }
        if let Some(handle) = self.agent_handles.remove(&id) {
            let _ = handle.join();
        }
    }

    /// The fault-injection handle, when built with
    /// [`ClusterBuilder::chaos`] (drive disconnects, read drop/dup
    /// counts).
    pub fn fault(&self) -> Option<&Arc<FaultyTransport>> {
        self.fault.as_ref()
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    fn streamer(&mut self) -> &mut Streamer {
        if self.streamer.is_none() {
            self.streamer = Some(
                Streamer::connect(self.transport.clone(), self.cfg.clone(), self.lead.clone())
                    .expect("streamer connect"),
            );
        }
        self.streamer.as_mut().expect("just set")
    }

    /// Stream edge changes into the system and wait for quiescence.
    /// With `checkpoint_interval_batches` configured, a checkpoint is
    /// taken automatically once enough batches have accumulated.
    pub fn ingest(&mut self, changes: impl IntoIterator<Item = EdgeChange>) {
        let mut batches = 0u64;
        let mut buf = Vec::with_capacity(INGEST_BATCH);
        for c in changes {
            buf.push(c);
            if buf.len() == INGEST_BATCH {
                self.streamer().send_batch(&buf).expect("ingest");
                batches += 1;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.streamer().send_batch(&buf).expect("ingest");
            batches += 1;
        }
        self.settle().expect("quiesce after ingest");
        self.maybe_checkpoint(batches);
    }

    /// Automatic-checkpoint trigger: fires once `batches` more ingest
    /// batches push the running count past the configured interval. A
    /// failed (uncommitted) checkpoint is not an error here — the
    /// change log was left intact, so recovery still works; the next
    /// interval retries under the same generation number, since only
    /// committed generations are listed (`CheckpointStore::generations`).
    fn maybe_checkpoint(&mut self, batches: u64) {
        if self.cfg.checkpoint_interval_batches == 0 || self.cfg.checkpoint_dir.is_none() {
            return;
        }
        self.batches_since_ckpt += batches;
        if self.batches_since_ckpt >= self.cfg.checkpoint_interval_batches {
            self.batches_since_ckpt = 0;
            let _ = self.checkpoint();
        }
    }

    /// Convenience: ingest plain edges as insertions.
    pub fn ingest_edges(&mut self, edges: impl IntoIterator<Item = (u64, u64)>) {
        self.ingest(edges.into_iter().map(|(u, v)| EdgeChange::insert(u, v)));
    }

    /// Stream a batch without waiting for quiescence (dynamic-rate
    /// experiments drive this directly).
    pub fn ingest_async(&mut self, changes: &[EdgeChange]) {
        self.streamer().send_batch(changes).expect("ingest");
    }

    /// Wait until nothing counted is in flight anywhere: one request to
    /// the lead, answered once its channel table balances at the current
    /// epoch with no migration or run pending (DESIGN.md "Quiescence in
    /// one wave"). It says what this cluster's streamer sent each agent,
    /// which the agent takes in before it answers its DRAIN, pushing its
    /// degree changes first: the lead's sketch then holds the batch.
    ///
    /// Bounded by `SystemConfig::quiesce_deadline`; a wedged system
    /// (e.g. a dead peer not yet evicted) yields `NetError::Timeout`
    /// instead of blocking forever, after one stderr line that says what
    /// the lead waited on ([`stall_line`]).
    pub fn quiesce(&self) -> Result<(), NetError> {
        self.quiesced().map(drop)
    }

    /// [`Cluster::quiesce`], returning the epoch of the lead's last
    /// recovery reset.
    fn quiesced(&self) -> Result<u64, NetError> {
        let sent = |(&agent, &chg_sent): (&AgentId, &u64)| {
            let counts = Counters {
                chg_sent,
                ..Counters::default()
            };
            (agent, counts)
        };
        let rows = self.streamer.iter().flat_map(|s| s.sent().iter().map(sent));
        let ask = msg::DrainReport {
            agent: 0,
            epoch: 0,
            rows: rows.collect(),
        };
        let (deadline, policy) = (self.cfg.quiesce_deadline, &self.cfg.send_policy);
        let reply = self
            .transport
            .request_with_retry(&self.lead, ask.encode(), deadline, policy);
        match reply.map(|(rep, _)| rep.reader().u64()) {
            Ok(reset) => reset.ok_or(NetError::Protocol("bad quiesce reply")),
            Err(NetError::Timeout) => Err(self.gave_up("quiesce", deadline)),
            Err(e) => Err(e),
        }
    }

    /// [`Cluster::quiesce`], and rebuild first if the lead reset the
    /// survivors of a failure no one has rebuilt from: a kill between
    /// runs is recovered by the next `ingest` or run.
    fn settle(&mut self) -> Result<(), NetError> {
        let reset = self.quiesced()?;
        if reset > self.recovered_epoch {
            self.recover(reset)?;
        }
        Ok(())
    }

    /// Print what the lead waits on after `what` passed `deadline`, and
    /// the error to return.
    fn gave_up(&self, what: &str, deadline: Duration) -> NetError {
        let ask = Frame::builder(packet::RUN_STATUS).u64(0).finish();
        let rep = self.request(ask).ok();
        let text = rep.as_ref().and_then(|f| f.reader().bytes());
        let waiting_on = text.and_then(|b| std::str::from_utf8(b).ok());
        eprintln!("{}", stall_line(what, deadline, waiting_on));
        NetError::Timeout
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// The driver's fault-free checkpoint store, opened lazily.
    fn driver_store(&mut self) -> Result<&mut CheckpointStore, NetError> {
        if self.ckpt_store.is_none() {
            let dir = self
                .cfg
                .checkpoint_dir
                .as_ref()
                .ok_or(NetError::Protocol("checkpointing not configured"))?;
            // Deliberately without the injector: the driver's job is to
            // validate what the (possibly lying) agent disks produced.
            self.ckpt_store = Some(
                CheckpointStore::open(dir)
                    .map_err(|_| NetError::Protocol("checkpoint directory unavailable"))?,
            );
        }
        Ok(self.ckpt_store.as_mut().expect("just set"))
    }

    /// Checkpoint generations retained on disk. Older generations are
    /// pruned after each successful commit; keeping two means a corrupt
    /// newest generation still has a fallback.
    pub const CHECKPOINT_KEEP: usize = 2;

    /// Take a durable checkpoint: quiesce, have every agent write its
    /// shard of a new generation at the current change-stream
    /// watermark, scrub the shards back through checksum validation,
    /// commit the manifest, prune old generations, and move the
    /// streamer's change-log base to the oldest retained generation's
    /// watermark.
    ///
    /// A failed shard write or scrub (e.g. injected torn writes) leaves
    /// the generation manifest-less and therefore invisible to
    /// recovery, and the change log as it was: checkpointing degrades
    /// to the previous generation (or a replay onto empty agents),
    /// never to a wrong answer. Such an outcome is reported as
    /// `committed: false`, not an error.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, NetError> {
        if self.cfg.checkpoint_dir.is_none() {
            return Err(NetError::Protocol("checkpointing not configured"));
        }
        self.quiesce()?;
        let view = self.view();
        let watermark = self.streamer().log().end();
        let generation = self
            .driver_store()?
            .generations()
            .last()
            .copied()
            .unwrap_or(0)
            + 1;
        let mut report = CheckpointReport {
            generation,
            epoch: view.epoch,
            watermark,
            committed: false,
            bytes: 0,
        };
        // Every agent serialises and syncs its shard at the same time.
        let save = msg::CkptSave {
            generation,
            epoch: view.epoch,
            watermark,
        };
        let mut all_ok = true;
        for rep in self.request_agents(&view.agents, save.encode()) {
            match msg::CkptSaveReport::decode(&rep?) {
                Some(r) if r.ok => report.bytes += r.bytes,
                _ => all_ok = false,
            }
        }
        if !all_ok {
            return Ok(report);
        }
        let agents: Vec<u64> = view.agents.iter().map(|a| a.id).collect();
        let store = self.driver_store()?;
        if store
            .commit(generation, view.epoch, watermark, &agents)
            .is_err()
        {
            return Ok(report);
        }
        report.committed = true;
        let _ = store.prune(Self::CHECKPOINT_KEEP);
        // The log must still reach back to every retained generation's
        // watermark, or the fallback ladder would leave a replay gap.
        let oldest = store
            .generations()
            .iter()
            .filter_map(|&g| store.manifest(g).ok())
            .map(|m| m.watermark)
            .min()
            .unwrap_or(watermark);
        self.streamer().truncate_log(oldest);
        Ok(report)
    }

    /// Driver-side recovery and checkpoint-restore counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Change-log accounting of the embedded streamer: the records a
    /// recovery would replay, the heap they hold, the log base — 0
    /// until a checkpoint commits, then the oldest retained
    /// generation's watermark — and lifetime ingested records. Once the
    /// log has compacted it retains fewer records than were ingested
    /// since its base.
    pub fn change_log_stats(&mut self) -> ChangeLogStats {
        self.streamer().log().stats()
    }

    /// Rebuild graph state after the survivors' recovery reset: replay
    /// the whole change log, onto empty agents while its base is 0 and
    /// otherwise onto the newest valid checkpoint generation at or past
    /// the base (walking the fallback ladder past damaged ones).
    /// Returns the number of change records replayed.
    ///
    /// Fails with [`NetError::RecoveryUnavailable`] when the log has a
    /// base and no valid generation covers it — immediately and
    /// explicitly, instead of timing out a deadline on an answer that
    /// could only be wrong.
    ///
    /// Only the graph comes back: the recovery reset left the lead's
    /// dangling book unknown, so the next residual run recomputes.
    fn restore_state(&mut self) -> Result<u64, NetError> {
        if self.streamer.is_none() || self.streamer().log().end() == 0 {
            // Nothing was ever ingested; nothing to rebuild.
            return Ok(0);
        }
        let base = self.streamer().log().base();
        if base > 0 {
            let valid =
                self.driver_store()?
                    .latest_valid(base)
                    .ok_or(NetError::RecoveryUnavailable(
                        "no valid checkpoint generation covers the change log",
                    ))?;
            let t0 = Instant::now();
            let bytes = self.restore_generation(&valid.manifest)?;
            // The loads' migration streams are counted: `quiesce`
            // returns once every record has landed.
            self.quiesce()?;
            self.recovery.ckpt_restores += 1;
            self.recovery.ckpt_restore_nanos += t0.elapsed().as_nanos() as u64;
            self.recovery.ckpt_fallbacks += valid.fallbacks;
            self.tracer
                .span(EventKind::CkptRestore, t0, valid.manifest.generation, bytes);
        }
        Ok(self.streamer().replay()? as u64)
    }

    /// Have the members load the shards of `m`: each member its own,
    /// if it wrote one, and the shards whose writers died or left after
    /// the cut dealt round-robin over the members in id order. Each
    /// member then sweeps what the current view places elsewhere into
    /// counted migration streams. Returns the payload bytes loaded.
    fn restore_generation(&mut self, m: &elga_ckpt::Manifest) -> Result<u64, NetError> {
        let mut members = self.view().agents;
        if members.is_empty() {
            return Err(NetError::Protocol("no member to restore onto"));
        }
        members.sort_by_key(|a| a.id);
        let mut shards: Vec<Vec<AgentId>> = members
            .iter()
            .map(|a| m.agents.iter().copied().filter(|&w| w == a.id).collect())
            .collect();
        let orphans = m
            .agents
            .iter()
            .filter(|&&w| members.iter().all(|a| a.id != w));
        for (i, &w) in orphans.enumerate() {
            shards[i % members.len()].push(w);
        }
        let requests: Vec<(&Addr, Frame)> = members
            .iter()
            .zip(shards)
            .map(|(a, shards)| {
                let load = msg::CkptLoad {
                    generation: m.generation,
                    shards,
                };
                (&a.addr, load.encode())
            })
            .collect();
        let replies = self.transport.request_all_with_retry(
            &requests,
            self.cfg.request_timeout,
            &self.cfg.send_policy,
        );
        let mut bytes = 0;
        for rep in replies {
            match msg::CkptLoadReport::decode(&rep?) {
                Some(r) if r.ok => bytes += r.bytes,
                _ => return Err(NetError::Protocol("validated checkpoint shard unreadable")),
            }
        }
        Ok(bytes)
    }

    // ------------------------------------------------------------------
    // Runs
    // ------------------------------------------------------------------

    /// Run a program to completion with default options.
    pub fn run(&mut self, spec: impl Into<ProgramSpec>) -> Result<RunStats, NetError> {
        self.run_with(spec, RunOptions::default())
    }

    /// Run a program with explicit options.
    pub fn run_with(
        &mut self,
        spec: impl Into<ProgramSpec>,
        options: RunOptions,
    ) -> Result<RunStats, NetError> {
        let handle = self.start_run(spec, options)?;
        self.wait_run(handle)
    }

    /// Start a run without blocking; elastic changes may be applied
    /// while it executes (Figure 17).
    pub fn start_run(
        &mut self,
        spec: impl Into<ProgramSpec>,
        options: RunOptions,
    ) -> Result<RunHandle, NetError> {
        // No changes or migrations may be in flight when a run starts:
        // agents buffer edge changes during runs without applying them,
        // so a pre-run in-flight forward would wedge the first barrier.
        self.settle()?;
        let spec = spec.into();
        let info = run_info(&spec, options);
        // Subscribe before starting so neither the done-advance nor a
        // mid-run recovery broadcast can be missed.
        let sub = self
            .transport
            .subscribe(&bus_addr(), &[packet::ADVANCE, packet::RECOVER])?;
        let rep = self.request(info.encode())?;
        let run_id = rep
            .reader()
            .u64()
            .ok_or(NetError::Protocol("bad start reply"))?;
        Ok(RunHandle {
            run_id,
            sub,
            started: Instant::now(),
            spec,
            options,
        })
    }

    /// Block until the run completes and collect its statistics.
    ///
    /// Bounded by `SystemConfig::run_deadline` (yielding
    /// `NetError::Timeout` past it, after one stderr line that says what
    /// the lead waited on, [`stall_line`]). If an agent dies mid-run,
    /// the lead's RECOVER broadcast arrives here; the driver waits out
    /// the survivors' reset, replays the retained change log, and
    /// restarts the aborted run — all under the same deadline.
    pub fn wait_run(&mut self, mut handle: RunHandle) -> Result<RunStats, NetError> {
        let deadline = handle.started + self.cfg.run_deadline;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(self.gave_up("run", self.cfg.run_deadline));
            }
            let slice = (deadline - now).min(Duration::from_millis(100));
            let d = match handle.sub.recv_timeout(slice) {
                Ok(d) => d,
                Err(NetError::Timeout) => continue,
                Err(e) => return Err(e),
            };
            match d.frame.packet_type() {
                packet::ADVANCE => {
                    if let Some(adv) = msg::Advance::decode(&d.frame) {
                        if adv.run == handle.run_id && adv.done {
                            break;
                        }
                    }
                }
                packet::RECOVER => {
                    if let Some(rec) = msg::Recover::decode(&d.frame) {
                        self.recover_and_restart(&mut handle, rec)?;
                    }
                }
                _ => {}
            }
        }
        let total = handle.started.elapsed();
        let rep = self.request(Frame::signal(packet::RUN_STATUS))?;
        let status = msg::RunStatus::decode(&rep).ok_or(NetError::Protocol("bad run status"))?;
        Ok(RunStats {
            run_id: handle.run_id,
            steps: status.steps,
            step_durations: status
                .step_nanos
                .iter()
                .map(|&ns| Duration::from_nanos(ns))
                .collect(),
            n_vertices: status.n_vertices,
            total,
        })
    }

    /// Drive recovery after the lead evicted a dead agent mid-run: reap
    /// its thread, rebuild ([`Cluster::recover`]) unless that was done
    /// for this reset already, and — when the failure aborted this
    /// handle's run — restart it (the handle adopts the new run id).
    fn recover_and_restart(
        &mut self,
        handle: &mut RunHandle,
        rec: msg::Recover,
    ) -> Result<(), NetError> {
        if let Some(h) = self.agent_handles.remove(&rec.dead_agent) {
            let _ = h.join();
        }
        if rec.epoch <= self.recovered_epoch {
            return Ok(());
        }
        self.recover(rec.epoch)?;
        if rec.aborted_run == handle.run_id {
            let rep = self.request(run_info(&handle.spec, handle.options).encode())?;
            handle.run_id = rep
                .reader()
                .u64()
                .ok_or(NetError::Protocol("bad start reply"))?;
        }
        Ok(())
    }

    /// Rebuild after the recovery reset of `epoch`
    /// ([`Cluster::restore_state`]) once the survivors have settled.
    fn recover(&mut self, epoch: u64) -> Result<(), NetError> {
        self.recovered_epoch = epoch;
        let t0 = Instant::now();
        self.quiesce()?;
        let replayed = self.restore_state()?;
        self.quiesce()?;
        self.recovery.recoveries += 1;
        self.recovery.recovery_nanos += t0.elapsed().as_nanos() as u64;
        self.recovery.replayed_records += replayed;
        self.tracer
            .span(EventKind::RecoveryDone, t0, epoch, replayed);
        Ok(())
    }

    /// Broadcast a label-reset (incremental WCC deletion handling):
    /// every primary vertex whose current state is in `labels` is
    /// re-initialized and activated on the next incremental run.
    pub fn reset_labels(&self, labels: &[u64]) {
        let _ = self.request(msg::encode_reset_labels(labels));
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Read `v` from the snapshot of the last completed run: a
    /// QUERY_BATCH of one to its primary under the current view.
    /// `None` when the vertex does not exist or has no completed-run
    /// value yet.
    pub fn query_u64(&self, v: u64) -> Option<u64> {
        let view = self.view();
        let primary = view.locator().ring().owner(v)?;
        let (rep, _) = self
            .transport
            .request_with_retry(
                view.addr_of(primary)?,
                msg::encode_query_batch(&[v]),
                self.cfg.request_timeout,
                &self.cfg.send_policy,
            )
            .ok()?;
        let answer = msg::decode_query_batch_rep(&rep)?.records.iter().next()?;
        (answer.found == msg::ANSWER_HIT).then_some(answer.state)
    }

    /// [`Cluster::query_u64`] decoded as `f64` (PageRank).
    pub fn query_f64(&self, v: u64) -> Option<f64> {
        self.query_u64(v).map(f64::from_bits)
    }

    /// Bulk-extract the authoritative state of every vertex: one DUMP
    /// round over the agents, each answering for the vertices it is
    /// primary for. Decode per the algorithm that ran (e.g.
    /// `f64::from_bits` for PageRank).
    pub fn dump_states(&self) -> std::collections::HashMap<u64, u64> {
        let mut out = std::collections::HashMap::new();
        let replies = self.request_agents(&self.view().agents, Frame::signal(packet::DUMP));
        for rep in replies.into_iter().flatten() {
            out.extend(msg::decode_dump(&rep).into_iter().flatten());
        }
        out
    }

    // ------------------------------------------------------------------
    // Metrics and autoscaling
    // ------------------------------------------------------------------

    /// Aggregated agent metrics from the directory. A METRICS round
    /// first has every agent push its report, so the aggregate reflects
    /// all work finished before this call.
    ///
    /// An unreachable agent is retried once against a re-fetched view
    /// (it may have moved or departed between the view fetch and the
    /// request). If any *current* member still cannot be drained, the
    /// aggregate is marked [`ClusterMetrics::partial`] rather than
    /// silently passing off stale numbers as fresh ones;
    /// [`ClusterMetrics::agents_drained`] counts the reports that did
    /// land.
    pub fn metrics(&self) -> ClusterMetrics {
        let agents = self.view().agents;
        let mut failed: Vec<AgentId> = Vec::new();
        let mut drained: u64 = 0;
        let ask = Frame::signal(packet::METRICS);
        let replies = self.request_agents(&agents, ask.clone());
        for (a, rep) in agents.iter().zip(replies) {
            match rep {
                Ok(_) => drained += 1,
                Err(_) => failed.push(a.id),
            }
        }
        let mut partial = false;
        if !failed.is_empty() {
            // Evicted or departed since the first round: not a member
            // any more, so its absence is not partiality.
            let mut again = self.view().agents;
            again.retain(|a| failed.contains(&a.id));
            for rep in self.request_agents(&again, ask.clone()) {
                match rep {
                    Ok(_) => drained += 1,
                    Err(_) => partial = true,
                }
            }
        }
        let mut agg = self
            .request(Frame::signal(packet::GET_METRICS))
            .ok()
            .and_then(|f| ClusterMetrics::decode(&f))
            .unwrap_or_default();
        agg.agents_drained = drained;
        agg.partial = partial;
        // The fault layer is driver-owned; agents never see drops.
        if let Some(fault) = self.fault() {
            agg.messages_dropped = fault.stats().dropped();
        }
        // Recovery is driven from here, so its accounting is too — the
        // directory aggregate cannot know it.
        agg.recoveries = self.recovery.recoveries;
        agg.recovery_nanos = self.recovery.recovery_nanos;
        agg.ckpt_restores = self.recovery.ckpt_restores;
        agg.ckpt_restore_nanos = self.recovery.ckpt_restore_nanos;
        agg.ckpt_fallbacks = self.recovery.ckpt_fallbacks;
        agg.replayed_records = self.recovery.replayed_records;
        agg
    }

    /// Feed a metric observation to an autoscaling policy and apply
    /// its decision (§4.9). Returns the new agent count if scaled.
    pub fn autoscale_once(&mut self, policy: &mut dyn Autoscaler, metric: f64) -> Option<usize> {
        let target = policy.observe(metric, Instant::now())?;
        let current = self.agent_count();
        use std::cmp::Ordering;
        match target.cmp(&current) {
            Ordering::Greater => {
                self.add_agents(target - current);
            }
            Ordering::Less => {
                // One batched LEAVE: a single view change and one
                // migration barrier regardless of how far down we go.
                self.remove_agents(current - target);
            }
            Ordering::Equal => {}
        }
        Some(target)
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Drain every participant's trace buffer into named tracks: the
    /// lead directory, each live agent, the streamer (if one was
    /// created), plus the buffers of agents that already departed,
    /// as their threads returned them. Draining consumes events — a second call returns only
    /// what happened since. Empty unless [`SystemConfig::tracing`] is
    /// on.
    pub fn collect_traces(&mut self) -> Vec<(String, Vec<TraceEvent>)> {
        let mut tracks = std::mem::take(&mut self.trace_tracks);
        if !self.cfg.tracing {
            return tracks;
        }
        if let Ok(rep) = self.request(Frame::signal(packet::TRACE_DUMP)) {
            if let Some((events, _dropped)) = elga_trace::decode_events(rep.payload()) {
                tracks.push(("directory-0".to_string(), events));
            }
        }
        let agents = self.view().agents;
        let replies = self.request_agents(&agents, Frame::signal(packet::TRACE_DUMP));
        tracks.extend(agents.iter().zip(replies).filter_map(|(a, rep)| {
            let (events, _dropped) = elga_trace::decode_events(rep.ok()?.payload())?;
            Some((format!("agent-{}", a.id), events))
        }));
        if let Some(s) = &self.streamer {
            let (events, _dropped) = s.tracer().drain();
            if !events.is_empty() {
                tracks.push(("streamer".to_string(), events));
            }
        }
        let (events, _dropped) = self.tracer.drain();
        if !events.is_empty() {
            tracks.push(("driver".to_string(), events));
        }
        tracks
    }

    /// [`Cluster::collect_traces`] rendered as Chrome-trace JSON — load
    /// the string in Perfetto or `chrome://tracing`; each participant
    /// gets its own named track.
    pub fn chrome_trace(&mut self) -> String {
        let tracks = self.collect_traces();
        elga_trace::chrome_trace_json(&tracks)
    }

    // ------------------------------------------------------------------
    // Shutdown
    // ------------------------------------------------------------------

    /// Stop every entity and join their threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if !self.alive {
            return;
        }
        self.alive = false;
        let _ = self.request(Frame::signal(packet::SHUTDOWN));
        if let Ok(out) = self.transport.sender(&master_addr()) {
            let _ = out.send(Frame::signal(packet::SHUTDOWN));
        }
        for (_, h) in self.agent_handles.drain() {
            let _ = h.join();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Build the wire `RunInfo` for a spec (run id assigned by the lead).
///
/// Resolves the run's execution flavor once, at the driver: a program
/// that declines async (e.g. exact PageRank with `tolerance == 0`) is
/// downgraded to synchronous here, and the incremental-delta engine is
/// engaged for residual programs whenever previous state can exist —
/// either carried over explicitly (`reuse_state`) or implicitly by the
/// async path committing directly onto primaries.
fn run_info(spec: &ProgramSpec, options: RunOptions) -> RunInfo {
    let program = spec.instantiate();
    let program = program.as_dyn();
    let asynchronous =
        matches!(options.mode, crate::program::ExecutionMode::Async) && program.supports_async();
    let delta = program.delta_kind() == crate::program::DeltaKind::Residual
        && (options.reuse_state || asynchronous);
    let (tag, params) = spec.encode();
    RunInfo {
        run_id: 0,
        tag,
        params,
        reuse_state: options.reuse_state,
        asynchronous,
        delta,
        // Both filled in by the lead at launch, from its tracked mass
        // and its batch clock.
        dangling_base: 0.0,
        watermark: 0,
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `quiesce` past its deadline names what the lead's held answer
    /// waits on, as `Lead::waiting_on` words it.
    #[test]
    fn a_stalled_quiesce_says_what_it_waited_for() {
        let waited = "quiesce of epoch 4; agent 2 owes a DRAIN answer, take in 3 mig from \
                      agent 1; channel (1, 2, mig, 3)";
        assert_eq!(
            stall_line("quiesce", Duration::from_secs(60), Some(waited)),
            "elga quiesce: gave up after 60s: the lead is waiting on quiesce of epoch 4; \
             agent 2 owes a DRAIN answer, take in 3 mig from agent 1; channel (1, 2, mig, 3)"
        );
    }

    /// A run past its deadline names the lead's open barrier as
    /// `Lead::waiting_on` words it, or says the lead did not answer.
    #[test]
    fn a_run_past_its_deadline_says_what_the_lead_waited_on() {
        let waited = "barrier (run 3, step 2, Scatter); agent 2 has reported nothing";
        assert_eq!(
            stall_line("run", Duration::from_secs(120), Some(waited)),
            "elga run: gave up after 120s: the lead is waiting on \
             barrier (run 3, step 2, Scatter); agent 2 has reported nothing"
        );
        assert_eq!(
            stall_line("run", Duration::from_millis(5), None),
            "elga run: gave up after 5ms: the lead is waiting on (the lead did not answer)"
        );
    }
}
