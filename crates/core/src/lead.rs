//! The lead directory's coordination state (paper §3.3, Figure 2).
//!
//! The lead owns the authoritative [`DirectoryView`], evaluates every
//! barrier, and decides every view epoch, run step and recovery. It is
//! a state machine: two inputs — a frame from its mailbox
//! ([`Lead::on_frame`]) and a timer tick ([`Lead::on_tick`]) — each
//! handed the time, and one output, a queue of [`Effect`]s its owner
//! carries out in the order they were queued (`directory::lead_loop`).
//! Nothing here opens a socket, reads the clock or writes a log.
//!
//! A run's sync barrier is met when all its members have reported it:
//! each report lists the records its last phase put on the wire per
//! destination, the lead sums them per receiver into the ADVANCE that
//! answers the barrier, and a receiver acts on that advance once it has
//! taken in its count (DESIGN.md "The superstep"). Every barrier also
//! closes on the channel table ([`Channels`]): each agent's counts per
//! peer as it last reported them. A migrate barrier, an async run's
//! termination and a `quiesce` need every channel balanced, a sync
//! barrier all but its records, and one wave of reports decides it.

use crate::channels::{owed, Channels};
use crate::config::SystemConfig;
use crate::metrics::{AgentMetrics, ClusterMetrics};
use crate::msg::{
    self, packet, Advance, AgentInfo, DirectoryView, DrainReport, Message, Phase, ReadyReport,
    RunInfo, RunStatus, SketchDeltaView, StepCounts,
};
use crate::program::{DeltaKind, Program, ProgramSpec};
use elga_hash::AgentId;
use elga_net::{Addr, Frame};
use elga_sketch::CountMinSketch;
use elga_trace::{EventKind, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// What the lead asks of the world. Its owner carries the queue out in
/// order, so a request's reply follows whatever handling it published
/// (a VIEW before its JOIN reply, START and the step-0 ADVANCE before
/// the `OK(run_id)`).
#[derive(Debug)]
pub(crate) enum Effect {
    /// Broadcast on the bus.
    Publish(Frame),
    /// Answer the frame being handled; dropped when it was a push.
    Reply(Frame),
    /// Push to one participant's mailbox.
    Send(Addr, Frame),
    /// Keep the frame being handled to answer later, under a key.
    Hold(Held),
    /// Answer every frame held under the key.
    Answer(Held, Frame),
    /// One line for the operator.
    Log(String),
}

/// What a held request waits for: a `quiesce`, nothing counted in
/// flight; a `wait_run`, the end of the run in progress or pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Held {
    Quiesce,
    Run(u64),
}

/// Coordination state for an in-progress run.
#[derive(Debug)]
struct Run {
    info: RunInfo,
    max_steps: Option<u32>,
    /// The program's tolerance, which scales the tail cut.
    tolerance: f64,
    step: u32,
    phase: Phase,
    n_vertices: u64,
    global: f64,
    started: Instant,
    step_started: Instant,
    step_nanos: Vec<u64>,
    /// Async mode entered (after initialization phases).
    async_live: bool,
    /// The outstanding `(step, Scatter)` barrier was reached through an
    /// advance that ran apply(`step − 1`): its reports carry that apply's
    /// `active`, and settling it is that step's Apply verdict first.
    verdict_pending: bool,
}

impl Run {
    /// The program the run executes.
    fn program(&self) -> Option<Program> {
        ProgramSpec::decode(self.info.tag, self.info.params).map(|s| s.instantiate())
    }

    /// This run's advance to `(step, phase)` under its vertex count and
    /// global, running that phase alone; every other field at its plain
    /// value.
    fn advance(&self, step: u32, phase: Phase) -> Advance {
        Advance {
            run: self.info.run_id,
            step,
            phase,
            n_vertices: self.n_vertices,
            global: self.global,
            done: false,
            until: phase,
            expect: Vec::new(),
        }
    }

    /// The tail cut (DESIGN.md "The tail cut"): once the folds
    /// of a sync delta run's step pushed at most [`TAIL_SHARE`] of
    /// n · tolerance · S of residual on, the run parks the rest instead
    /// of pushing it down to the tolerance at every vertex. Its next
    /// advances carry an infinite `global`, under which no residual
    /// folds and the step's receivers stay listed for the next run.
    fn cut_tail(&mut self, pushed: f64) {
        let budget = TAIL_SHARE * self.n_vertices as f64 * self.tolerance * self.global;
        if self.info.delta && !self.info.asynchronous && pushed <= budget {
            self.global = f64::INFINITY;
        }
    }
}

/// The share of item 13's bound, ‖r‖₁ ≤ n · tolerance · S, that a sync
/// delta run may leave unfolded above the tolerance ([`Run::cut_tail`]).
const TAIL_SHARE: f64 = 0.5;

/// The lead directory's full coordination state, driven by
/// [`Lead::on_frame`] and [`Lead::on_tick`]; what it decides waits in
/// [`Lead::effects`].
pub(crate) struct Lead {
    view: DirectoryView,
    reports: HashMap<AgentId, ReadyReport>,
    metrics: HashMap<AgentId, AgentMetrics>,
    /// Counters of agents that departed or were evicted, folded from
    /// their last reports so cluster totals never go down.
    departed_metrics: ClusterMetrics,
    run: Option<Run>,
    next_run_id: u64,
    pending_joins: Vec<AgentInfo>,
    pending_leaves: Vec<AgentId>,
    /// The view's sketch holds a fold under which some vertex's
    /// replication factor may have changed, and the epoch that
    /// publishes it has not been opened yet.
    pending_sketch: bool,
    /// Epoch of the outstanding migrate barrier, if any.
    migrate_epoch: Option<u64>,
    /// Members of the outstanding migrate barrier (view agents plus
    /// departers).
    migrate_members: Vec<AgentId>,
    /// Agents currently draining before departure, at the addresses
    /// they registered: the OK that releases one goes there.
    departing: Vec<AgentInfo>,
    /// Every member's counts per peer since the last recovery reset.
    channels: Channels,
    /// While a `quiesce` is held: the members a DRAIN of it has not
    /// been answered by yet, with what each was told to take in first.
    quiesce: Option<BTreeMap<AgentId, msg::Rows>>,
    /// DRAIN fan-outs sent, the first of each `quiesce` and every one
    /// that asked again.
    quiesce_waves: u64,
    /// Resume point once a mid-run migrate barrier settles.
    resume: Option<Advance>,
    /// A run requested while the system was migrating; starts once the
    /// barrier settles.
    pending_start: Option<RunInfo>,
    last_status: RunStatus,
    /// Last METRICS push (or any other agent frame) per watched agent:
    /// view members and departers still draining.
    last_seen: HashMap<AgentId, Instant>,
    /// Agents declared dead and evicted by failure detection.
    agents_recovered: u64,
    /// The VIEW that opened the outstanding migrate barrier, kept for
    /// re-publication: a joiner whose bus subscription registers a
    /// moment after its JOIN is handled misses the original broadcast,
    /// and without a repeat it can never send the READY that settles
    /// the barrier.
    barrier_broadcast: Option<Frame>,
    /// When the barrier broadcast was last published.
    barrier_published: Instant,
    /// The sum S of the states a residual program's last run left, which
    /// the served values are normalized by; 0 = unknown (no such run
    /// since start-up or the last recovery reset), under which a
    /// residual run starts from scratch ([`Lead::launch_run`]).
    sum: f64,
    /// Changes of that sum handed over by departing agents, which the
    /// next residual `done` adds.
    sum_carry: f64,
    /// Event recorder (view changes, heartbeat misses, recoveries);
    /// disabled unless `cfg.tracing`.
    tracer: Tracer,
    /// [`DirectoryView::may_split`] of the current view: one pass over
    /// the sketch per view epoch, read once per superstep. A quiet fold
    /// moves no counter across a factor boundary, so it cannot change it.
    may_split: bool,
    /// The counts the last barrier's answer told the members to take
    /// in, and the barrier they are of ([`Advance::answers`]); only
    /// [`Lead::waiting_on`] reads them.
    expected: ((u32, Phase), StepCounts),
    stall: Stall,
    /// The time of the input being handled.
    now: Instant,
    /// How often a tick looks for dead agents and repeats an open
    /// barrier's broadcast.
    heartbeat_interval: Duration,
    /// Silence after which a watched agent is declared dead.
    failure_window: Duration,
    /// When failure detection last looked.
    checked: Instant,
    effects: Vec<Effect>,
}

/// What [`Lead::report_stall`] remembers between ticks.
struct Stall {
    /// The barrier last seen open ([`Lead::open_barrier`]).
    barrier: Option<(u64, u32, Phase)>,
    /// When it was first seen.
    since: Instant,
    /// Whether it has been reported.
    reported: bool,
}

/// A barrier that has stood this long gets one log line saying who it
/// waits on.
const STALL_REPORT_AFTER: Duration = Duration::from_secs(10);

impl Lead {
    pub(crate) fn new(cfg: &SystemConfig, now: Instant) -> Self {
        Lead {
            view: DirectoryView {
                epoch: 1,
                reset: 0,
                batch_id: 0,
                n_vertices: 0,
                agents: Vec::new(),
                sketch: CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth),
                hash: cfg.hash,
                virtual_agents: cfg.virtual_agents,
                replication_threshold: cfg.replication_threshold,
                max_replicas: cfg.max_replicas,
            },
            reports: HashMap::new(),
            metrics: HashMap::new(),
            departed_metrics: ClusterMetrics::default(),
            run: None,
            next_run_id: 1,
            pending_joins: Vec::new(),
            pending_leaves: Vec::new(),
            pending_sketch: false,
            migrate_epoch: None,
            migrate_members: Vec::new(),
            departing: Vec::new(),
            channels: Channels::default(),
            quiesce: None,
            quiesce_waves: 0,
            resume: None,
            pending_start: None,
            last_status: RunStatus::default(),
            last_seen: HashMap::new(),
            agents_recovered: 0,
            barrier_broadcast: None,
            barrier_published: now,
            sum: 0.0,
            sum_carry: 0.0,
            tracer: Tracer::from_flag(cfg.tracing),
            may_split: false,
            expected: ((0, Phase::Scatter), Vec::new()),
            stall: Stall {
                barrier: None,
                since: now,
                reported: false,
            },
            now,
            heartbeat_interval: cfg.heartbeat_interval,
            failure_window: cfg.heartbeat_interval * cfg.heartbeat_misses,
            checked: now,
            effects: Vec::new(),
        }
    }

    /// What the inputs so far asked of the world, oldest first; the
    /// queue keeps its buffer for the next input.
    pub(crate) fn effects(&mut self) -> std::vec::Drain<'_, Effect> {
        self.effects.drain(..)
    }

    /// Take one frame from the lead's mailbox at `now`. A request's
    /// answer is queued as one [`Effect::Reply`], after everything its
    /// handling published — but for JOIN's, which goes ahead of the VIEW
    /// it names.
    pub(crate) fn on_frame(&mut self, now: Instant, frame: &Frame) {
        self.now = now;
        match frame.packet_type() {
            packet::READY => {
                if let Some(rep) = ReadyReport::decode(frame) {
                    self.on_ready(rep);
                }
            }
            packet::JOIN => {
                let Some(info) = AgentInfo::decode(frame) else {
                    return self.reply(Frame::signal(packet::OK));
                };
                // The reply hands the joiner the view — the one that
                // names it, if nothing was in flight — and the run in
                // progress. It is queued ahead of that view's VIEW: the
                // joiner's thread waits on it, while the founders start
                // to sweep on the VIEW.
                let run = self.run.as_ref().map(|r| r.info);
                self.saw(info.id);
                self.pending_joins.push(info);
                let published = self.effects.len();
                if !self.busy() {
                    self.apply_membership();
                }
                let view = self.view.clone();
                let reply = Effect::Reply(msg::JoinReply { view, run }.encode());
                self.effects.insert(published, reply);
                self.evaluate();
            }
            packet::LEAVE => {
                // One frame may carry any number of departing ids;
                // queueing them all before one apply_membership retires
                // the whole batch in a single view change + migration.
                let queued = self.pending_leaves.len();
                let mut r = frame.reader();
                while let Some(id) = r.u64() {
                    self.pending_leaves.push(id);
                }
                if self.pending_leaves.len() > queued {
                    if !self.busy() {
                        self.apply_membership();
                    }
                    self.evaluate();
                }
                self.reply(Frame::signal(packet::OK));
            }
            packet::DRAIN => match DrainReport::decode(frame) {
                // The driver's `quiesce`, held until nothing counted is
                // in flight; each member is told what the streamer sent it.
                Some(ask) if ask.agent == 0 => {
                    self.effects.push(Effect::Hold(Held::Quiesce));
                    if self.quiesce.is_none() {
                        self.quiesce = Some(BTreeMap::new());
                        let streamed =
                            |id| ask.rows.iter().filter(move |r| r.0 == id).map(|r| (0, r.1));
                        let asks = self
                            .member_ids()
                            .into_iter()
                            .map(|id| (id, streamed(id).collect()));
                        self.drain(asks.collect());
                    }
                    self.evaluate();
                }
                Some(rep) if rep.epoch >= self.view.reset => {
                    self.saw(rep.agent);
                    self.channels.report(rep.agent, &rep.rows);
                    if let Some(asked) = self.quiesce.as_mut() {
                        asked.remove(&rep.agent);
                    }
                    self.evaluate();
                }
                _ => {}
            },
            packet::SKETCH_DELTA => {
                if let Some(delta) = msg::decode_sketch_delta(frame) {
                    self.fold_sketch(&delta);
                }
            }
            packet::START => {
                let answer = match RunInfo::decode(frame) {
                    Some(info) => Frame::builder(packet::OK)
                        .u64(self.start_run(info))
                        .finish(),
                    None => Frame::signal(packet::OK),
                };
                self.reply(answer);
            }
            packet::GET_VIEW => {
                // A Streamer about to route a batch names the epoch it
                // routes by: the batch clock ticks, and the view goes
                // back only when a newer one has opened.
                let held = frame.reader().u64();
                if held.is_some() {
                    self.view.batch_id += 1;
                }
                self.reply(if held == Some(self.view.epoch) {
                    Frame::builder(packet::OK).u64(self.view.epoch).finish()
                } else {
                    self.view.encode()
                });
            }
            // A run id asks to be answered when that run ends; 0, what
            // an open barrier waits on.
            packet::RUN_STATUS => match frame.reader().u64() {
                Some(0) => self.reply(
                    Frame::builder(packet::OK)
                        .bytes(self.waiting_on().as_bytes())
                        .finish(),
                ),
                Some(run) if self.runs(run) => self.effects.push(Effect::Hold(Held::Run(run))),
                _ => self.reply(self.status().encode()),
            },
            packet::METRICS => {
                if let Some(m) = AgentMetrics::decode(frame) {
                    self.saw(m.agent);
                    // A straggler from an agent that already left must
                    // not re-enter the map: its report is in the
                    // departed totals.
                    let departing = self.departing.iter().any(|a| a.id == m.agent);
                    if self.view.addr_of(m.agent).is_some() || departing {
                        // A link broken since the last reset: reset
                        // again, evicting no one (DESIGN.md "A broken
                        // link is a recovery").
                        let told = self.metrics.get(&m.agent).map_or(0, |p| p.links_broken);
                        let broke = m.links_broken > told && m.epoch >= self.view.reset;
                        self.metrics.insert(m.agent, m);
                        if broke {
                            self.recover(0);
                        }
                    }
                }
            }
            packet::GET_METRICS => {
                let mut agg = ClusterMetrics {
                    agents: self.view.agents.len() as u64,
                    epoch: self.view.epoch,
                    agents_recovered: self.agents_recovered,
                    quiesce_waves: self.quiesce_waves,
                    ..self.departed_metrics
                };
                for m in self.metrics.values() {
                    agg.absorb(m);
                }
                self.reply(agg.encode());
            }
            packet::TRACE_DUMP => {
                let (events, dropped) = self.tracer.drain();
                self.reply(
                    Frame::builder(packet::TRACE_DUMP)
                        .raw(&elga_trace::encode_events(&events, dropped))
                        .finish(),
                );
            }
            packet::RESET_LABELS => {
                self.publish(frame.clone());
                self.reply(Frame::signal(packet::OK));
            }
            packet::SHUTDOWN => {
                self.publish(Frame::signal(packet::SHUTDOWN));
                self.reply(Frame::signal(packet::OK));
            }
            _ => {}
        }
    }

    /// Let time pass to `now`: failure detection (at most once per
    /// heartbeat interval, so a busy mailbox can neither starve nor
    /// flood it), re-publication of an open migrate barrier, and the
    /// stall report.
    pub(crate) fn on_tick(&mut self, now: Instant) {
        self.now = now;
        if now.saturating_duration_since(self.checked) >= self.heartbeat_interval {
            self.checked = now;
            let window = self.failure_window;
            for dead in self.dead_agents(window) {
                self.tracer.instant_at(
                    EventKind::HeartbeatMiss,
                    now,
                    dead,
                    window.as_millis() as u64,
                );
                self.recover(dead);
            }
        }
        self.republish_barrier();
        self.report_stall();
    }

    fn publish(&mut self, frame: Frame) {
        self.effects.push(Effect::Publish(frame));
    }

    fn reply(&mut self, frame: Frame) {
        self.effects.push(Effect::Reply(frame));
    }

    /// Take in a barrier report and its rows. An agent's reports come
    /// in the order sent (one FIFO route); one counted before the last
    /// recovery reset has no rows to give.
    fn on_ready(&mut self, rep: ReadyReport) {
        self.saw(rep.agent);
        if rep.epoch >= self.view.reset {
            self.channels.report(rep.agent, &rep.rows);
        }
        self.reports.insert(rep.agent, rep);
        self.evaluate();
    }

    /// Re-publish the broadcast that opened the current migrate
    /// barrier if it has been outstanding for a heartbeat interval.
    /// Subscriptions race joins (an agent subscribes, then JOINs; the
    /// view bump publishes during JOIN handling), so the opening
    /// broadcast can be lost; adoption is idempotent on the agent side,
    /// making a periodic repeat safe and sufficient for liveness.
    fn republish_barrier(&mut self) {
        let due =
            self.now.saturating_duration_since(self.barrier_published) >= self.heartbeat_interval;
        if let Some(f) = self.barrier_broadcast.as_ref().filter(|_| due) {
            self.effects.push(Effect::Publish(f.clone()));
            self.barrier_published = self.now;
        }
    }

    /// Record liveness for an agent-originated push.
    fn saw(&mut self, id: AgentId) {
        self.last_seen.insert(id, self.now);
    }

    fn busy(&self) -> bool {
        self.run.is_some() || self.migrate_epoch.is_some()
    }

    /// Whether the barrier `phase` closes on record channels too: a
    /// sync barrier counts them per step instead.
    fn all_records(&self, phase: Phase) -> bool {
        phase == Phase::Migrate || self.run.as_ref().is_some_and(|r| r.async_live)
    }

    /// All members reported the given context and every channel the
    /// barrier closes on is balanced.
    fn barrier_met(&self, members: &[AgentId], run: u64, step: u32, phase: Phase) -> bool {
        self.all_answered(members, (run, step, phase))
            && self.channels.gaps(self.all_records(phase)).is_empty()
    }

    /// Whether `r` answers the barrier `(run, step, phase)`: it reports
    /// that context, or — in an async run's idle round, `step` 0
    /// ([`Lead::open_barrier`]) — it is an idle report under the
    /// current view epoch, so quiescence observed before a view change
    /// can never end the run that followed it.
    fn answers(&self, r: &ReadyReport, (run, step, phase): (u64, u32, Phase)) -> bool {
        let idle = (self.run.as_ref()).is_some_and(|r| r.async_live && step == 0);
        r.run == run
            && if idle {
                r.step == u32::MAX && r.epoch == self.view.epoch
            } else {
                r.step == step && r.phase == phase
            }
    }

    fn all_answered(&self, members: &[AgentId], barrier: (u64, u32, Phase)) -> bool {
        members.iter().all(|id| {
            self.reports
                .get(id)
                .is_some_and(|r| self.answers(r, barrier))
        })
    }

    /// What the members' reports say their last phase sent, summed per
    /// receiver and sorted by it: the counts the advance that answers
    /// the barrier carries. Read from the reports the barrier was met
    /// on, so a re-sent report replaces its share instead of adding to
    /// it. One `(receiver, records)` entry per non-empty
    /// sender→receiver pair goes in.
    fn expectations(&self, members: &[AgentId]) -> StepCounts {
        let mut pairs: StepCounts = members
            .iter()
            .flat_map(|id| self.reports[id].sent.iter().copied())
            .collect();
        pairs.sort_unstable_by_key(|&(to, _)| to);
        pairs.dedup_by(|next, sum| {
            let same = next.0 == sum.0;
            if same {
                sum.1 += next.1;
            }
            same
        });
        pairs
    }

    fn member_ids(&self) -> Vec<AgentId> {
        self.view.agents.iter().map(|a| a.id).collect()
    }

    /// The `(run, step, phase)` the outstanding barrier's reports carry:
    /// a migrate epoch, a sync phase, or — `(0, Combine)` — an async
    /// run's idle round.
    fn open_barrier(&self) -> Option<(u64, u32, Phase)> {
        if let Some(epoch) = self.migrate_epoch {
            return Some((0, epoch as u32, Phase::Migrate));
        }
        let run = self.run.as_ref()?;
        Some(if run.async_live {
            (run.info.run_id, 0, Phase::Combine)
        } else {
            (run.info.run_id, run.step, run.phase)
        })
    }

    /// What the lead waits on, from what it holds: the open barrier's
    /// members that have not reported it, what they reported last and
    /// how many records of which kind and step the last answer told each
    /// to take in — a member missing after such an advance is short of
    /// its count or still computing — or, with no barrier open, a held
    /// `quiesce`'s members whose DRAIN answer is parked, with what each
    /// was told to take in; then every channel the wait closes on that
    /// is unbalanced, as `(from, to, kind, sent − taken in)`.
    fn waiting_on(&self) -> String {
        let Some(barrier @ (run, step, phase)) = self.open_barrier() else {
            let Some(asked) = &self.quiesce else {
                return "no barrier open".into();
            };
            let epoch = self.view.epoch;
            return format!("quiesce of epoch {epoch}")
                + &owed(asked)
                + &self.channels.describe(true);
        };
        let idle_round = self.run.as_ref().is_some_and(|r| r.async_live) && step == 0;
        let members = match phase {
            Phase::Migrate => self.migrate_members.clone(),
            _ => self.member_ids(),
        };
        let mut out = match phase {
            Phase::Migrate => format!("migrate barrier of epoch {step}"),
            _ if idle_round => format!("run {run}, async idle round"),
            _ => format!("barrier (run {run}, step {step}, {phase:?})"),
        };
        for id in &members {
            let rep = self.reports.get(id);
            if rep.is_some_and(|r| self.answers(r, barrier)) {
                continue;
            }
            out += &match rep {
                Some(r) => format!(
                    "; agent {id} last reported (run {}, step {}, {:?}) under epoch {}",
                    r.run, r.step, r.phase, r.epoch
                ),
                None => format!("; agent {id} has reported nothing"),
            };
            let ((of_step, of_phase), expect) = &self.expected;
            if let Some((_, n)) = expect.iter().find(|(to, _)| to == id) {
                let kind = match of_phase {
                    Phase::Scatter => "VMSG",
                    Phase::Combine => "PARTIAL",
                    _ => "STATE",
                };
                out += &format!(", told to take in {n} {kind} records of step {of_step}");
            }
        }
        out + &self.channels.describe(self.all_records(phase))
    }

    /// Called from the tick: one log line, once, for a barrier that has
    /// stood [`STALL_REPORT_AFTER`].
    fn report_stall(&mut self) {
        let barrier = self.open_barrier();
        if barrier != self.stall.barrier {
            self.stall = Stall {
                barrier,
                since: self.now,
                reported: false,
            };
        } else if barrier.is_some()
            && !self.stall.reported
            && self.now.saturating_duration_since(self.stall.since) >= STALL_REPORT_AFTER
        {
            self.stall.reported = true;
            let line = format!("elga lead: waiting on {}", self.waiting_on());
            self.effects.push(Effect::Log(line));
        }
    }

    /// The view's membership changed, or its sketch in a way that can
    /// change a placement: open its next epoch and re-read what the
    /// lead keeps per epoch. Decrements leave the row maxima loose, so
    /// a bound that allows a split is rescanned before it is believed.
    fn next_epoch(&mut self) {
        self.view.epoch += 1;
        if self.view.may_split() {
            self.view.sketch.rescan_bound();
        }
        self.may_split = self.view.may_split();
    }

    /// A join, a leave or a sketch fold that needs an epoch is queued
    /// behind the run.
    fn membership_pending(&self) -> bool {
        !self.pending_joins.is_empty() || !self.pending_leaves.is_empty() || self.pending_sketch
    }

    /// Fold the degree changes an agent applied into the view's sketch,
    /// and say whether a counter they changed crossed a replication
    /// factor boundary. An estimate is the minimum of its counters and
    /// the factor is monotone in it, so if no counter changed factor no
    /// vertex's `k` did, and the placement function — what a view epoch
    /// names — is the one every participant already holds (DESIGN.md
    /// "Degrees come from the agents"). Such a fold is *quiet*: complete
    /// on return, with no epoch, no VIEW, no barrier and nothing pending
    /// that a step or an async run would stop for. Any other
    /// fold gets its epoch the way a membership change does: now, or at
    /// the run's next boundary.
    fn fold_sketch(&mut self, delta: &SketchDeltaView<'_>) -> bool {
        // Counted before the last recovery reset: the replay recounts
        // what is left of it.
        if delta.epoch < self.view.reset {
            return false;
        }
        let (config, agents) = (self.view.locator_config(), self.view.agents.len());
        let factor = |count: u32| config.replication_factor(u64::from(count), agents);
        // A mismatched delta is a client bug; it is dropped rather than
        // let poison the view.
        if !matches!(delta.fold_into(&mut self.view.sketch, factor), Ok(true)) {
            return false;
        }
        self.pending_sketch = true;
        if !self.busy() {
            self.apply_membership();
        }
        self.evaluate();
        true
    }

    /// How far the advance that answers the step's Scatter barrier runs
    /// (DESIGN.md "The superstep"): to `Combine` while a vertex can be
    /// split, as PARTIAL records can cross; to `Apply` where nothing
    /// crosses but the step must end on a clean Apply barrier — a
    /// `max_steps` run's last step, a pending view change, an async
    /// run's step 0; to the next step's `Scatter` otherwise.
    fn until(&self) -> Phase {
        let run = self.run.as_ref().expect("run");
        if self.may_split {
            Phase::Combine
        } else if run.info.asynchronous
            || run.max_steps.is_some_and(|m| run.step >= m)
            || self.membership_pending()
        {
            Phase::Apply
        } else {
            Phase::Scatter
        }
    }

    /// Fold the queued joins and leaves into the view: a joiner is
    /// added once, a leaver moves to the departers.
    fn fold_membership(&mut self) {
        for j in self.pending_joins.drain(..) {
            if self.view.addr_of(j.id).is_none() {
                self.view.agents.push(j);
            }
        }
        for l in self.pending_leaves.drain(..) {
            if let Some(pos) = self.view.agents.iter().position(|a| a.id == l) {
                self.departing.push(self.view.agents.remove(pos));
            }
        }
    }

    /// Apply queued membership changes and publish a pending sketch
    /// fold: bump the epoch, broadcast the view, and open a migrate
    /// barrier.
    fn apply_membership(&mut self) {
        if !self.membership_pending() {
            return;
        }
        self.fold_membership();
        self.pending_sketch = false;
        self.next_epoch();
        self.tracer.instant_at(
            EventKind::ViewAdopt,
            self.now,
            self.view.epoch,
            self.view.agents.len() as u64,
        );
        self.migrate_members = self.member_ids();
        self.migrate_members
            .extend(self.departing.iter().map(|a| a.id));
        self.open_migrate_barrier();
    }

    /// Open the migrate barrier of the current epoch: publish its VIEW.
    fn open_migrate_barrier(&mut self) {
        let frame = self.view.encode();
        self.migrate_epoch = Some(self.view.epoch);
        self.barrier_broadcast = Some(frame.clone());
        self.barrier_published = self.now;
        self.publish(frame);
    }

    /// Send the post-drain OK to departed agents, stop watching them
    /// and drop their channels, which the barrier just balanced.
    fn release_departers(&mut self) {
        for AgentInfo { id, addr } in self.departing.drain(..) {
            self.channels.forget(id);
            if let Some(asked) = self.quiesce.as_mut() {
                asked.remove(&id);
            }
            if let Some(rep) = self.reports.remove(&id) {
                // A departer's final READY hands over the change of its
                // primaries' sum that no `done` took in yet.
                self.sum_carry += rep.global_contrib;
            }
            if let Some(m) = self.metrics.remove(&id) {
                self.departed_metrics.absorb_departed(&m);
            }
            self.last_seen.remove(&id);
            // A departer is out of the view: its OK goes to the
            // address it registered.
            self.effects
                .push(Effect::Send(addr, Frame::signal(packet::OK)));
        }
    }

    /// Watched agents — view members and departers still draining —
    /// whose last sign of life is older than `window`. An agent with no
    /// recorded liveness is stamped now rather than reported, so a
    /// freshly joined agent gets a full window before its first
    /// METRICS push is due.
    fn dead_agents(&mut self, window: Duration) -> Vec<AgentId> {
        let mut dead = Vec::new();
        let departing = self.departing.iter().map(|a| a.id);
        let watched: Vec<AgentId> = self.member_ids().into_iter().chain(departing).collect();
        for id in watched {
            match self.last_seen.get(&id) {
                Some(&t) if self.now.saturating_duration_since(t) > window => dead.push(id),
                Some(_) => {}
                None => self.saw(id),
            }
        }
        dead
    }

    /// Evict a dead agent — a member, or a departer that died draining
    /// — and rewind the whole system; `dead` 0 evicts no one, after a
    /// broken link.
    ///
    /// Exact reconciliation is impossible after an unplanned loss:
    /// records in flight to or from the dead agent, or on the broken
    /// link, are unaccounted for, and a dead agent's primary vertex
    /// state is gone. Instead survivors
    /// drop all graph state and zero their counts (so the fresh
    /// migrate barrier settles trivially), any active run is aborted,
    /// and the driver replays the retained change log before
    /// restarting the run.
    fn recover(&mut self, dead: AgentId) {
        // Fold queued joins in so a joiner racing the recovery is not
        // evicted by the broadcast view; queued leaves and departers
        // exit on receipt of a reset view that omits them — after the
        // reset they hold no data worth draining.
        self.fold_membership();
        for a in self.departing.drain(..) {
            self.last_seen.remove(&a.id);
        }
        self.view.agents.retain(|a| a.id != dead);
        self.last_seen.remove(&dead);
        if let Some(m) = self.metrics.remove(&dead) {
            self.departed_metrics.absorb_departed(&m);
        }
        // The table counted the graph the reset wipes. It starts over
        // at zero, and the agents count what the restore and the replay
        // put back; a delta counted before the epoch opened below is
        // dropped when it arrives.
        self.pending_sketch = false;
        self.view.sketch.clear();
        // The reset rewinds every count to zero, and a survivor drops
        // a DRAIN it has not answered: its recovery READY stands in for
        // the answer.
        self.reports.clear();
        self.channels.clear();
        if let Some(asked) = self.quiesce.as_mut() {
            asked.clear();
        }
        // The sum describes states the reset wiped: unknown until a
        // finished run re-establishes it.
        (self.sum, self.sum_carry) = (0.0, 0.0);
        self.resume = None;
        let aborted = self
            .run
            .take()
            .map(|r| r.info.run_id)
            .or_else(|| self.pending_start.take().map(|i| i.run_id))
            .unwrap_or(0);
        self.next_epoch();
        self.view.reset = self.view.epoch;
        if aborted != 0 {
            self.last_status = RunStatus {
                run_id: aborted,
                n_vertices: self.view.n_vertices,
                dead_agent: dead,
                ..RunStatus::default()
            };
        }
        self.tracer
            .instant_at(EventKind::RecoveryTrigger, self.now, self.view.epoch, dead);
        self.migrate_members = self.member_ids();
        self.agents_recovered += u64::from(dead != 0);
        self.open_migrate_barrier();
        if aborted != 0 {
            let status = self.last_status.encode();
            self.effects
                .push(Effect::Answer(Held::Run(aborted), status));
        }
        // Zero survivors: the barrier is trivially met.
        self.evaluate();
    }

    /// Re-evaluate all outstanding barriers until no further progress
    /// is possible, then a held `quiesce`; called on every report (and
    /// after start/membership changes, so zero-member edge cases cannot
    /// stall).
    fn evaluate(&mut self) {
        for _ in 0..1024 {
            if !self.evaluate_once() {
                break;
            }
        }
        self.evaluate_quiesce();
    }

    /// Answer a held `quiesce` — `OK` and the epoch of the last recovery
    /// reset — once no migration or run is pending, every DRAIN of it is
    /// answered and every channel balanced; else ask again whoever can
    /// balance it ([`Channels::asks`]).
    fn evaluate_quiesce(&mut self) {
        let answered = self.quiesce.as_ref().is_some_and(BTreeMap::is_empty);
        if !answered || self.busy() || self.membership_pending() || self.pending_start.is_some() {
            return;
        }
        let asks = self.channels.asks();
        if asks.is_empty() {
            self.quiesce = None;
            let answer = Frame::builder(packet::OK).u64(self.view.reset).finish();
            self.effects.push(Effect::Answer(Held::Quiesce, answer));
        } else {
            self.drain(asks);
        }
    }

    /// One DRAIN wave: each member in `asks`, told what to take in
    /// before it answers, owes an answer.
    fn drain(&mut self, asks: BTreeMap<AgentId, msg::Rows>) {
        self.quiesce_waves += 1;
        for (id, rows) in asks {
            if let Some(addr) = self.view.addr_of(id).cloned() {
                let ask = DrainReport {
                    agent: 0,
                    epoch: self.view.epoch,
                    rows,
                };
                self.effects.push(Effect::Send(addr, ask.encode()));
                self.quiesce.as_mut().expect("held").insert(id, ask.rows);
            }
        }
    }

    /// One evaluation step. Returns true when a barrier fired.
    fn evaluate_once(&mut self) -> bool {
        // Migrate barriers take precedence: nothing else advances while
        // data is moving.
        if let Some(epoch) = self.migrate_epoch {
            let members = self.migrate_members.clone();
            if !self.barrier_met(&members, 0, epoch as u32, Phase::Migrate) {
                return false;
            }
            self.migrate_epoch = None;
            self.barrier_broadcast = None;
            self.release_departers();
            self.migrate_members.clear();
            if let Some(adv) = self.resume.take() {
                if let Some(run) = self.run.as_mut() {
                    run.step = adv.step;
                    run.phase = adv.phase;
                    run.step_started = self.now;
                    if run.info.asynchronous && adv.phase == Phase::Scatter {
                        // Releasing (or re-releasing) the agents into
                        // event-driven execution: the resumed advance
                        // is answered by idle reports, not a sync
                        // barrier.
                        run.async_live = true;
                    }
                }
                self.publish(adv.encode());
            } else if !self.busy() {
                // Chain queued membership changes, then any deferred
                // run start.
                self.apply_membership();
                if self.migrate_epoch.is_none() {
                    if let Some(info) = self.pending_start.take() {
                        self.launch_run(info);
                    }
                }
            }
            return true;
        }
        let Some(run) = self.run.as_ref() else {
            return false;
        };
        if run.async_live {
            return self.evaluate_async();
        }
        let members = self.member_ids();
        let (run_id, step, phase) = (run.info.run_id, run.step, run.phase);
        if !self.barrier_met(&members, run_id, step, phase) {
            return false;
        }
        self.on_phase_complete();
        true
    }

    /// Handle completion of the current sync phase: answer it with the
    /// counts of what it sent.
    fn on_phase_complete(&mut self) {
        let members = self.member_ids();
        let expect = self.expectations(&members);
        let phase = self.run.as_ref().expect("run").phase;
        match phase {
            Phase::Scatter => {
                // Reached past the previous step's apply, this barrier
                // is that step's Apply verdict before anything else.
                let verdict = std::mem::take(&mut self.run.as_mut().expect("run").verdict_pending);
                if verdict && self.step_verdict(&members) {
                    // The run ended at the step before, and the `done`
                    // carries the counts of the scatter sent since, so no
                    // agent leaves the run with records of it on their
                    // way: dropped as stale, no later `quiesce` could
                    // balance the VMSG sums.
                    let steps = self.run.as_ref().expect("run").step - 1;
                    self.finish_run(steps, expect);
                    return;
                }
                let (mut n, mut global, mut pushed) = (0, 0.0, 0.0);
                for id in &members {
                    let r = &self.reports[id];
                    n += r.n_primary;
                    global += r.global_contrib;
                    pushed += r.pushed;
                }
                self.view.n_vertices = n;
                let until = self.until();
                let run = self.run.as_mut().expect("run");
                run.n_vertices = n;
                if !run.info.delta {
                    run.global = global;
                } else if run.global == 0.0 {
                    // A residual run from scratch serves a sum it does
                    // not know yet: the fold threshold scales by the
                    // bound below it, which n gives.
                    run.global = run
                        .program()
                        .map_or(0.0, |p| p.as_dyn().residual_sum(n, 1.0));
                }
                if verdict {
                    run.cut_tail(pushed);
                }
                let adv = Advance {
                    until,
                    expect,
                    ..run.advance(run.step, Phase::Combine)
                };
                // The next report is `until`'s, of the next step past
                // apply.
                if until == Phase::Scatter {
                    run.step += 1;
                    run.verdict_pending = true;
                }
                run.phase = until;
                self.answer(adv);
            }
            Phase::Combine => {
                let run = self.run.as_mut().expect("run");
                run.phase = Phase::Apply;
                let adv = Advance {
                    expect,
                    ..run.advance(run.step, Phase::Apply)
                };
                self.answer(adv);
            }
            Phase::Apply => {
                let converged = self.step_verdict(&members);
                let pushed = members.iter().map(|id| self.reports[id].pushed).sum();
                let run = self.run.as_mut().expect("run");
                if converged || run.max_steps.is_some_and(|m| run.step >= m) {
                    let steps = run.step;
                    self.finish_run(steps, expect);
                    return;
                }
                run.cut_tail(pushed);
                let run = self.run.as_ref().expect("run");
                let next = run.advance(run.step + 1, Phase::Scatter);
                // Elastic scaling happens at superstep boundaries: if
                // membership changed mid-run, migrate first and resume
                // after (§3.4.3 / Figure 17). Checked before the async
                // transition so a change queued during async
                // initialization migrates now; the resume then doubles
                // as the async release (`next` is exactly the step-1
                // scatter advance, and the resume path re-arms
                // `async_live`). A `Migrate` advance carries the counts
                // of the step's STATE records, and an agent takes the
                // view on once it has them.
                if self.membership_pending() {
                    if !expect.is_empty() {
                        let drain = run.advance(run.step, Phase::Migrate);
                        self.answer(Advance { expect, ..drain });
                    }
                    self.resume = Some(next);
                    self.apply_membership();
                    return;
                }
                let run = self.run.as_mut().expect("run");
                run.step = next.step;
                run.phase = Phase::Scatter;
                // An async run's initialization is step 0: this advance
                // releases its agents into event-driven execution.
                run.async_live = run.info.asynchronous;
                self.answer(Advance { expect, ..next });
            }
            Phase::Migrate => unreachable!("migrate handled separately"),
        }
    }

    /// Publish `adv`, the answer to the barrier that closed, and keep
    /// what it told the members to take in.
    fn answer(&mut self, adv: Advance) {
        self.expected = (adv.answers(), adv.expect.clone());
        self.publish(adv.encode());
    }

    /// Close a superstep's books at its Apply verdict — reached as an
    /// Apply barrier or riding the next step's Scatter barrier: one
    /// `step_nanos` entry, and whether the step converged (no member
    /// left a vertex active).
    fn step_verdict(&mut self, members: &[AgentId]) -> bool {
        let active: u64 = members.iter().map(|id| self.reports[id].active).sum();
        let now = self.now;
        let run = self.run.as_mut().expect("run");
        run.step_nanos
            .push(now.saturating_duration_since(run.step_started).as_nanos() as u64);
        run.step_started = now;
        active == 0
    }

    /// Async termination: every member idle under the current epoch
    /// with every channel balanced. Returns true when it made progress.
    fn evaluate_async(&mut self) -> bool {
        // A membership or sketch change arrived mid-async-run: pause
        // the run behind a migrate barrier; once it settles, the resume
        // advance re-releases the agents, whose idle reports under the
        // new epoch are the only ones that can end the run.
        if self.membership_pending() {
            let run = self.run.as_ref().expect("run");
            self.resume = Some(run.advance(1, Phase::Scatter));
            self.apply_membership();
            return true;
        }
        let run = self.run.as_ref().expect("run");
        let (run_id, steps, members) = (run.info.run_id, run.step, self.member_ids());
        if !self.barrier_met(&members, run_id, 0, Phase::Combine) {
            return false;
        }
        self.finish_run(steps, Vec::new());
        true
    }

    /// End the run after `steps` supersteps with a `done` advance that
    /// answers the open barrier with its counts, `expect`.
    ///
    /// A residual program's `done` carries the sum S its states hold,
    /// which the agents serve them over. A delta run's members report
    /// how far their primaries' sum moved since the last `done` on every
    /// READY, so their last reports and the departers' hand-overs add up
    /// to the change. A full run's normalized states scale to S, which
    /// the vertex count and their dangling mass give: the last Scatter
    /// reduce, taken from these reports when the run ends on one.
    fn finish_run(&mut self, steps: u32, expect: StepCounts) {
        let run = self.run.take().expect("finishing without run");
        let reported: f64 = (self.member_ids().iter())
            .filter_map(|id| self.reports.get(id))
            .map(|r| r.global_contrib)
            .sum();
        let program = run.program();
        let program = program.as_ref().map(Program::as_dyn);
        self.sum = match program {
            Some(p) if p.delta_kind() == DeltaKind::Residual && run.info.delta => {
                self.sum + reported + std::mem::take(&mut self.sum_carry)
            }
            Some(p) if p.delta_kind() == DeltaKind::Residual => {
                let dangling = if run.phase == Phase::Scatter {
                    reported
                } else {
                    run.global
                };
                p.residual_sum(run.n_vertices, dangling)
            }
            _ => 0.0,
        };
        self.answer(Advance {
            done: true,
            global: self.sum,
            expect,
            ..run.advance(run.step, run.phase)
        });
        self.last_status = RunStatus {
            run_id: run.info.run_id,
            done: true,
            steps,
            step_nanos: if run.info.asynchronous {
                vec![self.now.saturating_duration_since(run.started).as_nanos() as u64]
            } else {
                run.step_nanos
            },
            n_vertices: run.n_vertices,
            ..RunStatus::default()
        };
        let status = self.last_status.encode();
        let held = Held::Run(run.info.run_id);
        self.effects.push(Effect::Answer(held, status));
        // Any membership changes queued during the run apply now.
        self.apply_membership();
    }

    /// Accept a run request: assigns the id immediately; the run
    /// launches now or after the outstanding migrate barrier settles.
    fn start_run(&mut self, mut info: RunInfo) -> u64 {
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        info.run_id = run_id;
        if self.busy() {
            self.pending_start = Some(info);
        } else {
            self.launch_run(info);
        }
        run_id
    }

    fn launch_run(&mut self, mut info: RunInfo) {
        debug_assert!(
            self.migrate_epoch.is_none(),
            "a run launched while a migrate barrier is open"
        );
        if info.delta && self.sum == 0.0 {
            // No residual run has finished since start-up or the last
            // recovery reset, so the sum the carried states hold is
            // unknown: recompute. A sync run is then a full run, whose
            // `done` sets it; async PageRank runs residuals anyway.
            info.reuse_state = false;
            info.delta = info.asynchronous;
        }
        if !info.reuse_state {
            // Every state starts over, and so does their sum.
            (self.sum, self.sum_carry) = (0.0, 0.0);
        }
        // The batches this run can have seen: `start_run` is called on
        // a quiesced system, and changes arriving later are buffered
        // until the run is over.
        info.watermark = self.view.batch_id;
        let program = ProgramSpec::decode(info.tag, info.params).map(|s| s.instantiate());
        let program = program.as_ref().map(Program::as_dyn);
        let max_steps = program.and_then(|p| p.max_steps());
        self.reports.clear();
        let run = Run {
            info,
            max_steps,
            tolerance: program.map_or(0.0, |p| p.tolerance()),
            step: 0,
            phase: Phase::Scatter,
            n_vertices: self.view.n_vertices,
            // A delta run's fold threshold scales by the served sum.
            global: if info.delta { self.sum } else { 0.0 },
            started: self.now,
            step_started: self.now,
            step_nanos: Vec::new(),
            async_live: false,
            verdict_pending: false,
        };
        self.publish(info.encode());
        self.publish(run.advance(0, Phase::Scatter).encode());
        self.run = Some(run);
        self.evaluate();
    }

    fn status(&self) -> RunStatus {
        match &self.run {
            Some(run) => RunStatus {
                run_id: run.info.run_id,
                running: true,
                steps: run.step,
                step_nanos: run.step_nanos.clone(),
                n_vertices: run.n_vertices,
                ..RunStatus::default()
            },
            None => self.last_status.clone(),
        }
    }

    /// Whether run `id` is in progress or waits to launch.
    fn runs(&self, id: u64) -> bool {
        self.run.as_ref().map(|r| r.info.run_id) == Some(id)
            || self.pending_start.as_ref().map(|i| i.run_id) == Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::agent_addr;
    use crate::msg::Counters;
    use elga_sketch::SketchDelta;

    fn test_lead() -> Lead {
        Lead::new(&SystemConfig::default(), Instant::now())
    }

    /// A WCC-family run request: `tag` with zero params, full state.
    fn run_info(tag: u8, asynchronous: bool) -> RunInfo {
        RunInfo {
            run_id: 0,
            tag,
            params: [0, 0, 0],
            reuse_state: false,
            asynchronous,
            delta: false,
            watermark: 0,
        }
    }

    impl Lead {
        /// Hold `rep` as its agent's report and its rows in the table,
        /// without evaluating.
        fn put(&mut self, rep: ReadyReport) {
            self.channels.report(rep.agent, &rep.rows);
            self.reports.insert(rep.agent, rep);
        }
    }

    fn ready(agent: AgentId, run: u64, step: u32, phase: Phase, rows: msg::Rows) -> ReadyReport {
        ReadyReport {
            agent,
            run,
            step,
            phase,
            rows,
            active: 0,
            global_contrib: 0.0,
            pushed: 0.0,
            n_primary: 0,
            epoch: 0,
            sent: Vec::new(),
        }
    }

    fn idle(agent: AgentId, run: u64, epoch: u64) -> ReadyReport {
        ReadyReport {
            epoch,
            ..ready(agent, run, u32::MAX, Phase::Scatter, Vec::new())
        }
    }

    /// One rule per kind of barrier, chosen by the phase alone: every
    /// member has reported the context, and every channel is balanced —
    /// except that a sync barrier does not ask about the record kinds,
    /// which the receivers count.
    #[test]
    fn barrier_requires_all_members_and_the_sums_its_phase_rests_on() {
        let mut lead = test_lead();
        let members = vec![1, 2];
        let in_flight = |pair: &str| {
            let mut c = Counters::default();
            match pair {
                "vmsg" => c.vmsg_sent = 5,
                "part" => c.part_sent = 5,
                "state" => c.state_sent = 5,
                "mig" => c.mig_sent = 5,
                "chg" => c.chg_sent = 5,
                _ => {}
            }
            c
        };
        for phase in [Phase::Scatter, Phase::Combine, Phase::Apply, Phase::Migrate] {
            lead.reports.clear();
            lead.channels.clear();
            lead.put(ready(1, 7, 2, phase, Vec::new()));
            assert!(!lead.barrier_met(&members, 7, 2, phase), "missing member");
            lead.put(ready(2, 7, 2, phase, Vec::new()));
            assert!(lead.barrier_met(&members, 7, 2, phase));
            assert!(!lead.barrier_met(&members, 7, 3, phase), "wrong step");
            assert!(!lead.barrier_met(&members, 8, 2, phase), "wrong run");
            for pair in ["vmsg", "part", "state", "mig", "chg"] {
                lead.channels.clear();
                lead.put(ready(1, 7, 2, phase, vec![(2, in_flight(pair))]));
                assert_eq!(
                    lead.barrier_met(&members, 7, 2, phase),
                    phase != Phase::Migrate && matches!(pair, "vmsg" | "part" | "state"),
                    "{phase:?} with {pair} records in flight"
                );
            }
        }
        assert!(
            !lead.barrier_met(&members, 7, 2, Phase::Combine),
            "wrong phase"
        );
    }

    /// A lead with agents 1 and 2 joined and migrated and a run of the
    /// given program started; every effect since is still queued.
    fn lead_mid_run(tag: u8, params: [u64; 3], asynchronous: bool) -> (Lead, u64) {
        lead_mid_run_on(test_lead(), tag, params, asynchronous)
    }

    /// [`lead_mid_run`] on a lead that may have changes queued for its
    /// first view.
    fn lead_mid_run_on(
        mut lead: Lead,
        tag: u8,
        params: [u64; 3],
        asynchronous: bool,
    ) -> (Lead, u64) {
        for id in [1, 2] {
            lead.pending_joins.push(AgentInfo {
                id,
                addr: agent_addr(id),
            });
        }
        lead.apply_membership();
        let epoch = lead.view.epoch as u32;
        report_all(&mut lead, 0, epoch, Phase::Migrate, 0);
        assert_eq!(lead.migrate_epoch, None);
        let run_id = lead.start_run(RunInfo {
            params,
            ..run_info(tag, asynchronous)
        });
        (lead, run_id)
    }

    const WCC: (u8, [u64; 3]) = (1, [0, 0, 0]);

    /// Every member of the barrier reports `(run, step, phase)` with
    /// settled counters and `active` vertices each; the lead evaluates
    /// after each.
    fn report_all(lead: &mut Lead, run: u64, step: u32, phase: Phase, active: u64) {
        let members = match phase {
            Phase::Migrate => lead.migrate_members.clone(),
            _ => lead.member_ids(),
        };
        for id in members {
            let mut rep = ready(id, run, step, phase, Vec::new());
            rep.active = active;
            lead.put(rep);
            lead.evaluate();
        }
    }

    /// The ADVANCE frames published since the last call; every other
    /// queued effect is dropped.
    fn advances(lead: &mut Lead) -> Vec<Advance> {
        published(lead, packet::ADVANCE)
            .iter()
            .filter_map(Advance::decode)
            .collect()
    }

    /// Hand `delta` to the lead as an agent's SKETCH_DELTA push under
    /// the current epoch would arrive; whether the fold may have changed
    /// some vertex's `k`.
    fn fold(delta: SketchDelta, lead: &mut Lead) -> bool {
        let frame = msg::encode_sketch_delta(lead.view.epoch, &delta);
        lead.fold_sketch(&msg::decode_sketch_delta(&frame).unwrap())
    }

    /// A delta for the lead's table counting `count` more (or, below
    /// zero, less) on vertex 77.
    fn hub(lead: &Lead, count: i32) -> SketchDelta {
        let sketch = &lead.view.sketch;
        let mut delta = SketchDelta::new(sketch.width(), sketch.depth());
        delta.add(77, count);
        delta
    }

    /// Vertex 77 counted `over` past the replication threshold.
    fn hub_delta(lead: &Lead, over: i32) -> SketchDelta {
        hub(lead, lead.view.replication_threshold as i32 + over)
    }

    /// `edges` ring edges from vertex `from` on, both placements:
    /// `sign` 1 inserts them, -1 deletes them.
    fn ring_delta(lead: &Lead, from: u64, edges: u64, sign: i32) -> SketchDelta {
        let mut delta = hub(lead, 0);
        for v in from..from + edges {
            delta.add(v, sign);
            delta.add(v + 1, sign);
        }
        delta
    }

    /// A Streamer's per-batch request naming `epoch`, and the lead's
    /// answer.
    fn batch(lead: &mut Lead, epoch: u64) -> Frame {
        let ask = Frame::builder(packet::GET_VIEW).u64(epoch).finish();
        lead.on_frame(lead.now, &ask);
        let replies: Vec<Frame> = lead
            .effects()
            .filter_map(|e| match e {
                Effect::Reply(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(replies.len(), 1);
        replies.into_iter().next().unwrap()
    }

    /// A lead with agents 1 and 2 joined and migrated; every effect
    /// since is still queued.
    fn lead_with_agents() -> Lead {
        let mut lead = test_lead();
        for id in [1, 2] {
            lead.pending_joins.push(AgentInfo {
                id,
                addr: agent_addr(id),
            });
        }
        lead.apply_membership();
        let epoch = lead.view.epoch as u32;
        report_all(&mut lead, 0, epoch, Phase::Migrate, 0);
        assert_eq!(lead.migrate_epoch, None);
        lead
    }

    /// The frames of packet type `ty` published since the last call;
    /// every other queued effect is dropped.
    fn published(lead: &mut Lead, ty: u8) -> Vec<Frame> {
        lead.effects()
            .filter_map(|e| match e {
                Effect::Publish(f) if f.packet_type() == ty => Some(f),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_delta_that_moves_no_factor_folds_without_an_epoch() {
        let mut lead = lead_with_agents();
        published(&mut lead, packet::VIEW);
        let epoch = lead.view.epoch;
        // The table a dense count of the same inserts builds.
        let mut dense = lead.view.sketch.clone();
        for from in [0u64, 40, 9_000] {
            for v in from..from + 64 {
                dense.add(v, 1);
                dense.add(v + 1, 1);
            }
            assert!(
                !fold(ring_delta(&lead, from, 64, 1), &mut lead),
                "from {from}"
            );
        }
        assert_eq!(lead.view.epoch, epoch);
        assert_eq!(lead.migrate_epoch, None);
        assert!(!lead.membership_pending() && !lead.busy());
        assert!(published(&mut lead, packet::VIEW).is_empty());
        assert_eq!(lead.view.sketch, dense);
        // Deletes take the counts back out, quietly too.
        assert!(!fold(ring_delta(&lead, 40, 64, -1), &mut lead));
        let mut kept = CountMinSketch::new(dense.width(), dense.depth());
        for from in [0u64, 9_000] {
            for v in from..from + 64 {
                kept.add(v, 1);
                kept.add(v + 1, 1);
            }
        }
        assert_eq!(lead.view.sketch, kept);
        // A delta for some other table is dropped whole.
        let alien = SketchDelta::new(dense.width() / 2, dense.depth());
        assert!(!fold(alien, &mut lead));
        assert_eq!(lead.view.sketch, kept);
        assert!(published(&mut lead, packet::VIEW).is_empty());
    }

    #[test]
    fn a_streamer_request_ticks_the_batch_clock_and_gets_the_view_only_if_stale() {
        let mut lead = lead_with_agents();
        lead.effects().for_each(drop);
        let (epoch, clock) = (lead.view.epoch, lead.view.batch_id);
        let ok = batch(&mut lead, epoch);
        assert_eq!(ok.packet_type(), packet::OK);
        assert_eq!(ok.reader().u64(), Some(epoch));
        let stale = batch(&mut lead, epoch - 1);
        assert_eq!(DirectoryView::decode(&stale).unwrap().epoch, epoch);
        assert_eq!(lead.view.batch_id, clock + 2);
        // A plain view request is no batch.
        lead.on_frame(lead.now, &Frame::signal(packet::GET_VIEW));
        assert_eq!(lead.view.batch_id, clock + 2);
        // Folds move no clock either.
        fold(ring_delta(&lead, 0, 8, 1), &mut lead);
        assert_eq!((lead.view.epoch, lead.view.batch_id), (epoch, clock + 2));
    }

    #[test]
    fn an_epoch_opens_when_a_counter_crosses_a_factor_boundary_and_only_then() {
        let mut lead = lead_with_agents();
        published(&mut lead, packet::VIEW);
        let epoch = lead.view.epoch;
        // At the threshold `k` is still 1 everywhere.
        assert!(!fold(hub_delta(&lead, 0), &mut lead));
        assert_eq!(lead.view.epoch, epoch);
        // One more edge on the hub and its counters' factor is 2: a
        // view change, barrier and all.
        assert!(fold(hub(&lead, 1), &mut lead));
        assert_eq!(lead.view.epoch, epoch + 1);
        assert_eq!(lead.migrate_epoch, Some(epoch + 1));
        assert_eq!(lead.migrate_members, vec![1, 2]);
        assert!(lead.may_split && !lead.pending_sketch);
        let views = published(&mut lead, packet::VIEW);
        assert_eq!(views.len(), 1);
        let view = DirectoryView::decode(&views[0]).unwrap();
        assert_eq!(
            (view.epoch, view.sketch == lead.view.sketch),
            (epoch + 1, true)
        );
        // While the barrier is open a crossing fold is merged and
        // waits …
        assert!(fold(hub(&lead, -1), &mut lead));
        assert!(lead.pending_sketch && lead.view.epoch == epoch + 1);
        // … and is published when it settles: the hub is back under
        // the threshold, and the rescanned bound says nothing splits.
        report_all(&mut lead, 0, (epoch + 1) as u32, Phase::Migrate, 0);
        assert_eq!(lead.migrate_epoch, Some(epoch + 2));
        assert!(!lead.pending_sketch && !lead.may_split);
        assert_eq!(published(&mut lead, packet::VIEW).len(), 1);
        report_all(&mut lead, 0, (epoch + 2) as u32, Phase::Migrate, 0);
        // Over the threshold again: with a split possible, a fold that
        // moves no counter across a boundary is still no epoch.
        assert!(fold(hub(&lead, 1), &mut lead));
        report_all(&mut lead, 0, (epoch + 3) as u32, Phase::Migrate, 0);
        published(&mut lead, packet::VIEW);
        assert!(lead.may_split);
        assert!(!fold(ring_delta(&lead, 500, 4, 1), &mut lead));
        assert!(!fold(hub(&lead, 5), &mut lead), "k stays 2");
        assert_eq!(lead.view.epoch, epoch + 3);
        assert!(published(&mut lead, packet::VIEW).is_empty());
    }

    #[test]
    fn a_quiet_delta_mid_run_is_invisible_to_the_run() {
        let (mut lead, run) = lead_mid_run(WCC.0, WCC.1, false);
        report_all(&mut lead, run, 0, Phase::Scatter, 0);
        assert_eq!(expects(&lead), (1, Phase::Scatter, true));
        advances(&mut lead);
        let epoch = lead.view.epoch;
        assert!(!fold(ring_delta(&lead, 0, 64, 1), &mut lead));
        assert!(!lead.membership_pending() && lead.migrate_epoch.is_none());
        assert_eq!(lead.view.epoch, epoch);
        assert!(advances(&mut lead).is_empty());
        report_all(&mut lead, run, 1, Phase::Scatter, 3);
        let adv = advances(&mut lead);
        assert_eq!(adv.len(), 1);
        assert_eq!(
            adv[0].until,
            Phase::Scatter,
            "the next step still runs whole"
        );
        assert_eq!(expects(&lead), (2, Phase::Scatter, true));
    }

    #[test]
    fn launch_stamps_the_batches_counted_so_far() {
        let mut lead = lead_with_agents();
        let epoch = lead.view.epoch;
        for _ in 0..3 {
            batch(&mut lead, epoch);
        }
        let wcc = run_info(WCC.0, false);
        let run = lead.start_run(wcc);
        let starts = published(&mut lead, packet::START);
        assert_eq!(starts.len(), 1);
        let info = RunInfo::decode(&starts[0]).unwrap();
        assert_eq!((info.run_id, info.watermark), (run, 3));
        // A batch sent while the run is in flight belongs to the next
        // run's tag, and a joiner is handed this run's.
        batch(&mut lead, epoch);
        assert_eq!(lead.run.as_ref().unwrap().info.watermark, 3);
    }

    /// A PageRank START that asks to reuse state: a residual run.
    fn residual_start(asynchronous: bool) -> RunInfo {
        RunInfo {
            params: [0.85f64.to_bits(), 2, 1e-9f64.to_bits()],
            reuse_state: true,
            delta: true,
            ..run_info(0, asynchronous)
        }
    }

    /// Start `info` on an idle lead and return the START it published.
    fn launched(lead: &mut Lead, info: RunInfo) -> RunInfo {
        lead.effects().for_each(drop);
        lead.start_run(info);
        let starts = published(lead, packet::START);
        assert_eq!(starts.len(), 1);
        RunInfo::decode(&starts[0]).unwrap()
    }

    /// Answer every barrier of the sync run in flight, each member
    /// holding `n` primary vertices and reporting `contrib`, until the
    /// run is over.
    fn finish(lead: &mut Lead, n: u64, contrib: f64) {
        for _ in 0..16 {
            let Some(run) = lead.run.as_ref() else {
                return;
            };
            let (id, step, phase) = (run.info.run_id, run.step, run.phase);
            for m in lead.member_ids() {
                let mut rep = ready(m, id, step, phase, Vec::new());
                (rep.n_primary, rep.global_contrib) = (n, contrib);
                lead.put(rep);
                lead.evaluate();
            }
        }
        panic!("the run never finished");
    }

    /// Until a residual run has finished since start-up or the last
    /// recovery, the sum its carried states hold is unknown: a residual
    /// sync START is launched as a full run, and an async one as a
    /// from-scratch residual run, whose fold threshold scales by the
    /// bound below the sum that n gives. A full run's `done` scales its
    /// normalized states to the sum; a delta run's adds what the
    /// members reported the sum moved by.
    #[test]
    fn a_residual_run_recomputes_while_the_sum_is_unknown() {
        let flags = |i: RunInfo| (i.reuse_state, i.delta);
        let mut lead = lead_with_agents();
        let fresh = launched(&mut lead, residual_start(false));
        assert_eq!(flags(fresh), (false, false));
        // Ten vertices holding 0.2 of the mass as dangling.
        let done = |lead: &mut Lead| advances(lead).pop().filter(|a| a.done).expect("done");
        finish(&mut lead, 5, 0.1);
        let s = done(&mut lead).global;
        assert_eq!(
            (s, lead.sum),
            ((1.0 - 0.85) * 10.0 / (1.0 - 0.85 + 0.85 * 0.2), s)
        );
        let warm = launched(&mut lead, residual_start(false));
        assert_eq!(flags(warm), (true, true));
        assert!(advances(&mut lead).iter().all(|a| a.global == s));
        finish(&mut lead, 5, 0.25);
        assert_eq!(done(&mut lead).global, s + 0.5);

        lead.recover(2);
        let epoch = lead.view.epoch as u32;
        report_all(&mut lead, 0, epoch, Phase::Migrate, 0);
        assert_eq!(lead.migrate_epoch, None);
        let recovered = launched(&mut lead, residual_start(false));
        assert_eq!(flags(recovered), (false, false));

        let mut lead = lead_with_agents();
        let fresh = launched(&mut lead, residual_start(true));
        assert_eq!(flags(fresh), (false, true));
        for m in lead.member_ids() {
            let mut rep = ready(m, fresh.run_id, 0, Phase::Scatter, Vec::new());
            rep.n_primary = 5;
            lead.put(rep);
            lead.evaluate();
        }
        let combine = advances(&mut lead).pop().expect("the step-0 answer");
        assert_eq!(combine.global, (1.0 - 0.85) * 10.0 / (1.0 - 0.85 + 0.85));
    }

    /// The tail cut: a sync delta run's step whose folds pushed at most
    /// `TAIL_SHARE` of n · tolerance · S of residual on is answered with
    /// an infinite `global`, under which the next apply parks every
    /// residual; a step that pushed more is answered with S.
    #[test]
    fn a_delta_step_that_pushed_little_parks_the_rest() {
        let mut lead = lead_with_agents();
        let start = RunInfo {
            params: [0.85f64.to_bits(), 50, 1e-9f64.to_bits()],
            ..residual_start(false)
        };
        launched(&mut lead, start);
        finish(&mut lead, 5, 0.1);
        let s = lead.sum;
        let warm = launched(&mut lead, start);
        assert!(warm.delta);
        // Two members of five primaries each.
        let budget = TAIL_SHARE * 10.0 * 1e-9 * s;
        let mut step = |step: u32, pushed: f64| -> f64 {
            for m in lead.member_ids() {
                let mut rep = ready(m, warm.run_id, step, Phase::Scatter, Vec::new());
                (rep.n_primary, rep.active, rep.pushed) = (5, 1, pushed);
                lead.put(rep);
                lead.evaluate();
            }
            advances(&mut lead).pop().expect("the answer").global
        };
        assert_eq!(step(0, 0.0), s, "step 0 reports no folds");
        assert_eq!(step(1, budget), s, "the members pushed twice the budget");
        assert_eq!(step(2, budget / 2.0), f64::INFINITY);
    }

    /// `(step, phase, verdict_pending)` the lead waits for.
    fn expects(lead: &Lead) -> (u32, Phase, bool) {
        let run = lead.run.as_ref().expect("run");
        (run.step, run.phase, run.verdict_pending)
    }

    #[test]
    fn a_scatter_verdict_with_nothing_active_finishes_at_the_applied_step() {
        let (mut lead, run) = lead_mid_run(WCC.0, WCC.1, false);
        report_all(&mut lead, run, 0, Phase::Scatter, 0);
        report_all(&mut lead, run, 1, Phase::Scatter, 2);
        report_all(&mut lead, run, 2, Phase::Scatter, 4);
        assert_eq!(expects(&lead), (3, Phase::Scatter, true));
        advances(&mut lead);
        // apply(2) left nothing active: the run is over at step 2,
        // whatever step the agents' (empty) scatter was for.
        report_all(&mut lead, run, 3, Phase::Scatter, 0);
        assert!(lead.run.is_none());
        let st = lead.status();
        assert!(st.done && !st.running);
        assert_eq!(st.steps, 2);
        assert_eq!(st.step_nanos.len(), 3, "one entry per superstep 0..=2");
        // The `done` names the barrier it answers.
        let adv = advances(&mut lead);
        assert_eq!(adv.len(), 1);
        assert!(adv[0].done);
        assert_eq!((adv[0].step, adv[0].phase), (3, Phase::Scatter));
    }

    /// A lead whose sketch holds one vertex `over` the replication
    /// threshold, folded quietly as an agent's counts are (nothing can
    /// be split over no agents); the joins' epoch reads the bound.
    fn hub_lead(over: i32) -> Lead {
        let mut lead = test_lead();
        let delta = hub_delta(&lead, over);
        assert!(!fold(delta, &mut lead));
        lead
    }

    /// Each condition, alone, picks how far the advance that answers a
    /// step's Scatter barrier runs, and so the barrier that follows.
    #[test]
    fn each_condition_alone_picks_its_until() {
        let pagerank = [0.85f64.to_bits(), 2, 0f64.to_bits()];
        for (why, until) in [
            ("nothing pending", Phase::Scatter),
            ("join pending", Phase::Apply),
            ("leave pending", Phase::Apply),
            ("sketch fold pending", Phase::Apply),
            ("join arrived mid-step", Phase::Apply),
            ("step == max_steps", Phase::Apply),
            ("async run", Phase::Apply),
            ("sketch bound at the threshold", Phase::Scatter),
            ("sketch bound over the threshold", Phase::Combine),
        ] {
            let base = match why {
                "sketch bound at the threshold" => hub_lead(0),
                "sketch bound over the threshold" => hub_lead(1),
                _ => test_lead(),
            };
            let (mut lead, run) = match why {
                "step == max_steps" => lead_mid_run_on(base, 0, pagerank, false),
                _ => lead_mid_run_on(base, WCC.0, WCC.1, why == "async run"),
            };
            let joiner = AgentInfo {
                id: 3,
                addr: agent_addr(3),
            };
            let mut step = 0;
            match why {
                "join pending" => lead.pending_joins.push(joiner),
                "leave pending" => lead.pending_leaves.push(2),
                "sketch fold pending" => assert!(fold(hub_delta(&lead, 1), &mut lead)),
                "join arrived mid-step" => {
                    report_all(&mut lead, run, 0, Phase::Scatter, 0);
                    lead.pending_joins.push(joiner);
                    step = 1;
                }
                "step == max_steps" => {
                    report_all(&mut lead, run, 0, Phase::Scatter, 0);
                    report_all(&mut lead, run, 1, Phase::Scatter, 5);
                    step = 2;
                }
                _ => {}
            }
            advances(&mut lead);
            report_all(&mut lead, run, step, Phase::Scatter, 1);
            let adv = advances(&mut lead);
            assert_eq!(adv.len(), 1, "{why}");
            let got = (adv[0].step, adv[0].phase, adv[0].until);
            assert_eq!(got, (step, Phase::Combine, until), "{why}");
            let next = match until {
                Phase::Scatter => (step + 1, until, true),
                _ => (step, until, false),
            };
            assert_eq!(expects(&lead), next, "{why}");
        }
        // Capped at one replica, the same sketch splits nothing.
        let mut lead = hub_lead(1);
        lead.view.max_replicas = 1;
        assert!(!lead.view.may_split());
    }

    /// A `(run, step, Scatter)` report of `agent` whose scatter sent
    /// `sent` and left `active` vertices active at the apply before it.
    fn scattered(
        agent: AgentId,
        run: u64,
        step: u32,
        active: u64,
        sent: &[(AgentId, u64)],
    ) -> ReadyReport {
        sent_report(agent, run, step, Phase::Scatter, active, sent)
    }

    /// A `(run, step, phase)` report of `agent` whose phase put `sent`
    /// on the wire — VMSG, PARTIAL or STATE records by the phase — and
    /// left `active` vertices active.
    fn sent_report(
        agent: AgentId,
        run: u64,
        step: u32,
        phase: Phase,
        active: u64,
        sent: &[(AgentId, u64)],
    ) -> ReadyReport {
        let row = |&(to, n): &(AgentId, u64)| {
            let mut c = Counters::default();
            *match phase {
                Phase::Scatter => &mut c.vmsg_sent,
                Phase::Combine => &mut c.part_sent,
                _ => &mut c.state_sent,
            } = n;
            (to, c)
        };
        ReadyReport {
            active,
            sent: sent.to_vec(),
            ..ready(agent, run, step, phase, sent.iter().map(row).collect())
        }
    }

    /// Three members in a sync WCC run at the Scatter barrier of step 1.
    fn three_mid_run() -> (Lead, u64) {
        let mut lead = test_lead();
        lead.pending_joins.push(AgentInfo {
            id: 3,
            addr: agent_addr(3),
        });
        let (mut lead, run) = lead_mid_run_on(lead, WCC.0, WCC.1, false);
        for id in [1, 2, 3] {
            lead.put(scattered(id, run, 0, 0, &[]));
            lead.evaluate();
        }
        assert_eq!(expects(&lead), (1, Phase::Scatter, true));
        advances(&mut lead);
        (lead, run)
    }

    /// The Scatter barrier closes on what was sent: once every member
    /// has reported the step it fires with the VMSG sums unsettled —
    /// nobody has confirmed a receive — and the advance tells each
    /// member how many records of the step are addressed to it.
    #[test]
    fn scatter_barrier_fires_on_the_senders_reports_and_carries_the_sums() {
        let (mut lead, run) = three_mid_run();
        for (id, sent) in [
            (1, &[(2, 5), (3, 1)][..]),
            (2, &[(1, 4), (3, 2)]),
            (3, &[(2, 7)]),
        ] {
            assert!(advances(&mut lead).is_empty(), "before agent {id} reported");
            lead.put(scattered(id, run, 1, 1, sent));
            lead.evaluate();
        }
        assert!(!lead.channels.gaps(true).is_empty());
        let adv = advances(&mut lead);
        assert_eq!(adv.len(), 1);
        assert_eq!((adv[0].step, adv[0].phase), (1, Phase::Combine));
        assert!(adv[0].until == Phase::Scatter && !adv[0].done);
        assert_eq!(adv[0].expect, [(1, 4), (2, 12), (3, 3)]);
        let expected = ((1, Phase::Scatter), vec![(1, 4), (2, 12), (3, 3)]);
        assert_eq!(lead.expected, expected);
        assert_eq!(expects(&lead), (2, Phase::Scatter, true));
    }

    /// What the barrier does not leave to the receivers still holds it:
    /// a forwarded change or a migration record in flight.
    #[test]
    fn scatter_barrier_waits_for_every_other_pair() {
        for pair in ["chg", "mig"] {
            let (mut lead, run) = three_mid_run();
            let (mut third, mut second) =
                (scattered(3, run, 1, 1, &[]), scattered(2, run, 1, 1, &[]));
            let (mut sent, mut taken) = (Counters::default(), Counters::default());
            match pair {
                "chg" => (sent.chg_sent, taken.chg_recv) = (1, 1),
                _ => (sent.mig_sent, taken.mig_recv) = (1, 1),
            }
            (third.rows, second.rows) = (vec![(2, sent)], vec![(3, taken)]);
            lead.put(scattered(1, run, 1, 1, &[(2, 5)]));
            lead.put(scattered(2, run, 1, 1, &[]));
            lead.put(third);
            lead.evaluate();
            assert!(advances(&mut lead).is_empty(), "{pair} in flight");
            // The receiver's idle re-report settles the pair.
            lead.put(second);
            lead.evaluate();
            let adv = advances(&mut lead);
            assert_eq!(adv.len(), 1, "{pair} settled");
            assert_eq!(adv[0].expect, [(2, 5)]);
        }
    }

    #[test]
    fn resent_ready_reevaluates_a_chained_barrier_exactly_once() {
        let (mut lead, run) = three_mid_run();
        lead.put(scattered(1, run, 1, 1, &[(2, 5)]));
        lead.evaluate();
        lead.put(scattered(2, run, 1, 0, &[(1, 2)]));
        lead.evaluate();
        // Agent 1 re-reports for a late EDGE_CHANGES frame: the step's
        // list rides again, verbatim, and replaces the first copy.
        let mut again = scattered(1, run, 1, 1, &[(2, 5)]);
        let chg = Counters {
            chg_sent: 3,
            chg_recv: 3,
            ..Counters::default()
        };
        again.rows.push((1, chg));
        lead.put(again.clone());
        lead.evaluate();
        assert!(advances(&mut lead).is_empty(), "agent 3 has not reported");
        assert!(lead.run.as_ref().unwrap().step_nanos.is_empty());
        lead.put(scattered(3, run, 1, 0, &[(2, 1)]));
        lead.evaluate();
        // Verdict of step 0 and reduce of step 1, once, and agent 1's
        // five counted once.
        let adv = advances(&mut lead);
        assert_eq!(adv.len(), 1);
        assert_eq!(adv[0].expect, [(1, 2), (2, 6)]);
        assert_eq!(expects(&lead), (2, Phase::Scatter, true));
        assert_eq!(lead.run.as_ref().unwrap().step_nanos.len(), 1);
        // A straggling copy of the same report is for a barrier that is
        // gone.
        lead.put(again);
        lead.evaluate();
        assert!(advances(&mut lead).is_empty());
        assert_eq!(expects(&lead), (2, Phase::Scatter, true));
        assert_eq!(lead.run.as_ref().unwrap().step_nanos.len(), 1);
    }

    /// A program that scatters whatever is active (full PageRank) and
    /// converges by tolerance ends on a Scatter barrier's verdict with
    /// the next step's messages already sent. The `done` advance answers
    /// that barrier like any other: it carries their counts, or an agent
    /// would finish the run ahead of them.
    #[test]
    fn a_chained_verdict_that_ends_the_run_puts_the_counts_on_done() {
        let (mut lead, run) = three_mid_run();
        for (id, sent) in [(1, &[(2, 5), (3, 1)][..]), (2, &[(1, 4)]), (3, &[])] {
            lead.put(scattered(id, run, 1, 0, sent));
            lead.evaluate();
        }
        assert!(lead.run.is_none());
        assert_eq!(lead.status().steps, 0);
        let adv = advances(&mut lead);
        assert_eq!(adv.len(), 1);
        assert!(adv[0].done);
        assert_eq!(adv[0].answers(), (1, Phase::Scatter));
        assert_eq!(adv[0].expect, [(1, 4), (2, 5), (3, 1)]);
        // A run that ends at an Apply barrier has no scatter behind it.
        let pagerank = [0.85f64.to_bits(), 1, 0f64.to_bits()];
        let (mut lead, run) = lead_mid_run(0, pagerank, false);
        report_all(&mut lead, run, 0, Phase::Scatter, 0);
        report_all(&mut lead, run, 1, Phase::Scatter, 5);
        report_all(&mut lead, run, 1, Phase::Apply, 5);
        let adv = advances(&mut lead);
        let last = adv.last().unwrap();
        assert!(last.done && last.expect.is_empty());
        assert_eq!(last.answers(), (1, Phase::Apply));
    }

    /// The Combine and Apply barriers close on what was sent as the
    /// Scatter barrier does, and their answers carry the counts. An
    /// Apply barrier that a view change follows sends its counts on a
    /// `Migrate` advance ahead of the VIEW; the migrate barrier still
    /// closes on every channel.
    #[test]
    fn every_sync_barrier_closes_on_what_was_sent() {
        // A view that can split a vertex: three barriers a step.
        let (mut lead, run) = lead_mid_run_on(hub_lead(1), WCC.0, WCC.1, false);
        report_all(&mut lead, run, 0, Phase::Scatter, 0);
        assert_eq!(expects(&lead), (0, Phase::Combine, false));
        advances(&mut lead);
        for (id, sent) in [(1, &[(2, 3)][..]), (2, &[])] {
            assert!(advances(&mut lead).is_empty(), "before agent {id}");
            lead.put(sent_report(id, run, 0, Phase::Combine, 0, sent));
            lead.evaluate();
        }
        assert!(!lead.channels.gaps(true).is_empty());
        let adv = advances(&mut lead);
        assert_eq!(adv.len(), 1);
        assert_eq!(
            (adv[0].step, adv[0].phase, adv[0].until),
            (0, Phase::Apply, Phase::Apply)
        );
        assert_eq!(adv[0].expect, [(2, 3)]);
        assert_eq!(lead.expected, ((0, Phase::Combine), vec![(2, 3)]));
        // A join arrives during the apply; the apply sent STATE records.
        lead.pending_joins.push(AgentInfo {
            id: 3,
            addr: agent_addr(3),
        });
        lead.evaluate();
        lead.put(sent_report(1, run, 0, Phase::Apply, 1, &[]));
        lead.put(sent_report(2, run, 0, Phase::Apply, 1, &[(1, 2)]));
        lead.evaluate();
        let published: Vec<u8> = drained(&mut lead)
            .iter()
            .filter_map(|e| match e {
                Effect::Publish(f) => Some(f.packet_type()),
                _ => None,
            })
            .collect();
        assert_eq!(published, [packet::ADVANCE, packet::VIEW]);
        assert_eq!(lead.expected, ((0, Phase::Apply), vec![(1, 2)]));
        let epoch = lead.migrate_epoch.expect("migrate barrier") as u32;
        assert!(lead.resume.is_some());
        // The migrate barrier closes on every channel: the run's records
        // were all taken in (a clean table), but a VMSG to the joiner is
        // in flight until the joiner counts it and re-reports.
        lead.channels.clear();
        let in_flight = Counters {
            vmsg_sent: 1,
            ..Default::default()
        };
        for (id, rows) in [(1, vec![(3, in_flight)]), (2, vec![]), (3, vec![])] {
            lead.put(ready(id, 0, epoch, Phase::Migrate, rows));
        }
        lead.evaluate();
        assert!(lead.migrate_epoch.is_some(), "a VMSG in flight");
        let counted = Counters {
            vmsg_recv: 1,
            ..Default::default()
        };
        lead.put(ready(3, 0, epoch, Phase::Migrate, vec![(1, counted)]));
        lead.evaluate();
        assert_eq!(lead.migrate_epoch, None);
    }

    /// The stall report names what the lead is waiting for: the member
    /// that has not reported and what it was told to take in, and the
    /// pair its sums leave open.
    #[test]
    fn waiting_on_names_the_missing_member_the_open_pair_and_the_expected_count() {
        assert_eq!(test_lead().waiting_on(), "no barrier open");
        let (mut lead, run) = three_mid_run();
        for (id, sent) in [(1, &[(2, 5), (3, 1)][..]), (2, &[(3, 2)]), (3, &[])] {
            lead.put(scattered(id, run, 1, 1, sent));
            lead.evaluate();
        }
        assert_eq!(expects(&lead), (2, Phase::Scatter, true));
        // Agents 1 and 2 finish step 1 and report step 2; agent 3 was
        // told to take in three records of step 1 and has not been
        // heard from since. Agent 2 forwarded a change agent 3 has not
        // counted yet.
        lead.put(scattered(1, run, 2, 1, &[(3, 4)]));
        let mut second = scattered(2, run, 2, 1, &[]);
        let chg = Counters {
            chg_sent: 2,
            ..Default::default()
        };
        second.rows = vec![(3, chg)];
        second.epoch = 2;
        lead.put(second);
        lead.evaluate();
        let said = lead.waiting_on();
        assert!(
            said.starts_with(&format!("barrier (run {run}, step 2, Scatter)")),
            "{said}"
        );
        assert!(
            said.contains(&format!(
                "agent 3 last reported (run {run}, step 1, Scatter) under epoch 0, \
                 told to take in 3 VMSG records of step 1"
            )),
            "{said}"
        );
        assert!(
            !said.contains("agent 1") && !said.contains("agent 2"),
            "{said}"
        );
        assert!(said.contains("; channel (2, 3, chg, 2)"), "{said}");
        // VMSG channels are open by design at a Scatter barrier.
        assert!(!said.contains("vmsg"), "{said}");

        // A migrate barrier waits on every pair and on departers too.
        let mut lead = lead_with_agents();
        lead.pending_leaves.push(2);
        lead.apply_membership();
        let epoch = lead.view.epoch;
        let moved = Counters {
            mig_sent: 9,
            vmsg_recv: 1,
            ..Default::default()
        };
        lead.put(ready(2, 0, epoch as u32, Phase::Migrate, vec![(1, moved)]));
        lead.evaluate();
        let said = lead.waiting_on();
        assert!(
            said.starts_with(&format!("migrate barrier of epoch {epoch}")),
            "{said}"
        );
        assert!(
            said.contains("agent 1 last reported (run 0, step 2, Migrate)"),
            "{said}"
        );
        assert!(said.contains("; channel (1, 2, vmsg, -1)"), "{said}");
        assert!(said.contains("; channel (2, 1, mig, 9)"), "{said}");

        // A RUN_STATUS with a body asks for it; an empty one still gets
        // the status.
        let ask = Frame::builder(packet::RUN_STATUS).u64(0).finish();
        lead.on_frame(lead.now, &ask);
        let Some(Effect::Reply(rep)) = drained(&mut lead).pop() else {
            panic!("no reply");
        };
        assert_eq!(rep.packet_type(), packet::OK);
        assert_eq!(rep.reader().bytes(), Some(said.as_bytes()));
        lead.on_frame(lead.now, &Frame::signal(packet::RUN_STATUS));
        let Some(Effect::Reply(rep)) = drained(&mut lead).pop() else {
            panic!("no reply");
        };
        assert!(RunStatus::decode(&rep).is_some());
    }

    /// A departer is released once the survivors took in what it sent,
    /// and its channels leave the table with it.
    #[test]
    fn a_departer_leaves_the_table_once_its_channels_balance() {
        let mut lead = lead_with_agents();
        lead.pending_leaves.push(2);
        lead.apply_membership();
        let epoch = lead.view.epoch as u32;
        let sent = Counters {
            mig_sent: 4,
            ..Default::default()
        };
        lead.on_frame(
            lead.now,
            &ready(2, 0, epoch, Phase::Migrate, vec![(1, sent)]).encode(),
        );
        let taken = Counters {
            mig_recv: 4,
            ..Default::default()
        };
        assert!(
            lead.migrate_epoch.is_some(),
            "agent 1 has not taken them in"
        );
        lead.on_frame(
            lead.now,
            &ready(1, 0, epoch, Phase::Migrate, vec![(2, taken)]).encode(),
        );
        assert_eq!((lead.migrate_epoch, lead.departing.len()), (None, 0));
        assert_eq!(lead.channels.row(1, 2), Counters::default());
        assert_eq!(lead.channels.row(2, 1), Counters::default());
    }

    #[test]
    fn membership_changes_bump_epoch_and_open_migrate_barrier() {
        let mut lead = test_lead();
        let e0 = lead.view.epoch;
        lead.pending_joins.push(AgentInfo {
            id: 5,
            addr: agent_addr(5),
        });
        lead.apply_membership();
        assert_eq!(lead.view.epoch, e0 + 1);
        assert_eq!(lead.migrate_epoch, Some(e0 + 1));
        assert_eq!(lead.migrate_members, vec![5]);
        // The migrate barrier settles once agent 5 reports.
        lead.put(ready(5, 0, (e0 + 1) as u32, Phase::Migrate, Vec::new()));
        lead.evaluate();
        assert_eq!(lead.migrate_epoch, None);
    }

    #[test]
    fn leave_moves_agent_to_departing() {
        let mut lead = test_lead();
        lead.pending_joins.push(AgentInfo {
            id: 3,
            addr: agent_addr(3),
        });
        lead.apply_membership();
        lead.migrate_epoch = None; // pretend join migration settled
        lead.pending_leaves.push(3);
        lead.apply_membership();
        assert!(lead.view.agents.is_empty());
        assert_eq!(Vec::from_iter(lead.departing.iter().map(|a| a.id)), [3]);
        assert!(lead.migrate_members.contains(&3), "departer must drain");
    }

    #[test]
    fn start_run_publishes_and_tracks_status() {
        let mut lead = test_lead();
        let run_id = lead.start_run(run_info(WCC.0, false));
        assert_eq!(run_id, 1);
        // Empty membership: every barrier is trivially met, so the run
        // completes during launch.
        let st = lead.status();
        assert_eq!(st.run_id, 1);
        assert!(!st.running);
        assert!(st.done);
    }

    #[test]
    fn async_run_pauses_for_membership_and_resumes() {
        let mut lead = test_lead();
        lead.pending_joins.push(AgentInfo {
            id: 1,
            addr: agent_addr(1),
        });
        lead.apply_membership();
        let epoch = lead.view.epoch;
        lead.put(ready(1, 0, epoch as u32, Phase::Migrate, Vec::new()));
        lead.evaluate();
        assert_eq!(lead.migrate_epoch, None);
        let run_id = lead.start_run(run_info(WCC.0, true));
        // Drive the sync initialization barriers (step 0).
        lead.put(ready(1, run_id, 0, Phase::Scatter, Vec::new()));
        lead.evaluate();
        lead.put(ready(1, run_id, 0, Phase::Combine, Vec::new()));
        lead.evaluate();
        let mut apply = ready(1, run_id, 0, Phase::Apply, Vec::new());
        apply.active = 1; // not converged: release into async
        lead.put(apply);
        lead.evaluate();
        assert!(lead.run.as_ref().unwrap().async_live);
        // A joiner arrives mid-async-run: the run pauses behind a
        // migrate barrier instead of mis-routing against a stale view.
        lead.pending_joins.push(AgentInfo {
            id: 2,
            addr: agent_addr(2),
        });
        lead.evaluate();
        let e2 = lead.view.epoch;
        assert_eq!(e2, epoch + 1);
        assert_eq!(lead.migrate_epoch, Some(e2));
        assert!(
            lead.resume.is_some(),
            "paused run must carry a resume point"
        );
        assert!(lead.run.is_some(), "the run survives the view change");
        lead.put(ready(1, 0, e2 as u32, Phase::Migrate, Vec::new()));
        lead.put(ready(2, 0, e2 as u32, Phase::Migrate, Vec::new()));
        lead.evaluate();
        assert_eq!(lead.migrate_epoch, None);
        assert!(lead.resume.is_none());
        assert!(
            lead.run.as_ref().unwrap().async_live,
            "resume re-releases async execution"
        );
        // Idle reports from before the view change are not trusted.
        lead.put(idle(1, run_id, epoch));
        lead.put(idle(2, run_id, epoch));
        lead.evaluate();
        assert!(lead.run.is_some(), "stale-epoch idle reports end nothing");
        // Fresh idle reports over a balanced table end the run.
        lead.put(idle(1, run_id, e2));
        lead.put(idle(2, run_id, e2));
        lead.evaluate();
        assert!(lead.run.is_none(), "balanced idle reports end the run");
        assert!(lead.status().done);
    }

    #[test]
    fn membership_queued_during_async_init_migrates_before_release() {
        let mut lead = test_lead();
        lead.pending_joins.push(AgentInfo {
            id: 1,
            addr: agent_addr(1),
        });
        lead.apply_membership();
        let epoch = lead.view.epoch;
        lead.put(ready(1, 0, epoch as u32, Phase::Migrate, Vec::new()));
        lead.evaluate();
        let run_id = lead.start_run(run_info(WCC.0, true));
        lead.put(ready(1, run_id, 0, Phase::Scatter, Vec::new()));
        lead.evaluate();
        lead.put(ready(1, run_id, 0, Phase::Combine, Vec::new()));
        lead.evaluate();
        // Membership changes while step-0 initialization is finishing:
        // the migration must run before the async release.
        lead.pending_joins.push(AgentInfo {
            id: 2,
            addr: agent_addr(2),
        });
        let mut apply = ready(1, run_id, 0, Phase::Apply, Vec::new());
        apply.active = 1;
        lead.put(apply);
        lead.evaluate();
        let e2 = lead.view.epoch;
        assert_eq!(e2, epoch + 1);
        assert_eq!(lead.migrate_epoch, Some(e2));
        assert!(
            !lead.run.as_ref().unwrap().async_live,
            "release deferred until the migration settles"
        );
        lead.put(ready(1, 0, e2 as u32, Phase::Migrate, Vec::new()));
        lead.put(ready(2, 0, e2 as u32, Phase::Migrate, Vec::new()));
        lead.evaluate();
        assert_eq!(lead.migrate_epoch, None);
        let run = lead.run.as_ref().unwrap();
        assert!(run.async_live, "resume doubles as the async release");
        assert_eq!((run.step, run.phase), (1, Phase::Scatter));
    }

    #[test]
    fn recover_evicts_agent_aborts_run_and_resets_counters() {
        let mut lead = test_lead();
        lead.pending_joins.push(AgentInfo {
            id: 1,
            addr: agent_addr(1),
        });
        lead.pending_joins.push(AgentInfo {
            id: 2,
            addr: agent_addr(2),
        });
        lead.apply_membership();
        let epoch = lead.view.epoch;
        lead.put(ready(1, 0, epoch as u32, Phase::Migrate, Vec::new()));
        lead.put(ready(2, 0, epoch as u32, Phase::Migrate, Vec::new()));
        lead.evaluate();
        assert_eq!(lead.migrate_epoch, None);
        let run_id = lead.start_run(run_info(WCC.0, false));
        assert!(lead.run.is_some());
        let in_flight = Counters {
            vmsg_sent: 3,
            ..Default::default()
        };
        lead.channels.report(2, &[(1, in_flight)]);
        lead.recover(2);
        assert_eq!(lead.member_ids(), vec![1]);
        assert_eq!(lead.agents_recovered, 1);
        assert!(lead.run.is_none(), "active run must abort");
        assert!(
            lead.channels.gaps(true).is_empty(),
            "the table rewinds with the reset"
        );
        assert_eq!(lead.migrate_epoch, Some(epoch + 1));
        let st = lead.status();
        assert_eq!(st.run_id, run_id);
        assert!(
            !st.running && !st.done,
            "aborted run is neither running nor done"
        );
        // The lone survivor reports the recover barrier with zeroed
        // counters and the system unwedges.
        lead.put(ready(1, 0, (epoch + 1) as u32, Phase::Migrate, Vec::new()));
        lead.evaluate();
        assert_eq!(lead.migrate_epoch, None);
    }

    /// A RUN_STATUS that waits for run `id` to end.
    fn run_wait(id: u64) -> Frame {
        Frame::builder(packet::RUN_STATUS).u64(id).finish()
    }

    /// The held requests and the answers to them queued since the last
    /// call, in order: each one's key, and the status an answer carries.
    fn holds(lead: &mut Lead) -> Vec<(Held, Option<RunStatus>)> {
        let held = |e| match e {
            Effect::Hold(key) => Some((key, None)),
            Effect::Answer(key, f) => Some((key, RunStatus::decode(&f))),
            _ => None,
        };
        lead.effects().filter_map(held).collect()
    }

    /// A held `quiesce` and a held `wait_run` are answered separately:
    /// the run's end answers the wait alone, and the balanced table,
    /// once the run is over, the `quiesce`.
    #[test]
    fn a_held_quiesce_and_a_held_run_wait_are_answered_separately() {
        let (mut lead, run) = lead_mid_run(WCC.0, WCC.1, false);
        lead.on_frame(lead.now, &run_wait(run));
        lead.on_frame(lead.now, &drain(0, vec![]).encode());
        assert_eq!(
            holds(&mut lead),
            [(Held::Run(run), None), (Held::Quiesce, None)]
        );
        finish(&mut lead, 1, 0.0);
        let answered = holds(&mut lead);
        let [(Held::Run(answered_run), Some(status))] = &answered[..] else {
            panic!("{answered:?}");
        };
        assert_eq!(
            (*answered_run, status.run_id, status.done),
            (run, run, true)
        );
        for id in [1, 2] {
            lead.on_frame(lead.now, &drain(id, vec![]).encode());
        }
        let answered = holds(&mut lead);
        assert!(
            matches!(answered[..], [(Held::Quiesce, None)]),
            "{answered:?}"
        );
    }

    /// A wait for a run that has already ended is answered at once, with
    /// that run's status.
    #[test]
    fn a_wait_for_an_ended_run_is_answered_at_once() {
        let (mut lead, run) = lead_mid_run(WCC.0, WCC.1, false);
        finish(&mut lead, 1, 0.0);
        drained(&mut lead);
        lead.on_frame(lead.now, &run_wait(run));
        let effects = drained(&mut lead);
        let [Effect::Reply(reply)] = &effects[..] else {
            panic!("{effects:?}");
        };
        let status = RunStatus::decode(reply).unwrap();
        assert_eq!((status.run_id, status.done), (run, true));
    }

    #[test]
    fn silent_agents_are_detected_after_the_window() {
        let mut lead = test_lead();
        lead.view.agents.push(AgentInfo {
            id: 7,
            addr: agent_addr(7),
        });
        // First pass stamps unknown members instead of reporting them.
        assert!(lead.dead_agents(Duration::from_millis(0)).is_empty());
        lead.now += Duration::from_millis(2);
        assert_eq!(lead.dead_agents(Duration::from_millis(1)), vec![7]);
        lead.saw(7);
        assert!(lead.dead_agents(Duration::from_millis(1)).is_empty());
    }

    /// The effects queued since the last call, in order.
    fn drained(lead: &mut Lead) -> Vec<Effect> {
        lead.effects().collect()
    }

    /// What an effect does, and with which kind of frame.
    fn kind(effect: &Effect) -> (&'static str, u8) {
        match effect {
            Effect::Publish(f) => ("publish", f.packet_type()),
            Effect::Reply(f) => ("reply", f.packet_type()),
            Effect::Send(_, f) => ("send", f.packet_type()),
            Effect::Hold(_) => ("hold", 0),
            Effect::Answer(_, f) => ("answer", f.packet_type()),
            Effect::Log(_) => ("log", 0),
        }
    }

    /// A JOIN of agent `id` at its conventional address.
    fn join(id: AgentId) -> Frame {
        AgentInfo {
            id,
            addr: agent_addr(id),
        }
        .encode()
    }

    /// A LEAVE of agent `id`.
    fn leave(id: AgentId) -> Frame {
        Frame::builder(packet::LEAVE).u64(id).finish()
    }

    /// A METRICS push of `agent`: its liveness signal.
    fn beat(agent: AgentId) -> Frame {
        AgentMetrics {
            agent,
            ..AgentMetrics::default()
        }
        .encode()
    }

    /// Every member of the open migrate barrier reports it at `at`.
    fn settle(lead: &mut Lead, at: Instant) {
        let epoch = lead.migrate_epoch.expect("a migrate barrier") as u32;
        for id in lead.migrate_members.clone() {
            let rep = ready(id, 0, epoch, Phase::Migrate, Vec::new());
            lead.on_frame(at, &rep.encode());
        }
    }

    /// A lead that evicts an agent silent for more than three 100 ms
    /// heartbeat intervals.
    fn watching_lead() -> Lead {
        let cfg = SystemConfig {
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_misses: 3,
            ..SystemConfig::default()
        };
        Lead::new(&cfg, Instant::now())
    }

    /// A reply follows what its request published: START and the
    /// step-0 ADVANCE before the run id, the SHUTDOWN broadcast before
    /// its `OK`. A JOIN's reply goes first, ahead of the VIEW that opens
    /// the joiner's barrier.
    #[test]
    fn a_reply_is_queued_after_what_its_request_published() {
        let mut lead = test_lead();
        let now = lead.now;
        lead.on_frame(now, &join(1));
        let effects = drained(&mut lead);
        let kinds: Vec<_> = effects.iter().map(kind).collect();
        assert_eq!(kinds, [("reply", packet::JOIN), ("publish", packet::VIEW)]);
        settle(&mut lead, now);
        drained(&mut lead);
        lead.on_frame(now, &run_info(WCC.0, false).encode());
        let effects = drained(&mut lead);
        let kinds: Vec<_> = effects.iter().map(kind).collect();
        assert_eq!(
            kinds,
            [
                ("publish", packet::START),
                ("publish", packet::ADVANCE),
                ("reply", packet::OK)
            ]
        );
        let Effect::Reply(ok) = &effects[2] else {
            unreachable!()
        };
        assert_eq!(ok.reader().u64(), Some(1), "the run id");
        lead.on_frame(now, &Frame::signal(packet::SHUTDOWN));
        let kinds: Vec<_> = drained(&mut lead).iter().map(kind).collect();
        assert_eq!(
            kinds,
            [("publish", packet::SHUTDOWN), ("reply", packet::OK)]
        );
    }

    /// A lead with agents 1, 2 and 3 settled, holding a `quiesce` whose
    /// request says the driver's streamer sent agent 1 five records; its
    /// effects so far are taken off the queue.
    fn quiescing() -> Lead {
        let mut lead = test_lead();
        for id in [3, 1, 2] {
            lead.pending_joins.push(AgentInfo {
                id,
                addr: agent_addr(id),
            });
        }
        lead.apply_membership();
        let epoch = lead.view.epoch as u32;
        report_all(&mut lead, 0, epoch, Phase::Migrate, 0);
        drained(&mut lead);
        lead.on_frame(lead.now, &drain(0, vec![(1, chg(5, 0))]).encode());
        lead
    }

    fn chg(chg_sent: u64, chg_recv: u64) -> Counters {
        Counters {
            chg_sent,
            chg_recv,
            ..Counters::default()
        }
    }

    fn drain(agent: AgentId, rows: msg::Rows) -> DrainReport {
        DrainReport {
            agent,
            epoch: 2,
            rows,
        }
    }

    /// `effects` as bytes: what each does, where, with which frame.
    fn wire(effects: &[Effect]) -> Vec<(&'static str, String, Vec<u8>)> {
        let frame = |f: &Frame| f.as_bytes().to_vec();
        effects
            .iter()
            .map(|e| match e {
                Effect::Send(to, f) => ("send", to.to_string(), frame(f)),
                Effect::Answer(_, f) => ("answer", String::new(), frame(f)),
                other => (kind(other).0, String::new(), Vec::new()),
            })
            .collect()
    }

    /// A `quiesce` closes in the lead, on reports alone — no tick. Its
    /// request is held and every member asked, agent 1 to take in the
    /// streamer's five records first. The answer that leaves a channel
    /// short asks its receiver again, with what it was sent; the answer
    /// that balances the table releases the held request with the epoch
    /// of the last recovery reset.
    #[test]
    fn a_quiesce_closes_on_the_report_that_balances_the_table() {
        let mut lead = quiescing();
        let asked = drained(&mut lead);
        assert_eq!(wire(&asked)[0].0, "hold");
        let sends: Vec<(String, DrainReport)> = (asked[1..].iter())
            .map(|e| match e {
                Effect::Send(to, f) => (to.to_string(), DrainReport::decode(f).expect("a DRAIN")),
                other => panic!("{other:?}"),
            })
            .collect();
        let want = |id, rows| {
            (
                agent_addr(id).to_string(),
                DrainReport {
                    agent: 0,
                    epoch: 2,
                    rows,
                },
            )
        };
        assert_eq!(
            sends,
            [
                want(1, vec![(0, chg(5, 0))]),
                want(2, vec![]),
                want(3, vec![])
            ]
        );
        assert_eq!(lead.quiesce_waves, 1);
        // Agent 1 forwarded three changes to agent 2, which had answered
        // having taken in one.
        lead.on_frame(lead.now, &drain(1, vec![(2, chg(3, 0))]).encode());
        lead.on_frame(lead.now, &drain(3, vec![]).encode());
        assert!(drained(&mut lead).is_empty(), "agent 2 has not answered");
        lead.on_frame(lead.now, &drain(2, vec![(1, chg(0, 1))]).encode());
        let again = wire(&drained(&mut lead));
        let ask = drain(0, vec![(1, chg(3, 0))]).encode();
        assert_eq!(
            again,
            [("send", agent_addr(2).to_string(), ask.as_bytes().to_vec())]
        );
        assert_eq!(lead.quiesce_waves, 2);
        assert_eq!(
            lead.waiting_on(),
            "quiesce of epoch 2; agent 2 owes a DRAIN answer, take in 3 chg from agent 1; \
             channel (1, 2, chg, 2)"
        );
        lead.on_frame(lead.now, &drain(2, vec![(1, chg(0, 3))]).encode());
        let answer = Frame::builder(packet::OK).u64(lead.view.reset).finish();
        assert_eq!(
            wire(&drained(&mut lead)),
            [("answer", String::new(), answer.as_bytes().to_vec())]
        );
        assert!(lead.quiesce.is_none());
        assert_eq!(lead.waiting_on(), "no barrier open");
    }

    /// The same reports in another order end in the same bytes: the
    /// table and the fan-out go in agent-id order.
    #[test]
    fn the_same_reports_in_any_order_make_the_same_effects() {
        let reports = [
            drain(1, vec![(2, chg(3, 0)), (3, chg(1, 0))]),
            drain(2, vec![(1, chg(0, 1)), (3, chg(2, 0))]),
            drain(3, vec![(1, chg(0, 0)), (2, chg(0, 2))]),
        ];
        let run = |order: [usize; 3]| {
            let mut lead = quiescing();
            drained(&mut lead);
            for i in order {
                lead.on_frame(lead.now, &reports[i].encode());
            }
            (wire(&drained(&mut lead)), lead.waiting_on())
        };
        let first = run([0, 1, 2]);
        assert_eq!(first.0.len(), 2, "agents 2 and 3 are asked again");
        for order in [[2, 1, 0], [1, 2, 0], [2, 0, 1]] {
            assert_eq!(run(order), first, "{order:?}");
        }
    }

    /// An async run of agents 1 and 2, released into event-driven
    /// execution; its advances have been taken off the queue.
    fn async_live() -> (Lead, u64) {
        let (mut lead, run) = lead_mid_run(WCC.0, WCC.1, true);
        report_all(&mut lead, run, 0, Phase::Scatter, 0);
        report_all(&mut lead, run, 0, Phase::Combine, 0);
        report_all(&mut lead, run, 0, Phase::Apply, 1);
        assert!(lead.run.as_ref().unwrap().async_live);
        advances(&mut lead);
        (lead, run)
    }

    /// Idle reports end an async run in one round once the table they
    /// fill balances — no probe, no second round — and not while a
    /// record is in flight, nor on a report from before the last view
    /// change.
    #[test]
    fn idle_reports_that_balance_end_the_async_run() {
        let (mut lead, run) = async_live();
        let epoch = lead.view.epoch;
        let vmsg = |vmsg_sent, vmsg_recv| Counters {
            vmsg_sent,
            vmsg_recv,
            ..Counters::default()
        };
        let idle_with = |agent, epoch, rows| ReadyReport {
            rows,
            ..idle(agent, run, epoch)
        };
        lead.on_frame(
            lead.now,
            &idle_with(1, epoch, vec![(2, vmsg(3, 0))]).encode(),
        );
        lead.on_frame(
            lead.now,
            &idle_with(2, epoch - 1, vec![(1, vmsg(0, 3))]).encode(),
        );
        assert!(lead.run.is_some(), "agent 2's report predates the view");
        lead.on_frame(
            lead.now,
            &idle_with(2, epoch, vec![(1, vmsg(0, 2))]).encode(),
        );
        assert!(lead.run.is_some(), "a VMSG from 1 to 2 is in flight");
        assert!(advances(&mut lead).is_empty(), "nothing is probed");
        lead.on_frame(
            lead.now,
            &idle_with(2, epoch, vec![(1, vmsg(0, 3))]).encode(),
        );
        let done = advances(&mut lead);
        assert_eq!(done.len(), 1);
        assert!(done[0].done && done[0].run == run);
    }

    /// A departer's OK goes to the address it registered, not the
    /// in-process name of its id: over TCP that name reaches nobody,
    /// and the departer would run on until SHUTDOWN. Once released it
    /// is not watched any more.
    #[test]
    fn a_departer_is_released_at_its_registered_address() {
        let (mut lead, id) = (test_lead(), 4);
        let addr = || Addr::parse("tcp://127.0.0.1:40001").expect("addr");
        let t0 = lead.now;
        lead.on_frame(t0, &AgentInfo { id, addr: addr() }.encode());
        settle(&mut lead, t0);
        lead.on_frame(t0, &leave(id));
        settle(&mut lead, t0);
        let sends = drained(&mut lead).into_iter().filter_map(|e| match e {
            Effect::Send(to, f) => Some((to, f.packet_type())),
            _ => None,
        });
        assert_eq!(Vec::from_iter(sends), [(addr(), packet::OK)]);
        assert!(!lead.last_seen.contains_key(&id));
    }

    /// While a migrate barrier stands, the broadcast that opened it goes
    /// out again once per heartbeat interval, byte for byte; once it
    /// has closed, never.
    #[test]
    fn an_open_barrier_is_republished_once_per_interval_and_never_after() {
        let mut lead = watching_lead();
        let t0 = lead.now;
        lead.on_frame(t0, &join(1));
        let opened = published(&mut lead, packet::VIEW);
        assert_eq!(opened.len(), 1);
        let interval = Duration::from_millis(100);
        for k in 1..=3 {
            lead.on_frame(t0 + interval * k, &beat(1));
            lead.on_tick(t0 + interval * k - interval / 2);
            assert!(drained(&mut lead).is_empty(), "half an interval");
            lead.on_tick(t0 + interval * k);
            assert_eq!(published(&mut lead, packet::VIEW), opened);
        }
        settle(&mut lead, t0 + interval * 3);
        drained(&mut lead);
        lead.on_tick(t0 + interval * 5);
        assert!(drained(&mut lead).is_empty());
    }

    /// A barrier that stands [`STALL_REPORT_AFTER`] gets one log line,
    /// however long it stands after; the next barrier gets its own.
    #[test]
    fn the_stall_line_is_queued_once_per_barrier() {
        // The joiners never push METRICS: a failure window of 100 s,
        // longer than the test's 50, keeps them in the view.
        let cfg = SystemConfig {
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_misses: 1_000,
            ..SystemConfig::default()
        };
        let mut lead = Lead::new(&cfg, Instant::now());
        let logs = |lead: &mut Lead, at: Instant| -> Vec<String> {
            lead.on_tick(at);
            lead.effects()
                .filter_map(|e| match e {
                    Effect::Log(line) => Some(line),
                    _ => None,
                })
                .collect()
        };
        let t0 = lead.now;
        let ms = Duration::from_millis;
        lead.on_frame(t0, &join(1));
        assert!(logs(&mut lead, t0).is_empty());
        assert!(logs(&mut lead, t0 + STALL_REPORT_AFTER - ms(1)).is_empty());
        let said = logs(&mut lead, t0 + STALL_REPORT_AFTER);
        assert_eq!(said.len(), 1);
        assert!(
            said[0].starts_with("elga lead: waiting on migrate barrier of epoch 2"),
            "{said:?}"
        );
        assert!(logs(&mut lead, t0 + STALL_REPORT_AFTER * 3).is_empty());

        let t1 = t0 + STALL_REPORT_AFTER * 3;
        settle(&mut lead, t1);
        lead.on_frame(t1, &join(2));
        assert!(logs(&mut lead, t1).is_empty());
        assert_eq!(logs(&mut lead, t1 + STALL_REPORT_AFTER).len(), 1);
        assert!(logs(&mut lead, t1 + STALL_REPORT_AFTER * 2).is_empty());
    }

    /// Failure detection looks at most once per heartbeat interval,
    /// however often the lead ticks.
    #[test]
    fn dead_agent_detection_runs_at_most_once_per_interval() {
        let mut lead = watching_lead();
        let t0 = lead.now;
        let ms = Duration::from_millis;
        lead.on_frame(t0, &join(1));
        settle(&mut lead, t0);
        drained(&mut lead);
        // Looks: 250 ms of silence is inside the 300 ms window.
        lead.on_tick(t0 + ms(250));
        // 70 and 99 ms after that look: past the window, but not looked.
        lead.on_tick(t0 + ms(320));
        lead.on_tick(t0 + ms(349));
        assert!(published(&mut lead, packet::VIEW).is_empty());
        assert_eq!(lead.member_ids(), [1]);
        lead.on_tick(t0 + ms(350));
        assert_eq!(published(&mut lead, packet::VIEW).len(), 1);
        assert!(lead.member_ids().is_empty());
    }

    /// Each recovery trigger — a member a tick finds silent, a departer
    /// that dies while it drains (departers push METRICS and are watched
    /// like members), a `links_broken` rise reported under an epoch no
    /// reset has closed — publishes one frame: a VIEW whose `reset` is
    /// its own epoch, which opens the barrier. It omits the dead member
    /// and every departer, who are no longer watched, folds in the
    /// queued join and carries the zero table: a delta counted before
    /// it is dropped, one counted since is folded. The held wait for the
    /// run the recovery aborted is answered with it, and so is a later
    /// one, at once. A link's rise is news once: a later one resets
    /// again.
    #[test]
    fn each_recovery_trigger_publishes_one_reset_view() {
        let interval = Duration::from_millis(100);
        let metrics = |agent, links_broken, epoch| AgentMetrics {
            agent,
            epoch,
            links_broken,
            ..AgentMetrics::default()
        };
        for trigger in ["silent member", "dead departer", "broken link"] {
            let mut lead = watching_lead();
            let t0 = lead.now;
            for id in [1, 2, 3] {
                lead.on_frame(t0, &join(id));
                settle(&mut lead, t0);
            }
            let early = msg::encode_sketch_delta(lead.view.epoch, &ring_delta(&lead, 0, 8, 1));
            lead.on_frame(t0, &early);
            assert!(lead.view.sketch.estimate_bound() > 0, "{trigger}");
            if trigger == "dead departer" {
                // The run waits for the leave's barrier, which agent 2
                // never reports.
                lead.on_frame(t0, &leave(2));
            }
            let run = lead.start_run(run_info(WCC.0, false));
            lead.on_frame(t0, &run_wait(run));
            // Queued behind the run or the barrier.
            lead.on_frame(t0, &join(4));
            lead.on_frame(t0, &leave(3));
            let (dead, at) = if trigger == "broken link" {
                drained(&mut lead);
                lead.on_frame(t0, &metrics(1, 1, lead.view.epoch).encode());
                (0, t0)
            } else {
                for k in 1..=4 {
                    // The open barrier's republished VIEWs go first.
                    drained(&mut lead);
                    for id in [1, 3] {
                        lead.on_frame(t0 + interval * k, &beat(id));
                    }
                    lead.on_tick(t0 + interval * k);
                }
                (2, t0 + interval * 4)
            };
            let effects = drained(&mut lead);
            let frames = effects.iter().filter_map(|e| match e {
                Effect::Publish(f) => Some(f),
                _ => None,
            });
            let [reset] = &frames.collect::<Vec<_>>()[..] else {
                panic!("{trigger}: {effects:?}");
            };
            let view = DirectoryView::decode(reset).expect(trigger);
            let opened = (view.reset, lead.migrate_epoch);
            assert_eq!(opened, (view.epoch, Some(view.epoch)), "{trigger}");
            let members: Vec<_> = view.agents.iter().map(|a| a.id).collect();
            let survivors = if dead == 0 { vec![1, 2, 4] } else { vec![1, 4] };
            assert_eq!((&members, &lead.migrate_members), (&survivors, &survivors));
            assert!(lead.departing.is_empty() && !lead.last_seen.contains_key(&3));
            assert_eq!(lead.last_seen.contains_key(&2), dead == 0, "{trigger}");
            assert_eq!(lead.agents_recovered, u64::from(dead != 0), "{trigger}");
            assert!(view.sketch.is_empty() && !lead.may_split, "{trigger}");
            assert_eq!(lead.view.sketch.estimate_bound(), 0, "{trigger}");
            let answers: Vec<_> = effects
                .iter()
                .filter_map(|e| match e {
                    Effect::Answer(key, f) => Some((*key, RunStatus::decode(f))),
                    _ => None,
                })
                .collect();
            let aborted = RunStatus {
                run_id: run,
                n_vertices: view.n_vertices,
                dead_agent: dead,
                ..RunStatus::default()
            };
            assert_eq!(answers, [(Held::Run(run), Some(aborted.clone()))]);
            lead.on_frame(at, &run_wait(run));
            let effects = drained(&mut lead);
            let [Effect::Reply(reply)] = &effects[..] else {
                panic!("{trigger}: {effects:?}");
            };
            assert_eq!(RunStatus::decode(reply), Some(aborted), "{trigger}");
            lead.on_frame(at, &early);
            assert!(lead.view.sketch.is_empty(), "{trigger}: counted before");
            fold(ring_delta(&lead, 0, 8, 1), &mut lead);
            assert_eq!(lead.view.sketch.estimate(3), 2, "{trigger}: counted since");
            if trigger == "broken link" {
                // The same rise again, or one counted under an epoch
                // the reset closed, is no news.
                lead.on_frame(at, &metrics(1, 1, view.epoch).encode());
                lead.on_frame(at, &metrics(2, 1, view.epoch - 1).encode());
                assert!(drained(&mut lead).is_empty());
                lead.on_frame(at, &metrics(2, 2, view.epoch).encode());
                assert_eq!(published(&mut lead, packet::VIEW).len(), 1, "a later break");
            }
            settle(&mut lead, at);
            assert_eq!(lead.migrate_epoch, None, "{trigger}");
        }
    }

    /// Drives a lead through random inputs on a virtual clock and
    /// checks, after each, the invariants its effects keep.
    struct Harness {
        lead: Lead,
        now: Instant,
        /// Agents that ever joined; each id joins once.
        joined: Vec<AgentId>,
        /// Each agent's settled traffic so far (its `chg` pair).
        traffic: HashMap<AgentId, u64>,
        /// The last READY each agent sent.
        sent: HashMap<AgentId, ReadyReport>,
        /// The broadcast that opened each migrate barrier, by epoch.
        openers: HashMap<u64, Frame>,
        /// The lead's view epoch after the last input.
        epoch: u64,
        /// Runs started asynchronous, and those released into
        /// event-driven execution.
        async_runs: Vec<u64>,
        live: Vec<u64>,
    }

    impl Harness {
        fn new() -> Self {
            let cfg = SystemConfig {
                heartbeat_interval: Duration::from_millis(50),
                heartbeat_misses: 4,
                sketch_width: 64,
                sketch_depth: 4,
                replication_threshold: 64,
                ..SystemConfig::default()
            };
            let lead = Lead::new(&cfg, Instant::now());
            Harness {
                now: lead.now,
                epoch: lead.view.epoch,
                lead,
                joined: Vec::new(),
                traffic: HashMap::new(),
                sent: HashMap::new(),
                openers: HashMap::new(),
                async_runs: Vec::new(),
                live: Vec::new(),
            }
        }

        /// One input: `kind` picks it, `a` and `b` parameterize it.
        fn step(&mut self, kind: u8, a: u8, b: u8) {
            let migrating = self.lead.migrate_epoch.is_some();
            let frame = match kind {
                0..=4 => match self.settled_ready(a, b) {
                    Some(f) => f,
                    None => return,
                },
                5 => {
                    let id = 1 + AgentId::from(a % 4);
                    if self.joined.contains(&id) {
                        return;
                    }
                    self.joined.push(id);
                    join(id)
                }
                6 => {
                    let members = self.lead.member_ids();
                    if members.is_empty() {
                        return;
                    }
                    leave(members[usize::from(a) % members.len()])
                }
                // A Streamer's batch, under the current epoch or an
                // older one.
                7 => {
                    let epoch = self.lead.view.epoch - u64::from(a % 2);
                    Frame::builder(packet::GET_VIEW).u64(epoch).finish()
                }
                // An agent's counts: a hub crossing the threshold one
                // way or the other, or ring edges.
                8 => {
                    let delta = match b {
                        0..=63 => hub_delta(&self.lead, 1),
                        64..=127 => hub_delta(&self.lead, -1),
                        _ => ring_delta(&self.lead, u64::from(a) * 8, 4, 1),
                    };
                    msg::encode_sketch_delta(self.lead.view.epoch, &delta)
                }
                9 => run_info(WCC.0, b % 2 == 1).encode(),
                10 => {
                    // Everyone watched pushes METRICS but the one `a` picks
                    // (or nobody is left out).
                    let mut watched = self.lead.member_ids();
                    watched.extend(self.lead.departing.iter().map(|a| a.id));
                    let silent = usize::from(a) % (watched.len() + 1);
                    for (i, &agent) in watched.iter().enumerate() {
                        if i != silent {
                            self.lead.on_frame(self.now, &beat(agent));
                        }
                    }
                    return self.check(kind, migrating);
                }
                _ => {
                    self.now += Duration::from_millis(u64::from(b % 120));
                    self.lead.on_tick(self.now);
                    return self.check(kind, migrating);
                }
            };
            self.lead.on_frame(self.now, &frame);
            self.check(kind, migrating);
        }

        /// A READY for the open barrier from the member `a` picks, with
        /// its traffic grown by `b`'s low bit and `b / 64` vertices
        /// active; `None` with no barrier open or no member in it.
        fn settled_ready(&mut self, a: u8, b: u8) -> Option<Frame> {
            let lead = &self.lead;
            let (run, step, phase) = lead.open_barrier()?;
            let members = match phase {
                Phase::Migrate => lead.migrate_members.clone(),
                _ => lead.member_ids(),
            };
            let agent = *members.get(usize::from(a) % members.len().max(1))?;
            let idle_round = lead.run.as_ref().is_some_and(|r| r.async_live) && step == 0;
            let traffic = self.traffic.entry(agent).or_default();
            *traffic += u64::from(b % 2);
            let rep = ReadyReport {
                agent,
                run,
                step: if idle_round { u32::MAX } else { step },
                phase: if idle_round { Phase::Scatter } else { phase },
                rows: vec![(
                    agent,
                    Counters {
                        chg_sent: *traffic,
                        chg_recv: *traffic,
                        ..Counters::default()
                    },
                )],
                active: u64::from(b / 64),
                global_contrib: 0.0,
                pushed: 0.0,
                n_primary: 1,
                epoch: lead.view.epoch,
                sent: Vec::new(),
            };
            self.sent.insert(agent, rep.clone());
            Some(rep.encode())
        }

        fn check(&mut self, kind: u8, migrating_before: bool) {
            let effects = drained(&mut self.lead);
            let lead = &self.lead;
            // The view epoch never decreases.
            assert!(lead.view.epoch >= self.epoch);
            self.epoch = lead.view.epoch;
            let opens_barrier =
                |e: &Effect| matches!(e, Effect::Publish(f) if f.packet_type() == packet::VIEW);
            for (i, effect) in effects.iter().enumerate() {
                let Effect::Publish(f) = effect else {
                    continue;
                };
                match f.packet_type() {
                    packet::VIEW => {
                        let epoch = DirectoryView::decode(f).unwrap().epoch;
                        match self.openers.get(&epoch) {
                            // A republished barrier frame is the one
                            // that opened the barrier, and the barrier
                            // is still open.
                            Some(first) => {
                                assert_eq!(first, f);
                                assert_eq!(lead.migrate_epoch, Some(epoch));
                            }
                            None => {
                                assert!(self.openers.keys().all(|&e| e < epoch));
                                self.openers.insert(epoch, f.clone());
                            }
                        }
                    }
                    // No START while a migrate barrier is open: one that
                    // arrives then waits, and a barrier open after a
                    // START was opened after it.
                    packet::START => {
                        assert!(!(kind == 9 && migrating_before));
                        assert!(
                            lead.migrate_epoch.is_none() || effects[i..].iter().any(opens_barrier)
                        );
                        let info = RunInfo::decode(f).unwrap();
                        if info.asynchronous {
                            self.async_runs.push(info.run_id);
                        }
                    }
                    packet::ADVANCE => {
                        let adv = Advance::decode(f).unwrap();
                        // A step runs whole only with no membership
                        // change pending.
                        let whole = (adv.phase, adv.until) == (Phase::Combine, Phase::Scatter);
                        assert!(!whole || !lead.membership_pending());
                        if !self.async_runs.contains(&adv.run) {
                            continue;
                        }
                        if adv.done && self.live.contains(&adv.run) {
                            // One round of idle reports under the epoch
                            // the run ends in, over a balanced table.
                            for id in lead.member_ids() {
                                let r = &self.sent[&id];
                                assert_eq!((r.run, r.step), (adv.run, u32::MAX));
                                assert_eq!(r.epoch, lead.view.epoch);
                            }
                            assert!(lead.channels.gaps(true).is_empty());
                        } else if (adv.step, adv.phase) == (1, Phase::Scatter) {
                            self.live.push(adv.run);
                        }
                    }
                    _ => {}
                }
            }
            // A batch is answered with `OK(epoch)` and nothing else when
            // the epoch it names is current, with the view otherwise; a
            // fold answers nothing, and a quiet one queues nothing.
            match kind {
                7 => match &effects[..] {
                    [Effect::Reply(f)] if f.packet_type() == packet::OK => {
                        assert_eq!(f.reader().u64(), Some(lead.view.epoch));
                    }
                    [Effect::Reply(f)] => assert_eq!(f.packet_type(), packet::VIEW),
                    other => panic!("a batch request ended in {other:?}"),
                },
                8 => assert!(!effects.iter().any(|e| matches!(e, Effect::Reply(_)))),
                _ => {}
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 128,
            ..Default::default()
        })]

        /// ROADMAP 3(a)'s invariants after every input of a random order
        /// of joins, leaves, settled READYs for whatever barrier is open,
        /// batch requests, quiet and factor-crossing sketch deltas, run
        /// starts, METRICS pushes and ticks, over one to four agents.
        #[test]
        fn invariants_hold_over_random_event_orders(
            inputs in proptest::collection::vec(
                (0u8..12, proptest::any::<u8>(), proptest::any::<u8>()),
                1..120,
            ),
        ) {
            let mut h = Harness::new();
            for (kind, a, b) in inputs {
                h.step(kind, a, b);
            }
        }
    }
}
