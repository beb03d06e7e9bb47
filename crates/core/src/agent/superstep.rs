//! Superstep execution: the sync scatter/combine/apply phases, the
//! shard kernels, the message handlers that feed them, and the async
//! event-driven mode.
//!
//! There is one engine. An async message folds into its primary's
//! aggregate as a sync PARTIAL does ([`fold_ppartial`]), and a round
//! applies what the messages listed with the same apply kernel as a
//! sync step; a vertex fires through the same `scatter_vertex`, edge
//! memo and target table as a sync scatter, flushed per vertex; a state
//! goes to a replica set through the same `broadcast_state` and arrives
//! through the same `adopt_state`. Records an agent addresses to itself
//! are never framed: they are folded in place when sent, and what they
//! cause in an async run waits for its next round.

use super::*;

/// What one superstep kernel emits, kept on the agent: every buffer is
/// cleared but never dropped, so steady-state supersteps allocate
/// nothing. Shards append in shard order, so each destination's records
/// leave in that order.
#[derive(Default)]
pub(super) struct StepScratch {
    /// Scatter's output run of the shard at hand: `(target-table slot,
    /// value)` per edge a firing vertex sent along, in kernel order.
    slots: Vec<(u32, u64)>,
    /// Edges of `slots` whose memo slot was filled this step (their
    /// owner lookups were counted by the cache itself).
    refreshed: u64,
    /// State broadcasts (apply).
    states: FxHashMap<AgentId, Vec<StateRecord>>,
    /// Change in the sum of the primaries' states from the shard's
    /// folds (delta apply).
    sum: f64,
    /// Residual the folds pushed on, Σ |r| (delta apply), summed over
    /// the kernels of one sync advance; its READY takes it.
    pub(super) pushed: f64,
    /// Primaries the apply kernel left active for the next scatter.
    active: u64,
    /// Entries the kernel visited (map length on a sweep, worklist
    /// length otherwise).
    visits: u64,
}

/// Records handled between two looks at the mailbox for reads, in the
/// loops that can run long without returning to `run_loop`.
const READ_YIELD: usize = 1024;

/// Read-only context of one kernel call, for the program type `P` the
/// kernel is compiled for: a built-in's own type, so its per-edge calls
/// inline, or a custom program's trait object.
pub(super) struct KernelCtx<'a, P: VertexProgram + ?Sized> {
    program: &'a P,
    locator: &'a EdgeLocator,
    sketch: &'a CountMinSketch,
    my_id: AgentId,
    /// The target table's generation: what edge memos and placement
    /// stamps must carry to be believed.
    generation: u32,
    n_vertices: u64,
    step: u32,
    /// Visit every entry of the shard instead of draining its
    /// worklist (see [`Agent::run_kernel`]).
    sweep: bool,
    scatter_all: bool,
    reuse: bool,
    /// A full run's global reduce; a delta run's served sum, which
    /// scales the fold threshold.
    global: f64,
    /// Residual delta run: frontier seeded from accumulated residuals,
    /// scatter pushes applied deltas instead of full states.
    delta: bool,
    /// A live async run: a vertex whose §3.2 waiting set is not yet
    /// full is skipped ([`apply_vertex`]), and the lists the kernel
    /// reads are whatever the messages since the last round listed.
    live: bool,
}

// Copy for any `P`: the context only borrows the program.
impl<P: VertexProgram + ?Sized> Clone for KernelCtx<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: VertexProgram + ?Sized> Copy for KernelCtx<'_, P> {}

impl Agent {
    // ------------------------------------------------------------------
    // Sync phases
    // ------------------------------------------------------------------

    /// Scatter the current step, chasing its own records with `chase`
    /// ([`Agent::chase`]), and return `(active, global_contrib)` for the
    /// Scatter report: the primaries the chase left active, and a full
    /// run's reduce term.
    fn phase_scatter(&mut self, chase: bool) -> (u64, f64) {
        let run = self.run.as_ref().expect("scatter without run");
        let (step, delta) = (run.step, run.info.delta);
        // The list is complete only once a sweep has cleared every
        // stale flag (`needs_sweep`); `scatter_all` programs visit
        // every vertex by definition (delta runs scatter pending
        // deltas, never full states, so the hint does not apply).
        let global_term = !delta && run.program.as_dyn().scatter_all();
        let sweep = self.needs_sweep || global_term;
        // Step 0 is preparation: it only reports the primary vertex
        // count so the directory can hand `n` to initialization.
        let mut active = 0;
        if step > 0 {
            active = self.run_kernel(Phase::Scatter, sweep, chase);
            if sweep {
                self.needs_sweep = false;
            }
        }
        // Full runs of a program with a global term (PageRank's
        // dangling mass) recompute it from scratch on every step, which
        // sweeps anyway. The primary count the READY reports is kept
        // ([`Agent::primaries`]), so no other run walks the store here.
        let reduced = if global_term {
            self.primary_summary()
        } else {
            0.0
        };
        (active, reduced)
    }

    /// Apply the current step and return the number of primaries left
    /// active, which the step's verdict sums.
    fn phase_apply(&mut self) -> u64 {
        let run = self.run.as_ref().expect("apply without run");
        // Every primary participates at step 0 of a run that did not
        // keep its lists, and when a full run's program applies without
        // messages; otherwise receivers do, and at step 0 what the list
        // holds.
        let sweep =
            self.needs_sweep || !run.info.delta && run.program.as_dyn().applies_without_messages();
        self.run_kernel(Phase::Apply, sweep, false)
    }

    /// Run `phase` of the current step under its clock, which its
    /// `metrics.*_nanos` and trace span cover (a scatter's chase
    /// included). Returns `(active, global_contrib)` for the READY that
    /// reports the phase.
    fn timed_phase(&mut self, phase: Phase, chase: bool) -> (u64, f64) {
        let run = self.run.as_mut().expect("phase without run");
        run.phase = phase;
        let (run_id, step) = (run.info.run_id, run.step);
        let t0 = Instant::now();
        let (out, kind) = match phase {
            Phase::Scatter => (self.phase_scatter(chase), EventKind::PhaseScatter),
            Phase::Combine => {
                self.run_kernel(Phase::Combine, false, false);
                ((0, 0.0), EventKind::PhaseCombine)
            }
            Phase::Apply => ((self.phase_apply(), 0.0), EventKind::PhaseApply),
            Phase::Migrate => return (0, 0.0),
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        match phase {
            Phase::Scatter => self.metrics.scatter_nanos += nanos,
            Phase::Combine => self.metrics.combine_nanos += nanos,
            _ => self.metrics.apply_nanos += nanos,
        }
        self.tracer.span(kind, t0, run_id, u64::from(step));
        out
    }

    /// Execute a sync ADVANCE (the run's step, vertex count and global
    /// are already adopted) and answer it with exactly one READY: the
    /// step loop combine → apply → the next step's scatter, from the
    /// advance's phase through its `until`, serving reads between the
    /// phases. The READY reports the last phase, with the `active` of
    /// the apply and the chase and the contribution of the scatter it
    /// ran.
    ///
    /// An advance that runs the whole loop to the next scatter — the
    /// lead asks for that only while no vertex can split — chases
    /// that scatter's own records where the program allows it
    /// ([`Agent::chases`]).
    pub(super) fn run_phases(&mut self, adv: &msg::Advance) {
        let t0 = Instant::now();
        let (mut phase, mut active, mut contrib) = (adv.phase, 0, 0.0);
        // The READY reports this advance's folds, none an async round
        // or an earlier run left behind.
        self.scratch.pushed = 0.0;
        let chase = adv.phase == Phase::Combine && adv.until == Phase::Scatter && self.chases();
        let replica_sent = |a: &Agent| -> u64 {
            (a.channels.values())
                .map(|c| c.part_sent + c.state_sent)
                .sum()
        };
        loop {
            let before = replica_sent(self);
            let (a, c) = self.timed_phase(phase, chase);
            match phase {
                Phase::Apply => active = a,
                Phase::Scatter => (active, contrib) = (active + a, c),
                _ => {}
            }
            if phase == adv.until {
                break;
            }
            // What a phase the loop runs past sent was this agent's own,
            // delivered in place.
            debug_assert_eq!(
                before,
                replica_sent(self),
                "{phase:?} put PARTIAL/STATE records on the wire inside the loop"
            );
            self.serve_reads();
            phase = match phase {
                Phase::Combine => Phase::Apply,
                Phase::Apply => {
                    self.run.as_mut().expect("run").step += 1;
                    Phase::Scatter
                }
                _ => Phase::Combine,
            };
        }
        // A fast peer's records of the phase reached, which ran ahead of
        // this advance, are taken in now and count toward the next one.
        self.replay_buffered();
        self.metrics.last_step_nanos = t0.elapsed().as_nanos() as u64;
        let run = self.run.as_ref().expect("run");
        // A delta run's every report says how far the primaries' sum
        // moved since the last `done`, whichever phase it reports.
        let contrib = if run.info.delta {
            self.unreported_sum
        } else {
            contrib
        };
        self.send_ready(run.info.run_id, run.step, run.phase, active, contrib);
    }

    /// The agent split into what a kernel reads — the run's context at
    /// its current step — and what it writes: the owner memo, the
    /// target table, the store and the step's scratch. Sync steps and
    /// async handlers alike run their kernels on these.
    fn kernel_parts<'a, P: VertexProgram + ?Sized>(
        &'a mut self,
        program: &'a P,
        sweep: bool,
    ) -> (
        KernelCtx<'a, P>,
        &'a mut OwnerCache,
        &'a mut TargetTable,
        &'a mut VertexStore,
        &'a mut StepScratch,
    ) {
        let run = self.run.as_ref().expect("kernel without run");
        let ctx = KernelCtx {
            program,
            locator: &self.locator,
            sketch: &self.view.sketch,
            my_id: self.id,
            generation: self.targets.generation(),
            n_vertices: run.n_vertices,
            step: run.step,
            sweep,
            scatter_all: program.scatter_all(),
            reuse: run.info.reuse_state,
            global: run.global,
            delta: run.info.delta,
            live: run.async_live,
        };
        let (cache, table) = (&mut self.route_cache, &mut self.targets);
        (ctx, cache, table, &mut self.vertices, &mut self.scratch)
    }

    /// Run one superstep kernel over the vertex shards in index order,
    /// then send what it emitted and keep the per-destination counts for
    /// the phase's READY. With `sweep` the kernel visits every
    /// entry; otherwise it drains the phase's worklist, so the step
    /// costs O(frontier). A scatter with `chase` runs its own records
    /// to a local fixed point before it sends ([`Agent::chase`]). Reads
    /// are served after every shard that had work (DESIGN.md "Reads
    /// inside kernels"). Returns the number of primaries an apply
    /// kernel or a chase left active.
    fn run_kernel(&mut self, phase: Phase, sweep: bool, chase: bool) -> u64 {
        let program = self.program();
        dispatch!(&program, p => self.run_kernel_with(p, phase, sweep, chase))
    }

    /// [`Agent::run_kernel`] compiled for the run's program type.
    fn run_kernel_with<P: VertexProgram + ?Sized>(
        &mut self,
        program: &P,
        phase: Phase,
        sweep: bool,
        chase: bool,
    ) -> u64 {
        let mut sum = 0.0;
        for i in 0..SHARDS {
            let (ctx, cache, table, store, out) = self.kernel_parts(program, sweep);
            let shard = &mut store.shards_mut()[i];
            let busy = sweep || worklist_len(phase, &shard.lists) > 0;
            kernel_shard(phase, ctx, cache, table, shard, out);
            if phase == Phase::Scatter {
                self.fold_scatter_run(program);
            }
            // Summed within the shard, then across shards.
            sum += std::mem::take(&mut self.scratch.sum);
            if busy {
                self.serve_reads();
            }
        }
        if chase {
            self.chase(program);
            sum += std::mem::take(&mut self.scratch.sum);
        }
        self.metrics.kernel_visits += std::mem::take(&mut self.scratch.visits);
        let active = std::mem::take(&mut self.scratch.active);
        // Only applies fold: the kernel's, or the chase's.
        self.unreported_sum += sum;
        // Each destination's batch holds its records in shard order and
        // leaves as runs through its coalescing outbox, which keeps that
        // order exactly.
        let sent = match phase {
            Phase::Apply => self.send_states(),
            _ => self.send_table(program, phase),
        };
        self.run.as_mut().expect("run").sent = sent;
        active
    }

    /// Whether this step's scatter may chase its own records (DESIGN.md
    /// "The superstep"): in a `Monotone` program's run without a step
    /// cap, whose cap would count hops, and in a residual delta run,
    /// whose cap only bounds a run that stops at its tolerance. A
    /// program with no delta formulation never chases, nor does an
    /// async run.
    fn chases(&self) -> bool {
        let run = self.run.as_ref().expect("run");
        let program = run.program.as_dyn();
        !run.info.asynchronous
            && match program.delta_kind() {
                DeltaKind::Monotone => program.max_steps().is_none(),
                DeltaKind::Residual => run.info.delta,
                DeltaKind::None => false,
            }
    }

    /// Run the scatter's records to this agent to a local fixed point,
    /// round by round, before anything is sent: each round takes the
    /// table's own rows ([`TargetTable::flush_own`]) in first-touch
    /// order; a record whose target is home here and admitted by the
    /// program's [`DeltaKind`] ([`chase_admits`]) is folded, applied and
    /// scattered at once, the rest are folded for the next combine as
    /// before. What the chased vertices send peers combines into the
    /// rows the scatter touched, and leaves with them in the one send
    /// that follows. Costs one apply and one scatter per vertex chased,
    /// never a pass over the shards; `chased` counts them, and the
    /// apply's `active` and change of the states' sum join the step's.
    fn chase<P: VertexProgram + ?Sized>(&mut self, program: &P) {
        let (kind, visited) = (program.delta_kind(), self.scratch.visits);
        while let Some(me) = self.targets.flush_own() {
            let own = self.targets.take_run(me);
            if own.is_empty() {
                self.targets.recycle(me, own);
                break;
            }
            self.metrics.vmsgs += own.len() as u64;
            for block in own.chunks(READ_YIELD) {
                let (ctx, cache, table, store, out) = self.kernel_parts(program, false);
                let mut fired = 0;
                for &(v, value) in block {
                    let (e, lists) = store.entry_and_lists(v);
                    if !(chase_admits(kind, e) && at_home(ctx, cache, v, e)) {
                        fold_partial(program, v, e, lists, value);
                        continue;
                    }
                    out.visits += 1;
                    debug_assert!(!e.has_ppartial, "vertex {v} chased with a parked aggregate");
                    (e.ppartial, e.has_ppartial) = (value, true);
                    apply_vertex(ctx, cache, v, e, lists, out);
                    if !(e.active || e.has_pending_delta) {
                        continue;
                    }
                    scatter_vertex(ctx, cache, table, v, e, out);
                    // Scattered now, not at the next step: off the list
                    // the apply put it on.
                    if lists.scatter.last() == Some(&v) {
                        lists.scatter.pop();
                    }
                    // Into the rows at once, so the run stays one
                    // vertex long.
                    fired += out.slots.len() as u64;
                    table.accumulate(&out.slots, |a, b| program.combine(a, b));
                    out.slots.clear();
                }
                // The accounting of `fold_scatter_run`, for the block.
                let filled = std::mem::take(&mut self.scratch.refreshed);
                self.metrics.memo_fills += filled;
                self.route_cache.count_hits(fired - filled);
                self.serve_reads();
            }
            self.targets.recycle(me, own);
        }
        self.metrics.chased += self.scratch.visits - visited;
    }

    /// The current run's program, to dispatch on ([`dispatch!`]) once
    /// per kernel call or frame.
    fn program(&self) -> Program {
        self.run.as_ref().expect("run").program.clone()
    }

    /// The current run's id and step, which every data record carries.
    fn run_step(&self) -> (u64, u32) {
        let run = self.run.as_ref().expect("run");
        (run.info.run_id, run.step)
    }

    /// Fold the scatter run at hand into the target table's
    /// accumulators, looking at the mailbox for reads between blocks,
    /// count the slots the kernel filled (`memo_fills`), and credit the
    /// owner cache with the edges served from their memos: a slot is
    /// the cache's answer kept beside the edge.
    fn fold_scatter_run<P: VertexProgram + ?Sized>(&mut self, program: &P) {
        let mut run = std::mem::take(&mut self.scratch.slots);
        let filled = std::mem::take(&mut self.scratch.refreshed);
        self.metrics.memo_fills += filled;
        self.route_cache.count_hits(run.len() as u64 - filled);
        for (i, block) in run.chunks(READ_YIELD).enumerate() {
            if i > 0 {
                self.serve_reads();
            }
            self.targets.accumulate(block, |a, b| program.combine(a, b));
        }
        // Hand the buffer back so its capacity is reused.
        run.clear();
        self.scratch.slots = run;
    }

    /// Flush the target table and send each peer its run — one record
    /// per touched row, in first-touch order — as `phase`'s records:
    /// VMSG after a scatter, PARTIAL after a combine. A scatter's run to
    /// this agent is folded in place, as on receipt, and is no record
    /// (a combine's kernel folds its own partials). Returns what went to
    /// each peer, sorted by it.
    fn send_table<P: VertexProgram + ?Sized>(
        &mut self,
        program: &P,
        phase: Phase,
    ) -> msg::StepCounts {
        let ((run_id, step), me) = (self.run_step(), self.id);
        let scatter = phase == Phase::Scatter;
        let append = if scatter {
            msg::append_vmsgs
        } else {
            msg::append_partials
        };
        self.targets.flush();
        let mut sent = msg::StepCounts::new();
        for dst in 0..self.targets.members().len() {
            let run = self.targets.take_run(dst);
            let agent = self.targets.members()[dst];
            if agent == self.id {
                debug_assert!(scatter || run.is_empty());
                self.fold_vmsgs_with(program, run.iter().copied());
            } else if !run.is_empty() {
                let n = run.len() as u64;
                let row = self.peer(agent);
                *if scatter {
                    &mut row.vmsg_sent
                } else {
                    &mut row.part_sent
                } += n;
                sent.push((agent, n));
                self.send_records(agent, &run, |out, block| {
                    append(out, run_id, step, me, block)
                });
            }
            self.targets.recycle(dst, run);
        }
        sent.sort_unstable();
        sent
    }

    /// Send the STATE records [`broadcast_state`] queued for other
    /// replicas, in the order queued, keeping the emptied batches'
    /// capacity. Returns what went to each peer, sorted by it.
    fn send_states(&mut self) -> msg::StepCounts {
        let ((run_id, step), me) = (self.run_step(), self.id);
        let mut map = std::mem::take(&mut self.scratch.states);
        let mut sent = msg::StepCounts::new();
        for (&agent, recs) in map.iter_mut().filter(|(_, recs)| !recs.is_empty()) {
            self.peer(agent).state_sent += recs.len() as u64;
            sent.push((agent, recs.len() as u64));
            self.send_records(agent, recs, |out, block| {
                msg::append_states(out, run_id, step, me, block)
            });
            recs.clear();
        }
        self.scratch.states = map;
        sent.sort_unstable();
        sent
    }

    /// Hand `recs` to `agent`'s outbox a block at a time, looking at
    /// the mailbox for reads between blocks.
    fn send_records<T>(
        &mut self,
        agent: AgentId,
        recs: &[T],
        append: impl Fn(&mut CoalescingOutbox, &[T]),
    ) {
        for block in recs.chunks(READ_YIELD) {
            self.with_outbox(agent, |out| append(out, block));
            self.serve_reads();
        }
    }

    /// Fold the current step's vertex messages into their targets'
    /// scatter partials — in a live async run, into their primaries'
    /// aggregates ([`Agent::async_apply`]), which the next round
    /// applies: the receive side of VMSG, for a peer's frame (parsed in
    /// place off its buffer) and for this agent's own scatter output
    /// (never framed) alike.
    fn fold_vmsgs_with<P: VertexProgram + ?Sized>(
        &mut self,
        program: &P,
        mut msgs: impl ExactSizeIterator<Item = (VertexId, u64)>,
    ) {
        self.metrics.vmsgs += msgs.len() as u64;
        if self.run.as_ref().expect("run").async_live {
            msgs.for_each(|(v, value)| self.async_apply(program, v, value));
            return;
        }
        loop {
            fold_partials(&mut self.vertices, program, msgs.by_ref().take(READ_YIELD));
            if msgs.len() == 0 {
                return;
            }
            self.serve_reads();
        }
    }

    // ------------------------------------------------------------------
    // Message handlers (sync + async)
    // ------------------------------------------------------------------

    /// Take in a VMSG, PARTIAL or STATE frame: off the mailbox
    /// (`arrival`), or replayed from `buffered_frames` once its phase
    /// has come.
    ///
    /// The rule all three record kinds follow: a frame of the current
    /// run is counted as received when it arrives, whatever is done
    /// with it then — as `on_changes` counts a change it defers — and
    /// a replay never counts it again. A joiner sits at `(step 0,
    /// Scatter)` until the resume advance, and the migrate barrier that
    /// precedes that advance only settles once the records paused
    /// agents sent it are counted: buffering them uncounted would wedge
    /// the barrier.
    pub(super) fn take_records(&mut self, frame: Frame, arrival: bool) {
        // A view borrows the frame's pooled receive buffer: records are
        // parsed in place as they are consumed, with no Vec.
        let kind = frame.packet_type();
        let head = match kind {
            packet::VMSG => {
                msg::decode_vmsgs(&frame).map(|v| (v.run, v.step, v.from, v.records.len()))
            }
            packet::PARTIAL => {
                msg::decode_partials(&frame).map(|v| (v.run, v.step, v.from, v.records.len()))
            }
            _ => msg::decode_states(&frame).map(|v| (v.run, v.step, v.from, v.records.len())),
        };
        let Some((run, step, from, n)) = head else {
            return;
        };
        let Some((_, cur_step, cur_phase, live)) = self.current_phase().filter(|cur| cur.0 == run)
        else {
            // Stale run: sent before our recovery reset, which zeroed the
            // counts it would move. (No agent acts on a `done` before it
            // has taken in what it counts.)
            self.metrics.stale_frames += 1;
            return;
        };
        let row = self.channels.entry(from).or_default();
        let (phase, taken) = match kind {
            packet::VMSG => (Phase::Scatter, &mut row.vmsg_recv),
            packet::PARTIAL => (Phase::Combine, &mut row.part_recv),
            _ => (Phase::Apply, &mut row.state_recv),
        };
        if arrival {
            *taken += n as u64;
        }
        // A sync run takes a frame in at its step and phase, a live
        // async run its VMSG and STATE frames at once; the rest waits.
        let now = if live {
            phase != Phase::Combine
        } else {
            (cur_step, cur_phase) == (step, phase)
        };
        if !now {
            self.buffered_frames.push(frame);
            return;
        }
        if !live {
            let run = self.run.as_mut().expect("run");
            run.taken_in = ((step, phase), run.taken_in((step, phase)) + n as u64);
        }
        let program = self.program();
        match kind {
            packet::VMSG => {
                let view = msg::decode_vmsgs(&frame).expect("decoded above");
                dispatch!(&program, p => self.fold_vmsgs_with(p, view.records.iter()));
            }
            packet::PARTIAL => {
                let view = msg::decode_partials(&frame).expect("decoded above");
                let store = &mut self.vertices;
                dispatch!(&program, p => for (v, value) in view.records {
                    let (e, lists) = store.entry_and_lists(v);
                    fold_ppartial(p, v, e, &mut lists.apply, value);
                });
            }
            _ => {
                let view = msg::decode_states(&frame).expect("decoded above");
                dispatch!(&program, p => self.adopt_states(p, view.records.iter(), live));
            }
        }
    }

    /// Adopt the records of a STATE frame of the current step into the
    /// replica copies here; in a live async run each scatters at once.
    fn adopt_states<P: VertexProgram + ?Sized>(
        &mut self,
        program: &P,
        records: impl Iterator<Item = StateRecord>,
        live: bool,
    ) {
        let delta_run = self.run.as_ref().is_some_and(|r| r.info.delta);
        for mut rec in records {
            // Async: a primary keeps the state it holds. Its own commits
            // never come back as frames, but an old primary's broadcast
            // can land after a view change (a split vertex's replica set
            // under the sender's view names this agent), and a commit
            // made here must not be undone by it: the next, worse
            // message would then pass for an improvement and stick.
            let keep = live && self.is_primary(rec.vertex);
            let (e, lists) = self.vertices.entry_and_lists(rec.vertex);
            let listed = e.active || e.has_pending_delta;
            if keep && e.has_state {
                rec.state = e.state;
            }
            adopt_state(e, &rec, delta_run);
            if live {
                // Scatter right away; a delta run pushes the applied
                // delta the record carries (zero aux — a rescatter
                // refresh — pushes nothing).
                self.fire(program, rec.vertex);
            } else if !listed && (e.active || e.has_pending_delta) {
                // Scattered at the next Scatter phase.
                lists.scatter.push(rec.vertex);
            }
        }
    }

    // ------------------------------------------------------------------
    // Async mode
    // ------------------------------------------------------------------

    /// Initial scatter when entering async mode: every entry goes
    /// through the scatter kernel once — the active ones fire, or on a
    /// delta run those holding the pending delta the step-0 apply
    /// broadcast — then execution is event-driven, its lists holding
    /// only what the run's messages list.
    pub(super) fn async_initial_scatter(&mut self) {
        self.vertices.clear_worklists();
        let all = self.vertices.keys().collect::<Vec<_>>();
        self.fire_all(all);
    }

    /// [`Agent::fire`] each of `vertices` in order.
    fn fire_all(&mut self, vertices: Vec<VertexId>) {
        let program = self.program();
        dispatch!(&program, p => vertices.into_iter().for_each(|v| self.fire(p, v)))
    }

    /// Scatter `v` through the sync kernel — its edge memo, its target
    /// table rows — and send the records at once. One flush per vertex
    /// keeps one record per edge, which §3.2 waiting sets count (rows
    /// are keyed `(target, destination)`, so a vertex's edges never
    /// share one), and leaves no row touched when the handler returns.
    fn fire<P: VertexProgram + ?Sized>(&mut self, program: &P, v: VertexId) {
        let (ctx, cache, table, store, out) = self.kernel_parts(program, false);
        if let Some(e) = store.get_mut(&v) {
            scatter_vertex(ctx, cache, table, v, e, out);
        }
        if !self.scratch.slots.is_empty() {
            self.fold_scatter_run(program);
            self.send_table(program, Phase::Scatter);
        }
    }

    /// Write `rec`, the state of a vertex that is primary here, to its
    /// replica set ([`broadcast_state`]) and send the other replicas
    /// their STATE records. This agent's copy adopts it in place and
    /// scatters at once, as a round's does.
    fn async_broadcast<P: VertexProgram + ?Sized>(&mut self, program: &P, rec: StateRecord) {
        let v = rec.vertex;
        let own = {
            let (ctx, cache, _, store, out) = self.kernel_parts(program, false);
            let (e, _) = store.entry_and_lists(v);
            let home = at_home(ctx, cache, v, e);
            broadcast_state(ctx, cache, home, v, e, &rec, &mut out.states)
        };
        self.send_states();
        if own {
            self.fire(program, v);
        }
    }

    /// Whether the live async run has work of its own no counter shows:
    /// vertices listed for its next round, which a paused run holds.
    pub(super) fn local_work(&self) -> bool {
        self.run.as_ref().is_some_and(|r| r.async_live && !r.paused)
            && self
                .vertices
                .shards()
                .iter()
                .any(|s| !s.lists.apply.is_empty())
    }

    /// One round of a live async run: the apply kernel over what the
    /// messages since the last round listed, so each primary applies
    /// once, its messages combined, and then a scatter of each vertex
    /// the kernel left on the scatter list. Holding every message that lands before the round to one
    /// apply is what keeps a burst from costing one broadcast each. What
    /// the scatter sends this agent is folded at once and waits for the
    /// next round; what the kernel listed again (an aggregate parked
    /// away from its primary, meta that waits for the next run) waits
    /// for the message, migration or resume that lists it.
    pub(super) fn async_round(&mut self) {
        self.run_kernel(Phase::Apply, false, false);
        let mut fired = Vec::new();
        for shard in self.vertices.shards_mut() {
            shard.lists.apply.clear();
            fired.append(&mut shard.lists.scatter);
        }
        fired.sort_unstable();
        fired.dedup();
        self.fire_all(fired);
    }

    /// Resume after a mid-run view change: every primary re-broadcasts
    /// its authoritative state — marked active — to the vertex's
    /// (new-view) replica set. Replicas adopt the state and re-scatter
    /// their local edge slices, which regenerates everything a moved
    /// placement can lose: messages that were in flight toward departed
    /// primaries, and state copies that went stale on freshly migrated
    /// edges. The round costs one message per edge — the same as async
    /// initialization — and keeps §3.2 waiting sets aligned, since
    /// every receiver sees exactly one message per in-edge.
    pub(super) fn async_rescatter(&mut self) {
        // Aggregates and residuals the pause held, or that migrated in
        // with their vertices, have no arriving message left to list
        // them: the next round looks at them.
        for shard in self.vertices.shards_mut() {
            let Shard { map, lists } = shard;
            let held = map.iter().filter(|(_, e)| e.has_ppartial || e.has_residual);
            lists.apply.extend(held.map(|(&v, _)| v));
        }
        let owned: Vec<StateRecord> = self
            .vertices
            .iter()
            .filter(|&(&v, e)| e.is_meta && e.has_state && self.is_primary(v))
            .map(|(&v, e)| StateRecord {
                vertex: v,
                state: e.state,
                out_degree: e.g_out.max(0) as u64,
                // A refresh, not an applied delta: replicas on delta
                // runs must not re-push (aux == 0 is the "nothing to
                // scatter" sentinel).
                aux: 0,
                active: true,
            })
            .collect();
        let count = owned.len() as u64;
        let program = self.program();
        dispatch!(&program, p => {
            owned.into_iter().for_each(|rec| self.async_broadcast(p, rec))
        });
        self.tracer
            .instant(EventKind::AsyncRescatter, self.view.epoch, count);
    }

    /// Take in one vertex message of a live async run: fold it into
    /// `v`'s aggregate where `v` is primary here — the next round
    /// applies it — or forward it to the primary. Every message lists
    /// `v`: a round skips a vertex whose §3.2 waiting set is not yet
    /// full and does not list it again.
    pub(super) fn async_apply<P: VertexProgram + ?Sized>(
        &mut self,
        program: &P,
        v: VertexId,
        value: u64,
    ) {
        let (run_id, _) = self.run_step();
        let (ctx, cache, _, store, _) = self.kernel_parts(program, false);
        match primary_of(ctx, cache, v, store.get_mut(&v)) {
            Some(primary) if primary == ctx.my_id => {
                let (e, lists) = store.entry_and_lists(v);
                e.wait_recv += 1;
                if !fold_ppartial(ctx.program, v, e, &mut lists.apply, value) {
                    lists.apply.push(v);
                }
            }
            // Not ours to apply: the sender resolved `v` under an older
            // view, or `v` is split and this is the replica its edge
            // aggregates at. Forward to the current primary.
            Some(primary) => {
                let me = self.id;
                self.peer(primary).vmsg_sent += 1;
                self.with_outbox(primary, |out| {
                    msg::append_vmsgs(out, run_id, 1, me, &[(v, value)])
                });
            }
            None => {}
        }
    }

    pub(super) fn on_idle(&mut self) {
        // The live async run's round precedes the flush and the idle
        // report: it appends records, and the lead may only see counts
        // taken with no own work left.
        if self.local_work() {
            self.async_round();
        }
        // The mailbox drained: whatever the handlers appended must
        // reach the wire now — peers (and the termination barrier)
        // cannot make progress on records parked in open frames. A
        // no-op when nothing is open. Only then are the degree changes
        // counted into the sketch delta, off the records' way.
        self.flush_outboxes();
        self.count_degrees();
        if self.local_work() {
            return;
        }
        self.answer_drain();
        let Some(run) = self.run.as_ref().filter(|r| r.async_live && !r.paused) else {
            // The one rule for late counted frames (a migration stream,
            // a forwarded change, a retransmit): handlers only move the
            // counts, and the last READY is re-sent here, once per
            // mailbox drain, whenever one moved since the lead was last
            // told — between runs, in a sync run, or in an async run
            // paused for a view change alike. The lead takes the rows in
            // and re-evaluates its barrier, so a barrier stays live on
            // O(drains) READYs however many frames a drain held.
            //
            // The exception is a record taken in by a sync run: its
            // barriers close on what the senders reported and each
            // receiver waits for its own count, so no barrier of the run
            // is waiting to hear of it, and the report would only wake
            // the lead.
            let sync_run = self.run.as_ref().is_some_and(|r| !r.info.asynchronous);
            if self.reported.is_some() && self.moved(!sync_run) {
                self.re_report();
            }
            return;
        };
        // A live async run answers with idle reports instead, once it
        // has no own work left and a count moved since the lead was last
        // told (or a report is owed): one report per drain at most.
        if !(self.idle_owed || self.moved(true)) {
            return;
        }
        self.idle_owed = false;
        let run_id = run.info.run_id;
        // What the sum moved by so far rides every idle report; the
        // members' last ones are what the lead's `done` takes in.
        self.send_ready(run_id, u32::MAX, Phase::Scatter, 0, self.unreported_sum);
    }
}

/// Fold `(target, value)` messages into the targets' scatter
/// partials, listing each target on its first partial since the last
/// combine so the combine kernel only walks receivers.
fn fold_partials<P: VertexProgram + ?Sized>(
    store: &mut VertexStore,
    program: &P,
    msgs: impl Iterator<Item = (VertexId, u64)>,
) {
    for (v, value) in msgs {
        let (e, lists) = store.entry_and_lists(v);
        fold_partial(program, v, e, lists, value);
    }
}

/// Fold one message into `v`'s scatter partial ([`fold_partials`]).
#[inline]
fn fold_partial<P: VertexProgram + ?Sized>(
    program: &P,
    v: VertexId,
    e: &mut VertexEntry,
    lists: &mut Worklists,
    value: u64,
) {
    if e.has_partial {
        e.partial = program.combine(e.partial, value);
    } else {
        e.partial = value;
        e.has_partial = true;
        lists.partial_dirty.push(v);
    }
}

/// Whether a chase applies an own record's target at once, the target
/// being home here (DESIGN.md "The superstep"). A `Monotone` program's
/// fold is a min or a max, so applying a record early lands where the
/// barrier would have, and every target is admitted; its apply keeps
/// what improves. A `Residual` program's apply sums what arrived, so
/// only a target with a single in-edge — this record's — is admitted:
/// its input for the step is complete, and its one push moves earlier
/// instead of becoming two.
#[inline]
fn chase_admits(kind: DeltaKind, e: &VertexEntry) -> bool {
    match kind {
        DeltaKind::Monotone => true,
        DeltaKind::Residual => e.is_meta && e.g_in == 1,
        DeltaKind::None => false,
    }
}

/// Length of the worklist `phase`'s kernel drains.
fn worklist_len(phase: Phase, lists: &Worklists) -> usize {
    match phase {
        Phase::Scatter => lists.scatter.len(),
        Phase::Combine => lists.partial_dirty.len(),
        Phase::Apply => lists.apply.len(),
        Phase::Migrate => 0,
    }
}

/// Dispatch one shard through the kernel for `phase`; a scatter and a
/// combine fill the target table.
fn kernel_shard<P: VertexProgram + ?Sized>(
    phase: Phase,
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    table: &mut TargetTable,
    shard: &mut Shard,
    out: &mut StepScratch,
) {
    // A list-driven scatter or apply is exact only if the lists are
    // complete; debug builds (the whole test suite) prove it each time.
    #[cfg(debug_assertions)]
    if !ctx.sweep && !ctx.live && phase != Phase::Combine {
        shard.assert_worklists_complete();
    }
    match phase {
        Phase::Scatter => scatter_shard(ctx, cache, table, shard, out),
        Phase::Combine => combine_shard(ctx, cache, table, shard),
        Phase::Apply => apply_shard(ctx, cache, shard, out),
        Phase::Migrate => {}
    }
}

/// Scatter messages for one shard's eligible vertices: every entry on
/// a sweep, the sorted scatter worklist otherwise.
fn scatter_shard<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    table: &mut TargetTable,
    shard: &mut Shard,
    out: &mut StepScratch,
) {
    let Shard { map, lists } = shard;
    if ctx.sweep {
        // The sweep clears every flag the list mirrors.
        lists.scatter.clear();
        out.visits += map.len() as u64;
        for (&v, e) in map.iter_mut() {
            scatter_vertex(ctx, cache, table, v, e, out);
        }
        return;
    }
    let mut list = std::mem::take(&mut lists.scatter);
    list.sort_unstable();
    list.dedup();
    out.visits += list.len() as u64;
    for v in list.drain(..) {
        if let Some(e) = map.get_mut(&v) {
            scatter_vertex(ctx, cache, table, v, e, out);
        }
    }
    // Hand the (drained) buffer back so its capacity is reused.
    lists.scatter = list;
}

/// What `v` sends this step along its out- and its in-edges (`None`:
/// nothing along that side), with its edge memo made to cover the
/// sides that fire. The one place scatter asks where an edge's message
/// goes: the edges past the memo's prefix — all of them under a new
/// generation — are resolved through the owner cache into `table`.
fn scatter_values<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    table: &mut TargetTable,
    v: VertexId,
    e: &mut VertexEntry,
    out: &mut StepScratch,
) -> (Option<u64>, Option<u64>) {
    let program = ctx.program;
    let vctx = VertexCtx {
        out_degree: e.rep_out_degree,
        in_degree: 0,
        n_vertices: ctx.n_vertices,
        step: ctx.step,
        global: 0.0,
    };
    let sides = if ctx.delta {
        // Delta runs scatter the applied delta the primary broadcast
        // last apply, not the full state, and only along out-edges —
        // the residual invariant is directed.
        let fired = e.has_pending_delta;
        let along_out = fired
            .then(|| program.scatter_delta(v, e.state, e.pending_delta, &vctx))
            .flatten();
        (along_out, None)
    } else if e.has_state && (e.active || ctx.scatter_all) {
        (
            program.scatter_out(v, e.state, &vctx),
            program.scatter_in(v, e.state, &vctx),
        )
    } else {
        (None, None)
    };
    let needed = match sides {
        (None, None) => return sides,
        (_, None) => e.adj.out().len(),
        (_, Some(_)) => e.adj.out().len() + e.adj.inn().len(),
    };
    // Under the table's generation, the memo is a prefix of the out-list
    // and then the in-list: it is extended by the unfilled tail of each
    // side that fires, the out side first whenever the in side does.
    restamp(ctx, cache, v, e);
    let held = e.slots.len();
    if held < needed {
        let (outs, ins) = (e.adj.out(), e.adj.inn());
        let out_tail = &outs[held.min(outs.len())..];
        let in_tail: &[VertexId] = if sides.1.is_some() {
            &ins[held.saturating_sub(outs.len())..]
        } else {
            &[]
        };
        let mut fill = |tail: &[VertexId], fires: bool| {
            e.slots.extend(tail.iter().map(|&w| {
                cache
                    .owner_of_edge(ctx.locator, w, v, || ctx.sketch.estimate(w))
                    .map_or(NO_SLOT, |owner| table.intern(w, owner))
            }));
            // Counted by the lookups above, not as served.
            out.refreshed += if fires { tail.len() as u64 } else { 0 };
        };
        fill(out_tail, sides.0.is_some());
        fill(in_tail, true);
    }
    sides
}

/// Scatter one vertex if it is eligible — one `(slot, value)` per edge
/// into the shard's output run, the slot being the target-table row the
/// edge's message is combined in — and clear the flags that made it
/// eligible (they are re-armed by STATE broadcasts at the next apply).
fn scatter_vertex<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    table: &mut TargetTable,
    v: VertexId,
    e: &mut VertexEntry,
    out: &mut StepScratch,
) {
    let (along_out, along_in) = scatter_values(ctx, cache, table, v, e, out);
    e.active = false;
    if ctx.delta {
        e.pending_delta = 0;
        e.has_pending_delta = false;
    }
    let program = ctx.program;
    let slots = e.slots.as_slice();
    let (outs, ins) = slots.split_at(e.adj.out().len().min(slots.len()));
    if let Some(val) = along_out {
        let sent = e.adj.out().iter().zip(outs);
        out.slots
            .extend(sent.map(|(&w, &slot)| (slot, program.along_edge(v, w, val))));
    }
    if let Some(val) = along_in {
        let sent = e.adj.inn().iter().zip(ins);
        out.slots
            .extend(sent.map(|(&u, &slot)| (slot, program.along_edge(v, u, val))));
    }
}

/// Bring `e` under the table's generation if it is not: drop the edge
/// memo of another epoch and stamp where the vertex lives now.
#[inline]
fn restamp<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    v: VertexId,
    e: &mut VertexEntry,
) -> bool {
    e.is_home(ctx.generation, || {
        let p = cache.placement(ctx.locator, v, || ctx.sketch.estimate(v));
        p.k == 1 && p.primary == Some(ctx.my_id)
    })
}

/// Whether `v` is unsplit with its primary at this agent — every
/// PARTIAL and STATE record of `v` is then this agent's own — from the
/// entry's placement stamp if it is current, the owner cache once per
/// generation if not. False sends the caller to the cache. An answer
/// served from the stamp is the cache's own, kept beside the vertex,
/// and counts as the hit it replaces.
#[inline]
fn at_home<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    v: VertexId,
    e: &mut VertexEntry,
) -> bool {
    let served = e.is_stamped_home(ctx.generation);
    cache.count_hits(u64::from(served));
    served || restamp(ctx, cache, v, e)
}

/// `v`'s primary: this agent where the entry held here says home
/// ([`at_home`]), the owner cache's answer otherwise.
#[inline]
fn primary_of<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    v: VertexId,
    e: Option<&mut VertexEntry>,
) -> Option<AgentId> {
    if e.is_some_and(|e| at_home(ctx, cache, v, e)) {
        return Some(ctx.my_id);
    }
    cache.primary(ctx.locator, v, || ctx.sketch.estimate(v))
}

/// Forward one shard's scatter partials to their primaries, each
/// remote one through its `(vertex, primary)` row of the target table.
/// Touches only the shard's dirty list — vertices that actually
/// received messages — instead of scanning the whole map; sorts it so
/// the sent order is deterministic regardless of arrival order.
fn combine_shard<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    table: &mut TargetTable,
    shard: &mut Shard,
) {
    let Shard { map, lists } = shard;
    let mut dirty = std::mem::take(&mut lists.partial_dirty);
    dirty.sort_unstable();
    for v in dirty.drain(..) {
        let Some(e) = map.get_mut(&v) else {
            continue;
        };
        if !e.has_partial {
            continue;
        }
        let partial = std::mem::take(&mut e.partial);
        e.has_partial = false;
        match primary_of(ctx, cache, v, Some(e)) {
            // This agent is the primary (always, for a vertex that is
            // not split): the partial is delivered in place, as
            // `take_records` would on receipt, and is no PARTIAL record —
            // uncounted on both sides of the barrier sums.
            Some(primary) if primary == ctx.my_id => {
                fold_ppartial(ctx.program, v, e, &mut lists.apply, partial);
            }
            Some(primary) => {
                let slot = table.intern(v, primary);
                table.accumulate(&[(slot, partial)], |a, b| ctx.program.combine(a, b));
            }
            None => {}
        }
    }
    // Hand the (drained) buffer back so its capacity is reused.
    lists.partial_dirty = dirty;
}

/// Fold `value` into `v`'s aggregate at its primary — a PARTIAL record,
/// this agent's own combined partial, or an async message — and list
/// `v` for the apply kernel on the aggregate's first value. Returns
/// whether it listed `v`.
#[inline]
fn fold_ppartial<P: VertexProgram + ?Sized>(
    program: &P,
    v: VertexId,
    e: &mut VertexEntry,
    apply: &mut Vec<VertexId>,
    value: u64,
) -> bool {
    if e.has_ppartial {
        e.ppartial = program.combine(e.ppartial, value);
        return false;
    }
    (e.ppartial, e.has_ppartial) = (value, true);
    apply.push(v);
    true
}

/// Apply one shard's primaries and queue state broadcasts to their
/// replica sets: every entry on a sweep, the sorted apply worklist
/// (the vertices that received partials) otherwise.
fn apply_shard<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    shard: &mut Shard,
    out: &mut StepScratch,
) {
    let Shard { map, lists } = shard;
    if ctx.sweep {
        // The sweep consumes every `has_ppartial` the list mirrors.
        lists.apply.clear();
        out.visits += map.len() as u64;
        for (&v, e) in map.iter_mut() {
            apply_vertex(ctx, cache, v, e, lists, out);
        }
        return;
    }
    lists.apply.sort_unstable();
    lists.apply.dedup();
    // `apply_vertex` may re-list a vertex behind the drained prefix.
    let n = lists.apply.len();
    out.visits += n as u64;
    for i in 0..n {
        let v = lists.apply[i];
        if let Some(e) = map.get_mut(&v) {
            apply_vertex(ctx, cache, v, e, lists, out);
        }
    }
    lists.apply.drain(..n);
}

/// Apply one vertex if this agent is its primary. Skipping a primary
/// that is not on the apply list is exact at step >= 1: a delta-run
/// primary with a parked residual and no new partial folds to `None`
/// again (same residual, same tolerance), and a monotone-run primary
/// without messages would only clear an `active` flag the scatter
/// already cleared; and so would one with state, neither dirty nor
/// active, at step 0 of a run that kept its lists. A vertex with no
/// state is initialized as at step 0, at any step: an async message
/// can reach a primary before any state has.
fn apply_vertex<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    v: VertexId,
    e: &mut VertexEntry,
    lists: &mut Worklists,
    out: &mut StepScratch,
) {
    let program = ctx.program;
    if !(e.is_meta || e.has_ppartial) {
        return;
    }
    let home = at_home(ctx, cache, v, e);
    if !home && cache.primary(ctx.locator, v, || ctx.sketch.estimate(v)) != Some(ctx.my_id) {
        if e.wants_apply() {
            // Not ours to apply; the partial or meta stays parked (it
            // moves with the next migration), so it stays listed.
            lists.apply.push(v);
        }
        return;
    }
    let listed = e.active || e.has_pending_delta;
    let vctx = VertexCtx {
        out_degree: e.g_out.max(0) as u64,
        in_degree: e.g_in.max(0) as u64,
        n_vertices: ctx.n_vertices,
        step: ctx.step,
        global: ctx.global,
    };
    // §3.2 waiting set: an async vertex applies once its program's
    // count of messages is in. Until then it is skipped, not listed
    // again: its next message lists it.
    if ctx.live && e.wait_recv < program.waits_for(v, &vctx) {
        return;
    }
    let fresh = !e.has_state;
    let mut broadcast = false;
    let mut aux = 0u64;
    if ctx.delta {
        // Residual formulation: the frontier is whatever carries an
        // above-tolerance residual, regardless of step. A new vertex
        // is seeded at any step; steps past 0 fold in the combined
        // pushed deltas.
        let mut residual = e.has_residual.then_some(e.residual);
        if fresh {
            let (s, r0) = program.delta_init(v, &vctx);
            e.state = s;
            e.has_state = true;
            residual = Some(match residual {
                Some(r) => program.merge_residual(r0, r),
                None => r0,
            });
        }
        if ctx.step == 0 {
            // Dirty flags seed the monotone path, not this one.
            e.dirty = false;
        } else if e.has_ppartial {
            let agg = e.ppartial;
            residual = Some(match residual {
                Some(r) => program.merge_residual(r, agg),
                None => agg,
            });
        }
        match residual {
            Some(r) => match program.fold_residual(v, e.state, r, &vctx) {
                Some((new, applied)) => {
                    // The fold moves the sum the lead serves over, and
                    // pushes its residual on.
                    out.sum += f64::from_bits(new) - f64::from_bits(e.state);
                    out.pushed += f64::from_bits(applied).abs();
                    e.state = new;
                    e.has_state = true;
                    e.residual = 0;
                    e.has_residual = false;
                    e.active = true;
                    broadcast = true;
                    aux = applied;
                }
                None => {
                    // Below tolerance: park it for the next batch. A
                    // step that parks every residual (an infinite
                    // `global`, the lead's tail cut) keeps what it
                    // parked listed, so the next run's step 0 folds
                    // what is above the tolerance.
                    e.residual = r;
                    e.has_residual = true;
                    e.active = false;
                    if ctx.global == f64::INFINITY {
                        lists.apply.push(v);
                    }
                }
            },
            None => e.active = false,
        }
    } else if ctx.step == 0 {
        // Initialization (fresh) / activation (incremental).
        if fresh {
            e.state = program.init(v, &vctx);
            e.has_state = true;
            e.active = if ctx.reuse {
                true // newly appeared vertex in an incremental run
            } else {
                program.initially_active_ctx(v, &vctx)
            };
            broadcast = true;
        } else if ctx.reuse {
            e.active = e.dirty;
            broadcast = e.dirty;
        }
        e.dirty = false;
    } else {
        if fresh {
            (e.state, e.has_state) = (program.init(v, &vctx), true);
        }
        let has_msgs = e.has_ppartial;
        if has_msgs || program.applies_without_messages() {
            let agg = has_msgs.then_some(e.ppartial);
            let old = e.state;
            let (new, changed) = program.apply(v, e.state, agg, &vctx);
            e.state = new;
            e.has_state = true;
            e.active = changed;
            broadcast = changed || new != old || program.scatter_all();
        } else {
            e.active = false;
        }
    }
    (e.has_ppartial, e.ppartial, e.wait_recv) = (false, 0, 0);
    if broadcast {
        let rec = StateRecord {
            vertex: v,
            state: e.state,
            out_degree: e.g_out.max(0) as u64,
            aux,
            active: e.active,
        };
        broadcast_state(ctx, cache, home, v, e, &rec, &mut out.states);
    }
    if !listed && (e.active || e.has_pending_delta) {
        lists.scatter.push(v);
    }
    // Meta dirtied mid-run waits for the next run's step 0.
    if e.wants_apply() {
        lists.apply.push(v);
    }
    // Non-meta primaries are not counted, as in the vertex count.
    out.active += u64::from(e.active && e.is_meta);
}

/// Write `rec`, `v`'s new state, to the vertex's replica set. The
/// primary's own replica copy is `e` itself and adopts the record in
/// place — no STATE record is counted or sent for it; every other
/// replica gets one in `states`. An unsplit vertex's replica set is
/// this agent alone (`home`: the stamp answers for the cache, as in
/// [`at_home`]). Returns whether this agent holds a replica.
#[inline]
fn broadcast_state<P: VertexProgram + ?Sized>(
    ctx: KernelCtx<'_, P>,
    cache: &mut OwnerCache,
    home: bool,
    v: VertexId,
    e: &mut VertexEntry,
    rec: &StateRecord,
    states: &mut FxHashMap<AgentId, Vec<StateRecord>>,
) -> bool {
    let replicas = if home {
        cache.count_hits(1);
        std::slice::from_ref(&ctx.my_id)
    } else {
        cache.replicas(ctx.locator, v, || ctx.sketch.estimate(v))
    };
    let mut own = false;
    for &replica in replicas {
        if replica == ctx.my_id {
            adopt_state(e, rec, ctx.delta);
            own = true;
        } else {
            states.entry(replica).or_default().push(*rec);
        }
    }
    own
}

/// Adopt a STATE record into `e`, the vertex's replica copy here: the
/// state, the out-degree scatter shares divide by, the active flag and,
/// on a delta run, the applied delta to push along the local out-edges.
#[inline]
fn adopt_state(e: &mut VertexEntry, rec: &StateRecord, delta: bool) {
    e.state = rec.state;
    e.has_state = true;
    e.rep_out_degree = rec.out_degree;
    e.active = rec.active;
    if delta {
        e.pending_delta = rec.aux;
        e.has_pending_delta = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::testkit::sum;
    use crate::algorithms::{PageRank, Wcc};
    use elga_hash::{HashKind, LocatorConfig, Ring};

    const N: u64 = 600;
    const ME: AgentId = 1;
    const TOL: f64 = 1e-6;

    /// Deterministic pseudo-random stream (splitmix64).
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A store as a mid-run superstep finds it before `phase`'s kernel:
    /// pseudo-random edges and states, the phase's flags on about a
    /// third of the entries, and worklists that hold every flagged
    /// vertex plus what the invariant tolerates — unflagged, repeated
    /// and absent ids.
    fn flagged_store(phase: Phase, delta: bool) -> VertexStore {
        let mut rng = 7u64;
        let mut store = VertexStore::default();
        for v in 0..N {
            let pick = next(&mut rng).is_multiple_of(3);
            let (e, tally) = store.entry_and_tally(v);
            for _ in 0..next(&mut rng) % 4 {
                e.adj.insert(Side::Out, next(&mut rng) % N, tally);
            }
            for _ in 0..next(&mut rng) % 3 {
                e.adj.insert(Side::In, next(&mut rng) % N, tally);
            }
            let (e, lists) = store.entry_and_lists(v);
            e.is_meta = v % 11 != 0;
            e.g_out = e.adj.out().len() as i64;
            e.g_in = 1 + e.adj.inn().len() as i64;
            e.rep_out_degree = e.adj.out().len() as u64;
            e.has_state = v % 13 != 0;
            e.state = if delta {
                (1.0 / N as f64).to_bits()
            } else {
                next(&mut rng) % N
            };
            if delta && v % 5 == 0 {
                // Parked below tolerance by an earlier step.
                e.residual = (TOL / 2.0).to_bits();
                e.has_residual = true;
            }
            // Above and below the fold tolerance, either sign.
            let push = ((next(&mut rng) % 2000) as f64 - 1000.0) * TOL / 250.0;
            let noise = next(&mut rng).is_multiple_of(4);
            match phase {
                Phase::Scatter => {
                    e.active = pick;
                    if delta && next(&mut rng).is_multiple_of(3) {
                        e.pending_delta = push.to_bits();
                        e.has_pending_delta = true;
                    }
                    if e.active || e.has_pending_delta || noise {
                        lists.scatter.push(v);
                    }
                    if noise {
                        lists.scatter.extend([v, N + v]);
                    }
                    if e.wants_apply() {
                        lists.apply.push(v);
                    }
                }
                _ => {
                    if pick {
                        e.has_ppartial = true;
                        e.ppartial = if delta {
                            push.to_bits()
                        } else {
                            next(&mut rng) % N
                        };
                    }
                    if e.wants_apply() || noise {
                        lists.apply.push(v);
                    }
                    if noise {
                        lists.apply.extend([v, N + v]);
                    }
                }
            }
        }
        store
    }

    type Msgs = Vec<(AgentId, VertexId, u64)>;
    type States = Vec<(AgentId, VertexId, u64, u64, u64, bool)>;

    /// Two agents and a sketch under which every seventh vertex is
    /// split over both; the rest (sketch collisions aside) live whole
    /// on their primary, whose PARTIAL and STATE records are delivered
    /// in place.
    fn placement() -> (EdgeLocator, CountMinSketch) {
        let locator = EdgeLocator::new(
            Ring::from_agents(HashKind::Wang, 8, [ME, 2]),
            LocatorConfig {
                replication_threshold: 4,
                max_replicas: 2,
            },
        );
        let mut sketch = CountMinSketch::new(64, 2);
        for v in (0..N).step_by(7) {
            sketch.add(v, 10);
        }
        (locator, sketch)
    }

    /// The context of a mid-run step 3 on agent `ME`.
    fn kernel_ctx<'a>(
        program: &'a dyn VertexProgram,
        locator: &'a EdgeLocator,
        sketch: &'a CountMinSketch,
        sweep: bool,
    ) -> KernelCtx<'a, dyn VertexProgram + 'a> {
        KernelCtx {
            program,
            locator,
            sketch,
            my_id: ME,
            // A fresh table's.
            generation: TargetTable::new(0).generation(),
            n_vertices: N,
            step: 3,
            sweep,
            scatter_all: program.scatter_all(),
            reuse: true,
            // A delta run's served sum: the fold threshold is the
            // tolerance itself.
            global: 1.0,
            delta: program.delta_kind() == DeltaKind::Residual,
            live: false,
        }
    }

    /// Run `phase`'s kernel over every shard; return what it emitted as
    /// sorted sets, the active count, and the visit count.
    fn run(
        phase: Phase,
        sweep: bool,
        program: &dyn VertexProgram,
        store: &mut VertexStore,
    ) -> (Msgs, States, u64, u64) {
        let (locator, sketch) = placement();
        let ctx = kernel_ctx(program, &locator, &sketch, sweep);
        let (mut cache, mut table) = (OwnerCache::new(), TargetTable::new(0));
        let mut out = StepScratch::default();
        for shard in store.shards_mut() {
            kernel_shard(phase, ctx, &mut cache, &mut table, shard, &mut out);
            table.accumulate(&out.slots, |a, b| program.combine(a, b));
            out.slots.clear();
        }
        let mut msgs: Msgs = table.flushed();
        let mut states: States = (out.states.into_iter())
            .flat_map(|(agent, recs)| {
                recs.into_iter()
                    .map(move |r| (agent, r.vertex, r.state, r.out_degree, r.aux, r.active))
            })
            .collect();
        msgs.sort_unstable();
        states.sort_unstable();
        (msgs, states, out.active, out.visits)
    }

    /// Everything a later kernel could observe of an entry.
    fn entries(store: &VertexStore) -> Vec<(VertexId, [u64; 5], [bool; 6])> {
        let mut all: Vec<_> = store
            .iter()
            .map(|(&v, e)| {
                (
                    v,
                    [
                        e.state,
                        e.residual,
                        e.pending_delta,
                        e.ppartial,
                        e.rep_out_degree,
                    ],
                    [
                        e.has_state,
                        e.active,
                        e.has_residual,
                        e.has_pending_delta,
                        e.has_ppartial,
                        e.dirty,
                    ],
                )
            })
            .collect();
        all.sort_unstable();
        all
    }

    /// The same records; where `summed`, values that are f64 sums may
    /// differ by the order of their terms.
    fn assert_same_msgs(a: &Msgs, b: &Msgs, summed: bool, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: record counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.0, x.1), (y.0, y.1), "{what}: records differ");
            if summed {
                let (p, q) = (f64::from_bits(x.2), f64::from_bits(y.2));
                assert!(
                    (p - q).abs() <= 1e-12 * p.abs().max(q.abs()),
                    "{what}: {x:?} {y:?}"
                );
            } else {
                assert_eq!(x.2, y.2, "{what}: vertex {}", x.1);
            }
        }
    }

    /// One scatter over `store` the way `run_kernel` drives it — each
    /// shard's run folded into the table after its kernel — as the VMSG
    /// frames it would send.
    fn scatter_frames(
        sweep: bool,
        program: &dyn VertexProgram,
        store: &mut VertexStore,
        table: &mut TargetTable,
    ) -> Vec<(AgentId, Frame)> {
        let (locator, sketch) = placement();
        let ctx = kernel_ctx(program, &locator, &sketch, sweep);
        let (mut cache, mut out) = (OwnerCache::new(), StepScratch::default());
        for shard in store.shards_mut() {
            kernel_shard(Phase::Scatter, ctx, &mut cache, table, shard, &mut out);
            assert!(std::mem::take(&mut out.refreshed) <= out.slots.len() as u64);
            table.accumulate(&out.slots, |a, b| program.combine(a, b));
            out.slots.clear();
        }
        // One frame per destination, records in flush order.
        let flushed = table.flushed();
        flushed
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let recs: Vec<(VertexId, u64)> = run.iter().map(|&(_, v, x)| (v, x)).collect();
                (run[0].0, msg::encode_vmsgs(RUN, 3, ME, &recs))
            })
            .collect()
    }

    /// The scatter kernel against the per-message routing it replaced:
    /// per `(destination, target)` the one flushed value is `combine`
    /// folded over what each edge would have sent there, for unsplit
    /// and split targets alike; and a row no edge touched emits
    /// nothing.
    #[test]
    fn scatter_combines_per_target_row_what_per_edge_routing_sent() {
        let wcc = Wcc::new();
        let pagerank = PageRank::new(0.85).with_tolerance(TOL);
        let programs: [&dyn VertexProgram; 2] = [&wcc, &pagerank];
        let (locator, sketch) = placement();
        for program in programs {
            let delta = program.delta_kind() == DeltaKind::Residual;
            let what = program.name();
            // The model: every firing vertex, every edge, one record
            // routed by the locator itself.
            let ctx = kernel_ctx(program, &locator, &sketch, true);
            let mut model: FxHashMap<(AgentId, VertexId), u64> = FxHashMap::default();
            let mut per_edge = 0;
            let mut send = |from: VertexId, to: VertexId, val: u64| {
                let owner = locator
                    .owner_of_edge(to, from, sketch.estimate(to))
                    .expect("ring");
                let x = program.along_edge(from, to, val);
                model
                    .entry((owner, to))
                    .and_modify(|acc| *acc = program.combine(*acc, x))
                    .or_insert(x);
                per_edge += 1;
            };
            for (&v, e) in flagged_store(Phase::Scatter, delta).iter() {
                let vctx = VertexCtx {
                    out_degree: e.rep_out_degree,
                    in_degree: 0,
                    n_vertices: ctx.n_vertices,
                    step: ctx.step,
                    global: 0.0,
                };
                if delta {
                    let val = e
                        .has_pending_delta
                        .then(|| program.scatter_delta(v, e.state, e.pending_delta, &vctx));
                    if let Some(val) = val.flatten() {
                        e.adj.out().iter().for_each(|&w| send(v, w, val));
                    }
                } else if e.has_state && e.active {
                    if let Some(val) = program.scatter_out(v, e.state, &vctx) {
                        e.adj.out().iter().for_each(|&w| send(v, w, val));
                    }
                    if let Some(val) = program.scatter_in(v, e.state, &vctx) {
                        e.adj.inn().iter().for_each(|&u| send(v, u, val));
                    }
                }
            }
            let mut model: Msgs = model.into_iter().map(|((a, v), x)| (a, v, x)).collect();
            model.sort_unstable();
            // Some targets are split, and some rows took several edges.
            let split = |v: &VertexId| locator.replication_factor(sketch.estimate(*v)) > 1;
            assert!(model.iter().any(|m| split(&m.1)), "{what}: no split target");
            assert!(model.iter().any(|m| !split(&m.1)), "{what}");
            assert!(model.len() < per_edge, "{what}: nothing to combine");

            let mut store = flagged_store(Phase::Scatter, delta);
            let got = run(Phase::Scatter, false, program, &mut store);
            assert_same_msgs(&got.0, &model, delta, what);

            // List-driven or sweeping, a second scatter of the same
            // store — every flag consumed, every row still in the
            // table — sends nothing.
            for sweep in [false, true] {
                let mut store = flagged_store(Phase::Scatter, delta);
                let mut table = TargetTable::new(0);
                let first = scatter_frames(sweep, program, &mut store, &mut table);
                assert!(!first.is_empty(), "{what}: nothing was sent, sweep {sweep}");
                assert!(table.len() >= model.len());
                let again = scatter_frames(sweep, program, &mut store, &mut table);
                assert!(again.is_empty(), "{what}: an untouched row was flushed");
            }
        }
    }

    #[test]
    fn list_and_sweep_kernels_emit_the_same_records() {
        let wcc = Wcc::new();
        let pagerank = PageRank::new(0.85).with_tolerance(TOL);
        let programs: [&dyn VertexProgram; 2] = [&wcc, &pagerank];
        for program in programs {
            let delta = program.delta_kind() == DeltaKind::Residual;
            for phase in [Phase::Scatter, Phase::Apply] {
                let mut swept = flagged_store(phase, delta);
                let mut listed = flagged_store(phase, delta);
                let by_sweep = run(phase, true, program, &mut swept);
                let by_list = run(phase, false, program, &mut listed);
                let what = format!("{} {phase:?}", program.name());
                assert!(
                    !by_sweep.0.is_empty() || !by_sweep.1.is_empty(),
                    "{what}: the kernel emitted nothing"
                );
                // A scatter's values are combined per target row, in
                // visiting order — which is what the two differ in.
                let summed = delta && phase == Phase::Scatter;
                assert_same_msgs(&by_sweep.0, &by_list.0, summed, &what);
                assert_eq!(by_sweep.1, by_list.1, "{what}: state broadcasts differ");
                assert_eq!(by_sweep.2, by_list.2, "{what}: active counts differ");
                assert_eq!(entries(&swept), entries(&listed), "{what}: entries differ");
                // The sweep visited the store, the list only its frontier.
                assert_eq!(by_sweep.3, N, "{what}");
                assert!(by_list.3 < N, "{what}: {} visits", by_list.3);
                // Both leave the invariant behind them.
                for store in [&swept, &listed] {
                    for shard in store.shards() {
                        shard.assert_worklists_complete();
                    }
                }
                // No record is addressed to the agent that ran the
                // kernel: its own copies were written in place.
                assert!(by_list
                    .0
                    .iter()
                    .all(|m| phase == Phase::Scatter || m.0 != ME));
                assert!(by_list.1.iter().all(|s| s.0 != ME), "{what}");
            }
        }
    }

    /// An agent's own scatter output folded where it stands leaves the
    /// store as its delivery in VMSG frames did: the same partials (bit
    /// for bit — PageRank's combine is an f64 sum, so order counts),
    /// the same flags, the same combine worklists in the same order.
    #[test]
    fn own_vmsgs_fold_in_place_as_their_frames_did() {
        let wcc = Wcc::new();
        let pagerank = PageRank::new(0.85).with_tolerance(TOL);
        let programs: [&dyn VertexProgram; 2] = [&wcc, &pagerank];
        for program in programs {
            let delta = program.delta_kind() == DeltaKind::Residual;
            // This agent's combined messages of one scatter, in the
            // order the flush emits them.
            let mut scattered = flagged_store(Phase::Scatter, delta);
            let (locator, sketch) = placement();
            let ctx = kernel_ctx(program, &locator, &sketch, false);
            let (mut cache, mut table) = (OwnerCache::new(), TargetTable::new(0));
            let mut out = StepScratch::default();
            for shard in scattered.shards_mut() {
                kernel_shard(Phase::Scatter, ctx, &mut cache, &mut table, shard, &mut out);
                table.accumulate(&out.slots, |a, b| program.combine(a, b));
                out.slots.clear();
            }
            let own: Vec<(VertexId, u64)> = table
                .flushed()
                .into_iter()
                .filter_map(|(to, v, x)| (to == ME).then_some((v, x)))
                .collect();
            assert!(
                own.len() > 100,
                "{}: {} own messages",
                program.name(),
                own.len()
            );
            // Receivers: a store a peer's frame already reached.
            let receiver = || {
                let mut store = VertexStore::default();
                for v in (0..N).step_by(3) {
                    let (e, lists) = store.entry_and_lists(v);
                    e.partial = if delta { TOL.to_bits() } else { v };
                    e.has_partial = true;
                    lists.partial_dirty.push(v);
                }
                store
            };
            let (mut framed, mut in_place) = (receiver(), receiver());
            for chunk in own.chunks(64) {
                let frame = msg::encode_vmsgs(9, 3, ME, chunk);
                let view = msg::decode_vmsgs(&frame).expect("own frame");
                fold_partials(&mut framed, program, view.records.iter());
            }
            fold_partials(&mut in_place, program, own.iter().copied());
            assert_eq!(framed.len(), in_place.len());
            for (a, b) in framed.shards().iter().zip(in_place.shards()) {
                assert_eq!(a.lists.partial_dirty, b.lists.partial_dirty);
                for (v, e) in &a.map {
                    let other = &b.map[v];
                    assert_eq!(
                        (e.partial, e.has_partial),
                        (other.partial, other.has_partial),
                        "{}: vertex {v}",
                        program.name()
                    );
                }
            }
        }
    }

    /// What a self-addressed PARTIAL used to do on receipt, the combine
    /// kernel does on the spot: fold into `ppartial` (combining with
    /// one a peer's PARTIAL left there), list the vertex for apply, and
    /// emit records only toward other primaries.
    #[test]
    fn combine_folds_own_partials_in_place() {
        let wcc = Wcc::new();
        let mut store = VertexStore::default();
        for v in 0..N {
            let (e, lists) = store.entry_and_lists(v);
            e.partial = v + 100;
            e.has_partial = true;
            lists.partial_dirty.push(v);
            if v % 3 == 0 {
                // A peer replica's PARTIAL got here first.
                e.ppartial = v + 50;
                e.has_ppartial = true;
                lists.apply.push(v);
            }
        }
        let (sent, _, _, _) = run(Phase::Combine, false, &wcc, &mut store);
        assert!(!sent.is_empty(), "some primaries live on agent 2");
        assert!(sent.iter().all(|&(to, v, x)| to == 2 && x == v + 100));
        let remote: FxHashSet<VertexId> = sent.iter().map(|m| m.1).collect();
        assert!(remote.len() < N as usize, "some primaries live here");
        for (&v, e) in store.iter() {
            assert!(!e.has_partial && e.partial == 0, "{v}: partial consumed");
            let peer = (v % 3 == 0).then_some(v + 50);
            let want = if remote.contains(&v) {
                peer
            } else {
                Some(peer.map_or(v + 100, |p| wcc.combine(p, v + 100)))
            };
            assert_eq!(e.has_ppartial.then_some(e.ppartial), want, "vertex {v}");
        }
        for shard in store.shards() {
            shard.assert_worklists_complete();
            assert!(shard.lists.partial_dirty.is_empty());
        }
    }

    // ------------------------------------------------------------------
    // The Scatter barrier at the agent: what is reported, what is
    // waited for, what an idle drain re-reports.
    // ------------------------------------------------------------------

    use super::super::testkit::{detached, reset_view, view};
    use crate::msg::{MigMeta, MigVertex};
    use elga_net::{InProcTransport, Mailbox, SplitMix64};

    const RUN: u64 = 1;

    fn run_info(asynchronous: bool) -> RunInfo {
        let (tag, params) = ProgramSpec::Wcc.encode();
        RunInfo {
            run_id: RUN,
            tag,
            params,
            reuse_state: false,
            asynchronous,
            delta: false,
            watermark: 0,
        }
    }

    /// Agent `ME` of two, the mailbox its READYs land in, four vertices
    /// it is primary of — each with one out-edge to a vertex agent 2
    /// owns, so every scatter sends agent 2 one record per active
    /// vertex — and those four targets.
    struct Rig {
        transport: Arc<InProcTransport>,
        agent: Agent,
        lead: Mailbox,
        mine: Vec<VertexId>,
        theirs: Vec<VertexId>,
    }

    fn rig() -> Rig {
        let (transport, mut agent) = detached(view(1, &[ME, 2], &[]));
        let lead = transport.bind(&Addr::inproc("nobody")).expect("bind");
        let owned_by = |agent: &Agent, owner: AgentId| -> Vec<VertexId> {
            (100..)
                .filter(|&v| agent.locator.ring().owner(v) == Some(owner))
                .take(4)
                .collect()
        };
        let (mine, theirs) = (owned_by(&agent, ME), owned_by(&agent, 2));
        for (&u, &w) in mine.iter().zip(&theirs) {
            agent.insert_out_edge(u, w);
            agent.edit(u, |e, _| (e.is_meta, e.g_out) = (true, 1));
        }
        Rig {
            transport,
            agent,
            lead,
            mine,
            theirs,
        }
    }

    impl Rig {
        fn deliver(&mut self, frame: Frame) {
            assert!(self.agent.handle(Delivery::push(frame)));
        }

        fn advance(&mut self, step: u32, phase: Phase, until: Phase, expect: u64) {
            let advance = msg::Advance {
                run: RUN,
                step,
                phase,
                n_vertices: 8,
                global: 0.0,
                done: false,
                until,
                expect: if expect == 0 {
                    Vec::new()
                } else {
                    vec![(ME, expect)]
                },
            };
            self.deliver(advance.encode());
        }

        /// The READY frames sent since the last call.
        fn readys(&self) -> Vec<Frame> {
            let mut all = Vec::new();
            while let Ok(Some(d)) = self.lead.try_recv() {
                if d.frame.packet_type() == packet::READY {
                    all.push(d.frame);
                }
            }
            all
        }

        /// Start a sync WCC run and take it to its first real barrier:
        /// `READY(1, Scatter)`, four records sent to agent 2.
        fn reach_step_one(&mut self) -> ReadyReport {
            self.agent.begin_run(run_info(false));
            self.advance(0, Phase::Scatter, Phase::Scatter, 0);
            self.advance(0, Phase::Combine, Phase::Scatter, 0);
            let readys = self.readys();
            assert_eq!(readys.len(), 2);
            let rep = ReadyReport::decode(&readys[1]).expect("ready");
            assert_eq!((rep.step, rep.phase), (1, Phase::Scatter));
            assert_eq!(rep.sent, [(2, 4)]);
            assert_eq!((sum(&rep.rows).vmsg_sent, rep.n_primary), (4, 4));
            rep
        }

        /// A peer's `VMSG(step)` frame: label 1 for the first `n` of
        /// this agent's vertices.
        fn vmsgs(&self, step: u32, n: usize) -> Frame {
            let recs: Vec<(VertexId, u64)> = self.mine[..n].iter().map(|&v| (v, 1)).collect();
            msg::encode_vmsgs(RUN, step, 2, &recs)
        }

        fn at(&self) -> (u32, Phase) {
            let run = self.agent.run.as_ref().expect("run");
            (run.step, run.phase)
        }
    }

    /// A residual program's snapshot serves its states over their sum
    /// S: a full run's normalized ranks as they are, after which they are
    /// scaled to S times themselves for the delta runs that follow; a
    /// delta run's unnormalized states over the S its `done` carried.
    #[test]
    fn a_residual_snapshot_serves_the_states_over_their_sum() {
        let mut rig = rig();
        let v = rig.mine[0];
        let spec = ProgramSpec::PageRank {
            damping: 0.85,
            max_iters: 10,
            tolerance: 1e-9,
        };
        let (tag, params) = spec.encode();
        rig.agent
            .edit(v, |e, _| (e.state, e.has_state) = (0.25f64.to_bits(), true));
        for (delta, sum, served) in [(false, 8.0, 0.25), (true, 4.0, 0.5)] {
            let info = RunInfo {
                tag,
                params,
                reuse_state: true,
                delta,
                ..run_info(false)
            };
            rig.agent.begin_run(info);
            rig.agent.snapshot_states(sum);
            rig.agent.run = None;
            let e = rig.agent.vertices.get(&v).expect("entry");
            let (state, snap) = (f64::from_bits(e.state), f64::from_bits(e.snap));
            assert_eq!((state, snap), (2.0, served), "delta {delta}");
        }
    }

    /// A subscriber whose mailbox went away refuses its SUB_PUSH
    /// frames. They are dropped, not kept until the subscription ends:
    /// nothing re-sends a push, and the next run's value supersedes it.
    #[test]
    fn a_gone_subscribers_refused_pushes_are_dropped() {
        let mut rig = rig();
        let v = rig.mine[0];
        let client = rig.transport.bind(&Addr::inproc("client")).expect("bind");
        let reg = msg::SubReg {
            addr: Addr::inproc("client"),
            sub: 7,
            vertices: vec![v],
        };
        rig.agent.on_sub_reg(reg);
        drop(client);
        for state in [3, 4] {
            rig.agent.begin_run(run_info(false));
            let e = rig.agent.vertices.get_mut(&v).expect("entry");
            (e.state, e.has_state) = (state, true);
            rig.agent.snapshot_states(0.0);
            rig.agent.run = None;
        }
        assert_eq!(rig.agent.metrics.sub_pushes, 2);
        assert!(
            !rig.agent.subs[&7].outbox.has_failed(),
            "refused pushes kept"
        );
    }

    /// A read that asks for the run the agent holds open waits for the
    /// run's done advance and is answered from the flipped snapshot with
    /// its tag; a read that asks for no run is answered at once.
    #[test]
    fn a_read_for_the_open_run_waits_for_its_snapshot_flip() {
        let mut rig = rig();
        rig.reach_step_one();
        let v = rig.mine[0];
        let ask = |min_run| {
            let client = rig.transport.clone();
            std::thread::spawn(move || {
                let read = msg::encode_query_batch(min_run, &[v]);
                client.request(&agent_addr(ME), read, Duration::from_secs(30))
            })
        };
        let (at_once, after) = (ask(0), ask(RUN));
        for _ in 0..2 {
            let d = rig.agent.mailbox.recv().expect("a read");
            assert!(rig.agent.handle(d));
        }
        assert_eq!(rig.agent.reads.len(), 1, "the read for the open run waits");
        let answer = |read: std::thread::JoinHandle<Result<Frame, NetError>>| {
            let rep = read.join().expect("join").expect("answered");
            let rep = msg::decode_query_batch_rep(&rep).expect("a reply");
            (rep.run, rep.records.iter().next().expect("one").found)
        };
        assert_eq!(answer(at_once), (0, msg::ANSWER_MISS));
        let done = msg::Advance {
            run: RUN,
            step: 1,
            phase: Phase::Scatter,
            n_vertices: 8,
            global: 0.0,
            done: true,
            until: Phase::Scatter,
            expect: Vec::new(),
        };
        rig.deliver(done.encode());
        assert!(rig.agent.run.is_none() && rig.agent.reads.is_empty());
        assert_eq!(answer(after), (RUN, msg::ANSWER_HIT));
    }

    /// An ADVANCE that overtakes the last VMSG frame it counts runs
    /// nothing; reads are answered meanwhile; the frame that completes
    /// the count releases it, and what the agent then puts on the wire
    /// — the READY and the next step's messages — is byte for byte what
    /// it sends when the frames come first.
    #[test]
    fn an_advance_ahead_of_its_messages_waits_for_them() {
        let out = |rig: &Rig| -> (Vec<Frame>, Vec<Frame>) {
            let peer = rig.transport.bind(&agent_addr(2)).expect("bind");
            let mut frames = Vec::new();
            while let Ok(Some(d)) = peer.try_recv() {
                frames.push(d.frame);
            }
            (rig.readys(), frames)
        };
        // Frames first.
        let mut first = rig();
        first.reach_step_one();
        let (two, one) = (first.vmsgs(1, 2), first.vmsgs(1, 1));
        first.deliver(two);
        first.deliver(one);
        first.advance(1, Phase::Combine, Phase::Scatter, 3);
        assert_eq!(first.at(), (2, Phase::Scatter));
        let frames_first = out(&first);
        assert_eq!(frames_first.0.len(), 1);

        // The advance between them.
        let mut late = rig();
        late.reach_step_one();
        let (two, one) = (late.vmsgs(1, 2), late.vmsgs(1, 1));
        late.deliver(two);
        late.advance(1, Phase::Combine, Phase::Scatter, 3);
        assert_eq!(late.at(), (1, Phase::Scatter), "a phase ran");
        assert!(late.readys().is_empty());
        assert!(late.agent.run.as_ref().unwrap().parked_advance.is_some());
        // A read is served while the advance is parked.
        let (client, v) = (late.transport.clone(), late.mine[0]);
        let ask = std::thread::spawn(move || {
            let query = msg::encode_query_batch(0, &[v]);
            client.request(&agent_addr(ME), query, Duration::from_secs(30))
        });
        let d = late.agent.mailbox.recv().expect("the read");
        assert!(late.agent.handle(d));
        let answer = ask.join().expect("join").expect("answered");
        assert!(msg::decode_query_batch_rep(&answer).is_some());
        assert_eq!(late.at(), (1, Phase::Scatter));
        // The completing frame releases the step.
        late.deliver(one);
        assert_eq!(late.at(), (2, Phase::Scatter));
        assert!(late.agent.run.as_ref().unwrap().parked_advance.is_none());
        let advance_first = out(&late);
        assert_eq!(advance_first, frames_first);

        let rep = ReadyReport::decode(&advance_first.0[0]).expect("ready");
        assert_eq!((rep.step, rep.phase, rep.active), (2, Phase::Scatter, 2));
        assert_eq!(sum(&rep.rows).vmsg_recv, 3);
        // Three records for two vertices: both took label 1 and told
        // their neighbour.
        assert_eq!(rep.sent, [(2, 2)]);
    }

    /// A fast peer's frames of step `s + 1` arrive before `ADVANCE(s)`:
    /// they are counted as received at once, but toward what the agent
    /// has taken in of `s + 1`, not of `s`.
    #[test]
    fn frames_of_the_next_step_do_not_count_toward_this_one() {
        let mut rig = rig();
        rig.reach_step_one();
        let early = rig.vmsgs(2, 2);
        rig.deliver(early);
        let taken = |rig: &Rig, step| {
            rig.agent
                .run
                .as_ref()
                .unwrap()
                .taken_in((step, Phase::Scatter))
        };
        assert_eq!((taken(&rig, 1), taken(&rig, 2)), (0, 0));
        assert_eq!(rig.agent.total().vmsg_recv, 2);
        assert_eq!(rig.agent.buffered_frames.len(), 1);
        // Two records are in, one of step 1 is expected: not the same.
        rig.advance(1, Phase::Combine, Phase::Scatter, 1);
        assert_eq!(rig.at(), (1, Phase::Scatter));
        let own = rig.vmsgs(1, 1);
        rig.deliver(own);
        // Released; the loop reached step 2 and replayed the early
        // frame there, without counting its receive again.
        assert_eq!(rig.at(), (2, Phase::Scatter));
        assert_eq!((taken(&rig, 1), taken(&rig, 2)), (0, 2));
        assert_eq!(rig.agent.total().vmsg_recv, 3);
        assert!(rig.agent.buffered_frames.is_empty());
        let readys = rig.readys();
        assert_eq!(readys.len(), 1);
        assert_eq!(
            sum(&ReadyReport::decode(&readys[0]).unwrap().rows).vmsg_recv,
            3
        );
    }

    /// In a sync run a received VMSG frame is nobody's news — the
    /// barrier it belongs to closed on the sender's report — while a
    /// late forwarded change still is, and the re-sent report repeats
    /// the step's list as it was.
    #[test]
    fn an_idle_drain_re_reports_for_a_late_change_not_for_a_vmsg() {
        let mut rig = rig();
        let first = rig.reach_step_one();
        let vmsgs = rig.vmsgs(1, 2);
        rig.deliver(vmsgs);
        rig.agent.on_idle();
        assert!(rig.readys().is_empty(), "a READY for a VMSG frame");
        // A change another agent forwarded here (hop 1: counted).
        let late = [EdgeChange::insert(rig.mine[0], rig.theirs[1])];
        rig.deliver(msg::encode_changes_from(Side::Out, 1, 2, &late));
        rig.agent.on_idle();
        let readys = rig.readys();
        assert_eq!(readys.len(), 1);
        let again = ReadyReport::decode(&readys[0]).expect("ready");
        let c = sum(&again.rows);
        assert_eq!((c.chg_recv, c.vmsg_recv), (1, 2));
        let verbatim = ReadyReport {
            rows: first.rows.clone(),
            ..again.clone()
        };
        assert_eq!(verbatim, first);
        rig.agent.on_idle();
        assert!(rig.readys().is_empty(), "nothing moved since");
        // Between runs every counter is news again (a migration's
        // barrier wants the VMSG pair settled too).
        rig.agent.run = None;
        rig.agent.peer(2).vmsg_recv += 1;
        rig.agent.on_idle();
        assert_eq!(rig.readys().len(), 1);
    }

    /// ROADMAP item 3(a), the `remove_agents` wedge. A joiner sits at
    /// `(step 0, Scatter)` of an async run until the resume advance;
    /// paused agents keep forwarding it step-1 VMSGs, and the lead
    /// publishes that advance only once the migrate barrier has seen
    /// them received. Counted on arrival they reach the barrier with
    /// the joiner's next report; applied when their step comes, they
    /// are not counted twice.
    #[test]
    fn a_paused_joiner_counts_an_early_vmsg_frame_when_it_arrives() {
        let mut rig = rig();
        rig.agent.begin_run(run_info(true));
        // The joiner's migrate report, as `migrate` sends it.
        rig.agent.send_ready(0, 1, Phase::Migrate, 0, 0.0);
        assert_eq!(rig.readys().len(), 1);
        let frame = rig.vmsgs(1, 2);
        rig.deliver(frame);
        assert_eq!(rig.agent.buffered_frames.len(), 1);
        rig.agent.on_idle();
        let readys = rig.readys();
        assert_eq!(readys.len(), 1, "the barrier never hears of the frame");
        let rep = ReadyReport::decode(&readys[0]).expect("ready");
        assert_eq!((rep.phase, sum(&rep.rows).vmsg_recv), (Phase::Migrate, 2));
        assert_eq!(rig.agent.metrics.vmsgs, 0, "applied ahead of its step");
        // The resume advance replays it into the async handlers.
        rig.advance(1, Phase::Scatter, Phase::Scatter, 0);
        assert!(rig.agent.run.as_ref().unwrap().async_live);
        assert!(rig.agent.buffered_frames.is_empty());
        assert_eq!(rig.agent.metrics.vmsgs, 2);
        assert_eq!(rig.agent.total().vmsg_recv, 2);
        // Folded on replay, applied by the next round.
        rig.agent.on_idle();
        for &v in &rig.mine[..2] {
            assert_eq!(rig.agent.vertices.get(&v).expect("entry").state, 1);
        }
    }

    /// The same hole for the other two kinds (ROADMAP item 1(d)), and
    /// the barriers that close on them. A PARTIAL or STATE frame that
    /// runs ahead of its phase is counted when it arrives — with no
    /// report for it alone — and taken in once, uncounted, when its
    /// phase comes. An Apply advance waits for the PARTIAL records of
    /// its step, a Scatter advance for the STATE records of the apply
    /// before it, and a `Migrate` advance for the same, the view change
    /// behind it waiting with it.
    #[test]
    fn an_advance_waits_for_the_records_of_the_barrier_it_answers() {
        let parked = |rig: &Rig| rig.agent.run.as_ref().unwrap().parked_advance.is_some();
        let partial = |rig: &Rig, i: usize| msg::encode_partials(RUN, 1, 2, &[(rig.mine[i], 7)]);
        let state = |rig: &Rig, i: usize| {
            let rec = StateRecord {
                vertex: rig.theirs[i],
                state: 5,
                out_degree: 3,
                aux: 0,
                active: true,
            };
            msg::encode_states(RUN, 1, 2, &[rec])
        };
        let mut rig = rig();
        rig.reach_step_one();
        let (early_part, early_state) = (partial(&rig, 0), state(&rig, 0));
        rig.deliver(early_part);
        rig.deliver(early_state);
        assert_eq!(rig.agent.buffered_frames.len(), 2);
        let c = rig.agent.total();
        assert_eq!((c.part_recv, c.state_recv), (1, 1), "buffered uncounted");
        rig.agent.on_idle();
        assert!(rig.readys().is_empty(), "a report of a record frame");
        let held = |rig: &Rig, i: usize| rig.agent.vertices.get(&rig.mine[i]).unwrap().has_ppartial;
        assert!(!held(&rig, 0), "applied early");
        // Combine takes the PARTIAL in and keeps the STATE.
        rig.advance(1, Phase::Combine, Phase::Combine, 0);
        assert!(held(&rig, 0) && rig.agent.buffered_frames.len() == 1);
        assert!(rig.agent.vertices.get(&rig.theirs[0]).is_none());
        let rep = ReadyReport::decode(&rig.readys()[0]).expect("ready");
        assert_eq!((rep.phase, sum(&rep.rows).part_recv), (Phase::Combine, 1));
        // Two PARTIAL records of step 1 are addressed here.
        rig.advance(1, Phase::Apply, Phase::Apply, 2);
        assert!(parked(&rig) && rig.at() == (1, Phase::Combine));
        let run = rig.agent.run.as_ref().unwrap();
        assert_eq!(run.taken_in((1, Phase::Combine)), 1);
        let part = partial(&rig, 1);
        rig.deliver(part);
        assert!(!parked(&rig) && rig.at() == (1, Phase::Apply));
        // The apply took the STATE in, once.
        let e = rig.agent.vertices.get(&rig.theirs[0]).expect("adopted");
        assert_eq!((e.state, e.rep_out_degree, e.active), (5, 3, true));
        let rep = ReadyReport::decode(&rig.readys()[0]).expect("ready");
        assert_eq!((rep.phase, sum(&rep.rows).state_recv), (Phase::Apply, 1));
        // The next step's scatter waits for the apply's second STATE.
        rig.advance(2, Phase::Scatter, Phase::Scatter, 2);
        assert!(parked(&rig) && rig.at() == (1, Phase::Apply));
        let frame = state(&rig, 1);
        rig.deliver(frame);
        assert_eq!(rig.at(), (2, Phase::Scatter));
        assert_eq!(rig.readys().len(), 1);

        // A view change after the apply: the view waits for the STATE
        // records the `Migrate` advance counts, and nothing is reported.
        let mut rig = self::rig();
        rig.reach_step_one();
        rig.advance(1, Phase::Combine, Phase::Apply, 0);
        rig.readys();
        rig.advance(1, Phase::Migrate, Phase::Migrate, 1);
        rig.deliver(view(2, &[ME, 2], &[]).encode());
        assert!(parked(&rig) && rig.agent.view.epoch == 1);
        let frame = state(&rig, 0);
        rig.deliver(frame);
        assert!(!parked(&rig) && rig.at() == (1, Phase::Apply));
        assert_eq!(rig.agent.view.epoch, 2);
        let phase = |f: &Frame| ReadyReport::decode(f).unwrap().phase;
        assert!(rig.readys().iter().all(|f| phase(f) == Phase::Migrate));
    }

    /// Agent `ME` of two at `READY(1, Scatter)` of a delta PageRank run
    /// whose step-0 advance carried the served sum `global`, the scale
    /// of the fold threshold: `a` folded a residual and
    /// pushed along `a → b → c → x` and `a → d`, where `b` and `c` have
    /// a single in-edge, `d` has two and `x` lives on agent 2. Returns
    /// the hub, the agent, the READYs it sent and `[a, b, c, d, x]`.
    fn delta_chain(global: f64) -> (Arc<InProcTransport>, Agent, Vec<ReadyReport>, [VertexId; 5]) {
        let (transport, mut agent) = detached(view(1, &[ME, 2], &[]));
        let lead = transport.bind(&Addr::inproc("nobody")).expect("bind");
        let owner = |v| {
            agent
                .locator
                .ring()
                .owner(v)
                .into_iter()
                .collect::<Vec<_>>()
        };
        let mine = owned(owner, &[ME], 4);
        let x = owned(owner, &[2], 1)[0];
        let (a, b, c, d) = (mine[0], mine[1], mine[2], mine[3]);
        for (u, w) in [(a, b), (a, d), (b, c), (c, x)] {
            agent.insert_out_edge(u, w);
        }
        for (v, g_out, g_in) in [(a, 2, 0), (b, 1, 1), (c, 1, 1), (d, 0, 2)] {
            agent.edit(v, |e, _| {
                (e.is_meta, e.g_out, e.g_in) = (true, g_out, g_in);
                (e.state, e.has_state) = (0f64.to_bits(), true);
            });
        }
        // `a` holds a residual above the tolerance, listed as ingest
        // lists it: step 0 folds it.
        agent.edit(a, |e, lists| {
            (e.residual, e.has_residual) = (0.5f64.to_bits(), true);
            lists.apply.push(a);
        });
        let spec = ProgramSpec::PageRank {
            damping: 0.85,
            max_iters: 100,
            tolerance: 1e-6,
        };
        let (tag, params) = spec.encode();
        agent.begin_run(RunInfo {
            tag,
            params,
            reuse_state: true,
            delta: true,
            ..run_info(false)
        });
        for (phase, global) in [(Phase::Scatter, 0.0), (Phase::Combine, global)] {
            let advance = msg::Advance {
                run: RUN,
                step: 0,
                phase,
                n_vertices: 5,
                global,
                done: false,
                until: Phase::Scatter,
                expect: Vec::new(),
            };
            assert!(agent.handle(Delivery::push(advance.encode())));
        }
        let mut readys = Vec::new();
        while let Ok(Some(del)) = lead.try_recv() {
            if del.frame.packet_type() == packet::READY {
                readys.push(ReadyReport::decode(&del.frame).expect("ready"));
            }
        }
        (transport, agent, readys, [a, b, c, d, x])
    }

    /// The chase under delta PageRank: `a`'s push runs down a local
    /// chain of single-in-edge vertices, `a → b → c`, within the step
    /// that scatters it, and `c`'s push to agent 2 leaves with that
    /// step's records; `d`, whose second in-edge could still bring more
    /// this step, keeps its partial for the barrier. The READY reports
    /// the chased vertices as active and their remote records as sent,
    /// the change of the states' sum and the residual the folds pushed
    /// on. Under a sum large enough to lift the threshold past `a`'s
    /// residual, nothing folds; under an infinite one (a tail cut's park
    /// step) nothing folds either, and `a` stays listed for the next run.
    #[test]
    fn a_delta_step_chases_single_in_edge_vertices_and_no_other() {
        let (transport, mut agent, readys, [a, b, c, d, x]) = delta_chain(1.0);
        let rank = |agent: &Agent, v| f64::from_bits(agent.vertices.get(&v).expect("entry").state);
        let pushed = 0.85 * 0.5 / 2.0;
        assert_eq!(rank(&agent, a), 0.5);
        assert_eq!(rank(&agent, b), pushed, "b applied inside step 1");
        assert_eq!(rank(&agent, c), 0.85 * pushed, "c applied inside step 1");
        let e = agent.vertices.get(&d).expect("d");
        assert_eq!((rank(&agent, d), e.has_partial), (0.0, true), "d waits");
        assert_eq!(agent.metrics.chased, 2);
        let rep = readys.last().expect("a READY");
        assert_eq!((rep.step, rep.phase), (1, Phase::Scatter));
        assert_eq!(rep.sent, [(2, 1)], "c's push, sent by the chase");
        assert_eq!(rep.active, 3, "a, and the two chased vertices");
        assert_eq!(rep.global_contrib, 0.5 + (pushed + 0.85 * pushed));
        assert_eq!(rep.pushed, 0.5 + (pushed + 0.85 * pushed));
        agent.flush_outboxes();
        let peer = transport.bind(&agent_addr(2)).expect("bind");
        let d = peer.try_recv().expect("recv").expect("a frame");
        let recs: Vec<_> = msg::decode_vmsgs(&d.frame)
            .expect("vmsg")
            .records
            .iter()
            .collect();
        assert_eq!(recs, [(x, (0.85 * 0.85 * pushed).to_bits())]);
        for shard in agent.vertices.shards() {
            shard.assert_worklists_complete();
        }

        let listed =
            |agent: &Agent, v| (agent.vertices.shards().iter()).any(|s| s.lists.apply.contains(&v));
        for (global, kept) in [(1e6, false), (f64::INFINITY, true)] {
            let (_transport, agent, readys, [a, ..]) = delta_chain(global);
            assert_eq!((agent.metrics.chased, rank(&agent, a)), (0, 0.0));
            let rep = readys.last().expect("a READY");
            assert_eq!((rep.active, rep.global_contrib, rep.pushed), (0, 0.0, 0.0));
            assert_eq!(listed(&agent, a), kept, "under {global}");
        }
    }

    // ------------------------------------------------------------------
    // What an edge remembers, and what makes it forget.
    // ------------------------------------------------------------------

    /// First vertices from 100 up that `owner` maps to `want`.
    fn owned(
        owner: impl Fn(VertexId) -> Vec<AgentId>,
        want: &[AgentId],
        n: usize,
    ) -> Vec<VertexId> {
        (100..).filter(|&v| owner(v) == want).take(n).collect()
    }

    /// Agent `ME` of `members` inside a sync WCC run at step 1, with a
    /// mailbox bound for every peer.
    fn scattering(members: &[AgentId]) -> (Agent, Vec<(AgentId, Mailbox)>) {
        let (transport, mut agent) = detached(view(1, members, &[]));
        let peers = members[1..]
            .iter()
            .map(|&a| (a, transport.bind(&agent_addr(a)).expect("bind")))
            .collect();
        agent.begin_run(run_info(false));
        agent.run.as_mut().expect("run").step = 1;
        (agent, peers)
    }

    /// Give `u` a state to send and sweep one scatter; return what each
    /// peer was sent, by agent.
    fn scatter_from(
        agent: &mut Agent,
        peers: &[(AgentId, Mailbox)],
        u: VertexId,
    ) -> Vec<(AgentId, Vec<(VertexId, u64)>)> {
        let e = agent.vertices.entry_or_default(u);
        (e.state, e.has_state, e.active) = (u, true, true);
        agent.run_kernel(Phase::Scatter, true, false);
        agent.flush_outboxes();
        let mut got = Vec::new();
        for (peer, mailbox) in peers {
            let mut recs = Vec::new();
            while let Ok(Some(d)) = mailbox.try_recv() {
                recs.extend(msg::decode_vmsgs(&d.frame).expect("vmsg").records.iter());
            }
            if !recs.is_empty() {
                got.push((*peer, recs));
            }
        }
        got
    }

    /// The slot list of a vertex is as long after `delete u→a, insert
    /// u→b` as before: length proves nothing, so the mutators patch the
    /// memo in step with the list. The delete takes `a`'s slot with it
    /// and `b` lands past the memo, to be filled at the next scatter: no
    /// slot is left behind for the edge that comes to stand where `a`
    /// stood.
    #[test]
    fn an_edge_replaced_by_another_does_not_inherit_its_slot() {
        let (mut agent, peers) = scattering(&[ME, 2, 3]);
        let owner = |v| {
            agent
                .locator
                .ring()
                .owner(v)
                .into_iter()
                .collect::<Vec<_>>()
        };
        let (u, a, b) = (
            owned(owner, &[ME], 1)[0],
            owned(owner, &[2], 1)[0],
            owned(owner, &[3], 1)[0],
        );
        assert!(agent.insert_out_edge(u, a));
        assert_eq!(scatter_from(&mut agent, &peers, u), [(2, vec![(a, u)])]);
        assert_eq!(agent.vertices.get(&u).unwrap().slots.len(), 1);
        assert!(agent.remove_out_edge(u, a) && agent.insert_out_edge(u, b));
        assert_eq!(agent.vertices.get(&u).unwrap().adj.out(), [b]);
        assert_eq!(
            agent.vertices.get(&u).unwrap().slots.len(),
            0,
            "a's slot left with a"
        );
        assert_eq!(scatter_from(&mut agent, &peers, u), [(3, vec![(b, u)])]);
        // Same for the in side, which WCC scatters along too.
        assert!(agent.insert_in_edge(a, u));
        assert_eq!(
            scatter_from(&mut agent, &peers, u),
            [(2, vec![(a, u)]), (3, vec![(b, u)])]
        );
        assert!(agent.remove_in_edge(a, u) && agent.insert_in_edge(b, u));
        assert_eq!(scatter_from(&mut agent, &peers, u), [(3, vec![(b, u)])]);
        assert_eq!(agent.targets.len(), 2, "one row per (target, destination)");
    }

    /// Two agents with one history: churn on a few hubs, out- and
    /// in-edges, the lists growing past the scan length (indexed) and
    /// shrinking below half of it, with a PageRank sweep (out-edges) or
    /// a WCC sweep (both sides) between batches. One twin patches its
    /// memos; the other adopts a view of the same members before each
    /// scatter, which outdates every memo. Both send the same VMSG
    /// records and fold the same values in place, bit for bit. The
    /// patching twin fills exactly the fired sides' edges past its
    /// memo's prefix — those appended since the hub last scattered, and
    /// those behind an out-edge deleted while an appended one was still
    /// unfilled (the edge the list moved there has no slot) — and the
    /// refilling twin every fired edge.
    #[test]
    fn a_patched_memo_sends_what_a_refilled_one_does() {
        const MEMBERS: [AgentId; 3] = [ME, 2, 3];
        const HUBS: [VertexId; 3] = [10, 11, 12];
        let twin = || {
            let (transport, agent) = detached(view(1, &MEMBERS, &[]));
            let peers: Vec<Mailbox> = MEMBERS[1..]
                .iter()
                .map(|&a| transport.bind(&agent_addr(a)).expect("bind"))
                .collect();
            (agent, peers)
        };
        let mut twins = [twin(), twin()];
        // The hubs' lists as `swap_remove` keeps them, and how much of
        // `[out | in]` the patching twin's memo covers by the rule.
        let mut lists: Vec<[Vec<VertexId>; 2]> = vec![Default::default(); HUBS.len()];
        let mut memo = [0; HUBS.len()];
        let mut rng = SplitMix64::new(0x7A1D);
        let (mut peak, mut indexed_deletes) = (0, 0);
        for round in 0..48u64 {
            // Eight batches that grow the lists, eight that shrink them.
            let inserts = if round / 8 % 2 == 0 { 8 } else { 2 };
            for _ in 0..96 {
                let (i, s) = (rng.below(3) as usize, rng.below(2) as usize);
                let (u, w) = (HUBS[i], 100 + rng.below(64));
                let insert = rng.below(10) < inserts;
                let outs = lists[i][0].len();
                let pos = lists[i][s].iter().position(|&x| x == w);
                for (agent, _) in twins.iter_mut() {
                    let changed = match (s, insert) {
                        (0, true) => agent.insert_out_edge(u, w),
                        (0, false) => agent.remove_out_edge(u, w),
                        (_, true) => agent.insert_in_edge(w, u),
                        (_, false) => agent.remove_in_edge(w, u),
                    };
                    assert_eq!(changed, pos.is_some() != insert);
                }
                match (insert, pos) {
                    (true, None) => {
                        lists[i][s].push(w);
                        memo[i] = memo[i].min(outs);
                    }
                    (false, Some(p)) => {
                        indexed_deletes += usize::from(lists[i][s].len() > 32);
                        lists[i][s].swap_remove(p);
                        memo[i] = match s {
                            0 if memo[i] >= outs => outs - 1,
                            0 => memo[i].min(p),
                            _ => memo[i].min(outs),
                        };
                    }
                    _ => {}
                }
                peak = peak.max(lists[i][s].len());
                let held = twins[0].0.vertices.get(&u).map_or(0, |e| e.slots.len());
                assert_eq!(held, memo[i], "round {round}: the memo of hub {u}");
            }
            // A sweep: WCC after every third batch, PageRank otherwise.
            let wcc = round % 3 == 0;
            let spec = if wcc {
                ProgramSpec::Wcc
            } else {
                ProgramSpec::from(PageRank::new(0.85))
            };
            let (tag, params) = spec.encode();
            // What the patching twin fills by the rule, and what a
            // refill costs: every edge of every side that fires.
            let (mut want, mut every) = (0, 0);
            for (i, [outs, ins]) in lists.iter().enumerate() {
                let (o, n) = (outs.len(), ins.len());
                if wcc {
                    want += o - memo[i].min(o) + n - memo[i].saturating_sub(o);
                    every += o + n;
                    memo[i] = o + n;
                } else if o > 0 {
                    want += o - memo[i].min(o);
                    every += o;
                    memo[i] = memo[i].max(o);
                }
            }
            let mut seen = Vec::new();
            for (k, (agent, peers)) in twins.iter_mut().enumerate() {
                if k == 1 {
                    agent.adopt_view(view(2 + round, &MEMBERS, &[]));
                }
                agent.begin_run(RunInfo {
                    run_id: 1 + round,
                    tag,
                    params,
                    reuse_state: false,
                    asynchronous: false,
                    delta: false,
                    watermark: 0,
                });
                agent.run.as_mut().expect("run").step = 1;
                for (&u, [outs, _]) in HUBS.iter().zip(&lists) {
                    let e = agent.vertices.entry_or_default(u);
                    (e.state, e.has_state, e.active) = ((u as f64 / 7.0).to_bits(), true, true);
                    e.rep_out_degree = outs.len() as u64;
                }
                let before = agent.metrics.memo_fills;
                agent.run_kernel(Phase::Scatter, true, false);
                agent.flush_outboxes();
                let sent: Vec<Vec<(VertexId, u64)>> = peers
                    .iter()
                    .map(|mailbox| {
                        let mut recs = Vec::new();
                        while let Ok(Some(d)) = mailbox.try_recv() {
                            recs.extend(msg::decode_vmsgs(&d.frame).expect("vmsg").records.iter());
                        }
                        recs
                    })
                    .collect();
                let mut folded: Vec<(VertexId, u64)> = agent
                    .vertices
                    .iter()
                    .filter(|(_, e)| e.has_partial)
                    .map(|(&v, e)| (v, e.partial))
                    .collect();
                folded.sort_unstable();
                seen.push((sent, folded, agent.metrics.memo_fills - before));
            }
            assert_eq!(seen[0].0, seen[1].0, "round {round}: VMSG records");
            assert_eq!(seen[0].1, seen[1].1, "round {round}: folds in place");
            assert_eq!(
                (seen[0].2, seen[1].2),
                (want as u64, every as u64),
                "round {round}: slots filled, patched and refilled"
            );
        }
        assert!(
            peak > 32 && indexed_deletes > 0,
            "no indexed list: peak {peak}"
        );
    }

    /// A view epoch empties the table. With the ring moved the next
    /// scatter goes where the new ring says; with the ring as it was it
    /// refills the same rows and routes as before.
    #[test]
    fn a_view_epoch_drops_the_table_and_the_next_scatter_follows_the_ring() {
        let (mut agent, peers) = scattering(&[ME, 2, 3]);
        let moved = view(3, &[ME, 3], &[]);
        let (before, after) = (agent.locator.clone(), moved.locator());
        let both = |v| {
            vec![
                before.ring().owner(v).unwrap(),
                after.ring().owner(v).unwrap(),
            ]
        };
        let u = owned(both, &[ME, ME], 1)[0];
        // One target agent 2 loses to agent 3, one that stays where it is.
        let (w, kept) = (owned(both, &[2, 3], 1)[0], owned(both, &[3, 3], 1)[0]);
        assert!(agent.insert_out_edge(u, w) && agent.insert_out_edge(u, kept));
        let first = scatter_from(&mut agent, &peers, u);
        assert_eq!(first, [(2, vec![(w, u)]), (3, vec![(kept, u)])]);
        let generation = agent.targets.generation();
        // The same members under a new epoch: nothing moves.
        agent.adopt_view(view(2, &[ME, 2, 3], &[]));
        assert_eq!(agent.targets.len(), 0, "the old table outlived its epoch");
        assert_eq!(agent.targets.generation(), generation + 1);
        // Lazily: the entry keeps its outdated memo until it scatters.
        let e = agent.vertices.get(&u).unwrap();
        assert_eq!((e.slots.len(), e.placed), (2, generation));
        assert_eq!(scatter_from(&mut agent, &peers, u), first);
        assert_eq!(agent.targets.len(), 2);
        // Agent 2 leaves.
        agent.adopt_view(moved);
        assert_eq!(agent.targets.len(), 0);
        assert_eq!(
            scatter_from(&mut agent, &peers, u),
            [(3, vec![(w, u), (kept, u)])]
        );
    }

    /// The placement stamp is of its epoch: once a held vertex's
    /// primary has moved away its partial travels and the summary
    /// stops counting it; a split vertex is never stamped home, so its
    /// replicas keep hearing of its state.
    #[test]
    fn the_placement_stamp_follows_the_view_and_never_says_home_of_a_split_vertex() {
        let (mut agent, peers) = scattering(&[ME, 2]);
        let joined = view(2, &[ME, 2, 3], &[]);
        let (before, after) = (agent.locator.clone(), joined.locator());
        let both = |v| {
            vec![
                before.ring().owner(v).unwrap(),
                after.ring().owner(v).unwrap(),
            ]
        };
        let (stays, leaves) = (owned(both, &[ME, ME], 1)[0], owned(both, &[ME, 3], 1)[0]);
        let peer3 = agent.transport.bind(&agent_addr(3)).expect("bind");
        let hand_partials = |agent: &mut Agent| {
            for v in [stays, leaves] {
                agent.edit(v, |e, lists| {
                    (e.is_meta, e.partial, e.has_partial) = (true, 4, true);
                    lists.partial_dirty.push(v);
                });
            }
            agent.run_kernel(Phase::Combine, false, false);
            agent.flush_outboxes();
        };
        hand_partials(&mut agent);
        for v in [stays, leaves] {
            let e = agent.vertices.get(&v).unwrap();
            assert!(e.home && e.has_ppartial, "{v}: not delivered in place");
        }
        assert_eq!(agent.total().part_sent, 0);
        assert_eq!(agent.recount_primaries(), 2);
        // Agent 3 joins and takes `leaves` (held here until the sweep).
        agent.adopt_view(joined);
        agent.vertices.get_mut(&leaves).unwrap().has_ppartial = false;
        hand_partials(&mut agent);
        assert_eq!(agent.total().part_sent, 1);
        let d = peer3
            .try_recv()
            .expect("open")
            .expect("a PARTIAL for agent 3");
        let sent = msg::decode_partials(&d.frame).expect("partial");
        assert_eq!(sent.records.iter().collect::<Vec<_>>(), [(leaves, 4)]);
        let e = agent.vertices.get(&leaves).unwrap();
        assert!(!e.home && !e.has_ppartial);
        assert!(agent.vertices.get(&stays).unwrap().home);
        assert_eq!(agent.recount_primaries(), 1);

        // A hub with its primary here: delivered in place by the
        // cache's word, not the stamp's, and its STATE still goes out.
        let hub = owned(|v| vec![after.ring().owner(v).unwrap()], &[ME], 3)[2];
        agent.adopt_view(view(3, &[ME, 2, 3], &[hub]));
        agent.edit(hub, |e, lists| {
            (e.is_meta, e.has_state, e.state) = (true, true, hub);
            (e.has_ppartial, e.ppartial) = (true, 0);
            lists.apply.push(hub);
        });
        agent.needs_sweep = false;
        agent.run_kernel(Phase::Apply, false, false);
        let e = agent.vertices.get(&hub).unwrap();
        assert_eq!((e.state, e.home), (0, false));
        assert_eq!(agent.total().state_sent, 2, "a replica was not told");
        drop(peers);
    }

    /// The parked advance and the per-step counts live and die with the
    /// run: a restart after a recovery reset — or any `begin_run`, or
    /// the run's own end — finds neither. The reset's VIEW is not parked
    /// behind the advance: it drops the run and is adopted at once.
    #[test]
    fn a_parked_advance_does_not_outlive_its_run() {
        let mut rig = rig();
        rig.reach_step_one();
        let one = rig.vmsgs(1, 1);
        rig.deliver(one);
        rig.advance(1, Phase::Combine, Phase::Scatter, 2);
        let run = rig.agent.run.as_ref().unwrap();
        assert!(run.parked_advance.is_some() && run.taken_in((1, Phase::Scatter)) == 1);
        rig.readys();
        rig.deliver(reset_view(2, &[ME]).encode());
        assert!(rig.agent.run.is_none());
        let ready = ReadyReport::decode(&rig.readys()[0]).unwrap();
        assert_eq!((ready.run, ready.step, ready.phase), (0, 2, Phase::Migrate));
        // The driver restarts the run; what was parked is gone, and a
        // record of the aborted run's step 1 completes nothing.
        rig.agent.begin_run(run_info(false));
        let run = rig.agent.run.as_ref().unwrap();
        assert!(run.parked_advance.is_none() && run.taken_in((1, Phase::Scatter)) == 0);
        rig.readys();
        let stale = rig.vmsgs(1, 1);
        rig.deliver(stale);
        assert_eq!(rig.at(), (0, Phase::Scatter));
        assert!(rig.readys().is_empty());
    }

    /// Async mode: a commit puts nothing in the primary's own mailbox —
    /// its replica adopts the new state in place and scatters at once —
    /// and a STATE that reaches a primary anyway (an old primary's
    /// broadcast landing after a view change) does not undo a commit
    /// made here: the next, worse message would then pass for an
    /// improvement and stick.
    #[test]
    fn a_primary_keeps_its_commit_against_an_old_primarys_broadcast() {
        let (_transport, mut agent) = detached(view(1, &[ME], &[]));
        agent.begin_run(run_info(true));
        let run = agent.run.as_mut().expect("run");
        (run.step, run.async_live) = (1, true);
        let (v, w) = (9, 10);
        agent.insert_out_edge(v, w);
        let state_of = |agent: &Agent, v| agent.vertices.get(&v).expect("entry").state;
        // One message and the round that applies it.
        let message = |agent: &mut Agent, label: u64| {
            let program = agent.program();
            agent.async_apply(program.as_dyn(), v, label);
            agent.on_idle();
            assert!(agent.mailbox.try_recv().expect("open").is_none());
        };
        message(&mut agent, 4);
        assert_eq!(state_of(&agent, v), 4);
        // The scatter of the own replica went out in place: `w` holds
        // label 4 as its aggregate, applied in the next round.
        let e = agent.vertices.get(&w).expect("entry");
        assert_eq!((e.has_state, e.has_ppartial, e.ppartial), (false, true, 4));
        agent.on_idle();
        assert_eq!((state_of(&agent, w), agent.metrics.vmsgs), (4, 1));
        message(&mut agent, 0);
        let old = StateRecord {
            vertex: v,
            state: 4,
            out_degree: 1,
            aux: 0,
            active: true,
        };
        agent.handle(Delivery::push(msg::encode_states(RUN, 1, 2, &[old])));
        assert_eq!(state_of(&agent, v), 0, "the commit of 0 was undone");
        message(&mut agent, 3); // no improvement on 0
        assert_eq!(state_of(&agent, v), 0);
        agent.on_idle();
        assert!(!agent.local_work());
        assert_eq!(state_of(&agent, w), 0);
        let sent = (agent.total().vmsg_sent, agent.total().state_sent);
        assert_eq!(sent, (0, 0), "a record was framed");
    }

    /// Async delta PageRank, ROADMAP item 4's lost pushes: a push folds
    /// at `on_idle`, and the very next frame the agent handles is a VIEW
    /// that moves the folded vertex's out-edges to another agent. The
    /// applied delta must already have reached every out-neighbour —
    /// as VMSG records toward a peer's primaries, as an aggregate in
    /// place at this agent's. (While the primary sent its `STATE(aux)`
    /// to itself, the record waited in the mailbox behind the VIEW and
    /// then scattered over an emptied out-list.)
    #[test]
    fn a_folded_push_reaches_every_out_neighbour_before_a_view_moves_the_edges() {
        const TOL: f64 = 1e-6;
        let before = view(1, &[ME, 2], &[]);
        let after = view(2, &[ME, 2, 3], &[]);
        let (old, new) = (before.locator(), after.locator());
        let owners = |v| vec![old.ring().owner(v).unwrap(), new.ring().owner(v).unwrap()];
        let u = owned(owners, &[ME, 3], 1)[0];
        let peer_side = owned(owners, &[2, 2], 4);
        let here = owned(owners, &[ME, ME], 1)[0];
        let (transport, mut agent) = detached(before);
        let peer = transport.bind(&agent_addr(2)).expect("bind");
        let pagerank = PageRank::new(0.85).with_tolerance(TOL);
        let (tag, params) = ProgramSpec::from(pagerank).encode();
        agent.begin_run(RunInfo {
            run_id: RUN,
            tag,
            params,
            reuse_state: true,
            asynchronous: true,
            delta: true,
            watermark: 0,
        });
        let run = agent.run.as_mut().expect("run");
        (run.step, run.async_live, run.n_vertices) = (1, true, 100);
        let targets: Vec<VertexId> = peer_side.iter().copied().chain([here]).collect();
        for &w in &targets {
            assert!(agent.insert_out_edge(u, w));
        }
        let k = targets.len() as u64;
        let state = 0.01f64.to_bits();
        agent.edit(u, |e, _| {
            (e.is_meta, e.g_out, e.rep_out_degree) = (true, k as i64, k);
            (e.state, e.has_state) = (state, true);
        });

        let push = (100.0 * TOL).to_bits();
        let program = agent.program();
        agent.async_apply(program.as_dyn(), u, push);
        agent.on_idle();
        // Before anything else: the VIEW.
        assert!(agent.handle(Delivery::push(after.encode())));
        while let Ok(Some(d)) = agent.mailbox.try_recv() {
            assert!(agent.handle(d));
        }
        agent.flush_outboxes();

        let ctx = VertexCtx {
            out_degree: k,
            in_degree: 0,
            n_vertices: 100,
            step: 1,
            global: 0.0,
        };
        let (folded, applied) = pagerank.fold_residual(u, state, push, &ctx).expect("folds");
        let want = pagerank
            .scatter_delta(u, folded, applied, &ctx)
            .expect("pushes");
        let mut got: FxHashMap<VertexId, u64> = FxHashMap::default();
        while let Ok(Some(d)) = peer.try_recv() {
            if let Some(recs) = msg::decode_vmsgs(&d.frame) {
                got.extend(recs.records.iter());
            }
        }
        for &w in &peer_side {
            assert_eq!(got.get(&w), Some(&want), "out-neighbour {w} on agent 2");
        }
        let e = agent.vertices.get(&here);
        let held = e.filter(|e| e.has_ppartial).map(|e| e.ppartial);
        assert_eq!(held, Some(want), "out-neighbour {here} on this agent");
    }

    /// An async round applies a primary once, whatever number of its
    /// messages landed before it: three labels in one frame leave as one
    /// record, the best of them. A §3.2 waiting set that one message
    /// half fills is skipped by the round, which sends nothing and
    /// leaves the agent free to sleep; the message that fills it lists
    /// it for the next round.
    #[test]
    fn an_async_round_applies_a_vertex_once() {
        let live = |rig: &mut Rig, spec: ProgramSpec| {
            let (tag, params) = spec.encode();
            rig.agent.begin_run(RunInfo {
                tag,
                params,
                ..run_info(true)
            });
            let run = rig.agent.run.as_mut().expect("run");
            (run.step, run.async_live) = (1, true);
        };
        let sent = |peer: &Mailbox| -> Vec<(VertexId, u64)> {
            let mut recs = Vec::new();
            while let Ok(Some(d)) = peer.try_recv() {
                if let Some(view) = msg::decode_vmsgs(&d.frame) {
                    recs.extend(view.records.iter());
                }
            }
            recs
        };

        let mut rig = rig();
        let peer = rig.transport.bind(&agent_addr(2)).expect("bind");
        let (v, w) = (rig.mine[0], rig.theirs[0]);
        live(&mut rig, ProgramSpec::Wcc);
        rig.deliver(msg::encode_vmsgs(RUN, 1, 2, &[(v, 9), (v, 5), (v, 7)]));
        rig.agent.on_idle();
        assert_eq!(rig.agent.vertices.get(&v).expect("entry").state, 5);
        assert_eq!(sent(&peer), [(w, 5)]);
        assert!(!rig.agent.local_work());

        let mut rig = self::rig();
        let peer = rig.transport.bind(&agent_addr(2)).expect("bind");
        let (v, w) = (rig.mine[0], rig.theirs[0]);
        rig.agent.vertices.entry_or_default(v).g_in = 2;
        live(&mut rig, ProgramSpec::DagLevel);
        rig.deliver(msg::encode_vmsgs(RUN, 1, 2, &[(v, 3)]));
        rig.agent.on_idle();
        assert_eq!(sent(&peer), []);
        assert!(!rig.agent.local_work());
        rig.deliver(msg::encode_vmsgs(RUN, 1, 2, &[(v, 5)]));
        assert!(rig.agent.local_work());
        rig.agent.on_idle();
        assert_eq!(rig.agent.vertices.get(&v).expect("entry").state, 5);
        assert_eq!(sent(&peer), [(w, 6)]);
    }

    // ------------------------------------------------------------------
    // Worklists kept across runs.
    // ------------------------------------------------------------------

    /// Vertices of the kept-list runs below.
    const M: u64 = 48;

    /// Agent `ME` of `[ME, 2]` with the peer's and the lead's mailboxes
    /// bound, and a log of what it sent them: every frame to the peer,
    /// every READY to the lead, in order.
    struct Twin {
        agent: Agent,
        peer: Mailbox,
        lead: Mailbox,
        sent: Vec<Frame>,
        active: u64,
        _transport: Arc<InProcTransport>,
    }

    fn twin() -> Twin {
        let (transport, agent) = detached(view(1, &[ME, 2], &[]));
        Twin {
            agent,
            peer: transport.bind(&agent_addr(2)).expect("bind"),
            lead: transport.bind(&Addr::inproc("nobody")).expect("bind"),
            sent: Vec::new(),
            active: 0,
            _transport: transport,
        }
    }

    impl Twin {
        /// Handle `frame`, then what the agent sent itself meanwhile.
        fn deliver(&mut self, frame: Frame) {
            assert!(self.agent.handle(Delivery::push(frame)));
            self.agent.flush_outboxes();
            while let Ok(Some(d)) = self.agent.mailbox.try_recv() {
                assert!(self.agent.handle(d));
                self.agent.flush_outboxes();
            }
            while let Ok(Some(d)) = self.lead.try_recv() {
                if let Some(rep) = ReadyReport::decode(&d.frame) {
                    self.active = rep.active;
                    self.sent.push(d.frame);
                }
            }
            while let Ok(Some(d)) = self.peer.try_recv() {
                self.sent.push(d.frame);
            }
        }

        /// A sync run of `spec` driven as a lead alone with this agent
        /// drives it: one barrier per step until the agent reports
        /// nothing active, or step 0 to its apply and a cut there.
        fn run(&mut self, run_id: u64, spec: ProgramSpec, reuse: bool, cut: bool) {
            let (tag, params) = spec.encode();
            self.agent.begin_run(RunInfo {
                run_id,
                tag,
                params,
                reuse_state: reuse,
                asynchronous: false,
                delta: false,
                watermark: 0,
            });
            let advance = |step, phase, until, done| {
                let (n_vertices, global, expect) = (M, 0.0, Vec::new());
                msg::Advance {
                    run: run_id,
                    step,
                    phase,
                    n_vertices,
                    global,
                    done,
                    until,
                    expect,
                }
                .encode()
            };
            self.deliver(advance(0, Phase::Scatter, Phase::Scatter, false));
            let mut step = 0;
            if cut {
                self.deliver(advance(0, Phase::Combine, Phase::Apply, false));
            } else {
                loop {
                    self.deliver(advance(step, Phase::Combine, Phase::Scatter, false));
                    step += 1;
                    if self.active == 0 {
                        break;
                    }
                }
            }
            let last = if cut { Phase::Apply } else { Phase::Scatter };
            self.deliver(advance(step, last, last, true));
            assert!(self.agent.run.is_none());
        }
    }

    /// What arrives between two runs: a batch of edge changes (both
    /// placement sides, as the streamer sends them) and the moving
    /// vertices of a view change, with random flags — mostly a converged
    /// sender's.
    fn between_runs(rng: &mut SplitMix64) -> Vec<Frame> {
        let mut frames = Vec::new();
        let changes: Vec<EdgeChange> = (0..1 + rng.below(6))
            .map(|_| {
                let (u, v) = (rng.below(M), rng.below(M));
                if rng.below(5) == 0 {
                    EdgeChange::delete(u, v)
                } else {
                    EdgeChange::insert(u, v)
                }
            })
            .collect();
        for side in [Side::Out, Side::In] {
            frames.push(msg::encode_edge_changes(side, 0, &changes));
        }
        let flag = |rng: &mut SplitMix64, one_in: u64, bit: u8| {
            if rng.below(one_in) == 0 {
                bit
            } else {
                0
            }
        };
        let mut moving = msg::open_mig_vertex(1, 0, 0, 2);
        let n = rng.below(6);
        for _ in 0..n {
            let meta = (rng.below(2) == 0).then(|| MigMeta {
                out_degree: rng.below(4),
                in_degree: rng.below(4),
                ppartial: rng.below(M),
                ..MigMeta::default()
            });
            let mut flags = flag(rng, 2, MigVertex::HAS_STATE) | flag(rng, 8, MigVertex::ACTIVE);
            if meta.is_some() {
                flags |= MigVertex::META | MigVertex::IS_META ^ flag(rng, 4, MigVertex::IS_META);
                flags |= flag(rng, 2, MigVertex::DIRTY) | flag(rng, 8, MigVertex::HAS_PPARTIAL);
            }
            let lists: Vec<VertexId> = (0..rng.below(4)).map(|_| rng.below(M)).collect();
            let head = MigVertex {
                vertex: rng.below(M),
                flags,
                state: rng.below(M),
                out_degree: rng.below(4),
                aux: if rng.below(8) == 0 {
                    1 + rng.below(9)
                } else {
                    0
                },
                n_out: rng.below(lists.len() as u64 + 1) as u32,
                n_in: 0,
            };
            let head = MigVertex {
                n_in: lists.len() as u32 - head.n_out,
                ..head
            };
            moving.push(&head, |tail| {
                MigVertex::write_tail(tail, meta.as_ref(), lists.iter())
            });
        }
        if n > 0 {
            frames.push(moving.finish());
        }
        frames
    }

    /// Hand both twins the same frames.
    fn deliver_both(twins: [&mut Twin; 2], frames: Vec<Frame>) {
        for frame in frames {
            twins[0].deliver(frame.clone());
            twins[1].deliver(frame);
        }
    }

    /// An agent that starts each reuse run from the lists the last one
    /// left — plus what the handlers pushed between runs — and its twin
    /// forced to sweep before every run: through the same edge changes,
    /// migration streams and cut runs, WCC and BFS runs in turn, both
    /// send the same records and READYs and hold the same entries, and
    /// the lists save visits.
    #[test]
    fn kept_lists_run_as_a_forced_sweep() {
        let mut kept_runs = 0;
        for seed in 0..8 {
            let mut rng = SplitMix64::new(seed);
            let (mut kept, mut swept) = (twin(), twin());
            let source = (0..M)
                .find(|&v| kept.agent.locator.ring().owner(v) == Some(ME))
                .expect("a vertex of ours");
            for round in 0..12u64 {
                deliver_both([&mut kept, &mut swept], between_runs(&mut rng));
                let spec = if round % 2 == 0 {
                    ProgramSpec::Wcc
                } else {
                    ProgramSpec::Bfs { source }
                };
                let (reuse, cut) = (round > 0, rng.below(6) == 0);
                let keeps = !kept.agent.needs_sweep && reuse && kept.agent.vertices.lists_settled();
                kept_runs += u64::from(keeps);
                swept.agent.needs_sweep = true;
                kept.run(round + 1, spec.clone(), reuse, cut);
                swept.run(round + 1, spec, reuse, cut);
                let what = format!("seed {seed}, round {round}");
                assert_eq!(kept.sent, swept.sent, "{what}: sent records differ");
                let (a, b) = (&kept.agent.vertices, &swept.agent.vertices);
                assert_eq!(entries(a), entries(b), "{what}: entries differ");
            }
            assert!(kept.agent.metrics.kernel_visits < swept.agent.metrics.kernel_visits);
        }
        assert!(kept_runs >= 30, "only {kept_runs} runs kept their lists");
    }

    /// A run cut at `max_steps` leaves `active` set where its last apply
    /// put it: the next reuse run must not start from its lists, or
    /// what was left active fires where a sweep would have reset it.
    #[test]
    fn a_cut_run_leaves_no_lists_to_keep() {
        let (mut cut, mut swept) = (twin(), twin());
        let mut rng = SplitMix64::new(7);
        let graph = (0..4).flat_map(|_| between_runs(&mut rng)).collect();
        deliver_both([&mut cut, &mut swept], graph);
        for twin in [&mut cut, &mut swept] {
            twin.run(1, ProgramSpec::Wcc, false, false);
        }
        deliver_both([&mut cut, &mut swept], between_runs(&mut rng));
        for twin in [&mut cut, &mut swept] {
            twin.run(2, ProgramSpec::Wcc, true, true);
            assert!(twin.active > 0, "the cut left nothing active");
        }
        assert!(!cut.agent.vertices.lists_settled());
        swept.agent.needs_sweep = true;
        cut.run(3, ProgramSpec::Wcc, true, false);
        swept.run(3, ProgramSpec::Wcc, true, false);
        assert_eq!(cut.sent, swept.sent, "sent records differ");
        assert_eq!(entries(&cut.agent.vertices), entries(&swept.agent.vertices));
    }
}
