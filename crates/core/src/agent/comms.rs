//! The agent's send side: phase-end flushes of its outbox set
//! ([`Outboxes`]), READY reports, degree and metrics pushes.
//!
//! Every data-plane send goes through the destination's coalescing
//! outbox ([`Agent::with_outbox`]): a run of records (`msg::append_*`),
//! or a sweep's MIG_VERTEX frames, sent whole. What never reaches an
//! outbox: the records a run addresses to this agent itself. VMSG,
//! PARTIAL and STATE records for the agent's own vertices are folded in
//! place by the kernel that produced them (`superstep`), uncounted on
//! both sides of the barrier sums.
//!
//! Flush discipline: the termination protocol (Mattern's channel
//! counting, per peer) counts *records*, and a READY/DRAIN report must
//! never claim a record the wire has not seen. Hence [`Agent::send_ready`]
//! and the DRAIN answers flush all open frames first, and
//! [`Agent::on_idle`] flushes once the mailbox drains so async-mode
//! traffic keeps moving between barriers. A report carries only the
//! peer rows that moved since the lead was last told ([`Agent::fresh_rows`]).

use super::*;

impl Agent {
    /// Run `f` against `agent`'s outbox ([`Outboxes::with`]).
    pub(super) fn with_outbox(&mut self, agent: AgentId, f: impl FnOnce(&mut CoalescingOutbox)) {
        self.metrics.retries_attempted += self.outboxes.with(agent, &self.view, f);
    }

    /// Phase-end flush: close every destination's open frame and push
    /// it, retrying whatever the transport refuses. Called before
    /// every READY/DRAIN report and at idle, so barrier counters never
    /// run ahead of delivered frames.
    pub(super) fn flush_outboxes(&mut self) {
        self.metrics.retries_attempted += self.outboxes.flush(&self.view);
    }

    /// Send a READY for `(run, step, phase)`. The kept primary count
    /// rides every report of a run (0 outside one).
    pub(super) fn send_ready(
        &mut self,
        run: u64,
        step: u32,
        phase: Phase,
        active: u64,
        contrib: f64,
    ) {
        // A sync run's report says what its last phase sent to whom;
        // the lead closes the barrier on it.
        let sent = match self.run.as_mut() {
            Some(r) if !r.async_live && r.info.run_id == run => std::mem::take(&mut r.sent),
            _ => Vec::new(),
        };
        self.push_ready(ReadyReport {
            agent: self.id,
            run,
            step,
            phase,
            rows: Vec::new(),
            active,
            global_contrib: contrib,
            n_primary: if self.run.is_some() {
                self.primaries
            } else {
                0
            },
            seq: 0,
            epoch: 0,
            sent,
        });
    }

    /// Re-send the last READY with fresh rows ([`Agent::on_idle`]
    /// says when). The summary fields and the step's sent list are
    /// repeated as sent — nothing a late frame can do changes them —
    /// so the lead's per-receiver sums come out the same.
    pub(super) fn re_report(&mut self) {
        if let Some(rep) = self.reported.take() {
            self.push_ready(rep);
        }
    }

    /// Stamp `rep` with the fresh rows, sequence and epoch, and push it
    /// to the directory.
    fn push_ready(&mut self, mut rep: ReadyReport) {
        // The report's rows claim these records as sent; make it true
        // before the directory can act on it.
        self.flush_outboxes();
        self.ready_seq += 1;
        rep.rows = self.fresh_rows();
        rep.seq = self.ready_seq;
        rep.epoch = self.view.epoch;
        let _ = self.dir_push.send(rep.encode());
        self.reported = Some(rep);
    }

    /// The channel pair with `peer`: what was sent to it and taken in
    /// from it.
    pub(super) fn peer(&mut self, peer: AgentId) -> &mut Counters {
        self.channels.entry(peer).or_default()
    }

    /// The rows that moved since the lead was last told, now told.
    pub(super) fn fresh_rows(&mut self) -> Rows {
        let rows: Rows = (self.channels.iter())
            .filter(|(p, c)| self.told.get(p) != Some(c))
            .map(|(&p, &c)| (p, c))
            .collect();
        self.told.extend(rows.iter().copied());
        rows
    }

    /// Whether a count moved since the lead was last told; without
    /// `records`, taking in VMSG, PARTIAL or STATE records does not.
    pub(super) fn moved(&self, records: bool) -> bool {
        self.channels.iter().any(|(p, c)| {
            let told = self.told.get(p).copied().unwrap_or_default();
            let mut pairs = c.pairs().into_iter().zip(told.pairs()).enumerate();
            pairs.any(|(i, (c, t))| c.1 != t.1 || c.2 != t.2 && (records || i > 2))
        })
    }

    /// Answer the lead's parked DRAIN once every record it names has
    /// been taken in — each peer's row is what that peer reported
    /// sending here, peer 0's the streamers' records. The degree
    /// changes applied so far go ahead of the report, on the same path,
    /// so the lead has folded them when it reads it.
    pub(super) fn answer_drain(&mut self) {
        let streamed = Counters {
            chg_recv: self.streamed,
            ..Counters::default()
        };
        let owed = |(from, sent): &(AgentId, Counters)| {
            let row = || self.channels.get(from).copied().unwrap_or_default();
            let taken = if *from == 0 { streamed } else { row() };
            (sent.pairs().iter().zip(taken.pairs())).any(|(s, t)| t.2 < s.1)
        };
        if self.drain.as_ref().is_none_or(|ask| ask.iter().any(owed)) {
            return;
        }
        self.drain = None;
        self.push_degrees();
        let report = msg::DrainReport {
            agent: self.id,
            epoch: self.view.epoch,
            rows: self.fresh_rows(),
        };
        let _ = self.dir_push.send(report.encode());
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Write the applied degree changes into the sketch delta.
    pub(super) fn count_degrees(&mut self) {
        for (v, change) in self.uncounted.drain(..) {
            self.degrees.add(v, change);
        }
    }

    /// Push the degree changes applied since the last push to the
    /// directory, for the lead's sketch.
    pub(super) fn push_degrees(&mut self) {
        self.count_degrees();
        if self.degrees.touched() > 0 {
            let delta = msg::encode_sketch_delta(self.view.epoch, &self.degrees);
            let _ = self.dir_push.send(delta);
            self.degrees.clear();
        }
    }

    /// Push this agent's metrics to the directory: the report the
    /// lead aggregates, and the agent's liveness signal
    /// ([`Agent::on_tick`] pushes one every heartbeat interval).
    pub(super) fn push_metrics(&mut self) {
        let (hits, misses) = self.route_cache.stats();
        self.metrics.owner_cache_hits = hits;
        self.metrics.owner_cache_misses = misses;
        self.metrics.edges = self.vertices.held()[0] as u64;
        self.metrics.primaries = self.primaries;
        self.metrics.store_bytes = self.vertices.heap_bytes() as u64;
        self.metrics.owner_cache_bytes = self.route_cache.heap_bytes() as u64;
        // Data-plane traffic: per-packet-type frames and bytes from the
        // agent's own sink, and the coalescer counters. RX pool hits and
        // misses are recorded by the transport's receive loops, so they
        // are claimed into the sink first; with a shared in-process
        // transport they spread across agents but sum exactly.
        if let Some(ts) = self.transport.net_stats() {
            let (h, m) = ts.drain_rx_pool();
            self.net.record_rx_pool(h, m);
        }
        self.metrics.comms = CommsMetrics::snapshot(&self.net, &self.outboxes.totals());
        let _ = self.dir_push.send(self.metrics.encode());
    }
}
