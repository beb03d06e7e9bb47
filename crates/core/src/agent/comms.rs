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
//! Flush discipline: the termination protocol (Mattern-style counter
//! barriers) counts *records*, and a READY/DRAIN report must never
//! claim a record the wire has not seen. Hence [`Agent::send_ready`]
//! and the DRAIN handler flush all open frames first, and
//! [`Agent::on_idle`] flushes once the mailbox drains so async-mode
//! traffic keeps moving between barriers.

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

    /// Send a READY for `(run, step, phase)`. The primary count rides
    /// every report from the run's cache (0 outside a run, or before
    /// the first count).
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
            counters: self.counters,
            active,
            global_contrib: contrib,
            n_primary: self.run.as_ref().and_then(|r| r.n_primary).unwrap_or(0),
            seq: 0,
            epoch: 0,
            sent,
        });
    }

    /// Re-send the last READY with fresh counters ([`Agent::on_idle`]
    /// says when). The summary fields and the step's sent list are
    /// repeated as sent — nothing a late frame can do changes them —
    /// so the lead's per-receiver sums come out the same.
    pub(super) fn re_report(&mut self) {
        if let Some(rep) = self.reported.take() {
            self.push_ready(rep);
        }
    }

    /// Stamp `rep` with the current counters, sequence and epoch, and
    /// push it to the directory.
    fn push_ready(&mut self, mut rep: ReadyReport) {
        // The report's counters claim these records as sent; make it
        // true before the directory can act on it.
        self.flush_outboxes();
        self.ready_seq += 1;
        rep.counters = self.counters;
        rep.seq = self.ready_seq;
        rep.epoch = self.view.epoch;
        let _ = self.dir_push.send(rep.encode());
        self.reported = Some(rep);
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
    /// directory, for the lead's sketch; whether there were any.
    pub(super) fn push_degrees(&mut self) -> bool {
        self.count_degrees();
        if self.degrees.touched() == 0 {
            return false;
        }
        let delta = msg::encode_sketch_delta(self.view.epoch, &self.degrees);
        let _ = self.dir_push.send(delta);
        self.degrees.clear();
        true
    }

    /// Push this agent's metrics to the directory: the report the
    /// lead aggregates, and the agent's liveness signal
    /// ([`Agent::on_tick`] pushes one every heartbeat interval).
    pub(super) fn push_metrics(&mut self) {
        let (hits, misses) = self.route_cache.stats();
        self.metrics.owner_cache_hits = hits;
        self.metrics.owner_cache_misses = misses;
        self.metrics.edges = self.vertices.held()[0] as u64;
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
