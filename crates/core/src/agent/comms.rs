//! The agent's send side: per-destination [`CoalescingOutbox`]es,
//! phase-end flushes, dead-peer retries, READY reports, and metrics
//! publication.
//!
//! Every data-plane send goes through the destination's coalescing
//! outbox ([`Agent::with_outbox`]): a run of records (`msg::append_*`),
//! or a sweep's MIG_VERTEX frames, sent whole. Records accumulate
//! into large frames, flushed on size/count thresholds and phase ends;
//! the per-destination byte stream is a strict FIFO of the records
//! handed in, which is what keeps sync-mode results bit-identical
//! whatever the frame boundaries.
//!
//! What never reaches an outbox: the records a run addresses to this
//! agent itself. VMSG, PARTIAL and STATE records for the agent's own
//! vertices are folded in place by the kernel that produced them
//! (`superstep`), uncounted on both sides of the barrier sums.
//!
//! Flush discipline: the termination protocol (Mattern-style counter
//! barriers) counts *records*, and a READY/DRAIN report must never
//! claim a record the wire has not seen. Hence [`Agent::send_ready`]
//! and the DRAIN handler flush all open frames first, and
//! [`Agent::on_idle`] flushes once the mailbox drains so async-mode
//! traffic keeps moving between barriers.

use super::*;

impl Agent {
    /// The coalescer tuning for sends to `agent`.
    fn coalesce_config(&self, agent: AgentId) -> CoalesceConfig {
        let mut c = CoalesceConfig::default();
        if agent == self.id {
            // Self-sends drain from this same thread: blocking on our
            // own queue's credit would deadlock.
            c.credit_bytes = 0;
        }
        c
    }

    fn make_outbox(&self, out: Outbox, agent: AgentId) -> CoalescingOutbox {
        let co = CoalescingOutbox::new(out, self.coalesce_config(agent))
            .with_net_stats(self.net.clone());
        if self.tracer.enabled() {
            co.with_tracer(self.tracer.clone())
        } else {
            co
        }
    }

    fn outbox(&mut self, agent: AgentId) -> Option<&mut CoalescingOutbox> {
        if !self.outboxes.contains_key(&agent) {
            let addr = self
                .view
                .addr_of(agent)
                .cloned()
                .unwrap_or_else(|| agent_addr(agent));
            match self.transport.sender(&addr) {
                Ok(out) => {
                    let co = self.make_outbox(out, agent);
                    self.outboxes.insert(agent, co);
                }
                Err(_) => return None,
            }
        }
        self.outboxes.get_mut(&agent)
    }

    /// Run `f` against the (created on demand) outbox for `agent`,
    /// then hand any frames the transport refused to the retry path.
    pub(super) fn with_outbox(&mut self, agent: AgentId, f: impl FnOnce(&mut CoalescingOutbox)) {
        let failed = match self.outbox(agent) {
            Some(out) => {
                f(out);
                out.has_failed()
            }
            None => false,
        };
        if failed {
            self.retry_failed(agent);
        }
    }

    /// The cached outbox to `agent` is dead (TCP writer broke, or the
    /// peer's mailbox went away). Retire it, re-push the refused
    /// frames with fresh senders under the configured policy, and
    /// re-cache a working outbox; if the peer is really gone, failure
    /// detection will evict it and recovery re-owns its edges.
    fn retry_failed(&mut self, agent: AgentId) {
        let Some(mut dead) = self.outboxes.remove(&agent) else {
            return;
        };
        // Close any open frame; its send fails onto the refused list.
        dead.flush();
        self.coalesce_retired.absorb(dead.stats());
        let frames = dead.take_failed();
        let addr = self
            .view
            .addr_of(agent)
            .cloned()
            .unwrap_or_else(|| agent_addr(agent));
        self.metrics.retries_attempted += 1;
        let mut all_ok = true;
        for frame in frames {
            match self
                .transport
                .push_with_retry(&addr, frame, &self.cfg.send_policy)
            {
                Ok(retries) => self.metrics.retries_attempted += retries as u64,
                Err(_) => {
                    // Peer gone; senders recover on the next view
                    // update, and the failure detector will reconcile
                    // the lost records.
                    all_ok = false;
                    break;
                }
            }
        }
        if all_ok {
            if let Ok(out) = self.transport.sender(&addr) {
                let co = self.make_outbox(out, agent);
                self.outboxes.insert(agent, co);
            }
        }
    }

    /// Phase-end flush: close every destination's open frame and push
    /// it, retrying whatever the transport refuses. Called before
    /// every READY/DRAIN report and at idle, so barrier counters never
    /// run ahead of delivered frames.
    pub(super) fn flush_outboxes(&mut self) {
        let mut failed: Vec<AgentId> = Vec::new();
        for (&agent, out) in self.outboxes.iter_mut() {
            out.flush();
            if out.has_failed() {
                failed.push(agent);
            }
        }
        for agent in failed {
            self.retry_failed(agent);
        }
    }

    /// Drop every cached outbox (their addresses went stale with a
    /// view change), flushing open frames to the old — still live —
    /// peers first and preserving their counters. Receivers forward
    /// anything that no longer belongs to them.
    pub(super) fn retire_outboxes(&mut self) {
        self.flush_outboxes();
        for (_, out) in self.outboxes.drain() {
            self.coalesce_retired.absorb(out.stats());
        }
    }

    /// Drop every cached outbox *without* flushing: recovery resets
    /// all counters, so pushing half-built frames counted under the
    /// old regime would only corrupt the fresh barrier sums.
    pub(super) fn discard_outboxes(&mut self) {
        for (_, out) in self.outboxes.drain() {
            self.coalesce_retired.absorb(out.stats());
        }
    }

    /// Coalescer counters summed across live and retired outboxes.
    pub(super) fn coalesce_totals(&self) -> CoalesceStats {
        let mut total = self.coalesce_retired;
        for out in self.outboxes.values() {
            total.absorb(out.stats());
        }
        total
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

    /// Data-plane traffic accounting for this agent: per-packet-type
    /// frames/bytes from its own [`NetStats`] sink plus the coalescer
    /// flush counters. RX pool hits/misses are recorded by the
    /// transport's receive loops, not the agent's private sink, so
    /// they are drained (claimed once) into the private sink first —
    /// with a shared in-process transport the counts distribute across
    /// agents but sum exactly cluster-wide.
    pub(super) fn comms_snapshot(&self) -> CommsMetrics {
        if let Some(ts) = self.transport.net_stats() {
            let (h, m) = ts.drain_rx_pool();
            self.net.record_rx_pool(h, m);
        }
        CommsMetrics::snapshot(&self.net, &self.coalesce_totals())
    }

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

    pub(super) fn flush_metrics(&mut self, force: bool) {
        if force || self.metrics_flushed.elapsed() > Duration::from_millis(100) {
            self.metrics_flushed = Instant::now();
            let (hits, misses) = self.route_cache.stats();
            self.metrics.owner_cache_hits = hits;
            self.metrics.owner_cache_misses = misses;
            self.metrics.edges = self.vertices.held()[0] as u64;
            self.metrics.store_bytes = self.vertices.heap_bytes() as u64;
            self.metrics.owner_cache_bytes = self.route_cache.heap_bytes() as u64;
            self.metrics.comms = self.comms_snapshot();
            let _ = self.dir_push.send(self.metrics.encode());
        }
    }
}
