//! The agent's clock and failure recovery: METRICS pushed to the
//! directory once per heartbeat interval — the liveness signal the
//! lead's failure detector watches — and the full-reset response to a
//! peer's eviction or a broken link.

use super::*;

impl Agent {
    /// The agent's one time-based decision, at `now`: push METRICS once
    /// a heartbeat interval has passed since the last timed push. The
    /// lead evicts an agent after `heartbeat_interval *
    /// heartbeat_misses` of silence.
    pub(super) fn on_tick(&mut self, now: Instant) {
        if now.saturating_duration_since(self.metrics_pushed) >= self.cfg.heartbeat_interval {
            self.metrics_pushed = now;
            self.push_metrics();
        }
    }

    /// A peer was declared dead, or a link broke. Exact count
    /// reconciliation is impossible (records in flight to/from the dead
    /// agent, or on the link, are unaccounted on one side), so recovery
    /// is a full reset: drop all
    /// graph state and channel counts, adopt the post-eviction view, and
    /// settle the recovery migrate-barrier trivially with zeroed
    /// counts. The driver then replays the retained change log and
    /// restarts any aborted run.
    pub(super) fn on_recover(&mut self, rec: msg::Recover) -> bool {
        if rec.view.addr_of(self.id).is_none() {
            // We were the one evicted (a false positive if we are still
            // alive). Fail-stop: exiting keeps the cluster's view of
            // the world consistent.
            return false;
        }
        if rec.epoch <= self.migrated_epoch {
            // The lead re-publishing an open barrier: already handled;
            // resetting again would wipe state replayed since.
            return true;
        }
        let epoch = rec.epoch;
        self.tracer
            .instant(EventKind::RecoveryTrigger, epoch, rec.dead_agent);
        self.vertices.clear();
        self.primaries = 0;
        self.needs_sweep = true;
        // Open frames hold records counted under the pre-reset regime;
        // pushing them now would unbalance the fresh channel table, so
        // they are discarded along with the stale senders, and so is a
        // parked DRAIN: the lead asks again once the reset settles. The
        // reset rebuilds what a broken link lost, so none is reported.
        self.outboxes.discard();
        self.outboxes.take_broken();
        self.channels.clear();
        self.told.clear();
        self.drain = None;
        self.counted_since = epoch;
        self.buffered_changes.clear();
        self.buffered_frames.clear();
        self.run = None;
        // The residual program dies with the state it described; the
        // lead turns the next residual run into a full recompute.
        self.delta_program = None;
        // Unpushed degree changes counted the wiped graph; the lead's
        // sketch starts over at zero too.
        self.uncounted.clear();
        self.degrees.clear();
        self.unreported_sum = 0.0;
        self.reported = None;
        // The serving snapshots died with the vertex entries; the tag
        // must not claim a run whose values are gone. (A checkpoint
        // restore re-seeds the snapshots, still under tag 0.)
        self.snap_run = 0;
        self.snap_watermark = 0;
        self.loaded.clear();
        self.adopt_view(rec.view);
        // A read parked for the aborted run gets the reset's tag.
        self.answer_reads();
        self.migrated_epoch = epoch;
        self.send_ready(0, epoch as u32, Phase::Migrate, 0, 0.0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use elga_net::{FaultPlan, FaultyTransport, InProcTransport};

    /// On a virtual clock ticking every half interval, the directory
    /// gets exactly one METRICS push per whole interval, and none at the
    /// half steps, whatever the wall clock does meanwhile.
    #[test]
    fn on_tick_pushes_metrics_once_per_interval() {
        let (transport, mut agent) = detached(view(1, &[ME], &[]));
        let directory = transport.bind(&Addr::inproc("nobody")).expect("bind");
        let (t0, half) = (agent.metrics_pushed, agent.cfg.heartbeat_interval / 2);
        for k in 0..20 {
            agent.on_tick(t0 + half * k);
            let pushed = std::iter::from_fn(|| directory.try_recv().ok().flatten());
            let metrics: Vec<_> = pushed
                .filter_map(|d| AgentMetrics::decode(&d.frame))
                .collect();
            let whole = k > 0 && k % 2 == 0;
            assert_eq!(metrics.len(), usize::from(whole), "tick {k}");
            assert!(metrics.iter().all(|m| m.agent == ME));
        }
    }

    /// A route to a member that breaks — here by another sender's frame
    /// into the peer — is found at the agent's next flush: it counts the
    /// broken link and pushes METRICS at once, with no send to that
    /// peer and no heartbeat due; the next flush finds nothing new.
    #[test]
    fn a_broken_route_is_reported_at_the_next_flush() {
        let inproc = Arc::new(InProcTransport::new());
        let plan = FaultPlan::default().break_link(agent_addr(2), packet::VMSG, 1);
        let faulty = Arc::new(FaultyTransport::new(inproc.clone(), plan, 0));
        let nobody = Addr::inproc("nobody");
        let directory = inproc.bind(&nobody).expect("bind");
        let mailbox = faulty.bind(&agent_addr(ME)).expect("bind");
        let dir_push = inproc.sender(&nobody).expect("sender");
        let (cfg, view, now) = (
            SystemConfig::default(),
            view(3, &[ME, 2], &[]),
            Instant::now(),
        );
        let mut agent = Agent::new(faulty.clone(), cfg, ME, mailbox, dir_push, view, now);
        let reports = || {
            let frames = std::iter::from_fn(|| directory.try_recv().ok().flatten());
            frames
                .filter_map(|d| AgentMetrics::decode(&d.frame))
                .collect::<Vec<_>>()
        };
        agent.with_outbox(2, |out| out.send(Frame::signal(packet::OK)));
        agent.on_idle();
        assert!(reports().is_empty(), "an open route is no news");

        let other = faulty.sender(&agent_addr(2)).expect("sender");
        other.send(Frame::signal(packet::VMSG)).expect("accepted");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !other.lost() {
            assert!(Instant::now() < deadline, "the link never broke");
            std::thread::sleep(Duration::from_millis(1));
        }
        agent.on_idle();
        let told: Vec<_> = reports()
            .iter()
            .map(|m| (m.links_broken, m.epoch))
            .collect();
        assert_eq!(told, [(1, 3)]);
        agent.on_idle();
        assert!(reports().is_empty());
    }
}
