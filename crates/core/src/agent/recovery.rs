//! The agent's clock and failure recovery: METRICS pushed to the
//! directory once per heartbeat interval — the liveness signal the
//! lead's failure detector watches — and the full reset a recovery's
//! VIEW (one whose `reset` is its own epoch) asks of every member.

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

    /// Drop what a recovery reset wipes before its VIEW is adopted
    /// ([`Agent::take_view`]). A peer died or a link broke, so records
    /// in flight are unaccounted on one side: all graph state and counts
    /// go, and the driver replays the change log and restarts the run.
    pub(super) fn wipe(&mut self) {
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
        self.buffered_changes.clear();
        self.buffered_frames.clear();
        // The run goes, and with it a parked advance and view.
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
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use elga_net::{FaultPlan, FaultyTransport, InProcTransport, Mailbox};

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
            let metrics: Vec<_> = pushed(&directory)
                .iter()
                .filter_map(AgentMetrics::decode)
                .collect();
            let whole = k > 0 && k % 2 == 0;
            assert_eq!(metrics.len(), usize::from(whole), "tick {k}");
            assert!(metrics.iter().all(|m| m.agent == ME));
        }
    }

    /// The frames pushed to `directory` since the last call.
    fn pushed(directory: &Mailbox) -> Vec<Frame> {
        let pushed = std::iter::from_fn(|| directory.try_recv().ok().flatten());
        pushed.map(|d| d.frame).collect()
    }

    /// A VIEW whose `reset` is its own epoch wipes the agent — store,
    /// primaries, channel counts — and the migration it opens sends
    /// nothing and reports the barrier with no rows and no primaries. A
    /// copy the lead republishes after the replay began wipes nothing.
    #[test]
    fn a_reset_view_wipes_the_agent_once_and_reports_a_zeroed_migrate_ready() {
        let (transport, mut agent) = detached(view(1, &[ME, 2], &[]));
        let directory = transport.bind(&Addr::inproc("nobody")).expect("bind");
        let peer = transport.bind(&agent_addr(2)).expect("bind");
        for v in 100..108 {
            agent.insert_out_edge(v, v + 1);
            agent.edit(v, |e, _| (e.is_meta, e.g_out) = (true, 1));
        }
        agent.peer(2).vmsg_sent = 3;
        let reset = reset_view(2, &[ME, 2]).encode();
        assert!(agent.handle(Delivery::push(reset.clone())));
        assert_eq!((agent.vertices.len(), agent.primaries), (0, 0));
        assert!(agent.channels.is_empty() && agent.needs_sweep);
        assert_eq!((agent.view.epoch, agent.view.reset), (2, 2));
        let frames = pushed(&directory);
        assert_eq!(frames.len(), 1, "{frames:?}");
        let ready = ReadyReport::decode(&frames[0]).expect("a READY");
        let at = (ready.run, ready.step, ready.phase, ready.epoch);
        assert_eq!(at, (0, 2, Phase::Migrate, 2));
        assert!(ready.rows.is_empty() && ready.n_primary == 0);
        assert!(peer.try_recv().expect("open").is_none(), "nothing moved");

        agent.insert_out_edge(5, 6);
        assert!(agent.handle(Delivery::push(reset)));
        assert!(agent.vertices.get(&5).is_some() && pushed(&directory).is_empty());
    }

    /// A view that omits the agent: a reset one makes it exit at once,
    /// sending nothing; a plain one starts its departure, which moves
    /// what it holds and reports the barrier.
    #[test]
    fn a_view_that_omits_the_agent_ends_it_only_after_a_reset() {
        let (transport, mut agent) = detached(view(1, &[ME, 2], &[]));
        let directory = transport.bind(&Addr::inproc("nobody")).expect("bind");
        agent.insert_out_edge(5, 6);
        assert!(!agent.handle(Delivery::push(reset_view(2, &[2]).encode())));
        assert!(pushed(&directory).is_empty());

        let (transport, mut agent) = detached(view(1, &[ME, 2], &[]));
        let directory = transport.bind(&Addr::inproc("nobody")).expect("bind");
        agent.insert_out_edge(5, 6);
        assert!(agent.handle(Delivery::push(view(2, &[2], &[]).encode())));
        assert!(agent.departing);
        assert_eq!(agent.vertices.len(), 0, "moved to agent 2");
        let last = pushed(&directory).pop().expect("pushed");
        assert!(ReadyReport::decode(&last).is_some_and(|r| r.phase == Phase::Migrate));
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
