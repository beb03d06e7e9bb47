//! The agent's clock and failure recovery: METRICS pushed to the
//! directory once per heartbeat interval — the liveness signal the
//! lead's failure detector watches — and the full-reset response to a
//! peer's eviction.

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

    /// A peer was declared dead. Exact count reconciliation is
    /// impossible (records in flight to/from the dead agent are
    /// unaccounted on one side), so recovery is a full reset: drop all
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
            // Duplicate broadcast (chaos transport, or the lead
            // re-publishing an open barrier): already handled; resetting
            // again would wipe state replayed since.
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
        // parked DRAIN: the lead asks again once the reset settles.
        self.outboxes.discard();
        self.channels.clear();
        self.told.clear();
        self.drain = None;
        self.counted_since = epoch;
        self.buffered_changes.clear();
        self.buffered_frames.clear();
        self.run = None;
        // Residual seed dies with the state it described; the lead
        // turns the next residual run into a full recompute.
        self.delta_seed = None;
        // Unpushed degree changes counted the wiped graph; the lead's
        // sketch starts over at zero too.
        self.uncounted.clear();
        self.degrees.clear();
        self.dangling_acc = 0.0;
        self.dangling_cum = 0.0;
        self.reported = None;
        // The serving snapshots died with the vertex entries; the tag
        // must not claim a run whose values are gone. (A checkpoint
        // restore re-seeds the snapshots, still under tag 0.)
        self.snap_run = 0;
        self.snap_watermark = 0;
        self.loaded.clear();
        self.adopt_view(rec.view);
        self.migrated_epoch = epoch;
        self.send_ready(0, epoch as u32, Phase::Migrate, 0, 0.0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

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
}
