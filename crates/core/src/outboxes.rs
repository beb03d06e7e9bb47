//! The per-destination [`CoalescingOutbox`] set that agents and
//! streamers send through.
//!
//! A destination's outbox is opened on first use at the address the
//! caller's view gives, and the records handed to it leave as a strict
//! FIFO, whatever the frame boundaries. One the transport refused is
//! retired, its refused frames re-pushed in order under the send
//! policy, and a fresh one cached once they all went; a peer that is
//! really gone is left to failure detection. One whose route lost
//! frames it had accepted ([`CoalescingOutbox::lost`]) is retired the
//! same way, and counted as a broken link ([`Outboxes::take_broken`]):
//! what it lost only a recovery brings back.

use crate::msg::DirectoryView;
use elga_hash::{AgentId, FxHashMap};
use elga_net::{
    CoalesceConfig, CoalesceStats, CoalescingOutbox, NetStats, SendPolicy, Transport, TransportExt,
};
use elga_trace::Tracer;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// How the set opens an outbox.
struct Settings {
    transport: Arc<dyn Transport>,
    policy: SendPolicy,
    /// The owning agent, if an agent owns the set, and its traffic sink.
    /// Its outbox to itself takes no credit: it drains from this same
    /// thread, and blocking on its own queue would deadlock.
    agent: Option<(AgentId, Arc<NetStats>)>,
    /// The owner's tracer, when it is enabled.
    tracer: Option<Arc<Tracer>>,
}

impl Settings {
    fn open(&self, agent: AgentId, view: &DirectoryView) -> Option<CoalescingOutbox> {
        let out = self.transport.sender(view.addr_of(agent)?).ok()?;
        let mut cfg = CoalesceConfig::default();
        if self.agent.as_ref().is_some_and(|(me, _)| *me == agent) {
            cfg.credit_bytes = 0;
        }
        let mut co = CoalescingOutbox::new(out, cfg);
        if let Some((_, net)) = &self.agent {
            co = co.with_net_stats(net.clone());
        }
        if let Some(tracer) = &self.tracer {
            co = co.with_tracer(tracer.clone());
        }
        Some(co)
    }
}

/// One sender's outboxes, by destination agent.
pub(crate) struct Outboxes {
    settings: Settings,
    open: FxHashMap<AgentId, CoalescingOutbox>,
    /// Counters of the outboxes dropped since; [`Outboxes::totals`]
    /// adds the open ones.
    retired: CoalesceStats,
    /// Broken routes retired since [`Outboxes::take_broken`] last took
    /// them: retried ones to members, and any [`Outboxes::discard`] drops.
    broken: u64,
}

impl Outboxes {
    /// An empty set over `transport`, retrying under `policy`. Agent
    /// `me` passes itself and its traffic sink, a streamer `None`.
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        policy: SendPolicy,
        tracer: &Arc<Tracer>,
        agent: Option<(AgentId, Arc<NetStats>)>,
    ) -> Self {
        let tracer = tracer.enabled().then(|| tracer.clone());
        Outboxes {
            settings: Settings {
                transport,
                policy,
                agent,
                tracer,
            },
            open: FxHashMap::default(),
            retired: CoalesceStats::default(),
            broken: 0,
        }
    }

    /// Run `f` against `agent`'s outbox, opened at its address in
    /// `view` if need be (`f` does not run without one), then retry
    /// what the transport refused. Returns the retries taken.
    #[inline]
    pub(crate) fn with(
        &mut self,
        agent: AgentId,
        view: &DirectoryView,
        f: impl FnOnce(&mut CoalescingOutbox),
    ) -> u64 {
        let out = match self.open.entry(agent) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => match self.settings.open(agent, view) {
                Some(co) => e.insert(co),
                None => return 0,
            },
        };
        f(out);
        if out.has_failed() {
            self.retry(agent, view)
        } else {
            0
        }
    }

    /// Close and push every open frame, retrying what the transport
    /// refuses and retiring a broken route. Returns the retries taken.
    pub(crate) fn flush(&mut self, view: &DirectoryView) -> u64 {
        let failed: Vec<AgentId> = self
            .open
            .iter_mut()
            .filter_map(|(&agent, out)| {
                out.flush();
                (out.has_failed() || out.lost()).then_some(agent)
            })
            .collect();
        failed
            .into_iter()
            .map(|agent| self.retry(agent, view))
            .sum()
    }

    /// The broken routes counted since the last call.
    pub(crate) fn take_broken(&mut self) -> u64 {
        std::mem::take(&mut self.broken)
    }

    /// Drop every outbox, open frames unsent, keeping its counters and
    /// counting the broken ones. Returns how many there were.
    pub(crate) fn discard(&mut self) -> usize {
        let n = self.open.len();
        for (_, out) in self.open.drain() {
            self.retired.absorb(out.stats());
            self.broken += u64::from(out.lost());
        }
        n
    }

    /// Coalescer counters summed across open and dropped outboxes.
    pub(crate) fn totals(&self) -> CoalesceStats {
        let mut total = self.retired;
        for out in self.open.values() {
            total.absorb(out.stats());
        }
        total
    }

    /// Retire `agent`'s refused or broken outbox, re-push its refused
    /// frames in order to the address `view` gives, and cache a fresh
    /// outbox once they all went. Returns one retry for the retirement
    /// plus the re-pushes' backoffs.
    fn retry(&mut self, agent: AgentId, view: &DirectoryView) -> u64 {
        let Some(mut dead) = self.open.remove(&agent) else {
            return 0;
        };
        // Close any open frame; its send fails onto the refused list.
        dead.flush();
        self.retired.absorb(dead.stats());
        let Some(addr) = view.addr_of(agent) else {
            return 1;
        };
        self.broken += u64::from(dead.lost());
        let (transport, policy) = (&self.settings.transport, &self.settings.policy);
        let mut retries = 1;
        for frame in dead.take_failed() {
            match transport.push_with_retry(addr, frame, policy) {
                Ok(n) => retries += u64::from(n),
                Err(_) => return retries,
            }
        }
        if let Some(co) = self.settings.open(agent, view) {
            self.open.insert(agent, co);
        }
        retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::testkit::view;
    use elga_net::{Addr, Frame, InProcTransport};

    /// A destination whose mailbox went away: the frames it refused are
    /// re-pushed in order to the address the view gives now, a fresh
    /// outbox is cached there, and the retired outbox's counters stay
    /// in the totals.
    #[test]
    fn a_refused_destination_is_re_pushed_in_order_and_re_cached() {
        let transport = Arc::new(InProcTransport::new());
        let at = |name: &str| {
            let mut v = view(1, &[1, 2], &[]);
            v.agents[1].addr = Addr::inproc(name);
            v
        };
        let frame = |k: u64| Frame::builder(crate::msg::packet::VMSG).u64(k).finish();
        let tracer = Arc::new(Tracer::disabled());
        let mut set = Outboxes::new(transport.clone(), SendPolicy::default(), &tracer, None);

        let first = transport.bind(&Addr::inproc("first")).expect("bind");
        assert_eq!(set.with(2, &at("first"), |out| out.send(frame(0))), 0);
        assert_eq!(
            first.try_recv().ok().flatten().map(|d| d.frame),
            Some(frame(0))
        );
        drop(first);

        let second = transport.bind(&Addr::inproc("second")).expect("bind");
        let retries = set.with(2, &at("second"), |out| {
            (1..=3).for_each(|k| out.send(frame(k)))
        });
        assert_eq!(retries, 1, "one retirement, no backoff");
        set.with(2, &at("second"), |out| out.send(frame(4)));
        let got = std::iter::from_fn(|| second.try_recv().ok().flatten().map(|d| d.frame));
        assert!(
            got.eq((1..=4).map(frame)),
            "the refused frames first, in order"
        );
        // The retired outbox sent 0..=3 (three of them refused), the
        // fresh one cached for 2 sent 4.
        assert_eq!(set.totals().frames, 5);
        assert_eq!(set.discard(), 1);
    }
}
