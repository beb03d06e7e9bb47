//! The lead's channel table: what each agent last reported sending to,
//! and taking in from, each peer (DESIGN.md "Quiescence in one wave").
//!
//! This is Mattern's channel counting (F. Mattern, "Algorithms for
//! distributed termination detection", Distributed Computing 2, 1987).
//! Once every member has reported, a counted record still in flight
//! leaves its channel's sent count above its taken-in count, whatever
//! the instants the reports were taken at — provided no counted send is
//! spontaneous: each follows a record taken in after its sender's last
//! report. Follow a late send back through its causes and the chain ends
//! at a record that crossed its receiver's report, on a channel the table
//! shows unbalanced. So one balanced table means nothing counted is in
//! flight. A recovery reset clears the table.

use crate::msg::{Counters, Rows};
use elga_hash::AgentId;
use std::collections::BTreeMap;

/// One unbalanced channel: `(from, to, kind, sent, taken in)`.
pub(crate) type Gap = (AgentId, AgentId, &'static str, u64, u64);

/// Every reported row, by `(reporter, peer)`, iterated in that order.
#[derive(Debug, Default)]
pub(crate) struct Channels(BTreeMap<(AgentId, AgentId), Counters>);

impl Channels {
    /// Take in `agent`'s rows, each its counts with one peer.
    pub(crate) fn report(&mut self, agent: AgentId, rows: &[(AgentId, Counters)]) {
        for &(peer, counts) in rows {
            self.0.insert((agent, peer), counts);
        }
    }

    /// Forget every row: the counts were reset.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Forget `agent`'s channels, balanced when it was released: a
    /// departed agent's rows would otherwise pile up, one set a leave.
    pub(crate) fn forget(&mut self, agent: AgentId) {
        self.0.retain(|&(a, b), _| a != agent && b != agent);
    }

    /// What `from` last reported of its channel pair with `to`.
    pub(crate) fn row(&self, from: AgentId, to: AgentId) -> Counters {
        self.0.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Each channel whose counts differ, by `(from, to)`, kinds in wire
    /// order. Without `records`, VMSG, PARTIAL and STATE are left out: a
    /// sync barrier closes on its per-step counts instead.
    pub(crate) fn gaps(&self, records: bool) -> Vec<Gap> {
        let mut gaps = Vec::new();
        for &(a, b) in self.0.keys() {
            // A row names two channels; each is read off its sender's
            // row, or off its receiver's when the sender has none.
            for (from, to) in [(a, b), (b, a)].into_iter().take(1 + usize::from(a != b)) {
                if (from, to) != (a, b) && self.0.contains_key(&(from, to)) {
                    continue;
                }
                let (sent, taken) = (self.row(from, to), self.row(to, from));
                for ((kind, s, _), (_, _, t)) in sent.pairs().into_iter().zip(taken.pairs()) {
                    if s != t && (records || !matches!(kind, "vmsg" | "part" | "state")) {
                        gaps.push((from, to, kind, s, t));
                    }
                }
            }
        }
        gaps.sort_by_key(|g| (g.0, g.1));
        gaps
    }

    /// `; channel (from, to, kind, sent − taken in)` for each of
    /// [`Channels::gaps`], as `Lead::waiting_on` prints them.
    pub(crate) fn describe(&self, records: bool) -> String {
        let gap = |(from, to, kind, sent, taken): Gap| {
            format!(
                "; channel ({from}, {to}, {kind}, {})",
                sent as i128 - taken as i128
            )
        };
        self.gaps(records).into_iter().map(gap).collect()
    }

    /// Whom to ask what for the table to balance: the receiver of each
    /// short channel, with the sender's row to take in first; the sender
    /// of one that took in more than its sender reported, whose report
    /// is older than a send. Empty when balanced.
    pub(crate) fn asks(&self) -> BTreeMap<AgentId, Rows> {
        let mut asks: BTreeMap<AgentId, Rows> = BTreeMap::new();
        for (from, to, _, sent, taken) in self.gaps(true) {
            if sent < taken {
                asks.entry(from).or_default();
            } else if asks
                .get(&to)
                .and_then(|rows| rows.last())
                .is_none_or(|r| r.0 != from)
            {
                asks.entry(to).or_default().push((from, self.row(from, to)));
            }
        }
        asks
    }
}

/// Each member a held `quiesce` awaits a DRAIN answer from, with what
/// it was told to take in first (from agent 0: the streamers').
pub(crate) fn owed(asked: &BTreeMap<AgentId, Rows>) -> String {
    let mut out = String::new();
    for (id, rows) in asked {
        out += &format!("; agent {id} owes a DRAIN answer");
        for (from, sent) in rows {
            let from = (*from > 0).then(|| format!("agent {from}"));
            let from = from.unwrap_or_else(|| "the streamers".into());
            for (kind, n, _) in sent.pairs().into_iter().filter(|p| p.1 > 0) {
                out += &format!(", take in {n} {kind} from {from}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `kind`'s sent (or taken-in) count in `c`.
    fn count(c: &mut Counters, kind: usize, sent: bool) -> &mut u64 {
        match (kind, sent) {
            (0, true) => &mut c.vmsg_sent,
            (0, false) => &mut c.vmsg_recv,
            (1, true) => &mut c.mig_sent,
            (1, false) => &mut c.mig_recv,
            (_, true) => &mut c.chg_sent,
            (_, false) => &mut c.chg_recv,
        }
    }

    /// Agents counting as `Agent` does: a row per peer, and the rows
    /// the lead was last told.
    struct Sim {
        rows: Vec<BTreeMap<AgentId, Counters>>,
        told: Vec<BTreeMap<AgentId, Counters>>,
        reported: Vec<bool>,
        /// `(from, to, kind)` of every record sent and not taken in.
        in_flight: Vec<(AgentId, AgentId, usize)>,
        table: Channels,
        budget: u32,
    }

    impl Sim {
        fn send(&mut self, from: AgentId, to: AgentId, kind: usize) {
            let row = self.rows[from as usize].entry(to).or_default();
            *count(row, kind, true) += 1;
            self.in_flight.push((from, to, kind));
        }

        /// Take in-flight record `i` in; it causes up to `fanout`
        /// sends, chosen by `seed`, while the budget lasts.
        fn deliver(&mut self, i: usize, fanout: u64, seed: u64) {
            let (from, to, kind) = self.in_flight.swap_remove(i);
            *count(self.rows[to as usize].entry(from).or_default(), kind, false) += 1;
            let n = self.rows.len() as u64;
            for j in 0..fanout.min(u64::from(self.budget)) {
                self.budget -= 1;
                let pick = seed.rotate_left(7 * j as u32 + 3);
                self.send(to, pick % n, (pick >> 32) as usize % 3);
            }
        }

        /// `agent` reports the rows that moved since it last did.
        fn report(&mut self, agent: AgentId) {
            let a = agent as usize;
            let rows: Vec<(AgentId, Counters)> = (self.rows[a].iter())
                .filter(|(p, c)| self.told[a].get(p) != Some(c))
                .map(|(&p, &c)| (p, c))
                .collect();
            self.told[a].extend(rows.iter().copied());
            self.reported[a] = true;
            self.table.report(agent, &rows);
        }

        fn balanced(&self) -> bool {
            self.reported.iter().all(|&r| r) && self.table.gaps(true).is_empty()
        }
    }

    proptest! {
        /// Random deliveries and report instants over agents whose
        /// every send after their first records is caused by a
        /// delivery: the table never balances while a record is in
        /// flight, and balances once delivery has drained and every
        /// agent has reported again.
        #[test]
        fn the_table_balances_only_when_nothing_is_in_flight(
            n in 2usize..5,
            first in prop::collection::vec((0u64..5, 0u64..5, 0usize..3), 1..8),
            steps in prop::collection::vec((any::<bool>(), any::<u64>(), 0u64..3), 1..300),
        ) {
            let mut sim = Sim {
                rows: vec![BTreeMap::new(); n],
                told: vec![BTreeMap::new(); n],
                reported: vec![false; n],
                in_flight: Vec::new(),
                table: Channels::default(),
                budget: 200,
            };
            for (from, to, kind) in first {
                sim.send(from % n as u64, to % n as u64, kind);
            }
            for (deliver, seed, fanout) in steps {
                if deliver && !sim.in_flight.is_empty() {
                    sim.deliver(seed as usize % sim.in_flight.len(), fanout, seed);
                } else {
                    sim.report(seed % n as u64);
                }
                prop_assert!(!sim.balanced() || sim.in_flight.is_empty());
            }
            while !sim.in_flight.is_empty() {
                sim.deliver(0, 1, 0x9E37_79B9_7F4A_7C15);
            }
            (0..n as u64).for_each(|a| sim.report(a));
            prop_assert!(sim.balanced(), "{:?}", sim.table.gaps(true));
        }
    }

    /// A channel is read off its sender's row, or its receiver's when
    /// the sender never reported it; a sync barrier looks past the run's
    /// own records.
    #[test]
    fn gaps_name_each_channel_once() {
        let mut t = Channels::default();
        let sent = Counters {
            mig_sent: 4,
            vmsg_sent: 2,
            ..Counters::default()
        };
        let taken = Counters {
            mig_recv: 3,
            chg_recv: 1,
            ..Counters::default()
        };
        t.report(1, &[(2, sent)]);
        t.report(2, &[(1, taken)]);
        assert_eq!(
            t.gaps(true),
            [
                (1, 2, "vmsg", 2, 0),
                (1, 2, "mig", 4, 3),
                (1, 2, "chg", 0, 1)
            ]
        );
        assert_eq!(t.gaps(false), [(1, 2, "mig", 4, 3), (1, 2, "chg", 0, 1)]);
        t.report(3, &[(1, taken)]);
        assert_eq!(t.gaps(false).len(), 4, "channel 1 → 3 has no sender row");
        t.report(4, &[(4, sent)]);
        assert_eq!(
            t.gaps(true).iter().filter(|g| g.0 == 4).count(),
            2,
            "a self-channel once"
        );
        t.clear();
        assert!(t.gaps(true).is_empty());
    }
}
