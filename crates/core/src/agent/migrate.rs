//! Elasticity: view adoption and edge/meta migration (§3.4.3).

use super::*;

/// What one view change ships to one destination: each record kind is
/// its own packed stream.
#[derive(Default)]
struct Bundle {
    states: Vec<MigState>,
    edges: Vec<MigEdge>,
    metas: Vec<MetaRecord>,
}

/// A sweep's shipments by destination, and what it looked at.
struct Swept {
    bundles: FxHashMap<AgentId, Bundle>,
    /// Entries whose placement was decided.
    examined: u64,
    /// Entries that shipped an edge or their primary record.
    moved: u64,
}

impl Agent {
    /// The one place a view is taken on: the locator is rebuilt from it
    /// and the owner memo follows it to its epoch, so the memo's epoch
    /// is the view's wherever a lookup happens. What the memo keeps
    /// across the change is its own to say ([`OwnerCache::adopt_epoch`]).
    /// The target table keeps nothing: its generation bump outdates
    /// every edge memo and placement stamp at once, and the migration
    /// sweep that follows a view — the only caller outside recovery —
    /// needs no invalidation of its own.
    pub(super) fn adopt_view(&mut self, view: DirectoryView) {
        self.targets.clear();
        self.locator = view.locator();
        view.advance_memo(&mut self.route_cache);
        self.view = view;
    }

    pub(super) fn on_view(&mut self, view: DirectoryView) {
        // The lead republishes the broadcast that opened a barrier
        // until the barrier settles. Invariant: a republished
        // barrier-open is idempotent: no agent migrates twice for one
        // epoch.
        if view.epoch < self.view.epoch || view.epoch <= self.migrated_epoch {
            return;
        }
        let epoch = view.epoch;
        // An async run's own messages are counted nowhere, so the
        // migrate barrier cannot wait for them: deliver them under the
        // view they were routed by, before the sweep moves their
        // targets away (a departer's whole store, and its residuals
        // with it).
        while !self.local.is_empty() {
            self.deliver_local();
        }
        // A sketch-only update (same membership, same ring parameters)
        // cannot move primaries or k=1 placements: only vertices whose
        // replication factor grew need re-placement. This keeps the
        // per-batch cost proportional to affected vertices, not edges
        // (§3.4.3's "graph changes enough to impact load balancing").
        let membership_same = self.view.agents == view.agents
            && self.view.hash == view.hash
            && self.view.virtual_agents == view.virtual_agents
            && self.view.replication_threshold == view.replication_threshold
            && self.view.max_replicas == view.max_replicas;
        let filter = if membership_same && !self.departing {
            let mut changed: FxHashSet<VertexId> = FxHashSet::default();
            for (&v, _) in self.vertices.iter() {
                let k_old = self
                    .locator
                    .replication_factor(self.view.sketch.estimate(v));
                let k_new = self.locator.replication_factor(view.sketch.estimate(v));
                if k_old != k_new {
                    changed.insert(v);
                }
            }
            Some(changed)
        } else {
            None
        };
        self.adopt_view(view);
        self.tracer
            .instant(EventKind::ViewAdopt, epoch, self.view.agents.len() as u64);
        if filter.is_none() {
            // Membership changed: the cached senders' addresses are
            // stale. Flush what they hold (the old peers are still
            // alive and will forward) before dropping them.
            self.tracer
                .instant(EventKind::ViewRetire, epoch, self.outboxes.len() as u64);
            self.retire_outboxes();
        }
        if !self.departing && self.view.addr_of(self.id).is_none() {
            self.departing = true;
        }
        if let Some(run) = self.run.as_mut() {
            if run.async_live {
                // A view change landed mid-async-run. Pause: suppress
                // idle reports (the directory's migrate barrier is the
                // one consuming READYs now) while frames keep flowing
                // under the adopted view. The directory re-publishes
                // the async advance once the barrier settles; that
                // resume re-scatters the surviving frontier.
                run.paused = true;
            }
            // The primaries move: the next scatter counts them again.
            run.n_primary = None;
        }
        self.migrated_epoch = epoch;
        self.migrate(epoch, filter);
    }

    /// Decide, vertex by vertex, what no longer belongs here under the
    /// adopted view and take it out of the store (§3.4.3). With
    /// `filter = Some(vs)`, only the placements of the given vertices
    /// are re-evaluated (sketch-only view changes) and primary meta
    /// never moves (the ring is unchanged).
    ///
    /// The rule is per vertex. With replication factor 1 a vertex's
    /// every edge and its primary record belong at its ring successor:
    /// one ring lookup, and either the entry is not touched or all of
    /// it goes to that one agent. Only a split vertex (`k > 1`) has its
    /// edges placed one by one. The sketch's bound is consulted for one
    /// thing: when it proves every `k` is 1, no estimate is computed.
    fn sweep(&mut self, filter: Option<FxHashSet<VertexId>>) -> Swept {
        let mut bundles: FxHashMap<AgentId, Bundle> = FxHashMap::default();
        // Destinations of the vertex at hand (a handful at most).
        let mut dests: Vec<AgentId> = Vec::new();
        let mut moved = 0;

        let sketch_only = filter.is_some();
        let verts: Vec<VertexId> = match filter {
            Some(set) => set.into_iter().collect(),
            None => self.vertices.keys().collect(),
        };
        // Batch-estimate up front (one row-seed setup for the whole
        // sweep), unless no estimate can matter.
        let ests = if self.view.may_split() {
            self.view.sketch.estimate_many(&verts)
        } else {
            Vec::new()
        };
        let my_id = self.id;
        let ring = self.locator.ring();
        for (i, &v) in verts.iter().enumerate() {
            // On an empty ring there is nowhere to move anything.
            let Some(primary) = ring.owner(v) else {
                continue;
            };
            // No estimate is below every threshold.
            let est = ests.get(i).copied().unwrap_or(0);
            let k = self.locator.replication_factor(est);
            if k == 1 && primary == my_id {
                continue;
            }
            let Some((e, tally)) = self.vertices.get_mut_and_tally(&v) else {
                continue;
            };
            dests.clear();
            if k == 1 {
                if !e.adj.is_empty() {
                    // Drained, not taken: a leave brings the vertex
                    // back, and its lists' buffers are still here.
                    let edges = &mut bundles.entry(primary).or_default().edges;
                    for side in [Side::Out, Side::In] {
                        let drained = e.adj.drain(side, tally);
                        edges.extend(drained.map(|w| MigEdge::held_by(side, v, w)));
                    }
                    dests.push(primary);
                }
            } else {
                // Place v once: both edge directions of v hash through
                // the same (k, replica-set), so the cache does the ring
                // walk a single time and the per-edge work is one
                // second-hash lookup.
                let locator = &self.locator;
                let placement = self.route_cache.placement(locator, v, || est);
                for side in [Side::Out, Side::In] {
                    e.adj.retain(side, tally, |w| {
                        match locator.owner_from_placement(placement, w) {
                            Some(owner) if owner != my_id => {
                                if !dests.contains(&owner) {
                                    dests.push(owner);
                                }
                                let edge = MigEdge::held_by(side, v, w);
                                bundles.entry(owner).or_default().edges.push(edge);
                                false
                            }
                            _ => true,
                        }
                    });
                }
            }
            if !dests.is_empty() {
                // The replica snapshot travels once per destination,
                // whichever sides moved there.
                let snapshot = MigState {
                    rec: StateRecord {
                        vertex: v,
                        state: e.state,
                        out_degree: e.rep_out_degree,
                        // A delta run's un-scattered pending delta moves
                        // with the edge slice so the new owner pushes it
                        // for the migrated edges (aux == 0 = none).
                        aux: if e.has_pending_delta {
                            e.pending_delta
                        } else {
                            0
                        },
                        active: e.active,
                    },
                    has_state: e.has_state,
                };
                for agent in &dests {
                    bundles.entry(*agent).or_default().states.push(snapshot);
                }
            }
            // The primary meta record moves with primaryship (never on
            // sketch-only changes: the ring did not move) — and so does
            // the async run state (a pending combined partial and its
            // waiting-set progress), which can exist even where no meta
            // record does (messages beat the meta to a previous
            // primary). `has_meta` tells the receiver which parts of
            // the record to adopt.
            let hands_over = !sketch_only
                && primary != my_id
                && (e.is_meta || e.has_ppartial || e.wait_recv > 0 || e.has_residual);
            if hands_over {
                let meta = MetaRecord {
                    vertex: v,
                    state: e.state,
                    out_degree: e.g_out.max(0) as u64,
                    in_degree: e.g_in.max(0) as u64,
                    active: e.active,
                    dirty: e.dirty,
                    has_state: e.has_state,
                    has_meta: e.is_meta,
                    ppartial: e.ppartial,
                    has_ppartial: e.has_ppartial,
                    wait_recv: e.wait_recv,
                    residual: e.residual,
                    has_residual: e.has_residual,
                    snap: e.snap,
                    has_snap: e.has_snap,
                };
                bundles.entry(primary).or_default().metas.push(meta);
                e.is_meta = false;
                e.g_out = 0;
                e.g_in = 0;
                e.dirty = false;
                e.has_ppartial = false;
                e.ppartial = 0;
                e.wait_recv = 0;
                e.residual = 0;
                e.has_residual = false;
            }
            moved += u64::from(hands_over || !dests.is_empty());
            if e.is_empty() {
                self.vertices.remove(&v);
            }
        }
        Swept {
            bundles,
            examined: verts.len() as u64,
            moved,
        }
    }

    /// Re-evaluate the placement of local edges and primary meta
    /// records under the adopted view, forward whatever no longer
    /// belongs here and report to the migrate barrier.
    pub(super) fn migrate(&mut self, epoch: u64, filter: Option<FxHashSet<VertexId>>) {
        self.relocate(filter);
        // Dangling-mass handoff (delta engine): while an async delta
        // run is live the migrate READY carries the cumulative report
        // (the lead folds a departer's final value before dropping its
        // seen entry); a departer outside such a run hands its
        // unreported accumulator over for the lead to carry into the
        // next delta run's Scatter reduce.
        let async_delta = self
            .run
            .as_ref()
            .is_some_and(|r| r.async_live && r.info.delta);
        let contrib = if async_delta {
            self.dangling_report()
        } else if self.departing {
            std::mem::take(&mut self.dangling_acc)
        } else {
            0.0
        };
        if self.departing {
            // The lead folds a departer's last metrics report into the
            // cluster totals when the barrier releases it; make that
            // report include the sends above. Its last degree changes
            // go too. Same push channel as the READY, so both arrive
            // first.
            self.flush_metrics(true);
            self.push_degrees();
        }
        self.send_ready(0, epoch as u32, Phase::Migrate, 0, contrib);
    }

    /// Sweep ([`Agent::sweep`]) and ship what the view places
    /// elsewhere: per destination, snapshots ahead of the edges they
    /// describe, primary meta last, every stream counted and flushed.
    pub(super) fn relocate(&mut self, filter: Option<FxHashSet<VertexId>>) {
        let t0 = Instant::now();
        let Swept {
            bundles,
            examined,
            moved,
        } = self.sweep(filter);
        self.tracer
            .span(EventKind::MigrateSweep, t0, examined, moved);
        let (snap_run, snap_watermark) = (self.snap_run, self.snap_watermark);
        for (agent, bundle) in bundles {
            self.send_mig(agent, &bundle.states, msg::append_mig_states);
            self.send_mig(agent, &bundle.edges, msg::append_mig_edges);
            self.send_mig(agent, &bundle.metas, |out, metas| {
                msg::append_mig_meta(out, snap_run, snap_watermark, metas)
            });
        }
    }

    /// Append `recs` to `agent`'s migration stream as one run, counted
    /// as sent, and close the stream's last frame (the next record kind
    /// or the READY would anyway) so every frame of the stream has left
    /// when the trace says the stream has.
    fn send_mig<T>(
        &mut self,
        agent: AgentId,
        recs: &[T],
        append: impl Fn(&mut CoalescingOutbox, &[T]),
    ) {
        if recs.is_empty() {
            return;
        }
        self.counters.mig_sent += recs.len() as u64;
        self.with_outbox(agent, |out| {
            append(out, recs);
            out.flush();
        });
        self.tracer
            .instant(EventKind::MigrateSend, agent, recs.len() as u64);
    }

    /// Count a migration frame's records as received.
    fn note_mig_recv(&mut self, records: usize) {
        self.counters.mig_recv += records as u64;
        self.tracer
            .instant(EventKind::MigrateRecv, records as u64, 0);
    }

    pub(super) fn on_mig_states(&mut self, frame: Frame) {
        let Some(snaps) = msg::decode_mig_states(&frame) else {
            return;
        };
        self.note_mig_recv(snaps.len());
        for MigState { rec, has_state } in snaps {
            let (e, lists) = self.vertices.entry_and_lists(rec.vertex);
            let listed = e.active || e.has_pending_delta;
            if has_state && !e.has_state {
                e.state = rec.state;
                e.has_state = true;
                e.active = e.active || rec.active;
            }
            if has_state {
                // The snapshot's out-degree is the vertex's global
                // out-degree; adopt it even when the state itself arrived
                // first through a MIG_META (scatter shares divide by it).
                e.rep_out_degree = e.rep_out_degree.max(rec.out_degree);
            }
            if rec.aux != 0 && !e.has_pending_delta {
                // Un-scattered delta moving with the edge slice. If we
                // already hold the same broadcast (has_pending_delta), our
                // copy covers the migrated-in edges too — adopting again
                // would double-push.
                e.pending_delta = rec.aux;
                e.has_pending_delta = true;
            }
            if !listed && (e.active || e.has_pending_delta) {
                lists.scatter.push(rec.vertex);
            }
        }
    }

    pub(super) fn on_mig_edges(&mut self, frame: Frame) {
        let Some(edges) = msg::decode_mig_edges(&frame) else {
            return;
        };
        self.note_mig_recv(edges.len());
        // A sweep emits each vertex's edges back to back, one side
        // after the other: adopt every such run as one.
        let mut rest = edges.iter();
        while let Some(head) = rest.clone().next() {
            let (side, key) = (head.side, head.endpoints().0);
            let run = rest
                .clone()
                .take_while(|r| r.side == side && r.endpoints().0 == key)
                .count();
            let others = rest.by_ref().take(run).map(|r| r.endpoints().1);
            self.insert_edges(side, key, others);
        }
    }

    pub(super) fn on_mig_meta(&mut self, frame: Frame) {
        let Some(msg::MigMetaView {
            snap_run,
            snap_watermark,
            records: metas,
        }) = msg::decode_mig_meta(&frame)
        else {
            return;
        };
        // Adopt the sender's serving-snapshot tag when it is newer:
        // every agent that finished the last run carries the same tag,
        // so this only moves a joiner (tag 0, no snaps of its own yet)
        // up to the tag of the snaps now migrating in.
        if snap_run > self.snap_run {
            self.snap_run = snap_run;
            self.snap_watermark = snap_watermark;
        }
        self.note_mig_recv(metas.len());
        let program = self.run.as_ref().map(|r| r.program.clone());
        // Residuals merge with the residual program's own rule; the
        // armed delta seed covers the between-runs window.
        let merger = program
            .clone()
            .or_else(|| self.delta_seed.as_ref().map(|s| Arc::clone(&s.program)));
        for m in metas {
            let (e, lists) = self.vertices.entry_and_lists(m.vertex);
            let listed = (e.active || e.has_pending_delta, e.wants_apply());
            if m.has_meta {
                e.g_out += m.out_degree as i64;
                e.g_in += m.in_degree as i64;
                e.is_meta = true;
                e.dirty = e.dirty || m.dirty;
            }
            e.active = e.active || m.active;
            if m.has_state {
                e.state = m.state;
                e.has_state = true;
                e.rep_out_degree = e.rep_out_degree.max(m.out_degree);
            }
            if m.has_ppartial {
                // Async run state handoff: fold the sender's pending
                // combined partial into ours (both sides may have
                // collected messages for the same waiting set).
                if e.has_ppartial {
                    if let Some(p) = &program {
                        e.ppartial = p.combine(e.ppartial, m.ppartial);
                    } else {
                        e.ppartial = m.ppartial;
                    }
                } else {
                    e.ppartial = m.ppartial;
                    e.has_ppartial = true;
                }
                e.wait_recv += m.wait_recv;
            }
            if m.has_residual {
                e.residual = if e.has_residual {
                    match &merger {
                        Some(p) => p.merge_residual(e.residual, m.residual),
                        None => (f64::from_bits(e.residual) + f64::from_bits(m.residual)).to_bits(),
                    }
                } else {
                    m.residual
                };
                e.has_residual = true;
                // Merged, it may cross the tolerance: apply looks again.
                lists.apply.push(m.vertex);
            }
            if m.has_snap {
                // Serving snapshot follows primaryship. Both sides can
                // only hold the same completed run's value, so adopt
                // unconditionally.
                e.snap = m.snap;
                e.has_snap = true;
            }
            if !listed.0 && (e.active || e.has_pending_delta) {
                lists.scatter.push(m.vertex);
            }
            if !listed.1 && e.wants_apply() {
                lists.apply.push(m.vertex);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{detached, view, ME};
    use super::*;
    use crate::adjacency::Tally;
    use elga_net::{InProcTransport, SplitMix64};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn vertex_entry_emptiness() {
        let (mut e, mut tally) = (VertexEntry::default(), Tally::default());
        assert!(e.is_empty());
        e.adj.insert(Side::Out, 3, &mut tally);
        assert!(!e.is_empty());
        e.adj.remove(Side::Out, 3, &mut tally);
        assert!(e.is_empty());
        e.is_meta = true;
        assert!(!e.is_empty());
    }

    /// What one destination was sent, in arrival order per kind.
    #[derive(Debug, Default, PartialEq)]
    struct Got {
        states: Vec<MigState>,
        edges: Vec<MigEdge>,
        metas: Vec<MetaRecord>,
    }

    fn drain(transport: &InProcTransport, agent: AgentId) -> Got {
        let mailbox = transport.bind(&agent_addr(agent)).expect("bind");
        let mut got = Got::default();
        while let Ok(Some(d)) = mailbox.try_recv() {
            let f = &d.frame;
            match f.packet_type() {
                packet::MIG_STATE => got
                    .states
                    .extend(msg::decode_mig_states(f).expect("states")),
                packet::MIG_EDGES => got.edges.extend(msg::decode_mig_edges(f).expect("edges")),
                packet::MIG_META => got
                    .metas
                    .extend(msg::decode_mig_meta(f).expect("metas").records),
                other => panic!("packet {other} on a migration stream"),
            }
        }
        got
    }

    /// Every adjacency keeps its invariant, and the store's tally
    /// counts what the lists hold.
    fn assert_indexed(agent: &Agent) {
        let mut held = [0; 2];
        for (_, e) in agent.vertices.iter() {
            e.adj.assert_indexed();
            held[0] += e.adj.out().len();
            held[1] += e.adj.inn().len();
        }
        assert_eq!(agent.vertices.held(), held);
    }

    fn store(agent: &Agent) -> BTreeMap<VertexId, VertexEntry> {
        agent
            .vertices
            .iter()
            .map(|(&v, e)| (v, e.clone()))
            .collect()
    }

    /// A subset of agents 1..=5 drawn from `bits`, never empty.
    fn members(bits: u64) -> Vec<AgentId> {
        let set: Vec<AgentId> = (1..=5).filter(|a| bits >> a & 1 == 1).collect();
        if set.is_empty() {
            vec![2]
        } else {
            set
        }
    }

    proptest! {
        /// The sweep ships and keeps what a model that asks the locator
        /// about every single edge would: same records, same order per
        /// destination, same surviving store, indexes in step — over
        /// random stores, joins, leaves, departures and sketch-only
        /// epochs, with some vertices split.
        #[test]
        fn sweep_matches_a_per_edge_model(
            seed in any::<u64>(),
            old_bits in 0u64..64,
            new_bits in 0u64..64,
            same_membership in 0u8..4,
            n_hubs in 0usize..4,
        ) {
            let mut rng = SplitMix64::new(seed);
            let old_members = members(old_bits | 1 << ME);
            let new_members = if same_membership == 0 {
                old_members.clone()
            } else {
                members(new_bits)
            };
            let sketch_only = old_members == new_members;
            let hubs: Vec<VertexId> = (0..n_hubs).map(|_| rng.below(40)).collect();
            let old_hubs = &hubs[..rng.below(hubs.len() as u64 + 1) as usize];
            let old = view(1, &old_members, old_hubs);
            let new = view(2, &new_members, &hubs);
            let (old_loc, new_loc) = (old.locator(), new.locator());

            // A store as the old view leaves it (every edge where the
            // old placement puts it) — plus, when the membership moves,
            // strays the sweep must place like anything else.
            let (transport, mut agent) = detached(old.clone());
            for _ in 0..rng.below(400) {
                let (u, v) = (rng.below(40), rng.below(40));
                let stray = !sketch_only && rng.below(16) == 0;
                if stray || old_loc.owner_of_edge(u, v, old.sketch.estimate(u)) == Some(ME) {
                    agent.insert_out_edge(u, v);
                }
                if stray || old_loc.owner_of_edge(v, u, old.sketch.estimate(v)) == Some(ME) {
                    agent.insert_in_edge(u, v);
                }
            }
            // Hub lists long enough to carry an index into the sweep.
            for &h in &hubs {
                for w in 40..40 + rng.below(120) {
                    if old_loc.owner_of_edge(h, w, old.sketch.estimate(h)) == Some(ME) {
                        agent.insert_out_edge(h, w);
                        agent.insert_in_edge(w, h);
                    }
                }
            }
            for v in 0..40 {
                let r = rng.next_u64();
                if r & 3 == 0 && agent.vertices.get(&v).is_none() {
                    continue;
                }
                let e = agent.vertices.entry_or_default(v);
                (e.state, e.has_state, e.active) = (r >> 8, r & 4 != 0, r & 8 != 0);
                (e.rep_out_degree, e.snap, e.has_snap) = (r % 7, r >> 9, r & 16 != 0);
                (e.pending_delta, e.has_pending_delta) = (r >> 10 | 1, r & 32 != 0);
                if old_loc.ring().owner(v) == Some(ME) || r & 64 != 0 {
                    (e.is_meta, e.dirty) = (true, r & 128 != 0);
                    (e.g_out, e.g_in) = ((r % 5) as i64, (r % 3) as i64);
                }
                (e.ppartial, e.has_ppartial, e.wait_recv) = (r >> 11, r & 256 != 0, r >> 12 & 1);
                (e.residual, e.has_residual) = (r >> 13, r & 512 != 0);
                if e.is_empty() {
                    agent.vertices.remove(&v);
                }
            }
            assert_indexed(&agent);

            // The model: every resident entry, in store order, edge by
            // edge through `EdgeLocator::owner_of_edge`.
            let mut want: BTreeMap<AgentId, Got> = BTreeMap::new();
            let mut keep = store(&agent);
            let mut tally = Tally::default();
            // A sketch-only epoch re-places the vertices whose `k` it
            // changed, in the order the set of them iterates.
            let k_moved = |&v: &VertexId| {
                let k_old = old_loc.replication_factor(old.sketch.estimate(v));
                k_old != new_loc.replication_factor(new.sketch.estimate(v))
            };
            let order: Vec<VertexId> = if sketch_only {
                let changed: FxHashSet<VertexId> = agent.vertices.keys().filter(k_moved).collect();
                changed.into_iter().collect()
            } else {
                agent.vertices.keys().collect()
            };
            for v in order {
                let est = new.sketch.estimate(v);
                let e = keep.get_mut(&v).expect("resident");
                let mut dests: Vec<AgentId> = Vec::new();
                // Each list in order; the survivors keep theirs.
                let mut kept = Adjacency::default();
                for (side, held) in [(Side::Out, e.adj.out()), (Side::In, e.adj.inn())] {
                    for &other in held {
                        let owner = new_loc.owner_of_edge(v, other, est).expect("ring");
                        if owner == ME {
                            kept.insert(side, other, &mut tally);
                            continue;
                        }
                        if !dests.contains(&owner) {
                            dests.push(owner);
                        }
                        let edge = MigEdge::held_by(side, v, other);
                        want.entry(owner).or_default().edges.push(edge);
                    }
                }
                e.adj = kept;
                let aux = if e.has_pending_delta { e.pending_delta } else { 0 };
                let (vertex, state, active, has_state) = (v, e.state, e.active, e.has_state);
                let rec = StateRecord { vertex, state, out_degree: e.rep_out_degree, aux, active };
                for d in dests {
                    want.entry(d).or_default().states.push(MigState { rec, has_state });
                }
                let primary = new_loc.ring().owner(v).expect("ring");
                let parked = e.has_ppartial || e.wait_recv > 0 || e.has_residual;
                if !sketch_only && primary != ME && (e.is_meta || parked) {
                    want.entry(primary).or_default().metas.push(MetaRecord {
                        vertex,
                        state,
                        out_degree: e.g_out as u64,
                        in_degree: e.g_in as u64,
                        active,
                        dirty: e.dirty,
                        has_state,
                        has_meta: e.is_meta,
                        ppartial: e.ppartial,
                        has_ppartial: e.has_ppartial,
                        wait_recv: e.wait_recv,
                        residual: e.residual,
                        has_residual: e.has_residual,
                        snap: e.snap,
                        has_snap: e.has_snap,
                    });
                    let survives = VertexEntry {
                        adj: std::mem::take(&mut e.adj),
                        ..VertexEntry::default()
                    };
                    *e = VertexEntry {
                        state,
                        has_state,
                        active,
                        rep_out_degree: e.rep_out_degree,
                        pending_delta: e.pending_delta,
                        has_pending_delta: e.has_pending_delta,
                        snap: e.snap,
                        has_snap: e.has_snap,
                        ..survives
                    };
                }
                if e.is_empty() {
                    keep.remove(&v);
                }
            }

            agent.on_view(new.clone());

            for &d in new_members.iter().filter(|&&d| d != ME) {
                let got = drain(&transport, d);
                prop_assert_eq!(&got, &want.remove(&d).unwrap_or_default(), "to agent {}", d);
            }
            prop_assert!(want.is_empty(), "records for agents off the view: {want:?}");
            let kept = store(&agent);
            for v in 0..40 {
                prop_assert_eq!(kept.get(&v), keep.get(&v), "entry of vertex {}", v);
            }
            assert_indexed(&agent);
        }

        /// MIG_EDGES adoption does not depend on framing: the same
        /// records one frame each, or all in one frame, or cut anywhere
        /// in between, leave the same adjacency order and index maps,
        /// and turn away the same duplicates.
        #[test]
        fn edge_adoption_is_framing_independent(
            picks in prop::collection::vec((0u64..6, 0u64..12, any::<bool>(), 1usize..6), 1..60),
            cuts in prop::collection::vec(1usize..9, 1..8),
        ) {
            // Runs as a sweep emits them (a vertex's edges on one side,
            // back to back), with repeats inside and across runs.
            let mut records: Vec<MigEdge> = Vec::new();
            for (key, other, out, len) in picks {
                let side = if out { Side::Out } else { Side::In };
                records.extend((0..len as u64).map(|i| MigEdge::held_by(side, key, (other + i * i) % 12)));
            }
            let adopt = |frames: &mut dyn Iterator<Item = &[MigEdge]>| {
                let (transport, mut agent) = detached(view(1, &[ME], &[]));
                let to_me = transport.sender(&agent_addr(ME)).expect("sender");
                let mut out = CoalescingOutbox::new(to_me, CoalesceConfig::default());
                for frame in frames {
                    msg::append_mig_edges(&mut out, frame);
                    out.flush();
                }
                while let Ok(Some(d)) = agent.mailbox.try_recv() {
                    prop_assert!(agent.handle(d));
                }
                assert_indexed(&agent);
                prop_assert_eq!(agent.counters.mig_recv, records.len() as u64);
                (store(&agent), agent.vertices.held())
            };
            let one_each = adopt(&mut records.chunks(1));
            let whole = adopt(&mut std::iter::once(&records[..]));
            let mut rest = &records[..];
            let mut sizes = cuts.iter().cycle();
            let ragged = adopt(&mut std::iter::from_fn(|| {
                let n = (*sizes.next()?).min(rest.len());
                let (frame, tail) = rest.split_at(n);
                rest = tail;
                (n > 0).then_some(frame)
            }));
            prop_assert_eq!(&one_each, &whole);
            prop_assert_eq!(&one_each, &ragged);
            // The per-record reference: first occurrence wins.
            let mut want: BTreeMap<VertexId, [Vec<VertexId>; 2]> = BTreeMap::new();
            for r in &records {
                let (key, other) = r.endpoints();
                let list = &mut want.entry(key).or_default()[usize::from(r.side == Side::In)];
                if !list.contains(&other) {
                    list.push(other);
                }
            }
            let lists: BTreeMap<VertexId, [Vec<VertexId>; 2]> = one_each
                .0
                .iter()
                .map(|(&v, e)| (v, [e.adj.out().to_vec(), e.adj.inn().to_vec()]))
                .collect();
            prop_assert_eq!(lists, want);
        }
    }
}
