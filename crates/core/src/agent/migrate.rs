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

impl Agent {
    pub(super) fn on_view(&mut self, view: DirectoryView) {
        if view.epoch < self.view.epoch || view.epoch <= self.migrated_epoch {
            return;
        }
        let epoch = view.epoch;
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
        self.view = view;
        self.locator = self.view.locator();
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
        }
        self.migrated_epoch = epoch;
        // Placement moved: entries leave and arrive in bulk, and the
        // set of primaries changes with them.
        self.invalidate_worklists();
        self.migrate(epoch, filter);
    }

    /// Re-evaluate the placement of local edges and primary meta
    /// records; forward whatever no longer belongs here (§3.4.3). With
    /// `filter = Some(vs)`, only the placements of the given vertices
    /// are re-evaluated (sketch-only view changes) and primary meta
    /// never moves (the ring is unchanged).
    pub(super) fn migrate(&mut self, epoch: u64, filter: Option<FxHashSet<VertexId>>) {
        let mut bundles: FxHashMap<AgentId, Bundle> = FxHashMap::default();
        // Destinations of the vertex at hand (a handful at most).
        let mut dests: Vec<AgentId> = Vec::new();

        let verts: Vec<VertexId> = match &filter {
            Some(set) => set.iter().copied().collect(),
            None => self.vertices.keys().collect(),
        };
        let sketch_only = filter.is_some();
        self.route_cache.ensure_epoch(self.view.epoch);
        // Batch-estimate every vertex up front: one row-seed setup for
        // the whole sweep instead of per-vertex.
        let ests = self.view.sketch.estimate_many(&verts);
        for (v, est) in verts.into_iter().zip(ests) {
            if !self.vertices.contains_key(&v) {
                continue;
            }
            // Place v once per retain sweep: both edge directions of v
            // hash through the same (k, replica-set), so the cache does
            // the ring walk a single time and the per-edge work is one
            // second-hash lookup.
            dests.clear();
            let rebuild = {
                let locator = &self.locator;
                let placement = self.route_cache.placement(locator, v, || est);
                let my_id = self.id;
                let (out_pos, in_pos) = (&mut self.out_pos, &mut self.in_pos);
                let e = self.vertices.get_mut(&v).expect("exists");
                let before = (e.out.len(), e.inn.len());
                let mut moved = |owner: AgentId, side: Side, src: VertexId, dst: VertexId| {
                    if !dests.contains(&owner) {
                        dests.push(owner);
                    }
                    let edge = MigEdge { side, src, dst };
                    bundles.entry(owner).or_default().edges.push(edge);
                };
                e.out
                    .retain(|&w| match locator.owner_from_placement(placement, w) {
                        Some(owner) if owner != my_id => {
                            out_pos.remove(&(v, w));
                            moved(owner, Side::Out, v, w);
                            false
                        }
                        _ => true,
                    });
                e.inn
                    .retain(|&u| match locator.owner_from_placement(placement, u) {
                        Some(owner) if owner != my_id => {
                            in_pos.remove(&(u, v));
                            moved(owner, Side::In, u, v);
                            false
                        }
                        _ => true,
                    });
                (before.0 != e.out.len(), before.1 != e.inn.len())
            };
            // Retain compacts the adjacency vectors, so the surviving
            // edges' position indices must be rebuilt.
            if rebuild.0 || rebuild.1 {
                let e = self.vertices.get(&v).expect("exists");
                if rebuild.0 {
                    for (i, &w) in e.out.iter().enumerate() {
                        self.out_pos.insert((v, w), i as u32);
                    }
                }
                if rebuild.1 {
                    for (i, &u) in e.inn.iter().enumerate() {
                        self.in_pos.insert((u, v), i as u32);
                    }
                }
            }
            if !dests.is_empty() {
                // The replica snapshot travels once per destination,
                // whichever sides moved there.
                let e = self.vertices.get(&v).expect("exists");
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
            // Primary meta handoff (never needed on sketch-only
            // changes: the ring did not move).
            if sketch_only {
                if self.vertices.get(&v).is_some_and(|e| e.is_empty()) {
                    self.vertices.remove(&v);
                }
                continue;
            }
            let is_primary_now = self.is_primary(v);
            let e = self.vertices.get_mut(&v).expect("exists");
            // The primary meta record moves with primaryship — and so
            // does the async run state (a pending combined partial and
            // its waiting-set progress), which can exist even where no
            // meta record does (messages beat the meta to a previous
            // primary). `has_meta` tells the receiver which parts of
            // the record to adopt.
            if (e.is_meta || e.has_ppartial || e.wait_recv > 0 || e.has_residual) && !is_primary_now
            {
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
                if let Some(new_primary) = self.locator.ring().owner(v) {
                    bundles.entry(new_primary).or_default().metas.push(meta);
                }
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
            if self.vertices.get(&v).is_some_and(|e| e.is_empty()) {
                self.vertices.remove(&v);
            }
        }
        // Ship the bundles: per destination, snapshots ahead of the
        // edges they describe, primary meta last. Whatever the size
        // threshold left open leaves with the migrate READY below.
        let (snap_run, snap_watermark) = (self.snap_run, self.snap_watermark);
        for (agent, bundle) in bundles {
            self.send_mig(agent, &bundle.states, msg::append_mig_states);
            self.send_mig(agent, &bundle.edges, msg::append_mig_edges);
            self.send_mig(agent, &bundle.metas, |out, metas| {
                msg::append_mig_meta(out, snap_run, snap_watermark, metas)
            });
        }
        self.metrics.edges = self.out_pos.len() as u64;
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
            // report include the sends above. Same push channel as the
            // READY, so it arrives first.
            self.flush_metrics(true);
        }
        self.send_ready(0, epoch as u32, Phase::Migrate, 0, contrib);
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
            let e = self.vertices.entry_or_default(rec.vertex);
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
        }
        self.invalidate_worklists();
    }

    pub(super) fn on_mig_edges(&mut self, frame: Frame) {
        let Some(edges) = msg::decode_mig_edges(&frame) else {
            return;
        };
        self.note_mig_recv(edges.len());
        for MigEdge { side, src, dst } in edges {
            match side {
                Side::Out => self.insert_out_edge(src, dst),
                Side::In => self.insert_in_edge(src, dst),
            };
        }
        self.metrics.edges = self.out_pos.len() as u64;
        self.invalidate_worklists();
    }

    pub(super) fn on_mig_meta(&mut self, frame: Frame) {
        let Some((snap_run, snap_watermark, metas)) = msg::decode_mig_meta(&frame) else {
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
                    lists.apply.push(m.vertex);
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
            }
            if m.has_snap {
                // Serving snapshot follows primaryship. Both sides can
                // only hold the same completed run's value, so adopt
                // unconditionally.
                e.snap = m.snap;
                e.has_snap = true;
            }
        }
        self.invalidate_worklists();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_entry_emptiness() {
        let mut e = VertexEntry::default();
        assert!(e.is_empty());
        e.out.push(3);
        assert!(!e.is_empty());
        e.out.clear();
        e.is_meta = true;
        assert!(!e.is_empty());
    }
}
