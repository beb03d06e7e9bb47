//! Elasticity: view adoption and edge/meta migration (§3.4.3).

use super::*;

/// Edges grouped by destination agent during migration.
type MovedEdges = FxHashMap<AgentId, Vec<(VertexId, VertexId)>>;

/// One migration bundle entry: placement side, the sender's replica
/// snapshot of the vertex (plus whether the state is initialized), and
/// the edges moving with it.
type VertexEdgeBundle = (Side, StateRecord, bool, Vec<(VertexId, VertexId)>);

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
        #[derive(Default)]
        struct Bundle {
            metas: Vec<MetaRecord>,
            vertex_edges: Vec<VertexEdgeBundle>,
        }
        let mut bundles: FxHashMap<AgentId, Bundle> = FxHashMap::default();

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
            let (mut moved_out, mut moved_in): (MovedEdges, MovedEdges) =
                (MovedEdges::default(), MovedEdges::default());
            let rebuild = {
                let locator = &self.locator;
                let placement = self.route_cache.placement(locator, v, || est);
                let my_id = self.id;
                let e = self.vertices.get_mut(&v).expect("exists");
                let before = (e.out.len(), e.inn.len());
                e.out
                    .retain(|&w| match locator.owner_from_placement(placement, w) {
                        Some(owner) if owner != my_id => {
                            moved_out.entry(owner).or_default().push((v, w));
                            false
                        }
                        _ => true,
                    });
                e.inn
                    .retain(|&u| match locator.owner_from_placement(placement, u) {
                        Some(owner) if owner != my_id => {
                            moved_in.entry(owner).or_default().push((u, v));
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
            let snapshot = {
                let e = self.vertices.get(&v).expect("exists");
                (
                    StateRecord {
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
                    e.has_state,
                )
            };
            for (agent, edges) in moved_out {
                for &(a, b) in &edges {
                    self.out_pos.remove(&(a, b));
                }
                bundles.entry(agent).or_default().vertex_edges.push((
                    Side::Out,
                    snapshot.0,
                    snapshot.1,
                    edges,
                ));
            }
            for (agent, edges) in moved_in {
                for &(a, b) in &edges {
                    self.in_pos.remove(&(a, b));
                }
                bundles.entry(agent).or_default().vertex_edges.push((
                    Side::In,
                    snapshot.0,
                    snapshot.1,
                    edges,
                ));
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
                // g_in travels via a degree delta piggybacked in the
                // meta record's move: encode as a second meta with the
                // in-degree is ugly; instead extend: reuse out_degree
                // for out and send g_in through a deg delta.
                if let Some(new_primary) = self.locator.ring().owner(v) {
                    let b = bundles.entry(new_primary).or_default();
                    b.metas.push(meta);
                    // Move the in-degree alongside.
                    let g_in = e.g_in;
                    if g_in != 0 {
                        b.vertex_edges.push((
                            Side::Out,
                            StateRecord {
                                vertex: v,
                                state: g_in as u64,
                                out_degree: 0,
                                aux: 0,
                                active: false,
                            },
                            false,
                            Vec::new(),
                        ));
                    }
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
        // Ship the bundles. Migration frames are one-shot encodes, not
        // record-coalesced; they still leave through the coalescing
        // outboxes so ordering against in-flight appends holds.
        for (agent, bundle) in bundles {
            if self.tracer.enabled() {
                let records = bundle.metas.len() as u64
                    + bundle
                        .vertex_edges
                        .iter()
                        .map(|(_, _, _, edges)| edges.len() as u64 + 1)
                        .sum::<u64>();
                self.tracer.instant(EventKind::MigrateSend, agent, records);
            }
            if !bundle.metas.is_empty() {
                for chunk in bundle.metas.chunks(BATCH) {
                    self.counters.mig_sent += chunk.len() as u64;
                    let frame = msg::encode_mig_meta(chunk, self.snap_run, self.snap_watermark);
                    self.push_to(agent, frame);
                }
            }
            for (side, snap, has_state, edges) in bundle.vertex_edges {
                self.counters.mig_sent += edges.len() as u64 + 1;
                let frame = encode_mig_edges(side, &snap, has_state, &edges);
                self.push_to(agent, frame);
            }
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

    pub(super) fn on_mig_edges(&mut self, frame: Frame) {
        let Some((side, snap, has_state, g_in_delta, edges)) = decode_mig_edges(&frame) else {
            return;
        };
        self.counters.mig_recv += edges.len() as u64 + 1;
        self.tracer
            .instant(EventKind::MigrateRecv, edges.len() as u64 + 1, 0);
        let v = snap.vertex;
        let e = self.vertices.entry_or_default(v);
        if g_in_delta != 0 {
            // In-degree handoff piggybacking a meta move.
            e.g_in += g_in_delta;
            e.is_meta = e.g_out > 0 || e.g_in > 0;
        }
        if has_state && !e.has_state {
            e.state = snap.state;
            e.has_state = true;
            e.active = e.active || snap.active;
        }
        if has_state {
            // The snapshot's out-degree is the vertex's global
            // out-degree; adopt it even when the state itself arrived
            // first through a MIG_META (scatter shares divide by it).
            e.rep_out_degree = e.rep_out_degree.max(snap.out_degree);
        }
        if snap.aux != 0 && !e.has_pending_delta {
            // Un-scattered delta moving with the edge slice. If we
            // already hold the same broadcast (has_pending_delta), our
            // copy covers the migrated-in edges too — adopting again
            // would double-push.
            e.pending_delta = snap.aux;
            e.has_pending_delta = true;
        }
        match side {
            Side::Out => {
                for (a, b) in edges {
                    self.insert_out_edge(a, b);
                }
            }
            Side::In => {
                for (a, b) in edges {
                    self.insert_in_edge(a, b);
                }
            }
        }
        self.metrics.edges = self.out_pos.len() as u64;
        self.invalidate_worklists();
        self.re_report();
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
        self.counters.mig_recv += metas.len() as u64;
        self.tracer
            .instant(EventKind::MigrateRecv, metas.len() as u64, 0);
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
        self.re_report();
    }
}

/// MIG_EDGES wire format: side, vertex snapshot (with optional state),
/// a piggybacked in-degree delta for meta moves, and the edges.
fn encode_mig_edges(
    side: Side,
    snap: &StateRecord,
    has_state: bool,
    edges: &[(VertexId, VertexId)],
) -> Frame {
    let mut b = Frame::builder(packet::MIG_EDGES)
        .u8(match side {
            Side::Out => 0,
            Side::In => 1,
        })
        .u64(snap.vertex)
        .u64(snap.state)
        .u64(snap.out_degree)
        .u64(snap.aux)
        .u8(snap.active as u8)
        .u8(has_state as u8)
        .u64(if edges.is_empty() && !has_state {
            // The "g_in handoff" encoding: state field carries the
            // delta; flag it via this marker.
            snap.state
        } else {
            0
        })
        .u32(edges.len() as u32);
    for &(x, y) in edges {
        b = b.u64(x).u64(y);
    }
    b.finish()
}

type DecodedMigEdges = (Side, StateRecord, bool, i64, Vec<(VertexId, VertexId)>);

fn decode_mig_edges(frame: &Frame) -> Option<DecodedMigEdges> {
    let mut r = frame.reader();
    let side = match r.u8()? {
        0 => Side::Out,
        1 => Side::In,
        _ => return None,
    };
    let vertex = r.u64()?;
    let state = r.u64()?;
    let out_degree = r.u64()?;
    let aux = r.u64()?;
    let active = r.u8()? != 0;
    let has_state = r.u8()? != 0;
    let g_in_delta = r.u64()? as i64;
    let n = r.u32()? as usize;
    let mut edges = Vec::with_capacity(n.min(r.remaining() / 16));
    for _ in 0..n {
        edges.push((r.u64()?, r.u64()?));
    }
    Some((
        side,
        StateRecord {
            vertex,
            state,
            out_degree,
            aux,
            active,
        },
        has_state,
        g_in_delta,
        edges,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mig_edges_roundtrip() {
        let snap = StateRecord {
            vertex: 5,
            state: 42,
            out_degree: 3,
            aux: 0.25f64.to_bits(),
            active: true,
        };
        let edges = vec![(5u64, 6u64), (5, 7)];
        let f = encode_mig_edges(Side::Out, &snap, true, &edges);
        let (side, s2, has_state, g_in, e2) = decode_mig_edges(&f).unwrap();
        assert_eq!(side, Side::Out);
        assert_eq!(s2, snap);
        assert!(has_state);
        assert_eq!(g_in, 0);
        assert_eq!(e2, edges);
    }

    #[test]
    fn mig_edges_g_in_handoff() {
        let snap = StateRecord {
            vertex: 9,
            state: 7, // the in-degree delta
            out_degree: 0,
            aux: 0,
            active: false,
        };
        let f = encode_mig_edges(Side::Out, &snap, false, &[]);
        let (_, _, has_state, g_in, edges) = decode_mig_edges(&f).unwrap();
        assert!(!has_state);
        assert_eq!(g_in, 7);
        assert!(edges.is_empty());
    }

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
