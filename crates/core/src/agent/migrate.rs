//! Elasticity: view adoption and vertex migration (§3.4.3), and both
//! ends of the MIG_VERTEX record a checkpoint shard shares:
//! [`vertex_record`] and [`Agent::merge_records`].

use super::*;
use msg::{MigMeta, MigVertex, WireRecord};

/// The MIG_VERTEX frames of one sweep to one destination, or of one
/// checkpoint shard, each vertex written straight from its lists. A
/// frame closes before the record that would take it past `max_bytes`,
/// so no record straddles two frames; lists longer than a fresh frame
/// holds are cut across consecutive records of their vertex, the meta
/// riding the last.
#[derive(Default)]
pub(super) struct MigFrames {
    /// The frames' head: the serving-snapshot tag and the sender.
    head: (u64, u64, AgentId),
    max_bytes: usize,
    open: Option<msg::OpenFrame<MigVertex>>,
    pub(super) frames: Vec<Frame>,
    records: u64,
}

/// The record `v`'s entry `e` moves or is saved with: the head, which is
/// the replica snapshot (state, out-degree, active flag, pending delta);
/// the meta, which is what lives only at the primary (the global
/// degrees, signed, and the run state); and the head flags that say
/// which parts of that meta hold something.
pub(super) fn vertex_record(v: VertexId, e: &VertexEntry) -> (MigVertex, MigMeta, u8) {
    let flag = |set: bool, bit: u8| if set { bit } else { 0 };
    let head = MigVertex {
        vertex: v,
        flags: flag(e.has_state, MigVertex::HAS_STATE) | flag(e.active, MigVertex::ACTIVE),
        state: e.state,
        out_degree: e.rep_out_degree,
        aux: if e.has_pending_delta {
            e.pending_delta
        } else {
            0
        },
        ..MigVertex::default()
    };
    let meta = MigMeta {
        out_degree: e.g_out as u64,
        in_degree: e.g_in as u64,
        ppartial: e.ppartial,
        wait_recv: e.wait_recv,
        residual: e.residual,
        snap: e.snap,
    };
    let flags = flag(e.is_meta, MigVertex::IS_META)
        | flag(e.dirty, MigVertex::DIRTY)
        | flag(e.has_ppartial, MigVertex::HAS_PPARTIAL)
        | flag(e.has_residual, MigVertex::HAS_RESIDUAL)
        | flag(e.has_snap, MigVertex::HAS_SNAP);
    (head, meta, flags)
}

impl MigFrames {
    /// Frames of sender `head.2` under its serving-snapshot tag, closed
    /// at the outboxes' `max_bytes`.
    pub(super) fn new(head: (u64, u64, AgentId)) -> Self {
        let max_bytes = CoalesceConfig::default().max_bytes;
        MigFrames {
            head,
            max_bytes,
            ..MigFrames::default()
        }
    }

    /// Write one moving vertex: the snapshot in `head` (the list lengths
    /// and [`MigVertex::META`] are set here), the `meta` when its
    /// primaryship moves too, and the far endpoints of the out- and
    /// in-edges that go.
    pub(super) fn push(
        &mut self,
        head: MigVertex,
        meta: Option<&MigMeta>,
        out: &[VertexId],
        inn: &[VertexId],
    ) {
        let meta_len = if meta.is_some() { MigMeta::STRIDE } else { 0 };
        let (mut out, mut inn) = (out, inn);
        loop {
            let whole = MigVertex::STRIDE + meta_len + 8 * (out.len() + inn.len());
            // Close the open frame (it holds a record) this one would overfill.
            let (max, (run, watermark, from)) = (self.max_bytes, self.head);
            if self.open.as_ref().is_some_and(|f| f.size() + whole > max) {
                self.close();
            }
            let open = || msg::open_mig_vertex(run, watermark, from);
            let frame = self.open.get_or_insert_with(open);
            let used = frame.size() + MigVertex::STRIDE + meta_len;
            let room = (max.saturating_sub(used) / 8).max(1);
            let n_out = out.len().min(room);
            let n_in = inn.len().min(room - n_out);
            let last = (n_out, n_in) == (out.len(), inn.len());
            let meta = meta.filter(|_| last);
            let rec = MigVertex {
                flags: head.flags & !MigVertex::META | meta.map_or(0, |_| MigVertex::META),
                n_out: n_out as u32,
                n_in: n_in as u32,
                ..head
            };
            let ids = out[..n_out].iter().chain(&inn[..n_in]);
            frame.push(&rec, |tail| MigVertex::write_tail(tail, meta, ids));
            self.records += 1;
            if last {
                return;
            }
            (out, inn) = (&out[n_out..], &inn[n_in..]);
        }
    }

    pub(super) fn close(&mut self) {
        if let Some(frame) = self.open.take() {
            self.frames.push(frame.finish());
        }
    }
}

/// Which entries a placement sweep decides ([`Agent::sweep`]). The
/// listed strays a membership change takes ([`Agent::take_strays`])
/// ride along, in store order, each with whether the ring before the
/// change placed it here.
pub(super) enum Sweep {
    /// Every resident entry.
    All(Vec<(VertexId, bool)>),
    /// A sketch-only epoch's: the entries whose replication factor it
    /// changed.
    Moved(FxHashSet<VertexId>),
    /// A shrink's survivor's ([`survives_a_shrink`]): the strays alone.
    Strays(Vec<(VertexId, bool)>),
}

/// Whether `me` stays in `new`, whose members are some of `old`'s and
/// fewer, and neither view can split a vertex: then the ring only adds
/// arcs to `me`, so what `old` placed here `new` does too.
fn survives_a_shrink(old: &DirectoryView, new: &DirectoryView, me: AgentId) -> bool {
    new.agents.len() < old.agents.len()
        && new.agents.iter().all(|a| old.addr_of(a.id).is_some())
        && new.addr_of(me).is_some()
        && !old.may_split()
        && !new.may_split()
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
        // A peer gone before this view left the lead's table when the
        // barrier that released it balanced its channels.
        let known = |p: &AgentId| self.view.addr_of(*p).is_some() || view.addr_of(*p).is_some();
        self.channels.retain(|p, _| known(p));
        self.told.retain(|p, _| known(p));
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
        let ring_same =
            self.view.hash == view.hash && self.view.virtual_agents == view.virtual_agents;
        let scope = if ring_same
            && self.view.agents == view.agents
            && self.view.replication_threshold == view.replication_threshold
            && self.view.max_replicas == view.max_replicas
            && !self.departing
        {
            // A sketch-only update (same membership, same ring
            // parameters) cannot move primaries or k=1 placements: only
            // vertices whose replication factor changed need
            // re-placement. This keeps the per-batch cost proportional
            // to affected vertices, not edges (§3.4.3's "graph changes
            // enough to impact load balancing").
            let k =
                |sketch: &CountMinSketch, v| self.locator.replication_factor(sketch.estimate(v));
            let moved = |&v: &VertexId| k(&self.view.sketch, v) != k(&view.sketch, v);
            Sweep::Moved(self.vertices.keys().filter(moved).collect())
        } else if ring_same && survives_a_shrink(&self.view, &view, self.id) {
            // A leave's survivor only gains arcs (§3.4.2): what the old
            // ring placed here the new one does too, and with nothing
            // split under either view every placement is the ring's.
            // Only a stray can have to move.
            Sweep::Strays(self.take_strays())
        } else {
            Sweep::All(self.take_strays())
        };
        self.adopt_view(view);
        self.tracer
            .instant(EventKind::ViewAdopt, epoch, self.view.agents.len() as u64);
        if !matches!(scope, Sweep::Moved(_)) {
            // Membership changed: the cached senders' addresses are
            // stale. Flush what they hold (the old peers are still
            // alive and will forward) before dropping them.
            self.flush_outboxes();
            let retired = self.outboxes.discard() as u64;
            self.tracer.instant(EventKind::ViewRetire, epoch, retired);
        }
        if !self.departing && self.view.addr_of(self.id).is_none() {
            self.departing = true;
        }
        if let Some(run) = self.run.as_mut().filter(|r| r.async_live) {
            // A view change landed mid-async-run. Pause: suppress idle
            // reports (the directory's migrate barrier is the one
            // consuming READYs now) while frames keep flowing under the
            // adopted view. The directory re-publishes the async
            // advance once the barrier settles; that resume re-scatters
            // the surviving frontier.
            run.paused = true;
        }
        self.migrated_epoch = epoch;
        self.migrate(epoch, scope);
    }

    /// The listed strays ([`VertexStore::take_strays`]), each with
    /// whether the adopted ring places it here.
    pub(super) fn take_strays(&mut self) -> Vec<(VertexId, bool)> {
        let strays = self.vertices.take_strays();
        strays
            .into_iter()
            .map(|v| (v, self.is_primary(v)))
            .collect()
    }

    /// Decide, vertex by vertex, what of `scope` no longer belongs here
    /// under the adopted view, take it out of the store and hand it to
    /// its destination's outbox, each MIG_VERTEX frame as soon as it
    /// closes (§3.4.3); on a sketch-only change primary meta never
    /// moves (the ring is unchanged). Keeps [`Agent::primaries`] and
    /// returns the records sent by destination, then the entries whose
    /// placement was decided and those that shipped an edge or their
    /// primary record.
    ///
    /// The rule is per vertex. With replication factor 1 a vertex's
    /// every edge and its primary record belong at its ring successor:
    /// one ring lookup, and either the entry is not touched or all of
    /// it goes to that one agent as one record, its lists copied whole.
    /// Only a split vertex (`k > 1`) has its edges placed one by one.
    /// The sketch's bound is consulted for one thing: when it proves
    /// every `k` is 1, no estimate is computed.
    fn sweep(&mut self, scope: Sweep) -> (FxHashMap<AgentId, u64>, u64, u64) {
        let mut frames: FxHashMap<AgentId, MigFrames> = FxHashMap::default();
        let head = (self.snap_run, self.snap_watermark, self.id);
        let new = || MigFrames::new(head);
        // A split vertex's moving edges, by destination.
        let mut split: Vec<(AgentId, [Vec<VertexId>; 2])> = Vec::new();
        let mut moved = 0;

        let (verts, mut strays, ring_moved): (Vec<VertexId>, _, _) = match scope {
            Sweep::All(strays) => (self.vertices.keys().collect(), strays, true),
            Sweep::Moved(set) => (set.into_iter().collect(), Vec::new(), false),
            Sweep::Strays(strays) => (strays.iter().map(|&(v, _)| v).collect(), strays, true),
        };
        // Where the ring moved, the primary count moves by what the
        // sweep changes of it. A meta held before is counted if the old
        // ring placed it here, which an entry no stray list holds is
        // known to be: a meta arriving anywhere else is listed.
        strays.sort_unstable();
        let counted_before = |v, is_meta| {
            let listed = strays.binary_search_by_key(&v, |&(s, _)| s);
            ring_moved && is_meta && listed.map_or(true, |at| strays[at].1)
        };
        let mut primaries = 0i64;
        // Batch-estimate up front (one row-seed setup for the whole
        // sweep), unless no estimate can matter.
        let ests = if self.view.may_split() {
            self.view.sketch.estimate_many(&verts)
        } else {
            Vec::new()
        };
        let my_id = self.id;
        let ring = self.locator.ring();
        let (outboxes, view) = (&mut self.outboxes, &self.view);
        let retries = &mut self.metrics.retries_attempted;
        let mut ship = |agent: AgentId, to: &mut MigFrames| {
            for frame in to.frames.drain(..) {
                *retries += outboxes.with(agent, view, |out| out.send(frame));
            }
        };
        for (i, &v) in verts.iter().enumerate() {
            // On an empty ring there is nowhere to move anything.
            let Some(primary) = ring.owner(v) else {
                continue;
            };
            // No estimate is below every threshold.
            let est = ests.get(i).copied().unwrap_or(0);
            let k = self.locator.replication_factor(est);
            if k == 1 && primary == my_id {
                // Kept as it is: only a stray's meta can be newly counted.
                if ring_moved && !counted_before(v, true) {
                    let meta = self.vertices.get(&v).is_some_and(|e| e.is_meta);
                    primaries += i64::from(meta);
                }
                continue;
            }
            let Some((e, tally)) = self.vertices.get_mut_and_tally(&v) else {
                continue;
            };
            primaries -= i64::from(counted_before(v, e.is_meta));
            // The primary meta moves with primaryship (never on
            // sketch-only changes: the ring did not move) — and so does
            // the async run state (a pending combined partial and its
            // waiting-set progress), which can exist even where no meta
            // record does (messages beat the meta to a previous
            // primary). `IS_META` tells the receiver which parts of the
            // meta to adopt.
            let hands_over = ring_moved
                && primary != my_id
                && (e.is_meta || e.has_ppartial || e.wait_recv > 0 || e.has_residual);
            let (head, meta, meta_flags) = vertex_record(v, e);
            let meta = hands_over.then(|| {
                (e.is_meta, e.g_out, e.g_in, e.dirty) = (false, 0, 0, false);
                (e.has_ppartial, e.ppartial, e.wait_recv) = (false, 0, 0);
                (e.residual, e.has_residual) = (0, false);
                meta
            });
            let primary_head = MigVertex {
                flags: head.flags | if hands_over { meta_flags } else { 0 },
                ..head
            };
            let meta = meta.as_ref();
            let mut sent = hands_over;
            if k == 1 {
                if !e.adj.is_empty() || hands_over {
                    sent = true;
                    // Cleared, not dropped: a leave brings the vertex
                    // back, and its lists' buffers are still here.
                    let to = frames.entry(primary).or_insert_with(new);
                    to.push(primary_head, meta, e.adj.out(), e.adj.inn());
                    ship(primary, to);
                    e.adj.clear(tally);
                }
            } else {
                // Place v once: both edge directions of v hash through
                // the same (k, replica-set), so the cache does the ring
                // walk a single time and the per-edge work is one
                // second-hash lookup.
                let locator = &self.locator;
                let placement = self.route_cache.placement(locator, v, || est);
                // The primary takes its meta with whatever edges go there.
                split.clear();
                if hands_over {
                    split.push((primary, Default::default()));
                }
                for (s, side) in [Side::Out, Side::In].into_iter().enumerate() {
                    e.adj.retain(side, tally, |w| {
                        match locator.owner_from_placement(placement, w) {
                            Some(owner) if owner != my_id => {
                                let at = split.iter().position(|d| d.0 == owner);
                                let at = at.unwrap_or_else(|| {
                                    split.push((owner, Default::default()));
                                    split.len() - 1
                                });
                                split[at].1[s].push(w);
                                false
                            }
                            _ => true,
                        }
                    });
                }
                for (agent, [out, inn]) in &split {
                    let (head, meta) = if *agent == primary {
                        (primary_head, meta)
                    } else {
                        (head, None)
                    };
                    let to = frames.entry(*agent).or_insert_with(new);
                    to.push(head, meta, out, inn);
                    ship(*agent, to);
                }
                sent |= !split.is_empty();
            }
            primaries += i64::from(ring_moved && e.is_meta && primary == my_id);
            moved += u64::from(sent);
            if e.is_empty() {
                self.vertices.remove(&v);
            }
        }
        let mut records = FxHashMap::default();
        for (agent, mut to) in frames {
            to.close();
            ship(agent, &mut to);
            records.insert(agent, to.records);
        }
        // A fixture that wrote metas directly can take it below zero.
        self.primaries = self.primaries.saturating_add_signed(primaries);
        (records, verts.len() as u64, moved)
    }

    /// Re-evaluate the placement of local edges and primary meta
    /// records under the adopted view, forward whatever no longer
    /// belongs here and report to the migrate barrier.
    pub(super) fn migrate(&mut self, epoch: u64, scope: Sweep) {
        self.relocate(scope);
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
            self.push_metrics();
            self.push_degrees();
        }
        self.send_ready(0, epoch as u32, Phase::Migrate, 0, contrib);
    }

    /// Sweep ([`Agent::sweep`]), its frames sent as they close, and
    /// count what went: every record before the READY that follows.
    pub(super) fn relocate(&mut self, scope: Sweep) {
        let t0 = Instant::now();
        let (sent, examined, moved) = self.sweep(scope);
        self.metrics.sweep_visits += examined;
        self.tracer
            .span(EventKind::MigrateSweep, t0, examined, moved);
        for (agent, records) in sent {
            self.peer(agent).mig_sent += records;
            self.tracer.instant(EventKind::MigrateSend, agent, records);
        }
    }

    pub(super) fn on_mig_vertex(&mut self, frame: Frame) {
        let Some(view) = msg::decode_mig_vertex(&frame) else {
            return;
        };
        let n = view.records.len() as u64;
        self.peer(view.from).mig_recv += n;
        self.tracer.instant(EventKind::MigrateRecv, n, 0);
        self.merge_records(view, false);
    }

    /// Take MIG_VERTEX records into the store, from a peer's sweep or,
    /// with `restore`, from a checkpoint shard. The head's snapshot
    /// fills in where no state is held yet; a meta brings the primary's
    /// state, which wins, its degrees, which add, and its run state. A
    /// restore serves each state (a shard holds a completed run's, its
    /// id unrecorded: tag 0) and counts the placements it inserts for
    /// the lead's sketch, which the recovery reset zeroed.
    pub(super) fn merge_records(&mut self, view: msg::MigVertexView<'_>, restore: bool) {
        let snap = (view.snap_run, view.snap_watermark);
        let program = self.run.as_ref().map(|r| r.program.clone());
        // Residuals merge with the residual program's own rule; the
        // armed delta seed covers the between-runs window.
        let merger = program
            .clone()
            .or_else(|| self.delta_seed.as_ref().map(|s| s.program.clone()));
        let (ring, id) = (self.locator.ring(), self.id);
        let mut strays = Vec::new();
        for (head, tail) in view.records.tailed() {
            let (meta, out, inn) = head.read_tail(tail);
            let v = head.vertex;
            // Adopt the sender's serving-snapshot tag with the snaps
            // primaryship brings, when it is newer: every agent that
            // finished the last run carries the same tag, so this only
            // moves a joiner (tag 0, no snaps of its own yet) up to it.
            if meta.is_some() && snap.0 > self.snap_run {
                (self.snap_run, self.snap_watermark) = snap;
            }
            let (e, lists, tally) = self.vertices.entry_parts(v);
            let (scattered, applies) = (e.active || e.has_pending_delta, e.wants_apply());
            let has_state = head.has(MigVertex::HAS_STATE);
            if has_state {
                if !e.has_state {
                    (e.state, e.has_state) = (head.state, true);
                    e.active = e.active || head.has(MigVertex::ACTIVE);
                }
                // The snapshot's out-degree is the global out-degree
                // scatter shares divide by: adopt it even when the state
                // itself arrived first with a meta.
                e.rep_out_degree = e.rep_out_degree.max(head.out_degree);
            }
            if head.aux != 0 && !e.has_pending_delta && !(out.is_empty() && inn.is_empty()) {
                // If we already hold the same broadcast
                // (has_pending_delta), our copy covers the migrated-in
                // edges too — adopting again would double-push.
                (e.pending_delta, e.has_pending_delta) = (head.aux, true);
            }
            // The edge memo stays a prefix of the lists
            // ([`Agent::insert_edges`]).
            let outs = e.adj.out().len();
            let added = e.adj.extend(Side::Out, out.iter(), tally)
                + e.adj.extend(Side::In, inn.iter(), tally);
            if added > 0 {
                e.slots.truncate(outs);
            }
            if let Some(m) = meta {
                // Exactly one sender held each degree change: add them.
                e.g_out += m.out_degree as i64;
                e.g_in += m.in_degree as i64;
                if !e.is_meta && head.has(MigVertex::IS_META) {
                    // The sender placed it by the view it swept under;
                    // until this agent takes that view on too, its own
                    // ring may say the meta is a stray.
                    e.is_meta = true;
                    if ring.owner(v) == Some(id) {
                        self.primaries += 1;
                    } else {
                        strays.push(v);
                    }
                }
                e.dirty |= head.has(MigVertex::DIRTY);
                e.active |= head.has(MigVertex::ACTIVE);
                if has_state {
                    (e.state, e.has_state) = (head.state, true);
                    let out_degree = (m.out_degree as i64).max(0) as u64;
                    e.rep_out_degree = e.rep_out_degree.max(out_degree);
                }
                if head.has(MigVertex::HAS_PPARTIAL) {
                    // Async run state handoff: fold the sender's pending
                    // combined partial into ours (both sides may have
                    // collected messages for the same waiting set).
                    e.ppartial = match (&program, e.has_ppartial) {
                        (Some(p), true) => p.as_dyn().combine(e.ppartial, m.ppartial),
                        _ => m.ppartial,
                    };
                    e.has_ppartial = true;
                    e.wait_recv += m.wait_recv;
                }
                if head.has(MigVertex::HAS_RESIDUAL) {
                    e.residual = match (&merger, e.has_residual) {
                        (Some(p), true) => p.as_dyn().merge_residual(e.residual, m.residual),
                        (None, true) => {
                            (f64::from_bits(e.residual) + f64::from_bits(m.residual)).to_bits()
                        }
                        (_, false) => m.residual,
                    };
                    e.has_residual = true;
                    // Merged, it may cross the tolerance: apply looks again.
                    lists.apply.push(v);
                }
                if head.has(MigVertex::HAS_SNAP) {
                    // Serving snapshot follows primaryship. Both sides can
                    // only hold the same completed run's value, so adopt
                    // unconditionally.
                    (e.snap, e.has_snap) = (m.snap, true);
                }
            }
            if restore {
                if has_state {
                    (e.snap, e.has_snap) = (e.state, true);
                }
                self.degrees.add(v, added as i32);
            }
            if !applies && e.wants_apply() {
                lists.apply.push(v);
            }
            if !scattered && (e.active || e.has_pending_delta) {
                lists.scatter.push(v);
            }
        }
        strays.into_iter().for_each(|v| self.vertices.list_stray(v));
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{detached, join, moved_to, view, Moved, ME};
    use super::*;
    use crate::adjacency::Tally;
    use elga_net::SplitMix64;
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

    /// Agent [`ME`] of `old` holding what `old` places on it of a
    /// small graph, put there by the handlers (the degree deltas it
    /// sent itself delivered), peers 2 and 3 bound and drained; with
    /// `stray`, a DEG_DELTA routed under another view leaves that
    /// vertex's meta here too.
    fn placed(old: &DirectoryView, stray: Option<VertexId>) -> (Agent, [elga_net::Mailbox; 2]) {
        let (transport, mut agent) = detached(old.clone());
        let peers = [2, 3].map(|id| transport.bind(&agent_addr(id)).expect("bind"));
        let edges: Vec<EdgeChange> = (0..200)
            .map(|i| EdgeChange::insert(i, (i * 7 + 1) % 200))
            .collect();
        agent.apply_changes(Side::Out, 0, edges.iter().copied());
        agent.apply_changes(Side::In, 0, edges.iter().copied());
        agent.flush_outboxes();
        let own = std::iter::from_fn(|| agent.mailbox.try_recv().ok().flatten());
        for d in own.collect::<Vec<_>>() {
            assert!(agent.handle(d));
        }
        if let Some(v) = stray {
            let frame = msg::encode_deg_deltas(2, &[(v, 1, 0)]);
            assert!(agent.handle(Delivery::push(frame)));
        }
        for peer in &peers {
            while let Ok(Some(_)) = peer.try_recv() {}
        }
        assert!(agent.primaries > 0);
        assert_eq!(agent.primaries, agent.recount_primaries());
        (agent, peers)
    }

    /// A leave's survivor decides its strays and nothing else: with
    /// none, its sweep visits no entry and sends nothing; a meta that a
    /// DEG_DELTA routed under another view left on a vertex agent 2
    /// owns was listed on arrival, and is the one entry visited and
    /// moved. The primary count stays the walk's throughout.
    #[test]
    fn a_leaves_survivor_decides_its_strays_only() {
        let (old, new) = (view(1, &[ME, 2, 3], &[]), view(2, &[ME, 2], &[]));
        let (agent, _peers) = &mut placed(&old, None);
        let held = agent.vertices.len();
        agent.on_view(new.clone());
        assert_eq!(agent.metrics.sweep_visits, 0);
        assert_eq!(agent.total().mig_sent, 0);
        assert_eq!(agent.vertices.len(), held);
        assert_eq!(agent.primaries, agent.recount_primaries());

        let theirs = (1_000..).find(|&v| old.locator().ring().owner(v) == Some(2));
        let stray = theirs.expect("a vertex of agent 2");
        let (agent, [to_two, _]) = &mut placed(&old, Some(stray));
        agent.on_view(new);
        assert_eq!(agent.metrics.sweep_visits, 1);
        assert_eq!(agent.total().mig_sent, 1);
        let mut got = Vec::new();
        while let Ok(Some(d)) = to_two.try_recv() {
            join(&mut got, &d.frame);
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].head.vertex, stray);
        assert!(got[0].head.has(MigVertex::IS_META));
        assert!(agent.vertices.get(&stray).is_none());
        assert_eq!(agent.primaries, agent.recount_primaries());
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
            let mut want: BTreeMap<AgentId, Vec<Moved>> = BTreeMap::new();
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
            let bit = |set: bool, bit: u8| if set { bit } else { 0 };
            for v in order {
                let est = new.sketch.estimate(v);
                let e = keep.get_mut(&v).expect("resident");
                let head = MigVertex {
                    vertex: v,
                    flags: bit(e.has_state, MigVertex::HAS_STATE) | bit(e.active, MigVertex::ACTIVE),
                    state: e.state,
                    out_degree: e.rep_out_degree,
                    aux: if e.has_pending_delta { e.pending_delta } else { 0 },
                    ..MigVertex::default()
                };
                let mut dests: Vec<AgentId> = Vec::new();
                // Each list in order; the survivors keep theirs.
                let mut kept = Adjacency::default();
                for (s, held) in [e.adj.out(), e.adj.inn()].into_iter().enumerate() {
                    let side = [Side::Out, Side::In][s];
                    for &other in held {
                        let owner = new_loc.owner_of_edge(v, other, est).expect("ring");
                        if owner == ME {
                            kept.insert(side, other, &mut tally);
                            continue;
                        }
                        let to = want.entry(owner).or_default();
                        if !dests.contains(&owner) {
                            dests.push(owner);
                            to.push(Moved { head, ..Moved::default() });
                        }
                        to.last_mut().expect("this vertex").lists[s].push(other);
                    }
                }
                e.adj = kept;
                let primary = new_loc.ring().owner(v).expect("ring");
                let parked = e.has_ppartial || e.wait_recv > 0 || e.has_residual;
                if !sketch_only && primary != ME && (e.is_meta || parked) {
                    let to = want.entry(primary).or_default();
                    if !dests.contains(&primary) {
                        to.push(Moved { head, ..Moved::default() });
                    }
                    let moved = to.last_mut().expect("this vertex");
                    moved.head.flags |= MigVertex::META
                        | bit(e.is_meta, MigVertex::IS_META)
                        | bit(e.dirty, MigVertex::DIRTY)
                        | bit(e.has_ppartial, MigVertex::HAS_PPARTIAL)
                        | bit(e.has_residual, MigVertex::HAS_RESIDUAL)
                        | bit(e.has_snap, MigVertex::HAS_SNAP);
                    moved.meta = Some(MigMeta {
                        out_degree: e.g_out as u64,
                        in_degree: e.g_in as u64,
                        ppartial: e.ppartial,
                        wait_recv: e.wait_recv,
                        residual: e.residual,
                        snap: e.snap,
                    });
                    let survives = VertexEntry {
                        adj: std::mem::take(&mut e.adj),
                        ..VertexEntry::default()
                    };
                    *e = VertexEntry {
                        state: e.state,
                        has_state: e.has_state,
                        active: e.active,
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
            let records: u64 = want.values().map(|m| m.len() as u64).sum();

            agent.on_view(new.clone());

            for &d in new_members.iter().filter(|&&d| d != ME) {
                let got = moved_to(&transport, d);
                prop_assert_eq!(&got, &want.remove(&d).unwrap_or_default(), "to agent {}", d);
            }
            prop_assert!(want.is_empty(), "records for agents off the view: {want:?}");
            prop_assert_eq!(agent.total().mig_sent, records, "no vertex is cut at this size");
            let kept = store(&agent);
            for v in 0..40 {
                prop_assert_eq!(kept.get(&v), keep.get(&v), "entry of vertex {}", v);
            }
            assert_indexed(&agent);
        }

        /// MIG_VERTEX records read back as they were written, whatever
        /// their flags: meta or none, empty lists, and a hub longer than
        /// a frame, which is cut into consecutive records that stay
        /// under `max_bytes`, its meta on the last.
        #[test]
        fn mig_frames_roundtrip_and_cut_a_hub(
            picks in prop::collection::vec((any::<u64>(), 0u32..4, 0u32..3), 1..24),
            hub_at in any::<usize>(),
            hub_len in 8_000usize..20_000,
        ) {
            let mut want: Vec<Moved> = Vec::new();
            let hub = hub_at % picks.len();
            for (i, &(r, outs, ins)) in picks.iter().enumerate() {
                let meta = (r & 1 == 0).then(|| MigMeta {
                    out_degree: r >> 3,
                    ppartial: r.rotate_left(7),
                    snap: r ^ 5,
                    ..MigMeta::default()
                });
                let meta_bit = if meta.is_some() { MigVertex::META } else { 0 };
                let flags = (r >> 8) as u8 & !MigVertex::META | meta_bit;
                let head = MigVertex { vertex: i as u64, flags, state: r, aux: r >> 1, ..MigVertex::default() };
                let n = if i == hub { hub_len } else { outs as usize * 3 };
                let lists = [(0..n as u64).map(|w| w ^ r).collect(), (0..u64::from(ins)).collect()];
                want.push(Moved { head, meta, lists });
            }
            let mut written = MigFrames::new((3, 4, ME));
            for Moved { head, meta, lists } in &want {
                written.push(*head, meta.as_ref(), &lists[0], &lists[1]);
            }
            written.close();
            let frames = written.frames;
            let max_bytes = CoalesceConfig::default().max_bytes;
            let (mut got, mut records) = (Vec::new(), 0);
            for f in &frames {
                prop_assert!(f.len() <= max_bytes, "a {} B frame", f.len());
                records += msg::decode_mig_vertex(f).expect("decodes").records.len();
                join(&mut got, f);
            }
            prop_assert_eq!(got, want);
            prop_assert!(records > picks.len(), "the hub is cut");
        }

        /// MIG_VERTEX adoption does not depend on framing: the same
        /// records one frame each, or all in one frame, or cut anywhere
        /// in between, leave the same adjacency order and index maps,
        /// and turn away the same duplicates — an empty list adopting a
        /// run whole, a held one extending by it.
        #[test]
        fn edge_adoption_is_framing_independent(
            picks in prop::collection::vec((0u64..6, 0u64..12, 0usize..6, 0usize..50), 1..60),
            cuts in prop::collection::vec(1usize..9, 1..8),
        ) {
            // Records as a sweep writes them, with repeats inside a list
            // and across records of a vertex.
            let records: Vec<(VertexId, [Vec<VertexId>; 2])> = picks
                .iter()
                .map(|&(key, other, outs, ins)| {
                    let run = |n: usize| (0..n as u64).map(|i| (other + i * i) % 40).collect();
                    (key, [run(outs), run(ins)])
                })
                .collect();
            let adopt = |frames: &mut dyn Iterator<Item = &[(VertexId, [Vec<VertexId>; 2])]>| {
                let (transport, mut agent) = detached(view(1, &[ME], &[]));
                let to_me = transport.sender(&agent_addr(ME)).expect("sender");
                let mut out = CoalescingOutbox::new(to_me, CoalesceConfig::default());
                for frame in frames {
                    let mut f = msg::open_mig_vertex(0, 0, 2);
                    for (key, [outs, ins]) in frame {
                        let head = MigVertex {
                            vertex: *key,
                            n_out: outs.len() as u32,
                            n_in: ins.len() as u32,
                            ..MigVertex::default()
                        };
                        let ids = outs.iter().chain(ins);
                        f.push(&head, |tail| MigVertex::write_tail(tail, None, ids));
                    }
                    out.send(f.finish());
                }
                while let Ok(Some(d)) = agent.mailbox.try_recv() {
                    prop_assert!(agent.handle(d));
                }
                assert_indexed(&agent);
                prop_assert_eq!(agent.total().mig_recv, records.len() as u64);
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
            // The per-edge reference: first occurrence wins.
            let mut want: BTreeMap<VertexId, [Vec<VertexId>; 2]> = BTreeMap::new();
            for (key, lists) in &records {
                for (s, list) in lists.iter().enumerate() {
                    let held = &mut want.entry(*key).or_default()[s];
                    for &w in list {
                        if !held.contains(&w) {
                            held.push(w);
                        }
                    }
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
