//! Graph changes: the edge store helpers, change application with
//! ownership checks and forwarding, and degree-delta accounting.

use super::*;

/// Reusable per-frame buffers of [`Agent::apply_changes`]: cleared, not
/// dropped, so applying a small frame allocates nothing.
#[derive(Default)]
pub(super) struct IngestScratch {
    forwards: FxHashMap<AgentId, Vec<EdgeChange>>,
    deltas: FxHashMap<VertexId, (i64, i64)>,
    delta_batches: FxHashMap<AgentId, Vec<(VertexId, i64, i64)>>,
    residuals: FxHashMap<AgentId, Vec<(VertexId, u64)>>,
}

/// Most applied degree changes an agent holds before it writes them
/// into its sketch delta ([`Agent::count_degrees`]). A small batch's
/// wait for the mailbox to drain, off the way of the records they
/// caused; a large batch is counted as it is applied, in 16 KiB.
const UNCOUNTED_MAX: usize = 1024;

/// Largest frame, in change records, whose [`IngestScratch`] is kept.
/// A full frame (~3.6k records) would leave a quarter MiB of buffers
/// behind on every agent — 4 % of `trickle_ring`'s peak RSS, from its
/// one bulk load — where fresh buffers cost 4 % of the ingest rate on
/// `bulk_rmat` and nothing end to end.
const SCRATCH_KEEP: usize = 1024;

impl Agent {
    /// Record a run of edges held in `key`'s adjacency on `side`, far
    /// endpoints in `others`, skipping those already present; returns
    /// how many were new. One store probe and one list reservation for
    /// the run. The vertex's edge memo stays a prefix of its lists
    /// ([`VertexEntry::slots`]): new edges land past it, so only its
    /// in-part goes, and the next scatter fills the tail.
    pub(super) fn insert_edges(
        &mut self,
        side: Side,
        key: VertexId,
        others: impl ExactSizeIterator<Item = VertexId>,
    ) -> usize {
        let (e, _, tally) = self.vertices.entry_parts(key);
        let outs = e.adj.out().len();
        let added = e.adj.extend(side, others, tally);
        if added > 0 {
            e.slots.truncate(outs);
        }
        added
    }

    /// Remove the edge held in `key`'s adjacency on `side` whose far
    /// endpoint is `other`; false when absent. The memo's in-part goes;
    /// an out-edge's slot leaves as the edge does — the last slot takes
    /// its place when the memo covers the out-list, and a shorter memo
    /// keeps only what precedes the vacated position.
    fn remove_edge(&mut self, side: Side, key: VertexId, other: VertexId) -> bool {
        let Some((e, tally)) = self.vertices.get_mut_and_tally(&key) else {
            return false;
        };
        let outs = e.adj.out().len();
        let Some(pos) = e.adj.remove(side, other, tally) else {
            return false;
        };
        e.slots.truncate(outs);
        if side == Side::Out {
            if e.slots.len() == outs {
                e.slots.swap_remove(pos);
            } else {
                e.slots.truncate(pos);
            }
        }
        true
    }

    pub(super) fn on_changes(&mut self, frame: Frame) {
        // The view borrows the frame's pooled receive buffer; records
        // stream straight from it into apply_changes with no Vec.
        let Some(view) = msg::decode_edge_changes(&frame) else {
            return;
        };
        let (side, hop, n) = (view.side, view.hop, view.records.len() as u64);
        // Streamer-originated records (hop 0) are uncounted in the
        // channels (Streamers do not report); a DRAIN may ask for a
        // number of them first. A forward is taken in even when its
        // apply is deferred below: its sender already reported it sent,
        // and its channel would stay unbalanced for the whole run.
        match hop {
            0 => self.streamed += n,
            _ => self.peer(view.from).chg_recv += n,
        }
        if self.run.is_some() {
            self.buffered_changes.push(frame);
            return;
        }
        self.apply_changes(side, hop, view.records);
    }

    pub(super) fn apply_changes(
        &mut self,
        side: Side,
        hop: u8,
        changes: impl IntoIterator<Item = EdgeChange>,
    ) {
        let mut scratch = std::mem::take(&mut self.ingest_scratch);
        let IngestScratch {
            forwards,
            deltas,
            delta_batches,
            residuals,
        } = &mut scratch;
        let mut seen = 0;
        for change in changes {
            seen += 1;
            let (u, v) = (change.edge.src, change.edge.dst);
            let (key, other) = match side {
                Side::Out => (u, v),
                Side::In => (v, u),
            };
            let owner = {
                let sketch = &self.view.sketch;
                self.route_cache
                    .owner_of_edge(&self.locator, key, other, || sketch.estimate(key))
            };
            if owner != Some(self.id) {
                if let Some(owner) = owner {
                    if hop < MAX_HOPS {
                        forwards.entry(owner).or_default().push(change);
                    }
                }
                continue;
            }
            let insert = change.action == Action::Insert;
            let applied = if insert {
                self.insert_edges(side, key, std::iter::once(other)) == 1
            } else {
                self.remove_edge(side, key, other)
            };
            if applied {
                let (degrees, d) = (deltas.entry(key).or_default(), if insert { 1 } else { -1 });
                match side {
                    Side::Out => degrees.0 += d,
                    Side::In => degrees.1 += d,
                }
                self.metrics.changes += 1;
                // Residual correction (delta engine): the out-placement
                // holder of `(u, v)` knows the share `d·p_u/D_u` this
                // edge carries and tells `v`'s primary to gain (insert)
                // or lose (delete) it. The local `(state,
                // rep_out_degree)` pair is exact even when stale: the
                // primary's degree rescale keeps every edge's share
                // invariant, so any broadcast-consistent pair yields
                // the same share.
                if side == Side::Out {
                    if let Some(program) = &self.delta_program {
                        if let Some(e) = self.vertices.get(&u) {
                            if e.has_state {
                                if let Some(delta) = program.as_dyn().edge_change_residual(
                                    u,
                                    e.state,
                                    e.rep_out_degree,
                                    change.action == Action::Insert,
                                ) {
                                    if let Some(primary) = self.locator.ring().owner(v) {
                                        residuals.entry(primary).or_default().push((v, delta));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let me = self.id;
        for (&agent, fwd) in forwards.iter_mut().filter(|(_, fwd)| !fwd.is_empty()) {
            self.peer(agent).chg_sent += fwd.len() as u64;
            self.with_outbox(agent, |out| {
                msg::append_changes_from(out, side, hop + 1, me, fwd)
            });
            fwd.clear();
        }
        // Report degree deltas to each vertex's primary, and count them
        // for the lead's sketch.
        for (v, (dout, din)) in deltas.drain() {
            self.uncounted.push((v, (dout + din) as i32));
            if self.uncounted.len() == UNCOUNTED_MAX {
                self.count_degrees();
            }
            if let Some(primary) = self.locator.ring().owner(v) {
                delta_batches
                    .entry(primary)
                    .or_default()
                    .push((v, dout, din));
            }
        }
        for (&agent, ds) in delta_batches.iter_mut().filter(|(_, ds)| !ds.is_empty()) {
            self.peer(agent).chg_sent += ds.len() as u64;
            self.with_outbox(agent, |out| msg::append_deg_deltas(out, me, ds));
            ds.clear();
        }
        // Residual corrections are counted like the changes that caused
        // them, so `quiesce` returns only once every correction landed.
        for (&agent, rs) in residuals.iter_mut().filter(|(_, rs)| !rs.is_empty()) {
            self.peer(agent).chg_sent += rs.len() as u64;
            self.with_outbox(agent, |out| msg::append_residuals(out, me, rs));
            rs.clear();
        }
        if seen <= SCRATCH_KEEP {
            self.ingest_scratch = scratch;
        }
    }

    /// Merge residual corrections into their vertices (at the
    /// primary). The program that defines the merge is the armed delta
    /// program; without one (e.g. a correction straggling past a recovery
    /// reset) the values are summed as f64 bits — the encoding every
    /// residual program in this workspace uses. A correction its
    /// sender routed under another view than this agent's, to a vertex
    /// with no meta here, lists a stray.
    pub(super) fn apply_residuals(&mut self, recs: impl IntoIterator<Item = (VertexId, u64)>) {
        let program = self.delta_program.clone();
        let program = program.as_ref().map(Program::as_dyn);
        for (v, delta) in recs {
            let (e, lists) = self.vertices.entry_and_lists(v);
            // Listed for the next run's step 0, which folds it or parks
            // it again (a run that keeps its lists purges it there if it
            // addressed a dead incarnation).
            if !e.wants_apply() {
                lists.apply.push(v);
            }
            let stray = !e.has_residual && !e.is_meta;
            e.residual = if e.has_residual {
                match &program {
                    Some(p) => p.merge_residual(e.residual, delta),
                    None => (f64::from_bits(e.residual) + f64::from_bits(delta)).to_bits(),
                }
            } else {
                delta
            };
            e.has_residual = true;
            if stray && !self.is_primary(v) {
                self.vertices.list_stray(v);
            }
        }
    }

    pub(super) fn on_residual(&mut self, frame: Frame) {
        let Some(view) = msg::decode_residuals(&frame) else {
            return;
        };
        // Counted on arrival even when buffered, like edge changes.
        self.peer(view.from).chg_recv += view.records.len() as u64;
        if self.run.is_some() {
            self.buffered_changes.push(frame);
            return;
        }
        self.apply_residuals(view.records);
    }

    pub(super) fn on_deg_delta(&mut self, frame: Frame) {
        let Some(view) = msg::decode_deg_deltas(&frame) else {
            return;
        };
        let deltas = view.records;
        self.peer(view.from).chg_recv += deltas.len() as u64;
        let program = self.delta_program.clone();
        let program = program.as_ref().map(Program::as_dyn);
        let mut sum = 0.0;
        let (ring, id) = (self.locator.ring(), self.id);
        let mut strays = Vec::new();
        for (v, dout, din) in deltas {
            let (e, lists) = self.vertices.entry_and_lists(v);
            let listed = e.wants_apply();
            let was_meta = e.is_meta;
            // Residual correction (delta engine): an out-degree change
            // rescales the primary's value so every surviving edge's
            // share is unchanged; the rescale remainder moves into the
            // residual. Updating `rep_out_degree` alongside keeps this
            // entry's own share pair consistent for later batches.
            if dout != 0 && e.has_state {
                if let Some(p) = &program {
                    let d0 = e.g_out.max(0) as u64;
                    let d1 = (e.g_out + dout).max(0) as u64;
                    if let Some((new_state, radj)) = p.rescale_on_degree_change(e.state, d0, d1) {
                        sum += f64::from_bits(new_state) - f64::from_bits(e.state);
                        e.state = new_state;
                        e.residual = if e.has_residual {
                            p.merge_residual(e.residual, radj)
                        } else {
                            radj
                        };
                        e.has_residual = true;
                        e.rep_out_degree = d1;
                    }
                }
            }
            e.g_out += dout;
            e.g_in += din;
            e.dirty = true;
            e.is_meta = e.g_out > 0 || e.g_in > 0;
            // The sender routed by its view: under this agent's, a meta
            // that appears or goes is counted if the ring places it here,
            // and one that appears elsewhere is a stray. (An entry left
            // without one keeps no residual either.)
            if e.is_meta != was_meta {
                let owned = ring.owner(v) == Some(id);
                if owned && e.is_meta {
                    self.primaries += 1;
                } else if owned {
                    self.primaries -= 1;
                } else if e.is_meta {
                    strays.push(v);
                }
            }
            if !e.is_meta {
                // Vertex vanished from the graph; its mass leaves the
                // sum with it.
                if e.has_state && program.is_some() {
                    sum -= f64::from_bits(e.state);
                }
                e.has_state = false;
                e.active = false;
                e.dirty = false;
                e.residual = 0;
                e.has_residual = false;
                if e.is_empty() {
                    self.vertices.remove(&v);
                }
            } else if !listed {
                lists.apply.push(v);
            }
        }
        strays.into_iter().for_each(|v| self.vertices.list_stray(v));
        self.unreported_sum += sum;
    }

    pub(super) fn on_reset_labels(&mut self, frame: Frame) {
        let Some(labels) = msg::decode_reset_labels(&frame) else {
            return;
        };
        let set: FxHashSet<u64> = labels.into_iter().collect();
        for (_, e) in self.vertices.iter_mut() {
            if e.is_meta && e.has_state && set.contains(&e.state) {
                e.has_state = false;
                e.state = 0;
                e.dirty = true;
            }
        }
        self.needs_sweep = true;
    }
}

/// The single-edge mutators tests build stores with. No owner check
/// placed what they insert, so its vertex is listed as a possible stray.
#[cfg(test)]
impl Agent {
    /// Record out-edge `(u, v)`; false when already present.
    pub(super) fn insert_out_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.vertices.list_stray(u);
        self.insert_edges(Side::Out, u, std::iter::once(v)) == 1
    }

    /// Remove out-edge `(u, v)`; false when absent.
    pub(super) fn remove_out_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.remove_edge(Side::Out, u, v)
    }

    /// Record in-edge `(u, v)` (stored on `v`); false when present.
    pub(super) fn insert_in_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.vertices.list_stray(v);
        self.insert_edges(Side::In, v, std::iter::once(u)) == 1
    }

    /// Remove in-edge `(u, v)`; false when absent.
    pub(super) fn remove_in_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.remove_edge(Side::In, v, u)
    }
}
