//! Durable checkpointing: shard serialization and restore application.
//!
//! `CKPT_SAVE` (REQ) asks the agent to serialize its entire partition
//! and write it as one shard of a checkpoint generation through
//! `elga-ckpt`'s atomic tmp→fsync→rename protocol. `CKPT_EDGES` /
//! `CKPT_META` (pushes) arrive during recovery, after the driver reads
//! a valid generation back and re-routes every record under the
//! *post-recovery* view. Unlike their `MIG_*` cousins, restore
//! applications are **uncounted**: restore happens outside any barrier
//! (the cluster is quiesced with no run in flight), and counting the
//! injected records on the receive side only would permanently skew
//! the Mattern sent/received balance and wedge every later barrier.
//! Restored edges are counted for the lead's sketch like applied
//! changes: the recovery reset zeroed it.
//!
//! A restore rebuilds the graph — edges, degrees and served states —
//! and nothing of the delta engine: no residuals are saved, and the
//! lead runs the first residual run after a recovery from scratch.

use super::*;
use crate::ckpt_codec::{self, CkptVertexRecord};
use elga_ckpt::CheckpointStore;

impl Agent {
    /// CKPT_SAVE: serialize the partition, write one shard, reply with
    /// the outcome. Failure (including injected disk faults surfaced
    /// at write time) replies `ok = false`; the driver then refuses to
    /// commit the generation, so a half-written checkpoint can never
    /// become the recovery source.
    pub(super) fn on_ckpt_save(&mut self, frame: &Frame, reply: Option<ReplyHandle>) {
        let Some(reply) = reply else { return };
        let Some(msg::CkptSave {
            generation,
            epoch,
            watermark,
        }) = msg::CkptSave::decode(frame)
        else {
            return;
        };
        let t0 = Instant::now();
        let written = self.write_checkpoint_shard(generation, epoch, watermark);
        let nanos = t0.elapsed().as_nanos() as u64;
        if let Some(bytes) = written {
            self.metrics.ckpt_writes += 1;
            self.metrics.ckpt_write_nanos += nanos;
            self.metrics.ckpt_bytes += bytes;
            self.tracer
                .span(EventKind::CkptWrite, t0, generation, bytes);
        }
        let report = msg::CkptSaveReport {
            ok: written.is_some(),
            bytes: written.unwrap_or(0),
            nanos,
        };
        let _ = reply.send(report.encode());
    }

    /// Write this agent's shard of `generation`. Returns the payload
    /// byte count, or `None` on any configuration or I/O failure.
    fn write_checkpoint_shard(
        &mut self,
        generation: u64,
        epoch: u64,
        watermark: u64,
    ) -> Option<u64> {
        if self.ckpt_store.is_none() {
            // Opened lazily and kept for the agent's lifetime: the
            // fault injector's RNG must advance across writes instead
            // of replaying the same damage each generation.
            let dir = self.cfg.checkpoint_dir.as_ref()?;
            let mut store = CheckpointStore::open(dir).ok()?;
            if let Some(faults) = self.cfg.disk_fault {
                // Offset the seed per agent so shards fail
                // independently, not in lockstep.
                store = store.with_faults(faults, self.cfg.disk_fault_seed ^ self.id);
            }
            self.ckpt_store = Some(store);
        }
        let payload = ckpt_codec::encode_payload(&self.checkpoint_records());
        self.ckpt_store
            .as_mut()?
            .write_shard(generation, epoch, self.id, watermark, &payload)
            .ok()
    }

    /// Snapshot every vertex entry this agent holds. Run-state fields
    /// (partials, async waiting sets, replica pending deltas) are
    /// intentionally dropped: checkpoints are taken only at quiesced
    /// batch boundaries, where that state is vacant. Parked residuals
    /// are dropped too: the first residual run after a recovery
    /// recomputes from scratch, so nothing would fold them.
    fn checkpoint_records(&self) -> Vec<CkptVertexRecord> {
        let mut records = Vec::with_capacity(self.vertices.len());
        for (&v, e) in self.vertices.iter() {
            records.push(CkptVertexRecord {
                vertex: v,
                state: e.state,
                has_state: e.has_state,
                rep_out_degree: e.rep_out_degree,
                active: e.active,
                is_meta: e.is_meta,
                dirty: e.dirty,
                g_out: e.g_out,
                g_in: e.g_in,
                out: e.adj.out().to_vec(),
                inn: e.adj.inn().to_vec(),
            });
        }
        records
    }

    /// CKPT_EDGES: apply restored edge groups. Mirrors `on_mig_states`
    /// and `on_mig_edges` minus the migration counters.
    pub(super) fn on_ckpt_edges(&mut self, frame: Frame) {
        let Some(msg::CkptEdges { groups }) = msg::CkptEdges::decode(&frame) else {
            return;
        };
        for g in groups {
            let v = g.vertex;
            let e = self.vertices.entry_or_default(v);
            if g.has_state && !e.has_state {
                e.state = g.state;
                e.has_state = true;
            }
            if g.has_state {
                e.rep_out_degree = e.rep_out_degree.max(g.rep_out_degree);
                // Checkpoints are cut at quiesced batch boundaries, so
                // the restored states are a completed-run snapshot:
                // serve them (tagged run 0 — the id went unrecorded).
                e.snap = e.state;
                e.has_snap = true;
            }
            e.active = e.active || g.active;
            let added = self.insert_edges(g.side, v, g.others.into_iter());
            self.degrees.add(v, added as i32);
        }
        self.invalidate_worklists();
    }

    /// CKPT_META: apply restored primary meta. Mirrors `on_mig_meta`
    /// minus the counters; degrees *accumulate* because exactly
    /// one shard carried each vertex's meta entry, while flags combine
    /// monotonically (`|=`) so replica-side records can't erase them.
    pub(super) fn on_ckpt_meta(&mut self, frame: Frame) {
        let Some(recs) = msg::decode_ckpt_meta(&frame) else {
            return;
        };
        for m in recs {
            let e = self.vertices.entry_or_default(m.vertex);
            if m.is_meta {
                e.is_meta = true;
            }
            e.g_out += m.g_out;
            e.g_in += m.g_in;
            e.dirty = e.dirty || m.dirty;
            e.active = e.active || m.active;
            if m.has_state {
                e.state = m.state;
                e.has_state = true;
                e.rep_out_degree = e.rep_out_degree.max(m.g_out.max(0) as u64);
                // As in `on_ckpt_edges`: restored states are a
                // consistent completed-run cut — serve them.
                e.snap = e.state;
                e.has_snap = true;
            }
        }
        self.invalidate_worklists();
    }
}
