//! Durable checkpointing: shard writes and restore loads.
//!
//! `CKPT_SAVE` (REQ) asks the agent to serialize its entire partition
//! and write it as one shard of a checkpoint generation through
//! `elga-ckpt`'s atomic tmp→fsync→rename protocol. `CKPT_LOAD` (REQ)
//! is the way back after a recovery reset: the agent merges the shards
//! the driver deals it — its own, and those whose writers are gone —
//! into its store and runs the placement sweep a view change runs, so
//! whatever the current view places elsewhere leaves as counted
//! MIG_VERTEX records, and `quiesce` proves by the counters that they
//! landed. Loaded edges are counted for the lead's sketch like applied
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
        let payload = ckpt_codec::encode_payload(&self.checkpoint_records());
        let id = self.id;
        self.ckpt_store()?
            .write_shard(generation, epoch, id, watermark, &payload)
            .ok()
    }

    /// The agent's checkpoint store, opened at first use from
    /// `cfg.checkpoint_dir` and kept for its lifetime: the disk-fault
    /// injector's RNG must advance across writes instead of replaying
    /// the same damage each generation. It touches writes only, so
    /// loads read through the same store.
    fn ckpt_store(&mut self) -> Option<&mut CheckpointStore> {
        if self.ckpt_store.is_none() {
            let dir = self.cfg.checkpoint_dir.as_ref()?;
            let mut store = CheckpointStore::open(dir).ok()?;
            if let Some(faults) = self.cfg.disk_fault {
                // Offset the seed per agent so shards fail
                // independently, not in lockstep.
                store = store.with_faults(faults, self.cfg.disk_fault_seed ^ self.id);
            }
            self.ckpt_store = Some(store);
        }
        self.ckpt_store.as_mut()
    }

    /// Snapshot every vertex entry this agent holds. Run-state fields
    /// (partials, async waiting sets, replica pending deltas) are
    /// intentionally dropped: checkpoints are taken only at quiesced
    /// batch boundaries, where that state is vacant. Parked residuals
    /// are dropped too: the first residual run after a recovery
    /// recomputes from scratch, so nothing would fold them.
    fn checkpoint_records(&self) -> Vec<CkptVertexRecord> {
        let record = |(&vertex, e): (&VertexId, &VertexEntry)| CkptVertexRecord {
            vertex,
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
        };
        self.vertices.iter().map(record).collect()
    }

    /// CKPT_LOAD: merge the named shards of a generation into the
    /// store, send whatever the current view places elsewhere as the
    /// MIG_VERTEX records a view change sends, and reply once they are
    /// flushed. A shard loaded since the last recovery reset is not
    /// loaded again: a request retried past its timeout would add the
    /// primaries' degrees twice.
    pub(super) fn on_ckpt_load(&mut self, frame: &Frame, reply: Option<ReplyHandle>) {
        let Some(msg::CkptLoad { generation, shards }) = msg::CkptLoad::decode(frame) else {
            return;
        };
        let mut report = msg::CkptLoadReport { ok: true, bytes: 0 };
        for agent in shards {
            let bytes = self.loaded.get(&(generation, agent)).copied();
            let bytes = bytes.or_else(|| self.load_shard(generation, agent));
            report.ok &= bytes.is_some();
            report.bytes += bytes.unwrap_or(0);
            self.maybe_heartbeat();
        }
        self.needs_sweep = true;
        self.relocate(None);
        if let Some(reply) = reply {
            let _ = reply.send(report.encode());
        }
    }

    /// Read one shard and merge its records into the store. Returns the
    /// payload byte count, or `None` when the shard is unreadable.
    fn load_shard(&mut self, generation: u64, agent: AgentId) -> Option<u64> {
        let (_, payload) = self.ckpt_store()?.read_shard(generation, agent).ok()?;
        for rec in ckpt_codec::decode_payload(&payload)? {
            let v = rec.vertex;
            let e = self.vertices.entry_or_default(v);
            // The primary's state is authoritative; a replica's fills
            // in where no state is held yet.
            if rec.has_state && (rec.is_meta || !e.has_state) {
                e.state = rec.state;
                e.has_state = true;
            }
            if rec.has_state {
                let out_degree = rec.rep_out_degree.max(rec.g_out.max(0) as u64);
                e.rep_out_degree = e.rep_out_degree.max(out_degree);
                // Checkpoints are cut at quiesced batch boundaries, so
                // the states are a completed run's: serve them (under
                // tag 0 — the run id went unrecorded).
                e.snap = e.state;
                e.has_snap = true;
            }
            e.active |= rec.active;
            e.is_meta |= rec.is_meta;
            e.dirty |= rec.dirty;
            // Exactly one shard held each vertex's primary record.
            e.g_out += rec.g_out;
            e.g_in += rec.g_in;
            let added = self.insert_edges(Side::Out, v, rec.out.into_iter())
                + self.insert_edges(Side::In, v, rec.inn.into_iter());
            self.degrees.add(v, added as i32);
        }
        let bytes = payload.len() as u64;
        self.loaded.insert((generation, agent), bytes);
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{detached, join, view, ME};
    use super::*;
    use elga_net::InProcTransport;
    use std::collections::BTreeMap;

    const HUB: VertexId = 7;

    /// Agent 9's shard (9 is no member): a ring of 40 with diameters,
    /// and the hub among them with 120 out- and 60 in-edges.
    fn shard() -> Vec<CkptVertexRecord> {
        (0..40)
            .map(|v| {
                let (outs, ins) = if v == HUB {
                    (40..160, 200..260)
                } else {
                    (0..0, 0..0)
                };
                CkptVertexRecord {
                    vertex: v,
                    state: 3 * v,
                    has_state: true,
                    is_meta: true,
                    g_out: 2,
                    g_in: 1,
                    out: [(v + 1) % 40, (v + 20) % 40]
                        .into_iter()
                        .chain(outs)
                        .collect(),
                    inn: [(v + 39) % 40].into_iter().chain(ins).collect(),
                    ..CkptVertexRecord::default()
                }
            })
            .collect()
    }

    /// An edge placement: the side, the vertex whose list holds it, the
    /// far endpoint.
    type Placement = (Side, VertexId, VertexId);

    /// The agent, its last answer, every placement agents 2 and 3 were
    /// sent with its destination, and the MIG_VERTEX records.
    type Loaded = (Agent, msg::CkptLoadReport, Vec<(Placement, AgentId)>, u64);

    /// Agent [`ME`] of members 1–3 with the hub split, agent 9's shard
    /// of generation 1 on disk, and a CKPT_LOAD of it answered `times`
    /// times.
    fn loaded(tag: &str, times: usize) -> Loaded {
        let dir = std::env::temp_dir().join(format!("elga-ckpt-load-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let payload = ckpt_codec::encode_payload(&shard());
        let mut store = CheckpointStore::open(&dir).expect("store");
        store.write_shard(1, 1, 9, 100, &payload).expect("shard");
        let (transport, mut agent) = detached(view(1, &[ME, 2, 3], &[HUB]));
        agent.cfg.checkpoint_dir = Some(dir.clone());
        let report = (0..times).map(|_| load(&transport, &mut agent)).last();
        let _ = std::fs::remove_dir_all(&dir);
        let (mut sent, mut records) = (Vec::new(), 0);
        for dest in [2, 3] {
            let mailbox = transport.bind(&agent_addr(dest)).expect("bind");
            let mut moved = Vec::new();
            while let Ok(Some(d)) = mailbox.try_recv() {
                records += msg::decode_mig_vertex(&d.frame)
                    .expect("MIG_VERTEX")
                    .records
                    .len() as u64;
                join(&mut moved, &d.frame);
            }
            for m in moved {
                let [out, inn] = m.lists;
                let out = out.into_iter().map(|w| (Side::Out, m.head.vertex, w));
                let inn = inn.into_iter().map(|w| (Side::In, m.head.vertex, w));
                sent.extend(out.chain(inn).map(|p| (p, dest)));
            }
        }
        (agent, report.expect("answered"), sent, records)
    }

    /// Ask the agent to load agent 9's shard, as the driver does.
    fn load(transport: &InProcTransport, agent: &mut Agent) -> msg::CkptLoadReport {
        let req = msg::CkptLoad {
            generation: 1,
            shards: vec![9],
        }
        .encode();
        let wait = Duration::from_secs(10);
        std::thread::scope(|s| {
            let asked = s.spawn(|| transport.request(&agent_addr(ME), req, wait));
            assert!(agent.handle(agent.mailbox.recv_timeout(wait).expect("the request")));
            let rep = asked.join().expect("requester").expect("a reply");
            msg::CkptLoadReport::decode(&rep).expect("a CKPT_LOAD reply")
        })
    }

    /// A loaded shard keeps what the locator places here and ships each
    /// other placement once, to the owner `owner_of_edge` names — the
    /// split hub's edges one by one — as counted migration records.
    #[test]
    fn a_loaded_shard_keeps_its_placements_and_ships_the_rest_once() {
        let (agent, report, sent, records) = loaded("ships", 1);
        let bytes = ckpt_codec::encode_payload(&shard()).len() as u64;
        assert_eq!((report.ok, report.bytes), (true, bytes));
        let (v, locator) = (&agent.view, &agent.locator);
        assert!(locator.replication_factor(v.sketch.estimate(HUB)) > 1);
        let (mut all, mut kept, mut hub) = (0, 0, [0, 0]);
        for r in shard() {
            for (side, others) in [(Side::Out, r.out), (Side::In, r.inn)] {
                for w in others {
                    let p = (side, r.vertex, w);
                    let owner = locator.owner_of_edge(r.vertex, w, v.sketch.estimate(r.vertex));
                    let held = agent.vertices.get(&r.vertex).is_some_and(|e| {
                        [e.adj.out(), e.adj.inn()][usize::from(side == Side::In)].contains(&w)
                    });
                    let here = owner == Some(ME);
                    let gone = sent.iter().filter(|s| s.0 == p).map(|s| s.1);
                    assert_eq!(held, here, "{p:?} held here");
                    let want = owner.filter(|_| !here);
                    assert_eq!(Vec::from_iter(gone), Vec::from_iter(want), "{p:?} sent");
                    all += 1;
                    kept += usize::from(here);
                    hub[usize::from(here)] += usize::from(r.vertex == HUB);
                }
            }
        }
        assert_eq!(sent.len(), all - kept, "a placement no shard held left");
        assert!(hub[0] > 0 && hub[1] > 0, "the hub is placed edge by edge");
        assert_eq!(agent.counters.mig_sent, records);
        assert_eq!(agent.degrees.items(), all as i64);
    }

    /// A CKPT_LOAD answered twice — a retry that outlived its timeout —
    /// leaves the store, the migration counter and the degree counts as
    /// the first answer left them.
    #[test]
    fn a_retried_load_loads_nothing_twice() {
        let outcome = |(a, report, _, records): Loaded| {
            let store = BTreeMap::from_iter(a.vertices.iter().map(|(&v, e)| (v, e.clone())));
            (
                store,
                report,
                records,
                [a.counters.mig_sent, a.degrees.items() as u64],
            )
        };
        assert!(outcome(loaded("once", 1)) == outcome(loaded("twice", 2)));
    }
}
