//! Durable checkpointing: a shard is a migration to disk. `CKPT_SAVE`
//! writes every store entry as a view change moves it, without run
//! state, through `elga-ckpt`'s atomic tmp→fsync→rename protocol;
//! `CKPT_LOAD`, after a recovery reset, checks each shard it is dealt
//! whole, merges it as a peer's MIG_VERTEX frame is merged (uncounted)
//! and runs the placement sweep. No residual is saved: the first
//! residual run after a recovery starts from scratch.

use super::migrate::{vertex_record, MigFrames, Sweep};
use super::*;
use elga_ckpt::CheckpointStore;
use msg::MigVertex;

/// The head flags of run state, which a shard never holds: it is cut at
/// a quiesced batch boundary, and a restore serves the saved states.
const RUN_STATE: u8 = MigVertex::HAS_PPARTIAL | MigVertex::HAS_RESIDUAL | MigVertex::HAS_SNAP;

impl Agent {
    /// CKPT_SAVE: write the store as one shard, reply with the outcome.
    /// Failure (including injected disk faults surfaced at write time)
    /// replies `ok = false`; the driver then refuses to commit the
    /// generation, so a half-written checkpoint can never become the
    /// recovery source.
    pub(super) fn on_ckpt_save(&mut self, frame: &Frame, reply: Option<ReplyHandle>) {
        let (Some(reply), Some(save)) = (reply, msg::CkptSave::decode(frame)) else {
            return;
        };
        let t0 = Instant::now();
        let mut frames = MigFrames::new((self.view.epoch, 0, 0, self.id));
        for (&v, e) in self.vertices.iter() {
            let (mut head, meta, flags) = vertex_record(v, e);
            (head.flags, head.aux) = (head.flags | flags & !RUN_STATE, 0);
            // What a restore serves is what was served: a delta run's
            // states are unnormalized, its snaps are not.
            if e.has_snap {
                head.state = e.snap;
            }
            // A meta where there are degrees to keep; its run-state
            // fields, their flags unset, mean nothing.
            let meta = (e.is_meta || e.g_out != 0 || e.g_in != 0).then_some(meta);
            frames.push(head, meta.as_ref(), e.adj.out(), e.adj.inn());
        }
        frames.close();
        let payload = msg::shard_payload(&frames.frames);
        let (id, generation) = (self.id, save.generation);
        let written = self.ckpt_store().and_then(|store| {
            let written = store.write_shard(generation, save.epoch, id, save.watermark, &payload);
            written.ok()
        });
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
            self.push_metrics();
        }
        let strays = self.take_strays();
        self.relocate(Sweep::All(strays));
        if let Some(reply) = reply {
            let _ = reply.send(report.encode());
        }
    }

    /// Read one shard, check it whole and merge its records into the
    /// store. Returns the payload byte count, or `None`, having merged
    /// nothing, when the shard is unreadable, cut short, runs on past
    /// its frames or holds run state.
    fn load_shard(&mut self, generation: u64, agent: AgentId) -> Option<u64> {
        let (_, payload) = self.ckpt_store()?.read_shard(generation, agent).ok()?;
        let bytes = payload.len() as u64;
        let frames = msg::shard_frames(&payload)?;
        let views: Option<Vec<_>> = frames.iter().map(msg::decode_mig_vertex).collect();
        let saved = |(h, _): (MigVertex, &[u8])| h.flags & RUN_STATE == 0 && h.aux == 0;
        for view in views.filter(|vs| vs.iter().all(|v| v.records.tailed().all(saved)))? {
            self.merge_records(view, true);
        }
        self.loaded.insert((generation, agent), bytes);
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{detached, moved_to, view, ME};
    use super::*;
    use elga_net::{InProcTransport, SplitMix64};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

    const HUB: VertexId = 7;

    /// Agent 9's lists (9 is no member): a ring of 40 with diameters,
    /// and the hub among them with 120 out- and 60 in-edges.
    fn ring() -> BTreeMap<VertexId, [Vec<VertexId>; 2]> {
        let hub = |v, outs: std::ops::Range<u64>| if v == HUB { outs } else { 0..0 };
        let lists = |v| {
            let ring = [(v + 1) % 40, (v + 20) % 40];
            let out = ring.into_iter().chain(hub(v, 40..160));
            let inn = [(v + 39) % 40].into_iter().chain(hub(v, 200..260));
            (v, [out.collect(), inn.collect()])
        };
        (0..40).map(lists).collect()
    }

    /// A fresh checkpoint directory.
    fn ckpt_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elga-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Point the agent at `dir` and ask it `req`, as the driver does.
    fn ask(transport: &InProcTransport, agent: &mut Agent, dir: &Path, req: Frame) -> Frame {
        agent.cfg.checkpoint_dir = Some(dir.to_path_buf());
        let wait = Duration::from_secs(10);
        std::thread::scope(|s| {
            let asked = s.spawn(|| transport.request(&agent_addr(ME), req, wait));
            assert!(agent.handle(agent.mailbox.recv_timeout(wait).expect("the request")));
            asked.join().expect("requester").expect("a reply")
        })
    }

    /// Write `agent`'s store as agent 9's shard of generation 1 in `dir`
    /// with CKPT_SAVE; the payload, read back.
    fn save(transport: &InProcTransport, agent: &mut Agent, dir: &Path) -> Vec<u8> {
        agent.id = 9;
        let (generation, epoch, watermark) = (1, 1, 100);
        let req = msg::CkptSave {
            generation,
            epoch,
            watermark,
        }
        .encode();
        let rep = msg::CkptSaveReport::decode(&ask(transport, agent, dir, req));
        assert!(rep.expect("a CKPT_SAVE reply").ok, "the shard is written");
        let shard = CheckpointStore::open(dir).and_then(|s| s.read_shard(1, 9));
        shard.expect("the shard").1
    }

    /// Ask the agent to load agent 9's shard of generation 1 from `dir`.
    fn load(transport: &InProcTransport, agent: &mut Agent, dir: &Path) -> msg::CkptLoadReport {
        let req = msg::CkptLoad {
            generation: 1,
            shards: vec![9],
        }
        .encode();
        let rep = msg::CkptLoadReport::decode(&ask(transport, agent, dir, req));
        rep.expect("a CKPT_LOAD reply")
    }

    /// Agent 9's shard of [`ring`] in `dir`, every vertex a primary with
    /// state; its payload.
    fn save_ring(dir: &Path) -> Vec<u8> {
        let (transport, mut agent) = detached(view(1, &[ME], &[]));
        for (v, [out, inn]) in ring() {
            agent.insert_edges(Side::Out, v, out.into_iter());
            agent.insert_edges(Side::In, v, inn.into_iter());
            agent.edit(v, |e, _| {
                (e.state, e.has_state, e.is_meta, e.g_out, e.g_in) = (3 * v, true, true, 2, 1);
            });
        }
        save(&transport, &mut agent, dir)
    }

    /// An edge placement: the side, the vertex whose list holds it, the
    /// far endpoint.
    type Placement = (Side, VertexId, VertexId);

    /// The agent, every placement agents 2 and 3 were sent with its
    /// destination, and the MIG_VERTEX records.
    type Loaded = (Agent, Vec<(Placement, AgentId)>, u64);

    /// Agent [`ME`] of members 1–3 with the hub split, agent 9's shard
    /// of [`ring`] on disk, and a CKPT_LOAD of it answered `times`
    /// times, each time whole.
    fn loaded(tag: &str, times: usize) -> Loaded {
        let dir = ckpt_dir(tag);
        let bytes = save_ring(&dir).len() as u64;
        let (transport, mut agent) = detached(view(1, &[ME, 2, 3], &[HUB]));
        for _ in 0..times {
            let report = load(&transport, &mut agent, &dir);
            assert_eq!((report.ok, report.bytes), (true, bytes));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let (mut sent, mut records) = (Vec::new(), 0);
        for dest in [2, 3] {
            // No vertex is cut at this size: a record each.
            let moved = moved_to(&transport, dest);
            records += moved.len() as u64;
            for m in moved {
                let [out, inn] = m.lists;
                let out = out.into_iter().map(|w| (Side::Out, m.head.vertex, w));
                let inn = inn.into_iter().map(|w| (Side::In, m.head.vertex, w));
                sent.extend(out.chain(inn).map(|p| (p, dest)));
            }
        }
        (agent, sent, records)
    }

    /// A loaded shard keeps what the locator places here and ships each
    /// other placement once, to the owner `owner_of_edge` names — the
    /// split hub's edges one by one — as counted migration records.
    #[test]
    fn a_loaded_shard_keeps_its_placements_and_ships_the_rest_once() {
        let (agent, sent, records) = loaded("ships", 1);
        let (v, locator) = (&agent.view, &agent.locator);
        assert!(locator.replication_factor(v.sketch.estimate(HUB)) > 1);
        let (mut all, mut kept, mut hub) = (0, 0, [0, 0]);
        for (u, lists) in ring() {
            for (side, others) in [Side::Out, Side::In].into_iter().zip(lists) {
                for w in others {
                    let p = (side, u, w);
                    let owner = locator.owner_of_edge(u, w, v.sketch.estimate(u));
                    let held = agent.vertices.get(&u).is_some_and(|e| {
                        [e.adj.out(), e.adj.inn()][usize::from(side == Side::In)].contains(&w)
                    });
                    let here = owner == Some(ME);
                    let gone = sent.iter().filter(|s| s.0 == p).map(|s| s.1);
                    assert_eq!(held, here, "{p:?} held here");
                    let want = owner.filter(|_| !here);
                    assert_eq!(Vec::from_iter(gone), Vec::from_iter(want), "{p:?} sent");
                    all += 1;
                    kept += usize::from(here);
                    hub[usize::from(here)] += usize::from(u == HUB);
                }
            }
        }
        assert_eq!(sent.len(), all - kept, "a placement no shard held left");
        assert!(hub[0] > 0 && hub[1] > 0, "the hub is placed edge by edge");
        assert_eq!(agent.total().mig_sent, records);
        assert_eq!(agent.total().mig_recv, 0, "a load is not a receive");
        assert_eq!(agent.degrees.items(), all as i64);
    }

    /// A CKPT_LOAD answered twice — a retry that outlived its timeout —
    /// leaves the store, the migration counter and the degree counts as
    /// the first answer left them.
    #[test]
    fn a_retried_load_loads_nothing_twice() {
        let outcome = |(a, _, records): Loaded| {
            let store = BTreeMap::from_iter(a.vertices.iter().map(|(&v, e)| (v, e.clone())));
            let counts = [a.total().mig_sent, a.degrees.items() as u64];
            (store, records, counts)
        };
        assert!(outcome(loaded("once", 1)) == outcome(loaded("twice", 2)));
    }

    /// A shard cut short anywhere — mid-record, mid-length, at a frame
    /// boundary — one with trailing bytes, and one whose record carries
    /// a run-state flag are each refused whole: the load answers
    /// `ok: false` and merges nothing.
    #[test]
    fn a_damaged_shard_is_refused_whole() {
        let dir = ckpt_dir("damaged");
        let payload = save_ring(&dir);
        assert!(msg::shard_frames(&payload).is_some_and(|f| f.len() == 1));
        // The first record's flags: the frame count and length, the
        // frame's kind, tag, sender and record count, the vertex.
        let flags_at = 4 + 4 + 1 + 32 + 4 + 8;
        let cuts = [0, 3, 4, 7, 8, 30, flags_at, payload.len() - 1];
        let mut damaged: Vec<Vec<u8>> = cuts.map(|cut| payload[..cut].to_vec()).to_vec();
        damaged.push([&payload[..], &[0]].concat());
        for bit in (0..8).map(|b| 1 << b).filter(|b| RUN_STATE & b != 0) {
            damaged.push(payload.clone());
            damaged.last_mut().expect("pushed")[flags_at] |= bit;
        }
        // Two frames, the second dropped.
        let two = [&2u32.to_le_bytes(), &payload[4..], &payload[4..]].concat();
        assert!(msg::shard_frames(&two).is_some_and(|f| f.len() == 2));
        damaged.push(two[..payload.len()].to_vec());
        for (i, bytes) in damaged.into_iter().enumerate() {
            let mut store = CheckpointStore::open(&dir).expect("store");
            store.write_shard(1, 1, 9, 100, &bytes).expect("shard");
            let (transport, mut agent) = detached(view(1, &[ME], &[]));
            let report = load(&transport, &mut agent, &dir);
            assert!(!report.ok, "damaged shard {i} accepted");
            assert_eq!(agent.vertices.iter().count(), 0, "shard {i} merged");
            assert_eq!(agent.degrees.items(), 0, "shard {i} counted");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// A store saved with CKPT_SAVE loads back into an empty agent
        /// with CKPT_LOAD field for field, its states served: split
        /// hubs whose lists are cut across frames, husks with a state
        /// and no edges, a non-meta entry whose degree went negative,
        /// dirty and active flags. Its placements are counted once.
        #[test]
        fn a_saved_store_loads_back_field_for_field(seed in any::<u64>(), n_hubs in 1usize..3) {
            let mut rng = SplitMix64::new(seed);
            let hubs: Vec<VertexId> = (0..n_hubs as u64).map(|h| 1_000 + h).collect();
            let (transport, mut saver) = detached(view(1, &[ME], &hubs));
            for _ in 0..rng.below(300) {
                let (u, w) = (rng.below(60), rng.below(60));
                saver.insert_out_edge(u, w);
                saver.insert_in_edge(u, w);
            }
            for &h in &hubs {
                for w in 0..8_000 + rng.below(4_000) {
                    saver.insert_out_edge(h, 10_000 + w);
                    saver.insert_in_edge(20_000 + w % 9, h);
                }
            }
            for v in (0..60).chain(hubs.iter().copied()) {
                let r = rng.next_u64();
                saver.edit(v, |e, _| {
                    (e.is_meta, e.g_out, e.g_in) = (r & 4 != 0, (r % 5) as i64, (r % 3) as i64);
                    e.dirty = e.is_meta && r & 8 != 0;
                    if r & 16 != 0 {
                        // A delete that beat its insert to the primary.
                        (e.is_meta, e.dirty, e.g_out, e.g_in) = (false, false, -1, 0);
                    }
                    // A state, its out-degree no less than the primary's
                    // (a restore adopts the larger), and its activity.
                    if r & 1 != 0 {
                        let out_degree = e.g_out.max(0) as u64 + r % 3;
                        (e.state, e.has_state, e.rep_out_degree) = (r >> 8, true, out_degree);
                        (e.active, e.snap, e.has_snap) = (r & 2 != 0, r >> 8, true);
                    }
                });
                if saver.vertices.get(&v).is_some_and(VertexEntry::is_empty) {
                    saver.vertices.remove(&v);
                }
            }
            let dir = ckpt_dir(&format!("prop-{seed}"));
            let payload = save(&transport, &mut saver, &dir);
            let (transport, mut agent) = detached(view(1, &[ME], &hubs));
            let report = load(&transport, &mut agent, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(msg::shard_frames(&payload).expect("valid").len() > n_hubs, "a hub is cut");
            prop_assert_eq!((report.ok, report.bytes), (true, payload.len() as u64));
            let store = |a: &Agent| BTreeMap::from_iter(a.vertices.iter().map(|(&v, e)| (v, e.clone())));
            prop_assert_eq!(store(&agent), store(&saver));
            let held = saver.vertices.held();
            prop_assert_eq!(agent.degrees.items(), (held[0] + held[1]) as i64);
            prop_assert_eq!((agent.total().mig_sent, agent.total().mig_recv), (0, 0));
        }
    }
}
