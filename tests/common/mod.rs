//! What several test binaries share: a cluster's holdings, read back
//! through a checkpoint.

// Each binary that declares this module uses a part of it.
#![allow(dead_code)]

use elga::ckpt::CheckpointStore;
use elga::core::msg::{self, MigMeta, MigVertex};
use elga::prelude::*;

/// One vertex as a checkpoint shard holds it: the head of its record
/// (flags, state, replica out-degree; list lengths zeroed), its meta —
/// the degrees — when it has one, and its out- and in-list, the records
/// a long list was cut across joined again.
#[derive(Debug, Default)]
pub struct Held {
    pub head: MigVertex,
    pub meta: Option<MigMeta>,
    pub out: Vec<u64>,
    pub inn: Vec<u64>,
}

/// Checkpoint `cluster` and read every agent's shard back: each vertex
/// entry an agent holds, agent by agent.
pub fn checkpointed(cluster: &mut Cluster) -> Vec<Held> {
    let report = cluster.checkpoint().expect("checkpoint");
    assert!(report.committed, "checkpoint must commit");
    let dir = cluster.config().checkpoint_dir.clone().expect("dir");
    let store = CheckpointStore::open(dir).expect("open store");
    let mut held = Vec::new();
    for agent in cluster.agent_ids() {
        let (_, payload) = store
            .read_shard(report.generation, agent)
            .expect("read shard");
        // A shard holds each vertex once: a record of the vertex before
        // it is the rest of a cut.
        let mut shard: Vec<Held> = Vec::new();
        for frame in msg::shard_frames(&payload).expect("a shard's frames") {
            let view = msg::decode_mig_vertex(&frame).expect("a MIG_VERTEX frame");
            for (head, tail) in view.records.tailed() {
                let (meta, out, inn) = head.read_tail(tail);
                if shard.last().is_none_or(|h| h.head.vertex != head.vertex) {
                    let head = MigVertex {
                        n_out: 0,
                        n_in: 0,
                        ..head
                    };
                    shard.push(Held {
                        head,
                        ..Held::default()
                    });
                }
                let h = shard.last_mut().expect("just pushed");
                h.head.flags |= head.flags;
                h.meta = meta;
                h.out.extend(out);
                h.inn.extend(inn);
            }
        }
        held.extend(shard);
    }
    held
}
