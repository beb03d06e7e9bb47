//! The retained change log's footprint, and the agents' stores and
//! owner memos beside it. A recovery replays the whole log, so the streamer keeps each
//! edge's last change since the log's base, compacted whenever the
//! deletes since the last compaction reach half of that, plus the
//! changes since. Without a checkpoint the base is the empty graph and
//! the log stays near the size of the graph under churn; past a
//! checkpoint it stays near the edges touched since. A log that kept
//! every change would fail both churn gates. It packs its records (a
//! head byte and the ids' significant bytes); one held as 24-byte
//! `EdgeChange`s would fail the byte gate. An agent finds an edge
//! through the list that holds it; agent-wide position maps beside the
//! lists would fail the store's gate.

use elga::gen::{rmat, RmatParams};
use elga::prelude::*;
use std::collections::HashSet;

#[test]
fn an_rmat_stream_costs_the_log_at_most_eight_bytes_a_record() {
    let mut cluster = Cluster::builder().agents(2).build();
    // Graph500 R-MAT at scale 15, then a third of it deleted again.
    let edges = rmat(15, 160_000, RmatParams::GRAPH500, 0x10C);
    let inserts = edges.iter().map(|&(u, v)| EdgeChange::insert(u, v));
    let deletes = edges
        .iter()
        .step_by(3)
        .map(|&(u, v)| EdgeChange::delete(u, v));
    let stream: Vec<EdgeChange> = inserts.chain(deletes).collect();
    for batch in stream.chunks(20_000) {
        cluster.ingest_async(batch);
    }
    cluster.quiesce().expect("quiesce");

    let log = cluster.change_log_stats();
    assert_eq!((log.base, log.ingested), (0, stream.len() as u64));
    assert!(log.retained >= 100_000);
    let per_record = log.heap_bytes as f64 / log.retained as f64;
    assert!(
        per_record <= 8.0,
        "the change log holds {} B for {} records: {per_record:.2} B a record",
        log.heap_bytes,
        log.retained
    );

    // The agents' stores on the same stream, every edge held twice (an
    // out- and an in-placement): ~52 B a placement for the vertex maps,
    // the adjacency lists and their indexes. Agent-wide `(src, dst) →
    // position` maps beside the lists cost ~52 B a placement more.
    let m = cluster.metrics();
    let per_placement = m.store_bytes as f64 / (2 * m.edges) as f64;
    assert!(
        per_placement <= 62.0,
        "the stores hold {} B for {} edges: {per_placement:.2} B a placement",
        m.store_bytes,
        m.edges
    );
    // Each agent's one owner memo beside them: ~5.2 B a placement, a
    // 48-byte map slot per vertex the agent resolved.
    let per_placement = m.owner_cache_bytes as f64 / (2 * m.edges) as f64;
    assert!(
        per_placement <= 6.2,
        "the owner memos hold {} B for {} edges: {per_placement:.2} B a placement",
        m.owner_cache_bytes,
        m.edges
    );
    cluster.shutdown();
}

/// `count` edges from `stream` that are not self-loops and not in
/// `used`.
fn fresh(
    stream: &mut impl Iterator<Item = (u64, u64)>,
    used: &mut HashSet<(u64, u64)>,
    count: usize,
) -> Vec<(u64, u64)> {
    stream
        .filter(|&(u, v)| u != v && used.insert((u, v)))
        .take(count)
        .collect()
}

type Edges = Vec<(u64, u64)>;

const CORE: usize = 70_000;
const SLAB: usize = 7_000;
const BATCHES: usize = 40;

/// A small `bulk_rmat`: an R-MAT core that stays, and two slabs of
/// fresh edges that take turns — batch `k` inserts one and deletes the
/// other — so the graph keeps its size while the stream grows.
fn core_and_slabs() -> (Edges, [Edges; 2]) {
    let mut stream = rmat(15, 2 * (CORE + 2 * SLAB), RmatParams::GRAPH500, 0xC4).into_iter();
    let mut used = HashSet::new();
    let core = fresh(&mut stream, &mut used, CORE);
    let slabs = [0, 1].map(|_| fresh(&mut stream, &mut used, SLAB));
    assert!(core.len() == CORE && slabs.iter().all(|s| s.len() == SLAB));
    (core, slabs)
}

/// Run the slabs' churn on a cluster that holds the core and slab 1:
/// the graph keeps its size, and the log's heap bytes peak no higher in
/// batches 20–40 than before.
fn churn(cluster: &mut Cluster, slabs: &[Edges; 2]) {
    let mut heap = Vec::new();
    for k in 0..BATCHES {
        let (ins, del) = (&slabs[k % 2], &slabs[(k + 1) % 2]);
        let batch: Vec<EdgeChange> = ins
            .iter()
            .zip(del)
            .flat_map(|(&(iu, iv), &(du, dv))| {
                [EdgeChange::insert(iu, iv), EdgeChange::delete(du, dv)]
            })
            .collect();
        cluster.ingest_async(&batch);
        cluster.quiesce().expect("quiesce");
        heap.push(cluster.change_log_stats().heap_bytes);
    }
    let live = (CORE + SLAB) as u64;
    assert_eq!(
        cluster.metrics().edges,
        live,
        "churn left the graph's size alone"
    );
    let first = heap[..BATCHES / 2].iter().max();
    let second = heap[BATCHES / 2..].iter().max();
    assert!(
        second <= first,
        "the log grew with the stream: peak {second:?} B in batches 20–40, {first:?} B before"
    );
}

/// Each compaction shrinks the log back to the live edges, a few
/// batches apart; a log that kept every change would hold 40 batches of
/// them.
#[test]
fn a_churned_stream_keeps_the_log_near_the_live_graph() {
    let (core, slabs) = core_and_slabs();
    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(core.iter().chain(&slabs[1]).copied());
    churn(&mut cluster, &slabs);

    let live = (CORE + SLAB) as u64;
    let log = cluster.change_log_stats();
    let ingested = (CORE + SLAB + BATCHES * 2 * SLAB) as u64;
    assert_eq!((log.base, log.ingested), (0, ingested));
    assert!(
        log.retained < ingested / 2,
        "{} records retained",
        log.retained
    );
    let per_edge = log.heap_bytes as f64 / live as f64;
    assert!(
        per_edge <= 12.0,
        "the change log holds {} B for {live} live edges: {per_edge:.2} B an edge",
        log.heap_bytes
    );
    cluster.shutdown();
}

/// The same churn past a checkpoint: the log's base is the checkpoint,
/// so a compaction keeps the slabs' deletes and folds the log back to
/// the two slabs' edges, a few batches apart. A log that kept every
/// change since the checkpoint would hold 40 batches of them.
#[test]
fn a_churned_stream_past_a_checkpoint_keeps_the_log_bounded() {
    let dir = std::env::temp_dir().join(format!("elga-change-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (core, slabs) = core_and_slabs();
    let mut cluster = Cluster::builder().agents(2).checkpoints(&dir).build();
    cluster.ingest_edges(core.iter().chain(&slabs[1]).copied());
    assert!(cluster.checkpoint().expect("checkpoint").committed);
    churn(&mut cluster, &slabs);

    let log = cluster.change_log_stats();
    let loaded = (CORE + SLAB) as u64;
    assert_eq!(
        (log.base, log.ingested),
        (loaded, loaded + (BATCHES * 2 * SLAB) as u64)
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
