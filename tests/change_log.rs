//! The retained change log's footprint, and the agents' stores beside
//! it. Without a checkpoint directory the streamer keeps every change
//! it ever sent, so edges lost with a dead agent can be replayed: on a
//! long stream that log is most of the process's memory. It packs its
//! records (LEB128 ids and an action bit); one held as 24-byte
//! `EdgeChange`s would fail this gate. An agent finds an edge through
//! the list that holds it; agent-wide position maps beside the lists
//! would fail the store's gate.

use elga::gen::{rmat, RmatParams};
use elga::prelude::*;

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
    assert_eq!(
        log.retained, log.ingested,
        "no checkpoint, nothing truncated"
    );
    assert!(log.retained >= 200_000);
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
    cluster.shutdown();
}
