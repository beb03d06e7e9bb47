//! The retained change log's footprint. Without a checkpoint directory
//! the streamer keeps every change it ever sent, so edges lost with a
//! dead agent can be replayed: on a long stream that log is most of the
//! process's memory. It packs its records (LEB128 ids and an action
//! bit); one held as 24-byte `EdgeChange`s would fail this gate.

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
    cluster.shutdown();
}
