//! An ingest batch is not a view change — by counts, not clocks.
//!
//! While no vertex can be split, a batch's sketch delta folds at the
//! lead without a view epoch: no VIEW, no migrate barrier, and every
//! participant keeps the owner memo it has. A batch that makes a split
//! possible is the view change it always was. Either way the answers
//! are the reference's.
//!
//! A test binary of its own, so its 50 runs do not load the
//! scheduler-sensitive async tests of the other binaries (ROADMAP
//! item 2).

use elga::ckpt::CheckpointStore;
use elga::core::ckpt_codec;
use elga::core::streamer::Streamer;
use elga::graph::csr::Csr;
use elga::graph::reference;
use elga::prelude::*;
use elga::sketch::DegreeEstimator;

/// Vertices `0..N`, all on the base ring.
const N: u64 = 600;

type Edges = Vec<(u64, u64)>;

/// A ring with a chord from every 7th vertex.
fn base_graph() -> Edges {
    let mut edges: Edges = (0..N).map(|v| (v, (v + 1) % N)).collect();
    edges.extend((0..N).step_by(7).map(|v| (v, (v * 5 + 3) % N)));
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Batch `i`: 16 chords no other batch and no base edge repeats.
fn batch(i: u64) -> Edges {
    (0..16)
        .map(|j| {
            let u = (i * 16 + j) % N;
            (u, (u + 2 + i) % N)
        })
        .collect()
}

fn inserts(edges: &[(u64, u64)]) -> Vec<EdgeChange> {
    edges
        .iter()
        .map(|&(u, v)| EdgeChange::insert(u, v))
        .collect()
}

fn streamer(cluster: &Cluster) -> Streamer {
    Streamer::connect(
        cluster.transport(),
        cluster.config().clone(),
        cluster.lead_directory(),
    )
    .expect("streamer")
}

fn client(cluster: &Cluster) -> QueryClient {
    QueryClient::connect(
        cluster.transport(),
        cluster.config().clone(),
        cluster.lead_directory(),
    )
    .expect("query client")
}

/// A from-scratch WCC and a 10-iteration PageRank over what the cluster
/// holds, against the references over `edges`.
fn assert_answers_match(cluster: &mut Cluster, edges: &[(u64, u64)], what: &str) {
    cluster.run(Wcc::new()).expect("wcc");
    let labels = cluster.dump_states();
    let want = reference::wcc(edges.iter().copied());
    assert_eq!(labels.len(), want.len(), "{what}: vertex count");
    for (v, &label) in &want {
        assert_eq!(labels[v], label, "{what}: wcc label of v{v}");
    }
    cluster
        .run(PageRank::new(0.85).with_max_iters(10))
        .expect("pagerank");
    let ranks = cluster.dump_states();
    let want = reference::pagerank(&Csr::from_edges(Some(N as usize), edges), 0.85, 10);
    for (v, &rank) in want.iter().enumerate() {
        let got = f64::from_bits(ranks[&(v as u64)]);
        assert!(
            (got - rank).abs() < 1e-9,
            "{what}: rank of v{v}: {got} vs {rank}"
        );
    }
}

#[test]
fn small_batches_fold_at_the_lead_and_every_memo_survives_them() {
    let mut cluster = Cluster::builder().agents(3).build();
    let mut edges = base_graph();
    cluster.ingest_edges(edges.iter().copied());
    let mut sketch =
        DegreeEstimator::new(cluster.config().sketch_width, cluster.config().sketch_depth);
    edges.iter().for_each(|&(u, v)| sketch.record_edge(u, v));
    let first = cluster.view();
    assert_eq!(first.batch_id, 1);

    let mut streamer = streamer(&cluster);
    for i in 0..50 {
        let chords = batch(i);
        let (_, misses) = streamer.cache_stats();
        streamer.send_batch(&inserts(&chords)).expect("send");
        cluster.quiesce().expect("quiesce");
        if i * 16 >= N {
            // Every vertex has been a source by now: this batch's are
            // served from entries earlier batches left.
            assert_eq!(
                streamer.cache_stats().1,
                misses,
                "batch {i}: memo was emptied"
            );
        }
        chords.iter().for_each(|&(u, v)| sketch.record_edge(u, v));
        edges.extend(chords);
        assert_answers_match(&mut cluster, &edges, &format!("after batch {i}"));
    }
    let (hits, misses) = streamer.cache_stats();
    assert_eq!(misses, N, "one resolution per vertex, for good");
    assert_eq!(hits + misses, 2 * 50 * 16);

    // The agents' memos outlive a batch too: the same batch again costs
    // them no resolution (every record is a duplicate; routing it is
    // all that happens).
    let resolved = cluster.metrics().owner_cache_misses;
    streamer.send_batch(&inserts(&batch(49))).expect("send");
    cluster.quiesce().expect("quiesce");
    assert_eq!(cluster.metrics().owner_cache_misses, resolved);
    batch(49)
        .iter()
        .for_each(|&(u, v)| sketch.record_edge(u, v));

    let last = cluster.view();
    assert_eq!(last.epoch, first.epoch, "an ingest batch opened an epoch");
    assert_eq!(last.batch_id, 52);
    assert_eq!(&last.sketch, sketch.sketch(), "the lead's table");
    assert!(!last.may_split());
    assert_eq!(streamer.view().epoch, first.epoch);
    cluster.shutdown();
}

/// Both placements' edge multisets, read back through a checkpoint.
fn held_edges(cluster: &mut Cluster) -> (Edges, Edges) {
    let report = cluster.checkpoint().expect("checkpoint");
    assert!(report.committed, "checkpoint must commit");
    let dir = cluster.config().checkpoint_dir.clone().expect("dir");
    let store = CheckpointStore::open(dir).expect("open store");
    let (mut out, mut inn) = (Vec::new(), Vec::new());
    for agent in cluster.agent_ids() {
        let (_, payload) = store
            .read_shard(report.generation, agent)
            .expect("read shard");
        for r in ckpt_codec::decode_payload(&payload).expect("decode shard") {
            out.extend(r.out.iter().map(|&w| (r.vertex, w)));
            inn.extend(r.inn.iter().map(|&u| (u, r.vertex)));
        }
    }
    out.sort_unstable();
    inn.sort_unstable();
    (out, inn)
}

#[test]
fn a_batch_that_lifts_the_bound_is_a_view_change() {
    let dir = std::env::temp_dir().join(format!("elga-ingest-epoch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SystemConfig {
        replication_threshold: 64,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder()
        .agents(3)
        .config(cfg)
        .checkpoints(&dir)
        .build();
    let mut edges = base_graph();
    cluster.ingest_edges(edges.iter().copied());
    let epoch = cluster.view().epoch;
    for i in 0..5 {
        cluster.ingest_edges(batch(i));
        edges.extend(batch(i));
    }
    assert_eq!(cluster.view().epoch, epoch, "under the bound");

    // 100 edges out of one vertex: its estimate crosses the threshold.
    let hub: Edges = (1..=100).map(|i| (0, (i * 5 + 1) % N)).collect();
    cluster.ingest_edges(hub.iter().copied());
    edges.extend(hub);
    edges.sort_unstable();
    edges.dedup();
    let view = cluster.view();
    assert_eq!(view.epoch, epoch + 1, "the crossing is one view change");
    assert!(view.may_split());
    assert!(
        view.locator().replication_factor(view.degree_estimate(0)) > 1,
        "the hub is split"
    );
    let (out, inn) = held_edges(&mut cluster);
    assert_eq!(out, edges, "out-placements");
    assert_eq!(out, inn, "both placements hold every edge");
    assert_answers_match(&mut cluster, &edges, "hub split");

    // With a split possible every batch is a view change, as before.
    cluster.ingest_edges(batch(5));
    edges.extend(batch(5));
    edges.sort_unstable();
    assert_eq!(cluster.view().epoch, epoch + 2);
    assert_eq!(held_edges(&mut cluster).0, edges);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batches every agent tags its snapshot with, asked of all of them.
fn watermarks(client: &QueryClient) -> Vec<u64> {
    let all: Vec<u64> = (0..N).collect();
    let mut tags: Vec<u64> = client
        .query_batch(&all)
        .into_iter()
        .map(|a| a.expect("answer").watermark)
        .collect();
    tags.sort_unstable();
    tags.dedup();
    tags
}

#[test]
fn a_snapshot_is_tagged_with_the_batches_before_its_run_on_every_agent() {
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(base_graph());
    for i in 0..6 {
        cluster.ingest_edges(batch(i));
    }
    cluster.run(Wcc::new()).expect("wcc");
    let mut client = client(&cluster);
    assert_eq!(watermarks(&client), [7]);

    // A batch after the run is not in the snapshot, nor in its tag.
    cluster.ingest_edges(batch(6));
    assert_eq!(watermarks(&client), [7]);

    // A joiner serves the snapshots it was handed under their tag, and
    // tags the next run like everyone else.
    let epoch = cluster.view().epoch;
    cluster.add_agents(1);
    cluster.quiesce().expect("quiesce");
    client.refresh().expect("refresh");
    assert_eq!(client.view().agents.len(), 4);
    assert_eq!(watermarks(&client), [7]);
    cluster.ingest_edges(batch(7));
    cluster.run(Wcc::new()).expect("wcc");
    assert_eq!(watermarks(&client), [9]);
    assert_eq!(
        cluster.view().epoch,
        epoch + 1,
        "the join, and only the join"
    );
    cluster.shutdown();
}

/// `bench_e2e`'s cycle shapes: epochs opened per cycle.
#[test]
fn a_cycle_opens_an_epoch_per_membership_change_and_none_for_its_batch() {
    let mut cluster = Cluster::builder().agents(2).build();
    let mut edges = base_graph();
    cluster.ingest_edges(edges.iter().copied());
    let reuse = elga::core::program::RunOptions {
        reuse_state: true,
        mode: ExecutionMode::Sync,
    };
    cluster.run(Wcc::new()).expect("wcc");
    let epoch = cluster.view().epoch;
    for i in 0..20 {
        cluster.ingest_async(&inserts(&batch(i)));
        cluster.quiesce().expect("quiesce");
        cluster.run_with(Wcc::new(), reuse).expect("wcc");
    }
    assert_eq!(cluster.view().epoch, epoch, "ingest → quiesce → run");
    for i in 20..30 {
        cluster.ingest_async(&inserts(&batch(i)));
        cluster.quiesce().expect("quiesce");
        cluster.add_agents(1);
        cluster.quiesce().expect("quiesce");
        cluster.run_with(Wcc::new(), reuse).expect("wcc");
        cluster.remove_agents(1);
        cluster.quiesce().expect("quiesce");
    }
    assert_eq!(
        cluster.view().epoch,
        epoch + 20,
        "a join and a leave a cycle"
    );
    (0..30).for_each(|i| edges.extend(batch(i)));
    let labels = cluster.dump_states();
    for (v, &label) in &reference::wcc(edges.iter().copied()) {
        assert_eq!(labels[v], label, "wcc label of v{v}");
    }
    cluster.shutdown();
}
