//! An ingest batch is not a view change — by counts, not clocks.
//!
//! The agents count the degree changes they apply and the lead folds
//! them into its sketch without a view epoch unless a counter crosses a
//! replication-factor boundary: no VIEW, no migrate barrier, and every
//! participant keeps the owner memo it has. A batch that changes some
//! vertex's `k` is a view change, opened once the batch was applied.
//! Either way the answers are the reference's, and the lead's table is
//! the count-min sketch of the graph the agents hold.
//!
//! A test binary of its own, so its runs do not load the
//! scheduler-sensitive async tests of the other binaries (ROADMAP
//! item 2).

mod common;

use elga::core::program::RunOptions;
use elga::core::streamer::Streamer;
use elga::graph::csr::Csr;
use elga::graph::reference;
use elga::prelude::*;
use elga::sketch::CountMinSketch;
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

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

/// The count-min sketch of the graph `held`, at `cluster`'s dimensions:
/// each vertex counted once per placement it has, out and in (a
/// self-loop twice).
fn sketch_of<'a>(
    cluster: &Cluster,
    held: impl IntoIterator<Item = &'a (u64, u64)>,
) -> CountMinSketch {
    let cfg = cluster.config();
    let mut sketch = CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth);
    for &(u, v) in held {
        sketch.add(u, 1);
        sketch.add(v, 1);
    }
    sketch
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

    let last = cluster.view();
    assert_eq!(last.epoch, first.epoch, "an ingest batch opened an epoch");
    assert_eq!(last.batch_id, 52);
    assert_eq!(
        last.sketch,
        sketch_of(&cluster, &edges),
        "the lead's table counts the held edges, the duplicate batch once"
    );
    assert!(!last.may_split());
    assert_eq!(streamer.view().epoch, first.epoch);
    cluster.shutdown();
}

/// Both placements' edge multisets, read back through a checkpoint.
fn held_edges(cluster: &mut Cluster) -> (Edges, Edges) {
    let (mut out, mut inn) = (Vec::new(), Vec::new());
    for r in common::checkpointed(cluster) {
        out.extend(r.out.iter().map(|&w| (r.head.vertex, w)));
        inn.extend(r.inn.iter().map(|&u| (u, r.head.vertex)));
    }
    out.sort_unstable();
    inn.sort_unstable();
    (out, inn)
}

#[test]
fn an_epoch_opens_if_and_only_if_some_replication_factor_changed() {
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
    assert_eq!(cluster.view().epoch, epoch, "under the threshold");

    // 100 edges out of one vertex: its counters cross the threshold,
    // once the batch is applied.
    let hub: Edges = (1..=100).map(|i| (0, (i * 5 + 1) % N)).collect();
    cluster.ingest_edges(hub.iter().copied());
    edges.extend(hub.iter().copied());
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

    // With a split possible, a batch that moves no counter across a
    // factor boundary is no view change; nor is a batch of duplicates,
    // nor one of deletes of absent edges, and those two move no cell.
    cluster.ingest_edges(batch(5));
    edges.extend(batch(5));
    edges.sort_unstable();
    assert_eq!(cluster.view().epoch, epoch + 1, "a batch that moved no k");
    let table = cluster.view().sketch;
    assert_eq!(table, sketch_of(&cluster, &edges));
    cluster.ingest_edges(batch(5));
    let absent: Vec<EdgeChange> = (0..16)
        .map(|j| EdgeChange::delete(j, (j + 300) % N))
        .filter(|c| edges.binary_search(&(c.edge.src, c.edge.dst)).is_err())
        .collect();
    assert!(!absent.is_empty());
    cluster.ingest(absent);
    assert_eq!(
        cluster.view().sketch,
        table,
        "duplicates and absent deletes"
    );
    assert_eq!(cluster.view().epoch, epoch + 1);
    assert_eq!(held_edges(&mut cluster).0, edges);

    // Deleting most of the hub takes its counters back under the
    // threshold: that is a view change too, and nothing can split.
    let gone: Vec<EdgeChange> = hub[..60]
        .iter()
        .map(|&(u, v)| EdgeChange::delete(u, v))
        .collect();
    cluster.ingest(gone);
    let kept: HashSet<(u64, u64)> = hub[..60].iter().copied().collect();
    edges.retain(|e| !kept.contains(e));
    let view = cluster.view();
    assert_eq!(view.epoch, epoch + 2, "the hub is whole again");
    assert!(!view.may_split());
    assert_eq!(view.sketch, sketch_of(&cluster, &edges));
    assert_eq!(held_edges(&mut cluster).0, edges);
    assert_answers_match(&mut cluster, &edges, "hub whole again");
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

/// Check the lead's table against the graph `held` after a `quiesce`.
fn assert_table_counts(cluster: &Cluster, held: &HashSet<(u64, u64)>, what: &str) {
    cluster.quiesce().expect("quiesce");
    let table = cluster.view().sketch;
    let want = sketch_of(cluster, held);
    assert_eq!(table, want, "{what}");
    for &(u, v) in held {
        assert!(table.estimate(u) >= 1 && table.estimate(v) >= 1, "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    /// The lead's table is the count-min sketch of the graph the agents
    /// hold — never of the changes sent — after every batch of a churn
    /// stream with duplicate inserts, deletes of absent edges and
    /// re-inserts, and after a join, a leave and a killed agent's
    /// recovery. Every estimate is then at least the vertex's held
    /// degree.
    #[test]
    fn the_leads_table_counts_the_graph_the_agents_hold(
        agents in 2usize..4,
        batches in prop::collection::vec(
            prop::collection::vec((0u64..12, 0u64..12, 0u8..3), 1..40),
            1..5,
        ),
    ) {
        let cfg = SystemConfig {
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_misses: 10,
            quiesce_deadline: Duration::from_secs(30),
            run_deadline: Duration::from_secs(60),
            ..SystemConfig::default()
        };
        let mut cluster = Cluster::builder().agents(agents).config(cfg).build();
        // A ring the churn never touches keeps the run below long
        // enough to be killed in.
        let ring: Vec<(u64, u64)> = (100..116).map(|v| (v, 100 + (v - 99) % 16)).collect();
        cluster.ingest_edges(ring.iter().copied());
        let mut held: HashSet<(u64, u64)> = ring.into_iter().collect();
        for (i, ops) in batches.iter().enumerate() {
            // One op in three a delete, mostly of absent edges at first.
            let changes: Vec<EdgeChange> = ops
                .iter()
                .map(|&(u, v, op)| match op {
                    0 => EdgeChange::delete(u, v),
                    _ => EdgeChange::insert(u, v),
                })
                .collect();
            cluster.ingest_async(&changes);
            for c in &changes {
                let e = (c.edge.src, c.edge.dst);
                if c.is_insert() {
                    held.insert(e);
                } else {
                    held.remove(&e);
                }
            }
            assert_table_counts(&cluster, &held, &format!("batch {i}"));
        }
        cluster.add_agents(1);
        assert_table_counts(&cluster, &held, "after a join");
        cluster.remove_agents(1);
        assert_table_counts(&cluster, &held, "after a leave");
        // Killed before the run starts: the run cannot pass its first
        // barrier until the lead evicts the victim, and the driver
        // recovers and restarts it.
        let victim = cluster.agent_ids()[1];
        cluster.kill_agent(victim);
        let handle = cluster
            .start_run(PageRank::new(0.85).with_max_iters(30), RunOptions::default())
            .expect("start run");
        cluster.wait_run(handle).expect("the run survives the crash");
        prop_assert_eq!(cluster.agent_count(), agents - 1);
        assert_table_counts(&cluster, &held, "after a recovery");
        cluster.shutdown();
    }
}
