//! Delete-heavy ingest: turnstile streams remove edges as often as
//! they add them (§2.3), and a high-degree vertex must not make each
//! removal cost a scan of its adjacency list. An agent finds an edge in
//! the list that stores it: a short list is scanned, a long one carries
//! its own table of positions, and a delete is a `swap_remove` either
//! way. This test drives tens of thousands of deletions through a
//! single hub, then shrinks the hub below the scan length and grows and
//! shrinks it again, checking the surviving graph after each phase and
//! an analysis on it after the storm and at the end.
//!
//! With replication on, hubs are churned across the threshold: the
//! deletes in a crossing batch must not race the re-placement the
//! crossing causes.

mod common;

use elga::graph::reference;
use elga::prelude::*;
use std::collections::HashSet;
use std::time::Instant;

const HUB: u64 = 0;
const SPOKES: u64 = 20_000;

/// Feed `changes` to `cluster` and to the edge-set model, then check the
/// cluster's edge gauge against it.
fn ingest(cluster: &mut Cluster, edges: &mut HashSet<(u64, u64)>, changes: &[EdgeChange]) {
    cluster.ingest(changes.iter().copied());
    for c in changes {
        let pair = (c.edge.src, c.edge.dst);
        if c.is_insert() {
            edges.insert(pair);
        } else {
            edges.remove(&pair);
        }
    }
    cluster.quiesce().expect("quiesce");
    assert_eq!(
        cluster.metrics().edges,
        edges.len() as u64,
        "agents hold exactly the surviving out-placements"
    );
}

/// WCC over the survivors matches the single-threaded reference:
/// adjacency lists and degree metadata came through intact.
fn assert_wcc(cluster: &mut Cluster, edges: &HashSet<(u64, u64)>) {
    cluster.run(Wcc::new()).expect("wcc");
    let truth = reference::wcc(edges.iter().copied());
    let got = cluster.dump_states();
    assert_eq!(got.len(), truth.len(), "vertex set after churn");
    for (v, &label) in &truth {
        assert_eq!(got.get(v), Some(&label), "wcc v{v}");
    }
}

#[test]
fn hub_deletion_storm_leaves_a_consistent_graph() {
    let mut cluster = Cluster::builder().agents(2).build();
    let mut edges: HashSet<(u64, u64)> = HashSet::new();

    // A hub with 20k out-edges plus a ring so the graph stays connected
    // for the survivors.
    let mut inserts: Vec<EdgeChange> = (1..=SPOKES).map(|s| EdgeChange::insert(HUB, s)).collect();
    for s in 1..SPOKES {
        inserts.push(EdgeChange::insert(s, s + 1));
    }
    ingest(&mut cluster, &mut edges, &inserts);

    // Interleaved churn: delete every even spoke, re-insert every
    // fourth, delete a band of ring edges — each delete finds its edge
    // through the hub's (or a ring vertex's) list, never a long scan.
    let mut churn: Vec<EdgeChange> = Vec::new();
    for s in (2..=SPOKES).step_by(2) {
        churn.push(EdgeChange::delete(HUB, s));
        if s % 4 == 0 {
            churn.push(EdgeChange::insert(HUB, s));
        }
    }
    for s in 5_000..6_000u64 {
        churn.push(EdgeChange::delete(s, s + 1));
    }
    // Deleting a never-inserted edge must be a no-op.
    churn.push(EdgeChange::delete(HUB, SPOKES + 77));
    let started = Instant::now();
    ingest(&mut cluster, &mut edges, &churn);
    let churn_time = started.elapsed();
    // O(deg) removal would put ~10k scans over a ~20k-entry list on
    // this path (tens of seconds in debug builds); the indexed path is
    // well under this generous bound.
    assert!(
        churn_time.as_secs() < 60,
        "deletion storm took {churn_time:?} — deletes are not O(1)"
    );
    assert_wcc(&mut cluster, &edges);

    // Down to ten spokes, under the 32-id scan length: the hub's lists
    // drop their tables. The ring goes too, so what is left is a star
    // and WCC says which spokes the hub kept. Then up past the scan
    // length again and back down, with re-inserts of spokes deleted
    // above and deletes of absent ones.
    let spokes: Vec<u64> = (1..=SPOKES)
        .filter(|&s| edges.contains(&(HUB, s)))
        .collect();
    let mut shrink: Vec<EdgeChange> = spokes[10..]
        .iter()
        .map(|&s| EdgeChange::delete(HUB, s))
        .collect();
    shrink.extend(
        edges
            .iter()
            .filter(|e| e.0 != HUB)
            .map(|&(u, v)| EdgeChange::delete(u, v)),
    );
    ingest(&mut cluster, &mut edges, &shrink);
    assert_eq!(edges.iter().filter(|e| e.0 == HUB).count(), 10);
    let regrow: Vec<EdgeChange> = spokes[10..110]
        .iter()
        .map(|&s| EdgeChange::insert(HUB, s))
        .collect();
    ingest(&mut cluster, &mut edges, &regrow);
    let mut again: Vec<EdgeChange> = spokes[..90]
        .iter()
        .map(|&s| EdgeChange::delete(HUB, s))
        .collect();
    again.push(EdgeChange::delete(HUB, spokes[500]));
    again.push(EdgeChange::insert(HUB, spokes[20]));
    ingest(&mut cluster, &mut edges, &again);
    assert_eq!(edges.iter().filter(|e| e.0 == HUB).count(), 21);
    assert_wcc(&mut cluster, &edges);
    cluster.shutdown();
}

/// Every out-placement the agents hold, read back through a checkpoint.
fn held_out_edges(cluster: &mut Cluster) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for r in common::checkpointed(cluster) {
        out.extend(r.out.iter().map(|&w| (r.head.vertex, w)));
    }
    out.sort_unstable();
    out
}

/// Replication on, and eight hubs churned across a small threshold and
/// back. Each batch that takes a hub over the threshold also deletes
/// some of its spokes, and the crossing re-places a hub's edges. The
/// agents count the changes they applied, so the epoch that re-places
/// them opens once the batch is applied: a delete is never on its way
/// to the new owner while the edge it deletes migrates there, and none
/// comes back. (Counted by the streamer as the batch was routed, the
/// crossing re-placed the edges under the batch's own deletes.)
#[test]
fn hubs_churned_across_the_replication_threshold_keep_the_exact_graph() {
    const RING: u64 = 20_000;
    let dir = std::env::temp_dir().join(format!("elga-deletions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SystemConfig {
        replication_threshold: 40,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder()
        .agents(2)
        .config(cfg)
        .checkpoints(&dir)
        .build();
    let mut edges: HashSet<(u64, u64)> = HashSet::new();
    // Spoke `i` of hub `h`: distinct ring vertices for `i < RING`.
    let spoke = |h: u64, i: u64| (h, (h * 7919 + i * 4729) % RING);
    let hubs: Vec<u64> = (RING..RING + 8).collect();
    // A ring long enough that every agent holds thousands of vertices,
    // and 30 spokes a hub: every estimate under the threshold.
    let mut setup: Vec<EdgeChange> = (0..RING)
        .map(|v| EdgeChange::insert(v, (v + 1) % RING))
        .collect();
    for &h in &hubs {
        setup.extend(
            (0..30)
                .map(|i| spoke(h, i))
                .map(|(u, v)| EdgeChange::insert(u, v)),
        );
    }
    ingest(&mut cluster, &mut edges, &setup);
    let factor = |cluster: &Cluster, h: u64| {
        let view = cluster.view();
        view.locator().replication_factor(view.degree_estimate(h))
    };
    assert!(hubs.iter().all(|&h| factor(&cluster, h) == 1));
    // Up across, one hub a batch: 30 spokes in, 10 of the old ones out.
    for &h in &hubs {
        let mut up: Vec<EdgeChange> = (30..60)
            .map(|i| spoke(h, i))
            .map(|(u, v)| EdgeChange::insert(u, v))
            .collect();
        up.extend(
            (0..10)
                .map(|i| spoke(h, i))
                .map(|(u, v)| EdgeChange::delete(u, v)),
        );
        ingest(&mut cluster, &mut edges, &up);
        assert_eq!(factor(&cluster, h), 2, "hub {h} split");
    }
    // And back down: 30 more out.
    for &h in &hubs {
        let down: Vec<EdgeChange> = (10..40)
            .map(|i| spoke(h, i))
            .map(|(u, v)| EdgeChange::delete(u, v))
            .collect();
        ingest(&mut cluster, &mut edges, &down);
    }
    let mut want: Vec<(u64, u64)> = edges.iter().copied().collect();
    want.sort_unstable();
    assert_eq!(held_out_edges(&mut cluster), want, "the final edge set");
    assert_wcc(&mut cluster, &edges);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
