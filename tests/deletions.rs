//! Delete-heavy ingest: turnstile streams remove edges as often as
//! they add them (§2.3), and a high-degree vertex must not make each
//! removal cost a scan of its adjacency list. An agent finds an edge in
//! the list that stores it: a short list is scanned, a long one carries
//! its own table of positions, and a delete is a `swap_remove` either
//! way. This test drives tens of thousands of deletions through a
//! single hub, then shrinks the hub below the scan length and grows and
//! shrinks it again, checking the surviving graph after each phase and
//! an analysis on it after the storm and at the end.

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
