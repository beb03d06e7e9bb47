//! What a view change costs and what it must preserve: migration is a
//! few large frames and a handful of READYs whatever the number of
//! vertices, and the cluster holds afterwards exactly what it held
//! before.
//!
//! A test binary of its own: two 6k-vertex view changes beside
//! `tests/elastic.rs` took its load-sensitive async storm test
//! (ROADMAP item 2) from failing one run in five to one in two.

mod common;

use elga::core::msg::{packet, DirectoryView, MigVertex};
use elga::net::CoalesceConfig;
use elga::prelude::*;
use elga::trace::{EventKind, TraceEvent};
use std::collections::BTreeMap;

/// Everything the cluster holds, independent of which agent holds it:
/// both placements' edge multisets and every primary's
/// `(g_out, g_in, state, snap)`.
#[derive(Debug, PartialEq)]
struct Holdings {
    out_edges: Vec<(u64, u64)>,
    in_edges: Vec<(u64, u64)>,
    primaries: BTreeMap<u64, (i64, i64, Option<u64>, Option<u64>)>,
}

/// Read the cluster's holdings back through a checkpoint (every
/// agent's whole partition, edge lists and primary meta included) and
/// the serving snapshot (one batched query over the primaries).
fn holdings(cluster: &mut Cluster) -> Holdings {
    let mut h = Holdings {
        out_edges: Vec::new(),
        in_edges: Vec::new(),
        primaries: BTreeMap::new(),
    };
    for r in common::checkpointed(cluster) {
        let v = r.head.vertex;
        h.out_edges.extend(r.out.iter().map(|&w| (v, w)));
        h.in_edges.extend(r.inn.iter().map(|&u| (u, v)));
        if r.head.has(MigVertex::IS_META) {
            let state = r.head.has(MigVertex::HAS_STATE).then_some(r.head.state);
            let meta = r.meta.unwrap_or_default();
            let degrees = (meta.out_degree as i64, meta.in_degree as i64);
            let dup = h.primaries.insert(v, (degrees.0, degrees.1, state, None));
            assert!(dup.is_none(), "two primaries hold v{v}");
        }
    }
    h.out_edges.sort_unstable();
    h.in_edges.sort_unstable();
    let client = QueryClient::connect(
        cluster.transport(),
        cluster.config().clone(),
        cluster.lead_directory(),
    )
    .expect("query client");
    let vertices: Vec<u64> = h.primaries.keys().copied().collect();
    let snaps = client.query_batch(&vertices);
    for (p, snap) in h.primaries.values_mut().zip(snaps) {
        p.3 = snap.map(|s| s.state);
    }
    h
}

/// Vertices whose primary (ring successor) differs between two views.
fn successors_moved(vertices: &[u64], a: &DirectoryView, b: &DirectoryView) -> u64 {
    let (a, b) = (a.locator(), b.locator());
    let moved = |v: &&u64| a.ring().owner(**v) != b.ring().owner(**v);
    vertices.iter().filter(moved).count() as u64
}

#[test]
fn view_change_frames_follow_bytes_not_vertices() {
    let edges = elga::gen::power_law(6_000, 24_000, 2.2, 7);
    let dir = std::env::temp_dir().join(format!("elga-view-change-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SystemConfig {
        tracing: true,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder()
        .agents(3)
        .config(cfg)
        .checkpoints(&dir)
        .build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).expect("wcc");

    // The undisturbed cluster is this one, before anything moves.
    let want = holdings(&mut cluster);
    assert!(want.primaries.len() >= 5_000 && want.out_edges.len() >= 15_000);
    assert!(
        want.primaries.values().all(|p| p.2.is_some() && p.2 == p.3),
        "every primary holds its label and serves it"
    );
    assert_eq!(
        want.out_edges, want.in_edges,
        "both placements hold every edge"
    );
    let vertices: Vec<u64> = want.primaries.keys().copied().collect();

    let net = cluster.transport().net_stats().expect("in-process stats");
    let max_bytes = CoalesceConfig::default().max_bytes as u64;
    // Returns how many vertices changed primary and, per agent still
    // in the view, what its placement sweep and its sends looked like.
    let check = |cluster: &mut Cluster, what: &str, change: &dyn Fn(&mut Cluster)| {
        let before = cluster.metrics().comms.migration;
        let (readys_before, _) = net.sent(packet::READY);
        let agents = cluster.agent_count() as u64;
        let view_before = cluster.view();
        cluster.collect_traces();
        change(cluster);
        cluster.quiesce().expect("quiesce");
        let tracks = cluster.collect_traces();
        let agents = agents.max(cluster.agent_count() as u64);
        let readys = net.sent(packet::READY).0 - readys_before;
        let after = cluster.metrics().comms.migration;
        let frames = after.frames_sent - before.frames_sent;
        let bytes = after.bytes_sent - before.bytes_sent;
        assert!(bytes > 100_000, "{what}: only {bytes} B migrated");
        assert!(
            frames <= bytes / max_bytes + 4 * agents,
            "{what}: {frames} migration frames for {bytes} B among {agents} agents"
        );
        assert!(
            readys < 64 * agents,
            "{what}: {readys} READY frames from {agents} agents"
        );
        assert_eq!(holdings(cluster), want, "{what}: holdings differ");
        let live: Vec<(TraceEvent, usize)> = cluster
            .agent_ids()
            .iter()
            .map(|id| {
                let name = format!("agent-{id}");
                let (_, evs) = tracks.iter().find(|(n, _)| *n == name).expect("track");
                let of = |kind| evs.iter().filter(move |e| e.kind == kind);
                let sweep = of(EventKind::MigrateSweep).next_back().expect("swept");
                (*sweep, of(EventKind::MigrateSend).count())
            })
            .collect();
        let moved = successors_moved(&vertices, &view_before, &cluster.view());
        (moved, live)
    };

    let misses_before = cluster.metrics().owner_cache_misses;
    let (joined, live) = check(&mut cluster, "join", &|c| {
        c.add_agents(1);
    });
    // Only what changes primary is shipped: the founders examine their
    // stores and move a part (every vertex is resident at its primary).
    let examined: u64 = live.iter().map(|(sweep, _)| sweep.a).sum();
    let moved: u64 = live.iter().map(|(sweep, _)| sweep.b).sum();
    assert!(examined >= vertices.len() as u64 && moved >= joined && moved < examined / 2);
    let (left, live) = check(&mut cluster, "leave", &|c| {
        c.remove_agents(1);
    });
    // A leave is the departer's business: every survivor looks at its
    // own store, finds nothing misplaced and sends nothing.
    for (sweep, sends) in live {
        assert!(sweep.a > 1_000, "a survivor examined {} entries", sweep.a);
        assert_eq!((sweep.b, sends), (0, 0), "a survivor shipped on the leave");
    }
    // Deciding placements costs the owner memos nothing they would not
    // pay anyway: no more resolutions than primaries that moved (it was
    // one per resident vertex per agent per view change).
    let misses = cluster.metrics().owner_cache_misses - misses_before;
    assert!(
        misses <= joined + left,
        "{misses} memo misses for {joined} + {left} moved primaries"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
