//! Elasticity tests: the Figure 18 autoscaler loop end to end, batched
//! scale-down cost (one view change, not n), honest partial-aware
//! metrics aggregation, a leave asked of a relay directory, and the
//! event-tracing layer across a full elastic lifecycle.
//!
//! Result-stability contract across scale events follows
//! `tests/determinism.rs`: WCC combines with `min` and is bit-exact in
//! every deployment, so it pins bit-equality; multi-agent PageRank sums
//! floats in scheduling-dependent arrival order, so it pins the usual
//! 1e-9 agreement.

use elga::core::directory::directory_addr;
use elga::core::metrics::ClusterMetrics;
use elga::core::msg::packet;
use elga::core::program::RunOptions;
use elga::graph::reference;
use elga::net::{Frame, SendPolicy};
use elga::prelude::*;
use elga::trace::EventKind;
use std::collections::HashSet;
use std::time::Duration;

/// The chaos-test ring with chords: connected, mildly degree-skewed,
/// small enough that scale events dominate the runtime.
fn chain_graph(n: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        if i % 3 == 0 {
            edges.push((i, (i * 7 + 3) % n));
        }
    }
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

#[test]
fn scale_down_by_n_is_one_view_change() {
    let edges = chain_graph(400);
    let mut cluster = Cluster::builder().agents(6).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).expect("wcc before scale-down");
    let want = cluster.dump_states();

    let epoch_before = cluster.view().epoch;
    let removed = cluster.remove_agents(3);
    assert_eq!(removed.len(), 3, "asked for three departures");
    assert_eq!(cluster.agent_count(), 3);
    for id in &removed {
        assert!(
            !cluster.agent_ids().contains(id),
            "agent {id} still in view"
        );
    }
    assert_eq!(
        cluster.view().epoch,
        epoch_before + 1,
        "batched scale-down must cost exactly one view change"
    );

    // The survivors own every edge the departers migrated away.
    cluster.run(Wcc::new()).expect("wcc after scale-down");
    assert_eq!(
        cluster.dump_states(),
        want,
        "WCC must be bit-exact across the batched leave"
    );
    cluster.shutdown();
}

/// A relay directory relays a frame as it was delivered: a LEAVE
/// asked of directory 1 as a request gets the lead's `OK` back, and the
/// agent is out of the view.
#[test]
fn a_leave_asked_of_a_relay_directory_is_answered() {
    let cluster = Cluster::builder().agents(3).directories(2).build();
    let leave = Frame::builder(packet::LEAVE).u64(3).finish();
    let wait = Duration::from_secs(5);
    let reply = cluster.transport().request(&directory_addr(1), leave, wait);
    assert_eq!(reply.expect("the lead's answer").packet_type(), packet::OK);
    assert_eq!(cluster.agent_ids(), [1, 2]);
    cluster.shutdown();
}

#[test]
fn autoscaler_follows_step_function_load() {
    let edges = chain_graph(600);
    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(edges.iter().copied());

    let pr = PageRank::new(0.85).with_max_iters(8);
    cluster.run(pr).expect("pagerank at 2 agents");
    let pr_want = cluster.dump_states();
    cluster.run(Wcc::new()).expect("wcc at 2 agents");
    let wcc_want = cluster.dump_states();

    // A near-instant EMA (1 ms window, no cooldown) collapses the
    // paper's minutes-long Figure 18 loop into one driver call per
    // load step while keeping the real policy in the path.
    let mut policy =
        EmaAutoscaler::new(Duration::from_millis(1), 50.0, 2, 8).with_cooldown(Duration::ZERO);

    // Load steps up: 400 units at 50 per agent → target 8. Joins take
    // effect at the next barrier; quiesce waits the migration out.
    assert_eq!(cluster.autoscale_once(&mut policy, 400.0), Some(8));
    cluster.quiesce().expect("quiesce after scale-up");
    assert_eq!(
        cluster.agent_count(),
        8,
        "cluster follows the scale-up target"
    );

    cluster.run(Wcc::new()).expect("wcc at 8 agents");
    assert_eq!(
        cluster.dump_states(),
        wcc_want,
        "WCC must be bit-exact across scale-up"
    );

    // Load steps down: the EMA has long since forgotten the spike, so
    // 80 units → target 2, applied as ONE batched leave.
    let epoch_before = cluster.view().epoch;
    assert_eq!(cluster.autoscale_once(&mut policy, 80.0), Some(2));
    assert_eq!(
        cluster.agent_count(),
        2,
        "cluster follows the scale-down target"
    );
    assert_eq!(
        cluster.view().epoch,
        epoch_before + 1,
        "autoscaler scale-down by six agents must be one view change"
    );

    cluster.run(Wcc::new()).expect("wcc after scale-down");
    assert_eq!(
        cluster.dump_states(),
        wcc_want,
        "WCC must be bit-exact across scale-down"
    );
    cluster.run(pr).expect("pagerank after scale cycle");
    let pr_got = cluster.dump_states();
    assert_eq!(pr_got.len(), pr_want.len());
    for (v, &bits) in &pr_want {
        let a = f64::from_bits(bits);
        let b = f64::from_bits(pr_got[v]);
        assert!((a - b).abs() < 1e-9, "pagerank v{v}: {a} vs {b}");
    }

    // A steady load at the current target is a no-op.
    assert_eq!(cluster.autoscale_once(&mut policy, 80.0), None);
    assert_eq!(cluster.agent_count(), 2);
    cluster.shutdown();
}

#[test]
fn async_run_survives_scale_up_batched_scale_down_and_crash() {
    // The full mode × elasticity × fault matrix in one run: while an
    // asynchronous WCC run is live, one agent joins, three leave in a
    // single batched view change, and one crashes (evicted by failure
    // detection, run aborted, change log replayed, run restarted —
    // still asynchronous). The converged labels must be bit-identical
    // to an undisturbed synchronous run's.
    let edges = chain_graph(3000);

    let mut clean = Cluster::builder().agents(4).build();
    clean.ingest_edges(edges.iter().copied());
    clean.run(Wcc::new()).expect("undisturbed sync wcc");
    let want = clean.dump_states();
    clean.shutdown();

    let cfg = SystemConfig {
        // Fast failure detection so eviction of the crashed agent does
        // not dominate the test — but with a full second of tolerance:
        // on a loaded single-core runner a live agent's thread can
        // starve past a few hundred ms mid-migration, and a spurious
        // second eviction breaks the scenario.
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(6).config(cfg).build();
    cluster.ingest_edges(edges.iter().copied());

    let handle = cluster
        .start_run(
            Wcc::new(),
            RunOptions {
                reuse_state: false,
                mode: ExecutionMode::Async,
            },
        )
        .expect("start async run");

    // Join mid-run: the directory pauses the async run, migrates, and
    // re-releases it under the new view.
    let added = cluster.add_agents(1);
    assert_eq!(added.len(), 1);
    // Batched scale-down mid-run: one LEAVE carrying all three
    // departures (the single-view-change cost is pinned by
    // `scale_down_by_n_is_one_view_change`; here the point is that the
    // live async run absorbs it).
    let removed = cluster.remove_agents(3);
    assert_eq!(removed.len(), 3);
    // Crash mid-run: no drain, no goodbye.
    let victim = cluster.agent_ids()[0];
    cluster.kill_agent(victim);

    cluster
        .wait_run(handle)
        .expect("async run survives join, batched leave, and crash");
    assert_eq!(cluster.agent_count(), 3, "victim evicted");
    assert!(!cluster.agent_ids().contains(&victim));

    assert_eq!(
        cluster.dump_states(),
        want,
        "async labels after the elastic storm must match the undisturbed sync run"
    );
    cluster.shutdown();
}

#[test]
fn metrics_reports_partial_when_drain_target_unreachable() {
    let cfg = SystemConfig {
        // No eviction: a failure window (10 min) longer than the test
        // keeps the dead agent in the view, so the DRAIN retry
        // exercises the partial path rather than the member-departed
        // path.
        heartbeat_interval: Duration::from_millis(100),
        heartbeat_misses: 6_000,
        request_timeout: Duration::from_millis(500),
        send_policy: SendPolicy {
            retries: 1,
            base_delay: Duration::from_millis(1),
            deadline: Duration::from_secs(1),
        },
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(4).config(cfg).build();
    cluster.ingest_edges(chain_graph(100).iter().copied());
    cluster.run(Wcc::new()).expect("wcc");

    let m = cluster.metrics();
    assert!(!m.partial, "all agents reachable — aggregate is complete");
    assert_eq!(m.agents_drained, 4);

    let victim = *cluster.agent_ids().last().expect("agents");
    cluster.kill_agent(victim);
    let m = cluster.metrics();
    assert!(
        m.partial,
        "an unreachable DRAIN target must mark the aggregate partial"
    );
    assert_eq!(m.agents_drained, 3, "three of four reports landed");
    cluster.shutdown();
}

/// Cluster counters are cumulative: an agent that leaves takes its
/// gauges with it, not the work it did. The lead folds a departer's
/// last report into the totals, so no counter goes down across
/// add → run → remove.
#[test]
fn cluster_counters_survive_departures() {
    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(chain_graph(600).iter().copied());
    cluster.run(Wcc::new()).expect("wcc at 2 agents");

    let counters = |m: &ClusterMetrics| {
        [
            m.vmsgs,
            m.changes,
            m.comms.migration.frames_sent,
            m.comms.migration.frames_recv,
            m.kernel_visits,
        ]
    };
    // Scrape, check against the previous scrape, return the new one.
    let check = |cluster: &Cluster, last: &ClusterMetrics, what: &str| {
        let now = cluster.metrics();
        for (i, (a, b)) in counters(last).into_iter().zip(counters(&now)).enumerate() {
            assert!(b >= a, "counter {i} went down after {what}: {a} -> {b}");
        }
        now
    };
    let start = cluster.metrics();
    assert!(start.vmsgs > 0 && start.changes > 0);

    cluster.add_agents(2);
    let joined = check(&cluster, &start, "the join");
    cluster.run(Wcc::new()).expect("wcc at 4 agents");
    let ran = check(&cluster, &joined, "the run");
    // Both newcomers and one founder leave: the departers did a share
    // of the run's messages and all of the outbound migration.
    let removed = cluster.remove_agents(3);
    assert_eq!(removed.len(), 3);
    let left = check(&cluster, &ran, "the leave");
    assert!(
        left.comms.migration.frames_sent > ran.comms.migration.frames_sent,
        "the departers' own migration sends must be in the totals"
    );
    assert_eq!(left.edges, ran.edges, "gauges follow the live agents");
    cluster.shutdown();
}

#[test]
fn tracing_captures_phases_views_and_migrations() {
    let cfg = SystemConfig {
        tracing: true,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(2).config(cfg).build();
    cluster.ingest_edges(chain_graph(300).iter().copied());
    cluster
        .run(PageRank::new(0.85).with_max_iters(4))
        .expect("pagerank");

    // Scale up (join migration), run, then retire one agent (leave
    // migration); the departer's thread returns its buffer as it ends.
    cluster.add_agents(2);
    cluster
        .run(PageRank::new(0.85).with_max_iters(4))
        .expect("pagerank scaled");
    let removed = cluster.remove_agents(1);
    assert_eq!(removed.len(), 1);

    let tracks = cluster.collect_traces();
    let names: Vec<&str> = tracks.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        names.contains(&"directory-0"),
        "lead directory track missing: {names:?}"
    );
    assert!(
        names.contains(&"streamer"),
        "streamer track missing: {names:?}"
    );
    let departer = format!("agent-{}", removed[0]);
    assert!(
        names.contains(&departer.as_str()),
        "departed agent's track missing: {names:?}"
    );
    assert!(
        names.iter().filter(|n| n.starts_with("agent-")).count() >= 3,
        "expected the departer plus live agents: {names:?}"
    );

    let kinds: HashSet<EventKind> = tracks
        .iter()
        .flat_map(|(_, evs)| evs.iter().map(|e| e.kind))
        .collect();
    for kind in [
        EventKind::PhaseScatter,
        EventKind::PhaseCombine,
        EventKind::PhaseApply,
        EventKind::ViewAdopt,
        EventKind::MigrateSend,
        EventKind::MigrateRecv,
        EventKind::MigrateSweep,
    ] {
        assert!(kinds.contains(&kind), "no {kind:?} event in {kinds:?}");
    }

    // The placement sweep is a span of its own, `examined`/`moved`
    // entries as arguments. The departer's last one is its leave, which
    // moved what it held and sent it; a live agent's last one is the
    // same leave, where a survivor examines its store and moves
    // nothing. On the join before it, each founder shipped a part of
    // its store.
    let (_, evs) = tracks.iter().find(|(n, _)| *n == departer).expect("track");
    let last_sweep = evs.iter().rfind(|e| e.kind == EventKind::MigrateSweep);
    let moved = last_sweep.map(|e| e.b).expect("the departer's leave sweep");
    assert!(moved > 0, "the departer's leave moved nothing");
    assert!(
        evs.iter().any(|e| e.kind == EventKind::MigrateSend),
        "the departer's leave sent nothing"
    );
    let mut partial_moves = 0;
    for id in cluster.agent_ids() {
        let name = format!("agent-{id}");
        let (_, evs) = tracks.iter().find(|(n, _)| *n == name).expect("track");
        let sweeps: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == EventKind::MigrateSweep)
            .collect();
        let (examined, moved) = sweeps.last().map(|e| (e.a, e.b)).expect("a sweep");
        assert!(examined > 0 && moved == 0, "{name}: {moved} of {examined}");
        partial_moves += sweeps.iter().filter(|e| 0 < e.b && e.b < e.a).count();
    }
    assert!(
        partial_moves >= 2,
        "both founders ship a part to the joiners"
    );

    // Phase spans carry durations; the JSON export names every track.
    let has_span = tracks
        .iter()
        .flat_map(|(_, evs)| evs)
        .any(|e| e.kind == EventKind::PhaseScatter && e.dur_nanos > 0);
    assert!(has_span, "phase spans must record nonzero durations");
    let json = elga::trace::chrome_trace_json(&tracks);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("thread_name"));
    assert!(json.contains("\"scatter\"") && json.contains("\"view_adopt\""));

    // Draining consumed the buffers: a second collection has no phase
    // events (at most bookkeeping from the collection itself).
    let again = cluster.collect_traces();
    assert!(
        !again
            .iter()
            .flat_map(|(_, evs)| evs)
            .any(|e| e.kind == EventKind::PhaseScatter),
        "drain must consume events"
    );
    cluster.shutdown();
}

#[test]
fn tracing_disabled_collects_nothing() {
    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(chain_graph(60).iter().copied());
    cluster.run(Wcc::new()).expect("wcc");
    assert!(
        cluster.collect_traces().is_empty(),
        "tracing off must record and collect nothing"
    );
    cluster.shutdown();
}

/// An incremental WCC run after a join costs one pass over the store
/// (step 0 counts the primaries) plus its frontier: the join's
/// migration streams keep the worklists, and step 0 visits what the
/// batch touched instead of sweeping. Each chord dirties its two
/// endpoints, which step 0 applies and step 1 scatters; their
/// neighbours (degree at most 5 here) take the labels at step 1, and
/// none changes: fewer than 16 visits an edge. Sweeping the store at
/// step 0 and step 1 as well visits it three times over.
#[test]
fn incremental_wcc_after_a_join_visits_the_batch_not_the_store() {
    let n = 3000;
    let reuse = RunOptions {
        reuse_state: true,
        ..RunOptions::default()
    };
    let cfg = SystemConfig {
        tracing: true,
        ..SystemConfig::default()
    };
    let mut edges = chain_graph(n);
    let mut cluster = Cluster::builder().agents(2).config(cfg).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).expect("initial wcc");
    cluster.run_with(Wcc::new(), reuse).expect("warm wcc");
    cluster.add_agents(1);
    let batch: Vec<(u64, u64)> = (0..8).map(|i| (i * 301, i * 301 + 1500)).collect();
    let before = cluster.metrics().kernel_visits;
    cluster.ingest(batch.iter().map(|&(u, v)| EdgeChange::insert(u, v)));
    cluster
        .run_with(Wcc::new(), reuse)
        .expect("incremental wcc");
    let visits = cluster.metrics().kernel_visits - before;
    edges.extend(&batch);
    let truth = reference::wcc(edges.iter().copied());
    let got = cluster.dump_states();
    assert_eq!(got.len(), truth.len());
    assert!(truth.iter().all(|(v, label)| got[v] == *label));

    // The entries held: what the next join's placement sweeps examine
    // (every founder sweeps its whole store; the joiner holds none).
    cluster.collect_traces();
    cluster.add_agents(1);
    let held: u64 = cluster
        .collect_traces()
        .iter()
        .flat_map(|(_, evs)| evs.iter().filter(|e| e.kind == EventKind::MigrateSweep))
        .map(|e| e.a)
        .sum();
    cluster.shutdown();
    assert!(held >= n, "{held} entries held");
    let bound = held + 16 * batch.len() as u64;
    assert!(
        visits <= bound,
        "{visits} entries visited for {} changes, {held} held",
        batch.len()
    );
}
