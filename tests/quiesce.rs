//! Quiescence by counts, not clocks: the frames `Cluster::quiesce`
//! puts on the driver's transport.
//!
//! A wave is one RUN_STATUS to the lead and one DRAIN to every agent.
//! Two consecutive waves that read the same settled counter sums end a
//! `quiesce`, and the first of the two may be the previous call's
//! last: a system that is still settled is confirmed in one wave.
//! Whatever moved a counter — a batch, a run, a view change, a
//! recovery — costs the second wave again, and a run started without
//! the caller's own `quiesce` still sees everything ingested before it.
//! The degree changes the agents push to the lead with their DRAIN
//! replies ride those waves: when `quiesce` returns the lead's sketch
//! holds the batch, and the push cost no wave of its own.
//!
//! A test binary of its own: the counters are the transport's, and
//! every test here owns its cluster.

use elga::core::msg::{packet, DrainReport, Message};
use elga::core::program::RunOptions;
use elga::graph::reference;
use elga::net::Frame;
use elga::prelude::*;
use elga::sketch::CountMinSketch;
use std::time::Duration;

/// Vertices `0..N`.
const N: u64 = 400;

type Edges = Vec<(u64, u64)>;

/// A ring with a chord from every 5th vertex.
fn base_graph() -> Edges {
    let mut edges: Edges = (0..N).map(|v| (v, (v + 1) % N)).collect();
    edges.extend((0..N).step_by(5).map(|v| (v, (v * 3 + 7) % N)));
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Batch `i`: 24 chords spread over the ring, so every agent gets some
/// and forwards some.
fn batch(i: u64) -> Edges {
    (0..24)
        .map(|j| {
            let u = (i * 24 + j * 17) % N;
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

/// `(DRAIN, RUN_STATUS)` requests `f` put on the cluster's transport.
fn frames_of(cluster: &mut Cluster, f: impl FnOnce(&mut Cluster)) -> (u64, u64) {
    let stats = cluster
        .transport()
        .net_stats()
        .expect("in-process counters");
    let read = || {
        (
            stats.sent(packet::DRAIN).0,
            stats.sent(packet::RUN_STATUS).0,
        )
    };
    let before = read();
    f(cluster);
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

fn quiesce(cluster: &mut Cluster) {
    cluster.quiesce().expect("quiesce");
}

#[test]
fn a_settled_system_is_confirmed_in_one_wave() {
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest(inserts(&base_graph()));
    // `ingest` ended on a confirmed wave; nothing has moved since.
    for round in 0..3 {
        assert_eq!(
            frames_of(&mut cluster, quiesce),
            (3, 1),
            "round {round}: one DRAIN per agent, one request to the lead"
        );
    }
    // A run moves the counters: two waves, then one again.
    cluster.run(Wcc::new()).expect("wcc");
    let (drains, statuses) = frames_of(&mut cluster, quiesce);
    assert!(drains >= 6 && statuses >= 2, "{drains} DRAINs after a run");
    assert_eq!(frames_of(&mut cluster, quiesce), (3, 1));

    // A DRAIN is answered by a DRAIN frame, which the counts above do
    // not include: they are the requests of each wave.
    let agent = cluster.view().agents[0].addr.clone();
    let drain = Frame::signal(packet::DRAIN);
    let reply = cluster
        .transport()
        .request(&agent, drain, Duration::from_secs(10));
    let reply = reply.expect("drain reply");
    assert_eq!(reply.packet_type(), packet::DRAIN);
    let report = DrainReport::decode(&reply).expect("a drain report");
    assert_eq!(report.epoch, cluster.view().epoch);
    cluster.shutdown();
}

#[test]
fn a_batch_costs_the_second_wave() {
    let mut cluster = Cluster::builder().agents(3).build();
    let mut held = base_graph();
    cluster.ingest(inserts(&held));
    for i in 0..10 {
        let changes = inserts(&batch(i));
        let mut table = None;
        let (drains, statuses) = frames_of(&mut cluster, |c| {
            c.ingest_async(&changes);
            quiesce(c);
            table = Some(c.view().sketch);
        });
        assert!(
            drains >= 6 && drains % 3 == 0 && statuses >= 2,
            "batch {i}: {drains} DRAINs, {statuses} RUN_STATUS"
        );
        // Every placement stored, counted once: duplicates of the base
        // graph's chords are not.
        held.extend(batch(i));
        held.sort_unstable();
        held.dedup();
        let cfg = cluster.config();
        let mut want = CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth);
        for &(u, v) in &held {
            want.add(u, 1);
            want.add(v, 1);
        }
        assert_eq!(table, Some(want), "batch {i}: the lead's table");
        assert_eq!(frames_of(&mut cluster, quiesce), (3, 1), "batch {i}");
    }
    cluster.shutdown();
}

/// `start_run`'s own `quiesce` is what stands between a batch in
/// flight and a run that must see it. The remembered sums must not let
/// it return on the first wave while the batch's forwards are on their
/// way: every run here is started straight after `ingest_async`.
#[test]
fn a_run_without_the_callers_quiesce_sees_the_whole_batch() {
    let mut cluster = Cluster::builder().agents(3).build();
    let mut edges = base_graph();
    cluster.ingest(inserts(&edges));
    cluster.run(Wcc::new()).expect("wcc");
    for i in 0..15 {
        // Arm the memory: a confirmed wave right before the batch.
        assert!(frames_of(&mut cluster, quiesce).0 >= 3);
        assert_eq!(frames_of(&mut cluster, quiesce), (3, 1));
        let fresh = batch(i);
        cluster.ingest_async(&inserts(&fresh));
        edges.extend(fresh);
        let (drains, _) = frames_of(&mut cluster, |c| {
            c.run_with(Wcc::new(), RunOptions::default()).expect("wcc");
        });
        assert!(
            drains >= 6,
            "batch {i}: the run started after {drains} DRAINs"
        );
        let labels = cluster.dump_states();
        let want = reference::wcc(edges.iter().copied());
        assert_eq!(labels.len(), want.len(), "batch {i}: vertex count");
        for (v, &label) in &want {
            assert_eq!(labels[v], label, "batch {i}: wcc label of v{v}");
        }
    }
    cluster.shutdown();
}

#[test]
fn a_view_change_or_a_recovery_forgets_the_sums() {
    let cfg = SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(30),
        run_deadline: Duration::from_secs(60),
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(3).config(cfg).build();
    cluster.ingest(inserts(&base_graph()));
    assert_eq!(frames_of(&mut cluster, quiesce), (3, 1));

    let two_waves_then_one = |cluster: &mut Cluster, agents: u64, what: &str| {
        let (drains, statuses) = frames_of(cluster, quiesce);
        assert!(
            drains >= 2 * agents && statuses >= 2,
            "{what}: {drains} DRAINs over {agents} agents"
        );
        assert_eq!(frames_of(cluster, quiesce), (agents, 1), "{what}");
    };
    let e0 = cluster.view().epoch;
    cluster.add_agents(1);
    two_waves_then_one(&mut cluster, 4, "after a join");
    cluster.remove_agents(1);
    two_waves_then_one(&mut cluster, 3, "after a leave");
    assert_eq!(cluster.view().epoch, e0 + 2);

    // A crash mid-run: the lead evicts the victim, the survivors reset
    // their counters, the driver replays the log and reruns.
    let handle = cluster
        .start_run(
            PageRank::new(0.85).with_max_iters(40),
            RunOptions::default(),
        )
        .expect("start run");
    let victim = cluster.agent_ids()[1];
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("the run survives the crash");
    assert_eq!(cluster.agent_count(), 2);
    two_waves_then_one(&mut cluster, 2, "after a recovery");
    cluster.shutdown();
}
