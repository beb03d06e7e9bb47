//! Quiescence by counts, not clocks: the frames `Cluster::quiesce`
//! puts on the driver's transport.
//!
//! A `quiesce` is one DRAIN request to the lead, which asks every member
//! with a DRAIN of its own and answers once its channel table — each
//! agent's counts per peer, as the DRAIN answers and READYs report them
//! — balances with no migration or run pending. A channel left short
//! costs a second DRAIN to its receiver only, so a settled system, a
//! finished run and most batches cost one wave: the request, a DRAIN per
//! member and its answer, counted here through the transport and the
//! lead's `quiesce_waves`. An agent pushes its degree changes ahead of
//! its answer on the same path: when `quiesce` returns the lead's sketch
//! holds the batch. A run started without the caller's own `quiesce`
//! still sees everything ingested before it, and a kill between runs is
//! recovered by the next run's.
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

/// `(DRAIN frames, quiesce waves)` that `f` cost: the driver's requests,
/// the lead's DRAINs and the agents' answers on the cluster's transport,
/// and the lead's DRAIN fan-outs.
fn frames_of(cluster: &mut Cluster, f: impl FnOnce(&mut Cluster)) -> (u64, u64) {
    let stats = cluster
        .transport()
        .net_stats()
        .expect("in-process counters");
    let read = |c: &Cluster| (stats.sent(packet::DRAIN).0, c.metrics().quiesce_waves);
    let before = read(cluster);
    f(cluster);
    let after = read(cluster);
    (after.0 - before.0, after.1 - before.1)
}

/// One wave over `agents` members: the request, a DRAIN to each and
/// each one's answer.
fn one_wave(agents: u64) -> (u64, u64) {
    (1 + 2 * agents, 1)
}

fn quiesce(cluster: &mut Cluster) {
    cluster.quiesce().expect("quiesce");
}

#[test]
fn a_settled_system_is_confirmed_in_one_wave() {
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest(inserts(&base_graph()));
    for round in 0..3 {
        assert_eq!(
            frames_of(&mut cluster, quiesce),
            one_wave(3),
            "round {round}"
        );
    }
    // A finished run took in every record it counted before its `done`:
    // one wave too.
    cluster.run(Wcc::new()).expect("wcc");
    assert_eq!(frames_of(&mut cluster, quiesce), one_wave(3), "after a run");

    // Asked directly, an agent answers a DRAIN with a DRAIN frame: its
    // id, its epoch and all of its rows.
    let agent = cluster.view().agents[0].clone();
    let drain = Frame::signal(packet::DRAIN);
    let reply = cluster
        .transport()
        .request(&agent.addr, drain, Duration::from_secs(10));
    let reply = reply.expect("drain reply");
    assert_eq!(reply.packet_type(), packet::DRAIN);
    let report = DrainReport::decode(&reply).expect("a drain report");
    assert_eq!(
        (report.agent, report.epoch),
        (agent.id, cluster.view().epoch)
    );
    assert!(!report.rows.is_empty(), "the run's VMSG rows");
    cluster.shutdown();
}

/// A batch's degree deltas and residuals cross between agents after
/// some have answered their DRAIN: those receivers are asked again, and
/// only they. Over ten batches that costs fewer DRAINs than two full
/// waves a batch.
#[test]
fn a_batch_costs_fewer_drains_than_two_waves() {
    let mut cluster = Cluster::builder().agents(3).build();
    let mut held = base_graph();
    cluster.ingest(inserts(&held));
    let mut drains = 0;
    for i in 0..10 {
        let changes = inserts(&batch(i));
        let mut table = None;
        let (frames, waves) = frames_of(&mut cluster, |c| {
            c.ingest_async(&changes);
            quiesce(c);
            table = Some(c.view().sketch);
        });
        assert!(
            waves >= 1 && frames >= one_wave(3).0,
            "batch {i}: {frames}, {waves}"
        );
        drains += (frames - 1) / 2;
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
        assert_eq!(frames_of(&mut cluster, quiesce), one_wave(3), "batch {i}");
    }
    assert!(drains < 10 * 2 * 3, "{drains} DRAINs over 10 batches");
    cluster.shutdown();
}

/// `start_run`'s own `quiesce` is what stands between a batch in
/// flight and a run that must see it: every run here is started
/// straight after `ingest_async`.
#[test]
fn a_run_without_the_callers_quiesce_sees_the_whole_batch() {
    let mut cluster = Cluster::builder().agents(3).build();
    let mut edges = base_graph();
    cluster.ingest(inserts(&edges));
    cluster.run(Wcc::new()).expect("wcc");
    for i in 0..15 {
        assert_eq!(frames_of(&mut cluster, quiesce), one_wave(3));
        let fresh = batch(i);
        cluster.ingest_async(&inserts(&fresh));
        edges.extend(fresh);
        let (frames, _) = frames_of(&mut cluster, |c| {
            c.run_with(Wcc::new(), RunOptions::default()).expect("wcc");
        });
        assert!(
            frames >= one_wave(3).0,
            "batch {i}: the run started after {frames} DRAIN frames"
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

fn fast_detection() -> SystemConfig {
    SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(30),
        run_deadline: Duration::from_secs(60),
        ..SystemConfig::default()
    }
}

/// A join, a leave and a recovery are waited out inside the lead's
/// answer; the system they leave settled is one wave again.
#[test]
fn a_view_change_or_a_recovery_leaves_one_wave_settled() {
    let mut cluster = Cluster::builder()
        .agents(3)
        .config(fast_detection())
        .build();
    cluster.ingest(inserts(&base_graph()));
    assert_eq!(frames_of(&mut cluster, quiesce), one_wave(3));

    let settled_after = |cluster: &mut Cluster, agents: u64, what: &str| {
        let (_, waves) = frames_of(cluster, quiesce);
        assert!(waves >= 1, "{what}");
        assert_eq!(frames_of(cluster, quiesce), one_wave(agents), "{what}");
    };
    let e0 = cluster.view().epoch;
    cluster.add_agents(1);
    settled_after(&mut cluster, 4, "after a join");
    cluster.remove_agents(1);
    settled_after(&mut cluster, 3, "after a leave");
    assert_eq!(cluster.view().epoch, e0 + 2);

    // A crash mid-run: the lead evicts the victim, the survivors reset
    // their counts, the driver replays the log and reruns.
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
    settled_after(&mut cluster, 2, "after a recovery");
    cluster.shutdown();
}

/// A kill between runs: the next run's `quiesce` waits out the eviction,
/// learns of the reset from the lead's answer and rebuilds before it
/// starts — the labels are the whole graph's.
#[test]
fn a_kill_between_runs_is_recovered_by_the_next_run() {
    let mut cluster = Cluster::builder()
        .agents(3)
        .config(fast_detection())
        .build();
    let ring: Edges = (0..N).map(|v| (v, (v + 1) % N)).collect();
    cluster.ingest(inserts(&ring));
    cluster.run(Wcc::new()).expect("first wcc");
    let victim = cluster.agent_ids()[1];
    cluster.kill_agent(victim);
    let stats = cluster.run(Wcc::new()).expect("wcc after the kill");
    assert_eq!(stats.n_vertices, N);
    assert_eq!(cluster.recovery_stats().recoveries, 1);
    let labels = cluster.dump_states();
    let want = reference::wcc(ring.iter().copied());
    assert_eq!(labels.len(), want.len());
    for (v, &label) in &want {
        assert_eq!(labels[v], label, "wcc label of v{v}");
    }
    cluster.shutdown();
}

/// A DRAIN pushes no METRICS: over ingest + PageRank cycles the agents
/// push their report at the end of each run and on their clock (a
/// heartbeat interval longer than the test here), and nowhere else. The
/// closing `quiesce` is answered after every agent has finished the
/// last run, its push included.
#[test]
fn a_cycle_pushes_metrics_at_run_end_only() {
    let cfg = SystemConfig {
        heartbeat_interval: Duration::from_secs(10),
        heartbeat_misses: 3,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(4).config(cfg).build();
    cluster.ingest(inserts(&base_graph()));
    let stats = cluster
        .transport()
        .net_stats()
        .expect("in-process counters");
    let before = stats.sent(packet::METRICS).0;
    for i in 0..3 {
        cluster.ingest(inserts(&batch(i)));
        cluster
            .run(PageRank::new(0.85).with_max_iters(5))
            .expect("pagerank");
    }
    quiesce(&mut cluster);
    assert_eq!(
        stats.sent(packet::METRICS).0 - before,
        3 * 4,
        "one per agent per run"
    );
    cluster.shutdown();
}
