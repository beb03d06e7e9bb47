//! Fault-injection tests, under the faults TCP has: ElGA must produce
//! fault-free results over a transport that delays every frame (routes
//! overtake one another, each stays in order); a link that breaks and
//! loses what it held must cost exactly one recovery, detected at once
//! and evicting no one; and an agent that dies mid-run without the
//! LEAVE drain protocol must be detected, evicted and recovered from.
//!
//! The delays come from a fixed seed and a break is scheduled at a
//! frame count, so a failing case replays from its plan.

use elga::core::directory::agent_addr;
use elga::core::msg::packet;
use elga::core::program::{ExecutionMode, RunOptions};
use elga::graph::csr::Csr;
use elga::graph::reference;
use elga::net::{FaultPlan, SplitMix64};
use elga::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

/// A deterministic ring-with-chords graph: connected, with enough
/// degree skew to exercise routing, small enough that chaos runs stay
/// fast.
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

fn densify(edges: &[(u64, u64)]) -> (Vec<u64>, Vec<(u64, u64)>) {
    let mut ids: Vec<u64> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    let index: std::collections::HashMap<u64, u64> = ids
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u64))
        .collect();
    let dense = edges.iter().map(|&(u, v)| (index[&u], index[&v])).collect();
    (ids, dense)
}

/// Every vertex of `edges` reads its reference WCC label from `label`.
fn assert_wcc(label: impl Fn(u64) -> Option<u64>, edges: &[(u64, u64)]) {
    let truth = reference::wcc(edges.iter().copied());
    for &(u, _) in edges {
        assert_eq!(label(u), Some(truth[&u]), "wcc v{u}");
    }
}

/// Every vertex of `edges` reads from `rank` its reference PageRank
/// after `iters` iterations.
fn assert_pagerank(rank: impl Fn(u64) -> Option<f64>, edges: &[(u64, u64)], iters: u32) {
    let (ids, dense) = densify(edges);
    let csr = Csr::from_edges(Some(ids.len()), &dense);
    let want = reference::pagerank(&csr, 0.85, iters as usize);
    for (i, &orig) in ids.iter().enumerate() {
        let got = rank(orig).expect("rank");
        let tol = reference::PAGERANK_TOLERANCE;
        assert!((got - want[i]).abs() < tol, "v{orig}: {got} vs {}", want[i]);
    }
}

/// Config for runs over a faulty transport: deadlines with room for
/// the delays.
fn chaos_config() -> SystemConfig {
    SystemConfig {
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    }
}

#[test]
fn chaos_pagerank_and_wcc_match_fault_free_results() {
    let edges = chain_graph(120);
    // 0-5ms delay on every data-plane route.
    let plan = FaultPlan::delays(Duration::ZERO, Duration::from_millis(5));
    let mut chaos = Cluster::builder()
        .agents(4)
        .config(chaos_config())
        .chaos(plan, 0xE16A)
        .build();
    let mut clean = Cluster::builder().agents(4).config(chaos_config()).build();
    chaos.ingest_edges(edges.iter().copied());
    clean.ingest_edges(edges.iter().copied());

    chaos
        .run(PageRank::new(0.85).with_max_iters(10))
        .expect("chaos pagerank");
    clean
        .run(PageRank::new(0.85).with_max_iters(10))
        .expect("clean pagerank");
    let got = chaos.dump_states();
    let want = clean.dump_states();
    assert_eq!(got.len(), want.len(), "same vertex set");
    for (v, &bits) in &want {
        let w = f64::from_bits(bits);
        let g = f64::from_bits(*got.get(v).unwrap_or_else(|| panic!("missing v{v}")));
        assert!((g - w).abs() < 1e-9, "pagerank v{v}: {g} vs {w}");
    }

    chaos.run(Wcc::new()).expect("chaos wcc");
    assert_wcc(|v| chaos.query_u64(v), &edges);

    // The fault layer must have actually interfered, and delays alone
    // break no link.
    let stats = chaos.fault().expect("chaos handle").stats();
    assert!(stats.delayed() > 0, "no frame delayed — chaos was a no-op");
    assert_eq!(chaos.metrics().links_broken, 0);
    assert_eq!(chaos.recovery_stats().recoveries, 0);

    chaos.shutdown();
    clean.shutdown();
}

/// A run that converges by tolerance ends on a chained verdict with the
/// next step's scatter already sent — a full PageRank scatters every
/// vertex every step. Under 0–5 ms delivery delays the `done` advance
/// overtakes those frames: it carries their counts, so each agent takes
/// them in before it leaves the run. Finished ahead of them it would
/// drop them as stale, `vmsg_sent` would stay ahead of `vmsg_recv` for
/// good, and the `quiesce` below could only time out.
#[test]
fn done_overtaking_the_last_scatter_leaves_nothing_in_flight() {
    let edges = chain_graph(120);
    let pagerank = || {
        PageRank::new(0.85)
            .with_max_iters(300)
            .with_tolerance(1e-10)
    };
    let delta = RunOptions {
        reuse_state: true,
        mode: ExecutionMode::Sync,
    };
    let batch = [(5, 77), (40, 3), (119, 60)];
    // Delays only: every frame arrives, in route order, late.
    let plan = FaultPlan::delays(Duration::ZERO, Duration::from_millis(5));
    let cfg = SystemConfig {
        quiesce_deadline: Duration::from_secs(20),
        ..chaos_config()
    };
    let mut delayed = Cluster::builder()
        .agents(3)
        .config(cfg)
        .chaos(plan, 0xD0E)
        .build();
    let mut clean = Cluster::builder().agents(3).config(chaos_config()).build();
    let mut ranks = Vec::new();
    for cluster in [&mut delayed, &mut clean] {
        cluster.ingest_edges(edges.iter().copied());
        let full = cluster.run(pagerank()).expect("full pagerank");
        assert!(full.steps > 20 && full.steps < 300, "{} steps", full.steps);
        let t0 = std::time::Instant::now();
        cluster.quiesce().expect("quiesce behind the done advance");
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(5), "quiesce took {took:?}");
        cluster.ingest_edges(batch.iter().copied());
        cluster.run_with(pagerank(), delta).expect("delta pagerank");
        ranks.push(cluster.dump_states());
    }
    let stats = delayed.fault().expect("chaos handle").stats();
    assert!(stats.delayed() > 0, "no frame delayed — chaos was a no-op");
    let (got, want) = (&ranks[0], &ranks[1]);
    assert_eq!(got.len(), want.len(), "same vertex set");
    for (v, &bits) in want {
        let (g, w) = (f64::from_bits(got[v]), f64::from_bits(bits));
        assert!((g - w).abs() < 1e-7, "pagerank v{v}: {g} vs {w}");
    }
    delayed.shutdown();
    clean.shutdown();
}

#[test]
fn chaos_async_wcc_matches_reference() {
    // The asynchronous engine's termination detection (one round of
    // idle reports over the lead's channel table) must hold over a
    // transport that delays every frame: the table balances only once
    // every straggling record has been taken in.
    let edges = chain_graph(120);
    let plan = FaultPlan::delays(Duration::ZERO, Duration::from_millis(5));
    let mut chaos = Cluster::builder()
        .agents(4)
        .config(chaos_config())
        .chaos(plan, 0xA51C)
        .build();
    chaos.ingest_edges(edges.iter().copied());
    chaos
        .run_with(
            Wcc::new(),
            RunOptions {
                reuse_state: false,
                mode: ExecutionMode::Async,
            },
        )
        .expect("chaos async wcc");
    assert_wcc(|v| chaos.query_u64(v), &edges);
    let stats = chaos.fault().expect("chaos handle").stats();
    assert!(stats.delayed() > 0, "no frame delayed — chaos was a no-op");
    chaos.shutdown();
}

/// Run `act` on 4 agents holding `edges`, over 0–5 ms delays and one
/// scheduled link break: every route into agent `into` breaks at the
/// `nth` frame of `kind` pushed toward it, losing the frames it holds.
/// The break must cost one recovery that evicts no one, reported by
/// the agents that lost the link however many routes into the agent it
/// cut, in less time than an eviction takes. Returns the cluster.
fn across_a_break(
    edges: &[(u64, u64)],
    (into, kind, nth): (u64, u8, u64),
    act: impl FnOnce(&mut Cluster),
) -> Cluster {
    let plan = FaultPlan::delays(Duration::ZERO, Duration::from_millis(5));
    let plan = plan.break_link(agent_addr(into), kind, nth);
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(chaos_config())
        .chaos(plan, 0xB4EA)
        .build();
    cluster.ingest_edges(edges.iter().copied());
    let t0 = std::time::Instant::now();
    act(&mut cluster);
    let took = t0.elapsed();
    let window = cluster.config().heartbeat_interval * cluster.config().heartbeat_misses;
    assert!(took < window, "{took:?}, not under the eviction window");
    assert_eq!(cluster.recovery_stats().recoveries, 1);
    let metrics = cluster.metrics();
    assert!(metrics.links_broken >= 1, "no agent reported the break");
    assert_eq!(metrics.agents_recovered, 0, "no one evicted");
    let stats = cluster.fault().expect("chaos handle").stats();
    assert!(stats.broken() >= 2, "{} routes cut", stats.broken());
    assert!(stats.delayed() > 0, "no frame delayed");
    cluster
}

/// A link into a live agent breaks mid-run and loses the VMSG frames
/// it held, so that step's barrier can never close: its senders find
/// the route broken, the lead resets once, and the restarted run ends
/// on the reference ranks.
#[test]
fn a_link_broken_mid_sync_run_costs_one_recovery() {
    let edges = chain_graph(120);
    let cluster = across_a_break(&edges, (2, packet::VMSG, 6), |c| {
        c.run(PageRank::new(0.85).with_max_iters(10))
            .expect("pagerank");
    });
    let ranks = cluster.dump_states();
    assert_pagerank(|v| ranks.get(&v).map(|&b| f64::from_bits(b)), &edges, 10);
    assert_eq!(cluster.agent_count(), 4);
    cluster.shutdown();
}

/// The same break in an async run: the channel table can never
/// balance, so the run could never end; one recovery restarts it.
#[test]
fn a_link_broken_mid_async_run_costs_one_recovery() {
    let edges = chain_graph(120);
    let cluster = across_a_break(&edges, (2, packet::VMSG, 2), |c| {
        let mode = ExecutionMode::Async;
        let options = RunOptions {
            reuse_state: false,
            mode,
        };
        c.run_with(Wcc::new(), options).expect("async wcc");
    });
    let labels = cluster.dump_states();
    assert_wcc(|v| labels.get(&v).copied(), &edges);
    assert_eq!(cluster.agent_count(), 4);
    cluster.shutdown();
}

/// A link into a joiner breaks at a MIG_VERTEX frame of the migration
/// its join set off, cutting the routes of the founders sweeping to it:
/// the migrate barrier can never close, and one recovery puts the
/// graph back onto the grown membership.
#[test]
fn a_link_broken_mid_migration_costs_one_recovery() {
    let edges = chain_graph(120);
    let cluster = across_a_break(&edges, (5, packet::MIG_VERTEX, 2), |c| {
        assert_eq!(c.add_agents(1), [5]);
        c.run(Wcc::new()).expect("wcc after the join");
    });
    let labels = cluster.dump_states();
    assert_wcc(|v| labels.get(&v).copied(), &edges);
    assert_eq!(cluster.agent_count(), 5);
    cluster.shutdown();
}

#[test]
fn killed_agent_mid_async_run_recovers_to_correct_results() {
    // An agent dying mid-async-run leaves its primaries unprocessed,
    // so the run cannot quiesce until failure detection evicts it and
    // the recovery's reset VIEW aborts the run; the driver then replays
    // the retained change log and restarts the run — still
    // asynchronous. The graph is large enough that the kill (sent the
    // instant the run starts) always lands while the run is live.
    let edges = chain_graph(2000);
    let cfg = SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(30),
        run_deadline: Duration::from_secs(60),
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(4).config(cfg).build();
    cluster.ingest_edges(edges.iter().copied());

    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(
            Wcc::new(),
            RunOptions {
                reuse_state: false,
                mode: ExecutionMode::Async,
            },
        )
        .expect("start async run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("async run must complete despite the crash");

    assert_eq!(cluster.agent_count(), 3, "victim evicted from the view");
    assert!(cluster.metrics().agents_recovered >= 1);
    assert_wcc(|v| cluster.query_u64(v), &edges);
    cluster.shutdown();
}

#[test]
fn killed_agent_is_evicted_and_run_restarts_to_correct_results() {
    let edges = chain_graph(150);
    let cfg = SystemConfig {
        // Fast failure detection so the test turns around quickly:
        // 25ms heartbeats, dead after 40 missed (1s of silence —
        // enough slack that scheduler starvation on a loaded runner
        // cannot read as death).
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(30),
        run_deadline: Duration::from_secs(60),
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(4).config(cfg).build();
    cluster.ingest_edges(edges.iter().copied());
    assert_eq!(cluster.agent_count(), 4);

    let iters = 40u32;
    let handle = cluster
        .start_run(
            PageRank::new(0.85).with_max_iters(iters),
            RunOptions::default(),
        )
        .expect("start run");
    // Crash an agent mid-run: the barrier wedges on its silence until
    // the lead evicts it and publishes a reset VIEW; wait_run then
    // replays the change log and restarts the run.
    let victim = cluster.agent_ids()[1];
    cluster.kill_agent(victim);
    let stats = cluster
        .wait_run(handle)
        .expect("run must complete despite the crash");

    let (ids, _) = densify(&edges);
    assert_eq!(
        stats.n_vertices,
        ids.len() as u64,
        "replay restored every vertex"
    );
    assert_eq!(cluster.agent_count(), 3, "victim evicted from the view");
    assert!(!cluster.agent_ids().contains(&victim));
    assert!(cluster.metrics().agents_recovered >= 1);

    // Results equal the fault-free single-threaded reference.
    assert_pagerank(|v| cluster.query_f64(v), &edges, iters);
    cluster.shutdown();
}

/// Without a checkpoint directory the change log keeps the stream's net
/// effect, compacted as deletes pile up: a recovery replays the live
/// edges and the changes since the last compaction, not the stream. The
/// churn deletes earlier edges (some twice), re-inserts some of them
/// and adds fresh ones — enough deletes to compact — and an agent dies
/// mid-run. The rebuilt graph must be the stream's final
/// edge set, edge for edge, and the replay shorter than the stream.
#[test]
fn killed_agent_after_compactions_recovers_the_final_edge_set() {
    let n = 6_000;
    let mut rng = SplitMix64::new(0xC0C0);
    let mut edge = || (rng.below(n), rng.below(n));
    let mut stream: Vec<EdgeChange> = (0..30_000)
        .map(|_| edge())
        .map(|(u, v)| EdgeChange::insert(u, v))
        .collect();
    for round in 0..4 {
        // Deletes of earlier edges, re-inserts of half of them, and as
        // many fresh edges.
        let deleted: Vec<elga::graph::Edge> = (0..9_000)
            .map(|i| stream[(i * 7 + round * 1_001) % stream.len()].edge)
            .collect();
        stream.extend(deleted.iter().map(|e| EdgeChange::delete(e.src, e.dst)));
        stream.extend(
            deleted
                .iter()
                .step_by(2)
                .map(|e| EdgeChange::insert(e.src, e.dst)),
        );
        stream.extend(
            (0..4_500)
                .map(|_| edge())
                .map(|(u, v)| EdgeChange::insert(u, v)),
        );
    }
    let mut edges: HashSet<(u64, u64)> = HashSet::new();
    for c in &stream {
        let pair = (c.edge.src, c.edge.dst);
        if c.is_insert() {
            edges.insert(pair);
        } else {
            edges.remove(&pair);
        }
    }

    let cfg = SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(30),
        run_deadline: Duration::from_secs(60),
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(4).config(cfg).build();
    cluster.ingest(stream.iter().copied());
    let log = cluster.change_log_stats();
    assert_eq!(log.ingested, stream.len() as u64);
    assert!(log.retained < log.ingested, "the log never compacted");

    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(Wcc::new(), RunOptions::default())
        .expect("start run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("run must complete despite the crash");

    assert_eq!(cluster.agent_count(), 3, "victim evicted from the view");
    let replayed = cluster.recovery_stats().replayed_records;
    assert!(
        replayed > 0 && replayed < log.ingested,
        "{replayed} records replayed for {} ingested",
        log.ingested
    );
    assert_eq!(
        cluster.metrics().edges,
        edges.len() as u64,
        "the final edge set"
    );
    let truth = reference::wcc(edges.iter().copied());
    let got = cluster.dump_states();
    for (v, label) in &truth {
        assert_eq!(got.get(v), Some(label), "wcc v{v}");
    }
    cluster.shutdown();
}
