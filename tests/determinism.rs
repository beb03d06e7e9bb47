//! Worker-count determinism: the parallel superstep kernels partition
//! fixed vertex shards and merge per-shard output in shard index
//! order, so the bytes each agent emits — and therefore the results —
//! must not depend on how many worker threads ran them.
//!
//! What "bit-identical" can promise depends on the algorithm:
//!
//! * WCC combines with `min`, which is order- and duplicate-
//!   insensitive, so converged labels are bit-exact across worker
//!   counts in *every* deployment — multi-agent, over TCP, and under
//!   a fault-injecting transport.
//! * PageRank combines with f64 addition, which is order-sensitive.
//!   Within one agent the kernels keep the order fixed, and with a
//!   single agent the FIFO transport keeps arrival order fixed too, so
//!   single-agent PageRank is bit-exact. Across multiple agents the
//!   arrival *interleave* of senders is scheduling-dependent (equally
//!   so before the parallel kernels), so there the test pins the usual
//!   1e-9 agreement.
//!
//! The same contract covers the comms plane: the coalescing outboxes
//! pack a per-destination record stream into frames without ever
//! reordering it, so every bit-exactness promise above holds
//! in-process, over TCP, and under chaos, where retries duplicate and
//! reorder whole frames.

use elga::core::agent::Agent;
use elga::core::directory::{self, DirectoryRole};
use elga::core::msg::{self, packet, DirectoryView, Message, RunInfo};
use elga::core::program::{ProgramSpec, RunOptions};
use elga::core::streamer::Streamer;
use elga::net::{Addr, FaultPlan, Frame, SendPolicy, TcpTransport, Transport};
use elga::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Ring with multiplicative chords: connected, degree-skewed, and
/// large enough that every agent's store crosses the kernels' serial
/// fast-path threshold (1024 vertices) so multi-worker runs really do
/// run multi-worker.
fn big_graph(n: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        if i % 3 == 0 {
            edges.push((i, (i * 7 + 3) % n));
        }
        if i % 97 == 0 {
            // Mild hubs to vary degree estimates.
            edges.push((i, (i * 31 + 11) % n));
            edges.push(((i * 13 + 5) % n, i));
        }
    }
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn states_for(
    workers: usize,
    agents: usize,
    edges: &[(u64, u64)],
    spec: impl Into<ProgramSpec>,
) -> HashMap<u64, u64> {
    let mut cluster = Cluster::builder().agents(agents).workers(workers).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(spec).expect("run");
    let states = cluster.dump_states();
    cluster.shutdown();
    states
}

#[test]
fn wcc_bit_identical_across_worker_counts() {
    let edges = big_graph(6000);
    let w1 = states_for(1, 2, &edges, Wcc::new());
    let w4 = states_for(4, 2, &edges, Wcc::new());
    assert_eq!(w1.len(), 6000);
    assert_eq!(w1, w4, "WCC labels must not depend on worker count");
}

#[test]
fn single_agent_pagerank_bit_identical_across_worker_counts() {
    let edges = big_graph(3000);
    let pr = PageRank::new(0.85).with_max_iters(10);
    let w1 = states_for(1, 1, &edges, pr);
    let w4 = states_for(4, 1, &edges, pr);
    assert_eq!(w1.len(), 3000);
    assert_eq!(
        w1, w4,
        "single-agent PageRank must be bit-exact across worker counts"
    );
}

/// The frontier-driven kernels drain *sorted* worklists, so a delta
/// run's bytes must not depend on the worker count either. One agent
/// (bit-exactness needs a fixed arrival order, see above) holding 8192
/// vertices; the batch is small, but its frontier grows past the
/// serial threshold within a few hops while pushes are still far above
/// the tolerance, so the list path runs both serially and in parallel.
#[test]
fn delta_pagerank_bit_identical_across_worker_counts() {
    let n = 8192;
    let edges = big_graph(n);
    let batch: Vec<EdgeChange> = (0..64)
        .map(|i| EdgeChange::insert(i * 127 + 1, (i * 5003 + 17) % n))
        .collect();
    let run = |workers: usize| {
        let pr = PageRank::new(0.85)
            .with_max_iters(300)
            .with_tolerance(1e-10);
        let mut cluster = Cluster::builder().agents(1).workers(workers).build();
        cluster.ingest_edges(edges.iter().copied());
        cluster.run(pr).expect("initial run");
        cluster.ingest(batch.iter().copied());
        let opts = RunOptions {
            reuse_state: true,
            mode: ExecutionMode::Sync,
        };
        let stats = cluster.run_with(pr, opts).expect("delta run");
        let visits = cluster.metrics().kernel_visits;
        let states = cluster.dump_states();
        cluster.shutdown();
        (states, stats.steps, visits)
    };
    let (w1, steps1, visits1) = run(1);
    let (w4, steps4, visits4) = run(4);
    assert_eq!(w1.len(), n as usize);
    assert!(
        steps1 > 10,
        "delta run too short to leave the sweeps: {steps1}"
    );
    assert_eq!((steps1, visits1), (steps4, visits4), "same work either way");
    assert_eq!(w1, w4, "delta PageRank must be bit-exact across workers");
}

/// Two agents, a full run and a delta run behind it: scatter combines
/// per target row on the agent thread in shard order, so what each
/// agent sends — and how many records that is — does not depend on the
/// worker count, and the ranks agree to what f64 sums allow. Sixteen
/// popular targets make the combining visible as a count: per-message
/// routing delivered one record per edge per step.
#[test]
fn two_agent_delta_pagerank_agrees_across_worker_counts_and_combines() {
    let n = 8192;
    let mut edges = big_graph(n);
    edges.extend((0..n).map(|i| (i, i % 16)));
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    let batch: Vec<EdgeChange> = (0..64)
        .map(|i| EdgeChange::insert(i * 127 + 1, (i * 5003 + 17) % n))
        .collect();
    let run = |workers: usize| {
        let pr = PageRank::new(0.85)
            .with_max_iters(300)
            .with_tolerance(1e-10);
        let mut cluster = Cluster::builder().agents(2).workers(workers).build();
        cluster.ingest_edges(edges.iter().copied());
        let full = cluster.run(pr).expect("initial run");
        let full_vmsgs = cluster.metrics().vmsgs;
        cluster.ingest(batch.iter().copied());
        let opts = RunOptions {
            reuse_state: true,
            mode: ExecutionMode::Sync,
        };
        let delta = cluster.run_with(pr, opts).expect("delta run");
        let delta_vmsgs = cluster.metrics().vmsgs - full_vmsgs;
        let states = cluster.dump_states();
        cluster.shutdown();
        (
            states,
            [
                u64::from(full.steps),
                full_vmsgs,
                u64::from(delta.steps),
                delta_vmsgs,
            ],
        )
    };
    let (w1, counts1) = run(1);
    let (w4, counts4) = run(4);
    assert_eq!(w1.len(), n as usize);
    assert_ranks_close(&w1, &w4, "delta PageRank across worker counts");
    assert_eq!(
        counts1, counts4,
        "steps and records delivered, full and delta"
    );
    let [full_steps, full_vmsgs, delta_steps, delta_vmsgs] = counts1;
    assert!(
        delta_steps > 10 && delta_vmsgs > 0,
        "delta run: {counts1:?}"
    );
    let per_edge = edges.len() as u64 * full_steps;
    assert!(
        full_vmsgs * 3 < per_edge * 2,
        "{full_vmsgs} records delivered for {per_edge} messages: nothing was combined"
    );
}

#[test]
fn multi_agent_pagerank_agrees_across_worker_counts() {
    let edges = big_graph(6000);
    let pr = PageRank::new(0.85).with_max_iters(10);
    let w1 = states_for(1, 2, &edges, pr);
    let w4 = states_for(4, 2, &edges, pr);
    assert_ranks_close(&w1, &w4, "across worker counts");
}

/// Two PageRank results agree to the 1e-9 that f64 sums taken in a
/// different order can promise.
fn assert_ranks_close(a: &HashMap<u64, u64>, b: &HashMap<u64, u64>, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (v, &bits) in a {
        let (x, y) = (f64::from_bits(bits), f64::from_bits(b[v]));
        assert!((x - y).abs() < 1e-9, "{what}: v{v}: {x} vs {y}");
    }
}

/// What one sync run put on the wire, as the transport counted it.
struct RunWire {
    states: HashMap<u64, u64>,
    steps: u64,
    /// ADVANCE frames per agent: the barriers the lead settled, plus
    /// the launch and the final `done`. Exact — nothing re-sends one.
    advances: u64,
    /// READY frames per agent: one per barrier, plus an idle re-report
    /// for every mailbox drain that moved a counter some barrier of the
    /// run still waits on.
    readys: u64,
    /// PARTIAL plus STATE frames, all agents.
    replica_frames: u64,
    /// VMSG frames and their bytes, all agents.
    vmsg_wire: (u64, u64),
    /// Σ `vmsg_sent` and Σ `vmsg_recv` over the agents' barrier
    /// counters after the run: the records that crossed between agents.
    vmsg_counted: (u64, u64),
    /// Vertex messages delivered, however they travelled.
    vmsgs: u64,
    may_split: bool,
}

/// Ingest `edges` into `agents` agents under `threshold`, run `spec`
/// once, and count the run's frames.
fn run_wire(
    workers: usize,
    agents: usize,
    threshold: u64,
    edges: &[(u64, u64)],
    spec: impl Into<ProgramSpec>,
) -> RunWire {
    let cfg = SystemConfig {
        replication_threshold: threshold,
        workers,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(agents).config(cfg).build();
    cluster.ingest_edges(edges.iter().copied());
    let net = cluster.transport().net_stats().expect("in-process stats");
    let frames = |types: &[u8]| types.iter().map(|&t| net.sent(t).0).sum::<u64>();
    let before = [packet::ADVANCE, packet::READY].map(|t| frames(&[t]));
    let stats = cluster.run(spec).expect("run");
    let transport = cluster.transport();
    let mut vmsg_counted = (0, 0);
    for agent in &cluster.view().agents {
        let drain = Frame::signal(packet::DRAIN);
        let rep = transport.request(&agent.addr, drain, Duration::from_secs(5));
        let report = msg::DrainReport::decode(&rep.expect("drain")).expect("drain reply");
        vmsg_counted.0 += report.counters.vmsg_sent;
        vmsg_counted.1 += report.counters.vmsg_recv;
    }
    let wire = RunWire {
        steps: u64::from(stats.steps),
        // The bus reaches every agent and the driver waiting on the run.
        advances: (frames(&[packet::ADVANCE]) - before[0]) / (agents as u64 + 1),
        readys: (frames(&[packet::READY]) - before[1]) / agents as u64,
        // Nothing but a run sends either kind.
        replica_frames: frames(&[packet::PARTIAL, packet::STATE]),
        vmsg_wire: net.sent(packet::VMSG),
        vmsg_counted,
        vmsgs: cluster.metrics().vmsgs,
        may_split: cluster.view().may_split(),
        states: cluster.dump_states(),
    };
    cluster.shutdown();
    wire
}

/// The on-wire size of a VMSG frame's type byte, `(run, step)` header
/// and count field, and of one record.
const VMSG_FRAME_HEAD: u64 = 1 + 12 + 4;
const VMSG_RECORD: u64 = 16;

/// Both sides of the per-step barrier selection, by counts, not clocks.
///
/// Either side, an agent's own vertex messages are folded in place:
/// every VMSG record on the wire is one the barrier counted as crossing
/// between two agents, and the messages delivered exceed them.
///
/// Nothing split: every PARTIAL and STATE record is an agent's own and
/// is delivered in place — none reaches the wire — and each superstep
/// costs one barrier (only a `max_steps` run's last step takes three).
/// The same graph with its hub over the replication threshold: records
/// cross the wire, every step takes its three barriers, and the results
/// agree with the reference and with the one-barrier run.
#[test]
fn one_barrier_per_step_unless_a_vertex_is_split() {
    const UNSPLIT: u64 = 1 << 20;
    let n = 6000;
    let mut edges = big_graph(n);
    edges.extend((1..=300).map(|i| (0, i * 19 % n)));
    edges.sort_unstable();
    edges.dedup();
    let labels = elga::graph::reference::wcc(edges.iter().copied());
    let pr = PageRank::new(0.85).with_max_iters(10);

    let wcc1 = run_wire(1, 2, UNSPLIT, &edges, Wcc::new());
    let wcc4 = run_wire(4, 2, UNSPLIT, &edges, Wcc::new());
    let pr1 = run_wire(1, 2, UNSPLIT, &edges, pr);
    let pr4 = run_wire(4, 2, UNSPLIT, &edges, pr);
    // Eight agents: seven senders' lists to sum per receiver, and the
    // same one report per agent per step.
    let wcc8 = run_wire(1, 8, UNSPLIT, &edges, Wcc::new());
    let pr8 = run_wire(1, 8, UNSPLIT, &edges, pr);
    for (w, what) in [
        (&wcc1, "wcc"),
        (&wcc4, "wcc x4"),
        (&pr1, "pr"),
        (&pr4, "pr x4"),
        (&wcc8, "wcc, 8 agents"),
        (&pr8, "pr, 8 agents"),
    ] {
        assert!(!w.may_split, "{what}: the view's bound allows a split");
        assert!(w.steps >= 5, "{what}: {} steps", w.steps);
        assert!(
            w.advances <= w.steps + 5,
            "{what}: {} ADVANCE frames per agent for {} steps",
            w.advances,
            w.steps
        );
        // One READY per agent per step: the Scatter barrier closes on
        // what the senders reported, so no agent reports a second time
        // to confirm a receive (24 to 30 per agent while it did, for 9
        // and 10 steps; 60 and 68 with three barriers a step). What is
        // over `steps` is step 0, a `max_steps` run's last step and the
        // ingest's migrate report.
        assert!(
            w.readys <= w.steps + 4,
            "{what}: {} READY frames per agent for {} steps",
            w.readys,
            w.steps
        );
        assert_eq!(
            w.replica_frames, 0,
            "{what}: self-addressed records on the wire"
        );
        assert_no_own_vmsg_on_the_wire(w, what);
        assert!(w.vmsg_wire.0 > 0, "{what}: nothing crossed");
    }
    assert_eq!(wcc1.states.len(), n as usize);
    assert_eq!(
        wcc1.states, wcc4.states,
        "WCC must be bit-exact across workers"
    );
    for (v, &label) in &labels {
        assert_eq!(wcc1.states[v], label, "vertex {v}");
    }
    for (v, &label) in &labels {
        assert_eq!(wcc8.states[v], label, "8 agents: vertex {v}");
    }
    assert_eq!(pr1.steps, pr4.steps);
    assert_ranks_close(&pr1.states, &pr4.states, "pagerank across workers");
    assert_eq!(pr1.steps, pr8.steps);
    assert_ranks_close(&pr1.states, &pr8.states, "pagerank across agent counts");

    // Threshold 64: the hub (degree 300+) is split over all three
    // agents, and the lead knows without asking which vertex it is.
    for workers in [1, 4] {
        let wcc = run_wire(workers, 3, 64, &edges, Wcc::new());
        let split = run_wire(workers, 3, 64, &edges, pr);
        for (w, what) in [(&wcc, "split wcc"), (&split, "split pr")] {
            assert!(w.may_split, "{what}");
            assert!(
                w.advances >= 3 * w.steps && w.readys >= 3 * w.steps,
                "{what}: {} ADVANCE and {} READY frames per agent for {} steps",
                w.advances,
                w.readys,
                w.steps
            );
            assert!(w.replica_frames > 0, "{what}: no replica traffic");
            assert_no_own_vmsg_on_the_wire(w, what);
        }
        for (v, &label) in &labels {
            assert_eq!(wcc.states[v], label, "split: vertex {v}");
        }
        assert_eq!(split.steps, pr1.steps);
        assert_ranks_close(&split.states, &pr1.states, "pagerank split vs whole");
    }
}

/// Every VMSG record on the wire was counted as sent to a peer and as
/// received from one; the agent's own were delivered without a frame.
fn assert_no_own_vmsg_on_the_wire(w: &RunWire, what: &str) {
    let (frames, bytes) = w.vmsg_wire;
    let (sent, recv) = w.vmsg_counted;
    assert_eq!(sent, recv, "{what}: Σ vmsg_sent != Σ vmsg_recv");
    assert_eq!(
        bytes,
        frames * VMSG_FRAME_HEAD + sent * VMSG_RECORD,
        "{what}: {frames} VMSG frames hold records no barrier counted"
    );
    assert!(
        w.vmsgs > sent,
        "{what}: {} messages delivered, {sent} of them framed",
        w.vmsgs
    );
}

/// One agent: every vertex message is its own. The run puts no VMSG
/// frame on the wire, counts none, delivers them all the same, and —
/// one sender, one order — stays bit-exact across worker counts,
/// PageRank's f64 sums included.
#[test]
fn single_agent_run_frames_no_vertex_message() {
    let edges = big_graph(3000);
    let pr = PageRank::new(0.85).with_max_iters(10);
    let labels = elga::graph::reference::wcc(edges.iter().copied());
    let wcc1 = run_wire(1, 1, 1 << 20, &edges, Wcc::new());
    let wcc4 = run_wire(4, 1, 1 << 20, &edges, Wcc::new());
    let pr1 = run_wire(1, 1, 1 << 20, &edges, pr);
    let pr4 = run_wire(4, 1, 1 << 20, &edges, pr);
    for (w, what) in [
        (&wcc1, "wcc"),
        (&wcc4, "wcc x4"),
        (&pr1, "pr"),
        (&pr4, "pr x4"),
    ] {
        assert_eq!(w.vmsg_wire, (0, 0), "{what}: VMSG frames on the wire");
        assert_eq!(w.vmsg_counted, (0, 0), "{what}");
        assert_eq!(w.replica_frames, 0, "{what}");
        assert!(w.vmsgs > 3000, "{what}: {} messages", w.vmsgs);
    }
    assert_eq!(wcc1.states, wcc4.states);
    for (v, &label) in &labels {
        assert_eq!(wcc1.states[v], label, "vertex {v}");
    }
    assert_eq!((pr1.steps, pr1.vmsgs), (pr4.steps, pr4.vmsgs));
    assert_eq!(pr1.states, pr4.states, "PageRank must be bit-exact");
}

/// Retries may duplicate or reorder whole frames, and coalesced frames
/// carry many records each: under two fault seeds, a chaotic cluster on
/// four workers must match a clean one on one worker.
#[test]
fn wcc_bit_identical_under_chaos_with_workers() {
    let edges = big_graph(6000);
    let cfg = SystemConfig {
        request_timeout: Duration::from_secs(5),
        send_policy: SendPolicy {
            retries: 6,
            base_delay: Duration::from_millis(2),
            deadline: Duration::from_secs(10),
        },
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    };
    let plan = FaultPlan::uniform(0.05, 0.01, Duration::ZERO, Duration::from_millis(5));
    let mut clean = Cluster::builder()
        .agents(4)
        .config(cfg.clone())
        .workers(1)
        .build();
    clean.ingest_edges(edges.iter().copied());
    clean.run(Wcc::new()).expect("clean wcc");
    let want = clean.dump_states();
    clean.shutdown();
    for seed in [0xE16A, 0xC0A1] {
        let mut chaos = Cluster::builder()
            .agents(4)
            .config(cfg.clone())
            .workers(4)
            .chaos(plan.clone(), seed)
            .build();
        chaos.ingest_edges(edges.iter().copied());
        chaos.run(Wcc::new()).expect("chaos wcc");
        let got = chaos.dump_states();
        assert_eq!(got, want, "seed {seed:#x}: chaos + 4 workers vs clean");
        let stats = chaos.fault().expect("chaos handle").stats();
        assert!(stats.dropped() > 0, "seed {seed:#x}: no frames dropped");
        chaos.shutdown();
    }
}

// ---------------------------------------------------------------------
// Async vs sync fixpoint equivalence
// ---------------------------------------------------------------------

fn states_for_mode(
    mode: ExecutionMode,
    agents: usize,
    edges: &[(u64, u64)],
    spec: impl Into<ProgramSpec>,
) -> HashMap<u64, u64> {
    let mut cluster = Cluster::builder().agents(agents).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster
        .run_with(
            spec,
            RunOptions {
                reuse_state: false,
                mode,
            },
        )
        .expect("run");
    let states = cluster.dump_states();
    cluster.shutdown();
    states
}

#[test]
fn async_wcc_matches_sync_bit_exact() {
    // WCC's fixpoint (the component-wide minimum) does not depend on
    // message ordering, so the event-driven asynchronous execution must
    // land on exactly the bits the barrier-stepped one does.
    let edges = big_graph(2000);
    let sync = states_for_mode(ExecutionMode::Sync, 3, &edges, Wcc::new());
    let asynch = states_for_mode(ExecutionMode::Async, 3, &edges, Wcc::new());
    assert_eq!(sync.len(), 2000);
    assert_eq!(sync, asynch, "async WCC must match sync bit for bit");
}

#[test]
fn async_pagerank_matches_sync_within_tolerance() {
    // PageRank is not order-independent, but the residual formulation
    // is: every push carries mass that lands exactly once regardless of
    // arrival order, and the run ends only when all residuals sit below
    // tolerance. Sync and async therefore land within an accumulated-
    // tolerance ball (~ n * tol / (1 - d)) of the same fixpoint — far
    // below the 1e-5 asserted here.
    let edges = big_graph(1000);
    let pr = PageRank::new(0.85)
        .with_max_iters(300)
        .with_tolerance(1e-10);
    let sync = states_for_mode(ExecutionMode::Sync, 3, &edges, pr);
    let asynch = states_for_mode(ExecutionMode::Async, 3, &edges, pr);
    assert_eq!(sync.len(), 1000);
    assert_eq!(sync.len(), asynch.len());
    for (v, &bits) in &sync {
        let s = f64::from_bits(bits);
        let a = f64::from_bits(asynch[v]);
        assert!(
            (s - a).abs() < 1e-5,
            "async pagerank diverged at v{v}: sync={s} async={a}"
        );
    }
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

fn reserve_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("reserve")
        .local_addr()
        .expect("addr")
        .port()
}

/// Single-agent deployment over real TCP sockets with the given worker
/// count; runs PageRank then WCC and returns both state dumps.
fn tcp_states(workers: usize, edges: &[(u64, u64)]) -> (HashMap<u64, u64>, HashMap<u64, u64>) {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let cfg = SystemConfig {
        workers,
        ..SystemConfig::default()
    };
    let master = Addr::parse(&format!("tcp://127.0.0.1:{}", reserve_port())).expect("addr");
    let dir0 = Addr::parse(&format!("tcp://127.0.0.1:{}", reserve_port())).expect("addr");
    let bus = Addr::parse(&format!("tcp://127.0.0.1:{}", reserve_port())).expect("addr");
    let _master = directory::spawn_master(transport.clone(), master.clone());
    let _dir = directory::spawn_directory_at(
        transport.clone(),
        cfg.clone(),
        0,
        master.clone(),
        dir0.clone(),
        DirectoryRole::Lead { bus: bus.clone() },
    );
    let agent = Agent::join_at(
        transport.clone(),
        cfg.clone(),
        1,
        Addr::parse("tcp://127.0.0.1:0").expect("addr"),
        dir0.clone(),
        bus.clone(),
    )
    .expect("agent join");
    let agent_handle = agent.spawn();

    let mut streamer =
        Streamer::connect(transport.clone(), cfg.clone(), dir0.clone()).expect("streamer");
    let changes: Vec<EdgeChange> = edges
        .iter()
        .map(|&(u, v)| EdgeChange::insert(u, v))
        .collect();
    streamer.send_batch(&changes).expect("send");
    std::thread::sleep(Duration::from_millis(300));

    let run_to_done = |spec: ProgramSpec| {
        let (tag, params) = spec.encode();
        let sub = transport
            .subscribe(&bus, &[packet::ADVANCE])
            .expect("subscribe");
        let rep = transport
            .request(
                &dir0,
                RunInfo {
                    run_id: 0,
                    tag,
                    params,
                    reuse_state: false,
                    asynchronous: false,
                    delta: false,
                    dangling_base: 0.0,
                    watermark: 0,
                }
                .encode(),
                Duration::from_secs(30),
            )
            .expect("start");
        let run_id = rep.reader().u64().expect("run id");
        loop {
            let d = sub.recv_timeout(Duration::from_secs(60)).expect("advance");
            if let Some(adv) = msg::Advance::decode(&d.frame) {
                if adv.run == run_id && adv.done {
                    break;
                }
            }
        }
    };
    let dump = |transport: &Arc<dyn Transport>| {
        let rep = transport
            .request(
                &dir0,
                Frame::signal(packet::GET_VIEW),
                Duration::from_secs(5),
            )
            .expect("view");
        let view = DirectoryView::decode(&rep).expect("view");
        let mut out = HashMap::new();
        for a in &view.agents {
            let rep = transport
                .request(
                    &a.addr,
                    Frame::signal(packet::DUMP),
                    Duration::from_secs(30),
                )
                .expect("dump");
            out.extend(msg::decode_dump(&rep).expect("dump reply"));
        }
        out
    };

    run_to_done(PageRank::new(0.85).with_max_iters(10).into());
    let pagerank = dump(&transport);
    run_to_done(Wcc::new().into());
    let wcc = dump(&transport);

    let _ = transport.request(
        &dir0,
        Frame::signal(packet::SHUTDOWN),
        Duration::from_secs(5),
    );
    if let Ok(out) = transport.sender(&master) {
        let _ = out.send(Frame::signal(packet::SHUTDOWN));
    }
    let _ = agent_handle.join();
    (pagerank, wcc)
}

#[test]
fn tcp_results_bit_identical_across_worker_counts() {
    let edges = big_graph(2000);
    let (pr1, wcc1) = tcp_states(1, &edges);
    let (pr4, wcc4) = tcp_states(4, &edges);
    assert_eq!(pr1.len(), 2000);
    assert_eq!(pr1, pr4, "PageRank over TCP must be bit-exact");
    assert_eq!(wcc1, wcc4, "WCC over TCP must be bit-exact");
}
