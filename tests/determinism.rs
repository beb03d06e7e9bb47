//! Determinism: an agent runs each superstep kernel on its own thread,
//! over its fixed vertex shards in index order and over sorted
//! worklists, so the bytes it emits are a function of the graph, the
//! view and what it received — never of timing inside the agent.
//!
//! What "bit-identical" can promise depends on the algorithm:
//!
//! * WCC combines with `min`, which is order- and duplicate-
//!   insensitive, so converged labels are bit-exact — and equal to the
//!   reference — in *every* deployment: multi-agent, over TCP, under a
//!   fault-injecting transport, and async against sync.
//! * PageRank combines with f64 addition, which is order-sensitive.
//!   With a single agent the FIFO transport keeps arrival order fixed
//!   as well, so single-agent PageRank is bit-exact run to run and over
//!   TCP against in process. Across multiple agents the arrival
//!   *interleave* of senders is scheduling-dependent, so there the
//!   tests pin the usual 1e-9 agreement.
//!
//! The same contract covers the comms plane: the coalescing outboxes
//! pack a per-destination record stream into frames without ever
//! reordering it, so every bit-exactness promise above holds
//! in-process, over TCP, and under chaos, where delays reorder whole
//! frames across routes.

use elga::core::agent::Agent;
use elga::core::directory::{self, DirectoryRole};
use elga::core::msg::{self, packet, DirectoryView, Message, RunInfo};
use elga::core::program::{ProgramSpec, RunOptions};
use elga::core::streamer::Streamer;
use elga::gen::{rmat, RmatParams};
use elga::graph::{csr::Csr, reference};
use elga::net::{Addr, FaultPlan, Frame, TcpTransport, Transport};
use elga::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Ring with multiplicative chords: connected and degree-skewed.
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

/// The frontier-driven kernels drain *sorted* worklists, so a delta
/// run's bytes are a function of the graph and the batch: two runs of
/// the same history on one agent (bit-exactness needs a fixed arrival
/// order, see above) take the same steps, visit the same entries and
/// land on the same bits. 8192 vertices; the batch is small, but its
/// frontier grows within a few hops while pushes are still far above
/// the tolerance, so the run leaves the sweeps for the lists.
#[test]
fn delta_pagerank_bit_identical_run_to_run() {
    let n = 8192;
    let edges = big_graph(n);
    let batch: Vec<EdgeChange> = (0..64)
        .map(|i| EdgeChange::insert(i * 127 + 1, (i * 5003 + 17) % n))
        .collect();
    let run = || {
        let pr = PageRank::new(0.85)
            .with_max_iters(300)
            .with_tolerance(1e-10);
        let mut cluster = Cluster::builder().agents(1).build();
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
    let (first, steps1, visits1) = run();
    let (again, steps2, visits2) = run();
    assert_eq!(first.len(), n as usize);
    assert!(
        steps1 > 10,
        "delta run too short to leave the sweeps: {steps1}"
    );
    assert_eq!((steps1, visits1), (steps2, visits2), "same work both times");
    assert_eq!(first, again, "delta PageRank must be bit-exact run to run");
}

/// Two agents, a full run and a delta run behind it: scatter combines
/// per target row on the agent thread, so each agent sends one record
/// per touched row and step. Sixteen popular targets make the
/// combining visible as a count: per-message routing delivered one
/// record per edge per step.
#[test]
fn two_agent_delta_pagerank_combines() {
    let n = 8192;
    let mut edges = big_graph(n);
    edges.extend((0..n).map(|i| (i, i % 16)));
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    let batch: Vec<EdgeChange> = (0..64)
        .map(|i| EdgeChange::insert(i * 127 + 1, (i * 5003 + 17) % n))
        .collect();
    let pr = PageRank::new(0.85)
        .with_max_iters(300)
        .with_tolerance(1e-10);
    let mut cluster = Cluster::builder().agents(2).build();
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
    assert_eq!(cluster.dump_states().len(), n as usize);
    cluster.shutdown();
    assert!(
        delta.steps > 10 && delta_vmsgs > 0,
        "delta run: {} steps, {delta_vmsgs} records",
        delta.steps
    );
    let per_edge = edges.len() as u64 * u64::from(full.steps);
    assert!(
        full_vmsgs * 3 < per_edge * 2,
        "{full_vmsgs} records delivered for {per_edge} messages: nothing was combined"
    );
}

/// The `memo_fills` gate, a count: the edge-memo slots scatter resolved
/// through the owner cache. An R-MAT core and two slabs of fresh edges
/// that take turns — batch `k` inserts one and deletes the other,
/// interleaved as `bulk_rmat` does — with a full PageRank run after
/// each batch. An edge change patches its vertex's memo, so after the
/// first run a run fills at most the out-edges the batch inserted: a
/// slab edge sits behind its vertex's core edges, and a delete cuts a
/// memo no shorter than them. A memo emptied by every change refills
/// every list the batch touched, hubs included.
#[test]
fn a_run_after_a_batch_fills_no_more_slots_than_the_batch_inserted() {
    const CORE: usize = 20_000;
    const SLAB: usize = 2_000;
    const ITERS: u32 = 10;
    let mut stream = rmat(13, 2 * (CORE + 2 * SLAB), RmatParams::GRAPH500, 0x3E40).into_iter();
    let mut used = HashSet::new();
    let mut fresh = |n: usize| -> Vec<(u64, u64)> {
        stream
            .by_ref()
            .filter(|&(u, v)| u != v && used.insert((u, v)))
            .take(n)
            .collect()
    };
    let core = fresh(CORE);
    let slabs = [fresh(SLAB), fresh(SLAB)];
    assert!(core.len() == CORE && slabs.iter().all(|s| s.len() == SLAB));
    let pr = PageRank::new(0.85).with_max_iters(ITERS);
    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(core.iter().chain(&slabs[1]).copied());
    cluster.run(pr).expect("first run");
    let mut filled = cluster.metrics().memo_fills;
    assert_eq!(
        filled,
        (CORE + SLAB) as u64,
        "the first run fills every out-edge once"
    );
    for k in 0..6 {
        let (ins, del) = (&slabs[k % 2], &slabs[(k + 1) % 2]);
        cluster.ingest(ins.iter().zip(del).flat_map(|(&(iu, iv), &(du, dv))| {
            [EdgeChange::insert(iu, iv), EdgeChange::delete(du, dv)]
        }));
        cluster.run(pr).expect("run");
        let total = cluster.metrics().memo_fills;
        let run = total - filled;
        filled = total;
        assert!(
            run > 0 && run <= SLAB as u64,
            "batch {k}: {run} memo slots filled for {SLAB} out-edges inserted"
        );
        let live: Vec<(u64, u64)> = core.iter().chain(ins).copied().collect();
        assert_ranks_match_reference(&cluster.dump_states(), &live, ITERS as usize);
    }
    cluster.shutdown();
}

/// PageRank after `iters` steps agrees with the reference on `edges`,
/// its vertices numbered in sorted order.
fn assert_ranks_match_reference(states: &HashMap<u64, u64>, edges: &[(u64, u64)], iters: usize) {
    let mut ids: Vec<u64> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    let index: HashMap<u64, u64> = ids
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u64))
        .collect();
    let dense: Vec<(u64, u64)> = edges.iter().map(|&(u, v)| (index[&u], index[&v])).collect();
    let want = reference::pagerank(&Csr::from_edges(Some(ids.len()), &dense), 0.85, iters);
    assert_eq!(states.len(), ids.len(), "vertex set");
    for (i, v) in ids.iter().enumerate() {
        let got = f64::from_bits(states[v]);
        assert!(
            (got - want[i]).abs() < reference::PAGERANK_TOLERANCE,
            "v{v}: {got} vs {}",
            want[i]
        );
    }
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
    /// Σ `vmsg_sent` and Σ `vmsg_recv` over the agents' per-peer rows
    /// after the run: the records that crossed between agents.
    vmsg_counted: (u64, u64),
    /// Vertex messages delivered, however they travelled.
    vmsgs: u64,
    /// Vertices applied inside a step without a barrier.
    chased: u64,
    may_split: bool,
    view: DirectoryView,
}

/// Ingest `edges` into `agents` agents under `threshold`, run `spec`
/// once with `options`, and count the run's frames.
fn run_wire(
    agents: usize,
    threshold: u64,
    edges: &[(u64, u64)],
    spec: impl Into<ProgramSpec>,
    options: RunOptions,
) -> RunWire {
    let mut cluster = Cluster::builder()
        .agents(agents)
        .replication_threshold(threshold)
        .build();
    cluster.ingest_edges(edges.iter().copied());
    let net = cluster.transport().net_stats().expect("in-process stats");
    let frames = |types: &[u8]| types.iter().map(|&t| net.sent(t).0).sum::<u64>();
    let before = [packet::ADVANCE, packet::READY].map(|t| frames(&[t]));
    let stats = cluster.run_with(spec, options).expect("run");
    let transport = cluster.transport();
    let mut vmsg_counted = (0, 0);
    for agent in &cluster.view().agents {
        let drain = Frame::signal(packet::DRAIN);
        let rep = transport.request(&agent.addr, drain, Duration::from_secs(5));
        let report = msg::DrainReport::decode(&rep.expect("drain")).expect("drain reply");
        for (_, c) in report.rows {
            vmsg_counted.0 += c.vmsg_sent;
            vmsg_counted.1 += c.vmsg_recv;
        }
    }
    let wire = RunWire {
        steps: u64::from(stats.steps),
        // The bus reaches every agent; the driver waits on the lead.
        advances: (frames(&[packet::ADVANCE]) - before[0]) / agents as u64,
        readys: (frames(&[packet::READY]) - before[1]) / agents as u64,
        // Nothing but a run sends either kind.
        replica_frames: frames(&[packet::PARTIAL, packet::STATE]),
        vmsg_wire: net.sent(packet::VMSG),
        vmsg_counted,
        vmsgs: cluster.metrics().vmsgs,
        chased: cluster.metrics().chased,
        may_split: cluster.view().may_split(),
        view: cluster.view(),
        states: cluster.dump_states(),
    };
    cluster.shutdown();
    wire
}

/// A fresh run, barrier-stepped.
const SYNC: RunOptions = RunOptions {
    reuse_state: false,
    mode: ExecutionMode::Sync,
};

/// The on-wire size of a VMSG frame's type byte, `(run, step, from)`
/// header and count field, and of one record.
const VMSG_FRAME_HEAD: u64 = 1 + 20 + 4;
const VMSG_RECORD: u64 = 16;

/// Both sides of the per-step barrier selection, by counts, not clocks.
///
/// Either side, an agent's own vertex messages are folded in place:
/// every VMSG record on the wire is one the barrier counted as crossing
/// between two agents, and the messages delivered exceed them.
///
/// Nothing split: every PARTIAL and STATE record is an agent's own and
/// is delivered in place — none reaches the wire — and each superstep
/// costs one barrier (a `max_steps` run's last step ends on its Apply
/// barrier instead). The same graph with its hub over the replication
/// threshold: records cross the wire, every step takes its three
/// barriers — each closing on what was sent, with no report for a
/// record's arrival — and the results agree with the reference and
/// with the one-barrier run.
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

    let wcc2 = run_wire(2, UNSPLIT, &edges, Wcc::new(), SYNC);
    let pr2 = run_wire(2, UNSPLIT, &edges, pr, SYNC);
    // Eight agents: seven senders' lists to sum per receiver, and the
    // same one report per agent per step.
    let wcc8 = run_wire(8, UNSPLIT, &edges, Wcc::new(), SYNC);
    let pr8 = run_wire(8, UNSPLIT, &edges, pr, SYNC);
    for (w, what) in [
        (&wcc2, "wcc"),
        (&pr2, "pr"),
        (&wcc8, "wcc, 8 agents"),
        (&pr8, "pr, 8 agents"),
    ] {
        assert!(!w.may_split, "{what}: the view's bound allows a split");
        assert!(w.steps >= 5, "{what}: {} steps", w.steps);
        // Step 0's scatter, one advance per step, the last step's and
        // the `done` (PageRank with `max_iters(10)`: 14 while its last
        // step took three barriers).
        assert!(
            w.advances <= w.steps + 3,
            "{what}: {} ADVANCE frames per agent for {} steps",
            w.advances,
            w.steps
        );
        // One READY per agent per step: the Scatter barrier closes on
        // what the senders reported, so no agent reports a second time
        // to confirm a receive (24 to 30 per agent while it did, for 9
        // and 10 steps; 60 and 68 with three barriers a step). What is
        // over `steps` is step 0 and a `max_steps` run's last step (13
        // while that step took three barriers).
        assert!(
            w.readys <= w.steps + 2,
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
    assert_eq!(wcc2.states.len(), n as usize);
    for (v, &label) in &labels {
        assert_eq!(wcc2.states[v], label, "vertex {v}");
    }
    for (v, &label) in &labels {
        assert_eq!(wcc8.states[v], label, "8 agents: vertex {v}");
    }
    assert_eq!(pr2.steps, pr8.steps);
    assert_ranks_close(&pr2.states, &pr8.states, "pagerank across agent counts");

    // Threshold 64: the hub (degree 300+) is split over all three
    // agents, and the lead knows without asking which vertex it is.
    let wcc = run_wire(3, 64, &edges, Wcc::new(), SYNC);
    let split = run_wire(3, 64, &edges, pr, SYNC);
    for (w, what) in [(&wcc, "split wcc"), (&split, "split pr")] {
        assert!(w.may_split, "{what}");
        // Three barriers a step, step 0 included, and no report for a
        // PARTIAL or STATE frame's arrival (43 READYs for 10 steps of
        // split PageRank while those were re-reported).
        assert!(
            w.advances >= 3 * w.steps && w.readys >= 3 * w.steps && w.readys <= 3 * w.steps + 4,
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
    assert_eq!(split.steps, pr2.steps);
    assert_ranks_close(&split.states, &pr2.states, "pagerank split vs whole");
}

/// ROADMAP item 10's ring: sync WCC on an `n`-vertex ring, whose
/// labels cross the ring hop by hop. A step chases its agent's own
/// records to a local fixed point, so the minimum label crosses one
/// *agent boundary* a step, not one edge: at 2, 4 and 8 agents the run
/// takes about as many steps as the most boundaries the label needs to
/// reach a vertex (133, 220 and 264 here, where every run took 301:
/// `n / 2` hops), and the labels are the reference's to the bit, at
/// one READY per agent per step.
#[test]
fn ring_wcc_steps_follow_the_agent_boundaries_a_label_crosses() {
    let n = 600u64;
    let edges: Vec<(u64, u64)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let labels = reference::wcc(edges.iter().copied());
    for agents in [2, 4, 8] {
        let w = run_wire(agents, 1 << 20, &edges, Wcc::new(), SYNC);
        for (v, &label) in &labels {
            assert_eq!(w.states[v], label, "{agents} agents: vertex {v}");
        }
        // Boundaries on the way from vertex 0, the minimum, to each
        // vertex, around either side of the ring: a label takes the
        // shorter.
        let ring = w.view.locator();
        let owner = |v: u64| ring.ring().owner(v % n).expect("owner");
        let cut: Vec<u64> = (0..n)
            .map(|i| u64::from(owner(i) != owner(i + 1)))
            .collect();
        let total: u64 = cut.iter().sum();
        let mut before = 0;
        let mut crossings = 0;
        for v in 0..n {
            crossings = crossings.max(before.min(total - before));
            before += cut[v as usize];
        }
        assert!(w.chased > 0, "{agents} agents: nothing chased");
        // One boundary a step, and the step that finds nothing left
        // to improve.
        assert!(
            crossings <= w.steps && w.steps <= crossings + 2,
            "{agents} agents: {} steps for a label crossing {crossings} boundaries",
            w.steps
        );
        assert!(
            w.readys <= w.steps + 2,
            "{agents} agents: {} READY frames per agent for {} steps",
            w.readys,
            w.steps
        );
    }
}

/// A join and a leave while a split run is in flight land on Apply
/// barriers whose STATE records are still crossing to the hub's
/// replicas: each view waits behind the `Migrate` advance that counts
/// them, so no replica moves ahead of its state and the ranks are the
/// run's without a view change.
#[test]
fn a_split_run_absorbs_a_mid_run_view_change() {
    let n = 6000;
    let mut edges = big_graph(n);
    edges.extend((1..=300).map(|i| (0, i * 19 % n)));
    edges.sort_unstable();
    edges.dedup();
    let pr = PageRank::new(0.85).with_max_iters(30);
    let clean = run_wire(3, 64, &edges, pr, SYNC);
    let mut cluster = Cluster::builder()
        .agents(3)
        .replication_threshold(64)
        .build();
    cluster.ingest_edges(edges.iter().copied());
    let handle = cluster.start_run(pr, SYNC).expect("start");
    assert_eq!(cluster.add_agents(1).len(), 1);
    assert_eq!(cluster.remove_agents(1).len(), 1);
    let stats = cluster.wait_run(handle).expect("the run absorbs both");
    assert!(cluster.view().may_split());
    assert_eq!(u64::from(stats.steps), clean.steps);
    let got = cluster.dump_states();
    cluster.shutdown();
    assert_ranks_close(&got, &clean.states, "split run across view changes");
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
/// frame on the wire, counts none, and delivers them all the same.
#[test]
fn single_agent_run_frames_no_vertex_message() {
    let edges = big_graph(3000);
    let pr = PageRank::new(0.85).with_max_iters(10);
    let labels = elga::graph::reference::wcc(edges.iter().copied());
    let wcc = run_wire(1, 1 << 20, &edges, Wcc::new(), SYNC);
    let pr = run_wire(1, 1 << 20, &edges, pr, SYNC);
    for (w, what) in [(&wcc, "wcc"), (&pr, "pr")] {
        assert_eq!(w.vmsg_wire, (0, 0), "{what}: VMSG frames on the wire");
        assert_eq!(w.vmsg_counted, (0, 0), "{what}");
        assert_eq!(w.replica_frames, 0, "{what}");
        assert!(w.vmsgs > 3000, "{what}: {} messages", w.vmsgs);
    }
    for (v, &label) in &labels {
        assert_eq!(wcc.states[v], label, "vertex {v}");
    }
}

/// One agent, async: every vertex message and replica copy is its own
/// and is delivered in place, as in a sync run — the run frames no VMSG
/// and no STATE — and the answers still match the reference. WCC
/// broadcasts on every commit, `DagLevel` counts one message per edge
/// into its waiting sets, delta PageRank pushes each fold's delta.
#[test]
fn single_agent_async_run_frames_no_vertex_message_or_state() {
    let asynch = RunOptions {
        reuse_state: false,
        mode: ExecutionMode::Async,
    };
    let n = 2000;
    let edges = big_graph(n);
    // Forward edges only, over the same ids: a DAG with long paths.
    let dag: Vec<(u64, u64)> = edges.iter().copied().filter(|&(u, v)| u < v).collect();
    let pr = PageRank::new(0.85)
        .with_max_iters(300)
        .with_tolerance(1e-10);
    let wcc = run_wire(1, 1 << 20, &edges, Wcc::new(), asynch);
    let levels = run_wire(1, 1 << 20, &dag, DagLevel::new(), asynch);
    let ranks = run_wire(1, 1 << 20, &edges, pr, asynch);
    for (w, what) in [(&wcc, "wcc"), (&levels, "dag levels"), (&ranks, "pagerank")] {
        assert_eq!(w.vmsg_wire.0, 0, "{what}: VMSG frames on the wire");
        assert_eq!(w.replica_frames, 0, "{what}: PARTIAL or STATE frames");
        assert!(w.vmsgs >= n, "{what}: {} messages", w.vmsgs);
    }
    for (v, &label) in &reference::wcc(edges.iter().copied()) {
        assert_eq!(wcc.states[v], label, "wcc: vertex {v}");
    }
    let csr = Csr::from_edges(Some(n as usize), &dag);
    let want = reference::dag_levels(&csr).expect("acyclic");
    assert_eq!(levels.states.len(), want.len());
    for (v, &level) in &want {
        assert_eq!(
            DagLevel::decode(levels.states[v]),
            Some(level),
            "vertex {v}"
        );
    }
    assert_eq!(levels.vmsgs, dag.len() as u64, "one message per edge");
    let want = reference::pagerank(&Csr::from_edges(Some(n as usize), &edges), 0.85, 300);
    assert_eq!(ranks.states.len(), want.len());
    for (v, &bits) in &ranks.states {
        let got = f64::from_bits(bits);
        assert!(
            (got - want[*v as usize]).abs() < 1e-6,
            "v{v}: {got} vs {}",
            want[*v as usize]
        );
    }
}

/// Delays reorder whole frames across routes, and coalesced frames
/// carry many records each: under two delay seeds, a delayed cluster
/// must match a clean one.
#[test]
fn wcc_bit_identical_under_chaos() {
    let edges = big_graph(6000);
    let cfg = SystemConfig {
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    };
    let plan = FaultPlan::delays(Duration::ZERO, Duration::from_millis(5));
    let mut clean = Cluster::builder().agents(4).config(cfg.clone()).build();
    clean.ingest_edges(edges.iter().copied());
    clean.run(Wcc::new()).expect("clean wcc");
    let want = clean.dump_states();
    clean.shutdown();
    for seed in [0xE16A, 0xC0A1] {
        let mut chaos = Cluster::builder()
            .agents(4)
            .config(cfg.clone())
            .chaos(plan.clone(), seed)
            .build();
        chaos.ingest_edges(edges.iter().copied());
        chaos.run(Wcc::new()).expect("chaos wcc");
        let got = chaos.dump_states();
        assert_eq!(got, want, "seed {seed:#x}: chaos vs clean");
        let stats = chaos.fault().expect("chaos handle").stats();
        assert!(stats.delayed() > 0, "seed {seed:#x}: no frame delayed");
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

/// The PageRank (ten steps) and WCC runs both deployments below make,
/// in this order, on one ingest of the whole graph.
fn pagerank_then_wcc() -> [ProgramSpec; 2] {
    [
        PageRank::new(0.85).with_max_iters(10).into(),
        Wcc::new().into(),
    ]
}

/// Single-agent deployment over real TCP sockets: both state dumps.
fn tcp_states(edges: &[(u64, u64)]) -> Vec<HashMap<u64, u64>> {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let cfg = SystemConfig::default();
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

    let states = pagerank_then_wcc()
        .into_iter()
        .map(|spec| {
            run_to_done(spec);
            dump(&transport)
        })
        .collect();

    let _ = transport.request(
        &dir0,
        Frame::signal(packet::SHUTDOWN),
        Duration::from_secs(5),
    );
    if let Ok(out) = transport.sender(&master) {
        let _ = out.send(Frame::signal(packet::SHUTDOWN));
    }
    let _ = agent_handle.join();
    states
}

/// The same single-agent runs in process: both state dumps.
fn in_process_states(edges: &[(u64, u64)]) -> Vec<HashMap<u64, u64>> {
    let mut cluster = Cluster::builder().agents(1).build();
    cluster.ingest_edges(edges.iter().copied());
    let states = pagerank_then_wcc()
        .into_iter()
        .map(|spec| {
            cluster.run(spec).expect("run");
            cluster.dump_states()
        })
        .collect();
    cluster.shutdown();
    states
}

/// One agent over real sockets lands on the bits it lands on in
/// process: the transport and the coalescing behind it carry the same
/// ingest to the same store, and the kernels do the rest.
#[test]
fn tcp_results_bit_identical_to_in_process() {
    let edges = big_graph(2000);
    let tcp = tcp_states(&edges);
    let inproc = in_process_states(&edges);
    assert_eq!(tcp[0].len(), 2000);
    assert_eq!(tcp[0], inproc[0], "PageRank over TCP must be bit-exact");
    assert_eq!(tcp[1], inproc[1], "WCC over TCP must be bit-exact");
}
