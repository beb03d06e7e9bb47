//! The full system over real TCP sockets: every endpoint is a
//! `tcp://127.0.0.1:*` address and every message crosses the loopback
//! stack — the paper's inter-node transport (§3.5), exercised end to
//! end with the same entities the in-process cluster uses.

use elga::core::agent::Agent;
use elga::core::directory::{self, DirectoryRole};
use elga::core::metrics::ClusterMetrics;
use elga::core::msg::{self, packet, Message, RunInfo};
use elga::core::program::ProgramSpec;
use elga::core::streamer::Streamer;
use elga::graph::csr::Csr;
use elga::graph::reference;
use elga::net::{Addr, Frame, TcpTransport, Transport};
use elga::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn tcp_any() -> Addr {
    Addr::parse("tcp://127.0.0.1:0").expect("addr")
}

/// Bind concrete loopback ports for the fixed endpoints (master, lead
/// directory mailbox, bus) by briefly binding port 0 listeners.
fn reserve_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("reserve")
        .local_addr()
        .expect("addr")
        .port()
}

/// The whole system on loopback sockets: master, lead directory, bus
/// and three agents on ephemeral ports.
struct Deployment {
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    master: Addr,
    dir0: Addr,
    bus: Addr,
    agents: Vec<std::thread::JoinHandle<Vec<elga::trace::TraceEvent>>>,
}

impl Deployment {
    fn start() -> Deployment {
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let cfg = SystemConfig::default();
        // Fixed endpoints need concrete ports (participants dial them).
        let fixed = || Addr::parse(&format!("tcp://127.0.0.1:{}", reserve_port())).expect("addr");
        let (master, dir0, bus) = (fixed(), fixed(), fixed());
        let _master = directory::spawn_master(transport.clone(), master.clone());
        let _dir = directory::spawn_directory_at(
            transport.clone(),
            cfg.clone(),
            0,
            master.clone(),
            dir0.clone(),
            DirectoryRole::Lead { bus: bus.clone() },
        );
        let agents = (1..=3u64)
            .map(|id| {
                Agent::join_at(
                    transport.clone(),
                    cfg.clone(),
                    id,
                    tcp_any(),
                    dir0.clone(),
                    bus.clone(),
                )
                .expect("agent join over tcp")
                .spawn()
            })
            .collect();
        Deployment {
            transport,
            cfg,
            master,
            dir0,
            bus,
            agents,
        }
    }

    /// Stream `edges` (all new) in over sockets and wait until the
    /// agents have applied both placements of every one of them and
    /// what that made them send each other (degree deltas, residual
    /// corrections) has landed. There is no driver-side quiesce here,
    /// and a run started ahead of a straggling frame computes without
    /// it — a fixed sleep was not enough on a loaded host.
    fn ingest(&self, streamer: &mut Streamer, edges: &[(u64, u64)]) {
        // Changes applied so far, and whether the agents' forwards
        // have all arrived. A METRICS request makes an agent push its
        // metrics to the lead first, so the count is at most one round
        // behind.
        let state = |tcp: &Deployment| {
            let (sent, recv) = tcp
                .drain_all()
                .iter()
                .fold((0, 0), |sums, c| (sums.0 + c.chg_sent, sums.1 + c.chg_recv));
            let rep = tcp
                .transport
                .request(
                    &tcp.dir0,
                    Frame::signal(packet::GET_METRICS),
                    Duration::from_secs(5),
                )
                .expect("metrics");
            let metrics = ClusterMetrics::decode(&rep).expect("metrics");
            (metrics.changes, sent == recv)
        };
        let want = state(self).0 + 2 * edges.len() as u64;
        let changes: Vec<EdgeChange> = edges
            .iter()
            .map(|&(u, v)| EdgeChange::insert(u, v))
            .collect();
        streamer.send_batch(&changes).expect("send");
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            let (applied, landed) = state(self);
            if applied >= want && landed {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "ingest over tcp");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Have every agent of the current view push its metrics, then
    /// DRAIN it; each one's counts summed over its peers.
    fn drain_all(&self) -> Vec<msg::Counters> {
        let view = self
            .transport
            .request(
                &self.dir0,
                Frame::signal(packet::GET_VIEW),
                Duration::from_secs(5),
            )
            .expect("view");
        let view = msg::DirectoryView::decode(&view).expect("view");
        view.agents
            .iter()
            .map(|agent| {
                let ask = |kind| {
                    let frame = Frame::signal(kind);
                    let rep = self
                        .transport
                        .request(&agent.addr, frame, Duration::from_secs(5));
                    rep.expect("answered")
                };
                ask(packet::METRICS);
                let rows = msg::DrainReport::decode(&ask(packet::DRAIN))
                    .expect("rows")
                    .rows;
                rows.iter()
                    .fold(msg::Counters::default(), |t, (_, c)| msg::Counters {
                        vmsg_sent: t.vmsg_sent + c.vmsg_sent,
                        vmsg_recv: t.vmsg_recv + c.vmsg_recv,
                        chg_sent: t.chg_sent + c.chg_sent,
                        chg_recv: t.chg_recv + c.chg_recv,
                        ..t
                    })
            })
            .collect()
    }

    /// Drive a run: subscribe to the bus for the done signal, then REQ
    /// the start. `incremental` carries state over (and, for PageRank,
    /// runs the delta engine).
    fn run_to_done(&self, spec: ProgramSpec, incremental: bool) -> u64 {
        let (tag, params) = spec.encode();
        let sub = self
            .transport
            .subscribe(&self.bus, &[packet::ADVANCE])
            .expect("subscribe");
        let rep = self
            .transport
            .request(
                &self.dir0,
                RunInfo {
                    run_id: 0,
                    tag,
                    params,
                    reuse_state: incremental,
                    asynchronous: false,
                    delta: incremental,
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
                    return run_id;
                }
            }
        }
    }

    /// Σ `vmsg_sent` and Σ `vmsg_recv` over the agents, as DRAIN reads
    /// them.
    fn vmsg_sums(&self) -> (u64, u64) {
        self.drain_all().iter().fold((0, 0), |sums, c| {
            (sums.0 + c.vmsg_sent, sums.1 + c.vmsg_recv)
        })
    }

    /// Shut the whole deployment down over the wire.
    fn shutdown(self) {
        let _ = self.transport.request(
            &self.dir0,
            Frame::signal(packet::SHUTDOWN),
            Duration::from_secs(5),
        );
        if let Ok(out) = self.transport.sender(&self.master) {
            let _ = out.send(Frame::signal(packet::SHUTDOWN));
        }
        for h in self.agents {
            let _ = h.join();
        }
    }
}

/// Agents flip their double-buffered serving snapshot when *they*
/// process the done broadcast — a read racing straight off the bus can
/// still see the previous snapshot (or a miss). An answer's run tag
/// says which completed run it belongs to; poll until every answer is
/// from the one we watched finish.
fn query_run(client: &QueryClient, vertices: &[u64], run: u64) -> Vec<u64> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let answers = client.query_batch(vertices);
        if answers.iter().all(|a| a.is_some_and(|a| a.run == run)) {
            return answers.into_iter().flatten().map(|a| a.state).collect();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no run-{run} answers over tcp (last: {answers:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn wcc_and_pagerank_over_tcp_sockets() {
    let tcp = Deployment::start();
    let edges: Vec<(u64, u64)> = vec![
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (10, 11),
        (11, 12),
        (12, 10),
    ];
    let mut streamer = Streamer::connect(tcp.transport.clone(), tcp.cfg.clone(), tcp.dir0.clone())
        .expect("streamer");
    tcp.ingest(&mut streamer, &edges);
    let wcc_run = tcp.run_to_done(Wcc::new().into(), false);

    let client = QueryClient::connect(tcp.transport.clone(), tcp.cfg.clone(), tcp.dir0.clone())
        .expect("query client");
    let expect = reference::wcc(edges.iter().copied());
    let vertices: Vec<u64> = expect.keys().copied().collect();
    let labels = query_run(&client, &vertices, wcc_run);
    for (v, label) in vertices.iter().zip(labels) {
        assert_eq!(label, expect[v], "vertex {v} over tcp");
    }

    // And PageRank across the same sockets.
    let pr_run = tcp.run_to_done(PageRank::new(0.85).with_max_iters(10).into(), false);
    let ranks = query_run(&client, &vertices, pr_run);
    let mass: f64 = ranks.into_iter().map(f64::from_bits).sum();
    assert!((mass - 1.0).abs() < 1e-9, "rank mass over tcp: {mass}");
    tcp.shutdown();
}

/// The run-ending advance over sockets (`tests/chaos.rs::
/// done_overtaking_the_last_scatter_leaves_nothing_in_flight` has the
/// why): the bus and the data plane are different connections, so a
/// tolerance-converged PageRank's `done` races the scatter the agents
/// ran ahead of the verdict (on loopback the scatter nearly always
/// wins, so this pins the outcome, not the interleaving). Every agent
/// takes its share of that scatter in before it leaves the run — the
/// VMSG sums balance as soon as every agent answers again — and the
/// delta run that follows sees a settled system and the right ranks.
#[test]
fn a_tolerance_converged_run_over_tcp_leaves_no_vmsg_behind() {
    let tcp = Deployment::start();
    let n = 90u64;
    let mut edges: Vec<(u64, u64)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.extend((0..n).step_by(3).map(|i| (i, (i * 7 + 3) % n)));
    let mut streamer = Streamer::connect(tcp.transport.clone(), tcp.cfg.clone(), tcp.dir0.clone())
        .expect("streamer");
    tcp.ingest(&mut streamer, &edges);
    let pagerank = || -> ProgramSpec {
        PageRank::new(0.85)
            .with_max_iters(300)
            .with_tolerance(1e-10)
            .into()
    };
    tcp.run_to_done(pagerank(), false);
    // An agent answers DRAIN once it has acted on the done advance or
    // between the frames it still waits for; a few rounds at most.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (sent, recv) = tcp.vmsg_sums();
        assert!(sent > 0, "nothing crossed between agents");
        if sent == recv {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{sent} VMSG records sent, {recv} received: the rest were dropped as stale"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let extra = [(5, 50), (33, 2), (80, 41)];
    tcp.ingest(&mut streamer, &extra);
    let run = tcp.run_to_done(pagerank(), true);
    edges.extend(extra);

    let want = reference::pagerank(&Csr::from_edges(Some(n as usize), &edges), 0.85, 300);
    let client = QueryClient::connect(tcp.transport.clone(), tcp.cfg.clone(), tcp.dir0.clone())
        .expect("query client");
    let vertices: Vec<u64> = (0..n).collect();
    for (v, rank) in vertices.iter().zip(query_run(&client, &vertices, run)) {
        let (rank, want) = (f64::from_bits(rank), want[*v as usize]);
        assert!((rank - want).abs() < 1e-6, "v{v}: {rank} vs {want}");
    }
    tcp.shutdown();
}

/// A graceful leave over sockets: the lead releases the departer at the
/// address it registered, so the departing agent's thread ends once its
/// data has moved, and the two agents left answer for all of it.
#[test]
fn a_graceful_leave_over_tcp_finishes() {
    let mut tcp = Deployment::start();
    let edges: Vec<(u64, u64)> = (0..60).map(|i| (i, (i * 7 + 1) % 60)).collect();
    let mut streamer = Streamer::connect(tcp.transport.clone(), tcp.cfg.clone(), tcp.dir0.clone())
        .expect("streamer");
    tcp.ingest(&mut streamer, &edges);
    let leave = Frame::builder(packet::LEAVE).u64(3).finish();
    let wait = Duration::from_secs(5);
    tcp.transport
        .request(&tcp.dir0, leave, wait)
        .expect("leave");
    let departer = tcp.agents.pop().expect("agent 3");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !departer.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "the departer never got its OK"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    departer.join().expect("the departer");

    let run = tcp.run_to_done(Wcc::new().into(), false);
    let client = QueryClient::connect(tcp.transport.clone(), tcp.cfg.clone(), tcp.dir0.clone())
        .expect("query client");
    let expect = reference::wcc(edges.iter().copied());
    let vertices: Vec<u64> = expect.keys().copied().collect();
    for (v, label) in vertices.iter().zip(query_run(&client, &vertices, run)) {
        assert_eq!(label, expect[v], "vertex {v} after the leave");
    }
    tcp.shutdown();
}
