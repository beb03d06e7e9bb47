//! Multi-process ElGA over TCP: this example re-executes itself as
//! separate OS processes for the DirectoryMaster, the lead Directory,
//! and each Agent, all talking over loopback sockets — the closest
//! single-machine analog of the paper's `pdsh`-started deployment
//! (Artifact Description: "The experiments were run by using pdsh to
//! start ElGA executables on each node").
//!
//! The coordinator streams a graph in and runs WCC across the
//! processes. Then one agent process leaves gracefully: its data moves
//! to the others and the process must exit cleanly within 20 s. The
//! coordinator runs PageRank on the three agents left and queries every
//! vertex's rank: it exits non-zero when a rank is missing or differs
//! from the single-threaded reference.
//!
//! ```sh
//! cargo run --release --example distributed_tcp            # coordinator
//! cargo run --release --example distributed_tcp -- --help  # roles
//! ```

use elga::core::agent::Agent;
use elga::core::directory::{self, DirectoryRole};
use elga::core::metrics::ClusterMetrics;
use elga::core::msg::{self, packet, Message, RunInfo};
use elga::core::read::Reader;
use elga::core::streamer::Streamer;
use elga::graph::csr::Csr;
use elga::graph::reference;
use elga::net::{Addr, Frame, TcpTransport, Transport};
use elga::prelude::*;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

const AGENTS: u64 = 4;

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn reserve_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("reserve port")
        .local_addr()
        .expect("local addr")
        .port()
}

fn tcp(port: u16) -> Addr {
    Addr::parse(&format!("tcp://127.0.0.1:{port}")).expect("addr")
}

fn main() {
    match arg("--role").as_deref() {
        None => coordinator(),
        Some("master") => role_master(),
        Some("directory") => role_directory(),
        Some("agent") => role_agent(),
        Some(other) => {
            eprintln!("unknown role {other}; roles: master, directory, agent");
            std::process::exit(2);
        }
    }
}

fn role_master() {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let port: u16 = arg("--port").expect("--port").parse().expect("port");
    directory::spawn_master(transport, tcp(port))
        .join()
        .expect("master");
}

fn role_directory() {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let port: u16 = arg("--port").expect("--port").parse().expect("port");
    let bus: u16 = arg("--bus").expect("--bus").parse().expect("bus");
    let master: u16 = arg("--master").expect("--master").parse().expect("master");
    directory::spawn_directory_at(
        transport,
        SystemConfig::default(),
        0,
        tcp(master),
        tcp(port),
        DirectoryRole::Lead { bus: tcp(bus) },
    )
    .join()
    .expect("directory");
}

fn role_agent() {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let id: u64 = arg("--id").expect("--id").parse().expect("id");
    let dir: u16 = arg("--dir").expect("--dir").parse().expect("dir");
    let bus: u16 = arg("--bus").expect("--bus").parse().expect("bus");
    let agent = Agent::join_at(
        transport,
        SystemConfig::default(),
        id,
        Addr::parse("tcp://127.0.0.1:0").expect("addr"),
        tcp(dir),
        tcp(bus),
    )
    .expect("agent join");
    agent.spawn().join().expect("agent");
}

fn spawn_role(args: &[String]) -> Child {
    Command::new(std::env::current_exe().expect("exe"))
        .args(args)
        .spawn()
        .expect("spawn role process")
}

/// The role processes. Dropping them kills whichever still run, so a
/// coordinator that panics leaves none behind.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Poll `ready` until it holds; panics after 20 s.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The agents of the lead directory's current view; `None` while the
/// directory process is not listening yet.
fn view_agents(transport: &Arc<dyn Transport>, dir: &Addr) -> Option<Vec<Addr>> {
    let view = Frame::signal(packet::GET_VIEW);
    let rep = transport.request(dir, view, Duration::from_secs(5)).ok()?;
    let view = msg::DirectoryView::decode(&rep)?;
    Some(view.agents.into_iter().map(|a| a.addr).collect())
}

/// Whether the agents have applied `placements` edge placements and
/// received every change they forwarded to each other. A METRICS
/// request makes an agent push its metrics to the lead before it
/// answers, so the lead's count is at most one round behind.
fn ingested(transport: &Arc<dyn Transport>, dir: &Addr, placements: u64) -> bool {
    let (mut sent, mut recv) = (0, 0);
    for agent in view_agents(transport, dir).expect("view") {
        let ask = |kind| transport.request(&agent, Frame::signal(kind), Duration::from_secs(5));
        ask(packet::METRICS).expect("metrics");
        let rep = ask(packet::DRAIN).expect("drain");
        for (_, c) in msg::DrainReport::decode(&rep).expect("drain").rows {
            sent += c.chg_sent;
            recv += c.chg_recv;
        }
    }
    let metrics = Frame::signal(packet::GET_METRICS);
    let rep = transport
        .request(dir, metrics, Duration::from_secs(5))
        .expect("metrics");
    let applied = ClusterMetrics::decode(&rep).expect("metrics").changes;
    applied >= placements && sent == recv
}

fn coordinator() {
    let master = reserve_port();
    let dir = reserve_port();
    let bus = reserve_port();
    println!("coordinator: master :{master}, directory :{dir}, bus :{bus}");

    let mut children = Children(vec![spawn_role(&[
        "--role".into(),
        "master".into(),
        "--port".into(),
        master.to_string(),
    ])]);
    std::thread::sleep(Duration::from_millis(150));
    children.0.push(spawn_role(&[
        "--role".into(),
        "directory".into(),
        "--port".into(),
        dir.to_string(),
        "--bus".into(),
        bus.to_string(),
        "--master".into(),
        master.to_string(),
    ]));
    std::thread::sleep(Duration::from_millis(150));
    for id in 1..=AGENTS {
        children.0.push(spawn_role(&[
            "--role".into(),
            "agent".into(),
            "--id".into(),
            id.to_string(),
            "--dir".into(),
            dir.to_string(),
            "--bus".into(),
            bus.to_string(),
        ]));
    }
    println!("spawned {} processes ({AGENTS} agents)", children.0.len());

    // Drive the deployment over sockets: stream a graph, run WCC and
    // PageRank, query, then shut everything down.
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let cfg = SystemConfig::default();
    let dir_addr = tcp(dir);
    wait_until("every agent to join", || {
        view_agents(&transport, &dir_addr).is_some_and(|a| a.len() == AGENTS as usize)
    });

    let edges: Vec<(u64, u64)> = elga::gen::powerlaw::power_law(300, 1500, 2.0, 7)
        .into_iter()
        .collect();
    let mut streamer =
        Streamer::connect(transport.clone(), cfg.clone(), dir_addr.clone()).expect("streamer");
    let changes: Vec<EdgeChange> = edges
        .iter()
        .map(|&(u, v)| EdgeChange::insert(u, v))
        .collect();
    streamer.send_batch(&changes).expect("stream");
    // The cluster holds a set of edges: a repeated insert applies
    // nothing, so the distinct edges are what it computes on.
    let mut distinct = edges.clone();
    distinct.sort_unstable();
    distinct.dedup();
    // A run started before the last change lands would compute without
    // it: wait for both placements of every distinct edge.
    let placements = 2 * distinct.len() as u64;
    wait_until("the stream to land", || {
        ingested(&transport, &dir_addr, placements)
    });
    println!(
        "streamed {} edges ({} distinct) into 4 agent processes",
        changes.len(),
        distinct.len()
    );

    // Start a run and wait for it: one RUN_STATUS request the lead holds
    // until the run is over. Returns its id and how long it took.
    let run = |spec: elga::core::program::ProgramSpec| {
        let (tag, params) = spec.encode();
        let rep = transport
            .request(
                &dir_addr,
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
            .expect("start run");
        let run_id = rep.reader().u64().expect("run id");
        let t0 = Instant::now();
        let wait = Frame::builder(packet::RUN_STATUS).u64(run_id).finish();
        let rep = transport.request(&dir_addr, wait, Duration::from_secs(60));
        let status = msg::RunStatus::decode(&rep.expect("run status")).expect("a status");
        assert!(status.run_id == run_id && status.done, "{status:?}");
        (run_id, t0.elapsed())
    };

    let (_, dt) = run(Wcc::new().into());
    println!("WCC across processes: {dt:?}");

    // A graceful leave: the lead releases the departer once its data
    // has moved, and the process ends on its own.
    let leave = Frame::builder(packet::LEAVE).u64(AGENTS).finish();
    transport
        .request(&dir_addr, leave, Duration::from_secs(5))
        .expect("leave");
    let departer = children.0.last_mut().expect("the last agent");
    let mut status = None;
    wait_until("the departing agent to exit", || {
        status = departer.try_wait().expect("departer status");
        status.is_some()
    });
    let status = status.expect("exited");
    assert!(status.success(), "the departing agent exited with {status}");
    println!("agent {AGENTS} left gracefully and exited");

    let (pagerank, dt) = run(PageRank::new(0.85).with_max_iters(10).into());
    println!(
        "PageRank (10 iters) across the {} agents left: {dt:?}",
        AGENTS - 1
    );

    // Validate against the local reference: every vertex answers, with
    // the rank 10 reference iterations give on the distinct edges.
    let mut ids: Vec<u64> = distinct.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    let dense_id = |v: u64| ids.binary_search(&v).expect("an endpoint") as u64;
    let dense: Vec<(u64, u64)> = distinct
        .iter()
        .map(|&(u, v)| (dense_id(u), dense_id(v)))
        .collect();
    let want = reference::pagerank(&Csr::from_edges(Some(ids.len()), &dense), 0.85, 10);
    // The read names the run it watched finish: an agent that has not
    // yet taken the run's end off its bus connection answers at its flip.
    let reader = Reader::connect(transport.clone(), cfg, dir_addr.clone()).expect("reader");
    let answers = reader.read(&ids, pagerank);
    let (mut wrong, mut worst) = (0usize, 0.0f64);
    for ((v, answer), want) in ids.iter().zip(answers).zip(want) {
        let rank = answer.map(|a| f64::from_bits(a.state));
        let diff = rank.map(|r| (r - want).abs());
        worst = worst.max(diff.unwrap_or(0.0));
        if !diff.is_some_and(|d| d < reference::PAGERANK_TOLERANCE) {
            wrong += 1;
            eprintln!("vertex {v}: rank {rank:?}, reference {want}");
        }
    }
    println!(
        "{} of {} ranks match the reference (worst difference {worst:.1e})",
        ids.len() - wrong,
        ids.len()
    );

    // Tear down: broadcast SHUTDOWN, stop the master, reap children.
    let _ = transport.request(
        &dir_addr,
        Frame::signal(packet::SHUTDOWN),
        Duration::from_secs(5),
    );
    if let Ok(out) = transport.sender(&tcp(master)) {
        let _ = out.send(Frame::signal(packet::SHUTDOWN));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for child in &mut children.0 {
        while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    drop(children);
    println!("all processes exited");
    if wrong > 0 {
        eprintln!("{wrong} of {} ranks missing or wrong", ids.len());
        std::process::exit(1);
    }
}
