//! Multi-process ElGA over TCP: this example re-executes itself as
//! separate OS processes for the DirectoryMaster, the lead Directory,
//! and each Agent, all talking over loopback sockets — the closest
//! single-machine analog of the paper's `pdsh`-started deployment
//! (Artifact Description: "The experiments were run by using pdsh to
//! start ElGA executables on each node").
//!
//! ```sh
//! cargo run --release --example distributed_tcp            # coordinator
//! cargo run --release --example distributed_tcp -- --help  # roles
//! ```

use elga::core::agent::Agent;
use elga::core::directory::{self, DirectoryRole};
use elga::core::msg::{self, packet, Message, RunInfo};
use elga::core::streamer::Streamer;
use elga::graph::reference;
use elga::net::{Addr, Frame, TcpTransport, Transport};
use elga::prelude::*;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::Duration;

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

fn coordinator() {
    let master = reserve_port();
    let dir = reserve_port();
    let bus = reserve_port();
    println!("coordinator: master :{master}, directory :{dir}, bus :{bus}");

    let mut children = vec![spawn_role(&[
        "--role".into(),
        "master".into(),
        "--port".into(),
        master.to_string(),
    ])];
    std::thread::sleep(Duration::from_millis(150));
    children.push(spawn_role(&[
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
        children.push(spawn_role(&[
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
    println!("spawned {} processes ({AGENTS} agents)", children.len());
    std::thread::sleep(Duration::from_millis(300));

    // Drive the deployment over sockets: stream a graph, run WCC and
    // PageRank, query, then shut everything down.
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let cfg = SystemConfig::default();
    let dir_addr = tcp(dir);
    let bus_addr = tcp(bus);

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
    println!("streamed {} edges into 4 agent processes", changes.len());
    std::thread::sleep(Duration::from_millis(300));

    let run = |spec: elga::core::program::ProgramSpec| {
        let (tag, params) = spec.encode();
        let sub = transport
            .subscribe(&bus_addr, &[packet::ADVANCE])
            .expect("subscribe");
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
                    dangling_base: 0.0,
                    watermark: 0,
                }
                .encode(),
                Duration::from_secs(30),
            )
            .expect("start run");
        let run_id = rep.reader().u64().expect("run id");
        let t0 = std::time::Instant::now();
        loop {
            let d = sub.recv_timeout(Duration::from_secs(60)).expect("advance");
            if let Some(adv) = msg::Advance::decode(&d.frame) {
                if adv.run == run_id && adv.done {
                    return t0.elapsed();
                }
            }
        }
    };

    let dt = run(Wcc::new().into());
    println!("WCC across processes: {dt:?}");
    let dt = run(PageRank::new(0.85).with_max_iters(10).into());
    println!("PageRank (10 iters) across processes: {dt:?}");

    // Validate against the local reference.
    let client = QueryClient::connect(transport.clone(), cfg, dir_addr.clone()).expect("client");
    let truth = reference::wcc(edges.iter().copied());
    let vertices: Vec<u64> = truth.keys().copied().collect();
    let ranks: Vec<Option<f64>> = client
        .query_batch(&vertices)
        .into_iter()
        .map(|a| a.map(|a| f64::from_bits(a.state)))
        .collect();
    let mass: f64 = ranks.iter().flatten().sum();
    println!("rank mass across processes: {mass:.6}");
    for (v, rank) in vertices.iter().zip(&ranks).take(5) {
        println!("  query vertex {v}: rank {rank:?}");
    }

    // Tear down: broadcast SHUTDOWN, stop the master, reap children.
    let _ = transport.request(
        &dir_addr,
        Frame::signal(packet::SHUTDOWN),
        Duration::from_secs(5),
    );
    if let Ok(out) = transport.sender(&tcp(master)) {
        let _ = out.send(Frame::signal(packet::SHUTDOWN));
    }
    for mut child in children {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50))
                }
                _ => {
                    let _ = child.kill();
                    break;
                }
            }
        }
    }
    println!("all processes exited");
}
