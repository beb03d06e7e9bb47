//! Multi-core scale-out: process-per-agent deployment over real TCP
//! sockets, the closest single-machine analog of the paper's
//! `pdsh`-started cluster (one ElGA executable per node).
//!
//! The in-process fig14 run time-shares every agent thread inside one
//! process; this bench re-executes itself as separate OS processes for
//! the DirectoryMaster, the lead Directory, and each Agent, so the OS
//! can schedule agents onto real cores and every frame crosses the
//! zero-copy TCP receive path (pooled batch buffers + borrowed record
//! views + vectored gather writes).
//!
//! Writes `BENCH_scaleout.json` at the workspace root (override with
//! `ELGA_BENCH_SCALEOUT_OUT`). The host core count is recorded in the
//! artifact: on a single-core container the agents=8 row cannot beat
//! agents=4 on wall clock (the processes time-share one CPU and pay
//! extra scheduling + forwarding cost); the artifact is only evidence
//! of multi-core scaling when `cores > 1`.

use elga_bench::{generate, mean_ci, trials};
use elga_core::agent::Agent;
use elga_core::config::SystemConfig;
use elga_core::directory::{self, DirectoryRole};
use elga_core::metrics::ClusterMetrics;
use elga_core::msg::{packet, Counters, DirectoryView, DrainReport, Message, RunStatus};
use elga_core::streamer::Streamer;
use elga_gen::catalog::find;
use elga_graph::types::EdgeChange;
use elga_net::{Addr, Frame, NetError, TcpTransport, Transport};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    // Detach the child from the coordinator's stdio: an orphaned role
    // process must not pin the parent's stdout pipe open, and stderr is
    // kept only for panic backtraces.
    Command::new(std::env::current_exe().expect("exe"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn role process")
}

/// One process-per-agent deployment: master + lead directory + `agents`
/// agent processes, all over loopback TCP.
struct Deployment {
    transport: Arc<dyn Transport>,
    cfg: SystemConfig,
    dir_addr: Addr,
    master_addr: Addr,
    children: Vec<Child>,
}

impl Deployment {
    fn start(agents: usize) -> Deployment {
        let master = reserve_port();
        let dir = reserve_port();
        let bus = reserve_port();
        let mut children = vec![spawn_role(&[
            "--role".into(),
            "master".into(),
            "--port".into(),
            master.to_string(),
        ])];
        std::thread::sleep(Duration::from_millis(100));
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
        std::thread::sleep(Duration::from_millis(100));
        for id in 1..=agents as u64 {
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
        let mut d = Deployment {
            transport: Arc::new(TcpTransport::new()),
            cfg: SystemConfig::default(),
            dir_addr: tcp(dir),
            master_addr: tcp(master),
            children,
        };
        d.wait_for_agents(agents);
        d
    }

    fn request(&self, addr: &Addr, frame: Frame) -> Result<Frame, NetError> {
        self.transport
            .request(addr, frame, self.cfg.request_timeout)
    }

    fn view(&self) -> Option<DirectoryView> {
        let rep = self
            .request(&self.dir_addr, Frame::signal(packet::GET_VIEW))
            .ok()?;
        DirectoryView::decode(&rep)
    }

    /// Poll the directory until all `agents` have registered.
    fn wait_for_agents(&mut self, agents: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if self.view().is_some_and(|v| v.agents.len() == agents) {
                return;
            }
            if Instant::now() >= deadline {
                let view = self.view();
                let statuses: Vec<String> = self
                    .children
                    .iter_mut()
                    .map(|c| match c.try_wait() {
                        Ok(Some(st)) => format!("exited {st}"),
                        Ok(None) => "running".into(),
                        Err(e) => format!("? {e}"),
                    })
                    .collect();
                panic!(
                    "agents did not all register within 30s; view: {:?}; \
                     children [master, directory, agents..]: {statuses:?}",
                    view.map(|v| v.agents.iter().map(|a| a.id).collect::<Vec<_>>())
                );
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Client-side replica of `Cluster::quiesce`: DRAIN rounds over all
    /// agent processes until the summed counters are settled and
    /// stable and the directory reports no outstanding migration.
    fn quiesce(&self) -> Result<(), NetError> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut last: Option<Counters> = None;
        loop {
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            let status = self
                .request(&self.dir_addr, Frame::signal(packet::RUN_STATUS))
                .ok()
                .and_then(|f| RunStatus::decode(&f));
            let Some(status) = status.filter(|s| !s.migrating) else {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            let Some(view) = self.view() else {
                continue;
            };
            // The departed agents' totals ride the RUN_STATUS reply; the
            // DRAINs of one wave are in flight together.
            let requests: Vec<(&Addr, Frame)> = view
                .agents
                .iter()
                .map(|a| (&a.addr, Frame::signal(packet::DRAIN)))
                .collect();
            let mut sum = Some(status.departed);
            for rep in self
                .transport
                .request_all(&requests, self.cfg.request_timeout)
            {
                let counters = rep.ok().and_then(|rep| DrainReport::decode(&rep));
                let counters = counters.map(|report| report.counters);
                sum = sum.zip(counters).map(|(sum, c)| sum.add(&c));
            }
            if sum.is_some_and(|sum| sum.settled()) && last == sum {
                return Ok(());
            }
            last = sum;
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Aggregated metrics across the agent processes (the directory
    /// DRAINs every agent for its live snapshot).
    fn metrics(&self) -> Option<ClusterMetrics> {
        let rep = self
            .request(&self.dir_addr, Frame::signal(packet::GET_METRICS))
            .ok()?;
        ClusterMetrics::decode(&rep)
    }

    fn shutdown(mut self) {
        let _ = self.request(&self.dir_addr, Frame::signal(packet::SHUTDOWN));
        if let Ok(out) = self.transport.sender(&self.master_addr) {
            let _ = out.send(Frame::signal(packet::SHUTDOWN));
        }
        for child in &mut self.children {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(50))
                    }
                    _ => {
                        let _ = child.kill();
                        break;
                    }
                }
            }
        }
        self.children.clear();
    }
}

impl Drop for Deployment {
    /// Reap the role processes even when a trial panics (e.g. a
    /// registration or quiesce timeout) so a failed run never leaves
    /// orphans competing for the CPU with the next deployment.
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

struct Row {
    agents: usize,
    streamers: usize,
    rate: f64,
    rx_pool_hit_rate: f64,
    decode_nanos: u64,
}

/// One measured trial against a fresh deployment: `streamers` threads
/// shard the stream into `agents` agent processes, then quiesce.
fn ingest_trial(agents: usize, streamers: usize, edges: &[(u64, u64)]) -> (f64, ClusterMetrics) {
    let d = Deployment::start(agents);
    let shards: Vec<Vec<EdgeChange>> = (0..streamers)
        .map(|s| {
            edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % streamers == s)
                .map(|(_, &(u, v))| EdgeChange::insert(u, v))
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for shard in &shards {
            let transport = d.transport.clone();
            let cfg = d.cfg.clone();
            let dir = d.dir_addr.clone();
            scope.spawn(move || {
                let mut s = Streamer::connect(transport, cfg, dir).expect("streamer");
                for chunk in shard.chunks(8192) {
                    s.send_batch(chunk).expect("send");
                }
            });
        }
    });
    d.quiesce().expect("quiesce");
    let secs = t0.elapsed().as_secs_f64();
    let metrics = d.metrics().unwrap_or_default();
    d.shutdown();
    (secs, metrics)
}

fn coordinator() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n=== scale-out — process-per-agent ingest over loopback TCP ===");
    println!(
        "    ({cores} core(s), {} trials; ELGA_TRIALS to adjust)",
        trials()
    );
    if cores == 1 {
        println!("    NOTE: single-core host — agent processes time-share one CPU; expect flat or falling rates.");
    }
    let ds = find("Skitter").expect("catalog");
    let (_, edges) = generate(&ds, 61);
    println!(
        "{:>7} {:>10} {:>10} {:>16} {:>12} {:>14}",
        "agents", "streamers", "processes", "edges/s", "rx-pool-hit", "decode-ms"
    );
    let mut rows: Vec<Row> = Vec::new();
    for agents in [2usize, 4, 8] {
        let streamers = (agents / 2).max(1);
        let mut rates = Vec::new();
        let mut m_last = ClusterMetrics::default();
        for _ in 0..trials() {
            let (secs, m) = ingest_trial(agents, streamers, &edges);
            rates.push(edges.len() as f64 / secs);
            m_last = m;
        }
        let (rate, _) = mean_ci(&rates);
        let hit_rate = m_last.comms.rx_pool_hit_rate();
        println!(
            "{:>7} {:>10} {:>10} {:>16.0} {:>11.1}% {:>14.2}",
            agents,
            streamers,
            agents + 2,
            rate,
            hit_rate * 100.0,
            m_last.decode_nanos as f64 / 1e6
        );
        rows.push(Row {
            agents,
            streamers,
            rate,
            rx_pool_hit_rate: hit_rate,
            decode_nanos: m_last.decode_nanos,
        });
    }
    let rate_of = |n: usize| rows.iter().find(|r| r.agents == n).map_or(0.0, |r| r.rate);
    if rate_of(4) > 0.0 {
        println!(
            "(agents=8 vs agents=4: {:.2}x on {cores} core(s))",
            rate_of(8) / rate_of(4)
        );
    }
    write_json(&rows, edges.len(), cores);
}

/// Hand-rolled JSON (the workspace carries no serializer dependency).
fn write_json(rows: &[Row], edges: usize, cores: usize) {
    let path = std::env::var("ELGA_BENCH_SCALEOUT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaleout.json").to_string()
    });
    let mut body = String::from("{\n  \"figure\": \"scaleout_tcp\",\n");
    body.push_str("  \"deployment\": \"process-per-agent over loopback TCP\",\n");
    body.push_str(&format!("  \"cores\": {cores},\n"));
    body.push_str(&format!("  \"edges_per_trial\": {edges},\n"));
    body.push_str(&format!("  \"trials\": {},\n  \"rows\": [\n", trials()));
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"agents\": {}, \"streamers\": {}, \"processes\": {}, \
             \"edges_per_sec\": {:.0}, \"rx_pool_hit_rate\": {:.4}, \"decode_nanos\": {}}}{}\n",
            r.agents,
            r.streamers,
            r.agents + 2,
            r.rate,
            r.rx_pool_hit_rate,
            r.decode_nanos,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    let rate_of = |n: usize| rows.iter().find(|r| r.agents == n).map_or(0.0, |r| r.rate);
    let speedup = if rate_of(4) > 0.0 {
        rate_of(8) / rate_of(4)
    } else {
        0.0
    };
    body.push_str(&format!("  \"speedup_8_over_4\": {speedup:.3},\n"));
    body.push_str(&format!(
        "  \"note\": \"wall-clock scaling is only meaningful when cores > 1; on a \
         single-core host the {} agent processes time-share one CPU\"\n}}\n",
        rows.last().map_or(8, |r| r.agents)
    ));
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
