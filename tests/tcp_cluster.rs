//! The full system over real TCP sockets: every endpoint is a
//! `tcp://127.0.0.1:*` address and every message crosses the loopback
//! stack — the paper's inter-node transport (§3.5), exercised end to
//! end with the same entities the in-process cluster uses.

use elga::core::agent::Agent;
use elga::core::client::ClientProxy;
use elga::core::directory::{self, DirectoryRole};
use elga::core::msg::{self, packet, RunInfo};
use elga::core::program::ProgramSpec;
use elga::core::streamer::Streamer;
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

#[test]
fn wcc_and_pagerank_over_tcp_sockets() {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let cfg = SystemConfig::default();

    // Fixed endpoints need concrete ports (participants dial them).
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

    // Three agents on ephemeral ports.
    let mut agent_handles = Vec::new();
    for id in 1..=3u64 {
        let agent = Agent::join_at(
            transport.clone(),
            cfg.clone(),
            id,
            tcp_any(),
            dir0.clone(),
            bus.clone(),
        )
        .expect("agent join over tcp");
        agent_handles.push(agent.spawn());
    }

    // Stream a graph in over sockets.
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
    let mut streamer =
        Streamer::connect(transport.clone(), cfg.clone(), dir0.clone()).expect("streamer");
    let changes: Vec<EdgeChange> = edges
        .iter()
        .map(|&(u, v)| EdgeChange::insert(u, v))
        .collect();
    streamer.send_batch(&changes).expect("send");

    // Drive a WCC run: subscribe to the bus for the done signal, then
    // REQ the start.
    let run_to_done = |spec: ProgramSpec| {
        let (tag, params) = spec.encode();
        let sub = transport
            .subscribe(&bus, &[packet::ADVANCE])
            .expect("subscribe");
        let rep = transport
            .request(
                &dir0,
                msg::encode_start(&RunInfo {
                    run_id: 0,
                    tag,
                    params,
                    reuse_state: false,
                    asynchronous: false,
                    delta: false,
                    dangling_base: 0.0,
                    watermark: 0,
                }),
                Duration::from_secs(30),
            )
            .expect("start");
        let run_id = rep.reader().u64().expect("run id");
        loop {
            let d = sub.recv_timeout(Duration::from_secs(60)).expect("advance");
            if let Some(adv) = msg::decode_advance(&d.frame) {
                if adv.run == run_id && adv.done {
                    break;
                }
            }
        }
        run_id
    };

    // Give ingest a moment to settle (no driver-side quiesce here; the
    // run start is serialized by the directory's migrate barrier).
    std::thread::sleep(Duration::from_millis(200));
    let wcc_run = run_to_done(Wcc::new().into());

    // Agents flip their double-buffered serving snapshot when *they*
    // process the done broadcast — a query racing straight off the bus
    // can still see the previous snapshot (or a miss). The answer's
    // run tag says which completed run it belongs to; poll until it is
    // the one we watched finish.
    let query_run = |proxy: &mut ClientProxy, v: u64, run: u64| -> u64 {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match proxy.query(v) {
                Some(r) if r.run == run => return r.state,
                _ if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                got => panic!("vertex {v}: no run-{run} answer over tcp (last: {got:?})"),
            }
        }
    };

    let mut proxy =
        ClientProxy::connect(transport.clone(), cfg.clone(), dir0.clone()).expect("proxy");
    let expect = reference::wcc(edges.iter().copied());
    for (&v, &label) in &expect {
        assert_eq!(
            query_run(&mut proxy, v, wcc_run),
            label,
            "vertex {v} over tcp"
        );
    }

    // And PageRank across the same sockets.
    let pr_run = run_to_done(PageRank::new(0.85).with_max_iters(10).into());
    proxy.refresh().expect("refresh");
    let mass: f64 = expect
        .keys()
        .map(|&v| f64::from_bits(query_run(&mut proxy, v, pr_run)))
        .sum();
    assert!((mass - 1.0).abs() < 1e-9, "rank mass over tcp: {mass}");

    // Shut the whole deployment down over the wire.
    let _ = transport.request(
        &dir0,
        Frame::signal(packet::SHUTDOWN),
        Duration::from_secs(5),
    );
    if let Ok(out) = transport.sender(&master) {
        let _ = out.send(Frame::signal(packet::SHUTDOWN));
    }
    for h in agent_handles {
        let _ = h.join();
    }
}
