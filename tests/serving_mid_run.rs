//! Serving while a superstep runs: reads are answered from the snapshot
//! buffer inside kernels, and whatever else the agent takes off its
//! mailbox while it looks for them keeps its place in line.
//!
//! A binary of its own: 40 sweeps over 60k edges running beside
//! `tests/query.rs` starved that suite's join-then-read case (which
//! asserts within the migration's window) about one run in twenty.

use elga::core::msg::{self, packet, Message};
use elga::core::program::RunOptions;
use elga::prelude::*;
use std::time::Duration;

/// Reads are served *inside* a superstep, not only between barriers:
/// a batch issued while a from-scratch PageRank is mid-run comes back
/// under the previous run's tag, before the run is over. And what the
/// agent takes off its mailbox while it looks for reads is handled in
/// arrival order: a METRICS request sent behind a subscription
/// registration publishes metrics that include it.
///
/// (A registration in front, not an EDGE_CHANGES frame: every frame
/// that moves a count is one half of a channel, and a lone half would
/// wedge the run it is sent into.)
#[test]
fn reads_are_served_mid_run_and_parked_frames_keep_their_order() {
    let edges = elga::gen::power_law(12_000, 60_000, 2.2, 11);
    assert!(edges.len() >= 50_000);
    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(edges.iter().copied());
    let warm = PageRank::new(0.85).with_max_iters(2);
    let r1 = cluster.run(warm).expect("first run");
    let client = QueryClient::connect(
        cluster.transport(),
        cluster.config().clone(),
        cluster.lead_directory(),
    )
    .expect("query client connects");
    let asked: Vec<u64> = (0..12_000).step_by(7).collect();
    let s1 = client.query_batch(&asked);
    assert!(s1.iter().flatten().count() > 1_000);
    assert!(s1.iter().flatten().all(|s| s.run == r1.run_id));

    let long = PageRank::new(0.85).with_max_iters(40).with_tolerance(0.0);
    let handle = cluster
        .start_run(long, RunOptions::default())
        .expect("start second run");
    // 40 sweeps of 60k edges are ahead; these answers are not.
    let mid = client.query_batch(&asked);
    assert_eq!(mid, s1, "mid-run reads serve the previous run's snapshot");

    // Registration frames pushed at agent 1, each with a METRICS
    // request behind it, while kernels run and park what they find.
    let transport = cluster.transport();
    let agent = cluster.view().agents[0].clone();
    let to_agent = transport.sender(&agent.addr).expect("agent sender");
    let sink = elga::net::Addr::inproc("query-it-parked-sink");
    let before = cluster.metrics().subscriptions;
    for sub in 1..=8u64 {
        to_agent
            .send(
                msg::SubReg {
                    addr: sink.clone(),
                    sub,
                    vertices: vec![sub],
                }
                .encode(),
            )
            .expect("push SUB_REG");
        transport
            .request(
                &agent.addr,
                elga::net::Frame::signal(packet::METRICS),
                Duration::from_secs(30),
            )
            .expect("METRICS");
        // The agent publishes its metrics before it answers, so the lead
        // has them by now.
        assert_eq!(
            cluster.metrics().subscriptions,
            before + sub,
            "METRICS {sub} overtook the registration sent before it"
        );
    }

    let r2 = cluster.wait_run(handle).expect("second run");
    assert_eq!(r2.steps, 40);
    let s2 = client.query_batch(&asked);
    assert!(s2.iter().flatten().all(|s| s.run == r2.run_id));
    assert_eq!(s2.iter().flatten().count(), s1.iter().flatten().count());
    cluster.shutdown();
}
