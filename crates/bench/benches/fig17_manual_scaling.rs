//! Figure 17 — "PageRank running on Gowalla, manually scaled to 64
//! nodes during computation and then back to 16."
//!
//! A PageRank run starts on a small cluster; after the first iteration
//! an operator scales the cluster up 4× (ElGA applies the change at a
//! superstep boundary and continues), and after the run completes the
//! cluster scales back down. The per-iteration times should drop after
//! the scale-up.

use elga_bench::{banner, generate};
use elga_core::algorithms::PageRank;
use elga_core::cluster::Cluster;
use elga_core::msg::{packet, Message, RunStatus};
use elga_core::program::RunOptions;
use elga_gen::catalog::find;
use elga_net::Frame;
use std::time::Instant;

const SMALL: usize = 4; // the paper's 16 nodes
const LARGE: usize = 16; // the paper's 64 nodes
const ITERS: u32 = 5;

fn main() {
    banner(
        "Figure 17",
        "manual elastic scaling mid-PageRank (4 -> 16 agents after iteration 1, then back)",
    );
    let ds = find("Gowalla").expect("catalog");
    let (_, edges) = generate(&ds, 91);

    let mut c = Cluster::builder().agents(SMALL).build();
    c.ingest_edges(edges.iter().copied());

    let t0 = Instant::now();
    let handle = c
        .start_run(
            PageRank::new(0.85).with_max_iters(ITERS),
            RunOptions::default(),
        )
        .expect("start");
    // Operator: wait for iteration 1 to complete, then scale up.
    loop {
        let rep = c
            .transport()
            .request(
                &c.lead_directory(),
                Frame::signal(packet::RUN_STATUS),
                std::time::Duration::from_secs(5),
            )
            .expect("status");
        let status = RunStatus::decode(&rep).expect("status");
        if status.steps >= 1 || status.done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let scale_at = t0.elapsed();
    c.add_agents(LARGE - SMALL);
    let stats = c.wait_run(handle).expect("run");
    println!(
        "scaled {SMALL} -> {LARGE} agents at t={:.1} ms (applied at the next superstep boundary)",
        scale_at.as_secs_f64() * 1e3
    );
    for (i, d) in stats.step_durations.iter().enumerate() {
        let phase = if i <= 1 {
            "before/at scale"
        } else {
            "after scale-up"
        };
        println!(
            "  iteration {:>2}: {:>9.2} ms   ({phase})",
            i,
            d.as_secs_f64() * 1e3
        );
    }
    // Scale back down, as the paper's operator does after completion.
    let t1 = Instant::now();
    while c.agent_count() > SMALL {
        c.remove_last_agent();
    }
    c.quiesce().expect("quiesce");
    println!(
        "scaled back {LARGE} -> {SMALL} agents in {:.1} ms (cost savings resume)",
        t1.elapsed().as_secs_f64() * 1e3
    );
    c.shutdown();
}
