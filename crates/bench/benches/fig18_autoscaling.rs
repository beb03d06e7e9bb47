//! Figure 18 — "Fully elastic autoscaling in ElGA. ElGA converges
//! quickly to match the autoscaling target."
//!
//! A step function of client query rates drives the reactive EMA
//! autoscaler (§3.4.3 / §4.9: 30 s EMA of query rates, 60 s hold;
//! scaled here to a seconds-long experiment). The series printed is
//! (time, offered rate, autoscaler target, actual agents) — the
//! "mostly overlapping lines" of the figure correspond to target and
//! agents tracking each other.

use elga_bench::{banner, generate};
use elga_core::algorithms::Wcc;
use elga_core::autoscale::{Autoscaler, EmaAutoscaler};
use elga_core::cluster::Cluster;
use elga_gen::catalog::find;
use std::time::{Duration, Instant};

fn main() {
    banner(
        "Figure 18",
        "reactive autoscaling under a step-function client query load (Skitter-like)",
    );
    let ds = find("Skitter").expect("catalog");
    let (n, edges) = generate(&ds, 95);
    let mut c = Cluster::builder().agents(2).build();
    c.ingest_edges(edges.iter().copied());
    c.run(Wcc::new()).expect("wcc");

    // Steps of offered load (queries per tick), emulating the paper's
    // step function of client request rates.
    let phases: &[(usize, f64)] = &[(6, 400.0), (6, 3200.0), (6, 1200.0), (6, 200.0)];
    let mut policy = EmaAutoscaler::new(Duration::from_millis(300), 400.0, 1, 12)
        .with_cooldown(Duration::from_millis(600));

    println!(
        "{:>6} {:>12} {:>8} {:>8}   (target vs agents should overlap)",
        "tick", "query rate", "target", "agents"
    );
    let mut tick = 0usize;
    for &(len, rate) in phases {
        for _ in 0..len {
            // Offer `rate` queries this tick (sequentially; the rate is
            // the autoscaler's input signal).
            let t0 = Instant::now();
            for q in 0..(rate as usize / 10).max(1) {
                let v = edges[q % edges.len()].0 % n.max(1);
                let _ = c.query_u64(v);
            }
            let _served = t0.elapsed();
            c.autoscale_once(&mut policy, rate);
            let target = policy.current_target().unwrap_or(0);
            println!(
                "{:>6} {:>12.0} {:>8} {:>8}",
                tick,
                rate,
                target,
                c.agent_count()
            );
            tick += 1;
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    c.shutdown();
}
