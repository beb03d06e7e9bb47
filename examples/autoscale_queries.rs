//! Reactive autoscaling (paper Figure 18): a step function of client
//! query load drives the EMA autoscaler, and the cluster's agent count
//! converges to the target — scaling up under load, down when it
//! passes.
//!
//! ```sh
//! cargo run --release --example autoscale_queries
//! ```

use elga::gen::catalog::find;
use elga::prelude::*;
use std::time::Duration;

fn main() {
    let skitter = find("Skitter").expect("catalog dataset");
    let (n, edges) = skitter.generate(2e-6, 23);

    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).expect("wcc");

    // The paper's policy: EMA of client query rates, scaled by a
    // per-agent capacity factor, with a hold-down between scalings
    // (30s/60s at cluster scale; milliseconds here).
    let mut policy = EmaAutoscaler::new(Duration::from_millis(200), 500.0, 1, 8)
        .with_cooldown(Duration::from_millis(400));

    println!("tick | offered rate | ema      | target | agents");
    let mut tick = 0;
    for &(ticks, rate) in &[(5, 300.0), (5, 3000.0), (5, 800.0)] {
        for _ in 0..ticks {
            // Offer the queries.
            for q in 0..(rate as usize / 20).max(1) {
                let v = edges[q % edges.len()].0 % n.max(1);
                let _ = cluster.query_u64(v);
            }
            cluster.autoscale_once(&mut policy, rate);
            println!(
                "{:>4} | {:>12.0} | {:>8.0} | {:>6} | {:>6}",
                tick,
                rate,
                policy.ema().unwrap_or(0.0),
                policy.current_target().unwrap_or(0),
                cluster.agent_count()
            );
            tick += 1;
            std::thread::sleep(Duration::from_millis(60));
        }
    }

    // Results remain correct throughout the elastic churn.
    let sample = edges[0].0;
    println!(
        "\nvertex {} component after all scaling: {:?}",
        sample,
        cluster.query_u64(sample)
    );
    cluster.shutdown();
}
