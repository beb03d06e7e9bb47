//! Dynamic graph analysis: maintain weakly connected components while
//! a synthetic social network streams in, with client queries running
//! against the freshest available results (paper §4.9).
//!
//! ```sh
//! cargo run --release --example dynamic_wcc
//! ```

use elga::gen::powerlaw::power_law;
use elga::graph::stream::{insertions, Batcher};
use elga::prelude::*;
use std::time::Instant;

fn main() {
    let mut cluster = Cluster::builder().agents(4).build();

    // A Twitter-like power-law graph arriving as a stream of batches.
    let edges = power_law(2000, 12_000, 2.0, 42);
    let batches: Vec<_> = Batcher::new(insertions(edges.iter().copied()), 2000).collect();
    println!(
        "streaming {} edges in {} batches of 2000",
        edges.len(),
        batches.len()
    );

    let mut first = true;
    for batch in &batches {
        let t0 = Instant::now();
        cluster.ingest(batch.changes.iter().copied());
        let ingest = t0.elapsed();

        // Maintain components: full run on the first batch, then
        // incremental — only vertices touched by the batch activate
        // (Definition 2.5's dynamic graph algorithm).
        let t0 = Instant::now();
        let stats = if first {
            first = false;
            cluster.run(Wcc::new()).expect("wcc")
        } else {
            cluster
                .run_with(
                    Wcc::new(),
                    elga::core::program::RunOptions {
                        reuse_state: true,
                        mode: ExecutionMode::Sync,
                    },
                )
                .expect("incremental wcc")
        };
        println!(
            "batch {:>2}: ingest {:>7.2?}, maintain {:>7.2?} ({} supersteps, n={})",
            batch.id,
            ingest,
            t0.elapsed(),
            stats.steps,
            stats.n_vertices,
        );
    }

    // Client reads are served from the last completed run's snapshot;
    // its batch watermark is the staleness handle of Definition 2.6.
    let client = QueryClient::connect(
        cluster.transport(),
        cluster.config().clone(),
        cluster.lead_directory(),
    )
    .expect("query client");
    let asked = [0u64, 7, 1999];
    for (v, answer) in asked.iter().zip(client.query_batch(&asked)) {
        if let Some(r) = answer {
            println!(
                "query v={v}: component {} (as of batch {})",
                r.state, r.watermark
            );
        }
    }

    // Deletions: cut a sample and repair labels incrementally.
    let removed: Vec<_> = edges.iter().take(50).copied().collect();
    let labels: Vec<u64> = removed
        .iter()
        .flat_map(|&(u, v)| [u, v])
        .filter_map(|v| cluster.query_u64(v))
        .collect();
    cluster.ingest(removed.iter().map(|&(u, v)| EdgeChange::delete(u, v)));
    cluster.reset_labels(&labels);
    let t0 = Instant::now();
    cluster
        .run_with(
            Wcc::new(),
            elga::core::program::RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Sync,
            },
        )
        .expect("repair");
    println!("deleted 50 edges; labels repaired in {:?}", t0.elapsed());

    cluster.shutdown();
}
