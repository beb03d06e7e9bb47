//! Intra-agent parallelism and what the owner memo saves.
//!
//! Two measurements back the PR's perf claims:
//!
//! 1. **Superstep kernels** — wall time of a scatter-heavy PageRank
//!    run on one agent at `workers = 1` vs `workers = 4`. The kernels
//!    split the fixed vertex shards across a scoped pool and merge
//!    per-shard output in shard order, so the speedup is free of any
//!    result change (see `tests/determinism.rs`).
//! 2. **Owner resolution** — the pair stream and epoch cadence
//!    `Streamer::route` sees, resolved through the per-epoch owner memo
//!    against the locator asked directly. Each batch repeats source
//!    vertices heavily, which is exactly what the memo saves (one
//!    sketch estimate + ring walk per distinct source per epoch).

use elga_bench::{banner, mean_ci, trials};
use elga_core::algorithms::PageRank;
use elga_core::cluster::Cluster;
use elga_hash::{EdgeLocator, HashKind, LocatorConfig, OwnerCache, Ring};
use elga_sketch::CountMinSketch;
use std::time::Instant;

/// Ring with multiplicative chords plus hub fan-outs: enough edges per
/// vertex that scatter dominates the superstep.
fn scatter_heavy_graph(n: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        edges.push((i, (i * 7 + 3) % n));
        edges.push((i, (i * 13 + 5) % n));
        edges.push((i, (i * 31 + 11) % n));
    }
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn pagerank_secs(workers: usize, edges: &[(u64, u64)]) -> f64 {
    let mut c = Cluster::builder().agents(1).workers(workers).build();
    c.ingest_edges(edges.iter().copied());
    let t0 = Instant::now();
    c.run(PageRank::new(0.85).with_max_iters(10)).expect("run");
    let secs = t0.elapsed().as_secs_f64();
    c.shutdown();
    secs
}

fn main() {
    banner(
        "parallel kernels",
        "superstep workers and the owner memo against direct resolution",
    );

    let edges = scatter_heavy_graph(40_000);
    println!("scatter-heavy graph: {} edges, 1 agent", edges.len());
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    for _ in 0..trials() {
        serial.push(pagerank_secs(1, &edges));
        parallel.push(pagerank_secs(4, &edges));
    }
    let (s1, _) = mean_ci(&serial);
    let (s4, _) = mean_ci(&parallel);
    println!(
        "  PageRank x10  workers=1: {s1:.3}s  workers=4: {s4:.3}s  speedup: {:.2}x",
        s1 / s4
    );

    resolution_microbench();
}

/// Owner resolution in isolation: the pair stream `Streamer::route`
/// sees (both placements per change) at the harshest epoch cadence (a
/// new epoch, and so an emptied memo, every batch), on a hub-heavy
/// graph with replication engaged. End-to-end ingest divides this win
/// by everything else sharing the wall clock (sketch deltas, agent-side
/// application — all of it on this core); the resolution itself is the
/// number the memo moves.
fn resolution_microbench() {
    let ring = Ring::from_agents(HashKind::Wang, 100, 0..4u64);
    let loc = EdgeLocator::new(
        ring,
        LocatorConfig {
            replication_threshold: 256,
            max_replicas: 16,
        },
    );
    let mut sketch = CountMinSketch::new(1 << 12, 8);
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for h in 0..200u64 {
        for j in 0..600u64 {
            edges.push((h, 200 + (h * 600 + j) % 100_000));
        }
    }
    for i in 0..50_000u64 {
        edges.push((200 + i, 200 + (i + 1) % 100_000));
    }
    for &(u, _) in &edges {
        sketch.add(u, 1);
    }
    let pairs_of = |chunk: &[(u64, u64)]| -> Vec<(u64, u64)> {
        let mut p = Vec::with_capacity(chunk.len() * 2);
        for &(u, v) in chunk {
            p.push((u, v));
            p.push((v, u));
        }
        p
    };
    let mut direct = Vec::new();
    let mut memo = Vec::new();
    for _ in 0..trials() {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for chunk in edges.chunks(8192) {
            for (u, v) in pairs_of(chunk) {
                if let Some(o) = loc.owner_of_edge(u, v, sketch.estimate(u)) {
                    acc ^= o;
                }
            }
        }
        direct.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(acc);

        let mut cache = OwnerCache::new();
        let mut owners = Vec::new();
        let t0 = Instant::now();
        let mut acc2 = 0u64;
        for (i, chunk) in edges.chunks(8192).enumerate() {
            cache.ensure_epoch(i as u64 + 1);
            owners.clear();
            cache.resolve_many(&loc, &pairs_of(chunk), |u| sketch.estimate(u), &mut owners);
            for o in owners.iter().flatten() {
                acc2 ^= o;
            }
        }
        memo.push(t0.elapsed().as_secs_f64());
        assert_eq!(acc, acc2, "cached and direct resolution disagree");
    }
    let (d, _) = mean_ci(&direct);
    let (m, _) = mean_ci(&memo);
    let per_edge = |s: f64| s / (2.0 * edges.len() as f64) * 1e9;
    println!(
        "  owner resolution ({} pairs, replicated hubs, epoch/batch)  direct: {:.1}ns/pair  \
         cached: {:.1}ns/pair  speedup: {:.2}x",
        2 * edges.len(),
        per_edge(d),
        per_edge(m),
        d / m
    );
}
