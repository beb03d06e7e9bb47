//! Figure 14 — "The insertion rate of edges from Skitter. ... The
//! performance is above 2 million edges per second per Agent and
//! scales well." (Absolute rates differ on the in-process substrate;
//! the shape under reproduction is near-linear scaling with agents.)
//!
//! As in the paper, half of the participants are Streamers: we run
//! `agents/2` streamer threads, each pushing a shard of the stream.
//!
//! Besides the console table, the run writes `BENCH_fig14.json` at
//! the workspace root (override the path with `ELGA_BENCH_OUT`): per
//! agent count, the mean insertion rate and the streamers' owner-cache
//! hit rate.

use elga_bench::{banner, generate, mean_ci, trials};
use elga_core::cluster::Cluster;
use elga_core::streamer::Streamer;
use elga_gen::catalog::find;
use elga_graph::types::EdgeChange;
use std::time::Instant;

struct Row {
    agents: usize,
    streamers: usize,
    rate: f64,
    hit_rate: f64,
}

/// One ingest run: `streamers` threads shard the stream and push it
/// into a fresh `agents`-agent cluster. Returns the elapsed seconds
/// and the streamers' summed owner-cache counters.
fn ingest_trial(agents: usize, streamers: usize, edges: &[(u64, u64)]) -> (f64, (u64, u64)) {
    let c = Cluster::builder().agents(agents).build();
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
    let transport = c.transport();
    let cfg = c.config().clone();
    let lead = c.lead_directory();
    let t0 = Instant::now();
    let stats: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let transport = transport.clone();
                let cfg = cfg.clone();
                let lead = lead.clone();
                scope.spawn(move || {
                    let mut s = Streamer::connect(transport, cfg, lead).expect("streamer");
                    for chunk in shard.chunks(8192) {
                        s.send_batch(chunk).expect("send");
                    }
                    s.cache_stats()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("streamer"))
            .collect()
    });
    c.quiesce().expect("quiesce");
    let secs = t0.elapsed().as_secs_f64();
    c.shutdown();
    let hits = stats.iter().map(|s| s.0).sum();
    let misses = stats.iter().map(|s| s.1).sum();
    (secs, (hits, misses))
}

fn main() {
    banner(
        "Figure 14",
        "edge insertion rate vs agent count (streamers = agents/2)",
    );
    let ds = find("Skitter").expect("catalog");
    let (_, edges) = generate(&ds, 61);
    println!(
        "{:>7} {:>10} {:>16} {:>18} {:>10}",
        "agents", "streamers", "edges/s", "edges/s/agent", "cache-hit"
    );
    let mut rows: Vec<Row> = Vec::new();
    for agents in [2usize, 4, 8] {
        let streamers = (agents / 2).max(1);
        let mut rates = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for _ in 0..trials() {
            let (secs, (h, m)) = ingest_trial(agents, streamers, &edges);
            rates.push(edges.len() as f64 / secs);
            hits += h;
            misses += m;
        }
        let (rate, _) = mean_ci(&rates);
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        println!(
            "{:>7} {:>10} {:>16.0} {:>18.0} {:>9.1}%",
            agents,
            streamers,
            rate,
            rate / agents as f64,
            hit_rate * 100.0
        );
        rows.push(Row {
            agents,
            streamers,
            rate,
            hit_rate,
        });
    }
    if let Some(r) = rows.first() {
        println!("(dashed ideal line: {:.0} × agents/2)", r.rate);
    }
    write_json(&rows, edges.len());
}

/// Hand-rolled JSON (the workspace carries no serializer dependency).
fn write_json(rows: &[Row], edges: usize) {
    let path = std::env::var("ELGA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig14.json").to_string()
    });
    let mut body = String::from("{\n  \"figure\": \"fig14_insertion_rate\",\n");
    body.push_str(&format!("  \"edges_per_trial\": {edges},\n"));
    body.push_str(&format!("  \"trials\": {},\n  \"rows\": [\n", trials()));
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"agents\": {}, \"streamers\": {}, \"edges_per_sec\": {:.0}, \
             \"owner_cache_hit_rate\": {:.4}}}{}\n",
            r.agents,
            r.streamers,
            r.rate,
            r.hit_rate,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
