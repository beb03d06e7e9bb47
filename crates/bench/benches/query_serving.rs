//! Continuous-query serving under live ingest + compute: ≥1000
//! concurrent logical clients issue batched snapshot reads (a fraction
//! of them holding standing subscriptions) while the cluster keeps
//! absorbing edge batches and running incremental PageRank.
//!
//! What the experiment shows:
//! * serving throughput (batch round trips and vertex answers per
//!   second) and client-observed latency while the compute plane is
//!   busy — query traffic rides the same coalescing comms plane but is
//!   uncounted in the barrier sums, so runs terminate undisturbed;
//! * snapshot flips: every answer is tagged with the completed run it
//!   belongs to, and clients watch the tag advance run over run;
//! * push delivery: subscribers receive per-run value deltas without
//!   polling.
//!
//! Clients are multiplexed over a small worker pool (the interesting
//! concurrency is the 1000 independent client states hitting the
//! agents, not 1000 OS threads). Writes `BENCH_queries.json` (override
//! with `ELGA_BENCH_QUERIES_OUT`); scale with `ELGA_SCALE` /
//! `ELGA_TRIALS` (CI uses a small config).

use elga_bench::{banner, cluster, mean_ci, scale, trials};
use elga_core::algorithms::PageRank;
use elga_core::program::{ExecutionMode, RunOptions};
use elga_graph::types::EdgeChange;
use elga_query::QueryClient;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Ring with sparse chords (the incremental suite's shape): connected
/// and high-diameter, so per-batch delta runs stay frontier-sized and
/// the serving plane races many short runs instead of one long one.
fn base_graph(n: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        if i % 97 == 0 {
            edges.push((i, (i * 7 + 3) % n));
        }
    }
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn pagerank(n: u64) -> PageRank {
    PageRank::new(0.85)
        .with_max_iters(100)
        .with_tolerance(1e-4 / n as f64)
}

/// Deterministic per-client vertex picker (no RNG dependency).
struct Lcg(u64);
impl Lcg {
    fn next(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

struct WorkerOut {
    batches: u64,
    answers: u64,
    latencies_s: Vec<f64>,
    pushes: u64,
    runs_seen: std::collections::HashSet<u64>,
}

fn main() {
    banner(
        "query_serving",
        "≥1000 concurrent clients: batched reads + subscriptions vs live ingest/compute",
    );
    let n = (2_000.0 * scale()).max(500.0) as u64;
    let n_clients = 1_000usize.max((1_000.0 * scale()) as usize);
    let n_subscribers = n_clients / 8;
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(2, 8);
    let serve_secs = (1.5 * trials() as f64).clamp(1.0, 20.0);
    let batch_size = 16usize;

    let mut c = cluster(4);
    let edges = base_graph(n);
    c.ingest_edges(edges.iter().copied());
    c.run(pagerank(n)).expect("initial pagerank");

    // 1000+ logical clients, each its own connection state; the first
    // `n_subscribers` also register a standing subscription.
    let transport = c.transport();
    let cfg = c.config().clone();
    let dir = c.lead_directory();
    let mut clients: Vec<(QueryClient, Option<u64>, Lcg)> = Vec::with_capacity(n_clients);
    for i in 0..n_clients {
        let mut qc = QueryClient::connect(transport.clone(), cfg.clone(), dir.clone())
            .expect("client connects");
        let sub = if i < n_subscribers {
            let watched: Vec<u64> = (0..8u64).map(|k| (i as u64 * 37 + k * 11) % n).collect();
            Some(qc.subscribe(&watched).expect("subscribe"))
        } else {
            None
        };
        clients.push((qc, sub, Lcg(0x9E3779B97F4A7C15 ^ i as u64)));
    }
    // A read of one vertex, for the sanity of the path.
    assert!(c.query_u64(1).is_some());

    // Shard the clients across the worker pool.
    let mut shards: Vec<Vec<(QueryClient, Option<u64>, Lcg)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, cl) in clients.into_iter().enumerate() {
        shards[i % workers].push(cl);
    }

    let stop = AtomicBool::new(false);
    let runs_completed = AtomicU64::new(0);
    let batches_ingested = AtomicU64::new(0);
    let t0 = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut out = WorkerOut {
                        batches: 0,
                        answers: 0,
                        latencies_s: Vec::new(),
                        pushes: 0,
                        runs_seen: std::collections::HashSet::new(),
                    };
                    while !stop.load(Ordering::Relaxed) {
                        for (qc, sub, lcg) in shard.iter_mut() {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let asked: Vec<u64> = (0..batch_size).map(|_| lcg.next(n)).collect();
                            let t = Instant::now();
                            let answers = qc.query_batch(&asked);
                            out.latencies_s.push(t.elapsed().as_secs_f64());
                            out.batches += 1;
                            for a in answers.into_iter().flatten() {
                                out.answers += 1;
                                out.runs_seen.insert(a.run);
                            }
                            if sub.is_some() {
                                out.pushes += qc.poll_updates(Duration::ZERO).len() as u64;
                            }
                        }
                    }
                    // Final drain so late pushes still count.
                    for (qc, sub, _) in shard.iter_mut() {
                        if sub.is_some() {
                            out.pushes += qc.poll_updates(Duration::ZERO).len() as u64;
                        }
                    }
                    out
                })
            })
            .collect();

        // The live plane: keep ingesting fixed-size batches and running
        // incremental PageRank until the serving window closes.
        let mut k = 1u64;
        while t0.elapsed().as_secs_f64() < serve_secs {
            let batch: Vec<EdgeChange> = (0..64)
                .filter_map(|_| {
                    let u = (k * 48_271) % n;
                    let v = (k * 69_621 + 13) % n;
                    k += 1;
                    (u != v).then(|| EdgeChange::insert(u, v))
                })
                .collect();
            c.ingest(batch.iter().copied());
            batches_ingested.fetch_add(1, Ordering::Relaxed);
            c.run_with(
                pagerank(n),
                RunOptions {
                    reuse_state: true,
                    mode: ExecutionMode::Sync,
                },
            )
            .expect("incremental run");
            runs_completed.fetch_add(1, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let total_batches: u64 = outs.iter().map(|o| o.batches).sum();
    let total_answers: u64 = outs.iter().map(|o| o.answers).sum();
    let total_pushes: u64 = outs.iter().map(|o| o.pushes).sum();
    let mut runs_seen = std::collections::HashSet::new();
    for o in &outs {
        runs_seen.extend(o.runs_seen.iter().copied());
    }
    let mut lat: Vec<f64> = outs.into_iter().flat_map(|o| o.latencies_s).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| lat[(((lat.len() - 1) as f64) * p) as usize] * 1e3;
    let (mean_s, ci_s) = mean_ci(&lat);

    let m = c.metrics();
    c.shutdown();

    println!(
        "{n_clients} clients ({n_subscribers} subscribed) on {workers} workers, {:.1}s window",
        elapsed
    );
    println!(
        "  {total_batches} batch round trips, {total_answers} answers \
         ({:.0} batches/s, {:.0} answers/s)",
        total_batches as f64 / elapsed,
        total_answers as f64 / elapsed
    );
    println!(
        "  latency {:.3} ± {:.3} ms (p50 {:.3}, p99 {:.3})",
        mean_s * 1e3,
        ci_s * 1e3,
        pct(0.50),
        pct(0.99)
    );
    println!(
        "  live plane: {} runs over {} ingested batches; {} snapshot tags observed; \
         {} pushes delivered (agents sent {})",
        runs_completed.load(Ordering::Relaxed),
        batches_ingested.load(Ordering::Relaxed),
        runs_seen.len(),
        total_pushes,
        m.sub_pushes
    );

    let path = std::env::var("ELGA_BENCH_QUERIES_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_queries.json").to_string()
    });
    let body = format!(
        "{{\n  \"figure\": \"query_serving\",\n  \"clients\": {n_clients},\n  \
         \"subscribers\": {n_subscribers},\n  \"workers\": {workers},\n  \
         \"vertices\": {n},\n  \"edges\": {},\n  \"window_s\": {elapsed:.2},\n  \
         \"batch_size\": {batch_size},\n  \"batch_round_trips\": {total_batches},\n  \
         \"answers\": {total_answers},\n  \"batches_per_s\": {:.1},\n  \
         \"answers_per_s\": {:.1},\n  \"latency_ms_mean\": {:.4},\n  \
         \"latency_ms_ci95\": {:.4},\n  \"latency_ms_p50\": {:.4},\n  \
         \"latency_ms_p99\": {:.4},\n  \"runs_completed\": {},\n  \
         \"batches_ingested\": {},\n  \"snapshot_tags_observed\": {},\n  \
         \"sub_pushes_delivered\": {total_pushes},\n  \"sub_pushes_sent\": {},\n  \
         \"agent_query_batches\": {},\n  \"agent_queries\": {},\n  \
         \"note\": \"snapshot-consistent serving under live ingest+compute; query \
         traffic is barrier-uncounted so runs terminate undisturbed\"\n}}\n",
        edges.len(),
        total_batches as f64 / elapsed,
        total_answers as f64 / elapsed,
        mean_s * 1e3,
        ci_s * 1e3,
        pct(0.50),
        pct(0.99),
        runs_completed.load(Ordering::Relaxed),
        batches_ingested.load(Ordering::Relaxed),
        runs_seen.len(),
        m.sub_pushes,
        m.query_batches,
        m.queries,
    );
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
