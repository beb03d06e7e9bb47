//! The dynamic-graph experiments: maintaining components under a
//! stream, the insertion rate, per-batch incremental runs, and sync vs
//! async execution.

use crate::row;
use crate::setup::{
    baseline_threads, cluster, generate, generate_sized, mean_ci, scale, time, timed_trials, trials,
};
use crate::table::{Cell, Col, Figure};
use elga_baselines::stinger::InsertOutcome;
use elga_baselines::{GapGraph, SnapshotEngine, Stinger};
use elga_core::algorithms::Wcc;
use elga_core::msg::packet;
use elga_core::program::{ExecutionMode, RunOptions};
use elga_core::streamer::Streamer;
use elga_gen::catalog::find;
use elga_graph::stream::delete_reinsert_batches;
use elga_graph::types::{Batch, EdgeChange};
use std::collections::HashSet;
use std::time::Instant;

/// A sync run that keeps the previous run's state: the incremental
/// case.
const REUSE: RunOptions = RunOptions {
    reuse_state: true,
    mode: ExecutionMode::Sync,
};

/// Figure 13 — the last 200 edges (the paper: 1000) inserted one at a
/// time while ElGA and STINGER maintain components (§4.8, COST).
/// STINGER is bimodal (same-component fast path or merge); ElGA pays a
/// batch round trip each time; GAPbs gives the static recompute.
pub(crate) fn fig13(fig: &mut Figure) {
    let tail = 200usize;
    for name in ["LiveJournal", "Email-EuAll", "Datagen-9.3-zf"] {
        let (_, edges) = generate(&find(name).expect("catalog"), 51);
        let (base, stream) = edges.split_at(edges.len().saturating_sub(tail));

        let mut c = cluster(4);
        c.ingest_edges(base.iter().copied());
        c.run(Wcc::new()).expect("initial wcc");
        let mut elga: Vec<f64> = stream
            .iter()
            .map(|&(u, v)| {
                let dt = time(|| {
                    c.ingest([EdgeChange::insert(u, v)]);
                    c.run_with(Wcc::new(), REUSE).expect("incremental wcc")
                });
                dt.as_secs_f64()
            })
            .collect();
        c.shutdown();

        let mut s = Stinger::new();
        for &(u, v) in base {
            s.insert(u, v);
        }
        let mut fast = 0usize;
        let mut stinger: Vec<f64> = stream
            .iter()
            .map(|&(u, v)| {
                let t0 = Instant::now();
                if matches!(s.insert(u, v), Some(InsertOutcome::FastPath) | None) {
                    fast += 1;
                }
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let gap = time(|| GapGraph::build(&edges, baseline_threads()).wcc());

        let title = format!(
            "{name} ({} base edges, {} insertions):",
            base.len(),
            stream.len()
        );
        let mut cols = vec![Col::new("system", 13).left()];
        cols.extend(["min", "p50", "p95", "max"].map(|c| Col::new(c, 11).prec(1).suffix("µs")));
        fig.table(title, cols);
        for (sys, v) in [("ElGA", &mut elga), ("STINGER-like", &mut stinger)] {
            v.sort_by(f64::total_cmp);
            let us = |p: f64| v[((v.len() - 1) as f64 * p) as usize] * 1e6;
            row!(fig; sys, us(0.0), us(0.5), us(0.95), us(1.0));
        }
        fig.note(format!(
            "  STINGER-like fast-path insertions: {fast}/{} (the bimodal split)",
            stream.len()
        ));
        fig.note(format!(
            "  GAPbs-like static rebuild+WCC: {:.1} ms",
            gap.as_secs_f64() * 1e3
        ));
    }
}

/// One ingest trial of figure 14: `streamers` threads shard the stream
/// and push it into a fresh `agents`-agent cluster. The elapsed seconds
/// and the streamers' summed owner-cache (hits, misses).
fn ingest_trial(agents: usize, streamers: usize, edges: &[(u64, u64)]) -> (f64, (u64, u64)) {
    let c = cluster(agents);
    let shards: Vec<Vec<EdgeChange>> = (0..streamers)
        .map(|s| {
            let mine = edges.iter().enumerate().filter(|(i, _)| i % streamers == s);
            mine.map(|(_, &(u, v))| EdgeChange::insert(u, v)).collect()
        })
        .collect();
    let (transport, cfg, lead) = (c.transport(), c.config().clone(), c.lead_directory());
    let t0 = Instant::now();
    let stats: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let (transport, cfg, lead) = (transport.clone(), cfg.clone(), lead.clone());
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
    (
        secs,
        stats.iter().fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1)),
    )
}

/// Figure 14 — insertion rate vs agents, with `agents/2` streamer
/// threads as the paper's half-Streamer split, and their owner-cache
/// hit rate. The shape under test is near-linear scaling.
pub(crate) fn fig14(fig: &mut Figure) {
    let (_, edges) = generate(&find("Skitter").expect("catalog"), 61);
    let cols = vec![
        Col::new("agents", 7),
        Col::new("streamers", 10),
        Col::new("edges/s", 16),
        Col::new("edges/s/agent", 18),
        Col::new("cache-hit", 10).prec(1).suffix("%"),
    ];
    fig.table(format!("{} edges per trial", edges.len()), cols);
    let mut first = None;
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
        let rate = mean_ci(&rates).0;
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        row!(fig; agents, streamers, rate, rate / agents as f64, hit_rate * 100.0);
        first.get_or_insert(rate);
    }
    if let Some(rate) = first {
        fig.note(format!("(dashed ideal line: {rate:.0} × agents/2)"));
    }
}

/// Figure 15 — incremental WCC per batch of {1, 10, 10², 10³} changes
/// (the paper's sizes one decade down) against a GraphX-like rebuild
/// per batch ("speedups between 83× to 1962×" on small batches).
pub(crate) fn fig15(fig: &mut Figure) {
    let ds = find("Twitter-2010").expect("catalog");
    // The contrast is incremental work vs rebuilding the world, so the
    // rebuild must be non-trivial: size the graph up.
    let (_, edges) = generate_sized(&ds, (400_000.0 * scale()) as usize, 71);
    let n_batches = (10.0 * scale()).clamp(5.0, 100.0) as usize; // paper: 100
    let mut cols = vec![Col::new("batch", 8)];
    for sys in ["ElGA", "GraphX-like"] {
        cols.extend(
            ["min", "avg", "max"].map(|s| Col::new(format!("{sys} {s}"), 15).prec(2).suffix(" ms")),
        );
    }
    cols.push(Col::new("speedup", 8).prec(1).suffix("x"));
    cols.push(Col::new("iters/batch", 11).prec(1));
    fig.table("per-batch times", cols);
    for bs in [1usize, 10, 100, 1000] {
        // §4.4 protocol: delete a random sample up front (setup), then
        // time inserting it back in batches — "only vertices directly
        // modified in the batch are activated".
        let (dels, ins) = delete_reinsert_batches(&edges, bs * n_batches, 100 + bs as u64);

        let mut c = cluster(4);
        c.ingest_edges(edges.iter().copied());
        c.ingest(dels.changes.iter().copied());
        c.run(Wcc::new()).expect("initial wcc");
        let mut elga = Vec::new();
        let mut iters = Vec::new();
        for chunk in ins.changes.chunks(bs) {
            let t0 = Instant::now();
            c.ingest(chunk.iter().copied());
            let s = c.run_with(Wcc::new(), REUSE).expect("batch");
            elga.push(t0.elapsed().as_secs_f64());
            iters.push(s.steps as f64);
        }
        c.shutdown();

        let mut snap = SnapshotEngine::new(baseline_threads());
        let dropped: HashSet<_> = dels
            .changes
            .iter()
            .map(|c| (c.edge.src, c.edge.dst))
            .collect();
        snap.load(edges.iter().copied().filter(|e| !dropped.contains(e)));
        let graphx: Vec<f64> = ins
            .changes
            .chunks(bs)
            .take(3)
            .enumerate()
            .map(|(i, chunk)| {
                time(|| snap.apply_batch(&Batch::new(i as u64, chunk.to_vec()))).as_secs_f64()
            })
            .collect();

        let ms = |v: &[f64]| {
            let (min, max) = v
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            [min, v.iter().sum::<f64>() / v.len() as f64, max].map(|x| x * 1e3)
        };
        let (e, g) = (ms(&elga), ms(&graphx));
        let avg_iters = iters.iter().sum::<f64>() / iters.len() as f64;
        row!(fig; bs, e[0], e[1], e[2], g[0], g[1], g[2], g[1] / e[1], avg_iters);
    }

    // The paper's reference point: a full WCC over the whole graph
    // takes ElGA 14 seconds.
    let mut c = cluster(4);
    c.ingest_edges(edges.iter().copied());
    let full = time(|| c.run(Wcc::new()).expect("full wcc"));
    c.shutdown();
    fig.note(format!(
        "full WCC on the whole graph: {:.1} ms",
        full.as_secs_f64() * 1e3
    ));
}

/// Ablation — sync vs async WCC (§3.2/§3.4): time, and the last
/// trial's vertex messages delivered (after sender-side combining) and
/// VMSG and STATE frames on the wire.
pub(crate) fn ablation_sync_async(fig: &mut Figure) {
    let cols = vec![
        Col::new("graph", 16).left(),
        Col::new("m", 9),
        Col::new("mode", 5).left(),
        Col::ms("total"),
        Col::new("vmsgs", 9),
        Col::new("VMSG fr", 8),
        Col::new("STATE fr", 8),
    ];
    fig.table("", cols);
    for name in ["Twitter-2010", "LiveJournal", "Amazon0601"] {
        let (_, edges) = generate(&find(name).expect("catalog"), 97);
        for mode in [ExecutionMode::Sync, ExecutionMode::Async] {
            let mut counts = (0, 0, 0);
            let total = timed_trials(|| {
                let mut c = cluster(4);
                c.ingest_edges(edges.iter().copied());
                let net = c.transport().net_stats().expect("in-process stats");
                let frames = || (net.sent(packet::VMSG).0, net.sent(packet::STATE).0);
                let (vmsgs, before) = (c.metrics().vmsgs, frames());
                let options = RunOptions {
                    reuse_state: false,
                    mode,
                };
                let stats = c.run_with(Wcc::new(), options).expect("wcc run");
                let after = frames();
                counts = (
                    c.metrics().vmsgs - vmsgs,
                    after.0 - before.0,
                    after.1 - before.1,
                );
                c.shutdown();
                stats.total
            });
            row!(fig; name, edges.len(), format!("{mode:?}"), Cell::ms(total), counts.0, counts.1, counts.2);
        }
    }
}
