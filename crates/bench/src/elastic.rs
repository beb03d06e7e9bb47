//! Elasticity and fault tolerance: the cost of a join and a leave,
//! manual and automatic scaling, and crash recovery.

use crate::row;
use crate::setup::{cluster, generate, generate_sized, mean_ci, timed_trials, trials};
use crate::table::{Cell, Col, Figure};
use elga_core::algorithms::{PageRank, Wcc};
use elga_core::autoscale::{Autoscaler, EmaAutoscaler};
use elga_core::cluster::{Cluster, RecoveryStats};
use elga_core::config::SystemConfig;
use elga_core::msg::{packet, Message, RunStatus};
use elga_core::program::RunOptions;
use elga_gen::catalog::{catalog, find};
use elga_graph::types::EdgeChange;
use elga_hash::{EdgeLocator, HashKind, LocatorConfig, Ring};
use elga_net::Frame;
use std::path::Path;
use std::time::{Duration, Instant};

/// Figure 16 — the cost of adding and removing one agent: (a) edges
/// moved at 2048 agents, exact from the locator; (b) wall time on a
/// live 8-agent cluster.
pub(crate) fn fig16(fig: &mut Figure) {
    let base = Ring::from_agents(HashKind::Wang, 100, 0..2048);
    let mut plus = base.clone();
    plus.add_agent(5000);
    let mut minus = base.clone();
    minus.remove_agent(1024);
    let cfg = LocatorConfig::default();
    let [loc_base, loc_plus, loc_minus] =
        [base, plus, minus].map(|ring| EdgeLocator::new(ring, cfg));
    let pct = |name: &'static str| Col::new(name, 12).prec(4).suffix("%");
    let cols = vec![
        Col::new("graph", 16).left(),
        Col::new("m", 9),
        pct("add moved"),
        pct("rem moved"),
        pct("ideal"),
    ];
    fig.table(
        "(a) percent of edges moved, 2048 agents, 100 virtual agents each",
        cols,
    );
    for ds in catalog() {
        // Movement ratios are pure locator math: ~200k edges each.
        let (_, edges) = generate_sized(ds, 200_000, 81);
        let (mut add_moved, mut rem_moved) = (0usize, 0usize);
        for &(u, v) in &edges {
            let b = loc_base.owner_of_edge(u, v, 0);
            add_moved += usize::from(loc_plus.owner_of_edge(u, v, 0) != b);
            rem_moved += usize::from(loc_minus.owner_of_edge(u, v, 0) != b);
        }
        let m = edges.len() as f64;
        row!(fig; ds.name, edges.len(), add_moved as f64 / m * 100.0, rem_moved as f64 / m * 100.0, 100.0 / 2049.0);
    }

    let cols = vec![Col::new("graph", 16).left(), Col::ms("add + remove")];
    fig.table(
        "(b) wall time to add then remove one agent (live cluster, 8 agents)",
        cols,
    );
    for name in ["Twitter-2010", "LiveJournal"] {
        let (_, edges) = generate(&find(name).expect("catalog"), 83);
        let wall = timed_trials(|| {
            let mut c = cluster(8);
            c.ingest_edges(edges.iter().copied());
            let t0 = Instant::now();
            let ids = c.add_agents(1);
            c.quiesce().expect("quiesce");
            c.remove_agent(ids[0]);
            c.quiesce().expect("quiesce");
            let dt = t0.elapsed();
            c.shutdown();
            dt
        });
        row!(fig; name, Cell::ms(wall));
    }
}

/// Figure 17 — PageRank scaled 4 -> 16 agents after its first iteration
/// (applied at a superstep boundary), then back down after the run.
pub(crate) fn fig17(fig: &mut Figure) {
    const SMALL: usize = 4; // the paper's 16 nodes
    const LARGE: usize = 16; // the paper's 64 nodes
    let (_, edges) = generate(&find("Gowalla").expect("catalog"), 91);
    let mut c = cluster(SMALL);
    c.ingest_edges(edges.iter().copied());
    let t0 = Instant::now();
    let handle = c
        .start_run(PageRank::new(0.85).with_max_iters(5), RunOptions::default())
        .expect("start");
    // The operator waits for iteration 1 to complete, then scales up.
    loop {
        let rep = c
            .transport()
            .request(
                &c.lead_directory(),
                Frame::signal(packet::RUN_STATUS),
                Duration::from_secs(5),
            )
            .expect("status");
        let status = RunStatus::decode(&rep).expect("status");
        if status.steps >= 1 || status.done {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let scale_at = t0.elapsed();
    c.add_agents(LARGE - SMALL);
    let stats = c.wait_run(handle).expect("run");
    fig.note(format!(
        "scaled {SMALL} -> {LARGE} agents at t={:.1} ms (applied at the next superstep boundary)",
        scale_at.as_secs_f64() * 1e3
    ));
    let cols = vec![
        Col::new("iteration", 9),
        Col::new("time", 12).prec(2).suffix(" ms"),
        Col::new("phase", 15).left(),
    ];
    fig.table("", cols);
    for (i, d) in stats.step_durations.iter().enumerate() {
        let phase = ["before/at scale", "after scale-up"][usize::from(i > 1)];
        row!(fig; i, d.as_secs_f64() * 1e3, phase);
    }
    // Scale back down, as the paper's operator does after completion.
    let t1 = Instant::now();
    while c.agent_count() > SMALL {
        c.remove_last_agent();
    }
    c.quiesce().expect("quiesce");
    fig.note(format!(
        "scaled back {LARGE} -> {SMALL} agents in {:.1} ms (cost savings resume)",
        t1.elapsed().as_secs_f64() * 1e3
    ));
    c.shutdown();
}

/// Figure 18 — a step function of query rates drives the EMA
/// autoscaler (§3.4.3, §4.9, scaled to seconds); target and agents
/// should overlap.
pub(crate) fn fig18(fig: &mut Figure) {
    let (n, edges) = generate(&find("Skitter").expect("catalog"), 95);
    let mut c = cluster(2);
    c.ingest_edges(edges.iter().copied());
    c.run(Wcc::new()).expect("wcc");
    // Steps of offered load (queries per tick).
    let phases: &[(usize, f64)] = &[(6, 400.0), (6, 3200.0), (6, 1200.0), (6, 200.0)];
    let mut policy = EmaAutoscaler::new(Duration::from_millis(300), 400.0, 1, 12)
        .with_cooldown(Duration::from_millis(600));
    let cols = vec![
        Col::new("tick", 6),
        Col::new("query rate", 12),
        Col::new("target", 8),
        Col::new("agents", 8),
    ];
    fig.table("(target vs agents should overlap)", cols);
    let mut tick = 0usize;
    for &(len, rate) in phases {
        for _ in 0..len {
            // Offer a tenth of `rate` queries this tick, sequentially:
            // the rate itself is the autoscaler's input signal.
            for q in 0..(rate as usize / 10).max(1) {
                let _ = c.query_u64(edges[q % edges.len()].0 % n.max(1));
            }
            c.autoscale_once(&mut policy, rate);
            row!(fig; tick, rate, policy.current_target().unwrap_or(0), c.agent_count());
            tick += 1;
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    c.shutdown();
}

/// One churn stage: a band of ring edges with chords, then deletion of
/// a third of the previous band — enough deletions that replay is not
/// insert-only.
fn stage_changes(stage: usize, band: u64) -> Vec<EdgeChange> {
    let lo = stage as u64 * band;
    let mut changes = Vec::new();
    for i in lo..lo + band {
        changes.push(EdgeChange::insert(i, (i + 1) % (lo + band)));
        if i % 3 == 0 {
            changes.push(EdgeChange::insert(i, (i * 7 + 3) % (lo + band)));
        }
    }
    if stage > 0 {
        for i in (lo - band..lo).step_by(3) {
            changes.push(EdgeChange::delete(i, (i + 1) % lo));
        }
    }
    changes.retain(|c| c.edge.src != c.edge.dst);
    changes
}

/// Ingest `stages` churn stages, crash an agent mid-WCC: the records
/// ingested and the recovery's counters. A checkpointed (`ckpt`) trial
/// keeps its store under `root`.
fn crash_trial(root: &Path, stages: usize, ckpt: bool, trial: usize) -> (u64, RecoveryStats) {
    let config = SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 12,
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    };
    let mut b = Cluster::builder().agents(4).config(config);
    let dir = root.join(format!("s{stages}-t{trial}"));
    if ckpt {
        let _ = std::fs::remove_dir_all(&dir);
        b = b.checkpoints(&dir);
    }
    let mut c = b.build();
    let mut records = 0u64;
    for s in 0..stages {
        let changes = stage_changes(s, 400);
        records += changes.len() as u64;
        c.ingest(changes);
        // No checkpoint after the final stage: the crash then replays
        // the stages since the oldest retained generation, the
        // steady-state recovery cost.
        if ckpt && s + 1 < stages {
            assert!(c.checkpoint().expect("checkpoint").committed);
        }
    }
    let handle = c
        .start_run(Wcc::new(), RunOptions::default())
        .expect("start run");
    let victim = c.agent_ids()[1];
    c.kill_agent(victim);
    c.wait_run(handle).expect("run survives the crash");
    let rec = c.recovery_stats();
    assert_eq!(rec.recoveries, 1);
    c.shutdown();
    // Keep only the largest checkpointed store, as a sample artifact.
    if ckpt && stages != 8 {
        let _ = std::fs::remove_dir_all(&dir);
    }
    (records, rec)
}

/// Recovery — replay after an agent crash, with and without
/// checkpoints. Staged churn; the checkpointed runs cut one after every
/// stage but the last, so replay stays at the retained generations'
/// stages however long the stream grows, where log-only replay grows
/// with it. The 8-stage store is left in `elga-bench-ckpt/` under the
/// figure's output directory.
pub(crate) fn recovery(fig: &mut Figure) {
    let root = fig.out_dir().join("elga-bench-ckpt");
    let cols = vec![
        Col::new("mode", 12),
        Col::new("stages", 7),
        Col::new("records", 9),
        Col::new("replayed", 9),
        Col::new("recovery-ms", 12).prec(1),
        Col::new("restore-ms", 12).prec(1),
    ];
    fig.table("", cols);
    let mut replayed = Vec::new();
    for (mode, checkpointed) in [("log-only", false), ("checkpoint", true)] {
        for stages in [2usize, 4, 8] {
            let (mut recovery, mut restore) = (Vec::new(), Vec::new());
            let (mut records, mut replay) = (0, 0);
            for trial in 0..trials() {
                let (ingested, rec) = crash_trial(&root, stages, checkpointed, trial);
                (records, replay) = (ingested, rec.replayed_records);
                recovery.push(rec.recovery_nanos as f64 / 1e6);
                restore.push(rec.ckpt_restore_nanos as f64 / 1e6);
            }
            row!(fig; mode, stages, records, replay, mean_ci(&recovery).0, mean_ci(&restore).0);
            replayed.push((mode, stages, replay));
        }
    }
    // The headline: how replay work scales from the shortest stream to
    // the longest in each mode.
    for pair in replayed.chunks(3) {
        let ((mode, first_stages, first), (_, last_stages, last)) = (pair[0], pair[2]);
        fig.note(format!(
            "{mode}: replayed {first} -> {last} records ({}x) over {}x more stream",
            last / first.max(1),
            last_stages / first_stages.max(1),
        ));
    }
    fig.note(format!(
        "sample checkpoint store: {}",
        root.join("s8-t0").display()
    ));
}
