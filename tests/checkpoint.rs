//! Durable checkpointing and bounded recovery: a checkpoint moves the
//! change log's base to the oldest retained generation, recovery
//! restores the newest valid generation and replays the log past that
//! base, and injected disk faults (torn writes, corruption) degrade to
//! an older generation or a refused commit — never to a wrong answer.
//!
//! Every fault sequence is either deterministic on-disk damage or a
//! fixed-seed injector, so failures reproduce exactly.

use elga::ckpt::DiskFault;
use elga::core::program::{ExecutionMode, ProgramSpec, RunOptions};
use elga::graph::reference;
use elga::net::{FaultPlan, NetError, SplitMix64};
use elga::prelude::*;
use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// A deterministic ring-with-chords graph (same shape as the chaos
/// suite): connected, skewed enough to exercise routing.
fn chain_graph(n: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        if i % 3 == 0 {
            edges.push((i, (i * 7 + 3) % n));
        }
    }
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Fresh checkpoint directory under the system temp dir, unique per
/// test so parallel runs never collide.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elga-ckpt-it-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Fast failure detection so crash tests turn around quickly.
fn recovery_config() -> SystemConfig {
    SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(30),
        run_deadline: Duration::from_secs(60),
        ..SystemConfig::default()
    }
}

/// Damage every shard of `generation` with a torn write: keep only the
/// first half of the file, exactly what a crash mid-checkpoint leaves.
fn tear_generation(dir: &PathBuf, generation: u64) {
    let prefix = format!("g{generation:08}-");
    let mut torn = 0;
    for entry in fs::read_dir(dir).expect("checkpoint dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name.ends_with(".shard") {
            let data = fs::read(&path).expect("read shard");
            fs::write(&path, &data[..data.len() / 2]).expect("tear shard");
            torn += 1;
        }
    }
    assert!(torn > 0, "no shards found for generation {generation}");
}

#[test]
fn checkpoint_truncates_log_and_tracks_watermarks() {
    let dir = ckpt_dir("arith");
    let first = chain_graph(60);
    let second: Vec<(u64, u64)> = chain_graph(90)
        .into_iter()
        .filter(|e| !first.contains(e))
        .collect();
    let third = [(300u64, 301u64), (301, 302), (302, 300)];
    let mut cluster = Cluster::builder().agents(3).checkpoints(&dir).build();

    cluster.ingest_edges(first.iter().copied());
    let w1 = first.len() as u64;
    let log = cluster.change_log_stats();
    assert_eq!((log.retained, log.base, log.ingested), (w1, 0, w1));
    assert!(log.heap_bytes > 0);

    // Generation 1 commits at watermark w1; with only one retained
    // generation the log truncates all the way to it.
    let rep = cluster.checkpoint().expect("checkpoint 1");
    assert!(rep.committed, "clean disk must commit");
    assert_eq!((rep.generation, rep.watermark), (1, w1));
    assert!(rep.bytes > 0);
    let log = cluster.change_log_stats();
    assert_eq!((log.retained, log.base, log.ingested), (0, w1, w1));

    // Generation 2: the default keep=2 retains generation 1 too, so
    // the log may only truncate to w1 — the fallback ladder must still
    // be able to replay from the older generation's watermark.
    cluster.ingest_edges(second.iter().copied());
    let w2 = w1 + second.len() as u64;
    let rep = cluster.checkpoint().expect("checkpoint 2");
    assert!(rep.committed);
    assert_eq!((rep.generation, rep.watermark), (2, w2));
    let log = cluster.change_log_stats();
    assert_eq!(
        (log.retained, log.base, log.ingested),
        (second.len() as u64, w1, w2)
    );

    // Generation 3 prunes generation 1; the oldest retained watermark
    // advances to w2 and the log drops the second batch.
    cluster.ingest_edges(third.iter().copied());
    let w3 = w2 + third.len() as u64;
    let rep = cluster.checkpoint().expect("checkpoint 3");
    assert!(rep.committed);
    assert_eq!((rep.generation, rep.watermark), (3, w3));
    let log = cluster.change_log_stats();
    assert_eq!((log.retained, log.base), (third.len() as u64, w2));

    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_after_checkpoint_replays_only_the_suffix() {
    let dir = ckpt_dir("suffix");
    let edges = chain_graph(600);
    let (first, second) = edges.split_at(edges.len() / 2);
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .checkpoints(&dir)
        .build();

    cluster.ingest_edges(first.iter().copied());
    assert!(cluster.checkpoint().expect("checkpoint").committed);
    cluster.ingest_edges(second.iter().copied());

    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(Wcc::new(), RunOptions::default())
        .expect("start run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("run must complete despite the crash");

    // Recovery restored the checkpoint and replayed only the records
    // past its watermark — not the whole stream.
    let rec = cluster.recovery_stats();
    assert_eq!(rec.recoveries, 1);
    assert_eq!(rec.ckpt_restores, 1);
    assert_eq!(rec.ckpt_fallbacks, 0);
    assert_eq!(rec.replayed_records, second.len() as u64);
    assert!(rec.recovery_nanos > 0 && rec.ckpt_restore_nanos > 0);
    // The victim's counters died with it; the three survivors' shard
    // writes remain visible in the aggregate.
    let m = cluster.metrics();
    assert!(m.ckpt_writes >= 3, "surviving agents wrote shards");
    assert!(m.ckpt_bytes > 0);
    assert_eq!(m.ckpt_restores, 1);
    assert_eq!(m.replayed_records, second.len() as u64);

    let truth = reference::wcc(edges.iter().copied());
    for &(u, _) in &edges {
        assert_eq!(cluster.query_u64(u), Some(truth[&u]), "wcc v{u}");
    }
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restore_onto_a_membership_that_changed_after_the_cut() {
    // Four agents write the checkpoint; then two join, one writer
    // leaves gracefully and another dies mid-run. The dead writer's
    // shard and the departed one's have no writer left to load them:
    // the survivors and the joiners load them between them, and each
    // sweep sends what the view places elsewhere.
    let dir = ckpt_dir("membership");
    let edges = chain_graph(600);
    let (first, second) = edges.split_at(edges.len() / 2);
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .checkpoints(&dir)
        .build();
    cluster.ingest_edges(first.iter().copied());
    let writers = cluster.agent_ids();
    assert!(cluster.checkpoint().expect("checkpoint").committed);
    cluster.add_agents(2);
    cluster.remove_agent(writers[0]);
    cluster.ingest_edges(second.iter().copied());

    let handle = cluster
        .start_run(Wcc::new(), RunOptions::default())
        .expect("start run");
    cluster.kill_agent(writers[1]);
    cluster
        .wait_run(handle)
        .expect("run must complete despite the crash");

    let rec = cluster.recovery_stats();
    assert_eq!((rec.recoveries, rec.ckpt_restores), (1, 1));
    assert_eq!(rec.replayed_records, second.len() as u64, "only the suffix");
    assert_eq!(cluster.agent_count(), 4);
    let truth = reference::wcc(edges.iter().copied());
    for &(u, _) in &edges {
        assert_eq!(cluster.query_u64(u), Some(truth[&u]), "wcc v{u}");
    }
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restore_over_a_lossy_transport() {
    // Requests and pushes straggle: the shard loads and their migration
    // streams arrive late and in any order across routes, and `quiesce`
    // still sees every record land.
    let dir = ckpt_dir("lossy");
    let edges = chain_graph(200);
    let (first, second) = edges.split_at(edges.len() / 2);
    let plan = FaultPlan::delays(Duration::ZERO, Duration::from_millis(5));
    let cfg = SystemConfig {
        run_deadline: Duration::from_secs(120),
        ..recovery_config()
    };
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(cfg)
        .checkpoints(&dir)
        .chaos(plan, 0xC4E7)
        .build();
    cluster.ingest_edges(first.iter().copied());
    assert!(cluster.checkpoint().expect("checkpoint").committed);
    cluster.ingest_edges(second.iter().copied());

    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(Wcc::new(), RunOptions::default())
        .expect("start run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("run must complete despite the crash");

    let rec = cluster.recovery_stats();
    assert_eq!((rec.recoveries, rec.ckpt_restores), (1, 1));
    let truth = reference::wcc(edges.iter().copied());
    for &(u, _) in &edges {
        assert_eq!(cluster.query_u64(u), Some(truth[&u]), "wcc v{u}");
    }
    let stats = cluster.fault().expect("chaos handle").stats();
    assert!(stats.delayed() > 0, "no frame delayed — chaos was a no-op");
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Shared body for the torn-generation fallback tests: commit two
/// generations, tear every shard of the newest (exactly what a crash
/// mid-checkpoint-write leaves behind), crash an agent mid-run, and
/// require recovery to fall back one generation, replay the log onto
/// it, and land bit-exact on an undisturbed run's states.
fn torn_generation_falls_back(mode: ExecutionMode, tag: &str) {
    let dir = ckpt_dir(tag);
    let edges = chain_graph(600);
    let third = edges.len() / 3;
    let (a, rest) = edges.split_at(third);
    let (b, c) = rest.split_at(third);
    let opts = RunOptions {
        reuse_state: false,
        mode,
    };

    let mut cluster = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .checkpoints(&dir)
        .build();
    cluster.ingest_edges(a.iter().copied());
    assert!(cluster.checkpoint().expect("gen 1").committed);
    cluster.ingest_edges(b.iter().copied());
    assert!(cluster.checkpoint().expect("gen 2").committed);
    cluster.ingest_edges(c.iter().copied());

    // Generation 2 committed, then its shards were damaged on disk.
    tear_generation(&dir, 2);

    let victim = cluster.agent_ids()[1];
    let handle = cluster.start_run(Wcc::new(), opts).expect("start run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("run must complete despite crash and torn checkpoint");

    // The newest generation failed validation, so recovery fell back a
    // generation and replayed the log since it (batches b and c).
    let rec = cluster.recovery_stats();
    assert_eq!(rec.ckpt_restores, 1);
    assert_eq!(rec.ckpt_fallbacks, 1);
    assert_eq!(rec.replayed_records, (b.len() + c.len()) as u64);

    // Bit-exact against an undisturbed cluster running the same graph.
    let mut clean = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .build();
    clean.ingest_edges(edges.iter().copied());
    clean.run_with(Wcc::new(), opts).expect("clean run");
    let got = cluster.dump_states();
    let want = clean.dump_states();
    assert_eq!(got, want, "recovered states must be bit-exact");

    let truth = reference::wcc(edges.iter().copied());
    for &(u, _) in &edges {
        assert_eq!(cluster.query_u64(u), Some(truth[&u]), "wcc v{u}");
    }
    cluster.shutdown();
    clean.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_generation_falls_back_sync() {
    torn_generation_falls_back(ExecutionMode::Sync, "fallback-sync");
}

#[test]
fn torn_generation_falls_back_async() {
    torn_generation_falls_back(ExecutionMode::Async, "fallback-async");
}

#[test]
fn injected_torn_writes_refuse_to_commit_and_recovery_survives() {
    // Every agent-side shard write is torn (probability 1.0): the
    // driver's read-back scrub must refuse the manifest, leave the
    // change log whole, and recovery must degrade to full replay.
    let dir = ckpt_dir("refuse");
    let edges = chain_graph(300);
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .checkpoints(&dir)
        .disk_chaos(DiskFault::new(1.0, 0.0), 0xD15C)
        .build();
    cluster.ingest_edges(edges.iter().copied());

    let rep = cluster
        .checkpoint()
        .expect("checkpoint call itself succeeds");
    assert!(!rep.committed, "torn shards must never commit");
    let log = cluster.change_log_stats();
    assert_eq!(
        (log.retained, log.base),
        (log.ingested, 0),
        "a refused commit must not truncate the log"
    );

    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(Wcc::new(), RunOptions::default())
        .expect("start run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("full replay still recovers");

    let rec = cluster.recovery_stats();
    assert_eq!(rec.ckpt_restores, 0, "no valid generation to restore");
    assert_eq!(rec.replayed_records, edges.len() as u64, "full replay");

    let truth = reference::wcc(edges.iter().copied());
    for &(u, _) in &edges {
        assert_eq!(cluster.query_u64(u), Some(truth[&u]), "wcc v{u}");
    }
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn all_generations_damaged_with_truncated_log_fails_fast() {
    // Two committed generations, log truncated past the stream origin,
    // then every shard of both generations is damaged: no combination
    // of checkpoint + log covers the stream, so recovery must fail
    // fast with RecoveryUnavailable — not silently produce a partial
    // graph and not burn the run deadline.
    let dir = ckpt_dir("unavailable");
    let edges = chain_graph(300);
    let (first, second) = edges.split_at(edges.len() / 2);
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .checkpoints(&dir)
        .build();
    cluster.ingest_edges(first.iter().copied());
    assert!(cluster.checkpoint().expect("gen 1").committed);
    cluster.ingest_edges(second.iter().copied());
    assert!(cluster.checkpoint().expect("gen 2").committed);
    let log = cluster.change_log_stats();
    assert!(log.base > 0, "log must be truncated for this scenario");
    tear_generation(&dir, 1);
    tear_generation(&dir, 2);

    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(Wcc::new(), RunOptions::default())
        .expect("start run");
    cluster.kill_agent(victim);
    let err = cluster.wait_run(handle).expect_err("recovery must fail");
    assert!(
        matches!(err, NetError::RecoveryUnavailable(_)),
        "expected RecoveryUnavailable, got {err:?}"
    );
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interval_checkpoints_fire_automatically() {
    // checkpoint_interval_batches = 1: every quiesced ingest ends in
    // an automatic checkpoint, so the log stays bounded without any
    // explicit checkpoint() calls.
    let dir = ckpt_dir("auto");
    let mut cluster = Cluster::builder()
        .agents(3)
        .checkpoints(&dir)
        .checkpoint_every(1)
        .build();
    let edges = chain_graph(120);
    let (first, second) = edges.split_at(edges.len() / 2);
    cluster.ingest_edges(first.iter().copied());
    cluster.ingest_edges(second.iter().copied());

    let log = cluster.change_log_stats();
    assert_eq!(log.ingested, edges.len() as u64);
    assert!(
        log.retained < log.ingested,
        "automatic checkpoints must truncate the log"
    );
    assert_eq!(
        log.base,
        first.len() as u64,
        "keep=2 retains the older watermark"
    );
    assert!(
        cluster.metrics().ckpt_writes >= 6,
        "two generations × three agents"
    );
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// An agent killed during a residual sync run past a checkpoint: the
/// run restarts after the restore and lands on the full-recompute
/// answer. The graph has sinks and the batch moves dangling mass both
/// ways. The checkpoint is cut after the batch, so the restore holds
/// it and nothing is replayed, or before it, so the replay of the log
/// brings it back. Either way the restore rebuilds only the graph, and
/// the lead recomputes the run from scratch.
fn residual_run_after_a_restore(cut_after_batch: bool) {
    let dir = ckpt_dir(if cut_after_batch {
        "residual-after"
    } else {
        "residual-before"
    });
    let mut edges = chain_graph(400);
    // Sinks: vertices with inbound edges and no outbound ones, whose
    // leaked mass the dangling redistribution must account for.
    for i in (0..400u64).step_by(7) {
        edges.push((i, 1000 + i));
    }
    // The batch both adds fresh sinks and converts existing ones into
    // non-sinks, moving dangling mass in both directions.
    let batch: Vec<EdgeChange> = (0..400u64)
        .step_by(9)
        .flat_map(|i| {
            [
                EdgeChange::insert(i, (i * 11 + 5) % 400),
                EdgeChange::insert(1000 + ((i / 9) * 7 % 400), i),
                EdgeChange::insert((i * 13 + 1) % 400, 2000 + i),
            ]
        })
        .filter(|c| c.edge.src != c.edge.dst)
        .collect();
    let pr = PageRank::new(0.85)
        .with_max_iters(300)
        .with_tolerance(1e-10);

    let mut cluster = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .checkpoints(&dir)
        .build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(pr).expect("initial pagerank");
    if cut_after_batch {
        cluster.ingest(batch.iter().copied());
    }
    assert!(cluster.checkpoint().expect("checkpoint").committed);
    if !cut_after_batch {
        cluster.ingest(batch.iter().copied());
    }

    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(
            pr,
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Sync,
            },
        )
        .expect("start incremental run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("incremental run survives the crash");
    let rec = cluster.recovery_stats();
    assert_eq!(rec.recoveries, 1);
    assert_eq!(rec.ckpt_restores, 1);
    if cut_after_batch {
        assert_eq!(rec.replayed_records, 0, "checkpoint covered the batch");
    } else {
        assert_eq!(
            rec.replayed_records,
            batch.len() as u64,
            "the batch must be replayed from the log, not the checkpoint"
        );
    }
    let got = cluster.dump_states();
    cluster.shutdown();

    let mut full: Vec<(u64, u64)> = edges;
    full.extend(batch.iter().map(|c| (c.edge.src, c.edge.dst)));
    full.sort_unstable();
    full.dedup();
    let mut clean = Cluster::builder().agents(4).build();
    clean.ingest_edges(full.iter().copied());
    clean.run(pr).expect("full recompute");
    let want = clean.dump_states();
    clean.shutdown();

    assert_eq!(got.len(), want.len());
    for (v, &bits) in &want {
        let w = f64::from_bits(bits);
        let g = f64::from_bits(got[v]);
        assert!(
            (w - g).abs() < 1e-5,
            "cut after batch {cut_after_batch}: v{v} full={w} incremental={g}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The checkpoint holds the batch: the restore rebuilds the graph the
/// residual run was started on, and the restarted run recomputes it.
#[test]
fn parked_residuals_survive_checkpoint_and_recovery() {
    residual_run_after_a_restore(true);
}

/// The batch lies past the checkpoint: the replayed suffix brings it
/// back, and the restarted run recomputes its corrections.
#[test]
fn replayed_suffix_regenerates_residual_corrections() {
    residual_run_after_a_restore(false);
}

/// The shared churn fixture: a checkpoint, churn past it that compacts
/// the change log with its deletes kept, and an agent killed mid-run of
/// `program`. Past the checkpoint a slab of fresh chords is inserted
/// and deleted four times over (32 Ki deletes, so the log compacts to
/// each edge's last change), every chord the checkpoint holds is
/// deleted with the ring edges of every hundredth vertex, and half the
/// slab comes back. A vertex whose out-edges all go is a sink until
/// the slab gives it some back, if it does. A run that reuses state
/// gets a full run before the checkpoint. Returns the recovered
/// cluster and the final edge set.
fn churn_past_a_checkpoint_then_kill(
    tag: &str,
    program: impl Into<ProgramSpec>,
    options: RunOptions,
) -> (Cluster, HashSet<(u64, u64)>) {
    const N: u64 = 1_000;
    const SLAB: usize = 8 << 10;
    let dir = ckpt_dir(tag);
    let program = program.into();
    let base = chain_graph(N);
    let mut edges: HashSet<(u64, u64)> = base.iter().copied().collect();
    let mut rng = SplitMix64::new(0x5EED);
    let mut slab = Vec::with_capacity(SLAB);
    let mut used = edges.clone();
    while slab.len() < SLAB {
        let (u, v) = (rng.below(N), rng.below(N));
        if u != v && used.insert((u, v)) {
            slab.push((u, v));
        }
    }
    let cut: Vec<(u64, u64)> = base
        .iter()
        .copied()
        .filter(|&(u, v)| v != (u + 1) % N || u % 100 == 0)
        .collect();

    let mut cluster = Cluster::builder()
        .agents(4)
        .config(recovery_config())
        .checkpoints(&dir)
        .build();
    cluster.ingest_edges(base.iter().copied());
    if options.reuse_state {
        cluster.run(program.clone()).expect("full run");
    }
    assert!(cluster.checkpoint().expect("checkpoint").committed);
    let insert = |&(u, v): &(u64, u64)| EdgeChange::insert(u, v);
    let delete = |&(u, v): &(u64, u64)| EdgeChange::delete(u, v);
    let mut churn = Vec::new();
    for _ in 0..4 {
        churn.extend(slab.iter().map(insert));
        churn.extend(slab.iter().map(delete));
    }
    churn.extend(cut.iter().map(delete));
    let back = &slab[..SLAB / 2];
    churn.extend(back.iter().map(insert));
    cluster.ingest(churn.iter().copied());
    let since = churn.len() as u64;
    for e in &cut {
        edges.remove(e);
    }
    edges.extend(back);
    let log = cluster.change_log_stats();
    assert!(
        log.base > 0 && log.retained < since,
        "the log never compacted"
    );

    let victim = cluster.agent_ids()[1];
    let handle = cluster.start_run(program, options).expect("start run");
    cluster.kill_agent(victim);
    cluster
        .wait_run(handle)
        .expect("run must complete despite the crash");
    let rec = cluster.recovery_stats();
    assert_eq!((rec.recoveries, rec.ckpt_restores), (1, 1));
    assert!(
        rec.replayed_records < since,
        "{} records replayed for {since} ingested since the checkpoint",
        rec.replayed_records
    );
    let _ = fs::remove_dir_all(&dir);
    (cluster, edges)
}

#[test]
fn killed_agent_after_a_compaction_past_a_checkpoint_recovers_the_final_edge_set() {
    let (cluster, edges) =
        churn_past_a_checkpoint_then_kill("churn-wcc", Wcc::new(), RunOptions::default());
    assert_eq!(
        cluster.metrics().edges,
        edges.len() as u64,
        "the final edge set"
    );
    let truth = reference::wcc(edges.iter().copied());
    let got = cluster.dump_states();
    for (v, label) in &truth {
        assert_eq!(got.get(v), Some(label), "wcc v{v}");
    }
    cluster.shutdown();
}

#[test]
fn delta_pagerank_after_a_compaction_past_a_checkpoint_matches_a_full_recompute() {
    // The replay applies each edge's last change in edge order, not in
    // stream order, and the churn passes vertices through a sink. The
    // restarted run recomputes, so neither may show in its answer.
    let pr = PageRank::new(0.85)
        .with_max_iters(300)
        .with_tolerance(1e-10);
    let options = RunOptions {
        reuse_state: true,
        mode: ExecutionMode::Sync,
    };
    let (cluster, edges) = churn_past_a_checkpoint_then_kill("churn-pr", pr, options);
    let got = cluster.dump_states();
    cluster.shutdown();

    let mut clean = Cluster::builder().agents(4).build();
    clean.ingest_edges(edges.iter().copied());
    clean.run(pr).expect("full recompute");
    let want = clean.dump_states();
    clean.shutdown();
    assert_eq!(got.len(), want.len());
    for (v, &bits) in &want {
        let (w, g) = (f64::from_bits(bits), f64::from_bits(got[v]));
        assert!((w - g).abs() < 1e-5, "v{v} full={w} incremental={g}");
    }
}
