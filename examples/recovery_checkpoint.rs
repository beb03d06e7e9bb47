//! Durable checkpoints and bounded recovery: cut checkpoints at batch
//! boundaries, crash an agent before a run, and recover by restoring the
//! latest valid generation and replaying the change log, which reaches
//! back to the oldest retained generation.
//! Then damage the newest generation on disk and show the fallback
//! ladder landing on the older one — never on a wrong answer.
//!
//! Each crash is followed by a check of every label against reference
//! WCC and of the recovery counts: the example exits 1 if either is off.
//!
//! ```sh
//! cargo run --release --example recovery_checkpoint
//! ```

use elga::graph::reference;
use elga::hash::{AgentId, FxHashMap};
use elga::prelude::*;
use std::time::Duration;

/// Ring + chords over `[lo, lo + n)`.
fn band(lo: u64, n: u64) -> Vec<EdgeChange> {
    (lo..lo + n)
        .flat_map(|i| {
            let mut v = vec![EdgeChange::insert(i, lo + (i + 1 - lo) % n)];
            if i % 3 == 0 {
                v.push(EdgeChange::insert(i, lo + (i * 7 + 3) % n));
            }
            v
        })
        .filter(|c| c.edge.src != c.edge.dst)
        .collect()
}

/// Kill `victim` and run WCC in `mode`, which starts after the recovery
/// (a kill after the start can miss a short run); return the wrong labels.
fn crash_then_run(
    cluster: &mut Cluster,
    victim: AgentId,
    mode: ExecutionMode,
    truth: &FxHashMap<u64, u64>,
) -> usize {
    let options = elga::core::program::RunOptions {
        reuse_state: false,
        mode,
    };
    cluster.kill_agent(victim);
    let handle = cluster.start_run(Wcc::new(), options).expect("start wcc");
    cluster.wait_run(handle).expect("run survives the crash");
    let states = cluster.dump_states();
    let differs = |(v, l): (&u64, &u64)| truth.get(v) != Some(l);
    let wrong = states.iter().filter(|&e| differs(e)).count() + truth.len();
    let wrong = wrong - states.keys().filter(|&v| truth.contains_key(v)).count();
    println!(
        "  agent {victim} killed; vertex 0 -> component {:?}, vertex 250 -> component {:?}; \
         {wrong} of {} labels differ from the reference",
        cluster.query_u64(0),
        cluster.query_u64(250),
        truth.len()
    );
    wrong
}

fn main() {
    let dir = std::env::temp_dir().join(format!("elga-recovery-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = SystemConfig {
        // 1 s of silence, as in tests/chaos.rs: a load spike evicts no one.
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(config)
        .checkpoints(&dir)
        .build();
    // The victims are chosen while all four agents are members.
    let victims = cluster.agent_ids();
    let bands = (0..3).flat_map(|b| band(b * 100, 100));
    let truth = reference::wcc(bands.map(|c| (c.edge.src, c.edge.dst)));

    // Two ingest batches with a checkpoint after each: the change log's
    // base moves to the oldest kept generation's watermark.
    for stage in 0..2u64 {
        cluster.ingest(band(stage * 100, 100));
        let report = cluster.checkpoint().expect("checkpoint");
        let log = cluster.change_log_stats();
        println!(
            "checkpoint generation {} at watermark {} (committed: {}); \
             log retains {} of {} records (base {}, {} heap bytes)",
            report.generation,
            report.watermark,
            report.committed,
            log.retained,
            log.ingested,
            log.base,
            log.heap_bytes
        );
    }
    // A third batch arrives after the last checkpoint.
    cluster.ingest(band(200, 100));

    // Crash an agent. The driver restores the newest generation and
    // replays the log since the oldest kept one (the second and third
    // batches), not all three batches.
    let mut wrong = crash_then_run(&mut cluster, victims[1], ExecutionMode::Async, &truth);
    let first = cluster.recovery_stats();
    println!(
        "recovered in {:.1} ms: restored generation from disk ({} restore), \
         replayed {} records, {} fallbacks",
        first.recovery_nanos as f64 / 1e6,
        first.ckpt_restores,
        first.replayed_records,
        first.ckpt_fallbacks
    );

    // Now damage the newest generation on disk (torn shard write) and
    // crash again: recovery falls back a generation, replays the same
    // log onto it, and never trusts a corrupt checkpoint.
    for entry in std::fs::read_dir(&dir).expect("store dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("g00000002") && name.ends_with(".shard") {
            let len = std::fs::metadata(&path).expect("meta").len();
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("open shard");
            file.set_len(len / 2).expect("tear shard");
        }
    }
    wrong += crash_then_run(&mut cluster, victims[2], ExecutionMode::Sync, &truth);
    let rec = cluster.recovery_stats();
    println!(
        "after tearing generation 2: {} recoveries total, {} fallback, \
         {} records replayed cumulatively (generation 1 + the same log)",
        rec.recoveries, rec.ckpt_fallbacks, rec.replayed_records
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let counts = |r: elga::core::RecoveryStats| (r.recoveries, r.ckpt_restores, r.ckpt_fallbacks);
    let counts = [counts(first), counts(rec)];
    if wrong > 0 || counts != [(1, 1, 0), (2, 2, 1)] {
        eprintln!(
            "{wrong} wrong labels; (recoveries, restores, fallbacks) after each crash \
             {counts:?}, want [(1, 1, 0), (2, 2, 1)]"
        );
        std::process::exit(1);
    }
}
