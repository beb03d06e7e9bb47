//! Durable checkpoints and bounded recovery: cut checkpoints at batch
//! boundaries, crash an agent mid-run, and recover by restoring the
//! latest valid generation and replaying the change log, which reaches
//! back to the oldest retained generation.
//! Then damage the newest generation on disk and show the fallback
//! ladder landing on the older one — never on a wrong answer.
//!
//! ```sh
//! cargo run --release --example recovery_checkpoint
//! ```

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

fn main() {
    let dir = std::env::temp_dir().join(format!("elga-recovery-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 12,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder()
        .agents(4)
        .config(config)
        .checkpoints(&dir)
        .build();

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

    // Crash an agent mid-run. The driver restores the newest generation
    // and replays the log since the oldest kept one (the second and
    // third batches), not all three batches.
    let handle = cluster
        .start_run(
            Wcc::new(),
            elga::core::program::RunOptions {
                reuse_state: false,
                mode: ExecutionMode::Async,
            },
        )
        .expect("start wcc");
    let victim = cluster.agent_ids()[1];
    cluster.kill_agent(victim);
    cluster.wait_run(handle).expect("run survives the crash");
    let rec = cluster.recovery_stats();
    println!(
        "recovered in {:.1} ms: restored generation from disk ({} restore), \
         replayed {} records, {} fallbacks",
        rec.recovery_nanos as f64 / 1e6,
        rec.ckpt_restores,
        rec.replayed_records,
        rec.ckpt_fallbacks
    );
    println!(
        "  vertex 0 -> component {}, vertex 250 -> component {}",
        cluster.query_u64(0).expect("label"),
        cluster.query_u64(250).expect("label")
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
    let handle = cluster
        .start_run(Wcc::new(), elga::core::program::RunOptions::default())
        .expect("start wcc");
    let victim = cluster.agent_ids()[2];
    cluster.kill_agent(victim);
    cluster.wait_run(handle).expect("run survives the crash");
    let rec = cluster.recovery_stats();
    println!(
        "after tearing generation 2: {} recoveries total, {} fallback, \
         {} records replayed cumulatively (generation 1 + the same log)",
        rec.recoveries, rec.ckpt_fallbacks, rec.replayed_records
    );
    println!(
        "  vertex 0 -> component {}, vertex 250 -> component {}",
        cluster.query_u64(0).expect("label"),
        cluster.query_u64(250).expect("label")
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
