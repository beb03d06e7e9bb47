//! Recovery-duration bench: how long does it take to get correct
//! state back after an agent crash, with and without durable
//! checkpointing?
//!
//! A churn stream (inserts plus deletions) is ingested in stages; the
//! checkpointed configuration cuts a checkpoint after every stage but
//! the last, so recovery replays the stages since the oldest retained
//! generation (two, at the default `checkpoint_keep`) no matter how
//! long the stream grows. The log-only configuration replays the
//! stream's net effect from the empty graph, which here grows linearly
//! with stages.
//!
//! Writes `BENCH_recovery.json` at the workspace root (override with
//! `ELGA_BENCH_RECOVERY_OUT`). The checkpointed runs write their
//! stores under `ELGA_BENCH_CKPT_DIR` (default: the system temp dir);
//! the final generation of the largest run is left in place as a
//! sample artifact for CI to upload.

use elga_bench::{banner, mean_ci, trials};
use elga_core::algorithms::Wcc;
use elga_core::cluster::Cluster;
use elga_core::config::SystemConfig;
use elga_core::program::RunOptions;
use elga_graph::types::EdgeChange;
use std::path::PathBuf;
use std::time::Duration;

struct Row {
    checkpointed: bool,
    stages: usize,
    records: u64,
    replayed: u64,
    recovery_ms: f64,
    restore_ms: f64,
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
        let prev = lo - band;
        for i in (prev..lo).step_by(3) {
            changes.push(EdgeChange::delete(i, (i + 1) % lo));
        }
    }
    changes.retain(|c| c.edge.src != c.edge.dst);
    changes
}

fn recovery_config() -> SystemConfig {
    SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 12,
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    }
}

fn ckpt_root() -> PathBuf {
    std::env::var("ELGA_BENCH_CKPT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("elga-bench-ckpt"))
}

/// Ingest `stages` churn stages, crash an agent mid-run, and return
/// `(ingested records, replayed records, recovery secs, restore secs)`.
fn crash_trial(stages: usize, band: u64, checkpointed: bool, trial: usize) -> (u64, u64, f64, f64) {
    let mut b = Cluster::builder().agents(4).config(recovery_config());
    let dir = ckpt_root().join(format!("s{stages}-t{trial}"));
    if checkpointed {
        let _ = std::fs::remove_dir_all(&dir);
        b = b.checkpoints(&dir);
    }
    let mut c = b.build();
    let mut records = 0u64;
    for s in 0..stages {
        let changes = stage_changes(s, band);
        records += changes.len() as u64;
        c.ingest(changes);
        // No checkpoint after the final stage: the crash then replays
        // the stages since the oldest retained generation, the
        // steady-state recovery cost.
        if checkpointed && s + 1 < stages {
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
    // Keep only the largest checkpointed store as the sample artifact.
    if checkpointed && stages != 8 {
        let _ = std::fs::remove_dir_all(&dir);
    }
    (
        records,
        rec.replayed_records,
        rec.recovery_nanos as f64 / 1e9,
        rec.ckpt_restore_nanos as f64 / 1e9,
    )
}

fn main() {
    banner(
        "Recovery",
        "crash recovery duration: checkpoint + log replay vs replay from the empty graph",
    );
    let band = 400u64;
    println!(
        "{:>12} {:>7} {:>9} {:>9} {:>12} {:>12}",
        "mode", "stages", "records", "replayed", "recovery-ms", "restore-ms"
    );
    let mut rows = Vec::new();
    for &checkpointed in &[false, true] {
        for &stages in &[2usize, 4, 8] {
            let mut recovery = Vec::new();
            let mut restore = Vec::new();
            let (mut records, mut replayed) = (0, 0);
            for t in 0..trials() {
                let (rec, rep, secs, rsecs) = crash_trial(stages, band, checkpointed, t);
                records = rec;
                replayed = rep;
                recovery.push(secs * 1e3);
                restore.push(rsecs * 1e3);
            }
            let (recovery_ms, _) = mean_ci(&recovery);
            let (restore_ms, _) = mean_ci(&restore);
            println!(
                "{:>12} {:>7} {:>9} {:>9} {:>12.1} {:>12.1}",
                if checkpointed {
                    "checkpoint"
                } else {
                    "log-only"
                },
                stages,
                records,
                replayed,
                recovery_ms,
                restore_ms
            );
            rows.push(Row {
                checkpointed,
                stages,
                records,
                replayed,
                recovery_ms,
                restore_ms,
            });
        }
    }
    // The headline ratio: how replay work scales from the shortest to
    // the longest stream in each mode.
    for &checkpointed in &[false, true] {
        let m: Vec<&Row> = rows
            .iter()
            .filter(|r| r.checkpointed == checkpointed)
            .collect();
        if let (Some(first), Some(last)) = (m.first(), m.last()) {
            println!(
                "{}: replayed {} -> {} records ({}x) over {}x more stream",
                if checkpointed {
                    "checkpoint"
                } else {
                    "log-only"
                },
                first.replayed,
                last.replayed,
                last.replayed / first.replayed.max(1),
                last.stages / first.stages.max(1),
            );
        }
    }
    write_json(&rows, band);
}

/// Hand-rolled JSON (the workspace carries no serializer dependency).
fn write_json(rows: &[Row], band: u64) {
    let path = std::env::var("ELGA_BENCH_RECOVERY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json").to_string()
    });
    let mut body = String::from("{\n  \"figure\": \"recovery_checkpoint\",\n");
    body.push_str("  \"workload\": \"staged churn (inserts + deletions), agent crash mid-WCC\",\n");
    body.push_str(&format!("  \"band_per_stage\": {band},\n"));
    body.push_str(&format!("  \"trials\": {},\n  \"rows\": [\n", trials()));
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"checkpointed\": {}, \"stages\": {}, \"records\": {}, \
             \"replayed_records\": {}, \"recovery_ms\": {:.2}, \"restore_ms\": {:.2}}}{}\n",
            r.checkpointed,
            r.stages,
            r.records,
            r.replayed,
            r.recovery_ms,
            r.restore_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
