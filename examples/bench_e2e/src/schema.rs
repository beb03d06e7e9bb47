//! The benchmark's contract: workloads, end-to-end metrics and
//! per-layer ledger rows, in the order a run prints them. The names,
//! units and bounds repeat `BENCHMARK.json` at the repository root
//! (which adds each metric's direction); keep the two in step.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 25;

/// The workloads; README.md says why each exists.
pub const WORKLOADS: [&str; 4] = ["bulk_rmat", "trickle_ring", "live_rmat", "elastic_wcc"];

/// A metric a user of the system sees, gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "c2v_ms_p50",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_eps",
        unit: "changes/s",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_kchange",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// One row of the per-layer ledger (reported, never gated).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn row(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit }
}

pub const PER_LAYER: [Layer; 48] = [
    row("core.streamer.send_ms_p50", "ms"),
    row("core.cluster.quiesce_ms_p50", "ms"),
    row("core.cluster.run_ms_p50", "ms"),
    row("core.cluster.c2v_ms_floor", "ms"),
    row("core.cluster.c2v_ms_p50", "ms"),
    row("core.cluster.c2v_ms_p95", "ms"),
    row("core.cluster.c2v_ms_max", "ms"),
    row("core.directory.step0_ms_p50", "ms"),
    row("core.agent.superstep.steps_per_run_p50", "count"),
    row("core.agent.superstep.step_ms_p50", "ms"),
    row("core.agent.superstep.scatter_ms_per_run", "ms"),
    row("core.agent.superstep.combine_ms_per_run", "ms"),
    row("core.agent.superstep.apply_ms_per_run", "ms"),
    row("core.agent.superstep.vmsgs_per_change", "count"),
    row("net.frames_per_kchange", "count"),
    row("net.bytes_per_change", "B"),
    row("net.records_per_frame", "count"),
    row("net.switch_flush_share", "ratio"),
    row("net.backpressure_waits", "count"),
    row("net.decode_ms_per_run", "ms"),
    row("net.coalesce_append_ns_per_rec", "ns"),
    row("net.inproc_rtt_us_p50", "us"),
    row("hash.owner_cache_hit_rate", "ratio"),
    row("hash.resolve_ns_per_edge", "ns"),
    row("hash.resolve_cold_ns_per_edge", "ns"),
    row("sketch.add_ns", "ns"),
    row("sketch.estimate_ns", "ns"),
    row("core.msg.encode_ns_per_change", "ns"),
    row("core.msg.decode_ns_per_change", "ns"),
    row("graph.adjacency_apply_ns_per_change", "ns"),
    row("core.agent.migrate.add_agents_ms_p50", "ms"),
    row("core.agent.migrate.remove_agents_ms_p50", "ms"),
    row("core.agent.migrate.frames_per_view_change", "count"),
    row("core.agent.migrate.bytes_per_view_change", "B"),
    row("query.batch_ms_floor", "ms"),
    row("query.batch_ms_p50", "ms"),
    row("query.batch_ms_p99", "ms"),
    row("query.flip_wait_ms_p50", "ms"),
    row("query.flip_polls_p50", "count"),
    row("query.sub_push_lag_ms_p50", "ms"),
    row("query.late_ms_p99", "ms"),
    row("ckpt.checkpoint_ms_p50", "ms"),
    row("ckpt.checkpoint_mb", "MiB"),
    row("core.metrics.scrape_ms_p50", "ms"),
    row("trace.overhead_pct", "%"),
    row("host.nproc", "count"),
    row("host.slowdown_p50", "ratio"),
    row("host.runq_wait_share", "ratio"),
];

/// Escape a string for a JSON string literal (the tables above are
/// ASCII without control characters; quotes and backslashes suffice).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
