//! Golden wire bytes. For fixed values, the payload (everything after
//! the kind byte) of every control frame, the METRICS and GET_METRICS
//! frames, and the Prometheus text of a metrics aggregate are pinned
//! here. A change that moves one of these bytes changes the protocol;
//! [`frames`] is the one place that says how each frame is built.

use elga_core::algorithms::Wcc;
use elga_core::cluster::Cluster;
use elga_core::metrics::{AgentMetrics, ClusterMetrics, CommsMetrics, PacketStat};
use elga_core::msg::{self, packet, AgentInfo, Counters, DirectoryView, Message, Phase};
use elga_hash::HashKind;
use elga_net::{Addr, Frame};
use elga_sketch::{CountMinSketch, SketchDelta};
use std::time::Duration;

fn counters(base: u64) -> Counters {
    Counters {
        vmsg_sent: base + 1,
        vmsg_recv: base + 2,
        part_sent: base + 3,
        part_recv: base + 4,
        state_sent: base + 5,
        state_recv: base + 6,
        mig_sent: base + 7,
        mig_recv: base + 8,
        chg_sent: base + 9,
        chg_recv: base + 10,
    }
}

fn view() -> DirectoryView {
    let mut sketch = CountMinSketch::new(4, 2);
    sketch.add(5, 3);
    DirectoryView {
        epoch: 42,
        batch_id: 7,
        n_vertices: 1000,
        agents: vec![
            AgentInfo {
                id: 1,
                addr: Addr::inproc("agent-1"),
            },
            AgentInfo {
                id: 9,
                addr: Addr::parse("tcp://127.0.0.1:7001").unwrap(),
            },
        ],
        sketch,
        hash: HashKind::Crc64,
        virtual_agents: 100,
        replication_threshold: 4096,
        max_replicas: 16,
    }
}

fn run_info() -> msg::RunInfo {
    msg::RunInfo {
        run_id: 3,
        tag: 1,
        params: [4, 5, 6],
        reuse_state: true,
        asynchronous: false,
        delta: true,
        dangling_base: 0.25,
        watermark: 41,
    }
}

/// The replies a live agent builds itself: DRAIN (before anything
/// happened) and DUMP after a WCC run over a path.
fn live_replies() -> [Frame; 2] {
    let mut cluster = Cluster::builder().agents(1).build();
    let agent = cluster.view().agents[0].addr.clone();
    let transport = cluster.transport();
    let ask = |frame: Frame| {
        transport
            .request(&agent, frame, Duration::from_secs(10))
            .expect("agent answers")
    };
    let drain = ask(Frame::signal(packet::DRAIN));
    cluster.ingest_edges([(1, 2), (2, 3)]);
    cluster.run(Wcc::new()).expect("run");
    let dump = ask(Frame::signal(packet::DUMP));
    cluster.shutdown();
    [drain, dump]
}

/// Every pinned control frame, by name.
fn frames() -> Vec<(&'static str, Frame)> {
    let [drain_reply, dump] = live_replies();
    let ready = msg::ReadyReport {
        agent: 5,
        run: 2,
        step: 9,
        phase: Phase::Apply,
        rows: vec![(4, counters(0))],
        active: 11,
        global_contrib: 0.125,
        n_primary: 12,
        seq: 13,
        epoch: 14,
        sent: vec![(1, 7), (3, 1 << 40)],
    };
    let advance = msg::Advance {
        run: 2,
        step: 9,
        phase: Phase::Combine,
        n_vertices: 100,
        global: 1.5,
        done: true,
        until: Phase::Apply,
        expect: vec![(2, 5), (9, 1)],
    };
    let status = msg::RunStatus {
        run_id: 9,
        running: true,
        done: false,
        steps: 4,
        step_nanos: vec![100, 200],
        n_vertices: 55,
    };
    let streamed = Counters {
        chg_sent: 12,
        ..Counters::default()
    };
    let drain = msg::DrainReport {
        agent: 0,
        epoch: 9,
        rows: vec![(0, streamed), (3, counters(20))],
    };
    let join = AgentInfo {
        id: 7,
        addr: Addr::inproc("agent-7"),
    }
    .encode();
    let answers = [
        msg::QueryAnswer {
            vertex: 3,
            state: 0.5f64.to_bits(),
            found: msg::ANSWER_HIT,
        },
        msg::QueryAnswer {
            vertex: 99,
            state: 0,
            found: msg::ANSWER_GONE,
        },
    ];
    let mut delta = SketchDelta::new(16, 2);
    delta.add(3, 9);
    delta.add(7, -2);
    vec![
        ("ready", ready.encode()),
        ("advance", advance.encode()),
        ("start", run_info().encode()),
        ("view", view().encode()),
        ("join", join),
        (
            "join reply, run",
            msg::JoinReply {
                view: view(),
                run: Some(run_info()),
            }
            .encode(),
        ),
        (
            "join reply, idle",
            msg::JoinReply {
                view: view(),
                run: None,
            }
            .encode(),
        ),
        ("run status reply", status.encode()),
        ("drain", drain.encode()),
        ("drain reply", drain_reply),
        (
            "ckpt save",
            msg::CkptSave {
                generation: 3,
                epoch: 9,
                watermark: 120_000,
            }
            .encode(),
        ),
        (
            "ckpt save reply",
            msg::CkptSaveReport {
                ok: true,
                bytes: 4096,
                nanos: 1_234_567,
            }
            .encode(),
        ),
        (
            "ckpt load",
            msg::CkptLoad {
                generation: 3,
                shards: vec![2, 5],
            }
            .encode(),
        ),
        (
            "ckpt load reply",
            msg::CkptLoadReport {
                ok: true,
                bytes: 4096,
            }
            .encode(),
        ),
        (
            "recover",
            msg::Recover {
                epoch: 8,
                dead_agent: 3,
                aborted_run: 2,
                view: view(),
            }
            .encode(),
        ),
        ("reset labels", msg::encode_reset_labels(&[1, 5, 1 << 40])),
        ("dump reply", dump),
        ("query batch", msg::encode_query_batch(&[3, 99])),
        (
            "query batch reply",
            msg::encode_query_batch_rep(7, 120_000, &answers),
        ),
        (
            "sub reg",
            msg::SubReg {
                addr: Addr::inproc("client-7"),
                sub: 42,
                vertices: vec![5, 6],
            }
            .encode(),
        ),
        ("sketch delta", msg::encode_sketch_delta(11, &delta)),
        ("batch", Frame::builder(packet::GET_VIEW).u64(42).finish()),
    ]
}

/// `(name, kind, payload in hex)`, in [`frames`] order.
const GOLDEN: &[(&str, u8, &str)] = &[
    (
        "ready",
        packet::READY,
        "0500000000000000020000000000000009000000020100000004000000000000\
         0001000000000000000200000000000000030000000000000004000000000000\
         0005000000000000000600000000000000070000000000000008000000000000\
         0009000000000000000a000000000000000b00000000000000000000000000c0\
         3f0c000000000000000d000000000000000e0000000000000002000000010000\
         0000000000070000000000000003000000000000000000000000010000",
    ),
    (
        "advance",
        packet::ADVANCE,
        "020000000000000009000000016400000000000000000000000000f83f010202\
         0000000200000000000000050000000000000009000000000000000100000000\
         000000",
    ),
    (
        "start",
        packet::START,
        "0300000000000000010400000000000000050000000000000006000000000000\
         00010001000000000000d03f2900000000000000",
    ),
    (
        "view",
        packet::VIEW,
        "2a000000000000000700000000000000e8030000000000000364000000001000\
         00000000001000000002000000010000000000000010000000696e70726f633a\
         2f2f6167656e742d310900000000000000140000007463703a2f2f3132372e30\
         2e302e313a373030310400000002000000030000000000000020000000000000\
         0003000000000000000000000000000000030000000000000000000000",
    ),
    (
        "join",
        packet::JOIN,
        "070000000000000010000000696e70726f633a2f2f6167656e742d37",
    ),
    (
        "join reply, run",
        packet::JOIN,
        "9e000000032a000000000000000700000000000000e803000000000000036400\
         000000100000000000001000000002000000010000000000000010000000696e\
         70726f633a2f2f6167656e742d310900000000000000140000007463703a2f2f\
         3132372e302e302e313a37303031040000000200000003000000000000002000\
         0000000000000300000000000000000000000000000003000000000000000000\
         0000010300000000000000010400000000000000050000000000000006000000\
         00000000010001000000000000d03f2900000000000000",
    ),
    (
        "join reply, idle",
        packet::JOIN,
        "9e000000032a000000000000000700000000000000e803000000000000036400\
         000000100000000000001000000002000000010000000000000010000000696e\
         70726f633a2f2f6167656e742d310900000000000000140000007463703a2f2f\
         3132372e302e302e313a37303031040000000200000003000000000000002000\
         0000000000000300000000000000000000000000000003000000000000000000\
         000000",
    ),
    (
        "run status reply",
        packet::RUN_STATUS,
        "0900000000000000010004000000370000000000000002000000640000000000\
         0000c800000000000000",
    ),
    (
        "drain",
        packet::DRAIN,
        "0000000000000000090000000000000002000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000c000000\
         0000000000000000000000000300000000000000150000000000000016000000\
         000000001700000000000000180000000000000019000000000000001a000000\
         000000001b000000000000001c000000000000001d000000000000001e000000\
         00000000",
    ),
    (
        "drain reply",
        packet::DRAIN,
        "0100000000000000020000000000000000000000",
    ),
    (
        "ckpt save",
        packet::CKPT_SAVE,
        "03000000000000000900000000000000c0d4010000000000",
    ),
    (
        "ckpt save reply",
        packet::CKPT_SAVE,
        "01001000000000000087d6120000000000",
    ),
    (
        "ckpt load",
        packet::CKPT_LOAD,
        "0300000000000000020000000200000000000000\
         0500000000000000",
    ),
    ("ckpt load reply", packet::CKPT_LOAD, "010010000000000000"),
    (
        "recover",
        packet::RECOVER,
        "0800000000000000030000000000000002000000000000009e000000032a0000\
         00000000000700000000000000e8030000000000000364000000001000000000\
         00001000000002000000010000000000000010000000696e70726f633a2f2f61\
         67656e742d310900000000000000140000007463703a2f2f3132372e302e302e\
         313a373030310400000002000000030000000000000020000000000000000300\
         0000000000000000000000000000030000000000000000000000",
    ),
    (
        "reset labels",
        packet::RESET_LABELS,
        "03000000010000000000000005000000000000000000000000010000",
    ),
    (
        "dump reply",
        packet::DUMP,
        "0300000001000000000000000100000000000000020000000000000001000000\
         0000000003000000000000000100000000000000",
    ),
    (
        "query batch",
        packet::QUERY_BATCH,
        "0200000003000000000000006300000000000000",
    ),
    (
        "query batch reply",
        packet::QUERY_BATCH,
        "0700000000000000c0d401000000000002000000030000000000000000000000\
         0000e03f016300000000000000000000000000000002",
    ),
    (
        "sub reg",
        packet::SUB_REG,
        "11000000696e70726f633a2f2f636c69656e742d372a00000000000000020000\
         0005000000000000000600000000000000",
    ),
    (
        "sketch delta",
        packet::SKETCH_DELTA,
        "0b000000000000000110000000020000000700000000000000200000000c000000\
         09000000180000000900000000000000feffffff14000000feffffff",
    ),
    ("batch", packet::GET_VIEW, "2a00000000000000"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A mismatch message that shows the bytes to paste.
fn check(name: &str, frame: &Frame, kind: u8, want: &str) -> Option<String> {
    let got = hex(frame.payload());
    (frame.packet_type() != kind || got != want).then(|| {
        format!(
            "{name}: kind {} (want {kind}), payload\n{got}\nwant\n{want}",
            frame.packet_type()
        )
    })
}

#[test]
fn control_frame_payloads_are_pinned() {
    let frames = frames();
    let names: Vec<&str> = frames.iter().map(|(name, _)| *name).collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(names, golden);
    let moved: Vec<String> = frames
        .iter()
        .zip(GOLDEN)
        .filter_map(|((name, frame), &(_, kind, want))| check(name, frame, kind, want))
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n\n"));
}

/// An agent report whose field *i*, nested ones flattened in wire
/// order, holds *i + 1*.
fn agent_metrics() -> AgentMetrics {
    AgentMetrics {
        agent: 1,
        queries: 2,
        changes: 3,
        vmsgs: 4,
        edges: 5,
        last_step_nanos: 6,
        retries_attempted: 7,
        owner_cache_hits: 8,
        owner_cache_misses: 9,
        scatter_nanos: 10,
        combine_nanos: 11,
        apply_nanos: 12,
        decode_nanos: 13,
        stale_frames: 14,
        ckpt_writes: 15,
        ckpt_write_nanos: 16,
        ckpt_bytes: 17,
        query_batches: 18,
        subscriptions: 19,
        sub_pushes: 20,
        kernel_visits: 21,
        comms: comms(21),
        store_bytes: 53,
        owner_cache_bytes: 54,
        memo_fills: 55,
        sweep_visits: 56,
        primaries: 57,
    }
}

/// Comms counters numbered from `base + 1` in wire order.
fn comms(base: u64) -> CommsMetrics {
    let stat = |i: u64| PacketStat {
        frames_sent: base + 4 * i + 1,
        bytes_sent: base + 4 * i + 2,
        frames_recv: base + 4 * i + 3,
        bytes_recv: base + 4 * i + 4,
    };
    CommsMetrics {
        vmsg: stat(0),
        partial: stat(1),
        state: stat(2),
        edge_changes: stat(3),
        deg_delta: stat(4),
        migration: stat(5),
        size_flushes: base + 25,
        count_flushes: base + 26,
        explicit_flushes: base + 27,
        switch_flushes: base + 28,
        backpressure_waits: base + 29,
        rx_pool_hits: base + 30,
        rx_pool_misses: base + 31,
    }
}

/// A cluster aggregate whose field *i* holds *i + 1* (`partial`, a
/// flag, is set).
fn cluster_metrics() -> ClusterMetrics {
    ClusterMetrics {
        agents: 1,
        queries: 2,
        changes: 3,
        vmsgs: 4,
        edges: 5,
        max_step_nanos: 6,
        retries_attempted: 7,
        messages_dropped: 8,
        agents_recovered: 9,
        agents_drained: 10,
        partial: true,
        owner_cache_hits: 12,
        owner_cache_misses: 13,
        scatter_nanos: 14,
        combine_nanos: 15,
        apply_nanos: 16,
        decode_nanos: 17,
        stale_frames: 18,
        ckpt_writes: 19,
        ckpt_write_nanos: 20,
        ckpt_bytes: 21,
        recoveries: 22,
        recovery_nanos: 23,
        ckpt_restores: 24,
        ckpt_restore_nanos: 25,
        ckpt_fallbacks: 26,
        replayed_records: 27,
        query_batches: 28,
        subscriptions: 29,
        sub_pushes: 30,
        kernel_visits: 31,
        comms: comms(31),
        store_bytes: 63,
        owner_cache_bytes: 64,
        memo_fills: 65,
        sweep_visits: 66,
        primaries: 67,
        quiesce_waves: 68,
    }
}

const METRICS: &str = "0100000000000000020000000000000003000000000000000400000000000000\
     0500000000000000060000000000000007000000000000000800000000000000\
     09000000000000000a000000000000000b000000000000000c00000000000000\
     0d000000000000000e000000000000000f000000000000001000000000000000\
     1100000000000000120000000000000013000000000000001400000000000000\
     1500000000000000160000000000000017000000000000001800000000000000\
     19000000000000001a000000000000001b000000000000001c00000000000000\
     1d000000000000001e000000000000001f000000000000002000000000000000\
     2100000000000000220000000000000023000000000000002400000000000000\
     2500000000000000260000000000000027000000000000002800000000000000\
     29000000000000002a000000000000002b000000000000002c00000000000000\
     2d000000000000002e000000000000002f000000000000003000000000000000\
     3100000000000000320000000000000033000000000000003400000000000000\
     3500000000000000360000000000000037000000000000003800000000000000\
     3900000000000000";

const GET_METRICS: &str = "0100000000000000020000000000000003000000000000000400000000000000\
     0500000000000000060000000000000007000000000000000800000000000000\
     09000000000000000a00000000000000010c000000000000000d000000000000\
     000e000000000000000f00000000000000100000000000000011000000000000\
     0012000000000000001300000000000000140000000000000015000000000000\
     0016000000000000001700000000000000180000000000000019000000000000\
     001a000000000000001b000000000000001c000000000000001d000000000000\
     001e000000000000001f00000000000000200000000000000021000000000000\
     0022000000000000002300000000000000240000000000000025000000000000\
     0026000000000000002700000000000000280000000000000029000000000000\
     002a000000000000002b000000000000002c000000000000002d000000000000\
     002e000000000000002f00000000000000300000000000000031000000000000\
     0032000000000000003300000000000000340000000000000035000000000000\
     0036000000000000003700000000000000380000000000000039000000000000\
     003a000000000000003b000000000000003c000000000000003d000000000000\
     003e000000000000003f0000000000000040000000000000004100000000000000\
     420000000000000043000000000000004400000000000000";

#[test]
fn metrics_frames_are_pinned() {
    let moved: Vec<String> = [
        (
            "metrics",
            agent_metrics().encode(),
            packet::METRICS,
            METRICS,
        ),
        (
            "get metrics",
            cluster_metrics().encode(),
            packet::GET_METRICS,
            GET_METRICS,
        ),
    ]
    .iter()
    .filter_map(|(name, frame, kind, want)| check(name, frame, *kind, want))
    .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n\n"));
}

/// The exposition text of [`cluster_metrics`], compared line by line
/// with the order ignored: every line names its metric, and the order
/// of metric families is not part of the format.
#[test]
fn prometheus_text_is_pinned() {
    let sorted = |text: &str| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    let got = cluster_metrics().to_prometheus();
    assert_eq!(sorted(&got), sorted(PROMETHEUS), "got\n{got}");
}

const PROMETHEUS: &str = r#"# HELP elga_agents Registered agents.
# TYPE elga_agents gauge
elga_agents 1
# HELP elga_agents_drained Agents drained into this aggregate.
# TYPE elga_agents_drained gauge
elga_agents_drained 10
# HELP elga_metrics_partial 1 when at least one live agent could not be drained.
# TYPE elga_metrics_partial gauge
elga_metrics_partial 1
# HELP elga_queries_total Client queries served.
# TYPE elga_queries_total counter
elga_queries_total 2
# HELP elga_query_batches_total Batched multi-vertex query frames served.
# TYPE elga_query_batches_total counter
elga_query_batches_total 28
# HELP elga_subscriptions Standing vertex subscriptions registered.
# TYPE elga_subscriptions gauge
elga_subscriptions 29
# HELP elga_sub_pushes_total Subscription value-delta records pushed.
# TYPE elga_sub_pushes_total counter
elga_sub_pushes_total 30
# HELP elga_changes_total Edge-change records applied.
# TYPE elga_changes_total counter
elga_changes_total 3
# HELP elga_vmsgs_total Vertex-message records delivered, after sender-side combining.
# TYPE elga_vmsgs_total counter
elga_vmsgs_total 4
# HELP elga_edges Out-placement edges held.
# TYPE elga_edges gauge
elga_edges 5
# HELP elga_max_step_nanos Slowest agent's last superstep (ns).
# TYPE elga_max_step_nanos gauge
elga_max_step_nanos 6
# HELP elga_retries_total Transient failures retried.
# TYPE elga_retries_total counter
elga_retries_total 7
# HELP elga_messages_dropped_total Frames dropped by an injected fault layer.
# TYPE elga_messages_dropped_total counter
elga_messages_dropped_total 8
# HELP elga_agents_recovered_total Agents evicted by failure detection.
# TYPE elga_agents_recovered_total counter
elga_agents_recovered_total 9
# HELP elga_owner_cache_hits_total Owner-cache hits.
# TYPE elga_owner_cache_hits_total counter
elga_owner_cache_hits_total 12
# HELP elga_owner_cache_misses_total Owner-cache misses.
# TYPE elga_owner_cache_misses_total counter
elga_owner_cache_misses_total 13
# HELP elga_scatter_nanos_total Scatter-kernel wall time (ns).
# TYPE elga_scatter_nanos_total counter
elga_scatter_nanos_total 14
# HELP elga_combine_nanos_total Combine-kernel wall time (ns).
# TYPE elga_combine_nanos_total counter
elga_combine_nanos_total 15
# HELP elga_apply_nanos_total Apply-kernel wall time (ns).
# TYPE elga_apply_nanos_total counter
elga_apply_nanos_total 16
# HELP elga_kernel_visits_total Vertex entries visited by superstep kernels and summaries.
# TYPE elga_kernel_visits_total counter
elga_kernel_visits_total 31
# HELP elga_decode_nanos_total Data-plane receive-handler wall time (ns).
# TYPE elga_decode_nanos_total counter
elga_decode_nanos_total 17
# HELP elga_stale_frames_total Stale-run data-plane frames dropped.
# TYPE elga_stale_frames_total counter
elga_stale_frames_total 18
# HELP elga_ckpt_writes_total Checkpoint shards durably written.
# TYPE elga_ckpt_writes_total counter
elga_ckpt_writes_total 19
# HELP elga_ckpt_write_nanos_total Wall time writing checkpoint shards (ns).
# TYPE elga_ckpt_write_nanos_total counter
elga_ckpt_write_nanos_total 20
# HELP elga_ckpt_bytes_total Checkpoint payload bytes written.
# TYPE elga_ckpt_bytes_total counter
elga_ckpt_bytes_total 21
# HELP elga_recoveries_total End-to-end recoveries completed.
# TYPE elga_recoveries_total counter
elga_recoveries_total 22
# HELP elga_recovery_nanos_total End-to-end recovery wall time (ns).
# TYPE elga_recovery_nanos_total counter
elga_recovery_nanos_total 23
# HELP elga_ckpt_restores_total Recoveries restored from a checkpoint.
# TYPE elga_ckpt_restores_total counter
elga_ckpt_restores_total 24
# HELP elga_ckpt_restore_nanos_total Wall time restoring checkpoint shards (ns).
# TYPE elga_ckpt_restore_nanos_total counter
elga_ckpt_restore_nanos_total 25
# HELP elga_ckpt_fallbacks_total Damaged checkpoint generations skipped.
# TYPE elga_ckpt_fallbacks_total counter
elga_ckpt_fallbacks_total 26
# HELP elga_replayed_records_total Change records replayed during recovery.
# TYPE elga_replayed_records_total counter
elga_replayed_records_total 27
# HELP elga_coalesce_size_flushes_total Coalescer flushes at the byte threshold.
# TYPE elga_coalesce_size_flushes_total counter
elga_coalesce_size_flushes_total 56
# HELP elga_coalesce_count_flushes_total Coalescer flushes at the record threshold.
# TYPE elga_coalesce_count_flushes_total counter
elga_coalesce_count_flushes_total 57
# HELP elga_coalesce_explicit_flushes_total Explicit phase-end coalescer flushes.
# TYPE elga_coalesce_explicit_flushes_total counter
elga_coalesce_explicit_flushes_total 58
# HELP elga_coalesce_switch_flushes_total Coalescer flushes forced by a type/header switch.
# TYPE elga_coalesce_switch_flushes_total counter
elga_coalesce_switch_flushes_total 59
# HELP elga_backpressure_waits_total Sends that waited on in-flight credit.
# TYPE elga_backpressure_waits_total counter
elga_backpressure_waits_total 60
# HELP elga_rx_pool_hits_total Receives served from an existing pooled batch buffer.
# TYPE elga_rx_pool_hits_total counter
elga_rx_pool_hits_total 61
# HELP elga_rx_pool_misses_total Receives that allocated a fresh batch buffer.
# TYPE elga_rx_pool_misses_total counter
elga_rx_pool_misses_total 62
elga_frames_sent_total{type="vmsg"} 32
elga_bytes_sent_total{type="vmsg"} 33
elga_frames_sent_total{type="partial"} 36
elga_bytes_sent_total{type="partial"} 37
elga_frames_sent_total{type="state"} 40
elga_bytes_sent_total{type="state"} 41
elga_frames_sent_total{type="edge_changes"} 44
elga_bytes_sent_total{type="edge_changes"} 45
elga_frames_sent_total{type="deg_delta"} 48
elga_bytes_sent_total{type="deg_delta"} 49
elga_frames_sent_total{type="migration"} 52
elga_bytes_sent_total{type="migration"} 53
# HELP elga_store_bytes Vertex store heap bytes: map capacity, adjacency lists and their indexes.
# TYPE elga_store_bytes gauge
elga_store_bytes 63
# HELP elga_owner_cache_bytes Owner-memo heap bytes: map capacity and split placements.
# TYPE elga_owner_cache_bytes gauge
elga_owner_cache_bytes 64
# HELP elga_memo_fills_total Edge-memo slots scatter filled through the owner cache, on the sides it fired.
# TYPE elga_memo_fills_total counter
elga_memo_fills_total 65
# HELP elga_sweep_visits_total Vertex entries whose placement a view change's sweep decided.
# TYPE elga_sweep_visits_total counter
elga_sweep_visits_total 66
# HELP elga_primaries Primary vertices: the meta entries each agent's ring places on it.
# TYPE elga_primaries gauge
elga_primaries 67
# HELP elga_quiesce_waves_total DRAIN fan-outs the lead sent to answer quiesce calls, one or more each.
# TYPE elga_quiesce_waves_total counter
elga_quiesce_waves_total 68
"#;
