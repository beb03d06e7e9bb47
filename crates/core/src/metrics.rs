//! Metric collection for elastic autoscaling (paper §3.4.3: "ElGA
//! comes with an API for metric collection and autoscalers. ... We
//! implemented Agent metrics for graph change rates, client query
//! rates, and superstep times. Metrics are passed to Directories.")

use crate::msg::packet;
use elga_hash::AgentId;
use elga_net::{CoalesceStats, Frame, FrameReader, NetStats};

/// Frames/bytes sent and received for one packet type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketStat {
    /// Frames sent.
    pub frames_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Frames received.
    pub frames_recv: u64,
    /// Bytes received.
    pub bytes_recv: u64,
}

impl PacketStat {
    fn absorb(&mut self, o: &PacketStat) {
        self.frames_sent += o.frames_sent;
        self.bytes_sent += o.bytes_sent;
        self.frames_recv += o.frames_recv;
        self.bytes_recv += o.bytes_recv;
    }

    fn from_net(net: &NetStats, ty: u8) -> PacketStat {
        let (frames_sent, bytes_sent) = net.sent(ty);
        let (frames_recv, bytes_recv) = net.received(ty);
        PacketStat {
            frames_sent,
            bytes_sent,
            frames_recv,
            bytes_recv,
        }
    }

    fn encode_into(&self, b: elga_net::frame::FrameBuilder) -> elga_net::frame::FrameBuilder {
        b.u64(self.frames_sent)
            .u64(self.bytes_sent)
            .u64(self.frames_recv)
            .u64(self.bytes_recv)
    }

    fn decode(r: &mut FrameReader<'_>) -> Option<PacketStat> {
        Some(PacketStat {
            frames_sent: r.u64()?,
            bytes_sent: r.u64()?,
            frames_recv: r.u64()?,
            bytes_recv: r.u64()?,
        })
    }
}

/// Comms-plane observability: data-plane traffic broken down by packet
/// type, plus the coalescer's flush-reason counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommsMetrics {
    /// Scatter vertex messages (VMSG).
    pub vmsg: PacketStat,
    /// Partial aggregates (PARTIAL).
    pub partial: PacketStat,
    /// State broadcasts (STATE).
    pub state: PacketStat,
    /// Edge changes (EDGE_CHANGES).
    pub edge_changes: PacketStat,
    /// Degree deltas (DEG_DELTA).
    pub deg_delta: PacketStat,
    /// Migration traffic (MIG_STATE + MIG_EDGES + MIG_META combined).
    pub migration: PacketStat,
    /// Coalescer flushes triggered by the byte threshold.
    pub size_flushes: u64,
    /// Coalescer flushes triggered by the record-count threshold.
    pub count_flushes: u64,
    /// Explicit phase-end flushes.
    pub explicit_flushes: u64,
    /// Flushes forced by a packet-type or header switch.
    pub switch_flushes: u64,
    /// Times a sender waited on in-flight credit (backpressure).
    pub backpressure_waits: u64,
    /// Wire messages served out of an existing RX batch allocation
    /// (zero-copy receive pool hits).
    pub rx_pool_hits: u64,
    /// RX batch allocations (one per bulk read that promoted bytes to
    /// a fresh shared batch).
    pub rx_pool_misses: u64,
}

impl CommsMetrics {
    /// Snapshot the data-plane packet types out of an agent-local
    /// [`NetStats`] and merge in its aggregated coalescer counters.
    pub fn snapshot(net: &NetStats, coalesce: &CoalesceStats) -> CommsMetrics {
        let mut migration = PacketStat::from_net(net, packet::MIG_STATE);
        migration.absorb(&PacketStat::from_net(net, packet::MIG_EDGES));
        migration.absorb(&PacketStat::from_net(net, packet::MIG_META));
        let (rx_pool_hits, rx_pool_misses) = net.rx_pool();
        CommsMetrics {
            vmsg: PacketStat::from_net(net, packet::VMSG),
            partial: PacketStat::from_net(net, packet::PARTIAL),
            state: PacketStat::from_net(net, packet::STATE),
            edge_changes: PacketStat::from_net(net, packet::EDGE_CHANGES),
            deg_delta: PacketStat::from_net(net, packet::DEG_DELTA),
            migration,
            size_flushes: coalesce.size_flushes,
            count_flushes: coalesce.count_flushes,
            explicit_flushes: coalesce.explicit_flushes,
            switch_flushes: coalesce.switch_flushes,
            backpressure_waits: coalesce.backpressure_waits,
            rx_pool_hits,
            rx_pool_misses,
        }
    }

    /// Fraction of wire messages served from an existing RX batch
    /// allocation; 0 before any traffic.
    pub fn rx_pool_hit_rate(&self) -> f64 {
        let total = self.rx_pool_hits + self.rx_pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.rx_pool_hits as f64 / total as f64
    }

    /// Element-wise sum (cluster aggregation).
    pub fn absorb(&mut self, o: &CommsMetrics) {
        self.vmsg.absorb(&o.vmsg);
        self.partial.absorb(&o.partial);
        self.state.absorb(&o.state);
        self.edge_changes.absorb(&o.edge_changes);
        self.deg_delta.absorb(&o.deg_delta);
        self.migration.absorb(&o.migration);
        self.size_flushes += o.size_flushes;
        self.count_flushes += o.count_flushes;
        self.explicit_flushes += o.explicit_flushes;
        self.switch_flushes += o.switch_flushes;
        self.backpressure_waits += o.backpressure_waits;
        self.rx_pool_hits += o.rx_pool_hits;
        self.rx_pool_misses += o.rx_pool_misses;
    }

    /// Total data-plane frames sent across all packet types.
    pub fn frames_sent(&self) -> u64 {
        [
            &self.vmsg,
            &self.partial,
            &self.state,
            &self.edge_changes,
            &self.deg_delta,
            &self.migration,
        ]
        .iter()
        .map(|p| p.frames_sent)
        .sum()
    }

    /// Total data-plane bytes sent across all packet types.
    pub fn bytes_sent(&self) -> u64 {
        [
            &self.vmsg,
            &self.partial,
            &self.state,
            &self.edge_changes,
            &self.deg_delta,
            &self.migration,
        ]
        .iter()
        .map(|p| p.bytes_sent)
        .sum()
    }

    fn encode_into(&self, b: elga_net::frame::FrameBuilder) -> elga_net::frame::FrameBuilder {
        let b = self.vmsg.encode_into(b);
        let b = self.partial.encode_into(b);
        let b = self.state.encode_into(b);
        let b = self.edge_changes.encode_into(b);
        let b = self.deg_delta.encode_into(b);
        let b = self.migration.encode_into(b);
        b.u64(self.size_flushes)
            .u64(self.count_flushes)
            .u64(self.explicit_flushes)
            .u64(self.switch_flushes)
            .u64(self.backpressure_waits)
            .u64(self.rx_pool_hits)
            .u64(self.rx_pool_misses)
    }

    fn decode(r: &mut FrameReader<'_>) -> Option<CommsMetrics> {
        Some(CommsMetrics {
            vmsg: PacketStat::decode(r)?,
            partial: PacketStat::decode(r)?,
            state: PacketStat::decode(r)?,
            edge_changes: PacketStat::decode(r)?,
            deg_delta: PacketStat::decode(r)?,
            migration: PacketStat::decode(r)?,
            size_flushes: r.u64()?,
            count_flushes: r.u64()?,
            explicit_flushes: r.u64()?,
            switch_flushes: r.u64()?,
            backpressure_waits: r.u64()?,
            rx_pool_hits: r.u64()?,
            rx_pool_misses: r.u64()?,
        })
    }
}

/// Cumulative per-agent activity counters, pushed to the agent's
/// directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentMetrics {
    /// Reporting agent.
    pub agent: AgentId,
    /// Client queries served.
    pub queries: u64,
    /// Edge-change records applied.
    pub changes: u64,
    /// Vertex-message records delivered — folded at their target's
    /// aggregation replica, own or received — after sender-side
    /// combining: one per `(target, destination)` row a scatter
    /// touched, not one per edge. What `vmsg_sent` / `vmsg_recv` count,
    /// plus the records an agent folds in place.
    pub vmsgs: u64,
    /// Out-placement edges currently held.
    pub edges: u64,
    /// Nanoseconds spent in the last superstep's local work.
    pub last_step_nanos: u64,
    /// Transient send/request failures that were retried successfully
    /// (chaos observability).
    pub retries_attempted: u64,
    /// Owner-cache lookups served from the per-epoch memo (summed over
    /// the agent's routing and worker caches).
    pub owner_cache_hits: u64,
    /// Owner placements resolved from scratch (cache misses).
    pub owner_cache_misses: u64,
    /// Cumulative wall time in the scatter kernel.
    pub scatter_nanos: u64,
    /// Cumulative wall time in the combine kernel.
    pub combine_nanos: u64,
    /// Cumulative wall time in the apply kernel.
    pub apply_nanos: u64,
    /// Cumulative wall time in data-plane receive handlers (VMSG /
    /// PARTIAL / STATE / EDGE_CHANGES / DEG_DELTA). With borrowed
    /// decoders, parsing happens in place as records are consumed, so
    /// this clock covers decode + consume together.
    pub decode_nanos: u64,
    /// Data-plane frames for a finished or aborted run that arrived
    /// after the agent moved on (dropped, not applied — see the
    /// stale-run arms in the agent's frame dispatch).
    pub stale_frames: u64,
    /// Checkpoint shards durably written (CKPT_SAVE successes).
    pub ckpt_writes: u64,
    /// Cumulative wall time serializing and writing checkpoint shards.
    pub ckpt_write_nanos: u64,
    /// Cumulative checkpoint payload bytes written.
    pub ckpt_bytes: u64,
    /// QUERY_BATCH frames served (their per-vertex answers also count
    /// into `queries`).
    pub query_batches: u64,
    /// Standing subscriptions currently registered.
    pub subscriptions: u64,
    /// Subscription value-delta records pushed after completed runs.
    pub sub_pushes: u64,
    /// Vertex entries visited by the scatter/apply kernels and the
    /// primary-summary sweeps: the superstep "work" signal. A sweep
    /// adds the store size, a list-driven kernel its worklist length,
    /// so a delta run's growth is proportional to its frontier.
    pub kernel_visits: u64,
    /// Comms-plane traffic and coalescer flush counters.
    pub comms: CommsMetrics,
}

impl AgentMetrics {
    /// Encode as a METRICS frame.
    pub fn encode(&self) -> Frame {
        let b = Frame::builder(packet::METRICS)
            .u64(self.agent)
            .u64(self.queries)
            .u64(self.changes)
            .u64(self.vmsgs)
            .u64(self.edges)
            .u64(self.last_step_nanos)
            .u64(self.retries_attempted)
            .u64(self.owner_cache_hits)
            .u64(self.owner_cache_misses)
            .u64(self.scatter_nanos)
            .u64(self.combine_nanos)
            .u64(self.apply_nanos)
            .u64(self.decode_nanos)
            .u64(self.stale_frames)
            .u64(self.ckpt_writes)
            .u64(self.ckpt_write_nanos)
            .u64(self.ckpt_bytes)
            .u64(self.query_batches)
            .u64(self.subscriptions)
            .u64(self.sub_pushes)
            .u64(self.kernel_visits);
        self.comms.encode_into(b).finish()
    }

    /// Decode a METRICS frame.
    pub fn decode(frame: &Frame) -> Option<AgentMetrics> {
        if frame.packet_type() != packet::METRICS {
            return None;
        }
        let mut r = frame.reader();
        Some(AgentMetrics {
            agent: r.u64()?,
            queries: r.u64()?,
            changes: r.u64()?,
            vmsgs: r.u64()?,
            edges: r.u64()?,
            last_step_nanos: r.u64()?,
            retries_attempted: r.u64()?,
            owner_cache_hits: r.u64()?,
            owner_cache_misses: r.u64()?,
            scatter_nanos: r.u64()?,
            combine_nanos: r.u64()?,
            apply_nanos: r.u64()?,
            decode_nanos: r.u64()?,
            stale_frames: r.u64()?,
            ckpt_writes: r.u64()?,
            ckpt_write_nanos: r.u64()?,
            ckpt_bytes: r.u64()?,
            query_batches: r.u64()?,
            subscriptions: r.u64()?,
            sub_pushes: r.u64()?,
            kernel_visits: r.u64()?,
            comms: CommsMetrics::decode(&mut r)?,
        })
    }
}

/// Aggregated view over all agents, returned by the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Number of registered agents.
    pub agents: u64,
    /// Total queries served (cumulative).
    pub queries: u64,
    /// Total edge-change records applied (cumulative).
    pub changes: u64,
    /// Total vertex-message records delivered, after sender-side
    /// combining (cumulative).
    pub vmsgs: u64,
    /// Total out-placement edges held.
    pub edges: u64,
    /// Max of agents' last superstep nanos (the straggler).
    pub max_step_nanos: u64,
    /// Total transient failures retried across agents and the driver.
    pub retries_attempted: u64,
    /// Frames dropped by an injected fault layer (0 outside chaos
    /// runs; merged in by the driver, which owns the fault handle).
    pub messages_dropped: u64,
    /// Agents declared dead and evicted by failure detection.
    pub agents_recovered: u64,
    /// Agents whose counters were successfully drained into this
    /// aggregate (set by the driver's collection pass).
    pub agents_drained: u64,
    /// `true` when at least one live agent could not be drained (even
    /// after a retry against the refreshed view), so the cumulative
    /// totals undercount that agent's most recent activity.
    pub partial: bool,
    /// Total owner-cache hits across agents.
    pub owner_cache_hits: u64,
    /// Total owner-cache misses across agents.
    pub owner_cache_misses: u64,
    /// Total scatter-kernel wall time across agents.
    pub scatter_nanos: u64,
    /// Total combine-kernel wall time across agents.
    pub combine_nanos: u64,
    /// Total apply-kernel wall time across agents.
    pub apply_nanos: u64,
    /// Total data-plane receive-handler wall time across agents
    /// (decode + consume; see [`AgentMetrics::decode_nanos`]).
    pub decode_nanos: u64,
    /// Total stale-run data-plane frames dropped across agents (frames
    /// for an already-finished or aborted run).
    pub stale_frames: u64,
    /// Total checkpoint shards durably written across agents.
    pub ckpt_writes: u64,
    /// Total wall time serializing and writing checkpoint shards.
    pub ckpt_write_nanos: u64,
    /// Total checkpoint payload bytes written across agents.
    pub ckpt_bytes: u64,
    /// Recoveries completed end-to-end (driver-merged: the driver
    /// orchestrates recovery, so the directory aggregate cannot know).
    pub recoveries: u64,
    /// Total end-to-end recovery wall time (driver-merged).
    pub recovery_nanos: u64,
    /// Recoveries restored from a checkpoint generation (driver-merged).
    pub ckpt_restores: u64,
    /// Wall time reading + re-injecting checkpoint shards
    /// (driver-merged).
    pub ckpt_restore_nanos: u64,
    /// Damaged committed generations skipped by recovery's fallback
    /// ladder (driver-merged).
    pub ckpt_fallbacks: u64,
    /// Change records replayed from the retained log during recovery
    /// (driver-merged).
    pub replayed_records: u64,
    /// Total QUERY_BATCH frames served across agents.
    pub query_batches: u64,
    /// Standing subscriptions registered across agents.
    pub subscriptions: u64,
    /// Subscription value-delta records pushed across agents.
    pub sub_pushes: u64,
    /// Total vertex entries visited by superstep kernels and summary
    /// sweeps across agents (see [`AgentMetrics::kernel_visits`]).
    pub kernel_visits: u64,
    /// Summed comms-plane traffic and coalescer counters.
    pub comms: CommsMetrics,
}

impl ClusterMetrics {
    /// Fold one agent report into the aggregate.
    pub fn absorb(&mut self, m: &AgentMetrics) {
        self.queries += m.queries;
        self.changes += m.changes;
        self.vmsgs += m.vmsgs;
        self.edges += m.edges;
        self.max_step_nanos = self.max_step_nanos.max(m.last_step_nanos);
        self.retries_attempted += m.retries_attempted;
        self.owner_cache_hits += m.owner_cache_hits;
        self.owner_cache_misses += m.owner_cache_misses;
        self.scatter_nanos += m.scatter_nanos;
        self.combine_nanos += m.combine_nanos;
        self.apply_nanos += m.apply_nanos;
        self.decode_nanos += m.decode_nanos;
        self.stale_frames += m.stale_frames;
        self.ckpt_writes += m.ckpt_writes;
        self.ckpt_write_nanos += m.ckpt_write_nanos;
        self.ckpt_bytes += m.ckpt_bytes;
        self.query_batches += m.query_batches;
        self.subscriptions += m.subscriptions;
        self.sub_pushes += m.sub_pushes;
        self.kernel_visits += m.kernel_visits;
        self.comms.absorb(&m.comms);
    }

    /// Fold in the final report of an agent that left the cluster or
    /// was evicted: its counters stay in the cumulative totals, its
    /// gauges (`edges`, `subscriptions`, `last_step_nanos`) left with
    /// it.
    pub fn absorb_departed(&mut self, m: &AgentMetrics) {
        self.absorb(&AgentMetrics {
            edges: 0,
            subscriptions: 0,
            last_step_nanos: 0,
            ..*m
        });
    }

    /// Fraction of owner lookups served from cache, in `[0, 1]`; 0 when
    /// no lookups happened.
    pub fn owner_cache_hit_rate(&self) -> f64 {
        let total = self.owner_cache_hits + self.owner_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.owner_cache_hits as f64 / total as f64
        }
    }

    /// Encode as a GET_METRICS reply.
    pub fn encode(&self) -> Frame {
        let b = Frame::builder(packet::GET_METRICS)
            .u64(self.agents)
            .u64(self.queries)
            .u64(self.changes)
            .u64(self.vmsgs)
            .u64(self.edges)
            .u64(self.max_step_nanos)
            .u64(self.retries_attempted)
            .u64(self.messages_dropped)
            .u64(self.agents_recovered)
            .u64(self.agents_drained)
            .u8(self.partial as u8)
            .u64(self.owner_cache_hits)
            .u64(self.owner_cache_misses)
            .u64(self.scatter_nanos)
            .u64(self.combine_nanos)
            .u64(self.apply_nanos)
            .u64(self.decode_nanos)
            .u64(self.stale_frames)
            .u64(self.ckpt_writes)
            .u64(self.ckpt_write_nanos)
            .u64(self.ckpt_bytes)
            .u64(self.recoveries)
            .u64(self.recovery_nanos)
            .u64(self.ckpt_restores)
            .u64(self.ckpt_restore_nanos)
            .u64(self.ckpt_fallbacks)
            .u64(self.replayed_records)
            .u64(self.query_batches)
            .u64(self.subscriptions)
            .u64(self.sub_pushes)
            .u64(self.kernel_visits);
        self.comms.encode_into(b).finish()
    }

    /// Render as Prometheus text exposition format (one gauge/counter
    /// per field, `elga_` prefix), suitable for a textfile collector
    /// or a debug endpoint.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut metric = |name: &str, kind: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP elga_{name} {help}\n# TYPE elga_{name} {kind}\nelga_{name} {value}\n"
            ));
        };
        metric("agents", "gauge", "Registered agents.", self.agents);
        metric(
            "agents_drained",
            "gauge",
            "Agents drained into this aggregate.",
            self.agents_drained,
        );
        metric(
            "metrics_partial",
            "gauge",
            "1 when at least one live agent could not be drained.",
            self.partial as u64,
        );
        metric(
            "queries_total",
            "counter",
            "Client queries served.",
            self.queries,
        );
        metric(
            "query_batches_total",
            "counter",
            "Batched multi-vertex query frames served.",
            self.query_batches,
        );
        metric(
            "subscriptions",
            "gauge",
            "Standing vertex subscriptions registered.",
            self.subscriptions,
        );
        metric(
            "sub_pushes_total",
            "counter",
            "Subscription value-delta records pushed.",
            self.sub_pushes,
        );
        metric(
            "changes_total",
            "counter",
            "Edge-change records applied.",
            self.changes,
        );
        metric(
            "vmsgs_total",
            "counter",
            "Vertex-message records delivered, after sender-side combining.",
            self.vmsgs,
        );
        metric("edges", "gauge", "Out-placement edges held.", self.edges);
        metric(
            "max_step_nanos",
            "gauge",
            "Slowest agent's last superstep (ns).",
            self.max_step_nanos,
        );
        metric(
            "retries_total",
            "counter",
            "Transient failures retried.",
            self.retries_attempted,
        );
        metric(
            "messages_dropped_total",
            "counter",
            "Frames dropped by an injected fault layer.",
            self.messages_dropped,
        );
        metric(
            "agents_recovered_total",
            "counter",
            "Agents evicted by failure detection.",
            self.agents_recovered,
        );
        metric(
            "owner_cache_hits_total",
            "counter",
            "Owner-cache hits.",
            self.owner_cache_hits,
        );
        metric(
            "owner_cache_misses_total",
            "counter",
            "Owner-cache misses.",
            self.owner_cache_misses,
        );
        metric(
            "scatter_nanos_total",
            "counter",
            "Scatter-kernel wall time (ns).",
            self.scatter_nanos,
        );
        metric(
            "combine_nanos_total",
            "counter",
            "Combine-kernel wall time (ns).",
            self.combine_nanos,
        );
        metric(
            "apply_nanos_total",
            "counter",
            "Apply-kernel wall time (ns).",
            self.apply_nanos,
        );
        metric(
            "kernel_visits_total",
            "counter",
            "Vertex entries visited by superstep kernels and summaries.",
            self.kernel_visits,
        );
        metric(
            "decode_nanos_total",
            "counter",
            "Data-plane receive-handler wall time (ns).",
            self.decode_nanos,
        );
        metric(
            "stale_frames_total",
            "counter",
            "Stale-run data-plane frames dropped.",
            self.stale_frames,
        );
        metric(
            "ckpt_writes_total",
            "counter",
            "Checkpoint shards durably written.",
            self.ckpt_writes,
        );
        metric(
            "ckpt_write_nanos_total",
            "counter",
            "Wall time writing checkpoint shards (ns).",
            self.ckpt_write_nanos,
        );
        metric(
            "ckpt_bytes_total",
            "counter",
            "Checkpoint payload bytes written.",
            self.ckpt_bytes,
        );
        metric(
            "recoveries_total",
            "counter",
            "End-to-end recoveries completed.",
            self.recoveries,
        );
        metric(
            "recovery_nanos_total",
            "counter",
            "End-to-end recovery wall time (ns).",
            self.recovery_nanos,
        );
        metric(
            "ckpt_restores_total",
            "counter",
            "Recoveries restored from a checkpoint.",
            self.ckpt_restores,
        );
        metric(
            "ckpt_restore_nanos_total",
            "counter",
            "Wall time restoring checkpoint shards (ns).",
            self.ckpt_restore_nanos,
        );
        metric(
            "ckpt_fallbacks_total",
            "counter",
            "Damaged checkpoint generations skipped.",
            self.ckpt_fallbacks,
        );
        metric(
            "replayed_records_total",
            "counter",
            "Change records replayed during recovery.",
            self.replayed_records,
        );
        metric(
            "coalesce_size_flushes_total",
            "counter",
            "Coalescer flushes at the byte threshold.",
            self.comms.size_flushes,
        );
        metric(
            "coalesce_count_flushes_total",
            "counter",
            "Coalescer flushes at the record threshold.",
            self.comms.count_flushes,
        );
        metric(
            "coalesce_explicit_flushes_total",
            "counter",
            "Explicit phase-end coalescer flushes.",
            self.comms.explicit_flushes,
        );
        metric(
            "coalesce_switch_flushes_total",
            "counter",
            "Coalescer flushes forced by a type/header switch.",
            self.comms.switch_flushes,
        );
        metric(
            "backpressure_waits_total",
            "counter",
            "Sends that waited on in-flight credit.",
            self.comms.backpressure_waits,
        );
        metric(
            "rx_pool_hits_total",
            "counter",
            "Receives served from an existing pooled batch buffer.",
            self.comms.rx_pool_hits,
        );
        metric(
            "rx_pool_misses_total",
            "counter",
            "Receives that allocated a fresh batch buffer.",
            self.comms.rx_pool_misses,
        );
        for (name, stat) in [
            ("vmsg", &self.comms.vmsg),
            ("partial", &self.comms.partial),
            ("state", &self.comms.state),
            ("edge_changes", &self.comms.edge_changes),
            ("deg_delta", &self.comms.deg_delta),
            ("migration", &self.comms.migration),
        ] {
            out.push_str(&format!(
                "elga_frames_sent_total{{type=\"{name}\"}} {}\n",
                stat.frames_sent
            ));
            out.push_str(&format!(
                "elga_bytes_sent_total{{type=\"{name}\"}} {}\n",
                stat.bytes_sent
            ));
        }
        out
    }

    /// Decode a GET_METRICS reply.
    pub fn decode(frame: &Frame) -> Option<ClusterMetrics> {
        if frame.packet_type() != packet::GET_METRICS {
            return None;
        }
        let mut r: FrameReader<'_> = frame.reader();
        Some(ClusterMetrics {
            agents: r.u64()?,
            queries: r.u64()?,
            changes: r.u64()?,
            vmsgs: r.u64()?,
            edges: r.u64()?,
            max_step_nanos: r.u64()?,
            retries_attempted: r.u64()?,
            messages_dropped: r.u64()?,
            agents_recovered: r.u64()?,
            agents_drained: r.u64()?,
            partial: r.u8()? != 0,
            owner_cache_hits: r.u64()?,
            owner_cache_misses: r.u64()?,
            scatter_nanos: r.u64()?,
            combine_nanos: r.u64()?,
            apply_nanos: r.u64()?,
            decode_nanos: r.u64()?,
            stale_frames: r.u64()?,
            ckpt_writes: r.u64()?,
            ckpt_write_nanos: r.u64()?,
            ckpt_bytes: r.u64()?,
            recoveries: r.u64()?,
            recovery_nanos: r.u64()?,
            ckpt_restores: r.u64()?,
            ckpt_restore_nanos: r.u64()?,
            ckpt_fallbacks: r.u64()?,
            replayed_records: r.u64()?,
            query_batches: r.u64()?,
            subscriptions: r.u64()?,
            sub_pushes: r.u64()?,
            kernel_visits: r.u64()?,
            comms: CommsMetrics::decode(&mut r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_metrics_roundtrip() {
        let m = AgentMetrics {
            agent: 3,
            queries: 10,
            changes: 20,
            vmsgs: 30,
            edges: 40,
            last_step_nanos: 50,
            retries_attempted: 60,
            owner_cache_hits: 70,
            owner_cache_misses: 80,
            scatter_nanos: 90,
            combine_nanos: 100,
            apply_nanos: 110,
            decode_nanos: 115,
            stale_frames: 120,
            ckpt_writes: 130,
            ckpt_write_nanos: 140,
            ckpt_bytes: 150,
            query_batches: 160,
            subscriptions: 170,
            sub_pushes: 180,
            kernel_visits: 190,
            comms: CommsMetrics {
                vmsg: PacketStat {
                    frames_sent: 1,
                    bytes_sent: 2,
                    frames_recv: 3,
                    bytes_recv: 4,
                },
                size_flushes: 5,
                backpressure_waits: 6,
                ..Default::default()
            },
        };
        assert_eq!(AgentMetrics::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn cluster_metrics_absorb_and_roundtrip() {
        let mut c = ClusterMetrics {
            agents: 2,
            ..Default::default()
        };
        c.absorb(&AgentMetrics {
            agent: 1,
            queries: 5,
            changes: 1,
            vmsgs: 2,
            edges: 3,
            last_step_nanos: 100,
            retries_attempted: 2,
            owner_cache_hits: 30,
            owner_cache_misses: 10,
            scatter_nanos: 7,
            combine_nanos: 8,
            apply_nanos: 9,
            decode_nanos: 11,
            stale_frames: 2,
            ckpt_writes: 1,
            ckpt_write_nanos: 10,
            ckpt_bytes: 100,
            query_batches: 2,
            subscriptions: 1,
            sub_pushes: 4,
            kernel_visits: 50,
            comms: CommsMetrics {
                count_flushes: 4,
                ..Default::default()
            },
        });
        c.absorb(&AgentMetrics {
            agent: 2,
            queries: 7,
            changes: 0,
            vmsgs: 1,
            edges: 4,
            last_step_nanos: 60,
            retries_attempted: 1,
            owner_cache_hits: 30,
            owner_cache_misses: 10,
            scatter_nanos: 1,
            combine_nanos: 2,
            apply_nanos: 3,
            decode_nanos: 4,
            stale_frames: 1,
            ckpt_writes: 2,
            ckpt_write_nanos: 20,
            ckpt_bytes: 200,
            query_batches: 3,
            subscriptions: 2,
            sub_pushes: 6,
            kernel_visits: 25,
            comms: CommsMetrics {
                count_flushes: 5,
                ..Default::default()
            },
        });
        c.messages_dropped = 9;
        c.agents_recovered = 1;
        c.agents_drained = 2;
        c.partial = true;
        assert_eq!(c.queries, 12);
        assert_eq!(c.edges, 7);
        assert_eq!(c.max_step_nanos, 100);
        assert_eq!(c.retries_attempted, 3);
        assert_eq!(c.owner_cache_hits, 60);
        assert_eq!(c.owner_cache_misses, 20);
        assert!((c.owner_cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(
            (c.scatter_nanos, c.combine_nanos, c.apply_nanos),
            (8, 10, 12)
        );
        assert_eq!(c.decode_nanos, 15);
        assert_eq!(c.stale_frames, 3);
        assert_eq!(
            (c.ckpt_writes, c.ckpt_write_nanos, c.ckpt_bytes),
            (3, 30, 300)
        );
        assert_eq!(c.comms.count_flushes, 9);
        assert_eq!(c.kernel_visits, 75);
        // A departed agent keeps its counters in the totals; its
        // gauges leave with it.
        let before = c;
        c.absorb_departed(&AgentMetrics {
            agent: 3,
            vmsgs: 10,
            edges: 99,
            subscriptions: 9,
            last_step_nanos: 1_000_000,
            ..Default::default()
        });
        assert_eq!(c.vmsgs, before.vmsgs + 10);
        assert_eq!(
            (c.edges, c.subscriptions, c.max_step_nanos),
            (before.edges, before.subscriptions, before.max_step_nanos)
        );
        // Driver-side recovery fields survive the wire roundtrip too.
        c.recoveries = 2;
        c.recovery_nanos = 123;
        c.ckpt_restores = 1;
        c.ckpt_restore_nanos = 45;
        c.ckpt_fallbacks = 1;
        c.replayed_records = 67;
        assert_eq!(ClusterMetrics::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn decode_rejects_short_frames() {
        assert!(AgentMetrics::decode(&Frame::signal(packet::METRICS)).is_none());
        assert!(ClusterMetrics::decode(&Frame::signal(packet::GET_METRICS)).is_none());
    }

    #[test]
    fn decode_rejects_wrong_packet_type() {
        let m = AgentMetrics::default();
        let c = ClusterMetrics::default();
        assert!(ClusterMetrics::decode(&m.encode()).is_none());
        assert!(AgentMetrics::decode(&c.encode()).is_none());
    }

    #[test]
    fn prometheus_rendering_exposes_fields() {
        let c = ClusterMetrics {
            agents: 4,
            agents_drained: 3,
            partial: true,
            queries: 12,
            stale_frames: 5,
            kernel_visits: 77,
            ckpt_writes: 6,
            recoveries: 2,
            ckpt_fallbacks: 1,
            replayed_records: 40,
            comms: CommsMetrics {
                vmsg: PacketStat {
                    frames_sent: 7,
                    bytes_sent: 700,
                    ..Default::default()
                },
                backpressure_waits: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let text = c.to_prometheus();
        assert!(text.contains("elga_agents 4\n"));
        assert!(text.contains("elga_agents_drained 3\n"));
        assert!(text.contains("elga_metrics_partial 1\n"));
        assert!(text.contains("elga_queries_total 12\n"));
        assert!(text.contains("elga_stale_frames_total 5\n"));
        assert!(text.contains("elga_kernel_visits_total 77\n"));
        assert!(text.contains("elga_ckpt_writes_total 6\n"));
        assert!(text.contains("elga_recoveries_total 2\n"));
        assert!(text.contains("elga_ckpt_fallbacks_total 1\n"));
        assert!(text.contains("elga_replayed_records_total 40\n"));
        assert!(text.contains("elga_backpressure_waits_total 2\n"));
        assert!(text.contains("elga_frames_sent_total{type=\"vmsg\"} 7\n"));
        assert!(text.contains("# TYPE elga_queries_total counter\n"));
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.splitn(2, ' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn comms_snapshot_reads_net_and_coalesce() {
        let net = NetStats::new();
        net.record_sent(packet::VMSG, 100);
        net.record_sent(packet::VMSG, 50);
        net.record_recv(packet::STATE, 25);
        net.record_sent(packet::MIG_STATE, 5);
        net.record_sent(packet::MIG_EDGES, 10);
        net.record_sent(packet::MIG_META, 20);
        let coalesce = CoalesceStats {
            size_flushes: 1,
            explicit_flushes: 2,
            ..Default::default()
        };
        let comms = CommsMetrics::snapshot(&net, &coalesce);
        assert_eq!(comms.vmsg.frames_sent, 2);
        assert_eq!(comms.vmsg.bytes_sent, 150);
        assert_eq!(comms.state.frames_recv, 1);
        assert_eq!(comms.state.bytes_recv, 25);
        assert_eq!(comms.migration.frames_sent, 3);
        assert_eq!(comms.migration.bytes_sent, 35);
        assert_eq!(comms.size_flushes, 1);
        assert_eq!(comms.explicit_flushes, 2);
        assert_eq!(comms.frames_sent(), 5);
        assert_eq!(comms.bytes_sent(), 185);
    }
}
