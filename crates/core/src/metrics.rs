//! Metric collection for elastic autoscaling (paper §3.4.3: "ElGA
//! comes with an API for metric collection and autoscalers. ... We
//! implemented Agent metrics for graph change rates, client query
//! rates, and superstep times. Metrics are passed to Directories.")
//!
//! Every metric is one row of a table (`metrics!`): its field and
//! doc, how the directory folds agents' values into the aggregate, and
//! its Prometheus name, type and help. The row order is the wire order
//! of the METRICS and GET_METRICS frames and the order of the
//! exposition text.

use crate::msg::{packet, wire};
use elga_net::{CoalesceStats, NetStats};
use std::fmt::Write;

/// A metric value: how values of several agents add up, and how it
/// reads in the Prometheus text exposition format.
trait Metric {
    /// Add `other` in.
    fn sum(&mut self, other: &Self);

    /// Append the exposition lines of the value as metric `name`.
    fn expose(&self, out: &mut String, name: &str, kind: &str, help: &str);
}

impl Metric for u64 {
    fn sum(&mut self, other: &u64) {
        *self += other;
    }

    fn expose(&self, out: &mut String, name: &str, kind: &str, help: &str) {
        let _ = write!(
            out,
            "# HELP elga_{name} {help}\n# TYPE elga_{name} {kind}\nelga_{name} {self}\n"
        );
    }
}

impl Metric for bool {
    fn sum(&mut self, other: &bool) {
        *self |= other;
    }

    fn expose(&self, out: &mut String, name: &str, kind: &str, help: &str) {
        u64::from(*self).expose(out, name, kind, help);
    }
}

/// Declare a metrics report once, as a table of rows
/// `field: type = fold(agent field) => "name" kind "help";` — the help
/// is the field's doc too.
///
/// With two structs, the first is the aggregate the directory returns
/// (GET_METRICS) and the second the report an agent pushes (METRICS):
/// it holds the rows that name an agent-side field (with a doc of its
/// own where the help would mislead), in the same order. `fold` says
/// how the aggregate takes an agent's value in: `sum`; `gauge`, a sum
/// that a departed agent leaves; `max`, likewise left by a departed
/// agent; `lead` and `driver`, set by the lead directory or the driver
/// instead. With one struct, a nested report, every row sums. A nested
/// value renders itself, ignoring the kind and help.
macro_rules! metrics {
    (@fold sum $acc:expr, $value:expr, $departed:ident) => {
        Metric::sum(&mut $acc, &$value)
    };
    (@fold gauge $acc:expr, $value:expr, $departed:ident) => {
        if !$departed {
            Metric::sum(&mut $acc, &$value)
        }
    };
    (@fold max $acc:expr, $value:expr, $departed:ident) => {
        if !$departed {
            $acc = $acc.max($value)
        }
    };
    (@fold lead $($rest:tt)*) => {};
    (@doc $help:literal) => {
        $help
    };
    (@doc $help:literal, $doc:literal) => {
        $doc
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $kind:ident,
        $(#[$ameta:meta])*
        pub struct $agent:ident: $akind:ident {
            $(
                $field:ident: $ty:ty = $fold:ident $(($afield:ident $(, $adoc:literal)?))?
                    => $pname:literal $pkind:ident $help:literal;
            )*
        }
    ) => {
        wire! {
            $(#[$meta])*
            pub struct $name: $kind {
                $(#[doc = $help] pub $field: $ty,)*
            }

            $(#[$ameta])*
            pub struct $agent: $akind {
                $($(#[doc = metrics!(@doc $help $(, $adoc)?)] pub $afield: $ty,)?)*
            }
        }

        impl $name {
            /// Fold one agent's report in; a departed agent's gauges
            /// left with it.
            fn fold(&mut self, m: &$agent, departed: bool) {
                $($(metrics!(@fold $fold self.$field, m.$afield, departed);)?)*
            }

            /// Render as Prometheus text exposition format (one gauge or
            /// counter per field, `elga_` prefix), suitable for a
            /// textfile collector or a debug endpoint.
            pub fn to_prometheus(&self) -> String {
                let mut out = String::with_capacity(4096);
                $(self.$field.expose(&mut out, $pname, stringify!($pkind), $help);)*
                out
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($field:ident: $ty:ty => $pname:literal $pkind:ident $help:literal;)*
        }
    ) => {
        wire! {
            $(#[$meta])*
            pub struct $name {
                $(#[doc = $help] pub $field: $ty,)*
            }
        }

        impl Metric for $name {
            fn sum(&mut self, other: &Self) {
                $(self.$field.sum(&other.$field);)*
            }

            fn expose(&self, out: &mut String, _: &str, _: &str, _: &str) {
                $(self.$field.expose(out, $pname, stringify!($pkind), $help);)*
            }
        }
    };
}

wire! {
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
}

impl PacketStat {
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
}

/// Exposed as the sent side, labelled `type = name`.
impl Metric for PacketStat {
    fn sum(&mut self, other: &PacketStat) {
        self.frames_sent += other.frames_sent;
        self.bytes_sent += other.bytes_sent;
        self.frames_recv += other.frames_recv;
        self.bytes_recv += other.bytes_recv;
    }

    fn expose(&self, out: &mut String, name: &str, _: &str, _: &str) {
        let (frames, bytes) = (self.frames_sent, self.bytes_sent);
        let _ = write!(
            out,
            "elga_frames_sent_total{{type=\"{name}\"}} {frames}\n\
             elga_bytes_sent_total{{type=\"{name}\"}} {bytes}\n"
        );
    }
}

metrics! {
    /// Comms-plane observability: data-plane traffic broken down by packet
    /// type, plus the coalescer's flush-reason counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CommsMetrics {
        vmsg: PacketStat => "vmsg" counter "Scatter vertex messages (VMSG).";
        partial: PacketStat => "partial" counter "Partial aggregates (PARTIAL).";
        state: PacketStat => "state" counter "State broadcasts (STATE).";
        edge_changes: PacketStat => "edge_changes" counter "Edge changes (EDGE_CHANGES).";
        deg_delta: PacketStat => "deg_delta" counter "Degree deltas (DEG_DELTA).";
        migration: PacketStat => "migration" counter "Moving vertices (MIG_VERTEX).";
        size_flushes: u64 => "coalesce_size_flushes_total" counter
            "Coalescer flushes at the byte threshold.";
        count_flushes: u64 => "coalesce_count_flushes_total" counter
            "Coalescer flushes at the record threshold.";
        explicit_flushes: u64 => "coalesce_explicit_flushes_total" counter
            "Explicit phase-end coalescer flushes.";
        switch_flushes: u64 => "coalesce_switch_flushes_total" counter
            "Coalescer flushes forced by a type/header switch.";
        backpressure_waits: u64 => "backpressure_waits_total" counter
            "Sends that waited on in-flight credit.";
        rx_pool_hits: u64 => "rx_pool_hits_total" counter
            "Receives served from an existing pooled batch buffer.";
        rx_pool_misses: u64 => "rx_pool_misses_total" counter
            "Receives that allocated a fresh batch buffer.";
    }
}

impl CommsMetrics {
    /// Snapshot the data-plane packet types out of an agent-local
    /// [`NetStats`] and merge in its aggregated coalescer counters.
    pub fn snapshot(net: &NetStats, coalesce: &CoalesceStats) -> CommsMetrics {
        let (rx_pool_hits, rx_pool_misses) = net.rx_pool();
        CommsMetrics {
            vmsg: PacketStat::from_net(net, packet::VMSG),
            partial: PacketStat::from_net(net, packet::PARTIAL),
            state: PacketStat::from_net(net, packet::STATE),
            edge_changes: PacketStat::from_net(net, packet::EDGE_CHANGES),
            deg_delta: PacketStat::from_net(net, packet::DEG_DELTA),
            migration: PacketStat::from_net(net, packet::MIG_VERTEX),
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
        ratio(self.rx_pool_hits, self.rx_pool_misses)
    }

    fn packets(&self) -> [PacketStat; 6] {
        [
            self.vmsg,
            self.partial,
            self.state,
            self.edge_changes,
            self.deg_delta,
            self.migration,
        ]
    }

    /// Total data-plane frames sent across all packet types.
    pub fn frames_sent(&self) -> u64 {
        self.packets().iter().map(|p| p.frames_sent).sum()
    }

    /// Total data-plane bytes sent across all packet types.
    pub fn bytes_sent(&self) -> u64 {
        self.packets().iter().map(|p| p.bytes_sent).sum()
    }
}

/// `hits / (hits + misses)`, 0 when both are 0.
fn ratio(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

metrics! {
    /// Aggregated view over all agents, returned by the directory.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClusterMetrics: GET_METRICS,
    /// Cumulative per-agent activity counters, pushed to the agent's
    /// directory.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AgentMetrics: METRICS {
        agents: u64 = lead(agent, "The reporting agent.") => "agents" gauge "Registered agents.";
        queries: u64 = sum(queries) => "queries_total" counter "Client queries served.";
        changes: u64 = sum(changes) => "changes_total" counter "Edge-change records applied.";
        vmsgs: u64 = sum(vmsgs) => "vmsgs_total" counter
            "Vertex-message records delivered, after sender-side combining.";
        edges: u64 = gauge(edges) => "edges" gauge "Out-placement edges held.";
        max_step_nanos: u64 = max(last_step_nanos, "The agent's last superstep (ns).")
            => "max_step_nanos" gauge "Slowest agent's last superstep (ns).";
        retries_attempted: u64 = sum(retries_attempted) => "retries_total" counter
            "Transient failures retried.";
        messages_dropped: u64 = driver => "messages_dropped_total" counter
            "Frames dropped by an injected fault layer.";
        agents_recovered: u64 = lead => "agents_recovered_total" counter
            "Agents evicted by failure detection.";
        agents_drained: u64 = driver => "agents_drained" gauge
            "Agents drained into this aggregate.";
        partial: bool = driver => "metrics_partial" gauge
            "1 when at least one live agent could not be drained.";
        owner_cache_hits: u64 = sum(owner_cache_hits) => "owner_cache_hits_total" counter
            "Owner-cache hits.";
        owner_cache_misses: u64 = sum(owner_cache_misses) => "owner_cache_misses_total" counter
            "Owner-cache misses.";
        scatter_nanos: u64 = sum(scatter_nanos) => "scatter_nanos_total" counter
            "Scatter-kernel wall time (ns).";
        combine_nanos: u64 = sum(combine_nanos) => "combine_nanos_total" counter
            "Combine-kernel wall time (ns).";
        apply_nanos: u64 = sum(apply_nanos) => "apply_nanos_total" counter
            "Apply-kernel wall time (ns).";
        decode_nanos: u64 = sum(decode_nanos) => "decode_nanos_total" counter
            "Data-plane receive-handler wall time (ns).";
        stale_frames: u64 = sum(stale_frames) => "stale_frames_total" counter
            "Stale-run data-plane frames dropped.";
        ckpt_writes: u64 = sum(ckpt_writes) => "ckpt_writes_total" counter
            "Checkpoint shards durably written.";
        ckpt_write_nanos: u64 = sum(ckpt_write_nanos) => "ckpt_write_nanos_total" counter
            "Wall time writing checkpoint shards (ns).";
        ckpt_bytes: u64 = sum(ckpt_bytes) => "ckpt_bytes_total" counter
            "Checkpoint payload bytes written.";
        recoveries: u64 = driver => "recoveries_total" counter "End-to-end recoveries completed.";
        recovery_nanos: u64 = driver => "recovery_nanos_total" counter
            "End-to-end recovery wall time (ns).";
        ckpt_restores: u64 = driver => "ckpt_restores_total" counter
            "Recoveries restored from a checkpoint.";
        ckpt_restore_nanos: u64 = driver => "ckpt_restore_nanos_total" counter
            "Wall time restoring checkpoint shards (ns).";
        ckpt_fallbacks: u64 = driver => "ckpt_fallbacks_total" counter
            "Damaged checkpoint generations skipped.";
        replayed_records: u64 = driver => "replayed_records_total" counter
            "Change records replayed during recovery.";
        query_batches: u64 = sum(query_batches) => "query_batches_total" counter
            "Batched multi-vertex query frames served.";
        subscriptions: u64 = gauge(subscriptions) => "subscriptions" gauge
            "Standing vertex subscriptions registered.";
        sub_pushes: u64 = sum(sub_pushes) => "sub_pushes_total" counter
            "Subscription value-delta records pushed.";
        kernel_visits: u64 = sum(kernel_visits) => "kernel_visits_total" counter
            "Vertex entries visited by superstep kernels and summaries.";
        comms: CommsMetrics = sum(comms) => "comms" counter
            "Comms-plane traffic and coalescer flush counters.";
        store_bytes: u64 = gauge(store_bytes) => "store_bytes" gauge
            "Vertex store heap bytes: map capacity, adjacency lists and their indexes.";
        owner_cache_bytes: u64 = gauge(owner_cache_bytes) => "owner_cache_bytes" gauge
            "Owner-memo heap bytes: map capacity and split placements.";
        memo_fills: u64 = sum(memo_fills) => "memo_fills_total" counter
            "Edge-memo slots scatter filled through the owner cache, on the sides it fired.";
        sweep_visits: u64 = sum(sweep_visits) => "sweep_visits_total" counter
            "Vertex entries whose placement a view change's sweep decided.";
        primaries: u64 = gauge(primaries) => "primaries" gauge
            "Primary vertices: the meta entries each agent's ring places on it.";
        quiesce_waves: u64 = lead => "quiesce_waves_total" counter
            "DRAIN fan-outs the lead sent to answer quiesce calls, one or more each.";
    }
}

impl ClusterMetrics {
    /// Fold one agent report into the aggregate.
    pub fn absorb(&mut self, m: &AgentMetrics) {
        self.fold(m, false);
    }

    /// Fold in the final report of an agent that left the cluster or
    /// was evicted: its counters stay in the cumulative totals, its
    /// gauges (`edges`, `store_bytes`, `owner_cache_bytes`,
    /// `subscriptions`, `last_step_nanos`) left with it.
    pub fn absorb_departed(&mut self, m: &AgentMetrics) {
        self.fold(m, true);
    }

    /// Fraction of owner lookups served from cache, in `[0, 1]`; 0 when
    /// no lookups happened.
    pub fn owner_cache_hit_rate(&self) -> f64 {
        ratio(self.owner_cache_hits, self.owner_cache_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Message;
    use elga_net::Frame;

    #[test]
    fn agent_metrics_roundtrip() {
        let m = AgentMetrics {
            agent: 3,
            queries: 10,
            changes: 20,
            vmsgs: 30,
            edges: 40,
            store_bytes: 45,
            owner_cache_bytes: 47,
            memo_fills: 195,
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
            sweep_visits: 200,
            primaries: 210,
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
            store_bytes: 300,
            owner_cache_bytes: 30,
            memo_fills: 5,
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
            sweep_visits: 8,
            primaries: 12,
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
            store_bytes: 400,
            owner_cache_bytes: 40,
            memo_fills: 6,
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
            sweep_visits: 3,
            primaries: 14,
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
        assert_eq!((c.edges, c.store_bytes, c.owner_cache_bytes), (7, 700, 70));
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
        assert_eq!(c.memo_fills, 11);
        assert_eq!((c.sweep_visits, c.primaries), (11, 26));
        // A departed agent keeps its counters in the totals; its
        // gauges leave with it.
        let before = c;
        c.absorb_departed(&AgentMetrics {
            agent: 3,
            vmsgs: 10,
            edges: 99,
            store_bytes: 9_999,
            owner_cache_bytes: 999,
            subscriptions: 9,
            last_step_nanos: 1_000_000,
            sweep_visits: 5,
            primaries: 40,
            ..Default::default()
        });
        assert_eq!((c.sweep_visits, c.primaries), (16, 26));
        assert_eq!(c.vmsgs, before.vmsgs + 10);
        assert_eq!(
            (
                c.edges,
                c.store_bytes,
                c.owner_cache_bytes,
                c.subscriptions,
                c.max_step_nanos
            ),
            (
                before.edges,
                before.store_bytes,
                before.owner_cache_bytes,
                before.subscriptions,
                before.max_step_nanos
            )
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
        for bytes in [5, 10, 20] {
            net.record_sent(packet::MIG_VERTEX, bytes);
        }
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
