//! System-wide configuration.

use elga_hash::{HashKind, LocatorConfig};
use elga_net::{DiskFault, SendPolicy};
use std::path::PathBuf;
use std::time::Duration;

/// Tunables shared by every Participant. The defaults follow the
/// paper's recommendations (§3.3.1, §3.4.2, §4.5) scaled to the
/// in-process deployment.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Ring hash function; the paper selects Wang's 64-bit hash
    /// (Figure 5).
    pub hash: HashKind,
    /// Virtual agents per Agent; the paper selects 100 (Figure 6).
    pub virtual_agents: u32,
    /// Count-min sketch width (paper: `2^18` for 100 B edges; scaled
    /// default here suits millions of edges).
    pub sketch_width: usize,
    /// Count-min sketch depth (paper: 8).
    pub sketch_depth: usize,
    /// Estimated degree per additional vertex replica (paper: millions
    /// at full scale; thousands here).
    pub replication_threshold: u64,
    /// Hard cap on replicas per vertex.
    pub max_replicas: u32,
    /// REQ/REP timeout for control-plane calls.
    pub request_timeout: Duration,
    /// Number of Directory entities (paper: scalable directory tier).
    pub directories: usize,
    /// Retry budget applied to control-plane REQ/REP and data-plane
    /// PUSH calls when a transient failure occurs.
    pub send_policy: SendPolicy,
    /// How often each agent pushes a liveness heartbeat to its
    /// directory.
    pub heartbeat_interval: Duration,
    /// Consecutive missed heartbeat intervals before the lead declares
    /// an agent dead, evicts it and broadcasts RECOVER.
    pub heartbeat_misses: u32,
    /// Deadline for `Cluster::quiesce`; exceeded, it returns
    /// `NetError::Timeout` instead of blocking forever.
    pub quiesce_deadline: Duration,
    /// Deadline for `Cluster::wait_run`, including any mid-run
    /// recovery and restart.
    pub run_deadline: Duration,
    /// Ignored: every agent runs its superstep kernels on its own
    /// thread, and a node gets more cores working by running more
    /// agents. Kept only because the benchmark harness names it in a
    /// struct literal; the field goes when the harness next changes.
    #[deprecated(note = "agents ignore it; an agent is one thread")]
    pub workers: usize,
    /// Whether participants record trace events (superstep phases,
    /// view changes, migrations, recoveries, coalescer flushes) into
    /// per-participant ring buffers, collectable as Chrome-trace JSON.
    /// Off by default; the disabled path is one relaxed atomic load
    /// (or an unset `Option`), so benchmarks are unaffected.
    pub tracing: bool,
    /// Directory for durable checkpoints. `None` (the default)
    /// disables checkpointing entirely; recovery then replays the
    /// whole change log, each edge's last change, onto empty agents.
    pub checkpoint_dir: Option<PathBuf>,
    /// Take a checkpoint automatically after this many ingested
    /// batches (0 disables the automatic trigger; explicit
    /// `Cluster::checkpoint` calls still work).
    pub checkpoint_interval_batches: u64,
    /// Checkpoint generations retained on disk. Older generations are
    /// pruned after each successful commit; keeping ≥2 means a
    /// corrupt newest generation still has a fallback.
    pub checkpoint_keep: usize,
    /// Disk-fault injection applied to checkpoint writes (chaos
    /// testing only). `None` outside chaos runs.
    pub disk_fault: Option<DiskFault>,
    /// Seed for the disk-fault injector's deterministic RNG.
    pub disk_fault_seed: u64,
}

// Sets the deprecated `workers`, which a struct literal must.
#[allow(deprecated)]
impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            hash: HashKind::Wang,
            virtual_agents: 100,
            sketch_width: 1 << 12,
            sketch_depth: 8,
            replication_threshold: 4096,
            max_replicas: 16,
            request_timeout: Duration::from_secs(30),
            directories: 1,
            send_policy: SendPolicy::default(),
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_misses: 50,
            quiesce_deadline: Duration::from_secs(60),
            run_deadline: Duration::from_secs(300),
            workers: 1,
            tracing: false,
            checkpoint_dir: None,
            checkpoint_interval_batches: 0,
            checkpoint_keep: 2,
            disk_fault: None,
            disk_fault_seed: 0,
        }
    }
}

impl SystemConfig {
    /// The locator settings implied by this configuration.
    pub fn locator_config(&self) -> LocatorConfig {
        LocatorConfig {
            replication_threshold: self.replication_threshold,
            max_replicas: self.max_replicas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_choices() {
        let c = SystemConfig::default();
        assert_eq!(c.hash, HashKind::Wang);
        assert_eq!(c.virtual_agents, 100);
        assert_eq!(c.sketch_depth, 8);
        assert!(c.directories >= 1);
        assert!(!c.tracing, "tracing must be opt-in");
    }

    #[test]
    fn failure_detection_defaults_are_sane() {
        let c = SystemConfig::default();
        // Detection latency must stay well under the quiesce deadline,
        // or a dead agent stalls every barrier past its budget.
        let detect = c.heartbeat_interval * c.heartbeat_misses;
        assert!(detect < c.quiesce_deadline);
        assert!(c.quiesce_deadline <= c.run_deadline);
        assert!(c.send_policy.retries > 0);
    }

    #[test]
    fn checkpointing_defaults_off_with_a_fallback_window() {
        let c = SystemConfig::default();
        assert!(c.checkpoint_dir.is_none(), "checkpointing is opt-in");
        assert_eq!(c.checkpoint_interval_batches, 0);
        assert!(
            c.checkpoint_keep >= 2,
            "must retain a fallback generation for corrupt-newest recovery"
        );
        assert!(c.disk_fault.is_none(), "no fault injection outside chaos");
    }

    #[test]
    fn locator_config_mirrors_fields() {
        let c = SystemConfig {
            replication_threshold: 99,
            max_replicas: 3,
            ..SystemConfig::default()
        };
        let lc = c.locator_config();
        assert_eq!(lc.replication_threshold, 99);
        assert_eq!(lc.max_replicas, 3);
    }
}
