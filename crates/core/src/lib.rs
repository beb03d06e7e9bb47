//! The ElGA system (paper §3).
//!
//! ElGA is a shared-nothing distributed system for analyzing graphs
//! that change continuously, built so that its own infrastructure can
//! change continuously too. Every entity is single threaded and
//! communicates only by message passing (§3.1):
//!
//! * **Agents** ([`agent`]) hold graph partitions in memory and run
//!   vertex-centric programs;
//! * **Streamers** ([`streamer`]) push turnstile edge changes into the
//!   system;
//! * end-user queries, the paper's client proxy role, are QUERY_BATCH
//!   reads every agent answers from the snapshot of its last completed
//!   run, through one [`read::Reader`] (`elga_query::QueryClient`,
//!   [`cluster::Cluster::query_u64`]);
//! * the **directory system** ([`directory`]) — Directories plus a
//!   DirectoryMaster bootstrap — broadcasts membership, the count-min
//!   sketch, and synchronization barriers.
//!
//! Edge ownership is resolved with the two-level consistent-hash /
//! sketch scheme of `elga-hash` + `elga-sketch` (Figure 3): every edge
//! `(u, v)` is stored twice, once as an out-edge of `u` at
//! `owner(u, v)` and once as an in-edge of `v` at `owner(v, u)`, so
//! both directions of vertex-centric scatter are local ("We store both
//! in and out edges", §4).
//!
//! [`cluster::Cluster`] wires everything together for a single-process
//! deployment over the in-process transport (one OS thread per entity)
//! and exposes the public driver API: `ingest`, `run`, `query`,
//! `add_agents`, `remove_agent`, plus the [`autoscale`] policies.
//!
//! ## Execution model
//!
//! A synchronous superstep is one loop of three phases (a faithful
//! factoring of the paper's Figure 2 round plus its replica
//! synchronization, §3.4):
//!
//! 1. **Scatter** — active vertex replicas send program messages along
//!    their local edges; messages for vertex `w` land on one of `w`'s
//!    replicas (second consistent hash), which pre-aggregates them.
//! 2. **Combine** — replicas forward partial aggregates to the
//!    vertex's *primary* replica.
//! 3. **Apply** — primaries run the program's `apply`, then broadcast
//!    changed state to the vertex's replica set.
//!
//! The directory's ADVANCE names the phase an agent runs to — the
//! whole loop to the next scatter when no vertex can be split — and
//! every sync barrier closes on what was sent: the ADVANCE carries each
//! receiver's count of records, taken in before it acts (§3: "ElGA is
//! flexible with receiving messages out-of-order...").
//!
//! Asynchronous mode (for monotone programs such as WCC/BFS/SSSP)
//! processes vertices the moment updates arrive and terminates once
//! every agent's idle report balances the lead's channel table
//! (Mattern's channel counting: per channel, sent == taken in).

#![warn(missing_docs)]

mod adjacency;
pub mod agent;
pub mod algorithms;
pub mod autoscale;
mod channels;
pub mod cluster;
pub mod config;
pub mod directory;
mod lead;
pub mod metrics;
pub mod msg;
mod outboxes;
pub mod program;
pub mod read;
mod store;
pub mod streamer;
mod targets;

pub use cluster::{CheckpointReport, Cluster, ClusterBuilder, RecoveryStats, RunStats};
pub use config::SystemConfig;
pub use program::{ExecutionMode, ProgramSpec, VertexCtx, VertexProgram};
