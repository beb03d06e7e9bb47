//! Graph substrate for ElGA.
//!
//! This crate defines the data model of the paper's §2.1 (directed
//! graphs, turnstile streams of edge changes, batches) and the two
//! storage layouts the evaluation contrasts:
//!
//! * [`adjacency::AdjacencyStore`] — the paper's dynamic layout in one
//!   process ("our dynamic graph is stored as a flat hash map with
//!   vectors", §4), storing both in- and out-edges and supporting O(1)
//!   insert and constant-amortized delete (agents keep their
//!   partitions in `elga-core`'s own vertex store);
//! * [`csr::Csr`] — the static compressed-sparse-row layout the Blogel
//!   and GAPbs baselines use, which is faster to traverse but cannot be
//!   updated in place (§4.7).
//!
//! [`changelog::ChangeLog`] packs what recovery replays: each edge's
//! last change since the oldest retained checkpoint (or since the
//! empty graph), compacted, plus the changes since the compaction.
//!
//! [`mod@reference`] holds single-threaded reference algorithms (PageRank,
//! WCC via union-find, BFS, Dijkstra) used to validate every system in
//! the workspace, mirroring the paper's §4 correctness methodology.

#![warn(missing_docs)]

pub mod adjacency;
pub mod changelog;
pub mod csr;
pub mod reference;
pub mod stats;
pub mod stream;
pub mod types;

pub use adjacency::AdjacencyStore;
pub use changelog::{ChangeLog, ChangeLogStats};
pub use csr::Csr;
pub use types::{Action, Batch, Edge, EdgeChange, VertexId};
