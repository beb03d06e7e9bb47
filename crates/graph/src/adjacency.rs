//! A single-process dynamic adjacency store: the reference tests build
//! from a change stream, and the floor the benchmark's store-apply
//! probe measures. Agents do not use it; each keeps its partition in
//! its own vertex store (`elga-core`'s agent).
//!
//! The paper stores the dynamic graph "as a flat hash map with vectors"
//! and keeps "both in and out edges" (§4). We mirror that: a hash map
//! from vertex id to a record holding an out-neighbor vector and an
//! in-neighbor vector. A store-level edge set provides O(1) duplicate
//! detection so the graph remains simple under repeated insertions, and
//! lets deletions of absent edges be cheap no-ops (turnstile streams
//! routinely carry both).

use crate::types::{Action, Batch, Edge, EdgeChange, VertexId};
use elga_hash::{FxHashMap, FxHashSet};

/// Per-vertex adjacency record.
#[derive(Debug, Clone, Default)]
struct VertexRecord {
    out: Vec<VertexId>,
    inn: Vec<VertexId>,
}

/// A dynamic directed graph: hash map of vertices → in/out neighbor
/// vectors, with an edge set for O(1) membership.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyStore {
    vertices: FxHashMap<VertexId, VertexRecord>,
    edges: FxHashSet<Edge>,
}

impl AdjacencyStore {
    /// An empty graph (`G⁰ = (∅, ∅)`, Definition 2.3).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from an edge iterator, ignoring duplicates.
    pub fn from_edges(edges: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let mut g = AdjacencyStore::new();
        for (u, v) in edges {
            g.insert(u, v);
        }
        g
    }

    /// Insert edge `(u, v)`. Returns `false` if it was already present.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.edges.insert(Edge::new(u, v)) {
            return false;
        }
        self.vertices.entry(u).or_default().out.push(v);
        self.vertices.entry(v).or_default().inn.push(u);
        true
    }

    /// Remove edge `(u, v)`. Returns `false` if it was absent. Isolated
    /// endpoints are removed from the vertex map so memory stays
    /// `O(n + m)` for the *current* graph (Goal 2).
    pub fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.edges.remove(&Edge::new(u, v)) {
            return false;
        }
        let mut drop_u = false;
        if let Some(rec) = self.vertices.get_mut(&u) {
            if let Some(pos) = rec.out.iter().position(|&x| x == v) {
                rec.out.swap_remove(pos);
            }
            drop_u = rec.out.is_empty() && rec.inn.is_empty();
        }
        if drop_u {
            self.vertices.remove(&u);
        }
        let mut drop_v = false;
        if let Some(rec) = self.vertices.get_mut(&v) {
            if let Some(pos) = rec.inn.iter().position(|&x| x == u) {
                rec.inn.swap_remove(pos);
            }
            drop_v = rec.out.is_empty() && rec.inn.is_empty();
        }
        if drop_v {
            self.vertices.remove(&v);
        }
        true
    }

    /// Apply a single turnstile change. Returns whether the graph
    /// actually changed.
    pub fn apply(&mut self, change: EdgeChange) -> bool {
        match change.action {
            Action::Insert => self.insert(change.edge.src, change.edge.dst),
            Action::Delete => self.remove(change.edge.src, change.edge.dst),
        }
    }

    /// Apply a whole batch; returns how many changes took effect.
    pub fn apply_batch(&mut self, batch: &Batch) -> usize {
        batch.changes.iter().filter(|&&c| self.apply(c)).count()
    }

    /// Whether edge `(u, v)` is present.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edges.contains(&Edge::new(u, v))
    }

    /// Out-neighbors of `u` (empty slice if unknown). Order is
    /// insertion order disturbed by `swap_remove`; algorithms must not
    /// rely on it.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        self.vertices.get(&u).map_or(&[], |r| &r.out)
    }

    /// In-neighbors of `u` (empty slice if unknown).
    #[inline]
    pub fn in_neighbors(&self, u: VertexId) -> &[VertexId] {
        self.vertices.get(&u).map_or(&[], |r| &r.inn)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out_neighbors(u).len()
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: VertexId) -> usize {
        self.in_neighbors(u).len()
    }

    /// Total degree (in + out) of `u` — what the count-min sketch
    /// estimates for replication decisions.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.vertices
            .get(&u)
            .map_or(0, |r| r.out.len() + r.inn.len())
    }

    /// Whether `u` currently has any incident edge.
    #[inline]
    pub fn contains_vertex(&self, u: VertexId) -> bool {
        self.vertices.contains_key(&u)
    }

    /// Number of non-isolated vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no edges (and hence no vertices).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterate over vertex ids (arbitrary order).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices.keys().copied()
    }

    /// Iterate over edges (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Collect all edges into a vector (sorted, for deterministic
    /// comparisons in tests and migration logic).
    pub fn edges_sorted(&self) -> Vec<Edge> {
        let mut v: Vec<Edge> = self.edges.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Remove every edge and vertex.
    pub fn clear(&mut self) {
        self.vertices.clear();
        self.edges.clear();
    }

    /// Remove and return all edges whose owner (per `keep`) is no
    /// longer this store — the agent-side primitive behind elastic
    /// migration (§3.4.3: "recomputing the correct destination for all
    /// current edges"). Edges for which `keep` returns `false` are
    /// removed and returned.
    pub fn extract_edges<F>(&mut self, mut keep: F) -> Vec<Edge>
    where
        F: FnMut(Edge) -> bool,
    {
        let leaving: Vec<Edge> = self.edges.iter().copied().filter(|&e| !keep(e)).collect();
        for &e in &leaving {
            self.remove(e.src, e.dst);
        }
        leaving
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut g = AdjacencyStore::new();
        assert!(g.insert(1, 2));
        assert!(!g.insert(1, 2), "duplicate insert must be rejected");
        assert!(g.insert(2, 1));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.out_neighbors(1), &[2]);
        assert_eq!(g.in_neighbors(1), &[2]);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn remove_edge_and_cleanup_isolated() {
        let mut g = AdjacencyStore::from_edges([(1, 2), (2, 3)]);
        assert!(g.remove(1, 2));
        assert!(!g.remove(1, 2), "double delete is a no-op");
        assert!(!g.contains_vertex(1), "isolated vertex must be dropped");
        assert_eq!(g.num_vertices(), 2);
        assert!(g.remove(2, 3));
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn self_loop_handling() {
        let mut g = AdjacencyStore::new();
        assert!(g.insert(5, 5));
        assert_eq!(g.out_degree(5), 1);
        assert_eq!(g.in_degree(5), 1);
        assert!(g.remove(5, 5));
        assert!(g.is_empty());
    }

    #[test]
    fn apply_batch_counts_effective_changes() {
        let mut g = AdjacencyStore::new();
        let b = Batch::new(
            1,
            vec![
                EdgeChange::insert(1, 2),
                EdgeChange::insert(1, 2), // duplicate
                EdgeChange::delete(3, 4), // absent
                EdgeChange::insert(2, 3),
                EdgeChange::delete(1, 2),
            ],
        );
        assert_eq!(g.apply_batch(&b), 3);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn directed_asymmetry() {
        let g = AdjacencyStore::from_edges([(1, 2)]);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.in_degree(2), 1);
    }

    #[test]
    fn extract_edges_partitions_the_store() {
        let mut g = AdjacencyStore::from_edges([(1, 2), (2, 3), (3, 4), (4, 1)]);
        let leaving = g.extract_edges(|e| e.src % 2 == 0);
        assert_eq!(leaving.len(), 2);
        for e in &leaving {
            assert_eq!(e.src % 2, 1);
            assert!(!g.has_edge(e.src, e.dst));
        }
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edges_sorted_is_deterministic() {
        let g1 = AdjacencyStore::from_edges([(3, 1), (1, 2), (2, 3)]);
        let g2 = AdjacencyStore::from_edges([(2, 3), (3, 1), (1, 2)]);
        assert_eq!(g1.edges_sorted(), g2.edges_sorted());
    }

    #[test]
    fn clear_empties_everything() {
        let mut g = AdjacencyStore::from_edges([(1, 2), (2, 3)]);
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.out_neighbors(1), &[] as &[VertexId]);
    }
}
