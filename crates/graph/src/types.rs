//! Core data model: directed edges, turnstile changes, and batches
//! (paper Definitions 2.1–2.5).

/// Vertex identifier. The paper configures all systems with 64-bit
/// vertex ids (§4); we do the same.
pub type VertexId = u64;

/// A directed edge `(src, dst)` (Definition 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
}

impl Edge {
    /// Construct an edge.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// The edge with endpoints swapped.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
        }
    }

    /// Whether this is a self-loop.
    #[inline]
    pub fn is_loop(self) -> bool {
        self.src == self.dst
    }
}

impl From<(VertexId, VertexId)> for Edge {
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge { src, dst }
    }
}

/// The action of a turnstile change (Definition 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Insert the edge.
    Insert,
    /// Remove the edge.
    Delete,
}

/// One element of a dynamic graph's change stream: an action plus the
/// edge it applies to (Definition 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeChange {
    /// Insert or delete.
    pub action: Action,
    /// The affected edge.
    pub edge: Edge,
}

impl EdgeChange {
    /// An insertion of `(u, v)`.
    #[inline]
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        EdgeChange {
            action: Action::Insert,
            edge: Edge::new(u, v),
        }
    }

    /// A deletion of `(u, v)`.
    #[inline]
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        EdgeChange {
            action: Action::Delete,
            edge: Edge::new(u, v),
        }
    }

    /// True for insertions.
    #[inline]
    pub fn is_insert(&self) -> bool {
        self.action == Action::Insert
    }
}

/// A contiguous segment of the change stream (Definition 2.4). ElGA
/// applies batches atomically between algorithm executions (§3.4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// Monotonically increasing batch identifier ("a monotonically
    /// increasing clock used to bootstrap Agents and ensure
    /// consistency", §3.3).
    pub id: u64,
    /// The changes, in stream order.
    pub changes: Vec<EdgeChange>,
}

impl Batch {
    /// A batch with the given id and changes.
    pub fn new(id: u64, changes: Vec<EdgeChange>) -> Self {
        Batch { id, changes }
    }

    /// Number of changes in the batch.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when the batch carries no changes.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Every vertex touched by the batch, each once. These are the
    /// vertices a dynamic algorithm re-activates (§4.3: "only vertices
    /// directly modified in the batch are activated").
    pub fn touched_vertices(&self) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = self
            .changes
            .iter()
            .flat_map(|c| [c.edge.src, c.edge.dst])
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_basics() {
        let e = Edge::new(1, 2);
        assert_eq!(e.reversed(), Edge::new(2, 1));
        assert!(!e.is_loop());
        assert!(Edge::new(3, 3).is_loop());
        assert_eq!(Edge::from((4, 5)), Edge::new(4, 5));
    }

    #[test]
    fn change_constructors() {
        assert!(EdgeChange::insert(1, 2).is_insert());
        assert!(!EdgeChange::delete(1, 2).is_insert());
        assert_eq!(EdgeChange::insert(1, 2).edge, Edge::new(1, 2));
    }

    #[test]
    fn batch_touched_vertices_sorted_each_once() {
        let b = Batch::new(
            7,
            vec![
                EdgeChange::insert(5, 1),
                EdgeChange::delete(1, 5),
                EdgeChange::insert(2, 2),
            ],
        );
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.touched_vertices(), vec![1, 2, 5]);
    }

    #[test]
    fn empty_batch() {
        let b = Batch::default();
        assert!(b.is_empty());
        assert!(b.touched_vertices().is_empty());
    }
}
