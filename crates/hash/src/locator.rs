//! Two-level edge location (ElGA §3.4.1, Figure 3).
//!
//! Every Participant must be able to answer "which Agent owns edge
//! `(u, v)`?" using only a constant amount of global state. The locator
//! does this in three steps:
//!
//! 1. An (externally supplied) degree estimate for `u` — in the full
//!    system this comes from the broadcast count-min sketch — determines
//!    the *replication factor* `k = ceil(deg / threshold)`.
//! 2. The first consistent hash maps `u` to the `k` distinct successor
//!    agents on the ring: `u`'s replica set.
//! 3. A second consistent hash of the destination `v` over that replica
//!    set picks the single owner of edge `(u, v)`.
//!
//! For vertex-level operations where *any* replica suffices (e.g. client
//! queries), the second hash is bypassed and a replica is picked from a
//! caller-supplied salt (§3.4.1, "Efficiency reasons").

use crate::funcs::HashKind;
use crate::ring::{AgentId, Ring};
use serde::{Deserialize, Serialize};

/// Configuration of the locator's replication behaviour.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LocatorConfig {
    /// Estimated degree at which a vertex is split across one more
    /// agent. The paper uses thresholds in the millions (§3.3.1); tests
    /// and the scaled-down experiments use much smaller values.
    pub replication_threshold: u64,
    /// Hard cap on replicas per vertex (never exceeds the agent count).
    pub max_replicas: u32,
}

impl LocatorConfig {
    /// Replication factor for an estimated degree among `agents`
    /// agents ([`EdgeLocator::replication_factor`] without the ring —
    /// the factor depends on the ring only through its size).
    #[inline]
    pub fn replication_factor(&self, estimated_degree: u64, agents: usize) -> u32 {
        let t = self.replication_threshold.max(1);
        let k = estimated_degree.div_ceil(t).max(1);
        let cap = u64::from(self.max_replicas).min(agents as u64);
        k.min(cap.max(1)) as u32
    }
}

impl Default for LocatorConfig {
    fn default() -> Self {
        LocatorConfig {
            replication_threshold: 1 << 20,
            max_replicas: 64,
        }
    }
}

/// Resolves edges and vertices to owning agents.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeLocator {
    ring: Ring,
    config: LocatorConfig,
}

/// The fully resolved placement of one vertex under a fixed view: its
/// replication factor, replica set, and the pre-hashed second-level mini
/// ring. Computing this once per vertex amortises the CMS estimate, the
/// `O(log P·V)` ring walk, and the replica re-hash over every edge that
/// shares the source — the memo an [`crate::cache::OwnerCache`] stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPlacement {
    /// Replication factor `k` derived from the degree estimate.
    pub k: u32,
    /// First replica (ring successor) — the vertex's primary owner.
    /// `None` only when the ring is empty.
    pub primary: Option<AgentId>,
    /// The replica set and its mini ring when `k > 1`. `None` — one
    /// word, nothing allocated — when `k == 1`: the set is `primary`,
    /// no second hash is needed, and memos hold one placement per
    /// vertex ever resolved.
    split: Option<Box<Split>>,
}

/// Where the edges of a split vertex (`k > 1`) go.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Split {
    /// Replica set in ring order from the successor.
    replicas: Vec<AgentId>,
    /// Second-level mini ring: `(hash(agent), agent)` sorted ascending.
    minis: Vec<(u64, AgentId)>,
}

impl VertexPlacement {
    /// Full replica set in ring order from the successor.
    pub fn replicas(&self) -> &[AgentId] {
        match &self.split {
            Some(split) => &split.replicas,
            None => self.primary.as_slice(),
        }
    }

    /// Heap bytes the placement owns: none when `k == 1`, the boxed
    /// replica set and mini ring when the vertex is split.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.split.as_ref().map_or(0, |s| {
            std::mem::size_of::<Split>()
                + s.replicas.capacity() * std::mem::size_of::<AgentId>()
                + s.minis.capacity() * std::mem::size_of::<(u64, AgentId)>()
        })
    }
}

impl EdgeLocator {
    /// Wrap a ring with replication settings.
    pub fn new(ring: Ring, config: LocatorConfig) -> Self {
        EdgeLocator { ring, config }
    }

    /// The underlying consistent-hash ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Mutable access to the ring (used when agents join or leave).
    pub fn ring_mut(&mut self) -> &mut Ring {
        &mut self.ring
    }

    /// The replication settings.
    pub fn config(&self) -> LocatorConfig {
        self.config
    }

    /// Hash function shared by both consistent-hash levels.
    #[inline]
    fn kind(&self) -> HashKind {
        self.ring.kind()
    }

    /// Replication factor for an estimated degree: 1 below the
    /// threshold, then one additional replica per threshold's worth of
    /// degree, capped by `max_replicas` and the agent count.
    #[inline]
    pub fn replication_factor(&self, estimated_degree: u64) -> u32 {
        self.config
            .replication_factor(estimated_degree, self.ring.len())
    }

    /// The replica set of vertex `u`: the agents holding any of `u`'s
    /// edges. Order is ring order from `u`'s successor.
    pub fn replicas_of_vertex(&self, u: u64, estimated_degree: u64) -> Vec<AgentId> {
        let k = self.replication_factor(estimated_degree);
        self.ring.owners(u, k as usize)
    }

    /// Owner of edge `(u, v)` given `u`'s estimated degree.
    ///
    /// Returns `None` only when the ring is empty.
    pub fn owner_of_edge(&self, u: u64, v: u64, estimated_degree: u64) -> Option<AgentId> {
        let k = self.replication_factor(estimated_degree);
        if k == 1 {
            return self.ring.owner(u);
        }
        let replicas = self.ring.owners(u, k as usize);
        Some(Self::second_hash(self.kind(), &replicas, v))
    }

    /// Second-level consistent hash: place the replica agents on a mini
    /// ring by hashing their ids, then select the successor of
    /// `hash(v)`. Consistent hashing (rather than `hash(v) % k`) keeps
    /// edge movement minimal when the replication factor changes.
    #[inline]
    fn second_hash(kind: HashKind, replicas: &[AgentId], v: u64) -> AgentId {
        debug_assert!(!replicas.is_empty());
        let hv = kind.hash(v);
        let mut best: Option<(u64, AgentId)> = None; // smallest pos > hv
        let mut min: Option<(u64, AgentId)> = None; // wrap-around fallback
        for &a in replicas {
            let pos = kind.hash(a);
            let entry = (pos, a);
            if min.is_none_or(|m| entry < m) {
                min = Some(entry);
            }
            if pos > hv && best.is_none_or(|b| entry < b) {
                best = Some(entry);
            }
        }
        best.or(min).expect("nonempty replica set").1
    }

    /// Resolve the complete placement of vertex `u` once: replication
    /// factor, replica set, and the sorted second-level mini ring. All
    /// per-edge owner lookups for `u` then reduce to one hash plus a
    /// binary search via [`EdgeLocator::owner_from_placement`].
    pub fn placement(&self, u: u64, estimated_degree: u64) -> VertexPlacement {
        let k = self.replication_factor(estimated_degree);
        if k == 1 {
            return VertexPlacement {
                k,
                primary: self.ring.owner(u),
                split: None,
            };
        }
        let replicas = self.ring.owners(u, k as usize);
        let kind = self.kind();
        let mut minis: Vec<(u64, AgentId)> = replicas.iter().map(|&a| (kind.hash(a), a)).collect();
        minis.sort_unstable();
        VertexPlacement {
            k,
            primary: replicas.first().copied(),
            split: Some(Box::new(Split { replicas, minis })),
        }
    }

    /// Owner of edge `(u, v)` given `u`'s resolved placement. Returns
    /// exactly what [`EdgeLocator::owner_of_edge`] would for the same
    /// estimate: the mini ring is sorted by `(hash(agent), agent)`, so
    /// the successor of `hash(v)` — found by binary search — is the
    /// smallest entry greater than it, wrapping to the overall minimum.
    pub fn owner_from_placement(&self, p: &VertexPlacement, v: u64) -> Option<AgentId> {
        let Some(split) = &p.split else {
            return p.primary;
        };
        let hv = self.kind().hash(v);
        let idx = split.minis.partition_point(|&(pos, _)| pos <= hv);
        let idx = if idx == split.minis.len() { 0 } else { idx };
        Some(split.minis[idx].1)
    }

    /// Some replica of `u`, chosen by `salt` (e.g. a per-query random
    /// value) — the fast path for vertex queries where any replica can
    /// answer.
    pub fn any_replica(&self, u: u64, estimated_degree: u64, salt: u64) -> Option<AgentId> {
        let replicas = self.replicas_of_vertex(u, estimated_degree);
        if replicas.is_empty() {
            return None;
        }
        let idx = (self.kind().hash(salt) % replicas.len() as u64) as usize;
        Some(replicas[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locator(agents: u64, threshold: u64) -> EdgeLocator {
        EdgeLocator::new(
            Ring::from_agents(HashKind::Wang, 100, 0..agents),
            LocatorConfig {
                replication_threshold: threshold,
                max_replicas: 16,
            },
        )
    }

    #[test]
    fn replication_factor_scales_with_degree() {
        let loc = locator(32, 100);
        assert_eq!(loc.replication_factor(0), 1);
        assert_eq!(loc.replication_factor(99), 1);
        assert_eq!(loc.replication_factor(100), 1);
        assert_eq!(loc.replication_factor(101), 2);
        assert_eq!(loc.replication_factor(1000), 10);
        // capped by max_replicas
        assert_eq!(loc.replication_factor(1_000_000), 16);
    }

    #[test]
    fn replication_capped_by_agent_count() {
        let loc = locator(3, 10);
        assert_eq!(loc.replication_factor(10_000), 3);
    }

    #[test]
    fn low_degree_edge_owner_matches_plain_ring() {
        let loc = locator(16, 1000);
        for u in 0..100u64 {
            let owner = loc.owner_of_edge(u, u + 1, 5).unwrap();
            assert_eq!(owner, loc.ring().owner(u).unwrap());
        }
    }

    #[test]
    fn high_degree_edges_spread_over_replica_set() {
        let loc = locator(32, 100);
        let u = 7;
        let deg = 450; // k = 5
        let replicas = loc.replicas_of_vertex(u, deg);
        assert_eq!(replicas.len(), 5);
        let mut used = std::collections::HashSet::new();
        for v in 0..deg {
            let owner = loc.owner_of_edge(u, v, deg).unwrap();
            assert!(replicas.contains(&owner));
            used.insert(owner);
        }
        assert!(
            used.len() >= 4,
            "destination hash should use most replicas, used {}",
            used.len()
        );
    }

    #[test]
    fn edge_owner_is_deterministic() {
        let loc = locator(8, 50);
        for (u, v) in [(1u64, 2u64), (1000, 3), (3, 1000)] {
            assert_eq!(loc.owner_of_edge(u, v, 500), loc.owner_of_edge(u, v, 500));
        }
    }

    #[test]
    fn growing_degree_estimate_moves_few_edges() {
        // When a vertex crosses a replication threshold, only edges that
        // rehash to the new replica should move: the second-level
        // consistent hash keeps the rest stable.
        let loc = locator(32, 100);
        let u = 42;
        let edges: Vec<u64> = (0..1000).collect();
        let before: Vec<_> = edges
            .iter()
            .map(|&v| loc.owner_of_edge(u, v, 250).unwrap()) // k = 3
            .collect();
        let after: Vec<_> = edges
            .iter()
            .map(|&v| loc.owner_of_edge(u, v, 350).unwrap()) // k = 4
            .collect();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(
            moved < edges.len() / 2,
            "k 3->4 moved {moved} of {} edges",
            edges.len()
        );
    }

    #[test]
    fn any_replica_is_member_of_replica_set() {
        let loc = locator(16, 100);
        let replicas = loc.replicas_of_vertex(5, 500);
        for salt in 0..50u64 {
            let got = loc.any_replica(5, 500, salt).unwrap();
            assert!(replicas.contains(&got));
        }
    }

    #[test]
    fn placement_matches_per_edge_resolution() {
        // The cached path (placement + owner_from_placement) must agree
        // with the direct path (owner_of_edge) for every (u, v, est),
        // across k = 1 and k > 1 regimes.
        for agents in [1u64, 2, 3, 8, 32] {
            let loc = locator(agents, 100);
            for u in 0..64u64 {
                for est in [0u64, 1, 99, 101, 450, 10_000] {
                    let p = loc.placement(u, est);
                    assert_eq!(p.k, loc.replication_factor(est));
                    assert_eq!(p.replicas(), loc.replicas_of_vertex(u, est));
                    assert_eq!(p.primary, loc.ring().owner(u));
                    for v in 0..64u64 {
                        assert_eq!(
                            loc.owner_from_placement(&p, v),
                            loc.owner_of_edge(u, v, est),
                            "agents={agents} u={u} v={v} est={est}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn placement_on_empty_ring() {
        let loc = EdgeLocator::new(Ring::new(HashKind::Wang, 4), LocatorConfig::default());
        let p = loc.placement(1, 0);
        assert_eq!(p.primary, None);
        assert!(p.replicas().is_empty());
        assert_eq!(loc.owner_from_placement(&p, 2), None);
    }

    #[test]
    fn empty_ring_yields_none() {
        let loc = EdgeLocator::new(Ring::new(HashKind::Wang, 4), LocatorConfig::default());
        assert_eq!(loc.owner_of_edge(1, 2, 0), None);
        assert_eq!(loc.any_replica(1, 0, 0), None);
    }
}
