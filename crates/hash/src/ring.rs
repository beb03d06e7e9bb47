//! Consistent-hash ring with virtual agents (ElGA §3.4.1–3.4.2).
//!
//! Agents are placed on a 64-bit ring at positions derived by hashing
//! their identifiers; each agent contributes `virtual_per_agent`
//! positions (the paper finds 100 a good default, Figure 6). A key is
//! owned by the agent whose position is the key hash's successor on the
//! ring. Joins and leaves move only the keys adjacent to the affected
//! positions — the property that makes ElGA's elasticity cheap
//! (Figure 16).

use crate::funcs::HashKind;

/// Identifier of an Agent (one per core in the paper's deployment).
pub type AgentId = u64;

/// Mixing constant for deriving virtual-agent identifiers.
const VIRT_SALT: u64 = 0x0100_0000_01B3;

/// A consistent-hash ring over agents.
#[derive(Debug, Clone)]
pub struct Ring {
    kind: HashKind,
    virtual_per_agent: u32,
    /// `(position, agent)` pairs sorted by position (ties by agent id).
    positions: Vec<(u64, AgentId)>,
    /// Agent ids, sorted, each once.
    agents: Vec<AgentId>,
}

impl Ring {
    /// Create an empty ring.
    ///
    /// # Panics
    /// Panics if `virtual_per_agent` is zero.
    pub fn new(kind: HashKind, virtual_per_agent: u32) -> Self {
        assert!(virtual_per_agent > 0, "need at least one virtual agent");
        Ring {
            kind,
            virtual_per_agent,
            positions: Vec::new(),
            agents: Vec::new(),
        }
    }

    /// Create a ring already populated with `agents`. Positions are
    /// built in bulk and sorted once — `O(P·V log(P·V))` instead of the
    /// quadratic cost of `P·V` incremental inserts (matters at the
    /// paper's 2048-agent scale with many virtual agents).
    pub fn from_agents(
        kind: HashKind,
        virtual_per_agent: u32,
        agents: impl IntoIterator<Item = AgentId>,
    ) -> Self {
        let mut ring = Ring::new(kind, virtual_per_agent);
        let mut ids: Vec<AgentId> = agents.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut positions = Vec::with_capacity(ids.len() * virtual_per_agent as usize);
        for &a in &ids {
            for j in 0..virtual_per_agent {
                positions.push((ring.virtual_position(a, j), a));
            }
        }
        positions.sort_unstable();
        ring.agents = ids;
        ring.positions = positions;
        ring
    }

    /// The hash function used for ring placement and key lookup.
    pub fn kind(&self) -> HashKind {
        self.kind
    }

    /// Number of virtual positions each agent contributes.
    pub fn virtual_per_agent(&self) -> u32 {
        self.virtual_per_agent
    }

    /// Position of virtual replica `j` of `agent`.
    #[inline]
    fn virtual_position(&self, agent: AgentId, j: u32) -> u64 {
        self.kind
            .hash(agent.wrapping_mul(VIRT_SALT) ^ crate::funcs::wang64(j as u64))
    }

    /// Add an agent (no-op if already present). `O(V log N)` for `V`
    /// virtual positions.
    pub fn add_agent(&mut self, agent: AgentId) -> bool {
        match self.agents.binary_search(&agent) {
            Ok(_) => false,
            Err(idx) => {
                self.agents.insert(idx, agent);
                for j in 0..self.virtual_per_agent {
                    let pos = self.virtual_position(agent, j);
                    let entry = (pos, agent);
                    let at = self.positions.partition_point(|&p| p < entry);
                    self.positions.insert(at, entry);
                }
                true
            }
        }
    }

    /// Remove an agent (no-op if absent).
    pub fn remove_agent(&mut self, agent: AgentId) -> bool {
        match self.agents.binary_search(&agent) {
            Err(_) => false,
            Ok(idx) => {
                self.agents.remove(idx);
                self.positions.retain(|&(_, a)| a != agent);
                true
            }
        }
    }

    /// Whether the ring currently contains `agent`.
    pub fn contains(&self, agent: AgentId) -> bool {
        self.agents.binary_search(&agent).is_ok()
    }

    /// Number of distinct agents on the ring.
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// True when no agents are present.
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
    }

    /// The sorted set of agents on the ring.
    pub fn agents(&self) -> &[AgentId] {
        &self.agents
    }

    /// Index of the first ring position strictly greater than `h`
    /// (wrapping to 0 at the end of the vector).
    #[inline]
    fn successor_index(&self, h: u64) -> usize {
        let idx = self.positions.partition_point(|&(pos, _)| pos <= h);
        if idx == self.positions.len() {
            0
        } else {
            idx
        }
    }

    /// Owner of a *pre-hashed* key: the agent at the key's successor
    /// position. `O(log(P * V))`. Returns `None` on an empty ring.
    #[inline]
    pub fn owner_of_hash(&self, h: u64) -> Option<AgentId> {
        if self.positions.is_empty() {
            return None;
        }
        Some(self.positions[self.successor_index(h)].1)
    }

    /// Owner of `key` (hashed with the ring's hash function first).
    #[inline]
    pub fn owner(&self, key: u64) -> Option<AgentId> {
        self.owner_of_hash(self.kind.hash(key))
    }

    /// The first `k` *distinct* agents at and after the successor of a
    /// pre-hashed key, in ring order. Used as a vertex's replica set
    /// (ElGA Figure 3). Returns fewer than `k` agents only when the ring
    /// holds fewer than `k`.
    pub fn owners_of_hash(&self, h: u64, k: usize) -> Vec<AgentId> {
        let mut out = Vec::with_capacity(k.min(self.agents.len()));
        if self.positions.is_empty() || k == 0 {
            return out;
        }
        let want = k.min(self.agents.len());
        let start = self.successor_index(h);
        for off in 0..self.positions.len() {
            let (_, agent) = self.positions[(start + off) % self.positions.len()];
            if !out.contains(&agent) {
                out.push(agent);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// [`Ring::owners_of_hash`] for an unhashed key.
    pub fn owners(&self, key: u64, k: usize) -> Vec<AgentId> {
        self.owners_of_hash(self.kind.hash(key), k)
    }

    /// Count how many of `keys` each agent owns; used by the Figure 5/6
    /// load-balance experiments. Returns `(agent, count)` pairs for every
    /// agent (including zero counts), sorted by agent id.
    pub fn assignment_counts(&self, keys: impl IntoIterator<Item = u64>) -> Vec<(AgentId, u64)> {
        let mut counts: Vec<(AgentId, u64)> = self.agents.iter().map(|&a| (a, 0)).collect();
        for key in keys {
            if let Some(owner) = self.owner(key) {
                let idx = counts.binary_search_by_key(&owner, |&(a, _)| a).unwrap();
                counts[idx].1 += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u64, v: u32) -> Ring {
        Ring::from_agents(HashKind::Wang, v, 0..n)
    }

    #[test]
    fn empty_ring_has_no_owner() {
        let r = Ring::new(HashKind::Wang, 10);
        assert!(r.is_empty());
        assert_eq!(r.owner(42), None);
        assert!(r.owners(42, 3).is_empty());
    }

    #[test]
    fn single_agent_owns_everything() {
        let r = ring(1, 7);
        for k in 0..100 {
            assert_eq!(r.owner(k), Some(0));
        }
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut r = ring(4, 16);
        assert!(r.contains(2));
        assert!(r.remove_agent(2));
        assert!(!r.contains(2));
        assert!(!r.remove_agent(2));
        assert!(r.add_agent(2));
        assert!(!r.add_agent(2));
        assert_eq!(r.len(), 4);
        // positions are sorted after all mutations
        assert!(r.positions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn owners_are_distinct_and_bounded() {
        let r = ring(8, 32);
        for key in 0..200u64 {
            let owners = r.owners(key, 3);
            assert_eq!(owners.len(), 3);
            let set: std::collections::HashSet<_> = owners.iter().collect();
            assert_eq!(set.len(), 3, "replica set must be distinct agents");
        }
        // asking for more agents than exist returns all of them
        assert_eq!(r.owners(9, 100).len(), 8);
    }

    #[test]
    fn first_owner_consistent_with_owner() {
        let r = ring(16, 100);
        for key in 0..500u64 {
            assert_eq!(r.owners(key, 4)[0], r.owner(key).unwrap());
        }
    }

    #[test]
    fn minimal_movement_on_join() {
        let before = ring(16, 100);
        let mut after = before.clone();
        after.add_agent(999);
        let mut moved = 0;
        for key in 0..20_000u64 {
            let b = before.owner(key).unwrap();
            let a = after.owner(key).unwrap();
            if a != b {
                assert_eq!(a, 999, "keys may only move to the new agent");
                moved += 1;
            }
        }
        // Expect roughly 1/17 of keys to move.
        assert!(moved > 0);
        assert!((moved as f64) < 20_000.0 * 3.0 / 17.0);
    }

    #[test]
    fn minimal_movement_on_leave() {
        let before = ring(16, 100);
        let mut after = before.clone();
        after.remove_agent(7);
        for key in 0..20_000u64 {
            let b = before.owner(key).unwrap();
            let a = after.owner(key).unwrap();
            if b != 7 {
                assert_eq!(a, b, "only the departed agent's keys may move");
            } else {
                assert_ne!(a, 7);
            }
        }
    }

    #[test]
    fn virtual_agents_improve_balance() {
        let keys: Vec<u64> = (0..100_000).collect();
        let imbalance = |v: u32| {
            let r = ring(32, v);
            let counts = r.assignment_counts(keys.iter().copied());
            let max = counts.iter().map(|&(_, c)| c).max().unwrap() as f64;
            let avg = keys.len() as f64 / 32.0;
            max / avg
        };
        let coarse = imbalance(1);
        let fine = imbalance(100);
        assert!(
            fine < coarse,
            "100 virtual agents ({fine:.3}) should beat 1 ({coarse:.3})"
        );
        assert!(fine < 1.5, "imbalance with 100 virtual agents: {fine:.3}");
    }

    #[test]
    fn assignment_counts_cover_all_keys() {
        let r = ring(5, 10);
        let counts = r.assignment_counts(0..1234);
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u64>(), 1234);
        assert_eq!(counts.len(), 5);
    }

    #[test]
    fn rebuild_matches_incremental_construction() {
        // Building from a full agent list must equal incremental joins —
        // a directory broadcasting a member list and an agent that saw
        // each join individually must agree on every ownership decision.
        let incremental = ring(12, 25);
        let rebuilt = Ring::from_agents(HashKind::Wang, 25, (0..12).rev());
        for key in 0..2_000u64 {
            assert_eq!(incremental.owner(key), rebuilt.owner(key));
            assert_eq!(incremental.owners(key, 3), rebuilt.owners(key, 3));
        }
    }
}
