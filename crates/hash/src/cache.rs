//! Epoch-scoped owner-resolution cache.
//!
//! Every hot path in the system — scatter routing, streamer ingest,
//! change application, migration sweeps — asks the same question over
//! and over: "who owns edge `(u, v)`?". Answering it from scratch costs
//! a count-min-sketch estimate (`depth` row hashes) plus an
//! `O(log P·V)` ring walk plus, for replicated vertices, re-hashing the
//! replica set. All of that depends only on `u` and the current
//! directory view, so an [`OwnerCache`] memoises the resolved
//! [`VertexPlacement`] per source vertex and reduces each subsequent
//! edge of the same source to one hash and a binary search over the
//! mini ring.
//!
//! ## Invalidation
//!
//! A view epoch names a *placement function*: the same vertex resolves
//! to the same [`VertexPlacement`] under every sketch any participant
//! holds within one epoch. The directory opens a new epoch for exactly
//! the changes that can break that — membership (ring successors
//! move), ring or replication parameters, and a sketch fold under
//! which some vertex may be split (`k` can change). A fold that leaves
//! every vertex at `k = 1` — every ingest batch, on a graph without a
//! hub over the replication threshold — is not an epoch, so a memo
//! lives as long as the membership does, not as long as a batch.
//!
//! The cache is therefore keyed by a single `u64` epoch, and
//! [`OwnerCache::ensure_epoch`] drops everything when it changes.
//! Callers pass the epoch of the view whose locator/sketch they
//! resolve against. (Dropping only the entries whose ring arc moved on
//! a membership change is still open: ROADMAP item 4.)
//!
//! `DirectoryView` lives in `elga-core`; this crate only sees the epoch
//! number, which keeps the dependency arrow pointing the right way.

use crate::fx::FxHashMap;
use crate::locator::{EdgeLocator, VertexPlacement};
use crate::ring::AgentId;

/// Memo of `vertex → placement` under one view epoch, wrapping
/// [`EdgeLocator`]. Degree estimates are supplied by closures so the
/// cache works against any estimator (live CMS view, tests with fixed
/// degrees) and only pays for estimation on a miss.
#[derive(Debug)]
pub struct OwnerCache {
    epoch: u64,
    entries: FxHashMap<u64, VertexPlacement>,
    enabled: bool,
    hits: u64,
    misses: u64,
}

impl Default for OwnerCache {
    fn default() -> Self {
        OwnerCache::new()
    }
}

impl OwnerCache {
    /// Empty cache, pinned to epoch 0 (matching the pre-join view).
    pub fn new() -> Self {
        OwnerCache {
            epoch: 0,
            entries: FxHashMap::default(),
            enabled: true,
            hits: 0,
            misses: 0,
        }
    }

    /// A cache that never retains entries: every lookup recomputes the
    /// placement. Exists so benchmarks can measure the uncached
    /// baseline through the identical code path.
    pub fn disabled() -> Self {
        OwnerCache {
            enabled: false,
            ..OwnerCache::new()
        }
    }

    /// Align the cache with a view epoch, dropping all entries if it
    /// differs from the epoch the entries were resolved under. Call
    /// before any batch of lookups.
    pub fn ensure_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.entries.clear();
        }
    }

    /// The epoch the current entries belong to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cached placements currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no placements are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime lookup counters `(hits, misses)`. Hits count lookups
    /// served from the memo; misses count distinct placements resolved.
    /// Counters survive epoch invalidation (they describe the cache,
    /// not one view).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The placement of `u`, resolving (and memoising) it via
    /// `estimate` on a miss.
    pub fn placement(
        &mut self,
        loc: &EdgeLocator,
        u: u64,
        estimate: impl FnOnce() -> u64,
    ) -> &VertexPlacement {
        if !self.enabled {
            // Keep at most the entry being resolved so the borrow has
            // somewhere to live, but never serve a stale one.
            self.entries.clear();
        }
        match self.entries.entry(u) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(loc.placement(u, estimate()))
            }
        }
    }

    /// Owner of edge `(u, v)`: cached placement of `u`, then the
    /// second-level hash of `v`. `None` only on an empty ring.
    pub fn owner_of_edge(
        &mut self,
        loc: &EdgeLocator,
        u: u64,
        v: u64,
        estimate: impl FnOnce() -> u64,
    ) -> Option<AgentId> {
        let p = self.placement(loc, u, estimate);
        // Placement borrow ends before the second hash needs `loc` only.
        loc.owner_from_placement(p, v)
    }

    /// Primary owner (ring successor) of `u`. `None` only on an empty
    /// ring.
    pub fn primary(
        &mut self,
        loc: &EdgeLocator,
        u: u64,
        estimate: impl FnOnce() -> u64,
    ) -> Option<AgentId> {
        self.placement(loc, u, estimate).primary
    }

    /// Replica set of `u` in ring order.
    pub fn replicas(
        &mut self,
        loc: &EdgeLocator,
        u: u64,
        estimate: impl FnOnce() -> u64,
    ) -> &[AgentId] {
        self.placement(loc, u, estimate).replicas()
    }

    /// Resolve the owners of a batch of edges in one pass, hashing and
    /// degree-estimating each *distinct source vertex* exactly once per
    /// epoch (the memo dedups; `estimate` runs only on a miss). Owners
    /// are appended to `out` in input order; `None` only on an empty
    /// ring.
    ///
    /// Hit/miss accounting matches the sequential lookups this
    /// replaces: each pair whose source was already memoised counts one
    /// hit; each distinct source resolved counts one miss.
    ///
    /// Single map probe per pair — measurably faster than a
    /// collect-sort-estimate-revisit scheme, whose extra pass and sort
    /// ate most of the memo's win on ingest-sized batches.
    pub fn resolve_many(
        &mut self,
        loc: &EdgeLocator,
        pairs: &[(u64, u64)],
        mut estimate: impl FnMut(u64) -> u64,
        out: &mut Vec<Option<AgentId>>,
    ) {
        if !self.enabled {
            // Per-call scratch only: batches dedup internally, but
            // nothing persists to the next call.
            self.entries.clear();
        }
        out.reserve(pairs.len());
        for &(u, v) in pairs {
            let p = match self.entries.entry(u) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.hits += 1;
                    e.into_mut()
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.misses += 1;
                    e.insert(loc.placement(u, estimate(u)))
                }
            };
            out.push(loc.owner_from_placement(p, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs::HashKind;
    use crate::locator::LocatorConfig;
    use crate::ring::Ring;

    fn locator(agents: u64, threshold: u64) -> EdgeLocator {
        EdgeLocator::new(
            Ring::from_agents(HashKind::Wang, 100, 0..agents),
            LocatorConfig {
                replication_threshold: threshold,
                max_replicas: 16,
            },
        )
    }

    /// Deterministic fake degree: high for multiples of 3 so both the
    /// k = 1 and k > 1 paths are exercised.
    fn degree(u: u64) -> u64 {
        if u.is_multiple_of(3) {
            777
        } else {
            5
        }
    }

    #[test]
    fn cached_owner_matches_direct_resolution() {
        let loc = locator(16, 100);
        let mut cache = OwnerCache::new();
        cache.ensure_epoch(1);
        for u in 0..40u64 {
            for v in 0..40u64 {
                assert_eq!(
                    cache.owner_of_edge(&loc, u, v, || degree(u)),
                    loc.owner_of_edge(u, v, degree(u)),
                    "u={u} v={v}"
                );
            }
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 40, "one resolution per distinct source");
        assert_eq!(hits, 40 * 40 - 40);
    }

    #[test]
    fn resolve_many_matches_direct_and_counts_once_per_source() {
        let loc = locator(8, 100);
        let mut cache = OwnerCache::new();
        cache.ensure_epoch(3);
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i % 13, i * 7 % 31)).collect();
        let mut estimated: Vec<u64> = Vec::new();
        let mut owners = Vec::new();
        cache.resolve_many(
            &loc,
            &pairs,
            |k| {
                estimated.push(k);
                degree(k)
            },
            &mut owners,
        );
        assert_eq!(owners.len(), pairs.len());
        for (&(u, v), &owner) in pairs.iter().zip(&owners) {
            assert_eq!(owner, loc.owner_of_edge(u, v, degree(u)));
        }
        // 13 distinct sources, estimated exactly once each, in first-
        // occurrence order.
        estimated.sort_unstable();
        assert_eq!(estimated, (0..13u64).collect::<Vec<_>>());
        assert_eq!(cache.stats(), (200 - 13, 13));

        // Second batch over the same sources: pure hits, no estimation.
        let mut owners2 = Vec::new();
        cache.resolve_many(
            &loc,
            &pairs,
            |_| panic!("no estimation expected on a warm cache"),
            &mut owners2,
        );
        assert_eq!(owners, owners2);
    }

    #[test]
    fn epoch_change_invalidates() {
        let loc_a = locator(4, 100);
        let loc_b = locator(9, 100); // different membership
        let mut cache = OwnerCache::new();
        cache.ensure_epoch(1);
        let _ = cache.owner_of_edge(&loc_a, 7, 8, || 5);
        assert_eq!(cache.len(), 1);
        // Same epoch: entry survives.
        cache.ensure_epoch(1);
        assert_eq!(cache.len(), 1);
        // New epoch (view changed): entry dropped, next lookup resolves
        // against the new locator.
        cache.ensure_epoch(2);
        assert!(cache.is_empty());
        assert_eq!(
            cache.owner_of_edge(&loc_b, 7, 8, || 5),
            loc_b.owner_of_edge(7, 8, 5)
        );
    }

    #[test]
    fn stale_estimates_are_not_served_across_epochs() {
        // A sketch fold that can change k opens an epoch without any
        // change of membership; the bump must force re-resolution.
        let loc = locator(8, 100);
        let mut cache = OwnerCache::new();
        cache.ensure_epoch(1);
        let before = cache.placement(&loc, 9, || 5).k;
        assert_eq!(before, 1);
        cache.ensure_epoch(2);
        let after = cache.placement(&loc, 9, || 500).k;
        assert_eq!(after, 5);
    }

    #[test]
    fn disabled_cache_resolves_but_never_hits() {
        let loc = locator(8, 100);
        let mut cache = OwnerCache::disabled();
        cache.ensure_epoch(1);
        for _ in 0..3 {
            assert_eq!(
                cache.owner_of_edge(&loc, 7, 8, || 5),
                loc.owner_of_edge(7, 8, 5)
            );
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 3);
        let mut owners = Vec::new();
        cache.resolve_many(&loc, &[(7, 8), (7, 9)], |_| 5, &mut owners);
        assert_eq!(owners[0], loc.owner_of_edge(7, 8, 5));
        assert_eq!(owners[1], loc.owner_of_edge(7, 9, 5));
    }

    #[test]
    fn empty_ring_resolves_to_none() {
        let loc = EdgeLocator::new(Ring::new(HashKind::Wang, 4), LocatorConfig::default());
        let mut cache = OwnerCache::new();
        assert_eq!(cache.owner_of_edge(&loc, 1, 2, || 0), None);
        assert_eq!(cache.primary(&loc, 1, || 0), None);
        let mut owners = Vec::new();
        cache.resolve_many(&loc, &[(1, 2)], |_| 0, &mut owners);
        assert_eq!(owners, vec![None]);
    }
}
