//! Owner-resolution cache that follows the view from epoch to epoch.
//!
//! Every hot path in the system — scatter routing, streamer ingest,
//! change application, async handlers — asks the same question over
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
//! hub over the replication threshold — is not an epoch.
//!
//! Each entry remembers the epoch it was last checked under, and
//! [`OwnerCache::adopt_epoch`] decides what a new epoch costs:
//!
//! * the new view **may split** a vertex: any `k` may have changed and
//!   telling needs a sketch estimate per vertex, which is what a miss
//!   pays anyway — everything is dropped;
//! * the new view's sketch bound proves **every `k` is 1**: a placement
//!   is then the ring successor and nothing else, so entries stay and
//!   the first lookup of each under the new epoch *revalidates* it in
//!   place — one ring lookup, no estimate, no re-insert. A join or a
//!   leave moves `~1/P` of the successors (§3.4.1–3.4.2); the other
//!   entries are served as they are. An entry that was split under the
//!   view it was resolved for is never served across an epoch: its
//!   first lookup resolves it anew.
//!
//! The bound only ever *saves estimates*; which of the two happened is
//! the caller's to say because `DirectoryView` lives in `elga-core` and
//! this crate only sees the epoch number, which keeps the dependency
//! arrow pointing the right way. Callers advance the cache where they
//! adopt the view, so a cache's epoch is its view's by construction.

use crate::fx::FxHashMap;
use crate::locator::{EdgeLocator, VertexPlacement};
use crate::ring::AgentId;
use std::collections::hash_map::Entry;

/// One memoised placement and the epoch it was last checked under.
#[derive(Debug)]
struct Memo {
    placement: VertexPlacement,
    epoch: u64,
}

/// Memo of `vertex → placement`, wrapping [`EdgeLocator`]. Degree
/// estimates are supplied by closures so the cache works against any
/// estimator (live CMS view, tests with fixed degrees) and only pays
/// for estimation on a miss.
#[derive(Debug)]
pub struct OwnerCache {
    epoch: u64,
    entries: FxHashMap<u64, Memo>,
    /// Heap bytes of the split placements held, kept where an entry is
    /// inserted, replaced or cleared.
    split_bytes: usize,
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
            split_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Align the cache with a view epoch about which nothing else is
    /// known: drops all entries if it differs from the current one.
    pub fn ensure_epoch(&mut self, epoch: u64) {
        self.adopt_epoch(epoch, true);
    }

    /// Follow the caller's view to `epoch`. `may_split` is whether the
    /// new view can give any vertex `k > 1`. If it can, every entry is
    /// dropped; if not, entries stay and each is revalidated against
    /// the new ring by its next lookup (module docs). Call where the
    /// view is adopted, with the locator of that view in every lookup
    /// that follows.
    pub fn adopt_epoch(&mut self, epoch: u64, may_split: bool) {
        if self.epoch != epoch {
            self.epoch = epoch;
            if may_split {
                self.entries.clear();
                self.split_bytes = 0;
            }
        }
    }

    /// The epoch lookups are answered for.
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

    /// What the memo costs on the heap: the map's capacity in entries,
    /// plus the replica sets and mini rings of split placements.
    /// Constant time.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, Memo)>() + self.split_bytes
    }

    /// Lifetime lookup counters `(hits, misses)`. Hits count lookups
    /// served from the memo, revalidated entries whose owner stood
    /// included; misses count placements resolved, and revalidations
    /// that found a new owner. Counters survive epoch changes (they
    /// describe the cache, not one view).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Count `n` lookups answered outside the cache from an answer of
    /// its own that the caller kept — a scatter edge served from the
    /// slot its owner lookup once filled. Keeps the hit rate meaning
    /// "share of owner questions that cost no resolution".
    #[inline]
    pub fn count_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// The placement of `u` in one probe of the memo: served,
    /// revalidated, or resolved (and memoised) via `estimate`.
    #[inline]
    pub fn placement(
        &mut self,
        loc: &EdgeLocator,
        u: u64,
        estimate: impl FnOnce() -> u64,
    ) -> &VertexPlacement {
        let epoch = self.epoch;
        match self.entries.entry(u) {
            Entry::Occupied(e) => {
                let m = e.into_mut();
                if m.epoch == epoch {
                    self.hits += 1;
                } else {
                    // Kept across an epoch, so every `k` is 1 now: an
                    // unsplit entry needs its ring successor checked, a
                    // split one is stale whatever the ring says.
                    m.epoch = epoch;
                    let stood = if m.placement.k == 1 {
                        let primary = loc.ring().owner(u);
                        std::mem::replace(&mut m.placement.primary, primary) == primary
                    } else {
                        let fresh = loc.placement(u, estimate());
                        self.split_bytes += fresh.heap_bytes();
                        self.split_bytes -= std::mem::replace(&mut m.placement, fresh).heap_bytes();
                        false
                    };
                    if stood {
                        self.hits += 1;
                    } else {
                        self.misses += 1;
                    }
                }
                &m.placement
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                let placement = loc.placement(u, estimate());
                self.split_bytes += placement.heap_bytes();
                &e.insert(Memo { placement, epoch }).placement
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
        out.reserve(pairs.len());
        for &(u, v) in pairs {
            let p = self.placement(loc, u, || estimate(u));
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
    fn a_membership_epoch_revalidates_unsplit_entries_in_place() {
        let loc_a = locator(4, 100);
        let loc_b = locator(5, 100); // agent 4 joined
        let mut cache = OwnerCache::new();
        cache.adopt_epoch(1, false);
        for u in 0..200u64 {
            cache.placement(&loc_a, u, || 5);
        }
        assert_eq!(cache.stats(), (0, 200));
        cache.adopt_epoch(2, false);
        assert_eq!(cache.len(), 200, "nothing is dropped");
        let moved = (0..200u64)
            .filter(|&u| loc_a.ring().owner(u) != loc_b.ring().owner(u))
            .count() as u64;
        assert!(moved > 0 && moved < 100);
        for _ in 0..2 {
            for u in 0..200u64 {
                let p = cache.placement(&loc_b, u, || panic!("k = 1 needs no estimate"));
                assert_eq!(*p, loc_b.placement(u, 5));
            }
        }
        // Only the successors that moved count as misses; the second
        // pass is served without a ring lookup.
        assert_eq!(cache.stats(), (400 - moved, 200 + moved));
    }

    #[test]
    fn a_split_entry_is_resolved_anew_under_the_next_epoch() {
        let loc = locator(8, 100);
        let mut cache = OwnerCache::new();
        cache.adopt_epoch(1, true);
        assert_eq!(cache.placement(&loc, 9, || 500).k, 5);
        // The next view cannot split (say its sketch was rebuilt): the
        // entry stays in the map but is not served.
        cache.adopt_epoch(2, false);
        let mut asked = false;
        let p = cache.placement(&loc, 9, || {
            asked = true;
            5
        });
        assert_eq!(*p, loc.placement(9, 5));
        assert!(asked);
        assert_eq!(cache.stats(), (0, 2));
    }

    /// The running sum of split bytes is what the entries hold, through
    /// inserts, epochs that keep entries (a split one re-resolved) and
    /// an epoch that drops them.
    #[test]
    fn heap_bytes_follow_the_split_entries() {
        let held = |cache: &OwnerCache| -> usize {
            let split: usize = cache
                .entries
                .values()
                .map(|m| m.placement.heap_bytes())
                .sum();
            cache.entries.capacity() * std::mem::size_of::<(u64, Memo)>() + split
        };
        let (loc, wider) = (locator(8, 100), locator(9, 100));
        let mut cache = OwnerCache::new();
        assert_eq!(cache.heap_bytes(), 0);
        cache.adopt_epoch(1, true);
        for u in 0..60u64 {
            cache.placement(&loc, u, || degree(u));
        }
        assert!(cache.split_bytes > 0, "multiples of 3 are split");
        assert_eq!(cache.heap_bytes(), held(&cache));
        // Kept across the epoch: split entries resolve anew (now whole).
        cache.adopt_epoch(2, false);
        for u in 0..60u64 {
            cache.placement(&wider, u, || 5);
        }
        assert_eq!((cache.split_bytes, cache.heap_bytes()), (0, held(&cache)));
        for u in 60..90u64 {
            cache.placement(&wider, u, || degree(u));
        }
        assert!(cache.split_bytes > 0);
        assert_eq!(cache.heap_bytes(), held(&cache));
        cache.adopt_epoch(3, true);
        assert_eq!((cache.split_bytes, cache.len()), (0, 0));
        assert_eq!(cache.heap_bytes(), held(&cache));
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
