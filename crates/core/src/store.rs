//! Sharded vertex storage.
//!
//! [`VertexStore`] splits an agent's vertex map into a *fixed* number
//! of shards keyed by `wang64(v)`. The scatter / combine / apply
//! kernels visit the shards in index order and look at the mailbox for
//! reads between them, so a long superstep yields to readers every
//! shard's worth of work.
//!
//! Each shard also carries three *worklists* ([`Worklists`]), one per
//! kernel: the vertices whose flag for that kernel flipped on since the
//! kernel last ran. Handlers push on the false→true flip; the kernels
//! drain the sorted lists, so a superstep touches only the frontier
//! instead of scanning the whole map (DESIGN.md "Worklists").

use crate::adjacency::Tally;
use crate::agent::VertexEntry;
use elga_graph::types::VertexId;
use elga_hash::{wang64, FxHashMap};

/// log2 of the shard count.
const SHARD_BITS: u32 = 5;
/// Fixed shard count: the unit of a kernel's read yield and of its
/// worklists.
pub(crate) const SHARDS: usize = 1 << SHARD_BITS;

/// Shard index of a vertex. Uses `wang64` (not the raw id) so dense
/// vertex ranges spread evenly.
#[inline]
pub(crate) fn shard_of(v: VertexId) -> usize {
    (wang64(v) as usize) & (SHARDS - 1)
}

/// Per-kernel worklists of one shard. Each is a superset of the
/// entries that carry the kernel's flag: pushed once per false→true
/// flip, never pruned when a flag is cleared elsewhere (the kernels
/// re-check the flag), drained and sorted by the kernel.
#[derive(Debug, Default)]
pub(crate) struct Worklists {
    /// Vertices with `has_partial` set (combine).
    pub partial_dirty: Vec<VertexId>,
    /// Vertices with `active` or `has_pending_delta` set (scatter).
    /// Complete from a run's first sweep on, across the runs after it,
    /// until something sets `needs_sweep`.
    pub scatter: Vec<VertexId>,
    /// Vertices that [`VertexEntry::wants_apply`] (apply).
    pub apply: Vec<VertexId>,
}

/// One shard: a slice of the vertex map plus its worklists.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub map: FxHashMap<VertexId, VertexEntry>,
    pub lists: Worklists,
}

impl Shard {
    /// The worklist invariant, checked by debug builds and tests: no
    /// entry outside the scatter list carries `active` /
    /// `has_pending_delta` and none outside the apply list
    /// [`VertexEntry::wants_apply`].
    #[cfg(any(debug_assertions, test))]
    pub fn assert_worklists_complete(&self) {
        use elga_hash::FxHashSet;
        let scatter: FxHashSet<VertexId> = self.lists.scatter.iter().copied().collect();
        let apply: FxHashSet<VertexId> = self.lists.apply.iter().copied().collect();
        for (v, e) in &self.map {
            assert!(
                !(e.active || e.has_pending_delta) || scatter.contains(v),
                "vertex {v} is active/pending but not on the scatter list"
            );
            assert!(
                !e.wants_apply() || apply.contains(v),
                "vertex {v} wants an apply but is not on the apply list"
            );
        }
    }
}

/// The agent's vertex map, split into [`SHARDS`] fixed shards.
#[derive(Debug)]
pub(crate) struct VertexStore {
    shards: Vec<Shard>,
    len: usize,
    /// What the entries' adjacencies hold and cost: kept by their
    /// mutators, which take it beside the entry
    /// ([`VertexStore::entry_and_tally`]), and by [`VertexStore::remove`].
    tally: Tally,
    /// Entries that may hold edges or primary-only state the adopted
    /// view does not place here (*strays*), listed when written and
    /// taken by the next sweep under a new ring: a superset, repeats
    /// and gone ids allowed ([`VertexStore::list_stray`]).
    strays: Vec<VertexId>,
}

impl Default for VertexStore {
    fn default() -> Self {
        VertexStore {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            len: 0,
            tally: Tally::default(),
            strays: Vec::new(),
        }
    }
}

impl VertexStore {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, v: &VertexId) -> Option<&VertexEntry> {
        self.shards[shard_of(*v)].map.get(v)
    }

    pub fn get_mut(&mut self, v: &VertexId) -> Option<&mut VertexEntry> {
        self.shards[shard_of(*v)].map.get_mut(v)
    }

    /// Entry-or-default plus the shard's worklists, for handlers that
    /// flip a kernel flag and must record the flip. One probe of the
    /// shard map: this is the per-message cost of every delivery.
    pub fn entry_and_lists(&mut self, v: VertexId) -> (&mut VertexEntry, &mut Worklists) {
        let (entry, lists, _) = self.entry_parts(v);
        (entry, lists)
    }

    /// Entry-or-default with both: the shard's worklists and the tally.
    pub fn entry_parts(&mut self, v: VertexId) -> (&mut VertexEntry, &mut Worklists, &mut Tally) {
        let VertexStore {
            shards, len, tally, ..
        } = self;
        let Shard { map, lists } = &mut shards[shard_of(v)];
        let entry = map.entry(v).or_insert_with(|| {
            *len += 1;
            VertexEntry::default()
        });
        (entry, lists, tally)
    }

    /// `v`'s entry, if held, plus the tally its adjacency's mutators
    /// keep.
    pub fn get_mut_and_tally(&mut self, v: &VertexId) -> Option<(&mut VertexEntry, &mut Tally)> {
        let VertexStore { shards, tally, .. } = self;
        let entry = shards[shard_of(*v)].map.get_mut(v)?;
        Some((entry, tally))
    }

    pub fn remove(&mut self, v: &VertexId) -> Option<VertexEntry> {
        let removed = self.shards[shard_of(*v)].map.remove(v);
        if let Some(e) = &removed {
            self.len -= 1;
            e.adj.untally(&mut self.tally);
        }
        removed
    }

    pub fn clear(&mut self) {
        for s in &mut self.shards {
            s.map.clear();
        }
        self.clear_worklists();
        self.len = 0;
        self.tally = Tally::default();
        self.strays.clear();
    }

    /// List `v` as a possible stray. Past twice the store's size the
    /// list drops its repeats and the ids no longer held, so it never
    /// outgrows the store.
    pub fn list_stray(&mut self, v: VertexId) {
        self.strays.push(v);
        if self.strays.len() > 2 * self.len + 64 {
            self.strays.sort_unstable();
            self.strays.dedup();
            let shards = &self.shards;
            self.strays
                .retain(|v| shards[shard_of(*v)].map.contains_key(v));
        }
    }

    /// Take the listed strays still held, once each, in store order —
    /// the order a walk of the whole store meets them in.
    pub fn take_strays(&mut self) -> Vec<VertexId> {
        let mut listed = std::mem::take(&mut self.strays);
        listed.sort_unstable_by_key(|&v| (shard_of(v), v));
        listed.dedup();
        let mut out = Vec::with_capacity(listed.len());
        for run in listed.chunk_by(|a, b| shard_of(*a) == shard_of(*b)) {
            let map = &self.shards[shard_of(run[0])].map;
            out.extend(map.keys().copied().filter(|v| run.binary_search(v).is_ok()));
        }
        out
    }

    /// Edges held: out-placements, then in-placements.
    pub fn held(&self) -> [usize; 2] {
        self.tally.held
    }

    /// What the store costs on the heap: the maps' capacity in entries,
    /// plus the adjacency lists and their indexes. Constant time.
    pub fn heap_bytes(&self) -> usize {
        let slots: usize = self.shards.iter().map(|s| s.map.capacity()).sum();
        slots * std::mem::size_of::<(VertexId, VertexEntry)>() + self.tally.heap
    }

    /// Whether no listed entry holds a flag a run consumes (to scatter,
    /// combine or fold): with complete lists, no entry does.
    pub fn lists_settled(&self) -> bool {
        self.shards.iter().all(|Shard { map, lists }| {
            let any = |ids: &[VertexId], flag: fn(&VertexEntry) -> bool| {
                ids.iter().any(|v| map.get(v).is_some_and(flag))
            };
            !any(&lists.scatter, |e| e.active || e.has_pending_delta)
                && !any(&lists.partial_dirty, |e| e.has_partial)
                && !any(&lists.apply, |e| e.has_ppartial)
        })
    }

    /// Drop all worklists (run start resets the flags they mirror, or
    /// schedules the sweep that re-establishes them).
    pub fn clear_worklists(&mut self) {
        for s in &mut self.shards {
            s.lists.partial_dirty.clear();
            s.lists.scatter.clear();
            s.lists.apply.clear();
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&VertexId, &VertexEntry)> {
        self.shards.iter().flat_map(|s| s.map.iter())
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&VertexId, &mut VertexEntry)> {
        self.shards.iter_mut().flat_map(|s| s.map.iter_mut())
    }

    pub fn keys(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.shards.iter().flat_map(|s| s.map.keys().copied())
    }

    /// The shards themselves, in index order, for the kernels.
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Read-only shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }
}

#[cfg(test)]
impl VertexStore {
    /// Entry-or-default for a fixture's direct write, which no owner
    /// check placed: the entry is listed as a possible stray.
    pub fn entry_or_default(&mut self, v: VertexId) -> &mut VertexEntry {
        self.list_stray(v);
        self.entry_and_lists(v).0
    }

    /// Entry-or-default plus the tally its adjacency's mutators keep.
    pub fn entry_and_tally(&mut self, v: VertexId) -> (&mut VertexEntry, &mut Tally) {
        let (entry, _, tally) = self.entry_parts(v);
        (entry, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for v in 0..10_000u64 {
            let s = shard_of(v);
            assert!(s < SHARDS);
            assert_eq!(s, shard_of(v));
        }
    }

    #[test]
    fn vertices_land_in_their_shard() {
        let mut store = VertexStore::default();
        for v in 0..500u64 {
            store.entry_or_default(v).state = v + 1;
        }
        assert_eq!(store.len(), 500);
        for v in 0..500u64 {
            assert!(store.shards_mut()[shard_of(v)].map.contains_key(&v));
            assert_eq!(store.get(&v).unwrap().state, v + 1);
        }
        // Every vertex appears exactly once across shards.
        assert_eq!(store.iter().count(), 500);
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let mut store = VertexStore::default();
        store.entry_or_default(1);
        store.entry_or_default(2);
        store.entry_or_default(1); // existing: no double count
        assert_eq!(store.len(), 2);
        assert!(store.remove(&1).is_some());
        assert!(store.remove(&1).is_none());
        assert_eq!(store.len(), 1);
        store.clear();
        assert_eq!(store.len(), 0);
        assert!(store.get(&2).is_none());
    }

    #[test]
    fn worklists_live_with_the_entry_shard() {
        let mut store = VertexStore::default();
        let (e, lists) = store.entry_and_lists(77);
        e.has_partial = true;
        lists.partial_dirty.push(77);
        e.active = true;
        lists.scatter.push(77);
        e.has_ppartial = true;
        lists.apply.push(77);
        let lists = &store.shards()[shard_of(77)].lists;
        assert_eq!(lists.partial_dirty, vec![77]);
        assert_eq!(lists.scatter, vec![77]);
        assert_eq!(lists.apply, vec![77]);
        store.clear_worklists();
        let lists = &store.shards()[shard_of(77)].lists;
        assert!(lists.partial_dirty.is_empty() && lists.scatter.is_empty());
        assert!(lists.apply.is_empty());
    }
}
