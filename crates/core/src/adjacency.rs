//! A vertex's adjacency: its out- and in-list, each of which finds an
//! edge by the far endpoint.
//!
//! An agent looks an edge up in the list that stores it — an insert
//! must turn a duplicate away and a delete must find the edge's
//! position for its `swap_remove`. A list of up to [`SCAN`] ids is
//! scanned. A longer one carries an open-addressed table of `u32`
//! positions whose keys live in the list itself, so a bucket is four
//! bytes (the trick `TargetTable` plays with its rows); every mutator
//! keeps it in step, and it is dropped again once the list is back at
//! half the scan length. Nothing outside this type knows an index
//! exists: removal is a `swap_remove` either way, so the order of a
//! list is the same whether or not it was ever indexed.

use crate::msg::Side;
use elga_graph::types::VertexId;
use elga_hash::wang64;
use std::mem::size_of;

/// Longest list found by a scan; a longer one is indexed.
const SCAN: usize = 32;

/// An empty index bucket.
const EMPTY: u32 = u32::MAX;

/// Store-wide totals, kept by [`Adjacency`]'s mutators: what every
/// list of a store holds, and what the lists and indexes cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Edges held, per side: out-placements first, then in-placements.
    pub held: [usize; 2],
    /// Heap bytes of the lists and their indexes, by capacity.
    pub heap: usize,
}

/// The out- and in-list of one vertex, far endpoints in insertion
/// order as changed by `swap_remove`, no id twice in a list.
#[derive(Clone, Default)]
pub(crate) struct Adjacency {
    /// The out-list, then the in-list.
    lists: [Vec<VertexId>; 2],
    /// Per list, no table or a power of two of buckets at least twice
    /// the list's length, each position in exactly one of them. `None`
    /// while neither list has one: a short-listed vertex pays 8 bytes.
    index: Option<Box<[Vec<u32>; 2]>>,
}

fn at(side: Side) -> usize {
    match side {
        Side::Out => 0,
        Side::In => 1,
    }
}

/// The bucket of `table` that holds `key`'s position in `list`, or the
/// empty one it belongs in (linear probing from the key's hash).
fn probe(table: &[u32], list: &[VertexId], key: VertexId) -> usize {
    let mask = table.len() - 1;
    let mut b = wang64(key) as usize & mask;
    while table[b] != EMPTY && list[table[b] as usize] != key {
        b = (b + 1) & mask;
    }
    b
}

/// Empty bucket `hole`, shifting later members of its probe run back
/// so that every key left stays reachable from its home bucket.
fn vacate(table: &mut [u32], list: &[VertexId], mut hole: usize) {
    let mask = table.len() - 1;
    let mut b = hole;
    loop {
        b = (b + 1) & mask;
        if table[b] == EMPTY {
            break;
        }
        let home = wang64(list[table[b] as usize]) as usize & mask;
        // Movable unless its home lies cyclically in (hole, b].
        if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
            table[hole] = table[b];
            hole = b;
        }
    }
    table[hole] = EMPTY;
}

impl Adjacency {
    /// Far endpoints of the out-edges.
    pub fn out(&self) -> &[VertexId] {
        &self.lists[0]
    }

    /// Far endpoints of the in-edges.
    pub fn inn(&self) -> &[VertexId] {
        &self.lists[1]
    }

    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(Vec::is_empty)
    }

    /// Heap bytes of the lists and their indexes, by capacity.
    pub fn heap_bytes(&self) -> usize {
        let ids: usize = self.lists.iter().map(Vec::capacity).sum();
        let index = self.index.as_ref().map_or(0, |t| {
            size_of::<[Vec<u32>; 2]>() + (t[0].capacity() + t[1].capacity()) * size_of::<u32>()
        });
        ids * size_of::<VertexId>() + index
    }

    /// Take this adjacency out of `tally`, as its entry leaves a store.
    pub fn untally(&self, tally: &mut Tally) {
        for (held, list) in tally.held.iter_mut().zip(&self.lists) {
            *held -= list.len();
        }
        tally.heap -= self.heap_bytes();
    }

    /// Add the edges to `others` on `side`, skipping those held and
    /// repeats (the first occurrence is kept); returns how many were
    /// new. The run is copied on whole, a table built first for it when
    /// it takes the list past the scan length, then each id checked once.
    pub fn extend(
        &mut self,
        side: Side,
        others: impl ExactSizeIterator<Item = VertexId>,
        tally: &mut Tally,
    ) -> usize {
        let s = at(side);
        self.tallied(tally, |adj| {
            let before = adj.lists[s].len();
            let len = before + others.len();
            if len > SCAN && adj.table(s).len() < 2 * len {
                adj.reindex(s, len);
            }
            adj.lists[s].extend(others);
            adj.dedup(s, before);
            adj.lists[s].len() - before
        })
    }

    /// Remove the edge to `other` on `side`: the list's last edge takes
    /// its place. Returns the position it vacated, `None` when it is not
    /// held.
    pub fn remove(&mut self, side: Side, other: VertexId, tally: &mut Tally) -> Option<usize> {
        let s = at(side);
        self.tallied(tally, |adj| {
            let pos = adj.position(s, other)?;
            let list = &mut adj.lists[s];
            let table = match adj.index.as_deref_mut() {
                Some(tables) if !tables[s].is_empty() => &mut tables[s],
                _ => {
                    list.swap_remove(pos);
                    return Some(pos);
                }
            };
            let last = list.len() - 1;
            let hole = probe(table, list, other);
            vacate(table, list, hole);
            list.swap_remove(pos);
            if pos < last {
                // The last edge moved into the hole: re-point its bucket.
                let mask = table.len() - 1;
                let mut b = wang64(list[pos]) as usize & mask;
                while table[b] != last as u32 {
                    assert_ne!(table[b], EMPTY, "position {last} was never indexed");
                    b = (b + 1) & mask;
                }
                table[b] = pos as u32;
            }
            if list.len() <= SCAN / 2 {
                adj.unindex(s);
            }
            Some(pos)
        })
    }

    /// Keep, in order, the edges on `side` whose far endpoint `keep`
    /// accepts.
    pub fn retain(
        &mut self,
        side: Side,
        tally: &mut Tally,
        mut keep: impl FnMut(VertexId) -> bool,
    ) {
        let s = at(side);
        self.tallied(tally, |adj| {
            let before = adj.lists[s].len();
            adj.lists[s].retain(|&w| keep(w));
            let len = adj.lists[s].len();
            if len != before && !adj.table(s).is_empty() {
                if len <= SCAN / 2 {
                    adj.unindex(s);
                } else {
                    adj.reindex(s, len);
                }
            }
        })
    }

    /// Empty both lists. They keep their buffers; the index goes.
    pub fn clear(&mut self, tally: &mut Tally) {
        self.tallied(tally, |adj| {
            adj.lists.iter_mut().for_each(Vec::clear);
            adj.index = None;
        });
    }

    /// Run a mutation and book what it changed into `tally`.
    fn tallied<R>(&mut self, tally: &mut Tally, f: impl FnOnce(&mut Self) -> R) -> R {
        let (lens, heap) = (self.lists.each_ref().map(Vec::len), self.heap_bytes());
        let r = f(self);
        for ((held, list), len) in tally.held.iter_mut().zip(&self.lists).zip(lens) {
            *held = *held + list.len() - len;
        }
        tally.heap = tally.heap + self.heap_bytes() - heap;
        r
    }

    /// List `s`'s table; empty while the list is scanned.
    fn table(&self, s: usize) -> &[u32] {
        self.index.as_ref().map_or(&[], |t| &t[s])
    }

    /// Position of `other` in list `s`.
    fn position(&self, s: usize, other: VertexId) -> Option<usize> {
        let (list, table) = (&self.lists[s], self.table(s));
        if table.is_empty() {
            return list.iter().position(|&w| w == other);
        }
        let b = table[probe(table, list, other)];
        (b != EMPTY).then_some(b as usize)
    }

    /// Rebuild list `s`'s table with room for `room` edges, in its old
    /// buffer when that is big enough.
    fn reindex(&mut self, s: usize, room: usize) {
        let size = (2 * room).next_power_of_two();
        let list = &self.lists[s];
        let table = &mut self.index.get_or_insert_with(Default::default)[s];
        if table.len() < size {
            *table = vec![EMPTY; size];
        } else {
            table.fill(EMPTY);
        }
        for (pos, &w) in list.iter().enumerate() {
            let b = probe(table, list, w);
            table[b] = pos as u32;
        }
    }

    /// Drop each id of list `s` from `from` on that is held ahead of it,
    /// seating the rest in the list's table if it has one: a table kept
    /// while the list shrank must hear of every push.
    fn dedup(&mut self, s: usize, from: usize) {
        let Adjacency { lists, index } = self;
        let list = &mut lists[s];
        let mut table = index
            .as_deref_mut()
            .map(|t| &mut t[s])
            .filter(|t| !t.is_empty());
        let mut kept = from;
        for i in from..list.len() {
            let w = list[i];
            let fresh = match table.as_deref_mut() {
                Some(table) => {
                    let b = probe(table, list, w);
                    let fresh = table[b] == EMPTY;
                    if fresh {
                        table[b] = kept as u32;
                    }
                    fresh
                }
                None => !list[..kept].contains(&w),
            };
            if fresh {
                list[kept] = w;
                kept += 1;
            }
        }
        list.truncate(kept);
        if kept <= SCAN / 2 {
            self.unindex(s);
        }
    }

    /// Go back to scanning list `s`.
    fn unindex(&mut self, s: usize) {
        if let Some(tables) = self.index.as_mut() {
            tables[s] = Vec::new();
            if tables.iter().all(Vec::is_empty) {
                self.index = None;
            }
        }
    }
}

impl std::fmt::Debug for Adjacency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adjacency")
            .field("out", &self.lists[0])
            .field("inn", &self.lists[1])
            .finish()
    }
}

/// Two adjacencies are equal when their lists are: an index says
/// nothing a list does not.
#[cfg(test)]
impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        self.lists == other.lists
    }
}

#[cfg(test)]
impl Adjacency {
    /// Add the edge to `other` on `side`; false when it is held.
    pub fn insert(&mut self, side: Side, other: VertexId, tally: &mut Tally) -> bool {
        self.extend(side, std::iter::once(other), tally) == 1
    }

    /// The type's invariant: no id twice in a list, a list longer than
    /// [`SCAN`] indexed and one at half of it or shorter not, and every
    /// table a power of two at least twice its list with each position
    /// in one bucket, reachable from its key.
    pub fn assert_indexed(&self) {
        for (s, list) in self.lists.iter().enumerate() {
            let distinct: std::collections::HashSet<_> = list.iter().collect();
            assert_eq!(distinct.len(), list.len(), "an id twice: {list:?}");
            let table = self.table(s);
            if table.is_empty() {
                assert!(list.len() <= SCAN, "{} ids scanned in list {s}", list.len());
                continue;
            }
            assert!(
                list.len() > SCAN / 2,
                "{} ids indexed in list {s}",
                list.len()
            );
            assert!(table.len().is_power_of_two() && table.len() >= 2 * list.len());
            let seated = table.iter().filter(|&&b| b != EMPTY).count();
            assert_eq!(seated, list.len(), "buckets of list {s}");
            for (pos, &w) in list.iter().enumerate() {
                assert_eq!(self.position(s, w), Some(pos), "{w} in list {s}");
            }
        }
        if let Some(tables) = &self.index {
            assert!(
                tables.iter().any(|t| !t.is_empty()),
                "an index without a table"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    const SIDES: [Side; 2] = [Side::Out, Side::In];

    /// A list of `n` ids from `from` on, built by inserts.
    fn grown(side: Side, from: VertexId, n: u64, tally: &mut Tally) -> Adjacency {
        let mut adj = Adjacency::default();
        for w in from..from + n {
            assert!(adj.insert(side, w, tally));
        }
        adj
    }

    #[test]
    fn a_list_is_indexed_past_the_scan_length_and_scanned_again_at_half() {
        let mut tally = Tally::default();
        let mut adj = grown(Side::In, 100, SCAN as u64, &mut tally);
        assert!(adj.index.is_none());
        assert!(adj.insert(Side::In, 7, &mut tally));
        assert!(!adj.table(1).is_empty() && adj.table(0).is_empty());
        assert!(!adj.insert(Side::In, 7, &mut tally), "a duplicate");
        adj.assert_indexed();
        for w in 100..100 + (SCAN as u64 / 2) {
            assert!(adj.remove(Side::In, w, &mut tally).is_some());
            adj.assert_indexed();
        }
        assert!(adj.index.is_some());
        assert!(adj.remove(Side::In, 7, &mut tally).is_some());
        assert!(adj.index.is_none(), "back at half the scan length");
        assert_eq!(adj.remove(Side::In, 7, &mut tally), None);
        assert_eq!(tally.held, [0, SCAN / 2]);
        assert_eq!(tally.heap, adj.heap_bytes());
    }

    /// The trap of the first design: a table kept while its list shrinks
    /// below the scan length must still seat every push, or the
    /// `swap_remove` that moves the pushed edge probes for a bucket that
    /// is not there.
    #[test]
    fn a_kept_index_hears_of_pushes_below_the_scan_length() {
        let mut tally = Tally::default();
        let mut adj = grown(Side::Out, 0, SCAN as u64 + 1, &mut tally);
        for w in 0..10 {
            assert!(adj.remove(Side::Out, w, &mut tally).is_some());
        }
        assert!(adj.out().len() < SCAN && !adj.table(0).is_empty());
        assert!(adj.insert(Side::Out, 1000, &mut tally));
        adj.assert_indexed();
        // The head goes: the edge pushed last takes its place.
        let head = adj.out()[0];
        assert_eq!(adj.remove(Side::Out, head, &mut tally), Some(0));
        assert_eq!(adj.out()[0], 1000);
        adj.assert_indexed();
        assert_eq!(adj.remove(Side::Out, 1000, &mut tally), Some(0));
        adj.assert_indexed();
    }

    #[test]
    fn retain_keeps_order_and_clear_empties_the_lists() {
        let mut tally = Tally::default();
        let mut adj = grown(Side::Out, 0, 100, &mut tally);
        adj.extend(Side::In, [5, 6, 5].into_iter(), &mut tally);
        adj.retain(Side::Out, &mut tally, |w| w % 3 == 0);
        let thirds: Vec<VertexId> = (0..100).filter(|w| w % 3 == 0).collect();
        assert_eq!(adj.out(), thirds);
        adj.assert_indexed();
        adj.retain(Side::Out, &mut tally, |w| w < 30);
        assert_eq!(adj.out(), [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
        assert!(adj.index.is_none());
        assert_eq!(tally.held, [10, 2]);
        adj.clear(&mut tally);
        assert!(adj.is_empty());
        assert_eq!(tally.held, [0, 0]);
        assert_eq!(tally.heap, adj.heap_bytes());
        adj.untally(&mut tally);
        assert_eq!(tally, Tally::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Random inserts, runs and removes on a few vertices, in waves
        /// that grow lists past the scan length and shrink them below
        /// half of it, with the odd retain and clear: every answer
        /// matches a set, every list a plain `Vec` changed by
        /// `swap_remove`, and the tally the sums. A run — with repeats,
        /// into an empty list or a held one — keeps the first occurrence
        /// of each id it does not hold.
        #[test]
        fn lists_match_a_swap_remove_model(
            ops in prop::collection::vec((0usize..2, 0usize..2, 0u64..100, 0u64..120), 600..1500),
        ) {
            let mut tally = Tally::default();
            let mut adjs = vec![Adjacency::default(); 2];
            let mut model = vec![[Vec::<VertexId>::new(), Vec::new()]; 2];
            let mut sets = vec![[HashSet::<VertexId>::new(), HashSet::new()]; 2];
            for (i, (v, s, roll, w)) in ops.into_iter().enumerate() {
                let (adj, lists, seen) = (&mut adjs[v], &mut model[v], &mut sets[v]);
                let growing = i / 300 % 2 == 0;
                if roll == 0 {
                    adj.clear(&mut tally);
                    lists.iter_mut().for_each(Vec::clear);
                    seen.iter_mut().for_each(HashSet::clear);
                }
                let (list, set) = (&mut lists[s], &mut seen[s]);
                match roll {
                    0 => {}
                    1 | 2 => {
                        let keep = |x: VertexId| x % 7 != w % 7;
                        adj.retain(SIDES[s], &mut tally, keep);
                        list.retain(|&x| keep(x));
                        set.retain(|&x| keep(x));
                    }
                    3 => {
                        let run: Vec<VertexId> = (0..w % 50).map(|i| (w + i * i) % 120).collect();
                        let fresh = run.iter().filter(|&&x| set.insert(x)).count();
                        prop_assert_eq!(adj.extend(SIDES[s], run.iter().copied(), &mut tally), fresh);
                        for x in run {
                            if !list.contains(&x) {
                                list.push(x);
                            }
                        }
                    }
                    _ if (roll < 80) == growing => {
                        prop_assert_eq!(adj.insert(SIDES[s], w, &mut tally), set.insert(w));
                        if !list.contains(&w) {
                            list.push(w);
                        }
                    }
                    _ => {
                        let pos = list.iter().position(|&x| x == w);
                        prop_assert_eq!(adj.remove(SIDES[s], w, &mut tally), pos);
                        prop_assert_eq!(pos.is_some(), set.remove(&w));
                        if let Some(pos) = pos {
                            list.swap_remove(pos);
                        }
                    }
                }
                prop_assert_eq!(adj.lists[s].as_slice(), list.as_slice());
                adj.assert_indexed();
            }
            let held = |s: usize| model.iter().map(|m| m[s].len()).sum::<usize>();
            prop_assert_eq!(tally.held, [held(0), held(1)]);
            prop_assert_eq!(tally.heap, adjs.iter().map(Adjacency::heap_bytes).sum::<usize>());
        }
    }
}
