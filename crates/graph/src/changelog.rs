//! The retained change log: what recovery replays onto agents that
//! lost edges with a dead one (paper §3.1, §3.4).
//!
//! Agents apply changes with set semantics (inserting a present edge
//! or deleting an absent one does nothing), so the graph is the net
//! effect of the stream (Definitions 2.3–2.5): each edge's *last*
//! change since some point, replayed onto the graph as it stood at that
//! point or at any later one, gives the graph as it stands now. The
//! log's **base** is that point — the empty graph at stream index 0
//! until a checkpoint commits, then the oldest retained generation's
//! watermark. The log holds a *net run*, each edge's last change from
//! the base to the last compaction, sorted by edge, and the exact
//! *tail* appended since; a recovery replays both, whole. While the
//! base is 0 the replay lands on empty agents, so the net run drops
//! deletes; after that it lands on a restored generation, so it keeps
//! them. Once twice the tail's deletes reach the net run's length (and
//! a floor), a compaction folds the tail into a new net run, so an
//! insert-only stream never compacts.
//!
//! A checkpoint commit seals the tail's back block, so every
//! generation's watermark is a block edge: moving the base to the
//! oldest retained watermark pops the whole tail blocks before it, and
//! drops the net run once its compaction point is not past it.
//!
//! Records are packed into fixed-size blocks instead of being kept as
//! [`EdgeChange`]s (24 B each: a one-byte action padded out beside two
//! `u64`s). A block is 8 KiB of records back to back, each a head byte
//! — both ids' byte widths and the action bit — and then `src` and
//! `dst` little-endian in as many bytes as they need, so a record costs
//! one byte plus its ids' significant bytes, two each below 2¹⁶. The
//! encoding covers the full `u64` id range, and a record decodes with
//! two word loads and no branch on its bytes: a compaction re-reads
//! and re-writes every record, and a byte-at-a-time varint (LEB128)
//! takes three times as long on each. Decoding hands out one block at
//! a time, and a compaction reads and writes block by block, freeing
//! every block it has read.

use crate::types::{Action, Edge, EdgeChange, VertexId};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Bytes per block, allocated once when the block opens.
const BLOCK_BYTES: usize = 8 << 10;
/// The widest a record writes: its head byte and two eight-byte words
/// (the longest record is exactly that).
const MAX_RECORD_BYTES: usize = 17;
/// Records per block at most: every record takes at least three bytes.
const BLOCK_RECORDS: usize = BLOCK_BYTES / 3;
/// Head-byte bit of a deletion; bits 0–2 and 3–5 are the byte widths
/// of `src` and `dst`, less one.
const DELETE: u8 = 1 << 6;
/// The log compacts once twice its tail's deletes reach the larger of
/// the net run's length and this: a smaller log is not worth a pass.
const COMPACT_FLOOR: u64 = 64 << 10;
/// Tail records a compaction sorts at a time: two 384 KiB buffers.
const SORT_RECORDS: usize = 16 << 10;

/// Sizes of a [`ChangeLog`], as [`ChangeLog::stats`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeLogStats {
    /// Records a recovery replays: the net run plus the tail — fewer
    /// than were ingested since the base once a compaction has run.
    pub retained: u64,
    /// Heap bytes the log holds: allocated capacity, not just the
    /// bytes in use.
    pub heap_bytes: u64,
    /// The stream index the log replays from: 0, the empty graph,
    /// until a checkpoint commits, then the oldest retained
    /// generation's watermark. A checkpoint must cover everything
    /// before it.
    pub base: u64,
    /// Lifetime count of records appended, retained or not.
    pub ingested: u64,
}

/// One block of records, each a head byte and two little-endian ids.
struct Block {
    bytes: Box<[u8; BLOCK_BYTES]>,
    /// Bytes in use.
    used: usize,
    /// Records in the block.
    len: usize,
    /// Deletes among them.
    deletes: usize,
}

impl Block {
    fn new() -> Block {
        Block {
            bytes: Box::new([0; BLOCK_BYTES]),
            used: 0,
            len: 0,
            deletes: 0,
        }
    }

    /// Append `c` unless the block cannot take the widest record.
    fn push(&mut self, c: &EdgeChange) -> bool {
        let at = self.used;
        if at + MAX_RECORD_BYTES > BLOCK_BYTES {
            return false;
        }
        let Edge { src, dst } = c.edge;
        let (s, d) = (width(src), width(dst));
        let delete = c.action == Action::Delete;
        self.bytes[at] = ((s - 1) | (d - 1) << 3) as u8 | if delete { DELETE } else { 0 };
        // Whole words: the next record's head overwrites the excess.
        self.bytes[at + 1..at + 9].copy_from_slice(&src.to_le_bytes());
        self.bytes[at + 1 + s..at + 9 + s].copy_from_slice(&dst.to_le_bytes());
        self.used = at + 1 + s + d;
        self.len += 1;
        self.deletes += usize::from(delete);
        true
    }

    /// The record at byte `*at`; `*at` moves past it.
    fn record(&self, at: &mut usize) -> EdgeChange {
        let head = self.bytes[*at];
        let (s, d) = (usize::from(head & 7) + 1, usize::from(head >> 3 & 7) + 1);
        let src = self.id(*at + 1, s);
        let dst = self.id(*at + 1 + s, d);
        *at += 1 + s + d;
        change(Edge::new(src, dst), head & DELETE != 0)
    }

    /// The `n`-byte id at byte `at`. The word read stays inside the
    /// block: `push` left room for a whole one.
    fn id(&self, at: usize, n: usize) -> VertexId {
        let word: [u8; 8] = self.bytes[at..at + 8].try_into().expect("eight bytes");
        u64::from_le_bytes(word) & (u64::MAX >> (64 - 8 * n))
    }

    /// Append the block's records to `out`.
    fn decode(&self, out: &mut Vec<EdgeChange>) {
        let mut at = 0;
        while at < self.used {
            out.push(self.record(&mut at));
        }
    }
}

/// Bytes `v` takes little-endian without its leading zero bytes, 1–8.
fn width(v: VertexId) -> usize {
    (71 - (v | 1).leading_zeros() as usize) / 8
}

/// Records in order, in blocks written at the back.
#[derive(Default)]
struct Run {
    blocks: VecDeque<Block>,
    /// Records in the blocks.
    len: u64,
    /// Deletes among them.
    deletes: u64,
    /// The back block takes no more records: a checkpoint was cut at
    /// its end.
    sealed: bool,
}

impl Run {
    /// Append records, filling the back block, unless it is sealed,
    /// before opening another.
    fn extend(&mut self, changes: impl IntoIterator<Item = EdgeChange>) {
        let back = if self.sealed {
            None
        } else {
            self.blocks.pop_back()
        };
        let mut block = back.unwrap_or_else(Block::new);
        for c in changes {
            if !block.push(&c) {
                self.blocks
                    .push_back(std::mem::replace(&mut block, Block::new()));
                block.push(&c);
            }
            self.len += 1;
            self.deletes += u64::from(c.action == Action::Delete);
        }
        if block.len > 0 {
            self.blocks.push_back(block);
            self.sealed = false;
        }
    }

    fn heap_bytes(&self) -> usize {
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| std::mem::size_of_val(&*b.bytes))
            .sum();
        blocks + self.blocks.capacity() * std::mem::size_of::<Block>()
    }

    /// Read the records front to back, freeing each block once read.
    fn drain(self) -> Drain {
        Drain {
            blocks: self.blocks,
            at: 0,
        }
    }
}

/// A [`Run`] being read front to back; see [`Run::drain`].
struct Drain {
    blocks: VecDeque<Block>,
    /// Byte offset of the front block's next record.
    at: usize,
}

impl Iterator for Drain {
    type Item = EdgeChange;

    fn next(&mut self) -> Option<EdgeChange> {
        loop {
            let front = self.blocks.front()?;
            if self.at < front.used {
                return Some(front.record(&mut self.at));
            }
            self.blocks.pop_front();
            self.at = 0;
        }
    }
}

/// A change stream's retained records, packed into fixed-size blocks:
/// each edge's last change from the [`base`](Self::base) to the last
/// compaction, then every change since (see the module docs).
pub struct ChangeLog {
    /// Each edge's last change from `base` to `tail_from`, sorted by
    /// edge; inserts only while `base` is 0.
    net: Run,
    /// Records since `tail_from`, in stream order.
    tail: Run,
    /// Stream index of the tail's first record: the last compaction
    /// point, or the base once that has passed it.
    tail_from: u64,
    base: u64,
    end: u64,
    /// The compaction trigger's floor: see [`COMPACT_FLOOR`].
    floor: u64,
    /// Tail records a compaction sorts at a time.
    sort: usize,
}

impl Default for ChangeLog {
    fn default() -> ChangeLog {
        ChangeLog {
            net: Run::default(),
            tail: Run::default(),
            tail_from: 0,
            base: 0,
            end: 0,
            floor: COMPACT_FLOOR,
            sort: SORT_RECORDS,
        }
    }
}

impl ChangeLog {
    /// Append the next records of the stream; compact when they take
    /// the tail's deletes past the trigger.
    pub fn extend(&mut self, changes: &[EdgeChange]) {
        self.end += changes.len() as u64;
        self.tail.extend(changes.iter().copied());
        if 2 * self.tail.deletes >= self.net.len.max(self.floor) {
            self.compact();
        }
    }

    /// Fold the tail into the net run. The tail is sorted `sort`
    /// records at a time into runs where the last change to an edge
    /// wins; a merge of those runs, newest first on equal edges, is
    /// merged in turn with the net run, the tail's change winning.
    /// Deletes are dropped while the base is 0. Every block is freed
    /// once read, so the log never holds much more than its own size.
    fn compact(&mut self) {
        let mut tail = std::mem::take(&mut self.tail).drain();
        let mut runs = Vec::new();
        let (mut chunk, mut spare) = (Vec::with_capacity(self.sort), Vec::new());
        loop {
            chunk.clear();
            chunk.extend(tail.by_ref().take(self.sort));
            if chunk.is_empty() {
                break;
            }
            sort_by_edge(&mut chunk, &mut spare);
            let mut run = Run::default();
            let newest = (chunk.iter().enumerate())
                .filter(|&(i, c)| chunk.get(i + 1).is_none_or(|next| next.edge != c.edge));
            run.extend(newest.map(|(_, &c)| c));
            runs.push(run.drain());
        }
        // Freed before the merge allocates the new net run.
        drop((chunk, spare));

        // The tail's runs as one: each edge once, with its newest change.
        let entry =
            |c: EdgeChange, r: usize| Reverse((c.edge, Reverse(r), c.action == Action::Delete));
        let mut heap: BinaryHeap<_> = (runs.iter_mut().enumerate())
            .filter_map(|(r, run)| Some(entry(run.next()?, r)))
            .collect();
        let mut last = None;
        let mut tail = std::iter::from_fn(|| loop {
            let mut top = heap.peek_mut()?;
            let Reverse((edge, Reverse(r), delete)) = *top;
            match runs[r].next() {
                Some(c) => *top = entry(c, r),
                None => drop(PeekMut::pop(top)),
            }
            if last != Some(edge) {
                last = Some(edge);
                return Some(change(edge, delete));
            }
        })
        .peekable();
        let mut net = std::mem::take(&mut self.net).drain().peekable();
        let onto_empty = self.base == 0;
        let merged = std::iter::from_fn(|| loop {
            let newest = match (net.peek().copied(), tail.peek().copied()) {
                (Some(n), Some(t)) if n.edge < t.edge => net.next(),
                (Some(n), Some(t)) => {
                    net.next_if(|_| n.edge == t.edge);
                    tail.next()
                }
                (Some(_), None) => net.next(),
                (None, _) => tail.next(),
            }?;
            if newest.is_insert() || !onto_empty {
                return Some(newest);
            }
        });
        self.net.extend(merged);
        self.tail_from = self.end;
    }

    /// The stream index the log replays from: 0 until a checkpoint
    /// commits, then the oldest retained generation's watermark.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Global stream index one past the newest record: the lifetime
    /// count of records appended.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Records retained.
    pub fn len(&self) -> u64 {
        self.net.len + self.tail.len
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held: every block's allocation and the block indexes'
    /// capacity.
    pub fn heap_bytes(&self) -> u64 {
        (self.net.heap_bytes() + self.tail.heap_bytes()) as u64
    }

    /// The log's sizes in one struct.
    pub fn stats(&self) -> ChangeLogStats {
        ChangeLogStats {
            retained: self.len(),
            heap_bytes: self.heap_bytes(),
            base: self.base,
            ingested: self.end,
        }
    }

    /// A checkpoint at [`end`](Self::end) has committed, and `oldest`
    /// is the watermark of the oldest generation still retained. The
    /// back block is sealed, so the new watermark is a block edge, and
    /// once the net run's compaction point is not past `oldest` the
    /// base moves there: the net run and the tail blocks before it go.
    /// Otherwise the log keeps its base; a replay from there onto any
    /// retained generation is still exact, only longer.
    pub fn truncate(&mut self, oldest: u64) {
        self.tail.sealed = true;
        if self.tail_from > oldest {
            return;
        }
        self.net = Run::default();
        while let Some(front) = self.tail.blocks.front() {
            if self.tail_from + front.len as u64 > oldest {
                break;
            }
            self.tail_from += front.len as u64;
            self.tail.len -= front.len as u64;
            self.tail.deletes -= front.deletes as u64;
            self.tail.blocks.pop_front();
        }
        self.base = oldest;
    }

    /// Decode the whole log — the net run, then the tail — one block at
    /// a time: `f` sees each block's records in order, in a scratch
    /// reused across blocks, so the log is never held decoded as a
    /// whole. Returns the number of records decoded.
    pub fn decode(&self, mut f: impl FnMut(&[EdgeChange])) -> u64 {
        let mut scratch = Vec::with_capacity(BLOCK_RECORDS.min(self.len() as usize));
        for block in self.net.blocks.iter().chain(&self.tail.blocks) {
            scratch.clear();
            block.decode(&mut scratch);
            f(&scratch);
        }
        self.len()
    }
}

/// Sort `changes` by edge, stably — equal edges keep their order — in
/// one counting pass per byte of `(src, dst)` that differs somewhere in
/// the slice, least significant first. `spare` is scratch.
fn sort_by_edge(changes: &mut Vec<EdgeChange>, spare: &mut Vec<EdgeChange>) {
    let Some(&first) = changes.first() else {
        return;
    };
    // The bits in which some edge differs from the first one.
    let differ = changes.iter().fold(Edge::new(0, 0), |d, c| {
        Edge::new(
            d.src | (c.edge.src ^ first.edge.src),
            d.dst | (c.edge.dst ^ first.edge.dst),
        )
    });
    // Key byte `k`: byte `k` of `dst` for `k < 8`, byte `k - 8` of `src`.
    let digit = |edge: Edge, k: usize| {
        (if k < 8 { edge.dst } else { edge.src } >> (8 * (k % 8)) & 0xff) as usize
    };
    spare.clear();
    spare.resize(changes.len(), first);
    for k in (0..16).filter(|&k| digit(differ, k) != 0) {
        let mut at = [0; 256];
        for c in changes.iter() {
            at[digit(c.edge, k)] += 1;
        }
        let mut sum = 0;
        for a in &mut at {
            (*a, sum) = (sum, sum + *a);
        }
        for c in changes.iter() {
            let d = digit(c.edge, k);
            spare[at[d]] = *c;
            at[d] += 1;
        }
        std::mem::swap(changes, spare);
    }
}

fn change(edge: Edge, delete: bool) -> EdgeChange {
    EdgeChange {
        action: if delete {
            Action::Delete
        } else {
            Action::Insert
        },
        edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Ids at every byte-width boundary, the sign bit and the top.
    const EDGES: [u64; 12] = [
        0,
        1,
        255,
        256,
        65535,
        65536,
        (1 << 24) - 1,
        1 << 24,
        (1 << 56) - 1,
        1 << 56,
        1 << 63,
        u64::MAX,
    ];

    fn id(rng: &mut TestRng) -> u64 {
        match rng.below(3) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            // Every width from one byte to eight.
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    fn decoded(log: &ChangeLog) -> Vec<EdgeChange> {
        let mut out = Vec::new();
        let n = log.decode(|block| {
            assert!(!block.is_empty() && block.len() <= BLOCK_RECORDS);
            out.extend_from_slice(block);
        });
        assert_eq!(n, out.len() as u64);
        out
    }

    /// `onto` with `log` replayed over it under set semantics.
    fn replayed(log: &ChangeLog, onto: &HashSet<Edge>) -> HashSet<Edge> {
        let mut edges = onto.clone();
        for c in decoded(log) {
            if c.is_insert() {
                edges.insert(c.edge);
            } else {
                edges.remove(&c.edge);
            }
        }
        edges
    }

    #[test]
    fn every_id_width_and_both_actions_round_trip() {
        let mut log = ChangeLog::default();
        let all: Vec<EdgeChange> = EDGES
            .iter()
            .flat_map(|&u| EDGES.iter().map(move |&v| (u, v)))
            .flat_map(|(u, v)| [EdgeChange::insert(u, v), EdgeChange::delete(v, u)])
            .collect();
        log.extend(&all);
        assert_eq!(decoded(&log), all);
    }

    #[test]
    fn a_block_is_one_fixed_allocation_and_small_ids_pack_tight() {
        let mut log = ChangeLog::default();
        let n = 100_000u64;
        let stream: Vec<EdgeChange> = (0..n)
            .map(|i| EdgeChange::insert(i * 7 % 32768, i * 13 % 32768))
            .collect();
        log.extend(&stream);
        let per_record = log.heap_bytes() as f64 / n as f64;
        // A head byte, two bytes an id above 255, block slack.
        assert!(per_record < 6.0, "{per_record} B a record");
    }

    #[test]
    fn an_insert_only_stream_never_compacts() {
        let mut log = ChangeLog::default();
        let stream: Vec<EdgeChange> = (0..200_000u64)
            .map(|i| EdgeChange::insert(i % 1000, i % 777))
            .collect();
        log.extend(&stream);
        assert_eq!((log.len(), log.net.len, log.end()), (200_000, 0, 200_000));
        assert_eq!(decoded(&log), stream);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The log replays to the edge set of the whole stream after
        /// every batch: onto ∅ while its base is 0, and onto the oldest
        /// and the newest retained checkpoint once one has committed —
        /// a commit snapshots the model at the log's end, keeps `keep`
        /// snapshots and truncates the log to the oldest. Batches carry
        /// duplicate inserts, deletes of absent edges, deletes and
        /// re-inserts of one edge (inside a batch, and of the previous
        /// batch's deletes, so across a compaction), and ids of every
        /// byte width; compactions merge several sorted runs, before
        /// and after the first commit.
        #[test]
        fn a_net_log_replays_to_a_set_model(
            batches in prop::collection::vec((100usize..700, any::<u64>(), 0u8..4), 16..40),
            keep in 1usize..4,
        ) {
            const FLOOR: u64 = 128;
            let mut log = ChangeLog { floor: FLOOR, sort: 96, ..ChangeLog::default() };
            let mut model: HashSet<Edge> = HashSet::new();
            // Retained checkpoints, oldest first: (watermark, edge set).
            let mut checkpoints: VecDeque<(u64, HashSet<Edge>)> = VecDeque::new();
            let mut seen: Vec<Edge> = Vec::new();
            let mut deleted: Vec<Edge> = Vec::new();
            let (mut ingested, mut compactions, mut commits) = (0u64, 0, 0);
            for (i, (n, seed, coin)) in batches.into_iter().enumerate() {
                let mut rng = TestRng::for_case("net", seed);
                let mut batch: Vec<EdgeChange> =
                    deleted.drain(..).take(8).map(|e| change(e, false)).collect();
                while batch.len() < n {
                    let old = (!seen.is_empty()).then(|| seen[rng.below(seen.len() as u64) as usize]);
                    let fresh = Edge::new(id(&mut rng), id(&mut rng));
                    match (rng.below(20), old) {
                        (0..=8, _) | (_, None) => batch.push(change(fresh, false)),
                        (9..=11, Some(e)) => batch.push(change(e, false)),
                        (12..=16, Some(e)) => batch.push(change(e, true)),
                        (17, Some(e)) => batch.extend([change(e, true), change(e, false)]),
                        (18, Some(e)) => batch.extend([change(e, false), change(e, true)]),
                        _ => batch.push(change(fresh, true)),
                    }
                }
                for c in &batch {
                    if c.is_insert() {
                        model.insert(c.edge);
                        seen.push(c.edge);
                    } else if model.remove(&c.edge) {
                        deleted.push(c.edge);
                    }
                }
                let tail = log.tail.len;
                log.extend(&batch);
                ingested += batch.len() as u64;
                compactions += usize::from(log.tail.len < tail + batch.len() as u64);

                // Always a commit after the fourth batch, at random after.
                if i == 3 || (i > 3 && coin == 0) {
                    checkpoints.push_back((log.end(), model.clone()));
                    if checkpoints.len() > keep {
                        checkpoints.pop_front();
                    }
                    log.truncate(checkpoints[0].0);
                    commits += 1;
                }

                if log.base() == 0 {
                    prop_assert_eq!(&replayed(&log, &HashSet::new()), &model);
                    let live = model.len() as u64;
                    prop_assert!(log.len() <= 2 * live + FLOOR, "{} records for {} edges", log.len(), live);
                } else {
                    let (oldest, newest) = (&checkpoints[0], &checkpoints[checkpoints.len() - 1]);
                    prop_assert!(log.base() <= oldest.0, "base {} past the oldest checkpoint {}", log.base(), oldest.0);
                    prop_assert_eq!(&replayed(&log, &oldest.1), &model);
                    prop_assert_eq!(&replayed(&log, &newest.1), &model);
                }
                let net: Vec<EdgeChange> = log.net.blocks.iter().flat_map(|b| {
                    let mut out = Vec::new();
                    b.decode(&mut out);
                    out
                }).collect();
                prop_assert!(log.base() > 0 || net.iter().all(EdgeChange::is_insert), "a delete in a net run at base 0");
                prop_assert!(net.windows(2).all(|w| w[0].edge < w[1].edge), "net run not sorted and distinct");
                prop_assert_eq!(net.len() as u64, log.net.len);
                let deletes = decoded(&log).iter().filter(|c| !c.is_insert()).count() as u64;
                prop_assert_eq!(deletes, log.net.deletes + log.tail.deletes);
                prop_assert_eq!(log.end(), ingested);
            }
            prop_assert!(compactions > 0 && commits > 0, "{compactions} compactions, {commits} commits");
        }
    }
}
