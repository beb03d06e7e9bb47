//! The retained change log: what recovery replays onto agents that
//! lost edges with a dead one (paper §3.1, §3.4).
//!
//! What the log keeps follows from how it will be replayed:
//!
//! * An **exact** log is an ordered suffix of the stream. A checkpoint
//!   restore replays the records past a generation's watermark, so
//!   every stream index in the log stays decodable; checkpoint
//!   truncation bounds it.
//! * A **net** log serves a cluster without checkpoints, whose recovery
//!   always replays the whole log onto empty agents. Agents apply
//!   changes with set semantics (inserting a present edge or deleting
//!   an absent one does nothing), so the graph is the net effect of the
//!   stream (Definitions 2.3–2.5). The log holds a *net run* — the live
//!   edge set as of the last compaction, sorted, distinct inserts — and
//!   the exact *tail* appended since; replaying the one and then the
//!   other rebuilds the graph. Once twice the tail's deletes reach the
//!   net run's length (and a floor), a compaction folds the tail into a
//!   new net run, so an insert-only stream never compacts.
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
//! takes three times as long on each. Truncation drops whole blocks and
//! skips records inside the front one; decoding hands out one block at
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
/// A net log compacts once twice its tail's deletes reach the larger of
/// the net run's length and this: a smaller log is not worth a pass.
const COMPACT_FLOOR: u64 = 64 << 10;
/// Tail records a compaction sorts at a time: two 384 KiB buffers.
const SORT_RECORDS: usize = 16 << 10;

/// Sizes of a [`ChangeLog`], as [`ChangeLog::stats`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeLogStats {
    /// Records the log holds for replay: the suffix past `base` in an
    /// exact log, the net run plus the tail in a net one — fewer than
    /// were ingested once a compaction has run.
    pub retained: u64,
    /// Heap bytes the log holds: allocated capacity, not just the
    /// bytes in use.
    pub heap_bytes: u64,
    /// Global stream index of the oldest retained record — everything
    /// before it must be covered by something else (a checkpoint).
    /// Always 0 in a net log.
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
}

impl Block {
    fn new() -> Block {
        Block {
            bytes: Box::new([0; BLOCK_BYTES]),
            used: 0,
            len: 0,
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
        let delete = if c.action == Action::Delete {
            DELETE
        } else {
            0
        };
        self.bytes[at] = ((s - 1) | (d - 1) << 3) as u8 | delete;
        // Whole words: the next record's head overwrites the excess.
        self.bytes[at + 1..at + 9].copy_from_slice(&src.to_le_bytes());
        self.bytes[at + 1 + s..at + 9 + s].copy_from_slice(&dst.to_le_bytes());
        self.used = at + 1 + s + d;
        self.len += 1;
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

    /// Byte offset `n` records past byte `at`.
    fn skip(&self, mut at: usize, n: usize) -> usize {
        for _ in 0..n {
            let head = usize::from(self.bytes[at]);
            at += 3 + (head & 7) + (head >> 3 & 7);
        }
        at
    }

    /// Append the records from byte `at` on to `out`.
    fn decode(&self, mut at: usize, out: &mut Vec<EdgeChange>) {
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
    /// Records in the blocks (a truncated exact log's skipped front
    /// records excluded).
    len: u64,
}

impl Run {
    /// Append records, filling the back block before opening another.
    fn extend(&mut self, changes: impl IntoIterator<Item = EdgeChange>) {
        let mut block = self.blocks.pop_back().unwrap_or_else(Block::new);
        for c in changes {
            if !block.push(&c) {
                self.blocks
                    .push_back(std::mem::replace(&mut block, Block::new()));
                block.push(&c);
            }
            self.len += 1;
        }
        if block.len > 0 {
            self.blocks.push_back(block);
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

/// What a [`ChangeLog`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing: the log only counts, and its base follows its end.
    Count,
    /// An ordered suffix of the stream.
    Exact,
    /// The net run and the tail since it; compact once twice the tail's
    /// deletes reach `max(net run, floor)`, sorting the tail `sort`
    /// records at a time.
    Net { floor: u64, sort: usize },
}

/// A change stream's retained records, packed into fixed-size blocks:
/// an exact suffix from [`base`] to [`end`](Self::end) (every watermark
/// in that range can be decoded from), or the stream's net effect (see
/// the module docs).
///
/// [`base`]: Self::base
pub struct ChangeLog {
    /// The live edge set at the last compaction, as sorted, distinct
    /// inserts; always empty in an exact log.
    net: Run,
    /// Records in stream order: those since `base` in an exact log,
    /// those since the last compaction in a net one.
    tail: Run,
    /// Deletes among the tail's records (net logs only).
    tail_deletes: u64,
    /// Records of the tail's front block already truncated away.
    head: usize,
    /// Byte offset of the tail's front block's first kept record.
    head_at: usize,
    base: u64,
    end: u64,
    mode: Mode,
}

impl ChangeLog {
    /// An empty exact log. One built with `retain = false` keeps
    /// nothing and only counts: its base follows its end.
    pub fn new(retain: bool) -> ChangeLog {
        ChangeLog::with_mode(if retain { Mode::Exact } else { Mode::Count })
    }

    /// An empty net log: it keeps what a whole replay onto empty agents
    /// needs, and cannot be truncated or decoded from a watermark.
    pub fn net() -> ChangeLog {
        ChangeLog::with_mode(Mode::Net {
            floor: COMPACT_FLOOR,
            sort: SORT_RECORDS,
        })
    }

    fn with_mode(mode: Mode) -> ChangeLog {
        ChangeLog {
            net: Run::default(),
            tail: Run::default(),
            tail_deletes: 0,
            head: 0,
            head_at: 0,
            base: 0,
            end: 0,
            mode,
        }
    }

    /// Append the next records of the stream; a net log compacts when
    /// they take its tail's deletes past the trigger.
    pub fn extend(&mut self, changes: &[EdgeChange]) {
        self.end += changes.len() as u64;
        match self.mode {
            Mode::Count => self.base = self.end,
            Mode::Exact => self.tail.extend(changes.iter().copied()),
            Mode::Net { floor, sort } => {
                self.tail.extend(changes.iter().copied());
                self.tail_deletes += changes.iter().filter(|c| !c.is_insert()).count() as u64;
                if 2 * self.tail_deletes >= self.net.len.max(floor) {
                    self.compact(sort);
                }
            }
        }
    }

    /// Fold the tail into the net run. The tail is sorted `sort`
    /// records at a time into runs where the last change to an edge
    /// wins; a merge of those runs, newest first on equal edges, is
    /// merged in turn with the net run, the tail's change winning, and
    /// deletes are dropped. Every block is freed once read, so the log
    /// never holds much more than its own size.
    fn compact(&mut self, sort: usize) {
        let mut tail = std::mem::take(&mut self.tail).drain();
        let mut runs = Vec::new();
        let (mut chunk, mut spare) = (Vec::with_capacity(sort), Vec::new());
        loop {
            chunk.clear();
            chunk.extend(tail.by_ref().take(sort));
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
            if newest.is_insert() {
                return Some(newest);
            }
        });
        self.net.extend(merged);
        self.tail_deletes = 0;
    }

    /// Global stream index of the oldest retained record: 0 in a net
    /// log.
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

    /// Drop every record before stream index `watermark`. Clamped to
    /// the retained range; never touches records at or past it. Whole
    /// blocks are freed; inside the front block the dropped records
    /// are skipped. A net log has no stream indexes to cut at.
    pub fn truncate(&mut self, watermark: u64) {
        assert!(
            !matches!(self.mode, Mode::Net { .. }),
            "a net log is not truncated"
        );
        let before = self.before(watermark);
        self.base += before;
        self.tail.len -= before;
        let mut drop = before as usize;
        while drop > 0 {
            let front = self
                .tail
                .blocks
                .front()
                .expect("retained records live in blocks");
            let live = front.len - self.head;
            if drop >= live {
                self.tail.blocks.pop_front();
                (self.head, self.head_at) = (0, 0);
                drop -= live;
            } else {
                self.head_at = front.skip(self.head_at, drop);
                self.head += drop;
                drop = 0;
            }
        }
    }

    /// Decode the records at stream index `watermark` and beyond, one
    /// block at a time: `f` sees each block's records in order, in a
    /// scratch reused across blocks, so the log is never held decoded
    /// as a whole. `watermark` below the base is clamped (the missing
    /// prefix is not in the log); a net log decodes only whole — its
    /// net run, then its tail. Returns the number of records decoded.
    pub fn decode_from(&self, watermark: u64, mut f: impl FnMut(&[EdgeChange])) -> u64 {
        assert!(
            !matches!(self.mode, Mode::Net { .. }) || watermark <= self.base,
            "a net log replays only whole"
        );
        let mut scratch = Vec::with_capacity(BLOCK_RECORDS.min(self.len() as usize));
        for block in &self.net.blocks {
            scratch.clear();
            block.decode(0, &mut scratch);
            f(&scratch);
        }
        let before = self.before(watermark);
        let mut skip = before as usize;
        let (mut first, mut at) = (self.head, self.head_at);
        for block in &self.tail.blocks {
            let live = block.len - first;
            if skip >= live {
                skip -= live;
            } else {
                scratch.clear();
                block.decode(block.skip(at, skip), &mut scratch);
                f(&scratch);
                skip = 0;
            }
            (first, at) = (0, 0);
        }
        self.len() - before
    }

    /// Retained tail records before stream index `watermark`.
    fn before(&self, watermark: u64) -> u64 {
        watermark.saturating_sub(self.base).min(self.tail.len)
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

    fn changes(n: usize, seed: u64) -> Vec<EdgeChange> {
        let mut rng = TestRng::for_case("changes", seed);
        (0..n)
            .map(|_| {
                let (src, dst) = (id(&mut rng), id(&mut rng));
                if rng.below(2) == 0 {
                    EdgeChange::insert(src, dst)
                } else {
                    EdgeChange::delete(src, dst)
                }
            })
            .collect()
    }

    fn decoded(log: &ChangeLog, watermark: u64) -> Vec<EdgeChange> {
        let mut out = Vec::new();
        let n = log.decode_from(watermark, |block| {
            assert!(!block.is_empty() && block.len() <= BLOCK_RECORDS);
            out.extend_from_slice(block);
        });
        assert_eq!(n, out.len() as u64);
        out
    }

    /// Stream index of every block's first record, truncated or not.
    fn block_edges(log: &ChangeLog) -> Vec<u64> {
        let mut at = log.base - log.head as u64;
        log.tail
            .blocks
            .iter()
            .map(|b| {
                at += b.len as u64;
                at - b.len as u64
            })
            .collect()
    }

    #[test]
    fn every_id_width_and_both_actions_round_trip() {
        let mut log = ChangeLog::new(true);
        let all: Vec<EdgeChange> = EDGES
            .iter()
            .flat_map(|&u| EDGES.iter().map(move |&v| (u, v)))
            .flat_map(|(u, v)| [EdgeChange::insert(u, v), EdgeChange::delete(v, u)])
            .collect();
        log.extend(&all);
        assert_eq!(decoded(&log, 0), all);
        assert_eq!(decoded(&log, 7), all[7..]);
    }

    #[test]
    fn a_log_that_retains_nothing_still_counts() {
        let mut log = ChangeLog::new(false);
        log.extend(&changes(100, 1));
        assert_eq!((log.base(), log.end(), log.len()), (100, 100, 0));
        assert_eq!(log.heap_bytes(), 0);
        assert!(decoded(&log, 0).is_empty());
        log.truncate(50);
        assert_eq!(log.base(), 100);
    }

    #[test]
    fn a_block_is_one_fixed_allocation_and_small_ids_pack_tight() {
        let mut log = ChangeLog::new(true);
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
        let mut log = ChangeLog::net();
        let stream: Vec<EdgeChange> = (0..200_000u64)
            .map(|i| EdgeChange::insert(i % 1000, i % 777))
            .collect();
        log.extend(&stream);
        assert_eq!((log.len(), log.net.len, log.end()), (200_000, 0, 200_000));
        assert_eq!(decoded(&log, 0), stream);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random appends, truncations (below the base, at and beside a
        /// block edge, anywhere, past the end) and decodes agree with a
        /// `Vec` of the whole stream and a base index.
        #[test]
        fn matches_a_vec_model(
            ops in prop::collection::vec((0u8..4, 0usize..3000, any::<u64>()), 1..24),
        ) {
            let mut log = ChangeLog::new(true);
            let mut model: Vec<EdgeChange> = Vec::new();
            let mut base = 0u64;
            for (op, n, w) in ops {
                let end = model.len() as u64;
                let watermark = match w % 5 {
                    0 => w % (end + 2),
                    1 => {
                        let edges = block_edges(&log);
                        let edge = edges.get((w / 4) as usize % edges.len().max(1)).copied();
                        // At the edge, or one record to either side.
                        (edge.unwrap_or(end) + (w / 4 % 3)).saturating_sub(1)
                    }
                    2 => base.saturating_sub(w % 3),
                    3 => end,
                    _ => base + w % (end - base + 1),
                };
                match op {
                    0 | 1 => {
                        let batch = changes(n, w);
                        log.extend(&batch);
                        model.extend_from_slice(&batch);
                    }
                    2 => {
                        log.truncate(watermark);
                        base = watermark.clamp(base, end);
                    }
                    _ => {
                        let from = watermark.clamp(base, end) as usize;
                        prop_assert_eq!(decoded(&log, watermark), model[from..].to_vec());
                    }
                }
                prop_assert_eq!((log.base(), log.end()), (base, model.len() as u64));
                prop_assert_eq!(log.len(), model.len() as u64 - base);
                // Every block kept holds a record still retained.
                prop_assert!(log.tail.blocks.front().is_none_or(|b| b.len > log.head));
            }
            prop_assert_eq!(decoded(&log, 0), model[base as usize..].to_vec());
        }

        /// A net log replays to the edge set of the whole stream after
        /// every batch, and holds at most twice that set plus the floor.
        /// Batches carry duplicate inserts, deletes of absent edges,
        /// deletes and re-inserts of one edge (inside a batch, and of
        /// the previous batch's deletes, so across a compaction), and
        /// ids of every byte width; compactions merge several sorted
        /// runs.
        #[test]
        fn a_net_log_replays_to_a_set_model(
            batches in prop::collection::vec((100usize..700, any::<u64>()), 12..40),
        ) {
            const FLOOR: u64 = 512;
            let mut log = ChangeLog::with_mode(Mode::Net { floor: FLOOR, sort: 96 });
            let mut model: HashSet<Edge> = HashSet::new();
            let mut seen: Vec<Edge> = Vec::new();
            let mut deleted: Vec<Edge> = Vec::new();
            let (mut ingested, mut compactions) = (0u64, 0);
            for (n, seed) in batches {
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

                let mut replayed = HashSet::new();
                for c in decoded(&log, 0) {
                    if c.is_insert() {
                        replayed.insert(c.edge);
                    } else {
                        replayed.remove(&c.edge);
                    }
                }
                prop_assert_eq!(&replayed, &model);
                let net: Vec<EdgeChange> = log.net.blocks.iter().flat_map(|b| {
                    let mut out = Vec::new();
                    b.decode(0, &mut out);
                    out
                }).collect();
                prop_assert!(net.iter().all(EdgeChange::is_insert), "a delete in the net run");
                prop_assert!(net.windows(2).all(|w| w[0].edge < w[1].edge), "net run not sorted and distinct");
                prop_assert_eq!(net.len() as u64, log.net.len);
                prop_assert_eq!((log.base(), log.end()), (0, ingested));
                let live = model.len() as u64;
                prop_assert!(log.len() <= 2 * live + FLOOR, "{} records for {} edges", log.len(), live);
            }
            prop_assert!(compactions > 0, "the stream never compacted");
        }
    }
}
