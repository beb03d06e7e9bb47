//! The retained change log: an exact, ordered suffix of a change
//! stream, kept so that edges lost with a dead agent can be replayed
//! (paper §3.1, §3.4).
//!
//! Records are packed into fixed-size blocks instead of being kept as
//! [`EdgeChange`]s (24 B each: a one-byte action padded out beside two
//! `u64`s). A block is 8 KiB of LEB128 `(src, dst)` pairs in
//! stream order plus one action bit per record, so a record costs its
//! ids' significant bytes — two or three each below 2²¹ — and a bit.
//! The encoding covers the full `u64` id range (ten bytes at most).
//! Truncation drops whole blocks and skips records inside the front
//! one; decoding hands out one block at a time.

use crate::types::{Action, EdgeChange, VertexId};
use std::collections::VecDeque;

/// Payload bytes per block, allocated once when the block opens.
const BLOCK_BYTES: usize = 8 << 10;
/// The longest record: two ten-byte varints.
const MAX_RECORD_BYTES: usize = 20;
/// Records per block at most: every record takes at least two bytes.
const BLOCK_RECORDS: usize = BLOCK_BYTES / 2;

/// Sizes of a [`ChangeLog`], as [`ChangeLog::stats`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeLogStats {
    /// Records retained for replay.
    pub retained: u64,
    /// Heap bytes the log holds: allocated capacity, not just the
    /// bytes in use.
    pub heap_bytes: u64,
    /// Global stream index of the oldest retained record — everything
    /// before it must be covered by something else (a checkpoint).
    pub base: u64,
    /// Lifetime count of records appended, retained or not.
    pub ingested: u64,
}

/// One block: LEB128 `src`, `dst` per record and an action bit each.
struct Block {
    /// The records' varints, back to back; capacity [`BLOCK_BYTES`].
    bytes: Vec<u8>,
    /// Bit `i` set: record `i` is a deletion.
    deletes: Box<[u64; BLOCK_RECORDS / 64]>,
    /// Records in the block.
    len: usize,
}

impl Block {
    fn new() -> Block {
        Block {
            bytes: Vec::with_capacity(BLOCK_BYTES),
            deletes: Box::new([0; BLOCK_RECORDS / 64]),
            len: 0,
        }
    }

    /// Append records until the block cannot hold the longest one;
    /// returns how many it took.
    fn fill(&mut self, changes: &[EdgeChange]) -> usize {
        let start = self.len;
        for c in changes {
            if self.bytes.len() + MAX_RECORD_BYTES > BLOCK_BYTES {
                break;
            }
            put_varint(&mut self.bytes, c.edge.src);
            put_varint(&mut self.bytes, c.edge.dst);
            if c.action == Action::Delete {
                self.deletes[self.len / 64] |= 1 << (self.len % 64);
            }
            self.len += 1;
        }
        debug_assert!(self.len <= BLOCK_RECORDS && self.bytes.capacity() == BLOCK_BYTES);
        self.len - start
    }

    /// Byte offset of record `first + n`, given that record `first`
    /// starts at `at`.
    fn skip(&self, mut at: usize, n: usize) -> usize {
        for _ in 0..2 * n {
            while self.bytes[at] & 0x80 != 0 {
                at += 1;
            }
            at += 1;
        }
        at
    }

    /// Append records `first..` (record `first` starts at `at`) to `out`.
    fn decode(&self, mut at: usize, first: usize, out: &mut Vec<EdgeChange>) {
        for i in first..self.len {
            let src = take_varint(&self.bytes, &mut at);
            let dst = take_varint(&self.bytes, &mut at);
            out.push(if self.deletes[i / 64] >> (i % 64) & 1 == 1 {
                EdgeChange::delete(src, dst)
            } else {
                EdgeChange::insert(src, dst)
            });
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: VertexId) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn take_varint(bytes: &[u8], at: &mut usize) -> VertexId {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// An exact, ordered suffix of a change stream, from [`base`] to
/// [`end`](Self::end), packed into fixed-size blocks. Every watermark
/// in that range can be decoded from.
///
/// [`base`]: Self::base
pub struct ChangeLog {
    blocks: VecDeque<Block>,
    /// Records of the front block already truncated away.
    head: usize,
    /// Byte offset of the front block's first kept record.
    head_at: usize,
    base: u64,
    len: u64,
    retain: bool,
}

impl ChangeLog {
    /// An empty log. One built with `retain = false` keeps nothing and
    /// only counts: its base follows its end.
    pub fn new(retain: bool) -> ChangeLog {
        ChangeLog {
            blocks: VecDeque::new(),
            head: 0,
            head_at: 0,
            base: 0,
            len: 0,
            retain,
        }
    }

    /// Append the next records of the stream.
    pub fn extend(&mut self, changes: &[EdgeChange]) {
        if !self.retain {
            self.base += changes.len() as u64;
            return;
        }
        self.len += changes.len() as u64;
        let mut rest = changes;
        while !rest.is_empty() {
            let taken = match self.blocks.back_mut() {
                Some(block) => block.fill(rest),
                None => 0,
            };
            if taken == 0 {
                self.blocks.push_back(Block::new());
            }
            rest = &rest[taken..];
        }
    }

    /// Global stream index of the oldest retained record.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Global stream index one past the newest record: the lifetime
    /// count of records appended.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// Records retained.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held: every block's allocation and the block index's
    /// capacity.
    pub fn heap_bytes(&self) -> u64 {
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| b.bytes.capacity() + std::mem::size_of_val(&*b.deletes))
            .sum();
        (blocks + self.blocks.capacity() * std::mem::size_of::<Block>()) as u64
    }

    /// The log's sizes in one struct.
    pub fn stats(&self) -> ChangeLogStats {
        ChangeLogStats {
            retained: self.len,
            heap_bytes: self.heap_bytes(),
            base: self.base,
            ingested: self.end(),
        }
    }

    /// Drop every record before stream index `watermark`. Clamped to
    /// the retained range; never touches records at or past it. Whole
    /// blocks are freed; inside the front block the dropped records
    /// are skipped.
    pub fn truncate(&mut self, watermark: u64) {
        let before = self.before(watermark);
        self.base += before;
        self.len -= before;
        let mut drop = before as usize;
        while drop > 0 {
            let front = self
                .blocks
                .front()
                .expect("retained records live in blocks");
            let live = front.len - self.head;
            if drop >= live {
                self.blocks.pop_front();
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
    /// block at a time: `f` sees each block's records in stream order,
    /// in a scratch reused across blocks, so the suffix is never held
    /// decoded as a whole. `watermark` below the base is clamped (the
    /// missing prefix is not in the log). Returns the number of
    /// records decoded.
    pub fn decode_from(&self, watermark: u64, mut f: impl FnMut(&[EdgeChange])) -> u64 {
        let before = self.before(watermark);
        let mut skip = before as usize;
        let mut scratch = Vec::with_capacity(BLOCK_RECORDS.min(self.len as usize));
        let (mut first, mut at) = (self.head, self.head_at);
        for block in &self.blocks {
            let live = block.len - first;
            if skip >= live {
                skip -= live;
            } else {
                at = block.skip(at, skip);
                scratch.clear();
                block.decode(at, first + skip, &mut scratch);
                f(&scratch);
                skip = 0;
            }
            (first, at) = (0, 0);
        }
        self.len - before
    }

    /// Retained records before stream index `watermark`.
    fn before(&self, watermark: u64) -> u64 {
        watermark.saturating_sub(self.base).min(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Ids at every varint length boundary, the sign bit and the top.
    const EDGES: [u64; 12] = [
        0,
        1,
        127,
        128,
        16383,
        16384,
        (1 << 21) - 1,
        1 << 21,
        (1 << 63) - 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];

    fn id(rng: &mut TestRng) -> u64 {
        match rng.below(3) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            // Every length from one byte to ten.
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
        log.blocks
            .iter()
            .map(|b| {
                at += b.len as u64;
                at - b.len as u64
            })
            .collect()
    }

    #[test]
    fn every_varint_length_and_both_actions_round_trip() {
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
        assert!(log.blocks.iter().all(|b| b.bytes.capacity() == BLOCK_BYTES));
        let per_record = log.heap_bytes() as f64 / n as f64;
        // Mostly three bytes an id below 2^15, one bit, block slack.
        assert!(per_record < 7.0, "{per_record} B a record");
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
                prop_assert!(log.blocks.front().is_none_or(|b| b.len > log.head));
            }
            prop_assert_eq!(decoded(&log, 0), model[base as usize..].to_vec());
        }
    }
}
