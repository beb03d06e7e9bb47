//! The scatter target table: where each local edge's message lands.
//!
//! The destination of a vertex message is a function of the view epoch
//! and the edge — the *aggregation replica* of the target that the
//! source hashes to (§3.3.1) — so it is resolved once, not per message
//! per step. A [`TargetTable`] holds one row per `(target vertex,
//! destination agent)` pair this agent sends to: an unsplit target has
//! one row, a split target one per replica its local in-neighbours hash
//! to. Every local edge remembers its row as a `u32` slot
//! ([`crate::agent::VertexEntry`]); scatter pushes `(slot, value)` and
//! the agent thread folds those into the rows' accumulators, so one
//! record per touched row leaves per step however many local edges
//! share the target (sender-side combining as an array add).
//!
//! Slots are only meaningful under the table's *generation*: clearing
//! the table bumps it, and every memo stamped with an older one is
//! refilled the next time its vertex scatters. Within a generation a
//! memo is patched as its vertex's edges change and never emptied:
//! `intern` is idempotent, so a surviving edge's row is still its row.

use elga_graph::types::VertexId;
use elga_hash::{wang64, AgentId};

/// The slot of an edge with nowhere to go (empty ring): folded into
/// nothing.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Rows kept beyond twice the edges held before a run start clears the
/// table (rows of vanished targets are garbage until then).
const GARBAGE_SLACK: usize = 1024;

/// Edge slots kept in the vertex entry itself.
const INLINE: usize = 5;

/// A vertex's edge memo: one slot per local edge, for a prefix of its
/// lists. Most vertices hold a handful of edges, so up to [`INLINE`]
/// slots live in the entry and only longer memos take a heap block —
/// sized to the memo when it spills, kept when the memo shrinks, and
/// written in place by a fill that fits. Both variants carry their
/// length.
#[derive(Debug, Clone)]
pub(crate) enum EdgeSlots {
    Inline(u8, [u32; INLINE]),
    Heap(u32, Box<[u32]>),
}

impl PartialEq for EdgeSlots {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Default for EdgeSlots {
    fn default() -> Self {
        EdgeSlots::Inline(0, [0; INLINE])
    }
}

impl EdgeSlots {
    pub fn as_slice(&self) -> &[u32] {
        match self {
            EdgeSlots::Inline(n, buf) => &buf[..usize::from(*n)],
            EdgeSlots::Heap(n, buf) => &buf[..*n as usize],
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Keep the first `len` slots, if there are more.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            match self {
                EdgeSlots::Inline(n, _) => *n = len as u8,
                EdgeSlots::Heap(n, _) => *n = len as u32,
            }
        }
    }

    /// Remove the slot at `pos`: the last slot takes its place, as the
    /// last edge of a list does.
    pub fn swap_remove(&mut self, pos: usize) {
        let last = self.len() - 1;
        debug_assert!(pos <= last, "slot {pos} of {}", last + 1);
        let room: &mut [u32] = match self {
            EdgeSlots::Inline(_, buf) => buf,
            EdgeSlots::Heap(_, buf) => buf,
        };
        room[pos] = room[last];
        self.truncate(last);
    }

    /// Append the slots of one more side.
    pub fn extend(&mut self, more: impl ExactSizeIterator<Item = u32>) {
        let (held, n) = (self.len(), self.len() + more.len());
        let room: &mut [u32] = match self {
            EdgeSlots::Inline(_, buf) => buf,
            EdgeSlots::Heap(_, buf) => buf,
        };
        if n <= room.len() {
            room[held..n].iter_mut().zip(more).for_each(|(b, s)| *b = s);
        } else {
            let all = room[..held].iter().copied().chain(more).collect();
            *self = EdgeSlots::Heap(0, all);
        }
        match self {
            EdgeSlots::Inline(len, _) => *len = n as u8,
            EdgeSlots::Heap(len, _) => *len = n as u32,
        }
    }
}

/// An empty index bucket.
const EMPTY: u32 = u32::MAX;

/// One `(target, destination)` pair and this step's combined value.
#[derive(Debug, Clone, Copy)]
struct Row {
    vertex: VertexId,
    acc: u64,
    /// Index into [`TargetTable::members`].
    dst: u16,
    /// `acc` holds a value of the current step.
    has: bool,
}

/// Per-agent table of message destinations with one accumulator each,
/// owned by the agent thread like everything else the agent holds.
#[derive(Debug)]
pub(crate) struct TargetTable {
    generation: u32,
    rows: Vec<Row>,
    /// Open-addressed set of row slots hashed by the row's `(vertex,
    /// dst)`: the key lives in the row only, a bucket is four bytes.
    /// A power of two at least twice `rows.len()`, or empty.
    index: Vec<u32>,
    /// Rows with `has` set, in the order they were first touched: those
    /// of other destinations here, this agent's own in `own_touched`,
    /// so that its own records can be taken alone
    /// ([`TargetTable::flush_own`]).
    touched: Vec<u32>,
    own_touched: Vec<u32>,
    /// The agent the table belongs to, and its index in `members` once
    /// a row names it.
    me: AgentId,
    own: Option<u16>,
    /// Destination agents, by the `dst` index rows carry.
    members: Vec<AgentId>,
    /// One record run per member, filled by [`TargetTable::flush`].
    runs: Vec<Vec<(VertexId, u64)>>,
}

impl TargetTable {
    /// The empty table of agent `me`.
    pub fn new(me: AgentId) -> Self {
        TargetTable {
            // Entries start at stamp 0: never a live generation.
            generation: 1,
            rows: Vec::new(),
            index: Vec::new(),
            touched: Vec::new(),
            own_touched: Vec::new(),
            me,
            own: None,
            members: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// The generation slots and placement stamps are valid under.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Rows held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Forget every row and invalidate every slot handed out. Called
    /// between steps only: no accumulator holds a value.
    pub fn clear(&mut self) {
        debug_assert!(
            self.touched.is_empty() && self.own_touched.is_empty(),
            "cleared mid-step"
        );
        self.generation += 1;
        self.rows.clear();
        self.index.fill(EMPTY);
        self.members.clear();
        self.own = None;
    }

    /// The garbage rule, applied at a run's start: rows outnumbering
    /// the edges held two to one (plus slack) are mostly targets that
    /// no longer exist. Returns whether the table was cleared.
    pub fn collect_garbage(&mut self, edges_held: usize) -> bool {
        let garbage = self.rows.len() > 2 * edges_held + GARBAGE_SLACK;
        if garbage {
            self.clear();
        }
        garbage
    }

    /// The slot of `(vertex, agent)`, creating its row on first sight.
    pub fn intern(&mut self, vertex: VertexId, agent: AgentId) -> u32 {
        let dst = match self.members.iter().position(|&a| a == agent) {
            Some(i) => i,
            None => {
                if agent == self.me {
                    self.own = Some(self.members.len() as u16);
                }
                self.members.push(agent);
                self.members.len() - 1
            }
        } as u16;
        if self.index.len() < 2 * (self.rows.len() + 1) {
            // Double the index and re-seat every row.
            self.index = vec![EMPTY; (2 * self.index.len()).max(16)];
            for slot in 0..self.rows.len() {
                let at = self.bucket_for(self.rows[slot].vertex, self.rows[slot].dst);
                self.index[at] = slot as u32;
            }
        }
        let at = self.bucket_for(vertex, dst);
        if self.index[at] == EMPTY {
            self.index[at] = self.rows.len() as u32;
            self.rows.push(Row {
                vertex,
                acc: 0,
                dst,
                has: false,
            });
        }
        self.index[at]
    }

    /// The bucket that holds `(vertex, dst)`'s slot, or the empty one
    /// it belongs in (linear probing from the key's hash).
    fn bucket_for(&self, vertex: VertexId, dst: u16) -> usize {
        let mask = self.index.len() - 1;
        let mut at = wang64(vertex ^ u64::from(dst).rotate_left(48)) as usize & mask;
        while self.index[at] != EMPTY {
            let row = &self.rows[self.index[at] as usize];
            if row.vertex == vertex && row.dst == dst {
                break;
            }
            at = (at + 1) & mask;
        }
        at
    }

    /// Fold a shard's `(slot, value)` run into the rows' accumulators.
    pub fn accumulate(&mut self, run: &[(u32, u64)], combine: impl Fn(u64, u64) -> u64) {
        for &(slot, value) in run {
            if slot == NO_SLOT {
                continue;
            }
            let row = &mut self.rows[slot as usize];
            if row.has {
                row.acc = combine(row.acc, value);
            } else {
                row.acc = value;
                row.has = true;
                if Some(row.dst) == self.own {
                    self.own_touched.push(slot);
                } else {
                    self.touched.push(slot);
                }
            }
        }
    }

    /// Move every touched row's value into its destination's record
    /// run, in first-touch order, and leave the rows empty.
    pub fn flush(&mut self) {
        self.runs.resize_with(self.members.len(), Vec::new);
        let touched = self.own_touched.drain(..).chain(self.touched.drain(..));
        for slot in touched {
            let row = &mut self.rows[slot as usize];
            row.has = false;
            self.runs[usize::from(row.dst)].push((row.vertex, row.acc));
        }
    }

    /// Move this agent's own touched rows — its records to itself —
    /// into its run, in first-touch order, and leave those rows empty;
    /// the other destinations' rows stay touched and keep combining.
    /// Returns the agent's member index (its run is
    /// [`TargetTable::take_run`]'s), `None` while no row names it.
    pub fn flush_own(&mut self) -> Option<usize> {
        let own = usize::from(self.own?);
        self.runs.resize_with(self.members.len(), Vec::new);
        for slot in self.own_touched.drain(..) {
            let row = &mut self.rows[slot as usize];
            row.has = false;
            self.runs[own].push((row.vertex, row.acc));
        }
        Some(own)
    }

    /// Flush, and drain every run: `(agent, vertex, value)` in the
    /// order the agent would put them on the wire.
    #[cfg(test)]
    pub fn flushed(&mut self) -> Vec<(AgentId, VertexId, u64)> {
        self.flush();
        let mut all = Vec::new();
        for (run, &agent) in self.runs.iter_mut().zip(&self.members) {
            all.extend(run.drain(..).map(|(v, x)| (agent, v, x)));
        }
        all
    }

    /// Destinations a flush may have filled a run for.
    pub fn members(&self) -> &[AgentId] {
        &self.members
    }

    /// Take member `dst`'s flushed run; hand the emptied buffer back
    /// through [`TargetTable::recycle`] so its capacity is reused.
    pub fn take_run(&mut self, dst: usize) -> Vec<(VertexId, u64)> {
        std::mem::take(&mut self.runs[dst])
    }

    /// Return a run buffer taken by [`TargetTable::take_run`].
    pub fn recycle(&mut self, dst: usize, mut run: Vec<(VertexId, u64)>) {
        run.clear();
        self.runs[dst] = run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_slots_spill_to_a_block_they_keep() {
        let mut slots = EdgeSlots::default();
        slots.extend(0..3);
        slots.extend(3..5);
        assert!(matches!(slots, EdgeSlots::Inline(..)));
        assert_eq!(slots.as_slice(), [0, 1, 2, 3, 4]);
        slots.extend(5..9);
        assert_eq!(slots.as_slice(), [0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let block = slots.as_slice().as_ptr();
        // Emptied and refilled in two sides: the block is reused.
        slots.clear();
        assert_eq!(slots.len(), 0);
        slots.extend(10..14);
        slots.extend(14..19);
        assert_eq!(slots.as_slice(), (10..19).collect::<Vec<u32>>());
        assert_eq!(slots.as_slice().as_ptr(), block);
        // Patched as a list is: the last slot takes a removed one's
        // place, a cut keeps the prefix, and the block stays.
        slots.swap_remove(2);
        slots.truncate(6);
        assert_eq!(slots.as_slice(), [10, 11, 18, 13, 14, 15]);
        slots.truncate(9);
        assert_eq!(slots.len(), 6);
        assert_eq!(slots.as_slice().as_ptr(), block);
    }

    #[test]
    fn interning_is_idempotent_per_vertex_and_destination() {
        let mut table = TargetTable::new(0);
        let a = table.intern(7, 1);
        let b = table.intern(7, 2);
        let c = table.intern(8, 1);
        assert_eq!(table.len(), 3);
        assert!(a != b && a != c && b != c);
        assert_eq!((table.intern(7, 1), table.intern(7, 2)), (a, b));
        assert_eq!(table.intern(8, 1), c);
        assert_eq!(table.len(), 3);
        assert_eq!(table.members(), [1, 2]);
        // Through several doublings of the index, too.
        let many: Vec<u32> = (0..1000).map(|v| table.intern(v * 3, 1 + v % 3)).collect();
        let again: Vec<u32> = (0..1000).map(|v| table.intern(v * 3, 1 + v % 3)).collect();
        assert_eq!(many, again);
        assert_eq!(table.len(), 3 + 1000);
    }

    #[test]
    fn flush_emits_each_touched_row_once_in_first_touch_order() {
        let mut table = TargetTable::new(0);
        let slots: Vec<u32> = (0..5).map(|v| table.intern(v, 1 + v % 2)).collect();
        let add = |a: u64, b: u64| a + b;
        table.accumulate(&[(slots[3], 10), (slots[0], 1), (slots[3], 5)], add);
        table.accumulate(&[(NO_SLOT, 99), (slots[4], 2), (slots[0], 1)], add);
        // Agent 1 holds the even vertices, agent 2 the odd ones; within
        // a destination, first touch decides the order.
        assert_eq!(table.flushed(), [(1, 0, 2), (1, 4, 2), (2, 3, 15)]);
        // Cleared: nothing is emitted for a row no edge touched since.
        assert_eq!(table.flushed(), []);
        table.accumulate(&[(slots[3], 4)], add);
        assert_eq!(table.flushed(), [(2, 3, 4)]);
    }

    #[test]
    fn own_rows_are_taken_alone_and_the_rest_keep_combining() {
        // The table of agent 2, whose rows are the odd vertices.
        let mut table = TargetTable::new(2);
        assert_eq!(table.flush_own(), None);
        let slots: Vec<u32> = (0..5).map(|v| table.intern(v, 1 + v % 2)).collect();
        let add = |a: u64, b: u64| a + b;
        table.accumulate(&[(slots[3], 10), (slots[0], 1), (slots[1], 7)], add);
        let own = table.flush_own().expect("agent 2 is a member");
        assert_eq!(table.members()[own], 2);
        let run = table.take_run(own);
        assert_eq!(run, [(3, 10), (1, 7)]);
        table.recycle(own, run);
        // A second round: the peer's row combines with the first one's,
        // the own row starts over.
        table.accumulate(&[(slots[0], 1), (slots[3], 5), (slots[2], 4)], add);
        table.flush_own();
        assert_eq!(table.take_run(own), [(3, 5)]);
        assert_eq!(table.flushed(), [(1, 0, 2), (1, 2, 4)]);
        // A clear forgets which member is this agent until a row names it.
        table.clear();
        assert_eq!(table.flush_own(), None);
        let slot = table.intern(9, 2);
        table.accumulate(&[(slot, 3)], add);
        let own = table.flush_own().expect("named again");
        assert_eq!(table.take_run(own), [(9, 3)]);
    }

    #[test]
    fn the_garbage_rule_clears_and_bumps() {
        let mut table = TargetTable::new(0);
        let first = table.generation();
        for v in 0..(GARBAGE_SLACK as u64 + 21) {
            table.intern(v, 1);
        }
        // 1,045 rows against 10 edges held: 2 × 10 + 1,024 = 1,044.
        assert!(!table.collect_garbage(11));
        assert_eq!(table.generation(), first);
        assert!(table.collect_garbage(10));
        assert_eq!((table.len(), table.generation()), (0, first + 1));
        assert!(table.members().is_empty());
        // Slots start over.
        assert_eq!(table.intern(500, 2), 0);
    }
}
