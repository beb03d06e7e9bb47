//! Signed sketch updates accumulated between two pushes to the lead.
//!
//! An agent counts the degree changes it applies — one up for an edge
//! placement it stored, one down for one it removed, nothing for a
//! duplicate insert or the delete of an absent edge — and ships them to
//! the lead directory, which folds them into the broadcast
//! [`CountMinSketch`](crate::CountMinSketch). A batch touches at most
//! `depth` cells per vertex it changed, a small part of the table's
//! `width × depth`, so a [`SketchDelta`] remembers *which* cells it
//! touched: the wire form can list `(index, count)` pairs instead of the
//! whole table, and [`SketchDelta::clear`] resets only those cells
//! unless they are most of the table — the accumulator lives as long as
//! its agent.

use crate::cms::Rows;

/// Count-min updates of either sign accumulated since the last
/// [`clear`](SketchDelta::clear), with the list of cells they landed
/// in. Folding [`SketchDelta::cells`] into a sketch
/// ([`CountMinSketch::fold`](crate::CountMinSketch::fold)) adds the
/// same counts [`CountMinSketch::add`](crate::CountMinSketch::add)
/// would for the increments, and takes away the decrements.
#[derive(Debug, Clone)]
pub struct SketchDelta {
    rows: Rows,
    /// Row-major counts; zero outside the `touched` cells.
    counts: Vec<i32>,
    /// One bit per cell: whether it is in `touched`.
    listed: Vec<u64>,
    /// Table indices of the cells touched, in first-touch order. A
    /// cell's count may have come back to zero since.
    touched: Vec<u32>,
    items: i64,
}

impl SketchDelta {
    /// An empty delta for a `depth × width` sketch.
    ///
    /// # Panics
    /// Panics when a dimension is zero or the table has more than
    /// `u32::MAX` cells (indices travel as `u32`).
    pub fn new(width: usize, depth: usize) -> Self {
        let rows = Rows::new(width, depth);
        let cells = width.checked_mul(depth).filter(|&c| c <= u32::MAX as usize);
        let cells = cells.expect("sketch table indexable by u32");
        SketchDelta {
            rows,
            counts: vec![0; cells],
            listed: vec![0; cells.div_ceil(64)],
            touched: Vec::new(),
            items: 0,
        }
    }

    /// Width (counters per row) of the sketch this is a delta for.
    pub fn width(&self) -> usize {
        self.rows.width()
    }

    /// Depth (rows) of the sketch this is a delta for.
    pub fn depth(&self) -> usize {
        self.rows.depth()
    }

    /// Net updates accumulated.
    pub fn items(&self) -> i64 {
        self.items
    }

    /// Add `count`, of either sign, to `key`.
    pub fn add(&mut self, key: u64, count: i32) {
        if count == 0 {
            return;
        }
        for idx in self.rows.cells(key) {
            let (word, bit) = (idx / 64, 1u64 << (idx % 64));
            if self.listed[word] & bit == 0 {
                self.listed[word] |= bit;
                self.touched.push(idx as u32);
            }
            self.counts[idx] = self.counts[idx].saturating_add(count);
        }
        self.items += i64::from(count);
    }

    /// Number of distinct cells touched.
    pub fn touched(&self) -> usize {
        self.touched.len()
    }

    /// `(table index, count)` of every touched cell, in first-touch
    /// order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (usize, i32)> + '_ {
        self.touched
            .iter()
            .map(|&idx| (idx as usize, self.counts[idx as usize]))
    }

    /// Every count, row-major as the table lays them out, untouched
    /// cells zero.
    pub fn counts(&self) -> &[i32] {
        &self.counts
    }

    /// Forget the accumulated updates; costs the touched cells, not the
    /// table, unless they are most of it.
    pub fn clear(&mut self) {
        if self.touched.len() * 4 > self.counts.len() {
            self.counts.fill(0);
            self.listed.fill(0);
            self.touched.clear();
        } else {
            for idx in self.touched.drain(..) {
                let idx = idx as usize;
                self.counts[idx] = 0;
                self.listed[idx / 64] &= !(1 << (idx % 64));
            }
        }
        self.items = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cms::{CountMinSketch, DimensionMismatch};

    fn fold(delta: &SketchDelta, into: &mut CountMinSketch) -> Result<(), DimensionMismatch> {
        let dims = (delta.width(), delta.depth());
        into.fold(dims, delta.cells(), delta.items, |_| 0)
            .map(|_| ())
    }

    #[test]
    fn folding_a_delta_equals_direct_updates() {
        let mut direct = CountMinSketch::new(64, 4);
        let mut delta = SketchDelta::new(64, 4);
        for k in 0..200u64 {
            direct.add(k % 37, (k % 5) as u32);
            delta.add(k % 37, (k % 5) as i32);
        }
        let mut folded = CountMinSketch::new(64, 4);
        fold(&delta, &mut folded).unwrap();
        assert_eq!(folded, direct);
        assert_eq!(folded.estimate_bound(), direct.estimate_bound());
        assert!(delta.touched() <= 37 * 4);
    }

    #[test]
    fn a_cell_is_listed_once_however_often_it_comes_back_to_zero() {
        let mut delta = SketchDelta::new(32, 3);
        delta.add(1, 1);
        delta.add(1, -1);
        delta.add(1, 2);
        delta.add(5, -1);
        assert_eq!((delta.items(), delta.touched()), (1, 6));
        let mut s = CountMinSketch::new(32, 3);
        s.add(5, 4);
        fold(&delta, &mut s).unwrap();
        assert_eq!((s.estimate(1), s.estimate(5), s.items()), (2, 3, 5));
    }

    #[test]
    fn clear_resets_only_what_was_touched_and_the_delta_is_reusable() {
        let mut delta = SketchDelta::new(32, 3);
        delta.add(1, 1);
        delta.add(2, 1);
        delta.add(5, 2);
        assert_eq!(delta.items(), 4);
        assert_eq!(delta.touched(), 9);
        delta.clear();
        assert_eq!((delta.items(), delta.touched()), (0, 0));
        assert!(delta.counts().iter().all(|&c| c == 0));
        delta.add(1, 1);
        delta.add(2, 1);
        assert_eq!(delta.touched(), 6, "cleared cells are listed anew");
        let mut s = CountMinSketch::new(32, 3);
        fold(&delta, &mut s).unwrap();
        assert_eq!((s.estimate(1), s.estimate(2), s.estimate(5)), (1, 1, 0));
    }

    #[test]
    fn fold_rejects_mismatched_dimensions_and_leaves_the_sketch_alone() {
        let mut delta = SketchDelta::new(64, 4);
        delta.add(9, 3);
        let mut s = CountMinSketch::new(32, 4);
        assert_eq!(fold(&delta, &mut s).unwrap_err().got, (64, 4));
        assert!(s.is_empty());
    }
}
