//! One ingest batch's sketch increments, sized by the batch.
//!
//! A Streamer counts every inserted edge's endpoints and ships the
//! counts to the lead directory, which folds them into the broadcast
//! [`CountMinSketch`](crate::CountMinSketch). A 64-change batch touches at most
//! `128 × depth` of the table's `width × depth` cells, so a
//! [`SketchDelta`] remembers *which* cells it touched: the wire form
//! can list `(index, count)` pairs instead of the whole table, and
//! [`SketchDelta::clear`] resets only those cells — the accumulator
//! lives as long as its Streamer and never re-zeroes the table.

use crate::cms::cell_index;

/// Count-min increments accumulated since the last
/// [`clear`](SketchDelta::clear), with the list of cells they landed
/// in. Folding [`SketchDelta::cells`] into a sketch
/// ([`CountMinSketch::fold`](crate::CountMinSketch::fold)) is the same
/// as merging a dense sketch the same updates were applied to.
#[derive(Debug, Clone)]
pub struct SketchDelta {
    width: usize,
    depth: usize,
    /// Row-major counts; nonzero exactly at the `touched` indices.
    counts: Vec<u32>,
    /// Table indices of the nonzero cells, in first-touch order.
    touched: Vec<u32>,
    items: u64,
}

impl SketchDelta {
    /// An empty delta for a `depth × width` sketch.
    ///
    /// # Panics
    /// Panics when a dimension is zero or the table has more than
    /// `u32::MAX` cells (indices travel as `u32`).
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        let cells = width.checked_mul(depth).filter(|&c| c <= u32::MAX as usize);
        SketchDelta {
            width,
            depth,
            counts: vec![0; cells.expect("sketch table indexable by u32")],
            touched: Vec::new(),
            items: 0,
        }
    }

    /// Width (counters per row) of the sketch this is a delta for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Depth (rows) of the sketch this is a delta for.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Updates accumulated.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Add `count` to `key`, as
    /// [`CountMinSketch::add`](crate::CountMinSketch::add) would.
    pub fn add(&mut self, key: u64, count: u32) {
        if count == 0 {
            return;
        }
        for row in 0..self.depth {
            let idx = cell_index(self.width, row, key);
            let cell = &mut self.counts[idx];
            if *cell == 0 {
                self.touched.push(idx as u32);
            }
            *cell = cell.saturating_add(count);
        }
        self.items += u64::from(count);
    }

    /// Record the insertion of edge `(u, v)`: both endpoints gain a
    /// degree, a self-loop one (as
    /// [`DegreeEstimator::record_edge`](crate::DegreeEstimator::record_edge)).
    #[inline]
    pub fn record_edge(&mut self, u: u64, v: u64) {
        self.add(u, 1);
        if u != v {
            self.add(v, 1);
        }
    }

    /// Number of distinct cells touched.
    pub fn touched(&self) -> usize {
        self.touched.len()
    }

    /// `(table index, count)` of every touched cell, in first-touch
    /// order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (usize, u32)> + '_ {
        self.touched
            .iter()
            .map(|&idx| (idx as usize, self.counts[idx as usize]))
    }

    /// The counts of `row` in column order, untouched cells zero.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn row(&self, row: usize) -> &[u32] {
        &self.counts[row * self.width..(row + 1) * self.width]
    }

    /// Forget the accumulated updates; costs the touched cells, not the
    /// table.
    pub fn clear(&mut self) {
        for idx in self.touched.drain(..) {
            self.counts[idx as usize] = 0;
        }
        self.items = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cms::{CountMinSketch, DimensionMismatch};

    fn fold(delta: &SketchDelta, into: &mut CountMinSketch) -> Result<(), DimensionMismatch> {
        into.fold((delta.width, delta.depth), delta.cells(), delta.items)
    }

    #[test]
    fn folding_a_delta_equals_direct_updates() {
        let mut direct = CountMinSketch::new(64, 4);
        let mut delta = SketchDelta::new(64, 4);
        for k in 0..200u64 {
            direct.add(k % 37, (k % 5) as u32);
            delta.add(k % 37, (k % 5) as u32);
        }
        let mut folded = CountMinSketch::new(64, 4);
        fold(&delta, &mut folded).unwrap();
        assert_eq!(folded, direct);
        assert_eq!(folded.estimate_bound(), direct.estimate_bound());
        assert!(delta.touched() <= 37 * 4);
    }

    #[test]
    fn clear_resets_only_what_was_touched_and_the_delta_is_reusable() {
        let mut delta = SketchDelta::new(32, 3);
        delta.record_edge(1, 2);
        delta.record_edge(5, 5);
        assert_eq!(delta.items(), 3);
        assert_eq!(delta.touched(), 9);
        delta.clear();
        assert_eq!((delta.items(), delta.touched()), (0, 0));
        assert!((0..3).all(|r| delta.row(r).iter().all(|&c| c == 0)));
        delta.record_edge(1, 2);
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
