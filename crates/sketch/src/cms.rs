//! Count-min sketch (Cormode & Muthukrishnan), the sketch ElGA
//! broadcasts through its directory system (§3.3.1).
//!
//! The table is `depth` rows of `width` counters. Each update hashes the
//! key once per row and increments one counter per row; a query takes
//! the minimum over rows. Because counters only grow ("only going in one
//! direction", §2.4), an estimate can exceed the true count but never
//! under-count — exactly the bias ElGA wants for replication decisions:
//! a heavy vertex is never missed, at worst a light vertex is split
//! unnecessarily.
//!
//! Sizing (§3.3.1): `width = ceil(e / ε)` and `depth = ceil(ln(1/δ))`
//! guarantee additive error at most `ε·m` after `m` updates with
//! probability `1 − δ`. The paper's example: 100 B edges, width `2^18`,
//! depth 8 → every degree estimate within ~1 M at 99.965 % probability,
//! in 8 MB.

use elga_hash::funcs::wang64;
use serde::{Deserialize, Serialize};

/// A count-min sketch over `u64` keys with saturating `u32` counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` counter table.
    table: Vec<u32>,
    /// Largest counter of each row. Counters only grow, so every write
    /// keeps its row's entry current with one compare and
    /// [`CountMinSketch::estimate_bound`] never scans the table.
    row_max: Vec<u32>,
    /// Total updates applied (the stream length `m`).
    items: u64,
}

/// Per-row seed: decorrelates the row hash functions.
#[inline]
fn row_seed(row: usize) -> u64 {
    // splitmix-style sequence of seeds
    wang64((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93)
}

/// Table index of `key`'s counter in `row` of a sketch `width` wide —
/// the one cell layout [`CountMinSketch`] and
/// [`SketchDelta`](crate::SketchDelta) share.
#[inline]
pub(crate) fn cell_index(width: usize, row: usize, key: u64) -> usize {
    let h = wang64(key ^ row_seed(row));
    row * width + (h % width as u64) as usize
}

impl CountMinSketch {
    /// Create a `depth × width` sketch.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        CountMinSketch {
            width,
            depth,
            table: vec![0; width * depth],
            row_max: vec![0; depth],
            items: 0,
        }
    }

    /// Create a sketch sized for additive error `ε·m` with failure
    /// probability `δ`: `width = ceil(e/ε)`, `depth = ceil(ln(1/δ))`.
    pub fn with_error(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        CountMinSketch::new(width, depth)
    }

    /// Width (counters per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Depth (number of rows / hash functions).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total updates applied across all keys.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Size of the counter table in bytes (what the directory
    /// broadcasts; the paper's `O(P + d·w)` term).
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// The additive error bound `ε·m = (e/width)·items` the sketch
    /// currently guarantees with probability `1 − e^{-depth}`.
    pub fn current_error_bound(&self) -> f64 {
        std::f64::consts::E / self.width as f64 * self.items as f64
    }

    #[inline]
    fn index(&self, row: usize, key: u64) -> usize {
        cell_index(self.width, row, key)
    }

    /// Add `count` to `key`.
    pub fn add(&mut self, key: u64, count: u32) {
        for row in 0..self.depth {
            let idx = self.index(row, key);
            let cell = self.table[idx].saturating_add(count);
            self.table[idx] = cell;
            self.row_max[row] = self.row_max[row].max(cell);
        }
        self.items += u64::from(count);
    }

    /// Add one to `key`.
    #[inline]
    pub fn inc(&mut self, key: u64) {
        self.add(key, 1);
    }

    /// Point estimate for `key`: minimum counter across rows. Never
    /// less than the true count.
    pub fn estimate(&self, key: u64) -> u64 {
        let mut min = u32::MAX;
        for row in 0..self.depth {
            min = min.min(self.table[self.index(row, key)]);
        }
        u64::from(min)
    }

    /// An upper bound on [`CountMinSketch::estimate`] for *every* key,
    /// inserted or not: the smallest row maximum. An estimate is the
    /// minimum over rows of one cell per row, and no cell exceeds its
    /// row's maximum. `O(depth)`, and no key is hashed: lets a caller
    /// rule out "some vertex is over the replication threshold" without
    /// looking at any vertex.
    pub fn estimate_bound(&self) -> u64 {
        u64::from(self.row_max.iter().copied().min().unwrap_or(0))
    }

    /// Batched [`CountMinSketch::estimate`]: one estimate per key, in
    /// order. Row seeds are computed once for the whole batch instead
    /// of once per `(row, key)` pair, which matters on routing paths
    /// that estimate thousands of vertices per ingest batch.
    pub fn estimate_many(&self, keys: &[u64]) -> Vec<u64> {
        let seeds: Vec<u64> = (0..self.depth).map(row_seed).collect();
        keys.iter()
            .map(|&key| {
                let mut min = u32::MAX;
                for (row, &seed) in seeds.iter().enumerate() {
                    let h = wang64(key ^ seed);
                    let idx = row * self.width + (h % self.width as u64) as usize;
                    min = min.min(self.table[idx]);
                }
                u64::from(min)
            })
            .collect()
    }

    /// Merge another sketch of identical dimensions (counter-wise sum).
    /// Agents accumulate local sketches and directories merge them into
    /// the broadcast view.
    ///
    /// # Errors
    /// Returns `Err` when dimensions differ.
    pub fn merge(&mut self, other: &CountMinSketch) -> Result<(), DimensionMismatch> {
        let cells = other.table.iter().copied().enumerate();
        self.fold((other.width, other.depth), cells, other.items)
    }

    /// Fold `(table index, count)` cells of a `dims = (width, depth)`
    /// sketch into this one, `items` updates in all: [`merge`] for a
    /// delta that lists only the cells it touched. Indices are
    /// row-major, as [`SketchDelta::cells`](crate::SketchDelta::cells)
    /// yields them.
    ///
    /// [`merge`]: CountMinSketch::merge
    ///
    /// # Errors
    /// Returns `Err`, with nothing folded, when dimensions differ.
    ///
    /// # Panics
    /// Panics on an index outside the table.
    pub fn fold(
        &mut self,
        dims: (usize, usize),
        cells: impl IntoIterator<Item = (usize, u32)>,
        items: u64,
    ) -> Result<(), DimensionMismatch> {
        if (self.width, self.depth) != dims {
            return Err(DimensionMismatch {
                expected: (self.width, self.depth),
                got: dims,
            });
        }
        // A dense delta walks each row left to right: look the row up,
        // and write its maximum back, only when an index leaves the row
        // the previous one was in.
        let (mut row, mut max) = (0, self.row_max[0]);
        for (idx, count) in cells {
            if idx.wrapping_sub(row * self.width) >= self.width {
                self.row_max[row] = max;
                row = idx / self.width;
                max = self.row_max[row];
            }
            let cell = &mut self.table[idx];
            *cell = cell.saturating_add(count);
            max = max.max(*cell);
        }
        self.row_max[row] = max;
        self.items += items;
        Ok(())
    }

    /// The counters of `row`, in column order — what the directory's
    /// wire encoding of the broadcast sketch copies out.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn row(&self, row: usize) -> &[u32] {
        &self.table[row * self.width..(row + 1) * self.width]
    }

    /// Reassemble a sketch from its wire parts. Returns `None` when the
    /// cell count does not match `width × depth` or a dimension is
    /// zero.
    pub fn from_parts(
        width: usize,
        depth: usize,
        cells: Vec<u32>,
        items: u64,
    ) -> Option<CountMinSketch> {
        if width == 0 || depth == 0 || cells.len() != width * depth {
            return None;
        }
        let row_max = |row: &[u32]| row.iter().copied().max().unwrap_or(0);
        Some(CountMinSketch {
            width,
            depth,
            row_max: cells.chunks_exact(width).map(row_max).collect(),
            table: cells,
            items,
        })
    }

    /// Reset every counter to zero.
    pub fn clear(&mut self) {
        self.table.fill(0);
        self.row_max.fill(0);
        self.items = 0;
    }

    /// True when no updates have been applied.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }
}

/// Error returned by [`CountMinSketch::merge`] on shape mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// `(width, depth)` of the receiver.
    pub expected: (usize, usize),
    /// `(width, depth)` of the argument.
    pub got: (usize, usize),
}

impl std::fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sketch dimension mismatch: expected {:?}, got {:?}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for DimensionMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = CountMinSketch::new(64, 4);
        assert!(s.is_empty());
        assert_eq!(s.estimate(42), 0);
        assert_eq!(s.items(), 0);
    }

    #[test]
    fn single_key_exact_without_collisions() {
        let mut s = CountMinSketch::new(1024, 4);
        for _ in 0..100 {
            s.inc(7);
        }
        assert_eq!(s.estimate(7), 100);
        assert_eq!(s.items(), 100);
    }

    #[test]
    fn never_underestimates() {
        // Deliberately tiny sketch to force collisions.
        let mut s = CountMinSketch::new(8, 2);
        let mut truth = std::collections::HashMap::new();
        for k in 0..100u64 {
            let c = (k % 7 + 1) as u32;
            s.add(k, c);
            *truth.entry(k).or_insert(0u64) += u64::from(c);
        }
        for (k, t) in truth {
            assert!(s.estimate(k) >= t, "under-estimate for {k}");
        }
    }

    #[test]
    fn estimate_bound_covers_every_key() {
        let mut s = CountMinSketch::new(8, 3);
        assert_eq!(s.estimate_bound(), 0);
        for k in 0..50u64 {
            s.add(k, (k % 5 + 1) as u32);
        }
        s.add(7, 1_000);
        assert!(s.estimate_bound() >= 1_000, "the heavy key is covered");
        assert!(
            s.estimate_bound() <= s.items(),
            "no cell exceeds the stream"
        );
        // Keys never inserted are covered too.
        for k in 0..500u64 {
            assert!(s.estimate(k) <= s.estimate_bound(), "key {k}");
        }
    }

    #[test]
    fn estimate_many_matches_pointwise_estimates() {
        let mut s = CountMinSketch::new(64, 4);
        for k in 0..300u64 {
            s.add(k, (k % 11 + 1) as u32);
        }
        let keys: Vec<u64> = (0..400).map(|i| i * 13 % 350).collect();
        let batched = s.estimate_many(&keys);
        assert_eq!(batched.len(), keys.len());
        for (&k, &est) in keys.iter().zip(&batched) {
            assert_eq!(est, s.estimate(k), "key {k}");
        }
        assert!(s.estimate_many(&[]).is_empty());
    }

    #[test]
    fn error_bound_holds_for_most_keys() {
        let mut s = CountMinSketch::with_error(0.01, 0.01);
        let n = 10_000u64;
        for k in 0..n {
            s.inc(k);
        }
        let bound = s.current_error_bound().ceil() as u64;
        let violations = (0..n).filter(|&k| s.estimate(k) > 1 + bound).count();
        // delta = 1% failure probability per key; allow generous slack.
        assert!(
            violations < (n / 20) as usize,
            "{violations} of {n} keys exceeded the error bound"
        );
    }

    #[test]
    fn with_error_sizes_match_formula() {
        let s = CountMinSketch::with_error(0.001, 0.000_35);
        assert_eq!(s.width(), (std::f64::consts::E / 0.001).ceil() as usize);
        assert_eq!(s.depth(), 8); // ln(1/0.00035) ≈ 7.96 → paper's depth 8
    }

    #[test]
    fn paper_sizing_example_fits_8mb() {
        // §3.3.1: width 2^18, depth 8 → 8 MB table.
        let s = CountMinSketch::new(1 << 18, 8);
        assert_eq!(s.table_bytes(), 8 << 20);
    }

    #[test]
    fn merge_matches_sequential_updates() {
        let mut a = CountMinSketch::new(256, 4);
        let mut b = CountMinSketch::new(256, 4);
        let mut whole = CountMinSketch::new(256, 4);
        for k in 0..500u64 {
            if k % 2 == 0 {
                a.inc(k);
            } else {
                b.inc(k);
            }
            whole.inc(k);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.items(), whole.items());
        for k in 0..500u64 {
            assert_eq!(a.estimate(k), whole.estimate(k));
        }
    }

    #[test]
    fn fold_takes_cells_in_any_order_and_keeps_the_row_maxima() {
        let mut s = CountMinSketch::new(4, 3);
        // Rows 2, 0, 2, 1: no order, one cell twice.
        s.fold((4, 3), [(9, 7), (0, 1), (9, 2), (6, 30)], 40)
            .unwrap();
        assert_eq!((s.row(0)[0], s.row(1)[2], s.row(2)[1]), (1, 30, 9));
        assert_eq!((s.items(), s.estimate_bound()), (40, 1));
        s.fold((4, 3), [(3, 8)], 8).unwrap();
        assert_eq!(s.estimate_bound(), 8);
        assert!(s.fold((3, 4), [(0, 1)], 1).is_err(), "same cell count");
        assert_eq!(s.items(), 48);
    }

    #[test]
    #[should_panic]
    fn fold_panics_on_an_index_past_the_table() {
        let _ = CountMinSketch::new(4, 3).fold((4, 3), [(12, 1)], 1);
    }

    #[test]
    fn merge_rejects_mismatched_dimensions() {
        let mut a = CountMinSketch::new(128, 4);
        let b = CountMinSketch::new(64, 4);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err.expected, (128, 4));
        assert_eq!(err.got, (64, 4));
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn clear_resets() {
        let mut s = CountMinSketch::new(64, 2);
        s.add(1, 10);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.estimate(1), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut s = CountMinSketch::new(4, 1);
        s.add(0, u32::MAX);
        s.add(0, 10);
        assert_eq!(s.estimate(0), u64::from(u32::MAX));
    }
}
