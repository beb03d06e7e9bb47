//! Count-min sketch (Cormode & Muthukrishnan), the sketch ElGA
//! broadcasts through its directory system (§3.3.1).
//!
//! The table is `depth` rows of `width` counters. Each update hashes the
//! key once per row and adds to one counter per row; a query takes the
//! minimum over rows. The paper's counters only grow ("only going in one
//! direction", §2.4). Here a fold may also take counts away, on one
//! condition its callers keep: every decrement follows the increment it
//! cancels (a *strict turnstile*). Every counter is then the sum of the
//! net counts of the keys hashed to it, none of them negative, so an
//! estimate can exceed a key's net count but never fall below it —
//! exactly the bias ElGA wants for replication decisions: a heavy vertex
//! is never missed, at worst a light vertex is split unnecessarily.
//!
//! Sizing (§3.3.1): `width = ceil(e / ε)` and `depth = ceil(ln(1/δ))`
//! guarantee additive error at most `ε·m` after `m` updates with
//! probability `1 − δ`. The paper's example: 100 B edges, width `2^18`,
//! depth 8 → every degree estimate within ~1 M at 99.965 % probability,
//! in 8 MB.

use elga_hash::funcs::wang64;

/// Where a key's counters are, one per row: the cell layout
/// [`CountMinSketch`] and [`SketchDelta`](crate::SketchDelta) share,
/// with the row seeds derived once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rows {
    width: usize,
    /// One seed per row: decorrelates the row hash functions.
    seeds: Vec<u64>,
}

/// The seed of `row`: a splitmix-style sequence.
fn row_seed(row: usize) -> u64 {
    wang64((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93)
}

impl Rows {
    /// The layout of a `depth × width` table.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub(crate) fn new(width: usize, depth: usize) -> Rows {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        Rows {
            width,
            seeds: (0..depth).map(row_seed).collect(),
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn depth(&self) -> usize {
        self.seeds.len()
    }

    /// Row-major table index of `key`'s counter in each row, row by row.
    #[inline]
    pub(crate) fn cells(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let width = self.width as u64;
        // A power-of-two width (the default) keeps the hash's low bits:
        // the column the remainder gives, without a division.
        let mask = width.is_power_of_two().then_some(width - 1);
        self.seeds.iter().enumerate().map(move |(row, &seed)| {
            let h = wang64(key ^ seed);
            let column = mask.map_or_else(|| h % width, |mask| h & mask);
            row * self.width + column as usize
        })
    }
}

/// A count-min sketch over `u64` keys with saturating `u32` counters.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: Rows,
    /// Row-major `depth × width` counter table.
    table: Vec<u32>,
    /// An upper bound on each row's largest counter. An increment keeps
    /// it exact with one compare; a decrement leaves it where it was, so
    /// after one it may stand above every counter of its row until
    /// [`CountMinSketch::rescan_bound`].
    row_max: Vec<u32>,
    /// Net updates applied (the stream length `m`).
    items: u64,
}

/// Equal dimensions, counters and item counts. The row maxima are
/// derived, and one kept through decrements may be looser than a
/// rescan's.
impl PartialEq for CountMinSketch {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.table == other.table && self.items == other.items
    }
}

impl Eq for CountMinSketch {}

impl CountMinSketch {
    /// Create a `depth × width` sketch.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(width: usize, depth: usize) -> Self {
        CountMinSketch {
            rows: Rows::new(width, depth),
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
        self.rows.width()
    }

    /// Depth (number of rows / hash functions).
    pub fn depth(&self) -> usize {
        self.rows.depth()
    }

    /// Net updates applied across all keys.
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
        std::f64::consts::E / self.width() as f64 * self.items as f64
    }

    /// Add `count` to `key`.
    pub fn add(&mut self, key: u64, count: u32) {
        for (row, idx) in self.rows.cells(key).enumerate() {
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
        let min = self.rows.cells(key).map(|idx| self.table[idx]);
        u64::from(min.fold(u32::MAX, u32::min))
    }

    /// An upper bound on [`CountMinSketch::estimate`] for *every* key,
    /// inserted or not: the smallest row maximum. An estimate is the
    /// minimum over rows of one cell per row, and no cell exceeds its
    /// row's maximum. `O(depth)`, and no key is hashed: lets a caller
    /// rule out "some vertex is over the replication threshold" without
    /// looking at any vertex. After decrements the bound may be loose
    /// until [`CountMinSketch::rescan_bound`].
    pub fn estimate_bound(&self) -> u64 {
        u64::from(self.row_max.iter().copied().min().unwrap_or(0))
    }

    /// Recompute every row's maximum from its counters, which makes
    /// [`CountMinSketch::estimate_bound`] tight again after decrements.
    /// One pass over the table.
    pub fn rescan_bound(&mut self) {
        let rows = self.table.chunks_exact(self.rows.width());
        for (max, row) in self.row_max.iter_mut().zip(rows) {
            *max = row.iter().copied().max().unwrap_or(0);
        }
    }

    /// Batched [`CountMinSketch::estimate`]: one estimate per key, in
    /// order.
    pub fn estimate_many(&self, keys: &[u64]) -> Vec<u64> {
        keys.iter().map(|&key| self.estimate(key)).collect()
    }

    /// Merge another sketch of identical dimensions (counter-wise sum).
    ///
    /// # Errors
    /// Returns `Err` when dimensions differ.
    pub fn merge(&mut self, other: &CountMinSketch) -> Result<(), DimensionMismatch> {
        self.check((other.width(), other.depth()))?;
        for (cell, &count) in self.table.iter_mut().zip(&other.table) {
            *cell = cell.saturating_add(count);
        }
        self.rescan_bound();
        self.items += other.items;
        Ok(())
    }

    fn check(&self, dims: (usize, usize)) -> Result<(), DimensionMismatch> {
        let expected = (self.width(), self.depth());
        if expected == dims {
            Ok(())
        } else {
            Err(DimensionMismatch {
                expected,
                got: dims,
            })
        }
    }

    /// Fold `(table index, count)` cells of a `dims = (width, depth)`
    /// sketch into this one, `items` net updates in all: [`merge`] for a
    /// delta that lists only the cells it touched, with counts of either
    /// sign. Indices are row-major, as
    /// [`SketchDelta::cells`](crate::SketchDelta::cells) yields them.
    /// A negative count must cancel increments folded earlier (module
    /// docs); a counter it would take below zero stops at zero.
    ///
    /// `class` buckets a counter's value (the lead passes the
    /// replication factor it implies), and the fold says whether any
    /// counter it changed moved to another bucket.
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
        cells: impl IntoIterator<Item = (usize, i32)>,
        items: i64,
        class: impl Fn(u32) -> u32,
    ) -> Result<bool, DimensionMismatch> {
        self.check(dims)?;
        let width = self.width();
        let mut moved = false;
        // A dense delta walks each row left to right: look the row up,
        // and write its maximum back, only when an index leaves the row
        // the previous one was in.
        let (mut row, mut max) = (0, self.row_max[0]);
        for (idx, count) in cells {
            if idx.wrapping_sub(row * width) >= width {
                self.row_max[row] = max;
                row = idx / width;
                max = self.row_max[row];
            }
            let cell = &mut self.table[idx];
            let old = *cell;
            *cell = old.saturating_add_signed(count);
            max = max.max(*cell);
            // No branch on whether the cell changed: a dense delta is
            // mostly untouched cells, in no order a predictor learns.
            moved |= class(old) != class(*cell);
        }
        self.row_max[row] = max;
        self.items = self.items.saturating_add_signed(items);
        Ok(moved)
    }

    /// The counters of `row`, in column order — what the directory's
    /// wire encoding of the broadcast sketch copies out.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn row(&self, row: usize) -> &[u32] {
        let width = self.width();
        &self.table[row * width..(row + 1) * width]
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
        let mut sketch = CountMinSketch {
            rows: Rows::new(width, depth),
            table: cells,
            row_max: vec![0; depth],
            items,
        };
        sketch.rescan_bound();
        Some(sketch)
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

    /// A fold that asks nothing about buckets.
    fn fold(
        s: &mut CountMinSketch,
        dims: (usize, usize),
        cells: impl IntoIterator<Item = (usize, i32)>,
        items: i64,
    ) -> Result<(), DimensionMismatch> {
        s.fold(dims, cells, items, |_| 0).map(|_| ())
    }

    #[test]
    fn cells_are_where_the_per_row_formula_put_them() {
        // `row * width + wang64(key ^ row_seed(row)) % width`, computed
        // per (row, key) before the seeds were kept: the wire tables
        // and every estimate depend on these cells not moving.
        let rows = Rows::new(4096, 8);
        let pinned: [(u64, [usize; 8]); 4] = [
            (0, [1374, 6061, 9648, 13227, 18154, 20945, 25043, 32106]),
            (1, [3208, 4592, 9713, 14201, 19415, 22683, 27805, 28859]),
            (77, [2607, 5497, 9436, 13567, 17397, 21056, 24639, 30229]),
            (
                1 << 40,
                [2130, 8136, 8313, 15017, 20107, 24401, 24901, 32522],
            ),
        ];
        for (key, cells) in pinned {
            assert_eq!(rows.cells(key).collect::<Vec<_>>(), cells, "key {key}");
        }
        let narrow = Rows::new(10, 3);
        for (key, cells) in [(0, [0, 11, 24]), (5, [7, 19, 27]), (9, [2, 12, 28])] {
            assert_eq!(narrow.cells(key).collect::<Vec<_>>(), cells, "key {key}");
        }
        for key in 0..1000u64 {
            for (row, idx) in rows.cells(key).enumerate() {
                let h = wang64(key ^ row_seed(row));
                assert_eq!(idx, row * 4096 + (h % 4096) as usize, "key {key} row {row}");
            }
        }
    }

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
        assert_eq!(a.estimate_bound(), whole.estimate_bound());
        for k in 0..500u64 {
            assert_eq!(a.estimate(k), whole.estimate(k));
        }
    }

    #[test]
    fn fold_takes_cells_in_any_order_and_keeps_the_row_maxima() {
        let mut s = CountMinSketch::new(4, 3);
        // Rows 2, 0, 2, 1: no order, one cell twice.
        fold(&mut s, (4, 3), [(9, 7), (0, 1), (9, 2), (6, 30)], 40).unwrap();
        assert_eq!((s.row(0)[0], s.row(1)[2], s.row(2)[1]), (1, 30, 9));
        assert_eq!((s.items(), s.estimate_bound()), (40, 1));
        fold(&mut s, (4, 3), [(3, 8)], 8).unwrap();
        assert_eq!(s.estimate_bound(), 8);
        assert!(
            fold(&mut s, (3, 4), [(0, 1)], 1).is_err(),
            "same cell count"
        );
        assert_eq!(s.items(), 48);
    }

    #[test]
    fn a_decrement_leaves_the_bound_loose_until_a_rescan() {
        let mut s = CountMinSketch::new(4, 2);
        fold(&mut s, (4, 2), [(1, 50), (2, 3), (5, 50), (6, 3)], 106).unwrap();
        assert_eq!(s.estimate_bound(), 50);
        fold(&mut s, (4, 2), [(1, -50), (5, -50)], -100).unwrap();
        assert_eq!((s.row(0), s.items()), (&[0, 0, 3, 0][..], 6));
        assert_eq!(s.estimate_bound(), 50, "an upper bound, kept");
        s.rescan_bound();
        assert_eq!(s.estimate_bound(), 3);
        // A count the table cannot cancel stops at zero.
        fold(&mut s, (4, 2), [(0, -1)], -1).unwrap();
        assert_eq!((s.row(0)[0], s.items()), (0, 5));
        // Equality ignores how tight the maxima are.
        let mut fresh = CountMinSketch::new(4, 2);
        fold(&mut fresh, (4, 2), [(2, 3), (6, 3)], 5).unwrap();
        assert_eq!(s, fresh);
    }

    #[test]
    fn a_fold_says_whether_a_changed_counter_changed_bucket() {
        let mut s = CountMinSketch::new(4, 2);
        let tens = |c: u32| c / 10;
        assert!(!s.fold((4, 2), [(0, 9), (5, 9)], 9, tens).unwrap());
        assert!(s.fold((4, 2), [(0, 1), (5, 0)], 1, tens).unwrap());
        assert!(!s.fold((4, 2), [(0, 5), (5, -9)], 0, tens).unwrap());
        assert!(s.fold((4, 2), [(0, -6)], -6, tens).unwrap());
        // Listed with a net count of zero: nothing changed.
        assert!(!s.fold((4, 2), [(0, 0)], 0, |c| c).unwrap());
    }

    #[test]
    #[should_panic]
    fn fold_panics_on_an_index_past_the_table() {
        let _ = fold(&mut CountMinSketch::new(4, 3), (4, 3), [(12, 1)], 1);
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
        assert_eq!(s.estimate_bound(), 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut s = CountMinSketch::new(4, 1);
        s.add(0, u32::MAX);
        s.add(0, 10);
        assert_eq!(s.estimate(0), u64::from(u32::MAX));
    }
}
