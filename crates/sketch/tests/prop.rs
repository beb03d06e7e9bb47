//! Property-based tests for the sketch layer.

use elga_sketch::{CountMinSketch, DegreeEstimator, SketchDelta};
use proptest::prelude::*;

proptest! {
    /// The count-min invariant: estimates never fall below truth,
    /// regardless of table size or update pattern.
    #[test]
    fn cms_never_underestimates(
        width in 1usize..64,
        depth in 1usize..8,
        updates in prop::collection::vec((0u64..64, 1u32..16), 0..256),
    ) {
        let mut s = CountMinSketch::new(width, depth);
        let mut truth = std::collections::HashMap::new();
        for (k, c) in &updates {
            s.add(*k, *c);
            *truth.entry(*k).or_insert(0u64) += u64::from(*c);
        }
        for (k, t) in truth {
            prop_assert!(s.estimate(k) >= t);
        }
    }

    /// The smallest row maximum bounds the estimate of every key —
    /// inserted or not — however the table was filled: by updates, by a
    /// merge, or rebuilt from its wire parts.
    #[test]
    fn cms_estimate_bound_covers_every_key(
        width in 1usize..64,
        depth in 1usize..8,
        left in prop::collection::vec((0u64..96, 1u32..16), 0..128),
        right in prop::collection::vec((0u64..96, 1u32..16), 0..128),
    ) {
        let mut a = CountMinSketch::new(width, depth);
        let mut b = CountMinSketch::new(width, depth);
        for (k, c) in &left { a.add(*k, *c); }
        for (k, c) in &right { b.add(*k, *c); }
        let covers = |s: &CountMinSketch| (0..128u64).all(|k| s.estimate(k) <= s.estimate_bound());
        prop_assert!(covers(&a) && covers(&b));
        // Zero only for a sketch nothing was added to.
        prop_assert_eq!(a.estimate_bound() == 0, left.is_empty());
        a.merge(&b).unwrap();
        prop_assert!(covers(&a));
        let cells: Vec<u32> = (0..depth).flat_map(|r| a.row(r).to_vec()).collect();
        let rebuilt = CountMinSketch::from_parts(width, depth, cells, a.items()).unwrap();
        prop_assert_eq!(rebuilt.estimate_bound(), a.estimate_bound());
        prop_assert_eq!(&rebuilt, &a);
        a.clear();
        prop_assert_eq!(a.estimate_bound(), 0);
    }

    /// A batch accumulated as a [`SketchDelta`] and folded in is the
    /// batch accumulated as a dense sketch and merged in: same cells,
    /// same row maxima, same item count. Clearing costs the delta
    /// nothing it has to make up later, and a sketch of other
    /// dimensions is refused untouched.
    #[test]
    fn delta_fold_equals_dense_merge(
        width in 1usize..64,
        depth in 1usize..8,
        before in prop::collection::vec((0u64..96, 1u32..16), 0..64),
        batches in prop::collection::vec(
            prop::collection::vec((0u64..96, 0u32..16), 0..64), 1..4),
    ) {
        let mut sparse = CountMinSketch::new(width, depth);
        before.iter().for_each(|&(k, c)| sparse.add(k, c));
        let mut dense = sparse.clone();
        let mut delta = SketchDelta::new(width, depth);
        for batch in &batches {
            let mut table = CountMinSketch::new(width, depth);
            for &(k, c) in batch {
                delta.add(k, c as i32);
                table.add(k, c);
            }
            prop_assert_eq!(delta.items(), table.items() as i64);
            prop_assert!(delta.touched() <= width * depth);
            prop_assert!(delta.cells().all(|(i, c)| c > 0 && table.row(i / width)[i % width] == c as u32));
            let rows: Vec<u32> = delta.counts().iter().map(|&c| c as u32).collect();
            let same = CountMinSketch::from_parts(width, depth, rows, table.items());
            prop_assert_eq!(same.as_ref(), Some(&table));
            let dims = (width, depth);
            sparse.fold(dims, delta.cells(), delta.items(), |_| 0).unwrap();
            dense.merge(&table).unwrap();
            prop_assert_eq!(&sparse, &dense);
            prop_assert_eq!(sparse.estimate_bound(), dense.estimate_bound());
            let mut other = CountMinSketch::new(width, depth + 1);
            prop_assert!(other.fold(dims, delta.cells(), delta.items(), |_| 0).is_err());
            prop_assert!(other.is_empty());
            delta.clear();
            prop_assert_eq!((delta.items(), delta.touched()), (0, 0));
        }
    }

    /// A strict turnstile — every decrement follows the increment it
    /// cancels, as an agent's applied degree changes do — folds to the
    /// count-min sketch of the net counts, batch after batch: no counter
    /// ever had to stop at zero, every estimate is at least its key's
    /// net count, and the kept bound is at least every estimate (and,
    /// rescanned, exactly the fresh sketch's). A fold says a counter
    /// changed bucket exactly when one did.
    #[test]
    fn a_strict_turnstile_folds_to_the_sketch_of_its_net_counts(
        width in 1usize..48,
        depth in 1usize..6,
        batches in prop::collection::vec(
            prop::collection::vec((0u64..64, 1u32..12, any::<bool>()), 0..48), 1..6),
    ) {
        let mut lead = CountMinSketch::new(width, depth);
        let mut delta = SketchDelta::new(width, depth);
        let mut net = std::collections::HashMap::<u64, u32>::new();
        let tens = |c: u32| c / 10;
        for batch in &batches {
            for &(k, c, take) in batch {
                let held = net.entry(k).or_insert(0);
                // A decrement cancels at most what was added before it.
                let change = if take { -(c.min(*held) as i32) } else { c as i32 };
                *held = held.checked_add_signed(change).unwrap();
                delta.add(k, change);
            }
            let before: Vec<u32> = (0..depth).flat_map(|r| lead.row(r).to_vec()).collect();
            let moved = lead.fold((width, depth), delta.cells(), delta.items(), tens).unwrap();
            delta.clear();
            let mut fresh = CountMinSketch::new(width, depth);
            net.iter().for_each(|(&k, &c)| fresh.add(k, c));
            prop_assert_eq!(&lead, &fresh);
            let after: Vec<u32> = (0..depth).flat_map(|r| lead.row(r).to_vec()).collect();
            let crossed = before.iter().zip(&after).any(|(&b, &a)| tens(b) != tens(a));
            prop_assert_eq!(moved, crossed);
            for k in 0..96u64 {
                let est = lead.estimate(k);
                prop_assert!(est >= u64::from(net.get(&k).copied().unwrap_or(0)), "key {}", k);
                prop_assert!(est <= lead.estimate_bound(), "key {}", k);
            }
            lead.rescan_bound();
            prop_assert_eq!(lead.estimate_bound(), fresh.estimate_bound());
        }
    }

    /// Merging sketches is equivalent to applying both update streams
    /// to one sketch.
    #[test]
    fn cms_merge_equals_union(
        left in prop::collection::vec((0u64..128, 1u32..8), 0..128),
        right in prop::collection::vec((0u64..128, 1u32..8), 0..128),
    ) {
        let mut a = CountMinSketch::new(64, 4);
        let mut b = CountMinSketch::new(64, 4);
        let mut u = CountMinSketch::new(64, 4);
        for (k, c) in &left { a.add(*k, *c); u.add(*k, *c); }
        for (k, c) in &right { b.add(*k, *c); u.add(*k, *c); }
        a.merge(&b).unwrap();
        prop_assert_eq!(a.items(), u.items());
        for k in 0..128u64 {
            prop_assert_eq!(a.estimate(k), u.estimate(k));
        }
    }

    /// Update order never affects a count-min sketch.
    #[test]
    fn cms_is_order_invariant(
        mut updates in prop::collection::vec((0u64..64, 1u32..8), 1..64),
    ) {
        let mut forward = CountMinSketch::new(32, 3);
        for (k, c) in &updates { forward.add(*k, *c); }
        updates.reverse();
        let mut backward = CountMinSketch::new(32, 3);
        for (k, c) in &updates { backward.add(*k, *c); }
        prop_assert_eq!(forward, backward);
    }

    /// Degree estimator over any edge list upper-bounds the true degree
    /// of every vertex.
    #[test]
    fn estimator_upper_bounds_degree(
        edges in prop::collection::vec((0u64..40, 0u64..40), 0..200),
    ) {
        let mut est = DegreeEstimator::new(16, 3);
        let mut truth = vec![0u64; 40];
        for &(u, v) in &edges {
            est.record_edge(u, v);
            if u == v {
                truth[u as usize] += 1;
            } else {
                truth[u as usize] += 1;
                truth[v as usize] += 1;
            }
        }
        for v in 0..40u64 {
            prop_assert!(est.degree(v) >= truth[v as usize]);
        }
    }
}
