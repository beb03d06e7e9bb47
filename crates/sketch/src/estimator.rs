//! Degree estimation on top of the count-min sketch.
//!
//! Every Participant can estimate any vertex's degree in `O(d)` from the
//! sketch its directory broadcasts (§3.4.1, "Querying the degree
//! estimate takes O(d), where d is typically 8"). In a cluster that
//! sketch is the lead's table, which folds the signed degree changes
//! the agents applied ([`crate::SketchDelta`]): an insert raises the
//! estimates of both endpoints and a delete lowers them again, and every
//! estimate stays an upper bound on the degree the agents hold.
//! [`DegreeEstimator`] is the insert-only counter over the same sketch,
//! for estimating the degrees of an edge list.

use crate::cms::CountMinSketch;

/// Counts edge endpoints and answers degree queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeEstimator {
    sketch: CountMinSketch,
}

impl DegreeEstimator {
    /// New estimator over a `depth × width` count-min sketch.
    pub fn new(width: usize, depth: usize) -> Self {
        DegreeEstimator {
            sketch: CountMinSketch::new(width, depth),
        }
    }

    /// Record the insertion of edge `(u, v)`: both endpoints gain a
    /// degree (ElGA stores in- and out-edges, §4).
    #[inline]
    pub fn record_edge(&mut self, u: u64, v: u64) {
        self.sketch.inc(u);
        if u != v {
            self.sketch.inc(v);
        }
    }

    /// Estimated (never under-counted) degree of `v`.
    #[inline]
    pub fn degree(&self, v: u64) -> u64 {
        self.sketch.estimate(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_counted_on_both_endpoints() {
        let mut d = DegreeEstimator::new(1024, 4);
        d.record_edge(1, 2);
        d.record_edge(1, 3);
        assert_eq!(d.degree(1), 2);
        assert_eq!(d.degree(2), 1);
        assert_eq!(d.degree(3), 1);
        assert_eq!(d.degree(99), 0);
    }

    #[test]
    fn self_loop_counts_once() {
        let mut d = DegreeEstimator::new(1024, 4);
        d.record_edge(5, 5);
        assert_eq!(d.degree(5), 1);
    }

    #[test]
    fn estimates_upper_bound_true_degree() {
        let mut d = DegreeEstimator::new(32, 4); // small: force collisions
        let mut truth = vec![0u64; 200];
        for i in 0..1000u64 {
            let (u, v) = (i % 200, (i * 7 + 1) % 200);
            if u != v {
                d.record_edge(u, v);
                truth[u as usize] += 1;
                truth[v as usize] += 1;
            }
        }
        for (v, &t) in truth.iter().enumerate() {
            assert!(d.degree(v as u64) >= t, "under-estimate at {v}");
        }
    }
}
