//! Sketches for ElGA's constant-size global state (paper §2.4, §3.3.1).
//!
//! ElGA's partitioning needs one piece of global knowledge: approximate
//! vertex degrees, to decide which vertices to split across multiple
//! agents. Storing exact degrees would take `O(n)` space on every
//! participant (violating Goal 2), so ElGA broadcasts a
//! [`CountMinSketch`] instead: a `d × w` table of counters whose
//! estimates never under-count and over-count by at most `ε·m` with
//! probability `1 − δ`, in `O(d·w)` space independent of the graph.
//! Agents feed it [`SketchDelta`]s of the degree changes they applied —
//! the cells those changes touched, not the table, with counts of either
//! sign.

#![warn(missing_docs)]

pub mod cms;
pub mod delta;
pub mod estimator;

pub use cms::CountMinSketch;
pub use delta::SketchDelta;
pub use estimator::DegreeEstimator;
