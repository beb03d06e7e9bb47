//! PageRank (paper §4.3).
//!
//! "At each iteration, a vertex receives messages from each
//! in-neighbor, aggregates them with a sum, scales the value, and
//! sends its values out to its out-neighbors." On a full run dangling
//! mass is redistributed uniformly through the directory's global
//! reduce so results match the single-threaded reference to `1e-8`
//! (§4.3); a delta run solves the substochastic system and serves it
//! normalized, which is the same fixed point.

use crate::program::{DeltaKind, ProgramSpec, VertexCtx, VertexProgram};
use elga_graph::types::VertexId;

/// Vertex-centric PageRank.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    damping: f64,
    max_iters: u32,
    tolerance: f64,
}

impl PageRank {
    /// PageRank with the given damping factor (the paper uses 0.85)
    /// and a default bound of 20 iterations.
    pub fn new(damping: f64) -> Self {
        assert!((0.0..1.0).contains(&damping), "damping must be in [0,1)");
        PageRank {
            damping,
            max_iters: 20,
            tolerance: 0.0,
        }
    }

    /// Set the superstep bound.
    pub fn with_max_iters(mut self, iters: u32) -> Self {
        self.max_iters = iters;
        self
    }

    /// Set an early-termination tolerance: the run stops when no
    /// vertex's rank moves by more than `tol` in a superstep. Zero
    /// (default) runs all iterations, matching the paper's fixed
    /// per-iteration measurements.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Damping factor.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// Decode a queried state into a rank.
    pub fn decode(state: u64) -> f64 {
        f64::from_bits(state)
    }
}

impl From<PageRank> for ProgramSpec {
    fn from(p: PageRank) -> ProgramSpec {
        ProgramSpec::PageRank {
            damping: p.damping,
            max_iters: p.max_iters,
            tolerance: p.tolerance,
        }
    }
}

impl VertexProgram for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    /// PageRank is async-legal through its *residual* delta
    /// formulation (and only through it): residual pushes accumulate
    /// commutatively — the apply is an f64 add of `d·delta/out_degree`
    /// shares — so event-driven processing needs no notion of rounds.
    /// The classic message formulation stays barriered (waiting sets
    /// count messages without tracking rounds, which drifts off the
    /// power method on cycles; see PR 5); the engine routes async
    /// PageRank through the delta path automatically. A tolerance is
    /// required for the pushes to quiesce, so the zero-tolerance
    /// configuration still declines async and the run is downgraded to
    /// the barriered path.
    fn supports_async(&self) -> bool {
        self.tolerance > 0.0
    }

    fn init(&self, _v: VertexId, ctx: &VertexCtx) -> u64 {
        (1.0 / ctx.n_vertices.max(1) as f64).to_bits()
    }

    fn identity(&self) -> u64 {
        0f64.to_bits()
    }

    fn combine(&self, a: u64, b: u64) -> u64 {
        (f64::from_bits(a) + f64::from_bits(b)).to_bits()
    }

    fn apply(&self, _v: VertexId, state: u64, agg: Option<u64>, ctx: &VertexCtx) -> (u64, bool) {
        let n = ctx.n_vertices.max(1) as f64;
        let sum = agg.map_or(0.0, f64::from_bits);
        // ctx.global carries the dangling mass of the previous ranks.
        let new = (1.0 - self.damping) / n + self.damping * (sum + ctx.global / n);
        let old = f64::from_bits(state);
        let changed = if self.tolerance > 0.0 {
            (new - old).abs() > self.tolerance
        } else {
            true
        };
        (new.to_bits(), changed)
    }

    fn scatter_out(&self, _v: VertexId, state: u64, ctx: &VertexCtx) -> Option<u64> {
        if ctx.out_degree == 0 {
            return None;
        }
        Some((f64::from_bits(state) / ctx.out_degree as f64).to_bits())
    }

    fn applies_without_messages(&self) -> bool {
        true
    }

    fn scatter_all(&self) -> bool {
        true
    }

    fn global_contrib(&self, _v: VertexId, state: u64, ctx: &VertexCtx) -> f64 {
        if ctx.out_degree == 0 {
            f64::from_bits(state)
        } else {
            0.0
        }
    }

    fn max_steps(&self) -> Option<u32> {
        Some(self.max_iters)
    }

    // --- Residual (delta) formulation --------------------------------
    //
    // A delta run solves the substochastic system, in which a sink
    // pushes nothing and every vertex's teleport term is the constant
    // c = 1 - d, and serves y / S with S = Σ y: for uniform teleport
    // that is the PageRank vector whatever the sinks hold (Langville &
    // Meyer 2004). Next to each vertex's unnormalized rank `y` the
    // engine keeps a residual `r` of not-yet-applied mass, maintaining
    //   r_v = c + d·Σ_{u→v} y_u/D_u − y_v.
    // A fold moves `r` into `y` and pushes `d·r/D_v` along each
    // out-edge; residuals within `tolerance·S` wait for the next batch.
    // Edge changes convert into residual corrections at ingest time
    // (`rescale_on_degree_change` + `edge_change_residual`): the
    // per-edge share `y/D` is invariant under the degree rescaling, so
    // stale replica copies of `(y, D)` still compute exact corrections.
    // No term depends on n, so a vertex count that moves costs nothing.

    fn delta_kind(&self) -> DeltaKind {
        if self.tolerance > 0.0 {
            DeltaKind::Residual
        } else {
            DeltaKind::None
        }
    }

    /// Fresh vertices start at zero rank with the whole teleport term
    /// pending as residual.
    fn delta_init(&self, _v: VertexId, _ctx: &VertexCtx) -> (u64, u64) {
        (0f64.to_bits(), (1.0 - self.damping).to_bits())
    }

    /// Fold a residual that would move the served value `y / S` by more
    /// than the tolerance; `ctx.global` is S (infinite on a tail cut's
    /// park step, which folds nothing).
    fn fold_residual(
        &self,
        _v: VertexId,
        state: u64,
        residual: u64,
        ctx: &VertexCtx,
    ) -> Option<(u64, u64)> {
        let r = f64::from_bits(residual);
        if r.abs() <= self.tolerance * ctx.global {
            return None;
        }
        let p = f64::from_bits(state);
        Some(((p + r).to_bits(), residual))
    }

    fn scatter_delta(&self, _v: VertexId, _state: u64, delta: u64, ctx: &VertexCtx) -> Option<u64> {
        if ctx.out_degree == 0 {
            return None;
        }
        let d = f64::from_bits(delta);
        if d == 0.0 {
            return None;
        }
        Some((self.damping * d / ctx.out_degree as f64).to_bits())
    }

    /// Ohsaka-style scaling: rescale `p` so the per-edge share `p/D`
    /// is unchanged for surviving edges, compensating in the residual.
    /// A previously dangling vertex (`d0 == 0`) can't scale from a
    /// zero denominator; its whole rank moves back into the residual
    /// and redistributes through the next fold.
    fn rescale_on_degree_change(&self, state: u64, d0: u64, d1: u64) -> Option<(u64, u64)> {
        if d0 == d1 {
            return None;
        }
        let p0 = f64::from_bits(state);
        if d0 == 0 {
            return Some((0f64.to_bits(), p0.to_bits()));
        }
        let p1 = p0 * d1 as f64 / d0 as f64;
        Some((p1.to_bits(), (p0 - p1).to_bits()))
    }

    /// An inserted edge `(u, w)` owes `w` the share `d·p_u/D_u`; a
    /// deleted edge takes it back. `share_degree` is `u`'s pre-batch
    /// out-degree as last broadcast — zero means `u` was dangling, in
    /// which case the rescale above already routed its mass.
    fn edge_change_residual(
        &self,
        _u: VertexId,
        state: u64,
        share_degree: u64,
        insert: bool,
    ) -> Option<u64> {
        if share_degree == 0 {
            return None;
        }
        let share = self.damping * f64::from_bits(state) / share_degree as f64;
        if share == 0.0 {
            return None;
        }
        Some(if insert { share } else { -share }.to_bits())
    }

    /// A full run's ranks `x` sum to one and hold `global` dangling
    /// mass; they are `y / S` for S = c·n / ((1-d) + d·global), the
    /// teleport and dangling share every vertex receives per unit of S.
    fn residual_sum(&self, n_vertices: u64, global: f64) -> f64 {
        (1.0 - self.damping) * n_vertices as f64 / (1.0 - self.damping + self.damping * global)
    }

    fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(out_degree: u64, n: u64, global: f64) -> VertexCtx {
        VertexCtx {
            out_degree,
            n_vertices: n,
            step: 1,
            global,
            ..VertexCtx::default()
        }
    }

    #[test]
    fn init_is_uniform() {
        let pr = PageRank::new(0.85);
        assert_eq!(PageRank::decode(pr.init(3, &ctx(0, 4, 0.0))), 0.25);
    }

    #[test]
    fn combine_sums() {
        let pr = PageRank::new(0.85);
        let s = pr.combine(0.25f64.to_bits(), 0.5f64.to_bits());
        assert_eq!(f64::from_bits(s), 0.75);
        assert_eq!(f64::from_bits(pr.identity()), 0.0);
    }

    #[test]
    fn apply_matches_formula() {
        let pr = PageRank::new(0.85);
        let (new, changed) = pr.apply(
            0,
            0.1f64.to_bits(),
            Some(0.3f64.to_bits()),
            &ctx(2, 10, 0.05),
        );
        let expect = 0.15 / 10.0 + 0.85 * (0.3 + 0.05 / 10.0);
        assert!((f64::from_bits(new) - expect).abs() < 1e-15);
        assert!(changed, "zero tolerance keeps vertices active");
    }

    #[test]
    fn tolerance_deactivates_converged_vertices() {
        let pr = PageRank::new(0.85).with_tolerance(1e-3);
        let n = 1;
        // A fixed point: rank = (1-d)/n + d*sum with sum chosen so new == old.
        let old: f64 = 0.4;
        let sum: f64 = (old - 0.15) / 0.85;
        let (_, changed) = pr.apply(0, old.to_bits(), Some(sum.to_bits()), &ctx(1, n, 0.0));
        assert!(!changed);
    }

    #[test]
    fn dangling_vertices_contribute_global_mass() {
        let pr = PageRank::new(0.85);
        assert_eq!(pr.global_contrib(0, 0.2f64.to_bits(), &ctx(0, 5, 0.0)), 0.2);
        assert_eq!(pr.global_contrib(0, 0.2f64.to_bits(), &ctx(3, 5, 0.0)), 0.0);
        assert_eq!(pr.scatter_out(0, 0.2f64.to_bits(), &ctx(0, 5, 0.0)), None);
    }

    #[test]
    fn scatter_divides_by_out_degree() {
        let pr = PageRank::new(0.85);
        let share = pr
            .scatter_out(0, 0.6f64.to_bits(), &ctx(3, 5, 0.0))
            .unwrap();
        assert!((f64::from_bits(share) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn spec_conversion_keeps_parameters() {
        let spec: ProgramSpec = PageRank::new(0.9)
            .with_max_iters(7)
            .with_tolerance(0.5)
            .into();
        match spec {
            ProgramSpec::PageRank {
                damping,
                max_iters,
                tolerance,
            } => {
                assert_eq!(damping, 0.9);
                assert_eq!(max_iters, 7);
                assert_eq!(tolerance, 0.5);
            }
            other => panic!("wrong spec {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_rejected() {
        PageRank::new(1.5);
    }

    #[test]
    fn async_requires_a_tolerance() {
        // The residual formulation makes PageRank async-legal, but the
        // pushes only quiesce with a positive tolerance; the classic
        // zero-tolerance configuration stays on the barriered path.
        assert!(!PageRank::new(0.85).supports_async());
        assert_eq!(PageRank::new(0.85).delta_kind(), DeltaKind::None);
        let pr = PageRank::new(0.85).with_tolerance(1e-10);
        assert!(pr.supports_async());
        assert_eq!(pr.delta_kind(), DeltaKind::Residual);
    }

    #[test]
    fn fold_respects_tolerance_and_moves_mass() {
        let pr = PageRank::new(0.85).with_tolerance(1e-3);
        let c = ctx(2, 10, 1.0);
        assert!(pr
            .fold_residual(0, 0.2f64.to_bits(), 1e-4f64.to_bits(), &c)
            .is_none());
        let (state, delta) = pr
            .fold_residual(0, 0.2f64.to_bits(), 0.05f64.to_bits(), &c)
            .expect("above tolerance");
        assert!((f64::from_bits(state) - 0.25).abs() < 1e-15);
        assert_eq!(f64::from_bits(delta), 0.05);
        // The frontier push divides the damped delta by out-degree.
        let share = pr.scatter_delta(0, state, delta, &c).unwrap();
        assert!((f64::from_bits(share) - 0.85 * 0.05 / 2.0).abs() < 1e-15);
        assert_eq!(pr.scatter_delta(0, state, delta, &ctx(0, 10, 0.0)), None);
    }

    #[test]
    fn rescale_keeps_the_per_edge_share_invariant() {
        let pr = PageRank::new(0.85).with_tolerance(1e-9);
        // Degree 4 -> 5: p scales by 5/4, share p/D unchanged, and the
        // residual absorbs the difference so total mass is conserved.
        let (p1, radj) = pr.rescale_on_degree_change(0.4f64.to_bits(), 4, 5).unwrap();
        assert!((f64::from_bits(p1) - 0.5).abs() < 1e-15);
        assert!((f64::from_bits(p1) / 5.0 - 0.4 / 4.0).abs() < 1e-15);
        assert!((f64::from_bits(radj) - (0.4 - 0.5)).abs() < 1e-15);
        // A previously dangling vertex moves its whole rank back into
        // the residual.
        let (p1, radj) = pr.rescale_on_degree_change(0.3f64.to_bits(), 0, 2).unwrap();
        assert_eq!(f64::from_bits(p1), 0.0);
        assert_eq!(f64::from_bits(radj), 0.3);
        assert!(pr
            .rescale_on_degree_change(0.3f64.to_bits(), 3, 3)
            .is_none());
    }

    #[test]
    fn edge_change_residual_is_the_signed_share() {
        let pr = PageRank::new(0.85).with_tolerance(1e-9);
        let ins = pr
            .edge_change_residual(1, 0.4f64.to_bits(), 4, true)
            .unwrap();
        assert!((f64::from_bits(ins) - 0.85 * 0.1).abs() < 1e-15);
        let del = pr
            .edge_change_residual(1, 0.4f64.to_bits(), 4, false)
            .unwrap();
        assert!((f64::from_bits(del) + 0.85 * 0.1).abs() < 1e-15);
        // Dangling source: nothing to push, the rescale handles it.
        assert!(pr
            .edge_change_residual(1, 0.4f64.to_bits(), 0, true)
            .is_none());
    }

    #[test]
    fn a_full_runs_ranks_scale_to_the_substochastic_solution() {
        let pr = PageRank::new(0.85).with_tolerance(1e-9);
        // No sinks: y = x·n.
        assert!((pr.residual_sum(20, 0.0) - 20.0).abs() < 1e-12);
        // All mass dangling: the lower bound c·n.
        assert!((pr.residual_sum(20, 1.0) - 0.15 * 20.0).abs() < 1e-12);
        // Two vertices, 0 → 1, 1 a sink: y = (c, c + d·c).
        let (c, d) = (1.0 - 0.85, 0.85);
        let y = [c, c + d * c];
        let s = y[0] + y[1];
        let x = [y[0] / s, y[1] / s];
        assert!((pr.residual_sum(2, x[1]) - s).abs() < 1e-12);
        // Every fresh vertex owes the same teleport term, whatever n.
        let seed = |n| pr.delta_init(0, &ctx(1, n, 0.0)).1;
        assert_eq!((seed(3), seed(3000)), (c.to_bits(), c.to_bits()));
    }

    #[test]
    fn the_fold_threshold_scales_with_the_served_sum() {
        let pr = PageRank::new(0.85).with_tolerance(1e-3);
        let r = 0.05f64.to_bits();
        assert!(pr.fold_residual(0, 0, r, &ctx(1, 10, 10.0)).is_some());
        assert!(pr.fold_residual(0, 0, r, &ctx(1, 10, 100.0)).is_none());
        // A tail cut's park step folds nothing.
        let big = 1e6f64.to_bits();
        assert!(pr
            .fold_residual(0, 0, big, &ctx(1, 10, f64::INFINITY))
            .is_none());
    }
}
