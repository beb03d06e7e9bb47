//! The locally persistent vertex-centric programming model (paper
//! §3.2).
//!
//! Programs run "from the perspective of a vertex": they hold per-
//! vertex state, receive aggregated messages from neighbors, and send
//! messages along edges. ElGA executes them either synchronously
//! (bulk-synchronous supersteps coordinated through the directory,
//! Figure 2) or asynchronously (vertices are processed the moment all
//! outstanding updates arrive).
//!
//! State, messages and aggregates are all encoded as `u64` words —
//! every algorithm the paper evaluates (PageRank, WCC) and the
//! extension algorithms (BFS, SSSP, degree) carry one scalar per
//! vertex, and a fixed-width encoding keeps agents monomorphic and the
//! wire format copy-through (§3.5). `f64` state (PageRank) is stored
//! via `to_bits`/`from_bits`.

use crate::algorithms;
use elga_graph::types::VertexId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Synchronous (BSP) or asynchronous execution (§2.1, §3.4: "In ElGA's
/// asynchronous mode, vertices are individually processed when they no
/// longer have any outstanding updates").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Bulk-synchronous supersteps with directory barriers.
    #[default]
    Sync,
    /// Event-driven processing; requires a monotone (idempotent,
    /// commutative) program such as WCC/BFS/SSSP.
    Async,
}

/// Per-vertex execution context.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexCtx {
    /// The vertex's *global* out-degree (summed over replicas,
    /// maintained by its primary).
    pub out_degree: u64,
    /// The vertex's global in-degree. Authoritative at the primary
    /// (apply/init); zero in replica-side scatter contexts.
    pub in_degree: u64,
    /// Current global vertex count.
    pub n_vertices: u64,
    /// Current superstep (0 = initialization).
    pub step: u32,
    /// Global reduce value from the current step's reports (e.g.
    /// PageRank's dangling mass).
    pub global: f64,
}

/// A vertex-centric program. All values are `u64`-encoded.
pub trait VertexProgram: Send + Sync {
    /// Program name (diagnostics).
    fn name(&self) -> &'static str;

    /// Whether the program tolerates asynchronous execution.
    fn supports_async(&self) -> bool {
        false
    }

    /// Initial state of vertex `v`.
    fn init(&self, v: VertexId, ctx: &VertexCtx) -> u64;

    /// Identity element of [`VertexProgram::combine`].
    fn identity(&self) -> u64;

    /// Commutative, associative combination of two message values.
    /// Runs on the per-edge path: once per edge a scatter fires (the
    /// target-table row's fold) and once per message record received.
    fn combine(&self, a: u64, b: u64) -> u64;

    /// Compute the new state from the old state and the aggregate of
    /// this step's messages (`None` when no messages arrived). Returns
    /// `(new_state, changed)`; `changed` keeps the vertex active.
    fn apply(&self, v: VertexId, state: u64, agg: Option<u64>, ctx: &VertexCtx) -> (u64, bool);

    /// Value sent along each out-edge of an active vertex, or `None`
    /// to send nothing.
    fn scatter_out(&self, v: VertexId, state: u64, ctx: &VertexCtx) -> Option<u64>;

    /// Value sent along each *in*-edge (reverse direction); WCC sends
    /// "to both in- and out-neighbors" (§4.3).
    fn scatter_in(&self, _v: VertexId, _state: u64, _ctx: &VertexCtx) -> Option<u64> {
        None
    }

    /// Per-edge transform of a scattered value (e.g. SSSP adds the
    /// edge weight). Runs on the per-edge path, once per edge a scatter
    /// fires.
    fn along_edge(&self, _from: VertexId, _to: VertexId, value: u64) -> u64 {
        value
    }

    /// When true, every vertex applies each superstep even without
    /// incoming messages (PageRank); otherwise only message receivers
    /// apply (WCC/BFS).
    fn applies_without_messages(&self) -> bool {
        false
    }

    /// Whether `v` starts active on a fresh (non-incremental) run.
    fn initially_active(&self, _v: VertexId) -> bool {
        true
    }

    /// Degree-aware variant of [`VertexProgram::initially_active`],
    /// evaluated at the primary with authoritative degrees. Defaults to
    /// the degree-blind answer.
    fn initially_active_ctx(&self, v: VertexId, _ctx: &VertexCtx) -> bool {
        self.initially_active(v)
    }

    /// §3.2 waiting sets, asynchronous mode only: the number of
    /// neighbor messages `v` must collect before it is processed ("it
    /// places itself in the waiting set for that vertex ... When a
    /// vertex is no longer waiting on any messages, it enters an
    /// active state and can be processed again"). Zero (default)
    /// processes on every message. Ignored in synchronous mode, where
    /// the superstep barrier already delivers all messages at once.
    fn waits_for(&self, _v: VertexId, _ctx: &VertexCtx) -> u64 {
        0
    }

    /// Per-vertex contribution to the global reduce, evaluated at
    /// scatter time (e.g. PageRank dangling mass). The reduce rides the
    /// steps whose scatter visits every vertex — all of them for a
    /// [`VertexProgram::scatter_all`] program, which a program with a
    /// global term is; a frontier-driven step reports zero.
    fn global_contrib(&self, _v: VertexId, _state: u64, _ctx: &VertexCtx) -> f64 {
        0.0
    }

    /// When true, *every* vertex scatters each superstep regardless of
    /// its active flag. Sum-aggregating programs (PageRank) need this:
    /// an apply must see contributions from all in-neighbors, not only
    /// the recently changed ones. Min-propagating programs leave it
    /// false and scatter only updated values (§4.3: WCC "only sends
    /// updated minimums").
    fn scatter_all(&self) -> bool {
        false
    }

    /// Superstep bound; `None` runs to convergence (empty active set).
    fn max_steps(&self) -> Option<u32> {
        None
    }

    // --- Incremental (delta) formulation -----------------------------
    //
    // A program may declare how it recomputes *incrementally* after a
    // batch of edge changes, instead of re-executing over the whole
    // graph. Two strategies exist (see DESIGN.md "Incremental
    // execution"):
    //
    // * [`DeltaKind::Monotone`] — the fixpoint is a monotone fold
    //   (min/max) of `combine`, so reuse-state runs are already exact:
    //   vertices touched by the batch re-scatter their values and the
    //   frontier expands only where the fold improves (WCC, SSSP
    //   insertions).
    // * [`DeltaKind::Residual`] — the program keeps, next to each
    //   vertex's applied state, a *residual* of not-yet-applied mass.
    //   Edge changes convert into residual corrections at ingest time;
    //   a delta run folds residuals above tolerance into state and
    //   pushes `scatter_delta` values only along the affected frontier
    //   (delta-PageRank).

    /// The program's incremental strategy. [`DeltaKind::None`] means a
    /// reuse-state run falls back to the dirty-vertex activation path.
    fn delta_kind(&self) -> DeltaKind {
        DeltaKind::None
    }

    /// Fresh-vertex initialization on a *residual* delta run:
    /// `(state, residual)`. The default starts from `init` with no
    /// pending residual.
    fn delta_init(&self, v: VertexId, ctx: &VertexCtx) -> (u64, u64) {
        (self.init(v, ctx), self.residual_identity())
    }

    /// Seed residual owed to a vertex that first appears in a delta
    /// run. `base` is the per-vertex dangling term already baked into
    /// every carried state (total dangling mass over vertex count at
    /// the previous convergence, from
    /// [`RunInfo::dangling_base`](crate::msg::RunInfo)); pre-existing
    /// vertices hold it in their state, so a newcomer must receive the
    /// equivalent mass as a residual or it converges short of the
    /// rebuilt fixpoint.
    fn dangling_seed_residual(&self, _base: f64, _ctx: &VertexCtx) -> Option<u64> {
        None
    }

    /// Identity element of [`VertexProgram::merge_residual`].
    fn residual_identity(&self) -> u64 {
        self.identity()
    }

    /// Commutative, associative merge of two residual values.
    fn merge_residual(&self, a: u64, b: u64) -> u64 {
        self.combine(a, b)
    }

    /// Decide whether the accumulated residual is significant enough
    /// to fold into the state: `Some((new_state, applied_delta))`
    /// applies and activates the vertex, `None` keeps accumulating.
    fn fold_residual(
        &self,
        _v: VertexId,
        _state: u64,
        _residual: u64,
        _ctx: &VertexCtx,
    ) -> Option<(u64, u64)> {
        None
    }

    /// Value sent along each out-edge after a fold applied `delta`
    /// (the frontier push of a residual run). Defaults to the full
    /// re-scatter, which is what monotone programs want (their delta
    /// *is* the new state).
    fn scatter_delta(&self, v: VertexId, state: u64, _delta: u64, ctx: &VertexCtx) -> Option<u64> {
        self.scatter_out(v, state, ctx)
    }

    /// Ingest-time correction at a vertex's *primary* when its global
    /// out-degree changes `d0 -> d1` between runs: returns
    /// `(new_state, residual_adjustment)` or `None` when state is
    /// unaffected. Delta-PageRank rescales so the per-edge share
    /// `state / degree` stays invariant (Ohsaka et al.-style scaling).
    fn rescale_on_degree_change(&self, _state: u64, _d0: u64, _d1: u64) -> Option<(u64, u64)> {
        None
    }

    /// Ingest-time residual pushed to the target of a changed edge
    /// `(u, w)`, computed where the change applies from `u`'s
    /// replica-visible `state` and pre-batch out-degree `share_degree`
    /// (both stale copies of the last broadcast, which the scaling
    /// invariant keeps exact). `None` pushes nothing.
    fn edge_change_residual(
        &self,
        _u: VertexId,
        _state: u64,
        _share_degree: u64,
        _insert: bool,
    ) -> Option<u64> {
        None
    }

    /// Per-vertex residual adjustment when the global vertex count
    /// changed `old_n -> ctx.n_vertices` since the state was computed
    /// (PageRank's teleport term is `(1-d)/n`). Applied once at step 0
    /// of a reuse-state residual run.
    fn reseed_residual(&self, _old_n: u64, _ctx: &VertexCtx) -> Option<u64> {
        None
    }

    /// The share of `state` that counts toward the program's global
    /// reduce term (PageRank: the whole rank of a zero-out-degree
    /// vertex). Delta runs track *changes* to the sum of this quantity
    /// — folds at dangling primaries, ingest-time rescales — and
    /// redistribute them through [`VertexProgram::dangling_residual`],
    /// closing the loop the directory's global reduce provides on full
    /// runs.
    fn dangling_mass(&self, _state: u64, _out_degree: u64) -> f64 {
        0.0
    }

    /// Residual correction every primary receives when `ctx.global`
    /// carries a freshly reported dangling-mass change (PageRank:
    /// `d·global/n`). `None` when the program has no global term.
    fn dangling_residual(&self, _ctx: &VertexCtx) -> Option<u64> {
        None
    }

    /// Threshold below which the directory stops issuing dangling-mass
    /// redistribution rounds on an async delta run. The default
    /// (`INFINITY`) disables redistribution entirely.
    fn dangling_epsilon(&self) -> f64 {
        f64::INFINITY
    }
}

/// How a program recomputes incrementally (see the trait docs above).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaKind {
    /// No delta formulation: reuse-state runs use dirty-vertex
    /// activation and re-converge from whatever state is left.
    #[default]
    None,
    /// Monotone fold: reuse + dirty activation is already exact for
    /// insertions; deletions need a label reset (WCC) or a fresh run.
    Monotone,
    /// Residual accumulation: ingest converts edge changes into
    /// residuals, runs fold and push only the affected frontier.
    Residual,
}

/// Registry for [`ProgramSpec::Custom`] programs: specs travel the wire
/// as tokens and resolve through this in-process table (real
/// deployments distribute algorithm code in the binary, exactly like
/// the paper's C++ system).
static CUSTOM_REGISTRY: Mutex<Option<HashMap<u64, Arc<dyn VertexProgram>>>> = Mutex::new(None);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn register_custom(p: Arc<dyn VertexProgram>) -> u64 {
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    CUSTOM_REGISTRY
        .lock()
        .get_or_insert_with(HashMap::new)
        .insert(token, p);
    token
}

fn lookup_custom(token: u64) -> Option<Arc<dyn VertexProgram>> {
    CUSTOM_REGISTRY.lock().as_ref()?.get(&token).cloned()
}

/// Serializable description of the program a run executes. Built-in
/// algorithms carry parameters by value; [`ProgramSpec::Custom`] wraps
/// any user [`VertexProgram`].
#[derive(Clone)]
pub enum ProgramSpec {
    /// PageRank with damping factor, an iteration bound, and an
    /// optional convergence tolerance (0 = run all iterations).
    PageRank {
        /// Damping factor (paper uses 0.85).
        damping: f64,
        /// Superstep bound.
        max_iters: u32,
        /// L∞ convergence tolerance; 0 disables early termination.
        tolerance: f64,
    },
    /// Weakly connected components via min-label propagation.
    Wcc,
    /// Unweighted BFS distances from a source.
    Bfs {
        /// Source vertex.
        source: VertexId,
    },
    /// SSSP over deterministic hash weights (see
    /// `elga_graph::reference::edge_weight`).
    Sssp {
        /// Source vertex.
        source: VertexId,
    },
    /// Each vertex's total degree (one superstep; smoke-test program).
    Degree,
    /// DAG levels via §3.2 waiting sets (async mode).
    DagLevel,
    /// Personalized PageRank with restart at a source.
    Ppr {
        /// Restart vertex.
        source: VertexId,
        /// Damping factor.
        damping: f64,
        /// Superstep bound.
        max_iters: u32,
    },
    /// Any user-supplied program (in-process only).
    Custom(Arc<dyn VertexProgram>),
}

impl std::fmt::Debug for ProgramSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramSpec::PageRank {
                damping,
                max_iters,
                tolerance,
            } => f
                .debug_struct("PageRank")
                .field("damping", damping)
                .field("max_iters", max_iters)
                .field("tolerance", tolerance)
                .finish(),
            ProgramSpec::Wcc => write!(f, "Wcc"),
            ProgramSpec::Bfs { source } => write!(f, "Bfs({source})"),
            ProgramSpec::Sssp { source } => write!(f, "Sssp({source})"),
            ProgramSpec::Degree => write!(f, "Degree"),
            ProgramSpec::DagLevel => write!(f, "DagLevel"),
            ProgramSpec::Ppr {
                source,
                damping,
                max_iters,
            } => write!(f, "Ppr(src={source}, d={damping}, iters={max_iters})"),
            ProgramSpec::Custom(p) => write!(f, "Custom({})", p.name()),
        }
    }
}

impl ProgramSpec {
    /// Build the executable program.
    pub fn instantiate(&self) -> Program {
        match self {
            ProgramSpec::PageRank {
                damping,
                max_iters,
                tolerance,
            } => Program::PageRank(
                algorithms::PageRank::new(*damping)
                    .with_max_iters(*max_iters)
                    .with_tolerance(*tolerance),
            ),
            ProgramSpec::Wcc => Program::Wcc(algorithms::Wcc::new()),
            ProgramSpec::Bfs { source } => Program::Bfs(algorithms::Bfs::new(*source)),
            ProgramSpec::Sssp { source } => Program::Sssp(algorithms::Sssp::new(*source)),
            ProgramSpec::Degree => Program::Degree(algorithms::Degree::new()),
            ProgramSpec::DagLevel => Program::DagLevel(algorithms::DagLevel::new()),
            ProgramSpec::Ppr {
                source,
                damping,
                max_iters,
            } => Program::Ppr(algorithms::Ppr::new(*source, *damping).with_max_iters(*max_iters)),
            ProgramSpec::Custom(p) => Program::Custom(p.clone()),
        }
    }

    /// Encode into `(tag, params)` wire fields.
    pub fn encode(&self) -> (u8, [u64; 3]) {
        match self {
            ProgramSpec::PageRank {
                damping,
                max_iters,
                tolerance,
            } => (
                0,
                [
                    damping.to_bits(),
                    u64::from(*max_iters),
                    tolerance.to_bits(),
                ],
            ),
            ProgramSpec::Wcc => (1, [0, 0, 0]),
            ProgramSpec::Bfs { source } => (2, [*source, 0, 0]),
            ProgramSpec::Sssp { source } => (3, [*source, 0, 0]),
            ProgramSpec::Degree => (4, [0, 0, 0]),
            ProgramSpec::Custom(p) => (5, [register_custom(p.clone()), 0, 0]),
            ProgramSpec::DagLevel => (6, [0, 0, 0]),
            ProgramSpec::Ppr {
                source,
                damping,
                max_iters,
            } => (7, [*source, damping.to_bits(), u64::from(*max_iters)]),
        }
    }

    /// Decode from wire fields.
    pub fn decode(tag: u8, params: [u64; 3]) -> Option<ProgramSpec> {
        Some(match tag {
            0 => ProgramSpec::PageRank {
                damping: f64::from_bits(params[0]),
                max_iters: params[1] as u32,
                tolerance: f64::from_bits(params[2]),
            },
            1 => ProgramSpec::Wcc,
            2 => ProgramSpec::Bfs { source: params[0] },
            3 => ProgramSpec::Sssp { source: params[0] },
            4 => ProgramSpec::Degree,
            5 => ProgramSpec::Custom(lookup_custom(params[0])?),
            6 => ProgramSpec::DagLevel,
            7 => ProgramSpec::Ppr {
                source: params[0],
                damping: f64::from_bits(params[1]),
                max_iters: params[2] as u32,
            },
            _ => return None,
        })
    }
}

/// An executable program: each built-in by value, so that code generic
/// over [`VertexProgram`] is compiled for its concrete type and its
/// per-edge methods inline (`dispatch!`), and any other program
/// behind a trait object.
#[derive(Clone)]
pub enum Program {
    /// [`algorithms::PageRank`].
    PageRank(algorithms::PageRank),
    /// [`algorithms::Wcc`].
    Wcc(algorithms::Wcc),
    /// [`algorithms::Bfs`].
    Bfs(algorithms::Bfs),
    /// [`algorithms::Sssp`].
    Sssp(algorithms::Sssp),
    /// [`algorithms::Degree`].
    Degree(algorithms::Degree),
    /// [`algorithms::DagLevel`].
    DagLevel(algorithms::DagLevel),
    /// [`algorithms::Ppr`].
    Ppr(algorithms::Ppr),
    /// A [`ProgramSpec::Custom`] program.
    Custom(Arc<dyn VertexProgram>),
}

/// `dispatch!(program, p => body)`: evaluate `body` with `p` bound to
/// the program a `&Program` holds, as a reference to its concrete type
/// (`&dyn VertexProgram` for [`Program::Custom`]). A generic function
/// called in `body` is compiled once per built-in; the match is the one
/// dynamic choice, made per call of the macro.
macro_rules! dispatch {
    ($program:expr, $p:ident => $body:expr) => {
        match $program {
            $crate::program::Program::PageRank($p) => $body,
            $crate::program::Program::Wcc($p) => $body,
            $crate::program::Program::Bfs($p) => $body,
            $crate::program::Program::Sssp($p) => $body,
            $crate::program::Program::Degree($p) => $body,
            $crate::program::Program::DagLevel($p) => $body,
            $crate::program::Program::Ppr($p) => $body,
            $crate::program::Program::Custom(custom) => {
                let $p: &dyn $crate::program::VertexProgram = &**custom;
                $body
            }
        }
    };
}
pub(crate) use dispatch;

impl Program {
    /// The program as a trait object, for the paths that call it once
    /// per run, batch or migrated vertex rather than once per edge.
    pub fn as_dyn(&self) -> &dyn VertexProgram {
        dispatch!(self, p => p)
    }
}

/// Options controlling a single run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Reuse state from the previous run and activate only vertices
    /// touched by intervening batches (Definition 2.5's dynamic
    /// algorithm). When false, all state is re-initialized.
    pub reuse_state: bool,
    /// Execution mode.
    pub mode: ExecutionMode,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            reuse_state: false,
            mode: ExecutionMode::Sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_specs_roundtrip_the_wire() {
        let specs = [
            ProgramSpec::PageRank {
                damping: 0.85,
                max_iters: 30,
                tolerance: 1e-9,
            },
            ProgramSpec::Wcc,
            ProgramSpec::Bfs { source: 7 },
            ProgramSpec::Sssp { source: 8 },
            ProgramSpec::Degree,
            ProgramSpec::DagLevel,
            ProgramSpec::Ppr {
                source: 4,
                damping: 0.85,
                max_iters: 12,
            },
        ];
        for spec in specs {
            let (tag, params) = spec.encode();
            let back = ProgramSpec::decode(tag, params).unwrap();
            assert_eq!(format!("{spec:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn custom_specs_resolve_through_registry() {
        struct Noop;
        impl VertexProgram for Noop {
            fn name(&self) -> &'static str {
                "noop"
            }
            fn init(&self, _: VertexId, _: &VertexCtx) -> u64 {
                0
            }
            fn identity(&self) -> u64 {
                0
            }
            fn combine(&self, a: u64, _b: u64) -> u64 {
                a
            }
            fn apply(&self, _: VertexId, s: u64, _: Option<u64>, _: &VertexCtx) -> (u64, bool) {
                (s, false)
            }
            fn scatter_out(&self, _: VertexId, _: u64, _: &VertexCtx) -> Option<u64> {
                None
            }
        }
        let spec = ProgramSpec::Custom(Arc::new(Noop));
        let (tag, params) = spec.encode();
        assert_eq!(tag, 5);
        let back = ProgramSpec::decode(tag, params).unwrap();
        assert_eq!(back.instantiate().as_dyn().name(), "noop");
    }

    #[test]
    fn unknown_tag_decodes_to_none() {
        assert!(ProgramSpec::decode(250, [0, 0, 0]).is_none());
        assert!(ProgramSpec::decode(5, [u64::MAX, 0, 0]).is_none());
    }

    #[test]
    fn run_options_default_is_fresh_sync() {
        let o = RunOptions::default();
        assert!(!o.reuse_state);
        assert_eq!(o.mode, ExecutionMode::Sync);
    }
}
