//! Incremental (delta) execution vs full recompute.
//!
//! The delta engine must be an *optimization*, never a semantics
//! change. What "must match" means depends on the algorithm:
//!
//! * WCC and SSSP recompute incrementally through monotone
//!   re-activation (reuse + dirty frontier), so an incremental run over
//!   an insertion batch must land on exactly the bits a fresh run over
//!   the final graph produces.
//! * PageRank recomputes through the residual formulation; folds park
//!   below-tolerance residuals, so incremental and full recompute each
//!   sit within a tolerance-bounded ball of the true fixpoint. The
//!   tests pin agreement at a bound far above the accumulated
//!   tolerance but far below any real divergence (a wrong or double
//!   correction shifts ranks by whole shares, orders of magnitude
//!   more).
//!
//! Residual PageRank solves the substochastic system, where a sink
//! pushes nothing, and serves it normalized by the sum of its states;
//! the graphs here include sink-heavy shapes alongside the ring
//! backbones, so that the normalization is what puts the sinks' mass
//! back.

use elga::core::program::RunOptions;
use elga::graph::csr::Csr;
use elga::graph::reference;
use elga::net::FaultPlan;
use elga::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Duration;

const TOL: f64 = 1e-10;
/// Agreement bound for tolerance-based PageRank comparisons: comfortably
/// above n * TOL / (1 - d) yet far below one mis-routed share.
const AGREE: f64 = 1e-5;

fn pagerank() -> PageRank {
    PageRank::new(0.85).with_max_iters(300).with_tolerance(TOL)
}

/// Ring with chords: connected, degree-skewed, dangling-free.
fn base_graph(n: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        if i % 3 == 0 {
            edges.push((i, (i * 7 + 3) % n));
        }
    }
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Three change batches over `base_graph(n)`: chord insertions, mixed
/// deletions + insertions, then a batch that grows the vertex set.
fn change_batches(n: u64) -> Vec<Vec<EdgeChange>> {
    let mut b1 = Vec::new();
    for i in (0..n).step_by(10) {
        let w = (i * 11 + 5) % n;
        if w != i {
            b1.push(EdgeChange::insert(i, w));
        }
    }
    let mut b2 = Vec::new();
    for i in (0..n).step_by(6) {
        let w = (i * 7 + 3) % n;
        if w != i {
            // These chords exist in the base graph (6 | i implies 3 | i).
            b2.push(EdgeChange::delete(i, w));
        }
    }
    for i in (0..n).step_by(7) {
        let w = (i * 13 + 1) % n;
        if w != i {
            b2.push(EdgeChange::insert(i, w));
        }
    }
    // New vertices n and n+1 splice into the ring shape without
    // breaking dangling-freeness.
    let b3 = vec![
        EdgeChange::insert(n, 0),
        EdgeChange::insert(n - 1, n),
        EdgeChange::insert(n + 1, n / 2),
        EdgeChange::insert(n / 2, n + 1),
    ];
    vec![b1, b2, b3]
}

/// Ring backbone plus hanging sinks: every fifth ring vertex points at
/// a dedicated sink with no out-edges, so a sixth of the vertices hold
/// their mass, which the classic fixpoint redistributes and the
/// residual one normalizes back.
fn dangling_graph(n: u64) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        if i % 5 == 0 {
            edges.push((i, n + i / 5));
        }
    }
    edges
}

/// Change batches over `dangling_graph(n)` that move mass in and out
/// of the dangling set: some sinks gain out-edges (stop dangling),
/// some ring vertices lose their chord, and brand-new sinks appear.
fn dangling_batches(n: u64) -> Vec<Vec<EdgeChange>> {
    // Former sinks re-enter the ring: their held mass stops counting
    // as dangling and starts flowing along the new edge.
    let b1: Vec<EdgeChange> = (0..n)
        .step_by(15)
        .map(|i| EdgeChange::insert(n + i / 5, (i + 2) % n))
        .collect();
    // New sinks appear (fresh vertices with in-edges only), and some
    // existing sink chords are deleted outright — the sink vertex
    // vanishes and its mass leaves the dangling set with it.
    let mut b2: Vec<EdgeChange> = (0..n)
        .step_by(9)
        .map(|i| EdgeChange::insert(i, 2 * n + i / 9))
        .collect();
    for i in (0..n).step_by(25) {
        b2.push(EdgeChange::delete(i, n + i / 5));
    }
    vec![b1, b2]
}

/// Apply `batches` to `base`, yielding the final edge set.
fn final_edges(base: &[(u64, u64)], batches: &[Vec<EdgeChange>]) -> Vec<(u64, u64)> {
    let mut set: HashSet<(u64, u64)> = base.iter().copied().collect();
    for batch in batches {
        for c in batch {
            let e = (c.edge.src, c.edge.dst);
            match c.action {
                elga::graph::types::Action::Insert => {
                    set.insert(e);
                }
                elga::graph::types::Action::Delete => {
                    set.remove(&e);
                }
            }
        }
    }
    let mut edges: Vec<_> = set.into_iter().collect();
    edges.sort_unstable();
    edges
}

fn full_recompute(agents: usize, edges: &[(u64, u64)]) -> HashMap<u64, u64> {
    let mut cluster = Cluster::builder().agents(agents).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(pagerank()).expect("full recompute");
    let states = cluster.dump_states();
    cluster.shutdown();
    states
}

fn assert_ranks_agree(got: &HashMap<u64, u64>, want: &HashMap<u64, u64>, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: vertex sets differ");
    for (v, &bits) in want {
        let a = f64::from_bits(bits);
        let b = f64::from_bits(got[v]);
        assert!(
            (a - b).abs() < AGREE,
            "{what}: v{v} diverged: full={a} incremental={b}"
        );
    }
}

#[test]
fn delta_pagerank_matches_full_recompute_across_batches() {
    let n = 800;
    let base = base_graph(n);
    let batches = change_batches(n);

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(base.iter().copied());
    // Fresh run: classic path (delta needs previous state to exist).
    cluster.run(pagerank()).expect("initial pagerank");
    // Each batch converts to residual corrections at ingest; the
    // reuse_state run folds them through the delta engine.
    for batch in &batches {
        cluster.ingest(batch.iter().copied());
        let stats = cluster
            .run_with(
                pagerank(),
                RunOptions {
                    reuse_state: true,
                    mode: ExecutionMode::Sync,
                },
            )
            .expect("incremental pagerank");
        assert!(stats.steps >= 1);
    }
    let got = cluster.dump_states();
    cluster.shutdown();

    let want = full_recompute(3, &final_edges(&base, &batches));
    assert_ranks_agree(&got, &want, "sync delta across three batches");
}

#[test]
fn async_delta_pagerank_matches_full_recompute() {
    let n = 600;
    let base = base_graph(n);
    let batches = change_batches(n);

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(base.iter().copied());
    // Async PageRank runs on the delta path from a cold start too:
    // delta_init seeds the teleport residual, no previous run needed.
    for (i, batch) in batches.iter().enumerate() {
        if i > 0 {
            cluster.ingest(batch.iter().copied());
        }
        cluster
            .run_with(
                pagerank(),
                RunOptions {
                    reuse_state: i > 0,
                    mode: ExecutionMode::Async,
                },
            )
            .expect("async incremental pagerank");
    }
    // The last batch was never ingested above; do it + one final run.
    cluster.ingest(batches[0].iter().copied());
    let _ = cluster
        .run_with(
            pagerank(),
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Async,
            },
        )
        .expect("final async incremental");
    let got = cluster.dump_states();
    cluster.shutdown();

    let mut all = batches;
    all.rotate_left(1); // order is irrelevant to the final edge set
    let want = full_recompute(3, &final_edges(&base, &all));
    assert_ranks_agree(&got, &want, "async delta");
}

#[test]
fn delta_pagerank_redistributes_dangling_mass_sync() {
    let n = 600;
    let base = dangling_graph(n);
    let batches = dangling_batches(n);

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(base.iter().copied());
    cluster.run(pagerank()).expect("initial pagerank");
    for batch in &batches {
        cluster.ingest(batch.iter().copied());
        cluster
            .run_with(
                pagerank(),
                RunOptions {
                    reuse_state: true,
                    mode: ExecutionMode::Sync,
                },
            )
            .expect("incremental pagerank over sinks");
    }
    let got = cluster.dump_states();
    cluster.shutdown();

    let want = full_recompute(3, &final_edges(&base, &batches));
    assert_ranks_agree(&got, &want, "sync delta on a dangling-heavy graph");
}

#[test]
fn delta_pagerank_redistributes_dangling_mass_async() {
    let n = 400;
    let base = dangling_graph(n);
    let batches = dangling_batches(n);

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(base.iter().copied());
    // Cold-start async run is already on the delta path: the sinks'
    // mass comes back through the normalization alone.
    for (i, batch) in batches.iter().enumerate() {
        if i > 0 {
            cluster.ingest(batch.iter().copied());
        }
        cluster
            .run_with(
                pagerank(),
                RunOptions {
                    reuse_state: i > 0,
                    mode: ExecutionMode::Async,
                },
            )
            .expect("async incremental pagerank over sinks");
    }
    cluster.ingest(batches[0].iter().copied());
    cluster
        .run_with(
            pagerank(),
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Async,
            },
        )
        .expect("final async incremental over sinks");
    let got = cluster.dump_states();
    cluster.shutdown();

    let mut all = batches;
    all.rotate_left(1);
    let want = full_recompute(3, &final_edges(&base, &all));
    assert_ranks_agree(&got, &want, "async delta on a dangling-heavy graph");
}

#[test]
fn incremental_wcc_matches_full_recompute_bit_exact() {
    let n = 2000;
    let base = base_graph(n);
    let inserts: Vec<EdgeChange> = (0..n)
        .step_by(13)
        .filter(|&i| (i * 17 + 9) % n != i)
        .map(|i| EdgeChange::insert(i, (i * 17 + 9) % n))
        .collect();

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(base.iter().copied());
    cluster.run(Wcc::new()).expect("initial wcc");
    cluster.ingest(inserts.iter().copied());
    cluster
        .run_with(
            Wcc::new(),
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Sync,
            },
        )
        .expect("incremental wcc");
    let got = cluster.dump_states();
    cluster.shutdown();

    let mut full = Cluster::builder().agents(3).build();
    full.ingest_edges(final_edges(&base, &[inserts]).iter().copied());
    full.run(Wcc::new()).expect("full wcc");
    let want = full.dump_states();
    full.shutdown();

    assert_eq!(got, want, "incremental WCC must be bit-exact");
}

#[test]
fn incremental_sssp_matches_full_recompute_bit_exact() {
    let n = 2000;
    let base = base_graph(n);
    let inserts: Vec<EdgeChange> = (0..n)
        .step_by(11)
        .filter(|&i| (i * 23 + 7) % n != i)
        .map(|i| EdgeChange::insert(i, (i * 23 + 7) % n))
        .collect();

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(base.iter().copied());
    cluster.run(Sssp::new(0)).expect("initial sssp");
    cluster.ingest(inserts.iter().copied());
    cluster
        .run_with(
            Sssp::new(0),
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Sync,
            },
        )
        .expect("incremental sssp");
    let got = cluster.dump_states();
    cluster.shutdown();

    let mut full = Cluster::builder().agents(3).build();
    full.ingest_edges(final_edges(&base, &[inserts]).iter().copied());
    full.run(Sssp::new(0)).expect("full sssp");
    let want = full.dump_states();
    full.shutdown();

    assert_eq!(
        got, want,
        "incremental SSSP over insertions must be bit-exact"
    );
}

/// Start an incremental run over `batches` on `base_graph(n)` in `mode`
/// and land a join and a batched leave inside it: parked residuals and
/// in-flight pending deltas must migrate with their vertices, and the
/// agents' worklists — bulk-written by the migration — must be
/// re-established by a sweep before the kernels trust them again.
fn mid_run_view_change(n: u64, batches: &[Vec<EdgeChange>], mode: ExecutionMode, what: &str) {
    let base = base_graph(n);
    let cfg = SystemConfig {
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(3).config(cfg).build();
    cluster.ingest_edges(base.iter().copied());
    cluster.run(pagerank()).expect("initial pagerank");
    cluster.ingest(batches.iter().flatten().copied());

    let handle = cluster
        .start_run(
            pagerank(),
            RunOptions {
                reuse_state: true,
                mode,
            },
        )
        .expect("start incremental run");
    let added = cluster.add_agents(1);
    assert_eq!(added.len(), 1);
    let removed = cluster.remove_agents(2);
    assert_eq!(removed.len(), 2);
    cluster
        .wait_run(handle)
        .expect("incremental run absorbs scale events");
    let got = cluster.dump_states();
    cluster.shutdown();

    let want = full_recompute(3, &final_edges(&base, batches));
    assert_ranks_agree(&got, &want, what);
}

#[test]
fn delta_pagerank_survives_mid_run_view_change() {
    let n = 800;
    mid_run_view_change(
        n,
        &change_batches(n),
        ExecutionMode::Sync,
        "delta run across a mid-run view change",
    );
}

/// The same in async mode: no VIEW may overtake a fold's push along
/// the primary's own out-edges (ROADMAP item 4's lost pushes).
#[test]
fn async_delta_pagerank_survives_mid_run_view_change() {
    let n = 800;
    mid_run_view_change(
        n,
        &change_batches(n),
        ExecutionMode::Async,
        "async delta run across a mid-run view change",
    );
}

/// The same with a frontier of a few vertices on a larger ring: the
/// run is long and list-driven, so the view changes land between
/// supersteps that never visit most of the store.
#[test]
fn sparse_delta_run_survives_mid_run_view_change() {
    let batch = vec![
        EdgeChange::insert(17, 1200),
        EdgeChange::insert(2100, 40),
        EdgeChange::delete(300, 2103),
    ];
    mid_run_view_change(
        3000,
        &[batch],
        ExecutionMode::Sync,
        "sparse delta run across a mid-run view change",
    );
}

/// ROADMAP item 1(a): a batch costs work proportional to what it
/// touches. `kernel_visits` counts the entries the scatter/apply
/// kernels and summary sweeps visit; a delta run pays its frontier,
/// where sweeping kernels paid five times the store per superstep.
#[test]
fn delta_run_work_is_proportional_to_the_frontier() {
    let n = 4096;
    let base = base_graph(n);
    let batch = vec![EdgeChange::insert(5, 2000)];
    // A tolerance that stops the pushes a few dozen hops out, so the
    // frontier stays a small share of the ring.
    let pagerank = || PageRank::new(0.85).with_max_iters(300).with_tolerance(1e-8);

    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(base.iter().copied());
    cluster.run(pagerank()).expect("initial pagerank");
    let before = cluster.metrics().kernel_visits;
    cluster.ingest(batch.iter().copied());
    let stats = cluster
        .run_with(
            pagerank(),
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Sync,
            },
        )
        .expect("incremental pagerank");
    let visits = cluster.metrics().kernel_visits - before;
    let got = cluster.dump_states();
    cluster.shutdown();

    // The frontier; steps × 5 × n at sweeping kernels.
    assert!(stats.steps >= 15, "run too short to tell: {}", stats.steps);
    assert!(
        visits < 5 * n,
        "{visits} entries visited in {} steps over {n} vertices",
        stats.steps
    );
    let want = full_recompute(2, &final_edges(&base, &[batch]));
    assert_ranks_agree(&got, &want, "one-edge delta run");
}

#[test]
fn delta_pagerank_under_chaos_matches_clean_full_recompute() {
    let n = 600;
    let base = base_graph(n);
    let batches = change_batches(n);

    let cfg = SystemConfig {
        quiesce_deadline: Duration::from_secs(60),
        run_deadline: Duration::from_secs(120),
        ..SystemConfig::default()
    };
    // Residual corrections and delta pushes ride ordinary PUSH frames,
    // which straggle and overtake one another across routes: the f64
    // sums must come out exact whatever order the routes deliver in.
    let plan = FaultPlan::delays(Duration::ZERO, Duration::from_millis(5));
    let mut chaos = Cluster::builder()
        .agents(3)
        .config(cfg)
        .chaos(plan, 0xDE17A)
        .build();
    chaos.ingest_edges(base.iter().copied());
    chaos.run(pagerank()).expect("initial pagerank under chaos");
    for batch in &batches {
        chaos.ingest(batch.iter().copied());
        chaos
            .run_with(
                pagerank(),
                RunOptions {
                    reuse_state: true,
                    mode: ExecutionMode::Sync,
                },
            )
            .expect("incremental pagerank under chaos");
    }
    let got = chaos.dump_states();
    let stats = chaos.fault().expect("chaos handle").stats();
    assert!(stats.delayed() > 0, "no frame delayed — chaos was a no-op");
    chaos.shutdown();

    let want = full_recompute(3, &final_edges(&base, &batches));
    assert_ranks_agree(&got, &want, "delta runs under chaos transport");
}

/// A one-edge batch costs what it touches on a graph with sinks too,
/// while the vertex count moves from batch to batch: no step of the
/// delta run walks the store, step 0 included, so the run visits fewer
/// kernel entries than there are vertices.
#[test]
fn a_one_edge_batch_on_a_graph_with_sinks_walks_no_store() {
    let n = 4096;
    let base = dangling_graph(n);
    // Each batch brings a vertex: a new sink, then a new source.
    let batches = [
        vec![EdgeChange::insert(7, 3 * n)],
        vec![EdgeChange::insert(3 * n + 1, 2000)],
    ];
    let pagerank = || PageRank::new(0.85).with_max_iters(300).with_tolerance(1e-9);

    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(base.iter().copied());
    cluster.run(pagerank()).expect("initial pagerank");
    for (i, batch) in batches.iter().enumerate() {
        let primaries = cluster.metrics().primaries;
        cluster.ingest(batch.iter().copied());
        let before = cluster.metrics().kernel_visits;
        let stats = cluster
            .run_with(
                pagerank(),
                RunOptions {
                    reuse_state: true,
                    mode: ExecutionMode::Sync,
                },
            )
            .expect("incremental pagerank");
        let m = cluster.metrics();
        assert_eq!(m.primaries, primaries + 1, "batch {i} brings a vertex");
        let visits = m.kernel_visits - before;
        assert!(stats.steps >= 5, "run too short to tell: {}", stats.steps);
        assert!(
            visits < primaries,
            "batch {i}: {visits} entries visited in {} steps over {primaries} vertices",
            stats.steps
        );
    }
    let got = cluster.dump_states();
    cluster.shutdown();
    let want = full_recompute(2, &final_edges(&base, &batches));
    assert_ranks_agree(&got, &want, "one-edge delta runs over sinks");
}

/// `reference::pagerank` run to its fixed point over `edges`, keyed by
/// vertex id.
fn reference_ranks(edges: &HashSet<(u64, u64)>) -> HashMap<u64, f64> {
    let ids: Vec<u64> = (edges.iter())
        .flat_map(|&(u, v)| [u, v])
        .collect::<BTreeSet<u64>>()
        .into_iter()
        .collect();
    let dense = |v: u64| ids.binary_search(&v).expect("an endpoint") as u64;
    let csr_edges: Vec<(u64, u64)> = edges.iter().map(|&(u, v)| (dense(u), dense(v))).collect();
    let csr = Csr::from_edges(Some(ids.len()), &csr_edges);
    let ranks = reference::pagerank(&csr, 0.85, 300);
    ids.into_iter().zip(ranks).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Served delta PageRank is PageRank on random graphs with sinks,
    /// under batches that add and remove vertices: a full run, then a
    /// delta run per batch in either mode, each on the states of the
    /// last — the first on the full run's, which its `done` scaled to
    /// unnormalized units instead of recomputing them. After every run
    /// each served value is within the agreement bound of the
    /// reference's, and the values sum to one.
    #[test]
    fn served_delta_pagerank_is_pagerank_over_sinks_and_moving_vertex_sets(
        base in prop::collection::hash_set((0u64..40, 0u64..48), 20..80),
        batches in prop::collection::vec(
            prop::collection::vec((0u64..40, 0u64..56, any::<bool>()), 1..16),
            2..4,
        ),
        agents in 1usize..4,
        asynchronous in any::<bool>(),
    ) {
        // Ids 40 and up have no out-edges: they enter as sinks.
        let mut held: HashSet<(u64, u64)> = base.into_iter().filter(|&(u, v)| u != v).collect();
        let mut cluster = Cluster::builder().agents(agents).build();
        cluster.ingest_edges(held.iter().copied());
        let pagerank = PageRank::new(0.85).with_max_iters(300).with_tolerance(1e-10);
        cluster.run(pagerank).expect("full run");
        let mode = if asynchronous { ExecutionMode::Async } else { ExecutionMode::Sync };
        for (i, batch) in batches.iter().enumerate() {
            // Deletes of held edges, which can vanish an endpoint;
            // inserts otherwise, which can bring one.
            let changes: Vec<EdgeChange> = batch
                .iter()
                .filter(|c| c.0 != c.1)
                .map(|&(u, v, delete)| {
                    if delete && held.remove(&(u, v)) {
                        EdgeChange::delete(u, v)
                    } else {
                        held.insert((u, v));
                        EdgeChange::insert(u, v)
                    }
                })
                .collect();
            cluster.ingest(changes);
            cluster
                .run_with(pagerank, RunOptions { reuse_state: true, mode })
                .expect("delta run");
            let got = cluster.dump_states();
            let want = reference_ranks(&held);
            prop_assert_eq!(got.len(), want.len(), "batch {}: vertex sets", i);
            let mut sum = 0.0;
            for (v, w) in &want {
                let g = f64::from_bits(got[v]);
                prop_assert!((g - w).abs() < AGREE, "batch {}, v{}: served {}, reference {}", i, v, g, w);
                sum += g;
            }
            prop_assert!((sum - 1.0).abs() < 1e-9, "batch {}: served values sum to {}", i, sum);
        }
        cluster.shutdown();
    }
}
