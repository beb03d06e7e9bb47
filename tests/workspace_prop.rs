//! Workspace-level property tests: randomized change streams and
//! elasticity schedules driven against the full system, checked
//! against the references. These are the heaviest invariants in the
//! suite, so case counts are modest.

use elga::core::program::{ExecutionMode, ProgramSpec, RunOptions};
use elga::graph::{csr::Csr, reference};
use elga::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn apply_model(model: &mut std::collections::HashSet<(u64, u64)>, c: &EdgeChange) {
    let e = (c.edge.src, c.edge.dst);
    if c.is_insert() {
        model.insert(e);
    } else {
        model.remove(&e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Any interleaving of batches and incremental WCC runs tracks the
    /// union-find ground truth (insertion-only streams).
    #[test]
    fn incremental_wcc_tracks_reference(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..48, 0u64..48), 1..24),
            1..5,
        ),
        agents in 2usize..5,
    ) {
        let mut cluster = Cluster::builder().agents(agents).build();
        let mut model: std::collections::HashSet<(u64, u64)> = Default::default();
        let mut first = true;
        for batch in &batches {
            let changes: Vec<EdgeChange> = batch
                .iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| EdgeChange::insert(u, v))
                .collect();
            for c in &changes {
                apply_model(&mut model, c);
            }
            cluster.ingest(changes.iter().copied());
            let opts = RunOptions {
                reuse_state: !first,
                mode: ExecutionMode::Sync,
            };
            first = false;
            cluster.run_with(Wcc::new(), opts).expect("run");
            let truth = reference::wcc(model.iter().copied());
            for (&v, &label) in &truth {
                prop_assert_eq!(cluster.query_u64(v), Some(label), "vertex {}", v);
            }
        }
        cluster.shutdown();
    }

    /// Elastic churn (random join/leave schedule) never corrupts the
    /// graph: WCC recomputed after each change matches ground truth.
    #[test]
    fn elastic_churn_preserves_graph(
        edges in prop::collection::hash_set((0u64..40, 0u64..40), 10..60),
        schedule in prop::collection::vec(any::<bool>(), 1..4),
    ) {
        let edges: Vec<(u64, u64)> = edges.into_iter().filter(|&(u, v)| u != v).collect();
        prop_assume!(!edges.is_empty());
        let mut cluster = Cluster::builder().agents(2).build();
        cluster.ingest_edges(edges.iter().copied());
        let truth = reference::wcc(edges.iter().copied());
        for grow in schedule {
            if grow {
                cluster.add_agents(1);
            } else if cluster.agent_count() > 1 {
                cluster.remove_last_agent();
            }
            cluster.quiesce().expect("quiesce");
            cluster.run(Wcc::new()).expect("wcc");
            for (&v, &label) in &truth {
                prop_assert_eq!(cluster.query_u64(v), Some(label), "vertex {}", v);
            }
        }
        cluster.shutdown();
    }

    /// Sync and async execution agree for monotone programs.
    #[test]
    fn sync_and_async_wcc_agree(
        edges in prop::collection::hash_set((0u64..32, 0u64..32), 5..40),
    ) {
        let edges: Vec<(u64, u64)> = edges.into_iter().filter(|&(u, v)| u != v).collect();
        prop_assume!(!edges.is_empty());
        let mut cluster = Cluster::builder().agents(3).build();
        cluster.ingest_edges(edges.iter().copied());
        cluster
            .run_with(Wcc::new(), RunOptions { reuse_state: false, mode: ExecutionMode::Sync })
            .expect("sync");
        let vertices: Vec<u64> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        let sync: Vec<_> = vertices.iter().map(|&v| cluster.query_u64(v)).collect();
        cluster
            .run_with(Wcc::new(), RunOptions { reuse_state: false, mode: ExecutionMode::Async })
            .expect("async");
        let asyn: Vec<_> = vertices.iter().map(|&v| cluster.query_u64(v)).collect();
        prop_assert_eq!(sync, asyn);
        cluster.shutdown();
    }
}

proptest! {
    // Each case waits out one failure-detection window (1 s).
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    /// Every agent keeps the number of primary metas its ring places
    /// on it — debug builds hold it to a recount of its store at the end
    /// of every run and on every PageRank summary — and the cluster's
    /// sum of them is the graph's vertex count after every quiesce and
    /// every run, over random inserts and deletes, joins, leaves, and a
    /// checkpoint restore after a kill.
    #[test]
    fn the_kept_primary_count_is_the_graphs_vertex_count(
        ops in prop::collection::vec(
            (0u8..6, prop::collection::vec((0u64..50, 0u64..50, any::<bool>()), 1..16)),
            3..9,
        ),
    ) {
        let dir = std::env::temp_dir()
            .join(format!("elga-primaries-{}-{}", std::process::id(), ops.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SystemConfig {
            heartbeat_interval: std::time::Duration::from_millis(25),
            heartbeat_misses: 40,
            ..SystemConfig::default()
        };
        let mut cluster = Cluster::builder().agents(2).config(cfg).checkpoints(&dir).build();
        let mut model: std::collections::HashSet<(u64, u64)> = Default::default();
        let vertices = |model: &std::collections::HashSet<(u64, u64)>| {
            model.iter().flat_map(|&(u, v)| [u, v]).collect::<std::collections::HashSet<_>>().len() as u64
        };
        let mut pagerank = false;
        for (op, batch) in &ops {
            match op {
                0..=2 => {
                    let changes: Vec<EdgeChange> = batch
                        .iter()
                        .filter(|&&(u, v, _)| u != v)
                        .map(|&(u, v, delete)| if delete && model.contains(&(u, v)) {
                            EdgeChange::delete(u, v)
                        } else {
                            EdgeChange::insert(u, v)
                        })
                        .collect();
                    changes.iter().for_each(|c| apply_model(&mut model, c));
                    cluster.ingest(changes);
                }
                3 => {
                    cluster.add_agents(1);
                }
                4 if cluster.agent_count() > 1 => {
                    cluster.remove_last_agent();
                }
                _ => {
                    pagerank = !pagerank;
                    let stats = if pagerank {
                        cluster.run(PageRank::new(0.85).with_max_iters(3))
                    } else {
                        cluster.run(Wcc::new())
                    };
                    prop_assert_eq!(stats.expect("run").n_vertices, vertices(&model));
                }
            }
            cluster.quiesce().expect("quiesce");
            prop_assert_eq!(cluster.metrics().primaries, vertices(&model), "after op {}", op);
        }
        // A checkpoint, more changes, and a kill mid-run: the restore
        // and the replay of the suffix rebuild every count.
        for (i, half) in [0..10, 10..20].into_iter().enumerate() {
            let more: Vec<EdgeChange> = half.map(|i| EdgeChange::insert(60 + i, i)).collect();
            more.iter().for_each(|c| apply_model(&mut model, c));
            cluster.ingest(more);
            if i == 0 {
                prop_assert!(cluster.checkpoint().expect("checkpoint").committed);
            }
        }
        if cluster.agent_count() < 2 {
            cluster.add_agents(1);
        }
        let long = PageRank::new(0.85).with_max_iters(100).with_tolerance(0.0);
        let victim = cluster.agent_ids()[0];
        let handle = cluster.start_run(long, RunOptions::default()).expect("start");
        cluster.kill_agent(victim);
        let stats = cluster.wait_run(handle).expect("the run outlives the kill");
        prop_assert_eq!(cluster.recovery_stats().ckpt_restores, 1, "{:?}", cluster.recovery_stats());
        prop_assert_eq!(stats.n_vertices, vertices(&model));
        cluster.quiesce().expect("quiesce");
        prop_assert_eq!(cluster.metrics().primaries, vertices(&model));
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Run `spec` from scratch on `base`, then once per batch on the state
/// the last run left, in sync mode; `check` sees the graph so far and
/// the states after every run.
fn incremental_runs(
    agents: usize,
    spec: impl Into<ProgramSpec> + Copy,
    base: &[(u64, u64)],
    batches: &[Vec<EdgeChange>],
    mut check: impl FnMut(&std::collections::HashSet<(u64, u64)>, &HashMap<u64, u64>),
) {
    let mut cluster = Cluster::builder().agents(agents).build();
    let mut model: std::collections::HashSet<(u64, u64)> = base.iter().copied().collect();
    cluster.ingest_edges(base.iter().copied());
    cluster.run(spec).expect("first run");
    check(&model, &cluster.dump_states());
    for batch in batches {
        batch.iter().for_each(|c| apply_model(&mut model, c));
        cluster.ingest(batch.iter().copied());
        let opts = RunOptions {
            reuse_state: true,
            mode: ExecutionMode::Sync,
        };
        cluster.run_with(spec, opts).expect("incremental run");
        check(&model, &cluster.dump_states());
    }
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Sync steps chase their own records to a local fixed point at
    /// every agent count, one agent (everything local) included: over
    /// random graphs and change streams, each run on the state of the
    /// last, WCC and SSSP stay bit-exact against the references
    /// (insert-only streams, where their reuse runs are exact) and
    /// delta PageRank, deletes included, within `tests/incremental.rs`'s
    /// agreement bound of a full recompute of the same edges.
    #[test]
    fn chasing_sync_runs_agree_with_the_references(
        base in prop::collection::hash_set((0u64..48, 0u64..48), 10..80),
        batches in prop::collection::vec(
            prop::collection::vec((0u64..56, 0u64..56, any::<bool>()), 1..12),
            1..4,
        ),
        agents in 1usize..5,
    ) {
        // Vertex 0, SSSP's source, is in the graph.
        let base: Vec<(u64, u64)> = base.into_iter().chain([(0, 1)]).filter(|&(u, v)| u != v).collect();
        let inserts: Vec<Vec<EdgeChange>> = batches
            .iter()
            .map(|b| b.iter().filter(|c| c.0 != c.1).map(|&(u, v, _)| EdgeChange::insert(u, v)).collect())
            .collect();
        incremental_runs(agents, Wcc::new(), &base, &inserts, |model, states| {
            let truth = reference::wcc(model.iter().copied());
            assert_eq!(states.len(), truth.len(), "wcc: vertex sets");
            for (v, &label) in &truth {
                assert_eq!(states[v], label, "wcc: vertex {v}");
            }
        });
        incremental_runs(agents, Sssp::new(0), &base, &inserts, |model, states| {
            let edges: Vec<(u64, u64)> = model.iter().copied().collect();
            let truth = reference::sssp(&Csr::from_edges(None, &edges), 0);
            for (&v, &state) in states {
                assert_eq!(Sssp::decode(state), truth.get(&v).copied(), "sssp: vertex {v}");
            }
        });
        // Deletes of held edges, inserts otherwise.
        let mut held: std::collections::HashSet<(u64, u64)> = base.iter().copied().collect();
        let changes: Vec<Vec<EdgeChange>> = batches
            .iter()
            .map(|b| {
                b.iter()
                    .filter(|c| c.0 != c.1)
                    .map(|&(u, v, delete)| {
                        if delete && held.remove(&(u, v)) {
                            EdgeChange::delete(u, v)
                        } else {
                            held.insert((u, v));
                            EdgeChange::insert(u, v)
                        }
                    })
                    .collect()
            })
            .collect();
        let pagerank = PageRank::new(0.85).with_max_iters(300).with_tolerance(1e-10);
        incremental_runs(agents, pagerank, &base, &changes, |model, states| {
            let mut full = Cluster::builder().agents(agents).build();
            full.ingest_edges(model.iter().copied());
            full.run(pagerank).expect("full recompute");
            let want = full.dump_states();
            full.shutdown();
            assert_eq!(states.len(), want.len(), "pagerank: vertex sets");
            for (v, &bits) in &want {
                let (a, b) = (f64::from_bits(bits), f64::from_bits(states[v]));
                assert!((a - b).abs() < 1e-5, "pagerank: v{v}: full {a}, incremental {b}");
            }
        });
    }
}
