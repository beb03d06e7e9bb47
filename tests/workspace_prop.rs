//! Workspace-level property tests: randomized change streams and
//! elasticity schedules driven against the full system, checked
//! against the references. These are the heaviest invariants in the
//! suite, so case counts are modest.

use elga::core::program::{ExecutionMode, RunOptions};
use elga::graph::reference;
use elga::prelude::*;
use proptest::prelude::*;

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
        let handle = cluster.start_run(long, RunOptions::default()).expect("start");
        cluster.kill_agent(cluster.agent_ids()[0]);
        let stats = cluster.wait_run(handle).expect("the run outlives the kill");
        prop_assert_eq!(cluster.recovery_stats().ckpt_restores, 1, "{:?}", cluster.recovery_stats());
        prop_assert_eq!(stats.n_vertices, vertices(&model));
        cluster.quiesce().expect("quiesce");
        prop_assert_eq!(cluster.metrics().primaries, vertices(&model));
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
