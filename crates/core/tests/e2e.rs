//! End-to-end tests of the full ElGA system: master + directories +
//! agents on threads, exchanging only messages. Every algorithm result
//! is validated against the single-threaded references in
//! `elga_graph::reference`, as in the paper's §4.3 methodology.

use elga_core::algorithms::{Bfs, Degree, PageRank, Sssp, Wcc};
use elga_core::cluster::Cluster;
use elga_core::config::SystemConfig;
use elga_core::program::{ExecutionMode, RunOptions};
use elga_graph::csr::Csr;
use elga_graph::reference;
use elga_graph::types::EdgeChange;

fn small_graph() -> Vec<(u64, u64)> {
    // Two weakly-connected components with a hub.
    vec![
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 2),
        (0, 3),
        // second component
        (10, 11),
        (11, 12),
    ]
}

#[test]
fn degree_program_reports_out_degrees() {
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(small_graph());
    cluster.run(Degree::new()).unwrap();
    assert_eq!(cluster.query_u64(0), Some(2));
    assert_eq!(cluster.query_u64(2), Some(2));
    assert_eq!(cluster.query_u64(4), Some(1));
    assert_eq!(cluster.query_u64(12), Some(0));
    assert_eq!(cluster.query_u64(999), None, "unknown vertex");
    cluster.shutdown();
}

#[test]
fn pagerank_matches_reference_to_1e8() {
    let edges = small_graph();
    let mut cluster = Cluster::builder().agents(4).build();
    cluster.ingest_edges(edges.iter().copied());
    let stats = cluster.run(PageRank::new(0.85).with_max_iters(30)).unwrap();
    assert_eq!(stats.steps, 30);

    // Reference over densely relabeled ids.
    let mut ids: Vec<u64> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    let dense: std::collections::HashMap<u64, u64> = ids
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u64))
        .collect();
    let dense_edges: Vec<(u64, u64)> = edges.iter().map(|&(u, v)| (dense[&u], dense[&v])).collect();
    let csr = Csr::from_edges(Some(ids.len()), &dense_edges);
    let expect = reference::pagerank(&csr, 0.85, 30);

    for &v in &ids {
        let got = cluster.query_f64(v).expect("rank");
        let want = expect[dense[&v] as usize];
        assert!(
            (got - want).abs() < reference::PAGERANK_TOLERANCE,
            "vertex {v}: got {got}, want {want}"
        );
    }
    cluster.shutdown();
}

#[test]
fn wcc_matches_union_find() {
    let edges = small_graph();
    let mut cluster = Cluster::builder().agents(4).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).unwrap();
    let expect = reference::wcc(edges.iter().copied());
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label), "vertex {v}");
    }
    cluster.shutdown();
}

#[test]
fn bfs_and_sssp_match_references() {
    let edges = small_graph();
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(edges.iter().copied());
    let csr = Csr::from_edges(None, &edges);

    cluster.run(Bfs::new(0)).unwrap();
    let expect = reference::bfs(&csr, 0);
    for (&v, &d) in &expect {
        assert_eq!(cluster.query_u64(v).and_then(Bfs::decode), Some(d));
    }
    // Unreached component.
    assert_eq!(cluster.query_u64(10).and_then(Bfs::decode), None);

    cluster.run(Sssp::new(0)).unwrap();
    let expect = reference::sssp(&csr, 0);
    for (&v, &d) in &expect {
        assert_eq!(cluster.query_u64(v).and_then(Sssp::decode), Some(d));
    }
    cluster.shutdown();
}

#[test]
fn replication_splits_hubs_and_stays_correct() {
    // Tiny replication threshold: the hub is split across agents.
    let mut hub_edges: Vec<(u64, u64)> = (1..=40).map(|i| (0, i)).collect();
    hub_edges.extend((1..=40).map(|i| (i, (i % 40) + 1)));
    let cfg = SystemConfig {
        replication_threshold: 8,
        ..SystemConfig::default()
    };
    let mut cluster = Cluster::builder().agents(4).config(cfg).build();
    cluster.ingest_edges(hub_edges.iter().copied());

    // The view's sketch must see the hub as high degree.
    let view = cluster.view();
    assert!(view.degree_estimate(0) >= 40, "hub degree underestimated");
    let loc = view.locator();
    assert!(
        loc.replication_factor(view.degree_estimate(0)) > 1,
        "hub should be replicated"
    );

    cluster.run(Wcc::new()).unwrap();
    let expect = reference::wcc(hub_edges.iter().copied());
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label), "vertex {v}");
    }

    cluster.run(PageRank::new(0.85).with_max_iters(10)).unwrap();
    let total: f64 = (0..=40).map(|v| cluster.query_f64(v).unwrap()).sum();
    assert!((total - 1.0).abs() < 1e-6, "rank mass {total}");
    cluster.shutdown();
}

#[test]
fn incremental_wcc_reuses_state() {
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges([(1, 2), (2, 3), (10, 11)]);
    cluster.run(Wcc::new()).unwrap();
    assert_eq!(cluster.query_u64(11), Some(10));

    // Insert a bridging edge; only touched vertices activate.
    cluster.ingest([EdgeChange::insert(3, 10)]);
    let stats = cluster
        .run_with(
            Wcc::new(),
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Sync,
            },
        )
        .unwrap();
    assert_eq!(cluster.query_u64(11), Some(1), "components merged");
    assert_eq!(cluster.query_u64(10), Some(1));
    assert_eq!(cluster.query_u64(1), Some(1));
    assert!(stats.steps >= 1);
    cluster.shutdown();
}

#[test]
fn incremental_wcc_handles_deletions_via_label_reset() {
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges([(1, 2), (2, 3), (3, 4)]);
    cluster.run(Wcc::new()).unwrap();
    assert_eq!(cluster.query_u64(4), Some(1));

    // Cut the chain: delete (2,3). Labels of the affected component
    // reset, then an incremental run recomputes.
    let old_label = cluster.query_u64(2).unwrap();
    cluster.ingest([EdgeChange::delete(2, 3)]);
    cluster.reset_labels(&[old_label]);
    cluster
        .run_with(
            Wcc::new(),
            RunOptions {
                reuse_state: true,
                mode: ExecutionMode::Sync,
            },
        )
        .unwrap();
    assert_eq!(cluster.query_u64(1), Some(1));
    assert_eq!(cluster.query_u64(2), Some(1));
    assert_eq!(cluster.query_u64(3), Some(3), "split component");
    assert_eq!(cluster.query_u64(4), Some(3));
    cluster.shutdown();
}

#[test]
fn async_wcc_matches_reference() {
    let edges = small_graph();
    let mut cluster = Cluster::builder().agents(4).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster
        .run_with(
            Wcc::new(),
            RunOptions {
                reuse_state: false,
                mode: ExecutionMode::Async,
            },
        )
        .unwrap();
    let expect = reference::wcc(edges.iter().copied());
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label), "vertex {v}");
    }
    cluster.shutdown();
}

#[test]
fn elastic_scale_up_and_down_preserves_graph_and_results() {
    let edges = small_graph();
    let mut cluster = Cluster::builder().agents(2).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).unwrap();
    let expect = reference::wcc(edges.iter().copied());

    // Scale up.
    let new_ids = cluster.add_agents(3);
    assert_eq!(new_ids.len(), 3);
    cluster.quiesce().expect("quiesce");
    assert_eq!(cluster.agent_count(), 5);
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label), "after scale-up {v}");
    }
    cluster.run(Wcc::new()).unwrap();
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label), "rerun {v}");
    }

    // Scale down below the original size.
    for _ in 0..3 {
        cluster.remove_last_agent().unwrap();
    }
    cluster.quiesce().expect("quiesce");
    assert_eq!(cluster.agent_count(), 2);
    cluster.run(Wcc::new()).unwrap();
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label), "after scale-down {v}");
    }
    cluster.shutdown();
}

#[test]
fn deletions_then_reinsertions_roundtrip() {
    let edges = small_graph();
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(edges.iter().copied());
    let before = cluster.metrics().edges;
    cluster.ingest([EdgeChange::delete(0, 1), EdgeChange::delete(2, 3)]);
    assert_eq!(cluster.metrics().edges, before - 2);
    cluster.ingest([EdgeChange::insert(0, 1), EdgeChange::insert(2, 3)]);
    assert_eq!(cluster.metrics().edges, before);
    // Graph is intact: WCC unchanged.
    cluster.run(Wcc::new()).unwrap();
    let expect = reference::wcc(edges.iter().copied());
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label));
    }
    cluster.shutdown();
}

#[test]
fn mid_run_scaling_preserves_pagerank_exactly() {
    // Regression: a vertex whose meta and edges migrate together must
    // keep its global out-degree, or its rank mass silently vanishes.
    let mut edges: Vec<(u64, u64)> = (0..400u64)
        .map(|i| {
            (
                elga_hash::wang64(i) % 120,
                elga_hash::wang64(i * 31 + 5) % 120,
            )
        })
        .filter(|&(u, v)| u != v)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let csr = Csr::from_edges(Some(120), &edges);
    let expect = reference::pagerank(&csr, 0.85, 8);

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(edges.iter().copied());
    let handle = cluster
        .start_run(PageRank::new(0.85).with_max_iters(8), RunOptions::default())
        .unwrap();
    // Join mid-run: applied at a superstep boundary with migration.
    cluster.add_agents(3);
    cluster.wait_run(handle).unwrap();

    let mut mass = 0.0;
    for v in 0..120u64 {
        if csr.out_degree(v) + csr.in_degree(v) == 0 {
            continue;
        }
        let got = cluster.query_f64(v).expect("rank");
        mass += got;
        assert!(
            (got - expect[v as usize]).abs() < reference::PAGERANK_TOLERANCE,
            "vertex {v}: got {got}, want {}",
            expect[v as usize]
        );
    }
    assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
    cluster.shutdown();
}

#[test]
fn multi_directory_cluster_works() {
    // Two Directories: agents are assigned round-robin by the master;
    // the non-lead relays its agents' reports to the lead (paper
    // Figure 2 step 4: "Directories re-broadcast ready messages among
    // themselves").
    let mut cluster = Cluster::builder().agents(4).directories(2).build();
    let edges = small_graph();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).unwrap();
    let expect = reference::wcc(edges.iter().copied());
    for (&v, &label) in &expect {
        assert_eq!(cluster.query_u64(v), Some(label), "vertex {v}");
    }
    // PageRank across the relayed barrier path too.
    let csr = {
        let (ids, dense) = {
            let mut ids: Vec<u64> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
            ids.sort_unstable();
            ids.dedup();
            let index: std::collections::HashMap<u64, u64> = ids
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u64))
                .collect();
            let dense: Vec<(u64, u64)> =
                edges.iter().map(|&(u, v)| (index[&u], index[&v])).collect();
            (ids, dense)
        };
        let n = ids.len();
        (ids, Csr::from_edges(Some(n), &dense))
    };
    cluster.run(PageRank::new(0.85).with_max_iters(10)).unwrap();
    let expect = reference::pagerank(&csr.1, 0.85, 10);
    for (i, &v) in csr.0.iter().enumerate() {
        let got = cluster.query_f64(v).unwrap();
        assert!((got - expect[i]).abs() < reference::PAGERANK_TOLERANCE);
    }
    cluster.shutdown();
}

#[test]
fn queries_run_concurrently_with_computation() {
    // Goal 4: maintenance supports concurrent queries. Hammer the
    // query path from another thread while a run is in flight.
    let mut cluster = Cluster::builder().agents(3).build();
    let edges: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 100, (i * 7 + 1) % 100)).collect();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Wcc::new()).unwrap();

    let transport = cluster.transport();
    let view = cluster.view();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    let querier = std::thread::spawn(move || {
        let ring = view.locator();
        let mut served = 0u64;
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            let v = served % 100;
            let primary = view.addr_of(ring.ring().owner(v).unwrap()).unwrap();
            let ask = elga_core::msg::encode_query_batch(&[v]);
            let rep = transport.request(primary, ask, std::time::Duration::from_secs(5));
            let hit = rep.ok().is_some_and(|rep| {
                elga_core::msg::decode_query_batch_rep(&rep)
                    .unwrap()
                    .records
                    .iter()
                    .all(|a| a.found == elga_core::msg::ANSWER_HIT)
            });
            served += u64::from(hit);
        }
        served
    });
    // Several runs while queries hammer the agents.
    for _ in 0..3 {
        cluster.run(PageRank::new(0.85).with_max_iters(5)).unwrap();
        cluster.run(Wcc::new()).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served = querier.join().unwrap();
    assert!(served > 0, "queries must be served during computation");
    cluster.shutdown();
}

#[test]
fn ingest_during_run_is_buffered_and_applied_after() {
    // §3.4: "While a batch is running, the graph does not change: any
    // edge changes are buffered."
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges((0..200u64).map(|i| (i, i + 1)));
    let handle = cluster
        .start_run(PageRank::new(0.85).with_max_iters(8), RunOptions::default())
        .unwrap();
    // Push changes mid-run without waiting for quiescence.
    cluster.ingest_async(&[EdgeChange::insert(500, 501), EdgeChange::delete(0, 1)]);
    cluster.wait_run(handle).unwrap();
    cluster.quiesce().expect("quiesce");
    // The buffered changes took effect after the run finished.
    let m = cluster.metrics().edges;
    assert_eq!(m, 200); // 200 original + 1 insert - 1 delete
    cluster.run(Degree::new()).unwrap();
    assert_eq!(cluster.query_u64(500), Some(1));
    // Vertex 0 only had the deleted edge: it is now isolated and the
    // store drops it entirely (Goal 2: memory tracks the current graph).
    assert_eq!(cluster.query_u64(0), None);
    cluster.shutdown();
}

#[test]
fn dag_levels_via_waiting_sets_match_reference() {
    // §3.2 waiting sets: each vertex is processed only after all of
    // its in-neighbors reported (async mode). Random DAG: orient every
    // edge from the smaller to the larger id.
    use elga_core::algorithms::DagLevel;
    let mut edges: Vec<(u64, u64)> = (0..600u64)
        .map(|i| {
            let a = elga_hash::wang64(i) % 150;
            let b = elga_hash::wang64(i * 17 + 3) % 150;
            (a.min(b), a.max(b))
        })
        .filter(|&(u, v)| u != v)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let csr = Csr::from_edges(Some(150), &edges);
    let expect = reference::dag_levels(&csr).expect("acyclic by construction");

    let mut cluster = Cluster::builder().agents(4).build();
    cluster.ingest_edges(edges.iter().copied());
    let vmsgs_before = cluster.metrics().vmsgs;
    cluster
        .run_with(
            DagLevel::new(),
            RunOptions {
                reuse_state: false,
                mode: ExecutionMode::Async,
            },
        )
        .unwrap();
    for (&v, &level) in &expect {
        let got = cluster.query_u64(v).and_then(DagLevel::decode);
        assert_eq!(got, Some(level), "vertex {v}");
    }
    // The quantitative waiting-set property: every vertex is processed
    // exactly once, so each edge carries exactly one message.
    let vmsgs = cluster.metrics().vmsgs - vmsgs_before;
    assert_eq!(
        vmsgs as usize,
        edges.len(),
        "waiting sets must deliver one message per edge"
    );
    cluster.shutdown();
}

#[test]
fn dag_levels_terminate_cleanly_on_cycles() {
    // A cycle can never satisfy its waiting sets; the run must still
    // terminate (counters settle) with the cyclic part unleveled.
    use elga_core::algorithms::DagLevel;
    let edges = [(0u64, 1u64), (1, 2), (2, 0), (5, 6), (0, 5)];
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster
        .run_with(
            DagLevel::new(),
            RunOptions {
                reuse_state: false,
                mode: ExecutionMode::Async,
            },
        )
        .unwrap();
    for v in [0u64, 1, 2, 5, 6] {
        let got = cluster.query_u64(v).and_then(DagLevel::decode);
        assert_eq!(got, None, "vertex {v} is on or downstream of the cycle");
    }
    cluster.shutdown();
}

#[test]
fn personalized_pagerank_matches_reference_and_dump_extracts_all() {
    use elga_core::algorithms::Ppr;
    let mut edges: Vec<(u64, u64)> = (0..400u64)
        .map(|i| {
            (
                elga_hash::wang64(i) % 90,
                elga_hash::wang64(i * 11 + 1) % 90,
            )
        })
        .filter(|&(u, v)| u != v)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let csr = Csr::from_edges(Some(90), &edges);
    let expect = reference::personalized_pagerank(&csr, 7, 0.85, 12);

    let mut cluster = Cluster::builder().agents(4).build();
    cluster.ingest_edges(edges.iter().copied());
    cluster.run(Ppr::new(7, 0.85).with_max_iters(12)).unwrap();

    // Bulk extraction: one DUMP round instead of per-vertex queries.
    let dump = cluster.dump_states();
    let mut mass = 0.0;
    for v in 0..90u64 {
        if csr.out_degree(v) + csr.in_degree(v) == 0 {
            continue;
        }
        let got = f64::from_bits(*dump.get(&v).expect("dumped"));
        mass += got;
        assert!(
            (got - expect[v as usize]).abs() < reference::PAGERANK_TOLERANCE,
            "vertex {v}: {got} vs {}",
            expect[v as usize]
        );
    }
    assert!((mass - 1.0).abs() < 1e-9, "ppr mass {mass}");
    cluster.shutdown();
}

/// A built-in program runs the superstep kernels compiled for its own
/// type, and the same program wrapped whole in `ProgramSpec::Custom`
/// runs the same kernels through a trait object. Either way every run lands on
/// the same bits, and a sync run sends the same records in the same
/// frames over the same steps. PageRank's sums are bit-exact only under
/// a fixed arrival order, so the f64 programs run on one agent.
#[test]
fn built_in_and_custom_programs_agree() {
    use elga_core::algorithms::{DagLevel, Ppr};
    use elga_core::msg::packet;
    use elga_core::program::{ProgramSpec, VertexProgram};
    use elga_gen::{rmat, RmatParams};
    use std::sync::Arc;

    /// `program` as its spec, and wrapped in `ProgramSpec::Custom`.
    fn specs<P>(program: P) -> [ProgramSpec; 2]
    where
        P: VertexProgram + Into<ProgramSpec> + Copy + 'static,
    {
        [program.into(), ProgramSpec::Custom(Arc::new(program))]
    }

    let mut edges = rmat(10, 6000, RmatParams::GRAPH500, 0xC0DE);
    edges.retain(|&(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();
    // The same graph as a DAG for the waiting sets: every edge from the
    // smaller id to the larger.
    let mut dag: Vec<(u64, u64)> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    dag.sort_unstable();
    dag.dedup();
    // The delta run's batch: every 16th edge goes, new ones arrive.
    let batch: Vec<EdgeChange> = (edges.iter().step_by(16))
        .map(|&(u, v)| EdgeChange::delete(u, v))
        .chain((0..200u64).map(|i| EdgeChange::insert(i * 5 % 1024, (i * 37 + 11) % 1024)))
        .filter(|c| !c.edge.is_loop())
        .collect();
    let source = edges[0].0;
    let sync = RunOptions::default();
    let asynchronous = RunOptions {
        reuse_state: false,
        mode: ExecutionMode::Async,
    };
    let pagerank = PageRank::new(0.85).with_max_iters(40).with_tolerance(1e-9);
    let ppr = Ppr::new(source, 0.85).with_max_iters(20);
    // (program, agents, graph, options, a delta run after the batch)
    let cases = [
        (specs(pagerank), 1, &edges, sync, true),
        (specs(Wcc::new()), 2, &edges, sync, false),
        (specs(Bfs::new(source)), 2, &edges, sync, false),
        (specs(Sssp::new(source)), 2, &edges, sync, false),
        (specs(Degree::new()), 2, &edges, sync, false),
        (specs(ppr), 1, &edges, sync, false),
        (specs(Wcc::new()), 2, &edges, asynchronous, false),
        (specs(DagLevel::new()), 2, &dag, asynchronous, false),
    ];
    // VMSG frames the sync runs sent between agents.
    let mut framed = 0;
    for ([spec, custom], agents, graph, options, delta) in cases {
        let what = format!("{spec:?} on {agents} agent(s), {:?}", options.mode);
        let run = |spec: ProgramSpec| {
            let mut cluster = Cluster::builder().agents(agents).build();
            cluster.ingest_edges(graph.iter().copied());
            let mut runs = Vec::new();
            let stats = cluster.run_with(spec.clone(), options).expect("run");
            runs.push((cluster.dump_states(), stats.steps));
            if delta {
                cluster.ingest(batch.iter().copied());
                let reuse = RunOptions {
                    reuse_state: true,
                    ..options
                };
                let stats = cluster.run_with(spec, reuse).expect("delta run");
                runs.push((cluster.dump_states(), stats.steps));
            }
            let net = cluster.transport().net_stats().expect("in-process stats");
            let sent = (cluster.metrics().vmsgs, net.sent(packet::VMSG).0);
            cluster.shutdown();
            (runs, sent)
        };
        let (built_in, built_in_sent) = run(spec);
        let (wrapped, wrapped_sent) = run(custom);
        assert!(!built_in[0].0.is_empty(), "{what}: no states");
        for (i, (a, b)) in built_in.iter().zip(&wrapped).enumerate() {
            let differ = a.0.iter().filter(|(v, s)| b.0.get(v) != Some(s)).count();
            assert!(
                differ == 0 && a.0.len() == b.0.len(),
                "{what}, run {i}: {differ} of {} states differ",
                a.0.len()
            );
            if options.mode == ExecutionMode::Sync {
                assert_eq!(a.1, b.1, "{what}, run {i}: steps differ");
            }
        }
        if options.mode == ExecutionMode::Sync {
            framed += built_in_sent.1;
            assert_eq!(
                built_in_sent, wrapped_sent,
                "{what}: records or frames differ"
            );
        }
    }
    assert!(framed > 0, "no sync run framed a vertex message");
}
