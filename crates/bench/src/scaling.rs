//! The static-graph experiments: the dataset inventory, PageRank and
//! WCC against the baselines and across cluster sizes, and the §3.5
//! transport round trip.

use crate::row;
use crate::setup::{
    baseline_threads, cluster, densify, generate, generate_sized, mean_ci, pagerank_iteration,
    time, timed_trials,
};
use crate::table::{Cell, Col, Figure};
use elga_baselines::snapshot::{rdd_pagerank, rdd_wcc};
use elga_baselines::BlogelEngine;
use elga_core::algorithms::Wcc;
use elga_core::config::SystemConfig;
use elga_gen::bter::BterModel;
use elga_gen::catalog::{catalog, find};
use elga_graph::csr::Csr;
use elga_net::{Addr, Frame, InProcTransport, TcpTransport, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Table 2 — "The graphs used in our experiments": published vs
/// regenerated sizes, at 16 bytes per edge (two 64-bit ids, §4).
pub(crate) fn table2(fig: &mut Figure) {
    let cols = [
        "n (pub)", "m (pub)", "EL (pub)", "n (gen)", "m (gen)", "EL (gen)",
    ];
    let mut head = vec![Col::new("graph", 16).left(), Col::new("ABTER", 6)];
    head.extend(cols.map(|c| Col::new(c, 9)));
    fig.table("", head);
    for d in catalog() {
        let (n, edges) = generate(d, 1);
        let m = edges.len() as u64;
        let abter = Some(d.abter_scale)
            .filter(|&s| s > 1)
            .map_or("-".into(), |s| format!("x{s}"));
        row!(fig; d.name, abter, Cell::Count(d.n_full), Cell::Count(d.m_full), Cell::Bytes(d.m_full * 16),
            Cell::Count(n), Cell::Count(m), Cell::Bytes(m * 16));
    }
}

/// Per-iteration time of the Blogel-like engine on `edges`.
fn blogel_pagerank(edges: &[(u64, u64)], iters: u32) -> (f64, f64) {
    let (n, dense) = densify(edges);
    timed_trials(|| {
        let engine = BlogelEngine::new(Csr::from_edges(Some(n), &dense), baseline_threads());
        time(|| engine.pagerank(0.85, iters as usize)) / iters
    })
}

/// Figure 4 — ElGA vs Blogel per iteration on a LiveJournal-like seed
/// and its A-BTER replicas: "the ratio between ElGA's and Blogel's
/// runtimes remain consistent", so replicas stand in for real graphs.
pub(crate) fn fig04(fig: &mut Figure) {
    const ITERS: u32 = 5;
    let lj = find("LiveJournal").expect("catalog");
    let (_, seed) = generate(&lj, 7);
    let model = BterModel::from_seed(&seed, 16);
    let x1 = model.generate(1.0, 11);
    let x10 = model.generate(10.0, 13);
    let cols = vec![
        Col::new("graph", 22).left(),
        Col::new("m", 8),
        Col::ms("ElGA"),
        Col::ms("Blogel"),
        Col::new("ratio", 6).prec(2).suffix("x"),
    ];
    fig.table("", cols);
    let mut ratios = Vec::new();
    for (name, edges) in [
        ("LiveJournal (seed)", &seed),
        ("BTER replica x1", &x1.edges),
        ("BTER replica x10", &x10.edges),
    ] {
        let elga = pagerank_iteration(4, &SystemConfig::default(), edges, ITERS);
        let blogel = blogel_pagerank(edges, ITERS);
        ratios.push(elga.0 / blogel.0);
        row!(fig; name, edges.len(), Cell::ms(elga), Cell::ms(blogel), elga.0 / blogel.0);
    }
    let err = x1.degree_error(&model, 1.0);
    fig.note(format!(
        "replica x1 degree-distribution error vs model: {:.1}%",
        err * 100.0
    ));
    fig.note(format!(
        "ElGA/Blogel ratio consistency: seed {:.2}x, x1 {:.2}x, x10 {:.2}x",
        ratios[0], ratios[1], ratios[2]
    ));
}

/// One PageRank scaling sweep: a row per cluster size 1, 2, 4 and 8
/// (`agents(size)` agents), a column per dataset (~150k edges each).
fn scaling_sweep(
    fig: &mut Figure,
    label: &str,
    datasets: &[&str],
    seed: u64,
    agents: impl Fn(usize) -> usize,
) {
    let graphs: Vec<Vec<(u64, u64)>> = datasets
        .iter()
        .map(|name| generate_sized(&find(name).expect("catalog"), 150_000, seed).1)
        .collect();
    let mut cols = vec![Col::new(label, label.len().max(7))];
    cols.extend(datasets.iter().map(|d| Col::ms(*d)));
    fig.table("", cols);
    for size in [1, 2, 4, 8] {
        let mut cells = vec![Cell::from(size)];
        for edges in &graphs {
            cells.push(Cell::ms(pagerank_iteration(
                agents(size),
                &SystemConfig::default(),
                edges,
                4,
            )));
        }
        fig.row(cells);
    }
}

/// Figure 8 — strong scaling over nodes ("adding more nodes results in
/// lower runtimes"); in process a node is two agents.
pub(crate) fn fig08(fig: &mut Figure) {
    let datasets = ["Twitter-2010", "LiveJournal", "Graph500-30"];
    scaling_sweep(fig, "nodes", &datasets, 21, |nodes| nodes * 2);
}

/// Figure 9 — four nodes (the paper's 64), agents per node swept 1..8
/// ("adding more Agents results in faster runtimes").
pub(crate) fn fig09(fig: &mut Figure) {
    let datasets = ["Twitter-2010", "Pokec-1000"];
    scaling_sweep(fig, "agents/node", &datasets, 23, |per_node| 4 * per_node);
}

/// Figure 10 — weak scaling: the Pokec-like BTER replica grows with
/// the agents (~40k edges each); per-edge-per-agent time should stay
/// flat ("A horizontal line is ideal").
pub(crate) fn fig10(fig: &mut Figure) {
    let pokec = find("Pokec-1000").expect("catalog");
    let (_, seed) = generate_sized(&pokec, 40_000, 31);
    let model = BterModel::from_seed(&seed, 8);
    let cols = vec![
        Col::new("agents", 7),
        Col::new("edges", 10),
        Col::ms("per-iteration"),
        Col::new("µs/(edge/agent)", 16).prec(3),
    ];
    fig.table("", cols);
    for agents in [1usize, 2, 4, 8, 16] {
        let rep = model.generate(agents as f64, 37);
        let m = rep.edges.len();
        let per_iter = pagerank_iteration(agents, &SystemConfig::default(), &rep.edges, 3);
        row!(fig; agents, m, Cell::ms(per_iter), per_iter.0 / (m as f64 / agents as f64) * 1e6);
    }
}

/// The three-system comparison columns of figures 11 and 12.
fn versus_cols(m: &str) -> Vec<Col> {
    vec![
        Col::new("graph", 16).left(),
        Col::new(m, 9),
        Col::ms("ElGA"),
        Col::ms("Blogel-like"),
        Col::ms("GraphX-like"),
    ]
}

/// Figure 11 — per-iteration PageRank against Blogel and GraphX: "we
/// outperform the baselines even when ignoring partitioning time"; the
/// GraphX-like engine's rebuild is excluded, as in the paper.
pub(crate) fn fig11(fig: &mut Figure) {
    const ITERS: u32 = 4;
    let datasets = [
        "Twitter-2010",
        "Friendster",
        "UK-2007-05",
        "Datagen-9.3-zf",
        "LiveJournal",
        "Graph500-30",
        "Pokec-1000",
    ];
    fig.table("", versus_cols("m"));
    for name in datasets {
        let (_, edges) = generate(&find(name).expect("catalog"), 41);
        let elga = pagerank_iteration(8, &SystemConfig::default(), &edges, ITERS);
        let blogel = blogel_pagerank(&edges, ITERS);
        let (n, dense) = densify(&edges);
        let csr = Csr::from_edges(Some(n), &dense);
        let graphx = timed_trials(|| time(|| rdd_pagerank(&csr, 0.85, ITERS as usize)) / ITERS);
        row!(fig; name, edges.len(), Cell::ms(elga), Cell::ms(blogel), Cell::ms(graphx));
    }
    fig.note("(GraphX-like excludes partitioning/rebuild costs, as the paper does)");
}

/// Figure 12 — WCC to convergence against Blogel and GraphX on
/// symmetrized inputs (the paper's fix for Blogel's WCC).
pub(crate) fn fig12(fig: &mut Figure) {
    let datasets = [
        "Twitter-2010",
        "Friendster",
        "Datagen-9.4-fb",
        "LiveJournal",
        "Gowalla",
    ];
    fig.table("", versus_cols("m(sym)"));
    for name in datasets {
        let (_, edges) = generate(&find(name).expect("catalog"), 43);
        let mut sym: Vec<(u64, u64)> = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        sym.sort_unstable();
        sym.dedup();
        let elga = timed_trials(|| {
            let mut c = cluster(8);
            c.ingest_edges(sym.iter().copied());
            let total = c.run(Wcc::new()).expect("wcc run").total;
            c.shutdown();
            total
        });
        let (n, dense) = densify(&sym);
        let csr = Csr::from_edges(Some(n), &dense);
        let blogel = timed_trials(|| {
            let engine = BlogelEngine::new(csr.clone(), baseline_threads());
            time(|| engine.wcc())
        });
        let graphx = timed_trials(|| time(|| rdd_wcc(&csr)));
        row!(fig; name, sym.len(), Cell::ms(elga), Cell::ms(blogel), Cell::ms(graphx));
    }
}

/// REQ/REP round trips per §3.5 trial.
const ROUNDS: usize = 2000;

/// Mean REQ/REP round trip over [`ROUNDS`] requests to an echo server
/// bound at `addr`.
fn round_trip(transport: Arc<dyn Transport>, addr: Addr) -> f64 {
    let mb = transport.bind(&addr).expect("bind");
    let addr = mb.addr().clone();
    let server = std::thread::spawn(move || {
        for _ in 0..ROUNDS {
            let d = mb.recv().expect("recv");
            if let Some(r) = d.reply {
                let _ = r.send(Frame::signal(2));
            }
        }
    });
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        transport
            .request(&addr, Frame::signal(1), Duration::from_secs(5))
            .expect("request");
    }
    let per = t0.elapsed().as_secs_f64() / ROUNDS as f64;
    server.join().expect("echo server");
    per
}

/// §3.5 — the paper sizes its messaging overhead with MPI (~1 µs), TCP
/// (~4 µs) and ZeroMQ (>20 µs) sends; here, a REQ/REP round trip over
/// in-process channels vs TCP sockets (three trials of 2000 rounds).
pub(crate) fn sec35(fig: &mut Figure) {
    let (mut inproc, mut tcp) = (Vec::new(), Vec::new());
    for i in 0..3 {
        let (local, any) = (
            Addr::inproc(format!("echo-{i}")),
            Addr::parse("tcp://127.0.0.1:0"),
        );
        inproc.push(round_trip(Arc::new(InProcTransport::new()), local));
        tcp.push(round_trip(
            Arc::new(TcpTransport::new()),
            any.expect("addr"),
        ));
    }
    let (inproc, tcp) = (mean_ci(&inproc), mean_ci(&tcp));
    let cols = vec![
        Col::new("transport", 9).left(),
        Col::new("round trip", 22).prec(2).suffix(" µs"),
        Col::new("vs inproc", 9).prec(1).suffix("x"),
    ];
    fig.table("REQ/REP round trip:", cols);
    for (name, (mean, ci)) in [("inproc", inproc), ("tcp", tcp)] {
        row!(fig; name, Cell::Ci(mean * 1e6, ci * 1e6), mean / inproc.0);
    }
}
