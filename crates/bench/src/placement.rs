//! Where edges go: the hash function, virtual agents, the degree
//! sketch's width and vertex replication (§3.4).

use crate::row;
use crate::setup::{generate, generate_sized, mean_ci, pagerank_iteration, time};
use crate::table::{Cell, Col, Figure};
use elga_core::config::SystemConfig;
use elga_gen::catalog::find;
use elga_gen::powerlaw::power_law;
use elga_graph::stats::load_balance;
use elga_hash::{EdgeLocator, FxHashMap, HashKind, LocatorConfig, Ring};
use elga_sketch::DegreeEstimator;

/// Mean of five timed sweeps of `f` over `n` keys, in ns per key.
fn ns_per_key(n: usize, mut f: impl FnMut() -> u64) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| time(&mut f).as_nanos() as f64 / n as f64)
        .collect();
    mean_ci(&times).0
}

/// Figure 5 — "The hash function has a large impact on the runtime":
/// (a) PageRank iteration time per hash; (b) the per-agent edge
/// distribution each gives over 2048 agents ("Ideal is a single
/// vertical line", imbalance 1.0).
pub(crate) fn fig05(fig: &mut Figure) {
    let tw = find("Twitter-2010").expect("catalog");
    let (_, edges) = generate(&tw, 3);
    let cols = vec![Col::new("hash", 7).left(), Col::ms("per-iteration")];
    fig.table("(a) PageRank iteration runtime (4 agents)", cols);
    for kind in HashKind::ALL {
        let cfg = SystemConfig {
            hash: kind,
            ..SystemConfig::default()
        };
        row!(fig; kind.name(), Cell::ms(pagerank_iteration(4, &cfg, &edges, 4)));
    }

    // The distribution needs many more keys than agents: a fixed ~300k
    // edges for the pure-locator measurement.
    let (_, edges) = generate_sized(&tw, 300_000, 3);
    let mut cols = vec![Col::new("hash", 7).left()];
    cols.extend(["min", "p25", "p50", "p75", "max"].map(|c| Col::new(c, 8)));
    cols.push(Col::new("imbalance", 9).prec(3).suffix("x"));
    fig.table(
        "(b) edge distribution across 2048 agents (100 virtual agents each)",
        cols,
    );
    for kind in HashKind::ALL {
        let ring = Ring::from_agents(kind, 100, 0..2048);
        let counts = ring.assignment_counts(edges.iter().map(|&(u, _)| u));
        let mut sorted: Vec<u64> = counts.iter().map(|&(_, c)| c).collect();
        sorted.sort_unstable();
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
        let imbalance = load_balance(&sorted).imbalance;
        row!(fig; kind.name(), sorted[0], pct(0.25), pct(0.5), pct(0.75), sorted[sorted.len() - 1], imbalance);
    }
    fig.note("  (ideal is a single vertical line: imbalance 1.0)");
}

/// Figure 6 — load balance over 2048 agents as virtual agents per agent
/// go 1..1000 ("Beyond 100 improvements do not outweigh the
/// computational cost"), with the lookup cost each level pays.
pub(crate) fn fig06(fig: &mut Figure) {
    let tw = find("Twitter-2010").expect("catalog");
    // Pure locator math: ~300k edges whatever the live-cluster
    // fraction, so 2048 agents see enough keys.
    let (_, edges) = generate_sized(&tw, 300_000, 5);
    let keys: Vec<u64> = edges.iter().map(|&(u, _)| u).collect();
    let cols = vec![
        Col::new("vper", 6),
        Col::new("min", 9),
        Col::new("mean", 9).prec(1),
        Col::new("max", 9),
        Col::new("imbalance", 11).prec(3).suffix("x"),
        Col::new("lookup (ns)", 14).prec(1),
    ];
    fig.table("", cols);
    for vper in [1u32, 10, 100, 1000] {
        let ring = Ring::from_agents(HashKind::Wang, vper, 0..2048);
        let counts = ring.assignment_counts(keys.iter().copied());
        let values: Vec<u64> = counts.iter().map(|&(_, c)| c).collect();
        let lb = load_balance(&values);
        let lookup = ns_per_key(keys.len(), || {
            keys.iter().fold(0, |s, &k| s ^ ring.owner(k).unwrap_or(0))
        });
        row!(fig; u64::from(vper), lb.min, lb.mean, lb.max, lb.imbalance, lookup);
    }
    fig.note("(the paper selects 100: balanced, with lookup still O(log P·V))");
}

/// Figure 7 — per count-min width, the per-edge cost of the resolve path
/// (estimate, then both hashes) and the degree over-estimate: max,
/// mean, and the vertices whose replication factor it changes.
pub(crate) fn fig07(fig: &mut Figure) {
    let tw = find("Twitter-2010").expect("catalog");
    let (_, edges) = generate(&tw, 9);
    let mut truth: FxHashMap<u64, u64> = FxHashMap::default();
    for &(u, v) in &edges {
        *truth.entry(u).or_insert(0) += 1;
        if u != v {
            *truth.entry(v).or_insert(0) += 1;
        }
    }
    let ring = Ring::from_agents(HashKind::Wang, 100, 0..64);
    let threshold = (edges.len() as u64 / 20).max(8); // "set high" relative to scale
    fig.note(format!(
        "replication threshold: {threshold} (scaled analog of the paper's 10^7)"
    ));
    let cols = vec![
        Col::new("width", 9),
        Col::new("resolve (ns)", 14).prec(1),
        Col::new("max err", 12),
        Col::new("avg err", 12).prec(2),
        Col::new("repl. errors", 14),
    ];
    fig.table("", cols);
    for exp in [2u32, 3, 4, 5, 6] {
        let width = 10usize.pow(exp);
        let mut est = DegreeEstimator::new(width, 8);
        for &(u, v) in &edges {
            est.record_edge(u, v);
        }
        let config = LocatorConfig {
            replication_threshold: threshold,
            max_replicas: 16,
        };
        let locator = EdgeLocator::new(ring.clone(), config);
        let resolve = ns_per_key(edges.len(), || {
            edges.iter().fold(0, |s, &(u, v)| {
                s ^ locator.owner_of_edge(u, v, est.degree(u)).unwrap_or(0)
            })
        });
        let (mut max_err, mut sum_err, mut repl_errors) = (0u64, 0u64, 0u64);
        for (&v, &deg) in &truth {
            let e = est.degree(v);
            let err = e - deg; // count-min never under-estimates
            max_err = max_err.max(err);
            sum_err += err;
            if locator.replication_factor(e) != locator.replication_factor(deg) {
                repl_errors += 1;
            }
        }
        row!(fig; width, resolve, max_err, sum_err as f64 / truth.len() as f64, repl_errors);
    }
    fig.note("(max error below the threshold line ⇒ the sketch causes no replication error)");
}

/// Ablation — vertex replication off (threshold ∞) vs on (256) on a
/// hub-heavy graph: per-agent edge balance and PageRank time (§3.4.1).
pub(crate) fn ablation_replication(fig: &mut Figure) {
    // A star core plus a power-law periphery.
    let n = 4000u64;
    let mut edges = power_law(n, 20_000, 1.8, 3);
    edges.extend((1..1500u64).map(|i| (0, i % n)));
    let mut est = DegreeEstimator::new(1 << 12, 8);
    for &(u, v) in &edges {
        est.record_edge(u, v);
    }
    let configs = [
        ("replication off", u64::MAX),
        ("replication on (t=256)", 256),
    ];

    let cols = vec![
        Col::new("configuration", 24).left(),
        Col::new("max", 7),
        Col::new("mean", 9).prec(1),
        Col::new("imbalance", 10).prec(3).suffix("x"),
    ];
    fig.table("(a) per-agent edge counts over 16 agents", cols);
    for (label, threshold) in configs {
        let config = LocatorConfig {
            replication_threshold: threshold,
            max_replicas: 16,
        };
        let loc = EdgeLocator::new(Ring::from_agents(HashKind::Wang, 100, 0..16), config);
        let mut counts = vec![0u64; 16];
        for &(u, v) in &edges {
            if let Some(owner) = loc.owner_of_edge(u, v, est.degree(u)) {
                counts[owner as usize] += 1;
            }
        }
        let lb = load_balance(&counts);
        row!(fig; label, lb.max, lb.mean, lb.imbalance);
    }

    let cols = vec![
        Col::new("configuration", 24).left(),
        Col::ms("per-iteration"),
    ];
    fig.table("(b) PageRank per-iteration on the live system", cols);
    for (label, threshold) in configs {
        let cfg = SystemConfig {
            replication_threshold: threshold,
            ..SystemConfig::default()
        };
        row!(fig; label, Cell::ms(pagerank_iteration(8, &cfg, &edges, 4)));
    }
}
