//! Output verification after the timed window: the states the
//! benchmarked cluster holds must equal what a from-scratch computation
//! on the final edge set gives.

use crate::harness::{set_up, Bench};
use crate::inputs::Prog;
use std::collections::HashMap;

/// Check the cluster's final states; `Err` names the first mismatch.
///
/// * PageRank workloads: a fresh cluster ingests the final edge set
///   and runs the same program from scratch. The 5-step full PageRank
///   may differ only by floating-point summation order. Delta PageRank
///   parks residuals below the tolerance `t`, so both sides sit within
///   `n·t / (1 − d)` of the fixpoint in L1 (the agreement rule of
///   `tests/incremental.rs`); the check allows twice that in total and,
///   per vertex, `100·t` plus 1 % of the rank — far below one mis-routed
///   share of `rank / degree`.
/// * `elastic_wcc`: bit-exact against `elga::graph::reference::wcc`.
pub fn final_states(b: &Bench) -> Result<(), String> {
    let inp = b.inp;
    let edges = inp.final_edges(b.cycles);
    let got = b.cluster.dump_states();
    let want: HashMap<u64, u64> = match inp.prog {
        Prog::Wcc => elga::graph::reference::wcc(edges.iter().copied())
            .into_iter()
            .collect(),
        _ => {
            let (fresh, _client) =
                set_up(inp, &edges, false, None).map_err(|e| format!("reference run: {e}"))?;
            let states = fresh.dump_states();
            fresh.shutdown();
            states
        }
    };
    if got.len() != want.len() {
        return Err(format!(
            "vertex sets differ: {} held, {} expected",
            got.len(),
            want.len()
        ));
    }
    let (per_vertex, relative, total) = match inp.prog {
        Prog::Wcc => (0.0, 0.0, 0.0),
        Prog::PageRankFull => (1e-9, 0.0, 1e-6),
        Prog::PageRankDelta => {
            let t = inp.tolerance();
            (100.0 * t, 0.01, 2.0 * inp.n_vertices as f64 * t / 0.15)
        }
    };
    let mut l1 = 0.0;
    for (v, &w) in &want {
        let Some(&g) = got.get(v) else {
            return Err(format!("vertex {v} missing from the cluster's states"));
        };
        if inp.prog == Prog::Wcc {
            if g != w {
                return Err(format!("wcc label of {v}: held {g}, expected {w}"));
            }
            continue;
        }
        let (g, w) = (f64::from_bits(g), f64::from_bits(w));
        let diff = (g - w).abs();
        if diff.is_nan() || diff > per_vertex + relative * w {
            return Err(format!("rank of {v}: held {g:e}, expected {w:e}"));
        }
        l1 += diff;
    }
    if l1 > total {
        return Err(format!("ranks differ by {l1:e} in L1, allowed {total:e}"));
    }
    Ok(())
}
