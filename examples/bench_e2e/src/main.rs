//! `bench_e2e`: the repository's change-to-visible benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path examples/bench_e2e/Cargo.toml -- \
//!     --workload <bulk_rmat|trickle_ring|live_rmat|elastic_wcc|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--aa N]
//! ```
//!
//! One workload runs per process. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`); the line before it describes the run. See README.md
//! in this directory for every definition.

mod harness;
mod host;
mod inputs;
mod multi;
mod probes;
mod schema;
mod spans;
mod verify;

use elga::core::metrics::{ClusterMetrics, PacketStat};
use harness::{grew, run_window, set_up, sub_push_lag_ms, Bench, Window, INLINE_READS};
use host::{floor, median, ms, now, quantile};
use inputs::Inputs;
use schema::{json_str, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub aa: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_e2e --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--aa N]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
        aa: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--aa" => args.aa = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v.to_string())),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() {
        args.seconds = if args.smoke {
            0.8
        } else {
            f64::from(RUN_SECONDS)
        };
    }
    let known = WORKLOADS.contains(&args.workload.as_str()) || args.workload == "all";
    if !known {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    host::cap_malloc_arenas();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return usage();
        }
    };
    let outcome = if args.aa > 0 {
        multi::aa(&args)
    } else if args.workload == "all" {
        multi::all(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run-size knobs that `--smoke` shrinks.
struct Plan {
    /// Timed cycles a window must reach even if that takes longer than
    /// `--seconds` (no end-to-end timing rests on fewer samples).
    min_timed: usize,
    /// Cycles the determinism counters cover.
    det_cycles: usize,
    set_ups: usize,
    probe_ms: f64,
    ckpt_repeats: usize,
}

fn plan(inp: &Inputs, smoke: bool) -> Plan {
    if smoke {
        return Plan {
            min_timed: 3,
            det_cycles: 3,
            set_ups: 1,
            probe_ms: 10.0,
            ckpt_repeats: 2,
        };
    }
    Plan {
        min_timed: if inp.elastic { 50 } else { 100 },
        det_cycles: 20,
        set_ups: 15,
        probe_ms: 200.0,
        ckpt_repeats: 5,
    }
}

/// Directory of the running executable: inside the cargo target
/// directory, so files written there stay out of the source tree.
fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// One complete set-up, timed: `(seconds, the host's slowdown)`.
fn timed_set_up<'a>(
    inp: &'a Inputs,
    base: &[inputs::EdgePair],
) -> Result<(Bench<'a>, (f64, f64)), String> {
    let t0 = now();
    let (cluster, client) = set_up(inp, base, false, None).map_err(|e| format!("set-up: {e}"))?;
    let t1 = now();
    let timing = (ms(t0, t1) / 1e3, host::slowdown(t0, t1));
    Ok((Bench::new(inp, cluster, client, false), timing))
}

/// Run one workload in this process and print its two output lines.
/// `Ok(false)` when an operation or the final check failed.
fn run_one(args: &Args) -> Result<bool, String> {
    host::speedometer_start();
    let outcome = measure(args);
    host::speedometer_stop();
    outcome
}

fn measure(args: &Args) -> Result<bool, String> {
    let inp = inputs::generate(&args.workload, args.seed, args.smoke).ok_or("unknown workload")?;
    let plan = plan(&inp, args.smoke);
    let base = inp.base();
    let mut setup_s = Vec::new();

    let (mut bench, window, traced, extra) = if !args.trace {
        let (mut b, first) = timed_set_up(&inp, &base)?;
        setup_s.push(first);
        let mut ws = run_window(&mut [&mut b], args.seconds, plan.min_timed, plan.det_cycles);
        let w = ws.pop().expect("a window per cluster");
        (b, w, None, String::new())
    } else {
        // Tracing is a cluster setting, so the traced run has two
        // clusters set up from the same inputs, one untraced and one
        // traced, and one window that takes turns between them.
        let (mut plain, _) = timed_set_up(&inp, &base)?;
        let ckpt_dir = exe_dir().join(format!("bench_e2e_ckpt_{}", std::process::id()));
        let (cluster, client) = set_up(&inp, &base, true, Some(ckpt_dir.clone()))
            .map_err(|e| format!("set-up: {e}"))?;
        let mut b = Bench::new(&inp, cluster, client, true);
        let mut ws = run_window(
            &mut [&mut plain, &mut b],
            args.seconds,
            plan.min_timed / 2,
            0,
        );
        let w = ws.pop().expect("a window per cluster");
        let untraced = ws.pop().expect("a window per cluster");
        b.ops += plain.ops;
        b.failed += plain.failed;
        plain.cluster.shutdown();
        let probe_rows = probes::run_all(&mut b, plan.probe_ms, plan.ckpt_repeats);
        let _ = std::fs::remove_dir_all(&ckpt_dir);

        let (c0, c1) = (median(&untraced.samples.c2v_ms), median(&w.samples.c2v_ms));
        let rows = ledger(&b, &w, &probe_rows, (c1 - c0) / c0 * 100.0);
        let path = exe_dir().join(format!("bench_e2e_trace_{}.json", inp.name));
        let cluster_json = b.cluster.chrome_trace();
        std::fs::write(&path, b.spans.chrome_trace(Some(&cluster_json)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let extra = format!(
            ", \"trace_file\": {}, \"spans\": {}, \"untraced_c2v_ms_p50\": {c0}",
            json_str(&path.display().to_string()),
            b.spans.len(),
        );
        (b, w, Some(rows), extra)
    };

    let verdict = verify::final_states(&bench);
    bench.ops += 1;
    if let Err(e) = &verdict {
        bench.failed += 1;
        eprintln!("bench_e2e: {}: final check failed: {e}", inp.name);
    }
    let timed = window.samples.c2v_ms.len();
    if timed < plan.min_timed && !args.trace {
        eprintln!(
            "bench_e2e: {}: only {timed} timed cycles (wanted {})",
            inp.name, plan.min_timed
        );
    }

    let info = info_line(args, &plan, &bench, &window, &extra);
    let (ops, failed) = (bench.ops, bench.failed);
    bench.cluster.shutdown();

    let (metrics, raw) = match traced {
        Some(rows) => (rows, String::new()),
        None => {
            // The first set-up was the one used. The others are timed
            // here, after the window and its cluster are gone, so that
            // `peak_rss_mb` is the peak of one cluster doing a fixed
            // amount of work and not of torn-down predecessors.
            for _ in 1..plan.set_ups {
                let (again, timing) = timed_set_up(&inp, &base)?;
                again.cluster.shutdown();
                setup_s.push(timing);
            }
            let as_run: Vec<f64> = setup_s.iter().map(|&(s, _)| s).collect();
            let at_ref: Vec<f64> = setup_s.iter().map(|&(s, slow)| s / slow).collect();
            let raw = raw_line(&inp, &window, median(&as_run));
            (end_to_end(&inp, &window, median(&at_ref)), raw)
        }
    };
    println!("{info}{raw}}}}}");
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        rows.join(", ")
    );
    Ok(failed == 0)
}

type Metric = (&'static str, &'static str, f64);

/// The first five end-to-end values from per-cycle durations and
/// per-read durations, in `END_TO_END` order: medians of the timings,
/// and all the process's CPU over the timed cycles (reads, the paced
/// client and background threads included) per thousand changes.
fn end_to_end_values(
    inp: &Inputs,
    w: &Window,
    c2v: &[f64],
    ingest: &[f64],
    read: &[f64],
    cpu: &[f64],
) -> [f64; 5] {
    let batch = inp.batch_len() as f64;
    [
        median(c2v),
        batch / (median(ingest) / 1e3),
        median(read),
        cpu.iter().sum::<f64>() / (c2v.len() as f64 * batch / 1e3),
        w.peak_rss_mib,
    ]
}

/// Read round trips as `(ms, slowdown)`: the paced client's, each
/// timed from when it was due (open loop), or the in-line reads, which
/// share their cycle's slowdown.
fn read_timings(w: &Window) -> Vec<(f64, f64)> {
    let s = &w.samples;
    match &w.client {
        Some(_) => w
            .requests()
            .map(|&(due, _, done)| (ms(due, done), host::slowdown(due, done)))
            .collect(),
        None => s
            .read_ms
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, s.slowdown[i / INLINE_READS]))
            .collect(),
    }
}

/// The six end-to-end metrics, in `END_TO_END` order. Every duration
/// (a cycle's, a read's, a set-up's, a cycle's CPU time) is first
/// divided by the host's slowdown while it ran, which states it at the
/// reference host's speed (`host::Speedometer`); the medians and the
/// CPU sum are taken over those.
fn end_to_end(inp: &Inputs, w: &Window, setup_s: f64) -> Vec<Metric> {
    let s = &w.samples;
    let at_ref =
        |xs: &[f64]| -> Vec<f64> { xs.iter().zip(&s.slowdown).map(|(x, f)| x / f).collect() };
    let reads: Vec<f64> = read_timings(w).iter().map(|&(r, f)| r / f).collect();
    let values = end_to_end_values(
        inp,
        w,
        &at_ref(&s.c2v_ms),
        &at_ref(&s.ingest_ms),
        &reads,
        &at_ref(&s.cpu_ms),
    );
    END_TO_END
        .iter()
        .zip(values.into_iter().chain([setup_s]))
        .map(|(m, v)| (m.name, m.unit, v))
        .collect()
}

/// The same six as the clock read them, before any division, for the
/// info line (`"raw": {...}`).
fn raw_line(inp: &Inputs, w: &Window, setup_s: f64) -> String {
    let s = &w.samples;
    let reads: Vec<f64> = read_timings(w).iter().map(|&(r, _)| r).collect();
    let values = end_to_end_values(inp, w, &s.c2v_ms, &s.ingest_ms, &reads, &s.cpu_ms);
    let rows: Vec<String> = END_TO_END
        .iter()
        .zip(values.into_iter().chain([setup_s]))
        .map(|(m, v)| format!("{}: {v}", json_str(m.name)))
        .collect();
    format!(", \"raw\": {{{}}}", rows.join(", "))
}

/// The per-layer ledger, in `PER_LAYER` order: span durations of the
/// timed window, counter growth between its two scrapes, the probes.
fn ledger(b: &Bench, w: &Window, probe_rows: &probes::Rows, overhead_pct: f64) -> Vec<Metric> {
    let s = &w.samples;
    let span = |name: &str| b.spans.durations_ms(name, w.from, w.to);
    let g = |f: Counter| grew(&w.m0, &w.m1, f) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let changes = (s.c2v_ms.len() * b.inp.batch_len()) as f64;
    let runs = s.steps.len() as f64;
    let cycles = span("cycle");
    let (adds, removes) = (
        span("core.agent.migrate.add"),
        span("core.agent.migrate.remove"),
    );
    let view_changes = (adds.len() + removes.len()) as f64;
    let flushes = g(|m| {
        m.comms.size_flushes
            + m.comms.count_flushes
            + m.comms.explicit_flushes
            + m.comms.switch_flushes
    });
    // Received side: the streamer's frames are counted by no agent's
    // send counters.
    let record_frames = g(|m| {
        m.comms.edge_changes.frames_recv + m.comms.vmsg.frames_recv + m.comms.partial.frames_recv
    });
    let frames = g(|m| data_plane(m).iter().map(|p| p.frames_recv).sum());
    let bytes = g(|m| data_plane(m).iter().map(|p| p.bytes_recv).sum());
    let reads = span("query.batch");
    let late_ms: Vec<f64> = w.requests().map(|&(due, sent, _)| ms(due, sent)).collect();
    let scrapes = b.spans.durations_ms("core.metrics.scrape", 0, u64::MAX);

    let mut rows: probes::Rows = vec![
        (
            "core.streamer.send_ms_p50",
            median(&span("core.streamer.send")),
        ),
        (
            "core.cluster.quiesce_ms_p50",
            median(&span("core.cluster.quiesce")),
        ),
        ("core.cluster.run_ms_p50", median(&span("core.cluster.run"))),
        ("core.cluster.c2v_ms_floor", floor(&cycles)),
        ("core.cluster.c2v_ms_p50", median(&cycles)),
        ("core.cluster.c2v_ms_p95", quantile(&cycles, 0.95)),
        ("core.cluster.c2v_ms_max", quantile(&cycles, 1.0)),
        ("core.directory.step0_ms_p50", median(&s.step0_ms)),
        ("core.agent.superstep.steps_per_run_p50", median(&s.steps)),
        ("core.agent.superstep.step_ms_p50", median(&s.step_ms)),
        (
            "core.agent.superstep.scatter_ms_per_run",
            ratio(g(|m| m.scatter_nanos) / 1e6, runs),
        ),
        (
            "core.agent.superstep.combine_ms_per_run",
            ratio(g(|m| m.combine_nanos) / 1e6, runs),
        ),
        (
            "core.agent.superstep.apply_ms_per_run",
            ratio(g(|m| m.apply_nanos) / 1e6, runs),
        ),
        (
            "core.agent.superstep.vmsgs_per_change",
            ratio(g(|m| m.vmsgs), changes),
        ),
        ("net.frames_per_kchange", ratio(frames, changes / 1e3)),
        ("net.bytes_per_change", ratio(bytes, changes)),
        (
            "net.records_per_frame",
            ratio(g(|m| m.changes + m.vmsgs), record_frames),
        ),
        (
            "net.switch_flush_share",
            ratio(g(|m| m.comms.switch_flushes), flushes),
        ),
        ("net.backpressure_waits", g(|m| m.comms.backpressure_waits)),
        (
            "net.decode_ms_per_run",
            ratio(g(|m| m.decode_nanos) / 1e6, runs),
        ),
        (
            "hash.owner_cache_hit_rate",
            ratio(
                g(|m| m.owner_cache_hits),
                g(|m| m.owner_cache_hits + m.owner_cache_misses),
            ),
        ),
        ("core.agent.migrate.add_agents_ms_p50", median(&adds)),
        ("core.agent.migrate.remove_agents_ms_p50", median(&removes)),
        // A departed agent's counters leave the aggregate with it, so
        // migration volume is read on the survivors' side: what they
        // sent to the joiner plus what they received from the leaver.
        (
            "core.agent.migrate.frames_per_view_change",
            ratio(
                g(|m| m.comms.migration.frames_sent + m.comms.migration.frames_recv),
                view_changes,
            ),
        ),
        (
            "core.agent.migrate.bytes_per_view_change",
            ratio(
                g(|m| m.comms.migration.bytes_sent + m.comms.migration.bytes_recv),
                view_changes,
            ),
        ),
        ("query.batch_ms_floor", floor(&reads)),
        ("query.batch_ms_p50", median(&reads)),
        ("query.batch_ms_p99", quantile(&reads, 0.99)),
        ("query.flip_wait_ms_p50", median(&span("query.flip_wait"))),
        ("query.flip_polls_p50", median(&s.flip_polls)),
        ("query.sub_push_lag_ms_p50", median(&sub_push_lag_ms(w))),
        ("query.late_ms_p99", quantile(&late_ms, 0.99)),
        ("core.metrics.scrape_ms_p50", median(&scrapes)),
        ("trace.overhead_pct", overhead_pct),
        ("host.nproc", host::nproc() as f64),
        ("host.slowdown_p50", median(&s.slowdown)),
        ("host.runq_wait_share", w.runq_wait_share),
    ];
    rows.extend_from_slice(probe_rows);
    PER_LAYER
        .iter()
        .map(|m| {
            let (_, v) = rows
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("ledger row {} was not computed", m.name));
            (m.name, m.unit, *v)
        })
        .collect()
}

/// Every data-plane packet class an agent counts.
fn data_plane(m: &ClusterMetrics) -> [PacketStat; 6] {
    let c = &m.comms;
    [
        c.vmsg,
        c.partial,
        c.state,
        c.edge_changes,
        c.deg_delta,
        c.migration,
    ]
}

type Counter = fn(&ClusterMetrics) -> u64;

/// Counters that should repeat exactly between identical runs, taken
/// over the first `det_cycles` timed cycles.
const DETERMINISM: [(&str, Counter); 12] = [
    ("changes", |m| m.changes),
    ("vmsgs", |m| m.vmsgs),
    ("edge_changes.frames", |m| m.comms.edge_changes.frames_recv),
    ("edge_changes.bytes", |m| m.comms.edge_changes.bytes_recv),
    ("vmsg.frames", |m| m.comms.vmsg.frames_sent),
    ("vmsg.bytes", |m| m.comms.vmsg.bytes_sent),
    ("partial.frames", |m| m.comms.partial.frames_sent),
    ("state.frames", |m| m.comms.state.frames_sent),
    ("state.bytes", |m| m.comms.state.bytes_sent),
    ("deg_delta.frames", |m| m.comms.deg_delta.frames_sent),
    ("migration.frames", |m| {
        m.comms.migration.frames_sent + m.comms.migration.frames_recv
    }),
    ("migration.bytes", |m| {
        m.comms.migration.bytes_sent + m.comms.migration.bytes_recv
    }),
];

/// The line describing the run: host, inputs, sample sizes, noise
/// sentinels and determinism counters. The caller closes its two
/// objects, after adding what it learns once the cluster is gone.
fn info_line(args: &Args, plan: &Plan, b: &Bench, w: &Window, extra: &str) -> String {
    let inp = b.inp;
    let s = &w.samples;
    let slowdown = median(&s.slowdown);
    // Vertices the final view spreads over more than one agent.
    let view = b.cluster.view();
    let locator = view.locator();
    let endpoints: HashSet<u64> = inp.core.iter().flat_map(|&(u, v)| [u, v]).collect();
    let replicated = endpoints
        .iter()
        .filter(|&&v| locator.replication_factor(view.sketch.estimate(v)) > 1)
        .count();
    let mut det = String::new();
    if let Some(m) = &w.det {
        let k = s.steps.len().min(plan.det_cycles);
        let steps: f64 = s.steps[..k].iter().sum();
        let counters: Vec<String> = DETERMINISM
            .iter()
            .map(|(name, f)| format!("\"{name}\": {}", grew(&w.m0, m, *f)))
            .collect();
        det = format!(
            ", \"determinism\": {{\"cycles\": {k}, \"steps\": {steps}, {}}}",
            counters.join(", ")
        );
    }
    format!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"smoke\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"nproc\": {}, \"agents\": 2, \"directories\": 1, \"workers\": 1, \"input_digest\": \"{:016x}\", \
         \"core_edges\": {}, \"core_vertices\": {}, \"batch_changes\": {}, \"batch_pool\": {}, \
         \"cycles_total\": {}, \"cycles_timed\": {}, \"read_samples\": {}, \"window_s\": {:.3}, \
         \"changes_timed\": {}, \"ops_total\": {}, \"ops_failed\": {}, \"slowdown_p50\": {:.4}, \
         \"slowdown_max\": {:.4}, \"steal_share\": {:.5}, \"noisy_host\": {}, \
         \"runq_wait_share\": {:.4}, \"malloc_arenas\": {}, \"replicated_vertices\": {replicated}, \
         \"c2v_ms_floor\": {:.4}{det}{extra}",
        json_str(inp.name),
        args.seed,
        args.smoke,
        args.trace,
        json_str(&host::git_rev()),
        host::nproc(),
        inp.digest,
        inp.core.len(),
        inp.n_vertices,
        inp.batch_len(),
        inp.batches.len(),
        b.cycles,
        s.c2v_ms.len(),
        w.client.as_ref().map_or(s.read_ms.len(), |c| c.requests.len()),
        ms(w.from, w.to) / 1e3,
        s.c2v_ms.len() * inp.batch_len(),
        b.ops,
        b.failed,
        slowdown,
        quantile(&s.slowdown, 1.0),
        w.steal_share,
        slowdown > 1.10 || w.steal_share > 0.001,
        w.runq_wait_share,
        host::MALLOC_ARENAS,
        floor(&s.c2v_ms),
    )
}
