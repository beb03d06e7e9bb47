//! Set-up, the change-to-visible cycle, and the timed window.
//!
//! The cycle is a closed loop with one batch in flight: `t0` →
//! `ingest_async(batch)` → `quiesce()` → `run_with(program)` → poll
//! `query_batch(probe)` until every answer carries the completed run's
//! tag → `t1`. The batch's last change is created at `t0`, so
//! `c2v = t1 - t0` holds no queue wait by construction.

use crate::host::{self, ms, now};
use crate::inputs::{Inputs, Prog};
use crate::spans::{Spans, NONE};
use elga::core::cluster::RunStats;
use elga::core::metrics::ClusterMetrics;
use elga::core::program::RunOptions;
use elga::net::NetError;
use elga::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// A probe that is not fresh this long after its run returned failed.
const FRESH_DEADLINE_MS: f64 = 1000.0;
/// In-line 16-vertex reads after each probe (workloads without the
/// paced client): the idle-cluster service time of a read.
pub const INLINE_READS: usize = 8;
/// The paced client's period: 200 requests per second.
const CLIENT_PERIOD_NS: u64 = 5_000_000;

/// The system under test: 2 agents, 1 directory, 1 worker per agent,
/// everything else at `SystemConfig::default()` — owner cache,
/// coalescing and the retained change log included. Agent threads are
/// pinned one per core (`host::pin_agents`).
///
/// One departure: the two R-MAT workloads run with replication off
/// (`max_replicas = 1`). The count-min sketch only grows, so under
/// their insert/delete churn hub estimates keep crossing the
/// replication threshold, and each re-placement races with the changes
/// in flight: agents end a cycle holding edges that were deleted, and
/// the final check fails when such an edge is still there at the end
/// (`live_rmat --seed 6` with the default failed 2 runs in 5). A
/// benchmark workload must not fail, so the library bug is written up
/// in README.md ("Findings") instead of being measured. On the other
/// two workloads no estimate comes near the threshold, and the setting
/// stays at its default.
fn config(inp: &Inputs, tracing: bool, ckpt_dir: Option<PathBuf>) -> SystemConfig {
    let defaults = SystemConfig::default();
    let churns_hubs = matches!(inp.name, "bulk_rmat" | "live_rmat");
    SystemConfig {
        workers: 1,
        directories: 1,
        tracing,
        checkpoint_dir: ckpt_dir,
        max_replicas: if churns_hubs {
            1
        } else {
            defaults.max_replicas
        },
        ..defaults
    }
}

fn run_program(cluster: &mut Cluster, inp: &Inputs, reuse: bool) -> Result<RunStats, NetError> {
    let opts = RunOptions {
        reuse_state: reuse && inp.prog != Prog::PageRankFull,
        mode: ExecutionMode::Sync,
    };
    match inp.prog {
        Prog::Wcc => cluster.run_with(Wcc::new(), opts),
        _ => cluster.run_with(inp.pagerank(), opts),
    }
}

/// One complete set-up: build the cluster, ingest `edges`, run the
/// program from scratch to convergence, connect a client.
pub fn set_up(
    inp: &Inputs,
    edges: &[(u64, u64)],
    tracing: bool,
    ckpt_dir: Option<PathBuf>,
) -> Result<(Cluster, QueryClient), NetError> {
    let cfg = config(inp, tracing, ckpt_dir);
    let mut cluster = Cluster::builder().agents(2).config(cfg.clone()).build();
    host::pin_agents();
    cluster.ingest(edges.iter().map(|&(u, v)| EdgeChange::insert(u, v)));
    run_program(&mut cluster, inp, false)?;
    let client = QueryClient::connect(cluster.transport(), cfg, cluster.lead_directory())?;
    Ok((cluster, client))
}

/// Per-cycle samples of the timed window.
#[derive(Default)]
pub struct Samples {
    pub c2v_ms: Vec<f64>,
    /// `ingest_async` + `quiesce`.
    pub ingest_ms: Vec<f64>,
    /// In-line read round trips (workloads without the paced client).
    pub read_ms: Vec<f64>,
    /// The host's slowdown during each cycle (`host::slowdown`): a
    /// cycle's durations over its slowdown are what the end-to-end
    /// metrics take their medians of.
    pub slowdown: Vec<f64>,
    /// CPU time of the process during each cycle, its reads included.
    pub cpu_ms: Vec<f64>,
    pub flip_polls: Vec<f64>,
    pub steps: Vec<f64>,
    pub step0_ms: Vec<f64>,
    /// Every superstep after the first, pooled over runs.
    pub step_ms: Vec<f64>,
    /// `(run id, time run_with returned)`.
    pub run_returned: Vec<(u64, u64)>,
}

/// What the paced client thread saw.
#[derive(Default)]
pub struct ClientOut {
    /// `(due, sent, done)` per request, on the benchmark clock.
    pub requests: Vec<(u64, u64, u64)>,
    /// First delivery time of a subscription push per run id.
    pub pushes: Vec<(u64, u64)>,
    pub failed: u64,
}

/// The timed window's raw results for one cluster.
pub struct Window {
    pub samples: Samples,
    pub from: u64,
    pub to: u64,
    /// Scrapes bracketing the window.
    pub m0: ClusterMetrics,
    pub m1: ClusterMetrics,
    pub runq_wait_share: f64,
    /// Share of the guest's busy time the hypervisor gave to others.
    pub steal_share: f64,
    /// `VmHWM` after warm-up plus exactly `min_timed` timed cycles — a
    /// fixed amount of work, so a faster build that fits more cycles
    /// into the window is not charged for them (the retained change
    /// log grows with every batch, and `elastic_wcc` grows ~0.4 MiB a
    /// cycle).
    pub peak_rss_mib: f64,
    /// The scrape after the first `det_cycles` timed cycles: with `m0`,
    /// counters over a fixed amount of work, so identical runs can be
    /// compared.
    pub det: Option<ClusterMetrics>,
    pub client: Option<ClientOut>,
}

impl Window {
    /// The paced client's `(due, sent, done)` requests that were due
    /// inside the timed window.
    pub fn requests(&self) -> impl Iterator<Item = &(u64, u64, u64)> {
        self.client
            .iter()
            .flat_map(|c| &c.requests)
            .filter(|(due, _, _)| (self.from..self.to).contains(due))
    }
}

pub struct Bench<'a> {
    pub inp: &'a Inputs,
    pub cluster: Cluster,
    pub client: QueryClient,
    pub spans: Spans,
    /// Cycles executed, warm-up included.
    pub cycles: usize,
    pub ops: u64,
    pub failed: u64,
}

impl<'a> Bench<'a> {
    pub fn new(inp: &'a Inputs, cluster: Cluster, client: QueryClient, trace: bool) -> Self {
        Bench {
            inp,
            cluster,
            client,
            spans: Spans::new(trace),
            cycles: 0,
            ops: 0,
            failed: 0,
        }
    }

    /// `Cluster::metrics()`, as a span of the metrics layer.
    pub fn scrape(&mut self) -> ClusterMetrics {
        let t0 = now();
        let m = self.cluster.metrics();
        self.spans
            .push("core.metrics.scrape", 0, t0, now(), NONE, NONE);
        m
    }

    /// One view change (join or leave) followed by `quiesce`.
    fn view_change(&mut self, name: &'static str, parent: u32, cycle: u32, join: bool) {
        let t0 = now();
        if join {
            self.cluster.add_agents(1);
            host::pin_agents();
        } else {
            self.cluster.remove_agents(1);
        }
        let ok = self.cluster.quiesce().is_ok();
        self.spans.push(name, 0, t0, now(), parent, cycle);
        self.ops += 1;
        self.failed += u64::from(!ok);
    }

    /// One change-to-visible cycle. Samples are kept when `s` is given
    /// (the timed window) and dropped during warm-up.
    fn cycle(&mut self, s: Option<&mut Samples>) {
        let inp = self.inp;
        let k = self.cycles;
        let cy = k as u32;
        let batch = &inp.batches[k % inp.batches.len()];
        let mut ok = true;

        let cpu0 = host::cpu_ms();
        let t0 = now();
        let root = self.spans.push("cycle", 0, t0, t0, NONE, cy);
        self.cluster.ingest_async(batch);
        let t1 = now();
        ok &= self.cluster.quiesce().is_ok();
        let t2 = now();
        self.spans.push("core.streamer.send", 0, t0, t1, root, cy);
        self.spans.push("core.cluster.quiesce", 0, t1, t2, root, cy);
        if inp.elastic {
            self.view_change("core.agent.migrate.add", root, cy, true);
        }
        let r0 = now();
        let stats = run_program(&mut self.cluster, inp, true);
        let r1 = now();
        self.spans.push("core.cluster.run", 0, r0, r1, root, cy);
        if inp.elastic {
            self.view_change("core.agent.migrate.remove", root, cy, false);
            // A real reader must follow the view too.
            ok &= self.client.refresh().is_ok();
        }
        let run_id = stats.as_ref().map_or(u64::MAX, |st| st.run_id);
        ok &= stats.is_ok();

        // Visible: every probe vertex answered from the completed run.
        let f0 = now();
        let mut polls = 0u32;
        let fresh = loop {
            let q0 = now();
            let answers = self.client.query_batch(&inp.probe);
            let q1 = now();
            polls += 1;
            self.spans.push("query.batch", 0, q0, q1, root, cy);
            if answers.iter().all(|a| a.is_some_and(|a| a.run >= run_id)) {
                break true;
            }
            if ms(f0, q1) > FRESH_DEADLINE_MS {
                break false;
            }
        };
        let t4 = now();
        self.spans.push("query.flip_wait", 0, f0, t4, root, cy);
        self.spans.set_end(root, t4);
        ok &= fresh;
        self.cycles += 1;
        self.ops += 1;
        self.failed += u64::from(!ok);

        let mut reads = Vec::new();
        if !inp.live_client {
            for i in 0..INLINE_READS {
                let asked = &inp.reads[(k * INLINE_READS + i) % inp.reads.len()];
                let q0 = now();
                let answers = self.client.query_batch(asked);
                let q1 = now();
                self.spans.push("query.batch", 0, q0, q1, NONE, cy);
                self.ops += 1;
                self.failed += u64::from(answers.iter().any(Option::is_none));
                reads.push(ms(q0, q1));
            }
        }

        let Some(s) = s else { return };
        s.c2v_ms.push(ms(t0, t4));
        s.ingest_ms.push(ms(t0, t2));
        s.read_ms.extend(reads);
        s.slowdown.push(host::slowdown(t0, now()));
        s.cpu_ms.push(host::cpu_ms() - cpu0);
        s.flip_polls.push(f64::from(polls));
        if let Ok(st) = stats {
            s.run_returned.push((st.run_id, r1));
            s.steps.push(f64::from(st.steps));
            let mut d = st.step_durations.iter().map(|d| d.as_secs_f64() * 1e3);
            s.step0_ms.extend(d.next());
            s.step_ms.extend(d);
        }
    }
}

/// Warm up for a tenth of `min_timed` cycles, then time cycles for
/// `seconds` (longer if that is what `min_timed` samples take).
///
/// The end-to-end runs pass one cluster. The traced run passes two, an
/// untraced and a traced one set up from the same inputs, and the
/// window takes turns between them cycle by cycle: both see the same
/// host from one moment to the next, so the difference between their
/// medians is the tracing overhead and not the host's drift. A paced
/// client reads from its cluster only during that cluster's cycles.
pub fn run_window(
    lanes: &mut [&mut Bench],
    seconds: f64,
    min_timed: usize,
    det_cycles: usize,
) -> Vec<Window> {
    let inp = lanes[0].inp;
    let stop = AtomicBool::new(false);
    let turn = AtomicUsize::new(0);
    let readers: Vec<Option<QueryClient>> = lanes
        .iter()
        .map(|b| {
            inp.live_client.then(|| {
                QueryClient::connect(
                    b.cluster.transport(),
                    b.cluster.config().clone(),
                    b.cluster.lead_directory(),
                )
                .expect("paced client connects")
            })
        })
        .collect();
    std::thread::scope(|scope| {
        let (stop, turn) = (&stop, &turn);
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(lane, qc)| {
                qc.map(|qc| scope.spawn(move || client_loop(qc, inp, stop, turn, lane)))
            })
            .collect();
        let round = |lanes: &mut [&mut Bench], samples: Option<&mut Vec<Samples>>| {
            let mut samples = samples;
            for (lane, b) in lanes.iter_mut().enumerate() {
                turn.store(lane, Ordering::Relaxed);
                b.cycle(samples.as_mut().map(|s| &mut s[lane]));
            }
        };

        for _ in 0..(min_timed / 10).max(2) {
            if lanes[0].cycles < inp.max_cycles() {
                round(lanes, None);
            }
        }

        let mut samples: Vec<Samples> = lanes.iter().map(|_| Samples::default()).collect();
        let mut det: Vec<Option<ClusterMetrics>> = lanes.iter().map(|_| None).collect();
        let mut peak_rss_mib = None;
        let m0: Vec<ClusterMetrics> = lanes.iter_mut().map(|b| b.scrape()).collect();
        let sched0 = host::sched_snapshot();
        let ticks0 = host::cpu_ticks();
        let from = now();
        loop {
            let timed = samples[0].c2v_ms.len();
            let elapsed = ms(from, now()) / 1e3;
            let enough = elapsed >= seconds && timed >= min_timed;
            if enough || elapsed >= 4.0 * seconds || lanes[0].cycles >= inp.max_cycles() {
                break;
            }
            round(lanes, Some(&mut samples));
            if timed + 1 == det_cycles {
                det = lanes.iter_mut().map(|b| Some(b.scrape())).collect();
            }
            if timed + 1 == min_timed {
                peak_rss_mib = Some(host::peak_rss_mib());
            }
        }
        let to = now();
        let runq_wait_share = host::runq_wait_share(&sched0, &host::sched_snapshot());
        let ticks1 = host::cpu_ticks();
        let steal_share = host::steal_share(ticks0, ticks1);
        let m1: Vec<ClusterMetrics> = lanes.iter_mut().map(|b| b.scrape()).collect();

        stop.store(true, Ordering::Relaxed);
        let clients: Vec<Option<ClientOut>> = handles
            .into_iter()
            .map(|h| h.map(|h| h.join().expect("paced client thread")))
            .collect();

        let mut scrapes = m0.into_iter().zip(m1);
        let mut rest = det.into_iter().zip(clients);
        let mut windows = Vec::new();
        for (b, samples) in lanes.iter_mut().zip(samples) {
            let (m0, m1) = scrapes.next().expect("two scrapes per lane");
            let (det, client) = rest.next().expect("one client slot per lane");
            if let Some(c) = &client {
                b.ops += c.requests.len() as u64;
                b.failed += c.failed;
                for &(_, sent, done) in &c.requests {
                    b.spans.push("query.batch", 1, sent, done, NONE, NONE);
                }
            }
            windows.push(Window {
                samples,
                from,
                to,
                m0,
                m1,
                runq_wait_share,
                steal_share,
                peak_rss_mib: peak_rss_mib.unwrap_or_else(host::peak_rss_mib),
                det,
                client,
            });
        }
        windows
    })
}

/// The paced client: an open loop of 16-vertex reads every 5 ms, each
/// timed from when it was due, holding 8 standing subscriptions. It
/// reads only during its own lane's cycles.
fn client_loop(
    mut qc: QueryClient,
    inp: &Inputs,
    stop: &AtomicBool,
    turn: &AtomicUsize,
    lane: usize,
) -> ClientOut {
    let mut out = ClientOut::default();
    for watched in &inp.subs {
        out.failed += u64::from(qc.subscribe(watched).is_err());
    }
    let start = now();
    let mut seen_run = 0u64;
    for i in 0u64.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let due = start + i * CLIENT_PERIOD_NS;
        let t = now();
        if t < due {
            std::thread::sleep(Duration::from_nanos(due - t));
        }
        if turn.load(Ordering::Relaxed) == lane {
            let sent = now();
            let answers = qc.query_batch(&inp.reads[i as usize % inp.reads.len()]);
            let done = now();
            out.requests.push((due, sent, done));
            out.failed += u64::from(answers.iter().any(Option::is_none));
        }
        for u in qc.poll_updates(Duration::ZERO) {
            if u.run > seen_run {
                seen_run = u.run;
                out.pushes.push((u.run, now()));
            }
        }
    }
    out
}

/// Median lag from `run_with` returning to the subscription push of
/// that run reaching the client (negative when the push won the race).
pub fn sub_push_lag_ms(w: &Window) -> Vec<f64> {
    let Some(c) = &w.client else {
        return Vec::new();
    };
    let pushed: HashMap<u64, u64> = c.pushes.iter().copied().collect();
    w.samples
        .run_returned
        .iter()
        .filter_map(|(run, returned)| {
            let at = *pushed.get(run)?;
            Some((at as f64 - *returned as f64) / 1e6)
        })
        .collect()
}

/// Growth of one cumulative counter between two scrapes.
pub fn grew(a: &ClusterMetrics, b: &ClusterMetrics, f: fn(&ClusterMetrics) -> u64) -> u64 {
    f(b).saturating_sub(f(a))
}
