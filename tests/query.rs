//! The continuous-query serving plane: batched point reads agree with
//! one-vertex reads, standing subscriptions agree with polling,
//! snapshot reads are never torn (across live runs, elastic view
//! changes, and crash recovery), and authoritative negative answers
//! take the fast path — no view refresh burned on a vertex that simply
//! does not exist.

use elga::core::msg::{packet, CkptSave, Message};
use elga::core::program::{ProgramSpec, RunOptions};
use elga::net::FaultPlan;
use elga::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// Deterministic ring-with-chords graph (shared shape with the
/// checkpoint suite): connected, skewed enough to exercise routing.
fn chain_graph(n: u64) -> Vec<(u64, u64)> {
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

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elga-query-it-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn recovery_config() -> SystemConfig {
    SystemConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_misses: 40,
        quiesce_deadline: Duration::from_secs(30),
        run_deadline: Duration::from_secs(60),
        ..SystemConfig::default()
    }
}

fn query_client(cluster: &Cluster) -> QueryClient {
    QueryClient::connect(
        cluster.transport(),
        cluster.config().clone(),
        cluster.lead_directory(),
    )
    .expect("query client connects")
}

/// A batch over present and absent vertices answers exactly like a
/// loop of one-vertex reads (`Cluster::query_u64`) and like the state
/// dump: same hits, same misses, same encoded states — and every hit
/// carries the completed run's tag.
#[test]
fn batched_reads_match_primary_loop() {
    let n = 300u64;
    let mut cluster = Cluster::builder().agents(4).build();
    cluster.ingest_edges(chain_graph(n).iter().copied());
    let stats = cluster
        .run(PageRank::new(0.85).with_max_iters(30))
        .expect("pagerank");

    let client = query_client(&cluster);
    let dump = cluster.dump_states();

    // 0..n exist; n..n+40 were never created.
    let asked: Vec<u64> = (0..n + 40).collect();
    let batched = client.query_batch(&asked);
    assert_eq!(batched.len(), asked.len());

    for (&v, got) in asked.iter().zip(&batched) {
        let one = cluster.query_u64(v);
        assert_eq!(
            one,
            dump.get(&v).copied(),
            "v{v}: a read of one vs the dump"
        );
        match (got, one) {
            (Some(b), Some(state)) => {
                assert_eq!(b.state, state, "v{v}: batch disagrees with a read of one");
                assert_eq!(b.run, stats.run_id, "v{v}: hit tagged a foreign run");
            }
            (None, None) => assert!(v >= n, "v{v} exists but both paths missed it"),
            (b, one) => panic!("v{v}: batch={b:?} one={one:?} disagree on existence"),
        }
    }
    // One snapshot per sweep: every hit shares one (run, watermark).
    let tags: Vec<(u64, u64)> = batched
        .iter()
        .flatten()
        .map(|s| (s.run, s.watermark))
        .collect();
    assert!(
        tags.windows(2).all(|w| w[0] == w[1]),
        "tags differ within a sweep: {tags:?}"
    );

    let m = cluster.metrics();
    assert!(
        m.query_batches >= 4,
        "expected one QUERY_BATCH per agent, got {}",
        m.query_batches
    );
    assert!(
        m.queries >= asked.len() as u64,
        "batch vertices not counted as queries"
    );
    cluster.shutdown();
}

/// A read asks every agent at once: while one agent works off a long
/// queue of checkpoints, a batch over all agents comes back after one
/// request timeout with every other agent's slice answered — the busy
/// agent costs its own slice, once, and nothing else.
#[test]
fn a_busy_agent_costs_a_batch_its_own_slice_only() {
    let n = 6_000u64;
    let dir = ckpt_dir("busy-agent");
    let mut cluster = Cluster::builder().agents(3).checkpoints(&dir).build();
    cluster.ingest_edges(chain_graph(n).iter().copied());
    cluster
        .run(PageRank::new(0.85).with_max_iters(5))
        .expect("pagerank");

    let timeout = Duration::from_millis(150);
    let client = QueryClient::connect(
        cluster.transport(),
        SystemConfig {
            request_timeout: timeout,
            send_policy: elga::net::SendPolicy::one_shot(),
            ..cluster.config().clone()
        },
        cluster.lead_directory(),
    )
    .expect("query client connects");
    let asked: Vec<u64> = (0..600).collect();
    let idle = client.query_batch(&asked);
    assert!(idle.iter().all(Option::is_some), "every agent answers idle");

    // Keep one agent busy for about two seconds: time one checkpoint
    // of its shard, then queue as many behind each other as that takes.
    let view = cluster.view();
    let busy = &view.agents[0];
    let save = CkptSave {
        generation: 1,
        epoch: view.epoch,
        watermark: 0,
    }
    .encode();
    let transport = cluster.transport();
    let t0 = std::time::Instant::now();
    transport
        .request(&busy.addr, save.clone(), Duration::from_secs(30))
        .expect("one checkpoint");
    let one = t0.elapsed().max(Duration::from_micros(50));
    let queued = (Duration::from_secs(2).as_nanos() / one.as_nanos()).max(20) as usize;
    let checkpoints = std::thread::spawn({
        let (transport, addr) = (transport.clone(), busy.addr.clone());
        move || {
            let queue = vec![(&addr, save); queued];
            let saved = transport.request_all(&queue, Duration::from_secs(60));
            assert!(saved.iter().all(Result::is_ok), "every checkpoint answered");
        }
    });
    let stats = transport.net_stats().expect("in-process counters");
    while stats.sent(packet::CKPT_SAVE).0 < 1 + queued as u64 {
        std::thread::yield_now();
    }

    let t0 = std::time::Instant::now();
    let answers = client.query_batch(&asked);
    let took = t0.elapsed();
    let ring = view.locator();
    let (mut behind_the_queue, mut elsewhere) = (0, 0);
    for (&v, (now, before)) in asked.iter().zip(answers.iter().zip(&idle)) {
        if ring.ring().owner(v) == Some(busy.id) {
            assert_eq!(*now, None, "v{v}: the checkpoint queue was too short");
            behind_the_queue += 1;
        } else {
            assert_eq!(now, before, "v{v}: an idle agent's slice went missing");
            elsewhere += 1;
        }
    }
    assert!(behind_the_queue > 0 && elsewhere > 0, "all agents asked");
    assert!(
        took >= timeout && took < 2 * timeout,
        "one timeout for the whole batch, not one per agent: {took:?}"
    );
    checkpoints.join().expect("checkpoint queue");
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Threads of this process whose kernel name is `comm`. A thread
/// spawned without a name keeps its parent's, so from inside a test
/// this counts the test's thread and everything it spawned, however
/// many other tests run beside it.
fn threads_named(comm: &str) -> usize {
    fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name == comm)
        .count()
}

/// A read spawns no thread: 32 clients read at once, in a loop, and
/// the number of threads this test owns never exceeds the 32 it
/// started itself. (With a thread per agent per read it rose by up to
/// three per batch in flight.)
#[test]
fn reads_spawn_no_thread() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(chain_graph(300).iter().copied());
    cluster
        .run(PageRank::new(0.85).with_max_iters(5))
        .expect("pagerank");
    let clients: Vec<QueryClient> = (0..32).map(|_| query_client(&cluster)).collect();
    let asked: Vec<u64> = (0..300).collect();

    let me = fs::read_to_string("/proc/thread-self/comm").expect("procfs");
    assert_eq!(threads_named(&me), 1, "the test thread alone");
    let start = Barrier::new(clients.len() + 1);
    let reading = AtomicUsize::new(clients.len());
    let mut most = 0;
    std::thread::scope(|scope| {
        for client in &clients {
            scope.spawn(|| {
                start.wait();
                for _ in 0..200 {
                    let answers = client.query_batch(&asked);
                    assert!(answers.iter().all(Option::is_some));
                }
                reading.fetch_sub(1, Ordering::SeqCst);
            });
        }
        start.wait();
        while reading.load(Ordering::SeqCst) > 0 {
            most = most.max(threads_named(&me));
        }
    });
    assert!(most > 1, "the watcher saw the readers");
    assert!(
        most <= clients.len() + 1,
        "{most} threads while {} clients read",
        clients.len()
    );
    // A scope returns once its closures have, and their OS threads
    // leave `/proc/self/task` a moment later.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads_named(&me) > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(threads_named(&me), 1, "and none is left behind");
    cluster.shutdown();
}

/// An authoritative "vertex not found" from the primary ends the read
/// at once: no view refresh round trip.
#[test]
fn negative_answer_is_authoritative_and_cheap() {
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(chain_graph(120).iter().copied());
    cluster.run(Degree::new()).expect("degree");

    let client = query_client(&cluster);
    assert!(
        client.query_batch(&[7])[0].is_some(),
        "existing vertex must resolve"
    );

    let stats = cluster
        .transport()
        .net_stats()
        .expect("inproc transport tracks stats");
    let views_before = stats.sent(packet::GET_VIEW).0;
    for absent in [999_983u64, 424_242, 777_216] {
        assert_eq!(client.query_batch(&[absent]), vec![None], "v{absent}");
    }
    let views_after = stats.sent(packet::GET_VIEW).0;
    assert_eq!(
        views_before, views_after,
        "authoritative miss must not burn a view refresh"
    );
    cluster.shutdown();
}

/// In steady state a `Cluster::query_u64` is one QUERY_BATCH request
/// to the vertex's primary and fetches no view. (The driver's reader
/// learns the view the agents joined under from its first read.)
#[test]
fn a_steady_read_is_one_request_and_fetches_no_view() {
    let n = 120u64;
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(chain_graph(n).iter().copied());
    cluster.run(Wcc::new()).expect("wcc");
    assert_eq!(cluster.query_u64(0), Some(0));
    let stats = cluster
        .transport()
        .net_stats()
        .expect("in-process counters");
    let sent = || {
        (
            stats.sent(packet::GET_VIEW).0,
            stats.sent(packet::QUERY_BATCH).0,
        )
    };
    let before = sent();
    for v in 0..n {
        assert_eq!(cluster.query_u64(v), Some(0), "v{v}");
    }
    let (views, reads) = sent();
    assert_eq!(views - before.0, 0, "a steady read fetched the view");
    assert_eq!(reads - before.1, n, "one request per read");
    cluster.shutdown();
}

/// A client keeps the view it connected with while the cluster grows
/// from two agents to four and an incremental WCC relabels a chain.
/// The old owners keep moved-away husks that hold the previous run's
/// snaps under the newest tag; a husk answers a miss, which sends the
/// client to the vertex's new primary. Every answer equals the dump and
/// carries the run's tag.
#[test]
fn a_reader_with_an_old_view_is_never_served_a_husk() {
    let mut cluster = Cluster::builder().agents(2).build();
    let chain = (100..399u64).map(|i| (i, i + 1));
    cluster.ingest_edges(chain.chain([(0, 1)]));
    cluster.run(Wcc::new()).expect("wcc");
    let client = query_client(&cluster);
    cluster.add_agents(2);
    cluster.quiesce().expect("join settles");
    cluster.ingest_edges([(1, 150)]);
    let incremental = RunOptions {
        reuse_state: true,
        ..RunOptions::default()
    };
    let stats = cluster.run_with(Wcc::new(), incremental).expect("wcc");
    let truth = cluster.dump_states();
    let asked: Vec<u64> = (100..400).collect();
    let stale: Vec<(u64, Option<(u64, u64)>)> = asked
        .iter()
        .zip(client.query_batch(&asked))
        .map(|(&v, got)| (v, got.map(|s| (s.state, s.run))))
        .filter(|&(v, got)| got != Some((truth[&v], stats.run_id)))
        .collect();
    assert!(asked.iter().all(|v| truth[v] == 0), "the chain relabelled");
    assert!(stale.is_empty(), "{} stale answers: {stale:?}", stale.len());
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Read-your-run: every read issued right after `wait_run` answers
    /// from the run it returned or a later one, with the dump's value,
    /// though frames straggle, so that an agent's done advance often
    /// waits for records after the lead has answered the wait. After a
    /// join or a leave, then `quiesce`, the driver's reader and a
    /// client, both with the old view, read every vertex's value.
    #[test]
    fn reads_follow_the_last_run_and_outlive_the_view(
        edges in prop::collection::vec((0u64..60, 0u64..60), 1..80),
        agents in 1usize..4,
        join in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let edges: Vec<(u64, u64)> = edges.into_iter().filter(|&(u, v)| u != v).collect();
        let vertices: Vec<u64> = edges
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();
        let straggle = FaultPlan::delays(Duration::ZERO, Duration::from_millis(3));
        let mut cluster = Cluster::builder().agents(agents).chaos(straggle, seed).build();
        cluster.ingest_edges(edges.iter().copied());
        let client = query_client(&cluster);
        // A delta PageRank after a batch ends on a step whose records can
        // still be on their way when the lead answers.
        let pagerank = PageRank::new(0.85).with_max_iters(300).with_tolerance(1e-10);
        let delta = RunOptions { reuse_state: true, ..RunOptions::default() };
        let runs = [
            (ProgramSpec::from(Wcc::new()), RunOptions::default()),
            (pagerank.into(), RunOptions::default()),
            (pagerank.into(), delta),
        ];
        for (spec, options) in runs {
            if options.reuse_state {
                cluster.ingest_edges(edges.iter().map(|&(u, v)| (v, u)).take(3));
            }
            let handle = cluster.start_run(spec, options).expect("start");
            let run = cluster.wait_run(handle).expect("run").run_id;
            let read = cluster.query(&vertices);
            let truth = cluster.dump_states();
            for (v, got) in vertices.iter().zip(read) {
                prop_assert!(got.is_some_and(|s| s.run >= run), "v{}: {:?} after run {}", v, got, run);
                prop_assert_eq!(got.map(|s| s.state), truth.get(v).copied(), "v{}", v);
            }
        }
        if join || agents == 1 {
            cluster.add_agents(1);
        } else {
            cluster.remove_agents(1);
        }
        cluster.quiesce().expect("the view change settles");
        let truth = cluster.dump_states();
        let by_driver = cluster.query(&vertices);
        let by_client = client.query_batch(&vertices);
        for (i, v) in vertices.iter().enumerate() {
            let want = truth.get(v).copied();
            prop_assert_eq!(by_driver[i].map(|s| s.state), want, "driver, v{}", v);
            prop_assert_eq!(by_client[i].map(|s| s.state), want, "client, v{}", v);
        }
        cluster.shutdown();
    }
}

/// Push equals poll: the first completed run pushes every watched
/// vertex, later runs push only changed values, and folding the pushes
/// together reproduces exactly what a fresh batched read returns.
#[test]
fn subscriptions_match_polled_batches() {
    let n = 200u64;
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(chain_graph(n).iter().copied());

    let mut client = query_client(&cluster);
    let mut watched: Vec<u64> = (0..n).step_by(5).collect();
    watched.push(900_000); // never exists; must never be pushed
    let sub = client.subscribe(&watched).expect("subscribe");

    let r1 = cluster
        .run(PageRank::new(0.85).with_max_iters(40))
        .expect("first run");
    cluster.quiesce().expect("quiesce flushes sub pushes");
    let mut merged = client.latest_for(sub, Duration::from_secs(5));
    let polled = client.query_batch(&watched);
    for (&v, p) in watched.iter().zip(&polled) {
        match p {
            Some(snap) => {
                let pushed = merged
                    .get(&v)
                    .unwrap_or_else(|| panic!("v{v}: first run must push every watched vertex"));
                assert_eq!(pushed, snap, "v{v}: push disagrees with poll");
                assert_eq!(pushed.run, r1.run_id);
            }
            None => assert!(!merged.contains_key(&v), "v{v}: pushed but unreadable"),
        }
    }

    // Perturb the graph; the next run pushes only what moved.
    cluster.ingest_edges((0..40u64).map(|i| (i * 3 % n, (i * 17 + 2) % n)));
    let r2 = cluster
        .run(PageRank::new(0.85).with_max_iters(40))
        .expect("second run");
    cluster.quiesce().expect("quiesce flushes sub pushes");
    let second = client.latest_for(sub, Duration::from_secs(5));
    assert!(!second.is_empty(), "perturbed run pushed nothing");
    for (v, snap) in second {
        assert_eq!(snap.run, r2.run_id, "v{v}: stale push run tag");
        merged.insert(v, snap);
    }
    let polled = client.query_batch(&watched);
    for (&v, p) in watched.iter().zip(&polled) {
        match p {
            Some(snap) => assert_eq!(
                merged.get(&v),
                Some(snap),
                "v{v}: folded pushes diverge from a fresh read"
            ),
            None => assert!(!merged.contains_key(&v)),
        }
    }

    let m = cluster.metrics();
    assert!(m.subscriptions >= 1, "subscription not registered");
    assert!(
        m.sub_pushes as usize >= watched.len() - 1,
        "first run must push all watched"
    );

    // Cancelled subscriptions stay silent.
    client.unsubscribe(sub).expect("unsubscribe");
    cluster
        .run(PageRank::new(0.85).with_max_iters(5))
        .expect("third run");
    cluster.quiesce().expect("quiesce");
    assert!(
        client.poll_updates(Duration::from_millis(200)).is_empty(),
        "cancelled subscription still receives pushes"
    );
    cluster.shutdown();
}

/// A delta run's served values all move a little with the sum they are
/// normalized by, so a watched vertex is pushed once its served value
/// moved by more than the program's tolerance since its last push: a
/// batch far from every watched vertex, which moves only the sum,
/// pushes nothing but the vertex it creates, and that vertex once.
#[test]
fn a_push_waits_for_a_served_value_to_move_past_the_tolerance() {
    let n = 200u64;
    let mut cluster = Cluster::builder().agents(3).build();
    cluster.ingest_edges(chain_graph(n).iter().copied());
    let tolerance = 1e-4;
    let pr = PageRank::new(0.85)
        .with_max_iters(300)
        .with_tolerance(tolerance);
    let mut client = query_client(&cluster);
    let (a, b) = (1_000, 1_001);
    let mut watched: Vec<u64> = (0..n).collect();
    watched.push(b);
    let sub = client.subscribe(&watched).expect("subscribe");
    cluster.run(pr).expect("full run");
    cluster.quiesce().expect("quiesce flushes sub pushes");
    let first = client.poll_updates(Duration::from_secs(5));
    assert_eq!(first.len(), n as usize, "the first run pushes every vertex");

    let delta = RunOptions {
        reuse_state: true,
        ..RunOptions::default()
    };
    let before = client.query_batch(&watched[..n as usize]);
    cluster.ingest_edges([(a, b)]);
    cluster.run_with(pr, delta).expect("a far batch");
    cluster.quiesce().expect("quiesce flushes sub pushes");
    let after = client.query_batch(&watched[..n as usize]);
    let moved = before.iter().zip(&after).filter(|(x, y)| x != y).count();
    assert!(moved > 0, "the sum did not move");
    for (x, y) in before.iter().zip(&after) {
        let (x, y) = (x.expect("served").state, y.expect("served").state);
        assert!((f64::from_bits(x) - f64::from_bits(y)).abs() <= tolerance);
    }
    let pushed: Vec<(u64, u64)> = (client.poll_updates(Duration::from_millis(500)).iter())
        .map(|u| (u.sub, u.vertex))
        .collect();
    assert_eq!(pushed, [(sub, b)], "only the new vertex is pushed");

    cluster.run_with(pr, delta).expect("a run with no batch");
    cluster.quiesce().expect("quiesce");
    assert!(
        client.poll_updates(Duration::from_millis(200)).is_empty(),
        "a vertex is pushed once"
    );
    cluster.shutdown();
}

/// Readers racing a live run never observe torn mid-superstep state:
/// every answer is exactly the previous completed run's value (tagged
/// with that run) or exactly the new run's value (tagged with it) —
/// never an intermediate power-iteration value.
#[test]
fn snapshots_never_torn_during_live_run() {
    let n = 400u64;
    let mut cluster = Cluster::builder().agents(4).build();
    cluster.ingest_edges(chain_graph(n).iter().copied());
    let pr = PageRank::new(0.85)
        .with_max_iters(200)
        .with_tolerance(1e-12);

    let r1 = cluster.run(pr).expect("first run");
    let client = query_client(&cluster);
    let asked: Vec<u64> = (0..n).collect();
    let s1: Vec<Option<SnapshotValue>> = client.query_batch(&asked);
    assert!(s1.iter().all(|s| s.is_some_and(|s| s.run == r1.run_id)));

    // Change the graph so run 2 converges to genuinely different
    // values, then hammer reads while it executes.
    cluster.ingest_edges((0..n).step_by(4).map(|i| (i, (i * 29 + 11) % n)));
    let handle = cluster
        .start_run(pr, RunOptions::default())
        .expect("start second run");
    let mut observed: Vec<Vec<Option<SnapshotValue>>> = Vec::new();
    for _ in 0..20 {
        observed.push(client.query_batch(&asked));
    }
    let r2 = cluster.wait_run(handle).expect("second run");
    let s2 = client.query_batch(&asked);
    assert!(s2.iter().all(|s| s.is_some_and(|s| s.run == r2.run_id)));

    let mut saw = HashMap::new();
    for sweep in &observed {
        for ((&v, got), (old, new)) in asked.iter().zip(sweep).zip(s1.iter().zip(&s2)) {
            let Some(got) = got else { continue };
            *saw.entry(got.run).or_insert(0u64) += 1;
            if got.run == r1.run_id {
                assert_eq!(Some(*got), *old, "v{v}: torn read under run-1 tag");
            } else if got.run == r2.run_id {
                assert_eq!(Some(*got), *new, "v{v}: torn read under run-2 tag");
            } else {
                panic!("v{v}: answer tagged unknown run {}", got.run);
            }
        }
    }
    assert!(!saw.is_empty(), "no answers observed around the live run");
    cluster.shutdown();
}

/// Snapshot answers survive the control plane's hard events: agents
/// joining (snapshots migrate with primaryship), agents leaving, and a
/// crash recovered from a checkpoint — values always equal one
/// completed run's states, never a mixture.
#[test]
fn snapshots_survive_elasticity_and_recovery() {
    let dir = ckpt_dir("elastic");
    let n = 240u64;
    let mut cluster = Cluster::builder()
        .agents(3)
        .config(recovery_config())
        .checkpoints(&dir)
        .build();
    cluster.ingest_edges(chain_graph(n).iter().copied());
    let pr = PageRank::new(0.85).with_max_iters(60);
    let r1 = cluster.run(pr).expect("first run");

    let mut client = query_client(&cluster);
    let asked: Vec<u64> = (0..n).collect();
    let s1 = client.query_batch(&asked);
    assert!(s1.iter().all(|s| s.is_some_and(|s| s.run == r1.run_id)));

    // Join: primaryship (and the snapshots riding it) migrates.
    // `add_agents` returns on the new view, not on the migrate barrier
    // behind it; a read in between finds the slices still on their way.
    let joined = cluster.add_agents(1);
    cluster.quiesce().expect("join settles");
    client.refresh().expect("refresh after join");
    assert_eq!(client.query_batch(&asked), s1, "join tore the snapshot");

    // Leave: the departing agent hands its vertices (and snaps) back.
    cluster.remove_agent(joined[0]);
    cluster.quiesce().expect("leave settles");
    client.refresh().expect("refresh after leave");
    assert_eq!(client.query_batch(&asked), s1, "leave tore the snapshot");

    // Crash mid-run: recovery restores the checkpoint, replays the
    // suffix, and restarts the run; once it completes, served answers
    // equal the finished run's states exactly — one tag, no mixture.
    assert!(cluster.checkpoint().expect("checkpoint").committed);
    cluster.ingest_edges((0..30u64).map(|i| (i * 7 % n, (i * 13 + 1) % n)));
    let victim = cluster.agent_ids()[1];
    let handle = cluster
        .start_run(pr, RunOptions::default())
        .expect("start post-checkpoint run");
    cluster.kill_agent(victim);
    cluster.wait_run(handle).expect("run survives the crash");
    assert_eq!(cluster.metrics().recoveries, 1);

    client.refresh().expect("refresh after recovery");
    let served = client.query_batch(&asked);
    let truth = cluster.dump_states();
    let tags: Vec<(u64, u64)> = served
        .iter()
        .flatten()
        .map(|s| (s.run, s.watermark))
        .collect();
    assert_eq!(tags.len(), asked.len(), "vertices lost across recovery");
    assert!(
        tags.windows(2).all(|w| w[0] == w[1]),
        "mixed tags after recovery: {tags:?}"
    );
    for (&v, s) in asked.iter().zip(&served) {
        assert_eq!(
            s.unwrap().state,
            truth[&v],
            "v{v}: served answer diverges from state"
        );
    }
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
