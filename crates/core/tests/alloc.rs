//! Pins the zero-allocation guarantee of the borrowed wire decoders:
//! decoding a frame into a view and iterating every record must not
//! touch the heap. A counting global allocator makes any regression —
//! an accidental `Vec` in a decoder, a `to_vec()` on the hot path —
//! fail loudly instead of silently costing an allocation per record.
//!
//! The same allocator pins the ingest side's footprint: a small batch's
//! sketch delta must cost what the batch touched, so no thread — the
//! streamer, the lead folding the delta, an agent — may ask for a
//! buffer the size of the sketch table while one is sent.
//!
//! And the frame side's: a frame owns the buffer it was built in, so
//! what the coalescer reserves when it opens one is what every small
//! frame costs. While 64-change batches are routed and small-frontier
//! supersteps run, no thread may ask for a frame-limit-sized buffer.
//!
//! And scatter's: the target table, the per-edge slot lists and the
//! output runs are filled by the first run over a graph and found
//! filled by the next, so a steady-state superstep allocates for its
//! control frames and for nothing that scales with the vertices firing.
//!
//! This lives in its own integration-test binary with a single `#[test]`
//! so no sibling test thread can allocate while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use elga_core::algorithms::PageRank;
use elga_core::cluster::Cluster;
use elga_core::msg::{self, MigMeta, MigVertex, StateRecord};
use elga_core::program::{ExecutionMode, RunOptions};
use elga_graph::types::EdgeChange;
use elga_net::Frame;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Largest single request seen while armed, in bytes.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` with the allocation counter armed; return how many heap
/// allocations (alloc + realloc) happened while it ran. The counter is
/// process-global, so a concurrent harness thread can inflate a single
/// reading — callers take the minimum over several runs.
fn allocations_in(f: &mut impl FnMut()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Minimum armed-allocation count over `runs` invocations of `f` —
/// filters out unrelated allocations from other process threads.
fn min_allocations(runs: usize, mut f: impl FnMut()) -> u64 {
    (0..runs).map(|_| allocations_in(&mut f)).min().unwrap()
}

/// `n` moving vertices as one MIG_VERTEX frame, a meta on every
/// other one and up to three ids on each side.
fn mig_frame(n: u64) -> Frame {
    let mut f = msg::open_mig_vertex(7, 3, 2);
    for i in 0..n {
        let meta = (i % 2 == 0).then_some(MigMeta {
            out_degree: i % 7,
            in_degree: i % 11,
            ppartial: i,
            wait_recv: i % 2,
            residual: i,
            snap: i,
        });
        let head = MigVertex {
            vertex: i,
            flags: (i as u8) & !MigVertex::META | if meta.is_some() { MigVertex::META } else { 0 },
            state: i ^ 0xbeef,
            out_degree: i % 13,
            aux: i,
            n_out: (i % 4) as u32,
            n_in: (i % 3) as u32,
        };
        let ids: Vec<u64> = (i..).take((head.n_out + head.n_in) as usize).collect();
        f.push(&head, |tail| {
            MigVertex::write_tail(tail, meta.as_ref(), ids.iter())
        });
    }
    f.finish()
}

#[test]
fn decode_and_iterate_allocates_nothing() {
    const N: usize = 1024;
    let vmsgs: Vec<(u64, u64)> = (0..N as u64).map(|i| (i, i.wrapping_mul(31))).collect();
    let states: Vec<StateRecord> = (0..N as u64)
        .map(|i| StateRecord {
            vertex: i,
            state: i ^ 0xfeed,
            out_degree: i % 17,
            aux: 0,
            active: i % 3 == 0,
        })
        .collect();
    let changes: Vec<EdgeChange> = (0..N as u64)
        .map(|i| {
            if i % 2 == 0 {
                EdgeChange::insert(i, i + 1)
            } else {
                EdgeChange::delete(i, i + 1)
            }
        })
        .collect();
    let deltas: Vec<(u64, i64, i64)> = (0..N as u64).map(|i| (i, i as i64, -(i as i64))).collect();

    // Encode outside the armed window — encoding allocates by design.
    let vm = msg::encode_vmsgs(7, 3, 2, &vmsgs);
    let pt = msg::encode_partials(7, 3, 2, &vmsgs);
    let st = msg::encode_states(7, 3, 2, &states);
    let ec = msg::encode_changes_from(msg::Side::Out, 1, 2, &changes);
    let dd = msg::encode_deg_deltas(2, &deltas);
    let mv = mig_frame(N as u64);

    // Warm up once so any lazy one-time setup isn't billed to decode.
    let mut sum = 0u64;
    for (v, x) in msg::decode_vmsgs(&vm).unwrap().records {
        sum ^= v ^ x;
    }
    black_box(sum);

    let allocs = min_allocations(8, || {
        let mut acc = 0u64;
        let view = msg::decode_vmsgs(&vm).unwrap();
        for (v, x) in view.records {
            acc = acc.wrapping_add(v ^ x);
        }
        let view = msg::decode_partials(&pt).unwrap();
        for (v, x) in view.records {
            acc = acc.wrapping_add(v.wrapping_mul(x));
        }
        let view = msg::decode_states(&st).unwrap();
        for rec in view.records {
            acc = acc.wrapping_add(rec.vertex ^ rec.state ^ rec.out_degree);
            acc = acc.wrapping_add(rec.active as u64);
        }
        let view = msg::decode_edge_changes(&ec).unwrap();
        for c in view.records {
            acc = acc.wrapping_add(c.edge.src ^ c.edge.dst);
        }
        let view = msg::decode_deg_deltas(&dd).unwrap();
        for (v, dout, din) in view.records {
            acc = acc
                .wrapping_add(v)
                .wrapping_add(dout as u64)
                .wrapping_add(din as u64);
        }
        let view = msg::decode_mig_vertex(&mv).unwrap();
        acc = acc.wrapping_add(view.snap_run ^ view.snap_watermark);
        for (head, tail) in view.records.tailed() {
            let (meta, out, inn) = head.read_tail(tail);
            acc = acc.wrapping_add(head.vertex ^ head.aux ^ meta.map_or(0, |m| m.residual));
            for w in out.iter().chain(inn) {
                acc = acc.wrapping_add(w);
            }
        }
        black_box(acc);
    });
    assert_eq!(
        allocs, 0,
        "decoding and iterating {N} records of each type must not allocate"
    );

    small_batch_asks_for_no_table_sized_buffer();
    small_frames_ask_for_small_buffers();
    steady_state_scatter_reuses_its_buffers();
}

/// 64-change batches into a two-agent cluster: every thread in the
/// process is watched — the streamer counting and encoding the delta,
/// the lead decoding and folding it, the agents applying the records.
fn small_batch_asks_for_no_table_sized_buffer() {
    let mut cluster = Cluster::builder().agents(2).build();
    let cfg = cluster.config();
    let table_bytes = cfg.sketch_width * cfg.sketch_depth * 4;
    let batch = |i: u64| -> Vec<EdgeChange> {
        (0..64)
            .map(|j| EdgeChange::insert(i * 64 + j, (i * 64 + j + 1) % 4096))
            .collect()
    };
    // The first pass connects the streamer (one whole view) and grows
    // the agents' maps; the watched one sends the same edges again, so
    // no table of theirs has a reason to double.
    for i in 0..8 {
        cluster.ingest_async(&batch(i));
    }
    cluster.quiesce().unwrap();
    LARGEST.store(0, Ordering::SeqCst);
    allocations_in(&mut || {
        for i in 0..8 {
            cluster.ingest_async(&batch(i));
        }
        cluster.quiesce().unwrap();
    });
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(largest > 0, "a batch allocates something");
    assert!(
        largest < table_bytes,
        "a 64-change batch asked for {largest} B; the sketch table is {table_bytes} B"
    );
    cluster.shutdown();
}

/// 64-change batches and the delta PageRank runs behind them on a
/// two-agent ring: a few hundred bytes of change records per frame, a
/// few dozen vertex messages per superstep. Every thread is watched,
/// and none may ask for 16 KiB at once — a quarter of what one frame
/// sized by `max_bytes` takes. The streamer retains its change log, as
/// by default: the log grows by fixed-size blocks, so no request of its
/// scales with the stream either.
fn small_frames_ask_for_small_buffers() {
    const LIMIT: usize = 16 << 10;
    let mut cluster = Cluster::builder().agents(2).build();
    let n = 2048u64;
    cluster.ingest_edges((0..n).map(|i| (i, (i + 1) % n)));
    let pr = PageRank::new(0.85).with_max_iters(200).with_tolerance(1e-7);
    cluster.run(pr).expect("initial run");
    let chords = |i: u64| -> Vec<(u64, u64)> {
        (0..64)
            .map(|j| ((i * 64 + j) * 3 % n, (i * 64 + j) * 7 % n))
            .collect()
    };
    let delta = RunOptions {
        reuse_state: true,
        mode: ExecutionMode::Sync,
    };
    // Inserting the chords grows what there is to grow; the watched
    // pass deletes them again, the same traffic in the other direction.
    let cycle = |cluster: &mut Cluster, batch: Vec<EdgeChange>| {
        cluster.ingest_async(&batch);
        cluster.quiesce().unwrap();
        cluster.run_with(pr, delta).expect("delta run").steps
    };
    for i in 0..8 {
        let inserts = chords(i).into_iter().map(|(u, v)| EdgeChange::insert(u, v));
        cycle(&mut cluster, inserts.collect());
    }
    let batches: Vec<Vec<EdgeChange>> = (0..8)
        .map(|i| {
            let deletes = chords(i).into_iter().map(|(u, v)| EdgeChange::delete(u, v));
            deletes.collect()
        })
        .collect();
    let mut steps = 0;
    LARGEST.store(0, Ordering::SeqCst);
    allocations_in(&mut || {
        for batch in batches.iter().cloned() {
            steps += cycle(&mut cluster, batch);
        }
    });
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        steps > 8 * 5,
        "delta runs too short to mean anything: {steps}"
    );
    assert!(
        largest < LIMIT,
        "a 64-change batch or a small superstep asked for {largest} B"
    );
    cluster.shutdown();
}

/// Full PageRank on one agent: all 1,024 vertices fire along ~2k edges
/// every step, every message is the agent's own (combined in the
/// target table, folded in place, never framed). The first run fills
/// the table, the slot lists and the output runs; the watched one
/// finds them filled, and what is left to ask the allocator for is the
/// control plane's — the step's ADVANCE and READY and what the lead
/// keeps of them. A buffer rebuilt per firing vertex or per message
/// would show as a thousand requests a step.
fn steady_state_scatter_reuses_its_buffers() {
    const PER_STEP: u64 = 32;
    let mut cluster = Cluster::builder().agents(1).build();
    let n = 1024u64;
    cluster.ingest_edges((0..n).flat_map(|i| [(i, (i + 1) % n), (i, (7 * i + 3) % n)]));
    let pr = PageRank::new(0.85).with_max_iters(40);
    cluster.run(pr).expect("first run");
    let mut steps = 0;
    let allocs = min_allocations(3, || {
        steps = u64::from(cluster.run(pr).expect("steady run").steps);
    });
    assert!(steps >= 40, "the run stopped after {steps} steps");
    assert!(
        allocs < steps * PER_STEP,
        "{allocs} allocations in {steps} steady-state supersteps of {n} firing vertices"
    );
    cluster.shutdown();
}
