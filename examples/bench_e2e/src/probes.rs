//! Layer probes: after the timed window, replay the workload's own
//! recorded batches through one layer's public functions at a time,
//! single-threaded, for at least `PROBE_MS` each. A probe gives a
//! layer's cost per record with nothing else running — the floor the
//! in-situ rows are compared against.

use crate::harness::Bench;
use crate::host::{median, ms, now};
use crate::inputs::Inputs;
use crate::spans::NONE;
use elga::core::msg::{self, packet, Side};
use elga::graph::adjacency::AdjacencyStore;
use elga::hash::OwnerCache;
use elga::net::{Addr, CoalesceConfig, CoalescingOutbox, Frame, InProcTransport, Transport};
use elga::prelude::*;
use std::hint::black_box;
use std::time::Duration;

/// Probe results, by ledger row name.
pub type Rows = Vec<(&'static str, f64)>;

/// Repeat `pass` (returning the records it handled and the nanoseconds
/// it was on the clock) until `min_ms` of clocked time have
/// accumulated; nanoseconds per record.
fn ns_per_record(min_ms: f64, mut pass: impl FnMut() -> (usize, u64)) -> f64 {
    let (mut records, mut nanos) = (0usize, 0u64);
    while (nanos as f64) < min_ms * 1e6 {
        let (r, ns) = pass();
        records += r;
        nanos += ns.max(1);
    }
    nanos as f64 / records.max(1) as f64
}

/// Time `f` on the benchmark clock.
fn clocked<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = now();
    let out = f();
    (out, now() - t0)
}

/// `CoalescingOutbox::append` + `flush` per change record, into an
/// in-process mailbox that is drained off the clock.
fn coalesce_append(inp: &Inputs, min_ms: f64) -> f64 {
    let transport = InProcTransport::new();
    let addr = Addr::parse("inproc://bench-e2e-coalesce-probe").expect("probe address");
    let mailbox = transport.bind(&addr).expect("bind probe mailbox");
    let sender = transport.sender(&addr).expect("probe sender");
    let mut out = CoalescingOutbox::new(sender, CoalesceConfig::default());
    let mut k = 0;
    ns_per_record(min_ms, || {
        let batch = &inp.batches[k % inp.batches.len()];
        k += 1;
        let ((), ns) = clocked(|| {
            for c in batch {
                msg::append_edge_change(&mut out, Side::Out, 0, c);
            }
            out.flush();
        });
        while let Ok(Some(d)) = mailbox.try_recv() {
            black_box(d);
        }
        (batch.len(), ns)
    })
}

/// REQ/REP round trip on `InProcTransport` against an echo thread:
/// the floor under every control-plane call and every read.
fn inproc_rtt_us(min_ms: f64) -> f64 {
    let transport = InProcTransport::new();
    let addr = Addr::parse("inproc://bench-e2e-rtt-probe").expect("probe address");
    let mailbox = transport.bind(&addr).expect("bind probe mailbox");
    let mut rtts = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(d) = mailbox.recv() {
                let stop = d.frame.packet_type() == packet::SHUTDOWN;
                if let Some(reply) = d.reply {
                    let _ = reply.send(Frame::signal(packet::OK));
                }
                if stop {
                    break;
                }
            }
        });
        let t0 = now();
        while ms(t0, now()) < min_ms {
            let (rep, ns) = clocked(|| {
                transport.request(&addr, Frame::signal(packet::OK), Duration::from_secs(5))
            });
            rep.expect("echo reply");
            rtts.push(ns as f64 / 1e3);
        }
        let _ = transport.request(
            &addr,
            Frame::signal(packet::SHUTDOWN),
            Duration::from_secs(5),
        );
    });
    median(&rtts)
}

/// `OwnerCache::resolve_many` on the live view's locator, with the
/// memo warm and with a fresh epoch (cleared memo) per batch. Pairs
/// are both placements of every change, as the streamer routes them.
fn resolve(b: &Bench, min_ms: f64) -> (f64, f64) {
    let view = b.cluster.view();
    let locator = view.locator();
    let batches: Vec<Vec<(u64, u64)>> = b
        .inp
        .batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .flat_map(|c| [(c.edge.src, c.edge.dst), (c.edge.dst, c.edge.src)])
                .collect()
        })
        .collect();
    let mut cache = OwnerCache::new();
    let mut epoch = view.epoch;
    cache.ensure_epoch(epoch);
    let mut owners = Vec::new();
    let mut measure = |cold: bool| {
        let mut k = 0;
        ns_per_record(min_ms, || {
            let pairs = &batches[k % batches.len()];
            k += 1;
            owners.clear();
            let ((), ns) = clocked(|| {
                if cold {
                    epoch += 1;
                    cache.ensure_epoch(epoch);
                }
                cache.resolve_many(&locator, pairs, |u| view.sketch.estimate(u), &mut owners);
            });
            black_box(&owners);
            (pairs.len(), ns)
        })
    };
    let cold = measure(true);
    // The first pass over the pool refills the memo; the hundreds
    // that follow within `min_ms` are all hits.
    let warm = measure(false);
    (warm, cold)
}

/// `CountMinSketch::inc` per insert and `estimate_many` per key, at
/// the system's sketch dimensions.
fn sketch(b: &Bench, min_ms: f64) -> (f64, f64) {
    let cfg = b.cluster.config();
    let mut cms = CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth);
    let keys: Vec<Vec<u64>> = b
        .inp
        .batches
        .iter()
        .map(|batch| batch.iter().map(|c| c.edge.src).collect())
        .collect();
    let mut k = 0;
    let add = ns_per_record(min_ms, || {
        let ks = &keys[k % keys.len()];
        k += 1;
        let ((), ns) = clocked(|| ks.iter().for_each(|&key| cms.inc(key)));
        (ks.len(), ns)
    });
    let estimate = ns_per_record(min_ms, || {
        let ks = &keys[k % keys.len()];
        k += 1;
        let (est, ns) = clocked(|| cms.estimate_many(ks));
        black_box(est);
        (ks.len(), ns)
    });
    (add, estimate)
}

/// `encode_edge_changes` and the borrowed `decode_edge_changes` view,
/// iterated to the end, per change.
fn wire(inp: &Inputs, min_ms: f64) -> (f64, f64) {
    let mut k = 0;
    let encode = ns_per_record(min_ms, || {
        let batch = &inp.batches[k % inp.batches.len()];
        k += 1;
        let (frame, ns) = clocked(|| msg::encode_edge_changes(Side::Out, 0, batch));
        black_box(frame);
        (batch.len(), ns)
    });
    let frames: Vec<Frame> = inp
        .batches
        .iter()
        .map(|batch| msg::encode_edge_changes(Side::Out, 0, batch))
        .collect();
    let decode = ns_per_record(min_ms, || {
        let frame = &frames[k % frames.len()];
        k += 1;
        let (n, ns) = clocked(|| {
            let view = msg::decode_edge_changes(frame).expect("own frame decodes");
            view.records
                .iter()
                .fold(0u64, |acc, c| acc ^ c.edge.src ^ c.edge.dst)
        });
        black_box(n);
        (inp.batch_len(), ns)
    });
    (encode, decode)
}

/// `AdjacencyStore::apply_batch` over the cycle's own batches: the
/// single-threaded reference floor for an agent's store apply.
fn adjacency_apply(inp: &Inputs, min_ms: f64) -> f64 {
    let mut store = AdjacencyStore::from_edges(inp.base());
    // Insert-only pools are undone batch by batch, so every pass
    // inserts fresh edges like the cycle did.
    let mut sequence = Vec::new();
    for changes in &inp.batches {
        sequence.push(Batch::new(sequence.len() as u64, changes.clone()));
        if !inp.rotating {
            let undo = changes
                .iter()
                .map(|c| EdgeChange::delete(c.edge.src, c.edge.dst))
                .collect();
            sequence.push(Batch::new(sequence.len() as u64, undo));
        }
    }
    let mut k = 0;
    ns_per_record(min_ms, || {
        let batch = &sequence[k % sequence.len()];
        k += 1;
        let (applied, ns) = clocked(|| store.apply_batch(batch));
        black_box(applied);
        (batch.len(), ns)
    })
}

/// `Cluster::checkpoint()` into the traced cluster's checkpoint
/// directory: `(median ms, MiB per checkpoint)`.
fn checkpoint(b: &mut Bench, repeats: usize) -> (f64, f64) {
    let mut times = Vec::new();
    let mut bytes = 0u64;
    for _ in 0..repeats {
        let t0 = now();
        let report = b.cluster.checkpoint();
        let t1 = now();
        b.spans.push("ckpt.checkpoint", 0, t0, t1, NONE, NONE);
        b.ops += 1;
        match report {
            Ok(r) if r.committed => bytes = r.bytes,
            _ => b.failed += 1,
        }
        times.push(ms(t0, t1));
    }
    (median(&times), bytes as f64 / (1024.0 * 1024.0))
}

/// Run every probe. `min_ms` is the clocked time per probe.
pub fn run_all(b: &mut Bench, min_ms: f64, ckpt_repeats: usize) -> Rows {
    let inp = b.inp;
    let mut rows: Rows = Vec::new();
    let spanned = |b: &mut Bench, name: &'static str, t0: u64| {
        b.spans.push(name, 0, t0, now(), NONE, NONE);
    };

    let t0 = now();
    rows.push((
        "net.coalesce_append_ns_per_rec",
        coalesce_append(inp, min_ms),
    ));
    rows.push(("net.inproc_rtt_us_p50", inproc_rtt_us(min_ms)));
    spanned(b, "probe.net", t0);

    let t0 = now();
    let (warm, cold) = resolve(b, min_ms);
    rows.push(("hash.resolve_ns_per_edge", warm));
    rows.push(("hash.resolve_cold_ns_per_edge", cold));
    spanned(b, "probe.hash", t0);

    let t0 = now();
    let (add, estimate) = sketch(b, min_ms);
    rows.push(("sketch.add_ns", add));
    rows.push(("sketch.estimate_ns", estimate));
    spanned(b, "probe.sketch", t0);

    let t0 = now();
    let (encode, decode) = wire(inp, min_ms);
    rows.push(("core.msg.encode_ns_per_change", encode));
    rows.push(("core.msg.decode_ns_per_change", decode));
    spanned(b, "probe.core.msg", t0);

    let t0 = now();
    rows.push((
        "graph.adjacency_apply_ns_per_change",
        adjacency_apply(inp, min_ms),
    ));
    spanned(b, "probe.graph", t0);

    let (ckpt_ms, ckpt_mb) = checkpoint(b, ckpt_repeats);
    rows.push(("ckpt.checkpoint_ms_p50", ckpt_ms));
    rows.push(("ckpt.checkpoint_mb", ckpt_mb));

    for _ in 0..20 {
        b.scrape();
    }
    rows
}
