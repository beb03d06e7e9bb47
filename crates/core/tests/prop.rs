//! Property tests for the core wire protocol and autoscaler.

use elga_core::autoscale::{Autoscaler, EmaAutoscaler};
use elga_core::metrics::{AgentMetrics, ClusterMetrics};
use elga_core::msg::{
    self, packet, Advance, AgentInfo, Counters, DirectoryView, Message, MigMeta, MigVertex, Phase,
    QueryAnswer, ReadyReport, RunInfo, RunStatus, StateRecord, WireRecord,
};
use elga_graph::types::EdgeChange;
use elga_net::{CoalesceConfig, CoalescingOutbox, Frame, InProcTransport, Transport};
use elga_sketch::{CountMinSketch, SketchDelta};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// A moving vertex: its head, its meta, its out- and in-list.
type Moving = (MigVertex, Option<MigMeta>, Vec<u64>, Vec<u64>);

/// MIG_VERTEX records derived from `msgs`: random flags, a meta on
/// about half, lists of up to three ids on either side, empty ones
/// included.
fn mig_records(msgs: &[(u64, u64)]) -> Vec<Moving> {
    msgs.iter()
        .map(|&(v, x)| {
            let meta = (x & 1 == 0).then(|| MigMeta {
                out_degree: v % 97,
                in_degree: x % 89,
                ppartial: v.wrapping_mul(x),
                wait_recv: v % 5,
                residual: x.rotate_left(13),
                snap: v.rotate_left(29),
            });
            let (out, inn): (Vec<u64>, Vec<u64>) =
                ((0..v % 4).collect(), (0..x % 4).map(|i| i ^ v).collect());
            let head = MigVertex {
                vertex: v,
                flags: (x >> 8) as u8 & !MigVertex::META
                    | if meta.is_some() { MigVertex::META } else { 0 },
                state: x,
                out_degree: v ^ x,
                aux: x.rotate_left(7),
                n_out: out.len() as u32,
                n_in: inn.len() as u32,
            };
            (head, meta, out, inn)
        })
        .collect()
}

/// `recs` written as one MIG_VERTEX frame of agent `from` under epoch
/// `run + 1` and `(run, watermark)`.
fn mig_frame(run: u64, watermark: u64, from: u64, recs: &[Moving]) -> Frame {
    let mut f = msg::open_mig_vertex(run.wrapping_add(1), run, watermark, from);
    for (head, meta, out, inn) in recs {
        let ids = out.iter().chain(inn);
        f.push(head, |tail| MigVertex::write_tail(tail, meta.as_ref(), ids));
    }
    f.finish()
}

/// The records of a MIG_VERTEX view, read back.
fn read_mig(records: msg::Records<'_, MigVertex>) -> Vec<Moving> {
    let read = |(head, tail)| {
        let (meta, out, inn): (_, msg::Records<'_, u64>, msg::Records<'_, u64>) =
            MigVertex::read_tail(&head, tail);
        (head, meta, out.to_vec(), inn.to_vec())
    };
    records.tailed().map(read).collect()
}

/// The one frame `append` leaves in a fresh coalescing outbox, if it
/// appended anything.
fn appended(append: impl FnOnce(&mut CoalescingOutbox)) -> Option<Frame> {
    let t = InProcTransport::new();
    let addr = elga_net::Addr::inproc("prop-appended");
    let mb = t.bind(&addr).unwrap();
    let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), CoalesceConfig::default());
    append(&mut c);
    c.flush();
    mb.try_recv().unwrap().map(|d| d.frame)
}

/// A row's decoder applied to a frame: `None` when it refuses the
/// frame, else whether the frame holds the header and records the
/// row's frame was built with.
type Check = Box<dyn Fn(&Frame) -> Option<bool>>;

/// [`Check`] of `decode`: `$same` over the decoded view `$v` and the
/// records `$w` the frame was built with (`$want`).
macro_rules! check {
    ($decode:path, $want:expr, |$v:ident, $w:ident| $same:expr) => {{
        let $w = $want;
        Box::new(move |f: &Frame| {
            let $v = $decode(f)?;
            Some($same)
        }) as Check
    }};
}

/// Every `records_frames!` row: its packet kind, a frame of it with
/// records derived from `msgs` under a header of `(run, step, hop)`,
/// and its [`Check`]. A row with an encoder is encoded, MIG_VERTEX is
/// written through its open frame, and a row with only an appender is
/// appended through a coalescing outbox, so it is left out when `msgs`
/// is empty — all 12 rows are there otherwise.
fn rows(run: u64, step: u32, hop: u8, msgs: &[(u64, u64)]) -> Vec<(u8, Frame, Check)> {
    let mig = mig_records(msgs);
    let vertices: Vec<u64> = msgs.iter().map(|m| m.0).collect();
    let answers: Vec<QueryAnswer> = msgs
        .iter()
        .map(|&(vertex, state)| QueryAnswer {
            vertex,
            state,
            found: (state % 3) as u8,
        })
        .collect();
    let side = if hop.is_multiple_of(2) {
        msg::Side::Out
    } else {
        msg::Side::In
    };
    let (watermark, sub) = (u64::from(step), u64::from(hop));
    // The sending agent of the counted rows.
    let from = run.rotate_left(17) ^ sub;
    let changes = change_records(msgs);
    let states = state_records(msgs);
    let deltas = delta_records(msgs);
    let mut rows: Vec<(u8, Frame, Check)> = vec![
        (
            packet::EDGE_CHANGES,
            msg::encode_changes_from(side, hop, from, &changes),
            check!(msg::decode_edge_changes, changes, |v, w| {
                (v.side, v.hop, v.from) == (side, hop, from) && v.records.to_vec() == w
            }),
        ),
        (
            packet::VMSG,
            msg::encode_vmsgs(run, step, from, msgs),
            check!(msg::decode_vmsgs, msgs.to_vec(), |v, w| {
                (v.run, v.step, v.from) == (run, step, from) && v.records.to_vec() == w
            }),
        ),
        (
            packet::PARTIAL,
            msg::encode_partials(run, step, from, msgs),
            check!(msg::decode_partials, msgs.to_vec(), |v, w| {
                (v.run, v.step, v.from) == (run, step, from) && v.records.to_vec() == w
            }),
        ),
        (
            packet::STATE,
            msg::encode_states(run, step, from, &states),
            check!(msg::decode_states, states, |v, w| {
                (v.run, v.step, v.from) == (run, step, from) && v.records.to_vec() == w
            }),
        ),
        (
            packet::DEG_DELTA,
            msg::encode_deg_deltas(from, &deltas),
            check!(msg::decode_deg_deltas, deltas, |v, w| {
                v.from == from && v.records.to_vec() == w
            }),
        ),
        (
            packet::QUERY_BATCH,
            msg::encode_query_batch(run, &vertices),
            check!(msg::decode_query_batch, vertices.clone(), |v, w| {
                v.min_run == run && v.records.to_vec() == w
            }),
        ),
        (
            packet::QUERY_BATCH,
            msg::encode_query_batch_rep(run, watermark, &answers),
            check!(msg::decode_query_batch_rep, answers, |v, w| {
                (v.run, v.watermark) == (run, watermark) && v.records.to_vec() == w
            }),
        ),
        (
            packet::DUMP,
            msg::encode_dump(msgs),
            check!(msg::decode_dump, msgs.to_vec(), |v, w| v.to_vec() == w),
        ),
        (
            packet::RESET_LABELS,
            msg::encode_reset_labels(&vertices),
            check!(msg::decode_reset_labels, vertices, |v, w| v.to_vec() == w),
        ),
    ];
    rows.push((
        packet::MIG_VERTEX,
        mig_frame(run, watermark, from, &mig),
        check!(msg::decode_mig_vertex, mig, |v, w| {
            (v.epoch, v.snap_run, v.snap_watermark, v.from)
                == (run.wrapping_add(1), run, watermark, from)
                && read_mig(v.records) == w
        }),
    ));
    let appended_rows = [
        (
            packet::RESIDUAL,
            appended(|c| msg::append_residuals(c, from, msgs)),
            check!(msg::decode_residuals, msgs.to_vec(), |v, w| {
                v.from == from && v.records.to_vec() == w
            }),
        ),
        (
            packet::SUB_PUSH,
            appended(|c| msg::append_sub_pushes(c, sub, run, watermark, msgs)),
            check!(msg::decode_sub_push, msgs.to_vec(), |v, w| {
                (v.sub, v.run, v.watermark) == (sub, run, watermark) && v.records.to_vec() == w
            }),
        ),
    ];
    rows.extend(
        appended_rows
            .into_iter()
            .filter_map(|(kind, frame, check)| Some((kind, frame?, check))),
    );
    rows
}

/// STATE records derived from `msgs`.
fn state_records(msgs: &[(u64, u64)]) -> Vec<StateRecord> {
    let state = |&(v, x): &(u64, u64)| StateRecord {
        vertex: v,
        state: x,
        out_degree: v ^ x,
        aux: x.rotate_left(7),
        active: x % 2 == 0,
    };
    msgs.iter().map(state).collect()
}

/// EDGE_CHANGES records derived from `msgs`, both actions.
fn change_records(msgs: &[(u64, u64)]) -> Vec<EdgeChange> {
    let change = |&(u, v): &(u64, u64)| {
        if v % 2 == 0 {
            EdgeChange::insert(u, v)
        } else {
            EdgeChange::delete(u, v)
        }
    };
    msgs.iter().map(change).collect()
}

/// DEG_DELTA records derived from `msgs`, either sign.
fn delta_records(msgs: &[(u64, u64)]) -> Vec<(u64, i64, i64)> {
    let delta = |&(v, d): &(u64, u64)| (v, d as i64, (d as i64).wrapping_neg());
    msgs.iter().map(delta).collect()
}

/// `write` fills a record's slot so that the slot validates and
/// `parse` gives the record back, whatever the slot held before.
fn assert_slot_roundtrip<T>(recs: &[T])
where
    T: WireRecord + PartialEq + std::fmt::Debug,
{
    let mut slot = vec![0xA5; T::STRIDE];
    for rec in recs {
        rec.write(&mut slot);
        assert!(T::validate(&slot));
        assert_eq!(&T::parse(&slot), rec);
    }
}

/// Call `f` on `recs` a block at a time, block sizes cycling through
/// `blocks`.
fn in_blocks<T>(recs: &[T], blocks: &[usize], mut f: impl FnMut(&[T])) {
    let mut sizes = blocks.iter().cycle();
    let mut rest = recs;
    while !rest.is_empty() {
        let n = (*sizes.next().expect("non-empty")).min(rest.len());
        f(&rest[..n]);
        rest = &rest[n..];
    }
}

/// `delta` as a SKETCH_DELTA frame in the form asked for, whichever
/// one `encode_sketch_delta` would pick: epoch, form byte (0 dense, 1
/// sparse), `width, depth, items`, one length-prefixed body of `i32`
/// counts.
fn delta_frame(epoch: u64, delta: &SketchDelta, sparse: bool) -> Frame {
    let b = Frame::builder(msg::packet::SKETCH_DELTA)
        .u64(epoch)
        .u8(sparse as u8)
        .u32(delta.width() as u32)
        .u32(delta.depth() as u32)
        .u64(delta.items() as u64);
    if sparse {
        let pairs = delta.cells().flat_map(|(i, c)| [i as u32, c as u32]);
        b.u32((delta.touched() * 8) as u32).u32s(pairs)
    } else {
        let rows = delta.counts().iter().map(|&c| c as u32);
        b.u32((delta.width() * delta.depth() * 4) as u32).u32s(rows)
    }
    .finish()
}

/// `m` survives its frame: decoding the encoding gives back a value
/// that encodes to the same bytes, and the frame one byte short, or
/// with one byte more, decodes to nothing.
fn assert_frame_round_trip<M: Message>(m: &M) -> M {
    let frame = m.encode();
    let back = M::decode(&frame).expect("decodes");
    assert_eq!(back.encode(), frame, "kind {}", M::KIND);
    let bytes = frame.as_bytes();
    let short = Frame::from_bytes(bytes[..bytes.len() - 1].to_vec().into());
    assert!(
        M::decode(&short).is_none(),
        "kind {}: one byte short",
        M::KIND
    );
    let long = Frame::from_bytes([bytes, &[0]].concat().into());
    assert!(
        M::decode(&long).is_none(),
        "kind {}: one trailing byte",
        M::KIND
    );
    back
}

/// [`assert_frame_round_trip`], and the value is the one encoded.
fn assert_round_trip<M: Message + PartialEq + std::fmt::Debug>(m: M) {
    assert_eq!(assert_frame_round_trip(&m), m);
}

/// A view over `members`, its sketch and dimensions drawn from `w`.
fn view_of(w: &[u64], members: &[u64]) -> DirectoryView {
    let mut sketch = CountMinSketch::new(1 + w[0] as usize % 8, 1 + w[1] as usize % 3);
    sketch.add(w[2], w[3] as u32);
    let mut view = elga_core::msg::DirectoryView {
        epoch: w[4],
        reset: w[10],
        batch_id: w[5],
        n_vertices: w[6],
        agents: Vec::new(),
        sketch,
        hash: elga_hash::HashKind::Wang,
        virtual_agents: w[7] as u32,
        replication_threshold: w[8],
        max_replicas: w[9] as u32,
    };
    view.agents = members
        .iter()
        .map(|&id| AgentInfo {
            id,
            addr: elga_net::Addr::inproc(format!("agent-{id}")),
        })
        .collect();
    view
}

proptest! {
    /// Each of the eight record types has one layout: what `write` puts
    /// in a slot, `parse` reads back.
    #[test]
    fn write_then_parse_is_identity(
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
    ) {
        let mig = mig_records(&msgs);
        let vertices: Vec<u64> = msgs.iter().map(|m| m.0).collect();
        let answers: Vec<QueryAnswer> = msgs
            .iter()
            .map(|&(vertex, state)| QueryAnswer { vertex, state, found: (state % 3) as u8 })
            .collect();
        assert_slot_roundtrip(&msgs);
        assert_slot_roundtrip(&state_records(&msgs));
        assert_slot_roundtrip(&change_records(&msgs));
        assert_slot_roundtrip(&delta_records(&msgs));
        assert_slot_roundtrip(&vertices);
        assert_slot_roundtrip(&answers);
        assert_slot_roundtrip(&mig.iter().map(|m| m.0).collect::<Vec<_>>());
        assert_slot_roundtrip(&mig.iter().filter_map(|m| m.1).collect::<Vec<_>>());
    }

    /// Every stream the data plane appends, handed to the block writer
    /// in blocks of any size under any frame limits, reaches its
    /// `decode_*` view as the records that went in, in order, under the
    /// header they were appended with, in frames within the limits.
    #[test]
    fn appended_blocks_decode_to_the_records(
        max_records in 1u32..32,
        max_bytes in 1usize..1500,
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..48),
        blocks in prop::collection::vec(1usize..20, 1..5),
    ) {
        let states = state_records(&msgs);
        let changes = change_records(&msgs);
        let deltas = delta_records(&msgs);
        let t = InProcTransport::new();
        let addr = elga_net::Addr::inproc("prop-blocks");
        let mb = t.bind(&addr).unwrap();
        let cfg = CoalesceConfig { max_records, max_bytes, credit_bytes: 0, ..CoalesceConfig::default() };
        let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), cfg);
        in_blocks(&msgs, &blocks, |r| msg::append_vmsgs(&mut c, 7, 3, 9, r));
        in_blocks(&msgs, &blocks, |r| msg::append_partials(&mut c, 7, 3, 9, r));
        in_blocks(&states, &blocks, |r| msg::append_states(&mut c, 7, 3, 9, r));
        in_blocks(&changes, &blocks, |r| msg::append_changes_from(&mut c, msg::Side::In, 2, 9, r));
        in_blocks(&deltas, &blocks, |r| msg::append_deg_deltas(&mut c, 9, r));
        in_blocks(&msgs, &blocks, |r| msg::append_residuals(&mut c, 9, r));
        in_blocks(&msgs, &blocks, |r| msg::append_sub_pushes(&mut c, 42, 7, 500, r));
        c.flush();

        let mut got_pairs: [Vec<(u64, u64)>; 4] = Default::default();
        let (mut got_states, mut got_changes, mut got_deltas) = (vec![], vec![], vec![]);
        while let Some(d) = mb.try_recv().unwrap() {
            let f = &d.frame;
            let records = match f.packet_type() {
                packet::VMSG => {
                    let view = msg::decode_vmsgs(f).unwrap();
                    prop_assert_eq!((view.run, view.step, view.from), (7, 3, 9));
                    got_pairs[0].extend(view.records);
                    view.records.len()
                }
                packet::PARTIAL => {
                    let view = msg::decode_partials(f).unwrap();
                    prop_assert_eq!((view.run, view.step, view.from), (7, 3, 9));
                    got_pairs[1].extend(view.records);
                    view.records.len()
                }
                packet::STATE => {
                    let view = msg::decode_states(f).unwrap();
                    prop_assert_eq!((view.run, view.step, view.from), (7, 3, 9));
                    got_states.extend(view.records);
                    view.records.len()
                }
                packet::EDGE_CHANGES => {
                    let view = msg::decode_edge_changes(f).unwrap();
                    prop_assert_eq!((view.side, view.hop, view.from), (msg::Side::In, 2, 9));
                    got_changes.extend(view.records);
                    view.records.len()
                }
                packet::DEG_DELTA => {
                    let recs = msg::decode_deg_deltas(f).unwrap().records;
                    got_deltas.extend(recs);
                    recs.len()
                }
                packet::RESIDUAL => {
                    let recs = msg::decode_residuals(f).unwrap().records;
                    got_pairs[2].extend(recs);
                    recs.len()
                }
                packet::SUB_PUSH => {
                    let view = msg::decode_sub_push(f).unwrap();
                    prop_assert_eq!((view.sub, view.run, view.watermark), (42, 7, 500));
                    got_pairs[3].extend(view.records);
                    view.records.len()
                }
                other => panic!("unexpected packet type {other}"),
            };
            prop_assert!((1..=max_records as usize).contains(&records));
            // A frame closes on the record that reaches `max_bytes`.
            prop_assert!(f.len() < max_bytes + StateRecord::STRIDE || records == 1);
        }
        for got in &got_pairs {
            prop_assert_eq!(got, &msgs);
        }
        prop_assert_eq!(got_states, states);
        prop_assert_eq!(got_changes, changes);
        prop_assert_eq!(got_deltas, deltas);
    }

    /// One batch's signed delta folds to the same table — cells and
    /// item count — whether it travels as touched pairs or as the dense
    /// table, and that table is the one the net counts build directly.
    /// The encoder's pick is one of the two, the smaller; every strict
    /// prefix of either, an index one past the table, and a sketch of
    /// other dimensions are refused with nothing folded.
    #[test]
    fn sketch_delta_forms_are_interchangeable(
        width in 1usize..48,
        depth in 1usize..6,
        epoch in any::<u64>(),
        before in prop::collection::vec((0u64..512, 1u32..9), 0..64),
        batch in prop::collection::vec((0u64..512, 1u32..9, any::<bool>()), 0..96),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut net = std::collections::HashMap::<u64, u32>::new();
        before.iter().for_each(|&(k, c)| *net.entry(k).or_default() += c);
        let sketch_of = |net: &std::collections::HashMap<u64, u32>| {
            let mut s = CountMinSketch::new(width, depth);
            net.iter().for_each(|(&k, &c)| s.add(k, c));
            s
        };
        let base = sketch_of(&net);
        let mut delta = SketchDelta::new(width, depth);
        for &(k, c, take) in &batch {
            // A delete takes back no more than was counted before it.
            let held = net.entry(k).or_default();
            let change = if take { -(c.min(*held) as i32) } else { c as i32 };
            *held = held.checked_add_signed(change).unwrap();
            delta.add(k, change);
        }
        let direct = sketch_of(&net);
        let forms = [delta_frame(epoch, &delta, true), delta_frame(epoch, &delta, false)];
        let picked = msg::encode_sketch_delta(epoch, &delta);
        prop_assert!(forms.contains(&picked));
        prop_assert!(forms.iter().all(|f| picked.len() <= f.len()));
        for frame in &forms {
            let view = msg::decode_sketch_delta(frame).unwrap();
            prop_assert_eq!(view.epoch, epoch);
            let mut folded = base.clone();
            view.fold_into(&mut folded, |_| 0).unwrap();
            prop_assert_eq!(&folded, &direct);
            folded.rescan_bound();
            prop_assert_eq!(folded.estimate_bound(), direct.estimate_bound());
            let mut other = CountMinSketch::new(width + 1, depth);
            prop_assert!(view.fold_into(&mut other, |_| 0).is_err());
            prop_assert!(other.is_empty());
            let n = frame.len();
            let keep = (1 + ((n - 1) as f64 * cut_frac) as usize).min(n - 1);
            let short = Frame::from_bytes(frame.as_bytes()[..keep].to_vec().into());
            prop_assert!(msg::decode_sketch_delta(&short).is_none());
        }
        let stray = Frame::builder(msg::packet::SKETCH_DELTA)
            .u64(epoch)
            .u8(1)
            .u32(width as u32)
            .u32(depth as u32)
            .u64(1)
            .u32(8)
            .u32((width * depth) as u32)
            .u32(1)
            .finish();
        prop_assert!(msg::decode_sketch_delta(&stray).is_none());
    }

    /// No decoder may panic on arbitrary bytes — a malformed or
    /// truncated frame must surface as `None` ("ensure that the
    /// endpoint remains valid", §3.4).
    #[test]
    fn decoders_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 1..256)) {
        let frame = Frame::from_bytes(bytes.into());
        for (_, _, check) in rows(1, 2, 3, &[(4, 5)]) {
            let _ = check(&frame);
        }
        let _ = DirectoryView::decode(&frame);
        let _ = ReadyReport::decode(&frame);
        let _ = Advance::decode(&frame);
        let _ = msg::JoinReply::decode(&frame);
        let _ = RunInfo::decode(&frame);
        let _ = RunStatus::decode(&frame);
        let _ = msg::CkptLoad::decode(&frame);
        let _ = msg::CkptLoadReport::decode(&frame);
        let _ = msg::decode_sketch_delta(&frame);
        let _ = AgentMetrics::decode(&frame);
        let _ = ClusterMetrics::decode(&frame);
    }

    /// ADVANCE round-trips with `done` and `until` independent and any
    /// list of expected counts, and a frame that ends at `until` — the
    /// layout before the counts — is refused: read as "expect nothing"
    /// it would let an agent run a phase ahead of its records.
    #[test]
    fn advance_round_trips_and_old_frames_are_refused(
        run in any::<u64>(),
        step in any::<u32>(),
        phase in 0u8..4,
        n_vertices in any::<u64>(),
        global in -1e12f64..1e12,
        done in any::<bool>(),
        until in 0u8..4,
        expect in prop::collection::vec((any::<u64>(), any::<u64>()), 0..9),
    ) {
        let (phase, until) = (Phase::parse(&[phase]), Phase::parse(&[until]));
        let adv = msg::Advance { run, step, phase, n_vertices, global, done, until, expect };
        let frame = adv.encode();
        prop_assert_eq!(Advance::decode(&frame), Some(adv.clone()));
        let old = Frame::builder(msg::packet::ADVANCE)
            .u64(run)
            .u32(step)
            .u8(phase as u8)
            .u64(n_vertices)
            .f64(global)
            .u8(done as u8)
            .u8(until as u8)
            .finish();
        prop_assert_eq!(Advance::decode(&old), None);
        prop_assert_eq!(frame.len(), old.len() + 4 + 16 * adv.expect.len());
        // A list cut short, or one with bytes after it, is no list.
        let bytes = frame.as_bytes();
        for cut in [&bytes[..bytes.len() - 1], &[bytes, &[0u8][..]].concat()[..]] {
            let cut = Frame::from_bytes(cut.to_vec().into());
            prop_assert_eq!(Advance::decode(&cut), None);
        }
    }

    /// A frame of one packet type must be rejected by every other
    /// type's decoder — the 1-byte type tag is load-bearing, so a
    /// misrouted frame surfaces as `None`, never as garbage records.
    /// (VMSG, PARTIAL, RESIDUAL and DUMP share a 16-byte stride: only
    /// the type byte tells them apart.)
    #[test]
    fn decoders_reject_wrong_packet_type(
        run in any::<u64>(),
        step in any::<u32>(),
        hop in any::<u8>(),
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..4),
    ) {
        let rows = rows(run, step, hop, &msgs);
        prop_assert_eq!(rows.len(), 12);
        for (kind, frame, _) in &rows {
            for (other, _, check) in &rows {
                let refused = other == kind || check(frame).is_none();
                prop_assert!(refused, "{} read as {}", kind, other);
            }
            prop_assert!(ReadyReport::decode(frame).is_none());
            prop_assert!(Advance::decode(frame).is_none());
        }
    }

    /// Every strict prefix of a valid record-bearing frame must decode
    /// to `None`: the record count promises bytes the prefix lacks, so
    /// truncation can never yield a shorter-but-plausible batch.
    #[test]
    fn decoders_reject_truncated_frames(
        run in any::<u64>(),
        step in any::<u32>(),
        hop in any::<u8>(),
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = |frame: &Frame| {
            // Keep at least the type byte; drop at least one byte.
            let n = frame.len();
            let keep = 1 + ((n - 1) as f64 * cut_frac) as usize;
            Frame::from_bytes(frame.as_bytes()[..keep.min(n - 1)].to_vec().into())
        };
        let rows = rows(run, step, hop, &msgs);
        prop_assert_eq!(rows.len(), 12);
        for (kind, frame, check) in &rows {
            prop_assert!(check(&cut(frame)).is_none(), "kind {}", kind);
        }
    }

    /// A record region that is not an exact multiple of the stride is
    /// malformed: appending 1..stride-1 trailing bytes to a valid frame
    /// must flip every borrowed decoder to `None` (trailing bytes are
    /// rejected, never silently ignored).
    #[test]
    fn decoders_reject_misaligned_trailing_bytes(
        run in any::<u64>(),
        step in any::<u32>(),
        hop in any::<u8>(),
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..16),
        pad in prop::collection::vec(any::<u8>(), 1..15),
    ) {
        let rows = rows(run, step, hop, &msgs);
        prop_assert_eq!(rows.len(), 12);
        for (kind, frame, check) in &rows {
            let long = Frame::from_bytes([frame.as_bytes(), &pad].concat().into());
            prop_assert!(check(&long).is_none(), "kind {}", kind);
        }
    }

    /// Borrowed views round-trip: every row's decoder gives back the
    /// header and the exact records its frame was built with, in order
    /// — none at all included, for the rows with an encoder.
    #[test]
    fn borrowed_views_roundtrip(
        run in any::<u64>(),
        step in any::<u32>(),
        hop in any::<u8>(),
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..64),
    ) {
        let rows = rows(run, step, hop, &msgs);
        prop_assert_eq!(rows.len(), if msgs.is_empty() { 10 } else { 12 });
        for (kind, frame, check) in &rows {
            prop_assert_eq!(check(frame), Some(true), "kind {}", kind);
        }
    }

    /// READY reports round-trip exactly for arbitrary field values.
    #[test]
    fn ready_roundtrip(
        agent in any::<u64>(),
        run in any::<u64>(),
        step in any::<u32>(),
        phase_byte in 0u8..4,
        counters in prop::collection::vec(any::<u64>(), 10),
        active in any::<u64>(),
        contrib in any::<f64>(),
        n_primary in any::<u64>(),
        epoch in any::<u64>(),
        sent in prop::collection::vec((any::<u64>(), any::<u64>()), 0..9),
    ) {
        prop_assume!(!contrib.is_nan());
        let rep = ReadyReport {
            agent,
            run,
            step,
            phase: Phase::parse(&[phase_byte]),
            rows: vec![(agent, Counters {
                vmsg_sent: counters[0],
                vmsg_recv: counters[1],
                part_sent: counters[2],
                part_recv: counters[3],
                state_sent: counters[4],
                state_recv: counters[5],
                mig_sent: counters[6],
                mig_recv: counters[7],
                chg_sent: counters[8],
                chg_recv: counters[9],
            })],
            active,
            global_contrib: contrib,
            pushed: contrib.abs(),
            n_primary,
            epoch,
            sent,
        };
        let frame = rep.encode();
        prop_assert_eq!(ReadyReport::decode(&frame).as_ref(), Some(&rep));
        // The layout that ended at the epoch is refused, not read as
        // "sent nothing".
        let bytes = frame.as_bytes();
        let old = &bytes[..bytes.len() - 4 - 16 * rep.sent.len()];
        prop_assert_eq!(ReadyReport::decode(&Frame::from_bytes(old.to_vec().into())), None);
    }

    /// State batches round-trip for arbitrary values.
    #[test]
    fn states_roundtrip(
        run in any::<u64>(),
        step in any::<u32>(),
        recs in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            0..64,
        ),
    ) {
        let records: Vec<StateRecord> = recs
            .iter()
            .map(|&(vertex, state, out_degree, active)| StateRecord {
                vertex,
                state,
                out_degree,
                aux: state ^ out_degree,
                active,
            })
            .collect();
        let frame = msg::encode_states(run, step, 3, &records);
        let view = msg::decode_states(&frame).unwrap();
        prop_assert_eq!((view.run, view.step), (run, step));
        let back: Vec<StateRecord> = view.records.into_iter().collect();
        prop_assert_eq!(back, records);
    }

    /// Every frame a field table declares — the control frames and the
    /// two metrics reports — decodes to what was encoded, and refuses a
    /// frame one byte short or one byte long.
    #[test]
    fn table_driven_frames_round_trip(
        w in prop::collection::vec(any::<u64>(), 64),
        x in -1e12f64..1e12,
        bits in any::<u64>(),
        list in prop::collection::vec((any::<u64>(), any::<u64>()), 0..6),
    ) {
        let bit = |i: u32| bits >> i & 1 != 0;
        let counters = Counters {
            vmsg_sent: w[0], vmsg_recv: w[1], part_sent: w[2], part_recv: w[3],
            state_sent: w[4], state_recv: w[5], mig_sent: w[6], mig_recv: w[7],
            chg_sent: w[8], chg_recv: w[9],
        };
        let phase = Phase::parse(&[(w[10] % 4) as u8]);
        let run = RunInfo {
            run_id: w[11],
            tag: w[12] as u8,
            params: [w[13], w[14], w[15]],
            reuse_state: bit(0),
            asynchronous: bit(1),
            delta: bit(2),
            watermark: w[16],
        };
        assert_round_trip(ReadyReport {
            agent: w[17], run: w[18], step: w[19] as u32, phase, rows: vec![(w[24], counters)],
            active: w[20], global_contrib: x, pushed: -x, n_primary: w[21],
            epoch: w[23], sent: list.clone(),
        });
        assert_round_trip(Advance {
            run: w[18], step: w[19] as u32, phase, n_vertices: w[24], global: -x,
            done: bit(3), until: phase, expect: list.clone(),
        });
        assert_round_trip(run);
        assert_round_trip(RunStatus {
            run_id: w[25], running: bit(5), done: bit(6),
            steps: w[26] as u32, n_vertices: w[27],
            step_nanos: list.iter().map(|p| p.0).collect(), dead_agent: w[62],
        });
        let rows = list.iter().map(|&(peer, _)| (peer, counters)).collect();
        assert_round_trip(msg::DrainReport { agent: w[29], epoch: w[28], rows });
        assert_round_trip(msg::CkptSave { generation: w[30], epoch: w[31], watermark: w[32] });
        assert_round_trip(msg::CkptSaveReport { ok: bit(8), bytes: w[33], nanos: w[34] });
        let addr = elga_net::Addr::inproc(format!("client-{}", w[57]));
        let vertices = list.iter().map(|p| p.1).collect();
        assert_round_trip(msg::SubReg { addr, sub: w[58], vertices });
        let shards = list.iter().map(|p| p.0).collect();
        assert_round_trip(msg::CkptLoad { generation: w[59], shards });
        assert_round_trip(msg::CkptLoadReport { ok: bit(12), bytes: w[60] });
        assert_round_trip(AgentInfo { id: w[42], addr: elga_net::Addr::inproc(format!("a-{}", w[43])) });
        let members: Vec<u64> = list.iter().map(|p| p.0).collect();
        let view = view_of(&w[44..], &members);
        let back = assert_frame_round_trip(&msg::JoinReply {
            view: view.clone(),
            run: bit(9).then_some(run),
        });
        prop_assert_eq!(back.run, bit(9).then_some(run));
        prop_assert_eq!(back.view.agents, view.agents.clone());
        let back = assert_frame_round_trip(&view);
        prop_assert_eq!((back.epoch, back.reset, back.sketch), (w[48], w[54], view.sketch));
        // The metrics reports: every field a word of `w`, the flag a bit.
        let words = |b: elga_net::frame::FrameBuilder, n: usize| {
            w.iter().cycle().take(n).fold(b, |b, &x| b.u64(x))
        };
        let agent = words(Frame::builder(packet::METRICS), 60).finish();
        assert_round_trip(AgentMetrics::decode(&agent).expect("60 words"));
        let cluster = words(Frame::builder(packet::GET_METRICS), 11).u8(u8::from(bit(10)));
        let cluster = words(cluster, 58).finish();
        assert_round_trip(ClusterMetrics::decode(&cluster).expect("69 words and a flag"));
    }

    /// The EMA autoscaler's target is always within bounds and the EMA
    /// always lies between the running min and max of observations.
    #[test]
    fn autoscaler_stays_bounded(
        observations in prop::collection::vec(0.0f64..1e6, 1..50),
        min_a in 1usize..4,
        extra in 0usize..20,
    ) {
        let max_a = min_a + extra;
        let mut p = EmaAutoscaler::new(Duration::from_millis(100), 123.0, min_a, max_a)
            .with_cooldown(Duration::ZERO);
        let t0 = Instant::now();
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for (i, &obs) in observations.iter().enumerate() {
            lo = lo.min(obs);
            hi = hi.max(obs);
            if let Some(target) = p.observe(obs, t0 + Duration::from_millis(i as u64 * 10)) {
                prop_assert!(target >= min_a && target <= max_a);
            }
            let ema = p.ema().unwrap();
            prop_assert!(ema >= lo - 1e-9 && ema <= hi + 1e-9, "ema {} not in [{}, {}]", ema, lo, hi);
        }
    }
}
