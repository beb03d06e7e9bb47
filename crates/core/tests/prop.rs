//! Property tests for the core wire protocol and autoscaler.

use elga_core::autoscale::{Autoscaler, EmaAutoscaler};
use elga_core::metrics::{AgentMetrics, ClusterMetrics};
use elga_core::msg::{
    self, packet, Advance, AgentInfo, Counters, DirectoryView, Message, MetaRecord, MigEdge,
    MigState, Phase, QueryAnswer, ReadyReport, RunInfo, RunStatus, StateRecord, WireRecord,
};
use elga_graph::types::EdgeChange;
use elga_net::{CoalesceConfig, CoalescingOutbox, Frame, InProcTransport, Transport};
use elga_sketch::{CountMinSketch, SketchDelta};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Migration records of each kind derived from `msgs`.
fn mig_records(msgs: &[(u64, u64)]) -> (Vec<MigState>, Vec<MigEdge>, Vec<MetaRecord>) {
    let states: Vec<MigState> = msgs
        .iter()
        .map(|&(v, x)| MigState {
            rec: StateRecord {
                vertex: v,
                state: x,
                out_degree: v ^ x,
                aux: x.rotate_left(7),
                active: x % 2 == 0,
            },
            has_state: v % 2 == 0,
        })
        .collect();
    let edges: Vec<MigEdge> = msgs
        .iter()
        .map(|&(src, dst)| MigEdge {
            side: if dst % 2 == 0 {
                msg::Side::Out
            } else {
                msg::Side::In
            },
            src,
            dst,
        })
        .collect();
    let metas: Vec<MetaRecord> = msgs
        .iter()
        .map(|&(v, x)| MetaRecord {
            vertex: v,
            state: x,
            out_degree: v % 97,
            in_degree: x % 89,
            active: x & 1 != 0,
            dirty: x & 2 != 0,
            has_state: x & 4 != 0,
            has_meta: x & 8 != 0,
            ppartial: v.wrapping_mul(x),
            has_ppartial: x & 16 != 0,
            wait_recv: v % 5,
            residual: x.rotate_left(13),
            has_residual: x & 32 != 0,
            snap: v.rotate_left(29),
            has_snap: x & 64 != 0,
        })
        .collect();
    (states, edges, metas)
}

/// The three migration frames (MIG_STATE, MIG_EDGES, MIG_META) that
/// carry records derived from `msgs`, built the only way the library
/// builds them: appended through a coalescing outbox.
fn mig_frames(msgs: &[(u64, u64)]) -> (Vec<MigState>, Vec<MigEdge>, Vec<MetaRecord>, [Frame; 3]) {
    let (states, edges, metas) = mig_records(msgs);
    let t = InProcTransport::new();
    let addr = elga_net::Addr::inproc("prop-mig");
    let mb = t.bind(&addr).unwrap();
    let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), CoalesceConfig::default());
    msg::append_mig_states(&mut c, &states);
    msg::append_mig_edges(&mut c, &edges);
    msg::append_mig_meta(&mut c, 3, 9, &metas);
    c.flush();
    let frames = [(); 3].map(|_| mb.recv().unwrap().frame);
    (states, edges, metas, frames)
}

/// STATE records derived from `msgs`.
fn state_records(msgs: &[(u64, u64)]) -> Vec<StateRecord> {
    mig_records(msgs).0.iter().map(|s| s.rec).collect()
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
/// one `encode_sketch_delta` would pick: form byte (0 dense, 1
/// sparse), `width, depth, items`, one length-prefixed body.
fn delta_frame(delta: &SketchDelta, sparse: bool) -> Frame {
    let b = Frame::builder(msg::packet::SKETCH_DELTA)
        .u8(sparse as u8)
        .u32(delta.width() as u32)
        .u32(delta.depth() as u32)
        .u64(delta.items());
    if sparse {
        let pairs = delta.cells().flat_map(|(i, c)| [i as u32, c]);
        b.u32((delta.touched() * 8) as u32).u32s(pairs)
    } else {
        let rows = (0..delta.depth()).flat_map(|r| delta.row(r).iter().copied());
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
    /// Each of the nine record types has one layout: what `write` puts
    /// in a slot, `parse` reads back.
    #[test]
    fn write_then_parse_is_identity(
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
    ) {
        let (mig_states, mig_edges, metas) = mig_records(&msgs);
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
        assert_slot_roundtrip(&mig_states);
        assert_slot_roundtrip(&mig_edges);
        assert_slot_roundtrip(&metas);
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
        let (mig_states, mig_edges, metas) = mig_records(&msgs);
        let t = InProcTransport::new();
        let addr = elga_net::Addr::inproc("prop-blocks");
        let mb = t.bind(&addr).unwrap();
        let cfg = CoalesceConfig { max_records, max_bytes, credit_bytes: 0, ..CoalesceConfig::default() };
        let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), cfg);
        in_blocks(&msgs, &blocks, |r| msg::append_vmsgs(&mut c, 7, 3, r));
        in_blocks(&msgs, &blocks, |r| msg::append_partials(&mut c, 7, 3, r));
        in_blocks(&states, &blocks, |r| msg::append_states(&mut c, 7, 3, r));
        in_blocks(&changes, &blocks, |r| msg::append_edge_changes(&mut c, msg::Side::In, 2, r));
        in_blocks(&deltas, &blocks, |r| msg::append_deg_deltas(&mut c, r));
        in_blocks(&msgs, &blocks, |r| msg::append_residuals(&mut c, r));
        in_blocks(&mig_states, &blocks, |r| msg::append_mig_states(&mut c, r));
        in_blocks(&mig_edges, &blocks, |r| msg::append_mig_edges(&mut c, r));
        in_blocks(&metas, &blocks, |r| msg::append_mig_meta(&mut c, 5, 11, r));
        in_blocks(&msgs, &blocks, |r| msg::append_sub_pushes(&mut c, 42, 7, 500, r));
        c.flush();

        let mut got_pairs: [Vec<(u64, u64)>; 4] = Default::default();
        let (mut got_states, mut got_changes, mut got_deltas) = (vec![], vec![], vec![]);
        let (mut got_mig_states, mut got_mig_edges, mut got_metas) = (vec![], vec![], vec![]);
        while let Some(d) = mb.try_recv().unwrap() {
            let f = &d.frame;
            let records = match f.packet_type() {
                ty @ (packet::VMSG | packet::PARTIAL) => {
                    let decode = if ty == packet::VMSG { msg::decode_vmsgs } else { msg::decode_partials };
                    let view = decode(f).unwrap();
                    prop_assert_eq!((view.run, view.step), (7, 3));
                    got_pairs[usize::from(ty == packet::PARTIAL)].extend(view.records);
                    view.records.len()
                }
                packet::STATE => {
                    let view = msg::decode_states(f).unwrap();
                    prop_assert_eq!((view.run, view.step), (7, 3));
                    got_states.extend(view.records);
                    view.records.len()
                }
                packet::EDGE_CHANGES => {
                    let view = msg::decode_edge_changes(f).unwrap();
                    prop_assert_eq!((view.side, view.hop), (msg::Side::In, 2));
                    got_changes.extend(view.records);
                    view.records.len()
                }
                packet::DEG_DELTA => {
                    let recs = msg::decode_deg_deltas(f).unwrap();
                    got_deltas.extend(recs);
                    recs.len()
                }
                packet::RESIDUAL => {
                    let recs = msg::decode_residuals(f).unwrap();
                    got_pairs[2].extend(recs);
                    recs.len()
                }
                packet::MIG_STATE => {
                    let recs = msg::decode_mig_states(f).unwrap();
                    got_mig_states.extend(recs);
                    recs.len()
                }
                packet::MIG_EDGES => {
                    let recs = msg::decode_mig_edges(f).unwrap();
                    got_mig_edges.extend(recs);
                    recs.len()
                }
                packet::MIG_META => {
                    let (snap_run, snap_watermark, recs) = msg::decode_mig_meta(f).unwrap();
                    prop_assert_eq!((snap_run, snap_watermark), (5, 11));
                    got_metas.extend(recs);
                    recs.len()
                }
                packet::SUB_PUSH => {
                    let (sub, run, watermark, recs) = msg::decode_sub_push(f).unwrap();
                    prop_assert_eq!((sub, run, watermark), (42, 7, 500));
                    got_pairs[3].extend(recs);
                    recs.len()
                }
                other => panic!("unexpected packet type {other}"),
            };
            prop_assert!((1..=max_records as usize).contains(&records));
            // A frame closes on the record that reaches `max_bytes`.
            prop_assert!(f.len() < max_bytes + MetaRecord::STRIDE || records == 1);
        }
        for got in &got_pairs {
            prop_assert_eq!(got, &msgs);
        }
        prop_assert_eq!(got_states, states);
        prop_assert_eq!(got_changes, changes);
        prop_assert_eq!(got_deltas, deltas);
        prop_assert_eq!(got_mig_states, mig_states);
        prop_assert_eq!(got_mig_edges, mig_edges);
        prop_assert_eq!(got_metas, metas);
    }

    /// One batch's delta folds to the same table — cells, row maxima
    /// and item count — whether it travels as touched pairs or as the
    /// dense table, and that table is the one direct updates build.
    /// The encoder's pick is one of the two, the smaller; every strict
    /// prefix of either, an index one past the table, and a sketch of
    /// other dimensions are refused with nothing folded.
    #[test]
    fn sketch_delta_forms_are_interchangeable(
        width in 1usize..48,
        depth in 1usize..6,
        before in prop::collection::vec((0u64..512, 1u32..9), 0..64),
        batch in prop::collection::vec((0u64..512, 1u32..9), 0..96),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut direct = CountMinSketch::new(width, depth);
        before.iter().for_each(|&(k, c)| direct.add(k, c));
        let base = direct.clone();
        let mut delta = SketchDelta::new(width, depth);
        for &(k, c) in &batch {
            direct.add(k, c);
            delta.add(k, c);
        }
        let forms = [delta_frame(&delta, true), delta_frame(&delta, false)];
        let picked = msg::encode_sketch_delta(&delta);
        prop_assert!(forms.contains(&picked));
        prop_assert!(forms.iter().all(|f| picked.len() <= f.len()));
        for frame in &forms {
            let view = msg::decode_sketch_delta(frame).unwrap();
            let mut folded = base.clone();
            view.fold_into(&mut folded).unwrap();
            prop_assert_eq!(&folded, &direct);
            prop_assert_eq!(folded.estimate_bound(), direct.estimate_bound());
            let mut other = CountMinSketch::new(width + 1, depth);
            prop_assert!(view.fold_into(&mut other).is_err());
            prop_assert!(other.is_empty());
            let n = frame.len();
            let keep = (1 + ((n - 1) as f64 * cut_frac) as usize).min(n - 1);
            let short = Frame::from_bytes(frame.as_bytes()[..keep].to_vec().into());
            prop_assert!(msg::decode_sketch_delta(&short).is_none());
        }
        let stray = Frame::builder(msg::packet::SKETCH_DELTA)
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
        let _ = DirectoryView::decode(&frame);
        let _ = msg::decode_edge_changes(&frame);
        let _ = msg::decode_vmsgs(&frame);
        let _ = msg::decode_partials(&frame);
        let _ = msg::decode_states(&frame);
        let _ = ReadyReport::decode(&frame);
        let _ = Advance::decode(&frame);
        let _ = msg::decode_mig_meta(&frame);
        let _ = msg::decode_mig_edges(&frame);
        let _ = msg::decode_mig_states(&frame);
        let _ = msg::decode_deg_deltas(&frame);
        let _ = msg::JoinReply::decode(&frame);
        let _ = RunInfo::decode(&frame);
        let _ = RunStatus::decode(&frame);
        let _ = msg::Recover::decode(&frame);
        let _ = msg::decode_reset_labels(&frame);
        let _ = msg::CkptEdges::decode(&frame);
        let _ = msg::decode_sketch_delta(&frame);
        let _ = AgentMetrics::decode(&frame);
        let _ = ClusterMetrics::decode(&frame);
    }

    /// ADVANCE round-trips with both flag bits independent and any
    /// list of expected counts, and a frame that ends at the flags byte
    /// — the layout before the counts — is refused: read as "expect
    /// nothing" it would let an agent combine ahead of its messages.
    #[test]
    fn advance_round_trips_and_old_frames_are_refused(
        run in any::<u64>(),
        step in any::<u32>(),
        phase in 0u8..4,
        n_vertices in any::<u64>(),
        global in -1e12f64..1e12,
        done in any::<bool>(),
        chain in any::<bool>(),
        expect in prop::collection::vec((any::<u64>(), any::<u64>()), 0..9),
    ) {
        let phase = Phase::parse(&[phase]);
        let adv = msg::Advance { run, step, phase, n_vertices, global, done, chain, expect };
        let frame = adv.encode();
        prop_assert_eq!(Advance::decode(&frame), Some(adv.clone()));
        let old = Frame::builder(msg::packet::ADVANCE)
            .u64(run)
            .u32(step)
            .u8(phase as u8)
            .u64(n_vertices)
            .f64(global)
            .u8(done as u8 | (chain as u8) << 1)
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
    #[test]
    fn decoders_reject_wrong_packet_type(
        run in any::<u64>(),
        step in any::<u32>(),
        v in any::<u64>(),
        val in any::<u64>(),
    ) {
        let vm = msg::encode_vmsgs(run, step, &[(v, val)]);
        let pt = msg::encode_partials(run, step, &[(v, val)]);
        let ec = msg::encode_edge_changes(msg::Side::Out, 0, &[EdgeChange::insert(v, val)]);
        let dd = msg::encode_deg_deltas(&[(v, 1, -1)]);
        for frame in [&pt, &ec, &dd] {
            prop_assert!(msg::decode_vmsgs(frame).is_none());
        }
        for frame in [&vm, &ec, &dd] {
            prop_assert!(msg::decode_partials(frame).is_none());
            prop_assert!(msg::decode_states(frame).is_none());
        }
        for frame in [&vm, &pt, &dd] {
            prop_assert!(msg::decode_edge_changes(frame).is_none());
        }
        for frame in [&vm, &pt, &ec] {
            prop_assert!(msg::decode_deg_deltas(frame).is_none());
            prop_assert!(ReadyReport::decode(frame).is_none());
            prop_assert!(Advance::decode(frame).is_none());
        }
        // MIG_EDGES shares EDGE_CHANGES' 17-byte stride; only the type
        // byte tells the two apart.
        let (_, _, _, [ms, me, mm]) = mig_frames(&[(v, val)]);
        for frame in [&vm, &ec, &me, &mm] {
            prop_assert!(msg::decode_mig_states(frame).is_none());
        }
        for frame in [&vm, &ec, &ms, &mm] {
            prop_assert!(msg::decode_mig_edges(frame).is_none());
        }
        for frame in [&vm, &ec, &ms, &me] {
            prop_assert!(msg::decode_mig_meta(frame).is_none());
        }
        prop_assert!(msg::decode_edge_changes(&me).is_none());
    }

    /// Every strict prefix of a valid record-bearing frame must decode
    /// to `None`: the record count promises bytes the prefix lacks, so
    /// truncation can never yield a shorter-but-plausible batch.
    #[test]
    fn decoders_reject_truncated_frames(
        run in any::<u64>(),
        step in any::<u32>(),
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = |frame: &Frame| {
            // Keep at least the type byte; drop at least one byte.
            let n = frame.len();
            let keep = 1 + ((n - 1) as f64 * cut_frac) as usize;
            Frame::from_bytes(frame.as_bytes()[..keep.min(n - 1)].to_vec().into())
        };
        let vm = msg::encode_vmsgs(run, step, &msgs);
        prop_assert!(msg::decode_vmsgs(&cut(&vm)).is_none());
        let pt = msg::encode_partials(run, step, &msgs);
        prop_assert!(msg::decode_partials(&cut(&pt)).is_none());
        let changes: Vec<EdgeChange> =
            msgs.iter().map(|&(u, v)| EdgeChange::insert(u, v)).collect();
        let ec = msg::encode_edge_changes(msg::Side::In, 1, &changes);
        prop_assert!(msg::decode_edge_changes(&cut(&ec)).is_none());
        let deltas: Vec<(u64, i64, i64)> =
            msgs.iter().map(|&(v, d)| (v, d as i64, 1)).collect();
        let dd = msg::encode_deg_deltas(&deltas);
        prop_assert!(msg::decode_deg_deltas(&cut(&dd)).is_none());
        let (_, _, _, [ms, me, mm]) = mig_frames(&msgs);
        prop_assert!(msg::decode_mig_states(&cut(&ms)).is_none());
        prop_assert!(msg::decode_mig_edges(&cut(&me)).is_none());
        prop_assert!(msg::decode_mig_meta(&cut(&mm)).is_none());
    }

    /// A record region that is not an exact multiple of the stride is
    /// malformed: appending 1..stride-1 trailing bytes to a valid frame
    /// must flip every borrowed decoder to `None` (trailing bytes are
    /// rejected, never silently ignored).
    #[test]
    fn decoders_reject_misaligned_trailing_bytes(
        run in any::<u64>(),
        step in any::<u32>(),
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..16),
        pad in prop::collection::vec(any::<u8>(), 1..15),
    ) {
        let extend = |frame: &Frame, n: usize| {
            let mut bytes = frame.as_bytes().to_vec();
            bytes.extend_from_slice(&pad[..n]);
            Frame::from_bytes(bytes.into())
        };
        // Strides: vmsg/partial 16, edge-change and mig-edge 17,
        // deg-delta 24, mig-state 34, mig-meta 71.
        let vm = msg::encode_vmsgs(run, step, &msgs);
        prop_assert!(msg::decode_vmsgs(&extend(&vm, pad.len())).is_none());
        let pt = msg::encode_partials(run, step, &msgs);
        prop_assert!(msg::decode_partials(&extend(&pt, pad.len())).is_none());
        let changes: Vec<EdgeChange> =
            msgs.iter().map(|&(u, v)| EdgeChange::insert(u, v)).collect();
        let ec = msg::encode_edge_changes(msg::Side::Out, 0, &changes);
        prop_assert!(msg::decode_edge_changes(&extend(&ec, pad.len())).is_none());
        let deltas: Vec<(u64, i64, i64)> =
            msgs.iter().map(|&(v, d)| (v, d as i64, -1)).collect();
        let dd = msg::encode_deg_deltas(&deltas);
        prop_assert!(msg::decode_deg_deltas(&extend(&dd, pad.len())).is_none());
        let (_, _, _, [ms, me, mm]) = mig_frames(&msgs);
        prop_assert!(msg::decode_mig_states(&extend(&ms, pad.len())).is_none());
        prop_assert!(msg::decode_mig_edges(&extend(&me, pad.len())).is_none());
        prop_assert!(msg::decode_mig_meta(&extend(&mm, pad.len())).is_none());
    }

    /// Borrowed views round-trip: iterating a decoded view yields the
    /// exact records that were encoded, in order.
    #[test]
    fn borrowed_views_roundtrip(
        run in any::<u64>(),
        step in any::<u32>(),
        msgs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..64,),
        hop in any::<u8>(),
    ) {
        let vm = msg::encode_vmsgs(run, step, &msgs);
        let view = msg::decode_vmsgs(&vm).unwrap();
        prop_assert_eq!((view.run, view.step), (run, step));
        prop_assert_eq!(view.records.len(), msgs.len());
        prop_assert_eq!(view.records.to_vec(), msgs.clone());
        let changes: Vec<EdgeChange> = msgs
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                if i % 2 == 0 { EdgeChange::insert(u, v) } else { EdgeChange::delete(u, v) }
            })
            .collect();
        let ec = msg::encode_edge_changes(msg::Side::In, hop, &changes);
        let view = msg::decode_edge_changes(&ec).unwrap();
        prop_assert_eq!((view.side, view.hop), (msg::Side::In, hop));
        prop_assert_eq!(view.records.to_vec(), changes);
        let deltas: Vec<(u64, i64, i64)> = msgs
            .iter()
            .map(|&(v, d)| (v, d as i64, (d as i64).wrapping_neg()))
            .collect();
        let dd = msg::encode_deg_deltas(&deltas);
        prop_assert_eq!(msg::decode_deg_deltas(&dd).unwrap().to_vec(), deltas);
        if !msgs.is_empty() {
            let (states, edges, metas, [ms, me, mm]) = mig_frames(&msgs);
            prop_assert_eq!(msg::decode_mig_states(&ms).unwrap().to_vec(), states);
            prop_assert_eq!(msg::decode_mig_edges(&me).unwrap().to_vec(), edges);
            let (snap_run, snap_watermark, recs) = msg::decode_mig_meta(&mm).unwrap();
            prop_assert_eq!((snap_run, snap_watermark), (3, 9));
            prop_assert_eq!(recs.to_vec(), metas);
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
        seq in any::<u64>(),
        epoch in any::<u64>(),
        sent in prop::collection::vec((any::<u64>(), any::<u64>()), 0..9),
    ) {
        prop_assume!(!contrib.is_nan());
        let rep = ReadyReport {
            agent,
            run,
            step,
            phase: Phase::parse(&[phase_byte]),
            counters: Counters {
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
            },
            active,
            global_contrib: contrib,
            n_primary,
            seq,
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
        let frame = msg::encode_states(run, step, &records);
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
            dangling_base: x,
            watermark: w[16],
        };
        assert_round_trip(ReadyReport {
            agent: w[17], run: w[18], step: w[19] as u32, phase, counters,
            active: w[20], global_contrib: x, n_primary: w[21], seq: w[22],
            epoch: w[23], sent: list.clone(),
        });
        assert_round_trip(Advance {
            run: w[18], step: w[19] as u32, phase, n_vertices: w[24], global: -x,
            done: bit(3), chain: bit(4), expect: list.clone(),
        });
        assert_round_trip(run);
        assert_round_trip(RunStatus {
            run_id: w[25], running: bit(5), done: bit(6), migrating: bit(7),
            steps: w[26] as u32, n_vertices: w[27], epoch: w[28],
            step_nanos: list.iter().map(|p| p.0).collect(), departed: counters,
        });
        assert_round_trip(msg::DrainReport { counters, epoch: w[29] });
        assert_round_trip(msg::CkptSave { generation: w[30], epoch: w[31], watermark: w[32] });
        assert_round_trip(msg::CkptSaveReport { ok: bit(8), bytes: w[33], nanos: w[34] });
        assert_round_trip(msg::ArmDelta { tag: w[35] as u8, params: [w[36], w[37], w[38]], n: w[39] });
        assert_round_trip(msg::Dangling { mass: x, n: w[40] });
        assert_round_trip(msg::DanglingSet { mass: x, n: w[40], carry: -x });
        assert_round_trip(msg::Heartbeat { agent: w[41] });
        let addr = elga_net::Addr::inproc(format!("client-{}", w[57]));
        let vertices = list.iter().map(|p| p.1).collect();
        assert_round_trip(msg::SubReg { addr, sub: w[58], vertices });
        let side = if bit(11) { msg::Side::In } else { msg::Side::Out };
        let groups = list.iter().map(|&(vertex, state)| msg::CkptEdgeGroup {
            side, vertex, state, has_state: bit(12), rep_out_degree: w[59], active: bit(13),
            others: list.iter().map(|p| p.0 ^ state).collect(),
        }).collect();
        assert_round_trip(msg::CkptEdges { groups });
        assert_round_trip(AgentInfo { id: w[42], addr: elga_net::Addr::inproc(format!("a-{}", w[43])) });
        let members: Vec<u64> = list.iter().map(|p| p.0).collect();
        let view = view_of(&w[44..], &members);
        let back = assert_frame_round_trip(&msg::JoinReply {
            view: view.clone(),
            run: bit(9).then_some(run),
        });
        prop_assert_eq!(back.run, bit(9).then_some(run));
        prop_assert_eq!(back.view.agents, view.agents.clone());
        let back = assert_frame_round_trip(&msg::Recover {
            epoch: w[54], dead_agent: w[55], aborted_run: w[56], view: view.clone(),
        });
        prop_assert_eq!((back.epoch, back.view.sketch), (w[54], view.sketch));
        // The metrics reports: every field a word of `w`, the flag a bit.
        let words = |b: elga_net::frame::FrameBuilder, n: usize| {
            w.iter().cycle().take(n).fold(b, |b, &x| b.u64(x))
        };
        let agent = words(Frame::builder(packet::METRICS), 54).finish();
        assert_round_trip(AgentMetrics::decode(&agent).expect("54 words"));
        let cluster = words(Frame::builder(packet::GET_METRICS), 10).u8(u8::from(bit(10)));
        let cluster = words(cluster, 53).finish();
        assert_round_trip(ClusterMetrics::decode(&cluster).expect("63 words and a flag"));
    }

    /// Counters settle exactly when each pair matches, and `add` is
    /// commutative.
    #[test]
    fn counters_algebra(a in prop::collection::vec(0u64..1000, 10), b in prop::collection::vec(0u64..1000, 10)) {
        let mk = |v: &[u64]| Counters {
            vmsg_sent: v[0], vmsg_recv: v[1],
            part_sent: v[2], part_recv: v[3],
            state_sent: v[4], state_recv: v[5],
            mig_sent: v[6], mig_recv: v[7],
            chg_sent: v[8], chg_recv: v[9],
        };
        let ca = mk(&a);
        let cb = mk(&b);
        prop_assert_eq!(ca.add(&cb), cb.add(&ca));
        let expected = a[0] == a[1] && a[2] == a[3] && a[4] == a[5] && a[6] == a[7] && a[8] == a[9];
        prop_assert_eq!(ca.settled(), expected);
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
