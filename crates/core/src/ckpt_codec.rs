//! Checkpoint payload codec.
//!
//! One checkpoint *shard* is one agent's entire in-memory graph
//! partition: a `u64` record count, then one MIG_VERTEX record
//! ([`MigVertex`]) per vertex entry in the agent's deterministic shard
//! order — the record a view change moves a vertex with, its meta
//! carrying the primary's degrees. The same codec is used by the agent
//! when writing a shard (`CKPT_SAVE`) and when loading shards back
//! during recovery (`CKPT_LOAD`) — any member may load any shard, and
//! its placement sweep re-places each record under the *post-recovery*
//! view, so the payload deliberately stores raw adjacency, not
//! placement.
//!
//! Run-state fields (partials, async waiting sets) are not serialized:
//! checkpoints are taken only at quiesced batch boundaries, where no
//! run is in flight and that state is vacant by construction. Neither
//! are parked residuals: the first residual run after a recovery
//! recomputes from scratch, so a restore has nothing to fold. Framing
//! integrity (checksum, length) is `elga-ckpt`'s job; this codec only
//! defines the payload bytes the checksum covers.

use crate::msg::{MigMeta, MigVertex, Records, WireRecord};
use elga_graph::VertexId;

/// One vertex entry as held by an agent: replica-visible fields, both
/// adjacency directions, and (when the holding agent was the primary)
/// the primary-side meta.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CkptVertexRecord {
    /// The vertex.
    pub vertex: VertexId,
    /// Encoded program state (meaningless when `has_state` is false).
    pub state: u64,
    /// Whether `state` is initialized.
    pub has_state: bool,
    /// Replica-visible out-degree snapshot (scatter denominators).
    pub rep_out_degree: u64,
    /// Active flag.
    pub active: bool,
    /// Whether the entry carries primary meta (`g_out`/`g_in`,
    /// existence).
    pub is_meta: bool,
    /// Touched by changes since the last run.
    pub dirty: bool,
    /// Global out-degree accumulated at the primary.
    pub g_out: i64,
    /// Global in-degree accumulated at the primary.
    pub g_in: i64,
    /// Local out-edge targets.
    pub out: Vec<VertexId>,
    /// Local in-edge sources.
    pub inn: Vec<VertexId>,
}

/// The flags of run state, which a checkpoint never holds.
const RUN_STATE: u8 = MigVertex::HAS_PPARTIAL | MigVertex::HAS_RESIDUAL | MigVertex::HAS_SNAP;

/// Serialize `records` into a payload byte vector. A record carries a
/// meta only when it has degrees to keep.
pub fn encode_payload(records: &[CkptVertexRecord]) -> Vec<u8> {
    let mut b = (records.len() as u64).to_le_bytes().to_vec();
    for r in records {
        let bit = |set: bool, bit: u8| if set { bit } else { 0 };
        let meta = (r.is_meta || r.g_out != 0 || r.g_in != 0).then_some(MigMeta {
            out_degree: r.g_out as u64,
            in_degree: r.g_in as u64,
            ..MigMeta::default()
        });
        let head = MigVertex {
            vertex: r.vertex,
            flags: bit(r.has_state, MigVertex::HAS_STATE)
                | bit(r.active, MigVertex::ACTIVE)
                | bit(meta.is_some(), MigVertex::META)
                | bit(r.is_meta, MigVertex::IS_META)
                | bit(r.dirty, MigVertex::DIRTY),
            state: r.state,
            out_degree: r.rep_out_degree,
            aux: 0,
            n_out: r.out.len() as u32,
            n_in: r.inn.len() as u32,
        };
        let at = b.len();
        b.resize(at + MigVertex::STRIDE + head.tail_len(), 0);
        let (slot, tail) = b[at..].split_at_mut(MigVertex::STRIDE);
        head.write(slot);
        MigVertex::write_tail(tail, meta.as_ref(), r.out.iter().chain(&r.inn));
    }
    b
}

/// Parse a payload back into records. `None` on any truncation,
/// trailing garbage or flag a checkpoint does not know — a shard that
/// fails here is treated exactly like a checksum mismatch (the
/// generation is skipped).
pub fn decode_payload(bytes: &[u8]) -> Option<Vec<CkptVertexRecord>> {
    let (n, rest) = bytes.split_first_chunk()?;
    let records = Records::<MigVertex>::new(rest, usize::try_from(u64::from_le_bytes(*n)).ok()?)?;
    let record = |(h, tail): (MigVertex, &[u8])| {
        let (meta, out, inn) = h.read_tail(tail);
        let meta = meta.unwrap_or_default();
        (h.flags & RUN_STATE == 0).then(|| CkptVertexRecord {
            vertex: h.vertex,
            state: h.state,
            has_state: h.has(MigVertex::HAS_STATE),
            rep_out_degree: h.out_degree,
            active: h.has(MigVertex::ACTIVE),
            is_meta: h.has(MigVertex::IS_META),
            dirty: h.has(MigVertex::DIRTY),
            g_out: meta.out_degree as i64,
            g_in: meta.in_degree as i64,
            out: out.to_vec(),
            inn: inn.to_vec(),
        })
    };
    records.tailed().map(record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<CkptVertexRecord> {
        vec![
            CkptVertexRecord {
                vertex: 10,
                state: 42,
                has_state: true,
                rep_out_degree: 3,
                active: true,
                is_meta: true,
                dirty: false,
                g_out: 3,
                g_in: -1,
                out: vec![11, 12, 13],
                inn: vec![9],
            },
            CkptVertexRecord {
                vertex: 11,
                ..CkptVertexRecord::default()
            },
        ]
    }

    #[test]
    fn payload_roundtrip() {
        let records = sample();
        let bytes = encode_payload(&records);
        assert_eq!(decode_payload(&bytes).unwrap(), records);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = encode_payload(&[]);
        assert_eq!(bytes.len(), 8);
        assert_eq!(decode_payload(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let bytes = encode_payload(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_payload(&bytes[..cut]).is_none(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_payload(&sample());
        bytes.push(0);
        assert!(decode_payload(&bytes).is_none());
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        // Future-proofing: a payload written by a newer format must not
        // silently decode with its extra semantics dropped.
        let mut bytes = encode_payload(&sample());
        let flag_off = 8 + 8; // count + the vertex of record 0
        bytes[flag_off] |= 0x80;
        assert!(decode_payload(&bytes).is_none());
    }
}
