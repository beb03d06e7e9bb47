//! Checkpoint payload codec.
//!
//! One checkpoint *shard* is one agent's entire in-memory graph
//! partition, serialized as a flat little-endian record stream: a `u64`
//! record count, then one [`CkptVertexRecord`] per vertex entry in the
//! agent's deterministic shard order. The same codec is used by the
//! agent when writing a shard (`CKPT_SAVE`) and when loading shards
//! back during recovery (`CKPT_LOAD`) — any member may load any shard,
//! and its placement sweep re-places each record under the
//! *post-recovery* view, so the payload deliberately stores raw
//! adjacency, not placement.
//!
//! Run-state fields (partials, async waiting sets) are not serialized:
//! checkpoints are taken only at quiesced batch boundaries, where no
//! run is in flight and that state is vacant by construction. Neither
//! are parked residuals: the first residual run after a recovery
//! recomputes from scratch, so a restore has nothing to fold. Framing
//! integrity (checksum, length) is `elga-ckpt`'s job; this codec only
//! defines the payload bytes the checksum covers.

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

const FLAG_HAS_STATE: u8 = 1 << 0;
const FLAG_ACTIVE: u8 = 1 << 1;
const FLAG_IS_META: u8 = 1 << 2;
const FLAG_DIRTY: u8 = 1 << 3;

/// Fixed bytes per record before its two endpoint lists.
const RECORD_FIXED: usize = 8 + 8 + 8 + 8 + 8 + 1 + 4 + 4;

/// Serialize `records` into a payload byte vector.
pub fn encode_payload(records: &[CkptVertexRecord]) -> Vec<u8> {
    let edges: usize = records.iter().map(|r| r.out.len() + r.inn.len()).sum();
    let mut b = Vec::with_capacity(8 + records.len() * RECORD_FIXED + edges * 8);
    b.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        b.extend_from_slice(&r.vertex.to_le_bytes());
        b.extend_from_slice(&r.state.to_le_bytes());
        b.extend_from_slice(&r.rep_out_degree.to_le_bytes());
        b.extend_from_slice(&(r.g_out as u64).to_le_bytes());
        b.extend_from_slice(&(r.g_in as u64).to_le_bytes());
        let mut flags = 0u8;
        if r.has_state {
            flags |= FLAG_HAS_STATE;
        }
        if r.active {
            flags |= FLAG_ACTIVE;
        }
        if r.is_meta {
            flags |= FLAG_IS_META;
        }
        if r.dirty {
            flags |= FLAG_DIRTY;
        }
        b.push(flags);
        b.extend_from_slice(&(r.out.len() as u32).to_le_bytes());
        b.extend_from_slice(&(r.inn.len() as u32).to_le_bytes());
        for &w in &r.out {
            b.extend_from_slice(&w.to_le_bytes());
        }
        for &u in &r.inn {
            b.extend_from_slice(&u.to_le_bytes());
        }
    }
    b
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let v = u32::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let v = u64::from_le_bytes(self.bytes.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }
}

/// Parse a payload back into records. `None` on any truncation or
/// trailing garbage — a shard that fails here is treated exactly like
/// a checksum mismatch (the generation is skipped).
pub fn decode_payload(bytes: &[u8]) -> Option<Vec<CkptVertexRecord>> {
    let mut c = Cursor { bytes, pos: 0 };
    let n = c.u64()? as usize;
    // Bound the preallocation by what the payload could actually hold.
    let mut records = Vec::with_capacity(n.min(c.remaining() / RECORD_FIXED));
    for _ in 0..n {
        let vertex = c.u64()?;
        let state = c.u64()?;
        let rep_out_degree = c.u64()?;
        let g_out = c.u64()? as i64;
        let g_in = c.u64()? as i64;
        let flags = c.u8()?;
        if flags & !(FLAG_HAS_STATE | FLAG_ACTIVE | FLAG_IS_META | FLAG_DIRTY) != 0 {
            return None;
        }
        let n_out = c.u32()? as usize;
        let n_in = c.u32()? as usize;
        let mut out = Vec::with_capacity(n_out.min(c.remaining() / 8));
        for _ in 0..n_out {
            out.push(c.u64()?);
        }
        let mut inn = Vec::with_capacity(n_in.min(c.remaining() / 8));
        for _ in 0..n_in {
            inn.push(c.u64()?);
        }
        records.push(CkptVertexRecord {
            vertex,
            state,
            has_state: flags & FLAG_HAS_STATE != 0,
            rep_out_degree,
            active: flags & FLAG_ACTIVE != 0,
            is_meta: flags & FLAG_IS_META != 0,
            dirty: flags & FLAG_DIRTY != 0,
            g_out,
            g_in,
            out,
            inn,
        });
    }
    if c.remaining() != 0 {
        return None;
    }
    Some(records)
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
        let flag_off = 8 + 40; // count + five u64 fields of record 0
        bytes[flag_off] |= 0x80;
        assert!(decode_payload(&bytes).is_none());
    }
}
