//! Wire protocol: packet types and message encodings.
//!
//! "The first byte of any message is a packet type" (§3.5). Every
//! protocol message is hand-encoded with fixed-width little-endian
//! fields over [`elga_net::Frame`] — the paper's "direct memory copies
//! into network buffers". Subscription filtering uses the packet-type
//! byte, so broadcast topics (VIEW, ADVANCE, START, SHUTDOWN) each get
//! their own type.

use elga_graph::types::{Action, EdgeChange, VertexId};
use elga_hash::{AgentId, EdgeLocator, HashKind, LocatorConfig, OwnerCache, Ring};
use elga_net::{Addr, CoalescingOutbox, Frame, FrameReader};
use elga_sketch::cms::DimensionMismatch;
use elga_sketch::{CountMinSketch, SketchDelta};

/// Packet-type bytes.
pub mod packet {
    /// Agent joins (REQ to a Directory; reply is VIEW).
    pub const JOIN: u8 = 1;
    /// Agent announces departure (push to a Directory).
    pub const LEAVE: u8 = 2;
    /// Directory view broadcast (PUB topic).
    pub const VIEW: u8 = 3;
    /// Count-min sketch delta (push, Streamer/Agent → Directory).
    pub const SKETCH_DELTA: u8 = 4;
    /// Edge changes (push, Streamer → Agent, or forwarded Agent →
    /// Agent).
    pub const EDGE_CHANGES: u8 = 5;
    /// Vertex messages (push, Agent → Agent, scatter phase).
    pub const VMSG: u8 = 6;
    /// Partial aggregates (push, replica → primary, combine phase).
    pub const PARTIAL: u8 = 7;
    /// State broadcast (push, primary → replicas, apply phase).
    pub const STATE: u8 = 8;
    /// Barrier report (push, Agent → Directory).
    pub const READY: u8 = 9;
    /// Barrier advance (PUB topic, Directory → Agents).
    pub const ADVANCE: u8 = 10;
    /// Algorithm start (PUB topic).
    pub const START: u8 = 11;
    /// Migrated edges (push, Agent → Agent): packed
    /// [`super::MigEdge`] records.
    pub const MIG_EDGES: u8 = 12;
    /// Migrated primary metadata (push, Agent → Agent): packed
    /// [`super::MetaRecord`] records.
    pub const MIG_META: u8 = 13;
    /// Vertex query (REQ to an Agent).
    pub const QUERY: u8 = 14;
    /// Query reply.
    pub const QUERY_REP: u8 = 15;
    /// Drain request (REQ to an Agent; reply carries counters).
    pub const DRAIN: u8 = 16;
    /// Drain/ready counter snapshot reply.
    pub const COUNTERS: u8 = 17;
    /// Get current view (REQ to a Directory).
    pub const GET_VIEW: u8 = 18;
    /// Run status (REQ to a Directory).
    pub const RUN_STATUS: u8 = 19;
    /// Run status reply.
    pub const RUN_STATUS_REP: u8 = 20;
    /// Metric report (push, Agent → Directory).
    pub const METRICS: u8 = 21;
    /// Aggregated metrics (REQ to a Directory + its reply).
    pub const GET_METRICS: u8 = 22;
    /// Shutdown broadcast (PUB topic).
    pub const SHUTDOWN: u8 = 23;
    /// Directory-to-lead-directory aggregate (push).
    pub const DIR_AGG: u8 = 24;
    /// Bootstrap: ask the DirectoryMaster for a Directory (REQ).
    pub const GET_DIRECTORY: u8 = 25;
    /// Directory registers itself with the DirectoryMaster (REQ).
    pub const DIR_REGISTER: u8 = 26;
    /// Generic OK reply.
    pub const OK: u8 = 27;
    /// WCC-style label reset broadcast (PUB topic).
    pub const RESET_LABELS: u8 = 28;
    /// Global degree deltas (push, Agent → primary Agent).
    pub const DEG_DELTA: u8 = 29;
    /// Join reply (view + optional in-progress run description).
    pub const JOIN_REP: u8 = 30;
    /// Bulk state dump (REQ to an Agent; reply lists its primary
    /// vertices' states).
    pub const DUMP: u8 = 31;
    /// Liveness heartbeat (push, Agent → Directory → lead).
    pub const HEARTBEAT: u8 = 32;
    /// Failure-recovery broadcast (PUB topic): an agent was declared
    /// dead; survivors reset and the driver replays retained changes.
    pub const RECOVER: u8 = 33;
    /// Test-harness kill switch (push to an Agent): die immediately
    /// without the polite LEAVE protocol, simulating a crash.
    pub const KILL: u8 = 34;
    /// Drain a participant's trace ring buffer (request; reply carries
    /// `elga_trace::encode_events` bytes).
    pub const TRACE_DUMP: u8 = 35;
    /// Checkpoint request (REQ to an Agent): serialize and durably
    /// write one shard of the named generation; the reply reports the
    /// write outcome.
    pub const CKPT_SAVE: u8 = 36;
    /// Checkpoint restore: edge records re-routed by the driver under
    /// the post-recovery view (push, driver → Agent). Same vocabulary
    /// as MIG_EDGES but *uncounted* — restore injection happens outside
    /// any barrier and must not disturb the Mattern counters.
    pub const CKPT_EDGES: u8 = 37;
    /// Checkpoint restore: primary-side meta records (push, driver →
    /// Agent). Uncounted, like CKPT_EDGES.
    pub const CKPT_META: u8 = 38;
    /// Ingest-time residual corrections for incremental (delta) runs:
    /// `(vertex, residual)` pushes routed to the vertex's primary,
    /// merged into its stored residual via the program's
    /// `merge_residual`. Counted under the change class (`chg_*`) like
    /// DEG_DELTA — corrections travel with the batch, never inside a
    /// run's barriers.
    pub const RESIDUAL: u8 = 39;
    /// Batched multi-vertex query (REQ, client → Agent): a
    /// [`Records`]-framed list of vertex ids, answered by one
    /// QUERY_BATCH_REP. The batch form of QUERY — one round trip and
    /// one frame pair for any number of vertices.
    pub const QUERY_BATCH: u8 = 40;
    /// Reply to QUERY_BATCH: per-vertex `(vertex, found, state)`
    /// records plus the snapshot tag (run id + batch watermark) the
    /// answers were served under.
    pub const QUERY_BATCH_REP: u8 = 41;
    /// Standing-subscription registration (REQ, client → Agent): the
    /// client's push address plus the vertex set it watches. The agent
    /// pushes SUB_PUSH deltas whenever a completed run changed a
    /// watched vertex.
    pub const SUB_REG: u8 = 42;
    /// Subscription push (Agent → client): `(vertex, state)` records
    /// tagged with the completed run id and batch watermark. Uncounted
    /// client-plane traffic, flushed through the per-destination
    /// coalescers like every other bulk record stream.
    pub const SUB_PUSH: u8 = 43;
    /// Re-arm the residual delta seed after a checkpoint restore (REQ,
    /// driver → Agent): program spec plus the vertex count the restored
    /// states converged under. The recovery reset wipes the seed; the
    /// replayed log suffix regenerates its residual corrections only if
    /// the seed is re-armed *before* the replay routes the changes.
    pub const ARM_DELTA: u8 = 44;
    /// Read the lead's dangling-mass book `(S, n)` (REQ, driver →
    /// lead); answered with DANGLING_REP. Captured into checkpoint
    /// manifests so a restore can rebuild the book.
    pub const DANGLING_GET: u8 = 45;
    /// Reply to DANGLING_GET.
    pub const DANGLING_REP: u8 = 46;
    /// Restore the lead's dangling-mass book after a checkpoint
    /// restore (REQ, driver → lead): the manifest's `(S, n)` plus a
    /// carry term for mass the restored states hold beyond `S` (the
    /// agents' unreported accumulators died with them; the driver
    /// recomputes the difference from the restored shards).
    pub const DANGLING_SET: u8 = 47;
    /// Agent → Agent: replica snapshots of vertices whose edges are
    /// migrating (packed [`super::MigState`] records), sent ahead of
    /// the MIG_EDGES that move the edges themselves.
    pub const MIG_STATE: u8 = 48;
}

/// Superstep phases (see crate docs). `Migrate` barriers elastic
/// membership changes with the same counting machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Scatter program messages along local edges.
    Scatter = 0,
    /// Forward partial aggregates to primaries.
    Combine = 1,
    /// Apply at primaries and broadcast state to replicas.
    Apply = 2,
    /// Migrate edges/state after a membership or sketch change.
    Migrate = 3,
}

impl Phase {
    /// Decode from its wire byte.
    pub fn from_u8(b: u8) -> Option<Phase> {
        match b {
            0 => Some(Phase::Scatter),
            1 => Some(Phase::Combine),
            2 => Some(Phase::Apply),
            3 => Some(Phase::Migrate),
            _ => None,
        }
    }
}

/// Cumulative per-agent message counters, compared pairwise by the
/// directory for Mattern-style termination/barrier detection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Scatter messages sent / received (per entry, not per frame).
    pub vmsg_sent: u64,
    /// Scatter messages received.
    pub vmsg_recv: u64,
    /// Partial aggregates sent.
    pub part_sent: u64,
    /// Partial aggregates received.
    pub part_recv: u64,
    /// State broadcasts sent.
    pub state_sent: u64,
    /// State broadcasts received.
    pub state_recv: u64,
    /// Migration records sent.
    pub mig_sent: u64,
    /// Migration records received.
    pub mig_recv: u64,
    /// Edge-change records sent onward (forwarding).
    pub chg_sent: u64,
    /// Edge-change records received.
    pub chg_recv: u64,
}

impl Counters {
    /// Element-wise sum.
    pub fn add(&self, other: &Counters) -> Counters {
        Counters {
            vmsg_sent: self.vmsg_sent + other.vmsg_sent,
            vmsg_recv: self.vmsg_recv + other.vmsg_recv,
            part_sent: self.part_sent + other.part_sent,
            part_recv: self.part_recv + other.part_recv,
            state_sent: self.state_sent + other.state_sent,
            state_recv: self.state_recv + other.state_recv,
            mig_sent: self.mig_sent + other.mig_sent,
            mig_recv: self.mig_recv + other.mig_recv,
            chg_sent: self.chg_sent + other.chg_sent,
            chg_recv: self.chg_recv + other.chg_recv,
        }
    }

    /// True when every sent counter equals its received counter — the
    /// no-messages-in-flight condition.
    pub fn settled(&self) -> bool {
        self.vmsg_sent == self.vmsg_recv
            && self.part_sent == self.part_recv
            && self.state_sent == self.state_recv
            && self.mig_sent == self.mig_recv
            && self.chg_sent == self.chg_recv
    }

    /// [`Counters::settled`] for every pair but the vertex messages: a
    /// Scatter barrier closes on the senders' reports, and each
    /// receiver waits for its own count of them.
    pub fn settled_but_vmsg(&self) -> bool {
        Counters {
            vmsg_recv: self.vmsg_sent,
            ..*self
        }
        .settled()
    }

    /// The `(name, sent, received)` pairs, in wire order.
    pub fn pairs(&self) -> [(&'static str, u64, u64); 5] {
        [
            ("vmsg", self.vmsg_sent, self.vmsg_recv),
            ("part", self.part_sent, self.part_recv),
            ("state", self.state_sent, self.state_recv),
            ("mig", self.mig_sent, self.mig_recv),
            ("chg", self.chg_sent, self.chg_recv),
        ]
    }

    fn encode_into(&self, b: elga_net::frame::FrameBuilder) -> elga_net::frame::FrameBuilder {
        b.u64(self.vmsg_sent)
            .u64(self.vmsg_recv)
            .u64(self.part_sent)
            .u64(self.part_recv)
            .u64(self.state_sent)
            .u64(self.state_recv)
            .u64(self.mig_sent)
            .u64(self.mig_recv)
            .u64(self.chg_sent)
            .u64(self.chg_recv)
    }

    fn decode(r: &mut FrameReader<'_>) -> Option<Counters> {
        Some(Counters {
            vmsg_sent: r.u64()?,
            vmsg_recv: r.u64()?,
            part_sent: r.u64()?,
            part_recv: r.u64()?,
            state_sent: r.u64()?,
            state_recv: r.u64()?,
            mig_sent: r.u64()?,
            mig_recv: r.u64()?,
            chg_sent: r.u64()?,
            chg_recv: r.u64()?,
        })
    }
}

/// One agent's registration record in the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentInfo {
    /// Agent id (ring key).
    pub id: AgentId,
    /// The agent's mailbox address.
    pub addr: Addr,
}

/// The broadcast directory view: everything a Participant needs to
/// locate any edge (§3.3). Size is `O(P + d·w)` as in the paper.
#[derive(Debug, Clone)]
pub struct DirectoryView {
    /// Monotone version; bumped on membership or sketch change.
    pub epoch: u64,
    /// Current batch clock (§3.3).
    pub batch_id: u64,
    /// Latest known global vertex count (for programs needing `n`).
    pub n_vertices: u64,
    /// Registered agents.
    pub agents: Vec<AgentInfo>,
    /// Degree sketch.
    pub sketch: CountMinSketch,
    /// Ring hash function.
    pub hash: HashKind,
    /// Virtual agents per agent.
    pub virtual_agents: u32,
    /// Replication threshold (estimated degree per replica).
    pub replication_threshold: u64,
    /// Max replicas per vertex.
    pub max_replicas: u32,
}

impl DirectoryView {
    /// Build the locator implied by this view.
    pub fn locator(&self) -> EdgeLocator {
        let ring = Ring::from_agents(
            self.hash,
            self.virtual_agents,
            self.agents.iter().map(|a| a.id),
        );
        EdgeLocator::new(ring, self.locator_config())
    }

    fn locator_config(&self) -> LocatorConfig {
        LocatorConfig {
            replication_threshold: self.replication_threshold,
            max_replicas: self.max_replicas,
        }
    }

    /// Whether any vertex *can* be split over several agents (`k > 1`)
    /// under this view. A property of the view, not of a vertex sweep:
    /// `k(v) > 1` needs `estimate(v)` over the replication threshold,
    /// and the sketch's smallest row maximum bounds every estimate. The
    /// bound is conservative — `true` promises nothing, `false` does.
    pub fn may_split(&self) -> bool {
        let bound = self.sketch.estimate_bound();
        self.locator_config()
            .replication_factor(bound, self.agents.len())
            > 1
    }

    /// Bring an owner memo to this view: its epoch, and — through
    /// whether the view can split a vertex — what the memo may keep
    /// from earlier ones ([`OwnerCache::adopt_epoch`]). Every lookup
    /// that follows must use this view's locator.
    pub fn advance_memo(&self, cache: &mut OwnerCache) {
        cache.adopt_epoch(self.epoch, self.may_split());
    }

    /// Address of an agent by id.
    pub fn addr_of(&self, id: AgentId) -> Option<&Addr> {
        self.agents.iter().find(|a| a.id == id).map(|a| &a.addr)
    }

    /// Estimated degree of `v` from the view's sketch.
    pub fn degree_estimate(&self, v: VertexId) -> u64 {
        self.sketch.estimate(v)
    }

    /// Encode as a VIEW frame.
    pub fn encode(&self) -> Frame {
        let mut b = Frame::builder(packet::VIEW)
            .u64(self.epoch)
            .u64(self.batch_id)
            .u64(self.n_vertices)
            .u8(hash_to_u8(self.hash))
            .u32(self.virtual_agents)
            .u64(self.replication_threshold)
            .u32(self.max_replicas)
            .u32(self.agents.len() as u32);
        for a in &self.agents {
            b = b.u64(a.id).bytes(a.addr.to_string().as_bytes());
        }
        write_sketch(b, &self.sketch).finish()
    }

    /// Decode a VIEW frame.
    pub fn decode(frame: &Frame) -> Option<DirectoryView> {
        Self::decode_slice(frame.as_bytes())
    }

    /// Decode a VIEW encoding from raw bytes (first byte is the packet
    /// type). Lets a view nested inside another message — a join reply
    /// or recover broadcast — be parsed straight from the borrowed
    /// length-prefixed field, with no intermediate copy into a fresh
    /// `Frame`.
    pub fn decode_slice(buf: &[u8]) -> Option<DirectoryView> {
        if buf.first() != Some(&packet::VIEW) {
            return None;
        }
        let mut r = FrameReader::new(&buf[1..]);
        let epoch = r.u64()?;
        let batch_id = r.u64()?;
        let n_vertices = r.u64()?;
        let hash = hash_from_u8(r.u8()?)?;
        let virtual_agents = r.u32()?;
        let replication_threshold = r.u64()?;
        let max_replicas = r.u32()?;
        let n_agents = r.u32()? as usize;
        // 12 bytes minimum per agent record (id + length-prefixed addr).
        let mut agents = Vec::with_capacity(n_agents.min(r.remaining() / 12));
        for _ in 0..n_agents {
            let id = r.u64()?;
            let addr = Addr::parse(std::str::from_utf8(r.bytes()?).ok()?).ok()?;
            agents.push(AgentInfo { id, addr });
        }
        let sketch = read_sketch(&mut r)?;
        Some(DirectoryView {
            epoch,
            batch_id,
            n_vertices,
            agents,
            sketch,
            hash,
            virtual_agents,
            replication_threshold,
            max_replicas,
        })
    }
}

/// Append a sketch: `width, depth, items`, then the counter table as
/// one length-prefixed little-endian dump, written a row at a time
/// straight into the builder.
fn write_sketch(
    b: elga_net::frame::FrameBuilder,
    sketch: &CountMinSketch,
) -> elga_net::frame::FrameBuilder {
    let b = b
        .u32(sketch.width() as u32)
        .u32(sketch.depth() as u32)
        .u64(sketch.items())
        .u32(sketch.table_bytes() as u32);
    (0..sketch.depth()).fold(b, |b, row| b.u32s(sketch.row(row).iter().copied()))
}

/// Read what [`write_sketch`] wrote; `None` when the table length does
/// not match the dimensions.
fn read_sketch(r: &mut FrameReader<'_>) -> Option<CountMinSketch> {
    let width = r.u32()? as usize;
    let depth = r.u32()? as usize;
    let items = r.u64()?;
    let raw = r.bytes()?;
    let expected = width.checked_mul(depth).and_then(|x| x.checked_mul(4))?;
    if raw.len() != expected {
        return None;
    }
    let cells: Vec<u32> = raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    CountMinSketch::from_parts(width, depth, cells, items)
}

/// Reader over `frame`'s payload, or `None` when the packet type is
/// not `ty` — every decoder starts here so a frame routed to the wrong
/// decoder surfaces as a parse failure, never a misread.
fn expect(frame: &Frame, ty: u8) -> Option<FrameReader<'_>> {
    (frame.packet_type() == ty).then(|| frame.reader())
}

/// A fixed-stride packed wire record: the one definition of a record
/// type's layout, written into and parsed out of a frame payload in
/// place.
///
/// Records are `STRIDE` bytes of little-endian fields with no padding.
/// `write` fills one record's slot; every record region on the wire —
/// a coalesced frame ([`append_records`]) or a one-shot `encode_*`
/// frame — is a run of them. `validate` pre-screens one raw chunk
/// (e.g. the EDGE_CHANGES action byte must be 0 or 1); once a
/// [`Records`] view is constructed, every chunk has passed it and
/// `parse` runs infallibly during iteration.
pub trait WireRecord: Sized {
    /// Bytes per record on the wire.
    const STRIDE: usize;

    /// Whether a raw `STRIDE`-byte chunk is a well-formed record.
    fn validate(_chunk: &[u8]) -> bool {
        true
    }

    /// Parse a validated `STRIDE`-byte chunk.
    fn parse(chunk: &[u8]) -> Self;

    /// Write the record into its `STRIDE`-byte slot; `parse` of the
    /// slot gives the record back.
    fn write(&self, slot: &mut [u8]);
}

/// Append a run of records to `out`'s open `(ty, key)` frame — the
/// block writer every data-plane send goes through. `header` follows
/// the packet type in each frame the run opens; `key` must differ
/// wherever `header` does, so records never land under the wrong one.
/// The frames are byte-identical to [`encode_records`]' for the same
/// header and records, so one `decode_*` reads both.
pub fn append_records<T: WireRecord>(
    out: &mut CoalescingOutbox,
    ty: u8,
    key: u64,
    header: &[u8],
    recs: &[T],
) {
    out.append_records(ty, key, header, T::STRIDE, recs, T::write);
}

/// Encode one frame: packet type `ty`, `header`, a `u32` record count
/// and the packed records.
fn encode_records<T: WireRecord>(ty: u8, header: &[u8], recs: &[T]) -> Frame {
    Frame::builder(ty)
        .raw(header)
        .records(T::STRIDE, recs, T::write)
        .finish()
}

/// Decode a frame that is nothing but packet type `ty`, a `u32` record
/// count and that many packed records, into a borrowed view.
fn decode_records<T: WireRecord>(frame: &Frame, ty: u8) -> Option<Records<'_, T>> {
    let mut r = expect(frame, ty)?;
    let n = r.u32()? as usize;
    Records::new(r.rest(), n)
}

#[inline]
fn le_u64(chunk: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(chunk[at..at + 8].try_into().unwrap())
}

#[inline]
fn put_u64(slot: &mut [u8], at: usize, v: u64) {
    slot[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Two `u64`s side by side: the header of the frames tagged with a
/// serving snapshot.
fn header_u64s(a: u64, b: u64) -> [u8; 16] {
    let mut h = [0; 16];
    put_u64(&mut h, 0, a);
    put_u64(&mut h, 8, b);
    h
}

/// A borrowed, validated view over the packed record region of a frame
/// payload.
///
/// Construction checks the record count against the region length
/// (exact multiple of the stride — trailing bytes are malformed, not
/// ignored) and validates every record once; iteration then parses in
/// place with zero per-record allocation. The records live in the
/// frame's pooled, `Arc`-shared receive buffer for as long as the
/// frame is alive; the view borrows the frame, so consuming a view
/// never outlives its bytes.
#[derive(Debug)]
pub struct Records<'a, T> {
    buf: &'a [u8],
    _marker: std::marker::PhantomData<fn() -> T>,
}

// Manual impls: the view is a fat pointer regardless of `T`, so no
// `T: Copy` bound (derive would add one).
impl<T> Clone for Records<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Records<'_, T> {}

/// Iterator over a [`Records`] view, parsing each record in place.
///
/// A concrete struct rather than an `iter::Map` with a fn pointer so
/// `T::parse` stays statically dispatched — the per-record parse
/// inlines into the consumer's loop.
#[derive(Debug, Clone)]
pub struct RecordsIter<'a, T> {
    chunks: std::slice::ChunksExact<'a, u8>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: WireRecord> Iterator for RecordsIter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        self.chunks.next().map(T::parse)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.chunks.size_hint()
    }
}

impl<T: WireRecord> ExactSizeIterator for RecordsIter<'_, T> {}

impl<T: WireRecord> DoubleEndedIterator for RecordsIter<'_, T> {
    fn next_back(&mut self) -> Option<T> {
        self.chunks.next_back().map(T::parse)
    }
}

impl<'a, T: WireRecord> Records<'a, T> {
    fn new(buf: &'a [u8], n: usize) -> Option<Self> {
        if buf.len() != n.checked_mul(T::STRIDE)? {
            return None;
        }
        if !buf.chunks_exact(T::STRIDE).all(T::validate) {
            return None;
        }
        Some(Records {
            buf,
            _marker: std::marker::PhantomData,
        })
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.buf.len() / T::STRIDE
    }

    /// True when the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Iterate, parsing each record off the borrowed payload.
    pub fn iter(&self) -> RecordsIter<'a, T> {
        (*self).into_iter()
    }

    /// Materialize into a `Vec` (tests and cold paths only — the hot
    /// path iterates).
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }
}

impl<'a, T: WireRecord> IntoIterator for Records<'a, T> {
    type Item = T;
    type IntoIter = RecordsIter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        RecordsIter {
            chunks: self.buf.chunks_exact(T::STRIDE),
            _marker: std::marker::PhantomData,
        }
    }
}

/// VMSG / PARTIAL record: `(target, value)`, 16 bytes.
impl WireRecord for (VertexId, u64) {
    const STRIDE: usize = 16;

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        (le_u64(chunk, 0), le_u64(chunk, 8))
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        put_u64(slot, 0, self.0);
        put_u64(slot, 8, self.1);
    }
}

/// STATE record: vertex + state + out-degree + aux + active flag,
/// 33 bytes. `aux` carries the applied delta on incremental runs
/// (zero otherwise).
impl WireRecord for StateRecord {
    const STRIDE: usize = 33;

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        StateRecord {
            vertex: le_u64(chunk, 0),
            state: le_u64(chunk, 8),
            out_degree: le_u64(chunk, 16),
            aux: le_u64(chunk, 24),
            active: chunk[32] != 0,
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        put_u64(slot, 0, self.vertex);
        put_u64(slot, 8, self.state);
        put_u64(slot, 16, self.out_degree);
        put_u64(slot, 24, self.aux);
        slot[32] = self.active as u8;
    }
}

/// EDGE_CHANGES record: action byte + src + dst, 17 bytes.
impl WireRecord for EdgeChange {
    const STRIDE: usize = 17;

    #[inline]
    fn validate(chunk: &[u8]) -> bool {
        chunk[0] <= 1
    }

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        EdgeChange {
            action: if chunk[0] == 0 {
                Action::Insert
            } else {
                Action::Delete
            },
            edge: (le_u64(chunk, 1), le_u64(chunk, 9)).into(),
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        slot[0] = match self.action {
            Action::Insert => 0,
            Action::Delete => 1,
        };
        put_u64(slot, 1, self.edge.src);
        put_u64(slot, 9, self.edge.dst);
    }
}

/// DEG_DELTA record: vertex + out-delta + in-delta, 24 bytes.
impl WireRecord for (VertexId, i64, i64) {
    const STRIDE: usize = 24;

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        (
            le_u64(chunk, 0),
            le_u64(chunk, 8) as i64,
            le_u64(chunk, 16) as i64,
        )
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        put_u64(slot, 0, self.0);
        put_u64(slot, 8, self.1 as u64);
        put_u64(slot, 16, self.2 as u64);
    }
}

/// QUERY_BATCH record: one bare vertex id, 8 bytes.
impl WireRecord for VertexId {
    const STRIDE: usize = 8;

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        le_u64(chunk, 0)
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        put_u64(slot, 0, *self);
    }
}

/// Answer code in a query reply: the responding replica holds no state
/// for the vertex. Not authoritative — the caller should try another
/// replica.
pub const ANSWER_MISS: u8 = 0;
/// Answer code in a query reply: vertex found, its state is valid.
pub const ANSWER_HIT: u8 = 1;
/// Answer code in a query reply: the responding agent is the vertex's
/// primary under the current view and the vertex does not exist. An
/// authoritative negative — callers stop searching.
pub const ANSWER_GONE: u8 = 2;

/// One vertex's answer inside a QUERY_BATCH_REP frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The queried vertex.
    pub vertex: VertexId,
    /// Program state (meaningless unless `found == ANSWER_HIT`).
    pub state: u64,
    /// [`ANSWER_MISS`], [`ANSWER_HIT`] or [`ANSWER_GONE`].
    pub found: u8,
}

/// QUERY_BATCH_REP record: vertex + state + answer code, 17 bytes.
impl WireRecord for QueryAnswer {
    const STRIDE: usize = 17;

    #[inline]
    fn validate(chunk: &[u8]) -> bool {
        chunk[16] <= ANSWER_GONE
    }

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        QueryAnswer {
            vertex: le_u64(chunk, 0),
            state: le_u64(chunk, 8),
            found: chunk[16],
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        put_u64(slot, 0, self.vertex);
        put_u64(slot, 8, self.state);
        slot[16] = self.found;
    }
}

fn hash_to_u8(h: HashKind) -> u8 {
    match h {
        HashKind::Wang => 0,
        HashKind::Mult => 1,
        HashKind::Abseil => 2,
        HashKind::Crc64 => 3,
    }
}

fn hash_from_u8(b: u8) -> Option<HashKind> {
    match b {
        0 => Some(HashKind::Wang),
        1 => Some(HashKind::Mult),
        2 => Some(HashKind::Abseil),
        3 => Some(HashKind::Crc64),
        _ => None,
    }
}

/// Which placement an edge-change record targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Out-edge of the change's `src`, placed by `owner(src, dst)`.
    Out,
    /// In-edge of the change's `dst`, placed by `owner(dst, src)`.
    In,
}

/// Wire code of a placement side.
fn side_byte(side: Side) -> u8 {
    match side {
        Side::Out => 0,
        Side::In => 1,
    }
}

/// Encode a batch of edge changes for one placement side.
pub fn encode_edge_changes(side: Side, hop: u8, changes: &[EdgeChange]) -> Frame {
    encode_records(packet::EDGE_CHANGES, &[side_byte(side), hop], changes)
}

/// Append edge changes to `out`'s open EDGE_CHANGES frame for
/// `(side, hop)`.
pub fn append_edge_changes(
    out: &mut CoalescingOutbox,
    side: Side,
    hop: u8,
    changes: &[EdgeChange],
) {
    let header = [side_byte(side), hop];
    let key = u64::from(u16::from_le_bytes(header));
    append_records(out, packet::EDGE_CHANGES, key, &header, changes);
}

/// Append one edge change: [`append_edge_changes`] of a slice of one.
pub fn append_edge_change(out: &mut CoalescingOutbox, side: Side, hop: u8, change: &EdgeChange) {
    append_edge_changes(out, side, hop, std::slice::from_ref(change));
}

/// Borrowed EDGE_CHANGES payload: placement side, forwarding hop, and
/// the packed change records parsed in place off the frame.
#[derive(Debug, Clone, Copy)]
pub struct EdgeChangesView<'a> {
    /// Which placement the records target.
    pub side: Side,
    /// Forwarding hop count.
    pub hop: u8,
    /// The packed records.
    pub records: Records<'a, EdgeChange>,
}

/// Decode an EDGE_CHANGES frame into a borrowed view. `None` on a
/// wrong packet type, a bad side or action byte, or a record region
/// that is not exactly `n` records long.
pub fn decode_edge_changes(frame: &Frame) -> Option<EdgeChangesView<'_>> {
    let mut r = expect(frame, packet::EDGE_CHANGES)?;
    let side = match r.u8()? {
        0 => Side::Out,
        1 => Side::In,
        _ => return None,
    };
    let hop = r.u8()?;
    let n = r.u32()? as usize;
    Some(EdgeChangesView {
        side,
        hop,
        records: Records::new(r.rest(), n)?,
    })
}

/// The `(run, step)` header VMSG, PARTIAL and STATE frames share.
fn run_step_header(run: u64, step: u32) -> [u8; 12] {
    let mut h = [0; 12];
    put_u64(&mut h, 0, run);
    h[8..].copy_from_slice(&step.to_le_bytes());
    h
}

/// Append `recs` to `out`'s open `ty` frame for `(run, step)`. Run
/// ids are small monotone counters, so packing them beside the step
/// gives every distinct header its own coalescing key.
fn append_run_step<T: WireRecord>(
    out: &mut CoalescingOutbox,
    ty: u8,
    run: u64,
    step: u32,
    recs: &[T],
) {
    let key = (run << 32) | u64::from(step);
    append_records(out, ty, key, &run_step_header(run, step), recs);
}

/// Encode vertex messages: `(run, step, [(target, value)])`.
pub fn encode_vmsgs(run: u64, step: u32, msgs: &[(VertexId, u64)]) -> Frame {
    encode_records(packet::VMSG, &run_step_header(run, step), msgs)
}

/// Append vertex messages to `out`'s open VMSG frame for run/step.
pub fn append_vmsgs(out: &mut CoalescingOutbox, run: u64, step: u32, msgs: &[(VertexId, u64)]) {
    append_run_step(out, packet::VMSG, run, step, msgs);
}

/// Borrowed VMSG / PARTIAL payload: run header plus packed
/// `(target, value)` records parsed in place off the frame.
#[derive(Debug, Clone, Copy)]
pub struct ValuesView<'a> {
    /// Run id.
    pub run: u64,
    /// Superstep.
    pub step: u32,
    /// The packed records.
    pub records: Records<'a, (VertexId, u64)>,
}

fn decode_values(frame: &Frame, ty: u8) -> Option<ValuesView<'_>> {
    let mut r = expect(frame, ty)?;
    let run = r.u64()?;
    let step = r.u32()?;
    let n = r.u32()? as usize;
    Some(ValuesView {
        run,
        step,
        records: Records::new(r.rest(), n)?,
    })
}

/// Decode a VMSG frame into a borrowed view.
pub fn decode_vmsgs(frame: &Frame) -> Option<ValuesView<'_>> {
    decode_values(frame, packet::VMSG)
}

/// Encode partial aggregates: `(run, step, [(vertex, agg)])`. Shares
/// the VMSG payload shape under its own packet type.
pub fn encode_partials(run: u64, step: u32, parts: &[(VertexId, u64)]) -> Frame {
    encode_records(packet::PARTIAL, &run_step_header(run, step), parts)
}

/// Append partial aggregates to `out`'s open PARTIAL frame.
pub fn append_partials(out: &mut CoalescingOutbox, run: u64, step: u32, parts: &[(VertexId, u64)]) {
    append_run_step(out, packet::PARTIAL, run, step, parts);
}

/// Decode a PARTIAL frame (same payload as VMSG) into a borrowed view.
pub fn decode_partials(frame: &Frame) -> Option<ValuesView<'_>> {
    decode_values(frame, packet::PARTIAL)
}

/// One state-broadcast record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRecord {
    /// The vertex.
    pub vertex: VertexId,
    /// Its new (encoded) state.
    pub state: u64,
    /// Its global out-degree.
    pub out_degree: u64,
    /// On incremental (delta) runs: the applied delta the replicas
    /// scatter via `scatter_delta`. Zero on full runs.
    pub aux: u64,
    /// Whether it is active next superstep.
    pub active: bool,
}

/// Encode state broadcasts.
pub fn encode_states(run: u64, step: u32, recs: &[StateRecord]) -> Frame {
    encode_records(packet::STATE, &run_step_header(run, step), recs)
}

/// Append state broadcasts to `out`'s open STATE frame.
pub fn append_states(out: &mut CoalescingOutbox, run: u64, step: u32, recs: &[StateRecord]) {
    append_run_step(out, packet::STATE, run, step, recs);
}

/// Borrowed STATE payload: run header plus packed [`StateRecord`]s
/// parsed in place off the frame.
#[derive(Debug, Clone, Copy)]
pub struct StatesView<'a> {
    /// Run id.
    pub run: u64,
    /// Superstep.
    pub step: u32,
    /// The packed records.
    pub records: Records<'a, StateRecord>,
}

/// Decode a STATE frame into a borrowed view.
pub fn decode_states(frame: &Frame) -> Option<StatesView<'_>> {
    let mut r = expect(frame, packet::STATE)?;
    let run = r.u64()?;
    let step = r.u32()?;
    let n = r.u32()? as usize;
    Some(StatesView {
        run,
        step,
        records: Records::new(r.rest(), n)?,
    })
}

/// A barrier report from an agent.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadyReport {
    /// Reporting agent.
    pub agent: AgentId,
    /// Run id (0 when idle / migrating outside a run).
    pub run: u64,
    /// Superstep.
    pub step: u32,
    /// Phase the agent finished local work for.
    pub phase: Phase,
    /// Cumulative counters.
    pub counters: Counters,
    /// Vertices active for the next step (phase Apply only).
    pub active: u64,
    /// Program's global-reduce contribution (e.g. dangling PageRank
    /// mass).
    pub global_contrib: f64,
    /// Vertices this agent is primary for.
    pub n_primary: u64,
    /// Per-agent monotone report sequence. A retransmitting transport
    /// can reorder pushes; the lead discards any report older than the
    /// one it already holds, so a stale snapshot can never overwrite a
    /// fresh one and wedge a barrier.
    pub seq: u64,
    /// The reporter's adopted view epoch. Async idle reports are only
    /// trusted when this matches the lead's current epoch, so a report
    /// predating a mid-run migration can never settle the restarted
    /// termination detector against post-migration counters.
    pub epoch: u64,
    /// Only on a sync run's `phase == Scatter`: the VMSG records this
    /// step's scatter put on the wire, per destination it sent to. The
    /// lead sums them per receiver and closes the Scatter barrier on
    /// what was sent; a re-sent report repeats the list as it was.
    pub sent: StepCounts,
}

/// VMSG record counts of one step's scatter, keyed by agent and sorted
/// by it: what one sender put on the wire per destination (READY), or
/// what each receiver has to take in (ADVANCE). Only non-zero entries
/// are listed.
pub type StepCounts = Vec<(AgentId, u64)>;

/// Append `counts` as `u32 n` + `n × (u64 agent, u64 records)`. Always
/// the last field of its frame.
fn put_counts(
    b: elga_net::frame::FrameBuilder,
    counts: &[(AgentId, u64)],
) -> elga_net::frame::FrameBuilder {
    counts
        .iter()
        .fold(b.u32(counts.len() as u32), |b, &(agent, n)| {
            b.u64(agent).u64(n)
        })
}

/// Read the list [`put_counts`] wrote. It must end the frame exactly:
/// a frame from before the list ends where the length would be and is
/// refused — read as "nothing sent" it would release a Scatter barrier
/// ahead of its messages.
fn take_counts(r: &mut FrameReader<'_>) -> Option<StepCounts> {
    let n = r.u32()? as usize;
    if r.remaining() != n.checked_mul(16)? {
        return None;
    }
    (0..n).map(|_| Some((r.u64()?, r.u64()?))).collect()
}

/// Encode a READY frame.
pub fn encode_ready(r: &ReadyReport) -> Frame {
    let b = Frame::builder(packet::READY)
        .u64(r.agent)
        .u64(r.run)
        .u32(r.step)
        .u8(r.phase as u8);
    let b = r
        .counters
        .encode_into(b)
        .u64(r.active)
        .f64(r.global_contrib)
        .u64(r.n_primary)
        .u64(r.seq)
        .u64(r.epoch);
    put_counts(b, &r.sent).finish()
}

/// Decode a READY frame.
pub fn decode_ready(frame: &Frame) -> Option<ReadyReport> {
    let mut r = expect(frame, packet::READY)?;
    Some(ReadyReport {
        agent: r.u64()?,
        run: r.u64()?,
        step: r.u32()?,
        phase: Phase::from_u8(r.u8()?)?,
        counters: Counters::decode(&mut r)?,
        active: r.u64()?,
        global_contrib: r.f64()?,
        n_primary: r.u64()?,
        seq: r.u64()?,
        epoch: r.u64()?,
        sent: take_counts(&mut r)?,
    })
}

/// A barrier advance broadcast by the directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Advance {
    /// Run id.
    pub run: u64,
    /// Superstep to execute.
    pub step: u32,
    /// Phase to execute.
    pub phase: Phase,
    /// Global vertex count.
    pub n_vertices: u64,
    /// Global reduce value (Σ `global_contrib`).
    pub global: f64,
    /// When set, the run is complete; `step`/`phase` are final.
    pub done: bool,
    /// Only on `phase == Combine`: nothing is split under the run's
    /// view, so Combine and Apply exchange nothing between agents. Run
    /// combine → apply → the next step's scatter in one go and answer
    /// with one `READY(step + 1, Scatter)` carrying the apply's
    /// `active`.
    pub chain: bool,
    /// On an advance that answers a Scatter barrier — `phase ==
    /// Combine`, or `done` after a chained verdict — what the members
    /// reported sent in that scatter, summed per receiver: an agent
    /// acts on the advance once it has taken in that many VMSG records
    /// of [`Advance::scatter_step`]. Empty on every other advance.
    pub expect: StepCounts,
}

impl Advance {
    /// The step whose scatter `expect` counts: the advance's own, or —
    /// a `done` advance names the step the run's verdict was for — the
    /// one the agents scattered ahead of that verdict.
    pub fn scatter_step(&self) -> u32 {
        self.step + u32::from(self.done)
    }

    /// VMSG records of [`Advance::scatter_step`] that `agent` has to
    /// take in before it acts on this advance.
    pub fn expected_by(&self, agent: AgentId) -> u64 {
        self.expect
            .iter()
            .find(|&&(id, _)| id == agent)
            .map_or(0, |&(_, n)| n)
    }
}

/// ADVANCE flags byte: bit 0 `done`, bit 1 `chain`.
const ADVANCE_DONE: u8 = 1;
const ADVANCE_CHAIN: u8 = 2;

/// Encode an ADVANCE frame.
pub fn encode_advance(a: &Advance) -> Frame {
    let flags = if a.done { ADVANCE_DONE } else { 0 } | if a.chain { ADVANCE_CHAIN } else { 0 };
    let b = Frame::builder(packet::ADVANCE)
        .u64(a.run)
        .u32(a.step)
        .u8(a.phase as u8)
        .u64(a.n_vertices)
        .f64(a.global)
        .u8(flags);
    put_counts(b, &a.expect).finish()
}

/// Decode an ADVANCE frame.
pub fn decode_advance(frame: &Frame) -> Option<Advance> {
    let mut r = expect(frame, packet::ADVANCE)?;
    let (run, step) = (r.u64()?, r.u32()?);
    let phase = Phase::from_u8(r.u8()?)?;
    let (n_vertices, global, flags) = (r.u64()?, r.f64()?, r.u8()?);
    Some(Advance {
        run,
        step,
        phase,
        n_vertices,
        global,
        done: flags & ADVANCE_DONE != 0,
        chain: flags & ADVANCE_CHAIN != 0,
        expect: take_counts(&mut r)?,
    })
}

// ---------------------------------------------------------------------
// Migration record streams
//
// A view change moves three kinds of fixed-stride records, each a
// packed stream like every other data-plane packet: the sender
// appends each kind's records as one run to the destination's open
// coalescing frame (`append_mig_*`), frames leave by size or at the
// migrate READY, and the receiver walks a borrowed [`Records`] view
// (`decode_mig_*`).

/// One migrating edge: MIG_EDGES record, 17 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigEdge {
    /// Which placement of the edge moves ([`Side::Out`]: the out-edge
    /// stored on `src`; [`Side::In`]: the in-edge stored on `dst`).
    pub side: Side,
    /// Edge source.
    pub src: VertexId,
    /// Edge destination.
    pub dst: VertexId,
}

impl MigEdge {
    /// The edge held in `key`'s adjacency on `side`, `other` being its
    /// far endpoint.
    #[inline]
    pub fn held_by(side: Side, key: VertexId, other: VertexId) -> MigEdge {
        let (src, dst) = match side {
            Side::Out => (key, other),
            Side::In => (other, key),
        };
        MigEdge { side, src, dst }
    }

    /// `(key, other)`: the vertex whose adjacency holds this edge, and
    /// the far endpoint stored there.
    #[inline]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match self.side {
            Side::Out => (self.src, self.dst),
            Side::In => (self.dst, self.src),
        }
    }
}

impl WireRecord for MigEdge {
    const STRIDE: usize = 17;

    #[inline]
    fn validate(chunk: &[u8]) -> bool {
        chunk[0] <= 1
    }

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        MigEdge {
            side: if chunk[0] == 0 { Side::Out } else { Side::In },
            src: le_u64(chunk, 1),
            dst: le_u64(chunk, 9),
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        slot[0] = side_byte(self.side);
        put_u64(slot, 1, self.src);
        put_u64(slot, 9, self.dst);
    }
}

/// The sender's replica copy of a vertex whose edges are moving:
/// MIG_STATE record, 34 bytes — a [`StateRecord`] (`aux` carries a
/// delta run's un-scattered pending delta, zero for none) plus whether
/// the state is initialized. Sent once per (vertex, destination),
/// ahead of the vertex's edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigState {
    /// The replica snapshot.
    pub rec: StateRecord,
    /// Whether `rec.state` is initialized.
    pub has_state: bool,
}

impl WireRecord for MigState {
    const STRIDE: usize = StateRecord::STRIDE + 1;

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        MigState {
            rec: StateRecord::parse(&chunk[..StateRecord::STRIDE]),
            has_state: chunk[StateRecord::STRIDE] != 0,
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        self.rec.write(&mut slot[..StateRecord::STRIDE]);
        slot[StateRecord::STRIDE] = self.has_state as u8;
    }
}

/// MIG_META record: 71 bytes, fields in declaration order, flags one
/// byte each.
impl WireRecord for MetaRecord {
    const STRIDE: usize = 71;

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        MetaRecord {
            vertex: le_u64(chunk, 0),
            state: le_u64(chunk, 8),
            out_degree: le_u64(chunk, 16),
            in_degree: le_u64(chunk, 24),
            active: chunk[32] != 0,
            dirty: chunk[33] != 0,
            has_state: chunk[34] != 0,
            has_meta: chunk[35] != 0,
            ppartial: le_u64(chunk, 36),
            has_ppartial: chunk[44] != 0,
            wait_recv: le_u64(chunk, 45),
            residual: le_u64(chunk, 53),
            has_residual: chunk[61] != 0,
            snap: le_u64(chunk, 62),
            has_snap: chunk[70] != 0,
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        put_u64(slot, 0, self.vertex);
        put_u64(slot, 8, self.state);
        put_u64(slot, 16, self.out_degree);
        put_u64(slot, 24, self.in_degree);
        slot[32] = self.active as u8;
        slot[33] = self.dirty as u8;
        slot[34] = self.has_state as u8;
        slot[35] = self.has_meta as u8;
        put_u64(slot, 36, self.ppartial);
        slot[44] = self.has_ppartial as u8;
        put_u64(slot, 45, self.wait_recv);
        put_u64(slot, 53, self.residual);
        slot[61] = self.has_residual as u8;
        put_u64(slot, 62, self.snap);
        slot[70] = self.has_snap as u8;
    }
}

/// Append migrating edges to `out`'s open MIG_EDGES frame.
pub fn append_mig_edges(out: &mut CoalescingOutbox, edges: &[MigEdge]) {
    append_records(out, packet::MIG_EDGES, 0, &[], edges);
}

/// Decode a MIG_EDGES frame into a borrowed record view.
pub fn decode_mig_edges(frame: &Frame) -> Option<Records<'_, MigEdge>> {
    decode_records(frame, packet::MIG_EDGES)
}

/// Append replica snapshots to `out`'s open MIG_STATE frame.
pub fn append_mig_states(out: &mut CoalescingOutbox, snaps: &[MigState]) {
    append_records(out, packet::MIG_STATE, 0, &[], snaps);
}

/// Decode a MIG_STATE frame into a borrowed record view.
pub fn decode_mig_states(frame: &Frame) -> Option<Records<'_, MigState>> {
    decode_records(frame, packet::MIG_STATE)
}

/// Append primary meta records to `out`'s open MIG_META frame. The
/// header carries the sender's serving-snapshot tag `(snap_run,
/// snap_watermark)` so a joining agent adopting migrated snaps also
/// adopts the tag they belong to — otherwise it would serve correct
/// values under run 0 and look checkpoint-restored to clients.
pub fn append_mig_meta(
    out: &mut CoalescingOutbox,
    snap_run: u64,
    snap_watermark: u64,
    metas: &[MetaRecord],
) {
    // Small counters both: packed side by side they cannot collide in
    // practice (as a `(run, step)` key).
    let key = snap_run.rotate_left(32) ^ snap_watermark;
    let header = header_u64s(snap_run, snap_watermark);
    append_records(out, packet::MIG_META, key, &header, metas);
}

/// Decode a MIG_META frame into `(snap_run, snap_watermark, records)`:
/// the sender's serving-snapshot tag and a borrowed record view.
pub fn decode_mig_meta(frame: &Frame) -> Option<(u64, u64, Records<'_, MetaRecord>)> {
    let mut r = expect(frame, packet::MIG_META)?;
    let (snap_run, snap_watermark) = (r.u64()?, r.u64()?);
    let n = r.u32()? as usize;
    Some((snap_run, snap_watermark, Records::new(r.rest(), n)?))
}

/// Primary-side vertex metadata moved during migration.
///
/// Besides the meta payload (global out-degree, dirty flag), the record
/// carries the vertex's *async run state* — the §3.2 waiting-set
/// progress that lives only at the primary. Migrating it keeps an
/// asynchronous run correct across a mid-run view change: the new
/// primary resumes the waiting set exactly where the old one left off
/// instead of waiting forever for messages that were already consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaRecord {
    /// The vertex.
    pub vertex: VertexId,
    /// Encoded program state (meaningless when `has_state` is false).
    pub state: u64,
    /// Global out-degree accumulated at the primary.
    pub out_degree: u64,
    /// Global in-degree accumulated at the primary.
    pub in_degree: u64,
    /// Active flag.
    pub active: bool,
    /// Touched by changes since the last run.
    pub dirty: bool,
    /// Whether `state` is initialized.
    pub has_state: bool,
    /// Whether this record carries primary metadata (the degrees,
    /// existence). False for records shipped solely to hand off async
    /// run state for a vertex whose meta lives elsewhere.
    pub has_meta: bool,
    /// Pending combined partial of an async waiting set (meaningless
    /// when `has_ppartial` is false).
    pub ppartial: u64,
    /// Whether `ppartial` holds a combined value.
    pub has_ppartial: bool,
    /// Messages received so far toward the vertex's waiting set.
    pub wait_recv: u64,
    /// Unapplied residual of an incremental run (meaningless when
    /// `has_residual` is false). Residuals live only at the primary, so
    /// migrating them with the meta bundle keeps delta runs exact
    /// across a mid-run view change.
    pub residual: u64,
    /// Whether `residual` holds an accumulated delta.
    pub has_residual: bool,
    /// Query-serving snapshot (the vertex's value at the last completed
    /// run; meaningless when `has_snap` is false). Moves with
    /// primaryship so snapshot reads survive view changes.
    pub snap: u64,
    /// Whether `snap` holds a completed-run value.
    pub has_snap: bool,
}

/// Encode degree deltas: `[(vertex, out_delta, in_delta)]` sent to each
/// vertex's primary so it maintains global degrees, existence and the
/// dirty flag.
pub fn encode_deg_deltas(deltas: &[(VertexId, i64, i64)]) -> Frame {
    encode_records(packet::DEG_DELTA, &[], deltas)
}

/// Append degree deltas to `out`'s open DEG_DELTA frame.
pub fn append_deg_deltas(out: &mut CoalescingOutbox, deltas: &[(VertexId, i64, i64)]) {
    append_records(out, packet::DEG_DELTA, 0, &[], deltas);
}

/// Decode a DEG_DELTA frame into a borrowed record view.
pub fn decode_deg_deltas(frame: &Frame) -> Option<Records<'_, (VertexId, i64, i64)>> {
    decode_records(frame, packet::DEG_DELTA)
}

/// Encode residual corrections: `[(vertex, delta)]` sent to each
/// vertex's primary at ingest time so the next incremental run's
/// frontier and mass budget reflect the batch's edge changes. `delta`
/// is program-encoded (f64 bits for PageRank) and merged with the
/// program's `merge_residual`.
pub fn encode_residuals(residuals: &[(VertexId, u64)]) -> Frame {
    encode_records(packet::RESIDUAL, &[], residuals)
}

/// Append residual corrections to `out`'s open RESIDUAL frame.
pub fn append_residuals(out: &mut CoalescingOutbox, residuals: &[(VertexId, u64)]) {
    append_records(out, packet::RESIDUAL, 0, &[], residuals);
}

/// Decode a RESIDUAL frame into a borrowed record view.
pub fn decode_residuals(frame: &Frame) -> Option<Records<'_, (VertexId, u64)>> {
    decode_records(frame, packet::RESIDUAL)
}

/// Encode a QUERY_BATCH request: point-lookup `vertices` in one frame.
pub fn encode_query_batch(vertices: &[VertexId]) -> Frame {
    encode_records(packet::QUERY_BATCH, &[], vertices)
}

/// Decode a QUERY_BATCH request into a borrowed record view.
pub fn decode_query_batch(frame: &Frame) -> Option<Records<'_, VertexId>> {
    decode_records(frame, packet::QUERY_BATCH)
}

/// Encode a QUERY_BATCH reply: per-vertex answers tagged with the
/// snapshot they were read from — the last *completed* run (`run`, 0
/// when none has finished yet) and the ingest batch watermark current
/// when that run finished. All answers in one reply come from the same
/// snapshot; a client never observes torn mid-superstep state.
pub fn encode_query_batch_rep(run: u64, watermark: u64, answers: &[QueryAnswer]) -> Frame {
    let header = header_u64s(run, watermark);
    encode_records(packet::QUERY_BATCH_REP, &header, answers)
}

/// Decode a QUERY_BATCH reply into `(run, watermark, answers)`.
pub fn decode_query_batch_rep(frame: &Frame) -> Option<(u64, u64, Records<'_, QueryAnswer>)> {
    let mut r = expect(frame, packet::QUERY_BATCH_REP)?;
    let (run, watermark) = (r.u64()?, r.u64()?);
    let n = r.u32()? as usize;
    Some((run, watermark, Records::new(r.rest(), n)?))
}

/// Encode a SUB_REG request: register standing subscription `sub`
/// (client-chosen id, unique per push address) covering `vertices`;
/// the agent pushes value deltas to `addr` after each completed run.
/// An empty vertex list cancels the subscription.
pub fn encode_sub_reg(addr: &Addr, sub: u64, vertices: &[VertexId]) -> Frame {
    Frame::builder(packet::SUB_REG)
        .bytes(addr.to_string().as_bytes())
        .u64(sub)
        .records(VertexId::STRIDE, vertices, VertexId::write)
        .finish()
}

/// Decode a SUB_REG request into `(push address, sub id, vertices)`.
pub fn decode_sub_reg(frame: &Frame) -> Option<(Addr, u64, Records<'_, VertexId>)> {
    let mut r = expect(frame, packet::SUB_REG)?;
    let addr = Addr::parse(std::str::from_utf8(r.bytes()?).ok()?).ok()?;
    let sub = r.u64()?;
    let n = r.u32()? as usize;
    Some((addr, sub, Records::new(r.rest(), n)?))
}

/// Append changed `(vertex, state)` pairs to `out`'s open SUB_PUSH
/// frame for subscription `sub`, tagged like a query reply with the
/// completed run id and its ingest batch watermark.
pub fn append_sub_pushes(
    out: &mut CoalescingOutbox,
    sub: u64,
    run: u64,
    watermark: u64,
    pushes: &[(VertexId, u64)],
) {
    let mut header = [0; 24];
    put_u64(&mut header, 0, sub);
    header[8..].copy_from_slice(&header_u64s(run, watermark));
    append_records(out, packet::SUB_PUSH, sub, &header, pushes);
}

/// A decoded SUB_PUSH: `(sub, run, watermark, records)`.
pub type SubPush<'a> = (u64, u64, u64, Records<'a, (VertexId, u64)>);

/// Decode a SUB_PUSH frame into `(sub, run, watermark, records)`.
pub fn decode_sub_push(frame: &Frame) -> Option<SubPush<'_>> {
    let mut r = expect(frame, packet::SUB_PUSH)?;
    let (sub, run, watermark) = (r.u64()?, r.u64()?, r.u64()?);
    let n = r.u32()? as usize;
    Some((sub, run, watermark, Records::new(r.rest(), n)?))
}

/// Encode an ARM_DELTA request: before replaying a log suffix onto a
/// restored cluster, re-arm every agent's ingest-time delta seed with
/// the program (`tag`, `params`) and the vertex count `n` the restored
/// states converged under, so the replay regenerates the same residual
/// corrections live ingest would have produced.
pub fn encode_arm_delta(tag: u8, params: [u64; 3], n: u64) -> Frame {
    Frame::builder(packet::ARM_DELTA)
        .u8(tag)
        .u64(params[0])
        .u64(params[1])
        .u64(params[2])
        .u64(n)
        .finish()
}

/// Decode an ARM_DELTA request into `(tag, params, n)`.
pub fn decode_arm_delta(frame: &Frame) -> Option<(u8, [u64; 3], u64)> {
    let mut r = expect(frame, packet::ARM_DELTA)?;
    Some((r.u8()?, [r.u64()?, r.u64()?, r.u64()?], r.u64()?))
}

/// Encode a DANGLING_GET request (no payload): read the lead
/// directory's dangling-mass book.
pub fn encode_dangling_get() -> Frame {
    Frame::builder(packet::DANGLING_GET).finish()
}

/// Encode a DANGLING_GET reply: the lead's converged dangling mass and
/// the vertex count it was accumulated under.
pub fn encode_dangling_rep(mass: f64, n: u64) -> Frame {
    Frame::builder(packet::DANGLING_REP)
        .f64(mass)
        .u64(n)
        .finish()
}

/// Decode a DANGLING_GET reply into `(mass, n)`.
pub fn decode_dangling_rep(frame: &Frame) -> Option<(f64, u64)> {
    let mut r = expect(frame, packet::DANGLING_REP)?;
    Some((r.f64()?, r.u64()?))
}

/// Encode a DANGLING_SET request: seed the lead's dangling-mass book
/// after a checkpoint restore. `mass`/`n` reinstate the book the
/// manifest recorded at checkpoint time; `carry` is the dangling-mass
/// drift between the restored states and that book (log-suffix changes
/// whose unreported accumulators died with the old agents), absorbed
/// into the global term at the next delta run's first reduction.
pub fn encode_dangling_set(mass: f64, n: u64, carry: f64) -> Frame {
    Frame::builder(packet::DANGLING_SET)
        .f64(mass)
        .u64(n)
        .f64(carry)
        .finish()
}

/// Decode a DANGLING_SET request into `(mass, n, carry)`.
pub fn decode_dangling_set(frame: &Frame) -> Option<(f64, u64, f64)> {
    let mut r = expect(frame, packet::DANGLING_SET)?;
    Some((r.f64()?, r.u64()?, r.f64()?))
}

/// Encode a CKPT_SAVE request: write one shard of checkpoint
/// `generation` at view `epoch`, covering the first `watermark`
/// ingested change records.
pub fn encode_ckpt_save(generation: u64, epoch: u64, watermark: u64) -> Frame {
    Frame::builder(packet::CKPT_SAVE)
        .u64(generation)
        .u64(epoch)
        .u64(watermark)
        .finish()
}

/// Decode a CKPT_SAVE request into `(generation, epoch, watermark)`.
pub fn decode_ckpt_save(frame: &Frame) -> Option<(u64, u64, u64)> {
    let mut r = expect(frame, packet::CKPT_SAVE)?;
    Some((r.u64()?, r.u64()?, r.u64()?))
}

/// One agent's reply to a CKPT_SAVE request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptSaveReport {
    /// Whether the shard file was written, fsynced and renamed into
    /// place. False leaves the generation uncommittable — the driver
    /// must not write a manifest for it.
    pub ok: bool,
    /// Serialized payload bytes (0 on failure).
    pub bytes: u64,
    /// Wall time spent serializing and writing, in nanoseconds.
    pub nanos: u64,
}

/// Encode a CKPT_SAVE reply.
pub fn encode_ckpt_save_reply(r: &CkptSaveReport) -> Frame {
    Frame::builder(packet::CKPT_SAVE)
        .u8(r.ok as u8)
        .u64(r.bytes)
        .u64(r.nanos)
        .finish()
}

/// Decode a CKPT_SAVE reply.
pub fn decode_ckpt_save_reply(frame: &Frame) -> Option<CkptSaveReport> {
    let mut r = expect(frame, packet::CKPT_SAVE)?;
    Some(CkptSaveReport {
        ok: r.u8()? != 0,
        bytes: r.u64()?,
        nanos: r.u64()?,
    })
}

/// One restored vertex's edges for one placement side, re-routed by
/// the driver under the post-recovery view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptEdgeGroup {
    /// Which placement the group targets.
    pub side: Side,
    /// The vertex the edges belong to.
    pub vertex: VertexId,
    /// Replica-visible program state (meaningless when `has_state` is
    /// false).
    pub state: u64,
    /// Whether `state` is initialized.
    pub has_state: bool,
    /// Replica-visible out-degree snapshot (scatter denominators).
    pub rep_out_degree: u64,
    /// Active flag.
    pub active: bool,
    /// The other endpoints: targets of out-edges (`side == Out`) or
    /// sources of in-edges (`side == In`).
    pub others: Vec<VertexId>,
}

/// Encode a batch of restored edge groups.
pub fn encode_ckpt_edges(groups: &[CkptEdgeGroup]) -> Frame {
    let mut b = Frame::builder(packet::CKPT_EDGES).u32(groups.len() as u32);
    for g in groups {
        b = b
            .u8(match g.side {
                Side::Out => 0,
                Side::In => 1,
            })
            .u64(g.vertex)
            .u64(g.state)
            .u8(g.has_state as u8)
            .u64(g.rep_out_degree)
            .u8(g.active as u8)
            .u32(g.others.len() as u32);
        for &w in &g.others {
            b = b.u64(w);
        }
    }
    b.finish()
}

/// Decode a CKPT_EDGES frame.
pub fn decode_ckpt_edges(frame: &Frame) -> Option<Vec<CkptEdgeGroup>> {
    let mut r = expect(frame, packet::CKPT_EDGES)?;
    let n = r.u32()? as usize;
    // 31 bytes is the minimum (edgeless) group encoding.
    let mut groups = Vec::with_capacity(n.min(r.remaining() / 31));
    for _ in 0..n {
        let side = match r.u8()? {
            0 => Side::Out,
            1 => Side::In,
            _ => return None,
        };
        let vertex = r.u64()?;
        let state = r.u64()?;
        let has_state = r.u8()? != 0;
        let rep_out_degree = r.u64()?;
        let active = r.u8()? != 0;
        let m = r.u32()? as usize;
        let mut others = Vec::with_capacity(m.min(r.remaining() / 8));
        for _ in 0..m {
            others.push(r.u64()?);
        }
        groups.push(CkptEdgeGroup {
            side,
            vertex,
            state,
            has_state,
            rep_out_degree,
            active,
            others,
        });
    }
    Some(groups)
}

/// Primary-side vertex metadata restored from a checkpoint.
///
/// Unlike [`MetaRecord`] this carries the global degrees signed and
/// no async run state: checkpoints are taken only at quiesced batch
/// boundaries, where no run is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptMetaRecord {
    /// The vertex.
    pub vertex: VertexId,
    /// Encoded program state (meaningless when `has_state` is false).
    pub state: u64,
    /// Whether `state` is initialized.
    pub has_state: bool,
    /// Active flag.
    pub active: bool,
    /// Touched by changes since the last run.
    pub dirty: bool,
    /// Whether the vertex existed as a primary (meta) entry.
    pub is_meta: bool,
    /// Global out-degree accumulated at the primary.
    pub g_out: i64,
    /// Global in-degree accumulated at the primary.
    pub g_in: i64,
    /// Unapplied incremental-run residual carried across the restart
    /// (meaningless when `has_residual` is false).
    pub residual: u64,
    /// Whether `residual` holds an accumulated delta.
    pub has_residual: bool,
}

/// Encode a batch of restored meta records.
pub fn encode_ckpt_meta(recs: &[CkptMetaRecord]) -> Frame {
    let mut b = Frame::builder(packet::CKPT_META).u32(recs.len() as u32);
    for m in recs {
        b = b
            .u64(m.vertex)
            .u64(m.state)
            .u8(m.has_state as u8)
            .u8(m.active as u8)
            .u8(m.dirty as u8)
            .u8(m.is_meta as u8)
            .u64(m.g_out as u64)
            .u64(m.g_in as u64)
            .u64(m.residual)
            .u8(m.has_residual as u8);
    }
    b.finish()
}

/// Decode a CKPT_META frame.
pub fn decode_ckpt_meta(frame: &Frame) -> Option<Vec<CkptMetaRecord>> {
    let mut r = expect(frame, packet::CKPT_META)?;
    let n = r.u32()? as usize;
    let mut recs = Vec::with_capacity(n.min(r.remaining() / 45));
    for _ in 0..n {
        recs.push(CkptMetaRecord {
            vertex: r.u64()?,
            state: r.u64()?,
            has_state: r.u8()? != 0,
            active: r.u8()? != 0,
            dirty: r.u8()? != 0,
            is_meta: r.u8()? != 0,
            g_out: r.u64()? as i64,
            g_in: r.u64()? as i64,
            residual: r.u64()?,
            has_residual: r.u8()? != 0,
        });
    }
    Some(recs)
}

/// Description of an in-progress run, handed to late-joining agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunInfo {
    /// Run identifier.
    pub run_id: u64,
    /// Program spec tag.
    pub tag: u8,
    /// Program spec params.
    pub params: [u64; 3],
    /// Whether state is reused (incremental run).
    pub reuse_state: bool,
    /// Async flag.
    pub asynchronous: bool,
    /// Whether this run executes the residual delta formulation:
    /// frontier seeded from ingest-time corrections, unchanged vertices
    /// untouched. Resolved by the driver from the program's
    /// [`DeltaKind`](crate::program::DeltaKind) so every agent agrees.
    pub delta: bool,
    /// Per-vertex dangling term already baked into the carried states
    /// (total dangling mass / vertex count at the previous
    /// convergence). Filled in by the lead when it launches a delta
    /// run; vertices that first appear in this run receive it as a
    /// seed residual, since unlike pre-existing vertices they never
    /// absorbed the term into their state.
    pub dangling_base: f64,
    /// Ingest batches the lead had folded when it launched the run
    /// (filled in by the lead, like `dangling_base`). The run's
    /// snapshot is tagged with it: the same value on every agent,
    /// joiners included, because it travels with the run and not with
    /// whichever view an agent last saw.
    pub watermark: u64,
}

/// Append a [`RunInfo`] (START, and the tail of a JOIN reply).
fn write_run_info(b: elga_net::frame::FrameBuilder, r: &RunInfo) -> elga_net::frame::FrameBuilder {
    b.u64(r.run_id)
        .u8(r.tag)
        .u64(r.params[0])
        .u64(r.params[1])
        .u64(r.params[2])
        .u8(r.reuse_state as u8)
        .u8(r.asynchronous as u8)
        .u8(r.delta as u8)
        .f64(r.dangling_base)
        .u64(r.watermark)
}

/// Read what [`write_run_info`] wrote.
fn read_run_info(r: &mut FrameReader<'_>) -> Option<RunInfo> {
    Some(RunInfo {
        run_id: r.u64()?,
        tag: r.u8()?,
        params: [r.u64()?, r.u64()?, r.u64()?],
        reuse_state: r.u8()? != 0,
        asynchronous: r.u8()? != 0,
        delta: r.u8()? != 0,
        dangling_base: r.f64()?,
        watermark: r.u64()?,
    })
}

/// Encode a JOIN reply: the view plus an optional in-progress run.
pub fn encode_join_reply(view: &DirectoryView, run: Option<&RunInfo>) -> Frame {
    let b = Frame::builder(packet::JOIN_REP).bytes(view.encode().as_bytes());
    match run {
        None => b.u8(0),
        Some(r) => write_run_info(b.u8(1), r),
    }
    .finish()
}

/// Decode a JOIN reply.
pub fn decode_join_reply(frame: &Frame) -> Option<(DirectoryView, Option<RunInfo>)> {
    let mut r = expect(frame, packet::JOIN_REP)?;
    let view = DirectoryView::decode_slice(r.bytes()?)?;
    let run = match r.u8()? {
        0 => None,
        _ => Some(read_run_info(&mut r)?),
    };
    Some((view, run))
}

/// Encode a START request/broadcast.
pub fn encode_start(run: &RunInfo) -> Frame {
    write_run_info(Frame::builder(packet::START), run).finish()
}

/// Decode a START frame.
pub fn decode_start(frame: &Frame) -> Option<RunInfo> {
    read_run_info(&mut expect(frame, packet::START)?)
}

/// Run status snapshot returned by the directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStatus {
    /// Run id (0 when none has run).
    pub run_id: u64,
    /// Whether a run is in progress.
    pub running: bool,
    /// Whether the last run completed.
    pub done: bool,
    /// Supersteps completed.
    pub steps: u32,
    /// Whether a migrate barrier is outstanding (elastic change or
    /// sketch update still settling).
    pub migrating: bool,
    /// Per-superstep wall times in nanoseconds.
    pub step_nanos: Vec<u64>,
    /// Global vertex count at the last barrier.
    pub n_vertices: u64,
    /// The lead's view epoch: a driver holding the member list of this
    /// epoch need not fetch the view again.
    pub epoch: u64,
    /// Final counter totals of the agents that left: what an outside
    /// quiescence check adds to the live agents' DRAIN replies so the
    /// cumulative sums balance.
    pub departed: Counters,
}

/// Encode a RUN_STATUS reply.
pub fn encode_run_status(s: &RunStatus) -> Frame {
    let mut b = Frame::builder(packet::RUN_STATUS_REP)
        .u64(s.run_id)
        .u8(s.running as u8)
        .u8(s.done as u8)
        .u8(s.migrating as u8)
        .u32(s.steps)
        .u64(s.n_vertices)
        .u64(s.epoch)
        .u32(s.step_nanos.len() as u32);
    for &ns in &s.step_nanos {
        b = b.u64(ns);
    }
    s.departed.encode_into(b).finish()
}

/// Decode a RUN_STATUS reply.
pub fn decode_run_status(frame: &Frame) -> Option<RunStatus> {
    let mut r = expect(frame, packet::RUN_STATUS_REP)?;
    let run_id = r.u64()?;
    let running = r.u8()? != 0;
    let done = r.u8()? != 0;
    let migrating = r.u8()? != 0;
    let steps = r.u32()?;
    let n_vertices = r.u64()?;
    let epoch = r.u64()?;
    let n = r.u32()? as usize;
    let mut step_nanos = Vec::with_capacity(n.min(r.remaining() / 8));
    for _ in 0..n {
        step_nanos.push(r.u64()?);
    }
    // Last, so that a frame without them ends here and is refused.
    let departed = Counters::decode(&mut r)?;
    Some(RunStatus {
        run_id,
        running,
        done,
        migrating,
        steps,
        step_nanos,
        n_vertices,
        epoch,
        departed,
    })
}

/// Decode a COUNTERS frame — an agent's reply to DRAIN (the agent's
/// view epoch follows the ten counters and is not read here).
pub fn decode_counters(frame: &Frame) -> Option<Counters> {
    Counters::decode(&mut expect(frame, packet::COUNTERS)?)
}

/// Encode a RESET_LABELS broadcast (incremental WCC deletion support).
pub fn encode_reset_labels(labels: &[u64]) -> Frame {
    let mut b = Frame::builder(packet::RESET_LABELS).u32(labels.len() as u32);
    for &l in labels {
        b = b.u64(l);
    }
    b.finish()
}

/// Decode a RESET_LABELS frame.
pub fn decode_reset_labels(frame: &Frame) -> Option<Vec<u64>> {
    let mut r = expect(frame, packet::RESET_LABELS)?;
    let n = r.u32()? as usize;
    let mut labels = Vec::with_capacity(n.min(r.remaining() / 8));
    for _ in 0..n {
        labels.push(r.u64()?);
    }
    Some(labels)
}

/// SKETCH_DELTA form byte: the whole table, as [`write_sketch`] lays
/// it out.
const DELTA_DENSE: u8 = 0;
/// SKETCH_DELTA form byte: the cells the batch touched, as one
/// length-prefixed run of `(u32 index, u32 count)` pairs.
const DELTA_SPARSE: u8 = 1;

/// Encode a batch's sketch delta (request to the lead directory): the
/// form byte, `width, depth, items`, then whichever body is smaller —
/// the touched cells as pairs, or the dense table. The reply is an
/// `OK` carrying the lead's view epoch when the fold changed no
/// placement, the new VIEW otherwise.
pub fn encode_sketch_delta(delta: &SketchDelta) -> Frame {
    let cells = delta.width() * delta.depth();
    let sparse = delta.touched() * 2 < cells;
    let b = Frame::builder(packet::SKETCH_DELTA)
        .u8(if sparse { DELTA_SPARSE } else { DELTA_DENSE })
        .u32(delta.width() as u32)
        .u32(delta.depth() as u32)
        .u64(delta.items());
    if sparse {
        let pairs = delta.cells().flat_map(|(idx, count)| [idx as u32, count]);
        b.u32((delta.touched() * 8) as u32).u32s(pairs)
    } else {
        let b = b.u32((cells * 4) as u32);
        (0..delta.depth()).fold(b, |b, row| b.u32s(delta.row(row).iter().copied()))
    }
    .finish()
}

/// A decoded SKETCH_DELTA, borrowed from its frame: dimensions are
/// nonzero, the body has the length its form promises, and every
/// sparse index is inside the `width × depth` table.
#[derive(Debug, Clone, Copy)]
pub struct SketchDeltaView<'a> {
    width: usize,
    depth: usize,
    items: u64,
    sparse: bool,
    /// Dense: `width × depth` counts. Sparse: `(index, count)` pairs.
    body: &'a [u8],
}

impl SketchDeltaView<'_> {
    /// `(table index, count)` of every cell the delta carries — all of
    /// them, zeros included, in the dense form.
    pub fn cells(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let le = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        let stride = if self.sparse { 8 } else { 4 };
        let sparse = self.sparse;
        self.body
            .chunks_exact(stride)
            .enumerate()
            .map(move |(i, c)| {
                if sparse {
                    (le(&c[..4]) as usize, le(&c[4..]))
                } else {
                    (i, le(c))
                }
            })
    }

    /// Fold the delta into `sketch`: the one loop both forms share.
    ///
    /// # Errors
    /// Returns `Err`, with nothing folded, when dimensions differ.
    pub fn fold_into(&self, sketch: &mut CountMinSketch) -> Result<(), DimensionMismatch> {
        sketch.fold((self.width, self.depth), self.cells(), self.items)
    }
}

/// Decode a SKETCH_DELTA frame; `None` on truncation, trailing bytes, a
/// zero dimension, an unknown form or an index outside the table.
pub fn decode_sketch_delta(frame: &Frame) -> Option<SketchDeltaView<'_>> {
    let mut r = expect(frame, packet::SKETCH_DELTA)?;
    let form = r.u8()?;
    let width = r.u32()? as usize;
    let depth = r.u32()? as usize;
    let items = r.u64()?;
    let cells = width.checked_mul(depth).filter(|&c| c > 0)?;
    let body = r.bytes()?;
    let sparse = match form {
        DELTA_DENSE if Some(body.len()) == cells.checked_mul(4) => false,
        DELTA_SPARSE if body.len().is_multiple_of(8) => true,
        _ => return None,
    };
    if r.remaining() != 0 {
        return None;
    }
    let view = SketchDeltaView {
        width,
        depth,
        items,
        sparse,
        body,
    };
    (!sparse || view.cells().all(|(idx, _)| idx < cells)).then_some(view)
}

/// Encode a HEARTBEAT push from an agent.
pub fn encode_heartbeat(agent: AgentId) -> Frame {
    Frame::builder(packet::HEARTBEAT).u64(agent).finish()
}

/// Decode a HEARTBEAT frame.
pub fn decode_heartbeat(frame: &Frame) -> Option<AgentId> {
    expect(frame, packet::HEARTBEAT)?.u64()
}

/// Failure-recovery broadcast published by the lead directory after it
/// declares an agent dead: survivors drop all graph state and counters,
/// adopt the embedded view, and settle a fresh migrate barrier; the
/// driver replays the retained change log and restarts any aborted run.
#[derive(Debug, Clone)]
pub struct Recover {
    /// The post-eviction view epoch.
    pub epoch: u64,
    /// The agent declared dead.
    pub dead_agent: AgentId,
    /// Run id aborted by the failure (0 when no run was active).
    pub aborted_run: u64,
    /// The post-eviction directory view.
    pub view: DirectoryView,
}

/// Encode a RECOVER broadcast.
pub fn encode_recover(r: &Recover) -> Frame {
    Frame::builder(packet::RECOVER)
        .u64(r.epoch)
        .u64(r.dead_agent)
        .u64(r.aborted_run)
        .bytes(r.view.encode().as_bytes())
        .finish()
}

/// Decode a RECOVER frame.
pub fn decode_recover(frame: &Frame) -> Option<Recover> {
    if frame.packet_type() != packet::RECOVER {
        return None;
    }
    let mut r = frame.reader();
    let epoch = r.u64()?;
    let dead_agent = r.u64()?;
    let aborted_run = r.u64()?;
    let view = DirectoryView::decode_slice(r.bytes()?)?;
    Some(Recover {
        epoch,
        dead_agent,
        aborted_run,
        view,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_view() -> DirectoryView {
        let mut sketch = CountMinSketch::new(32, 3);
        sketch.inc(5);
        sketch.add(6, 7);
        DirectoryView {
            epoch: 42,
            batch_id: 7,
            n_vertices: 1000,
            agents: vec![
                AgentInfo {
                    id: 1,
                    addr: Addr::inproc("agent-1"),
                },
                AgentInfo {
                    id: 9,
                    addr: Addr::parse("tcp://127.0.0.1:7001").unwrap(),
                },
            ],
            sketch,
            hash: HashKind::Wang,
            virtual_agents: 100,
            replication_threshold: 4096,
            max_replicas: 16,
        }
    }

    #[test]
    fn view_roundtrip() {
        let v = sample_view();
        let decoded = DirectoryView::decode(&v.encode()).unwrap();
        assert_eq!(decoded.epoch, 42);
        assert_eq!(decoded.batch_id, 7);
        assert_eq!(decoded.n_vertices, 1000);
        assert_eq!(decoded.agents, v.agents);
        assert_eq!(decoded.sketch, v.sketch);
        assert_eq!(decoded.hash, HashKind::Wang);
        assert_eq!(decoded.degree_estimate(6), 7);
    }

    #[test]
    fn view_locator_places_edges() {
        let v = sample_view();
        let loc = v.locator();
        assert_eq!(loc.ring().len(), 2);
        let owner = loc.owner_of_edge(1, 2, 0).unwrap();
        assert!(owner == 1 || owner == 9);
        assert_eq!(v.addr_of(1), Some(&Addr::inproc("agent-1")));
        assert_eq!(v.addr_of(99), None);
    }

    #[test]
    fn view_decode_rejects_other_packets() {
        assert!(DirectoryView::decode(&Frame::signal(packet::OK)).is_none());
    }

    #[test]
    fn ckpt_save_request_and_reply_roundtrip() {
        let f = encode_ckpt_save(3, 9, 120_000);
        assert_eq!(decode_ckpt_save(&f), Some((3, 9, 120_000)));
        // The reply reuses the packet type (REQ/REP pair, like DUMP).
        let report = CkptSaveReport {
            ok: true,
            bytes: 4096,
            nanos: 1_234_567,
        };
        let decoded = decode_ckpt_save_reply(&encode_ckpt_save_reply(&report)).unwrap();
        assert_eq!(decoded, report);
        assert!(decode_ckpt_save(&Frame::signal(packet::OK)).is_none());
    }

    #[test]
    fn ckpt_edges_roundtrip() {
        let groups = vec![
            CkptEdgeGroup {
                side: Side::Out,
                vertex: 7,
                state: 99,
                has_state: true,
                rep_out_degree: 12,
                active: true,
                others: vec![1, 2, 3],
            },
            CkptEdgeGroup {
                side: Side::In,
                vertex: 8,
                state: 0,
                has_state: false,
                rep_out_degree: 0,
                active: false,
                others: vec![],
            },
        ];
        let got = decode_ckpt_edges(&encode_ckpt_edges(&groups)).unwrap();
        assert_eq!(got, groups);
    }

    #[test]
    fn ckpt_meta_roundtrip_preserves_both_degrees() {
        let recs = vec![
            CkptMetaRecord {
                vertex: 5,
                state: 17,
                has_state: true,
                active: true,
                dirty: false,
                is_meta: true,
                g_out: 3,
                g_in: -2,
                residual: 0.25f64.to_bits(),
                has_residual: true,
            },
            CkptMetaRecord {
                vertex: 6,
                state: 0,
                has_state: false,
                active: false,
                dirty: true,
                is_meta: false,
                g_out: 0,
                g_in: 0,
                residual: 0,
                has_residual: false,
            },
        ];
        let got = decode_ckpt_meta(&encode_ckpt_meta(&recs)).unwrap();
        assert_eq!(got, recs);
        assert!(decode_ckpt_meta(&encode_ckpt_edges(&[])).is_none());
    }

    #[test]
    fn edge_changes_roundtrip() {
        let changes = vec![EdgeChange::insert(1, 2), EdgeChange::delete(3, 4)];
        let f = encode_edge_changes(Side::In, 2, &changes);
        let view = decode_edge_changes(&f).unwrap();
        assert_eq!(view.side, Side::In);
        assert_eq!(view.hop, 2);
        assert_eq!(view.records.len(), changes.len());
        assert_eq!(view.records.to_vec(), changes);
    }

    #[test]
    fn vmsg_and_partial_roundtrip() {
        let msgs = vec![(10u64, 0.5f64.to_bits()), (11, 7)];
        let f = encode_vmsgs(3, 4, &msgs);
        let view = decode_vmsgs(&f).unwrap();
        assert_eq!((view.run, view.step), (3, 4));
        assert_eq!(view.records.to_vec(), msgs);
        let f = encode_partials(3, 4, &msgs);
        let view = decode_partials(&f).unwrap();
        assert_eq!((view.run, view.step), (3, 4));
        assert_eq!(view.records.to_vec(), msgs);
    }

    #[test]
    fn state_roundtrip() {
        let recs = vec![StateRecord {
            vertex: 8,
            state: 0.25f64.to_bits(),
            out_degree: 12,
            aux: 0.0625f64.to_bits(),
            active: true,
        }];
        let f = encode_states(1, 2, &recs);
        let view = decode_states(&f).unwrap();
        assert_eq!((view.run, view.step), (1, 2));
        assert_eq!(view.records.to_vec(), recs);
    }

    #[test]
    fn ready_advance_roundtrip() {
        let rep = ReadyReport {
            agent: 5,
            run: 2,
            step: 9,
            phase: Phase::Scatter,
            counters: Counters {
                vmsg_sent: 10,
                vmsg_recv: 10,
                part_sent: 3,
                part_recv: 2,
                ..Counters::default()
            },
            active: 4,
            global_contrib: 0.125,
            n_primary: 77,
            seq: 12,
            epoch: 6,
            sent: vec![(1, 7), (3, 1 << 40)],
        };
        for sent in [Vec::new(), rep.sent.clone()] {
            let rep = ReadyReport {
                sent,
                ..rep.clone()
            };
            assert_eq!(decode_ready(&encode_ready(&rep)).unwrap(), rep);
        }

        let adv = Advance {
            run: 2,
            step: 9,
            phase: Phase::Combine,
            n_vertices: 100,
            global: 1.5,
            done: false,
            chain: true,
            expect: vec![(2, 5), (9, 1)],
        };
        for expect in [Vec::new(), adv.expect.clone()] {
            let adv = Advance {
                expect,
                ..adv.clone()
            };
            assert_eq!(decode_advance(&encode_advance(&adv)).unwrap(), adv);
        }
        assert_eq!(
            (adv.expected_by(2), adv.expected_by(9), adv.expected_by(3)),
            (5, 1, 0)
        );
        // A `done` advance names the step of the verdict; what it
        // counts is the scatter the agents ran ahead of it.
        assert_eq!(adv.scatter_step(), 9);
        assert_eq!(Advance { done: true, ..adv }.scatter_step(), 10);
    }

    /// `done` and `chain` share the flags byte, and the counts come
    /// last in both frames. A frame in the layout from before them ends
    /// where the list's length would be and is refused: read as an
    /// empty list, an old READY would tell the lead nothing was sent
    /// and an old ADVANCE would tell an agent to expect nothing — a
    /// Scatter barrier released ahead of its messages either way.
    #[test]
    fn advance_flags_and_counts_and_old_layouts_refused() {
        let base = Advance {
            run: 4,
            step: 7,
            phase: Phase::Combine,
            n_vertices: 9,
            global: -0.25,
            done: false,
            chain: false,
            expect: vec![(1, 3)],
        };
        for (done, chain) in [(false, false), (true, false), (false, true), (true, true)] {
            let adv = Advance {
                done,
                chain,
                ..base.clone()
            };
            let frame = encode_advance(&adv);
            let flags = frame.as_bytes()[frame.len() - 4 - 16 - 1];
            assert_eq!(flags, u8::from(done) | u8::from(chain) << 1);
            assert_eq!(decode_advance(&frame).unwrap(), adv);
            // As the parent's encoder wrote it.
            let old = Frame::builder(packet::ADVANCE)
                .u64(base.run)
                .u32(base.step)
                .u8(base.phase as u8)
                .u64(base.n_vertices)
                .f64(base.global)
                .u8(flags)
                .finish();
            assert_eq!(decode_advance(&old), None);
        }
        let rep = ReadyReport {
            agent: 1,
            run: 4,
            step: 7,
            phase: Phase::Scatter,
            counters: Counters::default(),
            active: 0,
            global_contrib: 0.0,
            n_primary: 3,
            seq: 1,
            epoch: 2,
            sent: vec![(2, 6)],
        };
        let bytes = encode_ready(&rep);
        let bytes = bytes.as_bytes();
        let cut = |n: usize| Frame::from_bytes(bytes::Bytes::copy_from_slice(&bytes[..n]));
        assert_eq!(decode_ready(&cut(bytes.len())), Some(rep));
        assert_eq!(decode_ready(&cut(bytes.len() - 4 - 16)), None, "old layout");
        assert_eq!(decode_ready(&cut(bytes.len() - 1)), None, "short list");
        // A length that promises more than the frame holds allocates
        // nothing and decodes to nothing.
        let mut lying = bytes[..bytes.len() - 16].to_vec();
        let at = lying.len() - 4;
        lying[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_ready(&Frame::from_bytes(lying.into())), None);
    }

    #[test]
    fn counters_settled_and_add() {
        let a = Counters {
            vmsg_sent: 5,
            vmsg_recv: 2,
            ..Counters::default()
        };
        let b = Counters {
            vmsg_recv: 3,
            ..Counters::default()
        };
        assert!(!a.settled());
        assert!(a.add(&b).settled());
        assert!(Counters::default().settled());
    }

    fn sample_metas() -> Vec<MetaRecord> {
        vec![
            MetaRecord {
                vertex: 3,
                state: 99,
                out_degree: 4,
                in_degree: 6,
                active: true,
                dirty: false,
                has_state: true,
                has_meta: true,
                ppartial: 0,
                has_ppartial: false,
                wait_recv: 0,
                residual: 0.5f64.to_bits(),
                has_residual: true,
                snap: 98,
                has_snap: true,
            },
            // Pure async-state handoff: no meta payload, but a live
            // waiting set mid-accumulation.
            MetaRecord {
                vertex: 7,
                state: 0,
                out_degree: 0,
                in_degree: 0,
                active: false,
                dirty: true,
                has_state: false,
                has_meta: false,
                ppartial: 41,
                has_ppartial: true,
                wait_recv: 2,
                residual: 0,
                has_residual: false,
                snap: 0,
                has_snap: false,
            },
        ]
    }

    fn sample_mig_states() -> Vec<MigState> {
        vec![
            MigState {
                rec: StateRecord {
                    vertex: 5,
                    state: 42,
                    out_degree: 3,
                    aux: 0.25f64.to_bits(),
                    active: true,
                },
                has_state: true,
            },
            MigState {
                rec: StateRecord {
                    vertex: 9,
                    state: 0,
                    out_degree: 0,
                    aux: 0,
                    active: false,
                },
                has_state: false,
            },
        ]
    }

    fn sample_mig_edges() -> Vec<MigEdge> {
        let edge = |side, src, dst| MigEdge { side, src, dst };
        vec![
            edge(Side::Out, 5, 6),
            edge(Side::In, 1 << 40, 5),
            edge(Side::Out, 5, 7),
        ]
    }

    // The migration streams have no batch encoder in the library (the
    // coalescer is the one encode path); these state the layout a
    // second time, field by field, so the test pins the wire format.
    fn batch_mig_states(recs: &[MigState]) -> Frame {
        let mut b = Frame::builder(packet::MIG_STATE).u32(recs.len() as u32);
        for s in recs {
            b = b
                .u64(s.rec.vertex)
                .u64(s.rec.state)
                .u64(s.rec.out_degree)
                .u64(s.rec.aux)
                .u8(s.rec.active as u8)
                .u8(s.has_state as u8);
        }
        b.finish()
    }

    fn batch_mig_edges(recs: &[MigEdge]) -> Frame {
        let mut b = Frame::builder(packet::MIG_EDGES).u32(recs.len() as u32);
        for e in recs {
            b = b.u8(side_byte(e.side)).u64(e.src).u64(e.dst);
        }
        b.finish()
    }

    fn batch_mig_meta(recs: &[MetaRecord], snap_run: u64, snap_watermark: u64) -> Frame {
        let mut b = Frame::builder(packet::MIG_META)
            .u64(snap_run)
            .u64(snap_watermark)
            .u32(recs.len() as u32);
        for m in recs {
            b = b
                .u64(m.vertex)
                .u64(m.state)
                .u64(m.out_degree)
                .u64(m.in_degree)
                .u8(m.active as u8)
                .u8(m.dirty as u8)
                .u8(m.has_state as u8)
                .u8(m.has_meta as u8)
                .u64(m.ppartial)
                .u8(m.has_ppartial as u8)
                .u64(m.wait_recv)
                .u64(m.residual)
                .u8(m.has_residual as u8)
                .u64(m.snap)
                .u8(m.has_snap as u8);
        }
        b.finish()
    }

    #[test]
    fn mig_streams_match_batch_layout_and_roundtrip() {
        let states = sample_mig_states();
        let f = coalesced(|c| append_mig_states(c, &states));
        assert_eq!(f.as_bytes(), batch_mig_states(&states).as_bytes());
        assert_eq!(f.len(), 1 + 4 + states.len() * MigState::STRIDE);
        assert_eq!(decode_mig_states(&f).unwrap().to_vec(), states);

        let edges = sample_mig_edges();
        let f = coalesced(|c| append_mig_edges(c, &edges));
        assert_eq!(f.as_bytes(), batch_mig_edges(&edges).as_bytes());
        assert_eq!(f.len(), 1 + 4 + edges.len() * MigEdge::STRIDE);
        assert_eq!(decode_mig_edges(&f).unwrap().to_vec(), edges);

        let metas = sample_metas();
        let f = coalesced(|c| append_mig_meta(c, 6, 11, &metas));
        assert_eq!(f.as_bytes(), batch_mig_meta(&metas, 6, 11).as_bytes());
        assert_eq!(f.len(), 1 + 16 + 4 + metas.len() * MetaRecord::STRIDE);
        let (snap_run, snap_watermark, recs) = decode_mig_meta(&f).unwrap();
        assert_eq!((snap_run, snap_watermark), (6, 11));
        assert_eq!(recs.to_vec(), metas);
    }

    #[test]
    fn mig_frames_reject_wrong_type_truncation_and_bad_side() {
        let states = batch_mig_states(&sample_mig_states());
        let edges = batch_mig_edges(&sample_mig_edges());
        let metas = batch_mig_meta(&sample_metas(), 6, 11);
        // Each decoder takes its own packet type only.
        for f in [&edges, &metas] {
            assert!(decode_mig_states(f).is_none());
        }
        for f in [&states, &metas] {
            assert!(decode_mig_edges(f).is_none());
        }
        for f in [&states, &edges] {
            assert!(decode_mig_meta(f).is_none());
        }
        // One byte short, or one byte over: the count no longer matches
        // the record region.
        let resized = |f: &Frame, by: isize| {
            let mut bytes = f.as_bytes().to_vec();
            bytes.resize((bytes.len() as isize + by) as usize, 0);
            Frame::from_bytes(bytes.into())
        };
        for by in [-1, 1] {
            assert!(decode_mig_states(&resized(&states, by)).is_none());
            assert!(decode_mig_edges(&resized(&edges, by)).is_none());
            assert!(decode_mig_meta(&resized(&metas, by)).is_none());
        }
        // A side byte other than 0 / 1 fails validation up front.
        let mut bytes = edges.as_bytes().to_vec();
        bytes[1 + 4] = 2;
        assert!(decode_mig_edges(&Frame::from_bytes(bytes.into())).is_none());
    }

    #[test]
    fn mig_meta_tag_change_opens_a_new_frame() {
        // A newer serving-snapshot tag must not ride under the header
        // of an open frame.
        use elga_net::{CoalesceConfig, InProcTransport, Transport};
        let t = InProcTransport::new();
        let addr = Addr::inproc("msg-mig-meta-tag");
        let mb = t.bind(&addr).unwrap();
        let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), CoalesceConfig::default());
        let metas = sample_metas();
        append_mig_meta(&mut c, 6, 11, &metas[..1]);
        append_mig_meta(&mut c, 7, 12, &metas[1..]);
        c.flush();
        for (tag, m) in [(6, 11), (7, 12)].into_iter().zip(&metas) {
            let f = mb.recv().unwrap().frame;
            let (snap_run, snap_watermark, recs) = decode_mig_meta(&f).unwrap();
            assert_eq!((snap_run, snap_watermark), tag);
            assert_eq!(recs.to_vec(), vec![*m]);
        }
    }

    #[test]
    fn phase_wire_codes_roundtrip() {
        for p in [Phase::Scatter, Phase::Combine, Phase::Apply, Phase::Migrate] {
            assert_eq!(Phase::from_u8(p as u8), Some(p));
        }
        assert_eq!(Phase::from_u8(99), None);
    }

    #[test]
    fn deg_delta_roundtrip_with_negatives() {
        let deltas = vec![(5u64, -2i64, 3i64), (9, 1, -1)];
        assert_eq!(
            decode_deg_deltas(&encode_deg_deltas(&deltas))
                .unwrap()
                .to_vec(),
            deltas
        );
    }

    #[test]
    fn join_reply_roundtrip() {
        let view = sample_view();
        let run = RunInfo {
            run_id: 3,
            tag: 0,
            params: [1, 2, 3],
            reuse_state: true,
            asynchronous: false,
            delta: true,
            dangling_base: 0.25,
            watermark: 41,
        };
        let (v2, r2) = decode_join_reply(&encode_join_reply(&view, Some(&run))).unwrap();
        assert_eq!(v2.epoch, view.epoch);
        assert_eq!(r2, Some(run));
        let (_, none) = decode_join_reply(&encode_join_reply(&view, None)).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn start_and_status_roundtrip() {
        let run = RunInfo {
            run_id: 9,
            tag: 1,
            params: [0, 0, 0],
            reuse_state: false,
            asynchronous: true,
            delta: false,
            dangling_base: 0.0,
            watermark: 7,
        };
        assert_eq!(decode_start(&encode_start(&run)).unwrap(), run);

        let status = RunStatus {
            run_id: 9,
            running: false,
            done: true,
            migrating: true,
            steps: 4,
            step_nanos: vec![100, 200, 300, 400],
            n_vertices: 55,
            epoch: 12,
            departed: Counters {
                vmsg_sent: 3,
                chg_recv: 9,
                ..Default::default()
            },
        };
        assert_eq!(
            decode_run_status(&encode_run_status(&status)).unwrap(),
            status
        );
    }

    #[test]
    fn reset_labels_roundtrip() {
        let labels = vec![1u64, 5, 1 << 40];
        assert_eq!(
            decode_reset_labels(&encode_reset_labels(&labels)).unwrap(),
            labels
        );
    }

    /// The encoder picks the shorter form, and either folds to the
    /// table direct updates build. (Both forms of *one* delta are
    /// compared in `tests/prop.rs`.)
    #[test]
    fn sketch_delta_takes_the_shorter_form_and_folds_to_the_same_table() {
        let mut delta = SketchDelta::new(16, 2);
        let mut direct = CountMinSketch::new(16, 2);
        let mut folded = CountMinSketch::new(16, 2);
        let mut add = |delta: &mut SketchDelta, k, c| {
            delta.add(k, c);
            direct.add(k, c);
        };
        for (k, c) in [(3, 9), (40, 1), (3, 2)] {
            add(&mut delta, k, c);
        }
        // Four cells of 32: pairs.
        let frame = encode_sketch_delta(&delta);
        assert_eq!(frame.payload()[0], DELTA_SPARSE);
        assert_eq!(frame.len(), 1 + 1 + 16 + 4 + delta.touched() * 8);
        let view = decode_sketch_delta(&frame).unwrap();
        view.fold_into(&mut folded).unwrap();
        let mut other = CountMinSketch::new(8, 4);
        assert!(view.fold_into(&mut other).is_err(), "same cell count");
        assert!(other.is_empty());
        // A batch that touches most of the table: the table.
        delta.clear();
        (0..64).for_each(|k| add(&mut delta, k, 1));
        assert!(delta.touched() * 2 >= 32);
        let frame = encode_sketch_delta(&delta);
        assert_eq!(frame.payload()[0], DELTA_DENSE);
        assert_eq!(frame.len(), 1 + 1 + 16 + 4 + 32 * 4);
        let view = decode_sketch_delta(&frame).unwrap();
        view.fold_into(&mut folded).unwrap();
        assert_eq!(folded, direct);
        assert_eq!(folded.estimate_bound(), direct.estimate_bound());
    }

    #[test]
    fn sketch_delta_rejects_malformed_frames() {
        let mut delta = SketchDelta::new(16, 2);
        delta.add(3, 9);
        let good = encode_sketch_delta(&delta);
        assert!(decode_sketch_delta(&good).is_some());
        let bytes = good.as_bytes();
        for cut in 1..bytes.len() {
            let short = Frame::from_bytes(bytes::Bytes::copy_from_slice(&bytes[..cut]));
            assert!(decode_sketch_delta(&short).is_none(), "cut at {cut}");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(decode_sketch_delta(&Frame::from_bytes(long.into())).is_none());
        let header = |form: u8, width: u32, depth: u32| {
            Frame::builder(packet::SKETCH_DELTA)
                .u8(form)
                .u32(width)
                .u32(depth)
                .u64(1)
        };
        // An index one past the last cell.
        let f = header(DELTA_SPARSE, 16, 2).u32(8).u32(32).u32(1).finish();
        assert!(decode_sketch_delta(&f).is_none());
        let f = header(DELTA_SPARSE, 16, 2).u32(8).u32(31).u32(1).finish();
        assert!(decode_sketch_delta(&f).is_some());
        // Half a pair, a zero dimension, an unknown form.
        let f = header(DELTA_SPARSE, 16, 2).u32(4).u32(1).finish();
        assert!(decode_sketch_delta(&f).is_none());
        let f = header(DELTA_SPARSE, 0, 2).u32(0).finish();
        assert!(decode_sketch_delta(&f).is_none());
        let f = header(2, 16, 2).u32(0).finish();
        assert!(decode_sketch_delta(&f).is_none());
        // A dense body for some other table.
        let f = header(DELTA_DENSE, 16, 2).bytes(&[0; 16 * 4]).finish();
        assert!(decode_sketch_delta(&f).is_none());
    }

    #[test]
    fn heartbeat_roundtrip() {
        assert_eq!(decode_heartbeat(&encode_heartbeat(17)), Some(17));
    }

    #[test]
    fn recover_roundtrip() {
        let rec = Recover {
            epoch: 8,
            dead_agent: 3,
            aborted_run: 2,
            view: sample_view(),
        };
        let back = decode_recover(&encode_recover(&rec)).unwrap();
        assert_eq!(back.epoch, 8);
        assert_eq!(back.dead_agent, 3);
        assert_eq!(back.aborted_run, 2);
        assert_eq!(back.view.epoch, rec.view.epoch);
        assert_eq!(back.view.agents, rec.view.agents);
        assert!(decode_recover(&Frame::signal(packet::OK)).is_none());
    }

    #[test]
    fn truncated_frames_decode_to_none() {
        let f = Frame::builder(packet::READY).u64(1).finish();
        assert!(decode_ready(&f).is_none());
        let f = Frame::builder(packet::VMSG).u64(1).u32(0).u32(5).finish();
        assert!(decode_vmsgs(&f).is_none());
    }

    #[test]
    fn wrong_packet_type_decodes_to_none() {
        // A VMSG payload under the PARTIAL packet type (and vice versa)
        // must be rejected even though the layouts agree.
        let msgs = vec![(1u64, 2u64)];
        assert!(decode_partials(&encode_vmsgs(0, 0, &msgs)).is_none());
        assert!(decode_vmsgs(&encode_partials(0, 0, &msgs)).is_none());
        let junk = Frame::signal(packet::OK);
        assert!(decode_edge_changes(&junk).is_none());
        assert!(decode_states(&junk).is_none());
        assert!(decode_ready(&junk).is_none());
        assert!(decode_advance(&junk).is_none());
        assert!(decode_mig_meta(&junk).is_none());
        assert!(decode_mig_edges(&junk).is_none());
        assert!(decode_mig_states(&junk).is_none());
        assert!(decode_deg_deltas(&junk).is_none());
        assert!(decode_join_reply(&junk).is_none());
        assert!(decode_start(&junk).is_none());
        assert!(decode_run_status(&junk).is_none());
        assert!(decode_reset_labels(&junk).is_none());
        assert!(decode_sketch_delta(&junk).is_none());
        assert!(decode_heartbeat(&junk).is_none());
    }

    /// Run `f` against a fresh coalescing outbox and return the single
    /// flushed frame.
    fn coalesced(f: impl FnOnce(&mut CoalescingOutbox)) -> Frame {
        use elga_net::{CoalesceConfig, InProcTransport, Transport};
        let t = InProcTransport::new();
        let addr = Addr::inproc("msg-append-eq");
        let mb = t.bind(&addr).unwrap();
        let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), CoalesceConfig::default());
        f(&mut c);
        c.flush();
        mb.recv().unwrap().frame
    }

    /// One layout per record type: a run appended through the block
    /// writer — whole, or cut into runs of one — is the frame the batch
    /// encoder builds.
    #[test]
    fn appended_runs_match_the_batch_encoders() {
        let msgs = vec![(10u64, 0.5f64.to_bits()), (11, 7), (12, 9)];
        let states = vec![
            StateRecord {
                vertex: 8,
                state: 0.25f64.to_bits(),
                out_degree: 12,
                aux: 0.125f64.to_bits(),
                active: true,
            },
            StateRecord {
                vertex: 9,
                state: 1,
                out_degree: 0,
                aux: 0,
                active: false,
            },
        ];
        let changes = vec![EdgeChange::insert(1, 2), EdgeChange::delete(3, 4)];
        let deltas = vec![(5u64, -2i64, 3i64), (9, 1, -1)];
        type Case<'a> = (Frame, &'a dyn Fn(&mut CoalescingOutbox, usize));
        let cases: [Case<'_>; 6] = [
            (encode_vmsgs(3, 4, &msgs), &|c, n| {
                msgs.chunks(n).for_each(|r| append_vmsgs(c, 3, 4, r))
            }),
            (encode_partials(5, 6, &msgs), &|c, n| {
                msgs.chunks(n).for_each(|r| append_partials(c, 5, 6, r))
            }),
            (encode_states(1, 2, &states), &|c, n| {
                states.chunks(n).for_each(|r| append_states(c, 1, 2, r))
            }),
            (encode_residuals(&msgs), &|c, n| {
                msgs.chunks(n).for_each(|r| append_residuals(c, r))
            }),
            (encode_edge_changes(Side::In, 2, &changes), &|c, n| {
                let append = |r| append_edge_changes(c, Side::In, 2, r);
                changes.chunks(n).for_each(append)
            }),
            (encode_deg_deltas(&deltas), &|c, n| {
                deltas.chunks(n).for_each(|r| append_deg_deltas(c, r))
            }),
        ];
        for (batch, append) in cases {
            for run in [usize::MAX, 1] {
                let f = coalesced(|c| append(c, run));
                assert_eq!(f.as_bytes(), batch.as_bytes(), "runs of {run}");
            }
        }
        let residuals = encode_residuals(&msgs);
        assert_eq!(decode_residuals(&residuals).unwrap().to_vec(), msgs);
    }

    #[test]
    fn query_batch_roundtrip() {
        let vertices = vec![3u64, 99, 1 << 50];
        let f = encode_query_batch(&vertices);
        assert_eq!(decode_query_batch(&f).unwrap().to_vec(), vertices);
        let answers = vec![
            QueryAnswer {
                vertex: 3,
                state: 0.5f64.to_bits(),
                found: ANSWER_HIT,
            },
            QueryAnswer {
                vertex: 99,
                state: 0,
                found: ANSWER_GONE,
            },
        ];
        let rep = encode_query_batch_rep(7, 120_000, &answers);
        let (run, watermark, recs) = decode_query_batch_rep(&rep).unwrap();
        assert_eq!((run, watermark), (7, 120_000));
        assert_eq!(recs.to_vec(), answers);
    }

    #[test]
    fn sub_reg_roundtrip() {
        let addr = Addr::parse("inproc://client-7-sub").unwrap();
        let vertices = vec![5u64, 6, 7];
        let f = encode_sub_reg(&addr, 42, &vertices);
        let (a, sub, recs) = decode_sub_reg(&f).unwrap();
        assert_eq!(a, addr);
        assert_eq!(sub, 42);
        assert_eq!(recs.to_vec(), vertices);
    }

    #[test]
    fn sub_push_coalesced_roundtrip() {
        let pushes = vec![(10u64, 0.125f64.to_bits()), (11, 9u64)];
        let f = coalesced(|c| append_sub_pushes(c, 42, 3, 500, &pushes));
        let (sub, run, watermark, recs) = decode_sub_push(&f).unwrap();
        assert_eq!((sub, run, watermark), (42, 3, 500));
        assert_eq!(recs.to_vec(), pushes);
    }

    #[test]
    fn arm_delta_and_dangling_roundtrip() {
        let f = encode_arm_delta(2, [0.85f64.to_bits(), 7, 9], 1000);
        assert_eq!(
            decode_arm_delta(&f),
            Some((2, [0.85f64.to_bits(), 7, 9], 1000))
        );
        let f = encode_dangling_rep(0.25, 900);
        assert_eq!(decode_dangling_rep(&f), Some((0.25, 900)));
        let f = encode_dangling_set(0.25, 900, -0.0625);
        assert_eq!(decode_dangling_set(&f), Some((0.25, 900, -0.0625)));
    }

    #[test]
    fn append_header_switch_preserves_record_order() {
        // Interleaving steps forces switch flushes; decoded record
        // order must equal append order within each frame.
        use elga_net::{CoalesceConfig, InProcTransport, Transport};
        let t = InProcTransport::new();
        let addr = Addr::inproc("msg-append-switch");
        let mb = t.bind(&addr).unwrap();
        let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), CoalesceConfig::default());
        append_vmsgs(&mut c, 1, 0, &[(100, 1)]);
        append_vmsgs(&mut c, 1, 0, &[(101, 2)]);
        append_vmsgs(&mut c, 1, 1, &[(102, 3)]);
        c.flush();
        let f0 = mb.recv().unwrap().frame;
        let v0 = decode_vmsgs(&f0).unwrap();
        assert_eq!(
            (v0.step, v0.records.to_vec()),
            (0, vec![(100, 1), (101, 2)])
        );
        let f1 = mb.recv().unwrap().frame;
        let v1 = decode_vmsgs(&f1).unwrap();
        assert_eq!((v1.step, v1.records.to_vec()), (1, vec![(102, 3)]));
    }
}
