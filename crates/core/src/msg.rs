//! Wire protocol: packet types and message encodings.
//!
//! "The first byte of any message is a packet type" (§3.5). Every
//! field is fixed-width little-endian over [`elga_net::Frame`] — the
//! paper's "direct memory copies into network buffers" — and each
//! layout is declared once: a control frame is a struct whose fields,
//! in declaration order, are its payload ([`Wire`], [`Message`]); a
//! data-plane frame is a header plus a run of fixed-stride records
//! ([`WireRecord`], [`Records`]). Subscription filtering uses the
//! packet-type byte, so broadcast topics (VIEW, ADVANCE, START,
//! SHUTDOWN) each get their own type.
//!
//! A reply is one of three things: `OK` (bare, or with one `u64`), a
//! VIEW, or a frame of its request's kind.

use elga_graph::types::{Action, EdgeChange, VertexId};
use elga_hash::{AgentId, EdgeLocator, HashKind, LocatorConfig, OwnerCache, Ring};
use elga_net::frame::FrameBuilder;
use elga_net::{Addr, CoalescingOutbox, Frame, FrameReader};
use elga_sketch::cms::DimensionMismatch;
use elga_sketch::{CountMinSketch, SketchDelta};

/// Packet-type bytes, the first byte of every frame (§3.5). Each doc
/// names the pattern in parentheses — REQ, push or PUB — and what no
/// declaration below shows; DESIGN.md's wire tables render from them.
pub mod packet {
    /// Agent joins (REQ, agent → directory), answered by the view.
    pub const JOIN: u8 = 1;
    /// Agents depart (REQ, driver → lead): a `u64` id each; `OK`.
    pub const LEAVE: u8 = 2;
    /// Directory view (PUB topic, and a reply to GET_VIEW).
    pub const VIEW: u8 = 3;
    /// Applied degree changes (push, agent → directory → lead):
    /// `u64 epoch, u8 form, u32 width, u32 depth, i64 items`, then the
    /// dense `i32` table or the sparse `(u32 index, i32 count)` cells
    /// ([`super::encode_sketch_delta`]).
    pub const SKETCH_DELTA: u8 = 4;
    /// Edge changes (push, streamer or forwarding agent → agent).
    pub const EDGE_CHANGES: u8 = 5;
    /// Vertex messages of a scatter (push, agent → agent).
    pub const VMSG: u8 = 6;
    /// Partial aggregates of a combine (push, replica → primary).
    pub const PARTIAL: u8 = 7;
    /// State broadcast of an apply (push, primary → replicas).
    pub const STATE: u8 = 8;
    /// Barrier report (push, agent → lead).
    pub const READY: u8 = 9;
    /// Barrier advance (PUB topic).
    pub const ADVANCE: u8 = 10;
    /// Algorithm start (REQ, driver → lead, then PUB); `OK(run id)`.
    pub const START: u8 = 11;
    /// Vertices moving in a view change (push, agent → agent); shards.
    pub const MIG_VERTEX: u8 = 12;
    /// Quiescence (REQ, driver → lead; push, lead → agent → directory):
    /// what the driver's streamer sent, answered `OK(epoch of the last
    /// recovery reset)` once nothing counted is in flight; the lead's ask,
    /// what to take in first; the agent's answer, its moved rows. A REQ
    /// to an agent is answered with all of its rows.
    pub const DRAIN: u8 = 16;
    /// Get the view (REQ, → directory): empty, answered by VIEW; or a
    /// streamer's `u64` epoch, a batch-clock tick answered by
    /// `OK(epoch)` while that epoch is current.
    pub const GET_VIEW: u8 = 18;
    /// Run status (REQ, driver → lead): empty; with any body, what an
    /// open barrier waits on, as `OK` and its text.
    pub const RUN_STATUS: u8 = 19;
    /// Metric report (push, agent → directory); empty, a REQ to an
    /// agent, which pushes its report and answers `OK`.
    pub const METRICS: u8 = 21;
    /// Aggregated metrics (REQ, driver → lead): empty.
    pub const GET_METRICS: u8 = 22;
    /// Shutdown (REQ, driver → lead, then PUB): empty; `OK`.
    pub const SHUTDOWN: u8 = 23;
    /// Bootstrap (REQ, → DirectoryMaster): empty; a directory's address.
    pub const GET_DIRECTORY: u8 = 25;
    /// A directory registers (REQ, → DirectoryMaster): its address; `OK`.
    pub const DIR_REGISTER: u8 = 26;
    /// Generic reply (reply to a REQ): bare, or one `u64`.
    pub const OK: u8 = 27;
    /// WCC label reset (REQ, driver → lead, then PUB); `OK`.
    pub const RESET_LABELS: u8 = 28;
    /// Global degree deltas (push, agent → primary).
    pub const DEG_DELTA: u8 = 29;
    /// State dump (REQ, driver → agent): empty; its primaries' states.
    pub const DUMP: u8 = 31;
    /// Failure recovery (PUB topic).
    pub const RECOVER: u8 = 33;
    /// Test kill switch (push, → agent): empty; dies without a LEAVE.
    pub const KILL: u8 = 34;
    /// Trace dump (REQ, → any participant): empty; its encoded events.
    pub const TRACE_DUMP: u8 = 35;
    /// Write a checkpoint shard (REQ, driver → agent).
    pub const CKPT_SAVE: u8 = 36;
    /// Load shards, then sweep (REQ, driver → agent); answered flushed.
    pub const CKPT_LOAD: u8 = 37;
    /// Ingest-time residual corrections (push, agent → primary).
    pub const RESIDUAL: u8 = 39;
    /// Vertex read (REQ, client → agent), answered in kind.
    pub const QUERY_BATCH: u8 = 40;
    /// Standing-subscription registration (REQ, client → agent); `OK`.
    pub const SUB_REG: u8 = 42;
    /// Subscription push (push, agent → client), uncounted.
    pub const SUB_PUSH: u8 = 43;
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

/// A field of a control frame: its little-endian, unpadded layout.
/// `take` reads back what `put` wrote, and fails on a short frame.
pub trait Wire: Sized {
    /// Append the value.
    fn put(&self, b: FrameBuilder) -> FrameBuilder;
    /// Read a value.
    fn take(r: &mut FrameReader<'_>) -> Option<Self>;
}

/// A fixed-stride record is a field too: its slot, in place.
impl<T: WireRecord> Wire for T {
    fn put(&self, b: FrameBuilder) -> FrameBuilder {
        b.slot(T::STRIDE, |slot| self.write(slot))
    }

    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        r.take(T::STRIDE).filter(|c| T::validate(c)).map(T::parse)
    }
}

/// The address string, length-prefixed.
impl Wire for Addr {
    fn put(&self, b: FrameBuilder) -> FrameBuilder {
        b.bytes(self.to_string().as_bytes())
    }

    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        Addr::parse(std::str::from_utf8(r.bytes()?).ok()?).ok()
    }
}

/// A `u32` count, then the items. A count that promises more than the
/// frame holds runs out of bytes and reads as nothing.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, b: FrameBuilder) -> FrameBuilder {
        self.iter().fold(b.u32(self.len() as u32), |b, x| x.put(b))
    }

    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        let n = r.u32()?;
        (0..n).map(|_| T::take(r)).collect()
    }
}

/// A flag byte, then the value when the flag is set.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, b: FrameBuilder) -> FrameBuilder {
        match self {
            None => b.u8(0),
            Some(x) => x.put(b.u8(1)),
        }
    }

    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            _ => Some(Some(T::take(r)?)),
        }
    }
}

/// `width, depth, items`, then the counter table as one length-prefixed
/// little-endian dump, written a row at a time straight into the
/// builder; the table length must match the dimensions.
impl Wire for CountMinSketch {
    fn put(&self, b: FrameBuilder) -> FrameBuilder {
        let b = b
            .u32(self.width() as u32)
            .u32(self.depth() as u32)
            .u64(self.items())
            .u32(self.table_bytes() as u32);
        (0..self.depth()).fold(b, |b, row| b.u32s(self.row(row).iter().copied()))
    }

    fn take(r: &mut FrameReader<'_>) -> Option<Self> {
        let width = r.u32()? as usize;
        let depth = r.u32()? as usize;
        let items = r.u64()?;
        let raw = r.bytes()?;
        if raw.len() != width.checked_mul(depth)?.checked_mul(4)? {
            return None;
        }
        // Tens of thousands of cells per VIEW: an exact 4-byte chunk
        // per cell lets the loop vectorize, which the record parse
        // (a prefix of a longer slice) does not — 2.6× slower.
        let cells = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        CountMinSketch::from_parts(width, depth, cells, items)
    }
}

/// A control frame: packet kind `KIND`, then the [`Wire`] fields, and
/// nothing after them.
pub trait Message: Wire {
    /// The packet kind the frame travels under.
    const KIND: u8;

    /// Encode as a `KIND` frame.
    fn encode(&self) -> Frame {
        self.put(Frame::builder(Self::KIND)).finish()
    }

    /// Decode a `KIND` frame; `None` on another kind, a short frame or
    /// trailing bytes.
    fn decode(frame: &Frame) -> Option<Self> {
        Self::decode_bytes(frame.as_bytes())
    }

    /// [`Message::decode`] of a frame's bytes, kind byte first — how a
    /// frame nested in another one is read, in place.
    fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        let (&kind, payload) = bytes.split_first()?;
        let mut r = FrameReader::new(payload);
        let value = (kind == Self::KIND).then(|| Self::take(&mut r))??;
        (r.remaining() == 0).then_some(value)
    }
}

/// Declare control structs once: each struct, its [`Wire`] layout —
/// the fields in declaration order — and, when a packet kind follows
/// the name, its [`Message`] impl. A field marked `as frame` travels as
/// its whole [`Message`] frame, length-prefixed.
macro_rules! wire {
    (@put $s:ident $b:ident $field:ident) => {
        $crate::msg::Wire::put(&$s.$field, $b)
    };
    (@put $s:ident $b:ident $field:ident as frame) => {
        $b.bytes($crate::msg::Message::encode(&$s.$field).as_bytes())
    };
    (@take $r:ident $field:ident: $ty:ty) => {
        let $field = <$ty as $crate::msg::Wire>::take($r)?;
    };
    (@take $r:ident $field:ident: $ty:ty as frame) => {
        let $field = <$ty as $crate::msg::Message>::decode_bytes($r.bytes()?)?;
    };
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident $(: $kind:ident)? {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty
                $(as $nested:ident)?,
            )*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: $ty,
            )*
        }

        impl $crate::msg::Wire for $name {
            fn put(&self, b: elga_net::frame::FrameBuilder) -> elga_net::frame::FrameBuilder {
                $(let b = wire!(@put self b $field $(as $nested)?);)*
                b
            }

            fn take(r: &mut elga_net::FrameReader<'_>) -> Option<Self> {
                $(wire!(@take r $field: $ty $(as $nested)?);)*
                Some($name { $($field,)* })
            }
        }

        $(impl $crate::msg::Message for $name {
            const KIND: u8 = $crate::msg::packet::$kind;
        })?
    )*};
}
pub(crate) use wire;

wire! {
    /// One agent's registration record in the view, and the JOIN
    /// request that asks for it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AgentInfo: JOIN {
        /// Agent id (ring key).
        pub id: AgentId,
        /// The agent's mailbox address.
        pub addr: Addr,
    }

    /// The broadcast directory view: everything a Participant needs to
    /// locate any edge (§3.3). Size is `O(P + d·w)` as in the paper.
    #[derive(Debug, Clone)]
    pub struct DirectoryView: VIEW {
        /// Monotone version; bumped on membership or sketch change.
        pub epoch: u64,
        /// Current batch clock (§3.3).
        pub batch_id: u64,
        /// Latest known global vertex count (for programs needing `n`).
        pub n_vertices: u64,
        /// Ring hash function.
        pub hash: HashKind,
        /// Virtual agents per agent.
        pub virtual_agents: u32,
        /// Replication threshold (estimated degree per replica).
        pub replication_threshold: u64,
        /// Max replicas per vertex.
        pub max_replicas: u32,
        /// Registered agents.
        pub agents: Vec<AgentInfo>,
        /// Degree sketch.
        pub sketch: CountMinSketch,
    }
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

    pub(crate) fn locator_config(&self) -> LocatorConfig {
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
/// an appended `append_*` frame or a one-shot `encode_*` frame — is
/// a run of them. `validate` pre-screens one raw chunk
/// (e.g. the EDGE_CHANGES action byte must be 0 or 1); once a
/// [`Records`] view is constructed, every chunk has passed it and
/// `parse` runs infallibly during iteration.
///
/// A *tailed* record is a `STRIDE`-byte head followed by as many bytes
/// as the head says ([`WireRecord::tail_len`]): MIG_VERTEX's lists. Its
/// frames are written through an [`OpenFrame`] and read with
/// [`Records::tailed`].
pub trait WireRecord: Sized {
    /// Bytes per record on the wire (a tailed record's head).
    const STRIDE: usize;

    /// Whether a tail follows each record.
    const TAILED: bool = false;

    /// Bytes of tail that follow this head.
    fn tail_len(&self) -> usize {
        0
    }

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

/// Declare fixed-stride records once: each struct and its
/// [`WireRecord`] layout — the fields back to back in declaration
/// order, each laid out as its own type's record, and valid when every
/// field is. `tail |head| len;` after a struct makes it the head of a
/// tailed record, `len` bytes of tail behind it.
macro_rules! record {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
        $(tail |$head:ident| $tail:expr;)?
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        #[allow(unused_assignments)]
        impl WireRecord for $name {
            const STRIDE: usize = 0 $(+ <$ty as WireRecord>::STRIDE)*;

            $(
                const TAILED: bool = true;

                fn tail_len(&self) -> usize {
                    let $head = self;
                    $tail
                }
            )?

            #[inline]
            fn validate(chunk: &[u8]) -> bool {
                let mut at = 0;
                true $(&& {
                    let ok = <$ty as WireRecord>::validate(&chunk[at..]);
                    at += <$ty as WireRecord>::STRIDE;
                    ok
                })*
            }

            #[inline]
            fn parse(chunk: &[u8]) -> Self {
                let mut at = 0;
                $(
                    let $field = <$ty as WireRecord>::parse(&chunk[at..]);
                    at += <$ty as WireRecord>::STRIDE;
                )*
                $name { $($field),* }
            }

            #[inline]
            fn write(&self, slot: &mut [u8]) {
                let mut at = 0;
                $(
                    self.$field.write(&mut slot[at..]);
                    at += <$ty as WireRecord>::STRIDE;
                )*
            }
        }
    )*};
}

/// Declare every record-bearing frame once, one row each: what the
/// records are, the packet kind, the header fields that follow the kind
/// byte and the view that holds them (a row without them decodes to a
/// bare [`Records`]), the record type, and the functions that append a
/// run to a coalescing outbox, encode one frame, open an [`OpenFrame`]
/// to write records into one at a time (the way a tailed record is
/// sent), and decode a frame into a borrowed view. The layout: the kind
/// byte, the header fields back to back, a `u32` record count, the
/// packed records. An appended frame is byte-identical to the encoded
/// one, so one `decode_*` reads both; the outbox tells open frames
/// apart by these header bytes.
macro_rules! records_frames {
    (@open [$($doc:literal)+] $kind:ident [$($field:ident: $ty:ty),*] $rec:ty,) => {};
    (@open [$($doc:literal)+] $kind:ident [$($field:ident: $ty:ty),*] $rec:ty, $open:ident) => {
        $(#[doc = $doc])+
        #[doc = concat!("\n\nOpen a ", stringify!($kind), " frame to write them into.")]
        pub fn $open($($field: $ty,)*) -> OpenFrame<$rec> {
            let mut header = [0; <($($ty,)*) as WireRecord>::STRIDE];
            ($($field,)*).write(&mut header);
            OpenFrame::new(packet::$kind, &header)
        }
    };
    (@append [$($doc:literal)+] $kind:ident [$($field:ident: $ty:ty),*] $rec:ty,) => {};
    (@append [$($doc:literal)+] $kind:ident [$($field:ident: $ty:ty),*] $rec:ty, $append:ident) => {
        $(#[doc = $doc])+
        #[doc = concat!("\n\nAppend them to `out`'s open ", stringify!($kind), " frame.")]
        pub fn $append(out: &mut CoalescingOutbox, $($field: $ty,)* recs: &[$rec]) {
            let mut header = [0; <($($ty,)*) as WireRecord>::STRIDE];
            ($($field,)*).write(&mut header);
            out.append_records(packet::$kind, &header, <$rec>::STRIDE, recs, <$rec>::write);
        }
    };
    (@encode [$($doc:literal)+] $kind:ident [$($field:ident: $ty:ty),*] $rec:ty,) => {};
    (@encode [$($doc:literal)+] $kind:ident [$($field:ident: $ty:ty),*] $rec:ty, $encode:ident) => {
        $(#[doc = $doc])+
        #[doc = concat!("\n\nEncode them as one ", stringify!($kind), " frame.")]
        pub fn $encode($($field: $ty,)* recs: &[$rec]) -> Frame {
            ($($field,)*)
                .put(Frame::builder(packet::$kind))
                .records(<$rec>::STRIDE, recs, <$rec>::write)
                .finish()
        }
    };
    (@decode [$($doc:literal)+] $kind:ident [] $rec:ty, $decode:ident) => {
        $(#[doc = $doc])+
        #[doc = concat!("\n\nDecode a ", stringify!($kind), " frame into a borrowed view.")]
        pub fn $decode(frame: &Frame) -> Option<Records<'_, $rec>> {
            let mut r = expect(frame, packet::$kind)?;
            let n = r.u32()? as usize;
            Records::new(r.rest(), n)
        }
    };
    (@decode [$($doc:literal)+] $kind:ident
        [$($field:ident: $ty:ty),+ as $view:ident] $rec:ty, $decode:ident) => {
        #[doc = concat!("A decoded ", stringify!($kind), " frame: its header and records.")]
        #[derive(Debug, Clone, Copy)]
        pub struct $view<'a> {
            $(#[doc = concat!("Header field `", stringify!($field), "`.")]
            pub $field: $ty,)+
            /// The packed records.
            pub records: Records<'a, $rec>,
        }

        $(#[doc = $doc])+
        #[doc = concat!("\n\nDecode a ", stringify!($kind), " frame into a borrowed view.")]
        pub fn $decode(frame: &Frame) -> Option<$view<'_>> {
            let mut r = expect(frame, packet::$kind)?;
            let ($($field,)+) = Wire::take(&mut r)?;
            let n = r.u32()? as usize;
            let records = Records::new(r.rest(), n)?;
            Some($view { $($field,)+ records })
        }
    };
    ($(
        $(#[doc = $doc:literal])+
        $kind:ident $(($($field:ident: $ty:ty),+) as $view:ident)?: $rec:ty =>
            $(append $append:ident,)? $(encode $encode:ident,)? $(open $open:ident,)?
            decode $decode:ident;
    )*) => {$(
        records_frames!(@append [$($doc)+] $kind [$($($field: $ty),+)?] $rec, $($append)?);
        records_frames!(@encode [$($doc)+] $kind [$($($field: $ty),+)?] $rec, $($encode)?);
        records_frames!(@open [$($doc)+] $kind [$($($field: $ty),+)?] $rec, $($open)?);
        records_frames!(@decode [$($doc)+] $kind [$($($field: $ty),+ as $view)?] $rec, $decode);
    )*};
}

records_frames! {
    /// Edge changes for one placement side, `hop` times forwarded, the
    /// last time by agent `from` (a streamer's, hop 0, are uncounted).
    EDGE_CHANGES(side: Side, hop: u8, from: AgentId) as EdgeChangesView: EdgeChange =>
        append append_changes_from, encode encode_changes_from, decode decode_edge_changes;
    /// `(target, value)` vertex messages of a run's superstep, sent by
    /// agent `from`.
    VMSG(run: u64, step: u32, from: AgentId) as VmsgsView: (VertexId, u64) =>
        append append_vmsgs, encode encode_vmsgs, decode decode_vmsgs;
    /// `(vertex, aggregate)` partials of a run's superstep, for the
    /// vertex's primary.
    PARTIAL(run: u64, step: u32, from: AgentId) as PartialsView: (VertexId, u64) =>
        append append_partials, encode encode_partials, decode decode_partials;
    /// State broadcasts of a run's superstep, primary to replicas.
    STATE(run: u64, step: u32, from: AgentId) as StatesView: StateRecord =>
        append append_states, encode encode_states, decode decode_states;
    /// Vertices moving to a new owner in a view change, under the
    /// sender's serving-snapshot tag, which a joiner adopts with the
    /// snaps that primary meta brings.
    MIG_VERTEX(snap_run: u64, snap_watermark: u64, from: AgentId) as MigVertexView: MigVertex =>
        open open_mig_vertex, decode decode_mig_vertex;
    /// `(vertex, out delta, in delta)` for the vertex's primary, which
    /// keeps its global degrees.
    DEG_DELTA(from: AgentId) as DegDeltasView: (VertexId, i64, i64) =>
        append append_deg_deltas, encode encode_deg_deltas, decode decode_deg_deltas;
    /// `(vertex, residual)` corrections for the vertex's primary,
    /// counted like DEG_DELTA.
    RESIDUAL(from: AgentId) as ResidualsView: (VertexId, u64) =>
        append append_residuals, decode decode_residuals;
    /// The vertices a QUERY_BATCH request reads.
    QUERY_BATCH: VertexId => encode encode_query_batch, decode decode_query_batch;
    /// A QUERY_BATCH reply: answers read from one snapshot, the last
    /// completed `run` (0 before any) and the ingest watermark it finished at.
    QUERY_BATCH(run: u64, watermark: u64) as QueryReplyView: QueryAnswer =>
        encode encode_query_batch_rep, decode decode_query_batch_rep;
    /// Changed `(vertex, state)` pairs of subscription `sub`, tagged
    /// like a query reply.
    SUB_PUSH(sub: u64, run: u64, watermark: u64) as SubPushView: (VertexId, u64) =>
        append append_sub_pushes, decode decode_sub_push;
    /// `(vertex, state)` of every vertex the answering agent is primary
    /// for.
    DUMP: (VertexId, u64) => encode encode_dump, decode decode_dump;
    /// The labels whose primaries a RESET_LABELS broadcast
    /// re-initializes.
    RESET_LABELS: u64 => encode encode_reset_labels, decode decode_reset_labels;
}

/// A borrowed, validated view over the packed record region of a frame
/// payload.
///
/// Construction checks the record count against the region length
/// (exact multiple of the stride, or for tailed records the heads and
/// tails walked to the end — trailing bytes are malformed, not
/// ignored) and validates every record once; iteration then parses in
/// place with zero per-record allocation. The records live in the
/// frame's pooled, `Arc`-shared receive buffer for as long as the
/// frame is alive; the view borrows the frame, so consuming a view
/// never outlives its bytes.
#[derive(Debug)]
pub struct Records<'a, T> {
    buf: &'a [u8],
    n: usize,
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
    /// A view of the `n` records in `buf`, if that is what it holds.
    pub(crate) fn new(buf: &'a [u8], n: usize) -> Option<Self> {
        if T::TAILED {
            let mut rest = buf;
            for _ in 0..n {
                let head = rest.get(..T::STRIDE).filter(|h| T::validate(h))?;
                rest = rest.get(T::STRIDE.checked_add(T::parse(head).tail_len())?..)?;
            }
            if !rest.is_empty() {
                return None;
            }
        } else if buf.len() != n.checked_mul(T::STRIDE)?
            || !buf.chunks_exact(T::STRIDE).all(T::validate)
        {
            return None;
        }
        Some(Records {
            buf,
            n,
            _marker: std::marker::PhantomData,
        })
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterate tailed records: each head, parsed, with its tail in
    /// place.
    pub fn tailed(&self) -> impl Iterator<Item = (T, &'a [u8])> {
        const { assert!(T::TAILED, "fixed-stride records have no tails") };
        let mut rest = self.buf;
        (0..self.n).map(move |_| {
            let (head, tail) = rest.split_at(T::STRIDE);
            let head = T::parse(head);
            let (tail, next) = tail.split_at(head.tail_len());
            rest = next;
            (head, tail)
        })
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
        const { assert!(!T::TAILED, "tailed records are read with `tailed`") };
        RecordsIter {
            chunks: self.buf.chunks_exact(T::STRIDE),
            _marker: std::marker::PhantomData,
        }
    }
}

/// Little-endian primitives, each its own byte width.
macro_rules! record_primitive {
    ($($ty:ty),*) => {$(
        impl WireRecord for $ty {
            const STRIDE: usize = std::mem::size_of::<$ty>();

            #[inline]
            fn parse(chunk: &[u8]) -> Self {
                <$ty>::from_le_bytes(*chunk.first_chunk().expect("a record's bytes"))
            }

            #[inline]
            fn write(&self, slot: &mut [u8]) {
                slot[..Self::STRIDE].copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

record_primitive!(u8, u32, u64, i64, f64);

/// Fields back to back, valid when each one is: VMSG and PARTIAL carry
/// `(target, value)`, DEG_DELTA `(vertex, out delta, in delta)`.
macro_rules! record_tuple {
    ($(($($t:ident $i:tt),+))*) => {$(
        #[allow(unused_assignments)]
        impl<$($t: WireRecord),+> WireRecord for ($($t,)+) {
            const STRIDE: usize = 0 $(+ $t::STRIDE)+;

            #[inline]
            fn validate(chunk: &[u8]) -> bool {
                let mut at = 0;
                $(let ok = $t::validate(&chunk[at..]);
                at += $t::STRIDE;
                if !ok {
                    return false;
                })+
                true
            }

            #[inline]
            fn parse(chunk: &[u8]) -> Self {
                let mut at = 0;
                ($({
                    let field = $t::parse(&chunk[at..]);
                    at += $t::STRIDE;
                    field
                },)+)
            }

            #[inline]
            fn write(&self, slot: &mut [u8]) {
                let mut at = 0;
                $(self.$i.write(&mut slot[at..]);
                at += $t::STRIDE;)+
            }
        }
    )*};
}

record_tuple!((A 0) (A 0, B 1) (A 0, B 1, C 2));

/// `N` records back to back.
impl<T: WireRecord, const N: usize> WireRecord for [T; N] {
    const STRIDE: usize = N * T::STRIDE;

    fn validate(chunk: &[u8]) -> bool {
        chunk.chunks_exact(T::STRIDE).take(N).all(T::validate)
    }

    fn parse(chunk: &[u8]) -> Self {
        std::array::from_fn(|i| T::parse(&chunk[i * T::STRIDE..]))
    }

    fn write(&self, slot: &mut [u8]) {
        for (x, slot) in self.iter().zip(slot.chunks_exact_mut(T::STRIDE)) {
            x.write(slot);
        }
    }
}

/// Nothing: the header of a frame that is only records.
impl WireRecord for () {
    const STRIDE: usize = 0;

    fn parse(_: &[u8]) -> Self {}

    fn write(&self, _: &mut [u8]) {}
}

/// One byte; any nonzero byte reads as `true`.
impl WireRecord for bool {
    const STRIDE: usize = 1;

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        chunk[0] != 0
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        slot[0] = u8::from(*self);
    }
}

/// One-byte enums: each variant its code, any other byte invalid.
macro_rules! record_enum {
    ($($ty:ident { $($variant:ident = $code:literal),+ })*) => {$(
        impl WireRecord for $ty {
            const STRIDE: usize = 1;

            // The codes are listed, not assumed contiguous.
            #[allow(clippy::manual_range_patterns)]
            #[inline]
            fn validate(chunk: &[u8]) -> bool {
                matches!(chunk[0], $($code)|+)
            }

            #[inline]
            fn parse(chunk: &[u8]) -> Self {
                match chunk[0] {
                    $($code => $ty::$variant,)+
                    _ => unreachable!("a validated chunk"),
                }
            }

            #[inline]
            fn write(&self, slot: &mut [u8]) {
                slot[0] = match self {
                    $($ty::$variant => $code,)+
                };
            }
        }
    )*};
}

record_enum! {
    Phase { Scatter = 0, Combine = 1, Apply = 2, Migrate = 3 }
    Side { Out = 0, In = 1 }
    Action { Insert = 0, Delete = 1 }
    HashKind { Wang = 0, Mult = 1, Abseil = 2, Crc64 = 3 }
}

/// EDGE_CHANGES record: `(action, src, dst)`, 17 bytes.
impl WireRecord for EdgeChange {
    const STRIDE: usize = 17;

    #[inline]
    fn validate(chunk: &[u8]) -> bool {
        Action::validate(chunk)
    }

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        let (action, src, dst) = WireRecord::parse(chunk);
        EdgeChange {
            action,
            edge: (src, dst).into(),
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        (self.action, self.edge.src, self.edge.dst).write(slot);
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

/// One vertex's answer inside a QUERY_BATCH reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The queried vertex.
    pub vertex: VertexId,
    /// Program state (meaningless unless `found == ANSWER_HIT`).
    pub state: u64,
    /// [`ANSWER_MISS`], [`ANSWER_HIT`] or [`ANSWER_GONE`].
    pub found: u8,
}

/// QUERY_BATCH answer record: `(vertex, state, found)`, 17 bytes, the
/// answer code one of the three.
impl WireRecord for QueryAnswer {
    const STRIDE: usize = 17;

    #[inline]
    fn validate(chunk: &[u8]) -> bool {
        chunk[16] <= ANSWER_GONE
    }

    #[inline]
    fn parse(chunk: &[u8]) -> Self {
        let (vertex, state, found) = WireRecord::parse(chunk);
        QueryAnswer {
            vertex,
            state,
            found,
        }
    }

    #[inline]
    fn write(&self, slot: &mut [u8]) {
        (self.vertex, self.state, self.found).write(slot);
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

/// Append a streamer's edge changes: [`append_changes_from`] agent 0.
pub fn append_edge_changes(out: &mut CoalescingOutbox, side: Side, hop: u8, recs: &[EdgeChange]) {
    append_changes_from(out, side, hop, 0, recs);
}

/// Encode a streamer's edge changes: [`encode_changes_from`] agent 0.
pub fn encode_edge_changes(side: Side, hop: u8, recs: &[EdgeChange]) -> Frame {
    encode_changes_from(side, hop, 0, recs)
}

/// Append one edge change: [`append_edge_changes`] of a slice of one.
pub fn append_edge_change(out: &mut CoalescingOutbox, side: Side, hop: u8, change: &EdgeChange) {
    append_edge_changes(out, side, hop, std::slice::from_ref(change));
}

record! {
    /// One state-broadcast record: STATE, 33 bytes.
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

    /// The counted records of one channel pair, 80 bytes: what an agent
    /// sent to one peer and took in from it, per record kind. Counts only
    /// grow until a recovery reset.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Scatter messages sent (per record, not per frame).
        pub vmsg_sent: u64,
        /// Scatter messages taken in.
        pub vmsg_recv: u64,
        /// Partial aggregates sent.
        pub part_sent: u64,
        /// Partial aggregates taken in.
        pub part_recv: u64,
        /// State broadcasts sent.
        pub state_sent: u64,
        /// State broadcasts taken in.
        pub state_recv: u64,
        /// Migration records sent.
        pub mig_sent: u64,
        /// Migration records taken in.
        pub mig_recv: u64,
        /// Forwarded edge changes, degree deltas and residuals sent.
        pub chg_sent: u64,
        /// Forwarded edge changes, degree deltas and residuals taken in.
        pub chg_recv: u64,
    }
}

impl Counters {
    /// The `(kind, sent, taken in)` pairs, in wire order.
    pub fn pairs(&self) -> [(&'static str, u64, u64); 5] {
        [
            ("vmsg", self.vmsg_sent, self.vmsg_recv),
            ("part", self.part_sent, self.part_recv),
            ("state", self.state_sent, self.state_recv),
            ("mig", self.mig_sent, self.mig_recv),
            ("chg", self.chg_sent, self.chg_recv),
        ]
    }
}

/// An agent's [`Counters`] per peer, sorted by peer: a report's rows
/// (READY, DRAIN) list the peers whose counts moved since its last one.
pub type Rows = Vec<(AgentId, Counters)>;

/// Record counts of one sync phase — VMSG of a scatter, PARTIAL of a
/// combine, STATE of an apply — keyed by agent and sorted by it: what
/// one sender put on the wire per destination (READY), or what each
/// receiver has to take in (ADVANCE). Only non-zero entries are listed.
/// Always the last field of its frame, so a frame from before the list
/// ends where its length would be and is refused: read as "nothing
/// sent" it would release a barrier ahead of its records.
pub type StepCounts = Vec<(AgentId, u64)>;

wire! {
    /// A barrier report from an agent.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ReadyReport: READY {
        /// Reporting agent.
        pub agent: AgentId,
        /// Run id (0 when idle / migrating outside a run).
        pub run: u64,
        /// Superstep; in an async idle report, `u32::MAX` less the
        /// dangling-mass rounds the agent has applied.
        pub step: u32,
        /// Phase the agent finished local work for.
        pub phase: Phase,
        /// The peers whose counts moved since the agent's last report.
        pub rows: Rows,
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
        /// termination detector against post-migration counts.
        pub epoch: u64,
        /// Only in a sync run: the records — VMSG, PARTIAL or STATE — the
        /// report's phase put on the wire, per destination. The lead sums
        /// them per receiver and closes the barrier on what was sent; a
        /// re-sent report repeats the list as it was.
        pub sent: StepCounts,
    }

    /// A barrier advance broadcast by the directory.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Advance: ADVANCE {
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
        /// When set, the run is complete, and `step`/`phase` name the
        /// barrier this advance answers.
        pub done: bool,
        /// The phase whose READY the advance asks for. The agent runs
        /// the loop combine → apply → scatter(`step + 1`) from `phase`
        /// and stops after `until`, serving reads between phases.
        pub until: Phase,
        /// What the members reported the barrier this advance answers
        /// sent, summed per receiver: an agent acts on the advance once
        /// it has taken in that many records of [`Advance::answers`].
        pub expect: StepCounts,
    }
}

impl Advance {
    /// The `(step, phase)` of the barrier this advance answers, whose
    /// records — VMSG, PARTIAL, STATE by the phase — `expect` counts: a
    /// `done` names it, others follow it in the step loop. A `Migrate`
    /// advance announces a view change after an apply.
    pub fn answers(&self) -> (u32, Phase) {
        match (self.done, self.phase) {
            (true, phase) => (self.step, phase),
            (false, Phase::Combine) => (self.step, Phase::Scatter),
            (false, Phase::Apply) => (self.step, Phase::Combine),
            (false, Phase::Scatter) => (self.step.wrapping_sub(1), Phase::Apply),
            (false, Phase::Migrate) => (self.step, Phase::Apply),
        }
    }

    /// Records of [`Advance::answers`] that `agent` has to take in
    /// before it acts on this advance.
    pub fn expected_by(&self, agent: AgentId) -> u64 {
        self.expect
            .iter()
            .find(|&&(id, _)| id == agent)
            .map_or(0, |&(_, n)| n)
    }
}

// ---------------------------------------------------------------------
// Migration: one MIG_VERTEX record per moving (vertex, destination),
// written from the vertex's entry straight into the destination's frame
// and read back in place.

record! {
    /// The primary meta behind a MIG_VERTEX head when primaryship moves
    /// with the vertex ([`MigVertex::META`]), 48 bytes: the global
    /// degrees, and what else lives only at the primary — an async
    /// waiting set's partial and progress (§3.2), a delta run's residual
    /// and the served snapshot — so a view change mid-run loses none of
    /// it. A field whose `HAS_*` flag is unset means nothing.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MigMeta {
        /// Global out-degree.
        pub out_degree: u64,
        /// Global in-degree.
        pub in_degree: u64,
        /// Pending combined partial of the async waiting set.
        pub ppartial: u64,
        /// Messages received toward the waiting set.
        pub wait_recv: u64,
        /// Unapplied residual of an incremental run.
        pub residual: u64,
        /// Value at the last completed run, served to queries.
        pub snap: u64,
    }

    /// One vertex moving to one destination: the head of a MIG_VERTEX
    /// record, 41 bytes, which is the sender's replica snapshot. Behind
    /// it come the [`MigMeta`] when [`MigVertex::META`] is set, then the
    /// far endpoints of `n_out` out-edges and `n_in` in-edges as
    /// little-endian `u64`s. The receiver takes the snapshot in with the
    /// edges, so a record without edges hands over only its meta. A
    /// vertex whose lists one frame cannot hold moves as consecutive
    /// records, the meta on the last.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MigVertex {
        /// The vertex.
        pub vertex: VertexId,
        /// [`MigVertex::HAS_STATE`] and the other flag bits.
        pub flags: u8,
        /// Encoded program state.
        pub state: u64,
        /// The replica's global out-degree: scatter shares divide by it.
        pub out_degree: u64,
        /// A delta run's un-scattered pending delta, which the new owner
        /// pushes along the moved edges (0 = none).
        pub aux: u64,
        /// Out-edges behind the head.
        pub n_out: u32,
        /// In-edges behind those.
        pub n_in: u32,
    }
    tail |h| 8 * (h.n_out as usize + h.n_in as usize)
        + if h.has(MigVertex::META) { MigMeta::STRIDE } else { 0 };
}

/// The far endpoints of a MIG_VERTEX record's out- or in-edges.
pub type Ids<'a> = Records<'a, VertexId>;

impl MigVertex {
    /// Flag: `state` is initialized.
    pub const HAS_STATE: u8 = 1;
    /// Flag: the vertex is active.
    pub const ACTIVE: u8 = 1 << 1;
    /// Flag: a [`MigMeta`] follows the head.
    pub const META: u8 = 1 << 2;
    /// Flag: the meta holds the primary record, not only run state.
    pub const IS_META: u8 = 1 << 3;
    /// Flag: the vertex was touched by changes since the last run.
    pub const DIRTY: u8 = 1 << 4;
    /// Flag: [`MigMeta::ppartial`] holds a value.
    pub const HAS_PPARTIAL: u8 = 1 << 5;
    /// Flag: [`MigMeta::residual`] holds a value.
    pub const HAS_RESIDUAL: u8 = 1 << 6;
    /// Flag: [`MigMeta::snap`] holds a value.
    pub const HAS_SNAP: u8 = 1 << 7;

    /// Whether `flag` is set.
    #[inline]
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// Fill the record's tail: `meta`, then the ids.
    pub fn write_tail<'a>(
        tail: &mut [u8],
        meta: Option<&MigMeta>,
        ids: impl Iterator<Item = &'a VertexId>,
    ) {
        let at = meta.map_or(0, |m| {
            m.write(tail);
            MigMeta::STRIDE
        });
        for (slot, w) in tail[at..].chunks_exact_mut(8).zip(ids) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Read the record's tail: its meta, if it carries one, and the far
    /// endpoints of its out- and in-edges.
    pub fn read_tail<'a>(&self, tail: &'a [u8]) -> (Option<MigMeta>, Ids<'a>, Ids<'a>) {
        let meta = self.has(Self::META).then(|| MigMeta::parse(tail));
        let ids = &tail[meta.map_or(0, |_| MigMeta::STRIDE)..];
        let (out, inn) = ids.split_at(8 * self.n_out as usize);
        let ids = |buf: &'a [u8]| Records::new(buf, buf.len() / 8).expect("whole ids");
        (meta, ids(out), ids(inn))
    }
}

/// A checkpoint shard's payload: the MIG_VERTEX frames an agent's whole
/// store is written into, as a `u32` frame count and each frame behind
/// its `u32` byte length.
pub fn shard_payload(frames: &[Frame]) -> Vec<u8> {
    let mut b = (frames.len() as u32).to_le_bytes().to_vec();
    for f in frames {
        b.extend((f.len() as u32).to_le_bytes().iter().chain(f.as_bytes()));
    }
    b
}

/// The frames of a shard payload ([`shard_payload`]); `None` when it is
/// cut short or runs on past them.
pub fn shard_frames(payload: &[u8]) -> Option<Vec<Frame>> {
    let mut r = FrameReader::new(payload);
    let frame = |f: &[u8]| (!f.is_empty()).then(|| Frame::from_bytes(f.into()));
    let frames: Option<Vec<Frame>> = (0..r.u32()?).map(|_| r.bytes().and_then(frame)).collect();
    frames.filter(|_| r.remaining() == 0)
}

/// A record-bearing frame written one record at a time, in place, in
/// its `records_frames!` row's layout: the kind byte, the header, the
/// `u32` record count that [`OpenFrame::finish`] fills in, the records.
/// It is how tailed records are sent: they have no fixed stride to
/// append runs by.
pub struct OpenFrame<T> {
    buf: Vec<u8>,
    count_at: usize,
    records: u32,
    _marker: std::marker::PhantomData<fn(&T)>,
}

impl<T: WireRecord> OpenFrame<T> {
    fn new(kind: u8, header: &[u8]) -> Self {
        let buf = [&[kind], header, &[0; 4]].concat();
        let (count_at, _marker) = (buf.len() - 4, std::marker::PhantomData);
        OpenFrame {
            buf,
            count_at,
            records: 0,
            _marker,
        }
    }

    /// Bytes written, the kind byte included.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    /// Write one record: `head`, then the `head.tail_len()` bytes of
    /// its tail, filled in place by `tail`.
    pub fn push(&mut self, head: &T, tail: impl FnOnce(&mut [u8])) {
        let at = self.buf.len();
        self.buf.resize(at + T::STRIDE + head.tail_len(), 0);
        let (slot, rest) = self.buf[at..].split_at_mut(T::STRIDE);
        head.write(slot);
        tail(rest);
        self.records += 1;
    }

    /// The finished frame.
    pub fn finish(mut self) -> Frame {
        let at = self.count_at;
        self.buf[at..at + 4].copy_from_slice(&self.records.to_le_bytes());
        Frame::from_bytes(self.buf.into())
    }
}

wire! {
    /// Description of an in-progress run: the START broadcast, and what
    /// a JOIN reply hands a late joiner.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RunInfo: START {
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

    /// A standing-subscription registration: the agent pushes value
    /// changes of `vertices` to `addr` after each completed run. An empty
    /// list cancels subscription `sub`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SubReg: SUB_REG {
        /// Where SUB_PUSH frames go.
        pub addr: Addr,
        /// Client-chosen id, unique per push address.
        pub sub: u64,
        /// The watched vertices.
        pub vertices: Vec<VertexId>,
    }

    /// The reply to a JOIN: the view plus the run in progress, if any.
    #[derive(Debug, Clone)]
    pub struct JoinReply: JOIN {
        /// The view the joiner starts from.
        pub view: DirectoryView as frame,
        /// The run it joins mid-way.
        pub run: Option<RunInfo>,
    }

    /// Run status snapshot returned by the directory.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RunStatus: RUN_STATUS {
        /// Run id (0 when none has run).
        pub run_id: u64,
        /// Whether a run is in progress.
        pub running: bool,
        /// Whether the last run completed.
        pub done: bool,
        /// Supersteps completed.
        pub steps: u32,
        /// Global vertex count at the last barrier.
        pub n_vertices: u64,
        /// Per-superstep wall times in nanoseconds.
        pub step_nanos: Vec<u64>,
    }

    /// Every DRAIN frame ([`packet::DRAIN`]): an agent's counts, sent
    /// once its open frames are on the wire and its degree changes on
    /// their way ahead of it, or — from the driver or the lead, agent 0 —
    /// counts to wait for.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DrainReport: DRAIN {
        /// The reporting agent; 0 for the driver and the lead.
        pub agent: AgentId,
        /// Its adopted view epoch (the lead's, for a lead's DRAIN).
        pub epoch: u64,
        /// Its rows. In a lead's DRAIN, what each peer reported sending
        /// the receiver, peer 0 the streamers' records (`chg_sent`).
        pub rows: Rows,
    }

    /// A CKPT_SAVE request: write one shard of checkpoint `generation`
    /// at view `epoch`, covering the first `watermark` ingested change
    /// records.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CkptSave: CKPT_SAVE {
        /// Generation to write.
        pub generation: u64,
        /// View epoch at the cut.
        pub epoch: u64,
        /// Change-stream watermark the generation covers.
        pub watermark: u64,
    }

    /// One agent's reply to a CKPT_SAVE request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CkptSaveReport: CKPT_SAVE {
        /// Whether the shard file was written, fsynced and renamed into
        /// place. False leaves the generation uncommittable — the driver
        /// must not write a manifest for it.
        pub ok: bool,
        /// Serialized payload bytes (0 on failure).
        pub bytes: u64,
        /// Wall time spent serializing and writing, in nanoseconds.
        pub nanos: u64,
    }

    /// A CKPT_LOAD request: load the named agents' shards of checkpoint
    /// `generation` into the store, then send whatever the current view
    /// places elsewhere as migration streams.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CkptLoad: CKPT_LOAD {
        /// Generation to load.
        pub generation: u64,
        /// The agents whose shards to load.
        pub shards: Vec<AgentId>,
    }

    /// One agent's reply to a CKPT_LOAD request, sent once its
    /// migration streams are flushed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CkptLoadReport: CKPT_LOAD {
        /// Whether every shard was read and decoded.
        pub ok: bool,
        /// Payload bytes loaded.
        pub bytes: u64,
    }

    /// Failure-recovery broadcast published by the lead directory after it
    /// declares an agent dead: survivors drop all graph state and counts,
    /// adopt the embedded view, and settle a fresh migrate barrier; the
    /// driver replays the retained change log and restarts any aborted run.
    #[derive(Debug, Clone)]
    pub struct Recover: RECOVER {
        /// The post-eviction view epoch.
        pub epoch: u64,
        /// The agent declared dead.
        pub dead_agent: AgentId,
        /// Run id aborted by the failure (0 when no run was active).
        pub aborted_run: u64,
        /// The post-eviction directory view.
        pub view: DirectoryView as frame,
    }
}

/// SKETCH_DELTA form byte: the whole table, row-major `i32` counts.
const DELTA_DENSE: u8 = 0;
/// SKETCH_DELTA form byte: the cells the delta touched, as one
/// length-prefixed run of `(u32 index, i32 count)` pairs.
const DELTA_SPARSE: u8 = 1;

/// Encode an agent's sketch delta (push to its directory), counted
/// under view `epoch`: the epoch, the form byte, `width, depth, items`,
/// then whichever body is smaller — the touched cells as pairs, or the
/// dense table. Counts are signed; a non-negative one has the bytes its
/// `u32` would.
pub fn encode_sketch_delta(epoch: u64, delta: &SketchDelta) -> Frame {
    let cells = delta.width() * delta.depth();
    let sparse = delta.touched() * 2 < cells;
    let b = Frame::builder(packet::SKETCH_DELTA)
        .u64(epoch)
        .u8(if sparse { DELTA_SPARSE } else { DELTA_DENSE })
        .u32(delta.width() as u32)
        .u32(delta.depth() as u32)
        .u64(delta.items() as u64);
    if sparse {
        let pairs = delta
            .cells()
            .flat_map(|(idx, count)| [idx as u32, count as u32]);
        b.u32((delta.touched() * 8) as u32).u32s(pairs)
    } else {
        let counts = delta.counts().iter().map(|&count| count as u32);
        b.u32((cells * 4) as u32).u32s(counts)
    }
    .finish()
}

/// A decoded SKETCH_DELTA, borrowed from its frame: dimensions are
/// nonzero, the body has the length its form promises, and every
/// sparse index is inside the `width × depth` table.
#[derive(Debug, Clone, Copy)]
pub struct SketchDeltaView<'a> {
    /// The view epoch the sender counted under.
    pub epoch: u64,
    width: usize,
    depth: usize,
    items: i64,
    sparse: bool,
    /// Dense: `width × depth` counts. Sparse: `(index, count)` pairs.
    body: &'a [u8],
}

impl SketchDeltaView<'_> {
    /// `(table index, count)` of every cell the delta carries — all of
    /// them, zeros included, in the dense form.
    pub fn cells(&self) -> impl Iterator<Item = (usize, i32)> + '_ {
        let le = |c: &[u8]| i32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        let stride = if self.sparse { 8 } else { 4 };
        let sparse = self.sparse;
        self.body
            .chunks_exact(stride)
            .enumerate()
            .map(move |(i, c)| {
                if sparse {
                    (le(&c[..4]) as u32 as usize, le(&c[4..]))
                } else {
                    (i, le(c))
                }
            })
    }

    /// Fold the delta into `sketch`, the one loop both forms share, and
    /// say whether a changed counter changed `class`
    /// ([`CountMinSketch::fold`]).
    ///
    /// # Errors
    /// Returns `Err`, with nothing folded, when dimensions differ.
    pub fn fold_into(
        &self,
        sketch: &mut CountMinSketch,
        class: impl Fn(u32) -> u32,
    ) -> Result<bool, DimensionMismatch> {
        sketch.fold((self.width, self.depth), self.cells(), self.items, class)
    }
}

/// Decode a SKETCH_DELTA frame; `None` on truncation, trailing bytes, a
/// zero dimension, an unknown form or an index outside the table.
pub fn decode_sketch_delta(frame: &Frame) -> Option<SketchDeltaView<'_>> {
    let mut r = expect(frame, packet::SKETCH_DELTA)?;
    let epoch = r.u64()?;
    let form = r.u8()?;
    let width = r.u32()? as usize;
    let depth = r.u32()? as usize;
    let items = r.u64()? as i64;
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
        epoch,
        width,
        depth,
        items,
        sparse,
        body,
    };
    (!sparse || view.cells().all(|(idx, _)| idx < cells)).then_some(view)
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
    fn ready_advance_roundtrip() {
        let rep = ReadyReport {
            agent: 5,
            run: 2,
            step: 9,
            phase: Phase::Scatter,
            rows: vec![(
                3,
                Counters {
                    vmsg_sent: 10,
                    vmsg_recv: 10,
                    part_sent: 3,
                    part_recv: 2,
                    ..Counters::default()
                },
            )],
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
            assert_eq!(ReadyReport::decode(&rep.encode()).unwrap(), rep);
        }

        let adv = Advance {
            run: 2,
            step: 9,
            phase: Phase::Combine,
            n_vertices: 100,
            global: 1.5,
            done: false,
            until: Phase::Scatter,
            expect: vec![(2, 5), (9, 1)],
        };
        for expect in [Vec::new(), adv.expect.clone()] {
            let adv = Advance {
                expect,
                ..adv.clone()
            };
            assert_eq!(Advance::decode(&adv.encode()).unwrap(), adv);
        }
        assert_eq!(
            (adv.expected_by(2), adv.expected_by(9), adv.expected_by(3)),
            (5, 1, 0)
        );
        // The counts are the records of the barrier answered: the phase
        // before the advance's own in the step loop, or the one a `done`
        // names; a `Migrate` advance's are its step's STATE.
        for (phase, done, answers) in [
            (Phase::Combine, false, (9, Phase::Scatter)),
            (Phase::Apply, false, (9, Phase::Combine)),
            (Phase::Scatter, false, (8, Phase::Apply)),
            (Phase::Migrate, false, (9, Phase::Apply)),
            (Phase::Scatter, true, (9, Phase::Scatter)),
        ] {
            let adv = Advance {
                phase,
                done,
                ..adv.clone()
            };
            assert_eq!(adv.answers(), answers);
        }
    }

    /// `done` and `until` have a byte each, and the counts come last in
    /// both frames. A frame in the layout from before them ends where
    /// the list's length would be and is refused: read as an empty list,
    /// an old READY would tell the lead nothing was sent and an old
    /// ADVANCE would tell an agent to expect nothing — a barrier
    /// released ahead of its records either way.
    #[test]
    fn advance_flags_and_counts_and_old_layouts_refused() {
        let base = Advance {
            run: 4,
            step: 7,
            phase: Phase::Combine,
            n_vertices: 9,
            global: -0.25,
            done: false,
            until: Phase::Combine,
            expect: vec![(1, 3)],
        };
        for (done, until) in [(false, Phase::Apply), (true, Phase::Scatter)] {
            let adv = Advance {
                done,
                until,
                ..base.clone()
            };
            let frame = adv.encode();
            let at = frame.len() - 4 - 16 - 2;
            assert_eq!(frame.as_bytes()[at..at + 2], [u8::from(done), until as u8]);
            assert_eq!(Advance::decode(&frame).unwrap(), adv);
            // As an encoder without the list wrote it.
            let old = bytes::Bytes::copy_from_slice(&frame.as_bytes()[..at + 2]);
            assert_eq!(Advance::decode(&Frame::from_bytes(old)), None);
        }
        let rep = ReadyReport {
            agent: 1,
            run: 4,
            step: 7,
            phase: Phase::Scatter,
            rows: Vec::new(),
            active: 0,
            global_contrib: 0.0,
            n_primary: 3,
            seq: 1,
            epoch: 2,
            sent: vec![(2, 6)],
        };
        let bytes = rep.encode();
        let bytes = bytes.as_bytes();
        let cut = |n: usize| Frame::from_bytes(bytes::Bytes::copy_from_slice(&bytes[..n]));
        assert_eq!(ReadyReport::decode(&cut(bytes.len())), Some(rep));
        assert_eq!(
            ReadyReport::decode(&cut(bytes.len() - 4 - 16)),
            None,
            "old layout"
        );
        assert_eq!(
            ReadyReport::decode(&cut(bytes.len() - 1)),
            None,
            "short list"
        );
        // A length that promises more than the frame holds allocates
        // nothing and decodes to nothing.
        let mut lying = bytes[..bytes.len() - 16].to_vec();
        let at = lying.len() - 4;
        lying[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(ReadyReport::decode(&Frame::from_bytes(lying.into())), None);
    }

    /// Two records: a moving primary with its meta and both lists, and
    /// a meta-only handoff of async run state.
    fn sample_mig_vertex() -> Frame {
        let mut f = open_mig_vertex(6, 11, 3);
        let head = MigVertex {
            vertex: 5,
            flags: MigVertex::HAS_STATE | MigVertex::META | MigVertex::IS_META,
            state: 42,
            out_degree: 3,
            aux: 0.25f64.to_bits(),
            n_out: 2,
            n_in: 1,
        };
        let meta = MigMeta {
            out_degree: 2,
            in_degree: 1,
            residual: 0.5f64.to_bits(),
            snap: 41,
            ..MigMeta::default()
        };
        f.push(&head, |t| {
            MigVertex::write_tail(t, Some(&meta), [6, 7, 1 << 40].iter())
        });
        let (vertex, flags) = (9, MigVertex::META | MigVertex::HAS_PPARTIAL);
        let handoff = MigVertex {
            vertex,
            flags,
            ..MigVertex::default()
        };
        let (ppartial, wait_recv) = (41, 2);
        let parked = MigMeta {
            ppartial,
            wait_recv,
            ..MigMeta::default()
        };
        f.push(&handoff, |t| {
            MigVertex::write_tail(t, Some(&parked), [].iter())
        });
        f.finish()
    }

    /// A MIG_VERTEX frame is its header (the snapshot tag and the
    /// sender), a count and the records, each
    /// head, meta and lists field by field — the layout stated a second
    /// time so the test pins it — and reads back as written. A list
    /// length or record count that promises more than the frame holds
    /// reads as nothing (truncations and a wrong kind: `tests/prop.rs`).
    #[test]
    fn mig_vertex_matches_its_layout_and_roundtrips() {
        let f = sample_mig_vertex();
        let meta = |b: FrameBuilder, m: [u64; 6]| m.iter().fold(b, |b, &x| b.u64(x));
        let b = Frame::builder(packet::MIG_VERTEX)
            .u64(6)
            .u64(11)
            .u64(3)
            .u32(2);
        let b = b.u64(5).u8(1 | 4 | 8).u64(42).u64(3).u64(0.25f64.to_bits());
        let b = meta(b.u32(2).u32(1), [2, 1, 0, 0, 0.5f64.to_bits(), 41]);
        let b = b.u64(6).u64(7).u64(1 << 40);
        let b = b.u64(9).u8(4 | 32).u64(0).u64(0).u64(0).u32(0).u32(0);
        assert_eq!(f, meta(b, [0, 0, 41, 2, 0, 0]).finish());
        let view = decode_mig_vertex(&f).unwrap();
        assert_eq!((view.snap_run, view.snap_watermark, view.from), (6, 11, 3));
        let read = |(head, tail): (MigVertex, &[u8])| {
            let (meta, out, inn) = head.read_tail(tail);
            (
                head.vertex,
                meta.map(|m| m.snap),
                out.to_vec(),
                inn.to_vec(),
            )
        };
        let got: Vec<_> = view.records.tailed().map(read).collect();
        let want = [
            (5, Some(41), vec![6, 7], vec![1 << 40]),
            (9, Some(0), vec![], vec![]),
        ];
        assert_eq!(got, want);
        let n_in_at = 1 + 24 + 4 + 8 + 1 + 24 + 4;
        for (at, value) in [(n_in_at, 2u32), (n_in_at, u32::MAX), (25, 3)] {
            let mut lying = f.as_bytes().to_vec();
            lying[at..at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(decode_mig_vertex(&Frame::from_bytes(lying.into())).is_none());
        }
    }

    /// The markers DESIGN.md's rendered wire tables sit between.
    const WIRE_BEGIN: &str = "<!-- wire tables: rendered from msg.rs by its \
        `design_md_holds_the_rendered_wire_tables` test; edit the declarations, \
        not this block -->";
    const WIRE_END: &str = "<!-- end of the rendered wire tables -->";

    /// The bodies of the `name! { ... }` invocations at the start of a
    /// line in `source`.
    fn invocations<'a>(source: &'a str, name: &str) -> Vec<&'a str> {
        let open = format!("\n{name} {{\n");
        let body = |(at, _): (usize, &str)| {
            let body = &source[at + open.len()..];
            &body[..body.find("\n}\n").expect("a closed invocation")]
        };
        source.match_indices(&open).map(body).collect()
    }

    /// Each code line of `block`, trimmed, with the `///` doc above it
    /// joined into one line; attributes are skipped.
    fn documented(block: &str) -> Vec<(String, &str)> {
        let (mut doc, mut out) = (Vec::new(), Vec::new());
        for line in block.lines().map(str::trim) {
            if let Some(text) = line.strip_prefix("///") {
                doc.push(text.trim());
            } else if !line.is_empty() && !line.starts_with("#[") {
                out.push((doc.join(" "), line));
                doc.clear();
            }
        }
        out
    }

    /// A struct of a `wire!` or `record!` table, or a hand-written
    /// record.
    struct Decl<'a> {
        name: &'a str,
        kind: Option<&'a str>,
        /// `field: Type` in declaration order; a hand-written record's
        /// one entry is the tuple its `write` writes.
        fields: Vec<String>,
        /// A tailed record's tail length, as written.
        tail: Option<String>,
        /// A hand-written record's literal stride.
        stride: Option<usize>,
    }

    fn decls<'a>(blocks: &[&'a str]) -> Vec<Decl<'a>> {
        let chunks = blocks.iter().flat_map(|b| b.split("pub struct ").skip(1));
        let decl = |chunk: &'a str| {
            let (head, body) = chunk.split_once(" {\n").unwrap();
            let (name, kind) = head
                .split_once(": ")
                .map_or((head, None), |(n, k)| (n, Some(k)));
            let field = |(_, l): (String, &str)| {
                Some(l.strip_prefix("pub ")?.trim_end_matches(',').to_string())
            };
            let fields = documented(body).into_iter().filter_map(field).collect();
            let tail = body.split_once("tail |").map(|(_, t)| {
                let t = t.split_once("| ").unwrap().1.split_once(';').unwrap().0;
                t.split_whitespace().collect::<Vec<_>>().join(" ")
            });
            Decl {
                name,
                kind,
                fields,
                tail,
                stride: None,
            }
        };
        chunks.map(decl).collect()
    }

    /// The records whose `WireRecord` impl is written by hand: a literal
    /// stride, the fields written as one tuple.
    fn hand_records(source: &'static str) -> Vec<Decl<'static>> {
        let decl = |imp: &'static str| {
            let imp = imp.split_once("\n}\n")?.0;
            let stride = imp
                .split_once("const STRIDE: usize = ")?
                .1
                .split_once(';')?
                .0;
            let written = imp.split_once(".write(slot);")?.0.rsplit_once("(self.")?.1;
            let fields = vec![format!("({}", written.replace("self.", ""))];
            let (name, stride) = (imp.split_once(" {")?.0, Some(stride.parse().ok()?));
            Some(Decl {
                name,
                kind: None,
                fields,
                tail: None,
                stride,
            })
        };
        source
            .split("\nimpl WireRecord for ")
            .filter_map(decl)
            .collect()
    }

    /// Bytes of a fixed-width type on the wire: primitives, one-byte
    /// enums, tuples, arrays and `records`.
    fn width(ty: &str, records: &[Decl]) -> Option<usize> {
        if let Some(inner) = ty.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
            return inner.split(", ").map(|t| width(t, records)).sum();
        }
        if let Some(inner) = ty.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
            let (t, n) = inner.split_once("; ")?;
            return Some(width(t, records)? * n.parse::<usize>().ok()?);
        }
        match ty {
            "u8" | "bool" | "Phase" | "Side" | "Action" | "HashKind" => Some(1),
            "u32" => Some(4),
            "u64" | "i64" | "f64" | "VertexId" | "AgentId" => Some(8),
            _ => {
                let d = records.iter().find(|d| d.name == ty)?;
                let fields = d
                    .fields
                    .iter()
                    .map(|f| width(f.split_once(": ")?.1, records));
                d.stride.or_else(|| fields.sum())
            }
        }
    }

    /// DESIGN.md's wire tables, rendered from this file's declarations
    /// (and the metrics structs' kinds in `metrics`), with the stride of
    /// each record type the tables list.
    fn render_wire_tables(msg: &'static str, metrics: &str) -> (String, Vec<(String, usize)>) {
        let structs = decls(&invocations(msg, "wire!"));
        let mut records = decls(&invocations(msg, "record!"));
        records.extend(hand_records(msg));
        let metric_kinds: Vec<(&str, &str)> = invocations(metrics, "metrics!")
            .iter()
            .flat_map(|b| b.lines())
            .filter_map(|l| l.trim().strip_prefix("pub struct ")?.split_once(": "))
            .map(|(name, kind)| (name, kind.trim_end_matches([',', ' ', '{'])))
            .collect();
        // `(kind, header fields, record type)` of every records_frames! row.
        let row = |(_, line): (String, &'static str)| {
            let (lhs, rec) = line.split_once(" =>")?.0.rsplit_once(": ")?;
            let (kind, header) = lhs
                .split_once('(')
                .map_or((lhs, None), |(k, h)| (k, h.split_once(')')));
            Some((kind, header.map(|h| h.0), rec))
        };
        let rows: Vec<_> = documented(invocations(msg, "records_frames!")[0])
            .into_iter()
            .filter_map(row)
            .collect();

        let module = msg.split_once("pub mod packet {\n").unwrap().1;
        let module = &module[..module.find("\n}\n").unwrap()];
        let mut out = String::from("\n| byte | kind | pattern | what | declared |\n");
        out += "|---:|---|---|---|---|\n";
        for (doc, line) in documented(module) {
            let line = line
                .strip_prefix("pub const ")
                .unwrap()
                .trim_end_matches(';');
            let (name, byte) = line.split_once(": u8 = ").unwrap();
            let (open, close) = (doc.find(" (").unwrap(), doc.find(')').unwrap());
            let pattern = &doc[open + 2..close];
            assert!(
                ["REQ", "push", "PUB", "reply"]
                    .iter()
                    .any(|p| pattern.starts_with(p)),
                "packet::{name}'s doc names no pattern: {doc}"
            );
            let what = format!("{}{}", &doc[..open], &doc[close + 1..]);
            let what = what.replace("[`super::", "`").replace(['[', ']'], "");
            let structs = structs.iter().filter(|d| d.kind == Some(name));
            let structs = structs.map(|d| format!("`{}`", d.name));
            let metrics = metric_kinds.iter().filter(|m| m.1 == name);
            let metrics = metrics.map(|m| format!("`{}` (`metrics!`)", m.0));
            let rows = rows
                .iter()
                .filter(|r| r.0 == name)
                .map(|&(_, header, rec)| match header {
                    Some(h) => {
                        let bytes = h
                            .split(", ")
                            .map(|f| width(f.split_once(": ")?.1, &records));
                        let bytes = bytes.sum::<Option<usize>>().unwrap();
                        format!("`{h}` ({bytes} B), `{rec}` records")
                    }
                    None => format!("`{rec}` records"),
                });
            let declared: Vec<String> = structs.chain(metrics).chain(rows).collect();
            let declared = if declared.is_empty() {
                "—".to_string()
            } else {
                declared.join("; ")
            };
            out += &format!("| {byte} | `{name}` | {pattern} | {what} | {declared} |\n");
        }

        out += "\n| struct | kind | fields |\n|---|---|---|\n";
        for d in &structs {
            let kind = d.kind.map_or("—".to_string(), |k| format!("`{k}`"));
            out += &format!("| `{}` | {kind} | `{}` |\n", d.name, d.fields.join(", "));
        }

        out += "\n| record | stride | fields | tail |\n|---|---:|---|---|\n";
        let mut strides: Vec<(String, usize)> = Vec::new();
        let declared = records
            .iter()
            .filter(|d| d.stride.is_none())
            .map(|d| d.name);
        for ty in rows.iter().map(|r| r.2).chain(declared) {
            if strides.iter().any(|(t, _)| t == ty) {
                continue;
            }
            let stride = width(ty, &records).unwrap_or_else(|| panic!("no width for {ty}"));
            let decl = records.iter().find(|d| d.name == ty);
            let fields = decl.map_or("—".to_string(), |d| format!("`{}`", d.fields.join(", ")));
            let tail = decl.and_then(|d| d.tail.as_deref());
            let tail = tail.map_or("—".to_string(), |t| format!("`{t}`"));
            out += &format!("| `{ty}` | {stride} | {fields} | {tail} |\n");
            strides.push((ty.to_string(), stride));
        }
        (out, strides)
    }

    /// DESIGN.md holds, between its two markers, exactly the wire tables
    /// this file's declarations render: every kind with its byte, the
    /// pattern its doc names and what declares its payload, every
    /// control struct's fields, and every record type's stride, fields
    /// and tail. The strides are the ones the records really have.
    #[test]
    fn design_md_holds_the_rendered_wire_tables() {
        let (block, strides) =
            render_wire_tables(include_str!("msg.rs"), include_str!("metrics.rs"));
        let real = [
            ("EdgeChange", EdgeChange::STRIDE),
            ("(VertexId, u64)", <(VertexId, u64)>::STRIDE),
            ("StateRecord", StateRecord::STRIDE),
            ("MigVertex", MigVertex::STRIDE),
            ("(VertexId, i64, i64)", <(VertexId, i64, i64)>::STRIDE),
            ("VertexId", VertexId::STRIDE),
            ("QueryAnswer", QueryAnswer::STRIDE),
            ("u64", u64::STRIDE),
            ("Counters", Counters::STRIDE),
            ("MigMeta", MigMeta::STRIDE),
        ];
        let real: Vec<(String, usize)> = real.iter().map(|&(t, s)| (t.to_string(), s)).collect();
        assert_eq!(
            strides, real,
            "a record type's stride, or a new record type"
        );
        let design = include_str!("../../../DESIGN.md");
        let held = design
            .split_once(WIRE_BEGIN)
            .and_then(|(_, rest)| rest.split_once(WIRE_END));
        assert!(
            held.is_some_and(|(held, _)| held == block),
            "DESIGN.md's wire tables differ from what msg.rs declares; \
             paste this in their place:\n{WIRE_BEGIN}{block}{WIRE_END}\n"
        );
    }

    #[test]
    fn phase_wire_codes_roundtrip() {
        for p in [Phase::Scatter, Phase::Combine, Phase::Apply, Phase::Migrate] {
            let mut byte = [0];
            p.write(&mut byte);
            assert_eq!(byte, [p as u8]);
            assert!(Phase::validate(&byte));
            assert_eq!(Phase::parse(&byte), p);
        }
        assert!(!Phase::validate(&[4]));
    }

    /// The encoder picks the shorter form, and either folds to the
    /// table direct updates build, decrements included. (Both forms of
    /// *one* delta are compared in `tests/prop.rs`.)
    #[test]
    fn sketch_delta_takes_the_shorter_form_and_folds_to_the_same_table() {
        let mut delta = SketchDelta::new(16, 2);
        let mut direct = CountMinSketch::new(16, 2);
        let mut folded = CountMinSketch::new(16, 2);
        let mut add = |delta: &mut SketchDelta, k, c| {
            delta.add(k, c as i32);
            direct.add(k, c);
        };
        for (k, c) in [(3, 9), (40, 1), (3, 2)] {
            add(&mut delta, k, c);
        }
        // Four cells of 32: pairs.
        let frame = encode_sketch_delta(5, &delta);
        assert_eq!(frame.payload()[8], DELTA_SPARSE);
        assert_eq!(frame.len(), 1 + 8 + 1 + 16 + 4 + delta.touched() * 8);
        let view = decode_sketch_delta(&frame).unwrap();
        assert_eq!(view.epoch, 5);
        view.fold_into(&mut folded, |_| 0).unwrap();
        let mut other = CountMinSketch::new(8, 4);
        assert!(
            view.fold_into(&mut other, |_| 0).is_err(),
            "same cell count"
        );
        assert!(other.is_empty());
        // A batch that touches most of the table, and takes back two of
        // the first one's counts: the table.
        delta.clear();
        (0..64).for_each(|k| add(&mut delta, k, 1));
        delta.add(3, -2);
        assert!(delta.touched() * 2 >= 32);
        let frame = encode_sketch_delta(5, &delta);
        assert_eq!(frame.payload()[8], DELTA_DENSE);
        assert_eq!(frame.len(), 1 + 8 + 1 + 16 + 4 + 32 * 4);
        let view = decode_sketch_delta(&frame).unwrap();
        view.fold_into(&mut folded, |_| 0).unwrap();
        let mut taken = SketchDelta::new(16, 2);
        taken.add(3, -2);
        direct.fold((16, 2), taken.cells(), -2, |_| 0).unwrap();
        assert_eq!(folded, direct);
        assert!(folded.estimate(3) >= 10);
    }

    #[test]
    fn sketch_delta_rejects_malformed_frames() {
        let mut delta = SketchDelta::new(16, 2);
        delta.add(3, -9);
        let good = encode_sketch_delta(1, &delta);
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
                .u64(1)
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
    fn truncated_frames_decode_to_none() {
        let f = Frame::builder(packet::READY).u64(1).finish();
        assert!(ReadyReport::decode(&f).is_none());
        let f = Frame::builder(packet::VMSG).u64(1).u32(0).u32(5).finish();
        assert!(decode_vmsgs(&f).is_none());
    }

    #[test]
    fn wrong_packet_type_decodes_to_none() {
        // A VMSG payload under the PARTIAL packet type (and vice versa)
        // must be rejected even though the layouts agree.
        let msgs = vec![(1u64, 2u64)];
        assert!(decode_partials(&encode_vmsgs(0, 0, 1, &msgs)).is_none());
        assert!(decode_vmsgs(&encode_partials(0, 0, 1, &msgs)).is_none());
        let junk = Frame::signal(packet::OK);
        assert!(decode_edge_changes(&junk).is_none());
        assert!(decode_states(&junk).is_none());
        assert!(ReadyReport::decode(&junk).is_none());
        assert!(Advance::decode(&junk).is_none());
        assert!(decode_mig_vertex(&junk).is_none());
        assert!(decode_deg_deltas(&junk).is_none());
        assert!(JoinReply::decode(&junk).is_none());
        assert!(RunInfo::decode(&junk).is_none());
        assert!(RunStatus::decode(&junk).is_none());
        assert!(decode_reset_labels(&junk).is_none());
        assert!(decode_sketch_delta(&junk).is_none());
        assert!(Recover::decode(&junk).is_none());
    }

    /// Run `f` against a fresh coalescing outbox and return the frames
    /// it sent, final flush included, in order.
    fn coalesced(f: impl FnOnce(&mut CoalescingOutbox)) -> Vec<Frame> {
        use elga_net::{CoalesceConfig, InProcTransport, Transport};
        let t = InProcTransport::new();
        let addr = Addr::inproc("msg-append-eq");
        let mb = t.bind(&addr).unwrap();
        let mut c = CoalescingOutbox::new(t.sender(&addr).unwrap(), CoalesceConfig::default());
        f(&mut c);
        c.flush();
        std::iter::from_fn(|| mb.try_recv().unwrap().map(|d| d.frame)).collect()
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
        // RESIDUAL has no batch encoder: its layout, stated again.
        let residuals = Frame::builder(packet::RESIDUAL)
            .u64(8)
            .records(16, &msgs, <(VertexId, u64)>::write)
            .finish();
        type Case<'a> = (Frame, &'a dyn Fn(&mut CoalescingOutbox, usize));
        let cases: [Case<'_>; 6] = [
            (encode_vmsgs(3, 4, 8, &msgs), &|c, n| {
                msgs.chunks(n).for_each(|r| append_vmsgs(c, 3, 4, 8, r))
            }),
            (encode_partials(5, 6, 8, &msgs), &|c, n| {
                msgs.chunks(n).for_each(|r| append_partials(c, 5, 6, 8, r))
            }),
            (encode_states(1, 2, 8, &states), &|c, n| {
                states.chunks(n).for_each(|r| append_states(c, 1, 2, 8, r))
            }),
            (residuals, &|c, n| {
                msgs.chunks(n).for_each(|r| append_residuals(c, 8, r))
            }),
            (encode_changes_from(Side::In, 2, 8, &changes), &|c, n| {
                let append = |r| append_changes_from(c, Side::In, 2, 8, r);
                changes.chunks(n).for_each(append)
            }),
            (encode_deg_deltas(8, &deltas), &|c, n| {
                deltas.chunks(n).for_each(|r| append_deg_deltas(c, 8, r))
            }),
        ];
        for (batch, append) in cases {
            for run in [usize::MAX, 1] {
                let f = coalesced(|c| append(c, run));
                assert_eq!(f, std::slice::from_ref(&batch), "runs of {run}");
            }
        }
    }

    /// A run under another header opens its own frame, however the
    /// two headers' fields relate, and records keep their append order
    /// within each frame. `(run 0, step 5)` and `(run 2^32, step 5)`
    /// differ only in the high half of `run`; SUB_PUSH's `(0, 0, 2^32)`
    /// and `(0, 1, 0)` move a bit from one field to the other.
    #[test]
    fn append_header_switch_preserves_record_order() {
        let frames = coalesced(|c| {
            append_vmsgs(c, 1, 0, 4, &[(100, 1)]);
            append_vmsgs(c, 1, 0, 4, &[(101, 2)]);
            append_vmsgs(c, 1, 1, 4, &[(102, 3)]);
            append_vmsgs(c, 0, 5, 4, &[(1, 1)]);
            append_vmsgs(c, 1 << 32, 5, 4, &[(2, 2)]);
        });
        let runs: Vec<_> = frames
            .iter()
            .map(|f| {
                let v = decode_vmsgs(f).unwrap();
                ((v.run, v.step), v.records.to_vec())
            })
            .collect();
        let want = [
            ((1, 0), vec![(100, 1), (101, 2)]),
            ((1, 1), vec![(102, 3)]),
            ((0, 5), vec![(1, 1)]),
            ((1 << 32, 5), vec![(2, 2)]),
        ];
        assert_eq!(runs, want);

        let frames = coalesced(|c| {
            append_sub_pushes(c, 0, 0, 1 << 32, &[(3, 4)]);
            append_sub_pushes(c, 0, 1, 0, &[(5, 6)]);
        });
        let runs: Vec<_> = frames
            .iter()
            .map(|f| {
                let v = decode_sub_push(f).unwrap();
                ((v.run, v.watermark), v.records.to_vec())
            })
            .collect();
        let want = [((0, 1 << 32), vec![(3, 4)]), ((1, 0), vec![(5, 6)])];
        assert_eq!(runs, want);
    }
}
