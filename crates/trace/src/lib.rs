//! Lock-cheap event tracing for ElGA participants.
//!
//! Every participant (agent, directory, streamer) can own a [`Tracer`]:
//! a bounded ring buffer of typed, timestamped [`TraceEvent`]s. The
//! design goals, in order:
//!
//! 1. **Near-zero disabled cost.** Every record path starts with one
//!    relaxed atomic load ([`Tracer::enabled`]); a disabled tracer
//!    never takes a lock, never reads the clock, never allocates.
//! 2. **Bounded memory.** The ring keeps the most recent `capacity`
//!    events and counts what it overwrote, so a long run degrades to
//!    "recent history plus a dropped count" instead of unbounded
//!    growth.
//! 3. **One shared timebase.** All tracers in a process timestamp
//!    against the same lazily-initialized epoch, so buffers collected
//!    from different threads merge into one coherent timeline.
//!
//! Buffers are drained over the wire ([`encode_events`] /
//! [`decode_events`]) and rendered with [`chrome_trace_json`] into the
//! Chrome Trace Event Format, loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev) with one track per participant.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (events per participant).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Reason codes carried in the `a` slot of [`EventKind::CoalesceFlush`].
pub mod flush_reason {
    /// The open frame reached the size threshold.
    pub const SIZE: u64 = 0;
    /// The open frame reached the record-count threshold.
    pub const COUNT: u64 = 1;
    /// An explicit flush (end of batch / superstep idle).
    pub const EXPLICIT: u64 = 2;
    /// A differently-typed record forced the open frame out.
    pub const SWITCH: u64 = 3;

    /// Human-readable name for a reason code.
    pub fn name(reason: u64) -> &'static str {
        match reason {
            SIZE => "size",
            COUNT => "count",
            EXPLICIT => "explicit",
            SWITCH => "switch",
            _ => "unknown",
        }
    }
}

/// The event taxonomy. Two shapes: *spans* (have a duration — rendered
/// as Chrome `"X"` complete events) and *instants* (rendered as `"i"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Sync scatter phase (span; `a` = run id, `b` = step).
    PhaseScatter = 0,
    /// Sync combine phase (span; `a` = run id, `b` = step).
    PhaseCombine = 1,
    /// Sync apply phase (span; `a` = run id, `b` = step).
    PhaseApply = 2,
    /// A participant adopted a new directory view (`a` = epoch,
    /// `b` = agent count).
    ViewAdopt = 3,
    /// Outboxes retired on a membership change (`a` = epoch,
    /// `b` = outboxes retired).
    ViewRetire = 4,
    /// A migration frame left for a peer (`a` = destination agent,
    /// `b` = records in the frame).
    MigrateSend = 5,
    /// A migration frame arrived (`a` = records received).
    MigrateRecv = 6,
    /// Recovery began (`a` = new epoch, `b` = dead agent).
    RecoveryTrigger = 7,
    /// The streamer re-routed retained change records (span;
    /// `a` = records replayed, `b` = placement records pushed).
    RecoveryReplay = 8,
    /// A coalescing outbox closed a frame (`a` = [`flush_reason`],
    /// `b` = frame bytes).
    CoalesceFlush = 9,
    /// A send blocked on the credit window (span; `a` = frame bytes).
    BackpressureWait = 10,
    /// The failure detector saw a silent agent (`a` = agent,
    /// `b` = window millis).
    HeartbeatMiss = 11,
    /// An async-mode agent resumed after a mid-run view change by
    /// re-broadcasting its primary vertices' states for re-scatter
    /// under the adopted view (`a` = epoch, `b` = vertices
    /// re-broadcast).
    AsyncRescatter = 12,
    /// An agent serialized and durably wrote one checkpoint shard
    /// (span; `a` = checkpoint generation, `b` = payload bytes).
    CkptWrite = 13,
    /// A checkpoint shard was loaded and re-injected during recovery
    /// (span; `a` = checkpoint generation, `b` = payload bytes).
    CkptRestore = 14,
    /// Recovery finished end-to-end: eviction through restored cluster
    /// (span; `a` = new epoch, `b` = change records replayed).
    RecoveryDone = 15,
    /// An agent decided what a view change moves off it (span over the
    /// placement sweep, before anything is sent; `a` = entries
    /// examined, `b` = entries that shipped edges or a primary record).
    MigrateSweep = 16,
}

impl EventKind {
    /// All kinds, for iteration in tests and exporters.
    pub const ALL: [EventKind; 17] = [
        EventKind::PhaseScatter,
        EventKind::PhaseCombine,
        EventKind::PhaseApply,
        EventKind::ViewAdopt,
        EventKind::ViewRetire,
        EventKind::MigrateSend,
        EventKind::MigrateRecv,
        EventKind::RecoveryTrigger,
        EventKind::RecoveryReplay,
        EventKind::CoalesceFlush,
        EventKind::BackpressureWait,
        EventKind::HeartbeatMiss,
        EventKind::AsyncRescatter,
        EventKind::CkptWrite,
        EventKind::CkptRestore,
        EventKind::RecoveryDone,
        EventKind::MigrateSweep,
    ];

    /// Wire tag.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`EventKind::as_u8`].
    pub fn from_u8(tag: u8) -> Option<EventKind> {
        EventKind::ALL.get(tag as usize).copied()
    }

    /// Display name (the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseScatter => "scatter",
            EventKind::PhaseCombine => "combine",
            EventKind::PhaseApply => "apply",
            EventKind::ViewAdopt => "view_adopt",
            EventKind::ViewRetire => "view_retire",
            EventKind::MigrateSend => "migrate_send",
            EventKind::MigrateRecv => "migrate_recv",
            EventKind::RecoveryTrigger => "recovery_trigger",
            EventKind::RecoveryReplay => "recovery_replay",
            EventKind::CoalesceFlush => "coalesce_flush",
            EventKind::BackpressureWait => "backpressure_wait",
            EventKind::HeartbeatMiss => "heartbeat_miss",
            EventKind::AsyncRescatter => "async_rescatter",
            EventKind::CkptWrite => "ckpt_write",
            EventKind::CkptRestore => "ckpt_restore",
            EventKind::RecoveryDone => "recovery_done",
            EventKind::MigrateSweep => "migrate_sweep",
        }
    }

    /// Whether events of this kind carry a duration.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::PhaseScatter
                | EventKind::PhaseCombine
                | EventKind::PhaseApply
                | EventKind::RecoveryReplay
                | EventKind::BackpressureWait
                | EventKind::CkptWrite
                | EventKind::CkptRestore
                | EventKind::RecoveryDone
                | EventKind::MigrateSweep
        )
    }
}

/// One recorded event. `a` and `b` are kind-specific arguments (see
/// the [`EventKind`] variant docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Nanoseconds since the process-wide trace epoch.
    pub ts_nanos: u64,
    /// Span length in nanoseconds (0 for instants).
    pub dur_nanos: u64,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

/// The process-wide timebase all tracers stamp against.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position once `buf` has grown to `cap`.
    next: usize,
    dropped: u64,
}

/// A per-participant event recorder.
///
/// Cheap to share (`Arc<Tracer>`), cheap when disabled (one relaxed
/// atomic load per record attempt), bounded when enabled (ring of
/// `capacity` events, oldest overwritten first).
pub struct Tracer {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// An enabled tracer keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Tracer {
        let cap = capacity.max(1);
        Tracer {
            enabled: AtomicBool::new(true),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                cap,
                next: 0,
                dropped: 0,
            }),
        }
    }

    /// A permanently-disabled tracer: every record call is a single
    /// relaxed load and an early return.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                cap: 1,
                next: 0,
                dropped: 0,
            }),
        }
    }

    /// Build from a config knob: enabled at [`DEFAULT_CAPACITY`] when
    /// `on`, disabled otherwise.
    pub fn from_flag(on: bool) -> Tracer {
        if on {
            Tracer::new(DEFAULT_CAPACITY)
        } else {
            Tracer::disabled()
        }
    }

    /// Whether records are being kept. Callers use this to skip
    /// argument computation on the disabled path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an instantaneous event, stamped now.
    #[inline]
    pub fn instant(&self, kind: EventKind, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.instant_at(kind, Instant::now(), a, b);
    }

    /// Record an instantaneous event that happened at `at` — for a
    /// participant that is handed the time instead of reading it.
    #[inline]
    pub fn instant_at(&self, kind: EventKind, at: Instant, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.record(TraceEvent {
            kind,
            ts_nanos: at.saturating_duration_since(epoch()).as_nanos() as u64,
            dur_nanos: 0,
            a,
            b,
        });
    }

    /// Record a span that began at `started` and ends now.
    #[inline]
    pub fn span(&self, kind: EventKind, started: Instant, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.record(TraceEvent {
            kind,
            ts_nanos: started.saturating_duration_since(epoch()).as_nanos() as u64,
            dur_nanos: started.elapsed().as_nanos() as u64,
            a,
            b,
        });
    }

    /// Record a pre-built event (timestamps already filled in).
    pub fn record(&self, ev: TraceEvent) {
        if !self.enabled() {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.buf.len() < ring.cap {
            ring.buf.push(ev);
        } else {
            let i = ring.next;
            ring.buf[i] = ev;
            ring.next = (i + 1) % ring.cap;
            ring.dropped += 1;
        }
    }

    /// Take the buffered events in chronological order, plus the count
    /// of events the ring overwrote; the buffer is left empty.
    pub fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let next = ring.next;
        let mut events = std::mem::take(&mut ring.buf);
        // The ring wrapped: the oldest surviving event sits at `next`.
        let pivot = next.min(events.len());
        events.rotate_left(pivot);
        ring.next = 0;
        let dropped = std::mem::take(&mut ring.dropped);
        (events, dropped)
    }
}

// ---------------------------------------------------------------------
// Wire codec (plain bytes; the caller wraps them in its own framing)
// ---------------------------------------------------------------------

/// Serialize a drained buffer: `dropped`, `count`, then per event
/// `kind u8, ts u64, dur u64, a u64, b u64` (little-endian).
pub fn encode_events(events: &[TraceEvent], dropped: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + events.len() * 33);
    out.extend_from_slice(&dropped.to_le_bytes());
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        out.push(ev.kind.as_u8());
        out.extend_from_slice(&ev.ts_nanos.to_le_bytes());
        out.extend_from_slice(&ev.dur_nanos.to_le_bytes());
        out.extend_from_slice(&ev.a.to_le_bytes());
        out.extend_from_slice(&ev.b.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_events`]. Returns `(events, dropped)`.
pub fn decode_events(buf: &[u8]) -> Option<(Vec<TraceEvent>, u64)> {
    fn u64_at(buf: &[u8], at: usize) -> Option<u64> {
        Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
    }
    let dropped = u64_at(buf, 0)?;
    let count = u64_at(buf, 8)? as usize;
    let mut events = Vec::with_capacity(count.min(1 << 20));
    let mut at = 16;
    for _ in 0..count {
        let kind = EventKind::from_u8(*buf.get(at)?)?;
        events.push(TraceEvent {
            kind,
            ts_nanos: u64_at(buf, at + 1)?,
            dur_nanos: u64_at(buf, at + 9)?,
            a: u64_at(buf, at + 17)?,
            b: u64_at(buf, at + 25)?,
        });
        at += 33;
    }
    Some((events, dropped))
}

// ---------------------------------------------------------------------
// Chrome Trace Event Format export
// ---------------------------------------------------------------------

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_args(ev: &TraceEvent, out: &mut String) {
    let (ka, kb) = match ev.kind {
        EventKind::PhaseScatter | EventKind::PhaseCombine | EventKind::PhaseApply => {
            ("run", Some("step"))
        }
        EventKind::ViewAdopt => ("epoch", Some("agents")),
        EventKind::ViewRetire => ("epoch", Some("outboxes")),
        EventKind::MigrateSend => ("dest", Some("records")),
        EventKind::MigrateRecv => ("records", None),
        EventKind::RecoveryTrigger => ("epoch", Some("dead_agent")),
        EventKind::RecoveryReplay => ("records", Some("pushed")),
        EventKind::CoalesceFlush => ("reason", Some("bytes")),
        EventKind::BackpressureWait => ("bytes", None),
        EventKind::HeartbeatMiss => ("agent", Some("window_ms")),
        EventKind::AsyncRescatter => ("epoch", Some("vertices")),
        EventKind::CkptWrite | EventKind::CkptRestore => ("generation", Some("bytes")),
        EventKind::RecoveryDone => ("epoch", Some("replayed")),
        EventKind::MigrateSweep => ("examined", Some("moved")),
    };
    out.push_str("{\"");
    out.push_str(ka);
    out.push_str("\":");
    if ev.kind == EventKind::CoalesceFlush {
        out.push('"');
        out.push_str(flush_reason::name(ev.a));
        out.push('"');
    } else {
        out.push_str(&ev.a.to_string());
    }
    if let Some(kb) = kb {
        out.push_str(",\"");
        out.push_str(kb);
        out.push_str("\":");
        out.push_str(&ev.b.to_string());
    }
    out.push('}');
}

/// Render per-participant buffers as Chrome Trace Event Format JSON —
/// one `tid` (track) per participant, timestamps in microseconds.
/// Loadable in `chrome://tracing` and <https://ui.perfetto.dev>.
pub fn chrome_trace_json(tracks: &[(String, Vec<TraceEvent>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (tid, (name, events)) in tracks.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        // Track metadata: give the tid a human name.
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\""
        ));
        json_escape(name, &mut out);
        out.push_str("\"}}");
        for ev in events {
            let ts_us = ev.ts_nanos as f64 / 1000.0;
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},",
                ev.kind.name()
            ));
            if ev.kind.is_span() {
                let dur_us = ev.dur_nanos as f64 / 1000.0;
                out.push_str(&format!("\"ph\":\"X\",\"dur\":{dur_us:.3},"));
            } else {
                out.push_str("\"ph\":\"i\",\"s\":\"t\",");
            }
            out.push_str("\"args\":");
            push_args(ev, &mut out);
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, ts: u64, a: u64) -> TraceEvent {
        TraceEvent {
            kind,
            ts_nanos: ts,
            dur_nanos: 0,
            a,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_dropped() {
        let t = Tracer::new(4);
        for i in 0..10u64 {
            t.record(ev(EventKind::ViewAdopt, i, i));
        }
        let (events, dropped) = t.drain();
        assert_eq!(dropped, 6);
        assert_eq!(events.len(), 4);
        let ids: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "chronological, most recent kept");
    }

    #[test]
    fn drain_resets_the_ring() {
        let t = Tracer::new(4);
        t.instant(EventKind::HeartbeatMiss, 1, 2);
        let (events, dropped) = t.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);
        let (events, dropped) = t.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant(EventKind::ViewAdopt, 1, 2);
        t.span(EventKind::PhaseScatter, Instant::now(), 1, 2);
        t.record(ev(EventKind::MigrateSend, 0, 0));
        let (events, dropped) = t.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn spans_carry_durations_instants_do_not() {
        let t = Tracer::new(16);
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span(EventKind::PhaseApply, started, 7, 3);
        t.instant(EventKind::MigrateRecv, 42, 0);
        let (events, _) = t.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].dur_nanos >= 1_000_000, "slept ≥2ms");
        assert_eq!(events[1].dur_nanos, 0);
        assert!(events[1].ts_nanos >= events[0].ts_nanos);
    }

    #[test]
    fn kind_tags_roundtrip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn wire_roundtrip() {
        let events = vec![
            TraceEvent {
                kind: EventKind::CoalesceFlush,
                ts_nanos: 123,
                dur_nanos: 0,
                a: flush_reason::SIZE,
                b: 61440,
            },
            TraceEvent {
                kind: EventKind::PhaseScatter,
                ts_nanos: 456,
                dur_nanos: 789,
                a: 1,
                b: 2,
            },
        ];
        let bytes = encode_events(&events, 17);
        assert_eq!(decode_events(&bytes), Some((events, 17)));
        assert_eq!(decode_events(&bytes[..bytes.len() - 1]), None, "truncated");
        assert_eq!(decode_events(&[]), None);
    }

    // -----------------------------------------------------------------
    // A minimal JSON well-formedness checker (no serde in this tree).
    // -----------------------------------------------------------------
    fn skip_ws(s: &[u8], mut i: usize) -> usize {
        while i < s.len() && (s[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }

    fn parse_value(s: &[u8], i: usize) -> Option<usize> {
        let i = skip_ws(s, i);
        match *s.get(i)? {
            b'{' => parse_seq(s, i + 1, b'}', true),
            b'[' => parse_seq(s, i + 1, b']', false),
            b'"' => parse_string(s, i),
            b't' => s[i..].starts_with(b"true").then_some(i + 4),
            b'f' => s[i..].starts_with(b"false").then_some(i + 5),
            b'n' => s[i..].starts_with(b"null").then_some(i + 4),
            _ => parse_number(s, i),
        }
    }

    fn parse_seq(s: &[u8], mut i: usize, close: u8, keyed: bool) -> Option<usize> {
        i = skip_ws(s, i);
        if *s.get(i)? == close {
            return Some(i + 1);
        }
        loop {
            if keyed {
                i = parse_string(s, skip_ws(s, i))?;
                i = skip_ws(s, i);
                if *s.get(i)? != b':' {
                    return None;
                }
                i += 1;
            }
            i = parse_value(s, i)?;
            i = skip_ws(s, i);
            match *s.get(i)? {
                b',' => i += 1,
                c if c == close => return Some(i + 1),
                _ => return None,
            }
        }
    }

    fn parse_string(s: &[u8], i: usize) -> Option<usize> {
        if *s.get(i)? != b'"' {
            return None;
        }
        let mut i = i + 1;
        loop {
            match *s.get(i)? {
                b'"' => return Some(i + 1),
                b'\\' => i += 2,
                c if c < 0x20 => return None,
                _ => i += 1,
            }
        }
    }

    fn parse_number(s: &[u8], mut i: usize) -> Option<usize> {
        let start = i;
        while i < s.len() && matches!(s[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            i += 1;
        }
        (i > start).then_some(i)
    }

    fn is_well_formed(json: &str) -> bool {
        let s = json.as_bytes();
        match parse_value(s, 0) {
            Some(end) => skip_ws(s, end) == s.len(),
            None => false,
        }
    }

    #[test]
    fn json_checker_sanity() {
        assert!(is_well_formed(r#"{"a":[1,2,{"b":"c\"d"}],"e":null}"#));
        assert!(!is_well_formed(r#"{"a":1"#));
        assert!(!is_well_formed(r#"{"a" 1}"#));
        assert!(!is_well_formed(r#"{"a":1} trailing"#));
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut events = Vec::new();
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            events.push(TraceEvent {
                kind: *kind,
                ts_nanos: i as u64 * 1000,
                dur_nanos: if kind.is_span() { 500 } else { 0 },
                a: if *kind == EventKind::CoalesceFlush {
                    flush_reason::COUNT
                } else {
                    i as u64
                },
                b: i as u64 + 1,
            });
        }
        let tracks = vec![
            ("agent-0 \"quoted\"".to_string(), events),
            ("directory-0".to_string(), Vec::new()),
        ];
        let json = chrome_trace_json(&tracks);
        assert!(is_well_formed(&json), "not valid JSON: {json}");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""), "has span events");
        assert!(json.contains("\"ph\":\"i\""), "has instant events");
        assert!(json.contains("\\\"quoted\\\""), "escapes track names");
        assert!(json.contains("\"reason\":\"count\""));
    }

    #[test]
    fn empty_trace_is_well_formed() {
        assert!(is_well_formed(&chrome_trace_json(&[])));
    }

    #[test]
    fn flush_reason_names() {
        assert_eq!(flush_reason::name(flush_reason::SIZE), "size");
        assert_eq!(flush_reason::name(flush_reason::SWITCH), "switch");
        assert_eq!(flush_reason::name(99), "unknown");
    }
}
