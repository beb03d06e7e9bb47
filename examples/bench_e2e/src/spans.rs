//! Benchmark-side spans: one per call into a layer, recorded around the
//! public call from outside the program. Kept in memory; written as
//! Chrome-trace JSON when the traced run ends. Disabled (every call a
//! no-op) in the runs that produce end-to-end numbers.

use crate::host::ms;

/// "No span": the parent of a root, or any id while disabled.
pub const NONE: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    /// 0 = the driver thread, 1 = the query client thread.
    pub track: u8,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    /// Cycle the span belongs to (all spans of one change batch share
    /// it); `NONE` outside a cycle.
    pub cycle: u32,
}

pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id for children to name.
    pub fn push(
        &mut self,
        name: &'static str,
        track: u8,
        start: u64,
        end: u64,
        parent: u32,
        cycle: u32,
    ) -> u32 {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            name,
            track,
            start,
            end,
            parent,
            cycle,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span opened with a provisional end.
    pub fn set_end(&mut self, id: u32, end: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end = end;
        }
    }

    /// Durations in milliseconds of every span called `name` whose
    /// start lies in `[from, to)`.
    pub fn durations_ms(&self, name: &str, from: u64, to: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start >= from && s.start < to)
            .map(|s| ms(s.start, s.end))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON: the benchmark's spans as process 2, merged
    /// into `cluster_json` (the library's own trace, process 1) when
    /// one is given. Both stamp against the same clock.
    pub fn chrome_trace(&self, cluster_json: Option<&str>) -> String {
        let mut out = match cluster_json.and_then(|j| j.strip_suffix("]}")) {
            Some(head) => {
                let mut s = head.to_string();
                if !s.ends_with('[') {
                    s.push(',');
                }
                s
            }
            None => String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        };
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"bench_e2e\"}}",
        );
        for (tid, name) in [(0, "driver"), (1, "query-client")] {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| if v == NONE { -1 } else { i64::from(v) };
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":2,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"cycle\":{}}}}}",
                s.name,
                s.track,
                s.start as f64 / 1000.0,
                s.end.saturating_sub(s.start) as f64 / 1000.0,
                opt(s.parent),
                opt(s.cycle),
            ));
        }
        out.push_str("]}");
        out
    }
}
