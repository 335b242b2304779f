//! The benchmark's own spans: name, start, end, parent, and the id of the
//! request they belong to. Kept in memory during the run and written as
//! Chrome trace-event JSON at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<u32>,
    /// Spans of one request share this id.
    pub request: u64,
}

#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
        epoch: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        epoch: Instant,
    ) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, request, epoch)
    }

    /// Ends a span opened with [`Self::open`].
    pub fn close(&mut self, span: u32, epoch: Instant) {
        let s = &mut self.spans[span as usize];
        s.end_ns =
            (Instant::now().saturating_duration_since(epoch).as_nanos() as u64).max(s.start_ns);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        epoch: Instant,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request, epoch);
        out
    }

    /// Per span name: (count, total duration ns, total self time ns),
    /// where self time is the duration minus the part its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = (s.end_ns - s.start_ns) as f64;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += (dur - child as f64).max(0.0);
        }
        out
    }

    /// Chrome trace-event JSON: one complete event per span, the request
    /// id as the thread lane, the parent index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 110 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("]}\n");
        out
    }
}
