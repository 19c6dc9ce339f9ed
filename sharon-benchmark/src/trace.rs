//! Benchmark-side spans: one record around every call the rig makes into a
//! layer, kept in memory and written out when the run ends.
//!
//! Spans live in the rig, not in the engine, so a later change to the
//! engine cannot move, remove or redefine them. A disabled tracer records
//! nothing: the end-to-end metrics are measured with tracing off, and the
//! difference to a traced pass is reported as `bench.trace_overhead_pct`.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `executor.process_columnar`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or one that only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between passes (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle the tracer between spans only");
        self.enabled = enabled;
    }

    /// Run `f` inside a span called `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, by value.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// The span file: a JSON array of
    /// `{name, start_ns, end_ns, parent, workload}` objects.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, parent, workload
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]\n");
        out
    }
}
