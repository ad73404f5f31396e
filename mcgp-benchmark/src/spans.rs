//! The traced pass's span recorder. Spans are opened around calls into each
//! layer from the benchmark's own code (nothing inside the program is
//! instrumented), kept in memory, and written out as one Chrome trace when
//! the run ends.

use mcgp_runtime::trace::{EventKind, FieldValue, TraceEvent};
use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

impl SpanRec {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans tagged with the id of the operation they belong to.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Adds a span timed by the caller (an exchange with the daemon) as a
    /// child of the innermost open span. It must end before the next span
    /// starts.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Self time per span name within operation `op`: each span's duration
    /// minus the durations of its child spans, summed by name.
    pub fn self_seconds(&self, op: u64) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.op == op) {
            if let Some(p) = s.parent {
                child[p] += s.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            *out.entry(s.name).or_insert(0.0) += s.seconds() - child[i];
        }
        out
    }

    /// Total duration of the spans named `name` within operation `op`.
    pub fn seconds(&self, op: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(SpanRec::seconds)
            .sum()
    }

    /// The spans as Chrome trace events: Begin/End pairs in nesting order,
    /// each tagged with its operation id.
    pub fn chrome_events(&self) -> Vec<TraceEvent> {
        let event = |kind, s: &SpanRec, ts_ns| TraceEvent {
            ts_ns,
            tid: 1,
            kind,
            name: s.name,
            fields: vec![("op", FieldValue::U64(s.op))],
        };
        let mut events = Vec::with_capacity(2 * self.spans.len());
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if Some(top) == s.parent {
                    break;
                }
                events.push(event(
                    EventKind::End,
                    &self.spans[top],
                    self.spans[top].end_ns,
                ));
                open.pop();
            }
            events.push(event(EventKind::Begin, s, s.start_ns));
            open.push(i);
        }
        while let Some(top) = open.pop() {
            events.push(event(
                EventKind::End,
                &self.spans[top],
                self.spans[top].end_ns,
            ));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_chrome_events_nest() {
        let mut tr = Tracer::new();
        tr.set_op(7);
        tr.span("root", |tr| {
            tr.span("a", |tr| {
                tr.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            tr.span("a", |_| ());
        });
        let own = tr.self_seconds(7);
        let total = tr.seconds(7, "root");
        let sum: f64 = own.values().sum();
        assert!(
            (sum - total).abs() < 1e-9,
            "self times must add up to the root"
        );
        assert!(own["b"] >= 0.002 && own["a"] < own["b"]);
        let mut text = Vec::new();
        mcgp_runtime::trace::write_chrome(&tr.chrome_events(), &mut text).unwrap();
        let n = mcgp_runtime::trace::validate_chrome(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(n, 8);
    }
}
