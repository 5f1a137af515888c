//! In-memory spans, written out when the run ends.
//!
//! Spans are recorded by the benchmark around calls into each layer's public
//! functions.  A child span either nests inside its parent's interval or, where
//! the layer offers no way in, replays the parent's sub-step on the same input
//! right after it; either way a parent's self time is its duration minus the
//! summed durations of its children.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

use urs_core::engine::json::{self, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds from the tracer's origin to `instant`, for spans timed elsewhere.
    pub fn seconds_at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a span measured elsewhere (times in seconds since the origin).
    pub fn record(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        query: Option<u64>,
    ) -> usize {
        self.spans.push(Span { name: name.to_string(), start, end, parent, query });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends, for callers that record
    /// child spans before the parent ends.
    pub fn open(&mut self, name: &str, parent: Option<usize>, query: Option<u64>) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, query)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
    }

    /// Runs `f` inside a span and returns its result and the span's id.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        query: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent, query);
        let result = f();
        self.close(id);
        (result, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the summed durations of the span's children, per span id.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| own.get_mut(p)) {
                *slot -= span.duration();
            }
        }
        own
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> HashMap<&str, Vec<f64>> {
        let mut grouped: HashMap<&str, Vec<f64>> = HashMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            grouped.entry(span.name.as_str()).or_default().push(own);
        }
        grouped
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let optional = |v: Option<f64>| v.map_or(Value::Null, Value::Number);
        for span in &self.spans {
            let line = json::object([
                ("name", Value::String(span.name.clone())),
                ("start", Value::Number(span.start)),
                ("end", Value::Number(span.end)),
                ("parent", optional(span.parent.map(|p| p as f64))),
                ("query", optional(span.query.map(|q| q as f64))),
            ]);
            writeln!(out, "{}", line.serialise())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(Instant::now());
        let ((), parent) = tracer.span("parent", None, Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tracer.span("child", Some(parent), Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let own = tracer.self_times();
        let spans = tracer.spans();
        assert!((own[parent] - (spans[0].duration() - spans[1].duration())).abs() < 1e-12);
        assert_eq!(own[1], spans[1].duration());
        assert_eq!(tracer.self_times_by_name()["child"].len(), 1);
    }
}
