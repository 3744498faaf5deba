//! In-memory spans around the calls into each layer.
//!
//! The traced run wraps every layer call in a span (name, start, end,
//! parent, request id), keeps the spans in memory, and writes them to
//! `trace_<workload>.jsonl` when the run ends. Every per-layer timing in
//! the report is derived from this list — there is no second stopwatch. A
//! layer's self time is its spans' duration minus what their child spans
//! cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span list; threads trace into their own `Tracer` against a
/// shared origin and are merged afterwards.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u32, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Wraps `f` in a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let value = f();
        self.end(id);
        value
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Per request, the summed duration (ms) of its spans called `name`.
    pub fn per_request_ms(&self, name: &str) -> Samples {
        let mut by_request: BTreeMap<u32, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *by_request.entry(span.request).or_default() += span.duration_ns();
        }
        let mut samples = Samples::with_capacity(by_request.len());
        for ns in by_request.into_values() {
            samples.push(ns as f64 / 1e6);
        }
        samples
    }

    /// Summed duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed self time of the spans called `name`: duration minus the
    /// duration of their direct children.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .sum()
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.begin("request", 0, None);
        let child = tracer.begin("layer", 0, Some(root));
        tracer.end(child);
        tracer.end(root);
        // Fixed clock values make the arithmetic checkable.
        tracer.spans[0].start_ns = 0;
        tracer.spans[0].end_ns = 100;
        tracer.spans[1].start_ns = 10;
        tracer.spans[1].end_ns = 70;
        assert_eq!(tracer.total_ns("request"), 100);
        assert_eq!(tracer.self_ns("request"), 40);
        assert_eq!(tracer.self_ns("layer"), 60);
        assert_eq!(tracer.per_request_ms("layer").len(), 1);
    }

    #[test]
    fn merge_rebases_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin("request", 0, None);
        a.end(root);
        let mut b = Tracer::new(origin);
        let root_b = b.begin("request", 1, None);
        let child_b = b.begin("layer", 1, Some(root_b));
        b.end(child_b);
        b.end(root_b);
        a.merge(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
