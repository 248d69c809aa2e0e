//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A wire
//! request is a root span; the twin replay (see `replay.rs`) times the same
//! statement's calls into each layer in-process and records them as children
//! of that request, laid end to end from the request's start, so the
//! request's self time is what the replayed layers do not account for.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one wire request share this; 0 for spans outside requests.
    pub request: u64,
    pub name: String,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(
        &self,
        parent: Option<u64>,
        request: u64,
        name: &str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                start_us,
                end_us,
            });
        id
    }

    /// Record a span as it was timed.
    pub fn record(
        &self,
        parent: Option<u64>,
        request: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.push(parent, request, name, at(start), at(end))
    }

    /// Record a replayed call of `duration_us` as the next child of
    /// `parent`: it starts where the parent's latest child ends (or where
    /// the parent starts), so siblings never overlap.
    pub fn record_child(&self, parent: u64, name: &str, duration_us: f64) -> u64 {
        let (request, start_us) = {
            let spans = self.spans.lock().expect("span list lock");
            let p = spans
                .iter()
                .find(|s| s.id == parent)
                .expect("parent span was recorded by this tracer");
            let start = spans
                .iter()
                .filter(|s| s.parent == Some(parent))
                .map(|s| s.end_us)
                .fold(p.start_us, f64::max);
            (p.request, start)
        };
        self.push(
            Some(parent),
            request,
            name,
            start_us,
            start_us + duration_us,
        )
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                parent,
                s.request,
                crate::json::quote(&s.name),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children count once, and a child counts
/// only where it lies inside the parent).
pub fn self_time_us(spans: &[Span], id: u64) -> f64 {
    let Some(parent) = spans.iter().find(|s| s.id == id) else {
        return 0.0;
    };
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in covered {
        let from = start.max(reach);
        if end > from {
            total += end - from;
            reach = end;
        }
    }
    parent.duration_us() - total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 30.0),
            // Overlaps span 2 by 10 us: the union covers 10..50.
            span(3, Some(1), 20.0, 50.0),
            // Sticks out of the parent by 20 us: only 90..100 counts.
            span(4, Some(1), 90.0, 120.0),
            // A grandchild takes from span 2, not from the root.
            span(5, Some(2), 10.0, 25.0),
            // Another request's span is ignored.
            span(6, None, 0.0, 100.0),
        ];
        assert_eq!(self_time_us(&spans, 1), 50.0);
        assert_eq!(self_time_us(&spans, 2), 5.0);
        assert_eq!(self_time_us(&spans, 5), 15.0);
        assert_eq!(self_time_us(&spans, 99), 0.0);
    }

    #[test]
    fn replayed_children_are_laid_end_to_end() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let root = tracer.record(
            None,
            7,
            "wire.query",
            t0,
            t0 + std::time::Duration::from_micros(1000),
        );
        let a = tracer.record_child(root, "a", 300.0);
        let b = tracer.record_child(root, "b", 200.0);
        let spans = tracer.spans();
        let by = |id| spans.iter().find(|s| s.id == id).unwrap().clone();
        assert_eq!(by(b).start_us, by(a).end_us);
        assert_eq!(by(a).request, 7);
        let rest = self_time_us(&spans, root);
        // Layer sum plus self time is the root's duration by construction.
        assert!((rest + 500.0 - by(root).duration_us()).abs() < 1e-6);
    }
}
