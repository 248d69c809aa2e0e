//! Structured trace spans for jobs → waves → atoms → operator kernels.
//!
//! Spans are plain records emitted through a pluggable [`TraceSink`]; the
//! executor's listener callbacks drive emission, so parallel atoms
//! interleave safely (each span is recorded atomically, and tree structure
//! lives in the `parent` links rather than in emission order). The
//! [`canonical_tree`] helper renders a trace as a *schedule-independent*
//! tree so tests can assert that sequential and parallel runs of the same
//! plan produced identical work.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;

/// What level of the execution hierarchy a span describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One `execute` call end to end.
    Job,
    /// One scheduling wave of the executor.
    Wave,
    /// One mid-job re-optimization of the unexecuted suffix.
    Replan,
    /// How the executed plan was enumerated when not by the default
    /// greedy DP (lattice v2 or its budget-exhausted greedy fallback).
    Enumeration,
    /// One failover re-plan around a failed platform.
    Failover,
    /// A job abandoned through its cancel token (client disconnect,
    /// deadline, shutdown, or an explicit `CANCEL`).
    Cancel,
    /// A panic caught at the atom boundary and converted into a clean
    /// permanent error (see `DESIGN.md` §14).
    Panic,
    /// One task atom (a platform-homogeneous plan fragment).
    Atom,
    /// One operator kernel inside an atom.
    Kernel,
}

impl SpanKind {
    /// Lower-case label used in rendered output.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Wave => "wave",
            SpanKind::Replan => "replan",
            SpanKind::Enumeration => "enumeration",
            SpanKind::Failover => "failover",
            SpanKind::Cancel => "cancel",
            SpanKind::Panic => "panic",
            SpanKind::Atom => "atom",
            SpanKind::Kernel => "kernel",
        }
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the emitting [`super::Observability`] instance.
    pub id: u64,
    /// Parent span id; `None` for the job root.
    pub parent: Option<u64>,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Human-readable label (`atom-3`, `Map(inc)`, ...).
    pub label: String,
    /// Platform that ran the work, or empty when not applicable.
    pub platform: String,
    /// Observed duration in (possibly simulated) milliseconds.
    pub elapsed_ms: f64,
    /// Records produced by the span's work.
    pub records_out: u64,
    /// Parallel kernel work units (morsels) under this span: the kernel's
    /// own count for kernel spans, the sum over kernels for atom spans,
    /// 0 where not applicable. Excluded from [`canonical_tree`] — like
    /// timing, it may legitimately differ between runs whose *work* is
    /// identical.
    pub morsels: u64,
}

/// Destination for completed spans. Implementations must tolerate
/// concurrent `record` calls — parallel atoms complete on worker threads.
pub trait TraceSink: Send + Sync {
    /// Accept one completed span.
    fn record(&self, span: &SpanRecord);
}

/// Bounded in-memory sink keeping the most recent `capacity` spans.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
}

impl RingBufferSink {
    /// Create a ring buffer holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
        }
    }

    /// Copy out the retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.spans.lock().iter().cloned().collect()
    }

    /// Drop all retained spans.
    pub fn clear(&self) {
        self.spans.lock().clear();
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, span: &SpanRecord) {
        let mut spans = self.spans.lock();
        if spans.len() == self.capacity {
            spans.pop_front();
        }
        spans.push_back(span.clone());
    }
}

/// Escape a string for inclusion in a JSON string literal.
///
/// Hand-rolled because the workspace deliberately carries no serde; covers
/// the JSON spec's mandatory escapes (quote, backslash, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON-lines sink: one JSON object per span, one span per line.
pub struct JsonLinesSink {
    writer: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonLinesSink {
    /// Wrap an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }

    /// Create (truncate) `path` and stream spans into it.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Flush buffered output to the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().flush()
    }

    /// Serialize one span as a JSON object (no trailing newline).
    pub fn to_json(span: &SpanRecord) -> String {
        let parent = match span.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"label\":\"{}\",\"platform\":\"{}\",\"elapsed_ms\":{:.6},\"records_out\":{},\"morsels\":{}}}",
            span.id,
            parent,
            span.kind.as_str(),
            json_escape(&span.label),
            json_escape(&span.platform),
            span.elapsed_ms,
            span.records_out,
            span.morsels,
        )
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&self, span: &SpanRecord) {
        let line = Self::to_json(span);
        let mut w = self.writer.lock();
        // A sink must never take the executor down; swallow I/O errors.
        let _ = writeln!(w, "{line}");
    }
}

/// Render a set of spans as a schedule-independent tree.
///
/// Two runs of the same plan — one sequential, one parallel — produce
/// different wave structure and different emission interleavings, but
/// identical *work*; a run with adaptive re-planning enabled additionally
/// emits [`SpanKind::Replan`] spans while still doing the same work when
/// nothing (or something output-preserving) was re-planned, and a run
/// that survived a platform outage emits [`SpanKind::Failover`] spans.
/// This renderer therefore:
///
/// - skips [`SpanKind::Wave`], [`SpanKind::Replan`],
///   [`SpanKind::Failover`], [`SpanKind::Enumeration`],
///   [`SpanKind::Cancel`], and [`SpanKind::Panic`] spans, re-parenting
///   their children to the nearest kept ancestor (the job);
/// - sorts siblings by their rendered text, erasing emission order;
/// - excludes timing fields, which legitimately differ between runs.
///
/// The result is a stable string equal across thread budgets — and across
/// re-planning on/off whenever the re-plan preserved the executed atoms —
/// used by the deterministic-replay tests.
pub fn canonical_tree(spans: &[SpanRecord]) -> String {
    let skipped = |kind: SpanKind| {
        matches!(
            kind,
            SpanKind::Wave
                | SpanKind::Replan
                | SpanKind::Failover
                | SpanKind::Enumeration
                | SpanKind::Cancel
                | SpanKind::Panic
        )
    };
    // Resolve each span's nearest kept (non-skipped) ancestor.
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let effective_parent = |span: &SpanRecord| -> Option<u64> {
        let mut parent = span.parent;
        while let Some(pid) = parent {
            match by_id.get(&pid) {
                Some(p) if skipped(p.kind) => parent = p.parent,
                Some(_) => return Some(pid),
                None => return None,
            }
        }
        None
    };
    let mut children: BTreeMap<Option<u64>, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        if skipped(span.kind) {
            continue;
        }
        children
            .entry(effective_parent(span))
            .or_default()
            .push(span);
    }

    fn render(
        span: &SpanRecord,
        children: &BTreeMap<Option<u64>, Vec<&SpanRecord>>,
        depth: usize,
        out: &mut String,
    ) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} {} [{}] out={}\n",
            span.kind.as_str(),
            span.label,
            span.platform,
            span.records_out
        ));
        if let Some(kids) = children.get(&Some(span.id)) {
            let mut lines: Vec<String> = kids
                .iter()
                .map(|k| {
                    let mut s = String::new();
                    render(k, children, depth + 1, &mut s);
                    s
                })
                .collect();
            lines.sort();
            for line in lines {
                out.push_str(&line);
            }
        }
    }

    let mut out = String::new();
    let mut roots: Vec<String> = children
        .get(&None)
        .map(|roots| {
            roots
                .iter()
                .map(|r| {
                    let mut s = String::new();
                    render(r, &children, 0, &mut s);
                    s
                })
                .collect()
        })
        .unwrap_or_default();
    roots.sort();
    for r in roots {
        out.push_str(&r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, kind: SpanKind, label: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            label: label.into(),
            platform: "java".into(),
            elapsed_ms: 1.5,
            records_out: id * 10,
            morsels: 0,
        }
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let sink = RingBufferSink::new(2);
        for i in 0..4 {
            sink.record(&span(i, None, SpanKind::Atom, "a"));
        }
        let kept = sink.snapshot();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].id, 2);
        assert_eq!(kept[1].id, 3);
        sink.clear();
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn canonical_tree_skips_waves_and_sorts_siblings() {
        // job(0) -> wave(1) -> atom(3); job(0) -> wave(2) -> atom(4)
        let many_waves = vec![
            span(0, None, SpanKind::Job, "job"),
            span(1, Some(0), SpanKind::Wave, "wave-0"),
            span(2, Some(0), SpanKind::Wave, "wave-1"),
            span(3, Some(1), SpanKind::Atom, "atom-0"),
            span(4, Some(2), SpanKind::Atom, "atom-1"),
        ];
        // Same atoms, single wave, emitted in the opposite order.
        let one_wave = vec![
            span(4, Some(1), SpanKind::Atom, "atom-1"),
            span(3, Some(1), SpanKind::Atom, "atom-0"),
            span(1, Some(0), SpanKind::Wave, "wave-0"),
            span(0, None, SpanKind::Job, "job"),
        ];
        let a = canonical_tree(&many_waves);
        let b = canonical_tree(&one_wave);
        // records_out differs per span id in the helper, so trees match
        // only because structure and labels match.
        assert_eq!(a, b);
        assert!(a.contains("job job"));
        assert!(a.contains("  atom atom-0"));
        assert!(!a.contains("wave"));
    }

    #[test]
    fn json_lines_escapes_and_emits_one_line_per_span() {
        let s = SpanRecord {
            id: 7,
            parent: Some(3),
            kind: SpanKind::Kernel,
            label: "Map(\"quo\\ted\"\n)".into(),
            platform: "java".into(),
            elapsed_ms: 0.25,
            records_out: 9,
            morsels: 3,
        };
        let json = JsonLinesSink::to_json(&s);
        assert!(json.contains("\\\"quo\\\\ted\\\"\\n"));
        assert!(json.contains("\"parent\":3"));
        assert!(json.contains("\"kind\":\"kernel\""));
        assert!(json.contains("\"morsels\":3"));

        let sink = JsonLinesSink::new(Box::new(Vec::new()));
        sink.record(&s);
        sink.record(&span(1, None, SpanKind::Job, "job"));
        // Two records -> two lines; root parent serialises as null.
        let root_json = JsonLinesSink::to_json(&span(1, None, SpanKind::Job, "job"));
        assert!(root_json.contains("\"parent\":null"));
    }
}
