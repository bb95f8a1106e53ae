//! Benchmark-side tracing: one span per call into a layer, recorded from the
//! benchmark's own code (the program under test is not instrumented).
//!
//! Spans are kept in memory and written out once, when the run ends.  A
//! span's *self time* is its duration minus the part of its interval that
//! its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Spans of one benchmark operation share this id.
    pub request: u64,
    /// `<layer>.<call>`, e.g. `engine.submit`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer part of the name (before the first dot).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Where a new span hangs: its parent span and request.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCtx {
    pub parent: u64,
    pub request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            // Ids start at 1: 0 marks "no parent".
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh request id for a root operation.
    pub fn new_request(&self) -> SpanCtx {
        SpanCtx {
            parent: 0,
            request: self.next_id.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context its own child spans hang from.
    pub fn span<T>(&self, ctx: SpanCtx, name: &'static str, f: impl FnOnce(SpanCtx) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(SpanCtx {
            parent: id,
            request: ctx.request,
        });
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .push(Span {
                id,
                parent: ctx.parent,
                request: ctx.request,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking benchmark thread")
            .clone()
    }
}

/// Runs `f` inside a span when tracing, or plainly when not.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    ctx: SpanCtx,
    name: &'static str,
    f: impl FnOnce(SpanCtx) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(ctx, name, f),
        None => f(ctx),
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time (ns) of every span, keyed by span id.  Concurrent children
/// (a parent waiting on parallel work) are counted once, by the union of
/// their intervals.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .remove(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time (ns) and span count per layer.
pub fn self_time_by_layer(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let own = self_times(spans);
    let mut by_layer: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let entry = by_layer.entry(s.layer()).or_default();
        entry.0 += own[&s.id];
        entry.1 += 1;
    }
    by_layer
}

/// Writes `spans` as JSON lines.
///
/// # Errors
/// Any I/O error creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, "loadgen.op", 0, 100),
            span(2, 1, "engine.submit", 10, 60),
            span(3, 2, "native.build", 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 40);
        assert_eq!(own[&3], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(1, 0, "engine.submit", 0, 100),
            span(2, 1, "pipeline.run", 10, 50),
            span(3, 1, "pipeline.run", 30, 70),
            span(4, 1, "pipeline.run", 90, 120),
        ];
        // Children cover [10, 70) and [90, 100) of the parent.
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn layers_sum_their_spans() {
        let spans = [
            span(1, 0, "loadgen.op", 0, 100),
            span(2, 1, "engine.submit", 0, 40),
            span(3, 0, "loadgen.op", 100, 150),
            span(4, 3, "engine.submit", 100, 150),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["loadgen"], (60, 2));
        assert_eq!(by_layer["engine"], (90, 2));
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let tracer = Tracer::default();
        let root = tracer.new_request();
        tracer.span(root, "loadgen.op", |ctx| {
            tracer.span(ctx, "engine.submit", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (child, parent) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, parent.id);
        assert_eq!(parent.parent, 0);
        assert_eq!(child.request, parent.request);
        assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
    }
}
