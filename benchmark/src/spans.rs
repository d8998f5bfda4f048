//! In-memory spans recorded around each layer call, and the per-layer
//! self-time table computed from them.
//!
//! A span is `(name, start, end, parent, request)`. The layer is the
//! name's prefix before the first `.` (`core.plan_single` → `core`);
//! names without a known layer prefix (the root `run` span) belong to
//! `other`. Spans are kept in memory while the workload runs and written
//! out as JSON lines when it ends.
//!
//! Self time is attributed by a sweep over the timeline: at every
//! instant, the time goes to the deepest active span, and among equally
//! deep overlapping spans (pipelined requests) to the layer listed first in
//! [`LAYERS`]. Each instant is counted once, so the layers' self times
//! sum exactly to the traced wall time (the root span's duration); the
//! root's own share is the `other` remainder. On a single thread this is
//! the usual self time: a span's duration minus what its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The benchmark's single clock read.
pub fn now() -> Instant {
    // lint:allow(no-wallclock): the benchmark times the program it measures; no result feeds back into planning
    Instant::now()
}

/// Layers in attribution priority order; `other` is the remainder.
pub const LAYERS: [&str; 7] = [
    "core", "simio", "trace", "replay", "serve", "loadgen", "other",
];

/// Index of the `other` layer in [`LAYERS`].
const OTHER: usize = LAYERS.len() - 1;

/// No parent (a root span).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the parent span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id shared by the spans of one request (0 when none).
    pub request: u64,
}

impl Span {
    /// Index into [`LAYERS`] of the span's layer.
    pub fn layer(&self) -> usize {
        let prefix = self.name.split('.').next().unwrap_or("");
        LAYERS[..OTHER]
            .iter()
            .position(|l| *l == prefix)
            .unwrap_or(OTHER)
    }
}

/// A per-thread span recorder. When disabled it records nothing and
/// reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<u32>;

impl Tracer {
    /// A tracer measuring from `origin`; records only when `on`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            // Reserved up front so growing the list never stalls a
            // measured request (pages are touched only when written).
            spans: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any left open
    /// inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.ns(now());
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-finished span between two instants, nested in
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.parent(),
            request,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer self time, indexed like [`LAYERS`], and the traced wall time
/// (the extent of everything recorded), both in nanoseconds. The self
/// times sum to the wall time exactly.
pub fn self_times(spans: &[Span]) -> ([u64; LAYERS.len()], u64) {
    let mut by_layer = [0u64; LAYERS.len()];
    if spans.is_empty() {
        return (by_layer, 0);
    }
    // Depth from the parent chain; a parent always precedes its child.
    let mut depth = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            depth[i] = depth[s.parent as usize] + 1;
        }
    }
    // Events: (time, is_start, span). Ends sort before starts at equal
    // times, so back-to-back spans never overlap.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, true, i));
        events.push((s.end_ns.max(s.start_ns), false, i));
    }
    events.sort_unstable();
    // Active spans keyed by attribution rank: deeper first, then the
    // layer earlier in LAYERS (stored negated so the max key wins).
    let mut active: BTreeMap<(u32, i64), u32> = BTreeMap::new();
    let key = |i: usize| (depth[i], -(spans[i].layer() as i64));
    let mut last = events[0].0;
    let (first, mut end) = (events[0].0, events[0].0);
    for &(t, is_start, i) in &events {
        if let Some((&(_, neg_layer), _)) = active.iter().next_back() {
            by_layer[(-neg_layer) as usize] += t - last;
        }
        last = t;
        end = end.max(t);
        let k = key(i);
        if is_start {
            *active.entry(k).or_insert(0) += 1;
        } else if let Some(n) = active.get_mut(&k) {
            *n -= 1;
            if *n == 0 {
                active.remove(&k);
            }
        }
    }
    // Gaps where nothing was active belong to no layer; count them as
    // `other` so the table still sums to the extent.
    let covered: u64 = by_layer.iter().sum();
    let wall = end - first;
    by_layer[OTHER] += wall - covered;
    (by_layer, wall)
}

/// Writes spans as JSON lines:
/// `{"id":..,"name":..,"layer":..,"start_ns":..,"end_ns":..,"parent":..,"request":..}`.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"request\":{}}}",
            s.name,
            LAYERS[s.layer()],
            s.start_ns,
            s.end_ns,
            s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(LAYERS[span("core.plan_multi", 0, 1, 0).layer()], "core");
        assert_eq!(LAYERS[span("serve.wire", 0, 1, 0).layer()], "serve");
        assert_eq!(LAYERS[span("run", 0, 1, 0).layer()], "other");
        assert_eq!(LAYERS[span("bogus.x", 0, 1, 0).layer()], "other");
    }

    #[test]
    fn single_thread_self_time_is_duration_minus_children() {
        // run [0,100): core [10,40) with simio [20,30) inside, then
        // trace [50,90).
        let spans = [
            span("run", 0, 100, NO_PARENT),
            span("core.plan", 10, 40, 0),
            span("simio.execute", 20, 30, 1),
            span("trace.parse", 50, 90, 0),
        ];
        let (t, wall) = self_times(&spans);
        assert_eq!(wall, 100);
        assert_eq!(t[0], 20, "core minus its simio child");
        assert_eq!(t[1], 10);
        assert_eq!(t[2], 40);
        assert_eq!(t[OTHER], 30, "the root's uncovered remainder");
        assert_eq!(t.iter().sum::<u64>(), wall);
    }

    #[test]
    fn overlapping_spans_are_counted_once_and_still_sum_to_wall() {
        // Under one root, serve.wire [10,60) overlaps loadgen.check
        // [40,80) at equal depth (pipelined requests); serve wins the
        // overlap.
        let spans = [
            span("run", 0, 100, NO_PARENT),
            span("serve.wire", 10, 60, 0),
            span("loadgen.check", 40, 80, 0),
        ];
        let (t, wall) = self_times(&spans);
        assert_eq!(t[4], 50, "serve.wire owns [10,60)");
        assert_eq!(t[5], 20, "loadgen.check owns only [60,80)");
        assert_eq!(t[OTHER], 30);
        assert_eq!(t.iter().sum::<u64>(), wall);
    }

    #[test]
    fn tracer_nests_open_and_recorded_spans() {
        let origin = now();
        let mut tr = Tracer::new(true, origin);
        let root = tr.begin("run", 0);
        let inner = tr.begin("core.plan", 7);
        tr.end(inner);
        tr.record("serve.wire", 8, origin, origin);
        tr.end(root);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0, "recorded spans nest in the open root");
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, now());
        let id = tr.begin("run", 0);
        assert_eq!(id, None);
        assert_eq!(tr.span("core.plan", 0, || 5), 5);
        tr.end(id);
        assert!(tr.into_spans().is_empty());
    }
}
