//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the library's public API. Each span carries a name whose prefix up
//! to the first `.` is its layer (`sim.run` belongs to `sim`; `bench.*`
//! spans are the benchmark's own roots), a start and end, a parent, and the
//! id of the sweep, job or repetition it belongs to. With tracing off every
//! call is a plain pass-through, so the end-to-end run pays one branch.
//!
//! Self time: a span's interval not covered by any child is charged to its
//! layer. Where children overlap (perturbed runs on parallel workers), each
//! instant is split evenly among the children active at it, so the layer
//! self times of a root add up to the root's wall time. Whatever the roots
//! (`bench.*`) keep for themselves is the untraced remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// Relative tolerance of the phase reconciliation: the layer self times of
/// a root must add up to its wall time within this share...
pub const RECONCILE_TOLERANCE: f64 = 0.01;
/// ...or within this many milliseconds, whichever is larger.
pub const RECONCILE_FLOOR_MS: f64 = 0.05;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused it; `None` for a root.
    pub parent: Option<SpanId>,
    /// Dotted name; the prefix before the first `.` is the layer.
    pub name: &'static str,
    /// The sweep, job or repetition this span belongs to.
    pub group: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id (to
    /// parent nested spans), or `None` when tracing is off.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, name, parent, group, start, Instant::now());
        out
    }

    /// Records a span whose bounds were observed elsewhere (a progress
    /// callback on a worker thread), returning its id for children.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, group, start, end);
        Some(id)
    }

    fn push(
        &self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            group,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"group\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                s.name,
                s.group,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

/// Self time per layer over a set of spans, with the reconciliation of
/// every root against its wall time.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time in ms per layer (roots' own layer `bench` excluded).
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Wall time the roots kept for themselves: time inside a sweep, job or
    /// repetition that no layer span covers.
    pub untraced_ms: f64,
    /// Summed wall time of every root.
    pub wall_ms: f64,
    /// Largest reconciliation error of any root, as a share of its wall.
    pub worst_error: f64,
    /// Roots whose self times missed their wall time by more than the
    /// tolerance, or that hold a child reaching outside its parent.
    pub unreconciled: Vec<String>,
}

impl Attribution {
    /// Self time of `layer` in ms (0 when it recorded nothing).
    pub fn layer(&self, layer: &str) -> f64 {
        self.layer_ms.get(layer).copied().unwrap_or(0.0)
    }
}

/// Attributes the wall time of every root span to layers by self time and
/// checks that each root reconciles.
pub fn attribute(spans: &[Span]) -> Attribution {
    let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut out = Attribution::default();
    for (i, root) in spans.iter().enumerate() {
        if root.parent.is_some() {
            continue;
        }
        let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut leaks = 0usize;
        charge(spans, &children, i, 1.0, &mut per_layer, &mut leaks);
        let wall = root.dur_ns() as f64 / 1e6;
        let total: f64 = per_layer.values().sum();
        let err = (total - wall).abs();
        out.worst_error = out
            .worst_error
            .max(if wall > 0.0 { err / wall } else { 0.0 });
        if leaks > 0 || err > (wall * RECONCILE_TOLERANCE).max(RECONCILE_FLOOR_MS) {
            out.unreconciled.push(format!(
                "{} (group {}): wall {wall:.3} ms, layers {total:.3} ms, {leaks} leaking children",
                root.name, root.group
            ));
        }
        out.wall_ms += wall;
        for (layer, v) in per_layer {
            if layer == "bench" {
                out.untraced_ms += v;
            } else {
                *out.layer_ms.entry(layer).or_default() += v;
            }
        }
    }
    out
}

/// Charges span `i` (scaled by `weight`, its share of wall time) and,
/// recursively, its children.
fn charge(
    spans: &[Span],
    children: &BTreeMap<SpanId, Vec<usize>>,
    i: usize,
    weight: f64,
    per_layer: &mut BTreeMap<&'static str, f64>,
    leaks: &mut usize,
) {
    let span = &spans[i];
    let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
    // Sweep the span's interval: uncovered stretches are self time, covered
    // stretches are split evenly among the children active in them.
    let mut edges: Vec<(u64, i32, usize)> = Vec::with_capacity(kids.len() * 2);
    for (k, &c) in kids.iter().enumerate() {
        let child = &spans[c];
        if child.start_ns < span.start_ns || child.end_ns > span.end_ns {
            *leaks += 1;
        }
        let a = child.start_ns.clamp(span.start_ns, span.end_ns);
        let b = child.end_ns.clamp(span.start_ns, span.end_ns);
        edges.push((a, 1, k));
        edges.push((b, -1, k));
    }
    // Ends before starts at equal instants, so a hand-off is not overlap.
    edges.sort_by_key(|&(t, d, _)| (t, d));
    let mut share = vec![0.0f64; kids.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut own = 0.0f64;
    let mut t = span.start_ns;
    for (at, delta, k) in edges {
        let seg = at.saturating_sub(t) as f64;
        if active.is_empty() {
            own += seg;
        } else {
            let each = seg / active.len() as f64;
            for &a in &active {
                share[a] += each;
            }
        }
        t = at.max(t);
        if delta > 0 {
            active.push(k);
        } else if let Some(pos) = active.iter().position(|&a| a == k) {
            active.swap_remove(pos);
        }
    }
    own += span.end_ns.saturating_sub(t) as f64;
    *per_layer.entry(span.layer()).or_default() += weight * own / 1e6;
    for (k, &c) in kids.iter().enumerate() {
        let dur = spans[c].dur_ns() as f64;
        if dur > 0.0 {
            charge(
                spans,
                children,
                c,
                weight * share[k] / dur,
                per_layer,
                leaks,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            group: 0,
            start_ns: a * 1_000_000,
            end_ns: b * 1_000_000,
        }
    }

    #[test]
    fn nested_spans_reconcile() {
        let spans = vec![
            span(1, None, "bench.sweep", 0, 100),
            span(2, Some(1), "store.warm", 0, 20),
            span(3, Some(1), "runspace.sweep", 20, 90),
            span(4, Some(3), "sim.run", 30, 70),
            span(5, Some(3), "sim.run", 50, 90),
        ];
        let a = attribute(&spans);
        assert!(a.unreconciled.is_empty(), "{:?}", a.unreconciled);
        assert!((a.layer("store") - 20.0).abs() < 1e-9);
        assert!((a.layer("runspace") - 10.0).abs() < 1e-9);
        assert!((a.layer("sim") - 60.0).abs() < 1e-9);
        assert!((a.untraced_ms - 10.0).abs() < 1e-9);
        assert!((a.wall_ms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn leaking_child_is_reported() {
        let spans = vec![
            span(1, None, "bench.job", 0, 10),
            span(2, Some(1), "serve.exec", 5, 12),
        ];
        assert_eq!(attribute(&spans).unreconciled.len(), 1);
    }
}
