//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a span: name,
//! start, end, parent span and request id. Spans stay in memory until the run ends,
//! then [`Tracer::write`] dumps them as JSON. A disabled tracer records nothing and
//! costs one branch per call, so untraced runs measure the program alone.
//!
//! Span names are `<layer>.<call>` (`index.join`, `encoder.embed_all`, ...); the part
//! before the first dot names the layer. Stage spans (`stage.*`) group the layer calls
//! of one pipeline stage.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` (request id 0).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.request_span(name, 0, f)
    }

    /// Runs `f` inside a span named `name` that belongs to request `request`.
    pub fn request_span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans().push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Spans recorded since `mark` (a value returned by [`Tracer::mark`]).
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.spans()[mark..].to_vec()
    }

    /// The current end of the span list, to slice off the spans of one phase.
    pub fn mark(&self) -> usize {
        self.spans().len()
    }

    /// Writes every span, and each layer's total and self time, as one JSON document.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::new();
        let _ = write!(out, "{{{header},\"layers\":{{");
        for (i, (layer, (total, own))) in layer_times(&spans).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{layer}\":{{\"total_s\":{total},\"self_s\":{own}}}"
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part its child spans cover.
/// Children run on the parent's thread and nest inside it, so they never overlap.
fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut own: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.secs())).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(t) = own.get_mut(&parent) {
                *t -= s.secs();
            }
        }
    }
    own
}

/// Per layer: (total time of its outermost spans, self time of all its spans).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let own = self_times(spans);
    let layer_of: BTreeMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.layer())).collect();
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.layer()).or_default();
        let nested_in_same_layer = s.parent.and_then(|p| layer_of.get(&p)) == Some(&s.layer());
        if !nested_in_same_layer {
            entry.0 += s.secs();
        }
        entry.1 += own[&s.id];
    }
    out
}

/// Sum of the durations of spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Durations of the spans named `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}
