//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (the traced run only), their self times, and
//! the JSON-lines dump written when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span sink. A disabled tracer runs the wrapped code and records
/// nothing, so the same code path serves the untraced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id to
    /// pass as the parent of nested spans (`0` when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking benchmark thread")
            .push(Span {
                name,
                trace,
                id,
                parent,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking benchmark thread")
            .clone()
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use madpipe_json::Value;
        let mut out = String::new();
        for s in self.spans() {
            let v = Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("trace".into(), Value::UInt(s.trace)),
                ("id".into(), Value::UInt(s.id)),
                ("parent".into(), Value::UInt(s.parent)),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
            ]);
            out.push_str(&v.to_string_compact());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Total duration per span name, in seconds.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.seconds();
    }
    out
}

/// Span count per name.
pub fn counts(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += 1;
    }
    out
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval covered by its children. Overlapping children
/// (parallel work) are merged first, and children are clipped to the
/// parent's interval, so self time is never negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry((s.trace, s.parent))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut kids: Vec<(u64, u64)> = children
            .get(&(s.trace, s.id))
            .map(|k| {
                k.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                _ => {
                    if let Some((ca, cb)) = cur {
                        covered += cb - ca;
                    }
                    cur = Some((a, b));
                }
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            trace: 1,
            id,
            parent,
            start_ns: start * 1_000_000_000,
            end_ns: end * 1_000_000_000,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,10] ⊃ a [1,4] ⊃ b [2,3]; c [6,8].
        let spans = vec![
            span("root", 1, 0, 0, 10),
            span("a", 2, 1, 1, 4),
            span("b", 3, 2, 2, 3),
            span("c", 4, 1, 6, 8),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 5.0);
        assert_eq!(st["a"], 2.0);
        assert_eq!(st["b"], 1.0);
        assert_eq!(st["c"], 2.0);
        // Self times partition the root's interval.
        assert_eq!(st.values().sum::<f64>(), 10.0);
        assert_eq!(totals(&spans)["a"], 3.0);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_them() {
        // Children [1,5] and [3,7] overlap: covered [1,7]. A child that
        // outlives its parent, [8,12], only covers [8,10].
        let spans = vec![
            span("root", 1, 0, 0, 10),
            span("w", 2, 1, 1, 5),
            span("w", 3, 1, 3, 7),
            span("late", 4, 1, 8, 12),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 2.0);
        assert_eq!(st["w"], 8.0);
        assert_eq!(st["late"], 4.0);
    }

    #[test]
    fn spans_of_other_traces_are_not_children() {
        let mut other = span("x", 2, 1, 0, 10);
        other.trace = 2;
        let spans = vec![span("root", 1, 0, 0, 10), other];
        assert_eq!(self_times(&spans)["root"], 10.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, 0, |id| id + 5), 5);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", 1, 0, |id| t.span("inner", 1, id, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, inner);
        assert_eq!(counts(&spans)["outer"], 1);
    }
}
