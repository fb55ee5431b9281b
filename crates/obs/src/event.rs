//! The shared trace-event model behind every exporter.
//!
//! A [`Trace`] is an ordered list of [`TraceEvent`]s in the Chrome
//! tracing vocabulary: complete spans (`ph:"X"`), instants (`ph:"i"`),
//! counter samples (`ph:"C"`) and metadata (`ph:"M"`). One model, two
//! renderings — Chrome/Perfetto JSON (`{"traceEvents": [...]}`) and a
//! JSON-lines event log (one event object per line) — so flight dumps,
//! the CLI's `--trace-out`, `certify --chrome-trace` and
//! `sim::schedule_trace` cannot drift apart. Counter values carry [`Value`]s, so byte counts stay exact
//! `u64`s through a round trip.

use madpipe_json::Value;

/// Chrome process id used for planner-side spans.
pub const PLANNER_PID: u64 = 1;
/// Chrome process id used for the schedule timeline.
pub const SCHEDULE_PID: u64 = 2;

/// Chrome trace event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `ph:"X"` — a complete span with `ts` + `dur`.
    Complete,
    /// `ph:"i"` — a point event.
    Instant,
    /// `ph:"C"` — a counter sample.
    Counter,
    /// `ph:"M"` — metadata (process/thread names).
    Metadata,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
            Phase::Metadata => "M",
        }
    }
}

/// One event in the shared model.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub ph: Phase,
    pub pid: u64,
    pub tid: u64,
    pub name: String,
    /// Category shown by trace viewers (filterable).
    pub cat: &'static str,
    /// Microseconds (Chrome's native unit).
    pub ts_us: f64,
    /// Only meaningful for [`Phase::Complete`].
    pub dur_us: f64,
    pub args: Vec<(String, Value)>,
}

impl TraceEvent {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("ph".into(), Value::Str(self.ph.code().into())),
            ("pid".into(), Value::UInt(self.pid)),
            ("tid".into(), Value::UInt(self.tid)),
        ];
        if self.ph != Phase::Metadata {
            fields.push(("ts".into(), Value::Float(self.ts_us)));
        }
        if self.ph == Phase::Complete {
            fields.push(("dur".into(), Value::Float(self.dur_us)));
        }
        if self.ph != Phase::Metadata {
            fields.push(("cat".into(), Value::Str(self.cat.into())));
        }
        if !self.args.is_empty() {
            fields.push(("args".into(), Value::Object(self.args.clone())));
        }
        Value::Object(fields)
    }
}

/// An in-memory trace being assembled for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Name a Chrome process (top-level group in the viewer).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(TraceEvent {
            ph: Phase::Metadata,
            pid,
            tid: 0,
            name: "process_name".into(),
            cat: "meta",
            ts_us: 0.0,
            dur_us: 0.0,
            args: vec![("name".into(), Value::Str(name.into()))],
        });
    }

    /// Name a thread row within a process.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(TraceEvent {
            ph: Phase::Metadata,
            pid,
            tid,
            name: "thread_name".into(),
            cat: "meta",
            ts_us: 0.0,
            dur_us: 0.0,
            args: vec![("name".into(), Value::Str(name.into()))],
        });
    }

    /// Add a complete span.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Value)>,
    ) {
        self.events.push(TraceEvent {
            ph: Phase::Complete,
            pid,
            tid,
            name: name.into(),
            cat,
            ts_us,
            dur_us,
            args,
        });
    }

    /// Add a counter sample; `series` is the per-track value name shown
    /// by the viewer (e.g. `bytes`), `value` should be `UInt` for exact
    /// integer tracks.
    pub fn counter(
        &mut self,
        pid: u64,
        name: impl Into<String>,
        cat: &'static str,
        ts_us: f64,
        series: &str,
        value: Value,
    ) {
        self.events.push(TraceEvent {
            ph: Phase::Counter,
            pid,
            tid: 0,
            name: name.into(),
            cat,
            ts_us,
            dur_us: 0.0,
            args: vec![(series.into(), value)],
        });
    }

    /// Append every event of `other`.
    pub fn extend(&mut self, other: Trace) {
        self.events.extend(other.events);
    }

    /// The trace as a Chrome JSON value (`{"traceEvents": [...]}`).
    pub fn to_chrome_value(&self) -> Value {
        Value::Object(vec![
            (
                "traceEvents".into(),
                Value::Array(self.events.iter().map(|e| e.to_json()).collect()),
            ),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }

    /// Chrome/Perfetto JSON text.
    pub fn render_chrome(&self) -> String {
        self.to_chrome_value().to_string_pretty()
    }

    /// JSON-lines event log: one compact event object per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.process_name(PLANNER_PID, "planner");
        t.thread_name(PLANNER_PID, 0, "main");
        t.complete(
            PLANNER_PID,
            0,
            "plan.phase1.bisect",
            "span",
            10.0,
            250.0,
            vec![("t_hat".into(), Value::Float(0.25))],
        );
        t.counter(
            SCHEDULE_PID,
            "memory GPU 0",
            "memory",
            0.0,
            "bytes",
            Value::UInt(123_456_789_012_345),
        );
        t
    }

    #[test]
    fn chrome_rendering_parses_back_with_exact_values() {
        let t = sample_trace();
        let doc = Value::parse(&t.render_chrome()).unwrap();
        let events = doc.field("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4);
        let span = &events[2];
        assert_eq!(span.field("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(span.field("dur").unwrap().as_f64().unwrap(), 250.0);
        let counter = &events[3];
        assert_eq!(counter.field("ph").unwrap().as_str().unwrap(), "C");
        assert_eq!(
            counter.field("args").unwrap().field("bytes").unwrap(),
            &Value::UInt(123_456_789_012_345),
            "byte counters survive the round trip exactly"
        );
    }

    #[test]
    fn jsonl_rendering_is_one_valid_object_per_line() {
        let t = sample_trace();
        let text = t.render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in lines {
            let v = Value::parse(line).unwrap();
            assert!(v.get("ph").is_some());
            assert!(v.get("name").is_some());
        }
    }
}
