//! Observability layer for the MadPipe workspace: one span pipeline, a
//! metrics registry, and exporters sharing one trace-event model.
//!
//! Three pieces, deliberately small and dependency-free:
//!
//! * [`span`] / [`Span`] and the trace [`context`] — the one RAII span
//!   guard. A span opens under the calling thread's current
//!   [`TraceContext`] (trace id + parent span id), becomes the parent of
//!   spans opened beneath it, and on close records itself into the
//!   always-on [`flight`] ring: a fixed-size lock-free ring of recent
//!   span/instant/counter events, the only span sink. Ids are 64-bit
//!   (16-hex on the wire) and timestamps wall-clock UNIX-epoch µs, so
//!   spans from the router, each daemon and the load generator stitch
//!   together without clock coordination. Daemons dump the ring to JSONL
//!   on panic, SIGTERM and drain; [`merge::merge_traces`]
//!   (`madpipe trace-merge`) stitches those dumps into one cluster-wide
//!   Chrome trace with cross-process parent/child edges, and the CLI's
//!   `--trace-out` drains it into a Chrome trace of its own. A span costs
//!   a few hundred nanoseconds — two clock reads, an id and a ring record
//!   — so the planner stays instrumented permanently.
//! * [`Registry`]/[`MetricsSnapshot`] — monotone counters, gauges and
//!   log₂-bucketed histograms with deterministic (sorted) iteration,
//!   rendered as a Prometheus-style text dump or a JSON tree.
//! * [`Trace`]/[`TraceEvent`] — the shared event model behind every
//!   exporter: Chrome/Perfetto JSON (`ph:"X"` spans, `ph:"i"` instants,
//!   `ph:"C"` counter tracks, `ph:"M"` metadata) and JSON lines.
//!   [`flight::FlightEvent::to_trace_event`] is the one mapping from ring
//!   events into it; `sim::schedule_trace` builds the schedule timeline
//!   through it.
//!
//! [`validate`] closes the loop: it re-parses an emitted Chrome trace
//! with the vendored JSON crate and checks the structural invariants the
//! round-trip tests and `madpipe validate-trace` rely on — including,
//! whenever spans carry ids, that every span's parent exists and the
//! parent graph is acyclic.
//!
//! Counter namespaces in use across the workspace: `plan.*`, `planner.*`
//! and `dp.*` (planner), `certify.*` (differential certification),
//! `serve.*` (the daemon — including `serve.panics` and
//! `serve.workers.respawned`, the supervision counters incremented when a
//! worker panic is isolated and the worker replaced), and `replan.*`
//! (degraded-mode replanning: `replan.fault.<kind>` counters, the
//! `replan.throughput_delta` gauge, the `replan.total` span).

pub mod context;
mod event;
pub mod flight;
pub mod merge;
mod metrics;
pub mod validate;

pub use context::{
    current, enter, fresh_id, hex_id, now_unix_us, parse_hex_id, span, ContextGuard, Span,
    TraceContext,
};
pub use event::{Phase, Trace, TraceEvent, PLANNER_PID, SCHEDULE_PID};
pub use merge::merge_traces;
pub use metrics::{
    quantile_from_buckets, HistogramSnapshot, MetricsSnapshot, Registry, EXPORTED_QUANTILES,
};
