//! Always-on flight recorder: a fixed-size, lock-free ring of recent
//! span/instant/counter events — the only span sink of the workspace.
//! Daemons dump it post-mortem (panic, SIGTERM, chaos daemon-kill) as a
//! JSONL artifact that `madpipe trace-merge` and `validate-trace`
//! consume; the CLI's `--trace-out` drains it into a Chrome trace.
//!
//! The recorder never allocates after construction. Each slot is a
//! per-slot seqlock:
//! a writer claims a sequence number with one `fetch_add`, claims the
//! slot by CAS-ing its stamp odd (`2·seq+1`), stores the event as plain
//! atomic words, and stamps it even (`2·seq+2`). A reader copies the
//! words between two stamp loads and discards the copy if the stamps
//! disagree — so a reader can never observe a torn event. Writers never
//! wait for readers or each other: a writer that loses the claim CAS
//! (a same-slot race, only possible when another writer is a full lap
//! of the ring away) sheds its own event rather than tear the winner's.
//! Every shed event — lost claim race, or lapping an event no reader
//! consumed — increments `dropped` exactly once, so
//! `drained + dropped == recorded` holds at rest: the recorder sheds
//! history, never throughput, and never miscounts the loss.
//!
//! Events carry wall-clock timestamps ([`crate::context::now_unix_us`])
//! and the distributed trace/span/parent ids (0 = absent), so dumps
//! from different daemons merge onto one cluster timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use madpipe_json::Value;

use crate::context::{hex_id, TraceContext, MAX_ARGS};
use crate::event::{Phase, Trace, TraceEvent};

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Dense per-process id of the calling thread (0 = first thread to
/// record an event), the `tid` row of every event it records.
fn current_tid() -> u64 {
    THREAD_TID.with(|t| *t)
}

/// What one flight event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A completed span (`ph:"X"`): `ts_us` + `dur_us`.
    Span,
    /// A point event (`ph:"i"`): cache hit/miss, panic marker.
    Instant,
    /// A counter sample (`ph:"C"`): `value`.
    Counter,
}

impl FlightKind {
    fn code(self) -> u64 {
        match self {
            FlightKind::Span => 0,
            FlightKind::Instant => 1,
            FlightKind::Counter => 2,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(FlightKind::Span),
            1 => Some(FlightKind::Instant),
            2 => Some(FlightKind::Counter),
            _ => None,
        }
    }
}

/// One event read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    pub kind: FlightKind,
    pub name: &'static str,
    /// Wall-clock µs since the UNIX epoch.
    pub ts_us: f64,
    /// Span duration in µs (0 for instants/counters).
    pub dur_us: f64,
    /// Distributed trace id (0 = untraced).
    pub trace: u64,
    /// This event's span id (0 = none).
    pub span: u64,
    /// Parent span id (0 = root or untraced).
    pub parent: u64,
    /// Dense id of the recording thread.
    pub tid: u64,
    /// Ring sequence number: globally ordered, strictly increasing.
    pub seq: u64,
    args: [(&'static str, f64); MAX_ARGS],
    nargs: usize,
}

impl FlightEvent {
    /// Numeric annotations: a counter's `value`, a span's `t_hat`, …
    pub fn args(&self) -> &[(&'static str, f64)] {
        &self.args[..self.nargs]
    }

    /// This event in the Chrome vocabulary under `pid` (`ph` X/i/C), with
    /// the distributed ids as hex strings and the sequence number under
    /// `args` — the one mapping behind flight dumps and `--trace-out`.
    pub fn to_trace_event(&self, pid: u64) -> TraceEvent {
        let mut args: Vec<(String, Value)> = Vec::new();
        for (key, id) in [
            ("trace", self.trace),
            ("span", self.span),
            ("parent", self.parent),
        ] {
            if id != 0 {
                args.push((key.into(), Value::Str(hex_id(id))));
            }
        }
        for (key, v) in self.args() {
            args.push(((*key).into(), Value::Float(*v)));
        }
        args.push(("seq".into(), Value::UInt(self.seq)));
        TraceEvent {
            ph: match self.kind {
                FlightKind::Span => Phase::Complete,
                FlightKind::Instant => Phase::Instant,
                FlightKind::Counter => Phase::Counter,
            },
            pid,
            tid: self.tid,
            name: self.name.to_string(),
            cat: "flight",
            ts_us: self.ts_us,
            dur_us: self.dur_us,
            args,
        }
    }
}

/// Payload word count per slot: name (ptr, len), ts, dur, trace, span,
/// parent, kind|nargs|tid, then (key ptr, key len, value) per argument.
const HEADER_WORDS: usize = 8;
const WORDS: usize = HEADER_WORDS + 3 * MAX_ARGS;

struct Slot {
    /// 0 = never written; `2·seq+1` = seq's writer mid-store;
    /// `2·seq+2` = seq's event complete.
    stamp: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            stamp: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-capacity lock-free event ring. The process-global instance
/// behind [`crate::span`] and [`record_instant`] is what the daemons
/// dump; standalone rings exist for tests.
pub struct FlightRing {
    slots: Vec<Slot>,
    /// Next sequence number to claim.
    next: AtomicU64,
    /// First sequence number not yet consumed by [`FlightRing::drain`].
    read_cursor: AtomicU64,
    /// Events overwritten before any reader consumed them.
    dropped: AtomicU64,
    /// Serializes drains: two concurrent drains (two worker panics
    /// dumping at once) would both read the same cursor and return the
    /// same events twice. Writers never take it.
    draining: Mutex<()>,
}

impl FlightRing {
    /// A ring holding at least `capacity` events (rounded up to a power
    /// of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        FlightRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            next: AtomicU64::new(0),
            read_cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            draining: Mutex::new(()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events lost: overwritten before a drain consumed them, or shed
    /// in a same-slot claim race. `drained + dropped == recorded` at
    /// rest.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    pub fn record_span(
        &self,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
        trace: u64,
        span: u64,
        parent: u64,
    ) {
        let ctx = TraceContext { trace, parent };
        self.record(FlightKind::Span, name, ts_us, dur_us, ctx, span, &[]);
    }

    pub fn record_instant(&self, name: &'static str, ts_us: f64, trace: u64, parent: u64) {
        let ctx = TraceContext { trace, parent };
        self.record(FlightKind::Instant, name, ts_us, 0.0, ctx, 0, &[]);
    }

    pub fn record_counter(&self, name: &'static str, ts_us: f64, value: f64) {
        let ctx = TraceContext::default();
        self.record(
            FlightKind::Counter,
            name,
            ts_us,
            0.0,
            ctx,
            0,
            &[("value", value)],
        );
    }

    /// Everything is `SeqCst`: the single total order makes the seqlock
    /// argument direct (a reader whose two stamp loads agree read every
    /// payload word from that stamp's writer), and a few sequentially
    /// consistent stores per event is still far below one clock read.
    /// Only the words of the arguments present are stored; the reader
    /// never looks past the count packed into the kind word.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        kind: FlightKind,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
        ctx: TraceContext,
        span: u64,
        args: &[(&'static str, f64)],
    ) {
        let args = &args[..args.len().min(MAX_ARGS)];
        let cap = self.slots.len() as u64;
        let seq = self.next.fetch_add(1, Ordering::SeqCst);
        let slot = &self.slots[(seq % cap) as usize];
        // Claim the slot by CAS so word stores are exclusive: a writer
        // whose claim fails is racing another writer a full lap away —
        // shed our event (counted) rather than tear theirs.
        let prev = slot.stamp.load(Ordering::SeqCst);
        if prev % 2 == 1
            || slot
                .stamp
                .compare_exchange(prev, 2 * seq + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            return;
        }
        // The claim displaced whatever complete event the slot held
        // (stamp 2·s+2, i.e. displaced seq = prev/2 − 1); if no drain
        // consumed it, that history is lost — count it.
        if prev != 0 && prev / 2 > self.read_cursor.load(Ordering::SeqCst) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
        let w = &slot.words;
        w[0].store(name.as_ptr() as u64, Ordering::SeqCst);
        w[1].store(name.len() as u64, Ordering::SeqCst);
        w[2].store(ts_us.to_bits(), Ordering::SeqCst);
        w[3].store(dur_us.to_bits(), Ordering::SeqCst);
        w[4].store(ctx.trace, Ordering::SeqCst);
        w[5].store(span, Ordering::SeqCst);
        w[6].store(ctx.parent, Ordering::SeqCst);
        let nargs = args.len() as u64;
        w[7].store(
            kind.code() | (nargs << 4) | (current_tid() << 8),
            Ordering::SeqCst,
        );
        for (i, (key, value)) in args.iter().enumerate() {
            let at = HEADER_WORDS + 3 * i;
            w[at].store(key.as_ptr() as u64, Ordering::SeqCst);
            w[at + 1].store(key.len() as u64, Ordering::SeqCst);
            w[at + 2].store(value.to_bits(), Ordering::SeqCst);
        }
        slot.stamp.store(2 * seq + 2, Ordering::SeqCst);
    }

    /// Snapshot every consistent, not-yet-consumed event, oldest first,
    /// and advance the read cursor past them. A slot mid-write is
    /// skipped; once the cursor passes its seq no later drain returns
    /// it, so it is counted dropped here. Drains run one at a time, so
    /// each event is returned at most once.
    pub fn drain(&self) -> Vec<FlightEvent> {
        // The lock guards no data, so a poisoned one is still usable.
        let _exclusive = self.draining.lock().unwrap_or_else(PoisonError::into_inner);
        let cursor = self.read_cursor.load(Ordering::SeqCst);
        let mut events: Vec<FlightEvent> = Vec::new();
        let mut in_progress: Vec<u64> = Vec::new();
        for slot in &self.slots {
            let s1 = slot.stamp.load(Ordering::SeqCst);
            if s1 % 2 == 1 {
                in_progress.push(s1 / 2);
            }
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let words: [u64; WORDS] = std::array::from_fn(|i| slot.words[i].load(Ordering::SeqCst));
            if slot.stamp.load(Ordering::SeqCst) != s1 {
                continue; // overwritten mid-copy; the lap counted it dropped
            }
            let seq = s1 / 2 - 1;
            if seq < cursor {
                continue; // already consumed by an earlier drain
            }
            let Some(kind) = FlightKind::from_code(words[7] & 0xf) else {
                continue;
            };
            // SAFETY: the matching stamp pair proves every word read
            // here is from one completed `record` call — the header, and
            // the `nargs` argument triples it stored — whose (ptr, len)
            // pairs came from live `&'static str`s.
            let text = |at: usize| -> &'static str {
                unsafe {
                    std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                        words[at] as *const u8,
                        words[at + 1] as usize,
                    ))
                }
            };
            let nargs = (((words[7] >> 4) & 0xf) as usize).min(MAX_ARGS);
            let mut args = [("", 0.0); MAX_ARGS];
            for (i, arg) in args.iter_mut().enumerate().take(nargs) {
                let at = HEADER_WORDS + 3 * i;
                *arg = (text(at), f64::from_bits(words[at + 2]));
            }
            events.push(FlightEvent {
                kind,
                name: text(0),
                ts_us: f64::from_bits(words[2]),
                dur_us: f64::from_bits(words[3]),
                trace: words[4],
                span: words[5],
                parent: words[6],
                tid: words[7] >> 8,
                seq,
                args,
                nargs,
            });
        }
        events.sort_by_key(|e| e.seq);
        if let Some(last) = events.last() {
            let passed = in_progress
                .iter()
                .filter(|&&seq| seq >= cursor && seq < last.seq)
                .count() as u64;
            self.dropped.fetch_add(passed, Ordering::SeqCst);
            self.read_cursor.fetch_max(last.seq + 1, Ordering::SeqCst);
        }
        events
    }
}

/// The process-global ring behind the free functions below (16Ki
/// events ≈ the last few seconds of a saturated daemon).
fn ring() -> &'static FlightRing {
    static RING: OnceLock<FlightRing> = OnceLock::new();
    RING.get_or_init(|| FlightRing::with_capacity(1 << 14))
}

/// Record a completed span into the global ring (the [`crate::Span`]
/// guard's sink).
pub(crate) fn record_span(
    name: &'static str,
    ts_us: f64,
    dur_us: f64,
    ctx: TraceContext,
    span: u64,
    args: &[(&'static str, f64)],
) {
    ring().record(FlightKind::Span, name, ts_us, dur_us, ctx, span, args);
}

/// Record a point event into the global ring.
pub fn record_instant(name: &'static str, ts_us: f64, trace: u64, parent: u64) {
    ring().record_instant(name, ts_us, trace, parent);
}

/// Events the global ring overwrote before any dump consumed them
/// (surfaced as the daemon's `serve.events.dropped` counter).
pub fn dropped() -> u64 {
    ring().dropped()
}

/// Drain the global ring (see [`FlightRing::drain`]).
pub fn drain() -> Vec<FlightEvent> {
    ring().drain()
}

/// Render events as flight-dump JSONL: one [`FlightEvent::to_trace_event`]
/// object per line under this process's pid — the format `trace-merge`
/// stitches and `validate-trace` accepts directly.
pub fn render_jsonl(events: &[FlightEvent]) -> String {
    let pid = u64::from(std::process::id());
    Trace {
        events: events.iter().map(|e| e.to_trace_event(pid)).collect(),
    }
    .render_jsonl()
}

/// Drain the global ring and *append* it as JSONL to `path`; returns
/// how many events this drain added. Appending means repeated dumps
/// (a worker-panic dump followed by the exit dump) accumulate into one
/// artifact whose union is link-complete — a span recorded after an
/// earlier dump still lands in the same file as the children that
/// reference it. An empty drain still creates the (empty) file so
/// supervisors can distinguish "dumped nothing" from "never dumped".
pub fn write_dump(path: &str) -> std::io::Result<usize> {
    use std::io::Write as _;
    let events = drain();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(render_jsonl(&events).as_bytes())?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_round_trips_events_in_order() {
        let ring = FlightRing::with_capacity(64);
        ring.record_span("serve.request", 100.0, 5.0, 0xabc, 0xdef, 0x123);
        ring.record_instant("serve.cache.hit", 101.0, 0xabc, 0xdef);
        ring.record_counter("serve.queue.depth", 102.0, 7.0);
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "serve.request");
        assert_eq!(events[0].kind, FlightKind::Span);
        assert_eq!(events[0].trace, 0xabc);
        assert_eq!(events[0].span, 0xdef);
        assert_eq!(events[0].parent, 0x123);
        assert_eq!(events[0].dur_us, 5.0);
        assert_eq!(events[1].kind, FlightKind::Instant);
        assert_eq!(events[2].kind, FlightKind::Counter);
        assert_eq!(events[2].args(), &[("value", 7.0)]);
        assert_eq!(ring.dropped(), 0);
        // A second drain returns nothing new.
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn a_drain_passing_a_slot_mid_write_counts_it_dropped() {
        let ring = FlightRing::with_capacity(8);
        for i in 0..3 {
            ring.record_counter("c", i as f64, i as f64);
        }
        // Seq 1's writer is mid-store when the drain runs.
        let done = ring.slots[1].stamp.load(Ordering::SeqCst);
        ring.slots[1].stamp.store(done - 1, Ordering::SeqCst);
        let first = ring.drain();
        ring.slots[1].stamp.store(done, Ordering::SeqCst);
        let second = ring.drain();
        assert!(
            second.is_empty(),
            "seq 1 lies behind the cursor: never returned"
        );
        assert_eq!(
            (first.len() + second.len()) as u64 + ring.dropped(),
            ring.recorded(),
            "drained + dropped == recorded"
        );
    }

    #[test]
    fn lapping_unread_events_counts_drops() {
        let ring = FlightRing::with_capacity(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.record_counter("c", i as f64, i as f64);
        }
        assert_eq!(ring.dropped(), 12, "20 written into 8 slots drops 12");
        let events = ring.drain();
        assert_eq!(events.len(), 8, "the newest capacity-many survive");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        // Drained events don't count as dropped when lapped later.
        for i in 0..8 {
            ring.record_counter("c", i as f64, 0.0);
        }
        assert_eq!(ring.dropped(), 12, "lapping consumed slots is free");
    }

    #[test]
    fn jsonl_rendering_is_chrome_compatible() {
        let ring = FlightRing::with_capacity(8);
        let ctx = TraceContext {
            trace: 1,
            parent: 3,
        };
        let args = [("t_hat", 0.25), ("n", 3.0)];
        ring.record(FlightKind::Span, "dp.solve", 1.7e15, 42.0, ctx, 2, &args);
        ring.record_instant("serve.panic", 1.7e15, 0, 0);
        let events = ring.drain();
        assert_eq!(events[0].args(), &args);
        assert!(events[1].args().is_empty());
        let text = render_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let span = Value::parse(lines[0]).unwrap();
        assert_eq!(span.field("ph").unwrap().as_str(), Ok("X"));
        assert_eq!(
            span.field("args").unwrap().field("span").unwrap().as_str(),
            Ok("0000000000000002")
        );
        assert_eq!(
            span.field("args")
                .unwrap()
                .field("parent")
                .unwrap()
                .as_str(),
            Ok("0000000000000003")
        );
        let span_args = span.field("args").unwrap();
        assert_eq!(span_args.field("t_hat").unwrap().as_f64(), Ok(0.25));
        assert_eq!(span_args.field("n").unwrap().as_f64(), Ok(3.0));
        let instant = Value::parse(lines[1]).unwrap();
        assert_eq!(instant.field("ph").unwrap().as_str(), Ok("i"));
        assert!(instant.field("args").unwrap().get("trace").is_none());
    }
}
