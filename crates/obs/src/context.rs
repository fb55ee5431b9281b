//! Distributed trace context and the one span guard of the workspace.
//!
//! A request carries a `trace` id (constant across every hop) and a
//! `parent` span id (the id of the hop that forwarded it). Ids are
//! 64-bit, rendered as 16 lowercase hex digits on the wire, and drawn
//! from a SplitMix64 stream seeded per process from the wall clock and
//! the pid — collisions across a cluster are as unlikely as a 64-bit
//! random collision, and id 0 is reserved to mean "absent".
//!
//! Inside a process the context is thread-local: [`span`] opens a child
//! of the calling thread's current [`TraceContext`] and makes itself the
//! current parent until it closes, so nested calls — `serve.dp` →
//! `plan.total` → `plan.phase1.bisect` → `dp.solve` — link up without
//! passing ids around. Work handed to another thread carries the context
//! explicitly: [`current`] reads it, [`enter`] installs it on the worker.
//! A span that opens in one call and closes in another (a request span
//! living across reactor turns, a queue wait spanning two threads) is a
//! [`Span::detached`] handle that never touches the thread's context.
//!
//! Every closed span goes to the always-on [`crate::flight`] ring,
//! stamped with [`now_unix_us`] — wall-clock microseconds since the UNIX
//! epoch rather than a process-local epoch, so events from different
//! daemons merge onto one timeline (`madpipe trace-merge` rebases the
//! merged trace to its earliest event).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// SplitMix64 finalizer: bijective, so distinct counter values can
/// never collide within one process.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static SEED: OnceLock<u64> = OnceLock::new();
static COUNTER: AtomicU64 = AtomicU64::new(1);

fn seed() -> u64 {
    *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        mix(nanos ^ (u64::from(std::process::id()) << 32))
    })
}

/// A fresh nonzero 64-bit id, unique within this process and
/// collision-resistant across processes.
pub fn fresh_id() -> u64 {
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = mix(seed().wrapping_add(n));
        if id != 0 {
            return id;
        }
    }
}

/// Wire form of an id: 16 lowercase hex digits.
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a wire id; `None` for anything but 1–16 hex digits or for the
/// reserved zero id.
pub fn parse_hex_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

/// Wall-clock microseconds since the UNIX epoch, as f64 (Chrome's
/// native trace unit). Exact to the microsecond until the year ~2255.
pub fn now_unix_us() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64() * 1e6)
        .unwrap_or(0.0)
}

/// [`now_unix_us`] of a monotonic instant: the process's first
/// (instant, wall-clock) reading plus the monotonic distance from it —
/// one clock read per span open instead of two.
fn unix_us_at(t: Instant) -> f64 {
    static ANCHOR: OnceLock<(Instant, f64)> = OnceLock::new();
    let (at, us) = *ANCHOR.get_or_init(|| (Instant::now(), now_unix_us()));
    us + t.saturating_duration_since(at).as_secs_f64() * 1e6
}

/// Where new spans attach: the distributed trace id (0 = untraced) and
/// the span id that becomes their parent (0 = they are roots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    pub trace: u64,
    pub parent: u64,
}

thread_local! {
    static CURRENT: Cell<TraceContext> = const {
        Cell::new(TraceContext { trace: 0, parent: 0 })
    };
}

/// The calling thread's current context — what a [`span`] opened now
/// would hang under. Hand it to worker threads and [`enter`] it there.
pub fn current() -> TraceContext {
    CURRENT.with(Cell::get)
}

/// Install `ctx` as this thread's context until the guard drops (which
/// restores the previous one).
pub fn enter(ctx: TraceContext) -> ContextGuard {
    ContextGuard {
        prev: CURRENT.with(|c| c.replace(ctx)),
    }
}

/// Restores the previous thread context on drop; see [`enter`].
#[must_use = "the context is only installed while the guard lives"]
pub struct ContextGuard {
    prev: TraceContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Numeric annotations one span can carry (`dp.solve` has `t_hat`,
/// `sim.perturb` has `instances` and `overruns`).
pub const MAX_ARGS: usize = 2;

/// An open span: records itself into the flight ring when it closes
/// (on drop, or [`Span::finish`]). Spans opened by [`span`] restore the
/// thread context they displaced, so they must close in LIFO order —
/// which scoping gives for free.
#[derive(Debug)]
#[must_use = "a span measures the scope that holds it"]
pub struct Span {
    name: &'static str,
    parent: TraceContext,
    id: u64,
    start: Instant,
    start_us: f64,
    args: [(&'static str, f64); MAX_ARGS],
    nargs: usize,
    /// The thread context to restore on close (`None` for detached).
    restore: Option<TraceContext>,
    done: bool,
}

/// Open a span under the calling thread's current context; it is the
/// parent of every span opened on this thread until it closes.
pub fn span(name: &'static str) -> Span {
    let mut s = Span::detached(name, current());
    s.restore = Some(CURRENT.with(|c| c.replace(s.context())));
    s
}

impl Span {
    /// Open a span under an explicit parent without touching the
    /// thread's context — for spans that outlive the call that opened
    /// them.
    pub fn detached(name: &'static str, parent: TraceContext) -> Span {
        let start = Instant::now();
        Span {
            name,
            parent,
            id: fresh_id(),
            start,
            start_us: unix_us_at(start),
            args: [("", 0.0); MAX_ARGS],
            nargs: 0,
            restore: None,
            done: false,
        }
    }

    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace this span belongs to (0 = untraced).
    pub fn trace(&self) -> u64 {
        self.parent.trace
    }

    /// The context this span hangs under.
    pub fn parent(&self) -> TraceContext {
        self.parent
    }

    /// Re-home a detached span under `parent` — for a span that must
    /// start timing before the context it belongs to is known (a request
    /// span opens before its line, which carries the context, parses).
    pub fn set_parent(&mut self, parent: TraceContext) {
        debug_assert!(self.restore.is_none(), "only detached spans re-home");
        self.parent = parent;
    }

    /// The context children of this span attach under.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.parent.trace,
            parent: self.id,
        }
    }

    /// Attach a numeric annotation shown in the trace viewer; beyond
    /// [`MAX_ARGS`] annotations are ignored.
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if let Some(slot) = self.args.get_mut(self.nargs) {
            *slot = (key, value);
            self.nargs += 1;
        }
    }

    /// Close the span now and return its duration in seconds.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if !self.done {
            self.done = true;
            if let Some(prev) = self.restore {
                CURRENT.with(|c| c.set(prev));
            }
            crate::flight::record_span(
                self.name,
                self.start_us,
                secs * 1e6,
                self.parent,
                self.id,
                &self.args[..self.nargs],
            );
        }
        secs
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_unique_and_round_trip_hex() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "fresh_id repeated {id:#x}");
            let hex = hex_id(id);
            assert_eq!(hex.len(), 16);
            assert_eq!(parse_hex_id(&hex), Some(id));
        }
    }

    #[test]
    fn hex_parsing_rejects_garbage() {
        assert_eq!(parse_hex_id(""), None);
        assert_eq!(parse_hex_id("0000000000000000"), None, "zero is reserved");
        assert_eq!(parse_hex_id("xyz"), None);
        assert_eq!(parse_hex_id("11112222333344445"), None, "too long");
        assert_eq!(parse_hex_id("ff"), Some(0xff), "short ids parse");
    }

    /// The ring is process-global, so this one test filters the drain
    /// by its own trace id; other tests only use standalone rings.
    #[test]
    fn spans_nest_annotate_and_carry_context_across_threads() {
        let trace = fresh_id();
        let root_parent = fresh_id();
        let before = current();
        let (outer_id, secs) = {
            let _cx = enter(TraceContext {
                trace,
                parent: root_parent,
            });
            let mut outer = span("outer");
            outer.arg("t_hat", 0.25);
            outer.arg("n", 2.0);
            outer.arg("ignored", 3.0);
            let outer_id = outer.id();
            assert_eq!(current(), outer.context());
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            assert_eq!(current(), outer.context(), "inner restored outer");
            let handed = current();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _cx = enter(handed);
                    let _worker = span("worker");
                });
            });
            let mut queued = Span::detached("queued", outer.context());
            assert_eq!(current(), outer.context(), "detached leaves the context");
            queued.arg("depth", 1.0);
            drop(queued);
            (outer_id, outer.finish())
        };
        assert_eq!(current(), before, "every guard restored its context");
        assert!(secs >= 100e-6, "finish returns the span's seconds: {secs}");

        let ours: Vec<_> = crate::flight::drain()
            .into_iter()
            .filter(|e| e.trace == trace)
            .collect();
        let by_name = |name: &str| *ours.iter().find(|e| e.name == name).unwrap();
        let (outer, inner) = (by_name("outer"), by_name("inner"));
        let (worker, queued) = (by_name("worker"), by_name("queued"));
        assert_eq!(ours.len(), 4);
        assert_eq!(outer.span, outer_id);
        assert_eq!(outer.parent, root_parent);
        assert_eq!(inner.parent, outer.span);
        assert_eq!(worker.parent, outer.span, "context crossed the spawn");
        assert_eq!(queued.parent, outer.span);
        assert_eq!(inner.tid, outer.tid);
        assert_ne!(worker.tid, outer.tid);
        assert!(outer.dur_us >= inner.dur_us);
        assert!(inner.ts_us >= outer.ts_us);
        assert!((outer.dur_us - secs * 1e6).abs() < 1e-3);
        assert_eq!(outer.args(), &[("t_hat", 0.25), ("n", 2.0)]);
        assert_eq!(queued.args(), &[("depth", 1.0)]);
        assert!(inner.args().is_empty());
    }

    #[test]
    fn unix_timestamps_advance() {
        let a = now_unix_us();
        let b = now_unix_us();
        assert!(a > 1e15, "epoch-µs in 2026 is ~1.7e15, got {a}");
        assert!(b >= a);
    }
}
