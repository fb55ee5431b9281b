//! The one ordered scoped worker pool.
//!
//! DP probe batches, phase-2 scheduling batches and the bench grid all
//! fan independent, pure work items over a few cores and need the
//! results back in input order. [`map_ordered`] does that once: a shared
//! atomic cursor hands out indices, each scoped worker keeps its
//! `(index, result)` pairs locally, and the join puts them back in
//! place — no `Arc`, no channels, no locks on the hot path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `items.iter().map(f)` on up to `threads` scoped workers, results in
/// input order. With one thread (or one item) it runs inline on the
/// caller. Workers `enter` the caller's trace context, so spans they
/// open nest exactly as they would inline.
///
/// # Panics
/// Re-raises a worker's panic on the caller.
pub fn map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let trace = madpipe_obs::current();
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let _trace = madpipe_obs::enter(trace);
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return local;
                        };
                        local.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 4, 200] {
            assert_eq!(map_ordered(&items, threads, |x| x * x + 1), serial);
        }
        assert!(map_ordered(&[] as &[u64], 4, |x| *x).is_empty());
    }

    #[test]
    fn workers_run_under_the_callers_trace_context() {
        let ctx = madpipe_obs::TraceContext {
            trace: 0xfeed,
            parent: 0xbeef,
        };
        let _inside = madpipe_obs::enter(ctx);
        let seen = map_ordered(&[(); 8], 4, |_| madpipe_obs::current());
        assert!(seen.iter().all(|c| *c == ctx));
    }
}
