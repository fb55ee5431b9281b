//! Property tests for the flight-recorder ring: wraparound accounting
//! and torn-event freedom under concurrent writers.
//!
//! The ring's contract (see `obs::flight`) is that it sheds history,
//! never throughput, and never miscounts the loss:
//!
//! * `drained + dropped == recorded` once writers are quiescent;
//! * drained sequence numbers are distinct and strictly increasing;
//! * a drained event is never torn — every word belongs to the one
//!   `record` call that claimed its sequence number.

use madpipe_obs::flight::{FlightKind, FlightRing};
use proptest::prelude::*;

/// SplitMix64 finalizer — deterministic per-event fingerprint so a
/// drained event can prove all its words came from one writer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Assert `e` is exactly the event `write_fingerprinted` recorded for
/// its `trace` seed: any cross-writer word mix breaks a `mix` link.
fn assert_untorn(e: &madpipe_obs::flight::FlightEvent) {
    assert_eq!(e.kind, FlightKind::Span);
    assert_eq!(e.name, "flight.proptest");
    assert_eq!(e.span, mix(e.trace), "span word torn from trace word");
    assert_eq!(e.parent, mix(e.span), "parent word torn from span word");
    assert_eq!(
        e.ts_us,
        (e.trace % 1_000_000) as f64,
        "timestamp word torn from trace word"
    );
}

fn write_fingerprinted(ring: &FlightRing, seed: u64) {
    let trace = mix(seed) | 1; // nonzero
    ring.record_span(
        "flight.proptest",
        (trace % 1_000_000) as f64,
        1.0,
        trace,
        mix(trace),
        mix(mix(trace)),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-writer wraparound: the newest `capacity` events survive,
    /// everything older is counted dropped, and nothing is torn.
    #[test]
    fn wraparound_keeps_newest_and_counts_drops(
        cap_exp in 3u32..7,
        writes in 0usize..220,
        drain_mid in prop::bool::ANY,
    ) {
        let ring = FlightRing::with_capacity(1 << cap_exp);
        let cap = ring.capacity();
        let mut consumed = 0usize;
        for i in 0..writes {
            write_fingerprinted(&ring, i as u64);
            if drain_mid && i == writes / 2 {
                let events = ring.drain();
                for e in &events {
                    assert_untorn(e);
                }
                consumed += events.len();
            }
        }
        let events = ring.drain();
        prop_assert_eq!(ring.recorded(), writes as u64);
        // Exact loss accounting at rest.
        prop_assert_eq!(
            consumed as u64 + events.len() as u64 + ring.dropped(),
            writes as u64
        );
        prop_assert!(events.len() <= cap);
        if !drain_mid {
            prop_assert_eq!(events.len(), writes.min(cap));
            prop_assert_eq!(ring.dropped(), writes.saturating_sub(cap) as u64);
        }
        // Strictly increasing, distinct seqs; the final drain holds the
        // newest surviving window.
        for pair in events.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq);
        }
        if let Some(last) = events.last() {
            prop_assert_eq!(last.seq, writes as u64 - 1);
        }
        for e in &events {
            assert_untorn(e);
            prop_assert!(e.seq < writes as u64);
        }
        // Quiescent ring: nothing new appears.
        prop_assert!(ring.drain().is_empty());
    }

    /// Concurrent writers hammering a deliberately tiny ring (so
    /// same-slot claim races actually happen): no torn events, distinct
    /// monotone seqs, and exact `drained + dropped == recorded`.
    #[test]
    fn concurrent_writers_never_tear_events(
        cap_exp in 3u32..6,
        threads in 2usize..5,
        per_thread in 1usize..120,
    ) {
        let ring = FlightRing::with_capacity(1 << cap_exp);
        std::thread::scope(|s| {
            for t in 0..threads {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..per_thread {
                        write_fingerprinted(ring, (t * 1_000_003 + i) as u64);
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        prop_assert_eq!(ring.recorded(), total);
        let events = ring.drain();
        prop_assert!(events.len() <= ring.capacity());
        prop_assert_eq!(events.len() as u64 + ring.dropped(), total);
        let mut seen = std::collections::BTreeSet::new();
        for pair in events.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq, "drain must sort by seq");
        }
        for e in &events {
            assert_untorn(e);
            prop_assert!(e.seq < total);
            prop_assert!(seen.insert(e.seq), "duplicate seq {}", e.seq);
        }
    }

    /// Drains racing the writers and each other stay sound: every event
    /// ever observed is untorn and no seq is yielded twice across drains.
    #[test]
    fn concurrent_drains_see_each_event_at_most_once(
        cap_exp in 3u32..6,
        per_thread in 32usize..160,
    ) {
        let ring = FlightRing::with_capacity(1 << cap_exp);
        let mut observed: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            for t in 0..2usize {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..per_thread {
                        write_fingerprinted(ring, (t * 7_777_777 + i) as u64);
                    }
                });
            }
            // Two drainers race each other as well as the writers (two
            // worker panics dumping at once).
            let drainers: Vec<_> = (0..2)
                .map(|_| {
                    let ring = &ring;
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        for _ in 0..8 {
                            for e in ring.drain() {
                                assert_untorn(&e);
                                seen.push(e.seq);
                            }
                        }
                        seen
                    })
                })
                .collect();
            for d in drainers {
                observed.extend(d.join().expect("drainer panicked"));
            }
        });
        for e in ring.drain() {
            assert_untorn(&e);
            observed.push(e.seq);
        }
        let distinct: std::collections::BTreeSet<u64> = observed.iter().copied().collect();
        prop_assert_eq!(distinct.len(), observed.len(), "a seq was drained twice");
        prop_assert!(observed.iter().all(|&s| s < 2 * per_thread as u64));
    }
}
