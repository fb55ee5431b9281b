//! `madpipe-serve`: a concurrent planning service over newline-delimited
//! JSON.
//!
//! The daemon turns the library planner into a long-lived service: an
//! event-driven connection [`reactor`] (one thread, nonblocking sockets,
//! readiness polling, pipelined requests answered in order), a bounded
//! worker pool whose workers each keep a warm
//! [`madpipe_core::ProbeSession`], and a sharded LRU cache keyed by the
//! *canonical* instance — key-sorted, unit-normalized JSON — so the same
//! problem asked twice (in any field order, in bytes or GiB) is answered
//! from memory, bit-identical to a cold `madpipe plan`.
//!
//! The daemon is supervised: worker panics are isolated per request
//! (structured `internal` error, `serve.panics` counter) and dead
//! workers are respawned; `{"cmd":"health"}` reports queue depth and
//! worker liveness, and `{"cmd":"replan"}` answers degraded-mode
//! replanning (GPU loss, memory reduction, link slowdown) through the
//! same cache and pool.
//!
//! Cluster mode scales the tier horizontally: N daemons gossip their
//! hottest cache entries to each other ([`gossip`]), and a
//! consistent-hash [`router`] keyed on the canonical instance string
//! routes each request to its owning daemon, fails over around dead
//! ones, and answers cluster-wide `health`/`metrics` rollups. Plans
//! gossip and route verbatim, so every served plan — warmed, routed or
//! direct — stays f64-bit-identical to offline planning.
//!
//! Every request is traceable end to end: a line carrying a `trace`
//! context field ([`protocol::TraceContext`]) gets per-hop spans —
//! `router.forward`, `serve.request`, `serve.queue.wait`,
//! `serve.worker`, `serve.dp` — stamped into the always-on
//! [`madpipe_obs::flight`] ring, the responses echo `trace`/`span` ids
//! back, and `madpipe trace-merge` stitches the per-process dumps into
//! one cluster-wide Chrome trace.
//!
//! See [`protocol`] for the message format, [`wire`] for the line
//! framing every hop shares (the inbound framer, the bounded line
//! client and the line bounds), [`cache`] for the keying and eviction
//! rules, [`server`] for the worker pool, supervision and drain story,
//! and [`reactor`] for the connection state machines.

pub mod cache;
pub mod gossip;
pub mod journal;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod server;
pub mod wire;

pub use cache::PlanCache;
pub use journal::{Journal, ReplayStats};
pub use protocol::{
    attach_trace, canonical_instance, inject_context, parse_line, parse_request, plan_to_json,
    PlanRequest, ReplanRequest, Request, ServeError, TraceContext, MAX_GOSSIP_ENTRIES,
};
pub use router::{Ring, Router, RouterConfig};
pub use server::{install_signal_handlers, term_requested, ServeConfig, Server};

/// 64-bit FNV-1a: the one cheap, stable, dependency-free hash behind
/// cache sharding, ring placement and journal checksums. Not
/// cryptographic: it spreads keys and detects torn journal frames, not
/// adversaries (anyone who can forge a checksummed record can also
/// replace the whole file).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        // Ring placement, cache shards and journal checksums all depend
        // on these exact values.
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
