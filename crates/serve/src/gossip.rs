//! Cache-warming gossip between cluster peers.
//!
//! Every [`gossip_interval`](crate::ServeConfig::gossip_interval) the
//! sender thread snapshots this daemon's hottest cache entries
//! ([`PlanCache::hottest`](crate::PlanCache::hottest)) and ships them to
//! each peer as one `{"cmd":"gossip","entries":[…]}` line over a
//! persistent connection (re-dialed on failure). Receivers apply the
//! entries in the reactor with [`PlanCache::warm`](crate::PlanCache::warm)
//! — insert-if-absent, so gossip can never displace what a peer already
//! holds under the same key, and a re-shipped key never inflates its
//! recency.
//!
//! Plans gossip exactly as rendered, so a warmed cache hit is
//! f64-bit-identical to the origin daemon's response — the cluster-wide
//! bit-identity invariant (every served plan matches offline
//! `madpipe plan`) survives warming.
//!
//! Counters: `serve.gossip.rounds`, `.sent` (entries shipped),
//! `.errors` (failed peer exchanges) on the sender; `.received`,
//! `.applied` on the receiver.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::protocol::gossip_line;
use crate::server::{lock_unpoisoned, Ctx, POLL};
use crate::wire::{pooled_exchange, LineConn, MAX_ACK_BYTES};

/// Dial + I/O budget per peer exchange. Gossip is advisory: a slow peer
/// loses a round, never stalls the sender past this.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// The sender loop. Runs for the daemon's lifetime; exits on drain.
/// With no peers configured it just idles on the drain flag.
pub(crate) fn gossip_loop(ctx: &Arc<Ctx>) {
    let mut conns: HashMap<String, LineConn> = HashMap::new();
    loop {
        // Sleep out the interval in small steps so a drain is noticed
        // within POLL, not a full interval.
        let t0 = Instant::now();
        while t0.elapsed() < ctx.gossip_interval {
            if ctx.draining() {
                return;
            }
            std::thread::sleep(POLL.min(ctx.gossip_interval));
        }
        if ctx.draining() {
            return;
        }
        let peers = lock_unpoisoned(&ctx.peers).clone();
        if peers.is_empty() {
            continue;
        }
        let hot = ctx.cache.hottest(ctx.gossip_entries);
        if hot.is_empty() {
            continue;
        }
        let line = gossip_line(&hot);
        let mut sent = 0u64;
        for peer in &peers {
            // The ack's content doesn't matter, but reading it keeps the
            // persistent connection in step for the next round.
            let dial = || LineConn::dial(peer, PEER_TIMEOUT, PEER_TIMEOUT);
            match pooled_exchange(&mut conns, peer, dial, &line, MAX_ACK_BYTES) {
                Ok(_) => sent += hot.len() as u64,
                Err(_) => ctx.registry.inc("serve.gossip.errors"),
            }
        }
        ctx.registry.inc("serve.gossip.rounds");
        ctx.registry.add("serve.gossip.sent", sent);
    }
}
