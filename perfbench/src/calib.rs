//! Host-speed calibration.
//!
//! The benchmark's reference host is a 2-vCPU virtual machine shared
//! with other tenants whose load changes over minutes: one `plan-fig6`
//! pass took 6.5 s and another 11.1 s two minutes later, with the same
//! binary and inputs, and serve latencies doubled for minutes at a time.
//! A fixed reference kernel, code of this file that no change to the
//! repository can speed up, is therefore timed between the measured
//! pieces of a run, while the system under test is idle, and time
//! figures are rescaled to the host speed at which the kernel takes
//! [`REFERENCE_MS`]. A neighbour that slows the whole host slows the
//! kernel too and cancels out; a change that makes the program faster
//! leaves the kernel alone and shows in full. Raw figures are logged to
//! stderr beside the rescaled ones.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

use crate::stats::median;

/// The kernel's time (ms) on the idle reference host: its fastest timing
/// there, rounded. Only the unit of the rescaled figures depends on it;
/// they read as seconds on that host.
pub const REFERENCE_MS: f64 = 1.0;

/// Map entries the kernel inserts (about a millisecond of work; its
/// slowdown tracked the planner's through a 70% drift of the host).
const KERNEL_KEYS: u64 = 20_000;

/// The reference kernel: hash-map inserts and lookups interleaved with
/// floating-point work and small allocations, the mix the planner runs.
/// Deterministic (fixed keys, unkeyed SipHash), so its work never varies.
fn kernel(n: u64) -> f64 {
    let mut map: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % (4 * n), i as f64 * 1.000_001);
        if let Some(v) = map.get(&((x >> 3) % (4 * n))) {
            acc += v.sqrt();
        }
        let mut scratch = Vec::with_capacity(4);
        scratch.push(acc);
        acc += scratch[0] * 1e-9;
    }
    acc + map.len() as f64
}

/// One timing of the reference kernel, in ms.
fn reference_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(KERNEL_KEYS)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel timings taken between the measured pieces of a run.
pub struct Timeline {
    /// Kernel timings per mark.
    reps: usize,
    /// `groups[k]` was taken just before piece `k`; the last group
    /// follows the last piece.
    groups: Vec<Vec<f64>>,
}

impl Timeline {
    pub fn new(reps: usize) -> Self {
        Self {
            reps,
            groups: Vec::new(),
        }
    }

    /// Time the kernel; call before each measured piece and once after
    /// the last.
    pub fn mark(&mut self) {
        self.groups
            .push((0..self.reps).map(|_| reference_ms()).collect());
    }

    /// Host slowdown for `piece` (1 on the idle reference host, 1.5 when
    /// the kernel runs 1.5× slower): the median over the groups taken
    /// from `half` marks before it to `half` marks after it, over
    /// [`REFERENCE_MS`], so drift over a long run is followed while one
    /// noisy timing moves little. Divide a time by it to rescale it to
    /// reference speed.
    pub fn slowdown(&self, piece: usize, half: usize) -> f64 {
        let last = self.groups.len() - 1;
        let lo = piece.saturating_sub(half).min(last);
        let hi = (piece + 1 + half).min(last);
        median(&self.groups[lo..=hi].concat()) / REFERENCE_MS
    }

    /// Host slowdown over the whole timeline: the median of every timing.
    pub fn overall(&self) -> f64 {
        median(&self.groups.concat()) / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(1000).to_bits(), kernel(1000).to_bits());
    }

    #[test]
    fn timeline_windows_follow_drift() {
        // Host twice as slow from the fourth mark on.
        let t = Timeline {
            reps: 1,
            groups: [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
                .iter()
                .map(|&r| vec![r * REFERENCE_MS])
                .collect(),
        };
        let s: Vec<f64> = (0..6).map(|i| t.slowdown(i, 1)).collect();
        assert_eq!(s, vec![1.0, 1.0, 1.5, 2.0, 2.0, 2.0]);
        assert_eq!(t.slowdown(2, 0), 1.5);
    }
}
