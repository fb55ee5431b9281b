//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! geometric means, the windowed latency summary and the `max_rps` ladder
//! rule. Kept free of I/O so
//! the unit tests below pin every rule the reported numbers rest on.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Geometric mean of positive `values`; `NaN` when empty.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Fewest samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the p99 when at least [`TAIL_BEYOND`] samples lie
/// beyond it, otherwise the highest percentile that has that many.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported (99 when the sample allows it).
    pub percentile: f64,
    pub samples: usize,
}

/// The tail rule over unsorted `values`: nearest-rank p99 if at least
/// ten samples are strictly above its rank, else the sample with exactly
/// ten above it. `None` below eleven samples, where no percentile has
/// ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the ceil(0.99·n)-th smallest sample (1-based).
    let rank99 = (n * 99).div_ceil(100);
    let rank = if n - rank99 >= TAIL_BEYOND {
        rank99
    } else {
        n - TAIL_BEYOND
    };
    Some(Tail {
        value: v[rank - 1],
        percentile: if rank == rank99 {
            99.0
        } else {
            100.0 * rank as f64 / n as f64
        },
        samples: n,
    })
}

/// Samples per window at which [`windowed`] splits a phase: enough for
/// the tail rule to reach p99 in every window.
pub const WINDOW_SAMPLES: usize = 2000;
/// Most windows [`windowed`] splits a phase into.
pub const MAX_WINDOWS: usize = 15;

/// Latency summary of one open-loop phase (`latencies` in schedule
/// order): split into up to [`MAX_WINDOWS`] equal windows of at least
/// [`WINDOW_SAMPLES`] each, take each window's median and tail, and
/// report the median across windows of each — one stall (a descheduled
/// VM, say) then moves one window, not the reported figure. Returns
/// `(p50, tail, windows)`; the tail's `samples` is the whole phase's
/// count and its `percentile` the lowest any window reached.
pub fn windowed(latencies: &[f64]) -> Option<(f64, Tail, usize)> {
    let windows = (latencies.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let size = latencies.len() / windows;
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut percentile: f64 = 99.0;
    for w in latencies.chunks(size).take(windows) {
        let t = tail(w)?;
        p50s.push(median(w));
        tails.push(t.value);
        percentile = percentile.min(t.percentile);
    }
    let tail = Tail {
        value: median(&tails),
        percentile,
        samples: latencies.len(),
    };
    Some((median(&p50s), tail, windows))
}

/// Latency summary of an open-loop phase measured in `blocks` (each in
/// schedule order). With samples for two or more windows this is
/// [`windowed`] over all of them. With fewer, one stall of the host,
/// which delays a burst of requests, would set the single window's tail,
/// so the tail leaves out the block holding the slowest request, unless
/// that request failed (infinite latency): failures always stay in the
/// tail. The median covers every sample. Returns what [`windowed`]
/// returns.
pub fn blocked(blocks: &[Vec<f64>]) -> Option<(f64, Tail, usize)> {
    let all = blocks.concat();
    if all.len() >= 2 * WINDOW_SAMPLES || blocks.len() < 2 {
        return windowed(&all);
    }
    let slowest = |b: &Vec<f64>| b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let worst = (0..blocks.len())
        .max_by(|&a, &b| slowest(&blocks[a]).total_cmp(&slowest(&blocks[b])))
        .expect("two or more blocks");
    if slowest(&blocks[worst]).is_infinite() {
        return windowed(&all);
    }
    let kept: Vec<f64> = (blocks.iter().enumerate())
        .filter(|&(i, _)| i != worst)
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    let t = tail(&kept)?;
    let tail = Tail {
        samples: all.len(),
        ..t
    };
    Some((median(&all), tail, 1))
}

/// One measured rung of an open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate (requests/s).
    pub rate: f64,
    /// Tail latency (ms) over every scheduled request; failed requests
    /// count as infinitely late, so they always miss the limit.
    pub tail_ms: f64,
    /// Requests that were not answered `ok`.
    pub failures: usize,
    /// The client was still falling further behind its schedule at the
    /// end of the rung (see [`backlog_growing`]).
    pub backlog: bool,
    /// The generator itself sent late (see [`Rung::generator_behind`]).
    pub generator_behind: bool,
}

impl Rung {
    /// A rung counts towards `max_rps` only when its tail meets the
    /// workload's latency limit, nothing failed (every scheduled request
    /// was sent and answered `ok`), no backlog built up and the generator
    /// kept to its own schedule.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && self.failures == 0 && !self.backlog && !self.generator_behind
    }
}

/// Whether the generator fell behind: its p99 send lateness that is
/// not explained by waiting for the previous response exceeds a quarter
/// of the latency limit.
pub fn generator_behind(gen_lag_p99_ms: f64, limit_ms: f64) -> bool {
    gen_lag_p99_ms > limit_ms / 4.0
}

/// Whether a rung's backlog grows: the median latency of its last
/// quarter exceeds that of its first quarter by more than half the
/// latency limit. `latencies_ms` is in schedule order.
pub fn backlog_growing(latencies_ms: &[f64], limit_ms: f64) -> bool {
    let q = latencies_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&latencies_ms[..q]);
    let last = median(&latencies_ms[latencies_ms.len() - q..]);
    last - first > limit_ms / 2.0
}

/// Rates of the fixed ladder: `base · step^k` for `k = from..=to`.
pub fn ladder(base: f64, step: f64, from: i32, to: i32) -> Vec<f64> {
    (from..=to).map(|k| base * step.powi(k)).collect()
}

/// Search over a fixed rate ladder for its highest passing rung,
/// assuming a passing rung implies every lower one passes. The search
/// starts at a given rung (the workload's expected capacity), gallops
/// away from it in steps of 1, 2, 4, … rungs until it has one passing and
/// one failing rung, then bisects between them. Near a good start that
/// takes few rungs, so each can run long enough to settle. A rung that
/// only missed on latency or backlog fails when a second measurement of
/// it fails too, so one stall of the machine cannot send the search down
/// the ladder; a rung with failed or abandoned requests was clearly over
/// capacity and fails at once. Driven step by step so the caller can
/// interleave rungs with its other measurements.
pub struct Ladder {
    rates: Vec<f64>,
    limit_ms: f64,
    /// Highest index known to pass (-1: none yet), lowest known to fail
    /// (`rates.len()`: none yet).
    lo: isize,
    hi: isize,
    /// Where the search starts, and the current gallop step.
    start: isize,
    step: isize,
    /// The current rung already failed once.
    retrying: bool,
    best: Option<Rung>,
}

impl Ladder {
    /// `start` is clamped into the ladder.
    pub fn new(rates: Vec<f64>, limit_ms: f64, start: usize) -> Self {
        let hi = rates.len() as isize;
        Self {
            rates,
            limit_ms,
            lo: -1,
            hi,
            start: (start as isize).min(hi - 1),
            step: 1,
            retrying: false,
            best: None,
        }
    }

    fn mid(&self) -> Option<usize> {
        let top = self.rates.len() as isize;
        let i = match (self.lo >= 0, self.hi < top) {
            _ if self.hi - self.lo <= 1 => return None,
            (false, false) => self.start,
            (true, false) => (self.lo + self.step).min(top - 1),
            (false, true) => (self.hi - self.step).max(0),
            (true, true) => (self.lo + self.hi) / 2,
        };
        Some(i as usize)
    }

    /// The next rate to measure, or `None` once the search is done.
    pub fn next_rate(&self) -> Option<f64> {
        self.mid().map(|i| self.rates[i])
    }

    /// Record the rung measured at [`Ladder::next_rate`].
    pub fn record(&mut self, rung: Rung) {
        let Some(mid) = self.mid() else { return };
        let top = self.rates.len() as isize;
        // A gallop step, not the start and not a bisection step.
        let galloping = (self.lo < 0) != (self.hi >= top);
        if rung.passes(self.limit_ms) {
            self.lo = mid as isize;
            self.best = Some(rung);
        } else if !self.retrying && rung.failures == 0 {
            self.retrying = true;
            return;
        } else {
            self.hi = mid as isize;
        }
        if galloping {
            self.step *= 2;
        }
        self.retrying = false;
    }

    /// The highest passing rung, or `None` when every rung failed.
    pub fn best(&self) -> Option<Rung> {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn gmean_of_powers() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        // n = 1000: rank 990 has exactly 10 samples above it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
        // n = 5000: p99 = rank 4950, 50 beyond.
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.value, t.percentile), (4950.0, 99.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // n = 42 (the plan-fig6 slice): the 32nd value, 10 above it.
        let t = tail(&ramp(42)).unwrap();
        assert_eq!(t.value, 32.0);
        assert!((t.percentile - 100.0 * 32.0 / 42.0).abs() < 1e-12);
        // n = 999: p99 rank 990 would leave only 9 beyond.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.value, 989.0);
        assert!(t.percentile < 99.0);
        // Eleven samples: the minimum, ten above it. Ten: no tail at all.
        assert_eq!(tail(&ramp(11)).unwrap().value, 1.0);
        assert!(tail(&ramp(10)).is_none());
    }

    #[test]
    fn windowed_reports_medians_across_windows() {
        // Five windows; a stall ruins window 2 only.
        let n = 5 * WINDOW_SAMPLES;
        let mut lat = vec![1.0; n];
        for l in &mut lat[WINDOW_SAMPLES..WINDOW_SAMPLES + WINDOW_SAMPLES / 10] {
            *l = 50.0;
        }
        let (p50, t, windows) = windowed(&lat).unwrap();
        assert_eq!(
            (p50, t.value, t.percentile, t.samples, windows),
            (1.0, 1.0, 99.0, n, 5)
        );
        // Below 2·WINDOW_SAMPLES there is one window: the plain rule.
        let small: Vec<f64> = (1..=42).map(f64::from).collect();
        let (p50, t, windows) = windowed(&small).unwrap();
        assert_eq!((p50, t.value, windows), (21.5, 32.0, 1));
        assert!(windowed(&small[..10]).is_none());
    }

    #[test]
    fn blocked_leaves_out_the_block_with_the_slowest_request() {
        // Six blocks of 100 ramped samples; a stall delays the last ten
        // requests of block 2.
        let mut blocks: Vec<Vec<f64>> = (0..6).map(|_| ramp(100)).collect();
        for l in &mut blocks[2][90..] {
            *l += 500.0;
        }
        let (p50, t, windows) = blocked(&blocks).unwrap();
        // The tail rule over the 500 kept samples (five copies of 1..=100):
        // p99 has only five beyond, so rank 490 = 98 with ten beyond.
        assert_eq!(
            (t.value, t.percentile, t.samples, windows),
            (98.0, 98.0, 600, 1)
        );
        // The median covers all 600, stalled ones included.
        assert_eq!(p50, 52.0);
        // Enough samples for windows: plain `windowed`.
        let big = vec![vec![1.0; WINDOW_SAMPLES], vec![2.0; WINDOW_SAMPLES]];
        assert_eq!(blocked(&big), windowed(&big.concat()));
        // One block: nothing to leave out.
        assert_eq!(blocked(&blocks[2..3]), windowed(&blocks[2]));
        // A failed request is never left out: every block counts.
        blocks[4][0] = f64::INFINITY;
        assert_eq!(blocked(&blocks), windowed(&blocks.concat()));
    }

    fn rung(rate: f64, pass: bool) -> Rung {
        Rung {
            rate,
            tail_ms: if pass { 1.0 } else { 100.0 },
            failures: 0,
            backlog: false,
            generator_behind: false,
        }
    }

    #[test]
    fn a_rung_passes_only_when_every_condition_holds() {
        let ok = rung(10.0, true);
        assert!(ok.passes(5.0));
        assert!(!Rung { tail_ms: 5.5, ..ok }.passes(5.0));
        assert!(!Rung { failures: 1, ..ok }.passes(5.0));
        assert!(!Rung {
            backlog: true,
            ..ok
        }
        .passes(5.0));
        assert!(!Rung {
            generator_behind: true,
            ..ok
        }
        .passes(5.0));
        assert!(generator_behind(1.5, 5.0));
        assert!(!generator_behind(1.0, 5.0));
    }

    #[test]
    fn backlog_rule_compares_first_and_last_quarters() {
        let flat = vec![1.0; 40];
        assert!(!backlog_growing(&flat, 4.0));
        let growing: Vec<f64> = (0..40).map(|i| i as f64 * 0.2).collect();
        assert!(backlog_growing(&growing, 4.0));
        assert!(!backlog_growing(&growing, 20.0));
        assert!(!backlog_growing(&[9.0, 1.0, 50.0], 1.0));
    }

    #[test]
    fn ladder_bisects_to_the_highest_passing_rung() {
        let rates = ladder(100.0, 1.5, -2, 5);
        assert_eq!(rates.len(), 8);
        assert!((rates[2] - 100.0).abs() < 1e-9);
        assert!((rates[4] - 225.0).abs() < 1e-9);
        // capacity = index of the highest rung that passes; -1: none.
        for capacity in -1..8isize {
            let mut search = Ladder::new(rates.clone(), 5.0, 3);
            let mut measured = 0;
            while let Some(r) = search.next_rate() {
                measured += 1;
                let pass = capacity >= 0 && r <= rates[capacity as usize] * (1.0 + 1e-9);
                search.record(rung(r, pass));
            }
            match capacity {
                -1 => assert!(search.best().is_none()),
                c => assert_eq!(search.best().unwrap().rate, rates[c as usize]),
            }
            // From rung 3: the start, two or three gallop steps, at most
            // one bisection step; each failing rung is measured twice.
            assert!(measured <= 9, "capacity {capacity}: {measured} rungs");
            if (2..=4).contains(&capacity) {
                assert!(measured <= 6, "capacity {capacity}: {measured} rungs");
            }
        }
        // The gallop doubles its step: 3, 4, 6, then 7 (the top).
        let mut search = Ladder::new(rates.clone(), 5.0, 3);
        let mut seen = Vec::new();
        while let Some(r) = search.next_rate() {
            seen.push(rates.iter().position(|&x| x == r).unwrap());
            search.record(rung(r, true));
        }
        assert_eq!(seen, vec![3, 4, 6, 7]);
        assert_eq!(search.best().unwrap().rate, rates[7]);
        // A rung that fails once and then passes counts as passing.
        let mut search = Ladder::new(rates.clone(), 5.0, 3);
        assert_eq!(search.next_rate(), Some(rates[3]));
        search.record(rung(rates[3], false));
        assert_eq!(search.next_rate(), Some(rates[3]));
        search.record(rung(rates[3], true));
        assert_eq!(search.next_rate(), Some(rates[4]));
        assert_eq!(search.best().unwrap().rate, rates[3]);
        // A rung with failed requests is not measured again.
        search.record(Rung {
            failures: 3,
            ..rung(rates[4], true)
        });
        assert_eq!(search.next_rate(), None);
        assert_eq!(search.best().unwrap().rate, rates[3]);
    }
}
