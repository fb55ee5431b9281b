//! Pattern replay: execute a periodic pattern event by event and measure
//! what it actually does.
//!
//! The analytic checker of `madpipe-schedule` *proves* a pattern valid;
//! replay *observes* it: ops fire at `kT + t` on batch `k − h`, memory
//! moves at op completions, and the report must agree with the checker —
//! which the cross-validation tests in the workspace assert.

use madpipe_model::{Allocation, Chain, Platform, Resource, StagePolicy, UnitKind, UnitSequence};
use madpipe_schedule::check::static_memory;
use madpipe_schedule::{Dir, Pattern};

use crate::event::EventQueue;
use crate::report::SimReport;

/// Replay `pattern` for `periods` periods (plus warm-up) and measure the
/// achieved throughput and per-GPU memory peaks.
///
/// Batches with negative indices (the fill phase of the pipeline) are
/// skipped, so the measurement starts in steady state after `max_shift`
/// periods of warm-up.
pub fn replay_pattern(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    pattern: &Pattern,
    periods: usize,
) -> SimReport {
    let policies = vec![StagePolicy::default(); alloc.stages().len()];
    replay_pattern_with(chain, platform, alloc, &policies, pattern, periods)
}

/// Policy-aware [`replay_pattern`]: stage units carry per-stage policies,
/// so recomputing stages move only their boundary input per batch and
/// their backward durations include the recomputed forward.
pub fn replay_pattern_with(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    policies: &[StagePolicy],
    pattern: &Pattern,
    periods: usize,
) -> SimReport {
    replay_with(
        chain,
        platform,
        alloc,
        policies,
        pattern,
        periods,
        |_, _, _| {},
    )
}

/// [`replay_pattern`] with a memory observer: `on_mem(time, gpu, bytes)`
/// is called once per GPU with the static footprint at `t = 0`, then at
/// every stage-op completion that changes that GPU's residency, with the
/// *same* values the peak measurement folds — so a consumer taking
/// `max` over the samples reproduces `gpu_peak_bytes` bit for bit (the
/// memory counter tracks of [`crate::trace::schedule_trace`] rely on
/// this).
pub fn replay_with(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    policies: &[StagePolicy],
    pattern: &Pattern,
    periods: usize,
    mut on_mem: impl FnMut(f64, usize, u64),
) -> SimReport {
    let _span = madpipe_obs::span("sim.replay");
    let seq = UnitSequence::from_allocation_with(chain, platform, alloc, policies);
    let t_period = pattern.period;
    let warmup = pattern.max_shift() as usize + 1;
    let total_periods = warmup + periods.max(2);

    let static_bytes = static_memory(chain, alloc, &seq);
    let mut dyn_bytes = vec![0i64; alloc.n_gpus()];
    let mut peak = static_bytes.clone();
    let mut busy_time = vec![0.0f64; alloc.n_gpus()];
    for (g, &b) in static_bytes.iter().enumerate() {
        on_mem(0.0, g, b);
    }

    // Events: (completion_time, op_index, batch).
    let mut events: EventQueue<(usize, i64)> = EventQueue::new();
    for (oi, op) in pattern.ops.iter().enumerate() {
        for k in 0..total_periods {
            let batch = k as i64 - op.shift as i64;
            let start = k as f64 * t_period + op.start;
            events.push(start + op.duration, (oi, batch));
            if batch >= 0 {
                if let Resource::Gpu(g) = op.resource {
                    busy_time[g] += op.duration;
                }
            }
        }
    }

    let mut completions: Vec<f64> = Vec::new();
    let mut makespan = 0.0f64;
    // The first op in chain order whose backward retires the batch.
    while let Some((t, (oi, batch))) = events.pop() {
        if batch < 0 {
            continue; // fill phase: the op idles in a real execution
        }
        makespan = t;
        let op = &pattern.ops[oi];
        let unit = &seq.units()[op.unit];
        if let (UnitKind::Stage { layers, .. }, Resource::Gpu(g)) = (&unit.kind, unit.resource) {
            let stored = chain.stage_live_batch_bytes(layers.clone(), unit.policy) as i64;
            match op.dir {
                Dir::Forward => dyn_bytes[g] += stored,
                Dir::Backward => dyn_bytes[g] -= stored,
            }
            let total = (static_bytes[g] as i64 + dyn_bytes[g]).max(0) as u64;
            peak[g] = peak[g].max(total);
            on_mem(t, g, total);
        }
        if op.unit == 0 && op.dir == Dir::Backward {
            completions.push(t);
        }
    }

    // Steady-state period over the second half of retirements.
    let period = if completions.len() >= 4 {
        let half = completions.len() / 2;
        (completions[completions.len() - 1] - completions[half - 1])
            / (completions.len() - half) as f64
    } else {
        t_period
    };

    let gpu_utilization = busy_time
        .iter()
        .map(|&bt| {
            if makespan > 0.0 {
                (bt / makespan).min(1.0)
            } else {
                0.0
            }
        })
        .collect();

    let memory_violation = peak.iter().any(|&p| p > platform.memory_bytes);
    SimReport {
        period,
        makespan,
        batches: completions.len(),
        gpu_peak_bytes: peak,
        gpu_utilization,
        memory_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::{Layer, Partition};
    use madpipe_schedule::{best_contiguous_period, check_pattern, one_f1b_star};

    fn setup() -> (Chain, Platform, Allocation) {
        let chain = Chain::new(
            "t",
            1000,
            vec![
                Layer::new("a", 1.0, 2.0, 64, 1000),
                Layer::new("b", 2.0, 1.0, 64, 500),
                Layer::new("c", 1.5, 1.5, 64, 250),
            ],
        )
        .unwrap();
        let platform = Platform::new(3, 1 << 20, 1000.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        (chain, platform, alloc)
    }

    #[test]
    fn replay_achieves_the_pattern_period() {
        let (chain, platform, alloc) = setup();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        let report = replay_pattern(&chain, &platform, &alloc, &best.pattern, 50);
        assert!(
            (report.period - best.period).abs() < 1e-6,
            "replayed {} vs analytic {}",
            report.period,
            best.period
        );
        assert!(!report.memory_violation);
    }

    #[test]
    fn replay_memory_matches_the_checker() {
        let (chain, platform, alloc) = setup();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let t = seq.max_unit_load() * 1.1;
        let pattern = one_f1b_star(&seq, t);
        let analytic = check_pattern(&chain, &platform, &alloc, &seq, &pattern).unwrap();
        let report = replay_pattern(&chain, &platform, &alloc, &pattern, 60);
        assert_eq!(report.gpu_peak_bytes, analytic.gpu_peak_bytes);
    }

    #[test]
    fn utilization_is_bounded_and_positive() {
        let (chain, platform, alloc) = setup();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        let report = replay_pattern(&chain, &platform, &alloc, &best.pattern, 40);
        for &u in &report.gpu_utilization {
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
