//! Degraded-mode replanning: derive the platform that survives a
//! [`PlatformFault`] and replan the same chain on it.
//!
//! The planner treats the survivor as an ordinary instance — there is no
//! special "degraded" code path in the DP, which is exactly what makes
//! the result trustworthy: a replanned instance is bit-identical to a
//! cold `madpipe plan` on the surviving platform (the chaos harness in
//! `madpipe-serve` asserts this down to the f64 bits). What this module
//! adds is the bookkeeping around that replan: the baseline plan on the
//! healthy platform, the degraded plan on the survivor, and the
//! throughput delta between them, plus `replan.*` spans and counters so
//! an operator can see degradations in the metrics stream.
//!
//! Warm starts: [`replan_with_session`] plans the baseline through a
//! caller-owned [`ProbeSession`], so a service that already planned the
//! healthy instance pays only for the degraded one (the `madpipe serve`
//! daemon goes further and answers both sides from its plan cache when
//! it can). The degraded side is *incremental* when the fault only
//! shrinks the platform: the baseline session's dense DP slabs seed the
//! degraded solves ([`ProbeSession::derive`]), which reuses every
//! surviving state without changing a single output bit.

use madpipe_model::{Allocation, Chain, ModelError, Platform, PlatformFault};

use crate::dp::ProbeSession;
use crate::planner::{
    madpipe_plan_with_session, madpipe_plan_with_stats, MadPipePlan, PlanError, PlannerConfig,
};
use crate::stats::{PlannerStats, ProbeSource};

/// The outcome of replanning one chain across one platform fault.
#[derive(Debug)]
pub struct ReplanOutcome {
    /// The injected fault.
    pub fault: PlatformFault,
    /// The platform that survives the fault.
    pub degraded_platform: Platform,
    /// Plan on the healthy platform (it may itself be infeasible, e.g.
    /// when replanning a speculative instance).
    pub baseline: Result<MadPipePlan, PlanError>,
    /// Plan on the surviving platform.
    pub degraded: Result<MadPipePlan, PlanError>,
    /// Planner instrumentation of the baseline plan.
    pub baseline_stats: PlannerStats,
    /// Planner instrumentation of the degraded plan, extended with
    /// `replan.fault.<kind>` and the `replan.throughput_delta` gauge.
    pub degraded_stats: PlannerStats,
    /// A fast fallback allocation for the survivor: one slab-seeded DP
    /// probe of the degraded platform at the *baseline plan's* chosen
    /// target period ([`crate::ProbeSource::Bridge`]). Because the
    /// baseline session retains a dense slab at exactly that target, the
    /// probe reuses every surviving state and costs a fraction of a full
    /// solve — a usable allocation even when the full degraded replan
    /// fails in phase 2. `None` on cold replans ([`replan`]), when the
    /// baseline itself did not plan, or when the baseline target is
    /// infeasible on the survivor.
    pub bridge: Option<Allocation>,
}

impl ReplanOutcome {
    /// Relative throughput change `degraded/baseline − 1` (negative when
    /// the fault costs throughput), when both sides planned.
    pub fn throughput_delta(&self) -> Option<f64> {
        match (&self.baseline, &self.degraded) {
            (Ok(b), Ok(d)) => Some(d.throughput() / b.throughput() - 1.0),
            _ => None,
        }
    }

    /// Achieved-period ratio `degraded/baseline` (≥ 1 when the fault
    /// slows the pipeline), when both sides planned.
    pub fn period_ratio(&self) -> Option<f64> {
        match (&self.baseline, &self.degraded) {
            (Ok(b), Ok(d)) => Some(d.period() / b.period()),
            _ => None,
        }
    }
}

/// Replan `chain` across `fault`: plan the healthy platform, derive the
/// survivor, plan it, and report both. Errors only when the fault itself
/// is unusable (losing every GPU, an out-of-range fraction); planning
/// failures on either side are carried in the outcome.
pub fn replan(
    chain: &Chain,
    platform: &Platform,
    fault: PlatformFault,
    cfg: &PlannerConfig,
) -> Result<ReplanOutcome, ModelError> {
    let _span = madpipe_obs::span("replan.total");
    let degraded_platform = fault.apply(platform)?;
    let (baseline, baseline_stats) = madpipe_plan_with_stats(chain, platform, cfg);
    let (degraded, degraded_stats) = madpipe_plan_with_stats(chain, &degraded_platform, cfg);
    Ok(finish(
        fault,
        degraded_platform,
        baseline,
        degraded,
        baseline_stats,
        degraded_stats,
        None,
    ))
}

/// [`replan`] with the baseline planned through a caller-owned warm
/// [`ProbeSession`] — revisited baseline targets cost a memo lookup, and
/// the baseline plan stays bit-identical to a cold one. The degraded
/// side plans through a session *derived* from the baseline one
/// ([`ProbeSession::derive`]): when the fault only shrinks the platform
/// (a GPU loss keeps memory, bandwidth and therefore every DP axis
/// intact), the surviving prefix of the baseline's dense DP slabs seeds
/// the degraded solves, so the replan is incremental rather than from
/// scratch — while staying bit-identical to a cold plan of the survivor,
/// because seeded states carry exactly the values a cold solve would
/// recompute. Faults that reshape the state space (memory or link
/// changes) derive an effectively fresh session.
pub fn replan_with_session(
    session: &mut ProbeSession<'_>,
    fault: PlatformFault,
    cfg: &PlannerConfig,
) -> Result<ReplanOutcome, ModelError> {
    let _span = madpipe_obs::span("replan.total");
    let degraded_platform = fault.apply(session.platform())?;
    let (baseline, baseline_stats) = madpipe_plan_with_session(session, cfg);
    let (degraded, degraded_stats, bridge) = {
        let mut degraded_session = session.derive(&degraded_platform);
        // Bridge probe: the survivor at the baseline's chosen target.
        // The parent holds a slab at exactly this `T̂`, so the probe is
        // seeded (nearly free) and yields an immediate fallback
        // allocation; the full replan below stays bit-identical to a
        // cold one either way (probes are pure, and an extra cached
        // outcome never changes what the bisection computes).
        let bridge = baseline.as_ref().ok().and_then(|plan| {
            degraded_session
                .probe(
                    plan.phase1.t_hat,
                    cfg.algorithm1.use_special,
                    ProbeSource::Bridge,
                )
                .allocation
        });
        let (d, ds) = madpipe_plan_with_session(&mut degraded_session, cfg);
        (d, ds, bridge)
    };
    Ok(finish(
        fault,
        degraded_platform,
        baseline,
        degraded,
        baseline_stats,
        degraded_stats,
        bridge,
    ))
}

fn finish(
    fault: PlatformFault,
    degraded_platform: Platform,
    baseline: Result<MadPipePlan, PlanError>,
    degraded: Result<MadPipePlan, PlanError>,
    baseline_stats: PlannerStats,
    mut degraded_stats: PlannerStats,
    bridge: Option<Allocation>,
) -> ReplanOutcome {
    degraded_stats
        .metrics
        .bump_counter(&format!("replan.fault.{}", fault.kind()), 1);
    let mut outcome = ReplanOutcome {
        fault,
        degraded_platform,
        baseline,
        degraded,
        baseline_stats,
        degraded_stats,
        bridge,
    };
    if let Some(delta) = outcome.throughput_delta() {
        outcome
            .degraded_stats
            .metrics
            .set_gauge("replan.throughput_delta", delta);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::Layer;

    fn chain() -> Chain {
        let layers = (0..6)
            .map(|i| {
                Layer::new(
                    format!("l{i}"),
                    1e-3 * (i + 1) as f64,
                    2e-3 * (i + 1) as f64,
                    1 << 20,
                    4 << 20,
                )
            })
            .collect();
        Chain::new("t", 1 << 20, layers).unwrap()
    }

    fn platform() -> Platform {
        Platform::new(4, 2 << 30, 12e9).unwrap()
    }

    #[test]
    fn replan_is_bit_identical_to_offline_planning_on_the_survivor() {
        let c = chain();
        let p = platform();
        let cfg = PlannerConfig::default();
        let fault = PlatformFault::GpuLoss { count: 1 };
        let out = replan(&c, &p, fault, &cfg).unwrap();
        assert_eq!(out.degraded_platform.n_gpus, 3);

        // The degraded plan must match a cold plan of the survivor, to
        // the f64 bit — there is no degraded-specific planner path.
        let offline = crate::planner::madpipe_plan(&c, &out.degraded_platform, &cfg).unwrap();
        let degraded = out.degraded.as_ref().unwrap();
        assert_eq!(degraded.period().to_bits(), offline.period().to_bits());
        assert_eq!(degraded.allocation, offline.allocation);

        // Losing a GPU can never raise throughput.
        let delta = out.throughput_delta().unwrap();
        assert!(delta <= 1e-12, "GPU loss raised throughput by {delta}");
        assert!(out.period_ratio().unwrap() >= 1.0 - 1e-12);
        assert_eq!(
            out.degraded_stats.metrics.counter("replan.fault.gpu_loss"),
            1
        );
    }

    #[test]
    fn warm_session_replan_matches_cold_replan() {
        let c = chain();
        let p = platform();
        let cfg = PlannerConfig::default();
        let fault = PlatformFault::MemoryReduction { fraction: 0.5 };
        let cold = replan(&c, &p, fault, &cfg).unwrap();

        let mut session = ProbeSession::new(&c, &p, &cfg.algorithm1.discretization);
        // Warm the session with an unrelated plan first.
        let _ = madpipe_plan_with_session(&mut session, &cfg);
        let warm = replan_with_session(&mut session, fault, &cfg).unwrap();

        let (a, b) = (cold.degraded.unwrap(), warm.degraded.unwrap());
        assert_eq!(a.period().to_bits(), b.period().to_bits());
        let (a, b) = (cold.baseline.unwrap(), warm.baseline.unwrap());
        assert_eq!(a.period().to_bits(), b.period().to_bits());
    }

    #[test]
    fn gpu_loss_replans_reuse_surviving_dp_slabs() {
        // A GPU loss keeps every DP axis intact, so the warm replan must
        // seed its solves from the baseline session's slabs — and still
        // produce the identical ReplanOutcome a cold replan does.
        let c = chain();
        let p = platform();
        let cfg = PlannerConfig::default();
        let fault = PlatformFault::GpuLoss { count: 1 };
        let cold = replan(&c, &p, fault, &cfg).unwrap();

        let mut session = ProbeSession::new(&c, &p, &cfg.algorithm1.discretization);
        let _ = madpipe_plan_with_session(&mut session, &cfg);
        let warm = replan_with_session(&mut session, fault, &cfg).unwrap();

        assert!(
            warm.degraded_stats.dp().states_seeded > 0,
            "surviving slab states must seed the degraded solves: {:?}",
            warm.degraded_stats.dp()
        );
        assert!(
            warm.bridge.is_some(),
            "baseline target is feasible on the survivor here, so the \
             bridge probe must yield a fallback allocation"
        );
        assert!(
            cold.bridge.is_none(),
            "cold replans have no session to bridge from"
        );
        assert_eq!(
            cold.throughput_delta().unwrap().to_bits(),
            warm.throughput_delta().unwrap().to_bits()
        );
        let (a, b) = (cold.degraded.unwrap(), warm.degraded.unwrap());
        assert_eq!(a.period().to_bits(), b.period().to_bits());
        assert_eq!(a.allocation, b.allocation);
        let (a, b) = (cold.baseline.unwrap(), warm.baseline.unwrap());
        assert_eq!(a.period().to_bits(), b.period().to_bits());
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn unusable_faults_are_rejected_before_planning() {
        let c = chain();
        let p = platform();
        let cfg = PlannerConfig::default();
        assert!(replan(&c, &p, PlatformFault::GpuLoss { count: 4 }, &cfg).is_err());
        assert!(replan(&c, &p, PlatformFault::LinkSlowdown { fraction: 1.5 }, &cfg).is_err());
    }

    #[test]
    fn infeasible_degraded_instances_are_reported_not_panicked() {
        // 2 GPUs with barely enough memory: losing one leaves a single
        // GPU that cannot hold the whole chain.
        let layers = vec![
            Layer::new("l0", 1e-3, 2e-3, 600 << 20, 1 << 20),
            Layer::new("l1", 1e-3, 2e-3, 600 << 20, 1 << 20),
        ];
        let c = Chain::new("tight", 1 << 20, layers).unwrap();
        let p = Platform::new(2, 2 << 30, 12e9).unwrap();
        let cfg = PlannerConfig::default();
        let out = replan(&c, &p, PlatformFault::GpuLoss { count: 1 }, &cfg).unwrap();
        assert!(out.baseline.is_ok(), "baseline fits across 2 GPUs");
        assert!(out.degraded.is_err(), "survivor cannot hold the chain");
        assert!(out.throughput_delta().is_none());
    }
}
