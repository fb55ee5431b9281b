//! Planner observability: counters and timings collected while MadPipe
//! plans, exposed to the CLI (`--stats`, `--stats-json`) and the bench
//! CSV writers.
//!
//! Every number is stored once, in a metrics registry — the DP session's
//! [`madpipe_obs::Registry`] for the DP counters, and the frozen
//! [`PlannerStats::metrics`] snapshot for everything one plan adds — and
//! read through views over it:
//!
//! * [`DpStats`] — the named counters of the cross-probe DP session
//!   ([`crate::dp::ProbeSession`]): how many DP solves actually ran, how
//!   many probes were answered from the outcome cache or the monotone
//!   infeasibility bound, and the memoization/prune behaviour inside the
//!   solves that did run;
//! * [`PlannerStats`] — the end-to-end picture: the probe timeline (every
//!   target period evaluated, tagged with the planner stage that asked
//!   for it) and the frozen registry, whose phase wall-clocks, phase-2
//!   scheduling counts and certification verdicts the accessors read;
//!   machine consumers take the snapshot whole ([`PlannerStats::to_json`],
//!   the Prometheus dump).

use madpipe_json::Value;
use madpipe_obs::{MetricsSnapshot, Registry};

/// Registry names of the planner numbers: the DP session's counters
/// (the [`DpStats`] fields) and each plan's phase-2, certification and
/// wall-clock entries (the [`PlannerStats`] accessors).
pub mod counters {
    pub const DP_SOLVES: &str = "dp.solves";
    pub const DP_OUTCOME_HITS: &str = "dp.outcome_hits";
    pub const DP_BOUND_PRUNES: &str = "dp.bound_prunes";
    pub const DP_STATES_CREATED: &str = "dp.states_created";
    pub const DP_STATES_REUSED: &str = "dp.states_reused";
    pub const DP_STATES_SEEDED: &str = "dp.states_seeded";
    pub const DP_MEMO_HITS: &str = "dp.memo_hits";
    pub const DP_LOAD_PRUNES: &str = "dp.load_prunes";
    pub const DP_MEMORY_PRUNES: &str = "dp.memory_prunes";
    pub const DP_BRANCH_PRUNES: &str = "dp.branch_prunes";
    /// Log₂ histogram of per-solve wall time (seconds).
    pub const DP_SOLVE_SECONDS: &str = "dp.solve.seconds";
    /// Log₂ histogram of per-solve memoized state counts.
    pub const DP_SOLVE_STATES: &str = "dp.solve.states";
    pub const SCHEDULES_ATTEMPTED: &str = "planner.schedules_attempted";
    pub const SCHEDULES_SOLVED: &str = "planner.schedules_solved";
    pub const CERTIFY_PASSED: &str = "planner.certifications_passed";
    pub const CERTIFY_FAILED: &str = "planner.certifications_failed";
    /// Gauges: per-phase wall clocks of one plan, in seconds. Phase 2's
    /// two passes (before and after refinement) add up to one
    /// `schedule` time; `total` includes any certification recorded
    /// afterwards.
    pub const PHASE1_SECONDS: &str = "plan.phase1.seconds";
    pub const FALLBACK_SECONDS: &str = "plan.fallback.seconds";
    pub const REFINE_SECONDS: &str = "plan.refine.seconds";
    pub const SCHEDULE_SECONDS: &str = "plan.schedule.seconds";
    pub const CERTIFY_SECONDS: &str = "plan.certify.seconds";
    pub const TOTAL_SECONDS: &str = "plan.total.seconds";
}

/// Aggregate counters of one [`crate::dp::ProbeSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DpStats {
    /// DP solves that actually ran (memo built from scratch).
    pub solves: usize,
    /// Probes answered from the cross-probe outcome cache.
    pub outcome_hits: usize,
    /// Probes answered by the monotone infeasibility bound (a target no
    /// larger than one already proven infeasible).
    pub bound_prunes: usize,
    /// Distinct memoized states created across all solves.
    pub states_created: u64,
    /// States served again from retained shards by outcome-cache hits.
    pub states_reused: u64,
    /// States pre-filled from a parent session's slabs on derived
    /// sessions (incremental replans) instead of being recomputed.
    pub states_seeded: u64,
    /// Intra-solve memo lookups that hit an existing state.
    pub memo_hits: u64,
    /// Times the exact load prune (`u ≥ best`) cut a stage scan short.
    pub load_prunes: u64,
    /// Times the monotone memory-overflow break cut a stage scan short.
    pub memory_prunes: u64,
    /// Candidate recursions skipped because the 1F1B* subtree lower
    /// bound already met the incumbent (branch-and-bound, exact).
    pub branch_prunes: u64,
}

impl DpStats {
    /// The counter view over a DP session's registry.
    pub fn from_registry(registry: &Registry) -> Self {
        Self::from_counters(|name| registry.counter(name))
    }

    /// The counter view over a frozen registry.
    pub fn from_snapshot(metrics: &MetricsSnapshot) -> Self {
        Self::from_counters(|name| metrics.counter(name))
    }

    fn from_counters(counter: impl Fn(&str) -> u64) -> Self {
        use counters::*;
        Self {
            solves: counter(DP_SOLVES) as usize,
            outcome_hits: counter(DP_OUTCOME_HITS) as usize,
            bound_prunes: counter(DP_BOUND_PRUNES) as usize,
            states_created: counter(DP_STATES_CREATED),
            states_reused: counter(DP_STATES_REUSED),
            states_seeded: counter(DP_STATES_SEEDED),
            memo_hits: counter(DP_MEMO_HITS),
            load_prunes: counter(DP_LOAD_PRUNES),
            memory_prunes: counter(DP_MEMORY_PRUNES),
            branch_prunes: counter(DP_BRANCH_PRUNES),
        }
    }

    /// Probes answered without running a DP solve.
    pub fn probes_saved(&self) -> usize {
        self.outcome_hits + self.bound_prunes
    }
}

/// Which planner stage requested a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSource {
    /// Algorithm 1's bisection over `T̂`.
    Bisection,
    /// The memory-aware contiguous ablation (special processor off).
    ContiguousFallback,
    /// The post-bisection refinement grid.
    Refinement,
    /// A degraded-mode bridge probe: the survivor evaluated at the
    /// baseline plan's chosen target, seeded from the baseline session's
    /// surviving DP slabs ([`crate::replan_with_session`]).
    Bridge,
}

impl std::fmt::Display for ProbeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeSource::Bisection => write!(f, "bisection"),
            ProbeSource::ContiguousFallback => write!(f, "contiguous"),
            ProbeSource::Refinement => write!(f, "refinement"),
            ProbeSource::Bridge => write!(f, "bridge"),
        }
    }
}

/// One entry of the probe timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// Stage that asked for this probe.
    pub source: ProbeSource,
    /// Target period `T̂`.
    pub t_hat: f64,
    /// Whether the special processor was enabled.
    pub use_special: bool,
    /// Raw DP period (infinite when infeasible).
    pub period: f64,
    /// Memoized states of the solve that answered this probe.
    pub states: usize,
    /// Answered from the cross-probe outcome cache (no solve ran).
    pub cached: bool,
    /// Answered by the monotone infeasibility bound (no solve ran).
    pub pruned: bool,
    /// Wall-clock seconds spent answering (≈ 0 for cached/pruned).
    pub seconds: f64,
}

/// End-to-end planner instrumentation for one [`crate::madpipe_plan`]
/// run, also available on failure (the counters explain *why* planning
/// failed, e.g. every probe infeasible).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlannerStats {
    /// Every probe in evaluation order (parallel batches keep their
    /// submission order, so the timeline is deterministic).
    pub probes: Vec<ProbeRecord>,
    /// Worker threads used for independent probes and scheduling.
    pub threads: usize,
    /// The frozen metrics registry: the DP session's counters and log₂
    /// timing/state histograms plus this plan's [`counters`] entries —
    /// the one store of every number the accessors below return,
    /// exportable as Prometheus text or JSON.
    pub metrics: MetricsSnapshot,
}

impl PlannerStats {
    /// Aggregate DP counters of the probe session.
    pub fn dp(&self) -> DpStats {
        DpStats::from_snapshot(&self.metrics)
    }

    /// Distinct allocations handed to phase 2.
    pub fn schedules_attempted(&self) -> u64 {
        self.metrics.counter(counters::SCHEDULES_ATTEMPTED)
    }

    /// Of those, how many produced a valid schedule.
    pub fn schedules_solved(&self) -> u64 {
        self.metrics.counter(counters::SCHEDULES_SOLVED)
    }

    /// Plans that passed differential certification
    /// ([`crate::certify::Certificate::record`]).
    pub fn certifications_passed(&self) -> u64 {
        self.metrics.counter(counters::CERTIFY_PASSED)
    }

    /// Plans that failed it.
    pub fn certifications_failed(&self) -> u64 {
        self.metrics.counter(counters::CERTIFY_FAILED)
    }

    /// Wall time of the phase-1 bisection (including its DP solves).
    pub fn phase1_seconds(&self) -> f64 {
        self.metrics.gauge(counters::PHASE1_SECONDS)
    }

    /// Wall time of the contiguous-fallback bisection.
    pub fn fallback_seconds(&self) -> f64 {
        self.metrics.gauge(counters::FALLBACK_SECONDS)
    }

    /// Wall time of the refinement-grid probes.
    pub fn refine_seconds(&self) -> f64 {
        self.metrics.gauge(counters::REFINE_SECONDS)
    }

    /// Wall time of phase-2 scheduling (both passes, all candidates).
    pub fn schedule_seconds(&self) -> f64 {
        self.metrics.gauge(counters::SCHEDULE_SECONDS)
    }

    /// Wall time of differential certification (0 when no plan was
    /// certified).
    pub fn certify_seconds(&self) -> f64 {
        self.metrics.gauge(counters::CERTIFY_SECONDS)
    }

    /// Total wall time: the plan call plus any certification recorded
    /// afterwards, so the phase times always sum to at most this.
    pub fn total_seconds(&self) -> f64 {
        self.metrics.gauge(counters::TOTAL_SECONDS)
    }

    /// One-line summary suitable for CLI output.
    pub fn summary(&self) -> String {
        let dp = self.dp();
        let mut s = format!(
            "probes {} ({} solved, {} cached, {} pruned), states {} (+{} reused), \
             schedules {}/{}, {:.3}s total ({} thread{})",
            self.probes.len(),
            dp.solves,
            dp.outcome_hits,
            dp.bound_prunes,
            dp.states_created,
            dp.states_reused,
            self.schedules_solved(),
            self.schedules_attempted(),
            self.total_seconds(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        );
        let certs = self.certifications_passed() + self.certifications_failed();
        if certs > 0 {
            s.push_str(&format!(
                ", certify {}/{certs}",
                self.certifications_passed()
            ));
        }
        s
    }

    /// Sum of the per-phase wall clocks (each phase is timed inside the
    /// total clock, so this never exceeds [`total_seconds`]).
    ///
    /// [`total_seconds`]: PlannerStats::total_seconds
    pub fn phase_seconds_sum(&self) -> f64 {
        self.phase1_seconds()
            + self.fallback_seconds()
            + self.refine_seconds()
            + self.schedule_seconds()
            + self.certify_seconds()
    }

    /// Machine-readable export: the probe timeline, the thread count and
    /// the full metrics snapshot (the `--stats-json` payload).
    pub fn to_json(&self) -> Value {
        let probe = |p: &ProbeRecord| {
            Value::Object(vec![
                ("source".into(), Value::Str(p.source.to_string())),
                ("t_hat".into(), Value::Float(p.t_hat)),
                ("use_special".into(), Value::Bool(p.use_special)),
                (
                    "period".into(),
                    if p.period.is_finite() {
                        Value::Float(p.period)
                    } else {
                        Value::Null
                    },
                ),
                ("states".into(), Value::UInt(p.states as u64)),
                ("cached".into(), Value::Bool(p.cached)),
                ("pruned".into(), Value::Bool(p.pruned)),
                ("seconds".into(), Value::Float(p.seconds)),
            ])
        };
        Value::Object(vec![
            (
                "probes".into(),
                Value::Array(self.probes.iter().map(probe).collect()),
            ),
            ("threads".into(), Value::UInt(self.threads as u64)),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_accessors_read_the_snapshot() {
        let mut stats = PlannerStats {
            threads: 4,
            ..PlannerStats::default()
        };
        stats.metrics.bump_counter(counters::SCHEDULES_ATTEMPTED, 5);
        stats.metrics.bump_counter(counters::SCHEDULES_SOLVED, 4);
        stats.metrics.bump_counter(counters::DP_SOLVES, 7);
        stats.metrics.set_gauge(counters::PHASE1_SECONDS, 0.25);
        stats.metrics.set_gauge(counters::SCHEDULE_SECONDS, 0.5);
        assert_eq!(stats.schedules_attempted(), 5);
        assert_eq!(stats.dp().solves, 7);
        assert_eq!(stats.phase_seconds_sum(), 0.75);
        assert_eq!(stats.refine_seconds(), 0.0, "absent gauges read 0");
        let s = stats.summary();
        assert!(s.contains("4/5"));
        assert!(s.contains("4 threads"));
    }

    #[test]
    fn dp_stats_derive_from_the_registry() {
        let r = Registry::new();
        r.add(counters::DP_SOLVES, 3);
        r.add(counters::DP_STATES_CREATED, 1000);
        r.add(counters::DP_OUTCOME_HITS, 2);
        r.add(counters::DP_BOUND_PRUNES, 1);
        let dp = DpStats::from_registry(&r);
        assert_eq!(dp.solves, 3);
        assert_eq!(dp.states_created, 1000);
        assert_eq!(dp.probes_saved(), 3);
        assert_eq!(dp.memo_hits, 0);
    }

    #[test]
    fn json_export_round_trips_and_encodes_infinity_as_null() {
        let mut stats = PlannerStats {
            probes: vec![
                ProbeRecord {
                    source: ProbeSource::Bisection,
                    t_hat: 0.5,
                    use_special: true,
                    period: 0.75,
                    states: 12,
                    cached: false,
                    pruned: false,
                    seconds: 0.01,
                },
                ProbeRecord {
                    source: ProbeSource::Refinement,
                    t_hat: 0.1,
                    use_special: true,
                    period: f64::INFINITY,
                    states: 0,
                    cached: false,
                    pruned: true,
                    seconds: 0.0,
                },
            ],
            threads: 2,
            ..PlannerStats::default()
        };
        stats.metrics.set_gauge(counters::TOTAL_SECONDS, 1.5);
        let v = stats.to_json();
        let text = v.to_string_pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        let probes = back.field("probes").unwrap().as_array().unwrap();
        assert_eq!(probes[0].field("period").unwrap().as_f64().unwrap(), 0.75);
        assert_eq!(probes[1].field("period").unwrap(), &Value::Null);
        assert_eq!(
            back.field("metrics")
                .unwrap()
                .field("gauges")
                .unwrap()
                .field(counters::TOTAL_SECONDS)
                .unwrap()
                .as_f64()
                .unwrap(),
            1.5
        );
    }
}
