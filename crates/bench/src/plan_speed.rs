//! Plan-speed benchmark: MadPipe planning time over the fig6 grid,
//! recorded as [`PLAN_SPEED`] records and gated against a committed
//! reference — the data path behind CI's `bench-plan-speed` job.
//!
//! Periods gate bit for bit, stored as raw IEEE-754 bits so the JSON
//! round trip and the gate are exact by construction. Time gates on the
//! *DP portion* of planning (phase 1 bisection + contiguous fallback +
//! refinement), because that is what the dense memo / branch-and-bound
//! work accelerates; phase-2 scheduling is untouched by it and would
//! dilute the signal. The per-cell numbers are medians over repeats.

use std::path::Path;
use std::time::Instant;

use madpipe_core::{madpipe_plan_with_stats, PlannerConfig};
use madpipe_json::{JsonError, ToJson, Value};
use madpipe_model::Platform;

use crate::grid::{paper_chains, GridConfig};
use crate::record::{self, PLAN_SPEED};

/// One cell's plan-speed measurement: a typed view of a [`PLAN_SPEED`]
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpeedRecord {
    pub network: String,
    pub p: usize,
    pub m_gb: u64,
    pub beta_gb: f64,
    /// Median DP seconds across repeats: `phase1 + fallback + refine`
    /// from the planner's phase clocks.
    pub dp_seconds: f64,
    /// Median end-to-end planning seconds across repeats (includes the
    /// phase-2 scheduler; informational, not gated).
    pub total_seconds: f64,
    /// Raw IEEE-754 bits of the achieved period (`None` = infeasible).
    pub period_bits: Option<u64>,
}

impl PlanSpeedRecord {
    /// Identity of the cell this record measures.
    pub fn key(&self) -> (String, usize, u64, u64) {
        (
            self.network.clone(),
            self.p,
            self.m_gb,
            self.beta_gb.to_bits(),
        )
    }

    /// The achieved period as a float (for display only).
    pub fn period(&self) -> Option<f64> {
        self.period_bits.map(f64::from_bits)
    }

    fn from_record(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            network: v.field("network")?.as_str()?.to_string(),
            p: v.field("p")?.as_u64()? as usize,
            m_gb: v.field("m_gb")?.as_u64()?,
            beta_gb: v.field("beta_gb")?.as_f64()?,
            dp_seconds: v.field("dp_seconds")?.as_f64()?,
            total_seconds: v.field("total_seconds")?.as_f64()?,
            period_bits: v.field("period_bits")?.as_u64().ok(),
        })
    }
}

impl ToJson for PlanSpeedRecord {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("network".into(), Value::Str(self.network.clone())),
            ("p".into(), Value::UInt(self.p as u64)),
            ("m_gb".into(), Value::UInt(self.m_gb)),
            ("beta_gb".into(), Value::Float(self.beta_gb)),
            ("dp_seconds".into(), Value::Float(self.dp_seconds)),
            ("total_seconds".into(), Value::Float(self.total_seconds)),
            ("period_bits".into(), self.period_bits.to_json()),
        ])
    }
}

/// Load a `BENCH_plan_speed.json` document.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<PlanSpeedRecord>, String> {
    record::load(&path, &PLAN_SPEED)?
        .iter()
        .map(PlanSpeedRecord::from_record)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("parsing {}: {e}", path.as_ref().display()))
}

/// The measured grid: ResNet-50 over the quick-grid pattern
/// (`P ∈ {2, 4, 8}`, `M ∈ {3, 4, 6, 8, 10, 12, 16}` GB,
/// `β ∈ {12, 24}` GB/s) — 42 cells, the single-network slice of the
/// fig6 sweep. One network keeps the job a couple of minutes while
/// still crossing every memory regime the DP cares about.
pub fn plan_speed_grid() -> GridConfig {
    GridConfig {
        networks: vec!["resnet50".into()],
        ..GridConfig::quick()
    }
}

/// Run the plan-speed grid: every cell planned `repeats` times on a
/// cold session, medians recorded. Panics if repeats is 0 or a cell's
/// period is not bit-identical across its own repeats (that would mean
/// the planner went non-deterministic, which no baseline can gate).
pub fn run_plan_speed(
    cfg: &GridConfig,
    planner: &PlannerConfig,
    repeats: usize,
) -> Vec<PlanSpeedRecord> {
    assert!(repeats > 0, "plan-speed needs at least one repeat");
    let chains = paper_chains(cfg);
    let mut out = Vec::new();
    for (chain, network) in chains.iter().zip(&cfg.networks) {
        for cell in cfg.cells().iter().filter(|c| &c.network == network) {
            let platform =
                Platform::gb(cell.p, cell.m_gb, cell.beta_gb).expect("valid grid platform");
            let mut dp_times = Vec::with_capacity(repeats);
            let mut totals = Vec::with_capacity(repeats);
            let mut bits: Option<Option<u64>> = None;
            for _ in 0..repeats {
                let wall = Instant::now();
                let (plan, stats) = madpipe_plan_with_stats(chain, &platform, planner);
                let total = wall.elapsed().as_secs_f64();
                let dp = stats.phase1_seconds() + stats.fallback_seconds() + stats.refine_seconds();
                let these = plan.ok().map(|p| p.period().to_bits());
                match &bits {
                    None => bits = Some(these),
                    Some(prev) => assert_eq!(
                        *prev, these,
                        "{} P={} M={}GB: period changed across repeats",
                        cell.network, cell.p, cell.m_gb
                    ),
                }
                dp_times.push(dp);
                totals.push(total);
            }
            out.push(PlanSpeedRecord {
                network: cell.network.clone(),
                p: cell.p,
                m_gb: cell.m_gb,
                beta_gb: cell.beta_gb,
                dp_seconds: median(&mut dp_times),
                total_seconds: median(&mut totals),
                period_bits: bits.expect("repeats > 0"),
            });
        }
    }
    out
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{compare, parse, render};

    fn record(p: usize, m: u64, period: Option<f64>, dp: f64) -> PlanSpeedRecord {
        PlanSpeedRecord {
            network: "resnet50".into(),
            p,
            m_gb: m,
            beta_gb: 12.0,
            dp_seconds: dp,
            total_seconds: dp * 2.0,
            period_bits: period.map(f64::to_bits),
        }
    }

    /// Gate typed records under the plan-speed suite.
    fn check(current: &[PlanSpeedRecord], committed: &[PlanSpeedRecord]) -> Vec<String> {
        let json = |rs: &[PlanSpeedRecord]| rs.iter().map(ToJson::to_json).collect::<Vec<_>>();
        compare(&json(current), &json(committed), &PLAN_SPEED)
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let records = vec![
            record(4, 6, Some(0.103_712_345_678_9), 0.42),
            record(4, 3, None, 0.01),
        ];
        let json: Vec<Value> = records.iter().map(ToJson::to_json).collect();
        let parsed: Vec<PlanSpeedRecord> = parse(&render(&json), &PLAN_SPEED)
            .unwrap()
            .iter()
            .map(|v| PlanSpeedRecord::from_record(v).unwrap())
            .collect();
        assert_eq!(parsed, records);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        assert!(parse("{\"version\": 99, \"records\": []}", &PLAN_SPEED).is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let records = vec![record(4, 6, Some(0.1), 0.4)];
        assert!(check(&records, &records).is_empty());
    }

    #[test]
    fn a_single_ulp_of_period_drift_is_flagged() {
        let base = vec![record(4, 6, Some(0.1), 0.4)];
        let mut cur = base.clone();
        cur[0].period_bits = cur[0].period_bits.map(|b| b + 1);
        let v = check(&cur, &base);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("not bit-identical"));
    }

    #[test]
    fn feasibility_flips_are_period_violations() {
        let base = vec![record(4, 3, None, 0.01)];
        let mut cur = base.clone();
        cur[0].period_bits = Some(0.2f64.to_bits());
        let v = check(&cur, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("infeasible"));
    }

    #[test]
    fn slow_dp_is_flagged_only_beyond_the_factor() {
        let base = vec![record(4, 6, Some(0.1), 0.4)];
        let mut cur = base.clone();
        cur[0].dp_seconds = 0.48; // 1.2x < 1.25x: fine
        assert!(check(&cur, &base).is_empty());
        cur[0].dp_seconds = 0.55; // 1.375x: violation
        let v = check(&cur, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("dp_seconds 0.550 over the limit"), "{v:?}");
        // The 10 ms grace: a 10 ms cell may take 19 ms, not 23 ms.
        let base = vec![record(4, 6, Some(0.1), 0.010)];
        let mut cur = base.clone();
        cur[0].dp_seconds = 0.019;
        assert!(check(&cur, &base).is_empty());
        cur[0].dp_seconds = 0.023;
        assert_eq!(check(&cur, &base).len(), 1);
    }

    #[test]
    fn missing_and_extra_cells_are_flagged() {
        let base = vec![record(4, 6, Some(0.1), 0.4), record(8, 6, Some(0.2), 0.5)];
        let cur = vec![record(4, 6, Some(0.1), 0.4), record(2, 6, Some(0.3), 0.3)];
        let v = check(&cur, &base);
        assert!(v.iter().any(|x| x.contains("missing from the current run")));
        assert!(v.iter().any(|x| x.contains("not in the baseline")));
    }

    #[test]
    fn plan_speed_grid_is_the_single_network_fig6_slice() {
        let g = plan_speed_grid();
        assert_eq!(g.networks, vec!["resnet50".to_string()]);
        assert_eq!(g.cells().len(), 3 * 7 * 2);
    }

    #[test]
    fn medians_are_order_free() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn run_measures_a_tiny_cell_deterministically() {
        // One micro cell, twice: times recorded, periods bit-stable.
        let cfg = GridConfig {
            networks: vec!["resnet50".into()],
            p_values: vec![2],
            m_values: vec![8],
            beta_values: vec![12.0],
            batch: 1,
            image_size: 100,
        };
        let planner = PlannerConfig {
            algorithm1: madpipe_core::Algorithm1Config {
                iterations: 4,
                discretization: madpipe_core::Discretization::coarse(),
                use_special: true,
            },
            refine_probes: 0,
            ..PlannerConfig::default()
        };
        let records = run_plan_speed(&cfg, &planner, 2);
        assert_eq!(records.len(), 1);
        assert!(records[0].period_bits.is_some());
        assert!(records[0].dp_seconds > 0.0);
        assert!(records[0].total_seconds >= records[0].dp_seconds);
    }
}
