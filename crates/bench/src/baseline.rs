//! Bench baselines: a small fixed grid subset recorded as
//! [`SMOKE`](crate::record::SMOKE) records and compared against a
//! committed reference, the data path behind CI's `bench-baseline` gate.
//!
//! The smoke grid is deliberately tiny (two networks × two GPU counts ×
//! two memory limits at β = 12 GB/s) so the job stays a couple of
//! minutes; it still crosses the memory-tight/roomy boundary where the
//! planners differ most.

use madpipe_json::{ToJson, Value};
use madpipe_model::PolicySpec;

use crate::grid::{Cell, CellResult, GridConfig};
use crate::record::SMOKE;

/// The key fields of `cell`: network, `P`, `M`, `β`, and the policy
/// only when non-default, so default-policy records keep the original
/// JSON shape.
fn cell_fields(cell: &Cell) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("network".into(), Value::Str(cell.network.clone())),
        ("p".into(), Value::UInt(cell.p as u64)),
        ("m_gb".into(), Value::UInt(cell.m_gb)),
        ("beta_gb".into(), Value::Float(cell.beta_gb)),
    ];
    if !cell.policy.is_default() {
        fields.push(("policy".into(), cell.policy.to_json()));
    }
    fields
}

/// One cell's [`SMOKE`] record: periods (`null` = infeasible), planning
/// seconds (both planners), the certification verdict and jitter margin
/// of the MadPipe plan. Planner stats stay out: they never gate, and
/// `bench-baseline --stats-json` writes them.
pub fn smoke_record(r: &CellResult) -> Value {
    let mut fields = cell_fields(&r.cell);
    fields.extend([
        ("madpipe".into(), r.madpipe.to_json()),
        ("pipedream".into(), r.pipedream.to_json()),
        ("planning_seconds".into(), Value::Float(r.planning_seconds)),
        (
            "certified".into(),
            r.certified.map_or(Value::Null, Value::Bool),
        ),
        ("jitter_margin".into(), r.jitter_margin.to_json()),
    ]);
    Value::Object(fields)
}

/// The fixed smoke subset CI measures: ResNet-50 and Inception-v3 on
/// `P ∈ {2, 4}`, `M ∈ {6, 10}` GB, `β = 12` GB/s — 8 cells.
pub fn smoke_grid() -> GridConfig {
    GridConfig {
        networks: vec!["resnet50".into(), "inception_v3".into()],
        p_values: vec![2, 4],
        m_values: vec![6, 10],
        beta_values: vec![12.0],
        batch: 8,
        image_size: 1000,
    }
}

/// The tight-memory policy-flip pair appended to the smoke grid: the
/// weight-dominated [`madpipe_dnn::networks::mlp12`] stack on 4 × 2 GB
/// GPUs. Under the paper's `3·W` model no partition fits (three weight
/// versions of three 268 MB blocks alone exceed 2 GB), so the default
/// cell gates as `Infeasible`; under `--recompute auto --weights 2bw`
/// the same platform point plans and certifies.
pub fn tight_cells() -> Vec<Cell> {
    let base = Cell {
        network: "mlp12".into(),
        p: 4,
        m_gb: 2,
        beta_gb: 12.0,
        policy: PolicySpec::default(),
    };
    let mut flipped = base.clone();
    flipped.policy = PolicySpec {
        recompute: madpipe_model::RecomputeMode::Auto,
        weights: madpipe_model::WeightPolicy::TwoBw,
    };
    vec![base, flipped]
}

/// Every cell `bench-baseline` runs: the smoke grid plus the
/// tight-memory policy-flip pair.
pub fn smoke_cells() -> Vec<Cell> {
    let mut cells = smoke_grid().cells();
    cells.extend(tight_cells());
    cells
}

/// Check the tight-memory policy flip on a finished run: the default
/// cell must be infeasible and its policy twin must plan *and* certify.
/// Returns human-readable violations (empty = the flip holds).
pub fn tight_cell_flip_violations(records: &[Value]) -> Vec<String> {
    let mut violations = Vec::new();
    for cell in tight_cells() {
        let key = SMOKE.key_of(&Value::Object(cell_fields(&cell)));
        let Some(r) = records.iter().find(|r| SMOKE.key_of(r) == key) else {
            violations.push(format!(
                "{}: tight cell missing from the run",
                cell.describe()
            ));
            continue;
        };
        let planned = !matches!(r.get("madpipe"), None | Some(Value::Null));
        if cell.policy.is_default() {
            if planned {
                violations.push(format!(
                    "{}: expected Infeasible under the default policy, got a plan",
                    cell.describe()
                ));
            }
        } else if !planned {
            violations.push(format!(
                "{}: expected a feasible plan under the policy axis",
                cell.describe()
            ));
        } else if r.get("certified") != Some(&Value::Bool(true)) {
            violations.push(format!(
                "{}: the flipped plan must certify (got {:?})",
                cell.describe(),
                r.get("certified")
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{compare, parse, render};

    fn record(network: &str, m: u64, madpipe: Option<f64>) -> Value {
        let cell = Cell {
            network: network.into(),
            p: 4,
            m_gb: m,
            beta_gb: 12.0,
            policy: PolicySpec::default(),
        };
        smoke_record(&CellResult {
            cell,
            sequential: 1.0,
            madpipe_estimate: madpipe,
            madpipe,
            pipedream_estimate: madpipe.map(|x| x * 1.2),
            pipedream: madpipe.map(|x| x * 1.2),
            planning_seconds: 0.5,
            stats: Default::default(),
            certified: madpipe.map(|_| true),
            jitter_margin: madpipe.map(|_| 0.11),
        })
    }

    fn set(r: &mut Value, field: &str, v: Value) {
        let Value::Object(fields) = r else {
            unreachable!("records are objects")
        };
        match fields.iter_mut().find(|(k, _)| k == field) {
            Some(slot) => slot.1 = v,
            None => fields.push((field.into(), v)),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let records = vec![
            record("resnet50", 6, Some(0.1037)),
            record("resnet50", 3, None),
        ];
        let parsed = parse(&render(&records), &SMOKE).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn stats_payload_round_trips_and_stays_optional() {
        // Older baselines embedded a `stats` payload per record: it still
        // parses and round-trips, and it never gates.
        let mut with = record("resnet50", 6, Some(0.1));
        set(
            &mut with,
            "stats",
            madpipe_core::PlannerStats::default().to_json(),
        );
        let records = vec![with, record("resnet50", 3, None)];
        let parsed = parse(&render(&records), &SMOKE).unwrap();
        assert_eq!(parsed, records);
        let stripped = vec![
            record("resnet50", 6, Some(0.1)),
            record("resnet50", 3, None),
        ];
        assert!(compare(&stripped, &records, &SMOKE).is_empty());
        assert!(!render(&stripped).contains("stats"));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        assert!(parse("{\"version\": 99, \"records\": []}", &SMOKE).is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let records = vec![record("resnet50", 6, Some(0.1))];
        assert!(compare(&records, &records, &SMOKE).is_empty());
    }

    #[test]
    fn period_drift_beyond_tolerance_is_flagged() {
        let base = vec![record("resnet50", 6, Some(0.100))];
        let mut cur = base.clone();
        set(&mut cur[0], "madpipe", Value::Float(0.108)); // +8% < 10%: fine
        assert!(compare(&cur, &base, &SMOKE).is_empty());
        set(&mut cur[0], "madpipe", Value::Float(0.115)); // +15% > 10%: violation
        let v = compare(&cur, &base, &SMOKE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("madpipe 0.115 drifted"), "{v:?}");
    }

    #[test]
    fn feasibility_flips_and_missing_cells_are_flagged() {
        let base = vec![
            record("resnet50", 6, Some(0.1)),
            record("resnet50", 3, None),
        ];
        let cur = vec![record("resnet50", 6, None)];
        let v = compare(&cur, &base, &SMOKE);
        assert!(v.iter().any(|x| x.contains("now infeasible")), "{v:?}");
        assert!(v.iter().any(|x| x.contains("missing from the current run")));
        assert!(v.iter().any(|x| x.contains("certified regressed")));
        // And the other way: an infeasible cell that now plans.
        let v = compare(&[record("resnet50", 3, Some(0.1))], &base[1..], &SMOKE);
        assert!(v.iter().any(|x| x.contains("now plans")), "{v:?}");
    }

    #[test]
    fn slow_planning_is_flagged_only_beyond_the_factor() {
        let base = vec![record("resnet50", 6, Some(0.1))];
        let mut cur = base.clone();
        set(&mut cur[0], "planning_seconds", Value::Float(2.0)); // 4x < 5x: fine
        assert!(compare(&cur, &base, &SMOKE).is_empty());
        set(&mut cur[0], "planning_seconds", Value::Float(3.0)); // 6x: violation
        let v = compare(&cur, &base, &SMOKE);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].contains("planning_seconds 3.000 over the limit"),
            "{v:?}"
        );
    }

    #[test]
    fn smoke_grid_is_small_and_fixed() {
        let g = smoke_grid();
        assert_eq!(g.cells().len(), 8);
        assert!(g.networks.contains(&"resnet50".to_string()));
        // Plus the tight-memory policy-flip pair.
        let cells = smoke_cells();
        assert_eq!(cells.len(), 10);
        let tight = tight_cells();
        assert!(tight[0].policy.is_default());
        assert!(!tight[1].policy.is_default());
        assert_eq!(tight[0].network, tight[1].network);
    }

    #[test]
    fn policy_records_round_trip_and_key_separately() {
        let mut flipped = record("mlp12", 2, Some(0.004));
        let policy = PolicySpec {
            recompute: madpipe_model::RecomputeMode::Auto,
            weights: madpipe_model::WeightPolicy::TwoBw,
        };
        set(&mut flipped, "policy", policy.to_json());
        let records = vec![record("mlp12", 2, None), flipped.clone()];
        let parsed = parse(&render(&records), &SMOKE).unwrap();
        assert_eq!(parsed, records);
        // Same platform point, different policy: distinct cells.
        assert_ne!(SMOKE.key_of(&parsed[0]), SMOKE.key_of(&parsed[1]));
        // Default-policy records keep the original JSON shape.
        assert!(!record("resnet50", 6, Some(0.1))
            .to_string_compact()
            .contains("policy"));
        assert!(flipped.to_string_compact().contains("policy"));
    }

    #[test]
    fn tight_cell_flip_gate_checks_both_sides() {
        let tight = tight_cells();
        let as_record = |cell: &Cell, madpipe: Option<f64>| {
            let mut r = record(&cell.network, cell.m_gb, madpipe);
            set(&mut r, "p", Value::UInt(cell.p as u64));
            if !cell.policy.is_default() {
                set(&mut r, "policy", cell.policy.to_json());
            }
            r
        };
        // The expected outcome: default infeasible, policy certified.
        let good = vec![
            as_record(&tight[0], None),
            as_record(&tight[1], Some(0.0037)),
        ];
        assert!(tight_cell_flip_violations(&good).is_empty());
        // Default side regresses to feasible: flagged.
        let bad = vec![
            as_record(&tight[0], Some(0.004)),
            as_record(&tight[1], Some(0.0037)),
        ];
        assert!(!tight_cell_flip_violations(&bad).is_empty());
        // Policy side fails to plan or certify: flagged.
        let bad = vec![as_record(&tight[0], None), as_record(&tight[1], None)];
        assert!(!tight_cell_flip_violations(&bad).is_empty());
        let mut uncert = as_record(&tight[1], Some(0.0037));
        set(&mut uncert, "certified", Value::Bool(false));
        let bad = vec![as_record(&tight[0], None), uncert];
        assert!(!tight_cell_flip_violations(&bad).is_empty());
        // Missing cells are flagged.
        assert_eq!(tight_cell_flip_violations(&[]).len(), 2);
    }
}
