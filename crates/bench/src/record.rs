//! Bench records: the one file format and the one comparator behind
//! every committed `BENCH_*.json` baseline, with every bound CI gates on
//! in the three suite tables below.
//!
//! A record is a flat JSON object; a file is the envelope
//! `{"version": 1, "records": [...]}` (other top-level fields, such as a
//! `comment`, are ignored). A [`Suite`] names the fields that identify a
//! record and the [`Gate`] each measured field is held to. [`compare`]
//! pairs current and committed records by key, applies the gates, and
//! reports records present on one side only.

use std::io;
use std::path::Path;

use madpipe_json::{JsonError, Value};

/// Format version of every `BENCH_*.json` file.
const VERSION: u64 = 1;

/// How a current value is held against its committed one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Exact match, bit for bit; `null` means infeasible.
    Bits,
    /// Relative drift of at most this fraction; `null` means infeasible,
    /// and a feasibility flip in either direction fails.
    Within(f64),
    /// At most `committed × factor + grace` (a committed 0 never gates).
    AtMost { factor: f64, grace: f64 },
    /// A committed `true` must stay `true`.
    StaysTrue,
    /// At least `max(grace, committed × factor)`.
    AtLeast { factor: f64, grace: f64 },
}

/// One baseline family: the fields that identify a record and the gate
/// each measured field is held to.
pub struct Suite {
    pub name: &'static str,
    pub key: &'static [&'static str],
    pub gates: &'static [(&'static str, Gate)],
}

/// `bench-baseline` against `BENCH_baseline.json`. Periods are
/// deterministic but gate at a relative tolerance; planning time is
/// hostage to the runner, so it gates only at a loose multiple.
pub const SMOKE: Suite = Suite {
    name: "smoke",
    key: &["network", "p", "m_gb", "beta_gb", "policy"],
    gates: &[
        ("madpipe", Gate::Within(0.10)),
        ("pipedream", Gate::Within(0.10)),
        ("certified", Gate::StaysTrue),
        (
            "planning_seconds",
            Gate::AtMost {
                factor: 5.0,
                grace: 0.0,
            },
        ),
    ],
};

/// `bench-plan-speed` against `BENCH_plan_speed.json`. Periods gate bit
/// for bit: any ulp of drift means the solver changed behaviour. DP time
/// gates at 1.25× plus 10 ms, since the fastest cells finish in ~10 ms,
/// where scheduler jitter alone exceeds any sane relative factor.
pub const PLAN_SPEED: Suite = Suite {
    name: "plan-speed",
    key: &["network", "p", "m_gb", "beta_gb"],
    gates: &[
        ("period_bits", Gate::Bits),
        (
            "dp_seconds",
            Gate::AtMost {
                factor: 1.25,
                grace: 0.010,
            },
        ),
    ],
};

/// `loadgen --floor` against `BENCH_serve_speed.json`: one record, no
/// key. The floor is generous on purpose: it catches a reactor that
/// stops pipelining or busy-spins, not a slow shared runner.
pub const SERVE_SPEED: Suite = Suite {
    name: "serve-speed",
    key: &[],
    gates: &[(
        "rps",
        Gate::AtLeast {
            factor: 0.02,
            grace: 150.0,
        },
    )],
};

impl Gate {
    /// Whether `v` is a committed value this gate can hold a run to.
    fn admits(&self, v: &Value) -> bool {
        let number =
            matches!(v, Value::UInt(_) | Value::Float(_)) && v.as_f64().is_ok_and(|x| x >= 0.0);
        match self {
            Gate::Bits => matches!(v, Value::UInt(_) | Value::Null),
            Gate::Within(_) => number || *v == Value::Null,
            Gate::StaysTrue => matches!(v, Value::Bool(_) | Value::Null),
            Gate::AtMost { .. } | Gate::AtLeast { .. } => number,
        }
    }

    /// The violation, if `current` fails against `committed`.
    fn check(&self, current: &Value, committed: &Value) -> Option<String> {
        let num = |v: &Value| v.as_f64().ok();
        match *self {
            Gate::Bits if current != committed => {
                let show = |v: &Value| match v.as_u64() {
                    Ok(bits) => format!("{:.17e} ({bits:#018x})", f64::from_bits(bits)),
                    Err(_) => "infeasible".to_string(),
                };
                Some(format!(
                    "not bit-identical: {} vs baseline {}",
                    show(current),
                    show(committed)
                ))
            }
            Gate::Within(rel) => match (num(current), num(committed)) {
                (Some(c), Some(b)) if (c - b).abs() / b > rel => Some(format!(
                    "{c} drifted {:.1}% from baseline {b} (tolerance {:.0}%)",
                    100.0 * (c - b).abs() / b,
                    100.0 * rel
                )),
                (None, Some(_)) => Some("planned in the baseline but is now infeasible".into()),
                (Some(_), None) => Some(
                    "was infeasible in the baseline but now plans (refresh the baseline)".into(),
                ),
                _ => None,
            },
            Gate::StaysTrue if *committed == Value::Bool(true) && *current != *committed => {
                Some(format!(
                    "regressed to {} from a true baseline",
                    current.to_string_compact()
                ))
            }
            Gate::AtMost { factor, grace } => {
                let (c, b) = (num(current)?, num(committed)?);
                let limit = b * factor + grace;
                (b > 0.0 && c > limit).then(|| {
                    format!("{c:.3} over the limit {limit:.3} (baseline {b:.3}, {self:?})")
                })
            }
            Gate::AtLeast { factor, grace } => {
                let (c, b) = (num(current)?, num(committed)?);
                let floor = (b * factor).max(grace);
                (c < floor).then(|| {
                    format!("{c:.1} below the floor {floor:.1} (baseline {b:.1}, {self:?})")
                })
            }
            _ => None,
        }
    }
}

impl Suite {
    /// The identity a record is paired by: its key fields, rendered.
    pub(crate) fn key_of(&self, record: &Value) -> Vec<String> {
        self.key
            .iter()
            .map(|k| record.get(k).unwrap_or(&Value::Null).to_string_compact())
            .collect()
    }

    fn describe(&self, record: &Value) -> String {
        let mut s = self.name.to_string();
        for k in self.key {
            match record.get(k) {
                None | Some(Value::Null) => {}
                Some(Value::Str(v)) => s.push_str(&format!(" {k}={v}")),
                Some(v) => s.push_str(&format!(" {k}={}", v.to_string_compact())),
            }
        }
        s
    }

    /// Check one committed record: an object with no non-finite number,
    /// whose every gated field is present and holds a value its gate
    /// admits (for the bound kinds, a non-negative number).
    fn validate(&self, record: &Value) -> Result<(), JsonError> {
        // JSON cannot carry a non-finite number back out, nor gate on one.
        if !matches!(record, Value::Object(_)) || !finite(record) {
            return Err(JsonError::new(format!(
                "{}: a record must be an object of finite numbers",
                self.name
            )));
        }
        for (field, gate) in self.gates {
            let v = record.field(field)?;
            if !gate.admits(v) {
                return Err(JsonError::new(format!(
                    "{}: field `{field}` holds {}, which {gate:?} cannot gate",
                    self.describe(record),
                    v.to_string_compact()
                )));
            }
        }
        Ok(())
    }
}

fn finite(v: &Value) -> bool {
    match v {
        Value::Float(x) => x.is_finite(),
        Value::Array(items) => items.iter().all(finite),
        Value::Object(fields) => fields.iter().all(|(_, v)| finite(v)),
        _ => true,
    }
}

/// Serialize `records` as a `BENCH_*.json` document.
pub(crate) fn render(records: &[Value]) -> String {
    Value::Object(vec![
        ("version".into(), Value::UInt(VERSION)),
        ("records".into(), Value::Array(records.to_vec())),
    ])
    .to_string_pretty()
}

/// Write `records` to `path`.
pub fn save(records: &[Value], path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, render(records))
}

/// Parse a `BENCH_*.json` document, checking every record against
/// `suite`.
pub fn parse(text: &str, suite: &Suite) -> Result<Vec<Value>, JsonError> {
    let doc = Value::parse(text)?;
    let version = doc.field("version")?.as_u64()?;
    if version != VERSION {
        return Err(JsonError::new(format!(
            "bench record version {version} (this build reads {VERSION})"
        )));
    }
    let records = doc.field("records")?.as_array()?;
    for r in records {
        suite.validate(r)?;
    }
    Ok(records.to_vec())
}

/// Load a `BENCH_*.json` document checked against `suite`.
pub fn load(path: impl AsRef<Path>, suite: &Suite) -> Result<Vec<Value>, String> {
    let path = path.as_ref();
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&text, suite).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Hold `current` to `committed` under `suite`. Returns one
/// human-readable line per violation (empty = pass): a record on one
/// side only, or a gated field failing its gate.
pub fn compare(current: &[Value], committed: &[Value], suite: &Suite) -> Vec<String> {
    let mut violations = Vec::new();
    for base in committed {
        let key = suite.key_of(base);
        let Some(cur) = current.iter().find(|c| suite.key_of(c) == key) else {
            violations.push(format!(
                "{}: missing from the current run",
                suite.describe(base)
            ));
            continue;
        };
        for (field, gate) in suite.gates {
            let value = |r: &Value| r.get(field).cloned().unwrap_or(Value::Null);
            if let Some(v) = gate.check(&value(cur), &value(base)) {
                violations.push(format!("{}: {field} {v}", suite.describe(base)));
            }
        }
    }
    for cur in current {
        let key = suite.key_of(cur);
        if !committed.iter().any(|b| suite.key_of(b) == key) {
            violations.push(format!(
                "{}: not in the baseline (refresh it)",
                suite.describe(cur)
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: Suite = Suite {
        name: "test",
        key: &["id"],
        gates: &[("x", Gate::Within(0.10))],
    };

    fn rec(fields: &[(&str, Value)]) -> Value {
        Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    fn holds(gate: Gate, current: Value, committed: Value) -> bool {
        gate.check(&current, &committed).is_none()
    }

    #[test]
    fn bits_gate_flags_one_ulp_and_feasibility_flips() {
        let bits = 0.1f64.to_bits();
        assert!(holds(Gate::Bits, Value::UInt(bits), Value::UInt(bits)));
        assert!(holds(Gate::Bits, Value::Null, Value::Null));
        let v = Gate::Bits
            .check(&Value::UInt(bits + 1), &Value::UInt(bits))
            .unwrap();
        assert!(v.contains("not bit-identical"), "{v}");
        let v = Gate::Bits.check(&Value::UInt(bits), &Value::Null).unwrap();
        assert!(v.contains("infeasible"), "{v}");
        assert!(!holds(Gate::Bits, Value::Null, Value::UInt(bits)));
    }

    #[test]
    fn within_gate_bounds_drift_and_flags_flips_both_ways() {
        let g = Gate::Within(0.10);
        assert!(holds(g, Value::Float(0.108), Value::Float(0.1)));
        assert!(holds(g, Value::Float(0.092), Value::Float(0.1)));
        assert!(!holds(g, Value::Float(0.115), Value::Float(0.1)));
        assert!(holds(g, Value::Null, Value::Null));
        let v = g.check(&Value::Null, &Value::Float(0.1)).unwrap();
        assert!(v.contains("now infeasible"), "{v}");
        let v = g.check(&Value::Float(0.1), &Value::Null).unwrap();
        assert!(v.contains("now plans"), "{v}");
    }

    #[test]
    fn at_most_gate_applies_factor_and_grace() {
        let g = Gate::AtMost {
            factor: 1.25,
            grace: 0.010,
        };
        assert!(holds(g, Value::Float(0.48), Value::Float(0.4)));
        assert!(!holds(g, Value::Float(0.55), Value::Float(0.4)));
        // 10 ms cell: 1.9x is inside 1.25x + 10 ms, 2.3x is not.
        assert!(holds(g, Value::Float(0.019), Value::Float(0.010)));
        assert!(!holds(g, Value::Float(0.023), Value::Float(0.010)));
        // A committed zero never gates.
        assert!(holds(g, Value::Float(9.0), Value::Float(0.0)));
    }

    #[test]
    fn stays_true_gate_flags_only_a_lost_true() {
        let t = Value::Bool(true);
        assert!(holds(Gate::StaysTrue, t.clone(), t.clone()));
        assert!(holds(Gate::StaysTrue, Value::Null, Value::Bool(false)));
        assert!(holds(Gate::StaysTrue, t.clone(), Value::Null));
        let v = Gate::StaysTrue.check(&Value::Null, &t).unwrap();
        assert!(v.contains("regressed"), "{v}");
        assert!(!holds(Gate::StaysTrue, Value::Bool(false), t));
    }

    #[test]
    fn at_least_floor_takes_the_larger_of_relative_and_grace() {
        let g = Gate::AtLeast {
            factor: 0.1,
            grace: 50.0,
        };
        // Relative term dominates: 0.1 × 1000 = 100 > 50.
        assert!(holds(g, Value::Float(100.0), Value::Float(1000.0)));
        let v = g.check(&Value::Float(99.0), &Value::Float(1000.0)).unwrap();
        assert!(v.contains("below the floor 100.0"), "{v}");
        // Grace dominates: 0.1 × 100 = 10 < 50.
        assert!(holds(g, Value::Float(50.0), Value::Float(100.0)));
        let v = g.check(&Value::Float(49.0), &Value::Float(100.0)).unwrap();
        assert!(v.contains("below the floor 50.0"), "{v}");
    }

    #[test]
    fn compare_pairs_by_key_and_flags_missing_and_extra_records() {
        let a = rec(&[("id", Value::UInt(1)), ("x", Value::Float(1.0))]);
        let b = rec(&[("id", Value::UInt(2)), ("x", Value::Float(1.0))]);
        let c = rec(&[("id", Value::UInt(3)), ("x", Value::Float(1.0))]);
        assert!(compare(&[a.clone(), b.clone()], &[b.clone(), a.clone()], &SUITE).is_empty());
        let v = compare(&[a.clone(), c], &[a, b], &SUITE);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("test id=2: missing from the current run"));
        assert!(v[1].starts_with("test id=3: not in the baseline"));
    }

    #[test]
    fn parse_rejects_a_gated_number_missing_non_finite_or_negative() {
        let doc = |x: &str| format!(r#"{{"version": 1, "records": [{{"id": 1{x}}}]}}"#);
        assert!(parse(&doc(r#", "x": 0.5"#), &SUITE).is_ok());
        assert!(parse(&doc(r#", "x": null"#), &SUITE).is_ok(), "infeasible");
        assert!(parse(&doc(""), &SUITE).is_err(), "missing");
        assert!(parse(&doc(r#", "x": -0.5"#), &SUITE).is_err(), "negative");
        assert!(
            parse(&doc(r#", "x": 1e999"#), &SUITE).is_err(),
            "non-finite"
        );
        assert!(
            parse(&doc(r#", "x": "fast""#), &SUITE).is_err(),
            "not a number"
        );
        let nested = doc(r#", "x": 0.5, "tag": {"y": [1e999]}"#);
        assert!(parse(&nested, &SUITE).is_err(), "non-finite anywhere");
        assert!(parse(r#"{"version": 1, "records": [7]}"#, &SUITE).is_err());
    }

    #[test]
    fn envelope_round_trips_and_checks_its_version() {
        let records = vec![rec(&[("id", Value::UInt(1)), ("x", Value::Float(0.1037))])];
        assert_eq!(parse(&render(&records), &SUITE).unwrap(), records);
        assert!(parse(r#"{"version": 99, "records": []}"#, &SUITE).is_err());
    }
}
