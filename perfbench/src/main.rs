//! `perfbench` — the repository's benchmark for planning and serving.
//!
//! ```text
//! bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//! `plan-fig6` plans the 42-cell ResNet-50 fig6 slice in-process;
//! `serve-hot`, `serve-cold` and `serve-routed` drive real `madpipe
//! serve` / `madpipe route` processes over TCP. Every input is generated
//! from `--seed`. With `--trace 0` the last stdout line is a JSON object
//! carrying every end-to-end metric; with `--trace 1` a separate traced
//! run reports every per-layer metric instead (0 where the workload does
//! not exercise that layer) and writes its spans to `--out-dir`. Any
//! wrong output makes the run exit nonzero.

mod calib;
mod plan;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Per-layer metrics every traced run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.algorithm1.phase1_s", "s"),
    ("core.algorithm1.fallback_s", "s"),
    ("core.dp.refine_s", "s"),
    ("core.dp.states", "count"),
    ("core.dp.probes", "count"),
    ("core.dp.probes_saved_ratio", "ratio"),
    ("core.planner.self_s", "s"),
    ("solver.search_s", "s"),
    ("solver.search.calls", "count"),
    ("schedule.contiguous_s", "s"),
    ("schedule.contiguous.calls", "count"),
    ("solver.candidates", "count"),
    ("solver.improving_ratio", "ratio"),
    ("schedule.check_ms", "ms"),
    ("plan.period_gmean_ms", "ms"),
    ("json.parse_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.canonical_us", "us"),
    ("serve.protocol.plan_json_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.journal.append_us", "us"),
    ("serve.reactor.ping_us", "us"),
    ("serve.queue.wait_p50_ms", "ms"),
    ("serve.queue.wait_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.error_ratio", "ratio"),
    ("router.hop_us", "us"),
    ("router.forwards", "count"),
    ("router.failovers", "count"),
    ("serve.gossip.applied", "count"),
    ("serve.gossip.warm_ratio", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.gen_lag_max_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured time per run, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// The `madpipe` binary the serve workloads launch.
    pub madpipe: PathBuf,
    /// Scratch directory for journals, daemon logs and span dumps.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        madpipe: PathBuf::from("madpipe"),
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--madpipe" => args.madpipe = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One run's result: the correctness verdict, request accounting and
/// metrics by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness-check failures; the run is correct when empty.
    pub wrong: Vec<String>,
    pub attempted: u64,
    /// Attempted requests or plans not answered `ok`.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.insert(name, value);
    }

    pub fn fail_check(&mut self, why: String) {
        eprintln!("perfbench: WRONG: {why}");
        self.wrong.push(why);
    }

    /// The result line. Traced runs fill per-layer metrics their
    /// workload does not exercise with 0; an end-to-end metric the
    /// workload failed to measure is an error.
    fn to_json(&self, traced: bool) -> Result<String, String> {
        use madpipe_json::Value;
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                None if traced => 0.0,
                other => return Err(format!("metric {name} not measured: {other:?}")),
            };
            metrics.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            ));
        }
        Ok(Value::Object(vec![
            ("correct".into(), Value::Bool(self.wrong.is_empty())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_string_compact())
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed always generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Write the traced run's spans under `--out-dir`.
pub fn dump_trace(args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "plan-fig6" => plan::run(&args),
        "serve-hot" | "serve-cold" | "serve-routed" => serve::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (plan-fig6, serve-hot, serve-cold, serve-routed)"
        )),
    };
    match result.and_then(|r| r.to_json(args.trace).map(|line| (r, line))) {
        Ok((report, line)) => {
            println!("{line}");
            if !report.wrong.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables must match the names and units `BENCHMARK.json`
    /// declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = madpipe_json::Value::parse(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .field(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.field("name").unwrap().as_str().unwrap().to_string(),
                        m.field("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert!(a.below(7) < 7);
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
            b.below(7);
            b.unit();
        }
        let mut v: Vec<u32> = (0..20).collect();
        Rng::new(9).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
