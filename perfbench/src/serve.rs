//! The serve workloads. Each runs real `madpipe serve` (and, for
//! `serve-cold` and `serve-routed`, `madpipe route`) processes and
//! drives them from this process over TCP: at most two generator
//! threads, one connection each, one request in flight per connection.
//!
//! An untraced run measures set-up (repeated, median reported), then
//! six rounds of: a block of the open-loop phase at the workload's
//! nominal rate (`p50_ms`, `p99_ms`, charged from each request's
//! scheduled send time), a closed-loop pass over a fresh batch (`wall_s`,
//! the mean pass), and the next rung of a search over a fixed rate
//! ladder (`max_rps`); rungs the search still needs follow. The
//! closed-loop responses feed the byte-identity check against offline
//! planning, which runs after every timed phase.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use madpipe_bench::loadgen::{fetch_metrics, request_lines};
use madpipe_core::{madpipe_plan, MadPipePlan};
use madpipe_dnn::{random_chain, RandomChainConfig};
use madpipe_json::Value;
use madpipe_model::{Chain, Platform};
use madpipe_serve::protocol::{
    canonical_instance, parse_line, parse_request, plan_response, plan_to_json, PlanRequest,
    Request,
};
use madpipe_serve::{Journal, PlanCache, Ring};

use crate::calib::Timeline;
use crate::plan::{check_plan, planner_layers, ratio, redrive, PlannerCounts};
use crate::stats::{self, gmean, median, tail, Rung};
use crate::trace::Tracer;
use crate::{vm_hwm_mb, Args, Report, Rng};

const GIB: u64 = 1 << 30;
/// Share of `--seconds` spent in the nominal open-loop phase, and in each
/// ladder rung the search measures (three to six of them near a good
/// start).
const NOMINAL_SHARE: f64 = 0.55;
const RUNG_SHARE: f64 = 0.08;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Reference-kernel timings before each set-up and measured piece.
const MARK_REPS: usize = 5;
/// Measurement rounds per run (see [`run`]); `wall_s` is the mean of
/// one closed-loop pass per round.
const ROUNDS: usize = 6;
/// Generator threads = connections: two, one per core of a 2-vCPU host.
const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Cold,
    Routed,
}

/// Fixed parameters of one serve workload.
struct Spec {
    kind: Kind,
    /// Open-loop rate of the nominal phase, and the base of the ladder:
    /// a fraction of the workload's measured capacity (the median
    /// `max_rps` over several seeds on the 2-vCPU reference host,
    /// rounded), so the nominal latencies measure service more than
    /// queueing.
    nominal_rps: f64,
    /// Limit on the tail latency for a ladder rung to pass.
    limit_ms: f64,
    /// The ladder: `nominal_rps · ladder_step^k`, `k = ladder_from..=ladder_top`.
    /// It reaches about half the nominal rate, so a stall-heavy run still
    /// finds a passing rung below nominal.
    ladder_step: f64,
    ladder_from: i32,
    ladder_top: i32,
    /// The rung `k` the search starts from: the measured capacity the
    /// nominal rate was derived from.
    ladder_start: i32,
    /// Requests in each closed-loop `wall_s` pass.
    wall_requests: usize,
    /// Served plans byte-checked against offline planning (all distinct
    /// hot lines for serve-hot).
    check_sample: usize,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "serve-hot" => Spec {
            kind: Kind::Hot,
            // Not gated; a round rate below its capacity.
            nominal_rps: 3000.0,
            limit_ms: 10.0,
            ladder_step: 1.08,
            ladder_from: -8,
            ladder_top: 24,
            ladder_start: 14,
            wall_requests: 2000,
            check_sample: usize::MAX,
        },
        "serve-cold" => Spec {
            kind: Kind::Cold,
            // A quarter of its capacity, 56/s: at a third, a slower host
            // queued requests and raised the tail far more than the host
            // slowdown.
            nominal_rps: 14.0,
            limit_ms: 400.0,
            // Steps of 4%: one rung either way moves `max_rps` little.
            ladder_step: 1.04,
            ladder_from: -16,
            ladder_top: 56,
            ladder_start: 35,
            wall_requests: 64,
            check_sample: 8,
        },
        _ => Spec {
            kind: Kind::Routed,
            // A third of its capacity, 2220/s.
            nominal_rps: 740.0,
            limit_ms: 100.0,
            ladder_step: 1.08,
            ladder_from: -8,
            ladder_top: 24,
            ladder_start: 14,
            wall_requests: 1000,
            check_sample: 16,
        },
    }
}

/// Hot-set size for serve-hot (well under the daemon's 256-entry cache).
const HOT_SET: usize = 48;
/// Popular pool for serve-routed, warmed during set-up.
const ROUTED_POOL: usize = 128;
/// Zipf exponent of serve-routed's popularity skew: YCSB's default
/// "zipfian" request distribution constant (Cooper et al., "Benchmarking
/// Cloud Serving Systems with YCSB", SoCC 2010).
const ROUTED_ZIPF: f64 = 0.99;
/// Share of serve-routed requests that name a never-seen instance. An
/// assumption (no public trace of plan requests exists), spaced evenly
/// so every window of the stream carries the same share.
const ROUTED_MISS_SHARE: f64 = 0.03;
/// How often the daemons of serve-cold and serve-routed gossip their
/// most recently used cache entries to each other.
const GOSSIP_MS: u64 = 200;
/// serve-cold's per-daemon cache capacity: far below the requests it
/// receives.
const COLD_CACHE_ENTRIES: usize = 64;
/// serve-routed's cache capacity: above every instance one run sends, so
/// the pool is never evicted and the miss share stays the first-time 3%.
const ROUTED_CACHE_ENTRIES: usize = 8192;

/// A `plan` request line for `chain` on `platform`, in byte units.
fn plan_line(chain: &Chain, platform: &Platform) -> Arc<str> {
    Value::Object(vec![
        ("cmd".into(), Value::Str("plan".into())),
        ("chain".into(), madpipe_json::ToJson::to_json(chain)),
        (
            "platform".into(),
            Value::Object(vec![
                ("n_gpus".into(), Value::UInt(platform.n_gpus as u64)),
                ("memory_bytes".into(), Value::UInt(platform.memory_bytes)),
                ("bandwidth_bytes".into(), Value::Float(platform.bandwidth)),
            ]),
        ),
    ])
    .to_string_compact()
    .into()
}

fn platform(gpus: usize, memory_gb: u64) -> Platform {
    Platform::new(gpus, memory_gb * GIB, 12.0 * GIB as f64).expect("static platform")
}

/// serve-hot instance `i` of the hot set: chain lengths log-spaced from
/// 8 to 64 layers so line sizes span about 8×. Long chains plan on one
/// GPU so planning the set stays cheap; the planner is idle once warm.
fn hot_line(seed: u64, i: usize) -> Arc<str> {
    let layers = (8.0 * 8f64.powf(i as f64 / (HOT_SET - 1) as f64)).round() as usize;
    let cfg = RandomChainConfig {
        layers,
        forward_range: (0.5e-3, 5e-3),
        weight_range: (1 << 16, 1 << 20),
        activation_range: (1 << 20, 64 << 20),
        cnn_profile: false,
    };
    let chain = random_chain(&cfg, seed ^ (i as u64).wrapping_mul(0x51_7CC1_B727_220A));
    plan_line(&chain, &platform(if layers <= 16 { 2 } else { 1 }, 16))
}

/// serve-cold request `i`: a fresh 12–16-layer CNN-profile chain on 4
/// GPUs (layer count cycles so every run sees the same mix).
fn cold_line(seed: u64, i: u64) -> Arc<str> {
    let cfg = RandomChainConfig {
        layers: 12 + (i % 5) as usize,
        forward_range: (0.5e-3, 5e-3),
        weight_range: (1 << 16, 1 << 20),
        activation_range: (1 << 20, 64 << 20),
        cnn_profile: true,
    };
    let chain = random_chain(&cfg, seed.wrapping_mul(0x9E37_79B9).wrapping_add(i));
    plan_line(&chain, &platform(4, 2))
}

/// serve-routed instances `first..first + n`: the serve-speed load
/// generator's 8-layer chains on 4 GPUs. Pool members and first-time
/// misses come from disjoint index ranges.
fn routed_lines(seed: u64, first: u64, n: usize) -> Vec<Arc<str>> {
    let base = seed.wrapping_mul(0x2545_F491).wrapping_add(first);
    request_lines(n, base).into_iter().map(Arc::from).collect()
}

/// The workload's request stream, generated from the seed.
struct Source {
    kind: Kind,
    seed: u64,
    rng: Rng,
    /// serve-hot's hot set, or serve-routed's popular pool.
    pool: Vec<Arc<str>>,
    /// Zipf cumulative weights over `pool` (serve-routed).
    zipf: Vec<f64>,
    next_fresh: u64,
    /// Requests drawn so far (places serve-routed's misses).
    drawn: u64,
}

impl Source {
    fn new(kind: Kind, seed: u64) -> Self {
        let pool: Vec<Arc<str>> = match kind {
            Kind::Hot => (0..HOT_SET).map(|i| hot_line(seed, i)).collect(),
            Kind::Cold => Vec::new(),
            Kind::Routed => routed_lines(seed, 0, ROUTED_POOL),
        };
        let mut zipf = Vec::new();
        let mut acc = 0.0;
        for r in 1..=pool.len() {
            acc += 1.0 / (r as f64).powf(ROUTED_ZIPF);
            zipf.push(acc);
        }
        Self {
            kind,
            seed,
            rng: Rng::new(seed ^ 0xA076_1D64_78BD_642F),
            pool,
            zipf,
            next_fresh: 0,
            drawn: 0,
        }
    }

    fn fresh(&mut self) -> Arc<str> {
        self.next_fresh += 1;
        match self.kind {
            Kind::Cold => cold_line(self.seed, self.next_fresh),
            _ => routed_lines(self.seed, (1 << 32) + self.next_fresh, 1).remove(0),
        }
    }

    fn next(&mut self) -> Arc<str> {
        self.drawn += 1;
        match self.kind {
            Kind::Hot => self.pool[self.rng.below(self.pool.len() as u64) as usize].clone(),
            Kind::Cold => self.fresh(),
            Kind::Routed => {
                let misses = |n: u64| (n as f64 * ROUTED_MISS_SHARE).floor();
                if misses(self.drawn) > misses(self.drawn - 1) {
                    return self.fresh();
                }
                let u = self.rng.unit() * self.zipf.last().expect("non-empty pool");
                let i = self.zipf.partition_point(|&c| c <= u);
                self.pool[i.min(self.pool.len() - 1)].clone()
            }
        }
    }

    fn take(&mut self, n: usize) -> Vec<Arc<str>> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// A `madpipe serve` or `madpipe route` child process.
struct Proc {
    child: Child,
    /// Kept open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Proc {
    /// Launch and wait for the line announcing the bound address.
    fn spawn(args: &Args, argv: &[String], log: PathBuf) -> Result<Proc, String> {
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(&args.madpipe)
            .args(argv)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("launching {}: {e}", args.madpipe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("listening on ")
            .or_else(|| line.strip_prefix("routing on "))
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "madpipe {} did not come up (see {})",
                argv.join(" "),
                log.display()
            ));
        };
        Ok(Proc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Ask the process to drain and wait for it to exit (killing it
    /// after ten seconds).
    fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.call(r#"{"cmd":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("{} did not drain within 10 s", self.addr));
                }
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Error paths: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemons and (serve-cold, serve-routed) the router in front of
/// them.
struct Cluster {
    daemons: Vec<Proc>,
    router: Option<Proc>,
    /// serve-cold's journals, removed once the daemons have stopped.
    journals: Vec<PathBuf>,
}

impl Cluster {
    fn start(args: &Args, kind: Kind, rep: usize) -> Result<Cluster, String> {
        let dir = &args.out_dir;
        let log =
            |name: &str| dir.join(format!("{}-{}-{name}-{rep}.log", args.workload, args.seed));
        let s = |v: &str| v.to_string();
        let serve = |addr: String| vec![s("serve"), s("--addr"), addr, s("--threads"), s("2")];
        if kind == Kind::Hot {
            let daemon = Proc::spawn(args, &serve(s("127.0.0.1:0")), log("daemon"))?;
            return Ok(Cluster {
                daemons: vec![daemon],
                router: None,
                journals: Vec::new(),
            });
        }
        // A router in front of two gossiping daemons. Gossip peers must
        // be named up front: reserve two ports.
        let ports: Vec<String> = {
            let listeners = [
                TcpListener::bind("127.0.0.1:0"),
                TcpListener::bind("127.0.0.1:0"),
            ];
            let mut ports = Vec::new();
            for l in listeners {
                let l = l.map_err(|e| format!("reserving a port: {e}"))?;
                ports.push(l.local_addr().map_err(|e| e.to_string())?.to_string());
            }
            ports
        };
        let mut daemons = Vec::new();
        let mut journals = Vec::new();
        for (i, addr) in ports.iter().enumerate() {
            let mut argv = serve(addr.clone());
            argv.extend([
                s("--peers"),
                ports[1 - i].clone(),
                s("--gossip-ms"),
                GOSSIP_MS.to_string(),
            ]);
            match kind {
                Kind::Cold => {
                    let path = dir.join(format!(
                        "{}-{}-journal{i}-{rep}.jsonl",
                        args.workload, args.seed
                    ));
                    let _ = std::fs::remove_file(&path);
                    argv.extend([
                        s("--cache-entries"),
                        COLD_CACHE_ENTRIES.to_string(),
                        s("--journal"),
                        path.display().to_string(),
                    ]);
                    journals.push(path);
                }
                _ => argv.extend([s("--cache-entries"), ROUTED_CACHE_ENTRIES.to_string()]),
            }
            daemons.push(Proc::spawn(args, &argv, log(&format!("daemon{i}")))?);
        }
        let argv = [
            s("route"),
            s("--addr"),
            s("127.0.0.1:0"),
            s("--backends"),
            ports.join(","),
        ];
        let router = Some(Proc::spawn(args, &argv, log("router"))?);
        Ok(Cluster {
            daemons,
            router,
            journals,
        })
    }

    /// Where clients connect.
    fn entry(&self) -> &str {
        &self.router.as_ref().unwrap_or(&self.daemons[0]).addr
    }

    fn backends(&self) -> Vec<String> {
        self.daemons.iter().map(|d| d.addr.clone()).collect()
    }

    /// Summed peak RSS of the daemons (the planning processes).
    fn rss_mb(&self) -> Result<f64, String> {
        self.daemons.iter().map(|d| vm_hwm_mb(d.child.id())).sum()
    }

    fn stop(mut self) -> Result<(), String> {
        let mut result = Ok(());
        if let Some(r) = self.router.take() {
            result = r.stop();
        }
        for d in self.daemons.drain(..) {
            result = result.and(d.stop());
        }
        for path in self.journals.drain(..) {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// One client connection (request/response, depth 1).
struct Conn {
    addr: String,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    response: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            addr: addr.to_string(),
            stream,
            reader,
            out: Vec::new(),
            response: String::new(),
        })
    }

    /// Send one line, return the response line without its newline. After
    /// a transport failure the connection is replaced (best effort): a
    /// late answer could still arrive on the old one.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        if let Err(e) = self.exchange(line) {
            if let Ok(fresh) = Conn::open(&self.addr) {
                *self = fresh;
            }
            return Err(e);
        }
        Ok(self.response.trim_end())
    }

    fn exchange(&mut self, line: &str) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        self.response.clear();
        match self.reader.read_line(&mut self.response) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// How a response answered a `plan` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    /// Structured error (shed, timeout, invalid, …) or transport failure.
    Failed,
}

fn classify(response: Result<&str, String>) -> Outcome {
    match response {
        Ok(r) if r.starts_with(r#"{"ok":true,"cached":true,"#) => Outcome::Hit,
        Ok(r) if r.starts_with(r#"{"ok":true,"cached":false,"#) => Outcome::Miss,
        _ => Outcome::Failed,
    }
}

/// One scheduled request of an open-loop phase.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Scheduled send time, seconds from the phase start.
    sched: f64,
    /// Latency charged from the scheduled send time; infinite when not
    /// answered `ok` or never sent.
    latency_ms: f64,
    /// The generator's own lateness: how late it sent while the
    /// connection was free. A validity signal, not subtracted.
    lag_ms: f64,
    outcome: Outcome,
}

impl Sample {
    /// A request the generator abandoned unsent.
    fn unsent(sched: f64) -> Sample {
        Sample {
            sched,
            latency_ms: f64::INFINITY,
            lag_ms: 0.0,
            outcome: Outcome::Failed,
        }
    }
}

struct Phase {
    /// One per scheduled request, sent or not.
    samples: Vec<Sample>,
    /// Requests the generator gave up sending because the backlog grew
    /// past the abort threshold; they are also in `samples`, as failures.
    unsent: usize,
    ping_us: Vec<f64>,
}

impl Phase {
    /// The blocks of one phase, measured apart, as one phase: samples in
    /// block order (each block's schedule restarts at 0).
    fn concat(blocks: Vec<Phase>) -> Phase {
        let mut out = Phase {
            samples: Vec::new(),
            unsent: 0,
            ping_us: Vec::new(),
        };
        for b in blocks {
            out.samples.extend(b.samples);
            out.unsent += b.unsent;
            out.ping_us.extend(b.ping_us);
        }
        out
    }

    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    fn failures(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Failed)
            .count()
    }

    fn ok(&self) -> usize {
        self.samples.len() - self.failures()
    }

    fn lag_p99_ms(&self) -> f64 {
        let lags: Vec<f64> = self.samples.iter().map(|s| s.lag_ms).collect();
        tail(&lags)
            .map(|t| t.value)
            .unwrap_or_else(|| lags.iter().copied().fold(0.0, f64::max))
    }

    fn lag_max_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.lag_ms).fold(0.0, f64::max)
    }

    fn rung(&self, rate: f64, limit_ms: f64) -> Rung {
        let lat = self.latencies();
        Rung {
            rate,
            tail_ms: stats::windowed(&lat)
                .map(|(_, t, _)| t.value)
                .unwrap_or(f64::INFINITY),
            failures: self.failures(),
            backlog: self.unsent > 0 || stats::backlog_growing(&lat, limit_ms),
            generator_behind: stats::generator_behind(self.lag_p99_ms(), limit_ms),
        }
    }
}

/// Open-loop phase: request `j` is due at `j / rate` seconds and goes out
/// on the first connection that is free, like a connection pool, so a
/// slow answer delays the next request only when every connection is
/// busy. With `ping_every > 0`, a `ping` round trip follows every
/// that-many requests on each connection, outside the schedule. Traced
/// phases wrap each request in a `client.request` span.
fn open_loop(
    conns: &mut [Conn],
    lines: &[Arc<str>],
    rate: f64,
    limit_ms: f64,
    ping_every: usize,
    tracer: &Tracer,
) -> Phase {
    let abort_s = (2.0 * limit_ms * 1e-3).max(0.25);
    let t0 = Instant::now();
    // The next request to send, and whether the generator gave up.
    let next = AtomicUsize::new(0);
    let abandoned = AtomicBool::new(false);
    let per_conn: Vec<(Vec<Sample>, usize, Vec<f64>)> = std::thread::scope(|scope| {
        let (next, abandoned) = (&next, &abandoned);
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut pings = Vec::new();
                    let mut unsent = 0;
                    let mut free_at = 0.0f64;
                    for n in 0.. {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= lines.len() {
                            break;
                        }
                        let sched = j as f64 / rate;
                        if abandoned.load(Ordering::Relaxed) {
                            // Never answered: each counts as a failure.
                            samples.push(Sample::unsent(sched));
                            unsent += 1;
                            continue;
                        }
                        let now = t0.elapsed().as_secs_f64();
                        if now < sched {
                            std::thread::sleep(Duration::from_secs_f64(sched - now));
                        }
                        let send = t0.elapsed().as_secs_f64();
                        if send - sched > abort_s {
                            abandoned.store(true, Ordering::Relaxed);
                            samples.push(Sample::unsent(sched));
                            unsent += 1;
                            continue;
                        }
                        let outcome = tracer.span("client.request", j as u64 + 1, 0, |_| {
                            classify(conn.call(&lines[j]))
                        });
                        let done = t0.elapsed().as_secs_f64();
                        // The generator's own lateness: the connection was
                        // free, the timer woke late. On a shared host that
                        // is mostly the system under test holding the CPU,
                        // so it stays in the latency and is only reported.
                        let lag = (send - sched.max(free_at)).max(0.0);
                        samples.push(Sample {
                            sched,
                            latency_ms: match outcome {
                                Outcome::Failed => f64::INFINITY,
                                _ => (done - sched) * 1e3,
                            },
                            lag_ms: lag * 1e3,
                            outcome,
                        });
                        if ping_every > 0 && n % ping_every == ping_every - 1 {
                            let t = Instant::now();
                            if conn.call(r#"{"cmd":"ping"}"#).is_ok() {
                                pings.push(t.elapsed().as_secs_f64() * 1e6);
                            }
                        }
                        free_at = t0.elapsed().as_secs_f64();
                    }
                    (samples, unsent, pings)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        samples: Vec::new(),
        unsent: 0,
        ping_us: Vec::new(),
    };
    for (samples, unsent, pings) in per_conn {
        phase.samples.extend(samples);
        phase.unsent += unsent;
        phase.ping_us.extend(pings);
    }
    phase.samples.sort_by(|a, b| a.sched.total_cmp(&b.sched));
    phase
}

/// Closed-loop pass: the lines split over the connections, each sent as
/// soon as the previous answer arrived. Returns the wall time and every
/// response (`None` on transport failure) in line order.
fn closed_loop(conns: &mut [Conn], lines: &[Arc<str>]) -> (f64, Vec<Option<String>>) {
    let t0 = Instant::now();
    let per_conn: Vec<Vec<(usize, Option<String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    (c..lines.len())
                        .step_by(CONNECTIONS)
                        .map(|j| (j, conn.call(&lines[j]).ok().map(str::to_string)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut out = vec![None; lines.len()];
    for (j, r) in per_conn.into_iter().flatten() {
        out[j] = r;
    }
    (wall, out)
}

/// Everything set-up leaves running.
struct Live {
    cluster: Cluster,
    conns: Vec<Conn>,
    source: Source,
}

/// Build inputs, start the processes, open the connections and warm the
/// cache with the workload's hot set (planning it).
fn set_up(args: &Args, kind: Kind, rep: usize) -> Result<Live, String> {
    let source = Source::new(kind, args.seed);
    let cluster = Cluster::start(args, kind, rep)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(cluster.entry()))
        .collect::<Result<Vec<_>, _>>()?;
    let (_, responses) = closed_loop(&mut conns, &source.pool);
    if let Some(i) = responses
        .iter()
        .position(|r| classify(r.as_deref().ok_or(String::new())) == Outcome::Failed)
    {
        return Err(format!("warming line {i} failed: {:?}", responses[i]));
    }
    Ok(Live {
        cluster,
        conns,
        source,
    })
}

/// Offline `plan_to_json(madpipe_plan(..))` for a request line, exactly
/// as the daemon parses it.
fn offline(line: &str) -> Result<(PlanRequest, Option<MadPipePlan>), String> {
    match parse_request(line).map_err(|e| format!("{e:?}"))? {
        Request::Plan(req) => {
            let plan = madpipe_plan(&req.chain, &req.platform, &req.cfg).ok();
            Ok((*req, plan))
        }
        other => Err(format!("not a plan request: {other:?}")),
    }
}

/// Byte-compare served responses against offline planning (each
/// distinct line planned once).
fn check_served(report: &mut Report, checks: &[(Arc<str>, String)]) {
    let mut cache: HashMap<Arc<str>, Option<Value>> = HashMap::new();
    for (line, served) in checks {
        let expected = cache.entry(line.clone()).or_insert_with(|| {
            offline(line)
                .ok()
                .and_then(|(_, plan)| plan.map(|p| plan_to_json(&p)))
        });
        let Some(plan) = expected else {
            report.fail_check(format!(
                "offline planning failed for a served line: {served}"
            ));
            continue;
        };
        let cached = classify(Ok(served)) == Outcome::Hit;
        if *served != plan_response(plan, cached) {
            report.fail_check(format!(
                "served plan differs from offline plan_to_json(madpipe_plan(..)): {served}"
            ));
        }
    }
}

/// The untraced serve run: every end-to-end metric.
pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let spec = spec(&args.workload);
    if args.trace {
        return run_traced(args, &spec);
    }
    // The reference kernel runs before every set-up and measured piece,
    // and after the last, while the daemons are idle. Every figure is
    // rescaled by the run's host slowdown: the median of all those
    // timings (see `calib`). Rungs pass or fail on raw latencies.
    let mut timeline = Timeline::new(MARK_REPS);
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(prev) = live.take() {
            let Live { cluster, .. } = prev;
            cluster.stop()?;
        }
        timeline.mark();
        let t = Instant::now();
        live = Some(set_up(args, spec.kind, rep)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Live {
        cluster,
        mut conns,
        mut source,
    } = live.expect("at least one set-up");
    let mut report = Report::default();
    let off = Tracer::new(false);

    // Rounds spread every measurement over the whole run, so a few
    // seconds of a slow neighbour move a share of each, not all of one:
    // each round runs a block of the nominal phase, one closed-loop pass,
    // and the ladder's next search rung; rungs the search still
    // needs after the last round follow it.
    let block_s = NOMINAL_SHARE * args.seconds / ROUNDS as f64;
    let rung_s = RUNG_SHARE * args.seconds;
    let mut ladder = stats::Ladder::new(
        stats::ladder(
            spec.nominal_rps,
            spec.ladder_step,
            spec.ladder_from,
            spec.ladder_top,
        ),
        spec.limit_ms,
        (spec.ladder_start - spec.ladder_from) as usize,
    );
    let mut blocks = Vec::new();
    let mut walls = Vec::new();
    let mut served = Vec::new();
    for round in 0.. {
        if round < ROUNDS {
            let lines = source.take((spec.nominal_rps * block_s) as usize);
            timeline.mark();
            blocks.push(open_loop(
                &mut conns,
                &lines,
                spec.nominal_rps,
                spec.limit_ms,
                0,
                &off,
            ));
            let lines: Vec<Arc<str>> = match spec.kind {
                Kind::Hot => (0..spec.wall_requests)
                    .map(|i| {
                        source.pool[(round * spec.wall_requests + i) % source.pool.len()].clone()
                    })
                    .collect(),
                _ => source.take(spec.wall_requests),
            };
            timeline.mark();
            let (wall, responses) = closed_loop(&mut conns, &lines);
            walls.push(wall);
            served.extend(lines.into_iter().zip(responses));
        }
        let Some(rate) = ladder.next_rate() else {
            if round + 1 >= ROUNDS {
                break;
            }
            continue;
        };
        let lines = source.take((rate * rung_s) as usize);
        timeline.mark();
        let phase = open_loop(&mut conns, &lines, rate, spec.limit_ms, 0, &off);
        let rung = phase.rung(rate, spec.limit_ms);
        eprintln!(
            "  rung {rate:.0}/s: {} answered ok, tail {:.3} ms, failures {} (unsent {}), \
             backlog {}, generator lag p99 {:.3} ms",
            phase.ok(),
            rung.tail_ms,
            rung.failures,
            phase.unsent,
            rung.backlog,
            phase.lag_p99_ms()
        );
        ladder.record(rung);
    }
    timeline.mark();
    let slowdown = timeline.overall();
    let block_latencies: Vec<Vec<f64>> = blocks.iter().map(Phase::latencies).collect();
    let (p50, p99, windows) =
        stats::blocked(&block_latencies).ok_or("too few nominal-phase samples for a tail")?;
    let nominal = Phase::concat(blocks);
    drop(conns);
    cluster.stop()?;

    // Outside every timed window: correctness. `attempted` and `failed`
    // cover the nominal phase (abandoned requests included) and the
    // closed-loop passes. Ladder rungs above capacity overload the daemon
    // on purpose; what they leave unanswered fails the rung, not the run.
    report.attempted = (nominal.samples.len() + served.len()) as u64;
    report.failed = nominal.failures() as u64;
    let mut checks = Vec::new();
    for (line, r) in served {
        match r {
            Some(r) if classify(Ok(&r)) != Outcome::Failed => checks.push((line, r)),
            _ => report.failed += 1,
        }
    }
    match spec.kind {
        // Every hot instance, once.
        Kind::Hot => checks.truncate(source.pool.len()),
        _ => {
            Rng::new(args.seed ^ 0xC4EC).shuffle(&mut checks);
            checks.truncate(spec.check_sample);
        }
    }
    check_served(&mut report, &checks);

    // The mean pass: every pass's fresh instances count, so which ones
    // a seed drew moves the figure less than in any single pass.
    let wall = walls.iter().sum::<f64>() / walls.len() as f64;
    let max_rps = ladder.best().map_or(0.0, |r| r.rate);
    let mut sorted = nominal.latencies();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| sorted[((sorted.len() as f64 * p) as usize).min(sorted.len() - 1)];
    eprintln!(
        "{}: nominal {:.0}/s: {} samples in {windows} window(s), tail p{:.1}; \
         p90/p95/p98/p99.9 {:.3}/{:.3}/{:.3}/{:.3} ms; generator lag p99 {:.3} ms; \
         raw p50 {p50:.4} ms, p99 {:.4} ms, mean pass {wall:.4} s, max_rps {max_rps:.1}; \
         host slowdown {slowdown:.3}",
        args.workload,
        spec.nominal_rps,
        p99.samples,
        p99.percentile,
        q(0.90),
        q(0.95),
        q(0.98),
        q(0.999),
        nominal.lag_p99_ms(),
        p99.value,
    );
    report.set("setup_s", median(&setups) / slowdown);
    report.set("wall_s", wall / slowdown);
    report.set("p50_ms", p50 / slowdown);
    report.set("p99_ms", p99.value / slowdown);
    report.set("max_rps", max_rps * slowdown);
    Ok(report)
}

/// Prometheus samples of one `metrics` response, by series name.
struct Metrics(HashMap<String, f64>);

impl Metrics {
    fn fetch(addr: &str) -> Result<Metrics, String> {
        let text = fetch_metrics(addr, Duration::from_secs(30))
            .map_err(|e| format!("metrics from {addr}: {e}"))?;
        let mut out = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
        Ok(Metrics(out))
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Non-cumulative `(upper bound, count)` buckets of a histogram.
    fn buckets(&self, hist: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{hist}_bucket{{le=\"");
        let mut cum: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                Some((le.parse::<f64>().unwrap_or(f64::INFINITY), *v))
            })
            .collect();
        cum.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        cum.into_iter()
            .map(|(le, c)| {
                let n = c - prev;
                prev = c;
                (le, n)
            })
            .collect()
    }
}

/// Sum of a counter across snapshots, after minus before.
fn delta(before: &[Metrics], after: &[Metrics], name: &str) -> f64 {
    after.iter().map(|m| m.get(name)).sum::<f64>() - before.iter().map(|m| m.get(name)).sum::<f64>()
}

/// Quantile `q` of a histogram's growth between snapshots (seconds);
/// `None` when nothing was observed.
fn delta_quantile(before: &[Metrics], after: &[Metrics], hist: &str, q: f64) -> Option<f64> {
    let mut counts: HashMap<u64, f64> = HashMap::new();
    for (ms, sign) in [(after, 1.0), (before, -1.0)] {
        for m in ms {
            for (le, n) in m.buckets(hist) {
                *counts.entry(le.to_bits()).or_insert(0.0) += sign * n;
            }
        }
    }
    let mut buckets: Vec<(f64, u64)> = counts
        .into_iter()
        .map(|(le, n)| (f64::from_bits(le), n.max(0.0) as u64))
        .filter(|(le, _)| le.is_finite())
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let v = madpipe_obs::quantile_from_buckets(&buckets, q);
    v.is_finite().then_some(v)
}

/// Median in-process cost (µs) of `f` over `items`, each timed alone.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut times = Vec::with_capacity(items.len());
    for item in items {
        let t = Instant::now();
        f(item);
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// The traced serve run: per-layer metrics. Runs the nominal phase
/// untraced and then traced (with interleaved pings), reads the
/// processes' own counters around the traced phase, then times the
/// protocol/cache/journal layers and re-drives the planner in-process on
/// the workload's own lines.
fn run_traced(args: &Args, spec: &Spec) -> Result<Report, String> {
    let Live {
        cluster,
        mut conns,
        mut source,
    } = set_up(args, spec.kind, 0)?;
    let mut report = Report::default();
    let nominal_s = NOMINAL_SHARE * args.seconds;
    let n = (spec.nominal_rps * nominal_s) as usize;
    let off = Tracer::new(false);
    let on = Tracer::new(true);

    let untraced = open_loop(
        &mut conns,
        &source.take(n),
        spec.nominal_rps,
        spec.limit_ms,
        0,
        &off,
    );
    let mut snapshots = Vec::new();
    for d in &cluster.daemons {
        snapshots.push(Metrics::fetch(&d.addr)?);
    }
    let router_before = match &cluster.router {
        Some(r) => Some(Metrics::fetch(&r.addr)?),
        None => None,
    };
    let traced_lines = source.take(n);
    let traced = open_loop(
        &mut conns,
        &traced_lines,
        spec.nominal_rps,
        spec.limit_ms,
        8,
        &on,
    );
    let mut after = Vec::new();
    for d in &cluster.daemons {
        after.push(Metrics::fetch(&d.addr)?);
    }
    let attempted = untraced.samples.len() + traced.samples.len();
    let failed = untraced.failures() + traced.failures();
    report.attempted = attempted as u64;
    report.failed = failed as u64;
    report.set("serve.error_ratio", ratio(failed as f64, attempted as f64));
    report.set(
        "obs.trace_overhead_ratio",
        median(&traced.latencies()) / median(&untraced.latencies()) - 1.0,
    );
    report.set("serve.reactor.ping_us", median(&traced.ping_us));
    report.set(
        "bench.gen_lag_p99_ms",
        untraced.lag_p99_ms().max(traced.lag_p99_ms()),
    );
    report.set(
        "bench.gen_lag_max_ms",
        untraced.lag_max_ms().max(traced.lag_max_ms()),
    );
    let hits = traced
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Hit)
        .count();
    report.set(
        "serve.cache.hit_ratio",
        ratio(hits as f64, traced.ok() as f64),
    );
    let daemon_hits = delta(&snapshots, &after, "madpipe_serve_cache_hits");
    let daemon_misses = delta(&snapshots, &after, "madpipe_serve_cache_misses");
    eprintln!(
        "{} traced: client hits {hits}/{} ok; daemon hits {daemon_hits} misses {daemon_misses}",
        args.workload,
        traced.ok()
    );
    let queue = "madpipe_serve_queue_seconds";
    if let Some(q) = delta_quantile(&snapshots, &after, queue, 0.5) {
        report.set("serve.queue.wait_p50_ms", q * 1e3);
    }
    if let Some(q) = delta_quantile(&snapshots, &after, queue, 0.99) {
        report.set("serve.queue.wait_p99_ms", q * 1e3);
    }
    report.set(
        "serve.shed",
        delta(&snapshots, &after, "madpipe_serve_shed_expired")
            + delta(&snapshots, &after, "madpipe_serve_shed_overload"),
    );
    report.set(
        "serve.cache.evictions",
        delta(&snapshots, &after, "madpipe_serve_cache_evictions"),
    );
    report.set(
        "serve.gossip.applied",
        after
            .iter()
            .map(|m| m.get("madpipe_serve_gossip_applied"))
            .sum(),
    );
    if let (Some(router), Some(before)) = (&cluster.router, &router_before) {
        let now = Metrics::fetch(&router.addr)?;
        let d = |name: &str| now.get(name) - before.get(name);
        report.set("router.forwards", d("madpipe_router_forwarded"));
        report.set("router.failovers", d("madpipe_router_failover"));
        // serve-routed's most popular pool lines; serve-cold's last
        // traced lines, still cached on their owners.
        let popular = match spec.kind {
            Kind::Cold => &traced_lines[traced_lines.len() - 16..],
            _ => &source.pool[..16],
        };
        routed_probes(&cluster, popular, &mut report)?;
    }
    report.set("rss_peak_mb", cluster.rss_mb()?);
    drop(conns);
    cluster.stop()?;

    // In-process layers, on the lines this workload sends.
    let sample: Vec<Arc<str>> = match spec.kind {
        Kind::Hot => source.pool.clone(),
        _ => {
            let mut s = traced_lines;
            Rng::new(args.seed ^ 0x5A11).shuffle(&mut s);
            s.truncate(16);
            s
        }
    };
    layer_costs(args, &sample, &mut report, &on)?;
    crate::dump_trace(args, &on)?;
    Ok(report)
}

/// The router hop (routed minus direct p50 of the same hit lines) and the
/// gossip warm ratio (hits on the daemon that does not own a recently
/// used instance, which only gossip can explain). `popular` are lines the
/// cluster has planned; the probes make them the most recently used.
fn routed_probes(
    cluster: &Cluster,
    popular: &[Arc<str>],
    report: &mut Report,
) -> Result<(), String> {
    let backends = cluster.backends();
    let ring = Ring::new(&backends, 64);
    let owner = |line: &str| -> Result<usize, String> {
        match parse_request(line).map_err(|e| format!("{e:?}"))? {
            Request::Plan(p) => Ok(ring.candidates(&p.canonical)[0]),
            _ => Err("not a plan line".into()),
        }
    };
    let mut routed = Conn::open(cluster.entry())?;
    let mut direct: Vec<Conn> = backends
        .iter()
        .map(|b| Conn::open(b))
        .collect::<Result<_, _>>()?;
    let (mut via_router, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        for line in popular {
            let t = Instant::now();
            classify(routed.call(line));
            via_router.push(t.elapsed().as_secs_f64() * 1e6);
            let d = &mut direct[owner(line)?];
            let t = Instant::now();
            classify(d.call(line));
            straight.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.set("router.hop_us", median(&via_router) - median(&straight));
    // Let a few gossip rounds ship the probed lines to the other daemon.
    std::thread::sleep(Duration::from_millis(3 * GOSSIP_MS));
    let top = &popular[..8];
    let mut warmed = 0;
    for line in top {
        let other = 1 - owner(line)?;
        if classify(direct[other].call(line)) == Outcome::Hit {
            warmed += 1;
        }
    }
    report.set("serve.gossip.warm_ratio", warmed as f64 / top.len() as f64);
    Ok(())
}

/// Time each protocol/cache/journal layer on `lines` and re-drive the
/// planner on them, checking the re-drive against `madpipe_plan` to the
/// bit and the shipped patterns against the model.
fn layer_costs(
    args: &Args,
    lines: &[Arc<str>],
    report: &mut Report,
    tracer: &Tracer,
) -> Result<(), String> {
    report.set(
        "json.parse_us",
        per_call_us(lines, |l| {
            std::hint::black_box(Value::parse(l).is_ok());
        }),
    );
    report.set(
        "serve.protocol.parse_us",
        per_call_us(lines, |l| {
            std::hint::black_box(parse_line(l).is_ok());
        }),
    );
    let mut reqs = Vec::new();
    let mut shipped_plans = Vec::new();
    let mut plans: Vec<(String, Arc<Value>)> = Vec::new();
    let mut counts = PlannerCounts::default();
    let mut periods = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let (req, shipped) = offline(line)?;
        let chain = &req.chain;
        // Above every request's trace id in the same sink.
        let trace = (1 << 32) + i as u64;
        let ours = redrive(chain, &req.platform, &req.cfg, tracer, trace, &mut counts);
        if ours.as_ref().map(|p| p.period().to_bits())
            != shipped.as_ref().map(|p| p.period().to_bits())
        {
            report.fail_check(format!(
                "line {i}: re-driven period differs from madpipe_plan"
            ));
        }
        if let Some(plan) = shipped {
            let checked = tracer.span("schedule.check", trace, 0, |_| {
                check_plan(chain, &req.platform, &plan)
            });
            if let Err(e) = checked {
                report.fail_check(format!("line {i}: shipped pattern invalid: {e}"));
            }
            periods.push(plan.period() * 1e3);
            plans.push((req.canonical.clone(), Arc::new(plan_to_json(&plan))));
            shipped_plans.push(plan);
        }
        reqs.push(req);
    }
    planner_layers(&tracer.spans(), &counts, report);
    report.set("plan.period_gmean_ms", gmean(&periods));
    report.set(
        "serve.protocol.canonical_us",
        per_call_us(&reqs, |r| {
            std::hint::black_box(canonical_instance(&r.chain, &r.platform, &r.cfg));
        }),
    );
    report.set(
        "serve.protocol.plan_json_us",
        per_call_us(&shipped_plans, |p| {
            std::hint::black_box(plan_to_json(p));
        }),
    );
    report.set(
        "serve.protocol.encode_us",
        per_call_us(&plans, |(_, v)| {
            std::hint::black_box(plan_response(v, true));
        }),
    );
    // Insert into a cache a quarter the sample's size, so inserts evict.
    let cache = PlanCache::new((plans.len() / 4).max(1));
    report.set(
        "serve.cache.insert_us",
        per_call_us(&plans, |(k, v)| {
            cache.insert(k.clone(), v.clone());
        }),
    );
    let full = PlanCache::new(plans.len().max(1) * 2);
    for (k, v) in &plans {
        full.insert(k.clone(), v.clone());
    }
    report.set(
        "serve.cache.get_us",
        per_call_us(&plans, |(k, _)| {
            std::hint::black_box(full.get(k).is_some());
        }),
    );
    let path = args.out_dir.join(format!(
        "{}-{}-layer-journal.jsonl",
        args.workload, args.seed
    ));
    let _ = std::fs::remove_file(&path);
    let journal = Journal::open(&path.display().to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut append_err = None;
    report.set(
        "serve.journal.append_us",
        per_call_us(&plans, |(k, v)| {
            if let Err(e) = journal.append(k, v) {
                append_err = Some(e);
            }
        }),
    );
    if let Some(e) = append_err {
        return Err(format!("journal append: {e}"));
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in daemon on `127.0.0.1:0` that answers every line with a
    /// cache hit after `delay`.
    fn slow_daemon(delay: Duration) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().take(CONNECTIONS) {
                let stream = stream.unwrap();
                std::thread::spawn(move || {
                    let mut out = stream.try_clone().unwrap();
                    let mut line = String::new();
                    let mut reader = BufReader::new(stream);
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        std::thread::sleep(delay);
                        let _ = out.write_all(b"{\"ok\":true,\"cached\":true,\"plan\":{}}\n");
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn abandoned_requests_are_attempted_failed_and_infinitely_late() {
        let addr = slow_daemon(Duration::from_millis(400));
        let mut conns: Vec<Conn> = (0..CONNECTIONS)
            .map(|_| Conn::open(&addr).unwrap())
            .collect();
        let lines: Vec<Arc<str>> = (0..20).map(|_| Arc::from("{}")).collect();
        // 100/s against 400 ms answers: each connection's second request
        // is already 380 ms late, past the 250 ms abort threshold.
        let phase = open_loop(&mut conns, &lines, 100.0, 10.0, 0, &Tracer::new(false));
        assert_eq!(phase.samples.len(), lines.len(), "every request attempted");
        assert_eq!(phase.unsent, 18);
        assert_eq!(phase.failures(), 18);
        assert_eq!(phase.ok(), 2);
        let tail = tail(&phase.latencies()).unwrap();
        assert_eq!(
            tail.value,
            f64::INFINITY,
            "abandoned requests sit in the tail"
        );
        let rung = phase.rung(100.0, 10.0);
        assert!(rung.backlog && rung.failures == 18 && !rung.passes(10.0));
        // Blocks of the nominal phase keep them through concatenation.
        let nominal = Phase::concat(vec![phase]);
        assert_eq!((nominal.samples.len(), nominal.failures()), (20, 18));
    }

    #[test]
    fn routed_traffic_has_an_even_miss_share_and_a_zipf_head() {
        let mut source = Source::new(Kind::Routed, 5);
        let pool: std::collections::HashSet<Arc<str>> = source.pool.iter().cloned().collect();
        let lines = source.take(10_000);
        let misses = lines.iter().filter(|l| !pool.contains(*l)).count();
        assert_eq!(misses, 300, "3% first-time misses, exactly");
        // Every 1000-request window carries the same share.
        for w in lines.chunks(1000) {
            let m = w.iter().filter(|l| !pool.contains(*l)).count();
            assert!((29..=31).contains(&m), "{m}");
        }
        let top = lines.iter().filter(|l| **l == source.pool[0]).count();
        let tenth = lines.iter().filter(|l| **l == source.pool[9]).count();
        assert!(top > 5 * tenth, "rank 1 {top} vs rank 10 {tenth}");
        // Misses are fresh instances: no repeats.
        let distinct: std::collections::HashSet<_> =
            lines.iter().filter(|l| !pool.contains(*l)).collect();
        assert_eq!(distinct.len(), misses);
    }
}
