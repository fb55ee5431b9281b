//! Chaos drill: a live daemon driven through a fixed-seed fault
//! schedule — worker panics, killed connections, partial writes, and
//! mid-stream GPU-loss replans — asserting the supervision invariants:
//!
//! * the daemon never dies: every event is followed by a successfully
//!   served request;
//! * every panic is isolated into a structured `internal` error and the
//!   dead worker is respawned back to full strength;
//! * every plan served under chaos is f64-bit-identical to an offline
//!   `madpipe plan` of the same (possibly degraded) instance;
//! * the drill ends in a clean drain.
//!
//! The schedule comes from `madpipe_sim::ChaosStream` with a fixed
//! seed, so a failure here replays identically everywhere (CI runs this
//! as the `chaos-smoke` job).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use madpipe_core::{madpipe_plan, PlannerConfig};
use madpipe_json::{FromJson, ToJson, Value};
use madpipe_model::{Chain, Layer, Platform, PlatformFault};
use madpipe_serve::wire::{LineConn, MAX_REPLY_BYTES};
use madpipe_serve::{ServeConfig, Server};
use madpipe_sim::{ChaosEvent, ChaosStream};

/// The drill's seed. Changing it changes which faults land where, but
/// every invariant below must hold for any seed.
const SEED: u64 = 0x00AD_51BE;
const EVENTS: usize = 24;
/// The chain names that trigger a worker panic (must match the server's
/// `panic_marker` below).
const MARKER: &str = "poisoned";

fn platform() -> Platform {
    Platform::gb(4, 2, 12.0).unwrap()
}

/// Deterministic instance family, same shape as the integration tests.
fn chain(seed: u64) -> Chain {
    let layers = (0..6)
        .map(|i| {
            let x = ((seed * 37 + i * 11) % 17 + 1) as f64;
            Layer::new(
                format!("l{i}"),
                1e-3 * x,
                2e-3 * x,
                1 << 20,
                (4 + (i + seed) % 4) << 20,
            )
        })
        .collect();
    Chain::new(format!("net{seed}"), 1 << 20, layers).unwrap()
}

fn plan_line(chain: &Chain, platform: &Platform) -> String {
    Value::Object(vec![
        ("cmd".into(), Value::Str("plan".into())),
        ("chain".into(), chain.to_json()),
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
}

fn replan_line(chain: &Chain, platform: &Platform, lost: usize) -> String {
    plan_line(chain, platform).replacen(
        r#""cmd":"plan""#,
        &format!(r#""cmd":"replan","fault":{{"kind":"gpu_loss","count":{lost}}}"#),
        1,
    )
}

fn roundtrip(addr: std::net::SocketAddr, line: &str) -> Value {
    let t = Duration::from_secs(60);
    let response = LineConn::dial(&addr.to_string(), t, t)
        .and_then(|mut conn| conn.exchange(line, MAX_REPLY_BYTES))
        .expect("daemon must answer, not hang up");
    Value::parse(&response).expect("response is JSON")
}

/// Offline ground truth, memoized per (chain seed, surviving GPUs):
/// the f64 bits of the period `madpipe plan` computes for the instance.
struct Oracle {
    memo: HashMap<(u64, usize), u64>,
}

impl Oracle {
    fn period_bits(&mut self, chain_seed: u64, n_gpus: usize) -> u64 {
        *self.memo.entry((chain_seed, n_gpus)).or_insert_with(|| {
            let p = platform();
            let survivor = Platform::new(n_gpus, p.memory_bytes, p.bandwidth).unwrap();
            madpipe_plan(&chain(chain_seed), &survivor, &PlannerConfig::default())
                .expect("offline plan")
                .period()
                .to_bits()
        })
    }
}

fn served_period_bits(v: &Value) -> u64 {
    v.field("plan")
        .unwrap()
        .field("period")
        .unwrap()
        .as_f64()
        .unwrap()
        .to_bits()
}

#[test]
fn chaos_drill_never_kills_the_daemon_and_every_plan_is_bit_identical() {
    let dump_path = std::env::temp_dir()
        .join(format!("madpipe-chaos-flight-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&dump_path);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 64,
        timeout: Duration::from_secs(60),
        queue_depth: 64,
        panic_marker: Some(MARKER.into()),
        flight_dump: Some(dump_path.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let p = platform();
    let mut oracle = Oracle {
        memo: HashMap::new(),
    };

    // Losing at most 2 of 4 GPUs keeps the survivor plannable.
    let schedule = ChaosStream::events(SEED, EVENTS, 2);
    let mut panics_injected = 0u64;
    for (step, event) in schedule.iter().enumerate() {
        let chain_seed = (step % 3) as u64; // rotate a small instance pool
        let c = chain(chain_seed);
        match *event {
            ChaosEvent::WorkerPanic => {
                panics_injected += 1;
                // A unique marker name per injection: never cached, so
                // every one of these reaches (and kills) a worker.
                let mut doomed = chain(chain_seed);
                doomed = Chain::new(
                    format!("{MARKER}-{step}"),
                    1 << 20,
                    doomed.layers().to_vec(),
                )
                .unwrap();
                let v = roundtrip(addr, &plan_line(&doomed, &p));
                assert_eq!(v.field("ok").unwrap(), &Value::Bool(false), "step {step}");
                assert_eq!(
                    v.field("error").unwrap().field("kind").unwrap().as_str(),
                    Ok("internal"),
                    "a panic must surface as a structured internal error"
                );
            }
            ChaosEvent::KillConnection => {
                // Send a valid request and slam the connection shut
                // without reading; the worker's write lands on a dead
                // socket and must bother nobody.
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(plan_line(&c, &p).as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                drop(stream);
            }
            ChaosEvent::PartialWrite => {
                // The request dribbles in over several writes; the
                // server must reassemble the line and answer normally.
                let line = plan_line(&c, &p);
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let bytes = line.as_bytes();
                for chunk in bytes.chunks(bytes.len() / 3 + 1) {
                    stream.write_all(chunk).unwrap();
                    stream.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                }
                stream.write_all(b"\n").unwrap();
                let mut reader = BufReader::new(stream);
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                let v = Value::parse(response.trim()).unwrap();
                assert_eq!(v.field("ok").unwrap(), &Value::Bool(true), "step {step}");
                assert_eq!(
                    served_period_bits(&v),
                    oracle.period_bits(chain_seed, p.n_gpus),
                    "step {step}: partial-write plan must be bit-identical"
                );
            }
            ChaosEvent::GpuLossReplan { lost } => {
                let v = roundtrip(addr, &replan_line(&c, &p, lost));
                assert_eq!(
                    v.field("ok").unwrap(),
                    &Value::Bool(true),
                    "step {step}: {}",
                    v.to_string_compact()
                );
                assert_eq!(
                    served_period_bits(&v),
                    oracle.period_bits(chain_seed, p.n_gpus - lost),
                    "step {step}: degraded plan must be bit-identical to \
                     offline planning on the survivor"
                );
                let fault =
                    PlatformFault::from_json(v.field("replan").unwrap().field("fault").unwrap())
                        .unwrap();
                assert_eq!(fault, PlatformFault::GpuLoss { count: lost });
            }
        }

        // After *every* event the daemon serves an ordinary request,
        // bit-identical to offline planning — chaos never degrades
        // correctness, only availability of single responses.
        let v = roundtrip(addr, &plan_line(&c, &p));
        assert_eq!(
            v.field("ok").unwrap(),
            &Value::Bool(true),
            "step {step} ({}): daemon must keep serving",
            event.kind()
        );
        assert_eq!(
            served_period_bits(&v),
            oracle.period_bits(chain_seed, p.n_gpus),
            "step {step}: served plan must be bit-identical"
        );
    }
    assert!(panics_injected > 0, "the schedule must include panics");

    // The supervisor restores the pool to full strength (give it a few
    // poll intervals after the last kill).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = roundtrip(addr, r#"{"cmd":"health"}"#);
        let h = v.field("health").unwrap();
        // Panics are counted synchronously, before the reply reaches the
        // client; respawns lag by a supervisor poll interval.
        assert_eq!(h.field("panics").unwrap(), &Value::UInt(panics_injected));
        if h.field("workers_alive").unwrap() == &Value::UInt(2)
            && h.field("respawns").unwrap() == &Value::UInt(panics_injected)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "workers not respawned in time: {}",
            v.to_string_compact()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        server.registry().counter("serve.panics"),
        panics_injected,
        "every injected panic is counted"
    );

    // Clean drain ends the drill.
    let ack = roundtrip(addr, r#"{"cmd":"shutdown"}"#);
    assert_eq!(ack.field("draining").unwrap(), &Value::Bool(true));
    server.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after the drill"
    );

    // Post-mortem: every worker panic dumped the flight ring at the
    // panic site and the drain appended the rest, so the accumulated
    // artifact is non-empty, carries one `serve.panic` marker per
    // injected panic, and replays through the trace validator — every
    // recorded span's parent resolves, even for requests whose
    // connections chaos killed mid-flight.
    let dump = std::fs::read_to_string(&dump_path).expect("flight dump written on drain");
    assert!(!dump.trim().is_empty(), "flight dump must not be empty");
    let panic_markers = dump
        .lines()
        .filter(|l| l.contains(r#""name":"serve.panic""#))
        .count() as u64;
    assert_eq!(
        panic_markers, panics_injected,
        "one panic instant per injected panic"
    );
    let summary = madpipe_obs::validate::validate_trace_text(&dump)
        .expect("flight dump replays through validate-trace");
    assert!(summary.span_names.contains("serve.request"));
    assert!(summary.span_names.contains("serve.worker"));
    let _ = std::fs::remove_file(&dump_path);
}
