//! End-to-end distributed tracing through the daemon: traced requests
//! retire in request order echoing their trace context, and the
//! always-on flight recorder links every hop's span — request → queue
//! wait → worker → DP → the planner's own phase and DP-solve spans —
//! under the inbound context.
//!
//! Everything lives in one test function: the flight ring is a process
//! global, and a single drain at the end partitions events by trace id
//! without racing a concurrent test's drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_obs::flight::{FlightEvent, FlightKind};
use madpipe_serve::{ServeConfig, Server};

/// Same deterministic instance family as the integration suite.
fn instance(seed: u64) -> (Chain, Platform) {
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
    let chain = Chain::new(format!("net{seed}"), 1 << 20, layers).unwrap();
    let platform = Platform::gb(4, 2, 12.0).unwrap();
    (chain, platform)
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

/// Splice a trace context onto a request line, the way a tracing client
/// (or the router, for `parent`) would.
fn traced_line(line: &str, trace: u64, parent: u64) -> String {
    let parent = if parent == 0 {
        String::new()
    } else {
        format!(",\"parent\":\"{}\"", madpipe_obs::hex_id(parent))
    };
    format!(
        "{},\"trace\":\"{}\"{parent}}}",
        line.strip_suffix('}').unwrap(),
        madpipe_obs::hex_id(trace),
    )
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 64,
        timeout: Duration::from_secs(60),
        queue_depth: 64,
        panic_marker: None,
        ..ServeConfig::default()
    })
    .expect("bind")
}

/// Whether `e` sits (transitively) under the span `ancestor`.
fn descends_from(events: &[FlightEvent], e: &FlightEvent, ancestor: u64) -> bool {
    let mut parent = e.parent;
    while parent != 0 {
        if parent == ancestor {
            return true;
        }
        parent = match events.iter().find(|p| p.span == parent) {
            Some(p) => p.parent,
            None => return false,
        };
    }
    false
}

/// Events of one request's trace with a given name.
fn spans_of<'a>(events: &'a [FlightEvent], trace: u64, name: &str) -> Vec<&'a FlightEvent> {
    events
        .iter()
        .filter(|e| e.trace == trace && e.name == name)
        .collect()
}

/// Read one response line, assert it echoes `trace`, return the
/// server-minted span id it carries.
fn read_echo(reader: &mut BufReader<TcpStream>, trace: u64) -> u64 {
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let v = Value::parse(response.trim()).expect("response is JSON");
    assert_eq!(v.field("ok").unwrap(), &Value::Bool(true), "{response}");
    assert_eq!(
        v.field("trace").unwrap().as_str().unwrap(),
        madpipe_obs::hex_id(trace),
        "response must echo the request's trace id, in request order"
    );
    let span = madpipe_obs::parse_hex_id(v.field("span").unwrap().as_str().unwrap())
        .expect("span id is 16-hex");
    assert_ne!(span, 0);
    span
}

#[test]
fn traced_requests_retire_in_order_with_linked_spans() {
    let server = start_server();
    let addr = server.local_addr();

    let instances: Vec<String> = (0..3)
        .map(|s| {
            let (chain, platform) = instance(s);
            plan_line(&chain, &platform)
        })
        .collect();
    let traces: Vec<u64> = (1..=6u64).map(|i| 0xace0_0000_0000_0000 | i).collect();
    // The last request also carries an inbound parent, as if a router
    // hop had forwarded it.
    let router_span = 0xbeef_0000_0000_0001u64;

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut echoed = Vec::new();

    // Wave 1: first touch of instances 0 and 1 — deterministic cache
    // misses, planned by workers. Read both responses so the plans are
    // in the cache (and the workers idle) before wave 2.
    for (i, trace) in traces[..2].iter().enumerate() {
        let line = traced_line(&instances[i], *trace, 0);
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        echoed.push(read_echo(&mut reader, *trace));
    }

    // Wave 2, pipelined in one write: two warm repeats around a brand
    // new instance. The repeats are instant submit-time cache hits; the
    // miss in the middle must not let the hit behind it overtake —
    // front-only retirement answers strictly in request order.
    let wave2 = [
        (&instances[0], traces[2], 0),
        (&instances[2], traces[3], 0), // cold: worker + DP
        (&instances[1], traces[4], 0),
        (&instances[0], traces[5], router_span),
    ];
    let payload: String = wave2
        .iter()
        .map(|(line, trace, parent)| format!("{}\n", traced_line(line, *trace, *parent)))
        .collect();
    stream.write_all(payload.as_bytes()).unwrap();
    for (_, trace, _) in &wave2 {
        echoed.push(read_echo(&mut reader, *trace));
    }

    server.shutdown();
    server.join();

    let ours: Vec<FlightEvent> = madpipe_obs::flight::drain()
        .into_iter()
        .filter(|e| traces.contains(&e.trace))
        .collect();

    for (i, trace) in traces.iter().enumerate() {
        let planned = i < 2 || i == 3; // cold instances; the rest are hits
        let request = spans_of(&ours, *trace, "serve.request");
        assert_eq!(request.len(), 1, "one request span per trace");
        let request = request[0];
        assert_eq!(
            request.span, echoed[i],
            "the echoed span id is the request span"
        );
        let expected_parent = if i == 5 { router_span } else { 0 };
        assert_eq!(
            request.parent, expected_parent,
            "the inbound parent (the router hop) is preserved"
        );

        let waits = spans_of(&ours, *trace, "serve.queue.wait");
        let workers = spans_of(&ours, *trace, "serve.worker");
        let dps = spans_of(&ours, *trace, "serve.dp");
        let hits = spans_of(&ours, *trace, "serve.cache.hit");
        let misses = spans_of(&ours, *trace, "serve.cache.miss");
        if planned {
            assert_eq!((misses.len(), hits.len()), (1, 0), "request {i} is cold");
            assert_eq!(misses[0].kind, FlightKind::Instant);
            assert_eq!(misses[0].parent, request.span);
            assert_eq!(waits.len(), 1, "request {i} queued once");
            assert_eq!(waits[0].parent, request.span);
            assert_eq!(workers.len(), 1, "request {i} ran a worker");
            assert_eq!(workers[0].parent, request.span);
            assert_eq!(dps.len(), 1, "request {i} ran the DP");
            assert_eq!(dps[0].parent, workers[0].span, "DP nests in the worker");
            assert!(workers[0].dur_us >= dps[0].dur_us, "worker contains the DP");

            // The planner's spans join the request's trace under the DP.
            let totals = spans_of(&ours, *trace, "plan.total");
            assert_eq!(totals.len(), 1, "request {i} planned once");
            assert_eq!(
                totals[0].parent, dps[0].span,
                "plan.total nests in serve.dp"
            );
            for phase in ["plan.phase1.bisect", "plan.phase2.schedule"] {
                let phases = spans_of(&ours, *trace, phase);
                assert!(!phases.is_empty(), "request {i} has a {phase} span");
                assert!(phases.iter().all(|p| p.parent == totals[0].span));
            }
            let solves = spans_of(&ours, *trace, "dp.solve");
            assert!(!solves.is_empty(), "request {i} ran DP solves");
            for solve in solves {
                assert!(
                    descends_from(&ours, solve, totals[0].span),
                    "every dp.solve sits under plan.total"
                );
                assert_eq!(solve.args()[0].0, "t_hat");
            }
        } else {
            assert_eq!((misses.len(), hits.len()), (0, 1), "request {i} is warm");
            assert_eq!(hits[0].parent, request.span);
            assert_eq!(
                waits.len() + workers.len() + dps.len(),
                0,
                "a submit-time hit never reaches the queue"
            );
            assert!(spans_of(&ours, *trace, "plan.total").is_empty());
        }
    }

    // The whole drained set (minus the synthetic router parent, which no
    // local event defines) replays through the trace validator: every
    // parent link resolves, no duplicate span ids, no cycles.
    let validated: Vec<FlightEvent> = ours
        .iter()
        .filter(|e| e.trace != traces[5])
        .copied()
        .collect();
    let jsonl = madpipe_obs::flight::render_jsonl(&validated);
    let summary = madpipe_obs::validate::validate_trace_text(&jsonl).expect("dump validates");
    let serve_spans = validated
        .iter()
        .filter(|e| e.kind == FlightKind::Span && e.name.starts_with("serve."))
        .count();
    assert_eq!(
        serve_spans,
        3 * 4 + 2,
        "3 planned requests x (request, wait, worker, dp) + 2 warm requests x (request)"
    );
    assert_eq!(
        summary.linked_spans, summary.spans,
        "every span carries an id"
    );
    assert!(summary.span_names.contains("serve.request"));
    assert!(summary.span_names.contains("serve.dp"));
    assert!(summary.span_names.contains("plan.total"));
    assert!(summary.span_names.contains("dp.solve"));
}
