//! Warm-restart drills for the durable plan journal: a drained (or
//! crashed) daemon restarts with its cache rebuilt from the journal,
//! serves the warmed plans byte-identical to what it served before,
//! tolerates a torn tail from a mid-append crash, and reports the
//! recovery counts in `health`.

use std::time::Duration;

use madpipe_core::{madpipe_plan, PlannerConfig};
use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_serve::wire::{LineConn, MAX_REPLY_BYTES};
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

/// One round trip on a fresh connection, returning the *raw* response
/// line — byte identity is the whole point here.
fn raw_roundtrip(addr: std::net::SocketAddr, line: &str) -> String {
    let t = Duration::from_secs(60);
    LineConn::dial(&addr.to_string(), t, t)
        .and_then(|mut conn| conn.exchange(line, MAX_REPLY_BYTES))
        .expect("read response")
}

fn start_with_journal(journal: &str) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 64,
        timeout: Duration::from_secs(60),
        queue_depth: 64,
        journal: Some(journal.to_string()),
        ..ServeConfig::default()
    })
    .expect("bind")
}

fn journal_stats(addr: std::net::SocketAddr) -> Value {
    let v = Value::parse(&raw_roundtrip(addr, r#"{"cmd":"health"}"#)).unwrap();
    v.field("health")
        .expect("health body")
        .field("journal")
        .expect("journal stats in health")
        .clone()
}

fn uint(v: &Value, key: &str) -> u64 {
    v.field(key).unwrap().as_u64().unwrap()
}

#[test]
fn restart_serves_journal_warmed_plans_byte_identical_despite_a_torn_tail() {
    let journal = std::env::temp_dir()
        .join(format!("madpipe-recovery-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&journal);

    // First life: plan two instances fresh, capture the *cached* served
    // bytes (the second ask answers from cache — exactly what a warmed
    // restart must reproduce).
    let lines: Vec<String> = (0..2)
        .map(|s| {
            let (c, p) = instance(s);
            plan_line(&c, &p)
        })
        .collect();
    let offline_bits: Vec<u64> = (0..2)
        .map(|s| {
            let (c, p) = instance(s);
            madpipe_plan(&c, &p, &PlannerConfig::default())
                .expect("offline plan")
                .period()
                .to_bits()
        })
        .collect();
    let first_life: Vec<String> = {
        let server = start_with_journal(&journal);
        let addr = server.local_addr();
        for line in &lines {
            let fresh = Value::parse(&raw_roundtrip(addr, line)).unwrap();
            assert_eq!(fresh.field("ok").unwrap(), &Value::Bool(true));
            assert_eq!(fresh.field("cached").unwrap(), &Value::Bool(false));
        }
        let stats = journal_stats(addr);
        assert_eq!(uint(&stats, "appended"), 2, "two fresh plans journaled");
        assert_eq!(uint(&stats, "errors"), 0);
        let cached = lines.iter().map(|l| raw_roundtrip(addr, l)).collect();
        server.shutdown();
        server.join(); // compacts the journal
        cached
    };
    for (response, bits) in first_life.iter().zip(&offline_bits) {
        let v = Value::parse(response).unwrap();
        assert_eq!(v.field("cached").unwrap(), &Value::Bool(true));
        let served = v
            .field("plan")
            .unwrap()
            .field("period")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(served.to_bits(), *bits, "served == offline, bit for bit");
    }

    // Crash injection: a mid-append power cut leaves half a frame at
    // the tail. Replay must keep every intact record and count the tear.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(b"1234 deadbeefdeadbeef {\"key\":\"torn")
            .unwrap();
    }

    // Second life: the cache is warmed from the journal before the
    // listener goes live — the first ask is already a hit, and the
    // response bytes equal the first life's cached response exactly.
    let server = start_with_journal(&journal);
    let addr = server.local_addr();
    let stats = journal_stats(addr);
    assert_eq!(uint(&stats, "recovered"), 2, "both compacted records");
    assert_eq!(uint(&stats, "applied"), 2);
    assert!(uint(&stats, "torn") >= 1, "the torn tail is counted");
    assert_eq!(
        stats.field("path").unwrap().as_str().unwrap(),
        journal,
        "health names the journal file"
    );
    for (line, expected) in lines.iter().zip(&first_life) {
        let warmed = raw_roundtrip(addr, line);
        assert_eq!(
            &warmed, expected,
            "journal-warmed response must be byte-identical to the pre-crash one"
        );
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn compaction_keeps_replay_equal_to_the_live_cache() {
    let journal = std::env::temp_dir()
        .join(format!("madpipe-compact-{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&journal);

    // Ask the same instance three times across two lives: the journal
    // must not accumulate duplicate records (drain compacts down to the
    // live cache), and the third life still warms to a hit.
    let (c, p) = instance(7);
    let line = plan_line(&c, &p);
    for life in 0..3 {
        let server = start_with_journal(&journal);
        let addr = server.local_addr();
        let v = Value::parse(&raw_roundtrip(addr, &line)).unwrap();
        assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
        assert_eq!(
            v.field("cached").unwrap(),
            &Value::Bool(life > 0),
            "life {life}: only the very first ask computes"
        );
        server.shutdown();
        server.join();
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(
            text.lines().count(),
            1,
            "life {life}: compaction keeps exactly the one live record"
        );
    }
    let _ = std::fs::remove_file(&journal);
}
