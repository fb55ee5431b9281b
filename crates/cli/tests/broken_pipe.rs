//! A reader that closes the pipe early (`madpipe plan … | head`) ends a
//! reporting command quietly: no panic message, no backtrace.

#![cfg(unix)]

use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};

#[test]
fn plan_with_stats_exits_quietly_when_stdout_closes_early() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_madpipe"))
        .args([
            "plan",
            "vgg16",
            "--gpus",
            "4",
            "--memory-gb",
            "10",
            "--stats",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn madpipe");
    // Close the read end before the child's first line: every write it
    // makes hits a closed pipe.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!stderr.contains("Broken pipe"), "stderr: {stderr}");
    assert!(
        status.success() || status.signal() == Some(13),
        "expected a clean exit or SIGPIPE, got {status:?}"
    );
}
