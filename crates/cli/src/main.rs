//! `madpipe` — command-line planner and experiment runner.
//!
//! ```text
//! madpipe networks
//! madpipe plan resnet50 --gpus 4 --memory-gb 8 --bandwidth-gb 12
//! madpipe gantt resnet50 --gpus 4 --memory-gb 8
//! madpipe simulate resnet50 --gpus 4 --memory-gb 8
//! madpipe profile resnet50 --out resnet50.json
//! madpipe experiments all --out results [--full] [--threads N]
//! ```

mod args;
mod commands;

/// Commands that talk over sockets. They keep Rust's default of
/// ignoring SIGPIPE, so a peer that hangs up surfaces as an `EPIPE`
/// error the command handles instead of killing the process.
#[cfg(unix)]
const SOCKET_COMMANDS: [&str; 4] = ["serve", "route", "loadgen", "top"];

/// Every other command writes its report to stdout, often into a pipe
/// (`madpipe plan … | head`). Restore SIGPIPE's default action so a
/// reader that closes early ends the process quietly, as it would any
/// Unix filter, instead of `println!` panicking on `EPIPE`.
#[cfg(unix)]
fn exit_quietly_on_closed_stdout() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: resetting a signal to its default action, before any
    // other thread exists.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    #[cfg(unix)]
    if !SOCKET_COMMANDS.contains(&argv.first().map_or("", String::as_str)) {
        exit_quietly_on_closed_stdout();
    }
    let code = match commands::dispatch(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}
